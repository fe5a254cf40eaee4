//! The job journal: a write-ahead log that makes `temu-serve` restarts
//! lossless.
//!
//! Every job transition is one JSON record appended to `jobs.jsonl` (by
//! default next to the result store):
//!
//! ```text
//! {"op": "submit", "job": 3, "name": "smoke", "spec": {...}}
//! {"op": "start", "job": 3}
//! {"op": "done", "job": 3}          // or "failed" / "cancelled"
//! ```
//!
//! On startup the server replays the journal and re-enqueues every job
//! that was submitted but never reached a terminal record — the jobs that
//! were queued or running when the previous process died. Combined with
//! the incremental [`ResultCache`](temu_framework::ResultCache) store
//! (flushed after every executed point), a job killed at point *k*
//! restarts as *k* cache hits plus the remaining points.
//!
//! The file is a binary [`AppendLog`] (magic `temuJRN2`): each record is
//! checksummed, so a torn write (a writer that died mid-append, or an
//! injected `torn_write` fault) and bit rot alike are skipped and counted
//! in [`JournalReplay::skipped`]. A damaged record may cost a re-run from
//! the cache, never a job: a flipped terminal record cannot pass as
//! another job's. A journal in an older format (format 1 was JSON lines)
//! fails closed, as an older result store does: [`Journal::open`] returns
//! the [`AppendLog`] error naming the file and leaves the file as it is,
//! so `temu-serve` refuses to start. Moving the file aside starts an
//! empty journal, and the jobs it held are not re-enqueued.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use temu_framework::{JsonObject, JsonValue, SweepSpec};
use temu_state::{AppendLog, LogReplay};

/// The journal file's magic: format 2, the checksummed append log.
pub const JOURNAL_MAGIC: [u8; 8] = *b"temuJRN2";

/// A job the journal proves was in flight when the process died.
#[derive(Clone, PartialEq, Debug)]
pub struct RecoveredJob {
    /// The job id from the previous incarnation (preserved, so clients
    /// polling a pre-crash id keep working across the restart).
    pub id: u64,
    /// The sweep's display name.
    pub name: String,
    /// The full spec, ready to re-enqueue.
    pub spec: SweepSpec,
    /// Whether a `start` record proves the job had reached a worker
    /// (false: it was still queued).
    pub was_running: bool,
    /// The submission's scheduling priority (0 when the record predates
    /// priorities) — replay preserves it so a restart re-enqueues the
    /// queue in the same order a live server would have run it.
    pub priority: i64,
}

/// The outcome of replaying a journal file.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct JournalReplay {
    /// Non-terminal jobs in submit order — what the server re-enqueues.
    pub pending: Vec<RecoveredJob>,
    /// One past the highest job id seen (the restart's first fresh id),
    /// or 1 for an empty journal.
    pub next_id: u64,
    /// Damaged or undecodable records skipped during replay.
    pub skipped: usize,
}

/// The append handle. The server holds it in an `Arc`; each record is one
/// atomic `O_APPEND` write, so concurrent workers need no lock.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and replays its
    /// existing records.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file, and
    /// [`std::io::ErrorKind::InvalidData`] naming the file for a journal in
    /// an older format, which is left unchanged.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, JournalReplay)> {
        let (log, replay) = AppendLog::open(path, JOURNAL_MAGIC)?;
        Ok((Journal { log }, replay_records(&replay)))
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records a submission (the write-ahead half: this lands before the
    /// job is queued, so a crash after the append still recovers it).
    /// The default priority 0 is omitted, keeping records byte-identical
    /// to pre-priority journals.
    pub fn record_submit(&self, id: u64, name: &str, priority: i64, spec: &SweepSpec) {
        self.append(
            &JsonObject::line()
                .str("op", "submit")
                .raw("job", id)
                .str("name", name)
                .opt_raw("priority", (priority != 0).then_some(priority))
                .raw("spec", spec.to_json())
                .finish(),
        );
    }

    /// Records that a worker claimed the job.
    pub fn record_start(&self, id: u64) {
        self.append(&JsonObject::line().str("op", "start").raw("job", id).finish());
    }

    /// Records a terminal transition (`done` / `failed` / `cancelled`).
    pub fn record_terminal(&self, id: u64, state: &str) {
        self.append(&JsonObject::line().str("op", state).raw("job", id).finish());
    }

    /// Appends one record (plus fdatasync — journal traffic is per job,
    /// not per point, so durability is cheap here). The `torn_write`
    /// fault writes only a prefix of the record, exactly the tear a dying
    /// writer leaves behind.
    fn append(&self, record: &str) {
        temu_obs::time!("serve.journal_append_ns", {
            let _ = self.log.append_with(record.as_bytes(), crate::fault::torn_write);
            let _ = self.log.sync();
        });
    }
}

/// Folds the intact records into the set of jobs to re-enqueue: the first
/// submit of a job wins and duplicates are idempotent, a terminal record
/// for an unknown job still advances `next_id`, and unknown ops are
/// skipped. A record that does not decode counts as skipped.
fn replay_records(replay: &LogReplay) -> JournalReplay {
    let mut skipped = replay.skipped;
    let mut order: Vec<u64> = Vec::new();
    let mut specs: HashMap<u64, (String, SweepSpec, i64)> = HashMap::new();
    let mut started: HashSet<u64> = HashSet::new();
    let mut terminal: HashSet<u64> = HashSet::new();
    let mut next_id: u64 = 1;
    for payload in &replay.records {
        let record = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| JsonValue::parse(text).ok())
            .and_then(|v| decode(&v));
        let Some(record) = record else {
            skipped += 1;
            continue;
        };
        let Some(id) = record.id else { continue };
        next_id = next_id.max(id.saturating_add(1));
        match record.op.as_str() {
            "submit" => {
                if let Some(spec) = record.spec {
                    // First submit wins: a duplicated record cannot
                    // re-order or overwrite the job.
                    if let std::collections::hash_map::Entry::Vacant(slot) = specs.entry(id) {
                        let name = record.name.unwrap_or_else(|| spec.name.clone());
                        slot.insert((name, spec, record.priority));
                        order.push(id);
                    }
                }
            }
            "start" => {
                started.insert(id);
            }
            "done" | "failed" | "cancelled" => {
                terminal.insert(id);
            }
            // Unknown ops from a newer writer are skipped, not fatal.
            _ => {}
        }
    }
    let pending = order
        .into_iter()
        .filter(|id| !terminal.contains(id))
        .filter_map(|id| {
            let (name, spec, priority) = specs.get(&id)?.clone();
            Some(RecoveredJob { id, name, spec, was_running: started.contains(&id), priority })
        })
        .collect();
    JournalReplay { pending, next_id, skipped }
}

struct Record {
    op: String,
    id: Option<u64>,
    name: Option<String>,
    spec: Option<SweepSpec>,
    priority: i64,
}

/// Decodes one journal record; `None` when it is not one (no `op`, or a
/// spec that does not parse).
fn decode(v: &JsonValue) -> Option<Record> {
    let spec = match v.get("spec") {
        Some(sv) => Some(SweepSpec::from_value(sv).ok()?),
        None => None,
    };
    Some(Record {
        op: v.get("op")?.as_str()?.to_string(),
        id: v.get("job").and_then(JsonValue::as_u64),
        name: v.get("name").and_then(JsonValue::as_str).map(String::from),
        spec,
        priority: v.get("priority").and_then(JsonValue::as_i64).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> SweepSpec {
        SweepSpec::named("smoke").unwrap()
    }

    /// A fresh journal path in a directory of its own.
    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("temu-journal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Replays the journal at `path` and removes its directory.
    fn reopen_and_remove(path: &Path) -> JournalReplay {
        let (_, replay) = Journal::open(path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        replay
    }

    fn pending_ids(r: &JournalReplay) -> Vec<u64> {
        r.pending.iter().map(|j| j.id).collect()
    }

    #[test]
    fn replay_recovers_non_terminal_jobs_in_submit_order() {
        let path = temp_journal("order");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_submit(1, "smoke", 0, &smoke());
            journal.record_submit(2, "smoke", 0, &smoke());
            journal.record_start(1);
            journal.record_submit(3, "smoke", 0, &smoke());
            journal.record_terminal(2, "done");
        }
        let r = reopen_and_remove(&path);
        assert_eq!(pending_ids(&r), vec![1, 3]);
        assert!(r.pending[0].was_running);
        assert!(!r.pending[1].was_running);
        assert_eq!(r.next_id, 4);
        assert_eq!(r.skipped, 0);
    }

    #[test]
    fn replay_resyncs_past_a_torn_record() {
        // A writer died mid-submit; the next writer's records were
        // appended right after the tear.
        let path = temp_journal("torn");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            let (log, _) = AppendLog::open(&path, JOURNAL_MAGIC).unwrap();
            let submit = JsonObject::line()
                .str("op", "submit")
                .raw("job", 1)
                .str("name", "smoke")
                .raw("spec", smoke().to_json())
                .finish();
            log.append_with(submit.as_bytes(), |_| Some(40)).unwrap();
            journal.record_submit(2, "smoke", 0, &smoke());
            journal.record_terminal(2, "done");
        }
        let r = reopen_and_remove(&path);
        assert_eq!(r.pending.len(), 0, "job 1's record was torn, job 2 finished");
        assert_eq!(r.next_id, 3);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn replay_is_idempotent_over_duplicates_and_orphan_terminals() {
        let path = temp_journal("dups");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_submit(1, "smoke", 0, &smoke());
            journal.record_submit(1, "again", 4, &smoke());
            journal.record_terminal(9, "cancelled");
            let (log, _) = AppendLog::open(&path, JOURNAL_MAGIC).unwrap();
            let unknown = JsonObject::line().str("op", "weird").raw("job", 1).finish();
            log.append(unknown.as_bytes()).unwrap();
        }
        let r = reopen_and_remove(&path);
        assert_eq!(pending_ids(&r), vec![1]);
        let first = &r.pending[0];
        assert_eq!((first.name.as_str(), first.priority), ("smoke", 0), "the first submit wins");
        assert_eq!(r.next_id, 10, "orphan terminal still advances the id horizon");
        assert_eq!(r.skipped, 0, "an unknown op is skipped, not counted as damage");
    }

    #[test]
    fn open_round_trips_through_the_file() {
        let path = temp_journal("round-trip");
        let spec = smoke();
        {
            let (journal, r) = Journal::open(&path).unwrap();
            assert_eq!(r, JournalReplay { next_id: 1, ..JournalReplay::default() });
            journal.record_submit(1, "smoke", 0, &spec);
            journal.record_start(1);
            journal.record_submit(2, "smoke", 7, &spec);
        }
        let r = reopen_and_remove(&path);
        assert_eq!(r.pending.len(), 2);
        assert_eq!(r.next_id, 3);
        assert!(r.pending[0].was_running && !r.pending[1].was_running);
        assert_eq!(
            (r.pending[0].priority, r.pending[1].priority),
            (0, 7),
            "replay preserves submission priorities"
        );
    }

    #[test]
    fn a_flipped_terminal_record_never_loses_a_job() {
        // Bit rot that turns `done` for job 7 into a well-formed `done`
        // for job 8: the checksum catches it, so job 7 re-runs (from the
        // cache) and job 8 is not silently dropped.
        let path = temp_journal("bitrot");
        let spec = smoke();
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_submit(7, "smoke", 0, &spec);
            journal.record_submit(8, "smoke", 0, &spec);
            journal.record_terminal(7, "done");
        }
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(bytes.ends_with(b"\"job\": 7}"), "the terminal record is last");
        let at = bytes.len() - 2;
        bytes[at] = b'8';
        std::fs::write(&path, &bytes).unwrap();
        let r = reopen_and_remove(&path);
        assert_eq!(pending_ids(&r), vec![7, 8]);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn a_json_lines_journal_from_an_older_version_fails_closed() {
        let path = temp_journal("old");
        let spec = smoke().to_json();
        let old =
            format!("{{\"op\": \"submit\", \"job\": 1, \"spec\": {spec}}}\n{{\"op\": \"start\", \"job\": 1}}\n");
        std::fs::write(&path, &old).unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&path.display().to_string()), "names the file: {err}");
        // The server refuses to bind on it, with the same error.
        let config = crate::ServeConfig {
            addr: String::from("127.0.0.1:0"),
            journal: Some(path.clone()),
            ..crate::ServeConfig::default()
        };
        let bind = crate::Server::bind(config).err().expect("the bind fails");
        assert_eq!(bind.to_string(), err.to_string());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old, "the old journal is left untouched");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn priority_survives_replay_and_defaults_for_old_records() {
        // Priority 0 is omitted from the record, so a record without a
        // priority (an older writer's) replays as the batch tier.
        let path = temp_journal("priority");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_submit(1, "smoke", 0, &smoke());
            journal.record_submit(2, "hot", 5, &smoke());
        }
        let (_log, raw) = AppendLog::open(&path, JOURNAL_MAGIC).unwrap();
        assert!(!String::from_utf8_lossy(&raw.records[0]).contains("priority"));
        let r = reopen_and_remove(&path);
        assert_eq!(r.pending.len(), 2);
        assert_eq!(r.pending[0].priority, 0, "records without a priority default to the batch tier");
        assert_eq!(r.pending[1].priority, 5);
    }

    #[test]
    fn record_bytes_are_pinned() {
        let path = temp_journal("golden");
        let spec = SweepSpec::new("g", temu_framework::ScenarioSpec::preset("smoke"));
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_submit(4, "name \"q\"", 0, &spec);
            journal.record_submit(5, "p", -3, &spec);
            journal.record_start(4);
            journal.record_terminal(4, "cancelled");
        }
        let (_log, replay) = AppendLog::open(&path, JOURNAL_MAGIC).unwrap();
        let records: Vec<String> =
            replay.records.into_iter().map(|r| String::from_utf8(r).unwrap()).collect();
        assert_eq!(records, GOLDEN_RECORDS);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    const GOLDEN_RECORDS: [&str; 4] = [
        "{\"op\": \"submit\", \"job\": 4, \"name\": \"name \\\"q\\\"\", \"spec\": {\"sweep\": \"g\", \"base\": {\"preset\": \"smoke\"}, \"axes\": []}}",
        "{\"op\": \"submit\", \"job\": 5, \"name\": \"p\", \"priority\": -3, \"spec\": {\"sweep\": \"g\", \"base\": {\"preset\": \"smoke\"}, \"axes\": []}}",
        "{\"op\": \"start\", \"job\": 4}",
        "{\"op\": \"cancelled\", \"job\": 4}",
    ];
}
