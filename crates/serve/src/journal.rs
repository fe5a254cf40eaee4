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
//! another job's. A format-1 (JSON-lines) journal is converted once on
//! open: [`replay_v1`]'s decodable records become the format-2 records.

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
    /// existing records, converting a format-1 journal first.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, reading or converting the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, JournalReplay)> {
        let path = path.as_ref();
        let (log, replay) = match AppendLog::open(path, JOURNAL_MAGIC) {
            Ok(opened) => opened,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let (records, skipped) = v1_records(&String::from_utf8_lossy(&std::fs::read(path)?));
                (AppendLog::replace(path, JOURNAL_MAGIC, &records)?, LogReplay { records, skipped })
            }
            Err(e) => return Err(e),
        };
        let replayed = replay_records(replay.records.iter().map(Vec::as_slice), replay.skipped);
        Ok((Journal { log }, replayed))
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

/// Replays format-1 (JSON-lines) journal text, the reader behind the
/// one-time conversion of an old journal. Total: every decodable record
/// is applied, every undecodable byte run is skipped (counted in
/// [`JournalReplay::skipped`]), duplicates are idempotent, and a terminal
/// record for an unknown job is ignored.
#[must_use]
pub fn replay_v1(text: &str) -> JournalReplay {
    let (records, skipped) = v1_records(text);
    replay_records(records.iter().map(Vec::as_slice), skipped)
}

/// The decodable records of format-1 text, as their JSON bytes, and the
/// number of byte runs skipped. A torn record is skipped by resyncing at
/// the next `{"op"` marker, so complete records glued after the tear on
/// the same line are still recovered.
fn v1_records(text: &str) -> (Vec<Vec<u8>>, usize) {
    let (mut records, mut skipped) = (Vec::new(), 0usize);
    for line in text.lines() {
        let mut rest = line.trim_start();
        while !rest.is_empty() {
            match JsonValue::parse_prefix(rest).ok().filter(|(v, _)| decode(v).is_some()) {
                Some((_, end)) => {
                    records.push(rest.as_bytes()[..end].to_vec());
                    rest = rest[end..].trim_start();
                }
                None => {
                    skipped += 1;
                    // Resync past one whole character (foreign lines may
                    // start mid-UTF-8) at the next record marker.
                    let skip = rest.chars().next().map_or(1, char::len_utf8);
                    match rest[skip..].find("{\"op\"") {
                        Some(off) => rest = &rest[skip + off..],
                        None => break,
                    }
                }
            }
        }
    }
    (records, skipped)
}

/// Folds record payloads into the set of jobs to re-enqueue; a payload
/// that does not decode counts as skipped.
fn replay_records<'a>(payloads: impl Iterator<Item = &'a [u8]>, mut skipped: usize) -> JournalReplay {
    let mut order: Vec<u64> = Vec::new();
    let mut specs: HashMap<u64, (String, SweepSpec, i64)> = HashMap::new();
    let mut started: HashSet<u64> = HashSet::new();
    let mut terminal: HashSet<u64> = HashSet::new();
    let mut next_id: u64 = 1;
    for payload in payloads {
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

    fn submit_line(id: u64) -> String {
        let spec = SweepSpec::named("smoke").unwrap();
        format!(
            "{{\"op\": \"submit\", \"job\": {id}, \"name\": \"smoke\", \"spec\": {}}}",
            spec.to_json()
        )
    }

    #[test]
    fn replay_recovers_non_terminal_jobs_in_submit_order() {
        let text = format!(
            "{}\n{}\n{{\"op\": \"start\", \"job\": 1}}\n{}\n{{\"op\": \"done\", \"job\": 2}}\n",
            submit_line(1),
            submit_line(2),
            submit_line(3),
        );
        let r = replay_v1(&text);
        assert_eq!(r.pending.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 3]);
        assert!(r.pending[0].was_running);
        assert!(!r.pending[1].was_running);
        assert_eq!(r.next_id, 4);
        assert_eq!(r.skipped, 0);
    }

    #[test]
    fn replay_resyncs_past_a_torn_record() {
        // A writer died mid-submit; the next writer's complete record was
        // glued onto the same line by O_APPEND.
        let torn = &submit_line(1)[..40];
        let text = format!("{torn}{}\n{{\"op\": \"done\", \"job\": 2}}\n", submit_line(2));
        let r = replay_v1(&text);
        assert_eq!(r.pending.len(), 0, "job 1's record was torn, job 2 finished");
        assert_eq!(r.next_id, 3);
        assert!(r.skipped > 0);
    }

    #[test]
    fn replay_is_idempotent_over_duplicates_and_orphan_terminals() {
        let text = format!(
            "{}\n{}\n{{\"op\": \"cancelled\", \"job\": 9}}\n{{\"op\": \"weird\", \"job\": 1}}\n",
            submit_line(1),
            submit_line(1),
        );
        let r = replay_v1(&text);
        assert_eq!(r.pending.len(), 1);
        assert_eq!(r.pending[0].id, 1);
        assert_eq!(r.next_id, 10, "orphan terminal still advances the id horizon");
    }

    #[test]
    fn open_round_trips_through_the_file() {
        let dir = std::env::temp_dir().join(format!("temu-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let _ = std::fs::remove_file(&path);
        let spec = SweepSpec::named("smoke").unwrap();
        {
            let (journal, r) = Journal::open(&path).unwrap();
            assert_eq!(r, JournalReplay { next_id: 1, ..JournalReplay::default() });
            journal.record_submit(1, "smoke", 0, &spec);
            journal.record_start(1);
            journal.record_submit(2, "smoke", 7, &spec);
        }
        let (_journal, r) = Journal::open(&path).unwrap();
        assert_eq!(r.pending.len(), 2);
        assert_eq!(r.next_id, 3);
        assert!(r.pending[0].was_running && !r.pending[1].was_running);
        assert_eq!(
            (r.pending[0].priority, r.pending[1].priority),
            (0, 7),
            "replay preserves submission priorities"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("temu-journal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn pending_ids(r: &JournalReplay) -> Vec<u64> {
        r.pending.iter().map(|j| j.id).collect()
    }

    #[test]
    fn a_flipped_terminal_record_never_loses_a_job() {
        // Bit rot that turns `done` for job 7 into a well-formed `done`
        // for job 8: the checksum catches it, so job 7 re-runs (from the
        // cache) and job 8 is not silently dropped.
        let path = temp_journal("bitrot");
        let spec = SweepSpec::named("smoke").unwrap();
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
        let (_, r) = Journal::open(&path).unwrap();
        assert_eq!(pending_ids(&r), vec![7, 8]);
        assert_eq!(r.skipped, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_format_1_journal_is_converted_once_on_open() {
        let path = temp_journal("convert");
        let torn = &submit_line(2)[..40];
        let text = format!(
            "{}\n{torn}{}\n{{\"op\": \"start\", \"job\": 3}}\n",
            submit_line(1),
            submit_line(3)
        );
        std::fs::write(&path, &text).unwrap();
        let v1 = replay_v1(&text);
        assert_eq!((pending_ids(&v1), v1.next_id, v1.skipped), (vec![1, 3], 4, 1));

        let (journal, r) = Journal::open(&path).unwrap();
        assert_eq!(r, v1, "conversion replays what the format-1 reader finds");
        assert!(std::fs::read(&path).unwrap().starts_with(&JOURNAL_MAGIC));
        drop(journal);
        let (journal, again) = Journal::open(&path).unwrap();
        assert_eq!(again, JournalReplay { skipped: 0, ..v1 }, "reopens identically, damage gone");
        journal.record_terminal(1, "done");
        drop(journal);
        let (_, after) = Journal::open(&path).unwrap();
        assert_eq!(pending_ids(&after), vec![3], "the converted journal accepts appends");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn priority_survives_replay_and_defaults_for_old_records() {
        let spec = SweepSpec::named("smoke").unwrap();
        let text = format!(
            "{}\n{{\"op\": \"submit\", \"job\": 2, \"name\": \"hot\", \"priority\": 5, \"spec\": {}}}\n",
            submit_line(1),
            spec.to_json(),
        );
        let r = replay_v1(&text);
        assert_eq!(r.pending.len(), 2);
        assert_eq!(r.pending[0].priority, 0, "pre-priority records default to the batch tier");
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
