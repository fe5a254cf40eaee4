//! The job journal: the one write-ahead log that makes `temu-serve`
//! restarts lossless.
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
//! With `--window-checkpoint N` the same log also holds window records,
//! each running point's run state every N sampling windows
//! ([`Journal::record_window`]): the byte `W` (every JSON record starts
//! with `{`), the job id, the point's scenario content key and the window
//! count (three `u64` LE), then the
//! [`EmulationState::to_bytes`](temu_framework::EmulationState::to_bytes)
//! bytes.
//!
//! On startup the server replays the journal and re-enqueues every job
//! that was submitted but never reached a terminal record — the jobs that
//! were queued or running when the previous process died — with the last
//! window record of each of its in-flight points, from which those points
//! resume. Combined with the incremental
//! [`ResultCache`](temu_framework::ResultCache) store (flushed after
//! every executed point), a job killed at point *k* restarts as *k* cache
//! hits plus the remaining points. Opening also compacts the file to the
//! records those jobs still need, so a restart replays the jobs in
//! flight, not every job the server ever ran.
//!
//! The file is a binary [`AppendLog`] (magic `temuJRN2`): each record is
//! checksummed, so a torn write (a writer that died mid-append, or an
//! injected `torn_write` fault) and bit rot alike are skipped and counted
//! in [`JournalReplay::skipped`]. A damaged record may cost a re-run from
//! the cache, never a job: a flipped terminal record cannot pass as
//! another job's, and a lost or undecodable window record only means its
//! point re-runs from scratch. A journal in an older format (format 1 was
//! JSON lines) fails closed, as an older result store does:
//! [`Journal::open`] returns the [`AppendLog`] error naming the file and
//! leaves the file as it is, so `temu-serve` refuses to start. Moving the
//! file aside starts an empty journal, and the jobs it held are not
//! re-enqueued.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use temu_framework::{JsonObject, JsonValue, SweepSpec};
use temu_state::{AppendLog, LogReplay};

/// The journal file's magic: format 2, the checksummed append log.
pub const JOURNAL_MAGIC: [u8; 8] = *b"temuJRN2";

/// The first byte of a window record.
const WINDOW_TAG: u8 = b'W';

/// A window record's tag, job id, content key and window count, ahead of
/// the state bytes.
const WINDOW_HEADER: usize = 25;

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
    /// The state bytes of the last window record of each of the job's
    /// in-flight points, keyed by the point's scenario content key.
    pub states: BTreeMap<u64, Vec<u8>>,
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
    /// Opens (creating if absent) the journal at `path`, replays its
    /// existing records and compacts the file to the records still
    /// needed: each pending job's first submit and start records and the
    /// last window record of each of its points, plus, when the highest
    /// job id is not a pending job's, the last other record carrying it
    /// (that job's terminal record), so [`JournalReplay::next_id`] never
    /// moves back. Reopening the compacted file replays the same jobs,
    /// states and `next_id`.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, reading or rewriting the file, and
    /// [`std::io::ErrorKind::InvalidData`] naming the file for a journal in
    /// an older format, which is left unchanged.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, JournalReplay)> {
        let (mut log, replay) = AppendLog::open(path, JOURNAL_MAGIC)?;
        let (replayed, kept) = replay_records(replay);
        log.rewrite(&kept)?;
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

    /// Records a window checkpoint: job `id`'s point `key` after `windows`
    /// sampling windows, as
    /// [`EmulationState::to_bytes`](temu_framework::EmulationState::to_bytes)
    /// bytes, in one `write` plus fdatasync (every N windows, so off the
    /// emulation's critical path). Both phases are timed, which tells a
    /// large state from a slow disk, and the record is counted
    /// (`serve.checkpoints_recorded`) only once both succeed.
    pub fn record_window(&self, id: u64, key: u64, windows: u64, state: &[u8]) {
        let mut payload = Vec::with_capacity(WINDOW_HEADER + state.len());
        payload.push(WINDOW_TAG);
        for v in [id, key, windows] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.extend_from_slice(state);
        let durable = temu_obs::time!("serve.checkpoint_write_ns", self.log.append(&payload))
            .and_then(|()| temu_obs::time!("serve.checkpoint_fsync_ns", self.log.sync()));
        if durable.is_ok() {
            temu_obs::global().counter("serve.checkpoints_recorded").inc();
            if temu_obs::enabled() {
                temu_obs::global().histogram("serve.checkpoint_bytes").record(state.len() as u64);
            }
        }
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

/// One decoded record.
enum Record {
    Submit { name: Option<String>, spec: Box<SweepSpec>, priority: i64 },
    Start,
    Terminal,
    Window { key: u64 },
    /// An op this version does not know (a newer writer's), or a submit
    /// without a spec: it only advances `next_id`.
    Other,
}

/// Folds the intact records into the jobs to re-enqueue and the records
/// the compacted log keeps, in file order. The first submit of a job wins
/// and duplicates are idempotent; every record's job id advances
/// `next_id`, a terminal record for an unknown job included; the last
/// window record per (job, point) wins; unknown ops are skipped. A record
/// that does not decode counts as skipped.
fn replay_records(replay: LogReplay) -> (JournalReplay, Vec<Vec<u8>>) {
    let LogReplay { mut records, mut skipped } = replay;
    let mut order: Vec<u64> = Vec::new();
    // Per job: its first submit record's index, name, spec and priority.
    let mut submits: HashMap<u64, (usize, String, SweepSpec, i64)> = HashMap::new();
    let mut starts: HashMap<u64, usize> = HashMap::new();
    let mut terminal: HashSet<u64> = HashSet::new();
    // Per job: the index of each point's last window record.
    let mut windows: HashMap<u64, BTreeMap<u64, usize>> = HashMap::new();
    let mut next_id: u64 = 1;
    // The last record other than a submit that carries the highest id:
    // kept when no pending job holds that id, it keeps `next_id` from
    // moving back (a submit kept alone would re-enqueue a finished job).
    let mut horizon: Option<usize> = None;
    for (at, payload) in records.iter().enumerate() {
        let Some((id, record)) = decode(payload) else {
            skipped += 1;
            continue;
        };
        let Some(id) = id else { continue };
        if id >= next_id {
            next_id = id.saturating_add(1);
            horizon = None;
        }
        if id.saturating_add(1) == next_id && !matches!(record, Record::Submit { .. }) {
            horizon = Some(at);
        }
        match record {
            Record::Submit { name, spec, priority } => {
                // First submit wins: a duplicated record cannot
                // re-order or overwrite the job.
                if let std::collections::hash_map::Entry::Vacant(slot) = submits.entry(id) {
                    let name = name.unwrap_or_else(|| spec.name.clone());
                    slot.insert((at, name, *spec, priority));
                    order.push(id);
                }
            }
            Record::Start => {
                starts.entry(id).or_insert(at);
            }
            Record::Terminal => {
                terminal.insert(id);
            }
            Record::Window { key } => {
                windows.entry(id).or_default().insert(key, at);
            }
            Record::Other => {}
        }
    }
    let mut kept: Vec<usize> = Vec::new();
    let mut pending = Vec::new();
    for id in order.into_iter().filter(|id| !terminal.contains(id)) {
        let Some((at, name, spec, priority)) = submits.remove(&id) else { continue };
        let start = starts.get(&id).copied();
        let points = windows.remove(&id).unwrap_or_default();
        kept.push(at);
        kept.extend(start);
        kept.extend(points.values());
        let states =
            points.into_iter().map(|(key, at)| (key, records[at][WINDOW_HEADER..].to_vec())).collect();
        pending.push(RecoveredJob { id, name, spec, was_running: start.is_some(), priority, states });
    }
    if !pending.iter().any(|job| job.id.saturating_add(1) == next_id) {
        kept.extend(horizon);
    }
    kept.sort_unstable();
    let kept = kept.into_iter().map(|at| std::mem::take(&mut records[at])).collect();
    (JournalReplay { pending, next_id, skipped }, kept)
}

/// Decodes one record into its job id (`None` for a JSON record without
/// one) and kind; `None` when it is not a record: a window record shorter
/// than its header, or JSON without an `op` or with a spec that does not
/// parse.
fn decode(payload: &[u8]) -> Option<(Option<u64>, Record)> {
    if payload.first() == Some(&WINDOW_TAG) {
        let word = |at: usize| Some(u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?));
        // Replay needs no window count, but a record too short for one is
        // damaged.
        let (id, key, _windows) = (word(1)?, word(9)?, word(17)?);
        return Some((Some(id), Record::Window { key }));
    }
    let v = JsonValue::parse(std::str::from_utf8(payload).ok()?).ok()?;
    let spec = match v.get("spec") {
        Some(sv) => Some(SweepSpec::from_value(sv).ok()?),
        None => None,
    };
    let record = match (v.get("op")?.as_str()?, spec) {
        ("submit", Some(spec)) => Record::Submit {
            name: v.get("name").and_then(JsonValue::as_str).map(String::from),
            spec: Box::new(spec),
            priority: v.get("priority").and_then(JsonValue::as_i64).unwrap_or(0),
        },
        ("start", _) => Record::Start,
        ("done" | "failed" | "cancelled", _) => Record::Terminal,
        _ => Record::Other,
    };
    Some((v.get("job").and_then(JsonValue::as_u64), record))
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

    /// Appends a submit and a start record for each of `ids`.
    fn start_jobs(journal: &Journal, ids: &[u64]) {
        for &id in ids {
            journal.record_submit(id, "smoke", 0, &smoke());
            journal.record_start(id);
        }
    }

    fn file_len(path: &Path) -> usize {
        std::fs::read(path).unwrap().len()
    }

    /// The journal's intact records, read without replaying or compacting.
    fn raw_records(path: &Path) -> Vec<Vec<u8>> {
        AppendLog::open(path, JOURNAL_MAGIC).unwrap().1.records
    }

    #[test]
    fn record_replay_round_trips_and_last_record_wins() {
        let path = temp_journal("windows");
        let before = {
            let (journal, _) = Journal::open(&path).unwrap();
            start_jobs(&journal, &[1, 2]);
            let before = file_len(&path);
            journal.record_window(1, 0xabc, 5, &[1, 2, 3]);
            journal.record_window(1, 0xabc, 10, &[4, 5]);
            journal.record_window(1, 0xdef, 2, &[9]);
            journal.record_window(2, 0xabc, 7, &[7, 7]);
            before
        };
        let bytes = file_len(&path) - before;
        assert_eq!(bytes, 4 * 41 + 3 + 2 + 1 + 2, "a record costs its state plus 41 bytes");
        let r = reopen_and_remove(&path);
        assert_eq!(r.skipped, 0);
        assert_eq!(pending_ids(&r), vec![1, 2]);
        assert_eq!(
            r.pending[0].states,
            BTreeMap::from([(0xabc, vec![4, 5]), (0xdef, vec![9])]),
            "one state per point, and the later record wins"
        );
        assert_eq!(r.pending[1].states, BTreeMap::from([(0xabc, vec![7, 7])]));
    }

    #[test]
    fn torn_tail_is_skipped_and_glued_records_are_recovered() {
        // A writer died mid-append; O_APPEND glued the next complete
        // record onto the torn one.
        let path = temp_journal("torn-window");
        let start = {
            let (journal, _) = Journal::open(&path).unwrap();
            start_jobs(&journal, &[1, 2]);
            let start = file_len(&path);
            journal.record_window(1, 0x1, 3, &[0xee; 64]);
            journal.record_window(2, 0xa, 3, &[0xff]);
            start
        };
        let bytes = std::fs::read(&path).unwrap();
        let first_end = start + 41 + 64;
        let torn = [&bytes[..first_end - 20], &bytes[first_end..], &bytes[start..start + 22]].concat();
        std::fs::write(&path, torn).unwrap();
        let r = reopen_and_remove(&path);
        assert_eq!(r.skipped, 2, "the torn record and the torn tail");
        assert_eq!(pending_ids(&r), vec![1, 2]);
        assert!(r.pending[0].states.is_empty(), "job 1's only window record was torn");
        assert_eq!(r.pending[1].states, BTreeMap::from([(0xa, vec![0xff])]));
    }

    #[test]
    fn compact_drops_finished_jobs_and_keeps_the_file_appendable() {
        let path = temp_journal("compact");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            start_jobs(&journal, &[1, 2, 3]);
            journal.record_window(1, 0x1, 5, &[1]);
            journal.record_window(2, 0x2, 5, &[2]);
            journal.record_window(2, 0x3, 5, &[3]);
            journal.record_window(2, 0x2, 10, &[2, 2]);
            journal.record_window(3, 0x1, 5, &[3]);
            journal.record_window(2, 0x3, 10, &[3, 3]);
            journal.record_terminal(1, "done");
            journal.record_terminal(3, "failed");
        }
        let raw = raw_records(&path);
        let (journal, r) = Journal::open(&path).unwrap();
        assert_eq!(pending_ids(&r), vec![2]);
        assert_eq!(r.next_id, 4);
        // Job 2's submit and start records, its last window record per
        // point, and job 3's terminal record, which holds the id horizon.
        let expected = [2, 3, 9, 11, 13].map(|at| raw[at].clone());
        assert_eq!(raw_records(&path), expected, "finished jobs and superseded states are dropped");
        journal.record_submit(4, "smoke", 0, &smoke());
        journal.record_window(2, 0x2, 15, &[2, 2, 2]);
        drop(journal);
        let r = reopen_and_remove(&path);
        assert_eq!(pending_ids(&r), vec![2, 4], "appends after the compaction land in the file");
        assert_eq!(r.next_id, 5);
        assert_eq!(r.pending[0].states, BTreeMap::from([(0x2, vec![2, 2, 2]), (0x3, vec![3, 3])]));
    }

    #[test]
    fn reopening_is_idempotent() {
        let path = temp_journal("reopen");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            start_jobs(&journal, &[1, 2]);
            journal.record_submit(3, "queued", 4, &smoke());
            journal.record_window(1, 0x1, 5, &[1]);
            journal.record_window(2, 0x2, 5, &[2]);
            journal.record_window(1, 0x1, 9, &[1, 1]);
            journal.record_terminal(2, "failed");
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"TREC torn");
        std::fs::write(&path, bytes).unwrap();
        let (_, first) = Journal::open(&path).unwrap();
        assert_eq!(first.skipped, 1, "the torn tail");
        let second = reopen_and_remove(&path);
        assert_eq!(second, JournalReplay { skipped: 0, ..first }, "the same jobs, states and next_id");
        assert_eq!(pending_ids(&second), vec![1, 3]);
        assert_eq!(second.pending[0].states, BTreeMap::from([(0x1, vec![1, 1])]));
        assert_eq!(second.next_id, 4);
    }

    #[test]
    fn next_id_survives_a_compaction_whose_highest_job_finished() {
        let path = temp_journal("horizon");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            start_jobs(&journal, &[1, 2]);
            journal.record_window(2, 0x2, 5, &[2]);
            journal.record_terminal(2, "done");
            journal.record_terminal(1, "cancelled");
        }
        let (_, r) = Journal::open(&path).unwrap();
        assert!(r.pending.is_empty());
        assert_eq!(r.next_id, 3);
        let horizon = JsonObject::line().str("op", "done").raw("job", 2).finish();
        assert_eq!(raw_records(&path), [horizon.into_bytes()], "only job 2's terminal record is left");
        let r = reopen_and_remove(&path);
        assert_eq!(r.next_id, 3, "a restart never hands out a finished job's id again");
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
