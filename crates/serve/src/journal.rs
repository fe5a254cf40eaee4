//! The job journal: a write-ahead log that makes `temu-serve` restarts
//! lossless.
//!
//! Every job transition is one appended JSON line in `jobs.jsonl` (by
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
//! Replay uses the same recovery discipline as the result store: the file
//! is append-only, each record is one `write` call, and a torn record (a
//! writer that died mid-append, or an injected `torn_write` fault) is
//! skipped by resyncing at the next `{"op"` marker — complete records
//! glued after the tear on the same line are still recovered.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use temu_framework::{json_escape, JsonValue, SweepSpec};

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
    /// Torn or undecodable byte runs skipped during replay.
    pub skipped: usize,
}

/// The append handle. Cloning is not needed: the server holds it in an
/// `Arc` and each record is one atomic `O_APPEND` write.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` and replays its
    /// existing records.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, JournalReplay)> {
        let path = path.as_ref().to_path_buf();
        let replayed = if path.exists() {
            replay(&std::fs::read_to_string(&path)?)
        } else {
            JournalReplay { next_id: 1, ..JournalReplay::default() }
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((Journal { file: Mutex::new(file), path }, replayed))
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records a submission (the write-ahead half: this lands before the
    /// job is queued, so a crash after the append still recovers it).
    /// The default priority 0 is omitted, keeping records byte-identical
    /// to pre-priority journals.
    pub fn record_submit(&self, id: u64, name: &str, priority: i64, spec: &SweepSpec) {
        let priority =
            if priority == 0 { String::new() } else { format!("\"priority\": {priority}, ") };
        self.append(&format!(
            "{{\"op\": \"submit\", \"job\": {id}, \"name\": \"{}\", {priority}\"spec\": {}}}",
            json_escape(name),
            spec.to_json(),
        ));
    }

    /// Records that a worker claimed the job.
    pub fn record_start(&self, id: u64) {
        self.append(&format!("{{\"op\": \"start\", \"job\": {id}}}"));
    }

    /// Records a terminal transition (`done` / `failed` / `cancelled`).
    pub fn record_terminal(&self, id: u64, state: &str) {
        self.append(&format!("{{\"op\": \"{}\", \"job\": {id}}}", json_escape(state)));
    }

    /// Appends one record as a single `write` call (plus fdatasync —
    /// journal traffic is per job, not per point, so durability is cheap
    /// here). The `torn_write` fault truncates the record mid-line and
    /// drops the newline, reproducing exactly the tear a dying writer
    /// leaves behind.
    fn append(&self, record: &str) {
        let payload = match crate::fault::torn_write(record) {
            Some(torn) => torn,
            None => format!("{record}\n"),
        };
        temu_obs::time!("serve.journal_append_ns", {
            let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = file.write_all(payload.as_bytes());
            let _ = file.sync_data();
        });
    }
}

/// Replays journal text into the set of jobs to re-enqueue. Total: every
/// decodable record is applied, every undecodable byte run is skipped
/// (counted in [`JournalReplay::skipped`]), duplicates are idempotent,
/// and a terminal record for an unknown job is ignored.
#[must_use]
pub fn replay(text: &str) -> JournalReplay {
    let mut order: Vec<u64> = Vec::new();
    let mut specs: HashMap<u64, (String, SweepSpec, i64)> = HashMap::new();
    let mut started: HashSet<u64> = HashSet::new();
    let mut terminal: HashSet<u64> = HashSet::new();
    let mut next_id: u64 = 1;
    let mut skipped = 0usize;
    for line in text.lines() {
        let mut rest = line.trim_start();
        while !rest.is_empty() {
            match decode_prefix(rest) {
                Some((record, consumed)) => {
                    if let Some(id) = record.id {
                        next_id = next_id.max(id.saturating_add(1));
                    }
                    apply(&record, &mut order, &mut specs, &mut started, &mut terminal);
                    rest = rest[consumed..].trim_start();
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

fn apply(
    record: &Record,
    order: &mut Vec<u64>,
    specs: &mut HashMap<u64, (String, SweepSpec, i64)>,
    started: &mut HashSet<u64>,
    terminal: &mut HashSet<u64>,
) {
    let Some(id) = record.id else { return };
    match record.op.as_str() {
        "submit" => {
            if let Some(spec) = &record.spec {
                // First submit wins: a duplicated line cannot re-order or
                // overwrite the job.
                if let std::collections::hash_map::Entry::Vacant(slot) = specs.entry(id) {
                    let name = record.name.clone().unwrap_or_else(|| spec.name.clone());
                    slot.insert((name, spec.clone(), record.priority));
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

/// Decodes one record at the head of `rest`, returning it and the bytes
/// consumed. Journal records nest objects (the submit record embeds a
/// spec), so the record's end is found by brace matching with JSON string
/// awareness — the store's "first `}`" shortcut does not apply here.
fn decode_prefix(rest: &str) -> Option<(Record, usize)> {
    let end = object_end(rest)?;
    let v = JsonValue::parse(&rest[..end]).ok()?;
    let op = v.get("op")?.as_str()?.to_string();
    let spec = match v.get("spec") {
        Some(sv) => Some(SweepSpec::from_value(sv).ok()?),
        None => None,
    };
    let record = Record {
        op,
        id: v.get("job").and_then(JsonValue::as_u64),
        name: v.get("name").and_then(JsonValue::as_str).map(String::from),
        spec,
        priority: v.get("priority").and_then(JsonValue::as_i64).unwrap_or(0),
    };
    Some((record, end))
}

/// Byte length of the complete JSON object at the head of `text` (which
/// must start with `{`), honoring strings and escapes; `None` when the
/// object never closes (a torn record).
fn object_end(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    if bytes.first() != Some(&b'{') {
        return None;
    }
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
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
        let r = replay(&text);
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
        let r = replay(&text);
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
        let r = replay(&text);
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

    #[test]
    fn priority_survives_replay_and_defaults_for_old_records() {
        let spec = SweepSpec::named("smoke").unwrap();
        let text = format!(
            "{}\n{{\"op\": \"submit\", \"job\": 2, \"name\": \"hot\", \"priority\": 5, \"spec\": {}}}\n",
            submit_line(1),
            spec.to_json(),
        );
        let r = replay(&text);
        assert_eq!(r.pending.len(), 2);
        assert_eq!(r.pending[0].priority, 0, "pre-priority records default to the batch tier");
        assert_eq!(r.pending[1].priority, 5);
    }
}
