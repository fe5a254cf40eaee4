//! The window-checkpoint store: mid-point run state that survives a
//! `SIGKILL`.
//!
//! The job journal ([`crate::journal`]) makes *jobs* recoverable and the
//! result store makes *finished points* recoverable — but a killed server
//! still lost every window the in-flight point had executed. With
//! `--window-checkpoint N`, each job's sweep installs an
//! [`on_point`](temu_framework::Sweep::on_point) observer that appends
//! every N-th window boundary's serialized
//! [`EmulationState`](temu_framework::EmulationState) here, one JSON line
//! in the journal's sibling checkpoint file (`jobs.jsonl` →
//! `jobs.checkpoints.jsonl` — per journal, because fleet members sharing
//! one store directory run distinct journals with colliding job ids):
//!
//! ```text
//! {"temu_checkpoints": 1}
//! {"ck": "window", "job": 3, "key": "00c2a5…", "windows": 10, "state": "<hex>"}
//! ```
//!
//! On restart the server replays the file (last record per `(job, key)`
//! wins), seeds each recovered job's sweep via
//! [`resume_point`](temu_framework::Sweep::resume_point), and compacts
//! the file down to the records that still matter — checkpoints of jobs
//! that finished are dead weight and are dropped. The state bytes are the
//! framework's versioned, fail-closed stream: a record that no longer
//! decodes (or a torn tail) is skipped, and the point simply re-runs from
//! scratch — resume is an optimization, never a correctness dependency.
//!
//! Append discipline matches the journal: each record is one `write`
//! call, torn tails are resynced at the next `{"ck"` marker, and records
//! are flat JSON objects (the hex state string contains no braces), so a
//! record ends at its first `}`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use temu_framework::JsonValue;

/// The store format version written in the header line. A file with a
/// newer header replays as empty (fail-closed: its records are not ours
/// to interpret) and is rewritten at the next compaction.
pub const CHECKPOINTS_VERSION: u64 = 1;

const HEADER_PREFIX: &str = "{\"temu_checkpoints\"";
const RECORD_MARKER: &str = "{\"ck\"";

/// The append handle for a journal's window-checkpoint file.
pub struct CheckpointStore {
    file: Mutex<File>,
    path: PathBuf,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore").field("path", &self.path).finish()
    }
}

/// What replaying a checkpoint file recovered.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CheckpointReplay {
    /// Per job: the last recorded state bytes (and window count) of each
    /// in-flight point, keyed by the point's scenario content key.
    pub states: HashMap<u64, HashMap<u64, (u64, Vec<u8>)>>,
    /// Torn or undecodable byte runs skipped during replay.
    pub skipped: usize,
}

impl CheckpointReplay {
    /// Total checkpointed points across all jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.values().map(HashMap::len).sum()
    }

    /// Whether nothing was recovered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

impl CheckpointStore {
    /// Opens (creating if absent) the store at `path` and replays its
    /// records.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(CheckpointStore, CheckpointReplay)> {
        let path = path.as_ref().to_path_buf();
        let (replayed, fresh) = if path.exists() {
            (replay(&std::fs::read_to_string(&path)?), false)
        } else {
            (CheckpointReplay::default(), true)
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if fresh {
            let _ = file.write_all(format!("{{\"temu_checkpoints\": {CHECKPOINTS_VERSION}}}\n").as_bytes());
        }
        Ok((CheckpointStore { file: Mutex::new(file), path }, replayed))
    }

    /// The store file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one window checkpoint as a single `write` (plus fdatasync
    /// — this runs every N windows, not every window, so durability stays
    /// off the emulation's critical path). The state bytes are
    /// [`EmulationState::to_bytes`](temu_framework::EmulationState::to_bytes),
    /// hex-encoded to keep the record a flat single-line JSON object.
    ///
    /// Each phase (hex encode, `write`, fdatasync) is timed into the
    /// process-wide metrics registry — checkpoint durability is the one
    /// per-point fsync on the serving path, and the per-phase split is
    /// what tells a slow-checkpoint report apart (CPU-bound encode vs a
    /// slow disk).
    pub fn record(&self, job: u64, key: u64, windows: u64, state: &[u8]) {
        let obs = checkpoint_obs();
        obs.count.inc();
        if temu_obs::enabled() {
            obs.bytes.record(state.len() as u64);
        }
        let record = temu_obs::time!(
            "serve.checkpoint_hex_ns",
            format!(
                "{{\"ck\": \"window\", \"job\": {job}, \"key\": \"{key:016x}\", \"windows\": {windows}, \"state\": \"{}\"}}\n",
                hex_encode(state)
            )
        );
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        temu_obs::time!("serve.checkpoint_write_ns", {
            let _ = file.write_all(record.as_bytes());
        });
        temu_obs::time!("serve.checkpoint_fsync_ns", {
            let _ = file.sync_data();
        });
    }

    /// Rewrites the store (tmp + rename) keeping only `replayed` records
    /// of jobs for which `keep` returns true — called at startup with the
    /// recovered-pending set, so checkpoints of finished jobs never
    /// accumulate.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or renaming the replacement file.
    pub fn compact(
        &self,
        replayed: &CheckpointReplay,
        keep: impl Fn(u64) -> bool,
    ) -> std::io::Result<()> {
        let tmp = self.path.with_extension("jsonl.tmp");
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut out = File::create(&tmp)?;
            out.write_all(format!("{{\"temu_checkpoints\": {CHECKPOINTS_VERSION}}}\n").as_bytes())?;
            for (&job, points) in &replayed.states {
                if !keep(job) {
                    continue;
                }
                for (&key, (windows, state)) in points {
                    out.write_all(
                        format!(
                            "{{\"ck\": \"window\", \"job\": {job}, \"key\": \"{key:016x}\", \"windows\": {windows}, \"state\": \"{}\"}}\n",
                            hex_encode(state)
                        )
                        .as_bytes(),
                    )?;
                }
            }
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        *file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// The store's registry handles: a count of checkpoints recorded plus a
/// state-size histogram (the phase timers live in `record` via
/// [`temu_obs::time!`]). Interned once; all `CheckpointStore`s in the
/// process share them, which is what the shutdown overhead summary reads.
struct CheckpointObs {
    count: std::sync::Arc<temu_obs::Counter>,
    bytes: std::sync::Arc<temu_obs::Histogram>,
}

fn checkpoint_obs() -> &'static CheckpointObs {
    static OBS: std::sync::OnceLock<CheckpointObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let scope = temu_obs::global().scope("serve");
        CheckpointObs {
            count: scope.counter("checkpoints_recorded"),
            bytes: scope.histogram("checkpoint_bytes"),
        }
    })
}

/// Replays checkpoint-store text: last record per `(job, key)` wins,
/// undecodable runs are skipped and counted, and a newer-versioned header
/// empties the replay (fail-closed).
#[must_use]
pub fn replay(text: &str) -> CheckpointReplay {
    let mut out = CheckpointReplay::default();
    for line in text.lines() {
        let mut rest = line.trim_start();
        if rest.starts_with(HEADER_PREFIX) {
            let supported = JsonValue::parse(rest.split_inclusive('}').next().unwrap_or(rest))
                .ok()
                .and_then(|v| v.get("temu_checkpoints").and_then(JsonValue::as_u64))
                .is_some_and(|v| v <= CHECKPOINTS_VERSION);
            if supported {
                continue;
            }
            return CheckpointReplay { skipped: 1, ..CheckpointReplay::default() };
        }
        while !rest.is_empty() {
            match decode_prefix(rest) {
                Some((job, key, windows, state, consumed)) => {
                    out.states.entry(job).or_default().insert(key, (windows, state));
                    rest = rest[consumed..].trim_start();
                }
                None => {
                    out.skipped += 1;
                    let skip = rest.chars().next().map_or(1, char::len_utf8);
                    match rest[skip..].find(RECORD_MARKER) {
                        Some(off) => rest = &rest[skip + off..],
                        None => break,
                    }
                }
            }
        }
    }
    out
}

/// Decodes one record at the head of `rest`. Records are flat objects
/// whose only string values are hex/identifier-safe, so the record ends
/// at the first `}`.
fn decode_prefix(rest: &str) -> Option<(u64, u64, u64, Vec<u8>, usize)> {
    let end = rest.find('}')? + 1;
    let v = JsonValue::parse(&rest[..end]).ok()?;
    if v.get("ck")?.as_str()? != "window" {
        return None;
    }
    let job = v.get("job")?.as_u64()?;
    let key = u64::from_str_radix(v.get("key")?.as_str()?, 16).ok()?;
    let windows = v.get("windows")?.as_u64()?;
    let state = hex_decode(v.get("state")?.as_str()?)?;
    Some((job, key, windows, state, end))
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return None;
    }
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("temu-ckpt-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("checkpoints.jsonl")
    }

    #[test]
    fn record_replay_round_trips_and_last_record_wins() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (store, replayed) = CheckpointStore::open(&path).unwrap();
            assert!(replayed.is_empty());
            store.record(1, 0xabc, 5, &[1, 2, 3]);
            store.record(1, 0xabc, 10, &[4, 5]);
            store.record(1, 0xdef, 2, &[9]);
            store.record(2, 0xabc, 7, &[7, 7]);
        }
        let (_store, r) = CheckpointStore::open(&path).unwrap();
        assert_eq!(r.skipped, 0);
        assert_eq!(r.len(), 3, "one live record per (job, key)");
        assert_eq!(r.states[&1][&0xabc], (10, vec![4, 5]), "the later checkpoint wins");
        assert_eq!(r.states[&1][&0xdef], (2, vec![9]));
        assert_eq!(r.states[&2][&0xabc], (7, vec![7, 7]));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_and_glued_records_are_recovered() {
        // A writer died mid-append; O_APPEND glued the next complete
        // record onto the same physical line.
        let whole = "{\"ck\": \"window\", \"job\": 2, \"key\": \"000000000000000a\", \"windows\": 3, \"state\": \"ff\"}";
        let text = format!("{{\"temu_checkpoints\": 1}}\n{}{whole}\n", &whole[..30]);
        let r = replay(&text);
        assert!(r.skipped > 0);
        assert_eq!(r.states[&2][&0xa], (3, vec![0xff]));
    }

    #[test]
    fn newer_header_version_replays_as_empty() {
        let text = "{\"temu_checkpoints\": 99}\n{\"ck\": \"window\", \"job\": 1, \"key\": \"01\", \"windows\": 1, \"state\": \"00\"}\n";
        let r = replay(text);
        assert!(r.is_empty(), "a newer format's records are not ours to interpret");
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn compact_drops_finished_jobs_and_keeps_the_file_appendable() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let (store, _r) = CheckpointStore::open(&path).unwrap();
        store.record(1, 0x1, 5, &[1]);
        store.record(2, 0x2, 6, &[2]);
        let replayed = replay(&std::fs::read_to_string(&path).unwrap());
        store.compact(&replayed, |job| job == 2).unwrap();
        store.record(3, 0x3, 7, &[3]);
        let r = replay(&std::fs::read_to_string(&path).unwrap());
        assert!(!r.states.contains_key(&1), "finished job 1's checkpoint was dropped");
        assert_eq!(r.states[&2][&0x2], (6, vec![2]));
        assert_eq!(r.states[&3][&0x3], (7, vec![3]), "post-compaction appends land in the file");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
