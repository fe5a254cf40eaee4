//! The window-checkpoint store: mid-point run state that survives a
//! `SIGKILL`.
//!
//! The job journal ([`crate::journal`]) makes *jobs* recoverable and the
//! result store makes *finished points* recoverable — but a killed server
//! still lost every window the in-flight point had executed. With
//! `--window-checkpoint N`, each job's sweep installs an
//! [`on_point`](temu_framework::Sweep::on_point) observer that appends
//! every N-th window boundary's serialized
//! [`EmulationState`](temu_framework::EmulationState) here, one record in
//! the journal's sibling checkpoint file (`jobs.jsonl` →
//! `jobs.checkpoints.jsonl` — per journal, because fleet members sharing
//! one store directory run distinct journals with colliding job ids).
//!
//! The file is a binary [`AppendLog`] (magic `temuCKP2`). A record's
//! payload is the job id, the point's scenario content key and the window
//! count (three `u64` LE), then the raw state bytes.
//!
//! Opening the store replays the file (last record per `(job, key)`
//! wins) and compacts it to the jobs the caller still needs; the server
//! then seeds each recovered job's sweep via
//! [`resume_point`](temu_framework::Sweep::resume_point). A damaged
//! record, a state that no longer decodes, or a file in an older format
//! just means the point re-runs from scratch: resume is an optimization,
//! never a correctness dependency.

use std::collections::HashMap;
use std::path::Path;
use temu_state::AppendLog;

/// The checkpoint file's magic: format 2, the checksummed append log.
const CHECKPOINTS_MAGIC: [u8; 8] = *b"temuCKP2";

/// Job id, content key and window count ahead of the state bytes.
const PAYLOAD_HEADER: usize = 24;

/// The append handle for a journal's window-checkpoint file.
#[derive(Debug)]
pub struct CheckpointStore {
    log: AppendLog,
}

/// What replaying a checkpoint file recovered.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CheckpointReplay {
    /// Per job: the last recorded state bytes (and window count) of each
    /// in-flight point, keyed by the point's scenario content key.
    pub states: HashMap<u64, HashMap<u64, (u64, Vec<u8>)>>,
    /// Damaged or undecodable records skipped during replay (1 for a file
    /// in an older format).
    pub skipped: usize,
}

impl CheckpointStore {
    /// Opens (creating if absent) the store at `path`, replays it, and
    /// compacts it to the records of jobs for which `keep` returns true —
    /// the server passes its recovered-pending set, so checkpoints of
    /// finished jobs never accumulate. The replay holds the kept records.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, reading or rewriting the file.
    pub fn open(
        path: impl AsRef<Path>,
        keep: impl Fn(u64) -> bool,
    ) -> std::io::Result<(CheckpointStore, CheckpointReplay)> {
        let path = path.as_ref();
        let (mut log, mut replayed) = match AppendLog::open(path, CHECKPOINTS_MAGIC) {
            Ok((log, replay)) => {
                let mut out = CheckpointReplay { skipped: replay.skipped, ..CheckpointReplay::default() };
                for payload in &replay.records {
                    let Some((job, key, windows, state)) = decode(payload) else {
                        out.skipped += 1;
                        continue;
                    };
                    out.states.entry(job).or_default().insert(key, (windows, state.to_vec()));
                }
                (log, out)
            }
            // An older format's records are not ours to interpret.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => (
                AppendLog::replace(path, CHECKPOINTS_MAGIC, &[] as &[&[u8]])?,
                CheckpointReplay { skipped: 1, ..CheckpointReplay::default() },
            ),
            Err(e) => return Err(e),
        };
        replayed.states.retain(|&job, _| keep(job));
        let kept: Vec<Vec<u8>> = replayed
            .states
            .iter()
            .flat_map(|(&job, points)| {
                points.iter().map(move |(&key, (windows, state))| encode(job, key, *windows, state))
            })
            .collect();
        log.rewrite(&kept)?;
        Ok((CheckpointStore { log }, replayed))
    }

    /// The store file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Appends one window checkpoint as a single `write`, plus fdatasync
    /// — this runs every N windows, not every window, so durability stays
    /// off the emulation's critical path. The state bytes are
    /// [`EmulationState::to_bytes`](temu_framework::EmulationState::to_bytes).
    ///
    /// The write and the fdatasync are timed into the process-wide
    /// metrics registry — checkpoint durability is the one per-point
    /// fsync on the serving path, and the split is what tells a
    /// slow-checkpoint report apart (a large state vs a slow disk).
    pub fn record(&self, job: u64, key: u64, windows: u64, state: &[u8]) {
        let obs = checkpoint_obs();
        obs.count.inc();
        if temu_obs::enabled() {
            obs.bytes.record(state.len() as u64);
        }
        temu_obs::time!("serve.checkpoint_write_ns", {
            let _ = self.log.append(&encode(job, key, windows, state));
        });
        temu_obs::time!("serve.checkpoint_fsync_ns", {
            let _ = self.log.sync();
        });
    }
}

fn encode(job: u64, key: u64, windows: u64, state: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_HEADER + state.len());
    for v in [job, key, windows] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(state);
    payload
}

fn decode(payload: &[u8]) -> Option<(u64, u64, u64, &[u8])> {
    let word = |i: usize| Some(u64::from_le_bytes(payload.get(i * 8..i * 8 + 8)?.try_into().ok()?));
    Some((word(0)?, word(1)?, word(2)?, &payload[PAYLOAD_HEADER..]))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("temu-ckpt-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoints.jsonl");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn record_replay_round_trips_and_last_record_wins() {
        let path = temp_path("roundtrip");
        {
            let (store, replayed) = CheckpointStore::open(&path, |_| true).unwrap();
            assert!(replayed.states.is_empty());
            store.record(1, 0xabc, 5, &[1, 2, 3]);
            store.record(1, 0xabc, 10, &[4, 5]);
            store.record(1, 0xdef, 2, &[9]);
            store.record(2, 0xabc, 7, &[7, 7]);
        }
        let bytes = std::fs::metadata(&path).unwrap().len();
        assert_eq!(bytes, 8 + 4 * 40 + 3 + 2 + 1 + 2, "a record costs its state plus 40 bytes");
        let (_store, r) = CheckpointStore::open(&path, |_| true).unwrap();
        assert_eq!(r.skipped, 0);
        assert_eq!(r.states.values().map(HashMap::len).sum::<usize>(), 3, "one record per (job, key)");
        assert_eq!(r.states[&1][&0xabc], (10, vec![4, 5]), "the later checkpoint wins");
        assert_eq!(r.states[&1][&0xdef], (2, vec![9]));
        assert_eq!(r.states[&2][&0xabc], (7, vec![7, 7]));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_and_glued_records_are_recovered() {
        // A writer died mid-append; O_APPEND glued the next complete
        // record onto the torn one.
        let path = temp_path("torn");
        {
            let (store, _) = CheckpointStore::open(&path, |_| true).unwrap();
            store.record(1, 0x1, 3, &[0xee; 64]);
            store.record(2, 0xa, 3, &[0xff]);
        }
        let bytes = std::fs::read(&path).unwrap();
        let first_end = 8 + 40 + 64;
        let torn = [&bytes[..first_end - 20], &bytes[first_end..], &bytes[8..30]].concat();
        std::fs::write(&path, torn).unwrap();
        let (_store, r) = CheckpointStore::open(&path, |_| true).unwrap();
        assert_eq!(r.skipped, 2, "the torn record and the torn tail");
        assert!(!r.states.contains_key(&1));
        assert_eq!(r.states[&2][&0xa], (3, vec![0xff]));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn newer_header_version_replays_as_empty() {
        // Format 1 (JSON lines) and any future format alike: not ours to
        // interpret, so the store opens empty and starts a format-2 file.
        for old in [
            "{\"temu_checkpoints\": 1}\n{\"ck\": \"window\", \"job\": 1, \"key\": \"01\", \"windows\": 1, \"state\": \"00\"}\n",
            "temuCKP9 records from a newer build",
        ] {
            let path = temp_path("old");
            std::fs::write(&path, old).unwrap();
            let (store, r) = CheckpointStore::open(&path, |_| true).unwrap();
            assert!(r.states.is_empty(), "another format's records are not ours to interpret");
            assert_eq!(r.skipped, 1);
            store.record(3, 0x3, 7, &[3]);
            let (_store, r) = CheckpointStore::open(&path, |_| true).unwrap();
            assert_eq!((r.states.len(), r.skipped), (1, 0), "the file is format 2 now");
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn compact_drops_finished_jobs_and_keeps_the_file_appendable() {
        let path = temp_path("compact");
        {
            let (store, _r) = CheckpointStore::open(&path, |_| true).unwrap();
            store.record(1, 0x1, 5, &[1]);
            store.record(2, 0x2, 6, &[2]);
        }
        let (store, replayed) = CheckpointStore::open(&path, |job| job == 2).unwrap();
        assert!(!replayed.states.contains_key(&1), "finished job 1 is not replayed");
        store.record(3, 0x3, 7, &[3]);
        let (_store, r) = CheckpointStore::open(&path, |_| true).unwrap();
        assert!(!r.states.contains_key(&1), "finished job 1's checkpoint was dropped");
        assert_eq!(r.states[&2][&0x2], (6, vec![2]));
        assert_eq!(r.states[&3][&0x3], (7, vec![3]), "post-compaction appends land in the file");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
