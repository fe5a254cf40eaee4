//! Property tests for journal replay: ops (job transitions and window
//! records) are written through [`Journal`] into a temp file and replayed
//! by [`Journal::open`]. Whatever a crash (or the `torn_write` fault) or
//! bit rot leaves in the file — torn records with later records appended
//! after them, duplicates, flipped bytes — replay must stay total and
//! truthful about which jobs are pending and what states they resume
//! from, and the compaction that opening does must replay the same way
//! again; an intact journal replays exactly.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use temu_framework::SweepSpec;
use temu_serve::journal::{Journal, JournalReplay};

#[derive(Clone, Copy, Debug)]
struct Op {
    /// 0 = submit, 1 = start, 2..=4 = terminal (done/failed/cancelled),
    /// 5 = a window record for point `id % 2` whose state is `state(at)`,
    /// `at` being the op's index.
    kind: u8,
    id: u64,
    /// Keep the first `trunc`% of the record's bytes (100 = intact); the
    /// next record is appended right after the tear.
    trunc: u64,
    /// Write the record twice (a replayed/duplicated record).
    dup: bool,
}

/// A journal file in a directory of its own, removed on drop.
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> TempJournal {
        let dir = std::env::temp_dir().join(format!("temu-journal-prop-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempJournal(dir.join("jobs.jsonl"))
    }

    /// Writes `ops` through a fresh journal at this path, tearing each
    /// record as its op says, then flips the sampled bytes.
    fn write(&self, ops: &[Op], flips: &[(u16, u8)], spec: &SweepSpec) {
        let _ = std::fs::remove_file(&self.0);
        let (journal, _) = Journal::open(&self.0).unwrap();
        for (at, op) in ops.iter().enumerate() {
            for _ in 0..1 + usize::from(op.dup) {
                let before = file_len(&self.0);
                match op.kind {
                    0 => journal.record_submit(op.id, &format!("p{}", op.id), priority(op.id), spec),
                    1 => journal.record_start(op.id),
                    5 => journal.record_window(op.id, op.id % 2, at as u64, &state(at)),
                    k => journal.record_terminal(op.id, ["done", "failed", "cancelled"][usize::from(k - 2)]),
                }
                if op.trunc < 100 {
                    let torn = before + ((file_len(&self.0) - before) * op.trunc / 100).max(1);
                    std::fs::OpenOptions::new().write(true).open(&self.0).unwrap().set_len(torn).unwrap();
                }
            }
        }
        drop(journal);
        let mut bytes = std::fs::read(&self.0).unwrap();
        // Past the 8-byte magic: a damaged magic is an older format,
        // which fails closed (see the unit tests).
        let body = bytes.len() - 8;
        for &(at, mask) in flips.iter().filter(|_| body > 0) {
            bytes[8 + usize::from(at) % body] ^= mask;
        }
        std::fs::write(&self.0, &bytes).unwrap();
    }

    fn replay(&self) -> JournalReplay {
        Journal::open(&self.0).expect("a journal with damaged records still opens").1
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0.parent().unwrap());
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// Each job's priority, so replay can be checked to preserve it.
fn priority(id: u64) -> i64 {
    i64::try_from(id % 3).unwrap() - 1
}

/// The state bytes of the window record written by the op at `at`.
fn state(at: usize) -> Vec<u8> {
    vec![at as u8; 1 + at % 4]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..6, 1u64..6, prop::sample::select(&[7u64, 30, 60, 90, 100, 100, 100]), prop::bool::ANY)
        .prop_map(|(kind, id, trunc, dup)| Op { kind, id, trunc, dup })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_is_total_and_truthful_over_corrupted_journals(
        ops in prop::collection::vec(op_strategy(), 0..12),
        flips in prop::collection::vec((any::<u16>(), 1u8..=255), 0..3),
    ) {
        let spec = SweepSpec::named("smoke").unwrap();
        let journal = TempJournal::new("corrupt");
        journal.write(&ops, &flips, &spec);

        // Total: the damaged file still opens. Opening compacts it, and
        // the compacted file replays the same jobs, states and id horizon,
        // with no damage left.
        let replayed = journal.replay();
        prop_assert_eq!(&journal.replay(), &JournalReplay { skipped: 0, ..replayed.clone() });

        // Pending ids are unique and only ever ids that some submit op
        // could have written.
        let submitted: HashSet<u64> =
            ops.iter().filter(|op| op.kind == 0).map(|op| op.id).collect();
        let mut seen = HashSet::new();
        for job in &replayed.pending {
            prop_assert!(seen.insert(job.id), "duplicate pending id {}", job.id);
            prop_assert!(submitted.contains(&job.id), "pending id {} never submitted", job.id);
            // The recovered spec survived the corruption intact.
            prop_assert_eq!(job.spec.to_json(), spec.to_json());
            prop_assert_eq!(job.priority, priority(job.id));
            // Every state is one that a window record of this job's point
            // carried.
            for (&key, bytes) in &job.states {
                let written = ops
                    .iter()
                    .enumerate()
                    .any(|(at, op)| op.kind == 5 && op.id == job.id && op.id % 2 == key && state(at) == *bytes);
                prop_assert!(written, "job {} point {} resumes from a state never written", job.id, key);
            }
        }

        // The fresh-id horizon clears every recovered id.
        for job in &replayed.pending {
            prop_assert!(replayed.next_id > job.id);
        }
    }

    #[test]
    fn replay_of_an_intact_journal_is_exact(
        ops in prop::collection::vec(
            (0u8..6, 1u64..6).prop_map(|(kind, id)| Op { kind, id, trunc: 100, dup: false }),
            0..14,
        ),
    ) {
        let spec = SweepSpec::named("smoke").unwrap();
        let journal = TempJournal::new("intact");
        journal.write(&ops, &[], &spec);
        let replayed = journal.replay();
        prop_assert_eq!(&journal.replay(), &replayed, "the compacted journal replays the same");
        prop_assert_eq!(replayed.skipped, 0);
        prop_assert_eq!(replayed.next_id, ops.iter().map(|op| op.id + 1).max().unwrap_or(1));

        // Exactly the submitted-but-never-terminal ids, in first-submit
        // order; started-ness reflects any start record.
        let terminal: HashSet<u64> =
            ops.iter().filter(|op| (2..=4).contains(&op.kind)).map(|op| op.id).collect();
        let started: HashSet<u64> =
            ops.iter().filter(|op| op.kind == 1).map(|op| op.id).collect();
        let mut expected: Vec<u64> = Vec::new();
        for op in &ops {
            if op.kind == 0 && !terminal.contains(&op.id) && !expected.contains(&op.id) {
                expected.push(op.id);
            }
        }
        let got: Vec<u64> = replayed.pending.iter().map(|j| j.id).collect();
        prop_assert_eq!(got, expected);
        for job in &replayed.pending {
            prop_assert_eq!(job.was_running, started.contains(&job.id));
            prop_assert_eq!(job.priority, priority(job.id));
            // The last window record per point wins.
            let mut states = BTreeMap::new();
            for (at, op) in ops.iter().enumerate() {
                if op.kind == 5 && op.id == job.id {
                    states.insert(op.id % 2, state(at));
                }
            }
            prop_assert_eq!(&job.states, &states);
        }
    }
}
