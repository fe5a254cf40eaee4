//! Property tests for the format-1 (JSON-lines) journal reader, which
//! converts an old `jobs.jsonl` on open: whatever bytes a crash (or the
//! `torn_write` fault) left in it, replay must stay total, deterministic,
//! and truthful about which jobs are pending.

use proptest::prelude::*;
use std::collections::HashSet;
use temu_framework::SweepSpec;
use temu_serve::journal::replay_v1;

#[derive(Clone, Copy, Debug)]
struct Op {
    /// 0 = submit, 1 = start, 2+ = terminal (done/failed/cancelled).
    kind: u8,
    id: u64,
    /// Keep the first `trunc`% of the line's bytes (100 = intact).
    trunc: usize,
    /// Write the line twice (a replayed/duplicated record).
    dup: bool,
    /// Drop the trailing newline, gluing the next record onto this line
    /// (what `O_APPEND` does after a torn write).
    glue: bool,
}

fn render(op: &Op, spec_json: &str) -> String {
    match op.kind {
        0 => format!(
            "{{\"op\": \"submit\", \"job\": {}, \"name\": \"p{}\", \"spec\": {spec_json}}}",
            op.id, op.id
        ),
        1 => format!("{{\"op\": \"start\", \"job\": {}}}", op.id),
        2 => format!("{{\"op\": \"done\", \"job\": {}}}", op.id),
        3 => format!("{{\"op\": \"failed\", \"job\": {}}}", op.id),
        _ => format!("{{\"op\": \"cancelled\", \"job\": {}}}", op.id),
    }
}

/// Renders the op list into journal bytes with the sampled corruption.
fn corrupt_text(ops: &[Op], spec_json: &str) -> String {
    let mut text = String::new();
    for op in ops {
        let line = render(op, spec_json);
        let mut repeats = 1 + usize::from(op.dup);
        while repeats > 0 {
            repeats -= 1;
            if op.trunc >= 100 {
                text.push_str(&line);
            } else {
                // Truncate on a char boundary at roughly trunc% of the line.
                let cut = (line.len() * op.trunc / 100).max(1);
                let cut = (1..=cut).rev().find(|&i| line.is_char_boundary(i)).unwrap_or(1);
                text.push_str(&line[..cut]);
            }
            if !op.glue {
                text.push('\n');
            }
        }
    }
    text
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 1u64..6, prop::sample::select(&[7usize, 30, 60, 90, 100, 100, 100]), prop::bool::ANY, prop::bool::ANY)
        .prop_map(|(kind, id, trunc, dup, glue)| Op { kind, id, trunc, dup, glue })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_is_total_and_truthful_over_corrupted_journals(
        ops in prop::collection::vec(op_strategy(), 0..12),
    ) {
        let spec_json = SweepSpec::named("smoke").unwrap().to_json();
        let text = corrupt_text(&ops, &spec_json);

        // Total: no panic on arbitrary tears/duplicates/interleavings,
        // and deterministic.
        let replayed = replay_v1(&text);
        prop_assert_eq!(&replayed, &replay_v1(&text));

        // Pending ids are unique and only ever ids that some submit op
        // could have written.
        let submitted: HashSet<u64> =
            ops.iter().filter(|op| op.kind == 0).map(|op| op.id).collect();
        let mut seen = HashSet::new();
        for job in &replayed.pending {
            prop_assert!(seen.insert(job.id), "duplicate pending id {}", job.id);
            prop_assert!(submitted.contains(&job.id), "pending id {} never submitted", job.id);
            // The recovered spec survived the corruption intact.
            prop_assert_eq!(&job.spec.to_json(), &spec_json);
        }

        // The fresh-id horizon clears every recovered id.
        for job in &replayed.pending {
            prop_assert!(replayed.next_id > job.id);
        }
    }

    #[test]
    fn replay_of_an_intact_journal_is_exact(
        ops in prop::collection::vec(
            (0u8..5, 1u64..6).prop_map(|(kind, id)| Op { kind, id, trunc: 100, dup: false, glue: false }),
            0..14,
        ),
    ) {
        let spec_json = SweepSpec::named("smoke").unwrap().to_json();
        let text = corrupt_text(&ops, &spec_json);
        let replayed = replay_v1(&text);
        prop_assert_eq!(replayed.skipped, 0);

        // Exactly the submitted-but-never-terminal ids, in first-submit
        // order; started-ness reflects any start record.
        let terminal: HashSet<u64> =
            ops.iter().filter(|op| op.kind >= 2).map(|op| op.id).collect();
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
        }
    }
}
