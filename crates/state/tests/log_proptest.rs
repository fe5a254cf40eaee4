//! Property tests for the append log: whatever a crash, a torn write or
//! bit rot leaves in the file, replay returns exactly the intact records,
//! counts each damaged run once, and never panics.

use proptest::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;
use temu_state::{fnv1a64, AppendLog};

const MAGIC: [u8; 8] = *b"temuTST1";

/// One append, and what happened to its bytes on disk.
#[derive(Clone, Debug)]
struct Segment {
    payload: Vec<u8>,
    damage: Damage,
}

#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Written whole.
    None,
    /// Written whole, twice (a replayed append).
    Duplicated,
    /// Only a strict prefix reached the file; what follows is glued on.
    Truncated(u16),
    /// One byte of the record XORed with a non-zero mask.
    Flipped(u16, u8),
}

fn segment() -> impl Strategy<Value = Segment> {
    (prop::collection::vec(any::<u8>(), 0..48), 0u8..8, any::<u16>(), 1u8..=255).prop_map(
        |(payload, kind, at, mask)| {
            let damage = match kind {
                0..=3 => Damage::None,
                4 => Damage::Duplicated,
                5 | 6 => Damage::Truncated(at),
                _ => Damage::Flipped(at, mask),
            };
            Segment { payload, damage }
        },
    )
}

/// The bytes one well-formed append of `payload` writes.
fn record_bytes(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).unwrap();
    [b"TREC", &len.to_le_bytes()[..], &fnv1a64(payload).to_le_bytes()[..], payload].concat()
}

/// Renders the segments into the bytes after the magic, and returns them
/// with the payloads that must survive and the number of damaged runs.
fn render(segments: &[Segment]) -> (Vec<u8>, Vec<Vec<u8>>, usize) {
    let (mut bytes, mut intact, mut runs) = (Vec::new(), Vec::new(), 0);
    let mut in_damage = false;
    for s in segments {
        let mut record = record_bytes(&s.payload);
        let damaged = match s.damage {
            Damage::None | Damage::Duplicated => {
                let copies = if matches!(s.damage, Damage::Duplicated) { 2 } else { 1 };
                for _ in 0..copies {
                    bytes.extend_from_slice(&record);
                    intact.push(s.payload.clone());
                }
                false
            }
            Damage::Truncated(at) => {
                let cut = 1 + usize::from(at) % (record.len() - 1);
                bytes.extend_from_slice(&record[..cut]);
                true
            }
            Damage::Flipped(at, mask) => {
                let at = usize::from(at) % record.len();
                record[at] ^= mask;
                bytes.extend_from_slice(&record);
                true
            }
        };
        runs += usize::from(damaged && !in_damage);
        in_damage = damaged;
    }
    (bytes, intact, runs)
}

/// A log path in a scratch directory of its own (the tests run in
/// parallel), removed with the directory when dropped.
struct TempLog {
    dir: PathBuf,
    path: PathBuf,
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn temp_log(tag: &str) -> TempLog {
    let dir = std::env::temp_dir().join(format!("temu-log-prop-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.log"));
    TempLog { dir, path }
}

fn write_log(path: &PathBuf, body: &[u8]) {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(body);
    std::fs::write(path, bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_returns_exactly_the_intact_records(segments in prop::collection::vec(segment(), 0..12)) {
        let (body, intact, runs) = render(&segments);
        let tmp = temp_log("replay");
        let path = &tmp.path;
        write_log(path, &body);
        let (_, replay) = AppendLog::open(path, MAGIC).unwrap();
        prop_assert_eq!(&replay.records, &intact);
        prop_assert_eq!(replay.skipped, runs);
    }

    #[test]
    fn read_new_yields_each_record_once_as_the_tail_grows(
        segments in prop::collection::vec(segment(), 0..10),
        chunks in prop::collection::vec(1usize..40, 1..64),
    ) {
        let (body, intact, _) = render(&segments);
        let tmp = temp_log("grow");
        let path = &tmp.path;
        write_log(path, &[]);
        let (mut reader, _) = AppendLog::open(path, MAGIC).unwrap();
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        let (mut seen, mut at) = (Vec::new(), 0);
        for chunk in chunks.iter().cycle() {
            let end = (at + chunk).min(body.len());
            file.write_all(&body[at..end]).unwrap();
            at = end;
            seen.extend(reader.read_new().unwrap());
            if at == body.len() {
                break;
            }
        }
        prop_assert_eq!(&seen, &intact);
    }

    #[test]
    fn a_record_appended_after_arbitrary_junk_is_recovered(
        junk in prop::collection::vec(prop::sample::select(&[0u8, 1, 7, 0xff, b'T', b'R', b'E', b'C']), 0..96),
        payload in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let tmp = temp_log("junk");
        let path = &tmp.path;
        write_log(path, &junk);
        let (log, first) = AppendLog::open(path, MAGIC).unwrap();
        prop_assert!(first.skipped <= 1, "junk with no intact record is one damaged run");
        log.append(&payload).unwrap();
        let (_, replay) = AppendLog::open(path, MAGIC).unwrap();
        prop_assert_eq!(replay.records.last(), Some(&payload));
    }
}
