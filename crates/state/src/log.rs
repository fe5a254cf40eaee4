//! The checksummed append log behind every durable file: the result
//! store and the job journal.
//!
//! A log opens with its owner's 8-byte magic, which names the format and
//! its version (`temuSTO2`, `temuJRN2`). Records follow, each
//! written in one `write` to an `O_APPEND` handle, so concurrent writers
//! never interleave them:
//!
//! ```text
//! "TREC" | payload length (u32 LE) | FNV-1a 64 of the payload (u64 LE) | payload
//! ```
//!
//! Replay keeps a record only when its checksum matches. Anything else (a
//! torn tail, a record glued after a tear, flipped bytes) is skipped up to
//! the next intact record and counted once per damaged run. Damage at the
//! very end stays unsettled: it may be a record whose writer is still
//! writing, so [`AppendLog::read_new`] looks at it again. Owners keep only
//! their payload and their policy.

use crate::fnv1a64;
use std::ffi::OsString;
use std::fs::{File, Metadata, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

const MARKER: &[u8; 4] = b"TREC";
/// Marker, payload length and payload checksum.
const HEADER_LEN: usize = 16;
const MAGIC_LEN: u64 = 8;

/// What [`AppendLog::open`] found in the file.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LogReplay {
    /// The payloads of the intact records, in file order.
    pub records: Vec<Vec<u8>>,
    /// Damaged byte runs skipped, a torn tail included.
    pub skipped: usize,
}

/// An open log: one read + `O_APPEND` handle on the file.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
    magic: [u8; 8],
    /// End of the bytes already replayed, where [`AppendLog::read_new`]
    /// resumes.
    settled: u64,
}

impl AppendLog {
    /// Opens the log at `path`, creating it when absent or empty, and
    /// replays its records.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the file when it holds
    /// anything but a `magic` log (an older format, say); any I/O error.
    pub fn open(path: impl AsRef<Path>, magic: [u8; 8]) -> io::Result<(AppendLog, LogReplay)> {
        let path = path.as_ref().to_path_buf();
        let mut file = open_append(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            file.write_all(&magic)?;
            bytes.extend_from_slice(&magic);
        }
        if !bytes.starts_with(&magic) {
            let magic = String::from_utf8_lossy(&magic);
            let msg = format!("{}: not a {magic} log (an older format?)", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let mut log = AppendLog { file, path, magic, settled: MAGIC_LEN };
        let (records, skipped) = log.settle(&bytes[MAGIC_LEN as usize..]);
        Ok((log, LogReplay { records, skipped }))
    }

    /// Atomically replaces whatever is at `path` with a log holding
    /// exactly `records`, and opens it.
    fn replace(
        path: impl AsRef<Path>,
        magic: [u8; 8],
        records: &[impl AsRef<[u8]>],
    ) -> io::Result<AppendLog> {
        let path = path.as_ref().to_path_buf();
        let settled = write_replacement(&path, &magic, records)?;
        Ok(AppendLog { file: open_append(&path)?, path, magic, settled })
    }

    /// The log file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Any I/O error, or a payload of 4 GiB or more.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        self.append_with(payload, |_| None)
    }

    /// Appends one record, but writes only its first `cut` bytes when
    /// `tear(record_len)` returns `Some(cut)`: the torn write of a dying
    /// writer, for fault injection.
    ///
    /// # Errors
    ///
    /// Any I/O error, or a payload of 4 GiB or more.
    pub fn append_with(
        &self,
        payload: &[u8],
        tear: impl FnOnce(usize) -> Option<usize>,
    ) -> io::Result<()> {
        let mut record = Vec::with_capacity(HEADER_LEN + payload.len());
        push_record(&mut record, payload)?;
        let cut = tear(record.len()).map_or(record.len(), |cut| cut.min(record.len()));
        (&self.file).write_all(&record[..cut])
    }

    /// Flushes appended records to stable storage (`fdatasync`).
    ///
    /// # Errors
    ///
    /// The sync's I/O error.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// The intact records appended since the last replay, by any writer
    /// sharing the file; a record still being written is returned by a
    /// later call, once complete. When a sibling handle's
    /// [`AppendLog::rewrite`] has renamed a new file over the path, this
    /// handle reopens it by path (so its appends reach the file the others
    /// read) and replays it from the first record.
    ///
    /// # Errors
    ///
    /// Any I/O error reopening, seeking or reading.
    pub fn read_new(&mut self) -> io::Result<Vec<Vec<u8>>> {
        if self.replaced() {
            (self.file, self.settled) = (open_append(&self.path)?, MAGIC_LEN);
        }
        let mut bytes = Vec::new();
        self.file.seek(SeekFrom::Start(self.settled))?;
        self.file.read_to_end(&mut bytes)?;
        Ok(self.settle(&bytes).0)
    }

    /// Compacts the log to exactly `records` through one fixed temp name
    /// per log, the one compaction routine. The handle is reopened by path
    /// even when the rename fails: a sibling process compacting the same
    /// file may have renamed its copy of the records into place through
    /// the shared temp name, unlinking the inode this handle held. After a
    /// failure [`AppendLog::read_new`] starts over from the first record.
    ///
    /// # Errors
    ///
    /// Any I/O error writing, renaming or reopening.
    pub fn rewrite(&mut self, records: &[impl AsRef<[u8]>]) -> io::Result<()> {
        match AppendLog::replace(&self.path, self.magic, records) {
            Ok(log) => *self = log,
            Err(e) => {
                (self.file, self.settled) = (open_append(&self.path)?, MAGIC_LEN);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Whether the file at the path is no longer the one this handle holds.
    fn replaced(&self) -> bool {
        match (std::fs::metadata(&self.path), self.file.metadata()) {
            (Ok(at_path), Ok(held)) => !same_file(&at_path, &held),
            _ => false,
        }
    }

    /// Replays `bytes` (the file from `settled` on) into its intact
    /// payloads and damaged-run count, and settles past all but trailing
    /// damage.
    fn settle(&mut self, bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
        let (mut records, mut skipped, mut pos) = (Vec::new(), 0, 0);
        while pos < bytes.len() {
            if let Some(payload) = intact_record(bytes, pos) {
                pos = payload.end;
                records.push(bytes[payload].to_vec());
                continue;
            }
            skipped += 1;
            match (pos + 1..bytes.len()).find(|&at| intact_record(bytes, at).is_some()) {
                Some(next) => pos = next,
                None => break,
            }
        }
        self.settled += pos as u64;
        (records, skipped)
    }
}

/// The payload range of the intact record starting at `at`, if one does.
fn intact_record(bytes: &[u8], at: usize) -> Option<Range<usize>> {
    let header = bytes.get(at..at + HEADER_LEN)?;
    if header[..4] != MARKER[..] {
        return None;
    }
    let len = u32::from_le_bytes(header[4..8].try_into().ok()?) as usize;
    let payload = at + HEADER_LEN..(at + HEADER_LEN).checked_add(len)?;
    let sum = u64::from_le_bytes(header[8..].try_into().ok()?);
    (fnv1a64(bytes.get(payload.clone())?) == sum).then_some(payload)
}

fn push_record(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "log record of 4 GiB or more"))?;
    out.extend_from_slice(MARKER);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

#[cfg(unix)]
fn same_file(a: &Metadata, b: &Metadata) -> bool {
    use std::os::unix::fs::MetadataExt as _;
    (a.dev(), a.ino()) == (b.dev(), b.ino())
}

#[cfg(not(unix))]
fn same_file(_: &Metadata, _: &Metadata) -> bool {
    true
}

fn open_append(path: &Path) -> io::Result<File> {
    OpenOptions::new().read(true).append(true).create(true).open(path)
}

/// Writes `magic` and `records` to `<path>.tmp`, syncs it and renames it
/// over `path`, then syncs the directory so the rename survives a power
/// loss; returns the new length.
fn write_replacement(path: &Path, magic: &[u8; 8], records: &[impl AsRef<[u8]>]) -> io::Result<u64> {
    let mut bytes = magic.to_vec();
    for record in records {
        push_record(&mut bytes, record.as_ref())?;
    }
    let mut tmp = OsString::from(path);
    tmp.push(".tmp");
    {
        let mut out = File::create(&tmp)?;
        out.write_all(&bytes)?;
        out.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"temuTST1";

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("temu-log-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.log");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn records_round_trip_and_reopen_appends_after_them() {
        let path = temp_path("roundtrip");
        {
            let (log, replay) = AppendLog::open(&path, MAGIC).unwrap();
            assert_eq!(replay, LogReplay::default());
            log.append(b"one").unwrap();
            log.append(b"").unwrap();
            log.sync().unwrap();
        }
        let (log, replay) = AppendLog::open(&path, MAGIC).unwrap();
        assert_eq!(replay.records, vec![b"one".to_vec(), Vec::new()]);
        assert_eq!(replay.skipped, 0);
        log.append(b"three").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(&MAGIC));
        assert_eq!(bytes.len(), 8 + 3 * HEADER_LEN + 3 + 5, "records cost 16 bytes each");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_append_is_skipped_and_the_next_record_survives() {
        let path = temp_path("torn");
        let (log, _) = AppendLog::open(&path, MAGIC).unwrap();
        log.append(b"first").unwrap();
        log.append_with(b"torn record", |len| Some(len - 3)).unwrap();
        log.append(b"glued").unwrap();
        let (_, replay) = AppendLog::open(&path, MAGIC).unwrap();
        assert_eq!(replay.records, vec![b"first".to_vec(), b"glued".to_vec()]);
        assert_eq!(replay.skipped, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn read_new_sees_other_writers_and_waits_out_a_partial_record() {
        let path = temp_path("read-new");
        let (mut reader, _) = AppendLog::open(&path, MAGIC).unwrap();
        let (writer, _) = AppendLog::open(&path, MAGIC).unwrap();
        writer.append(b"a").unwrap();
        assert_eq!(reader.read_new().unwrap(), vec![b"a".to_vec()]);
        assert!(reader.read_new().unwrap().is_empty(), "each record is read once");
        // A record whose writer is mid-write: its first bytes only.
        let mut record = Vec::new();
        push_record(&mut record, b"slow").unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&record[..10]).unwrap();
        assert!(reader.read_new().unwrap().is_empty());
        file.write_all(&record[10..]).unwrap();
        assert_eq!(reader.read_new().unwrap(), vec![b"slow".to_vec()]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn rewrite_compacts_and_keeps_the_handle_appendable() {
        let path = temp_path("rewrite");
        let (mut log, _) = AppendLog::open(&path, MAGIC).unwrap();
        for _ in 0..10 {
            log.append(b"dup").unwrap();
        }
        log.rewrite(&[b"dup"]).unwrap();
        log.append(b"after").unwrap();
        assert_eq!(log.read_new().unwrap(), vec![b"after".to_vec()]);
        let (_, replay) = AppendLog::open(&path, MAGIC).unwrap();
        assert_eq!(replay.records, vec![b"dup".to_vec(), b"after".to_vec()]);
        let mut tmp = OsString::from(path.as_os_str());
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "the temp file was renamed away");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_sibling_rewrite_is_followed_by_the_other_handle() {
        let path = temp_path("sibling-rewrite");
        let (mut a, _) = AppendLog::open(&path, MAGIC).unwrap();
        let (mut b, _) = AppendLog::open(&path, MAGIC).unwrap();
        a.append(b"r1").unwrap();
        assert_eq!(b.read_new().unwrap(), vec![b"r1".to_vec()]);
        a.rewrite(&[b"r1"]).unwrap();
        // B notices the new file and replays it from the first record.
        assert_eq!(b.read_new().unwrap(), vec![b"r1".to_vec()]);
        b.append(b"r2").unwrap();
        assert_eq!(a.read_new().unwrap(), vec![b"r2".to_vec()], "B appends to the file at the path");
        let (_, replay) = AppendLog::open(&path, MAGIC).unwrap();
        assert_eq!(replay.records, vec![b"r1".to_vec(), b"r2".to_vec()]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
