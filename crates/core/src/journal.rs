//! The append-only journal: the one durable file protocol under the sweep
//! checkpoints ([`crate::supervise`]), the transient playback checkpoints
//! ([`crate::transient`]) and the `tecopt-explore` work ledger.
//!
//! A journal file is a four-line header followed by one record per line:
//!
//! ```text
//! tecopt-<noun> v<version>     e.g. tecopt-checkpoint v1, tecopt-ledger v1
//! kind <kind>
//! fingerprint <fp:016x>
//! total <n>
//! <record>
//! ...
//! ```
//!
//! Each format is a record schema on top of this module; the protocol
//! itself lives only here:
//!
//! - **Create or open.** A missing file gets its header through
//!   [`atomic_replace`], so a kill leaves either no file or a whole header,
//!   never a torn one. An existing file must carry exactly the expected
//!   header, or opening fails with a typed `stale <noun>` error: resuming
//!   under different parameters would silently mix runs.
//! - **Replay.** The record lines after the header go back to the schema.
//!   Blank lines are dropped here; the schema skips any line it cannot
//!   decode (the tail a mid-append kill tears).
//! - **Reopen.** A file that does not end in `\n` has a torn tail. It is
//!   terminated before the first append, so the next record starts on a
//!   line of its own instead of being glued onto the fragment.
//! - **Append.** One record per call, written as one buffer and flushed
//!   under a mutex. Records are flushed, not synced: durable against
//!   process kills, while an OS crash may drop an unsynced tail, which
//!   costs re-running those items, never correctness.
//!
//! See `DESIGN.md` §19.

use crate::OptError;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The four header lines that bind a journal file to one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Magic first line, `tecopt-<noun> v<version>`.
    pub magic: &'static str,
    /// Record-schema tag.
    pub kind: &'static str,
    /// Digest of every input that determines the records.
    pub fingerprint: u64,
    /// Number of items the run covers.
    pub total: usize,
}

impl Header {
    fn lines(&self) -> [String; 4] {
        [
            self.magic.to_string(),
            format!("kind {}", self.kind),
            format!("fingerprint {:016x}", self.fingerprint),
            format!("total {}", self.total),
        ]
    }

    /// The file's noun in error messages (`checkpoint`, `ledger`), read
    /// off the magic's `tecopt-<noun> v<version>` shape.
    fn noun(&self) -> &'static str {
        let name = self.magic.split(' ').next().unwrap_or(self.magic);
        name.strip_prefix("tecopt-").unwrap_or(name)
    }
}

fn io_error(noun: &str, path: &Path, e: std::io::Error) -> OptError {
    OptError::InvalidParameter(format!("{noun} io at {}: {e}", path.display()))
}

/// An open journal file, ready for appends.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    noun: &'static str,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens the journal at `path` under `header`, creating it when
    /// missing, and returns it with the record lines already on disk
    /// (blank lines dropped; torn lines are left for the schema to skip).
    ///
    /// # Errors
    ///
    /// - [`OptError::InvalidParameter`] `"stale <noun> ..."` when an
    ///   existing file's header differs from `header`;
    /// - [`OptError::InvalidParameter`] `"<noun> io at <path>: ..."` for
    ///   I/O errors.
    pub fn open(path: &Path, header: &Header) -> Result<(Journal, Vec<String>), OptError> {
        let noun = header.noun();
        let io = |e| io_error(noun, path, e);
        let expected = header.lines();
        let (records, torn) = match std::fs::read_to_string(path) {
            Ok(text) => {
                let mut lines = text.lines();
                for want in &expected {
                    let got = lines.next().unwrap_or("");
                    if got != want {
                        return Err(OptError::InvalidParameter(format!(
                            "stale {noun} {}: expected `{want}`, found `{got}`; delete it to \
                             start fresh",
                            path.display()
                        )));
                    }
                }
                let records = lines
                    .filter(|l| !l.trim().is_empty())
                    .map(str::to_string)
                    .collect();
                (records, !text.ends_with('\n'))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                atomic_replace(path, &format!("{}\n", expected.join("\n"))).map_err(io)?;
                (Vec::new(), false)
            }
            Err(e) => return Err(io(e)),
        };
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(io)?;
        if torn {
            file.write_all(b"\n")
                .and_then(|()| file.flush())
                .map_err(io)?;
        }
        let journal = Journal {
            path: path.to_path_buf(),
            noun,
            file: Mutex::new(file),
        };
        Ok((journal, records))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `record` as one line and flushes it.
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidParameter`] `"<noun> io at <path>: ..."`.
    pub fn append(&self, record: &str) -> Result<(), OptError> {
        let mut line = String::with_capacity(record.len() + 1);
        line.push_str(record);
        line.push('\n');
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The mutex exists to serialize exactly this write+flush; writing
        // outside it would interleave records from concurrent workers.
        // tecopt:allow(lock-across-blocking)
        let written = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        written.map_err(|e| io_error(self.noun, &self.path, e))
    }
}

/// The sibling temp path the atomic-replace protocol writes through:
/// `<final>.tmp` in the same directory (same filesystem, so the rename is
/// atomic). `faultinject::DiskFull` relies on this convention to obstruct
/// the temp path in write-failure tests.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `contents`: the bytes are written and
/// synced to [`temp_sibling`] first, renamed over the final path, then the
/// parent directory is synced so the rename itself survives power loss. A
/// crash at any instant leaves the final path either absent, with its old
/// content, or with the complete new content — never a torn prefix.
/// Journal headers go through this.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename: before the rename the
/// final path is untouched; a directory-sync failure after it leaves the
/// final path with the complete new content (never a torn file).
pub fn atomic_replace(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // The rename lives in the directory entry, not the file: without this
    // sync a power cut can roll the replacement back even though the file
    // data itself was synced.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: Header = Header {
        magic: "tecopt-checkpoint v1",
        kind: "unit",
        fingerprint: 0xfeed,
        total: 3,
    };

    #[test]
    fn a_record_appended_after_a_torn_tail_survives_the_next_reopen() {
        let path = std::env::temp_dir().join(format!("tecopt-journal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, &HEADER).unwrap();
        journal.append("item 0 0000000000000001").unwrap();
        journal.append("item 1 0000000000000002").unwrap();
        drop(journal);
        // A kill mid-append leaves a fragment with no newline.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();

        let (journal, records) = Journal::open(&path, &HEADER).unwrap();
        assert_eq!(records, ["item 0 0000000000000001", "item 1 000000000000"]);
        journal.append("item 1 0000000000000002").unwrap();
        drop(journal);

        let (_, records) = Journal::open(&path, &HEADER).unwrap();
        assert_eq!(
            records,
            [
                "item 0 0000000000000001",
                "item 1 000000000000",
                "item 1 0000000000000002"
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
