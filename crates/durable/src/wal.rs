//! The mutation write-ahead log: newline-delimited, length-capped,
//! CRC-framed records.
//!
//! One record per line:
//!
//! ```text
//! <len>:<crc32 as 8 lowercase hex digits>:<payload>\n
//! ```
//!
//! where `len` is the payload's byte length in decimal and the CRC covers
//! exactly the payload bytes. Payloads are wire-encoded [`api::Request`]s
//! — the mini-JSON codec escapes every control character (`\n` included),
//! so an encoded request is single-line by construction and the framing
//! never needs payload escaping. Payloads are capped at
//! [`api::MAX_FRAME_BYTES`], mirroring the service's frame cap: nothing
//! the service accepted can fail to log, and nothing the log replays can
//! exceed what the service would accept.
//!
//! **Torn-tail semantics.** [`scan_bytes`] walks records from the start
//! and stops at the *first* invalid byte — a short line, a length
//! overrun, a CRC mismatch, anything. It never resyncs past damage to a
//! later newline: a mid-file corruption means every later record's
//! provenance is unknowable, and replaying around it would fabricate
//! history. The scan reports the clean prefix (`valid_bytes`) and the
//! tear's byte offset + reason; recovery truncates to the prefix and
//! carries on, which is exactly the contract a kill -9 mid-append needs.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use crate::crc::crc32;

/// Cap on one record's payload bytes — identical to the service frame cap.
pub const MAX_RECORD_BYTES: usize = api::MAX_FRAME_BYTES;

/// Cap on one *checkpoint* record's payload bytes. Checkpoint row records
/// prefix a WAL-sized insert encoding with `"<id> "` (≤ 21 bytes), so a
/// mutation the service legitimately accepted at [`MAX_RECORD_BYTES`]
/// must still fit a checkpoint record; the headroom covers the prefix.
pub const MAX_CHECKPOINT_RECORD_BYTES: usize = MAX_RECORD_BYTES + 64;

/// `fsync` a directory, pinning its metadata (renames, file creations,
/// deletions) to stable storage. On ext4/xfs a `rename` can otherwise
/// reorder after a later data write across a power loss.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

struct WalObs {
    appends: Arc<obs::Counter>,
    append_bytes: Arc<obs::Counter>,
    replayed: Arc<obs::Counter>,
    truncations: Arc<obs::Counter>,
}

fn wal_obs() -> &'static WalObs {
    static OBS: OnceLock<WalObs> = OnceLock::new();
    OBS.get_or_init(|| WalObs {
        appends: obs::counter("wal_appends_total"),
        append_bytes: obs::counter("wal_append_bytes_total"),
        replayed: obs::counter("wal_replayed_records_total"),
        truncations: obs::counter("wal_truncations_total"),
    })
}

/// `wal_fsync_ns`: one sample per fsynced append. Resolved at the first
/// fsync (not with [`wal_obs`]), so a WAL that never syncs registers no
/// histogram.
fn fsync_ns() -> &'static Arc<obs::Histogram> {
    static HIST: OnceLock<Arc<obs::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| obs::histogram("wal_fsync_ns"))
}

/// How a scanned WAL ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte belongs to a valid record.
    Clean,
    /// The log is damaged from `offset` on; `reason` says how. Bytes
    /// before `offset` form the longest valid record prefix.
    Torn {
        /// Byte offset of the first invalid byte.
        offset: u64,
        /// Human-readable account of the damage.
        reason: String,
    },
}

/// The outcome of scanning a WAL: the decoded record payloads of the
/// valid prefix, where that prefix ends, and how the log tail looked.
#[derive(Debug)]
pub struct WalScan {
    /// Record payloads in append order.
    pub records: Vec<String>,
    /// Bytes of the valid prefix (`== file length` when `tail` is clean).
    pub valid_bytes: u64,
    /// Whether the log ended cleanly or torn.
    pub tail: WalTail,
}

/// Scan `data` as WAL bytes: decode the longest valid record prefix,
/// stopping (never resyncing) at the first invalid byte. Records are
/// capped at [`MAX_RECORD_BYTES`]; checkpoints scan through
/// [`scan_bytes_with_cap`] with [`MAX_CHECKPOINT_RECORD_BYTES`] instead.
pub fn scan_bytes(data: &[u8]) -> WalScan {
    scan_bytes_with_cap(data, MAX_RECORD_BYTES)
}

/// [`scan_bytes`] with an explicit per-record payload cap.
pub fn scan_bytes_with_cap(data: &[u8], cap: usize) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let torn = |offset: usize, reason: String| WalTail::Torn {
        offset: offset as u64,
        reason,
    };
    let tail = loop {
        if pos == data.len() {
            break WalTail::Clean;
        }
        let record_start = pos;
        // <len> — decimal digits up to ':'.
        let Some(colon) = data[pos..]
            .iter()
            .take(cap.ilog10() as usize + 2)
            .position(|&b| b == b':')
        else {
            break torn(record_start, "record header: no length delimiter".into());
        };
        let len_digits = &data[pos..pos + colon];
        let Some(len) = std::str::from_utf8(len_digits)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        else {
            break torn(record_start, "record header: malformed length".into());
        };
        if len > cap {
            break torn(
                record_start,
                format!("record header: length {len} exceeds the {cap}-byte cap"),
            );
        }
        pos += colon + 1;
        // <crc> — exactly 8 hex digits and ':'.
        if data.len() < pos + 9 || data[pos + 8] != b':' {
            break torn(record_start, "record header: truncated checksum".into());
        }
        let Some(expected) = std::str::from_utf8(&data[pos..pos + 8])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
        else {
            break torn(record_start, "record header: malformed checksum".into());
        };
        pos += 9;
        // <payload>\n — exactly `len` bytes then the terminator.
        if data.len() < pos + len + 1 {
            break torn(record_start, "truncated payload".into());
        }
        let payload = &data[pos..pos + len];
        if data[pos + len] != b'\n' {
            break torn(record_start, "payload not newline-terminated".into());
        }
        let actual = crc32(payload);
        if actual != expected {
            break torn(
                record_start,
                format!("checksum mismatch: expected {expected:08x}, computed {actual:08x}"),
            );
        }
        let Ok(payload) = std::str::from_utf8(payload) else {
            break torn(record_start, "payload is not UTF-8".into());
        };
        records.push(payload.to_string());
        pos += len + 1;
    };
    // On a tear, `pos` may already sit inside the damaged record's header
    // (the header parses incrementally); the valid prefix ends where the
    // torn record *started*.
    let valid_bytes = match &tail {
        WalTail::Clean => pos as u64,
        WalTail::Torn { offset, .. } => *offset,
    };
    WalScan {
        records,
        valid_bytes,
        tail,
    }
}

/// Frame one payload as a WAL line (without writing it anywhere).
pub fn frame(payload: &str) -> String {
    format!(
        "{}:{:08x}:{payload}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// An append handle on one WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    sync: bool,
    appends: u64,
    /// Set when a failed append could not be rolled back to the last
    /// record boundary: the file may end in torn bytes, and appending
    /// past them would write records a recovery scan silently truncates.
    poisoned: bool,
    /// Test-only fault injection: the next append writes half its frame
    /// and then fails, simulating a torn `write_all`.
    #[cfg(test)]
    inject_torn_write: bool,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path` and position at its
    /// end, **without** validating existing content — pair with
    /// [`Wal::recover`] unless the file is known fresh.
    pub fn open(path: &Path) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            len,
            sync: true,
            appends: 0,
            poisoned: false,
            #[cfg(test)]
            inject_torn_write: false,
        })
    }

    /// Open the WAL at `path`, scan it, and truncate a torn tail down to
    /// the longest valid prefix (with a loud warning — a tear is expected
    /// exactly once per crash, never in steady state). Returns the handle
    /// positioned after the valid prefix plus the scan (whose records the
    /// caller replays).
    pub fn recover(path: &Path) -> io::Result<(Wal, WalScan)> {
        let mut data = Vec::new();
        if path.exists() {
            File::open(path)?.read_to_end(&mut data)?;
        }
        let scan = scan_bytes(&data);
        if let WalTail::Torn { offset, reason } = &scan.tail {
            eprintln!(
                "WARNING: WAL {} torn at byte {offset} ({reason}); truncating to the \
                 {}-byte valid prefix of {} records",
                path.display(),
                scan.valid_bytes,
                scan.records.len()
            );
            wal_obs().truncations.inc();
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(scan.valid_bytes)?;
            f.sync_all()?;
        }
        wal_obs().replayed.add(scan.records.len() as u64);
        let mut wal = Wal::open(path)?;
        wal.len = scan.valid_bytes;
        Ok((wal, scan))
    }

    /// Append one record. The payload must be single-line (wire-encoded
    /// requests are, by construction) and within [`MAX_RECORD_BYTES`];
    /// the write is fsynced before returning unless [`Wal::set_sync`]
    /// turned syncing off.
    ///
    /// A failed append never leaves the log longer than its last record
    /// boundary: the file is rolled back to the pre-append length, so a
    /// torn `write_all` cannot strand later (acked) records past bytes a
    /// recovery scan would truncate at. If the rollback itself fails the
    /// handle is poisoned and refuses all further appends.
    pub fn append(&mut self, payload: &str) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "WAL is poisoned: an earlier append failed and could not be rolled \
                 back, so the file may end mid-record",
            ));
        }
        if payload.len() > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap",
                    payload.len()
                ),
            ));
        }
        if payload.as_bytes().contains(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "WAL record payload contains a raw newline (not wire-encoded?)",
            ));
        }
        let line = frame(payload);
        if let Err(e) = self.write_line(line.as_bytes()) {
            if self.rollback().is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.len += line.len() as u64;
        self.appends += 1;
        let o = wal_obs();
        o.appends.inc();
        o.append_bytes.add(line.len() as u64);
        Ok(())
    }

    /// Write one framed line and (when syncing) fsync it.
    fn write_line(&mut self, line: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if self.inject_torn_write {
            self.inject_torn_write = false;
            self.file.write_all(&line[..line.len() / 2])?;
            self.file.sync_data()?;
            return Err(io::Error::other("injected torn write"));
        }
        self.file.write_all(line)?;
        if self.sync {
            let _t = obs::SpanTimer::new(Arc::clone(fsync_ns()));
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Cut the file back to the last record boundary after a failed
    /// append (any partially written frame bytes are discarded).
    fn rollback(&mut self) -> io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()
    }

    /// Toggle fsync-per-append (on by default). Benchmarks building long
    /// WALs turn it off; the service tier leaves it on.
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Whether fsync-per-append is on (carried across WAL rotations).
    pub fn sync_enabled(&self) -> bool {
        self.sync
    }

    /// Truncate the log to empty. Checkpoints do **not** use this — they
    /// rotate to a fresh generation file instead (see
    /// `Durable::checkpoint`), so a crash can never pair a new checkpoint
    /// with a stale pre-checkpoint log.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_all()?;
        self.len = 0;
        Ok(())
    }

    /// Current log length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sdq_wal_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let payloads = [
            r#"{"op":"insert","row":[["s","a"]]}"#,
            r#"{"op":"delete","row":7}"#,
            "",
            "x",
        ];
        for p in payloads {
            wal.append(p).unwrap();
        }
        assert_eq!(wal.appends(), 4);
        let (wal2, scan) = Wal::recover(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.records, payloads);
        assert_eq!(wal2.len_bytes(), wal.len_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_refuses_newlines_and_oversize() {
        let dir = tmpdir("refuse");
        let mut wal = Wal::open(&dir.join("wal.log")).unwrap();
        assert!(wal.append("two\nlines").is_err());
        let huge = "y".repeat(MAX_RECORD_BYTES + 1);
        assert!(wal.append(&huge).is_err());
        assert_eq!(wal.appends(), 0, "refused appends write nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_truncation_yields_a_valid_prefix() {
        let payloads = ["alpha", "", r#"{"op":"detect"}"#, "delta-9"];
        let full: String = payloads.iter().map(|p| frame(p)).collect();
        let bytes = full.as_bytes();
        for cut in 0..=bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            // The valid prefix is a whole number of leading records...
            assert!(scan.records.len() <= payloads.len(), "cut {cut}");
            assert_eq!(
                scan.records,
                &payloads[..scan.records.len()],
                "cut {cut}: prefix must match append order"
            );
            // ...and valid_bytes points exactly past them.
            let expect_bytes: usize = payloads[..scan.records.len()]
                .iter()
                .map(|p| frame(p).len())
                .sum();
            assert_eq!(scan.valid_bytes as usize, expect_bytes, "cut {cut}");
            if cut == bytes.len() {
                assert_eq!(scan.tail, WalTail::Clean);
            } else {
                assert!(
                    matches!(scan.tail, WalTail::Torn { .. }) || scan.valid_bytes as usize == cut,
                    "cut {cut}: mid-record cut must be reported torn"
                );
            }
        }
    }

    #[test]
    fn corruption_reports_offset_and_never_resyncs() {
        let payloads = ["first-record", "second-record", "third-record"];
        let full: String = payloads.iter().map(|p| frame(p)).collect();
        let mut bytes = full.into_bytes();
        // Flip one payload byte inside the second record.
        let second_start = frame(payloads[0]).len();
        let flip_at = second_start + frame(payloads[1]).len() - 3;
        bytes[flip_at] ^= 0x40;
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records, ["first-record"], "no resync past damage");
        let WalTail::Torn { offset, reason } = scan.tail else {
            panic!("corruption must be reported");
        };
        assert_eq!(offset as usize, second_start, "tear at the damaged record");
        assert!(reason.contains("checksum mismatch"), "{reason}");
    }

    #[test]
    fn failed_append_rolls_back_to_the_record_boundary() {
        let dir = tmpdir("rollback");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append("before-fault").unwrap();
        let clean_len = wal.len_bytes();
        wal.inject_torn_write = true;
        assert!(wal.append("torn-victim").is_err());
        // The torn half-frame was cut off: the file ends exactly at the
        // last record boundary and later appends land cleanly after it.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        wal.append("after-fault").unwrap();
        drop(wal);
        let (_, scan) = Wal::recover(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.records, ["before-fault", "after-fault"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_wal_refuses_appends() {
        let dir = tmpdir("poison");
        let mut wal = Wal::open(&dir.join("wal.log")).unwrap();
        wal.append("ok").unwrap();
        wal.poisoned = true;
        let err = wal.append("rejected").unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cap_scan_accepts_oversized_wal_records() {
        // A payload legal at the WAL cap grows past it once a checkpoint
        // adds the "<id> " prefix; the checkpoint scan cap absorbs that.
        let payload = format!("{} {}", u64::MAX, "x".repeat(MAX_RECORD_BYTES - 4));
        assert!(payload.len() > MAX_RECORD_BYTES);
        let log = frame(&payload);
        let wal_scan = scan_bytes(log.as_bytes());
        assert!(matches!(wal_scan.tail, WalTail::Torn { .. }));
        let ckpt_scan = scan_bytes_with_cap(log.as_bytes(), MAX_CHECKPOINT_RECORD_BYTES);
        assert_eq!(ckpt_scan.tail, WalTail::Clean);
        assert_eq!(ckpt_scan.records, [payload]);
    }

    #[test]
    fn recover_truncates_torn_tail_and_new_appends_continue() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append("keep-me").unwrap();
        wal.append("casualty").unwrap();
        drop(wal);
        // Simulate a crash mid-append: chop the last 5 bytes.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (mut wal, scan) = Wal::recover(&path).unwrap();
        assert_eq!(scan.records, ["keep-me"]);
        assert!(matches!(scan.tail, WalTail::Torn { .. }));
        wal.append("after-crash").unwrap();
        let (_, scan2) = Wal::recover(&path).unwrap();
        assert_eq!(scan2.tail, WalTail::Clean);
        assert_eq!(scan2.records, ["keep-me", "after-crash"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
