//! Stable-storage devices backing the operation log.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::oplog::LogError;

/// An append-only stable-storage device.
///
/// Appends are *buffered*; data only survives a crash once
/// [`StableStore::sync`] returns. `reset` rewrites the device contents
/// atomically (used by log compaction).
pub trait StableStore {
    /// Buffers `bytes` at the end of the device.
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError>;

    /// Forces all buffered bytes to stable storage; returns the number of
    /// bytes made durable by this call.
    fn sync(&mut self) -> Result<usize, LogError>;

    /// Reads the entire durable contents (unsynced bytes excluded on a
    /// freshly opened device, included on a live one).
    fn read_all(&mut self) -> Result<Vec<u8>, LogError>;

    /// Atomically replaces the device contents with `bytes` (durable on
    /// return).
    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError>;

    /// Returns the durable length in bytes.
    fn durable_len(&self) -> u64;

    /// Simulates the volatile half of a crash on a *live* device:
    /// buffered (unsynced) bytes vanish, durable bytes survive. Used by
    /// in-place crash/restart paths that cannot consume the store the
    /// way [`MemStore::crash`] does.
    fn drop_staged(&mut self);
}

/// A boxed device is a device: lets non-generic owners (e.g. the server)
/// hold any stable store behind `Box<dyn StableStore>`.
impl StableStore for Box<dyn StableStore> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        (**self).append(bytes)
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        (**self).sync()
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        (**self).read_all()
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        (**self).reset(bytes)
    }

    fn durable_len(&self) -> u64 {
        (**self).durable_len()
    }

    fn drop_staged(&mut self) {
        (**self).drop_staged()
    }
}

/// In-memory stable store with explicit crash semantics, used by the
/// simulator and by crash-recovery tests.
#[derive(Debug, Default)]
pub struct MemStore {
    durable: Vec<u8>,
    staged: Vec<u8>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a crash: all unsynced bytes vanish, and optionally the
    /// durable tail is torn back to `torn_len` bytes (a partial sector
    /// write). Returns the store as found on "reboot".
    pub fn crash(mut self, torn_len: Option<usize>) -> MemStore {
        self.staged.clear();
        if let Some(n) = torn_len {
            self.durable.truncate(n);
        }
        MemStore {
            durable: self.durable,
            staged: Vec::new(),
        }
    }

    /// Returns the number of staged (unsynced) bytes.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }
}

impl StableStore for MemStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        let n = self.staged.len();
        self.durable.append(&mut self.staged);
        Ok(n)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        let mut all = self.durable.clone();
        all.extend_from_slice(&self.staged);
        Ok(all)
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.durable = bytes.to_vec();
        self.staged.clear();
        Ok(())
    }

    fn durable_len(&self) -> u64 {
        self.durable.len() as u64
    }

    fn drop_staged(&mut self) {
        self.staged.clear();
    }
}

/// File-backed stable store (real `fsync`), for running the toolkit
/// outside the simulator.
#[derive(Debug)]
pub struct FileStore {
    file: Mutex<File>,
    path: PathBuf,
    staged: Vec<u8>,
    durable_len: u64,
}

impl FileStore {
    /// Opens (or creates) the log file at `path`.
    pub fn open(path: &Path) -> Result<Self, LogError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(LogError::io)?;
        let durable_len = file.metadata().map_err(LogError::io)?.len();
        Ok(FileStore {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            staged: Vec::new(),
            durable_len,
        })
    }
}

impl StableStore for FileStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        self.staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<usize, LogError> {
        let n = self.staged.len();
        if n > 0 {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(self.durable_len))
                .map_err(LogError::io)?;
            f.write_all(&self.staged).map_err(LogError::io)?;
            f.sync_data().map_err(LogError::io)?;
            self.durable_len += n as u64;
            self.staged.clear();
        }
        Ok(n)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, LogError> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(0)).map_err(LogError::io)?;
        let mut buf = Vec::new();
        (&mut *f)
            .take(self.durable_len)
            .read_to_end(&mut buf)
            .map_err(LogError::io)?;
        buf.extend_from_slice(&self.staged);
        Ok(buf)
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), LogError> {
        let mut f = self.file.lock();
        // Atomic replacement: build the new image in a sibling temp file,
        // force it to disk, rename it over the log, then fsync the
        // directory so the rename itself is durable. A crash at any
        // point leaves either the complete old image or the complete new
        // one — never a truncated or half-written log.
        let tmp = self.path.with_extension("compact-tmp");
        let mut t = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(LogError::io)?;
        t.write_all(bytes).map_err(LogError::io)?;
        t.sync_data().map_err(LogError::io)?;
        std::fs::rename(&tmp, &self.path).map_err(LogError::io)?;
        #[cfg(unix)]
        {
            let dir = match self.path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
                _ => PathBuf::from("."),
            };
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(LogError::io)?;
        }
        // The temp handle now refers to the renamed inode: it *is* the
        // log file.
        *f = t;
        self.durable_len = bytes.len() as u64;
        self.staged.clear();
        Ok(())
    }

    fn durable_len(&self) -> u64 {
        self.durable_len
    }

    fn drop_staged(&mut self) {
        self.staged.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_sync_moves_staged_to_durable() {
        let mut s = MemStore::new();
        s.append(b"abc").unwrap();
        assert_eq!(s.durable_len(), 0);
        assert_eq!(s.staged_len(), 3);
        assert_eq!(s.sync().unwrap(), 3);
        assert_eq!(s.durable_len(), 3);
        assert_eq!(s.read_all().unwrap(), b"abc");
    }

    #[test]
    fn memstore_crash_drops_unsynced() {
        let mut s = MemStore::new();
        s.append(b"durable").unwrap();
        s.sync().unwrap();
        s.append(b"lost").unwrap();
        let mut s = s.crash(None);
        assert_eq!(s.read_all().unwrap(), b"durable");
    }

    #[test]
    fn memstore_crash_can_tear_tail() {
        let mut s = MemStore::new();
        s.append(b"0123456789").unwrap();
        s.sync().unwrap();
        let mut s = s.crash(Some(4));
        assert_eq!(s.read_all().unwrap(), b"0123");
    }

    #[test]
    fn memstore_reset_replaces_contents() {
        let mut s = MemStore::new();
        s.append(b"old").unwrap();
        s.sync().unwrap();
        s.append(b"staged").unwrap();
        s.reset(b"new").unwrap();
        assert_eq!(s.read_all().unwrap(), b"new");
        assert_eq!(s.durable_len(), 3);
    }

    #[test]
    fn filestore_roundtrips() {
        let dir = std::env::temp_dir().join(format!("rover-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oplog.bin");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"hello ").unwrap();
            s.append(b"rover").unwrap();
            assert_eq!(s.sync().unwrap(), 11);
        }
        {
            let mut s = FileStore::open(&path).unwrap();
            assert_eq!(s.read_all().unwrap(), b"hello rover");
            s.reset(b"compacted").unwrap();
            assert_eq!(s.read_all().unwrap(), b"compacted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod oplog_file_tests {
    use super::*;
    use crate::oplog::{OpLog, RecordKind};

    #[test]
    fn oplog_over_filestore_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("rover-oplog-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.log");

        let seqs: Vec<u64> = {
            let store = FileStore::open(&path).unwrap();
            let mut log = OpLog::open(store).unwrap();
            let seqs = (0..8)
                .map(|i| log.append(RecordKind::Request, vec![i as u8; 64]).unwrap())
                .collect();
            log.flush().unwrap();
            seqs
        };

        // Reopen from disk: everything durable is back.
        let store = FileStore::open(&path).unwrap();
        let mut log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 8);
        for (i, rec) in log.records().enumerate() {
            assert_eq!(rec.seq, seqs[i]);
            assert_eq!(rec.payload[0], i as u8);
        }

        // Remove half, compact, reopen again.
        for s in &seqs[..4] {
            log.remove(*s).unwrap();
        }
        log.compact().unwrap();
        let store = log.into_store();
        let log = OpLog::open(store).unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(log.records().next().unwrap().seq, seqs[4]);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filestore_torn_tail_recovery_discards_only_torn_frame() {
        let dir = std::env::temp_dir().join(format!("rover-torn-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let master = dir.join("master.log");

        // Build a known-good log: frame i carries a payload of 10 + i
        // bytes, so frame boundaries are easy to recompute.
        let frame_len = |i: usize| 20 + 10 + i; // HEADER_LEN + payload
        {
            let store = FileStore::open(&master).unwrap();
            let mut log = OpLog::open(store).unwrap();
            for i in 0..6usize {
                log.append(RecordKind::Request, vec![i as u8; 10 + i])
                    .unwrap();
            }
            log.flush().unwrap();
        }
        let total: usize = (0..6).map(frame_len).sum();
        assert_eq!(std::fs::metadata(&master).unwrap().len() as usize, total);

        // Truncate the on-disk file at arbitrary byte offsets (a crash
        // can tear anywhere: mid-header, mid-payload, on a boundary) and
        // assert recovery keeps exactly the frames that are fully on
        // disk, discarding only the torn tail.
        let scratch = dir.join("scratch.log");
        for cut in (0..=total).step_by(7).chain([total - 1, total]) {
            std::fs::copy(&master, &scratch).unwrap();
            let f = OpenOptions::new().write(true).open(&scratch).unwrap();
            f.set_len(cut as u64).unwrap();
            f.sync_data().unwrap();
            drop(f);

            let mut intact = 0usize;
            let mut end = 0usize;
            while intact < 6 && end + frame_len(intact) <= cut {
                end += frame_len(intact);
                intact += 1;
            }

            let store = FileStore::open(&scratch).unwrap();
            let log = OpLog::open(store).unwrap();
            assert_eq!(log.len(), intact, "cut at byte {cut}");
            for (i, rec) in log.records().enumerate() {
                assert_eq!(rec.payload.len(), 10 + i, "cut at byte {cut}");
                assert_eq!(rec.payload[0], i as u8, "cut at byte {cut}");
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filestore_reset_replaces_atomically_and_stays_usable() {
        let dir = std::env::temp_dir().join(format!("rover-reset-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.log");

        let mut s = FileStore::open(&path).unwrap();
        s.append(b"abcdefgh").unwrap();
        s.sync().unwrap();
        s.reset(b"new image").unwrap();
        // No temp file left behind, and the on-disk file holds exactly
        // the new image.
        assert!(!path.with_extension("compact-tmp").exists());
        assert_eq!(std::fs::read(&path).unwrap(), b"new image");

        // The store keeps working through the replaced inode.
        s.append(b"+tail").unwrap();
        s.sync().unwrap();
        assert_eq!(s.read_all().unwrap(), b"new image+tail");
        drop(s);
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.read_all().unwrap(), b"new image+tail");

        std::fs::remove_dir_all(&dir).ok();
    }
}
