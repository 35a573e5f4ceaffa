//! A minimal filesystem seam for the store.
//!
//! Every filesystem operation the store performs — segment creation,
//! appends, fsyncs, manifest renames, recovery truncation — goes through
//! the [`Vfs`] trait instead of calling `std::fs` directly. Production
//! code uses [`OsVfs`] (a zero-cost passthrough); test harnesses
//! substitute a fault-injecting implementation (see `refill-testkit`'s
//! `FaultyVfs`) to exercise torn writes, short writes, fsync failures and
//! rename failures deterministically, without touching the durability
//! logic under test.
//!
//! The trait is deliberately narrow: it exposes exactly the operations the
//! store uses, at the granularity the durability contract cares about. In
//! particular [`Vfs::truncate`] bundles the open-set_len-fsync dance that
//! recovery performs on a torn tail, because a fault injector wants to
//! treat "truncate to the valid prefix" as one atomic decision point, not
//! three.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// An open writable file handle, as the store uses one: append bytes,
/// make them durable.
pub trait VfsFile: Send {
    /// Append the whole buffer.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`.
    fn sync_data(&mut self) -> io::Result<()>;
    /// `fsync`.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// The filesystem operations the store performs.
pub trait Vfs: Send + Sync {
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open an existing file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// File names (not paths) of the directory's entries.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically replace `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncate a file to `len` bytes and fsync the result (recovery's
    /// torn-tail repair).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Fsync a directory, making renames within it durable. Callers treat
    /// failure as best-effort (some filesystems disallow directory opens).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: a direct passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsVfs;

impl VfsFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
}

impl Vfs for OsVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OpenOptions::new().append(true).open(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_vfs_roundtrips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("refill-vfs-{}", std::process::id()));
        let vfs = OsVfs;
        vfs.create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        {
            let mut f = vfs.create(&path).unwrap();
            f.write_all(b"hello").unwrap();
            f.sync_all().unwrap();
        }
        {
            let mut f = vfs.open_append(&path).unwrap();
            f.write_all(b" world").unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        assert!(vfs.read_dir(&dir).unwrap().contains(&"file.bin".to_string()));
        vfs.rename(&path, &dir.join("renamed.bin")).unwrap();
        let _ = vfs.sync_dir(&dir);
        vfs.remove_file(&dir.join("renamed.bin")).unwrap();
        assert!(vfs.read_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
