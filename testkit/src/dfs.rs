//! The DFS shadow. The kit depends on neither `ros2_core` nor `ros2_fio`:
//! the shadow takes any error a DFS error converts into ([`FsError`]), and
//! reads files back through a closure.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use bytes::Bytes;
use ros2_dfs::{DfsError, DfsObj, FileKind};

/// An error a suite's DFS calls return: `DfsError` itself, or a wrapper
/// of it such as `ros2_core::Ros2Error`.
pub trait FsError: From<DfsError> + PartialEq + Debug {}

impl<E: From<DfsError> + PartialEq + Debug> FsError for E {}

/// A shadow of the namespace, fed the suite's DFS calls with their results;
/// it panics at a result that is not its answer. A new entry needs a
/// directory parent (`NotADir` under a file, `NotFound` under nothing) and
/// a free name (`Exists`); a lookup finds what the shadow holds; a read
/// returns the bytes written, holes as zeros, cut at the file's size.
#[derive(Default)]
pub struct DfsShadow {
    /// Every directory but `/`, by absolute path.
    dirs: BTreeSet<String>,
    /// Every file's bytes by absolute path; its size is their length.
    files: BTreeMap<String, Vec<u8>>,
}

/// The parent directory and the last name of absolute `path`.
fn split(path: &str) -> (&str, &str) {
    let (dir, name) = path.rsplit_once('/').expect("an absolute path");
    (if dir.is_empty() { "/" } else { dir }, name)
}

/// Panics unless `got` is `want` (the same value or the same error), and
/// says whether it is `Ok`.
fn hold<T: PartialEq + Debug, E: FsError>(
    call: &str,
    path: &str,
    got: Result<T, &E>,
    want: Result<T, DfsError>,
) -> bool {
    let same = match (&got, &want) {
        (Ok(g), Ok(w)) => g == w,
        (Err(g), Err(w)) => **g == E::from(w.clone()),
        _ => false,
    };
    assert!(same, "{call} {path}: {got:?}, the shadow says {want:?}");
    got.is_ok()
}

impl DfsShadow {
    /// Holds a mkdir of `path` to the shadow, and keeps the directory.
    pub fn mkdir<T, E: FsError>(&mut self, path: &str, got: Result<T, E>) -> Result<T, E> {
        if hold("mkdir", path, got.as_ref().map(drop), self.free(path)) {
            self.dirs.insert(path.into());
        }
        got
    }

    /// Holds a create of `path` to the shadow, and keeps the empty file.
    pub fn create<T, E: FsError>(&mut self, path: &str, got: Result<T, E>) -> Result<T, E> {
        if hold("create", path, got.as_ref().map(drop), self.free(path)) {
            self.files.insert(path.into(), Vec::new());
        }
        got
    }

    /// Keeps an acked write of `data` at `offset` of file `path`.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8]) {
        let file = self.files.get_mut(path).expect("a file the shadow holds");
        if data.is_empty() {
            // POSIX `pwrite` of zero bytes: the size stays.
            return;
        }
        let (at, end) = (offset as usize, offset as usize + data.len());
        file.resize(file.len().max(end), 0);
        file[at..end].copy_from_slice(data);
    }

    /// Holds a rename of file `from` to `to` to the shadow (DFS renames
    /// over an existing name), and moves the file.
    pub fn rename<E: FsError>(&mut self, from: &str, to: &str, got: Result<(), E>) {
        let file = self.files.remove(from);
        let want = file.as_ref().map(drop).ok_or(DfsError::NotFound);
        if hold("rename", from, got.as_ref().map(drop), want) {
            self.files.insert(to.into(), file.unwrap());
        }
    }

    /// Holds an unlink of `path` to the shadow, and drops the entry.
    pub fn unlink<E: FsError>(&mut self, path: &str, got: Result<(), E>) {
        let want = match self.files.contains_key(path) || self.is_dir(path) {
            false => Err(DfsError::NotFound),
            true if self.names(path).is_empty() => Ok(()),
            true => Err(DfsError::NotEmpty),
        };
        if hold("unlink", path, got.as_ref().map(drop), want) {
            self.files.remove(path);
            self.dirs.remove(path);
        }
    }

    /// Holds a lookup of `path` to the shadow: its kind and, for a file,
    /// its size.
    pub fn open<E: FsError>(&self, path: &str, got: Result<DfsObj, E>) -> Result<DfsObj, E> {
        let want = match self.files.get(path) {
            Some(bytes) => Ok((FileKind::File, bytes.len() as u64)),
            None if self.is_dir(path) => Ok((FileKind::Dir, 0)),
            None => Err(DfsError::NotFound),
        };
        hold("open", path, got.as_ref().map(|o| (o.kind, o.size)), want);
        got
    }

    /// Holds a readdir of `path` to the shadow: its names, sorted.
    pub fn readdir<E: FsError>(&self, path: &str, got: Result<Vec<String>, E>) {
        let want = match (self.is_dir(path), self.files.contains_key(path)) {
            (true, _) => Ok(self.names(path)),
            (_, true) => Err(DfsError::NotADir),
            _ => Err(DfsError::NotFound),
        };
        hold("readdir", path, got.as_ref().cloned(), want);
    }

    /// Holds a read of `len` bytes at `offset` of file `path` to the
    /// shadow's bytes there.
    pub fn read<E: FsError>(&self, path: &str, offset: u64, len: u64, got: Result<Bytes, E>) {
        let file = &self.files[path];
        let end = (offset + len).min(file.len() as u64) as usize;
        let want = &file[(offset as usize).min(end)..end];
        let got = got.unwrap_or_else(|e| panic!("read {path} @ {offset} failed with {e:?}"));
        let at =
            (got.iter().zip(want).position(|(g, w)| g != w)).unwrap_or(got.len().min(want.len()));
        let (got, want) = (got.len(), want.len());
        assert!(
            (at, got) == (want, want),
            "read {path} @ {offset} + {len} returned {got} B, the shadow holds {want} B; \
             they part at byte {at}"
        );
    }

    /// Reads back every file the shadow holds, whole, through `read`
    /// (which opens it by path), and holds each to the shadow's bytes.
    pub fn check_files<E: FsError>(&self, mut read: impl FnMut(&str) -> Result<Bytes, E>) {
        for (path, bytes) in &self.files {
            self.read(path, 0, bytes.len() as u64, read(path));
        }
    }

    /// The answer to a new entry at `path`.
    fn free(&self, path: &str) -> Result<(), DfsError> {
        let parent = split(path).0;
        match () {
            _ if self.files.contains_key(parent) => Err(DfsError::NotADir),
            _ if !self.is_dir(parent) => Err(DfsError::NotFound),
            _ if self.files.contains_key(path) || self.is_dir(path) => Err(DfsError::Exists),
            _ => Ok(()),
        }
    }

    fn is_dir(&self, path: &str) -> bool {
        path == "/" || self.dirs.contains(path)
    }

    /// The names in directory `dir`, sorted.
    fn names(&self, dir: &str) -> Vec<String> {
        let paths = self.dirs.iter().chain(self.files.keys());
        let mut names: Vec<String> = (paths.filter(|p| split(p).0 == dir))
            .map(|p| split(p).1.to_string())
            .collect();
        names.sort();
        names
    }
}
