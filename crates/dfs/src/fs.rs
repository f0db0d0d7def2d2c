//! DFS — the POSIX-compatible namespace over DAOS objects (libdfs
//! analogue).
//!
//! Mapping (mirroring the real DFS layout, §3.3 "DFS mapping"):
//!
//! * the **superblock** is a single-value record on a reserved S1 object;
//! * a **directory** is an S1 object whose entries are `dkey = name`,
//!   `akey = "entry"` single values encoding `(ino, kind, mode, size,
//!   chunk_size)`;
//! * a **file**'s data lives on an `Sx` (striped) object keyed by
//!   `dkey = chunk index`, `akey = "data"` array values — so one file's
//!   chunks spread across every target, which is what lets a single FIO
//!   file drive all four SSDs in Fig. 5.
//!
//! Every operation takes a [`DfsSession`] (fabric + engine + client) and
//! returns virtual-time completion alongside its functional result.

use bytes::Bytes;
use ros2_ctl::{WireReader, WireWriter};
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosError, EngineCluster, Epoch, FetchOp, ObjClass,
    ObjectClient, ObjectId, RecordKey, UpdateOp, ValueKind,
};
use ros2_fabric::Fabric;
use ros2_sim::SimTime;

/// The reserved object id of the superblock / root directory.
const ROOT_INO: u64 = 1;
/// The akey under which directory entries live.
fn entry_akey() -> AKey {
    AKey::from_str("entry")
}
/// The akey under which file chunk data lives.
fn data_akey() -> AKey {
    AKey::from_str("data")
}
/// The record holding the entry `name` of the directory object `dir`.
fn entry_key(dir: ObjectId, name: &str) -> RecordKey {
    RecordKey {
        oid: dir,
        dkey: DKey::from_str(name),
        akey: entry_akey(),
    }
}
/// The record holding chunk `chunk` of the file object `file`.
fn chunk_key(file: ObjectId, chunk: u64) -> RecordKey {
    RecordKey {
        oid: file,
        dkey: DKey::from_u64(chunk),
        akey: data_akey(),
    }
}

/// What a directory entry describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// A stat result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FileStat {
    /// Inode number (object id low word).
    pub ino: u64,
    /// File or directory.
    pub kind: FileKind,
    /// POSIX mode bits.
    pub mode: u32,
    /// Size in bytes (files).
    pub size: u64,
}

/// An open handle.
#[derive(Clone, Debug)]
pub struct DfsObj {
    /// The object backing this node.
    pub oid: ObjectId,
    /// The parent directory's object.
    pub parent: ObjectId,
    /// Name within the parent.
    pub name: String,
    /// Kind.
    pub kind: FileKind,
    /// Current size (files; updated on extending writes).
    pub size: u64,
    /// POSIX mode bits.
    pub mode: u32,
}

/// DFS-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DfsError {
    /// Component of the path does not exist.
    NotFound,
    /// Entry already exists.
    Exists,
    /// Operation on the wrong kind (read a dir, readdir a file).
    NotAFile,
    /// See [`DfsError::NotAFile`].
    NotADir,
    /// Directory not empty on unlink.
    NotEmpty,
    /// Underlying DAOS failure.
    Daos(DaosError),
}

impl From<DaosError> for DfsError {
    fn from(e: DaosError) -> Self {
        match e {
            DaosError::NotFound => DfsError::NotFound,
            other => DfsError::Daos(other),
        }
    }
}

/// The mutable borrow bundle every DFS call needs.
pub struct DfsSession<'a> {
    /// The data-plane fabric.
    pub fabric: &'a mut Fabric,
    /// The storage cluster (one engine per storage node; the degenerate
    /// single-engine cluster for the historical two-node worlds).
    pub cluster: &'a mut EngineCluster,
    /// The object client — the in-process [`ros2_daos::DaosClient`] (host
    /// placement) or the DPU-offloaded client (SmartNIC placement). It
    /// routes every op by the cluster's pool map.
    pub client: &'a mut dyn ObjectClient,
}

#[derive(Clone, Debug)]
struct DirEntry {
    ino: u64,
    kind: FileKind,
    mode: u32,
    size: u64,
}

impl DirEntry {
    /// The object holding the entry's data: a file's chunks, or a
    /// directory's entries.
    fn data_oid(&self) -> ObjectId {
        let class = match self.kind {
            FileKind::File => ObjClass::Sx,
            FileKind::Dir => ObjClass::S1,
        };
        ObjectId::new(class, self.ino)
    }

    fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.u64(self.ino)
            .u8(match self.kind {
                FileKind::File => 0,
                FileKind::Dir => 1,
            })
            .u32(self.mode)
            .u64(self.size);
        w.finish()
    }

    fn decode(buf: Bytes) -> Option<DirEntry> {
        let mut r = WireReader::new(buf);
        Some(DirEntry {
            ino: r.u64().ok()?,
            kind: if r.u8().ok()? == 1 {
                FileKind::Dir
            } else {
                FileKind::File
            },
            mode: r.u32().ok()?,
            size: r.u64().ok()?,
        })
    }
}

/// A mounted DFS namespace.
pub struct Dfs {
    chunk_size: u64,
    next_ino: u64,
    root: ObjectId,
    mounted: bool,
    /// The one place an op's execution path is chosen, and it decides for
    /// single-chunk data ops only: set, they go through the client's
    /// submission/completion ring ([`ObjectClient::execute_into`]);
    /// clear, through the serial `update`/`fetch` call. Multi-chunk I/O
    /// always submits its stripe set to the ring. Functionally identical —
    /// epochs are allocated in submission order either way — but the ring
    /// books only the submission share of the client's per-op CPU on the
    /// job core, so consecutive calls overlap the completion share. Off by
    /// default: classic worlds keep the synchronous cost accounting.
    data_pipeline: bool,
    /// Namespace (metadata) operations performed.
    pub meta_ops: u64,
    /// Data operations performed.
    pub data_ops: u64,
    /// The stripe set handed to the ring and the results it hands back,
    /// both emptied after every call and kept for the next, so a warm data
    /// op allocates nothing for either.
    ops: Vec<ClientOp>,
    results: Vec<ClientOpResult>,
}

impl Dfs {
    /// Formats and mounts a fresh namespace with the given chunk size.
    /// Returns the mount completion time.
    pub fn format(
        s: &mut DfsSession<'_>,
        now: SimTime,
        chunk_size: u64,
    ) -> Result<(Dfs, SimTime), DfsError> {
        let root = ObjectId::new(ObjClass::S1, ROOT_INO);
        // Superblock: magic + chunk size, stored as a single value on the
        // root object under a reserved dkey.
        let mut w = WireWriter::new();
        w.u64(0x5244_4653_0001_u64).u64(chunk_size); // "RDFS" magic v1
        let done = s.client.update(
            s.fabric,
            s.cluster,
            now,
            0,
            root,
            DKey::from_str("."),
            AKey::from_str("superblock"),
            ValueKind::Single,
            w.finish(),
        )?;
        Ok((
            Dfs {
                chunk_size,
                next_ino: ROOT_INO + 1,
                root,
                mounted: true,
                data_pipeline: false,
                meta_ops: 1,
                data_ops: 0,
                ops: Vec::new(),
                results: Vec::new(),
            },
            done,
        ))
    }

    /// Mounts an existing namespace (reads the superblock).
    pub fn mount(s: &mut DfsSession<'_>, now: SimTime) -> Result<(Dfs, SimTime), DfsError> {
        let root = ObjectId::new(ObjClass::S1, ROOT_INO);
        let (raw, done) = s.client.fetch(
            s.fabric,
            s.cluster,
            now,
            0,
            root,
            DKey::from_str("."),
            AKey::from_str("superblock"),
            ValueKind::Single,
            Epoch::LATEST,
            16,
        )?;
        let mut r = WireReader::new(raw);
        let magic = r.u64().map_err(|_| DfsError::NotFound)?;
        if magic != 0x5244_4653_0001_u64 {
            return Err(DfsError::NotFound);
        }
        let chunk_size = r.u64().map_err(|_| DfsError::NotFound)?;
        Ok((
            Dfs {
                chunk_size,
                // Mount can't know the allocator watermark; continue from a
                // high bank (each mount epoch gets its own ino range).
                next_ino: 1 << 32,
                root,
                mounted: true,
                data_pipeline: false,
                meta_ops: 1,
                data_ops: 0,
                ops: Vec::new(),
                results: Vec::new(),
            },
            done,
        ))
    }

    /// The root directory handle.
    pub fn root(&self) -> DfsObj {
        DfsObj {
            oid: self.root,
            parent: self.root,
            name: "/".into(),
            kind: FileKind::Dir,
            size: 0,
            mode: 0o755,
        }
    }

    /// The namespace chunk size.
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Whether the namespace is mounted.
    pub fn is_mounted(&self) -> bool {
        self.mounted
    }

    /// Routes single-chunk data-path I/O through the client's
    /// submission/completion ring (see the `data_pipeline` field;
    /// multi-chunk I/O rides it regardless). Metadata ops stay serial —
    /// they are ordering-sensitive and a rounding error of the data path.
    pub fn set_data_pipeline(&mut self, on: bool) {
        self.data_pipeline = on;
    }

    /// Whether single-chunk data-path ops ride the pipelined ring.
    pub fn data_pipeline(&self) -> bool {
        self.data_pipeline
    }

    fn read_entry(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        job: usize,
        dir: ObjectId,
        name: &str,
    ) -> Result<(DirEntry, SimTime), DfsError> {
        self.meta_ops += 1;
        let (raw, at) = s.client.fetch(
            s.fabric,
            s.cluster,
            now,
            job,
            dir,
            DKey::from_str(name),
            entry_akey(),
            ValueKind::Single,
            Epoch::LATEST,
            32,
        )?;
        let entry = DirEntry::decode(raw).ok_or(DfsError::NotFound)?;
        Ok((entry, at))
    }

    /// `Ok` iff `dir` has no entry `name`: [`DfsError::Exists`] if it has
    /// one, and any failure of the lookup other than
    /// [`DfsError::NotFound`] as it stands — a lookup that could not be
    /// answered says nothing about whether the name is free.
    fn ensure_absent(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        dir: ObjectId,
        name: &str,
    ) -> Result<(), DfsError> {
        match self.read_entry(s, now, 0, dir, name) {
            Ok(_) => Err(DfsError::Exists),
            Err(DfsError::NotFound) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn write_entry(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        job: usize,
        dir: ObjectId,
        name: &str,
        entry: &DirEntry,
    ) -> Result<SimTime, DfsError> {
        self.meta_ops += 1;
        Ok(s.client.update(
            s.fabric,
            s.cluster,
            now,
            job,
            dir,
            DKey::from_str(name),
            entry_akey(),
            ValueKind::Single,
            entry.encode(),
        )?)
    }

    /// Creates a directory under `parent`.
    pub fn mkdir(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        parent: &DfsObj,
        name: &str,
        mode: u32,
    ) -> Result<(DfsObj, SimTime), DfsError> {
        if parent.kind != FileKind::Dir {
            return Err(DfsError::NotADir);
        }
        self.ensure_absent(s, now, parent.oid, name)?;
        let ino = self.next_ino;
        self.next_ino += 1;
        let entry = DirEntry {
            ino,
            kind: FileKind::Dir,
            mode,
            size: 0,
        };
        let at = self.write_entry(s, now, 0, parent.oid, name, &entry)?;
        Ok((
            DfsObj {
                oid: ObjectId::new(ObjClass::S1, ino),
                parent: parent.oid,
                name: name.into(),
                kind: FileKind::Dir,
                size: 0,
                mode,
            },
            at,
        ))
    }

    /// Creates (exclusively) a regular file under `parent`.
    pub fn create(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        parent: &DfsObj,
        name: &str,
        mode: u32,
    ) -> Result<(DfsObj, SimTime), DfsError> {
        if parent.kind != FileKind::Dir {
            return Err(DfsError::NotADir);
        }
        self.ensure_absent(s, now, parent.oid, name)?;
        let ino = self.next_ino;
        self.next_ino += 1;
        let entry = DirEntry {
            ino,
            kind: FileKind::File,
            mode,
            size: 0,
        };
        let at = self.write_entry(s, now, 0, parent.oid, name, &entry)?;
        Ok((
            DfsObj {
                oid: ObjectId::new(ObjClass::Sx, ino),
                parent: parent.oid,
                name: name.into(),
                kind: FileKind::File,
                size: 0,
                mode,
            },
            at,
        ))
    }

    /// Opens an existing entry under `parent`.
    pub fn open(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        parent: &DfsObj,
        name: &str,
    ) -> Result<(DfsObj, SimTime), DfsError> {
        let (entry, at) = self.read_entry(s, now, 0, parent.oid, name)?;
        Ok((
            DfsObj {
                oid: entry.data_oid(),
                parent: parent.oid,
                name: name.into(),
                kind: entry.kind,
                size: entry.size,
                mode: entry.mode,
            },
            at,
        ))
    }

    /// Resolves an absolute `/a/b/c` path from the root.
    pub fn lookup(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        path: &str,
    ) -> Result<(DfsObj, SimTime), DfsError> {
        let mut cur = self.root();
        let mut t = now;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let (next, at) = self.open(s, t, &cur, comp)?;
            cur = next;
            t = at;
        }
        Ok((cur, t))
    }

    /// Writes `data` at `offset` in an open file, chunking across the
    /// striped data object. Returns the completion time.
    pub fn write(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        job: usize,
        file: &mut DfsObj,
        offset: u64,
        data: Bytes,
    ) -> Result<SimTime, DfsError> {
        if file.kind != FileKind::File {
            return Err(DfsError::NotAFile);
        }
        self.data_ops += 1;
        let len = data.len() as u64;
        if len == 0 {
            // POSIX `pwrite` of zero bytes: no RPC, no epoch, no extent
            // record, and the size stays as it is.
            return Ok(now);
        }
        let mut t_done = now;
        let mut pos = 0u64;
        let single_chunk = offset / self.chunk_size == (offset + len - 1) / self.chunk_size;
        if single_chunk && !self.data_pipeline {
            // The common case (FIO block sizes never exceed the chunk):
            // one serial update.
            let at = s.client.update(
                s.fabric,
                s.cluster,
                now,
                job,
                file.oid,
                DKey::from_u64(offset / self.chunk_size),
                data_akey(),
                ValueKind::Array {
                    offset: offset % self.chunk_size,
                },
                data.clone(),
            )?;
            t_done = t_done.max(at);
        } else {
            // Striped write (or any write in a pipelined world): the whole
            // stripe set goes to the op ring at depth = stripes — phases
            // overlap as resources free up, no barrier between stages.
            while pos < len {
                let abs = offset + pos;
                let chunk = abs / self.chunk_size;
                let in_chunk = abs % self.chunk_size;
                let take = (self.chunk_size - in_chunk).min(len - pos);
                self.ops.push(ClientOp::Update(UpdateOp {
                    key: chunk_key(file.oid, chunk),
                    kind: ValueKind::Array { offset: in_chunk },
                    data: data.slice(pos as usize..(pos + take) as usize),
                }));
                pos += take;
            }
            s.client.execute_into(
                s.fabric,
                s.cluster,
                now,
                job,
                &mut self.ops,
                &mut self.results,
            );
            for r in self.results.drain(..) {
                t_done = t_done.max(r.into_update()?);
            }
        }
        // Extending writes persist the new size in the parent entry.
        if offset + len > file.size {
            file.size = offset + len;
            let entry = DirEntry {
                ino: file.oid.lo,
                kind: file.kind,
                mode: file.mode,
                size: file.size,
            };
            let name = file.name.clone();
            let at = self.write_entry(s, t_done, job, file.parent, &name, &entry)?;
            t_done = t_done.max(at);
        }
        Ok(t_done)
    }

    /// Reads `len` bytes at `offset` from an open file. Short reads at EOF
    /// return the available prefix.
    pub fn read(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        job: usize,
        file: &DfsObj,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DfsError> {
        if file.kind != FileKind::File {
            return Err(DfsError::NotAFile);
        }
        self.data_ops += 1;
        let len = len.min(file.size.saturating_sub(offset));
        if len == 0 {
            return Ok((Bytes::new(), now));
        }
        // The common case — FIO block sizes never exceed the 1 MiB chunk —
        // is a read confined to one chunk: a single fetch whose payload is
        // handed back without reassembly, on either path.
        let single_chunk = offset / self.chunk_size == (offset + len - 1) / self.chunk_size;
        if single_chunk && !self.data_pipeline {
            return Ok(s.client.fetch(
                s.fabric,
                s.cluster,
                now,
                job,
                file.oid,
                DKey::from_u64(offset / self.chunk_size),
                data_akey(),
                ValueKind::Array {
                    offset: offset % self.chunk_size,
                },
                Epoch::LATEST,
                len,
            )?);
        }
        // Striped read (or any read in a pipelined world): the stripe set
        // goes to the op ring, stitched back in offset order.
        let mut pos = 0u64;
        while pos < len {
            let abs = offset + pos;
            let chunk = abs / self.chunk_size;
            let in_chunk = abs % self.chunk_size;
            let take = (self.chunk_size - in_chunk).min(len - pos);
            self.ops.push(ClientOp::Fetch(FetchOp {
                key: chunk_key(file.oid, chunk),
                kind: ValueKind::Array { offset: in_chunk },
                epoch: Epoch::LATEST,
                len: take,
            }));
            pos += take;
        }
        s.client.execute_into(
            s.fabric,
            s.cluster,
            now,
            job,
            &mut self.ops,
            &mut self.results,
        );
        if single_chunk {
            let r = self.results.pop().expect("one result per op");
            return Ok(r.into_fetch()?);
        }
        let mut out = bytes::BytesMut::with_capacity(len as usize);
        let mut t_done = now;
        for r in self.results.drain(..) {
            let (piece, at) = r.into_fetch()?;
            out.extend_from_slice(&piece);
            t_done = t_done.max(at);
        }
        Ok((out.freeze(), t_done))
    }

    /// Lists the names in a directory.
    pub fn readdir(
        &mut self,
        s: &mut DfsSession<'_>,
        _now: SimTime,
        dir: &DfsObj,
    ) -> Result<Vec<String>, DfsError> {
        if dir.kind != FileKind::Dir {
            return Err(DfsError::NotADir);
        }
        self.meta_ops += 1;
        let mut names: Vec<String> = s
            .cluster
            .list_dkeys(dir.oid)
            .into_iter()
            .filter_map(|d| String::from_utf8(d.as_bytes().to_vec()).ok())
            .filter(|n| n != ".")
            .collect();
        names.sort();
        Ok(names)
    }

    /// Stats an entry under `parent`.
    pub fn stat(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        parent: &DfsObj,
        name: &str,
    ) -> Result<(FileStat, SimTime), DfsError> {
        let (entry, at) = self.read_entry(s, now, 0, parent.oid, name)?;
        Ok((
            FileStat {
                ino: entry.ino,
                kind: entry.kind,
                mode: entry.mode,
                size: entry.size,
            },
            at,
        ))
    }

    /// Removes a file or empty directory from `parent`.
    pub fn unlink(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        parent: &DfsObj,
        name: &str,
    ) -> Result<SimTime, DfsError> {
        let (entry, at) = self.read_entry(s, now, 0, parent.oid, name)?;
        if entry.kind == FileKind::Dir {
            let dir_oid = ObjectId::new(ObjClass::S1, entry.ino);
            if !s.cluster.list_dkeys(dir_oid).is_empty() {
                return Err(DfsError::NotEmpty);
            }
        }
        self.meta_ops += 1;
        // Drop the data object, then the entry.
        s.cluster.punch_object(entry.data_oid());
        s.cluster.punch(&entry_key(parent.oid, name))?;
        Ok(at)
    }

    /// Renames `name` in `parent` to `new_name` in `new_parent` (entry
    /// move; the data object is untouched). A rename onto itself changes
    /// nothing; one over an existing name drops the displaced entry's
    /// data object, as [`Self::unlink`] would.
    pub fn rename(
        &mut self,
        s: &mut DfsSession<'_>,
        now: SimTime,
        parent: &DfsObj,
        name: &str,
        new_parent: &DfsObj,
        new_name: &str,
    ) -> Result<SimTime, DfsError> {
        let (entry, at) = self.read_entry(s, now, 0, parent.oid, name)?;
        if parent.oid == new_parent.oid && name == new_name {
            return Ok(at);
        }
        let (displaced, at) = match self.read_entry(s, at, 0, new_parent.oid, new_name) {
            Ok((old, at)) => (Some(old), at),
            Err(DfsError::NotFound) => (None, at),
            Err(e) => return Err(e),
        };
        let at = self.write_entry(s, at, 0, new_parent.oid, new_name, &entry)?;
        s.cluster.punch(&entry_key(parent.oid, name))?;
        if let Some(old) = displaced {
            s.cluster.punch_object(old.data_oid());
        }
        Ok(at)
    }
}
