//! # ros2-dfs — the POSIX-compatible DAOS File System layer
//!
//! DFS is "a client-side library that maps a POSIX-like namespace onto
//! DAOS containers" (§3.3) — exactly what FIO's DFS engine drives in the
//! paper's end-to-end evaluation. This crate implements that mapping:
//! directories are key-value objects, files are chunked striped array
//! objects, and every call returns its virtual-time completion so the FIO
//! harness can measure it.
//!
//! A model-based property suite (`tests/posix_model.rs`) checks the
//! namespace against an in-memory reference filesystem under random
//! operation sequences.

#![warn(missing_docs)]

pub mod fs;

pub use fs::{Dfs, DfsError, DfsObj, DfsSession, FileKind, FileStat};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ros2_daos::{
        AKey, ClientOp, ClientOpResult, ConnectSpec, DKey, DaosClient, DaosCostModel, DaosError,
        EngineCluster, Epoch, ObjectClient, ObjectId, ValueKind,
    };
    use ros2_fabric::{Fabric, NodeSpec};
    use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, Transport};
    use ros2_nvme::DataMode;
    use ros2_sim::SimTime;
    use ros2_verbs::{Expiry, MemoryDomain, NodeId};

    fn world(ssds: usize) -> (Fabric, EngineCluster, DaosClient) {
        let spec = |name: &str, cores: usize| NodeSpec {
            name: name.into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores,
            },
            nic: NicModel::connectx6(),
            port_rate: gbps(100),
            mem_budget: 8 << 30,
            dpu_tcp_rx: None,
        };
        let mut fabric = Fabric::new(
            Transport::Rdma,
            vec![spec("client", 48), spec("storage", 64)],
            17,
        );
        let mut cluster = EngineCluster::assemble(
            vec![NodeId(1)],
            1,
            ssds,
            DataMode::Stored,
            256 << 20,
            DaosCostModel::default_model(),
            CoreClass::HostX86,
        );
        cluster.cont_create("posix").unwrap();
        let client = DaosClient::connect_scoped_multi(
            &mut fabric,
            &ConnectSpec {
                node: NodeId(0),
                servers: vec![NodeId(1)],
                cont: "posix".into(),
                jobs: 4,
                buf_len: 4 << 20,
                domain: MemoryDomain::HostDram,
                model: DaosCostModel::default_model(),
            },
            "tenant",
            Expiry::Never,
        )
        .unwrap();
        (fabric, cluster, client)
    }

    fn mounted(ssds: usize) -> (Fabric, EngineCluster, DaosClient, Dfs) {
        let (mut fabric, mut cluster, mut client) = world(ssds);
        let dfs = {
            let mut s = DfsSession {
                fabric: &mut fabric,
                cluster: &mut cluster,
                client: &mut client,
            };
            Dfs::format(&mut s, SimTime::ZERO, 1 << 20).unwrap().0
        };
        (fabric, cluster, client, dfs)
    }

    macro_rules! sess {
        ($f:expr, $e:expr, $c:expr) => {
            &mut DfsSession {
                fabric: &mut $f,
                cluster: &mut $e,
                client: &mut $c,
            }
        };
    }

    #[test]
    fn format_and_remount() {
        let (mut f, mut e, mut c, dfs) = mounted(1);
        assert!(dfs.is_mounted());
        assert_eq!(dfs.chunk_size(), 1 << 20);
        let (again, _) = Dfs::mount(sess!(f, e, c), SimTime::from_secs(1)).unwrap();
        assert_eq!(again.chunk_size(), 1 << 20);
    }

    #[test]
    fn create_write_read_round_trip() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let t = SimTime::ZERO;
        let (mut file, t1) = dfs
            .create(sess!(f, e, c), t, &root, "model.bin", 0o644)
            .unwrap();
        let data = Bytes::from(vec![0x42; 3 << 20]); // spans 3 chunks
        let t2 = dfs
            .write(sess!(f, e, c), t1, 0, &mut file, 0, data.clone())
            .unwrap();
        assert_eq!(file.size, 3 << 20);
        let (back, _) = dfs.read(sess!(f, e, c), t2, 0, &file, 0, 3 << 20).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unaligned_rw_across_chunk_boundaries() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let (mut file, t) = dfs
            .create(sess!(f, e, c), SimTime::ZERO, &root, "x", 0o644)
            .unwrap();
        let data: Vec<u8> = (0..3_000_000).map(|i| (i % 251) as u8).collect();
        let off = (1 << 20) - 777;
        let t = dfs
            .write(
                sess!(f, e, c),
                t,
                0,
                &mut file,
                off,
                Bytes::from(data.clone()),
            )
            .unwrap();
        let (back, _) = dfs
            .read(sess!(f, e, c), t, 0, &file, off, data.len() as u64)
            .unwrap();
        assert_eq!(&back[..], &data[..]);
        // A read overlapping the hole before `off` sees zeros then data.
        let (mix, _) = dfs.read(sess!(f, e, c), t, 0, &file, off - 10, 20).unwrap();
        assert!(mix[..10].iter().all(|&b| b == 0));
        assert_eq!(&mix[10..], &data[..10]);
    }

    #[test]
    fn reads_stop_at_eof() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let (mut file, t) = dfs
            .create(sess!(f, e, c), SimTime::ZERO, &root, "short", 0o644)
            .unwrap();
        let t = dfs
            .write(
                sess!(f, e, c),
                t,
                0,
                &mut file,
                0,
                Bytes::from_static(b"hello"),
            )
            .unwrap();
        let (back, _) = dfs.read(sess!(f, e, c), t, 0, &file, 0, 100).unwrap();
        assert_eq!(&back[..], b"hello");
        let (empty, _) = dfs.read(sess!(f, e, c), t, 0, &file, 100, 10).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn zero_length_write_issues_no_data_rpc() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let (mut file, t) = dfs
            .create(sess!(f, e, c), SimTime::ZERO, &root, "empty", 0o644)
            .unwrap();
        let ops_before = c.ops();
        let rpcs_before = e.rpcs();
        let done = dfs
            .write(sess!(f, e, c), t, 0, &mut file, 0, Bytes::new())
            .unwrap();
        assert_eq!(done, t, "no transfer, no virtual time");
        assert_eq!(c.ops(), ops_before, "no client op for an empty write");
        assert_eq!(e.rpcs(), rpcs_before, "no engine RPC for an empty write");
        assert_eq!(file.size, 0);
        // Past EOF it is still POSIX `pwrite` of zero bytes: the size stays.
        let at = dfs
            .write(sess!(f, e, c), done, 0, &mut file, 4096, Bytes::new())
            .unwrap();
        assert_eq!((file.size, at), (0, done));
        let (st, _) = dfs.stat(sess!(f, e, c), at, &root, "empty").unwrap();
        assert_eq!(st.size, 0);
    }

    #[test]
    fn namespace_tree_operations() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let t = SimTime::ZERO;
        let (dir, t) = dfs
            .mkdir(sess!(f, e, c), t, &root, "datasets", 0o755)
            .unwrap();
        let (_, t) = dfs
            .create(sess!(f, e, c), t, &dir, "shard0", 0o644)
            .unwrap();
        let (_, t) = dfs
            .create(sess!(f, e, c), t, &dir, "shard1", 0o644)
            .unwrap();
        // Duplicate create fails.
        assert_eq!(
            dfs.create(sess!(f, e, c), t, &dir, "shard0", 0o644)
                .unwrap_err(),
            DfsError::Exists
        );
        let names = dfs.readdir(sess!(f, e, c), t, &dir).unwrap();
        assert_eq!(names, vec!["shard0", "shard1"]);
        // Path lookup walks components.
        let (obj, t) = dfs.lookup(sess!(f, e, c), t, "/datasets/shard1").unwrap();
        assert_eq!(obj.kind, FileKind::File);
        // Stat sees the entry.
        let (st, t) = dfs.stat(sess!(f, e, c), t, &dir, "shard0").unwrap();
        assert_eq!(st.kind, FileKind::File);
        assert_eq!(st.size, 0);
        // Unlink a file, then the (now empty) directory fails while full.
        assert_eq!(
            dfs.unlink(sess!(f, e, c), t, &root, "datasets")
                .unwrap_err(),
            DfsError::NotEmpty
        );
        let t = dfs.unlink(sess!(f, e, c), t, &dir, "shard0").unwrap();
        let t = dfs.unlink(sess!(f, e, c), t, &dir, "shard1").unwrap();
        dfs.unlink(sess!(f, e, c), t, &root, "datasets").unwrap();
        assert_eq!(
            dfs.lookup(sess!(f, e, c), t, "/datasets").unwrap_err(),
            DfsError::NotFound
        );
    }

    #[test]
    fn rename_moves_entries() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let t = SimTime::ZERO;
        let (mut file, t) = dfs.create(sess!(f, e, c), t, &root, "tmp", 0o644).unwrap();
        let t = dfs
            .write(
                sess!(f, e, c),
                t,
                0,
                &mut file,
                0,
                Bytes::from_static(b"ckpt"),
            )
            .unwrap();
        let (dir, t) = dfs.mkdir(sess!(f, e, c), t, &root, "final", 0o755).unwrap();
        let t = dfs
            .rename(sess!(f, e, c), t, &root, "tmp", &dir, "model.ckpt")
            .unwrap();
        assert_eq!(
            dfs.lookup(sess!(f, e, c), t, "/tmp").unwrap_err(),
            DfsError::NotFound
        );
        let (moved, t) = dfs.lookup(sess!(f, e, c), t, "/final/model.ckpt").unwrap();
        let (back, _) = dfs.read(sess!(f, e, c), t, 0, &moved, 0, 4).unwrap();
        assert_eq!(&back[..], b"ckpt");
    }

    #[test]
    fn rename_onto_itself_keeps_the_file() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let (mut a, t) = dfs
            .create(sess!(f, e, c), SimTime::ZERO, &root, "a", 0o644)
            .unwrap();
        let data = Bytes::from_static(b"keep");
        let t = dfs.write(sess!(f, e, c), t, 0, &mut a, 0, data).unwrap();
        let t = dfs
            .rename(sess!(f, e, c), t, &root, "a", &root, "a")
            .unwrap();
        let (a, t) = dfs.lookup(sess!(f, e, c), t, "/a").unwrap();
        let (back, _) = dfs.read(sess!(f, e, c), t, 0, &a, 0, 4).unwrap();
        assert_eq!(&back[..], b"keep");
    }

    #[test]
    fn rename_over_a_file_drops_its_data() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let mut t = SimTime::ZERO;
        for name in ["a", "b"] {
            let (mut file, at) = dfs.create(sess!(f, e, c), t, &root, name, 0o644).unwrap();
            let data = Bytes::copy_from_slice(name.as_bytes());
            t = dfs
                .write(sess!(f, e, c), at, 0, &mut file, 0, data)
                .unwrap();
        }
        let (b, t) = dfs.lookup(sess!(f, e, c), t, "/b").unwrap();
        assert_eq!(e.list_dkeys(b.oid).len(), 1);
        let t = dfs
            .rename(sess!(f, e, c), t, &root, "a", &root, "b")
            .unwrap();
        assert!(e.list_dkeys(b.oid).is_empty(), "the displaced file leaked");
        let (moved, t) = dfs.lookup(sess!(f, e, c), t, "/b").unwrap();
        let (back, _) = dfs.read(sess!(f, e, c), t, 0, &moved, 0, 1).unwrap();
        assert_eq!(&back[..], b"a");
    }

    #[test]
    fn file_chunks_stripe_across_four_ssds() {
        let (mut f, mut e, mut c, mut dfs) = mounted(4);
        let root = dfs.root();
        let (mut file, t) = dfs
            .create(sess!(f, e, c), SimTime::ZERO, &root, "big", 0o644)
            .unwrap();
        // 16 chunks of 1 MiB.
        let t = dfs
            .write(
                sess!(f, e, c),
                t,
                0,
                &mut file,
                0,
                Bytes::from(vec![1u8; 16 << 20]),
            )
            .unwrap();
        let _ = t;
        // Every device should have received writes.
        for d in 0..4 {
            let stats = e
                .engine_mut(0)
                .bdevs_mut()
                .array()
                .device(d)
                .stats()
                .clone();
            assert!(stats.bytes_written > 0, "device {d} got no chunk writes");
        }
    }

    #[test]
    fn striped_io_is_the_same_with_and_without_the_data_pipeline() {
        // `data_pipeline` picks the path for single-chunk ops only; a
        // striped write + read rides the ring either way, interleaved here
        // with single-chunk ops that do switch paths. Bytes, the epoch
        // sequence and every record's commit epoch must not care.
        let run = |pipelined: bool| {
            let (mut f, mut e, mut c, mut dfs) = mounted(4);
            dfs.set_data_pipeline(pipelined);
            let root = dfs.root();
            let (mut file, t) = dfs
                .create(sess!(f, e, c), SimTime::ZERO, &root, "s", 0o644)
                .unwrap();
            let data: Vec<u8> = (0..3_500_000u32).map(|i| (i % 241) as u8 + 1).collect();
            let off = (1 << 20) - 4321;
            let t = dfs
                .write(
                    sess!(f, e, c),
                    t,
                    0,
                    &mut file,
                    off,
                    Bytes::from(data.clone()),
                )
                .unwrap();
            let t = dfs
                .write(
                    sess!(f, e, c),
                    t,
                    1,
                    &mut file,
                    64,
                    Bytes::from_static(b"one chunk"),
                )
                .unwrap();
            let (striped, t) = dfs
                .read(sess!(f, e, c), t, 0, &file, off, data.len() as u64)
                .unwrap();
            assert_eq!(&striped[..], &data[..]);
            let (single, _) = dfs.read(sess!(f, e, c), t, 1, &file, 64, 9).unwrap();
            let epochs = e.engine(0).container_meta("posix").unwrap().epoch_counter;
            (
                striped,
                single,
                epochs,
                e.engine(0).object_fingerprint(file.oid),
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// Forwards to a `DaosClient`, except that a fetch of the single value
    /// under `dkey` — a directory entry lookup — fails with `cause`.
    /// Counts the updates it forwards.
    struct FailingLookups<'a> {
        inner: &'a mut DaosClient,
        dkey: DKey,
        cause: DaosError,
        updates: u64,
    }

    impl ObjectClient for FailingLookups<'_> {
        fn update(
            &mut self,
            fabric: &mut Fabric,
            cluster: &mut EngineCluster,
            now: SimTime,
            job: usize,
            oid: ObjectId,
            dkey: DKey,
            akey: AKey,
            kind: ValueKind,
            data: Bytes,
        ) -> Result<SimTime, DaosError> {
            self.updates += 1;
            let inner = &mut *self.inner;
            inner.update(fabric, cluster, now, job, oid, dkey, akey, kind, data)
        }

        fn fetch(
            &mut self,
            fabric: &mut Fabric,
            cluster: &mut EngineCluster,
            now: SimTime,
            job: usize,
            oid: ObjectId,
            dkey: DKey,
            akey: AKey,
            kind: ValueKind,
            epoch: Epoch,
            len: u64,
        ) -> Result<(Bytes, SimTime), DaosError> {
            if kind == ValueKind::Single && dkey == self.dkey {
                return Err(self.cause);
            }
            let inner = &mut *self.inner;
            inner.fetch(fabric, cluster, now, job, oid, dkey, akey, kind, epoch, len)
        }

        fn execute_pipelined(
            &mut self,
            fabric: &mut Fabric,
            cluster: &mut EngineCluster,
            now: SimTime,
            job: usize,
            mut ops: Vec<ClientOp>,
        ) -> Vec<ClientOpResult> {
            let mut out = Vec::new();
            let inner = &mut *self.inner;
            inner.execute_into(fabric, cluster, now, job, &mut ops, &mut out);
            out
        }

        fn ops(&self) -> u64 {
            self.inner.ops()
        }
    }

    #[test]
    fn a_lookup_that_fails_is_not_an_absent_entry() {
        // Only NotFound means the name is free: any other lookup failure
        // comes back as it stands and no entry is written over it.
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let t = SimTime::ZERO;
        let cause = DaosError::ChecksumMismatch;
        let mut lookups = FailingLookups {
            inner: &mut c,
            dkey: DKey::from_str("x"),
            cause,
            updates: 0,
        };
        let s = &mut DfsSession {
            fabric: &mut f,
            cluster: &mut e,
            client: &mut lookups,
        };
        let failed = DfsError::Daos(cause);
        assert_eq!(dfs.create(s, t, &root, "x", 0o644).unwrap_err(), failed);
        assert_eq!(dfs.mkdir(s, t, &root, "x", 0o755).unwrap_err(), failed);
        assert_eq!(lookups.updates, 0, "an entry was written");
        assert_eq!(
            dfs.lookup(sess!(f, e, c), t, "/x").unwrap_err(),
            DfsError::NotFound
        );
    }

    #[test]
    fn wrong_kind_operations_rejected() {
        let (mut f, mut e, mut c, mut dfs) = mounted(1);
        let root = dfs.root();
        let t = SimTime::ZERO;
        let (dir, t) = dfs.mkdir(sess!(f, e, c), t, &root, "d", 0o755).unwrap();
        let (file, t) = dfs.create(sess!(f, e, c), t, &root, "f", 0o644).unwrap();
        assert_eq!(
            dfs.read(sess!(f, e, c), t, 0, &dir, 0, 10).unwrap_err(),
            DfsError::NotAFile
        );
        assert_eq!(
            dfs.readdir(sess!(f, e, c), t, &file).unwrap_err(),
            DfsError::NotADir
        );
        assert_eq!(
            dfs.mkdir(sess!(f, e, c), t, &file, "sub", 0o755)
                .unwrap_err(),
            DfsError::NotADir
        );
    }
}
