//! The three systems under test, one per paper experiment family:
//!
//! * [`LocalFioWorld`] — FIO + io_uring + local NVMe (Fig. 3);
//! * [`SpdkFioWorld`] — FIO + SPDK NVMe-oF over TCP/RDMA (Fig. 4);
//! * [`DfsFioWorld`] — FIO + DFS + DAOS, one client on host or DPU in
//!   front of one or more engines (Fig. 5 and the scale-out, chaos and
//!   recovery figures).
//!
//! Each world assembles the testbed from `ros2-hw` platform models and
//! implements [`Workload`] for the closed-loop driver. The DFS worlds (this
//! one and [`crate::IncastFioWorld`]) are assembled by [`crate::WorldSpec`]
//! through `ros2_core`'s assembly functions, drive one [`ClientStack`] per
//! client node (the enum `Ros2System` uses; `FioClient` is its name here),
//! and share one preconditioning loop (`precondition`, which ends in a
//! [`Timed::reset_timing`] of every part) and one `Workload::issue` body
//! (`issue_dfs!`). The Fig. 3 and Fig. 4 worlds never precondition.

use bytes::Bytes;
use ros2_core::{ClientStack, FaultCursor, FaultPlan};
use ros2_daos::{DaosError, EngineCluster};
use ros2_dfs::{Dfs, DfsObj, DfsSession};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{HostPathModel, NvmeModel, Transport, LBA_SIZE};
use ros2_iouring::{IoRequest, IoUringEngine};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimTime, Timed, Visit};
use ros2_spdk::{BdevLayer, NvmfSession, NvmfStack};
use ros2_verbs::NodeId;

use crate::driver::{FioOp, Workload};

/// Synthetic zero payloads come from the process-wide shared zero pool
/// (`ros2_buf::zero_bytes`): slicing is refcounted and free, and the
/// checksum paths recognize pool slices as known-zero, answering their
/// CRCs in closed form instead of scanning gigabytes of zeros.
pub(crate) fn zeros(len: usize) -> Bytes {
    ros2_buf::zero_bytes(len)
}

// ---------------------------------------------------------------- local --

/// Fig. 3's system: FIO jobs over io_uring rings onto a local NVMe array.
pub struct LocalFioWorld {
    engine: IoUringEngine,
    array: NvmeArray,
    region: u64,
}

impl LocalFioWorld {
    /// Builds the world with `ssds` drives and `jobs` rings. Jobs map to
    /// devices round-robin (`dev = job % ssds`), each with a private LBA
    /// region of `region` bytes.
    pub fn new(ssds: usize, jobs: usize, region: u64, mode: DataMode) -> Self {
        LocalFioWorld {
            engine: IoUringEngine::new(HostPathModel::iouring(), jobs, 256),
            array: NvmeArray::new(NvmeModel::enterprise_1600(), ssds, mode),
            region,
        }
    }

    /// The device array (stats inspection).
    pub fn array(&self) -> &NvmeArray {
        &self.array
    }
}

impl Workload for LocalFioWorld {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let ndev = self.array.len();
        let dev = job % ndev;
        let lane = (job / ndev) as u64;
        let base_lba = lane * (self.region / LBA_SIZE);
        let req = IoRequest {
            dev,
            write: op.write,
            slba: base_lba + op.offset / LBA_SIZE,
            nlb: (op.len / LBA_SIZE) as u32,
            data: op.write.then(|| zeros(op.len as usize)),
        };
        self.engine
            .submit(now, job, &mut self.array, req)
            .map(|c| c.at)
            .map_err(|e| format!("{e:?}"))
    }
}

// ----------------------------------------------------------------- spdk --

/// Fig. 4's system: FIO jobs over NVMe-oF sessions, one session per job,
/// with the client/server reactor core counts as sweep axes.
pub struct SpdkFioWorld {
    stack: NvmfStack,
    sessions: Vec<NvmfSession>,
    region: u64,
}

impl SpdkFioWorld {
    /// Builds the remote stack: host client and storage server through the
    /// 100 Gbps switch, one exported SSD (the paper's Fig. 4 setup).
    pub fn new(
        transport: Transport,
        client_cores: usize,
        server_cores: usize,
        jobs: usize,
        region: u64,
        mode: DataMode,
    ) -> Self {
        // The canonical §4.1 nodes; only the reactor core counts, Fig. 4's
        // axes, differ.
        let mut client = NodeSpec::host_client();
        client.cpu.cores = client_cores;
        let mut server = NodeSpec::storage_server();
        server.cpu.cores = server_cores;
        let fabric = Fabric::new(transport, vec![client, server], 0xf14);
        let bdevs = BdevLayer::new(NvmeArray::new(NvmeModel::enterprise_1600(), 1, mode));
        let mut stack = NvmfStack::new(
            fabric,
            NodeId(0),
            NodeId(1),
            client_cores,
            server_cores,
            bdevs,
        );
        let sessions = (0..jobs)
            .map(|_| stack.open_session(4 << 20).expect("session"))
            .collect();
        SpdkFioWorld {
            stack,
            sessions,
            region,
        }
    }
}

impl Workload for SpdkFioWorld {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let base_lba = job as u64 * (self.region / LBA_SIZE);
        let slba = base_lba + op.offset / LBA_SIZE;
        let session = &mut self.sessions[job];
        if op.write {
            self.stack
                .write(now, session, 0, slba, zeros(op.len as usize))
                .map_err(|e| format!("{e:?}"))
        } else {
            self.stack
                .read(now, session, 0, slba, (op.len / LBA_SIZE) as u32)
                .map(|(at, _)| at)
                .map_err(|e| format!("{e:?}"))
        }
    }
}

// ------------------------------------------------------------------ dfs --

/// Fig. 5's system and the scale-out one: FIO's DFS engine over the full
/// ROS2 stack — one DAOS client, on the host CPU or offloaded to the
/// BlueField-3, in front of E unchanged engines behind the shared switch
/// (E = 1 is the paper's two-node testbed). Built by
/// [`crate::WorldSpec::build_dfs`]; an installed [`FaultPlan`] fires
/// between its ops.
pub struct DfsFioWorld {
    /// The data-plane fabric.
    pub fabric: Fabric,
    /// The storage cluster: E engines behind the versioned pool map.
    pub cluster: EngineCluster,
    /// The client stack (in-process or DPU-offloaded).
    pub client: ClientStack,
    /// The mounted namespace.
    pub dfs: Dfs,
    pub(crate) files: Vec<DfsObj>,
    /// The installed chaos schedule (empty by default — bit-identical to
    /// a world that never heard of fault plans).
    pub(crate) faults: FaultCursor,
}

/// Formats the namespace with client 0, creates and fills `jobs` files of
/// `region` bytes per client (`name(client, local job)`), and resets every
/// clock for measurement. Returns the namespace and the files in global
/// job order.
pub(crate) fn precondition(
    fabric: &mut Fabric,
    cluster: &mut EngineCluster,
    clients: &mut [ClientStack],
    jobs: usize,
    region: u64,
    name: impl Fn(usize, usize) -> String,
) -> (Dfs, Vec<DfsObj>) {
    let chunk = 1u64 << 20;
    let (mut dfs, mut t) = {
        let mut s = DfsSession {
            fabric: &mut *fabric,
            cluster: &mut *cluster,
            client: clients[0].as_object(),
        };
        Dfs::format(&mut s, SimTime::ZERO, chunk).expect("format")
    };
    let root = dfs.root();
    let mut files = Vec::with_capacity(clients.len() * jobs);
    for (c, client) in clients.iter_mut().enumerate() {
        for l in 0..jobs {
            let mut s = DfsSession {
                fabric: &mut *fabric,
                cluster: &mut *cluster,
                client: client.as_object(),
            };
            let (mut f, t1) = dfs
                .create(&mut s, t, &root, &name(c, l), 0o644)
                .expect("create");
            t = t1;
            let mut off = 0u64;
            while off < region {
                let piece = chunk.min(region - off);
                t = dfs
                    .write(&mut s, t, l, &mut f, off, zeros(piece as usize))
                    .expect("precondition write");
                off += piece;
            }
            files.push(f);
        }
    }

    // Preconditioning consumed virtual time; measurement starts fresh.
    fabric.reset_timing();
    cluster.reset_timing();
    clients.reset_timing();
    (dfs, files)
}

impl Timed for DfsFioWorld {
    /// Fabric, cluster and client. A reset between measured phases of a
    /// failure scenario keeps contents.
    fn visit(&mut self, v: &mut dyn Visit) {
        self.fabric.visit(v);
        self.cluster.visit(v);
        self.client.visit(v);
    }
}

impl DfsFioWorld {
    /// Routes single-chunk data I/O through the client's
    /// submission/completion ring — the `iodepth > 1` configuration the
    /// `fig_qd` sweep measures. Off (the default) keeps it on the serial
    /// client call, bit-identical to the legacy sweeps. Multi-chunk I/O
    /// rides the ring either way.
    pub fn set_pipelined(&mut self, on: bool) {
        self.dfs.set_data_pipeline(on);
    }

    /// The preconditioned file handles (one per job).
    pub fn file(&self, job: usize) -> &DfsObj {
        &self.files[job]
    }

    /// Installs a chaos schedule: black holes and stalls apply
    /// immediately, kills and bit-rot arm against the client-op counter
    /// and fire between ops of the measured run, and every RAS delivery
    /// the kills trigger reaches the client `ras_delay` late.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultCursor::install(plan, &mut self.cluster);
    }

    /// Kills engine `slot` at `now` and pushes the new map to the client
    /// `ras_delay` later ([`FaultCursor::push_map`]); fetches of affected
    /// objects are then served degraded. Returns the new revision.
    pub fn kill_engine(&mut self, now: SimTime, slot: usize) -> Result<u64, DaosError> {
        let version = self.cluster.kill_engine(slot)?;
        let clients = std::slice::from_mut(&mut self.client);
        self.faults.push_map(&self.cluster, now, clients);
        Ok(version)
    }

    /// Runs the online rebuild at `now`; returns its completion instant.
    /// Rebuild completion is itself a map event (the revision bumps as
    /// the pre-kill-survivor routing override ends), so the new map is
    /// pushed to the client `ras_delay` after the completion instant.
    pub fn rebuild(&mut self, now: SimTime) -> Result<SimTime, DaosError> {
        let t = self.cluster.rebuild(&mut self.fabric, now)?;
        let clients = std::slice::from_mut(&mut self.client);
        self.faults.push_map(&self.cluster, t, clients);
        Ok(t)
    }
}

/// The DFS worlds' one [`Workload::issue`] body over `$w`'s client stacks
/// `$clients`: fires due faults, admits client `c` through the connection
/// pool (`now` when none is enabled) and runs the op as its local job `l`;
/// one client is `c = 0`, `l = job`. A macro so each world lends its
/// fields disjointly.
macro_rules! issue_dfs {
    ($w:expr, $clients:expr, $now:ident, $job:ident, $op:ident) => {{
        let clients: &mut [::ros2_core::ClientStack] = $clients;
        $w.faults
            .fire_due(&mut $w.cluster, $now, clients)
            .map_err(|e| format!("{e:?}"))?;
        let jobs_per_client = $w.files.len() / clients.len();
        let (c, l) = ($job / jobs_per_client, $job % jobs_per_client);
        let start = $w.cluster.pool_admit(::ros2_verbs::NodeId(c as u32), $now);
        let mut s = ::ros2_dfs::DfsSession {
            fabric: &mut $w.fabric,
            cluster: &mut $w.cluster,
            client: clients[c].as_object(),
        };
        if $op.write {
            let data = $crate::worlds::zeros($op.len as usize);
            $w.dfs
                .write(&mut s, start, l, &mut $w.files[$job], $op.offset, data)
                .map_err(|e| format!("{e:?}"))
        } else {
            $w.dfs
                .read(&mut s, start, l, &$w.files[$job], $op.offset, $op.len)
                .map(|(_, at)| at)
                .map_err(|e| format!("{e:?}"))
        }
    }};
}
pub(crate) use issue_dfs;

impl Workload for DfsFioWorld {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        issue_dfs!(self, std::slice::from_mut(&mut self.client), now, job, op)
    }
}
