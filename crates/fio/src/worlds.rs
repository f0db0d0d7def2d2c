//! The three systems under test, one per paper experiment family:
//!
//! * [`LocalFioWorld`] — FIO + io_uring + local NVMe (Fig. 3);
//! * [`SpdkFioWorld`] — FIO + SPDK NVMe-oF over TCP/RDMA (Fig. 4);
//! * [`DfsFioWorld`] — FIO + DFS + DAOS, one client on host or DPU in
//!   front of one or more engines (Fig. 5 and the scale-out, chaos and
//!   recovery figures).
//!
//! Each world assembles the testbed from `ros2-hw` platform models,
//! preconditions its working set, resets clocks, and implements
//! [`Workload`] for the closed-loop driver. The DFS worlds (this one and
//! [`crate::IncastFioWorld`]) are assembled by [`crate::WorldSpec`] and
//! share one preconditioning loop (`precondition`).

use bytes::Bytes;
use ros2_core::{FaultCursor, FaultPlan};
use ros2_daos::{
    DaosClient, DaosError, EngineCluster, MapSnapshot, ObjectClient, RetryPolicy, RetryStats,
};
use ros2_dfs::{Dfs, DfsObj, DfsSession};
use ros2_dpu::{DpuCacheStats, DpuClient, DpuStats};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{
    gbps, CoreClass, CpuComplement, HostPathModel, NicModel, NvmeModel, Transport, LBA_SIZE,
};
use ros2_iouring::{IoRequest, IoUringEngine};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{ResourceStats, SimTime};
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
        let client = NodeSpec {
            name: "client".into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: client_cores,
            },
            nic: NicModel::connectx6(),
            port_rate: gbps(100),
            mem_budget: 16 << 30,
            dpu_tcp_rx: None,
        };
        let server = NodeSpec {
            name: "storage".into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: server_cores,
            },
            nic: NicModel::connectx6(),
            port_rate: gbps(100),
            mem_budget: 16 << 30,
            dpu_tcp_rx: None,
        };
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

/// The client stack a [`DfsFioWorld`] drives.
///
/// `Classic` is the pre-offload path: one in-process [`DaosClient`] on the
/// client node (host placement, and the historical DPU *cost-model* mode
/// where only the node spec changes) — its behaviour is pinned bit-for-bit
/// by `worlds_tests::host_placement_results_are_pinned`. `Offloaded` is the
/// real SmartNIC architecture: a [`DpuClient`] running the whole client on
/// the DPU behind two posted host doorbell legs, with tenant QoS admission live.
// One client per world, never stored in bulk — the variant size gap
// (DpuClient embeds agent + tenant manager) costs nothing here.
#[allow(clippy::large_enum_variant)]
pub enum FioClient {
    /// In-process `libdaos` on the client node.
    Classic(DaosClient),
    /// The DPU-offloaded client (host only rings doorbells).
    Offloaded(DpuClient),
}

impl FioClient {
    /// The client as the object-I/O interface DFS drives.
    pub fn as_object(&mut self) -> &mut dyn ObjectClient {
        match self {
            FioClient::Classic(c) => c,
            FioClient::Offloaded(c) => c,
        }
    }

    /// Aggregate booking / fast-path counters over the client cores.
    pub fn resource_stats(&self) -> ResourceStats {
        match self {
            FioClient::Classic(c) => c.resource_stats(),
            FioClient::Offloaded(c) => c.resource_stats(),
        }
    }

    /// Resets per-job core timing (and, offloaded, QoS buckets) to t=0.
    pub fn reset_timing(&mut self) {
        match self {
            FioClient::Classic(c) => c.reset_timing(),
            FioClient::Offloaded(c) => c.reset_timing(),
        }
    }

    /// Data-plane operations issued.
    pub fn ops(&self) -> u64 {
        match self {
            FioClient::Classic(c) => ObjectClient::ops(c),
            FioClient::Offloaded(c) => ObjectClient::ops(c),
        }
    }

    /// Offload-path counters (zero for the classic in-process client).
    pub fn dpu_stats(&self) -> DpuStats {
        match self {
            FioClient::Classic(_) => DpuStats::default(),
            FioClient::Offloaded(c) => c.dpu_stats(),
        }
    }

    /// The offloaded client, when this world runs one.
    pub fn offloaded(&self) -> Option<&DpuClient> {
        match self {
            FioClient::Classic(_) => None,
            FioClient::Offloaded(c) => Some(c),
        }
    }

    /// Mutable access to the offloaded client (cache enable/disable
    /// between sweep cells).
    pub fn offloaded_mut(&mut self) -> Option<&mut DpuClient> {
        match self {
            FioClient::Classic(_) => None,
            FioClient::Offloaded(c) => Some(c),
        }
    }

    /// DPU read-cache counters (all zeros for classic clients or with the
    /// cache disabled).
    pub fn cache_stats(&self) -> DpuCacheStats {
        match self {
            FioClient::Classic(_) => DpuCacheStats::default(),
            FioClient::Offloaded(c) => c.cache_stats(),
        }
    }

    /// Delivers a RAS map snapshot to the client's cached map at `at`
    /// (every tenant lane, when offloaded).
    pub fn deliver_map(&mut self, at: SimTime, snap: MapSnapshot) {
        match self {
            FioClient::Classic(c) => c.deliver_map(at, snap),
            FioClient::Offloaded(c) => c.deliver_map(at, snap),
        }
    }

    /// Recovery-ladder counters (all DPU lanes merged, when offloaded).
    pub fn retry_stats(&self) -> RetryStats {
        match self {
            FioClient::Classic(c) => c.retry_stats(),
            FioClient::Offloaded(c) => c.retry_stats(),
        }
    }

    /// Sets the recovery-ladder policy on the client(s).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        match self {
            FioClient::Classic(c) => c.set_retry_policy(policy),
            FioClient::Offloaded(c) => c.set_retry_policy(policy),
        }
    }

    /// Earliest instant an op completed on a retry attempt.
    pub fn first_successful_retry(&self) -> Option<SimTime> {
        match self {
            FioClient::Classic(c) => c.first_successful_retry(),
            FioClient::Offloaded(c) => c.first_successful_retry(),
        }
    }
}

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
    pub client: FioClient,
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
    clients: &mut [FioClient],
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
    for client in clients {
        client.reset_timing();
    }
    (dfs, files)
}

impl DfsFioWorld {
    /// Resets fabric, cluster, and client timing to t=0 (contents kept) —
    /// between measured phases of a failure scenario.
    pub fn reset_timing(&mut self) {
        self.fabric.reset_timing();
        self.cluster.reset_timing();
        self.client.reset_timing();
    }

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

    /// Kills engine `slot` (pool-map revision bump; subsequent fetches of
    /// affected objects are served degraded). Returns the new revision.
    /// The new map is handed to the client as an already-landed delivery
    /// (applied at its next map poll) — use a fault plan's scheduled
    /// kills to model delayed RAS propagation.
    pub fn kill_engine(&mut self, slot: usize) -> Result<u64, DaosError> {
        let version = self.cluster.kill_engine(slot)?;
        let snap = self.cluster.snapshot_map();
        self.client.deliver_map(SimTime::ZERO, snap);
        Ok(version)
    }

    /// Runs the online rebuild at `now`; returns its completion instant.
    /// Rebuild completion is itself a map event (the revision bumps as
    /// the pre-kill-survivor routing override ends), so the new map is
    /// delivered to the client at the completion instant plus the plan's
    /// RAS delay.
    pub fn rebuild(&mut self, now: SimTime) -> Result<SimTime, DaosError> {
        let t = self.cluster.rebuild(&mut self.fabric, now)?;
        let snap = self.cluster.snapshot_map();
        self.client
            .deliver_map(t + self.faults.plan().ras_delay, snap);
        Ok(t)
    }

    /// Fires the plan's due kills, delivering each new map `ras_delay`
    /// after `now`, and its due bit-rot.
    fn fire_due_faults(&mut self, now: SimTime) -> Result<(), DaosError> {
        if !self.faults.pending() {
            return Ok(());
        }
        let ops = self.client.ops();
        while let Some(slot) = self.faults.due_kill(ops) {
            self.cluster.kill_engine(slot)?;
            let snap = self.cluster.snapshot_map();
            self.client
                .deliver_map(now + self.faults.plan().ras_delay, snap);
        }
        self.faults.apply_due_bitrot(&mut self.cluster, ops);
        Ok(())
    }
}

impl Workload for DfsFioWorld {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        self.fire_due_faults(now).map_err(|e| format!("{e:?}"))?;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: self.client.as_object(),
        };
        if op.write {
            let data = zeros(op.len as usize);
            self.dfs
                .write(&mut s, now, job, &mut self.files[job], op.offset, data)
                .map_err(|e| format!("{e:?}"))
        } else {
            self.dfs
                .read(&mut s, now, job, &self.files[job], op.offset, op.len)
                .map(|(_, at)| at)
                .map_err(|e| format!("{e:?}"))
        }
    }
}
