//! The multi-client incast world: N independent DAOS clients fanning
//! into one replicated cluster through the shared switch — the
//! deployment shape where storage-port congestion, per-client fairness,
//! and engine-side connection state become the story.
//!
//! Two mechanisms distinguish this world from the single-client
//! [`DfsFioWorld`](crate::DfsFioWorld) it shares its assembly with (one
//! fabric-and-cluster build, one client connect, one preconditioning
//! loop, one fault cursor, one `Workload::issue` body):
//!
//! * **the clients axis** — one fabric node and one client stack
//!   ([`ClientStack`]) per entry of the spec's [`Clients`](crate::Clients)
//!   axis, each running its own FIO job group (global job `j` belongs to
//!   client `j / jobs_per_client`);
//! * **the engine-side connection pool** — the cluster admits every op
//!   through an LRU pool bounding resident per-client session state at
//!   O(capacity); non-resident clients pay a handshake before the op
//!   starts (see `ros2_daos::conn_pool`).
//!
//! A kill reaches the clients through `ros2_core`'s one membership rule,
//! [`FaultCursor::push_map`]: one `MapPush` frame, encoded once, lands at
//! client `c` after `ras_delay` plus `c` per-client serialization gaps,
//! instead of N per-client `MapQuery` pulls — so the clients genuinely
//! race the new revision at different instants.

use ros2_core::{ClientStack, FaultCursor, FaultPlan};
use ros2_daos::{ConnPool, DaosError, EngineCluster, RetryStats};
use ros2_dfs::{Dfs, DfsObj};
use ros2_dpu::DpuCacheStats;
use ros2_fabric::Fabric;
use ros2_hw::ClusterTopology;
use ros2_sim::{SimTime, Timed, Visit};

use crate::driver::{FioOp, Workload};
use crate::worlds::{issue_dfs, precondition};
use crate::worldspec::WorldSpec;

/// The assembled incast testbed. Build with
/// [`WorldSpec::build_incast`]; drive with [`crate::run_fio`] over
/// `clients × jobs_per_client` total jobs.
pub struct IncastFioWorld {
    /// The data-plane fabric (clients 0..C-1, storage C..C+E-1).
    pub fabric: Fabric,
    /// The shared replicated cluster (connection pool enabled).
    pub cluster: EngineCluster,
    /// One client stack per client node.
    pub clients: Vec<ClientStack>,
    /// The shared mounted namespace.
    pub dfs: Dfs,
    /// Preconditioned files, indexed by **global** job.
    files: Vec<DfsObj>,
    faults: FaultCursor,
}

impl IncastFioWorld {
    /// Assembles the world a multi-client [`WorldSpec`] describes.
    pub(crate) fn build(spec: WorldSpec) -> Self {
        let topology = ClusterTopology {
            clients: spec.client_axis().placements().to_vec(),
            storage_nodes: spec.engines_value(),
        };
        let (mut fabric, mut cluster, storage_nodes) = spec.fabric_and_cluster(&topology);
        let jobs = spec.jobs_per_client();
        let n_clients = topology.client_count();
        // Storage ports carry the whole incast; clients only their group.
        for &node in &storage_nodes {
            fabric.set_flow_hint(node, jobs * n_clients);
        }

        let mut clients: Vec<ClientStack> = (0..n_clients)
            .map(|c| spec.connect_client(&mut fabric, c, &storage_nodes))
            .collect();
        // Client 0 formats; every client preconditions its own job files
        // (named per client so the shared namespace never collides).
        let (dfs, files) = precondition(
            &mut fabric,
            &mut cluster,
            &mut clients,
            jobs,
            spec.region_value(),
            |c, l| format!("c{c}j{l}"),
        );
        cluster.enable_conn_pool(spec.effective_pool_capacity(), ConnPool::DEFAULT_HANDSHAKE);

        IncastFioWorld {
            fabric,
            cluster,
            clients,
            dfs,
            files,
            faults: FaultCursor::default(),
        }
    }

    /// Number of client nodes.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Total FIO jobs across all clients.
    pub fn total_jobs(&self) -> usize {
        self.files.len()
    }

    /// Data-plane ops issued by each client, in node order.
    pub fn per_client_ops(&self) -> Vec<u64> {
        self.clients.iter().map(|c| c.ops()).collect()
    }

    /// Total data-plane ops across all clients.
    pub fn total_ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops()).sum()
    }

    /// Read-cache counters merged across every offloaded client (all
    /// zeros when the axis is classic or the cache is off).
    pub fn cache_stats(&self) -> DpuCacheStats {
        let mut out = DpuCacheStats::default();
        for c in &self.clients {
            out.merge(c.cache_stats());
        }
        out
    }

    /// Recovery-ladder counters merged across every client.
    pub fn retry_stats(&self) -> RetryStats {
        let mut out = RetryStats::default();
        for c in &self.clients {
            out.merge(c.retry_stats());
        }
        out
    }

    /// Routes data I/O through every client's submission/completion ring
    /// (`iodepth > 1`); the pipelined path carries the stale-map retry
    /// ladder, so kill cells must run pipelined.
    pub fn set_pipelined(&mut self, on: bool) {
        self.dfs.set_data_pipeline(on);
    }

    /// Installs a chaos schedule (kills and bit-rot armed against the
    /// **total** client-op counter; black holes and stalls apply
    /// immediately).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultCursor::install(plan, &mut self.cluster);
    }

    /// Kills engine `slot` at `now` and pushes the new map to every
    /// client through [`FaultCursor::push_map`], `ras_delay` later.
    pub fn kill_engine(&mut self, now: SimTime, slot: usize) -> Result<u64, DaosError> {
        let version = self.cluster.kill_engine(slot)?;
        self.faults.push_map(&self.cluster, now, &mut self.clients);
        Ok(version)
    }

    /// The preconditioned file handle for a **global** job index.
    pub fn file(&self, job: usize) -> &DfsObj {
        &self.files[job]
    }
}

impl Timed for IncastFioWorld {
    /// Fabric, cluster and every client stack.
    fn visit(&mut self, v: &mut dyn Visit) {
        self.fabric.visit(v);
        self.cluster.visit(v);
        self.clients.visit(v);
    }
}

impl Workload for IncastFioWorld {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        issue_dfs!(self, &mut self.clients, now, job, op)
    }
}
