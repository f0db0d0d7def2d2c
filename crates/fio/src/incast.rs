//! The multi-client incast world: N independent DAOS clients fanning
//! into one replicated cluster through the shared switch — the
//! deployment shape where storage-port congestion, per-client fairness,
//! and engine-side connection state become the story.
//!
//! Three mechanisms distinguish this world from the single-client
//! [`DfsFioWorld`](crate::DfsFioWorld) it shares its assembly with (one
//! fabric-and-cluster build, one client connect, one preconditioning
//! loop, one fault cursor):
//!
//! * **the clients axis** — one fabric node and one client stack
//!   ([`ClientStack`]) per entry of the spec's [`Clients`](crate::Clients)
//!   axis, each running its own FIO job group (global job `j` belongs to
//!   client `j / jobs_per_client`);
//! * **the engine-side connection pool** — the cluster admits every op
//!   through an LRU pool bounding resident per-client session state at
//!   O(capacity); non-resident clients pay a handshake before the op
//!   starts (see `ros2_daos::conn_pool`);
//! * **RAS push distribution** — a membership change is encoded **once**
//!   as a `MapPush` control frame and fanned out to every subscribed
//!   client as a delayed delivery (`ras_delay` plus a per-client
//!   serialization gap), instead of N per-client `MapQuery` pulls. Each
//!   client's cached map applies the push at its next poll, so clients
//!   genuinely race the new revision at different instants.

use ros2_core::{ClientStack, FaultCursor, FaultPlan};
use ros2_ctl::ControlRequest;
use ros2_daos::{ConnPool, DaosError, EngineCluster, MapSnapshot, RetryStats};
use ros2_dfs::{Dfs, DfsObj, DfsSession};
use ros2_dpu::DpuCacheStats;
use ros2_fabric::Fabric;
use ros2_hw::ClusterTopology;
use ros2_sim::{ResourceStats, SimDuration, SimTime};
use ros2_verbs::NodeId;

use crate::driver::{FioOp, Workload};
use crate::worlds::precondition;
use crate::worldspec::WorldSpec;

/// The assembled incast testbed. Build with
/// [`WorldSpec::build_incast`]; drive with [`crate::run_fio`] over
/// `clients × jobs_per_client` total jobs.
pub struct IncastFioWorld {
    /// The data-plane fabric (clients 0..C-1, storage C..C+E-1).
    pub fabric: Fabric,
    /// The shared replicated cluster (connection pool enabled).
    pub cluster: EngineCluster,
    /// One in-process client stack per client node.
    pub clients: Vec<ClientStack>,
    /// The shared mounted namespace.
    pub dfs: Dfs,
    /// Preconditioned files, indexed by **global** job.
    files: Vec<DfsObj>,
    /// FIO jobs per client.
    jobs_per_client: usize,
    /// Slot-aligned storage node ids (the receiver-known half of a push).
    storage_nodes: Vec<NodeId>,
    /// Pool replication factor (the other receiver-known half).
    rf: usize,
    faults: FaultCursor,
}

impl IncastFioWorld {
    /// Gap between consecutive per-client deliveries of one push fan-out:
    /// the control plane serializes the frame onto each subscriber
    /// connection.
    pub const PUSH_GAP: SimDuration = SimDuration::from_micros(1);

    /// Assembles the world a multi-client [`WorldSpec`] describes.
    pub(crate) fn build(spec: WorldSpec) -> Self {
        let topology = ClusterTopology {
            clients: spec
                .client_axis()
                .kinds()
                .iter()
                .map(|k| k.placement())
                .collect(),
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
            jobs_per_client: jobs,
            storage_nodes,
            rf: spec.replication_value(),
            faults: FaultCursor::default(),
        }
    }

    /// Number of client nodes.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Total FIO jobs across all clients.
    pub fn total_jobs(&self) -> usize {
        self.clients.len() * self.jobs_per_client
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

    /// Aggregate booking / fast-path counters over fabric, cluster, and
    /// every client stack.
    pub fn resource_stats(&self) -> ResourceStats {
        let mut stats = self.fabric.resource_stats();
        stats.merge(self.cluster.resource_stats());
        for c in &self.clients {
            stats.merge(c.resource_stats());
        }
        stats
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

    /// One RAS push fan-out: encodes the current map as a `MapPush` frame
    /// **once**, then schedules a delayed delivery to every client —
    /// client `c` receives it at `at + c × PUSH_GAP` and applies it at
    /// its next map poll. This is the control plane's push analogue of N
    /// per-client `MapQuery` round-trips.
    pub fn push_map(&mut self, at: SimTime) {
        let frame = self.cluster.ras_push().encode();
        for (c, client) in self.clients.iter_mut().enumerate() {
            let snap = match ControlRequest::decode(frame.clone()).expect("self-encoded frame") {
                ControlRequest::MapPush {
                    version,
                    healths,
                    pending_dead,
                } => MapSnapshot::from_wire(
                    &self.storage_nodes,
                    self.rf,
                    version,
                    &healths,
                    pending_dead,
                ),
                other => unreachable!("ras_push encodes MapPush, got {other:?}"),
            };
            client.deliver_map(at + Self::PUSH_GAP * c as u64, snap);
        }
    }

    /// Kills engine `slot` and fans the new map out to every client via
    /// [`Self::push_map`], `ras_delay` after `now`.
    pub fn kill_engine(&mut self, now: SimTime, slot: usize) -> Result<u64, DaosError> {
        let version = self.cluster.kill_engine(slot)?;
        self.push_map(now + self.faults.plan().ras_delay);
        Ok(version)
    }

    /// Runs the online rebuild at `now`; the completion map revision is
    /// pushed to every client `ras_delay` after the completion instant.
    pub fn rebuild(&mut self, now: SimTime) -> Result<SimTime, DaosError> {
        let t = self.cluster.rebuild(&mut self.fabric, now)?;
        self.push_map(t + self.faults.plan().ras_delay);
        Ok(t)
    }

    /// Fires the plan's kills and bit-rot whose total-op threshold has
    /// been crossed.
    fn fire_due_faults(&mut self, now: SimTime) -> Result<(), DaosError> {
        if !self.faults.pending() {
            return Ok(());
        }
        let ops = self.total_ops();
        while let Some(slot) = self.faults.due_kill(ops) {
            self.kill_engine(now, slot)?;
        }
        self.faults.apply_due_bitrot(&mut self.cluster, ops);
        Ok(())
    }

    /// The preconditioned file handle for a **global** job index.
    pub fn file(&self, job: usize) -> &DfsObj {
        &self.files[job]
    }
}

impl Workload for IncastFioWorld {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        self.fire_due_faults(now).map_err(|e| format!("{e:?}"))?;
        let c = job / self.jobs_per_client;
        let l = job % self.jobs_per_client;
        // Engine-side admission: a non-resident client re-handshakes
        // before its op starts.
        let start = self.cluster.pool_admit(NodeId(c as u32), now);
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: self.clients[c].as_object(),
        };
        if op.write {
            let data = crate::worlds::zeros(op.len as usize);
            self.dfs
                .write(&mut s, start, l, &mut self.files[job], op.offset, data)
                .map_err(|e| format!("{e:?}"))
        } else {
            self.dfs
                .read(&mut s, start, l, &self.files[job], op.offset, op.len)
                .map(|(_, at)| at)
                .map_err(|e| format!("{e:?}"))
        }
    }
}
