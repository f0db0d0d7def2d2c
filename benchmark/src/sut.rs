//! The system under test. This is the only file of the benchmark that names
//! a type of the program: world construction, the `issue` call, the
//! `ObjectClient` interposer of the traced run, the stats accessors and
//! their metric names, and the isolated layer probes. A later API change
//! meets the benchmark here and nowhere else.

use std::time::{Duration, Instant};

use bytes::Bytes;
use ros2_buf::{DataPlaneStats, ExtentStore};
use ros2_core::FaultPlan;
use ros2_ctl::ControlRequest;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosCostModel, DaosEngine, DaosError, EngineCluster,
    Epoch, ObjClass, ObjectClient, ObjectId, ValueKind,
};
use ros2_dfs::{Dfs, DfsObj, DfsSession};
use ros2_dpu::{CacheKey, DpuTenantSpec, ReadCache};
use ros2_fabric::{Dir, Fabric, NodeSpec};
use ros2_fio::{
    run_fio, Clients, DfsFioWorld, FioClient, FioOp, IncastFioWorld, JobSpec, RwMode, Workload,
    WorldSpec,
};
use ros2_hw::{ClientPlacement, CoreClass, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{EventQueue, ResourceStats, ServerPool, SimDuration, SimRng, SimTime};
use ros2_spdk::BdevLayer;
use ros2_verbs::{AccessFlags, Expiry, MemoryDomain, NodeId, QpId, QpType, RdmaDevice};

use crate::report::Metric;
use crate::stats::{median, OpRecord, FAILED};
use crate::tape::Tape;
use crate::trace::Span;
use crate::workloads::{ClientSide, Shape, Wire};

/// Counts every heap allocation of the process, so `host_allocs_per_op`
/// is a delta of [`ros2_buf::allocation_count`] around the driver loop.
#[global_allocator]
static ALLOC: ros2_buf::CountingAlloc = ros2_buf::CountingAlloc;

enum World {
    Single(Box<DfsFioWorld>),
    Incast(Box<IncastFioWorld>),
}

/// One freshly built and preconditioned world.
pub struct Sut {
    world: World,
    /// The job files' handles (copies of the world's own, which are
    /// private): the traced `issue` body and the read-back use them.
    files: Vec<DfsObj>,
    jobs_per_client: usize,
    clients: usize,
}

/// What one driven run produced.
pub struct Run {
    /// Every issued op, in issue order.
    pub log: Vec<OpRecord>,
    /// Wall time of the `run_fio` loop (ns).
    pub loop_ns: u64,
    /// Heap allocations inside the loop.
    pub allocs: u64,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<Span>,
}

/// Monotone counters read through the program's public accessors, by name.
pub type Counters = Vec<(&'static str, u64)>;

/// What the utilisation metrics are normalised by.
#[derive(Copy, Clone, Debug, Default)]
pub struct Geometry {
    /// Client nodes.
    pub client_nodes: usize,
    /// Storage nodes.
    pub storage_nodes: usize,
    /// Network-processing cores (TX + RX pools) over all client nodes.
    pub client_net_cores: usize,
}

impl Sut {
    /// Builds and preconditions the world `shape` describes, op ring on.
    pub fn build(shape: &Shape) -> Sut {
        let mode = if shape.stored {
            DataMode::Stored
        } else {
            DataMode::Null
        };
        let transport = match shape.wire {
            Wire::Rdma => Transport::Rdma,
            Wire::Tcp => Transport::Tcp,
        };
        let common = |spec: WorldSpec| {
            let spec = spec
                .transport(transport)
                .jobs(shape.jobs)
                .region(shape.region)
                .mode(mode);
            match shape.cache_bytes {
                Some(bytes) => spec.dpu_cache(bytes),
                None => spec,
            }
        };
        let world = if shape.engines == 1 && shape.clients == 1 {
            let mut w = common(match shape.client {
                ClientSide::Host => WorldSpec::single(ClientPlacement::Host),
                ClientSide::Offloaded => WorldSpec::single(ClientPlacement::Dpu)
                    .offload(vec![DpuTenantSpec::unlimited("fio")]),
            })
            .build_dfs();
            w.set_pipelined(true);
            World::Single(Box::new(w))
        } else {
            let clients = match shape.client {
                ClientSide::Host => Clients::host(shape.clients),
                ClientSide::Offloaded => Clients::offloaded(shape.clients),
            };
            let mut w = common(
                WorldSpec::cluster(shape.engines)
                    .replication(shape.replication)
                    .clients(clients)
                    .pool_capacity(shape.pool_capacity),
            )
            .build_incast();
            w.set_pipelined(true);
            if let Some(kill) = shape.kill {
                w.set_fault_plan(FaultPlan::kill_after(
                    kill.slot,
                    w.total_ops() + kill.after_ops,
                    SimDuration::from_micros(kill.ras_delay_us),
                ));
            }
            World::Incast(Box::new(w))
        };
        let files = (0..shape.total_jobs())
            .map(|j| match &world {
                World::Single(w) => w.file(j).clone(),
                World::Incast(w) => w.file(j).clone(),
            })
            .collect();
        Sut {
            world,
            files,
            jobs_per_client: shape.jobs,
            clients: shape.clients,
        }
    }

    /// Drives `tape` against the world through `run_fio`. Untraced, every
    /// op goes through the world's own `Workload::issue`; traced, host
    /// timers wrap each call and the single-client worlds run the same
    /// body with an interposed `ObjectClient`.
    pub fn run(&mut self, shape: &Shape, tape: Tape, traced: bool) -> Run {
        // Only the geometry matters: the tape replaces every op's type
        // and offset.
        let spec = JobSpec::new(RwMode::RandRead, shape.bs, shape.total_jobs())
            .iodepth(shape.iodepth)
            .region(shape.region)
            .windows(
                SimDuration::from_micros(shape.ramp_us),
                SimDuration::from_micros(shape.window_us),
            );
        // Reserved, never touched until used: no reallocation in the loop.
        let log = Vec::with_capacity(1 << 20);
        if traced {
            let mut rec = Traced {
                sut: self,
                tape,
                log,
                spans: Vec::with_capacity(1 << 21),
                t0: Instant::now(),
            };
            let (loop_ns, allocs) = timed_loop(&mut rec, &spec);
            Run {
                loop_ns,
                allocs,
                log: rec.log,
                spans: rec.spans,
            }
        } else {
            let mut rec = Plain {
                sut: self,
                tape,
                log,
            };
            let (loop_ns, allocs) = timed_loop(&mut rec, &spec);
            Run {
                loop_ns,
                allocs,
                log: rec.log,
                spans: Vec::new(),
            }
        }
    }

    /// The world's public parts, which both world types lay out alike.
    fn parts(&mut self) -> (&mut Fabric, &mut EngineCluster, &mut [FioClient], &mut Dfs) {
        match &mut self.world {
            World::Single(w) => (
                &mut w.fabric,
                &mut w.cluster,
                std::slice::from_mut(&mut w.client),
                &mut w.dfs,
            ),
            World::Incast(w) => (&mut w.fabric, &mut w.cluster, &mut w.clients, &mut w.dfs),
        }
    }

    /// Node and core counts of the world.
    pub fn geometry(&mut self) -> Geometry {
        let client_nodes = self.clients;
        let (fabric, cluster, ..) = self.parts();
        Geometry {
            client_nodes,
            storage_nodes: cluster.len(),
            client_net_cores: (0..client_nodes)
                .map(|id| {
                    let node = fabric.node(NodeId(id as u32));
                    node.tx_pool.servers() + node.rx_pool.servers()
                })
                .sum(),
        }
    }

    /// Reads every counter the per-layer metrics are built from. Take one
    /// reading before a run and one after; [`layer_metrics`] works on the
    /// difference.
    pub fn counters(&mut self) -> Counters {
        let n_clients = self.clients;
        let (fabric, cluster, clients, _) = self.parts();
        let mut c: Counters = Vec::with_capacity(64);

        let mut retry = ros2_daos::RetryStats::default();
        let mut dpu = ros2_dpu::DpuStats::default();
        let mut sim = fabric.resource_stats();
        let mut buf = fabric.data_plane_stats();
        let mut client_ops = 0;
        for cl in clients.iter() {
            client_ops += cl.ops();
            retry.merge(cl.retry_stats());
            dpu.merge(cl.dpu_stats());
            sim.merge(cl.resource_stats());
            if let Some(off) = cl.offloaded() {
                buf.merge(off.cache_data_plane_stats());
            }
        }
        sim.merge(cluster.resource_stats());
        buf.merge(cluster.data_plane_stats());

        c.push(("daos.client.ops", client_ops));
        c.push(("daos.retry.timeouts", retry.timeouts));
        c.push(("daos.retry.fenced", retry.fenced));
        c.push(("daos.retry.retries", retry.retries));
        c.push(("daos.retry.backoff_waits", retry.backoff_waits));
        c.push(("daos.retry.map_refreshes", retry.map_refreshes));
        c.push(("daos.retry.exhausted", retry.exhausted));

        let vos = cluster.vos_stats();
        c.push(("daos.engine.rpcs", cluster.rpcs()));
        c.push(("daos.engine.fences", cluster.fences()));
        c.push(("daos.vos.sv_updates", vos.sv_updates));
        c.push(("daos.vos.array_updates", vos.array_updates));
        c.push(("daos.vos.fetches", vos.fetches));
        c.push(("daos.vos.scm_records", vos.scm_records));
        c.push(("daos.vos.nvme_records", vos.nvme_records));
        c.push(("daos.vos.checksum_failures", vos.checksum_failures));
        c.push((
            "daos.cluster.degraded_reads",
            cluster.rebuild_stats().degraded_fetches,
        ));
        let pool = cluster.conn_pool_stats();
        c.push(("daos.conn_pool.admits", pool.admits));
        c.push(("daos.conn_pool.hits", pool.hits));
        c.push(("daos.conn_pool.evictions", pool.evictions));
        c.push(("daos.conn_pool.reconnects", pool.reconnects));

        c.push(("dpu.ops_offloaded", dpu.ops_offloaded));
        c.push(("dpu.host_submits", dpu.host_submits));
        c.push(("dpu.handoff_ns", dpu.handoff_wait.as_nanos()));
        c.push(("dpu.throttle_wait_ns", dpu.throttle_wait.as_nanos()));
        c.push(("dpu.crc_bytes", dpu.crc_bytes));
        c.push(("dpu.rkey_refreshes", dpu.rkey_refreshes));
        c.push(("dpu.cache.hits", dpu.cache.hits));
        c.push(("dpu.cache.misses", dpu.cache.misses));
        c.push(("dpu.cache.fills", dpu.cache.fills));
        c.push(("dpu.cache.invalidations", dpu.cache.invalidations));
        c.push(("dpu.cache.evictions", dpu.cache.evictions));

        let wire = fabric.wire_traversal_stats();
        c.push(("fabric.wire.batched", wire.batched));
        c.push(("fabric.wire.per_segment", wire.per_segment));
        // Busy time of the node pipes and the client nodes' network cores,
        // summed over the nodes of each side ([`Geometry`] normalises).
        let n_nodes = n_clients + cluster.len();
        let mut busy = [0u64; 5];
        for id in 0..n_nodes {
            let node = fabric.node(NodeId(id as u32));
            let (tx, rx) = if id < n_clients { (0, 1) } else { (2, 3) };
            busy[tx] += node.tx_pipe.busy_time().as_nanos();
            busy[rx] += node.rx_pipe.busy_time().as_nanos();
            if id < n_clients {
                busy[4] +=
                    node.tx_pool.busy_time().as_nanos() + node.rx_pool.busy_time().as_nanos();
            }
        }
        c.push(("fabric.client_tx_busy_ns", busy[0]));
        c.push(("fabric.client_rx_busy_ns", busy[1]));
        c.push(("fabric.storage_tx_busy_ns", busy[2]));
        c.push(("fabric.storage_rx_busy_ns", busy[3]));
        c.push(("fabric.client_cpu_busy_ns", busy[4]));

        let ResourceStats {
            bookings,
            fastpath_hits,
        } = sim;
        c.push(("sim.bookings", bookings));
        c.push(("sim.fastpath_hits", fastpath_hits));

        let DataPlaneStats {
            bytes_copied,
            bytes_zero_copy,
            crc_bytes_scanned,
            crc_combines,
            ..
        } = buf;
        c.push(("buf.bytes_zero_copy", bytes_zero_copy));
        c.push(("buf.bytes_copied", bytes_copied));
        c.push(("buf.crc_bytes_scanned", crc_bytes_scanned));
        c.push(("buf.crc_combines", crc_combines));

        let mut nvme = [0u64; 3];
        for slot in 0..cluster.len() {
            let s = cluster.engine_mut(slot).bdevs_mut().array().total_stats();
            nvme[0] += s.reads;
            nvme[1] += s.writes;
            nvme[2] += s.bytes_written;
        }
        c.push(("nvme.reads", nvme[0]));
        c.push(("nvme.writes", nvme[1]));
        c.push(("nvme.bytes_written", nvme[2]));
        c
    }

    /// Reads every job file back through `Dfs::read`, one chunk after the
    /// other from virtual time `at`, and requires the full preconditioned
    /// length of zeros.
    pub fn read_back(&mut self, shape: &Shape, at: u64) -> Result<(), String> {
        let chunk = 1u64 << 20;
        let mut now = SimTime::from_nanos(at);
        for job in 0..self.files.len() {
            let (c, l) = (job / self.jobs_per_client, job % self.jobs_per_client);
            let file = self.files[job].clone();
            let (fabric, cluster, clients, dfs) = self.parts();
            let mut s = DfsSession {
                fabric,
                cluster,
                client: clients[c].as_object(),
            };
            let mut off = 0;
            while off < shape.region {
                let want = chunk.min(shape.region - off);
                let got = dfs.read(&mut s, now, l, &file, off, want);
                let (data, done) =
                    got.map_err(|e| format!("read-back of job {job} at {off}: {e:?}"))?;
                now = done;
                if data.len() as u64 != want {
                    return Err(format!(
                        "read-back of job {job} at {off}: {} of {want} bytes",
                        data.len()
                    ));
                }
                if !ros2_buf::is_shared_zeros(&data) && data.iter().any(|&b| b != 0) {
                    return Err(format!("read-back of job {job} at {off}: non-zero content"));
                }
                off += want;
            }
        }
        Ok(())
    }
}

/// Runs the driver loop; returns its wall time (ns) and its allocations.
fn timed_loop(workload: &mut impl Workload, spec: &JobSpec) -> (u64, u64) {
    let allocs = ros2_buf::allocation_count();
    let start = Instant::now();
    run_fio(workload, spec);
    (
        start.elapsed().as_nanos() as u64,
        ros2_buf::allocation_count() - allocs,
    )
}

/// The tape's next op of `job` in place of the driver's (only the length
/// is kept), and the instant it is submitted: the driver's `now` (when the
/// job saw its previous completion) plus the op's think time.
fn next_op(tape: &mut Tape, now: SimTime, job: usize, driver_op: &FioOp) -> (SimTime, FioOp) {
    let t = tape.next(job);
    (
        now + SimDuration::from_nanos(t.think_ns),
        FioOp {
            write: t.write,
            offset: t.offset,
            len: driver_op.len,
        },
    )
}

fn record(log: &mut Vec<OpRecord>, write: bool, now: SimTime, r: &Result<SimTime, String>) {
    log.push(OpRecord {
        write,
        submit: now.as_nanos(),
        done: r.as_ref().map_or(FAILED, |t| t.as_nanos()),
    });
}

/// The measured wrapper: replaces the driver's op with the tape's, calls
/// the world's shipped `issue`, logs `(type, submit, completion)`. No host
/// timers per op.
struct Plain<'a> {
    sut: &'a mut Sut,
    tape: Tape,
    log: Vec<OpRecord>,
}

impl Workload for Plain<'_> {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let (now, op) = next_op(&mut self.tape, now, job, op);
        let r = match &mut self.sut.world {
            World::Single(w) => w.issue(now, job, &op),
            World::Incast(w) => w.issue(now, job, &op),
        };
        record(&mut self.log, op.write, now, &r);
        r
    }
}

/// The traced wrapper: a `fio.issue` span around every call, and on the
/// single-client worlds the `issue` body re-implemented over the world's
/// public parts with [`Spy`] between DFS and the object client. The incast
/// world fires its fault plan inside its own `issue`, so there only the
/// outer span is recorded.
struct Traced<'a> {
    sut: &'a mut Sut,
    tape: Tape,
    log: Vec<OpRecord>,
    spans: Vec<Span>,
    t0: Instant,
}

impl Workload for Traced<'_> {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let (now, op) = next_op(&mut self.tape, now, job, op);
        let seq = self.log.len() as u64;
        let host_start = self.t0.elapsed().as_nanos() as u64;
        let r = match &mut self.sut.world {
            World::Single(w) => {
                let mut spy = Spy {
                    inner: w.client.as_object(),
                    spans: &mut self.spans,
                    t0: self.t0,
                    op: seq,
                    write: op.write,
                };
                let mut s = DfsSession {
                    fabric: &mut w.fabric,
                    cluster: &mut w.cluster,
                    client: &mut spy,
                };
                let file = &mut self.sut.files[job];
                if op.write {
                    let data = ros2_buf::zero_bytes(op.len as usize);
                    w.dfs
                        .write(&mut s, now, job, file, op.offset, data)
                        .map_err(|e| format!("{e:?}"))
                } else {
                    w.dfs
                        .read(&mut s, now, job, file, op.offset, op.len)
                        .map(|(_, at)| at)
                        .map_err(|e| format!("{e:?}"))
                }
            }
            World::Incast(w) => w.issue(now, job, &op),
        };
        let host_end = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: "fio.issue",
            parent: "",
            op: seq,
            write: op.write,
            sim_start: now.as_nanos(),
            sim_end: r.as_ref().map_or(now, |t| *t).as_nanos(),
            host_start,
            host_end,
        });
        record(&mut self.log, op.write, now, &r);
        r
    }
}

/// Forwards every `ObjectClient` call and records it as a child span of
/// the current `fio.issue`.
struct Spy<'a> {
    inner: &'a mut dyn ObjectClient,
    spans: &'a mut Vec<Span>,
    t0: Instant,
    op: u64,
    write: bool,
}

impl Spy<'_> {
    fn span(&mut self, name: &'static str, now: SimTime, host_start: u64, end: SimTime) {
        self.spans.push(Span {
            name,
            parent: "fio.issue",
            op: self.op,
            write: self.write,
            sim_start: now.as_nanos(),
            sim_end: end.as_nanos(),
            host_start,
            host_end: self.t0.elapsed().as_nanos() as u64,
        });
    }
}

fn latest(now: SimTime, results: &[ClientOpResult]) -> SimTime {
    results.iter().fold(now, |acc, r| match r {
        ClientOpResult::Update(Ok(t)) | ClientOpResult::Fetch(Ok((_, t))) => acc.max(*t),
        _ => acc,
    })
}

impl ObjectClient for Spy<'_> {
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
        let h = self.t0.elapsed().as_nanos() as u64;
        let r = self
            .inner
            .update(fabric, cluster, now, job, oid, dkey, akey, kind, data);
        self.span("client.update", now, h, *r.as_ref().unwrap_or(&now));
        r
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
        let h = self.t0.elapsed().as_nanos() as u64;
        let r = self
            .inner
            .fetch(fabric, cluster, now, job, oid, dkey, akey, kind, epoch, len);
        self.span("client.fetch", now, h, r.as_ref().map_or(now, |(_, t)| *t));
        r
    }

    fn execute_batch(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        let h = self.t0.elapsed().as_nanos() as u64;
        let r = self.inner.execute_batch(fabric, cluster, now, job, ops);
        self.span("client.execute_batch", now, h, latest(now, &r));
        r
    }

    fn execute_pipelined(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        let h = self.t0.elapsed().as_nanos() as u64;
        let r = self.inner.execute_pipelined(fabric, cluster, now, job, ops);
        self.span("client.execute_pipelined", now, h, latest(now, &r));
        r
    }

    fn ops(&self) -> u64 {
        self.inner.ops()
    }
}

/// The counter called `name`.
pub fn counter(c: &Counters, name: &str) -> u64 {
    c.iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .1
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `after - before`, name by name.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| {
            assert_eq!(b.0, a.0, "counter order");
            (a.0, a.1 - b.1)
        })
        .collect()
}

/// Folds the counters of every phase of one repetition into one set.
pub fn sum(mut acc: Counters, other: &Counters) -> Counters {
    for (a, o) in acc.iter_mut().zip(other) {
        assert_eq!(a.0, o.0, "counter order");
        a.1 += o.1;
    }
    acc
}

/// The per-layer count and utilisation metrics of one repetition, from the
/// counter difference `d` over its runs: `ops` issued, `user_write_bytes`
/// written by the jobs, `elapsed_ns` of virtual time in total.
pub fn layer_metrics(
    d: &Counters,
    geo: &Geometry,
    ops: u64,
    user_write_bytes: u64,
    elapsed_ns: u64,
) -> Vec<Metric> {
    let g = |n: &str| counter(d, n) as f64;
    let count = |n: &'static str| (n, "count", g(n));
    let bytes = |n: &'static str| (n, "B", g(n));
    let share = |n: &'static str, num: f64, den: f64| (n, "ratio", ratio(num, den));
    let ops = ops as f64;
    let us_per_op = |n: &str| ratio(g(n) / 1e3, g("dpu.ops_offloaded"));
    // Mean utilisation of one pipe (or core) of each side over the
    // repetition's virtual span.
    let el = elapsed_ns as f64;
    let (cn, sn) = (el * geo.client_nodes as f64, el * geo.storage_nodes as f64);
    let traversals = g("fabric.wire.batched") + g("fabric.wire.per_segment");
    let probes = g("dpu.cache.hits") + g("dpu.cache.misses");
    let rows = vec![
        share("dfs.client_calls_per_op", g("daos.client.ops"), ops),
        count("daos.client.ops"),
        count("daos.retry.timeouts"),
        count("daos.retry.fenced"),
        count("daos.retry.retries"),
        count("daos.retry.backoff_waits"),
        count("daos.retry.map_refreshes"),
        count("daos.retry.exhausted"),
        count("daos.engine.rpcs"),
        count("daos.engine.fences"),
        count("daos.vos.sv_updates"),
        count("daos.vos.array_updates"),
        count("daos.vos.fetches"),
        count("daos.vos.scm_records"),
        count("daos.vos.nvme_records"),
        count("daos.vos.checksum_failures"),
        count("daos.cluster.degraded_reads"),
        share(
            "daos.conn_pool.hit_rate",
            g("daos.conn_pool.hits"),
            g("daos.conn_pool.admits"),
        ),
        count("daos.conn_pool.evictions"),
        count("daos.conn_pool.reconnects"),
        count("dpu.ops_offloaded"),
        count("dpu.host_submits"),
        ("dpu.handoff_us_per_op", "us", us_per_op("dpu.handoff_ns")),
        (
            "dpu.throttle_wait_us_per_op",
            "us",
            us_per_op("dpu.throttle_wait_ns"),
        ),
        bytes("dpu.crc_bytes"),
        count("dpu.rkey_refreshes"),
        share("dpu.cache.hit_rate", g("dpu.cache.hits"), probes),
        count("dpu.cache.fills"),
        count("dpu.cache.invalidations"),
        count("dpu.cache.evictions"),
        share(
            "dpu.cache.hits_per_fill",
            g("dpu.cache.hits"),
            g("dpu.cache.fills"),
        ),
        ("fabric.wire_traversals", "count", traversals),
        share(
            "fabric.wire_batched_rate",
            g("fabric.wire.batched"),
            traversals,
        ),
        share("fabric.client_tx_util", g("fabric.client_tx_busy_ns"), cn),
        share("fabric.client_rx_util", g("fabric.client_rx_busy_ns"), cn),
        share("fabric.storage_tx_util", g("fabric.storage_tx_busy_ns"), sn),
        share("fabric.storage_rx_util", g("fabric.storage_rx_busy_ns"), sn),
        share(
            "fabric.client_cpu_util",
            g("fabric.client_cpu_busy_ns"),
            el * geo.client_net_cores as f64,
        ),
        count("sim.bookings"),
        share(
            "sim.fastpath_hit_rate",
            g("sim.fastpath_hits"),
            g("sim.bookings"),
        ),
        bytes("buf.bytes_zero_copy"),
        bytes("buf.bytes_copied"),
        bytes("buf.crc_bytes_scanned"),
        count("buf.crc_combines"),
        count("nvme.reads"),
        count("nvme.writes"),
        share(
            "nvme.write_amp",
            g("nvme.bytes_written"),
            user_write_bytes as f64,
        ),
    ];
    rows.into_iter()
        .map(|(name, unit, value)| Metric { name, unit, value })
        .collect()
}

// ---------------------------------------------------------------- probes --

/// Median host nanoseconds per call of `f`, over batches of `batch` calls
/// timed until `budget` is spent or `max_batches` have run.
fn time_calls(budget: Duration, batch: u32, max_batches: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f(); // warm caches and lazy set-up
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < max_batches) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&samples)
}

fn probe_engine() -> DaosEngine {
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        1,
        DataMode::Null,
    ));
    let mut engine = DaosEngine::new(
        "probe",
        bdevs,
        2 << 30,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    engine.cont_create("posix").expect("fresh engine");
    engine
}

fn probe_fabric(
    transport: Transport,
    client: NodeSpec,
) -> (Fabric, ros2_fabric::ConnId, ros2_verbs::RKey, u64) {
    let mut f = Fabric::new(transport, vec![client, NodeSpec::storage_server()], 1);
    let pd_a = f.rdma_mut(NodeId(0)).alloc_pd("probe");
    let pd_b = f.rdma_mut(NodeId(1)).alloc_pd("probe");
    let conn = f
        .connect(NodeId(0), NodeId(1), pd_a, pd_b)
        .expect("probe connection");
    let buf = f
        .rdma_mut(NodeId(1))
        .alloc_buffer(1 << 20, MemoryDomain::HostDram)
        .expect("probe buffer");
    let (_, rkey, _) = f
        .rdma_mut(NodeId(1))
        .reg_mr(pd_b, buf, 1 << 20, AccessFlags::remote_rw(), Expiry::Never)
        .expect("probe registration");
    (f, conn, rkey, buf)
}

/// Isolated probes: host time of one call into a layer's public function,
/// on a fixture of the probe's own. They do not depend on the workload.
pub fn probes(budget: Duration) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut put = |name, unit, value| m.push(Metric { name, unit, value });
    let each = budget / 15;
    let zeros_4k = ros2_buf::zero_bytes(4096);
    let zeros_1m = ros2_buf::zero_bytes(1 << 20);

    // daos: one 4 KiB array update / fetch against a bare engine holding a
    // job file's worth of 4 KiB records (16 dkeys x 256 extents). Every
    // update adds a record, so the update probe stops at 60 000 of them,
    // about what one small-write phase leaves behind.
    {
        let oid = ObjectId::new(ObjClass::Sx, 7);
        let akey = AKey::from_str("data");
        let dkeys: Vec<DKey> = (0..16).map(DKey::from_u64).collect();
        let at = |i: u64| {
            (
                &dkeys[(i / 256 % 16) as usize],
                ValueKind::Array {
                    offset: (i % 256) * 4096,
                },
            )
        };
        let update = |engine: &mut DaosEngine, now: SimTime, i: u64| {
            let (dkey, kind) = at(i);
            engine
                .update(
                    now,
                    "posix",
                    oid,
                    dkey.clone(),
                    akey.clone(),
                    kind,
                    Epoch(i + 1),
                    zeros_4k.clone(),
                )
                .expect("probe update")
        };
        let mut engine = probe_engine();
        let (mut i, mut now) = (0u64, SimTime::ZERO);
        let v = time_calls(each, 1000, 60, || {
            now = update(&mut engine, now, i);
            i += 1;
        });
        put("daos.engine.update_4k.host_ns", "ns", v);

        let mut engine = probe_engine();
        let mut now = SimTime::ZERO;
        for i in 0..4096 {
            now = update(&mut engine, now, i);
        }
        let mut i = 0u64;
        let v = time_calls(each, 1000, 10_000, || {
            // A stride coprime to the slot count visits every extent.
            i += 1237;
            let (dkey, kind) = at(i);
            let (data, done) = engine
                .fetch(now, "posix", oid, dkey, &akey, kind, Epoch::LATEST, 4096)
                .expect("probe fetch");
            now = done;
            std::hint::black_box(data);
        });
        put("daos.engine.fetch_4k.host_ns", "ns", v);
    }

    // dpu: read-cache hit and fill of a 16 KiB chunk.
    {
        let mut cache = ReadCache::new(16 << 20);
        let oid = ObjectId::new(ObjClass::Sx, 9);
        let key = |i: u64| {
            CacheKey::new(
                oid,
                DKey::from_u64(i / 64),
                AKey::from_str("data"),
                ValueKind::Array {
                    offset: (i % 64) * 16384,
                },
                16384,
            )
        };
        let data = ros2_buf::zero_bytes(16384);
        let mut i = 0u64;
        let v = time_calls(each, 1000, 10_000, || {
            i += 1;
            cache.fill(key(i % 512), data.clone(), 1, Epoch(1));
        });
        put("dpu.cache.fill.host_ns", "ns", v);
        let keys: Vec<CacheKey> = (0..512).map(key).collect();
        let v = time_calls(each, 1000, 10_000, || {
            i += 1;
            let hit = cache.probe(&keys[(i % 512) as usize], 1, Epoch(1));
            assert!(hit.is_some(), "probe fixture is resident");
        });
        put("dpu.cache.probe_hit.host_ns", "ns", v);
    }

    // fabric: a 4 KiB two-sided send, a 1 MiB one-sided write, and a 1 MiB
    // send over TCP from a BlueField node (segment booking). Each keeps 32
    // transfers in flight, as the workloads do, so bookings interleave
    // instead of appending to an idle pipe.
    {
        const IN_FLIGHT: usize = 32;
        let (mut f, conn, rkey, addr) = probe_fabric(Transport::Rdma, NodeSpec::host_client());
        let mut slots = [SimTime::ZERO; IN_FLIGHT];
        let mut i = 0;
        let v = time_calls(each, 1000, 10_000, || {
            i = (i + 1) % IN_FLIGHT;
            slots[i] = f
                .send(slots[i], conn, Dir::AtoB, zeros_4k.clone())
                .expect("probe send")
                .at;
        });
        put("fabric.send_4k.host_ns", "ns", v);
        let v = time_calls(each, 100, 10_000, || {
            i = (i + 1) % IN_FLIGHT;
            slots[i] = f
                .rdma_write(slots[i], conn, Dir::AtoB, rkey, addr, zeros_1m.clone())
                .expect("probe rdma write")
                .at;
        });
        put("fabric.rdma_write_1m.host_ns", "ns", v);
        let (mut f, conn, ..) = probe_fabric(Transport::Tcp, NodeSpec::bluefield3());
        let mut slots = [SimTime::ZERO; IN_FLIGHT];
        let v = time_calls(each, 20, 10_000, || {
            i = (i + 1) % IN_FLIGHT;
            slots[i] = f
                .send(slots[i], conn, Dir::AtoB, zeros_1m.clone())
                .expect("probe tcp send")
                .at;
        });
        put("fabric.tcp_send_1m.host_ns", "ns", v);
    }

    // sim: one booking on an 8-server pool, and one push + pop of the
    // event queue at a depth of 64.
    {
        let mut pool = ServerPool::new(8);
        let mut t = SimTime::ZERO;
        let v = time_calls(each, 10_000, 10_000, || {
            let g = pool.submit(t, SimDuration::from_nanos(700));
            t = t.max(g.start);
        });
        put("sim.book.host_ns", "ns", v);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::new(7);
        for i in 0..64 {
            q.push(SimTime::from_nanos(rng.below(1000)), i);
        }
        let v = time_calls(each, 10_000, 10_000, || {
            let (at, e) = q.pop().expect("queue holds 64 events");
            q.push(at + SimDuration::from_nanos(1 + rng.below(1000)), e);
        });
        put("sim.event_queue.host_ns", "ns", v);
    }

    // buf: CRC32C of a non-zero 64 KiB payload (zero-pool payloads are
    // answered in closed form and would measure nothing), one CRC combine,
    // and a 4 KiB extent write / read.
    {
        let mut payload = vec![0u8; 64 << 10];
        SimRng::new(3).fill_bytes(&mut payload);
        let v = time_calls(each, 100, 10_000, || {
            std::hint::black_box(ros2_buf::crc32c(std::hint::black_box(&payload)));
        });
        put("buf.crc32c.host_ns_per_kib", "ns", v / 64.0);
        // One chunk folded into a running CRC, as a 1 MiB read does 256
        // times. Each result feeds the next call, so the branches on the
        // CRC's bits see fresh data.
        let mut acc = 0x1234_5678u32;
        let v = time_calls(each, 10_000, 10_000, || {
            acc = ros2_buf::crc32c_combine(acc, 0x9abc_def0, 4096);
        });
        std::hint::black_box(acc);
        put("buf.crc_combine_4k.host_ns", "ns", v);
        let mut store = ExtentStore::new();
        let mut i = 0u64;
        let v = time_calls(each, 1000, 10_000, || {
            i += 1;
            store.write((i % 4096) * 4096, zeros_4k.clone());
        });
        put("buf.extent_write_4k.host_ns", "ns", v);
        let v = time_calls(each, 1000, 10_000, || {
            i += 1;
            std::hint::black_box(store.read((i % 4096) * 4096, 4096));
        });
        put("buf.extent_read_4k.host_ns", "ns", v);
    }

    // ctl: encode + decode of one host→DPU submit descriptor; verbs: the
    // rkey check and copy-out of one 4 KiB remote read.
    {
        let v = time_calls(each, 1000, 10_000, || {
            let frame = ControlRequest::IoSubmit {
                ops: 1,
                bytes: 4096,
            }
            .encode();
            std::hint::black_box(ControlRequest::decode(frame).expect("own frame"));
        });
        put("ctl.wire.roundtrip.host_ns", "ns", v);
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 24, SimRng::new(3));
        let pd = dev.alloc_pd("probe");
        let buf = dev
            .alloc_buffer(1 << 20, MemoryDomain::HostDram)
            .expect("probe buffer");
        let (_, rkey, _) = dev
            .reg_mr(pd, buf, 1 << 20, AccessFlags::remote_rw(), Expiry::Never)
            .expect("probe registration");
        let qp = dev.create_qp(pd, QpType::Rc).expect("probe qp");
        dev.connect_qp(qp, NodeId(1), QpId(1))
            .expect("probe connect");
        dev.execute_remote_write(SimTime::ZERO, qp, rkey, buf, &zeros_4k)
            .expect("probe write");
        let v = time_calls(each, 1000, 10_000, || {
            std::hint::black_box(
                dev.execute_remote_read(SimTime::ZERO, qp, rkey, buf, 4096)
                    .expect("probe read"),
            );
        });
        put("verbs.remote_read_4k.host_ns", "ns", v);
    }
    m
}
