//! Connection-pool properties: random interleavings of {client choice,
//! update, session kill, engine kill} against a multi-client cluster
//! whose engine-side pool holds only two resident sessions. Invariants
//! on every schedule:
//!
//! 1. **Eviction and session kills never lose acked data** — a pool slot
//!    holds *session* state only; every acked update reads back
//!    byte-correct at the end, through whatever handshakes the pool
//!    charges on the way back in.
//! 2. **Resident state stays bounded** — the pool's high-water mark
//!    never exceeds its capacity, and its counters stay consistent
//!    (admits = hits + misses, reconnects ≤ misses).
//! 3. **Replay is bit-identical** — the same schedule yields the same
//!    ack instants and the same pool counters run-to-run.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::{
    AKey, ConnPool, ConnectSpec, DKey, DaosClient, DaosCostModel, DaosEngine, EngineCluster, Epoch,
    ObjClass, ObjectClient, ObjectId, ValueKind,
};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimTime};
use ros2_spdk::BdevLayer;
use ros2_verbs::{Expiry, MemoryDomain, NodeId};

const ENGINES: usize = 3;
const RF: usize = 2;
const POOL_CAPACITY: usize = 2;
const HOT: u64 = 5;

fn engine() -> DaosEngine {
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        2,
        DataMode::Stored,
    ));
    let mut e = DaosEngine::new(
        "pool0",
        bdevs,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    e.cont_create("cont0").unwrap();
    e
}

fn node(name: &str) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        cpu: CpuComplement {
            class: CoreClass::HostX86,
            cores: 48,
        },
        nic: NicModel::connectx6(),
        port_rate: gbps(100),
        mem_budget: 8 << 30,
        dpu_tcp_rx: None,
    }
}

/// `n_clients` client nodes ahead of three storage nodes, RF 2, pool
/// capacity 2 — every third admission thrashes by construction.
fn world(n_clients: usize) -> (Fabric, EngineCluster, Vec<DaosClient>) {
    let mut specs: Vec<NodeSpec> = (0..n_clients)
        .map(|c| node(&format!("client{c}")))
        .collect();
    let mut servers = Vec::new();
    for i in 0..ENGINES {
        specs.push(node(&format!("storage{i}")));
        servers.push(NodeId((n_clients + i) as u32));
    }
    let mut fabric = Fabric::new(Transport::Rdma, specs, 23);
    let mut cluster = EngineCluster::new(
        (0..ENGINES).map(|_| engine()).collect(),
        servers.clone(),
        RF,
    );
    let clients = (0..n_clients)
        .map(|c| {
            DaosClient::connect_scoped_multi(
                &mut fabric,
                &ConnectSpec {
                    node: NodeId(c as u32),
                    servers: servers.to_vec(),
                    cont: "cont0".into(),
                    jobs: 1,
                    buf_len: 4 << 20,
                    domain: MemoryDomain::HostDram,
                    model: DaosCostModel::default_model(),
                },
                "tenant",
                Expiry::Never,
            )
            .unwrap()
        })
        .collect();
    cluster.enable_conn_pool(POOL_CAPACITY, ConnPool::DEFAULT_HANDSHAKE);
    (fabric, cluster, clients)
}

/// One step of a schedule: which client acts, and what it does.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// The client writes the next payload (through pool admission).
    Update(usize),
    /// The engine side drops the client's resident session outright.
    KillSession(usize),
}

#[derive(Clone, Debug)]
struct Schedule {
    n_clients: usize,
    steps: Vec<Step>,
    /// Kill storage slot 1 before this step index (none if past the end).
    kill_engine_at: usize,
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (
        2usize..7,
        0usize..64,
        prop::collection::vec((0usize..6, 0u8..8), 10..40),
    )
        .prop_map(|(n_clients, kill_engine_at, raw)| Schedule {
            n_clients,
            steps: raw
                .into_iter()
                .map(|(c, a)| {
                    let c = c % n_clients;
                    if a == 7 {
                        Step::KillSession(c)
                    } else {
                        Step::Update(c)
                    }
                })
                .collect(),
            kill_engine_at,
        })
}

type Acked = (usize, usize, SimTime);

/// Runs one schedule; checks invariants 1 and 2 inline and returns what
/// the replay assertion compares.
fn run(sched: &Schedule) -> (Vec<Acked>, ros2_daos::ConnPoolStats) {
    let (mut f, mut cl, mut clients) = world(sched.n_clients);
    let oid = ObjectId::new(ObjClass::Sx, HOT);
    let mut t = SimTime::ZERO;
    let mut acked: Vec<Acked> = Vec::new();

    for (i, &step) in sched.steps.iter().enumerate() {
        if i == sched.kill_engine_at {
            cl.kill_engine(1).unwrap();
            let snap = cl.map().clone();
            for client in clients.iter_mut() {
                client.deliver_map(t, snap.clone());
            }
            t += SimDuration::from_micros(10);
        }
        match step {
            Step::Update(c) => {
                let start = cl.pool_admit(NodeId(c as u32), t);
                let at = clients[c]
                    .update(
                        &mut f,
                        &mut cl,
                        start,
                        0,
                        oid,
                        DKey::from_u64(1000 + i as u64),
                        AKey::from_str("data"),
                        ValueKind::Array { offset: 0 },
                        Bytes::from(vec![(i % 250) as u8 + 1; 8 << 10]),
                    )
                    .unwrap_or_else(|e| panic!("step {i} (client {c}) failed: {e:?}"));
                assert!(at >= start, "completion precedes pool admission");
                acked.push((i, c, at));
                t = at;
            }
            Step::KillSession(c) => {
                cl.pool_kill_session(NodeId(c as u32));
            }
        }
    }

    // Invariant 2: bounded resident state, consistent counters.
    let stats = cl.conn_pool_stats();
    assert!(
        stats.resident_peak <= POOL_CAPACITY as u64,
        "pool overflowed its capacity: {stats:?}"
    );
    assert_eq!(stats.admits, stats.hits + stats.misses, "{stats:?}");
    assert!(stats.reconnects <= stats.misses, "{stats:?}");

    // Invariant 1: every acked update reads back byte-correct — through
    // fresh pool admissions, after every eviction, session kill, and the
    // engine kill the schedule threw at it.
    let read_at = t + SimDuration::from_secs(1);
    for &(i, c, _) in &acked {
        let start = cl.pool_admit(NodeId(c as u32), read_at);
        let (b, _) = clients[c]
            .fetch(
                &mut f,
                &mut cl,
                start,
                0,
                oid,
                DKey::from_u64(1000 + i as u64),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                8 << 10,
            )
            .unwrap_or_else(|e| panic!("acked update {i} (client {c}) lost: {e:?}"));
        assert!(
            b.iter().all(|&x| x == (i % 250) as u8 + 1),
            "acked update {i} read back corrupt"
        );
    }
    (acked, cl.conn_pool_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Invariant 3 (with 1 and 2 checked inside `run`): schedules replay
    // bit-identically, pool counters included.
    #[test]
    fn pool_schedules_replay_bit_identically(sched in schedules()) {
        prop_assert_eq!(run(&sched), run(&sched));
    }
}
