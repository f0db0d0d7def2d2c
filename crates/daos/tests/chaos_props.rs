//! Chaos properties: random interleavings of {kill instant, RAS delay,
//! retry budget, queue depth} against the pipelined client. Three
//! invariants must hold on every schedule:
//!
//! 1. **No acked update is ever lost** — everything the ring acked reads
//!    back byte-correct from the post-chaos cluster.
//! 2. **No op hangs past its deadline ladder** — every completion lands
//!    within the bounded worst case (budget × (deadline + refresh +
//!    backoff cap)) plus data-plane slack; exhausted budgets surface as
//!    typed errors, never as silence.
//! 3. **Replay is bit-identical** — the same schedule produces the same
//!    instants, payloads, and ladder counters run-to-run, on both the
//!    pipelined ring and the same tape issued as serial calls (the CI
//!    gate runs this suite single-threaded as its own step).

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosClient, DaosCostModel, DaosEngine, DaosError,
    EngineCluster, Epoch, ObjClass, ObjectClient, ObjectId, OpRing, RetryPolicy, RetryStats,
    ValueKind,
};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimTime};
use ros2_spdk::BdevLayer;
use ros2_verbs::{Expiry, MemoryDomain, NodeId};

mod common;
use common::serial_op;

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

fn world() -> (Fabric, EngineCluster, DaosClient) {
    let engines = 4usize;
    let mut specs = vec![node("client")];
    let mut servers = Vec::new();
    for i in 0..engines {
        specs.push(node(&format!("storage{i}")));
        servers.push(NodeId(1 + i as u32));
    }
    let mut fabric = Fabric::new(Transport::Rdma, specs, 23);
    let cluster = EngineCluster::new((0..engines).map(|_| engine()).collect(), servers.clone(), 2);
    let client = DaosClient::connect_scoped_multi(
        &mut fabric,
        NodeId(0),
        &servers,
        "tenant",
        "cont0",
        1,
        4 << 20,
        MemoryDomain::HostDram,
        DaosCostModel::default_model(),
        Expiry::Never,
    )
    .unwrap();
    (fabric, cluster, client)
}

/// One randomly drawn chaos schedule.
#[derive(Clone, Debug)]
struct Schedule {
    /// Ring depth.
    qd: usize,
    /// Kill fires after this many ring submissions (mid-flight).
    kill_at: usize,
    /// Kill the hot object's leader (true) or its second replica (false)
    /// — the two classifier arms (deadline timeout vs fence).
    kill_leader: bool,
    /// RAS delivery lag after the kill instant.
    ras_delay: SimDuration,
    /// Retry budget of the ladder.
    budget: u32,
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (2usize..33, 0usize..24, any::<bool>(), 0u64..5_000, 1u32..6).prop_map(
        |(qd, kill_at, kill_leader, delay_us, budget)| Schedule {
            qd,
            kill_at: kill_at % 24,
            kill_leader,
            ras_delay: SimDuration::from_micros(delay_us),
            budget,
        },
    )
}

const N_OPS: usize = 24;
const HOT: u64 = 5;

fn op_for(i: usize) -> ClientOp {
    let oid = ObjectId::new(ObjClass::Sx, HOT);
    if i % 3 == 2 {
        // Fetch a preamble extent.
        ClientOp::Fetch {
            oid,
            dkey: DKey::from_u64((i % 8) as u64),
            akey: AKey::from_str("data"),
            kind: ValueKind::Array { offset: 0 },
            epoch: Epoch::LATEST,
            len: 16 << 10,
        }
    } else {
        // Update a fresh extent.
        ClientOp::Update {
            oid,
            dkey: DKey::from_u64(100 + i as u64),
            akey: AKey::from_str("data"),
            kind: ValueKind::Array { offset: 0 },
            data: Bytes::from(vec![(i % 250) as u8 + 1; 12 << 10]),
        }
    }
}

type Timed = (usize, Option<Bytes>, Option<SimTime>, Option<DaosError>);

/// Runs `sched` once. Returns the per-op functional+timed outcomes, the
/// ladder counters, and the total engine fences — everything the replay
/// assertion compares — after checking the three invariants inline.
fn run(sched: &Schedule, serial_calls: bool) -> (Vec<Timed>, RetryStats, u64) {
    let (mut f, mut cl, mut c) = world();
    c.set_retry_policy(RetryPolicy {
        budget: sched.budget,
        ..RetryPolicy::default()
    });
    let oid = ObjectId::new(ObjClass::Sx, HOT);
    let mut t = SimTime::ZERO;
    for i in 0..8u64 {
        t = c
            .update(
                &mut f,
                &mut cl,
                t,
                0,
                oid,
                DKey::from_u64(i),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![i as u8 + 1; 16 << 10]),
            )
            .unwrap();
    }
    let set = cl.map().route(&oid).set;
    let victim = if sched.kill_leader {
        set.leader().unwrap()
    } else {
        set.iter().nth(1).unwrap()
    };

    let t0 = t + SimDuration::from_millis(1);
    let mut ring = OpRing::new(0, sched.qd);
    let mut serial_results = Vec::new();
    for i in 0..N_OPS {
        if i == sched.kill_at {
            cl.kill_engine(victim).unwrap();
            c.deliver_map(t0 + sched.ras_delay, cl.map().clone());
        }
        if serial_calls {
            serial_results.push(serial_op(&mut c, &mut f, &mut cl, t0, op_for(i)));
        } else {
            ring.submit(&mut c, &mut f, &mut cl, t0, op_for(i));
        }
    }
    if sched.kill_at >= N_OPS {
        cl.kill_engine(victim).unwrap();
        c.deliver_map(t0 + sched.ras_delay, cl.map().clone());
    }
    let results = match serial_calls {
        true => serial_results,
        false => ring.drain(&mut c, &mut f, &mut cl),
    };

    // Invariant 2: bounded completion. The ladder's worst case per leg is
    // (budget + 1) deadlines plus a refresh and capped backoff per rung;
    // everything else is ordinary data-plane time.
    let p = c.retry_policy();
    let ladder_worst = (p.leg_deadline + p.refresh_rtt + p.backoff_cap)
        .saturating_mul(p.budget as u64 + 1)
        + SimDuration::from_millis(50);
    let mut out = Vec::new();
    let mut acked: Vec<usize> = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        let row: Timed = match r {
            ClientOpResult::Update(Ok(at)) => {
                assert!(at < t0 + ladder_worst, "op {i} overran the ladder: {at}");
                acked.push(i);
                (i, None, Some(at), None)
            }
            ClientOpResult::Fetch(Ok((b, at))) => {
                assert!(at < t0 + ladder_worst, "op {i} overran the ladder: {at}");
                assert!(
                    b.iter().all(|&x| x == (i % 8) as u8 + 1),
                    "fetch {i} returned wrong bytes"
                );
                (i, Some(b), Some(at), None)
            }
            // A clean typed failure is allowed only as a spent budget —
            // never a hang, never a wrong answer.
            ClientOpResult::Update(Err(e @ DaosError::RetryExhausted { .. }))
            | ClientOpResult::Fetch(Err(e @ DaosError::RetryExhausted { .. })) => {
                (i, None, None, Some(e))
            }
            other => panic!("op {i} failed outside the ladder contract: {other:?}"),
        };
        out.push(row);
    }

    // Invariant 1: acked-means-durable, read back serially from whatever
    // the cluster looks like now.
    let read_at = t0 + SimDuration::from_secs(1);
    for &i in &acked {
        let (b, _) = c
            .fetch(
                &mut f,
                &mut cl,
                read_at,
                0,
                oid,
                DKey::from_u64(100 + i as u64),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                12 << 10,
            )
            .unwrap_or_else(|e| panic!("acked update {i} lost: {e:?}"));
        assert!(
            b.iter().all(|&x| x == (i % 250) as u8 + 1),
            "acked update {i} read back corrupt"
        );
    }
    (out, c.retry_stats(), cl.fences())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Invariant 3 (and 1 and 2 inside `run`): the pipelined ring and the
    // serial-call tape each replay their schedule bit-identically.
    #[test]
    fn chaos_schedules_replay_bit_identically(sched in schedules()) {
        let a = run(&sched, false);
        let b = run(&sched, false);
        prop_assert_eq!(&a, &b, "pipelined replay diverged");

        let s1 = run(&sched, true);
        let s2 = run(&sched, true);
        prop_assert_eq!(&s1, &s2, "serial-call replay diverged");
    }
}
