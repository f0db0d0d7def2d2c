//! Tenant-isolation hardening: token-bucket refill boundaries, the
//! rkey-expiry / in-flight-pull race, and a property proof that admission
//! never over-grants a tenant's `QosLimits` over *any* window.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_dpu::{DpuAgent, DpuClient, DpuTenantSpec, QosLimits, TenantManager};
use ros2_fabric::{Dir, Fabric, FabricError, NodeSpec};
use ros2_hw::{CoreClass, Transport};
use ros2_sim::{SimDuration, SimTime};
use ros2_verbs::{AccessFlags, MemoryDomain, NodeId, VerbsError};

fn dpu_world() -> Fabric {
    Fabric::new(
        Transport::Rdma,
        vec![NodeSpec::bluefield3(), NodeSpec::storage_server()],
        21,
    )
}

// ---------------------------------------------------- refill boundaries --

/// Exact boundary behaviour of the admission buckets: a drained bucket's
/// next grant lands exactly one refill quantum later; admitting at
/// precisely the refill instant is not throttled; one nanosecond earlier
/// is.
#[test]
fn token_bucket_refill_boundaries_are_exact() {
    let mut f = dpu_world();
    let mut tm = TenantManager::new(NodeId(0));
    tm.register(
        &mut f,
        "t",
        QosLimits {
            ops_per_sec: 1_000_000,
            bytes_per_sec: 1 << 30, // 1 GiB/s
            burst: (1 << 20, 1 << 20),
        },
        SimDuration::from_secs(5),
    );
    // Drain the 1 MiB byte burst at t=0.
    assert_eq!(tm.admit(SimTime::ZERO, "t", 1 << 20), Some(SimTime::ZERO));
    // The next 1 MiB needs exactly 1 MiB / 1 GiB/s ≈ 976_562.5 µs-worth of
    // refill; integer token-nanos round the deficit up by ≤ 1 ns.
    let expected = SimTime::from_nanos((1u64 << 20) * 1_000_000_000 / (1 << 30));
    let g = tm.admit(SimTime::ZERO, "t", 1 << 20).unwrap();
    assert!(
        g >= expected && g <= expected + SimDuration::from_nanos(1),
        "grant {g} vs exact refill boundary {expected}"
    );
    // At the grant instant the bucket is empty again: an admit exactly
    // there queues a further full quantum, never a partial one.
    let g2 = tm.admit(g, "t", 1 << 20).unwrap();
    assert!(
        g2.saturating_since(g) >= SimDuration::from_nanos(976_562),
        "second grant {g2} must wait a full quantum after {g}"
    );
    let ctx = tm.tenant("t").unwrap();
    assert_eq!(ctx.qos.admitted, (3, 3 << 20));
    assert_eq!(ctx.qos.throttled, 2);
}

/// The ops bucket binds independently of the bytes bucket: tiny ops at a
/// high byte allowance still pace at ops_per_sec.
#[test]
fn ops_bucket_binds_for_tiny_ops() {
    let mut f = dpu_world();
    let mut tm = TenantManager::new(NodeId(0));
    tm.register(
        &mut f,
        "meta",
        QosLimits {
            ops_per_sec: 1000,
            bytes_per_sec: u64::MAX / 2,
            burst: (1, 1 << 30),
        },
        SimDuration::from_secs(5),
    );
    let mut last = SimTime::ZERO;
    for i in 0..5u64 {
        let g = tm.admit(SimTime::ZERO, "meta", 16).unwrap();
        if i > 0 {
            assert_eq!(
                g.saturating_since(last),
                SimDuration::from_millis(1),
                "op {i} must wait exactly one 1 ms ops quantum"
            );
        }
        last = g;
    }
}

// ---------------------------------------------- rkey expiry vs. pulls ----

/// The race the scoped-rkey design must survive: a pull that *lands* after
/// the rkey's expiry fails at the NIC even though it was posted while the
/// key was valid — and the violation is visible in the NIC counters.
#[test]
fn rkey_expiry_races_an_in_flight_pull() {
    let mut f = dpu_world();
    let mut tm = TenantManager::new(NodeId(0));
    let pd = tm.register(
        &mut f,
        "t",
        QosLimits::unlimited(),
        SimDuration::from_micros(50),
    );
    let buf = f
        .rdma_mut(NodeId(0))
        .alloc_buffer(1 << 20, MemoryDomain::DpuDram)
        .unwrap();
    let expiry = tm.rkey_expiry(SimTime::ZERO, "t").unwrap();
    let (_, rkey, _) = f
        .rdma_mut(NodeId(0))
        .reg_mr(pd, buf, 1 << 20, AccessFlags::remote_rw(), expiry)
        .unwrap();
    f.rdma_mut(NodeId(0))
        .write_local(buf, &[7u8; 1 << 20])
        .unwrap();
    let pd_srv = f.rdma_mut(NodeId(1)).alloc_pd("engine:t");
    let conn = f.connect(NodeId(0), NodeId(1), pd, pd_srv).unwrap();

    // A pull issued immediately reaches the NIC before the 50 µs expiry.
    let ok = f.rdma_read(SimTime::ZERO, conn, Dir::BtoA, rkey, buf, 4096);
    assert!(ok.is_ok(), "pull well inside the scope must succeed");

    // A pull *posted* while the rkey is still valid (48 µs) whose request
    // capsule reaches the NIC after expiry (~52 µs: initiator CPU +
    // serialized stage + wire + path): the NIC validates at access time,
    // so the in-flight op dies even though posting succeeded.
    let posted = SimTime::from_micros(48);
    let err = f
        .rdma_read(posted, conn, Dir::BtoA, rkey, buf, 1 << 20)
        .unwrap_err();
    assert_eq!(err, FabricError::Verbs(VerbsError::RkeyExpired));
    assert_eq!(f.node(NodeId(0)).rdma.violations().expired_rkey, 1);
}

/// The offloaded client closes that race by refreshing inside the margin:
/// the same short scope, driven through `DpuClient`, never trips the NIC.
#[test]
fn dpu_client_refresh_outruns_the_race() {
    use ros2_daos::{
        AKey, ConnectSpec, DKey, DaosCostModel, DaosEngine, EngineCluster, ObjClass, ObjectClient,
        ObjectId, ValueKind,
    };
    use ros2_nvme::{DataMode, NvmeArray};
    use ros2_spdk::BdevLayer;
    let mut fabric = dpu_world();
    let bdevs = BdevLayer::new(NvmeArray::new(
        ros2_hw::NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ));
    let mut engine = DaosEngine::new(
        "pool0",
        bdevs,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    engine.cont_create("c").unwrap();
    let mut cluster = EngineCluster::single(engine);
    let agent = DpuAgent::new(NodeId(0), 30 << 30, ros2_dpu::default_control(3));
    let mut client = DpuClient::connect_cluster(
        &mut fabric,
        ConnectSpec {
            node: NodeId(0),
            servers: vec![NodeId(1)],
            cont: "c".into(),
            jobs: 1,
            buf_len: 4 << 20,
            domain: MemoryDomain::DpuDram,
            model: DaosCostModel::default_model(),
        },
        agent,
        vec![DpuTenantSpec {
            name: "t".into(),
            qos: QosLimits::unlimited(),
            rkey_scope: SimDuration::from_millis(60),
        }],
        7,
    )
    .unwrap();
    let oid = ObjectId::new(ObjClass::Sx, 1);
    let mut t = SimTime::ZERO;
    for i in 0..20u64 {
        t = client
            .update(
                &mut fabric,
                &mut cluster,
                t.max(SimTime::from_millis(i * 20)),
                0,
                oid,
                DKey::from_u64(i),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![9u8; 256 << 10]),
            )
            .unwrap();
    }
    assert!(client.dpu_stats().rkey_refreshes > 0);
    assert_eq!(
        fabric.node(NodeId(0)).rdma.violations().total(),
        0,
        "refresh must always beat expiry"
    );
}

// ------------------------------------------- QD > 1 lane interleaving ----

/// An offloaded world for driving `execute_pipelined` directly: one
/// engine, one lane, one job.
fn offloaded_world(
    qos: QosLimits,
    rkey_scope: SimDuration,
) -> (Fabric, ros2_daos::EngineCluster, DpuClient) {
    use ros2_daos::{ConnectSpec, DaosCostModel, DaosEngine, EngineCluster};
    use ros2_nvme::{DataMode, NvmeArray};
    use ros2_spdk::BdevLayer;
    let mut fabric = dpu_world();
    let bdevs = BdevLayer::new(NvmeArray::new(
        ros2_hw::NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ));
    let mut engine = DaosEngine::new(
        "pool0",
        bdevs,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    engine.cont_create("c").unwrap();
    let cluster = EngineCluster::single(engine);
    let agent = DpuAgent::new(NodeId(0), 30 << 30, ros2_dpu::default_control(3));
    let client = DpuClient::connect_cluster(
        &mut fabric,
        ConnectSpec {
            node: NodeId(0),
            servers: vec![NodeId(1)],
            cont: "c".into(),
            jobs: 1,
            buf_len: 4 << 20,
            domain: MemoryDomain::DpuDram,
            model: DaosCostModel::default_model(),
        },
        agent,
        vec![DpuTenantSpec {
            name: "t".into(),
            qos,
            rkey_scope,
        }],
        7,
    )
    .unwrap();
    (fabric, cluster, client)
}

fn update_ops(n: u64, len: usize) -> Vec<ros2_daos::ClientOp> {
    use ros2_daos::{AKey, ClientOp, DKey, ObjClass, ObjectId, RecordKey, UpdateOp, ValueKind};
    (0..n)
        .map(|i| {
            ClientOp::Update(UpdateOp {
                key: RecordKey {
                    oid: ObjectId::new(ObjClass::Sx, 1),
                    dkey: DKey::from_u64(i),
                    akey: AKey::from_str("data"),
                },
                kind: ValueKind::Array { offset: 0 },
                data: Bytes::from(vec![(i % 250) as u8 + 1; len]),
            })
        })
        .collect()
}

/// The rkey race at QD > 1, resolved the safe way: a queue whose span
/// crosses the refresh margin forces a re-registration *before* the ring
/// starts pulling, so deep in-flight work never trips the NIC.
#[test]
fn pipelined_queue_forces_refresh_before_the_pull() {
    use ros2_daos::ObjectClient;
    let (mut fabric, mut cluster, mut client) =
        offloaded_world(QosLimits::unlimited(), SimDuration::from_millis(100));
    // First queue, well inside the scope: no refresh needed.
    for r in client.execute_pipelined(
        &mut fabric,
        &mut cluster,
        SimTime::ZERO,
        0,
        update_ops(8, 1 << 20),
    ) {
        r.into_update().unwrap();
    }
    assert_eq!(
        client.dpu_stats().rkey_refreshes,
        0,
        "a queue comfortably inside the scope must not refresh"
    );
    // Second queue at 60 ms: 60 ms + 50 ms margin + the queue's own span
    // crosses the 100 ms deadline, so the lane must re-register before
    // any leg starts.
    for r in client.execute_pipelined(
        &mut fabric,
        &mut cluster,
        SimTime::from_millis(60),
        0,
        update_ops(8, 1 << 20),
    ) {
        r.into_update().unwrap();
    }
    assert!(
        client.dpu_stats().rkey_refreshes >= 1,
        "a queue spanning the margin must refresh first"
    );
    assert_eq!(
        fabric.node(NodeId(0)).rdma.violations().total(),
        0,
        "no in-flight pull may outlive its rkey at QD > 1"
    );
}

// --------------------------------------------------------- property ------

proptest! {
    /// Over ANY window `[w0, w1]` of grant instants, the bytes a tenant was
    /// *granted* inside the window never exceed `bytes_per_sec × (w1 - w0)
    /// + burst` (and likewise for ops). This is the contract that makes the
    /// QoS buckets an enforcement mechanism rather than bookkeeping — it
    /// fails on the seed's bucket, which let concurrent requesters each pay
    /// a single refill quantum from their own clock.
    #[test]
    fn admitted_bytes_never_exceed_limits_over_any_window(
        bytes_per_sec in 1_000u64..100_000_000,
        // Requests are kept at or below the burst: an atomic request larger
        // than the burst is necessarily granted whole at the burst
        // boundary, which no window bound can satisfy.
        burst in 1_000_000u64..10_000_000,
        reqs in prop::collection::vec((0u64..200_000_000, 1u64..1_000_000), 2..60),
    ) {
        let mut f = dpu_world();
        let mut tm = TenantManager::new(NodeId(0));
        tm.register(
            &mut f,
            "p",
            QosLimits {
                ops_per_sec: u64::MAX / 2,
                bytes_per_sec,
                burst: (1 << 20, burst),
            },
            SimDuration::from_secs(5),
        );
        // Submission times must be nondecreasing (the simulator's closed
        // loops submit in virtual-time order per tenant).
        let mut times: Vec<u64> = reqs.iter().map(|&(t, _)| t).collect();
        times.sort_unstable();
        let mut grants: Vec<(u64, u64)> = Vec::with_capacity(reqs.len());
        for (&t, &(_, bytes)) in times.iter().zip(reqs.iter()) {
            let g = tm.admit(SimTime::from_nanos(t), "p", bytes).unwrap();
            grants.push((g.as_nanos(), bytes));
        }
        // Check every window between two grant instants.
        for i in 0..grants.len() {
            for j in i..grants.len() {
                let (w0, w1) = (grants[i].0, grants[j].0);
                let in_window: u128 = grants
                    .iter()
                    .filter(|&&(g, _)| g >= w0 && g <= w1)
                    .map(|&(_, b)| b as u128)
                    .sum();
                // Allowance: burst + rate over the window, plus one byte of
                // integer-rounding slack per grant in the window.
                let dt = (w1 - w0) as u128;
                let allowance = burst as u128
                    + (dt * bytes_per_sec as u128).div_ceil(1_000_000_000)
                    + grants.len() as u128;
                prop_assert!(
                    in_window <= allowance,
                    "window [{w0}, {w1}] granted {in_window} B > allowance {allowance} B \
                     (rate {bytes_per_sec} B/s, burst {burst} B)"
                );
            }
        }
        let ctx = tm.tenant("p").unwrap();
        prop_assert_eq!(ctx.qos.admitted.0, grants.len() as u64);
    }

    /// The same over-grant bound driven through the *pipelined* offload
    /// path at QD = queue length: interleaved admission must still pace
    /// every byte. Completion instants upper-bound grant instants, so if
    /// the whole queue's bytes exceed `rate × t_end + burst`, some grant
    /// bypassed the bucket. Also pins the exact byte accounting.
    #[test]
    fn pipelined_admission_never_exceeds_limits(
        bytes_per_sec in 1_000_000u64..200_000_000,
        ops in prop::collection::vec(4_096usize..262_144, 2..12),
    ) {
        use ros2_daos::ObjectClient;
        let burst = 1u64 << 20;
        let (mut fabric, mut cluster, mut client) = offloaded_world(
            QosLimits {
                ops_per_sec: 1_000_000,
                bytes_per_sec,
                burst: (1 << 10, burst),
            },
            SimDuration::from_secs(30),
        );
        let client_ops: Vec<ros2_daos::ClientOp> = {
            use ros2_daos::{AKey, ClientOp, DKey, ObjClass, ObjectId, RecordKey, UpdateOp, ValueKind};
            ops.iter()
                .enumerate()
                .map(|(i, &len)| ClientOp::Update(UpdateOp { key: RecordKey { oid: ObjectId::new(ObjClass::Sx, 1), dkey: DKey::from_u64(i as u64), akey: AKey::from_str("data") }, kind: ValueKind::Array { offset: 0 }, data: Bytes::from(vec![(i % 250) as u8 + 1; len]) }))
                .collect()
        };
        let total: u64 = ops.iter().map(|&l| l as u64).sum();
        let results = client.execute_pipelined(
            &mut fabric,
            &mut cluster,
            SimTime::ZERO,
            0,
            client_ops,
        );
        let mut t_end = SimTime::ZERO;
        for r in results {
            t_end = t_end.max(r.into_update().expect("pipelined update failed"));
        }
        // Window [0, t_end] over-grant bound, one byte of rounding slack
        // per op.
        let allowance = burst as u128
            + (t_end.as_nanos() as u128 * bytes_per_sec as u128).div_ceil(1_000_000_000)
            + ops.len() as u128;
        prop_assert!(
            (total as u128) <= allowance,
            "QD={} queue moved {total} B by {t_end}, allowance {allowance} B \
             (rate {bytes_per_sec} B/s, burst {burst} B)",
            ops.len()
        );
        let s = client.dpu_stats();
        prop_assert_eq!(s.bytes_admitted, total);
        prop_assert_eq!(s.host_submits, 1);
        prop_assert_eq!(s.host_polls, ops.len() as u64);
    }
}
