//! The offloaded client's ARM core budget: submission work runs on a
//! work-conserving pool per tenant lane, sized from the DPU node's cores,
//! never on one phantom core per host job.
//!
//! Both tests inflate `client_per_op` to a millisecond so the submission
//! cores are the only resource whose queueing is visible in completion
//! instants (everything downstream takes tens of microseconds).

use bytes::Bytes;
use ros2_daos::{
    ClientOp, ConnectSpec, DaosCostModel, EngineCluster, ObjClass, ObjectClient, ObjectId,
    UpdateOp, ValueKind,
};
use ros2_dpu::{default_control, DpuAgent, DpuClient, DpuTenantSpec};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{CoreClass, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::array_key;
use ros2_verbs::{MemoryDomain, NodeId};

/// All of `client_per_op` is submission work, with no ARM penalty beyond
/// the core-speed scaling: one op holds one core for [`service`].
fn slow_client_model() -> DaosCostModel {
    DaosCostModel {
        client_per_op: SimDuration::from_millis(1),
        client_completion_frac: 0.0,
        dpu_client_overhead: 1.0,
        ..DaosCostModel::default_model()
    }
}

fn service() -> SimDuration {
    CoreClass::DpuArm.scale(slow_client_model().client_per_op)
}

fn world(tenants: &[&str], jobs: usize) -> (Fabric, EngineCluster, DpuClient) {
    let mut fabric = Fabric::new(
        Transport::Rdma,
        vec![NodeSpec::bluefield3(), NodeSpec::storage_server()],
        31,
    );
    let mut cluster = EngineCluster::assemble(
        vec![NodeId(1)],
        1,
        1,
        DataMode::Stored,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    cluster.cont_create("c").unwrap();
    let client = DpuClient::connect_cluster(
        &mut fabric,
        ConnectSpec {
            node: NodeId(0),
            servers: vec![NodeId(1)],
            cont: "c".into(),
            jobs,
            buf_len: 1 << 20,
            domain: MemoryDomain::DpuDram,
            model: slow_client_model(),
        },
        DpuAgent::new(NodeId(0), 30 << 30, default_control(7)),
        tenants
            .iter()
            .map(|t| DpuTenantSpec::unlimited(*t))
            .collect(),
        7,
    )
    .unwrap();
    (fabric, cluster, client)
}

fn write_4k(job: usize, seq: u64) -> ClientOp {
    ClientOp::Update(UpdateOp {
        key: array_key(ObjectId::new(ObjClass::Sx, job as u64), seq),
        kind: ValueKind::Array { offset: 0 },
        data: Bytes::from(vec![job as u8 + 1; 4096]),
    })
}

/// Submits `ops` from `job` at `now` through the ring and returns their
/// completion instants.
fn submit(
    w: &mut (Fabric, EngineCluster, DpuClient),
    now: SimTime,
    job: usize,
    ops: Vec<ClientOp>,
) -> Vec<SimTime> {
    let (fabric, cluster, client) = w;
    client
        .execute_pipelined(fabric, cluster, now, job, ops)
        .into_iter()
        .map(|r| r.into_update().unwrap())
        .collect()
}

/// 32 host jobs submitting at the same instant get the BlueField-3's 16
/// cores, not 32: no 17 submissions ever overlap in virtual time.
#[test]
fn thirty_two_jobs_never_overlap_more_than_sixteen_submissions() {
    let mut w = world(&["t"], 32);
    assert_eq!(w.2.submission_cores(), 16);
    let mut done: Vec<SimTime> = (0..32)
        .flat_map(|job| submit(&mut w, SimTime::ZERO, job, vec![write_4k(job, 0)]))
        .collect();
    done.sort();
    // The 17th-next completion had to wait for a core to free, i.e. for a
    // whole submission to finish.
    for (i, pair) in done.iter().zip(&done[16..]).enumerate() {
        assert!(
            pair.1.saturating_since(*pair.0) >= service().mul_f64(0.5),
            "completions {i} and {} are {} apart: more than 16 submissions overlapped",
            i + 16,
            pair.1.saturating_since(*pair.0)
        );
    }
    assert_eq!(w.2.submission_busy_time(), service().saturating_mul(32));
}

/// Cores are split per lane, not shared: tenant A keeping 32 ops queued
/// on its 8 cores leaves tenant B's QD 1 completions where they were.
#[test]
fn a_saturating_tenant_does_not_move_its_neighbours_completions() {
    // Jobs deal round-robin over tenants: even jobs are A's, odd are B's.
    let b_job = 1;
    // B submits between A's waves (A's submissions finish at multiples of
    // `service`), so the two never meet downstream of the cores either.
    let b_start = SimTime::ZERO + service().mul_f64(0.5);
    let run_b = |w: &mut (Fabric, EngineCluster, DpuClient)| {
        let mut now = b_start;
        (0..4)
            .map(|seq| {
                now = submit(w, now, b_job, vec![write_4k(b_job, seq)])[0];
                now
            })
            .collect::<Vec<SimTime>>()
    };

    let mut alone = world(&["a", "b"], 8);
    assert_eq!(alone.2.submission_cores(), 16);
    let b_alone = run_b(&mut alone);

    let mut shared = world(&["a", "b"], 8);
    let mut a_done = Vec::new();
    for job in [0, 2, 4, 6] {
        let queue = (0..8).map(|seq| write_4k(job, seq)).collect();
        a_done.extend(submit(&mut shared, SimTime::ZERO, job, queue));
    }
    let b_beside_a = run_b(&mut shared);

    // A really was core-bound the whole time B ran: 32 ops on 8 cores
    // drain in four waves.
    let a_last = *a_done.iter().max().unwrap();
    assert!(a_last >= SimTime::ZERO + service().saturating_mul(4));
    assert!(b_beside_a[2] < a_last, "B must run while A is saturated");
    assert_eq!(b_beside_a, b_alone, "tenant A moved tenant B's completions");
}
