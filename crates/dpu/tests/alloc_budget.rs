//! Allocation budget of the offloaded ring path: nothing rides in on the
//! chain at either end — templates and chain tables are per lane, grown on
//! first use and patched in place — and the ring's scaffolding is reused
//! rather than rebuilt. Driven through `execute_into` with the caller's
//! vectors kept, a warm fetch allocates nothing at all and a warm update
//! only for the engine's index growth.
//!
//! One test function on purpose: the counters are process-global, so the
//! measured regions must not overlap another allocating test.

use bytes::Bytes;
use ros2_buf::{allocation_count, bytes_crc32c, zero_bytes, CountingAlloc};
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, ConnectSpec, DKey, DaosCostModel, DaosEngine, EngineCluster,
    Epoch, FetchOp, ObjClass, ObjectClient, ObjectId, RecordKey, UpdateOp, ValueKind,
};
use ros2_dpu::{DpuAgent, DpuClient, DpuTenantSpec};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{CoreClass, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimRng, SimTime, Timed};
use ros2_spdk::BdevLayer;
use ros2_verbs::{AccessFlags, Expiry, Landing, MemoryDomain, NodeId, QpId, QpType, RdmaDevice};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// The first three budgets were measured by an earlier `ring_allocs` that
// warmed over 8 ops and did not reset timing; they stay as upper bounds.

/// Heap allocations [`OPS`] steady-state offloaded 4 KiB ring fetches cost
/// before the first chain (PR 22's parent), measured by [`ring_allocs`]
/// there: 7 per fetch (the caller's op vector and the vectors of a ring
/// built afresh for every queue) plus 36 that come and go with map-node
/// growth underneath.
const UNCHAINED_FETCH_ALLOCS: u64 = 484;

/// What [`ring_allocs`] measures at this PR's parent, where a chain
/// forwarded completions and ARM cores submitted: `(fetches, updates)`.
const PARENT_ALLOCS: (u64, u64) = (164, 433);

/// What [`ring_allocs`] measures for updates once a zero payload's chunk
/// table is collected straight into its `Arc` (one allocation, not a
/// `Vec` and then a copy): 424 before, one fewer per update.
const UPDATE_ALLOCS: u64 = 360;

/// What [`ring_allocs`] measures for [`OPS`] updates now that a 4 KiB
/// record's chunk table and seeded CRC cache entry are inline: index growth
/// at the engine and nothing else. The record was written once and then
/// [`OPS`] times in the warm-up, so:
///
/// * 1 — its record vector goes from 65 records to 129 and crosses
///   capacity 128;
/// * 1 — the SCM heap's extent index, one vector, takes the 64 new
///   extents as appends at its tail: from 65 entries to 129, crossing
///   capacity 128.
const STEADY_UPDATE_ALLOCS: u64 = 1 + 1;

/// Ops in the measured region.
const OPS: u64 = 64;

/// What one op is issued against.
type World<'a> = (&'a mut DpuClient, &'a mut Fabric, &'a mut EngineCluster);

/// Allocations of [`OPS`] steady-state offloaded 4 KiB ring ops, all
/// fetches or all updates of one record.
fn ring_allocs(updates: bool) -> u64 {
    let mut fabric = Fabric::new(
        Transport::Rdma,
        vec![NodeSpec::bluefield3(), NodeSpec::storage_server()],
        21,
    );
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
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
        vec![DpuTenantSpec::unlimited("t")],
        7,
    )
    .unwrap();
    let oid = ObjectId::new(ObjClass::Sx, 1);
    let (dkey, akey) = (DKey::from_u64(0), AKey::from_str("data"));
    let kind = ValueKind::Array { offset: 0 };
    // The caller's vectors, kept across calls as `Dfs` keeps its own.
    let (mut ops, mut out) = (Vec::new(), Vec::new());
    let mut issue = |(client, fabric, cluster): World<'_>, now, update: bool| {
        ops.push(match update {
            true => ClientOp::Update(UpdateOp {
                key: RecordKey {
                    oid,
                    dkey: dkey.clone(),
                    akey: akey.clone(),
                },
                kind,
                data: zero_bytes(4 << 10),
            }),
            false => ClientOp::Fetch(FetchOp {
                key: RecordKey {
                    oid,
                    dkey: dkey.clone(),
                    akey: akey.clone(),
                },
                kind,
                epoch: Epoch::LATEST,
                len: 4 << 10,
            }),
        });
        client.execute_into(fabric, cluster, now, 0, &mut ops, &mut out);
        match out.pop().unwrap() {
            ClientOpResult::Update(at) => at.unwrap(),
            ClientOpResult::Fetch(r) => r.unwrap().1,
        }
    };
    let mut now = issue(
        (&mut client, &mut fabric, &mut cluster),
        SimTime::ZERO,
        true,
    );
    // Warm: the template, the chain, its record region, the ring's
    // vectors, the caller's, map nodes — over as many ops as are measured,
    // then back to t = 0: the booking books keep their buffers, and the
    // measured ops book into space the warm-up grew.
    for _ in 0..OPS {
        now = issue((&mut client, &mut fabric, &mut cluster), now, updates);
    }
    client.reset_timing();
    fabric.reset_timing();
    cluster.reset_timing();
    now = SimTime::ZERO;
    let before = allocation_count();
    for _ in 0..OPS {
        now = issue((&mut client, &mut fabric, &mut cluster), now, updates);
    }
    allocation_count() - before
}

#[test]
fn the_completion_path_allocates_less_than_it_did_and_the_chain_nothing() {
    // --- arming and firing a chain ---------------------------------------
    let mut dev = RdmaDevice::new(NodeId(0), 1 << 22, SimRng::new(5));
    let pd = dev.alloc_pd("lane");
    let owner = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(owner, NodeId(0), owner).unwrap();
    let host_qp = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(host_qp, NodeId(0), host_qp).unwrap();
    let data_qp = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(data_qp, NodeId(1), QpId(1)).unwrap();
    let templates = dev.alloc_buffer(256, MemoryDomain::DpuDram).unwrap();
    let (templates_mr, _, _) = dev
        .reg_mr(pd, templates, 256, AccessFlags::local_only(), Expiry::Never)
        .unwrap();
    let staging = dev.alloc_buffer(8192, MemoryDomain::DpuDram).unwrap();
    let (staging_mr, _, _) = dev
        .reg_mr(pd, staging, 8192, AccessFlags::remote_rw(), Expiry::Never)
        .unwrap();
    let ring = dev.alloc_buffer(16, MemoryDomain::HostDram).unwrap();
    let (ring_mr, _, _) = dev
        .reg_mr(pd, ring, 16, AccessFlags::local_only(), Expiry::Never)
        .unwrap();
    let chain = dev
        .chain_builder(owner)
        .unwrap()
        .wait_doorbell(host_qp)
        .send_gather(templates_mr)
        .wait(data_qp)
        .verify_crc32c(staging_mr)
        .write_record(ring_mr, ring, Bytes::from_static(b"completion-rec-0"))
        .build()
        .unwrap();
    let payload = Bytes::from(vec![7u8; 4096]);
    let landing = Landing {
        addr: staging,
        bytes: &payload,
        wire_crc: bytes_crc32c(&payload),
    };
    // The first firing creates the record's extent; from then on the
    // record is overwritten in place.
    let run = |dev: &mut RdmaDevice| {
        dev.arm_chain(chain).unwrap();
        dev.ring_doorbell(
            SimTime::ZERO,
            chain,
            host_qp,
            templates + 64,
            64,
            [data_qp].into_iter(),
        )
        .unwrap();
        dev.fire_chain(SimTime::ZERO, chain, data_qp, Some(landing))
            .unwrap();
    };
    run(&mut dev);
    let before = allocation_count();
    for _ in 0..100 {
        run(&mut dev);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "arming a chain, ringing its doorbell and firing it must not allocate"
    );
    let fired = dev.chain_stats();
    assert_eq!((fired.descriptors_sent, fired.completed), (101, 101));

    // --- one offloaded 4 KiB op, end to end ------------------------------
    let (fetches, updates) = (ring_allocs(false), ring_allocs(true));
    assert!(fetches < UNCHAINED_FETCH_ALLOCS);
    // The doorbell-fired submission brings nothing of its own: the frame's
    // patches, the template and the chain are all in place already.
    assert!(
        fetches <= PARENT_ALLOCS.0 && updates <= PARENT_ALLOCS.1,
        "{OPS} steady-state offloaded fetches / updates allocate {fetches} / {updates} \
         times, {PARENT_ALLOCS:?} at the parent"
    );
    assert!(
        updates <= UPDATE_ALLOCS,
        "{OPS} steady-state offloaded updates allocate {updates} times, budget {UPDATE_ALLOCS}"
    );
    assert!(
        fetches < 3 * OPS,
        "{fetches} allocations over {OPS} fetches"
    );
    // Nothing is left per fetch: the caller's vectors, the ring's, the
    // lane's probe and result scratch and the update legs are all reused.
    assert_eq!(fetches, 0, "{OPS} steady-state offloaded fetches");
    assert_eq!(
        updates, STEADY_UPDATE_ALLOCS,
        "{OPS} steady-state offloaded updates allocate only for index growth"
    );
}
