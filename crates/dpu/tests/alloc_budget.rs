//! Allocation budget of the offloaded completion path: nothing rides in on
//! the chain, and the ring's scaffolding is reused rather than rebuilt.
//!
//! One test function on purpose: the counters are process-global, so the
//! measured regions must not overlap another allocating test.

use bytes::Bytes;
use ros2_buf::{allocation_count, bytes_crc32c, zero_bytes, CountingAlloc};
use ros2_daos::{
    AKey, ClientOp, DKey, DaosCostModel, DaosEngine, EngineCluster, Epoch, ObjClass, ObjectClient,
    ObjectId, ValueKind,
};
use ros2_dpu::{DpuAgent, DpuClient, DpuTenantSpec};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{CoreClass, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimRng, SimTime};
use ros2_spdk::BdevLayer;
use ros2_verbs::{AccessFlags, Expiry, Landing, MemoryDomain, NodeId, QpId, QpType, RdmaDevice};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations [`FETCHES`] steady-state offloaded 4 KiB ring fetches
/// cost at the parent commit, measured by [`fetch_allocs`] there: 7 per
/// fetch (the caller's op vector and the vectors of a ring built afresh for
/// every queue) plus 36 that come and go with map-node growth underneath.
const PARENT_ALLOCS: u64 = 484;

/// Fetches in the measured region.
const FETCHES: u64 = 64;

fn fetch_allocs() -> u64 {
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
    let mut client = DpuClient::connect(
        &mut fabric,
        NodeId(0),
        NodeId(1),
        "c",
        1,
        4 << 20,
        MemoryDomain::DpuDram,
        DaosCostModel::default_model(),
        agent,
        vec![DpuTenantSpec::unlimited("t")],
        7,
    )
    .unwrap();
    let oid = ObjectId::new(ObjClass::Sx, 1);
    let (dkey, akey) = (DKey::from_u64(0), AKey::from_str("data"));
    let kind = ValueKind::Array { offset: 0 };
    let write = ClientOp::Update {
        oid,
        dkey: dkey.clone(),
        akey: akey.clone(),
        kind,
        data: zero_bytes(4 << 10),
    };
    let mut now = client
        .execute_pipelined(&mut fabric, &mut cluster, SimTime::ZERO, 0, vec![write])
        .remove(0)
        .into_update()
        .unwrap();
    let mut fetch = |now: SimTime| {
        let op = ClientOp::Fetch {
            oid,
            dkey: dkey.clone(),
            akey: akey.clone(),
            kind,
            epoch: Epoch::LATEST,
            len: 4 << 10,
        };
        let r = client.execute_pipelined(&mut fabric, &mut cluster, now, 0, vec![op]);
        r.into_iter().next().unwrap().into_fetch().unwrap().1
    };
    // Warm: the chain, its record region, the ring's vectors, map nodes.
    for _ in 0..8 {
        now = fetch(now);
    }
    let before = allocation_count();
    for _ in 0..FETCHES {
        now = fetch(now);
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
    let data_qp = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(data_qp, NodeId(1), QpId(1)).unwrap();
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
    dev.arm_chain(chain).unwrap();
    dev.fire_chain(SimTime::ZERO, chain, data_qp, Some(landing))
        .unwrap();
    let before = allocation_count();
    for _ in 0..100 {
        dev.arm_chain(chain).unwrap();
        dev.fire_chain(SimTime::ZERO, chain, data_qp, Some(landing))
            .unwrap();
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "arming and firing a chain must not allocate"
    );
    assert_eq!(dev.chain_stats().completed, 101);

    // --- one offloaded 4 KiB fetch, end to end ---------------------------
    let now = fetch_allocs();
    assert!(
        now < PARENT_ALLOCS,
        "{FETCHES} steady-state offloaded fetches allocate {now} times, {PARENT_ALLOCS} at the parent"
    );
    // What is left per fetch: the caller's op vector and the result vector.
    assert!(
        now < 3 * FETCHES,
        "{now} allocations over {FETCHES} fetches"
    );
}
