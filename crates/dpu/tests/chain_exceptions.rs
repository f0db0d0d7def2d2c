//! The completion-forwarding chain under faults, through the lane: a
//! payload the NIC's verify rejects is never published, an error the
//! engine reports never reaches a chain, and a chain whose record region is
//! revoked under it dies at fire time and leaves the op to the ARM core.

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosCostModel, DaosEngine, DaosError, EngineCluster,
    Epoch, ObjClass, ObjectClient, ObjectId, ValueKind,
};
use ros2_dpu::{DpuAgent, DpuClient, DpuTenantSpec};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{CoreClass, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::SimTime;
use ros2_spdk::BdevLayer;
use ros2_verbs::{ChainStats, MemoryDomain, MrId, NodeId};

const DPU: NodeId = NodeId(0);
const LEN: usize = 64 << 10;

fn world() -> (Fabric, EngineCluster, DpuClient) {
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
    let cluster = EngineCluster::single(engine);
    let agent = DpuAgent::new(DPU, 30 << 30, ros2_dpu::default_control(3));
    let client = DpuClient::connect(
        &mut fabric,
        DPU,
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
    (fabric, cluster, client)
}

fn oid() -> ObjectId {
    ObjectId::new(ObjClass::Sx, 1)
}

fn payload() -> Bytes {
    Bytes::from((0..LEN).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// One op through the ring, as the pipelined DFS path submits it.
fn ring_op(
    w: &mut (Fabric, EngineCluster, DpuClient),
    now: SimTime,
    write: bool,
) -> ClientOpResult {
    let (dkey, akey) = (DKey::from_u64(0), AKey::from_str("data"));
    let kind = ValueKind::Array { offset: 0 };
    let op = match write {
        true => ClientOp::Update {
            oid: oid(),
            dkey,
            akey,
            kind,
            data: payload(),
        },
        false => ClientOp::Fetch {
            oid: oid(),
            dkey,
            akey,
            kind,
            epoch: Epoch::LATEST,
            len: LEN as u64,
        },
    };
    let (fabric, cluster, client) = w;
    client
        .execute_pipelined(fabric, cluster, now, 0, vec![op])
        .remove(0)
}

fn chains(w: &(Fabric, EngineCluster, DpuClient)) -> ChainStats {
    w.0.node(DPU).rdma.chain_stats()
}

/// A written record and one clean read of it: the state every case starts
/// from. Returns the instant the read completed.
fn written_and_read_once(w: &mut (Fabric, EngineCluster, DpuClient)) -> SimTime {
    let done = ring_op(w, SimTime::ZERO, true).into_update().unwrap();
    let (back, at) = ring_op(w, done, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    let c = chains(w);
    assert_eq!((c.completed, c.records_written), (2, 2), "both ops chained");
    assert_eq!(c.verified_bytes, LEN as u64);
    at
}

#[test]
fn bytes_the_nic_verify_rejects_are_never_published() {
    let mut w = world();
    let t = written_and_read_once(&mut w);
    // The engine's copy is sound and its own verify passes; the payload
    // rots after that, on its way into the DPU's staging DRAM.
    w.0.rdma_mut(DPU).corrupt_next_landing();
    let before = w.2.dpu_stats();
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert_eq!(err, DaosError::ChecksumMismatch);
    let c = chains(&w);
    assert_eq!(c.crc_rejects, 1, "the NIC's check caught it");
    assert_eq!(
        (c.completed, c.records_written),
        (2, 2),
        "no completion record for bytes the verify rejected"
    );
    let s = w.2.dpu_stats();
    assert_eq!(s.nic_verified_bytes, before.nic_verified_bytes);
    assert_eq!(s.host_polls, before.host_polls, "nothing was posted");
    assert_eq!(
        w.0.node(DPU).rdma.violations().total(),
        0,
        "not a protection fault"
    );
    // The slot's chain survives a bad payload: the next read is forwarded.
    let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w).completed, 3);
}

#[test]
fn the_read_cache_never_learns_bytes_the_nic_rejected() {
    let mut w = world();
    w.2.enable_read_cache(8 << 20).unwrap();
    let t = ring_op(&mut w, SimTime::ZERO, true).into_update().unwrap();
    // The first read of the record is the one that rots in flight: it
    // would have been the cache's fill.
    w.0.rdma_mut(DPU).corrupt_next_landing();
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert_eq!(err, DaosError::ChecksumMismatch);
    assert_eq!(w.2.cache_stats().fills, 0, "rejected bytes are not cached");
    // So the next read goes to the engine again and fills with good bytes,
    // and the one after is a hit on them.
    for hits in [0, 1] {
        let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
        assert_eq!(back, payload());
        let s = w.2.cache_stats();
        assert_eq!((s.fills, s.hits), (1, hits));
    }
}

#[test]
fn checksum_error_propagates_to_client_through_the_lane() {
    let mut w = world();
    let t = written_and_read_once(&mut w);
    let (d, a) = (DKey::from_u64(0), AKey::from_str("data"));
    assert!(w.1.engine_mut(0).corrupt_newest_extent(oid(), &d, &a));
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert_eq!(err, DaosError::ChecksumMismatch);
    // The engine refused to push: there was no completion to forward, so
    // no chain fired and no record was written.
    let c = chains(&w);
    assert_eq!((c.completed, c.records_written, c.crc_rejects), (2, 2, 0));
    assert_eq!(w.1.vos_stats().checksum_failures, 1);
}

#[test]
fn a_chain_that_loses_its_record_region_fails_the_op_on_the_arm_core() {
    let mut w = world();
    let t = written_and_read_once(&mut w);
    // Slot 0's completion record: the one 16-byte host-visible region.
    let nic = &w.0.node(DPU).rdma;
    let record = (1..64)
        .map(MrId)
        .find(|&mr| {
            nic.mr(mr)
                .is_some_and(|r| r.len == 16 && r.domain == MemoryDomain::HostDram)
        })
        .expect("the slot's record region");
    w.0.rdma_mut(DPU).revoke_rkey(record).unwrap();
    let before = w.2.dpu_stats();
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert!(
        matches!(&err, DaosError::Transport(why) if why.contains("RkeyRevoked")),
        "the chain died of the revocation, got {err:?}"
    );
    assert_eq!(
        w.0.node(DPU).rdma.violations().revoked_rkey,
        1,
        "counted at the NIC"
    );
    let c = chains(&w);
    assert_eq!(
        (c.completed, c.records_written),
        (2, 2),
        "the write into host memory never happened"
    );
    assert_eq!(w.2.dpu_stats().host_polls, before.host_polls);
    // The ARM core that took the exception also replaced the chain: the
    // next read is forwarded again, through a new record region.
    let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w).completed, 3);
    assert_eq!(w.0.node(DPU).rdma.violations().total(), 1);
}

#[test]
fn a_slot_whose_chain_cannot_be_armed_completes_on_the_arm_core() {
    let mut w = world();
    // Eat every byte the DPU has left, so the slot's 16-byte completion
    // record has nowhere to live and its chain cannot be built.
    let mut hog = Vec::new();
    for shift in (0..40).rev() {
        while let Ok(at) =
            w.0.rdma_mut(DPU)
                .alloc_buffer(1 << shift, MemoryDomain::DpuDram)
        {
            hog.push(at);
        }
    }
    // The data plane is none the worse: both ops succeed, each forwarded
    // and verified by an ARM core, with its completion record posted.
    let done = ring_op(&mut w, SimTime::ZERO, true).into_update().unwrap();
    let (back, starved) = ring_op(&mut w, done, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w), ChainStats::default(), "no chain ever fired");
    let s = w.2.dpu_stats();
    assert_eq!(s.nic_verified_bytes, 0);
    assert_eq!(s.crc_bytes, 2 * LEN as u64, "update CRC + ARM fetch verify");
    assert_eq!(s.host_polls, 2);
    assert_eq!(w.0.node(DPU).rdma.violations().total(), 0);
    // With room again the slot gets its chain on its next op — and that op
    // is quicker than the one an ARM core had to complete.
    for at in hog {
        w.0.rdma_mut(DPU).free_buffer(at).unwrap();
    }
    let (back, chained) = ring_op(&mut w, starved, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w).completed, 1);
    assert_eq!(w.2.dpu_stats().nic_verified_bytes, LEN as u64);
    assert!(chained.saturating_since(starved) < starved.saturating_since(done));
}
