//! The TCP update path moves handles, not bytes: the descriptor is framing
//! on a gather send, so the engine stores — and a later fetch returns —
//! the very allocation the caller staged, exactly as the RDMA arm does.
//! The kernel copy TCP pays is a modelled cost, never a host memcpy.
//!
//! Measured for real with a counting global allocator; everything runs
//! inside one `#[test]` (the counters are process-global).

use bytes::Bytes;
use ros2_buf::{allocated_bytes, zero_bytes, CountingAlloc};
use ros2_daos::{
    AKey, DKey, DaosClient, EngineCluster, Epoch, ObjClass, ObjectClient, ObjectId, ValueKind,
};
use ros2_fabric::Fabric;
use ros2_hw::Transport;
use ros2_sim::SimTime;
use ros2_testkit::{world, World};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: usize = 1 << 20;
const KIND: ValueKind = ValueKind::Array { offset: 0 };

type Rig = (Fabric, EngineCluster, DaosClient);

/// One engine on one SSD behind a single-job client, over TCP.
fn tcp_world() -> Rig {
    World {
        ssds: 1,
        seed: 5,
        transport: Transport::Tcp,
        ..world(1, 1)
    }
    .build()
}

fn oid() -> ObjectId {
    ObjectId::new(ObjClass::Sx, 1)
}

fn update(world: &mut Rig, now: SimTime, dkey: u64, data: Bytes) -> SimTime {
    let (fabric, cluster, client) = world;
    let akey = AKey::from_str("data");
    client
        .update(
            fabric,
            cluster,
            now,
            0,
            oid(),
            DKey::from_u64(dkey),
            akey,
            KIND,
            data,
        )
        .unwrap()
}

#[test]
fn tcp_update_stores_the_callers_allocation() {
    let mut world = tcp_world();

    // A non-zero 1 MiB payload: scanned once for its checksums (real
    // hashing work), never copied.
    let data = Bytes::from((0..MIB).map(|i| (i % 251) as u8 | 1).collect::<Vec<u8>>());
    let done = update(&mut world, SimTime::ZERO, 0, data.clone());
    assert_eq!(world.1.data_plane_stats().crc_bytes_scanned, MIB as u64);

    // Warm (every table, index and pool has taken its first allocation):
    // a second update allocates metadata only, no payload-sized buffer.
    let before = allocated_bytes();
    let done = update(&mut world, done, 1, data.clone());
    let grew = allocated_bytes() - before;
    assert!(
        grew < 64 << 10,
        "a warm 1 MiB TCP update allocated {grew} bytes"
    );

    // The fetched bytes are the caller's allocation: stored by handle,
    // returned by handle.
    let (fabric, cluster, client) = &mut world;
    let (back, at) = client
        .fetch(
            fabric,
            cluster,
            done,
            0,
            oid(),
            DKey::from_u64(1),
            AKey::from_str("data"),
            KIND,
            Epoch::LATEST,
            MIB as u64,
        )
        .unwrap();
    assert_eq!(back.as_ptr(), data.as_ptr());
    assert_eq!(back, data);
    assert_eq!(world.1.data_plane_stats().bytes_copied, 0);
    assert_eq!(world.0.data_plane_stats().bytes_copied, 0);

    // A shared-zero payload keeps its provenance through the send, so its
    // checksums are closed-form and nothing is scanned.
    let scanned = world.1.data_plane_stats().crc_bytes_scanned;
    update(&mut world, at, 2, zero_bytes(MIB));
    assert_eq!(world.1.data_plane_stats().crc_bytes_scanned, scanned);
}
