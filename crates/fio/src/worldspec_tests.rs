//! Builder-parity suite: a [`WorldSpec`]-built world must replay
//! **bit-identically** to the positional constructor it replaced. The
//! fingerprints below (op counts, throughput bit patterns, booking and
//! fast-path counters) were recorded by running the old
//! `ClusterFioWorld::new` / `::offloaded` and `DfsFioWorld::offloaded` /
//! `::with_wire_mode` constructors immediately before their removal, on
//! the exact job specs used here. Any drift in the builder's assembly
//! order, seeds, or defaults breaks these pins.

use ros2_dpu::DpuTenantSpec;
use ros2_hw::{ClientPlacement, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{ResourceStats, SimDuration};

use crate::{run_fio, DfsFioWorld, JobSpec, RwMode, WorldSpec};

fn cluster_job() -> JobSpec {
    JobSpec::new(RwMode::RandRead, 1 << 20, 4)
        .iodepth(2)
        .region(4 << 20)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
}

fn single_job() -> JobSpec {
    JobSpec::new(RwMode::Write, 1 << 20, 2)
        .iodepth(4)
        .region(8 << 20)
        .windows(SimDuration::from_millis(20), SimDuration::from_millis(80))
}

fn cluster_stats(w: &DfsFioWorld) -> ResourceStats {
    let mut stats = w.fabric.resource_stats();
    stats.merge(w.cluster.resource_stats());
    stats.merge(w.client.resource_stats());
    stats
}

#[test]
fn builder_host_cluster_matches_old_constructor() {
    // Was: ClusterFioWorld::new(Rdma, 3, 2, 1, 4, 4 << 20, Stored) —
    // every value below is the builder's default except what's chained.
    let mut w = WorldSpec::cluster(3).replication(2).jobs(4).build_dfs();
    let r = run_fio(&mut w, &cluster_job());
    let stats = cluster_stats(&w);
    assert_eq!(r.io.meter.ops(), 147);
    assert_eq!(r.gib_per_sec().to_bits(), 0x4013240000000000);
    assert_eq!((stats.bookings, stats.fastpath_hits), (5280, 4773));
    assert_eq!(w.cluster.fences(), 0);
    assert_eq!(w.client.ops(), 201);
}

#[test]
fn builder_offloaded_cluster_matches_old_constructor() {
    // Was: ClusterFioWorld::offloaded(Rdma, 2, 2, 1, 4, 4 << 20, Null,
    // vec![unlimited("fio")]) — the 8-positional-argument signature the
    // redesign deleted.
    let mut w = WorldSpec::cluster(2)
        .replication(2)
        .jobs(4)
        .mode(DataMode::Null)
        .offload(vec![DpuTenantSpec::unlimited("fio")])
        .build_dfs();
    let r = run_fio(&mut w, &cluster_job());
    let stats = cluster_stats(&w);
    assert_eq!(r.io.meter.ops(), 134);
    assert_eq!(r.gib_per_sec().to_bits(), 0x401172aaaaaaaaab);
    // Fast-path hits were 4117 while each job owned an ARM core; the lane
    // pool (PR 12) books the same work on idle-tail cores more often.
    assert_eq!((stats.bookings, stats.fastpath_hits), (4785, 4119));
    assert_eq!(w.cluster.fences(), 0);
    assert_eq!(w.client.ops(), 186);
}

#[test]
fn builder_offloaded_single_matches_old_constructor() {
    // Was: DfsFioWorld::offloaded(Rdma, 1, 2, 8 << 20, Null, tenants).
    let mut w = WorldSpec::single(ClientPlacement::Dpu)
        .jobs(2)
        .region(8 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    assert!(w.client.offloaded().is_some());
    let r = run_fio(&mut w, &single_job());
    let mut stats = w.fabric.resource_stats();
    stats.merge(w.cluster.resource_stats());
    stats.merge(w.client.resource_stats());
    // One more op fits the window since the host doorbell's two legs
    // became posted writes (one way each, not a round trip each): 196 ops
    // at 0x4003240000000000 before. Fast-path hits were 7610 before the
    // lane pool (see above), 7621 before the posted legs.
    assert_eq!(r.io.meter.ops(), 197);
    assert_eq!(r.gib_per_sec().to_bits(), 0x40033d0000000000);
    assert_eq!((stats.bookings, stats.fastpath_hits), (8645, 7653));
    assert_eq!(w.client.ops(), 284);
}

#[test]
fn one_engine_cluster_is_the_single_world() {
    // build_dfs assembles every one-client spec alike: at E = 1 the
    // cluster spec is the classic two-node world, call for call.
    let run = |spec: WorldSpec| {
        let mut w = spec
            .jobs(2)
            .region(8 << 20)
            .mode(DataMode::Null)
            .build_dfs();
        let r = run_fio(&mut w, &single_job());
        let stats = cluster_stats(&w);
        (
            r.io.meter.ops(),
            r.gib_per_sec().to_bits(),
            (stats.bookings, stats.fastpath_hits),
        )
    };
    assert_eq!(
        run(WorldSpec::cluster(1)),
        run(WorldSpec::single(ClientPlacement::Host))
    );
}

#[test]
fn builder_per_segment_single_matches_old_constructor() {
    // Was: DfsFioWorld::with_wire_mode(Rdma, Host, 1, 2, 8 << 20, Null,
    // true) — a world with per-segment wire booking forced.
    let mut w = WorldSpec::single(ClientPlacement::Host)
        .jobs(2)
        .region(8 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    w.fabric.set_force_per_segment(true);
    let r = run_fio(&mut w, &single_job());
    assert_eq!(r.io.meter.ops(), 200);
    assert_eq!(r.gib_per_sec().to_bits(), 0x4003880000000000);
}

#[test]
fn wire_mode_does_not_change_simulated_results() {
    // Per-segment wire booking must keep simulated physics identical on
    // both transports — only host-process time differs.
    for transport in [Transport::Rdma, Transport::Tcp] {
        let run = |per_segment: bool| {
            let mut w = WorldSpec::single(ClientPlacement::Host)
                .transport(transport)
                .jobs(2)
                .region(8 << 20)
                .mode(DataMode::Null)
                .build_dfs();
            w.fabric.set_force_per_segment(per_segment);
            let r = run_fio(&mut w, &single_job());
            (r.io.meter.ops(), r.gib_per_sec().to_bits())
        };
        assert_eq!(run(false), run(true), "{transport:?}");
    }
}

#[test]
fn seed_is_a_spec_field_with_the_historical_default() {
    assert_eq!(WorldSpec::DEFAULT_SEED, 0xd0e5);
    // A different fabric seed still assembles and runs; determinism per
    // seed is covered by the replay suites.
    let mut w = WorldSpec::single(ClientPlacement::Host)
        .seed(0xbeef)
        .jobs(2)
        .region(8 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    let r = run_fio(&mut w, &single_job());
    assert!(r.io.meter.ops() > 0);
}

#[test]
fn builder_replays_are_deterministic() {
    let build = || -> DfsFioWorld {
        WorldSpec::single(ClientPlacement::Host)
            .jobs(2)
            .region(8 << 20)
            .mode(DataMode::Null)
            .build_dfs()
    };
    let a = run_fio(&mut build(), &single_job());
    let b = run_fio(&mut build(), &single_job());
    assert_eq!(a.io.meter.ops(), b.io.meter.ops());
    assert_eq!(a.gib_per_sec().to_bits(), b.gib_per_sec().to_bits());
}
