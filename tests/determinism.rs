//! Replay determinism: identical seeds produce bit-identical results across
//! the full stack — the property every calibration and regression test in
//! this repository leans on.

use ros2::buf::DataPlaneStats;
use ros2::fio::{run_fio, JobSpec, LocalFioWorld, RwMode, WorldSpec};
use ros2::hw::{ClientPlacement, Transport};
use ros2::nvme::DataMode;
use ros2::sim::{ResourceStats, SimDuration, Timed};

fn short(s: JobSpec) -> JobSpec {
    s.windows(SimDuration::from_millis(20), SimDuration::from_millis(60))
}

#[test]
fn local_world_replays_identically() {
    let run = || {
        let mut w = LocalFioWorld::new(2, 4, 256 << 20, DataMode::Null);
        let r = run_fio(
            &mut w,
            &short(JobSpec::new(RwMode::RandRead, 4096, 4).seed(1234)),
        );
        (
            r.io.meter.ops(),
            r.io.meter.bytes(),
            r.io.latency.percentile(0.999).as_nanos(),
            r.io.latency.mean().as_nanos(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn dfs_world_replays_identically() {
    let run = || {
        let mut w = WorldSpec::single(ClientPlacement::Dpu)
            .transport(Transport::Rdma)
            .ssds(2)
            .jobs(4)
            .region(64 << 20)
            .mode(DataMode::Null)
            .build_dfs();
        let r = run_fio(
            &mut w,
            &short(
                JobSpec::new(RwMode::RandWrite, 4096, 4)
                    .region(64 << 20)
                    .seed(77),
            ),
        );
        (
            r.io.meter.ops(),
            r.io.meter.bytes(),
            r.io.latency.percentile(0.99).as_nanos(),
        )
    };
    assert_eq!(run(), run());
}

/// The control arm: a sweep over {rdma, tcp} × {host, offloaded} × all
/// four patterns × {1 MiB, 4 KiB}, once contended (4 jobs × QD 8) and once
/// uncontended (1 job × QD 1), simulates exactly 785 496 ops. Its DPU half
/// runs the offloaded client `single(ClientPlacement::Dpu)` builds, so the
/// offload is on the arm, not opt-in; the cluster, ring, fencing, incast
/// and cache work are, so none of them may move it by a single grant — and
/// the sweep's booking and wire fast paths and its zero-copy data plane
/// must keep carrying it.
#[test]
fn control_arm_sweep_simulates_the_pinned_op_count() {
    const REGION: u64 = 16 << 20;
    let (ramp, runtime) = (SimDuration::from_millis(50), SimDuration::from_millis(150));
    let mut ops = 0u64;
    let mut contended_wire = (0u64, 0u64);
    let (mut stats, mut dp) = (ResourceStats::default(), DataPlaneStats::default());
    for (jobs, qd) in [(4usize, 8usize), (1, 1)] {
        for t in [Transport::Rdma, Transport::Tcp] {
            for p in [ClientPlacement::Host, ClientPlacement::Dpu] {
                for rw in RwMode::ALL {
                    for bs in [1u64 << 20, 4 << 10] {
                        let mut w = WorldSpec::single(p)
                            .transport(t)
                            .jobs(jobs)
                            .region(REGION)
                            .mode(DataMode::Null)
                            .build_dfs();
                        let spec = JobSpec::new(rw, bs, jobs)
                            .iodepth(qd)
                            .region(REGION)
                            .windows(ramp, runtime);
                        ops += run_fio(&mut w, &spec).io.meter.ops();
                        if qd == 8 {
                            let wire = w.fabric.wire_traversal_stats();
                            contended_wire.0 += wire.batched;
                            contended_wire.1 += wire.batched + wire.per_segment;
                        } else {
                            stats.merge(w.resource_stats());
                            dp.merge(w.data_plane_stats());
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        ops, 785_496,
        "the control-arm sweep's simulated ops are pinned"
    );
    assert_eq!(
        stats.fastpath_hits, stats.bookings,
        "uncontended booking hit rate"
    );
    assert_eq!(dp.bytes_copied, 0, "the uncontended sweep is zero-copy");
    let batched_rate = contended_wire.0 as f64 / contended_wire.1 as f64;
    assert!(
        batched_rate >= 0.9966,
        "contended wire batched rate {batched_rate:.4}"
    );
}

#[test]
fn different_seeds_differ() {
    let run = |seed: u64| {
        let mut w = LocalFioWorld::new(1, 2, 64 << 20, DataMode::Null);
        let r = run_fio(
            &mut w,
            &short(JobSpec::new(RwMode::RandRead, 4096, 2).seed(seed)),
        );
        r.io.latency.mean().as_nanos()
    };
    // Different random offsets -> (almost surely) different mean latency
    // at nanosecond resolution.
    assert_ne!(run(1), run(2));
}

#[test]
fn full_system_replays_identically() {
    use bytes::Bytes;
    use ros2::core::{Ros2Config, Ros2System};
    let run = || {
        let mut sys = Ros2System::launch(Ros2Config::default()).unwrap();
        let mut f = sys.create("/det").unwrap().value;
        sys.write(&mut f, 0, Bytes::from(vec![3u8; 2 << 20]))
            .unwrap();
        let r = sys.read(&f, 123, 4567).unwrap();
        (sys.now().as_nanos(), r.latency.as_nanos(), r.value)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// `Ros2System`'s timing, pinned per deployment shape: launch, create a
/// file, write 2 MiB, read 4 567 B at offset 123. The replay test above
/// only compares a run with itself; this one catches an assembly change
/// that re-times the system. Each row is (clock after the read, write
/// latency, read latency) in ns.
#[test]
fn full_system_timings_are_pinned() {
    use bytes::Bytes;
    use ros2::core::{ClusterConfig, Ros2Config, Ros2System};
    use ros2::dpu::InlineService;
    let host = Ros2Config {
        placement: ClientPlacement::Host,
        ..Ros2Config::default()
    };
    let tcp = |c: &Ros2Config| Ros2Config {
        transport: Transport::Tcp,
        ..c.clone()
    };
    let crypto = |c: &Ros2Config| Ros2Config {
        inline_service: InlineService::Crypto,
        ..c.clone()
    };
    let dpu = Ros2Config::default();
    let cases = [
        ("host/rdma", host.clone(), [4_099_090, 3_306_291, 121_555]),
        ("host/tcp", tcp(&host), [4_484_659, 3_645_719, 137_899]),
        (
            "host/rdma crypto",
            crypto(&host),
            [4_136_920, 3_344_039, 121_637],
        ),
        ("dpu/rdma", dpu.clone(), [4_289_148, 3_447_225, 141_667]),
        ("dpu/tcp", tcp(&dpu), [4_843_263, 3_922_898, 170_666]),
        (
            "dpu/rdma crypto",
            crypto(&dpu),
            [4_308_178, 3_466_091, 141_831],
        ),
        (
            "dpu/rdma 4 engines rf2",
            Ros2Config {
                cluster: ClusterConfig {
                    engines: 4,
                    replication_factor: 2,
                },
                ..dpu
            },
            [4_462_000, 3_620_061, 141_667],
        ),
    ];
    for (name, config, pinned) in cases {
        let mut sys = Ros2System::launch(config).unwrap();
        let mut f = sys.create("/pin").unwrap().value;
        let w = sys
            .write(&mut f, 0, Bytes::from(vec![5u8; 2 << 20]))
            .unwrap();
        let r = sys.read(&f, 123, 4567).unwrap();
        assert_eq!(r.value.len(), 4567, "{name}");
        let got = [
            sys.now().as_nanos(),
            w.latency.as_nanos(),
            r.latency.as_nanos(),
        ];
        assert_eq!(got, pinned, "{name}: (now, write, read) ns");
    }
}
