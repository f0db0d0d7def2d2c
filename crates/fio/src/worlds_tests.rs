//! Tests for the assembled benchmark worlds, and the tier-1 assertions
//! over the `figures::scaleout`, `figures::qd` and `figures::cache` A/B
//! cells that the `fig_scaleout`, `fig_qd` and `fig_cache` binaries print.

use ros2_dpu::DpuStats;
use ros2_hw::{ClientPlacement, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{BandwidthServer, QosLane, ServerPool, SimDuration, SimTime, Timed, Visit};

use crate::driver::{run_fio, FioOp, Workload};
use crate::figures::{cache, host, offloaded, qd, scaleout};
use crate::spec::{JobSpec, RwMode};
use crate::worlds::{LocalFioWorld, SpdkFioWorld};
use crate::worldspec::{Clients, WorldSpec};

fn quick(s: JobSpec) -> JobSpec {
    s.windows(SimDuration::from_millis(20), SimDuration::from_millis(80))
}

/// The `fig_scaleout` sweep: 16 jobs of 1 MiB sequential reads against
/// 1, 2, 4 and 8 RF 1 engines. One engine is drive-bound; two already
/// fill the client's shared 100 Gbps port, and more flatten beneath it.
/// The floors are the values the retired `BENCH_PR5` gate held, less its
/// 1e-3 tolerance.
#[test]
fn cluster_world_engages_multiple_engines_and_outruns_one() {
    let sweep = scaleout::ENGINES.map(scaleout::scale_cell);
    for (engines, cell) in scaleout::ENGINES.iter().zip(&sweep) {
        assert_eq!(cell.failed, 0, "{engines} engines: failed ops");
    }
    let gib = sweep.map(|c| c.gib_s);
    assert!(
        sweep[2].engaged >= 3,
        "files must spread across engines ({}/4)",
        sweep[2].engaged
    );
    assert!(
        gib[1] >= gib[0] * 1.8909,
        "2 drive-bound engines must clearly outrun 1: {gib:?}"
    );
    for w in gib.windows(2) {
        assert!(
            w[1] > w[0] * 0.92,
            "throughput must not collapse as engines are added: {gib:?}"
        );
    }
    let port = ros2_hw::gbps(100) as f64 / (1u64 << 30) as f64;
    let peak = gib.iter().cloned().fold(0.0, f64::max);
    assert!(
        (10.8999..=port * 1.02).contains(&peak),
        "8 engines saturate the shared {port:.2} GiB/s port without exceeding it: {gib:?}"
    );
}

/// The `fig_scaleout` resilience cell: 4 engines RF 2, 8 jobs of 1 MiB
/// reads; the first file's leader dies after a healthy pass.
#[test]
fn cluster_world_rf2_kill_serves_degraded_then_rebuilds() {
    let cell = scaleout::resilience_cell();
    assert_eq!(cell.failed, 0, "healthy, degraded and post-rebuild reads");
    let moved = cell.rebuild;
    assert!(moved.degraded_fetches > 0);
    assert!(
        moved.objects_moved > 0 && moved.bytes_moved > 0,
        "{moved:?}"
    );
    // Floors: the retired `BENCH_PR5` values, less its 1e-3 tolerance.
    let (degraded, recovered) = (cell.degraded_gib_s, cell.post_rebuild_gib_s);
    assert!(
        degraded >= 9.5449 && recovered >= 9.5449,
        "degraded {degraded:.4}, post-rebuild {recovered:.4} GiB/s"
    );
}

#[test]
fn local_world_routes_jobs_round_robin_over_devices() {
    let mut w = LocalFioWorld::new(2, 4, 64 << 20, DataMode::Stored);
    for job in 0..4usize {
        w.issue(
            SimTime::ZERO,
            job,
            &FioOp {
                write: true,
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
    }
    // Jobs 0,2 hit device 0; jobs 1,3 hit device 1.
    assert_eq!(w.array().device(0).stats().writes, 2);
    assert_eq!(w.array().device(1).stats().writes, 2);
}

#[test]
fn local_world_jobs_on_same_device_use_disjoint_regions() {
    let mut w = LocalFioWorld::new(1, 2, 1 << 20, DataMode::Stored);
    // Both jobs write at their offset 0; the lanes must not collide.
    for job in 0..2usize {
        w.issue(
            SimTime::ZERO,
            job,
            &FioOp {
                write: true,
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
    }
    let stats = w.array().device(0).stats().clone();
    assert_eq!(stats.writes, 2);
    // Two distinct LBAs were written (1 MiB lane stride = LBA 256).
    assert_eq!(stats.bytes_written, 8192);
}

#[test]
fn local_world_runs_the_driver_end_to_end() {
    let mut w = LocalFioWorld::new(1, 2, 256 << 20, DataMode::Null);
    let r = run_fio(&mut w, &quick(JobSpec::new(RwMode::RandRead, 4096, 2)));
    assert!(r.iops() > 50_000.0, "{}", r.summary());
    assert_eq!(r.io.errors.get(), 0);
}

#[test]
fn spdk_world_reads_what_it_wrote() {
    let mut w = SpdkFioWorld::new(Transport::Rdma, 4, 4, 2, 64 << 20, DataMode::Stored);
    let done = w
        .issue(
            SimTime::ZERO,
            1,
            &FioOp {
                write: true,
                offset: 8192,
                len: 4096,
            },
        )
        .unwrap();
    let done2 = w
        .issue(
            done,
            1,
            &FioOp {
                write: false,
                offset: 8192,
                len: 4096,
            },
        )
        .unwrap();
    assert!(done2 > done);
}

#[test]
fn spdk_world_per_job_regions_do_not_overlap() {
    // Job regions are laid out consecutively on the single bdev; writing
    // job 0's offset 0 and job 1's offset 0 lands on different LBAs.
    let mut w = SpdkFioWorld::new(Transport::Tcp, 2, 2, 2, 1 << 20, DataMode::Stored);
    for job in 0..2usize {
        w.issue(
            SimTime::ZERO,
            job,
            &FioOp {
                write: true,
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
    }
    // Both writes persisted (no overwrite of the same LBA would still show
    // 2 writes, but byte accounting plus region math is what we assert).
    assert!(w
        .issue(
            SimTime::from_secs(1),
            0,
            &FioOp {
                write: false,
                offset: 0,
                len: 4096
            }
        )
        .is_ok());
}

#[test]
fn dfs_world_preconditions_real_extents() {
    let mut w = host().jobs(2).region(8 << 20).build_dfs();
    assert_eq!(w.file(0).size, 8 << 20);
    assert_eq!(w.file(1).size, 8 << 20);
    // Measured random reads hit real (non-hole) extents: the engine's VOS
    // recorded one extent per chunk per file.
    let stats = w.cluster.vos_stats();
    assert!(stats.array_updates >= 16, "{stats:?}");
    // And a read through the world works at t=0 after the clock reset.
    let done = w
        .issue(
            SimTime::ZERO,
            0,
            &FioOp {
                write: false,
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
    assert!(done > SimTime::ZERO);
}

#[test]
fn dfs_world_clock_reset_measures_from_zero() {
    // Preconditioning consumed seconds of virtual time; the first measured
    // op must still see an idle system (latency ~ the clean-path RTT, far
    // below a queued-behind-preconditioning value).
    let mut w = host().region(32 << 20).mode(DataMode::Null).build_dfs();
    let done = w
        .issue(
            SimTime::ZERO,
            0,
            &FioOp {
                write: false,
                offset: 0,
                len: 4096,
            },
        )
        .unwrap();
    assert!(
        done < SimTime::from_millis(1),
        "first op must not queue behind preconditioning: {done}"
    );
}

/// Counts the pipes, pools and lanes a walk reaches, and those of them
/// that are not idle from t = 0: busy time or a booking or an admission
/// on record, or a booking that ends after t = 0.
#[derive(Default)]
struct Idle {
    leaves: usize,
    busy: usize,
}

impl Idle {
    fn count(&mut self, idle: bool) {
        self.leaves += 1;
        self.busy += usize::from(!idle);
    }
}

impl Visit for Idle {
    fn pipe(&mut self, pipe: &mut BandwidthServer) {
        self.count(
            pipe.busy_time() == SimDuration::ZERO
                && pipe.stats().bookings == 0
                && pipe.tail_free() == SimTime::ZERO,
        );
    }

    fn pool(&mut self, pool: &mut ServerPool) {
        self.count(
            pool.busy_time() == SimDuration::ZERO
                && pool.stats().bookings == 0
                && pool.drain_time(SimTime::ZERO) == SimTime::ZERO,
        );
    }

    fn lane(&mut self, lane: &mut QosLane) {
        self.count(lane.admitted == (0, 0) && lane.throttle_wait == SimDuration::ZERO);
    }
}

/// The reset `build_dfs` and `build_incast` run after preconditioning
/// reaches every pipe, pool and lane of the world, the offloaded client's
/// lanes, tenants and read cache included, and keeps the data plane's
/// counters (preconditioning wrote every file through it).
#[test]
fn every_leaf_is_idle_at_t0_after_preconditioning() {
    fn idle(w: &mut dyn Timed) -> Idle {
        let mut idle = Idle::default();
        w.visit(&mut idle);
        idle
    }
    for (name, spec) in [
        ("dpu", offloaded().region(4 << 20).mode(DataMode::Null)),
        (
            "dpu + cache",
            offloaded().region(4 << 20).dpu_cache(8 << 20),
        ),
    ] {
        let mut w = spec.build_dfs();
        let seen = idle(&mut w);
        // 2 fabric nodes × (2 pipes + 3 pools) + 1 connection × 2 stages
        // + the lane's core pool and its tenant's lane + 1 xstream pool +
        // 1 drive's channel pool + 3 service lanes.
        assert_eq!(seen.leaves, 19, "{name}");
        assert_eq!(seen.busy, 0, "{name}: leaves busy after the reset");
        assert_eq!(w.client.dpu_stats(), DpuStats::default(), "{name}");
        assert!(w.data_plane_stats().bytes_zero_copy > 0, "{name}");
    }
    let mut w = WorldSpec::cluster(3)
        .replication(2)
        .clients(Clients::mixed(2, 2))
        .region(4 << 20)
        .mode(DataMode::Null)
        .build_incast();
    let seen = idle(&mut w);
    // 7 fabric nodes × 5 + 4 clients × 3 engines connections × 2 stages
    // + 2 host core pools + 2 offloaded lanes × (core pool + tenant lane) +
    // 3 engines × (xstream pool + channel pool) + 3 service lanes.
    assert_eq!(seen.leaves, 35 + 24 + 2 + 4 + 6 + 3);
    assert_eq!(seen.busy, 0, "incast: leaves busy after the reset");
    assert!(w.data_plane_stats().bytes_zero_copy > 0);
}

#[test]
fn dfs_world_runs_all_four_patterns() {
    for rw in RwMode::ALL {
        let mut w = host()
            .transport(Transport::Tcp)
            .jobs(2)
            .region(32 << 20)
            .mode(DataMode::Null)
            .build_dfs();
        let r = run_fio(&mut w, &quick(JobSpec::new(rw, 4096, 2).region(32 << 20)));
        assert!(r.iops() > 1000.0, "{:?}: {}", rw, r.summary());
        assert_eq!(r.io.errors.get(), 0, "{rw:?}");
    }
}

/// The Host-placement A/B pin: these exact numbers — op counts, simulated
/// throughput bits, booking counters, data-plane byte accounting — were
/// recorded from the pre-offload `DaosClient` path (PR 3 head) on a fixed
/// cell plan. The `FioClient`/`ObjectClient` refactor and every later PR
/// must reproduce them bit-for-bit: host placement is the control arm of
/// the host-vs-DPU comparison.
#[test]
fn host_placement_results_are_pinned() {
    // (transport, mode, bs, ops, gib/s bits, bookings, fastpath hits,
    //  zero-copy bytes, copied bytes)
    type PinnedCell = (Transport, RwMode, u64, u64, u64, u64, u64, u64, u64);
    let pinned: [PinnedCell; 4] = [
        (
            Transport::Rdma,
            RwMode::Write,
            1 << 20,
            200,
            0x4003880000000000,
            8960,
            7920,
            570426526,
            0,
        ),
        (
            Transport::Rdma,
            RwMode::RandRead,
            4 << 10,
            5508,
            0x3fd0cf2000000000,
            117096,
            110193,
            118195358,
            0,
        ),
        (
            Transport::Tcp,
            RwMode::RandRead,
            4 << 10,
            4837,
            0x3fcd85d000000000,
            102816,
            90704,
            24773002,
            0,
        ),
        (
            Transport::Tcp,
            RwMode::Write,
            1 << 20,
            184,
            0x4001f80000000000,
            12296,
            11834,
            394,
            0,
        ),
    ];
    for (t, rw, bs, ops, gib_bits, bookings, hits, zc, copied) in pinned {
        let mut w = host()
            .transport(t)
            .jobs(2)
            .region(8 << 20)
            .mode(DataMode::Null)
            .build_dfs();
        let spec = JobSpec::new(rw, bs, 2)
            .iodepth(4)
            .region(8 << 20)
            .windows(SimDuration::from_millis(20), SimDuration::from_millis(80));
        let r = run_fio(&mut w, &spec);
        let stats = w.resource_stats();
        let dp = w.data_plane_stats();
        let cell = format!("({t:?}, {rw:?}, {bs})");
        assert_eq!(r.io.meter.ops(), ops, "{cell}: ops drifted");
        assert_eq!(
            r.gib_per_sec().to_bits(),
            gib_bits,
            "{cell}: simulated throughput drifted ({} GiB/s)",
            r.gib_per_sec()
        );
        assert_eq!(stats.bookings, bookings, "{cell}: bookings drifted");
        assert_eq!(stats.fastpath_hits, hits, "{cell}: fast-path hits drifted");
        assert_eq!(dp.bytes_zero_copy, zc, "{cell}: zero-copy bytes drifted");
        assert_eq!(dp.bytes_copied, copied, "{cell}: copied bytes drifted");
        // And the host world never engages the offload machinery.
        assert_eq!(w.client.dpu_stats(), Default::default());
    }
}

#[test]
fn offloaded_world_runs_the_full_dpu_pipeline() {
    let mut w = offloaded()
        .jobs(2)
        .region(8 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    let ops_before = w.client.ops(); // preconditioning ops (counter is cumulative)
    let r = run_fio(
        &mut w,
        &quick(
            JobSpec::new(RwMode::Write, 1 << 20, 2)
                .iodepth(4)
                .region(8 << 20),
        ),
    );
    assert!(r.io.meter.ops() > 0);
    assert_eq!(r.io.errors.get(), 0);
    let s = w.client.dpu_stats();
    assert_eq!(
        s.ops_offloaded,
        w.client.ops() - ops_before,
        "every data-plane op must run offloaded"
    );
    assert!(s.host_submits > 0 && s.host_polls > 0, "{s:?}");
    assert!(
        s.bytes_admitted > 0,
        "every byte passes TenantManager::admit"
    );
    assert!(s.crc_bytes > 0, "DPU-side checksumming engaged");
    // The host handoff is visible in accounting but small per op.
    assert!(s.handoff_wait > SimDuration::ZERO);
}

#[test]
fn dpu_cache_warms_repeat_reads_and_returns_its_carve() {
    // Same offloaded world twice — cache off vs a 256 MiB carve — on a
    // small-block randread that re-reads a 2 MiB region: the warm cell
    // must show real hits and must not run slower.
    let run = |cache: Option<u64>| {
        let mut spec = offloaded().jobs(2).region(2 << 20).mode(DataMode::Null);
        if let Some(bytes) = cache {
            spec = spec.dpu_cache(bytes);
        }
        let mut w = spec.build_dfs();
        let r = run_fio(
            &mut w,
            &quick(
                JobSpec::new(RwMode::RandRead, 16 << 10, 2)
                    .iodepth(4)
                    .region(2 << 20),
            ),
        );
        assert_eq!(r.io.errors.get(), 0);
        let stats = w.client.cache_stats();
        let carve = w
            .client
            .offloaded()
            .map(|c| c.agent().cache_reserved())
            .unwrap_or(0);
        (r.gib_per_sec(), stats, carve)
    };
    let (cold, off_stats, off_carve) = run(None);
    let (warm, on_stats, on_carve) = run(Some(256 << 20));
    assert_eq!(off_stats, Default::default(), "cache off books nothing");
    assert_eq!(off_carve, 0);
    assert_eq!(on_carve, 256 << 20, "the carve is visible at the agent");
    assert!(
        on_stats.hits > 0 && on_stats.fills > 0,
        "warm cell must hit: {on_stats:?}"
    );
    assert!(
        warm >= cold,
        "the cache may never slow reads down ({warm:.2} vs {cold:.2} GiB/s)"
    );
}

/// The benchmark's `cache_mixed_dpu` cell in miniature: 4 jobs × QD 8 of
/// 16 KiB random ops over 2 MiB files, every tenth op of a job a write,
/// inside a 16 MiB carve — with payloads that are a function of (file,
/// offset, write sequence) and never zero, checked against a model on
/// every read.
struct MixedCell {
    w: crate::worlds::DfsFioWorld,
    files: Vec<ros2_dfs::DfsObj>,
    /// Ops each job has issued (every tenth writes).
    issued: [u64; 4],
    /// Per (job, block): the sequence number of the last write (0: the
    /// preconditioned zeros) and whether the block was ever read.
    blocks: Vec<(u64, bool)>,
    /// Counters when the first op past the ramp was issued.
    at_ramp: Option<(ros2_dpu::DpuCacheStats, u64)>,
    /// FNV-1a over a sample of the bytes the reads returned, in issue order.
    digest: u64,
}

impl MixedCell {
    const BS: u64 = 16 << 10;
    const REGION: u64 = 2 << 20;
    const RAMP: SimDuration = SimDuration::from_millis(5);

    fn payload(job: usize, offset: u64, seq: u64) -> bytes::Bytes {
        if seq == 0 {
            return ros2_buf::zero_bytes(Self::BS as usize);
        }
        // One value per 512-byte run, so a slice taken at the wrong
        // offset shows.
        let mut out = Vec::with_capacity(Self::BS as usize);
        for run in offset / 512..(offset + Self::BS) / 512 {
            let byte = ((run + job as u64 * 13 + seq * 7) % 251) as u8 + 1;
            out.resize(out.len() + 512, byte);
        }
        bytes::Bytes::from(out)
    }

    fn read(&mut self, now: SimTime, job: usize, offset: u64) -> (bytes::Bytes, SimTime) {
        let mut s = ros2_dfs::DfsSession {
            fabric: &mut self.w.fabric,
            cluster: &mut self.w.cluster,
            client: self.w.client.as_object(),
        };
        let file = &self.files[job];
        (self.w.dfs)
            .read(&mut s, now, job, file, offset, Self::BS)
            .expect("read")
    }
}

impl Workload for MixedCell {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        if self.at_ramp.is_none() && now >= SimTime::ZERO + Self::RAMP {
            let fetches = self.w.cluster.vos_stats().fetches;
            self.at_ramp = Some((self.w.client.cache_stats(), fetches));
        }
        self.issued[job] += 1;
        let block = (job as u64 * Self::REGION + op.offset) / Self::BS;
        let (seq, read) = &mut self.blocks[block as usize];
        if self.issued[job].is_multiple_of(10) {
            *seq = self.issued[job];
            let data = Self::payload(job, op.offset, *seq);
            let mut s = ros2_dfs::DfsSession {
                fabric: &mut self.w.fabric,
                cluster: &mut self.w.cluster,
                client: self.w.client.as_object(),
            };
            let file = &mut self.files[job];
            return (self.w.dfs)
                .write(&mut s, now, job, file, op.offset, data)
                .map_err(|e| format!("{e:?}"));
        }
        *read = true;
        let expect = Self::payload(job, op.offset, *seq);
        let (got, at) = self.read(now, job, op.offset);
        if got != expect {
            return Err(format!(
                "job {job} offset {}: stale or misplaced bytes",
                op.offset
            ));
        }
        for &b in got.iter().step_by(512) {
            self.digest = (self.digest ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        Ok(at)
    }
}

#[test]
fn mixed_cell_holds_its_cache_under_writers() {
    let run = || {
        let mut w = offloaded()
            .jobs(4)
            .region(MixedCell::REGION)
            .mode(DataMode::Stored)
            .dpu_cache(16 << 20)
            .build_dfs();
        w.set_pipelined(true);
        let carve = w.client.offloaded().unwrap().cache_usage();
        assert_eq!(
            carve,
            (0, 16 << 20),
            "preconditioning writes allocate nothing"
        );
        let mut cell = MixedCell {
            files: (0..4).map(|j| w.file(j).clone()).collect(),
            w,
            issued: [0; 4],
            blocks: vec![(0, false); 4 * (MixedCell::REGION / MixedCell::BS) as usize],
            at_ramp: None,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        let fetches_before = cell.w.cluster.vos_stats().fetches;
        let spec = JobSpec::new(RwMode::RandRead, MixedCell::BS, 4)
            .iodepth(8)
            .region(MixedCell::REGION)
            .windows(MixedCell::RAMP, SimDuration::from_millis(25));
        let r = run_fio(&mut cell, &spec);
        assert_eq!(r.io.errors.get(), 0, "a read returned stale bytes");

        // One engine fetch per distinct block read, ever: a block is
        // fetched when first read and is current from then on, through
        // every later write to it.
        let stats = cell.w.client.cache_stats();
        let fetches = cell.w.cluster.vos_stats().fetches;
        let distinct = cell.blocks.iter().filter(|b| b.1).count() as u64;
        assert_eq!(fetches - fetches_before, distinct);
        assert_eq!((stats.fills, stats.evictions), (distinct, 0));
        assert!(distinct > 400 && stats.write_updates > 1000, "{stats:?}");
        let (ramp, ramp_fetches) = cell.at_ramp.expect("the run outlasts its ramp");
        let (hits, misses) = (stats.hits - ramp.hits, stats.misses - ramp.misses);
        assert!(hits > 20_000, "hits {hits}");
        assert!(
            hits as f64 / (hits + misses) as f64 >= 0.99,
            "hit rate after the ramp: {hits} hits, {misses} misses"
        );
        assert_eq!(misses, fetches - ramp_fetches, "every miss is a first read");

        // What the cache serves now, block by block, against the authority
        // once the cache is gone — and both against the model.
        let mut now = SimTime::ZERO + SimDuration::from_millis(40);
        for pass in 0..2 {
            for (i, &(seq, _)) in cell.blocks.clone().iter().enumerate() {
                let i = i as u64 * MixedCell::BS;
                let (job, offset) = ((i / MixedCell::REGION) as usize, i % MixedCell::REGION);
                let (got, at) = cell.read(now, job, offset);
                assert_eq!(got, MixedCell::payload(job, offset, seq), "pass {pass}");
                now = at;
            }
            cell.w.client.offloaded_mut().unwrap().disable_read_cache();
        }
        (
            r.gib_per_sec().to_bits(),
            r.io.meter.ops(),
            stats,
            cell.digest,
        )
    };
    assert_eq!(run(), run(), "replay must be bit-identical");
}

#[test]
fn offloaded_qos_shapes_contended_tenants() {
    use ros2_dpu::{DpuTenantSpec, QosLimits};
    // Two tenants share the DPU, two jobs each: "capped" at 64 MiB/s,
    // "greedy" unlimited. Admission must measurably shape capped's
    // delivered bytes while greedy runs at data-plane speed.
    let capped = DpuTenantSpec {
        name: "capped".into(),
        qos: QosLimits {
            ops_per_sec: 1_000_000,
            bytes_per_sec: 64 << 20,
            burst: (1 << 20, 1 << 20),
        },
        rkey_scope: SimDuration::from_secs(30),
    };
    let mut w = WorldSpec::single(ClientPlacement::Dpu)
        .jobs(4)
        .region(8 << 20)
        .mode(DataMode::Null)
        .offload(vec![capped, DpuTenantSpec::unlimited("greedy")])
        .build_dfs();
    let r = run_fio(
        &mut w,
        &quick(
            JobSpec::new(RwMode::Write, 1 << 20, 4)
                .iodepth(4)
                .region(8 << 20),
        ),
    );
    assert!(r.io.meter.ops() > 0);
    let admitted = |name: &str| {
        w.client
            .offloaded()
            .unwrap()
            .tenants()
            .tenant(name)
            .unwrap()
            .qos
            .admitted
            .1
    };
    let (capped_bytes, greedy_bytes) = (admitted("capped"), admitted("greedy"));
    let capped_ctx = w
        .client
        .offloaded()
        .unwrap()
        .tenants()
        .tenant("capped")
        .unwrap();
    assert!(
        capped_ctx.qos.throttled > 0,
        "the capped bucket must engage"
    );
    assert!(
        capped_ctx.qos.throttle_wait > SimDuration::from_millis(100),
        "grants must queue behind the 64 MiB/s cap"
    );
    // Admissions over the 0.1 s virtual run are bounded by the cap plus
    // the burst plus the in-flight window (2 jobs × QD 4 × 1 MiB ops that
    // were admitted but granted beyond the run).
    let bound = (64 << 20) / 10 + (1 << 20) + 8 * (1 << 20);
    assert!(
        capped_bytes <= bound,
        "capped admitted {capped_bytes} B > shaped bound {bound} B"
    );
    assert!(
        greedy_bytes > capped_bytes * 5,
        "greedy ({greedy_bytes} B) must outrun capped ({capped_bytes} B)"
    );
}

#[test]
fn offloaded_tcp_fallback_pays_the_dpu_rx_penalty() {
    // Same offloaded stack on both transports, streaming *reads*: fetched
    // payloads land on the DPU, so the TCP fallback pays the BlueField
    // receive path (inline copies at ARM per-byte rates, the paper's "good
    // TX, weak RX") where RDMA pushes into registered DPU DRAM for free.
    let run = |transport| {
        let mut w = offloaded()
            .transport(transport)
            .jobs(2)
            .region(8 << 20)
            .mode(DataMode::Null)
            .build_dfs();
        run_fio(
            &mut w,
            &quick(
                JobSpec::new(RwMode::Read, 1 << 20, 2)
                    .iodepth(4)
                    .region(8 << 20),
            ),
        )
        .gib_per_sec()
    };
    let rdma = run(Transport::Rdma);
    let tcp = run(Transport::Tcp);
    assert!(
        rdma > tcp * 1.5,
        "offloaded RDMA ({rdma:.2} GiB/s) must clearly beat DPU-TCP fallback ({tcp:.2} GiB/s)"
    );
}

/// Host vs offloaded over RDMA, serial calls, 2 jobs × QD 4: at 1 MiB the
/// offload tracks the host (the retired `BENCH_PR4` gate held the mean
/// read/write ratio at 0.9565); at 4 KiB it trails by the ARM path and the
/// doorbell handoff, without re-serializing on one core per job.
#[test]
fn offloaded_rdma_tracks_the_host_at_1m_and_trails_it_at_4k() {
    let ratio = |rw: RwMode, bs: u64| {
        let spec = quick(JobSpec::new(rw, bs, 2).iodepth(4).region(8 << 20));
        let [h, d] = [host(), offloaded()].map(|s| {
            let mut w = s.jobs(2).region(8 << 20).mode(DataMode::Null).build_dfs();
            run_fio(&mut w, &spec).gib_per_sec()
        });
        d / h
    };
    let mean = |bs: u64| (ratio(RwMode::Read, bs) + ratio(RwMode::Write, bs)) / 2.0;
    let (large, small) = (mean(1 << 20), mean(4 << 10));
    assert!(large >= 0.9564, "1 MiB offload/host ratio {large:.4}");
    assert!(
        (0.70..1.0).contains(&small),
        "4 KiB offload/host ratio {small:.4}"
    );
}

/// The `fig_qd` sweep, ring on, QD 1…32, host vs offloaded. The host's
/// 4 KiB throughput scales with QD until its one core saturates; the
/// offloaded arm, latency-bound with submission spread over the lane's
/// cores, must not trail it, and at 1 MiB both ride the wire. Floors are
/// the retired `BENCH_PR6` values less its 1e-3 tolerance.
#[test]
fn queue_depth_sweep_scales_the_host_and_favours_the_offload() {
    let cell = |bs: u64, qd: usize| {
        let c = qd::cell(bs, qd, true);
        for arm in [&c.host, &c.dpu] {
            assert_eq!(arm.failed, 0, "bs={bs} qd={qd}");
        }
        [c.host.gib_s, c.dpu.gib_s]
    };
    let small = qd::DEPTHS.map(|qd| cell(4096, qd));
    let host = small.map(|[h, _]| h);
    for w in host[..4].windows(2) {
        assert!(
            w[1] > w[0] * 1.05,
            "host 4 KiB must scale QD 1->8: {host:?}"
        );
    }
    assert!(host[3] / host[0] >= 7.9998, "host 4 KiB QD8/QD1: {host:?}");
    let ratio = |i: usize| small[i][1] / small[i][0];
    assert!(ratio(0) > 0.80, "QD 1 offload/host {:.4}", ratio(0));
    assert!(ratio(3) >= 1.0833, "QD 8 offload/host {:.4}", ratio(3));
    assert!(ratio(5) >= 2.1345, "QD 32 offload/host {:.4}", ratio(5));
    for qd in qd::DEPTHS {
        let [h, d] = cell(1 << 20, qd);
        assert!(
            d / h > 0.85,
            "1 MiB QD {qd} is wire-bound on both arms: {h:.2} vs {d:.2}"
        );
    }
}

/// The `fig_cache` A/B: 4 KiB random reads, serial and at QD 32, host vs
/// offloaded cache off (cold) vs a 64 MiB carve over the 16 MiB region
/// (warm). The cache-off arm books nothing and its ratio stays where the
/// retired `BENCH_PR10` gate pinned it (±1e-3); the warm arm clears that
/// gate's floors (both far above the 0.90× acceptance floor).
#[test]
fn dpu_cache_closes_the_small_read_gap_serial_and_at_qd32() {
    // (cold ratio pin, warm ratio floor, warm hit-rate floor) per A/B
    // point: serial, then QD 32 on the ring.
    let pins = [(0.8528, 1.1098, 0.10), (2.1355, 96.6617, 0.90)];
    for ((qd, pipelined), (cold_pin, warm_floor, hit_floor)) in
        cache::AB_POINTS.into_iter().zip(pins)
    {
        let ab = cache::ab_cell(qd, pipelined);
        for arm in [&ab.host, &ab.cold, &ab.warm] {
            assert_eq!(arm.failed, 0, "qd {qd}");
        }
        assert_eq!(
            ab.cold.cache,
            Default::default(),
            "qd {qd}: cache off books nothing"
        );
        let (cold, warm) = (ab.cold.gib_s / ab.host.gib_s, ab.warm.gib_s / ab.host.gib_s);
        assert!(
            (cold - cold_pin).abs() <= 1e-3,
            "qd {qd}: cold ratio {cold:.4}"
        );
        assert!(warm >= warm_floor, "qd {qd}: warm ratio {warm:.4}");
        let hit = ab.warm.cache.hit_rate();
        assert!(hit > hit_floor, "qd {qd}: warm hit rate {hit:.3}");
    }
}

/// The claimed operating point: an offloaded client, 4 jobs × QD 16,
/// 4 KiB random writes through the op ring.
fn offloaded_small_write_cell() -> (crate::DfsFioWorld, crate::FioReport) {
    let mut w = offloaded()
        .jobs(4)
        .region(16 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    w.set_pipelined(true);
    let spec = JobSpec::new(RwMode::RandWrite, 4 << 10, 4)
        .iodepth(16)
        .region(16 << 20)
        .windows(SimDuration::from_millis(10), SimDuration::from_millis(90));
    let r = run_fio(&mut w, &spec);
    assert_eq!(r.io.errors.get(), 0);
    (w, r)
}

#[test]
fn offloaded_small_writes_are_bound_by_the_engine_xstreams() {
    use ros2_daos::DaosCostModel;
    // With submission spread over the lane's ARM cores the next limit is
    // the storage engine: one target's xstreams each spending RPC
    // handling + VOS index + checksum per 4 KiB update.
    let m = DaosCostModel::default_model();
    let per_op = m.server_per_rpc + m.vos_per_op + ros2_hw::checksum_cost(4 << 10);
    let ceiling = m.xstreams_per_target as f64 / per_op.as_secs_f64();
    let (w, dpu) = offloaded_small_write_cell();
    assert!(
        (dpu.iops() / ceiling - 1.0).abs() < 0.02,
        "offloaded 4 KiB randwrite {:.0} IOPS is not the xstream ceiling {ceiling:.0}",
        dpu.iops()
    );

    // The host arm at equal jobs/QD keeps one core per job (the submitting
    // thread is the application thread), so it must not come out ahead.
    let mut hw = host()
        .jobs(4)
        .region(16 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    hw.set_pipelined(true);
    let h = run_fio(&mut hw, &dpu.spec);
    assert!(
        dpu.iops() >= h.iops(),
        "offloaded {:.0} IOPS trails the host arm's {:.0}",
        dpu.iops(),
        h.iops()
    );

    // Core budget at this operating point: submission cores plus the DPU
    // node's network TX/RX cores, in busy core-seconds per virtual second,
    // fit the BlueField-3's cores. (Bookings of ops still in flight at the
    // window's end count too, so this over-states the load.)
    let node = w.fabric.node(ros2_verbs::NodeId(0));
    let busy = w.client.offloaded().unwrap().submission_busy_time()
        + node.tx_pool.busy_time()
        + node.rx_pool.busy_time();
    let window = dpu.spec.ramp + dpu.spec.runtime;
    let cores_busy = busy.as_secs_f64() / window.as_secs_f64();
    assert!(
        cores_busy <= node.spec.cpu.cores as f64,
        "{cores_busy:.2} busy ARM cores exceed the node's {}",
        node.spec.cpu.cores
    );
}

#[test]
fn offloaded_pool_replays_bit_identically() {
    let (wa, a) = offloaded_small_write_cell();
    let (wb, b) = offloaded_small_write_cell();
    assert_eq!(a.io.meter.ops(), b.io.meter.ops());
    assert_eq!(a.io.meter.bytes(), b.io.meter.bytes());
    assert_eq!(a.gib_per_sec().to_bits(), b.gib_per_sec().to_bits());
    for p in [0.0, 50.0, 99.0, 100.0] {
        assert_eq!(a.io.latency.percentile(p), b.io.latency.percentile(p));
    }
    assert_eq!(a.io.latency.mean(), b.io.latency.mean());
    assert_eq!(wa.client.resource_stats(), wb.client.resource_stats());
    assert_eq!(wa.client.dpu_stats(), wb.client.dpu_stats());
}
