//! System tests for the multi-client incast world (PR 9): fairness on
//! the shared storage ports, bounded engine-side connection state under
//! pool pressure, and the RAS push fan-out surviving an engine kill with
//! zero failed ops — including the `ros2_fio::figures::incast` cells that
//! `fig_incast` prints and the `figures::cache` carve sweep of
//! `fig_cache`.

use ros2_core::{FaultPlan, ScheduledCorruption};
use ros2_fio::figures::{cache, incast};
use ros2_fio::{run_fio, Clients, FioReport, JobSpec, RwMode, WorldSpec};
use ros2_sim::{SimDuration, SimTime};

const REGION: u64 = 4 << 20;

fn incast_spec(total_jobs: usize) -> JobSpec {
    incast::read_spec(total_jobs, REGION)
}

fn write_spec(total_jobs: usize) -> JobSpec {
    incast::write_spec(total_jobs, REGION)
}

#[test]
fn incast_world_runs_every_client_and_stays_fair() {
    let mut w = WorldSpec::cluster(2)
        .clients(Clients::host(8))
        .jobs(2)
        .region(REGION)
        .build_incast();
    assert_eq!(w.client_count(), 8);
    assert_eq!(w.total_jobs(), 16);

    let spec = incast_spec(w.total_jobs());
    let report: FioReport = run_fio(&mut w, &spec);
    assert_eq!(report.io.errors.get(), 0, "incast run must not error");
    assert!(report.io.meter.ops() > 0);

    // Fairness: every client makes progress, and no client starves —
    // the per-client op spread stays within 2x on the symmetric plan.
    let ops = w.per_client_ops();
    let min = *ops.iter().min().unwrap();
    let max = *ops.iter().max().unwrap();
    assert!(min > 0, "every client must issue ops: {ops:?}");
    assert!(
        max <= 2 * min,
        "symmetric clients must share the storage ports fairly: {ops:?}"
    );
}

#[test]
fn mixed_host_dpu_clients_share_one_cluster() {
    let mut w = WorldSpec::cluster(2)
        .clients(Clients::mixed(2, 2))
        .jobs(1)
        .region(REGION)
        .build_incast();
    let spec = incast_spec(w.total_jobs());
    let report = run_fio(&mut w, &spec);
    assert_eq!(report.io.errors.get(), 0);
    assert!(w.per_client_ops().iter().all(|&o| o > 0));
    // The host entries run in-process; the DPU entries run the offloaded
    // client, which carries their ops.
    for client in &w.clients[..2] {
        assert!(client.offloaded().is_none());
    }
    for client in &w.clients[2..] {
        assert!(client.offloaded().is_some());
        assert!(client.dpu_stats().ops_offloaded > 0);
    }
}

#[test]
fn pool_keeps_resident_state_bounded_under_thrash() {
    // 8 clients through a 2-session pool: every admission round-robins
    // the LRU set, so the pool must evict constantly yet never exceed
    // its capacity — and the workload must not notice.
    let mut w = WorldSpec::cluster(2)
        .clients(Clients::host(8))
        .jobs(1)
        .region(REGION)
        .pool_capacity(2)
        .build_incast();
    let spec = incast_spec(w.total_jobs());
    let report = run_fio(&mut w, &spec);
    assert_eq!(report.io.errors.get(), 0);

    let stats = w.cluster.conn_pool_stats();
    assert!(stats.resident_peak <= 2, "pool overflowed: {stats:?}");
    assert_eq!(stats.admits, stats.hits + stats.misses);
    assert!(stats.evictions > 0, "8 clients must thrash a 2-slot pool");
    assert!(stats.reconnects > 0, "evicted clients must re-handshake");
    assert!(
        stats.misses >= 8,
        "every client pays at least its first handshake: {stats:?}"
    );
}

#[test]
fn pool_sized_to_the_client_count_converges_to_hits() {
    let mut w = WorldSpec::cluster(2)
        .clients(Clients::host(4))
        .jobs(2)
        .region(REGION)
        .pool_capacity(4)
        .build_incast();
    let spec = incast_spec(w.total_jobs());
    let report = run_fio(&mut w, &spec);
    assert_eq!(report.io.errors.get(), 0);

    let stats = w.cluster.conn_pool_stats();
    assert!(stats.resident_peak <= 4);
    assert_eq!(
        stats.evictions, 0,
        "a pool as large as the client set never evicts: {stats:?}"
    );
    assert_eq!(stats.misses, 4, "exactly one cold handshake per client");
    assert!(
        stats.hit_rate() > 0.95,
        "steady state must be hits: {stats:?}"
    );
}

/// An engine kill under incast, its new map pushed to every client: 8
/// clients here, and the `fig_incast` kill cell (64 clients, the kill 140
/// ops in, the push 5 ms late), pinned at the values the retired incast
/// JSON gate held.
#[test]
fn engine_kill_with_ras_push_loses_no_ops() {
    let w = WorldSpec::cluster(4)
        .clients(Clients::host(8))
        .replication(2)
        .jobs(1)
        .region(REGION)
        .build_incast();
    let spec = write_spec(w.total_jobs());
    let eight = incast::run_kill(w, &spec, 48, SimDuration::from_millis(1));
    let figure = incast::kill_cell();
    for (tag, cell) in [("8 clients", &eight), ("fig_incast", &figure)] {
        assert_eq!(
            cell.failed, 0,
            "{tag}: a kill under incast must complete with zero failed ops"
        );
        let retry = cell.retry;
        assert!(
            retry.retries >= 1,
            "{tag}: the delayed push must drive the ladder: {retry:?}"
        );
        assert_eq!(retry.exhausted, 0, "{tag}: no op may exhaust its budget");
        assert!(
            cell.fences >= 1,
            "{tag}: clients racing the pushed revision must fence at least once"
        );
    }
    assert_eq!(
        (
            figure.failed,
            figure.fences,
            figure.retry.retries,
            figure.retry.exhausted
        ),
        (0, 14, 14, 0),
        "{figure:?}"
    );
}

#[test]
fn scheduled_bitrot_fires_under_incast_and_scrub_repairs_it() {
    let run = || {
        let mut w = WorldSpec::cluster(3)
            .clients(Clients::host(2))
            .replication(2)
            .jobs(1)
            .region(REGION)
            .build_incast();
        w.set_fault_plan(FaultPlan {
            bitrot: vec![ScheduledCorruption {
                after_client_ops: w.total_ops() + 8,
                slot: 0,
                object_index: 0,
            }],
            ..FaultPlan::none()
        });
        // Writes never fetch-verify: the rot stays silent until scrubbed.
        let spec = write_spec(w.total_jobs());
        let report = run_fio(&mut w, &spec);
        assert_eq!(report.io.errors.get(), 0);
        let (scrub, _) = w
            .cluster
            .scrub(&mut w.fabric, SimTime::ZERO)
            .expect("scrub pass runs");
        assert!(
            scrub.mismatches_found >= 1,
            "the scheduled rot never fired: {scrub:?}"
        );
        assert_eq!(scrub.mismatches_repaired, scrub.mismatches_found);
        (
            report.io.meter.ops(),
            report.gib_per_sec().to_bits(),
            w.per_client_ops(),
            scrub,
        )
    };
    assert_eq!(run(), run(), "replay must be bit-identical");
}

#[test]
fn incast_worlds_replay_bit_identically() {
    let run = || {
        let mut w = WorldSpec::cluster(2)
            .clients(Clients::host(16))
            .jobs(1)
            .region(REGION)
            .pool_capacity(4)
            .build_incast();
        let spec = incast_spec(w.total_jobs());
        let r = run_fio(&mut w, &spec);
        (
            r.io.meter.ops(),
            r.gib_per_sec().to_bits(),
            w.per_client_ops(),
            w.cluster.conn_pool_stats(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn offloaded_incast_clients_warm_their_own_caches() {
    // Three real DPU clients, each with its own 64 MiB read-cache carve,
    // re-reading small blocks from a shared replicated cluster: every
    // client must make progress, every cache must fill and hit, and the
    // RAS push after a kill must sweep all of them without a failed op.
    let mut w = WorldSpec::cluster(3)
        .replication(2)
        .clients(Clients::offloaded(3))
        .jobs(1)
        .region(REGION)
        .dpu_cache(64 << 20)
        .build_incast();
    assert_eq!(w.client_count(), 3);

    let spec = JobSpec::new(RwMode::RandRead, 16 << 10, w.total_jobs())
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(20))
        .seed(9);
    let report = run_fio(&mut w, &spec);
    assert_eq!(report.io.errors.get(), 0, "offloaded incast must not error");
    assert!(w.per_client_ops().iter().all(|&o| o > 0));
    let s = w.cache_stats();
    assert!(s.fills > 0 && s.hits > 0, "caches must warm: {s:?}");

    // A kill bumps the map revision; the push fan-out must invalidate
    // every client's resident entries.
    let before = w.cache_stats().invalidations;
    w.kill_engine(ros2_sim::SimTime::ZERO, 0).unwrap();
    let spec2 = JobSpec::new(RwMode::RandRead, 16 << 10, w.total_jobs())
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(20))
        .seed(11);
    let report2 = run_fio(&mut w, &spec2);
    assert_eq!(report2.io.errors.get(), 0, "post-kill reads must not error");
    assert!(
        w.cache_stats().invalidations > before,
        "the RAS push must sweep stale-map entries: {:?}",
        w.cache_stats()
    );
}

/// The `fig_incast` sweep: 1, 16, 64 and 256 host clients of 1 MiB random
/// reads on 4 engines RF 2 behind a 64-session pool. Aggregate throughput
/// grows until the storage ports saturate and then holds — incast on a
/// lossless fabric is a fairness story, not a collapse — while engine-side
/// session state stays within the pool: clients that fit it pay one cold
/// handshake each, 256 thrash it by design. Floors are the values the
/// retired `BENCH_PR9` gate held, less its 1e-3 tolerance.
#[test]
fn incast_sweep_saturates_the_ports_fairly_within_the_pool() {
    const POOL: usize = incast::POOL_CAPACITY;
    let floors = [1.1709, 17.4795, 23.0459, 23.0459];
    let mut gib = [0.0; 4];
    for (i, (clients, floor)) in incast::CLIENT_COUNTS.into_iter().zip(floors).enumerate() {
        let cell = incast::sweep_cell(clients);
        assert_eq!(cell.failed, 0, "{clients} clients");
        let ops = &cell.per_client_ops;
        let (min, max) = (*ops.iter().min().unwrap(), *ops.iter().max().unwrap());
        assert!(
            max <= 2 * min,
            "{clients} clients share the ports fairly: {ops:?}"
        );
        let pool = cell.pool;
        assert!(
            pool.resident_peak <= POOL as u64,
            "{clients} clients: {pool:?}"
        );
        if clients <= POOL {
            assert_eq!(
                (pool.misses, pool.evictions),
                (clients as u64, 0),
                "{pool:?}"
            );
            assert!(pool.hit_rate() > 0.85, "{clients} clients: {pool:?}");
        } else {
            assert!(
                pool.evictions > 0,
                "{clients} clients oversubscribe the pool"
            );
        }
        gib[i] = cell.gib_s;
        assert!(gib[i] >= floor, "{clients} clients: {:.4} GiB/s", gib[i]);
    }
    assert!(gib[1] > gib[0] * 1.5, "16 clients outrun 1: {gib:?}");
    let peak = gib.iter().cloned().fold(0.0, f64::max);
    assert!(
        gib[3] > peak * 0.60,
        "256 clients degrade gracefully: {gib:?}"
    );
}

/// The `fig_cache` sweep: 1, 2 and 4 offloaded clients, each carving 0,
/// 1 MiB or 16 MiB of DPU DRAM, re-reading 16 KiB blocks of an 8 MiB
/// working set. The cache-off arm books nothing; the 1 MiB carve is below
/// the working set and must evict; the hit rate grows with the carve.
#[test]
fn offloaded_incast_hit_rate_grows_with_the_carve() {
    for clients in cache::SWEEP_CLIENTS {
        let [off, small, large] = cache::SWEEP_CARVES.map(|carve| {
            let cell = cache::sweep_cell(clients, carve);
            assert_eq!(cell.failed, 0, "{clients} clients, carve {carve}");
            cell.cache
        });
        assert_eq!(
            off,
            Default::default(),
            "{clients} clients: cache off books nothing"
        );
        assert!(
            small.evictions > 0,
            "{clients} clients: a sub-working-set carve evicts"
        );
        let (small, large) = (small.hit_rate(), large.hit_rate());
        assert!(
            large > small && small > 0.0,
            "{clients} clients: hit rate 1 MiB {small:.3} vs 16 MiB {large:.3}"
        );
    }
}
