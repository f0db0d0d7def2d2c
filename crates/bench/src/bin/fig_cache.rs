//! DPU read-cache figure (PR 10): the small-I/O offload gap with and
//! without the pool-map-aware read cache.
//!
//! Two experiments (asserted by
//! `worlds_tests::dpu_cache_closes_the_small_read_gap_serial_and_at_qd32`
//! and `incast.rs::offloaded_incast_hit_rate_grows_with_the_carve`):
//!
//! * **Headline A/B** — host vs DPU 4 KiB random reads on the two-node
//!   world, serial and pipelined at QD 32 (the host job is bound by its
//!   one core, the offloaded job by latency). Cache off reproduces the
//!   cold ratio; a 64 MiB carve over a 16 MiB working set brings the warm
//!   ratio to ≥ 0.90× host — repeat reads serve from DPU DRAM with zero
//!   fabric bookings and zero booked ARM CRC.
//! * **Incast sweep** — hit rate vs DRAM split vs client count: N real
//!   offloaded clients (each with its own agent and carve) fanning into
//!   one replicated cluster. The carve axis straddles the per-client
//!   working set, so the small carve evicts (partial hit rate) and the
//!   large carve converges toward full residency.

use ros2_dpu::DpuTenantSpec;
use ros2_fio::{run_fio, Clients, JobSpec, RwMode, WorldSpec};
use ros2_hw::ClientPlacement;
use ros2_nvme::DataMode;
use ros2_sim::SimDuration;

const BS: u64 = 4096;
const REGION: u64 = 16 << 20;
const JOBS: usize = 1;
/// Carve comfortably above the 16 MiB working set: the warm cells run at
/// full residency after the ramp.
const CARVE: u64 = 64 << 20;

/// Incast sweep axes: client count × per-client carve (0 = cache off).
const SWEEP_CLIENTS: [usize; 3] = [1, 2, 4];
const SWEEP_CARVES: [u64; 3] = [0, 1 << 20, 16 << 20];
const SWEEP_ENGINES: usize = 4;
const SWEEP_RF: usize = 2;
/// Per-client working set of the sweep — sized between the two non-zero
/// carves so the 1 MiB carve must evict and the 16 MiB carve never does.
const SWEEP_REGION: u64 = 8 << 20;

fn ab_spec(qd: usize) -> JobSpec {
    JobSpec::new(RwMode::RandRead, BS, JOBS)
        .iodepth(qd)
        .region(REGION)
        .windows(SimDuration::from_millis(50), SimDuration::from_millis(150))
}

/// Host arm of one A/B cell.
fn host_cell(qd: usize, pipelined: bool) -> f64 {
    let mut w = WorldSpec::single(ClientPlacement::Host)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    w.set_pipelined(pipelined);
    run_fio(&mut w, &ab_spec(qd)).gib_per_sec()
}

/// DPU arm of one A/B cell: `(GiB/s, hit rate)`.
fn dpu_cell(qd: usize, pipelined: bool, carve: Option<u64>) -> (f64, f64) {
    let mut spec = WorldSpec::single(ClientPlacement::Dpu)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .offload(vec![DpuTenantSpec::unlimited("fio")]);
    if let Some(bytes) = carve {
        spec = spec.dpu_cache(bytes);
    }
    let mut w = spec.build_dfs();
    w.set_pipelined(pipelined);
    let r = run_fio(&mut w, &ab_spec(qd));
    (r.gib_per_sec(), w.client.cache_stats().hit_rate())
}

fn main() {
    println!("DPU read-cache A/B: {BS} B RandRead, region {REGION} B, carve {CARVE} B");

    // ---- headline A/B: serial and QD 32 ----
    for &(qd, pipelined, label) in &[(1usize, false, "serial"), (32usize, true, "qd32")] {
        let host = host_cell(qd, pipelined);
        let (cold, _) = dpu_cell(qd, pipelined, None);
        let (warm, warm_hr) = dpu_cell(qd, pipelined, Some(CARVE));
        let (cold_ratio, warm_ratio) = (cold / host.max(1e-12), warm / host.max(1e-12));
        println!(
            "  {label:>6}: host {:>8.1} MiB/s  cold {:>8.1} ({cold_ratio:.3}x)  \
             warm {:>8.1} ({warm_ratio:.3}x, hit rate {warm_hr:.3})",
            host * 1024.0,
            cold * 1024.0,
            warm * 1024.0,
        );
    }

    // ---- incast sweep: hit rate vs carve vs client count ----
    println!("incast sweep: clients {SWEEP_CLIENTS:?} x carve {SWEEP_CARVES:?} B");
    for &clients in &SWEEP_CLIENTS {
        for &carve in &SWEEP_CARVES {
            let mut spec = WorldSpec::cluster(SWEEP_ENGINES)
                .replication(SWEEP_RF)
                .clients(Clients::offloaded(clients))
                .jobs(1)
                .region(SWEEP_REGION)
                .mode(DataMode::Null);
            if carve > 0 {
                spec = spec.dpu_cache(carve);
            }
            let mut w = spec.build_incast();
            let job_spec = JobSpec::new(RwMode::RandRead, 16 << 10, w.total_jobs())
                .iodepth(2)
                .region(SWEEP_REGION)
                .windows(SimDuration::from_millis(5), SimDuration::from_millis(25))
                .seed(9);
            let r = run_fio(&mut w, &job_spec);
            let s = w.cache_stats();
            println!(
                "  clients={clients} carve={carve:>9}  {:>8.1} MiB/s  \
                 hit rate {:.3}  hits {:>6}  evictions {:>5}",
                r.gib_per_sec() * 1024.0,
                s.hit_rate(),
                s.hits,
                s.evictions
            );
        }
    }
}
