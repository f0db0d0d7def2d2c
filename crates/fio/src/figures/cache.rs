//! DPU read cache (`fig_cache`): host vs offloaded 4 KiB random reads,
//! serial and at QD 32, with the cache off and with a 64 MiB carve over
//! the 16 MiB working set; and the hit rate of 1, 2 and 4 offloaded
//! clients as each client's carve straddles its working set. DESIGN.md §15
//! describes the cache; `worlds_tests` and `crates/fio/tests/incast.rs`
//! assert the cells.

use ros2_nvme::DataMode;
use ros2_sim::SimDuration;

use super::qd::{self, one_job_randread};
use super::{host, offloaded, JobCell};
use crate::{run_fio, Clients, JobSpec, RwMode, WorldSpec};

/// Block size of the A/B cells.
pub const BS: u64 = 4096;
/// Per-job region of the A/B cells: the QD sweep's.
pub const REGION: u64 = qd::REGION;
/// Carve comfortably above the 16 MiB working set: the warm cells run at
/// full residency after the ramp.
pub const CARVE: u64 = 64 << 20;
/// The A/B points: (QD, pipelined) — serial, and the op ring at QD 32.
pub const AB_POINTS: [(usize, bool); 2] = [(1, false), (32, true)];

/// Incast sweep axes: client count × per-client carve (0 = cache off).
pub const SWEEP_CLIENTS: [usize; 3] = [1, 2, 4];
/// See [`SWEEP_CLIENTS`].
pub const SWEEP_CARVES: [u64; 3] = [0, 1 << 20, 16 << 20];
/// Engines of the sweep's cluster.
const SWEEP_ENGINES: usize = 4;
/// Replication factor of the sweep's cluster.
const SWEEP_RF: usize = 2;
/// Per-client working set of the sweep — sized between the two non-zero
/// carves so the 1 MiB carve must evict and the 16 MiB carve never does.
const SWEEP_REGION: u64 = 8 << 20;

/// One A/B point on its three arms.
#[derive(Clone, Debug)]
pub struct AbCell {
    /// The host client.
    pub host: JobCell,
    /// The offloaded client, cache off.
    pub cold: JobCell,
    /// The offloaded client with a [`CARVE`] cache.
    pub warm: JobCell,
}

/// The A/B point (`qd`, `pipelined`).
pub fn ab_cell(qd: usize, pipelined: bool) -> AbCell {
    let run = |world| one_job_randread(world, BS, qd, pipelined);
    AbCell {
        host: run(host()),
        cold: run(offloaded()),
        warm: run(offloaded().dpu_cache(CARVE)),
    }
}

/// One sweep point: `clients` offloaded clients, each carving `carve`
/// bytes (0 = cache off), re-reading 16 KiB blocks of an 8 MiB working
/// set per client.
pub fn sweep_cell(clients: usize, carve: u64) -> JobCell {
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
    let job = JobSpec::new(RwMode::RandRead, 16 << 10, w.total_jobs())
        .iodepth(2)
        .region(SWEEP_REGION)
        .windows(SimDuration::from_millis(5), SimDuration::from_millis(25))
        .seed(9);
    let r = run_fio(&mut w, &job);
    JobCell::new(&r, w.cache_stats())
}
