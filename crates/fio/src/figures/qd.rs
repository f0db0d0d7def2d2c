//! Queue depth (`fig_qd`): one job of 4 KiB and 1 MiB random reads at QD
//! 1 to 32, host and offloaded arms, op ring on — and the one-job cell
//! `fig_cache` shares. DESIGN.md §11 describes the shape; `worlds_tests`
//! asserts it.

use ros2_nvme::DataMode;
use ros2_sim::SimDuration;

use super::{host, offloaded, JobCell};
use crate::{run_fio, JobSpec, RwMode, WorldSpec};

/// Queue-depth axis of the sweep.
pub const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Block sizes: the small-I/O regime the ring exists for, and a
/// wire-bound control.
pub const BLOCKS: [u64; 2] = [4096, 1 << 20];
/// Jobs per cell.
pub const JOBS: usize = 1;
/// Preconditioned bytes of the job's file.
pub(crate) const REGION: u64 = 16 << 20;

/// One job of `bs` random reads at `qd` over [`REGION`], 50 ms ramp and
/// 150 ms measured, on the serial call or the op ring (`pipelined`).
pub(crate) fn one_job_randread(world: WorldSpec, bs: u64, qd: usize, pipelined: bool) -> JobCell {
    let mut w = world
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    w.set_pipelined(pipelined);
    let spec = JobSpec::new(RwMode::RandRead, bs, JOBS)
        .iodepth(qd)
        .region(REGION)
        .windows(SimDuration::from_millis(50), SimDuration::from_millis(150));
    let r = run_fio(&mut w, &spec);
    JobCell::new(&r, w.client.cache_stats())
}

/// One sweep point on both arms.
#[derive(Clone, Debug)]
pub struct QdCell {
    /// The host client.
    pub host: JobCell,
    /// The offloaded client.
    pub dpu: JobCell,
}

/// The sweep point (`bs`, `qd`); the figure runs it with the ring on.
pub fn cell(bs: u64, qd: usize, pipelined: bool) -> QdCell {
    QdCell {
        host: one_job_randread(host(), bs, qd, pipelined),
        dpu: one_job_randread(offloaded(), bs, qd, pipelined),
    }
}
