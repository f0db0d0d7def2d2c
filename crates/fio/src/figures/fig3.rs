//! Fig. 3 (`fig3_local_fio`): local FIO through the io_uring engine on 1
//! and 4 NVMe SSDs — 1 MiB throughput (a, c) and 4 KiB IOPS (b, d) across
//! the job axis and the four POSIX access patterns.

use ros2_nvme::DataMode;

use super::{paper_rate, paper_spec, Check, Claim};
use crate::{run_fio, LocalFioWorld, RwMode};

/// The job-count axis.
pub const JOBS: [usize; 5] = [1, 2, 4, 8, 16];
/// Bytes of each job's LBA region.
const REGION: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// A cell: (SSDs, access pattern, block size, jobs).
pub type Point = (usize, RwMode, u64, usize);

/// One cell: GiB/s at 1 MiB, K IOPS at 4 KiB.
pub fn cell((ssds, rw, bs, jobs): Point) -> f64 {
    let mut world = LocalFioWorld::new(ssds, jobs, REGION, DataMode::Null);
    paper_rate(&run_fio(&mut world, &paper_spec(rw, bs, jobs, REGION)), bs)
}

/// (a) "one job suffices to saturate large-block per-device bandwidth";
/// 1-SSD reads "plateau ~5–5.6 GiB/s".
const ONE_JOB_READ: Claim = Claim::new("3a 1 SSD read, 1 job (GiB/s)", 5.0, 6.2).paper(5.0, 5.6);
/// (a) 1-SSD reads "plateau ~5–5.6 GiB/s".
const READ_PLATEAU: Claim = Claim::new("3a 1 SSD read, 16 jobs (GiB/s)", 5.0, 6.2).paper(5.0, 5.6);
/// (a) "one job suffices": 16 jobs gain at most 15 % over one.
const ONE_JOB_SATURATES: Claim = Claim::at_most("3a 1 SSD read, 16 jobs / 1 job", 1.15);

/// The 1-SSD 1 MiB read claims.
pub fn saturation(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    let one = cell((1, RwMode::Read, MIB, 1));
    let sixteen = cell((1, RwMode::Read, MIB, 16));
    vec![
        (&ONE_JOB_READ, one),
        (&READ_PLATEAU, sixteen),
        (&ONE_JOB_SATURATES, sixteen / one),
    ]
}

/// (a) 1-SSD writes plateau "~2.7 GiB/s".
const WRITE_PLATEAU: Claim = Claim::new("3a 1 SSD write, 8 jobs (GiB/s)", 2.4, 3.0);

/// The 1-SSD 1 MiB write claim.
pub fn write_plateau(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    vec![(&WRITE_PLATEAU, cell((1, RwMode::Write, MIB, 8)))]
}

/// (c) 4-SSD reads reach "~20–22 GiB/s".
const FOUR_SSD_READ: Claim =
    Claim::new("3c 4 SSDs read, 16 jobs (GiB/s)", 19.0, 24.5).paper(20.0, 22.0);
/// (c) 4-SSD writes reach "~10.6 GiB/s".
const FOUR_SSD_WRITE: Claim = Claim::new("3c 4 SSDs write, 16 jobs (GiB/s)", 9.5, 11.5);

/// The 4-SSD 1 MiB claims: large blocks scale with the drives.
pub fn four_ssds(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    vec![
        (&FOUR_SSD_READ, cell((4, RwMode::Read, MIB, 16))),
        (&FOUR_SSD_WRITE, cell((4, RwMode::Write, MIB, 16))),
    ]
}

/// (b)/(d) 4 KiB IOPS "grow ~80K (1 job)", on 1 and on 4 SSDs.
const IOPS_ONE_JOB: [Claim; 2] = [
    Claim::new("3b 1 SSD randread, 1 job (K IOPS)", 60.0, 120.0),
    Claim::new("3d 4 SSDs randread, 1 job (K IOPS)", 60.0, 120.0),
];
/// (b)/(d) "-> ~600K (16 jobs)", on 1 and on 4 SSDs.
const IOPS_SIXTEEN_JOBS: [Claim; 2] = [
    Claim::new("3b 1 SSD randread, 16 jobs (K IOPS)", 550.0, 700.0),
    Claim::new("3d 4 SSDs randread, 16 jobs (K IOPS)", 550.0, 700.0),
];
/// (b)/(d) the same ceiling "for BOTH drive counts (the software/host-path
/// limit)": 1 and 4 SSDs at 16 jobs differ by under 5 %.
const IOPS_DRIVE_INDEPENDENT: Claim =
    Claim::at_most("3b/3d randread, 16 jobs: 1 vs 4 SSDs, relative gap", 0.05);

/// The 4 KiB random-read claims: IOPS grow with jobs to a host-path limit
/// that does not depend on the drive count.
pub fn iops(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    let [one, four] =
        [1, 4].map(|ssds| [1, 16].map(|jobs| cell((ssds, RwMode::RandRead, 4096, jobs))));
    vec![
        (&IOPS_ONE_JOB[0], one[0]),
        (&IOPS_ONE_JOB[1], four[0]),
        (&IOPS_SIXTEEN_JOBS[0], one[1]),
        (&IOPS_SIXTEEN_JOBS[1], four[1]),
        (&IOPS_DRIVE_INDEPENDENT, (one[1] - four[1]).abs() / one[1]),
    ]
}

/// Every claim of the figure, valued on `cell` ([`cell`] itself or a
/// lookup into a finished sweep).
pub fn claims(cell: impl Fn(Point) -> f64) -> Vec<Check> {
    [
        saturation(&cell),
        write_plateau(&cell),
        four_ssds(&cell),
        iops(&cell),
    ]
    .concat()
}
