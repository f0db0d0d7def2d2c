//! Queue-depth sweep (PR 6): throughput of the pipelined client as
//! `iodepth` grows from 1 to 32 — 4 KiB and 1 MiB random reads, host and
//! DPU arms, one job, RDMA.
//!
//! With the submission/completion ring on, the client books only the
//! submission share of its per-op CPU and carries the completion share
//! as overlappable latency — so small-I/O throughput must scale with QD
//! until the job's own core saturates (host: the submitting thread is
//! the application thread) or, offloaded, until latency bounds the loop
//! (the lane's ARM cores are pooled across jobs, so one job never
//! saturates them). The expected shape (asserted by
//! `worlds_tests::queue_depth_sweep_scales_the_host_and_favours_the_offload`):
//!
//! * **scaling** — host 4 KiB throughput grows monotonically from QD 1
//!   to QD 8 (the driver's closed loop keeps `iodepth` ops in flight;
//!   nothing in the client may serialize them below that);
//! * **offload gap** — at QD 32 the DPU arm must not trail the host:
//!   the ring moves the ARM's completion overhead off the critical path
//!   and the lane pool spreads submission over the DPU's cores, while
//!   the host job stays bound by its one core (0.41× before the ring,
//!   0.55× with one ARM core per job);
//! * **large-I/O sanity** — at 1 MiB both arms ride the wire/drive, so
//!   deep-QD ratios stay near 1 and QD cannot push either arm past the
//!   fabric.

use ros2_dpu::DpuTenantSpec;
use ros2_fio::{run_fio, JobSpec, RwMode, WorldSpec};
use ros2_hw::ClientPlacement;
use ros2_nvme::DataMode;
use ros2_sim::SimDuration;

/// Queue-depth axis of the sweep.
const DEPTHS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Block sizes: the small-I/O regime the ring exists for, and a
/// wire-bound control.
const BLOCKS: [u64; 2] = [4096, 1 << 20];
const JOBS: usize = 1;
const REGION: u64 = 16 << 20;

fn qd_spec(bs: u64, qd: usize) -> JobSpec {
    JobSpec::new(RwMode::RandRead, bs, JOBS)
        .iodepth(qd)
        .region(REGION)
        .windows(SimDuration::from_millis(50), SimDuration::from_millis(150))
}

/// One sweep cell: (host GiB/s, dpu GiB/s), ring on.
fn qd_cell(bs: u64, qd: usize) -> (f64, f64) {
    let spec = qd_spec(bs, qd);
    let mut host = WorldSpec::single(ClientPlacement::Host)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    host.set_pipelined(true);
    let h = run_fio(&mut host, &spec);

    let mut dpu = WorldSpec::single(ClientPlacement::Dpu)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .offload(vec![DpuTenantSpec::unlimited("fio")])
        .build_dfs();
    dpu.set_pipelined(true);
    let d = run_fio(&mut dpu, &spec);
    (h.gib_per_sec(), d.gib_per_sec())
}

fn main() {
    println!("queue-depth sweep: QD {DEPTHS:?}, bs {BLOCKS:?}, RandRead, {JOBS} job, ring on");
    // host[bs][qd], dpu[bs][qd] in axis order.
    let mut host = Vec::new();
    let mut dpu = Vec::new();
    for &bs in &BLOCKS {
        let mut hrow = Vec::new();
        let mut drow = Vec::new();
        for &qd in &DEPTHS {
            let (h, d) = qd_cell(bs, qd);
            println!(
                "  bs={bs:>7} qd={qd:>2}  host {:>8.1} MiB/s  dpu {:>8.1} MiB/s  ratio {:.3}",
                h * 1024.0,
                d * 1024.0,
                d / h.max(1e-12)
            );
            hrow.push(h);
            drow.push(d);
        }
        host.push(hrow);
        dpu.push(drow);
    }

    let qd_scaling = host[0][3] / host[0][0].max(1e-12); // 4 KiB QD8 / QD1
    let ratio_at = |qd_idx: usize| dpu[0][qd_idx] / host[0][qd_idx].max(1e-12);
    let (r_qd1, r_qd8, r_qd32) = (ratio_at(0), ratio_at(3), ratio_at(5));
    println!("  host 4 KiB QD8/QD1: {qd_scaling:.2}x");
    println!("  dpu small-I/O ratio: qd1 {r_qd1:.3}, qd8 {r_qd8:.3}, qd32 {r_qd32:.3}");
}
