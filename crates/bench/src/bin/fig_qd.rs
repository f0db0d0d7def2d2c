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
//! saturates them). The expected shape, asserted as gates and recorded
//! in `BENCH_PR6.json`:
//!
//! * **scaling** — host 4 KiB throughput grows monotonically from QD 1
//!   to QD 8 and QD 8 is at least `QD_SCALING_FLOOR`× QD 1 (the driver's
//!   closed loop keeps `iodepth` ops in flight; nothing in the client may
//!   serialize them below that);
//! * **offload gap** — at QD 32 the DPU arm must not trail the host:
//!   the ring moves the ARM's completion overhead off the critical path
//!   and the lane pool spreads submission over the DPU's cores, while
//!   the host job stays bound by its one core (0.41× before the ring,
//!   0.55× with one ARM core per job);
//! * **large-I/O sanity** — at 1 MiB both arms ride the wire/drive, so
//!   deep-QD ratios stay near 1 and QD cannot push either arm past the
//!   fabric;
//! * **no regression of the control arm** — the legacy sweeps (ring off)
//!   must still simulate exactly `OPS_SIMULATED_PIN` ops (595716, pinned
//!   since PR 3).

use ros2_bench::{legacy_sweep_ops, OPS_SIMULATED_PIN};
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

/// QD 8 must deliver at least this multiple of QD 1 on the uncontended
/// host arm (4 KiB). The measured value is 8.0× (perfect overlap until
/// the client core saturates); 2.0 is the regression floor.
const QD_SCALING_FLOOR: f64 = 2.0;

fn qd_spec(bs: u64, qd: usize) -> JobSpec {
    JobSpec::new(RwMode::RandRead, bs, JOBS)
        .iodepth(qd)
        .region(REGION)
        .windows(SimDuration::from_millis(50), SimDuration::from_millis(150))
}

/// One sweep cell: (host GiB/s, dpu GiB/s), ring on, zero tolerated
/// errors.
fn qd_cell(bs: u64, qd: usize) -> (f64, f64) {
    let spec = qd_spec(bs, qd);
    let mut host = WorldSpec::single(ClientPlacement::Host)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    host.set_pipelined(true);
    let h = run_fio(&mut host, &spec);
    assert_eq!(h.io.errors.get(), 0, "host arm bs={bs} qd={qd} errored");

    let mut dpu = WorldSpec::single(ClientPlacement::Dpu)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .offload(vec![DpuTenantSpec::unlimited("fio")])
        .build_dfs();
    dpu.set_pipelined(true);
    let d = run_fio(&mut dpu, &spec);
    assert_eq!(d.io.errors.get(), 0, "dpu arm bs={bs} qd={qd} errored");
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

    println!("re-playing the legacy sweeps (ring off) for the ops pin...");
    let legacy_ops = legacy_sweep_ops();
    println!("  legacy sweep ops: {legacy_ops} (pin {OPS_SIMULATED_PIN})");

    // ---- gates (all virtual-time, deterministic) ----
    for w in host[0][..4].windows(2) {
        assert!(
            w[1] > w[0] * 1.05,
            "host 4 KiB throughput must scale monotonically QD1->8: {:?}",
            host[0]
        );
    }
    assert!(
        qd_scaling >= QD_SCALING_FLOOR,
        "host 4 KiB QD8 must be >= {QD_SCALING_FLOOR}x QD1 (got {qd_scaling:.2}x) — \
         something serialized the ring"
    );
    assert!(
        r_qd32 >= 1.0,
        "at QD32 the offloaded arm (lane-wide ARM pool) must not trail the \
         host arm (one core per job); got {r_qd32:.3}"
    );
    assert!(
        r_qd1 > 0.80,
        "at QD1 the handoff-dominated DPU arm stays near the host \
         (got {r_qd1:.3})"
    );
    for (&h, &d) in host[1].iter().zip(&dpu[1]) {
        assert!(
            d / h.max(1e-12) > 0.85,
            "1 MiB blocks are wire-bound on both arms: host {h:.2} dpu {d:.2} GiB/s"
        );
    }
    assert_eq!(
        legacy_ops, OPS_SIMULATED_PIN,
        "the ring is opt-in: the legacy sweeps must stay bit-identical"
    );

    let mut cells_json = String::from("[");
    let mut first = true;
    for (bi, &bs) in BLOCKS.iter().enumerate() {
        for (qi, &qd) in DEPTHS.iter().enumerate() {
            if !first {
                cells_json.push_str(", ");
            }
            first = false;
            cells_json.push_str(&format!(
                "{{\"bs\": {bs}, \"qd\": {qd}, \"host_gib_s\": {:.4}, \
                 \"dpu_gib_s\": {:.4}}}",
                host[bi][qi], dpu[bi][qi]
            ));
        }
    }
    cells_json.push(']');

    let json = format!(
        "{{\n  \"qd_sweep\": {cells_json},\n  \
         \"qd_scaling_host_4k\": {qd_scaling:.4},\n  \
         \"dpu_small_ratio_qd1\": {r_qd1:.4},\n  \
         \"dpu_small_ratio_qd8\": {r_qd8:.4},\n  \
         \"dpu_small_ratio_qd32\": {r_qd32:.4},\n  \
         \"qd_failed_ops\": 0,\n  \
         \"ops_simulated\": {legacy_ops}\n}}\n"
    );
    std::fs::write("BENCH_PR6.json", &json).expect("write BENCH_PR6.json");
    println!("wrote BENCH_PR6.json");
}
