//! Chaos figure: prints the `ros2_fio::figures::chaos` cells.

use ros2_fio::figures::chaos::{
    cell, dpu_world, host_world, ENGINES, KILL_AFTER_OPS, RAS_DELAY, RF, VICTIM,
};
use ros2_fio::DfsFioWorld;

fn main() {
    println!(
        "chaos cell: {ENGINES} engines RF {RF}, kill slot {VICTIM} after \
         {KILL_AFTER_OPS} ops, RAS delayed {RAS_DELAY}"
    );

    let baseline = cell(host_world(), false);
    println!(
        "  baseline (empty plan): {:.2} GiB/s, {} fences",
        baseline.gib_s, baseline.fences
    );

    for (tag, world) in [
        ("host", host_world as fn() -> DfsFioWorld),
        ("dpu ", dpu_world),
    ] {
        let kill = cell(world(), true);
        println!(
            "  {tag} kill cell: {:.2} GiB/s, {} failed, {} fences, {:?}, first \
             successful retry at {} us",
            kill.gib_s,
            kill.failed,
            kill.fences,
            kill.retry,
            kill.first_retry
                .map_or("-".into(), |t| (t.as_nanos() / 1_000).to_string()),
        );
    }
}
