//! Incast figure: prints the `ros2_fio::figures::incast` cells.

use ros2_fio::figures::incast::{
    kill_cell, sweep_cell, CLIENT_COUNTS, ENGINES, JOBS_PER_CLIENT, KILL_CLIENTS, POOL_CAPACITY, RF,
};

fn main() {
    println!(
        "incast sweep: {CLIENT_COUNTS:?} clients x {JOBS_PER_CLIENT} job, {ENGINES} engines \
         RF {RF}, pool capacity {POOL_CAPACITY}"
    );
    for &clients in &CLIENT_COUNTS {
        let c = sweep_cell(clients);
        let min = *c.per_client_ops.iter().min().unwrap() as f64;
        let max = *c.per_client_ops.iter().max().unwrap() as f64;
        println!(
            "  {clients:>3} clients: {:6.2} GiB/s aggregate, fairness {:.2}x, pool hit rate {:.3}, \
             resident peak {}, {} evictions",
            c.gib_s,
            max / min.max(1.0),
            c.pool.hit_rate(),
            c.pool.resident_peak,
            c.pool.evictions,
        );
    }

    let kill = kill_cell();
    println!(
        "kill cell ({KILL_CLIENTS} clients, RAS push): {:.2} GiB/s, {} failed, {} fences, \
         {} retries, hit rate {:.3}",
        kill.gib_s, kill.failed, kill.fences, kill.retry.retries, kill.pool_hit_rate,
    );
}
