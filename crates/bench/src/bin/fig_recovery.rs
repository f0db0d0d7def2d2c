//! Recovery figure: prints the `ros2_fio::figures::recovery` cells.

use ros2_fio::figures::chaos::{ENGINES, KILL_AFTER_OPS, RF, VICTIM};
use ros2_fio::figures::recovery::{
    accept_cell, baseline, recovery_cell, scrub_cell, REBUILD_BUDGET,
};
use ros2_sim::SimDuration;

fn main() {
    println!(
        "recovery cells: {ENGINES} engines RF {RF}, kill slot {VICTIM} after \
         {KILL_AFTER_OPS} ops, rebuild lane {} MiB/s",
        REBUILD_BUDGET >> 20
    );

    println!("  baseline: {:.2} GiB/s", baseline().gib_s);

    let ms = |d: SimDuration| d.as_nanos() / 1_000_000;
    let unpaced = recovery_cell(false);
    let paced = recovery_cell(true);
    println!(
        "  recovery: {:.2} GiB/s foreground, {} objects / {} bytes moved, \
         RF restored in {} ms unpaced / {} ms paced ({} ms throttled)",
        paced.gib_s,
        paced.rebuild.objects_moved,
        paced.rebuild.bytes_moved,
        ms(unpaced.restore),
        ms(paced.restore),
        ms(paced.throttled)
    );

    let scrub = scrub_cell();
    println!(
        "  scrub: boundary {} aggregated, {} mismatches found, {} repaired \
         ({} bytes restreamed); clean pass compared {} chunks, scanned {} \
         payload bytes",
        scrub.boundary,
        scrub.first.mismatches_found,
        scrub.first.mismatches_repaired,
        scrub.repair_bytes,
        scrub.clean_chunks,
        scrub.clean_scanned
    );

    let accept = accept_cell(true);
    println!(
        "  acceptance: {:.2} GiB/s foreground, {} found = {} repaired, RF \
         restored in {} ms",
        accept.gib_s,
        accept.first.mismatches_found,
        accept.first.mismatches_repaired,
        ms(accept.restore)
    );
}
