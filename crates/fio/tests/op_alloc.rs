//! Allocation budget of the whole op path: a steady-state 4 KiB DFS read
//! or write, from `Dfs` down to the media store, in pipelined worlds built
//! through `WorldSpec` — a host client over one engine, a host client over
//! a 4-engine RF-2 cluster, and an offloaded client with the read cache off
//! and on.
//!
//! After a warm-up over [`OFFSETS`] fixed offsets, a cache-off read
//! allocates nothing at all. A write may allocate only as the state it
//! leaves behind grows: the VOS record vector and the SCM heap's extent
//! map. A cache-on read, likewise, only as the read cache's recency index
//! does. Each count is pinned exactly; [`WRITE_ALLOCS`] and
//! [`CACHED_READ_ALLOCS`] say how it follows from those structures.
//!
//! Every measured pass starts from `reset_timing`: the booking books keep
//! 500 ms of simulated history, so through a short run they grow with
//! every booking; reset, they keep their buffers, and a pass no longer than
//! the warm-up books into space the warm-up already grew.
//!
//! One test function on purpose: the counters are process-global, so the
//! measured regions must not overlap another allocating test.

use ros2_buf::{allocation_count, CountingAlloc};
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{DfsFioWorld, FioOp, Workload, WorldSpec};
use ros2_hw::ClientPlacement;
use ros2_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fixed 4 KiB offsets, [`STRIDE`] apart: 16 in each of the file's four
/// 1 MiB chunks.
const OFFSETS: u64 = 64;
const STRIDE: u64 = 64 << 10;
const BS: u64 = 4 << 10;

/// One pass of [`OFFSETS`] writes on one replica's engine. The records
/// are SCM-resident (4 KiB is under the SCM threshold):
///
/// * 4 — each 1 MiB chunk's record vector goes from 17 records (the
///   preconditioned extent and 16 warm-up writes) to 33 and crosses
///   capacity 32 once;
/// * 9 — the SCM heap's extent map, a std `BTreeMap`, takes the 64 new
///   extents as appends (the heap places them at rising addresses). A
///   leaf holds 11 entries and an append into a full one splits it 6 | 5,
///   so a new leaf comes every 7 appends: ⌊64 / 7⌋;
/// * 2 — one of those leaf splits is the root's 12th child, which splits
///   the full root in turn: a sibling and a new root.
///
/// A replica set of two doubles it, as the file is one object and every
/// chunk of it lives on the same two engines.
const WRITE_ALLOCS: u64 = 4 + 9 + 2;

/// One pass of [`OFFSETS`] cache hits: each re-stamps its entry in the
/// `DetLru` recency index, a `BTreeMap` keyed by tick — the oldest entry
/// leaves at the front and a new one is appended at the back, so the map
/// keeps its 64 entries and, as for [`WRITE_ALLOCS`], grows a leaf every
/// 7 appends while emptied ones are freed: ⌊64 / 7⌋.
const CACHED_READ_ALLOCS: u64 = 9;

/// Issues one 4 KiB op at each of the [`OFFSETS`] offsets from t = 0, each
/// when the previous one completed; returns the allocations made.
fn pass(w: &mut DfsFioWorld, write: bool) -> u64 {
    w.reset_timing();
    let mut now = SimTime::ZERO;
    let before = allocation_count();
    for i in 0..OFFSETS {
        let op = FioOp {
            write,
            offset: i * STRIDE,
            len: BS,
        };
        now = w.issue(now, 0, &op).expect("op completes");
    }
    allocation_count() - before
}

/// `(reads, writes)`: the allocations of a read pass and of a write pass
/// after a warm-up of one write pass and one read pass.
fn steady_state(spec: WorldSpec) -> (u64, u64) {
    let mut w = spec.build_dfs();
    w.set_pipelined(true);
    pass(&mut w, true);
    pass(&mut w, false);
    let reads = pass(&mut w, false);
    let writes = pass(&mut w, true);
    (reads, writes)
}

fn offloaded() -> WorldSpec {
    WorldSpec::single(ClientPlacement::Dpu).offload(vec![DpuTenantSpec::unlimited("fio")])
}

#[test]
fn a_warm_op_allocates_only_for_the_state_it_leaves_behind() {
    let host = steady_state(WorldSpec::single(ClientPlacement::Host));
    assert_eq!(host, (0, WRITE_ALLOCS), "host client, one engine");
    let cluster = steady_state(WorldSpec::cluster(4).replication(2));
    assert_eq!(cluster, (0, 2 * WRITE_ALLOCS), "host client, RF-2 cluster");
    let dpu = steady_state(offloaded());
    assert_eq!(dpu, (0, WRITE_ALLOCS), "offloaded client, cache off");
    let cached = steady_state(offloaded().dpu_cache(64 << 20));
    assert_eq!(
        cached,
        (CACHED_READ_ALLOCS, WRITE_ALLOCS),
        "offloaded client, cache on"
    );
}
