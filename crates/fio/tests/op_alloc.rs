//! Allocation budget of the whole op path: a steady-state DFS read or
//! write, from `Dfs` down to the media store, in pipelined worlds built
//! through `WorldSpec`. 4 KiB ops run on a host client over one engine, a
//! host client over a 4-engine RF-2 cluster, and an offloaded client with
//! the read cache off and on; 1 MiB ops (NVMe-resident records of the
//! shared zero pool, whose chunk tables and media CRCs are closed-form) on
//! the two host worlds, with the drives both `Stored` and `Null`.
//!
//! After a warm-up over the same fixed offsets, a read allocates nothing
//! at all — a cache hit included, which only re-links its slab node in the
//! read cache's recency list. A write may allocate only as the state it
//! leaves behind grows: the VOS record vectors and the media store's
//! extent index. Each count is pinned exactly; [`WRITE_ALLOCS`] and
//! [`LARGE_WRITE_ALLOCS`] say how it follows from those structures. The
//! media writes of the measured passes all land at their index's tail:
//! [`EXTENTS_SHIFTED`] pins the entries they move.
//!
//! Every measured pass starts from `reset_timing`: the booking books keep
//! 500 ms of simulated history, so through a short run they grow with
//! every booking; reset, they keep their buffers, and a pass no longer than
//! the warm-up books into space the warm-up already grew.
//!
//! One test function on purpose: the counters are process-global, so the
//! measured regions must not overlap another allocating test.

use ros2_buf::{allocation_count, CountingAlloc};
use ros2_fio::{DfsFioWorld, FioOp, Workload, WorldSpec};
use ros2_hw::ClientPlacement;
use ros2_nvme::DataMode;
use ros2_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The ops of one measured pass: `ops` of `bs` bytes, `stride` apart
/// from offset 0, wrapping around the file's 4 MiB region (its four
/// 1 MiB chunks).
#[derive(Clone, Copy)]
struct Pass {
    ops: u64,
    stride: u64,
    bs: u64,
}

/// 64 fixed 4 KiB offsets: 16 in each chunk.
const SMALL: Pass = Pass {
    ops: 64,
    stride: 64 << 10,
    bs: 4 << 10,
};

/// Eight 1 MiB ops: each chunk twice.
const LARGE: Pass = Pass {
    ops: 8,
    stride: 1 << 20,
    bs: 1 << 20,
};

/// The job file's preconditioned bytes (`WorldSpec`'s default region).
const REGION: u64 = 4 << 20;

/// One pass of [`SMALL`] writes on one replica's engine. The records are
/// SCM-resident (4 KiB is under the SCM threshold):
///
/// * 4 — each 1 MiB chunk's record vector goes from 17 records (the
///   preconditioned extent and 16 warm-up writes) to 33 and crosses
///   capacity 32 once;
/// * 1 — the SCM heap's extent index, one vector, takes the 64 new
///   extents as appends (the heap places them at rising addresses) and
///   doubles its capacity once. On the engine that also holds the
///   namespace's 6 metadata extents it goes from 70 entries to 134 and
///   crosses 128; on a replica of the file alone, from 64 to 128, and the
///   128th entry crosses 64.
///
/// A replica set of two doubles it, as the file is one object and every
/// chunk of it lives on the same two engines.
const WRITE_ALLOCS: u64 = 4 + 1;

/// One pass of [`SMALL`] cache hits: each one moves its entry's slab
/// node to the back of the `DetLru` recency list — an unlink and a
/// push-back, no node made or freed.
const CACHED_READ_ALLOCS: u64 = 0;

/// One pass of [`LARGE`] writes on one replica's engine. Each record is
/// NVMe-resident (1 MiB is over the SCM threshold) and a slice of the
/// shared zero pool, so its chunk table is a prefix of VOS's static
/// zero-chunk table and its media extent keeps no chunk-CRC cache:
///
/// * 4 — each chunk's record vector goes from 3 records (the
///   preconditioned extent and 2 warm-up writes) to 5 and crosses
///   capacity 4 once;
/// * 1, `Stored` drives only — the backing's extent index takes the 8
///   new extents as appends (the target allocates LBAs upwards): from the
///   4 preconditioned and 8 warm-up extents to 20, crossing capacity 16.
///   `Null` drives keep no extents.
///
/// A replica set of two doubles it, as for [`WRITE_ALLOCS`].
const LARGE_WRITE_ALLOCS: [(DataMode, u64); 2] = [(DataMode::Stored, 4 + 1), (DataMode::Null, 4)];

/// Extent-index entries the measured read and write passes move, over
/// every store of the world (NIC memory, the SCM heaps, the NVMe
/// backings): none. A read inserts nothing; a write's media extent is an
/// append at the heap's frontier or the NVMe allocator's, and the NIC
/// buffers it travels through are overwritten in place, extent for extent.
const EXTENTS_SHIFTED: u64 = 0;

/// Issues the ops of `shape` from t = 0, each when the previous one
/// completed; returns the allocations made.
fn pass(w: &mut DfsFioWorld, write: bool, shape: Pass) -> u64 {
    w.reset_timing();
    let mut now = SimTime::ZERO;
    let before = allocation_count();
    for i in 0..shape.ops {
        let op = FioOp {
            write,
            offset: i * shape.stride % REGION,
            len: shape.bs,
        };
        now = w.issue(now, 0, &op).expect("op completes");
    }
    allocation_count() - before
}

/// The extent-index entries every store of `w` has moved so far.
fn extents_shifted(w: &DfsFioWorld) -> u64 {
    let mut dp = w.fabric.data_plane_stats();
    dp.merge(w.cluster.data_plane_stats());
    dp.extents_shifted
}

/// `(reads, writes, shifted)`: the allocations of a read pass and of a
/// write pass of `shape` after a warm-up of one write pass and one read
/// pass, and the extent-index entries the two passes moved.
fn steady_state(spec: WorldSpec, shape: Pass) -> (u64, u64, u64) {
    let mut w = spec.build_dfs();
    w.set_pipelined(true);
    pass(&mut w, true, shape);
    pass(&mut w, false, shape);
    let shifted = extents_shifted(&w);
    let reads = pass(&mut w, false, shape);
    let writes = pass(&mut w, true, shape);
    (reads, writes, extents_shifted(&w) - shifted)
}

#[test]
fn a_warm_op_allocates_only_for_the_state_it_leaves_behind() {
    let host = steady_state(WorldSpec::single(ClientPlacement::Host), SMALL);
    assert_eq!(
        host,
        (0, WRITE_ALLOCS, EXTENTS_SHIFTED),
        "host client, one engine"
    );
    let cluster = steady_state(WorldSpec::cluster(4).replication(2), SMALL);
    assert_eq!(
        cluster,
        (0, 2 * WRITE_ALLOCS, EXTENTS_SHIFTED),
        "host client, RF-2 cluster"
    );
    let dpu = steady_state(WorldSpec::single(ClientPlacement::Dpu), SMALL);
    assert_eq!(
        dpu,
        (0, WRITE_ALLOCS, EXTENTS_SHIFTED),
        "offloaded client, cache off"
    );
    let cached = steady_state(
        WorldSpec::single(ClientPlacement::Dpu).dpu_cache(64 << 20),
        SMALL,
    );
    assert_eq!(
        cached,
        (CACHED_READ_ALLOCS, WRITE_ALLOCS, EXTENTS_SHIFTED),
        "offloaded client, cache on"
    );
    for (mode, writes) in LARGE_WRITE_ALLOCS {
        let host = steady_state(WorldSpec::single(ClientPlacement::Host).mode(mode), LARGE);
        assert_eq!(
            host,
            (0, writes, EXTENTS_SHIFTED),
            "1 MiB, host client, one engine, {mode:?}"
        );
        let cluster = steady_state(WorldSpec::cluster(4).replication(2).mode(mode), LARGE);
        assert_eq!(
            cluster,
            (0, 2 * writes, EXTENTS_SHIFTED),
            "1 MiB, host client, RF-2 cluster, {mode:?}"
        );
    }
}
