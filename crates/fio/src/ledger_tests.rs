//! The latency ledger: one unloaded 4 KiB fetch and one unloaded 4 KiB
//! update, on the benchmark's offloaded world and on its host world, every
//! nanosecond attributed to a stage and the stages summing *exactly* to
//! `completion − submit`.
//!
//! The offloaded ops are the ones `small_rand_dpu_rdma` issues in steady
//! state (RDMA, 4 jobs, 16 MiB files, synthetic payloads, op ring on): the
//! file's first op was a core's and left the descriptor template behind, so
//! the measured op is clean and no ARM core touches it. Its stages:
//!
//! | stage | who | where it is read from |
//! |---|---|---|
//! | posted doorbell (frame + one patch) | host → DPU, one way | `DpuStats::handoff_wait` (first leg) |
//! | admission | tenant token buckets | `DpuStats::throttle_wait` |
//! | NIC checksum of the payload (update) | NIC signature engine | `nic_crc_cost`, `DpuStats::nic_checksummed_bytes` |
//! | doorbell-fired descriptor SEND | NIC chain, one hop | `DpuStats::submission_path` |
//! | descriptor → engine → media → push / pull → completion SEND | data plane | the remainder, pinned below |
//! | chain hop + NIC verify (fetch) + inline service | NIC, no core | `DpuStats::completion_path` |
//! | posted completion record | DPU → host, one way | `DpuStats::handoff_wait` (second leg) |
//!
//! and `DpuClient::submission_busy_time()` is zero, as is the DPU node's
//! `tx_pool` / `rx_pool` busy time: no core anywhere on the path.
//!
//! **The fetch.** The data-plane middle is the parent commit's less exactly
//! the two core bookings it no longer makes on the DPU node — the NIC posts
//! the descriptor SEND, and the completion SEND lands on a receive the
//! chain is parked on:
//!
//! ```text
//!   106_772 ns  the parent's middle (PR 22's ledger: 138_235 − 2_002 − 13_000 − 14_000 − 460 − 2_001)
//! −   2_182     descriptor SEND, sender CPU on the DPU (1_200 ns send_per_op / 0.55)
//! −     545     completion SEND, receiver CPU on the DPU (300 ns recv_per_op / 0.55; the
//!               16-byte eager copy rounds to 0)
//! = 104_045     data-plane middle
//! ```
//!
//! The offloaded fetch costs `1_005 + 0 + 500 + 104_045 + 581 + 1_001 =
//! 107_132`; the parent's cost `1_001 + 13_000 + 106_772 + 581 + 1_001 =
//! 122_355`. The host's is `7_150 + 105_177 + 3_850 = 116_177`, unchanged
//! by a nanosecond: the offloaded read is now 9_045 ns *ahead* of it — the
//! host still pays 11 µs of x86 per op and the DPU arm pays none — of
//! which `7_150 + 3_850 − 500 − 581` is client CPU against chain hops,
//! `105_177 − 104_045 = 1_132` the two core bookings of the host's own
//! descriptor path, less the two posted legs (2_006).
//!
//! **The update** (there was no write ledger before this one). The host
//! update is `7_150 + 22_127 + 3_850 = 33_127`. The offloaded one replaces
//! the ARM checksum (`crc_cost`, 460 ns at 4 KiB) by the NIC's (81 ns) and
//! is otherwise the fetch's shape with nothing to verify on the way back:
//! `1_005 + 0 + 81 + 500 + 20_995 + 500 + 1_001 = 24_082`, the middle
//! again the host's less the same two bookings' worth (`22_127 − 1_132`:
//! descriptor, pull, xstream, SCM commit, completion SEND).
//!
//! **A read-cache hit** submits nothing and so waits for no patch: the lane
//! admits and probes when the doorbell frame's *head* has landed — the
//! 13 bytes an `IoSubmit` is, 1_001 ns — and serves the hit from there:
//! `1_001 + 365 (lookup + 4 KiB out of DPU DRAM) + 1_001 = 2_367`, what
//! it cost before the frame grew.

use ros2_core::ClientStack;
use ros2_ctl::{ControlModel, ControlRequest, IoPatch};
use ros2_daos::DaosCostModel;
use ros2_dpu::{DpuStats, ReadCache};
use ros2_hw::{nic_crc_cost, ClientPlacement, NicModel, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime, Timed};
use ros2_verbs::NodeId;

use crate::driver::{FioOp, Workload};
use crate::worlds::DfsFioWorld;
use crate::worldspec::WorldSpec;

/// The parent commit's data-plane middle of a fetch on the offloaded world
/// (ns), and what of it was core time on the DPU node.
const PARENT_OFFLOADED_MIDDLE: u64 = 106_772;
const DPU_SEND_CPU: u64 = 2_182;
const DPU_RECV_CPU: u64 = 545;
/// The parent commit's data-plane middle of a fetch on the host world (ns).
const PARENT_HOST_MIDDLE: u64 = 105_177;
/// The data-plane middle of an update on the host world (ns): the same at
/// the parent commit.
const HOST_UPDATE_MIDDLE: u64 = 22_127;

fn world(placement: ClientPlacement) -> DfsFioWorld {
    let mut w = WorldSpec::single(placement)
        .transport(Transport::Rdma)
        .jobs(4)
        .region(16 << 20)
        .mode(DataMode::Null)
        .build_dfs();
    w.set_pipelined(true);
    w
}

fn op(write: bool) -> FioOp {
    FioOp {
        write,
        offset: 40 << 10,
        len: 4 << 10,
    }
}

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// One unloaded `op` on a world where its file has been touched before:
/// the latency and, offloaded, the counters of that op alone.
fn unloaded(w: &mut DfsFioWorld, op: &FioOp) -> (SimDuration, DpuStats) {
    // The file's first ring op is a core's: it leaves the template.
    w.issue(SimTime::ZERO, 0, op).unwrap();
    w.reset_timing();
    let done = w.issue(SimTime::ZERO, 0, op).unwrap();
    (done.saturating_since(SimTime::ZERO), w.client.dpu_stats())
}

/// What each fixed stage of an offloaded op must cost, from the models
/// alone: the doorbell leg (frame + one patch), the record leg, a chain
/// hop.
fn legs_and_hop() -> (SimDuration, SimDuration, SimDuration) {
    let bell = ControlModel::host_doorbell();
    let leg = |frame: usize| bell.one_way() + ns(frame as u64 * bell.ps_per_byte / 1000);
    let frame = ControlRequest::IoDoorbell {
        bytes: 4 << 10,
        patches: vec![IoPatch {
            write: false,
            object: 0,
            chunk: 0,
            offset: 0,
            len: 0,
        }],
    };
    assert_eq!(frame.encoded_len(), 13 + IoPatch::WIRE_LEN);
    let (doorbell, record) = (leg(frame.encoded_len()), leg(9));
    let hop = NicModel::connectx7().chain_hop();
    assert_eq!((doorbell, record, hop), (ns(1_005), ns(1_001), ns(500)));
    (doorbell, record, hop)
}

/// No core of the DPU was booked: not the lane's submission pool, not the
/// node's network cores.
fn assert_no_dpu_core(w: &DfsFioWorld) {
    let ClientStack::Offloaded(client) = &w.client else {
        panic!("offloaded world")
    };
    assert_eq!(client.submission_busy_time(), SimDuration::ZERO);
    let dpu = w.fabric.node(NodeId(0));
    assert_eq!(dpu.tx_pool.busy_time(), SimDuration::ZERO);
    assert_eq!(dpu.rx_pool.busy_time(), SimDuration::ZERO);
}

#[test]
fn an_unloaded_offloaded_fetch_is_the_sum_of_its_stages() {
    let mut w = world(ClientPlacement::Dpu);
    let (total, s) = unloaded(&mut w, &op(false));
    let (doorbell, record, hop) = legs_and_hop();
    let verify = nic_crc_cost(4 << 10);
    assert_eq!(hop + verify, ns(581), "0.5 us hop + 4 KiB at 20 ps/B");

    assert_eq!(s.handoff_wait, doorbell + record, "the two posted legs");
    assert_eq!(s.throttle_wait, SimDuration::ZERO, "an unlimited tenant");
    assert_eq!(s.submission_path, hop, "the doorbell fired the SEND");
    assert_eq!(
        s.completion_path,
        hop + verify,
        "chain hop + NIC verify (the inline service is off)"
    );
    assert_eq!(
        (s.nic_verified_bytes, s.crc_bytes),
        (4 << 10, 0),
        "no ARM core touched the payload"
    );
    assert_no_dpu_core(&w);

    // And nothing else: what is left is the data plane, the parent's less
    // exactly the two core bookings the chain took off the DPU node.
    let middle = total - s.handoff_wait - s.throttle_wait - s.submission_path - s.completion_path;
    assert_eq!(
        middle,
        ns(PARENT_OFFLOADED_MIDDLE - DPU_SEND_CPU - DPU_RECV_CPU),
        "descriptor -> engine -> media -> push -> completion SEND"
    );
    assert_eq!(total, ns(1_005 + 500 + 104_045 + 581 + 1_001));
}

#[test]
fn an_unloaded_offloaded_update_is_the_sum_of_its_stages() {
    let mut w = world(ClientPlacement::Dpu);
    let (total, s) = unloaded(&mut w, &op(true));
    let (doorbell, record, hop) = legs_and_hop();
    let checksum = nic_crc_cost(4 << 10);
    assert_eq!(checksum, ns(81));

    assert_eq!(s.handoff_wait, doorbell + record);
    assert_eq!(s.throttle_wait, SimDuration::ZERO);
    assert_eq!(s.submission_path, hop);
    assert_eq!(s.completion_path, hop, "an ack lands nothing to verify");
    assert_eq!(
        (s.nic_checksummed_bytes, s.crc_bytes),
        (4 << 10, 0),
        "the NIC checksummed the payload on its way out"
    );
    assert_no_dpu_core(&w);

    let middle = total - s.handoff_wait - checksum - s.submission_path - s.completion_path;
    assert_eq!(
        middle,
        ns(HOST_UPDATE_MIDDLE - (PARENT_HOST_MIDDLE - 104_045)),
        "descriptor -> pull -> xstream -> SCM -> completion SEND"
    );
    assert_eq!(total, ns(1_005 + 81 + 500 + 20_995 + 500 + 1_001));
}

#[test]
fn a_cache_hit_is_served_from_the_doorbell_frames_head() {
    let mut w = WorldSpec::single(ClientPlacement::Dpu)
        .transport(Transport::Rdma)
        .jobs(4)
        .region(16 << 20)
        .mode(DataMode::Null)
        .dpu_cache(64 << 20)
        .build_dfs();
    w.set_pipelined(true);
    // A write (the file's first op: a core's), a read that misses and
    // fills, then the measured read.
    let written = w.issue(SimTime::ZERO, 0, &op(true)).unwrap();
    w.issue(written, 0, &op(false)).unwrap();
    w.reset_timing();
    let before = w.client.dpu_stats().cache;
    let total = w
        .issue(SimTime::ZERO, 0, &op(false))
        .unwrap()
        .saturating_since(SimTime::ZERO);
    let s = w.client.dpu_stats();
    assert_eq!(
        (s.cache.hits - before.hits, s.cache.misses - before.misses),
        (1, 0)
    );
    let (doorbell, record, _) = legs_and_hop();
    let head = record;
    assert_eq!(
        ControlRequest::IoSubmit { ops: 1, bytes: 0 }.encoded_len(),
        13,
        "the doorbell's head is as long as the record frame plus four"
    );
    let served = ReadCache::service_cost(4 << 10);
    assert_eq!(total, head + served + record);
    assert_eq!(total, ns(1_001 + 365 + 1_001));
    // The link still carried the whole frame.
    assert_eq!(s.handoff_wait, doorbell + record);
    assert_eq!(s.submission_path + s.completion_path, SimDuration::ZERO);
    assert_no_dpu_core(&w);
}

/// The host client's split of `client_per_op`, and its core's busy time
/// after one op.
fn host_ledger(w: &DfsFioWorld) -> (SimDuration, SimDuration) {
    let ClientStack::InProcess(client) = &w.client else {
        panic!("host world")
    };
    let m = DaosCostModel::default_model();
    let completion = m.client_per_op.mul_f64(m.client_completion_frac);
    let submission = m.client_per_op.mul_f64(1.0 - m.client_completion_frac);
    assert_eq!((submission, completion), (ns(7_150), ns(3_850)));
    assert_eq!(client.core_busy_time(), submission);
    (submission, completion)
}

#[test]
fn an_unloaded_host_fetch_is_the_sum_of_its_stages() {
    let mut w = world(ClientPlacement::Host);
    let (total, _) = unloaded(&mut w, &op(false));
    let (submission, completion) = host_ledger(&w);
    assert_eq!(total - submission - completion, ns(PARENT_HOST_MIDDLE));
    assert_eq!(total, ns(7_150 + 105_177 + 3_850));
}

#[test]
fn an_unloaded_host_update_is_the_sum_of_its_stages() {
    let mut w = world(ClientPlacement::Host);
    let (total, _) = unloaded(&mut w, &op(true));
    let (submission, completion) = host_ledger(&w);
    assert_eq!(total - submission - completion, ns(HOST_UPDATE_MIDDLE));
    assert_eq!(total, ns(7_150 + 22_127 + 3_850));
}
