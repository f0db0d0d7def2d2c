//! The latency ledger: one unloaded 4 KiB fetch on the benchmark's offloaded
//! world and on its host world, every microsecond attributed to a stage and
//! the stages summing *exactly* to `completion − submit`.
//!
//! The offloaded op is the one `small_rand_dpu_rdma` issues (RDMA, 4 jobs,
//! 16 MiB files, synthetic payloads, op ring on). Its stages:
//!
//! | stage | who | where it is read from |
//! |---|---|---|
//! | posted doorbell | host → DPU, one way | `DpuStats::handoff_wait` (first leg) |
//! | admission | tenant token buckets | `DpuStats::throttle_wait` |
//! | ARM submission | lane core pool | `DpuClient::submission_busy_time` |
//! | descriptor → engine → media → push → completion SEND | data plane | the remainder, pinned below |
//! | chain hop + NIC verify + inline service | NIC, no core | `DpuStats::completion_path` |
//! | posted completion record | DPU → host, one way | `DpuStats::handoff_wait` (second leg) |
//!
//! The data-plane middle is not touched by who forwards the completion, so
//! it must equal the parent commit's to the nanosecond. The parent's ledger
//! for the same op was
//!
//! ```text
//!   138_235 ns  completion − submit
//! −   2_002     IoSubmit as a synchronous call (2 µs RTT + 22 B × 120 ps)
//! −  13_000     ARM submission (11 µs / 0.55 × 0.65)
//! −  14_000     ARM completion (7 µs completion fraction + 7 µs poll surcharge)
//! −     460     ARM CRC verify (4 KiB × 62 ps / 0.55)
//! −   2_001     the parent's synchronous poll call (2 µs RTT + 10 B × 120 ps)
//! = 106_772     data-plane middle
//! ```
//!
//! and the host's `116_177 − 7_150 − 3_850 = 105_177`. The offloaded op now
//! costs `1_001 + 13_000 + 106_772 + 581 + 1_001 = 122_355`, so the gap to
//! the host is `6_178 = 5_850 + 2_002 + 581 + 1_595 − 3_850`: ARM
//! submission over host submission, the two posted legs, the chain, the
//! DPU node's slower descriptor path inside the middle, less the host's
//! own completion work. ARM submission is what is left to take.

use ros2_ctl::ControlModel;
use ros2_daos::DaosCostModel;
use ros2_dpu::DpuTenantSpec;
use ros2_hw::{nic_crc_cost, ClientPlacement, CoreClass, NicModel, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime};

use crate::driver::{FioOp, Workload};
use crate::worlds::{DfsFioWorld, FioClient};
use crate::worldspec::WorldSpec;

/// The parent commit's data-plane middle on the offloaded world (ns).
const PARENT_OFFLOADED_MIDDLE: u64 = 106_772;
/// The parent commit's data-plane middle on the host world (ns).
const PARENT_HOST_MIDDLE: u64 = 105_177;

fn world(placement: ClientPlacement) -> DfsFioWorld {
    let spec = WorldSpec::single(placement)
        .transport(Transport::Rdma)
        .jobs(4)
        .region(16 << 20)
        .mode(DataMode::Null);
    let mut w = match placement {
        ClientPlacement::Host => spec,
        ClientPlacement::Dpu => spec.offload(vec![DpuTenantSpec::unlimited("fio")]),
    }
    .build_dfs();
    w.set_pipelined(true);
    w
}

const FETCH: FioOp = FioOp {
    write: false,
    offset: 40 << 10,
    len: 4 << 10,
};

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

#[test]
fn an_unloaded_offloaded_fetch_is_the_sum_of_its_stages() {
    let mut w = world(ClientPlacement::Dpu);
    let total = w
        .issue(SimTime::ZERO, 0, &FETCH)
        .unwrap()
        .saturating_since(SimTime::ZERO);
    let FioClient::Offloaded(client) = &w.client else {
        panic!("offloaded world")
    };
    let s = client.dpu_stats();

    // What each stage must cost, from the models alone.
    let bell = ControlModel::host_doorbell();
    let leg = |frame: u64| bell.one_way() + ns(frame * bell.ps_per_byte / 1000);
    let (doorbell, record) = (leg(13), leg(9));
    let m = DaosCostModel::default_model();
    let arm_submission = CoreClass::DpuArm
        .scale(m.client_per_op)
        .mul_f64(1.0 - m.client_completion_frac);
    let hop = NicModel::connectx7().chain_hop();
    let verify = nic_crc_cost(FETCH.len);

    assert_eq!(doorbell, ns(1_001));
    assert_eq!(record, ns(1_001));
    assert_eq!(arm_submission, ns(13_000));
    assert_eq!(hop + verify, ns(581), "0.5 us hop + 4 KiB at 20 ps/B");

    // What each stage did cost.
    assert_eq!(s.handoff_wait, doorbell + record, "the two posted legs");
    assert_eq!(s.throttle_wait, SimDuration::ZERO, "an unlimited tenant");
    assert_eq!(client.submission_busy_time(), arm_submission);
    assert_eq!(
        s.completion_path,
        hop + verify,
        "chain hop + NIC verify (the inline service is off)"
    );
    assert_eq!(
        (s.nic_verified_bytes, s.crc_bytes),
        (FETCH.len, 0),
        "no ARM core touched the payload"
    );

    // And nothing else: what is left is the data plane, unchanged.
    let middle = total
        - s.handoff_wait
        - s.throttle_wait
        - client.submission_busy_time()
        - s.completion_path;
    assert_eq!(
        middle,
        ns(PARENT_OFFLOADED_MIDDLE),
        "descriptor -> engine -> media -> push -> completion SEND"
    );
    assert_eq!(total, ns(1_001 + 13_000 + 106_772 + 581 + 1_001));
}

#[test]
fn an_unloaded_host_fetch_is_the_sum_of_its_stages() {
    let mut w = world(ClientPlacement::Host);
    let total = w
        .issue(SimTime::ZERO, 0, &FETCH)
        .unwrap()
        .saturating_since(SimTime::ZERO);
    let FioClient::Classic(client) = &w.client else {
        panic!("host world")
    };
    let m = DaosCostModel::default_model();
    let completion = m.client_per_op.mul_f64(m.client_completion_frac);
    let submission = m.client_per_op.mul_f64(1.0 - m.client_completion_frac);
    assert_eq!((submission, completion), (ns(7_150), ns(3_850)));
    assert_eq!(client.core_busy_time(), submission);
    assert_eq!(total - submission - completion, ns(PARENT_HOST_MIDDLE));
    assert_eq!(total, ns(7_150 + 105_177 + 3_850));
}
