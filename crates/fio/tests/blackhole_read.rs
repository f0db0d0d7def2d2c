//! A fault under multi-chunk DFS I/O in a **non-pipelined** world: the
//! stripe set of an unaligned read rides the op ring, so a black-holed
//! leader is detected by deadline expiry and the read fails over to the
//! surviving replica — correct bytes, the ladder counted, bit-identical
//! replay.

use bytes::Bytes;
use ros2_core::FaultPlan;
use ros2_daos::RetryStats;
use ros2_dfs::{Dfs, DfsSession};
use ros2_fio::{DfsFioWorld, WorldSpec};
use ros2_sim::SimTime;
use ros2_testkit::stamped;

const CHUNK: u64 = 1 << 20;
const REGION: u64 = 4 << 20;
/// Unaligned on both ends: starts inside chunk 0, ends inside chunk 2.
const READ_OFF: u64 = 300_007;
const READ_LEN: u64 = (5 << 20) / 2;

/// The world's namespace plus the borrow bundle its calls take.
fn session(w: &mut DfsFioWorld) -> (&mut Dfs, DfsSession<'_>) {
    let DfsFioWorld {
        fabric,
        cluster,
        client,
        dfs,
        ..
    } = w;
    let s = DfsSession {
        fabric,
        cluster,
        client: client.as_object(),
    };
    (dfs, s)
}

fn run() -> (Bytes, SimTime, RetryStats) {
    // Non-pipelined is the default: single-chunk I/O takes the serial call.
    let mut w = WorldSpec::cluster(3)
        .replication(2)
        .jobs(1)
        .region(REGION)
        .build_dfs();
    assert!(!w.dfs.data_pipeline());
    let mut file = w.file(0).clone();
    let oid = file.oid;

    let mut t = SimTime::ZERO;
    let (dfs, mut s) = session(&mut w);
    for off in (0..REGION).step_by(CHUNK as usize) {
        let data = stamped(oid, off, 1, CHUNK as usize);
        t = dfs.write(&mut s, t, 0, &mut file, off, data).unwrap();
    }

    // Only now does the leader of the file's data object go dark: it stays
    // Up in the map, its connection just eats traffic.
    let leader = w.cluster.map().route(&oid).set.leader();
    w.set_fault_plan(FaultPlan {
        blackholes: vec![leader.expect("healthy leader")],
        ..FaultPlan::default()
    });

    let (dfs, mut s) = session(&mut w);
    let (got, at) = dfs
        .read(&mut s, t, 0, &file, READ_OFF, READ_LEN)
        .expect("the survivor must serve the read");
    assert_eq!(
        got,
        stamped(oid, READ_OFF, 1, READ_LEN as usize),
        "wrong bytes"
    );
    (got, at, w.client.retry_stats())
}

#[test]
fn blackholed_leader_under_a_striped_read_is_detected_and_failed_over() {
    let (bytes, at, retry) = run();
    assert_eq!(bytes.len() as u64, READ_LEN);
    assert!(
        retry.timeouts >= 1,
        "black-holed legs must time out: {retry:?}"
    );
    assert!(
        retry.retries >= 1,
        "timed-out legs must re-stage: {retry:?}"
    );
    assert_eq!(retry.exhausted, 0);
    assert_eq!((bytes, at, retry), run(), "replay must be bit-identical");
}
