//! The batched wire traversal must be *observationally identical* to the
//! per-segment booking loop: every delivery instant, every byte counter,
//! on both transports, for arbitrary interleavings of two-sided sends and
//! one-sided RDMA ops — contended and not.
//!
//! Strategy: drive two fabrics built from the same seed through the same
//! operation sequence, one with `set_force_per_segment(true)`, and compare
//! every observable. Randomized mixes come from `SimRng` so a failing seed
//! replays exactly.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_fabric::{ConnId, Dir, Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, Transport};
use ros2_sim::{SimRng, SimTime};
use ros2_verbs::{AccessFlags, Expiry, MemAddr, MemoryDomain, NodeId, RKey};

fn spec(name: &str, cores: usize, port_gbps: u64) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        cpu: CpuComplement {
            class: CoreClass::HostX86,
            cores,
        },
        nic: NicModel::connectx6(),
        port_rate: gbps(port_gbps),
        mem_budget: 1 << 30,
        dpu_tcp_rx: None,
    }
}

/// A two-node fabric plus a registered 2 MiB remote window (RDMA only).
/// Distinct per-node port rates make traffic towards the faster node hit
/// the `rx_rate > tx_rate` decline guard of the batched wire path.
fn build(transport: Transport, port_a: u64, port_b: u64) -> (Fabric, ConnId, RKey, MemAddr) {
    let mut f = Fabric::new(
        transport,
        vec![spec("a", 8, port_a), spec("b", 8, port_b)],
        11,
    );
    let pd_a = f.rdma_mut(NodeId(0)).alloc_pd("a");
    let pd_b = f.rdma_mut(NodeId(1)).alloc_pd("b");
    let conn = f.connect(NodeId(0), NodeId(1), pd_a, pd_b).unwrap();
    let (rkey, buf) = if transport == Transport::Rdma {
        let buf = f
            .rdma_mut(NodeId(1))
            .alloc_buffer(2 << 20, MemoryDomain::HostDram)
            .unwrap();
        let (_, rkey, _) = f
            .rdma_mut(NodeId(1))
            .reg_mr(pd_b, buf, 2 << 20, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        (rkey, buf)
    } else {
        (RKey(0), 0)
    };
    (f, conn, rkey, buf)
}

/// One step of a pre-generated randomized schedule.
#[derive(Clone, Debug)]
struct ScheduledOp {
    now: SimTime,
    kind: u64,
    to_b: bool,
    len: u64,
}

/// Materializes one operation schedule from a seed: mixed cadence (bursts
/// at one instant plus forward jumps) so some traversals contend and some
/// do not.
fn schedule(seed: u64, steps: u32) -> Vec<ScheduledOp> {
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    (0..steps)
        .map(|_| {
            if rng.chance(0.4) {
                now += ros2_sim::SimDuration::from_nanos(rng.below(3_000_000));
            }
            ScheduledOp {
                now,
                kind: rng.below(3),
                to_b: rng.chance(0.5),
                len: 1 + rng.below(1 << 20),
            }
        })
        .collect()
}

/// Applies one scheduled operation to `f`; returns the delivery instant.
fn drive_op(
    f: &mut Fabric,
    conn: ConnId,
    rkey: RKey,
    buf: MemAddr,
    transport: Transport,
    op: &ScheduledOp,
) -> SimTime {
    if transport == Transport::Rdma && op.kind == 1 {
        // One-sided WRITE (always towards node B's registered window).
        f.rdma_write(
            op.now,
            conn,
            Dir::AtoB,
            rkey,
            buf,
            Bytes::from(vec![7u8; op.len as usize]),
        )
        .unwrap()
        .at
    } else if transport == Transport::Rdma && op.kind == 2 {
        f.rdma_read(op.now, conn, Dir::AtoB, rkey, buf, op.len.min(2 << 20))
            .unwrap()
            .at
    } else {
        let dir = if op.to_b { Dir::AtoB } else { Dir::BtoA };
        f.send(op.now, conn, dir, Bytes::from(vec![3u8; op.len as usize]))
            .unwrap()
            .at
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched and per-segment fabrics agree on every delivery instant and
    /// byte counter across random op mixes, transports and port rates
    /// (including asymmetric rates, where the fast path must decline).
    #[test]
    fn batched_equals_per_segment(seed in any::<u64>(), tcp in any::<bool>(), slow_b in any::<bool>()) {
        let transport = if tcp { Transport::Tcp } else { Transport::Rdma };
        // Asymmetric down-rate on B: traffic B->A then has rx_rate >
        // tx_rate, so the batched path must decline (the decline guard is
        // itself under test), while A->B stays eligible.
        let (port_a, port_b) = if slow_b { (100, 40) } else { (100, 100) };
        let (mut fast, conn_f, rkey_f, buf_f) = build(transport, port_a, port_b);
        let (mut slow, conn_s, rkey_s, buf_s) = build(transport, port_a, port_b);
        slow.set_force_per_segment(true);

        for (step, op) in schedule(seed, 120).iter().enumerate() {
            let at_fast = drive_op(&mut fast, conn_f, rkey_f, buf_f, transport, op);
            let at_slow = drive_op(&mut slow, conn_s, rkey_s, buf_s, transport, op);
            prop_assert_eq!(
                at_fast, at_slow,
                "seed {seed} step {step} t={:?}: fast {at_fast:?} != slow {at_slow:?}",
                op.now
            );
        }
        for n in [NodeId(0), NodeId(1)] {
            prop_assert_eq!(fast.node(n).bytes_tx, slow.node(n).bytes_tx);
            prop_assert_eq!(fast.node(n).bytes_rx, slow.node(n).bytes_rx);
        }
        assert_pipes_match(&fast, &slow, 2);
        // The forced fabric must never have taken the batched path.
        prop_assert_eq!(slow.wire_traversal_stats().batched, 0);
    }
}

/// Every node's TX and RX pipe reads the same on both fabrics: booking
/// and fast-path counters, busy time, bytes served and the tail.
fn assert_pipes_match(fast: &Fabric, slow: &Fabric, nodes: u32) {
    for n in (0..nodes).map(NodeId) {
        let (f, s) = (fast.node(n), slow.node(n));
        for (name, a, b) in [
            ("tx", &f.tx_pipe, &s.tx_pipe),
            ("rx", &f.rx_pipe, &s.rx_pipe),
        ] {
            assert_eq!(a.stats(), b.stats(), "node {n:?} {name} pipe stats");
            assert_eq!(a.busy_time(), b.busy_time(), "node {n:?} {name} busy time");
            assert_eq!(
                a.bytes_served(),
                b.bytes_served(),
                "node {n:?} {name} bytes"
            );
            assert_eq!(a.tail_free(), b.tail_free(), "node {n:?} {name} tail");
        }
    }
}

/// Transfers submitted at one instant queue at both pipes' tails: each
/// after the first starts where the one before it ends. Every traversal
/// books one window per pipe, and every grant, counter and tail equals
/// the forced per-segment loop's.
#[test]
fn transfers_queued_at_the_tail_book_one_window() {
    for transport in [Transport::Tcp, Transport::Rdma] {
        let (mut fast, conn_f, rkey_f, buf_f) = build(transport, 100, 100);
        let (mut slow, conn_s, rkey_s, buf_s) = build(transport, 100, 100);
        slow.set_force_per_segment(true);
        // The send on TCP, a one-sided WRITE on RDMA.
        let op = ScheduledOp {
            now: SimTime::from_micros(3),
            kind: 1,
            to_b: true,
            len: 1 << 20,
        };
        let mut last = SimTime::ZERO;
        for i in 0..32 {
            let at_fast = drive_op(&mut fast, conn_f, rkey_f, buf_f, transport, &op);
            let at_slow = drive_op(&mut slow, conn_s, rkey_s, buf_s, transport, &op);
            assert_eq!(at_fast, at_slow, "{transport:?} transfer {i}");
            assert!(
                at_fast > last,
                "{transport:?} transfer {i} queued behind the one before"
            );
            last = at_fast;
        }
        let wire = fast.wire_traversal_stats();
        assert_eq!(
            (wire.batched, wire.per_segment),
            (32, 0),
            "{transport:?}: every queued transfer takes the window"
        );
        assert_pipes_match(&fast, &slow, 2);
        let stats = fast.node(NodeId(0)).tx_pipe.stats();
        assert_eq!(
            stats.fastpath_hits, stats.bookings,
            "{transport:?} TX all at the tail"
        );
    }
}

/// A transfer whose first segment reaches the RX pipe before that pipe's
/// last interval starts could fill the gap in front of it, so the window
/// declines, and the loop's placement in the gap is what both fabrics book.
#[test]
fn an_rx_gap_before_the_last_interval_declines_the_window() {
    let three = || {
        let mut f = Fabric::new(
            Transport::Tcp,
            vec![spec("a", 8, 100), spec("b", 8, 100), spec("c", 8, 100)],
            11,
        );
        let pd = ros2_verbs::PdId(0); // unused on TCP
        let a_to_b = f.connect(NodeId(0), NodeId(1), pd, pd).unwrap();
        let c_to_b = f.connect(NodeId(2), NodeId(1), pd, pd).unwrap();
        (f, a_to_b, c_to_b)
    };
    let (mut fast, ab_f, cb_f) = three();
    let (mut slow, ab_s, cb_s) = three();
    slow.set_force_per_segment(true);
    let mut deliveries = Vec::new();
    for (f, ab, cb) in [(&mut fast, ab_f, cb_f), (&mut slow, ab_s, cb_s)] {
        // C books B's RX pipe a millisecond ahead; A's megabyte lands first.
        let later = f
            .send(
                SimTime::from_millis(1),
                cb,
                Dir::AtoB,
                Bytes::from(vec![1u8; 4096]),
            )
            .unwrap();
        let first = f
            .send(
                SimTime::ZERO,
                ab,
                Dir::AtoB,
                Bytes::from(vec![2u8; 1 << 20]),
            )
            .unwrap();
        assert!(first.at < later.at, "the megabyte fits in the gap");
        deliveries.push((first.at, later.at));
    }
    assert_eq!(deliveries[0], deliveries[1]);
    assert_pipes_match(&fast, &slow, 3);
    assert_eq!(fast.wire_traversal_stats().per_segment, 1);
}

/// An uncontended large-transfer stream books nearly every traversal via
/// the closed-form window, and the booking-level hit rate clears 90 %.
#[test]
fn uncontended_stream_hits_fast_path() {
    let (mut f, conn, rkey, buf) = build(Transport::Rdma, 100, 100);
    let mut now = SimTime::ZERO;
    for _ in 0..256 {
        let d = f
            .rdma_write(
                now,
                conn,
                Dir::AtoB,
                rkey,
                buf,
                Bytes::from(vec![0u8; 1 << 20]),
            )
            .unwrap();
        now = d.at; // closed loop: next op after the previous completes
    }
    let wire = f.wire_traversal_stats();
    assert!(
        wire.batched_rate() > 0.9,
        "batched rate {:.3} ({} / {})",
        wire.batched_rate(),
        wire.batched,
        wire.batched + wire.per_segment
    );
    let stats = f.resource_stats();
    assert!(
        stats.hit_rate() > 0.9,
        "booking hit rate {:.3} ({}/{})",
        stats.hit_rate(),
        stats.fastpath_hits,
        stats.bookings
    );
}

/// A faster RX pipe would leave idle holes between segment bookings that
/// one contiguous window would mis-book, so the batched path must decline
/// whenever `rx_rate > tx_rate` — and still match the per-segment model.
#[test]
fn faster_rx_pipe_declines_batched_path() {
    // A's port is 40 Gbps, B's 100 Gbps: A->B traffic has rx_rate > tx_rate.
    let (mut f, conn, rkey, buf) = build(Transport::Rdma, 40, 100);
    let (mut g, conn2, rkey2, buf2) = build(Transport::Rdma, 40, 100);
    g.set_force_per_segment(true);
    for i in 0..8u64 {
        let at = SimTime::from_micros(i * 400);
        let d = f
            .rdma_write(
                at,
                conn,
                Dir::AtoB,
                rkey,
                buf,
                Bytes::from(vec![0u8; 1 << 20]),
            )
            .unwrap();
        let d2 = g
            .rdma_write(
                at,
                conn2,
                Dir::AtoB,
                rkey2,
                buf2,
                Bytes::from(vec![0u8; 1 << 20]),
            )
            .unwrap();
        assert_eq!(d.at, d2.at, "write {i} diverged on asymmetric rates");
    }
    let wire = f.wire_traversal_stats();
    assert_eq!(
        wire.batched, 0,
        "payload traversals towards the faster pipe must decline the batched path"
    );
    assert!(wire.per_segment > 0);
}

/// Pinned regression for the conservation suite's byte accounting and the
/// absolute timing of a canonical transfer: a 1 MiB RDMA WRITE at t=0 on
/// the 100 Gbps testbed. If the wire model or the booking core shifts by a
/// single nanosecond, this fails before any figure silently moves.
#[test]
fn canonical_write_timing_is_pinned() {
    let (mut f, conn, rkey, buf) = build(Transport::Rdma, 100, 100);
    let d = f
        .rdma_write(
            SimTime::ZERO,
            conn,
            Dir::AtoB,
            rkey,
            buf,
            Bytes::from(vec![0u8; 1 << 20]),
        )
        .unwrap();
    // Both paths must produce this exact instant (see PINNED_AT below).
    let (mut g, conn2, rkey2, buf2) = build(Transport::Rdma, 100, 100);
    g.set_force_per_segment(true);
    let d2 = g
        .rdma_write(
            SimTime::ZERO,
            conn2,
            Dir::AtoB,
            rkey2,
            buf2,
            Bytes::from(vec![0u8; 1 << 20]),
        )
        .unwrap();
    assert_eq!(d.at, d2.at, "fast/slow divergence on the canonical write");

    const PINNED_AT_NS: u64 = 102_546;
    assert_eq!(
        d.at.as_nanos(),
        PINNED_AT_NS,
        "canonical 1 MiB RDMA WRITE completion moved"
    );
    assert_eq!(f.node(NodeId(0)).bytes_tx, 1 << 20);
    assert_eq!(f.node(NodeId(1)).bytes_rx, 1 << 20);
    assert_eq!(f.node(NodeId(1)).bytes_tx, 0);
    assert_eq!(f.node(NodeId(0)).bytes_rx, 0);
}

/// TCP sends are likewise conserved and pinned (per-segment framing grows
/// on-wire bytes; payload accounting must not).
#[test]
fn tcp_byte_accounting_is_pinned() {
    let (mut f, conn, _, _) = build(Transport::Tcp, 100, 100);
    let mut total = 0u64;
    for i in 1..=16u64 {
        let len = i * 60_000;
        f.send(
            SimTime::ZERO,
            conn,
            Dir::AtoB,
            Bytes::from(vec![0u8; len as usize]),
        )
        .unwrap();
        total += len;
    }
    assert_eq!(f.node(NodeId(0)).bytes_tx, total);
    assert_eq!(f.node(NodeId(1)).bytes_rx, total);
    assert_eq!(total, 8_160_000);
}
