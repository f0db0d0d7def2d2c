//! The fabric: typed connections between nodes carrying two-sided messages
//! and (on RDMA) one-sided READ/WRITE, with full cost accounting.
//!
//! A message from A to B passes, in order:
//!
//! 1. **A's CPU** — per-op + per-byte send processing (scaled to A's core
//!    class), on A's TX core pool;
//! 2. **A's kernel stage** — serialized per-message cost (TCP only);
//! 3. **the connection's serialized stage** — per-socket ordering;
//! 4. **the wire** — segmentation through A's TX pipe, the path latency,
//!    and B's RX pipe (store-and-forward per segment, so concurrent flows
//!    interleave and a single large transfer still pipelines);
//! 5. **B's kernel stage** (TCP only) and **B's CPU** — per-op + per-byte
//!    receive processing on B's RX pool, with the DPU receive-path penalty
//!    when B is a SmartNIC running TCP.
//!
//! One-sided RDMA ops skip stages 1/2/5 on the *target*: the NIC executes
//! the access against registered memory via `ros2-verbs`, which is exactly
//! why the paper's DPU results keep RDMA at host parity. Every pipe and
//! pool above is a leaf of the fabric's [`Timed`] walk.

use bytes::Bytes;
use ros2_hw::{per_byte, CoreClass, Transport, TransportCost, WireProtocol, PATH_LATENCY};
use ros2_sim::{ResourceStats, ServerPool, SimDuration, SimRng, SimTime, Timed, Visit};
use ros2_verbs::{MemAddr, NodeId, PdId, QpId, RKey, RdmaDevice, VerbsError};

#[cfg(test)]
use ros2_verbs::{AccessFlags, Expiry};

use crate::node::{FabricNode, NodeSpec};

/// A connection handle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConnId(pub u32);

/// Direction of an operation over a connection.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Dir {
    /// From the connection's `a` endpoint to `b`.
    AtoB,
    /// From `b` to `a`.
    BtoA,
}

/// Fabric-layer failures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// Unknown connection.
    BadConn,
    /// One-sided operation requested on a TCP connection.
    NotRdma,
    /// The verbs layer rejected the access.
    Verbs(VerbsError),
}

/// Which ends of a two-sided message spend a core on it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendCores {
    /// A core posts the SEND and a core reaps the receive: every caller but
    /// a work-request chain.
    Both,
    /// A NIC work-request chain posts the SEND: no sender CPU (stage 1).
    NicPosted,
    /// The message lands on a receive a chain is parked on: no receiver CPU
    /// (stage 5's core booking).
    ChainConsumed,
}

/// A delivered message or completed one-sided op.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Instant the receiver (or initiator, for one-sided) observes it.
    pub at: SimTime,
    /// Returned data (message payload or RDMA READ result).
    pub data: Option<Bytes>,
}

struct Conn {
    a: NodeId,
    b: NodeId,
    /// Serialized per-socket stages, one per direction.
    ser_ab: ServerPool,
    ser_ba: ServerPool,
    /// QPs backing this connection on each node (RDMA transport).
    qp_a: Option<QpId>,
    qp_b: Option<QpId>,
    /// For a sub-channel: the root connection whose QPs it borrows.
    parent: Option<ConnId>,
    ops: u64,
}

/// The fabric connecting a set of nodes through one switch.
pub struct Fabric {
    transport: Transport,
    wire: WireProtocol,
    cost: TransportCost,
    nodes: Vec<FabricNode>,
    conns: Vec<Conn>,
    /// Messages at or below this size go *eager* (inline, one receiver
    /// copy); larger ones use the *rendezvous* protocol (an RTS/CTS
    /// handshake, then zero-copy placement). UCX's `RNDV_THRESH` analogue;
    /// only meaningful on RDMA transports.
    eager_threshold: u64,
    /// Wire traversals that booked one closed-form pipelined window per
    /// pipe (every segment lands at both pipes' tails — idle or queued).
    wire_fast: u64,
    /// Wire traversals that fell back to the exact per-segment loop.
    wire_slow: u64,
    /// Validation hook: when set, every traversal runs the per-segment
    /// loop so tests can assert the fast path is bit-identical.
    force_per_segment: bool,
}

/// Fast-path / slow-path counters for wire traversals (see
/// [`Fabric::wire_traversal_stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTraversalStats {
    /// Traversals that booked the closed-form pipelined window.
    pub batched: u64,
    /// Traversals that ran the per-segment booking loop.
    pub per_segment: u64,
}

impl WireTraversalStats {
    /// Fraction of traversals that took the batched fast path.
    pub fn batched_rate(&self) -> f64 {
        let total = self.batched + self.per_segment;
        if total == 0 {
            0.0
        } else {
            self.batched as f64 / total as f64
        }
    }
}

impl Fabric {
    /// Creates a fabric over `specs` using the given transport. NIC/port
    /// latencies are folded into one fixed path latency,
    /// [`ros2_hw::PATH_LATENCY`].
    pub fn new(transport: Transport, specs: Vec<NodeSpec>, seed: u64) -> Self {
        let rng = SimRng::new(seed);
        let (wire, cost) = match transport {
            Transport::Tcp => (WireProtocol::tcp(), TransportCost::tcp()),
            Transport::Rdma => (WireProtocol::rdma(), TransportCost::rdma()),
        };
        let nodes = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| FabricNode::new(NodeId(i as u32), s, &rng))
            .collect();
        Fabric {
            transport,
            wire,
            cost,
            nodes,
            conns: Vec::new(),
            eager_threshold: 8 * 1024,
            wire_fast: 0,
            wire_slow: 0,
            force_per_segment: false,
        }
    }

    /// Builds the fabric for a whole deployment shape: one client node per
    /// topology entry (host or BlueField-3, per that client's placement)
    /// plus one canonical storage server per engine, all behind the shared
    /// switch.
    /// The single constructor every DFS world and the assembled system
    /// use — node specs come from their canonical sources
    /// ([`NodeSpec::host_client`], [`NodeSpec::bluefield3`],
    /// [`NodeSpec::storage_server`]), never from cloned literals.
    pub fn for_topology(
        transport: Transport,
        topology: &ros2_hw::ClusterTopology,
        seed: u64,
    ) -> Self {
        let mut specs = Vec::with_capacity(topology.node_count());
        specs.extend(topology.clients.iter().map(|p| match p {
            ros2_hw::ClientPlacement::Host => NodeSpec::host_client(),
            ros2_hw::ClientPlacement::Dpu => NodeSpec::bluefield3(),
        }));
        specs.extend((0..topology.storage_nodes).map(|_| NodeSpec::storage_server()));
        Fabric::new(transport, specs, seed)
    }

    /// Forces every wire traversal onto the exact per-segment booking loop.
    ///
    /// The batched fast path must be observationally identical, so this
    /// exists only for equivalence tests and A/B perf measurement — it is
    /// never needed for correctness.
    pub fn set_force_per_segment(&mut self, on: bool) {
        self.force_per_segment = on;
    }

    /// Sets the eager/rendezvous switchover (RDMA only; see field docs).
    pub fn set_eager_threshold(&mut self, bytes: u64) {
        self.eager_threshold = bytes;
    }

    /// The transport in use.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// The wire protocol model.
    pub fn wire(&self) -> &WireProtocol {
        &self.wire
    }

    /// The CPU cost table.
    pub fn cost(&self) -> &TransportCost {
        &self.cost
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &FabricNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a node's RDMA device.
    pub fn rdma_mut(&mut self, id: NodeId) -> &mut RdmaDevice {
        &mut self.nodes[id.0 as usize].rdma
    }

    /// Sets the concurrent-flow hint used by the DPU RX contention model.
    pub fn set_flow_hint(&mut self, id: NodeId, flows: usize) {
        self.nodes[id.0 as usize].flow_hint = flows.max(1);
    }

    /// Opens a connection between `a` and `b`. On RDMA transports this
    /// creates and connects a QP on each side inside the given PDs.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        pd_a: PdId,
        pd_b: PdId,
    ) -> Result<ConnId, FabricError> {
        let id = ConnId(self.conns.len() as u32);
        let (qp_a, qp_b) = match self.transport {
            Transport::Tcp => (None, None),
            Transport::Rdma => {
                let qa = self.nodes[a.0 as usize]
                    .rdma
                    .create_qp(pd_a, ros2_verbs::QpType::Rc)
                    .map_err(FabricError::Verbs)?;
                let qb = self.nodes[b.0 as usize]
                    .rdma
                    .create_qp(pd_b, ros2_verbs::QpType::Rc)
                    .map_err(FabricError::Verbs)?;
                self.nodes[a.0 as usize]
                    .rdma
                    .connect_qp(qa, b, qb)
                    .map_err(FabricError::Verbs)?;
                self.nodes[b.0 as usize]
                    .rdma
                    .connect_qp(qb, a, qa)
                    .map_err(FabricError::Verbs)?;
                (Some(qa), Some(qb))
            }
        };
        self.conns.push(Conn {
            a,
            b,
            ser_ab: ServerPool::new(1),
            ser_ba: ServerPool::new(1),
            qp_a,
            qp_b,
            parent: None,
            ops: 0,
        });
        Ok(id)
    }

    /// Opens a *sub-channel* of an existing connection: an independent
    /// ordering domain (its own serialized per-socket stages) that borrows
    /// the parent's QPs instead of creating new ones. This is how a client
    /// node keeps per-(node, peer) connection state O(peers) while still
    /// giving each job its own head-of-line-blocking-free channel — the
    /// verbs analogue of multiplexing many sockets over one RC QP pair.
    ///
    /// Timing is identical to a dedicated connection: QP creation books no
    /// virtual time, and every runtime stage a sub-channel touches (its ser
    /// stages, the node pipes/pools) is either private or already shared.
    pub fn open_subchannel(&mut self, parent: ConnId) -> Result<ConnId, FabricError> {
        let root = {
            let c = self
                .conns
                .get(parent.0 as usize)
                .ok_or(FabricError::BadConn)?;
            // Chains collapse to the root so qps() resolves in one hop.
            c.parent.unwrap_or(parent)
        };
        let (a, b) = {
            let c = &self.conns[root.0 as usize];
            (c.a, c.b)
        };
        let id = ConnId(self.conns.len() as u32);
        self.conns.push(Conn {
            a,
            b,
            ser_ab: ServerPool::new(1),
            ser_ba: ServerPool::new(1),
            qp_a: None,
            qp_b: None,
            parent: Some(root),
            ops: 0,
        });
        Ok(id)
    }

    /// The `(source, destination)` nodes of `conn` in direction `dir`.
    fn endpoints(&self, conn: ConnId, dir: Dir) -> Result<(NodeId, NodeId), FabricError> {
        let c = self
            .conns
            .get(conn.0 as usize)
            .ok_or(FabricError::BadConn)?;
        Ok(match dir {
            Dir::AtoB => (c.a, c.b),
            Dir::BtoA => (c.b, c.a),
        })
    }

    /// The QP pair `(src_qp, dst_qp)` for `conn` in `dir` (RDMA only).
    /// Sub-channels resolve to their root connection's QPs.
    pub fn qps(&self, conn: ConnId, dir: Dir) -> Result<(QpId, QpId), FabricError> {
        let c = self
            .conns
            .get(conn.0 as usize)
            .ok_or(FabricError::BadConn)?;
        let c = match c.parent {
            Some(root) => self
                .conns
                .get(root.0 as usize)
                .ok_or(FabricError::BadConn)?,
            None => c,
        };
        match (c.qp_a, c.qp_b, dir) {
            (Some(qa), Some(qb), Dir::AtoB) => Ok((qa, qb)),
            (Some(qa), Some(qb), Dir::BtoA) => Ok((qb, qa)),
            _ => Err(FabricError::NotRdma),
        }
    }

    /// Total operations carried by `conn`.
    #[cfg(test)]
    fn conn_ops(&self, conn: ConnId) -> u64 {
        self.conns[conn.0 as usize].ops
    }

    // ---- timing helpers -------------------------------------------------

    fn scale(class: CoreClass, d: SimDuration) -> SimDuration {
        class.scale(d)
    }

    /// Wire traversal: segments through the source TX pipe, path latency,
    /// destination RX pipe. Returns the instant the last byte lands.
    ///
    /// The common case — every segment lands at the tail of both pipes,
    /// whether they are idle or still draining earlier transfers — is
    /// booked as one closed-form pipelined window per pipe in O(1) instead
    /// of a per-segment loop (8–16 bookings per 1 MiB chunk). When a
    /// segment could fill a gap before a pipe's last interval, the exact
    /// per-segment loop runs, so grants are bit-identical either way
    /// (asserted by `tests/fastpath_equivalence.rs`).
    fn traverse_wire(&mut self, start: SimTime, src: NodeId, dst: NodeId, payload: u64) -> SimTime {
        let wire_total = self.wire.wire_bytes(payload);
        let seg = self.wire.segment;
        let last_arrival = if wire_total == 0 {
            start
        } else if !self.force_per_segment && wire_total <= seg {
            // Single-segment transfer (descriptors, completions, small I/O):
            // the closed form and the loop coincide at one TX and one RX
            // booking, so book directly — the aggregate-window bookkeeping
            // would only add overhead (measured ~10 % on desc-sized sends).
            self.wire_fast += 1;
            let tx = self.nodes[src.0 as usize]
                .tx_pipe
                .transmit(start, wire_total);
            let arrive = tx.finish + PATH_LATENCY;
            let rx = self.nodes[dst.0 as usize]
                .rx_pipe
                .transmit(arrive, wire_total);
            start.max(rx.finish)
        } else {
            // Hoisted decline check: a `start` before the TX pipe's last
            // interval could fill an earlier gap, and the one-compare test
            // is far cheaper than entering the closed-form bookkeeping.
            let batched = if self.force_per_segment
                || self.nodes[src.0 as usize].tx_pipe.last_start() > start
            {
                None
            } else {
                self.traverse_wire_batched(start, src, dst, wire_total, seg)
            };
            match batched {
                Some(at) => {
                    self.wire_fast += 1;
                    at
                }
                None => {
                    self.wire_slow += 1;
                    self.traverse_wire_segments(start, src, dst, wire_total, seg)
                }
            }
        };
        self.nodes[src.0 as usize].bytes_tx += payload;
        self.nodes[dst.0 as usize].bytes_rx += payload;
        last_arrival
    }

    /// The exact per-segment booking loop (the gap-placement slow path).
    fn traverse_wire_segments(
        &mut self,
        start: SimTime,
        src: NodeId,
        dst: NodeId,
        wire_total: u64,
        seg: u64,
    ) -> SimTime {
        let mut remaining = wire_total;
        let mut last_arrival = start;
        while remaining > 0 {
            let chunk = remaining.min(seg);
            let tx = self.nodes[src.0 as usize].tx_pipe.transmit(start, chunk);
            let arrive = tx.finish + PATH_LATENCY;
            let rx = self.nodes[dst.0 as usize].rx_pipe.transmit(arrive, chunk);
            last_arrival = last_arrival.max(rx.finish);
            remaining -= chunk;
        }
        last_arrival
    }

    /// Closed-form pipelined traversal for transfers that land at the
    /// pipes' tails: one contiguous TX window and one contiguous RX window
    /// reproduce exactly what the per-segment loop would book.
    ///
    /// Why this is exact: the loop submits every segment at `start`. When
    /// `start` is at or after the start of the TX pipe's last interval,
    /// the first segment takes a tail fast path and starts at `t0 =
    /// max(start, tail_free)`, merging into that interval if it starts
    /// right at its end; either way the last interval now starts at or
    /// before `start`, so every later segment takes the queue-at-tail path
    /// too, and the segments serialize back-to-back into the single window
    /// `[t0, t0 + Σ tx_i)`. Segment `i` then arrives at the RX pipe
    /// [`PATH_LATENCY`] after its TX finish, i.e. at intervals of its TX
    /// time. When the RX pipe is no faster than the TX pipe (`rx_rate <=
    /// tx_rate`, true of every shipped topology — both ends clamp to the
    /// same switch port), each segment's RX service time is ≥ the gap to
    /// the next arrival (the first segment is the largest), so RX bookings
    /// are contiguous too. With the first arrival `a0` at or after the
    /// start of the RX pipe's last interval, the same tail argument gives
    /// the window `[r0, r0 + Σ rx_i)` with `r0 = max(a0, tail_free)`. A
    /// faster RX pipe would leave idle holes between segment bookings, and
    /// an earlier `start` or `a0` could fill a gap before the last
    /// interval; both cases fall back to the loop. Every per-segment
    /// booking replaced here is a tail fast-path hit, so the pipes'
    /// [`ResourceStats`] match as well.
    ///
    /// Returns `None` (book nothing) unless every exactness precondition
    /// holds.
    fn traverse_wire_batched(
        &mut self,
        start: SimTime,
        src: NodeId,
        dst: NodeId,
        wire_total: u64,
        seg: u64,
    ) -> Option<SimTime> {
        debug_assert!(
            self.nodes[src.0 as usize].tx_pipe.last_start() <= start,
            "caller pre-checks the TX tail before entering the closed form"
        );
        let tx_rate = self.nodes[src.0 as usize].tx_pipe.rate();
        let rx_rate = self.nodes[dst.0 as usize].rx_pipe.rate();
        if rx_rate > tx_rate {
            return None;
        }
        let segments = wire_total.div_ceil(seg);
        let full = segments - 1;
        let rem = wire_total - full * seg; // in (0, seg]
        let tx_pipe = &self.nodes[src.0 as usize].tx_pipe;
        let t0 = start.max(tx_pipe.tail_free());
        let tx_full = tx_pipe.service_time(seg);
        let tx_rem = tx_pipe.service_time(rem);
        let tx_dur = tx_full * full + tx_rem;
        // First segment is a full one unless the transfer fits in one.
        let first_tx = if full > 0 { tx_full } else { tx_rem };
        let a0 = t0 + first_tx + PATH_LATENCY;
        let rx_pipe = &self.nodes[dst.0 as usize].rx_pipe;
        if rx_pipe.last_start() > a0 {
            return None;
        }
        let r0 = a0.max(rx_pipe.tail_free());
        let rx_dur = rx_pipe.service_time(seg) * full + rx_pipe.service_time(rem);
        // Last arrival instant — mirrors the loop's per-segment submit
        // times so pruning high-water marks line up with the slow path.
        let last_arrive = t0 + tx_dur + PATH_LATENCY;
        self.nodes[src.0 as usize]
            .tx_pipe
            .book_batch(start, t0, tx_dur, wire_total, segments);
        let rx = self.nodes[dst.0 as usize].rx_pipe.book_batch(
            last_arrive,
            r0,
            rx_dur,
            wire_total,
            segments,
        );
        Some(rx.finish)
    }

    /// Batched vs per-segment wire traversal counts since construction (or
    /// the last [`Timed::reset_timing`]).
    pub fn wire_traversal_stats(&self) -> WireTraversalStats {
        WireTraversalStats {
            batched: self.wire_fast,
            per_segment: self.wire_slow,
        }
    }

    /// [`Timed::resource_stats`], callable without the trait in scope.
    // frozen by benchmark/src/sut.rs:236
    pub fn resource_stats(&mut self) -> ResourceStats {
        Timed::resource_stats(self)
    }

    /// [`Timed::data_plane_stats`], callable without the trait in scope.
    // frozen by benchmark/src/sut.rs:237
    pub fn data_plane_stats(&mut self) -> ros2_buf::DataPlaneStats {
        Timed::data_plane_stats(self)
    }

    /// Receive-side CPU cost for `payload` bytes on node `dst`.
    fn recv_cpu_cost(&self, dst: NodeId, payload: u64) -> SimDuration {
        let node = &self.nodes[dst.0 as usize];
        let class = node.class();
        let base_op = Self::scale(class, self.cost.recv_per_op);
        let byte_cost = match (&node.spec.dpu_tcp_rx, self.transport) {
            (Some(model), Transport::Tcp) => {
                // The DPU receive-path penalty, contention-adjusted.
                let ps = model.effective_rx_ps_per_byte(self.cost.recv_ps_per_byte, node.flow_hint);
                per_byte(payload, ps)
            }
            _ => Self::scale(class, per_byte(payload, self.cost.recv_ps_per_byte)),
        };
        base_op + byte_cost
    }

    /// Sends a two-sided message carrying `data`.
    pub fn send(
        &mut self,
        now: SimTime,
        conn: ConnId,
        dir: Dir,
        data: Bytes,
    ) -> Result<Delivery, FabricError> {
        self.send_framed(now, conn, dir, 0, data, SendCores::Both)
    }

    /// Gather send: one two-sided message of `header` framing bytes
    /// followed by `data`. Every stage is costed on `header + data.len()`
    /// — exactly a [`Self::send`] of the concatenation — while the
    /// receiver gets the caller's `data` handle untouched, so framing a
    /// payload never copies it. `cores` says which ends spend a core on the
    /// message; the serialized stage, rendezvous and the wire are the same
    /// whoever posts and whoever consumes.
    pub fn send_framed(
        &mut self,
        now: SimTime,
        conn: ConnId,
        dir: Dir,
        header: u64,
        data: Bytes,
        cores: SendCores,
    ) -> Result<Delivery, FabricError> {
        let (src, dst) = self.endpoints(conn, dir)?;
        let payload = header + data.len() as u64;

        // 1. Sender CPU.
        let src_class = self.nodes[src.0 as usize].class();
        let mut t = now;
        if cores != SendCores::NicPosted {
            let send_cost = Self::scale(
                src_class,
                self.cost.send_per_op + per_byte(payload, self.cost.send_ps_per_byte),
            );
            t = self.nodes[src.0 as usize]
                .tx_pool
                .submit(now, send_cost)
                .finish;
        }

        // 2. Sender kernel stage (TCP only).
        if self.cost.kernel_per_msg > SimDuration::ZERO {
            let k = Self::scale(src_class, self.cost.kernel_per_msg);
            t = self.nodes[src.0 as usize].kernel.submit(t, k).finish;
        }

        // 3. Per-connection serialized stage.
        let ser_cost = Self::scale(src_class, self.cost.serialized_per_op);
        let c = &mut self.conns[conn.0 as usize];
        let ser = match dir {
            Dir::AtoB => &mut c.ser_ab,
            Dir::BtoA => &mut c.ser_ba,
        };
        t = ser.submit(t, ser_cost).finish;
        c.ops += 1;

        // 3b. RDMA rendezvous handshake for large sends: RTS out, CTS
        // back, then the NIC places data with zero receiver copies.
        let rendezvous = self.transport == Transport::Rdma && payload > self.eager_threshold;
        if rendezvous {
            t = t + PATH_LATENCY + PATH_LATENCY;
        }

        // 4. The wire.
        let landed = self.traverse_wire(t, src, dst, payload);

        // 5. Receiver kernel stage + CPU.
        let dst_class = self.nodes[dst.0 as usize].class();
        let mut t = landed;
        if self.cost.kernel_per_msg > SimDuration::ZERO {
            let k = Self::scale(dst_class, self.cost.kernel_per_msg);
            t = self.nodes[dst.0 as usize].kernel.submit(t, k).finish;
        }
        if cores != SendCores::ChainConsumed {
            let mut recv_cost = self.recv_cpu_cost(dst, payload);
            if self.transport == Transport::Rdma && !rendezvous {
                // Eager RDMA: the receiver copies out of the bounce buffer.
                recv_cost += Self::scale(dst_class, ros2_hw::per_byte(payload, 50));
            }
            t = self.nodes[dst.0 as usize]
                .rx_pool
                .submit(t, recv_cost)
                .finish;
        }

        Ok(Delivery {
            at: t,
            data: Some(data),
        })
    }

    /// One-sided RDMA WRITE: places `data` into the destination's
    /// registered memory at `(rkey, addr)` with zero destination CPU cost.
    /// Returns the initiator-visible completion instant.
    pub fn rdma_write(
        &mut self,
        now: SimTime,
        conn: ConnId,
        dir: Dir,
        rkey: RKey,
        addr: MemAddr,
        data: Bytes,
    ) -> Result<Delivery, FabricError> {
        if self.transport != Transport::Rdma {
            return Err(FabricError::NotRdma);
        }
        let (src, dst) = self.endpoints(conn, dir)?;
        let (_, dst_qp) = self.qps(conn, dir)?;
        let payload = data.len() as u64;

        // Initiator posts the WR.
        let src_class = self.nodes[src.0 as usize].class();
        let post = Self::scale(src_class, self.cost.send_per_op);
        let g_post = self.nodes[src.0 as usize].tx_pool.submit(now, post);
        let ser_cost = Self::scale(src_class, self.cost.serialized_per_op);
        let c = &mut self.conns[conn.0 as usize];
        let ser = match dir {
            Dir::AtoB => &mut c.ser_ab,
            Dir::BtoA => &mut c.ser_ba,
        };
        let t = ser.submit(g_post.finish, ser_cost).finish;
        c.ops += 1;

        // Wire, then the destination NIC executes the placement.
        let landed = self.traverse_wire(t, src, dst, payload);
        self.nodes[dst.0 as usize]
            .rdma
            .execute_remote_write(landed, dst_qp, rkey, addr, &data)
            .map_err(FabricError::Verbs)?;

        // The ACK back to the initiator (latency only; piggybacked).
        let done = landed + PATH_LATENCY;
        Ok(Delivery {
            at: done,
            data: None,
        })
    }

    /// One-sided RDMA READ: fetches `len` bytes from the destination's
    /// registered memory. Zero destination CPU cost.
    pub fn rdma_read(
        &mut self,
        now: SimTime,
        conn: ConnId,
        dir: Dir,
        rkey: RKey,
        addr: MemAddr,
        len: u64,
    ) -> Result<Delivery, FabricError> {
        if self.transport != Transport::Rdma {
            return Err(FabricError::NotRdma);
        }
        let (src, dst) = self.endpoints(conn, dir)?;
        let (_, dst_qp) = self.qps(conn, dir)?;

        // Initiator posts the WR; the request capsule crosses the wire.
        let src_class = self.nodes[src.0 as usize].class();
        let post = Self::scale(src_class, self.cost.send_per_op);
        let g_post = self.nodes[src.0 as usize].tx_pool.submit(now, post);
        let ser_cost = Self::scale(src_class, self.cost.serialized_per_op);
        let c = &mut self.conns[conn.0 as usize];
        let ser = match dir {
            Dir::AtoB => &mut c.ser_ab,
            Dir::BtoA => &mut c.ser_ba,
        };
        let t = ser.submit(g_post.finish, ser_cost).finish;
        c.ops += 1;
        let req_landed = self.traverse_wire(t, src, dst, 16);

        // Destination NIC reads memory (no CPU), data returns over the wire.
        let data = self.nodes[dst.0 as usize]
            .rdma
            .execute_remote_read(req_landed, dst_qp, rkey, addr, len)
            .map_err(FabricError::Verbs)?;
        let back = self.traverse_wire(req_landed, dst, src, len);
        Ok(Delivery {
            at: back,
            data: Some(data),
        })
    }
}

impl Timed for Fabric {
    /// Every node's pipes, core pools, serialized kernel stage and
    /// registered memory, every connection's serialized stages, and the
    /// byte and wire-traversal counters. A reset keeps registrations, QPs
    /// and memory contents.
    fn visit(&mut self, v: &mut dyn Visit) {
        for n in &mut self.nodes {
            v.pipe(&mut n.tx_pipe);
            v.pipe(&mut n.rx_pipe);
            v.pool(&mut n.tx_pool);
            v.pool(&mut n.rx_pool);
            v.pool(&mut n.kernel);
            n.rdma.visit(v);
            v.rewind(&mut || (n.bytes_tx, n.bytes_rx) = (0, 0));
        }
        for c in &mut self.conns {
            v.pool(&mut c.ser_ab);
            v.pool(&mut c.ser_ba);
        }
        v.rewind(&mut || (self.wire_fast, self.wire_slow) = (0, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_hw::{gbps, CpuComplement, DpuTcpRxModel, NicModel};
    use ros2_verbs::MemoryDomain;

    fn spec(name: &str, class: CoreClass, cores: usize, dpu_tcp: bool) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            cpu: CpuComplement { class, cores },
            nic: NicModel::connectx6(),
            port_rate: gbps(100),
            mem_budget: 1 << 30,
            dpu_tcp_rx: if dpu_tcp {
                Some(DpuTcpRxModel::bluefield3())
            } else {
                None
            },
        }
    }

    fn two_hosts(transport: Transport) -> Fabric {
        Fabric::new(
            transport,
            vec![
                spec("client", CoreClass::HostX86, 48, false),
                spec("server", CoreClass::HostX86, 64, false),
            ],
            7,
        )
    }

    fn rdma_pair() -> (Fabric, ConnId, RKey, MemAddr) {
        let mut f = two_hosts(Transport::Rdma);
        let pd_a = f.rdma_mut(NodeId(0)).alloc_pd("client");
        let pd_b = f.rdma_mut(NodeId(1)).alloc_pd("server");
        let conn = f.connect(NodeId(0), NodeId(1), pd_a, pd_b).unwrap();
        let buf = f
            .rdma_mut(NodeId(1))
            .alloc_buffer(1 << 20, MemoryDomain::HostDram)
            .unwrap();
        let (_, rkey, _) = f
            .rdma_mut(NodeId(1))
            .reg_mr(pd_b, buf, 1 << 20, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        (f, conn, rkey, buf)
    }

    #[test]
    fn tcp_message_round_trips_data() {
        let mut f = two_hosts(Transport::Tcp);
        let pd = PdId(0); // unused on TCP
        let conn = f.connect(NodeId(0), NodeId(1), pd, pd).unwrap();
        let d = f
            .send(SimTime::ZERO, conn, Dir::AtoB, Bytes::from_static(b"rpc"))
            .unwrap();
        assert_eq!(d.data.unwrap(), Bytes::from_static(b"rpc"));
        assert!(d.at > SimTime::ZERO);
        assert_eq!(f.conn_ops(conn), 1);
    }

    /// A framed send is costed as a send of `header + data.len()` bytes on
    /// every stage — including a header that carries the message across
    /// the eager threshold — and delivers the caller's handle, not a copy.
    #[test]
    fn framed_send_is_timed_as_the_concatenation() {
        for transport in [Transport::Tcp, Transport::Rdma] {
            let eager = two_hosts(transport).eager_threshold as usize;
            for (header, len) in [(128, 4096), (128, 1 << 20), (128, eager - 64), (0, 777)] {
                let connect = |f: &mut Fabric| {
                    let pd_a = f.rdma_mut(NodeId(0)).alloc_pd("client");
                    let pd_b = f.rdma_mut(NodeId(1)).alloc_pd("server");
                    f.connect(NodeId(0), NodeId(1), pd_a, pd_b).unwrap()
                };
                let mut whole = two_hosts(transport);
                let conn_w = connect(&mut whole);
                let mut framed = two_hosts(transport);
                let conn_f = connect(&mut framed);
                let data = Bytes::from(vec![7u8; len]);
                // Two messages each, so queued state carries over equally.
                for now in [SimTime::ZERO, SimTime::from_nanos(500)] {
                    let w = whole
                        .send(now, conn_w, Dir::AtoB, Bytes::from(vec![7u8; header + len]))
                        .unwrap();
                    let f = framed
                        .send_framed(
                            now,
                            conn_f,
                            Dir::AtoB,
                            header as u64,
                            data.clone(),
                            SendCores::Both,
                        )
                        .unwrap();
                    assert_eq!(f.at, w.at, "{transport:?} header {header} len {len}");
                    let got = f.data.unwrap();
                    assert_eq!(got.as_ptr(), data.as_ptr());
                    assert_eq!(got.len(), len);
                }
                assert_eq!(framed.resource_stats(), whole.resource_stats());
            }
        }
    }

    /// A SEND a chain posts books no sender core, one a chain consumes no
    /// receiver core; each arrives earlier by exactly the CPU it skipped,
    /// and everything between the two pools is booked as ever.
    #[test]
    fn a_chained_send_skips_exactly_the_core_of_its_chained_end() {
        let dpu_and_server = || {
            let mut f = Fabric::new(
                Transport::Rdma,
                vec![
                    spec("dpu", CoreClass::DpuArm, 16, false),
                    spec("server", CoreClass::HostX86, 64, false),
                ],
                7,
            );
            let pd_a = f.rdma_mut(NodeId(0)).alloc_pd("client");
            let pd_b = f.rdma_mut(NodeId(1)).alloc_pd("server");
            let conn = f.connect(NodeId(0), NodeId(1), pd_a, pd_b).unwrap();
            (f, conn)
        };
        let desc = Bytes::from(vec![0u8; 128]);
        let send = |cores, dir| {
            let (mut f, conn) = dpu_and_server();
            let at = f
                .send_framed(SimTime::ZERO, conn, dir, 0, desc.clone(), cores)
                .unwrap()
                .at;
            let busy = |n: u32| {
                let node = f.node(NodeId(n));
                (node.tx_pool.busy_time(), node.rx_pool.busy_time())
            };
            (at, busy(0), busy(1))
        };
        let arm = |d| CoreClass::DpuArm.scale(d);
        let cost = TransportCost::rdma();
        // Out of the DPU: the chain posts, the server's core still reaps.
        let (by_core, dpu, server) = send(SendCores::Both, Dir::AtoB);
        let (by_nic, dpu_nic, server_nic) = send(SendCores::NicPosted, Dir::AtoB);
        assert_eq!(dpu.0, arm(cost.send_per_op));
        assert_eq!(dpu_nic, (SimDuration::ZERO, SimDuration::ZERO));
        assert_eq!(server_nic, server);
        assert_eq!(by_core - by_nic, arm(cost.send_per_op));
        // Into the DPU: the server's core posts, the chain consumes.
        let (by_core, dpu, server) = send(SendCores::Both, Dir::BtoA);
        let (by_chain, dpu_chain, server_chain) = send(SendCores::ChainConsumed, Dir::BtoA);
        assert!(dpu.1 >= arm(cost.recv_per_op));
        assert_eq!(dpu_chain, (SimDuration::ZERO, SimDuration::ZERO));
        assert_eq!(server_chain, server);
        assert_eq!(by_core - by_chain, dpu.1);
    }

    #[test]
    fn rdma_write_places_bytes_with_zero_target_cpu() {
        let (mut f, conn, rkey, addr) = rdma_pair();
        let before = f.node(NodeId(1)).rx_pool.jobs_served();
        let d = f
            .rdma_write(
                SimTime::ZERO,
                conn,
                Dir::AtoB,
                rkey,
                addr,
                Bytes::from_static(b"one-sided"),
            )
            .unwrap();
        assert!(d.at > SimTime::ZERO);
        // Target CPU untouched.
        assert_eq!(f.node(NodeId(1)).rx_pool.jobs_served(), before);
        // Bytes really landed.
        let back = f.rdma_mut(NodeId(1)).read_local(addr, 9).unwrap();
        assert_eq!(&back[..], b"one-sided");
    }

    #[test]
    fn rdma_read_fetches_remote_bytes() {
        let (mut f, conn, rkey, addr) = rdma_pair();
        f.rdma_mut(NodeId(1))
            .write_local(addr, b"server data")
            .unwrap();
        let d = f
            .rdma_read(SimTime::ZERO, conn, Dir::AtoB, rkey, addr, 11)
            .unwrap();
        assert_eq!(&d.data.unwrap()[..], b"server data");
    }

    #[test]
    fn one_sided_on_tcp_is_rejected() {
        let mut f = two_hosts(Transport::Tcp);
        let conn = f.connect(NodeId(0), NodeId(1), PdId(0), PdId(0)).unwrap();
        let err = f
            .rdma_write(SimTime::ZERO, conn, Dir::AtoB, RKey(1), 0, Bytes::new())
            .unwrap_err();
        assert_eq!(err, FabricError::NotRdma);
    }

    #[test]
    fn rdma_small_latency_beats_tcp() {
        let mut tcp = two_hosts(Transport::Tcp);
        let conn_t = tcp.connect(NodeId(0), NodeId(1), PdId(0), PdId(0)).unwrap();
        let d_tcp = tcp
            .send(
                SimTime::ZERO,
                conn_t,
                Dir::AtoB,
                Bytes::from(vec![0u8; 4096]),
            )
            .unwrap();
        let (mut rdma, conn_r, rkey, addr) = rdma_pair();
        let d_rdma = rdma
            .rdma_write(
                SimTime::ZERO,
                conn_r,
                Dir::AtoB,
                rkey,
                addr,
                Bytes::from(vec![0u8; 4096]),
            )
            .unwrap();
        assert!(
            d_rdma.at < d_tcp.at,
            "rdma {:?} !< tcp {:?}",
            d_rdma.at,
            d_tcp.at
        );
    }

    #[test]
    fn large_transfer_pipelines_near_wire_rate() {
        let (mut f, conn, rkey, addr) = rdma_pair();
        let mb = Bytes::from(vec![0u8; 1 << 20]);
        let d = f
            .rdma_write(SimTime::ZERO, conn, Dir::AtoB, rkey, addr, mb)
            .unwrap();
        let gib_s = (1u64 << 20) as f64 / d.at.as_secs_f64() / (1u64 << 30) as f64;
        // Payload rate for one 1 MiB write should approach the ~11.3 GiB/s
        // RDMA payload ceiling of the 100G port (pipelined segments), and
        // certainly beat half of it (no store-and-forward doubling).
        assert!(gib_s > 7.0, "single-transfer rate {gib_s} GiB/s");
    }

    #[test]
    fn concurrent_flows_share_the_port_fairly() {
        let (mut f, conn, rkey, addr) = rdma_pair();
        // Two flows of 32 x 128 KiB each, interleaved at t=0.
        let mut finishes = Vec::new();
        for i in 0..64u64 {
            let off = (i % 2) * (1 << 19);
            let d = f
                .rdma_write(
                    SimTime::ZERO,
                    conn,
                    Dir::AtoB,
                    rkey,
                    addr + off,
                    Bytes::from(vec![1u8; 128 << 10]),
                )
                .unwrap();
            finishes.push(d.at);
        }
        let total_bytes = 64u64 * (128 << 10);
        let last = finishes.iter().max().unwrap();
        let rate = total_bytes as f64 / last.as_secs_f64();
        let ceiling = f.wire().effective_bw(gbps(100)) as f64;
        assert!(
            rate <= ceiling * 1.02,
            "rate {rate} exceeds ceiling {ceiling}"
        );
        assert!(
            rate >= ceiling * 0.80,
            "rate {rate} far below ceiling {ceiling}"
        );
    }

    #[test]
    fn dpu_tcp_receive_path_is_slower_than_host() {
        // host -> dpu (TCP) vs host -> host (TCP), 1 MiB payload.
        let mut f = Fabric::new(
            Transport::Tcp,
            vec![
                spec("host", CoreClass::HostX86, 48, false),
                spec("dpu", CoreClass::DpuArm, 16, true),
                spec("host2", CoreClass::HostX86, 48, false),
            ],
            9,
        );
        let c_dpu = f.connect(NodeId(0), NodeId(1), PdId(0), PdId(0)).unwrap();
        let c_host = f.connect(NodeId(0), NodeId(2), PdId(0), PdId(0)).unwrap();
        let to_dpu = f
            .send(
                SimTime::ZERO,
                c_dpu,
                Dir::AtoB,
                Bytes::from(vec![0u8; 1 << 20]),
            )
            .unwrap();
        let to_host = f
            .send(
                SimTime::ZERO,
                c_host,
                Dir::AtoB,
                Bytes::from(vec![0u8; 1 << 20]),
            )
            .unwrap();
        assert!(
            to_dpu.at > to_host.at,
            "DPU RX {:?} must lag host RX {:?}",
            to_dpu.at,
            to_host.at
        );
    }

    #[test]
    fn flow_hint_raises_dpu_rx_cost() {
        let mk = |flows: usize| {
            let mut f = Fabric::new(
                Transport::Tcp,
                vec![
                    spec("host", CoreClass::HostX86, 48, false),
                    spec("dpu", CoreClass::DpuArm, 16, true),
                ],
                9,
            );
            f.set_flow_hint(NodeId(1), flows);
            let c = f.connect(NodeId(0), NodeId(1), PdId(0), PdId(0)).unwrap();
            f.send(SimTime::ZERO, c, Dir::AtoB, Bytes::from(vec![0u8; 1 << 20]))
                .unwrap()
                .at
        };
        assert!(mk(32) > mk(2), "contention must slow DPU RX");
    }

    #[test]
    fn subchannels_share_qps_but_count_ops_separately() {
        let (mut f, conn, rkey, addr) = rdma_pair();
        let qp_before = f.node(NodeId(0)).rdma.qp_count();
        let sub = f.open_subchannel(conn).unwrap();
        // No new QP state was created on either side.
        assert_eq!(f.node(NodeId(0)).rdma.qp_count(), qp_before);
        assert_eq!(
            f.qps(sub, Dir::AtoB).unwrap(),
            f.qps(conn, Dir::AtoB).unwrap()
        );
        assert_eq!(
            f.endpoints(sub, Dir::BtoA).unwrap(),
            f.endpoints(conn, Dir::BtoA).unwrap()
        );
        // One-sided ops work through the sub-channel via the root's QPs.
        let d = f
            .rdma_write(
                SimTime::ZERO,
                sub,
                Dir::AtoB,
                rkey,
                addr,
                Bytes::from_static(b"sub"),
            )
            .unwrap();
        assert!(d.at > SimTime::ZERO);
        assert_eq!(f.conn_ops(sub), 1);
        assert_eq!(f.conn_ops(conn), 0);
        // A sub-channel of a sub-channel collapses to the same root.
        let sub2 = f.open_subchannel(sub).unwrap();
        assert_eq!(
            f.qps(sub2, Dir::AtoB).unwrap(),
            f.qps(conn, Dir::AtoB).unwrap()
        );
    }

    #[test]
    fn cross_tenant_one_sided_fails_through_fabric() {
        let mut f = two_hosts(Transport::Rdma);
        let pd_a = f.rdma_mut(NodeId(0)).alloc_pd("tenant-a");
        let pd_victim = f.rdma_mut(NodeId(1)).alloc_pd("victim");
        let pd_attacker = f.rdma_mut(NodeId(1)).alloc_pd("attacker-side");
        // Victim registers memory under pd_victim; the connection's server
        // QP belongs to pd_attacker, so the stolen rkey must not work.
        let buf = f
            .rdma_mut(NodeId(1))
            .alloc_buffer(4096, MemoryDomain::HostDram)
            .unwrap();
        let (_, rkey, _) = f
            .rdma_mut(NodeId(1))
            .reg_mr(
                pd_victim,
                buf,
                4096,
                AccessFlags::remote_rw(),
                Expiry::Never,
            )
            .unwrap();
        let conn = f.connect(NodeId(0), NodeId(1), pd_a, pd_attacker).unwrap();
        let err = f
            .rdma_read(SimTime::ZERO, conn, Dir::AtoB, rkey, buf, 64)
            .unwrap_err();
        assert_eq!(err, FabricError::Verbs(VerbsError::PdMismatch));
        assert_eq!(f.node(NodeId(1)).rdma.violations().pd_mismatch, 1);
    }
}
