//! The client op pipeline: an explicit submission/completion ring.
//!
//! The serial call ([`ObjectClient::update`](crate::ObjectClient::update) /
//! [`ObjectClient::fetch`](crate::ObjectClient::fetch)) runs
//! each op's phases synchronously, so a job core is occupied for the whole
//! `client_per_op` cost per op and nothing overlaps the completion path.
//! The [`OpRing`] splits every op into the two halves real RDMA clients
//! have:
//!
//! * **submission** — epoch allocation, route resolution, whoever posts
//!   the descriptor, payload staging and the descriptor exchange, one *leg*
//!   per replica. All of this happens at [`OpRing::submit`] time, so up to
//!   `depth` ops can be in flight before any completion is reaped.
//! * **completion** — engine execution of each staged leg, the response
//!   push/SEND, and then whoever forwards the completion, charged as retire
//!   latency. Completions are reaped out of order and retire in completion
//!   order; results are still reported in submission order so strided
//!   callers can stitch.
//!
//! **Who runs the clean path.** Client cores, by default: the submission
//! fraction of `client_per_op` is booked on a core before each leg's
//! descriptor goes out, the completion fraction (EQ poll / CQ reap) is
//! charged when the op retires. On a client whose NIC runs the ring
//! ([`DaosClient::chain_ring`]) both halves of a *clean* op belong to one
//! work-request chain instead and no core is booked for either: the
//! doorbell fires the descriptor SEND one chain hop after the op starts —
//! route and map stamp read out of the object's descriptor template
//! ([`crate::descriptor`]), not resolved again — and the engine's
//! completion SEND fires the forwarding, one more hop. Clean means, at
//! submission, that the chains' owner rang the op's doorbell and it fired
//! a template stamped with the client's cached map revision
//! ([`DaosClient::fired_template`] decides, [`OpRing::submit_fired`] takes
//! what fired); and, at completion, that every leg went right first time.
//! An op that is not clean at submission goes in through
//! [`OpRing::submit`] like any other client's and is a core's as a whole,
//! and that core leaves the template behind for the next one; an op with
//! any leg that was fenced, timed out, re-staged, dropped or failed is an
//! exception and completes on a core. What the forwarder then does with
//! the payload (verify it, at whatever rate its hardware does) is its
//! owner's to price, not the ring's: [`SlotTrail`] says who did what for
//! each slot.
//!
//! **Resource gating.** The ring never holds more than `depth` ops: a
//! submit into a full ring first retires the earliest-completing in-flight
//! op (its staging slot frees at retire). Within those bounds, contention
//! is entirely emergent from the virtual-time bookings the legs make — the
//! job core serializes submission fractions, each channel's serialized
//! stage orders descriptors, and engine xstreams queue leg execution.
//!
//! **Determinism.** Epochs are allocated at *submission*, in submission
//! order, from the cluster-wide counter — never at leg execution — so the
//! version an update commits at is independent of how deep the ring runs
//! or in which order completions are reaped. That is the invariant that
//! lets `tests/pipeline_equivalence.rs` hold QD-N runs to the same tape
//! issued one op at a time through the serial call.
//!
//! **One address per op.** A staged op keeps the [`RecordKey`] its
//! [`ClientOp`] carried, moved in at submission, never cloned: each update
//! leg and each fetch attempt reads the engine's address from it.
//!
//! **Who picks the ring.** `Dfs` does, in one place: single-chunk data ops
//! take the serial call unless the world is pipelined
//! (`Dfs::data_pipeline`); multi-chunk I/O always submits its stripe set
//! here.
//!
//! **Failover: the recovery ladder.** Routing asks the *client's cached*
//! copy of the pool map ([`crate::PoolMap::route`]), not the live map, and
//! every staged leg carries the [`crate::Routing`] stamp it answered with —
//! so a membership change genuinely races in-flight ops. Submission and
//! every re-staging rung ask the same way and count a degraded fetch route
//! the same way. A leg that goes wrong at execution climbs a bounded
//! ladder:
//!
//! 1. **detect** — a dead or black-holed connection is only discovered by
//!    per-leg deadline expiry ([`RetryPolicy::leg_deadline`], counted in
//!    [`RetryStats::timeouts`]); a stale-stamped leg that reaches a live
//!    engine is rejected immediately with [`DaosError::StaleMap`]
//!    (counted in [`RetryStats::fenced`]); a slow engine
//!    (`EngineCluster::set_stall`) completes late — past the deadline it
//!    is *counted* as a timeout but the reply is still accepted.
//! 2. **refresh** — the client pulls the authoritative map (`MapQuery`,
//!    [`RetryPolicy::refresh_rtt`]) and re-resolves the route from the
//!    fresh copy.
//! 3. **re-stage** — the leg re-stages with exponential backoff
//!    ([`RetryPolicy::backoff`]) under a bounded budget
//!    ([`RetryPolicy::budget`]); fetches prefer a different surviving
//!    replica (a degraded read), update legs whose engine left the
//!    refreshed placement are dropped (the survivors carry the commit —
//!    exactly what the post-kill route would have produced).
//! 4. **exhaust** — a leg that burns its whole budget fails cleanly with
//!    a typed error ([`RetryStats::exhausted`]); nothing ever hangs.

use bytes::Bytes;
use ros2_buf::bytes_crc32c;
use ros2_fabric::{Fabric, SendCores};
use ros2_sim::{SimDuration, SimTime};

use crate::client::{ClientOp, ClientOpResult, DaosClient, FetchOp, FiredTemplate, UpdateOp};
use crate::cluster::{EngineCluster, Routing};
use crate::engine::{Arrival, ValueKind};
use crate::types::{DaosError, Epoch, RecordKey};

/// Deadlines, backoff bounds and the retry budget for the ring's
/// recovery ladder. Every parameter is virtual-time, so a chaos schedule
/// replays bit-identically.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long a leg waits for any reply before its connection is
    /// declared dead (the timeout rung of the ladder).
    pub leg_deadline: SimDuration,
    /// First-retry backoff; attempt `n` waits `base << (n-1)`, capped.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff wait.
    pub backoff_cap: SimDuration,
    /// Maximum re-stages per leg before the op fails cleanly.
    pub budget: u32,
    /// Cost of the reactive `MapQuery` refresh round-trip, charged on the
    /// failure path only (healthy ops never pay it).
    pub refresh_rtt: SimDuration,
}

impl Default for RetryPolicy {
    /// 1 ms leg deadline (≫ any healthy op latency in the calibrated
    /// models), 20 µs base backoff doubling to a 1 ms cap, 3 retries,
    /// and the gRPC-class 150 µs control RTT for the map refresh.
    fn default() -> Self {
        RetryPolicy {
            leg_deadline: SimDuration::from_millis(1),
            backoff_base: SimDuration::from_micros(20),
            backoff_cap: SimDuration::from_millis(1),
            budget: 3,
            refresh_rtt: SimDuration::from_micros(150),
        }
    }
}

impl RetryPolicy {
    /// The exponential backoff before retry `attempt` (1-based):
    /// `base * 2^(attempt-1)`, saturating, capped at `backoff_cap`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(63);
        let ns = self
            .backoff_base
            .as_nanos()
            .checked_shl(shift)
            .unwrap_or(u64::MAX);
        SimDuration::from_nanos(ns).min(self.backoff_cap)
    }
}

/// Recovery-ladder counters, reported alongside `ResourceStats` wherever
/// clients report (host stacks, DPU lanes, fio worlds) so host-vs-DPU
/// retry behavior is A/B-comparable.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Leg deadlines that expired (dead/black-holed conns, plus slow
    /// engines whose reply landed past the deadline).
    pub timeouts: u64,
    /// `ErrStaleMap` fence replies observed.
    pub fenced: u64,
    /// Legs re-staged by the ladder.
    pub retries: u64,
    /// Exponential-backoff waits taken before re-staging.
    pub backoff_waits: u64,
    /// Reactive `MapQuery` refreshes issued by the ladder.
    pub map_refreshes: u64,
    /// Ops that burned their whole retry budget and failed cleanly.
    pub exhausted: u64,
}

impl RetryStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: RetryStats) {
        self.timeouts += other.timeouts;
        self.fenced += other.fenced;
        self.retries += other.retries;
        self.backoff_waits += other.backoff_waits;
        self.map_refreshes += other.map_refreshes;
        self.exhausted += other.exhausted;
    }
}

/// One staged replica leg of an in-flight update.
struct UpdateLeg {
    /// Engine slot the leg was staged to.
    eng: usize,
    /// Instant the payload is resident server-side.
    staged: SimTime,
    /// The server-side payload handle the leg's pull produced.
    payload: Bytes,
}

/// An update in flight: what each of its staged legs writes.
struct StagedUpdate {
    key: RecordKey,
    kind: ValueKind,
    epoch: Epoch,
    /// The cached `map_version` stamped into every leg's descriptor.
    stamp: u64,
    /// Whether the submission-time route was non-degraded.
    clean: bool,
    /// One per replica; emptied while the legs execute.
    legs: Vec<UpdateLeg>,
}

/// The phase-specific body of an in-flight op.
enum Body {
    /// An update with its per-replica staged legs.
    Update(StagedUpdate),
    /// A fetch staged to its leader engine.
    Fetch {
        read: FetchOp,
        /// Leader the descriptor went to.
        eng: usize,
        /// Instant the request reached the server.
        req_at: SimTime,
        /// The cached `map_version` stamped into the descriptor.
        stamp: u64,
        /// Whether the submission-time route was non-degraded (leader
        /// path) — a retry or failover clears the fill eligibility.
        clean: bool,
    },
}

/// An op that has been submitted (staged) but not yet executed.
struct Inflight {
    /// Submission-order slot in the results vector.
    slot: usize,
    /// Instant the op was submitted (orders error retires).
    submitted: SimTime,
    /// Client-CPU completion fraction charged as latency at retire when a
    /// core forwards the completion.
    completion: SimDuration,
    /// The hop charged instead when a NIC chain forwards it; `None` unless
    /// the same chain submitted the op.
    chain_hop: Option<SimDuration>,
    body: Body,
}

impl Inflight {
    /// Who takes the completion SEND of a leg that went right first time:
    /// the chain parked on it, if the NIC submitted the op; a core
    /// otherwise — as for every leg the ladder re-staged.
    fn first_ack(&self) -> SendCores {
        match self.chain_hop {
            Some(_) => SendCores::ChainConsumed,
            None => SendCores::Both,
        }
    }
}

/// An executed op waiting to retire in completion order.
struct Executed {
    /// Client-visible completion instant (sort key; ties break on slot).
    done: SimTime,
    slot: usize,
    result: ClientOpResult,
}

/// How one slot of a drained ring completed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotTrail {
    /// Leader-path provenance: `true` iff the slot completed successfully
    /// on its **first** attempt over a **non-degraded** route — for an
    /// update, every replica leg acked first time and none was dropped.
    /// Anything touched by the retry ladder, a failover replica, or a
    /// degraded route is correct but is not something a read cache may
    /// fill or write-update from (the leader may have moved).
    pub fill_ok: bool,
    /// What the ring charged between the op's start and its last leg's
    /// descriptor being ready to post: one chain hop if the NIC submitted
    /// it, the wait for a core plus the core's submission work otherwise.
    /// Zero for a slot that failed before it was staged.
    pub submission: SimDuration,
    /// What the ring charged between the engine's last completion SEND
    /// landing and the result instant, for forwarding the completion: the
    /// chain's hop, or the core's completion work. Zero for a failed slot.
    pub completion: SimDuration,
    /// Set iff the NIC chain forwarded this completion rather than a core.
    pub forwarded: Option<Forwarded>,
}

/// What fired a forwarding chain.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Forwarded {
    /// Engine slot whose completion SEND arrived last.
    pub eng: usize,
    /// CRC32C of the fetched payload as the engine sent it — what its
    /// completion carries for the receiver to check against (zero for an
    /// update, which lands nothing).
    pub wire_crc: u32,
}

/// A ring's scaffolding. A client keeps one per job and clears it between
/// queues instead of rebuilding it ([`OpRing::reuse`]).
#[derive(Default)]
pub(crate) struct RingStore {
    /// Staged, not yet executed, in submission order.
    inflight: Vec<Inflight>,
    /// Executed, not yet retired.
    executed: Vec<Executed>,
    /// Final results, indexed by submission slot.
    results: Vec<Option<ClientOpResult>>,
    /// Slots in the order they retired (the completion-order contract).
    retire_log: Vec<usize>,
    /// Per-slot completion provenance.
    trail: Vec<SlotTrail>,
    /// Emptied update-leg vectors, handed to the next updates staged.
    spare_legs: Vec<Vec<UpdateLeg>>,
}

/// A submission/completion ring over one client job. See the module docs
/// for the phase/state model; drive it with [`OpRing::submit`] +
/// [`OpRing::drain_into`], or through the one-call wrapper
/// [`ObjectClient::execute_into`](crate::ObjectClient::execute_into).
pub struct OpRing {
    job: usize,
    depth: usize,
    store: RingStore,
    /// Fetch legs re-armed onto a surviving replica after a kill.
    leg_rearms: u64,
}

impl OpRing {
    /// An empty ring for `job` admitting up to `depth` in-flight ops.
    pub fn new(job: usize, depth: usize) -> Self {
        OpRing {
            job,
            depth: depth.max(1),
            store: RingStore::default(),
            leg_rearms: 0,
        }
    }

    /// [`Self::new`] on the scaffolding `client` keeps for `job`, emptied —
    /// its vectors and the update legs' keep their capacity, so a queue no
    /// deeper than an earlier one allocates nothing in the ring. Hand it
    /// back with [`Self::recycle`] once the trail has been read.
    pub fn reuse(client: &mut DaosClient, job: usize, depth: usize) -> Self {
        let mut store = client.take_ring_store(job);
        store.inflight.clear();
        store.executed.clear();
        store.results.clear();
        store.retire_log.clear();
        store.trail.clear();
        OpRing {
            store,
            ..OpRing::new(job, depth)
        }
    }

    /// Returns the scaffolding to `client` for its job's next queue.
    pub fn recycle(self, client: &mut DaosClient) {
        client.put_ring_store(self.job, self.store);
    }

    /// Configured queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Ops submitted but not yet retired (staged or awaiting retire).
    pub fn in_flight(&self) -> usize {
        self.store.inflight.len() + self.store.executed.len()
    }

    /// Slots in retire order — completion-ordered, ties in submission
    /// order. Complete only after [`Self::drain_into`].
    pub fn retire_log(&self) -> &[usize] {
        &self.store.retire_log
    }

    /// Fetch legs that re-armed onto a survivor after an engine kill.
    pub fn leg_rearms(&self) -> u64 {
        self.leg_rearms
    }

    /// Per-slot completion provenance, aligned with the drained results.
    /// Complete only after [`Self::drain_into`].
    pub fn trail(&self) -> &[SlotTrail] {
        &self.store.trail
    }

    /// Submits one op from a client core: allocates its epoch, resolves its
    /// route from the cached map and books its staging legs, each behind the
    /// submission fraction of the client's per-op CPU. If the ring is full,
    /// the earliest-completing in-flight op retires first to free a slot.
    /// Submission-time failures (oversized I/O, no healthy replica) occupy
    /// their slot as immediate error retires. Cores forward the op's
    /// completion however it goes. On a client whose NIC runs the ring this
    /// is the way in for everything the NIC may not run, and the core
    /// leaves the object's descriptor template behind.
    pub fn submit(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        op: ClientOp,
    ) {
        self.submit_as(client, fabric, cluster, now, op, None);
    }

    /// [`Self::submit`] for an op whose doorbell fired `fired` at `now`: the
    /// NIC posts the descriptor one chain hop later on every leg, route and
    /// stamp as the template spells them, with no core booked and nothing
    /// resolved again; and forwards the completion too if every leg goes
    /// right first time.
    pub fn submit_fired(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        op: ClientOp,
        fired: FiredTemplate,
    ) {
        self.submit_as(client, fabric, cluster, now, op, Some(fired));
    }

    fn submit_as(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        op: ClientOp,
        fired: Option<FiredTemplate>,
    ) {
        let slot = self.store.results.len();
        self.store.results.push(None);
        self.store.trail.push(SlotTrail::default());

        while self.in_flight() >= self.depth {
            self.complete_one(client, fabric, cluster);
        }

        client.bump_ops(1);
        let is_update = matches!(op, ClientOp::Update(_));
        match self.stage(client, fabric, cluster, now, op, fired.as_ref()) {
            Ok((posted, completion, body)) => {
                self.store.trail[slot].submission = posted.saturating_since(now);
                self.store.inflight.push(Inflight {
                    slot,
                    submitted: now,
                    completion,
                    chain_hop: fired.and(client.chain_hop()),
                    body,
                });
            }
            Err(e) => self.retire_failed(slot, is_update, e),
        }
    }

    /// Takes a slot for an op whose descriptor never left the client — the
    /// owner of its chains rang the slot's doorbell and the NIC refused to
    /// send — and retires it at once with `e`, like any other
    /// submission-time failure.
    pub fn refuse(&mut self, client: &mut DaosClient, op: &ClientOp, e: DaosError) {
        let slot = self.store.results.len();
        self.store.results.push(None);
        self.store.trail.push(SlotTrail::default());
        client.bump_ops(1);
        self.retire_failed(slot, matches!(op, ClientOp::Update(_)), e);
    }

    fn retire_failed(&mut self, slot: usize, is_update: bool, e: DaosError) {
        self.store.results[slot] = Some(match is_update {
            true => ClientOpResult::Update(Err(e)),
            false => ClientOpResult::Fetch(Err(e)),
        });
        self.store.retire_log.push(slot);
    }

    /// The fallible half of a submission: everything between taking a slot
    /// and the op being in flight. Returns the instant its last leg's
    /// descriptor was ready to post, the completion work a core would owe
    /// for it, and the staged body.
    fn stage(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        op: ClientOp,
        fired: Option<&FiredTemplate>,
    ) -> Result<(SimTime, SimDuration, Body), DaosError> {
        client.check_cluster(cluster)?;
        let (routing, template) = match fired {
            // What fired is the route: the NIC sends it as it stands.
            Some(fired) => (fired.routing, Some(&fired.bytes)),
            None => {
                // Apply any due delayed RAS delivery, then route from the
                // cached map — the live map is never consulted here, so a
                // membership change after this instant genuinely races the
                // op.
                client.poll_map(now, cluster);
                (client.cached_map().route(&op.key().oid), None)
            }
        };
        let chain_hop = template.and(client.chain_hop());
        // The instant one leg's descriptor is ready to post, and the
        // completion work a core would owe for it.
        let post = |client: &mut DaosClient| match chain_hop {
            Some(hop) => (now + hop, client.ring_cpu_costs().1),
            None => client.client_cpu_split(now, self.job),
        };
        let Routing {
            set,
            degraded,
            stamp,
        } = routing;
        Ok(match op {
            ClientOp::Update(UpdateOp { key, kind, data }) => {
                client.check_staging(self.job, data.len() as u64)?;
                if set.is_empty() {
                    return Err(DaosError::NoReplica);
                }
                let epoch = cluster.next_epoch(client.container())?;
                let mut legs = self.store.spare_legs.pop().unwrap_or_default();
                let (mut posted, mut completion) = (now, SimDuration::ZERO);
                for eng in set.iter() {
                    let (t_post, comp) = post(client);
                    (posted, completion) = (posted.max(t_post), comp);
                    let (staged, payload) = client.stage_update_from(
                        fabric,
                        t_post,
                        self.job,
                        eng,
                        data.clone(),
                        template,
                    )?;
                    legs.push(UpdateLeg {
                        eng,
                        staged,
                        payload,
                    });
                }
                if template.is_none() {
                    client.write_template(fabric, &key.oid, &key.akey, routing, posted);
                }
                let body = Body::Update(StagedUpdate {
                    key,
                    kind,
                    epoch,
                    stamp,
                    clean: !degraded,
                    legs,
                });
                (posted, completion, body)
            }
            ClientOp::Fetch(read) => {
                client.check_staging(self.job, read.len)?;
                // The cluster still observes a degraded read, whichever
                // view of the map the route came from.
                if degraded {
                    cluster.note_degraded_fetch();
                }
                let eng = set.leader().ok_or(DaosError::NoReplica)?;
                let (posted, completion) = post(client);
                let req_at = client.stage_fetch_from(fabric, posted, self.job, eng, template)?;
                if template.is_none() {
                    client.write_template(fabric, &read.key.oid, &read.key.akey, routing, posted);
                }
                let body = Body::Fetch {
                    read,
                    eng,
                    req_at,
                    stamp,
                    clean: !degraded,
                };
                (posted, completion, body)
            }
        })
    }

    /// Executes every staged op's engine/finish legs (in submission order,
    /// which is what keeps the drain deterministic) and queues them for
    /// completion-order retirement.
    fn poll(&mut self, client: &mut DaosClient, fabric: &mut Fabric, cluster: &mut EngineCluster) {
        // Taken out for the walk (`execute_op` needs `self`), then put back
        // empty so its buffer serves the next submissions.
        let mut staged = std::mem::take(&mut self.store.inflight);
        for op in staged.drain(..) {
            let executed = self.execute_op(client, fabric, cluster, op);
            self.store.executed.push(executed);
        }
        self.store.inflight = staged;
    }

    /// Retires exactly one op — the earliest-completing one — executing
    /// staged legs first if nothing is awaiting retirement.
    fn complete_one(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
    ) {
        if self.store.executed.is_empty() {
            self.poll(client, fabric, cluster);
        }
        let store = &mut self.store;
        if let Some(best) = store
            .executed
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.done, e.slot))
            .map(|(i, _)| i)
        {
            let e = store.executed.remove(best);
            store.results[e.slot] = Some(e.result);
            store.retire_log.push(e.slot);
        }
    }

    /// Charges `slot`'s completion and records who forwarded it: the chain
    /// fired by `chain.0`, one hop of `chain.1` — offered only for an op
    /// the same chain submitted and whose every leg went right first time —
    /// or else a core, at `core`, the completion fraction of the op's
    /// client CPU.
    fn charge_completion(
        &mut self,
        slot: usize,
        core: SimDuration,
        chain: Option<(Forwarded, SimDuration)>,
    ) -> SimDuration {
        let trail = &mut self.store.trail[slot];
        (trail.forwarded, trail.completion) = match chain {
            Some((by, hop)) => (Some(by), hop),
            None => (None, core),
        };
        trail.completion
    }

    /// Executes one op's engine and finish legs, climbing the recovery
    /// ladder (timeout / fence → refresh → re-stage with backoff) for any
    /// leg that goes wrong.
    fn execute_op(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        mut op: Inflight,
    ) -> Executed {
        let job = self.job;
        let first_ack = op.first_ack();
        match &mut op.body {
            Body::Update(update) => {
                let mut legs = std::mem::take(&mut update.legs);
                // The last ack and the engine it came from.
                let mut done: Option<(SimTime, usize)> = None;
                let mut err: Option<DaosError> = None;
                // A leg that drops or climbs the ladder clears this.
                self.store.trail[op.slot].fill_ok = update.clean;
                // Every leg acked first time and inside its deadline.
                let mut on_time = true;
                for leg in legs.drain(..) {
                    let eng = leg.eng;
                    match self.run_update_leg(client, fabric, cluster, &op, leg) {
                        Ok(Some((acked, first_try))) => {
                            on_time &= first_try;
                            if done.is_none_or(|(d, _)| acked > d) {
                                done = Some((acked, eng));
                            }
                        }
                        // The replica left the placement (kill or fence):
                        // its leg drops and the survivors carry the commit.
                        Ok(None) => on_time = false,
                        Err(e) => err = err.or(Some(e)),
                    }
                }
                self.store.spare_legs.push(legs);
                let result = ClientOpResult::Update(match (err, done) {
                    (Some(e), _) => Err(e),
                    (None, Some((d, eng))) => {
                        // An ack lands nothing: no bytes, no checksum.
                        let by = Forwarded { eng, wire_crc: 0 };
                        let chain = op.chain_hop.filter(|_| on_time).map(|hop| (by, hop));
                        Ok(d + self.charge_completion(op.slot, op.completion, chain))
                    }
                    (None, None) => Err(DaosError::NoReplica),
                });
                self.store.trail[op.slot].fill_ok &=
                    matches!(result, ClientOpResult::Update(Ok(_)));
                Executed {
                    done: result_instant(&result, op.submitted),
                    slot: op.slot,
                    result,
                }
            }
            Body::Fetch {
                read,
                eng,
                req_at,
                stamp,
                clean,
            } => {
                let (mut eng, mut req_at, mut stamp, clean) = (*eng, *req_at, *stamp, *clean);
                let mut attempt: u32 = 0;
                let result = loop {
                    let policy = client.retry_policy();
                    // Classify the leg's fate at this engine.
                    let detect = if !cluster.is_reachable(eng) {
                        // Dead engine or black-holed conn: no reply ever
                        // comes; the client learns by deadline expiry.
                        client.retry.timeouts += 1;
                        req_at + policy.leg_deadline
                    } else {
                        match cluster.engine_mut(eng).fetch(
                            Arrival { stamp, at: req_at },
                            client.container(),
                            read.key.oid,
                            &read.key.dkey,
                            &read.key.akey,
                            read.kind,
                            read.epoch,
                            read.len,
                        ) {
                            Ok((data, ready)) => {
                                // A slow engine completes late; past the
                                // deadline that *counts* as a timeout but
                                // the reply still lands (no re-execution).
                                let stall = cluster.stall(eng);
                                if stall >= policy.leg_deadline {
                                    client.retry.timeouts += 1;
                                }
                                let on_time = attempt == 0 && stall < policy.leg_deadline;
                                // The engine's completion carries its
                                // payload's checksum for a chain to check
                                // (taken here, the one place that still
                                // holds the payload as the engine sent it,
                                // and only when a chain will check it).
                                let chain = op.chain_hop.filter(|_| on_time).map(|hop| {
                                    let wire_crc = bytes_crc32c(&data);
                                    (Forwarded { eng, wire_crc }, hop)
                                });
                                let cores = match on_time {
                                    true => first_ack,
                                    false => SendCores::Both,
                                };
                                let r = client
                                    .finish_fetch(fabric, job, eng, data, ready + stall, cores)
                                    .map(|(bytes, at)| {
                                        let tail =
                                            self.charge_completion(op.slot, op.completion, chain);
                                        (bytes, at + tail)
                                    });
                                if attempt > 0 {
                                    if let Ok((_, at)) = &r {
                                        client.note_retry_success(*at);
                                    }
                                }
                                self.store.trail[op.slot].fill_ok =
                                    clean && attempt == 0 && r.is_ok();
                                break ClientOpResult::Fetch(r);
                            }
                            Err(DaosError::StaleMap { .. }) => {
                                // The fence reply is immediate — the
                                // engine rejected before doing any work.
                                client.retry.fenced += 1;
                                req_at
                            }
                            Err(e) => break ClientOpResult::Fetch(Err(e)),
                        }
                    };
                    // The retry rungs: budget, refresh, backoff, re-stage.
                    attempt += 1;
                    if attempt > policy.budget {
                        client.retry.exhausted += 1;
                        let exhausted = DaosError::RetryExhausted { attempts: attempt };
                        break ClientOpResult::Fetch(Err(exhausted));
                    }
                    client.refresh_map(cluster);
                    client.retry.backoff_waits += 1;
                    let t_retry = detect + policy.refresh_rtt + policy.backoff(attempt);
                    let routing = client.cached_map().route(&read.key.oid);
                    if routing.degraded {
                        cluster.note_degraded_fetch();
                    }
                    // Prefer a *different* replica than the one that just
                    // failed (a degraded read when the route is short).
                    let set = routing.set;
                    let Some(next) = set.iter().find(|&s| s != eng).or_else(|| set.leader()) else {
                        break ClientOpResult::Fetch(Err(DaosError::NoReplica));
                    };
                    stamp = routing.stamp;
                    let (t_cpu, _) = client.client_cpu_split(t_retry, job);
                    match client.stage_fetch_from(fabric, t_cpu, job, next, None) {
                        Ok(at) => {
                            client.retry.retries += 1;
                            self.leg_rearms += 1;
                            eng = next;
                            req_at = at;
                        }
                        Err(e) => break ClientOpResult::Fetch(Err(e)),
                    }
                };
                Executed {
                    done: result_instant(&result, op.submitted),
                    slot: op.slot,
                    result,
                }
            }
        }
    }

    /// Runs one update leg up the recovery ladder. `Ok(Some((acked,
    /// first_try)))` is a replica ack, `first_try` iff it came on the first
    /// attempt and inside the leg deadline; `Ok(None)` means the leg
    /// dropped because its engine left the placement (killed, or fenced off
    /// by a newer map) and the surviving legs carry the commit; `Err` is a
    /// real failure. Anything but a first-attempt ack clears the slot's
    /// [`SlotTrail::fill_ok`]. A first-attempt ack is taken by
    /// [`Inflight::first_ack`] (the op's parked chain, if it has one); a
    /// later one by a core. `op` is the update the leg belongs to.
    fn run_update_leg(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        op: &Inflight,
        leg: UpdateLeg,
    ) -> Result<Option<(SimTime, bool)>, DaosError> {
        let Body::Update(update) = &op.body else {
            unreachable!("an update leg belongs to an update");
        };
        let StagedUpdate {
            ref key,
            kind,
            epoch,
            mut stamp,
            ..
        } = *update;
        let (job, slot, first_ack) = (self.job, op.slot, op.first_ack());
        let UpdateLeg {
            eng,
            mut staged,
            mut payload,
        } = leg;
        let mut attempt: u32 = 0;
        loop {
            let policy = client.retry_policy();
            let detect = if !cluster.is_up(eng) {
                // The replica died after staging: its staged bytes died
                // with it; the survivors carry the commit. (The post-kill
                // map never places the object here, so no retry.)
                self.store.trail[slot].fill_ok = false;
                return Ok(None);
            } else if cluster.blackholed(eng) {
                // Alive in the map but the conn eats traffic: deadline.
                client.retry.timeouts += 1;
                staged + policy.leg_deadline
            } else {
                match cluster.engine_mut(eng).update(
                    Arrival { stamp, at: staged },
                    client.container(),
                    key.oid,
                    key.dkey.clone(),
                    key.akey.clone(),
                    kind,
                    epoch,
                    payload.clone(),
                ) {
                    Ok(persisted) => {
                        let stall = cluster.stall(eng);
                        if stall >= policy.leg_deadline {
                            client.retry.timeouts += 1;
                        }
                        let first_try = attempt == 0 && stall < policy.leg_deadline;
                        let cores = match first_try {
                            true => first_ack,
                            false => SendCores::Both,
                        };
                        let acked =
                            client.finish_update(fabric, job, eng, persisted + stall, cores)?;
                        if attempt > 0 {
                            client.note_retry_success(acked);
                        }
                        return Ok(Some((acked, first_try)));
                    }
                    Err(DaosError::StaleMap { .. }) => {
                        client.retry.fenced += 1;
                        staged
                    }
                    Err(e) => return Err(e),
                }
            };
            self.store.trail[slot].fill_ok = false;
            attempt += 1;
            if attempt > policy.budget {
                client.retry.exhausted += 1;
                return Err(DaosError::RetryExhausted { attempts: attempt });
            }
            client.refresh_map(cluster);
            // If the refreshed map no longer places the object on this
            // replica, the write must NOT land here — drop the leg and
            // let the survivors carry the commit.
            let routing = client.cached_map().route(&key.oid);
            if !routing.set.contains(eng) {
                return Ok(None);
            }
            client.retry.backoff_waits += 1;
            let t_retry = detect + policy.refresh_rtt + policy.backoff(attempt);
            stamp = routing.stamp;
            let (t_cpu, _) = client.client_cpu_split(t_retry, job);
            let data = std::mem::take(&mut payload);
            let (new_staged, new_payload) =
                client.stage_update_from(fabric, t_cpu, job, eng, data, None)?;
            client.retry.retries += 1;
            self.leg_rearms += 1;
            staged = new_staged;
            payload = new_payload;
        }
    }

    /// Executes everything still staged, retires everything in completion
    /// order, and appends the results to `out` in submission order.
    pub fn drain_into(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        out: &mut Vec<ClientOpResult>,
    ) {
        self.poll(client, fabric, cluster);
        let store = &mut self.store;
        store.executed.sort_by_key(|e| (e.done, e.slot));
        for e in store.executed.drain(..) {
            store.results[e.slot] = Some(e.result);
            store.retire_log.push(e.slot);
        }
        let results = store.results.drain(..);
        out.extend(results.map(|r| r.expect("every submitted op retires")));
    }

    /// [`Self::drain_into`] a fresh vector.
    pub fn drain(
        &mut self,
        client: &mut DaosClient,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
    ) -> Vec<ClientOpResult> {
        let mut out = Vec::new();
        self.drain_into(client, fabric, cluster, &mut out);
        out
    }
}

/// The completion instant a result retires at (errors sort at their
/// submission instant — they consumed no completion-side resources).
fn result_instant(result: &ClientOpResult, fallback: SimTime) -> SimTime {
    match result {
        ClientOpResult::Update(Ok(at)) => *at,
        ClientOpResult::Fetch(Ok((_, at))) => *at,
        _ => fallback,
    }
}
