//! Fault-injection plans for the pipelined client's recovery ladder.
//!
//! A [`FaultPlan`] is a declarative chaos schedule: which engines die and
//! when (in client-op counts, so the kill lands mid-flight regardless of
//! the workload's timing), which connections silently eat traffic, how
//! slow a "slow" engine is, and — the heart of the map race — how long a
//! RAS membership event takes to *reach* each client stack. Everything in
//! the plan is deterministic: the same plan against the same workload
//! replays bit-identically, which is what lets the chaos property suite
//! compare whole runs for equality.
//!
//! The empty plan ([`FaultPlan::none`], also `Default`) is the pinned
//! baseline: with no faults scheduled, every client's cached map equals
//! the live map, no fence ever fires, and all pre-existing results are
//! bit-identical to the fault-oblivious code.

use ros2_ctl::ControlRequest;
use ros2_daos::{DaosError, EngineCluster, PoolMap};
use ros2_sim::{SimDuration, SimTime};

use crate::assembly::ClientStack;

/// Gap between consecutive per-client deliveries of one map push: the
/// control plane serializes the frame onto each subscriber connection.
pub const PUSH_GAP: SimDuration = SimDuration::from_micros(1);

/// One scheduled engine kill, triggered by client progress rather than
/// wall-clock: the kill fires when the client stack has issued
/// `after_client_ops` data-plane ops, so it lands between submissions of
/// a pipelined queue ("mid-flight") deterministically.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScheduledKill {
    /// Fire once the client's op counter reaches this value.
    pub after_client_ops: u64,
    /// The engine slot to kill.
    pub slot: usize,
}

/// One scheduled bit-rot injection, keyed by client progress like
/// [`ScheduledKill`]: when the client's op counter reaches
/// `after_client_ops`, one stored extent on engine `slot` is silently
/// corrupted in place — recorded checksums stay intact, so only a
/// media-vs-recorded CRC cross-check (the scrub pass) can see it. The
/// victim object is `object_index` into the engine's sorted object list
/// (mod its length), making the choice deterministic for any workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScheduledCorruption {
    /// Fire once the client's op counter reaches this value.
    pub after_client_ops: u64,
    /// The engine slot whose replica rots.
    pub slot: usize,
    /// Index into the engine's sorted object list (taken mod its length).
    pub object_index: usize,
}

/// One slow-engine injection: `slot` still answers every request, just
/// `extra` later — the "engine slow" arm of the timeout classifier.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineStall {
    /// The slot to slow down.
    pub slot: usize,
    /// Extra service latency added to every completion.
    pub extra: SimDuration,
}

/// A deterministic chaos schedule threaded through `Ros2System` and the
/// DFS FIO worlds (installed as a [`FaultCursor`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// How long a RAS membership event takes to reach the client stack
    /// after the kill commits. Zero means delivery at the kill instant
    /// (still applied only when the client next polls its mailbox — the
    /// push is asynchronous even when it is fast).
    pub ras_delay: SimDuration,
    /// Engine kills, fired by client-op progress. Kills fire in order;
    /// because only one unrebuilt failure may be outstanding, a second
    /// kill before a rebuild is a plan error surfaced at fire time.
    pub kills: Vec<ScheduledKill>,
    /// Connections to black-hole from launch: the engine stays Up in the
    /// map but requests to it vanish, detectable only by deadline expiry.
    pub blackholes: Vec<usize>,
    /// Slow engines, applied from launch.
    pub stalls: Vec<EngineStall>,
    /// Bit-rot injections, fired by client-op progress in order. Unlike
    /// kills these may overlap freely: corruption is silent and the scrub
    /// service is responsible for finding every instance.
    pub bitrot: Vec<ScheduledCorruption>,
}

impl FaultPlan {
    /// The empty plan: no kills, no black holes, no stalls, immediate RAS
    /// delivery. Behaviour under this plan is pinned bit-identical to the
    /// fault-oblivious system.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.ras_delay == SimDuration::ZERO
            && self.kills.is_empty()
            && self.blackholes.is_empty()
            && self.stalls.is_empty()
            && self.bitrot.is_empty()
    }

    /// Convenience: a single mid-flight kill of `slot` after
    /// `after_client_ops` ops, with RAS delivery delayed by `ras_delay`.
    pub fn kill_after(slot: usize, after_client_ops: u64, ras_delay: SimDuration) -> Self {
        FaultPlan {
            ras_delay,
            kills: vec![ScheduledKill {
                after_client_ops,
                slot,
            }],
            ..FaultPlan::default()
        }
    }
}

/// An installed [`FaultPlan`] and how far its op-count-triggered entries
/// have fired. Every world holds one, and every membership change it
/// makes reaches its client stacks through [`Self::push_map`].
#[derive(Debug, Default)]
pub struct FaultCursor {
    plan: FaultPlan,
    /// Index of the next unfired entry in `plan.kills`.
    next_kill: usize,
    /// Index of the next unfired entry in `plan.bitrot`.
    next_bitrot: usize,
}

impl FaultCursor {
    /// Arms `plan` on `cluster` with nothing fired yet: black holes and
    /// stalls take effect immediately; kills and bit-rot fire later, from
    /// [`Self::fire_due`] or the owner's own op counter.
    pub fn install(plan: FaultPlan, cluster: &mut EngineCluster) -> Self {
        for &slot in &plan.blackholes {
            cluster.set_blackhole(slot, true);
        }
        for stall in &plan.stalls {
            cluster.set_stall(stall.slot, stall.extra);
        }
        FaultCursor {
            plan,
            next_kill: 0,
            next_bitrot: 0,
        }
    }

    /// The slot of the next kill due once the client stack has issued
    /// `ops` ops, marked fired; `None` when none is due. Kills fire in
    /// plan order, so an unreached one holds back those after it.
    pub(crate) fn due_kill(&mut self, ops: u64) -> Option<usize> {
        let kill = self.plan.kills.get(self.next_kill)?;
        if ops < kill.after_client_ops {
            return None;
        }
        self.next_kill += 1;
        Some(kill.slot)
    }

    /// The one way a membership change reaches client stacks: the
    /// cluster's current map, encoded **once** as a `MapPush` frame, lands
    /// at client `c` of `clients` at `now + ras_delay + c × PUSH_GAP` and
    /// is applied at its next map poll.
    pub fn push_map(&self, cluster: &EngineCluster, now: SimTime, clients: &mut [ClientStack]) {
        let frame = cluster.map().to_push().encode();
        let rf = cluster.map().replication_factor();
        for (c, client) in clients.iter_mut().enumerate() {
            // Each client decodes the frame against the slot-aligned
            // storage nodes it learned at pool connect.
            let Ok(ControlRequest::MapPush {
                version,
                healths,
                pending_dead,
            }) = ControlRequest::decode(frame.clone())
            else {
                unreachable!("a MapPush frame decodes as one");
            };
            let map = PoolMap::from_wire(client.servers(), rf, version, &healths, pending_dead);
            client.deliver_map(now + self.plan.ras_delay + PUSH_GAP * c as u64, map);
        }
    }

    /// Fires at `now` every kill (its map pushed by [`Self::push_map`])
    /// and bit-rot injection due at `clients`' total op count.
    pub fn fire_due(
        &mut self,
        cluster: &mut EngineCluster,
        now: SimTime,
        clients: &mut [ClientStack],
    ) -> Result<(), DaosError> {
        // All an empty (or spent) plan costs per op.
        if self.next_kill == self.plan.kills.len() && self.next_bitrot == self.plan.bitrot.len() {
            return Ok(());
        }
        let ops = clients.iter().map(ClientStack::ops).sum();
        while let Some(slot) = self.due_kill(ops) {
            cluster.kill_engine(slot)?;
            self.push_map(cluster, now, clients);
        }
        self.apply_due_bitrot(cluster, ops);
        Ok(())
    }

    /// Applies to `cluster` every bit-rot injection due at `ops` ops.
    /// Silent: no event is raised and no client ever fails — only the
    /// scrub service can see it.
    pub(crate) fn apply_due_bitrot(&mut self, cluster: &mut EngineCluster, ops: u64) {
        while let Some(rot) = self.plan.bitrot.get(self.next_bitrot) {
            if ops < rot.after_client_ops {
                break;
            }
            self.next_bitrot += 1;
            cluster
                .engine_mut(rot.slot)
                .corrupt_object_from(rot.object_index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{connect_client, fabric_and_cluster, ClientSetup};
    use ros2_daos::{ObjClass, ObjectId};
    use ros2_dpu::DpuTenantSpec;
    use ros2_hw::{ClientPlacement, ClusterTopology, Transport};
    use ros2_nvme::DataMode;
    use ros2_verbs::NodeId;

    #[test]
    fn push_reaches_client_c_one_gap_after_client_c_minus_one() {
        let topology = ClusterTopology::incast(ClientPlacement::Host, 3, 4);
        let (mut fabric, mut cluster, nodes) =
            fabric_and_cluster(Transport::Rdma, &topology, 7, 1, 2, 1, DataMode::Null).unwrap();
        let mut clients: Vec<ClientStack> = (0..3u32)
            .map(|c| {
                let setup = ClientSetup {
                    jobs: 1,
                    buffer_len: 1 << 20,
                    gpu_hbm: false,
                    tenants: vec![DpuTenantSpec::unlimited("t")],
                    dpu_cache: None,
                    seed: 0,
                    agent: None,
                };
                connect_client(&mut fabric, NodeId(c), &nodes, ClientPlacement::Host, setup)
                    .unwrap()
            })
            .collect();
        let oid = ObjectId::new(ObjClass::Sx, 1);
        let revision = |client: &mut ClientStack, cluster: &EngineCluster, at: SimTime| {
            let ClientStack::InProcess(c) = client else {
                unreachable!("host clients")
            };
            c.probe_route(at, cluster, &oid).stamp
        };
        // Every client caches the launch map before the kill.
        let old = cluster.map().version();
        for client in &mut clients {
            assert_eq!(revision(client, &cluster, SimTime::ZERO), old);
        }
        cluster.kill_engine(1).unwrap();
        let at = SimTime::from_micros(50);
        FaultCursor::default().push_map(&cluster, at, &mut clients);
        for (c, client) in clients.iter_mut().enumerate() {
            let lands = at + PUSH_GAP * c as u64;
            let before = SimTime::from_nanos(lands.as_nanos() - 1);
            assert_eq!(revision(client, &cluster, before), old, "client {c}");
            assert_eq!(revision(client, &cluster, lands), old + 1, "client {c}");
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan::kill_after(1, 4, SimDuration::from_micros(500));
        assert!(!plan.is_empty());
        assert_eq!(plan.kills.len(), 1);
        assert_eq!(plan.kills[0].slot, 1);
        // Delay alone is an injection too: it changes when deliveries land.
        let delay_only = FaultPlan {
            ras_delay: SimDuration::from_micros(1),
            ..FaultPlan::default()
        };
        assert!(!delay_only.is_empty());
        // So is silent corruption, even though no client ever fails on it.
        let rot_only = FaultPlan {
            bitrot: vec![ScheduledCorruption {
                after_client_ops: 8,
                slot: 2,
                object_index: 0,
            }],
            ..FaultPlan::default()
        };
        assert!(!rot_only.is_empty());
    }
}
