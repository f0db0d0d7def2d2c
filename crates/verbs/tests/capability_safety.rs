//! Property test: the capability model is safe under arbitrary operation
//! sequences — no remote access ever succeeds without a live, unexpired,
//! unrevoked rkey of the right PD, rights, and range. Work-request chains
//! are held to the same rule: one cannot be built across protection
//! domains, and one whose regions went away after it was posted dies when
//! it fires, before it writes — or sends — anything; nor can one tenant's
//! doorbell ever fire another tenant's SEND.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_sim::{SimRng, SimTime};
use ros2_verbs::{
    AccessFlags, ChainId, Expiry, Landing, MemAddr, MemoryDomain, MrId, NodeId, QpId, QpState,
    QpType, RKey, RdmaDevice, VerbsError,
};

#[derive(Debug, Clone)]
enum Action {
    /// Attempt a read with an offset/len inside or outside the region.
    Read {
        qp_sel: bool,
        key_fuzz: u64,
        off: u64,
        len: u64,
    },
    /// Attempt a write likewise.
    Write {
        qp_sel: bool,
        key_fuzz: u64,
        off: u64,
        len: u64,
    },
    /// Revoke the region's rkey.
    Revoke,
    /// Advance the clock (can cross the expiry).
    Advance { ms: u64 },
    /// Reset the foreign QP if it errored.
    ResetForeign,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<bool>(), 0u64..4, 0u64..6000, 1u64..6000).prop_map(|(q, k, o, l)| Action::Read {
            qp_sel: q,
            key_fuzz: k,
            off: o,
            len: l
        }),
        (any::<bool>(), 0u64..4, 0u64..6000, 1u64..6000).prop_map(|(q, k, o, l)| Action::Write {
            qp_sel: q,
            key_fuzz: k,
            off: o,
            len: l
        }),
        Just(Action::Revoke),
        (1u64..2000).prop_map(|ms| Action::Advance { ms }),
        Just(Action::ResetForeign),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn no_unauthorized_access_ever_succeeds(
        actions in prop::collection::vec(action_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 22, SimRng::new(seed));
        let pd_owner = dev.alloc_pd("owner");
        let pd_foreign = dev.alloc_pd("foreign");
        let buf = dev.alloc_buffer(4096, MemoryDomain::HostDram).unwrap();
        let expiry_at = SimTime::from_secs(1);
        let (mr, rkey, _) = dev
            .reg_mr(pd_owner, buf, 4096, AccessFlags::remote_read(), Expiry::At(expiry_at))
            .unwrap();
        let qp_owner = dev.create_qp(pd_owner, QpType::Rc).unwrap();
        dev.connect_qp(qp_owner, NodeId(1), QpId(10)).unwrap();
        let qp_foreign = dev.create_qp(pd_foreign, QpType::Rc).unwrap();
        dev.connect_qp(qp_foreign, NodeId(2), QpId(11)).unwrap();

        let mut now = SimTime::ZERO;
        let mut revoked = false;

        for a in actions {
            match a {
                Action::Advance { ms } => {
                    now += ros2_sim::SimDuration::from_millis(ms);
                }
                Action::Revoke => {
                    dev.revoke_rkey(mr).unwrap();
                    revoked = true;
                }
                Action::ResetForeign => {
                    if dev.qp_state(qp_foreign) == Some(QpState::Error) {
                        dev.reset_qp(qp_foreign).unwrap();
                        dev.connect_qp(qp_foreign, NodeId(2), QpId(11)).unwrap();
                    }
                }
                Action::Read { qp_sel, key_fuzz, off, len } => {
                    let qp = if qp_sel { qp_owner } else { qp_foreign };
                    let key = if key_fuzz == 0 { rkey } else { RKey(rkey.0 ^ key_fuzz) };
                    let res = dev.execute_remote_read(now, qp, key, buf + off, len);
                    let authorized = qp_sel
                        && key_fuzz == 0
                        && !revoked
                        && now <= expiry_at
                        && off + len <= 4096
                        && dev.qp_state(qp_owner) == Some(QpState::ReadyToSend);
                    if res.is_ok() {
                        prop_assert!(authorized, "unauthorized read succeeded: {a:?}");
                    }
                }
                Action::Write { qp_sel, key_fuzz, off, len } => {
                    let qp = if qp_sel { qp_owner } else { qp_foreign };
                    let key = if key_fuzz == 0 { rkey } else { RKey(rkey.0 ^ key_fuzz) };
                    let data = Bytes::from(vec![0u8; len as usize]);
                    let res = dev.execute_remote_write(now, qp, key, buf + off, &data);
                    // The MR is read-only: *every* remote write must fail.
                    prop_assert!(res.is_err(), "write to read-only MR succeeded");
                }
            }
        }
    }

    /// Fuzzed rkeys never hit a real region (2^64 space, Pythia defence).
    #[test]
    fn random_rkeys_never_validate(seed in any::<u64>(), probes in prop::collection::vec(any::<u64>(), 1..64)) {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 20, SimRng::new(seed));
        let pd = dev.alloc_pd("t");
        let buf = dev.alloc_buffer(4096, MemoryDomain::HostDram).unwrap();
        let (_, rkey, _) = dev
            .reg_mr(pd, buf, 4096, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        let qp = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        for p in probes {
            prop_assume!(p != rkey.0);
            let res = dev.execute_remote_read(SimTime::ZERO, qp, RKey(p), buf, 1);
            prop_assert!(res.is_err());
            // Recover the QP for the next probe.
            dev.reset_qp(qp).unwrap();
            dev.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        }
        prop_assert!(dev.violations().invalid_rkey > 0);
    }
}

// ---------------------------------------------------------------- chains --

const RECORD: &[u8; 16] = b"completion-rec-0";
const STAGING_EXPIRY: SimTime = SimTime::from_secs(1);

/// A lane-shaped device: the owner tenant's loopback chain QP, host-facing
/// doorbell QP, data QP, staging region (remote-writable, expiring),
/// host-visible record region and descriptor-template region (expiring
/// too); and a foreign tenant's QP and region beside them.
struct ChainWorld {
    dev: RdmaDevice,
    owner: QpId,
    host_qp: QpId,
    data_qp: QpId,
    staging: (MrId, MemAddr),
    ring: (MrId, MemAddr),
    templates: (MrId, MemAddr),
    foreign_qp: QpId,
    foreign_mr: (MrId, MemAddr),
}

const TEMPLATE: u64 = 64;

fn chain_world(seed: u64) -> ChainWorld {
    let mut dev = RdmaDevice::new(NodeId(0), 1 << 22, SimRng::new(seed));
    let pd = dev.alloc_pd("owner");
    let pd_foreign = dev.alloc_pd("foreign");
    let owner = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(owner, NodeId(0), owner).unwrap();
    let host_qp = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(host_qp, NodeId(0), host_qp).unwrap();
    let data_qp = dev.create_qp(pd, QpType::Rc).unwrap();
    dev.connect_qp(data_qp, NodeId(1), QpId(10)).unwrap();
    let foreign_qp = dev.create_qp(pd_foreign, QpType::Rc).unwrap();
    dev.connect_qp(foreign_qp, NodeId(2), QpId(11)).unwrap();
    let region = |dev: &mut RdmaDevice, pd, len, domain, access, expiry| {
        let at = dev.alloc_buffer(len, domain).unwrap();
        let (mr, _, _) = dev.reg_mr(pd, at, len, access, expiry).unwrap();
        (mr, at)
    };
    let staging = region(
        &mut dev,
        pd,
        8192,
        MemoryDomain::DpuDram,
        AccessFlags::remote_rw(),
        Expiry::At(STAGING_EXPIRY),
    );
    let ring = region(
        &mut dev,
        pd,
        16,
        MemoryDomain::HostDram,
        AccessFlags::local_only(),
        Expiry::Never,
    );
    let templates = region(
        &mut dev,
        pd,
        4 * TEMPLATE,
        MemoryDomain::DpuDram,
        AccessFlags::local_only(),
        Expiry::At(STAGING_EXPIRY),
    );
    let foreign_mr = region(
        &mut dev,
        pd_foreign,
        TEMPLATE,
        MemoryDomain::HostDram,
        AccessFlags::local_only(),
        Expiry::Never,
    );
    ChainWorld {
        dev,
        owner,
        host_qp,
        data_qp,
        staging,
        ring,
        templates,
        foreign_qp,
        foreign_mr,
    }
}

impl ChainWorld {
    fn build(&mut self) -> ChainId {
        self.dev
            .chain_builder(self.owner)
            .unwrap()
            .wait(self.data_qp)
            .verify_crc32c(self.staging.0)
            .write_record(self.ring.0, self.ring.1, Bytes::from_static(RECORD))
            .build()
            .unwrap()
    }

    /// The chain of an offloaded ring slot: doorbell → SEND, then
    /// completion → verify → record.
    fn build_both(&mut self) -> ChainId {
        self.dev
            .chain_builder(self.owner)
            .unwrap()
            .wait_doorbell(self.host_qp)
            .send_gather(self.templates.0)
            .wait(self.data_qp)
            .verify_crc32c(self.staging.0)
            .write_record(self.ring.0, self.ring.1, Bytes::from_static(RECORD))
            .build()
            .unwrap()
    }

    /// A doorbell write on `on` for the second template of the region.
    fn ring(&mut self, now: SimTime, chain: ChainId, on: QpId) -> Result<(), VerbsError> {
        let (at, legs) = (self.templates.1 + TEMPLATE, [self.data_qp]);
        self.dev
            .ring_doorbell(now, chain, on, at, TEMPLATE, legs.into_iter())
    }

    fn fire(&mut self, now: SimTime, chain: ChainId, payload: &Bytes) -> Result<(), VerbsError> {
        let landing = Landing {
            addr: self.staging.1,
            bytes: payload,
            wire_crc: ros2_buf::bytes_crc32c(payload),
        };
        self.dev.fire_chain(now, chain, self.data_qp, Some(landing))
    }

    fn published(&mut self) -> bool {
        self.dev.read_local(self.ring.1, 16).unwrap()[..] == RECORD[..]
    }
}

#[test]
fn a_chain_cannot_name_another_domains_region_or_queue_pair() {
    let mut w = chain_world(1);
    let record = || Bytes::from_static(RECORD);
    // A foreign region as the record sink: a chain that would let the
    // owner's NIC context write the neighbour's host memory.
    let sink = w
        .dev
        .chain_builder(w.owner)
        .unwrap()
        .wait(w.data_qp)
        .write_record(w.foreign_mr.0, w.foreign_mr.1, record())
        .build();
    assert_eq!(sink.unwrap_err(), VerbsError::PdMismatch);
    // A foreign region as the verify source.
    let source = w
        .dev
        .chain_builder(w.owner)
        .unwrap()
        .wait(w.data_qp)
        .verify_crc32c(w.foreign_mr.0)
        .build();
    assert_eq!(source.unwrap_err(), VerbsError::PdMismatch);
    // A foreign QP as the trigger: the neighbour's traffic must not be
    // able to fire the owner's chain.
    let trigger = w
        .dev
        .chain_builder(w.owner)
        .unwrap()
        .wait(w.foreign_qp)
        .write_record(w.ring.0, w.ring.1, record())
        .build();
    assert_eq!(trigger.unwrap_err(), VerbsError::PdMismatch);
    // A foreign region as the gather source: a SEND that would carry the
    // neighbour's memory out on the owner's connection.
    let gather = w
        .dev
        .chain_builder(w.owner)
        .unwrap()
        .wait_doorbell(w.host_qp)
        .send_gather(w.foreign_mr.0)
        .wait(w.data_qp)
        .build();
    assert_eq!(gather.unwrap_err(), VerbsError::PdMismatch);
    // A foreign QP as the doorbell: the neighbour's host writes must not
    // be able to send the owner's descriptors.
    let bell = w
        .dev
        .chain_builder(w.owner)
        .unwrap()
        .wait_doorbell(w.foreign_qp)
        .send_gather(w.templates.0)
        .wait(w.data_qp)
        .build();
    assert_eq!(bell.unwrap_err(), VerbsError::PdMismatch);
    // Nothing was posted: the first handle a good build gets is chain 0.
    assert_eq!(w.build(), ChainId(0));
    // And a built chain still cannot be fired from the foreign QP.
    let chain = ChainId(0);
    w.dev.arm_chain(chain).unwrap();
    assert_eq!(
        w.dev.fire_chain(SimTime::ZERO, chain, w.foreign_qp, None),
        Err(VerbsError::BadChain)
    );
    assert!(!w.published());
}

#[test]
fn a_region_lost_between_post_and_fire_kills_the_chain_at_fire_time() {
    let payload = Bytes::from(vec![0x42u8; 4096]);
    type Lose = fn(&mut ChainWorld) -> SimTime;
    let cases: [(Lose, VerbsError); 4] = [
        // The staging rkey is revoked under the armed chain.
        (
            |w| {
                w.dev.revoke_rkey(w.staging.0).unwrap();
                SimTime::ZERO
            },
            VerbsError::RkeyRevoked,
        ),
        // The staging rkey's scope runs out before the completion arrives.
        (
            |_| STAGING_EXPIRY + ros2_sim::SimDuration::from_nanos(1),
            VerbsError::RkeyExpired,
        ),
        // The staging registration is replaced (a refresh): the chain's
        // rkey names nothing any more.
        (
            |w| {
                w.dev.dereg_mr(w.staging.0).unwrap();
                SimTime::ZERO
            },
            VerbsError::InvalidRkey,
        ),
        // The record region is revoked: verify passes, the write must not.
        (
            |w| {
                w.dev.revoke_rkey(w.ring.0).unwrap();
                SimTime::ZERO
            },
            VerbsError::RkeyRevoked,
        ),
    ];
    for (lose, want) in cases {
        let mut w = chain_world(2);
        let chain = w.build();
        w.dev.arm_chain(chain).unwrap();
        let now = lose(&mut w);
        assert_eq!(w.fire(now, chain, &payload), Err(want));
        assert_eq!(w.dev.violations().total(), 1, "{want:?} is a counted fault");
        assert!(!w.published(), "{want:?}: a dead chain publishes nothing");
        assert_eq!(w.dev.chain_stats().records_written, 0);
        // The fault kills the chain's own QP, not the data connection.
        assert_eq!(w.dev.qp_state(w.owner), Some(QpState::Error));
        assert_eq!(w.dev.qp_state(w.data_qp), Some(QpState::ReadyToSend));
        // And while its QP is down the chain stays down, armed or not.
        w.dev.arm_chain(chain).unwrap();
        assert_eq!(w.fire(now, chain, &payload), Err(VerbsError::QpNotReady));
    }
}

#[test]
fn a_template_region_lost_between_arm_and_doorbell_sends_nothing() {
    type Lose = fn(&mut ChainWorld) -> SimTime;
    let cases: [(Lose, VerbsError); 3] = [
        (
            |w| {
                w.dev.revoke_rkey(w.templates.0).unwrap();
                SimTime::ZERO
            },
            VerbsError::RkeyRevoked,
        ),
        (
            |_| STAGING_EXPIRY + ros2_sim::SimDuration::from_nanos(1),
            VerbsError::RkeyExpired,
        ),
        (
            |w| {
                w.dev.dereg_mr(w.templates.0).unwrap();
                SimTime::ZERO
            },
            VerbsError::InvalidRkey,
        ),
    ];
    for (lose, want) in cases {
        let mut w = chain_world(3);
        let chain = w.build_both();
        w.dev.arm_chain(chain).unwrap();
        let now = lose(&mut w);
        assert_eq!(w.ring(now, chain, w.host_qp), Err(want));
        assert_eq!(w.dev.violations().total(), 1, "{want:?} is a counted fault");
        assert_eq!(
            w.dev.chain_stats().descriptors_sent,
            0,
            "{want:?}: nothing left"
        );
        // The chain stopped where it stood: no completion can fire the
        // rest of it, and its QP — not the data connection — is dead.
        let payload = Bytes::from(vec![0x42u8; 4096]);
        assert!(w.fire(now, chain, &payload).is_err());
        assert!(!w.published());
        assert_eq!(w.dev.qp_state(w.owner), Some(QpState::Error));
        assert_eq!(w.dev.qp_state(w.data_qp), Some(QpState::ReadyToSend));
        w.dev.arm_chain(chain).unwrap();
        assert_eq!(w.ring(now, chain, w.host_qp), Err(VerbsError::QpNotReady));
    }
}

#[derive(Debug, Clone)]
enum ChainAction {
    Arm,
    /// Fire on the data QP (or the foreign one), with a good or a bad
    /// carried checksum.
    Fire {
        on_data_qp: bool,
        good_crc: bool,
    },
    RevokeStaging,
    RevokeRing,
    Advance {
        ms: u64,
    },
    /// Administrative recovery of the chain's QP after a fault.
    RecoverOwner,
}

fn chain_action_strategy() -> impl Strategy<Value = ChainAction> {
    prop_oneof![
        Just(ChainAction::Arm),
        Just(ChainAction::Arm),
        (any::<bool>(), any::<bool>()).prop_map(|(q, c)| ChainAction::Fire {
            on_data_qp: q,
            good_crc: c
        }),
        (any::<bool>(), any::<bool>()).prop_map(|(q, c)| ChainAction::Fire {
            on_data_qp: q || c,
            good_crc: true
        }),
        Just(ChainAction::RevokeStaging),
        Just(ChainAction::RevokeRing),
        (1u64..600).prop_map(|ms| ChainAction::Advance { ms }),
        Just(ChainAction::RecoverOwner),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Random arm/fire/revoke/expire schedules: a chain writes its record
    /// into host-visible memory only when, at that very instant, it is
    /// armed, fired by a QP it waits on, its own QP is up, both regions
    /// are live, and the landed bytes match the carried checksum — and
    /// whenever all of that holds, it does.
    #[test]
    fn no_unauthorised_chain_ever_writes_host_memory(
        actions in prop::collection::vec(chain_action_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let mut w = chain_world(seed);
        let chain = w.build();
        let payload = Bytes::from(vec![0x99u8; 1024]);
        let (mut now, mut armed) = (SimTime::ZERO, false);
        let (mut staging_revoked, mut ring_revoked) = (false, false);
        let mut writes = 0u64;
        for a in actions {
            match a {
                ChainAction::Arm => {
                    w.dev.arm_chain(chain).unwrap();
                    armed = true;
                }
                ChainAction::RevokeStaging => {
                    w.dev.revoke_rkey(w.staging.0).unwrap();
                    staging_revoked = true;
                }
                ChainAction::RevokeRing => {
                    w.dev.revoke_rkey(w.ring.0).unwrap();
                    ring_revoked = true;
                }
                ChainAction::Advance { ms } => now += ros2_sim::SimDuration::from_millis(ms),
                ChainAction::RecoverOwner => {
                    if w.dev.qp_state(w.owner) == Some(QpState::Error) {
                        w.dev.reset_qp(w.owner).unwrap();
                        w.dev.connect_qp(w.owner, NodeId(0), w.owner).unwrap();
                    }
                }
                ChainAction::Fire { on_data_qp, good_crc } => {
                    let owner_up = w.dev.qp_state(w.owner) == Some(QpState::ReadyToSend);
                    let authorised = armed
                        && on_data_qp
                        && owner_up
                        && !staging_revoked
                        && now <= STAGING_EXPIRY
                        && !ring_revoked
                        && good_crc;
                    let on = if on_data_qp { w.data_qp } else { w.foreign_qp };
                    let crc = ros2_buf::bytes_crc32c(&payload) ^ u32::from(!good_crc);
                    let landing = Landing { addr: w.staging.1, bytes: &payload, wire_crc: crc };
                    let res = w.dev.fire_chain(now, chain, on, Some(landing));
                    prop_assert_eq!(res.is_ok(), authorised, "{:?} at {} -> {:?}", a, now, res);
                    writes += u64::from(authorised);
                    // A fire that reached the chain consumed its WAIT.
                    if armed && on_data_qp && owner_up {
                        armed = false;
                    }
                }
            }
            prop_assert_eq!(w.dev.chain_stats().records_written, writes);
            prop_assert_eq!(w.published(), writes > 0);
        }
    }
}

// ------------------------------------------------------------ doorbells --

/// One tenant's half of a shared NIC: its chain with both segments, the
/// QPs and the template region the chain names.
struct Tenant {
    chain: ChainId,
    owner: QpId,
    host_qp: QpId,
    data_qp: QpId,
    templates: (MrId, MemAddr),
}

fn tenant(dev: &mut RdmaDevice, name: &str, peer: u32) -> Tenant {
    let pd = dev.alloc_pd(name);
    let qp = |dev: &mut RdmaDevice, node: u32| {
        let qp = dev.create_qp(pd, QpType::Rc).unwrap();
        let to = if node == 0 { qp } else { QpId(100 + peer) };
        dev.connect_qp(qp, NodeId(node), to).unwrap();
        qp
    };
    let (owner, host_qp, data_qp) = (qp(dev, 0), qp(dev, 0), qp(dev, peer));
    let region = |dev: &mut RdmaDevice, len, access| {
        let at = dev.alloc_buffer(len, MemoryDomain::DpuDram).unwrap();
        let (mr, _, _) = dev.reg_mr(pd, at, len, access, Expiry::Never).unwrap();
        (mr, at)
    };
    let templates = region(dev, TEMPLATE, AccessFlags::local_only());
    let staging = region(dev, 4096, AccessFlags::remote_rw());
    let record = region(dev, 16, AccessFlags::local_only());
    let chain = dev
        .chain_builder(owner)
        .unwrap()
        .wait_doorbell(host_qp)
        .send_gather(templates.0)
        .wait(data_qp)
        .verify_crc32c(staging.0)
        .write_record(record.0, record.1, Bytes::from_static(RECORD))
        .build()
        .unwrap();
    Tenant {
        chain,
        owner,
        host_qp,
        data_qp,
        templates,
    }
}

#[derive(Debug, Clone)]
enum BellAction {
    Arm {
        tenant: bool,
    },
    /// A doorbell write on `on`'s host-facing QP, aimed at `chain`'s chain
    /// and naming `template`'s region and `leg`'s data QP.
    Ring {
        on: bool,
        chain: bool,
        template: bool,
        leg: bool,
    },
    RevokeTemplates {
        tenant: bool,
    },
    Recover {
        tenant: bool,
    },
}

fn bell_action_strategy() -> impl Strategy<Value = BellAction> {
    let b = any::<bool>;
    prop_oneof![
        b().prop_map(|tenant| BellAction::Arm { tenant }),
        b().prop_map(|tenant| BellAction::Arm { tenant }),
        (b(), b(), b(), b()).prop_map(|(on, chain, template, leg)| BellAction::Ring {
            on,
            chain,
            template,
            leg
        }),
        // Mostly well-formed rings, so chains do get spent and re-armed.
        (b(), b()).prop_map(|(t, stray)| BellAction::Ring {
            on: t,
            chain: t,
            template: t,
            leg: t ^ stray
        }),
        b().prop_map(|tenant| BellAction::RevokeTemplates { tenant }),
        b().prop_map(|tenant| BellAction::Recover { tenant }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Two tenants' chains on one NIC under random arm / revoke / doorbell
    /// schedules: a doorbell sends a descriptor only when it lands on the
    /// chain's *own* tenant's host-facing QP, names that tenant's live
    /// template region and a data QP of that tenant, and the chain is armed
    /// with its QP up — and whenever all of that holds, it does. In
    /// particular no write on one tenant's doorbell ever fires, or even
    /// disarms, the other tenant's SEND.
    #[test]
    fn no_doorbell_ever_fires_another_tenants_send(
        actions in prop::collection::vec(bell_action_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 22, SimRng::new(seed));
        let tenants = [tenant(&mut dev, "a", 1), tenant(&mut dev, "b", 2)];
        let of = |t: bool| &tenants[t as usize];
        let mut armed = [false; 2];
        let mut revoked = [false; 2];
        let mut sent = 0u64;
        for a in actions {
            match a {
                BellAction::Arm { tenant } => {
                    dev.arm_chain(of(tenant).chain).unwrap();
                    armed[tenant as usize] = true;
                }
                BellAction::RevokeTemplates { tenant } => {
                    dev.revoke_rkey(of(tenant).templates.0).unwrap();
                    revoked[tenant as usize] = true;
                }
                BellAction::Recover { tenant } => {
                    let owner = of(tenant).owner;
                    if dev.qp_state(owner) == Some(QpState::Error) {
                        dev.reset_qp(owner).unwrap();
                        dev.connect_qp(owner, NodeId(0), owner).unwrap();
                    }
                }
                BellAction::Ring { on, chain, template, leg } => {
                    let c = chain as usize;
                    let owner_up = dev.qp_state(of(chain).owner) == Some(QpState::ReadyToSend);
                    let reached = armed[c] && on == chain && owner_up;
                    let authorised = reached && template == chain && !revoked[c] && leg == chain;
                    let res = dev.ring_doorbell(
                        SimTime::ZERO,
                        of(chain).chain,
                        of(on).host_qp,
                        of(template).templates.1,
                        TEMPLATE,
                        [of(leg).data_qp].into_iter(),
                    );
                    prop_assert_eq!(res.is_ok(), authorised, "{:?} -> {:?}", a, res);
                    sent += u64::from(authorised);
                    // A doorbell that reached the chain consumed its WAIT;
                    // one that did not left it as it stood.
                    if reached {
                        armed[c] = false;
                    }
                }
            }
            prop_assert_eq!(dev.chain_stats().descriptors_sent, sent);
        }
    }
}
