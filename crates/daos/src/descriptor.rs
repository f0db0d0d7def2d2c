//! Descriptor templates: the part of an object RPC descriptor that does not
//! change from one op of an object to the next.
//!
//! A data-plane descriptor names a container, an object, an attribute key,
//! a record (distribution key, offset, length, kind), the replica route the
//! client resolved and the pool-map revision it resolved it under. Only the
//! record differs between two I/Os of one file. A client whose NIC submits
//! ([`DaosClient::chain_ring`](crate::DaosClient::chain_ring)) therefore
//! keeps everything else as a *template* in registered memory: a core
//! builds it as part of an ordinary submission, and from then on the NIC
//! sends template ‖ patch — the patch being what the host's doorbell write
//! carried ([`ros2_ctl::IoPatch`]) — with no core reading either.
//!
//! The template is the routing authority for such a submission: the ring
//! takes the route and the stamp out of its *bytes*, so a descriptor the
//! NIC sends says exactly what the core that wrote the template resolved. A
//! template stamped with a revision other than the client's cached one is
//! not used (a core submits, and rewrites it); one that is stale without
//! the client knowing goes out as it stands and the engine fences it.

use bytes::Bytes;
use ros2_sim::SimTime;
use ros2_verbs::{MemAddr, MrId};

use crate::cluster::{ReplicaSet, Routing, MAX_RF};
use crate::types::{AKey, ObjectId, INLINE_KEY};

/// Size of one template in its region.
pub const TEMPLATE_LEN: u64 = 64;

/// Templates a client keeps: one 4 KiB page of registered memory, four
/// times the sixteen job files the widest shipped world puts on one lane.
/// Beyond that the oldest is overwritten, so a client cycling through more
/// objects than this finds no template for any of them and every op is a
/// core's — slower than a client whose cores only submit, since a core then
/// forwards the completion too.
const SLOTS: usize = 64;

/// Size of a client's template region.
pub(crate) const REGION_LEN: u64 = SLOTS as u64 * TEMPLATE_LEN;

const OID_AT: usize = 8;
const AKEY_AT: usize = OID_AT + 16;
const ROUTE_AT: usize = AKEY_AT + 1 + INLINE_KEY;
const STAMP_AT: usize = ROUTE_AT + 2 + 2 * MAX_RF;
const _: () = assert!(STAMP_AT + 8 <= TEMPLATE_LEN as usize);

impl Routing {
    /// Reads what a template says about routing out of its bytes.
    pub(crate) fn of(template: &[u8]) -> Routing {
        let word = |at: usize| u16::from_le_bytes([template[at], template[at + 1]]);
        let len = template[ROUTE_AT] as usize;
        let mut slots = [0u16; MAX_RF];
        for (i, slot) in slots.iter_mut().enumerate().take(len) {
            *slot = word(ROUTE_AT + 2 + 2 * i);
        }
        let mut stamp = [0u8; 8];
        stamp.copy_from_slice(&template[STAMP_AT..STAMP_AT + 8]);
        Routing {
            set: ReplicaSet::from_slots(&slots[..len.min(MAX_RF)]),
            degraded: template[ROUTE_AT + 1] != 0,
            stamp: u64::from_le_bytes(stamp),
        }
    }
}

/// Builds the template for `(cont, oid, akey)` routed as `routing`. `None`
/// for an attribute key too long to hold inline: such an op has no template
/// and is always a core's.
fn encode(cont: &str, oid: &ObjectId, akey: &AKey, routing: Routing) -> Option<Bytes> {
    let key = akey.as_bytes();
    if key.len() > INLINE_KEY {
        return None;
    }
    let mut t = [0u8; TEMPLATE_LEN as usize];
    // The container handle: a digest of the label, as `PoolConnect` /
    // `ContOpen` hand one out.
    let handle = cont.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    t[..8].copy_from_slice(&handle.to_le_bytes());
    t[OID_AT..OID_AT + 8].copy_from_slice(&oid.hi.to_le_bytes());
    t[OID_AT + 8..AKEY_AT].copy_from_slice(&oid.lo.to_le_bytes());
    t[AKEY_AT] = key.len() as u8;
    t[AKEY_AT + 1..AKEY_AT + 1 + key.len()].copy_from_slice(key);
    t[ROUTE_AT] = routing.set.len() as u8;
    t[ROUTE_AT + 1] = routing.degraded as u8;
    for (i, slot) in routing.set.iter().enumerate() {
        t[ROUTE_AT + 2 + 2 * i..ROUTE_AT + 4 + 2 * i].copy_from_slice(&(slot as u16).to_le_bytes());
    }
    t[STAMP_AT..STAMP_AT + 8].copy_from_slice(&routing.stamp.to_le_bytes());
    Some(Bytes::copy_from_slice(&t))
}

/// One template: whose it is, since when it has been in memory (the
/// instant the core that wrote it finished its submission work), and the
/// handle its region slot adopted.
struct Entry {
    oid: ObjectId,
    akey: AKey,
    since: SimTime,
    bytes: Bytes,
}

/// A client's templates. Slot `i` of the table lives at
/// `region + i * TEMPLATE_LEN`. Empty until the first submission; grows to
/// [`SLOTS`] and then overwrites oldest first.
#[derive(Default)]
pub(crate) struct TemplateTable {
    /// The registered region, once something needed it.
    pub(crate) region: Option<(MrId, MemAddr)>,
    entries: Vec<Entry>,
    /// Next slot to overwrite once the table is full: the oldest entry,
    /// entries being written in slot order and rewritten in place.
    victim: usize,
}

impl TemplateTable {
    /// The template of `(oid, akey)` as an op starting at `now` finds it:
    /// its address in the region and its bytes. A template a core is still
    /// writing at `now` is not there yet.
    pub(crate) fn find(
        &self,
        oid: &ObjectId,
        akey: &AKey,
        now: SimTime,
    ) -> Option<(MemAddr, &Bytes)> {
        let (_, base) = self.region?;
        let owned = |e: &Entry| e.oid == *oid && e.akey == *akey;
        let i = self.entries.iter().position(owned)?;
        let e = &self.entries[i];
        (e.since <= now).then_some((base + i as u64 * TEMPLATE_LEN, &e.bytes))
    }

    /// The clock restarts at t=0 with the templates in memory.
    pub(crate) fn reset_timing(&mut self) {
        for e in &mut self.entries {
            e.since = SimTime::ZERO;
        }
    }

    /// A core resolved `routing` for `(oid, akey)` and is done with its
    /// submission work at `since`: (re)writes the object's template.
    /// Returns where it goes and the bytes to put there — `None` if the op
    /// can have no template, or if the template already says exactly this
    /// (several cores submitting one object's first ops side by side write
    /// it once).
    pub(crate) fn write(
        &mut self,
        cont: &str,
        oid: &ObjectId,
        akey: &AKey,
        routing: Routing,
        since: SimTime,
    ) -> Option<(MemAddr, Bytes)> {
        let (_, base) = self.region?;
        let owned = |e: &Entry| e.oid == *oid && e.akey == *akey;
        let i = match self.entries.iter().position(owned) {
            Some(i) if Routing::of(&self.entries[i].bytes) == routing => return None,
            Some(i) => i,
            None if self.entries.len() < SLOTS => self.entries.len(),
            None => {
                let oldest = self.victim;
                self.victim = (oldest + 1) % SLOTS;
                oldest
            }
        };
        let bytes = encode(cont, oid, akey, routing)?;
        let entry = Entry {
            oid: *oid,
            akey: akey.clone(),
            since,
            bytes: bytes.clone(),
        };
        match self.entries.get_mut(i) {
            Some(e) => *e = entry,
            None => self.entries.push(entry),
        }
        Some((base + i as u64 * TEMPLATE_LEN, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::PoolMap;
    use crate::types::ObjClass;
    use ros2_verbs::NodeId;

    #[test]
    fn a_template_says_what_the_core_resolved() {
        let map = PoolMap::new((0..6).map(NodeId).collect(), 1);
        let oid = ObjectId::new(ObjClass::Sx, 77);
        for rf in 1..=MAX_RF {
            let routing = Routing {
                set: map.replica_set(&oid, rf),
                degraded: rf % 2 == 0,
                stamp: 0x0102_0304_0506_0708 + rf as u64,
            };
            let t = encode("posix", &oid, &AKey::from_str("data"), routing).unwrap();
            assert_eq!(t.len() as u64, TEMPLATE_LEN);
            assert_eq!(Routing::of(&t), routing);
        }
        let long = AKey::from_str("an-attribute-key-too-long-to-inline");
        let routing = Routing {
            set: map.replica_set(&oid, 2),
            degraded: false,
            stamp: 1,
        };
        assert!(encode("posix", &oid, &long, routing).is_none());
    }

    #[test]
    fn the_table_rewrites_in_place_and_overwrites_the_oldest_when_full() {
        let map = PoolMap::new((0..4).map(NodeId).collect(), 2);
        let akey = AKey::from_str("data");
        let routing = |oid: &ObjectId, stamp| Routing {
            set: map.replica_set(oid, 2),
            degraded: false,
            stamp,
        };
        let mut t = TemplateTable::default();
        let oid = |i: u64| ObjectId::new(ObjClass::Sx, i);
        let (t0, t1, t2) = (
            SimTime::ZERO,
            SimTime::from_micros(13),
            SimTime::from_micros(26),
        );
        let none = t.write("c", &oid(0), &akey, routing(&oid(0), 1), t0);
        assert!(none.is_none(), "no region yet");
        t.region = Some((MrId(9), 4096));
        for i in 0..SLOTS as u64 {
            let (at, _) = t
                .write("c", &oid(i), &akey, routing(&oid(i), 1), t1)
                .unwrap();
            assert_eq!(at, 4096 + i * TEMPLATE_LEN);
        }
        // Not there for an op that started while the core was writing it;
        // and a second core resolving the same thing writes nothing.
        assert!(t.find(&oid(3), &akey, t0).is_none());
        assert!(t.find(&oid(3), &akey, t1).is_some());
        let same = t.write("c", &oid(3), &akey, routing(&oid(3), 1), t2);
        assert!(same.is_none() && t.find(&oid(3), &akey, t1).is_some());
        // A rewrite keeps its slot and is what `find` then returns.
        let (at, bytes) = t
            .write("c", &oid(3), &akey, routing(&oid(3), 2), t2)
            .unwrap();
        assert_eq!(at, 4096 + 3 * TEMPLATE_LEN);
        assert!(t.find(&oid(3), &akey, t1).is_none());
        let (found_at, found) = t.find(&oid(3), &akey, t2).unwrap();
        assert_eq!((found_at, found.as_ptr()), (at, bytes.as_ptr()));
        assert_eq!(Routing::of(found).stamp, 2);
        // A 65th object takes over the oldest slot, the 66th the next one;
        // their previous owners are gone and nobody else is.
        for (k, newcomer) in [oid(1000), oid(1001)].into_iter().enumerate() {
            let (at, _) = t
                .write("c", &newcomer, &akey, routing(&newcomer, 1), t2)
                .unwrap();
            assert_eq!(at, 4096 + k as u64 * TEMPLATE_LEN);
            assert!(t.find(&newcomer, &akey, t2).is_some());
            assert!(t.find(&newcomer, &AKey::from_str("other"), t2).is_none());
        }
        let evicted: Vec<u64> = (0..SLOTS as u64)
            .filter(|&i| t.find(&oid(i), &akey, t2).is_none())
            .collect();
        assert_eq!(evicted, [0, 1]);
        assert!(4096 + SLOTS as u64 * TEMPLATE_LEN == 4096 + REGION_LEN);
    }
}
