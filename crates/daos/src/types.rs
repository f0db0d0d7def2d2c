//! DAOS object-model types: object identifiers and classes, distribution
//! and attribute keys, epochs, and the engine cost model.

use bytes::Bytes;
use ros2_ctl::{ControlError, WireError, WireReader, WireWriter};
use ros2_fabric::FabricError;
use ros2_nvme::NvmeError;
use ros2_pmem::PmemError;
use ros2_sim::SimDuration;
use ros2_verbs::VerbsError;

/// A 128-bit DAOS object identifier. The high word carries the object
/// class; the low word is caller-assigned (DFS stores inode numbers there).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId {
    /// Class and metadata bits.
    pub hi: u64,
    /// Caller-assigned identity.
    pub lo: u64,
}

impl ObjectId {
    /// Builds an id with the given class over a caller value.
    pub fn new(class: ObjClass, lo: u64) -> Self {
        let class_bits: u64 = match class {
            ObjClass::S1 => 1 << 56,
            ObjClass::Sx => 2 << 56,
        };
        ObjectId { hi: class_bits, lo }
    }

    /// The object class encoded in `hi`.
    pub fn class(&self) -> ObjClass {
        match self.hi >> 56 {
            2 => ObjClass::Sx,
            _ => ObjClass::S1,
        }
    }
}

/// Object placement classes (the subset DFS uses).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ObjClass {
    /// Single target: all dkeys on one target (metadata objects).
    S1,
    /// Striped across all targets by dkey (file-data objects) — this is
    /// what lets one file's chunks engage all four SSDs in Fig. 5.
    Sx,
}

/// Largest key stored inline (no heap). Covers every key the workspace
/// builds on the hot path: `from_u64` chunk indices (8 bytes), the `"."`
/// superblock dkey, and the `"data"` / `"entry"` / `"superblock"` akeys.
pub const INLINE_KEY: usize = 16;

/// Key byte storage: a small-key representation that keeps keys of up to
/// [`INLINE_KEY`] bytes on the stack (the metadata hot path constructs a
/// dkey per op — the seed heap-allocated every one), falling back to a
/// refcounted [`Bytes`] for longer keys (arbitrary file names).
///
/// Equality, ordering and hashing are over the key *bytes*, independent of
/// representation; construction normalizes (≤ 16 bytes is always inline),
/// so the representation is canonical too.
#[derive(Clone)]
pub enum KeyBytes {
    /// The key bytes held inline: `buf[..len]`.
    Inline {
        /// Number of meaningful bytes in `buf`.
        len: u8,
        /// Inline storage.
        buf: [u8; INLINE_KEY],
    },
    /// A key longer than [`INLINE_KEY`] bytes.
    Heap(Bytes),
}

impl KeyBytes {
    /// Builds a key from a slice (inline when it fits; one copy otherwise).
    fn from_slice(s: &[u8]) -> Self {
        if s.len() <= INLINE_KEY {
            let mut buf = [0u8; INLINE_KEY];
            buf[..s.len()].copy_from_slice(s);
            KeyBytes::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            KeyBytes::Heap(Bytes::copy_from_slice(s))
        }
    }

    /// Builds a key from an owned handle (inline when it fits — the handle
    /// is dropped — otherwise adopted without copying).
    fn from_bytes(b: Bytes) -> Self {
        if b.len() <= INLINE_KEY {
            KeyBytes::from_slice(&b)
        } else {
            KeyBytes::Heap(b)
        }
    }

    /// The key bytes.
    fn as_slice(&self) -> &[u8] {
        match self {
            KeyBytes::Inline { len, buf } => &buf[..*len as usize],
            KeyBytes::Heap(b) => b,
        }
    }

    /// Whether the key is stored inline (no heap allocation).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self, KeyBytes::Inline { .. })
    }
}

impl PartialEq for KeyBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for KeyBytes {}
impl PartialOrd for KeyBytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyBytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}
impl std::hash::Hash for KeyBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}
impl std::fmt::Debug for KeyBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:02x?}", self.as_slice())
    }
}

/// A distribution key. Records under different dkeys may land on different
/// targets (for striped classes).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DKey(pub KeyBytes);

impl DKey {
    /// A dkey from a string.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Self {
        DKey(KeyBytes::from_slice(s.as_bytes()))
    }
    /// A dkey from a u64 (DFS chunk indices) — allocation-free.
    pub fn from_u64(v: u64) -> Self {
        DKey(KeyBytes::from_slice(&v.to_le_bytes()))
    }
    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
    /// Appends this key's wire form (see [`WireWriter::key`]).
    pub fn encode(&self, w: &mut WireWriter) {
        w.key(self.as_bytes());
    }
    /// Reads a dkey from its wire form; short keys land inline.
    pub fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(DKey(KeyBytes::from_bytes(r.key()?)))
    }
}

/// An attribute key within a dkey.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AKey(pub KeyBytes);

impl AKey {
    /// An akey from a string.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Self {
        AKey(KeyBytes::from_slice(s.as_bytes()))
    }
    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }
    /// Appends this key's wire form (see [`WireWriter::key`]).
    pub fn encode(&self, w: &mut WireWriter) {
        w.key(self.as_bytes());
    }
    /// Reads an akey from its wire form; short keys land inline.
    pub fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(AKey(KeyBytes::from_bytes(r.key()?)))
    }
}

/// The address of one record, `(oid, dkey, akey)`: the one value every
/// layer below the client's door names a record by — an op, the ring's
/// in-flight body, the VOS index, a read-cache group. Built from short keys
/// it holds no heap memory, and a clone of it allocates nothing (inline
/// keys copy, longer ones bump a refcount). Ordered by object, then dkey,
/// then akey.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RecordKey {
    /// Object the record belongs to.
    pub oid: ObjectId,
    /// Distribution key.
    pub dkey: DKey,
    /// Attribute key.
    pub akey: AKey,
}

/// A transactional epoch. Updates are tagged; fetches read the latest state
/// at or below their epoch (DAOS's versioned object model, §2.4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The maximum epoch: reads see everything committed.
    pub const LATEST: Epoch = Epoch(u64::MAX);
}

/// A value store's **arrival version**: the reading of its VOS target's
/// arrival clock when the `(oid, dkey, akey)` record last changed, which is
/// what a read cache stamps a record's entries with. It is *not* the
/// record's newest epoch: a lower-epoch extent that arrives late changes
/// the visible bytes without changing the newest epoch, but it is still an
/// arrival. The clock is per target and never rewinds, so a record that is
/// punched and written again draws a number it has never had; a record the
/// target does not hold reads as [`RecordVersion::ABSENT`], and an absent
/// record's content is fixed too (an array reads as zeros, a single value
/// as `NotFound`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordVersion(pub u64);

impl RecordVersion {
    /// The version of a record its target holds nothing for.
    pub const ABSENT: RecordVersion = RecordVersion(0);
}

/// Fixtures that drive a cache without an engine stamp with a constant;
/// they may keep writing it as an [`Epoch`] literal.
impl From<Epoch> for RecordVersion {
    fn from(e: Epoch) -> Self {
        RecordVersion(e.0)
    }
}

/// FNV-1a over bytes — the placement hash (stable and documented; the real
/// system uses jump consistent hashing over the pool map).
pub fn placement_hash(oid: &ObjectId, dkey: Option<&DKey>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in oid.hi.to_le_bytes() {
        eat(b);
    }
    for b in oid.lo.to_le_bytes() {
        eat(b);
    }
    if let Some(dk) = dkey {
        for &b in dk.as_bytes() {
            eat(b);
        }
    }
    h
}

/// The DAOS engine/client cost model (host-core calibrated; scaled by the
/// executing node's core class).
#[derive(Copy, Clone, Debug)]
pub struct DaosCostModel {
    /// Server-side RPC handling per I/O (CaRT/Mercury decode, dispatch).
    pub server_per_rpc: SimDuration,
    /// VOS index lookup/insert per I/O.
    pub vos_per_op: SimDuration,
    /// Service xstreams per target (DAOS binds targets to xstreams).
    pub xstreams_per_target: usize,
    /// Client-side cost per I/O on the issuing job's core. This is the
    /// full libdfs/libdaos path (RPC pack, EQ poll, completion): ~11 µs on
    /// a host core. On BlueField-3 ARM it scales to ~20 µs, which is the
    /// calibrated source of the paper's 20-40 % DPU small-I/O gap under
    /// RDMA (Fig. 5d).
    pub client_per_op: SimDuration,
    /// Values at or below this size are stored in SCM; larger ones go to
    /// NVMe (the DAOS media-selection policy).
    pub scm_threshold: u64,
    /// Extra multiplier on `client_per_op` when the client runs on DPU ARM
    /// cores, *on top of* the generic core-speed scaling. The libdaos/libdfs
    /// path is pointer-chasing and cache-miss heavy; the A78AE's smaller
    /// last-level cache and lack of DDIO hit it harder than streaming code.
    /// 1.35× lands the Fig. 5d result: DPU RDMA small-I/O trails the host
    /// by 20–40 % while still beating DPU TCP by ≥2×.
    pub dpu_client_overhead: f64,
    /// Client-side CRC32C cost in picoseconds per byte, calibrated for a
    /// host core (hardware `crc32` instructions stream at ~16 GB/s) and
    /// scaled by the executing core class. Charged only by the
    /// DPU-offloaded client (update checksum + fetch verify on the ARM
    /// cores): the host-placement control arm is pinned bit-identical to
    /// its pre-offload behaviour, whose CRC work lives engine-side — so
    /// the asymmetry is deliberate and conservative against the DPU.
    pub crc_ps_per_byte: u64,
    /// Fraction of `client_per_op` that is *completion-side* work (EQ
    /// poll, CQ reap, callback dispatch). The serial client pays the whole
    /// cost synchronously per op; the pipelined client ([`OpRing`]) books
    /// only the submission fraction `1 - client_completion_frac` on the
    /// job core and charges the completion fraction as retire latency —
    /// batched CQ reaping amortizes the core occupancy across in-flight
    /// ops, which is exactly how real libdaos EQ polling scales with QD.
    ///
    /// [`OpRing`]: crate::pipeline::OpRing
    pub client_completion_frac: f64,
}

impl DaosCostModel {
    /// Default calibration.
    pub fn default_model() -> Self {
        DaosCostModel {
            server_per_rpc: SimDuration::from_nanos(3_000),
            vos_per_op: SimDuration::from_nanos(2_000),
            xstreams_per_target: 4,
            client_per_op: SimDuration::from_nanos(11_000),
            scm_threshold: 4096,
            dpu_client_overhead: 1.35,
            crc_ps_per_byte: 62,
            client_completion_frac: 0.35,
        }
    }
}

/// DAOS-layer errors, the model's `DER_*` codes: each cause is a value,
/// never a message. A lower layer's error is carried as itself through
/// its `From` impl below, so callers and tests match variants.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DaosError {
    /// Unknown pool/container/object handle, or a tenant the DPU lacks.
    NoSuchEntity,
    /// Fetch of a range that was never written.
    NotFound,
    /// Stored checksum did not match the data (media corruption detected,
    /// or a chain's CRC32C check rejected the bytes that landed).
    ChecksumMismatch,
    /// The SCM tier is out of space.
    ScmFull,
    /// The NVMe tier is out of space.
    NvmeFull,
    /// The request carried a stale pool-map revision — or was addressed to
    /// a slot the current map no longer places the object on — and the
    /// engine *fenced* it instead of serving a possibly-misrouted op.
    /// Carries the engine's current revision so the client can tell how
    /// far behind its cached map is before refreshing.
    StaleMap {
        /// The fencing engine's current pool-map revision.
        current: u64,
    },
    /// The fabric refused a connection or an op (verbs rejections: `Verbs`).
    Fabric(FabricError),
    /// The verbs layer rejected an access, a registration or a chain.
    Verbs(VerbsError),
    /// The host↔DPU control channel failed (`Timeout`: a wedged lane).
    Control(ControlError),
    /// The SCM pool refused an access.
    Pmem(PmemError),
    /// The NVMe device rejected a command.
    Nvme(NvmeError),
    /// An I/O larger than the job's registered staging buffer.
    StagingOverflow {
        /// Bytes the op moves.
        len: u64,
        /// The staging buffer's size.
        cap: u64,
    },
    /// No replica of the object is placed on a healthy engine.
    NoReplica,
    /// The client holds fewer connections than the pool has engines.
    NotConnected {
        /// Connections the client holds.
        conns: usize,
        /// Engines in the pool.
        engines: usize,
    },
    /// A fetch or an update leg spent its retry-ladder budget.
    RetryExhausted {
        /// Attempts made: the budget plus the first try.
        attempts: u32,
    },
    /// A second engine kill before the pending rebuild ran.
    RebuildPending,
}

impl From<FabricError> for DaosError {
    fn from(e: FabricError) -> Self {
        match e {
            FabricError::Verbs(v) => v.into(),
            e => DaosError::Fabric(e),
        }
    }
}

impl From<VerbsError> for DaosError {
    fn from(e: VerbsError) -> Self {
        match e {
            VerbsError::CrcMismatch => DaosError::ChecksumMismatch,
            e => DaosError::Verbs(e),
        }
    }
}

impl From<ControlError> for DaosError {
    fn from(e: ControlError) -> Self {
        DaosError::Control(e)
    }
}

impl From<PmemError> for DaosError {
    fn from(e: PmemError) -> Self {
        match e {
            PmemError::OutOfSpace => DaosError::ScmFull,
            e => DaosError::Pmem(e),
        }
    }
}

impl From<NvmeError> for DaosError {
    fn from(e: NvmeError) -> Self {
        DaosError::Nvme(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_class_round_trips() {
        assert_eq!(ObjectId::new(ObjClass::S1, 42).class(), ObjClass::S1);
        assert_eq!(ObjectId::new(ObjClass::Sx, 42).class(), ObjClass::Sx);
        assert_eq!(ObjectId::new(ObjClass::Sx, 42).lo, 42);
    }

    #[test]
    fn placement_hash_is_stable_and_dkey_sensitive() {
        let oid = ObjectId::new(ObjClass::Sx, 7);
        let a = placement_hash(&oid, Some(&DKey::from_u64(0)));
        let b = placement_hash(&oid, Some(&DKey::from_u64(1)));
        let a2 = placement_hash(&oid, Some(&DKey::from_u64(0)));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(placement_hash(&oid, None), a);
    }

    #[test]
    fn dkeys_spread_across_four_targets() {
        // The Fig. 5 four-SSD scaling requires chunk dkeys to hit all
        // targets with reasonable balance.
        let oid = ObjectId::new(ObjClass::Sx, 123);
        let mut counts = [0u32; 4];
        for chunk in 0..4000u64 {
            let t = (placement_hash(&oid, Some(&DKey::from_u64(chunk))) % 4) as usize;
            counts[t] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "imbalanced {counts:?}");
        }
    }

    #[test]
    fn small_keys_are_inline_and_content_equal() {
        assert!(DKey::from_u64(u64::MAX).0.is_inline());
        assert!(DKey::from_str(".").0.is_inline());
        assert!(AKey::from_str("superblock").0.is_inline());
        assert!(DKey::from_str("sixteen-bytes-ok").0.is_inline());
        let long = DKey::from_str("seventeen-bytes-x");
        assert!(!long.0.is_inline());
        // Equality/ordering are over bytes regardless of representation.
        let heap_form = DKey(KeyBytes::Heap(Bytes::copy_from_slice(b"abc")));
        assert_eq!(heap_form, DKey::from_str("abc"));
        assert!(DKey::from_str("a") < DKey::from_str("ab"));
        assert!(DKey::from_str("ab") < DKey::from_str("b"));
        assert_eq!(DKey::from_u64(7).as_bytes(), &7u64.to_le_bytes());
    }

    #[test]
    fn keys_wire_round_trip() {
        let keys = [
            DKey::from_u64(42),
            DKey::from_str("."),
            DKey::from_str("a-name-well-beyond-sixteen-bytes.bin"),
        ];
        let mut w = WireWriter::new();
        for k in &keys {
            k.encode(&mut w);
        }
        AKey::from_str("data").encode(&mut w);
        let mut r = WireReader::new(w.finish());
        for k in &keys {
            assert_eq!(&DKey::decode(&mut r).unwrap(), k);
        }
        let a = AKey::decode(&mut r).unwrap();
        assert_eq!(a, AKey::from_str("data"));
        assert!(a.0.is_inline(), "short decoded keys must land inline");
    }

    #[test]
    fn epoch_ordering() {
        assert!(Epoch(1) < Epoch(2));
        assert!(Epoch(u64::MAX - 1) < Epoch::LATEST);
    }

    #[test]
    fn cost_model_defaults_sane() {
        let m = DaosCostModel::default_model();
        assert!(m.client_per_op > m.server_per_rpc);
        assert_eq!(m.scm_threshold, 4096);
        assert!(m.client_completion_frac > 0.0 && m.client_completion_frac < 1.0);
    }

    #[test]
    fn lower_layer_errors_convert_by_one_rule() {
        let v = VerbsError::RkeyRevoked;
        assert_eq!(DaosError::from(FabricError::Verbs(v)), DaosError::Verbs(v));
        assert_eq!(DaosError::from(v), DaosError::Verbs(v));
        assert_eq!(
            DaosError::from(FabricError::NotRdma),
            DaosError::Fabric(FabricError::NotRdma)
        );
        let crc = VerbsError::CrcMismatch;
        assert_eq!(DaosError::from(crc), DaosError::ChecksumMismatch);
        assert_eq!(
            DaosError::from(FabricError::Verbs(crc)),
            DaosError::ChecksumMismatch
        );
        assert_eq!(DaosError::from(PmemError::OutOfSpace), DaosError::ScmFull);
        assert_eq!(
            DaosError::from(PmemError::BadAddress),
            DaosError::Pmem(PmemError::BadAddress)
        );
    }
}
