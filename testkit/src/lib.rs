//! The client suites' one test kit: the world the DAOS and DPU suites
//! build ([`world`], host-resident or offloaded), payloads that name the
//! write they came from ([`stamped`]), the history oracle ([`Oracle`])
//! every DAOS answer is checked against, whichever client gave it, the
//! one history tape ([`Tape`]) every DAOS and DPU property schedule is
//! drawn as and [`sweep`] checks, and the DFS shadow ([`DfsShadow`])
//! every DFS answer is.
//!
//! The oracle keeps a shadow of each record's writes and holds a suite to
//! four rules:
//!
//! 1. No op fails, unless the suite armed a fault that can spend a retry
//!    budget ([`Oracle::lossy`]); then an op fails only as
//!    `DaosError::RetryExhausted` with `attempts == budget + 1`. A fetch
//!    may fail `ChecksumMismatch` only for a record the suite rotted
//!    ([`Oracle::rot`]) and no scrub has repaired since
//!    ([`Oracle::repair`]).
//! 2. No acked write is lost: every fetch a suite settles, and a read-back
//!    of every record the shadow holds, returns the shadow's answer.
//! 3. Every live replica on the current map returns those same bytes from
//!    its engine's `fetch`, stamped at the map's revision.
//! 4. Every armed kill or black hole is observed: the suite asserts the
//!    fence, expired deadline or re-armed leg it shows in.
//!
//! Epochs follow the epoch-at-submission contract (DESIGN §11): each
//! update takes the next epoch in submission order, acked or not, so a
//! `LATEST` or past-epoch fetch has exactly one right answer. A record a
//! failed write touched has none: any bytes or `NotFound` pass for it,
//! and rule 1 still holds for every other error.
//!
//! The kit is a dev-dependency of `ros2_daos`, `ros2_dpu`, `ros2_fio` and
//! the root `ros2` package, so its types are the ones those packages'
//! integration suites see. A crate's own unit tests cannot use it: they
//! would see a second copy of the crate.

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;
use ros2_daos::{
    AKey, Arrival, ClientOp, ClientOpResult, ConnectSpec, DKey, DaosClient, DaosCostModel,
    DaosError, EngineCluster, Epoch, FetchOp, ObjectClient, ObjectId, RecordKey, UpdateOp,
    ValueKind,
};
use ros2_dpu::{default_control, DpuAgent, DpuClient, DpuTenantSpec};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, Transport};
use ros2_nvme::DataMode;
use ros2_sim::SimTime;
use ros2_verbs::{Expiry, MemoryDomain, NodeId};

mod dfs;
mod tape;
pub use dfs::{DfsShadow, FsError};
pub use tape::{sweep, Arm, Contrast, Coverage, Event, Op, Run, Tape};

const LATEST: Epoch = Epoch::LATEST;

/// The container every kit world creates and connects to.
pub const CONT: &str = "cont0";

/// The values the suites' worlds differ in. Everything else is the same
/// everywhere: 48-core host client nodes, ConnectX-6 NICs at 100 Gb/s on
/// the host and storage nodes, 8 GiB of registrable memory a node, engines
/// from [`EngineCluster::assemble`] (Stored-mode SSDs, 256 MiB of SCM),
/// container [`CONT`], 4 MiB staging buffers.
pub struct World {
    pub engines: usize,
    /// Replication factor.
    pub rf: usize,
    /// Jobs per client.
    pub jobs: usize,
    /// SSDs per engine.
    pub ssds: usize,
    /// Cores per storage node.
    pub storage_cores: usize,
    /// The fabric's seed.
    pub seed: u64,
    pub clients: usize,
    pub transport: Transport,
}

/// `engines` engines at replication factor `rf` behind one single-job
/// client, over RDMA: four SSDs an engine, 64-core storage nodes, fabric
/// seed 23. Override a field with `World { ssds: 2, ..world(4, 2) }`.
pub fn world(engines: usize, rf: usize) -> World {
    World {
        engines,
        rf,
        jobs: 1,
        ssds: 4,
        storage_cores: 64,
        seed: 23,
        clients: 1,
        transport: Transport::Rdma,
    }
}

impl World {
    /// Builds a one-client world.
    pub fn build(self) -> (Fabric, EngineCluster, DaosClient) {
        assert_eq!(
            self.clients, 1,
            "a multi-client world comes from build_clients"
        );
        let (fabric, cluster, mut clients) = self.build_clients();
        (fabric, cluster, clients.remove(0))
    }

    /// Builds the world: host client `c` on `NodeId(c)`, storage node `i`
    /// on `NodeId(clients + i)`, staging in host DRAM.
    pub fn build_clients(self) -> (Fabric, EngineCluster, Vec<DaosClient>) {
        let hosts = (0..self.clients)
            .map(|c| match self.clients {
                1 => node("client".into(), 48),
                _ => node(format!("client{c}"), 48),
            })
            .collect();
        let (mut fabric, cluster) = self.storage(hosts);
        let clients = (0..self.clients)
            .map(|c| {
                let spec = self.connect(NodeId(c as u32), MemoryDomain::HostDram);
                DaosClient::connect_scoped_multi(&mut fabric, &spec, "tenant", Expiry::Never)
                    .unwrap()
            })
            .collect();
        (fabric, cluster, clients)
    }

    /// Builds the offloaded world: one BlueField-3 client on `NodeId(0)`,
    /// staging in DPU DRAM, behind one agent over `default_control(3)`,
    /// with a lane per tenant (connect seed 7); storage node `i` on
    /// `NodeId(1 + i)`. A suite sets the client's read-cache carve or
    /// retry policy on the client it gets back.
    pub fn build_offloaded(
        self,
        tenants: Vec<DpuTenantSpec>,
    ) -> (Fabric, EngineCluster, DpuClient) {
        assert_eq!(self.clients, 1, "an offloaded world has one DPU client");
        let (mut fabric, cluster) = self.storage(vec![NodeSpec::bluefield3()]);
        let dpu = NodeId(0);
        let agent = DpuAgent::new(dpu, 30 << 30, default_control(3));
        let spec = self.connect(dpu, MemoryDomain::DpuDram);
        let client = DpuClient::connect_cluster(&mut fabric, spec, agent, tenants, 7).unwrap();
        (fabric, cluster, client)
    }

    /// The fabric over `clients` and the storage nodes after them, and the
    /// engines on those, with [`CONT`] created.
    fn storage(&self, mut clients: Vec<NodeSpec>) -> (Fabric, EngineCluster) {
        clients.extend((0..self.engines).map(|i| node(format!("storage{i}"), self.storage_cores)));
        let fabric = Fabric::new(self.transport, clients, self.seed);
        let mut cluster = EngineCluster::assemble(
            self.servers(),
            self.rf,
            self.ssds,
            DataMode::Stored,
            256 << 20,
            DaosCostModel::default_model(),
            CoreClass::HostX86,
        );
        cluster.cont_create(CONT).unwrap();
        (fabric, cluster)
    }

    fn servers(&self) -> Vec<NodeId> {
        (self.clients..self.clients + self.engines)
            .map(|n| NodeId(n as u32))
            .collect()
    }

    /// How a client on `node` connects: to every storage node, with
    /// [`World::jobs`] 4 MiB staging buffers in `domain`.
    fn connect(&self, node: NodeId, domain: MemoryDomain) -> ConnectSpec {
        ConnectSpec {
            node,
            servers: self.servers(),
            cont: CONT.into(),
            jobs: self.jobs,
            buf_len: 4 << 20,
            domain,
            model: DaosCostModel::default_model(),
        }
    }
}

/// A host or storage node: `cores` x86 cores, a ConnectX-6 at 100 Gb/s
/// and 8 GiB of registrable memory.
fn node(name: String, cores: usize) -> NodeSpec {
    NodeSpec {
        name,
        cpu: CpuComplement {
            class: CoreClass::HostX86,
            cores,
        },
        nic: NicModel::connectx6(),
        port_rate: gbps(100),
        mem_budget: 8 << 30,
        dpu_tcp_rx: None,
    }
}

/// `len` bytes that write `seq` puts at array offset `offset` of `oid` (0
/// for a single value). Byte `i` is a hash of `(oid, offset + i, seq)`, so
/// bytes from another object, offset or write never pass for these, and
/// the oracle can say which write a wrong byte came from.
pub fn stamped(oid: ObjectId, offset: u64, seq: u64, len: usize) -> Bytes {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let base = mix(oid.hi ^ mix(oid.lo ^ mix(seq)));
    // One hash per aligned 8-byte word of the object's address space.
    let first = offset & !7;
    let mut words = Vec::with_capacity(len + 16);
    for word in (first..offset + len as u64).step_by(8) {
        let hash = mix(base ^ (word >> 3).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        words.extend_from_slice(&hash.to_le_bytes());
    }
    let skip = (offset - first) as usize;
    Bytes::from(words).slice(skip..skip + len)
}

/// An update of `len` stamped bytes, write `seq`, at array offset 0 of
/// `oid`'s record `(dkey, "data")`.
pub fn write(oid: ObjectId, dkey: u64, len: usize, seq: u64) -> ClientOp {
    ClientOp::Update(UpdateOp {
        key: array_key(oid, dkey),
        kind: ValueKind::Array { offset: 0 },
        data: stamped(oid, 0, seq, len),
    })
}

/// A `LATEST` fetch of `len` bytes at array offset 0 of `oid`'s record
/// `(dkey, "data")`.
pub fn read(oid: ObjectId, dkey: u64, len: u64) -> ClientOp {
    ClientOp::Fetch(FetchOp {
        key: array_key(oid, dkey),
        kind: ValueKind::Array { offset: 0 },
        epoch: Epoch::LATEST,
        len,
    })
}

/// `oid`'s record `(dkey, "data")`, the one akey the suites write.
pub fn array_key(oid: ObjectId, dkey: u64) -> RecordKey {
    RecordKey {
        oid,
        dkey: DKey::from_u64(dkey),
        akey: AKey::from_str("data"),
    }
}

/// Runs `op` start to finish through [`ObjectClient::update`] /
/// [`ObjectClient::fetch`] on job 0: the reference arm a ring submission
/// must be functionally identical to.
pub fn serial_op(
    c: &mut dyn ObjectClient,
    f: &mut Fabric,
    cl: &mut EngineCluster,
    now: SimTime,
    op: ClientOp,
) -> ClientOpResult {
    let RecordKey { oid, dkey, akey } = op.key().clone();
    match op {
        ClientOp::Update(u) => {
            ClientOpResult::Update(c.update(f, cl, now, 0, oid, dkey, akey, u.kind, u.data))
        }
        ClientOp::Fetch(r) => {
            let (kind, epoch, len) = (r.kind, r.epoch, r.len);
            ClientOpResult::Fetch(c.fetch(f, cl, now, 0, oid, dkey, akey, kind, epoch, len))
        }
    }
}

/// The client-visible completion instant of a successful op.
pub fn instant(r: &ClientOpResult) -> Option<SimTime> {
    match r {
        ClientOpResult::Update(Ok(at)) | ClientOpResult::Fetch(Ok((_, at))) => Some(*at),
        _ => None,
    }
}

/// One write a record's history holds: the epoch it committed at, its
/// array offset (0 for a single value) and its bytes.
#[derive(Clone, Debug)]
pub struct Written {
    pub epoch: u64,
    pub at: u64,
    pub data: Bytes,
}

/// Paints every version visible at `epoch` over a zeroed window, oldest
/// first in `(epoch, arrival)` order (the stable sort keeps arrival order
/// within an epoch). Returns the bytes and the layers: each painting
/// write's index with the window range it painted, bottom first.
pub fn paint(
    history: &[Written],
    epoch: u64,
    at: u64,
    len: u64,
) -> (Vec<u8>, Vec<(usize, Range<usize>)>) {
    let mut order: Vec<usize> = (0..history.len())
        .filter(|&i| history[i].epoch <= epoch)
        .collect();
    order.sort_by_key(|&i| history[i].epoch);
    let mut bytes = vec![0u8; len as usize];
    let mut layers = Vec::new();
    for i in order {
        let w = &history[i];
        let from = w.at.max(at);
        let to = (w.at + w.data.len() as u64).min(at + len);
        if from < to {
            let (a, b) = ((from - at) as usize, (to - at) as usize);
            bytes[a..b].copy_from_slice(&w.data[(from - w.at) as usize..(to - w.at) as usize]);
            layers.push((i, a..b));
        }
    }
    (bytes, layers)
}

/// One record's shadow: its single values and array extents in arrival
/// order, whether a failed write touched it, and whether a replica of it
/// is rotted and not yet repaired.
#[derive(Default)]
struct Record {
    singles: Vec<Written>,
    extents: Vec<Written>,
    failed: bool,
    rotted: bool,
}

/// The history oracle: a shadow of every record the suite's ops touched,
/// settled in submission order, and the rules of the module doc.
pub struct Oracle {
    budget: u32,
    /// Whether a spent budget is an accepted outcome (rule 1).
    lossy: bool,
    /// The epoch the last settled update took.
    epoch: u64,
    records: BTreeMap<RecordKey, Record>,
    /// Ops settled as a spent retry budget (rule 1).
    pub failed: u64,
}

impl Oracle {
    /// An empty shadow for a client whose retry budget is `budget`, in a
    /// suite that arms no fault that can spend it: every op must succeed.
    pub fn new(budget: u32) -> Self {
        Oracle {
            budget,
            lossy: false,
            epoch: 0,
            records: BTreeMap::new(),
            failed: 0,
        }
    }

    /// [`Oracle::new`] for a suite that arms a fault that can spend the
    /// budget: an op may fail, as a spent budget only.
    pub fn lossy(budget: u32) -> Self {
        Oracle {
            lossy: true,
            ..Oracle::new(budget)
        }
    }

    /// The shadow's answer to `read`: the newest single value at or below
    /// its epoch, whole whatever length was asked for (`NotFound` if there
    /// is none), or the array window painted newest-`(epoch, arrival)`-wins
    /// with holes as zeros. `None` when a failed write touched the record.
    pub fn expect(&self, read: &FetchOp) -> Option<Result<Bytes, DaosError>> {
        let none = Record::default();
        let rec = self.records.get(&read.key).unwrap_or(&none);
        let epoch = read.epoch.0;
        Some(match read.kind {
            _ if rec.failed => return None,
            ValueKind::Single => rec
                .singles
                .iter()
                .filter(|w| w.epoch <= epoch)
                .max_by_key(|w| w.epoch)
                .map(|w| w.data.clone())
                .ok_or(DaosError::NotFound),
            ValueKind::Array { offset } => {
                Ok(paint(&rec.extents, epoch, offset, read.len).0.into())
            }
        })
    }

    /// Settles one op, in submission order. An update takes the next
    /// epoch; acked, it joins its record's history, failed, it makes the
    /// record unreadable to the oracle. A fetch must return the shadow's
    /// answer (rule 2). Any other failure breaks rule 1.
    pub fn settle(&mut self, op: &ClientOp, result: &ClientOpResult) {
        match (op, result) {
            (ClientOp::Update(u), ClientOpResult::Update(r)) => {
                self.epoch += 1;
                let at = match u.kind {
                    ValueKind::Single => 0,
                    ValueKind::Array { offset } => offset,
                };
                let (epoch, data) = (self.epoch, u.data.clone());
                let written = Written { epoch, at, data };
                let rec = self.records.entry(u.key.clone()).or_default();
                match (r, u.kind) {
                    (Ok(_), ValueKind::Single) => rec.singles.push(written),
                    (Ok(_), ValueKind::Array { .. }) => rec.extents.push(written),
                    (Err(e), _) => {
                        rec.failed = true;
                        self.spent(op, *e);
                    }
                }
            }
            (ClientOp::Fetch(read), ClientOpResult::Fetch(r)) => {
                match r.as_ref().map(|(b, _)| b.clone()).map_err(|e| *e) {
                    Err(e @ DaosError::RetryExhausted { .. }) => self.spent(op, e),
                    got => self.check(read, got, "rule 2: the fetch"),
                }
            }
            _ => panic!("{:?} settled with a result of the other kind", op.key()),
        }
    }

    /// Settles a tape and its results, both in submission order.
    pub fn settle_all<'a>(
        &mut self,
        tape: impl IntoIterator<Item = &'a ClientOp>,
        results: &[ClientOpResult],
    ) {
        let tape: Vec<&ClientOp> = tape.into_iter().collect();
        assert_eq!(tape.len(), results.len(), "one result per op");
        for (op, r) in tape.into_iter().zip(results) {
            self.settle(op, r);
        }
    }

    /// The epoch the last settled update took.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records an array extent that reached the replicas around the
    /// client, tagged `epoch` by its writer: it joins `key`'s history
    /// after every write settled so far, and takes no epoch of its own.
    pub fn foreign(&mut self, key: RecordKey, epoch: Epoch, at: u64, data: Bytes) {
        let epoch = epoch.0;
        let written = Written { epoch, at, data };
        self.records.entry(key).or_default().extents.push(written);
    }

    /// Declares that the suite corrupted a replica of `key`: until
    /// [`Oracle::repair`], a fetch of it may fail `ChecksumMismatch`.
    pub fn rot(&mut self, key: RecordKey) {
        self.records.entry(key).or_default().rotted = true;
    }

    /// Declares that a scrub repaired `key`'s rotted replica.
    pub fn repair(&mut self, key: &RecordKey) {
        self.records.entry(key.clone()).or_default().rotted = false;
    }

    /// Writes 16 KiB to each of `oid`'s records `(0..n, "data")`, write `i`
    /// to dkey `i`, as serial calls one after another from time zero, and
    /// returns the last ack.
    pub fn preamble(
        &mut self,
        c: &mut dyn ObjectClient,
        f: &mut Fabric,
        cl: &mut EngineCluster,
        oid: ObjectId,
        n: u64,
    ) -> SimTime {
        (0..n).fold(SimTime::ZERO, |t, i| {
            let r = self.serial(c, f, cl, t, write(oid, i, 16 << 10, i));
            r.into_update().expect("a preamble write fails")
        })
    }

    /// Runs `op` as the serial call at `now` and settles it.
    pub fn serial(
        &mut self,
        c: &mut dyn ObjectClient,
        f: &mut Fabric,
        cl: &mut EngineCluster,
        now: SimTime,
        op: ClientOp,
    ) -> ClientOpResult {
        let r = serial_op(c, f, cl, now, op.clone());
        self.settle(&op, &r);
        r
    }

    /// Rules 2 and 3 over the world as it stands at `at`: every record the
    /// shadow holds and no failed write touched reads back at `LATEST`
    /// through the serial call, and from every live replica's engine.
    pub fn check_world(
        &self,
        c: &mut dyn ObjectClient,
        f: &mut Fabric,
        cl: &mut EngineCluster,
        at: SimTime,
    ) {
        for (key, rec) in self.records.iter().filter(|(_, r)| !r.failed) {
            let single = rec
                .singles
                .last()
                .map(|w| (ValueKind::Single, w.data.len() as u64));
            let end = rec.extents.iter().map(|w| w.at + w.data.len() as u64).max();
            let array = end.map(|end| (ValueKind::Array { offset: 0 }, end));
            for (kind, len) in single.into_iter().chain(array) {
                let read = FetchOp {
                    key: key.clone(),
                    kind,
                    epoch: LATEST,
                    len,
                };
                let got = serial_op(c, f, cl, at, ClientOp::Fetch(read.clone())).into_fetch();
                self.check(&read, got.map(|(b, _)| b), "rule 2: the read-back");
                let (oid, dkey, akey) = (key.oid, &key.dkey, &key.akey);
                let arrival = Arrival {
                    stamp: cl.map().version(),
                    at,
                };
                for eng in cl.map().route(&oid).set.iter() {
                    let got = cl
                        .engine_mut(eng)
                        .fetch(arrival, CONT, oid, dkey, akey, kind, LATEST, len);
                    self.check(
                        &read,
                        got.map(|(b, _)| b),
                        &format!("rule 3: replica {eng}"),
                    );
                }
            }
        }
    }

    /// Rule 1: `e` is a spent retry budget, in a lossy oracle.
    fn spent(&mut self, op: &ClientOp, e: DaosError) {
        match e {
            DaosError::RetryExhausted { attempts } if self.lossy && attempts == self.budget + 1 => {
                self.failed += 1
            }
            e => panic!(
                "rule 1: {:?} failed with {e:?} (budget {}, failure allowed: {})",
                op.key(),
                self.budget,
                self.lossy
            ),
        }
    }

    /// Holds `got` to the shadow's answer to `read`. A `ChecksumMismatch`
    /// passes for a rotted record only. Where the shadow refuses, the
    /// failed write may or may not have landed: any bytes or `NotFound`
    /// pass, any other error breaks rule 1.
    fn check(&self, read: &FetchOp, got: Result<Bytes, DaosError>, what: &str) {
        if got == Err(DaosError::ChecksumMismatch) {
            let key = &read.key;
            let rotted = self.records.get(key).is_some_and(|r| r.rotted);
            assert!(rotted, "rule 1: {what} of {key:?} failed ChecksumMismatch");
            return;
        }
        let Some(want) = self.expect(read) else {
            match got {
                Ok(_) | Err(DaosError::NotFound) => return,
                Err(e) => panic!("rule 1: {what} of {:?} failed with {e:?}", read.key),
            }
        };
        if got != want {
            let size = |r: &Result<Bytes, DaosError>| match r {
                Ok(b) => format!("{} B", b.len()),
                Err(e) => format!("{e:?}"),
            };
            let why = match (&want, &got) {
                (Ok(w), Ok(g)) => format!(": {}", self.blame(w, g)),
                _ => String::new(),
            };
            let (key, kind, epoch) = (&read.key, read.kind, read.epoch);
            let (got, want) = (size(&got), size(&want));
            panic!("{what} of {key:?} {kind:?} @ {epoch:?} returned {got}, the shadow holds {want}{why}");
        }
    }

    /// Names the write the first wrong byte of `got` came from: the one
    /// whose bytes hold the eight `got` bytes from there on.
    fn blame(&self, want: &[u8], got: &[u8]) -> String {
        let i = (0..got.len())
            .find(|&i| want.get(i) != Some(&got[i]))
            .unwrap_or(got.len());
        let Some(probe) = got.get(i..got.len().min(i + 8)).filter(|p| !p.is_empty()) else {
            return format!("it ends at byte {i}");
        };
        let writes = self
            .records
            .iter()
            .flat_map(|(k, r)| r.singles.iter().chain(&r.extents).map(move |w| (k, w)));
        for (key, w) in writes {
            if let Some(j) = w.data.windows(probe.len()).position(|win| win == probe) {
                return format!(
                    "byte {i} on came from byte {j} of the write at epoch {} to {key:?} (offset {}, {} B)",
                    w.epoch,
                    w.at,
                    w.data.len()
                );
            }
        }
        format!("byte {i} on ({probe:02x?}) came from no write the oracle saw")
    }
}
