//! One tenant's lane of the offloaded client, and the one place its read
//! cache is consulted.
//!
//! Every client path (serial, batch fan-out, op ring) probes before it
//! issues and completes after, through the helpers here, and always on the
//! lane's *cached* pool-map revision — the revision the ring routes by,
//! and the only one a client can know before a push lands.

use bytes::Bytes;
use ros2_daos::{ClientOp, DaosClient, EngineCluster, Epoch, RecordVersion};
use ros2_sim::{SimDuration, SimTime};

use crate::cache::{CacheKey, ReadCache, RecordKey};

/// One tenant's slice of the offloaded client: a dedicated data-plane
/// [`DaosClient`] (own PD, QPs, staging buffers) plus its control session
/// and rkey deadlines.
pub(crate) struct TenantLane {
    pub(crate) name: String,
    pub(crate) daos: DaosClient,
    pub(crate) rkey_scope: SimDuration,
    /// Per-local-job rkey deadline (RDMA transports; `SimTime::MAX` on
    /// TCP, where no memory is registered).
    pub(crate) rkey_deadline: Vec<SimTime>,
    /// Doorbell-channel session for this tenant.
    pub(crate) session: u64,
    /// This tenant's slice of the DPU read cache ([`ReadCache`]), when
    /// enabled. Per-lane, never shared — cached bytes stay inside the
    /// tenant's isolation boundary like its PD and staging buffers.
    pub(crate) cache: Option<ReadCache>,
    /// Per-op data-plane start instants of the queue being submitted,
    /// written by `DpuClient::queue_start`. Kept in the lane so the
    /// one-op queues fio submits allocate nothing for it.
    pub(crate) starts: Vec<SimTime>,
}

/// What the authority says about a record right now: the lane's cached
/// pool-map revision and the record's arrival version at the leader that
/// map names — the pair a cache group is stamped with.
type Stamp = (u64, RecordVersion);

/// The authority's reading for `record` as `daos` sees it at `now` (any
/// due map delivery applied first, as a ring submission would). `None`
/// when there is nothing safe to validate against: the cached route is
/// degraded, its leader is unreachable, or the leader fences the cached
/// revision as stale.
fn authority(
    daos: &mut DaosClient,
    now: SimTime,
    cluster: &EngineCluster,
    record: &RecordKey,
) -> Option<Stamp> {
    let (leader, degraded, map_version) = daos.probe_route(now, cluster, &record.oid);
    if degraded {
        return None;
    }
    let version =
        cluster.record_version(leader?, map_version, record.oid, &record.dkey, &record.akey)?;
    Some((map_version, version))
}

/// What the read cache decided about one op before it was issued, and
/// what it needs back once the op completes.
#[derive(Default)]
pub(crate) enum Probe {
    /// Nothing to do at completion: the cache is off, or the op is a
    /// snapshot read, a fetch of a record the same call writes, a fetch
    /// with no authority to validate against, or an update of a record
    /// with no current group.
    #[default]
    Skip,
    /// Served from DPU DRAM; the op is never issued.
    Hit(Bytes),
    /// Missed under this reading; fill from a leader-path completion.
    Miss(CacheKey, Stamp),
    /// An update of a record whose group was current, under this map
    /// revision, just before it was issued: its position and payload.
    Write(CacheKey, Bytes, u64),
}

impl Probe {
    pub(crate) fn is_hit(&self) -> bool {
        matches!(self, Probe::Hit(_))
    }
}

impl TenantLane {
    /// A latest-epoch fetch at `key` is about to be issued at `now`.
    pub(crate) fn probe_fetch(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        key: CacheKey,
    ) -> Probe {
        let Some(cache) = self.cache.as_mut() else {
            return Probe::Skip;
        };
        let Some((map_version, version)) = authority(&mut self.daos, now, cluster, &key.record)
        else {
            cache.bypass();
            return Probe::Skip;
        };
        match cache.probe(&key, map_version, version) {
            Some(data) => Probe::Hit(data),
            None => Probe::Miss(key, (map_version, version)),
        }
    }

    /// An update carrying `data` at `at` is about to be issued at `now`.
    /// A record with nothing resident costs one index lookup — no
    /// authority is asked, nothing is remembered (no write-allocate). A
    /// group nobody can vouch for loses the write's range here, before the
    /// write is issued, and lives or dies by its next probe.
    pub(crate) fn probe_update(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        at: CacheKey,
        data: &Bytes,
    ) -> Probe {
        let Some(cache) = self.cache.as_mut().filter(|c| c.holds(&at.record)) else {
            return Probe::Skip;
        };
        let current = authority(&mut self.daos, now, cluster, &at.record)
            .filter(|&(map_version, version)| cache.revalidate(&at.record, map_version, version));
        match current {
            Some((map_version, _)) => Probe::Write(at, data.clone(), map_version),
            None => {
                cache.punch(&at);
                Probe::Skip
            }
        }
    }

    /// The op behind `probe` completed. `clean` says it succeeded on its
    /// first attempt over the non-degraded route the probe saw; `fetched`
    /// is a fetch's payload. A clean miss fills. A clean update, under a
    /// map revision that has not moved since it was probed, write-updates
    /// its group to the version the authority reads now — nothing else ran
    /// in between, so that is the version the update produced. Any other
    /// update punches its range.
    pub(crate) fn complete(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        probe: Probe,
        clean: bool,
        fetched: Option<&Bytes>,
    ) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        match probe {
            Probe::Miss(key, (map_version, version)) => {
                if let (true, Some(data)) = (clean, fetched) {
                    cache.fill(key, data.clone(), map_version, version);
                }
            }
            Probe::Write(at, data, probed_under) => {
                let after = (clean.then(|| authority(&mut self.daos, now, cluster, &at.record)))
                    .flatten()
                    .filter(|&(map_version, _)| map_version == probed_under);
                match after {
                    Some((map_version, version)) => {
                        cache.write_update(&at, &data, map_version, version)
                    }
                    None => {
                        cache.punch(&at);
                    }
                }
            }
            Probe::Skip | Probe::Hit(_) => {}
        }
    }

    /// [`Self::probe_fetch`] / [`Self::probe_update`] over a queue, one
    /// probe per op (none at all with the cache off). A fetch of a record
    /// the same queue writes neither probes nor fills: the queue's own
    /// execution order — not the cache — decides its bytes. Snapshot reads
    /// address history the cache does not version, so they bypass it too.
    pub(crate) fn probe_queue(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        ops: &[ClientOp],
    ) -> Vec<Probe> {
        if self.cache.is_none() {
            return Vec::new();
        }
        let written = |r: &RecordKey| {
            ops.iter().any(|op| {
                matches!(op, ClientOp::Update { oid, dkey, akey, .. }
                    if (oid, dkey, akey) == (&r.oid, &r.dkey, &r.akey))
            })
        };
        let probe = |op| {
            let key = CacheKey::of(op);
            match op {
                ClientOp::Update { data, .. } => self.probe_update(now, cluster, key, data),
                ClientOp::Fetch { epoch, .. }
                    if *epoch == Epoch::LATEST && !written(&key.record) =>
                {
                    self.probe_fetch(now, cluster, key)
                }
                ClientOp::Fetch { .. } => Probe::Skip,
            }
        };
        ops.iter().map(probe).collect()
    }
}
