//! Model check of the VOS overlay resolver, and the read-amplification
//! bound it exists for.
//!
//! The property test drives one `VosTarget` with random tapes of array
//! writes — overlapping, partially overlapping, duplicated (a rebuild
//! retry re-importing the same records) and arriving out of epoch order —
//! and checks every fetch, at `LATEST` and at random snapshot epochs,
//! against a flat byte array painted with every version in `(epoch,
//! arrival)` order. The oracle also knows which record owns each byte, so
//! it bounds the media work: a fetch may read no more NVMe blocks than its
//! segments (maximal runs of bytes served by one record) rounded out to
//! `CSUM_CHUNK` at their edges.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::vos::CSUM_CHUNK;
use ros2_daos::{
    AKey, DKey, DaosCostModel, DaosEngine, Epoch, ObjClass, ObjectId, ValueKind, VosTarget,
};
use ros2_hw::{CoreClass, NvmeModel, LBA_SIZE};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimTime};
use ros2_spdk::BdevLayer;

/// Array address space of the model (a dozen checksum chunks).
const SPACE: u64 = 48 << 10;
/// Records at or below this many bytes persist in SCM, larger ones on NVMe.
const SCM_THRESHOLD: u64 = 4096;
/// Epochs are drawn from `1..=MAX_EPOCH`, independent of arrival order.
const MAX_EPOCH: u64 = 12;

#[derive(Clone, Debug)]
enum Op {
    /// Writes `len` bytes of `fill`-derived data at `at`, tagged `epoch`.
    Write {
        epoch: u64,
        at: u64,
        len: u64,
        fill: u8,
    },
    /// Writes the `pick`-th earlier record (modulo the history) again.
    Rewrite { pick: usize },
    /// Fetches `[at, at+len)` at `epoch`; 0 stands for `Epoch::LATEST`.
    Fetch { epoch: u64, at: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..8,
        0u64..(MAX_EPOCH + 1),
        0u64..(SPACE - 1),
        1u64..20_000,
        any::<u8>(),
    )
        .prop_map(|(kind, epoch, at, len, fill)| {
            let len = len.min(SPACE - at);
            match kind {
                0..=3 => Op::Write {
                    epoch: epoch.max(1),
                    at,
                    len,
                    fill,
                },
                4 => Op::Rewrite { pick: at as usize },
                _ => Op::Fetch { epoch, at, len },
            }
        })
}

/// One record the target was handed, in arrival order.
struct Written {
    epoch: u64,
    at: u64,
    data: Vec<u8>,
}

/// The reference: paints every version visible at `epoch` over a zeroed
/// window, oldest first in `(epoch, arrival)` order (the stable sort keeps
/// arrival order within an epoch). Returns the bytes and, per byte, the
/// record that painted it last.
fn paint(history: &[Written], epoch: u64, at: u64, len: u64) -> (Vec<u8>, Vec<Option<usize>>) {
    let mut order: Vec<usize> = (0..history.len())
        .filter(|&i| history[i].epoch <= epoch)
        .collect();
    order.sort_by_key(|&i| history[i].epoch);
    let mut bytes = vec![0u8; len as usize];
    let mut owner = vec![None; len as usize];
    for i in order {
        let w = &history[i];
        let from = w.at.max(at);
        let to = (w.at + w.data.len() as u64).min(at + len);
        for pos in from..to {
            bytes[(pos - at) as usize] = w.data[(pos - w.at) as usize];
            owner[(pos - at) as usize] = Some(i);
        }
    }
    (bytes, owner)
}

/// NVMe blocks a fetch of the window at `at` may read: every maximal run
/// of bytes owned by one NVMe-resident record, rounded out to that
/// record's checksum-chunk grid.
fn block_budget(history: &[Written], at: u64, owner: &[Option<usize>]) -> u64 {
    let mut budget = 0;
    let mut run = 0;
    while run < owner.len() {
        let end = run
            + owner[run..]
                .iter()
                .take_while(|&&o| o == owner[run])
                .count();
        if let Some(w) = owner[run].map(|i| &history[i]) {
            if w.data.len() as u64 > SCM_THRESHOLD {
                let lo = at + run as u64 - w.at;
                let hi = at + end as u64 - w.at;
                budget += hi.div_ceil(CSUM_CHUNK) - lo / CSUM_CHUNK;
            }
        }
        run = end;
    }
    budget
}

fn bdevs() -> BdevLayer {
    BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fetch_matches_byte_array_oracle(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut bd = bdevs();
        let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, SCM_THRESHOLD);
        let oid = ObjectId::new(ObjClass::S1, 1);
        let (d, a) = (DKey::from_u64(0), AKey::from_str("data"));
        let mut history: Vec<Written> = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_micros(500);
            let written = match *op {
                Op::Write { epoch, at, len, fill } => Written {
                    epoch,
                    at,
                    data: (0..len).map(|i| fill.wrapping_add(i as u8)).collect(),
                },
                Op::Rewrite { pick } if !history.is_empty() => {
                    let w = &history[pick % history.len()];
                    Written { epoch: w.epoch, at: w.at, data: w.data.clone() }
                }
                Op::Rewrite { .. } => continue,
                Op::Fetch { epoch, at, len } => {
                    let epoch = if epoch == 0 { Epoch::LATEST } else { Epoch(epoch) };
                    let (want, owner) = paint(&history, epoch.0, at, len);
                    let read_before = bd.array().total_stats().bytes_read;
                    let (got, done) = vos
                        .fetch_array(now, &mut bd.shard(0), oid, &d, &a, epoch, at, len)
                        .map_err(|e| format!("fetch({at}, {len}) @ {epoch:?}: {e:?}"))?;
                    prop_assert_eq!(&got[..], &want[..], "fetch({}, {}) @ {:?}", at, len, epoch);
                    prop_assert!(done >= now, "completion {:?} precedes issue {:?}", done, now);
                    let blocks = (bd.array().total_stats().bytes_read - read_before) / LBA_SIZE;
                    let budget = block_budget(&history, at, &owner);
                    prop_assert!(
                        blocks <= budget,
                        "fetch({}, {}) @ {:?} read {} NVMe blocks, its segments span {}",
                        at, len, epoch, blocks, budget
                    );
                    continue;
                }
            };
            vos.update(
now,
&mut bd.shard(0),
oid,
d.clone(),
a.clone(),
ValueKind::Array { offset: written.at },
Epoch(written.epoch),
Bytes::from(written.data.clone()),
)
            .map_err(|e| format!("update: {e:?}"))?;
            history.push(written);
        }
        // Whole-space sweep at every epoch the tape could have used.
        for epoch in (1..=MAX_EPOCH).map(Epoch).chain([Epoch::LATEST]) {
            let (want, _) = paint(&history, epoch.0, 0, SPACE);
            let (got, _) = vos
                .fetch_array(now, &mut bd.shard(0), oid, &d, &a, epoch, 0, SPACE)
                .map_err(|e| format!("sweep @ {epoch:?}: {e:?}"))?;
            prop_assert_eq!(&got[..], &want[..], "sweep @ {:?}", epoch);
        }
        prop_assert_eq!(vos.stats().checksum_failures, 0);
    }
}

/// A fetch costs what it returns, not what the record has been through: a
/// 1 MiB array record overwritten 1, 4 and 16 times fetches with one NVMe
/// read, no copy, and the same completion instant to the nanosecond.
#[test]
fn overwrites_do_not_amplify_reads() {
    const LEN: u64 = 1 << 20;
    let fetch_after = |overwrites: u64| {
        let mut e = DaosEngine::new(
            "pool0",
            bdevs(),
            64 << 20,
            DaosCostModel::default_model(),
            CoreClass::HostX86,
        );
        e.cont_create("c").unwrap();
        let oid = ObjectId::new(ObjClass::S1, 1);
        let (d, a) = (DKey::from_u64(0), AKey::from_str("data"));
        for version in 0..=overwrites {
            let epoch = e.next_epoch("c").unwrap();
            e.update(
                SimTime::ZERO,
                "c",
                oid,
                d.clone(),
                a.clone(),
                ValueKind::Array { offset: 0 },
                epoch,
                Bytes::from(vec![version as u8; LEN as usize]),
            )
            .unwrap();
        }
        let reads_before = e.bdevs_mut().array().total_stats().reads;
        let copied_before = e.data_plane_stats().bytes_copied;
        // Long after the writes drained: the fetch meets an idle device.
        let (data, done) = e
            .fetch(
                SimTime::from_secs(1),
                "c",
                oid,
                &d,
                &a,
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                LEN,
            )
            .unwrap();
        assert!(data.iter().all(|&b| b == overwrites as u8));
        assert_eq!(
            e.data_plane_stats().bytes_copied,
            copied_before,
            "a window one record covers is the store's slice ({overwrites} overwrites)"
        );
        (
            e.bdevs_mut().array().total_stats().reads - reads_before,
            done,
        )
    };
    let once = fetch_after(1);
    assert_eq!(once.0, 1, "one media read per fetched record");
    assert_eq!(fetch_after(4), once);
    assert_eq!(fetch_after(16), once);
}
