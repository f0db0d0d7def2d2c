//! Model check of the VOS overlay resolver, and the read-amplification
//! bound it exists for.
//!
//! The property test drives one `VosTarget` with random tapes of array
//! writes — overlapping, partially overlapping, duplicated (a rebuild
//! retry re-importing the same records) and arriving out of epoch order —
//! and checks every fetch, at `LATEST` and at random snapshot epochs,
//! against a flat byte array painted with every version in `(epoch,
//! arrival)` order (`ros2_testkit::paint`, which the client suites' history
//! oracle reads arrays with too). The painter also knows which record
//! owns each byte, so it bounds the media work: a fetch may read no more
//! NVMe blocks than its segments (maximal runs of bytes served by one
//! record) rounded out to `CSUM_CHUNK` at their edges. A last test runs
//! that oracle on one hand-built history.

use std::ops::Range;

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::vos::CSUM_CHUNK;
use ros2_daos::{
    AKey, DKey, DaosCostModel, DaosEngine, Epoch, ObjClass, ObjectId, RecordKey, ValueKind,
    VosTarget,
};
use ros2_hw::{CoreClass, NvmeModel, LBA_SIZE};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimTime, Timed};
use ros2_spdk::BdevLayer;
use ros2_testkit::{array_key, paint, stamped, Oracle, Written};

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

/// NVMe blocks a fetch of the window `[at, at+len)` may read: every
/// maximal run of bytes owned by one NVMe-resident record (the top layer
/// [`paint`] left there), rounded out to that record's checksum-chunk grid.
fn block_budget(history: &[Written], at: u64, len: u64, layers: &[(usize, Range<usize>)]) -> u64 {
    let mut owner = vec![None; len as usize];
    for (i, range) in layers {
        owner[range.clone()].fill(Some(*i));
    }
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
                    data: (0..len).map(|i| fill.wrapping_add(i as u8)).collect::<Vec<u8>>().into(),
                },
                Op::Rewrite { pick } if !history.is_empty() => {
                    let w = &history[pick % history.len()];
                    Written { epoch: w.epoch, at: w.at, data: w.data.clone() }
                }
                Op::Rewrite { .. } => continue,
                Op::Fetch { epoch, at, len } => {
                    let epoch = if epoch == 0 { Epoch::LATEST } else { Epoch(epoch) };
                    let (want, layers) = paint(&history, epoch.0, at, len);
                    let read_before = bd.array().total_stats().bytes_read;
                    let (got, done) = vos
                        .fetch_array(now, &mut bd.shard(0), &RecordKey { oid, dkey: d.clone(), akey: a.clone() }, epoch, at, len)
                        .map_err(|e| format!("fetch({at}, {len}) @ {epoch:?}: {e:?}"))?;
                    prop_assert_eq!(&got[..], &want[..], "fetch({}, {}) @ {:?}", at, len, epoch);
                    prop_assert!(done >= now, "completion {:?} precedes issue {:?}", done, now);
                    let blocks = (bd.array().total_stats().bytes_read - read_before) / LBA_SIZE;
                    let budget = block_budget(&history, at, len, &layers);
                    prop_assert!(
                        blocks <= budget,
                        "fetch({}, {}) @ {:?} read {} NVMe blocks, its segments span {}",
                        at, len, epoch, blocks, budget
                    );
                    continue;
                }
            };
            vos.update(now, &mut bd.shard(0), RecordKey { oid, dkey: d.clone(), akey: a.clone() }, ValueKind::Array { offset: written.at }, Epoch(written.epoch), written.data.clone())
            .map_err(|e| format!("update: {e:?}"))?;
            history.push(written);
        }
        // Whole-space sweep at every epoch the tape could have used.
        for epoch in (1..=MAX_EPOCH).map(Epoch).chain([Epoch::LATEST]) {
            let (want, _) = paint(&history, epoch.0, 0, SPACE);
            let (got, _) = vos
                .fetch_array(now, &mut bd.shard(0), &RecordKey { oid, dkey: d.clone(), akey: a.clone() }, epoch, 0, SPACE)
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

/// The history oracle the client suites share (`ros2_testkit::Oracle`), on one
/// hand-built history: each kind of answer it gives, by name, and each
/// rule it holds a wrong answer to, bit rot included.
#[test]
fn oracle_answers_a_hand_built_history() {
    use ros2_daos::{ClientOp, ClientOpResult, DaosError, FetchOp, UpdateOp};
    let oid = ObjectId::new(ObjClass::Sx, 1);
    let key = |dkey| array_key(oid, dkey);
    let update = |key, kind, data| ClientOp::Update(UpdateOp { key, kind, data });
    let read = |key, kind, epoch, len| FetchOp {
        key,
        kind,
        epoch,
        len,
    };
    let array = |offset| ValueKind::Array { offset };
    let acked = ClientOpResult::Update(Ok(SimTime::ZERO));
    let spent = DaosError::RetryExhausted { attempts: 3 };
    // Epoch 1 writes [8, 16) KiB, epoch 2 [12, 14) KiB over it, epoch 3 a
    // 100-byte single value; the write at epoch 4 fails.
    let (older, newer) = (stamped(oid, 8192, 1, 8192), stamped(oid, 12288, 2, 2048));
    let value = stamped(oid, 0, 3, 100);
    let mut o = Oracle::lossy(2);
    o.settle(&update(key(0), array(8192), older.clone()), &acked);
    o.settle(&update(key(0), array(12288), newer.clone()), &acked);
    o.settle(&update(key(1), ValueKind::Single, value.clone()), &acked);
    let failed = update(key(2), array(0), stamped(oid, 0, 4, 64));
    o.settle(&failed, &ClientOpResult::Update(Err(spent)));
    assert_eq!(o.failed, 1);

    let hole = read(key(0), array(0), Epoch::LATEST, 8192);
    assert_eq!(
        o.expect(&hole),
        Some(Ok(Bytes::from(vec![0; 8192]))),
        "a hole reads as zeros"
    );
    let past = read(key(0), array(12288), Epoch(1), 2048);
    let want = Some(Ok(older.slice(4096..6144)));
    assert_eq!(
        o.expect(&past),
        want,
        "a past-epoch read ignores newer writes"
    );
    let short = read(key(1), ValueKind::Single, Epoch::LATEST, 4096);
    let want = Some(Ok(value));
    assert_eq!(
        o.expect(&short),
        want,
        "a short single value comes back at exactly its length"
    );
    let mut painted = older.to_vec();
    painted[4096..6144].copy_from_slice(&newer);
    let overlap = read(key(0), array(8192), Epoch::LATEST, 8192);
    let want = Some(Ok(painted.into()));
    assert_eq!(
        o.expect(&overlap),
        want,
        "overlapping writes go newest-wins"
    );
    let touched = read(key(2), array(0), Epoch::LATEST, 64);
    assert_eq!(
        o.expect(&touched),
        None,
        "a read of a key a failed write touched is refused"
    );

    // And the oracle's rules bite: a wrong answer breaks rule 2; a failure
    // other than a spent budget, any failure where no fault was armed, and
    // an error other than `NotFound` from a refused record break rule 1.
    let breaks = |mut o: Oracle, op: ClientOp, r: ClientOpResult| {
        std::panic::catch_unwind(move || o.settle(&op, &r)).is_err()
    };
    let stale = ClientOpResult::Fetch(Ok((newer, SimTime::ZERO)));
    assert!(
        breaks(Oracle::new(2), ClientOp::Fetch(hole), stale),
        "rule 2"
    );
    let short_budget = ClientOpResult::Update(Err(DaosError::RetryExhausted { attempts: 2 }));
    assert!(
        breaks(Oracle::lossy(2), failed.clone(), short_budget),
        "rule 1"
    );
    let no_fault = ClientOpResult::Update(Err(spent));
    assert!(breaks(Oracle::new(2), failed, no_fault), "rule 1, no fault");
    let corrupt = ClientOpResult::Fetch(Err(DaosError::ChecksumMismatch));
    assert!(
        breaks(o, ClientOp::Fetch(touched), corrupt.clone()),
        "rule 1, refused"
    );

    // A `ChecksumMismatch` passes for a record the suite rotted until a
    // scrub repairs it, and for no other record.
    let fetch = ClientOp::Fetch(read(key(0), array(0), Epoch::LATEST, 64));
    let mut o = Oracle::new(2);
    o.rot(key(0));
    o.settle(&fetch, &corrupt);
    o.repair(&key(0));
    assert!(breaks(o, fetch.clone(), corrupt.clone()), "repaired");
    assert!(breaks(Oracle::new(2), fetch, corrupt), "never rotted");
}
