//! Allocation regression for the metadata key path: constructing the keys
//! the hot path builds (u64 chunk dkeys, short string akeys), probing the
//! object index, and repeating a warm fetch must perform ZERO heap
//! allocations, and a warm update none beyond the index growth it causes —
//! measured for real with a counting global allocator, not inferred from
//! types.
//!
//! All measurements run inside one `#[test]` (the counters are
//! process-global; concurrent tests in the same binary would pollute the
//! deltas).

use bytes::Bytes;
use ros2_buf::{allocation_count, CountingAlloc};
use ros2_daos::{
    AKey, DKey, DaosCostModel, DaosEngine, Epoch, KeyPair, ObjClass, ObjectId, ValueKind,
};
use ros2_hw::{CoreClass, NvmeModel};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::SimTime;
use ros2_spdk::BdevLayer;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = allocation_count();
    f();
    allocation_count() - before
}

#[test]
fn key_path_is_allocation_free() {
    // --- key construction: inline representation, no heap ----------------
    let n = allocs_in(|| {
        for i in 0..10_000u64 {
            let d = DKey::from_u64(i);
            let a = AKey::from_str("data");
            std::hint::black_box((&d, &a));
        }
        std::hint::black_box((DKey::from_str("."), AKey::from_str("superblock")));
    });
    assert_eq!(
        n, 0,
        "inline key construction must not allocate ({n} allocs)"
    );

    // --- index-key packing from borrowed keys ----------------------------
    let d = DKey::from_u64(7);
    let a = AKey::from_str("data");
    let n = allocs_in(|| {
        for _ in 0..10_000 {
            std::hint::black_box(KeyPair::from_refs(&d, &a));
        }
    });
    assert_eq!(n, 0, "KeyPair::from_refs must not allocate ({n} allocs)");

    // --- warm engine fetches: the whole metadata read path ---------------
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ));
    let mut e = DaosEngine::new(
        "pool0",
        bdevs,
        64 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    e.cont_create("c").unwrap();
    let oid = ObjectId::new(ObjClass::S1, 1);
    let epoch = e.next_epoch("c").unwrap();
    // One SCM-resident single value and one SCM array record.
    e.update(
        SimTime::ZERO,
        "c",
        oid,
        DKey::from_u64(0),
        AKey::from_str("v"),
        ValueKind::Single,
        epoch,
        Bytes::from(vec![0x5A; 512]),
    )
    .unwrap();
    e.update(
        SimTime::ZERO,
        "c",
        oid,
        DKey::from_u64(1),
        AKey::from_str("data"),
        ValueKind::Array { offset: 0 },
        epoch,
        Bytes::from(vec![0x6B; 4096]),
    )
    .unwrap();

    // A second SCM array record, overwritten 16 times: resolving which
    // version is visible must stay inside the target's reused scratch.
    for version in 0..=16u8 {
        let epoch = e.next_epoch("c").unwrap();
        e.update(
            SimTime::ZERO,
            "c",
            oid,
            DKey::from_u64(2),
            AKey::from_str("data"),
            ValueKind::Array { offset: 0 },
            epoch,
            Bytes::from(vec![version; 4096]),
        )
        .unwrap();
    }
    let fetch_overwritten = |e: &mut DaosEngine| {
        let (arr, _) = e
            .fetch(
                SimTime::ZERO,
                "c",
                oid,
                &DKey::from_u64(2),
                &AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                4096,
            )
            .unwrap();
        assert_eq!(arr[0], 16);
        std::hint::black_box(arr);
    };

    // Warm every path once (CRC caches are seeded at update; the first
    // fetch may still grow scratch buffers).
    for _ in 0..3 {
        fetch_overwritten(&mut e);
        e.fetch(
            SimTime::ZERO,
            "c",
            oid,
            &DKey::from_u64(0),
            &AKey::from_str("v"),
            ValueKind::Single,
            Epoch::LATEST,
            512,
        )
        .unwrap();
        e.fetch(
            SimTime::ZERO,
            "c",
            oid,
            &DKey::from_u64(1),
            &AKey::from_str("data"),
            ValueKind::Array { offset: 0 },
            Epoch::LATEST,
            4096,
        )
        .unwrap();
    }

    // Steady state: key build + index probe + overlay resolution + record
    // load + CRC verify, with zero allocations per op.
    let n = allocs_in(|| {
        for _ in 0..1_000 {
            let (sv, _) = e
                .fetch(
                    SimTime::ZERO,
                    "c",
                    oid,
                    &DKey::from_u64(0),
                    &AKey::from_str("v"),
                    ValueKind::Single,
                    Epoch::LATEST,
                    512,
                )
                .unwrap();
            std::hint::black_box(sv);
            let (arr, _) = e
                .fetch(
                    SimTime::ZERO,
                    "c",
                    oid,
                    &DKey::from_u64(1),
                    &AKey::from_str("data"),
                    ValueKind::Array { offset: 0 },
                    Epoch::LATEST,
                    4096,
                )
                .unwrap();
            std::hint::black_box(arr);
            fetch_overwritten(&mut e);
        }
    });
    assert_eq!(
        n, 0,
        "warm single-value, covered-array and overwritten-array fetches must \
         be allocation-free ({n} allocs over 3000 ops)"
    );

    // --- warm updates: the whole metadata write path ---------------------
    // Another 64 versions of the overwritten record. A 4 KiB record's chunk
    // table and its seeded CRC cache entry are held inline, so an update
    // allocates only as the state it leaves behind grows.
    let payload = Bytes::from(vec![0x7C; 4096]);
    let n = allocs_in(|| {
        for _ in 0..WARM_UPDATES {
            let epoch = e.next_epoch("c").unwrap();
            e.update(
                SimTime::ZERO,
                "c",
                oid,
                DKey::from_u64(2),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                epoch,
                payload.clone(),
            )
            .unwrap();
        }
    });
    assert_eq!(
        n, UPDATE_INDEX_GROWTH,
        "{WARM_UPDATES} warm 4 KiB updates may allocate only for index growth"
    );
}

/// Updates in the measured write block.
const WARM_UPDATES: u64 = 64;

/// What [`WARM_UPDATES`] updates of one SCM-resident 4 KiB record allocate,
/// all of it index growth:
///
/// * 2 — the record's vector goes from 17 records to 81 and crosses
///   capacities 32 and 64;
/// * 2 — the SCM heap's extent index, one vector holding the 19 records
///   written before, takes the 64 new extents as appends at its tail: it
///   goes to 83 entries and doubles its capacity twice, crossing 32 and
///   64.
///
/// The parent of this accounting allocated two more per update: the chunk
/// table's `Arc` and the seeded CRC table's `Box`.
const UPDATE_INDEX_GROWTH: u64 = 2 + 2;
