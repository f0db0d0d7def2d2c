//! Model check: the zero-copy extent store against a flat `Vec<u8>`
//! reference under random overlapping writes, slice writes, zero-pool
//! writes, appends, discards, reads, CRC range queries and chunk-table
//! verifies.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_buf::{crc32c, is_shared_zeros, zero_bytes, ExtentStore, CRC_CHUNK};

/// Address space of the model (covers several CRC chunks).
const SPACE: u64 = 20_000;

#[derive(Clone, Debug)]
enum Op {
    /// Zero-copy write of `len` bytes of `fill`-derived data at `at`.
    Write { at: u64, len: u64, fill: u8 },
    /// Borrowed-slice write.
    WriteSlice { at: u64, len: u64, fill: u8 },
    /// Zero-copy write of a slice of the shared zero pool: an extent that
    /// keeps no CRC cache and answers its chunks in closed form.
    WriteZeros { at: u64, len: u64 },
    /// Zero-copy write of `len` bytes of `fill`-derived data at the append
    /// cursor, the way the SCM heap's frontier and the NVMe allocator
    /// place records: at the end of the highest write so far, so the
    /// extent lands at the index's tail. When the space is used up the
    /// cursor wraps to 0 and the appends land before the tail.
    Append { len: u64, fill: u8 },
    /// Discard (TRIM).
    Discard { at: u64, len: u64 },
    /// Read and compare against the model.
    Read { at: u64, len: u64 },
    /// CRC of a range, compared against crc32c of the model slice.
    Crc { at: u64, len: u64 },
    /// Chunk-table verify of a range: the model's per-chunk CRCs pass,
    /// each of them flipped in turn fails.
    Verify { at: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u64..(SPACE - 1);
    let len = 1u64..6000;
    let kind = 0u32..10;
    (kind, addr, len, any::<u8>()).prop_map(|(kind, at, len, fill)| {
        // Kinds 6, 7 and 9 start on the 4 KiB grid, so verifies meet
        // extents whose chunk grid they share; those verifies run long.
        let at = if matches!(kind, 6 | 7 | 9) {
            at / CRC_CHUNK * CRC_CHUNK
        } else {
            at
        };
        let len = len.min(SPACE - at);
        match kind {
            0 | 6 => Op::Write { at, len, fill },
            1 => Op::WriteSlice { at, len, fill },
            2 => Op::Discard { at, len },
            3 => Op::Read { at, len },
            4 => Op::Crc { at, len },
            5 => Op::Verify { at, len },
            8 | 9 => Op::WriteZeros { at, len },
            _ => Op::Verify {
                at,
                len: (len * 3).min(SPACE - at),
            },
        }
    })
}

/// Mostly appends, with short writes and discards anywhere, and reads,
/// CRC queries and verifies long enough to span many extents: the index
/// holds hundreds of short extents, so lookups run both from its tail
/// and through its binary search.
fn append_heavy_strategy() -> impl Strategy<Value = Op> {
    let addr = 0u64..(SPACE - 1);
    let len = 1u64..48;
    let kind = 0u32..16;
    (kind, addr, len, any::<u8>()).prop_map(|(kind, at, len, fill)| {
        let span = (len * 128).min(SPACE - at);
        let len = len.min(SPACE - at);
        match kind {
            0..=7 => Op::Append { len, fill },
            8 => Op::Write { at, len, fill },
            9 => Op::WriteSlice { at, len, fill },
            10 => Op::WriteZeros { at, len },
            11 => Op::Discard { at, len },
            12 => Op::Read { at, len: span },
            13 => Op::Crc { at, len: span },
            _ => Op::Verify { at, len: span },
        }
    })
}

fn payload(len: u64, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// The per-[`CRC_CHUNK`] CRCs of `bytes`, the last chunk possibly partial.
fn chunk_table(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks(CRC_CHUNK as usize).map(crc32c).collect()
}

/// `verify_chunks` accepts the model's table for `[at, at+len)` and
/// rejects it with any one entry flipped, or with an entry missing.
fn check_verify(store: &mut ExtentStore, model: &[u8], at: u64, len: u64) -> Result<(), String> {
    let table = chunk_table(&model[at as usize..(at + len) as usize]);
    prop_assert!(
        store.verify_chunks(at, len, table.iter().copied()),
        "verify({}, {})",
        at,
        len
    );
    for k in 0..table.len() {
        let mut bad = table.clone();
        bad[k] ^= 1 << (k % 32);
        prop_assert!(
            !store.verify_chunks(at, len, bad.iter().copied()),
            "verify({}, {}) entry {}",
            at,
            len,
            k
        );
    }
    let short = &table[..table.len() - 1];
    prop_assert!(!store.verify_chunks(at, len, short.iter().copied()));
    Ok(())
}

/// Applies `ops` to a fresh store and to the flat model, comparing every
/// read, CRC and verify, then sweeps the whole space.
fn run_tape(ops: &[Op]) -> Result<(), String> {
    let mut store = ExtentStore::new();
    let mut model = vec![0u8; SPACE as usize];
    // Where the next append goes: the end of the highest write so far.
    let mut cursor = 0u64;
    for op in ops {
        match *op {
            Op::Write { at, len, fill } => {
                let data = payload(len, fill);
                model[at as usize..(at + len) as usize].copy_from_slice(&data);
                store.write(at, Bytes::from(data));
                cursor = cursor.max(at + len);
            }
            Op::WriteSlice { at, len, fill } => {
                let data = payload(len, fill);
                model[at as usize..(at + len) as usize].copy_from_slice(&data);
                store.write_slice(at, &data);
                cursor = cursor.max(at + len);
            }
            Op::WriteZeros { at, len } => {
                let data = zero_bytes(len as usize);
                prop_assert!(is_shared_zeros(&data));
                model[at as usize..(at + len) as usize].fill(0);
                store.write(at, data);
                cursor = cursor.max(at + len);
            }
            Op::Append { len, fill } => {
                let at = if cursor + len <= SPACE { cursor } else { 0 };
                let data = payload(len, fill);
                model[at as usize..(at + len) as usize].copy_from_slice(&data);
                store.write(at, Bytes::from(data));
                cursor = at + len;
            }
            Op::Discard { at, len } => {
                model[at as usize..(at + len) as usize].fill(0);
                store.discard(at, len);
            }
            Op::Read { at, len } => {
                let got = store.read(at, len as usize);
                prop_assert_eq!(
                    &got[..],
                    &model[at as usize..(at + len) as usize],
                    "read({}, {})",
                    at,
                    len
                );
            }
            Op::Crc { at, len } => {
                let want = crc32c(&model[at as usize..(at + len) as usize]);
                prop_assert_eq!(store.crc_of_range(at, len), want, "crc({}, {})", at, len);
            }
            Op::Verify { at, len } => check_verify(&mut store, &model, at, len)?,
        }
    }
    // Full-space sweep: contents and CRC agree after the whole history,
    // and the caches cannot have gone stale.
    let got = store.read(0, SPACE as usize);
    prop_assert_eq!(&got[..], &model[..]);
    prop_assert_eq!(store.crc_of_range(0, SPACE), crc32c(&model));
    prop_assert_eq!(store.crc_of_range(0, SPACE), crc32c(&model)); // cached pass
    check_verify(&mut store, &model, 0, SPACE)?;
    check_verify(&mut store, &model, 100, SPACE - 100)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn store_matches_flat_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        run_tape(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn appended_store_matches_flat_model(
        ops in prop::collection::vec(append_heavy_strategy(), 200..800)
    ) {
        run_tape(&ops)?;
    }
}

/// The window shapes one at a time: on an extent's grid (cached, partial
/// tail chunk), starting off it, straddling extent boundaries and holes,
/// and ending inside a grid chunk.
#[test]
fn verify_covers_every_window_shape() {
    const C: u64 = CRC_CHUNK;
    let mut store = ExtentStore::new();
    let mut model = vec![0u8; 10 * C as usize];
    // Extent A: chunks 0-2 plus a 1000-byte tail; extent B abuts it at a
    // chunk-misaligned address; a hole after B; extent C on the grid.
    for (at, len, fill) in [
        (0, 3 * C + 1000, 1u8),
        (3 * C + 1000, 2 * C, 2),
        (7 * C, 2 * C + 10, 3),
    ] {
        let data = payload(len, fill);
        model[at as usize..(at + len) as usize].copy_from_slice(&data);
        store.write(at, Bytes::from(data));
    }
    let windows = [
        (0, 3 * C),            // on A's grid
        (0, 3 * C + 1000),     // A whole, its partial tail chunk
        (C, 2 * C + 1000),     // from A's second chunk to its end
        (100, 2 * C),          // starts off the grid
        (2 * C, 2 * C),        // straddles A's tail into B
        (3 * C + 1000, 2 * C), // B whole, off the grid
        (4 * C, 4 * C),        // B, the hole, into C
        (6 * C, C),            // the hole alone
        (7 * C, 2 * C + 10),   // C whole
        (7 * C, C + 100),      // ends inside C's second grid chunk
        (0, 10 * C),           // everything
    ];
    for (at, len) in windows {
        check_verify(&mut store, &model, at, len).unwrap();
    }
}
