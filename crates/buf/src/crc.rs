//! CRC32C (Castagnoli) at hardware rate, with a GF(2) combinator.
//!
//! Three evaluation paths, all bit-identical:
//!
//! * **SSE4.2** — `_mm_crc32_u64` via `std::arch`, selected by runtime
//!   feature detection on x86-64, three independent lanes per block so
//!   the scan runs at the instruction's throughput rather than its
//!   latency. ~20 GB/s per core, the rate the timing model
//!   ([`checksum_cost`] in `ros2-hw`) already charges.
//! * **slicing-by-16** — the portable software path, 8-16 GB/s class.
//! * **combine** — [`crc32c_combine`] concatenates two finalized CRCs in
//!   O(popcount(len)) applications of byte-sliced GF(2) shift operators
//!   (four table loads and three xors each) without touching a single
//!   payload byte. This is what lets stores answer "what is the CRC of
//!   this range" from cached per-chunk CRCs.
//!
//! The polynomial, bit order, and init/finalize convention match the
//! original table-driven implementation in `ros2_daos::checksum` (RFC 3720
//! vectors), which now delegates here.

/// The CRC32C polynomial (reflected).
pub const POLY: u32 = 0x82F6_3B78;

// ---------------------------------------------------------------- tables --

/// 16-entry-per-byte lookup table for the slicing-by-16 software path.
fn table16() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[[u32; 256]; 16]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 16]);
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            t[0][i as usize] = crc;
        }
        for i in 0..256 {
            for slice in 1..16 {
                let prev = t[slice - 1][i];
                t[slice][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Raw (non-inverted) update over `data`, slicing-by-16.
fn update_sw(mut crc: u32, data: &[u8]) -> u32 {
    let t = table16();
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let c = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

// -------------------------------------------------------------- hardware --

/// Whether the SSE4.2 CRC32 instruction path is in use on this host.
pub fn hw_acceleration() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Raw update via the SSE4.2 `crc32` instruction family.
///
/// `crc32` has a three-cycle latency and a one-cycle throughput, so one
/// dependent chain runs at a third of the unit's rate. Inputs of at least
/// `3 * LANE` bytes are scanned as three independent lanes per block and
/// folded with the lane shift operators: for lanes `A ++ B ++ C` of `LANE`
/// bytes each, `U(s, ABC) = shift(U(s, A), 2·LANE) ^ shift(U(0, B), LANE)
/// ^ U(0, C)`.
///
/// # Safety
/// Caller must have verified SSE4.2 support (see [`hw_acceleration`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_hw(mut crc: u32, mut data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    while data.len() >= 3 * LANE {
        let [by_lane, by_two_lanes] = &shift_ops().lane;
        let (a, rest) = data.split_at(LANE);
        let (b, rest) = rest.split_at(LANE);
        let (c, rest) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cc) = (crc as u64, 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ca = _mm_crc32_u64(ca, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        crc = apply(by_two_lanes, ca as u32) ^ apply(by_lane, cb as u32) ^ cc as u32;
        data = rest;
    }
    let mut chunks = data.chunks_exact(8);
    let mut crc64 = crc as u64;
    for chunk in &mut chunks {
        crc64 = _mm_crc32_u64(crc64, word(chunk));
    }
    let mut crc = crc64 as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

fn update_auto(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if hw_acceleration() {
            // SAFETY: feature presence just verified.
            return unsafe { update_hw(crc, data) };
        }
    }
    update_sw(crc, data)
}

// ------------------------------------------------------------ public API --

/// Computes the CRC32C of `data` (hardware path when available).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continues a CRC32C from a previous finalized value (for chunked
/// computation); hardware path when available.
pub fn crc32c_append(state: u32, data: &[u8]) -> u32 {
    !update_auto(!state, data)
}

/// [`crc32c_append`] forced onto the portable slicing-by-16 path
/// (equivalence testing, non-x86 hosts).
pub fn crc32c_append_sw(state: u32, data: &[u8]) -> u32 {
    !update_sw(!state, data)
}

// --------------------------------------------------------------- combine --

/// A 32x32 GF(2) matrix: row `n` is the image of bit `n`.
type Gf2Matrix = [u32; 32];

/// Matrix-vector product by walking the set bits of `vec`. Only the table
/// builder below uses it; every hot path applies a [`SlicedOp`] instead.
fn gf2_times(mat: &Gf2Matrix, mut vec: u32) -> u32 {
    let mut sum = 0u32;
    while vec != 0 {
        sum ^= mat[vec.trailing_zeros() as usize];
        vec &= vec - 1;
    }
    sum
}

fn gf2_square(src: &Gf2Matrix) -> Gf2Matrix {
    let mut dst = [0u32; 32];
    for (n, row) in src.iter().enumerate() {
        dst[n] = gf2_times(src, *row);
    }
    dst
}

/// A GF(2)-linear operator on a CRC register, sliced by input byte:
/// `op[j][b]` is the image of `b << 8j`, so the image of any `v` is four
/// loads and three xors with no data-dependent branch.
type SlicedOp = [[u32; 256]; 4];

fn slice_op(mat: &Gf2Matrix) -> SlicedOp {
    let mut op = [[0u32; 256]; 4];
    for (j, table) in op.iter_mut().enumerate() {
        for b in 1..256usize {
            // Linear: the image of `b` is the image of `b` without its
            // lowest set bit, xor that bit's row.
            table[b] = table[b & (b - 1)] ^ mat[8 * j + b.trailing_zeros() as usize];
        }
    }
    op
}

#[inline(always)]
fn apply(op: &SlicedOp, v: u32) -> u32 {
    op[0][(v & 0xFF) as usize]
        ^ op[1][((v >> 8) & 0xFF) as usize]
        ^ op[2][((v >> 16) & 0xFF) as usize]
        ^ op[3][(v >> 24) as usize]
}

/// Number of cached byte-shift operators: lengths up to 2^48 bytes.
const SHIFT_LEVELS: usize = 48;

/// Bytes per lane of the three-way interleaved hardware scan. The largest
/// multiple of 8 with `3 * LANE <= 4096`, so the size every caller scans
/// (`CRC_CHUNK`, the VOS checksum chunk) runs in the interleaved loop and
/// leaves a 16-byte tail.
#[cfg(target_arch = "x86_64")]
const LANE: usize = 1360;
#[cfg(target_arch = "x86_64")]
const _: () = assert!(LANE.is_multiple_of(8) && 3 * LANE <= 4096 && 4096 - 3 * LANE < 24);

/// The precomputed zero-byte shift operators (built once per process,
/// ~200 KiB; level 12 — one 4 KiB chunk — is the hot one).
struct ShiftOps {
    /// `pow2[k]` advances a CRC register over `2^k` zero bytes.
    pow2: [SlicedOp; SHIFT_LEVELS],
    /// Advance over `LANE` and `2 * LANE` zero bytes (the lane fold).
    #[cfg(target_arch = "x86_64")]
    lane: [SlicedOp; 2],
}

fn shift_ops() -> &'static ShiftOps {
    use std::sync::OnceLock;
    static OPS: OnceLock<Box<ShiftOps>> = OnceLock::new();
    OPS.get_or_init(|| {
        // Operator for one zero *bit* (zlib's crc32_combine construction).
        let mut mat: Gf2Matrix = [0u32; 32];
        mat[0] = POLY;
        let mut row = 1u32;
        for entry in mat.iter_mut().skip(1) {
            *entry = row;
            row <<= 1;
        }
        // Square up to one zero *byte*: 1 -> 2 -> 4 -> 8 bits.
        for _ in 0..3 {
            mat = gf2_square(&mat);
        }
        let mut ops = Box::new(ShiftOps {
            pow2: [[[0u32; 256]; 4]; SHIFT_LEVELS],
            #[cfg(target_arch = "x86_64")]
            lane: [[[0u32; 256]; 4]; 2],
        });
        for op in ops.pow2.iter_mut() {
            *op = slice_op(&mat);
            mat = gf2_square(&mat);
        }
        #[cfg(target_arch = "x86_64")]
        for (i, len) in [LANE, 2 * LANE].into_iter().enumerate() {
            let mut rows = [0u32; 32];
            for (n, row) in rows.iter_mut().enumerate() {
                *row = shift(&ops.pow2, 1 << n, len as u64);
            }
            ops.lane[i] = slice_op(&rows);
        }
        ops
    })
}

/// Advances the CRC register `v` over `len` zero bytes: one sliced
/// operator per set bit of `len`. The operator is the same on raw and on
/// finalized registers (the init/finalize inversions cancel by linearity).
#[inline]
fn shift(pow2: &[SlicedOp; SHIFT_LEVELS], mut v: u32, mut len: u64) -> u32 {
    while len != 0 {
        v = apply(&pow2[len.trailing_zeros() as usize], v);
        len &= len - 1;
    }
    v
}

/// Combines finalized CRCs: given `crc_a = crc32c(A)` and
/// `crc_b = crc32c(B)`, returns `crc32c(A ++ B)` where `len_b = B.len()`,
/// in O(popcount(len_b)) table-driven operator applications — no payload
/// bytes are read. The zlib `crc32_combine` algorithm with the byte-shift
/// operators precomputed once per process and sliced by byte.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    debug_assert!(len_b < 1 << SHIFT_LEVELS, "combine length >= 2^48 bytes");
    shift(&shift_ops().pow2, crc_a, len_b) ^ crc_b
}

/// The CRC32C of `len` zero bytes, in O(popcount(len)) operator
/// applications (never scans): the all-ones initial register advanced over
/// `len` zero bytes, finalized. Lengths are bounded by the cached shift
/// operators: `len < 2^48` (256 TiB — beyond any simulated range; asserted
/// in debug builds).
pub fn crc32c_zeros(len: u64) -> u32 {
    debug_assert!(len < 1 << SHIFT_LEVELS, "zero-run length >= 2^48 bytes");
    !shift(&shift_ops().pow2, !0, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_both_paths() {
        // RFC 3720 / iSCSI test vectors.
        for f in [crc32c_append, crc32c_append_sw] {
            assert_eq!(f(0, b""), 0x0000_0000);
            assert_eq!(f(0, &[0u8; 32]), 0x8A91_36AA);
            assert_eq!(f(0, &[0xFFu8; 32]), 0x62A8_AB43);
            let ascending: Vec<u8> = (0..32).collect();
            assert_eq!(f(0, &ascending), 0x46DD_794E);
            assert_eq!(f(0, b"123456789"), 0xE306_9283);
        }
    }

    #[test]
    fn combine_matches_direct() {
        let a: Vec<u8> = (0..1500u32).map(|i| (i * 31 % 251) as u8).collect();
        let b: Vec<u8> = (0..777u32).map(|i| (i * 7 % 253) as u8).collect();
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        assert_eq!(
            crc32c_combine(crc32c(&a), crc32c(&b), b.len() as u64),
            crc32c(&whole)
        );
        // Degenerate lengths.
        assert_eq!(crc32c_combine(crc32c(&a), 0, 0), crc32c(&a));
        assert_eq!(crc32c_combine(0, crc32c(&b), b.len() as u64), crc32c(&b));
    }

    #[test]
    fn zeros_matches_direct() {
        for len in [0usize, 1, 7, 64, 4096, 4097, 100_000] {
            assert_eq!(
                crc32c_zeros(len as u64),
                crc32c(&vec![0u8; len]),
                "len {len}"
            );
        }
    }

    /// The lane length is private, so the lengths around its block
    /// boundaries are checked here.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_blocks_cover_a_chunk_and_match_software() {
        let data: Vec<u8> = (0..6 * LANE as u32 + 1)
            .map(|i| (i * 13 % 251) as u8)
            .collect();
        for len in [3 * LANE - 1, 3 * LANE, 3 * LANE + 1, 6 * LANE, 6 * LANE + 1] {
            assert_eq!(
                crc32c_append(0x1234_5678, &data[..len]),
                crc32c_append_sw(0x1234_5678, &data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn chunked_append_equals_whole() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = crc32c(&data);
        let mut st = 0u32;
        for chunk in data.chunks(97) {
            st = crc32c_append(st, chunk);
        }
        assert_eq!(st, whole);
    }
}
