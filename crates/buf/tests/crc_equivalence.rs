//! Equivalence proof for the CRC32C paths: the hardware (SSE4.2) path, the
//! slicing-by-16 software path, and combine-of-chunk-CRCs must all match
//! the seed's table-driven slicing-by-8 implementation — kept verbatim
//! below as the oracle — on random data and random chunkings. The
//! table-driven combine is checked against the matrix walk it replaced
//! (also kept below), and the interleaved hardware scan against
//! slicing-by-16 around its lane and block boundaries.

use proptest::prelude::*;
use ros2_buf::{crc32c, crc32c_append, crc32c_append_sw, crc32c_combine, crc32c_zeros};

/// The seed's slicing-by-8 implementation (`crates/daos/src/checksum.rs`
/// before this PR), verbatim, as the independent oracle.
mod seed_reference {
    const POLY: u32 = 0x82F6_3B78;

    fn table() -> &'static [[u32; 256]; 8] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = Box::new([[0u32; 256]; 8]);
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
                for slice in 1..8 {
                    let prev = t[slice - 1][i];
                    t[slice][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                }
            }
            t
        })
    }

    pub fn crc32c_append(state: u32, data: &[u8]) -> u32 {
        let t = table();
        let mut crc = !state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    pub fn crc32c(data: &[u8]) -> u32 {
        crc32c_append(0, data)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One-shot: hw/auto path and slicing-by-16 both equal the oracle.
    #[test]
    fn one_shot_matches_oracle(data in prop::collection::vec(any::<u8>(), 0..5000)) {
        let want = seed_reference::crc32c(&data);
        prop_assert_eq!(crc32c(&data), want);
        prop_assert_eq!(crc32c_append_sw(0, &data), want);
    }

    /// Chunked continuation through both paths equals the oracle, at every
    /// random chunk size.
    #[test]
    fn chunked_matches_oracle(
        data in prop::collection::vec(any::<u8>(), 1..5000),
        step in 1usize..257,
    ) {
        let want = seed_reference::crc32c(&data);
        let mut auto = 0u32;
        let mut sw = 0u32;
        let mut oracle = 0u32;
        for chunk in data.chunks(step) {
            auto = crc32c_append(auto, chunk);
            sw = crc32c_append_sw(sw, chunk);
            oracle = seed_reference::crc32c_append(oracle, chunk);
        }
        prop_assert_eq!(auto, want);
        prop_assert_eq!(sw, want);
        prop_assert_eq!(oracle, want);
    }

    /// Combine of independently computed chunk CRCs equals the oracle over
    /// the concatenation, for random chunkings — the property the store's
    /// fetch-verify path rests on.
    #[test]
    fn combine_matches_oracle(
        data in prop::collection::vec(any::<u8>(), 1..5000),
        step in 1usize..1025,
    ) {
        let want = seed_reference::crc32c(&data);
        let mut acc = 0u32;
        for chunk in data.chunks(step) {
            acc = crc32c_combine(acc, crc32c(chunk), chunk.len() as u64);
        }
        prop_assert_eq!(acc, want);
    }

    /// Closed-form zero-run CRCs equal the oracle scanning real zeroes.
    #[test]
    fn zeros_matches_oracle(len in 0usize..20_000) {
        prop_assert_eq!(crc32c_zeros(len as u64), seed_reference::crc32c(&vec![0u8; len]));
    }
}

#[test]
fn reports_acceleration_state() {
    // Informational: both branches are exercised above regardless.
    println!(
        "crc32c hardware acceleration: {}",
        ros2_buf::hw_acceleration()
    );
}

/// The matrix-walk combine the library used before its byte-sliced shift
/// tables (zlib's `crc32_combine`: one 32-step row walk per set bit of the
/// length), kept here as the oracle the table-driven path must equal.
mod matrix_walk {
    type Gf2Matrix = [u32; 32];

    fn gf2_times(mat: &Gf2Matrix, mut vec: u32) -> u32 {
        let mut sum = 0u32;
        let mut i = 0usize;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
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

    pub fn crc32c_combine(crc_a: u32, crc_b: u32, mut len: u64) -> u32 {
        // One zero bit, squared up to one zero byte, then squared once per
        // bit of the length.
        let mut mat: Gf2Matrix = [0u32; 32];
        mat[0] = 0x82F6_3B78;
        for (n, row) in mat.iter_mut().enumerate().skip(1) {
            *row = 1 << (n - 1);
        }
        for _ in 0..3 {
            mat = gf2_square(&mat);
        }
        let mut v = crc_a;
        while len != 0 {
            if len & 1 != 0 {
                v = gf2_times(&mat, v);
            }
            len >>= 1;
            mat = gf2_square(&mat);
        }
        v ^ crc_b
    }
}

/// Lengths around the chunk size, a power of two beyond `u32`, and the
/// top cached level.
const COMBINE_LENS: [u64; 8] = [0, 1, 4095, 4096, 4097, 1 << 20, (1 << 32) + 5, 1 << 47];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The table-driven combine equals the matrix walk on arbitrary CRC
    /// pairs (not only CRCs of real data) at every edge length.
    #[test]
    fn table_combine_matches_matrix_walk(crc_a in any::<u32>(), crc_b in any::<u32>()) {
        for len in COMBINE_LENS {
            prop_assert_eq!(
                crc32c_combine(crc_a, crc_b, len),
                matrix_walk::crc32c_combine(crc_a, crc_b, len),
                "len {}", len
            );
        }
    }
}

/// `crc32c_zeros` walks only the set bits of its length; the values are
/// those of folding zero-run CRCs with the matrix walk.
#[test]
fn zeros_matches_matrix_walk_at_edge_lengths() {
    for len in COMBINE_LENS {
        // crc(0^len) from crc(0^1) by doubling: z(2n) = combine(z(n), z(n), n).
        let mut want = 0u32;
        let mut z = seed_reference::crc32c(&[0u8]);
        let mut span = 1u64;
        let mut rest = len;
        while rest != 0 {
            if rest & 1 != 0 {
                want = matrix_walk::crc32c_combine(want, z, span);
            }
            z = matrix_walk::crc32c_combine(z, z, span);
            span <<= 1;
            rest >>= 1;
        }
        assert_eq!(crc32c_zeros(len), want, "len {len}");
    }
}

/// The hardware scan (three interleaved lanes per 4080-byte block, then a
/// serial tail) equals slicing-by-16 at every length around the lane and
/// block boundaries, at every start alignment, from a non-zero state.
#[test]
fn interleaved_scan_matches_software_path() {
    let mut buf = vec![0u8; (1 << 20) + 3 + 8];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for b in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 32) as u8;
    }
    // 3 x 1360-byte lanes = 4080: one byte short of a block, a block, one
    // over; 4096 is the size every store and VOS chunk scans; then several
    // blocks plus a tail, and 257 blocks plus a tail.
    let lens = (0..=64).chain([
        4079,
        4080,
        4081,
        4096,
        8159,
        8160,
        8161,
        12_345,
        (1 << 20) + 3,
    ]);
    for len in lens {
        for start in 0..8 {
            let data = &buf[start..start + len];
            for state in [0u32, 0xDEAD_BEEF] {
                assert_eq!(
                    crc32c_append(state, data),
                    crc32c_append_sw(state, data),
                    "len {len} start {start} state {state:#x}"
                );
            }
        }
    }
}
