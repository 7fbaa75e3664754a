//! CRC-32 (IEEE 802.3 polynomial), implemented in-repo to keep the
//! dependency surface at the workspace's allowed set. Used to detect torn
//! and corrupted records in the [`crate::FileStore`] log.
//!
//! One function, [`crc32`], with two kernels chosen at run time by CPU
//! feature detection alone:
//!
//! * **Carry-less multiply folding** (x86-64 with PCLMULQDQ and SSE4.1):
//!   four 128-bit lanes fold 64 input bytes per step, are folded into one
//!   lane, and a Barrett step reduces that to the 32-bit CRC (Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel, 2009). Inputs shorter than one fold step and the
//!   final <16 bytes go through the portable kernel, continuing from the
//!   folded register.
//! * **Slice-by-16** (portable; the only kernel on other targets and CPUs):
//!   sixteen 256-entry tables let one step fold 16 input bytes with 16
//!   independent lookups instead of a 16-deep chain of dependent ones.
//!
//! Both compute exactly the bytewise definition (kept as the test oracle,
//! `crc32_reference`), so stored checksums are the same on every host.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB88320;

/// Slice-by-16 lookup tables, built at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of a byte slice (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` —
/// the standard zlib/`cksum -o 3` variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of `a ++ bytes`, given `crc`, the CRC-32 of `a`:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, so a message held in
/// parts is checksummed without joining them.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        // SAFETY: `detected` just confirmed this CPU has every feature the
        // kernel is compiled for (PCLMULQDQ and SSE4.1).
        return !unsafe { clmul::update(!crc, bytes) };
    }
    !slice16(!crc, bytes)
}

/// The portable kernel: advance the CRC register `crc` (the inverted
/// running value) over `bytes`, 16 bytes per step.
fn slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        // Byte `j` of the block is followed by `15 - j` more bytes, so its
        // contribution comes from table `15 - j`.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less multiply folding kernel (x86-64 only).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // The bit-reflected CRC-32 constants tabulated at the end of Gopal et
    // al. (2009): K1/K2 fold a lane across 4 × 128 bits, K3/K4 across 128
    // bits, K5 reduces 96 bits to 64, and P(x)/µ drive the Barrett step.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the CRC register `crc` over `bytes`. Identical to
    /// [`super::slice16`] on every input.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, mut rest)) = blocks.split_first_chunk::<4>() else {
            return super::slice16(crc, bytes); // shorter than one fold step
        };
        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        // Fold 4 × 128 bits per step while at least 64 bytes remain.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while let Some((group, more)) = rest.split_first_chunk::<4>() {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold(*lane, load(block), k1k2);
            }
            rest = more;
        }

        // Fold the four lanes into one, then the remaining whole blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(fold(fold(lanes[0], lanes[1], k3k4), lanes[2], k3k4), lanes[3], k3k4);
        for block in rest {
            x = fold(x, load(block), k3k4);
        }

        // 128 -> 64 bits.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, 64 -> 32 bits.
        let poly_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;

        super::slice16(folded, tail)
    }

    /// Fold lane `acc` forward by the distance `k` encodes and add `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, `loadu` has no alignment
        // requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// The bytewise (Sarwate) definition every kernel must match.
#[cfg(test)]
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for b in bytes {
        let idx = ((crc ^ *b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc ^ 0xFFFF_FFFF
}

/// The four bytes that, appended to `prefix`, give CRC-32 `target`: how
/// tests forge collisions. CRC-32 is invertible over its last four bytes.
/// The table entries' top bytes are all distinct, so each of the four
/// table indices the final register needs is found from one byte of it,
/// and each appended byte then follows from the register before it.
#[cfg(test)]
pub(crate) fn forge_tail(prefix: &[u8], target: u32) -> [u8; 4] {
    let table = &TABLES[0];
    let with_top = |top: u32| table.iter().position(|t| t >> 24 == top).expect("a permutation");
    let mut need = !target;
    let mut idx = [0usize; 4];
    for k in (0..4).rev() {
        let shift = 8 * (3 - k);
        idx[k] = with_top((need >> (24 - shift)) & 0xFF);
        need ^= table[idx[k]] >> shift;
    }
    let mut reg = !crc32(prefix);
    let mut tail = [0u8; 4];
    for (byte, &i) in tail.iter_mut().zip(&idx) {
        *byte = (reg ^ i as u32) as u8;
        reg = (reg >> 8) ^ table[i];
    }
    tail
}

/// A kernel's name and the finalized CRC it computes.
#[cfg(test)]
type Kernel = (&'static str, fn(&[u8]) -> u32);

/// Every kernel this host can run, called directly (not through the
/// dispatch in [`crc32`]). Slice-by-16 always runs; the carry-less kernel
/// runs when the CPU has its features.
#[cfg(test)]
fn kernels() -> Vec<Kernel> {
    let mut kernels: Vec<Kernel> = vec![("slice-by-16", |b| !slice16(!0, b))];
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        kernels.push(("carry-less multiply", |b| {
            // SAFETY: this kernel is listed only after `detected` confirmed
            // the CPU features it is compiled for.
            !unsafe { clmul::update(!0, b) }
        }));
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7BE43);
        // Longer than one 16-byte block, with a remainder.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414FA339);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn matches_reference_at_every_length_and_alignment() {
        // Every length up to 1 KiB at every start offset: below one fold
        // step, the 4-lane loop with 0..3 leftover blocks, and every
        // <16-byte tail, for each kernel on its own and for the dispatch.
        let buf: Vec<u8> = (0..1040u32).map(|i| (i.wrapping_mul(151) ^ (i >> 3)) as u8).collect();
        let kernels = kernels();
        println!("kernels checked: {:?}", kernels.iter().map(|k| k.0).collect::<Vec<_>>());
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                let want = crc32_reference(s);
                for (name, kernel) in &kernels {
                    assert_eq!(kernel(s), want, "{name}: start {start} len {len}");
                }
                assert_eq!(crc32(s), !slice16(!0, s), "dispatch: start {start} len {len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;

    proptest! {
        #[test]
        fn equal_inputs_equal_crcs(data in prop::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(crc32(&data), crc32(&data.clone()));
        }

        #[test]
        fn appending_changes_crc(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let mut longer = data.clone();
            longer.push(0xAB);
            // Not cryptographically guaranteed, but holds for CRC-32 with a
            // single appended byte.
            prop_assert_ne!(crc32(&data), crc32(&longer));
        }

        #[test]
        fn matches_bytewise_reference(data in prop::collection::vec(any::<u8>(), 0..65_536)) {
            prop_assert_eq!(crc32(&data), crc32_reference(&data));
        }

        #[test]
        fn forged_tails_hit_their_target(
            prefix in prop::collection::vec(any::<u8>(), 0..300),
            target in any::<u32>(),
        ) {
            let tail = forge_tail(&prefix, target);
            prop_assert_eq!(crc32_reference(&[&prefix[..], &tail].concat()), target);
        }

        #[test]
        fn extending_equals_checksumming_the_whole(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            at in any::<usize>(),
        ) {
            let (a, b) = data.split_at(at % (data.len() + 1));
            prop_assert_eq!(crc32_extend(crc32(a), b), crc32_reference(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_kernel_matches_reference_up_to_1mib(
            data in prop::collection::vec(any::<u8>(), 0..=1 << 20)
        ) {
            let want = crc32_reference(&data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(kernel(&data), want, "{}", name);
            }
            prop_assert_eq!(crc32(&data), !slice16(!0, &data));
        }
    }
}
