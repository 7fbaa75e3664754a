//! CRC-32 (IEEE 802.3 polynomial), implemented in-repo to keep the
//! dependency surface at the workspace's allowed set. Used to detect torn
//! and corrupted records in the [`crate::FileStore`] log.
//!
//! The kernel is slice-by-16: sixteen 256-entry tables let one step fold
//! 16 input bytes with 16 independent lookups instead of a 16-deep chain
//! of dependent ones. It computes exactly the bytewise definition (kept as
//! the test oracle, `crc32_reference`), so stored checksums are unchanged.

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
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
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
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// The bytewise (Sarwate) definition the slice-by-16 kernel must match.
#[cfg(test)]
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for b in bytes {
        let idx = ((crc ^ *b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    crc ^ 0xFFFF_FFFF
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
        // Every block remainder (0..16) at every start offset, across zero,
        // one, and several whole blocks.
        let buf: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(151) ^ (i >> 3)) as u8).collect();
        for start in 0..16 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
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
    }
}
