//! In-tree LZ-style compressor (replaces `lz4`/`snap`/`zstd` bindings,
//! keeping the build hermetic).
//!
//! The storage engine compresses checkpoint chunks before they hit the
//! blob log. Notebook payloads are highly compressible in exactly the way
//! LZ77 exploits — sealed co-variables are full of repeated structure
//! (array runs, repeated keys, copied sub-objects) — so a greedy
//! match-based scheme with a small fixed window captures most of the win
//! with no tables to ship and no registry dependency.
//!
//! ## Format
//!
//! ```text
//! compressed := varint(raw_len) token*
//! token      := 0x00..=0x7F  followed by (T + 1) literal bytes
//!             | 0x80..=0xFF  followed by distance: u16 (LE, 1-based)
//!                            meaning: copy ((T & 0x7F) + MIN_MATCH) bytes
//!                            from `distance` bytes back in the output
//! ```
//!
//! `varint` is the usual LEB128 (7 bits per byte, high bit = continue).
//! Matches may self-overlap (`distance < length` copies a repeating
//! pattern), which is what makes all-zero payloads collapse to a few
//! bytes. Decompression is fully deterministic and validates that the
//! output length matches the header exactly.
//!
//! The compressor is *canonical*: identical input bytes always produce
//! identical compressed bytes (greedy parse over a deterministic hash
//! chain), which the chunk-dedup layer relies on — it keys chunks by
//! their stored (post-compression) form.

/// Shortest match worth encoding: a match token costs 3 bytes, so
/// anything shorter than 4 is better spent as literals.
const MIN_MATCH: usize = 4;

/// Longest match one token can encode: `(0x7F) + MIN_MATCH`.
const MAX_MATCH: usize = 0x7F + MIN_MATCH;

/// Longest literal run one token can encode.
const MAX_LITERALS: usize = 0x80;

/// Match window: how far back a match distance may reach (u16 limit).
const WINDOW: usize = u16::MAX as usize;

/// Hash-table size for 4-byte-prefix match candidates (power of two).
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Multiplicative hash over the 4-byte little-endian prefix.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return None; // overflow: not a length we ever wrote
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for run in lits.chunks(MAX_LITERALS) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Compress `input`. The output always decompresses to exactly `input`;
/// it is *not* guaranteed to be smaller (incompressible data grows by the
/// header plus ~1 byte per 128 — callers keep a stored-form fallback).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 10);
    push_varint(&mut out, input.len() as u64);
    if input.len() < MIN_MATCH {
        flush_literals(&mut out, input);
        return out;
    }
    // head[h] = most recent position whose 4-byte prefix hashed to h.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let h = hash4(&input[pos..]);
        let cand = head[h];
        head[h] = pos;
        let mut matched = 0usize;
        if cand != usize::MAX && pos - cand <= WINDOW {
            let limit = (input.len() - pos).min(MAX_MATCH);
            while matched < limit && input[cand + matched] == input[pos + matched] {
                matched += 1;
            }
        }
        if matched >= MIN_MATCH {
            flush_literals(&mut out, &input[lit_start..pos]);
            out.push(0x80 | (matched - MIN_MATCH) as u8);
            out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
            // Index the interior of the match sparsely (every 2nd byte):
            // keeps long runs fast while still catching nearby repeats.
            let end = pos + matched;
            pos += 1;
            while pos < end {
                if pos + MIN_MATCH <= input.len() {
                    head[hash4(&input[pos..])] = pos;
                }
                pos += 2;
            }
            pos = end;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// The raw length a stream's header declares and the offset of its first
/// token. `None` for a truncated or overflowing header, or a claim larger
/// than the remaining stream can expand to: each token byte yields at most
/// MAX_MATCH output bytes, so a forged length fails here, before anyone
/// allocates for it.
fn header(input: &[u8]) -> Option<(usize, usize)> {
    let mut pos = 0usize;
    let raw_len = read_varint(input, &mut pos)? as usize;
    if raw_len > (input.len() - pos).saturating_mul(MAX_MATCH).max(1) {
        return None;
    }
    Some((raw_len, pos))
}

/// The raw length a stream produced by [`compress`] declares, without
/// decompressing it. `None` when [`decompress`] would reject the header:
/// truncated, or claiming more than the stream can expand to.
pub fn declared_len(input: &[u8]) -> Option<usize> {
    header(input).map(|(raw_len, _)| raw_len)
}

/// Decompress bytes produced by [`compress`]. Fails (returns `None`) on
/// any malformed input: truncated stream, distance reaching before the
/// start of output, or an output length that disagrees with the header.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    // The header is bounded by the stream, and the preallocation is capped
    // either way, so a forged length cannot abort the process.
    let (raw_len, mut pos) = header(input)?;
    let mut out = Vec::with_capacity(raw_len.min(1 << 22));
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        if token < 0x80 {
            let n = token as usize + 1;
            let run = input.get(pos..pos + n)?;
            out.extend_from_slice(run);
            pos += n;
        } else {
            let len = (token & 0x7F) as usize + MIN_MATCH;
            let dist = input.get(pos..pos + 2).map(|d| u16::from_le_bytes([d[0], d[1]]))?;
            pos += 2;
            let dist = dist as usize;
            if dist == 0 || dist > out.len() {
                return None;
            }
            // Byte-at-a-time copy: self-overlapping matches (dist < len)
            // intentionally re-read bytes this same copy produced.
            let start = out.len() - dist;
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
        if out.len() > raw_len {
            return None;
        }
    }
    (out.len() == raw_len).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "round-trip mismatch ({} bytes)", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn all_zero_payload_collapses() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        // One 3-byte match token covers at most MAX_MATCH output bytes, so
        // the best possible ratio is ~43x; assert we get close to it.
        assert!(c.len() < data.len() / 40, "zeros compressed to {} bytes", c.len());
        assert_eq!(decompress(&c).expect("decompress"), data);
    }

    #[test]
    fn repetitive_structure_compresses() {
        let row = b"{\"key\": 1234, \"values\": [1.0, 2.0, 3.0]}\n";
        let data: Vec<u8> = row.iter().cycle().take(20_000).copied().collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "repetitive data compressed to {}", c.len());
        assert_eq!(decompress(&c).expect("decompress"), data);
    }

    #[test]
    fn incompressible_data_grows_only_slightly() {
        let mut rng = Rng::seed_from_u64(0xDEAD);
        let data: Vec<u8> = (0..10_000).map(|_| rng.next_u64() as u8).collect();
        let c = compress(&data);
        // Worst case: varint header + one token byte per 128 literals.
        assert!(c.len() <= data.len() + data.len() / MAX_LITERALS + 10);
        assert_eq!(decompress(&c).expect("decompress"), data);
    }

    #[test]
    fn compression_is_canonical() {
        let mut rng = Rng::seed_from_u64(7);
        let data: Vec<u8> = (0..5_000).map(|_| (rng.next_u64() % 7) as u8).collect();
        assert_eq!(compress(&data), compress(&data));
    }

    #[test]
    fn already_compressed_data_roundtrips() {
        let row: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let once = compress(&row);
        roundtrip(&once); // compressing compressed output must stay lossless
    }

    #[test]
    fn golden_bytes_stay_stable() {
        // Format drift guard: these exact bytes are what today's encoder
        // produces; a change here is a format break and must be deliberate
        // (stored chunks on disk would stop matching their dedup keys).
        assert_eq!(compress(b""), vec![0x00]);
        assert_eq!(compress(b"A"), vec![0x01, 0x00, b'A']);
        // 12 zeros: varint(12), one literal zero, then a self-overlapping
        // match of 11 at distance 1.
        assert_eq!(compress(&[0u8; 12]), vec![0x0C, 0x00, 0x00, 0x80 | 7, 0x01, 0x00]);
    }

    #[test]
    fn malformed_inputs_fail_closed() {
        assert_eq!(decompress(&[]), None, "missing header");
        assert_eq!(decompress(&[0x05]), None, "header promises bytes that never come");
        assert_eq!(decompress(&[0x04, 0x84, 0x01, 0x00]), None, "match before start");
        assert_eq!(decompress(&[0x01, 0x7F, b'x']), None, "truncated literal run");
        // A header claiming 2^50 bytes from a 3-byte stream.
        let forged = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x00, 0x00, b'x'];
        assert_eq!(declared_len(&forged), None, "claim beyond what the stream expands to");
        assert_eq!(decompress(&forged), None);
        let valid = compress(b"hello hello hello hello");
        assert_eq!(declared_len(&valid), Some(23));
        for cut in 0..valid.len() {
            // Every strict prefix must fail (length check catches them all).
            assert_eq!(decompress(&valid[..cut]), None, "prefix {cut} accepted");
        }
    }

}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;

    /// Adversarial payload families: uniform random bytes, low-entropy
    /// runs, all-zero, and pre-compressed output (already-compressed data
    /// exercises the incompressible path).
    fn payload() -> BoxedStrategy<Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0usize..4096).boxed(),
            prop::collection::vec(0u8..4, 0usize..4096).boxed(),
            (0usize..4096).prop_map(|n| vec![0u8; n]).boxed(),
            prop::collection::vec(any::<u8>(), 0usize..2048)
                .prop_map(|v| crate::compress::compress(&v))
                .boxed(),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_is_lossless(data in payload()) {
            let c = crate::compress::compress(&data);
            prop_assert_eq!(crate::compress::declared_len(&c), Some(data.len()));
            prop_assert_eq!(crate::compress::decompress(&c), Some(data));
        }

        #[test]
        fn zero_and_one_byte_payloads(b in any::<u8>()) {
            for data in [vec![], vec![b]] {
                let c = crate::compress::compress(&data);
                prop_assert_eq!(crate::compress::decompress(&c), Some(data));
            }
        }

        #[test]
        fn decompress_never_panics_on_garbage(
            data in prop::collection::vec(any::<u8>(), 0usize..512)
        ) {
            let _ = crate::compress::decompress(&data); // may be None; must not panic
        }
    }
}
