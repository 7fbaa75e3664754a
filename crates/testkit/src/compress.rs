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
//!
//! ## Match table
//!
//! The parse walks the input once. At each position it hashes the 4-byte
//! prefix there into a 2^15-slot table, takes the slot's occupant as the
//! match candidate and puts the current position in its place; inside an
//! emitted match it indexes every 2nd position. Each slot is one `u64`:
//! the 4-byte prefix at the position it names in the high half,
//! `position + 1` in the low half, 0 when empty. A candidate yields a
//! match (at least 4 equal bytes) exactly when its prefix equals the
//! current one, so a step is decided from the slot alone, without a
//! dependent load of the candidate's bytes: the new slot minus the old one
//! is the match distance when the prefixes are equal, and past any legal
//! distance when they differ or the slot is empty, so one compare rejects
//! every miss, a candidate beyond the window included. No output byte
//! changes. The slots are written at the same positions, under the same
//! hash and in the same order as a table of bare positions, so every step
//! sees the same candidate, and equal prefixes are the same test as equal
//! first 4 bytes. The table of bare positions stays in the tests as the
//! reference oracle, `compress_reference`, and property tests compare the
//! two byte for byte.
//!
//! The table is allocated for one call and freed when it returns. Its
//! 32-bit position field limits the parse to inputs under 4 GiB; larger
//! inputs are emitted as literals (storage chunks are at most
//! `ChunkConfig::max` bytes, 64 KiB by default).
//!
//! ## Pre-check
//!
//! [`may_shrink`] tells a caller, for about a tenth of what [`compress`]
//! costs on incompressible input, whether compressing it is worth trying. It samples
//! [`PROBE_WINDOWS`] windows of [`PROBE_WINDOW`] bytes spread evenly over
//! the input, from its first byte to its last, and gives each the greedy
//! 4-byte-match parse on a 1,024-slot table of its own, costed in this
//! format: the varint header, one token byte per literal run of up to 128
//! and 3 bytes per match. The answer is yes when any window's stream would
//! be shorter than the window. Inputs no longer than [`PROBE_LEN`] are not
//! sampled: the answer is yes. Windows start `⌊(n − 256) / 3⌋` bytes apart
//! in an `n`-byte input, so a stretch of `⌊(n − 256) / 3⌋ + 256` bytes
//! holds a whole window wherever it lies. Like the compressor, the answer
//! is a pure function of the input's bytes.

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

/// Longest input whose positions the match table can hold: a slot keeps
/// `position + 1` in 32 bits.
const MAX_INDEXED: usize = u32::MAX as usize;

/// Multiplicative hash of a 4-byte little-endian prefix.
#[inline]
fn hash(prefix: u32) -> usize {
    (prefix.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The 4-byte little-endian prefix at `pos`.
#[inline]
fn prefix_at(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + MIN_MATCH].try_into().expect("4-byte slice"))
}

/// A match-table slot naming `pos`: its prefix high, `pos + 1` low.
#[inline]
fn slot(prefix: u32, pos: usize) -> u64 {
    (u64::from(prefix) << 32) | (pos as u64 + 1)
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
    if input.len() < MIN_MATCH || input.len() > MAX_INDEXED {
        flush_literals(&mut out, input);
        return out;
    }
    // table[h] = slot of the most recent position whose prefix hashed to h.
    let mut table = vec![0u64; 1 << HASH_BITS];
    // The last position with a whole prefix.
    let last = input.len() - MIN_MATCH;
    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos <= last {
        let prefix = prefix_at(input, pos);
        let h = hash(prefix);
        let new = slot(prefix, pos);
        // Every slot names an earlier position, so when the prefixes are
        // equal the difference of the slots is the match distance. An
        // empty slot gives `pos + 1` and a different prefix at least 2^32:
        // one compare rejects both, and a candidate out of the window.
        let dist = new.wrapping_sub(table[h]);
        table[h] = new;
        if dist > pos.min(WINDOW) as u64 {
            pos += 1;
            continue;
        }
        let cand = pos - dist as usize;
        let limit = (input.len() - pos).min(MAX_MATCH);
        let mut matched = MIN_MATCH;
        while matched < limit && input[cand + matched] == input[pos + matched] {
            matched += 1;
        }
        flush_literals(&mut out, &input[lit_start..pos]);
        out.push(0x80 | (matched - MIN_MATCH) as u8);
        out.extend_from_slice(&((pos - cand) as u16).to_le_bytes());
        // Index the interior of the match sparsely (every 2nd byte):
        // keeps long runs fast while still catching nearby repeats.
        let end = pos + matched;
        pos += 1;
        while pos < end {
            if pos <= last {
                let p = prefix_at(input, pos);
                table[hash(p)] = slot(p, pos);
            }
            pos += 2;
        }
        pos = end;
        lit_start = pos;
    }
    flush_literals(&mut out, &input[lit_start..]);
    out
}

/// Bytes in one window [`may_shrink`] parses.
pub const PROBE_WINDOW: usize = 256;

/// Windows [`may_shrink`] parses per input.
pub const PROBE_WINDOWS: usize = 4;

/// Longest input [`may_shrink`] does not sample: its windows together.
pub const PROBE_LEN: usize = PROBE_WINDOW * PROBE_WINDOWS;

/// Match-table bits of a window's parse: 1,024 slots.
const PROBE_HASH_BITS: u32 = 10;

/// Whether compressing `input` may shrink it: `false` only when none of
/// [`PROBE_WINDOWS`] windows of [`PROBE_WINDOW`] bytes, the `k`-th at
/// `k · ⌊(n − 256) / 3⌋` in an `n`-byte input, would shrink under a greedy
/// parse costed in this codec's format. Inputs up to [`PROBE_LEN`] bytes
/// are not sampled and always may. Deterministic in `input`'s bytes.
pub fn may_shrink(input: &[u8]) -> bool {
    if input.len() <= PROBE_LEN {
        return true;
    }
    let step = (input.len() - PROBE_WINDOW) / (PROBE_WINDOWS - 1);
    (0..PROBE_WINDOWS).any(|k| {
        let window = &input[k * step..][..PROBE_WINDOW];
        window_cost(window) < window.len()
    })
}

/// Bytes [`compress`]'s format would hold `window` (at least [`MIN_MATCH`]
/// bytes, at most 2^16) in, by a greedy parse that takes each position's
/// most recent earlier position with the same 4-byte-prefix hash as its
/// candidate.
fn window_cost(window: &[u8]) -> usize {
    // table[h] = 1 + the most recent position whose prefix hashed to h.
    let mut table = [0u16; 1 << PROBE_HASH_BITS];
    let literal_cost = |n: usize| n + n.div_ceil(MAX_LITERALS);
    let mut cost = varint_len(window.len() as u64);
    let last = window.len() - MIN_MATCH;
    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos <= last {
        let prefix = prefix_at(window, pos);
        let h = (prefix.wrapping_mul(0x9E37_79B1) >> (32 - PROBE_HASH_BITS)) as usize;
        let cand = table[h] as usize;
        table[h] = pos as u16 + 1;
        if cand == 0 || prefix_at(window, cand - 1) != prefix {
            pos += 1;
            continue;
        }
        let cand = cand - 1;
        let limit = (window.len() - pos).min(MAX_MATCH);
        let mut matched = MIN_MATCH;
        while matched < limit && window[cand + matched] == window[pos + matched] {
            matched += 1;
        }
        cost += literal_cost(pos - lit_start) + 3;
        pos += matched;
        lit_start = pos;
    }
    cost + literal_cost(window.len() - lit_start)
}

/// Bytes [`push_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
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

/// The compressor as it was before the prefix-carrying match table: a
/// table of bare positions, each candidate's bytes compared from the
/// first. The oracle that [`compress`] must equal byte for byte.
#[cfg(test)]
fn compress_reference(input: &[u8]) -> Vec<u8> {
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

#[cfg(test)]
#[inline]
fn hash4(bytes: &[u8]) -> usize {
    // Multiplicative hash over the 4-byte little-endian prefix.
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
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
    fn window_edge_matches_the_reference() {
        // A random 64-byte block repeated exactly WINDOW - 1, WINDOW and
        // WINDOW + 1 bytes later, with random filler between: the last
        // distance is one past what a match may reach.
        let mut rng = Rng::seed_from_u64(0x57_1D0E);
        let random: Vec<u8> = (0..WINDOW + 64).map(|_| rng.next_u64() as u8).collect();
        let (block, filler) = random.split_at(64);
        let stream_len = |dist: usize| {
            let data = [block, &filler[..dist - block.len()], block].concat();
            let c = compress(&data);
            assert_eq!(c, compress_reference(&data), "distance {dist}");
            assert_eq!(decompress(&c).expect("decompress"), data);
            c.len()
        };
        let beyond = stream_len(WINDOW + 1);
        assert!(stream_len(WINDOW) < beyond, "a repeat at the edge is found, one past it is not");
        assert!(stream_len(WINDOW - 1) < beyond);
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

    #[test]
    fn the_pre_check_samples_four_windows() {
        let mut rng = Rng::seed_from_u64(0x5A3D1E);
        let random = |rng: &mut Rng, n: usize| -> Vec<u8> {
            (0..n).map(|_| rng.next_u64() as u8).collect()
        };
        // Short inputs are not sampled, however random.
        for n in [0, 1, MIN_MATCH, PROBE_WINDOW, PROBE_LEN] {
            assert!(may_shrink(&random(&mut rng, n)), "{n} bytes");
        }
        for n in [PROBE_LEN + 1, 4000, 8192, 65_536] {
            let data = random(&mut rng, n);
            assert!(!may_shrink(&data), "{n} random bytes");
            // Zeros over any one window pass; zeros everywhere but the
            // windows do not, so only the windows are read.
            let step = (n - PROBE_WINDOW) / (PROBE_WINDOWS - 1);
            let mut outside = vec![0u8; n];
            for k in 0..PROBE_WINDOWS {
                let window = k * step..k * step + PROBE_WINDOW;
                outside[window.clone()].copy_from_slice(&data[window.clone()]);
                let mut zeroed = data.clone();
                zeroed[window].fill(0);
                assert!(may_shrink(&zeroed), "{n} bytes, zeros over window {k}");
            }
            assert!(!may_shrink(&outside), "{n} bytes, zeros outside the windows");
        }
        assert_eq!(window_cost(&[0; PROBE_WINDOW]), 10, "header, a literal, two matches");
        assert_eq!(window_cost(&random(&mut rng, PROBE_WINDOW)), 260, "header and two runs");
    }

}

#[cfg(test)]
mod proptests {
    use super::{compress, compress_reference, declared_len, decompress, WINDOW};
    use crate::prelude::*;
    use crate::rng::Rng;

    /// Longest input of the seeded families: past the 64 KiB window.
    const LONG: usize = 200 * 1024;

    fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn low_entropy(rng: &mut Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| (rng.next_u64() % 4) as u8).collect()
    }

    /// Runs of the other families back to back, plus copies of earlier
    /// bytes from near, from around the window's edge, and from anywhere.
    fn mixed(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let n = (rng.next_u64() % 4096) as usize + 1;
            match rng.next_u64() % 5 {
                0 => out.extend(random_bytes(rng, n)),
                1 => out.extend(low_entropy(rng, n)),
                2 => out.resize(out.len() + n, 0),
                3 => out.extend(compress(&low_entropy(rng, n))),
                _ if !out.is_empty() => {
                    let dist = match rng.next_u64() % 3 {
                        0 => 1 + rng.next_u64() % 64,
                        1 => WINDOW as u64 - 8 + rng.next_u64() % 16,
                        _ => 1 + rng.next_u64() % (WINDOW as u64 + 4096),
                    };
                    let from = out.len() - (dist as usize).min(out.len());
                    for i in 0..n.min(300) {
                        let b = out[from + i]; // may re-read bytes this copy wrote
                        out.push(b);
                    }
                }
                _ => {}
            }
        }
        out.truncate(len);
        out
    }

    /// 0 to 200 KiB from a seed and a length (two draws per case): random,
    /// low-entropy, all-zero, pre-compressed and mixed bytes.
    fn long_payload() -> BoxedStrategy<Vec<u8>> {
        fn family(make: fn(&mut Rng, usize) -> Vec<u8>) -> BoxedStrategy<Vec<u8>> {
            (any::<u64>(), 0usize..LONG)
                .prop_map(move |(seed, len)| make(&mut Rng::seed_from_u64(seed), len))
                .boxed()
        }
        prop_oneof![
            family(random_bytes),
            family(low_entropy),
            family(|_, len| vec![0u8; len]),
            family(|rng, len| compress(&mixed(rng, len))),
            family(mixed),
        ]
        .boxed()
    }

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

        #[test]
        fn compress_matches_reference(data in prop_oneof![1 => payload(), 4 => long_payload()]) {
            prop_assert_eq!(compress(&data), compress_reference(&data));
        }

        /// Real streams (of low-entropy inputs, so they hold match
        /// tokens) with bytes flipped, cut off or appended: `decompress`
        /// yields exactly the declared length or nothing, never panics, and
        /// fails whenever the header does.
        #[test]
        fn mutated_streams_fail_closed(
            seed in any::<u64>(),
            len in 0usize..8192,
            edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1usize..4)
        ) {
            let mut stream = compress(&low_entropy(&mut Rng::seed_from_u64(seed), len));
            for (kind, at, byte) in edits {
                match kind {
                    0 if !stream.is_empty() => {
                        let i = (at % stream.len() as u64) as usize;
                        stream[i] ^= byte.max(1);
                    }
                    1 => stream.truncate((at % (stream.len() as u64 + 1)) as usize),
                    _ => stream.extend((0..=at % 4).map(|k| byte.wrapping_add(k as u8))),
                }
            }
            let declared = declared_len(&stream);
            if let Some(out) = decompress(&stream) {
                prop_assert_eq!(Some(out.len()), declared);
            }
            if declared.is_none() {
                prop_assert_eq!(decompress(&stream), None);
            }
        }
    }
}
