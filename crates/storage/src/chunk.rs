//! Content-defined chunking for the storage engine v2.
//!
//! Blob-level dedup misses the dominant notebook pattern: one large object
//! mutated slightly each cell produces a brand-new sealed payload every
//! time, so whole-payload content keys never match. Splitting payloads at
//! *content-determined* boundaries (a Gear rolling hash, as in FastCDC and
//! its ancestors) fixes that: a one-byte edit moves at most the chunk it
//! lands in and its immediate neighbor, and every other chunk keeps its
//! exact bytes — and therefore its dedup key.
//!
//! This module owns the three pieces the stores share:
//!
//! * [`ChunkConfig`] — the knobs, fixed at store construction;
//! * [`chunk_spans`] — the deterministic cutter;
//! * [`ChunkLedger`] — chunk-level dedup (by the stored form's bytes, found
//!   through its CRC-32 and length) and the [`ChunkStats`] aggregate, whose
//!   `chunk_refs` counts the manifest slots that point at stored chunks.
//!
//! Chunks are persisted in their **stored form**: a one-byte flag (`0` =
//! stored raw, `1` = compressed with [`kishu_testkit::compress`]) followed
//! by the data. Compression is applied per chunk and kept only when it
//! wins, so an incompressible chunk costs exactly one flag byte. Because
//! the compressor is canonical (same input, same output), deduplicating on
//! the stored form is equivalent to deduplicating on the raw chunk bytes —
//! and lets `FileStore::open` rebuild the ledger from disk without
//! decompressing anything.
//!
//! The ledger files each chunk under the CRC-32 and length of its stored
//! form. Every chunk frame already records that CRC, so a reopened store
//! registers each chunk under the CRC it has just verified and computes no
//! other hash. A key only names candidates: a chunk dedups against a
//! stored one when the store ([`ChunkSink::holds`]) confirms that the
//! stored chunk reads back intact with exactly its bytes. A CRC collision
//! therefore costs a comparison, not a wrong dedup, and a damaged chunk is
//! appended again rather than shared.
//!
//! [`ChunkLedger::ingest`] looks each chunk up under its raw stored form,
//! `[CHUNK_STORED] ++ raw`, before it attempts compression, and compresses
//! only on a miss. A chunk is held raw only because [`encode_chunk`], a
//! pure function, lost compression on exactly those bytes, so a hit there
//! is the hit the compressed attempt would have led to: a repeat chunk
//! costs one CRC pass and a comparison instead of a compression attempt,
//! while the ords, stored bytes and receipts stay what encoding first
//! would give. On a miss a winning compression is looked up as its
//! compressed form, and a losing one is appended as the raw form already
//! checksummed; either way the CRC handed to the store for the frame is
//! the one the lookup computed.
//!
//! The cutter's Gear hash is `hash = (hash << 1) + GEAR[byte]` over a
//! `u64`, so a byte's term has shifted out after 64 more bytes: the hash
//! at a position depends only on the last 64 bytes up to it. No chunk can
//! end before `min` bytes, so [`chunk_spans`] starts each chunk's hash 64
//! bytes before its first legal cut (or at the chunk's start, when `min`
//! is under 64) and its inner loop tests only the mask; the `max` bound is
//! the length of the slice it scans. Every hash it tests equals the hash a
//! byte-by-byte pass from the chunk's start would have there, so the cut
//! points, the chunks and every stored byte are the same as before the
//! warm-up. That byte-by-byte cutter stays in the tests as the reference
//! oracle, `chunk_spans_reference`.
//!
//! Everything here is representation-only: with chunking on or off, a
//! store's logical view (ids, payloads, stats minus physical bytes) is
//! byte-identical. [`ChunkConfig::disabled`] produces bit-identical v1 log
//! frames.

use std::collections::HashMap;
use std::io;

use kishu_testkit::compress;

use crate::crc32::{crc32, crc32_extend};

/// Chunk stored-form flag: raw bytes follow.
pub const CHUNK_STORED: u8 = 0;
/// Chunk stored-form flag: compressed bytes follow.
pub const CHUNK_COMPRESSED: u8 = 1;

/// 256-entry Gear table, fixed for the lifetime of the on-disk format
/// (changing it re-cuts every payload and orphans existing chunks).
/// Generated by splitmix64 from a fixed seed at compile time.
static GEAR: [u64; 256] = gear_table();

const fn gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x4B49_5348_5543_4443; // "KISHUCDC"
    let mut i = 0;
    while i < 256 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Chunking knobs, fixed at store construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkConfig {
    /// Master switch (default on). On, every chunk is stored compressed
    /// when compression wins ([`encode_chunk`]); off, every put writes a
    /// bit-identical v1 frame.
    pub enabled: bool,
    /// Minimum chunk size; payloads smaller than this bypass chunking
    /// entirely.
    pub min: usize,
    /// Target average chunk size; rounded up to a power of two for the
    /// boundary mask.
    pub avg: usize,
    /// Hard maximum chunk size.
    pub max: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        ChunkConfig {
            enabled: true,
            min: 2048,
            avg: 8192,
            max: 65536,
        }
    }
}

impl ChunkConfig {
    /// The v1 behavior: no chunking, and so no compression.
    pub fn disabled() -> Self {
        ChunkConfig {
            enabled: false,
            ..ChunkConfig::default()
        }
    }

    /// Whether `len` payload bytes should be chunked at all under this
    /// config (tiny payloads stay v1 frames even with chunking on).
    pub fn chunks_payload(&self, len: usize) -> bool {
        self.enabled && len >= self.min
    }

    /// Boundary mask: a cut point is where the rolling hash has this many
    /// trailing zeros, giving `avg.next_power_of_two()` expected spacing.
    fn mask(&self) -> u64 {
        (self.avg.next_power_of_two() as u64) - 1
    }
}

/// Split `bytes` at content-determined boundaries. Deterministic: the cut
/// points depend only on the bytes and the config. Every span is within
/// `[min, max]` except possibly the final one (which may be shorter).
pub fn chunk_spans(bytes: &[u8], cfg: &ChunkConfig) -> Vec<std::ops::Range<usize>> {
    let mask = cfg.mask();
    // A length is at least 1, so `min` and `max` of 0 cut like 1.
    let (min, max) = (cfg.min.max(1), cfg.max.max(1));
    let mut spans = Vec::with_capacity(bytes.len() / cfg.avg.max(1) + 1);
    let mut start = 0usize;
    while start < bytes.len() {
        let window = &bytes[start..][..max.min(bytes.len() - start)];
        let len = chunk_len(window, min, mask);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Length of the chunk at the front of `window`, which holds the next
/// `max` bytes (or all that is left): the first length of at least `min`
/// where the Gear hash has no bit of `mask` set, else the whole window.
/// The hash starts 64 bytes before the first legal cut and goes untested
/// until it, since bytes further back than 64 have shifted out of it.
fn chunk_len(window: &[u8], min: usize, mask: u64) -> usize {
    let first = min - 1; // index of the last byte of the shortest legal chunk
    if first >= window.len() {
        return window.len();
    }
    let mut hash = 0u64;
    for &b in &window[first.saturating_sub(63)..first] {
        hash = (hash << 1).wrapping_add(GEAR[b as usize]);
    }
    for (i, &b) in window[first..].iter().enumerate() {
        hash = (hash << 1).wrapping_add(GEAR[b as usize]);
        if hash & mask == 0 {
            return first + i + 1;
        }
    }
    window.len()
}

/// The cutter as it was before the warm-up: one hash from each chunk's
/// first byte, testing both length bounds at every byte. The oracle that
/// [`chunk_spans`] must equal.
#[cfg(test)]
fn chunk_spans_reference(bytes: &[u8], cfg: &ChunkConfig) -> Vec<std::ops::Range<usize>> {
    let mask = cfg.mask();
    let mut spans = Vec::with_capacity(bytes.len() / cfg.avg.max(1) + 1);
    let mut start = 0usize;
    let mut hash = 0u64;
    for (pos, &b) in bytes.iter().enumerate() {
        hash = (hash << 1).wrapping_add(GEAR[b as usize]);
        let len = pos - start + 1;
        if (len >= cfg.min && hash & mask == 0) || len >= cfg.max {
            spans.push(start..pos + 1);
            start = pos + 1;
            hash = 0;
        }
    }
    if start < bytes.len() {
        spans.push(start..bytes.len());
    }
    spans
}

/// Encode one raw chunk into its stored form: `[flag][data]`, compressed
/// only when compression actually wins.
pub fn encode_chunk(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    match compressed_data(raw) {
        Some(c) => StoredForm { flag: CHUNK_COMPRESSED, data: &c }.write_to(&mut out),
        None => StoredForm { flag: CHUNK_STORED, data: raw }.write_to(&mut out),
    }
    out
}

/// `compress(raw)` when it is shorter than `raw`; `None` when compression
/// loses and the chunk is stored raw.
fn compressed_data(raw: &[u8]) -> Option<Vec<u8>> {
    let c = compress::compress(raw);
    (c.len() < raw.len()).then_some(c)
}

/// Decode a stored-form chunk and append its raw bytes to `out`: a stored
/// chunk's data is copied once, straight from `stored`. On error `out` is
/// left as it was.
pub fn decode_chunk_into(stored: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    match stored.split_first() {
        Some((&CHUNK_STORED, data)) => out.extend_from_slice(data),
        Some((&CHUNK_COMPRESSED, data)) => out.extend_from_slice(
            &compress::decompress(data).ok_or_else(|| bad("chunk failed to decompress"))?,
        ),
        Some(_) => return Err(bad("unknown chunk flag")),
        None => return Err(bad("empty chunk record")),
    }
    Ok(())
}

/// Raw (pre-compression) length of a stored-form chunk, without
/// decompressing: the compressed stream leads with its raw length, and a
/// stored chunk's raw length is just its data length. A compressed
/// stream's claim is accepted only up to what the stream could expand to
/// ([`compress::declared_len`]), so a forged length fails here.
pub fn stored_chunk_raw_len(stored: &[u8]) -> io::Result<u64> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    match stored.split_first() {
        Some((&CHUNK_STORED, data)) => Ok(data.len() as u64),
        Some((&CHUNK_COMPRESSED, data)) => compress::declared_len(data)
            .map(|n| n as u64)
            .ok_or_else(|| bad("chunk length header truncated or beyond its stream")),
        Some(_) => Err(bad("unknown chunk flag")),
        None => Err(bad("empty chunk record")),
    }
}

/// Aggregate chunk-level accounting for a store
/// ([`crate::CheckpointStore::chunk_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Distinct stored chunks.
    pub chunks: u64,
    /// Total references onto them (≥ `chunks`; the gap is dedup wins).
    pub chunk_refs: u64,
    /// Raw bytes across distinct chunks (pre-compression).
    pub raw_bytes: u64,
    /// Stored bytes across distinct chunks (post-compression, incl. flag).
    pub stored_bytes: u64,
}

impl ChunkStats {
    /// Logical-over-physical dedup ratio at the chunk level.
    pub fn dedup_ratio(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        self.chunk_refs as f64 / self.chunks as f64
    }

    /// Raw-over-stored compression ratio across distinct chunks.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.stored_bytes as f64
    }
}

/// Per-put attribution deltas returned by [`ChunkLedger::ingest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// New chunks this payload appended to the store.
    pub chunks_written: u64,
    /// Chunks this payload shared with already-stored data.
    pub chunks_deduped: u64,
    /// Stored bytes the new chunks occupy (what was physically appended).
    pub stored_bytes_written: u64,
    /// Raw bytes the new chunks represent (so `raw - stored` is the
    /// compression saving on the written portion).
    pub raw_bytes_written: u64,
}

/// A chunk's stored form, `[flag] ++ data`, held as its two parts so that
/// a raw chunk's form is checksummed, compared and framed without first
/// being copied behind its flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredForm<'a> {
    /// [`CHUNK_STORED`] or [`CHUNK_COMPRESSED`].
    pub flag: u8,
    /// The bytes after the flag.
    pub data: &'a [u8],
}

impl StoredForm<'_> {
    /// Length of the stored form, flag included.
    pub fn stored_len(&self) -> usize {
        1 + self.data.len()
    }

    /// CRC-32 of the stored form, what its frame records.
    pub fn crc(&self) -> u32 {
        crc32_extend(crc32(&[self.flag]), self.data)
    }

    /// Whether `stored` is exactly this form's bytes.
    pub fn matches(&self, stored: &[u8]) -> bool {
        stored.split_first() == Some((&self.flag, self.data))
    }

    /// Append the stored form's bytes to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.stored_len());
        out.push(self.flag);
        out.extend_from_slice(self.data);
    }
}

/// One question a [`ChunkLedger`] asks its [`ChunkSink`]: does chunk `ord`
/// hold exactly `form`, whose CRC-32 is `crc`?
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    /// The stored chunk asked about.
    pub ord: u32,
    /// CRC-32 of `form`.
    pub crc: u32,
    /// The stored form it must hold.
    pub form: StoredForm<'a>,
}

/// Where a [`ChunkLedger`]'s chunks live: the store that owns the ledger.
pub trait ChunkSink {
    /// Store a new chunk and return its ord, the next dense one. `crc` is
    /// the CRC-32 of `form`, computed once by the ledger, so the store can
    /// frame the chunk without checksumming it again.
    fn append(&mut self, form: StoredForm<'_>, crc: u32) -> io::Result<u32>;

    /// Set `held[i]` to whether chunk `probes[i].ord` holds exactly
    /// `probes[i].form` and is intact: its bytes equal the form and its
    /// recorded CRC-32 equals `probes[i].crc`. A chunk that cannot be read
    /// back does not hold it. `held` is as long as `probes`.
    fn holds(&self, probes: &[Probe<'_>], held: &mut [bool]);
}

/// Chunks held in memory, by ord: nothing can damage them, so a chunk
/// holds a form when its bytes equal it.
impl ChunkSink for Vec<Vec<u8>> {
    fn append(&mut self, form: StoredForm<'_>, _crc: u32) -> io::Result<u32> {
        let mut stored = Vec::new();
        form.write_to(&mut stored);
        self.push(stored);
        Ok((self.len() - 1) as u32)
    }

    fn holds(&self, probes: &[Probe<'_>], held: &mut [bool]) {
        for (probe, held) in probes.iter().zip(held) {
            *held = self.get(probe.ord as usize).is_some_and(|c| probe.form.matches(c));
        }
    }
}

/// The ledger key of a stored form: its CRC-32 and its length (mod 2^32).
/// A key only names candidates; equal bytes decide.
fn ledger_key(crc: u32, stored_len: usize) -> u64 {
    u64::from(crc) << 32 | u64::from(stored_len as u32)
}

/// One chunk of the payload [`ChunkLedger::ingest`] is working on.
struct Cut {
    span: std::ops::Range<usize>,
    /// The compressed data, when compression was tried and won.
    compressed: Option<Vec<u8>>,
    /// CRC-32 of the chunk's stored form as far as known: the raw form's
    /// until compression wins.
    crc: u32,
    /// The stored chunk that holds this chunk's form, once one is found.
    ord: Option<u32>,
}

impl Cut {
    fn form<'a>(&'a self, bytes: &'a [u8]) -> StoredForm<'a> {
        match &self.compressed {
            Some(c) => StoredForm { flag: CHUNK_COMPRESSED, data: c },
            None => StoredForm { flag: CHUNK_STORED, data: &bytes[self.span.clone()] },
        }
    }
}

/// Chunk-level dedup index.
///
/// Ords are dense, assigned in append order by the owning store. The
/// ledger files each stored chunk under the CRC-32 and length of its
/// stored form — the CRC its frame already carries, so a reopened store
/// registers every chunk under the CRC it has just verified and hashes
/// nothing else. A key names candidates only: a chunk dedups against a
/// stored one when the store confirms their bytes are equal
/// ([`ChunkSink::holds`]), so a CRC collision costs one comparison, never a
/// wrong dedup, and a stored chunk that no longer reads back intact is
/// never deduplicated against.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ChunkLedger {
    /// The first chunk stored under each key.
    first: HashMap<u64, u32>,
    /// Later chunks stored under a key already held, in append order: true
    /// CRC collisions, and copies appended because the first one failed to
    /// read back. Empty on an undamaged store without collisions, so a
    /// chunk costs one map slot and no allocation of its own.
    more: HashMap<u64, Vec<u32>>,
    stats: ChunkStats,
}

impl ChunkLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunk a payload into the store: cut spans, find each chunk among
    /// the stored ones, and hand the rest to `sink` to append. Returns the
    /// manifest (ord per span, in payload order) and the attribution
    /// deltas.
    ///
    /// Each chunk is looked up under its raw stored form first and
    /// compressed only when no stored chunk holds that form; a chunk that
    /// compresses is then looked up under its compressed form. Candidates
    /// from before this payload are confirmed in two batches, one per
    /// lookup, so the store can read adjacent candidates back together;
    /// candidates appended by this payload are compared in memory.
    pub fn ingest<S: ChunkSink + ?Sized>(
        &mut self,
        bytes: &[u8],
        cfg: &ChunkConfig,
        sink: &mut S,
    ) -> io::Result<(Vec<u32>, IngestReceipt)> {
        let mut cuts: Vec<Cut> = chunk_spans(bytes, cfg)
            .into_iter()
            .map(|span| Cut {
                crc: StoredForm { flag: CHUNK_STORED, data: &bytes[span.clone()] }.crc(),
                span,
                compressed: None,
                ord: None,
            })
            .collect();
        self.find_stored(bytes, &mut cuts, &*sink, |_| true);
        let mut compressed_any = false;
        for cut in cuts.iter_mut().filter(|c| c.ord.is_none()) {
            if let Some(c) = compressed_data(&bytes[cut.span.clone()]) {
                cut.crc = StoredForm { flag: CHUNK_COMPRESSED, data: &c }.crc();
                cut.compressed = Some(c);
                compressed_any = true;
            }
        }
        if compressed_any {
            self.find_stored(bytes, &mut cuts, &*sink, |c| c.compressed.is_some());
        }

        // Every stored candidate from before this payload was asked about
        // above; the ones appended since are compared with their cuts.
        let first_new = self.stats.chunks as u32;
        // The cut each chunk appended by this payload came from, by ord.
        let mut appended: Vec<usize> = Vec::new();
        let mut ords = Vec::with_capacity(cuts.len());
        let mut receipt = IngestReceipt::default();
        for (i, cut) in cuts.iter().enumerate() {
            let form = cut.form(bytes);
            let key = ledger_key(cut.crc, form.stored_len());
            let appended_here = |ord: u32| {
                ord >= first_new && cuts[appended[(ord - first_new) as usize]].form(bytes) == form
            };
            let repeat = cut.ord.or_else(|| self.candidates(key).find(|&o| appended_here(o)));
            let ord = match repeat {
                Some(ord) => {
                    receipt.chunks_deduped += 1;
                    ord
                }
                None => {
                    let ord = sink.append(form, cut.crc)?;
                    let raw_len = cut.span.len() as u64;
                    self.register(cut.crc, ord, raw_len, form.stored_len() as u64);
                    appended.push(i);
                    receipt.chunks_written += 1;
                    receipt.stored_bytes_written += form.stored_len() as u64;
                    receipt.raw_bytes_written += raw_len;
                    ord
                }
            };
            self.add_refs(1);
            ords.push(ord);
        }
        Ok((ords, receipt))
    }

    /// Give every `pick`ed cut the first stored chunk that holds its
    /// current form, if any, asking `sink` about all their candidates in
    /// one call.
    fn find_stored<S: ChunkSink + ?Sized>(
        &self,
        bytes: &[u8],
        cuts: &mut [Cut],
        sink: &S,
        pick: impl Fn(&Cut) -> bool,
    ) {
        let mut owners = Vec::new();
        let mut probes = Vec::new();
        for (i, cut) in cuts.iter().enumerate().filter(|(_, c)| pick(c)) {
            let form = cut.form(bytes);
            for ord in self.candidates(ledger_key(cut.crc, form.stored_len())) {
                owners.push(i);
                probes.push(Probe { ord, crc: cut.crc, form });
            }
        }
        if probes.is_empty() {
            return;
        }
        let mut held = vec![false; probes.len()];
        sink.holds(&probes, &mut held);
        let found: Vec<(usize, u32)> = owners
            .into_iter()
            .zip(&probes)
            .zip(held)
            .filter_map(|((i, probe), held)| held.then_some((i, probe.ord)))
            .collect();
        for (i, ord) in found {
            cuts[i].ord.get_or_insert(ord);
        }
    }

    /// The stored chunks filed under `key`, in append order.
    fn candidates(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let more = if self.more.is_empty() { None } else { self.more.get(&key) };
        self.first.get(&key).copied().into_iter().chain(more.into_iter().flatten().copied())
    }

    /// Record an already-stored chunk whose stored form has CRC-32 `crc`
    /// and is `stored_len` bytes long (recovery on `open` replays the log
    /// through this, with the CRC each frame carries). `ord` must be the
    /// next dense ord.
    pub fn register(&mut self, crc: u32, ord: u32, raw_len: u64, stored_len: u64) {
        debug_assert_eq!(u64::from(ord), self.stats.chunks, "ords must stay dense");
        let key = ledger_key(crc, stored_len as usize);
        if let Some(&held) = self.first.get(&key) {
            debug_assert!(held < ord);
            self.more.entry(key).or_default().push(ord);
        } else {
            self.first.insert(key, ord);
        }
        self.stats.chunks += 1;
        self.stats.raw_bytes += raw_len;
        self.stats.stored_bytes += stored_len;
    }

    /// Count `n` more references onto stored chunks (manifest slots
    /// pointing at them).
    pub fn add_refs(&mut self, n: u64) {
        self.stats.chunk_refs += n;
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> ChunkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_testkit::rng::Rng;

    fn decode(stored: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        decode_chunk_into(stored, &mut out).expect("decode");
        out
    }

    fn payload(seed: u64, len: usize) -> Vec<u8> {
        // Low-entropy structured bytes: compressible like real sealed
        // payloads, varied enough to produce distinct chunks.
        let mut rng = Rng::seed_from_u64(seed);
        (0..len).map(|i| ((rng.next_u64() % 17) as u8).wrapping_add((i / 512) as u8)).collect()
    }

    #[test]
    fn spans_partition_the_payload() {
        let cfg = ChunkConfig::default();
        let data = payload(1, 300_000);
        let spans = chunk_spans(&data, &cfg);
        let mut expect = 0usize;
        for s in &spans {
            assert_eq!(s.start, expect, "spans are contiguous");
            assert!(s.end > s.start);
            expect = s.end;
        }
        assert_eq!(expect, data.len(), "spans cover the payload");
        for s in &spans[..spans.len() - 1] {
            assert!(s.len() >= cfg.min && s.len() <= cfg.max, "span {}B", s.len());
        }
        assert!(spans.last().expect("nonempty").len() <= cfg.max);
        assert!(spans.len() > 2, "300KB must cut into several chunks");
    }

    #[test]
    fn cutting_is_deterministic() {
        let cfg = ChunkConfig::default();
        let data = payload(2, 100_000);
        assert_eq!(chunk_spans(&data, &cfg), chunk_spans(&data, &cfg));
    }

    #[test]
    fn one_byte_insert_changes_o1_chunks() {
        // The boundary-stability property that makes CDC beat fixed-size
        // blocks: an insert only re-cuts the chunk it lands in (plus, at
        // worst, a neighbor); all other chunks keep their exact bytes.
        let cfg = ChunkConfig::default();
        let base = payload(3, 400_000);
        let mut edited = base.clone();
        edited.insert(base.len() / 2, 0xEE);

        let keys = |data: &[u8]| -> std::collections::HashSet<Vec<u8>> {
            chunk_spans(data, &cfg).into_iter().map(|s| data[s].to_vec()).collect()
        };
        let a = keys(&base);
        let b = keys(&edited);
        let changed = a.symmetric_difference(&b).count();
        assert!(a.len() > 20, "enough chunks to make the property meaningful");
        assert!(
            changed <= 6,
            "a 1-byte insert changed {changed} of {} chunks (want O(1))",
            a.len()
        );
    }

    #[test]
    fn encode_decode_roundtrip_and_incompressible_cost() {
        let compressible = vec![7u8; 10_000];
        let stored = encode_chunk(&compressible);
        assert_eq!(stored[0], CHUNK_COMPRESSED);
        assert!(stored.len() < 1_000);
        assert_eq!(decode(&stored), compressible);
        assert_eq!(stored_chunk_raw_len(&stored).expect("raw len"), 10_000);

        let mut rng = Rng::seed_from_u64(9);
        let incompressible: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let stored = encode_chunk(&incompressible);
        assert_eq!(stored[0], CHUNK_STORED, "compression that loses is not kept");
        assert_eq!(stored.len(), incompressible.len() + 1, "exactly one flag byte of cost");
        assert_eq!(decode(&stored), incompressible);
        assert_eq!(stored_chunk_raw_len(&stored).expect("raw len"), 4096);

        // Decoding appends: two chunks land back to back in one buffer.
        let mut out = b"head".to_vec();
        decode_chunk_into(&stored, &mut out).expect("stored chunk");
        decode_chunk_into(&encode_chunk(&compressible), &mut out).expect("compressed chunk");
        assert_eq!(out, [&b"head"[..], &incompressible, &compressible].concat());
    }

    #[test]
    fn forged_chunk_lengths_fail_closed() {
        // A compressed chunk whose header claims 2^50 raw bytes from a
        // few stream bytes, and garbage that fails to decode: neither
        // allocates for the claim, and a failed decode leaves `out` alone.
        let forged = [CHUNK_COMPRESSED, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0, b'x'];
        assert!(stored_chunk_raw_len(&forged).is_err());
        let mut out = b"keep".to_vec();
        assert!(decode_chunk_into(&forged, &mut out).is_err());
        assert!(decode_chunk_into(&[7, 1, 2], &mut out).is_err(), "unknown flag");
        assert!(decode_chunk_into(&[], &mut out).is_err(), "empty record");
        assert_eq!(out, b"keep");
    }

    #[test]
    fn ledger_dedups_repeat_chunks() {
        let cfg = ChunkConfig::default();
        let mut ledger = ChunkLedger::new();
        let mut store: Vec<Vec<u8>> = Vec::new();

        let data = payload(4, 120_000);
        let (ords1, r1) = ledger.ingest(&data, &cfg, &mut store).expect("ingest");
        assert_eq!(r1.chunks_deduped, 0);
        assert_eq!(r1.chunks_written as usize, store.len());

        // The same payload again: every chunk dedups, nothing is appended.
        let before = store.len();
        let (ords2, r2) = ledger.ingest(&data, &cfg, &mut store).expect("ingest");
        assert_eq!(ords2, ords1);
        assert_eq!(store.len(), before, "no new chunks");
        assert_eq!(r2.chunks_written, 0);
        assert_eq!(r2.chunks_deduped, ords1.len() as u64);
        assert_eq!(r2.stored_bytes_written, 0);

        // A small mutation: only a couple of chunks are new.
        let mut edited = data.clone();
        edited[60_000] ^= 0xFF;
        let (_, r3) = ledger.ingest(&edited, &cfg, &mut store).expect("ingest");
        assert!(
            r3.chunks_written <= 3,
            "1-byte edit rewrote {} chunks of {}",
            r3.chunks_written,
            ords1.len()
        );
        assert!(r3.chunks_deduped as usize >= ords1.len() - 3);

        let st = ledger.stats();
        assert_eq!(st.chunks, store.len() as u64);
        assert_eq!(st.chunk_refs, (ords1.len() + ords2.len()) as u64 + r3.chunks_written + r3.chunks_deduped);
        assert!(st.dedup_ratio() > 2.0, "ratio {}", st.dedup_ratio());
    }

    /// Cuts equal the byte-by-byte reference at the boundaries of the
    /// warm-up: a chunk that can end inside its first 64 bytes, `min ==
    /// max`, `min > max`, zero bounds, and payloads shorter than `min`.
    #[test]
    fn cuts_match_the_reference_at_the_edges() {
        let cfgs = [
            ChunkConfig::default(),
            ChunkConfig { min: 1, avg: 4, max: 100, ..ChunkConfig::default() },
            ChunkConfig { min: 63, avg: 64, max: 500, ..ChunkConfig::default() },
            ChunkConfig { min: 64, avg: 64, max: 500, ..ChunkConfig::default() },
            ChunkConfig { min: 65, avg: 64, max: 500, ..ChunkConfig::default() },
            ChunkConfig { min: 4096, avg: 4096, max: 4096, ..ChunkConfig::default() },
            ChunkConfig { min: 8192, avg: 2048, max: 1000, ..ChunkConfig::default() },
            ChunkConfig { min: 0, avg: 0, max: 0, ..ChunkConfig::default() },
        ];
        for cfg in &cfgs {
            for len in [0, 1, 63, 64, 65, cfg.min.saturating_sub(1), cfg.min, 20_000] {
                for data in [payload(len as u64, len), vec![0u8; len]] {
                    let reference = chunk_spans_reference(&data, cfg);
                    assert_eq!(chunk_spans(&data, cfg), reference, "{cfg:?}, {len} bytes");
                }
            }
        }
    }

    #[test]
    fn env_defaults_are_sane() {
        let cfg = ChunkConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.min <= cfg.avg && cfg.avg <= cfg.max);
        let off = ChunkConfig::disabled();
        assert!(!off.enabled);
        assert!(!off.chunks_payload(1 << 20));
        assert!(cfg.chunks_payload(cfg.min) && !cfg.chunks_payload(cfg.min - 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;
    use kishu_testkit::rng::Rng;

    /// The default config, then random bounds: `min` under and over 64,
    /// `min == max`, `min > max`, `avg` of any size (rarely a power of two).
    fn config() -> BoxedStrategy<ChunkConfig> {
        let random = (0usize..10_000, 0usize..20_000, 0usize..70_000)
            .prop_map(|(min, avg, max)| ChunkConfig { min, avg, max, ..ChunkConfig::default() });
        let small_min = (0usize..64, 1usize..5_000)
            .prop_map(|(min, avg)| ChunkConfig { min, avg, max: 65_536, ..ChunkConfig::default() });
        let equal = (0usize..9_000)
            .prop_map(|n| ChunkConfig { min: n, avg: n, max: n, ..ChunkConfig::default() });
        prop_oneof![
            1 => Just(ChunkConfig::default()),
            2 => random,
            2 => small_min,
            1 => equal,
        ]
        .boxed()
    }

    /// 0 to 300 KiB of random, low-entropy or all-zero bytes, from a seed.
    fn bytes() -> BoxedStrategy<Vec<u8>> {
        (any::<u64>(), 0usize..300 * 1024, 0u8..3)
            .prop_map(|(seed, len, family)| {
                let mut rng = Rng::seed_from_u64(seed);
                match family {
                    0 => (0..len).map(|_| rng.next_u64() as u8).collect(),
                    1 => (0..len).map(|_| (rng.next_u64() % 3) as u8).collect(),
                    _ => vec![0u8; len],
                }
            })
            .boxed()
    }

    /// The default config, or small chunks so that one payload cuts into
    /// a few hundred chunks.
    fn ingest_config() -> BoxedStrategy<ChunkConfig> {
        let small = ChunkConfig {
            min: 256,
            avg: 1024,
            max: 4096,
            ..ChunkConfig::default()
        };
        prop_oneof![3 => Just(ChunkConfig::default()), 1 => Just(small)].boxed()
    }

    /// 1 to 8 steps. Each is a payload family and a length, then a damage
    /// byte and a pick: with a damage byte under 32, the step first damages
    /// the stored chunk the pick names, in its bytes (even) or in its
    /// recorded CRC (odd). Built by [`payloads`] from a seed.
    fn step_specs() -> BoxedStrategy<Vec<(u8, usize, u8, usize)>> {
        prop::collection::vec((0u8..7, 0usize..160 * 1024, any::<u8>(), any::<usize>()), 1..=8)
            .boxed()
    }

    /// The payloads of one step: random, low-entropy (compressible),
    /// all-zero, a repeat of an earlier payload, an earlier payload with a
    /// few bytes changed, compressible and incompressible regions in turn,
    /// or (family 6) two one-chunk incompressible payloads whose stored
    /// forms differ but share their CRC-32 and length.
    fn payloads(
        rng: &mut Rng,
        (family, len): (u8, usize),
        earlier: &[Vec<u8>],
        min: usize,
    ) -> Vec<Vec<u8>> {
        let pick = (!earlier.is_empty()).then(|| rng.next_u64() as usize % earlier.len());
        let mut random = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
        let payload = match (family, pick) {
            (0, _) => random(len),
            (2, _) => vec![0u8; len],
            (3, Some(i)) => earlier[i].clone(),
            (4, Some(i)) => {
                let mut p = earlier[i].clone();
                for _ in 0..1 + rng.next_u64() % 4 {
                    if p.is_empty() {
                        break;
                    }
                    let at = rng.next_u64() as usize % p.len();
                    p[at] ^= 1 + (rng.next_u64() % 255) as u8;
                }
                p
            }
            (5, _) => {
                let mut p = Vec::with_capacity(len);
                let mut compressible = rng.next_u64().is_multiple_of(2);
                while p.len() < len {
                    let region = (512 + rng.next_u64() as usize % 24_576).min(len - p.len());
                    for _ in 0..region {
                        let b = rng.next_u64() as u8;
                        p.push(if compressible { b % 3 } else { b });
                    }
                    compressible = !compressible;
                }
                p
            }
            (6, _) => {
                // A payload of at most `min` bytes is one chunk.
                let n = 16 + len % (min - 15);
                let base = random(n);
                let mut twin = random(n);
                let target = crc32(&[&[CHUNK_STORED][..], &base].concat());
                let prefix = [&[CHUNK_STORED][..], &twin[..n - 4]].concat();
                twin[n - 4..].copy_from_slice(&crate::crc32::forge_tail(&prefix, target));
                return vec![base, twin];
            }
            _ => (0..len).map(|_| (rng.next_u64() % 3) as u8).collect(),
        };
        vec![payload]
    }

    /// A store for the ledger: each chunk with the CRC it was appended with
    /// (what its frame records). An append can fail once, on the
    /// `fail_at`-th new chunk, and a chunk can be damaged after it was
    /// written.
    #[derive(Default)]
    struct Store {
        chunks: Vec<Vec<u8>>,
        crcs: Vec<u32>,
        fail_at: Option<usize>,
    }

    impl Store {
        fn push(&mut self, stored: Vec<u8>, crc: u32) -> io::Result<u32> {
            if self.fail_at == Some(self.chunks.len()) {
                self.fail_at = None;
                return Err(io::Error::other("injected append failure"));
            }
            self.chunks.push(stored);
            self.crcs.push(crc);
            Ok((self.chunks.len() - 1) as u32)
        }

        /// Flip a bit of chunk `ord`'s bytes, or of its recorded CRC.
        fn damage(&mut self, ord: usize, in_crc: bool) {
            if in_crc {
                self.crcs[ord] ^= 1;
            } else {
                let last = self.chunks[ord].len() - 1;
                self.chunks[ord][last] ^= 1;
            }
        }
    }

    impl ChunkSink for Store {
        fn append(&mut self, form: StoredForm<'_>, crc: u32) -> io::Result<u32> {
            let mut stored = Vec::new();
            form.write_to(&mut stored);
            assert_eq!(crc, crc32(&stored), "the ledger hands over the stored form's CRC");
            self.push(stored, crc)
        }

        fn holds(&self, probes: &[Probe<'_>], held: &mut [bool]) {
            for (probe, held) in probes.iter().zip(held) {
                let ord = probe.ord as usize;
                *held = crc32(&self.chunks[ord]) == self.crcs[ord]
                    && self.crcs[ord] == probe.crc
                    && probe.form.matches(&self.chunks[ord]);
            }
        }
    }

    /// The oracle `ingest` must equal: every chunk is encoded first, then
    /// looked up by its whole stored form in an exact-bytes map.
    #[derive(Default)]
    struct Reference {
        map: HashMap<Vec<u8>, u32>,
        stats: ChunkStats,
    }

    type Ingested = io::Result<(Vec<u32>, IngestReceipt)>;

    impl Reference {
        fn ingest(&mut self, bytes: &[u8], cfg: &ChunkConfig, store: &mut Store) -> Ingested {
            let mut ords = Vec::new();
            let mut receipt = IngestReceipt::default();
            for span in chunk_spans(bytes, cfg) {
                let raw = &bytes[span];
                let stored = encode_chunk(raw);
                let ord = match self.map.get(&stored) {
                    Some(&ord) => {
                        receipt.chunks_deduped += 1;
                        ord
                    }
                    None => {
                        let ord = store.push(stored.clone(), crc32(&stored))?;
                        self.stats.chunks += 1;
                        self.stats.raw_bytes += raw.len() as u64;
                        self.stats.stored_bytes += stored.len() as u64;
                        receipt.chunks_written += 1;
                        receipt.stored_bytes_written += stored.len() as u64;
                        receipt.raw_bytes_written += raw.len() as u64;
                        self.map.insert(stored, ord);
                        ord
                    }
                };
                self.stats.chunk_refs += 1;
                ords.push(ord);
            }
            Ok((ords, receipt))
        }
    }

    /// Both results, compared: equal manifests and receipts, or both failed.
    fn agree(got: &Ingested, want: &Ingested) -> Result<(), TestCaseError> {
        match (got, want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "one side failed: {:?} vs {:?}", got, want),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chunk_spans_match_reference(cfg in config(), data in bytes()) {
            prop_assert_eq!(chunk_spans(&data, &cfg), chunk_spans_reference(&data, &cfg));
        }

        /// `ingest` (CRC-keyed candidates confirmed by their bytes, raw
        /// form first) equals the encode-first loop over an exact-bytes
        /// map: manifests, receipts, every appended stored chunk in order,
        /// and stats. The sequences include forced CRC collisions, which
        /// must get different ords and read back exactly, and stored chunks
        /// damaged after they were written, which must not be deduplicated
        /// against (the oracle forgets them). With `fail`, the append of
        /// the `fail`-th new chunk fails once; both sides must fail on it,
        /// and then ingest that payload again.
        #[test]
        fn ingest_matches_reference(
            cfg in ingest_config(),
            seed in any::<u64>(),
            steps in step_specs(),
            fail in prop_oneof![1 => Just(None), 1 => (0usize..48).prop_map(Some)],
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let (mut ledger, mut reference) = (ChunkLedger::new(), Reference::default());
            let mut got = Store { fail_at: fail, ..Store::default() };
            let mut want = Store { fail_at: fail, ..Store::default() };
            let mut earlier: Vec<Vec<u8>> = Vec::new();
            for (family, len, damage, pick) in steps {
                if damage < 32 && !got.chunks.is_empty() {
                    let ord = pick % got.chunks.len();
                    got.damage(ord, damage % 2 == 1);
                    want.damage(ord, damage % 2 == 1);
                    reference.map.retain(|_, o| *o != ord as u32);
                }
                let batch = payloads(&mut rng, (family, len), &earlier, cfg.min);
                let mut manifests = Vec::new();
                for payload in &batch {
                    let g = ledger.ingest(payload, &cfg, &mut got);
                    agree(&g, &reference.ingest(payload, &cfg, &mut want))?;
                    let g = match g {
                        Ok(g) => g,
                        Err(_) => {
                            prop_assert!(got.chunks == want.chunks, "chunks differ after a failure");
                            prop_assert_eq!(ledger.stats(), reference.stats);
                            let g = ledger.ingest(payload, &cfg, &mut got);
                            agree(&g, &reference.ingest(payload, &cfg, &mut want))?;
                            g.expect("the failure is injected once")
                        }
                    };
                    let mut read = Vec::new();
                    for &ord in &g.0 {
                        decode_chunk_into(&got.chunks[ord as usize], &mut read).expect("decodes");
                    }
                    prop_assert!(&read == payload, "a payload does not read back");
                    manifests.push(g.0);
                }
                if family == 6 {
                    let (a, b) = (&batch[0], &batch[1]);
                    prop_assert_eq!(encode_chunk(a)[0], CHUNK_STORED);
                    prop_assert_eq!(encode_chunk(b)[0], CHUNK_STORED);
                    prop_assert_eq!(crc32(&encode_chunk(a)), crc32(&encode_chunk(b)));
                    prop_assert!(a != b, "a forged twin equals its base");
                    prop_assert_eq!(manifests[0].len(), 1);
                    prop_assert_ne!(&manifests[0], &manifests[1]);
                }
                earlier.extend(batch);
            }
            prop_assert!(got.chunks == want.chunks, "appended stored chunks differ");
            prop_assert!(got.crcs == want.crcs, "recorded CRCs differ");
            prop_assert_eq!(ledger.stats(), reference.stats);
        }
    }
}
