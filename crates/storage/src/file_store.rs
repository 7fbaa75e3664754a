//! Durable append-only log store.
//!
//! Record layout (little-endian), one frame per record:
//!
//! ```text
//! +--------+----------+-----------+-------------+
//! | marker | len: u32 | crc32: u32| payload     |
//! +--------+----------+-----------+-------------+
//! ```
//!
//! Three markers share the framing (storage engine v2):
//!
//! * `0x4B` ('K') — a **v1 blob**: the payload is the logical blob verbatim.
//!   The only record type with chunking off ([`ChunkConfig::disabled`]
//!   produces bit-identical v1 logs), and still what sub-minimum payloads
//!   write.
//! * `0x43` ('C') — a **chunk**: the payload is a stored-form chunk
//!   (`[flag][data]`, optionally compressed — see [`crate::chunk`]).
//!   Chunks get dense ords in append order and are shared across blobs.
//! * `0x4D` ('M') — a **manifest**: one logical blob as
//!   `[raw_len: u64][nchunks: u32][chunk ord: u32 × n]`. A manifest is
//!   always appended *after* every chunk it references, so torn-tail
//!   recovery composes: a blob exists iff its manifest survived.
//!
//! The single-byte record marker plus the CRC over the payload makes torn
//! tail writes detectable: on open, the log is scanned, every intact record
//! is indexed, and the first damaged/truncated record ends recovery — the
//! file is truncated back to the last intact boundary, exactly the recovery
//! contract of a write-ahead log. A record that passes its CRC but is
//! malformed ends recovery the same way: an unknown chunk flag, a
//! compressed chunk claiming more bytes than its stream can expand to, or a
//! manifest whose length is not the sum of its chunks' lengths.
//!
//! The scan reads the log front to back in fixed windows (`SCAN_WINDOW`,
//! 1 MiB), all into one buffer, and checks each record in place in its
//! window: no per-record seek, copy or zero-fill. A record (or header)
//! that crosses a window edge is assembled in one carry buffer, and only
//! after its length has been checked against the file's, so a forged
//! length cannot make open allocate for it. Open thus holds one window and
//! one record of the log in memory, never the whole log. (Reading the next
//! window ahead on a helper thread was measured and gained nothing; see
//! EXPERIMENTS.md, "Opening the log".)
//!
//! Chunks dedup by byte equality. Each chunk frame's CRC is both its
//! integrity check and its ledger key: open registers every chunk under
//! the CRC it has just verified, and a put files a new chunk under the CRC
//! it computed once for the lookup and reuses for the frame. A chunk
//! repeats a stored one only when that stored chunk reads back with the
//! same CRC and exactly the same bytes ([`crate::chunk::ChunkSink::holds`],
//! from the group-commit buffer or the file, adjacent candidates in one
//! read); one that fails to read back is appended again, so a new blob
//! never points at a damaged chunk.
//!
//! **Run reads.** A get and a dedup read-back share one run reader. It
//! reads each run of adjacent chunk frames (the same frame again, or the
//! one right after, up to `READ_BACK_RUN`, 1 MiB) with one seek and one
//! read, into a buffer the store keeps across reads, so a read neither
//! allocates nor zero-fills it once it has grown. A get checks each
//! frame's CRC where it lies in that buffer, before decoding any of its
//! bytes, and decodes each chunk from there into the blob; a chunk still
//! in the group-commit buffer is read from that buffer instead. A blob
//! whose chunks are not adjacent, because some were deduped against an
//! earlier put, takes one read per run. A v1 record is read straight into
//! the blob.
//!
//! **Group commit** (the `group_commit` argument of
//! [`FileStore::create_with`]/[`FileStore::open_with`], on for the plain
//! constructors): puts append frames
//! to an in-process buffer on the session thread, in plan order, and the
//! buffer reaches the file at the next [`CheckpointStore::sync`],
//! [`CheckpointStore::flush_barrier`], size threshold, or drop. Reads are
//! served from the buffer transparently, so the logical view is identical
//! to unbuffered operation; with `sync_on_put` the per-record fsync is
//! amortized into one fsync at the barrier.

use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSliceMut, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::chunk::{
    decode_chunk_into, stored_chunk_raw_len, ChunkConfig, ChunkLedger, ChunkSink, ChunkStats,
    Probe, StoredForm,
};
use crate::crc32::crc32;
use crate::{BlobId, CheckpointStore, PutReceipt, StoreStats};

/// Marker of a v1 full-blob record.
pub const MARKER_V1: u8 = 0x4B; // 'K'
/// Marker of a v2 chunk record.
pub const MARKER_CHUNK: u8 = 0x43; // 'C'
/// Marker of a v2 manifest record.
pub const MARKER_MANIFEST: u8 = 0x4D; // 'M'

const HEADER_LEN: u64 = 1 + 4 + 4;

/// Group-commit buffer flush threshold: bounds memory, not durability.
/// The buffer keeps its capacity after a flush, so a store holds up to
/// about twice this for its lifetime.
const PENDING_FLUSH_BYTES: usize = 1 << 20;

/// Read window of the recovery scan on open: the log is read front to
/// back in windows of this size, so the scan holds one of them besides
/// the record it is assembling.
const SCAN_WINDOW: usize = 1 << 20;

/// Longest run of adjacent chunk frames one read covers, for a get or a
/// dedup read-back: a run that would grow past it is split. A frame longer
/// than this is a run of its own.
const READ_BACK_RUN: u64 = 1 << 20;

/// Append a `marker`-framed record to `out`.
#[cfg(test)]
fn frame_with(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    frame_parts(out, marker, &[payload], crc32(payload));
}

/// Append a `marker`-framed record whose payload is `parts` joined and
/// whose CRC-32, computed by the caller, is `crc`.
fn frame_parts(out: &mut Vec<u8>, marker: u8, parts: &[&[u8]], crc: u32) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(HEADER_LEN as usize + len);
    out.push(marker);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// One logical blob in the index.
#[derive(Debug, PartialEq, Eq)]
enum BlobEntry {
    /// v1 record: (payload offset, payload len).
    V1(u64, u32),
    /// v2 blob: chunk ords in payload order.
    Chunked { raw_len: u64, ords: Vec<u32> },
}

/// The log file, and the buffer that runs of its frames are read into.
/// The buffer is kept across reads: it grows to the longest run read and
/// is then reused, neither reallocated nor zero-filled again.
struct LogFile {
    file: File,
    run: Vec<u8>,
}

impl LogFile {
    fn new(file: File) -> Self {
        LogFile { file, run: Vec::new() }
    }

    /// The `len` bytes of the file at `off`, read with one seek and one
    /// read into the run buffer.
    fn read_run(&mut self, off: u64, len: usize) -> io::Result<&[u8]> {
        if self.run.len() < len {
            self.run.resize(len, 0);
        }
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut self.run[..len])?;
        Ok(&self.run[..len])
    }
}

/// Append-only log-file blob store with CRC-checked records and recovery.
pub struct FileStore {
    log: Mutex<LogFile>,
    path: PathBuf,
    index: Vec<BlobEntry>,
    /// (payload offset, payload len) of each chunk record, by ord.
    chunk_index: Vec<(u64, u32)>,
    ledger: ChunkLedger,
    cfg: ChunkConfig,
    /// Bytes durably in the file (group-commit buffer starts here).
    flushed_end: u64,
    /// Framed records accepted by `put` but not yet written to the file.
    pending: Vec<u8>,
    group_commit: bool,
    payload_bytes: u64,
    sync_on_put: bool,
    trace: kishu_trace::Trace,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("path", &self.path)
            .field("blobs", &self.index.len())
            .field("chunks", &self.chunk_index.len())
            .finish()
    }
}

impl FileStore {
    /// Create a new, empty log at `path` (truncating any existing file)
    /// with the default chunking and group commit on.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(path, ChunkConfig::default(), true)
    }

    /// Create with explicit configuration.
    pub fn create_with(
        path: impl AsRef<Path>,
        cfg: ChunkConfig,
        group_commit: bool,
    ) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(FileStore {
            log: Mutex::new(LogFile::new(file)),
            path: path.as_ref().to_path_buf(),
            index: Vec::new(),
            chunk_index: Vec::new(),
            ledger: ChunkLedger::new(),
            cfg,
            flushed_end: 0,
            pending: Vec::new(),
            group_commit,
            payload_bytes: 0,
            sync_on_put: false,
            trace: kishu_trace::Trace::disabled(),
        })
    }

    /// Open an existing log, recovering its index by scanning. A torn or
    /// corrupt tail is truncated away; everything before it stays readable.
    /// Future puts use the default chunking and group commit.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, ChunkConfig::default(), true)
    }

    /// Open with explicit configuration. The scan accepts any mix of v1
    /// and v2 records regardless of `cfg` — the config only governs how
    /// *future* puts are represented, so logs written under other knob
    /// settings (or by older versions) stay readable.
    pub fn open_with(
        path: impl AsRef<Path>,
        cfg: ChunkConfig,
        group_commit: bool,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        let found = scan(&file, file_len, SCAN_WINDOW)?;
        // Truncate away anything after the last intact record so appends
        // never interleave with garbage.
        file.set_len(found.end)?;
        Ok(FileStore {
            log: Mutex::new(LogFile::new(file)),
            path: path.as_ref().to_path_buf(),
            index: found.index,
            chunk_index: found.chunk_index,
            ledger: found.ledger,
            cfg,
            flushed_end: found.end,
            pending: Vec::new(),
            group_commit,
            payload_bytes: found.payload_bytes,
            sync_on_put: false,
            trace: kishu_trace::Trace::disabled(),
        })
    }

    /// Enable fsync after every [`CheckpointStore::put`] (durability over
    /// throughput). Under group commit the per-put fsync is amortized into
    /// one fsync at each flush point instead.
    pub fn set_sync_on_put(&mut self, on: bool) {
        self.sync_on_put = on;
    }

    /// Next append position (durable bytes + buffered bytes).
    fn end_offset(&self) -> u64 {
        self.flushed_end + self.pending.len() as u64
    }

    /// Write the group-commit buffer to the file (no fsync).
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut sp = self.trace.span("file.flush_pending");
        sp.arg("bytes", self.pending.len());
        let file = &mut self.log.get_mut().expect("store lock poisoned").file;
        file.seek(SeekFrom::Start(self.flushed_end))?;
        file.write_all(&self.pending)?;
        self.flushed_end += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Append one framed record whose payload is `parts` joined and whose
    /// CRC-32 is `crc` (framed straight into the buffer under group
    /// commit, else written directly), returning its payload offset.
    fn append_frame(&mut self, marker: u8, parts: &[&[u8]], crc: u32) -> io::Result<u64> {
        let payload_off = self.end_offset() + HEADER_LEN;
        if self.group_commit {
            frame_parts(&mut self.pending, marker, parts, crc);
            if self.pending.len() >= PENDING_FLUSH_BYTES {
                self.flush_pending()?;
            }
        } else {
            let mut record = Vec::new();
            frame_parts(&mut record, marker, parts, crc);
            let file = &mut self.log.get_mut().expect("store lock poisoned").file;
            file.seek(SeekFrom::Start(self.flushed_end))?;
            file.write_all(&record)?;
            if self.sync_on_put {
                file.sync_data()?;
            }
            self.flushed_end += record.len() as u64;
        }
        Ok(payload_off)
    }

    /// Chunk `ord`'s frame from its CRC field to its end, as file offsets.
    fn chunk_frame(&self, ord: u32) -> Option<(u64, u64)> {
        let &(off, len) = self.chunk_index.get(ord as usize)?;
        Some((off - 4, off + u64::from(len)))
    }

    /// The run reader: hand `each` the bytes of every frame in `frames`
    /// (each from its CRC field to its end), in the order given, or the
    /// error of the read that should have fetched them. A frame still in
    /// the group-commit buffer is borrowed from it. The rest are read from
    /// the file in runs, one seek and one read per run into the store's
    /// run buffer: a run extends over the same frame again or the frame
    /// right after it, up to [`READ_BACK_RUN`] bytes. Stops at the first
    /// error `each` returns, and returns it.
    fn read_frames<E>(
        &self,
        frames: &[(u64, u64)],
        mut each: impl FnMut(usize, Result<&[u8], &io::Error>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut log = None;
        let mut i = 0;
        while let Some(&(start, mut end)) = frames.get(i) {
            if start >= self.flushed_end {
                let at = (start - self.flushed_end) as usize;
                each(i, Ok(&self.pending[at..at + (end - start) as usize]))?;
                i += 1;
                continue;
            }
            let mut n = 1;
            while let Some(&(s, e)) = frames.get(i + n) {
                let adjacent = e == end || s == end + HEADER_LEN - 4;
                if !adjacent || e - start > READ_BACK_RUN || s >= self.flushed_end {
                    break;
                }
                end = e;
                n += 1;
            }
            let log = log.get_or_insert_with(|| self.log.lock().expect("store lock poisoned"));
            let run = log.read_run(start, (end - start) as usize);
            for (j, &(s, e)) in frames.iter().enumerate().skip(i).take(n) {
                let (s, e) = ((s - start) as usize, (e - start) as usize);
                each(j, run.as_ref().map(|run| &run[s..e]))?;
            }
            i += n;
        }
        Ok(())
    }

    /// [`ChunkSink::holds`] for this store's chunks, through the run
    /// reader in ord order (append order, and so file order). Each frame's
    /// recorded CRC must equal the probe's, and its payload the probe's
    /// form. Since the probe's CRC is that of its form, equal bytes under
    /// an equal recorded CRC are an intact frame, so no CRC is computed
    /// here. No span is opened: this is not a blob read.
    fn holds(&self, probes: &[Probe<'_>], held: &mut [bool]) {
        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by_key(|&i| probes[i].ord);
        // Probes name ords the ledger registered, so every ord is indexed.
        let frames: Vec<_> = order
            .iter()
            .map(|&i| self.chunk_frame(probes[i].ord).expect("a probed chunk is indexed"))
            .collect();
        let Ok(()) = self.read_frames(&frames, |k, frame| {
            let p = &probes[order[k]];
            held[order[k]] = frame.is_ok_and(|bytes| {
                bytes[..4] == p.crc.to_le_bytes() && p.form.matches(&bytes[4..])
            });
            Ok::<_, Infallible>(())
        });
    }

    /// Fill `payload` with the payload of the record at `payload_off`
    /// (from the buffer if not yet flushed) and check it against the
    /// record's CRC in place. The CRC and the payload arrive in separate
    /// buffers from one read, so the payload lands where the caller wants
    /// it and is never shifted. `what` names the record in the error of a
    /// failed check, and runs only then.
    fn read_verified(
        &self,
        payload_off: u64,
        payload: &mut [u8],
        what: impl FnOnce() -> String,
    ) -> io::Result<()> {
        let mut crc = [0u8; 4];
        let start = payload_off - 4;
        if start >= self.flushed_end {
            let i = (start - self.flushed_end) as usize;
            crc.copy_from_slice(&self.pending[i..i + 4]);
            payload.copy_from_slice(&self.pending[i + 4..i + 4 + payload.len()]);
        } else {
            let file = &mut self.log.lock().expect("store lock poisoned").file;
            file.seek(SeekFrom::Start(start))?;
            read_exact_split(file, &mut crc, payload)?;
        }
        if crc32(payload) != u32::from_le_bytes(crc) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} failed its integrity check", what()),
            ));
        }
        Ok(())
    }

    /// The per-chunk read [`CheckpointStore::get`] replaced: one locked,
    /// seeked read and one check per chunk, each into a scratch buffer
    /// before it is decoded. The oracle `get` must equal.
    #[cfg(test)]
    fn get_reference(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let entry = self
            .index
            .get(id as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {id}")))?;
        match entry {
            BlobEntry::V1(off, len) => {
                let mut out = vec![0; *len as usize];
                self.read_verified(*off, &mut out, || format!("blob {id}"))?;
                Ok(out)
            }
            BlobEntry::Chunked { raw_len, ords } => {
                // `raw_len` is validated: a recovered manifest's equals the
                // sum of its chunks' lengths, and a put's is its payload's.
                let mut out = Vec::with_capacity(*raw_len as usize);
                let mut stored = Vec::new();
                for &ord in ords {
                    let (off, len) = *self.chunk_index.get(ord as usize).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("blob {id} references missing chunk {ord}"),
                        )
                    })?;
                    stored.resize(len as usize, 0);
                    self.read_verified(off, &mut stored, || format!("blob {id} chunk {ord}"))?;
                    decode_chunk_into(&stored, &mut out)?;
                }
                if out.len() as u64 != *raw_len {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("blob {id} reassembled to the wrong length"),
                    ));
                }
                Ok(out)
            }
        }
    }
}

/// `read_exact` into `head` and then `body`, one vectored read per pass
/// (one system call for a whole record unless the read comes back short).
fn read_exact_split(file: &mut File, mut head: &mut [u8], mut body: &mut [u8]) -> io::Result<()> {
    while !(head.is_empty() && body.is_empty()) {
        match file.read_vectored(&mut [IoSliceMut::new(head), IoSliceMut::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                let from_head = n.min(head.len());
                head = &mut std::mem::take(&mut head)[from_head..];
                body = &mut std::mem::take(&mut body)[n - from_head..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What the recovery scan indexed: every intact, well-formed record before
/// the first that is not, and the offset where that one starts.
#[derive(Debug, Default, PartialEq, Eq)]
struct Recovered {
    index: Vec<BlobEntry>,
    chunk_index: Vec<(u64, u32)>,
    /// Raw length of each chunk, by ord: what a manifest must add up to.
    chunk_raw_lens: Vec<u64>,
    ledger: ChunkLedger,
    payload_bytes: u64,
    /// End of the last record indexed: where recovery truncates.
    end: u64,
}

impl Recovered {
    /// Index the record whose header said `marker` and `crc` and whose
    /// payload, at `payload_off`, is `payload`. False, indexing nothing,
    /// when the record is damaged or malformed: recovery ends there.
    fn record(&mut self, marker: u8, crc: u32, payload_off: u64, payload: &[u8]) -> bool {
        if crc32(payload) != crc {
            return false; // corrupted record
        }
        let len = payload.len() as u32;
        // A CRC-valid but malformed record ends recovery like tail damage
        // does.
        match marker {
            MARKER_V1 => {
                let Some(total) = self.payload_bytes.checked_add(u64::from(len)) else {
                    return false;
                };
                self.index.push(BlobEntry::V1(payload_off, len));
                self.payload_bytes = total;
            }
            MARKER_CHUNK => {
                let Ok(raw_len) = stored_chunk_raw_len(payload) else {
                    return false;
                };
                let ord = self.chunk_index.len() as u32;
                self.ledger.register(crc, ord, raw_len, u64::from(len));
                self.chunk_index.push((payload_off, len));
                self.chunk_raw_lens.push(raw_len);
            }
            _ => {
                let Some((raw_len, ords)) = parse_manifest(payload) else {
                    return false;
                };
                // The claimed length must be what its chunks decode to
                // (each one recovered already), and no more than one put
                // can write; `get` preallocates it.
                let chunks_sum = ords.iter().try_fold(0u64, |sum, &o| {
                    sum.checked_add(*self.chunk_raw_lens.get(o as usize)?)
                });
                if chunks_sum != Some(raw_len) || raw_len > u32::MAX as u64 {
                    return false;
                }
                let Some(total) = self.payload_bytes.checked_add(raw_len) else {
                    return false;
                };
                self.ledger.add_refs(ords.len() as u64);
                self.index.push(BlobEntry::Chunked { raw_len, ords });
                self.payload_bytes = total;
            }
        }
        self.end = payload_off + u64::from(len);
        true
    }
}

/// Recover the index of the `file_len`-byte log in `file`, reading it in
/// windows of `window` bytes (open passes [`SCAN_WINDOW`]).
fn scan(file: &File, file_len: u64, window: usize) -> io::Result<Recovered> {
    let mut log = LogReader {
        file,
        file_len,
        window_len: window.max(1),
        next_off: 0,
        window: Vec::new(),
        at: 0,
        carry: Vec::new(),
    };
    let mut found = Recovered::default();
    while found.end + HEADER_LEN <= file_len {
        let header = log.take(HEADER_LEN as usize)?;
        let marker = header[0];
        if !matches!(marker, MARKER_V1 | MARKER_CHUNK | MARKER_MANIFEST) {
            break; // garbage: end recovery here
        }
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
        let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        let payload_off = found.end + HEADER_LEN;
        if payload_off + u64::from(len) > file_len {
            break; // torn write
        }
        let payload = log.take(len as usize)?;
        if !found.record(marker, crc, payload_off, payload) {
            break;
        }
    }
    Ok(found)
}

/// The log read front to back one window at a time, into one buffer.
struct LogReader<'f> {
    file: &'f File,
    file_len: u64,
    window_len: usize,
    /// File offset of the window after the current one.
    next_off: u64,
    window: Vec<u8>,
    /// Bytes of `window` already handed out.
    at: usize,
    /// Holds the one record, or header, that crosses a window edge.
    carry: Vec<u8>,
}

impl LogReader<'_> {
    /// The next `n` bytes of the log: borrowed from the window when they
    /// lie inside it, else assembled in the carry buffer. The caller has
    /// checked that the log holds them, so `n` never outgrows the file.
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if n <= self.window.len() - self.at {
            self.at += n;
            return Ok(&self.window[self.at - n..self.at]);
        }
        self.carry.clear();
        self.carry.reserve_exact(n);
        self.carry.extend_from_slice(&self.window[self.at..]);
        while self.carry.len() < n {
            let len = (self.file_len - self.next_off).min(self.window_len as u64) as usize;
            if len == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            read_at(self.file, self.next_off, len, &mut self.window)?;
            self.next_off += len as u64;
            self.at = (n - self.carry.len()).min(len);
            self.carry.extend_from_slice(&self.window[..self.at]);
        }
        Ok(&self.carry)
    }
}

/// Fill `buf` with the `n` bytes of `file` at `off`. A buffer reused at
/// the same length is overwritten without being cleared first.
fn read_at(mut file: &File, off: u64, n: usize, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.resize(n, 0);
    file.seek(SeekFrom::Start(off))?;
    file.read_exact(buf)
}

/// The scan [`scan`] replaced: one pass through a `BufReader` that copies
/// every record out into a zero-filled buffer before checking it. The
/// oracle `scan` must equal.
#[cfg(test)]
fn scan_reference(file: &File, file_len: u64) -> io::Result<Recovered> {
    let mut index = Vec::new();
    let mut chunk_index: Vec<(u64, u32)> = Vec::new();
    let mut chunk_raw_lens: Vec<u64> = Vec::new();
    let mut ledger = ChunkLedger::new();
    let mut payload_bytes = 0u64;
    let mut offset = 0u64;
    let mut reader = io::BufReader::with_capacity(SCAN_WINDOW, file);
    reader.seek(SeekFrom::Start(0))?;
    let mut buf = Vec::new();
    while offset + HEADER_LEN <= file_len {
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header)?;
        let marker = header[0];
        if !matches!(marker, MARKER_V1 | MARKER_CHUNK | MARKER_MANIFEST) {
            break;
        }
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
        let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        let payload_off = offset + HEADER_LEN;
        if payload_off + len as u64 > file_len {
            break;
        }
        buf.resize(len as usize, 0);
        reader.read_exact(&mut buf)?;
        if crc32(&buf) != crc {
            break;
        }
        match marker {
            MARKER_V1 => {
                let Some(total) = payload_bytes.checked_add(len as u64) else {
                    break;
                };
                index.push(BlobEntry::V1(payload_off, len));
                payload_bytes = total;
            }
            MARKER_CHUNK => {
                let Ok(raw_len) = stored_chunk_raw_len(&buf) else {
                    break;
                };
                let ord = chunk_index.len() as u32;
                ledger.register(crc, ord, raw_len, len as u64);
                chunk_index.push((payload_off, len));
                chunk_raw_lens.push(raw_len);
            }
            _ => {
                let Some((raw_len, ords)) = parse_manifest(&buf) else {
                    break;
                };
                let chunks_sum = ords.iter().try_fold(0u64, |sum, &o| {
                    sum.checked_add(*chunk_raw_lens.get(o as usize)?)
                });
                if chunks_sum != Some(raw_len) || raw_len > u32::MAX as u64 {
                    break;
                }
                let Some(total) = payload_bytes.checked_add(raw_len) else {
                    break;
                };
                ledger.add_refs(ords.len() as u64);
                index.push(BlobEntry::Chunked { raw_len, ords });
                payload_bytes = total;
            }
        }
        offset = payload_off + len as u64;
    }
    Ok(Recovered { index, chunk_index, chunk_raw_lens, ledger, payload_bytes, end: offset })
}

/// Manifest payload: `[raw_len: u64][nchunks: u32][ord: u32 × n]`.
fn encode_manifest(raw_len: u64, ords: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 4 * ords.len());
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&(ords.len() as u32).to_le_bytes());
    for &o in ords {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out
}

fn parse_manifest(payload: &[u8]) -> Option<(u64, Vec<u32>)> {
    if payload.len() < 12 {
        return None;
    }
    let raw_len = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let n = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
    if payload.len() != 12 + 4 * n {
        return None;
    }
    let ords = payload[12..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some((raw_len, ords))
}

/// A [`FileStore`]'s chunk records, as its ledger sees them.
struct Chunks<'a>(&'a mut FileStore);

impl ChunkSink for Chunks<'_> {
    fn append(&mut self, form: StoredForm<'_>, crc: u32) -> io::Result<u32> {
        let payload_off = self.0.append_frame(MARKER_CHUNK, &[&[form.flag], form.data], crc)?;
        let ord = self.0.chunk_index.len() as u32;
        self.0.chunk_index.push((payload_off, form.stored_len() as u32));
        Ok(ord)
    }

    fn holds(&self, probes: &[Probe<'_>], held: &mut [bool]) {
        self.0.holds(probes, held);
    }
}

impl CheckpointStore for FileStore {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        self.put_with_receipt(bytes).map(|r| r.id)
    }

    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<PutReceipt> {
        if bytes.len() > u32::MAX as usize {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "blob too large"));
        }
        let mut sp = self.trace.span("file.put");
        sp.arg("bytes", bytes.len());
        let id = self.index.len() as BlobId;

        if !self.cfg.chunks_payload(bytes.len()) {
            let payload_off = self.append_frame(MARKER_V1, &[bytes], crc32(bytes))?;
            self.index.push(BlobEntry::V1(payload_off, bytes.len() as u32));
            self.payload_bytes += bytes.len() as u64;
            return Ok(PutReceipt {
                id,
                bytes_written: HEADER_LEN + bytes.len() as u64,
                ..PutReceipt::default()
            });
        }

        // Chunked put: new chunks first, then the manifest that makes the
        // blob exist — recovery-ordering invariant of the v2 format.
        let mut ledger = std::mem::take(&mut self.ledger);
        let cfg = self.cfg.clone();
        let result = ledger.ingest(bytes, &cfg, &mut Chunks(self));
        self.ledger = ledger;
        let (ords, r) = result?;
        let manifest = encode_manifest(bytes.len() as u64, &ords);
        let manifest_len = manifest.len() as u64;
        self.append_frame(MARKER_MANIFEST, &[&manifest], crc32(&manifest))?;
        self.index.push(BlobEntry::Chunked {
            raw_len: bytes.len() as u64,
            ords,
        });
        self.payload_bytes += bytes.len() as u64;
        Ok(PutReceipt {
            id,
            bytes_written: r.stored_bytes_written
                + r.chunks_written * HEADER_LEN
                + HEADER_LEN
                + manifest_len,
            chunks_written: r.chunks_written,
            chunks_deduped: r.chunks_deduped,
            bytes_compressed: r.raw_bytes_written.saturating_sub(r.stored_bytes_written),
        })
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let entry = self
            .index
            .get(id as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {id}")))?;
        let mut sp = self.trace.span("file.get");
        sp.arg("blob", id);
        match entry {
            BlobEntry::V1(off, len) => {
                sp.arg("bytes", *len);
                let mut out = vec![0; *len as usize];
                self.read_verified(*off, &mut out, || format!("blob {id}"))?;
                Ok(out)
            }
            BlobEntry::Chunked { raw_len, ords } => {
                sp.arg("bytes", *raw_len);
                let frames = ords
                    .iter()
                    .map(|&ord| {
                        self.chunk_frame(ord).ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("blob {id} references missing chunk {ord}"),
                            )
                        })
                    })
                    .collect::<io::Result<Vec<_>>>()?;
                // `raw_len` is validated: a recovered manifest's equals the
                // sum of its chunks' lengths, and a put's is its payload's.
                let mut out = Vec::with_capacity(*raw_len as usize);
                // Each frame is checked where the run reader put it, and
                // decoded from there into the blob.
                self.read_frames(&frames, |k, frame| {
                    let ord = ords[k];
                    let frame = frame.map_err(|e| {
                        io::Error::new(e.kind(), format!("blob {id} chunk {ord}: {e}"))
                    })?;
                    let (crc, stored) = frame.split_at(4);
                    if crc32(stored).to_le_bytes() != crc {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("blob {id} chunk {ord} failed its integrity check"),
                        ));
                    }
                    decode_chunk_into(stored, &mut out)
                })?;
                if out.len() as u64 != *raw_len {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("blob {id} reassembled to the wrong length"),
                    ));
                }
                Ok(out)
            }
        }
    }

    fn blob_count(&self) -> u64 {
        self.index.len() as u64
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            blobs: self.index.len() as u64,
            payload_bytes: self.payload_bytes,
            physical_bytes: self.end_offset(),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let _sp = self.trace.span("file.sync");
        self.flush_pending()?;
        self.log.get_mut().expect("store lock poisoned").file.sync_data()
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        let _sp = self.trace.span("file.flush_barrier");
        self.flush_pending()?;
        if self.sync_on_put {
            // The fsyncs the burst of puts skipped, amortized into one.
            self.log.get_mut().expect("store lock poisoned").file.sync_data()?;
        }
        Ok(())
    }

    fn chunk_stats(&self) -> Option<ChunkStats> {
        self.cfg.enabled.then(|| self.ledger.stats())
    }

    fn chunk_config(&self) -> Option<ChunkConfig> {
        Some(self.cfg.clone())
    }

    fn attach_trace(&mut self, trace: &kishu_trace::Trace) {
        self.trace = trace.clone();
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort: buffered records reach the OS before the handle
        // goes away (crash simulations that *want* lost buffers truncate
        // the file instead of dropping the store).
        let _ = self.flush_pending();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_testkit::hash::xxh64;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kishu-fs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = temp_path("reopen.log");
        {
            let mut s = FileStore::create(&path).expect("create");
            s.put(b"one").expect("put");
            s.put(b"two").expect("put");
            s.sync().expect("sync");
        }
        let s = FileStore::open(&path).expect("open");
        assert_eq!(s.blob_count(), 2);
        assert_eq!(s.get(0).expect("get"), b"one");
        assert_eq!(s.get(1).expect("get"), b"two");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_recovered() {
        let path = temp_path("torn.log");
        {
            // Chunking off so the 5000-byte record is a single v1 frame
            // whose tail tear removes exactly one blob.
            let mut s =
                FileStore::create_with(&path, ChunkConfig::disabled(), false).expect("create");
            s.put(b"intact-record").expect("put");
            s.put(&vec![9u8; 5000]).expect("put");
            s.sync().expect("sync");
        }
        // Tear the tail: chop 100 bytes off the last record.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open raw");
        f.set_len(len - 100).expect("truncate");
        drop(f);

        let mut s = FileStore::open(&path).expect("recover");
        assert_eq!(s.blob_count(), 1, "only the intact record survives");
        assert_eq!(s.get(0).expect("get"), b"intact-record");
        // Appends after recovery work.
        let id = s.put(b"after-recovery").expect("put");
        assert_eq!(s.get(id).expect("get"), b"after-recovery");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let path = temp_path("corrupt.log");
        let off = {
            let mut s = FileStore::create(&path).expect("create");
            s.put(b"precious-data").expect("put");
            s.sync().expect("sync");
            match s.index[0] {
                BlobEntry::V1(off, _) => off,
                _ => panic!("13 bytes stays a v1 record"),
            }
        };
        // Flip a payload byte on disk.
        let mut f = OpenOptions::new().read(true).write(true).open(&path).expect("raw");
        f.seek(SeekFrom::Start(off + 2)).expect("seek");
        f.write_all(&[0xFF]).expect("write");
        drop(f);

        // Recovery stops at the corrupt record and truncates it away.
        let s = FileStore::open(&path).expect("open recovers");
        assert_eq!(s.blob_count(), 0);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// A read that fails its CRC names the record: the blob, and for a
    /// chunked blob the chunk, also when that chunk is not the first of
    /// the run it was read in.
    #[test]
    fn integrity_errors_name_the_record() {
        let path = temp_path("named.log");
        let mut s = FileStore::create(&path).expect("create");
        let noise: Vec<u8> = (0..65_536u64).map(|j| xxh64(&j.to_le_bytes(), 1) as u8).collect();
        let ids = [
            s.put(b"precious-data").expect("put"),
            s.put(&[7; 10_000]).expect("put"),
            s.put(&noise).expect("put"),
        ];
        s.sync().expect("sync");
        let (v1_off, ord, [first, later]) = match (&s.index[0], &s.index[1], &s.index[2]) {
            (
                BlobEntry::V1(off, _),
                BlobEntry::Chunked { ords, .. },
                BlobEntry::Chunked { ords: run, .. },
            ) => (*off, ords[0], [run[0], run[1]]),
            _ => panic!("13 bytes stay a v1 record, and 10,000 and 65,536 are chunked"),
        };
        let frame = |ord| s.chunk_frame(ord).expect("indexed");
        assert_eq!(
            frame(later).0,
            frame(first).1 + HEADER_LEN - 4,
            "the damaged chunk is read in one run with the chunk before it"
        );
        let mut raw = OpenOptions::new().write(true).open(&path).expect("raw");
        for off in [v1_off, s.chunk_index[ord as usize].0, s.chunk_index[later as usize].0] {
            raw.seek(SeekFrom::Start(off + 1)).expect("seek");
            raw.write_all(&[0xFF]).expect("write");
        }
        drop(raw);
        let want = [
            format!("blob {} failed its integrity check", ids[0]),
            format!("blob {} chunk {ord} failed its integrity check", ids[1]),
            format!("blob {} chunk {later} failed its integrity check", ids[2]),
        ];
        for (id, want) in ids.into_iter().zip(want) {
            let err = s.get(id).expect_err("a damaged record fails its read");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want);
        }
        drop(s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_mid_log_record_ends_recovery_there() {
        let path = temp_path("corrupt-mid.log");
        let (first_end, second_off) = {
            let mut s =
                FileStore::create_with(&path, ChunkConfig::disabled(), false).expect("create");
            for p in [&b"first"[..], b"second-record", b"third"] {
                s.put(p).expect("put");
            }
            s.sync().expect("sync");
            match (&s.index[0], &s.index[1]) {
                (BlobEntry::V1(off0, len0), BlobEntry::V1(off1, _)) => {
                    (off0 + *len0 as u64, *off1)
                }
                _ => panic!("chunking off writes v1 records"),
            }
        };
        let mut f = OpenOptions::new().read(true).write(true).open(&path).expect("raw");
        f.seek(SeekFrom::Start(second_off + 3)).expect("seek");
        f.write_all(&[0xFF]).expect("write");
        drop(f);

        let s = FileStore::open(&path).expect("open recovers");
        assert_eq!(s.blob_count(), 1, "only the record before the damage survives");
        assert_eq!(s.get(0).expect("get"), b"first");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), first_end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_chunk_drops_its_manifest_and_everything_after() {
        let path = temp_path("corrupt-chunk.log");
        // Three distinct chunked blobs: no chunk is shared, so the second
        // blob's first chunk record sits after the whole first blob.
        let blob = |salt: u32| -> Vec<u8> {
            (salt * 1_000_003..salt * 1_000_003 + 40_000)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect()
        };
        let blobs = [blob(1), blob(2), blob(3)];
        let (first_end, chunk_off) = {
            let mut s =
                FileStore::create_with(&path, ChunkConfig::default(), false).expect("create");
            for b in &blobs {
                s.put(b).expect("put");
            }
            s.sync().expect("sync");
            let first_chunks = match &s.index[0] {
                BlobEntry::Chunked { ords, .. } => ords.iter().max().expect("chunks") + 1,
                _ => panic!("40 KB is chunked"),
            };
            let (off, _) = s.chunk_index[first_chunks as usize];
            (off - HEADER_LEN, off)
        };
        let mut log = std::fs::read(&path).expect("read");
        log[chunk_off as usize + 1] ^= 0x5A;
        std::fs::write(&path, &log).expect("write");

        let s = FileStore::open_with(&path, ChunkConfig::default(), false).expect("open");
        assert_eq!(s.blob_count(), 1, "the damaged chunk's manifest and later blobs are gone");
        assert_eq!(s.get(0).expect("get"), blobs[0]);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), first_end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_marker_stops_recovery() {
        let path = temp_path("garbage.log");
        {
            let mut s = FileStore::create(&path).expect("create");
            s.put(b"good").expect("put");
            s.sync().expect("sync");
        }
        // Append garbage that does not start with any record marker.
        let mut f = OpenOptions::new().append(true).open(&path).expect("raw");
        f.write_all(&[0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09])
            .expect("write");
        drop(f);
        let s = FileStore::open(&path).expect("recover");
        assert_eq!(s.blob_count(), 1);
        assert_eq!(s.get(0).expect("get"), b"good");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn physical_bytes_include_framing() {
        let path = temp_path("framing.log");
        let mut s = FileStore::create(&path).expect("create");
        s.put(&[0u8; 100]).expect("put");
        let st = s.stats();
        assert_eq!(st.payload_bytes, 100);
        assert_eq!(st.physical_bytes, 100 + HEADER_LEN, "sub-minimum payloads stay v1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_log_dedups_reopens_and_reads_back() {
        let path = temp_path("chunked.log");
        let big: Vec<u8> = (0..300_000u32).map(|i| (i % 11) as u8 ^ (i / 777) as u8).collect();
        let mut edited = big.clone();
        edited[150_000] ^= 0xAA;
        {
            let mut s =
                FileStore::create_with(&path, ChunkConfig::default(), true).expect("create");
            let r1 = s.put_with_receipt(&big).expect("put");
            assert!(r1.chunks_written > 2);
            assert_eq!(r1.chunks_deduped, 0);
            let r2 = s.put_with_receipt(&edited).expect("put");
            assert!(r2.chunks_written <= 3, "1-byte edit rewrote {}", r2.chunks_written);
            assert!(r2.bytes_written < (big.len() / 4) as u64);
            // Reads are served correctly while everything is still in the
            // group-commit buffer.
            assert_eq!(s.get(0).expect("get"), big);
            assert_eq!(s.get(1).expect("get"), edited);
            s.sync().expect("sync");
        }
        let s = FileStore::open(&path).expect("reopen");
        assert_eq!(s.blob_count(), 2);
        assert_eq!(s.get(0).expect("get"), big);
        assert_eq!(s.get(1).expect("get"), edited);
        // The rebuilt ledger keeps deduplicating: re-putting the original
        // payload appends no new chunks.
        let mut s = s;
        let r3 = s.put_with_receipt(&big).expect("put");
        assert_eq!(r3.chunks_written, 0, "reopen must rebuild the dedup map");
        assert!(r3.chunks_deduped > 2, "every chunk resolves to a recovered ord");
        assert!(r3.bytes_written < 200, "only the manifest frame is appended");
        std::fs::remove_file(&path).ok();
    }

    /// A stored chunk damaged after it was written, in its payload or in
    /// its recorded CRC, is a miss: the repeat appends the chunk again and
    /// reads back, and the next repeat dedups against the new copy.
    #[test]
    fn damaged_candidates_are_not_deduped_against() {
        let mut rng = kishu_testkit::rng::Rng::seed_from_u64(0xDA3A);
        // Longer than `READ_BACK_RUN`, so its repeat reads back in runs.
        let random: Vec<u8> = (0..2_600_000).map(|_| rng.next_u64() as u8).collect();
        let compressible: Vec<u8> =
            (0..40_000).map(|i| (rng.next_u64() % 17) as u8 ^ (i / 512) as u8).collect();
        for group_commit in [false, true] {
            let path = temp_path(&format!("damaged-{group_commit}.log"));
            let mut s = FileStore::create_with(&path, ChunkConfig::default(), group_commit)
                .expect("create");
            let ids = [s.put(&random).expect("put"), s.put(&compressible).expect("put")];
            s.sync().expect("sync");
            let first_chunk = |s: &FileStore, id: BlobId| match &s.index[id as usize] {
                BlobEntry::Chunked { ords, .. } => s.chunk_index[ords[0] as usize].0,
                BlobEntry::V1(..) => panic!("both payloads are chunked"),
            };
            // Damage the first chunk of each: a payload byte, then a CRC byte.
            let mut raw = OpenOptions::new().write(true).open(&path).expect("raw");
            for (id, at) in [(ids[0], 3), (ids[1], -2i64)] {
                let off = first_chunk(&s, id).checked_add_signed(at).expect("in the file");
                raw.seek(SeekFrom::Start(off)).expect("seek");
                raw.write_all(&[0x5A]).expect("write");
            }
            drop(raw);
            for (id, payload) in ids.into_iter().zip([&random, &compressible]) {
                let what = format!("group_commit {group_commit}, blob {id}");
                let r = s.put_with_receipt(payload).expect("put");
                assert_eq!(r.chunks_written, 1, "{what}: the damaged chunk is appended again");
                assert!(r.chunks_deduped > 0, "{what}: the intact chunks still dedup");
                assert_eq!(&s.get(r.id).expect("get"), payload, "{what}");
                assert!(s.get(id).is_err(), "{what}: the damaged blob fails its read");
                let again = s.put_with_receipt(payload).expect("put");
                assert_eq!(again.chunks_written, 0, "{what}: the new copy is found");
                assert_eq!(&s.get(again.id).expect("get"), payload, "{what}");
            }
            drop(s);
            std::fs::remove_file(&path).ok();
        }
    }

    /// Two one-chunk payloads whose stored forms share their CRC-32 and
    /// length but not their bytes get two chunks, before and after a
    /// reopen (which files both under one key), and each reads back.
    #[test]
    fn crc_collisions_dedup_by_bytes() {
        let cfg = ChunkConfig::default();
        let mut rng = kishu_testkit::rng::Rng::seed_from_u64(0xC011);
        // A payload of exactly `min` bytes is one chunk.
        let base: Vec<u8> = (0..cfg.min).map(|_| rng.next_u64() as u8).collect();
        let mut twin: Vec<u8> = (0..cfg.min).map(|_| rng.next_u64() as u8).collect();
        let target = crc32(&[&[crate::chunk::CHUNK_STORED][..], &base].concat());
        let prefix = [&[crate::chunk::CHUNK_STORED][..], &twin[..cfg.min - 4]].concat();
        let n = twin.len();
        twin[n - 4..].copy_from_slice(&crate::crc32::forge_tail(&prefix, target));
        assert_ne!(base, twin);
        for group_commit in [true, false] {
            let path = temp_path(&format!("collide-{group_commit}.log"));
            {
                let mut s =
                    FileStore::create_with(&path, cfg.clone(), group_commit).expect("create");
                for p in [&base, &twin] {
                    assert_eq!(s.put_with_receipt(p).expect("put").chunks_written, 1);
                }
                for p in [&twin, &base] {
                    let r = s.put_with_receipt(p).expect("put");
                    assert_eq!(r.chunks_written, 0, "group_commit {group_commit}");
                    assert_eq!(&s.get(r.id).expect("get"), p);
                }
                s.sync().expect("sync");
            }
            let mut s = FileStore::open_with(&path, cfg.clone(), group_commit).expect("open");
            let stats = s.chunk_stats().expect("chunking on");
            assert_eq!((stats.chunks, stats.chunk_refs), (2, 4));
            for p in [&twin, &base] {
                let r = s.put_with_receipt(p).expect("put");
                assert_eq!(r.chunks_written, 0, "group_commit {group_commit}: after reopen");
                assert_eq!(&s.get(r.id).expect("get"), p);
            }
            drop(s);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn kill_switch_writes_bit_identical_v1_frames() {
        // `ChunkConfig::disabled()` contract: the log bytes with chunking
        // disabled are exactly the v1 format, record for record.
        let payloads: Vec<Vec<u8>> = vec![
            vec![1u8; 10],
            (0..50_000u32).map(|i| (i % 9) as u8).collect(),
            vec![],
        ];
        let path = temp_path("v1twin.log");
        {
            let mut s =
                FileStore::create_with(&path, ChunkConfig::disabled(), false).expect("create");
            for p in &payloads {
                s.put(p).expect("put");
            }
            s.sync().expect("sync");
        }
        let got = std::fs::read(&path).expect("read");
        let mut want = Vec::new();
        for p in &payloads {
            frame_with(&mut want, MARKER_V1, p);
        }
        assert_eq!(got, want, "kill switch must produce the v1 byte stream");
        // And group commit alone (chunking off) changes nothing either.
        let path2 = temp_path("v1twin-gc.log");
        {
            let mut s =
                FileStore::create_with(&path2, ChunkConfig::disabled(), true).expect("create");
            for p in &payloads {
                s.put(p).expect("put");
            }
            s.sync().expect("sync");
        }
        assert_eq!(std::fs::read(&path2).expect("read"), want);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn v2_frame_golden_bytes() {
        // Format drift guard for the v2 chunked frame. A fixed payload
        // under a fixed config must produce exactly this record structure
        // — and exactly these file bytes (pinned by hash). If this test
        // fails, the on-disk format changed: that must be deliberate, and
        // needs a compat story for existing logs.
        let cfg = ChunkConfig {
            enabled: true,
            min: 64,
            avg: 64,
            max: 128,
        };
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 7) as u8).collect();
        let path = temp_path("golden.log");
        {
            let mut s = FileStore::create_with(&path, cfg, false).expect("create");
            s.put(&payload).expect("put");
        }
        let log = std::fs::read(&path).expect("read");

        // Walk the records: chunk frames first, then one manifest.
        let mut markers = Vec::new();
        let mut off = 0usize;
        let mut manifest_payload = Vec::new();
        while off + HEADER_LEN as usize <= log.len() {
            let marker = log[off];
            let len =
                u32::from_le_bytes([log[off + 1], log[off + 2], log[off + 3], log[off + 4]])
                    as usize;
            let body = &log[off + HEADER_LEN as usize..off + HEADER_LEN as usize + len];
            if marker == MARKER_MANIFEST {
                manifest_payload = body.to_vec();
            }
            markers.push(marker);
            off += HEADER_LEN as usize + len;
        }
        assert_eq!(off, log.len(), "log ends on a record boundary");
        let n_chunks = markers.iter().filter(|&&m| m == MARKER_CHUNK).count();
        assert!(n_chunks >= 2, "300B at max=128 must cut into at least 3 chunks");
        assert_eq!(
            markers.last(),
            Some(&MARKER_MANIFEST),
            "manifest comes after every chunk it references"
        );
        // Manifest: raw_len=300, nchunks, ords 0..n in order.
        let mut want = Vec::new();
        want.extend_from_slice(&300u64.to_le_bytes());
        want.extend_from_slice(&(n_chunks as u32).to_le_bytes());
        for ord in 0..n_chunks as u32 {
            want.extend_from_slice(&ord.to_le_bytes());
        }
        assert_eq!(manifest_payload, want, "manifest layout drifted");
        // Pinned whole-file hash: catches any byte-level drift (framing,
        // chunk cut points, compressor output) in one assertion.
        assert_eq!(
            xxh64(&log, 0),
            0x695F_5C8F_4477_61D3,
            "v2 log bytes drifted; update deliberately with a compat note"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Golden bytes of a whole log: fresh incompressible chunks, a repeat
    /// inside one payload, repeats across payloads (before and after a
    /// reopen), a compressible payload and a sub-minimum v1 payload, with
    /// group commit on and off. Framing, cut points, compressor output and
    /// which chunks dedup all show in the pinned hash, so a change to any
    /// of them (and so to `space_amp`) fails here.
    #[test]
    fn golden_bytes_pin_the_log_format() {
        let mut rng = kishu_testkit::rng::Rng::seed_from_u64(0x601D);
        let mut random = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
        let fresh = random(40_000);
        let half = random(30_000);
        let small = random(1_000);
        let doubled = [&half[..], &half[..]].concat();
        let compressible: Vec<u8> =
            (0..50_000u32).map(|i| (i * i % 7) as u8 ^ (i / 900) as u8).collect();
        let mut edited = fresh.clone();
        edited[20_000] ^= 0xFF;
        for group_commit in [true, false] {
            let path = temp_path(&format!("golden-{group_commit}.log"));
            let mut receipts = Vec::new();
            {
                let mut s = FileStore::create_with(&path, ChunkConfig::default(), group_commit)
                    .expect("create");
                for p in [&fresh, &doubled, &compressible, &small] {
                    receipts.push(s.put_with_receipt(p).expect("put"));
                }
                s.sync().expect("sync");
            }
            {
                let mut s = FileStore::open_with(&path, ChunkConfig::default(), group_commit)
                    .expect("open");
                for p in [&fresh, &edited, &doubled] {
                    receipts.push(s.put_with_receipt(p).expect("put"));
                }
                s.sync().expect("sync");
            }
            let what = format!("group_commit {group_commit}");
            assert!(receipts[0].chunks_written > 2 && receipts[0].bytes_compressed == 0, "{what}");
            assert!(receipts[1].chunks_deduped > 0, "{what}: a repeat inside one payload");
            assert!(receipts[2].bytes_compressed > 0, "{what}: a compressible payload");
            assert_eq!(receipts[3].bytes_written, HEADER_LEN + 1_000, "{what}: a v1 payload");
            assert_eq!(receipts[4].chunks_written, 0, "{what}: a repeat after the reopen");
            assert!(receipts[5].chunks_deduped > 0 && receipts[5].chunks_written > 0, "{what}");
            assert_eq!(receipts[6].chunks_written, 0, "{what}");
            let log = std::fs::read(&path).expect("read");
            assert_eq!(xxh64(&log, 0), 0xB30E_86EE_0210_0627, "{what}: log bytes drifted");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Start offset of every record in `log`, then the offset it ends at.
    fn record_bounds(log: &[u8]) -> Vec<usize> {
        let mut bounds = vec![0];
        let mut off = 0;
        while off < log.len() {
            let len = u32::from_le_bytes([log[off + 1], log[off + 2], log[off + 3], log[off + 4]]);
            off += HEADER_LEN as usize + len as usize;
            bounds.push(off);
        }
        assert_eq!(off, log.len(), "log ends on a record boundary");
        bounds
    }

    #[test]
    fn forged_lengths_end_recovery_without_panic() {
        // Each log is an intact v1 blob, then CRC-valid records whose
        // lengths are forged. Recovery keeps the v1 blob and any intact
        // chunk before the forgery, truncates the file at the first bad
        // record, and neither panics nor allocates for the claim.
        let stored_chunk = [&[crate::chunk::CHUNK_STORED][..], &[7u8; 9]].concat();
        // A compressed chunk whose varint claims 2^50 raw bytes.
        let forged_chunk =
            [&[crate::chunk::CHUNK_COMPRESSED][..], &[0x80; 7], &[2, 0, b'x']].concat();
        let cases = [
            (
                "manifest claims 2^50 bytes over one 10-byte chunk",
                vec![
                    (MARKER_CHUNK, stored_chunk.clone()),
                    (MARKER_MANIFEST, encode_manifest(1 << 50, &[0])),
                ],
                1,
            ),
            (
                "two manifests claim 2^63 bytes each",
                vec![
                    (MARKER_CHUNK, stored_chunk.clone()),
                    (MARKER_MANIFEST, encode_manifest(1 << 63, &[0])),
                    (MARKER_MANIFEST, encode_manifest(1 << 63, &[0])),
                ],
                1,
            ),
            (
                "compressed chunk claims 2^50 bytes, manifest agrees",
                vec![
                    (MARKER_CHUNK, forged_chunk),
                    (MARKER_MANIFEST, encode_manifest(1 << 50, &[0])),
                ],
                0,
            ),
        ];
        let path = temp_path("forged.log");
        for (name, records, intact_chunks) in cases {
            let mut log = Vec::new();
            frame_with(&mut log, MARKER_V1, b"intact");
            let mut intact_end = log.len() as u64;
            for (i, (marker, payload)) in records.iter().enumerate() {
                frame_with(&mut log, *marker, payload);
                if i < intact_chunks {
                    intact_end = log.len() as u64;
                }
            }
            std::fs::write(&path, &log).expect("write");

            let s = FileStore::open(&path).expect("open recovers");
            assert_eq!(s.blob_count(), 1, "{name}: only the v1 blob survives");
            assert_eq!(s.stats().payload_bytes, 6, "{name}");
            let raw_bytes = s.chunk_stats().expect("chunking on").raw_bytes;
            assert_eq!(raw_bytes, 9 * intact_chunks as u64, "{name}");
            assert_eq!(std::fs::metadata(&path).expect("meta").len(), intact_end, "{name}");
            assert_eq!(s.get(0).expect("get"), b"intact", "{name}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_across_scan_window_boundaries() {
        for cfg in [ChunkConfig::disabled(), ChunkConfig::default()] {
            scan_window_boundaries(cfg);
        }
    }

    /// A log over three scan windows long, with records straddling each
    /// window edge: every cut within 32 bytes of an edge recovers the
    /// longest intact prefix and accepts an append, and one damaged byte
    /// in the record across the second edge ends recovery at that record.
    fn scan_window_boundaries(cfg: ChunkConfig) {
        let path = temp_path(&format!("window-{}.log", cfg.enabled));
        let mut rng = kishu_testkit::rng::Rng::seed_from_u64(0x5CA9);
        let mut payloads = Vec::new();
        // Log end after each put: blob `i` is intact iff `ends[i] <= cut`.
        let mut ends = Vec::new();
        {
            let mut s = FileStore::create_with(&path, cfg.clone(), true).expect("create");
            while s.stats().physical_bytes < 3 * SCAN_WINDOW as u64 + 4096 {
                // Uneven sizes; every other payload compressible, so the
                // chunked log holds both stored-chunk flags.
                let len = 20_000 + (rng.next_u64() % 30_000) as usize;
                let spread = if payloads.len() % 2 == 0 { 256 } else { 4 };
                let p: Vec<u8> = (0..len).map(|_| (rng.next_u64() % spread) as u8).collect();
                s.put(&p).expect("put");
                ends.push(s.stats().physical_bytes);
                payloads.push(p);
            }
            s.sync().expect("sync");
        }
        let log = std::fs::read(&path).expect("read");
        let bounds = record_bounds(&log);
        let edges: Vec<usize> = (1..=log.len() / SCAN_WINDOW).map(|k| k * SCAN_WINDOW).collect();
        assert!(edges.len() >= 3, "{cfg:?}: the log spans three windows");
        for edge in &edges {
            assert!(!bounds.contains(edge), "{cfg:?}: a record straddles the edge at {edge}");
        }

        for &edge in &edges {
            for cut in edge - 32..=edge + 32 {
                std::fs::write(&path, &log[..cut]).expect("write prefix");
                let mut s = FileStore::open_with(&path, cfg.clone(), true).expect("open");
                let intact = ends.iter().filter(|&&e| e <= cut as u64).count();
                let what = format!("{cfg:?} cut at byte {cut}");
                assert_eq!(s.blob_count(), intact as u64, "{what}");
                let last_record_end = bounds.iter().filter(|&&b| b <= cut).max().expect("0");
                let len = std::fs::metadata(&path).expect("meta").len();
                assert_eq!(len, *last_record_end as u64, "{what}: truncated to the last record");
                assert_eq!(s.get(intact as u64 - 1).expect("get"), payloads[intact - 1], "{what}");
                let id = s.put(b"after recovery").expect("append");
                assert_eq!(s.get(id).expect("read back"), b"after recovery", "{what}");
            }
        }

        // One damaged byte in the record across the second edge.
        let edge = edges[1];
        let start = *bounds.iter().filter(|&&b| b < edge).max().expect("0");
        let mut damaged = log.clone();
        damaged[edge] ^= 0x5A;
        std::fs::write(&path, &damaged).expect("write damaged");
        let s = FileStore::open_with(&path, cfg.clone(), true).expect("open");
        let intact = ends.iter().filter(|&&e| e <= start as u64).count();
        assert_eq!(s.blob_count(), intact as u64, "{cfg:?}: recovery ends at the damaged record");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), start as u64, "{cfg:?}");
        assert_eq!(s.get(intact as u64 - 1).expect("get"), payloads[intact - 1], "{cfg:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_buffer_survives_barrier_and_drop() {
        let path = temp_path("gcommit.log");
        let payload = vec![5u8; 300];
        {
            let mut s =
                FileStore::create_with(&path, ChunkConfig::disabled(), true).expect("create");
            s.set_sync_on_put(true);
            s.put(&payload).expect("put");
            // Buffered: the file is still empty, but reads work.
            assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
            assert_eq!(s.get(0).expect("get"), payload);
            s.flush_barrier().expect("barrier");
            assert_eq!(
                std::fs::metadata(&path).expect("meta").len(),
                HEADER_LEN + payload.len() as u64
            );
            s.put(b"tail").expect("put");
            // Dropped without sync: Drop flushes best-effort.
        }
        let s = FileStore::open(&path).expect("open");
        assert_eq!(s.blob_count(), 2);
        assert_eq!(s.get(0).expect("get"), payload);
        assert_eq!(s.get(1).expect("get"), b"tail");
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::hash::xxh64;
    use kishu_testkit::prelude::*;

    /// One corruption of a log file: the edit kinds of the pickle reader's
    /// `decoder_never_panics_on_corruption`.
    #[derive(Debug, Clone)]
    enum Edit {
        /// XOR the byte at `at` (modulo the length) with `mask | 1`.
        Flip(usize, u8),
        /// Overwrite the byte at `at` (modulo the length) with `b`.
        Overwrite(usize, u8),
        /// Keep the first `at` (modulo the length + 1) bytes.
        Truncate(usize),
        /// Append bytes.
        Append(Vec<u8>),
    }

    fn edit_strategy() -> impl Strategy<Value = Edit> {
        prop_oneof![
            3 => any::<(usize, u8)>().prop_map(|(at, mask)| Edit::Flip(at, mask)),
            2 => any::<(usize, u8)>().prop_map(|(at, b)| Edit::Overwrite(at, b)),
            1 => any::<usize>().prop_map(Edit::Truncate),
            1 => prop::collection::vec(any::<u8>(), 1..24).prop_map(Edit::Append),
        ]
    }

    fn apply(log: &mut Vec<u8>, edit: &Edit) {
        match edit {
            Edit::Flip(at, mask) if !log.is_empty() => {
                let i = at % log.len();
                log[i] ^= mask | 1;
            }
            Edit::Overwrite(at, b) if !log.is_empty() => {
                let i = at % log.len();
                log[i] = *b;
            }
            Edit::Truncate(at) => log.truncate(at % (log.len() + 1)),
            Edit::Append(bytes) => log.extend_from_slice(bytes),
            _ => {}
        }
    }

    /// The blob a `(pattern, len, at)` recipe names: `len` bytes of one of
    /// four patterns, two compressible and two not, with the byte at `at`
    /// changed. Blobs of one pattern share most of their chunks.
    fn blob(&(pattern, len, at): &(u8, usize, usize)) -> Vec<u8> {
        let mut out: Vec<u8> = (0..len as u64)
            .map(|j| match pattern {
                0 | 1 => (j / (3 + u64::from(pattern)) % 11) as u8,
                _ => xxh64(&j.to_le_bytes(), u64::from(pattern)) as u8,
            })
            .collect();
        if len > 0 {
            out[at % len] ^= 0xA5;
        }
        out
    }

    /// Every frame boundary of `log` found by walking its length fields
    /// from offset 0, whatever the markers and CRCs say: 0, then the end
    /// of each frame that fits in the file.
    fn length_walk(log: &[u8]) -> Vec<u64> {
        let mut bounds = vec![0u64];
        let mut off = 0u64;
        while off + HEADER_LEN <= log.len() as u64 {
            let o = off as usize;
            let len = u32::from_le_bytes([log[o + 1], log[o + 2], log[o + 3], log[o + 4]]);
            off += HEADER_LEN + u64::from(len);
            if off > log.len() as u64 {
                break;
            }
            bounds.push(off);
        }
        bounds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Real logs, v1 and small-threshold v2 (chunk and manifest frames,
        /// deduplicated chunks), with 1–3 edits anywhere in the file:
        /// `open` recovers, every recovered id reads without panicking,
        /// and recovery only ever truncates, to a frame boundary.
        #[test]
        fn mutated_logs_fail_closed(
            recipes in prop::collection::vec((0u8..4, 0usize..700, any::<usize>()), 1..12),
            edits in prop::collection::vec(edit_strategy(), 1..4),
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join("mutated.log");
            let small_v2 = ChunkConfig { enabled: true, min: 32, avg: 64, max: 256 };
            for cfg in [ChunkConfig::disabled(), small_v2] {
                {
                    let mut s = FileStore::create_with(&path, cfg, false).expect("create");
                    for r in &recipes {
                        s.put(&blob(r)).expect("put");
                    }
                    s.sync().expect("sync");
                }
                let mut log = std::fs::read(&path).expect("read");
                for e in &edits {
                    apply(&mut log, e);
                }
                std::fs::write(&path, &log).expect("write");
                let s = match FileStore::open(&path) {
                    Ok(s) => s,
                    Err(e) => return Err(TestCaseError::fail(format!("open failed: {e}"))),
                };
                for id in 0..s.blob_count() {
                    let _ = s.get(id);
                }
                let len = std::fs::metadata(&path).expect("meta").len();
                prop_assert!(len <= log.len() as u64, "open grew the file to {len}");
                let bounds = length_walk(&log);
                prop_assert!(bounds.contains(&len), "open cut at {len}, not a frame boundary");
                let frames = bounds.iter().filter(|&&b| b <= len).count() as u64 - 1;
                prop_assert!(s.blob_count() <= frames, "{} blobs in {frames} frames", s.blob_count());
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Read windows for `scan_matches_reference`: from 16 bytes, where
    /// headers and most records cross an edge, to `SCAN_WINDOW`.
    fn window_strategy() -> BoxedStrategy<usize> {
        prop_oneof![
            3 => 16usize..64,
            2 => 64usize..4096,
            1 => 4096usize..SCAN_WINDOW + 1,
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The windowed in-place scan equals the scan it replaced on the
        /// logs of `mutated_logs_fail_closed` (v1 and small-v2 logs with
        /// 1–3 flips, overwrites, truncations or appends), at read windows
        /// from 16 bytes to 1 MiB, and at one byte under and exactly the
        /// log's length: the same blob index, chunk index, stats, ledger
        /// and truncation offset.
        #[test]
        fn scan_matches_reference(
            recipes in prop::collection::vec((0u8..4, 0usize..700, any::<usize>()), 1..12),
            edits in prop::collection::vec(edit_strategy(), 1..4),
            window in window_strategy(),
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join(format!("scan-{window}.log"));
            let small_v2 = ChunkConfig { enabled: true, min: 32, avg: 64, max: 256 };
            for cfg in [ChunkConfig::disabled(), small_v2] {
                {
                    let mut s = FileStore::create_with(&path, cfg, false).expect("create");
                    for r in &recipes {
                        s.put(&blob(r)).expect("put");
                    }
                    s.sync().expect("sync");
                }
                let mut log = std::fs::read(&path).expect("read");
                for e in &edits {
                    apply(&mut log, e);
                }
                std::fs::write(&path, &log).expect("write");
                let file = File::open(&path).expect("open");
                let len = log.len() as u64;
                let want = scan_reference(&file, len).expect("reference scan");
                for w in [window, 16, log.len().saturating_sub(1), log.len(), SCAN_WINDOW] {
                    let got = scan(&file, len, w).expect("scan");
                    prop_assert!(got == want, "window {w}: {:?} != {:?}", got, want);
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Whether `get` and `get_reference` agree on every id of `s`: the same
    /// bytes, or both an error.
    fn gets_agree(s: &FileStore) -> Result<(), TestCaseError> {
        for id in 0..s.blob_count() {
            match (s.get(id), s.get_reference(id)) {
                (Ok(got), Ok(want)) => prop_assert!(got == want, "blob {id} read back differently"),
                (Err(_), Err(_)) => {}
                (got, want) => {
                    let show = |r: &io::Result<Vec<u8>>| {
                        r.as_ref().map(Vec::len).map_err(|e| e.to_string())
                    };
                    return Err(TestCaseError::fail(format!(
                        "blob {id}: get {:?}, get_reference {:?}",
                        show(&got),
                        show(&want)
                    )));
                }
            }
        }
        Ok(())
    }

    /// The frames of blob `id`, from CRC field to end, in payload order;
    /// empty for a v1 record.
    fn blob_frames(s: &FileStore, id: usize) -> Vec<(u64, u64)> {
        match &s.index[id] {
            BlobEntry::V1(..) => Vec::new(),
            BlobEntry::Chunked { ords, .. } => {
                ords.iter().map(|&o| s.chunk_frame(o).expect("indexed")).collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The run reader returns what the per-chunk read it replaced
        /// returns, for every id, on the logs of `scan_matches_reference`
        /// (v1 and small-v2) with 1–3 edits to the file, made under the
        /// open store (damaged chunks, short reads) and then reopened. Puts
        /// after the last sync stay in the group-commit buffer: a blob
        /// longer than `READ_BACK_RUN`, whose put flushes the buffer
        /// halfway, a blob that shares chunks with it, and a few more.
        #[test]
        fn get_matches_reference(
            recipes in prop::collection::vec((0u8..4, 0usize..700, any::<usize>()), 1..12),
            buffered in prop::collection::vec((0u8..4, 0usize..700, any::<usize>()), 0..4),
            edits in prop::collection::vec(edit_strategy(), 1..4),
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join("get.log");
            // Incompressible, so its chunks' frames span more than one run,
            // and they lie both in the file and in the buffer; the short
            // blob is its first 4 KiB with byte 7 changed, so it is cut
            // into new chunks and chunks deduped against the long blob's.
            let long = blob(&(2, READ_BACK_RUN as usize + 4096, usize::MAX));
            let variant = blob(&(2, 4096, 7));
            let small_v2 = ChunkConfig { enabled: true, min: 32, avg: 64, max: 256 };
            for cfg in [ChunkConfig::disabled(), small_v2.clone()] {
                let put_buffered = |s: &mut FileStore| {
                    s.put(&long).expect("put");
                    s.put(&variant).expect("put");
                    for r in &buffered {
                        s.put(&blob(r)).expect("put");
                    }
                };
                let mut s = FileStore::create_with(&path, cfg.clone(), true).expect("create");
                for r in &recipes {
                    s.put(&blob(r)).expect("put");
                }
                s.sync().expect("sync");
                put_buffered(&mut s);
                if cfg == small_v2 {
                    let blobs: Vec<_> = (0..s.index.len()).map(|id| blob_frames(&s, id)).collect();
                    let gapped = blobs.iter().any(|f| {
                        f.windows(2).any(|w| w[1] != w[0] && w[1].0 != w[0].1 + HEADER_LEN - 4)
                    });
                    let straddles = blobs.iter().any(|f| {
                        let in_file = f.iter().filter(|fr| fr.0 < s.flushed_end).count();
                        in_file > 0 && in_file < f.len()
                    });
                    let spans_runs = blobs.iter().any(|f| {
                        f.first().zip(f.last()).is_some_and(|(a, z)| z.1 > a.0 + READ_BACK_RUN)
                    });
                    prop_assert!(gapped, "no blob with non-adjacent chunks");
                    prop_assert!(straddles, "no blob read from both the file and the buffer");
                    prop_assert!(spans_runs, "no blob longer than one run");
                }
                gets_agree(&s)?;
                let mut log = std::fs::read(&path).expect("read");
                for e in &edits {
                    apply(&mut log, e);
                }
                std::fs::write(&path, &log).expect("write");
                gets_agree(&s)?;
                // Dropping the store flushes its buffer into the edited
                // file; write the edited log again before reopening it.
                drop(s);
                std::fs::write(&path, &log).expect("write");
                let mut s = FileStore::open_with(&path, cfg, true).expect("open");
                put_buffered(&mut s);
                gets_agree(&s)?;
            }
            std::fs::remove_file(&path).ok();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn random_blob_sequences_roundtrip(
            blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0usize..2000), 1usize..20)
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join(format!("p{}.log", crc32(&blobs.concat())));
            let _ = std::fs::remove_file(&path);
            {
                let mut s = FileStore::create(&path).expect("create");
                for b in &blobs {
                    s.put(b).expect("put");
                }
                s.sync().expect("sync");
            }
            let s = FileStore::open(&path).expect("open");
            prop_assert_eq!(s.blob_count(), blobs.len() as u64);
            for (i, b) in blobs.iter().enumerate() {
                prop_assert_eq!(&s.get(i as u64).expect("get"), b);
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn chunked_and_v1_logs_agree_logically(
            blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0usize..30_000), 1usize..8)
        ) {
            let dir = std::env::temp_dir().join(format!("kishu-fsprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let tag = crc32(&blobs.concat());
            let p_on = dir.join(format!("on{tag}.log"));
            let p_off = dir.join(format!("off{tag}.log"));
            let _ = std::fs::remove_file(&p_on);
            let _ = std::fs::remove_file(&p_off);
            let mut on = FileStore::create_with(&p_on, ChunkConfig::default(), true).expect("create");
            let mut off = FileStore::create_with(&p_off, ChunkConfig::disabled(), false).expect("create");
            for b in &blobs {
                prop_assert_eq!(on.put(b).expect("put"), off.put(b).expect("put"));
            }
            for (i, b) in blobs.iter().enumerate() {
                prop_assert_eq!(&on.get(i as u64).expect("get"), b);
                prop_assert_eq!(&off.get(i as u64).expect("get"), b);
            }
            prop_assert_eq!(on.blob_count(), off.blob_count());
            let (s_on, s_off) = (on.stats(), off.stats());
            prop_assert_eq!(s_on.blobs, s_off.blobs);
            prop_assert_eq!(s_on.payload_bytes, s_off.payload_bytes);
            std::fs::remove_file(&p_on).ok();
            std::fs::remove_file(&p_off).ok();
        }
    }
}
