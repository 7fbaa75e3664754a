//! [`KishuSession`]: the end-to-end time-traveling notebook session.
//!
//! Ties every piece together the way Fig 5 draws it: the minipy interpreter
//! is the kernel, its patched namespace produces per-cell access records,
//! the [`DeltaDetector`] turns them into co-variable state deltas, each
//! delta is pickled per co-variable into the [`CheckpointStore`] and
//! committed to the [`CheckpointGraph`], and `checkout` restores any past
//! state by loading only the diverged co-variables — falling back to
//! recursive recomputation (§5.3) when bytes are missing or refuse to load.
//! One file per pipeline: `write.rs` checkpoints, `read.rs` checks out,
//! `queries.rs` answers graph queries, `health.rs` reports; this one holds
//! the configuration, reports, lifecycle and blob framing they share.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::Arc;
use std::time::Duration;

use kishu_kernel::{Heap, ObjId};
use kishu_libsim::{LibReducer, Registry};
use kishu_minipy::{CellOutcome, Interp};
use kishu_pickle::{dumps_into, PickleError, Reducer};
use kishu_storage::{
    crc32::crc32, BlobCache, BlobId, BlobIndex, CheckpointStore, ContentKey, MemoryStore,
    StoreStats,
};
use kishu_trace::Trace;

use crate::covariable::CoVarKey;
use crate::delta::DeltaDetector;
use crate::error::KishuError;
use crate::graph::{CheckpointGraph, NodeId};

mod health;
mod queries;
mod read;
mod write;

pub use health::HealthReport;

/// Session configuration.
#[derive(Debug, Clone)]
pub struct KishuConfig {
    /// Disable Lemma 1 candidate pruning and verify every co-variable after
    /// every cell (the AblatedKishu "Check all" baseline).
    pub check_all: bool,
    /// Use the XXH64 fast path for array contents in VarGraphs (§6.2).
    pub hash_arrays: bool,
    /// Write an incremental checkpoint after every cell execution.
    pub auto_checkpoint: bool,
    /// Library class names whose co-variables are never stored; checkout
    /// always restores them by fallback recomputation (§6.2's blocklist for
    /// silently erroneous classes).
    pub blocklist: BTreeSet<String>,
    /// Garbage-collect unreachable heap objects after cells and at the
    /// end of checkouts (`resume` included), whenever the session's one
    /// collection rule says a sweep is due: more than 4,096 objects, or
    /// more shallow bytes than the larger of 4 MiB and what survived the
    /// last sweep, allocated since that sweep. `false` never sweeps.
    /// Slot ids and simulated addresses are never reused, so when a sweep
    /// runs changes memory use only.
    pub gc_after_cell: bool,
    /// Skip delta detection entirely for cells that are *provably
    /// read-only* under the static rules of [`crate::rules`] — the §6.2
    /// rule-based extension targeting the printing cells of §7.6.
    pub rule_based_cells: bool,
    /// Collapse primitive-only lists into digest nodes in VarGraphs — the
    /// §7.6 "list hashing" extension. See
    /// [`crate::vargraph::VarGraphConfig::hash_primitive_lists`].
    pub hash_primitive_lists: bool,
    /// Defer checkpoint serialization into the user's *think time* (§2.2):
    /// `run_cell` commits the node immediately with metadata only, and the
    /// bytes are written by [`KishuSession::flush_pending`] — which is
    /// invoked automatically before the next cell execution or checkout
    /// (the state cannot change in between, so deferral is safe).
    pub defer_serialization: bool,
    /// How many immediate retries a transient checkpoint-store failure
    /// (`io::ErrorKind::Interrupted`) gets on `put`/`get` before the session
    /// degrades: a failed write drops the blob (checkout falls back to
    /// recomputation), a failed read falls back on the spot. Non-transient
    /// errors are never retried.
    pub store_retries: u32,
    /// Worker threads for the checkpoint write pipeline: co-variable
    /// serialization and CRC sealing fan out over a [`kishu_testkit::pool`]
    /// batch; store writes stay sequential on the session thread (in delta
    /// order), so store contents and fault ledgers are byte-identical at
    /// every worker count. `1` is the fully serial path — kept as the
    /// differential-testing oracle. Defaults to `min(4, available cores)`.
    pub checkpoint_workers: usize,
    /// Content-addressed blob dedup: before writing a sealed payload, look
    /// its content key up in the session's [`kishu_storage::BlobIndex`] and
    /// reuse the existing blob on a hit — a repeat checkpoint of unchanged
    /// bytes becomes metadata-only. `checkpoint_bytes` still counts the
    /// logical serialized size; the new `bytes_written` metric counts only
    /// physical writes.
    pub dedup_blobs: bool,
    /// Worker threads for the checkout read pipeline: CRC verification and
    /// the simulated decode charge of every fetched blob fan out over a
    /// [`kishu_testkit::pool`] batch; store reads and namespace application
    /// stay sequential on the session thread (in plan order), so checkout
    /// reports, fault ledgers, and the restored namespace are identical at
    /// every worker count. `1` is the fully serial path — kept as the
    /// differential-testing oracle. Defaults to `min(4, available cores)`.
    pub restore_workers: usize,
    /// Byte budget of the content-addressed checkout read cache
    /// ([`kishu_storage::BlobCache`]); `0` disables it. Payloads that pass
    /// their end-to-end CRC during a checkout are kept (LRU by bytes) under
    /// the same content keys the write-side dedup index uses, so repeated
    /// undo/redo over the same states skips the store read, the CRC pass,
    /// and the decode charge. Defaults to 32 MiB.
    pub checkout_cache_bytes: u64,
    /// Execute cells on the minipy bytecode VM (`true`, the default) or on
    /// the tree-walking oracle interpreter (`false`). Both engines are
    /// observably identical — namespaces, heap allocation order, access
    /// records, replay semantics, and error shapes — which the invariant
    /// matrix in `tests/invariant_matrix.rs` enforces.
    pub minipy_vm: bool,
}

/// Default width of both pipelines: `min(4, available cores)`.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

impl Default for KishuConfig {
    fn default() -> Self {
        KishuConfig {
            check_all: false,
            hash_arrays: true,
            auto_checkpoint: true,
            blocklist: BTreeSet::new(),
            gc_after_cell: true,
            rule_based_cells: false,
            hash_primitive_lists: false,
            defer_serialization: false,
            store_retries: 2,
            checkpoint_workers: default_workers(),
            dedup_blobs: true,
            restore_workers: default_workers(),
            checkout_cache_bytes: 32 * 1024 * 1024,
            minipy_vm: true,
        }
    }
}

/// Run `op`, retrying up to `retries` extra times while it fails with a
/// transient (`Interrupted`) error — the kind `FaultStore` injects for
/// recoverable faults and real kernels return for interrupted syscalls.
/// Each retry adds one to `retried`, the count [`KishuSession::health`]
/// reports.
fn retry_io<T>(
    retries: u32,
    retried: &mut u64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < retries => {
                attempt += 1;
                *retried += 1;
            }
            other => return other,
        }
    }
}

/// Per-cell measurements (drives Tables 6 and Figs 13/14/17).
#[derive(Debug, Clone)]
pub struct CellMetrics {
    /// Checkpoint node created for the cell; `None` when `auto_checkpoint`
    /// is off and no node was committed.
    pub node: Option<NodeId>,
    /// Cell execution wall time.
    pub cell_time: Duration,
    /// Delta-detection (tracking) time.
    pub tracking_time: Duration,
    /// Serialization + store-write time.
    pub checkpoint_time: Duration,
    /// Bytes written for this cell's checkpoint.
    pub checkpoint_bytes: u64,
    /// Updated co-variables in the delta.
    pub covars_updated: usize,
    /// Candidate co-variables verified.
    pub candidates_checked: usize,
    /// Co-variables whose bytes were dropped because serialization or the
    /// store failed (checkout will fall back to recomputation). Policy
    /// skips — blocklist, `store_data: false`, pending deferral — do not
    /// count.
    pub blobs_dropped: usize,
    /// Co-variables whose sealed bytes matched an already-written blob and
    /// were deduplicated away (no store write happened).
    pub blobs_deduped: usize,
    /// Physical bytes the store reported appending for this cell (sealed
    /// payloads minus session-level dedup hits; under the v2 chunked
    /// representation, minus chunk dedup and compression too).
    /// `checkpoint_bytes` keeps counting the logical serialized size.
    pub bytes_written: u64,
    /// New chunks this cell's puts stored (0 on stores without a chunk
    /// layer).
    pub chunks_written: u64,
    /// Chunks this cell's puts shared with already-stored data.
    pub chunks_deduped: u64,
    /// Bytes the in-tree compressor saved on this cell's written chunks.
    pub bytes_compressed: u64,
    /// Of `checkpoint_time`, the nanoseconds spent serializing + sealing
    /// (the `ckpt.serialize` span — phase 2 of the write pipeline).
    pub serialize_ns: u64,
    /// Of `checkpoint_time`, the nanoseconds spent on sequential store
    /// writes (the `ckpt.write` span — phase 3).
    pub write_ns: u64,
}

/// Aggregated session measurements.
#[derive(Debug, Clone, Default)]
pub struct SessionMetrics {
    /// Per-cell entries in execution order.
    pub cells: Vec<CellMetrics>,
    /// Blocklist checks that encountered an `External` object whose class
    /// the registry could not name. Such an object cannot be cleared
    /// against the blocklist, so the check conservatively treats it as
    /// blocklisted (skip storage, rely on fallback recomputation) and
    /// counts the anomaly here instead of silently passing it.
    pub blocklist_anomalies: usize,
    /// Store operations retried after a transient error (see
    /// [`KishuConfig::store_retries`]), `resume`'s snapshot scan included.
    pub store_retries: u64,
    /// Group-commit barriers that failed (degradations, not data loss).
    pub barrier_failures: u64,
    /// Stored payloads a read could not use: unreadable after retries,
    /// failing their CRC, or (at checkout) refusing to deserialize. A
    /// checkout restores such a payload by fallback recomputation, and
    /// this is the session-wide count behind
    /// [`CheckoutReport::integrity_failures`]; a deep diff
    /// ([`KishuSession::diff_deep`]) leaves the entry's `same_bytes` at
    /// `None` and counts it here too.
    pub integrity_failures: u64,
}

impl SessionMetrics {
    /// Total tracking time across cells.
    pub fn total_tracking(&self) -> Duration {
        self.cells.iter().map(|c| c.tracking_time).sum()
    }

    /// Total checkpoint (serialize + write) time across cells.
    pub fn total_checkpoint(&self) -> Duration {
        self.cells.iter().map(|c| c.checkpoint_time).sum()
    }

    /// Total cell execution wall time.
    pub fn total_cell_time(&self) -> Duration {
        self.cells.iter().map(|c| c.cell_time).sum()
    }

    /// Total checkpoint bytes written.
    pub fn total_checkpoint_bytes(&self) -> u64 {
        self.cells.iter().map(|c| c.checkpoint_bytes).sum()
    }

    /// Total co-variable blobs dropped at write time across cells (the
    /// write-side degradation counter).
    pub fn total_blobs_dropped(&self) -> usize {
        self.cells.iter().map(|c| c.blobs_dropped).sum()
    }

    /// Total co-variable blobs deduplicated away across cells.
    pub fn total_blobs_deduped(&self) -> usize {
        self.cells.iter().map(|c| c.blobs_deduped).sum()
    }

    /// Total physical bytes handed to the store across cells.
    pub fn total_bytes_written(&self) -> u64 {
        self.cells.iter().map(|c| c.bytes_written).sum()
    }

    /// Total new chunks stored across cells (0 without a chunk layer).
    pub fn total_chunks_written(&self) -> u64 {
        self.cells.iter().map(|c| c.chunks_written).sum()
    }

    /// Total chunk dedup hits across cells.
    pub fn total_chunks_deduped(&self) -> u64 {
        self.cells.iter().map(|c| c.chunks_deduped).sum()
    }

    /// Total bytes compression saved across cells.
    pub fn total_bytes_compressed(&self) -> u64 {
        self.cells.iter().map(|c| c.bytes_compressed).sum()
    }

    /// Total serialize+seal nanoseconds across cells (phase 2 of the write
    /// pipeline, summed from the per-cell `ckpt.serialize` spans).
    pub fn total_serialize_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.serialize_ns).sum()
    }

    /// Total sequential store-write nanoseconds across cells (phase 3).
    pub fn total_write_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.write_ns).sum()
    }
}

/// Result of [`KishuSession::run_cell`].
#[derive(Debug)]
pub struct CellReport {
    /// Checkpoint node committed for this cell. `None` when
    /// `auto_checkpoint` is off: the head did not move and the previous
    /// head must not be mistaken for this cell's checkpoint.
    pub node: Option<NodeId>,
    /// The interpreter-level outcome (output, value, error, access record).
    pub outcome: CellOutcome,
    /// Updated co-variables (the state delta stored in the checkpoint).
    pub updated: Vec<CoVarKey>,
    /// Tracking (delta detection) time.
    pub tracking_time: Duration,
    /// Checkpoint serialize+write time.
    pub checkpoint_time: Duration,
    /// Bytes written.
    pub checkpoint_bytes: u64,
    /// Co-variables whose bytes were dropped at write time because
    /// serialization or the store failed (degradation counter; checkout
    /// restores them by fallback recomputation).
    pub blobs_dropped: usize,
    /// Co-variables deduplicated against an already-written blob (their
    /// checkpoint became metadata-only).
    pub blobs_deduped: usize,
    /// Physical bytes the store reported appending (dedup hits excluded;
    /// chunk dedup and compression already subtracted where the store runs
    /// the v2 representation).
    pub bytes_written: u64,
    /// New chunks stored for this cell (0 without a chunk layer).
    pub chunks_written: u64,
    /// Chunk dedup hits for this cell.
    pub chunks_deduped: u64,
    /// Bytes compression saved on this cell's written chunks.
    pub bytes_compressed: u64,
    /// `checkpoint_time` in integer nanoseconds, for JSON report emission
    /// and the bench comparator (no `Duration` parsing downstream).
    ///
    /// Derived from the `ckpt` span (one clock read); `serialize_ns` and
    /// `write_ns` below are its phase children, so the per-phase breakdown
    /// never double-clocks the wall total.
    pub ckpt_wall_ns: u64,
    /// Nanoseconds in serialize+seal (the `ckpt.serialize` span).
    pub serialize_ns: u64,
    /// Nanoseconds in sequential store writes (the `ckpt.write` span).
    pub write_ns: u64,
}

/// Result of [`KishuSession::checkout`].
#[derive(Debug)]
pub struct CheckoutReport {
    /// The restored node (new head).
    pub target: NodeId,
    /// Co-variables loaded from checkpoints.
    pub loaded: Vec<CoVarKey>,
    /// Co-variables restored by fallback recomputation (§5.3).
    pub recomputed: Vec<CoVarKey>,
    /// Variables removed from the namespace.
    pub removed: Vec<CoVarKey>,
    /// Co-variables untouched because they were identical (the incremental
    /// win of §5.2).
    pub identical: usize,
    /// Checkpoint bytes read.
    pub bytes_loaded: u64,
    /// End-to-end checkout wall time (includes any think-time flush this
    /// checkout triggered; that time is *not* double-counted into the
    /// originating cell's `checkpoint_time`).
    pub wall_time: Duration,
    /// Stored blobs that failed to read back (I/O error after retries, or
    /// bytes that refused to deserialize) and were swallowed by falling
    /// back to recomputation — the read-side degradation counter.
    pub integrity_failures: usize,
    /// Deferred think-time co-variables this checkout flushed before
    /// restoring (their write time is in `wall_time`).
    pub flushed: usize,
    /// Among `loaded`, the co-variables whose payload was served from the
    /// in-memory read cache — no store read, no CRC pass, no decode charge.
    pub blobs_cached: usize,
    /// `wall_time` in integer nanoseconds, for JSON report emission and the
    /// bench comparator (no `Duration` parsing downstream).
    ///
    /// Derived from the `checkout` span (one clock read); the three phase
    /// fields below come from its child spans, so fetch/verify/apply sum to
    /// at most the wall total — never double-clocked.
    pub co_wall_ns: u64,
    /// Nanoseconds in phase 1 (sequential store reads, `checkout.fetch`).
    pub fetch_ns: u64,
    /// Nanoseconds in phase 2 (pooled CRC verify + decode charge,
    /// `checkout.verify`).
    pub verify_ns: u64,
    /// Nanoseconds in phase 3 (sequential deserialize + namespace apply,
    /// `checkout.apply`, including any fallback recomputation).
    pub apply_ns: u64,
}

/// A time-traveling notebook session.
pub struct KishuSession {
    /// The simulated kernel (public so examples and experiments can inspect
    /// the namespace and heap directly).
    pub interp: Interp,
    registry: Arc<Registry>,
    reducer: LibReducer,
    detector: DeltaDetector,
    graph: CheckpointGraph,
    store: Box<dyn CheckpointStore>,
    config: KishuConfig,
    metrics: SessionMetrics,
    /// Co-variables committed but not yet serialized (think-time deferral).
    pending: Vec<(NodeId, CoVarKey)>,
    /// Where the heap stood after the last sweep
    /// ([`Self::collect_if_due`]'s inputs).
    gc_mark: GcMark,
    /// Content-addressed index over sealed payloads written this session
    /// (advisory; empty after `resume`). See [`KishuConfig::dedup_blobs`].
    blob_index: BlobIndex,
    /// Read-side cache of CRC-verified checkout payloads, keyed by the
    /// content key of the *sealed* bytes (the same keys `blob_index` uses,
    /// so payloads deduplicated on the way in are shared on the way out).
    read_cache: BlobCache,
    /// Blob id → content key of its sealed bytes, learned from successful
    /// checkout reads and deep diffs, so a later read of the same blob can
    /// recognize a cache hit before touching the store.
    blob_keys: HashMap<BlobId, ContentKey>,
    /// Observability handle (a span ring). Disabled by default unless
    /// `KISHU_TRACE` is set; never consulted for any decision, so enabling
    /// it cannot change behavior. Span guards still time phases while
    /// disabled — that is where the report's wall-clock fields come from.
    trace: Trace,
    /// Memoized [`Self::diff`] reports keyed `(base, target, graph epoch)`.
    /// The epoch key makes commit/ref invalidation free, and only the
    /// current epoch's reports are kept; the cache is also cleared whenever
    /// the session *learns* a blob's content key (checkout reads, deep
    /// diffs) because shallow refinement consults those keys — a cached
    /// report must be byte-identical to a fresh recompute.
    diff_cache: RefCell<HashMap<(u32, u32, u64), crate::query::DiffReport>>,
    /// Diff-cache lookups answered from memory ([`Self::health`] reads it).
    diff_cache_hits: Cell<u64>,
    /// Diff-cache lookups that had to compute.
    diff_cache_misses: Cell<u64>,
}

impl KishuSession {
    /// Attach Kishu to a fresh kernel session writing checkpoints to
    /// `store`. This is the `init` step of §3.2: the namespace patch is
    /// armed and the Checkpoint Graph initialized with its root.
    pub fn new(mut store: Box<dyn CheckpointStore>, config: KishuConfig) -> Self {
        let registry = Arc::new(Registry::standard());
        let mut interp = Interp::new();
        interp.set_engine(if config.minipy_vm {
            kishu_minipy::Engine::Vm
        } else {
            kishu_minipy::Engine::Tree
        });
        kishu_libsim::install(&mut interp, registry.clone());
        let mut vg_config = crate::vargraph::VarGraphConfig::new(registry.clone());
        vg_config.hash_arrays = config.hash_arrays;
        vg_config.hash_primitive_lists = config.hash_primitive_lists;
        let detector = DeltaDetector::with_config(vg_config, config.check_all);
        let read_cache = BlobCache::new(config.checkout_cache_bytes);
        let trace = kishu_trace::global().clone();
        store.attach_trace(&trace);
        KishuSession {
            interp,
            reducer: LibReducer::new(registry.clone()),
            registry,
            detector,
            graph: CheckpointGraph::new(),
            store,
            config,
            metrics: SessionMetrics::default(),
            pending: Vec::new(),
            gc_mark: GcMark::default(),
            blob_index: BlobIndex::new(),
            read_cache,
            blob_keys: HashMap::new(),
            trace,
            diff_cache: RefCell::new(HashMap::new()),
            diff_cache_hits: Cell::new(0),
            diff_cache_misses: Cell::new(0),
        }
    }

    /// Replace the session's observability handle (and re-attach it to the
    /// store). Purely observational — the differential suite proves
    /// byte-identical behavior with tracing on and off.
    pub fn set_trace(&mut self, trace: &Trace) {
        self.trace = trace.clone();
        self.store.attach_trace(&self.trace);
    }

    /// The session's observability handle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Session with an in-memory checkpoint store.
    pub fn in_memory(config: KishuConfig) -> Self {
        Self::new(Box::new(MemoryStore::new()), config)
    }

    /// Current head checkpoint.
    pub fn head(&self) -> NodeId {
        self.graph.head()
    }

    /// The checkpoint graph (read-only).
    pub fn graph(&self) -> &CheckpointGraph {
        &self.graph
    }

    /// The class registry this session simulates libraries from.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Storage accounting.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Checkout read-cache counters (hits/misses/evictions/residency).
    pub fn read_cache_stats(&self) -> kishu_storage::CacheStats {
        self.read_cache.stats()
    }

    /// The checkpoint store (read-only), so differential tests can compare
    /// store contents byte-for-byte across pipeline configurations.
    pub fn store(&self) -> &dyn CheckpointStore {
        self.store.as_ref()
    }

    /// Session measurements.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// The current co-variable partition (Table 7's co-variable counts).
    pub fn covariables(&self) -> Vec<CoVarKey> {
        self.detector.partition().covars().to_vec()
    }

    /// The `log` command: one line per checkpoint, head marked with `*`.
    pub fn log(&self) -> Vec<String> {
        self.graph.log()
    }

    /// Persist the Checkpoint Graph metadata into the checkpoint store (as
    /// a tagged blob alongside the co-variable data). Together with a
    /// durable store this makes the whole session resumable after the
    /// kernel process dies — see [`Self::resume`].
    pub fn persist(&mut self) -> Result<(), KishuError> {
        // Deferred co-variables must hit storage before the graph snapshot,
        // or the snapshot would point at blobs that never materialize.
        self.flush_pending();
        let mut sealed = vec![0; SEAL_LEN];
        sealed.extend_from_slice(GRAPH_BLOB_MAGIC);
        sealed.extend_from_slice(self.graph.to_json().dump().as_bytes());
        seal(&mut sealed);
        // The snapshot put rides the same transient-retry policy as every
        // co-variable write: a recoverable I/O hiccup on the resume anchor
        // must not fail the whole persist.
        let retries = self.config.store_retries;
        let retried = &mut self.metrics.store_retries;
        retry_io(retries, retried, || self.store.put(&sealed))?;
        // The snapshot is the resume anchor — it must never sit in a
        // group-commit buffer behind the blobs it references.
        retry_io(retries, retried, || self.store.flush_barrier())?;
        Ok(())
    }

    /// Attach to a **fresh kernel** and restore the most recently persisted
    /// session from `store`: the Checkpoint Graph is recovered from its
    /// latest snapshot blob and the head state is checked out (loading
    /// co-variable data, falling back to recomputation where needed). This
    /// is crash recovery / session migration built from the same primitives
    /// as time-traveling.
    pub fn resume(store: Box<dyn CheckpointStore>, config: KishuConfig) -> Result<Self, KishuError> {
        let mut graph = None;
        let mut unreadable = 0u64;
        // The retry count goes to the session built below.
        let mut retried = 0u64;
        for i in (0..store.blob_count()).rev() {
            // An unreadable or corrupt blob must not abort resume: skip it
            // and keep scanning for an older intact graph snapshot. Only
            // transient errors are worth retrying first.
            let blob = match retry_io(config.store_retries, &mut retried, || store.get(i)) {
                Ok(b) => b,
                Err(_) => {
                    unreadable += 1;
                    continue;
                }
            };
            // A blob failing its end-to-end CRC is as good as unreadable.
            let Some(blob) = unseal_blob(&blob) else {
                unreadable += 1;
                continue;
            };
            if blob.starts_with(GRAPH_BLOB_MAGIC) {
                if let Ok(g) = kishu_testkit::json::Json::parse_bytes(&blob[GRAPH_BLOB_MAGIC.len()..])
                    .map_err(|e| e.to_string())
                    .and_then(|json| CheckpointGraph::from_json(&json))
                {
                    graph = Some(g);
                    break;
                }
                // A damaged snapshot that still carries the magic: ignore
                // it too and fall through to an older one.
            }
        }
        let graph = graph.ok_or_else(|| KishuError::RestoreFailed {
            covariable: Vec::new(),
            reason: format!(
                "no intact checkpoint graph snapshot in the store \
                 ({} blob(s) scanned, {unreadable} unreadable)",
                store.blob_count()
            ),
        })?;
        let mut session = Self::new(store, config);
        session.metrics.store_retries = retried;
        session.restore(graph)?;
        Ok(session)
    }

    /// Adopt `graph` and check out its head into this session's fresh
    /// kernel: the end of [`Self::resume`].
    fn restore(&mut self, graph: CheckpointGraph) -> Result<CheckoutReport, KishuError> {
        let target = graph.head();
        self.graph = graph;
        let root = self.graph.root();
        self.graph.set_head(root);
        self.checkout_with(target, true)
    }
}

/// A sweep is due once more objects than this were allocated since the
/// last one.
const GC_OBJECTS: u64 = 4096;

/// A sweep is also due once more shallow bytes were allocated since the
/// last one than survived it, with this floor: Go's `GOGC=100` pacing
/// with its 4 MB minimum heap.
const GC_MIN_BYTES: u64 = 4 << 20;

/// The heap's allocation counters at the last sweep, and the shallow bytes
/// that survived it.
#[derive(Debug, Clone, Copy, Default)]
struct GcMark {
    objects: u64,
    bytes: u64,
    live_bytes: u64,
}

impl KishuSession {
    /// The session's one collection rule, checked after every cell and at
    /// the end of every checkout: sweep the heap when, since the last
    /// sweep, more than [`GC_OBJECTS`] objects or more shallow bytes than
    /// `max(live bytes after it, GC_MIN_BYTES)` were allocated. A sweep
    /// scans every slot ever allocated, so it waits until enough was
    /// allocated to be worth looking for; the byte rule keeps a few large
    /// payloads, which checkouts replace wholesale, from piling up in
    /// between. Each sweep runs under a `heap.gc` span.
    fn collect_if_due(&mut self) {
        if !self.config.gc_after_cell {
            return;
        }
        let heap = &self.interp.heap;
        let objects = heap.total_allocated() - self.gc_mark.objects;
        let bytes = heap.allocated_bytes() - self.gc_mark.bytes;
        if objects <= GC_OBJECTS && bytes <= self.gc_mark.live_bytes.max(GC_MIN_BYTES) {
            return;
        }
        let mut sp = self.trace.span("heap.gc");
        let sweep = self.interp.gc();
        sp.arg("objects", sweep.objects);
        sp.arg("bytes", sweep.bytes);
        sp.end();
        let heap = &self.interp.heap;
        self.gc_mark = GcMark {
            objects: heap.total_allocated(),
            bytes: heap.allocated_bytes(),
            live_bytes: sweep.live_bytes,
        };
    }

    /// Set the collection rule's mark as a sweep that found everything
    /// live would: for a heap that has freed nothing since it was created,
    /// such as the one [`Self::resume`] loads its state into, whose bytes
    /// ever allocated are its live bytes.
    fn mark_heap_live(&mut self) {
        let heap = &self.interp.heap;
        self.gc_mark = GcMark {
            objects: heap.total_allocated(),
            bytes: heap.allocated_bytes(),
            live_bytes: heap.allocated_bytes(),
        };
    }
}

/// Tag prefix of persisted Checkpoint Graph blobs in the store.
const GRAPH_BLOB_MAGIC: &[u8; 4] = b"KGRF";

/// Bytes at the front of a sealed blob, which hold the CRC of the rest.
const SEAL_LEN: usize = 4;

/// Seal a session blob in place: `blob` is [`SEAL_LEN`] spare bytes and
/// then the payload, and the spare bytes become `crc32(payload)` (LE).
/// Writers build the payload after the spare bytes, so sealing never
/// copies it.
///
/// Storage backends may checksum their own records (FileStore does), but
/// the session cannot rely on it: the store interface is pluggable, and
/// corruption can also happen after the backend's check (in transit, in a
/// cache, in a buggy decorator). The end-to-end CRC means a damaged blob is
/// always detected at read time and routed to fallback recomputation
/// instead of silently deserializing into wrong state.
fn seal(blob: &mut [u8]) {
    let (crc, payload) = blob.split_at_mut(SEAL_LEN);
    crc.copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Pickle `roots` into one sealed blob: the pickler appends to a buffer
/// that starts with the CRC's spare bytes, and [`seal`] fills them.
fn dump_sealed(
    heap: &Heap,
    roots: &[ObjId],
    reducer: &dyn Reducer,
) -> Result<Vec<u8>, PickleError> {
    let mut blob = vec![0; SEAL_LEN];
    dumps_into(heap, roots, reducer, &mut blob)?;
    seal(&mut blob);
    Ok(blob)
}

/// The copying seal that [`seal`] replaced, kept as its test oracle.
#[cfg(test)]
fn seal_blob(payload: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(SEAL_LEN + payload.len());
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob.extend_from_slice(payload);
    blob
}

/// Verify and strip [`seal`]'s framing; `None` if the blob is damaged.
fn unseal_blob(blob: &[u8]) -> Option<&[u8]> {
    if blob.len() < SEAL_LEN {
        return None;
    }
    let crc = u32::from_le_bytes([blob[0], blob[1], blob[2], blob[3]]);
    let payload = &blob[SEAL_LEN..];
    (crc32(payload) == crc).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariable::key;
    use kishu_pickle::dumps;
    use kishu_trace::SpanId;

    fn session() -> KishuSession {
        KishuSession::in_memory(KishuConfig::default())
    }

    /// The defaults are constants of the machine, not of the environment:
    /// both pipelines `min(4, cores)` wide, a 32 MiB read cache, the VM.
    #[test]
    fn config_defaults_are_pure() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let c = KishuConfig::default();
        assert_eq!((c.checkpoint_workers, c.restore_workers), (cores.min(4), cores.min(4)));
        assert!(c.checkpoint_workers >= 1);
        assert_eq!(c.checkout_cache_bytes, 32 * 1024 * 1024);
        assert!(c.minipy_vm);
        // Explicit fields win over the defaults.
        let c = KishuConfig {
            checkpoint_workers: 7,
            restore_workers: 7,
            checkout_cache_bytes: 12_345,
            ..KishuConfig::default()
        };
        let plumbed = (c.checkpoint_workers, c.restore_workers, c.checkout_cache_bytes);
        assert_eq!(plumbed, (7, 7, 12_345));
    }

    fn run(s: &mut KishuSession, src: &str) -> CellReport {
        let report = s.run_cell(src).expect("parses");
        assert!(
            report.outcome.error.is_none(),
            "cell failed: {:?}",
            report.outcome.error
        );
        report
    }

    fn value(s: &mut KishuSession, expr: &str) -> String {
        let report = run(s, &format!("{expr}\n"));
        report.outcome.value_repr.unwrap_or_default()
    }

    #[test]
    fn tracing_captures_the_pipeline_span_tree_and_derives_report_timings() {
        let mut s = session();
        let trace = Trace::enabled();
        s.set_trace(&trace);
        let r1 = run(&mut s, "x = list(range(100))\n");
        let r2 = run(&mut s, "x = list(range(50))\n");
        // Back to the first version: `x` diverged, so its old blob must be
        // fetched cold (store read, CRC verify, decode) and applied.
        let co = s.checkout(r1.node.expect("node")).expect("checkout");
        assert_eq!(co.loaded.len(), 1);

        let spans = trace.spans();
        let names: BTreeSet<&str> = spans.iter().map(|sp| sp.name.as_str()).collect();
        for want in [
            "cell.exec",
            "cell.track",
            "ckpt",
            "ckpt.classify",
            "ckpt.serialize",
            "ckpt.seal",
            "ckpt.write",
            "store.put",
            "pickle.dumps",
            "checkout",
            "checkout.flush",
            "checkout.fetch",
            "store.get",
            "checkout.verify",
            "checkout.decode",
            "checkout.apply",
            "pickle.loads",
        ] {
            assert!(names.contains(want), "missing span `{want}` in {names:?}");
        }

        // Worker-side spans parent under their phase span, regardless of
        // which thread ran them.
        let ids_of = |name: &str| -> Vec<SpanId> {
            spans.iter().filter(|sp| sp.name == name).map(|sp| sp.id).collect()
        };
        let serialize_ids = ids_of("ckpt.serialize");
        for seal in spans.iter().filter(|sp| sp.name == "ckpt.seal") {
            assert!(
                seal.parent.is_some_and(|p| serialize_ids.contains(&p)),
                "ckpt.seal must nest under ckpt.serialize: {seal:?}"
            );
        }
        let verify_ids = ids_of("checkout.verify");
        for dec in spans.iter().filter(|sp| sp.name == "checkout.decode") {
            assert!(
                dec.parent.is_some_and(|p| verify_ids.contains(&p)),
                "checkout.decode must nest under checkout.verify: {dec:?}"
            );
        }

        // The report's wall clock *is* the span's duration (single clock
        // read), and the phase breakdown never exceeds it.
        let co_span = spans.iter().find(|sp| sp.name == "checkout").expect("checkout span");
        assert_eq!(co_span.dur_ns, co.co_wall_ns);
        assert!(co.fetch_ns + co.verify_ns + co.apply_ns <= co.co_wall_ns);
        assert!(co.fetch_ns > 0 && co.verify_ns > 0 && co.apply_ns > 0);

        // Every sealed payload handed to `put_sealed` carries its size on
        // its `store.put` span: the reports' logical bytes plus the 4-byte
        // CRC frame of each put.
        let put_bytes: Vec<u64> = spans
            .iter()
            .filter(|sp| sp.name == "store.put")
            .map(|sp| {
                let (_, v) = sp.args.iter().find(|(k, _)| k == "bytes").expect("bytes arg");
                v.parse().expect("numeric bytes")
            })
            .collect();
        assert!(put_bytes.len() >= 2, "one put per diverged cell, got {put_bytes:?}");
        let logical = r1.checkpoint_bytes + r2.checkpoint_bytes;
        assert_eq!(put_bytes.iter().sum::<u64>(), logical + 4 * put_bytes.len() as u64);
    }

    /// `tracking_time` is the `cell.track` span's duration — one clock
    /// read — on the detector path and on the rule-based path, whose span
    /// also covers the read-only parse.
    #[test]
    fn tracking_time_is_the_cell_track_span() {
        for rule_based_cells in [false, true] {
            let config = KishuConfig { rule_based_cells, ..KishuConfig::default() };
            let mut s = KishuSession::in_memory(config);
            let trace = Trace::enabled();
            s.set_trace(&trace);
            run(&mut s, "xs = [1, 2, 3]\n");
            let report = run(&mut s, "print(len(xs))\n");
            let spans = trace.spans();
            let track = spans.iter().rfind(|sp| sp.name == "cell.track").expect("span");
            assert_eq!(report.tracking_time.as_nanos() as u64, track.dur_ns);
            let cell = s.metrics().cells.last().expect("cell metrics");
            assert_eq!(cell.tracking_time, report.tracking_time);
            // The rule-based path skipped the detector; the other ran it.
            assert_eq!(cell.candidates_checked == 0, rule_based_cells);
        }
    }

    #[test]
    fn reports_carry_phase_breakdowns_with_tracing_disabled() {
        // Span guards time phases even when no trace is attached: the
        // derived report fields must be populated either way.
        let mut s = session();
        assert!(!s.trace().is_enabled() || kishu_trace::global_path().is_some());
        let r1 = run(&mut s, "x = list(range(100))\n");
        let r2 = run(&mut s, "x = list(range(50))\n");
        assert!(r2.serialize_ns > 0, "serialize phase must be timed");
        assert!(r2.write_ns > 0, "write phase must be timed");
        assert!(r2.serialize_ns + r2.write_ns <= r2.ckpt_wall_ns);
        let co = s.checkout(r1.node.expect("node")).expect("checkout");
        assert!(co.fetch_ns > 0 && co.verify_ns > 0 && co.apply_ns > 0);
        assert!(co.fetch_ns + co.verify_ns + co.apply_ns <= co.co_wall_ns);
    }

    #[test]
    fn undo_a_dropped_column() {
        // The paper's headline use case (§2.1): un-drop a dataframe column.
        let mut s = session();
        run(&mut s, "df = read_csv('data', 50, 4, 7)\n");
        let before = s.head();
        run(&mut s, "df = df.drop('c1')\n");
        assert_eq!(value(&mut s, "len(df.columns)"), "3");
        let report = s.checkout(before).expect("checkout");
        assert!(report.loaded.contains(&key(&["df"])));
        assert_eq!(value(&mut s, "len(df.columns)"), "4");
    }

    #[test]
    fn identical_covariables_are_not_reloaded() {
        let mut s = session();
        run(&mut s, "big = read_csv('big', 2000, 8, 1)\n");
        run(&mut s, "small = [1, 2]\n");
        let before = s.head();
        run(&mut s, "small.append(3)\n");
        let report = s.checkout(before).expect("checkout");
        assert_eq!(report.loaded, vec![key(&["small"])]);
        assert!(report.identical >= 1, "big must be identical/untouched");
        assert_eq!(value(&mut s, "len(small)"), "2");
        assert_eq!(value(&mut s, "len(big.columns)"), "8");
    }

    #[test]
    fn checkout_removes_later_variables() {
        let mut s = session();
        run(&mut s, "a = 1\n");
        let early = s.head();
        run(&mut s, "b = 2\n");
        s.checkout(early).expect("checkout");
        assert!(!s.interp.globals.contains("b"));
        assert!(s.interp.globals.contains("a"));
    }

    #[test]
    fn branching_matches_fig10() {
        let mut s = session();
        run(&mut s, "df = read_csv('d', 20, 3, 1)\ngmm = lib_obj('sk.GaussianMixture', 128, 1)\n");
        let t1 = s.head();
        run(&mut s, "gmm.fit(3)\n");
        run(&mut s, "plot = gmm.result(16)\n");
        let t3 = s.head();
        let plot3 = value(&mut s, "plot.sum()");
        s.checkout(t1).expect("back to t1");
        run(&mut s, "gmm.fit(10)\n");
        run(&mut s, "plot = gmm.result(16)\n");
        let t5 = s.head();
        let plot5 = value(&mut s, "plot.sum()");
        assert_ne!(plot3, plot5, "branches diverged");
        // Switch back to the first branch.
        let report = s.checkout(t3).expect("branch switch");
        assert_eq!(value(&mut s, "plot.sum()"), plot3);
        // df was identical across branches: never reloaded.
        assert!(report.identical >= 1);
        let back = s.checkout(t5).expect("switch again");
        assert_eq!(value(&mut s, "plot.sum()"), plot5);
        let _ = back;
    }

    #[test]
    fn shared_references_survive_checkout() {
        // Restoring a co-variable must not break intra-component sharing:
        // `obj.foo` aliases an element of `ser`'s backing list, so a
        // mutation through either path must stay visible through the other
        // — before AND after a checkout restores the component.
        let mut s = session();
        run(&mut s, "ser = series('m', [['a'], ['b'], ['c']])\nobj = Object()\nobj.foo = ser.values[1]\n");
        let before = s.head();
        run(&mut s, "ser.values[1].append('z')\n");
        assert_eq!(value(&mut s, "len(obj.foo)"), "2"); // shared: both see it
        s.checkout(before).expect("checkout");
        assert_eq!(value(&mut s, "len(obj.foo)"), "1");
        // Sharing still intact after restore: mutate through ser again.
        run(&mut s, "ser.values[1].append('q')\n");
        assert_eq!(value(&mut s, "len(obj.foo)"), "2");
    }

    #[test]
    fn unserializable_covariable_restored_by_recomputation() {
        let mut s = session();
        run(&mut s, "seed = 5\n");
        let report = run(&mut s, "lazy = lib_obj('pl.LazyFrame', 64, 5)\nmarker = 123\n");
        // The co-variable containing the unserializable object was skipped.
        let node = report.node.expect("auto-checkpoint committed");
        let sc = s
            .graph()
            .node(node)
            .delta
            .iter()
            .find(|sc| sc.names.contains("lazy"))
            .expect("lazy in delta");
        assert!(sc.blob.is_none(), "unserializable: no bytes stored");
        let target = s.head();
        run(&mut s, "del lazy\n");
        let report = s.checkout(target).expect("checkout with fallback");
        assert!(report.recomputed.contains(&key(&["lazy"])));
        assert_eq!(value(&mut s, "type(lazy)"), "'external'");
    }

    #[test]
    fn deserialize_failure_triggers_fallback() {
        let mut s = session();
        run(&mut s, "fig = lib_obj('bokeh.figure', 64, 3)\n");
        let target = s.head();
        run(&mut s, "fig = 0\n");
        let report = s.checkout(target).expect("checkout");
        // Stored fine (dump works) but load fails -> recomputed.
        assert!(report.recomputed.contains(&key(&["fig"])));
        assert_eq!(value(&mut s, "type(fig)"), "'external'");
    }

    #[test]
    fn recursive_fallback_walks_the_chain() {
        // Fig 11: plot@t3 recomputes from gmm@t2; if gmm@t2 is also
        // unloadable it recomputes from gmm@t1. We force the whole chain to
        // be unserializable via the blocklist.
        let mut config = KishuConfig::default();
        config.blocklist.insert("sk.GaussianMixture".to_string());
        let mut s = KishuSession::in_memory(config);
        run(&mut s, "gmm = lib_obj('sk.GaussianMixture', 64, 1)\n");
        run(&mut s, "gmm.fit(3)\n");
        run(&mut s, "plot = gmm.result(8)\n");
        let t3 = s.head();
        let plot_val = value(&mut s, "plot.sum()");
        run(&mut s, "del plot\ndel gmm\n");
        let report = s.checkout(t3).expect("recursive fallback");
        assert!(report.recomputed.contains(&key(&["gmm"])));
        assert_eq!(value(&mut s, "plot.sum()"), plot_val, "deterministic chain reproduces");
    }

    #[test]
    fn blocklist_forces_recomputation() {
        let mut config = KishuConfig::default();
        config.blocklist.insert("wordcloud.WordCloud".to_string());
        let mut s = KishuSession::in_memory(config);
        let report = run(&mut s, "wc = lib_obj('wordcloud.WordCloud', 32, 2)\n");
        let sc = &s.graph().node(report.node.expect("committed")).delta[0];
        assert!(sc.blob.is_none(), "blocklisted class is never stored");
    }

    #[test]
    fn diamond_memo_hits_keep_loaded_attribution() {
        // `zx` is stored; `ay` is blocklisted (never stored) and depends on
        // `zx`. Plan order is key-sorted, so checkout materializes `ay`
        // first: its recomputation recursively *loads* zx@t1 and memoizes
        // it, and the top-level plan entry for `zx` then memo-hits. The
        // report must still attribute `zx` to `loaded` with its real byte
        // count — a memo hit must not launder a load into a recomputation.
        let mut config = KishuConfig::default();
        config.blocklist.insert("wordcloud.WordCloud".to_string());
        let mut s = KishuSession::in_memory(config);
        run(&mut s, "zx = [1, 2, 3]\n");
        run(&mut s, "ay = [lib_obj('wordcloud.WordCloud', 32, 2), len(zx)]\n");
        let target = s.head();
        run(&mut s, "zx.append(4)\nay = 0\n");
        let report = s.checkout(target).expect("checkout");
        assert_eq!(report.recomputed, vec![key(&["ay"])]);
        assert_eq!(report.loaded, vec![key(&["zx"])]);
        assert!(report.bytes_loaded > 0, "zx's payload really was read and decoded");
        assert_eq!(report.integrity_failures, 0);
        assert_eq!(value(&mut s, "len(zx)"), "3");
        assert_eq!(value(&mut s, "ay[1]"), "3");
    }

    /// The in-place seal writes the bytes `seal_blob(dumps(..))` wrote:
    /// for each kind of object on its own, a library object and an array
    /// over 1 MiB among them, for all of them in one graph, and for the
    /// graph snapshot `persist` stores. A generator refuses both ways.
    #[test]
    fn in_place_seal_matches_the_copying_oracle() {
        use kishu_kernel::{External, Function, Instance, ObjKind};
        let mut s = session();
        let class = s
            .registry
            .by_name("sk.LogisticRegression")
            .expect("registered")
            .id;
        let heap = &mut s.interp.heap;
        let int = heap.alloc(ObjKind::Int(-7));
        let label = heap.alloc(ObjKind::Str("label".into()));
        let array = heap.alloc(ObjKind::NdArray((0..160_000).map(f64::from).collect()));
        let kinds = [
            ObjKind::None,
            ObjKind::Bool(true),
            ObjKind::Float(0.5),
            ObjKind::List(vec![int, label]),
            ObjKind::Tuple(vec![int]),
            ObjKind::Dict(vec![(label, int)]),
            ObjKind::Set(vec![int, label]),
            ObjKind::Series {
                name: "s".into(),
                values: array,
            },
            ObjKind::DataFrame(vec![("c".into(), array)]),
            Instance {
                class_name: "P".into(),
                attrs: vec![("x".into(), int)],
            }
            .into(),
            Function {
                name: "f".into(),
                params: vec!["a".into()],
                source: "def f(a): return a".into(),
            }
            .into(),
            External {
                class,
                attrs: vec![("n".into(), label)],
                payload: (0..3 << 19).map(|i: u32| i as u8).collect(),
                epoch: 3,
            }
            .into(),
        ];
        let mut objects = vec![int, label, array];
        objects.extend(kinds.into_iter().map(|k| heap.alloc(k)));
        let generator = heap.alloc(ObjKind::Generator { token: 1 });
        let heap = &s.interp.heap;
        let oracle = |roots: &[ObjId]| dumps(heap, roots, &s.reducer).map(|p| seal_blob(&p));
        for &id in &objects {
            let sealed = dump_sealed(heap, &[id], &s.reducer);
            assert_eq!(sealed, oracle(&[id]), "{}", heap.kind(id).type_tag());
            assert!(sealed.is_ok());
        }
        assert_eq!(dump_sealed(heap, &objects, &s.reducer), oracle(&objects));
        let refused = dump_sealed(heap, &[generator], &s.reducer);
        assert_eq!(refused, oracle(&[generator]));
        assert!(refused.is_err());

        run(&mut s, "x = 1\n");
        s.persist().expect("persist");
        let snapshot = s.store().get(s.store().blob_count() - 1).expect("snapshot");
        let mut payload = GRAPH_BLOB_MAGIC.to_vec();
        payload.extend_from_slice(s.graph.to_json().dump().as_bytes());
        assert_eq!(snapshot, seal_blob(&payload));
    }

    #[test]
    fn unregistered_external_class_is_a_counted_anomaly() {
        let mut config = KishuConfig::default();
        config.blocklist.insert("wordcloud.WordCloud".to_string());
        let mut s = KishuSession::in_memory(config);
        let bogus = s.interp.heap.alloc(
            kishu_kernel::External {
                class: kishu_kernel::ClassId(u16::MAX),
                attrs: Vec::new(),
                payload: vec![0u8; 8],
                epoch: 0,
            }
            .into(),
        );
        assert!(
            s.is_blocklisted(&[bogus]),
            "a class the registry cannot name must fail safe (treated as blocklisted)"
        );
        assert_eq!(s.metrics().blocklist_anomalies, 1);
        // A registered, non-blocklisted graph stays storable and does not
        // count an anomaly.
        let plain = s.interp.heap.alloc(kishu_kernel::ObjKind::Int(1));
        assert!(!s.is_blocklisted(&[plain]));
        assert_eq!(s.metrics().blocklist_anomalies, 1);
    }

    #[test]
    fn warm_checkout_hits_the_read_cache() {
        // Undo/redo over the same pair of states: the second visit to each
        // state should be served from the read cache.
        let mut s = session();
        run(&mut s, "data = zeros(50000)\n");
        let t1 = s.head();
        run(&mut s, "data[0] = 1.0\n");
        let t2 = s.head();
        let cold = s.checkout(t1).expect("undo");
        assert_eq!(cold.blobs_cached, 0, "first read of this blob is cold");
        s.checkout(t2).expect("redo");
        let warm = s.checkout(t1).expect("undo again");
        assert_eq!(warm.loaded, cold.loaded);
        assert_eq!(warm.bytes_loaded, cold.bytes_loaded);
        assert_eq!(warm.blobs_cached, warm.loaded.len(), "second undo is all cache hits");
        assert!(s.read_cache_stats().hits >= 1);
        assert_eq!(value(&mut s, "data[0]"), "0.0");
    }

    #[test]
    fn zero_cache_capacity_disables_read_caching() {
        let config = KishuConfig { checkout_cache_bytes: 0, ..KishuConfig::default() };
        let mut s = KishuSession::in_memory(config);
        run(&mut s, "data = zeros(50000)\n");
        let t1 = s.head();
        run(&mut s, "data[0] = 1.0\n");
        let t2 = s.head();
        s.checkout(t1).expect("undo");
        s.checkout(t2).expect("redo");
        let warm = s.checkout(t1).expect("undo again");
        assert_eq!(warm.blobs_cached, 0, "cache disabled: every read is cold");
        assert_eq!(s.read_cache_stats().hits, 0);
    }

    #[test]
    fn failed_cells_still_checkpoint_their_mutations() {
        let mut s = session();
        run(&mut s, "ls = [1]\n");
        let before = s.head();
        // The cell mutates, then raises.
        let report = s.run_cell("ls.append(2)\nboom()\n").expect("parses");
        assert!(report.outcome.error.is_some());
        assert!(report.updated.contains(&key(&["ls"])), "mutation before raise captured");
        s.checkout(before).expect("undo the half-executed cell");
        assert_eq!(value(&mut s, "len(ls)"), "1");
    }

    #[test]
    fn checkout_to_unknown_node_fails() {
        let mut s = session();
        assert!(matches!(
            s.checkout(NodeId(99)),
            Err(KishuError::UnknownNode(_))
        ));
    }

    #[test]
    fn exact_restoration_bytestring_equality() {
        // §5.3 Remark: serializable co-variables restore to the same
        // bytestring.
        let mut s = session();
        run(&mut s, "data = [1, 'two', 3.0, [4, 5]]\n");
        let target = s.head();
        let roots = vec![s.interp.globals.peek("data").expect("bound")];
        let before = dumps(&s.interp.heap, &roots, &kishu_pickle::NoopReducer).expect("dump");
        run(&mut s, "data.append(6)\n");
        s.checkout(target).expect("checkout");
        let roots = vec![s.interp.globals.peek("data").expect("bound")];
        let after = dumps(&s.interp.heap, &roots, &kishu_pickle::NoopReducer).expect("dump");
        assert_eq!(before, after);
    }

    #[test]
    fn metrics_accumulate() {
        let mut s = session();
        run(&mut s, "x = zeros(100)\n");
        run(&mut s, "x[0] = 1.0\n");
        let m = s.metrics();
        assert_eq!(m.cells.len(), 2);
        assert!(m.total_checkpoint_bytes() > 0);
        assert!(s.store_stats().blobs >= 2);
        assert_eq!(s.log().len(), 3); // root + 2 cells
    }

    #[test]
    fn no_auto_checkpoint_reports_no_node() {
        // Regression: with auto_checkpoint off, run_cell used to report the
        // *previous* head as the cell's node.
        let config = KishuConfig {
            auto_checkpoint: false,
            ..KishuConfig::default()
        };
        let mut s = KishuSession::new(Box::new(MemoryStore::new()), config);
        let report = run(&mut s, "x = 1\n");
        assert_eq!(report.node, None, "no commit happened");
        assert_eq!(s.metrics().cells[0].node, None);
        assert_eq!(s.head(), s.graph().root(), "head never moved");
    }

    #[test]
    fn transient_store_faults_are_retried_transparently() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        // Every put hits one transient fault first; with retries the
        // session never degrades.
        let mut plan = FaultPlan::none();
        for i in 0..64 {
            plan = plan.schedule(FaultOp::Put, i * 2, FaultKind::Transient);
        }
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        let report = run(&mut s, "xs = [1, 2, 3]\n");
        assert_eq!(report.blobs_dropped, 0, "retry absorbed the transient fault");
        assert!(report.checkpoint_bytes > 0);
    }

    /// The session's trace explains a degraded run from spans alone: each
    /// `FaultLedger` entry is exactly one faulted `fault.*` span naming
    /// its kind and ledger index, and the retried put shows as both of its
    /// attempts.
    #[test]
    fn persist_retries_land_in_the_session_trace() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        let plan = FaultPlan::none()
            .schedule(FaultOp::Put, 0, FaultKind::Transient)
            .schedule(FaultOp::Get, 0, FaultKind::BitFlip);
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let ledger = store.ledger_handle();
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        let trace = Trace::enabled();
        s.set_trace(&trace);
        run(&mut s, "xs = [1, 2]\n");
        let target = s.head();
        run(&mut s, "del xs\n");
        s.checkout(target).expect("degrades to recomputation");
        let ledger = ledger.snapshot();
        assert_eq!(ledger.total(), 2, "both faults fired");
        assert_eq!(s.metrics().store_retries, 1, "the session's count");
        let spans = trace.spans();
        let arg = |sp: &kishu_trace::SpanRecord, k: &str| {
            sp.args.iter().find(|(a, _)| a == k).map(|(_, v)| v.clone())
        };
        let faulted: Vec<_> = spans
            .iter()
            .filter(|sp| sp.name.starts_with("fault.") && arg(sp, "fault").is_some())
            .collect();
        assert_eq!(
            faulted.len(),
            ledger.total(),
            "one faulted span per entry: {faulted:?}"
        );
        for (i, entry) in ledger.injected.iter().enumerate() {
            let sp: Vec<_> = faulted
                .iter()
                .filter(|sp| arg(sp, "ledger") == Some(i.to_string()))
                .collect();
            assert_eq!(sp.len(), 1, "ledger entry {i}: {faulted:?}");
            assert_eq!(sp[0].name, format!("fault.{:?}", entry.op).to_lowercase());
            assert_eq!(arg(sp[0], "fault"), Some(format!("{:?}", entry.kind)));
            assert_eq!(arg(sp[0], "attempt"), Some(entry.attempt.to_string()));
        }
        // The retried put: the faulted attempt and the clean one, under
        // the same operation key.
        let retried = faulted
            .iter()
            .find(|sp| sp.name == "fault.put")
            .expect("faulted put");
        let attempts: Vec<_> = spans
            .iter()
            .filter(|sp| sp.name == "fault.put" && arg(sp, "key") == arg(retried, "key"))
            .map(|sp| arg(sp, "attempt"))
            .collect();
        assert_eq!(attempts, [Some("0".to_string()), Some("1".to_string())]);
    }

    /// `health()` counts degradations from the session, so they are right
    /// with the default (disabled) trace as well as with a recorder: one
    /// retried put and one bit-flipped read over two cells and a checkout.
    #[test]
    fn health_counts_degradations_with_the_recorder_off_and_on() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        for recorder in [false, true] {
            let plan = FaultPlan::none()
                .schedule(FaultOp::Put, 0, FaultKind::Transient)
                .schedule(FaultOp::Get, 0, FaultKind::BitFlip);
            let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
            let ledger = store.ledger_handle();
            let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
            if recorder {
                s.set_trace(&Trace::enabled());
            }
            run(&mut s, "xs = [1, 2]\n");
            let target = s.head();
            run(&mut s, "del xs\n");
            let co = s.checkout(target).expect("degrades to recomputation");
            assert_eq!(ledger.snapshot().total(), 2, "both faults fired");
            assert_eq!(co.integrity_failures, 1);
            let h = s.health();
            let counts = (h.store_retries, h.barrier_failures, h.integrity_failures);
            assert_eq!(counts, (1, 0, 1), "recorder on: {recorder}");
            assert!(h.render().contains("retries 1  barrier failures 0  integrity 1"));
        }
    }

    /// A deep diff that finds a corrupt payload leaves the entry
    /// unresolved and counts the corruption where `health()` reads it.
    #[test]
    fn deep_diff_counts_a_corrupt_payload_in_health() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        let plan = FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::BitFlip);
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let ledger = store.ledger_handle();
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        run(&mut s, "x = [1, 2, 3]\n");
        let from = s.head();
        run(&mut s, "x = [4, 5, 6]\n");
        let to = s.head();
        let report = s.diff_deep(from, to).expect("both nodes exist");
        assert_eq!(ledger.snapshot().total(), 1, "the bit flip fired");
        let entry = report
            .entries
            .iter()
            .find(|e| e.key == key(&["x"]))
            .expect("x changed");
        assert_eq!(entry.same_bytes, None, "a corrupt side leaves the entry unresolved");
        assert_eq!(s.health().integrity_failures, 1);
    }

    #[test]
    fn permanent_put_fault_counts_dropped_blob_and_checkout_recomputes() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        let plan = FaultPlan::none().schedule(FaultOp::Put, 1, FaultKind::Permanent);
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        run(&mut s, "xs = [1, 2]\n");
        let target = s.head();
        // Put #1 fails permanently: this cell's blob (and all later ones)
        // are dropped but the session keeps working.
        let report = run(&mut s, "ys = [3]\n");
        assert_eq!(report.blobs_dropped, 1, "write-side degradation is counted");
        assert_eq!(s.metrics().total_blobs_dropped(), 1);
        let co = s.checkout(target).expect("checkout degrades, not fails");
        assert!(co.integrity_failures == 0, "nothing stored, nothing corrupt");
        assert_eq!(value(&mut s, "len(xs)"), "2");
    }

    #[test]
    fn corrupt_blob_read_falls_back_and_is_counted() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        // Flip a bit in every read of blob 0's first fetch: the deserialize
        // fails, checkout falls back to recomputation, and the degradation
        // is visible in the report.
        let plan = FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::BitFlip);
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        run(&mut s, "xs = [1, 2]\n");
        let target = s.head();
        run(&mut s, "del xs\n");
        let report = s.checkout(target).expect("degrades to recomputation");
        assert_eq!(report.integrity_failures, 1, "swallowed read failure is counted");
        assert!(report.recomputed.contains(&key(&["xs"])));
        assert_eq!(value(&mut s, "len(xs)"), "2");
    }

    #[test]
    fn resume_skips_corrupt_blobs_and_uses_an_older_snapshot() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        let mut s = session();
        run(&mut s, "a = [1]\n");
        s.persist().expect("persist 1");
        run(&mut s, "b = [2, 3]\n");
        s.persist().expect("persist 2");
        // Move the blobs into a fresh store whose *latest* blob (the newest
        // KGRF snapshot) is permanently unreadable.
        let mut inner = MemoryStore::new();
        let n = s.store_stats().blobs;
        for i in 0..n {
            // Rebuild the store contents; the last blob is the newest
            // snapshot, which the fault plan below makes unreadable.
            inner.put(&s_store_get(&s, i)).expect("copy");
        }
        let plan = FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::Permanent);
        let store = FaultStore::new(Box::new(inner), plan, 5);
        let resumed = KishuSession::resume(Box::new(store), KishuConfig::default())
            .expect("resume survives a corrupt newest snapshot");
        // The older snapshot knows `a` but not `b`.
        assert!(resumed.interp.globals.contains("a"));
        assert!(!resumed.interp.globals.contains("b"));
    }

    /// `resume` loads its state into a fresh heap, which holds no garbage:
    /// even when the load allocates more than the collection rule allows
    /// between sweeps, its checkout marks the heap instead of sweeping it,
    /// and the next cell paces from that mark.
    #[test]
    fn resume_does_not_sweep_the_state_it_loaded() {
        let mut s = session();
        run(&mut s, "xs = list(range(6000))\nys = list(range(100))\n");
        let mut copy = MemoryStore::new();
        for i in 0..s.store_stats().blobs {
            copy.put(&s_store_get(&s, i)).expect("copy");
        }
        let mut resumed = KishuSession::new(Box::new(copy), KishuConfig::default());
        let trace = Trace::enabled();
        resumed.set_trace(&trace);
        let report = resumed.restore(s.graph.clone()).expect("restore");
        assert!(report.recomputed.is_empty() && !report.loaded.is_empty());
        assert!(resumed.interp.heap.total_allocated() > GC_OBJECTS, "the load is over the rule");
        let swept = |trace: &Trace| trace.spans().iter().filter(|sp| sp.name == "heap.gc").count();
        assert_eq!(swept(&trace), 0, "resume swept a heap with nothing to free");
        let loaded = resumed.interp.heap.allocated_bytes();
        assert_eq!(resumed.gc_mark.live_bytes, loaded);
        assert_eq!(value(&mut resumed, "len(xs) + len(ys)"), "6100");
        // A cell allocating past the rule from the mark does sweep.
        run(&mut resumed, "zs = list(range(5000))\n");
        assert_eq!(swept(&trace), 1);
    }

    #[test]
    fn resume_fails_only_when_no_intact_snapshot_exists() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        let mut s = session();
        run(&mut s, "a = 1\n");
        s.persist().expect("persist");
        let mut inner = MemoryStore::new();
        let n = s.store_stats().blobs;
        for i in 0..n {
            inner.put(&s_store_get(&s, i)).expect("copy");
        }
        // Every blob permanently unreadable: resume must error, not panic.
        let mut plan = FaultPlan::none();
        for i in 0..n {
            plan = plan.schedule(FaultOp::Get, i, FaultKind::Permanent);
        }
        let store = FaultStore::new(Box::new(inner), plan, 5);
        let err = KishuSession::resume(Box::new(store), KishuConfig::default())
            .err()
            .expect("no intact snapshot anywhere");
        assert!(err.to_string().contains("no intact checkpoint graph"), "{err}");
    }

    /// Read a blob back out of a live session's store (test helper).
    fn s_store_get(s: &KishuSession, i: u64) -> Vec<u8> {
        s.store.get(i).expect("source blob readable")
    }

    #[test]
    fn checkout_triggered_flush_is_attributed_to_the_checkout() {
        let config = KishuConfig { defer_serialization: true, ..KishuConfig::default() };
        let mut s = KishuSession::in_memory(config);
        run(&mut s, "xs = [1, 2, 3]\n");
        let t1 = s.head();
        run(&mut s, "xs.append(4)\n");
        assert!(s.pending_count() > 0, "serialization was deferred");
        let cell_cp_before: Duration = s.metrics().cells.iter().map(|c| c.checkpoint_time).sum();
        let report = s.checkout(t1).expect("checkout flushes then restores");
        assert!(report.flushed > 0, "the checkout performed the flush");
        let cell_cp_after: Duration = s.metrics().cells.iter().map(|c| c.checkpoint_time).sum();
        assert_eq!(
            cell_cp_before, cell_cp_after,
            "flush time lands in the checkout's wall_time, not the cells' checkpoint_time"
        );
        assert_eq!(value(&mut s, "len(xs)"), "3");
    }

    #[test]
    fn search_spans_branches_and_matches_the_bruteforce_oracle() {
        let mut s = session();
        run(&mut s, "gmm = [1]\n");
        let t1 = s.head();
        run(&mut s, "gmm.append(3)\nplot = len(gmm)\n");
        s.checkout(t1).expect("branch point");
        run(&mut s, "gmm.append(10)\n");
        // history from the new head sees only its own branch; search sees
        // the abandoned fit too.
        assert_eq!(s.history("gmm").len(), 2);
        let hits = s.search("gmm");
        assert_eq!(hits.len(), 3, "all branches: {hits:?}");
        assert!(hits.iter().any(|h| !h.on_head_path), "off-path work found");
        assert_eq!(
            hits.iter().map(|h| h.node).collect::<Vec<_>>(),
            s.graph().search_bruteforce("gmm"),
            "postings read matches the whole-graph scan"
        );
        assert!(s.search("nonexistent").is_empty());
    }

    #[test]
    fn diff_reports_are_memoized_until_the_graph_moves() {
        let mut s = session();
        run(&mut s, "x = 1\n");
        let t1 = s.head();
        run(&mut s, "x = 2\ny = 3\n");
        let t2 = s.head();
        let fresh = s.diff(t1, t2).expect("diff");
        let cached = s.diff(t1, t2).expect("diff again");
        let h = s.health();
        assert_eq!((h.diff_cache_hits, h.diff_cache_misses), (1, 1));
        assert_eq!(fresh.entries.len(), cached.entries.len());
        for (a, b) in fresh.entries.iter().zip(cached.entries.iter()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.change, b.change);
            assert_eq!((a.from, a.to), (b.from, b.to));
            assert_eq!(a.same_bytes, b.same_bytes, "hit identical to recompute");
        }
        // A commit bumps the graph epoch: same (base, target) recomputes.
        run(&mut s, "z = 4\n");
        s.diff(t1, t2).expect("diff after commit");
        assert_eq!(s.health().diff_cache_misses, 2, "epoch invalidated");
        assert_eq!(s.health().diff_cache_entries, 1, "past epochs' reports dropped");
        // Ref mutations invalidate too.
        s.diff(t1, t2).expect("warm again");
        s.set_branch("b", None).expect("branch");
        s.diff(t1, t2).expect("diff after ref mutation");
        let h = s.health();
        assert_eq!((h.diff_cache_hits, h.diff_cache_misses), (2, 3));
        assert_eq!(h.diff_cache_entries, 1, "past epochs' reports dropped");
        // A checkout teaches the session blob content keys (shallow
        // refinement input), so memoized reports are dropped even though
        // the epoch is unchanged.
        s.checkout(t1).expect("checkout");
        s.diff(t1, t2).expect("diff after checkout");
        assert_eq!(s.health().diff_cache_misses, 4, "blob_keys invalidated");
    }

    #[test]
    fn health_snapshot_reports_caches_dedup_and_recorder_state() {
        let trace = Trace::enabled();
        let mut s = session();
        s.set_trace(&trace);
        run(&mut s, "xs = [1, 2, 3]\n");
        let t1 = s.head();
        run(&mut s, "xs = [1, 2, 3]\nys = xs\n");
        s.checkout(t1).expect("checkout");
        s.diff(t1, s.head()).expect("diff");
        s.diff(t1, s.head()).expect("cached diff");
        let h = s.health();
        assert_eq!(h.cells, 2);
        assert!(h.commits >= 3, "root + two cells");
        assert_eq!((h.diff_cache_hits, h.diff_cache_misses), (1, 1));
        assert_eq!(h.diff_cache_hit_rate(), Some(0.5));
        assert!(h.checkpoint_bytes > 0);
        assert!(h.dedup_ratio().is_some());
        assert_eq!(h.store_retries, 0);
        assert_eq!(h.barrier_failures, 0);
        let ring = h.ring.as_ref().expect("recorder on");
        assert!(ring.recorded > 0, "spans flowed into the ring");
        // The latencies are a view over the ring, row by row.
        assert!(!h.latencies.is_empty(), "one row per span name");
        assert_eq!(h.latencies, kishu_trace::chrome::span_stats(&trace.spans()));
        let rendered = h.render();
        assert!(rendered.contains("read cache"), "{rendered}");
        assert!(rendered.contains("recorder"), "{rendered}");
        assert!(rendered.contains("p99"), "{rendered}");
        // Recorder off: the ring section degrades to a hint, not a panic.
        let off = KishuSession::in_memory(KishuConfig::default()).health();
        assert!(off.ring.is_none());
        assert!(off.render().contains("KISHU_TRACE"));
        assert_eq!(off.read_cache_hit_rate(), None, "no lookups yet");
    }

    #[test]
    fn undo_in_place_numpy_slice_update() {
        // §4.3 Remark: arr[0] += 1 is memory-based but reference-invoked.
        let mut s = session();
        run(&mut s, "arr = arange(10)\n");
        let before = s.head();
        run(&mut s, "arr[0] += 100\n");
        assert_eq!(value(&mut s, "arr[0]"), "100.0");
        s.checkout(before).expect("undo");
        assert_eq!(value(&mut s, "arr[0]"), "0.0");
    }
}
