//! [`KishuSession`]: the end-to-end time-traveling notebook session.
//!
//! Ties every piece together the way Fig 5 draws it: the minipy interpreter
//! is the kernel, its patched namespace produces per-cell access records,
//! the [`DeltaDetector`] turns them into co-variable state deltas, each
//! delta is pickled per co-variable into the [`CheckpointStore`] and
//! committed to the [`CheckpointGraph`], and `checkout` restores any past
//! state by loading only the diverged co-variables — falling back to
//! recursive recomputation (§5.3) when bytes are missing or refuse to load.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kishu_kernel::{simcost, ObjId, ObjKind};
use kishu_libsim::{LibReducer, Registry};
use kishu_minipy::{CellOutcome, Interp, RunError};
use kishu_pickle::{dumps, loads_precharged};
use kishu_storage::{
    content_key, crc32::crc32, BlobCache, BlobId, BlobIndex, CheckpointStore, ContentKey,
    MemoryStore, PutReceipt, StoreStats,
};
use kishu_trace::Trace;

use crate::covariable::CoVarKey;
use crate::delta::DeltaDetector;
use crate::error::KishuError;
use crate::graph::{CheckpointGraph, NodeId, StoredCoVar};

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
    /// Garbage-collect unreachable heap objects after each cell.
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
fn retry_io<T>(trace: &Trace, retries: u32, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < retries => {
                attempt += 1;
                trace.counter("store.retry", 1);
                trace.event(
                    kishu_trace::Severity::Warn,
                    "retry",
                    vec![
                        ("attempt".to_string(), attempt.to_string()),
                        ("error".to_string(), e.to_string()),
                    ],
                );
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
    /// layer, including tenant views of a shared store).
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
    /// Allocation high-water mark at the last garbage collection.
    last_gc_allocs: u64,
    /// Content-addressed index over sealed payloads written this session
    /// (advisory; empty after `resume`). See [`KishuConfig::dedup_blobs`].
    blob_index: BlobIndex,
    /// Read-side cache of CRC-verified checkout payloads, keyed by the
    /// content key of the *sealed* bytes (the same keys `blob_index` uses,
    /// so payloads deduplicated on the way in are shared on the way out).
    read_cache: BlobCache,
    /// Blob id → content key of its sealed bytes, learned from successful
    /// checkout reads, so a later read of the same blob can recognize a
    /// cache hit before touching the store.
    blob_keys: HashMap<BlobId, ContentKey>,
    /// Graph-snapshot blobs this session knows about: every id
    /// [`Self::persist`] wrote plus the one [`Self::resume`] recovered
    /// from. Feeds [`Self::live_blobs`] so shared-store GC never reclaims
    /// the snapshot a resume would need.
    snapshot_blobs: Vec<BlobId>,
    /// Observability handle (spans + metrics). Disabled by default unless
    /// `KISHU_TRACE` is set; never consulted for any decision, so enabling
    /// it cannot change behavior. Span guards still time phases while
    /// disabled — that is where the report's wall-clock fields come from.
    trace: Trace,
    /// Memoized [`Self::diff`] reports keyed `(base, target, graph epoch)`.
    /// The epoch key makes commit/ref invalidation free; the cache is also
    /// cleared whenever the session *learns* a blob's content key (checkout
    /// reads, deep diffs) because shallow refinement consults those keys —
    /// a cached report must be byte-identical to a fresh recompute.
    diff_cache: RefCell<HashMap<(u32, u32, u64), crate::query::DiffReport>>,
    /// Diff-cache lookups answered from memory ([`Self::health`] reads it).
    diff_cache_hits: Cell<u64>,
    /// Diff-cache lookups that had to compute.
    diff_cache_misses: Cell<u64>,
}

/// Result of the serialize+seal phase: per co-variable, the sealed bytes
/// plus the simulated serialize charge in ns (`None` = unserializable),
/// and then the phase's wall time in nanoseconds.
type SealedBatch = (Vec<Option<(Vec<u8>, u64)>>, u64);

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
        let mut read_cache = BlobCache::new(config.checkout_cache_bytes);
        let trace = kishu_trace::global().clone();
        store.attach_trace(&trace);
        read_cache.attach_trace(&trace);
        // Arm the crash black box only for operator-enabled recorders
        // (KISHU_TRACE / KISHU_OBS_BLACKBOX): unit tests that build
        // sessions around private enabled traces should not leave dump
        // files behind on unrelated panics.
        let switches = kishu_trace::env_switches();
        if trace.is_enabled() && (switches.trace_path.is_some() || switches.blackbox) {
            kishu_trace::blackbox::install_panic_hook(&trace);
        }
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
            last_gc_allocs: 0,
            blob_index: BlobIndex::new(),
            read_cache,
            blob_keys: HashMap::new(),
            snapshot_blobs: Vec::new(),
            trace,
            diff_cache: RefCell::new(HashMap::new()),
            diff_cache_hits: Cell::new(0),
            diff_cache_misses: Cell::new(0),
        }
    }

    /// Attach Kishu to a fresh kernel writing checkpoints into tenant
    /// `tenant`'s view of a multi-tenant [`kishu_storage::SharedStore`].
    /// The view is observationally private — dense blob ids, logical
    /// stats — so everything above the store behaves exactly as on a
    /// private store; see `tests/multi_tenant.rs` for the differential
    /// proof.
    pub fn on_shared(
        store: &kishu_storage::SharedStore,
        tenant: &str,
        config: KishuConfig,
    ) -> io::Result<Self> {
        Ok(Self::new(Box::new(store.tenant(tenant)?), config))
    }

    /// Replace the session's observability handle (and re-attach it to the
    /// store and read cache). Purely observational — the differential suite
    /// proves byte-identical behavior with tracing on and off.
    pub fn set_trace(&mut self, trace: &Trace) {
        self.trace = trace.clone();
        self.store.attach_trace(&self.trace);
        self.read_cache.attach_trace(&self.trace);
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

    /// Serialize and seal a batch of co-variables ([`SealedBatch`]),
    /// fanning the work out
    /// over [`KishuConfig::checkpoint_workers`] threads. Results come back
    /// in input order regardless of scheduling — `None` marks an
    /// unserializable co-variable. Sealing (CRC framing) happens on the
    /// worker too: it is per-byte work with no ordering requirement.
    ///
    /// Only CPU-side work runs here. Store writes stay on the session
    /// thread, in batch order, so the blob-id sequence, store bytes, and
    /// any injected-fault ledger are identical at every worker count.
    /// Returns the per-covariable results plus the phase's wall time in
    /// nanoseconds (the `ckpt.serialize` span, measured whether or not
    /// tracing is enabled).
    fn dump_sealed_batch(&self, batch: &[(CoVarKey, Vec<ObjId>)]) -> SealedBatch {
        let heap = &self.interp.heap;
        let reducer = &self.reducer;
        let mut sp = self.trace.span("ckpt.serialize");
        sp.arg("covars", batch.len());
        // Worker-side spans (`ckpt.seal` and the `pickle.dumps` underneath)
        // parent under this phase span via `worker_scope`, which also works
        // on the inline workers=1 path.
        let parent = sp.id();
        let trace = &self.trace;
        let jobs: Vec<_> = batch
            .iter()
            .map(|(_, roots)| {
                move || {
                    trace.worker_scope(parent, || {
                        let mut sp = trace.span("ckpt.seal");
                        dumps(heap, roots, reducer).ok().map(|bytes| {
                            let len = bytes.len() as u64;
                            sp.arg("bytes", len);
                            (seal_blob(&bytes), len)
                        })
                    })
                }
            })
            .collect();
        let out = kishu_testkit::pool::run(self.config.checkpoint_workers.max(1), jobs);
        (out, sp.end())
    }

    /// Write one sealed payload, deduplicating against the session's
    /// content index when enabled. Returns the blob id and whether the
    /// write was deduplicated away. Only successful full writes are
    /// indexed — a dropped blob must never satisfy a later lookup.
    fn put_sealed(&mut self, sealed: &[u8]) -> io::Result<(PutReceipt, bool)> {
        let mut sp = self.trace.span("store.put");
        sp.arg("bytes", sealed.len());
        self.trace.observe("blob.bytes", sealed.len() as u64);
        let key = self.config.dedup_blobs.then(|| content_key(sealed));
        if let Some(key) = key {
            if let Some(id) = self.blob_index.lookup(key) {
                self.trace.counter("blob.dedup_hits", 1);
                sp.arg("dedup", true);
                sp.arg("blob", id);
                // A session-level dedup hit writes nothing: the receipt is
                // all-zero physical attribution, not the opaque default.
                return Ok((PutReceipt { id, ..PutReceipt::default() }, true));
            }
        }
        let retries = self.config.store_retries;
        let store = &mut self.store;
        let trace = &self.trace;
        let receipt = retry_io(trace, retries, || store.put_with_receipt(sealed))?;
        sp.arg("blob", receipt.id);
        if let Some(key) = key {
            self.blob_index.record(key, receipt.id);
        }
        Ok((receipt, false))
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
        let mut payload = GRAPH_BLOB_MAGIC.to_vec();
        payload.extend_from_slice(self.graph.to_json().dump().as_bytes());
        // The snapshot put rides the same transient-retry policy as every
        // co-variable write: a recoverable I/O hiccup on the resume anchor
        // must not fail the whole persist.
        let sealed = seal_blob(&payload);
        let retries = self.config.store_retries;
        let id = retry_io(&self.trace, retries, || self.store.put(&sealed))?;
        // The snapshot is the resume anchor — it must never sit in a
        // group-commit buffer behind the blobs it references.
        retry_io(&self.trace, retries, || self.store.flush_barrier())?;
        self.snapshot_blobs.push(id);
        Ok(())
    }

    /// Every tenant blob id the session's durable state still reaches:
    /// all co-variable blobs referenced from any node of the Checkpoint
    /// Graph, plus the **latest** graph snapshot [`Self::persist`] wrote
    /// (or [`Self::resume`] recovered from) — earlier snapshots are
    /// superseded history, exactly what shared-store GC exists to
    /// reclaim. This is the live set
    /// [`kishu_storage::SharedStore::collect`] marks from — anything
    /// outside it (old snapshots, dropped-write garbage) may be
    /// reclaimed.
    ///
    /// Deferred co-variables are no hazard: until [`Self::flush_pending`]
    /// runs, their bytes are not in the store at all.
    pub fn live_blobs(&self) -> BTreeSet<BlobId> {
        let mut live = BTreeSet::new();
        for i in 0..self.graph.len() {
            for sc in &self.graph.node(NodeId(i as u32)).delta {
                if let Some(b) = sc.blob {
                    live.insert(b);
                }
            }
        }
        if let Some(&latest) = self.snapshot_blobs.last() {
            live.insert(latest);
        }
        live
    }

    /// Drop every store-derived cache: the dedup [`BlobIndex`], the
    /// checkout read cache, and the blob → content-key map. Call after a
    /// shared-store GC pass — reclaimed blob ids must not satisfy a later
    /// dedup lookup (the write would alias to a tombstone), and the caches
    /// rebuild for free. Purely an optimization reset: never affects what
    /// any checkpoint restores to.
    pub fn invalidate_store_caches(&mut self) {
        self.blob_index = BlobIndex::new();
        self.read_cache.clear();
        self.blob_keys.clear();
        self.diff_cache.borrow_mut().clear();
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
        for i in (0..store.blob_count()).rev() {
            // An unreadable or corrupt blob must not abort resume: skip it
            // and keep scanning for an older intact graph snapshot. Only
            // transient errors are worth retrying first. Retries go to the
            // global trace: the session built below is born with a clone of it.
            let blob = match retry_io(kishu_trace::global(), config.store_retries, || store.get(i)) {
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
                    graph = Some((g, i));
                    break;
                }
                // A damaged snapshot that still carries the magic: ignore
                // it too and fall through to an older one.
            }
        }
        let (graph, snapshot_id) = graph.ok_or_else(|| KishuError::RestoreFailed {
            covariable: Vec::new(),
            reason: format!(
                "no intact checkpoint graph snapshot in the store \
                 ({} blob(s) scanned, {unreadable} unreadable)",
                store.blob_count()
            ),
        })?;
        let target = graph.head();
        let mut session = Self::new(store, config);
        session.graph = graph;
        // The snapshot we just recovered from stays live: a GC between now
        // and the next persist must not reclaim the only intact snapshot.
        session.snapshot_blobs.push(snapshot_id);
        let root = session.graph.root();
        session.graph.set_head(root);
        session.checkout(target)?;
        Ok(session)
    }

    /// Execute one cell: run, detect the delta, write the incremental
    /// checkpoint, commit the node, and advance the head.
    ///
    /// Returns `Err` only for syntax errors (nothing executed). A runtime
    /// error inside the cell still produces a checkpoint — its partial
    /// mutations are real and must be undoable.
    pub fn run_cell(&mut self, src: &str) -> Result<CellReport, RunError> {
        self.run_cell_with(src, true)
    }

    /// Like [`Self::run_cell`], but with per-cell control over data
    /// storage. With `store_data: false` the checkpoint node records the
    /// cell's code, delta keys, and dependencies but writes **no** bytes —
    /// checkout then reconstructs those co-variables by replaying the cell
    /// (fallback recomputation). This is the primitive behind the
    /// Kishu+Det-replay baseline (§7.1): skip storage after cells annotated
    /// deterministic.
    pub fn run_cell_with(&mut self, src: &str, store_data: bool) -> Result<CellReport, RunError> {
        // Think-time deferral: anything still pending belongs to the
        // previous cell and must hit storage before this cell can mutate
        // the objects it references.
        self.flush_pending();
        let exec_sp = self.trace.span("cell.exec");
        let outcome = self.interp.run_cell(src)?;
        exec_sp.end();
        let track_sp = self.trace.span("cell.track");
        let delta = if self.config.rule_based_cells && self.cell_provably_read_only(src) {
            // Rule-based fast path (§6.2 extension): the cell cannot have
            // changed the state, so skip VarGraph verification entirely and
            // record only the dependencies the patched namespace observed.
            let start = Instant::now();
            let partition = self.detector.partition();
            let dependencies: Vec<CoVarKey> = partition
                .intersecting(&outcome.access.gets.iter().cloned().collect())
                .into_iter()
                .map(|i| partition.covars()[i].clone())
                .collect();
            crate::delta::StateDelta {
                updated: Vec::new(),
                deleted: Vec::new(),
                dependencies,
                candidates_checked: 0,
                vars_rebuilt: 0,
                tracking_time: start.elapsed(),
            }
        } else {
            self.detector
                .on_cell(&self.interp.heap, &self.interp.globals, &outcome.access)
        };
        track_sp.end();

        // The `ckpt` span *is* the checkpoint stopwatch: its `end()` below
        // supplies `checkpoint_time`, so the report and the trace share one
        // clock read.
        let ckpt_sp = self.trace.span("ckpt");
        let mut serialize_ns = 0u64;
        let mut write_ns = 0u64;
        let mut checkpoint_bytes = 0u64;
        let mut bytes_written = 0u64;
        let mut chunks_written = 0u64;
        let mut chunks_deduped = 0u64;
        let mut bytes_compressed = 0u64;
        let mut blobs_dropped = 0usize;
        let mut blobs_deduped = 0usize;
        let mut committed: Option<NodeId> = None;
        let mut deferred: Vec<CoVarKey> = Vec::new();
        let mut stored: Vec<StoredCoVar> = Vec::with_capacity(delta.updated.len());
        if self.config.auto_checkpoint {
            // Resolve dependency versions against the pre-commit head state.
            let head_state = self.graph.state_at(self.graph.head());
            let mut deps: Vec<(CoVarKey, NodeId)> = delta
                .dependencies
                .iter()
                .filter_map(|k| {
                    if let Some(v) = head_state.get(k) {
                        return Some((k.clone(), *v));
                    }
                    // The detector's partition can drift from the graph's
                    // recorded keys across checkouts (merges/splits). A
                    // dependency must never be silently dropped — fallback
                    // recomputation would re-run this cell with the binding
                    // missing — so resolve it to any head co-variable that
                    // shares a name.
                    head_state
                        .iter()
                        .find(|(hk, _)| hk.iter().any(|n| k.contains(n)))
                        .map(|(hk, v)| (hk.clone(), *v))
                })
                .collect();
            deps.dedup();
            // Phase 1 (classify, session thread): decide each co-variable's
            // fate. Policy skips and deferrals write nothing now; the rest
            // queue for the dump pipeline.
            let mut to_dump: Vec<(CoVarKey, Vec<ObjId>)> = Vec::new();
            let mut dump_slots: Vec<Option<usize>> = Vec::with_capacity(delta.updated.len());
            let classify_sp = self.trace.span("ckpt.classify");
            for key in &delta.updated {
                let roots: Vec<ObjId> = key
                    .iter()
                    .filter_map(|n| self.interp.globals.peek(n))
                    .collect();
                stored.push(StoredCoVar {
                    names: key.clone(),
                    blob: None,
                    bytes: 0,
                });
                if !store_data || roots.len() != key.len() || self.is_blocklisted(&roots) {
                    dump_slots.push(None);
                } else if self.config.defer_serialization {
                    deferred.push(key.clone());
                    dump_slots.push(None);
                } else {
                    dump_slots.push(Some(to_dump.len()));
                    to_dump.push((key.clone(), roots));
                }
            }
            classify_sp.end();
            // Phase 2 (serialize + seal, worker pool): the CPU-heavy part,
            // fanned out; results return in delta order.
            let (dumped, ser_ns) = self.dump_sealed_batch(&to_dump);
            serialize_ns = ser_ns;
            // Phase 3 (write, session thread): sequential puts in delta
            // order keep blob ids, store bytes, and fault ledgers identical
            // at every worker count; dedup turns repeat payloads into
            // metadata-only entries.
            let write_sp = self.trace.span("ckpt.write");
            for (record, slot) in stored.iter_mut().zip(&dump_slots) {
                let Some(slot) = slot else { continue };
                match &dumped[*slot] {
                    Some((sealed, len)) => match self.put_sealed(sealed) {
                        Ok((receipt, deduped)) => {
                            checkpoint_bytes += len;
                            if deduped {
                                blobs_deduped += 1;
                            } else {
                                bytes_written += receipt.bytes_written;
                                chunks_written += receipt.chunks_written;
                                chunks_deduped += receipt.chunks_deduped;
                                bytes_compressed += receipt.bytes_compressed;
                            }
                            record.blob = Some(receipt.id);
                            record.bytes = *len;
                        }
                        // Store failure even after retries: drop the blob,
                        // count the degradation, rely on fallback
                        // recomputation.
                        Err(_) => blobs_dropped += 1,
                    },
                    // Unserializable co-variable: skip storage, rely on
                    // fallback recomputation (§5.1).
                    None => blobs_dropped += 1,
                }
            }
            // Group-commit barrier: the cell's burst of puts may be sitting
            // in a store-side buffer; everything must be reopenable before
            // the node commits. Barrier failure is not a data-loss event by
            // itself (the blobs are unordered, not gone), so it degrades
            // like any store hiccup: count it, keep the session alive.
            if self.store.flush_barrier().is_err() {
                self.trace.counter("store.barrier_failed", 1);
                self.trace.event(
                    kishu_trace::Severity::Error,
                    "barrier_failed",
                    vec![("where".to_string(), "run_cell".to_string())],
                );
            }
            write_ns = write_sp.end();
            let node = self
                .graph
                .commit(src.to_string(), stored, delta.deleted.clone(), deps);
            committed = Some(node);
            for key in deferred {
                self.pending.push((node, key));
            }
        }
        if blobs_dropped > 0 {
            self.trace.counter("blobs.dropped", blobs_dropped as u64);
        }
        let ckpt_wall_ns = ckpt_sp.end();
        let checkpoint_time = Duration::from_nanos(ckpt_wall_ns);

        if self.config.gc_after_cell {
            // Amortize: a mark-sweep scans every slot ever allocated, so
            // collecting after every tiny cell would make GC cost grow with
            // session age. Collect only once enough new allocations piled
            // up since the last sweep.
            let allocs = self.interp.heap.stats().total_allocated;
            if allocs - self.last_gc_allocs > 4096 {
                self.interp.gc();
                self.last_gc_allocs = allocs;
            }
        }

        self.metrics.cells.push(CellMetrics {
            node: committed,
            cell_time: outcome.wall_time,
            tracking_time: delta.tracking_time,
            checkpoint_time,
            checkpoint_bytes,
            covars_updated: delta.updated.len(),
            candidates_checked: delta.candidates_checked,
            blobs_dropped,
            blobs_deduped,
            bytes_written,
            chunks_written,
            chunks_deduped,
            bytes_compressed,
            serialize_ns,
            write_ns,
        });

        Ok(CellReport {
            node: committed,
            outcome,
            updated: delta.updated,
            tracking_time: delta.tracking_time,
            checkpoint_time,
            checkpoint_bytes,
            blobs_dropped,
            blobs_deduped,
            bytes_written,
            chunks_written,
            chunks_deduped,
            bytes_compressed,
            ckpt_wall_ns,
            serialize_ns,
            write_ns,
        })
    }

    /// Serialize and store any co-variables whose checkpointing was
    /// deferred into think time. Safe to call at any point between cells;
    /// called automatically before the next cell execution and before any
    /// checkout. Returns the number of co-variables flushed.
    ///
    /// The elapsed time is attributed to the originating cell's
    /// `checkpoint_time` — it *is* that cell's checkpoint work, done late.
    /// (Checkout-triggered flushes instead land in the checkout's
    /// `wall_time`; see [`Self::checkout`].)
    pub fn flush_pending(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let sp = self.trace.span("ckpt.flush");
        let flushed = self.flush_pending_inner();
        let flush_ns = sp.end();
        if let Some(last) = self.metrics.cells.last_mut() {
            last.checkpoint_time += Duration::from_nanos(flush_ns);
            // Note: flush bytes are reflected in store_stats(), not in the
            // originating cell's checkpoint_bytes (which measured the
            // user-visible latency).
        }
        flushed
    }

    /// The flush itself, with no time attribution — callers decide where
    /// the wall time belongs. Write failures drop the blob and count into
    /// the owning cell's `blobs_dropped` degradation counter.
    fn flush_pending_inner(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let pending = std::mem::take(&mut self.pending);
        let mut flushed = 0;
        // Same three-phase shape as `run_cell_with`: classify, fan the
        // dumps out, then write sequentially in pending order.
        let mut batch: Vec<(CoVarKey, Vec<ObjId>)> = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for (node, key) in pending {
            let roots: Vec<ObjId> = key
                .iter()
                .filter_map(|n| self.interp.globals.peek(n))
                .collect();
            if roots.len() != key.len() {
                continue; // vanished between cells (checkout raced): falls
                          // back to recomputation like any missing blob
            }
            batch.push((key, roots));
            nodes.push(node);
        }
        let (dumped, _serialize_ns) = self.dump_sealed_batch(&batch);
        for (((key, _), node), dump) in batch.iter().zip(nodes).zip(dumped) {
            let dropped = match dump {
                Some((sealed, len)) => match self.put_sealed(&sealed) {
                    Ok((receipt, _deduped)) => {
                        self.graph.set_stored(node, key, receipt.id, len);
                        flushed += 1;
                        false
                    }
                    Err(_) => true,
                },
                None => true,
            };
            if dropped {
                self.trace.counter("blobs.dropped", 1);
                if let Some(m) = self
                    .metrics
                    .cells
                    .iter_mut()
                    .rev()
                    .find(|m| m.node == Some(node))
                {
                    m.blobs_dropped += 1;
                }
            }
        }
        // The flushed blobs back already-committed nodes: order them out of
        // any group-commit buffer before returning.
        if self.store.flush_barrier().is_err() {
            self.trace.counter("store.barrier_failed", 1);
            self.trace.event(
                kishu_trace::Severity::Error,
                "barrier_failed",
                vec![("where".to_string(), "flush_pending".to_string())],
            );
        }
        flushed
    }

    /// Number of co-variables currently awaiting their think-time flush.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn cell_provably_read_only(&self, src: &str) -> bool {
        kishu_minipy::parse_program(src)
            .map(|program| crate::rules::cell_is_read_only(&program))
            .unwrap_or(false)
    }

    /// Whether any object reachable from `roots` belongs to a blocklisted
    /// class. One union traversal over all roots (a co-variable's roots
    /// share most of their component, so per-root traversals would revisit
    /// the shared structure once per root — quadratic on wide namespaces).
    /// An `External` whose class the registry cannot name can't be cleared
    /// against the blocklist: it is treated as blocklisted (the safe side —
    /// skip storage, restore by fallback recomputation) and counted in
    /// [`SessionMetrics::blocklist_anomalies`].
    fn is_blocklisted(&mut self, roots: &[ObjId]) -> bool {
        if self.config.blocklist.is_empty() {
            return false;
        }
        let mut anomaly = false;
        let hit = self
            .interp
            .heap
            .reachable_from_all(roots)
            .iter()
            .any(|id| {
                if let ObjKind::External { class, .. } = self.interp.heap.kind(*id) {
                    match self.registry.get(*class) {
                        Some(spec) => self.config.blocklist.contains(spec.name),
                        None => {
                            anomaly = true;
                            true
                        }
                    }
                } else {
                    false
                }
            });
        if anomaly {
            self.metrics.blocklist_anomalies += 1;
            eprintln!(
                "kishu: blocklist check saw an external object with an \
                 unregistered class; treating its co-variable as blocklisted"
            );
        }
        hit
    }

    /// Incremental checkout (§5.2): restore the session to the state at
    /// `target`, loading only diverged co-variables, deleting variables
    /// absent in the target, and leaving identical co-variables untouched
    /// in the live kernel. Missing/unloadable data is reconstructed by
    /// fallback recomputation (§5.3).
    ///
    /// The read side mirrors the checkpoint write pipeline's three phases:
    ///
    /// 1. **Fetch (session thread, plan order)** — every planned blob is
    ///    read from the store sequentially (after a read-cache consult), so
    ///    any injected-fault ledger is identical at every worker count;
    /// 2. **Verify (worker pool)** — end-to-end CRC checks and the
    ///    simulated decode charge fan out over
    ///    [`KishuConfig::restore_workers`] threads, so cold-load sleeps
    ///    overlap across blobs;
    /// 3. **Apply (session thread, plan order)** — deserialization into the
    ///    live heap, namespace binding, and fallback recomputation run
    ///    sequentially, consuming the verified payloads in plan order.
    pub fn checkout(&mut self, target: NodeId) -> Result<CheckoutReport, KishuError> {
        let result = self.checkout_inner(target);
        if result.is_err() {
            // A failed time-travel is the flight recorder's reason to
            // exist: flush the ring tail + recent events to disk (only
            // when the operator armed `KISHU_OBS_BLACKBOX`).
            self.black_box("checkout_error");
        }
        result
    }

    fn checkout_inner(&mut self, target: NodeId) -> Result<CheckoutReport, KishuError> {
        // The `checkout` span is the wall-time stopwatch: its `end()` below
        // supplies `wall_time`/`co_wall_ns` — one clock read, shared by the
        // report and the trace.
        let mut co_sp = self.trace.span("checkout");
        co_sp.arg("target", target.0);
        // A checkout-triggered think-time flush belongs to this checkout's
        // wall time, not to the originating cell's checkpoint_time — the
        // inner flush skips the per-cell attribution.
        let flush_sp = self.trace.span("checkout.flush");
        let flushed = self.flush_pending_inner();
        flush_sp.end();
        if !self.graph.contains(target) {
            return Err(KishuError::UnknownNode(target));
        }
        let plan = self.graph.diff(self.graph.head(), target);

        let mut changed: BTreeSet<String> = BTreeSet::new();
        let mut loaded = Vec::new();
        let mut recomputed = Vec::new();
        let mut bytes_loaded = 0u64;
        let mut blobs_cached = 0usize;

        // Removals must precede loads: a target co-variable's member names
        // can overlap a (differently-shaped) current co-variable slated for
        // removal — e.g. `{x,y}` diverged into `{x,y,z}` — and removing
        // after loading would delete just-restored bindings.
        for key in &plan.remove {
            for name in key {
                self.interp.globals.delete_untracked(name);
                changed.insert(name.clone());
            }
        }
        let mut ctx = RestoreCtx::default();
        // Phases 1+2: fetch serially, verify+charge on the pool.
        self.prefetch_plan_blobs(&plan.load, &mut ctx);
        // Phase 3: apply in plan order.
        let apply_sp = self.trace.span("checkout.apply");
        for (key, version) in &plan.load {
            let (bindings, how) = self.materialize(key, *version, &mut ctx, 0)?;
            for (name, obj) in bindings {
                self.interp.globals.set_untracked(&name, obj);
                changed.insert(name);
            }
            match how {
                Materialized::Loaded { bytes, cached } => {
                    bytes_loaded += bytes;
                    if cached {
                        blobs_cached += 1;
                    }
                    loaded.push(key.clone());
                }
                Materialized::Recomputed => recomputed.push(key.clone()),
            }
        }
        let apply_ns = apply_sp.end();

        // Regenerate VarGraphs for what changed (§5.2 step 2) and move the
        // head (step 3).
        self.detector
            .resync_after_checkout(&self.interp.heap, &self.interp.globals, &changed);
        self.graph.set_head(target);
        // No GC here: collection scans every slot ever allocated, which
        // would dominate sub-millisecond undos; the next cell execution
        // collects anyway.

        let co_wall_ns = co_sp.end();
        Ok(CheckoutReport {
            target,
            loaded,
            recomputed,
            removed: plan.remove,
            identical: plan.identical.len(),
            bytes_loaded,
            wall_time: Duration::from_nanos(co_wall_ns),
            integrity_failures: ctx.integrity_failures,
            flushed,
            blobs_cached,
            co_wall_ns,
            fetch_ns: ctx.fetch_ns,
            verify_ns: ctx.verify_ns,
            apply_ns,
        })
    }

    /// Phases 1+2 of the checkout read pipeline: read every planned blob
    /// sequentially on the session thread (plan order — the determinism
    /// rule that store operations never leave the session thread, extended
    /// from writes to reads), then fan the CRC verification and the
    /// simulated decode charge of the cold payloads out over the worker
    /// pool. Outcomes land in `ctx.prefetched`, keyed like the memo, for
    /// [`Self::materialize_uncached`] to consume in apply order.
    ///
    /// Failures are *recorded*, not counted: a prefetched blob that was
    /// unreadable or corrupt only becomes an integrity failure when the
    /// apply phase actually consumes it (a memoized materialization from an
    /// earlier plan entry's recursion may supersede it first — exactly as
    /// the serial path behaves).
    fn prefetch_plan_blobs(&mut self, load: &[(CoVarKey, NodeId)], ctx: &mut RestoreCtx) {
        enum Fetched {
            /// Verified payload straight from the read cache.
            Cached(Vec<u8>),
            /// Sealed bytes from the store, pending CRC + charge.
            Sealed { blob: BlobId, sealed: Vec<u8> },
            /// Unreadable even after retries.
            Failed,
        }
        // Phase 1: sequential cache consults and store reads, plan order.
        let fetch_sp = self.trace.span("checkout.fetch");
        let mut fetched: Vec<((Vec<String>, NodeId), Fetched)> = Vec::new();
        for (key, version) in load {
            let Some(sc) = self.graph.stored(key, *version) else { continue };
            let Some(blob) = sc.blob else { continue };
            let memo_key = (key.iter().cloned().collect::<Vec<String>>(), *version);
            let mut sp = self.trace.span("store.get");
            sp.arg("blob", blob);
            let hit = self
                .blob_keys
                .get(&blob)
                .copied()
                .and_then(|k| self.read_cache.get(k));
            let f = match hit {
                Some(payload) => {
                    sp.arg("cached", true);
                    Fetched::Cached(payload)
                }
                None => {
                    let retries = self.config.store_retries;
                    let store = &self.store;
                    let trace = &self.trace;
                    match retry_io(trace, retries, || store.get(blob)) {
                        Ok(sealed) => {
                            sp.arg("bytes", sealed.len());
                            Fetched::Sealed { blob, sealed }
                        }
                        Err(_) => {
                            sp.arg("failed", true);
                            Fetched::Failed
                        }
                    }
                }
            };
            fetched.push((memo_key, f));
        }
        ctx.fetch_ns = fetch_sp.end();
        // Phase 2: CRC + decode charge of the cold payloads, fanned out.
        // Results return in job order, so the outcome map below is
        // identical at every worker count.
        let verify_sp = self.trace.span("checkout.verify");
        let parent = verify_sp.id();
        let trace = &self.trace;
        let jobs: Vec<_> = fetched
            .iter()
            .map(|(_, f)| {
                move || {
                    trace.worker_scope(parent, || match f {
                        Fetched::Sealed { blob, sealed } => {
                            let mut sp = trace.span("checkout.decode");
                            sp.arg("blob", *blob);
                            sp.arg("bytes", sealed.len());
                            let key = content_key(sealed);
                            unseal_blob(sealed).map(|payload| {
                                simcost::charge_bytes(payload.len() as u64, simcost::PICKLE_BPS);
                                (payload.to_vec(), key, *blob)
                            })
                        }
                        // Cache hits carry no worker-side work; failures
                        // have nothing to verify.
                        _ => None,
                    })
                }
            })
            .collect();
        let verified = kishu_testkit::pool::run(self.config.restore_workers.max(1), jobs);
        ctx.verify_ns = verify_sp.end();
        for ((memo_key, f), v) in fetched.into_iter().zip(verified) {
            let outcome = match (f, v) {
                (Fetched::Cached(payload), _) => Prefetched::Ready {
                    payload,
                    cached: true,
                    cache_key: None,
                },
                (Fetched::Sealed { .. }, Some((payload, key, blob))) => Prefetched::Ready {
                    payload,
                    cached: false,
                    cache_key: Some((key, blob)),
                },
                // CRC failure or unreadable blob: both degrade to counted
                // fallback recomputation at consumption time.
                (Fetched::Sealed { .. }, None) | (Fetched::Failed, _) => Prefetched::Failed,
            };
            ctx.prefetched.insert(memo_key, outcome);
        }
    }

    /// Fetch and verify one stored blob serially — the recursive-dependency
    /// path of fallback recomputation, whose blobs are not in the checkout
    /// plan and hence not prefetched. Same cache consult and the same
    /// decode charge as the pipeline, paid inline on the session thread.
    /// `None` means nothing is stored for this version (no blob id).
    fn fetch_blob_serial(&mut self, key: &CoVarKey, version: NodeId) -> Option<Prefetched> {
        let blob = self.graph.stored(key, version)?.blob?;
        let mut sp = self.trace.span("store.get");
        sp.arg("blob", blob);
        if let Some(payload) = self
            .blob_keys
            .get(&blob)
            .copied()
            .and_then(|k| self.read_cache.get(k))
        {
            sp.arg("cached", true);
            return Some(Prefetched::Ready {
                payload,
                cached: true,
                cache_key: None,
            });
        }
        let retries = self.config.store_retries;
        let store = &self.store;
        let trace = &self.trace;
        match retry_io(trace, retries, || store.get(blob)) {
            Ok(sealed) => {
                let ck = content_key(&sealed);
                match unseal_blob(&sealed) {
                    Some(payload) => {
                        simcost::charge_bytes(payload.len() as u64, simcost::PICKLE_BPS);
                        Some(Prefetched::Ready {
                            payload: payload.to_vec(),
                            cached: false,
                            cache_key: Some((ck, blob)),
                        })
                    }
                    None => Some(Prefetched::Failed),
                }
            }
            Err(_) => Some(Prefetched::Failed),
        }
    }

    /// Materialize one versioned co-variable: load its checkpoint if
    /// possible, otherwise recursively recompute it (Fig 11).
    ///
    /// Results are memoized in `ctx` for the duration of one checkout:
    /// diamond dependencies (two recomputations needing the same versioned
    /// input) reuse the first materialization, and only a revisit *along
    /// the current recursion path* (`ctx.in_progress`) is a true dependency
    /// cycle.
    fn materialize(
        &mut self,
        key: &CoVarKey,
        version: NodeId,
        ctx: &mut RestoreCtx,
        depth: usize,
    ) -> Result<(Vec<(String, ObjId)>, Materialized), KishuError> {
        let memo_key = (key.iter().cloned().collect::<Vec<String>>(), version);
        if let Some((bindings, how)) = ctx.memo.get(&memo_key) {
            // Report how the co-variable was *originally* materialized: a
            // memo hit on something loaded from the store is still a load
            // (its bytes were read, its CRC verified) — calling it
            // "recomputed" would zero `bytes_loaded` for diamond plans and
            // misattribute the restore work the report exists to measure.
            return Ok((bindings.clone(), *how));
        }
        if depth > MAX_FALLBACK_DEPTH || !ctx.in_progress.insert(memo_key.clone()) {
            return Err(KishuError::RestoreFailed {
                covariable: key.iter().cloned().collect(),
                reason: "fallback recomputation hit a dependency cycle or its depth limit".into(),
            });
        }
        let result = self.materialize_uncached(key, version, ctx, depth);
        ctx.in_progress.remove(&memo_key);
        if let Ok((bindings, how)) = &result {
            ctx.memo.insert(memo_key, (bindings.clone(), *how));
        }
        result
    }

    fn materialize_uncached(
        &mut self,
        key: &CoVarKey,
        version: NodeId,
        ctx: &mut RestoreCtx,
        depth: usize,
    ) -> Result<(Vec<(String, ObjId)>, Materialized), KishuError> {
        let memo_key = (key.iter().cloned().collect::<Vec<String>>(), version);
        // Plan entries were fetched and CRC-verified by the pipeline;
        // recursive dependencies of fallback recomputation were not, and
        // fetch serially here. Either way the CRC already ran before the
        // deserializer sees any bytes — damaged payloads must never reach
        // it, where a lucky flip could still parse into wrong state.
        let outcome = ctx
            .prefetched
            .remove(&memo_key)
            .or_else(|| self.fetch_blob_serial(key, version));
        match outcome {
            Some(Prefetched::Ready {
                payload,
                cached,
                cache_key,
            }) => {
                // The decode charge was already paid — on a worker (plan
                // entries), inline (recursive fetches), or skipped as a
                // cache hit — so decode without re-charging.
                match loads_precharged(&mut self.interp.heap, &payload, &self.reducer) {
                    Ok(roots) if roots.len() == key.len() => {
                        if let Some((ck, blob)) = cache_key {
                            // Only payloads that decoded cleanly are
                            // admitted: the cache must never launder a
                            // CRC-clean-but-undecodable blob into a "hit".
                            self.read_cache.insert(ck, &payload);
                            self.blob_keys.insert(blob, ck);
                            // Shallow diff refinement reads blob_keys;
                            // memoized reports predating this key are
                            // stale even at an unchanged graph epoch.
                            self.diff_cache.borrow_mut().clear();
                        }
                        let bindings = key.iter().cloned().zip(roots).collect();
                        return Ok((
                            bindings,
                            Materialized::Loaded {
                                bytes: payload.len() as u64,
                                cached,
                            },
                        ));
                    }
                    // Deserialization failure (CRC-clean but incompatible
                    // bytes): count it and fall through to recomputation.
                    _ => {
                        ctx.integrity_failures += 1;
                        self.trace.counter("integrity.failures", 1);
                    }
                }
            }
            // Unreadable after retries, or failed the CRC: count and fall
            // back. Counted here at consumption time — not at prefetch — so
            // a plan entry already satisfied by an earlier entry's
            // recursion never counts a failure it didn't consume.
            Some(Prefetched::Failed) => {
                ctx.integrity_failures += 1;
                self.trace.counter("integrity.failures", 1);
            }
            // Nothing stored for this version (blocklisted or over-budget
            // at checkpoint time): straight to recomputation, not a
            // failure.
            None => {}
        }
        self.fallback_recompute(key, version, ctx, depth)
            .map(|b| (b, Materialized::Recomputed))
    }

    /// Fallback recomputation (§5.3): load the cell's recorded dependency
    /// co-variables (recursively materializing them), re-run the cell's
    /// code in a temporary namespace, and extract the target co-variable.
    fn fallback_recompute(
        &mut self,
        key: &CoVarKey,
        version: NodeId,
        ctx: &mut RestoreCtx,
        depth: usize,
    ) -> Result<Vec<(String, ObjId)>, KishuError> {
        let mut sp = self.trace.span("recompute");
        sp.arg("covar", key.iter().cloned().collect::<Vec<_>>().join(","));
        sp.arg("version", version.0);
        let _sp = sp;
        let node = self.graph.node(version).clone();
        if node.cell_code.is_empty() {
            return Err(KishuError::RestoreFailed {
                covariable: key.iter().cloned().collect(),
                reason: "no cell code recorded (root node)".into(),
            });
        }
        let mut bindings: Vec<(String, ObjId)> = Vec::new();
        for (dkey, dversion) in &node.deps {
            let (dep_bindings, _) = self.materialize(dkey, *dversion, ctx, depth + 1)?;
            bindings.extend(dep_bindings);
        }
        let result = self
            .interp
            .run_cell_in_temp_namespace(&node.cell_code, bindings)
            .map_err(KishuError::Recompute)?;
        let mut out = Vec::with_capacity(key.len());
        let mut missing: Vec<String> = Vec::new();
        for name in key {
            match result.iter().find(|(n, _)| n == name) {
                Some((n, o)) => out.push((n.clone(), *o)),
                None => missing.push(name.clone()),
            }
        }
        if !missing.is_empty() {
            // The cell re-ran cleanly yet never bound these names. The only
            // way a co-variable gets an update recorded at a cell that does
            // not produce it is address-only drift — a read re-verified the
            // object after a recomputed checkout rebuilt it at a new
            // address — so its *value* is that of the previous version:
            // materialize that instead of failing the restore.
            if let Some(parent) = self.graph.node(version).parent {
                let parent_state = self.graph.state_at(parent);
                let prev = match parent_state.get(key) {
                    Some(v) => Some((key.clone(), *v)),
                    None => parent_state
                        .iter()
                        .find(|(k2, _)| k2.iter().any(|n| missing.contains(n)))
                        .map(|(k2, v)| (k2.clone(), *v)),
                };
                if let Some((pkey, pversion)) = prev {
                    let (bindings, _) = self.materialize(&pkey, pversion, ctx, depth + 1)?;
                    for name in &missing {
                        if let Some((n, o)) = bindings.iter().find(|(n, _)| n == name) {
                            out.push((n.clone(), *o));
                        }
                    }
                }
            }
            if let Some(name) = key.iter().find(|n| !out.iter().any(|(m, _)| &m == n)) {
                return Err(KishuError::RestoreFailed {
                    covariable: key.iter().cloned().collect(),
                    reason: format!("re-running the cell did not produce `{name}`"),
                });
            }
        }
        Ok(out)
    }
}

// --- The commit-graph query surface (see `crate::query`) ----------------
//
// Read-mostly operations a notebook dashboard polls at high rate: state
// diffs between arbitrary checkpoints, per-variable history, and named
// refs (branches/tags). Each query kind gets its own `query.*` trace
// span. Refs live inside the Checkpoint Graph, so `persist` snapshots
// them and `resume` restores them with no extra machinery.
impl KishuSession {
    /// State difference between checkpoints `base` and `target`, computed
    /// from graph metadata plus *shallow* content refinement: a `Changed`
    /// entry whose two blob payloads the session already knows the content
    /// keys of (from writes or prior checkouts) gets a definitive
    /// `same_bytes` verdict without touching the store. Entries whose keys
    /// are unknown stay `same_bytes: None` — use
    /// [`Self::diff_deep`] to resolve them by reading the blobs.
    pub fn diff(&self, base: NodeId, target: NodeId) -> Result<crate::query::DiffReport, KishuError> {
        let mut sp = self.trace.span("query.diff");
        sp.arg("base", base.0);
        sp.arg("target", target.0);
        for id in [base, target] {
            if !self.graph.contains(id) {
                return Err(KishuError::UnknownNode(id));
            }
        }
        // Memo consult: the epoch key invalidates on every commit and ref
        // mutation for free, and the cache is cleared whenever blob_keys
        // learns (the other input to shallow refinement) — so a hit is
        // byte-identical to a fresh recompute.
        let cache_key = (base.0, target.0, self.graph.epoch());
        if let Some(cached) = self.diff_cache.borrow().get(&cache_key) {
            self.diff_cache_hits.set(self.diff_cache_hits.get() + 1);
            self.trace.counter("query.diff_cache_hit", 1);
            sp.arg("cached", true);
            sp.arg("entries", cached.entries.len());
            return Ok(cached.clone());
        }
        self.diff_cache_misses.set(self.diff_cache_misses.get() + 1);
        self.trace.counter("query.diff_cache_miss", 1);
        let mut report = crate::query::diff_report(&self.graph, base, target);
        let mut refined = 0usize;
        for entry in &mut report.entries {
            if entry.change != crate::query::VarChange::Changed || entry.same_bytes.is_some() {
                continue;
            }
            let key_of = |v: Option<NodeId>| {
                v.and_then(|v| self.graph.stored(&entry.key, v))
                    .and_then(|sc| sc.blob)
                    .and_then(|b| self.blob_keys.get(&b).copied())
            };
            if let (Some(ka), Some(kb)) = (key_of(entry.from), key_of(entry.to)) {
                entry.same_bytes = Some(ka == kb);
                refined += 1;
            }
        }
        sp.arg("entries", report.entries.len());
        sp.arg("refined", refined);
        self.diff_cache
            .borrow_mut()
            .insert(cache_key, report.clone());
        Ok(report)
    }

    /// Like [`Self::diff`], but resolves every remaining `same_bytes:
    /// None` on `Changed` entries by fetching both payloads — through the
    /// checkout read cache, so repeated deep diffs over the same states
    /// stop touching the store — and comparing bytes. Payloads are CRC
    /// verified but never deserialized: a diff needs equality, not a live
    /// object. Blobs that fail to read leave their entry at `None` rather
    /// than failing the query.
    pub fn diff_deep(
        &mut self,
        base: NodeId,
        target: NodeId,
    ) -> Result<crate::query::DiffReport, KishuError> {
        let mut report = self.diff(base, target)?;
        let mut sp = self.trace.span("query.diff_deep");
        sp.arg("base", base.0);
        sp.arg("target", target.0);
        let mut fetched = 0usize;
        for i in 0..report.entries.len() {
            let (change, same, key, from, to) = {
                let e = &report.entries[i];
                (e.change, e.same_bytes, e.key.clone(), e.from, e.to)
            };
            if change != crate::query::VarChange::Changed || same.is_some() {
                continue;
            }
            let (Some(from), Some(to)) = (from, to) else { continue };
            let a = self.fetch_payload_for_query(&key, from);
            let b = self.fetch_payload_for_query(&key, to);
            fetched += 2;
            if let (Some(a), Some(b)) = (a, b) {
                report.entries[i].same_bytes = Some(a == b);
            }
        }
        sp.arg("fetched", fetched);
        Ok(report)
    }

    /// Fetch one stored payload for a deep diff: read-cache consult first,
    /// then a retried store read with CRC verification. Clean payloads are
    /// admitted into the read cache under the same content keys checkout
    /// uses, so the deep diff and checkout warm each other. `None` when
    /// nothing is stored or the blob is unreadable/corrupt.
    fn fetch_payload_for_query(&mut self, key: &CoVarKey, version: NodeId) -> Option<Vec<u8>> {
        let blob = self.graph.stored(key, version)?.blob?;
        if let Some(payload) = self
            .blob_keys
            .get(&blob)
            .copied()
            .and_then(|k| self.read_cache.get(k))
        {
            return Some(payload);
        }
        let retries = self.config.store_retries;
        let store = &self.store;
        let trace = &self.trace;
        let sealed = retry_io(trace, retries, || store.get(blob)).ok()?;
        let ck = content_key(&sealed);
        let payload = unseal_blob(&sealed)?.to_vec();
        self.read_cache.insert(ck, &payload);
        self.blob_keys.insert(blob, ck);
        // Learning a key can refine future shallow diffs — memoized
        // reports are stale even though the graph epoch did not move.
        self.diff_cache.borrow_mut().clear();
        Some(payload)
    }

    /// Modification history of variable `name` as visible from the current
    /// head: every commit on the head's ancestor chain whose cell modified
    /// or deleted a co-variable containing it, oldest first. Answered from
    /// the graph's modified-in index — O(depth + commits touching the
    /// variable).
    pub fn history(&self, name: &str) -> Vec<crate::query::HistoryEntry> {
        self.history_at(name, self.graph.head())
            .expect("head always exists")
    }

    /// [`Self::history`] scoped to the ancestor chain of `at`.
    pub fn history_at(
        &self,
        name: &str,
        at: NodeId,
    ) -> Result<Vec<crate::query::HistoryEntry>, KishuError> {
        let mut sp = self.trace.span("query.history");
        sp.arg("var", name);
        sp.arg("at", at.0);
        if !self.graph.contains(at) {
            return Err(KishuError::UnknownNode(at));
        }
        let entries = crate::query::history(&self.graph, name, at);
        sp.arg("entries", entries.len());
        Ok(entries)
    }

    /// Create or move branch `name` to `at` (the current head when
    /// `None`). Persisted with the graph snapshot: [`Self::persist`] +
    /// [`Self::resume`] restore every ref.
    pub fn set_branch(&mut self, name: &str, at: Option<NodeId>) -> Result<NodeId, KishuError> {
        let mut sp = self.trace.span("query.branch");
        sp.arg("name", name);
        let node = at.unwrap_or_else(|| self.graph.head());
        self.graph
            .set_branch(name, node)
            .map_err(KishuError::InvalidRef)?;
        Ok(node)
    }

    /// Create tag `name` at `at` (the current head when `None`). Tags
    /// refuse to move once created.
    pub fn set_tag(&mut self, name: &str, at: Option<NodeId>) -> Result<NodeId, KishuError> {
        let mut sp = self.trace.span("query.tag");
        sp.arg("name", name);
        let node = at.unwrap_or_else(|| self.graph.head());
        self.graph
            .set_tag(name, node)
            .map_err(KishuError::InvalidRef)?;
        Ok(node)
    }

    /// Delete branch `name`; errors if it does not exist.
    pub fn delete_branch(&mut self, name: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.branch");
        sp.arg("name", name);
        sp.arg("delete", true);
        if self.graph.delete_branch(name) {
            Ok(())
        } else {
            Err(KishuError::InvalidRef(format!("no such branch '{name}'")))
        }
    }

    /// Delete tag `name`; errors if it does not exist.
    pub fn delete_tag(&mut self, name: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.tag");
        sp.arg("name", name);
        sp.arg("delete", true);
        if self.graph.delete_tag(name) {
            Ok(())
        } else {
            Err(KishuError::InvalidRef(format!("no such tag '{name}'")))
        }
    }

    /// Rename branch `old` to `new`, keeping its target.
    pub fn rename_branch(&mut self, old: &str, new: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.branch");
        sp.arg("name", old);
        sp.arg("rename", new);
        self.graph
            .rename_branch(old, new)
            .map_err(KishuError::InvalidRef)
    }

    /// Rename tag `old` to `new`, keeping its target.
    pub fn rename_tag(&mut self, old: &str, new: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.tag");
        sp.arg("name", old);
        sp.arg("rename", new);
        self.graph
            .rename_tag(old, new)
            .map_err(KishuError::InvalidRef)
    }

    /// Resolve a ref name or numeric node id ([`CheckpointGraph::resolve`]).
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        self.graph.resolve(name)
    }

    /// Checkout by branch/tag name or numeric node id.
    pub fn checkout_ref(&mut self, name: &str) -> Result<CheckoutReport, KishuError> {
        let target = self
            .resolve(name)
            .ok_or_else(|| KishuError::InvalidRef(format!("cannot resolve '{name}'")))?;
        self.checkout(target)
    }

    /// Every commit on *any* branch whose cell modified or deleted a
    /// co-variable containing `name`, in commit order —
    /// [`Self::history`] without the ancestor filter. Answered straight
    /// from the modified-in postings (O(answer)); `search_bruteforce` on
    /// the graph is the whole-graph-scan oracle the tests pin it against.
    pub fn search(&self, name: &str) -> Vec<crate::query::SearchHit> {
        let mut sp = self.trace.span("query.search");
        sp.arg("var", name);
        let hits = crate::query::search(&self.graph, name);
        sp.arg("entries", hits.len());
        hits
    }

    /// Point-in-time operator snapshot: cache hit rates, dedup ratios,
    /// fault/retry counts, per-op tail latencies, and flight-recorder
    /// occupancy. Read-only and purely observational — it reports what
    /// already happened and decides nothing.
    pub fn health(&self) -> HealthReport {
        let metrics = self.trace.metrics();
        let counter = |name: &str| {
            metrics
                .counters()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| v)
        };
        let latencies = metrics
            .latencies()
            .map(|(op, w)| LatencyHealth {
                op: op.to_string(),
                count: w.total,
                p50_ns: w.p50(),
                p95_ns: w.p95(),
                p99_ns: w.p99(),
            })
            .collect();
        HealthReport {
            head: self.graph.head(),
            commits: self.graph.len(),
            cells: self.metrics.cells.len(),
            read_cache: self.read_cache.stats(),
            diff_cache_hits: self.diff_cache_hits.get(),
            diff_cache_misses: self.diff_cache_misses.get(),
            diff_cache_entries: self.diff_cache.borrow().len() as u64,
            blobs_deduped: self.metrics.total_blobs_deduped() as u64,
            blobs_dropped: self.metrics.total_blobs_dropped() as u64,
            checkpoint_bytes: self.metrics.total_checkpoint_bytes(),
            bytes_written: self.metrics.total_bytes_written(),
            store_retries: counter("store.retry"),
            barrier_failures: counter("store.barrier_failed"),
            integrity_failures: counter("integrity.failures"),
            faults_injected: counter("faults.injected"),
            latencies,
            ring: self.trace.is_enabled().then(|| self.trace.ring_stats()),
            events_dropped: self.trace.events_dropped(),
        }
    }

    /// Write a crash black box (ring tail + recent events) under
    /// `target/flightrec/` — only when the operator armed it with
    /// `KISHU_OBS_BLACKBOX` and the recorder is enabled. Best-effort:
    /// dump failures are swallowed, because observability must never turn
    /// a degraded session into a dead one.
    fn black_box(&self, reason: &str) {
        if !kishu_trace::env_switches().blackbox {
            return;
        }
        let dir = std::path::Path::new(kishu_trace::blackbox::DEFAULT_DIR);
        let _ = kishu_trace::blackbox::dump(&self.trace, dir, reason);
    }
}

/// One op family's rolling-window tail latencies in a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct LatencyHealth {
    /// Span name the window aggregates (`cell.exec`, `store.put`, ...).
    pub op: String,
    /// Samples ever observed (the window itself holds the newest 512).
    pub count: u64,
    /// Median over the window, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile over the window, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile over the window, nanoseconds.
    pub p99_ns: u64,
}

/// Operator health snapshot ([`KishuSession::health`], REPL `%health`).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current head checkpoint.
    pub head: NodeId,
    /// Nodes in the checkpoint graph (including the root).
    pub commits: usize,
    /// Cells executed this session.
    pub cells: usize,
    /// Checkout read-cache counters.
    pub read_cache: kishu_storage::CacheStats,
    /// Diff-report memo hits ([`KishuSession::diff`]).
    pub diff_cache_hits: u64,
    /// Diff-report memo misses.
    pub diff_cache_misses: u64,
    /// Diff reports currently memoized.
    pub diff_cache_entries: u64,
    /// Sealed payloads deduplicated away session-wide.
    pub blobs_deduped: u64,
    /// Co-variables whose bytes were dropped to fallback recomputation.
    pub blobs_dropped: u64,
    /// Logical serialized bytes across all cells.
    pub checkpoint_bytes: u64,
    /// Physical bytes the store reported appending.
    pub bytes_written: u64,
    /// Store operations retried after transient errors.
    pub store_retries: u64,
    /// Group-commit barriers that failed (degradations, not data loss).
    pub barrier_failures: u64,
    /// Checkout payloads that failed CRC or refused to deserialize.
    pub integrity_failures: u64,
    /// Faults injected by a [`kishu_storage::FaultStore`] underneath.
    pub faults_injected: u64,
    /// Rolling-window tail latencies per op family, registry order.
    pub latencies: Vec<LatencyHealth>,
    /// Flight-recorder ring occupancy; `None` when the recorder is off.
    pub ring: Option<kishu_trace::RingStats>,
    /// Journal events evicted by the journal's own bound.
    pub events_dropped: u64,
}

impl HealthReport {
    /// Read-cache hit rate over enabled lookups; `None` before any.
    pub fn read_cache_hit_rate(&self) -> Option<f64> {
        let total = self.read_cache.hits + self.read_cache.misses;
        (total > 0).then(|| self.read_cache.hits as f64 / total as f64)
    }

    /// Diff-memo hit rate; `None` before any diff ran.
    pub fn diff_cache_hit_rate(&self) -> Option<f64> {
        let total = self.diff_cache_hits + self.diff_cache_misses;
        (total > 0).then(|| self.diff_cache_hits as f64 / total as f64)
    }

    /// Fraction of logical checkpoint bytes that never hit the medium
    /// (session dedup + chunk dedup + compression); `None` before any
    /// checkpoint bytes.
    pub fn dedup_ratio(&self) -> Option<f64> {
        (self.checkpoint_bytes > 0)
            .then(|| 1.0 - self.bytes_written as f64 / self.checkpoint_bytes as f64)
    }

    /// Multi-line human-readable rendering (the REPL's `%health`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |r: Option<f64>| match r {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_string(),
        };
        out.push_str(&format!(
            "head t{}  commits {}  cells {}\n",
            self.head.0, self.commits, self.cells
        ));
        out.push_str(&format!(
            "read cache   hits {} misses {} evictions {}  hit rate {}\n",
            self.read_cache.hits,
            self.read_cache.misses,
            self.read_cache.evictions,
            pct(self.read_cache_hit_rate()),
        ));
        out.push_str(&format!(
            "diff cache   hits {} misses {} resident {}  hit rate {}\n",
            self.diff_cache_hits,
            self.diff_cache_misses,
            self.diff_cache_entries,
            pct(self.diff_cache_hit_rate()),
        ));
        out.push_str(&format!(
            "dedup        blobs {}  bytes {} of {} written  saved {}\n",
            self.blobs_deduped,
            self.bytes_written,
            self.checkpoint_bytes,
            pct(self.dedup_ratio()),
        ));
        out.push_str(&format!(
            "degradations retries {}  barrier failures {}  integrity {}  faults {}  blobs dropped {}\n",
            self.store_retries,
            self.barrier_failures,
            self.integrity_failures,
            self.faults_injected,
            self.blobs_dropped,
        ));
        match &self.ring {
            Some(ring) => out.push_str(&format!(
                "recorder     spans {} retained {} dropped {}  ring {:.1}% of {} bytes  events dropped {}\n",
                ring.recorded,
                ring.retained,
                ring.dropped,
                ring.occupancy() * 100.0,
                ring.cap_bytes,
                self.events_dropped,
            )),
            None => out.push_str("recorder     off (set KISHU_TRACE=1)\n"),
        }
        if !self.latencies.is_empty() {
            out.push_str("latency (ns)          count       p50       p95       p99\n");
            for l in &self.latencies {
                out.push_str(&format!(
                    "  {:<18} {:>7} {:>9} {:>9} {:>9}\n",
                    l.op, l.count, l.p50_ns, l.p95_ns, l.p99_ns
                ));
            }
        }
        out
    }
}

/// Maximum recursion depth for fallback recomputation chains (a chain as
/// long as the notebook itself is legitimate in replay-heavy sessions).
const MAX_FALLBACK_DEPTH: usize = 512;

/// Tag prefix of persisted Checkpoint Graph blobs in the store.
const GRAPH_BLOB_MAGIC: &[u8; 4] = b"KGRF";

/// Frame a session blob as `crc32(payload) (4 bytes LE) || payload`.
///
/// Storage backends may checksum their own records (FileStore does), but
/// the session cannot rely on it: the store interface is pluggable, and
/// corruption can also happen after the backend's check (in transit, in a
/// cache, in a buggy decorator). The end-to-end CRC means a damaged blob is
/// always detected at read time and routed to fallback recomputation
/// instead of silently deserializing into wrong state.
fn seal_blob(payload: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(4 + payload.len());
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob.extend_from_slice(payload);
    blob
}

/// Verify and strip [`seal_blob`]'s framing; `None` if the blob is damaged.
fn unseal_blob(blob: &[u8]) -> Option<&[u8]> {
    if blob.len() < 4 {
        return None;
    }
    let crc = u32::from_le_bytes([blob[0], blob[1], blob[2], blob[3]]);
    let payload = &blob[4..];
    (crc32(payload) == crc).then_some(payload)
}

/// How one co-variable was materialized during a checkout. Memoized
/// alongside the bindings so diamond dependencies re-report the original
/// outcome instead of defaulting to "recomputed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Materialized {
    Loaded {
        /// Payload size actually decoded (counts toward `bytes_loaded`).
        bytes: u64,
        /// Whether the payload came from the read cache.
        cached: bool,
    },
    Recomputed,
}

/// A plan blob after the fetch+verify phases, waiting for the apply phase.
enum Prefetched {
    /// CRC-verified payload, decode charge already paid (or skipped as a
    /// cache hit).
    Ready {
        payload: Vec<u8>,
        /// Served from the read cache (no store read happened).
        cached: bool,
        /// Content key + blob id to admit into the cache after a clean
        /// decode; `None` for cache hits (already resident).
        cache_key: Option<(ContentKey, BlobId)>,
    },
    /// Unreadable after retries, or failed the end-to-end CRC.
    Failed,
}

/// Per-checkout restoration state: memoized materializations, the current
/// recursion path for real-cycle detection, the pipeline's prefetched
/// payloads, and the count of store reads that failed and were swallowed by
/// falling back to recomputation.
#[derive(Default)]
struct RestoreCtx {
    memo: std::collections::BTreeMap<(Vec<String>, NodeId), (Vec<(String, ObjId)>, Materialized)>,
    in_progress: BTreeSet<(Vec<String>, NodeId)>,
    prefetched: std::collections::BTreeMap<(Vec<String>, NodeId), Prefetched>,
    integrity_failures: usize,
    /// Wall nanoseconds of the pipeline's fetch phase (the `checkout.fetch`
    /// span), carried out to [`CheckoutReport::fetch_ns`].
    fetch_ns: u64,
    /// Wall nanoseconds of the pooled verify phase (`checkout.verify`).
    verify_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariable::key;
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
        run(&mut s, "x = list(range(50))\n");
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

        // Metrics mirrored the same events the reports count: every sealed
        // payload handed to `put_sealed` landed in the size histogram.
        let m = trace.metrics();
        let h = m.histogram("blob.bytes").expect("blob.bytes histogram");
        assert!(h.count >= 2, "one put per diverged cell, got {}", h.count);
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

    #[test]
    fn unregistered_external_class_is_a_counted_anomaly() {
        let mut config = KishuConfig::default();
        config.blocklist.insert("wordcloud.WordCloud".to_string());
        let mut s = KishuSession::in_memory(config);
        let bogus = s.interp.heap.alloc(kishu_kernel::ObjKind::External {
            class: kishu_kernel::ClassId(u16::MAX),
            attrs: Vec::new(),
            payload: vec![0u8; 8],
            epoch: 0,
        });
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
        let mut config = KishuConfig::default();
        config.checkout_cache_bytes = 0;
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

    #[test]
    fn persist_retries_land_in_the_session_trace() {
        use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore};
        // Nothing to flush on a fresh session: put #0 is the graph snapshot.
        let plan = FaultPlan::none().schedule(FaultOp::Put, 0, FaultKind::Transient);
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        let trace = Trace::enabled();
        s.set_trace(&trace);
        s.persist().expect("retry absorbs the transient fault");
        let retries: Vec<_> = trace.events().into_iter().filter(|e| e.kind == "retry").collect();
        assert_eq!(retries.len(), 1, "the snapshot put's retry is the session's event");
        assert_eq!(trace.metrics().counter_value("store.retry"), Some(1));
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
        let mut config = KishuConfig::default();
        config.defer_serialization = true;
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
        // Ref mutations invalidate too.
        s.diff(t1, t2).expect("warm again");
        s.set_branch("b", None).expect("branch");
        s.diff(t1, t2).expect("diff after ref mutation");
        let h = s.health();
        assert_eq!((h.diff_cache_hits, h.diff_cache_misses), (2, 3));
        // A checkout teaches the session blob content keys (shallow
        // refinement input), so memoized reports are dropped even though
        // the epoch is unchanged.
        s.checkout(t1).expect("checkout");
        s.diff(t1, t2).expect("diff after checkout");
        assert_eq!(s.health().diff_cache_misses, 4, "blob_keys invalidated");
    }

    #[test]
    fn health_snapshot_reports_caches_dedup_and_recorder_state() {
        let trace = kishu_trace::Trace::with_obs(kishu_trace::ObsConfig::default());
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
        assert!(!h.latencies.is_empty(), "span flush fed latency windows");
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
