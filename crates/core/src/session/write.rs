//! The checkpoint write pipeline (§5.1): run a cell, detect its state
//! delta, and write the changed co-variables — at once, or deferred into
//! think time and flushed later through the same write loop.

use std::io;
use std::time::Duration;

use kishu_kernel::{ObjId, ObjKind};
use kishu_minipy::RunError;
use kishu_storage::{content_key, PutReceipt};

use super::{dump_sealed, retry_io, CellMetrics, CellReport, KishuSession, SEAL_LEN};
use crate::covariable::CoVarKey;
use crate::graph::{NodeId, StoredCoVar};

/// Result of the serialize+seal phase: per co-variable, the sealed bytes
/// plus the payload's byte length (`None` = unserializable), and then the
/// phase's wall time in nanoseconds.
type SealedBatch = (Vec<Option<(Vec<u8>, u64)>>, u64);

/// One co-variable [`KishuSession::write_batch`] stored: the put's
/// receipt, whether dedup absorbed it, and its logical (serialized) size.
struct Put {
    receipt: PutReceipt,
    deduped: bool,
    bytes: u64,
}

/// Who writes a batch: a cell, whose writes have a `ckpt.write` span, or
/// a think-time flush, timed whole by its caller's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    Cell,
    Flush,
}

impl KishuSession {
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
        // The `cell.track` span is the tracking stopwatch, the rule-based
        // path's read-only parse included: its `end()` supplies
        // `tracking_time`.
        let track_sp = self.trace.span("cell.track");
        let delta = if self.config.rule_based_cells && self.cell_provably_read_only(src) {
            // Rule-based fast path (§6.2 extension): the cell cannot have
            // changed the state, so skip VarGraph verification entirely and
            // record only the dependencies the patched namespace observed.
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
            }
        } else {
            self.detector
                .on_cell(&self.interp.heap, &self.interp.globals, &outcome.access)
        };
        let tracking_time = Duration::from_nanos(track_sp.end());

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
            // queue for the write loop, remembering their `stored` slot.
            let mut to_dump: Vec<(CoVarKey, Vec<ObjId>)> = Vec::new();
            let mut dump_slots: Vec<usize> = Vec::new();
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
                    continue;
                }
                if self.config.defer_serialization {
                    deferred.push(key.clone());
                } else {
                    dump_slots.push(stored.len() - 1);
                    to_dump.push((key.clone(), roots));
                }
            }
            classify_sp.end();
            // Phases 2-3 (serialize + seal on the pool, then write).
            let (puts, ser_ns, w_ns) = self.write_batch(&to_dump, Writer::Cell);
            (serialize_ns, write_ns) = (ser_ns, w_ns);
            for (slot, put) in dump_slots.into_iter().zip(puts) {
                let Some(put) = put else {
                    blobs_dropped += 1;
                    continue;
                };
                checkpoint_bytes += put.bytes;
                if put.deduped {
                    blobs_deduped += 1;
                } else {
                    bytes_written += put.receipt.bytes_written;
                    chunks_written += put.receipt.chunks_written;
                    chunks_deduped += put.receipt.chunks_deduped;
                    bytes_compressed += put.receipt.bytes_compressed;
                }
                stored[slot].blob = Some(put.receipt.id);
                stored[slot].bytes = put.bytes;
            }
            let node = self
                .graph
                .commit(src.to_string(), stored, delta.deleted.clone(), deps);
            committed = Some(node);
            for key in deferred {
                self.pending.push((node, key));
            }
        }
        let ckpt_wall_ns = ckpt_sp.end();
        let checkpoint_time = Duration::from_nanos(ckpt_wall_ns);

        self.collect_if_due();

        self.metrics.cells.push(CellMetrics {
            node: committed,
            cell_time: outcome.wall_time,
            tracking_time,
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
            tracking_time,
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
    pub(super) fn flush_pending_inner(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let mut batch: Vec<(CoVarKey, Vec<ObjId>)> = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for (node, key) in std::mem::take(&mut self.pending) {
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
        let (puts, _, _) = self.write_batch(&batch, Writer::Flush);
        let mut flushed = 0;
        for (((key, _), node), put) in batch.iter().zip(nodes).zip(puts) {
            if let Some(put) = put {
                self.graph.set_stored(node, key, put.receipt.id, put.bytes);
                flushed += 1;
                continue;
            }
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
    /// [`SessionMetrics::blocklist_anomalies`](super::SessionMetrics::blocklist_anomalies).
    pub(super) fn is_blocklisted(&mut self, roots: &[ObjId]) -> bool {
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
                if let ObjKind::External(ext) = self.interp.heap.kind(*id) {
                    match self.registry.get(ext.class) {
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

    /// Phases 2-3 of the write pipeline, for a cell and a flush alike: dump
    /// `batch` on the pool, write it in batch order on the session thread
    /// (so blob ids, store bytes and fault ledgers are identical at every
    /// worker count), then run the group-commit barrier. Returns one result
    /// per co-variable — `None` when it was dropped (unserializable, §5.1,
    /// or the store failed after retries; checkout recomputes it) — and the
    /// serialize and write nanoseconds (0 for a flush's writes).
    fn write_batch(
        &mut self,
        batch: &[(CoVarKey, Vec<ObjId>)],
        writer: Writer,
    ) -> (Vec<Option<Put>>, u64, u64) {
        let (dumped, serialize_ns) = self.dump_sealed_batch(batch);
        let write_sp = (writer == Writer::Cell).then(|| self.trace.span("ckpt.write"));
        // By reference: the sealed buffers are freed after the write span
        // closes, so `write_ns` times the writes and the barrier alone.
        let puts = dumped
            .iter()
            .map(|dump| {
                let (sealed, bytes) = dump.as_ref()?;
                let (receipt, deduped) = self.put_sealed(sealed).ok()?;
                Some(Put { receipt, deduped, bytes: *bytes })
            })
            .collect();
        self.barrier();
        (puts, serialize_ns, write_sp.map_or(0, |sp| sp.end()))
    }

    /// Group-commit barrier after a batch: its puts may sit in a store-side
    /// buffer, and must be reopenable before a cell's node commits or a
    /// flush returns (flushed blobs back already-committed nodes). A failed
    /// barrier is not a data-loss event by itself (the blobs are unordered,
    /// not gone), so it degrades like any store hiccup: count it where
    /// [`KishuSession::health`] reads it and keep the session alive.
    fn barrier(&mut self) {
        if self.store.flush_barrier().is_err() {
            self.metrics.barrier_failures += 1;
        }
    }

    /// Serialize and seal a batch of co-variables ([`SealedBatch`]),
    /// fanning the work out over
    /// [`KishuConfig::checkpoint_workers`](super::KishuConfig::checkpoint_workers) threads. Results come back
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
                        let sealed = dump_sealed(heap, roots, reducer).ok()?;
                        let len = (sealed.len() - SEAL_LEN) as u64;
                        sp.arg("bytes", len);
                        Some((sealed, len))
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
        let key = self.config.dedup_blobs.then(|| content_key(sealed));
        if let Some(key) = key {
            if let Some(id) = self.blob_index.lookup(key) {
                sp.arg("dedup", true);
                sp.arg("blob", id);
                // A session-level dedup hit writes nothing: the receipt is
                // all-zero physical attribution, not the opaque default.
                return Ok((PutReceipt { id, ..PutReceipt::default() }, true));
            }
        }
        let (retries, retried) = (self.config.store_retries, &mut self.metrics.store_retries);
        let receipt = retry_io(retries, retried, || self.store.put_with_receipt(sealed))?;
        sp.arg("blob", receipt.id);
        if let Some(key) = key {
            self.blob_index.record(key, receipt.id);
        }
        Ok((receipt, false))
    }
}
