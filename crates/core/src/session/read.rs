//! The checkout read pipeline (§5.2–5.3): incremental checkout, the one
//! blob fetch every read path shares, materialization, and fallback
//! recomputation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use kishu_kernel::{simcost, ObjId};
use kishu_pickle::loads_precharged;
use kishu_storage::BlobId;
use kishu_trace::Trace;

use super::{retry_io, unseal_blob, CheckoutReport, KishuSession};
use crate::covariable::CoVarKey;
use crate::error::KishuError;
use crate::graph::NodeId;

/// Maximum recursion depth for fallback recomputation chains (a chain as
/// long as the notebook itself is legitimate in replay-heavy sessions).
const MAX_FALLBACK_DEPTH: usize = 512;

/// A versioned co-variable, as one checkout's memo keys it.
type MemoKey = (Vec<String>, NodeId);

/// The name → object bindings one materialization produced.
type Bindings = Vec<(String, ObjId)>;

impl KishuSession {
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
    /// 2. **Verify (worker pool)** — end-to-end CRC checks, the one copy of
    ///    each payload out of its sealed read buffer, and the simulated
    ///    decode charge fan out over
    ///    [`KishuConfig::restore_workers`](super::KishuConfig::restore_workers)
    ///    threads, so cold-load sleeps overlap across blobs. Cache hits
    ///    have no such work and resolve inline;
    /// 3. **Apply (session thread, plan order)** — deserialization into the
    ///    live heap, namespace binding, and fallback recomputation run
    ///    sequentially, consuming the verified payloads in plan order.
    pub fn checkout(&mut self, target: NodeId) -> Result<CheckoutReport, KishuError> {
        self.checkout_with(target, false)
    }

    /// [`Self::checkout`]; `into_fresh_heap` says the kernel is fresh and
    /// the head is the root, as in [`Self::resume`].
    pub(super) fn checkout_with(
        &mut self,
        target: NodeId,
        into_fresh_heap: bool,
    ) -> Result<CheckoutReport, KishuError> {
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
        // Replaced co-variables are garbage now. A session that only
        // checks out (undo/redo, branch switching) runs no cell to collect
        // them, so the checkout checks the collection rule itself, inside
        // its span. A checkout that only loaded into a fresh heap replaced
        // nothing: everything in it is live, so it marks the heap instead
        // of sweeping it. A recomputation ran cells, which leave garbage.
        if into_fresh_heap && recomputed.is_empty() {
            self.mark_heap_live();
        } else {
            self.collect_if_due();
        }

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

    /// Phases 1+2 of the checkout read pipeline: fetch every planned blob
    /// on the session thread in plan order, then run the verify jobs of
    /// the blobs read from the store on the pool. Cache hits (a shared
    /// handle, nothing to check or copy) and failed reads resolve inline,
    /// so a checkout served wholly from the cache starts no thread.
    /// Outcomes land in `ctx.prefetched`, keyed like the memo, for
    /// [`Self::materialize_uncached`] to consume in apply order.
    ///
    /// Failures are *recorded*, not counted: a prefetched blob that was
    /// unreadable or corrupt only becomes an integrity failure when the
    /// apply phase actually consumes it (a memoized materialization from an
    /// earlier plan entry's recursion may supersede it first — exactly as
    /// the serial path behaves).
    fn prefetch_plan_blobs(&mut self, load: &[(CoVarKey, NodeId)], ctx: &mut RestoreCtx) {
        let fetch_sp = self.trace.span("checkout.fetch");
        let mut keys = Vec::new();
        let mut fetched = Vec::new();
        for (key, version) in load {
            let Some(blob) = self.graph.stored(key, *version).and_then(|sc| sc.blob) else {
                continue;
            };
            keys.push((key.iter().cloned().collect(), *version));
            fetched.push(self.fetch_blob(blob));
        }
        ctx.fetch_ns = fetch_sp.end();
        // Results return in job order: identical at every worker count.
        // The sealed buffers stay in `fetched`, freed after the verify span
        // closes, so `verify_ns` times the verify jobs alone.
        let verify_sp = self.trace.span("checkout.verify");
        let parent = verify_sp.id();
        let trace = &self.trace;
        let jobs: Vec<_> = fetched
            .iter()
            .filter(|f| matches!(f, Fetched::Sealed { .. }))
            .map(|f| move || trace.worker_scope(parent, || f.verify(trace, true)))
            .collect();
        let mut pooled =
            kishu_testkit::pool::run(self.config.restore_workers.max(1), jobs).into_iter();
        let verified: Vec<_> = fetched
            .iter()
            .map(|f| match f {
                Fetched::Sealed { .. } => pooled.next().expect("one result per sealed blob"),
                _ => f.verify(trace, true),
            })
            .collect();
        ctx.verify_ns = verify_sp.end();
        ctx.prefetched.extend(keys.into_iter().zip(verified));
    }

    /// The one blob fetch, shared by checkout, fallback recomputation and
    /// deep diffs: a read-cache consult, then a retried store read, under
    /// a `store.get` span on the session thread.
    pub(super) fn fetch_blob(&mut self, blob: BlobId) -> Fetched {
        let mut sp = self.trace.span("store.get");
        sp.arg("blob", blob);
        if let Some(payload) = self.read_cache.get(blob) {
            sp.arg("cached", true);
            return Fetched::Cached(payload);
        }
        let (retries, retried) = (self.config.store_retries, &mut self.metrics.store_retries);
        match retry_io(retries, retried, || self.store.get(blob)) {
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

    /// Admit a verified payload into the read cache under the blob it was
    /// read from, moving its handle in; a no-op for cache hits
    /// (`cache_key: None`).
    pub(super) fn admit(&mut self, payload: Arc<[u8]>, cache_key: Option<BlobId>) {
        if let Some(blob) = cache_key {
            self.read_cache.insert(blob, payload);
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
    ) -> Result<(Bindings, Materialized), KishuError> {
        let memo_key: MemoKey = (key.iter().cloned().collect(), version);
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
    ) -> Result<(Bindings, Materialized), KishuError> {
        // Plan entries were fetched and verified by the pipeline; recursive
        // dependencies of fallback recomputation were not, and fetch and
        // verify inline here, paying the same decode charge on the session
        // thread. Either way the CRC already ran before the deserializer
        // sees any bytes — damaged payloads must never reach it, where a
        // lucky flip could still parse into wrong state. `None` means
        // nothing is stored for this version.
        let memo_key: MemoKey = (key.iter().cloned().collect(), version);
        let outcome = ctx.prefetched.remove(&memo_key).or_else(|| {
            let blob = self.graph.stored(key, version)?.blob?;
            Some(self.fetch_blob(blob).verify(&self.trace, true))
        });
        match outcome {
            Some(Verified::Ready { payload, cache_key }) => {
                // The decode charge was already paid — on a worker (plan
                // entries), inline (recursive fetches), or skipped as a
                // cache hit — so decode without re-charging.
                match loads_precharged(&mut self.interp.heap, &payload, &self.reducer) {
                    Ok(roots) if roots.len() == key.len() => {
                        let loaded = Materialized::Loaded {
                            bytes: payload.len() as u64,
                            cached: cache_key.is_none(),
                        };
                        // Only payloads that decoded cleanly are admitted:
                        // the cache must never launder a
                        // CRC-clean-but-undecodable blob into a "hit".
                        self.admit(payload, cache_key);
                        let bindings = key.iter().cloned().zip(roots).collect();
                        return Ok((bindings, loaded));
                    }
                    // Deserialization failure (CRC-clean but incompatible
                    // bytes): count it and fall through to recomputation.
                    _ => {
                        ctx.integrity_failures += 1;
                        self.metrics.integrity_failures += 1;
                    }
                }
            }
            // Unreadable after retries, or failed the CRC: count and fall
            // back. Counted here at consumption time — not at prefetch — so
            // a plan entry already satisfied by an earlier entry's
            // recursion never counts a failure it didn't consume.
            Some(Verified::Failed) => {
                ctx.integrity_failures += 1;
                self.metrics.integrity_failures += 1;
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
    ) -> Result<Bindings, KishuError> {
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
        let mut bindings: Bindings = Vec::new();
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

/// One blob read by [`KishuSession::fetch_blob`].
pub(super) enum Fetched {
    /// Verified payload straight from the read cache: a handle shared
    /// with the cache, not a copy.
    Cached(Arc<[u8]>),
    /// Sealed bytes from the store, pending the verify job.
    Sealed { blob: BlobId, sealed: Vec<u8> },
    /// Unreadable even after retries.
    Failed,
}

impl Fetched {
    /// The verify job: CRC, the payload's one copy out of the sealed read
    /// buffer and — with `charge`, for payloads about to be deserialized —
    /// the simulated decode charge, under a `checkout.decode` span. Cache
    /// hits (another handle to the cached payload) and failures carry no
    /// work; sealed bytes stay for the caller to free.
    pub(super) fn verify(&self, trace: &Trace, charge: bool) -> Verified {
        let (blob, sealed) = match self {
            Fetched::Cached(payload) => {
                return Verified::Ready { payload: Arc::clone(payload), cache_key: None }
            }
            Fetched::Sealed { blob, sealed } => (*blob, sealed.as_slice()),
            Fetched::Failed => return Verified::Failed,
        };
        let mut sp = trace.span("checkout.decode");
        sp.arg("blob", blob);
        sp.arg("bytes", sealed.len());
        let Some(payload) = unseal_blob(sealed) else { return Verified::Failed };
        if charge {
            simcost::charge_bytes(payload.len() as u64, simcost::PICKLE_BPS);
        }
        Verified::Ready { payload: Arc::from(payload), cache_key: Some(blob) }
    }
}

/// A fetched blob after its verify job.
pub(super) enum Verified {
    /// CRC-verified payload, decode charge already paid (or skipped): the
    /// handle [`KishuSession::admit`] moves into the read cache.
    Ready {
        payload: Arc<[u8]>,
        /// The blob to [`KishuSession::admit`] the payload under once it
        /// is accepted; `None` for cache hits (already resident).
        cache_key: Option<BlobId>,
    },
    /// Unreadable after retries, or failed the end-to-end CRC.
    Failed,
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

/// Per-checkout restoration state: memoized materializations, the current
/// recursion path for real-cycle detection, the pipeline's prefetched
/// payloads, and the count of store reads that failed and were swallowed by
/// falling back to recomputation.
#[derive(Default)]
struct RestoreCtx {
    memo: BTreeMap<MemoKey, (Bindings, Materialized)>,
    in_progress: BTreeSet<MemoKey>,
    prefetched: BTreeMap<MemoKey, Verified>,
    integrity_failures: usize,
    /// Wall nanoseconds of the pipeline's fetch phase (the `checkout.fetch`
    /// span), carried out to [`CheckoutReport::fetch_ns`].
    fetch_ns: u64,
    /// Wall nanoseconds of the pooled verify phase (`checkout.verify`).
    verify_ns: u64,
}
