//! Deterministic fault injection for checkpoint stores.
//!
//! [`FaultStore`] decorates any [`CheckpointStore`] and, driven by a seeded
//! [`kishu_testkit::rng::Rng`] and a [`FaultPlan`], injects the failure
//! modes a real storage backend exhibits under duress:
//!
//! * **transient I/O errors** (`ErrorKind::Interrupted`) on `put`/`get`/
//!   `sync` — a retry may succeed;
//! * **permanent I/O errors** (`ErrorKind::Other`) — for `get`, the blob is
//!   marked dead and every later read of it fails too;
//! * **payload bit-flips** on `get` — the caller receives bytes with one
//!   bit flipped, exercising its integrity checking / fallback paths;
//! * **short writes** on `put` — only a prefix of the payload reaches the
//!   inner store before the simulated tear, and the caller sees an error;
//! * **fsync lies** on `sync` — success is reported without the inner
//!   store ever being synced (the classic lying-disk failure).
//!
//! Every probabilistic decision is a **pure function of `(seed, op kind,
//! operation key, per-key attempt counter)`** — for `put` the key is
//! the XXH64 of the payload, for `get` the blob id, for `sync` a constant.
//! No shared RNG stream is consumed in operation order, so the same plan
//! injects the same faults *regardless of how concurrent callers interleave
//! their operations*: the parallel checkpoint pipeline and the serial
//! oracle see identical fault sequences, and a failing run replays exactly
//! from its seed. (Scheduled one-shot faults remain pinned to per-op
//! invocation indices; they are only deterministic while operations issue
//! in a deterministic order, which the session's single writer guarantees.)
//! Each injected fault is appended to a [`FaultLedger`] so tests can assert
//! both that faults actually fired and that the layers above degraded
//! gracefully (§5.3's fallback recomputation) instead of corrupting state.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, Mutex};

use kishu_testkit::hash::xxh64;
use kishu_testkit::json::Json;
use kishu_testkit::rng::splitmix64;
use kishu_trace::Trace;

use crate::{BlobId, CheckpointStore, StoreStats};

/// Which store operation a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOp {
    /// [`CheckpointStore::put`]
    Put,
    /// [`CheckpointStore::get`]
    Get,
    /// [`CheckpointStore::sync`]
    Sync,
}

/// The failure mode injected by one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Retryable I/O error (`ErrorKind::Interrupted`); the inner store is
    /// untouched.
    Transient,
    /// Non-retryable I/O error (`ErrorKind::Other`). On `get`, the blob is
    /// marked dead: all later reads of the same id fail too.
    Permanent,
    /// One random payload bit flipped in the bytes returned by `get`.
    BitFlip,
    /// `put` writes only a random proper prefix to the inner store, then
    /// errors — the torn-write shape a crash mid-append produces.
    ShortWrite,
    /// `sync` reports success without syncing the inner store.
    FsyncLie,
}

/// A one-shot fault scheduled at a specific operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Operation the fault fires on.
    pub op: FaultOp,
    /// Fires on the `at`-th invocation of `op` (0-based, counted per op).
    pub at: u64,
    /// Failure mode to inject.
    pub kind: FaultKind,
}

/// Per-operation fault probabilities plus scheduled one-shot faults.
///
/// Probabilities are evaluated independently per call in a fixed order
/// (transient first, then the op-specific corruption mode); a scheduled
/// fault at the call's index takes precedence over both.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability of a transient error on `put`.
    pub put_transient_p: f64,
    /// Probability of a transient error on `get`.
    pub get_transient_p: f64,
    /// Probability of a transient error on `sync`.
    pub sync_transient_p: f64,
    /// Probability of a short write on `put` (after the transient check).
    pub short_write_p: f64,
    /// Probability of a payload bit-flip on `get` (after the transient
    /// check; applied to the successfully read bytes).
    pub bit_flip_p: f64,
    /// Probability `sync` lies (after the transient check).
    pub fsync_lie_p: f64,
    /// One-shot faults pinned to operation indices.
    pub scheduled: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Plan with no faults at all (the wrapper becomes a pure pass-through
    /// that still counts operations).
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan injecting transient errors on `put`/`get`/`sync`, each with
    /// probability `p`, and nothing else.
    pub fn transient(p: f64) -> Self {
        FaultPlan {
            put_transient_p: p,
            get_transient_p: p,
            sync_transient_p: p,
            ..Self::default()
        }
    }

    /// Builder: add a scheduled one-shot fault.
    pub fn schedule(mut self, op: FaultOp, at: u64, kind: FaultKind) -> Self {
        self.scheduled.push(ScheduledFault { op, at, kind });
        self
    }
}

/// One injected fault, as recorded in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Operation the fault fired on.
    pub op: FaultOp,
    /// Failure mode injected.
    pub kind: FaultKind,
    /// Per-op invocation index (0-based) at which it fired.
    pub op_index: u64,
    /// Blob involved, when the op names one (`get`, and `put`'s assigned id
    /// for short writes that reached the inner store).
    pub blob: Option<BlobId>,
    /// The operation key the decision was drawn against (payload XXH64 for
    /// `put`, blob id for `get`, 0 for `sync`) — with `attempt`, enough to
    /// replay the exact `keyed_draw` without a debugger.
    pub key: u64,
    /// Per-`(op, key)` attempt number (0-based) the draw used.
    pub attempt: u64,
}

impl InjectedFault {
    /// JSON form of the ledger entry (keys rendered as hex so the full
    /// `u64` key space survives JSON's i64 integers).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("op", Json::Str(format!("{:?}", self.op))),
            ("kind", Json::Str(format!("{:?}", self.kind))),
            ("op_index", Json::Int(self.op_index as i64)),
            ("key", Json::Str(format!("{:#018x}", self.key))),
            ("attempt", Json::Int(self.attempt as i64)),
            (
                "blob",
                match self.blob {
                    Some(b) => Json::Int(b as i64),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Record of every fault injected plus how many operations ran, for test
/// assertions ("faults actually fired", "N of M gets were corrupted",
/// "the parallel pipeline's ledger is identical to the serial oracle's").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Every injected fault, in injection order.
    pub injected: Vec<InjectedFault>,
    /// Total `put` calls observed (faulted or not).
    pub puts: u64,
    /// Total `get` calls observed.
    pub gets: u64,
    /// Total `sync` calls observed.
    pub syncs: u64,
}

impl FaultLedger {
    /// Number of injected faults of `kind`.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.injected.iter().filter(|f| f.kind == kind).count()
    }

    /// Total injected faults.
    pub fn total(&self) -> usize {
        self.injected.len()
    }

    /// JSON snapshot: operation counts plus every entry via
    /// [`InjectedFault::to_json`].
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("puts", Json::Int(self.puts as i64)),
            ("gets", Json::Int(self.gets as i64)),
            ("syncs", Json::Int(self.syncs as i64)),
            (
                "injected",
                Json::Array(self.injected.iter().map(InjectedFault::to_json).collect()),
            ),
        ])
    }
}

/// Mutable wrapper state behind one lock: `get` takes `&self`, so the
/// ledger and counters need interior mutability (Mutex to match the store's
/// Send posture rather than RefCell).
#[derive(Debug)]
struct FaultState {
    /// The ledger; its `puts`/`gets`/`syncs` counts are also the per-op
    /// invocation indices scheduled one-shot faults fire against.
    ledger: FaultLedger,
    /// Per-`(op, key)` attempt counters: the `attempt` input of the keyed
    /// fault decision, so a retry of the same operation (same payload, same
    /// blob) draws fresh randomness while staying interleaving-independent.
    attempts: BTreeMap<(FaultOp, u64), u64>,
    /// Blobs hit by a permanent `get` fault: dead forever.
    dead_blobs: BTreeSet<BlobId>,
    /// Ops permanently failed (permanent `put`/`sync` fault).
    dead_ops: BTreeSet<FaultOp>,
    /// Set by a fsync lie; cleared by the next real sync. Exposed so crash
    /// simulations know whether "durable" data actually was.
    sync_lied: bool,
}

/// A [`CheckpointStore`] decorator injecting deterministic faults per a
/// [`FaultPlan`]. See the module docs for the failure-mode catalogue.
pub struct FaultStore {
    inner: Box<dyn CheckpointStore>,
    plan: FaultPlan,
    seed: u64,
    state: Arc<Mutex<FaultState>>,
    /// Observability only: spans annotate each op's key/attempt and, when a
    /// fault fires, its kind and ledger index. Never consulted for any
    /// decision (the keyed draws above are the whole decision procedure),
    /// so attaching a trace cannot change behavior.
    trace: Trace,
}

/// Cloneable handle onto a [`FaultStore`]'s ledger, for observing injected
/// faults after the store has been boxed away into a session
/// (`KishuSession::new` takes ownership of its `Box<dyn CheckpointStore>`).
#[derive(Clone)]
pub struct FaultLedgerHandle(Arc<Mutex<FaultState>>);

impl FaultLedgerHandle {
    /// Snapshot of the ledger as of now.
    pub fn snapshot(&self) -> FaultLedger {
        self.0.lock().expect("fault state poisoned").ledger.clone()
    }

    /// Total faults injected so far.
    pub fn total(&self) -> usize {
        self.0.lock().expect("fault state poisoned").ledger.total()
    }
}

impl std::fmt::Debug for FaultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("fault state poisoned");
        f.debug_struct("FaultStore")
            .field("plan", &self.plan)
            .field("injected", &st.ledger.total())
            .finish()
    }
}

impl FaultStore {
    /// Wrap `inner`, injecting faults per `plan`, with every random
    /// decision derived from `seed`.
    pub fn new(inner: Box<dyn CheckpointStore>, plan: FaultPlan, seed: u64) -> Self {
        FaultStore {
            inner,
            plan,
            seed,
            state: Arc::new(Mutex::new(FaultState {
                ledger: FaultLedger::default(),
                attempts: BTreeMap::new(),
                dead_blobs: BTreeSet::new(),
                dead_ops: BTreeSet::new(),
                sync_lied: false,
            })),
            trace: Trace::disabled(),
        }
    }

    /// Snapshot of the injected-fault ledger.
    pub fn ledger(&self) -> FaultLedger {
        self.state.lock().expect("fault state poisoned").ledger.clone()
    }

    /// A cloneable handle onto the ledger that stays valid after this store
    /// is boxed into a session.
    pub fn ledger_handle(&self) -> FaultLedgerHandle {
        FaultLedgerHandle(Arc::clone(&self.state))
    }

    /// Whether a fsync lie has swallowed a `sync` since the last real one.
    pub fn sync_lied(&self) -> bool {
        self.state.lock().expect("fault state poisoned").sync_lied
    }

    /// The wrapped store (e.g. to inspect true stats underneath the faults).
    pub fn inner(&self) -> &dyn CheckpointStore {
        self.inner.as_ref()
    }

    /// The scheduled fault for this `(op, index)`, if any.
    fn scheduled(&self, op: FaultOp, index: u64) -> Option<FaultKind> {
        self.plan
            .scheduled
            .iter()
            .find(|s| s.op == op && s.at == index)
            .map(|s| s.kind)
    }

    /// Take this call's per-op index and fault decision. Probabilistic
    /// draws are a pure function of `(seed, op, key, attempt)` — see
    /// [`keyed_draw`] — so they are independent of operation interleaving.
    /// A scheduled fault beats the probabilistic draws; a permanently
    /// failed op/blob beats both.
    fn decide(&self, op: FaultOp, key: u64) -> Decision {
        let mut st = self.state.lock().expect("fault state poisoned");
        let counter = match op {
            FaultOp::Put => &mut st.ledger.puts,
            FaultOp::Get => &mut st.ledger.gets,
            FaultOp::Sync => &mut st.ledger.syncs,
        };
        let index = *counter;
        *counter += 1;
        let (dead, transient_p, corrupt_p, corrupt_kind) = match op {
            FaultOp::Put => (
                st.dead_ops.contains(&FaultOp::Put),
                self.plan.put_transient_p,
                self.plan.short_write_p,
                FaultKind::ShortWrite,
            ),
            FaultOp::Get => (
                st.dead_blobs.contains(&key),
                self.plan.get_transient_p,
                self.plan.bit_flip_p,
                FaultKind::BitFlip,
            ),
            FaultOp::Sync => (
                st.dead_ops.contains(&FaultOp::Sync),
                self.plan.sync_transient_p,
                self.plan.fsync_lie_p,
                FaultKind::FsyncLie,
            ),
        };
        let attempt = {
            let counter = st.attempts.entry((op, key)).or_insert(0);
            let a = *counter;
            *counter += 1;
            a
        };
        let kind = if dead {
            Some(FaultKind::Permanent)
        } else if let Some(k) = self.scheduled(op, index) {
            Some(k)
        } else if unit(keyed_draw(self.seed, op, key, attempt, Lane::Transient)) < transient_p {
            Some(FaultKind::Transient)
        } else if unit(keyed_draw(self.seed, op, key, attempt, Lane::Corrupt)) < corrupt_p {
            Some(corrupt_kind)
        } else {
            None
        };
        // Positional entropy for bit-flips / short-write cuts, from its own
        // lane so it never perturbs the fire/don't-fire decisions.
        let entropy = keyed_draw(self.seed, op, key, attempt, Lane::Position);
        Decision { index, key, attempt, kind, entropy }
    }

    /// Open the per-op observability span, annotated with the decision's
    /// replay coordinates. A no-op guard when no trace is attached.
    fn op_span(&self, name: &str, d: &Decision) -> kishu_trace::SpanGuard {
        let mut sp = self.trace.span(name);
        sp.arg("op_index", d.index);
        sp.arg("key", format!("{:#018x}", d.key));
        sp.arg("attempt", d.attempt);
        sp
    }

    /// Append one injected fault to the ledger and return its entry index
    /// (what faulted ops' spans link to).
    fn record(&self, kind: FaultKind, d: &Decision, op: FaultOp, blob: Option<BlobId>) -> usize {
        let mut st = self.state.lock().expect("fault state poisoned");
        st.ledger.injected.push(InjectedFault {
            op,
            kind,
            op_index: d.index,
            blob,
            key: d.key,
            attempt: d.attempt,
        });
        st.ledger.injected.len() - 1
    }

    /// Annotate a faulted op's span with the failure mode and the ledger
    /// entry it was recorded as.
    fn fault_args(sp: &mut kishu_trace::SpanGuard, kind: FaultKind, ledger_index: usize) {
        sp.arg("fault", format!("{kind:?}"));
        sp.arg("ledger", ledger_index);
    }

    fn transient_err(op: FaultOp) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient {op:?} fault"),
        )
    }

    fn permanent_err(op: FaultOp) -> io::Error {
        io::Error::other(format!("injected permanent {op:?} fault"))
    }
}

/// One call's fault decision.
struct Decision {
    index: u64,
    /// The operation key the draws used (payload hash / blob id / 0).
    key: u64,
    /// The per-`(op, key)` attempt number the draws used.
    attempt: u64,
    kind: Option<FaultKind>,
    /// Keyed positional randomness for the op's corruption mode (bit index
    /// for a flip, cut point for a short write).
    entropy: u64,
}

/// Independent randomness lanes within one `(seed, op, key, attempt)`
/// point, so e.g. the short-write cut position never perturbs whether a
/// transient fault fires.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Transient = 0,
    Corrupt = 1,
    Position = 2,
}

/// The keyed fault draw: a pure function of its five inputs, with no
/// shared stream — concurrent callers in any interleaving observe the
/// same decisions for the same logical operations.
fn keyed_draw(seed: u64, op: FaultOp, key: u64, attempt: u64, lane: Lane) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut out = 0u64;
    for word in [1 + op as u64, key, attempt, lane as u64] {
        state ^= word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        out = splitmix64(&mut state);
    }
    out
}

/// Map a draw onto `[0, 1)` with 53 bits of precision (the standard
/// u64-to-double construction).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Seed for hashing `put` payloads into operation keys; distinct from the
/// dedup index's content seed so the two key spaces are unrelated.
const PUT_KEY_SEED: u64 = 0xFA0_175_EED;

impl CheckpointStore for FaultStore {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        self.put_with_receipt(bytes).map(|r| r.id)
    }

    // The injection logic lives here so `put` and `put_with_receipt` share
    // one decision point: the same payload draws the same fault under
    // either entry point, and a receipt-requesting caller (the session's
    // attribution path) perturbs nothing.
    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<crate::PutReceipt> {
        let d = self.decide(FaultOp::Put, xxh64(bytes, PUT_KEY_SEED));
        let mut sp = self.op_span("fault.put", &d);
        sp.arg("bytes", bytes.len());
        match d.kind {
            None => self.inner.put_with_receipt(bytes),
            Some(kind @ FaultKind::Transient) => {
                let idx = self.record(kind, &d, FaultOp::Put, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::transient_err(FaultOp::Put))
            }
            Some(kind @ FaultKind::ShortWrite) => {
                // A proper prefix lands in the inner store (the torn bytes a
                // crashed append leaves behind), then the caller sees the
                // error — it must never reference the garbage id.
                let cut = if bytes.is_empty() { 0 } else { d.entropy as usize % bytes.len() };
                let blob = self.inner.put(&bytes[..cut]).ok();
                let idx = self.record(kind, &d, FaultOp::Put, blob);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Put))
            }
            // Permanent (and any inapplicable scheduled kind): a hard,
            // non-retryable error; `Permanent` also fails every later put.
            Some(kind) => {
                if kind == FaultKind::Permanent {
                    self.state
                        .lock()
                        .expect("fault state poisoned")
                        .dead_ops
                        .insert(FaultOp::Put);
                }
                let idx = self.record(kind, &d, FaultOp::Put, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Put))
            }
        }
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let d = self.decide(FaultOp::Get, id);
        let mut sp = self.op_span("fault.get", &d);
        sp.arg("blob", id);
        match d.kind {
            None => self.inner.get(id),
            Some(kind @ FaultKind::Transient) => {
                let idx = self.record(kind, &d, FaultOp::Get, Some(id));
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::transient_err(FaultOp::Get))
            }
            Some(kind @ FaultKind::BitFlip) => {
                let mut bytes = self.inner.get(id)?;
                if !bytes.is_empty() {
                    let bit = d.entropy as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                let idx = self.record(kind, &d, FaultOp::Get, Some(id));
                Self::fault_args(&mut sp, kind, idx);
                Ok(bytes)
            }
            Some(kind) => {
                if kind == FaultKind::Permanent {
                    self.state
                        .lock()
                        .expect("fault state poisoned")
                        .dead_blobs
                        .insert(id);
                }
                let idx = self.record(kind, &d, FaultOp::Get, Some(id));
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Get))
            }
        }
    }

    fn blob_count(&self) -> u64 {
        self.inner.blob_count()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn sync(&mut self) -> io::Result<()> {
        let d = self.decide(FaultOp::Sync, 0);
        let mut sp = self.op_span("fault.sync", &d);
        match d.kind {
            None => {
                let r = self.inner.sync();
                if r.is_ok() {
                    self.state.lock().expect("fault state poisoned").sync_lied = false;
                }
                r
            }
            Some(kind @ FaultKind::Transient) => {
                let idx = self.record(kind, &d, FaultOp::Sync, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::transient_err(FaultOp::Sync))
            }
            Some(kind @ FaultKind::FsyncLie) => {
                self.state.lock().expect("fault state poisoned").sync_lied = true;
                let idx = self.record(kind, &d, FaultOp::Sync, None);
                Self::fault_args(&mut sp, kind, idx);
                Ok(())
            }
            Some(kind) => {
                if kind == FaultKind::Permanent {
                    self.state
                        .lock()
                        .expect("fault state poisoned")
                        .dead_ops
                        .insert(FaultOp::Sync);
                }
                let idx = self.record(kind, &d, FaultOp::Sync, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Sync))
            }
        }
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        // No fault draw: the barrier is an ordering point, not a media
        // operation — media failures inject at `put`/`sync`, and an inner
        // store's own flush errors still surface through this forward.
        // Keeping it draw-free also keeps fault ledgers identical whether
        // or not a store buffers (group commit on vs off).
        self.inner.flush_barrier()
    }

    fn chunk_stats(&self) -> Option<crate::chunk::ChunkStats> {
        self.inner.chunk_stats()
    }

    fn chunk_config(&self) -> Option<crate::chunk::ChunkConfig> {
        self.inner.chunk_config()
    }

    fn attach_trace(&mut self, trace: &Trace) {
        self.trace = trace.clone();
        self.inner.attach_trace(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    fn faulty(plan: FaultPlan, seed: u64) -> FaultStore {
        FaultStore::new(Box::new(MemoryStore::new()), plan, seed)
    }

    #[test]
    fn no_faults_is_a_pure_pass_through() {
        let mut s = faulty(FaultPlan::none(), 1);
        let a = s.put(b"alpha").expect("put");
        assert_eq!(s.get(a).expect("get"), b"alpha");
        s.sync().expect("sync");
        assert_eq!(s.blob_count(), 1);
        let ledger = s.ledger();
        assert_eq!(ledger.total(), 0);
        assert_eq!((ledger.puts, ledger.gets, ledger.syncs), (1, 1, 1));
    }

    #[test]
    fn same_seed_injects_the_same_faults() {
        let run = |seed: u64| {
            let mut s = faulty(FaultPlan::transient(0.3), seed);
            let mut outcomes = Vec::new();
            for i in 0..50u64 {
                outcomes.push(s.put(&[i as u8; 16]).is_ok());
                outcomes.push(s.get(i % s.blob_count().max(1)).is_ok());
                outcomes.push(s.sync().is_ok());
            }
            (outcomes, s.ledger().injected)
        };
        assert_eq!(run(42), run(42), "deterministic from the seed");
        assert_ne!(run(42).1, run(43).1, "different seeds, different faults");
    }

    #[test]
    fn probabilistic_faults_are_independent_of_operation_interleaving() {
        // Issue the same logical puts in two different orders: each payload
        // must see the same fault outcome either way, because the decision
        // is keyed on (seed, op, payload hash, attempt), not on a shared
        // RNG stream consumed in call order.
        let payloads: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 24 + i as usize]).collect();
        let outcomes = |order: Vec<usize>| {
            let mut s = faulty(FaultPlan::transient(0.35), 0x1EAF);
            let mut by_payload = vec![false; payloads.len()];
            for i in order {
                by_payload[i] = s.put(&payloads[i]).is_ok();
            }
            by_payload
        };
        let forward = outcomes((0..payloads.len()).collect());
        let reversed = outcomes((0..payloads.len()).rev().collect());
        assert_eq!(forward, reversed, "fault decisions must not depend on call order");
        assert!(forward.iter().any(|ok| !ok), "seed 0x1EAF should fire at p=0.35");
        assert!(forward.iter().any(|ok| *ok), "and not fire everywhere");
    }

    #[test]
    fn retries_of_the_same_key_draw_fresh_randomness() {
        // With p=0.5 and many attempts of one payload, both outcomes must
        // occur: the per-key attempt counter advances the draw.
        let mut s = faulty(FaultPlan::transient(0.5), 99);
        let results: Vec<bool> = (0..64).map(|_| s.put(b"same bytes").is_ok()).collect();
        assert!(results.iter().any(|ok| *ok));
        assert!(results.iter().any(|ok| !ok));
    }

    #[test]
    fn transient_faults_are_interrupted_and_leave_inner_untouched() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Put, 0, FaultKind::Transient), 7);
        let err = s.put(b"x").expect_err("scheduled fault");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(s.inner().blob_count(), 0, "nothing reached the inner store");
        // The retry (next invocation) succeeds.
        s.put(b"x").expect("retry works");
    }

    #[test]
    fn permanent_get_fault_kills_the_blob_forever() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Get, 1, FaultKind::Permanent), 7);
        let id = s.put(b"precious").expect("put");
        assert_eq!(s.get(id).expect("first read ok"), b"precious");
        assert!(s.get(id).is_err(), "scheduled permanent fault");
        assert!(s.get(id).is_err(), "dead stays dead");
        assert_eq!(s.ledger().count(FaultKind::Permanent), 2);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::BitFlip), 9);
        let id = s.put(&[0u8; 64]).expect("put");
        let corrupted = s.get(id).expect("bit flip still returns bytes");
        let ones: u32 = corrupted.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        assert_eq!(s.get(id).expect("clean read"), vec![0u8; 64]);
    }

    #[test]
    fn short_write_stores_a_proper_prefix_and_errors() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Put, 0, FaultKind::ShortWrite), 11);
        assert!(s.put(&[7u8; 100]).is_err());
        assert_eq!(s.inner().blob_count(), 1, "torn bytes landed in the store");
        let torn = s.inner().get(0).expect("inner read");
        assert!(torn.len() < 100, "a proper prefix, not the full payload");
        assert!(torn.iter().all(|b| *b == 7));
    }

    #[test]
    fn fsync_lie_reports_ok_without_syncing() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Sync, 0, FaultKind::FsyncLie), 13);
        s.sync().expect("the lie");
        assert!(s.sync_lied());
        assert_eq!(s.ledger().count(FaultKind::FsyncLie), 1);
        s.sync().expect("real sync");
        assert!(!s.sync_lied(), "a real sync clears the lie");
    }

    #[test]
    fn ledger_entries_carry_replay_coordinates_and_serialize() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Get, 1, FaultKind::Transient), 5);
        let id = s.put(b"payload").expect("put");
        let _ = s.get(id); // get #0: clean (first attempt of key `id`)
        let _ = s.get(id); // get #1: scheduled transient
        let ledger = s.ledger();
        assert_eq!(ledger.total(), 1);
        let f = ledger.injected[0];
        assert_eq!((f.op, f.kind), (FaultOp::Get, FaultKind::Transient));
        assert_eq!(f.key, id, "get key is the blob id");
        assert_eq!(f.attempt, 1, "second draw of the same key");
        let dbg = format!("{f:?}");
        assert!(dbg.contains("key") && dbg.contains("attempt"), "{dbg}");
        let j = ledger.to_json();
        assert_eq!(j.get("gets").and_then(Json::as_i64), Some(2));
        let Some(Json::Array(injected)) = j.get("injected") else {
            panic!("injected array")
        };
        let entry = &injected[0];
        assert_eq!(entry.get("attempt").and_then(Json::as_i64), Some(1));
        assert_eq!(
            entry.get("key").and_then(Json::as_str),
            Some(format!("{id:#018x}").as_str())
        );
        // Round-trips through the parser.
        Json::parse(&j.dump()).expect("ledger json parses");
    }

    #[test]
    fn faulted_op_spans_link_to_their_ledger_entry() {
        let mut s = faulty(
            FaultPlan::none()
                .schedule(FaultOp::Put, 0, FaultKind::Transient)
                .schedule(FaultOp::Put, 1, FaultKind::ShortWrite),
            5,
        );
        let trace = Trace::enabled();
        s.attach_trace(&trace);
        assert!(s.put(b"abcdefgh").is_err());
        assert!(s.put(b"abcdefgh").is_err());
        s.put(b"abcdefgh").expect("third attempt clean");
        let spans = trace.spans();
        let puts: Vec<_> = spans.iter().filter(|sp| sp.name == "fault.put").collect();
        assert_eq!(puts.len(), 3);
        let arg = |sp: &kishu_trace::SpanRecord, k: &str| {
            sp.args.iter().find(|(a, _)| a == k).map(|(_, v)| v.clone())
        };
        // Faulted ops carry the fault kind + ledger index; the clean one
        // carries neither, but all three carry key/attempt.
        assert_eq!(arg(puts[0], "ledger").as_deref(), Some("0"));
        assert_eq!(arg(puts[0], "fault").as_deref(), Some("Transient"));
        assert_eq!(arg(puts[1], "ledger").as_deref(), Some("1"));
        assert_eq!(arg(puts[1], "fault").as_deref(), Some("ShortWrite"));
        assert_eq!(arg(puts[2], "ledger"), None);
        for (i, sp) in puts.iter().enumerate() {
            assert_eq!(arg(sp, "attempt").as_deref(), Some(i.to_string().as_str()));
            assert!(arg(sp, "key").is_some());
        }
        // The span annotations agree with the ledger they point into.
        let ledger = s.ledger();
        assert_eq!(ledger.injected[0].kind, FaultKind::Transient);
        assert_eq!(ledger.injected[1].kind, FaultKind::ShortWrite);
    }

    #[test]
    fn integrity_sweep_sees_through_the_fault_layer() {
        let mut s = faulty(FaultPlan::none().schedule(FaultOp::Get, 2, FaultKind::Permanent), 17);
        let a = s.put(b"a").expect("put");
        let b = s.put(b"b").expect("put");
        let _ = s.get(a); // ok (get #0)
        let _ = s.get(b); // ok (get #1)
        let _ = s.get(a); // permanent fault (get #2): a is dead now
        let report = s.integrity_sweep();
        assert_eq!(report.unreadable, vec![a]);
        assert_eq!(report.readable, 1);
    }
}
