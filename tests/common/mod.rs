//! The shared differential harness of the integration suites.
//!
//! Kishu's correctness claims are differential: a configuration is right
//! when it observes exactly what a reference configuration observes. This
//! module holds the one definition of what a run observes
//! ([`Observation`]), the one runner that produces it at any [`Point`] of
//! the configuration matrix ([`observe`]), the one comparison
//! ([`assert_twins`]) and the scripts every suite drives ([`Script`]).
//!
//! An observation has three parts:
//!
//! * **logical** — compared between any two points: every non-timing
//!   report field except the declared representation-only ones, the
//!   namespace (object ids and reprs) after every step, query answers,
//!   the store's logical view (every blob's bytes by id), the fault
//!   ledger and `health()`'s degradation counts (both depend on which
//!   reads reach the store, so on the read-cache budget: they compare
//!   only between equal budgets);
//! * **physical** — the declared representation-only fields
//!   (`bytes_written`, `chunks_written`, `chunks_deduped`,
//!   `bytes_compressed`, `blobs_cached`, physical store bytes, read-cache
//!   counters), compared only between points with the same
//!   [`Representation`];
//! * **recorder** — what the trace saw; never compared.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use kishu::covariable::CoVarKey;
use kishu::session::{CellReport, CheckoutReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_kernel::{AccessRecord, ObjId};
use kishu_minipy::repr::repr;
use kishu_minipy::{CellOutcome, Engine, Interp, RunError};
use kishu_storage::chunk::ChunkConfig;
use kishu_storage::{CheckpointStore, FaultLedger, FaultPlan, FaultStore, FileStore, MemoryStore};
use kishu_testkit::rng::Rng;
use kishu_trace::Trace;

// ---------------------------------------------------------------------------
// Configuration points
// ---------------------------------------------------------------------------

/// The chunking dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chunking {
    /// [`ChunkConfig::disabled`]: v1 frames, and a `FileStore` without
    /// group commit — the storage oracle.
    Off,
    /// Chunking and compression on with thresholds small enough that the
    /// scripts' payloads really chunk; a `FileStore` with group commit.
    SmallV2,
}

impl Chunking {
    pub fn config(self) -> ChunkConfig {
        match self {
            Chunking::Off => ChunkConfig::disabled(),
            Chunking::SmallV2 => ChunkConfig {
                enabled: true,
                min: 32,
                avg: 64,
                max: 256,
            },
        }
    }
}

/// The recorder dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorder {
    /// `Trace::disabled()`.
    Off,
    /// `Trace::enabled()` with the default 4 MiB ring.
    On,
    /// The flight recorder's worst case: an 8 KiB ring, so eviction runs
    /// constantly.
    Pressure,
}

impl Recorder {
    fn trace(self) -> Trace {
        match self {
            Recorder::Off => Trace::disabled(),
            Recorder::On => Trace::enabled(),
            Recorder::Pressure => Trace::with_ring_bytes(8 * 1024),
        }
    }
}

/// The store dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    File,
}

/// The fault dimension: no faults, or [`fault_plan`] under a seed. Every
/// store is wrapped in a [`FaultStore`], so operation counts are observed
/// even without faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    None,
    Seeded(u64),
}

/// The seeded fault plan: transient put/get failures, short writes and
/// read bit-flips — enough that scripts retry, drop blobs and fall back
/// to recomputation.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        put_transient_p: 0.10,
        get_transient_p: 0.08,
        short_write_p: 0.03,
        bit_flip_p: 0.03,
        ..FaultPlan::none()
    }
}

/// One point of the configuration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Checkpoint and restore pool width.
    pub workers: usize,
    pub chunking: Chunking,
    pub engine: Engine,
    pub recorder: Recorder,
    pub store: Backend,
    pub faults: Faults,
}

/// The oracle: serial pipelines, no chunk layer, the tree-walker, no
/// recorder, an in-memory store, no faults.
pub const ORACLE: Point = Point {
    workers: 1,
    chunking: Chunking::Off,
    engine: Engine::Tree,
    recorder: Recorder::Off,
    store: Backend::Memory,
    faults: Faults::None,
};

impl Point {
    /// The session configuration of this point: the defaults with the
    /// point's workers and engine.
    pub fn config(&self) -> KishuConfig {
        KishuConfig {
            checkpoint_workers: self.workers,
            restore_workers: self.workers,
            minipy_vm: self.engine == Engine::Vm,
            ..KishuConfig::default()
        }
    }

    /// A [`FaultStore`] over `inner`, per this point's faults.
    fn faulty(&self, inner: Box<dyn CheckpointStore>) -> FaultStore {
        let (plan, seed) = match self.faults {
            Faults::None => (FaultPlan::none(), 0),
            Faults::Seeded(seed) => (fault_plan(), seed),
        };
        FaultStore::new(inner, plan, seed)
    }
}

/// What decides the physical fields: the backend, its chunking and the
/// read-cache budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representation {
    pub store: Backend,
    pub chunking: Chunking,
    pub cache_bytes: u64,
}

impl Representation {
    fn of(point: &Point, config: &KishuConfig) -> Representation {
        Representation {
            store: point.store,
            chunking: point.chunking,
            cache_bytes: config.checkout_cache_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Scripts
// ---------------------------------------------------------------------------

/// One step of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Run a cell; `store: false` keeps its checkpoint code-only, so a
    /// checkout restores it by replay (fallback recomputation).
    Cell { src: String, store: bool },
    /// Check out the `k`-th committed node (modulo the number committed).
    Checkout(usize),
}

fn cell(src: impl Into<String>) -> Step {
    Step::Cell { src: src.into(), store: true }
}

/// A notebook session: its steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub steps: Vec<Step>,
}

/// Random cell generator: fresh list bindings (one or two per cell),
/// in-place mutations, re-created constants (blob-dedup bait), shared
/// structure, deletes, a long list mutated slightly (chunk-dedup bait) and
/// read-only cells.
struct CellGen {
    rng: Rng,
    live: Vec<String>,
    fresh: usize,
    big: bool,
}

impl CellGen {
    fn new(seed: u64) -> CellGen {
        CellGen { rng: Rng::seed_from_u64(seed), live: Vec::new(), fresh: 0, big: false }
    }

    fn fresh_name(&mut self) -> String {
        let name = format!("v{}", self.fresh);
        self.fresh += 1;
        self.live.push(name.clone());
        name
    }

    fn pick(&mut self) -> String {
        self.live[self.rng.random_range(0..self.live.len())].clone()
    }

    fn next(&mut self) -> String {
        let rng = &mut self.rng;
        match rng.random_range(0..12u32) {
            0..=2 => {
                let len = rng.random_range(1..6usize);
                let vals: Vec<String> =
                    (0..len).map(|_| rng.random_range(0..50i64).to_string()).collect();
                format!("{} = [{}]\n", self.fresh_name(), vals.join(", "))
            }
            3..=4 if !self.live.is_empty() => {
                let name = self.pick();
                format!("{name}.append({})\n", self.rng.random_range(0..50i64))
            }
            5 => format!("{} = [1, 2, 3]\n", self.fresh_name()),
            6 if !self.live.is_empty() => {
                let src = self.pick();
                format!("{} = {src}\n", self.fresh_name())
            }
            7 if self.live.len() > 1 => {
                let name = self.live.remove(self.rng.random_range(0..self.live.len()));
                format!("del {name}\n")
            }
            8..=9 if !self.big => {
                self.big = true;
                format!("big = list(range({}))\n", 250 + rng.random_range(0..100usize))
            }
            8 => format!("big.append({})\n", rng.random_range(0..1000i64)),
            9 => {
                let (i, v) = (rng.random_range(0..250usize), rng.random_range(0..1000i64));
                format!("big[{i}] = {v}\n")
            }
            10 => {
                // Two fresh co-variables in one cell: the pools fan out.
                let (a, b) = (self.fresh_name(), self.fresh_name());
                let n = self.rng.random_range(1..30usize);
                format!("{a} = list(range({n}))\n{b} = list(range({n}, {}))\n", 2 * n)
            }
            _ => "probe = 1\ndel probe\n".to_string(),
        }
    }
}

/// A time-travel itinerary over `n_cells` committed nodes: jump back,
/// bounce around, return to the tip — revisits included, so the read cache
/// gets hits.
fn itinerary(rng: &mut Rng, n_cells: usize) -> Vec<Step> {
    let last = n_cells.saturating_sub(1);
    let mut stops = vec![Step::Checkout(0)];
    stops.extend((0..6).map(|_| Step::Checkout(rng.random_range(0..n_cells.max(1)))));
    stops.extend([last, 0, last].map(Step::Checkout));
    stops
}

impl Script {
    /// A random notebook of `n_cells` generated cells, then an itinerary.
    pub fn notebook(seed: u64, n_cells: usize) -> Script {
        let mut gen = CellGen::new(seed);
        let mut steps: Vec<Step> = (0..n_cells).map(|_| cell(gen.next())).collect();
        steps.extend(itinerary(&mut Rng::seed_from_u64(seed ^ 0x17_17), n_cells));
        Script { steps }
    }

    /// The fixed script of the invariant matrix: multi-co-variable cells
    /// (pool fan-out), `global` writes from a function, a code-only cell
    /// (restored by replay), a cell that raises after mutating, a long
    /// list mutated slightly, re-created constants, shared structure, a
    /// library array, printed output and a delete. Then every checkpoint
    /// oldest to newest, and revisits of the replayed and the errored cell.
    pub fn matrix() -> Script {
        let cells = [
            "x0 = list(range(40))\nx1 = list(range(50))\nx2 = list(range(60))\n",
            "xs = [1, 2, 3]\nn = 0\n",
            "def bump(v):\n    global n\n    n = n + v\n    return n\nbump(2)\n",
            "xs.append(n)\ntotal = sum(xs)\ntotal\n",
            "big = list(range(300))\ny0 = [1, 2, 3]\n",
            "xs.append(99)\nboom()\n",
            "y0 = [1, 2, 3]\n",
            "big[150] = -1\nz = [7, 8, 9]\n",
            "m = {'k': total}\nfor i in range(3):\n    n += i\nn\n",
            "w0 = big\nx0.append(99)\n",
            "del x2\n",
            "a = arange(8)\nbig.append(5)\n",
            "print(len(big))\nprobe = 1\ndel probe\n",
            "x1.append(1)\nbig[5] = 0\n",
        ];
        let mut steps: Vec<Step> = cells
            .iter()
            .enumerate()
            .map(|(i, src)| Step::Cell { src: src.to_string(), store: i != 2 })
            .collect();
        steps.extend((0..cells.len()).map(Step::Checkout));
        steps.extend([1, 5, 2, cells.len() - 1].map(Step::Checkout));
        Script { steps }
    }

    /// 50 deterministic cells over a small variable pool — creations,
    /// guarded mutations, aliasing, library arrays, deletes — with a
    /// checkout of an earlier node after every 10th cell, so checkpoints
    /// carry real deltas and fallback recomputation has work to do.
    pub fn churn() -> Script {
        let mut steps = Vec::new();
        for i in 0..50u32 {
            let k = i % 7;
            steps.push(cell(match (i < 7, i % 5) {
                (true, _) => format!("v{k} = [{i}, {}]\n", i + 1),
                (_, 0) => format!("v{k} = arange({})\n", (i % 11) + 4),
                (_, 1) => format!(
                    "if type(v{k}) == 'list':\n    v{k}.append({i})\nelse:\n    v{k} = [{i}]\n"
                ),
                (_, 2) => format!("v{k} = {{'i': {i}, 'l': [{i}, {}]}}\n", i * 2),
                (_, 3) => format!("v{k} = v{}\n", (i + 3) % 7),
                _ => format!("tmp = len(str(v{k}))\n"),
            }));
            if (i + 1) % 10 == 0 {
                // Node `ceil(i / 2)`: cells commit nodes 1, 2, ... in order.
                steps.push(Step::Checkout(i.div_ceil(2) as usize - 1));
            }
        }
        Script { steps }
    }

    /// The cells only, then a checkout of every committed node, oldest
    /// first.
    pub fn visiting_every_node(&self) -> Script {
        let mut script = self.cells_only();
        script.steps.extend((0..script.steps.len()).map(Step::Checkout));
        script
    }

    /// The cells only.
    pub fn cells_only(&self) -> Script {
        let steps = self.steps.iter().filter(|s| matches!(s, Step::Cell { .. })).cloned().collect();
        Script { steps }
    }

    /// The sources of the cell steps, in order.
    pub fn cell_sources(&self) -> Vec<String> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Cell { src, .. } => Some(src.clone()),
                Step::Checkout(_) => None,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Observations
// ---------------------------------------------------------------------------

/// A namespace: name → (object id, repr). Object ids are observable (they
/// are variable-graph identity), so engines must allocate identically.
pub type Bindings = BTreeMap<String, (ObjId, String)>;

/// The namespace of an interpreter with object ids.
pub fn bindings(interp: &Interp) -> Bindings {
    interp.globals.bindings().map(|(n, o)| (n.to_string(), (o, repr(&interp.heap, o)))).collect()
}

/// Strip the object ids from [`Bindings`].
pub fn values(b: &Bindings) -> BTreeMap<String, String> {
    b.iter().map(|(n, (_, r))| (n.clone(), r.clone())).collect()
}

/// A session's namespace values (name → repr): state equivalence where
/// object identity may legitimately differ (fallback recomputation
/// allocates fresh objects).
pub fn snapshot(s: &KishuSession) -> BTreeMap<String, String> {
    values(&bindings(&s.interp))
}

/// Evaluate `expr` as a cell; the repr of its value, or `None` when it
/// raises.
pub fn probe(s: &mut KishuSession, expr: &str) -> Option<String> {
    let out = s.run_cell(&format!("{expr}\n")).ok()?;
    out.outcome.error.is_none().then_some(out.outcome.value_repr)?
}

fn keys(v: &[CoVarKey]) -> Vec<String> {
    v.iter().map(|k| format!("{k:?}")).collect()
}

/// Every non-timing [`CellReport`] field except the representation-only
/// ones (those are in [`CellPhysical`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CellFields {
    pub node: Option<NodeId>,
    pub error: Option<RunError>,
    pub output: Vec<String>,
    pub value_repr: Option<String>,
    pub stmts: u64,
    pub access: AccessRecord,
    pub updated: Vec<String>,
    pub checkpoint_bytes: u64,
    pub blobs_dropped: usize,
    pub blobs_deduped: usize,
}

/// The representation-only [`CellReport`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellPhysical {
    pub bytes_written: u64,
    pub chunks_written: u64,
    pub chunks_deduped: u64,
    pub bytes_compressed: u64,
}

impl CellFields {
    /// Split a report into its compared and representation-only fields.
    /// The destructuring is exhaustive: a new report field must be sorted
    /// into one of the two (or declared timing) before this compiles.
    pub fn of(r: &CellReport) -> (CellFields, CellPhysical) {
        let CellReport {
            node, outcome, updated, checkpoint_bytes, blobs_dropped, blobs_deduped,
            bytes_written, chunks_written, chunks_deduped, bytes_compressed,
            tracking_time: _, checkpoint_time: _, ckpt_wall_ns: _, serialize_ns: _, write_ns: _,
        } = r;
        let CellOutcome { access, output, value_repr, error, stmts_executed, wall_time: _ } =
            outcome;
        let fields = CellFields {
            node: *node,
            error: error.clone(),
            output: output.clone(),
            value_repr: value_repr.clone(),
            stmts: *stmts_executed,
            access: access.clone(),
            updated: keys(updated),
            checkpoint_bytes: *checkpoint_bytes,
            blobs_dropped: *blobs_dropped,
            blobs_deduped: *blobs_deduped,
        };
        let (bytes_written, chunks_written) = (*bytes_written, *chunks_written);
        let (chunks_deduped, bytes_compressed) = (*chunks_deduped, *bytes_compressed);
        (fields, CellPhysical { bytes_written, chunks_written, chunks_deduped, bytes_compressed })
    }
}

/// Every non-timing [`CheckoutReport`] field except `blobs_cached`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutFields {
    pub target: NodeId,
    pub loaded: Vec<String>,
    pub recomputed: Vec<String>,
    pub removed: Vec<String>,
    pub identical: usize,
    pub bytes_loaded: u64,
    pub integrity_failures: usize,
    pub flushed: usize,
}

impl CheckoutFields {
    /// Split a report into its compared fields and `blobs_cached`.
    /// Exhaustive, like [`CellFields::of`].
    pub fn of(r: &CheckoutReport) -> (CheckoutFields, usize) {
        let CheckoutReport {
            target, loaded, recomputed, removed, identical, bytes_loaded, integrity_failures,
            flushed, blobs_cached,
            wall_time: _, co_wall_ns: _, fetch_ns: _, verify_ns: _, apply_ns: _,
        } = r;
        let fields = CheckoutFields {
            target: *target,
            loaded: keys(loaded),
            recomputed: keys(recomputed),
            removed: keys(removed),
            identical: *identical,
            bytes_loaded: *bytes_loaded,
            integrity_failures: *integrity_failures,
            flushed: *flushed,
        };
        (fields, *blobs_cached)
    }
}

/// Compared at every point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Logical {
    pub cells: Vec<CellFields>,
    pub checkouts: Vec<CheckoutFields>,
    /// The namespace after every step.
    pub namespaces: Vec<Bindings>,
    /// Heap allocations ever, as (objects, shallow bytes), after every
    /// step: the session's collection rule reads both.
    pub allocated: Vec<(u64, u64)>,
    /// `persist` after the script: `None`, or the error's text.
    pub persist_error: Option<String>,
    /// Between consecutive checkout targets, two shallow diffs (the second
    /// a memo hit) and a deep diff (which reads blobs through the checkout
    /// fetch); then all-branch searches.
    pub queries: Vec<String>,
    /// The fault ledger (injected faults and operation counts).
    pub ledger: FaultLedger,
    /// `health()`'s (store retries, barrier failures, integrity failures)
    /// after the queries.
    pub degradations: (u64, u64, u64),
    /// Logical store stats: (blobs, payload bytes).
    pub stats: (u64, u64),
    /// Every blob's bytes by id, read back through the session's store
    /// after the ledger snapshot (`None` where the read failed).
    pub store_view: Vec<Option<Vec<u8>>>,
}

/// Compared between points with the same [`Representation`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Physical {
    pub cells: Vec<CellPhysical>,
    pub blobs_cached: Vec<usize>,
    pub physical_bytes: u64,
    /// Read-cache (hits, misses, disabled lookups).
    pub cache: (u64, u64, u64),
}

impl Physical {
    /// Sum of the per-cell representation fields.
    pub fn total(&self) -> CellPhysical {
        self.cells.iter().fold(CellPhysical::default(), |a, c| CellPhysical {
            bytes_written: a.bytes_written + c.bytes_written,
            chunks_written: a.chunks_written + c.chunks_written,
            chunks_deduped: a.chunks_deduped + c.chunks_deduped,
            bytes_compressed: a.bytes_compressed + c.bytes_compressed,
        })
    }
}

/// What the trace saw; never compared.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecorderStats {
    pub spans_recorded: u64,
    pub spans_dropped: u64,
    /// Retained `heap.gc` spans whose parent is a `checkout` span.
    pub sweeps_in_checkouts: usize,
}

/// Everything one run of a script at one point observed.
#[derive(Debug, Clone)]
pub struct Observation {
    pub point: Point,
    pub representation: Representation,
    pub logical: Logical,
    pub physical: Physical,
    pub recorder: RecorderStats,
}

/// Assert two runs observed the same thing: the logical part always, the
/// physical part when their representations agree.
pub fn assert_twins(a: &Observation, b: &Observation) {
    let what = format!("\n  a: {:?}\n  b: {:?}", a.point, b.point);
    let (x, y) = (&a.logical, &b.logical);
    assert_eq!(x.cells, y.cells, "cell reports diverged{what}");
    assert_eq!(x.checkouts, y.checkouts, "checkout reports diverged{what}");
    assert_eq!(x.namespaces, y.namespaces, "namespaces diverged{what}");
    assert_eq!(x.allocated, y.allocated, "heap allocation counts diverged{what}");
    assert_eq!(x.persist_error, y.persist_error, "persist outcome diverged{what}");
    assert_eq!(x.queries, y.queries, "query answers diverged{what}");
    // The read cache decides which checkout reads reach the store.
    if a.representation.cache_bytes == b.representation.cache_bytes {
        assert_eq!(x.ledger, y.ledger, "fault ledgers diverged{what}");
        assert_eq!(x.degradations, y.degradations, "health counts diverged{what}");
    }
    assert_eq!(x.stats, y.stats, "logical store stats diverged{what}");
    assert!(x.store_view == y.store_view, "store views diverged{what}");
    if a.representation == b.representation {
        assert_eq!(a.physical, b.physical, "representation-only fields diverged{what}");
    }
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

/// A fresh temp path, unique per process and call.
pub fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("kishu-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{}-{name}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// A fresh, empty temp directory, unique per process and call.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A session being driven through a script, recording as it goes.
pub struct Run {
    pub session: KishuSession,
    pub logical: Logical,
    pub physical: Physical,
    trace: Trace,
    nodes: Vec<NodeId>,
}

impl Run {
    pub fn new(session: KishuSession) -> Run {
        let trace = session.trace().clone();
        let (logical, physical) = (Logical::default(), Physical::default());
        Run { session, logical, physical, trace, nodes: Vec::new() }
    }

    fn at(point: &Point, config: &KishuConfig, store: Box<dyn CheckpointStore>) -> Run {
        let mut session = KishuSession::new(store, config.clone());
        session.set_trace(&point.recorder.trace());
        Run::new(session)
    }

    /// Run one step, recording its report and the namespace after it.
    pub fn step(&mut self, step: &Step) {
        let s = &mut self.session;
        match step {
            Step::Cell { src, store } => {
                let r = s.run_cell_with(src, *store).expect("script cells parse");
                self.nodes.extend(r.node);
                let (fields, physical) = CellFields::of(&r);
                self.logical.cells.push(fields);
                self.physical.cells.push(physical);
            }
            Step::Checkout(k) => {
                let r = s.checkout(self.nodes[k % self.nodes.len()]).expect("checkout degrades");
                let (fields, cached) = CheckoutFields::of(&r);
                self.logical.checkouts.push(fields);
                self.physical.blobs_cached.push(cached);
            }
        }
        self.logical.namespaces.push(bindings(&s.interp));
        let heap = &s.interp.heap;
        self.logical.allocated.push((heap.total_allocated(), heap.allocated_bytes()));
    }

    /// Run every step of `script`.
    pub fn drive(mut self, script: &Script) -> Run {
        script.steps.iter().for_each(|step| self.step(step));
        self
    }

    /// The namespace values after every step.
    pub fn values(&self) -> Vec<BTreeMap<String, String>> {
        self.logical.namespaces.iter().map(values).collect()
    }

    /// Persist, query, count degradations, snapshot the ledger, then read
    /// the store view.
    fn finish(mut self, point: &Point, config: &KishuConfig, ledger: FaultLedger) -> Observation {
        let s = &mut self.session;
        let l = &mut self.logical;
        l.persist_error = s.persist().err().map(|e| e.to_string());
        let targets: Vec<NodeId> = l.checkouts.iter().map(|c| c.target).collect();
        for pair in targets.windows(2) {
            for _ in 0..2 {
                l.queries.push(format!("{:?}", s.diff(pair[0], pair[1]).map(|d| d.entries)));
            }
            l.queries.push(format!("{:?}", s.diff_deep(pair[0], pair[1]).map(|d| d.entries)));
        }
        let names: Vec<String> =
            l.namespaces.last().into_iter().flat_map(|b| b.keys().cloned()).collect();
        for name in names.iter().map(String::as_str).chain(["ghost"]) {
            let hits = s.search(name);
            let hits: Vec<String> = hits
                .iter()
                .map(|h| format!("{}:{}:{}:{}", h.node.0, h.modified, h.deleted, h.on_head_path))
                .collect();
            l.queries.push(format!("{name}: {}", hits.join(",")));
        }
        let h = s.health();
        l.degradations = (h.store_retries, h.barrier_failures, h.integrity_failures);
        l.ledger = ledger;
        let stats = s.store_stats();
        l.stats = (stats.blobs, stats.payload_bytes);
        l.store_view = (0..s.store().blob_count()).map(|i| s.store().get(i).ok()).collect();
        let cache = s.read_cache_stats();
        self.physical.physical_bytes = stats.physical_bytes;
        self.physical.cache = (cache.hits, cache.misses, cache.disabled);
        let ring = self.trace.ring_stats();
        let spans = self.trace.spans();
        let checkouts: BTreeSet<u64> =
            spans.iter().filter(|sp| sp.name == "checkout").map(|sp| sp.id).collect();
        let sweeps_in_checkouts = spans
            .iter()
            .filter(|sp| sp.name == "heap.gc" && sp.parent.is_some_and(|p| checkouts.contains(&p)))
            .count();
        Observation {
            point: *point,
            representation: Representation::of(point, config),
            logical: self.logical,
            physical: self.physical,
            recorder: RecorderStats {
                spans_recorded: ring.recorded,
                spans_dropped: ring.dropped,
                sweeps_in_checkouts,
            },
        }
    }
}

/// Run `script` at `point` with the point's configuration.
pub fn observe(point: &Point, script: &Script) -> Observation {
    observe_with(point, point.config(), script)
}

/// Run `script` at `point` with an explicit session configuration.
pub fn observe_with(point: &Point, config: KishuConfig, script: &Script) -> Observation {
    match point.store {
        Backend::Memory => {
            let store = MemoryStore::with_config(point.chunking.config());
            observe_on(point, config, script, Box::new(store))
        }
        Backend::File => {
            let path = temp_path("session.log");
            let group_commit = point.chunking == Chunking::SmallV2;
            let store = FileStore::create_with(&path, point.chunking.config(), group_commit);
            let obs = observe_on(point, config, script, Box::new(store.expect("create log")));
            if point.faults == Faults::None {
                // Across reopen, the log serves the identical logical view.
                let reopened = FileStore::open(&path).expect("reopen log");
                let view: Vec<Option<Vec<u8>>> =
                    (0..reopened.blob_count()).map(|i| reopened.get(i).ok()).collect();
                assert!(view == obs.logical.store_view, "reopen changed the view at {point:?}");
            }
            let _ = std::fs::remove_file(&path);
            obs
        }
    }
}

fn observe_on(
    point: &Point,
    config: KishuConfig,
    script: &Script,
    inner: Box<dyn CheckpointStore>,
) -> Observation {
    let store = point.faulty(inner);
    let ledger = store.ledger_handle();
    let run = Run::at(point, &config, Box::new(store)).drive(script);
    run.finish(point, &config, ledger.snapshot())
}
