//! The work ledger: the repository's performance gate.
//!
//! Four miniature workloads, named after kbench's four (kbench is its own
//! package), run with fixed seeds and count the work they do. No count
//! depends on the host's speed or core count, so the test compares them
//! exactly with the committed `LEDGER.json`: extra work (a second
//! `store.get` per fetch, a second pickling pass, an O(history) walk per
//! cell) fails here, and how long the work takes is left to paired
//! `kbench compare` runs. A change that moves a count replaces
//! `LEDGER.json` with the fresh ledger the failure prints and says why.

mod common;

use std::collections::BTreeMap;
use std::path::PathBuf;

use kishu::session::{KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_storage::{FaultLedgerHandle, FaultPlan, FaultStore, FileStore};
use kishu_testkit::json::Json;
use kishu_testkit::rng::Rng;
use kishu_trace::Trace;

/// Counts by name.
type Ledger = BTreeMap<String, u64>;

/// A workload: its ledger at a given pipeline width.
type Workload = fn(usize) -> Ledger;

/// Every `POLL_EVERY`-th cell or checkout is followed by a dashboard poll.
const POLL_EVERY: u64 = 5;

/// One workload at one pipeline width: the sessions it opens, one after
/// another, and the counts summed over all of them.
struct Run {
    config: KishuConfig,
    dir: PathBuf,
    trace: Trace,
    rng: Rng,
    /// The session, on a `FileStore` (default chunking, group commit on)
    /// behind a fault-free `FaultStore` whose ledger counts store
    /// operations.
    live: Option<(KishuSession, FaultLedgerHandle)>,
    /// Stores created so far; the newest is the live session's.
    stores: usize,
    steps: u64,
    /// Nodes walked by each cell, in order.
    cell_walks: Vec<u64>,
    counts: Ledger,
}

impl Run {
    fn new(workers: usize, cache_bytes: u64, seed: u64) -> Run {
        Run {
            config: KishuConfig {
                checkpoint_workers: workers,
                restore_workers: workers,
                checkout_cache_bytes: cache_bytes,
                ..KishuConfig::default()
            },
            dir: common::temp_dir("work-ledger"),
            trace: Trace::enabled(),
            rng: Rng::seed_from_u64(seed),
            live: None,
            stores: 0,
            steps: 0,
            cell_walks: Vec::new(),
            counts: Ledger::new(),
        }
    }

    fn add(&mut self, key: &str, n: u64) {
        *self.counts.entry(key.to_string()).or_default() += n;
    }

    fn session(&mut self) -> &mut KishuSession {
        &mut self.live.as_mut().expect("a session is open").0
    }

    fn walked(&mut self) -> u64 {
        self.session().graph().nodes_walked()
    }

    fn store_path(&self) -> PathBuf {
        self.dir.join(format!("store{}.log", self.stores))
    }

    /// Wrap `store` in a fault-free `FaultStore` and attach the session.
    fn attach(&mut self, store: FileStore, resume: bool) {
        let store = FaultStore::new(Box::new(store), FaultPlan::none(), 0);
        let faults = store.ledger_handle();
        let mut session = if resume {
            KishuSession::resume(Box::new(store), self.config.clone()).expect("resume")
        } else {
            KishuSession::new(Box::new(store), self.config.clone())
        };
        session.set_trace(&self.trace);
        self.live = Some((session, faults));
    }

    /// Fold and drop the live session; `last` also folds its store's
    /// totals (a restart reopens the same store).
    fn detach(&mut self, last: bool) {
        let (session, faults) = self.live.take().expect("a session is open");
        let ops = faults.snapshot();
        self.add("store.puts", ops.puts);
        self.add("store.gets", ops.gets);
        self.add("heap.allocated", session.interp.heap.stats().total_allocated);
        if last {
            let stats = session.store_stats();
            self.add("store.blobs", stats.blobs);
            self.add("store.payload_bytes", stats.payload_bytes);
            self.add("store.physical_bytes", stats.physical_bytes);
        }
    }

    /// Start a session on a fresh store.
    fn open(&mut self) {
        if self.live.is_some() {
            self.detach(true);
        }
        self.stores += 1;
        let store = FileStore::create(self.store_path()).expect("create store");
        self.attach(store, false);
    }

    fn cell(&mut self, src: &str) -> NodeId {
        let before = self.walked();
        let r = self.session().run_cell(src).expect("cell parses");
        let walked = self.walked() - before;
        self.cell_walks.push(walked);
        self.add("walk.cells", walked);
        self.add("ops.cells", 1);
        self.add("vm.stmts", r.outcome.stmts_executed);
        self.add("pickle.bytes_out", r.checkpoint_bytes);
        self.add("ckpt.bytes_written", r.bytes_written);
        self.add("ckpt.covars_updated", r.updated.len() as u64);
        self.add("ckpt.blobs_deduped", r.blobs_deduped as u64);
        self.add("ckpt.blobs_dropped", r.blobs_dropped as u64);
        self.add("ckpt.chunks_written", r.chunks_written);
        self.add("ckpt.chunks_deduped", r.chunks_deduped);
        self.step();
        r.node.expect("auto checkpoint commits")
    }

    fn checkout(&mut self, target: NodeId) {
        let before = self.walked();
        let r = self.session().checkout(target).expect("checkout");
        let walked = self.walked() - before;
        self.add("walk.checkouts", walked);
        self.add("ops.checkouts", 1);
        self.add("pickle.bytes_in", r.bytes_loaded);
        self.add("checkout.loaded", r.loaded.len() as u64);
        self.add("checkout.cached", r.blobs_cached as u64);
        self.add("checkout.recomputed", r.recomputed.len() as u64);
        self.add("checkout.identical", r.identical as u64);
        self.add("checkout.integrity_failures", r.integrity_failures as u64);
        self.step();
    }

    /// Undo the head's cell, then redo it.
    fn undo_redo(&mut self) {
        let head = self.session().head();
        let parent = self.session().graph().node(head).parent.expect("not the root");
        self.checkout(parent);
        self.checkout(head);
    }

    /// Count a user step; every `POLL_EVERY`-th is followed by a dashboard
    /// poll: `diff(head, t)` for a seeded `t`, then `history` of a seeded
    /// live variable.
    fn step(&mut self) {
        self.steps += 1;
        if !self.steps.is_multiple_of(POLL_EVERY) {
            return;
        }
        let nodes = self.session().graph().len() as u32;
        let target = NodeId(self.rng.random_range(0..nodes));
        let names: Vec<String> = self.session().covariables().into_iter().flatten().collect();
        let var = (!names.is_empty()).then(|| names[self.rng.random_range(0..names.len())].clone());
        let before = self.walked();
        let s = self.session();
        s.diff(s.head(), target).expect("diff");
        if let Some(var) = var {
            s.history(&var);
        }
        let walked = self.walked() - before;
        self.add("walk.polls", walked);
        self.add("ops.polls", 1);
    }

    fn persist(&mut self) {
        self.session().persist().expect("persist");
        let snapshot = self.session().graph().to_json().dump().len() as u64;
        self.add("graph.snapshot_bytes", snapshot);
        self.add("ops.persists", 1);
    }

    /// Drop the session, reopen its store and resume: a kernel restart.
    fn restart(&mut self) {
        self.detach(false);
        let store = FileStore::open(self.store_path()).expect("reopen store");
        self.attach(store, true);
        let walked = self.walked();
        self.add("walk.restarts", walked);
        self.add("ops.restarts", 1);
    }

    /// Close the last session and add the span counts (store barriers are
    /// `spans.file.flush_barrier`).
    fn finish(mut self) -> Ledger {
        self.detach(true);
        let ring = self.trace.ring_stats();
        assert_eq!(ring.dropped, 0, "the span ring dropped spans: {ring:?}");
        for span in self.trace.spans() {
            self.add(&format!("spans.{}", span.name), 1);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        self.counts
    }
}

/// The first two of the paper's notebooks at scale 0.05, cell by cell,
/// each then undone and redone once, persisted and restarted.
fn notebooks(workers: usize) -> Ledger {
    let mut run = Run::new(workers, KishuConfig::default().checkout_cache_bytes, 11);
    for nb in kishu_workloads::all_notebooks(0.05).iter().take(2) {
        run.open();
        for cell in &nb.cells {
            run.cell(&cell.src);
        }
        run.undo_redo();
        run.persist();
        run.restart();
    }
    run.finish()
}

const SMALL_BYTES: usize = 16 << 10;

/// Four 16 KiB models and four 16 KiB arrays, then 40 steps of which a
/// third mutate one variable and the rest check out a recency-skewed
/// earlier state, all inside the default 32 MiB read cache.
fn undo_hot(workers: usize) -> Ledger {
    let mut run = Run::new(workers, KishuConfig::default().checkout_cache_bytes, 22);
    run.open();
    let mut newest = NodeId(0);
    for i in 0..4 {
        run.cell(&format!("m{i} = lib_obj('sk.LogisticRegression', {SMALL_BYTES}, {i})\nm{i}.fit(1)\n"));
        newest = run.cell(&format!("a{i} = randn_seeded({}, {i})\n", SMALL_BYTES / 8));
    }
    let first = newest;
    for n in 0..40 {
        if n % 3 == 0 {
            let i = n % 4;
            let src = if n % 2 == 0 {
                format!("m{i}.update({n})\n")
            } else {
                format!("a{i} = a{i} * 1.0001\n")
            };
            newest = run.cell(&src);
        } else {
            let distance = 1 + run.rng.random_range(0..6u32).min(run.rng.random_range(0..6u32));
            let mut target = NodeId(newest.0.saturating_sub(distance).max(first.0));
            if target == run.session().head() {
                target = newest;
            }
            run.checkout(target);
        }
    }
    run.finish()
}

/// A shared frame, then 6 branches that each add 2 models of 16 KiB; then
/// 24 round-robin branch switches, each followed by a prediction, with a
/// read cache smaller than the working set, so most switches miss.
fn branch_cold(workers: usize) -> Ledger {
    let mut run = Run::new(workers, 64 << 10, 33);
    run.open();
    let base = run.cell("df = read_csv('shared', 500, 8, 7)\n");
    let mut tips = Vec::new();
    for branch in 0..6 {
        if branch > 0 {
            run.checkout(base);
        }
        let model = |k: usize| format!("m{k} = lib_obj('sk.RandomForestClassifier', {SMALL_BYTES}, {})\n", branch * 2 + k);
        tips.push(run.cell(&(model(0) + &model(1))));
    }
    for step in 0..24 {
        let branch = step % tips.len();
        run.checkout(tips[branch]);
        let k = run.rng.random_range(0..2u32);
        tips[branch] = run.cell(&format!("pred = m{k}.predict({})\n", 256 + step));
    }
    run.finish()
}

/// 1,000 one-line cells over five lists and five dicts: every 10th is
/// undone and redone, so history stays linear, and every 100th persists
/// the graph; the session ends with a restart. The walks of the first and
/// last 100 cells show how per-cell graph work grows with history.
fn long_session(workers: usize) -> Ledger {
    let mut run = Run::new(workers, KishuConfig::default().checkout_cache_bytes, 44);
    run.open();
    for k in 0..1000u64 {
        let c = k % 5;
        let v = run.rng.random_range(0..1000u32);
        let src = match k {
            0..=4 => format!("l{c} = [{v}]\n"),
            5..=9 => format!("d{c} = {{'a': {v}}}\n"),
            _ => match run.rng.random_range(0..4u32) {
                0 => format!("l{c}.append({v})\n"),
                1 => format!("l{c}[0] = {v}\n"),
                2 => format!("d{c}['k{}'] = {v}\n", v % 8),
                _ => format!("x{k} = {v} * 2\n"),
            },
        };
        run.cell(&src);
        if k % 10 == 9 {
            run.undo_redo();
        }
        if k % 100 == 99 {
            run.persist();
        }
    }
    run.restart();
    let first: u64 = run.cell_walks[..100].iter().sum();
    let last: u64 = run.cell_walks[run.cell_walks.len() - 100..].iter().sum();
    run.add("walk.first_100_cells", first);
    run.add("walk.last_100_cells", last);
    run.finish()
}

#[test]
fn work_matches_the_committed_ledger() {
    let workloads: [(&str, Workload); 4] = [
        ("notebooks", notebooks),
        ("undo_hot", undo_hot),
        ("branch_cold", branch_cold),
        ("long_session", long_session),
    ];
    let mut now = Ledger::new();
    for (name, workload) in workloads {
        let serial = workload(1);
        assert_eq!(serial, workload(4), "{name}: the ledger depends on the pipeline width");
        now.extend(serial.into_iter().map(|(key, n)| (format!("{name}/{key}"), n)));
    }
    let fresh = Json::Object(now.iter().map(|(k, &n)| (k.clone(), Json::Int(n as i64))).collect());

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/LEDGER.json");
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let committed: Ledger = match Json::parse(&text) {
        Ok(Json::Object(counts)) => counts
            .iter()
            .map(|(k, n)| (k.clone(), n.as_u64().unwrap_or_else(|| panic!("LEDGER.json: {k}"))))
            .collect(),
        _ => Ledger::new(),
    };
    let mut diffs = Vec::new();
    for (key, &want) in &committed {
        match now.get(key) {
            Some(&got) if got == want => {}
            Some(&got) => diffs.push(format!("  {key}: {want} -> {got}")),
            None => diffs.push(format!("  {key}: {want} -> missing")),
        }
    }
    for (key, got) in &now {
        if !committed.contains_key(key) {
            diffs.push(format!("  {key}: new -> {got}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "the work ledger differs from LEDGER.json:\n{}\n\nIf the change is meant to move these \
         counts, replace LEDGER.json with the fresh ledger below and say why in CHANGES.md:\n{}\n",
        diffs.join("\n"),
        fresh.pretty()
    );
}
