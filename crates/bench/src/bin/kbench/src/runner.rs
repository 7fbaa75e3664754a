//! Runs one round of a workload script against real sessions on a
//! `FileStore`, timing every public call and checking every restored state.
//!
//! Load is a closed loop: one simulated user with zero think time drives
//! one session at a time from this thread. Benchmark bookkeeping
//! (namespace fingerprints and, in the traced run, the per-layer shadow
//! reads) runs outside the timed calls, and its wall and CPU time are
//! subtracted from the round's set-up, `wall_s` and `cpu_s`.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kishu::session::{KishuConfig, KishuSession};
use kishu::xxh64::xxh64;
use kishu::NodeId;
use kishu_minipy::repr::repr;
use kishu_storage::{CheckpointStore, ChunkConfig, FileStore};
use kishu_testkit::json::Json;

use crate::clock::{Reading, Span};
use crate::metrics::Layers;
use crate::timed_store::{SharedTimes, StoreTimes, TimedStore};
use crate::workloads::{Op, Script, SessionScript};

/// Checkpoint and restore pool width, pinned so results do not depend on
/// the machine's core count (2 is `nproc` on the reference machine). The
/// pools are scoped and the session thread blocks while they run, so at
/// most this many threads run at once.
pub const WORKERS: usize = 2;
/// Checkout read-cache budget.
pub const CACHE_BYTES: u64 = 32 << 20;
/// Group commit on: one file write per barrier. The session barriers at
/// every commit and every persist; nothing fsyncs (`sync_on_put` off).
pub const GROUP_COMMIT: bool = true;
/// The traced run shadow-calls `state_at(head)` after every this many cells.
const STATE_AT_EVERY: u64 = 20;

/// The session configuration every run uses, with every field set here
/// rather than read from the environment. Fields are assigned one by one
/// so that a field added to `KishuConfig` later keeps its default and the
/// benchmark keeps building.
#[allow(clippy::field_reassign_with_default)]
pub fn kishu_config() -> KishuConfig {
    let mut c = KishuConfig::default();
    c.check_all = false;
    c.hash_arrays = true;
    c.auto_checkpoint = true;
    c.blocklist = BTreeSet::new();
    c.gc_after_cell = true;
    c.rule_based_cells = false;
    c.hash_primitive_lists = false;
    c.defer_serialization = false;
    c.store_retries = 2;
    c.checkpoint_workers = WORKERS;
    c.dedup_blobs = true;
    c.restore_workers = WORKERS;
    c.checkout_cache_bytes = CACHE_BYTES;
    c.minipy_vm = true;
    c
}

/// Create (or reopen) a session's store; traced runs wrap it in a
/// [`TimedStore`] reporting into `times`.
fn open_store(
    path: &Path,
    create: bool,
    times: Option<&SharedTimes>,
) -> io::Result<Box<dyn CheckpointStore>> {
    let mut store = if create {
        FileStore::create_with(path, ChunkConfig::default(), GROUP_COMMIT)?
    } else {
        FileStore::open_with(path, ChunkConfig::default(), GROUP_COMMIT)?
    };
    store.set_sync_on_put(false);
    Ok(match times {
        Some(times) => Box::new(TimedStore::new(store, times.clone())),
        None => Box::new(store),
    })
}

/// xxh64 over the sorted `(name, repr)` pairs of the session's globals.
pub fn fingerprint(s: &KishuSession) -> u64 {
    let mut pairs: Vec<(&str, String)> = s
        .interp
        .globals
        .bindings()
        .map(|(name, obj)| (name, without_identity(repr(&s.interp.heap, obj))))
        .collect();
    pairs.sort();
    let mut buf = Vec::new();
    for (name, r) in pairs {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(r.as_bytes());
        buf.push(0);
    }
    xxh64(&buf, 0)
}

/// Drop the identity token from generator reprs (`<generator at 0x2a>`):
/// a generator cannot be pickled, so checkout recreates it by re-running
/// its cell, and the new object's token differs while its value does not.
fn without_identity(repr: String) -> String {
    const MARK: &str = "<generator at 0x";
    if !repr.contains(MARK) {
        return repr;
    }
    let mut out = String::with_capacity(repr.len());
    let mut rest = repr.as_str();
    while let Some(i) = rest.find(MARK) {
        out.push_str(&rest[..i]);
        out.push_str("<generator");
        rest = rest[i + MARK.len()..].trim_start_matches(|c: char| c.is_ascii_hexdigit());
    }
    out.push_str(rest);
    out
}

/// A point on the traced run's graph-growth series, taken at each persist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Growth {
    pub nodes: usize,
    pub state_at_ms: f64,
    pub snapshot_kb: f64,
}

/// Everything one round measured.
#[derive(Debug, Default, PartialEq)]
pub struct RoundResult {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub physical_bytes: u64,
    pub logical_bytes: u64,
    pub cell_ms: Vec<f64>,
    pub checkout_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub resume_ms: Vec<f64>,
    /// Wall time inside timed calls, for the traced run's overhead.
    pub call_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Cells that raised inside the notebook code (not failures).
    pub cell_errors: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub layers: Layers,
    pub growth: Vec<Growth>,
    /// Peak resident set of the process that ran the round, KiB.
    pub peak_rss_kib: u64,
}

impl RoundResult {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }

    /// The result as JSON, for handing a round from the child process that
    /// ran it to the run that aggregates it.
    pub fn to_json(&self) -> Json {
        let floats = |xs: &[f64]| Json::Array(xs.iter().map(|&x| Json::Float(x)).collect());
        let int = |n: u64| Json::Int(n as i64);
        Json::obj(vec![
            ("setup_s", Json::Float(self.setup_s)),
            ("wall_s", Json::Float(self.wall_s)),
            ("cpu_s", Json::Float(self.cpu_s)),
            ("physical_bytes", int(self.physical_bytes)),
            ("logical_bytes", int(self.logical_bytes)),
            ("cell_ms", floats(&self.cell_ms)),
            ("checkout_ms", floats(&self.checkout_ms)),
            ("query_ms", floats(&self.query_ms)),
            ("resume_ms", floats(&self.resume_ms)),
            ("call_ns", int(self.call_ns)),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("cell_errors", int(self.cell_errors)),
            (
                "failures",
                Json::Array(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("layers", self.layers.to_json()),
            (
                "growth",
                Json::Array(
                    self.growth
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("nodes", int(g.nodes as u64)),
                                ("state_at_ms", Json::Float(g.state_at_ms)),
                                ("snapshot_kb", Json::Float(g.snapshot_kb)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("peak_rss_kib", int(self.peak_rss_kib)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<RoundResult, String> {
        let missing = |key: &str| format!("round result: missing or malformed {key}");
        let float = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| missing(key))
        };
        let int = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| missing(key))
        };
        let array = |key: &str| {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| missing(key))
        };
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            array(key)?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| missing(key)))
                .collect()
        };
        Ok(RoundResult {
            setup_s: float(json, "setup_s")?,
            wall_s: float(json, "wall_s")?,
            cpu_s: float(json, "cpu_s")?,
            physical_bytes: int("physical_bytes")?,
            logical_bytes: int("logical_bytes")?,
            cell_ms: floats("cell_ms")?,
            checkout_ms: floats("checkout_ms")?,
            query_ms: floats("query_ms")?,
            resume_ms: floats("resume_ms")?,
            call_ns: int("call_ns")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            cell_errors: int("cell_errors")?,
            failures: array("failures")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| missing("failures"))
                })
                .collect::<Result<_, _>>()?,
            layers: Layers::from_json(json.get("layers").ok_or_else(|| missing("layers"))?)?,
            growth: array("growth")?
                .iter()
                .map(|g| {
                    Ok(Growth {
                        nodes: g
                            .get("nodes")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| missing("growth"))?
                            as usize,
                        state_at_ms: float(g, "state_at_ms")?,
                        snapshot_kb: float(g, "snapshot_kb")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            peak_rss_kib: int("peak_rss_kib")?,
        })
    }
}

/// Run every session of `script` with its stores under `dir`.
pub fn run_round(script: &Script, dir: &Path, traced: bool) -> io::Result<RoundResult> {
    std::fs::create_dir_all(dir)?;
    let mut out = RoundResult::default();
    for (i, session) in script.sessions.iter().enumerate() {
        let path = dir.join(format!("session{i}.log"));
        Exec::run(session, &path, traced, &mut out);
    }
    Ok(out)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

const MIB: f64 = (1u64 << 20) as f64;

const CELL_CLOCKS: [&str; 3] = [
    "session.cell_cpu_ms",
    "session.cell_offcpu_ms",
    "session.cell_worker_cpu_ms",
];
const CHECKOUT_CLOCKS: [&str; 3] = [
    "session.checkout_cpu_ms",
    "session.checkout_offcpu_ms",
    "session.checkout_worker_cpu_ms",
];

struct Exec<'r> {
    traced: bool,
    path: PathBuf,
    times: Option<SharedTimes>,
    session: Option<KishuSession>,
    /// Namespace fingerprint recorded at each commit.
    fps: HashMap<u32, u64>,
    /// Whether ops are in the timed phase (samples and layers recorded).
    timed: bool,
    cells: u64,
    logical: u64,
    /// Wall and process-CPU time spent on bookkeeping.
    book: Span,
    out: &'r mut RoundResult,
}

impl<'r> Exec<'r> {
    /// Set up and run one session: `setup` counts toward the round's set-up
    /// time, `phase` toward its timed phase.
    fn run(script: &SessionScript, path: &Path, traced: bool, out: &'r mut RoundResult) {
        let start = Reading::now(true);
        let Some(mut exec) = Exec::new(path, traced, out) else {
            return;
        };
        exec.ops(&script.setup);
        let setup = start.to(Reading::now(true));
        exec.out.setup_s += (setup.wall_ns.saturating_sub(exec.book.wall_ns)) as f64 / 1e9;

        exec.book = Span::default();
        exec.timed = true;
        let store_before = exec.store_times();
        let start = Reading::now(true);
        exec.ops(&script.phase);
        let phase = start.to(Reading::now(true));
        exec.out.wall_s += (phase.wall_ns.saturating_sub(exec.book.wall_ns)) as f64 / 1e9;
        exec.out.cpu_s += (phase.process_ns.saturating_sub(exec.book.process_ns)) as f64 / 1e9;
        exec.finish(store_before);
    }

    /// A fresh session on a new store at `path`; `None` (and a failure
    /// recorded) when the store cannot be created.
    fn new(path: &Path, traced: bool, out: &'r mut RoundResult) -> Option<Self> {
        let times = traced.then(SharedTimes::default);
        let store = match open_store(path, true, times.as_ref()) {
            Ok(store) => store,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("create store {}: {e}", path.display()));
                return None;
            }
        };
        let mut exec = Exec {
            traced,
            path: path.to_path_buf(),
            times,
            session: Some(KishuSession::new(store, kishu_config())),
            fps: HashMap::new(),
            timed: false,
            cells: 0,
            logical: 0,
            book: Span::default(),
            out,
        };
        exec.bookkeep(|e| {
            let fp = fingerprint(e.session());
            e.fps.insert(0, fp);
        });
        Some(exec)
    }

    fn session(&mut self) -> &mut KishuSession {
        self.session
            .as_mut()
            .expect("ops stop once a session is lost")
    }

    /// Run `f` as bookkeeping: its time is excluded from the measurements.
    fn bookkeep<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Reading::now(true);
        let out = f(self);
        let span = start.to(Reading::now(true));
        self.book.wall_ns += span.wall_ns;
        self.book.process_ns += span.process_ns;
        out
    }

    fn store_times(&self) -> StoreTimes {
        self.times.as_ref().map(|t| *t.borrow()).unwrap_or_default()
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        if self.traced && self.timed {
            self.out.layers.add(name, value);
        }
    }

    fn ops(&mut self, ops: &[Op]) {
        for (i, op) in ops.iter().enumerate() {
            if self.session.is_none() {
                let lost = (ops.len() - i) as u64;
                self.out.attempted += lost;
                self.out.failed += lost;
                return;
            }
            self.out.attempted += 1;
            match op {
                Op::Cell { src, node } => self.cell(src, *node),
                Op::Checkout { target } => self.checkout(*target),
                Op::Query { target, var } => self.query(*target, var),
                Op::Persist => self.persist(),
                Op::Restart => self.restart(),
            }
        }
    }

    /// Record a failure, naming the session's store.
    fn fail(&mut self, msg: String) {
        let store = self
            .path
            .file_stem()
            .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
        self.out.fail(format!("{store}: {msg}"));
    }

    /// Record one timed call's three clocks under `names` (session-thread
    /// CPU, off-CPU, worker CPU).
    fn sample(&mut self, span: &Span, names: [&'static str; 3]) {
        if !self.timed {
            return;
        }
        self.out.call_ns += span.wall_ns;
        self.layer(names[0], ms(span.thread_ns));
        self.layer(names[1], ms(span.offcpu_ns()));
        self.layer(names[2], ms(span.worker_cpu_ns()));
    }

    /// Compare the live namespace with the one recorded when `node` was
    /// committed.
    fn verify(&mut self, node: u32, what: &str) {
        let fp = self.bookkeep(|e| fingerprint(e.session()));
        if self.fps.get(&node) != Some(&fp) {
            self.fail(format!(
                "{what} to node {node}: namespace differs from its commit"
            ));
        }
    }

    fn cell(&mut self, src: &str, node: u32) {
        let traced = self.traced && self.timed;
        let allocs_before = if traced {
            self.bookkeep(|e| e.session().interp.heap.stats().total_allocated)
        } else {
            0
        };
        let start = Reading::now(traced);
        let result = self.session().run_cell(src);
        let span = start.to(Reading::now(traced));
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.fail(format!("cell {node} did not parse: {e:?}"));
                return;
            }
        };
        // A cell that raises is the notebook's own doing (a replayed
        // `df.drop('c')` finds the column gone); Kishu must checkpoint its
        // partial effects all the same, so it is counted, not failed.
        if report.outcome.error.is_some() {
            self.out.cell_errors += 1;
        }
        if report.node != Some(NodeId(node)) {
            self.fail(format!(
                "cell committed {:?}, expected node {node}",
                report.node
            ));
        }
        self.logical += report.checkpoint_bytes;
        if self.timed {
            self.out.cell_ms.push(ms(span.wall_ns));
            self.sample(&span, CELL_CLOCKS);
            self.cells += 1;
        }
        if traced {
            let (allocs_after, candidates) = self.bookkeep(|e| {
                let s = e.session();
                let candidates = s.metrics().cells.last().map_or(0, |c| c.candidates_checked);
                (s.interp.heap.stats().total_allocated, candidates)
            });
            self.layer(
                "minipy.exec_ms",
                report.outcome.wall_time.as_secs_f64() * 1e3,
            );
            self.layer(
                "minipy.allocs_per_cell",
                allocs_after.saturating_sub(allocs_before) as f64,
            );
            self.layer("delta.track_ms", report.tracking_time.as_secs_f64() * 1e3);
            self.layer("delta.candidates_per_cell", candidates as f64);
            self.layer("delta.updated_per_cell", report.updated.len() as f64);
            self.layer("ckpt.serialize_ms", ms(report.serialize_ns));
            self.layer("ckpt.logical_mb", report.checkpoint_bytes as f64 / MIB);
            self.layer("ckpt.dedup_hits", report.blobs_deduped as f64);
            self.layer("ckpt.dropped", report.blobs_dropped as f64);
            self.layer(
                "store.compress_saved_mb",
                report.bytes_compressed as f64 / MIB,
            );
            let commit_ns = report
                .ckpt_wall_ns
                .saturating_sub(report.serialize_ns + report.write_ns);
            self.layer("ckpt.commit_ms", ms(commit_ns));
            if self.cells.is_multiple_of(STATE_AT_EVERY) {
                let t = self.state_at_ms();
                self.layer("graph.state_at_ms", t);
            }
        }
        self.bookkeep(|e| {
            let fp = fingerprint(e.session());
            e.fps.insert(node, fp);
        });
    }

    /// Shadow-call `state_at(head)` (bookkeeping) and return its time.
    fn state_at_ms(&mut self) -> f64 {
        self.bookkeep(|e| {
            let s = e.session();
            let start = Instant::now();
            let state = s.graph().state_at(s.head());
            let t = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(state);
            t
        })
    }

    fn checkout(&mut self, target: u32) {
        let traced = self.traced && self.timed;
        let start = Reading::now(traced);
        let result = self.session().checkout(NodeId(target));
        let span = start.to(Reading::now(traced));
        match result {
            Err(e) => self.fail(format!("checkout to node {target} failed: {e}")),
            Ok(report) => {
                if report.integrity_failures > 0 {
                    self.fail(format!(
                        "checkout to node {target}: {} integrity failures on a fault-free store",
                        report.integrity_failures
                    ));
                }
                if self.timed {
                    self.out.checkout_ms.push(ms(span.wall_ns));
                    self.sample(&span, CHECKOUT_CLOCKS);
                }
                self.layer("checkout.fetch_ms", ms(report.fetch_ns));
                self.layer("checkout.verify_ms", ms(report.verify_ns));
                self.layer("checkout.apply_ms", ms(report.apply_ns));
                if traced {
                    self.out.layers.add_weighted(
                        "checkout.cache_hit_ratio",
                        report.blobs_cached as f64,
                        report.loaded.len() as f64,
                    );
                }
                self.layer("checkout.mb_loaded", report.bytes_loaded as f64 / MIB);
                self.layer("checkout.loaded_per_op", report.loaded.len() as f64);
                self.layer("checkout.identical_per_op", report.identical as f64);
                self.layer("checkout.recomputed", report.recomputed.len() as f64);
                self.layer(
                    "checkout.integrity_failures",
                    report.integrity_failures as f64,
                );
                self.verify(target, "checkout");
            }
        }
    }

    fn query(&mut self, target: u32, var: &str) {
        let s = self.session.as_mut().expect("checked by ops");
        let head = s.head();
        let start = Instant::now();
        let diff = s.diff(head, NodeId(target));
        let diff_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let history = s.history(var);
        let history_ns = start.elapsed().as_nanos() as u64;
        std::hint::black_box(history);
        if let Err(e) = diff {
            self.fail(format!("diff(t{}, t{target}) failed: {e}", head.0));
            return;
        }
        if self.timed {
            self.out.query_ms.push(ms(diff_ns + history_ns));
            self.out.call_ns += diff_ns + history_ns;
        }
        self.layer("query.diff_ms", ms(diff_ns));
        self.layer("query.history_ms", ms(history_ns));
    }

    fn persist(&mut self) {
        let start = Instant::now();
        let result = self.session().persist();
        let ns = start.elapsed().as_nanos() as u64;
        if let Err(e) = result {
            self.fail(format!("persist failed: {e}"));
        }
        if self.timed {
            self.out.call_ns += ns;
        }
        self.layer("graph.persist_ms", ms(ns));
        if self.traced && self.timed {
            let (nodes, snapshot_kb) = self.bookkeep(|e| {
                let g = e.session().graph();
                (g.len(), g.to_json().dump().len() as f64 / 1024.0)
            });
            let state_at_ms = self.state_at_ms();
            self.layer("graph.snapshot_kb", snapshot_kb);
            self.out.growth.push(Growth {
                nodes,
                state_at_ms,
                snapshot_kb,
            });
        }
    }

    /// Drop the session, reopen its store and resume it: a kernel restart.
    fn restart(&mut self) {
        let head = self.session().head().0;
        self.health();
        let start = Instant::now();
        drop(self.session.take());
        let open_start = Instant::now();
        let store = open_store(&self.path, false, self.times.as_ref());
        let open_ns = open_start.elapsed().as_nanos() as u64;
        let resume_start = Instant::now();
        let resumed = store.map_err(|e| e.to_string()).and_then(|store| {
            KishuSession::resume(store, kishu_config()).map_err(|e| e.to_string())
        });
        let resume_ns = resume_start.elapsed().as_nanos() as u64;
        let ns = start.elapsed().as_nanos() as u64;
        match resumed {
            Ok(s) => self.session = Some(s),
            Err(e) => {
                self.fail(format!("restart failed: {e}"));
                return;
            }
        }
        if self.timed {
            self.out.resume_ms.push(ms(ns));
            self.out.call_ns += ns;
        }
        self.layer("store.open_ms", ms(open_ns));
        self.layer("graph.resume_ms", ms(resume_ns));
        self.verify(head, "resume");
    }

    /// Fold the live session's diff-memo counters into the layers (before
    /// a restart discards them, and at the end).
    fn health(&mut self) {
        if !(self.traced && self.timed) {
            return;
        }
        let h = self.bookkeep(|e| e.session().health());
        self.out.layers.add_weighted(
            "query.diff_cache_hit_ratio",
            h.diff_cache_hits as f64,
            (h.diff_cache_hits + h.diff_cache_misses) as f64,
        );
    }

    fn finish(mut self, store_before: StoreTimes) {
        self.out.logical_bytes += self.logical;
        let Some(s) = self.session.as_ref() else {
            return;
        };
        let stats = s.store_stats();
        self.out.physical_bytes += stats.physical_bytes;
        if !self.traced {
            return;
        }
        self.health();
        let s = self.session.as_ref().expect("checked above");
        let nodes = s.graph().len();
        let chunks = s.store().chunk_stats().unwrap_or_default();
        let t = self.store_times();
        let l = &mut self.out.layers;
        l.add("graph.nodes", nodes as f64);
        l.add("store.physical_mb", stats.physical_bytes as f64 / MIB);
        l.add_weighted(
            "store.chunk_dedup_ratio",
            chunks.chunk_refs as f64,
            chunks.chunks as f64,
        );
        l.add(
            "store.put_count",
            (t.put_count - store_before.put_count) as f64,
        );
        l.add(
            "store.put_mb",
            (t.put_bytes - store_before.put_bytes) as f64 / MIB,
        );
        l.add("store.put_ms", ms(t.put_ns - store_before.put_ns));
        l.add(
            "store.get_count",
            (t.get_count - store_before.get_count) as f64,
        );
        l.add(
            "store.get_mb",
            (t.get_bytes - store_before.get_bytes) as f64 / MIB,
        );
        l.add("store.get_ms", ms(t.get_ns - store_before.get_ns));
        l.add(
            "store.barrier_count",
            (t.barrier_count - store_before.barrier_count) as f64,
        );
        l.add(
            "store.barrier_ms",
            ms(t.barrier_ns - store_before.barrier_ns),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Op;

    fn scripted() -> SessionScript {
        let cells = [
            "xs = [1, 2, 3]\n",
            "m = lib_obj('sk.LogisticRegression', 40000, 3)\n",
            "xs.append(4)\n",
            "m.update(1)\n",
            "frame = read_csv('t', 500, 4, 9)\n",
            "y = len(xs) * 2\n",
        ];
        let mut phase: Vec<Op> = cells
            .iter()
            .enumerate()
            .map(|(i, src)| Op::Cell {
                src: src.to_string(),
                node: i as u32 + 1,
            })
            .collect();
        phase.extend([
            Op::Checkout { target: 2 },
            Op::Query {
                target: 5,
                var: "xs".into(),
            },
            Op::Checkout { target: 6 },
            Op::Persist,
            Op::Restart,
        ]);
        SessionScript {
            setup: Vec::new(),
            phase,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn timed_store_is_transparent() {
        let dir = temp_dir("transparent");
        let script = Script {
            sessions: vec![scripted()],
        };
        let bare = run_round(&script, &dir.join("bare"), false).expect("bare round");
        let timed = run_round(&script, &dir.join("timed"), true).expect("timed round");
        let read =
            |arm: &str| std::fs::read(dir.join(arm).join("session0.log")).expect("store file");
        assert_eq!(
            read("bare"),
            read("timed"),
            "store files differ byte for byte"
        );
        assert_eq!(
            (bare.failed, timed.failed),
            (0, 0),
            "{:?} {:?}",
            bare.failures,
            timed.failures
        );
        assert_eq!(bare.attempted, timed.attempted);
        assert_eq!(bare.logical_bytes, timed.logical_bytes);
        assert_eq!(bare.physical_bytes, timed.physical_bytes);
        assert_eq!(bare.cell_ms.len(), timed.cell_ms.len());
        // The decorator saw every store call of the phase.
        let layers: HashMap<_, _> = timed
            .layers
            .values(1)
            .into_iter()
            .map(|(m, v)| (m.name, v))
            .collect();
        assert!(layers["store.put_count"] >= 6.0);
        assert!(layers["store.get_count"] >= 1.0);
        assert!(layers["store.barrier_count"] >= 6.0);
        // A round survives the trip between processes unchanged.
        let text = timed.to_json().dump();
        let back =
            RoundResult::from_json(&Json::parse(&text).expect("parses")).expect("round result");
        assert_eq!(back, timed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generator_identity_is_not_part_of_the_fingerprint() {
        assert_eq!(
            without_identity("[<generator at 0x1f>, <generator at 0xa>]".to_string()),
            "[<generator>, <generator>]"
        );
        assert_eq!(without_identity("'plain'".to_string()), "'plain'");
    }

    #[test]
    fn mismatches_and_errors_are_counted() {
        let dir = temp_dir("mismatch");
        let mut out = RoundResult::default();
        let mut exec = Exec::new(&dir.join("s.log"), false, &mut out).expect("store");
        exec.timed = true;
        exec.ops(&[
            Op::Cell {
                src: "x = 1\n".into(),
                node: 1,
            },
            Op::Cell {
                src: "x = 2\n".into(),
                node: 2,
            },
            Op::Checkout { target: 1 },
        ]);
        assert_eq!(exec.out.failed, 0, "{:?}", exec.out.failures);
        // A wrong expectation for node 2's namespace: the redo must flag it.
        exec.fps.insert(2, 0xBAD);
        exec.ops(&[Op::Checkout { target: 2 }]);
        assert_eq!(exec.out.failed, 1);
        // A cell committing another node than expected, and a checkout to
        // a node that does not exist, fail; a cell that raises does not.
        exec.ops(&[
            Op::Cell {
                src: "y = 1\n".into(),
                node: 9,
            },
            Op::Cell {
                src: "z = undefined_name\n".into(),
                node: 4,
            },
            Op::Checkout { target: 77 },
        ]);
        assert_eq!(exec.out.failed, 3, "{:?}", exec.out.failures);
        assert_eq!(exec.out.cell_errors, 1);
        assert_eq!(exec.out.attempted, 7);
        assert_eq!(
            exec.out.checkout_ms.len(),
            2,
            "failed calls record no latency"
        );
        drop(exec);
        std::fs::remove_dir_all(&dir).ok();
    }
}
