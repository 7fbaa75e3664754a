//! Exec-bound engine benchmark: bytecode VM vs tree-walking interpreter.
//!
//! Checkpoint/checkout experiments are dominated by serialization and
//! store I/O, so they barely see the execution engine. This experiment is
//! the opposite: pure-compute cells (tight function-local loops, deep
//! recursion, list building and reduction) with negligible namespace
//! traffic, so the wall time *is* the engine. The same cells run on a bare
//! [`Interp`] under each engine; the reprs of every result variable are
//! asserted identical before any number is reported — a benchmark that
//! computed different answers would be measuring nothing.
//!
//! The engines run in 9 back-to-back pairs, the order alternating per
//! pair ([`crate::report::alternating_pairs`]), and the gated number is
//! the median of the per-pair ratios:
//!
//! ```text
//! speedup = median over pairs of (tree wall ns / VM wall ns)
//! ```
//!
//! `repro interp` runs it at full scale (`--scale 1.0` unless overridden;
//! `KISHU_BENCH_QUICK=1` drops to 0.1 for the CI smoke), writes
//! `target/INTERP.json` with the lowest and highest pair beside the
//! median, and exits 1 when `speedup` misses [`MIN_SPEEDUP`].

use std::time::Instant;

use kishu_minipy::repr::repr;
use kishu_minipy::{Engine, Interp};
use kishu_testkit::json::Json;

use crate::report::{alternating_pairs, floor_verdict, fmt_duration, PairedRatios, Table};

/// One engine's run: wall time plus the result reprs (the cross-engine
/// correctness check).
#[derive(Debug, Clone)]
pub struct ArmRun {
    pub wall_ns: u64,
    pub results: Vec<(String, String)>,
}

/// The floor on [`InterpRun::speedup`] (release builds): the VM must run
/// exec-bound cells at least twice as fast as the tree-walker.
pub const MIN_SPEEDUP: f64 = 2.0;

/// Both engines plus the headline ratio.
#[derive(Debug, Clone)]
pub struct InterpRun {
    /// The tree-walker's fastest run.
    pub tree: ArmRun,
    /// The VM's fastest run.
    pub vm: ArmRun,
    /// Median over pairs of tree wall time over VM wall time (≥ 1.0 means
    /// the VM wins).
    pub speedup: f64,
    /// Every pair's ratio.
    pub ratios: PairedRatios,
}

/// The exec-bound cells. All loop trip counts scale linearly; at scale 1.0
/// the workload executes a few million statements, far under the 50M
/// per-cell iteration budget.
///
/// The mix is weighted toward constructs where the *engine* is the cost —
/// boolean logic, branches, calls, recursion — rather than the simulated
/// memory subsystem: every allocation goes through the paged heap on both
/// engines identically (allocation order is part of the differential
/// oracle), so allocation-dense arithmetic measures the heap, not the
/// interpreter. A container cell rides along at reduced weight for breadth.
/// Note each `def` sits in its own cell: minipy reconstructs function
/// bodies from cell source, and two defs in one cell break that
/// reconstruction (identically on both engines).
fn workload_cells(scale: f64) -> Vec<String> {
    let n = ((400_000.0 * scale) as u64).max(4_000);
    let fib = if scale >= 0.5 { 21 } else { 16 };
    let m = (n / 40).max(500);
    vec![
        // Container traffic at cell level: build a list, reduce it. A list
        // relocation costs only its own extent, so the cell would cost the
        // same after the loop cells' millions of allocations; it stays
        // first so the gated workload is the one earlier runs measured.
        format!(
            "xs = []\nfor i in range({m}):\n    xs.append(i * i)\nr5 = 0\nfor v in xs:\n    r5 = r5 + v\n"
        ),
        // Short-circuit boolean churn: `and`/`or` reuse their operands, so
        // this is nearly allocation-free — pure dispatch overhead.
        format!(
            "def logic(n):\n    t = True\n    f = False\n    for i in range(n):\n        t = (t and f) or (f or t) or (t and t) or f\n        f = (f or t) and t and (f or f or t)\n        f = not f\n        t = t or f\n    return t\nr1 = logic({n})\n"
        ),
        // Branch-heavy counting loop: truthiness tests and jumps.
        format!(
            "def branches(n):\n    a = True\n    b = False\n    c = True\n    hits = 0\n    for i in range(n):\n        if (a and c) or (b and a) or (c and b):\n            hits = hits + 1\n        a = b or c\n        b = a and c\n    return hits\nr2 = branches({n})\n"
        ),
        // Call-heavy loop: three frames per iteration — frame setup, arity
        // checks, and parameter binding are the engine-boundest work there
        // is (the tree pays a hashed-name locals map per frame, the VM a
        // slot array).
        "def leaf(a, b, c):\n    return a\n".to_string(),
        "def mid(a, b):\n    return leaf(a, b, leaf(b, a, a))\n".to_string(),
        format!(
            "def driver(n):\n    acc = 0\n    for i in range(n):\n        acc = mid(acc, i)\n    return acc\nr3 = driver({n})\n"
        ),
        // Deep recursion: the call path again, plus compares and arithmetic.
        format!(
            "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nr4 = fib({fib})\n"
        ),
    ]
}

/// Names whose reprs must agree across engines (everything the workload
/// binds and keeps).
const RESULTS: &[&str] = &["r1", "r2", "r3", "r4", "r5"];

/// Timed pairs. Six runs of one build on a 2-core x86-64 VM read
/// 1.74–2.30× as the ratio of each engine's best of 3 runs, the statistic
/// this replaced, and 2.04–2.60× as this median.
const PAIRS: usize = 9;

fn time_once(engine: Engine, cells: &[String]) -> ArmRun {
    let mut interp = Interp::new();
    interp.set_engine(engine);
    let start = Instant::now();
    for cell in cells {
        let outcome = interp.run_cell(cell).expect("interp workload parses");
        assert!(outcome.error.is_none(), "interp workload raised: {:?}", outcome.error);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let results = RESULTS
        .iter()
        .filter_map(|name| {
            interp
                .globals
                .bindings()
                .find(|(n, _)| n == name)
                .map(|(n, o)| (n.to_string(), repr(&interp.heap, o)))
        })
        .collect();
    ArmRun { wall_ns, results }
}

/// Run both engines on the identical workload in 9 pairs and cross-check
/// their results in every pair.
pub fn run(scale: f64) -> InterpRun {
    let cells = workload_cells(scale);
    let pairs = alternating_pairs(
        PAIRS,
        || time_once(Engine::Tree, &cells),
        || time_once(Engine::Vm, &cells),
    );
    for (tree, vm) in &pairs {
        assert_eq!(
            tree.results, vm.results,
            "engines disagreed on the bench workload — the numbers are void"
        );
    }
    let ratios = PairedRatios::new(
        pairs.iter().map(|(t, v)| t.wall_ns as f64 / (v.wall_ns as f64).max(1.0)).collect(),
    );
    let fastest = |arm: fn(&(ArmRun, ArmRun)) -> &ArmRun| {
        pairs.iter().map(arm).min_by_key(|r| r.wall_ns).expect("at least one pair ran").clone()
    };
    InterpRun {
        tree: fastest(|p| &p.0),
        vm: fastest(|p| &p.1),
        speedup: ratios.median(),
        ratios,
    }
}

impl InterpRun {
    /// `Ok` with a summary line when [`Self::speedup`] holds
    /// [`MIN_SPEEDUP`], else `Err` with the miss.
    pub fn check_floor(&self) -> Result<String, String> {
        let line = format!(
            "bytecode-VM speedup {:.2}x over the tree-walker, {} (floor {MIN_SPEEDUP}x)",
            self.speedup,
            self.ratios.summary()
        );
        floor_verdict(self.speedup >= MIN_SPEEDUP, line)
    }
}

/// Human-readable table for `repro interp`, from a completed run (so
/// `repro interp` renders the table *and* writes the JSON from one
/// execution of the workload).
pub fn table_from(r: &InterpRun) -> Table {
    let mut t = Table::new(
        "Interp",
        "bytecode VM vs tree-walker on exec-bound cells",
        &["Engine", "wall", "speedup"],
    );
    t.row(vec![
        "tree-walker".into(),
        fmt_duration(std::time::Duration::from_nanos(r.tree.wall_ns)),
        "1.00x".into(),
    ]);
    t.row(vec![
        "bytecode VM".into(),
        fmt_duration(std::time::Duration::from_nanos(r.vm.wall_ns)),
        format!("{:.2}x", r.speedup),
    ]);
    t.note(format!(
        "per-engine minima shown; speedup: {} of alternating runs; \
         identical results on both engines ({} variables checked); \
         differential oracle in tests/vm_differential.rs",
        r.ratios.summary(),
        r.tree.results.len()
    ));
    t
}

/// Machine-readable form of a completed run for `repro interp` (default
/// `target/INTERP.json`).
pub fn json_from(r: &InterpRun, scale: f64) -> Json {
    let mut fields = vec![
        ("schema", Json::Str("kishu-interp-v1".into())),
        ("scale", Json::Float(scale)),
        ("interp_tree_ns", Json::Int(r.tree.wall_ns as i64)),
        ("interp_vm_ns", Json::Int(r.vm.wall_ns as i64)),
    ];
    fields.extend(r.ratios.json_fields());
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar from the bytecode-VM work: exec-bound cells run
    /// at least 2x faster on the VM. The ratio is only meaningful with the
    /// optimizer on (dev builds leave kishu-minipy unoptimized, which
    /// shifts engine costs arbitrarily), so debug builds run the workload
    /// for cross-engine agreement without asserting the ratio; the
    /// full-scale number gates via `repro interp`.
    #[test]
    fn vm_beats_tree_on_exec_bound_cells() {
        let r = run(0.1);
        if cfg!(debug_assertions) {
            assert!(r.speedup > 0.0);
            return;
        }
        assert!(
            r.speedup >= MIN_SPEEDUP,
            "{:?} (tree {} ns, vm {} ns)",
            r.check_floor(),
            r.tree.wall_ns,
            r.vm.wall_ns
        );
    }

    #[test]
    fn json_reports_scale_and_speedup() {
        let j = json_from(&run(0.02), 0.02);
        assert_eq!(j.get("schema").and_then(|s| s.as_str()), Some("kishu-interp-v1"));
        assert!(j.get("scale").and_then(|s| s.as_f64()).is_some());
        assert_eq!(j.get("pairs").and_then(|s| s.as_i64()), Some(PAIRS as i64));
        let [lo, mid, hi] = ["speedup_min", "speedup", "speedup_max"]
            .map(|k| j.get(k).and_then(|s| s.as_f64()).expect(k));
        assert!(lo <= mid && mid <= hi, "{lo} <= {mid} <= {hi}");
    }
}
