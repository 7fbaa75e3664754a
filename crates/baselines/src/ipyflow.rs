//! IPyFlow-style hybrid static/dynamic lineage tracking (§2.4, §7.6).
//!
//! Provenance trackers instrument the *program*: static AST analysis plus
//! live symbol resolution at runtime, executed for **every statement** —
//! including every loop iteration and every statement inside called
//! functions. This observer reproduces that cost model through the minipy
//! interpreter's [`ExecutionObserver`] hooks:
//!
//! * `on_stmt` performs the per-statement work (re-extracting the symbols
//!   the statement references — the "AST analysis with live resolution");
//! * `on_name_load`/`on_name_store` perform per-symbol live resolution
//!   against the heap.
//!
//! The accumulated wall time is the method's tracking overhead (Table 6 /
//! Fig 17). A resolution budget models the paper's observed failure mode
//! ("IPyFlow hangs indefinitely" on StoreSales cell 27): exceeding it marks
//! the tracker failed for the remainder of the notebook.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use kishu_kernel::{Heap, ObjId, ObjKind};
use kishu_minipy::ast::{Stmt, Target};
use kishu_minipy::observer::ExecutionObserver;

/// Live state of one tracked symbol: the reactive-execution bookkeeping a
/// real tracker maintains per symbol per event (version counter, the object
/// it currently resolves to, and the statement dependencies last observed).
#[derive(Debug, Clone, Default)]
struct SymbolState {
    version: u64,
    resolved: Option<ObjId>,
    deps: Vec<String>,
}

/// The IPyFlow-style tracking baseline.
#[derive(Debug)]
pub struct IpyflowTracker {
    /// Accumulated instrumentation wall time.
    pub overhead: Duration,
    /// Number of symbol resolutions performed.
    pub resolutions: u64,
    /// Statements instrumented.
    pub stmts_seen: u64,
    /// Whether the tracker exceeded its budget (the simulated hang).
    pub failed: bool,
    budget: Option<u64>,
    // Accumulator that keeps the resolution work observable (prevents the
    // optimizer from deleting it).
    fingerprint: u64,
    /// The live symbol table (per-symbol versions + dependency edges).
    symbols: HashMap<String, SymbolState>,
}

impl Default for IpyflowTracker {
    fn default() -> Self {
        Self::new(None)
    }
}

impl IpyflowTracker {
    /// New tracker. `budget` caps the number of symbol resolutions in one
    /// notebook before the tracker is considered hung (Table 6's FAIL).
    pub fn new(budget: Option<u64>) -> Self {
        IpyflowTracker {
            overhead: Duration::ZERO,
            resolutions: 0,
            stmts_seen: 0,
            failed: false,
            budget,
            fingerprint: 0,
            symbols: HashMap::new(),
        }
    }

    /// Opaque digest of all resolution work (used by tests and to keep the
    /// work live).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn resolve(&mut self, heap: &Heap, name: &str, obj: ObjId) {
        // Live symbol resolution: inspect the symbol's current object —
        // identity, type, and top-level children — and refresh its entry in
        // the symbol table (version bump, re-resolved target, dependency
        // edges). This per-event bookkeeping is the tracker's real cost:
        // it happens on every name event of every executed statement.
        let addr = heap.addr(obj);
        let kind = heap.kind(obj);
        let extent = match kind {
            ObjKind::List(v) | ObjKind::Tuple(v) | ObjKind::Set(v) => v.len() as u64,
            ObjKind::Dict(p) => p.len() as u64,
            ObjKind::NdArray(v) => v.len() as u64,
            ObjKind::Str(s) => s.len() as u64,
            ObjKind::Int(v) => *v as u64,
            ObjKind::External(ext) => ext.epoch,
            _ => 1,
        };
        // First-level child scan (sub-variable symbols like `ls[x]`).
        let mut child_digest = 0u64;
        for child in kind.children().iter().take(16) {
            child_digest = child_digest
                .rotate_left(5)
                .wrapping_add(heap.addr(*child));
        }
        let entry = self.symbols.entry(name.to_string()).or_default();
        entry.version += 1;
        entry.resolved = Some(obj);
        self.fingerprint = self
            .fingerprint
            .rotate_left(7)
            .wrapping_add(addr ^ extent.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(child_digest)
            .wrapping_add(entry.version);
        self.resolutions += 1;
    }

    fn charge(&mut self, start: Instant) {
        self.overhead += start.elapsed();
        if let Some(budget) = self.budget {
            if self.resolutions > budget {
                self.failed = true;
            }
        }
    }
}

/// Collect the names an individual statement references (not descending
/// into nested blocks — those statements get their own `on_stmt` events).
fn stmt_names(stmt: &Stmt, out: &mut Vec<String>) {
    let target_names = |t: &Target, out: &mut Vec<String>| match t {
        Target::Name(n) => {
            if !out.contains(n) {
                out.push(n.clone());
            }
        }
        Target::Attr(e, _) => e.referenced_names(out),
        Target::Index(e, i) => {
            e.referenced_names(out);
            i.referenced_names(out);
        }
    };
    match stmt {
        Stmt::Expr(e) => e.referenced_names(out),
        Stmt::Assign { target, value } => {
            target_names(target, out);
            value.referenced_names(out);
        }
        Stmt::AugAssign { target, value, .. } => {
            target_names(target, out);
            value.referenced_names(out);
        }
        Stmt::Del(targets) => {
            for t in targets {
                target_names(t, out);
            }
        }
        Stmt::If { arms, .. } => {
            for (cond, _) in arms {
                cond.referenced_names(out);
            }
        }
        Stmt::While { cond, .. } => cond.referenced_names(out),
        Stmt::For { iter, .. } => iter.referenced_names(out),
        Stmt::Return(Some(e)) => e.referenced_names(out),
        Stmt::FuncDef { .. }
        | Stmt::Return(None)
        | Stmt::Global(_)
        | Stmt::Pass
        | Stmt::Break
        | Stmt::Continue => {}
    }
}

impl ExecutionObserver for IpyflowTracker {
    fn on_stmt(&mut self, _heap: &Heap, stmt: &Stmt) {
        let start = Instant::now();
        // Static analysis per executed statement: (re-)extract the symbols
        // it references. The hybrid tracker repeats this on every loop
        // iteration — the cost §7.6 measures.
        let mut names = Vec::new();
        stmt_names(stmt, &mut names);
        // Refresh dependency edges for every symbol this statement touches
        // (the reactive-execution graph maintenance real trackers pay for).
        for n in &names {
            self.fingerprint = self
                .fingerprint
                .rotate_left(3)
                .wrapping_add(crate::ipyflow::cheap_hash(n));
            let deps: Vec<String> = names.iter().filter(|m| *m != n).cloned().collect();
            let entry = self.symbols.entry(n.clone()).or_default();
            entry.deps = deps;
        }
        self.stmts_seen += 1;
        self.charge(start);
    }

    fn on_name_load(&mut self, heap: &Heap, name: &str, obj: Option<ObjId>) {
        let start = Instant::now();
        if let Some(obj) = obj {
            self.resolve(heap, name, obj);
        }
        self.charge(start);
    }

    fn on_name_store(&mut self, heap: &Heap, name: &str, obj: ObjId) {
        let start = Instant::now();
        self.resolve(heap, name, obj);
        self.charge(start);
    }
}

pub(crate) fn cheap_hash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_minipy::Interp;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn tracked_run(src: &str, budget: Option<u64>) -> (Interp, Rc<RefCell<IpyflowTracker>>) {
        let mut i = Interp::new();
        let tracker = Rc::new(RefCell::new(IpyflowTracker::new(budget)));
        i.add_observer(tracker.clone());
        let out = i.run_cell(src).expect("parses");
        assert!(out.error.is_none(), "{:?}", out.error);
        (i, tracker)
    }

    #[test]
    fn cost_scales_with_loop_iterations() {
        let (_, small) = tracked_run("s = 0\nfor k in range(10):\n    s += k\n", None);
        let (_, big) = tracked_run("s = 0\nfor k in range(10000):\n    s += k\n", None);
        let small = small.borrow();
        let big = big.borrow();
        assert!(big.stmts_seen > 100 * small.stmts_seen / 2);
        assert!(big.resolutions > small.resolutions * 50);
        // The accumulated overhead grows with the work.
        assert!(big.overhead >= small.overhead);
    }

    #[test]
    fn function_bodies_are_instrumented() {
        let (_, t) = tracked_run(
            "def f(n):\n    total = 0\n    for k in range(n):\n        total += k\n    return total\nx = f(500)\n",
            None,
        );
        assert!(t.borrow().stmts_seen > 500, "statements inside the call are seen");
    }

    #[test]
    fn budget_exhaustion_marks_failure() {
        let (_, t) = tracked_run("s = 0\nfor k in range(1000):\n    s += k\n", Some(100));
        assert!(t.borrow().failed, "simulated hang on a complex cell");
        let (_, t) = tracked_run("x = 1\n", Some(100));
        assert!(!t.borrow().failed);
    }

    #[test]
    fn straight_line_cells_are_cheap() {
        let (_, t) = tracked_run("a = 1\nb = a + 1\n", None);
        let t = t.borrow();
        assert_eq!(t.stmts_seen, 2);
        assert!(t.resolutions >= 3); // store a, load a, store b
    }

    #[test]
    fn fingerprint_depends_on_state() {
        let (_, t1) = tracked_run("x = [1, 2, 3]\ny = x\n", None);
        let (_, t2) = tracked_run("x = [1, 2, 3, 4]\ny = x\n", None);
        assert_ne!(t1.borrow().fingerprint(), t2.borrow().fingerprint());
    }
}
