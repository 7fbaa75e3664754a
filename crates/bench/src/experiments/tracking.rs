//! Table 6 (cumulative delta-tracking overhead) and Fig 17 (per-cell
//! tracking overhead): Kishu vs AblatedKishu (check-all) vs IPyFlow-style
//! instrumentation.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use kishu::session::{KishuConfig, KishuSession};
use kishu_baselines::ipyflow::IpyflowTracker;
use kishu_libsim::Registry;
use kishu_minipy::Interp;
use kishu_workloads::{all_notebooks, NotebookSpec};

use crate::report::{fmt_duration, Table};

/// A single-cell resolution budget above which the IPyFlow baseline is
/// considered hung (the paper's "FAIL on cell 27").
pub const IPYFLOW_CELL_BUDGET: u64 = 80_000;

/// One method's tracking cost on one notebook.
#[derive(Debug, Clone)]
pub struct TrackingRun {
    /// Per-cell (tracking overhead, cell runtime).
    pub cells: Vec<(Duration, Duration)>,
    /// Cell index at which the method failed, if any.
    pub failed_at: Option<usize>,
}

impl TrackingRun {
    /// Total tracking overhead.
    pub fn total(&self) -> Duration {
        self.cells.iter().map(|(t, _)| *t).sum()
    }

    /// Total cell runtime.
    pub fn runtime(&self) -> Duration {
        self.cells.iter().map(|(_, r)| *r).sum()
    }

    /// Overhead as a percentage of notebook runtime.
    pub fn percent(&self) -> f64 {
        let rt = self.runtime().as_secs_f64();
        if rt == 0.0 {
            0.0
        } else {
            100.0 * self.total().as_secs_f64() / rt
        }
    }
}

/// Run a notebook under Kishu's detector (optionally check-all), measuring
/// tracking time only (no checkpoint writing).
pub fn run_kishu_tracking(nb: &NotebookSpec, check_all: bool) -> TrackingRun {
    let config = KishuConfig {
        check_all,
        auto_checkpoint: false,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    let mut cells = Vec::with_capacity(nb.cells.len());
    for c in &nb.cells {
        let report = s.run_cell(&c.src).expect("workload parses");
        assert!(report.outcome.error.is_none(), "{:?}", report.outcome.error);
        cells.push((report.tracking_time, report.outcome.wall_time));
    }
    TrackingRun {
        cells,
        failed_at: None,
    }
}

/// Run a notebook under the IPyFlow-style tracker.
pub fn run_ipyflow(nb: &NotebookSpec) -> TrackingRun {
    let mut interp = Interp::new();
    kishu_libsim::install(&mut interp, Arc::new(Registry::standard()));
    let tracker = Rc::new(RefCell::new(IpyflowTracker::new(None)));
    interp.add_observer(tracker.clone());
    let mut cells = Vec::with_capacity(nb.cells.len());
    for (i, c) in nb.cells.iter().enumerate() {
        let before_overhead = tracker.borrow().overhead;
        let before_res = tracker.borrow().resolutions;
        let out = interp.run_cell(&c.src).expect("workload parses");
        assert!(out.error.is_none(), "{:?}", out.error);
        let after_overhead = tracker.borrow().overhead;
        let after_res = tracker.borrow().resolutions;
        cells.push((after_overhead - before_overhead, out.wall_time));
        if after_res - before_res > IPYFLOW_CELL_BUDGET {
            // The hybrid tracker's live resolution diverges on this cell
            // (the paper observes an indefinite hang).
            return TrackingRun {
                cells,
                failed_at: Some(i),
            };
        }
    }
    TrackingRun {
        cells,
        failed_at: None,
    }
}

/// Table 6: cumulative tracking overhead per notebook and method.
pub fn table6(scale: f64) -> Table {
    let mut t = Table::new(
        "Table 6",
        "delta tracking time vs baselines (% of notebook runtime)",
        &["Notebook", "IPyFlow", "AblatedKishu (Check all)", "Kishu (Ours)"],
    );
    for nb in all_notebooks(scale) {
        let ipy = run_ipyflow(&nb);
        let ablated = run_kishu_tracking(&nb, true);
        let ours = run_kishu_tracking(&nb, false);
        let render = |r: &TrackingRun| match r.failed_at {
            Some(i) => format!("FAIL on cell {i}"),
            None => format!("{} ({:.3}%)", fmt_duration(r.total()), r.percent()),
        };
        t.row(vec![
            nb.name.to_string(),
            render(&ipy),
            render(&ablated),
            render(&ours),
        ]);
    }
    t.note("paper: Kishu fastest everywhere (≤2.03% of runtime); IPyFlow fails on StoreSales cell 27; check-all blows up as state grows");
    t
}

/// Fig 17: per-cell tracking overhead summary (max and p90 of the
/// overhead/runtime ratio) for the notebooks the paper plots.
pub fn fig17(scale: f64) -> Table {
    let mut t = Table::new(
        "Fig 17",
        "per-cell tracking overhead as x of cell runtime",
        &["Notebook", "Method", "median x", "p90 x", "max x"],
    );
    let selected = ["TPS", "Sklearn", "HW-LM", "Qiskit"];
    for nb in all_notebooks(scale) {
        if !selected.contains(&nb.name) {
            continue;
        }
        let runs = [
            ("IPyFlow", run_ipyflow(&nb)),
            ("AblatedKishu", run_kishu_tracking(&nb, true)),
            ("Kishu", run_kishu_tracking(&nb, false)),
        ];
        for (label, run) in runs {
            let mut ratios: Vec<f64> = run
                .cells
                .iter()
                .map(|(t, r)| t.as_secs_f64() / r.as_secs_f64().max(1e-9))
                .collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let pick = |q: f64| ratios[(q * (ratios.len() - 1) as f64) as usize];
            t.row(vec![
                nb.name.to_string(),
                label.to_string(),
                format!("{:.3}x", pick(0.5)),
                format!("{:.3}x", pick(0.9)),
                format!("{:.3}x", ratios.last().copied().unwrap_or(0.0)),
            ]);
        }
    }
    t.note("paper: Kishu stays bounded on long-running cells; check-all grows with live state (up to 4936x on Sklearn cell 42)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_workloads::notebooks;

    #[test]
    fn kishu_tracks_faster_than_check_all_on_a_growing_state() {
        let nb = notebooks::sklearn(0.3);
        let ours = run_kishu_tracking(&nb, false);
        let ablated = run_kishu_tracking(&nb, true);
        assert!(
            ours.total() < ablated.total(),
            "candidate pruning must win: {:?} vs {:?}",
            ours.total(),
            ablated.total()
        );
    }

    #[test]
    fn ipyflow_fails_on_store_sales_cell_27() {
        let nb = notebooks::store_sales(0.2);
        let run = run_ipyflow(&nb);
        assert_eq!(run.failed_at, Some(27), "the complex-control-flow cell");
    }

    #[test]
    fn ipyflow_survives_the_other_notebooks() {
        for name in ["Cluster", "TPS", "HW-LM", "Qiskit"] {
            let nb = all_notebooks(0.2)
                .into_iter()
                .find(|n| n.name == name)
                .expect("exists");
            let run = run_ipyflow(&nb);
            assert!(run.failed_at.is_none(), "{name} unexpectedly failed");
        }
    }
}
