//! `kbench compare PARENT.json… -- CHANGE.json…`: per workload and metric,
//! each side's median and quartiles over its runs, judged against the
//! bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use kishu_testkit::json::Json;

use crate::stats::{median, quartiles};
use crate::workloads::NAMES;

/// A metric's regression rule from `BENCHMARK.json`.
struct Bound {
    /// Share of the parent's median the metric may worsen by.
    bound: f64,
    lower_is_better: bool,
}

/// Values per `(workload, metric)` across one side's runs.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let json = read_json(path)?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(name), Some(bound), Some(better @ ("lower" | "higher"))) => Ok((
                    name.to_string(),
                    Bound {
                        bound,
                        lower_is_better: better == "lower",
                    },
                )),
                _ => Err(format!("{path}: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Gather every run in `files` (each a `kbench run --out` file).
fn load_side(files: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in files {
        let json = read_json(path)?;
        let runs = json
            .get("runs")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: not a kbench result file"))?;
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: run without a workload"))?;
            if run.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "{path}: a {workload} run failed its correctness checks"
                ));
            }
            for key in ["metrics", "extra"] {
                let Some(Json::Object(fields)) = run.get(key) else {
                    continue;
                };
                for (name, entry) in fields {
                    if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                        side.entry((workload.to_string(), name.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(side)
}

/// Interquartile range as a share of the median; `None` with too few runs.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The verdict for one metric on one workload. Only "REGRESSION" fails a
/// comparison. "worse" marks a change whose every run reads worse than
/// every parent run while its median stays within the bound: the bound is
/// set by the noisiest workload, so on a steady one a real slowdown can
/// hide under it.
fn verdict(parent: &[f64], change: &[f64], bound: &Bound) -> &'static str {
    let (Some(p), Some(c)) = (median(parent), median(change)) else {
        return "missing";
    };
    let worse = |a: f64, b: f64| if bound.lower_is_better { b - a } else { a - b };
    if p != 0.0 && worse(p, c) / p.abs() > bound.bound {
        return "REGRESSION";
    }
    let every = |sign: f64| {
        change
            .iter()
            .all(|&cv| parent.iter().all(|&pv| sign * worse(pv, cv) > 0.0))
    };
    let resolved = [parent, change]
        .iter()
        .all(|side| spread(side).is_some_and(|s| s <= bound.bound));
    if every(-1.0) {
        "better"
    } else if every(1.0) {
        "worse"
    } else if resolved {
        "ok"
    } else {
        "unresolved"
    }
}

fn describe(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:>12.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:>12.4} [n=1]"),
        _ => format!("{:>12}", "-"),
    }
}

/// Compare two sets of result files; returns whether any gated metric
/// regressed beyond its bound.
pub fn compare(bench_json: &str, parent: &[String], change: &[String]) -> Result<bool, String> {
    let bounds = load_bounds(bench_json)?;
    let parent = load_side(parent)?;
    let change = load_side(change)?;
    let mut keys: Vec<&(String, String)> = parent.keys().chain(change.keys()).collect();
    keys.sort_by_key(|(w, m)| {
        (
            NAMES.iter().position(|n| n == w),
            !bounds.contains_key(m),
            m.clone(),
        )
    });
    keys.dedup();
    let mut regressed = false;
    println!(
        "{:<13} {:<32} {:>34} {:>34} {:>8}  verdict (bound)",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for key in keys {
        let p = parent.get(key).map_or(&[][..], Vec::as_slice);
        let c = change.get(key).map_or(&[][..], Vec::as_slice);
        let delta = match (median(p), median(c)) {
            (Some(pm), Some(cm)) if pm != 0.0 => format!("{:+.1}%", 100.0 * (cm - pm) / pm.abs()),
            _ => "-".to_string(),
        };
        let judged = match bounds.get(&key.1) {
            Some(b) => {
                let v = verdict(p, c, b);
                regressed |= v == "REGRESSION";
                format!("{v} ({:.0}%)", 100.0 * b.bound)
            }
            None => "-".to_string(),
        };
        println!(
            "{:<13} {:<32} {:>34} {:>34} {delta:>8}  {judged}",
            key.0,
            key.1,
            describe(p),
            describe(c)
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        bound: 0.1,
        lower_is_better: true,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&parent, &[10.2, 10.3, 10.1, 10.2, 10.25], &LOWER),
            "ok"
        );
        assert_eq!(
            verdict(&parent, &[11.5, 11.6, 11.4, 11.5, 11.55], &LOWER),
            "REGRESSION"
        );
        assert_eq!(
            verdict(&parent, &[8.0, 8.1, 7.9, 8.0, 8.05], &LOWER),
            "better"
        );
        assert_eq!(
            verdict(&parent, &[10.5, 10.6, 10.4, 10.5, 10.55], &LOWER),
            "worse"
        );
        let noisy = [6.0, 14.0, 10.0, 7.0, 13.0];
        assert_eq!(
            verdict(&noisy, &[10.0, 10.1, 9.9, 10.0, 10.05], &LOWER),
            "unresolved"
        );
        let higher = Bound {
            bound: 0.1,
            lower_is_better: false,
        };
        assert_eq!(
            verdict(&parent, &[8.0, 8.1, 7.9, 8.0, 8.05], &higher),
            "REGRESSION"
        );
        assert_eq!(verdict(&parent, &[], &LOWER), "missing");
    }
}
