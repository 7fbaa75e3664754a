//! Turns a run's rounds into its metrics, and renders them: one line per
//! metric for people, the result object for `--out` and `compare`, and the
//! one-line summary that ends standard output.

use kishu_testkit::json::Json;

use crate::metrics::{Layers, Metric, END_TO_END, EXTRA};
use crate::runner::{Growth, RoundResult};
use crate::stats::{median, percentile};

/// How a run was invoked, and the environment it ran in.
pub struct RunInfo {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub rounds: usize,
    pub traced: bool,
    /// `(key, value)` pairs describing the configuration and machine.
    pub env: Vec<(&'static str, Json)>,
}

/// One run's outcome.
pub struct RunReport {
    pub info: RunInfo,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The gated metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Recorded but not gated; `None` where too few samples exist.
    pub extra: Vec<(&'static Metric, Option<f64>)>,
    pub samples: Vec<(&'static str, usize)>,
    pub growth: Vec<Growth>,
    /// `(setup_s, wall_s, cpu_s, peak RSS KiB)` of each measured round.
    pub per_round: Vec<(f64, f64, f64, u64)>,
}

impl RunReport {
    /// Aggregate measured `rounds`. A traced run also passes its untraced
    /// twin rounds (same scripts), which set the trace overhead and whose
    /// failures count too. Fails when a workload produced too few samples
    /// for a percentile it must report — a defect of the workload, not of
    /// the program measured.
    pub fn new(
        info: RunInfo,
        rounds: &[RoundResult],
        twins: &[RoundResult],
    ) -> Result<RunReport, String> {
        let pooled = |f: fn(&RoundResult) -> &Vec<f64>| -> Vec<f64> {
            rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let cells = pooled(|r| &r.cell_ms);
        let checkouts = pooled(|r| &r.checkout_ms);
        let queries = pooled(|r| &r.query_ms);
        let resumes = pooled(|r| &r.resume_ms);
        let attempted: u64 = rounds.iter().chain(twins).map(|r| r.attempted).sum();
        let failed: u64 = rounds.iter().chain(twins).map(|r| r.failed).sum();
        let failures = rounds
            .iter()
            .chain(twins)
            .flat_map(|r| r.failures.iter().cloned())
            .take(10)
            .collect();

        let need = |name: &str, v: Option<f64>| {
            v.ok_or_else(|| format!("{}: too few samples for {name}", info.workload))
        };
        let per_round =
            |f: fn(&RoundResult) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let metrics = if info.traced {
            let mut layers = Layers::default();
            for r in rounds {
                layers.merge(&r.layers);
            }
            let traced_ns: u64 = rounds.iter().map(|r| r.call_ns).sum();
            let untraced_ns: u64 = twins.iter().map(|r| r.call_ns).sum();
            if untraced_ns > 0 {
                let pct = 100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64;
                layers.add("bench.trace_overhead_pct", pct);
            }
            layers.values(rounds.len())
        } else {
            let values = [
                need("setup_s", per_round(|r| r.setup_s))?,
                need("wall_s", per_round(|r| r.wall_s))?,
                need("cell_p95_ms", percentile(&cells, 95))?,
                need("checkout_p95_ms", percentile(&checkouts, 95))?,
                need("resume_ms", median(&resumes))?,
                need(
                    "space_amp",
                    per_round(|r| r.physical_bytes as f64 / r.logical_bytes.max(1) as f64),
                )?,
                need("peak_rss_mb", per_round(|r| r.peak_rss_kib as f64 / 1024.0))?,
            ];
            END_TO_END.iter().zip(values).collect()
        };
        let extra = if info.traced {
            Vec::new()
        } else {
            let values = [
                per_round(|r| r.cpu_s),
                percentile(&cells, 50),
                percentile(&checkouts, 50),
                percentile(&queries, 50),
                percentile(&queries, 95),
                percentile(&cells, 99),
                percentile(&checkouts, 99),
                Some(failed as f64 / attempted.max(1) as f64),
            ];
            EXTRA.iter().zip(values).collect()
        };
        Ok(RunReport {
            samples: vec![
                ("cells", cells.len()),
                ("checkouts", checkouts.len()),
                ("queries", queries.len()),
                ("restarts", resumes.len()),
                (
                    "cells_raised",
                    rounds.iter().map(|r| r.cell_errors as usize).sum(),
                ),
            ],
            // Every round grows the same way; one series shows it.
            growth: rounds.first().map(|r| r.growth.clone()).unwrap_or_default(),
            per_round: rounds
                .iter()
                .map(|r| (r.setup_s, r.wall_s, r.cpu_s, r.peak_rss_kib))
                .collect(),
            info,
            attempted,
            failed,
            failures,
            metrics,
            extra,
        })
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable lines: every metric by name with its unit.
    pub fn print(&self) {
        let w = &self.info.workload;
        let mode = if self.info.traced {
            "traced"
        } else {
            "untraced"
        };
        println!(
            "# {w}: {mode}, seed {}, {} rounds, {} ops attempted, {} failed",
            self.info.seed, self.info.rounds, self.attempted, self.failed
        );
        for msg in &self.failures {
            println!("# {w}: FAILED {msg}");
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{n} {k}"))
            .collect();
        println!("# {w}: samples {}", samples.join(", "));
        for (m, v) in &self.metrics {
            println!("{w:<13} {:<34} {v:>14.4} {}", m.name, m.unit);
        }
        for (m, v) in &self.extra {
            match v {
                Some(v) => println!("{w:<13} {:<34} {v:>14.4} {}  (not gated)", m.name, m.unit),
                None => println!(
                    "{w:<13} {:<34} {:>14} {}  (too few samples)",
                    m.name, "n/a", m.unit
                ),
            }
        }
        for g in &self.growth {
            println!(
                "# {w}: growth  nodes {:>5}  state_at {:>8.3} ms  snapshot {:>9.1} KiB",
                g.nodes, g.state_at_ms, g.snapshot_kb
            );
        }
    }

    /// `{name: {"value", "unit"}}` for `values`, each name prefixed with
    /// `prefix`.
    fn metric_entries<'a>(
        prefix: &'a str,
        values: impl Iterator<Item = (&'static Metric, f64)> + 'a,
    ) -> impl Iterator<Item = (String, Json)> + 'a {
        values.map(move |(m, v)| {
            let entry = Json::obj(vec![
                ("value", Json::Float(v)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (format!("{prefix}{}", m.name), entry)
        })
    }

    fn metric_object(values: impl Iterator<Item = (&'static Metric, f64)>) -> Json {
        Json::Object(Self::metric_entries("", values).collect())
    }

    /// The one-line summary that ends standard output. Metric names are
    /// bare for one workload and `workload.metric` for several.
    pub fn summary_line(reports: &[RunReport]) -> String {
        let prefixes: Vec<String> = match reports {
            [_] => vec![String::new()],
            _ => reports
                .iter()
                .map(|r| format!("{}.", r.info.workload))
                .collect(),
        };
        let metrics = reports
            .iter()
            .zip(&prefixes)
            .flat_map(|(r, prefix)| Self::metric_entries(prefix, r.metrics.iter().copied()));
        Json::obj(vec![
            (
                "correct",
                Json::Bool(reports.iter().all(RunReport::correct)),
            ),
            (
                "attempted",
                Json::Int(reports.iter().map(|r| r.attempted as i64).sum()),
            ),
            (
                "failed",
                Json::Int(reports.iter().map(|r| r.failed as i64).sum()),
            ),
            ("metrics", Json::Object(metrics.collect())),
        ])
        .dump()
    }

    /// The full result object `--out` writes and `compare` reads.
    pub fn to_json(&self) -> Json {
        let i = &self.info;
        Json::obj(vec![
            ("workload", Json::Str(i.workload.clone())),
            ("seed", Json::Str(i.seed.to_string())),
            ("seconds", Json::Int(i.seconds as i64)),
            ("rounds", Json::Int(i.rounds as i64)),
            ("traced", Json::Bool(i.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "failures",
                Json::Array(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("metrics", Self::metric_object(self.metrics.iter().copied())),
            (
                "extra",
                Self::metric_object(self.extra.iter().filter_map(|(m, v)| v.map(|v| (*m, v)))),
            ),
            (
                "samples",
                Json::Object(
                    self.samples
                        .iter()
                        .map(|(k, n)| (k.to_string(), Json::Int(*n as i64)))
                        .collect(),
                ),
            ),
            (
                "per_round",
                Json::Array(
                    self.per_round
                        .iter()
                        .map(|&(setup_s, wall_s, cpu_s, rss_kib)| {
                            Json::obj(vec![
                                ("setup_s", Json::Float(setup_s)),
                                ("wall_s", Json::Float(wall_s)),
                                ("cpu_s", Json::Float(cpu_s)),
                                ("peak_rss_kib", Json::Int(rss_kib as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "growth",
                Json::Array(
                    self.growth
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("nodes", Json::Int(g.nodes as i64)),
                                ("state_at_ms", Json::Float(g.state_at_ms)),
                                ("snapshot_kb", Json::Float(g.snapshot_kb)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "env",
                Json::Object(
                    i.env
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, failed: u64) -> RunReport {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let round = RoundResult {
            setup_s: 0.5,
            wall_s: 2.0,
            cpu_s: 1.0,
            physical_bytes: 3,
            logical_bytes: 4,
            cell_ms: samples.clone(),
            checkout_ms: samples.clone(),
            query_ms: samples,
            resume_ms: vec![7.0],
            attempted: 10,
            failed,
            peak_rss_kib: 2048,
            ..RoundResult::default()
        };
        let info = RunInfo {
            workload: workload.to_string(),
            seed: 1,
            seconds: 1,
            rounds: 1,
            traced: false,
            env: Vec::new(),
        };
        RunReport::new(info, &[round], &[]).expect("enough samples")
    }

    #[test]
    fn summary_line_covers_one_or_every_workload() {
        let one = Json::parse(&RunReport::summary_line(&[report("undo_hot", 0)])).expect("json");
        assert_eq!(one.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = one.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("space_amp")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(
            metrics
                .get("peak_rss_mb")
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("MiB")
        );

        let all = [report("notebooks", 0), report("long_session", 2)];
        let all = Json::parse(&RunReport::summary_line(&all)).expect("json");
        assert_eq!(all.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(all.get("attempted").and_then(Json::as_u64), Some(20));
        assert_eq!(all.get("failed").and_then(Json::as_u64), Some(2));
        let Some(Json::Object(fields)) = all.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(fields.len(), 2 * END_TO_END.len());
        assert!(all
            .get("metrics")
            .and_then(|m| m.get("long_session.setup_s"))
            .is_some());
    }
}
