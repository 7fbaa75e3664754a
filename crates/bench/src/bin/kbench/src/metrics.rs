//! The metrics kbench reports, by name and unit, and the accumulator the
//! traced run collects per-layer values in.

use std::collections::BTreeMap;

use kishu_testkit::json::Json;

/// A reported metric: its name and unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

/// How a per-layer metric's accumulated sum becomes its value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Sum over the weight: a mean per operation, or a ratio when each
    /// sample carries its own denominator as weight.
    PerOp,
    /// Sum over the number of rounds: a count or busy time per round.
    PerRound,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

const fn l(name: &'static str, unit: &'static str, agg: Agg) -> (Metric, Agg) {
    (Metric { name, unit }, agg)
}

use Agg::{PerOp, PerRound};

/// The untraced run's gated metrics: what a user of a notebook session
/// sees. Latencies are timed by kbench around each public call.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("cell_p95_ms", "ms"),
    m("checkout_p95_ms", "ms"),
    m("resume_ms", "ms"),
    m("space_amp", "ratio"),
    m("peak_rss_mb", "MiB"),
];

/// The traced run's metrics, one group per layer (README lists which
/// end-to-end metric each should move, and on which workload).
pub const PER_LAYER: &[(Metric, Agg)] = &[
    // Session thread vs the worker pool, around each public call.
    l("session.cell_cpu_ms", "ms", PerOp),
    l("session.cell_offcpu_ms", "ms", PerOp),
    l("session.cell_worker_cpu_ms", "ms", PerOp),
    l("session.checkout_cpu_ms", "ms", PerOp),
    l("session.checkout_offcpu_ms", "ms", PerOp),
    l("session.checkout_worker_cpu_ms", "ms", PerOp),
    // minipy (the VM).
    l("minipy.exec_ms", "ms", PerOp),
    l("minipy.allocs_per_cell", "count", PerOp),
    // Delta detection (core::delta + vargraph).
    l("delta.track_ms", "ms", PerOp),
    l("delta.candidates_per_cell", "count", PerOp),
    l("delta.updated_per_cell", "count", PerOp),
    // Checkpoint write: pickle + seal.
    l("ckpt.serialize_ms", "ms", PerOp),
    l("ckpt.logical_mb", "MiB", PerRound),
    l("ckpt.dedup_hits", "count", PerRound),
    l("ckpt.dropped", "count", PerRound),
    // Checkpoint commit (core::graph).
    l("ckpt.commit_ms", "ms", PerOp),
    l("graph.state_at_ms", "ms", PerOp),
    l("graph.nodes", "count", PerOp),
    // kishu-storage (FileStore, chunking, codec), through TimedStore.
    l("store.put_count", "count", PerRound),
    l("store.put_mb", "MiB", PerRound),
    l("store.put_ms", "ms", PerRound),
    l("store.get_count", "count", PerRound),
    l("store.get_mb", "MiB", PerRound),
    l("store.get_ms", "ms", PerRound),
    l("store.barrier_count", "count", PerRound),
    l("store.barrier_ms", "ms", PerRound),
    l("store.physical_mb", "MiB", PerRound),
    l("store.chunk_dedup_ratio", "ratio", PerOp),
    l("store.compress_saved_mb", "MiB", PerRound),
    l("store.open_ms", "ms", PerOp),
    // Checkout read pipeline + BlobCache.
    l("checkout.fetch_ms", "ms", PerOp),
    l("checkout.verify_ms", "ms", PerOp),
    l("checkout.apply_ms", "ms", PerOp),
    l("checkout.cache_hit_ratio", "ratio", PerOp),
    l("checkout.mb_loaded", "MiB", PerRound),
    l("checkout.loaded_per_op", "count", PerOp),
    l("checkout.identical_per_op", "count", PerOp),
    l("checkout.recomputed", "count", PerRound),
    l("checkout.integrity_failures", "count", PerRound),
    // Graph persist/resume.
    l("graph.persist_ms", "ms", PerOp),
    l("graph.snapshot_kb", "KiB", PerOp),
    l("graph.resume_ms", "ms", PerOp),
    // core::query.
    l("query.diff_ms", "ms", PerOp),
    l("query.history_ms", "ms", PerOp),
    l("query.diff_cache_hit_ratio", "ratio", PerOp),
    // The benchmark's own cost.
    l("bench.trace_overhead_pct", "%", PerOp),
];

/// Extra end-to-end values an untraced run prints and records but does not
/// gate on. `cpu_s` is CPU time alone, and the medians and queries sit on
/// sub-millisecond calls, which are CPU time alone too; on a shared host
/// the CPU's speed drifts by tens of percent over minutes (up to 2× for
/// small-object work), so their run-to-run spread reaches any allowed
/// bound. p99 lacks the samples on some workloads. The error rate is 0 on
/// every correct run, so it cannot carry a relative bound; `correct` and
/// `failed` gate it instead.
pub const EXTRA: &[Metric] = &[
    m("cpu_s", "s"),
    m("cell_p50_ms", "ms"),
    m("checkout_p50_ms", "ms"),
    m("query_p50_ms", "ms"),
    m("query_p95_ms", "ms"),
    m("cell_p99_ms", "ms"),
    m("checkout_p99_ms", "ms"),
    m("error_rate", "ratio"),
];

/// Per-layer sums and weights, keyed by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    acc: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    /// One sample of a per-operation mean, or an amount of a per-round total.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.add_weighted(name, value, 1.0);
    }

    /// `value` with its own weight: the numerator and denominator of a ratio.
    pub fn add_weighted(&mut self, name: &'static str, value: f64, weight: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(m, _)| m.name == name),
            "unknown metric {name}"
        );
        let e = self.acc.entry(name).or_insert((0.0, 0.0));
        e.0 += value;
        e.1 += weight;
    }

    pub fn merge(&mut self, other: &Layers) {
        for (name, (v, w)) in &other.acc {
            self.add_weighted(name, *v, *w);
        }
    }

    /// `{name: [sum, weight]}`, for handing a round's layers between
    /// processes.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.acc
                .iter()
                .map(|(name, &(sum, weight))| {
                    let pair = Json::Array(vec![Json::Float(sum), Json::Float(weight)]);
                    (name.to_string(), pair)
                })
                .collect(),
        )
    }

    pub fn from_json(json: &Json) -> Result<Layers, String> {
        let Json::Object(fields) = json else {
            return Err("layers: not an object".to_string());
        };
        let mut layers = Layers::default();
        for (name, pair) in fields {
            let (m, _) = PER_LAYER
                .iter()
                .find(|(m, _)| m.name == name)
                .ok_or_else(|| format!("layers: unknown metric {name}"))?;
            let number = |i: usize| pair.as_array()?.get(i)?.as_f64();
            let (Some(sum), Some(weight)) = (number(0), number(1)) else {
                return Err(format!("layers: {name} is not [sum, weight]"));
            };
            layers.add_weighted(m.name, sum, weight);
        }
        Ok(layers)
    }

    /// The value of every per-layer metric over `rounds` rounds; a metric
    /// nothing was recorded for is 0 (the layer did no work).
    pub fn values(&self, rounds: usize) -> Vec<(&'static Metric, f64)> {
        PER_LAYER
            .iter()
            .map(|(m, agg)| {
                let (sum, weight) = self.acc.get(m.name).copied().unwrap_or((0.0, 0.0));
                let value = match agg {
                    PerOp if weight > 0.0 => sum / weight,
                    PerOp => 0.0,
                    PerRound => sum / rounds.max(1) as f64,
                };
                (m, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter().map(|(m, _)| m))
            .chain(EXTRA)
            .collect();
        for (i, a) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|b| b.name != a.name),
                "duplicate {}",
                a.name
            );
            assert!(a.name.len() <= 64 && a.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(a
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        use kishu_testkit::json::Json;
        // BENCHMARK.json sits at the repository root, above this package.
        let Some(path) = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            return;
        };
        let text = std::fs::read_to_string(&path).expect("readable BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |ms: &mut dyn Iterator<Item = &Metric>| -> Vec<(String, String)> {
            ms.map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&mut END_TO_END.iter()));
        assert_eq!(
            declared("per_layer"),
            ours(&mut PER_LAYER.iter().map(|(m, _)| m))
        );
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::BENCHMARK);
    }

    #[test]
    fn layers_average_per_op_and_total_per_round() {
        let mut a = Layers::default();
        a.add("minipy.exec_ms", 2.0);
        a.add("minipy.exec_ms", 4.0);
        a.add("store.put_count", 10.0);
        a.add_weighted("checkout.cache_hit_ratio", 3.0, 4.0);
        let mut b = Layers::default();
        b.add("store.put_count", 20.0);
        b.add_weighted("checkout.cache_hit_ratio", 1.0, 4.0);
        a.merge(&b);
        let v: BTreeMap<_, _> = a.values(2).into_iter().map(|(m, v)| (m.name, v)).collect();
        assert_eq!(v["minipy.exec_ms"], 3.0);
        assert_eq!(v["store.put_count"], 15.0);
        assert_eq!(v["checkout.cache_hit_ratio"], 0.5);
        assert_eq!(v["query.diff_ms"], 0.0);
        assert_eq!(v.len(), PER_LAYER.len());
    }
}
