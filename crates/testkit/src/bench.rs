//! A plain timing harness for `harness = false` benches; replaces
//! `criterion` with a few hundred lines of std-only code.
//!
//! Usage mirrors the criterion shape loosely:
//!
//! ```no_run
//! use kishu_testkit::bench::Bench;
//!
//! fn main() {
//!     let mut b = Bench::from_env("core_ops");
//!     b.group("hashes", |g| {
//!         let data = vec![0u8; 4096];
//!         g.bench("xxh64/4096", || data.iter().map(|x| *x as u64).sum::<u64>());
//!     });
//!     b.finish();
//! }
//! ```
//!
//! Each benchmark is auto-calibrated to a target measurement time, run for
//! several samples, and reported as median ns/op with min..max spread.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export so benches don't need to reach into `std::hint`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Parse a `KISHU_BENCH_QUICK` value: quick unless empty, `0`, `false` or
/// `off` (surrounding whitespace ignored).
pub fn parse_quick(value: &str) -> bool {
    !matches!(value.trim(), "" | "0" | "false" | "off")
}

/// Whether `KISHU_BENCH_QUICK` asks for the fast smoke mode — the only
/// reader of the variable, shared by `cargo bench` and `repro`.
pub fn quick() -> bool {
    std::env::var("KISHU_BENCH_QUICK").is_ok_and(|v| parse_quick(&v))
}

/// Target wall-clock time per benchmark measurement phase.
const TARGET_MEASURE: Duration = Duration::from_millis(200);
/// Samples taken per benchmark (median is reported).
const SAMPLES: usize = 7;

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/name` identifier.
    pub id: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

/// Top-level harness; collects measurements and prints a summary table.
pub struct Bench {
    suite: String,
    filter: Option<String>,
    results: Vec<Measurement>,
    quick: bool,
}

impl Bench {
    /// Build a harness, reading an optional substring filter from argv
    /// (matching `cargo bench -- <filter>`) and [`quick`] for a fast
    /// smoke-run mode (used by CI to keep benches compiling AND executing
    /// without minutes of measurement).
    pub fn from_env(suite: &str) -> Bench {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        let quick = quick();
        eprintln!("[bench] suite {suite} starting{}", if quick { " (quick mode)" } else { "" });
        Bench {
            suite: suite.to_string(),
            filter,
            results: Vec::new(),
            quick,
        }
    }

    /// Run a named group of benchmarks.
    pub fn group(&mut self, name: &str, f: impl FnOnce(&mut Group<'_>)) {
        let mut g = Group { bench: self, name: name.to_string() };
        f(&mut g);
    }

    fn record(&mut self, m: Measurement) {
        eprintln!(
            "[bench] {:<40} {:>12.1} ns/op  ({:.1} .. {:.1}, {} iters/sample)",
            m.id, m.median_ns, m.min_ns, m.max_ns, m.iters
        );
        self.results.push(m);
    }

    /// All measurements taken so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Print the summary table. Call at the end of `main`.
    pub fn finish(self) {
        eprintln!("[bench] suite {} finished: {} benchmarks", self.suite, self.results.len());
        println!("suite,benchmark,median_ns,min_ns,max_ns,iters");
        for m in &self.results {
            println!(
                "{},{},{:.1},{:.1},{:.1},{}",
                self.suite, m.id, m.median_ns, m.min_ns, m.max_ns, m.iters
            );
        }
    }
}

/// A named group; `bench` runs one closure-benchmark inside it.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
}

impl Group<'_> {
    /// Measure `f`, whose return value is black-boxed to keep the work
    /// alive through the optimizer.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let id = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.bench.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }

        let (target, samples) = if self.bench.quick {
            (Duration::from_millis(5), 2)
        } else {
            (TARGET_MEASURE, SAMPLES)
        };

        // Calibrate: double iteration counts until one batch takes at
        // least a few percent of the target, then scale up.
        let mut iters: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= target / 20 || iters >= 1 << 40 {
                break (elapsed.as_nanos() as f64 / iters as f64).max(0.1);
            }
            iters *= 2;
        };
        let iters = ((target.as_nanos() as f64 / per_iter_ns).ceil() as u64).max(1);

        let mut per_sample_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(f());
            }
            per_sample_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_sample_ns.sort_by(|a, b| a.total_cmp(b));

        let m = Measurement {
            id,
            median_ns: per_sample_ns[per_sample_ns.len() / 2],
            min_ns: per_sample_ns[0],
            max_ns: *per_sample_ns.last().expect("samples nonempty"),
            iters,
        };
        self.bench.record(m);
    }

    /// Measure `routine` on a fresh `setup()` input each sample, timing
    /// only the routine (the criterion `iter_batched`/`PerIteration`
    /// shape). For operations expensive enough that one run per sample is
    /// a meaningful measurement — restores, checkpoints, whole cells.
    pub fn bench_batched<T, O>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> O,
    ) {
        let id = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.bench.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let samples = if self.bench.quick { 2 } else { 10 };
        let mut per_sample_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            per_sample_ns.push(start.elapsed().as_nanos() as f64);
            std_black_box(out);
        }
        per_sample_ns.sort_by(|a, b| a.total_cmp(b));
        let m = Measurement {
            id,
            median_ns: per_sample_ns[per_sample_ns.len() / 2],
            min_ns: per_sample_ns[0],
            max_ns: *per_sample_ns.last().expect("samples nonempty"),
            iters: 1,
        };
        self.bench.record(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_values_parse_one_way() {
        for on in ["1", "true", "yes", " 1 "] {
            assert!(parse_quick(on), "{on:?}");
        }
        for off in ["", " ", "0", "false", "off"] {
            assert!(!parse_quick(off), "{off:?}");
        }
    }

    #[test]
    fn measures_something_plausible() {
        let mut b = Bench {
            suite: "selftest".into(),
            filter: None,
            results: Vec::new(),
            quick: true,
        };
        b.group("g", |g| {
            g.bench("sum", || (0..100u64).sum::<u64>());
        });
        assert_eq!(b.results().len(), 1);
        let m = &b.results()[0];
        assert_eq!(m.id, "g/sum");
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench {
            suite: "selftest".into(),
            filter: Some("wanted".into()),
            results: Vec::new(),
            quick: true,
        };
        b.group("g", |g| {
            g.bench("unrelated", || 1u32);
            g.bench("wanted_one", || 2u32);
        });
        assert_eq!(b.results().len(), 1);
        assert_eq!(b.results()[0].id, "g/wanted_one");
    }
}
