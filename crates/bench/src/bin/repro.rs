//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [--scale S] [--json FILE]
//! repro table2|fig2|fig4|fig12|table4|table5|fig13|fig14|fig15|fig16|table6|fig17|table7|table8|fig18|fig19|faults|pipeline|restore|multi|chunks|interp|queries|obs
//! repro trace [--scale S] [--out FILE]        # Chrome-trace export of the pipelines
//! repro trace-validate FILE                   # CI smoke: parse + expected spans
//! ```
//!
//! Every experiment honors `KISHU_TRACE=path`: when set, the process-global
//! trace records spans across the session/pipeline/storage stack and a
//! Perfetto-loadable Chrome trace is written to `path` on exit.
//!
//! `chunks`, `interp`, `queries` and `obs` exit 1 when their number misses
//! the floor constant in their experiment module. Timing comparisons
//! between two builds are kbench's job (`crates/bench/src/bin/kbench`).
//!
//! Outputs land under `target/` by default (`target/repro_output.txt`,
//! `target/repro_results.json`) so a repro run never litters the source
//! tree; `--json` / `--out` override the paths.

use std::io::Write as _;

use kishu_bench::experiments::{
    checkout, checkpoint, chunks, interp, multi, obs, pipeline, queries, restore, robustness,
    sweeps, tracking, workload_tables,
};
use kishu_bench::report::Table;
use kishu_testkit::json::Json;

struct Args {
    targets: Vec<String>,
    scale: f64,
    scale_set: bool,
    json: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut targets = Vec::new();
    let mut scale = 0.3;
    let mut scale_set = false;
    let mut json = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                scale_set = true;
            }
            "--json" => {
                json = Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [all|table2|fig2|fig4|fig12|table4|table5|fig13|fig14|fig15|fig16|table6|fig17|table7|table8|fig18|fig19|faults|pipeline|restore|multi|chunks|interp|queries|obs]... [--scale S] [--json FILE]\n\
                            repro trace [--scale S] [--out FILE]\n\
                            repro trace-validate FILE\n\
                     chunks, interp, queries and obs exit 1 below their floor\n\
                     KISHU_TRACE=path exports a Chrome trace from any of the above"
                );
                std::process::exit(0);
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Args { targets, scale, scale_set, json, out }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Write `content` to `path`, creating parent directories.
fn write_file(path: &str, content: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", parent.display())));
        }
    }
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
    f.write_all(content.as_bytes())
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

/// Export the process-global trace to the `KISHU_TRACE` path. No-op unless
/// the environment enabled tracing — which is the behavior-freedom
/// invariant: with `KISHU_TRACE` unset, nothing here runs and no session
/// recorded a span.
fn export_global_trace() {
    let trace = kishu_trace::global();
    if !trace.is_enabled() {
        return;
    }
    let Some(path) = kishu_trace::global_path() else { return };
    write_file(&path, &(trace.chrome_json().dump() + "\n"));
    eprintln!(
        "[repro] wrote {path} ({} spans) — load it at ui.perfetto.dev",
        trace.spans().len()
    );
}

/// `repro trace`: run the representative write+read pipeline workloads with
/// tracing force-enabled and export a Perfetto-loadable Chrome trace plus a
/// human-readable summary.
fn run_trace(args: &Args) -> ! {
    let trace = kishu_trace::force_global_enabled();
    let scale = if args.scale_set { args.scale } else { 0.1 };
    eprintln!("[repro] trace (scale {scale}) ...");
    let p = pipeline::run(scale, 4, true);
    let r = restore::run(scale, 4, restore::CACHE_BYTES);
    eprintln!(
        "[repro] traced ckpt {:.2}ms (serialize {:.2}ms, write {:.2}ms); \
         cold restore {:.2}ms (fetch {:.2}ms, verify {:.2}ms, apply {:.2}ms)",
        p.ckpt_wall.as_secs_f64() * 1e3,
        p.serialize_ns as f64 / 1e6,
        p.write_ns as f64 / 1e6,
        r.cold_wall.as_secs_f64() * 1e3,
        r.cold_fetch_ns as f64 / 1e6,
        r.cold_verify_ns as f64 / 1e6,
        r.cold_apply_ns as f64 / 1e6,
    );
    println!("{}", trace.text_summary());
    let path = args
        .out
        .clone()
        .or_else(kishu_trace::global_path)
        .unwrap_or_else(|| "target/trace.json".to_string());
    write_file(&path, &(trace.chrome_json().dump() + "\n"));
    eprintln!(
        "[repro] wrote {path} ({} spans) — load it at ui.perfetto.dev",
        trace.spans().len()
    );
    std::process::exit(0);
}

/// Span names any pipeline-exercising trace export must contain — the
/// write path's classify → serialize/seal → write nest and the read path's
/// fetch → verify/decode → apply nest, plus the storage and pickle leaves.
const EXPECTED_TRACE_SPANS: &[&str] = &[
    "cell.exec",
    "ckpt",
    "ckpt.classify",
    "ckpt.serialize",
    "ckpt.seal",
    "ckpt.write",
    "store.put",
    "pickle.dumps",
    "checkout",
    "checkout.fetch",
    "store.get",
    "checkout.verify",
    "checkout.decode",
    "checkout.apply",
    "pickle.loads",
];

/// `repro trace-validate FILE`: parse a Chrome-trace export and check the
/// pipeline's expected span names are present (the CI trace smoke stage).
fn run_trace_validate(args: &Args) -> ! {
    let [_, path] = &args.targets[..] else {
        die("trace-validate needs exactly one path");
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let Some(Json::Array(events)) = json.get("traceEvents") else {
        die(&format!("{path}: no traceEvents array"));
    };
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Json::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let missing: Vec<&&str> = EXPECTED_TRACE_SPANS
        .iter()
        .filter(|n| !names.contains(**n))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "trace-validate: {path} is missing expected spans {missing:?} \
             ({} events, saw {names:?})",
            events.len()
        );
        std::process::exit(1);
    }
    println!(
        "trace-validate: OK ({} events, {} distinct span names)",
        events.len(),
        names.len()
    );
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if args.targets.first().is_some_and(|t| t == "trace") {
        run_trace(&args);
    }
    if args.targets.first().is_some_and(|t| t == "trace-validate") {
        run_trace_validate(&args);
    }
    let everything = args.targets.iter().any(|t| t == "all");
    let want = |name: &str| everything || args.targets.iter().any(|t| t == name);
    let mut tables: Vec<Table> = Vec::new();
    let scale = args.scale;
    // Experiments with a declared floor (chunks, interp, queries, obs)
    // check it where the number is computed; any miss fails the run.
    let mut floors_missed = 0;
    let mut check_floor = |name: &str, verdict: Result<String, String>| match verdict {
        Ok(line) => eprintln!("[repro] {name}: {line} OK"),
        Err(line) => {
            eprintln!("[repro] {name}: {line} MISSED");
            floors_missed += 1;
        }
    };

    let run = |name: &str, f: &mut dyn FnMut() -> Table, tables: &mut Vec<Table>| {
        if want(name) {
            eprintln!("[repro] running {name} (scale {scale}) ...");
            let start = std::time::Instant::now();
            let t = f();
            eprintln!("[repro] {name} done in {:.1}s", start.elapsed().as_secs_f64());
            println!("{}", t.render());
            tables.push(t);
        }
    };

    run("table2", &mut || workload_tables::table2(scale), &mut tables);
    run("fig2", &mut || workload_tables::fig2(scale), &mut tables);
    run("table7", &mut || workload_tables::table7(scale), &mut tables);
    run("table8", &mut || workload_tables::table8(scale), &mut tables);
    run("fig4", &mut || sweeps::fig4((2000.0 * scale) as usize + 100), &mut tables);
    run("fig12", &mut robustness::fig12, &mut tables);
    run("table4", &mut robustness::table4, &mut tables);
    run("table5", &mut robustness::table5, &mut tables);
    // The write-pipeline table rides along with table5 (both are the
    // "robustness + checkpoint mechanics" artifact group) and also answers
    // to its own target name.
    if want("table5") || want("pipeline") {
        eprintln!("[repro] running pipeline (scale {scale}) ...");
        let start = std::time::Instant::now();
        let t = pipeline::table(scale);
        eprintln!("[repro] pipeline done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", t.render());
        tables.push(t);
    }
    // The read-side sweep rides along with the same artifact group.
    if want("table5") || want("restore") {
        eprintln!("[repro] running restore (scale {scale}) ...");
        let start = std::time::Instant::now();
        let t = restore::table(scale);
        eprintln!("[repro] restore done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", t.render());
        tables.push(t);
    }
    run("faults", &mut || robustness::faults(scale), &mut tables);
    run("multi", &mut || multi::table(scale), &mut tables);
    // The storage-engine-v2 sweep also writes its machine-readable ratios
    // (dedup, compression, v1-vs-v2 reduction) under target/.
    if want("chunks") {
        eprintln!("[repro] running chunks (scale {scale}) ...");
        let start = std::time::Instant::now();
        let r = chunks::run(scale);
        eprintln!("[repro] chunks done in {:.1}s", start.elapsed().as_secs_f64());
        let t = chunks::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/CHUNKS.json".to_string());
        write_file(&path, &(chunks::json_from(&r, scale).pretty() + "\n"));
        eprintln!("[repro] wrote {path}");
        check_floor("chunks", r.check_floor());
    }
    // The exec-bound engine benchmark defaults to *full* scale (the
    // VM-vs-tree speedup claim is a full-scale claim; quick mode keeps the
    // CI smoke cheap) and writes its machine-readable form — including the
    // speedup it floors — under target/INTERP.json.
    if want("interp") {
        let quick = kishu_testkit::bench::quick();
        let iscale = if args.scale_set {
            args.scale
        } else if quick {
            0.1
        } else {
            1.0
        };
        eprintln!(
            "[repro] running interp (scale {iscale}{}) ...",
            if quick && !args.scale_set { ", quick" } else { "" }
        );
        let start = std::time::Instant::now();
        let r = interp::run(iscale);
        eprintln!("[repro] interp done in {:.1}s", start.elapsed().as_secs_f64());
        let t = interp::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/INTERP.json".to_string());
        write_file(&path, &(interp::json_from(&r, iscale).pretty() + "\n"));
        eprintln!("[repro] wrote {path}");
        check_floor("interp", r.check_floor());
    }
    // The commit-graph query-surface bench (dashboard diff/history
    // polling) writes its machine-readable form — including the
    // index-vs-scan speedup it floors — under target/QUERIES.json.
    if want("queries") {
        eprintln!("[repro] running queries (scale {scale}) ...");
        let start = std::time::Instant::now();
        let r = queries::run(scale);
        eprintln!("[repro] queries done in {:.1}s", start.elapsed().as_secs_f64());
        let t = queries::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/QUERIES.json".to_string());
        write_file(&path, &(queries::json_from(&r, scale).pretty() + "\n"));
        eprintln!("[repro] wrote {path}");
        check_floor("queries", r.check_floor());
    }
    // The flight-recorder overhead bench writes its machine-readable form
    // — including the overhead ratio it ceilings — under
    // target/OBS.json.
    if want("obs") {
        eprintln!("[repro] running obs (scale {scale}) ...");
        let start = std::time::Instant::now();
        let r = obs::run(scale);
        eprintln!("[repro] obs done in {:.1}s", start.elapsed().as_secs_f64());
        let t = obs::table_from(&r);
        println!("{}", t.render());
        tables.push(t);
        let path = args.out.clone().unwrap_or_else(|| "target/OBS.json".to_string());
        write_file(&path, &(obs::json_from(&r, scale).pretty() + "
"));
        eprintln!("[repro] wrote {path}");
        check_floor("obs", r.check_floor());
    }
    if want("fig13") || want("fig14") {
        eprintln!("[repro] running fig13+fig14 (scale {scale}) ...");
        let start = std::time::Instant::now();
        let grid = checkpoint::run_all(scale);
        eprintln!("[repro] fig13+fig14 done in {:.1}s", start.elapsed().as_secs_f64());
        for t in [checkpoint::fig13(&grid), checkpoint::fig14(&grid)] {
            println!("{}", t.render());
            tables.push(t);
        }
    }
    run("fig15", &mut || checkout::fig15(scale), &mut tables);
    run("fig16", &mut || checkout::fig16(scale), &mut tables);
    run("table6", &mut || tracking::table6(scale), &mut tables);
    run("fig17", &mut || tracking::fig17(scale), &mut tables);
    run(
        "fig18",
        &mut || sweeps::fig18((120_000.0 * scale) as usize + 1_000),
        &mut tables,
    );
    run("fig19", &mut || sweeps::fig19(1000, (scale * 0.5).min(0.2)), &mut tables);

    if tables.is_empty() {
        die("no experiment matched; see --help");
    }
    // Default artifacts under target/ (never the source tree): the rendered
    // tables and their machine-readable form.
    let text: String = tables.iter().map(|t| t.render() + "\n").collect();
    write_file("target/repro_output.txt", &text);
    eprintln!("[repro] wrote target/repro_output.txt");
    let json_path = args
        .json
        .clone()
        .unwrap_or_else(|| "target/repro_results.json".to_string());
    let json = Json::Array(tables.iter().map(Table::to_json).collect()).pretty();
    write_file(&json_path, &json);
    eprintln!("[repro] wrote {json_path}");
    export_global_trace();
    if floors_missed > 0 {
        std::process::exit(1);
    }
}
