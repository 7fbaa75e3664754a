//! kbench — the benchmark every performance claim about this repository is
//! measured with.
//!
//! ```text
//! kbench run [--workload NAME|all] [--seed U64] [--seconds N] [--traced | --trace 0|1] [--out FILE]
//! kbench compare [--bench BENCHMARK.json] PARENT.json... -- CHANGE.json...
//! ```
//!
//! `run` drives seeded notebook workloads through Kishu's public API on a
//! `FileStore` under `target/kbench/` (deleted afterwards), checks every
//! restored namespace, prints every metric with its unit, and ends
//! standard output with a one-line JSON summary. An untraced run reports
//! end-to-end metrics; a traced run (`--traced` or `--trace 1`) reports
//! per-layer metrics. Every round of a run executes in a fresh child
//! process (`run --round R`, which writes that round's raw result to
//! `--out`), so peak RSS and allocator state belong to that round;
//! `--workload all` runs the benchmark's workloads one after another. See
//! README.md next to this file.

mod clock;
mod compare;
mod metrics;
mod report;
mod runner;
mod stats;
mod timed_store;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kishu_testkit::json::Json;
use kishu_testkit::rng::splitmix64;

use report::{RunInfo, RunReport};
use runner::RoundResult;

/// Where runs keep their stores, relative to the working directory.
const WORK_DIR: &str = "target/kbench";
/// Set-up, `wall_s` and `cpu_s` are medians over rounds.
const MIN_ROUNDS: u64 = 3;
const DEFAULT_SECONDS: u64 = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(
            "usage: kbench run [--workload NAME|all] [--seed U64] [--seconds N] [--traced | --trace 0|1] [--out FILE]\n       kbench compare [--bench BENCHMARK.json] PARENT.json... -- CHANGE.json..."
                .to_string(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("kbench: {msg}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    /// Run only this round, in this process (the child side of a run).
    round: Option<u64>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: "all".to_string(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        round: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--round" => parsed.round = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload != "all" && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; expected all or one of {}",
            parsed.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

/// Refuse to run where results would not be comparable: any `KISHU_*`
/// variable (they switch tracing, worker counts, chunking and more under
/// every session) or a platform without the CPU clocks.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KISHU_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set; unset it",
            set.join(", ")
        ));
    }
    if !clock::SUPPORTED {
        return Err("needs 64-bit Linux for its CPU clocks".to_string());
    }
    Ok(())
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    check_environment()?;
    if let Some(round) = args.round {
        return run_round_here(&args, round);
    }
    let one = [args.workload.as_str()];
    let names: &[&str] = if args.workload == "all" {
        &workloads::BENCHMARK
    } else {
        &one
    };
    let mut reports = Vec::new();
    for name in names {
        let report = run_workload(name, args.seed, args.seconds, args.traced)?;
        report.print();
        reports.push(report);
    }
    println!("{}", RunReport::summary_line(&reports));
    let correct = reports.iter().all(RunReport::correct);
    if let Some(out) = &args.out {
        let doc = Json::obj(vec![
            ("kbench", Json::Int(1)),
            (
                "runs",
                Json::Array(reports.iter().map(RunReport::to_json).collect()),
            ),
        ]);
        std::fs::write(out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    // Leave no empty directories behind (removing a non-empty one fails).
    for dir in [WORK_DIR, "target"] {
        let _ = std::fs::remove_dir(dir);
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The child side of a run: execute one round in this process and write
/// its raw result, with this process's peak RSS, to `--out`.
fn run_round_here(args: &RunArgs, round: u64) -> Result<ExitCode, String> {
    let out = args.out.as_ref().ok_or("--round needs --out")?;
    if args.workload == "all" {
        return Err("--round needs one --workload".to_string());
    }
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let _cleanup = Cleanup(dir.clone());
    let script = workloads::generate(&args.workload, round_seed(args.seed, round))
        .expect("workload name was checked");
    let mut result = runner::run_round(&script, &dir, args.traced)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    result.peak_rss_kib = clock::peak_rss_kib().unwrap_or(0);
    std::fs::write(out, result.to_json().dump()).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(ExitCode::SUCCESS)
}

/// Run one round in a fresh child process and read back its result.
fn round_in_child(
    workload: &str,
    seed: u64,
    round: u64,
    traced: bool,
    dir: &Path,
) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = dir.join(format!(
        "round{round}-{}.json",
        if traced { "traced" } else { "untraced" }
    ));
    // `status` waits for the child to exit.
    let status = std::process::Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--round",
            &round.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&out)
        .status()
        .map_err(|e| format!("cannot start round {round}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} round {round} exited {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::remove_file(&out).ok();
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", out.display()))?;
    RoundResult::from_json(&json)
}

/// Distinct, well-mixed seeds for the rounds of one run, so runs with
/// neighbouring seeds share no round.
fn round_seed(seed: u64, round: u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
    splitmix64(&mut state)
}

/// Deletes a run's working directory however the run ends.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How many rounds a run of `seconds` does: enough to fill `seconds` on the
/// reference machine, an odd number so that a median is one round's value,
/// and never fewer than [`MIN_ROUNDS`]. A traced round runs twice (see
/// below), so a traced run does half as many. The count depends on the
/// arguments only, so a faster program does the same work in less time.
fn rounds(workload: &str, seconds: u64, traced: bool) -> u64 {
    let share = if traced { 2.0 } else { 1.0 };
    let n = (seconds as f64 / share / workloads::round_seconds(workload)).round() as u64;
    n.max(MIN_ROUNDS) | 1
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunReport, String> {
    let rounds = rounds(workload, seconds, traced);
    let dir = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _cleanup = Cleanup(dir.clone());
    let mut measured = Vec::new();
    let mut twins = Vec::new();
    for r in 0..rounds {
        // A traced round runs next to an untraced twin of the same script,
        // alternating which goes first, to measure the tracing overhead.
        let arms: &[bool] = match (traced, r % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &arm in arms {
            let result = round_in_child(workload, seed, r, arm, &dir)?;
            if arm == traced {
                measured.push(result);
            } else {
                twins.push(result);
            }
        }
    }
    let info = RunInfo {
        workload: workload.to_string(),
        seed,
        seconds,
        rounds: rounds as usize,
        traced,
        env: environment(),
    };
    RunReport::new(info, &measured, &twins)
}

/// The configuration and machine a result was measured on.
fn environment() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", Json::Int(nproc as i64)),
        ("git_rev", Json::Str(git_revision())),
        (
            "kishu_config",
            Json::Str(format!("{:?}", runner::kishu_config())),
        ),
        (
            "store",
            Json::Str(format!(
                "FileStore {:?} group_commit={} sync_on_put=false",
                kishu_storage::ChunkConfig::default(),
                runner::GROUP_COMMIT
            )),
        ),
        (
            "load",
            Json::Str("closed loop, one user, zero think time".to_string()),
        ),
    ]
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let mut bench = "BENCHMARK.json".to_string();
    let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.clone(),
            "--" if side == 0 => side = 1,
            _ => sides[side].push(arg.clone()),
        }
    }
    let [parent, change] = sides;
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs PARENT.json... -- CHANGE.json...".to_string());
    }
    let regressed = compare::compare(&bench, &parent, &change)?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
