//! Seeded workload generators.
//!
//! Each generator turns a seed into a [`Script`]: the cells, checkout
//! targets, dashboard queries, persists and restarts that one simulated
//! user issues, with the node id each cell is expected to commit. The
//! generators see only the seed; the session under test sees only the
//! generated script. Sizes are per round (see `runner`); a round takes
//! 2–5 s on a 2-core x86-64 machine ([`round_seconds`]), and three rounds
//! give every gated percentile enough samples.

use kishu_testkit::rng::Rng;
use kishu_workloads::all_notebooks;

/// Every workload kbench can run.
pub const NAMES: [&str; 4] = ["notebooks", "undo_hot", "branch_cold", "long_session"];

/// The workloads `BENCHMARK.json` gates on, in the order `--workload all`
/// runs them. `long_session` runs only by name: its timed phase is all
/// small-object CPU work, whose speed on a shared host drifts by up to 2×
/// over minutes, past any bound a regression gate can use (README).
pub const BENCHMARK: [&str; 3] = ["notebooks", "undo_hot", "branch_cold"];

/// One round of `workload` on a 2-core x86-64 machine, set-up, timed phase
/// and the child process included, in seconds: what a run divides its
/// `--seconds` by to get its round count.
pub fn round_seconds(workload: &str) -> f64 {
    match workload {
        "notebooks" => 5.0,
        "undo_hot" => 2.0,
        "branch_cold" => 4.2,
        _ => 2.0,
    }
}

/// One user action.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run a cell, which must commit checkpoint `node`.
    Cell { src: String, node: u32 },
    /// Check out checkpoint `target`.
    Checkout { target: u32 },
    /// A dashboard poll: `diff(head, target)`, then `history(var)`.
    Query { target: u32, var: String },
    /// Persist the checkpoint graph.
    Persist,
    /// Drop the session, reopen its store, and resume from the last persist.
    Restart,
}

/// The actions against one session (one store): `setup` brings it to the
/// state the timed `phase` starts from.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionScript {
    pub setup: Vec<Op>,
    pub phase: Vec<Op>,
}

/// One round of a workload: its sessions, run one after another.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub sessions: Vec<SessionScript>,
}

/// Generate one round of `workload` from `seed`; `None` for an unknown name.
pub fn generate(workload: &str, seed: u64) -> Option<Script> {
    let mut rng = Rng::seed_from_u64(seed);
    let sessions = match workload {
        "notebooks" => notebooks(&mut rng),
        "undo_hot" => vec![undo_hot(&mut rng)],
        "branch_cold" => vec![branch_cold(&mut rng)],
        "long_session" => vec![long_session_script(&mut rng)],
        _ => return None,
    };
    Some(Script { sessions })
}

/// Every `QUERY_EVERY`-th user step also polls the dashboard.
const QUERY_EVERY: usize = 5;
const NOTEBOOK_UNDO_EVERY: usize = 10;

/// Notebook cells run as set-up: the configuration and data loading the
/// paper's notebooks open with.
const NOTEBOOK_SETUP_CELLS: usize = 3;

/// `notebooks`: the paper's eight notebooks at scale 0.5 (their in-progress
/// ones already re-execute cells), each opened by running its first three
/// cells as set-up. In the timed phase every fifth cell the user polls the
/// dashboard and every tenth cell is undone and redone; most cells are
/// never read back, so the read path and its cache carry little of the
/// time. Each notebook ends with a persist and a restart. The seed picks
/// the query targets and variables.
fn notebooks(rng: &mut Rng) -> Vec<SessionScript> {
    all_notebooks(0.5)
        .iter()
        .map(|nb| {
            let mut b = Builder::new();
            let mut vars: Vec<String> = Vec::new();
            for (k, cell) in nb.cells.iter().enumerate() {
                if k == NOTEBOOK_SETUP_CELLS {
                    b.end_setup();
                }
                for name in assigned_names(&cell.src) {
                    if !vars.contains(&name) {
                        vars.push(name);
                    }
                }
                b.cell(cell.src.clone());
                if k < NOTEBOOK_SETUP_CELLS {
                    continue;
                }
                if k % QUERY_EVERY == QUERY_EVERY - 1 {
                    let var = vars[rng.random_range(0..vars.len())].clone();
                    b.query(rng, var);
                }
                if k % NOTEBOOK_UNDO_EVERY == NOTEBOOK_UNDO_EVERY - 1 {
                    b.undo_redo();
                }
            }
            b.persist();
            b.restart();
            b.finish()
        })
        .collect()
}

/// `counts[k]` copies of step kind `k` in seeded order. A round's mix is
/// fixed and only its order depends on the seed, so rounds with different
/// seeds do the same amount of work.
fn deck(rng: &mut Rng, counts: &[usize]) -> Vec<usize> {
    let mut steps: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(kind, &n)| std::iter::repeat_n(kind, n))
        .collect();
    rng.shuffle(&mut steps);
    steps
}

const HOT_MODELS: usize = 8;
const HOT_MODEL_BYTES: usize = 512 << 10;
const HOT_ARRAYS: usize = 8;
const HOT_ARRAY_LEN: usize = 8 << 10;
/// Per round: model updates, array updates, checkouts (30% cells; 216
/// cells over a three-round run, enough for their p95).
const HOT_STEPS: [usize; 3] = [24, 48, 168];
/// Mean distance, in checkpoints, from the newest checkpoint to a checkout
/// target: small enough that the working set fits the 32 MiB cache.
const HOT_MEAN_DISTANCE: f64 = 6.0;

/// `undo_hot`: 8 fitted models of 512 KiB and 8 arrays of 8K floats, then
/// steps of which 30% mutate one variable (a third `m.update(i)`, two
/// thirds `a = a * 1.0001`) and 70% check out a recency-skewed earlier
/// checkpoint: undo/redo over a working set the read cache holds.
fn undo_hot(rng: &mut Rng) -> SessionScript {
    let mut b = Builder::new();
    for i in 0..HOT_MODELS {
        let seed = rng.random_range(0..1_000_000u64);
        b.cell(format!(
            "m{i} = lib_obj('sk.LogisticRegression', {HOT_MODEL_BYTES}, {seed})\nm{i}.fit(1)\n"
        ));
    }
    for i in 0..HOT_ARRAYS {
        let seed = rng.random_range(0..1_000_000u64);
        b.cell(format!("a{i} = randn_seeded({HOT_ARRAY_LEN}, {seed})\n"));
    }
    let first = b.head;
    b.end_setup();
    let vars: Vec<String> = (0..HOT_MODELS)
        .map(|i| format!("m{i}"))
        .chain((0..HOT_ARRAYS).map(|i| format!("a{i}")))
        .collect();
    let mut steps = deck(rng, &HOT_STEPS);
    // Nothing but the head exists to check out until the first cell runs.
    if let Some(cell) = steps.iter().position(|&k| k != 2) {
        steps.swap(0, cell);
    }
    // Checkout distances back from the newest checkpoint: the quantiles of
    // an exponential distribution in seeded order, so every round reads
    // the same mix of near and far states.
    let checkouts = HOT_STEPS[2];
    let mut distances: Vec<u32> = (0..checkouts)
        .map(|j| (-(1.0 - (j as f64 + 0.5) / checkouts as f64).ln() * HOT_MEAN_DISTANCE) as u32)
        .collect();
    rng.shuffle(&mut distances);
    // Cells mutate the models, and the arrays, in turn.
    let mut turn = [0usize; 2];
    for (n, kind) in steps.into_iter().enumerate() {
        match kind {
            0 => {
                let i = turn[0] % HOT_MODELS;
                turn[0] += 1;
                b.cell(format!("m{i}.update({n})\n"));
            }
            1 => {
                let i = turn[1] % HOT_ARRAYS;
                turn[1] += 1;
                b.cell(format!("a{i} = a{i} * 1.0001\n"));
            }
            _ => {
                // Never before the setup's end (earlier states lack the
                // variables the next mutation touches), never the head.
                let newest = b.nodes() - 1;
                let distance = distances.pop().expect("one distance per checkout");
                let mut target = newest.saturating_sub(distance).max(first);
                if target == b.head {
                    target = if target > first { target - 1 } else { newest };
                }
                b.checkout(target);
            }
        }
        if n % QUERY_EVERY == QUERY_EVERY - 1 {
            let var = vars[rng.random_range(0..vars.len())].clone();
            b.query(rng, var);
        }
    }
    b.persist();
    b.restart();
    b.restart();
    b.finish()
}

const COLD_BRANCHES: usize = 18;
const COLD_MODELS: usize = 2;
const COLD_MODEL_BYTES: usize = 1 << 20;
/// 201 switches over a three-round run, enough for their p95.
const COLD_SWITCHES: usize = 67;
/// Predictions per cell: a 128 KiB array to checkpoint, so the cell's
/// latency is the write path's rather than the timer's.
const COLD_PREDICTIONS: usize = 16 << 10;

/// `branch_cold`: a shared 20,000×8 frame, then 18 branches that each add 2
/// models of 1 MiB (36 MiB, more than the 32 MiB read cache). The timed
/// phase switches branches round-robin, so the LRU cache misses every
/// time, and on each branch it lands on predicts with one of the branch's
/// models.
fn branch_cold(rng: &mut Rng) -> SessionScript {
    let mut b = Builder::new();
    let seed = rng.random_range(0..1_000_000u64);
    let base = b.cell(format!("df = read_csv('shared', 20000, 8, {seed})\n"));
    let mut tips = Vec::with_capacity(COLD_BRANCHES);
    for branch in 0..COLD_BRANCHES {
        if branch > 0 {
            b.checkout(base);
        }
        let mut src = String::new();
        for k in 0..COLD_MODELS {
            let seed = rng.random_range(0..1_000_000u64);
            src.push_str(&format!(
                "m{k} = lib_obj('sk.RandomForestClassifier', {COLD_MODEL_BYTES}, {seed})\n"
            ));
        }
        tips.push(b.cell(src));
    }
    b.end_setup();
    let mut vars: Vec<String> = (0..COLD_MODELS).map(|k| format!("m{k}")).collect();
    vars.extend(["df".to_string(), "pred".to_string()]);
    for step in 0..COLD_SWITCHES {
        let branch = step % COLD_BRANCHES;
        b.checkout(tips[branch]);
        let k = rng.random_range(0..COLD_MODELS);
        // One more prediction per step, so no two arrays are equal and
        // every cell writes (a deduplicated write would take a fraction of
        // the time and make the latency bimodal).
        let n = COLD_PREDICTIONS + step;
        tips[branch] = b.cell(format!("pred = m{k}.predict({n})\n"));
        if step % QUERY_EVERY == QUERY_EVERY - 1 {
            let var = vars[rng.random_range(0..vars.len())].clone();
            b.query(rng, var);
        }
    }
    b.persist();
    b.restart();
    b.restart();
    b.finish()
}

/// Lists, and as many dicts, bound in set-up.
const LONG_CONTAINERS: usize = 20;
/// Per round: list appends, list item sets, dict item sets, 200-iteration
/// loops, new bindings (1,400 cells).
const LONG_CELLS: [usize; 5] = [210, 210, 210, 210, 560];
const LONG_UNDO_EVERY: usize = 10;
const LONG_PERSIST_EVERY: usize = 100;
const LONG_RESTARTS: usize = 5;

/// `long_session`: set-up parses a 20,000×8 log (keeping only its shape)
/// and binds 40 small lists and dicts; then tiny cells mix mutations, a
/// 200-iteration loop and new bindings. Every fifth cell polls the
/// dashboard, every tenth is undone and redone, every hundredth persists
/// the graph; the round ends with five restarts. The phase's blobs stay
/// under 2 KiB, so simulated charges vanish and the per-commit graph work,
/// the VM and the queries are what is left.
fn long_session_script(rng: &mut Rng) -> SessionScript {
    let mut b = Builder::new();
    let seed = rng.random_range(0..1_000_000u64);
    b.cell(format!(
        "log_shape = read_csv('session_log', 20000, 8, {seed}).shape\n"
    ));
    let mut vars: Vec<String> = vec!["log_shape".to_string()];
    for i in 0..LONG_CONTAINERS {
        let items: Vec<String> = (0..8).map(|j| (i * 8 + j).to_string()).collect();
        b.cell(format!("l{i} = [{}]\n", items.join(", ")));
        vars.push(format!("l{i}"));
    }
    for i in 0..LONG_CONTAINERS {
        b.cell(format!(
            "d{i} = {{'a': {i}, 'b': {}, 'c': 'v{i}'}}\n",
            i * 2
        ));
        vars.push(format!("d{i}"));
    }
    b.end_setup();
    vars.push("acc".to_string());
    let mut fresh = 0usize;
    // Mutations visit the lists and dicts in turn, so every seed grows them
    // to the same sizes; the seed orders the cells and picks the values.
    let mut turn = [0usize; 3];
    for (k, kind) in deck(rng, &LONG_CELLS).into_iter().enumerate() {
        let v = rng.random_range(0..1000u32);
        let src = match kind {
            0..=2 => {
                turn[kind] += 1;
                let (c, slot) = (turn[kind] % LONG_CONTAINERS, turn[kind] / LONG_CONTAINERS);
                match kind {
                    0 => format!("l{c}.append({v})\n"),
                    1 => format!("l{c}[{}] = {v}\n", slot % 8),
                    _ => format!("d{c}['k{}'] = {v}\n", slot % 16),
                }
            }
            3 => format!(
                "acc = 0\nfor t in range(200):\n    acc += t % {}\n",
                v % 97 + 2
            ),
            _ => {
                fresh += 1;
                vars.push(format!("x{fresh}"));
                format!("x{fresh} = {v} * 2\n")
            }
        };
        b.cell(src);
        if k % QUERY_EVERY == QUERY_EVERY - 1 {
            let var = vars[rng.random_range(0..vars.len())].clone();
            b.query(rng, var);
        }
        if k % LONG_UNDO_EVERY == LONG_UNDO_EVERY - 1 {
            b.undo_redo();
        }
        if k % LONG_PERSIST_EVERY == LONG_PERSIST_EVERY - 1 {
            b.persist();
        }
    }
    b.persist();
    for _ in 0..LONG_RESTARTS {
        b.restart();
    }
    b.finish()
}

/// Names a cell binds at top level (`name = ...`, `name += ...`), in order.
fn assigned_names(src: &str) -> Vec<String> {
    src.lines()
        .filter(|line| !line.starts_with(char::is_whitespace))
        .filter_map(|line| {
            let (lhs, rhs) = line.split_once('=')?;
            if rhs.starts_with('=') || lhs.ends_with(['!', '<', '>']) {
                return None; // a comparison, not a binding
            }
            let name = lhs
                .trim_end()
                .trim_end_matches(['+', '-', '*', '/'])
                .trim_end();
            let ident = !name.is_empty()
                && !name.starts_with(|c: char| c.is_ascii_digit())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            ident.then(|| name.to_string())
        })
        .collect()
}

/// Builds one session's script while tracking the checkpoint graph the
/// script will produce, so every op can name concrete node ids.
struct Builder {
    setup: Vec<Op>,
    ops: Vec<Op>,
    /// `parents[i]` is node `i`'s parent; node 0 is the root.
    parents: Vec<u32>,
    head: u32,
}

impl Builder {
    fn new() -> Self {
        Builder {
            setup: Vec::new(),
            ops: Vec::new(),
            parents: vec![0],
            head: 0,
        }
    }

    fn nodes(&self) -> u32 {
        self.parents.len() as u32
    }

    fn cell(&mut self, src: String) -> u32 {
        let node = self.nodes();
        self.parents.push(self.head);
        self.head = node;
        self.ops.push(Op::Cell { src, node });
        node
    }

    fn checkout(&mut self, target: u32) {
        self.head = target;
        self.ops.push(Op::Checkout { target });
    }

    /// Undo the newest cell, then redo it.
    fn undo_redo(&mut self) {
        let head = self.head;
        self.checkout(self.parents[head as usize]);
        self.checkout(head);
    }

    fn query(&mut self, rng: &mut Rng, var: String) {
        let target = rng.random_range(0..self.nodes());
        self.ops.push(Op::Query { target, var });
    }

    fn persist(&mut self) {
        self.ops.push(Op::Persist);
    }

    fn restart(&mut self) {
        self.ops.push(Op::Restart);
    }

    /// Everything so far is set-up; what follows is the timed phase.
    fn end_setup(&mut self) {
        self.setup = std::mem::take(&mut self.ops);
    }

    fn finish(self) -> SessionScript {
        SessionScript {
            setup: self.setup,
            phase: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for name in NAMES {
            let a = generate(name, 7).expect("known workload");
            let b = generate(name, 7).expect("known workload");
            let c = generate(name, 8).expect("known workload");
            assert_eq!(a, b, "{name}: same seed, same script");
            assert_ne!(a, c, "{name}: another seed, another script");
        }
        assert!(generate("nope", 1).is_none());
    }

    #[test]
    fn scripts_commit_dense_node_ids_and_target_existing_nodes() {
        for name in NAMES {
            let script = generate(name, 3).expect("known workload");
            for session in &script.sessions {
                let mut next = 1u32;
                let mut persisted = false;
                for op in session.setup.iter().chain(&session.phase) {
                    match op {
                        Op::Cell { node, .. } => {
                            assert_eq!(*node, next, "{name}");
                            next += 1;
                        }
                        Op::Checkout { target } | Op::Query { target, .. } => {
                            assert!(*target < next, "{name}: target {target} not yet committed");
                        }
                        Op::Persist => persisted = true,
                        Op::Restart => assert!(persisted, "{name}: restart before any persist"),
                    }
                }
            }
        }
    }

    #[test]
    fn assigned_names_reads_top_level_bindings() {
        assert_eq!(
            assigned_names("x = 1\nfe0 -= fe0.mean()\n    y = 2\nprint(x)\nd['k'] = 1\na == b\n"),
            vec!["x", "fe0"]
        );
    }
}
