//! Multi-tenant shared-store experiment (`repro multi`).
//!
//! The deployment the [`kishu_storage::SharedStore`] exists for: several
//! notebook sessions working off the *same* datasets, each on its own
//! private store vs all on one shared store. Measured head-to-head:
//!
//! * **physical bytes** — N private stores each hold a full copy of the
//!   common data; the shared store holds it once (store-wide dedup), so
//!   the interesting number is the dedup ratio `logical / physical`;
//! * **aggregate checkpoint throughput** — all sessions' logical bytes
//!   over the interleaved wall time (per-shard ordered writers mean the
//!   sessions don't serialize against one store-wide lock);
//! * **GC** — after every session persists, superseded graph snapshots are
//!   garbage; one collection must reclaim 100% of it (a second pass finds
//!   nothing) while every historical commit of every session still checks
//!   out byte-identically.
//!
//! The isolation story itself (shared store ≡ private store, per session,
//! byte-for-byte) is proven by `tests/multi_tenant.rs`; this experiment
//! reports what that isolation *buys*.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kishu::session::{KishuConfig, KishuSession};
use kishu_storage::{GcReport, SharedStore, DEFAULT_SHARDS};

use crate::report::{fmt_bytes, fmt_duration, Table};

/// One shared-vs-private comparison's totals.
#[derive(Debug, Clone)]
pub struct MultiRun {
    /// Concurrent sessions (tenants).
    pub sessions: usize,
    /// Shards in the shared store's blob log.
    pub shards: usize,
    /// Wall time for the interleaved run on the shared store.
    pub shared_wall: Duration,
    /// Wall time for the same sessions on private stores.
    pub private_wall: Duration,
    /// Sum of every session's logical payload bytes.
    pub logical_bytes: u64,
    /// Physical payload bytes in the shared store (before GC).
    pub shared_physical: u64,
    /// Sum of the private stores' physical bytes.
    pub private_physical: u64,
    /// `logical / shared physical` — the cross-session dedup win.
    pub dedup_ratio: f64,
    /// Aggregate checkpoint throughput on the shared store (bytes/sec).
    pub throughput_bps: f64,
    /// What the collection reclaimed.
    pub gc: GcReport,
    /// A second collection found nothing: pass one reclaimed 100%.
    pub gc_complete: bool,
    /// Post-GC checkouts that restored byte-identically to pre-GC.
    pub checkouts_verified: usize,
}

/// One session's notebook: a small private preamble, then the shared
/// datasets every session loads identically (the cross-user redundancy),
/// then a private derived value.
fn session_cells(scale: f64, tenant: usize, sessions: usize) -> Vec<String> {
    let payload = ((262_144.0 * scale) as usize).max(4_096);
    let mut cells = vec![format!(
        "mine = lib_obj('pd.DataFrame', {}, {})\n",
        payload / 8,
        1000 + tenant
    )];
    for c in 0..5 {
        cells.push(format!("ds{c} = lib_obj('np.ndarray', {payload}, {c})\n"));
    }
    cells.push(format!("derived = [{tenant}, {sessions}]\n"));
    cells
}

/// Run the comparison at `scale` with `sessions` tenants.
pub fn run(scale: f64, sessions: usize) -> MultiRun {
    let config = KishuConfig::default;
    let scripts: Vec<Vec<String>> =
        (0..sessions).map(|t| session_cells(scale, t, sessions)).collect();
    let names: Vec<String> = (0..sessions).map(|t| format!("tenant-{t}")).collect();

    // Baseline: every session on its own private store.
    let private_t0 = Instant::now();
    let mut private_physical = 0u64;
    for script in &scripts {
        let mut s = KishuSession::in_memory(config());
        for cell in script {
            s.run_cell(cell).expect("workload parses");
        }
        s.persist().expect("persist");
        private_physical += s.store_stats().physical_bytes;
    }
    let private_wall = private_t0.elapsed();

    // Shared store, cells interleaved round-robin across the sessions.
    let store = SharedStore::in_memory(DEFAULT_SHARDS);
    let mut shared: Vec<KishuSession> = names
        .iter()
        .map(|n| KishuSession::on_shared(&store, n, config()).expect("tenant"))
        .collect();
    let shared_t0 = Instant::now();
    let mut nodes: Vec<Vec<kishu::NodeId>> = vec![Vec::new(); sessions];
    let n_cells = scripts[0].len();
    // Cell-major interleave: `i` indexes every session's script at once.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n_cells {
        for (t, s) in shared.iter_mut().enumerate() {
            if let Some(n) = s.run_cell(&scripts[t][i]).expect("workload parses").node {
                nodes[t].push(n);
            }
            if i == 2 {
                // A mid-run persist whose snapshot the final persist
                // supersedes: guaranteed GC fodder.
                s.persist().expect("mid persist");
            }
        }
    }
    for s in shared.iter_mut() {
        s.persist().expect("final persist");
    }
    let shared_wall = shared_t0.elapsed();
    let logical_bytes = store.logical_payload_bytes();
    let shared_physical = store.stats().payload_bytes;
    let dedup_ratio = store.dedup_ratio();

    // Collect, then prove the history is intact and the garbage is gone.
    let mut before: Vec<Vec<BTreeMap<String, String>>> = Vec::new();
    for (t, s) in shared.iter_mut().enumerate() {
        before.push(
            nodes[t]
                .iter()
                .map(|&n| {
                    s.checkout(n).expect("pre-gc checkout");
                    namespace(s)
                })
                .collect(),
        );
    }
    let live: BTreeMap<String, std::collections::BTreeSet<u64>> =
        names.iter().zip(&shared).map(|(n, s)| (n.clone(), s.live_blobs())).collect();
    let gc = store.collect(&live).expect("gc");
    for s in shared.iter_mut() {
        s.invalidate_store_caches();
    }
    let second = store.collect(&live).expect("second gc");
    let gc_complete = second.reclaimed_blobs == 0 && second.reclaimed_payload_bytes == 0;
    let mut checkouts_verified = 0usize;
    for (t, s) in shared.iter_mut().enumerate() {
        for (k, &n) in nodes[t].iter().enumerate() {
            s.checkout(n).expect("post-gc checkout");
            assert_eq!(namespace(s), before[t][k], "post-GC checkout diverged");
            checkouts_verified += 1;
        }
    }

    MultiRun {
        sessions,
        shards: store.shard_count(),
        shared_wall,
        private_wall,
        logical_bytes,
        shared_physical,
        private_physical,
        dedup_ratio,
        throughput_bps: logical_bytes as f64 / shared_wall.as_secs_f64().max(1e-9),
        gc,
        gc_complete,
        checkouts_verified,
    }
}

fn namespace(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), kishu_minipy::repr::repr(&s.interp.heap, o)))
        .collect()
}

/// The `repro multi` table.
pub fn table(scale: f64) -> Table {
    let r = run(scale, 4);
    let mut t = Table::new(
        "Multi-tenant",
        "shared checkpoint store vs private per-session stores",
        &["Config", "physical bytes", "ckpt wall", "dedup ratio", "agg throughput"],
    );
    t.row(vec![
        format!("{} private stores", r.sessions),
        fmt_bytes(r.private_physical),
        fmt_duration(r.private_wall),
        "1.00x".to_string(),
        format!("{:.1} MB/s", r.logical_bytes as f64 / r.private_wall.as_secs_f64().max(1e-9) / 1e6),
    ]);
    t.row(vec![
        format!("shared, {} shards", r.shards),
        fmt_bytes(r.shared_physical),
        fmt_duration(r.shared_wall),
        format!("{:.2}x", r.dedup_ratio),
        format!("{:.1} MB/s", r.throughput_bps / 1e6),
    ]);
    t.row(vec![
        "shared, post-GC".to_string(),
        fmt_bytes(r.gc.physical_after),
        "-".to_string(),
        format!("reclaimed {}", fmt_bytes(r.gc.reclaimed_payload_bytes)),
        format!(
            "{} checkouts intact{}",
            r.checkouts_verified,
            if r.gc_complete { ", gc complete" } else { ", GC INCOMPLETE" }
        ),
    ]);
    t.note(
        "identical dataset cells across sessions are stored once (store-wide \
         dedup); each session's view stays byte-identical to a private store \
         (tests/multi_tenant.rs); GC reclaims superseded graph snapshots and \
         nothing reachable",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_store_beats_the_dedup_acceptance_bar() {
        let r = run(0.02, 4);
        assert!(
            r.dedup_ratio > 1.5,
            "4 sessions on overlapping datasets must dedup > 1.5x, got {:.2}",
            r.dedup_ratio
        );
        assert!(r.shared_physical < r.private_physical);
        assert!(r.gc.reclaimed_blobs > 0, "superseded snapshots are garbage");
        assert!(r.gc_complete, "one GC pass reclaims 100% of the garbage");
        assert!(r.checkouts_verified > 0);
    }

    #[test]
    fn table_and_fragment_render() {
        let t = table(0.02);
        assert!(t.render().contains("shared"));
    }
}
