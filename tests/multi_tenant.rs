//! Multi-tenant differential suite: the shared checkpoint store is
//! **observationally private** per session.
//!
//! The serial-oracle methodology of `tests/parallel_pipeline.rs` /
//! `tests/parallel_checkout.rs` (any worker count must be byte-identical to
//! workers=1) is extended here along the tenancy axis: a session running on
//! its own private store is the oracle, and the same session running
//! *interleaved with K other sessions on one shared store* must produce —
//! at checkpoint/restore workers 1 and 4 —
//!
//! 1. **an identical store view**: same dense blob ids, same bytes, same
//!    errors, same logical stats;
//! 2. **identical per-cell reports**: node ids, checkpoint/written bytes,
//!    dedup and drop counters;
//! 3. **identical restored namespaces** at every checkpoint of every
//!    session;
//! 4. **an identical fault ledger** when the store injects faults —
//!    `FaultStore` scope-keyed draws mean a neighbor's retries cannot
//!    perturb a tenant's fault sequence;
//! 5. **GC as a pure space optimization**: collecting everything
//!    unreferenced changes no restored state anywhere, and refcount
//!    invariants hold after arbitrary interleavings.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{assert_twins, observe, observe_shared, snapshot, Backend, Faults, Observation, Point};
use common::{Run, Script, Step, ORACLE};
use kishu::session::{KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_storage::chunk::ChunkConfig;
use kishu_storage::{MemoryStore, SharedStore};
use kishu_testkit::prelude::*;
use kishu_testkit::rng::{env_seed, seed_override};

/// Tenants in the interleaved runs: the differential holds for *every* one
/// of them (each is "the" session; the other K=3 are its neighbors).
const TENANTS: [&str; 4] = ["ana", "ben", "cho", "dia"];

/// Checkpoint/restore worker counts under differential test.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn config(workers: usize) -> KishuConfig {
    Point { workers, ..ORACLE }.config()
}

/// Every tenant's script: `n_cells` cells (a third shared verbatim by all
/// tenants), then a checkout of every committed node.
fn scripts(base_seed: u64, n_cells: usize) -> Vec<Script> {
    TENANTS
        .iter()
        .enumerate()
        .map(|(ti, name)| Script::tenant(name, base_seed, ti, n_cells).visiting_every_node())
        .collect()
}

/// Each tenant alone on a private in-memory store vs all of them
/// interleaved on one shared store with `shards` shards: every tenant's
/// observation — store view, reports, stats, every restored namespace,
/// fault ledger — must be identical. Returns the interleaved observations
/// and the shared store.
fn assert_private(
    point: &Point,
    shards: usize,
    scripts: &[Script],
) -> (Vec<Observation>, SharedStore) {
    let tenant = Point { store: Backend::SharedTenant, ..*point };
    let (shared, store) = observe_shared(&tenant, point.config(), shards, scripts);
    for (script, inter) in scripts.iter().zip(&shared) {
        assert_twins(&observe(point, script), inter);
    }
    (shared, store)
}

/// The cell sources of tenant `ti`'s script.
fn cells(base_seed: u64, ti: usize, n_cells: usize) -> Vec<String> {
    Script::tenant(TENANTS[ti], base_seed, ti, n_cells).cell_sources()
}

/// The headline differential: every tenant's observable world — store view,
/// reports, stats, every restored namespace — is byte-identical solo on a
/// private store vs interleaved with K=3 neighbors on the shared store, at
/// 1 and 4 checkpoint/restore workers, for 1 and 4 shards.
#[test]
fn tenant_views_are_byte_identical_solo_vs_interleaved() {
    let scripts = scripts(env_seed(0x5EED_7E4A), 18);
    for workers in WORKER_COUNTS {
        for shards in [1usize, 4] {
            let (_, store) = assert_private(&Point { workers, ..ORACLE }, shards, &scripts);
            store.check_invariants(true).expect("refcount invariants");
            // The interleaved runs share identical dataset cells, so the
            // store-wide dedup must have found cross-tenant redundancy.
            assert!(
                store.dedup_ratio() > 1.0,
                "common cells must dedup across tenants (ratio {})",
                store.dedup_ratio()
            );
        }
    }
}

/// Fault-injection differential: with a fault-injecting store shared by
/// all tenants, each tenant's fault ledger, reports and restored state are
/// identical to running alone over a private faulty store with the same
/// scope — one session's retries never perturb another's deterministic
/// draws.
#[test]
fn fault_ledgers_are_identical_solo_vs_interleaved() {
    let base_seed = env_seed(0xFA17_5EED);
    let scripts = scripts(base_seed, 16);
    for workers in WORKER_COUNTS {
        let point = Point { workers, faults: Faults::Seeded(base_seed ^ 0xFA17), ..ORACLE };
        let (shared, _) = assert_private(&point, 4, &scripts);
        if seed_override().is_none() {
            let fired: usize = shared.iter().map(|o| o.logical.ledger.total()).sum();
            assert!(fired > 0, "default seed should fire at these probabilities");
        }
    }
}

/// GC is a pure space optimization: after collecting everything the live
/// graphs don't reach, every checkpoint of every session restores exactly
/// the pre-GC namespace, the store's refcount invariants hold, and a
/// second collection finds nothing left to reclaim (100% of unreferenced
/// bytes went in the first pass).
#[test]
fn gc_preserves_every_commit_of_every_session() {
    let base_seed = env_seed(0x6C_5EED);
    let store = SharedStore::in_memory(4);
    let mut sessions: Vec<KishuSession> = TENANTS
        .iter()
        .map(|name| KishuSession::on_shared(&store, name, config(2)).expect("tenant"))
        .collect();
    let scripts: Vec<Vec<String>> = (0..TENANTS.len()).map(|ti| cells(base_seed, ti, 15)).collect();
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); TENANTS.len()];
    for i in 0..15 {
        for ((s, script), nodes) in sessions.iter_mut().zip(&scripts).zip(&mut nodes) {
            if let Some(n) = s.run_cell(&script[i]).expect("cells parse").node {
                nodes.push(n);
            }
            // Periodic persists create superseded snapshots — GC fodder.
            if i % 5 == 4 {
                s.persist().expect("persist");
            }
        }
    }
    // Ground truth: every checkpoint's namespace before GC.
    let mut before: Vec<Vec<BTreeMap<String, String>>> = Vec::new();
    for (ti, s) in sessions.iter_mut().enumerate() {
        let mut per = Vec::new();
        for &n in &nodes[ti] {
            s.checkout(n).expect("checkout pre-gc");
            per.push(snapshot(s));
        }
        before.push(per);
    }
    let live: BTreeMap<String, BTreeSet<u64>> = TENANTS
        .iter()
        .zip(&sessions)
        .map(|(name, s)| (name.to_string(), s.live_blobs()))
        .collect();
    let r = store.collect(&live).expect("gc");
    assert!(r.reclaimed_blobs > 0, "superseded snapshots should be reclaimable: {r:?}");
    assert!(r.physical_after < r.physical_before);
    store.check_invariants(true).expect("refcount invariants after gc");
    for s in &mut sessions {
        s.invalidate_store_caches();
    }
    // Idempotence = completeness: nothing unreferenced survived.
    let r2 = store.collect(&live).expect("second gc");
    assert_eq!(r2.reclaimed_blobs, 0, "first gc must reclaim 100% of garbage");
    assert_eq!(r2.reclaimed_payload_bytes, 0);
    // Every commit of every session restores exactly as before.
    for (ti, s) in sessions.iter_mut().enumerate() {
        for (k, &n) in nodes[ti].iter().enumerate() {
            s.checkout(n).expect("checkout post-gc");
            assert_eq!(snapshot(s), before[ti][k], "tenant {} node {n:?}", TENANTS[ti]);
        }
        // And the sessions keep working: new cells, new checkpoints.
        s.run_cell("post_gc = [9, 9, 9]\n").expect("post-gc cell");
    }
    store.check_invariants(true).expect("invariants after post-gc writes");
}

/// `resume` works through a tenant view: a session persisted into a shared
/// store resumes to the same state whether its tenant was alone in the
/// store or interleaved with neighbors.
#[test]
fn resume_through_a_tenant_view_is_isolation_blind() {
    let base_seed = env_seed(0x2E_5135);
    let run_and_resume = |neighbors: bool| -> (Vec<String>, BTreeMap<String, String>) {
        let store = SharedStore::in_memory(4);
        let mut sessions: Vec<(usize, KishuSession)> = Vec::new();
        for (ti, name) in TENANTS.iter().enumerate() {
            if ti == 0 || neighbors {
                sessions
                    .push((ti, KishuSession::on_shared(&store, name, config(2)).expect("tenant")));
            }
        }
        let scripts: Vec<Vec<String>> =
            (0..TENANTS.len()).map(|ti| cells(base_seed, ti, 12)).collect();
        for i in 0..12 {
            for (ti, s) in sessions.iter_mut() {
                let script = &scripts[*ti];
                s.run_cell(&script[i]).expect("cells parse");
            }
        }
        for (_, s) in sessions.iter_mut() {
            s.persist().expect("persist");
        }
        drop(sessions);
        let resumed = KishuSession::resume(
            Box::new(store.tenant(TENANTS[0]).expect("tenant")),
            config(2),
        )
        .expect("resume through tenant view");
        (resumed.log(), snapshot(&resumed))
    };
    let (solo_log, solo_ns) = run_and_resume(false);
    let (inter_log, inter_ns) = run_and_resume(true);
    assert_eq!(solo_log, inter_log, "resumed graph log diverged");
    assert_eq!(solo_ns, inter_ns, "resumed namespace diverged");
}

/// Decode one random-interleaving op from a byte (tenant + what to do).
/// Plain data so proptest shrinking yields a minimal interleaving.
fn decode_op(b: u8, n_tenants: usize) -> (usize, bool, usize) {
    let tenant = b as usize % n_tenants;
    let checkout = (b / 64) == 3; // 1 in 4 ops is a checkout
    (tenant, checkout, b as usize / n_tenants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of 2–4 sessions' checkpoint/checkout ops:
    /// store-wide dedup never changes any session's restored namespace
    /// (differentially vs private stores running the identical op
    /// subsequence), and refcounts stay exact. On failure, proptest
    /// shrinks `ops` to a minimal interleaving.
    #[test]
    fn random_interleavings_are_observationally_private(
        seed in any::<u64>(),
        n_tenants in 2usize..5,
        ops in prop::collection::vec(any::<u8>(), 8..40),
    ) {
        let scripts: Vec<Vec<String>> =
            (0..n_tenants).map(|ti| cells(seed, ti, ops.len())).collect();
        let store = SharedStore::in_memory(4);
        let tenant = |ti: usize| KishuSession::on_shared(&store, TENANTS[ti], config(1));
        let mut shared: Vec<Run> =
            (0..n_tenants).map(|ti| Run::new(tenant(ti).expect("tenant"))).collect();
        // A tenant view reports sizes exactly as a private v1 store does.
        let private_store = || Box::new(MemoryStore::with_config(ChunkConfig::disabled()));
        let private_session = || KishuSession::new(private_store(), config(1));
        let mut private: Vec<Run> = (0..n_tenants).map(|_| Run::new(private_session())).collect();
        let mut ran = vec![0usize; n_tenants];
        let mut apply = |ti: usize, step: &Step| {
            shared[ti].step(step);
            private[ti].step(step);
        };
        for &b in &ops {
            let (ti, checkout, pick) = decode_op(b, n_tenants);
            if checkout && ran[ti] > 0 {
                apply(ti, &Step::Checkout(pick));
            } else {
                ran[ti] += 1;
                apply(ti, &Step::Cell { src: scripts[ti][ran[ti] - 1].clone(), store: true });
            }
        }
        // Final sweep: every checkpoint of every tenant restores the same
        // namespace from the shared store as from the private one.
        for (ti, &n) in ran.iter().enumerate() {
            for k in 0..n {
                apply(ti, &Step::Checkout(k));
            }
        }
        for (ti, (a, b)) in shared.iter().zip(&private).enumerate() {
            prop_assert_eq!(&a.logical, &b.logical, "tenant {} diverged", ti);
            prop_assert_eq!(&a.physical, &b.physical, "tenant {} sizes diverged", ti);
        }
        if let Err(e) = store.check_invariants(true) {
            return Err(TestCaseError::fail(format!("store invariant violated: {e}")));
        }
    }
}

/// The acceptance workload: 4 sessions loading overlapping datasets on one
/// shared store must dedup better than 1.5× vs what 4 private stores would
/// hold.
#[test]
fn overlapping_datasets_dedup_beyond_the_acceptance_bar() {
    let store = SharedStore::in_memory(4);
    let mut sessions: Vec<KishuSession> = TENANTS
        .iter()
        .map(|name| KishuSession::on_shared(&store, name, config(2)).expect("tenant"))
        .collect();
    // Every tenant loads the same "dataset" and trains the same "model";
    // only a small private preamble differs.
    for (ti, s) in sessions.iter_mut().enumerate() {
        s.run_cell(&format!("mine = [{ti}]\n")).expect("private cell");
        for c in 0..6 {
            let vals: Vec<String> = (0..200).map(|v| ((v * 7 + c * 13) % 97).to_string()).collect();
            s.run_cell(&format!("data{c} = [{}]\n", vals.join(", "))).expect("dataset cell");
        }
    }
    let ratio = store.dedup_ratio();
    assert!(ratio > 1.5, "dedup ratio {ratio:.2} must beat 1.5x on overlapping datasets");
    store.check_invariants(true).expect("invariants");
    // And the privacy contract still holds: each session sees only its own
    // logical bytes.
    for (ti, s) in sessions.iter().enumerate() {
        let mine = s.store().get(0).expect("private blob readable");
        assert!(!mine.is_empty(), "tenant {ti} reads its own first blob");
    }
}
