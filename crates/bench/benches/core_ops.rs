//! Microbenchmarks of Kishu's core operations, including the ablations
//! DESIGN.md calls out: VarGraph hash fast-path vs full array values,
//! candidate pruning vs check-all, LCA/state-diff cost vs branch depth,
//! pickle throughput, storage primitives, and the chunk encoder.
//!
//! Runs under the in-tree `kishu_testkit::bench` harness (`harness =
//! false`): `cargo bench --bench core_ops [-- <filter>]`, or
//! `KISHU_BENCH_QUICK=1` for a smoke run.

use std::sync::Arc;

use kishu::delta::DeltaDetector;
use kishu::graph::{CheckpointGraph, StoredCoVar};
use kishu::vargraph::{VarGraph, VarGraphConfig};
use kishu::xxh64::xxh64;
use kishu_libsim::Registry;
use kishu_minipy::Interp;
use kishu_pickle::{dumps, loads, NoopReducer};
use kishu_storage::chunk::{chunk_spans, encode_chunk, ChunkConfig, ChunkLedger};
use kishu_storage::crc32::crc32;
use kishu_testkit::bench::{black_box, Bench};
use kishu_testkit::rng::Rng;

fn prepared_interp(src: &str) -> Interp {
    let mut i = Interp::new();
    kishu_libsim::install(&mut i, Arc::new(Registry::standard()));
    let out = i.run_cell(src).expect("parses");
    assert!(out.error.is_none(), "{:?}", out.error);
    i
}

/// VarGraph construction cost vs component size, and the §6.2 hash-vs-full
/// array ablation.
fn bench_vargraph(b: &mut Bench) {
    b.group("vargraph_build", |g| {
        for n in [100usize, 10_000, 1_000_000] {
            let i = prepared_interp(&format!("arr = arange({n})\n"));
            let root = i.globals.peek("arr").expect("bound");
            for (label, hash) in [("hash", true), ("full", false)] {
                let config = VarGraphConfig {
                    registry: Arc::new(Registry::standard()),
                    hash_arrays: hash,
                    hash_primitive_lists: false,
                };
                let mut nonce = 0;
                g.bench(&format!("array_{label}/{n}"), || {
                    black_box(VarGraph::build(&i.heap, root, &config, &mut nonce))
                });
            }
        }
        // A fragmented string-list component (the Sklearn shape).
        let i = prepared_interp(
            "ls = []\nfor k in range(2000):\n    ls.append('tweet ' + str(k))\n",
        );
        let root = i.globals.peek("ls").expect("bound");
        let config = VarGraphConfig {
            registry: Arc::new(Registry::standard()),
            hash_arrays: true,
            hash_primitive_lists: false,
        };
        let mut nonce = 0;
        g.bench("string_list_2000", || {
            black_box(VarGraph::build(&i.heap, root, &config, &mut nonce))
        });
    });
}

/// Fig 17's mechanism in microcosm: per-cell delta detection with candidate
/// pruning vs check-all, against a growing bystander state.
fn bench_delta_detection(b: &mut Bench) {
    b.group("delta_detect", |g| {
        for bystanders in [10usize, 100] {
            let mut setup = String::new();
            for k in 0..bystanders {
                setup.push_str(&format!("big{k} = arange(2000)\n"));
            }
            setup.push_str("small = [1, 2, 3]\n");
            for (label, check_all) in [("kishu", false), ("check_all", true)] {
                let mut i = prepared_interp(&setup);
                let registry = Arc::new(Registry::standard());
                let mut det = DeltaDetector::new(registry, true, check_all);
                // Prime the caches. The benched mutation pokes in place
                // (no growth), so per-iteration cost stays stationary.
                let out = i.run_cell("small[0] = 0\n").expect("parses");
                det.on_cell(&i.heap, &i.globals, &out.access);
                g.bench(&format!("{label}/{bystanders}"), || {
                    let out = i.run_cell("small[0] = small[0] + 1\n").expect("parses");
                    black_box(det.on_cell(&i.heap, &i.globals, &out.access))
                });
            }
        }
    });
}

/// Fig 19's mechanism: LCA + state reconstruction cost vs chain depth.
fn bench_state_diff(b: &mut Bench) {
    b.group("state_diff", |g| {
        for depth in [100u32, 1000] {
            let mut graph = CheckpointGraph::new();
            let mut nodes = Vec::new();
            for i in 0..depth {
                let key: std::collections::BTreeSet<String> =
                    [format!("v{}", i % 40)].into_iter().collect();
                nodes.push(graph.commit(
                    format!("cell {i}"),
                    vec![StoredCoVar {
                        names: key,
                        blob: Some(i as u64),
                        bytes: 100,
                    }],
                    vec![],
                    vec![],
                ));
            }
            let head = *nodes.last().expect("nonempty");
            let target = nodes[nodes.len() / 2];
            g.bench(&format!("diff/{depth}"), || black_box(graph.diff(head, target)));
            g.bench(&format!("lca_walk/{depth}"), || {
                black_box(graph.lca(head, nodes[0]))
            });
        }
    });
}

/// Pickle throughput on a dataframe-shaped megabyte, dump and load.
fn bench_pickle(b: &mut Bench) {
    let i = prepared_interp("df = read_csv('bench', 16000, 8, 1)\n");
    let root = i.globals.peek("df").expect("bound");
    b.group("pickle", |g| {
        g.bench("dumps_1mb_frame", || {
            black_box(dumps(&i.heap, &[root], &NoopReducer).expect("dumps"))
        });
        let blob = dumps(&i.heap, &[root], &NoopReducer).expect("dumps");
        g.bench("loads_1mb_frame", || {
            let mut heap = kishu_kernel::Heap::new();
            black_box(loads(&mut heap, &blob, &NoopReducer).expect("loads"))
        });
    });
}

/// Extension ablations: primitive-list hashing (§7.6) and rule-based
/// read-only cell skipping (§6.2).
fn bench_extensions(b: &mut Bench) {
    b.group("extensions", |g| {
        // List hashing: VarGraph build over a 2000-string list.
        let i = prepared_interp(
            "ls = []\nfor k in range(2000):\n    ls.append('tweet ' + str(k))\n",
        );
        let root = i.globals.peek("ls").expect("bound");
        for (label, hash_lists) in [("list_nodes", false), ("list_digest", true)] {
            let mut config = VarGraphConfig::new(Arc::new(Registry::standard()));
            config.hash_primitive_lists = hash_lists;
            let mut nonce = 0;
            g.bench(&format!("vargraph_{label}_2000"), || {
                black_box(VarGraph::build(&i.heap, root, &config, &mut nonce))
            });
        }
        // Rule-based cells: tracking cost of a read-only inspection cell.
        use kishu::session::{KishuConfig, KishuSession};
        for (label, rules) in [("rules_off", false), ("rules_on", true)] {
            let config = KishuConfig {
                rule_based_cells: rules,
                auto_checkpoint: false,
                ..KishuConfig::default()
            };
            let mut s = KishuSession::in_memory(config);
            s.run_cell("big = []\nfor k in range(2000):\n    big.append('item ' + str(k))\n")
                .expect("runs");
            g.bench(&format!("print_cell_{label}"), || {
                black_box(s.run_cell("big[:10]\n").expect("runs").tracking_time)
            });
        }
    });
}

/// Hash and checksum primitives.
fn bench_hashes(b: &mut Bench) {
    let data = vec![0xA5u8; 1 << 20];
    b.group("hashes", |g| {
        g.bench("xxh64_1mb", || black_box(xxh64(&data, 0)));
        g.bench("crc32_1mb", || black_box(crc32(&data)));
    });
}

/// The chunk encoder a chunked put runs on the session thread: the Gear
/// cut alone, then the cut plus every chunk's stored form (the pre-check,
/// the compression attempt where it passes and the raw copy where
/// compression is declined or loses) over a seeded MiB of random and of
/// low-entropy bytes, and a whole put's chunk work for a random MiB into a
/// fresh ledger and for a MiB whose every chunk the ledger already holds.
fn bench_chunk(b: &mut Bench) {
    let cfg = ChunkConfig::default();
    let mut rng = Rng::seed_from_u64(23);
    let random: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    let low_entropy: Vec<u8> = (0..1 << 20).map(|_| (rng.next_u64() % 4) as u8).collect();
    b.group("chunk", |g| {
        g.bench("cut_1mb", || black_box(chunk_spans(&random, &cfg)));
        for (label, data) in [("random", &random), ("lowentropy", &low_entropy)] {
            g.bench(&format!("encode_1mb_{label}"), || {
                let stored: usize = chunk_spans(data, &cfg)
                    .into_iter()
                    .map(|span| encode_chunk(&data[span]).len())
                    .sum();
                black_box(stored)
            });
        }
        g.bench("ingest_1mb_random", || {
            let mut chunks: Vec<Vec<u8>> = Vec::new();
            black_box(ChunkLedger::new().ingest(&random, &cfg, &mut chunks).expect("fresh ingest"))
        });
        let mut ledger = ChunkLedger::new();
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        ledger.ingest(&random, &cfg, &mut chunks).expect("first ingest");
        g.bench("ingest_1mb_repeat", || {
            black_box(ledger.ingest(&random, &cfg, &mut chunks).expect("repeat ingest"))
        });
    });
}

fn main() {
    let mut b = Bench::from_env("core_ops");
    bench_vargraph(&mut b);
    bench_delta_detection(&mut b);
    bench_state_diff(&mut b);
    bench_pickle(&mut b);
    bench_extensions(&mut b);
    bench_hashes(&mut b);
    bench_chunk(&mut b);
    b.finish();
}
