//! Parameter-sweep workloads (§7.7) and the Fig 4 motivating example.

use kishu_testkit::rng::Rng;

use crate::{cell, Cell, NotebookSpec};

/// §7.7.1 shared-referencing workload: `total_arrays` equal arrays, of
/// which the first `in_list` live inside one list (forming one co-variable
/// covering `in_list / total_arrays` of the state); the rest are
/// independent variables. The test cell modifies exactly one array inside
/// the list.
///
/// Returns `(setup cells, modify cell)`.
pub fn shared_ref_workload(array_len: usize, total_arrays: usize, in_list: usize) -> (Vec<Cell>, Cell) {
    assert!(in_list >= 1 && in_list <= total_arrays);
    let mut setup = Vec::new();
    for k in 0..total_arrays {
        setup.push(cell(format!("arr{k} = randn_seeded({array_len}, {k})\n")));
    }
    let mut list_cell = String::from("bundle = []\n");
    for k in 0..in_list {
        list_cell.push_str(&format!("bundle.append(arr{k})\n"));
    }
    setup.push(cell(list_cell));
    // Modify one array that lives inside the list co-variable.
    let modify = cell("bundle[0][0] = bundle[0][0] + 1.0\n");
    (setup, modify)
}

/// §7.7.2 long-session workload: starting from a base notebook, randomly
/// re-execute its cells until `total_cells` executions have happened
/// (the paper re-executes HW-LM and Qiskit up to 1000 cells).
pub fn long_session(base: &NotebookSpec, total_cells: usize, seed: u64) -> Vec<Cell> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cells: Vec<Cell> = base.cells.clone();
    while cells.len() < total_cells {
        let pick = rng.random_range(0..base.cells.len());
        cells.push(base.cells[pick].clone());
    }
    cells.truncate(total_cells);
    cells
}

/// The Fig 4 motivating example, verbatim: load a corpus, create category
/// lists, sort texts into them interleaved, then map over `sad_ls` only.
pub fn fig4_text_mining(n_rows: usize) -> Vec<Cell> {
    vec![
        cell(format!("corpus = read_csv('corpus', {n_rows}, 2, 13)\n")),
        cell("sad_ls = []\nhappy_ls = []\n"),
        cell(format!(
            "for k in range({n}):\n    if k % 2 == 0:\n        sad_ls.append('sad text ' + str(k))\n    else:\n        happy_ls.append('happy text ' + str(k))\n",
            n = n_rows.min(4000)
        )),
        cell("for k in range(len(sad_ls)):\n    sad_ls[k] = sad_ls[k].replace('text', 'txt')\n"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notebooks;
    use kishu_libsim::Registry;
    use kishu_minipy::Interp;
    use std::sync::Arc;

    fn fresh() -> Interp {
        let mut i = Interp::new();
        kishu_libsim::install(&mut i, Arc::new(Registry::standard()));
        i
    }

    #[test]
    fn shared_ref_workload_shapes_the_partition() {
        use kishu::session::{KishuConfig, KishuSession};
        for in_list in [1usize, 5, 10] {
            let (setup, modify) = shared_ref_workload(100, 10, in_list);
            let mut s = KishuSession::in_memory(KishuConfig::default());
            for c in &setup {
                let r = s.run_cell(&c.src).expect("parses");
                assert!(r.outcome.error.is_none());
            }
            // The bundle co-variable has in_list arrays + the list itself;
            // the other arrays are singletons; 10 - in_list + 1 components
            // + nothing else.
            assert_eq!(s.covariables().len(), 10 - in_list + 1);
            let r = s.run_cell(&modify.src).expect("parses");
            assert!(r.outcome.error.is_none());
            // The whole bundle co-variable is the delta.
            assert_eq!(r.updated.len(), 1);
            assert_eq!(r.updated[0].len(), in_list + 1);
        }
    }

    #[test]
    fn long_session_repeats_base_cells() {
        let base = notebooks::hw_lm(0.05);
        let cells = long_session(&base, 200, 9);
        assert_eq!(cells.len(), 200);
        // The prefix is the base notebook itself.
        assert_eq!(cells[0].src, base.cells[0].src);
        // And re-executions actually run.
        let mut i = fresh();
        for c in &cells[..120] {
            let out = i.run_cell(&c.src).expect("parses");
            assert!(out.error.is_none(), "{:?}", out.error);
        }
    }

    #[test]
    fn long_session_is_deterministic_per_seed() {
        let base = notebooks::qiskit(0.05);
        let a = long_session(&base, 150, 4);
        let b = long_session(&base, 150, 4);
        let c = long_session(&base, 150, 5);
        assert!(a.iter().zip(&b).all(|(x, y)| x.src == y.src));
        assert!(a.iter().zip(&c).any(|(x, y)| x.src != y.src));
    }

    #[test]
    fn fig4_example_runs_and_fragments() {
        let mut i = fresh();
        for c in fig4_text_mining(500) {
            let out = i.run_cell(&c.src).expect("parses");
            assert!(out.error.is_none(), "{:?}", out.error);
        }
        let sad = i.globals.peek("sad_ls").expect("bound");
        let happy = i.globals.peek("happy_ls").expect("bound");
        assert!(i.heap.children(sad).len() > 100);
        assert!(i.heap.children(happy).len() > 100);
    }
}
