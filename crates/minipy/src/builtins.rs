//! Core builtin functions available to every cell.
//!
//! Beyond the Python staples (`len`, `range`, `print`, ...) this registers
//! the data constructors the workloads use in place of real library imports:
//! `read_csv` (synthetic dataframe load), `zeros`/`ones`/`arange`/`randn`
//! (NumPy-style arrays), `series`, `Object()` (an attribute bag, the paper's
//! Fig 3 `obj`), and `make_generator()` (the canonical opaque/unserializable
//! object). `kishu-libsim` registers the remaining 146 library classes on
//! top of these.

use std::rc::Rc;

use kishu_kernel::{Instance, ObjId, ObjKind};

use crate::error::{RunError, RunErrorKind};
use crate::interp::Interp;
use crate::repr;

macro_rules! builtin {
    ($interp:expr, $name:literal, |$i:ident, $args:ident, $kwargs:ident| $body:expr) => {
        $interp.register_builtin(
            $name,
            Rc::new(
                |$i: &mut Interp,
                 $args: Vec<ObjId>,
                 $kwargs: Vec<(String, ObjId)>|
                 -> Result<ObjId, RunError> {
                    let _ = &$kwargs;
                    $body
                },
            ),
        );
    };
}

fn type_err(msg: impl Into<String>) -> RunError {
    RunError::new(RunErrorKind::TypeError, msg)
}

fn need(args: &[ObjId], n: usize, name: &str) -> Result<(), RunError> {
    if args.len() != n {
        return Err(type_err(format!("{name}() takes {n} argument(s), got {}", args.len())));
    }
    Ok(())
}

/// Register the core builtins into a fresh interpreter.
pub fn register_core(interp: &mut Interp) {
    builtin!(interp, "len", |i, args, _k| {
        need(&args, 1, "len")?;
        match i.sequence_len(args[0]) {
            Some(n) => Ok(i.heap.alloc(ObjKind::Int(n as i64))),
            None => Err(type_err(format!(
                "object of type {} has no len()",
                i.heap.kind(args[0]).type_tag()
            ))),
        }
    });

    builtin!(interp, "range", |i, args, _k| {
        let (lo, hi, step) = match args.len() {
            1 => (0, i.expect_int(args[0])?, 1),
            2 => (i.expect_int(args[0])?, i.expect_int(args[1])?, 1),
            3 => (
                i.expect_int(args[0])?,
                i.expect_int(args[1])?,
                i.expect_int(args[2])?,
            ),
            _ => return Err(type_err("range() takes 1-3 arguments")),
        };
        if step == 0 {
            return Err(RunError::new(RunErrorKind::ValueError, "range() step must not be zero"));
        }
        let mut items = Vec::new();
        let mut v = lo;
        while (step > 0 && v < hi) || (step < 0 && v > hi) {
            items.push(i.heap.alloc(ObjKind::Int(v)));
            v += step;
        }
        Ok(i.heap.alloc(ObjKind::List(items)))
    });

    builtin!(interp, "print", |i, args, _k| {
        let line = args
            .iter()
            .map(|a| repr::display(&i.heap, *a))
            .collect::<Vec<_>>()
            .join(" ");
        i.emit_output(line);
        Ok(i.heap.alloc(ObjKind::None))
    });

    builtin!(interp, "sum", |i, args, _k| {
        need(&args, 1, "sum")?;
        let items = i.iterate(args[0])?;
        let mut int_sum = 0i64;
        let mut float_sum = 0.0f64;
        let mut any_float = false;
        for item in items {
            match i.heap.kind(item) {
                ObjKind::Int(v) => int_sum += v,
                ObjKind::Float(v) => {
                    float_sum += v;
                    any_float = true;
                }
                ObjKind::Bool(b) => int_sum += *b as i64,
                other => return Err(type_err(format!("cannot sum {}", other.type_tag()))),
            }
        }
        if any_float {
            Ok(i.heap.alloc(ObjKind::Float(float_sum + int_sum as f64)))
        } else {
            Ok(i.heap.alloc(ObjKind::Int(int_sum)))
        }
    });

    builtin!(interp, "min", |i, args, _k| reduce_extreme(i, args, true));
    builtin!(interp, "max", |i, args, _k| reduce_extreme(i, args, false));

    builtin!(interp, "abs", |i, args, _k| {
        need(&args, 1, "abs")?;
        match i.heap.kind(args[0]).clone() {
            ObjKind::Int(v) => Ok(i.heap.alloc(ObjKind::Int(v.abs()))),
            ObjKind::Float(v) => Ok(i.heap.alloc(ObjKind::Float(v.abs()))),
            other => Err(type_err(format!("bad operand for abs(): {}", other.type_tag()))),
        }
    });

    builtin!(interp, "sorted", |i, args, _k| {
        need(&args, 1, "sorted")?;
        let items = i.iterate(args[0])?;
        let copy = i.heap.alloc(ObjKind::List(items));
        i.call_method(copy, "sort", &[], &[])?;
        Ok(copy)
    });

    builtin!(interp, "str", |i, args, _k| {
        need(&args, 1, "str")?;
        let s = repr::display(&i.heap, args[0]);
        Ok(i.heap.alloc(ObjKind::Str(s)))
    });

    builtin!(interp, "repr", |i, args, _k| {
        need(&args, 1, "repr")?;
        let s = repr::repr(&i.heap, args[0]);
        Ok(i.heap.alloc(ObjKind::Str(s)))
    });

    builtin!(interp, "int", |i, args, _k| {
        need(&args, 1, "int")?;
        let v = match i.heap.kind(args[0]) {
            ObjKind::Int(v) => *v,
            ObjKind::Float(v) => *v as i64,
            ObjKind::Bool(b) => *b as i64,
            ObjKind::Str(s) => s
                .trim()
                .parse::<i64>()
                .map_err(|_| RunError::new(RunErrorKind::ValueError, format!("invalid int literal: `{s}`")))?,
            other => return Err(type_err(format!("cannot convert {} to int", other.type_tag()))),
        };
        Ok(i.heap.alloc(ObjKind::Int(v)))
    });

    builtin!(interp, "float", |i, args, _k| {
        need(&args, 1, "float")?;
        let v = i.expect_float(args[0]).or_else(|_| {
            let s = i.expect_str(args[0])?;
            s.trim()
                .parse::<f64>()
                .map_err(|_| RunError::new(RunErrorKind::ValueError, format!("invalid float literal: `{s}`")))
        })?;
        Ok(i.heap.alloc(ObjKind::Float(v)))
    });

    builtin!(interp, "bool", |i, args, _k| {
        need(&args, 1, "bool")?;
        let b = i.truthy(args[0])?;
        Ok(i.heap.alloc(ObjKind::Bool(b)))
    });

    builtin!(interp, "list", |i, args, _k| {
        if args.is_empty() {
            return Ok(i.heap.alloc(ObjKind::List(Vec::new())));
        }
        need(&args, 1, "list")?;
        let items = i.iterate(args[0])?;
        Ok(i.heap.alloc(ObjKind::List(items)))
    });

    builtin!(interp, "tuple", |i, args, _k| {
        need(&args, 1, "tuple")?;
        let items = i.iterate(args[0])?;
        Ok(i.heap.alloc(ObjKind::Tuple(items)))
    });

    builtin!(interp, "set", |i, args, _k| {
        if args.is_empty() {
            return Ok(i.heap.alloc(ObjKind::Set(Vec::new())));
        }
        need(&args, 1, "set")?;
        let items = i.iterate(args[0])?;
        let mut uniq: Vec<ObjId> = Vec::new();
        for v in items {
            if !uniq.iter().any(|u| i.value_eq(*u, v)) {
                uniq.push(v);
            }
        }
        Ok(i.heap.alloc(ObjKind::Set(uniq)))
    });

    builtin!(interp, "type", |i, args, _k| {
        need(&args, 1, "type")?;
        let tag = i.heap.kind(args[0]).type_tag().to_string();
        Ok(i.heap.alloc(ObjKind::Str(tag)))
    });

    builtin!(interp, "id", |i, args, _k| {
        need(&args, 1, "id")?;
        let addr = i.heap.addr(args[0]);
        Ok(i.heap.alloc(ObjKind::Int(addr as i64)))
    });

    // ------------------------------------------------------------------
    // data constructors

    builtin!(interp, "Object", |i, args, _k| {
        if !args.is_empty() {
            return Err(type_err("Object() takes no arguments"));
        }
        Ok(i.heap.alloc(
            Instance {
                class_name: "Object".to_string(),
                attrs: Vec::new(),
            }
            .into(),
        ))
    });

    builtin!(interp, "zeros", |i, args, _k| {
        need(&args, 1, "zeros")?;
        let n = i.expect_int(args[0])?.max(0) as usize;
        Ok(i.heap.alloc(ObjKind::NdArray(vec![0.0; n])))
    });

    builtin!(interp, "ones", |i, args, _k| {
        need(&args, 1, "ones")?;
        let n = i.expect_int(args[0])?.max(0) as usize;
        Ok(i.heap.alloc(ObjKind::NdArray(vec![1.0; n])))
    });

    builtin!(interp, "arange", |i, args, _k| {
        need(&args, 1, "arange")?;
        let n = i.expect_int(args[0])?.max(0) as usize;
        Ok(i.heap.alloc(ObjKind::NdArray((0..n).map(|v| v as f64).collect())))
    });

    // Nondeterministic array: draws from the session RNG, so re-running the
    // cell produces different values (Python's unseeded `np.random.randn`).
    builtin!(interp, "randn", |i, args, _k| {
        need(&args, 1, "randn")?;
        let n = i.expect_int(args[0])?.max(0) as usize;
        let values: Vec<f64> = (0..n).map(|_| i.next_random() * 2.0 - 1.0).collect();
        Ok(i.heap.alloc(ObjKind::NdArray(values)))
    });

    // Deterministic array: fully determined by the explicit seed.
    builtin!(interp, "randn_seeded", |i, args, _k| {
        need(&args, 2, "randn_seeded")?;
        let n = i.expect_int(args[0])?.max(0) as usize;
        let seed = i.expect_int(args[1])? as u64;
        Ok(i.heap.alloc(ObjKind::NdArray(seeded_values(n, seed))))
    });

    builtin!(interp, "series", |i, args, _k| {
        need(&args, 2, "series")?;
        let name = i.expect_str(args[0])?.to_string();
        let values = args[1];
        match i.heap.kind(values) {
            ObjKind::List(_) | ObjKind::NdArray(_) => {}
            other => {
                return Err(type_err(format!(
                    "series() values must be list or ndarray, got {}",
                    other.type_tag()
                )))
            }
        }
        Ok(i.heap.alloc(ObjKind::Series { name, values }))
    });

    // read_csv(name, rows, cols, seed) -> DataFrame of seeded numeric
    // columns. The synthetic stand-in for loading a dataset from disk.
    builtin!(interp, "read_csv", |i, args, _k| {
        need(&args, 4, "read_csv")?;
        let _name = i.expect_str(args[0])?.to_string();
        let rows = i.expect_int(args[1])?.max(0) as usize;
        let cols = i.expect_int(args[2])?.max(0) as usize;
        let seed = i.expect_int(args[3])? as u64;
        // Simulated parse latency: loading data from disk is not free in a
        // real notebook (see kishu_kernel::simcost).
        kishu_kernel::simcost::charge_bytes(
            (rows * cols * 8) as u64,
            kishu_kernel::simcost::CSV_PARSE_BPS,
        );
        let mut columns = Vec::with_capacity(cols);
        for c in 0..cols {
            let values = seeded_values(rows, seed.wrapping_add(c as u64));
            let col = i.heap.alloc(ObjKind::NdArray(values));
            columns.push((format!("c{c}"), col));
        }
        Ok(i.heap.alloc(ObjKind::DataFrame(columns)))
    });

    builtin!(interp, "dataframe", |i, args, _k| {
        need(&args, 1, "dataframe")?;
        let pairs = match i.heap.kind(args[0]).clone() {
            ObjKind::Dict(pairs) => pairs,
            other => {
                return Err(type_err(format!(
                    "dataframe() expects dict of columns, got {}",
                    other.type_tag()
                )))
            }
        };
        let mut columns = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            let name = i.expect_str(k)?.to_string();
            columns.push((name, v));
        }
        Ok(i.heap.alloc(ObjKind::DataFrame(columns)))
    });

    builtin!(interp, "enumerate", |i, args, _k| {
        need(&args, 1, "enumerate")?;
        let items = i.iterate(args[0])?;
        let pairs: Vec<ObjId> = items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| {
                let n = i.heap.alloc(ObjKind::Int(idx as i64));
                i.heap.alloc(ObjKind::Tuple(vec![n, item]))
            })
            .collect();
        Ok(i.heap.alloc(ObjKind::List(pairs)))
    });

    builtin!(interp, "zip", |i, args, _k| {
        need(&args, 2, "zip")?;
        let a = i.iterate(args[0])?;
        let b = i.iterate(args[1])?;
        let pairs: Vec<ObjId> = a
            .into_iter()
            .zip(b)
            .map(|(x, y)| i.heap.alloc(ObjKind::Tuple(vec![x, y])))
            .collect();
        Ok(i.heap.alloc(ObjKind::List(pairs)))
    });

    builtin!(interp, "round", |i, args, _k| {
        if args.is_empty() || args.len() > 2 {
            return Err(type_err("round() takes 1-2 arguments"));
        }
        let v = i.expect_float(args[0])?;
        if args.len() == 2 {
            let nd = i.expect_int(args[1])?.clamp(0, 12) as u32;
            let scale = 10f64.powi(nd as i32);
            Ok(i.heap.alloc(ObjKind::Float((v * scale).round() / scale)))
        } else {
            Ok(i.heap.alloc(ObjKind::Int(v.round() as i64)))
        }
    });

    builtin!(interp, "pow", |i, args, _k| {
        need(&args, 2, "pow")?;
        let a = i.expect_float(args[0])?;
        let b = i.expect_float(args[1])?;
        let out = a.powf(b);
        // int ** non-negative int stays int, like Python.
        match (i.heap.kind(args[0]), i.heap.kind(args[1])) {
            (ObjKind::Int(_), ObjKind::Int(e)) if *e >= 0 => {
                Ok(i.heap.alloc(ObjKind::Int(out as i64)))
            }
            _ => Ok(i.heap.alloc(ObjKind::Float(out))),
        }
    });

    builtin!(interp, "any", |i, args, _k| {
        need(&args, 1, "any")?;
        let items = i.iterate(args[0])?;
        for item in items {
            if i.truthy(item)? {
                return Ok(i.heap.alloc(ObjKind::Bool(true)));
            }
        }
        Ok(i.heap.alloc(ObjKind::Bool(false)))
    });

    builtin!(interp, "all", |i, args, _k| {
        need(&args, 1, "all")?;
        let items = i.iterate(args[0])?;
        for item in items {
            if !i.truthy(item)? {
                return Ok(i.heap.alloc(ObjKind::Bool(false)));
            }
        }
        Ok(i.heap.alloc(ObjKind::Bool(true)))
    });

    builtin!(interp, "make_generator", |i, args, _k| {
        if !args.is_empty() {
            return Err(type_err("make_generator() takes no arguments"));
        }
        let token = i.heap.fresh_token();
        Ok(i.heap.alloc(ObjKind::Generator { token }))
    });
}

fn reduce_extreme(i: &mut Interp, args: Vec<ObjId>, want_min: bool) -> Result<ObjId, RunError> {
    let items = if args.len() == 1 {
        i.iterate(args[0])?
    } else {
        args
    };
    if items.is_empty() {
        return Err(RunError::new(RunErrorKind::ValueError, "empty sequence"));
    }
    let mut best = items[0];
    for item in &items[1..] {
        let a = i.expect_float(*item)?;
        let b = i.expect_float(best)?;
        if (want_min && a < b) || (!want_min && a > b) {
            best = *item;
        }
    }
    Ok(best)
}

/// Deterministic pseudo-random values from a seed (splitmix64-based).
pub fn seeded_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    fn eval_repr(src: &str) -> String {
        let mut i = Interp::new();
        let out = i.run_cell(src).expect("parses");
        if let Some(e) = out.error {
            panic!("cell failed: {e}");
        }
        out.value_repr.unwrap_or_default()
    }

    #[test]
    fn arithmetic_builtins() {
        assert_eq!(eval_repr("len([1, 2, 3])\n"), "3");
        assert_eq!(eval_repr("sum(range(5))\n"), "10");
        assert_eq!(eval_repr("min(3, 1, 2)\n"), "1");
        assert_eq!(eval_repr("max([4, 9, 2])\n"), "9");
        assert_eq!(eval_repr("abs(-7)\n"), "7");
    }

    #[test]
    fn conversions() {
        assert_eq!(eval_repr("int('42')\n"), "42");
        assert_eq!(eval_repr("float(3)\n"), "3.0");
        assert_eq!(eval_repr("str(12)\n"), "'12'");
        assert_eq!(eval_repr("bool([])\n"), "False");
        assert_eq!(eval_repr("list('ab')\n"), "['a', 'b']");
    }

    #[test]
    fn sorted_is_non_destructive() {
        let mut i = Interp::new();
        let out = i.run_cell("a = [3, 1, 2]\nb = sorted(a)\na\n").expect("runs");
        assert!(out.ok());
        assert_eq!(out.value_repr.expect("value"), "[3, 1, 2]");
    }

    #[test]
    fn range_variants() {
        assert_eq!(eval_repr("range(3)\n"), "[0, 1, 2]");
        assert_eq!(eval_repr("range(1, 4)\n"), "[1, 2, 3]");
        assert_eq!(eval_repr("range(6, 0, -2)\n"), "[6, 4, 2]");
    }

    #[test]
    fn seeded_values_are_reproducible() {
        assert_eq!(seeded_values(16, 7), seeded_values(16, 7));
        assert_ne!(seeded_values(16, 7), seeded_values(16, 8));
    }

    #[test]
    fn randn_is_nondeterministic_across_reruns() {
        let mut i = Interp::new();
        i.run_cell("a = randn(4)\n").expect("runs");
        i.run_cell("b = randn(4)\n").expect("runs");
        let a = i.globals.peek("a").expect("a");
        let b = i.globals.peek("b").expect("b");
        assert!(!i.value_eq(a, b));
    }

    #[test]
    fn randn_seeded_is_deterministic() {
        let mut i = Interp::new();
        i.run_cell("a = randn_seeded(4, 9)\nb = randn_seeded(4, 9)\n").expect("runs");
        let a = i.globals.peek("a").expect("a");
        let b = i.globals.peek("b").expect("b");
        assert!(i.value_eq(a, b));
    }

    #[test]
    fn read_csv_shapes() {
        assert_eq!(eval_repr("read_csv('d', 10, 3, 1).shape\n"), "(10, 3)");
    }

    #[test]
    fn object_attribute_bag() {
        let mut i = Interp::new();
        let out = i.run_cell("o = Object()\no.foo = 1\no.foo + 1\n").expect("runs");
        assert!(out.ok());
        assert_eq!(out.value_repr.expect("value"), "2");
    }

    #[test]
    fn print_captures_output() {
        let mut i = Interp::new();
        let out = i.run_cell("print('hello', 42)\n").expect("runs");
        assert_eq!(out.output, vec!["hello 42".to_string()]);
    }

    #[test]
    fn enumerate_and_zip() {
        assert_eq!(eval_repr("enumerate(['a', 'b'])\n"), "[(0, 'a'), (1, 'b')]");
        assert_eq!(eval_repr("zip([1, 2], ['x', 'y'])\n"), "[(1, 'x'), (2, 'y')]");
        assert_eq!(eval_repr("zip([1, 2, 3], [4])\n"), "[(1, 4)]");
        let mut i = Interp::new();
        let out = i
            .run_cell("total = 0\nfor pair in enumerate([10, 20]):\n    total += pair[0] * pair[1]\ntotal\n")
            .expect("runs");
        assert_eq!(out.value_repr.as_deref(), Some("20"));
    }

    #[test]
    fn round_pow_any_all() {
        assert_eq!(eval_repr("round(2.6)\n"), "3");
        assert_eq!(eval_repr("round(2.345, 2)\n"), "2.35");
        assert_eq!(eval_repr("pow(2, 10)\n"), "1024");
        assert_eq!(eval_repr("pow(2.0, 0.5)\n"), "1.4142135623730951");
        assert_eq!(eval_repr("any([0, 0, 3])\n"), "True");
        assert_eq!(eval_repr("any([])\n"), "False");
        assert_eq!(eval_repr("all([1, 2])\n"), "True");
        assert_eq!(eval_repr("all([1, 0])\n"), "False");
    }

    #[test]
    fn generator_is_opaque() {
        let mut i = Interp::new();
        let out = i.run_cell("g = make_generator()\n").expect("runs");
        assert!(out.ok());
        let g = i.globals.peek("g").expect("g");
        assert!(!i.heap.kind(g).is_traversable());
    }
}
