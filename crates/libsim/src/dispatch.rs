//! Cell-visible constructors and methods for the simulated classes.
//!
//! After [`install`], minipy cells can write the library-flavoured code the
//! paper's notebooks contain:
//!
//! ```text
//! gmm = lib_obj('sk.GaussianMixture')
//! gmm.fit(df, 3)          # deterministic: same inputs -> same state
//! plot = gmm.result(100)  # derived array
//! ```
//!
//! `fit`/`update` mutate the object's payload **in place** (bumping its
//! epoch), which is what Kishu's delta detection must notice; `fit_random`
//! folds in session entropy, making the cell nondeterministic — the §5.3
//! caveat for fallback recomputation.

use std::rc::Rc;
use std::sync::Arc;

use kishu_kernel::{External, ObjId, ObjKind};
use kishu_minipy::error::{RunError, RunErrorKind};
use kishu_minipy::interp::{ExternalDispatch, Interp};

use crate::registry::Registry;

/// Method dispatcher for `ObjKind::External` objects.
pub struct LibDispatch {
    registry: Arc<Registry>,
}

impl LibDispatch {
    /// Dispatcher over a shared registry.
    pub fn new(registry: Arc<Registry>) -> Self {
        LibDispatch { registry }
    }
}

/// Register the library constructors and method dispatch into an
/// interpreter. Returns the shared registry for use by Kishu and baselines.
pub fn install(interp: &mut Interp, registry: Arc<Registry>) {
    interp.set_external_dispatch(Rc::new(LibDispatch::new(registry.clone())));

    let reg = registry.clone();
    interp.register_builtin(
        "lib_obj",
        Rc::new(move |i: &mut Interp, args: Vec<ObjId>, _kwargs| {
            if args.is_empty() || args.len() > 3 {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    "lib_obj(name[, size[, seed]]) takes 1-3 arguments",
                ));
            }
            let name = i.expect_str(args[0])?.to_string();
            let spec = reg.by_name(&name).ok_or_else(|| {
                RunError::new(
                    RunErrorKind::LibraryError,
                    format!("unknown library class `{name}`"),
                )
            })?;
            let size = if args.len() >= 2 {
                i.expect_int(args[1])?.max(0) as usize
            } else {
                spec.behavior.default_payload
            };
            let seed = if args.len() >= 3 {
                i.expect_int(args[2])? as u64
            } else {
                0x5EED
            };
            let payload = derive_payload(size, seed);
            Ok(i.heap.alloc(
                External {
                    class: spec.id,
                    attrs: Vec::new(),
                    payload,
                    epoch: 0,
                }
                .into(),
            ))
        }),
    );
}

/// Deterministic payload bytes from (size, seed).
pub fn derive_payload(size: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    (0..size)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn fold_args(interp: &Interp, args: &[ObjId]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for a in args {
        match interp.heap.kind(*a) {
            ObjKind::Int(v) => mix(*v as u64),
            ObjKind::Float(v) => mix(v.to_bits()),
            ObjKind::Bool(b) => mix(*b as u64),
            ObjKind::Str(s) => {
                for b in s.bytes() {
                    mix(b as u64);
                }
            }
            ObjKind::NdArray(vs) => {
                mix(vs.len() as u64);
                for v in vs.iter().take(64) {
                    mix(v.to_bits());
                }
            }
            ObjKind::External(ext) => {
                mix(ext.epoch);
                mix(ext.payload.len() as u64);
                for b in ext.payload.iter().take(64) {
                    mix(*b as u64);
                }
            }
            other => mix(other.shallow_size() as u64),
        }
    }
    h
}

impl ExternalDispatch for LibDispatch {
    fn call_method(
        &self,
        interp: &mut Interp,
        recv: ObjId,
        method: &str,
        args: &[ObjId],
        _kwargs: &[(String, ObjId)],
    ) -> Option<Result<ObjId, RunError>> {
        let (class, payload_len, epoch) = match interp.heap.kind(recv) {
            ObjKind::External(ext) => (ext.class, ext.payload.len(), ext.epoch),
            _ => return None,
        };
        let spec = self.registry.get(class)?;
        let _ = spec;
        match method {
            // Deterministic in-place training: new payload is a pure
            // function of the old payload and the arguments.
            "fit" | "transform" | "update" => {
                // Simulated compute: training/updating costs wall time
                // proportional to the model state produced.
                let bps = if method == "update" {
                    kishu_kernel::simcost::UPDATE_BPS
                } else {
                    kishu_kernel::simcost::TRAIN_BPS
                };
                kishu_kernel::simcost::charge_bytes(payload_len as u64, bps);
                let seed = fold_args(interp, args) ^ epoch.wrapping_mul(0x9E37);
                let size = payload_len.max(1);
                let fresh = derive_payload(size, seed);
                interp.heap.modify(recv, |k| {
                    if let ObjKind::External(ext) = k {
                        ext.payload = fresh;
                        ext.epoch += 1;
                    }
                });
                Some(Ok(interp.heap.alloc(ObjKind::None)))
            }
            // Nondeterministic training: folds in session entropy, so
            // re-running the cell yields a different state (§5.3 caveat).
            "fit_random" => {
                kishu_kernel::simcost::charge_bytes(
                    payload_len as u64,
                    kishu_kernel::simcost::TRAIN_BPS,
                );
                let noise = (interp.next_random() * u64::MAX as f64) as u64;
                let seed = fold_args(interp, args) ^ noise;
                let size = payload_len.max(1);
                let fresh = derive_payload(size, seed);
                interp.heap.modify(recv, |k| {
                    if let ObjKind::External(ext) = k {
                        ext.payload = fresh;
                        ext.epoch += 1;
                    }
                });
                Some(Ok(interp.heap.alloc(ObjKind::None)))
            }
            // Derived outputs: pure functions of the current state.
            "result" | "predict" | "sample" => {
                let n = match args.first() {
                    Some(a) => match interp.expect_int(*a) {
                        Ok(v) => v.max(0) as usize,
                        Err(e) => return Some(Err(e)),
                    },
                    None => 64,
                };
                let seed = fold_args(interp, &[recv]);
                let values: Vec<f64> = kishu_minipy::builtins::seeded_values(n, seed);
                Some(Ok(interp.heap.alloc(ObjKind::NdArray(values))))
            }
            "score" => {
                let seed = fold_args(interp, &[recv]);
                let v = kishu_minipy::builtins::seeded_values(1, seed)[0];
                Some(Ok(interp.heap.alloc(ObjKind::Float(v))))
            }
            "resize" => {
                let n = match args.first() {
                    Some(a) => match interp.expect_int(*a) {
                        Ok(v) => v.max(0) as usize,
                        Err(e) => return Some(Err(e)),
                    },
                    None => return Some(Err(RunError::new(
                        RunErrorKind::TypeError,
                        "resize(n) takes one argument",
                    ))),
                };
                let fresh = derive_payload(n, epoch ^ 0xABCD);
                interp.heap.modify(recv, |k| {
                    if let ObjKind::External(ext) = k {
                        ext.payload = fresh;
                        ext.epoch += 1;
                    }
                });
                Some(Ok(interp.heap.alloc(ObjKind::None)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> (Interp, Arc<Registry>) {
        let mut interp = Interp::new();
        let registry = Arc::new(Registry::standard());
        install(&mut interp, registry.clone());
        (interp, registry)
    }

    fn run(interp: &mut Interp, src: &str) {
        let out = interp.run_cell(src).expect("parses");
        if let Some(e) = out.error {
            panic!("cell failed: {e}");
        }
    }

    fn payload_of(interp: &Interp, name: &str) -> Vec<u8> {
        let id = interp.globals.peek(name).expect("bound");
        match interp.heap.kind(id) {
            ObjKind::External(ext) => ext.payload.clone(),
            other => panic!("{name} is {other:?}"),
        }
    }

    #[test]
    fn constructor_creates_external() {
        let (mut i, registry) = session();
        run(&mut i, "m = lib_obj('sk.KMeans', 1000, 42)\n");
        let id = i.globals.peek("m").expect("bound");
        match i.heap.kind(id) {
            ObjKind::External(ext) => {
                assert_eq!(ext.class, registry.by_name("sk.KMeans").expect("exists").id);
                assert_eq!(ext.payload.len(), 1000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_class_is_an_error() {
        let (mut i, _) = session();
        let out = i.run_cell("m = lib_obj('not.AClass')\n").expect("parses");
        assert!(matches!(out.error, Some(e) if e.kind == RunErrorKind::LibraryError));
    }

    #[test]
    fn fit_is_deterministic_and_in_place() {
        let (mut i, _) = session();
        run(&mut i, "m = lib_obj('sk.GaussianMixture', 256, 1)\nbefore = id(m)\n");
        let p0 = payload_of(&i, "m");
        run(&mut i, "m.fit(3)\nafter = id(m)\n");
        let p1 = payload_of(&i, "m");
        assert_ne!(p0, p1, "fit must change the payload");
        // In place: same address.
        let b = i.globals.peek("before").expect("b");
        let a = i.globals.peek("after").expect("a");
        assert!(i.value_eq(a, b));
        // Deterministic: a fresh object fit with the same args converges.
        run(&mut i, "m2 = lib_obj('sk.GaussianMixture', 256, 1)\nm2.fit(3)\n");
        assert_eq!(payload_of(&i, "m2"), p1);
    }

    #[test]
    fn fit_random_is_nondeterministic() {
        let (mut i, _) = session();
        run(&mut i, "a = lib_obj('sk.KMeans', 64, 1)\nb = lib_obj('sk.KMeans', 64, 1)\na.fit_random(1)\nb.fit_random(1)\n");
        assert_ne!(payload_of(&i, "a"), payload_of(&i, "b"));
    }

    #[test]
    fn result_derives_from_state() {
        let (mut i, _) = session();
        run(&mut i, "m = lib_obj('sk.PCA', 128, 5)\nr1 = m.result(16)\nr2 = m.result(16)\nm.fit(1)\nr3 = m.result(16)\n");
        let r1 = i.globals.peek("r1").expect("r1");
        let r2 = i.globals.peek("r2").expect("r2");
        let r3 = i.globals.peek("r3").expect("r3");
        assert!(i.value_eq(r1, r2), "same state, same result");
        assert!(!i.value_eq(r1, r3), "fit changes the result");
    }

    #[test]
    fn unknown_method_raises_attribute_error() {
        let (mut i, _) = session();
        let out = i.run_cell("m = lib_obj('pd.DataFrame')\nm.no_such_method()\n").expect("parses");
        assert!(matches!(out.error, Some(e) if e.kind == RunErrorKind::AttributeError));
    }

    #[test]
    fn epoch_counts_updates() {
        let (mut i, _) = session();
        run(&mut i, "m = lib_obj('xgb.DMatrix', 32, 0)\nm.update(1)\nm.update(2)\n");
        let id = i.globals.peek("m").expect("bound");
        match i.heap.kind(id) {
            ObjKind::External(ext) => assert_eq!(ext.epoch, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
