//! The stack VM: dispatch loop, call frames, and error mapping.
//!
//! Frames are Rust stack frames (`run_frame` recurses for user-function
//! calls, bounded by the interpreter's shared `MAX_DEPTH`). Each frame owns
//! a value stack, slot-allocated locals, an iterator stack for `for`
//! loops, a staged-int stack for slice bounds, and a callee stack for
//! in-flight calls. Everything that touches the heap, the namespace, or an
//! observer goes through the same `Interp` helpers the tree-walker uses,
//! so error shapes and allocation order match by construction.

use std::rc::Rc;

use kishu_kernel::{Function, ObjId, ObjKind};

use crate::ast::Stmt;
use crate::bytecode::instr::Instr;
use crate::bytecode::module::CodeObj;
use crate::error::{RunError, RunErrorKind};
use crate::interp::{Builtin, Interp, MAX_DEPTH};
use crate::repr;

/// A resolved callee awaiting its arguments.
enum Callee {
    Obj(ObjId),
    Builtin(Builtin),
}

/// One frame's working storage, recycled through `Interp::vm_pool` so that
/// steady-state function calls allocate no buffers: a call pops a set off
/// the pool (or builds a fresh one the first few times), and the frame
/// pushes it back when it exits — normally or on error.
#[derive(Default)]
pub(crate) struct FrameBufs {
    stack: Vec<ObjId>,
    locals: Vec<Option<ObjId>>,
    global_flags: Vec<bool>,
    ints: Vec<i64>,
    iters: Vec<(Vec<ObjId>, usize)>,
    callees: Vec<Callee>,
}

impl FrameBufs {
    fn reset(&mut self, n_slots: usize, argv: &[ObjId]) {
        self.stack.clear();
        self.ints.clear();
        self.iters.clear();
        self.callees.clear();
        self.locals.clear();
        self.locals.resize(n_slots, None);
        // compile_function allocates slots 0..params.len() to the params.
        for (slot, v) in argv.iter().enumerate() {
            self.locals[slot] = Some(*v);
        }
        self.global_flags.clear();
        self.global_flags.resize(n_slots, false);
    }
}

/// Execute a parsed cell on the VM. Mirrors the tree-walker's cell body:
/// returns `(error, value_repr)` with all side effects up to a raise
/// intact.
pub(crate) fn run_cell_program(
    interp: &mut Interp,
    src: &str,
    program: &[Stmt],
) -> (Option<RunError>, Option<String>) {
    let code = interp.vm_cell_code(src, program);
    match run_frame(interp, &code, &[]) {
        Ok(tail) => {
            let mut value_repr = None;
            if let Some(v) = tail {
                if !matches!(interp.heap.kind(v), ObjKind::None) {
                    value_repr = Some(repr::repr(&interp.heap, v));
                }
            }
            (None, value_repr)
        }
        Err(e) => (Some(e), None),
    }
}

/// Call a user-function object with positional arguments on the VM (the
/// engine-dispatched twin of the tree's `call_function_obj`). Check order —
/// callable kind, arity, recursion depth, body compile — matches the tree.
pub(crate) fn call_function(
    interp: &mut Interp,
    callee: ObjId,
    argv: &[ObjId],
) -> Result<ObjId, RunError> {
    // Hash the def source in place instead of cloning it: on a warm code
    // cache (every call after the first) the whole lookup is borrow-free.
    let (n_params, key) = match interp.heap.kind(callee) {
        ObjKind::Function(f) => (f.params.len(), crate::interp::fnv1a(f.source.as_bytes())),
        other => {
            return Err(RunError::new(
                RunErrorKind::TypeError,
                format!("{} object is not callable", other.type_tag()),
            ))
        }
    };
    if argv.len() != n_params {
        return Err(RunError::new(
            RunErrorKind::TypeError,
            format!("expected {} arguments, got {}", n_params, argv.len()),
        ));
    }
    if interp.depth >= MAX_DEPTH {
        return Err(RunError::new(
            RunErrorKind::LimitError,
            "maximum recursion depth exceeded",
        ));
    }
    let code = match interp.vm_func_cached(key) {
        Some(c) => c,
        None => {
            let source = match interp.heap.kind(callee) {
                ObjKind::Function(f) => f.source.clone(),
                _ => unreachable!("kind checked above"),
            };
            interp.vm_func_code(&source)?
        }
    };
    interp.depth += 1;
    let result = run_frame(interp, &code, argv);
    interp.depth -= 1;
    Ok(result?.expect("function code always ends in Return"))
}

/// Run one frame to completion. Returns the `Return`ed value, the tail
/// value for cell code ending in a bare expression, or `None`.
///
/// Working buffers come from `Interp::vm_pool` and go back on every exit
/// path, so the per-call cost is a pop, a reset, and a push.
fn run_frame(
    interp: &mut Interp,
    code: &Rc<CodeObj>,
    argv: &[ObjId],
) -> Result<Option<ObjId>, RunError> {
    let mut bufs = interp.vm_pool.pop().unwrap_or_default();
    bufs.reset(code.n_slots, argv);
    let result = dispatch(interp, code, &mut bufs);
    interp.vm_pool.push(bufs);
    result
}

/// The instruction loop for one frame.
fn dispatch(
    interp: &mut Interp,
    code: &Rc<CodeObj>,
    bufs: &mut FrameBufs,
) -> Result<Option<ObjId>, RunError> {
    let FrameBufs {
        stack,
        locals,
        global_flags,
        ints,
        iters,
        callees,
    } = bufs;
    let mut pc = 0usize;
    let end = code.code.len();

    macro_rules! pop {
        () => {
            stack.pop().expect("compiler guarantees stack discipline")
        };
    }

    while pc < end {
        let instr = &code.code[pc];
        pc += 1;
        match instr {
            Instr::StmtMark(i) => interp.mark_stmt(&code.stmts[*i as usize]),

            Instr::LoadConst(i) => {
                let v = interp.heap.alloc(code.consts[*i as usize].clone());
                stack.push(v);
            }
            Instr::LoadGlobal(i) => {
                let v = interp.load_global(&code.names[*i as usize])?;
                stack.push(v);
            }
            Instr::LoadLocal(slot, name) => match locals[*slot as usize] {
                Some(v) => stack.push(v),
                None => {
                    let v = interp.load_global(&code.names[*name as usize])?;
                    stack.push(v);
                }
            },
            Instr::StoreGlobal(i) => {
                let v = pop!();
                interp.store_global(&code.names[*i as usize], v);
            }
            Instr::StoreLocal(slot, name) => {
                let v = pop!();
                if global_flags[*slot as usize] {
                    interp.store_global(&code.names[*name as usize], v);
                } else {
                    locals[*slot as usize] = Some(v);
                }
            }
            Instr::DeleteGlobal(i) => {
                interp.delete_global(&code.names[*i as usize])?;
            }
            Instr::DeleteLocal(slot, name) => {
                let s = *slot as usize;
                if !global_flags[s] && locals[s].is_some() {
                    locals[s] = None;
                } else {
                    interp.delete_global(&code.names[*name as usize])?;
                }
            }
            Instr::GlobalDecl(slots) => {
                for s in slots.iter() {
                    global_flags[*s as usize] = true;
                }
            }
            Instr::Pop => {
                pop!();
            }

            Instr::BuildList(n) => {
                let items = stack.split_off(stack.len() - *n as usize);
                let v = interp.heap.alloc(ObjKind::List(items));
                stack.push(v);
            }
            Instr::BuildTuple(n) => {
                let items = stack.split_off(stack.len() - *n as usize);
                let v = interp.heap.alloc(ObjKind::Tuple(items));
                stack.push(v);
            }
            Instr::BuildSet(n) => {
                let items = stack.split_off(stack.len() - *n as usize);
                let mut uniq: Vec<ObjId> = Vec::new();
                for v in items {
                    if !uniq.iter().any(|u| interp.value_eq(*u, v)) {
                        uniq.push(v);
                    }
                }
                let v = interp.heap.alloc(ObjKind::Set(uniq));
                stack.push(v);
            }
            Instr::BuildDict(n) => {
                let flat = stack.split_off(stack.len() - 2 * *n as usize);
                let pairs: Vec<(ObjId, ObjId)> =
                    flat.chunks_exact(2).map(|kv| (kv[0], kv[1])).collect();
                let v = interp.heap.alloc(ObjKind::Dict(pairs));
                stack.push(v);
            }
            Instr::AllocNone => {
                let v = interp.heap.alloc(ObjKind::None);
                stack.push(v);
            }
            Instr::PushBoolFalse => {
                let v = interp.heap.alloc(ObjKind::Bool(false));
                stack.push(v);
            }

            Instr::BinOp(op) => {
                let r = pop!();
                let l = pop!();
                let v = interp.binop(*op, l, r)?;
                stack.push(v);
            }
            Instr::UnaryNeg => {
                let v = pop!();
                let out = interp.unary_neg(v)?;
                stack.push(out);
            }
            Instr::UnaryNot => {
                let v = pop!();
                let b = !interp.truthy(v)?;
                let out = interp.heap.alloc(ObjKind::Bool(b));
                stack.push(out);
            }
            Instr::CmpLink { op, fail } => {
                let r = pop!();
                let l = pop!();
                if interp.compare(*op, l, r)? {
                    stack.push(r);
                } else {
                    pc = *fail as usize;
                }
            }
            Instr::CmpLast(op) => {
                let r = pop!();
                let l = pop!();
                let b = interp.compare(*op, l, r)?;
                let out = interp.heap.alloc(ObjKind::Bool(b));
                stack.push(out);
            }

            Instr::Jump(t) => pc = *t as usize,
            Instr::JumpIfFalse(t) => {
                let v = pop!();
                if !interp.truthy(v)? {
                    pc = *t as usize;
                }
            }
            Instr::JumpIfFalsePeek(t) => {
                let v = *stack.last().expect("operand on stack");
                if !interp.truthy(v)? {
                    pc = *t as usize;
                } else {
                    stack.pop();
                }
            }
            Instr::JumpIfTruePeek(t) => {
                let v = *stack.last().expect("operand on stack");
                if interp.truthy(v)? {
                    pc = *t as usize;
                } else {
                    stack.pop();
                }
            }
            Instr::TruthyCheck => {
                let v = *stack.last().expect("operand on stack");
                interp.truthy(v)?;
            }

            Instr::ChargeIter => interp.charge_iteration()?,
            Instr::IterNew => {
                let v = pop!();
                let items = interp.iterate(v)?;
                iters.push((items, 0));
            }
            Instr::ForIter(exit) => {
                let (items, pos) = iters.last_mut().expect("IterNew precedes ForIter");
                if *pos >= items.len() {
                    iters.pop();
                    pc = *exit as usize;
                } else {
                    let item = items[*pos];
                    *pos += 1;
                    interp.charge_iteration()?;
                    stack.push(item);
                }
            }
            Instr::PopIter => {
                iters.pop();
            }

            Instr::GetAttr(i) => {
                let o = pop!();
                let v = interp.get_attr(o, &code.names[*i as usize])?;
                stack.push(v);
            }
            Instr::SetAttr(i) => {
                let o = pop!();
                let v = pop!();
                interp.set_attr(o, &code.names[*i as usize], v)?;
            }
            Instr::DelAttr(i) => {
                let o = pop!();
                interp.delete_attr(o, &code.names[*i as usize])?;
            }
            Instr::GetIndex => {
                let idx = pop!();
                let o = pop!();
                let v = interp.get_index(o, idx)?;
                stack.push(v);
            }
            Instr::SetIndex => {
                let idx = pop!();
                let o = pop!();
                let v = pop!();
                interp.set_index(o, idx, v)?;
            }
            Instr::DelIndex => {
                let idx = pop!();
                let o = pop!();
                interp.delete_index(o, idx)?;
            }
            Instr::SliceIdx => {
                let v = pop!();
                ints.push(interp.expect_int(v)?);
            }
            Instr::GetSlice { has_lo, has_hi } => {
                let hi = if *has_hi { ints.pop() } else { None };
                let lo = if *has_lo { ints.pop() } else { None };
                let o = pop!();
                let v = interp.get_slice(o, lo, hi)?;
                stack.push(v);
            }

            Instr::AugName { op, slot, name } => {
                let rhs = pop!();
                let name = &code.names[*name as usize];
                // Load exactly like the tree's load_name: an occupied slot
                // wins (no namespace record) even when global-declared.
                let current = match slot {
                    Some(s) if locals[*s as usize].is_some() => {
                        locals[*s as usize].expect("checked occupied")
                    }
                    _ => interp.load_global(name)?,
                };
                if let Some(result) = interp.aug_name_combine(current, *op, rhs)? {
                    // Store exactly like the tree's store_name.
                    match slot {
                        Some(s) if !global_flags[*s as usize] => {
                            locals[*s as usize] = Some(result);
                        }
                        _ => interp.store_global(name, result),
                    }
                }
            }
            Instr::AugAttr { op, name } => {
                let o = pop!();
                let rhs = pop!();
                let attr = &code.names[*name as usize];
                let current = interp.get_attr(o, attr)?;
                if let Some(result) = interp.aug_elem_combine(current, *op, rhs)? {
                    interp.set_attr(o, attr, result)?;
                }
            }
            Instr::AugIndex(op) => {
                let idx = pop!();
                let o = pop!();
                let rhs = pop!();
                let current = interp.get_index(o, idx)?;
                if let Some(result) = interp.aug_elem_combine(current, *op, rhs)? {
                    interp.set_index(o, idx, result)?;
                }
            }

            Instr::MakeFunction(i) => {
                let t = &code.funcs[*i as usize];
                let f = interp.heap.alloc(
                    Function {
                        name: t.name.clone(),
                        params: t.params.clone(),
                        source: t.source.clone(),
                    }
                    .into(),
                );
                stack.push(f);
            }
            Instr::ResolveCallee { slot, name } => {
                let nm = &code.names[*name as usize];
                let callee = match slot {
                    Some(s) if locals[*s as usize].is_some() => {
                        Callee::Obj(locals[*s as usize].expect("checked occupied"))
                    }
                    _ => {
                        if !interp.globals.contains(nm) {
                            match interp.builtin_fn(nm) {
                                Some(b) => Callee::Builtin(b),
                                None => Callee::Obj(interp.load_global(nm)?),
                            }
                        } else {
                            Callee::Obj(interp.load_global(nm)?)
                        }
                    }
                };
                callees.push(callee);
            }
            Instr::CalleeFromValue => {
                let v = pop!();
                callees.push(Callee::Obj(v));
            }
            Instr::KwargsGuard => {
                if matches!(callees.last(), Some(Callee::Obj(_))) {
                    return Err(RunError::new(
                        RunErrorKind::TypeError,
                        "user functions take positional arguments only",
                    ));
                }
            }
            Instr::CallDynamic { argc, kwnames } => {
                let kw_vals = stack.split_off(stack.len() - kwnames.len());
                let kwargv: Vec<(String, ObjId)> = kwnames
                    .iter()
                    .zip(kw_vals)
                    .map(|(n, v)| (code.names[*n as usize].clone(), v))
                    .collect();
                let args = stack.split_off(stack.len() - *argc as usize);
                let callee = callees.pop().expect("resolved before the call");
                let out = match callee {
                    Callee::Builtin(b) => b(interp, args, kwargv)?,
                    Callee::Obj(f) => {
                        debug_assert!(kwargv.is_empty(), "guard raised before kwarg eval");
                        call_function(interp, f, &args)?
                    }
                };
                stack.push(out);
            }
            Instr::CallMethod {
                method,
                argc,
                kwnames,
            } => {
                let kw_vals = stack.split_off(stack.len() - kwnames.len());
                let kwargv: Vec<(String, ObjId)> = kwnames
                    .iter()
                    .zip(kw_vals)
                    .map(|(n, v)| (code.names[*n as usize].clone(), v))
                    .collect();
                let args = stack.split_off(stack.len() - *argc as usize);
                let recv = pop!();
                let out = interp.call_method(recv, &code.names[*method as usize], &args, &kwargv)?;
                stack.push(out);
            }
            Instr::Return => {
                let v = pop!();
                return Ok(Some(v));
            }

            Instr::RaiseCtrlOutside => {
                return Err(RunError::new(
                    RunErrorKind::SyntaxError,
                    "control-flow statement outside loop/function",
                ))
            }
            Instr::RaiseSliceOutside => {
                return Err(RunError::new(
                    RunErrorKind::SyntaxError,
                    "slice outside subscript",
                ))
            }
            Instr::RaiseKwargsUser => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    "user functions take positional arguments only",
                ))
            }
        }
    }
    Ok(if code.has_tail { stack.pop() } else { None })
}

#[cfg(test)]
mod tests {
    use crate::interp::{Engine, Interp};

    /// Run one source snippet through both engines and assert every
    /// observable is identical — including `ObjId`s (allocation order) and
    /// the heap's total allocation count.
    fn differential(src: &str) {
        let mut tree = Interp::new();
        tree.set_engine(Engine::Tree);
        let mut vm = Interp::new();
        vm.set_engine(Engine::Vm);
        let a = tree.run_cell(src);
        let b = vm.run_cell(src);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.error.as_ref().map(|e| (e.kind, e.to_string())),
                    b.error.as_ref().map(|e| (e.kind, e.to_string())),
                    "error shape diverged on {src:?}"
                );
                assert_eq!(a.output, b.output, "output diverged on {src:?}");
                assert_eq!(a.value_repr, b.value_repr, "value diverged on {src:?}");
                assert_eq!(
                    a.stmts_executed, b.stmts_executed,
                    "stmt counts diverged on {src:?}"
                );
                assert_eq!(a.access, b.access, "access record diverged on {src:?}");
                let ta: Vec<_> = tree.globals.bindings().collect();
                let tb: Vec<_> = vm.globals.bindings().collect();
                assert_eq!(ta, tb, "namespace ObjIds diverged on {src:?}");
                assert_eq!(
                    tree.heap.stats().total_allocated,
                    vm.heap.stats().total_allocated,
                    "allocation counts diverged on {src:?}"
                );
            }
            (a, b) => {
                assert_eq!(
                    a.err().map(|e| (e.kind, e.to_string())),
                    b.err().map(|e| (e.kind, e.to_string())),
                    "parse outcome diverged on {src:?}"
                );
            }
        }
    }

    #[test]
    fn vm_matches_tree_on_core_constructs() {
        for src in [
            "x = 1 + 2 * 3\nx\n",
            "s = 0\nfor i in range(10):\n    s += i\ns\n",
            "s = 0\nk = 0\nwhile k < 5:\n    k += 1\n    if k == 3:\n        continue\n    s += k\ns\n",
            "def f(a, b):\n    return a * b + 1\nf(3, 4)\n",
            "def outer(n):\n    def inner(x):\n        return x + n_glob\n    return inner(n)\nn_glob = 10\nouter(5)\n",
            "ls = [1, 2]\nls += [3]\nls\n",
            "d = {'a': 1}\nd['b'] = 2\ndel d['a']\nd\n",
            "t = (1, 2) + (3,)\nt[1:3]\n",
            "1 < 2 < 3 < 4\n",
            "1 < 2 > 3\n",
            "[] or 'fb'\n",
            "'x' and [1]\n",
            "not []\n",
            "-(3)\n",
            "s = 'hello'\ns[1:4] + s[-2]\n",
            "counter = 0\ndef bump():\n    global counter\n    counter += 1\nbump()\nbump()\ncounter\n",
            "x = {1, 2, 2, 3}\nlen(x)\n",
            "print('a', 1)\nprint('b')\n",
        ] {
            differential(src);
        }
    }

    #[test]
    fn vm_matches_tree_on_errors() {
        for src in [
            "missing\n",
            "1 + 'a'\n",
            "[1][5]\n",
            "{'a': 1}['b']\n",
            "1 / 0\n",
            "x = Object()\nx.nope\n",
            "break\n",
            "continue\n",
            "return 1\n",
            "for i in range(3):\n    x = i\nbreak\n",
            "def f():\n    break\nf()\n",
            "def f(x):\n    return x\nf(1, 2)\n",
            "def f(x):\n    return x\nf(k=1)\n",
            "x = 5\nx(1)\n",
            "del nope\n",
            "ls = []\nls.append(1)\nboom()\nls.append(2)\n",
            "def boom(n):\n    return boom(n + 1)\nboom(0)\n",
        ] {
            differential(src);
        }
    }

    #[test]
    fn vm_respects_iteration_budget() {
        let mut vm = Interp::new();
        vm.set_engine(Engine::Vm);
        vm.set_iteration_budget(1_000);
        let out = vm.run_cell("k = 0\nwhile True:\n    k += 1\n").expect("parses");
        let e = out.error.expect("budget must stop the loop");
        assert_eq!(e.kind, crate::error::RunErrorKind::LimitError);
    }

    #[test]
    fn vm_temp_namespace_replay_matches_tree() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut i = Interp::new();
            i.set_engine(engine);
            i.run_cell("seed = 21\n").expect("runs");
            let obj = i.globals.peek("seed").expect("bound");
            let bindings = i
                .run_cell_in_temp_namespace("derived = seed * 2\n", vec![("seed".into(), obj)])
                .expect("replay succeeds");
            let derived = bindings
                .iter()
                .find(|(n, _)| n == "derived")
                .expect("replay bound `derived`");
            assert_eq!(i.heap.kind(derived.1), &kishu_kernel::ObjKind::Int(42));
            assert_eq!(i.globals.len(), 1, "session namespace untouched");
        }
    }
}
