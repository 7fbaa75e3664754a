//! The minipy tree-walking interpreter.
//!
//! Executes cells against a `kishu-kernel` [`Heap`] and patched
//! [`Namespace`], with Python reference semantics:
//!
//! * assignment binds names to objects (no copies);
//! * mutation (`ls.append`, `arr[i] = v`, `obj.attr = v`) is in-place and
//!   goes through [`Heap::modify`](kishu_kernel::Heap::modify), which dirties the object's pages;
//! * global name accesses are routed through the patched namespace so the
//!   per-cell [`AccessRecord`] is produced exactly as Kishu's Fig 8 hook
//!   observes it; function-local variables never touch the namespace,
//!   but reads/writes of globals from inside function bodies do.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use kishu_kernel::{AccessRecord, Function, Heap, Namespace, ObjId, ObjKind, Sweep};

use crate::ast::{BinOp, BoolOpKind, CmpOp, Expr, Stmt, Target, UnaryOp};
use crate::builtins;
use crate::error::{RunError, RunErrorKind};
use crate::methods;
use crate::observer::ExecutionObserver;
use crate::parser::Parser;
use crate::repr;

/// Maximum loop iterations per cell — a backstop against runaway cells in
/// generated workloads.
const ITERATION_BUDGET: u64 = 50_000_000;
/// Maximum user-function call depth.
pub(crate) const MAX_DEPTH: usize = 64;

/// Which execution engine runs cells. Both engines share the heap, the
/// patched namespace, the builtin registry, and every operator/coercion
/// helper in this module, so their observable behavior — namespaces, heap
/// contents (down to allocation order and `ObjId`s), access records,
/// outputs, and error shapes — is identical. The tree-walker is kept as
/// the differential oracle; the bytecode VM is the fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The original AST tree-walker (the semantics oracle).
    Tree,
    /// The bytecode compiler + stack VM ([`crate::bytecode`]).
    Vm,
}

/// Signature of a registered builtin function.
pub type Builtin =
    Rc<dyn Fn(&mut Interp, Vec<ObjId>, Vec<(String, ObjId)>) -> Result<ObjId, RunError>>;

/// Method dispatch for simulated library classes ([`ObjKind::External`]).
/// `kishu-libsim` registers one implementation; returning `None` means "not
/// a method of this class", and the interpreter raises `AttributeError`.
pub trait ExternalDispatch {
    /// Try to handle `recv.method(args, kwargs)`.
    fn call_method(
        &self,
        interp: &mut Interp,
        recv: ObjId,
        method: &str,
        args: &[ObjId],
        kwargs: &[(String, ObjId)],
    ) -> Option<Result<ObjId, RunError>>;
}

/// Everything observable about one cell execution.
#[derive(Debug)]
pub struct CellOutcome {
    /// Which global names the cell got/set/deleted (the patched-namespace
    /// record Kishu's delta detector consumes).
    pub access: AccessRecord,
    /// Lines printed by the cell.
    pub output: Vec<String>,
    /// `repr` of the final bare expression, if the cell ended with one
    /// (Jupyter's `Out[n]`).
    pub value_repr: Option<String>,
    /// Runtime error, if the cell raised. Mutations made before the raise
    /// are still in effect (as in a real kernel), and `access` is complete
    /// up to the raise.
    pub error: Option<RunError>,
    /// Number of statement executions (including loop iterations).
    pub stmts_executed: u64,
    /// Wall-clock execution time.
    pub wall_time: Duration,
}

impl CellOutcome {
    /// Whether the cell completed without raising.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(ObjId),
}

/// A variable scope: the global namespace, or a function-local frame.
enum Scope {
    Global,
    Local {
        vars: HashMap<String, ObjId>,
        global_decls: HashSet<String>,
    },
}

/// The interpreter: heap + namespace + builtins + observers.
pub struct Interp {
    /// The simulated kernel heap holding all session state.
    pub heap: Heap,
    /// The patched global namespace.
    pub globals: Namespace,
    builtins: HashMap<String, Builtin>,
    external_dispatch: Option<Rc<dyn ExternalDispatch>>,
    func_cache: HashMap<u64, Rc<Vec<Stmt>>>,
    observers: Vec<Rc<RefCell<dyn ExecutionObserver>>>,
    rng_state: u64,
    output: Vec<String>,
    stmt_counter: u64,
    iter_budget: u64,
    iter_remaining: u64,
    pub(crate) depth: usize,
    engine: Engine,
    /// Compiled bytecode for whole cells, keyed by source hash.
    vm_cells: HashMap<u64, Rc<crate::bytecode::CodeObj>>,
    /// Compiled bytecode for function bodies, keyed by def-source hash
    /// (the VM twin of `func_cache`).
    vm_funcs: HashMap<u64, Rc<crate::bytecode::CodeObj>>,
    /// Recycled VM frame buffers (stack, locals, flag vectors). A function
    /// call pops one instead of allocating; the frame pushes it back on
    /// exit, so steady-state calls do no buffer allocation at all.
    pub(crate) vm_pool: Vec<crate::bytecode::vm::FrameBufs>,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// A fresh kernel session with the core builtins registered.
    pub fn new() -> Self {
        let mut interp = Interp {
            heap: Heap::new(),
            globals: Namespace::new(),
            builtins: HashMap::new(),
            external_dispatch: None,
            func_cache: HashMap::new(),
            observers: Vec::new(),
            rng_state: 0x2545F4914F6CDD1D,
            output: Vec::new(),
            stmt_counter: 0,
            iter_budget: ITERATION_BUDGET,
            iter_remaining: ITERATION_BUDGET,
            depth: 0,
            engine: Engine::Vm,
            vm_cells: HashMap::new(),
            vm_funcs: HashMap::new(),
            vm_pool: Vec::new(),
        };
        builtins::register_core(&mut interp);
        interp
    }

    /// Select the execution engine (the VM by default).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The engine this interpreter executes cells with.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Register (or replace) a builtin function callable from cells.
    pub fn register_builtin(&mut self, name: &str, f: Builtin) {
        self.builtins.insert(name.to_string(), f);
    }

    /// Install the library-class method dispatcher (`kishu-libsim`).
    pub fn set_external_dispatch(&mut self, d: Rc<dyn ExternalDispatch>) {
        self.external_dispatch = Some(d);
    }

    /// Attach an execution observer (IPyFlow-style instrumentation).
    pub fn add_observer(&mut self, obs: Rc<RefCell<dyn ExecutionObserver>>) {
        self.observers.push(obs);
    }

    /// Override the per-cell iteration budget (tests use small budgets to
    /// exercise the limit without burning time).
    pub fn set_iteration_budget(&mut self, budget: u64) {
        self.iter_budget = budget;
    }

    /// Reseed the session RNG (the source of *nondeterministic* values such
    /// as `randn`; rerunning a cell after reseeding reproduces it, which is
    /// how tests pin down the §5.3 nondeterminism limitation).
    pub fn set_rng_seed(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Next nondeterministic f64 in [0, 1) (xorshift64*).
    pub fn next_random(&mut self) -> f64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let bits = x.wrapping_mul(0x2545F4914F6CDD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Garbage-collect everything unreachable from the global namespace.
    /// Only safe between cell executions. Returns what the sweep freed and
    /// kept.
    pub fn gc(&mut self) -> Sweep {
        let roots = self.globals.roots();
        self.heap.collect_garbage(roots)
    }

    /// Append a line to the cell's captured output (used by `print` and by
    /// library code).
    pub fn emit_output(&mut self, line: String) {
        self.output.push(line);
    }

    // ------------------------------------------------------------------
    // cell execution

    /// Execute one cell. Syntax errors return `Err` (nothing ran); runtime
    /// errors are reported inside the outcome, with all side effects up to
    /// the raise intact — exactly like a real kernel.
    pub fn run_cell(&mut self, src: &str) -> Result<CellOutcome, RunError> {
        let program = Parser::new(src)?.parse_program()?;
        self.output.clear();
        self.stmt_counter = 0;
        self.iter_remaining = self.iter_budget;
        self.globals.begin_tracking();
        let start = Instant::now();
        let (error, value_repr) = match self.engine {
            Engine::Tree => self.run_program_tree(&program),
            Engine::Vm => crate::bytecode::vm::run_cell_program(self, src, &program),
        };
        let access = self.globals.end_tracking();
        Ok(CellOutcome {
            access,
            output: std::mem::take(&mut self.output),
            value_repr,
            error,
            stmts_executed: self.stmt_counter,
            wall_time: start.elapsed(),
        })
    }

    /// Tree-walker cell body: execute every statement, then the trailing
    /// bare expression if there is one. Returns `(error, value_repr)`.
    fn run_program_tree(&mut self, program: &[Stmt]) -> (Option<RunError>, Option<String>) {
        let mut scope = Scope::Global;
        let mut error = None;
        let mut value_repr = None;
        let last_is_expr = matches!(program.last(), Some(Stmt::Expr(_)));
        let body = if last_is_expr {
            &program[..program.len() - 1]
        } else {
            program
        };
        for stmt in body {
            match self.exec_stmt(stmt, &mut scope) {
                Ok(Flow::Normal) => {}
                Ok(Flow::Return(_)) | Ok(Flow::Break) | Ok(Flow::Continue) => {
                    error = Some(RunError::new(
                        RunErrorKind::SyntaxError,
                        "control-flow statement outside loop/function",
                    ));
                    break;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if error.is_none() && last_is_expr {
            if let Some(Stmt::Expr(e)) = program.last() {
                self.observe_stmt(program.last().expect("just matched"));
                self.stmt_counter += 1;
                match self.eval(e, &mut scope) {
                    Ok(v) => {
                        if !matches!(self.heap.kind(v), ObjKind::None) {
                            value_repr = Some(repr::repr(&self.heap, v));
                        }
                    }
                    Err(e) => error = Some(e),
                }
            }
        }
        (error, value_repr)
    }

    // ------------------------------------------------------------------
    // engine-shared access paths (used by both the tree-walker and the VM,
    // so namespace tracking and observer traffic are identical by
    // construction)

    /// Load a name from the global namespace, recording the access (hit or
    /// miss) exactly like a patched `user_ns.__getitem__`.
    pub(crate) fn load_global(&mut self, name: &str) -> Result<ObjId, RunError> {
        if self.globals.contains(name) {
            let v = self.globals.get(name).expect("checked contains");
            self.observe_load(name, Some(v));
            return Ok(v);
        }
        // Record the failed lookup attempt (conservative, like a patched
        // `user_ns.__getitem__` that raises KeyError after being called).
        let miss = self.globals.get(name);
        debug_assert!(miss.is_none());
        self.observe_load(name, None);
        Err(RunError::new(
            RunErrorKind::NameError,
            format!("name `{name}` is not defined"),
        ))
    }

    /// Bind a name in the global namespace, recording the store.
    pub(crate) fn store_global(&mut self, name: &str, obj: ObjId) {
        self.globals.set(name, obj);
        self.observe_store(name, obj);
    }

    /// Delete a name from the global namespace, recording the attempt.
    pub(crate) fn delete_global(&mut self, name: &str) -> Result<(), RunError> {
        self.observe_delete(name);
        match self.globals.delete(name) {
            Some(_) => Ok(()),
            None => Err(RunError::new(
                RunErrorKind::NameError,
                format!("name `{name}` is not defined"),
            )),
        }
    }

    /// Count and observe one statement execution.
    pub(crate) fn mark_stmt(&mut self, stmt: &Stmt) {
        self.stmt_counter += 1;
        self.observe_stmt(stmt);
    }

    /// Look up a builtin by name (cloned dispatch handle).
    pub(crate) fn builtin_fn(&self, name: &str) -> Option<Builtin> {
        self.builtins.get(name).cloned()
    }

    /// Compiled bytecode for a whole cell (`src` is the cache key; the
    /// already-parsed `program` avoids a second parse on a cache miss).
    pub(crate) fn vm_cell_code(
        &mut self,
        src: &str,
        program: &[Stmt],
    ) -> Rc<crate::bytecode::CodeObj> {
        let key = fnv1a(src.as_bytes());
        if let Some(c) = self.vm_cells.get(&key) {
            return c.clone();
        }
        let code = Rc::new(crate::bytecode::compiler::compile_cell(program));
        self.vm_cells.insert(key, code.clone());
        code
    }

    /// Hot-path cache probe for a compiled function body by source hash —
    /// lets the VM's call path skip cloning the source string entirely on
    /// a warm cache (every call after the first).
    pub(crate) fn vm_func_cached(&self, key: u64) -> Option<Rc<crate::bytecode::CodeObj>> {
        self.vm_funcs.get(&key).cloned()
    }

    /// Compiled bytecode for a function body, keyed by def source (the VM
    /// twin of [`Interp::function_body`]).
    pub(crate) fn vm_func_code(
        &mut self,
        source: &str,
    ) -> Result<Rc<crate::bytecode::CodeObj>, RunError> {
        let key = fnv1a(source.as_bytes());
        if let Some(c) = self.vm_funcs.get(&key) {
            return Ok(c.clone());
        }
        let program = Parser::new(source)?.parse_program()?;
        let (params, body) = match program.into_iter().next() {
            Some(Stmt::FuncDef { params, body, .. }) => (params, body),
            _ => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    "function source did not parse to a def",
                ))
            }
        };
        let code = Rc::new(crate::bytecode::compiler::compile_function(&params, &body));
        self.vm_funcs.insert(key, code.clone());
        Ok(code)
    }

    /// Run a cell in a *temporary* namespace seeded with the given bindings,
    /// without touching the session namespace. Used by Kishu's fallback
    /// recomputation (§5.3): the cell's code is re-run against its recorded
    /// dependencies, and the resulting bindings are returned.
    pub fn run_cell_in_temp_namespace(
        &mut self,
        src: &str,
        bindings: Vec<(String, ObjId)>,
    ) -> Result<Vec<(String, ObjId)>, RunError> {
        let saved = std::mem::take(&mut self.globals);
        let mut temp = Namespace::new();
        for (name, obj) in bindings {
            temp.set_untracked(&name, obj);
        }
        self.globals = temp;
        let result = self.run_cell(src);
        let temp = std::mem::replace(&mut self.globals, saved);
        let _outcome = result?;
        // A runtime error mid-cell is NOT a replay failure: the original
        // execution checkpointed its partial mutations (an errored cell
        // still commits — its effects are real and undoable), so a faithful
        // replay raises the same error at the same point and hands back
        // whatever it did bind.
        Ok(temp
            .bindings()
            .map(|(n, o)| (n.to_string(), o))
            .collect())
    }

    fn observe_stmt(&mut self, stmt: &Stmt) {
        if self.observers.is_empty() {
            return;
        }
        let obs = self.observers.clone();
        for o in &obs {
            o.borrow_mut().on_stmt(&self.heap, stmt);
        }
    }

    fn observe_load(&mut self, name: &str, obj: Option<ObjId>) {
        if self.observers.is_empty() {
            return;
        }
        let obs = self.observers.clone();
        for o in &obs {
            o.borrow_mut().on_name_load(&self.heap, name, obj);
        }
    }

    fn observe_store(&mut self, name: &str, obj: ObjId) {
        if self.observers.is_empty() {
            return;
        }
        let obs = self.observers.clone();
        for o in &obs {
            o.borrow_mut().on_name_store(&self.heap, name, obj);
        }
    }

    fn observe_delete(&mut self, name: &str) {
        if self.observers.is_empty() {
            return;
        }
        let obs = self.observers.clone();
        for o in &obs {
            o.borrow_mut().on_name_delete(&self.heap, name);
        }
    }

    // ------------------------------------------------------------------
    // statements

    fn exec_block(&mut self, stmts: &[Stmt], scope: &mut Scope) -> Result<Flow, RunError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, scope)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, scope: &mut Scope) -> Result<Flow, RunError> {
        self.stmt_counter += 1;
        self.observe_stmt(stmt);
        match stmt {
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Expr(e) => {
                self.eval(e, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value, scope)?;
                self.assign(target, v, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::AugAssign { target, op, value } => {
                self.aug_assign(target, *op, value, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::Del(targets) => {
                for t in targets {
                    self.delete(t, scope)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::If { arms, orelse } => {
                for (cond, body) in arms {
                    let c = self.eval(cond, scope)?;
                    if self.truthy(c)? {
                        return self.exec_block(body, scope);
                    }
                }
                self.exec_block(orelse, scope)
            }
            Stmt::While { cond, body } => {
                loop {
                    self.charge_iteration()?;
                    let c = self.eval(cond, scope)?;
                    if !self.truthy(c)? {
                        break;
                    }
                    match self.exec_block(body, scope)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iter, body } => {
                let iterable = self.eval(iter, scope)?;
                let items = self.iterate(iterable)?;
                for item in items {
                    self.charge_iteration()?;
                    self.store_name(var, item, scope);
                    match self.exec_block(body, scope)? {
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::FuncDef {
                name,
                params,
                source,
                ..
            } => {
                let f = self.heap.alloc(
                    Function {
                        name: name.clone(),
                        params: params.clone(),
                        source: source.clone(),
                    }
                    .into(),
                );
                self.store_name(name, f, scope);
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, scope)?,
                    None => self.heap.alloc(ObjKind::None),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Global(names) => {
                if let Scope::Local { global_decls, .. } = scope {
                    for n in names {
                        global_decls.insert(n.clone());
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    pub(crate) fn charge_iteration(&mut self) -> Result<(), RunError> {
        if self.iter_remaining == 0 {
            return Err(RunError::new(
                RunErrorKind::LimitError,
                "cell exceeded the iteration budget",
            ));
        }
        self.iter_remaining -= 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // names

    fn load_name(&mut self, name: &str, scope: &mut Scope) -> Result<ObjId, RunError> {
        if let Scope::Local { vars, .. } = scope {
            if let Some(v) = vars.get(name) {
                return Ok(*v);
            }
        }
        self.load_global(name)
    }

    fn store_name(&mut self, name: &str, obj: ObjId, scope: &mut Scope) {
        match scope {
            Scope::Local {
                vars,
                global_decls,
            } => {
                if global_decls.contains(name) {
                    self.store_global(name, obj);
                } else {
                    vars.insert(name.to_string(), obj);
                }
            }
            Scope::Global => self.store_global(name, obj),
        }
    }

    // ------------------------------------------------------------------
    // assignment / deletion

    fn assign(&mut self, target: &Target, value: ObjId, scope: &mut Scope) -> Result<(), RunError> {
        match target {
            Target::Name(name) => {
                self.store_name(name, value, scope);
                Ok(())
            }
            Target::Attr(obj, attr) => {
                let recv = self.eval(obj, scope)?;
                self.set_attr(recv, attr, value)
            }
            Target::Index(obj, idx) => {
                let recv = self.eval(obj, scope)?;
                let index = self.eval(idx, scope)?;
                self.set_index(recv, index, value)
            }
        }
    }

    /// Set `recv.attr = value` in place.
    pub fn set_attr(&mut self, recv: ObjId, attr: &str, value: ObjId) -> Result<(), RunError> {
        let kind_tag = self.heap.kind(recv).type_tag();
        match self.heap.kind(recv) {
            ObjKind::Instance(_) | ObjKind::External(_) => {
                self.heap.modify(recv, |k| {
                    if let Some(attrs) = attrs_mut(k) {
                        if let Some(slot) = attrs.iter_mut().find(|(n, _)| n == attr) {
                            slot.1 = value;
                        } else {
                            attrs.push((attr.to_string(), value));
                        }
                    }
                });
                Ok(())
            }
            ObjKind::Series { .. } if attr == "name" => {
                let s = self.expect_str(value)?.to_string();
                self.heap.modify(recv, |k| {
                    if let ObjKind::Series { name, .. } = k {
                        *name = s;
                    }
                });
                Ok(())
            }
            _ => Err(RunError::new(
                RunErrorKind::AttributeError,
                format!("cannot set attribute `{attr}` on {kind_tag}"),
            )),
        }
    }

    /// Set `recv[index] = value` in place. The receiver is read in place:
    /// an arm copies out only what it writes with, so a one-element write
    /// never copies the container.
    pub fn set_index(&mut self, recv: ObjId, index: ObjId, value: ObjId) -> Result<(), RunError> {
        match self.heap.kind(recv) {
            ObjKind::List(items) => {
                let i = self.resolve_index(index, items.len())?;
                self.heap.modify(recv, |k| {
                    if let ObjKind::List(items) = k {
                        items[i] = value;
                    }
                });
                Ok(())
            }
            ObjKind::Dict(pairs) => {
                let existing = self.find_dict_slot(pairs, index)?;
                self.heap.modify(recv, |k| {
                    if let ObjKind::Dict(pairs) = k {
                        match existing {
                            Some(i) => pairs[i].1 = value,
                            None => pairs.push((index, value)),
                        }
                    }
                });
                Ok(())
            }
            ObjKind::NdArray(values) => {
                let i = self.resolve_index(index, values.len())?;
                let v = self.expect_float(value)?;
                self.heap.modify(recv, |k| {
                    if let ObjKind::NdArray(values) = k {
                        values[i] = v;
                    }
                });
                Ok(())
            }
            ObjKind::DataFrame(_) => {
                let name = self.expect_str(index)?.to_string();
                self.heap.modify(recv, |k| {
                    if let ObjKind::DataFrame(cols) = k {
                        if let Some(slot) = cols.iter_mut().find(|(n, _)| *n == name) {
                            slot.1 = value;
                        } else {
                            cols.push((name, value));
                        }
                    }
                });
                Ok(())
            }
            &ObjKind::Series { values, .. } => self.set_index(values, index, value),
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("{} does not support item assignment", other.type_tag()),
            )),
        }
    }

    fn aug_assign(
        &mut self,
        target: &Target,
        op: BinOp,
        value: &Expr,
        scope: &mut Scope,
    ) -> Result<(), RunError> {
        let rhs = self.eval(value, scope)?;
        match target {
            Target::Name(name) => {
                let current = self.load_name(name, scope)?;
                if let Some(result) = self.aug_name_combine(current, op, rhs)? {
                    self.store_name(name, result, scope);
                }
                Ok(())
            }
            Target::Attr(obj, attr) => {
                let recv = self.eval(obj, scope)?;
                let current = self.get_attr(recv, attr)?;
                match self.aug_elem_combine(current, op, rhs)? {
                    Some(result) => self.set_attr(recv, attr, result),
                    None => Ok(()),
                }
            }
            Target::Index(obj, idx) => {
                let recv = self.eval(obj, scope)?;
                let index = self.eval(idx, scope)?;
                let current = self.get_index(recv, index)?;
                match self.aug_elem_combine(current, op, rhs)? {
                    Some(result) => self.set_index(recv, index, result),
                    None => Ok(()),
                }
            }
        }
    }

    /// Combine step for `name op= rhs`. Python `__iadd__` semantics: lists
    /// extend in place, ndarrays update their buffer in place (both return
    /// `None` — no rebind, no namespace store); everything else returns
    /// `Some(fresh)` for the caller to rebind.
    pub(crate) fn aug_name_combine(
        &mut self,
        current: ObjId,
        op: BinOp,
        rhs: ObjId,
    ) -> Result<Option<ObjId>, RunError> {
        match (self.heap.kind(current).clone(), op) {
            (ObjKind::List(_), BinOp::Add) => {
                let extra = match self.heap.kind(rhs) {
                    ObjKind::List(items) | ObjKind::Tuple(items) => items.clone(),
                    other => {
                        return Err(RunError::new(
                            RunErrorKind::TypeError,
                            format!("can only concatenate list, not {}", other.type_tag()),
                        ))
                    }
                };
                self.heap.modify(current, |k| {
                    if let ObjKind::List(items) = k {
                        items.extend(extra);
                    }
                });
                Ok(None)
            }
            (ObjKind::NdArray(_), _) => {
                self.ndarray_inplace(current, op, rhs)?;
                Ok(None)
            }
            _ => Ok(Some(self.binop(op, current, rhs)?)),
        }
    }

    /// Combine step for `recv.attr op= rhs` / `recv[idx] op= rhs`: only
    /// ndarrays update in place here (deliberately narrower than the name
    /// form — lists go through `binop` + store like the tree-walker does).
    pub(crate) fn aug_elem_combine(
        &mut self,
        current: ObjId,
        op: BinOp,
        rhs: ObjId,
    ) -> Result<Option<ObjId>, RunError> {
        if let ObjKind::NdArray(_) = self.heap.kind(current) {
            self.ndarray_inplace(current, op, rhs)?;
            return Ok(None);
        }
        Ok(Some(self.binop(op, current, rhs)?))
    }

    fn ndarray_inplace(&mut self, arr: ObjId, op: BinOp, rhs: ObjId) -> Result<(), RunError> {
        enum Rhs {
            Scalar(f64),
            Array(Vec<f64>),
        }
        let rhs_val = match self.heap.kind(rhs) {
            ObjKind::Int(v) => Rhs::Scalar(*v as f64),
            ObjKind::Float(v) => Rhs::Scalar(*v),
            ObjKind::NdArray(vs) => Rhs::Array(vs.clone()),
            other => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    format!("unsupported operand for ndarray: {}", other.type_tag()),
                ))
            }
        };
        let apply = |a: f64, b: f64| -> f64 {
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::FloorDiv => (a / b).floor(),
                BinOp::Mod => a.rem_euclid(b),
                BinOp::Pow => a.powf(b),
            }
        };
        let mut err = None;
        self.heap.modify(arr, |k| {
            if let ObjKind::NdArray(values) = k {
                match &rhs_val {
                    Rhs::Scalar(b) => {
                        for v in values.iter_mut() {
                            *v = apply(*v, *b);
                        }
                    }
                    Rhs::Array(bs) => {
                        if bs.len() != values.len() {
                            err = Some(RunError::new(
                                RunErrorKind::ValueError,
                                "operands could not be broadcast together",
                            ));
                        } else {
                            for (v, b) in values.iter_mut().zip(bs) {
                                *v = apply(*v, *b);
                            }
                        }
                    }
                }
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn delete(&mut self, target: &Target, scope: &mut Scope) -> Result<(), RunError> {
        match target {
            Target::Name(name) => {
                if let Scope::Local { vars, global_decls } = scope {
                    if !global_decls.contains(name) && vars.remove(name).is_some() {
                        return Ok(());
                    }
                }
                self.delete_global(name)
            }
            Target::Index(obj, idx) => {
                let recv = self.eval(obj, scope)?;
                let index = self.eval(idx, scope)?;
                self.delete_index(recv, index)
            }
            Target::Attr(obj, attr) => {
                let recv = self.eval(obj, scope)?;
                self.delete_attr(recv, attr)
            }
        }
    }

    /// Execute `del recv[index]` in place, reading the receiver in place
    /// as [`Self::set_index`] does.
    pub(crate) fn delete_index(&mut self, recv: ObjId, index: ObjId) -> Result<(), RunError> {
        match self.heap.kind(recv) {
            ObjKind::List(items) => {
                let i = self.resolve_index(index, items.len())?;
                self.heap.modify(recv, |k| {
                    if let ObjKind::List(items) = k {
                        items.remove(i);
                    }
                });
                Ok(())
            }
            ObjKind::Dict(pairs) => {
                match self.find_dict_slot(pairs, index)? {
                    Some(i) => {
                        self.heap.modify(recv, |k| {
                            if let ObjKind::Dict(pairs) = k {
                                pairs.remove(i);
                            }
                        });
                        Ok(())
                    }
                    None => Err(RunError::new(RunErrorKind::KeyError, "key not found")),
                }
            }
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("cannot delete items of {}", other.type_tag()),
            )),
        }
    }

    /// Execute `del recv.attr` in place.
    pub(crate) fn delete_attr(&mut self, recv: ObjId, attr: &str) -> Result<(), RunError> {
        let mut found = false;
        self.heap.modify(recv, |k| {
            if let Some(attrs) = attrs_mut(k) {
                let before = attrs.len();
                attrs.retain(|(n, _)| n != attr);
                found = attrs.len() < before;
            }
        });
        if found {
            Ok(())
        } else {
            Err(RunError::new(
                RunErrorKind::AttributeError,
                format!("no attribute `{attr}`"),
            ))
        }
    }

    // ------------------------------------------------------------------
    // expressions

    fn eval(&mut self, expr: &Expr, scope: &mut Scope) -> Result<ObjId, RunError> {
        match expr {
            Expr::None => Ok(self.heap.alloc(ObjKind::None)),
            Expr::Bool(b) => Ok(self.heap.alloc(ObjKind::Bool(*b))),
            Expr::Int(v) => Ok(self.heap.alloc(ObjKind::Int(*v))),
            Expr::Float(v) => Ok(self.heap.alloc(ObjKind::Float(*v))),
            Expr::Str(s) => Ok(self.heap.alloc(ObjKind::Str(s.clone()))),
            Expr::Name(n) => self.load_name(n, scope),
            Expr::List(items) => {
                let vals = self.eval_all(items, scope)?;
                Ok(self.heap.alloc(ObjKind::List(vals)))
            }
            Expr::Tuple(items) => {
                let vals = self.eval_all(items, scope)?;
                Ok(self.heap.alloc(ObjKind::Tuple(vals)))
            }
            Expr::Set(items) => {
                let vals = self.eval_all(items, scope)?;
                let mut uniq: Vec<ObjId> = Vec::new();
                for v in vals {
                    if !uniq.iter().any(|u| self.value_eq(*u, v)) {
                        uniq.push(v);
                    }
                }
                Ok(self.heap.alloc(ObjKind::Set(uniq)))
            }
            Expr::Dict(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    let kv = self.eval(k, scope)?;
                    let vv = self.eval(v, scope)?;
                    out.push((kv, vv));
                }
                Ok(self.heap.alloc(ObjKind::Dict(out)))
            }
            Expr::BinOp { op, left, right } => {
                let l = self.eval(left, scope)?;
                let r = self.eval(right, scope)?;
                self.binop(*op, l, r)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, scope)?;
                match op {
                    UnaryOp::Not => {
                        let b = !self.truthy(v)?;
                        Ok(self.heap.alloc(ObjKind::Bool(b)))
                    }
                    UnaryOp::Neg => self.unary_neg(v),
                }
            }
            Expr::BoolOp { op, operands } => {
                let mut last = None;
                for e in operands {
                    let v = self.eval(e, scope)?;
                    let t = self.truthy(v)?;
                    match op {
                        BoolOpKind::And if !t => return Ok(v),
                        BoolOpKind::Or if t => return Ok(v),
                        _ => last = Some(v),
                    }
                }
                Ok(last.expect("parser guarantees ≥2 operands"))
            }
            Expr::Compare { left, rest } => {
                let mut prev = self.eval(left, scope)?;
                for (op, e) in rest {
                    let next = self.eval(e, scope)?;
                    if !self.compare(*op, prev, next)? {
                        return Ok(self.heap.alloc(ObjKind::Bool(false)));
                    }
                    prev = next;
                }
                Ok(self.heap.alloc(ObjKind::Bool(true)))
            }
            Expr::Attr(obj, attr) => {
                let recv = self.eval(obj, scope)?;
                self.get_attr(recv, attr)
            }
            Expr::Index(obj, idx) => {
                let recv = self.eval(obj, scope)?;
                if let Expr::Slice(lo, hi) = idx.as_ref() {
                    let lo = match lo {
                        Some(e) => Some(self.eval_usize_like(e, scope)?),
                        None => None,
                    };
                    let hi = match hi {
                        Some(e) => Some(self.eval_usize_like(e, scope)?),
                        None => None,
                    };
                    return self.get_slice(recv, lo, hi);
                }
                let index = self.eval(idx, scope)?;
                self.get_index(recv, index)
            }
            Expr::Slice(..) => Err(RunError::new(
                RunErrorKind::SyntaxError,
                "slice outside subscript",
            )),
            Expr::Call { func, args, kwargs } => self.eval_call(func, args, kwargs, scope),
        }
    }

    fn eval_all(&mut self, exprs: &[Expr], scope: &mut Scope) -> Result<Vec<ObjId>, RunError> {
        exprs.iter().map(|e| self.eval(e, scope)).collect()
    }

    fn eval_usize_like(&mut self, e: &Expr, scope: &mut Scope) -> Result<i64, RunError> {
        let v = self.eval(e, scope)?;
        self.expect_int(v)
    }

    fn eval_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        scope: &mut Scope,
    ) -> Result<ObjId, RunError> {
        // Method call: obj.method(...)
        if let Expr::Attr(obj, method) = func {
            let recv = self.eval(obj, scope)?;
            let argv = self.eval_all(args, scope)?;
            let kwargv = self.eval_kwargs(kwargs, scope)?;
            return self.call_method(recv, method, &argv, &kwargv);
        }
        // Plain-name call: user function shadows builtin.
        if let Expr::Name(name) = func {
            let in_locals = matches!(scope, Scope::Local { vars, .. } if vars.contains_key(name));
            if !in_locals && !self.globals.contains(name) {
                if let Some(b) = self.builtins.get(name).cloned() {
                    let argv = self.eval_all(args, scope)?;
                    let kwargv = self.eval_kwargs(kwargs, scope)?;
                    return b(self, argv, kwargv);
                }
            }
        }
        let callee = self.eval(func, scope)?;
        let argv = self.eval_all(args, scope)?;
        if !kwargs.is_empty() {
            return Err(RunError::new(
                RunErrorKind::TypeError,
                "user functions take positional arguments only",
            ));
        }
        self.call_function_obj(callee, &argv)
    }

    fn eval_kwargs(
        &mut self,
        kwargs: &[(String, Expr)],
        scope: &mut Scope,
    ) -> Result<Vec<(String, ObjId)>, RunError> {
        kwargs
            .iter()
            .map(|(n, e)| Ok((n.clone(), self.eval(e, scope)?)))
            .collect()
    }

    /// Call a function object with positional arguments (engine-dispatched).
    pub fn call_function_obj(&mut self, callee: ObjId, argv: &[ObjId]) -> Result<ObjId, RunError> {
        match self.engine {
            Engine::Tree => self.call_function_tree(callee, argv),
            Engine::Vm => crate::bytecode::vm::call_function(self, callee, argv),
        }
    }

    fn call_function_tree(&mut self, callee: ObjId, argv: &[ObjId]) -> Result<ObjId, RunError> {
        let (params, source) = match self.heap.kind(callee) {
            ObjKind::Function(f) => (f.params.clone(), f.source.clone()),
            other => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    format!("{} object is not callable", other.type_tag()),
                ))
            }
        };
        if argv.len() != params.len() {
            return Err(RunError::new(
                RunErrorKind::TypeError,
                format!("expected {} arguments, got {}", params.len(), argv.len()),
            ));
        }
        if self.depth >= MAX_DEPTH {
            return Err(RunError::new(
                RunErrorKind::LimitError,
                "maximum recursion depth exceeded",
            ));
        }
        let body = self.function_body(&source)?;
        let mut vars = HashMap::with_capacity(params.len());
        for (p, v) in params.iter().zip(argv) {
            vars.insert(p.clone(), *v);
        }
        let mut scope = Scope::Local {
            vars,
            global_decls: HashSet::new(),
        };
        self.depth += 1;
        let flow = self.exec_block(&body, &mut scope);
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(self.heap.alloc(ObjKind::None)),
        }
    }

    fn function_body(&mut self, source: &str) -> Result<Rc<Vec<Stmt>>, RunError> {
        let key = fnv1a(source.as_bytes());
        if let Some(b) = self.func_cache.get(&key) {
            return Ok(b.clone());
        }
        let program = Parser::new(source)?.parse_program()?;
        let body = match program.into_iter().next() {
            Some(Stmt::FuncDef { body, .. }) => body,
            _ => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    "function source did not parse to a def",
                ))
            }
        };
        let rc = Rc::new(body);
        self.func_cache.insert(key, rc.clone());
        Ok(rc)
    }

    /// Dispatch `recv.method(args, kwargs)`: external classes go to the
    /// registered dispatcher first, then the built-in kind methods.
    pub fn call_method(
        &mut self,
        recv: ObjId,
        method: &str,
        args: &[ObjId],
        kwargs: &[(String, ObjId)],
    ) -> Result<ObjId, RunError> {
        if matches!(self.heap.kind(recv), ObjKind::External(_)) {
            if let Some(d) = self.external_dispatch.clone() {
                if let Some(result) = d.call_method(self, recv, method, args, kwargs) {
                    return result;
                }
            }
        }
        methods::dispatch(self, recv, method, args, kwargs)
    }

    // ------------------------------------------------------------------
    // attribute / subscript reads

    /// Read `recv.attr` (data attributes only; methods are call-only). The
    /// receiver is read in place: an arm copies out only what it allocates
    /// with, so reading an attribute never copies a payload.
    pub fn get_attr(&mut self, recv: ObjId, attr: &str) -> Result<ObjId, RunError> {
        match self.heap.kind(recv) {
            ObjKind::Instance(inst) => {
                inst.attrs.iter().find(|(n, _)| n == attr).map(|(_, v)| *v).ok_or_else(|| {
                    RunError::new(
                        RunErrorKind::AttributeError,
                        format!("'{}' object has no attribute `{attr}`", inst.class_name),
                    )
                })
            }
            ObjKind::External(ext) => {
                ext.attrs.iter().find(|(n, _)| n == attr).map(|(_, v)| *v).ok_or_else(|| {
                    RunError::new(
                        RunErrorKind::AttributeError,
                        format!("external object has no attribute `{attr}`"),
                    )
                })
            }
            ObjKind::Series { name, values } => match attr {
                "name" => {
                    let name = name.clone();
                    Ok(self.heap.alloc(ObjKind::Str(name)))
                }
                "values" => Ok(*values),
                _ => Err(RunError::new(
                    RunErrorKind::AttributeError,
                    format!("Series has no attribute `{attr}`"),
                )),
            },
            ObjKind::DataFrame(cols) => match attr {
                "columns" => {
                    let names: Vec<String> = cols.iter().map(|(n, _)| n.clone()).collect();
                    let names: Vec<ObjId> =
                        names.into_iter().map(|n| self.heap.alloc(ObjKind::Str(n))).collect();
                    Ok(self.heap.alloc(ObjKind::List(names)))
                }
                "shape" => {
                    let (first, ncols) = (cols.first().map(|(_, c)| *c), cols.len());
                    let nrows = first.map(|c| self.sequence_len(c).unwrap_or(0)).unwrap_or(0);
                    let r = self.heap.alloc(ObjKind::Int(nrows as i64));
                    let c = self.heap.alloc(ObjKind::Int(ncols as i64));
                    Ok(self.heap.alloc(ObjKind::Tuple(vec![r, c])))
                }
                _ => Err(RunError::new(
                    RunErrorKind::AttributeError,
                    format!("DataFrame has no attribute `{attr}`"),
                )),
            },
            ObjKind::NdArray(values) => match attr {
                "size" => {
                    let size = values.len() as i64;
                    Ok(self.heap.alloc(ObjKind::Int(size)))
                }
                _ => Err(RunError::new(
                    RunErrorKind::AttributeError,
                    format!("ndarray has no attribute `{attr}`"),
                )),
            },
            other => Err(RunError::new(
                RunErrorKind::AttributeError,
                format!("{} has no attribute `{attr}`", other.type_tag()),
            )),
        }
    }

    /// Read `recv[index]`. The receiver is read in place: an arm copies
    /// out only the element it returns or allocates with.
    pub fn get_index(&mut self, recv: ObjId, index: ObjId) -> Result<ObjId, RunError> {
        match self.heap.kind(recv) {
            ObjKind::List(items) | ObjKind::Tuple(items) => {
                let i = self.resolve_index(index, items.len())?;
                Ok(items[i])
            }
            ObjKind::Dict(pairs) => match self.find_dict_slot(pairs, index)? {
                Some(i) => Ok(pairs[i].1),
                None => Err(RunError::new(
                    RunErrorKind::KeyError,
                    format!("key {}", repr::repr(&self.heap, index)),
                )),
            },
            ObjKind::Str(s) => {
                let i = self.resolve_index(index, s.chars().count())?;
                let c = s.chars().nth(i).expect("index resolved in range").to_string();
                Ok(self.heap.alloc(ObjKind::Str(c)))
            }
            ObjKind::NdArray(values) => {
                let x = values[self.resolve_index(index, values.len())?];
                Ok(self.heap.alloc(ObjKind::Float(x)))
            }
            &ObjKind::Series { values, .. } => self.get_index(values, index),
            ObjKind::DataFrame(cols) => {
                let name = self.expect_str(index)?;
                cols.iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, c)| *c)
                    .ok_or_else(|| {
                        RunError::new(RunErrorKind::KeyError, format!("column `{name}`"))
                    })
            }
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("{} is not subscriptable", other.type_tag()),
            )),
        }
    }

    pub(crate) fn get_slice(
        &mut self,
        recv: ObjId,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> Result<ObjId, RunError> {
        let clamp = |len: usize, v: Option<i64>, default: usize| -> usize {
            match v {
                None => default,
                Some(x) if x < 0 => len.saturating_sub((-x) as usize),
                Some(x) => (x as usize).min(len),
            }
        };
        match self.heap.kind(recv).clone() {
            ObjKind::List(items) => {
                let (a, b) = (clamp(items.len(), lo, 0), clamp(items.len(), hi, items.len()));
                let slice = if a < b { items[a..b].to_vec() } else { Vec::new() };
                Ok(self.heap.alloc(ObjKind::List(slice)))
            }
            ObjKind::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let (a, b) = (clamp(chars.len(), lo, 0), clamp(chars.len(), hi, chars.len()));
                let out: String = if a < b { chars[a..b].iter().collect() } else { String::new() };
                Ok(self.heap.alloc(ObjKind::Str(out)))
            }
            ObjKind::NdArray(values) => {
                let (a, b) = (clamp(values.len(), lo, 0), clamp(values.len(), hi, values.len()));
                let out = if a < b { values[a..b].to_vec() } else { Vec::new() };
                Ok(self.heap.alloc(ObjKind::NdArray(out)))
            }
            ObjKind::Series { values, .. } => self.get_slice(values, lo, hi),
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("{} does not support slicing", other.type_tag()),
            )),
        }
    }

    // ------------------------------------------------------------------
    // operators and coercions

    /// Apply a binary arithmetic operator, producing a new object.
    pub fn binop(&mut self, op: BinOp, l: ObjId, r: ObjId) -> Result<ObjId, RunError> {
        use ObjKind::*;
        let lk = self.heap.kind(l);
        let rk = self.heap.kind(r);
        let kind = match (op, lk, rk) {
            // int ∘ int stays int except for true division
            (BinOp::Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
            (BinOp::Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
            (BinOp::Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
            (BinOp::Div, Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(RunError::new(RunErrorKind::ValueError, "division by zero"));
                }
                Float(*a as f64 / *b as f64)
            }
            (BinOp::FloorDiv, Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(RunError::new(RunErrorKind::ValueError, "division by zero"));
                }
                Int(a.div_euclid(*b))
            }
            (BinOp::Mod, Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(RunError::new(RunErrorKind::ValueError, "modulo by zero"));
                }
                Int(a.rem_euclid(*b))
            }
            (BinOp::Pow, Int(a), Int(b)) if *b >= 0 => {
                Int(a.checked_pow((*b).min(63) as u32).unwrap_or(i64::MAX))
            }
            // mixed / float arithmetic
            _ if lk.is_numeric() && rk.is_numeric_or_array() || lk.is_array() => {
                return self.numeric_binop(op, l, r)
            }
            (BinOp::Add, Str(a), Str(b)) => Str(format!("{a}{b}")),
            (BinOp::Mul, Str(a), Int(n)) => Str(a.repeat((*n).max(0) as usize)),
            (BinOp::Add, List(a), List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().copied());
                List(out)
            }
            (BinOp::Mul, List(a), Int(n)) => {
                let mut out = Vec::new();
                for _ in 0..(*n).max(0) {
                    out.extend(a.iter().copied());
                }
                List(out)
            }
            (BinOp::Add, Tuple(a), Tuple(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().copied());
                Tuple(out)
            }
            _ => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    format!(
                        "unsupported operand types for {op:?}: {} and {}",
                        lk.type_tag(),
                        rk.type_tag()
                    ),
                ))
            }
        };
        Ok(self.heap.alloc(kind))
    }

    fn numeric_binop(&mut self, op: BinOp, l: ObjId, r: ObjId) -> Result<ObjId, RunError> {
        let apply = |a: f64, b: f64| -> f64 {
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::FloorDiv => (a / b).floor(),
                BinOp::Mod => a.rem_euclid(b),
                BinOp::Pow => a.powf(b),
            }
        };
        let lk = self.heap.kind(l);
        let rk = self.heap.kind(r);
        let kind = match (lk, rk) {
            (ObjKind::NdArray(a), ObjKind::NdArray(b)) => {
                if a.len() != b.len() {
                    return Err(RunError::new(
                        RunErrorKind::ValueError,
                        "operands could not be broadcast together",
                    ));
                }
                ObjKind::NdArray(a.iter().zip(b).map(|(x, y)| apply(*x, *y)).collect())
            }
            (ObjKind::NdArray(a), _) => {
                let b = self.expect_float(r)?;
                ObjKind::NdArray(a.iter().map(|x| apply(*x, b)).collect())
            }
            (_, ObjKind::NdArray(b)) => {
                let a = self.expect_float(l)?;
                ObjKind::NdArray(b.iter().map(|y| apply(a, *y)).collect())
            }
            _ => {
                let a = self.expect_float(l)?;
                let b = self.expect_float(r)?;
                if matches!(op, BinOp::Div | BinOp::FloorDiv | BinOp::Mod) && b == 0.0 {
                    return Err(RunError::new(RunErrorKind::ValueError, "division by zero"));
                }
                ObjKind::Float(apply(a, b))
            }
        };
        Ok(self.heap.alloc(kind))
    }

    pub(crate) fn compare(&mut self, op: CmpOp, l: ObjId, r: ObjId) -> Result<bool, RunError> {
        match op {
            CmpOp::Eq => Ok(self.value_eq(l, r)),
            CmpOp::Ne => Ok(!self.value_eq(l, r)),
            CmpOp::In => self.contains(r, l),
            CmpOp::NotIn => Ok(!self.contains(r, l)?),
            _ => {
                let ord = self.value_cmp(l, r)?;
                Ok(match op {
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    _ => unreachable!("handled above"),
                })
            }
        }
    }

    /// Python `==`: deep value equality with cycle protection.
    pub fn value_eq(&self, a: ObjId, b: ObjId) -> bool {
        let mut visiting = HashSet::new();
        self.value_eq_inner(a, b, &mut visiting)
    }

    fn value_eq_inner(&self, a: ObjId, b: ObjId, visiting: &mut HashSet<(ObjId, ObjId)>) -> bool {
        if a == b {
            return true;
        }
        if !visiting.insert((a, b)) {
            return true; // cycle: assume equal along this path
        }
        use ObjKind::*;
        let result = match (self.heap.kind(a), self.heap.kind(b)) {
            (None, None) => true,
            (Bool(x), Bool(y)) => x == y,
            (Int(x), Int(y)) => x == y,
            (Float(x), Float(y)) => x == y,
            (Int(x), Float(y)) | (Float(y), Int(x)) => *x as f64 == *y,
            (Str(x), Str(y)) => x == y,
            (List(xs), List(ys)) | (Tuple(xs), Tuple(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|(x, y)| self.value_eq_inner(*x, *y, visiting))
            }
            (Set(xs), Set(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().all(|x| {
                        ys.iter().any(|y| self.value_eq_inner(*x, *y, visiting))
                    })
            }
            (Dict(xs), Dict(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().all(|(kx, vx)| {
                        ys.iter().any(|(ky, vy)| {
                            self.value_eq_inner(*kx, *ky, visiting)
                                && self.value_eq_inner(*vx, *vy, visiting)
                        })
                    })
            }
            (NdArray(xs), NdArray(ys)) => xs == ys,
            _ => false,
        };
        visiting.remove(&(a, b));
        result
    }

    fn value_cmp(&mut self, a: ObjId, b: ObjId) -> Result<std::cmp::Ordering, RunError> {
        use ObjKind::*;
        match (self.heap.kind(a).clone(), self.heap.kind(b).clone()) {
            (Int(x), Int(y)) => Ok(x.cmp(&y)),
            (Str(x), Str(y)) => Ok(x.cmp(&y)),
            (List(xs), List(ys)) => {
                for (x, y) in xs.iter().zip(&ys) {
                    let ord = self.value_cmp(*x, *y)?;
                    if ord != std::cmp::Ordering::Equal {
                        return Ok(ord);
                    }
                }
                Ok(xs.len().cmp(&ys.len()))
            }
            (lk, rk) if lk.is_numeric() && rk.is_numeric() => {
                let x = self.expect_float(a)?;
                let y = self.expect_float(b)?;
                Ok(x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal))
            }
            (lk, rk) => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("cannot order {} and {}", lk.type_tag(), rk.type_tag()),
            )),
        }
    }

    fn contains(&mut self, container: ObjId, item: ObjId) -> Result<bool, RunError> {
        match self.heap.kind(container).clone() {
            ObjKind::List(items) | ObjKind::Tuple(items) | ObjKind::Set(items) => {
                Ok(items.iter().any(|i| self.value_eq(*i, item)))
            }
            ObjKind::Dict(pairs) => Ok(pairs.iter().any(|(k, _)| self.value_eq(*k, item))),
            ObjKind::Str(s) => {
                let sub = self.expect_str(item)?;
                Ok(s.contains(sub))
            }
            ObjKind::NdArray(values) => {
                let v = self.expect_float(item)?;
                Ok(values.contains(&v))
            }
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("argument of type {} is not iterable", other.type_tag()),
            )),
        }
    }

    /// Unary `-` (shared between engines).
    pub(crate) fn unary_neg(&mut self, v: ObjId) -> Result<ObjId, RunError> {
        match self.heap.kind(v) {
            ObjKind::Int(x) => Ok(self.heap.alloc(ObjKind::Int(-x))),
            ObjKind::Float(x) => Ok(self.heap.alloc(ObjKind::Float(-x))),
            ObjKind::NdArray(xs) => {
                let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
                Ok(self.heap.alloc(ObjKind::NdArray(neg)))
            }
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("bad operand for unary -: {}", other.type_tag()),
            )),
        }
    }

    /// Python truthiness. Arrays and frames raise (as NumPy/pandas do).
    pub fn truthy(&self, v: ObjId) -> Result<bool, RunError> {
        Ok(match self.heap.kind(v) {
            ObjKind::None => false,
            ObjKind::Bool(b) => *b,
            ObjKind::Int(x) => *x != 0,
            ObjKind::Float(x) => *x != 0.0,
            ObjKind::Str(s) => !s.is_empty(),
            ObjKind::List(xs) | ObjKind::Tuple(xs) | ObjKind::Set(xs) => !xs.is_empty(),
            ObjKind::Dict(ps) => !ps.is_empty(),
            ObjKind::NdArray(_) | ObjKind::DataFrame(_) => {
                return Err(RunError::new(
                    RunErrorKind::ValueError,
                    "truth value of an array is ambiguous",
                ))
            }
            _ => true,
        })
    }

    /// Materialize an iterable into a vector of items (what `for` walks).
    pub fn iterate(&mut self, v: ObjId) -> Result<Vec<ObjId>, RunError> {
        match self.heap.kind(v).clone() {
            ObjKind::List(items) | ObjKind::Tuple(items) | ObjKind::Set(items) => Ok(items),
            ObjKind::Dict(pairs) => Ok(pairs.iter().map(|(k, _)| *k).collect()),
            ObjKind::Str(s) => Ok(s
                .chars()
                .map(|c| self.heap.alloc(ObjKind::Str(c.to_string())))
                .collect()),
            ObjKind::NdArray(values) => Ok(values
                .iter()
                .map(|x| self.heap.alloc(ObjKind::Float(*x)))
                .collect()),
            ObjKind::Series { values, .. } => self.iterate(values),
            ObjKind::DataFrame(cols) => Ok(cols
                .iter()
                .map(|(n, _)| self.heap.alloc(ObjKind::Str(n.clone())))
                .collect()),
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("{} object is not iterable", other.type_tag()),
            )),
        }
    }

    /// Length of a sequence-like object, if it has one.
    pub fn sequence_len(&self, v: ObjId) -> Option<usize> {
        match self.heap.kind(v) {
            ObjKind::List(xs) | ObjKind::Tuple(xs) | ObjKind::Set(xs) => Some(xs.len()),
            ObjKind::Dict(ps) => Some(ps.len()),
            ObjKind::Str(s) => Some(s.chars().count()),
            ObjKind::NdArray(vs) => Some(vs.len()),
            ObjKind::Series { values, .. } => self.sequence_len(*values),
            ObjKind::DataFrame(cols) => cols.first().and_then(|(_, c)| self.sequence_len(*c)),
            _ => None,
        }
    }

    fn resolve_index(&self, index: ObjId, len: usize) -> Result<usize, RunError> {
        let i = self.expect_int(index)?;
        let idx = if i < 0 { len as i64 + i } else { i };
        if idx < 0 || idx as usize >= len {
            return Err(RunError::new(
                RunErrorKind::IndexError,
                format!("index {i} out of range for length {len}"),
            ));
        }
        Ok(idx as usize)
    }

    fn find_dict_slot(&self, pairs: &[(ObjId, ObjId)], key: ObjId) -> Result<Option<usize>, RunError> {
        Ok(pairs.iter().position(|(k, _)| self.value_eq(*k, key)))
    }

    /// Coerce to i64 (ints and bools).
    pub fn expect_int(&self, v: ObjId) -> Result<i64, RunError> {
        match self.heap.kind(v) {
            ObjKind::Int(x) => Ok(*x),
            ObjKind::Bool(b) => Ok(*b as i64),
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("expected int, got {}", other.type_tag()),
            )),
        }
    }

    /// Coerce to f64 (ints, floats, bools).
    pub fn expect_float(&self, v: ObjId) -> Result<f64, RunError> {
        match self.heap.kind(v) {
            ObjKind::Int(x) => Ok(*x as f64),
            ObjKind::Float(x) => Ok(*x),
            ObjKind::Bool(b) => Ok(*b as i64 as f64),
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("expected number, got {}", other.type_tag()),
            )),
        }
    }

    /// Borrow a string value.
    pub fn expect_str(&self, v: ObjId) -> Result<&str, RunError> {
        match self.heap.kind(v) {
            ObjKind::Str(s) => Ok(s),
            other => Err(RunError::new(
                RunErrorKind::TypeError,
                format!("expected str, got {}", other.type_tag()),
            )),
        }
    }
}

trait NumericTag {
    fn is_numeric(&self) -> bool;
    fn is_array(&self) -> bool;
    fn is_numeric_or_array(&self) -> bool;
}

impl NumericTag for ObjKind {
    fn is_numeric(&self) -> bool {
        matches!(self, ObjKind::Int(_) | ObjKind::Float(_) | ObjKind::Bool(_))
    }
    fn is_array(&self) -> bool {
        matches!(self, ObjKind::NdArray(_))
    }
    fn is_numeric_or_array(&self) -> bool {
        self.is_numeric() || self.is_array()
    }
}

/// The attribute list of an object that has one (an instance or a library
/// object).
fn attrs_mut(kind: &mut ObjKind) -> Option<&mut Vec<(String, ObjId)>> {
    match kind {
        ObjKind::Instance(inst) => Some(&mut inst.attrs),
        ObjKind::External(ext) => Some(&mut ext.attrs),
        _ => None,
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> String {
        let mut i = Interp::new();
        let out = i.run_cell(src).expect("parses");
        if let Some(e) = out.error {
            panic!("cell failed: {e}");
        }
        out.value_repr.unwrap_or_default()
    }

    fn run_err(src: &str) -> RunError {
        let mut i = Interp::new();
        let out = i.run_cell(src).expect("parses");
        out.error.expect("cell should raise")
    }

    #[test]
    fn while_break_continue() {
        assert_eq!(
            eval("s = 0\nk = 0\nwhile True:\n    k += 1\n    if k > 10:\n        break\n    if k % 2 == 0:\n        continue\n    s += k\ns\n"),
            "25" // 1+3+5+7+9
        );
    }

    #[test]
    fn nested_loops_and_else_chains() {
        assert_eq!(
            eval("grid = 0\nfor a in range(4):\n    for b in range(4):\n        if a == b:\n            grid += 10\n        elif a < b:\n            grid += 1\n        else:\n            grid += 0\ngrid\n"),
            "46" // 4*10 + 6*1
        );
    }

    #[test]
    fn functions_locals_do_not_leak() {
        let mut i = Interp::new();
        let out = i
            .run_cell("def f(x):\n    local_only = x * 2\n    return local_only\ny = f(21)\n")
            .expect("parses");
        assert!(out.error.is_none());
        assert!(i.globals.contains("y"));
        assert!(!i.globals.contains("local_only"), "locals must not leak");
        assert!(!i.globals.contains("x"));
    }

    #[test]
    fn global_statement_writes_globals() {
        assert_eq!(
            eval("counter = 0\ndef bump():\n    global counter\n    counter += 1\nbump()\nbump()\ncounter\n"),
            "2"
        );
    }

    #[test]
    fn functions_read_globals_without_declaration() {
        assert_eq!(
            eval("base = 100\ndef shifted(x):\n    return base + x\nshifted(5)\n"),
            "105"
        );
    }

    #[test]
    fn recursion_works_and_is_bounded() {
        assert_eq!(
            eval("def fact(n):\n    if n <= 1:\n        return 1\n    return n * fact(n - 1)\nfact(10)\n"),
            "3628800"
        );
        let e = run_err("def boom(n):\n    return boom(n + 1)\nboom(0)\n");
        assert_eq!(e.kind, RunErrorKind::LimitError);
    }

    #[test]
    fn error_kinds_are_pythonic() {
        assert_eq!(run_err("missing\n").kind, RunErrorKind::NameError);
        assert_eq!(run_err("1 + 'a'\n").kind, RunErrorKind::TypeError);
        assert_eq!(run_err("[1][5]\n").kind, RunErrorKind::IndexError);
        assert_eq!(run_err("{'a': 1}['b']\n").kind, RunErrorKind::KeyError);
        assert_eq!(run_err("1 / 0\n").kind, RunErrorKind::ValueError);
        assert_eq!(run_err("x = Object()\nx.nope\n").kind, RunErrorKind::AttributeError);
    }

    #[test]
    fn mutations_before_a_raise_persist() {
        let mut i = Interp::new();
        let out = i.run_cell("ls = []\nls.append(1)\nboom()\nls.append(2)\n").expect("parses");
        assert!(out.error.is_some());
        let ls = i.globals.peek("ls").expect("bound before the raise");
        assert_eq!(i.heap.children(ls).len(), 1, "first append persisted, second never ran");
    }

    #[test]
    fn short_circuit_evaluation() {
        // The right operand must not be evaluated when short-circuited.
        assert_eq!(eval("x = 0\nr = False and missing_name\nr\n"), "False");
        assert_eq!(eval("r = True or missing_name\nr\n"), "True");
        // Python returns the deciding operand, not a bool.
        assert_eq!(eval("[] or 'fallback'\n"), "'fallback'");
        assert_eq!(eval("'first' and 'second'\n"), "'second'");
    }

    #[test]
    fn chained_comparison_evaluates_middles_once() {
        assert_eq!(eval("1 < 2 < 3\n"), "True");
        assert_eq!(eval("1 < 2 > 3\n"), "False");
        assert_eq!(eval("'a' in 'cat' in ['cat']\n"), "True"); // both links hold
    }

    #[test]
    fn temp_namespace_runs_are_isolated() {
        let mut i = Interp::new();
        i.run_cell("keep = 'session'\n").expect("runs");
        let obj = i.globals.peek("keep").expect("bound");
        let result = i
            .run_cell_in_temp_namespace("derived = seed * 2\n", vec![("seed".into(), obj)])
            .err();
        // `seed * 2` on a string: 'sessionsession' — no error expected...
        assert!(result.is_none() || result.is_some());
        // The session namespace is untouched either way.
        assert_eq!(i.globals.len(), 1);
        assert!(i.globals.contains("keep"));
        // And tracking in the session scope still works afterwards.
        let out = i.run_cell("keep2 = keep\n").expect("runs");
        assert!(out.access.gets.contains("keep"));
    }

    #[test]
    fn iteration_budget_stops_runaway_cells() {
        let mut i = Interp::new();
        i.set_iteration_budget(10_000);
        let out = i.run_cell("k = 0\nwhile True:\n    k += 1\n").expect("parses");
        let e = out.error.expect("must be stopped");
        assert_eq!(e.kind, RunErrorKind::LimitError);
    }

    #[test]
    fn augmented_assign_on_list_is_in_place() {
        assert_eq!(
            eval("a = [1]\nb = a\na += [2, 3]\nid(a) == id(b)\n"),
            "True"
        );
        assert_eq!(eval("a = [1]\nb = a\na += [2]\nlen(b)\n"), "2");
        // But += on an int rebinds.
        assert_eq!(eval("x = 1\ny = x\nx += 1\ny\n"), "1");
    }

    #[test]
    fn value_equality_is_deep() {
        assert_eq!(eval("[1, [2, 3]] == [1, [2, 3]]\n"), "True");
        assert_eq!(eval("{'a': [1]} == {'a': [1]}\n"), "True");
        assert_eq!(eval("{1, 2} == {2, 1}\n"), "True");
        assert_eq!(eval("(1, 2) == (1, 3)\n"), "False");
        assert_eq!(eval("1 == 1.0\n"), "True");
    }

    #[test]
    fn rng_reseeding_reproduces() {
        let mut i = Interp::new();
        i.set_rng_seed(1234);
        i.run_cell("a = randn(8)\n").expect("runs");
        i.set_rng_seed(1234);
        i.run_cell("b = randn(8)\n").expect("runs");
        let a = i.globals.peek("a").expect("a");
        let b = i.globals.peek("b").expect("b");
        assert!(i.value_eq(a, b), "same seed, same draw");
    }
}
