//! # Bytecode engine for minipy
//!
//! Compiles the minipy AST ([`crate::ast`]) to a compact bytecode
//! ([`instr`]) and executes it on a stack-based VM ([`vm`]). The VM is the
//! default engine; the tree-walking interpreter stays as the differential
//! semantics oracle (select with [`crate::Interp::set_engine`]).
//!
//! ## Parity contract
//!
//! The VM must be *observably identical* to the tree-walker, down to heap
//! allocation order (`ObjId`s are identity for the variable graph, and the
//! session GC triggers on allocation-count deltas). The contract is kept by
//! construction:
//!
//! * every operator, coercion, method dispatch, and error message goes
//!   through the same `Interp` helpers the tree-walker uses (`binop`,
//!   `truthy`, `iterate`, `call_method`, …);
//! * namespace traffic goes through the same `load_global` /
//!   `store_global` / `delete_global` choke points, compiled as dedicated
//!   instructions ([`instr::Instr::LoadGlobal`]-style) rather than
//!   per-AST-node hooks — so access records and observer callbacks match
//!   the patched-namespace semantics byte for byte;
//! * literal constants are *allocated fresh from the pool on every
//!   execution* (the tree allocates per evaluation), and synthetic
//!   allocations (implicit `None` returns, the single `Bool` a comparison
//!   chain produces) are compiled at exactly the points the tree allocates
//!   them.
//!
//! `tests/vm_differential.rs` (repo root) fuzzes random programs through
//! both engines and asserts byte-identical namespaces, reports, and error
//! shapes; `tests/invariant_matrix.rs` runs every session-level scenario
//! on both engines at worker counts `{1,4}`.

pub mod compiler;
pub mod instr;
pub mod module;
pub mod vm;

pub use instr::Instr;
pub use module::{CodeObj, FuncTemplate};
