//! # kishu-minipy — the cell language of the simulated notebook
//!
//! Kishu's algorithms are exercised by *cell executions*: arbitrary
//! Python code with loops, conditionals, user-defined functions that reach
//! into the global namespace, in-place mutation, and library calls. A
//! reproduction whose "cells" were hard-coded Rust closures could not
//! compare against provenance-based trackers (IPyFlow in Table 6 / Fig 17),
//! because those instrument the *program* — per statement, per symbol
//! resolution. So this crate implements a small Python-like language:
//!
//! * an indentation-aware [`lexer`] and recursive-descent [`parser`]
//!   producing a conventional [`ast`];
//! * a tree-walking [`interp`reter][interp] over the `kishu-kernel` heap,
//!   with Python reference semantics (assignment binds, mutation is
//!   in-place, arguments are references);
//! * a [`bytecode`] compiler + stack VM over the same heap and helpers —
//!   the default engine (`Interp::set_engine(Engine::Tree)` selects the
//!   tree-walker, which is kept as the differential semantics oracle);
//! * global-name resolution routed through the kernel's **patched
//!   namespace**, so every cell's variable accesses are observed exactly as
//!   the paper's Fig 8 describes;
//! * an [`observer`] hook API (per-statement / per-name callbacks) that the
//!   IPyFlow-style baseline uses for live symbol resolution, paying the
//!   instrumentation cost the paper measures;
//! * extension points for the simulated library classes (`kishu-libsim`)
//!   to register constructors and methods.
//!
//! The language is deliberately small (no classes, imports, or
//! comprehensions) but covers every construct the paper's workload
//! characterization (§2.2) leans on.

pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod methods;
pub mod observer;
pub mod parser;
pub mod repr;
pub mod token;
pub mod unparse;

pub use error::{RunError, RunErrorKind};
pub use interp::{CellOutcome, Engine, Interp};
pub use observer::ExecutionObserver;

/// Parse a whole program (sequence of statements), without running it.
pub fn parse_program(src: &str) -> Result<Vec<ast::Stmt>, RunError> {
    parser::Parser::new(src)?.parse_program()
}
