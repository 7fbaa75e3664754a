//! # kishu-kernel — a simulated computational-notebook kernel
//!
//! Kishu (the paper) runs inside a CPython/Jupyter kernel: it observes a heap
//! of interconnected Python objects reachable from a global namespace, and it
//! patches that namespace to learn which variables each cell execution
//! touched. This crate is the Rust substitute for that substrate. It provides:
//!
//! * a typed **object heap** ([`Heap`]) whose objects carry stable simulated
//!   memory addresses and reference edges to other objects (subscript,
//!   member, and attribute reachability, §4.1 of the paper);
//! * a **paged virtual address space** ([`pages::PageAllocator`]) with
//!   fragmenting allocation and dirty-page tracking, which is what the
//!   CRIU-style OS-level baselines snapshot;
//! * a **patched global namespace** ([`Namespace`]) that records every
//!   get/set/delete of a variable name during a cell execution — the
//!   information Lemma 1 needs to prune co-variable update candidates.
//!
//! Everything higher up (the minipy interpreter, the pickle protocol, Kishu
//! itself, and every baseline) is built against this crate and nothing else,
//! so the whole reproduction shares one notion of "the session state".

pub mod heap;
pub mod namespace;
pub mod object;
pub mod pages;
pub mod simcost;

pub use heap::{Heap, HeapStats, Sweep};
pub use namespace::{AccessRecord, Namespace};
pub use object::{ClassId, External, Function, Instance, ObjId, ObjKind};
pub use pages::{PageAllocator, PAGE_SIZE};
