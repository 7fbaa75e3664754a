//! `kishu-testkit` — the workspace's in-tree substitute for external
//! utility crates, keeping the build hermetic (zero registry dependencies,
//! compiles fully offline).
//!
//! Modules:
//!
//! * [`rng`] — deterministic, seedable PRNG (splitmix64 seeding feeding
//!   xoshiro256++) with range/shuffle/gaussian helpers; replaces `rand`.
//! * [`prop`] — a minimal property-testing harness: composable generators,
//!   configurable case counts, seed-reported failures, and greedy input
//!   shrinking, with a `proptest!`-compatible-enough macro surface;
//!   replaces `proptest`.
//! * [`json`] — a small JSON value type with serialize/parse; replaces
//!   `serde_json` for checkpoint-graph persistence and report emission.
//! * [`bench`](mod@bench) — a plain timing harness for `harness = false` benches;
//!   replaces `criterion`.
//! * [`hash`] — XXH64 (bytes, f64-slice, and string variants); shared by
//!   VarGraph array hashing, the checkpoint dedup index, and keyed fault
//!   decisions.
//! * [`pool`] — a scoped-thread worker pool returning results in job
//!   order; replaces `rayon`/`threadpool` for the checkpoint pipeline.
//! * [`compress`] — a canonical LZ77-style compressor with a varint +
//!   literal/match token format; replaces `lz4`/`zstd` bindings for the
//!   storage engine's per-chunk compression.
//! * [`minipy_gen`] — a random minipy source-program generator built on
//!   [`prop`], used for differential testing of the tree-walking and
//!   bytecode execution engines.
//!
//! The [`prelude`] mirrors `proptest::prelude` closely enough that porting
//! a suite is a one-line import change.

pub mod bench;
pub mod compress;
pub mod hash;
pub mod json;
pub mod minipy_gen;
pub mod pool;
pub mod prop;
pub mod rng;

/// Drop-in replacement for `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop::{
        any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
        TestCaseResult,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of the `proptest::prelude::prop` module alias, so
    /// `prop::collection::vec(..)` keeps working verbatim.
    pub mod prop {
        pub use crate::prop::collection;
    }
}
