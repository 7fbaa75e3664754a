//! Experiment implementations, one module per paper artifact group.

pub mod checkout;
pub mod checkpoint;
pub mod chunks;
pub mod interp;
pub mod obs;
pub mod pipeline;
pub mod queries;
pub mod restore;
pub mod robustness;
pub mod sweeps;
pub mod tracking;
pub mod workload_tables;
