//! The repository benchmark's runner: three workloads driven through the
//! simulator's public entry points, timed end to end and, in a separate
//! traced run, layer by layer.
//!
//! `perfbench/run.py` is the benchmark command; it builds this crate,
//! starts the runner binary once per measurement process, and turns the
//! runner's JSON into the reported metrics.

pub mod digest;
pub mod host;
pub mod measure;
pub mod spans;
pub mod workloads;
