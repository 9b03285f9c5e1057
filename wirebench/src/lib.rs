//! Wire-level analyst benchmark for `fairank serve`.
//!
//! `run.sh` builds the server and this crate, then runs the `wirebench`
//! binary: it starts the real server as a child process, drives one of
//! three closed-loop analyst workloads over two connections, checks every
//! reply against an in-process reference, and prints the end-to-end
//! metrics. With `--trace 1` it also replays the workload's requests in
//! process and reports a number per layer.

pub mod check;
pub mod replay;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;
