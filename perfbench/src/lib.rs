//! The NQPV benchmark: three seeded workloads (`grover8`,
//! `corpus-batch`, `daemon-repeat`) whose every verdict is checked
//! against an answer fixed by construction. An untraced run reports the
//! end-to-end metrics; a separate traced run times the calls into each
//! crate's public functions from outside. `BENCHMARK.json` at the
//! repository root declares the metrics; `perfbench/README.md` defines
//! them.

pub mod corpus;
pub mod daemon;
pub mod gen;
pub mod grover;
pub mod layers;
pub mod report;

use report::{complete, Metrics, Tally, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["grover8", "corpus-batch", "daemon-repeat"];

/// Scratch space for generated inputs: `$PERFBENCH_WORK`, else
/// `.bench_work` under the current directory.
pub fn work_root() -> PathBuf {
    std::env::var_os("PERFBENCH_WORK").map_or_else(|| PathBuf::from(".bench_work"), PathBuf::from)
}

/// A finished run: the tally, its metrics (every declared one, in
/// declaration order) and the kernel-thread and worker counts it used.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub kernel_threads: usize,
    pub workers: usize,
}

/// Runs `workload` at full size; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    // Every workload does its work on one thread: at nproc = 2 the kernel
    // sweeps (grover8) and batch workers (corpus-batch) wait on whichever
    // thread a shared host descheduled, and the runs spread about twice
    // as wide.
    let (kernel_threads, workers) = match workload {
        "grover8" => (1, 1),
        "corpus-batch" => (1, corpus::WORKERS),
        "daemon-repeat" => (1, 1),
        _ => return None,
    };
    nqpv_linalg::par::set_kernel_threads(kernel_threads);
    let (tally, measured) = match (workload, traced) {
        ("grover8", false) => grover::run(seed, seconds, grover::QUBITS),
        ("grover8", true) => grover::trace(seed, grover::QUBITS),
        ("corpus-batch", false) => corpus::run(seed, seconds, corpus::JOBS),
        ("corpus-batch", true) => corpus::trace(seed, corpus::JOBS),
        ("daemon-repeat", false) => daemon::run(seed, seconds),
        _ => daemon::trace(seed, seconds),
    };
    let spec: &[(&str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    Some(Outcome {
        tally,
        metrics: complete(spec, measured),
        kernel_threads,
        workers,
    })
}
