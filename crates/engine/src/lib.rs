//! # nqpv-engine
//!
//! The batch-verification engine: turns the single-shot verifier of
//! `nqpv-core` into a throughput-oriented subsystem that ingests whole
//! corpora of `.nqpv` sources and verifies them concurrently.
//!
//! Three layers, each usable on its own:
//!
//! * **Jobs** — [`Corpus`] loads many `.nqpv` files (from a directory, a
//!   manifest, or in-memory sources) into independent [`Job`]s, one
//!   session-equivalent proof obligation per file.
//! * **Workers** — [`run_batch`] drives a configurable pool of std
//!   threads over the job queue ([`BatchOptions::jobs`]); every `Session`
//!   run is independent, so jobs parallelise embarrassingly.
//! * **Cache** — [`MemoCache`] is a content-addressed, thread-safe memo
//!   store implementing [`nqpv_core::TransformerCache`]: backward-pass
//!   results for repeated `(subterm, postcondition)` pairs are computed
//!   once per corpus and shared across all workers.
//!
//! Results come back as a structured [`BatchReport`] — per-job
//! [`JobStatus`], wall-clock timings, and cache hit rates — serialisable
//! to JSON ([`BatchReport::to_json`]) or a human summary
//! ([`BatchReport::human_summary`]). The `nqpv batch` subcommand is a
//! thin wrapper over this crate.
//!
//! # Examples
//!
//! ```
//! use nqpv_engine::{BatchOptions, Corpus, run_batch};
//!
//! let corpus = Corpus::from_sources(vec![
//!     ("ok", "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end"),
//!     ("bad", "def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end"),
//! ]);
//! let report = run_batch(&corpus, &BatchOptions::default());
//! assert_eq!(report.verified_jobs(), 1);
//! assert_eq!(report.rejected_jobs(), 1);
//! assert!(report.to_json().contains("\"cache\""));
//! ```

mod cache;
mod corpus;
mod disk;
pub mod faults;
mod pool;
mod report;

pub use cache::{record_cache_metrics, CacheStats, MemoCache};
pub use corpus::{affinity_bin, Corpus, CorpusError, Job};
// Re-exported so downstream consumers of [`JobReport`] (the service
// daemon's verdict events) can name the counterexample payload without a
// direct `nqpv-diagnose` dependency.
pub use disk::{DiskCache, DiskStats, DISK_LAYOUT_VERSION};
pub use nqpv_diagnose::Counterexample;
pub use pool::{
    run_batch, run_job, run_job_isolated, run_job_traced, run_pool, BatchOptions,
    BinnedCorpusSource, JobSource, PoolObserver, SourcedJob,
};
pub use report::{BatchReport, JobReport, JobStatus, ProofReport};
