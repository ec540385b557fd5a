//! `corpus-batch`: thousands of distinct small `.nqpv` jobs through
//! `nqpv_engine::run_batch` with one worker, kernel threads 1 and
//! `explain: true`. Each job's expected verdict comes from its generator.

use crate::gen::{self, Expect, GenJob};
use crate::layers::{replay_source, timed, Stages};
use crate::report::{
    cache_metrics, median, peak_rss_mb, quantile, Metrics, SolverCounters, Tally, QUIET,
};
use nqpv_core::{Session, VcOptions};
use nqpv_engine::{run_batch, BatchOptions, BatchReport, Corpus, JobStatus};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Jobs per generated corpus.
pub const JOBS: usize = 1500;
/// Batch workers: one, not `nproc`. On the 2-core reference host two
/// workers gave ~1.4x the jobs/s of one but spread two to three times as
/// wide from run to run, following whichever core the host's other
/// tenants were using.
pub const WORKERS: usize = 1;
/// Set-ups before the timed phase; one more follows each batch, and
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;
/// Jobs replayed stage by stage in the traced run.
const TRACE_SAMPLE: usize = 400;
/// Alternations of batch and serial replay for the engine overhead.
const OVERHEAD_REPS: usize = 3;

/// Generates a corpus of `n` jobs, writes the operators its sources load
/// into a fresh `dir`, and hands the sources to the engine in memory.
pub fn setup(seed: u64, n: usize, dir: &Path) -> (Vec<GenJob>, Corpus) {
    let generated = gen::corpus(seed, n, &dir.to_string_lossy());
    std::fs::create_dir_all(dir).expect("work directory is writable");
    for (file, m) in &generated.npy {
        nqpv_linalg::write_matrix(dir.join(file), m).expect("operator file is writable");
    }
    let corpus = Corpus::from_sources(
        generated
            .jobs
            .iter()
            .map(|j| (j.name.clone(), j.source.clone()))
            .collect(),
    );
    (generated.jobs, corpus)
}

/// Checks every report against its known answer; a missing report is a
/// lost job.
pub fn check(report: &BatchReport, expected: &HashMap<&str, Expect>) -> Tally {
    let mut tally = Tally::default();
    let by_name: HashMap<&str, &JobStatus> = report
        .jobs
        .iter()
        .map(|j| (j.name.as_str(), &j.status))
        .collect();
    for (name, want) in expected {
        let ok = by_name.get(name).is_some_and(|s| s.label() == want.label());
        tally.record(ok);
    }
    tally
}

fn options(workers: usize) -> BatchOptions {
    BatchOptions {
        jobs: workers,
        explain: true,
        ..BatchOptions::default()
    }
}

pub fn work_dir(seed: u64) -> PathBuf {
    crate::work_root().join(format!("corpus-{seed}"))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, n: usize) -> (Tally, Metrics) {
    let root = work_dir(seed);
    let _ = std::fs::remove_dir_all(&root);
    // Each set-up writes a fresh directory, so none of them times the
    // removal or overwriting of another's files.
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let s = setup(seed, n, &root.join(format!("setup{}", setups.len())));
        setups.push(t0.elapsed().as_secs_f64());
        s
    };
    let (jobs, corpus) = (0..SETUP_REPS)
        .map(|_| timed_setup())
        .last()
        .expect("at least one set-up");
    let expected: HashMap<&str, Expect> =
        jobs.iter().map(|j| (j.name.as_str(), j.expect)).collect();
    let mut tally = Tally::default();
    // Each batch is one window (see `QUIET`).
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let t0 = Instant::now();
    while rates.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let report = run_batch(&corpus, &options(WORKERS));
        tally.merge(check(&report, &expected));
        rates.push(report.jobs.len() as f64 / (report.total_ms / 1e3));
        p50s.push(median(
            &report.jobs.iter().map(|j| j.ms).collect::<Vec<_>>(),
        ));
        // One more set-up after each batch, so that `setup_s` samples the
        // whole run and not only the host's first seconds.
        timed_setup();
    }
    let _ = std::fs::remove_dir_all(&root);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("jobs_per_s", quantile(&rates, 1.0 - QUIET), "1/s");
    m.put("latency_p50_ms", quantile(&p50s, QUIET), "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    (tally, m)
}

/// The traced run: per-layer metrics.
pub fn trace(seed: u64, n: usize) -> (Tally, Metrics) {
    let dir = work_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    let (jobs, corpus) = setup(seed, n, &dir);
    let expected: HashMap<&str, Expect> =
        jobs.iter().map(|j| (j.name.as_str(), j.expect)).collect();
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // The plain batch: cache, busy time and solver path mix. A first,
    // untimed batch grows the heap so that later batches compare warm.
    tally.merge(check(&run_batch(&corpus, &options(WORKERS)), &expected));
    let before = SolverCounters::read();
    let plain = run_batch(&corpus, &options(WORKERS));
    tally.merge(check(&plain, &expected));
    SolverCounters::read().delta_metrics(&before, &mut m);
    cache_metrics(plain.cache.as_ref(), &mut m);
    let busy: f64 = plain.jobs.iter().map(|j| j.ms).sum();
    m.put(
        "engine.worker_busy_pct",
        100.0 * busy / (plain.workers as f64 * plain.total_ms),
        "%",
    );

    // Engine overhead: one worker, no cache, against a serial replay of
    // the same session and diagnosis calls, alternated on a sub-corpus;
    // the fastest of each side bounds the noise.
    let sub = Corpus::from_sources(
        jobs.iter()
            .take(TRACE_SAMPLE)
            .map(|j| (j.name.clone(), j.source.clone()))
            .collect(),
    );
    let sub_expected: HashMap<&str, Expect> = jobs
        .iter()
        .take(TRACE_SAMPLE)
        .map(|j| (j.name.as_str(), j.expect))
        .collect();
    let (mut batch_ms, mut replay_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..OVERHEAD_REPS {
        let serial = run_batch(
            &sub,
            &BatchOptions {
                use_cache: false,
                ..options(1)
            },
        );
        tally.merge(check(&serial, &sub_expected));
        batch_ms = batch_ms.min(serial.total_ms);
        let (_, ms) = timed(|| {
            for job in sub.jobs() {
                let mut session = Session::new().with_base_dir(job.base_dir.clone());
                let rejected = session.run_str(&job.source).is_ok()
                    && session.proof_verdicts().iter().any(|(_, ok)| !ok);
                if rejected {
                    let _ = nqpv_diagnose::explain_source(
                        &job.source,
                        &job.base_dir,
                        VcOptions::default(),
                    );
                }
            }
        });
        replay_ms = replay_ms.min(ms);
    }
    m.put(
        "engine.overhead_ms_per_job",
        (batch_ms - replay_ms) / sub.len() as f64,
        "ms",
    );

    // Stage split on the same sample.
    let mut st = Stages::default();
    for job in sub.jobs() {
        replay_source(&job.source, &job.base_dir, VcOptions::default(), &mut st);
    }
    st.metrics(&mut m);

    // Telemetry overhead: the same batch with every job's spans recorded
    // (the process-wide profile collector switches recording on and has
    // no off switch, so this runs last), against the faster of two plain
    // batches.
    let plain_ms = plain.total_ms.min({
        let again = run_batch(&corpus, &options(WORKERS));
        tally.merge(check(&again, &expected));
        again.total_ms
    });
    nqpv_telemetry::profile::enable();
    let recorded = run_batch(&corpus, &options(WORKERS));
    tally.merge(check(&recorded, &expected));
    m.put(
        "trace_overhead_pct",
        100.0 * (recorded.total_ms - plain_ms) / plain_ms,
        "%",
    );
    let _ = std::fs::remove_dir_all(&dir);
    (tally, m)
}
