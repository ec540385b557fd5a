//! The worker pool: pulls jobs from an injectable [`JobSource`], verifies
//! them concurrently over a shared memo cache, and streams lifecycle
//! callbacks to a [`PoolObserver`].
//!
//! [`run_batch`] is the classic fixed-corpus entry point: workers take the
//! corpus's jobs in corpus order from one shared cursor, and the final
//! [`BatchReport`] is assembled in that order. Long-running drivers — the
//! `nqpv-service` daemon — implement [`JobSource`] over a live queue
//! instead and observe per-job events as they happen; the pool itself is
//! indifferent to where jobs come from or when the source ends.

use crate::cache::MemoCache;
use crate::corpus::{Corpus, Job};
use crate::report::{BatchReport, JobReport, JobStatus, ProofReport};
use nqpv_core::{Session, VcOptions};
use nqpv_linalg::par;
use nqpv_telemetry::{log as tlog, wall_clock_us, ArgValue, Deadline, Phase, Tracer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for a batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads; `0` picks the machine's available parallelism.
    pub jobs: usize,
    /// Verification options applied to every job.
    pub vc: VcOptions,
    /// Whether to share a [`MemoCache`] across the run.
    pub use_cache: bool,
    /// Optional LRU bound (entries **per cache tier**); `None` sets no
    /// entry bound (the transformer tier still stores only recurring
    /// subterms). Evictions are reported in [`crate::CacheStats`].
    pub cache_cap: Option<usize>,
    /// Optional persistent verdict store layered under the shared cache
    /// (see [`crate::DiskCache`]); ignored when `use_cache` is off.
    pub disk: Option<Arc<crate::DiskCache>>,
    /// Diagnose rejected jobs: run the `nqpv-diagnose` counterexample
    /// extractor on every job with a rejected proof and attach the
    /// witnesses to its [`JobReport`] (the `nqpv batch --explain` mode).
    /// Verdicts are unchanged — diagnosis is evidence, not re-judgement.
    pub explain: bool,
    /// Write one Chrome trace-event JSON file per job into this directory
    /// (`nqpv batch --trace DIR`). Also switches the per-job tracer into
    /// full recording mode; without it only the cheap per-phase
    /// accumulators run.
    pub trace_dir: Option<PathBuf>,
    /// Per-job wall-clock budget (`nqpv batch --job-timeout SECS`). Each
    /// job gets a fresh cooperative [`Deadline`]; expiry is observed at
    /// statement and solver-obligation boundaries and surfaces as
    /// [`JobStatus::Timeout`] — the worker and its cache survive.
    pub job_timeout: Option<Duration>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 0,
            vc: VcOptions::default(),
            use_cache: true,
            cache_cap: None,
            disk: None,
            explain: false,
            trace_dir: None,
            job_timeout: None,
        }
    }
}

impl BatchOptions {
    /// The effective worker count: `jobs`, or available parallelism when
    /// `jobs == 0`, never more than the number of corpus jobs (and at
    /// least 1).
    pub fn effective_workers(&self, n_jobs: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        };
        requested.clamp(1, n_jobs.max(1))
    }
}

/// A scheduled job handed to a pool worker: the job plus the stable slot
/// (submission order) its report is keyed by.
#[derive(Debug, Clone)]
pub struct SourcedJob {
    /// Submission-order slot; reports are keyed by it.
    pub seq: usize,
    /// The job to verify.
    pub job: Job,
    /// Wall-clock epoch microseconds at which the job entered its queue
    /// (`0` = unknown). The worker's tracer turns the gap between this
    /// and pickup into a `queue_wait` span on the job's own timeline.
    pub queued_wall_us: u64,
}

/// Where pool workers pull their jobs from.
///
/// `run_batch` drains a fixed corpus through one; the service daemon
/// implements it over a live priority queue whose `next` blocks until a
/// job arrives or the daemon shuts down. Implementations must be safe to
/// call from many worker threads at once.
pub trait JobSource: Send + Sync {
    /// Hands the next job to `worker`, or `None` to retire that worker.
    /// May block while the source is live but momentarily empty.
    fn next(&self, worker: usize) -> Option<SourcedJob>;
}

/// Lifecycle callbacks emitted by pool workers. All methods default to
/// no-ops; implementations must be thread-safe (callbacks arrive
/// concurrently from all workers).
pub trait PoolObserver: Send + Sync {
    /// A worker picked the job up and is about to verify it.
    fn job_started(&self, seq: usize, job: &Job, worker: usize) {
        let _ = (seq, job, worker);
    }
    /// The job finished; `report` carries verdict, timing and worker.
    fn job_finished(&self, seq: usize, report: &JobReport) {
        let _ = (seq, report);
    }
}

/// The batch-run observer: slots finished reports by sequence number.
struct Collector {
    slots: Mutex<Vec<Option<JobReport>>>,
}

impl PoolObserver for Collector {
    fn job_finished(&self, seq: usize, report: &JobReport) {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())[seq] = Some(report.clone());
    }
}

/// Drives `workers` threads over `source` until it is drained, sharing
/// `cache` across every job. Reports flow **only** through `observer` —
/// nothing is buffered here, so a long-running driver (the service
/// daemon) holds memory proportional to in-flight work, not to every
/// job ever verified. Returns when the source retires all workers.
///
/// Every job runs inside a panic shield ([`run_job_isolated`]): a panic
/// is retried once and then becomes a structured
/// [`JobStatus::Error`] report — a worker thread is never lost to a
/// single bad job. With `job_timeout`, each job attempt is additionally
/// armed with a fresh cooperative deadline.
#[allow(clippy::too_many_arguments)]
pub fn run_pool(
    source: &dyn JobSource,
    workers: usize,
    vc: VcOptions,
    cache: Option<Arc<MemoCache>>,
    observer: &dyn PoolObserver,
    explain: bool,
    trace_dir: Option<&Path>,
    job_timeout: Option<Duration>,
) {
    let workers = workers.max(1);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let cache = cache.clone();
            scope.spawn(move || {
                while let Some(sourced) = source.next(w) {
                    observer.job_started(sourced.seq, &sourced.job, w);
                    tlog::debug(
                        "pool",
                        sourced.job.trace.trace_id,
                        "job picked up",
                        &[("job", &sourced.job.name), ("worker", &w.to_string())],
                    );
                    let report = run_job_isolated(
                        &sourced.job,
                        vc,
                        cache.clone(),
                        w,
                        explain,
                        trace_dir,
                        job_timeout,
                        sourced.queued_wall_us,
                    );
                    observer.job_finished(sourced.seq, &report);
                }
            });
        }
    });
}

/// Renders a caught panic payload for the structured error report.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_job_traced`] behind a panic shield and an optional per-attempt
/// deadline. A panicking job is retried once (transient faults — and the
/// capped `worker_panic` injection site — are absorbed without changing
/// any verdict); a second panic yields a `worker panicked: …`
/// [`JobStatus::Error`] report so the caller's bookkeeping stays intact.
/// Every caught panic bumps `nqpv_jobs_panicked_total`.
///
/// The budget is armed twice: as the cooperative [`Deadline`] observed at
/// statement and solver-obligation boundaries, and as the kernel deadline
/// ([`par::with_job_deadline`]) checked between chunks *inside* the
/// linalg sweeps — so one giant gate application cannot outlive its
/// budget. A [`par::KernelTimeout`] unwind is a timeout, not a fault: it
/// maps straight to [`JobStatus::Timeout`] with no retry.
#[allow(clippy::too_many_arguments)]
pub fn run_job_isolated(
    job: &Job,
    vc: VcOptions,
    cache: Option<Arc<MemoCache>>,
    worker: usize,
    explain: bool,
    trace_dir: Option<&Path>,
    job_timeout: Option<Duration>,
    queued_wall_us: u64,
) -> JobReport {
    let t0 = Instant::now();
    let mut last_panic = String::new();
    for attempt in 0..2u32 {
        let vc = match job_timeout {
            Some(budget) => vc.with_deadline(Deadline::after(budget)),
            None => vc,
        };
        let kernel_deadline = job_timeout.map(|budget| Instant::now() + budget);
        // The panic hook's record names the job's trace, like the
        // pool's own warn below.
        let outcome = tlog::with_trace_id(job.trace.trace_id, || {
            par::with_job_deadline(kernel_deadline, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    job_attempt(
                        job,
                        vc,
                        cache.clone(),
                        worker,
                        explain,
                        trace_dir,
                        queued_wall_us,
                        attempt,
                    )
                }))
            })
        });
        match outcome {
            Ok(report) => return report,
            Err(payload) if payload.is::<par::KernelTimeout>() => {
                nqpv_telemetry::global()
                    .counter(
                        "nqpv_jobs_timed_out_total",
                        "Jobs stopped by their cooperative per-job deadline.",
                        &[],
                    )
                    .inc();
                let secs = t0.elapsed().as_secs_f64();
                let status = JobStatus::Timeout {
                    message: "job deadline exceeded inside a kernel sweep".to_string(),
                };
                tlog::warn(
                    "pool",
                    job.trace.trace_id,
                    "job deadline exceeded inside a kernel sweep",
                    &[("job", &job.name), ("worker", &worker.to_string())],
                );
                nqpv_telemetry::record_job(status.label(), secs, &Default::default());
                return JobReport {
                    name: job.name.clone(),
                    path: job.path.as_ref().map(|p| p.display().to_string()),
                    status,
                    ms: secs * 1e3,
                    worker,
                    counterexamples: Vec::new(),
                    phases: Default::default(),
                    trace_json: None,
                };
            }
            Err(payload) => {
                last_panic = panic_message(payload);
                nqpv_telemetry::global()
                    .counter(
                        "nqpv_jobs_panicked_total",
                        "Jobs whose verification attempt panicked (caught and retried).",
                        &[],
                    )
                    .inc();
                tlog::warn(
                    "pool",
                    job.trace.trace_id,
                    "worker panicked; job will be retried once",
                    &[
                        ("job", &job.name),
                        ("worker", &worker.to_string()),
                        ("attempt", &attempt.to_string()),
                        ("panic", &last_panic),
                    ],
                );
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let status = JobStatus::Error {
        message: format!("worker panicked: {last_panic}"),
    };
    tlog::error(
        "pool",
        job.trace.trace_id,
        "job failed: panicked on both attempts",
        &[("job", &job.name), ("panic", &last_panic)],
    );
    nqpv_telemetry::record_job(status.label(), secs, &Default::default());
    JobReport {
        name: job.name.clone(),
        path: job.path.as_ref().map(|p| p.display().to_string()),
        status,
        ms: secs * 1e3,
        worker,
        counterexamples: Vec::new(),
        phases: Default::default(),
        trace_json: None,
    }
}

/// A drained-once job source over a fixed corpus: workers take jobs in
/// corpus order from one shared cursor.
struct CorpusSource<'a> {
    jobs: &'a [Job],
    next: AtomicUsize,
    /// When the source was built: every batch job is "enqueued" then, and
    /// the gap until a worker claims it is its queue wait.
    queued_wall_us: u64,
}

impl JobSource for CorpusSource<'_> {
    fn next(&self, _worker: usize) -> Option<SourcedJob> {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        self.jobs.get(seq).map(|job| SourcedJob {
            seq,
            job: job.clone(),
            queued_wall_us: self.queued_wall_us,
        })
    }
}

/// Verifies every job of `corpus` on a pool of
/// [`BatchOptions::effective_workers`] threads, sharing one memo cache.
///
/// Job verdicts are deterministic and independent of the worker count:
/// each job runs in its own `Session`, and the shared cache is
/// content-addressed with deterministic values, so interleaving only
/// affects *when* an entry is first computed, never what it contains.
/// The report stays in corpus order.
pub fn run_batch(corpus: &Corpus, options: &BatchOptions) -> BatchReport {
    let t0 = Instant::now();
    let workers = options.effective_workers(corpus.len());
    let cache = options
        .use_cache
        .then(|| Arc::new(MemoCache::layered(options.cache_cap, options.disk.clone())));

    let n = corpus.len();
    let mut slots: Vec<Option<JobReport>> = Vec::new();
    slots.resize_with(n, || None);

    if n > 0 {
        let source = CorpusSource {
            jobs: corpus.jobs(),
            next: AtomicUsize::new(0),
            queued_wall_us: wall_clock_us(),
        };
        let collector = Collector {
            slots: Mutex::new(slots),
        };
        run_pool(
            &source,
            workers,
            options.vc,
            cache.clone(),
            &collector,
            options.explain,
            options.trace_dir.as_deref(),
            options.job_timeout,
        );
        slots = collector
            .slots
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
    }

    let jobs: Vec<JobReport> = slots
        .into_iter()
        .map(|s| s.expect("every job produced a report"))
        .collect();
    let cache_stats = cache.as_ref().map(|c| c.stats());
    if let Some(stats) = &cache_stats {
        crate::cache::record_cache_metrics(stats);
    }
    BatchReport {
        jobs,
        workers,
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        cache: cache_stats,
    }
}

/// Runs one job in a fresh `Session` (sharing `cache` if provided).
/// With `explain`, rejected jobs additionally run the `nqpv-diagnose`
/// counterexample extractor on that session's verification records
/// (no second verify); the witnesses ride along on the report.
pub fn run_job(
    job: &Job,
    vc: VcOptions,
    cache: Option<Arc<MemoCache>>,
    worker: usize,
    explain: bool,
) -> JobReport {
    run_job_traced(job, vc, cache, worker, explain, None)
}

/// [`run_job`] with span tracing: every job gets a fresh per-job
/// [`Tracer`] (phase totals ride along on the [`JobReport`] and feed the
/// process-wide metrics registry); with `trace_dir` the tracer records
/// full spans and a Chrome trace-event JSON file
/// (`<dir>/<job>.trace.json`, `chrome://tracing`/Perfetto-loadable) is
/// written when the job finishes. Jobs carrying an active wire
/// [`TraceContext`](nqpv_telemetry::TraceContext) also record full spans
/// and return them on [`JobReport::trace_json`] for cross-process
/// stitching.
pub fn run_job_traced(
    job: &Job,
    vc: VcOptions,
    cache: Option<Arc<MemoCache>>,
    worker: usize,
    explain: bool,
    trace_dir: Option<&Path>,
) -> JobReport {
    job_attempt(job, vc, cache, worker, explain, trace_dir, 0, 0)
}

/// One verification attempt under a fresh tracer: the instrumented core
/// of [`run_job_traced`] and [`run_job_isolated`]. `queued_wall_us != 0`
/// back-fills a `queue_wait` span (the wait happened before this tracer
/// existed); `attempt > 0` marks a post-panic retry on the timeline.
#[allow(clippy::too_many_arguments)]
fn job_attempt(
    job: &Job,
    vc: VcOptions,
    cache: Option<Arc<MemoCache>>,
    worker: usize,
    explain: bool,
    trace_dir: Option<&Path>,
    queued_wall_us: u64,
    attempt: u32,
) -> JobReport {
    let t0 = Instant::now();
    // Deterministic chaos: the worker_panic site simulates a bug in the
    // verification path itself; the pool's panic shield must absorb it.
    if crate::faults::global().fire(crate::faults::WORKER_PANIC) {
        panic!("injected fault: {}", crate::faults::WORKER_PANIC);
    }
    // Recording turns on for an explicit trace sink (file or wire) and
    // whenever the process-global profile collector is live — the
    // collapsed-stack profile needs full events, not just phase totals.
    let record = trace_dir.is_some() || job.trace.active() || nqpv_telemetry::profile::enabled();
    let tracer = Tracer::create_with(record, job.trace);
    let picked_up_us = wall_clock_us();
    if queued_wall_us != 0 && queued_wall_us <= picked_up_us {
        // The queue wait ended where this worker span begins; record it
        // retroactively on the job's own timeline.
        tracer.record_external(
            Phase::Queue,
            "queue_wait",
            queued_wall_us,
            picked_up_us - queued_wall_us,
            vec![("worker", ArgValue::U64(worker as u64))],
        );
    }
    if vc.deadline.armed() {
        let remaining_us = vc.deadline.remaining().map_or(0, |d| d.as_micros() as u64);
        tracer.record_external(
            Phase::Other,
            "deadline_arm",
            picked_up_us,
            0,
            vec![("remaining_us", ArgValue::U64(remaining_us))],
        );
    }
    if attempt > 0 {
        tracer.record_external(
            Phase::Other,
            "retry_attempt",
            picked_up_us,
            0,
            vec![("attempt", ArgValue::U64(attempt as u64))],
        );
    }
    let vc = vc.with_tracer(tracer);
    let mut session = Session::new()
        .with_options(vc)
        .with_base_dir(job.base_dir.clone());
    if let Some(cache) = cache {
        session = session.with_cache(cache);
    }
    let status = match session.run_str(&job.source) {
        Err(e) if e.is_timeout() => {
            nqpv_telemetry::global()
                .counter(
                    "nqpv_jobs_timed_out_total",
                    "Jobs stopped by their cooperative per-job deadline.",
                    &[],
                )
                .inc();
            JobStatus::Timeout {
                message: e.to_string(),
            }
        }
        Err(e) => JobStatus::Error {
            message: e.to_string(),
        },
        Ok(()) => {
            let proofs: Vec<ProofReport> = session
                .proof_verdicts()
                .iter()
                .map(|(name, verified)| ProofReport {
                    name: name.clone(),
                    verified: *verified,
                })
                .collect();
            if proofs.iter().all(|p| p.verified) {
                JobStatus::Verified { proofs }
            } else {
                JobStatus::Rejected { proofs }
            }
        }
    };
    let counterexamples = if explain && matches!(status, JobStatus::Rejected { .. }) {
        // Diagnosis explains from the session that just verified the job:
        // its records carry each proof's term, outcome and library, so
        // nothing is parsed or verified twice. The cost is paid only on
        // the rejected minority, and a diagnosis failure degrades to "no
        // witness", never to a changed verdict.
        let _span = tracer.span(Phase::Diagnose, "explain");
        nqpv_diagnose::explain_session(&session)
            .map(|report| {
                report
                    .into_iter()
                    .filter_map(|d| d.counterexample)
                    .collect()
            })
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    let secs = t0.elapsed().as_secs_f64();
    let data = tracer.finish().unwrap_or_default();
    if let Some(dir) = trace_dir {
        // Best-effort: a trace-file write failure must never fail the job.
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{}.trace.json", file_stem_safe(&job.name)));
        let _ = std::fs::write(path, data.chrome_json(&job.name));
    }
    nqpv_telemetry::record_job(status.label(), secs, &data);
    tlog::debug(
        "pool",
        job.trace.trace_id,
        "job finished",
        &[
            ("job", &job.name),
            ("status", status.label()),
            ("ms", &format!("{:.3}", secs * 1e3)),
        ],
    );
    // The daemon's half of a cross-process trace: bare wall-clock events
    // the client stitches under the wire trace id.
    let trace_json = job
        .trace
        .active()
        .then(|| data.chrome_events_json(2, &job.name));
    JobReport {
        name: job.name.clone(),
        path: job.path.as_ref().map(|p| p.display().to_string()),
        status,
        ms: secs * 1e3,
        worker,
        counterexamples,
        phases: data.phases,
        trace_json,
    }
}

/// Maps a job name onto a filesystem-safe stem for its trace file.
fn file_stem_safe(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    // Composite (Seq) body so the memo cache participates — leaf-only
    // bodies are recomputed by design.
    const OK: &str = "def pf := proof [q] : { P0[q] }; [q] *= H; [q] *= H; { P0[q] } end";
    const REJECTED: &str = "def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end";
    const BROKEN: &str = "def pf := proof [q] : { Pp[q] }; [q] *= ; { P0[q] } end";
    const LOOPY: &str = "def pf := proof [q] : { I[q] }; [q] := 0; [q] *= H; \
                         { inv : I[q] }; while M01[q] do [q] *= H end; { P0[q] } end";

    fn corpus() -> Corpus {
        Corpus::from_sources(vec![
            ("ok", OK),
            ("rejected", REJECTED),
            ("broken", BROKEN),
            ("loopy", LOOPY),
            ("ok_again", OK),
        ])
    }

    #[test]
    fn statuses_cover_verified_rejected_error() {
        let report = run_batch(&corpus(), &BatchOptions::default());
        assert_eq!(report.verified_jobs(), 3, "{}", report.human_summary());
        assert_eq!(report.rejected_jobs(), 1);
        assert_eq!(report.errored_jobs(), 1);
        let by_name = |n: &str| {
            report
                .jobs
                .iter()
                .find(|j| j.name == n)
                .expect("job present")
        };
        assert!(matches!(by_name("ok").status, JobStatus::Verified { .. }));
        assert!(matches!(
            by_name("rejected").status,
            JobStatus::Rejected { .. }
        ));
        assert!(matches!(by_name("broken").status, JobStatus::Error { .. }));
    }

    #[test]
    fn duplicate_jobs_yield_cache_hits_and_identical_verdicts() {
        // The transformer tier admits a subterm on its second sighting,
        // so the third copy is the first that can hit it.
        let copies = Corpus::from_sources(vec![("ok", OK), ("ok_2", OK), ("ok_3", OK)]);
        let report = run_batch(
            &copies,
            &BatchOptions {
                jobs: 1,
                ..BatchOptions::default()
            },
        );
        let stats = report.cache.expect("cache enabled by default");
        assert!(
            stats.hits >= 1,
            "verifying the same program three times must hit the memo cache: {stats:?}"
        );
        assert!(
            stats.verdict_hits > 0,
            "repeated ⊑_inf queries within a batch must hit the verdict cache: {stats:?}"
        );
        assert_eq!(report.jobs.len(), 3);
        assert!(report
            .jobs
            .iter()
            .all(|j| matches!(j.status, JobStatus::Verified { .. })));
    }

    #[test]
    fn distinct_jobs_store_no_subterms_and_keep_their_verdicts() {
        // 60 distinct programs: three one-qubit gates in a flat sequence
        // (one composite subterm per job) from four preconditions, so no
        // subterm key is offered twice and the doorkeeper admits nothing.
        const GATES: [&str; 6] = ["H", "X", "Y", "Z", "S", "T"];
        const PRES: [&str; 4] = ["P0", "P1", "Pp", "I"];
        let sources: Vec<(String, String)> = (0..60)
            .map(|i| {
                let gates: Vec<String> = [i % 6, i / 6 % 6, i / 36]
                    .iter()
                    .map(|&g| format!("[q] *= {};", GATES[g]))
                    .collect();
                let src = format!(
                    "def pf := proof [q] : {{ {}[q] }}; {} {{ P0[q] }} end",
                    PRES[i % 4],
                    gates.join(" ")
                );
                (format!("job{i:02}"), src)
            })
            .collect();
        let corpus = Corpus::from_sources(sources);
        let cached = run_batch(&corpus, &BatchOptions::default());
        let stats = cached.cache.expect("cache enabled by default");
        assert_eq!(stats.entries, 0, "{stats:?}");
        assert!(stats.misses >= 60, "every job looks its body up: {stats:?}");
        let uncached = run_batch(
            &corpus,
            &BatchOptions {
                use_cache: false,
                ..BatchOptions::default()
            },
        );
        assert_eq!(cached.jobs.len(), 60);
        assert!(cached.verified_jobs() > 0 && cached.rejected_jobs() > 0);
        for (a, b) in cached.jobs.iter().zip(&uncached.jobs) {
            assert_eq!(a.name, b.name);
            // `JobStatus` equality covers the error text and proofs too.
            assert_eq!(a.status, b.status, "{}", a.name);
        }
    }

    #[test]
    fn a_job_rebinding_a_builtin_leaves_later_jobs_on_the_builtin() {
        // Every session starts on one shared builtin library. A job that
        // loads `Z` over `X` rejects this proof, and the jobs around it,
        // which use the builtin `X`, verify it.
        let dir = std::env::temp_dir().join("nqpv_engine_rebind_builtin");
        std::fs::create_dir_all(&dir).unwrap();
        let z = dir.join("z.npy");
        nqpv_linalg::write_matrix(&z, &nqpv_quantum::gates::z()).unwrap();
        const PROOF: &str = "def pf := proof [q] : { P1[q] }; [q] *= X; [q] *= H; [q] *= H; \
                             { P0[q] } end";
        let rebind = format!("def X := load \"{}\" end {PROOF}", z.display());
        let corpus = Corpus::from_sources(vec![
            ("before", PROOF.to_string()),
            ("rebind", rebind),
            ("after", PROOF.to_string()),
        ]);
        for use_cache in [true, false] {
            let report = run_batch(
                &corpus,
                &BatchOptions {
                    jobs: 1,
                    use_cache,
                    ..BatchOptions::default()
                },
            );
            let status = |i: usize| &report.jobs[i].status;
            let summary = report.human_summary();
            assert!(matches!(status(0), JobStatus::Verified { .. }), "{summary}");
            assert!(matches!(status(1), JobStatus::Rejected { .. }), "{summary}");
            assert_eq!(status(2), status(0));
        }
    }

    #[test]
    fn worker_counts_agree_on_every_verdict() {
        let seq = run_batch(
            &corpus(),
            &BatchOptions {
                jobs: 1,
                ..BatchOptions::default()
            },
        );
        let par = run_batch(
            &corpus(),
            &BatchOptions {
                jobs: 4,
                ..BatchOptions::default()
            },
        );
        assert_eq!(par.workers, 4);
        for (a, b) in seq.jobs.iter().zip(&par.jobs) {
            assert_eq!(a.name, b.name, "job order is corpus order");
            assert_eq!(
                a.status.label(),
                b.status.label(),
                "{}: sequential and parallel runs must agree",
                a.name
            );
        }
    }

    #[test]
    fn explain_mode_attaches_counterexamples_to_rejected_jobs_only() {
        let report = run_batch(
            &corpus(),
            &BatchOptions {
                explain: true,
                ..BatchOptions::default()
            },
        );
        for job in &report.jobs {
            match &job.status {
                JobStatus::Rejected { .. } => {
                    assert_eq!(job.counterexamples.len(), 1, "{}", job.name);
                    let cex = &job.counterexamples[0];
                    assert!(cex.confirmed, "{cex:?}");
                    assert!(cex.gap >= 1e-6);
                }
                _ => assert!(job.counterexamples.is_empty(), "{}", job.name),
            }
        }
        // Verdicts are unchanged by diagnosis.
        let plain = run_batch(&corpus(), &BatchOptions::default());
        for (a, b) in report.jobs.iter().zip(&plain.jobs) {
            assert_eq!(a.status.label(), b.status.label(), "{}", a.name);
            assert!(b.counterexamples.is_empty());
        }
        // The JSON report carries the witness payload.
        let json = report.to_json();
        assert!(json.contains("\"counterexamples\": ["), "{json}");
        assert!(json.contains("\"confirmed\":true"), "{json}");
        // And the human summary tells the story inline.
        let text = report.human_summary();
        assert!(text.contains("counterexample for proof"), "{text}");
    }

    #[test]
    fn cache_can_be_disabled() {
        let report = run_batch(
            &corpus(),
            &BatchOptions {
                use_cache: false,
                ..BatchOptions::default()
            },
        );
        assert!(report.cache.is_none());
        assert_eq!(report.verified_jobs(), 3);
    }

    #[test]
    fn traced_job_counts_spans_and_writes_chrome_json() {
        use nqpv_telemetry::Phase;

        let dir = std::env::temp_dir().join("nqpv_engine_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let single = Corpus::from_sources(vec![("ok", OK)]);
        let job = &single.jobs()[0];
        let report = run_job_traced(job, VcOptions::default(), None, 0, false, Some(&dir));
        assert!(matches!(report.status, JobStatus::Verified { .. }));

        // One parse span; one wp span per statement node — OK's body is
        // Seq([Unitary, Unitary]), i.e. 3 nodes; at least one solver
        // obligation (the final precondition comparison).
        assert_eq!(report.phases.get(Phase::Parse).0, 1, "{:?}", report.phases);
        assert_eq!(report.phases.get(Phase::Wp).0, 3, "{:?}", report.phases);
        assert!(
            report.phases.get(Phase::Solver).0 >= 1,
            "{:?}",
            report.phases
        );

        // The trace file is valid Chrome trace-event JSON with nested
        // parse/wp/solver categories.
        let text = std::fs::read_to_string(dir.join("ok.trace.json")).expect("trace written");
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        for cat in ["\"cat\":\"parse\"", "\"cat\":\"wp\"", "\"cat\":\"solver\""] {
            assert!(text.contains(cat), "missing {cat} in {text}");
        }
        assert_eq!(text.matches("\"cat\":\"wp\"").count(), 3, "{text}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                text.matches(open).count(),
                text.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }

        // Untraced runs still accumulate phase totals (cheap mode), and
        // a batch with a trace dir writes one file per job.
        let plain = run_job(job, VcOptions::default(), None, 0, false);
        assert_eq!(plain.phases.get(Phase::Wp).0, 3);
        let report = run_batch(
            &corpus(),
            &BatchOptions {
                trace_dir: Some(dir.clone()),
                ..BatchOptions::default()
            },
        );
        for job in &report.jobs {
            assert!(
                dir.join(format!("{}.trace.json", job.name)).is_file(),
                "{} trace missing",
                job.name
            );
        }
    }

    #[test]
    fn batch_job_traces_resolve_but_render_no_outline() {
        // A batch job verifies but never shows its proof, so its trace
        // holds the resolve span and no outline span.
        let dir = std::env::temp_dir().join("nqpv_engine_outline_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::from_sources(vec![(
            "grover_step",
            include_str!("../../../examples/corpus/grover_step.nqpv"),
        )]);
        let report = run_job_traced(
            &corpus.jobs()[0],
            VcOptions::default(),
            None,
            0,
            false,
            Some(&dir),
        );
        assert!(matches!(report.status, JobStatus::Verified { .. }));
        let text =
            std::fs::read_to_string(dir.join("grover_step.trace.json")).expect("trace written");
        assert_eq!(text.matches("\"name\":\"resolve\"").count(), 1, "{text}");
        assert!(!text.contains("\"name\":\"outline\""), "{text}");
    }

    #[test]
    fn wire_traced_jobs_return_their_daemon_half() {
        use nqpv_telemetry::TraceContext;

        let ctx = TraceContext::mint();
        let single = Corpus::from_sources(vec![("ok", OK)]);
        let job = single.jobs()[0].clone().with_trace(ctx);
        let report = run_job_traced(&job, VcOptions::default(), None, 0, false, None);
        assert!(matches!(report.status, JobStatus::Verified { .. }));
        // An active wire context forces full recording even without a
        // trace dir; the daemon's half comes back as a bare event array.
        let events = report.trace_json.expect("active trace records events");
        assert!(events.starts_with('['), "{events}");
        assert!(events.ends_with(']'), "{events}");
        assert!(events.contains("\"cat\":\"wp\""), "{events}");
        // Untraced jobs pay nothing: no event payload rides the report.
        let plain = run_job_traced(
            &single.jobs()[0],
            VcOptions::default(),
            None,
            0,
            false,
            None,
        );
        assert!(plain.trace_json.is_none());
    }

    #[test]
    fn zero_timeout_maps_jobs_to_timeout_without_losing_workers() {
        let report = run_batch(
            &corpus(),
            &BatchOptions {
                job_timeout: Some(Duration::ZERO),
                ..BatchOptions::default()
            },
        );
        // Every job that parses hits its (already expired) deadline at the
        // first statement boundary; the parse-broken job still reports its
        // structural error — a deadline never masks a real failure.
        assert_eq!(report.timed_out_jobs(), 4, "{}", report.human_summary());
        assert_eq!(report.errored_jobs(), 1);
        let loopy = report
            .jobs
            .iter()
            .find(|j| j.name == "loopy")
            .expect("job present");
        match &loopy.status {
            JobStatus::Timeout { message } => {
                assert!(message.contains("deadline exceeded"), "{message}");
                assert!(message.contains("at "), "partial trajectory: {message}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(loopy.status.label(), "timeout");
        // The JSON report carries the timeout message in the error field.
        let json = report.to_json();
        assert!(json.contains("\"status\": \"timeout\""), "{json}");
        // A generous budget behaves exactly like no budget at all.
        let relaxed = run_batch(
            &corpus(),
            &BatchOptions {
                job_timeout: Some(Duration::from_secs(3600)),
                ..BatchOptions::default()
            },
        );
        let plain = run_batch(&corpus(), &BatchOptions::default());
        for (a, b) in relaxed.jobs.iter().zip(&plain.jobs) {
            assert_eq!(a.status.label(), b.status.label(), "{}", a.name);
        }
    }

    #[test]
    fn effective_workers_clamps_sensibly() {
        let opts = BatchOptions {
            jobs: 8,
            ..BatchOptions::default()
        };
        assert_eq!(opts.effective_workers(3), 3);
        assert_eq!(opts.effective_workers(0), 1);
        let auto = BatchOptions::default();
        assert!(auto.effective_workers(64) >= 1);
    }
}
