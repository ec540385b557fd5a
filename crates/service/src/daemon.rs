//! The verification daemon: a TCP listener, a connection layer speaking
//! the NDJSON [`crate::proto`] protocol, and the engine worker pool
//! driven by the live [`JobQueue`].
//!
//! # Architecture
//!
//! ```text
//!           accept thread                    pool thread
//!   TcpListener ──► per-conn reader ──┐   ┌────────────────────┐
//!                   per-conn writer ◄─┤   │ run_pool(queue, …) │
//!                                     │   │  worker 0..N       │
//!            Shared ◄─────────────────┴───┤  (MemoCache ⟂ Disk)│
//!   (queue + event hub + counters)        └────────────────────┘
//! ```
//!
//! * Each connection gets a **reader** thread (parses requests, pushes
//!   jobs, answers synchronously) and a **writer** thread (drains the
//!   connection's event channel) — readers never block on slow writers,
//!   and a stalled client cannot stall the pool.
//! * The **event hub** fans job-lifecycle events out to subscribed
//!   connections: submitters are auto-subscribed to their own jobs,
//!   `watch` subscribes to everything. Dead subscribers are pruned on
//!   the next publish.
//! * The **pool thread** is the unchanged `nqpv-engine` worker pool,
//!   pulling from the priority queue through the [`JobSource`](nqpv_engine::JobSource) seam and
//!   reporting through [`PoolObserver`]; the shared [`MemoCache`] may be
//!   layered over a persistent [`DiskCache`], so verdicts survive
//!   restarts and are shared with `nqpv batch --cache-dir` runs.
//! * With `--metrics-addr`, one HTTP thread serves `/metrics` and
//!   `/healthz`. The daemon-owned gauges are refreshed on each scrape
//!   rather than by a background sampler.

use crate::json::Json;
use crate::proto::{verdict_event, Event, QueueStats, Request};
use crate::queue::JobQueue;
use nqpv_core::VcOptions;
use nqpv_engine::{
    faults, record_cache_metrics, run_pool, Corpus, DiskCache, Job, JobReport, JobStatus,
    MemoCache, PoolObserver,
};
use nqpv_telemetry::{log as tlog, profile, HttpResponse, MetricsServer, TraceContext};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection event-queue bound (lines). A client that stops reading
/// fills it and is disconnected — the daemon's memory stays proportional
/// to live, *consuming* subscribers, never to total events streamed.
const SUBSCRIBER_QUEUE_CAP: usize = 4096;

/// Configuration for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7071` (port `0` picks a free one).
    pub addr: String,
    /// Worker threads; `0` picks the machine's available parallelism.
    pub jobs: usize,
    /// Verification options applied to every job.
    pub vc: VcOptions,
    /// Share a memo cache across all jobs (on by default).
    pub use_cache: bool,
    /// Optional per-tier LRU bound for the shared cache.
    pub cache_cap: Option<usize>,
    /// Optional persistent verdict-store directory (see [`DiskCache`]).
    pub cache_dir: Option<PathBuf>,
    /// Admission bound on the job queue (`--max-queue N`): submissions
    /// that would push the backlog past `N` are refused with a
    /// structured `overloaded` event instead of growing the heap without
    /// bound. `None` = unbounded (trusted-network default).
    pub max_queue: Option<usize>,
    /// Diagnose rejected jobs (`--explain`): `verdict` events for
    /// rejected jobs carry a `counterexamples` payload — witness state,
    /// scheduler trace, expectation trajectory — extracted by
    /// `nqpv-diagnose`.
    pub explain: bool,
    /// Optional `/metrics` listen address (`--metrics-addr H:P`, port `0`
    /// picks a free one): serves the process-wide telemetry registry in
    /// Prometheus text-exposition format — job/phase latency histograms,
    /// solver path mix, per-tier cache counters, queue depths per
    /// priority, uptime. `None` (the default) serves nothing.
    pub metrics_addr: Option<String>,
    /// Cooperative per-job deadline (`--job-timeout SECS`): a job still
    /// unverified when its budget expires is stopped at the next
    /// statement/obligation boundary and reported with a `timeout`
    /// verdict. `None` (the default) lets jobs run unbounded.
    pub job_timeout: Option<Duration>,
    /// Bound on a drain shutdown (`--drain-timeout SECS`): how long
    /// `shutdown --drain` waits for the backlog and in-flight jobs to
    /// finish before closing anyway.
    pub drain_timeout: Duration,
    /// Per-connection in-flight bound (`--max-per-client N`): one
    /// client's queued + running jobs may not exceed `N`; excess
    /// submissions are refused whole with a client-scoped `overloaded`
    /// event while other clients keep submitting. `None` = unbounded.
    pub max_per_client: Option<usize>,
    /// Size budget for the persistent verdict store
    /// (`--cache-max-bytes N`): oldest records are evicted at startup
    /// and after writes to keep the store under `N` bytes. `None` =
    /// unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Structured-log threshold (`--log-level L`); events below it are
    /// dropped.
    pub log_level: tlog::Level,
    /// Emit stderr logs as JSON lines (`--log-json`) instead of text.
    pub log_json: bool,
    /// Finished-trace FIFO capacity (`--trace-store N`): how many
    /// traced jobs' daemon-side spans are retained for `trace` fetches;
    /// evictions past the bound count into
    /// `nqpv_trace_store_evicted_total`.
    pub trace_store: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            vc: VcOptions::default(),
            use_cache: true,
            cache_cap: None,
            cache_dir: None,
            max_queue: None,
            explain: false,
            metrics_addr: None,
            job_timeout: None,
            drain_timeout: Duration::from_secs(30),
            max_per_client: None,
            cache_max_bytes: None,
            log_level: tlog::Level::Info,
            log_json: false,
            trace_store: TRACE_STORE_CAP,
        }
    }
}

/// Default capacity of the finished-trace FIFO (`--trace-store`
/// overrides); the oldest entry is evicted beyond this.
const TRACE_STORE_CAP: usize = 256;

/// Bounded FIFO of finished traced jobs' daemon-side Chrome trace
/// events, keyed by job id — the server half a client stitches after its
/// verdict arrives.
struct TraceStore {
    cap: usize,
    map: std::collections::HashMap<u64, (String, String, String)>,
    order: VecDeque<u64>,
}

impl TraceStore {
    fn new(cap: usize) -> TraceStore {
        TraceStore {
            cap: cap.max(1),
            map: std::collections::HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, id: u64, name: String, trace_hex: String, events: String) {
        if self.map.insert(id, (name, trace_hex, events)).is_none() {
            self.order.push_back(id);
        }
        while self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                nqpv_telemetry::global()
                    .counter(
                        "nqpv_trace_store_evicted_total",
                        "Finished traces evicted from the bounded trace store.",
                        &[],
                    )
                    .inc();
                tlog::debug(
                    "daemon",
                    0,
                    "trace store evicted oldest entry",
                    &[("id", &old.to_string())],
                );
            }
        }
    }
}

/// One connection's end of the event hub.
struct Subscriber {
    /// Key into [`Shared::conns`], for force-closing stalled peers.
    conn_id: u64,
    tx: SyncSender<String>,
    /// `watch`ed connections receive every event.
    all: AtomicBool,
    /// Jobs this connection submitted (auto-subscribed).
    ids: Mutex<HashSet<u64>>,
    /// Set when the peer disconnected; pruned on the next publish.
    dead: AtomicBool,
}

impl Subscriber {
    /// Jobs this connection submitted that have not yet finished
    /// (verdicts remove their id) — the `--max-per-client` measure.
    fn inflight(&self) -> usize {
        self.ids.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// State shared by the accept loop, every connection, and the pool.
struct Shared {
    queue: JobQueue,
    subs: Mutex<Vec<Arc<Subscriber>>>,
    cache: Option<Arc<MemoCache>>,
    running: AtomicU64,
    done: AtomicU64,
    /// When the daemon started (the `stats` event's `uptime_ms`).
    started: Instant,
    /// Jobs refused at the `--max-queue` admission bound since start
    /// (jobs, not requests — a refused 10-job corpus counts 10).
    rejected: AtomicU64,
    /// Every priority class that ever queued a job: a drained class keeps
    /// reporting a zero depth gauge, so scrapers see a continuous series
    /// rather than a vanishing one.
    priorities_seen: Mutex<BTreeSet<i64>>,
    /// Jobs whose worker panicked past the pool's one-retry allowance.
    panicked: AtomicU64,
    /// Jobs stopped by the cooperative `--job-timeout` deadline.
    timed_out: AtomicU64,
    /// Queued jobs cancelled because their submitter disconnected.
    cancelled: AtomicU64,
    /// The `--max-per-client` bound, checked at admission.
    max_per_client: Option<usize>,
    /// Wire trace ids (hex) of in-flight traced jobs, keyed by job id.
    pending_traces: Mutex<std::collections::HashMap<u64, String>>,
    /// Finished traced jobs' daemon-side spans, served to `trace`
    /// requests (bounded — see [`TRACE_STORE_CAP`]).
    traces: Mutex<TraceStore>,
    /// Set while a `shutdown --drain` works off the backlog: admissions
    /// are refused, everything else keeps serving.
    draining: AtomicBool,
    /// How long a drain waits before closing anyway.
    drain_timeout: Duration,
    shutdown: AtomicBool,
    /// Read-half handles of live connections, keyed by connection id:
    /// shutdown half-closes them so blocked readers see EOF and their
    /// threads unwind (writers drain naturally — no event is cut off).
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    /// Connection threads, joined at daemon teardown.
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
}

impl Shared {
    /// Queues `line` for one subscriber. A full queue means the peer
    /// stopped reading (`SUBSCRIBER_QUEUE_CAP` lines behind): the
    /// subscriber is marked dead and its socket force-closed, so the
    /// blocked writer thread unwinds with an error instead of the daemon
    /// buffering events without bound. Returns `false` on failure.
    fn offer(&self, sub: &Subscriber, line: String) -> bool {
        match sub.tx.try_send(line) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                sub.dead.store(true, Ordering::Relaxed);
                self.drop_conn(sub.conn_id);
                false
            }
        }
    }

    /// Force-closes a connection's socket (both halves), unblocking its
    /// reader and writer threads.
    fn drop_conn(&self, conn_id: u64) {
        if let Some(c) = self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&conn_id)
        {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Sends `line` to every subscriber interested in job `id` (or to
    /// everyone when `id` is `None`), pruning dead subscribers.
    fn publish(&self, id: Option<u64>, line: &str) {
        let mut subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        subs.retain(|s| !s.dead.load(Ordering::Relaxed));
        for sub in subs.iter() {
            let interested = sub.all.load(Ordering::Relaxed)
                || id.is_none()
                || id.is_some_and(|id| {
                    sub.ids
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .contains(&id)
                });
            if interested {
                self.offer(sub, line.to_string());
            }
        }
    }

    fn queue_stats(&self) -> QueueStats {
        QueueStats {
            queued: self.queue.len() as u64,
            running: self.running.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            rejected: self.rejected.load(Ordering::Relaxed),
            depths: self.queue.depth_by_priority(),
            panicked: self.panicked.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            faults_injected: faults::global().injected(),
        }
    }

    /// Works off the backlog before a `shutdown --drain`: admissions are
    /// refused from the moment the flag is set, then this blocks until
    /// every queued and running job has finished — or the configured
    /// drain deadline passes, whichever comes first. Jobs still pending
    /// at the deadline are dropped by the ordinary shutdown that
    /// follows.
    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        tlog::info(
            "daemon",
            0,
            "drain started: admissions refused, working off backlog",
            &[
                ("queued", &self.queue.len().to_string()),
                ("running", &self.running.load(Ordering::Relaxed).to_string()),
            ],
        );
        let deadline = Instant::now() + self.drain_timeout;
        while (!self.queue.is_empty() || self.running.load(Ordering::Relaxed) > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let leftover = self.queue.len() + self.running.load(Ordering::Relaxed) as usize;
        tlog::info(
            "daemon",
            0,
            if leftover == 0 {
                "drain finished: backlog empty"
            } else {
                "drain deadline passed with jobs still pending"
            },
            &[("pending", &leftover.to_string())],
        );
    }

    /// Readiness for `/healthz`: accepting submissions — neither
    /// draining a backlog nor shutting down.
    fn ready(&self) -> bool {
        !self.draining.load(Ordering::SeqCst) && !self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.close();
            // Half-close every live connection on the read side: blocked
            // reader threads wake with EOF and unwind, while each
            // writer thread still drains its queued events (verdicts in
            // flight, the shutdown reply) before the socket drops.
            let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
    }
}

impl PoolObserver for Shared {
    fn job_started(&self, seq: usize, job: &Job, worker: usize) {
        self.running.fetch_add(1, Ordering::Relaxed);
        if job.trace.active() {
            self.pending_traces
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(seq as u64, job.trace.to_hex());
        }
        let line = Event::Running {
            id: seq as u64,
            name: job.name.clone(),
            worker: worker as u64,
        }
        .to_line();
        self.publish(Some(seq as u64), &line);
    }

    fn job_finished(&self, seq: usize, report: &JobReport) {
        self.running.fetch_sub(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
        match &report.status {
            JobStatus::Timeout { .. } => {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            // The pool reports a job that panicked past its one-retry
            // allowance as an error with this fixed prefix.
            JobStatus::Error { message } if message.starts_with("worker panicked") => {
                self.panicked.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let trace_hex = self
            .pending_traces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(seq as u64));
        if let (Some(hex), Some(events)) = (&trace_hex, &report.trace_json) {
            self.traces
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(seq as u64, report.name.clone(), hex.clone(), events.clone());
        }
        let line = verdict_event(seq as u64, report, trace_hex).to_line();
        self.publish(Some(seq as u64), &line);
        // The job is terminal: drop it from every submitter's
        // subscription, so a connection's id set measures its in-flight
        // jobs (the `--max-per-client` bound) and disconnect-time
        // cancellation only ever sees still-pending ids.
        let subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        for sub in subs.iter() {
            sub.ids
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&(seq as u64));
        }
    }
}

/// A running verification daemon. Dropping the handle does **not** stop
/// it — call [`Daemon::shutdown`] / [`Daemon::join`] (or send the
/// protocol `shutdown` request).
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pool: Option<JoinHandle<()>>,
    metrics: Option<MetricsServer>,
}

impl Daemon {
    /// Binds the listener, spawns the pool and accept threads, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Bind failures, and [`DiskCache::open`] failures (bad directory,
    /// version mismatch) when `cache_dir` is set.
    pub fn start(opts: ServeOptions) -> std::io::Result<Daemon> {
        tlog::init(opts.log_level, opts.log_json);
        // Every job's finished trace folds into the process-global
        // self-time profile from here on — the `profile` request
        // aggregates across jobs since startup.
        profile::enable();
        let disk = match (&opts.cache_dir, opts.use_cache) {
            (Some(dir), true) => Some(Arc::new(DiskCache::open_with_budget(
                dir,
                opts.cache_max_bytes,
            )?)),
            _ => None,
        };
        let cache = opts
            .use_cache
            .then(|| Arc::new(MemoCache::layered(opts.cache_cap, disk)));
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            queue: JobQueue::with_capacity(opts.max_queue),
            subs: Mutex::new(Vec::new()),
            cache,
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            started: Instant::now(),
            rejected: AtomicU64::new(0),
            priorities_seen: Mutex::new(BTreeSet::new()),
            panicked: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            max_per_client: opts.max_per_client,
            pending_traces: Mutex::new(std::collections::HashMap::new()),
            traces: Mutex::new(TraceStore::new(opts.trace_store)),
            draining: AtomicBool::new(false),
            drain_timeout: opts.drain_timeout,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(std::collections::HashMap::new()),
            conn_handles: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
        });

        // Bind the scrape endpoint before spawning any thread: a bad
        // `--metrics-addr` fails the whole start instead of leaving a
        // half-started daemon behind. `/healthz` rides on the same
        // listener.
        let metrics = match &opts.metrics_addr {
            Some(addr) => {
                let shared = Arc::clone(&shared);
                Some(MetricsServer::start_with_routes(
                    addr,
                    move |path| match path {
                        "/" | "/metrics" => Some(HttpResponse::exposition(render_metrics(&shared))),
                        "/healthz" => Some(if shared.ready() {
                            HttpResponse::text(200, "ok\n".to_string())
                        } else {
                            HttpResponse::text(503, "not accepting submissions\n".to_string())
                        }),
                        _ => None,
                    },
                )?)
            }
            None => None,
        };

        let workers = if opts.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            opts.jobs
        };
        let pool = {
            let shared = Arc::clone(&shared);
            let vc = opts.vc;
            let explain = opts.explain;
            let job_timeout = opts.job_timeout;
            std::thread::spawn(move || {
                // The pool outlives every fixed corpus: it drains the live
                // queue until `close()` retires the workers.
                let cache = shared.cache.clone();
                run_pool(
                    &shared.queue,
                    workers,
                    vc,
                    cache,
                    &*shared,
                    explain,
                    None,
                    job_timeout,
                );
            })
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                accept_loop(listener, shared);
            })
        };
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
            pool: Some(pool),
            metrics,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address, when `metrics_addr` was configured
    /// (resolves port `0`).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// Requests shutdown: the queue closes, workers finish their current
    /// jobs and retire, the accept loop exits.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Shuts down (if not already) and waits for every thread to exit.
    pub fn join(mut self) {
        self.shutdown();
        self.wait_threads();
    }

    /// Waits for the daemon to stop **without** initiating shutdown —
    /// it keeps serving until a protocol `shutdown` request (or a
    /// concurrent [`Daemon::shutdown`] call) arrives.
    pub fn wait(mut self) {
        self.wait_threads();
    }

    fn wait_threads(&mut self) {
        if let Some(h) = self.pool.take() {
            let _ = h.join();
        }
        if let Some(m) = self.metrics.take() {
            m.shutdown();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads unwind once shutdown half-closes their
        // sockets (and their writers drain); join them so an embedded
        // daemon leaks nothing.
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .shared
                .conn_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Runs the daemon until a protocol `shutdown` arrives, then drains and
/// exits — the `nqpv serve` entry point. Prints one `listening` line to
/// stdout so scripts can wait for readiness.
///
/// # Errors
///
/// Same as [`Daemon::start`].
pub fn serve_blocking(opts: ServeOptions) -> std::io::Result<()> {
    let daemon = Daemon::start(opts)?;
    // A reader that has gone only misses the banner; the daemon serves on.
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "nqpv-service listening on {}", daemon.local_addr());
    if let Some(addr) = daemon.metrics_addr() {
        let _ = writeln!(
            stdout,
            "nqpv-service metrics on http://{addr}/metrics (also /healthz)"
        );
    }
    let _ = stdout.flush();
    drop(stdout);
    daemon.wait();
    Ok(())
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Event lines are small and latency-sensitive.
                let _ = stream.set_nodelay(true);
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(conn_id, clone);
                }
                let shared_conn = Arc::clone(&shared);
                let handle =
                    std::thread::spawn(move || handle_connection(stream, shared_conn, conn_id));
                shared
                    .conn_handles
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                reap_finished(&shared);
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Joins connection threads that have already exited, so a long-lived
/// daemon's handle list tracks live connections, not every connection
/// ever accepted.
fn reap_finished(shared: &Shared) {
    let mut handles = shared
        .conn_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>, conn_id: u64) {
    // Closes the race with a concurrent shutdown: if the flag was set
    // after the accept but before (or during) the half-close sweep saw
    // our registration, bail out here instead of blocking on a socket
    // nobody will ever close.
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.drop_conn(conn_id);
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        shared.drop_conn(conn_id);
        return;
    };
    let (tx, rx) = sync_channel::<String>(SUBSCRIBER_QUEUE_CAP);
    let sub = Arc::new(Subscriber {
        conn_id,
        tx,
        all: AtomicBool::new(false),
        ids: Mutex::new(HashSet::new()),
        dead: AtomicBool::new(false),
    });
    shared
        .subs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&sub));

    // Writer: drains the event channel onto the socket; exits when the
    // channel closes (reader gone + hub pruned) or the peer breaks.
    let writer = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(write_half);
        for line in rx {
            if out.write_all(line.as_bytes()).is_err()
                || out.write_all(b"\n").is_err()
                || out.flush().is_err()
            {
                break;
            }
        }
    });

    // Reader: one request per line.
    let reader = BufReader::new(&stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match Request::parse(&line) {
            Err(message) => Event::Error { message },
            Ok(req) => {
                // Chaos site: the daemon loses this connection on submit
                // receipt, *before* any job is queued — a retrying
                // client resubmits without ever duplicating work.
                if matches!(
                    req,
                    Request::Submit { .. } | Request::SubmitPath { .. } | Request::SubmitDir { .. }
                ) && faults::global().fire(faults::CONN_DROP)
                {
                    shared.drop_conn(conn_id);
                    break;
                }
                let drain = matches!(req, Request::Shutdown { drain: true });
                let is_shutdown = matches!(req, Request::Shutdown { .. });
                let reply = handle_request(req, &sub, &shared);
                if is_shutdown {
                    // A drain works off the backlog first (bounded by
                    // the drain deadline) while every other connection
                    // keeps streaming its verdicts; only then does the
                    // reply go out and the daemon close.
                    if drain {
                        shared.drain();
                    }
                    shared.offer(&sub, reply.to_line());
                    shared.begin_shutdown();
                    break;
                }
                reply
            }
        };
        if !shared.offer(&sub, reply.to_line()) {
            break;
        }
    }

    // Reader done: cancel the connection's still-queued jobs (its id set
    // holds exactly the not-yet-finished ones — nobody is left to read
    // their verdicts), then mark the subscriber dead, prune it from the
    // hub, and drop our own handle — once every `tx` clone is gone the
    // writer's channel closes and it drains out. Joining *before*
    // dropping `sub` would deadlock on our own sender. Running jobs
    // finish on their own; `cancel` only touches the backlog.
    let pending: Vec<u64> = sub
        .ids
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .copied()
        .collect();
    let cancelled = shared.queue.cancel(&pending);
    if cancelled > 0 {
        shared
            .cancelled
            .fetch_add(cancelled as u64, Ordering::Relaxed);
        tlog::info(
            "daemon",
            0,
            "cancelled queued jobs of a disconnected client",
            &[
                ("conn", &conn_id.to_string()),
                ("cancelled", &cancelled.to_string()),
            ],
        );
    }
    sub.dead.store(true, Ordering::Relaxed);
    shared
        .subs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|s| !s.dead.load(Ordering::Relaxed));
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
    drop(sub);
    let _ = writer.join();
}

fn handle_request(req: Request, sub: &Arc<Subscriber>, shared: &Arc<Shared>) -> Event {
    match req {
        Request::Ping => Event::Pong,
        Request::Shutdown { .. } => Event::ShuttingDown,
        Request::Watch => {
            sub.all.store(true, Ordering::Relaxed);
            Event::Watching
        }
        Request::Stats => Event::Stats {
            queue: shared.queue_stats(),
            cache: shared.cache.as_ref().map(|c| c.stats()),
        },
        Request::Submit {
            name,
            source,
            priority,
            trace,
        } => submit_jobs(
            with_trace(
                vec![Job::new(name, None, source, PathBuf::from("."))],
                &trace,
            ),
            priority,
            sub,
            shared,
        ),
        Request::SubmitPath {
            path,
            priority,
            trace,
        } => {
            let path = PathBuf::from(path);
            match Corpus::from_paths(&[path]) {
                Err(e) => Event::Error {
                    message: e.to_string(),
                },
                Ok(corpus) => submit_jobs(
                    with_trace(corpus.jobs().to_vec(), &trace),
                    priority,
                    sub,
                    shared,
                ),
            }
        }
        Request::SubmitDir {
            path,
            priority,
            trace,
        } => {
            let path = PathBuf::from(path);
            let corpus = if path.is_dir() {
                Corpus::from_dir(&path)
            } else {
                Corpus::from_manifest(&path)
            };
            match corpus {
                Err(e) => Event::Error {
                    message: e.to_string(),
                },
                Ok(corpus) => submit_jobs(
                    with_trace(corpus.jobs().to_vec(), &trace),
                    priority,
                    sub,
                    shared,
                ),
            }
        }
        Request::Trace { id } => {
            let traces = shared.traces.lock().unwrap_or_else(|e| e.into_inner());
            match traces.map.get(&id) {
                Some((name, trace_hex, events)) => Event::Trace {
                    id,
                    name: name.clone(),
                    trace: trace_hex.clone(),
                    events: Json::parse(events).unwrap_or(Json::Arr(Vec::new())),
                },
                None => Event::Error {
                    message: format!(
                        "no trace for job {id} (unknown, unfinished, untraced, or evicted)"
                    ),
                },
            }
        }
        Request::Profile => {
            let prof = profile::global();
            Event::Profile {
                jobs: prof.jobs(),
                collapsed: prof.render(),
            }
        }
    }
}

/// Attaches a wire-propagated trace context to every job of a
/// submission. An unparseable id is ignored (the job just runs
/// untraced) — observability must never refuse work.
fn with_trace(jobs: Vec<Job>, trace: &Option<String>) -> Vec<Job> {
    let Some(ctx) = trace.as_deref().and_then(TraceContext::from_hex) else {
        return jobs;
    };
    jobs.into_iter().map(|j| j.with_trace(ctx)).collect()
}

/// Queues `jobs`, auto-subscribes the submitter, publishes `queued`
/// events, and builds the `accepted` reply. Admission is all-or-nothing
/// against the queue's `--max-queue` bound: an over-capacity submission
/// is refused whole with a structured `overloaded` event before any id
/// is allocated or any event published.
fn submit_jobs(
    jobs: Vec<Job>,
    priority: i64,
    sub: &Arc<Subscriber>,
    shared: &Arc<Shared>,
) -> Event {
    if shared.draining.load(Ordering::SeqCst) {
        tlog::info(
            "daemon",
            0,
            "submission refused: daemon is draining",
            &[("jobs", &jobs.len().to_string())],
        );
        return Event::Error {
            message: "daemon is draining — not accepting new jobs".to_string(),
        };
    }
    // The per-client bound first: one greedy connection is refused (a
    // client-scoped `overloaded`, `max_queue` = its own bound) without
    // consuming global admission capacity other clients could use.
    if let Some(cap) = shared.max_per_client {
        let inflight = sub.inflight();
        if inflight + jobs.len() > cap {
            shared
                .rejected
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            tlog::warn(
                "daemon",
                0,
                "submission refused at the per-client bound",
                &[
                    ("inflight", &inflight.to_string()),
                    ("bound", &cap.to_string()),
                    ("jobs", &jobs.len().to_string()),
                ],
            );
            return Event::Overloaded {
                queued: inflight as u64,
                max_queue: cap as u64,
                rejected: jobs.len() as u64,
            };
        }
    }
    let ids = match shared.queue.try_reserve_batch(jobs.len()) {
        Ok(ids) => ids,
        Err(over) => {
            shared
                .rejected
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            tlog::warn(
                "daemon",
                0,
                "submission refused at the --max-queue admission bound",
                &[
                    ("queued", &over.queued.to_string()),
                    ("max_queue", &over.max_queue.to_string()),
                    ("jobs", &jobs.len().to_string()),
                ],
            );
            return Event::Overloaded {
                queued: over.queued as u64,
                max_queue: over.max_queue as u64,
                rejected: jobs.len() as u64,
            };
        }
    };
    shared
        .priorities_seen
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(priority);
    let mut accepted = Vec::with_capacity(jobs.len());
    for (id, job) in ids.into_iter().zip(jobs) {
        let name = job.name.clone();
        tlog::debug(
            "daemon",
            job.trace.trace_id,
            "job admitted",
            &[
                ("id", &id.to_string()),
                ("job", &name),
                ("priority", &priority.to_string()),
            ],
        );
        // Reserve → subscribe → announce → publish: the job only becomes
        // poppable after the submitter is subscribed, so `running` /
        // `verdict` events can never race past the subscription.
        sub.ids.lock().unwrap_or_else(|e| e.into_inner()).insert(id);
        let line = Event::Queued {
            id,
            name: name.clone(),
            priority,
        }
        .to_line();
        shared.publish(Some(id), &line);
        if !shared.queue.push_reserved(id, job, priority) {
            return Event::Error {
                message: "daemon is shutting down".to_string(),
            };
        }
        accepted.push((id, name));
    }
    Event::Accepted { jobs: accepted }
}

/// Renders one `/metrics` scrape: refreshes the daemon-owned gauges and
/// monotone mirrors (queue depths, uptime, rejected jobs, cache tiers)
/// in the process-wide registry, then renders everything — including the
/// job/phase/solver series the worker pool records on its own.
fn render_metrics(shared: &Shared) -> String {
    refresh_sampled_gauges(shared);
    nqpv_telemetry::global().render()
}

/// Refreshes the daemon-owned gauges/mirrors in the process registry.
/// Called on every `/metrics` scrape, so gauges read current values
/// without a background thread.
fn refresh_sampled_gauges(shared: &Shared) {
    let reg = nqpv_telemetry::global();
    let stats = shared.queue_stats();
    reg.gauge(
        "nqpv_uptime_seconds",
        "Seconds since the daemon started.",
        &[],
    )
    .set((stats.uptime_ms / 1000) as i64);
    reg.gauge("nqpv_jobs_running", "Jobs currently on a worker.", &[])
        .set(stats.running as i64);
    reg.counter(
        "nqpv_jobs_rejected_total",
        "Jobs refused at the --max-queue admission bound.",
        &[],
    )
    .record_total(stats.rejected);
    reg.counter(
        "nqpv_jobs_cancelled_total",
        "Queued jobs cancelled because their submitter disconnected.",
        &[],
    )
    .record_total(stats.cancelled);
    // Per-priority queue depths. A priority class keeps reporting (at
    // zero) after it drains, so scrapers see a continuous series rather
    // than a vanishing one.
    const DEPTH: &str = "nqpv_queue_depth";
    const DEPTH_HELP: &str = "Jobs waiting in the queue, by priority class.";
    let mut seen = shared
        .priorities_seen
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    seen.extend(stats.depths.iter().map(|(p, _)| *p));
    for &p in seen.iter() {
        let depth = stats
            .depths
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(0, |(_, d)| *d);
        reg.gauge(DEPTH, DEPTH_HELP, &[("priority", &p.to_string())])
            .set(depth as i64);
    }
    drop(seen);
    if let Some(cache) = &shared.cache {
        record_cache_metrics(&cache.stats());
    }
}
