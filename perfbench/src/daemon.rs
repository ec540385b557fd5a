//! `daemon-repeat`: an in-process `service::Daemon` with one worker on
//! loopback, driven by an open loop of seeded Poisson arrivals over one
//! connection (one sender thread, one reader thread). Submissions are
//! drawn from a pool of small programs, so most repeat byte-for-byte and
//! the engine's memo and verdict caches do the work.

use crate::gen::{self, Expect, GenJob};
use crate::layers::{replay_source, Stages};
use crate::report::{
    cache_metrics, median, peak_rss_mb, quantile, Metrics, SolverCounters, Tally, QUIET,
};
use nqpv_service::{Daemon, Event, Request, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// The fixed open-loop rate (jobs/s): about half the single-worker
/// capacity (~5000 jobs/s) measured on the reference host.
pub const RATE: f64 = 2500.0;
/// The latency limit the rate ladder holds p99 to: about 5× the p99 of
/// the fixed-rate phase on the reference host, where p99 climbs steeply
/// towards capacity, so the crossing moves little with host noise.
pub const LIMIT_MS: f64 = 10.0;
/// Programs in the submission pool.
pub const POOL: usize = 16;
/// Rate-ladder steps, as multiples of [`RATE`].
const LADDER: [f64; 8] = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4];
/// Jobs per p99 window: 10 lie beyond each window's p99.
pub const WINDOW: usize = 1000;
/// Fewest jobs per ladder step.
const STEP_JOBS: usize = 2 * WINDOW;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// How long a phase waits for stragglers before counting them lost.
const GRACE: Duration = Duration::from_secs(5);

/// One job of an open-loop phase; times in seconds from the phase start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub due: f64,
    pub sent: f64,
    pub received: Option<f64>,
    /// Worker time the daemon reports on the verdict.
    pub server_ms: f64,
    pub ok: bool,
}

impl Sample {
    /// Scheduled send to verdict receipt.
    pub fn latency_ms(&self) -> Option<f64> {
        self.received.map(|r| (r - self.due) * 1e3)
    }
}

#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub queue_depth_max: u64,
    /// Last verdict receipt, seconds from the phase start.
    pub wall: f64,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().filter_map(Sample::latency_ms).collect()
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.samples {
            t.record(s.ok && s.received.is_some());
        }
        t
    }
}

/// A started daemon and one client connection.
pub struct Harness {
    daemon: Daemon,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pool: Vec<GenJob>,
    phases: usize,
}

/// Starts the daemon (one worker), connects, and warms its caches with
/// one pass over the pool.
pub fn start(seed: u64) -> Harness {
    let pool = gen::pool(seed, POOL);
    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        log_level: nqpv_telemetry::log::Level::Warn,
        ..ServeOptions::default()
    })
    .expect("daemon binds a loopback port");
    let writer = TcpStream::connect(daemon.local_addr()).expect("daemon accepts");
    writer.set_nodelay(true).expect("socket option");
    writer
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("socket option");
    let reader = BufReader::new(writer.try_clone().expect("socket clone"));
    let mut h = Harness {
        daemon,
        writer,
        reader,
        pool,
        phases: 0,
    };
    let warm: Vec<(f64, usize)> = (0..POOL).map(|i| (0.0, i)).collect();
    h.phase(&warm, false, 0);
    h
}

impl Harness {
    pub fn pool(&self) -> &[GenJob] {
        &self.pool
    }

    /// Runs one open-loop phase over `schedule` (send offsets in seconds,
    /// pool indices). With `traced`, submissions carry a wire trace id;
    /// with `stats_every > 0` the sender also asks for queue statistics
    /// every that many jobs.
    pub fn phase(&mut self, schedule: &[(f64, usize)], traced: bool, stats_every: usize) -> Phase {
        let tag = self.phases;
        self.phases += 1;
        let pool = &self.pool;
        let stats_line = format!("{}\n", Request::Stats.to_line()).into_bytes();
        let expect: Vec<Expect> = schedule.iter().map(|(_, k)| self.pool[*k].expect).collect();
        let prefix = format!("p{tag}j");
        let n = schedule.len();
        let start = Instant::now() + Duration::from_millis(10);
        let writer = &mut self.writer;
        let reader = &mut self.reader;

        let (sent, (received, depth)) = std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                let mut sent = Vec::with_capacity(n);
                for (i, (due, k)) in schedule.iter().enumerate() {
                    let req = Request::Submit {
                        name: format!("p{tag}j{i}"),
                        source: pool[*k].source.clone(),
                        priority: 0,
                        trace: traced.then(|| nqpv_telemetry::TraceContext::mint().to_hex()),
                    };
                    let line = format!("{}\n", req.to_line());
                    wait_until(start + Duration::from_secs_f64(*due));
                    sent.push(start.elapsed().as_secs_f64());
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                    if stats_every > 0 && i % stats_every == stats_every - 1 {
                        let _ = writer.write_all(&stats_line);
                    }
                }
                sent
            });
            let receiver = scope.spawn(move || {
                let mut got: Vec<Option<(f64, f64, String)>> = vec![None; n];
                let mut count = 0;
                let mut depth = 0u64;
                let mut buf = Vec::new();
                let last_due = schedule.last().map_or(0.0, |(t, _)| *t);
                let deadline = start + Duration::from_secs_f64(last_due) + GRACE;
                while count < n && Instant::now() < deadline {
                    match reader.read_until(b'\n', &mut buf) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(_) => continue, // read timeout: keep the partial line
                    }
                    let at = start.elapsed().as_secs_f64();
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    buf.clear();
                    if !(line.contains("\"verdict\"") || line.contains("\"stats\"")) {
                        continue;
                    }
                    match Event::parse(line.trim()) {
                        Ok(Event::Verdict(v)) => {
                            let Some(i) = v
                                .name
                                .strip_prefix(&prefix)
                                .and_then(|s| s.parse::<usize>().ok())
                            else {
                                continue;
                            };
                            if i < n && got[i].is_none() {
                                got[i] = Some((at, v.ms, v.status));
                                count += 1;
                            }
                        }
                        Ok(Event::Stats { queue, .. }) => depth = depth.max(queue.queued),
                        _ => {}
                    }
                }
                (got, depth)
            });
            (
                sender.join().expect("sender thread"),
                receiver.join().expect("reader thread"),
            )
        });

        let samples: Vec<Sample> = schedule
            .iter()
            .enumerate()
            .map(|(i, (due, _))| {
                let r = received[i].as_ref();
                Sample {
                    due: *due,
                    sent: sent.get(i).copied().unwrap_or(f64::NAN),
                    received: r.map(|x| x.0),
                    server_ms: r.map_or(0.0, |x| x.1),
                    ok: r.is_some_and(|x| x.2 == expect[i].label()),
                }
            })
            .collect();
        let wall = samples
            .iter()
            .filter_map(|s| s.received)
            .fold(0.0, f64::max);
        Phase {
            samples,
            queue_depth_max: depth,
            wall,
        }
    }

    /// The daemon's cache counters, through the protocol `stats` request.
    pub fn cache_stats(&mut self) -> Option<nqpv_engine::CacheStats> {
        self.writer
            .write_all(format!("{}\n", Request::Stats.to_line()).as_bytes())
            .ok()?;
        let deadline = Instant::now() + GRACE;
        let mut buf = Vec::new();
        while Instant::now() < deadline {
            if self.reader.read_until(b'\n', &mut buf).is_err() {
                continue;
            }
            let line = String::from_utf8_lossy(&buf).into_owned();
            buf.clear();
            if let Ok(Event::Stats { cache, .. }) = Event::parse(line.trim()) {
                return cache;
            }
        }
        None
    }

    /// Stops the daemon and joins every thread it started.
    pub fn stop(self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        drop(self.reader);
        self.daemon.join();
    }
}

/// Sleeps until `at`. No spinning: on a small host a spinning sender
/// would take the CPU the daemon's threads need; the sleep's overshoot is
/// lateness, which latency measured from the schedule includes.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// The median over consecutive [`WINDOW`]-job windows (in arrival order)
/// of each window's p99: one stall inflates one window, not the run.
pub fn windowed_p99(lat: &[f64]) -> f64 {
    let per: Vec<f64> = lat
        .chunks_exact(WINDOW)
        .map(|w| quantile(w, 0.99))
        .collect();
    if per.is_empty() {
        quantile(lat, 0.99)
    } else {
        median(&per)
    }
}

/// Jobs a phase of `secs` at `rate` needs, at least `min`.
fn jobs_for(rate: f64, secs: f64, min: usize) -> usize {
    ((rate * secs) as usize).max(min)
}

/// Pool-adjacent-violators: the non-decreasing sequence closest to `v`
/// in least squares.
pub fn isotonic(v: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &x in v {
        blocks.push((x, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (b, nb) = blocks.pop().expect("two blocks");
            let (a, na) = blocks.pop().expect("two blocks");
            blocks.push(((a * na as f64 + b * nb as f64) / (na + nb) as f64, na + nb));
        }
    }
    blocks
        .iter()
        .flat_map(|&(x, n)| std::iter::repeat_n(x, n))
        .collect()
}

/// The rate at which the non-decreasing fit of p99 against the ladder's
/// rates first exceeds `limit`, interpolated between steps.
pub fn crossing(rates: &[f64], p99: &[f64], limit: f64) -> f64 {
    let fit = isotonic(p99);
    match fit.iter().position(|&p| p > limit) {
        None => rates.last().copied().unwrap_or(0.0),
        Some(0) => rates[0] * (limit / fit[0]),
        Some(k) => {
            let (r0, r1, p0, p1) = (rates[k - 1], rates[k], fit[k - 1], fit[k]);
            r0 + (r1 - r0) * (limit - p0) / (p1 - p0)
        }
    }
}

/// The rate ladder: the highest rate whose windowed p99 stays within
/// [`LIMIT_MS`] without a growing backlog. A step with a growing backlog
/// or lost jobs counts as twice over the limit; the crossing comes from a
/// monotone fit over all steps, so one stalled or lucky step does not
/// decide it. The ladder stops after two overloaded steps in a row.
fn ladder(h: &mut Harness, seed: u64, secs: f64, tally: &mut Tally) -> f64 {
    let per_step = secs / LADDER.len() as f64;
    let (mut rates, mut p99s) = (Vec::new(), Vec::new());
    let mut overloaded = 0;
    for (k, mult) in LADDER.iter().enumerate() {
        let rate = RATE * mult;
        let n = jobs_for(rate, per_step, STEP_JOBS);
        let schedule = gen::arrivals(seed.wrapping_add(100 + k as u64), rate, n, POOL);
        let phase = h.phase(&schedule, false, 0);
        tally.merge(phase.tally());
        let lat = phase.latencies();
        let quarter = lat.len() / 4;
        let growing = quarter > 0
            && median(&lat[lat.len() - quarter..]) > 2.0 * median(&lat[..quarter]) + 0.5;
        let mut p99 = windowed_p99(&lat);
        if growing || lat.len() < n {
            p99 = p99.max(2.0 * LIMIT_MS);
        }
        rates.push(rate);
        p99s.push(p99);
        overloaded = if p99 > LIMIT_MS { overloaded + 1 } else { 0 };
        if overloaded == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    crossing(&rates, &p99s, LIMIT_MS)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> (Tally, Metrics) {
    let mut setups = Vec::new();
    let mut h = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let started = start(seed);
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = h.replace(started) {
            previous.stop();
        }
    }
    let mut h = h.expect("at least one set-up");
    let mut tally = Tally::default();
    let n = jobs_for(RATE, seconds, WINDOW);
    let fixed = h.phase(&gen::arrivals(seed, RATE, n, POOL), false, 0);
    tally.merge(fixed.tally());
    let lat = fixed.latencies();
    h.stop();
    // One window per second of the schedule (see `QUIET`).
    let p50s: Vec<f64> = lat.chunks(RATE as usize).map(median).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("jobs_per_s", lat.len() as f64 / fixed.wall, "1/s");
    m.put("latency_p50_ms", quantile(&p50s, QUIET), "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    (tally, m)
}

/// The traced run: per-layer metrics.
pub fn trace(seed: u64, seconds: f64) -> (Tally, Metrics) {
    let mut h = start(seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let n = jobs_for(RATE, seconds * 0.3, WINDOW);
    let schedule = gen::arrivals(seed, RATE, n, POOL);

    let before = SolverCounters::read();
    let plain = h.phase(&schedule, false, 50);
    SolverCounters::read().delta_metrics(&before, &mut m);
    tally.merge(plain.tally());
    cache_metrics(h.cache_stats().as_ref(), &mut m);
    let overhead: Vec<f64> = plain
        .samples
        .iter()
        .filter_map(|s| s.received.map(|r| (r - s.sent) * 1e3 - s.server_ms))
        .collect();
    m.put("service.overhead_ms", median(&overhead), "ms");
    m.put(
        "service.latency_p99_ms",
        windowed_p99(&plain.latencies()),
        "ms",
    );
    m.put(
        "service.queue_depth_max",
        plain.queue_depth_max as f64,
        "count",
    );
    let late: Vec<f64> = plain
        .samples
        .iter()
        .map(|s| (s.sent - s.due) * 1e3)
        .collect();
    m.put("loadgen.late_p99_ms", quantile(&late, 0.99), "ms");
    let busy: f64 = plain.samples.iter().map(|s| s.server_ms).sum();
    m.put(
        "engine.worker_busy_pct",
        100.0 * busy / (plain.wall * 1e3),
        "%",
    );

    // Telemetry overhead: the same schedule with wire trace ids, so the
    // daemon records and stores every job's spans.
    let traced = h.phase(&schedule, true, 0);
    tally.merge(traced.tally());
    let base = median(&plain.latencies());
    m.put(
        "trace_overhead_pct",
        100.0 * (median(&traced.latencies()) - base) / base,
        "%",
    );

    // The capacity under the latency limit. Its run-to-run spread on a
    // small shared host is wider than any end-to-end bound allows, so it
    // is reported here, without a bound.
    let max_rate = ladder(&mut h, seed, seconds * 0.4, &mut tally);
    m.put("service.max_rate_jobs_per_s", max_rate, "1/s");

    // Stage split of the pool programs themselves.
    let mut st = Stages::default();
    for job in h.pool() {
        replay_source(
            &job.source,
            Path::new("."),
            nqpv_core::VcOptions::default(),
            &mut st,
        );
    }
    st.metrics(&mut m);
    h.stop();
    (tally, m)
}
