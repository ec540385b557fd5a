//! Result plumbing: quantiles, the metric list, the host record and the
//! one-line JSON result the benchmark prints last.

use nqpv_service::json::{n, obj, s, Json};

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`);
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The share of a run's windows a timed end-to-end metric is read at.
/// Co-tenants of a shared host slow a run in phases of seconds to
/// minutes, and such noise only adds time, so each timed metric is taken
/// per window of about a second and reported at the quietest tenth of
/// windows: the 10th percentile of window latencies, the 90th of window
/// rates. Unlike the single fastest window, it does not hang on one lucky
/// second.
pub const QUIET: f64 = 0.1;

/// Splits samples taken back to back, in order, into consecutive windows
/// whose durations sum to at least `window_ms`. A shorter tail is dropped
/// unless it is the only window.
pub fn windows(samples_ms: &[f64], window_ms: f64) -> Vec<&[f64]> {
    let mut out = Vec::new();
    let (mut start, mut acc) = (0, 0.0);
    for (i, ms) in samples_ms.iter().enumerate() {
        acc += ms;
        if acc >= window_ms {
            out.push(&samples_ms[start..=i]);
            (start, acc) = (i + 1, 0.0);
        }
    }
    if out.is_empty() && !samples_ms.is_empty() {
        out.push(samples_ms);
    }
    out
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Job accounting against the known answers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Errors, timeouts, refusals, lost jobs and wrong verdicts.
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn num(v: f64) -> Json {
    if v.is_finite() {
        n(v)
    } else {
        Json::Null
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    let body = metrics
        .0
        .iter()
        .map(|(name, v, unit)| {
            (
                name.as_str(),
                obj(vec![("value", num(*v)), ("unit", s(*unit))]),
            )
        })
        .collect();
    obj(vec![
        (
            "correct",
            Json::Bool(tally.failed == 0 && metrics.0.iter().all(|(_, v, _)| v.is_finite())),
        ),
        ("attempted", n(tally.attempted as f64)),
        ("failed", n(tally.failed as f64)),
        ("metrics", obj(body)),
    ])
    .to_string()
}

/// The host and provenance record printed with every result.
pub fn host_line(
    workload: &str,
    seed: u64,
    kernel_threads: usize,
    workers: usize,
    tally: Tally,
) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
    };
    let flags: Vec<&str> = field("flags")
        .map(|f| f.split_whitespace().collect())
        .unwrap_or_default();
    let simd = ["avx512f", "avx2", "fma"]
        .iter()
        .filter(|f| flags.contains(f))
        .map(|f| s(*f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = obj(vec![
        ("nproc", n(nproc as f64)),
        ("cpu", s(field("model name").map_or("unknown", str::trim))),
        ("simd", Json::Arr(simd)),
    ]);
    obj(vec![
        ("host", host),
        ("workload", s(workload)),
        ("seed", n(seed as f64)),
        ("kernel_threads", n(kernel_threads as f64)),
        ("workers", n(workers as f64)),
        (
            "commit",
            s(std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("failed_pct", num(tally.failed_pct())),
    ])
    .to_string()
}

/// Solver counters read from the process-wide telemetry registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverCounters {
    /// `nqpv_solver_obligations_total` by path label.
    pub paths: Vec<(String, u64)>,
    /// `nqpv_solver_screen_total` by outcome label.
    pub screen: Vec<(String, u64)>,
}

/// The decision paths the solver labels obligations with.
pub const SOLVER_PATHS: [&str; 5] = ["factored-gram", "cholesky", "diag-scan", "lanczos", "game"];

impl SolverCounters {
    pub fn read() -> SolverCounters {
        let mut out = SolverCounters::default();
        for s in nqpv_telemetry::global().snapshot() {
            let nqpv_telemetry::SampleValue::Counter(v) = s.value else {
                continue;
            };
            let label = s.labels.split('"').nth(1).unwrap_or_default().to_string();
            match s.name.as_str() {
                "nqpv_solver_obligations_total" => out.paths.push((label, v)),
                "nqpv_solver_screen_total" => out.screen.push((label, v)),
                _ => {}
            }
        }
        out
    }

    fn get(list: &[(String, u64)], key: &str) -> u64 {
        list.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    }

    /// Per-label increase since `before`, as per-layer metrics.
    pub fn delta_metrics(&self, before: &SolverCounters, m: &mut Metrics) {
        let d = |list: &[(String, u64)], old: &[(String, u64)], k: &str| {
            (Self::get(list, k) - Self::get(old, k).min(Self::get(list, k))) as f64
        };
        let total: f64 = self
            .paths
            .iter()
            .map(|(k, _)| d(&self.paths, &before.paths, k))
            .sum();
        m.put("solver.obligations", total, "count");
        for p in SOLVER_PATHS {
            m.put(
                &format!("solver.path.{p}"),
                d(&self.paths, &before.paths, p),
                "count",
            );
        }
        let accept = d(&self.screen, &before.screen, "accept");
        let reject = d(&self.screen, &before.screen, "reject");
        let fallback = d(&self.screen, &before.screen, "fallback");
        let screened = accept + reject + fallback;
        m.put("solver.screen_total", screened, "count");
        m.put(
            "solver.screen_decided_ratio",
            if screened > 0.0 {
                (accept + reject) / screened
            } else {
                0.0
            },
            "ratio",
        );
    }
}

/// Every per-layer metric name, in emission order; a traced run reports
/// each of them (0 for a layer its workload does not exercise).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("lang.parse_ms", "ms"),
    ("lang.bytes_per_s", "B/s"),
    ("core.proofs", "count"),
    ("core.resolve_ms", "ms"),
    ("core.wp_ms", "ms"),
    ("core.wp_unitary_ms", "ms"),
    ("core.wp_unitary_calls", "count"),
    ("core.outline_ms", "ms"),
    ("core.unattributed_pct", "%"),
    ("linalg.adjoint_ms", "ms"),
    ("linalg.matmul_gflops", "GFLOP/s"),
    ("linalg.matmul_bytes", "B"),
    ("solver.le_inf_ms", "ms"),
    ("solver.obligations", "count"),
    ("solver.path.factored-gram", "count"),
    ("solver.path.cholesky", "count"),
    ("solver.path.diag-scan", "count"),
    ("solver.path.lanczos", "count"),
    ("solver.path.game", "count"),
    ("solver.screen_total", "count"),
    ("solver.screen_decided_ratio", "ratio"),
    ("diagnose.explain_ms", "ms"),
    ("diagnose.explained", "count"),
    ("engine.overhead_ms_per_job", "ms"),
    ("engine.worker_busy_pct", "%"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_lookups", "count"),
    ("engine.verdict_hit_ratio", "ratio"),
    ("engine.verdict_lookups", "count"),
    ("service.overhead_ms", "ms"),
    ("service.queue_depth_max", "count"),
    ("service.latency_p99_ms", "ms"),
    ("service.max_rate_jobs_per_s", "1/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Every end-to-end metric name and unit, in emission order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Orders `measured` by `spec`, filling layers a workload did not touch
/// with 0, and panics on a name outside `spec` (a bug in this benchmark).
pub fn complete(spec: &[(&str, &'static str)], measured: Metrics) -> Metrics {
    for (n, _, _) in &measured.0 {
        assert!(spec.iter().any(|(s, _)| s == n), "undeclared metric {n}");
    }
    let mut out = Metrics::default();
    for (name, unit) in spec {
        out.put(name, measured.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// Engine cache statistics as ratios with their bases.
pub fn cache_metrics(stats: Option<&nqpv_engine::CacheStats>, m: &mut Metrics) {
    let Some(c) = stats else { return };
    let lookups = (c.hits + c.misses) as f64;
    let vlookups = (c.verdict_hits + c.verdict_misses) as f64;
    m.put(
        "engine.cache_hit_ratio",
        if lookups > 0.0 {
            c.hits as f64 / lookups
        } else {
            0.0
        },
        "ratio",
    );
    m.put("engine.cache_lookups", lookups, "count");
    m.put(
        "engine.verdict_hit_ratio",
        if vlookups > 0.0 {
            c.verdict_hits as f64 / vlookups
        } else {
            0.0
        },
        "ratio",
    );
    m.put("engine.verdict_lookups", vlookups, "count");
}
