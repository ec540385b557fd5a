//! # nqpv-telemetry
//!
//! Zero-dependency structured tracing and metrics for the NQPV stack.
//!
//! Scheduling and performance work (affinity binning, intra-job kernel
//! parallelism, cache tiers) needs to *see* where time and cache capacity
//! go. This crate is that seam, in two halves:
//!
//! * **Spans** ([`Tracer`] / [`Span`]) — a thread-safe, `Copy` tracer
//!   handle that rides inside option structs ([`Tracer`] is two `u32`s
//!   into a process-global sink registry, with a constant `Debug`
//!   rendering so cache context keys never depend on it). When disabled —
//!   the default — every call is a single branch on a sentinel slot, so
//!   hot paths pay nothing. When enabled, spans accumulate per-phase
//!   latency totals and (in recording mode) Chrome trace-event JSON
//!   ([`TraceData::chrome_json`]) that opens directly in
//!   `chrome://tracing` / Perfetto.
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) — a
//!   process-wide registry of counters, gauges and fixed-bucket latency
//!   histograms, rendered in Prometheus text-exposition format 0.0.4
//!   ([`Registry::render`]) and servable over a loopback HTTP listener
//!   ([`MetricsServer`]) that the daemon also routes `/healthz` through.
//!   Scrapers pull current values; the crate keeps no history of them.
//!
//! A third, tiny piece rides alongside: [`Deadline`], a `Copy`
//! cooperative wall-clock budget with the same constant-`Debug`
//! contract as [`Tracer`], threaded through the same option structs so
//! jobs can be timed out at statement/obligation boundaries.
//!
//! Everything is std-only: no external crates, no allocation on the
//! disabled path, and the metrics atomics are safe to bump from any
//! worker thread.

mod deadline;
mod http;
pub mod log;
mod metrics;
pub mod profile;
mod trace;

use std::fmt::Write as _;

pub use deadline::Deadline;
pub use http::{HttpResponse, MetricsServer};
pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Sample, SampleValue,
    DEFAULT_LATENCY_BOUNDS,
};
pub use trace::{
    stitch_chrome_json, wall_clock_us, ArgValue, Phase, PhaseTotals, Span, TraceContext, TraceData,
    TraceEvent, Tracer, PHASE_COUNT,
};

/// Folds one finished job's [`TraceData`] into the global metrics
/// registry: completion counter by status, whole-job latency, per-phase
/// latency histograms, and the solver path-mix tallies the sink
/// accumulated. When the global [`profile`] collector is enabled, the
/// trace also folds into the collapsed-stack profile here. This is the
/// single point where per-job trace sinks feed the process-wide
/// observability surface, called by the engine's worker pool after
/// every job.
pub fn record_job(status: &str, seconds: f64, data: &TraceData) {
    if profile::enabled() {
        profile::global().fold(data);
    }
    let reg = global();
    reg.counter(
        "nqpv_jobs_completed_total",
        "Verification jobs completed, by final status.",
        &[("status", status)],
    )
    .inc();
    reg.histogram(
        "nqpv_job_duration_seconds",
        "End-to-end wall time per verification job.",
        &[],
        &DEFAULT_LATENCY_BOUNDS,
    )
    .observe(seconds);
    for phase in Phase::ALL {
        let (count, micros) = data.phases.get(phase);
        if count == 0 {
            continue;
        }
        reg.histogram(
            "nqpv_phase_duration_seconds",
            "Per-job latency total spent in each pipeline phase.",
            &[("phase", phase.label())],
            &DEFAULT_LATENCY_BOUNDS,
        )
        .observe(micros as f64 / 1e6);
    }
    for (key, value, n) in &data.tallies {
        if *key == "solver_path" {
            reg.counter(
                "nqpv_solver_obligations_total",
                "Solver obligations decided, by decision path.",
                &[("path", value)],
            )
            .add(*n);
        }
    }
}

/// Escapes `s` as a JSON string literal, quotes included: `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes, other control
/// characters `\u00XX`, and everything else passes through unchanged.
/// The one escaper behind every hand-built JSON line in the workspace.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_job_feeds_the_global_registry() {
        let tracer = Tracer::create(false);
        {
            let _s = tracer.span(Phase::Wp, "stmt");
        }
        let data = tracer.finish().expect("live sink");
        record_job("verified", 0.002, &data);
        let text = global().render();
        assert!(
            text.contains("nqpv_jobs_completed_total{status=\"verified\"}"),
            "{text}"
        );
        assert!(
            text.contains("nqpv_phase_duration_seconds_bucket{phase=\"wp\","),
            "{text}"
        );
    }
}
