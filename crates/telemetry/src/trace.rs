//! Span tracing: a `Copy` tracer handle, RAII span guards, per-phase
//! latency accumulation, and Chrome trace-event JSON export.
//!
//! # Design
//!
//! A [`Tracer`] is two `u32`s — a slot index and a generation — into a
//! process-global registry of trace sinks. That makes the handle `Copy`,
//! so it rides inside the stack's existing by-value option structs
//! (`VcOptions`, `LownerOptions`) without disturbing their `Copy`
//! derives or the ~30 call sites that pass them by value. The generation
//! guards against a stale handle (a copy outliving its job) writing into
//! a recycled slot.
//!
//! The disabled tracer ([`Tracer::DISABLED`], the `Default`) uses a
//! sentinel slot: [`Tracer::span`] then returns an inert guard without
//! taking any lock, reading any clock, or allocating — the instrumented
//! hot paths pay one predictable branch.
//!
//! `Debug` for [`Tracer`] is deliberately constant (`"Tracer"`): the
//! transformer's cache context key hashes option structs through their
//! `Debug` rendering, and a key that varied with the tracer slot would
//! silently partition the memo/verdict caches per job.

use crate::json_string;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A wire-propagated trace identity: minted client-side, carried through
/// the NDJSON protocol, and inherited by every span a worker emits for
/// the job. `trace_id == 0` means "no trace requested" (the `Default`);
/// ids render as 16 hex digits on the wire.
///
/// `Debug` is constant for the same reason as [`Tracer`]'s: the context
/// can ride inside option structs whose `Debug` rendering feeds cache
/// context keys.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Process-crossing trace identity (0 = none).
    pub trace_id: u64,
    /// The span on the minting side this work nests under (0 = root).
    pub parent_span: u64,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceContext")
    }
}

impl TraceContext {
    /// The absent context (`trace_id == 0`).
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent_span: 0,
    };

    /// Mints a fresh context: a splitmix64 hash of wall clock, process
    /// id, and a process-local counter — unique enough to stitch traces
    /// across a client/daemon pair without coordination.
    pub fn mint() -> TraceContext {
        static SALT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let mut x = nanos
            ^ (std::process::id() as u64).rotate_left(32)
            ^ SALT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        // splitmix64 finalizer
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        TraceContext {
            trace_id: if x == 0 { 1 } else { x },
            parent_span: 0,
        }
    }

    /// `true` when a trace was requested.
    pub fn active(&self) -> bool {
        self.trace_id != 0
    }

    /// The wire form: 16 lowercase hex digits.
    pub fn to_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Parses the wire form (any non-empty ≤16-digit hex string).
    pub fn from_hex(s: &str) -> Option<TraceContext> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(|id| TraceContext {
            trace_id: id,
            parent_span: 0,
        })
    }
}

/// Epoch microseconds now — the shared clock base that lets client and
/// daemon trace events land on one timeline when stitched.
pub fn wall_clock_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Pipeline phases a span can be attributed to. Fixed and small so the
/// sink can accumulate totals in a flat array of atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Source → AST (`parse_source`).
    Parse,
    /// Backward weakest-precondition pass, one span per statement visit.
    Wp,
    /// A Löwner-order solver obligation.
    Solver,
    /// A memo/verdict cache tier lookup.
    Cache,
    /// Counterexample extraction and replay.
    Diagnose,
    /// Daemon queue wait.
    Queue,
    /// Anything else.
    Other,
}

/// Number of [`Phase`] variants (the sink's accumulator arity).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// Every phase, in accumulator order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Parse,
        Phase::Wp,
        Phase::Solver,
        Phase::Cache,
        Phase::Diagnose,
        Phase::Queue,
        Phase::Other,
    ];

    /// Stable lowercase label (metric label value, trace category).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Wp => "wp",
            Phase::Solver => "solver",
            Phase::Cache => "cache",
            Phase::Diagnose => "diagnose",
            Phase::Queue => "queue",
            Phase::Other => "other",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Wp => 1,
            Phase::Solver => 2,
            Phase::Cache => 3,
            Phase::Diagnose => 4,
            Phase::Queue => 5,
            Phase::Other => 6,
        }
    }
}

/// A span argument value (rendered into the trace event's `args` object).
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Owned string (statement paths and other per-span data).
    Str(String),
    /// Static string (classification labels).
    Static(&'static str),
    /// Boolean.
    Bool(bool),
}

/// One completed span, in Chrome trace-event terms (a `ph:"X"` complete
/// event: begin timestamp + duration, both microseconds).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (statement kind, `"parse"`, `"obligation"`, …).
    pub name: &'static str,
    /// Phase → trace category.
    pub phase: Phase,
    /// Microseconds since the sink was created. Signed: externally
    /// observed spans (queue wait) can begin before the sink existed.
    pub ts_us: i64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Originating thread (stable per-thread id, not the OS tid).
    pub tid: u64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Per-phase span counts and summed latency, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    counts: [u64; PHASE_COUNT],
    micros: [u64; PHASE_COUNT],
}

impl PhaseTotals {
    /// `(span count, total microseconds)` for one phase.
    pub fn get(&self, phase: Phase) -> (u64, u64) {
        (self.counts[phase.idx()], self.micros[phase.idx()])
    }

    /// `true` when no span was recorded in any phase.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Adds another job's totals into this accumulator (batch-report
    /// aggregation).
    pub fn merge(&mut self, other: &PhaseTotals) {
        for i in 0..PHASE_COUNT {
            self.counts[i] += other.counts[i];
            self.micros[i] += other.micros[i];
        }
    }

    /// Adds one observation directly (used by instrumentation that
    /// measures outside a live sink, e.g. queue wait).
    pub fn add(&mut self, phase: Phase, micros: u64) {
        self.counts[phase.idx()] += 1;
        self.micros[phase.idx()] += micros;
    }
}

/// Everything one sink collected: the (possibly empty) event list,
/// per-phase totals, and classification tallies.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Complete events, in completion order. Empty unless the tracer was
    /// created in recording mode.
    pub events: Vec<TraceEvent>,
    /// Per-phase span counts and latency totals (always collected).
    pub phases: PhaseTotals,
    /// `(key, value, count)` classification tallies (always collected),
    /// e.g. `("solver_path", "cholesky", 12)`.
    pub tallies: Vec<(&'static str, &'static str, u64)>,
    /// The wire-propagated context this sink inherited (NONE for local
    /// runs).
    pub context: TraceContext,
    /// Epoch microseconds when the sink was created; event `ts_us`
    /// values are relative to this, so cross-process stitching can
    /// rebase both sides onto one wall-clock timeline.
    pub wall_start_us: u64,
}

impl TraceData {
    /// Renders the event list as a Chrome trace-event JSON document
    /// (object format, `ph:"X"` complete events, microsecond clock) that
    /// loads directly in `chrome://tracing` and Perfetto. `process_name`
    /// labels the process row — the job name, typically.
    pub fn chrome_json(&self, process_name: &str) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_string(process_name)
        ));
        for ev in &self.events {
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}",
                json_string(ev.name),
                ev.phase.label(),
                ev.ts_us,
                ev.dur_us,
                ev.tid
            ));
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    match v {
                        ArgValue::U64(n) => out.push_str(&n.to_string()),
                        ArgValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
                        ArgValue::F64(_) => out.push_str("null"),
                        ArgValue::Str(s) => out.push_str(&json_string(s)),
                        ArgValue::Static(s) => out.push_str(&json_string(s)),
                        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the event list as a bare JSON *array* of Chrome trace
    /// events under process row `pid`, timestamps rebased to absolute
    /// epoch microseconds — the splice-ready half of a stitched
    /// cross-process trace (see [`stitch_chrome_json`]).
    pub fn chrome_events_json(&self, pid: u32, process_name: &str) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 128);
        out.push('[');
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_string(process_name)
        ));
        for ev in &self.events {
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{}",
                json_string(ev.name),
                ev.phase.label(),
                self.wall_start_us as i64 + ev.ts_us,
                ev.dur_us,
                ev.tid
            ));
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    match v {
                        ArgValue::U64(n) => out.push_str(&n.to_string()),
                        ArgValue::F64(x) if x.is_finite() => out.push_str(&format!("{x}")),
                        ArgValue::F64(_) => out.push_str("null"),
                        ArgValue::Str(s) => out.push_str(&json_string(s)),
                        ArgValue::Static(s) => out.push_str(&json_string(s)),
                        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Splices event arrays from several processes (each produced by
/// [`TraceData::chrome_events_json`]) into one Chrome trace-event JSON
/// document tagged with the shared trace id. Empty or malformed parts
/// are skipped rather than corrupting the document.
pub fn stitch_chrome_json(trace_id_hex: &str, parts: &[&str]) -> String {
    let mut out = String::with_capacity(128 + parts.iter().map(|p| p.len()).sum::<usize>());
    out.push_str(&format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceId\":{},\"traceEvents\":[",
        json_string(trace_id_hex)
    ));
    let mut first = true;
    for part in parts {
        let inner = part
            .trim()
            .strip_prefix('[')
            .and_then(|p| p.strip_suffix(']'))
            .unwrap_or("")
            .trim();
        if inner.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(inner);
    }
    out.push_str("]}");
    out
}

/// The per-job collection target spans write into.
struct Sink {
    start: Instant,
    wall_start_us: u64,
    context: TraceContext,
    record_events: bool,
    events: Mutex<Vec<TraceEvent>>,
    phase_counts: [AtomicU64; PHASE_COUNT],
    phase_micros: [AtomicU64; PHASE_COUNT],
    tallies: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
}

impl Sink {
    fn new(record_events: bool, context: TraceContext) -> Sink {
        Sink {
            start: Instant::now(),
            wall_start_us: wall_clock_us(),
            context,
            record_events,
            events: Mutex::new(Vec::new()),
            phase_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_micros: std::array::from_fn(|_| AtomicU64::new(0)),
            tallies: Mutex::new(BTreeMap::new()),
        }
    }

    fn data(&self) -> TraceData {
        let mut phases = PhaseTotals::default();
        for i in 0..PHASE_COUNT {
            phases.counts[i] = self.phase_counts[i].load(Ordering::Relaxed);
            phases.micros[i] = self.phase_micros[i].load(Ordering::Relaxed);
        }
        let events = self
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let tallies = self
            .tallies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&(k, v), &n)| (k, v, n))
            .collect();
        TraceData {
            events,
            phases,
            tallies,
            context: self.context,
            wall_start_us: self.wall_start_us,
        }
    }
}

struct Slot {
    gen: u32,
    sink: Option<Arc<Sink>>,
}

fn registry() -> &'static RwLock<Vec<Slot>> {
    static REG: OnceLock<RwLock<Vec<Slot>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(Vec::new()))
}

/// Stable small per-thread id for trace rows (OS thread ids are neither
/// small nor portable to render).
fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// A `Copy` handle to a per-job trace sink; see the module docs. The
/// default ([`Tracer::DISABLED`]) makes every operation an inert branch.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Tracer {
    slot: u32,
    gen: u32,
}

/// Constant rendering: cache context keys hash option structs through
/// `Debug`, and must not depend on which trace slot a job drew.
impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Tracer")
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::DISABLED
    }
}

impl Tracer {
    /// The inert tracer: spans are no-ops, `finish` returns `None`.
    pub const DISABLED: Tracer = Tracer {
        slot: u32::MAX,
        gen: 0,
    };

    /// Installs a fresh sink and returns its handle. With
    /// `record_events`, spans are kept as Chrome trace events in addition
    /// to the always-on phase totals and tallies; without it, only the
    /// cheap accumulators run (the engine's per-job phase breakdown).
    pub fn create(record_events: bool) -> Tracer {
        Tracer::create_with(record_events, TraceContext::NONE)
    }

    /// Like [`Tracer::create`], but the sink inherits a wire-propagated
    /// [`TraceContext`]; the resulting [`TraceData`] carries it so
    /// cross-process spans can be stitched under one trace id.
    pub fn create_with(record_events: bool, context: TraceContext) -> Tracer {
        let mut reg = registry().write().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(Sink::new(record_events, context));
        for (i, slot) in reg.iter_mut().enumerate() {
            if slot.sink.is_none() {
                slot.gen = slot.gen.wrapping_add(1);
                slot.sink = Some(sink);
                return Tracer {
                    slot: i as u32,
                    gen: slot.gen,
                };
            }
        }
        reg.push(Slot {
            gen: 0,
            sink: Some(sink),
        });
        Tracer {
            slot: (reg.len() - 1) as u32,
            gen: 0,
        }
    }

    /// `true` unless this is the disabled tracer.
    pub fn enabled(&self) -> bool {
        self.slot != u32::MAX
    }

    fn sink(&self) -> Option<Arc<Sink>> {
        if !self.enabled() {
            return None;
        }
        let reg = registry().read().unwrap_or_else(|e| e.into_inner());
        let slot = reg.get(self.slot as usize)?;
        if slot.gen != self.gen {
            return None;
        }
        slot.sink.clone()
    }

    /// `true` when spans are being kept as trace events (not just phase
    /// totals) — callers gate path-string construction on this.
    pub fn recording(&self) -> bool {
        self.sink().is_some_and(|s| s.record_events)
    }

    /// Opens a span; it records itself into the sink when dropped. Inert
    /// (no lock, no clock) on the disabled tracer.
    pub fn span(&self, phase: Phase, name: &'static str) -> Span {
        match self.sink() {
            None => Span { inner: None },
            Some(sink) => {
                let ts_us = sink.start.elapsed().as_micros() as i64;
                Span {
                    inner: Some(ActiveSpan {
                        sink,
                        phase,
                        name,
                        ts_us,
                        t0: Instant::now(),
                        args: Vec::new(),
                        tally: None,
                    }),
                }
            }
        }
    }

    /// The wire context the sink was created with ([`TraceContext::NONE`]
    /// for disabled/stale handles and local runs).
    pub fn context(&self) -> TraceContext {
        self.sink().map(|s| s.context).unwrap_or(TraceContext::NONE)
    }

    /// Records an externally-measured span with explicit wall-clock
    /// start and duration — for work observed outside the sink's
    /// lifetime, like the queue wait that ends where the worker span
    /// begins. Feeds phase totals always, and the event list in
    /// recording mode.
    pub fn record_external(
        &self,
        phase: Phase,
        name: &'static str,
        wall_start_us: u64,
        dur_us: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(sink) = self.sink() else { return };
        let idx = phase.idx();
        sink.phase_counts[idx].fetch_add(1, Ordering::Relaxed);
        sink.phase_micros[idx].fetch_add(dur_us, Ordering::Relaxed);
        if sink.record_events {
            let ev = TraceEvent {
                name,
                phase,
                ts_us: wall_start_us as i64 - sink.wall_start_us as i64,
                dur_us,
                tid: thread_tid(),
                args: if sink.record_events { args } else { Vec::new() },
            };
            sink.events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ev);
        }
    }

    /// Retires the sink and returns everything it collected. `None` for
    /// the disabled tracer or a stale handle. Copies of the handle left
    /// behind become inert.
    pub fn finish(self) -> Option<TraceData> {
        if !self.enabled() {
            return None;
        }
        let sink = {
            let mut reg = registry().write().unwrap_or_else(|e| e.into_inner());
            let slot = reg.get_mut(self.slot as usize)?;
            if slot.gen != self.gen {
                return None;
            }
            slot.sink.take()?
        };
        Some(sink.data())
    }
}

struct ActiveSpan {
    sink: Arc<Sink>,
    phase: Phase,
    name: &'static str,
    ts_us: i64,
    t0: Instant,
    args: Vec<(&'static str, ArgValue)>,
    tally: Option<(&'static str, &'static str)>,
}

impl ActiveSpan {
    fn close(self) {
        let dur_us = self.t0.elapsed().as_micros() as u64;
        let idx = self.phase.idx();
        self.sink.phase_counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sink.phase_micros[idx].fetch_add(dur_us, Ordering::Relaxed);
        if let Some(kv) = self.tally {
            *self
                .sink
                .tallies
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(kv)
                .or_insert(0) += 1;
        }
        if self.sink.record_events {
            let ev = TraceEvent {
                name: self.name,
                phase: self.phase,
                ts_us: self.ts_us,
                dur_us,
                tid: thread_tid(),
                args: self.args,
            };
            self.sink
                .events
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ev);
        }
    }
}

/// RAII span guard: records duration (and, in recording mode, a trace
/// event) when dropped. Obtained from [`Tracer::span`].
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// `true` when arguments attached to this span will be kept (the
    /// tracer is live and recording events) — gate any allocation done
    /// purely to build argument values on this.
    pub fn recording(&self) -> bool {
        self.inner.as_ref().is_some_and(|a| a.sink.record_events)
    }

    /// Attaches a structured argument (kept only in recording mode).
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if let Some(a) = self.inner.as_mut() {
            if a.sink.record_events {
                a.args.push((key, value));
            }
        }
    }

    /// Classifies this span under `(key, value)`: bumps the sink's tally
    /// (always, live tracers only) and attaches it as an argument in
    /// recording mode. Used for e.g. `("solver_path", "cholesky")`.
    pub fn classify(&mut self, key: &'static str, value: &'static str) {
        if let Some(a) = self.inner.as_mut() {
            a.tally = Some((key, value));
            if a.sink.record_events {
                a.args.push((key, ArgValue::Static(value)));
            }
        }
    }

    /// Discards the span without recording anything — for speculative
    /// spans opened before knowing whether the covered work is
    /// attributable (e.g. a fast-path screen that defers to the full
    /// solver when undecided).
    pub fn cancel(mut self) {
        self.inner = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.inner.take() {
            a.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::DISABLED;
        assert!(!t.enabled());
        assert!(!t.recording());
        {
            let mut s = t.span(Phase::Wp, "stmt");
            s.arg("k", ArgValue::U64(1));
            s.classify("solver_path", "game");
            assert!(!s.recording());
        }
        assert!(t.finish().is_none());
        assert_eq!(Tracer::default(), Tracer::DISABLED);
        assert_eq!(format!("{:?}", Tracer::DISABLED), "Tracer");
    }

    #[test]
    fn phase_totals_accumulate_without_recording() {
        let t = Tracer::create(false);
        assert!(t.enabled());
        assert!(!t.recording());
        {
            let _a = t.span(Phase::Parse, "parse");
        }
        {
            let _b = t.span(Phase::Wp, "stmt");
        }
        {
            let mut c = t.span(Phase::Solver, "obligation");
            c.classify("solver_path", "cholesky");
        }
        let data = t.finish().expect("live sink");
        assert!(data.events.is_empty(), "no events without recording");
        assert_eq!(data.phases.get(Phase::Parse).0, 1);
        assert_eq!(data.phases.get(Phase::Wp).0, 1);
        assert_eq!(data.phases.get(Phase::Solver).0, 1);
        assert_eq!(data.tallies, vec![("solver_path", "cholesky", 1)]);
        // The handle is now stale: further use is inert.
        assert!(t.finish().is_none());
    }

    #[test]
    fn recorded_events_nest_and_render_as_chrome_json() {
        let t = Tracer::create(true);
        assert!(t.recording());
        {
            let mut outer = t.span(Phase::Wp, "seq");
            outer.arg("path", ArgValue::Str("0.1".into()));
            {
                let mut inner = t.span(Phase::Solver, "obligation");
                inner.arg("margin", ArgValue::F64(0.25));
                inner.classify("solver_path", "game");
            }
        }
        let data = t.finish().expect("live sink");
        assert_eq!(data.events.len(), 2);
        // Drop order: inner closes first.
        assert_eq!(data.events[0].name, "obligation");
        assert_eq!(data.events[1].name, "seq");
        // Containment: the outer span covers the inner one.
        let (inner, outer) = (&data.events[0], &data.events[1]);
        assert!(outer.ts_us <= inner.ts_us);
        assert!(outer.ts_us + outer.dur_us as i64 >= inner.ts_us + inner.dur_us as i64);
        let json = data.chrome_json("job \"x\"");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("job \\\"x\\\""), "{json}");
        assert!(json.contains("\"cat\":\"solver\""));
        assert!(json.contains("\"solver_path\":\"game\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn slots_are_recycled_and_stale_handles_stay_inert() {
        let a = Tracer::create(false);
        let a_copy = a;
        a.finish().expect("first finish");
        // Create enough tracers that `a`'s slot is certainly reused.
        let fresh: Vec<Tracer> = (0..8).map(|_| Tracer::create(false)).collect();
        {
            let _s = a_copy.span(Phase::Wp, "stale");
        }
        assert!(a_copy.finish().is_none(), "stale handle must not steal");
        for f in fresh {
            let data = f.finish().expect("fresh sinks intact");
            assert_eq!(data.phases.get(Phase::Wp).0, 0, "stale span leaked in");
        }
    }

    #[test]
    fn trace_context_mints_round_trips_and_renders_constant() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert!(a.active() && b.active());
        assert_ne!(a.trace_id, b.trace_id, "mints must differ");
        let hex = a.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceContext::from_hex(&hex).unwrap().trace_id, a.trace_id);
        assert!(TraceContext::from_hex("").is_none());
        assert!(TraceContext::from_hex("zz").is_none());
        assert!(TraceContext::from_hex("00112233445566778899").is_none());
        assert!(!TraceContext::NONE.active());
        assert_eq!(format!("{a:?}"), "TraceContext");
        assert_eq!(TraceContext::default(), TraceContext::NONE);
    }

    #[test]
    fn context_rides_the_sink_and_external_spans_record() {
        let ctx = TraceContext::mint();
        let t = Tracer::create_with(true, ctx);
        assert_eq!(t.context(), ctx);
        {
            let _s = t.span(Phase::Wp, "stmt");
        }
        // A queue wait that began 5 ms before the sink existed.
        let wall = wall_clock_us();
        t.record_external(
            Phase::Queue,
            "queue_wait",
            wall.saturating_sub(5_000),
            5_000,
            vec![("bin", ArgValue::U64(3))],
        );
        let data = t.finish().expect("live sink");
        assert_eq!(data.context, ctx);
        assert!(data.wall_start_us > 0);
        let queue = data
            .events
            .iter()
            .find(|e| e.name == "queue_wait")
            .expect("queue span recorded");
        assert!(queue.ts_us < 0, "starts before the sink: {}", queue.ts_us);
        assert_eq!(queue.dur_us, 5_000);
        assert_eq!(data.phases.get(Phase::Queue), (1, 5_000));
    }

    #[test]
    fn cross_process_parts_stitch_into_one_document() {
        let ctx = TraceContext::mint();
        let client = Tracer::create_with(true, ctx);
        {
            let _s = client.span(Phase::Other, "submit");
        }
        let daemon = Tracer::create_with(true, ctx);
        {
            let _s = daemon.span(Phase::Wp, "stmt");
        }
        let cd = client.finish().unwrap();
        let dd = daemon.finish().unwrap();
        let stitched = stitch_chrome_json(
            &ctx.to_hex(),
            &[
                &cd.chrome_events_json(1, "client"),
                &dd.chrome_events_json(2, "daemon"),
            ],
        );
        assert!(stitched.contains(&format!("\"traceId\":\"{}\"", ctx.to_hex())));
        assert!(stitched.contains("\"name\":\"submit\""));
        assert!(stitched.contains("\"cat\":\"wp\""));
        assert!(stitched.contains("\"pid\":1"));
        assert!(stitched.contains("\"pid\":2"));
        // Empty / malformed parts are skipped, never corrupting output.
        let sparse = stitch_chrome_json("00", &["[]", "not-json", "[{\"a\":1}]"]);
        assert!(sparse.ends_with("[{\"a\":1}]}"), "{sparse}");
    }

    #[test]
    fn phase_totals_merge() {
        let mut a = PhaseTotals::default();
        a.add(Phase::Wp, 100);
        let mut b = PhaseTotals::default();
        b.add(Phase::Wp, 50);
        b.add(Phase::Solver, 7);
        a.merge(&b);
        assert_eq!(a.get(Phase::Wp), (2, 150));
        assert_eq!(a.get(Phase::Solver), (1, 7));
        assert!(!a.is_empty());
        assert!(PhaseTotals::default().is_empty());
    }
}
