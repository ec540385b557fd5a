//! An embedded time-series ring over the metrics [`Registry`]: the
//! daemon's zero-dependency TSDB.
//!
//! `/metrics` is a point-in-time scrape; an operator watching the
//! daemon live needs *history* — jobs/s over the last minute, a latency
//! quantile derived from more than one instant, an SLO burn rate. The
//! [`SeriesRing`] provides exactly enough of a TSDB for that and no
//! more: a sampler (the daemon's `--sample-secs` thread) calls
//! [`SeriesRing::sample`] on a fixed cadence; each tick snapshots every
//! registry series and stores the *delta* since the previous tick —
//! counters as per-second rates, gauges as points, histograms as
//! per-window bucket deltas. The ring holds a fixed number of windows
//! (oldest evicted first), is queried by window length and metric-name
//! substring ([`SeriesRing::window`]), and dumps to JSON for the
//! `/series` endpoint and the daemon's `series` request
//! ([`SeriesRing::to_json`]).
//!
//! Consumers re-aggregate windows client-side: `nqpv top` sums
//! histogram bucket deltas across the requested window, re-cumulates,
//! and runs [`HistogramSnapshot::quantile`] over the result — a p95
//! over the last N windows, not since process start.

use crate::json_string;
use crate::metrics::{HistogramSnapshot, Registry, Sample, SampleValue};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Default ring capacity: 360 windows (30 minutes at the default 5 s
/// cadence) — enough for a shift-change glance, small enough to dump
/// whole.
pub const DEFAULT_CAPACITY: usize = 360;

/// The delta one series contributed during one window.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Counter: raw delta over the window and the per-second rate.
    Rate {
        /// Increment over the window.
        delta: u64,
        /// `delta / window_secs`.
        per_sec: f64,
    },
    /// Gauge: the value at the end of the window.
    Point(i64),
    /// Histogram: non-cumulative per-bucket increments (last slot is
    /// `+Inf`), plus sum/count deltas over the window.
    Buckets {
        /// Upper bucket bounds (without `+Inf`).
        bounds: Vec<f64>,
        /// Per-bucket increments; `bounds.len() + 1` slots.
        deltas: Vec<u64>,
        /// Sum increment.
        sum: f64,
        /// Count increment.
        count: u64,
    },
}

/// One series' delta within a [`SeriesSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Family name.
    pub name: String,
    /// Rendered label block (the registry's stable series key).
    pub labels: String,
    /// The windowed delta.
    pub value: SeriesValue,
}

/// One time-bucketed window of deltas across every registry series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// Monotone sample number (gaps never occur; wraparound evicts).
    pub seq: u64,
    /// Epoch milliseconds at the end of the window.
    pub at_ms: u64,
    /// Window length in seconds (wall time since the previous tick).
    pub window_secs: f64,
    /// Per-series deltas, in registry order.
    pub points: Vec<SeriesPoint>,
}

struct Inner {
    /// Raw snapshot at the previous tick, keyed `(name, labels)`.
    prev: BTreeMap<(String, String), SampleValue>,
    prev_ms: u64,
    samples: VecDeque<SeriesSample>,
    seq: u64,
}

/// A fixed-capacity ring of [`SeriesSample`] windows; see the module
/// docs.
pub struct SeriesRing {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SeriesRing {
    /// A ring holding at most `capacity` windows (rounded up to one).
    /// The first [`sample`](SeriesRing::sample) measures deltas from
    /// zero over the time since construction — correct for a daemon
    /// whose sampler starts at boot.
    pub fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                prev: BTreeMap::new(),
                prev_ms: crate::trace::wall_clock_us() / 1000,
                samples: VecDeque::new(),
                seq: 0,
            }),
        }
    }

    /// Takes one sample: snapshots `reg`, diffs against the previous
    /// snapshot, and appends the resulting window (evicting the oldest
    /// past capacity). Returns the new sample's sequence number.
    pub fn sample(&self, reg: &Registry) -> u64 {
        let snapshot = reg.snapshot();
        let now_ms = crate::trace::wall_clock_us() / 1000;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let window_secs = ((now_ms.saturating_sub(inner.prev_ms)) as f64 / 1000.0).max(1e-3);
        let mut points = Vec::with_capacity(snapshot.len());
        for Sample {
            name,
            labels,
            value,
        } in snapshot.iter()
        {
            let key = (name.clone(), labels.clone());
            let value = match (value, inner.prev.get(&key)) {
                (SampleValue::Counter(cur), prev) => {
                    let base = match prev {
                        Some(SampleValue::Counter(p)) => *p,
                        _ => 0,
                    };
                    let delta = cur.saturating_sub(base);
                    SeriesValue::Rate {
                        delta,
                        per_sec: delta as f64 / window_secs,
                    }
                }
                (SampleValue::Gauge(cur), _) => SeriesValue::Point(*cur),
                (SampleValue::Histogram(cur), prev) => {
                    let prev_hist = match prev {
                        Some(SampleValue::Histogram(p)) if p.bounds == cur.bounds => Some(p),
                        _ => None,
                    };
                    let deltas: Vec<u64> = (0..cur.cumulative.len())
                        .map(|i| {
                            let non_cum = |h: &HistogramSnapshot, i: usize| {
                                h.cumulative[i] - if i == 0 { 0 } else { h.cumulative[i - 1] }
                            };
                            let cur_n = non_cum(cur, i);
                            let prev_n = prev_hist.map(|p| non_cum(p, i)).unwrap_or(0);
                            cur_n.saturating_sub(prev_n)
                        })
                        .collect();
                    SeriesValue::Buckets {
                        bounds: cur.bounds.clone(),
                        deltas,
                        sum: cur.sum - prev_hist.map(|p| p.sum).unwrap_or(0.0),
                        count: cur
                            .count
                            .saturating_sub(prev_hist.map(|p| p.count).unwrap_or(0)),
                    }
                }
            };
            points.push(SeriesPoint {
                name: name.clone(),
                labels: labels.clone(),
                value,
            });
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.prev = snapshot
            .into_iter()
            .map(|s| ((s.name, s.labels), s.value))
            .collect();
        inner.prev_ms = now_ms;
        inner.samples.push_back(SeriesSample {
            seq,
            at_ms: now_ms,
            window_secs,
            points,
        });
        while inner.samples.len() > self.capacity {
            inner.samples.pop_front();
        }
        seq
    }

    /// The most recent `last` windows (all of them for `last == 0`),
    /// oldest first, each filtered to series whose family name contains
    /// `filter` (no filter keeps everything).
    pub fn window(&self, last: usize, filter: Option<&str>) -> Vec<SeriesSample> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let take = if last == 0 {
            inner.samples.len()
        } else {
            last.min(inner.samples.len())
        };
        let skip = inner.samples.len() - take;
        inner
            .samples
            .iter()
            .skip(skip)
            .map(|s| match filter {
                None => s.clone(),
                Some(f) => SeriesSample {
                    seq: s.seq,
                    at_ms: s.at_ms,
                    window_secs: s.window_secs,
                    points: s
                        .points
                        .iter()
                        .filter(|p| p.name.contains(f))
                        .cloned()
                        .collect(),
                },
            })
            .collect()
    }

    /// Number of windows currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .samples
            .len()
    }

    /// True when no sample has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON dump of [`window`](SeriesRing::window): an object with a
    /// `samples` array, each sample carrying `seq`/`at_ms`/
    /// `window_secs`/`points`, each point tagged with a `kind` of
    /// `"rate"`, `"gauge"`, or `"hist"`. Served verbatim on `/series`
    /// and inside the daemon's `series` event.
    pub fn to_json(&self, last: usize, filter: Option<&str>) -> String {
        samples_to_json(&self.window(last, filter))
    }
}

/// Renders windows in the `/series` JSON shape; see
/// [`SeriesRing::to_json`].
pub fn samples_to_json(samples: &[SeriesSample]) -> String {
    let mut out = String::from("{\"samples\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"at_ms\":{},\"window_secs\":{},\"points\":[",
            s.seq, s.at_ms, s.window_secs
        ));
        for (j, p) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"labels\":{},",
                json_string(&p.name),
                json_string(&p.labels)
            ));
            match &p.value {
                SeriesValue::Rate { delta, per_sec } => {
                    out.push_str(&format!(
                        "\"kind\":\"rate\",\"delta\":{delta},\"per_sec\":{}",
                        fmt_json_f64(*per_sec)
                    ));
                }
                SeriesValue::Point(v) => {
                    out.push_str(&format!("\"kind\":\"gauge\",\"value\":{v}"));
                }
                SeriesValue::Buckets {
                    bounds,
                    deltas,
                    sum,
                    count,
                } => {
                    let bounds_s: Vec<String> = bounds.iter().map(|b| fmt_json_f64(*b)).collect();
                    let deltas_s: Vec<String> = deltas.iter().map(u64::to_string).collect();
                    out.push_str(&format!(
                        "\"kind\":\"hist\",\"bounds\":[{}],\"deltas\":[{}],\"sum\":{},\"count\":{count}",
                        bounds_s.join(","),
                        deltas_s.join(","),
                        fmt_json_f64(*sum)
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// JSON has no Infinity/NaN; clamp the pathological cases to 0 (they
/// only arise from degenerate windows).
fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_counters_gauges_and_histograms() {
        let reg = Registry::new();
        let ring = SeriesRing::new(8);
        let c = reg.counter("jobs_total", "J.", &[("status", "ok")]);
        let g = reg.gauge("depth", "D.", &[]);
        let h = reg.histogram("lat_seconds", "L.", &[], &[1.0, 2.0]);
        c.add(3);
        g.set(5);
        h.observe(0.5);
        ring.sample(&reg);
        c.add(2);
        g.set(1);
        h.observe(1.5);
        h.observe(9.0);
        ring.sample(&reg);
        let w = ring.window(1, None);
        assert_eq!(w.len(), 1);
        let by_name: BTreeMap<&str, &SeriesValue> = w[0]
            .points
            .iter()
            .map(|p| (p.name.as_str(), &p.value))
            .collect();
        match by_name["jobs_total"] {
            SeriesValue::Rate { delta, per_sec } => {
                assert_eq!(*delta, 2);
                assert!(*per_sec > 0.0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(*by_name["depth"], SeriesValue::Point(1));
        match by_name["lat_seconds"] {
            SeriesValue::Buckets {
                bounds,
                deltas,
                sum,
                count,
            } => {
                assert_eq!(bounds, &[1.0, 2.0]);
                // Window saw one obs in (1,2] and one in +Inf.
                assert_eq!(deltas, &[0, 1, 1]);
                assert!((sum - 10.5).abs() < 1e-9);
                assert_eq!(*count, 2);
            }
            other => panic!("{other:?}"),
        }
        // The first window measured from zero.
        let first = &ring.window(0, None)[0];
        let p = first
            .points
            .iter()
            .find(|p| p.name == "jobs_total")
            .unwrap();
        assert!(matches!(p.value, SeriesValue::Rate { delta: 3, .. }));
    }

    #[test]
    fn ring_wraps_at_capacity_and_keeps_newest() {
        let reg = Registry::new();
        reg.counter("ticks_total", "T.", &[]).inc();
        let ring = SeriesRing::new(3);
        let mut last_seq = 0;
        for _ in 0..7 {
            last_seq = ring.sample(&reg);
        }
        assert_eq!(last_seq, 6);
        assert_eq!(ring.len(), 3);
        let w = ring.window(0, None);
        let seqs: Vec<u64> = w.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]); // oldest evicted, order kept
        assert_eq!(ring.window(2, None).len(), 2);
    }

    #[test]
    fn filter_restricts_by_name_substring() {
        let reg = Registry::new();
        reg.counter("nqpv_jobs_total", "J.", &[]).inc();
        reg.gauge("nqpv_depth", "D.", &[]).set(1);
        let ring = SeriesRing::new(2);
        ring.sample(&reg);
        let w = ring.window(0, Some("jobs"));
        assert_eq!(w[0].points.len(), 1);
        assert_eq!(w[0].points[0].name, "nqpv_jobs_total");
        // Sample metadata survives filtering.
        assert_eq!(w[0].seq, 0);
    }

    #[test]
    fn deltas_are_correct_under_concurrent_recording() {
        // Writers hammer a counter and a histogram while the sampler
        // ticks; afterwards the sum of per-window deltas must equal the
        // final totals exactly — the diff-based ring never double-counts
        // or drops increments (ring capacity covers all windows here).
        let reg = std::sync::Arc::new(Registry::new());
        let ring = std::sync::Arc::new(SeriesRing::new(64));
        let c = reg.counter("ops_total", "O.", &[]);
        let h = reg.histogram("dur_seconds", "D.", &[], &[0.5]);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let (c, h, stop) = (c.clone(), h.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        c.inc();
                        h.observe(if n.is_multiple_of(2) { 0.1 } else { 1.0 });
                        n += 1;
                        if n.is_multiple_of(64) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for _ in 0..20 {
            ring.sample(&reg);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        ring.sample(&reg); // final tick drains the tail
        let windows = ring.window(0, None);
        let mut counter_sum = 0u64;
        let mut hist_count = 0u64;
        let mut bucket_sums = [0u64; 2];
        for w in &windows {
            for p in &w.points {
                match (&p.name[..], &p.value) {
                    ("ops_total", SeriesValue::Rate { delta, .. }) => counter_sum += delta,
                    ("dur_seconds", SeriesValue::Buckets { deltas, count, .. }) => {
                        hist_count += count;
                        for (slot, d) in bucket_sums.iter_mut().zip(deltas) {
                            *slot += d;
                        }
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(counter_sum, c.get());
        let final_snap = h.snapshot();
        assert_eq!(hist_count, final_snap.count);
        // Re-cumulated bucket deltas reproduce the final snapshot.
        assert_eq!(bucket_sums[0], final_snap.cumulative[0]);
        assert_eq!(bucket_sums[0] + bucket_sums[1], final_snap.cumulative[1]);
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        let reg = Registry::new();
        reg.counter("a_total", "A.", &[("k", "v\"q")]).inc();
        reg.histogram("h_seconds", "H.", &[], &[1.0]).observe(0.5);
        let ring = SeriesRing::new(2);
        ring.sample(&reg);
        let json = ring.to_json(0, None);
        assert!(json.starts_with("{\"samples\":["), "{json}");
        assert!(json.contains("\"kind\":\"rate\""), "{json}");
        assert!(json.contains("\"kind\":\"hist\""), "{json}");
        // Label quotes are escaped, and no raw newlines leak in.
        assert!(json.contains("{k=\\\"v\\\\\\\"q\\\"}"), "{json}");
        assert!(!json.contains('\n'));
    }
}
