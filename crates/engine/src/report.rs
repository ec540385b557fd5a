//! Structured batch results: per-job status, timings, cache counters,
//! with JSON and human renderings (no external serialisation crates —
//! the JSON writer below is self-contained).

use crate::cache::CacheStats;
use nqpv_telemetry::{json_string, Phase, PhaseTotals};
use std::fmt::Write as _;

/// Verdict for one named proof inside a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofReport {
    /// The proof's `def` name.
    pub name: String,
    /// Whether the correctness formula was established.
    pub verified: bool,
}

/// Outcome of one corpus job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The file ran and every proof verified.
    Verified {
        /// Per-proof verdicts (all true).
        proofs: Vec<ProofReport>,
    },
    /// The file ran but at least one proof was rejected.
    Rejected {
        /// Per-proof verdicts.
        proofs: Vec<ProofReport>,
    },
    /// The file failed structurally: parse error, unknown operator,
    /// missing `.npy`, invalid invariant, …
    Error {
        /// The session error message.
        message: String,
    },
    /// The job's cooperative deadline (`--job-timeout`) expired before
    /// a verdict was reached.
    Timeout {
        /// The timeout message, including the statement span the
        /// backward pass had reached (the partial-trajectory marker).
        message: String,
    },
}

impl JobStatus {
    /// Stable status label used in JSON and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Verified { .. } => "verified",
            JobStatus::Rejected { .. } => "rejected",
            JobStatus::Error { .. } => "error",
            JobStatus::Timeout { .. } => "timeout",
        }
    }
}

/// One job's report.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name (file stem).
    pub name: String,
    /// Source path, when disk-backed.
    pub path: Option<String>,
    /// The verdict.
    pub status: JobStatus,
    /// Wall-clock verification time in milliseconds.
    pub ms: f64,
    /// Verdict-cache affinity bin (see
    /// [`crate::corpus::affinity_bin`]) — the scheduler's binning
    /// decision, surfaced so `--json` consumers can audit placement.
    pub bin: u64,
    /// Index of the pool worker that ran the job.
    pub worker: usize,
    /// Extracted counterexamples for rejected proofs (non-empty only
    /// when the run diagnosed with `explain` and the job was rejected).
    pub counterexamples: Vec<nqpv_diagnose::Counterexample>,
    /// Per-phase span counts and latency totals collected by the job's
    /// tracer (parse / wp / solver / cache / …).
    pub phases: PhaseTotals,
    /// Worker-side Chrome trace events (a bare JSON array, wall-clock
    /// timestamps) when the job carried an active wire trace context —
    /// the daemon's half of a client-stitched trace. Not rendered into
    /// batch JSON.
    pub trace_json: Option<String>,
}

/// The whole batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job reports, in corpus order.
    pub jobs: Vec<JobReport>,
    /// Worker threads used.
    pub workers: usize,
    /// Distinct scheduling groups the corpus collapsed into (equals the
    /// job count when bin scheduling is off).
    pub bins: usize,
    /// End-to-end wall time in milliseconds.
    pub total_ms: f64,
    /// Cache counters (`None` when caching was disabled).
    pub cache: Option<CacheStats>,
}

impl BatchReport {
    /// Number of fully verified jobs.
    pub fn verified_jobs(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Verified { .. }))
    }

    /// Number of jobs with at least one rejected proof.
    pub fn rejected_jobs(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Rejected { .. }))
    }

    /// Number of jobs that failed structurally.
    pub fn errored_jobs(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Error { .. }))
    }

    /// Number of jobs that hit their deadline.
    pub fn timed_out_jobs(&self) -> usize {
        self.count(|s| matches!(s, JobStatus::Timeout { .. }))
    }

    fn count(&self, pred: impl Fn(&JobStatus) -> bool) -> usize {
        self.jobs.iter().filter(|j| pred(&j.status)).count()
    }

    /// `true` when every job verified.
    pub fn all_verified(&self) -> bool {
        self.verified_jobs() == self.jobs.len()
    }

    /// Phase totals aggregated across every job of the batch.
    pub fn phase_totals(&self) -> PhaseTotals {
        let mut total = PhaseTotals::default();
        for job in &self.jobs {
            total.merge(&job.phases);
        }
        total
    }

    /// Machine-readable JSON rendering of the whole report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"bins\": {},", self.bins);
        let _ = writeln!(out, "  \"total_ms\": {:.3},", self.total_ms);
        match &self.cache {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"evictions\": {}, \"hit_rate\": {:.4}, \
                     \"verdict_hits\": {}, \"verdict_misses\": {}, \"verdict_entries\": {}, \"verdict_evictions\": {}, \"verdict_hit_rate\": {:.4}, \
                     \"disk_hits\": {}, \"disk_misses\": {}, \"disk_writes\": {}, \
                     \"disk_entries\": {}, \"disk_bytes\": {}, \
                     \"disk_quarantined\": {}, \"disk_evicted\": {}}},",
                    c.hits,
                    c.misses,
                    c.entries,
                    c.evictions,
                    c.hit_rate(),
                    c.verdict_hits,
                    c.verdict_misses,
                    c.verdict_entries,
                    c.verdict_evictions,
                    c.verdict_hit_rate(),
                    c.disk_hits,
                    c.disk_misses,
                    c.disk_writes,
                    c.disk_entries,
                    c.disk_bytes,
                    c.disk_quarantined,
                    c.disk_evicted
                );
            }
            None => out.push_str("  \"cache\": null,\n"),
        }
        let _ = writeln!(out, "  \"verified\": {},", self.verified_jobs());
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected_jobs());
        let _ = writeln!(out, "  \"errors\": {},", self.errored_jobs());
        let _ = writeln!(out, "  \"timeouts\": {},", self.timed_out_jobs());
        let _ = writeln!(out, "  \"phases\": {},", phases_json(&self.phase_totals()));
        out.push_str("  \"jobs\": [\n");
        for (i, job) in self.jobs.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(out, "\"name\": {}", json_string(&job.name));
            if let Some(path) = &job.path {
                let _ = write!(out, ", \"path\": {}", json_string(path));
            }
            let _ = write!(out, ", \"status\": \"{}\"", job.status.label());
            let _ = write!(out, ", \"ms\": {:.3}", job.ms);
            let _ = write!(out, ", \"bin\": \"{:016x}\"", job.bin);
            let _ = write!(out, ", \"worker\": {}", job.worker);
            match &job.status {
                JobStatus::Verified { proofs } | JobStatus::Rejected { proofs } => {
                    out.push_str(", \"proofs\": [");
                    for (k, p) in proofs.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(
                            out,
                            "{{\"name\": {}, \"verified\": {}}}",
                            json_string(&p.name),
                            p.verified
                        );
                    }
                    out.push(']');
                }
                JobStatus::Error { message } | JobStatus::Timeout { message } => {
                    let _ = write!(out, ", \"error\": {}", json_string(message));
                }
            }
            if !job.phases.is_empty() {
                let _ = write!(out, ", \"phases\": {}", phases_json(&job.phases));
            }
            if !job.counterexamples.is_empty() {
                out.push_str(", \"counterexamples\": [");
                for (k, cex) in job.counterexamples.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&cex.to_json());
                }
                out.push(']');
            }
            out.push('}');
            if i + 1 < self.jobs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-oriented multi-line summary.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            let detail = match &job.status {
                JobStatus::Verified { proofs } => format!("{} proof(s)", proofs.len()),
                JobStatus::Rejected { proofs } => {
                    let failed: Vec<&str> = proofs
                        .iter()
                        .filter(|p| !p.verified)
                        .map(|p| p.name.as_str())
                        .collect();
                    format!("rejected: {}", failed.join(", "))
                }
                JobStatus::Error { message } => {
                    message.lines().next().unwrap_or("error").to_string()
                }
                JobStatus::Timeout { message } => {
                    message.lines().next().unwrap_or("timeout").to_string()
                }
            };
            let _ = writeln!(
                out,
                "{:<20} {:>9}  {:>9.3} ms  {}",
                job.name,
                job.status.label(),
                job.ms,
                detail
            );
            for cex in &job.counterexamples {
                for line in cex.human().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        let _ = writeln!(
            out,
            "---\n{} job(s): {} verified, {} rejected, {} error(s), {} timed out; {} worker(s), {} bin(s), {:.3} ms total",
            self.jobs.len(),
            self.verified_jobs(),
            self.rejected_jobs(),
            self.errored_jobs(),
            self.timed_out_jobs(),
            self.workers,
            self.bins,
            self.total_ms
        );
        if let Some(c) = &self.cache {
            let _ = writeln!(
                out,
                "cache: {} hit(s), {} miss(es), {} entr{}, {} eviction(s), hit rate {:.1}%",
                c.hits,
                c.misses,
                c.entries,
                if c.entries == 1 { "y" } else { "ies" },
                c.evictions,
                c.hit_rate() * 100.0
            );
            let _ = writeln!(
                out,
                "verdict cache: {} hit(s), {} miss(es), {} entr{}, {} eviction(s), hit rate {:.1}%",
                c.verdict_hits,
                c.verdict_misses,
                c.verdict_entries,
                if c.verdict_entries == 1 { "y" } else { "ies" },
                c.verdict_evictions,
                c.verdict_hit_rate() * 100.0
            );
            if c.disk_hits + c.disk_misses + c.disk_writes > 0 {
                let _ = writeln!(
                    out,
                    "disk cache: {} hit(s), {} miss(es), {} write(s); {} record(s), {} byte(s) on disk",
                    c.disk_hits, c.disk_misses, c.disk_writes, c.disk_entries, c.disk_bytes
                );
                if c.disk_quarantined + c.disk_evicted > 0 {
                    let _ = writeln!(
                        out,
                        "disk hygiene: {} record(s) quarantined, {} evicted by the size budget",
                        c.disk_quarantined, c.disk_evicted
                    );
                }
            }
        }
        let totals = self.phase_totals();
        if !totals.is_empty() {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>12} {:>10}",
                "phase", "spans", "total ms", "avg ms"
            );
            for phase in Phase::ALL {
                let (count, micros) = totals.get(phase);
                if count == 0 {
                    continue;
                }
                let total_ms = micros as f64 / 1e3;
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>12.3} {:>10.3}",
                    phase.label(),
                    count,
                    total_ms,
                    total_ms / count as f64
                );
            }
        }
        out
    }
}

/// Renders a [`PhaseTotals`] as a JSON object keyed by phase label, one
/// `{"spans": N, "ms": T}` entry per non-empty phase.
fn phases_json(totals: &PhaseTotals) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for phase in Phase::ALL {
        let (count, micros) = totals.get(phase);
        if count == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"spans\": {}, \"ms\": {:.3}}}",
            phase.label(),
            count,
            micros as f64 / 1e3
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchReport {
        BatchReport {
            jobs: vec![
                JobReport {
                    name: "a".into(),
                    path: Some("dir/a.nqpv".into()),
                    status: JobStatus::Verified {
                        proofs: vec![ProofReport {
                            name: "pf".into(),
                            verified: true,
                        }],
                    },
                    ms: 1.25,
                    bin: 0xDEAD_BEEF,
                    worker: 0,
                    counterexamples: Vec::new(),
                    phases: {
                        let mut p = PhaseTotals::default();
                        p.add(Phase::Wp, 1500);
                        p.add(Phase::Solver, 250);
                        p
                    },
                    trace_json: None,
                },
                JobReport {
                    name: "b".into(),
                    path: None,
                    status: JobStatus::Error {
                        message: "line 1: unexpected \"token\"\nmore".into(),
                    },
                    ms: 0.5,
                    bin: 0x1,
                    worker: 1,
                    counterexamples: Vec::new(),
                    phases: PhaseTotals::default(),
                    trace_json: None,
                },
            ],
            workers: 2,
            bins: 2,
            total_ms: 2.0,
            cache: Some(CacheStats {
                hits: 1,
                misses: 3,
                entries: 3,
                evictions: 2,
                verdict_hits: 3,
                verdict_misses: 1,
                verdict_entries: 1,
                verdict_evictions: 0,
                disk_hits: 5,
                disk_misses: 2,
                disk_writes: 2,
                disk_entries: 2,
                disk_bytes: 4096,
                disk_quarantined: 0,
                disk_evicted: 0,
            }),
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = sample().to_json();
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"status\": \"verified\""));
        assert!(json.contains("\\\"token\\\""), "{json}");
        assert!(json.contains("\\n"), "newlines escaped");
        assert!(json.contains("\"hit_rate\": 0.2500"));
        assert!(json.contains("\"evictions\": 2"), "{json}");
        assert!(json.contains("\"verdict_hits\": 3"), "{json}");
        assert!(json.contains("\"verdict_evictions\": 0"), "{json}");
        assert!(json.contains("\"verdict_hit_rate\": 0.7500"), "{json}");
        assert!(json.contains("\"bins\": 2"), "{json}");
        assert!(json.contains("\"bin\": \"00000000deadbeef\""), "{json}");
        assert!(json.contains("\"worker\": 1"), "{json}");
        assert!(json.contains("\"disk_hits\": 5"), "{json}");
        assert!(json.contains("\"disk_writes\": 2"), "{json}");
        assert!(json.contains("\"disk_entries\": 2"), "{json}");
        assert!(json.contains("\"disk_bytes\": 4096"), "{json}");
        // Per-job wall time and phase breakdown ride along.
        assert!(json.contains("\"ms\": 1.250"), "{json}");
        assert!(
            json.contains("\"phases\": {\"wp\": {\"spans\": 1, \"ms\": 1.500}, \"solver\": {\"spans\": 1, \"ms\": 0.250}}"),
            "{json}"
        );
        // Balanced braces/brackets (cheap structural sanity check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close} in {json}"
            );
        }
    }

    #[test]
    fn summary_counts_statuses() {
        let report = sample();
        assert_eq!(report.verified_jobs(), 1);
        assert_eq!(report.errored_jobs(), 1);
        assert!(!report.all_verified());
        let text = report.human_summary();
        assert!(text.contains("1 verified"));
        assert!(text.contains("1 error"));
        assert!(text.contains("hit rate 25.0%"));
        assert!(text.contains("2 eviction(s)"), "{text}");
        assert!(text.contains("verdict cache: 3 hit(s)"), "{text}");
        assert!(text.contains("hit rate 75.0%"), "{text}");
        assert!(text.contains("2 bin(s)"), "{text}");
        assert!(
            text.contains(
                "disk cache: 5 hit(s), 2 miss(es), 2 write(s); 2 record(s), 4096 byte(s) on disk"
            ),
            "{text}"
        );
        // Per-job wall time stays in the human report, and the aggregate
        // phase table renders only the non-empty phases.
        assert!(text.contains("1.250 ms"), "{text}");
        assert!(text.contains("phase"), "{text}");
        assert!(text.contains("wp"), "{text}");
        assert!(text.contains("solver"), "{text}");
        assert!(!text.contains("diagnose"), "{text}");
    }

    #[test]
    fn timeouts_render_as_their_own_status() {
        let mut report = sample();
        report.jobs.push(JobReport {
            name: "slow".into(),
            path: None,
            status: JobStatus::Timeout {
                message: "verification deadline exceeded (at statement 2.0)".into(),
            },
            ms: 2000.0,
            bin: 0x2,
            worker: 0,
            counterexamples: Vec::new(),
            phases: PhaseTotals::default(),
            trace_json: None,
        });
        assert_eq!(report.timed_out_jobs(), 1);
        assert_eq!(report.errored_jobs(), 1, "timeouts are not errors");
        let json = report.to_json();
        assert!(json.contains("\"status\": \"timeout\""), "{json}");
        assert!(
            json.contains("\"error\": \"verification deadline exceeded (at statement 2.0)\""),
            "{json}"
        );
        let text = report.human_summary();
        assert!(text.contains("1 timed out"), "{text}");
        assert!(text.contains("(at statement 2.0)"), "{text}");
    }

    #[test]
    fn json_strings_escape_control_chars() {
        let mut report = sample();
        report.jobs[1].name = "dir\\b\u{1}".into();
        let json = report.to_json();
        assert!(json.contains(r#""name": "dir\\b\u0001""#), "{json}");
    }
}
