//! Rendering of [`Counterexample`](crate::Counterexample)s: a compact
//! single-line JSON object (embeddable in the engine's batch report and
//! the service's NDJSON `verdict` events) and a human-readable story.
//! Self-contained writer — the workspace vendors no serde.

use crate::{Counterexample, TrajectoryPoint, Witness};
use nqpv_telemetry::json_string;
use std::fmt::Write as _;

impl Counterexample {
    /// Compact, single-line JSON rendering. Numbers use Rust's
    /// shortest-roundtrip `f64` formatting (never scientific notation),
    /// so the output is strict JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        let _ = write!(out, "\"proof\":{}", json_string(&self.proof));
        let _ = write!(out, ",\"obligation\":{}", json_string(&self.obligation));
        let _ = write!(out, ",\"vc_index\":{}", self.vc_index);
        let _ = write!(out, ",\"confirmed\":{}", self.confirmed);
        let _ = write!(out, ",\"exhaustive\":{}", self.exhaustive);
        let _ = write!(out, ",\"gap\":{}", num(self.gap));
        let _ = write!(out, ",\"solver_margin\":{}", num(self.solver_margin));
        let _ = write!(out, ",\"pre_expectation\":{}", num(self.pre_expectation));
        let _ = write!(out, ",\"post_expectation\":{}", num(self.post_expectation));
        out.push_str(",\"witness\":");
        witness_json(&mut out, &self.witness);
        out.push_str(",\"schedule\":[");
        for (i, step) in self.schedule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"branch\":\"{}\"}}",
                step.index,
                if step.right { "right" } else { "left" }
            );
        }
        out.push_str("],\"trajectory\":[");
        for (i, p) in self.trajectory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"statement\":{},\"expectation\":{},\"trace\":{}}}",
                json_string(&p.statement),
                num(p.expectation),
                num(p.trace)
            );
        }
        out.push_str("]}");
        out
    }

    /// Multi-line human rendering: witness amplitudes, the demon's branch
    /// choices, and the per-statement expectation trajectory.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "counterexample for proof '{}':", self.proof);
        let _ = writeln!(out, "  obligation: {}", self.obligation);
        match &self.witness.amplitudes {
            Some(amps) => {
                let rendered: Vec<String> = amps
                    .iter()
                    .enumerate()
                    .filter(|(_, z)| z.abs() > 1e-9)
                    .map(|(i, z)| {
                        let bits = format!(
                            "{:0width$b}",
                            i,
                            width = amps.len().trailing_zeros() as usize
                        );
                        if z.im.abs() < 1e-9 {
                            format!("{:+.4}·|{}⟩", z.re, bits)
                        } else {
                            format!("({:+.4}{:+.4}i)·|{}⟩", z.re, z.im, bits)
                        }
                    })
                    .collect();
                let _ = writeln!(out, "  witness |v⟩ = {}", rendered.join(" "));
            }
            None => {
                let _ = writeln!(
                    out,
                    "  witness ρ: mixed state (purity {:.4}), dim {}",
                    self.witness.purity,
                    self.witness.rho.rows()
                );
            }
        }
        if self.schedule.is_empty() {
            let _ = writeln!(out, "  scheduler: (no nondeterministic choices)");
        } else {
            let choices: Vec<String> = self
                .schedule
                .iter()
                .map(|s| format!("#{} → {}", s.index, if s.right { "right" } else { "left" }))
                .collect();
            let _ = writeln!(
                out,
                "  scheduler ({}): {}",
                if self.exhaustive {
                    "exhaustive search"
                } else {
                    "best found within budget"
                },
                choices.join(", ")
            );
        }
        let _ = writeln!(out, "  trajectory (expectation of the required condition):");
        for TrajectoryPoint {
            statement,
            expectation,
            trace,
        } in &self.trajectory
        {
            let _ = writeln!(
                out,
                "    {expectation:>8.4}  (mass {trace:.4})  after {statement}"
            );
        }
        let _ = writeln!(
            out,
            "  promised Exp(ρ ⊨ pre) = {:.6}, delivered = {:.6}",
            self.pre_expectation, self.post_expectation
        );
        let _ = writeln!(
            out,
            "  replay gap = {:.6} (solver margin {:.6}) — {}",
            self.gap,
            self.solver_margin,
            if self.confirmed {
                "CONFIRMED violation"
            } else {
                "below confirmation threshold"
            }
        );
        out
    }
}

fn witness_json(out: &mut String, w: &Witness) {
    let _ = write!(
        out,
        "{{\"dim\":{},\"purity\":{}",
        w.rho.rows(),
        num(w.purity)
    );
    if let Some(amps) = &w.amplitudes {
        out.push_str(",\"amplitudes\":[");
        for (i, z) in amps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", num(z.re), num(z.im));
        }
        out.push(']');
    }
    out.push_str(",\"rho\":[");
    for i in 0..w.rho.rows() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for j in 0..w.rho.cols() {
            if j > 0 {
                out.push(',');
            }
            let z = w.rho[(i, j)];
            let _ = write!(out, "[{},{}]", num(z.re), num(z.im));
        }
        out.push(']');
    }
    out.push_str("]}");
}

/// Finite `f64` as a strict-JSON number (non-finite values degrade to 0 —
/// they cannot arise from trace expectations of valid states).
fn num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` on f64 never emits scientific notation, but ensure a JSON
        // number (it always is); integers render without a dot, fine.
        s
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain_source;
    use nqpv_core::VcOptions;
    use std::path::Path;

    fn sample() -> Counterexample {
        let report = explain_source(
            "def pf := proof [q] : { P0[q] }; ( skip # [q] *= X ); { P0[q] } end",
            Path::new("."),
            VcOptions::default(),
        )
        .unwrap();
        report[0].counterexample.clone().expect("rejected")
    }

    #[test]
    fn json_is_single_line_and_balanced() {
        let json = sample().to_json();
        assert!(!json.contains('\n'), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}: {json}"
            );
        }
        for needle in [
            "\"proof\":\"pf\"",
            "\"confirmed\":true",
            "\"gap\":1",
            "\"schedule\":[{\"index\":0,\"branch\":\"right\"}]",
            "\"amplitudes\":",
            "\"rho\":",
            "\"trajectory\":",
        ] {
            assert!(json.contains(needle), "missing {needle}: {json}");
        }
    }

    #[test]
    fn human_story_names_the_branches_and_the_gap() {
        let text = sample().human();
        assert!(text.contains("counterexample for proof 'pf'"), "{text}");
        assert!(text.contains("#0 → right"), "{text}");
        assert!(text.contains("CONFIRMED violation"), "{text}");
        assert!(text.contains("|0⟩"), "{text}");
    }

    #[test]
    fn json_numbers_are_plain() {
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(1.0), "1");
        assert_eq!(num(f64::NAN), "0");
    }
}
