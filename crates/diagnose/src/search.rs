//! Demonic scheduler search: resolve the nondeterministic choices of a
//! program into the explicit scheduler that *realises* a violation.
//!
//! The demonic reading quantifies over schedulers `η`: the triple fails
//! when some `η` drives the liberal satisfaction
//! `Exp(σ_η ⊨ Ψ) + (tr ρ − tr σ_η)` below `Exp(ρ ⊨ Θ)`. The search below
//! enumerates scheduler scripts (one bit per dynamically encountered `□`,
//! in execution order) in one branching forward execution
//! ([`nqpv_semantics::exec_branching`]) and returns the minimising script
//! — for loop-free programs this is exact; loops are fuel-bounded and the
//! search is capped by a schedule budget, in which case the best script
//! found so far is returned and flagged non-exhaustive.

use nqpv_core::{Assertion, Mode};
use nqpv_linalg::CMat;
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_semantics::{
    exec_branching, Choice, ExecOptions, Explorer, Fork, Scheduler, SemanticsError,
};

/// A scheduler that replays a fixed script in **arrival order** (one bit
/// per `decide` call, `true` = right branch), padding with left choices
/// once the script is exhausted. Unlike [`nqpv_semantics::FromBits`] it
/// ignores the global choice index and counts consumption itself, so one
/// script can be threaded across several `exec_scheduled` calls (each of
/// which restarts the index at 0) — exactly what statement-by-statement
/// trajectory replay needs.
#[derive(Debug, Clone)]
pub struct ScriptSched {
    bits: Vec<bool>,
    /// Choices consumed so far (across every call this scheduler served).
    pub used: usize,
}

impl ScriptSched {
    /// A scheduler replaying `bits` (then left-padding).
    pub fn new(bits: Vec<bool>) -> Self {
        ScriptSched { bits, used: 0 }
    }
}

impl Scheduler for ScriptSched {
    fn decide(&mut self, _k: usize) -> Choice {
        let bit = self.bits.get(self.used).copied().unwrap_or(false);
        self.used += 1;
        if bit {
            Choice::Right
        } else {
            Choice::Left
        }
    }
}

/// Result of a demonic scheduler search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The minimising script: one bit per choice its run met.
    pub bits: Vec<bool>,
    /// The minimised liberal satisfaction
    /// `Exp(σ ⊨ Ψ) + slack` (slack = lost trace mass in partial mode).
    pub score: f64,
    /// The output state under the minimising script.
    pub sigma: CMat,
    /// `true` when every scheduler script was enumerated within the
    /// budget (always the case for loop-free programs with few `□`s).
    pub exhaustive: bool,
    /// Schedules scored: complete scripts, each reached once.
    pub runs: usize,
}

/// The liberal slack of partial correctness: trace mass lost to `abort`
/// or fuel-exhausted loops counts as satisfied (`wlp`'s `I − E†(I)` term).
fn slack(mode: Mode, rho: &CMat, sigma: &CMat) -> f64 {
    match mode {
        Mode::Partial => (rho.trace_re() - sigma.trace_re()).max(0.0),
        Mode::Total => 0.0,
    }
}

/// Finds the scheduler minimising `Exp(σ ⊨ post) + slack` from input
/// `rho`. Scripts are scored in lexicographic order (left before right)
/// and the first minimum wins; at most `budget` of them are scored, so
/// a truncated search returns the best of the first `budget` scripts.
///
/// # Errors
///
/// Propagates [`SemanticsError`] from forward execution (unknown
/// operators, arity mismatches) — callers run on already-verified
/// programs, so this is defensive.
#[allow(clippy::too_many_arguments)]
pub fn demonic_schedule(
    stmt: &nqpv_lang::Stmt,
    rho: &CMat,
    post: &Assertion,
    lib: &OperatorLibrary,
    reg: &Register,
    mode: Mode,
    exec: ExecOptions,
    budget: usize,
) -> Result<SearchOutcome, SemanticsError> {
    struct Demon<'a> {
        rho: &'a CMat,
        post: &'a Assertion,
        mode: Mode,
        budget: usize,
        runs: usize,
        best: Option<(f64, Vec<bool>, CMat)>,
    }
    impl Explorer for Demon<'_> {
        fn fork(&mut self, _path: &[bool]) -> Fork {
            Fork::Both
        }
        fn leaf(&mut self, path: &[bool], sigma: CMat) -> bool {
            self.runs += 1;
            let score = self.post.expectation(&sigma) + slack(self.mode, self.rho, &sigma);
            if self.best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                self.best = Some((score, path.to_vec(), sigma));
            }
            self.runs < self.budget
        }
    }
    let mut demon = Demon {
        rho,
        post,
        mode,
        budget: budget.max(1),
        runs: 0,
        best: None,
    };
    let exhaustive = exec_branching(stmt, rho, lib, reg, &mut demon, exec)?;
    let (score, bits, sigma) = demon.best.expect("at least one schedule was executed");
    Ok(SearchOutcome {
        bits,
        score,
        sigma,
        exhaustive,
        runs: demon.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_lang::parse_stmt;
    use nqpv_quantum::ket;
    use nqpv_semantics::exec_scheduled;

    fn setup() -> (OperatorLibrary, Register) {
        (
            OperatorLibrary::with_builtins(),
            Register::new(&["q"]).unwrap(),
        )
    }

    #[test]
    fn script_sched_replays_in_arrival_order_across_calls() {
        let (lib, reg) = setup();
        let s = parse_stmt("( skip # [q] *= X )").unwrap();
        let rho = ket("0").projector();
        let mut sched = ScriptSched::new(vec![true, false]);
        // First call consumes bit 0 (Right → X applied).
        let out1 =
            exec_scheduled(&s, &rho, &lib, &reg, &mut sched, ExecOptions::default()).unwrap();
        assert!(out1.approx_eq(&ket("1").projector(), 1e-12));
        assert_eq!(sched.used, 1);
        // Second call continues with bit 1 (Left → skip).
        let out2 =
            exec_scheduled(&s, &out1, &lib, &reg, &mut sched, ExecOptions::default()).unwrap();
        assert!(out2.approx_eq(&ket("1").projector(), 1e-12));
        assert_eq!(sched.used, 2);
        // Exhausted script pads with Left.
        let out3 =
            exec_scheduled(&s, &out2, &lib, &reg, &mut sched, ExecOptions::default()).unwrap();
        assert!(out3.approx_eq(&ket("1").projector(), 1e-12));
    }

    #[test]
    fn search_finds_the_violating_branch() {
        // (skip # X) from |0⟩ against post P0: the demon flips — score 0,
        // schedule [Right].
        let (lib, reg) = setup();
        let s = parse_stmt("( skip # [q] *= X )").unwrap();
        let rho = ket("0").projector();
        let post = Assertion::from_ops(2, vec![ket("0").projector()]).unwrap();
        let out = demonic_schedule(
            &s,
            &rho,
            &post,
            &lib,
            &reg,
            Mode::Partial,
            ExecOptions::default(),
            256,
        )
        .unwrap();
        assert!(out.exhaustive);
        assert!(out.score.abs() < 1e-12, "score {}", out.score);
        assert_eq!(out.bits, vec![true]);
        // Against post P1 the demon keeps the state: score 0, [Left].
        let post1 = Assertion::from_ops(2, vec![ket("1").projector()]).unwrap();
        let out1 = demonic_schedule(
            &s,
            &rho,
            &post1,
            &lib,
            &reg,
            Mode::Partial,
            ExecOptions::default(),
            256,
        )
        .unwrap();
        assert!(out1.score.abs() < 1e-12);
        assert_eq!(out1.bits, vec![false]);
    }

    #[test]
    fn nested_choices_enumerate_fully() {
        // Two sequential choices: demon must pick Right then Right to
        // reach |0⟩ again (X;X). Post P1 forces exactly one flip.
        let (lib, reg) = setup();
        let s = parse_stmt("( skip # [q] *= X ); ( skip # [q] *= X )").unwrap();
        let rho = ket("0").projector();
        let post = Assertion::from_ops(2, vec![ket("1").projector()]).unwrap();
        let out = demonic_schedule(
            &s,
            &rho,
            &post,
            &lib,
            &reg,
            Mode::Partial,
            ExecOptions::default(),
            256,
        )
        .unwrap();
        assert!(out.exhaustive);
        assert!(out.score.abs() < 1e-12);
        // Either [L, L] or [R, R] leaves the state at |0⟩ (score 0).
        assert_eq!(out.bits.len(), 2);
        assert_eq!(out.bits[0], out.bits[1]);
    }

    #[test]
    fn partial_mode_credits_lost_mass() {
        // if M01 then abort else skip from |+⟩: half the mass aborts. In
        // partial mode the lost mass counts as satisfied, so the score
        // against Zero is tr-slack = 1/2; in total mode it is 0.
        let (lib, reg) = setup();
        let s = parse_stmt("if M01[q] then abort else skip end").unwrap();
        let rho = ket("+").projector();
        let post = Assertion::zero(2);
        let partial = demonic_schedule(
            &s,
            &rho,
            &post,
            &lib,
            &reg,
            Mode::Partial,
            ExecOptions::default(),
            64,
        )
        .unwrap();
        assert!((partial.score - 0.5).abs() < 1e-10, "{}", partial.score);
        let total = demonic_schedule(
            &s,
            &rho,
            &post,
            &lib,
            &reg,
            Mode::Total,
            ExecOptions::default(),
            64,
        )
        .unwrap();
        assert!(total.score.abs() < 1e-10);
    }

    #[test]
    fn budget_truncation_still_returns_a_schedule() {
        let (lib, reg) = setup();
        // A loop with a choice inside: unbounded script space. In total
        // mode the demon keeps mass circulating until the fuel runs out.
        let s = parse_stmt("while M01[q] do ( [q] *= H # skip ) end").unwrap();
        let rho = ket("1").projector();
        let post = Assertion::identity(2);
        let exec = ExecOptions {
            fuel: 16,
            ..ExecOptions::default()
        };
        let budget = 8;
        let out = demonic_schedule(&s, &rho, &post, &lib, &reg, Mode::Total, exec, budget).unwrap();
        assert!(!out.exhaustive);
        assert_eq!(out.runs, budget);
        // It is the best of the first `budget` schedules, left first: run
        // them one by one, each the lexicographic successor of the last
        // (flip its last left choice, drop what follows, pad with left).
        let mut best: Option<(f64, Vec<bool>, CMat)> = None;
        let mut prefix = Vec::new();
        let mut first = None;
        for _ in 0..budget {
            let mut sched = ScriptSched::new(prefix.clone());
            let sigma = exec_scheduled(&s, &rho, &lib, &reg, &mut sched, exec).unwrap();
            let score = post.expectation(&sigma) + slack(Mode::Total, &rho, &sigma);
            let mut bits = prefix.clone();
            bits.resize(sched.used, false);
            first.get_or_insert_with(|| bits.clone());
            if best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                best = Some((score, bits.clone(), sigma));
            }
            let last_left = bits.iter().rposition(|&b| !b).expect("more schedules");
            bits.truncate(last_left);
            bits.push(true);
            prefix = bits;
        }
        let (score, bits, sigma) = best.unwrap();
        assert_eq!(out.bits, bits);
        assert_eq!(out.score.to_bits(), score.to_bits());
        assert_eq!(out.sigma.as_slice(), sigma.as_slice());
        // A later schedule beat the first one.
        assert_ne!(Some(out.bits), first);
    }
}
