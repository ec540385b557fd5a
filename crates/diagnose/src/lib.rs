//! # nqpv-diagnose
//!
//! Counterexample extraction & replay: turns a REJECTED verdict into a
//! **witness** — evidence a human (or a script) can check independently
//! of the verifier.
//!
//! The paper's partial-correctness judgement fails exactly when the
//! Löwner comparison `Θ ⊑_inf wp.S.Ψ` fails, and the violating
//! eigenvector of the gap operator *is* a concrete input state refuting
//! the Hoare triple. This crate surfaces that evidence end-to-end:
//!
//! 1. **Witness state** — a normalised `ρ = |v⟩⟨v|` extracted from the
//!    most-negative eigenvector of `wp − Θ` (via
//!    [`nqpv_solver::lowner_le_witnessed`]), falling back to the solver's
//!    own game witness for set-valued sides; the candidate with the
//!    largest operator-level gap wins.
//! 2. **Scheduler trace** — the demonic resolution of every `□`: which
//!    branch the adversary picks, per dynamically encountered choice
//!    (see [`demonic_schedule`]: one branching forward run that shares
//!    the schedules' prefixes, capped at 2048 schedules).
//! 3. **Replay confirmation** — the witness is pushed through
//!    [`nqpv_semantics::exec_scheduled`] under the resolved scheduler and
//!    the gap `Exp(ρ ⊨ Θ) − (Exp(σ ⊨ Ψ) + slack)` is re-measured
//!    numerically, independent of the wp pipeline that produced the
//!    verdict.
//! 4. **Trajectory** — the per-statement expectation of the annotated
//!    intermediate conditions along the replay, showing *where* the
//!    expectation first drops below the requirement.
//!
//! The result is a structured [`Counterexample`] with human
//! ([`Counterexample::human`]) and JSON ([`Counterexample::to_json`])
//! renderings. [`explain_session`] applies the whole pipeline to every
//! proof a [`Session`] has verified, from the session's own records
//! (term, library and verification outcome), so diagnosing costs no
//! second verification: the engine's `--explain` mode and the daemon's
//! `counterexamples` verdict payload use it on the session that produced
//! the verdict. [`explain_source`] runs a session over an `.nqpv` source
//! first — the `nqpv explain` subcommand is a thin wrapper over it.
//!
//! # Example
//!
//! ```
//! use nqpv_core::VcOptions;
//! use nqpv_diagnose::explain_source;
//!
//! // {P1} H {P0} is false: wlp.H.P0 = |+⟩⟨+| and P1 ⋢ |+⟩⟨+|.
//! let report = explain_source(
//!     "def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end",
//!     std::path::Path::new("."),
//!     VcOptions::default(),
//! )
//! .unwrap();
//! let cex = report[0].counterexample.as_ref().expect("rejected");
//! assert!(cex.confirmed && cex.gap > 0.4);
//! ```

mod render;
mod search;

pub use search::{demonic_schedule, ScriptSched, SearchOutcome};

use nqpv_core::{
    backward, AnnotatedNode, Assertion, FailedObligation, Session, VcOptions, VerifyStatus,
};
use nqpv_lang::{parse_source, pretty_assertion, pretty_stmt, Command, ProofTerm, Stmt};
use nqpv_linalg::{eigh, CMat, Complex};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_semantics::{exec_scheduled, ExecOptions};
use std::collections::HashMap;
use std::path::Path;

/// Replay gaps below this threshold are not reported as confirmed
/// counterexamples (the acceptance bar of the subsystem: a reported
/// witness must violate the triple by at least this much under forward
/// replay).
pub const CONFIRM_EPS: f64 = 1e-6;

/// Forward-execution budget for replay and scheduler search.
const REPLAY_FUEL: usize = 64;

/// Cap on the schedules the scheduler search scores (2¹¹ cover every
/// script of up to 11 dynamic choices exhaustively).
const SEARCH_BUDGET: usize = 2048;

/// The refuting input state.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The witness density operator (trace 1).
    pub rho: CMat,
    /// State-vector amplitudes when the witness is (numerically) pure,
    /// global phase fixed so the largest-magnitude amplitude is real
    /// positive.
    pub amplitudes: Option<Vec<Complex>>,
    /// `tr(ρ²)` — 1 for pure witnesses.
    pub purity: f64,
}

impl Witness {
    fn from_rho(rho: CMat) -> Witness {
        let purity = rho.mul(&rho).trace_re();
        let amplitudes = eigh(&rho).ok().and_then(|e| {
            let k = e.values.len() - 1;
            if e.values[k] < 1.0 - 1e-9 {
                return None; // mixed
            }
            let v = e.vectors.col(k);
            // Fix the global phase: rotate the largest-|·| amplitude onto
            // the positive real axis.
            let lead = v
                .as_slice()
                .iter()
                .max_by(|a, b| a.abs().total_cmp(&b.abs()))
                .copied()
                .unwrap_or(Complex::ZERO);
            let phase = if lead.abs() > 1e-12 {
                lead.scale(1.0 / lead.abs()).conj()
            } else {
                Complex::ONE
            };
            Some(v.as_slice().iter().map(|z| *z * phase).collect())
        });
        Witness {
            rho,
            amplitudes,
            purity,
        }
    }
}

/// One resolved nondeterministic choice of the demonic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStep {
    /// Dynamic choice index (0-based, execution order).
    pub index: usize,
    /// `true` = the right operand of `□` (`#` in tool syntax).
    pub right: bool,
}

/// One point of the per-statement expectation trajectory.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    /// One-line rendering of the statement just executed (`(input)` for
    /// the initial point).
    pub statement: String,
    /// `Exp(ρᵢ ⊨ Aᵢ)` — the expectation of the annotated condition that
    /// should hold *at this point* for the proof to go through.
    pub expectation: f64,
    /// `tr ρᵢ` — remaining (non-aborted, loop-exited) mass.
    pub trace: f64,
}

/// A complete, replay-confirmed refutation of one Hoare triple.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The proof's `def` name.
    pub proof: String,
    /// Human description of the failed obligation.
    pub obligation: String,
    /// Index of the violated element of the computed VC set.
    pub vc_index: usize,
    /// The refuting input state.
    pub witness: Witness,
    /// The demon's branch choices, in execution order.
    pub schedule: Vec<ScheduleStep>,
    /// Per-statement expectation trajectory under the resolved scheduler.
    pub trajectory: Vec<TrajectoryPoint>,
    /// `Exp(ρ ⊨ Θ)` — what the precondition promises on the witness.
    pub pre_expectation: f64,
    /// `Exp(σ ⊨ Ψ) + slack` — what the program delivers under the
    /// resolved scheduler (slack = lost trace mass in partial mode).
    pub post_expectation: f64,
    /// The replay gap `pre_expectation − post_expectation` (≥
    /// [`CONFIRM_EPS`] when `confirmed`).
    pub gap: f64,
    /// The operator-level gap `Exp(ρ ⊨ Θ) − tr(VC[vc_index]·ρ)` certified
    /// by the solver on the same witness.
    pub solver_margin: f64,
    /// `true` when the forward replay confirms the violation
    /// (`gap ≥ CONFIRM_EPS`; for total-mode programs with loops the bar
    /// additionally absorbs any fuel-truncated loop mass, so a gap that
    /// could be an artifact of bounded replay is never confirmed).
    pub confirmed: bool,
    /// `true` when the scheduler search enumerated every script.
    pub exhaustive: bool,
}

/// Per-proof diagnosis of a source file.
#[derive(Debug, Clone)]
pub struct ProofDiagnosis {
    /// The proof's `def` name.
    pub name: String,
    /// Whether the correctness formula was established.
    pub verified: bool,
    /// The extracted counterexample for rejected proofs (`None` for
    /// verified proofs — and for `Unresolved` boundary verdicts, which
    /// carry no violation to witness).
    pub counterexample: Option<Counterexample>,
}

/// Runs the whole diagnosis pipeline over an `.nqpv` source: verifies
/// every proof in a [`Session`] (ignoring `show` commands) and extracts a
/// counterexample for each rejected one (see [`explain_session`]).
///
/// # Errors
///
/// A rendered message for structural failures (parse errors, unknown
/// operators, missing `.npy` files, invalid invariants) — the same
/// failures a `Session` run reports; a *rejected* proof is a diagnosis,
/// not an error.
pub fn explain_source(
    source: &str,
    base_dir: &Path,
    opts: VcOptions,
) -> Result<Vec<ProofDiagnosis>, String> {
    let mut file = parse_source(source).map_err(|e| e.to_string())?;
    file.commands.retain(|cmd| !matches!(cmd, Command::Show(_)));
    let mut session = Session::new().with_options(opts).with_base_dir(base_dir);
    session.run(&file).map_err(|e| e.to_string())?;
    explain_session(&session)
}

/// Diagnoses every proof a session has verified, in execution order, from
/// the session's own records: each rejected proof is explained from its
/// verification outcome (violation and annotated tree) and the library it
/// was verified against, so nothing is parsed, loaded or verified again.
///
/// # Errors
///
/// A rendered message when a rejected proof cannot be re-elaborated
/// (defensive: its term just verified against the same library).
pub fn explain_session(session: &Session) -> Result<Vec<ProofDiagnosis>, String> {
    let opts = session.options();
    session
        .proof_records()
        .iter()
        .map(|record| {
            let outcome = &record.outcome;
            let counterexample = match &outcome.status {
                VerifyStatus::PreconditionViolated { violation } => {
                    let (reg, post) = resolve_post(&record.term, &record.lib, opts)?;
                    Some(counterexample(
                        &record.name,
                        &record.term,
                        &record.lib,
                        opts,
                        violation,
                        &reg,
                        &post,
                        (&outcome.computed_pre, &outcome.body),
                    )?)
                }
                // `Unresolved` boundary verdicts carry no violation.
                VerifyStatus::Verified | VerifyStatus::Unresolved { .. } => None,
            };
            Ok(ProofDiagnosis {
                name: record.name.clone(),
                verified: outcome.status.verified(),
                counterexample,
            })
        })
        .collect()
}

/// Extracts a counterexample for one rejected proof term from the
/// verifier's structured violation record, running the backward pass
/// again for the annotated tree ([`explain_session`] reuses the
/// verification's own).
///
/// # Errors
///
/// A rendered message when the term cannot be re-elaborated (cannot
/// happen for terms that just verified as rejected — defensive).
pub fn explain_term(
    name: &str,
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    violation: &FailedObligation,
) -> Result<Counterexample, String> {
    let (reg, post) = resolve_post(term, lib, opts)?;
    let ann =
        backward(&term.body, &post, lib, &reg, opts, &HashMap::new()).map_err(|e| e.to_string())?;
    counterexample(
        name,
        term,
        lib,
        opts,
        violation,
        &reg,
        &post,
        (&ann.pre, &ann.node),
    )
}

/// The proof's register and resolved postcondition.
fn resolve_post(
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
) -> Result<(Register, Assertion), String> {
    let reg = Register::new(&term.qubits).map_err(|e| e.to_string())?;
    let post = Assertion::from_expr_with(&term.post, lib, &reg, opts.factor_assertions)
        .map_err(|e| e.to_string())?;
    Ok((reg, post))
}

/// The counterexample of a violation, given the annotated tree: the
/// computed verification condition and the statement annotations under it.
#[allow(clippy::too_many_arguments)]
fn counterexample(
    name: &str,
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    violation: &FailedObligation,
    reg: &Register,
    post: &Assertion,
    (vc, node): (&Assertion, &AnnotatedNode),
) -> Result<Counterexample, String> {
    let pre_expr = term
        .pre
        .as_ref()
        .ok_or("rejected proof carries no precondition")?;
    let pre = Assertion::from_expr_with(pre_expr, lib, reg, opts.factor_assertions)
        .map_err(|e| e.to_string())?;
    let vc_index = violation.vc_index.min(vc.len().saturating_sub(1));
    let n_star = &vc.ops()[vc_index];
    // Candidate witnesses: the solver's game witness, its purification,
    // and the most-negative eigenvector of `VC[vc_index] − M` for every
    // `M ∈ Θ` (the paper's gap operator; every M must individually fail
    // against the violated element, so each yields an eigen-witness).
    let mut candidates: Vec<CMat> = Vec::new();
    let raw = &violation.witness;
    let mass = raw.trace_re();
    if mass > 1e-12 {
        candidates.push(raw.scale_re(1.0 / mass));
    }
    if let Some(pure) = purify(raw) {
        candidates.push(pure);
    }
    for m in pre.ops() {
        let w = nqpv_solver::lowner_le_witnessed(m.dense(), n_star.dense(), opts.lowner.eps);
        if let Some(ew) = w.witness {
            candidates.push(ew.vector.projector());
        }
    }
    // Score candidates by the operator-level gap at the state; prefer
    // pure witnesses on ties (they render as amplitudes).
    let margin_at = |rho: &CMat| pre.expectation(rho) - n_star.expectation(rho);
    let mut best: Option<(CMat, f64, bool)> = None;
    for cand in candidates {
        let margin = margin_at(&cand);
        let purity = cand.mul(&cand).trace_re();
        let is_pure = purity >= 1.0 - 1e-9;
        let better = match &best {
            None => true,
            Some((_, bm, bpure)) => {
                margin > bm + 1e-12 || (margin >= bm - 1e-12 && is_pure && !bpure)
            }
        };
        if better {
            best = Some((cand, margin, is_pure));
        }
    }
    let (rho, solver_margin, _) = best.ok_or("no usable witness candidate")?;

    // Resolve the demon and replay.
    let exec = ExecOptions {
        fuel: REPLAY_FUEL,
        ..ExecOptions::default()
    };
    let search = demonic_schedule(
        &term.body,
        &rho,
        post,
        lib,
        reg,
        opts.mode,
        exec,
        SEARCH_BUDGET,
    )
    .map_err(|e| e.to_string())?;
    let trajectory = trajectory(
        &term.body,
        (vc, node),
        &rho,
        post,
        lib,
        reg,
        &search.bits,
        exec,
    )
    .map_err(|e| e.to_string())?;

    let pre_expectation = pre.expectation(&rho);
    let post_expectation = search.score;
    let gap = pre_expectation - post_expectation;
    // Honesty guard for total-mode loops: `exec_scheduled` drops mass
    // still circulating when the fuel runs out, which in total mode
    // *under*-approximates the delivered expectation (in partial mode the
    // liberal slack already credits every lost unit). Since predicates
    // are ≤ I, the true delivered value exceeds the replayed one by at
    // most the lost mass — so only confirm when the gap survives
    // crediting all of it back.
    let confirm_bar = if opts.mode == nqpv_core::Mode::Total && term.body.has_loop() {
        let lost = (rho.trace_re() - search.sigma.trace_re()).max(0.0);
        CONFIRM_EPS + lost
    } else {
        CONFIRM_EPS
    };
    Ok(Counterexample {
        proof: name.to_string(),
        obligation: format!(
            "final comparison {} ⊑_inf wp (element #{vc_index} of the computed VC violated)",
            pretty_assertion(pre_expr),
        ),
        vc_index,
        witness: Witness::from_rho(rho),
        schedule: search
            .bits
            .iter()
            .enumerate()
            .map(|(index, &right)| ScheduleStep { index, right })
            .collect(),
        trajectory,
        pre_expectation,
        post_expectation,
        gap,
        solver_margin,
        confirmed: gap >= confirm_bar,
        exhaustive: search.exhaustive,
    })
}

/// The top eigenvector of a density operator as a pure density matrix
/// (`None` on eigensolver failure or zero mass).
fn purify(rho: &CMat) -> Option<CMat> {
    let e = eigh(rho).ok()?;
    let k = e.values.len() - 1;
    if e.values[k] <= 1e-12 {
        return None;
    }
    Some(e.vectors.col(k).normalized().projector())
}

/// Replays the witness statement-by-statement under the resolved script,
/// recording the expectation of each annotated intermediate condition.
#[allow(clippy::too_many_arguments)]
fn trajectory(
    body: &Stmt,
    (vc, node): (&Assertion, &AnnotatedNode),
    rho: &CMat,
    post: &Assertion,
    lib: &OperatorLibrary,
    reg: &Register,
    bits: &[bool],
    exec: ExecOptions,
) -> Result<Vec<TrajectoryPoint>, nqpv_semantics::SemanticsError> {
    // Align top-level statements with their annotated conditions.
    let (stmts, conds): (Vec<&Stmt>, Vec<&Assertion>) = match (body, node) {
        (Stmt::Seq(items), AnnotatedNode::Seq(anns)) if items.len() == anns.len() => {
            let stmts: Vec<&Stmt> = items.iter().collect();
            // Condition *after* statement i = pre of statement i+1; after
            // the last statement, the postcondition.
            let mut conds: Vec<&Assertion> = anns.iter().skip(1).map(|a| &a.pre).collect();
            conds.push(post);
            (stmts, conds)
        }
        _ => (vec![body], vec![post]),
    };
    let mut sched = ScriptSched::new(bits.to_vec());
    let mut state = rho.clone();
    let mut out = vec![TrajectoryPoint {
        statement: "(input)".to_string(),
        expectation: vc.expectation(&state),
        trace: state.trace_re(),
    }];
    for (stmt, cond) in stmts.iter().zip(conds) {
        state = exec_scheduled(stmt, &state, lib, reg, &mut sched, exec)?;
        out.push(TrajectoryPoint {
            statement: one_line(&pretty_stmt(stmt)),
            expectation: cond.expectation(&state),
            trace: state.trace_re(),
        });
    }
    Ok(out)
}

/// Collapses a pretty-printed statement to one (truncated) line.
fn one_line(text: &str) -> String {
    let mut out = String::with_capacity(text.len().min(64));
    let mut last_space = true;
    for c in text.chars() {
        let c = if c.is_whitespace() { ' ' } else { c };
        if c == ' ' && last_space {
            continue;
        }
        last_space = c == ' ';
        out.push(c);
        if out.len() >= 60 {
            out.push('…');
            break;
        }
    }
    out.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_quantum::ket;

    const REJECTED: &str = "def pf := proof [q] : { P1[q] }; [q] *= H; { P0[q] } end";
    const NDET_REJECTED: &str =
        "def pf := proof [q] : { P0[q] }; ( skip # [q] *= X ); { P0[q] } end";
    const VERIFIED: &str = "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end";

    #[test]
    fn rejected_deterministic_triple_yields_a_confirmed_witness() {
        let report =
            explain_source(REJECTED, Path::new("."), VcOptions::default()).expect("runs clean");
        assert_eq!(report.len(), 1);
        assert!(!report[0].verified);
        let cex = report[0].counterexample.as_ref().expect("rejected");
        assert!(cex.confirmed, "{cex:?}");
        assert!(cex.exhaustive);
        assert!(cex.schedule.is_empty(), "no □ in the program");
        // wlp.H.P0 = |+⟩⟨+|; the strongest witness is the eigenvector of
        // |+⟩⟨+| − P1 with eigenvalue −1/√2: gap 1/√2 ≈ 0.7071.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((cex.gap - s).abs() < 1e-6, "gap {}", cex.gap);
        assert!((cex.solver_margin - s).abs() < 1e-6);
        assert!((cex.gap - cex.solver_margin).abs() < 1e-6);
        // Replay consistency: gap = pre − post expectations.
        assert!((cex.gap - (cex.pre_expectation - cex.post_expectation)).abs() < 1e-12);
        // The witness is pure and renders amplitudes.
        assert!(cex.witness.purity > 1.0 - 1e-9);
        assert!(cex.witness.amplitudes.is_some());
        // Trajectory: input point + one per top-level body statement
        // (the pre/post braces are annotations, not statements).
        assert_eq!(cex.trajectory.len(), 2);
        assert!((cex.trajectory[0].trace - 1.0).abs() < 1e-9);
        // The trajectory endpoint is the delivered post expectation
        // (no mass is lost, so no liberal slack intervenes).
        let last = cex.trajectory.last().unwrap();
        assert!(
            (last.expectation - cex.post_expectation).abs() < 1e-9,
            "{last:?}"
        );
    }

    #[test]
    fn demonic_choice_yields_the_violating_branch_trace() {
        let report = explain_source(NDET_REJECTED, Path::new("."), VcOptions::default()).unwrap();
        let cex = report[0].counterexample.as_ref().expect("rejected");
        assert!(cex.confirmed);
        // The demon must take the X branch (right operand of `#`).
        assert_eq!(cex.schedule.len(), 1);
        assert!(cex.schedule[0].right, "{:?}", cex.schedule);
        // Witness |0⟩: P0 promises 1, X drives it to 0 — gap 1.
        assert!((cex.gap - 1.0).abs() < 1e-6, "gap {}", cex.gap);
        assert!((cex.solver_margin - 1.0).abs() < 1e-6);
        let amp = cex.witness.amplitudes.as_ref().unwrap();
        assert!((amp[0].re - 1.0).abs() < 1e-6 && amp[1].abs() < 1e-6);
        // The trajectory shows the expectation collapsing at the choice.
        let last = cex.trajectory.last().unwrap();
        assert!(last.expectation < 1e-9, "{:?}", cex.trajectory);
    }

    #[test]
    fn verified_programs_yield_no_counterexample() {
        let report = explain_source(VERIFIED, Path::new("."), VcOptions::default()).unwrap();
        assert!(report[0].verified);
        assert!(report[0].counterexample.is_none());
    }

    #[test]
    fn structural_errors_are_errors_not_diagnoses() {
        assert!(explain_source(
            "def pf := proof [q] : { I[q] }; [q] *= NOPE; { I[q] } end",
            Path::new("."),
            VcOptions::default()
        )
        .is_err());
        assert!(explain_source("not nqpv at all", Path::new("."), VcOptions::default()).is_err());
    }

    #[test]
    fn the_search_is_bounded_by_the_schedule_budget() {
        // `k` sequential choices, each flipping one of the qubits `qs`.
        let choices = |k: usize, qs: &[&str]| {
            (0..k)
                .map(|i| format!("( skip # [{}] *= X )", qs[i % qs.len()]))
                .collect::<Vec<_>>()
                .join("; ")
        };
        let lib = OperatorLibrary::with_builtins();
        let exec = ExecOptions {
            fuel: REPLAY_FUEL,
            ..ExecOptions::default()
        };
        let search = |k: usize, qs: &[&str]| {
            let reg = Register::new(qs).unwrap();
            let rho = CMat::identity(1 << qs.len()).scale_re(1.0 / (1 << qs.len()) as f64);
            let post =
                Assertion::from_ops(1 << qs.len(), vec![ket(&"0".repeat(qs.len())).projector()])
                    .unwrap();
            let stmt = nqpv_lang::parse_stmt(&choices(k, qs)).unwrap();
            let mode = nqpv_core::Mode::Partial;
            demonic_schedule(&stmt, &rho, &post, &lib, &reg, mode, exec, SEARCH_BUDGET).unwrap()
        };
        // Twelve choices on six qubits: 4096 schedules, twice the budget.
        let six = ["q1", "q2", "q3", "q4", "q5", "q6"];
        let twelve = search(12, &six);
        assert!(!twelve.exhaustive);
        assert_eq!(twelve.runs, SEARCH_BUDGET);
        // Eleven choices: 2048 schedules, all scored.
        let eleven = search(11, &["q1", "q2"]);
        assert!(eleven.exhaustive);
        assert_eq!(eleven.runs, SEARCH_BUDGET);
        // The truncation shows on the counterexample, which the first
        // 2048 schedules (choice #0 always left) still confirm.
        let src = format!(
            "def pf := proof [q1 q2] : {{ P0[q1] }}; {}; {{ P0[q1] }} end",
            choices(12, &["q1", "q2"])
        );
        let report = explain_source(&src, Path::new("."), VcOptions::default()).unwrap();
        let cex = report[0].counterexample.as_ref().expect("rejected");
        assert!(!cex.exhaustive);
        assert!(cex.confirmed);
        assert_eq!(cex.schedule.len(), 12);
        assert!(!cex.schedule[0].right);
    }

    #[test]
    fn witness_replay_is_independent_of_the_wp_pipeline() {
        // Recompute the rejected.nqpv gap by hand from the reported
        // witness: gap = tr(P1 ρ) − tr(P0 · H ρ H).
        let report = explain_source(REJECTED, Path::new("."), VcOptions::default()).unwrap();
        let cex = report[0].counterexample.as_ref().unwrap();
        let rho = &cex.witness.rho;
        let h = nqpv_quantum::gates::h();
        let evolved = h.conjugate(rho);
        let by_hand = ket("1").projector().trace_product(rho).re
            - ket("0").projector().trace_product(&evolved).re;
        assert!((by_hand - cex.gap).abs() < 1e-9, "{by_hand} vs {}", cex.gap);
    }
}
