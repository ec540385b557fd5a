//! The NQPV verifier: binds a proof term against an operator library,
//! runs the backward pass, and returns the annotated proof tree.
//!
//! This reproduces the Sec. 6.2 workflow: "after successfully parsing the
//! input, NQPV inductively constructs proofs … The strategy is to calculate
//! the weakest preconditions in the backward direction … In the end, the
//! assistant compares the verification condition and the precondition
//! proposed by the user and then generates the final result." Naming the
//! predicates and rendering the outline text is left to
//! [`crate::render_proof`], for the callers that show it.

use crate::assertion::Assertion;
use crate::error::VerifError;
use crate::outline::PredicateRegistry;
use crate::ranking::RankingCertificate;
use crate::transformer::{AnnotatedNode, VcOptions};
use nqpv_lang::{AssertionExpr, ProofTerm};
use nqpv_quantum::{OperatorLibrary, Register};
use nqpv_solver::Verdict;
use nqpv_telemetry::Phase;
use std::collections::HashMap;

/// The machine-readable record of a failed final comparison
/// `Θ ⊑_inf wp.S.Ψ`: which obligation (element of the computed VC set)
/// was violated, the solver's witness state, and the certified margin.
/// This is the raw material the `nqpv-diagnose` counterexample extractor
/// refines into a replayed witness + scheduler trace; previously the
/// solver's evidence was rendered into a string and discarded.
#[derive(Debug, Clone)]
pub struct FailedObligation {
    /// Index of the violated element of the computed VC set
    /// ([`VerifyOutcome::computed_pre`]).
    pub vc_index: usize,
    /// The solver's witness density operator `ρ` with
    /// `Exp(ρ ⊨ Θ) > tr(VC[vc_index]·ρ) + margin`.
    pub witness: nqpv_linalg::CMat,
    /// The certified violation margin.
    pub margin: f64,
}

/// The final status of a verification run.
#[derive(Debug, Clone)]
pub enum VerifyStatus {
    /// The user's precondition entails the computed verification condition
    /// (or no precondition was given — the tool then reports the weakest
    /// precondition it computed, Sec. 6.1).
    Verified,
    /// `pre ⊑_inf VC` failed: the correctness formula is rejected.
    /// [`crate::render_proof`] renders it as the tool's "Order relation
    /// not satisfied" message.
    PreconditionViolated {
        /// The structured violation evidence (obligation index, witness
        /// state, margin).
        violation: FailedObligation,
    },
    /// The solver could not resolve the final comparison within tolerance.
    Unresolved {
        /// Diagnostic.
        details: String,
    },
}

impl VerifyStatus {
    /// `true` for [`VerifyStatus::Verified`].
    pub fn verified(&self) -> bool {
        matches!(self, VerifyStatus::Verified)
    }
}

/// The result of verifying one proof term.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Whether the correctness formula was established.
    pub status: VerifyStatus,
    /// The computed verification condition (weakest precondition when no
    /// loops intervene; invariant-derived otherwise): the precondition at
    /// the root of the annotated proof.
    pub computed_pre: Assertion,
    /// The annotated statement tree under the root; every nested node
    /// carries its own computed precondition.
    pub body: AnnotatedNode,
}

/// Verifies a proof term.
///
/// `_registry` is unused: verification names no predicates (see
/// [`crate::render_proof`]). The argument stays because the benchmark
/// under `perfbench/` calls this signature.
///
/// # Errors
///
/// Returns [`VerifError`] for structural failures (unknown operators,
/// invalid invariants/rankings, failed cut assertions, resource limits).
/// A failing *final* precondition check is reported through
/// [`VerifyStatus::PreconditionViolated`], not an error, so the outline is
/// still available — mirroring the tool, which prints the outline and the
/// error message.
pub fn verify_proof_term(
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
    _registry: &mut PredicateRegistry,
) -> Result<VerifyOutcome, VerifError> {
    verify_proof_term_with(term, lib, opts, rankings, None)
}

/// [`verify_proof_term`] with an optional memo cache threaded through to
/// the backward pass (see [`crate::cache::TransformerCache`]); batch
/// drivers share one cache across many proof terms.
///
/// # Errors
///
/// Same as [`verify_proof_term`].
pub fn verify_proof_term_with(
    term: &ProofTerm,
    lib: &OperatorLibrary,
    opts: VcOptions,
    rankings: &HashMap<usize, RankingCertificate>,
    cache: Option<&dyn crate::cache::TransformerCache>,
) -> Result<VerifyOutcome, VerifError> {
    let reg = Register::new(&term.qubits)?;
    // Resolve the user-facing assertions (rank detection per
    // `opts.factor_assertions`).
    let (post, pre) = {
        let _span = opts.tracer.span(Phase::Other, "resolve");
        let resolve =
            |expr: &AssertionExpr| resolve_user_assertion(expr, lib, &reg, opts.factor_assertions);
        let post = resolve(&term.post)?;
        let pre = term.pre.as_ref().map(resolve).transpose()?;
        (post, pre)
    };

    // Backward pass.
    let ann = crate::transformer::backward_with_cache(
        &term.body, &post, lib, &reg, opts, rankings, cache,
    )?;

    // Final comparison (when a precondition was supplied) — through the
    // verdict cache, so byte-identical jobs in a batch decide it once.
    let status = match &pre {
        None => VerifyStatus::Verified,
        Some(p) => match p.le_inf_cached(&ann.pre, opts.lowner, cache)? {
            Verdict::Holds => VerifyStatus::Verified,
            Verdict::Violated(v) => VerifyStatus::PreconditionViolated {
                violation: FailedObligation {
                    vc_index: v.index,
                    witness: v.witness,
                    margin: v.margin,
                },
            },
            Verdict::Inconclusive { lower, upper, .. } => VerifyStatus::Unresolved {
                details: format!("final comparison unresolved in [{lower:.3e}, {upper:.3e}]"),
            },
        },
    };
    Ok(VerifyOutcome {
        status,
        computed_pre: ann.pre,
        body: ann.node,
    })
}

/// Resolves a user assertion and checks its operators lie in `0 ⊑ M ⊑ I`.
fn resolve_user_assertion(
    expr: &AssertionExpr,
    lib: &OperatorLibrary,
    reg: &Register,
    factor: bool,
) -> Result<Assertion, VerifError> {
    let a = Assertion::from_expr_with(expr, lib, reg, factor)?;
    if !a.validate_predicates(1e-6) {
        return Err(VerifError::InvalidInvariant {
            details: "assertion contains operators outside 0 ⊑ M ⊑ I".into(),
        });
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::Mode;
    use nqpv_lang::parse_proof_body;
    use nqpv_linalg::CVec;

    fn qwalk_library() -> OperatorLibrary {
        let mut lib = OperatorLibrary::with_builtins();
        let n00 = nqpv_quantum::ket("00").projector();
        let v = CVec::new(vec![
            nqpv_linalg::cr(0.0),
            nqpv_linalg::cr(std::f64::consts::FRAC_1_SQRT_2),
            nqpv_linalg::cr(0.0),
            nqpv_linalg::cr(std::f64::consts::FRAC_1_SQRT_2),
        ]);
        lib.insert_predicate("invN", n00.add_mat(&v.projector()))
            .unwrap();
        lib
    }

    const QWALK_BODY: &str = "{ I[q1] }; \
        [q1 q2] := 0; \
        { inv : invN[q1 q2] }; \
        while MQWalk[q1 q2] do \
          ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) \
        end; \
        { Zero[q1] }";

    #[test]
    fn show_renders_the_outline_once_after_every_wp_span() {
        // Verification names no predicates; `show` renders the outline
        // under its own span, after the backward pass has finished.
        let tracer = nqpv_telemetry::Tracer::create(true);
        let mut session =
            crate::Session::new().with_options(VcOptions::default().with_tracer(tracer));
        let src = include_str!("../../../examples/corpus/grover_step.nqpv");
        session.run_str(&format!("{src}\nshow pf end")).unwrap();
        assert_eq!(session.proof_verdicts(), &[("pf".to_string(), true)]);
        let events = tracer.finish().expect("live tracer").events;
        let end = |e: &nqpv_telemetry::TraceEvent| e.ts_us + e.dur_us as i64;
        let wp: Vec<_> = events.iter().filter(|e| e.phase == Phase::Wp).collect();
        assert!(!wp.is_empty(), "the backward pass is traced");
        let last_wp = wp.iter().map(|e| end(e)).max().unwrap();
        let outline: Vec<_> = events.iter().filter(|e| e.name == "outline").collect();
        assert_eq!(outline.len(), 1, "{events:?}");
        assert_eq!(outline[0].phase, Phase::Other);
        assert!(
            outline[0].ts_us >= last_wp,
            "outline nested in wp: {events:?}"
        );
    }

    #[test]
    fn qwalk_verifies_and_produces_the_sec62_outline() {
        let lib = qwalk_library();
        let term = parse_proof_body(&["q1", "q2"], QWALK_BODY).unwrap();
        let mut registry = PredicateRegistry::new();
        let outcome = verify_proof_term(
            &term,
            &lib,
            VcOptions::default(),
            &HashMap::new(),
            &mut registry,
        )
        .unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
        // Verifying names nothing; rendering names the source assertions.
        assert!(registry.matrix("invN[q1 q2]").is_none());
        let outline = crate::render_proof(
            &term,
            &lib,
            &outcome,
            &mut registry,
            nqpv_telemetry::Tracer::DISABLED,
        );
        // The outline must show the invariant name and the while structure.
        assert!(outline.contains("invN[q1 q2]"), "{outline}");
        assert!(outline.contains("while MQWalk[q1 q2] do"));
        assert!(outline.contains("// the Veri. Con."));
        // The generated VC for the whole program is I (full space), i.e.
        // the formula {I} QWalk {0} of Eq. 15.
        assert_eq!(outcome.computed_pre.len(), 1);
        assert!(outcome.computed_pre.ops()[0].approx_eq(&nqpv_linalg::CMat::identity(4), 1e-9));
        // show VAR-like names resolve.
        assert!(registry.matrix("invN[q1 q2]").is_some());
    }

    #[test]
    fn invalid_invariant_reports_the_paper_error() {
        let lib = qwalk_library();
        let body = QWALK_BODY.replace("invN[q1 q2]", "P0[q1]");
        let term = parse_proof_body(&["q1", "q2"], &body).unwrap();
        let mut registry = PredicateRegistry::new();
        let err = verify_proof_term(
            &term,
            &lib,
            VcOptions::default(),
            &HashMap::new(),
            &mut registry,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Order relation not satisfied"), "{msg}");
        assert!(msg.contains("not a valid loop invariant"), "{msg}");
    }

    #[test]
    fn failing_precondition_is_reported_not_errored() {
        // {P1} H {P0} is false (wlp = |+⟩⟨+|, and P1 ⋢ |+⟩⟨+|).
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(&["q"], "{ P1[q] }; [q] *= H; { P0[q] }").unwrap();
        let mut registry = PredicateRegistry::new();
        let outcome = verify_proof_term(
            &term,
            &lib,
            VcOptions::default(),
            &HashMap::new(),
            &mut registry,
        )
        .unwrap();
        match &outcome.status {
            VerifyStatus::PreconditionViolated { violation } => {
                // The structured record carries the solver's evidence: the
                // witness is a state with tr(P1·ρ) − tr(Pp·ρ) = margin.
                assert!(violation.margin > 0.2, "{}", violation.margin);
                assert!(nqpv_linalg::is_partial_density(&violation.witness, 1e-6));
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // The outline still renders, with the tool's error message.
        let outline = crate::render_proof(
            &term,
            &lib,
            &outcome,
            &mut registry,
            nqpv_telemetry::Tracer::DISABLED,
        );
        assert!(outline.contains("[q] *= H"), "{outline}");
        assert!(
            outline
                .contains("\nError:\n  Order relation not satisfied:\n  { P1[q] } <= { VAR0[q] }"),
            "{outline}"
        );
    }

    #[test]
    fn omitted_precondition_reports_weakest_precondition() {
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(&["q"], "[q] *= H; { P0[q] }").unwrap();
        let mut registry = PredicateRegistry::new();
        let outcome = verify_proof_term(
            &term,
            &lib,
            VcOptions::default(),
            &HashMap::new(),
            &mut registry,
        )
        .unwrap();
        assert!(outcome.status.verified());
        // VC = |+⟩⟨+| = Pp.
        assert!(outcome.computed_pre.ops()[0].approx_eq(&nqpv_quantum::ket("+").projector(), 1e-9));
    }

    #[test]
    fn total_mode_verifies_rus_with_ranking() {
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(
            &["q"],
            "{ I[q] }; [q] := 0; [q] *= H; { inv : I[q] }; \
             while M01[q] do [q] *= H end; { P0[q] }",
        )
        .unwrap();
        let mut rankings = HashMap::new();
        rankings.insert(
            0,
            RankingCertificate::geometric(2, nqpv_quantum::ket("1").projector(), 0.5),
        );
        let mut registry = PredicateRegistry::new();
        let outcome = verify_proof_term(
            &term,
            &lib,
            VcOptions {
                mode: Mode::Total,
                ..VcOptions::default()
            },
            &rankings,
            &mut registry,
        )
        .unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
    }
}
