//! The paper's case studies as ready-to-verify artifacts.
//!
//! * [`err_corr`] — three-qubit bit-flip quantum error correction
//!   (Ex. 3.1/4.1, Sec. 5.1, Fig. 1): `⊨tot {[ψ]_q} ErrCorr {[ψ]_q}`.
//! * [`deutsch`] — the Deutsch algorithm with a nondeterministic oracle
//!   (Sec. 5.2, Fig. 4): `⊨tot {I} Deutsch {(|00⟩⟨00|+|11⟩⟨11|)_{q,q1}}`.
//! * [`qwalk`] — the nondeterministic quantum walk (Sec. 5.3): its
//!   non-termination under *every* scheduler, `⊨par {I} QWalk {0}`.
//! * [`grover`] — the Grover verification workload used for the Sec. 6.5
//!   performance discussion (13-qubit Grover took the Python tool 90 s).
//! * [`repeat_until_success`] — a total-correctness workout for ranking
//!   certificates (Def. 4.3), the feature the paper leaves unmechanised.

use crate::ranking::RankingCertificate;
use crate::transformer::{Mode, VcOptions};
use crate::verifier::{verify_proof_term_with, VerifyOutcome};
use crate::{render_proof, PredicateRegistry, VerifError};
use nqpv_lang::{parse_proof_body, ProofTerm};
use nqpv_linalg::{CMat, CVec};
use nqpv_quantum::{gates, ket, OperatorLibrary};
use std::collections::HashMap;

/// A packaged verification task: program, operators, assertions, mode and
/// (for total correctness) ranking certificates.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Identifier (used in benches and reports).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The proof term (register, pre, program, post).
    pub term: ProofTerm,
    /// Operator library with all referenced operators bound.
    pub library: OperatorLibrary,
    /// Ranking certificates by loop id (total-correctness studies).
    pub rankings: HashMap<usize, RankingCertificate>,
    /// The correctness mode the study targets.
    pub mode: Mode,
}

impl CaseStudy {
    /// Verifies the study with default options (mode taken from the study).
    ///
    /// # Errors
    ///
    /// Propagates verification errors.
    pub fn verify(&self) -> Result<VerifyOutcome, VerifError> {
        self.verify_with(VcOptions {
            mode: self.mode,
            ..VcOptions::default()
        })
    }

    /// Verifies with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates verification errors.
    pub fn verify_with(&self, opts: VcOptions) -> Result<VerifyOutcome, VerifError> {
        verify_proof_term_with(&self.term, &self.library, opts, &self.rankings, None)
    }

    /// The proof outline of `outcome` (a result of verifying this study),
    /// as the tool's `show` prints it.
    pub fn outline(&self, outcome: &VerifyOutcome) -> String {
        render_proof(
            &self.term,
            &self.library,
            outcome,
            &mut PredicateRegistry::new(),
            nqpv_telemetry::Tracer::DISABLED,
        )
    }
}

/// Three-qubit bit-flip error correction for the input state
/// `|ψ⟩ = α|0⟩ + β|1⟩` (Sec. 5.1). `alpha`/`beta` must form a unit vector.
///
/// # Panics
///
/// Panics if `α² + β² ≠ 1` (real amplitudes suffice for the paper's
/// statement; the verified property is still for *that specific* ψ, as in
/// Eq. 8 which quantifies per-ψ).
pub fn err_corr(alpha: f64, beta: f64) -> CaseStudy {
    assert!(
        (alpha * alpha + beta * beta - 1.0).abs() < 1e-9,
        "amplitudes must be normalised"
    );
    let psi = CVec::new(vec![nqpv_linalg::cr(alpha), nqpv_linalg::cr(beta)]);
    let mut library = OperatorLibrary::with_builtins();
    library
        .insert_predicate("Psi", psi.projector())
        .expect("rank-1 projector is a predicate");
    let term = parse_proof_body(
        &["q", "q1", "q2"],
        "{ Psi[q] }; \
         [q1 q2] := 0; \
         [q q1] *= CX; [q q2] *= CX; \
         ( skip # [q] *= X # [q1] *= X # [q2] *= X ); \
         [q q2] *= CX; [q q1] *= CX; \
         if M01[q2] then if M01[q1] then [q] *= X end end; \
         { Psi[q] }",
    )
    .expect("fixed program parses");
    CaseStudy {
        name: "err_corr".into(),
        description: "three-qubit bit-flip QEC: ⊨tot {[ψ]q} ErrCorr {[ψ]q} (Sec. 5.1)".into(),
        term,
        library,
        rankings: HashMap::new(),
        mode: Mode::Total,
    }
}

/// The Deutsch algorithm with the oracle chosen nondeterministically per
/// measured branch (Sec. 5.2): `⊨tot {I} Deutsch {(|00⟩⟨00|+|11⟩⟨11|)_{q,q1}}`.
pub fn deutsch() -> CaseStudy {
    let mut library = OperatorLibrary::with_builtins();
    let dpost = ket("00").projector().add_mat(&ket("11").projector());
    library
        .insert_predicate("DPost", dpost)
        .expect("projector is a predicate");
    let term = parse_proof_body(
        &["q", "q1", "q2"],
        "{ I[q] }; \
         [q1 q2] := 0; \
         [q1] *= H; [q2] *= X; [q2] *= H; \
         if M01[q] then ( [q1 q2] *= CX # [q1 q2] *= C0X ) \
         else ( skip # [q2] *= X ) end; \
         [q1] *= H; \
         if M01[q1] then skip else skip end; \
         { DPost[q q1] }",
    )
    .expect("fixed program parses");
    CaseStudy {
        name: "deutsch".into(),
        description: "Deutsch algorithm, nondeterministic oracle: ⊨tot {I} Deutsch {…} (Sec. 5.2)"
            .into(),
        term,
        library,
        rankings: HashMap::new(),
        mode: Mode::Total,
    }
}

/// The invariant predicate `N = [|00⟩] + [(|01⟩+|11⟩)/√2]` of Sec. 5.3.
pub fn qwalk_invariant() -> CMat {
    let n00 = ket("00").projector();
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let v = CVec::new(vec![
        nqpv_linalg::cr(0.0),
        nqpv_linalg::cr(s),
        nqpv_linalg::cr(0.0),
        nqpv_linalg::cr(s),
    ]);
    n00.add_mat(&v.projector())
}

/// The nondeterministic quantum walk (Sec. 5.3): `⊨par {I} QWalk {0}` —
/// non-termination under every scheduler, proven with invariant `N`.
pub fn qwalk() -> CaseStudy {
    let mut library = OperatorLibrary::with_builtins();
    library
        .insert_predicate("invN", qwalk_invariant())
        .expect("rank-2 projector is a predicate");
    let term = parse_proof_body(
        &["q1", "q2"],
        "{ I[q1] }; \
         [q1 q2] := 0; \
         { inv : invN[q1 q2] }; \
         while MQWalk[q1 q2] do \
           ( [q1 q2] *= W1; [q1 q2] *= W2 # [q1 q2] *= W2; [q1 q2] *= W1 ) \
         end; \
         { Zero[q1] }",
    )
    .expect("fixed program parses");
    CaseStudy {
        name: "qwalk".into(),
        description: "nondeterministic quantum walk: ⊨par {I} QWalk {0} (Sec. 5.3)".into(),
        term,
        library,
        rankings: HashMap::new(),
        mode: Mode::Partial,
    }
}

/// Parameters of a Grover verification instance.
#[derive(Debug, Clone, Copy)]
pub struct GroverInstance {
    /// Number of qubits.
    pub n_qubits: usize,
    /// Grover iterations `⌊π/4·√N⌋` (at least 1).
    pub iterations: usize,
    /// Exact success probability `sin²((2k+1)·θ)`, `θ = arcsin(2^{-n/2})`.
    pub success_probability: f64,
}

/// Computes the canonical iteration count and success probability.
pub fn grover_parameters(n_qubits: usize) -> GroverInstance {
    let n = 1usize << n_qubits;
    let theta = (1.0 / (n as f64).sqrt()).asin();
    let iterations = ((std::f64::consts::FRAC_PI_4) / theta).floor().max(1.0) as usize;
    let success_probability = ((2 * iterations + 1) as f64 * theta).sin().powi(2);
    GroverInstance {
        n_qubits,
        iterations,
        success_probability,
    }
}

/// Grover search on `n_qubits` qubits with the all-ones marked state —
/// the verification workload behind the paper's Sec. 6.5 performance test.
/// The verified formula is `⊨tot {(p−ε)·I} Grover {P_marked}` where `p` is
/// the exact success probability; the computed weakest precondition is
/// `p·I`, so verification succeeds with margin `ε`.
///
/// # Panics
///
/// Panics if `n_qubits == 0` or `n_qubits > 16` (matrix sizes explode).
pub fn grover(n_qubits: usize) -> CaseStudy {
    assert!((1..=16).contains(&n_qubits), "1..=16 qubits supported");
    let params = grover_parameters(n_qubits);
    let dim = 1usize << n_qubits;
    let qnames: Vec<String> = (0..n_qubits).map(|i| format!("q{i}")).collect();
    let qrefs: Vec<&str> = qnames.iter().map(String::as_str).collect();

    // H^{⊗n}.
    let mut hn = gates::h();
    for _ in 1..n_qubits {
        hn = hn.kron(&gates::h());
    }
    // Oracle = I − 2|m⟩⟨m| for m = |1…1⟩.
    let marked = CVec::basis(dim, dim - 1);
    let mut oracle = CMat::identity(dim);
    oracle = oracle.sub_mat(&marked.projector().scale_re(2.0));
    // Diffusion = Hⁿ·(2|0⟩⟨0| − I)·Hⁿ.
    let zero_proj = CVec::basis(dim, 0).projector();
    let refl = zero_proj.scale_re(2.0).sub_mat(&CMat::identity(dim));
    let diffusion = hn.mul(&refl).mul(&hn);

    let mut library = OperatorLibrary::with_builtins();
    library.insert_unitary("HN", hn).expect("H^n is unitary");
    library
        .insert_unitary("Oracle", oracle)
        .expect("oracle is unitary");
    library
        .insert_unitary("Diff", diffusion)
        .expect("diffusion is unitary");
    library
        .insert_predicate("Marked", marked.projector())
        .expect("projector is a predicate");
    let margin = 1e-9;
    library
        .insert_predicate(
            "PreG",
            CMat::identity(dim).scale_re((params.success_probability - margin).max(0.0)),
        )
        .expect("scaled identity is a predicate");

    let all = qnames.join(" ");
    let mut body = format!("{{ PreG[{all}] }}; [{all}] := 0; [{all}] *= HN; ");
    for _ in 0..params.iterations {
        body.push_str(&format!("[{all}] *= Oracle; [{all}] *= Diff; "));
    }
    body.push_str(&format!("{{ Marked[{all}] }}"));
    let term = parse_proof_body(&qrefs, &body).expect("generated program parses");
    CaseStudy {
        name: format!("grover_{n_qubits}q"),
        description: format!(
            "Grover on {n_qubits} qubits, {} iterations, success prob {:.6}",
            params.iterations, params.success_probability
        ),
        term,
        library,
        rankings: HashMap::new(),
        mode: Mode::Total,
    }
}

/// Three-qubit *phase-flip* error correction: the bit-flip code of
/// Sec. 5.1 conjugated by Hadamards, protecting against a nondeterministic
/// `Z` error on any single qubit. Not in the paper — included to show the
/// verification pipeline generalises beyond the paper's exact circuits.
///
/// # Panics
///
/// Panics if `α² + β² ≠ 1`.
pub fn phase_flip_corr(alpha: f64, beta: f64) -> CaseStudy {
    assert!(
        (alpha * alpha + beta * beta - 1.0).abs() < 1e-9,
        "amplitudes must be normalised"
    );
    let psi = CVec::new(vec![nqpv_linalg::cr(alpha), nqpv_linalg::cr(beta)]);
    let mut library = OperatorLibrary::with_builtins();
    library
        .insert_predicate("Psi", psi.projector())
        .expect("rank-1 projector is a predicate");
    let term = parse_proof_body(
        &["q", "q1", "q2"],
        "{ Psi[q] }; \
         [q1 q2] := 0; \
         [q q1] *= CX; [q q2] *= CX; \
         [q] *= H; [q1] *= H; [q2] *= H; \
         ( skip # [q] *= Z # [q1] *= Z # [q2] *= Z ); \
         [q] *= H; [q1] *= H; [q2] *= H; \
         [q q2] *= CX; [q q1] *= CX; \
         if M01[q2] then if M01[q1] then [q] *= X end end; \
         { Psi[q] }",
    )
    .expect("fixed program parses");
    CaseStudy {
        name: "phase_flip_corr".into(),
        description: "three-qubit phase-flip QEC: ⊨tot {[ψ]q} PhaseCorr {[ψ]q} (extension)".into(),
        term,
        library,
        rankings: HashMap::new(),
        mode: Mode::Total,
    }
}

/// Quantum teleportation with a *nondeterministic correction order*: the
/// `X` and `Z` Pauli fix-ups act on different syndrome bits and commute,
/// so an implementation may apply them in either order — modelled as a
/// demonic choice. Verifies `⊨tot {[ψ]_q} Teleport {[ψ]_b}`: the state
/// arrives on `b` under every scheduling. Not in the paper; exercises
/// measurement-conditioned corrections and choice-insensitivity.
///
/// # Panics
///
/// Panics if `α² + β² ≠ 1`.
pub fn teleport(alpha: f64, beta: f64) -> CaseStudy {
    assert!(
        (alpha * alpha + beta * beta - 1.0).abs() < 1e-9,
        "amplitudes must be normalised"
    );
    let psi = CVec::new(vec![nqpv_linalg::cr(alpha), nqpv_linalg::cr(beta)]);
    let mut library = OperatorLibrary::with_builtins();
    library
        .insert_predicate("Psi", psi.projector())
        .expect("rank-1 projector is a predicate");
    let term = parse_proof_body(
        &["q", "a", "b"],
        "{ Psi[q] }; \
         [a b] := 0; [a] *= H; [a b] *= CX; \
         [q a] *= CX; [q] *= H; \
         ( if M01[a] then [b] *= X end; if M01[q] then [b] *= Z end \
         # if M01[q] then [b] *= Z end; if M01[a] then [b] *= X end ); \
         { Psi[b] }",
    )
    .expect("fixed program parses");
    CaseStudy {
        name: "teleport".into(),
        description:
            "teleportation, nondeterministic correction order: ⊨tot {[ψ]q} Teleport {[ψ]b}".into(),
        term,
        library,
        rankings: HashMap::new(),
        mode: Mode::Total,
    }
}

/// Repeat-until-success: `q := 0; q *= H; while M01[q] do q *= H end` —
/// terminates almost surely in `|0⟩`; `⊨tot {I} RUS {P0}` discharged with
/// the geometric ranking certificate `R_0 = I, R_1 = |1⟩⟨1|, γ = 1/2`
/// (the finite form of the Eq.-18 completeness witness).
pub fn repeat_until_success() -> CaseStudy {
    let library = OperatorLibrary::with_builtins();
    let term = parse_proof_body(
        &["q"],
        "{ I[q] }; [q] := 0; [q] *= H; { inv : I[q] }; \
         while M01[q] do [q] *= H end; { P0[q] }",
    )
    .expect("fixed program parses");
    let mut rankings = HashMap::new();
    rankings.insert(
        0,
        RankingCertificate::geometric(2, ket("1").projector(), 0.5),
    );
    CaseStudy {
        name: "repeat_until_success".into(),
        description: "RUS loop: ⊨tot {I} RUS {P0} via a geometric ranking certificate".into(),
        term,
        library,
        rankings,
        mode: Mode::Total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn err_corr_verifies_totally() {
        for (a, b) in [
            (1.0, 0.0),
            (0.6, 0.8),
            (
                std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
            ),
        ] {
            let study = err_corr(a, b);
            let outcome = study.verify().unwrap();
            assert!(
                outcome.status.verified(),
                "α={a}, β={b}: {:?}",
                outcome.status
            );
        }
    }

    #[test]
    fn deutsch_verifies_totally() {
        let outcome = deutsch().verify().unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
    }

    #[test]
    fn qwalk_verifies_partially() {
        let outcome = qwalk().verify().unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
    }

    #[test]
    fn grover_small_instances_verify() {
        for n in 1..=4 {
            let study = grover(n);
            let outcome = study.verify().unwrap();
            assert!(outcome.status.verified(), "n={n}: {:?}", outcome.status);
        }
    }

    #[test]
    fn grover_parameters_match_closed_form() {
        let p2 = grover_parameters(2);
        // N=4: θ=π/6, k=⌊(π/4)/(π/6)⌋=1, success = sin²(3·π/6) = 1.
        assert_eq!(p2.iterations, 1);
        assert!((p2.success_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rus_verifies_with_ranking() {
        let outcome = repeat_until_success().verify().unwrap();
        assert!(outcome.status.verified(), "{:?}", outcome.status);
    }

    #[test]
    fn teleport_verifies_for_both_correction_orders() {
        for (a, b) in [(1.0, 0.0), (0.6, 0.8)] {
            let outcome = teleport(a, b).verify().unwrap();
            assert!(
                outcome.status.verified(),
                "α={a}, β={b}: {:?}",
                outcome.status
            );
        }
    }

    #[test]
    fn teleport_without_z_correction_fails() {
        let mut study = teleport(0.6, 0.8);
        study.term = parse_proof_body(
            &["q", "a", "b"],
            "{ Psi[q] }; \
             [a b] := 0; [a] *= H; [a b] *= CX; \
             [q a] *= CX; [q] *= H; \
             if M01[a] then [b] *= X end; \
             { Psi[b] }",
        )
        .unwrap();
        let outcome = study.verify().unwrap();
        assert!(!outcome.status.verified());
    }

    #[test]
    fn phase_flip_code_verifies_totally() {
        for (a, b) in [(1.0, 0.0), (0.6, 0.8)] {
            let outcome = phase_flip_corr(a, b).verify().unwrap();
            assert!(
                outcome.status.verified(),
                "α={a}, β={b}: {:?}",
                outcome.status
            );
        }
    }

    #[test]
    fn phase_flip_code_without_hadamards_fails() {
        // Removing the basis change leaves Z errors uncorrected.
        let mut study = phase_flip_corr(0.6, 0.8);
        study.term = parse_proof_body(
            &["q", "q1", "q2"],
            "{ Psi[q] }; \
             [q1 q2] := 0; \
             [q q1] *= CX; [q q2] *= CX; \
             ( skip # [q] *= Z # [q1] *= Z # [q2] *= Z ); \
             [q q2] *= CX; [q q1] *= CX; \
             if M01[q2] then if M01[q1] then [q] *= X end end; \
             { Psi[q] }",
        )
        .unwrap();
        let outcome = study.verify().unwrap();
        assert!(!outcome.status.verified());
    }

    #[test]
    fn qec_fails_for_wrong_postcondition() {
        // Claiming the *orthogonal* state is preserved must fail.
        let mut study = err_corr(0.6, 0.8);
        let ortho = CVec::new(vec![nqpv_linalg::cr(0.8), nqpv_linalg::cr(-0.6)]);
        study
            .library
            .insert_predicate("PsiOrtho", ortho.projector())
            .unwrap();
        let body = "{ Psi[q] }; \
             [q1 q2] := 0; \
             [q q1] *= CX; [q q2] *= CX; \
             ( skip # [q] *= X # [q1] *= X # [q2] *= X ); \
             [q q2] *= CX; [q q1] *= CX; \
             if M01[q2] then if M01[q1] then [q] *= X end end; \
             { PsiOrtho[q] }";
        study.term = parse_proof_body(&["q", "q1", "q2"], body).unwrap();
        let outcome = study.verify().unwrap();
        assert!(!outcome.status.verified());
    }
}
