//! The paper's Sec. 5 proofs replayed as explicit Fig. 3 derivations.
//!
//! [`crate::verify_proof_term`] *computes* weakest preconditions; this module
//! instead builds the exact proof trees the paper writes out by hand —
//! (Init), (Unit), (NDet) with (Imp)-weakened branches, nested (Meas),
//! and (While) — and pushes them through the rule checker
//! [`crate::proof::check_proof`]. Getting the same formulas out of both
//! pipelines is a strong internal-consistency check of the logic.

use crate::assertion::Assertion;
use crate::error::VerifError;
use crate::proof::{check_proof, Formula, ProofNode};
use crate::transformer::Mode;
use nqpv_linalg::{adjoint_conjugate_gate, embed, CVec};
use nqpv_quantum::{gates, ket, OperatorLibrary, Register};
use nqpv_solver::LownerOptions;

/// Builds and checks the Sec. 5.1 derivation of
/// `⊢tot {[ψ]_q} ErrCorr {[ψ]_q}` for `|ψ⟩ = α|0⟩ + β|1⟩`, returning the
/// checked tree and its established formula.
///
/// The derivation follows the paper's proof outline literally:
///
/// 1. (Init)+(Unit) thread the encoding `|ψ00⟩ ↦ α|000⟩+β|111⟩`;
/// 2. (Skip)/(Unit) give `{Ψ₀} Sᵢ {Mᵢ}` for the four error branches, each
///    weakened to the common postcondition `M₁+M₂+M₃+M₄` by (Imp);
/// 3. (NDet) folds the four branches;
/// 4. (Unit) threads the decode CNOTs;
/// 5. nested (Meas) handles the syndrome conditionals.
///
/// # Errors
///
/// Propagates rule-checking failures (none for valid `α, β`).
///
/// # Panics
///
/// Panics if `α² + β² ≠ 1`.
pub fn err_corr_derivation(
    alpha: f64,
    beta: f64,
    lib: &OperatorLibrary,
    reg: &Register,
    opts: LownerOptions,
) -> Result<(ProofNode, Formula), VerifError> {
    assert!(
        (alpha * alpha + beta * beta - 1.0).abs() < 1e-9,
        "amplitudes must be normalised"
    );
    let n = reg.n_qubits();
    debug_assert_eq!(n, 3, "ErrCorr uses the register [q, q1, q2]");
    let dim = reg.dim();
    let check = |node: &ProofNode| check_proof(node, Mode::Total, lib, reg, opts);

    // ψ on q, embedded over the full register.
    let psi = CVec::new(vec![nqpv_linalg::cr(alpha), nqpv_linalg::cr(beta)]);
    let psi_full = embed(&psi.projector(), &[0], n);
    let post_final = Assertion::from_ops(dim, vec![psi_full.clone()])?;

    // --- 5. Syndrome measurement (backwards: build it first). -----------
    let inner_meas = ProofNode::Meas {
        meas: "M01".into(),
        qubits: vec!["q1".into()],
        then_proof: Box::new(ProofNode::Unit {
            qubits: vec!["q".into()],
            op: "X".into(),
            post: post_final.clone(),
        }),
        else_proof: Box::new(ProofNode::Skip {
            theta: post_final.clone(),
        }),
    };
    let outer_meas = ProofNode::Meas {
        meas: "M01".into(),
        qubits: vec!["q2".into()],
        then_proof: Box::new(inner_meas),
        else_proof: Box::new(ProofNode::Skip {
            theta: post_final.clone(),
        }),
    };
    let f_meas = check(&outer_meas)?;

    // --- 4. Decode CNOTs (program order: CX(q,q2) then CX(q,q1)). -------
    let dec_qq1 = ProofNode::Unit {
        qubits: vec!["q".into(), "q1".into()],
        op: "CX".into(),
        post: f_meas.pre.clone(),
    };
    let f_dec_qq1 = check(&dec_qq1)?;
    let dec_qq2 = ProofNode::Unit {
        qubits: vec!["q".into(), "q2".into()],
        op: "CX".into(),
        post: f_dec_qq1.pre.clone(),
    };
    let f_dec_qq2 = check(&dec_qq2)?;
    let m_sum_assertion = f_dec_qq2.pre.clone();

    // --- 2./3. The four error branches, (Imp)-weakened, then (NDet). ----
    // Ψ₀ = [α|000⟩+β|111⟩]; Mᵢ are its images under the branch unitaries.
    let enc0 = {
        let v000 = ket("000").scale(nqpv_linalg::cr(alpha));
        let v111 = ket("111").scale(nqpv_linalg::cr(beta));
        (&v000 + &v111).projector()
    };
    let psi0 = Assertion::from_ops(dim, vec![enc0.clone()])?;
    let x = gates::x();
    let branch = |positions: Option<usize>| -> Result<ProofNode, VerifError> {
        match positions {
            None => Ok(ProofNode::imp(
                psi0.clone(),
                ProofNode::Skip {
                    theta: psi0.clone(),
                },
                m_sum_assertion.clone(),
            )),
            Some(p) => {
                let qname = reg.names()[p].clone();
                let m_i = adjoint_conjugate_gate(&x, &[p], n, &enc0); // X M X = image
                let m_i_assertion = Assertion::from_ops(dim, vec![m_i])?;
                Ok(ProofNode::imp(
                    psi0.clone(),
                    ProofNode::Unit {
                        qubits: vec![qname],
                        op: "X".into(),
                        post: m_i_assertion,
                    },
                    m_sum_assertion.clone(),
                ))
            }
        }
    };
    let ndet_node = ProofNode::ndet_all(vec![
        branch(None)?,
        branch(Some(0))?,
        branch(Some(1))?,
        branch(Some(2))?,
    ]);
    let f_ndet = check(&ndet_node)?;
    debug_assert!(f_ndet.pre.approx_set_eq(&psi0, 1e-8));

    // --- 1. Encoding (backwards from Ψ₀). --------------------------------
    let enc_qq2 = ProofNode::Unit {
        qubits: vec!["q".into(), "q2".into()],
        op: "CX".into(),
        post: psi0.clone(),
    };
    let f_enc_qq2 = check(&enc_qq2)?;
    let enc_qq1 = ProofNode::Unit {
        qubits: vec!["q".into(), "q1".into()],
        op: "CX".into(),
        post: f_enc_qq2.pre.clone(),
    };
    let f_enc_qq1 = check(&enc_qq1)?;
    let init = ProofNode::Init {
        qubits: vec!["q1".into(), "q2".into()],
        post: f_enc_qq1.pre.clone(),
    };

    // --- Assemble in program order. --------------------------------------
    let full = ProofNode::seq_all(vec![
        init, enc_qq1, enc_qq2, ndet_node, dec_qq2, dec_qq1, outer_meas,
    ]);
    let formula = check(&full)?;
    Ok((full, formula))
}

/// Builds and checks the Sec. 5.3 derivation of
/// `⊢par {I} QWalk {0}` (Eq. 15): the loop invariant
/// `N = [|00⟩] + [(|01⟩+|11⟩)/√2]` is threaded through both walk orders
/// with (Unit)+(Seq), folded by (NDet) (Eq. 16), closed by (While), and
/// initialised by (Init).
///
/// # Errors
///
/// Propagates rule-checking failures.
pub fn qwalk_derivation(
    lib: &OperatorLibrary,
    reg: &Register,
    opts: LownerOptions,
) -> Result<(ProofNode, Formula), VerifError> {
    let dim = reg.dim();
    debug_assert_eq!(dim, 4, "QWalk uses the register [q1, q2]");
    let check = |node: &ProofNode| check_proof(node, Mode::Partial, lib, reg, opts);

    let inv_n = crate::casestudies::qwalk_invariant();
    let inv = Assertion::from_ops(dim, vec![inv_n.clone()])?;
    let zero = Assertion::zero(dim);

    // Branch W1;W2 — the paper's first (Unit)² chain.
    let w2 = lib.unitary("W2")?.clone();
    let mid_12 = Assertion::from_ops(dim, vec![w2.adjoint_conjugate(&inv_n)])?;
    let branch_12 = ProofNode::seq(
        ProofNode::Unit {
            qubits: vec!["q1".into(), "q2".into()],
            op: "W1".into(),
            post: mid_12.clone(),
        },
        ProofNode::Unit {
            qubits: vec!["q1".into(), "q2".into()],
            op: "W2".into(),
            post: inv.clone(),
        },
    );
    let f_12 = check(&branch_12)?;
    debug_assert!(
        f_12.pre.approx_set_eq(&inv, 1e-8),
        "W2W1 must fix the invariant subspace"
    );

    // Branch W2;W1 — the second chain.
    let w1 = lib.unitary("W1")?.clone();
    let mid_21 = Assertion::from_ops(dim, vec![w1.adjoint_conjugate(&inv_n)])?;
    let branch_21 = ProofNode::seq(
        ProofNode::Unit {
            qubits: vec!["q1".into(), "q2".into()],
            op: "W2".into(),
            post: mid_21,
        },
        ProofNode::Unit {
            qubits: vec!["q1".into(), "q2".into()],
            op: "W1".into(),
            post: inv.clone(),
        },
    );

    // (NDet): both branches prove {N} body {N} — but the (While) premise
    // needs postcondition P⁰(Ψ)+P¹(Θ) = {P⁰·0·P⁰ + P¹·N·P¹} = {N} since
    // N's support avoids |10⟩. The sets coincide, so no (Imp) is needed —
    // exactly the paper's Eq. 16.
    let body = ProofNode::ndet(branch_12, branch_21);

    let while_node = ProofNode::While {
        meas: "MQWalk".into(),
        qubits: vec!["q1".into(), "q2".into()],
        invariant: inv.clone(),
        post: zero,
        body_proof: Box::new(body),
        ranking: None,
    };
    let f_while = check(&while_node)?;

    // (Init): {Σᵢ |i⟩⟨00| N |00⟩⟨i|} = {I} since ⟨00|N|00⟩ = 1.
    let init = ProofNode::Init {
        qubits: vec!["q1".into(), "q2".into()],
        post: f_while.pre.clone(),
    };
    let full = ProofNode::seq(init, while_node);
    let formula = check(&full)?;
    Ok((full, formula))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correctness::{holds_on_state, sample_states, Sense};
    use nqpv_linalg::CMat;
    use nqpv_semantics::{denote_bounded, DenoteOptions};

    #[test]
    fn sec51_derivation_checks_and_matches_the_paper_formula() {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q", "q1", "q2"]).unwrap();
        for (a, b) in [(1.0, 0.0), (0.6, 0.8)] {
            let (_, formula) =
                err_corr_derivation(a, b, &lib, &reg, LownerOptions::default()).unwrap();
            // {[ψ]_q ⊗ I} ErrCorr {[ψ]_q ⊗ I}.
            let psi = CVec::new(vec![nqpv_linalg::cr(a), nqpv_linalg::cr(b)]);
            let expected = embed(&psi.projector(), &[0], 3);
            assert_eq!(formula.pre.len(), 1);
            assert!(
                formula.pre.ops()[0].approx_eq(&expected, 1e-9),
                "derived precondition is not [ψ]⊗I for α={a}, β={b}"
            );
            assert!(formula.post.ops()[0].approx_eq(&expected, 1e-9));
        }
    }

    #[test]
    fn sec51_derivation_is_semantically_sound() {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q", "q1", "q2"]).unwrap();
        let (_, formula) =
            err_corr_derivation(0.6, 0.8, &lib, &reg, LownerOptions::default()).unwrap();
        let sem = nqpv_semantics::denote(&formula.stmt, &lib, &reg).unwrap();
        for rho in sample_states(8, 6, 808) {
            assert!(holds_on_state(
                Sense::Total,
                &sem,
                &rho,
                &formula.pre,
                &formula.post,
                1e-8
            ));
        }
    }

    #[test]
    fn sec51_derivation_agrees_with_the_backward_verifier() {
        // Same program, two pipelines: proof-tree replay vs wp computation.
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q", "q1", "q2"]).unwrap();
        let (_, formula) =
            err_corr_derivation(0.6, 0.8, &lib, &reg, LownerOptions::default()).unwrap();
        let wp = crate::transformer::precondition(
            &formula.stmt,
            &formula.post,
            &lib,
            &reg,
            crate::transformer::VcOptions {
                mode: Mode::Total,
                ..Default::default()
            },
            &std::collections::HashMap::new(),
        )
        .unwrap();
        // The derivation's precondition must entail the computed wp.
        assert!(formula
            .pre
            .le_inf(&wp, LownerOptions::default())
            .unwrap()
            .holds());
    }

    #[test]
    fn sec53_derivation_establishes_eq_15() {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q1", "q2"]).unwrap();
        let (_, formula) = qwalk_derivation(&lib, &reg, LownerOptions::default()).unwrap();
        // {I} QWalk {0}.
        assert_eq!(formula.pre.len(), 1);
        assert!(formula.pre.ops()[0].approx_eq(&CMat::identity(4), 1e-9));
        assert!(formula.post.ops()[0].is_zero(1e-12));
        assert!(matches!(formula.stmt, nqpv_lang::Stmt::Seq(_)));
    }

    #[test]
    fn sec53_derivation_is_semantically_sound_partially() {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q1", "q2"]).unwrap();
        let (_, formula) = qwalk_derivation(&lib, &reg, LownerOptions::default()).unwrap();
        let sem = denote_bounded(
            &formula.stmt,
            &lib,
            &reg,
            DenoteOptions {
                loop_depth: 6,
                max_set: 4096,
                dedupe: true,
            },
        )
        .unwrap();
        for rho in sample_states(4, 5, 909) {
            assert!(holds_on_state(
                Sense::Partial,
                &sem,
                &rho,
                &formula.pre,
                &formula.post,
                1e-8
            ));
        }
    }

    #[test]
    fn wrong_branch_postcondition_breaks_the_derivation() {
        // Tamper with the (Imp) weakening target: use M₂ alone instead of
        // the full sum — the (NDet) interface must then fail.
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q", "q1", "q2"]).unwrap();
        let dim = 8;
        let enc0 = {
            let v000 = ket("000").scale(nqpv_linalg::cr(0.6));
            let v111 = ket("111").scale(nqpv_linalg::cr(0.8));
            (&v000 + &v111).projector()
        };
        let psi0 = Assertion::from_ops(dim, vec![enc0.clone()]).unwrap();
        let m2 = adjoint_conjugate_gate(&gates::x(), &[0], 3, &enc0);
        let m2a = Assertion::from_ops(dim, vec![m2]).unwrap();
        // Branch "skip" weakened to {M2}: Ψ₀ ⋢ M2, so (Imp) itself fails.
        let bad = ProofNode::imp(psi0.clone(), ProofNode::Skip { theta: psi0 }, m2a);
        assert!(check_proof(&bad, Mode::Total, &lib, &reg, LownerOptions::default()).is_err());
    }
}
