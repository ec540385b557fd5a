//! Integration tests for experiments E1–E3: the paper's Sec. 5 case
//! studies, verified through the full pipeline (parse → bind → backward
//! pass → `⊑_inf`) and cross-checked against the denotational semantics.

use nqpv::core::casestudies::{deutsch, err_corr, grover, grover_parameters, qwalk};
use nqpv::core::correctness::{check_on_states, sample_states, Sense};
use nqpv::core::{Assertion, VcOptions};
use nqpv::linalg::{embed, CMat, CVec};
use nqpv::quantum::{ket, OperatorLibrary, Register};
use nqpv::semantics::DenoteOptions;

#[test]
fn e1_err_corr_verifies_for_many_input_states() {
    for (a, b) in [
        (1.0, 0.0),
        (0.0, 1.0),
        (0.6, 0.8),
        (
            std::f64::consts::FRAC_1_SQRT_2,
            -std::f64::consts::FRAC_1_SQRT_2,
        ),
        (0.96, 0.28),
    ] {
        let outcome = err_corr(a, b).verify().expect("verification runs");
        assert!(outcome.status.verified(), "ψ = {a}|0⟩+{b}|1⟩");
    }
}

#[test]
fn e1_err_corr_semantic_crosscheck() {
    // Definition 4.2 evaluated directly on the program semantics.
    let study = err_corr(0.6, 0.8);
    let lib = study.library.clone();
    let reg = Register::new(&["q", "q1", "q2"]).unwrap();
    let psi = CVec::new(vec![nqpv::linalg::cr(0.6), nqpv::linalg::cr(0.8)]);
    let pred = embed(&psi.projector(), &[0], 3);
    let pre = Assertion::from_ops(8, vec![pred.clone()]).unwrap();
    let post = Assertion::from_ops(8, vec![pred]).unwrap();
    let ok = check_on_states(
        Sense::Total,
        &study.term.body,
        &pre,
        &post,
        &lib,
        &reg,
        &sample_states(8, 8, 2024),
        DenoteOptions::default(),
        1e-8,
    )
    .unwrap();
    assert!(ok, "⊨tot {{[ψ]q}} ErrCorr {{[ψ]q}} fails semantically");
}

#[test]
fn e2_deutsch_verifies_and_is_semantically_sound() {
    let study = deutsch();
    let outcome = study.verify().expect("verification runs");
    assert!(outcome.status.verified());

    let reg = Register::new(&["q", "q1", "q2"]).unwrap();
    let dpost = ket("00").projector().add_mat(&ket("11").projector());
    let post = Assertion::from_ops(8, vec![embed(&dpost, &[0, 1], 3)]).unwrap();
    let pre = Assertion::identity(8);
    let ok = check_on_states(
        Sense::Total,
        &study.term.body,
        &pre,
        &post,
        &study.library,
        &reg,
        &sample_states(8, 8, 7),
        DenoteOptions::default(),
        1e-8,
    )
    .unwrap();
    assert!(ok, "⊨tot {{I}} Deutsch {{DPost}} fails semantically");
}

#[test]
fn e3_qwalk_partial_correctness_and_nontermination() {
    let study = qwalk();
    let outcome = study.verify().expect("verification runs");
    assert!(outcome.status.verified());
    // The verification condition is the full identity: {I} QWalk {0}.
    assert!(outcome.computed_pre.ops()[0].approx_eq(&CMat::identity(4), 1e-9));

    // Semantic cross-check: under bounded unrolling every output has
    // (near-)zero trace, so Exp(σ ⊨ {0}) + tr ρ − tr σ ≈ tr ρ ≥ Exp(ρ ⊨ I).
    let reg = Register::new(&["q1", "q2"]).unwrap();
    let pre = Assertion::identity(4);
    let post = Assertion::zero(4);
    let ok = check_on_states(
        Sense::Partial,
        &study.term.body,
        &pre,
        &post,
        &study.library,
        &reg,
        &sample_states(4, 6, 99),
        DenoteOptions {
            loop_depth: 8,
            max_set: 4096,
            dedupe: true,
        },
        1e-8,
    )
    .unwrap();
    assert!(ok);
}

#[test]
fn e3_qwalk_total_claim_would_be_false() {
    // {I} QWalk {0} holds *partially* but must NOT hold totally:
    // total correctness would demand Exp(ρ⊨I) ≤ Exp(σ⊨0) = 0.
    let study = qwalk();
    let lib = study.library.clone();
    let reg = Register::new(&["q1", "q2"]).unwrap();
    let pre = Assertion::identity(4);
    let post = Assertion::zero(4);
    let ok = check_on_states(
        Sense::Total,
        &study.term.body,
        &pre,
        &post,
        &lib,
        &reg,
        &[ket("00").projector()],
        DenoteOptions {
            loop_depth: 4,
            max_set: 4096,
            dedupe: true,
        },
        1e-8,
    )
    .unwrap();
    assert!(!ok, "total correctness of {{I}} QWalk {{0}} must fail");
}

#[test]
fn e6_grover_verifies_and_derives_success_probability() {
    for n in 1..=7 {
        let params = grover_parameters(n);
        let study = grover(n);
        let factored = study.verify().expect("verification runs");
        // The dense pipeline (`factor_assertions = false`) must agree; it
        // is too slow to run past a few qubits.
        let dense = (n <= 4).then(|| {
            let opts = VcOptions {
                mode: study.mode,
                factor_assertions: false,
                ..VcOptions::default()
            };
            study.verify_with(opts).expect("verification runs")
        });
        for outcome in std::iter::once(&factored).chain(dense.as_ref()) {
            assert!(outcome.status.verified(), "n = {n}");
            // The computed wp is exactly p·I: read p back off the matrix.
            let wp = &outcome.computed_pre;
            assert_eq!(wp.len(), 1);
            let p_derived = wp.ops()[0][(0, 0)].re;
            assert!(
                (p_derived - params.success_probability).abs() < 1e-9,
                "n = {n}: derived {p_derived}, closed form {}",
                params.success_probability
            );
        }
    }
}

/// Pins the bits of the computed `p·I` precondition of an init-first
/// Grover proof, n = 1..=9: a guard on how operators are stored and
/// composed, not on the bits of the linalg kernels. A fused multiply-add
/// in the wide sweep and matmul instances leaves these hashes unchanged.
/// The kernel bits are guarded by the cross-ISA unit tests in
/// `nqpv-linalg` (`tensor`'s `*_agree_across_instruction_sets` and
/// `matrix`'s `products_agree_across_instruction_sets`) and by the bitwise
/// tests in `crates/linalg/tests/par_properties.rs` (e.g.
/// `blocked_matmul_matches_naive_reference_bitwise`).
#[test]
fn e6_grover_computed_preconditions_keep_their_bits() {
    // FNV-1a of the re/im bits of the computed precondition's dense form,
    // pinned for n = 1..=9. Changing how an operator is stored or applied
    // (the Oracle is an exact diagonal, Hⁿ and Diff are dense) must not
    // change a single bit of the result.
    let pinned: [u64; 9] = [
        0x83dc_040a_16fd_f729,
        0x7d35_0b3f_bb4c_586d,
        0x1e21_a32b_61f7_8815,
        0x2cee_8b28_c89d_e265,
        0x941d_4ff4_8e0f_bb25,
        0x7cc7_a142_ea42_5825,
        0x8034_f163_e038_bb25,
        0x10bb_f9ee_15b2_6725,
        0x9d6e_049d_04cc_e325,
    ];
    for (n, &want) in (1..=9).zip(&pinned) {
        let outcome = grover(n).verify().expect("verification runs");
        assert_eq!(outcome.computed_pre.len(), 1, "n = {n}");
        let mut bytes = Vec::new();
        for z in outcome.computed_pre.ops()[0].dense().as_slice() {
            bytes.extend_from_slice(&z.re.to_bits().to_le_bytes());
            bytes.extend_from_slice(&z.im.to_bits().to_le_bytes());
        }
        assert_eq!(
            nqpv::core::cache::fnv1a(&bytes),
            want,
            "n = {n}: computed precondition bits changed"
        );
    }
}

#[test]
fn e6_grover_rejects_overclaimed_success() {
    // Claiming success probability above the true p must fail.
    let n = 3;
    let params = grover_parameters(n);
    let mut study = grover(n);
    let dim = 1usize << n;
    study
        .library
        .insert_predicate(
            "TooMuch",
            CMat::identity(dim).scale_re((params.success_probability + 0.01).min(1.0)),
        )
        .unwrap();
    let body = nqpv::lang::pretty_proof_term(&study.term);
    let replaced = body
        .lines()
        .skip(1) // drop "proof [..] :" header
        .collect::<Vec<_>>()
        .join("\n")
        .replace("PreG", "TooMuch");
    study.term = nqpv::lang::parse_proof_body(&["q0", "q1", "q2"], &replaced).unwrap();
    let outcome = study.verify().expect("verification runs");
    assert!(!outcome.status.verified());
}

#[test]
fn qwalk_always_left_scheduler_matches_w2w1_fixed_point() {
    // The paper's observation: W2·W1|00⟩ = |00⟩ explains non-termination
    // for the always-left scheduler.
    let lib = OperatorLibrary::with_builtins();
    let w1 = lib.unitary("W1").unwrap();
    let w2 = lib.unitary("W2").unwrap();
    let v = w2.mul(w1).mul_vec(&CVec::basis(4, 0));
    assert!((v[0].re - 1.0).abs() < 1e-10);
}
