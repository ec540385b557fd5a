//! Property-based tests for the linear-algebra substrate: the invariants
//! every downstream verification step silently relies on.

use nqpv_linalg::{
    c, cholesky, eigh, embed, is_psd, partial_trace, read_matrix_bytes, write_matrix_bytes, CMat,
    CVec,
};
use proptest::prelude::*;

/// Strategy: a random complex matrix with entries in [-1, 1]².
fn cmat(dim: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), dim * dim).prop_map(move |xs| {
        CMat::from_vec(dim, dim, xs.into_iter().map(|(re, im)| c(re, im)).collect())
    })
}

/// Strategy: a random hermitian matrix.
fn hermitian(dim: usize) -> impl Strategy<Value = CMat> {
    cmat(dim).prop_map(|g| g.add_mat(&g.adjoint()).scale_re(0.5))
}

/// Tolerance of the unitarity decisions below: the library's.
const UNITARY_TOL: f64 = 1e-8;

/// A square matrix at the edge of unitarity, built from a seed: a
/// phased permutation (exact zeros off its support) mixed by a few
/// rotations on row pairs, then optionally
///
/// * `nudge` 1–3: one entry moved by `0.25–4 · tol` on one component,
///   or the whole matrix scaled by `1 ± tol`, so `A†A` lands near the
///   tolerance boundary on either side;
/// * `specials` ≥ 2: `specials − 1` entries with a component replaced by
///   `±0`, NaN or `±∞` (a `±0` replaces both components).
///
/// Sizes include 37, past one row panel of the half-Gram check.
fn near_unitary(size: usize, seed: u64, nudge: usize, specials: usize) -> CMat {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let d = [1usize, 2, 3, 8, 37][size];
    let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
    let mut perm: Vec<usize> = (0..d).collect();
    for i in (1..d).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut u = CMat::zeros(d, d);
    for (i, &p) in perm.iter().enumerate() {
        let theta = unit(next()) * std::f64::consts::TAU;
        u[(i, p)] = c(theta.cos(), theta.sin());
    }
    for _ in 0..d / 2 {
        let (a, b) = ((next() % d as u64) as usize, (next() % d as u64) as usize);
        if a == b {
            continue;
        }
        let t = unit(next()) * std::f64::consts::TAU;
        let (co, si) = (t.cos(), t.sin());
        for j in 0..d {
            let (x, y) = (u[(a, j)], u[(b, j)]);
            u[(a, j)] = x.scale(co) - y.scale(si);
            u[(b, j)] = x.scale(si) + y.scale(co);
        }
    }
    let (i, j) = ((next() % d as u64) as usize, (next() % d as u64) as usize);
    let delta = UNITARY_TOL * (0.25 + 3.75 * unit(next()));
    match nudge {
        1 => u[(i, j)].re += delta,
        2 => u[(i, j)].im -= delta,
        3 => u = u.scale_re(1.0 + UNITARY_TOL * (unit(next()) - 0.5)),
        _ => {}
    }
    let values = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for _ in 1..specials {
        let (i, j) = ((next() % d as u64) as usize, (next() % d as u64) as usize);
        let x = values[(next() % values.len() as u64) as usize];
        let z = &mut u[(i, j)];
        if x == 0.0 {
            *z = c(x, x);
        } else if next() % 2 == 0 {
            z.re = x;
        } else {
            z.im = x;
        }
    }
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn unitarity_is_decided_as_the_full_gram_product_decides_it(
        size in 0usize..5,
        seed in 0u64..u64::MAX,
        nudge in 0usize..4,
        specials in 0usize..5,
    ) {
        let u = near_unitary(size, seed, nudge, specials);
        let full = u.adjoint_mul(&u).is_identity(UNITARY_TOL);
        prop_assert_eq!(u.is_unitary(UNITARY_TOL), full);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eigh_reconstructs_and_orders(h in hermitian(5)) {
        let e = eigh(&h).unwrap();
        prop_assert!(e.reconstruct().approx_eq(&h, 1e-7));
        prop_assert!(e.vectors.is_unitary(1e-7));
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-10);
        }
        // Trace = sum of eigenvalues.
        let tr: f64 = e.values.iter().sum();
        prop_assert!((tr - h.trace_re()).abs() < 1e-7);
    }

    #[test]
    fn cholesky_and_eigenvalues_agree_on_psdness(h in hermitian(4)) {
        let min = eigh(&h).unwrap().min();
        // Outside a narrow band around zero the two tests must agree.
        if min.abs() > 1e-6 {
            prop_assert_eq!(is_psd(&h, 1e-9), min > 0.0);
        }
        // A hermitian square is always PSD.
        let sq = h.mul(&h);
        prop_assert!(is_psd(&sq, 1e-8));
        let l = cholesky(&sq.add_mat(&CMat::identity(4).scale_re(1e-6)));
        prop_assert!(l.is_some());
    }

    #[test]
    fn adjoint_is_an_involution_and_antihomomorphism(a in cmat(4), b in cmat(4)) {
        prop_assert!(a.adjoint().adjoint().approx_eq(&a, 1e-12));
        prop_assert!(a.mul(&b).adjoint().approx_eq(&b.adjoint().mul(&a.adjoint()), 1e-9));
    }

    #[test]
    fn trace_is_cyclic(a in cmat(4), b in cmat(4), cm in cmat(4)) {
        let t1 = a.mul(&b).mul(&cm).trace();
        let t2 = cm.mul(&a).mul(&b).trace();
        prop_assert!(t1.approx_eq(t2, 1e-8));
    }

    #[test]
    fn kron_respects_products(a in cmat(2), b in cmat(2), cm in cmat(2), d in cmat(2)) {
        let lhs = a.kron(&b).mul(&cm.kron(&d));
        let rhs = a.mul(&cm).kron(&b.mul(&d));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn partial_trace_is_trace_preserving_and_linear(a in hermitian(8), b in hermitian(8)) {
        // 3-qubit space: trace out qubit 1.
        let ta = partial_trace(&a, &[1], 3);
        prop_assert!((ta.trace_re() - a.trace_re()).abs() < 1e-9);
        let tsum = partial_trace(&a.add_mat(&b), &[1], 3);
        prop_assert!(tsum.approx_eq(&ta.add_mat(&partial_trace(&b, &[1], 3)), 1e-9));
    }

    #[test]
    fn embed_preserves_spectrum_support(h in hermitian(2)) {
        // λ(M ⊗ I) = λ(M) each with doubled multiplicity.
        let big = embed(&h, &[0], 2);
        let small_eigs = eigh(&h).unwrap().values;
        let big_eigs = eigh(&big).unwrap().values;
        for lam in small_eigs {
            let count = big_eigs.iter().filter(|&&x| (x - lam).abs() < 1e-7).count();
            prop_assert!(count >= 2, "eigenvalue {lam} lost multiplicity");
        }
    }

    #[test]
    fn npy_round_trip_arbitrary(a in cmat(3)) {
        let bytes = write_matrix_bytes(&a);
        let back = read_matrix_bytes(&bytes).unwrap();
        prop_assert!(back.approx_eq(&a, 0.0));
    }

    #[test]
    fn outer_products_are_rank_one_projectors(xs in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4)) {
        let v = CVec::new(xs.into_iter().map(|(re, im)| c(re, im)).collect());
        prop_assume!(v.norm() > 1e-3);
        let p = v.normalized().projector();
        prop_assert!(p.is_hermitian(1e-10));
        prop_assert!(p.mul(&p).approx_eq(&p, 1e-9));
        prop_assert!((p.trace_re() - 1.0).abs() < 1e-9);
        prop_assert!(is_psd(&p, 1e-9));
    }

    #[test]
    fn lowner_order_respects_addition_of_psd(h in hermitian(3), g in cmat(3)) {
        // h ⊑ h + GG† always.
        let psd = g.mul(&g.adjoint());
        prop_assert!(nqpv_linalg::lowner_le(&h, &h.add_mat(&psd), 1e-8));
    }
}
