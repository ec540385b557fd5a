//! Property tests (vendored proptest): the strided local-form
//! `SuperOp::apply` / `SuperOp::apply_heisenberg` paths agree **exactly**
//! (to numerical tolerance) with the old embed-then-matmul reference on
//! random local Kraus sets and arbitrary position subsets — including
//! non-contiguous and reversed qubit orders.

use nqpv_linalg::{c, CMat};
use nqpv_quantum::SuperOp;
use proptest::prelude::*;

/// Deterministic xorshift step for in-case data derivation.
fn next_u64(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn next_f64(s: &mut u64) -> f64 {
    (next_u64(s) as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Random complex matrix with entries in the unit box.
fn random_mat(d: usize, seed: &mut u64) -> CMat {
    CMat::from_fn(d, d, |_, _| c(next_f64(seed), next_f64(seed)))
}

/// Random hermitian "predicate-like" matrix.
fn random_herm(d: usize, seed: &mut u64) -> CMat {
    let g = random_mat(d, seed);
    g.add_mat(&g.adjoint()).scale_re(0.5)
}

/// Random density-like PSD matrix with unit trace.
fn random_density(d: usize, seed: &mut u64) -> CMat {
    let g = random_mat(d, seed);
    let psd = g.mul(&g.adjoint());
    let t = psd.trace_re();
    psd.scale_re(1.0 / t)
}

/// `size` distinct positions drawn from `0..n` in a *random order*
/// (non-contiguous and reversed orders arise naturally from the shuffle).
fn random_positions(n: usize, size: usize, seed: &mut u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in (1..all.len()).rev() {
        let j = (next_u64(seed) % (i as u64 + 1)) as usize;
        all.swap(i, j);
    }
    all.truncate(size);
    all
}

/// Builds a random valid (trace-nonincreasing) local Kraus set by scaling
/// arbitrary matrices below the completeness bound.
fn random_local_kraus(dk: usize, count: usize, seed: &mut u64) -> Vec<CMat> {
    let raw: Vec<CMat> = (0..count).map(|_| random_mat(dk, seed)).collect();
    // ‖ΣK†K‖ ≤ count · dk · max|K|²: scale so the sum is ⊑ I comfortably.
    let bound = raw
        .iter()
        .map(CMat::max_abs)
        .fold(0.0f64, f64::max)
        .max(1e-6);
    let s = 1.0 / (bound * ((count * dk) as f64).sqrt() * 2.0);
    raw.into_iter().map(|k| k.scale_re(s)).collect()
}

/// The old O(8ⁿ) reference path: embed every Kraus operator to the full
/// dimension, then dense-conjugate.
fn dense_apply(kraus: &[CMat], positions: &[usize], n: usize, rho: &CMat) -> CMat {
    let d = 1usize << n;
    let mut out = CMat::zeros(d, d);
    for k in kraus {
        let big = nqpv_linalg::embed(k, positions, n);
        out += &big.conjugate(rho);
    }
    out
}

fn dense_apply_heisenberg(kraus: &[CMat], positions: &[usize], n: usize, m: &CMat) -> CMat {
    let d = 1usize << n;
    let mut out = CMat::zeros(d, d);
    for k in kraus {
        let big = nqpv_linalg::embed(k, positions, n);
        out += &big.adjoint_conjugate(m);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn strided_apply_matches_embed_then_matmul(
        n in 2usize..=5,
        size in 1usize..=3,
        kraus_count in 1usize..=3,
        seed in 1u64..u64::MAX,
    ) {
        let size = size.min(n);
        let mut s = seed;
        let positions = random_positions(n, size, &mut s);
        let kraus = random_local_kraus(1 << size, kraus_count, &mut s);
        let e = SuperOp::from_local_kraus(kraus.clone(), positions.clone(), n)
            .expect("scaled kraus are trace-nonincreasing");

        let rho = random_density(1 << n, &mut s);
        let fast = e.apply(&rho);
        let slow = dense_apply(&kraus, &positions, n, &rho);
        prop_assert!(
            fast.approx_eq(&slow, 1e-10),
            "apply mismatch for positions {positions:?} (n={n})"
        );

        let m = random_herm(1 << n, &mut s);
        let fast_h = e.apply_heisenberg(&m);
        let slow_h = dense_apply_heisenberg(&kraus, &positions, n, &m);
        prop_assert!(
            fast_h.approx_eq(&slow_h, 1e-10),
            "apply_heisenberg mismatch for positions {positions:?} (n={n})"
        );

        // Duality tr(E(ρ)·M) = tr(ρ·E†(M)) must survive the strided path.
        let gap = (fast.trace_product(&m) - rho.trace_product(&fast_h)).abs();
        prop_assert!(gap < 1e-9, "duality gap {gap} for positions {positions:?}");
    }

    #[test]
    fn reversed_and_noncontiguous_footprints_match(seed in 1u64..u64::MAX) {
        // Explicit worst cases on 4 qubits: reversed pair, straddling pair.
        let n = 4usize;
        let mut s = seed;
        let kraus = random_local_kraus(4, 2, &mut s);
        let rho = random_density(1 << n, &mut s);
        for positions in [vec![3, 0], vec![2, 0], vec![1, 3], vec![3, 1]] {
            let e = SuperOp::from_local_kraus(kraus.clone(), positions.clone(), n).unwrap();
            let fast = e.apply(&rho);
            let slow = dense_apply(&kraus, &positions, n, &rho);
            prop_assert!(fast.approx_eq(&slow, 1e-10), "positions {positions:?}");
            // The lazily materialised dense Kraus agree with explicit embeds.
            for (dense, local) in e.kraus().iter().zip(&kraus) {
                let expect = nqpv_linalg::embed(local, &positions, n);
                prop_assert!(dense.approx_eq(&expect, 1e-12), "positions {positions:?}");
            }
        }
    }

    #[test]
    fn embed_compose_add_match_dense_algebra(seed in 1u64..u64::MAX) {
        // E₂∘E₁ and E₁+E₂ on different footprints agree with the dense
        // reference computed from materialised Kraus operators.
        let n = 3usize;
        let mut s = seed;
        let k1 = random_local_kraus(2, 2, &mut s);
        let k2 = random_local_kraus(2, 1, &mut s);
        let p1 = random_positions(n, 1, &mut s);
        let p2 = random_positions(n, 1, &mut s);
        let e1 = SuperOp::from_local_kraus(k1.clone(), p1.clone(), n).unwrap();
        let e2 = SuperOp::from_local_kraus(k2.clone(), p2.clone(), n).unwrap();
        let rho = random_density(1 << n, &mut s);

        let fast = e2.compose(&e1).apply(&rho);
        let slow = dense_apply(&k2, &p2, n, &dense_apply(&k1, &p1, n, &rho));
        prop_assert!(fast.approx_eq(&slow, 1e-10), "compose: {p1:?} then {p2:?}");

        let sum_fast = e1.add(&e2).apply(&rho);
        let sum_slow = dense_apply(&k1, &p1, n, &rho).add_mat(&dense_apply(&k2, &p2, n, &rho));
        prop_assert!(sum_fast.approx_eq(&sum_slow, 1e-10), "add: {p1:?} + {p2:?}");
    }

    #[test]
    fn full_footprint_heisenberg_matches_the_copied_adjoint_bitwise(seed in 1u64..u64::MAX) {
        // The full-footprint dense arm reads K† by index; it must sum
        // exactly what Σ K†·M·K over materialised adjoints sums.
        let n = 3usize;
        let mut s = seed;
        let kraus = random_local_kraus(1 << n, 3, &mut s);
        let m = random_herm(1 << n, &mut s);
        for positions in [vec![0, 1, 2], vec![2, 0, 1]] {
            let e = SuperOp::from_local_kraus(kraus.clone(), positions.clone(), n).unwrap();
            let mut copied = CMat::zeros(1 << n, 1 << n);
            for k in e.kraus() {
                copied += &k.adjoint().mul(&m).mul(k);
            }
            let fast = e.apply_heisenberg(&m);
            let bits = |x: &CMat| -> Vec<(u64, u64)> {
                x.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            prop_assert!(bits(&fast) == bits(&copied), "positions {positions:?}");
        }
    }
}
