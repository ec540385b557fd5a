//! Property tests for the intra-job parallel kernels: every threaded
//! sweep (gate columns, conjugation, blocked matmul, gram) produces
//! byte-identical output at thread counts 1, 2 and 7, non-contiguous
//! footprints included, every gate sweep that reads its gate through
//! an index view (adjoint, conjugate, transpose) matches the same sweep
//! over the materialised matrix bit for bit, and so do the diagonal-gate
//! kernels and the index-read `A†·B`.

use nqpv_linalg::{
    adjoint_conjugate_diagonal, adjoint_conjugate_gate, apply_diagonal_columns_adjoint,
    apply_gate_columns, apply_gate_columns_adjoint, apply_gate_right_adjoint, c,
    conjugate_diagonal, conjugate_gate, gram, par, CMat, Complex,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Mutex;

/// Serialises knob-twiddling tests against each other. Other concurrent
/// tests observing a mutated knob stay correct — results are bitwise
/// identical for every thread count by design — but each equivalence
/// test must control which path *it* exercises.
static KNOBS: Mutex<()> = Mutex::new(());

/// Runs `f` with the given kernel thread count and a threshold of 1 so
/// even tiny sweeps take the threaded path.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let old = par::parallel_threshold();
    par::set_parallel_threshold(1);
    par::set_kernel_threads(threads);
    let r = f();
    par::set_kernel_threads(1);
    par::set_parallel_threshold(old);
    r
}

/// Byte-level equality, distinguishing ±0.0 and NaN payloads.
fn bits_eq(a: &CMat, b: &CMat) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Strategy: a random complex matrix with entries in [-1, 1]², with
/// small entries flushed to a signed zero so the exact-zero skip paths
/// are exercised too.
fn cmat(rows: usize, cols: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), rows * cols).prop_map(move |xs| {
        let flush = |v: f64| {
            if v.abs() < 0.25 {
                if v < 0.0 {
                    -0.0
                } else {
                    0.0
                }
            } else {
                v
            }
        };
        CMat::from_vec(
            rows,
            cols,
            xs.into_iter()
                .map(|(re, im)| c(flush(re), flush(im)))
                .collect(),
        )
    })
}

/// The pre-blocking reference matmul: naive ikj with the exact-zero skip.
fn mul_reference(a: &CMat, b: &CMat) -> CMat {
    let mut out = CMat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av.is_exact_zero() {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

/// Reference gram `A†B`, k-outer like the production kernel.
fn gram_reference(a: &CMat, b: &CMat) -> CMat {
    let mut g = CMat::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        for i in 0..a.cols() {
            let ac = a[(k, i)].conj();
            if ac.is_exact_zero() {
                continue;
            }
            for j in 0..b.cols() {
                g[(i, j)] += ac * b[(k, j)];
            }
        }
    }
    g
}

/// The top-left `rows × cols` block of `m`.
fn block(m: &CMat, rows: usize, cols: usize) -> CMat {
    CMat::from_fn(rows, cols, |i, j| m[(i, j)])
}

/// `M·G_S†` from an as-is column sweep of the materialised `conj(G)`
/// over `Mᵀ`: each column of `Mᵀ` is a row of `M`, swept with the same
/// products in the same order as a row sweep.
fn right_adjoint_reference(g: &CMat, pos: &[usize], n: usize, m: &CMat) -> CMat {
    let mut t = m.transpose();
    apply_gate_columns(&g.conj(), pos, n, &mut t);
    t.transpose()
}

/// `G_S·M·G_S†` from as-is column sweeps over materialised gates only.
fn conjugate_reference(g: &CMat, pos: &[usize], n: usize, m: &CMat) -> CMat {
    let mut left = m.clone();
    apply_gate_columns(g, pos, n, &mut left);
    right_adjoint_reference(g, pos, n, &left)
}

/// Non-contiguous / reversed 2-qubit footprints on a 4-qubit register.
const FOOTPRINTS: [[usize; 2]; 4] = [[0, 2], [3, 1], [1, 3], [2, 0]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_gate_sweeps_match_serial_bitwise(
        gate in cmat(4, 4),
        op in cmat(16, 16),
        factor in cmat(16, 5),
        fp in 0usize..FOOTPRINTS.len(),
    ) {
        let pos = FOOTPRINTS[fp];
        let serial = with_threads(1, || {
            let mut cols = factor.clone();
            apply_gate_columns(&gate, &pos, 4, &mut cols);
            (
                cols,
                conjugate_gate(&gate, &pos, 4, &op),
                adjoint_conjugate_gate(&gate, &pos, 4, &op),
            )
        });
        for threads in [2usize, 7] {
            let threaded = with_threads(threads, || {
                let mut cols = factor.clone();
                apply_gate_columns(&gate, &pos, 4, &mut cols);
                (
                    cols,
                    conjugate_gate(&gate, &pos, 4, &op),
                    adjoint_conjugate_gate(&gate, &pos, 4, &op),
                )
            });
            prop_assert!(bits_eq(&serial.0, &threaded.0), "columns, {threads} threads");
            prop_assert!(bits_eq(&serial.1, &threaded.1), "conjugate, {threads} threads");
            prop_assert!(bits_eq(&serial.2, &threaded.2), "adjoint conjugate, {threads} threads");
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_reference_bitwise(
        a in cmat(17, 13),
        b in cmat(13, 9),
    ) {
        // Odd, non-power-of-two shapes stress the tile edges.
        let reference = mul_reference(&a, &b);
        for threads in [1usize, 2, 7] {
            let blocked = with_threads(threads, || a.mul(&b));
            prop_assert!(bits_eq(&reference, &blocked), "{threads} threads");
        }
    }

    #[test]
    fn threaded_gram_matches_reference_bitwise(
        a in cmat(32, 5),
        b in cmat(32, 7),
    ) {
        let reference = gram_reference(&a, &b);
        for threads in [1usize, 2, 7] {
            let threaded = with_threads(threads, || gram(&a, &b));
            prop_assert!(bits_eq(&reference, &threaded), "{threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gate_views_match_materialised_gates_bitwise(
        k in 1usize..=3,
        extra in 0usize..=3,
        width in 0usize..=5,
        keys in proptest::collection::vec(0u32..1000, 6),
        big_gate in cmat(8, 8),
        big_op in cmat(64, 64),
        big_factor in cmat(64, 5),
    ) {
        let n = (k + extra).min(6);
        let (dk, d) = (1usize << k, 1usize << n);
        // A random, generally non-hermitian gate, so its adjoint, its
        // conjugate and its transpose are four different matrices.
        let g = block(&big_gate, dk, dk);
        prop_assume!(!bits_eq(&g, &g.adjoint()));
        prop_assume!(!bits_eq(&g, &g.transpose()));
        prop_assume!(!bits_eq(&g, &g.conj()));
        // k distinct positions of 0..n in a random order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&q| (keys[q], q));
        let pos = &order[..k];
        let op = block(&big_op, d, d);
        let factor = block(&big_factor, d, width);
        let ga = g.adjoint();
        for threads in [1usize, 4] {
            with_threads(threads, || -> Result<(), TestCaseError> {
                let mut viewed = factor.clone();
                apply_gate_columns_adjoint(&g, pos, n, &mut viewed);
                let mut copied = factor.clone();
                apply_gate_columns(&ga, pos, n, &mut copied);
                prop_assert!(bits_eq(&viewed, &copied), "columns adjoint, {threads} threads");

                let viewed = adjoint_conjugate_gate(&g, pos, n, &op);
                prop_assert!(
                    bits_eq(&viewed, &conjugate_gate(&ga, pos, n, &op)),
                    "adjoint conjugate, {threads} threads"
                );
                prop_assert!(
                    bits_eq(&viewed, &conjugate_reference(&ga, pos, n, &op)),
                    "adjoint conjugate vs as-is sweeps, {threads} threads"
                );
                prop_assert!(
                    bits_eq(&conjugate_gate(&g, pos, n, &op), &conjugate_reference(&g, pos, n, &op)),
                    "conjugate, {threads} threads"
                );

                let mut viewed = op.clone();
                apply_gate_right_adjoint(&g, pos, n, &mut viewed);
                prop_assert!(
                    bits_eq(&viewed, &right_adjoint_reference(&g, pos, n, &op)),
                    "right adjoint, {threads} threads"
                );
                Ok(())
            })?;
        }
    }
}

/// Entry `t` of a random diagonal unitary: a unit phase, or (by `kind`)
/// one of the signed-zero-carrying phases `1 − 0i`, `−1 + 0i`, `i`,
/// `−0 − i`, whose products with signed-zero operands come out −0.
fn phase(kind: usize, theta: f64) -> Complex {
    match kind {
        0 => c(1.0, -0.0),
        1 => c(-1.0, 0.0),
        2 => c(0.0, 1.0),
        3 => c(-0.0, -1.0),
        _ => Complex::from_polar(1.0, theta),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diagonal_kernels_match_the_dense_sweeps_bitwise(
        k in 1usize..=3,
        extra in 0usize..=3,
        width in 0usize..=5,
        keys in proptest::collection::vec(0u32..1000, 6),
        kinds in proptest::collection::vec(0usize..8, 8),
        thetas in proptest::collection::vec(-3.2f64..3.2, 8),
        big_op in cmat(64, 64),
        big_factor in cmat(64, 5),
    ) {
        let n = (k + extra).min(6);
        let (dk, d) = (1usize << k, 1usize << n);
        let diag: Vec<Complex> = (0..dk).map(|t| phase(kinds[t], thetas[t])).collect();
        let gate = CMat::diag(&diag);
        // k distinct positions of 0..n in a random order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&q| (keys[q], q));
        let pos = &order[..k];
        let op = block(&big_op, d, d);
        let factor = block(&big_factor, d, width);
        for threads in [1usize, 4] {
            with_threads(threads, || -> Result<(), TestCaseError> {
                let mut fast = factor.clone();
                apply_diagonal_columns_adjoint(&diag, pos, n, &mut fast);
                let mut swept = factor.clone();
                apply_gate_columns_adjoint(&gate, pos, n, &mut swept);
                prop_assert!(bits_eq(&fast, &swept), "factor columns, {threads} threads");
                prop_assert!(
                    bits_eq(
                        &adjoint_conjugate_diagonal(&diag, pos, n, &op),
                        &adjoint_conjugate_gate(&gate, pos, n, &op)
                    ),
                    "dense D†MD, {threads} threads"
                );
                prop_assert!(
                    bits_eq(
                        &conjugate_diagonal(&diag, pos, n, &op),
                        &conjugate_gate(&gate, pos, n, &op)
                    ),
                    "state DρD†, {threads} threads"
                );
                Ok(())
            })?;
        }
    }

    #[test]
    fn index_read_adjoint_products_match_the_copies_bitwise(
        a in cmat(17, 13),
        b in cmat(17, 9),
        m in cmat(17, 17),
        k in cmat(17, 17),
    ) {
        for threads in [1usize, 4] {
            with_threads(threads, || -> Result<(), TestCaseError> {
                prop_assert!(bits_eq(&a.adjoint_mul(&b), &a.adjoint().mul(&b)), "A†B");
                prop_assert!(
                    bits_eq(&k.adjoint_conjugate(&m), &k.adjoint().mul(&m).mul(&k)),
                    "K†MK"
                );
                Ok(())
            })?;
        }
    }
}
