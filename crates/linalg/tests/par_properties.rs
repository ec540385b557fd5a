//! Property tests for the intra-job parallel kernels: every threaded
//! sweep (gate columns, conjugation, blocked matmul, gram) produces
//! byte-identical output at thread counts 1, 2 and 7, non-contiguous
//! footprints included.

use nqpv_linalg::{adjoint_conjugate_gate, apply_gate_columns, c, conjugate_gate, gram, par, CMat};
use proptest::prelude::*;
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
