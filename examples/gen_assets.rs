//! Regenerates the binary `.npy` operator assets shipped with the
//! checked-in `.nqpv` example files:
//!
//! ```text
//! cargo run --example gen_assets
//! ```
//!
//! Writes `examples/nqpv_files/{invN,psi,dpost}.npy` (used by the CLI
//! examples the integration tests drive) and `examples/corpus/{psi,dpost}.npy`
//! (used by the `nqpv batch` corpus), the 3-qubit Grover operators
//! behind `tests/golden/diagonal.nqpv`, the complex-phase diagonal
//! unitary and full-rank predicate behind `tests/golden/phases.nqpv`, and
//! the seeded random gates and predicates behind `tests/golden/wide.nqpv`.
//! Deterministic output: re-running produces byte-identical files.

use nqpv::core::casestudies::{grover_parameters, qwalk_invariant};
use nqpv::linalg::{c, cr, write_matrix, CMat, CVec, Complex};
use nqpv::quantum::ket;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// A `d`-vector with independent uniform entries in `[-1, 1) + [-1, 1)i`.
fn random_vec(rng: &mut StdRng, d: usize) -> CVec {
    CVec::new(
        (0..d)
            .map(|_| c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect(),
    )
}

/// A seeded random `d × d` unitary: modified Gram–Schmidt over random
/// columns, which are linearly independent with probability 1.
fn random_unitary(rng: &mut StdRng, d: usize) -> CMat {
    let mut cols: Vec<CVec> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut v = random_vec(rng, d);
        for q in &cols {
            let proj = q.dot(&v);
            v = CVec::new(
                v.as_slice()
                    .iter()
                    .zip(q.as_slice())
                    .map(|(&x, &y)| x - proj * y)
                    .collect(),
            );
        }
        cols.push(v.normalized());
    }
    CMat::from_fn(d, d, |i, j| cols[j][i])
}

/// A seeded full-rank, non-diagonal `d × d` predicate `I/2 + A/(4‖A‖_F)`
/// for a random hermitian `A`: its spectrum lies in `[1/4, 3/4]`.
fn random_mixed_predicate(rng: &mut StdRng, d: usize) -> CMat {
    let g = CMat::from_fn(d, d, |_, _| {
        c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    });
    let a = g.add_mat(&g.adjoint());
    let fro = a
        .as_slice()
        .iter()
        .map(|z| z.norm_sqr())
        .sum::<f64>()
        .sqrt();
    CMat::identity(d)
        .scale_re(0.5)
        .add_mat(&a.scale_re(0.25 / fro))
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    // Sec. 5.3 quantum-walk invariant N = [|00⟩] + [(|01⟩+|11⟩)/√2].
    let inv_n = qwalk_invariant();
    // |ψ⟩ = 0.6|0⟩ + 0.8|1⟩, the QEC input state used throughout.
    let psi = CVec::new(vec![cr(0.6), cr(0.8)]).projector();
    // Deutsch postcondition |00⟩⟨00| + |11⟩⟨11| on [q q1].
    let dpost = ket("00").projector().add_mat(&ket("11").projector());

    // Grover on 3 qubits, marked state |101⟩: the oracle, the diffusion
    // 2|s⟩⟨s| − I, the marked projector, and two scaled identities, one
    // just below the success probability p (verified) and one above it
    // (rejected).
    let dim = 8;
    let marked = ket("101").projector();
    let oracle = CMat::identity(dim).sub_mat(&marked.scale_re(2.0));
    let s = CVec::new(vec![cr(1.0 / (dim as f64).sqrt()); dim]);
    let diff = s.projector().scale_re(2.0).sub_mat(&CMat::identity(dim));
    let p = grover_parameters(3).success_probability;
    let pre = CMat::identity(dim).scale_re(p - 1e-9);
    let pre_high = CMat::identity(dim).scale_re(p + 0.01);

    // A two-qubit diagonal unitary with four distinct phases, so its
    // action depends on the order of the qubits it is applied to, and a
    // full-rank two-qubit predicate I/2 + A/8 with complex off-diagonal
    // entries (A hermitian with spectral radius below 4).
    let phase = CMat::diag(&[
        Complex::ONE,
        Complex::I,
        Complex::from_polar(1.0, std::f64::consts::FRAC_PI_4),
        Complex::from_polar(1.0, 2.5),
    ]);
    let a = CMat::from_fn(4, 4, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => cr(i as f64 * 0.5 - 0.75),
        std::cmp::Ordering::Less => c(0.25 + 0.125 * j as f64, 0.375 - 0.125 * i as f64),
        std::cmp::Ordering::Greater => c(0.25 + 0.125 * i as f64, -(0.375 - 0.125 * j as f64)),
    });
    let mix = CMat::identity(4).scale_re(0.5).add_mat(&a.scale_re(0.125));

    // Dense gates and predicates on 4 qubits, so that the factor sweep
    // and the dense row/column sweeps run at the full 16×16 gate width: a
    // random 16×16 unitary, a random 2-qubit unitary, a random rank-1
    // projector, a full-rank non-diagonal predicate, and 0.2·I on one
    // qubit (below the predicate's spectrum).
    let mut rng = StdRng::seed_from_u64(25);
    let wide_u = random_unitary(&mut rng, 16);
    let wide_g = random_unitary(&mut rng, 4);
    let wide_ket = random_vec(&mut rng, 16).normalized().projector();
    let wide_mix = random_mixed_predicate(&mut rng, 16);
    let wide_low = CMat::identity(2).scale_re(0.2);

    for (dir, files) in [
        (
            "examples/nqpv_files",
            vec![
                ("invN.npy", &inv_n),
                ("psi.npy", &psi),
                ("dpost.npy", &dpost),
            ],
        ),
        (
            "examples/corpus",
            vec![("psi.npy", &psi), ("dpost.npy", &dpost)],
        ),
        (
            "tests/golden",
            vec![
                ("grover3_oracle.npy", &oracle),
                ("grover3_diff.npy", &diff),
                ("grover3_marked.npy", &marked),
                ("grover3_pre.npy", &pre),
                ("grover3_pre_high.npy", &pre_high),
                ("phase2.npy", &phase),
                ("mix2.npy", &mix),
                ("wide_u16.npy", &wide_u),
                ("wide_g2.npy", &wide_g),
                ("wide_ket.npy", &wide_ket),
                ("wide_mix.npy", &wide_mix),
                ("wide_low.npy", &wide_low),
            ],
        ),
    ] {
        for (name, m) in files {
            let path = root.join(dir).join(name);
            write_matrix(&path, m).expect("asset written");
            println!("wrote {}", path.display());
        }
    }
}
