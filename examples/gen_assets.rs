//! Regenerates the binary `.npy` operator assets shipped with the
//! checked-in `.nqpv` example files:
//!
//! ```text
//! cargo run --example gen_assets
//! ```
//!
//! Writes `examples/nqpv_files/{invN,psi,dpost}.npy` (used by the CLI
//! examples the integration tests drive) and `examples/corpus/{psi,dpost}.npy`
//! (used by the `nqpv batch` corpus), and the 3-qubit Grover operators
//! behind `tests/golden/diagonal.nqpv`. Deterministic output: re-running
//! produces byte-identical files.

use nqpv::core::casestudies::{grover_parameters, qwalk_invariant};
use nqpv::linalg::{cr, write_matrix, CMat, CVec};
use nqpv::quantum::ket;
use std::path::Path;

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
