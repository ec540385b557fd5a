//! # nqpv-linalg
//!
//! Complex dense linear algebra substrate for the NQPV verification stack
//! (the Rust reproduction of *Verification of Nondeterministic Quantum
//! Programs*, ASPLOS '23).
//!
//! The paper's prototype leans on NumPy for "powerful matrix manipulation
//! capabilities" (Sec. 6); this crate provides the equivalent foundation
//! from scratch:
//!
//! * [`Complex`] scalars and the [`CMat`]/[`CVec`] dense types;
//! * hermitian eigendecomposition ([`eigh`]) via the cyclic complex Jacobi
//!   method, spectral projectors and PSD square roots;
//! * [`cholesky`]-based positive-semidefiniteness and Löwner-order tests
//!   ([`is_psd`], [`lowner_le`]) — the eigenvalue test of paper Sec. 6.3;
//! * qubit-register tensor machinery: [`embed`]dings (cylinder extensions),
//!   fast in-place gate application, [`partial_trace`], qubit permutations;
//! * a NumPy [`npy`] reader/writer so operators can be exchanged with the
//!   original Python artifact.
//!
//! # Examples
//!
//! ```
//! use nqpv_linalg::{CMat, embed, eigh, lowner_le};
//!
//! // Build X ⊗ I, check its spectrum is {-1, -1, 1, 1}.
//! let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
//! let xi = embed(&x, &[0], 2);
//! let e = eigh(&xi)?;
//! assert!((e.values[0] + 1.0).abs() < 1e-10 && (e.values[3] - 1.0).abs() < 1e-10);
//!
//! // Löwner order: X⊗I ⊑ I.
//! assert!(lowner_le(&xi, &CMat::identity(4), 1e-9));
//! # Ok::<(), nqpv_linalg::EighError>(())
//! ```

mod cholesky;
mod complex;
mod eigen;
mod factor;
mod matrix;
pub mod npy;
pub mod par;
mod tensor;

pub use cholesky::{
    cholesky, diagonal_is_psd, exact_diagonal, is_partial_density, is_predicate, is_psd,
    is_psd_pivoted, lowner_le, pivoted_cholesky,
};
pub use complex::{c, cr, Complex, TOL};
pub use eigen::{eigh, max_eigenvalue, min_eigenvalue, sqrtm_psd, Eigh, EighError};
pub use factor::{
    canonical_factor, detect_structure, embed_factor, factor_recompress, gram, hconcat, Structure,
    CANONICAL_CLUSTER_RTOL, FACTOR_RANK_RTOL,
};
pub use matrix::{CMat, CVec};
pub use npy::{read_matrix, read_matrix_bytes, write_matrix, write_matrix_bytes, NpyError};
pub use tensor::{
    adjoint_conjugate_diagonal, adjoint_conjugate_gate, apply_diagonal_columns_adjoint,
    apply_gate_columns, apply_gate_columns_adjoint, apply_gate_left, apply_gate_right_adjoint,
    apply_gate_vec, bit_of, conjugate_diagonal, conjugate_gate, deposit_bits, embed,
    embed_diagonal, index_of_bits, partial_trace, permute_qubits,
};
