//! # nqpv-solver
//!
//! Numerical decision procedures backing the NQPV verifier:
//!
//! * [`assertion_le`] — the `⊑_inf` order between finite quantum assertions
//!   (paper Sec. 6.3), solved through the exact minimax reformulation of the
//!   paper's per-`N` SDPs, with dual certificates (exponentiated gradient
//!   over the simplex) and primal violation witnesses (projected
//!   supergradient over density matrices);
//! * [`max_eigenpair`]/[`min_eigenpair`] — extreme hermitian eigenpairs via
//!   Lanczos with dense fallback;
//! * simplex projections and density-matrix projection utilities.
//!
//! # Examples
//!
//! ```
//! use nqpv_linalg::CMat;
//! use nqpv_solver::{assertion_le, LownerOptions};
//!
//! let i = CMat::identity(2);
//! let half = i.scale_re(0.5);
//! assert!(assertion_le(&[half], &[i], LownerOptions::default())?.holds());
//! # Ok::<(), nqpv_solver::SolverError>(())
//! ```

mod decision;
mod lanczos;
mod primal;
mod simplex;

pub use decision::{
    assertion_le, assertion_le_sup, diagonal_assertion_le, factored_lowner_le,
    factored_lowner_le_witnessed, game_value, lowner_le_eps, lowner_le_witnessed, EigenWitness,
    GameOutcome, LownerOptions, SolverError, Verdict, Violation, WitnessedVerdict, DEFAULT_EPS,
};
pub use lanczos::{max_eigenpair, min_eigenpair, ExtremePair, LanczosOptions};
pub use primal::{max_min_expectation, project_to_density, PrimalOptions};
pub use simplex::{exp_gradient_step, is_distribution, project_to_simplex, uniform};
