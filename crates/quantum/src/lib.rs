//! # nqpv-quantum
//!
//! Quantum substrate for the NQPV verification stack: named qubit
//! [`Register`]s, pure/mixed state constructors, the standard [`gates`]
//! library, two-outcome projective [`Measurement`]s, and completely
//! positive trace-nonincreasing [`SuperOp`]s in Kraus form — everything
//! Sec. 2 of *Verification of Nondeterministic Quantum Programs*
//! (ASPLOS '23) assumes of its quantum-mechanical background.
//!
//! # Examples
//!
//! Build the three-qubit bit-flip encoding of the paper's Fig. 1 and watch
//! it protect an arbitrary state:
//!
//! ```
//! use nqpv_quantum::{gates, ket, SuperOp};
//! use nqpv_linalg::CVec;
//!
//! // |ψ⟩ = α|0⟩+β|1⟩ on q, ancillas |00⟩.
//! let psi = nqpv_quantum::superpose(0.6, "0", 0.8, "1");
//! let full = psi.kron(&ket("00"));
//!
//! // Encode: CX(q,q1); CX(q,q2)  (register order q,q1,q2).
//! let enc = SuperOp::from_unitary(&gates::cx()).embed(&[0, 2], 3)
//!     .compose(&SuperOp::from_unitary(&gates::cx()).embed(&[0, 1], 3));
//! let encoded = enc.apply(&full.projector());
//! assert!((encoded.trace_re() - 1.0).abs() < 1e-10);
//! ```

pub mod channels;
pub mod gates;
mod library;
mod measurement;
mod register;
mod state;
mod superop;

pub use library::{LibOp, LibraryError, OperatorLibrary, Unitary, RANK_DETECT_TOL};
pub use measurement::{expectation, Measurement, MeasurementError};
pub use register::{Register, RegisterError};
pub use state::{assert_state, density, ensemble, ket, maximally_mixed, superpose};
pub use superop::{duality_gap, SuperOp, SuperOpError};
