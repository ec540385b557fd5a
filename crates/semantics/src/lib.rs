//! # nqpv-semantics
//!
//! The lifted denotational semantics of nondeterministic quantum programs
//! (paper Sec. 3.2): `[[S]]` as a finite set of Kraus-form super-operators,
//! with loops enumerated to bounded depth over all scheduler prefixes.
//! Also provides forward (operational) execution on density operators, the
//! scheduler abstraction, and the computational versions of the paper's
//! Sec. 3.3 model-separation examples.
//!
//! # Examples
//!
//! ```
//! use nqpv_lang::parse_stmt;
//! use nqpv_quantum::{ket, OperatorLibrary, Register};
//! use nqpv_semantics::{denote, apply_set};
//!
//! // [[skip □ q*=X]] = {1, X}; on |+⟩ both outputs coincide.
//! let s = parse_stmt("( skip # [q] *= X )").unwrap();
//! let lib = OperatorLibrary::with_builtins();
//! let reg = Register::new(&["q"]).unwrap();
//! let set = denote(&s, &lib, &reg)?;
//! assert_eq!(apply_set(&set, &ket("+").projector()).len(), 1);
//! # Ok::<(), nqpv_semantics::SemanticsError>(())
//! ```

pub mod analysis;
mod denote;
mod error;
mod forward;
pub mod models;
mod scheduler;

pub use analysis::{classify_termination, termination_bounds, TerminationBounds, TerminationClass};
pub use denote::{apply_set, denote, denote_bounded, DenoteOptions};
pub use error::SemanticsError;
pub use forward::{exec_all, exec_branching, exec_scheduled, ExecOptions, Explorer, Fork};
pub use scheduler::{Alternating, AlwaysLeft, AlwaysRight, Choice, FromBits, Scheduler};
