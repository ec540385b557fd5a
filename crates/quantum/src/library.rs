//! Named operator library.
//!
//! NQPV programs refer to unitaries, measurements and predicates by name
//! (`X`, `CX`, `M01`, `invN`, …). The library binds those names to concrete
//! matrices. "Some identifiers such as `I` and `Zero` are reserved for
//! commonly used unitary operators, hermitian operators, and measurements"
//! (paper Sec. 6.1) — [`OperatorLibrary::with_builtins`] provides them.

use crate::gates;
use crate::measurement::Measurement;
use nqpv_linalg::{
    conjugate_diagonal, conjugate_gate, detect_structure, is_predicate, CMat, CVec, Complex,
    Structure,
};
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;

/// Rank-detection tolerance of the predicate classification: a factored
/// structure must reproduce the dense operator entry-wise within this
/// bound.
pub const RANK_DETECT_TOL: f64 = 1e-9;

/// `U†U = I` tolerance of the validating insert paths.
const UNITARY_TOL: f64 = 1e-8;

/// `0 ⊑ M ⊑ I` tolerance of the validating insert paths.
const PREDICATE_TOL: f64 = 1e-7;

/// How close to `I` a unitary must be to double as the `true` predicate.
const IDENTITY_TOL: f64 = 1e-12;

/// A bound unitary: the matrix plus the structure it was classified with
/// when it was bound. It dereferences to the matrix.
///
/// * **Exact diagonal.** When every off-diagonal entry is an exact zero
///   and the diagonal is finite, the diagonal is kept, and the wp and
///   forward kernels apply the gate in `O(2ⁿ·r)` / `O(4ⁿ)` instead of
///   sweeping the dense `2ᵏ×2ᵏ` matrix, bitwise to the same result.
/// * **The `true` predicate.** A unitary within `1e-12` of `I` is usable
///   in assertions; it carries the [`Structure`] rank detection finds in
///   it, as predicate entries do.
#[derive(Debug, Clone)]
pub struct Unitary {
    matrix: CMat,
    diagonal: Option<Vec<Complex>>,
    truth: Option<Structure>,
}

impl Unitary {
    /// Classifies `matrix`. Unitarity is not checked here: the library's
    /// insert paths validate with [`CMat::is_unitary`].
    pub fn new(matrix: CMat) -> Unitary {
        let diagonal = finite_diagonal(&matrix);
        let truth = matrix
            .is_identity(IDENTITY_TOL)
            .then(|| predicate_structure(&matrix));
        Unitary {
            matrix,
            diagonal,
            truth,
        }
    }

    /// The diagonal, when the matrix is exactly diagonal.
    pub fn diagonal(&self) -> Option<&[Complex]> {
        self.diagonal.as_deref()
    }

    /// The Schrödinger-picture action `ρ ← U_S·ρ·U_S†` on the `positions`
    /// of an `n`-qubit state: [`conjugate_diagonal`] for an exact
    /// diagonal, the gate sweep [`conjugate_gate`] otherwise, bitwise the
    /// same result.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or invalid positions.
    pub fn conjugate_state(&self, positions: &[usize], n: usize, rho: &CMat) -> CMat {
        match &self.diagonal {
            Some(d) => conjugate_diagonal(d, positions, n, rho),
            None => conjugate_gate(&self.matrix, positions, n, rho),
        }
    }
}

impl Deref for Unitary {
    type Target = CMat;
    fn deref(&self) -> &CMat {
        &self.matrix
    }
}

/// A library entry, holding the structure it was classified with when it
/// was bound.
#[derive(Debug, Clone)]
pub enum LibOp {
    /// A unitary operator (usable in `q̄ *= U`).
    Unitary(Unitary),
    /// A two-outcome projective measurement (usable in `if`/`while`).
    Measurement(Measurement),
    /// A hermitian operator with `0 ⊑ M ⊑ I` (usable in assertions), and
    /// the [`Structure`] that `detect_structure(M, RANK_DETECT_TOL,
    /// rows/2)` finds in it: resolving an assertion embeds that structure
    /// with no re-detection.
    Predicate(CMat, Structure),
}

impl LibOp {
    /// The number of qubits the operator acts on.
    pub fn n_qubits(&self) -> usize {
        let d = match self {
            LibOp::Unitary(u) => u.rows(),
            LibOp::Predicate(m, _) => m.rows(),
            LibOp::Measurement(m) => m.dim(),
        };
        d.trailing_zeros() as usize
    }

    /// A short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            LibOp::Unitary(_) => "unitary",
            LibOp::Measurement(_) => "measurement",
            LibOp::Predicate(..) => "predicate",
        }
    }
}

/// What [`OperatorLibrary::bind`] classifies a matrix as.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Unitary,
    Predicate,
}

/// The structure rank detection finds in a predicate matrix: factored
/// when `2r ≤ 2ᵏ` (the payoff threshold once embedded), else its exact
/// diagonal, else dense.
fn predicate_structure(m: &CMat) -> Structure {
    detect_structure(m, RANK_DETECT_TOL, m.rows() / 2)
}

/// The diagonal of a square `m` whose off-diagonal entries are all exact
/// (±0) zeros and whose diagonal entries are finite.
fn finite_diagonal(m: &CMat) -> Option<Vec<Complex>> {
    if !m.is_square() {
        return None;
    }
    let mut d = Vec::with_capacity(m.rows());
    for i in 0..m.rows() {
        for (j, &z) in m.row(i).iter().enumerate() {
            if i == j {
                if !(z.re.is_finite() && z.im.is_finite()) {
                    return None;
                }
                d.push(z);
            } else if !z.is_exact_zero() {
                return None;
            }
        }
    }
    Some(d)
}

/// Errors raised when registering or resolving operators.
#[derive(Debug)]
pub enum LibraryError {
    /// Name not present.
    Unknown(String),
    /// Present but of the wrong kind for the usage site.
    WrongKind {
        /// The name looked up.
        name: String,
        /// What the caller needed.
        expected: &'static str,
        /// What the library holds.
        found: &'static str,
    },
    /// Matrix dimension is not a power of two.
    NotQubitSized(String),
    /// Registration rejected: not unitary / not a predicate.
    InvalidOperator {
        /// The name being registered.
        name: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::Unknown(n) => write!(f, "unknown operator '{n}'"),
            LibraryError::WrongKind {
                name,
                expected,
                found,
            } => write!(f, "operator '{name}' is a {found}, expected a {expected}"),
            LibraryError::NotQubitSized(n) => {
                write!(f, "operator '{n}' dimension is not a power of two")
            }
            LibraryError::InvalidOperator { name, reason } => {
                write!(f, "invalid operator '{name}': {reason}")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

/// A mutable map from names to operators, pre-seeded with the standard
/// gate/measurement/predicate set.
///
/// Every unitary and predicate entry is classified once, when it is bound
/// ([`Unitary`], [`LibOp::Predicate`]), and every verify reads that
/// classification; binding a name again replaces the entry and its
/// classification. Measurements carry no classification.
///
/// # Examples
///
/// ```
/// use nqpv_quantum::{OperatorLibrary, LibOp};
/// let lib = OperatorLibrary::with_builtins();
/// assert!(matches!(lib.get("H"), Some(LibOp::Unitary(_))));
/// assert!(matches!(lib.get("M01"), Some(LibOp::Measurement(_))));
/// assert!(matches!(lib.get("Zero"), Some(LibOp::Predicate(..))));
/// assert!(lib.unitary("S").unwrap().diagonal().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct OperatorLibrary {
    map: HashMap<String, LibOp>,
}

impl OperatorLibrary {
    /// An empty library.
    pub fn new() -> Self {
        OperatorLibrary::default()
    }

    /// A library pre-populated with the reserved identifiers:
    ///
    /// * unitaries `I X Y Z H S T CX CNOT C0X CZ SWAP CCX W1 W2`;
    /// * measurements `M01` (computational), `Mpm` (`{|+⟩⟨+|,|−⟩⟨−|}`),
    ///   `MQWalk` (the Sec. 5.3 boundary measurement);
    /// * predicates `I` (also usable as assertion), `Zero`, `P0 P1 Pp Pm`
    ///   (rank-1 projectors).
    pub fn with_builtins() -> Self {
        let mut lib = OperatorLibrary::new();
        for name in [
            "I", "X", "Y", "Z", "H", "S", "T", "CX", "CNOT", "C0X", "CZ", "SWAP", "CCX", "W1", "W2",
        ] {
            let m = gates::by_name(name).expect("builtin gate");
            lib.bind(name, Kind::Unitary, m);
        }
        lib.insert_measurement("M01", Measurement::computational());
        lib.insert_measurement("Mpm", Measurement::plus_minus());
        lib.insert_measurement("MQWalk", Measurement::qwalk_boundary());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        for (name, m) in [
            ("Zero", CMat::zeros(2, 2)),
            ("P0", CVec::basis(2, 0).projector()),
            ("P1", CVec::basis(2, 1).projector()),
            (
                "Pp",
                CVec::new(vec![nqpv_linalg::cr(s), nqpv_linalg::cr(s)]).projector(),
            ),
            (
                "Pm",
                CVec::new(vec![nqpv_linalg::cr(s), nqpv_linalg::cr(-s)]).projector(),
            ),
        ] {
            lib.bind(name, Kind::Predicate, m);
        }
        lib
    }

    /// Classifies `m` as `kind` and stores it under `name`, replacing the
    /// entry bound there and its classification. Validation is the
    /// caller's.
    fn bind(&mut self, name: &str, kind: Kind, m: CMat) {
        let op = match kind {
            Kind::Unitary => LibOp::Unitary(Unitary::new(m)),
            Kind::Predicate => {
                let structure = predicate_structure(&m);
                LibOp::Predicate(m, structure)
            }
        };
        self.map.insert(name.to_string(), op);
    }

    /// Looks up an entry.
    pub fn get(&self, name: &str) -> Option<&LibOp> {
        self.map.get(name)
    }

    /// `true` if `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// All bound names (unordered).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Registers a unitary after validating it.
    ///
    /// # Errors
    ///
    /// Rejects non-square, non-power-of-two or non-unitary matrices.
    pub fn insert_unitary(&mut self, name: &str, m: CMat) -> Result<(), LibraryError> {
        check_qubit_sized(name, &m)?;
        if !m.is_unitary(UNITARY_TOL) {
            return Err(LibraryError::InvalidOperator {
                name: name.to_string(),
                reason: "matrix is not unitary".into(),
            });
        }
        self.bind(name, Kind::Unitary, m);
        Ok(())
    }

    /// Registers a measurement.
    pub fn insert_measurement(&mut self, name: &str, m: Measurement) {
        self.map.insert(name.to_string(), LibOp::Measurement(m));
    }

    /// Registers a predicate (`0 ⊑ M ⊑ I`) after validating it.
    ///
    /// # Errors
    ///
    /// Rejects matrices outside the predicate interval.
    pub fn insert_predicate(&mut self, name: &str, m: CMat) -> Result<(), LibraryError> {
        check_qubit_sized(name, &m)?;
        if !is_predicate(&m, PREDICATE_TOL) {
            return Err(LibraryError::InvalidOperator {
                name: name.to_string(),
                reason: "matrix is not a quantum predicate (needs 0 ⊑ M ⊑ I)".into(),
            });
        }
        self.bind(name, Kind::Predicate, m);
        Ok(())
    }

    /// Auto-classifies and registers a raw matrix, the way the tool treats a
    /// loaded `.npy`: unitaries become [`LibOp::Unitary`], predicate-interval
    /// hermitians become [`LibOp::Predicate`].
    ///
    /// # Errors
    ///
    /// Rejects matrices that are neither.
    pub fn insert_auto(&mut self, name: &str, m: CMat) -> Result<(), LibraryError> {
        check_qubit_sized(name, &m)?;
        // Prefer the unitary reading except for the identity, which is
        // more useful as the `true` predicate.
        let kind = if m.is_unitary(UNITARY_TOL) && !m.is_identity(IDENTITY_TOL) {
            Kind::Unitary
        } else if is_predicate(&m, PREDICATE_TOL) {
            Kind::Predicate
        } else {
            return Err(LibraryError::InvalidOperator {
                name: name.to_string(),
                reason: "matrix is neither unitary nor a quantum predicate".into(),
            });
        };
        self.bind(name, kind, m);
        Ok(())
    }

    /// Resolves a unitary by name.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn unitary(&self, name: &str) -> Result<&Unitary, LibraryError> {
        match self.get(name) {
            Some(LibOp::Unitary(u)) => Ok(u),
            Some(other) => Err(LibraryError::WrongKind {
                name: name.to_string(),
                expected: "unitary",
                found: other.kind(),
            }),
            None => Err(LibraryError::Unknown(name.to_string())),
        }
    }

    /// Resolves a measurement by name.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn measurement(&self, name: &str) -> Result<&Measurement, LibraryError> {
        match self.get(name) {
            Some(LibOp::Measurement(m)) => Ok(m),
            Some(other) => Err(LibraryError::WrongKind {
                name: name.to_string(),
                expected: "measurement",
                found: other.kind(),
            }),
            None => Err(LibraryError::Unknown(name.to_string())),
        }
    }

    /// Resolves a predicate by name, with the [`Structure`] it was
    /// classified with when bound. The identity unitary `I` doubles as the
    /// `true` predicate, as in the tool.
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn predicate_structure(&self, name: &str) -> Result<(&CMat, &Structure), LibraryError> {
        match self.get(name) {
            Some(LibOp::Predicate(m, s)) => Ok((m, s)),
            Some(LibOp::Unitary(Unitary {
                matrix,
                truth: Some(s),
                ..
            })) => Ok((matrix, s)),
            Some(other) => Err(LibraryError::WrongKind {
                name: name.to_string(),
                expected: "predicate",
                found: other.kind(),
            }),
            None => Err(LibraryError::Unknown(name.to_string())),
        }
    }

    /// Resolves a predicate by name, as an owned matrix (see
    /// [`OperatorLibrary::predicate_structure`]).
    ///
    /// # Errors
    ///
    /// [`LibraryError::Unknown`] or [`LibraryError::WrongKind`].
    pub fn predicate(&self, name: &str) -> Result<CMat, LibraryError> {
        self.predicate_structure(name).map(|(m, _)| m.clone())
    }
}

fn check_qubit_sized(name: &str, m: &CMat) -> Result<(), LibraryError> {
    if !m.is_square() || !m.rows().is_power_of_two() {
        return Err(LibraryError::NotQubitSized(name.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_with_correct_kinds() {
        let lib = OperatorLibrary::with_builtins();
        assert!(lib.unitary("CX").is_ok());
        assert!(lib.measurement("MQWalk").is_ok());
        assert!(lib.predicate("Zero").is_ok());
        assert!(lib.predicate("P0").is_ok());
        // I is usable both ways.
        assert!(lib.unitary("I").is_ok());
        assert!(lib.predicate("I").is_ok());
        // Wrong kinds produce WrongKind errors.
        assert!(matches!(
            lib.unitary("M01"),
            Err(LibraryError::WrongKind { .. })
        ));
        assert!(matches!(
            lib.measurement("X"),
            Err(LibraryError::WrongKind { .. })
        ));
        assert!(matches!(
            lib.predicate("nope"),
            Err(LibraryError::Unknown(_))
        ));
    }

    #[test]
    fn insert_unitary_validates() {
        let mut lib = OperatorLibrary::new();
        assert!(lib.insert_unitary("G", gates::h()).is_ok());
        let bad = CMat::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        assert!(matches!(
            lib.insert_unitary("B", bad),
            Err(LibraryError::InvalidOperator { .. })
        ));
        let odd = CMat::identity(3);
        assert!(matches!(
            lib.insert_unitary("O", odd),
            Err(LibraryError::NotQubitSized(_))
        ));
    }

    #[test]
    fn insert_predicate_validates_interval() {
        let mut lib = OperatorLibrary::new();
        assert!(lib
            .insert_predicate("half", CMat::identity(2).scale_re(0.5))
            .is_ok());
        assert!(matches!(
            lib.insert_predicate("big", CMat::identity(2).scale_re(2.0)),
            Err(LibraryError::InvalidOperator { .. })
        ));
    }

    #[test]
    fn insert_auto_classifies() {
        let mut lib = OperatorLibrary::new();
        lib.insert_auto("g", gates::x()).unwrap();
        assert!(matches!(lib.get("g"), Some(LibOp::Unitary(_))));
        lib.insert_auto("p", CMat::identity(2).scale_re(0.25))
            .unwrap();
        assert!(matches!(lib.get("p"), Some(LibOp::Predicate(..))));
        // identity is registered as predicate-compatible
        lib.insert_auto("id", CMat::identity(4)).unwrap();
        assert!(matches!(lib.get("id"), Some(LibOp::Predicate(..))));
        let bad = CMat::from_real(2, 2, &[3.0, 0.0, 0.0, 0.0]);
        assert!(lib.insert_auto("bad", bad).is_err());
    }

    #[test]
    fn classification_is_taken_at_bind_and_replaced_on_rebind() {
        let mut lib = OperatorLibrary::with_builtins();
        // Diagonal builtins keep their diagonal, dense ones do not.
        for name in ["I", "Z", "S", "T", "CZ"] {
            let u = lib.unitary(name).unwrap();
            assert_eq!(u.diagonal().unwrap().len(), u.rows(), "{name}");
        }
        for name in ["X", "H", "CX", "SWAP"] {
            assert!(lib.unitary(name).unwrap().diagonal().is_none(), "{name}");
        }
        // A diagonal unitary reloaded with a dense one.
        lib.insert_unitary("U", gates::s()).unwrap();
        assert!(lib.unitary("U").unwrap().diagonal().is_some());
        lib.insert_auto("U", gates::h()).unwrap();
        let u = lib.unitary("U").unwrap();
        assert!(u.diagonal().is_none());
        assert!(u.approx_eq(&gates::h(), 0.0));
        // And back: the dense entry's classification does not stick either.
        lib.insert_unitary("U", gates::t()).unwrap();
        assert_eq!(
            lib.unitary("U").unwrap().diagonal().unwrap()[1],
            gates::t()[(1, 1)]
        );
        // A predicate bound over a unitary is a predicate, with its own
        // structure; the unitary reading is gone.
        lib.insert_predicate("U", CVec::basis(2, 1).projector())
            .unwrap();
        assert!(matches!(
            lib.unitary("U"),
            Err(LibraryError::WrongKind { .. })
        ));
        assert!(matches!(
            lib.predicate_structure("U"),
            Ok((_, Structure::Factor(v))) if v.cols() == 1
        ));
        // `I` is the `true` predicate while it is the identity unitary…
        assert!(matches!(
            lib.predicate_structure("I"),
            Ok((_, Structure::Diagonal(d))) if *d == [1.0, 1.0]
        ));
        // …and stops being one when rebound to another unitary.
        lib.insert_unitary("I", gates::z()).unwrap();
        assert!(matches!(
            lib.predicate_structure("I"),
            Err(LibraryError::WrongKind { .. })
        ));
        lib.insert_predicate("I", CMat::identity(2).scale_re(0.5))
            .unwrap();
        assert!(lib.unitary("I").is_err());
        assert!(matches!(
            lib.predicate_structure("I"),
            Ok((_, Structure::Diagonal(d))) if *d == [0.5, 0.5]
        ));
    }

    #[test]
    fn n_qubits_of_entries() {
        let lib = OperatorLibrary::with_builtins();
        assert_eq!(lib.get("CX").unwrap().n_qubits(), 2);
        assert_eq!(lib.get("MQWalk").unwrap().n_qubits(), 2);
        assert_eq!(lib.get("P0").unwrap().n_qubits(), 1);
    }
}
