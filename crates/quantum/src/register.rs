//! Named qubit registers.
//!
//! The paper's programs act on a finite set `V` of qubit-type variables
//! (`q`, `q1`, `q2`, …). A [`Register`] fixes the global set and an ordering,
//! so every operator/predicate can be represented concretely over
//! `H_V = ⊗_{q∈V} H_q` and sub-system operations are embedded by position.

use std::fmt;

/// Errors raised while constructing or querying a register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The same qubit name occurred twice in a declaration.
    DuplicateName(String),
    /// A referenced qubit is not part of the register.
    UnknownQubit(String),
    /// A register must contain at least one qubit.
    Empty,
    /// A qubit tuple used in a statement mentioned the same qubit twice.
    DuplicateInTuple(String),
    /// The register's dimension `2^qubits` does not fit in a `usize`.
    TooWide {
        /// Number of qubits declared.
        qubits: usize,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::DuplicateName(n) => write!(f, "duplicate qubit name '{n}'"),
            RegisterError::UnknownQubit(n) => write!(f, "unknown qubit '{n}'"),
            RegisterError::Empty => write!(f, "register must contain at least one qubit"),
            RegisterError::DuplicateInTuple(n) => {
                write!(f, "qubit '{n}' repeated in a qubit tuple")
            }
            RegisterError::TooWide { qubits } => write!(
                f,
                "register of {qubits} qubits is too wide: its dimension 2^{qubits} \
                 does not fit in {} bits",
                usize::BITS
            ),
        }
    }
}

impl std::error::Error for RegisterError {}

/// An ordered register of named qubits; the order fixes the tensor layout
/// (qubit 0 owns the most significant basis-index bit).
///
/// # Examples
///
/// ```
/// use nqpv_quantum::Register;
/// let reg = Register::new(&["q", "q1", "q2"])?;
/// assert_eq!(reg.n_qubits(), 3);
/// assert_eq!(reg.dim(), 8);
/// assert_eq!(reg.position("q1"), Some(1));
/// # Ok::<(), nqpv_quantum::RegisterError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    names: Vec<String>,
}

impl Register {
    /// Creates a register from qubit names, preserving order.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError::Empty`] for an empty list,
    /// [`RegisterError::DuplicateName`] on repeats and
    /// [`RegisterError::TooWide`] when `2^n` does not fit in a `usize`.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Result<Self, RegisterError> {
        if names.is_empty() {
            return Err(RegisterError::Empty);
        }
        if names.len() >= usize::BITS as usize {
            return Err(RegisterError::TooWide {
                qubits: names.len(),
            });
        }
        let mut out: Vec<String> = Vec::with_capacity(names.len());
        for n in names {
            let n = n.as_ref();
            if out.iter().any(|m| m == n) {
                return Err(RegisterError::DuplicateName(n.to_string()));
            }
            out.push(n.to_string());
        }
        Ok(Register { names: out })
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.names.len()
    }

    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        1usize << self.names.len()
    }

    /// Position of a qubit by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// `true` if the register contains the named qubit.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// All qubit names in register order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Resolves an ordered tuple of qubit names to register positions.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError::UnknownQubit`] for unresolved names and
    /// [`RegisterError::DuplicateInTuple`] if a name repeats in the tuple.
    pub fn positions<S: AsRef<str>>(&self, qubits: &[S]) -> Result<Vec<usize>, RegisterError> {
        let mut out = Vec::with_capacity(qubits.len());
        for q in qubits {
            let q = q.as_ref();
            let p = self
                .position(q)
                .ok_or_else(|| RegisterError::UnknownQubit(q.to_string()))?;
            if out.contains(&p) {
                return Err(RegisterError::DuplicateInTuple(q.to_string()));
            }
            out.push(p);
        }
        Ok(out)
    }

    /// Builds the smallest register containing every name in `names`
    /// (insertion order, duplicates collapsed). Handy for assembling the
    /// register of `qv(S)` from a parsed program.
    pub fn spanning<S: AsRef<str>>(names: &[S]) -> Result<Self, RegisterError> {
        let mut out: Vec<&str> = Vec::new();
        for n in names {
            let n = n.as_ref();
            if !out.contains(&n) {
                out.push(n);
            }
        }
        Register::new(&out)
    }
}

impl fmt::Display for Register {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.names.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let r = Register::new(&["a", "b", "c"]).unwrap();
        assert_eq!(r.n_qubits(), 3);
        assert_eq!(r.dim(), 8);
        assert_eq!(r.position("b"), Some(1));
        assert_eq!(r.position("z"), None);
        assert!(r.contains("c"));
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert_eq!(
            Register::new(&["a", "a"]).unwrap_err(),
            RegisterError::DuplicateName("a".into())
        );
        assert_eq!(
            Register::new::<&str>(&[]).unwrap_err(),
            RegisterError::Empty
        );
    }

    #[test]
    fn rejects_registers_whose_dimension_overflows() {
        // `1usize << usize::BITS` wraps in release builds, so distinct
        // qubits would alias; the widest accepted register is one qubit
        // short of the word.
        let names: Vec<String> = (0..usize::BITS).map(|i| format!("q{i}")).collect();
        assert_eq!(
            Register::new(&names).unwrap_err(),
            RegisterError::TooWide {
                qubits: usize::BITS as usize
            }
        );
        let err = Register::new(&[&names[..], &["extra".to_string()]].concat()).unwrap_err();
        let width = format!("{} qubits", usize::BITS + 1);
        assert!(err.to_string().contains(&width), "{err}");
        let widest = Register::new(&names[1..]).unwrap();
        assert_eq!(widest.n_qubits(), usize::BITS as usize - 1);
        assert_eq!(widest.dim(), 1usize << (usize::BITS - 1));
    }

    #[test]
    fn positions_resolution() {
        let r = Register::new(&["q", "q1", "q2"]).unwrap();
        assert_eq!(r.positions(&["q2", "q"]).unwrap(), vec![2, 0]);
        assert_eq!(
            r.positions(&["q", "nope"]).unwrap_err(),
            RegisterError::UnknownQubit("nope".into())
        );
        assert_eq!(
            r.positions(&["q", "q"]).unwrap_err(),
            RegisterError::DuplicateInTuple("q".into())
        );
    }

    #[test]
    fn spanning_collapses_duplicates() {
        let r = Register::spanning(&["q1", "q2", "q1", "q3"]).unwrap();
        assert_eq!(r.names(), &["q1", "q2", "q3"]);
    }

    #[test]
    fn display() {
        let r = Register::new(&["q1", "q2"]).unwrap();
        assert_eq!(r.to_string(), "[q1 q2]");
    }
}
