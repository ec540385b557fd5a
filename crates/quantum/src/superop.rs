//! Completely positive, trace-nonincreasing super-operators in Kraus form.
//!
//! A super-operator `E(ρ) = Σᵢ Kᵢ ρ Kᵢ†` is the denotation of a
//! deterministic quantum program (paper Sec. 2/3.2); its adjoint
//! `E†(M) = Σᵢ Kᵢ† M Kᵢ` drives the weakest-precondition calculus
//! (`tr(E(ρ)·M) = tr(ρ·E†(M))`).
//!
//! # Local form
//!
//! Programs are built from *k-local* statements — a gate on two qubits, a
//! measurement on one — embedded in an `n`-qubit register. Materialising
//! each Kraus operator at the full `2ⁿ` dimension and conjugating densely
//! costs `O(8ⁿ)` flops per statement. [`SuperOp`] therefore keeps its Kraus
//! operators at their **native** `2^k` dimension together with a
//! `positions` footprint (the register qubits they act on), and
//! [`SuperOp::apply`] / [`SuperOp::apply_heisenberg`] run the strided
//! tensor kernels of `nqpv_linalg` in place — `O(2ᵏ·4ⁿ)` flops, no `4ⁿ`
//! scratch Kraus matrices. Full-dimension Kraus matrices are only
//! materialised lazily (and cached) where a whole-space object is really
//! needed: [`SuperOp::kraus`], [`SuperOp::natural_matrix`] and the
//! dedupe fingerprints built on it.

use nqpv_linalg::{adjoint_conjugate_gate, conjugate_gate, lowner_le, CMat, CVec};
use std::fmt;
use std::sync::OnceLock;

/// Errors raised when constructing super-operators.
#[derive(Debug)]
pub enum SuperOpError {
    /// Kraus operators have inconsistent shapes.
    ShapeMismatch,
    /// `Σ K†K ⊑ I` fails: the map increases trace.
    TraceIncreasing,
    /// No Kraus operators were supplied (use [`SuperOp::zero`] instead).
    Empty,
    /// Footprint positions are duplicated or out of range.
    InvalidPositions,
}

impl fmt::Display for SuperOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperOpError::ShapeMismatch => write!(f, "kraus operator shape mismatch"),
            SuperOpError::TraceIncreasing => {
                write!(f, "kraus operators violate trace-nonincrease (ΣK†K ⋢ I)")
            }
            SuperOpError::Empty => write!(f, "empty kraus list"),
            SuperOpError::InvalidPositions => write!(f, "invalid footprint positions"),
        }
    }
}

impl std::error::Error for SuperOpError {}

/// A completely positive super-operator on a `dim`-dimensional space,
/// stored as a list of Kraus operators in **local form** (see the module
/// docs): the operators live at their native `2^k` dimension and act on
/// the `positions` footprint, identity elsewhere. The zero map is the
/// empty list (the paper's `0 = [[abort]]`), the identity is `{I}`
/// (`1 = [[skip]]`) — both carry an *empty* footprint.
///
/// # Examples
///
/// ```
/// use nqpv_quantum::SuperOp;
/// use nqpv_linalg::CMat;
/// let id = SuperOp::identity(2);
/// let rho = CMat::identity(2).scale_re(0.5);
/// assert!(id.apply(&rho).approx_eq(&rho, 1e-12));
/// ```
#[derive(Debug, Clone)]
pub struct SuperOp {
    /// Full space dimension `2^n`.
    dim: usize,
    /// Register size `n` (`dim == 1 << n_qubits`).
    n_qubits: usize,
    /// Register qubits the Kraus operators act on, in operator-qubit order
    /// (the operator's qubit `t` is register qubit `positions[t]`).
    positions: Vec<usize>,
    /// Kraus operators at dimension `2^positions.len()`.
    kraus: Vec<CMat>,
    /// Lazily materialised full-dimension Kraus operators.
    dense: OnceLock<Vec<CMat>>,
}

/// `log2` of a power-of-two dimension.
fn qubits_of(dim: usize) -> usize {
    assert!(
        dim.is_power_of_two(),
        "super-operator dimension {dim} is not a power of two"
    );
    dim.trailing_zeros() as usize
}

/// Checks that positions are distinct and `< n`.
fn positions_valid(positions: &[usize], n: usize) -> bool {
    positions
        .iter()
        .enumerate()
        .all(|(t, &p)| p < n && !positions[..t].contains(&p))
}

impl SuperOp {
    fn new_local(dim: usize, n_qubits: usize, positions: Vec<usize>, kraus: Vec<CMat>) -> Self {
        debug_assert_eq!(dim, 1usize << n_qubits);
        debug_assert!(kraus
            .iter()
            .all(|k| k.rows() == 1 << positions.len() && k.cols() == 1 << positions.len()));
        SuperOp {
            dim,
            n_qubits,
            positions,
            kraus,
            dense: OnceLock::new(),
        }
    }

    /// A map whose footprint is the whole register, in operator order.
    fn full_footprint(kraus: Vec<CMat>, dim: usize) -> Self {
        let n = qubits_of(dim);
        SuperOp::new_local(dim, n, (0..n).collect(), kraus)
    }

    /// Creates a super-operator from Kraus operators, validating shape and
    /// trace-nonincrease (the standing assumption of the paper, Sec. 2).
    ///
    /// # Errors
    ///
    /// Returns [`SuperOpError`] on shape mismatch (including a
    /// non-power-of-two dimension — the local representation is
    /// qubit-structured) or if `Σ K†K ⋢ I`.
    pub fn from_kraus(kraus: Vec<CMat>) -> Result<Self, SuperOpError> {
        let dim = kraus.first().ok_or(SuperOpError::Empty)?.rows();
        if !dim.is_power_of_two() {
            return Err(SuperOpError::ShapeMismatch);
        }
        for k in &kraus {
            if k.rows() != dim || k.cols() != dim {
                return Err(SuperOpError::ShapeMismatch);
            }
        }
        let op = SuperOp::full_footprint(kraus, dim);
        if !op.is_trace_nonincreasing(1e-7) {
            return Err(SuperOpError::TraceIncreasing);
        }
        Ok(op)
    }

    /// Creates a super-operator without the trace-nonincrease check.
    /// Useful for intermediate algebra (e.g. `F − E` differences appear in
    /// proofs, not in programs).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or a non-power-of-two `dim` (the local
    /// representation is qubit-structured).
    pub fn from_kraus_unchecked(kraus: Vec<CMat>, dim: usize) -> Self {
        for k in &kraus {
            assert_eq!(k.rows(), dim, "kraus shape mismatch");
            assert_eq!(k.cols(), dim, "kraus shape mismatch");
        }
        SuperOp::full_footprint(kraus, dim)
    }

    /// Creates a super-operator directly in local form: `kraus` at their
    /// native `2^positions.len()` dimension, acting on `positions` of an
    /// `n_qubits`-register, identity elsewhere. Trace-nonincrease is
    /// checked locally (the cylinder extension preserves it).
    ///
    /// # Errors
    ///
    /// Returns [`SuperOpError`] on shape/position problems or if
    /// `Σ K†K ⋢ I`.
    pub fn from_local_kraus(
        kraus: Vec<CMat>,
        positions: Vec<usize>,
        n_qubits: usize,
    ) -> Result<Self, SuperOpError> {
        if !positions_valid(&positions, n_qubits) {
            return Err(SuperOpError::InvalidPositions);
        }
        let dk = 1usize << positions.len();
        for k in &kraus {
            if k.rows() != dk || k.cols() != dk {
                return Err(SuperOpError::ShapeMismatch);
            }
        }
        let op = SuperOp::new_local(1usize << n_qubits, n_qubits, positions, kraus);
        if !op.is_trace_nonincreasing(1e-7) {
            return Err(SuperOpError::TraceIncreasing);
        }
        Ok(op)
    }

    /// The identity super-operator `1` on a `dim`-dimensional space.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a power of two.
    pub fn identity(dim: usize) -> Self {
        let n = qubits_of(dim);
        SuperOp::new_local(dim, n, Vec::new(), vec![CMat::identity(1)])
    }

    /// The zero super-operator `0` (the denotation of `abort`).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a power of two.
    pub fn zero(dim: usize) -> Self {
        let n = qubits_of(dim);
        SuperOp::new_local(dim, n, Vec::new(), Vec::new())
    }

    /// The unitary evolution `ρ ↦ UρU†`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not square with a power-of-two dimension.
    pub fn from_unitary(u: &CMat) -> Self {
        assert!(u.is_square(), "unitary must be square");
        SuperOp::full_footprint(vec![u.clone()], u.rows())
    }

    /// The projective branch `ρ ↦ PρP` for a single projector.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not square with a power-of-two dimension.
    pub fn from_projector(p: &CMat) -> Self {
        assert!(p.is_square(), "projector must be square");
        SuperOp::full_footprint(vec![p.clone()], p.rows())
    }

    /// The initialisation map `Set0_q̄` on `n_sub` qubits (full space of the
    /// same size): `ρ ↦ Σᵢ |0⟩⟨i| ρ |i⟩⟨0|`.
    pub fn initializer(n_sub: usize) -> Self {
        let d = 1usize << n_sub;
        let zero = CVec::basis(d, 0);
        let kraus = (0..d).map(|i| zero.outer(&CVec::basis(d, i))).collect();
        SuperOp::full_footprint(kraus, d)
    }

    /// The measurement super-operator `E_M(ρ) = Σ_o P_o ρ P_o` (all
    /// post-measurement branches summed, paper Sec. 2).
    pub fn from_measurement(m: &crate::measurement::Measurement) -> Self {
        SuperOp::full_footprint(vec![m.p0().clone(), m.p1().clone()], m.dim())
    }

    /// Space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Register size in qubits (`dim == 2^n_qubits`).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The footprint: register qubits the map acts on non-trivially
    /// (operator qubit `t` ↔ register qubit `positions[t]`). Empty for the
    /// identity and zero maps.
    pub fn footprint(&self) -> &[usize] {
        &self.positions
    }

    /// The Kraus operators at their native (local) dimension
    /// `2^footprint().len()`.
    pub fn local_kraus(&self) -> &[CMat] {
        &self.kraus
    }

    /// The Kraus operators **materialised at the full dimension**.
    ///
    /// The embedding is computed lazily on first call and cached; prefer
    /// [`SuperOp::local_kraus`] plus the strided [`SuperOp::apply`] paths
    /// whenever possible.
    pub fn kraus(&self) -> &[CMat] {
        if self.is_full_identity_footprint() {
            return &self.kraus;
        }
        self.dense.get_or_init(|| {
            self.kraus
                .iter()
                .map(|k| nqpv_linalg::embed(k, &self.positions, self.n_qubits))
                .collect()
        })
    }

    /// `true` when the footprint is `[0, 1, …, n-1]`, i.e. local and full
    /// Kraus forms coincide.
    fn is_full_identity_footprint(&self) -> bool {
        self.positions.len() == self.n_qubits
            && self.positions.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// Number of Kraus operators.
    pub fn kraus_len(&self) -> usize {
        self.kraus.len()
    }

    /// Schrödinger-picture application `E(ρ) = Σ KρK†`. Proper-subset
    /// footprints run the strided local kernels without materialising any
    /// embedded Kraus matrix; a footprint covering the whole register
    /// falls back to the dense route (via [`SuperOp::kraus`], which for a
    /// *permuted* full footprint materialises and caches the embeddings
    /// once) because the dense matmul keeps its sparse zero-skip there.
    ///
    /// Both routes parallelise *inside* each Kraus term through
    /// `nqpv_linalg::par` when the sweep is large enough
    /// and `--kernel-threads` > 1; the `out +=` accumulation across Kraus
    /// operators stays serial and in declaration order, so results are
    /// bitwise identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `rho` has the wrong dimension.
    pub fn apply(&self, rho: &CMat) -> CMat {
        assert_eq!(rho.rows(), self.dim, "state dimension mismatch");
        assert_eq!(rho.cols(), self.dim, "state dimension mismatch");
        if self.positions.is_empty() {
            // Scalar footprint: K ρ K† = |k|²·ρ.
            let w: f64 = self.kraus.iter().map(|k| k[(0, 0)].norm_sqr()).sum();
            return rho.scale_re(w);
        }
        let mut out = CMat::zeros(self.dim, self.dim);
        if self.positions.len() == self.n_qubits {
            // Full footprint: the strided kernel degenerates to a dense
            // matmul without the zero-skip fast path; the dense route is
            // never worse and much faster on sparse Kraus operators
            // (projectors, initialiser branches).
            for k in self.kraus() {
                out += &k.conjugate(rho);
            }
            return out;
        }
        for k in &self.kraus {
            out += &conjugate_gate(k, &self.positions, self.n_qubits, rho);
        }
        out
    }

    /// Heisenberg-picture application `E†(M) = Σ K†MK` — the adjoint
    /// super-operator used by wp/wlp. Footprint handling is as in
    /// [`SuperOp::apply`]: strided local kernels for proper-subset
    /// footprints, dense fallback for whole-register footprints, both
    /// threaded inside each Kraus term with serial in-order accumulation
    /// across terms (bitwise identical at every thread count).
    pub fn apply_heisenberg(&self, m: &CMat) -> CMat {
        assert_eq!(m.rows(), self.dim, "predicate dimension mismatch");
        assert_eq!(m.cols(), self.dim, "predicate dimension mismatch");
        if self.positions.is_empty() {
            let w: f64 = self.kraus.iter().map(|k| k[(0, 0)].norm_sqr()).sum();
            return m.scale_re(w);
        }
        let mut out = CMat::zeros(self.dim, self.dim);
        if self.positions.len() == self.n_qubits {
            // Full footprint: dense conjugation keeps the zero-skip fast
            // path (see `apply`), reading K† by index.
            for k in self.kraus() {
                out += &k.adjoint_conjugate(m);
            }
            return out;
        }
        for k in &self.kraus {
            out += &adjoint_conjugate_gate(k, &self.positions, self.n_qubits, m);
        }
        out
    }

    /// Heisenberg-picture application on a **low-rank factor**: given
    /// `M = V·V†` with `V` a tall-skinny `dim×r` matrix, returns a factor
    /// `W` with `E†(M) = W·W†` — the column blocks `Kᵢ†·V`, one per Kraus
    /// operator, mapped through the strided local kernels at
    /// `O(2ⁿ·2ᵏ·r)` per Kraus instead of the `O(4ⁿ·2ᵏ)` dense
    /// conjugation (for a full-width unitary this degenerates to the
    /// single `2ⁿ×r` GEMM `U†·V`, `O(4ⁿ·r)` vs `O(8ⁿ)`).
    ///
    /// The width grows to `r·kraus_len()`; callers re-truncate with
    /// [`nqpv_linalg::factor_recompress`] when the map branches (Init,
    /// measurement sums). Maps whose Kraus count scales with the
    /// dimension (a full-register initialiser) are better served by
    /// structure-aware callers — see `nqpv_core::Assertion`.
    ///
    /// # Panics
    ///
    /// Panics if the factor height is not `dim`.
    pub fn apply_heisenberg_factor(&self, v: &CMat) -> CMat {
        assert_eq!(v.rows(), self.dim, "factor height mismatch");
        let r = v.cols();
        if self.positions.is_empty() {
            // Scalar footprint: E†(VV†) = (Σ|k|²)·VV†.
            let w: f64 = self.kraus.iter().map(|k| k[(0, 0)].norm_sqr()).sum();
            return v.scale_re(w.sqrt());
        }
        let mut out = CMat::zeros(self.dim, r * self.kraus.len());
        for (b, k) in self.kraus.iter().enumerate() {
            let mut block = v.clone();
            nqpv_linalg::apply_gate_columns_adjoint(k, &self.positions, self.n_qubits, &mut block);
            for i in 0..self.dim {
                for j in 0..r {
                    out[(i, b * r + j)] = block[(i, j)];
                }
            }
        }
        out
    }

    /// The adjoint super-operator `E†` as an explicit object (Kraus
    /// operators conjugate-transposed, same footprint). Note `E†` is
    /// generally not trace-nonincreasing.
    pub fn adjoint(&self) -> SuperOp {
        SuperOp::new_local(
            self.dim,
            self.n_qubits,
            self.positions.clone(),
            self.kraus.iter().map(CMat::adjoint).collect(),
        )
    }

    /// Re-expresses the local Kraus operators on a (sorted) superset
    /// footprint `union`, tensoring identity onto the extra qubits.
    fn kraus_on(&self, union: &[usize]) -> Vec<CMat> {
        if self.positions.as_slice() == union {
            return self.kraus.clone();
        }
        let mapped: Vec<usize> = self
            .positions
            .iter()
            .map(|p| {
                union
                    .binary_search(p)
                    .expect("footprint is a subset of the union")
            })
            .collect();
        self.kraus
            .iter()
            .map(|k| nqpv_linalg::embed(k, &mapped, union.len()))
            .collect()
    }

    /// Sorted union of two footprints.
    fn footprint_union(&self, other: &SuperOp) -> Vec<usize> {
        let mut union: Vec<usize> = self.positions.clone();
        for &p in &other.positions {
            if !union.contains(&p) {
                union.push(p);
            }
        }
        union.sort_unstable();
        union
    }

    /// Composition `self ∘ other` (first `other`, then `self`). The result
    /// lives on the *union* of the two footprints — still local when the
    /// operands are.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn compose(&self, other: &SuperOp) -> SuperOp {
        assert_eq!(self.dim, other.dim, "composition dimension mismatch");
        let union = self.footprint_union(other);
        let a = self.kraus_on(&union);
        let b = other.kraus_on(&union);
        let mut kraus = Vec::with_capacity(a.len() * b.len());
        for x in &a {
            for y in &b {
                kraus.push(x.mul(y));
            }
        }
        SuperOp::new_local(self.dim, self.n_qubits, union, kraus)
    }

    /// Sum `self + other` (concatenated Kraus lists); used to combine
    /// measurement branches as in `[[if]] = [[S₀]]∘P⁰ + [[S₁]]∘P¹`.
    /// The result lives on the union of the two footprints.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &SuperOp) -> SuperOp {
        assert_eq!(self.dim, other.dim, "sum dimension mismatch");
        let union = self.footprint_union(other);
        let mut kraus = self.kraus_on(&union);
        kraus.extend(other.kraus_on(&union));
        SuperOp::new_local(self.dim, self.n_qubits, union, kraus)
    }

    /// Probabilistic scaling `p·E` for `0 ≤ p` (Kraus operators scaled by
    /// `√p`).
    ///
    /// # Panics
    ///
    /// Panics if `p < 0`.
    pub fn scale(&self, p: f64) -> SuperOp {
        assert!(p >= 0.0, "negative probability");
        let s = p.sqrt();
        SuperOp::new_local(
            self.dim,
            self.n_qubits,
            self.positions.clone(),
            self.kraus.iter().map(|k| k.scale_re(s)).collect(),
        )
    }

    /// `Σ K†K` at the *local* dimension — the "total activity" operator on
    /// the footprint.
    fn local_completeness(&self) -> CMat {
        let dk = 1usize << self.positions.len();
        let mut sum = CMat::zeros(dk, dk);
        for k in &self.kraus {
            sum += &k.adjoint().mul(k);
        }
        sum
    }

    /// `Σ K†K` — the "total activity" operator at full dimension; `⊑ I`
    /// iff trace-nonincreasing, `= I` iff trace-preserving.
    pub fn completeness_operator(&self) -> CMat {
        nqpv_linalg::embed(&self.local_completeness(), &self.positions, self.n_qubits)
    }

    /// `true` if `Σ K†K ⊑ I` within `tol` — decided at the local
    /// dimension (the cylinder extension preserves the Löwner order
    /// against the identity).
    pub fn is_trace_nonincreasing(&self, tol: f64) -> bool {
        let dk = 1usize << self.positions.len();
        lowner_le(&self.local_completeness(), &CMat::identity(dk), tol)
    }

    /// `true` if `Σ K†K = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let dk = 1usize << self.positions.len();
        self.local_completeness()
            .approx_eq(&CMat::identity(dk), tol)
    }

    /// Drops Kraus operators that are numerically zero; returns the number
    /// removed. Keeps semantics identical while bounding blow-up from long
    /// compositions.
    pub fn prune(&mut self, tol: f64) -> usize {
        let before = self.kraus.len();
        self.kraus.retain(|k| !k.is_zero(tol));
        let removed = before - self.kraus.len();
        if removed > 0 {
            self.dense = OnceLock::new();
        }
        removed
    }

    /// The natural (Liouville) matrix representation: the `d²×d²` matrix
    /// `Σ K ⊗ conj(K)` acting on vectorised states (row-major `vec`).
    /// Two super-operators are equal as maps iff their natural matrices are
    /// equal — used to deduplicate semantic sets. Materialises the dense
    /// Kraus form (footprints differ but the map may still be equal).
    pub fn natural_matrix(&self) -> CMat {
        let d2 = self.dim * self.dim;
        let mut out = CMat::zeros(d2, d2);
        for k in self.kraus() {
            out += &k.kron(&k.conj());
        }
        out
    }

    /// `true` if `self` and `other` denote the same linear map within `tol`.
    pub fn approx_eq_map(&self, other: &SuperOp, tol: f64) -> bool {
        self.dim == other.dim
            && self
                .natural_matrix()
                .approx_eq(&other.natural_matrix(), tol)
    }

    /// Deduplication fingerprint of the underlying linear map.
    pub fn map_fingerprint(&self, scale: f64) -> u64 {
        self.natural_matrix().fingerprint(scale)
    }

    /// Tensor-extends the map with the identity on `extra` qubits appended
    /// on the *right* (lower-significance side): the cylinder extension
    /// `E ⊗ I` of the paper's notational conventions. `O(1)` in local
    /// form — the footprint is unchanged.
    pub fn extend_right(&self, extra_qubits: usize) -> SuperOp {
        SuperOp::new_local(
            self.dim << extra_qubits,
            self.n_qubits + extra_qubits,
            self.positions.clone(),
            self.kraus.clone(),
        )
    }

    /// Embeds this `k`-qubit map into an `n`-qubit space, acting on
    /// `positions` (identity elsewhere). In local form this is a pure
    /// footprint relabelling: no matrix is built.
    ///
    /// # Panics
    ///
    /// Panics if the map's dimension is not `2^positions.len()` or positions
    /// are invalid.
    pub fn embed(&self, positions: &[usize], n: usize) -> SuperOp {
        assert_eq!(
            self.dim,
            1usize << positions.len(),
            "map does not act on {} qubits",
            positions.len()
        );
        assert!(
            positions_valid(positions, n),
            "duplicate qubit position or position out of range"
        );
        let new_positions: Vec<usize> = self.positions.iter().map(|&p| positions[p]).collect();
        SuperOp::new_local(1usize << n, n, new_positions, self.kraus.clone())
    }

    /// The probability `tr(E(ρ))` that the computation it denotes reaches a
    /// proper state from `ρ` (termination probability under that branch).
    pub fn success_probability(&self, rho: &CMat) -> f64 {
        self.apply(rho).trace_re()
    }
}

impl fmt::Display for SuperOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SuperOp(dim={}, |kraus|={}, footprint={:?})",
            self.dim,
            self.kraus.len(),
            self.positions
        )
    }
}

/// Duality check helper: `tr(E(ρ)·M) = tr(ρ·E†(M))`. Exposed for tests and
/// the soundness experiments (E10).
pub fn duality_gap(e: &SuperOp, rho: &CMat, m: &CMat) -> f64 {
    let lhs = e.apply(rho).trace_product(m);
    let rhs = rho.trace_product(&e.apply_heisenberg(m));
    (lhs - rhs).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::measurement::Measurement;
    use crate::state::{ket, maximally_mixed};
    use nqpv_linalg::c;
    use nqpv_linalg::TOL;

    fn random_density(n: usize, seed: &mut u64) -> CMat {
        let next = move |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            (*s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let d = 1usize << n;
        let g = CMat::from_fn(d, d, |_, _| c(next(seed), next(seed)));
        let psd = g.mul(&g.adjoint());
        let t = psd.trace_re();
        psd.scale_re(1.0 / t)
    }

    #[test]
    fn identity_and_zero() {
        let rho = maximally_mixed(2);
        assert!(SuperOp::identity(4).apply(&rho).approx_eq(&rho, TOL));
        assert!(SuperOp::zero(4).apply(&rho).is_zero(TOL));
        assert!(SuperOp::identity(4).is_trace_preserving(TOL));
        assert!(SuperOp::zero(4).is_trace_nonincreasing(TOL));
        assert!(!SuperOp::zero(4).is_trace_preserving(TOL));
        // Both carry an empty footprint in local form.
        assert!(SuperOp::identity(4).footprint().is_empty());
        assert!(SuperOp::zero(4).footprint().is_empty());
    }

    #[test]
    fn unitary_preserves_trace_and_purity() {
        let e = SuperOp::from_unitary(&gates::h());
        let rho = ket("0").projector();
        let out = e.apply(&rho);
        assert!((out.trace_re() - 1.0).abs() < TOL);
        assert!(out.approx_eq(&ket("+").projector(), TOL));
    }

    #[test]
    fn initializer_resets_any_state() {
        let e = SuperOp::initializer(2);
        assert!(e.is_trace_preserving(1e-10));
        let mut seed = 5u64;
        let rho = random_density(2, &mut seed);
        let out = e.apply(&rho);
        assert!(out.approx_eq(&ket("00").projector(), 1e-9));
    }

    #[test]
    fn measurement_superop_is_trace_preserving() {
        let e = SuperOp::from_measurement(&Measurement::computational());
        assert!(e.is_trace_preserving(TOL));
        let rho = ket("+").projector();
        let out = e.apply(&rho);
        // dephased: I/2
        assert!(out.approx_eq(&maximally_mixed(1), TOL));
    }

    #[test]
    fn duality_on_random_inputs() {
        let mut seed = 42u64;
        let m01 = Measurement::computational();
        let branch = SuperOp::from_projector(m01.p1()).compose(&SuperOp::from_unitary(&gates::h()));
        for _ in 0..10 {
            let rho = random_density(1, &mut seed);
            let pred = random_density(1, &mut seed); // any hermitian works
            assert!(duality_gap(&branch, &rho, &pred) < 1e-9);
        }
    }

    #[test]
    fn compose_order_is_right_to_left() {
        // (X ∘ H)(|0⟩⟨0|) = X(|+⟩⟨+|) = |+⟩⟨+|
        let xh = SuperOp::from_unitary(&gates::x()).compose(&SuperOp::from_unitary(&gates::h()));
        let out = xh.apply(&ket("0").projector());
        assert!(out.approx_eq(&ket("+").projector(), TOL));
        // (H ∘ X)(|0⟩⟨0|) = H(|1⟩⟨1|) = |−⟩⟨−|
        let hx = SuperOp::from_unitary(&gates::h()).compose(&SuperOp::from_unitary(&gates::x()));
        let out2 = hx.apply(&ket("0").projector());
        assert!(out2.approx_eq(&ket("-").projector(), TOL));
    }

    #[test]
    fn add_models_measurement_branch_sum() {
        let m = Measurement::computational();
        let b0 = SuperOp::from_projector(m.p0());
        let b1 = SuperOp::from_projector(m.p1());
        let sum = b0.add(&b1);
        assert!(sum.approx_eq_map(&SuperOp::from_measurement(&m), TOL));
    }

    #[test]
    fn scaling_by_probability() {
        let e = SuperOp::identity(2).scale(0.25);
        let rho = ket("0").projector();
        assert!((e.apply(&rho).trace_re() - 0.25).abs() < TOL);
    }

    #[test]
    fn from_kraus_validates() {
        // Amplitude damping with γ=0.3 is a valid channel.
        let g: f64 = 0.3;
        let k0 = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, (1.0 - g).sqrt()]);
        let k1 = CMat::from_real(2, 2, &[0.0, g.sqrt(), 0.0, 0.0]);
        let e = SuperOp::from_kraus(vec![k0, k1]).unwrap();
        assert!(e.is_trace_preserving(1e-10));
        // Doubling a unitary breaks trace-nonincrease.
        let bad = SuperOp::from_kraus(vec![gates::x(), gates::x()]);
        assert!(matches!(bad, Err(SuperOpError::TraceIncreasing)));
        assert!(matches!(
            SuperOp::from_kraus(vec![]),
            Err(SuperOpError::Empty)
        ));
        // Non-qubit (power-of-two) dimensions are a shape error, not a
        // panic — the local representation is qubit-structured.
        let odd = CMat::identity(3).scale_re(0.5);
        assert!(matches!(
            SuperOp::from_kraus(vec![odd]),
            Err(SuperOpError::ShapeMismatch)
        ));
    }

    #[test]
    fn from_local_kraus_validates() {
        // X on qubit 1 of 3, built directly in local form.
        let e = SuperOp::from_local_kraus(vec![gates::x()], vec![1], 3).unwrap();
        assert_eq!(e.dim(), 8);
        let rho = ket("000").projector();
        assert!(e.apply(&rho).approx_eq(&ket("010").projector(), TOL));
        // Invalid positions and shapes are rejected.
        assert!(matches!(
            SuperOp::from_local_kraus(vec![gates::x()], vec![3], 3),
            Err(SuperOpError::InvalidPositions)
        ));
        assert!(matches!(
            SuperOp::from_local_kraus(vec![gates::cx()], vec![0], 3),
            Err(SuperOpError::ShapeMismatch)
        ));
        assert!(matches!(
            SuperOp::from_local_kraus(vec![gates::x(), gates::x()], vec![0], 3),
            Err(SuperOpError::TraceIncreasing)
        ));
    }

    #[test]
    fn natural_matrix_detects_equality_of_maps() {
        // PρP for P=|0⟩⟨0| equals |0⟩⟨0|ρ|0⟩⟨0| trivially; compare two
        // different Kraus decompositions of the same dephasing map.
        let m = Measurement::computational();
        let deph1 = SuperOp::from_measurement(&m);
        // Kraus {I/√2, Z/√2} is the same dephasing channel.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let deph2 =
            SuperOp::from_kraus(vec![CMat::identity(2).scale_re(s), gates::z().scale_re(s)])
                .unwrap();
        assert!(deph1.approx_eq_map(&deph2, 1e-10));
        assert_eq!(deph1.map_fingerprint(1e6), deph2.map_fingerprint(1e6));
    }

    #[test]
    fn fingerprints_are_footprint_independent() {
        // X∘X = 1 as a map, but with footprint {0}; must fingerprint equal
        // to the footprint-free identity.
        let x = SuperOp::from_unitary(&gates::x()).embed(&[0], 2);
        let xx = x.compose(&x);
        assert_eq!(xx.footprint(), &[0]);
        let id = SuperOp::identity(4);
        assert!(xx.approx_eq_map(&id, 1e-10));
        assert_eq!(xx.map_fingerprint(1e6), id.map_fingerprint(1e6));
    }

    #[test]
    fn embed_acts_locally() {
        let e = SuperOp::from_unitary(&gates::x()).embed(&[1], 2);
        let rho = ket("00").projector();
        let out = e.apply(&rho);
        assert!(out.approx_eq(&ket("01").projector(), TOL));
        // Embedding is footprint relabelling: no dense matrices yet.
        assert_eq!(e.footprint(), &[1]);
        assert_eq!(e.local_kraus()[0].rows(), 2);
        // Dense materialisation on demand matches the explicit embedding.
        let dense = &e.kraus()[0];
        assert!(dense.approx_eq(&nqpv_linalg::embed(&gates::x(), &[1], 2), TOL));
    }

    #[test]
    fn embed_composes_through_footprints() {
        // CX on (q2 control, q0 target) of 3 qubits, via reversed positions.
        let e = SuperOp::from_unitary(&gates::cx()).embed(&[2, 0], 3);
        assert_eq!(e.footprint(), &[2, 0]);
        let rho = ket("001").projector(); // q2 = 1 ⇒ target q0 flips
        assert!(e.apply(&rho).approx_eq(&ket("101").projector(), TOL));
        let rho2 = ket("100").projector(); // q2 = 0 ⇒ unchanged
        assert!(e.apply(&rho2).approx_eq(&ket("100").projector(), TOL));
    }

    #[test]
    fn extend_right_is_cylinder_extension() {
        let e = SuperOp::from_unitary(&gates::x()).extend_right(1);
        assert_eq!(e.dim(), 4);
        let out = e.apply(&ket("00").projector());
        assert!(out.approx_eq(&ket("10").projector(), TOL));
        // O(1): the local kraus stay 2×2.
        assert_eq!(e.local_kraus()[0].rows(), 2);
    }

    #[test]
    fn compose_and_add_take_footprint_unions() {
        let x0 = SuperOp::from_unitary(&gates::x()).embed(&[0], 3);
        let h2 = SuperOp::from_unitary(&gates::h()).embed(&[2], 3);
        let comp = h2.compose(&x0);
        assert_eq!(comp.footprint(), &[0, 2]);
        assert_eq!(comp.local_kraus()[0].rows(), 4); // 2-qubit union space
        let rho = ket("000").projector();
        let expect = nqpv_linalg::embed(&gates::h(), &[2], 3)
            .conjugate(&nqpv_linalg::embed(&gates::x(), &[0], 3).conjugate(&rho));
        assert!(comp.apply(&rho).approx_eq(&expect, 1e-10));
        let s = x0.add(&h2);
        assert_eq!(s.footprint(), &[0, 2]);
        assert_eq!(s.kraus_len(), 2);
    }

    #[test]
    fn heisenberg_matches_dense_reference() {
        // E†(M) via strided kernels equals the dense Σ K†MK for a
        // non-contiguous, reversed footprint.
        let e = SuperOp::from_unitary(&gates::cx()).embed(&[3, 1], 4);
        let mut seed = 77u64;
        let m = random_density(4, &mut seed);
        let fast = e.apply_heisenberg(&m);
        let mut slow = CMat::zeros(16, 16);
        for k in e.kraus() {
            slow += &k.adjoint_conjugate(&m);
        }
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn heisenberg_factor_matches_dense_heisenberg() {
        let mut seed = 4242u64;
        // Unitary on a reversed, non-contiguous footprint of 4 qubits.
        let e = SuperOp::from_unitary(&gates::cx()).embed(&[3, 1], 4);
        let v = CMat::from_fn(16, 2, |i, j| {
            c(
                (i as f64 * 0.3 + j as f64).sin(),
                (i as f64 - j as f64).cos(),
            )
        });
        let w = e.apply_heisenberg_factor(&v);
        assert_eq!(w.cols(), 2); // one Kraus operator: width unchanged
        let dense = e.apply_heisenberg(&v.mul(&v.adjoint()));
        assert!(w.mul(&w.adjoint()).approx_eq(&dense, 1e-9));
        // A branching map (measurement): width doubles, operator agrees.
        let m = SuperOp::from_measurement(&Measurement::computational()).embed(&[2], 4);
        let wm = m.apply_heisenberg_factor(&v);
        assert_eq!(wm.cols(), 4);
        let dense_m = m.apply_heisenberg(&v.mul(&v.adjoint()));
        assert!(wm.mul(&wm.adjoint()).approx_eq(&dense_m, 1e-9));
        // Empty footprint (scaled identity map).
        let s = SuperOp::identity(16).scale(0.25);
        let ws = s.apply_heisenberg_factor(&v);
        let dense_s = s.apply_heisenberg(&v.mul(&v.adjoint()));
        assert!(ws.mul(&ws.adjoint()).approx_eq(&dense_s, 1e-9));
        let _ = random_density(1, &mut seed);
    }

    #[test]
    fn prune_drops_zero_kraus() {
        let mut e = SuperOp::from_kraus_unchecked(vec![CMat::identity(2), CMat::zeros(2, 2)], 2);
        assert_eq!(e.prune(1e-12), 1);
        assert_eq!(e.kraus_len(), 1);
    }
}
