//! Semantic quantum assertions: finite sets of quantum predicates.
//!
//! The paper takes `A ≜ 2^{P(H_V)}` — sets of hermitian operators `M` with
//! `0 ⊑ M ⊑ I` — as its assertion language (Sec. 4), ordered by
//! `Θ ⊑_inf Ψ  ⇔  ∀ρ. inf_{M∈Θ} tr(Mρ) ≤ inf_{N∈Ψ} tr(Nρ)`.
//! [`Assertion`] is the finite, concrete realisation used by the verifier
//! (the tool restricts to finite assertions, Sec. 6.3).
//!
//! # Low-rank factored predicates
//!
//! Each element of the set is a [`Predicate`] — either a dense matrix or a
//! **factored** operator `M = V·V†` with `V` tall-skinny (`2ⁿ×r`,
//! `r ≪ 2ⁿ`). The invariants that matter in practice (Grover's target
//! projector, code spaces, RUS success projectors) are low-rank
//! projectors, and the wp transformer preserves the structure:
//! `U†(VV†)U = (U†V)(U†V)†`. The transformer methods on [`Assertion`]
//! ([`Assertion::wp_unitary`], [`Assertion::wp_init`],
//! [`Assertion::sandwich_local`], [`Assertion::sum_pairwise`]) keep
//! factors factored across Unit/Init/If/While sandwiches, turning the
//! remaining `O(8ⁿ)` dense conjugations on the hot path into `O(4ⁿ·r)`
//! GEMMs, and `⊑` comparisons between factored predicates reduce to an
//! `(r₁+r₂)`-dimensional Gram eigenproblem
//! ([`nqpv_solver::factored_lowner_le`]) ahead of any dense solve.
//!
//! # Diagonal predicates
//!
//! A predicate that is **exactly diagonal** — a scaled identity such as
//! Grover's `p·I`, a sum of basis projectors — is held as its real
//! diagonal ([`Predicate::Diagonal`]) when rank detection gives it no
//! factor. Validation and `⊑_inf` between all-diagonal sides run in
//! `O(2ⁿ)` over the diagonals; every other operation materialises the
//! dense matrix (bitwise the one the dense representation would hold)
//! and runs the dense code.

use nqpv_lang::AssertionExpr;
use nqpv_linalg::{
    adjoint_conjugate_diagonal, apply_diagonal_columns_adjoint, deposit_bits, diagonal_is_psd,
    embed, embed_diagonal, embed_factor, exact_diagonal, factor_recompress, gram, hconcat, CMat,
    Complex, GatePlan, Structure,
};
use nqpv_quantum::{OperatorLibrary, Register, SuperOp, Unitary};
use nqpv_solver::{
    assertion_le, diagonal_assertion_le, factored_lowner_le, LownerOptions, Verdict,
};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use crate::error::VerifError;

/// A factored positive operator `M = V·V†` with `V` tall-skinny, plus a
/// lazily materialised dense form for the consumers that genuinely need a
/// whole-space matrix (outline rendering, solver fallbacks). The dense
/// cache is `Arc`-shared so those consumers can keep the matrix without
/// another `O(4ⁿ)` copy.
#[derive(Debug)]
pub struct Factor {
    v: CMat,
    dense: OnceLock<std::sync::Arc<CMat>>,
    canonical: OnceLock<CMat>,
}

impl Clone for Factor {
    fn clone(&self) -> Self {
        // The dense and canonical caches are intentionally dropped: clones
        // travel through the memo cache, and both forms are rebuilt
        // deterministically (hence bit-identically) on demand.
        Factor {
            v: self.v.clone(),
            dense: OnceLock::new(),
            canonical: OnceLock::new(),
        }
    }
}

impl Factor {
    fn new(v: CMat) -> Self {
        Factor {
            v,
            dense: OnceLock::new(),
            canonical: OnceLock::new(),
        }
    }

    /// The tall-skinny factor `V`.
    pub fn v(&self) -> &CMat {
        &self.v
    }

    /// The factor width (the represented operator's rank bound).
    pub fn rank(&self) -> usize {
        self.v.cols()
    }

    /// The dense operator `V·V†`, materialised once and cached.
    pub fn dense(&self) -> &CMat {
        self.dense_shared()
    }

    /// The canonical (eigenbasis-phase-fixed) factor of `V·V†`, computed
    /// once and cached: a function of the represented *operator*, not of
    /// this particular factoring, so quantised hashes of it give
    /// representation-independent verdict-cache keys (see
    /// [`crate::cache::verdict_key`]).
    pub fn canonical(&self) -> &CMat {
        self.canonical
            .get_or_init(|| nqpv_linalg::canonical_factor(&self.v))
    }

    fn dense_shared(&self) -> &std::sync::Arc<CMat> {
        self.dense
            .get_or_init(|| std::sync::Arc::new(self.v.mul(&self.v.adjoint())))
    }
}

/// An exactly-diagonal operator held as its real diagonal, plus a lazily
/// materialised dense form for the operations that need the whole
/// matrix (the same `Arc`-shared cache as [`Factor`]).
#[derive(Debug)]
pub struct Diagonal {
    d: Vec<f64>,
    dense: OnceLock<std::sync::Arc<CMat>>,
}

impl Clone for Diagonal {
    fn clone(&self) -> Self {
        // As for `Factor`: the dense cache is rebuilt on demand.
        Diagonal::new(self.d.clone())
    }
}

impl Diagonal {
    fn new(d: Vec<f64>) -> Self {
        Diagonal {
            d,
            dense: OnceLock::new(),
        }
    }

    /// The real diagonal.
    pub(crate) fn diag(&self) -> &[f64] {
        &self.d
    }

    fn dense_shared(&self) -> &std::sync::Arc<CMat> {
        self.dense
            .get_or_init(|| std::sync::Arc::new(self.materialise()))
    }

    /// The dense matrix `diag(d)`, built afresh.
    fn materialise(&self) -> CMat {
        let n = self.d.len();
        let mut m = CMat::zeros(n, n);
        for (i, &x) in self.d.iter().enumerate() {
            m[(i, i)] = Complex::real(x);
        }
        m
    }

    /// `0 ⊑ D ⊑ I` within `tol`, decided exactly as
    /// [`nqpv_linalg::is_predicate`] decides it on the dense matrix: a
    /// non-finite entry fails its hermiticity test, then the diagonal
    /// PSD rule runs on `D` and on `I − D`.
    fn is_predicate(&self, tol: f64) -> bool {
        self.d.iter().all(|x| x.is_finite())
            && diagonal_is_psd(self.d.iter().copied(), tol)
            && diagonal_is_psd(self.d.iter().map(|&x| 1.0 - x), tol)
    }
}

/// `d`, the real diagonal of the exactly-diagonal `m`, made the diagonal
/// whose materialisation (`Complex::real(dᵢ)` on a zero matrix)
/// reproduces `embed(m, …)` bit for bit: `embed` skips exact zeros (so
/// they read `+0.0`) and copies every other entry, so a nonzero entry
/// with imaginary part `-0.0` has no such diagonal and stays dense.
fn embeddable_diagonal(m: &CMat, mut d: Vec<f64>) -> Option<Vec<f64>> {
    for (i, x) in d.iter_mut().enumerate() {
        if *x == 0.0 {
            *x = 0.0;
        } else if m[(i, i)].im.is_sign_negative() {
            return None;
        }
    }
    Some(d)
}

/// One element of an assertion set: a quantum predicate held as a dense
/// `2ⁿ×2ⁿ` matrix, in low-rank factored form, or as an exact diagonal
/// (see the module docs).
///
/// `Predicate` dereferences to the **dense** matrix, so read-only
/// consumers (tests, rendering, solver fallbacks) treat it as a `CMat`;
/// the deref lazily materialises and caches `V·V†` for factored
/// predicates — hot paths use the structure-aware methods instead.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// A dense predicate matrix.
    Dense(CMat),
    /// A factored predicate `V·V†`.
    Factored(Factor),
    /// An exactly-diagonal predicate.
    Diagonal(Diagonal),
}

impl Predicate {
    /// Wraps a dense matrix.
    pub fn dense_from(m: CMat) -> Predicate {
        Predicate::Dense(m)
    }

    /// Wraps a factor, **densifying when the width defeats the purpose**:
    /// the factored representation only wins while `2·r ≤ dim`, so wider
    /// factors are materialised up front (`O(4ⁿ·r)`, cheaper than the
    /// dense transform they would otherwise cause downstream).
    pub fn from_factor(v: CMat) -> Predicate {
        if 2 * v.cols() <= v.rows() {
            Predicate::Factored(Factor::new(v))
        } else {
            Predicate::Dense(v.mul(&v.adjoint()))
        }
    }

    /// Wraps a real diagonal: the predicate `diag(d)`.
    pub(crate) fn from_diagonal(d: Vec<f64>) -> Predicate {
        Predicate::Diagonal(Diagonal::new(d))
    }

    /// The space dimension.
    pub fn dim(&self) -> usize {
        match self {
            Predicate::Dense(m) => m.rows(),
            Predicate::Factored(f) => f.v.rows(),
            Predicate::Diagonal(d) => d.d.len(),
        }
    }

    /// `true` for the factored representation.
    pub fn is_factored(&self) -> bool {
        matches!(self, Predicate::Factored(_))
    }

    /// The factor width for factored predicates (`None` when dense).
    pub fn rank(&self) -> Option<usize> {
        match self {
            Predicate::Dense(_) | Predicate::Diagonal(_) => None,
            Predicate::Factored(f) => Some(f.rank()),
        }
    }

    /// The dense matrix, lazily materialised for factored and diagonal
    /// predicates.
    pub fn dense(&self) -> &CMat {
        match self {
            Predicate::Dense(m) => m,
            Predicate::Factored(f) => f.dense(),
            Predicate::Diagonal(d) => d.dense_shared(),
        }
    }

    /// The dense matrix behind a shared handle: factored and diagonal
    /// predicates hand out their cached materialisation without copying
    /// (an `O(4ⁿ)` memory pass saved per outline-rendered predicate);
    /// dense ones pay the one clone they would pay anyway.
    pub fn dense_shared(&self) -> std::sync::Arc<CMat> {
        match self {
            Predicate::Dense(m) => std::sync::Arc::new(m.clone()),
            Predicate::Factored(f) => f.dense_shared().clone(),
            Predicate::Diagonal(d) => d.dense_shared().clone(),
        }
    }

    /// `tr(M·ρ)` without materialising the operator when factored:
    /// `tr(VV†ρ) = tr(V†ρV) = Σⱼ ⟨vⱼ|ρ|vⱼ⟩` — `O(4ⁿ·r)` against the
    /// `O(4ⁿ·2ⁿ)` trace product of the dense form.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expectation(&self, rho: &CMat) -> f64 {
        match self {
            Predicate::Dense(_) | Predicate::Diagonal(_) => self.dense().trace_product(rho).re,
            Predicate::Factored(f) => {
                let d = f.v.rows();
                assert_eq!(rho.rows(), d, "state dimension mismatch");
                let rv = rho.mul(&f.v);
                let mut acc = 0.0f64;
                for i in 0..d {
                    let vrow = f.v.row(i);
                    let rrow = rv.row(i);
                    for (a, b) in vrow.iter().zip(rrow) {
                        acc += (a.conj() * *b).re;
                    }
                }
                acc
            }
        }
    }

    /// `tr(M)` without materialising the operator when factored:
    /// `tr(VV†) = ‖V‖²_F`, an `O(2ⁿ·r)` pass over the factor.
    pub fn trace_re(&self) -> f64 {
        match self {
            Predicate::Dense(_) | Predicate::Diagonal(_) => self.dense().trace_re(),
            Predicate::Factored(f) => {
                f.v.as_slice()
                    .iter()
                    .map(|z| z.re * z.re + z.im * z.im)
                    .sum()
            }
        }
    }

    /// Dedup fingerprint. Dense predicates hash the quantised matrix;
    /// factored ones hash the quantised **factor** (tagged apart), so
    /// byte-identical pipeline products dedupe without materialising
    /// `V·V†`. Factored/dense forms of the same operator therefore hash
    /// apart — dedup is best-effort, the set-size bound still governs.
    /// Diagonal predicates hash their dense form, so they dedupe against
    /// dense equals exactly as the dense representation would.
    pub fn fingerprint(&self, scale: f64) -> u64 {
        match self {
            Predicate::Dense(_) | Predicate::Diagonal(_) => self.dense().fingerprint(scale),
            Predicate::Factored(f) => f.v.fingerprint(scale) ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// `0 ⊑ M ⊑ I` within `tol`. Factored predicates are PSD by
    /// construction and `VV† ⊑ I ⇔ V†V ⊑ I`, an `r×r` eigenproblem;
    /// diagonal ones scan the diagonal in `O(2ⁿ)` and decide exactly as
    /// the dense test does on their matrix.
    pub fn is_predicate(&self, tol: f64) -> bool {
        match self {
            Predicate::Dense(m) => nqpv_linalg::is_predicate(m, tol),
            Predicate::Diagonal(d) => d.is_predicate(tol),
            Predicate::Factored(f) => {
                if f.rank() == 0 {
                    return true;
                }
                let g = gram(&f.v, &f.v);
                match nqpv_linalg::eigh(&g) {
                    Ok(e) => e.max() <= 1.0 + tol,
                    Err(_) => false,
                }
            }
        }
    }
}

impl Deref for Predicate {
    type Target = CMat;
    fn deref(&self) -> &CMat {
        self.dense()
    }
}

/// A finite set of quantum predicates over a fixed register space.
///
/// # Examples
///
/// ```
/// use nqpv_core::Assertion;
/// use nqpv_linalg::CMat;
/// let a = Assertion::identity(2);
/// assert_eq!(a.dim(), 2);
/// assert_eq!(a.ops().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Assertion {
    dim: usize,
    ops: Vec<Predicate>,
}

impl Assertion {
    /// Creates an assertion from explicit dense predicate matrices.
    ///
    /// # Errors
    ///
    /// Rejects empty sets and shape mismatches; elements are *not* checked
    /// for the predicate interval here (wlp-generated intermediates can
    /// carry rounding slack) — use [`Assertion::validate_predicates`] at
    /// user-input boundaries.
    pub fn from_ops(dim: usize, ops: Vec<CMat>) -> Result<Self, VerifError> {
        Assertion::from_predicates(dim, ops.into_iter().map(Predicate::Dense).collect())
    }

    /// Creates an assertion from explicit predicates (dense or factored).
    ///
    /// # Errors
    ///
    /// Rejects empty sets and shape mismatches, like
    /// [`Assertion::from_ops`].
    pub fn from_predicates(dim: usize, ops: Vec<Predicate>) -> Result<Self, VerifError> {
        if ops.is_empty() {
            return Err(VerifError::EmptyAssertion);
        }
        for p in &ops {
            let rows = match p {
                Predicate::Dense(m) if m.rows() != dim || m.cols() != dim => m.rows(),
                Predicate::Factored(f) if f.v.rows() != dim => f.v.rows(),
                Predicate::Diagonal(d) if d.d.len() != dim => d.d.len(),
                _ => continue,
            };
            return Err(VerifError::AssertionShape {
                expected: dim,
                got: rows,
            });
        }
        Ok(Assertion { dim, ops }.deduped())
    }

    /// The singleton `{I}` — the quantum analogue of `true`.
    pub fn identity(dim: usize) -> Self {
        Assertion {
            dim,
            ops: vec![Predicate::Dense(CMat::identity(dim))],
        }
    }

    /// The singleton `{0}` — the quantum analogue of `false`.
    pub fn zero(dim: usize) -> Self {
        Assertion {
            dim,
            ops: vec![Predicate::Dense(CMat::zeros(dim, dim))],
        }
    }

    /// Resolves a syntactic assertion against a library and register:
    /// every `P[q̄]` term is embedded as a cylinder extension onto the full
    /// register space, in the structure the library classified the
    /// predicate with when it was bound — predicates whose pivoted
    /// Cholesky factorisation reveals a payoff-worthy rank (`2r ≤ 2ᵏ`)
    /// enter the pipeline factored, and exactly-diagonal ones without such
    /// a factor enter as their diagonal, with no syntax change for
    /// existing corpora.
    ///
    /// # Errors
    ///
    /// Returns [`VerifError`] on unknown operators, kind/arity mismatches
    /// or invalid predicates.
    pub fn from_expr(
        expr: &AssertionExpr,
        lib: &OperatorLibrary,
        reg: &Register,
    ) -> Result<Self, VerifError> {
        Assertion::from_expr_with(expr, lib, reg, true)
    }

    /// [`Assertion::from_expr`] with rank detection switchable off
    /// (`factor = false` forces the dense representation, diagonals
    /// included; the factored-vs-dense ablation knob behind
    /// [`VcOptions::factor_assertions`](crate::transformer::VcOptions)).
    ///
    /// # Errors
    ///
    /// Same as [`Assertion::from_expr`].
    pub fn from_expr_with(
        expr: &AssertionExpr,
        lib: &OperatorLibrary,
        reg: &Register,
        factor: bool,
    ) -> Result<Self, VerifError> {
        let n = reg.n_qubits();
        let mut ops = Vec::with_capacity(expr.terms.len());
        for term in &expr.terms {
            let (m, structure) = lib
                .predicate_structure(&term.op)
                .map_err(VerifError::Library)?;
            let pos = reg.positions(&term.qubits).map_err(VerifError::Register)?;
            let k = m.rows().trailing_zeros() as usize;
            if k != pos.len() {
                return Err(VerifError::ArityMismatch {
                    op: term.op.clone(),
                    expected: k,
                    got: pos.len(),
                });
            }
            ops.push(resolve_term(m, structure, &pos, n, factor));
        }
        Assertion::from_predicates(reg.dim(), ops)
    }

    /// The space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The predicate set.
    pub fn ops(&self) -> &[Predicate] {
        &self.ops
    }

    /// Number of predicates in the set.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the set is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Clones every predicate into its dense matrix form (solver
    /// fallbacks; factored elements materialise through their cache, and
    /// a diagonal not yet materialised is built once, uncached).
    pub fn dense_ops(&self) -> Vec<CMat> {
        self.ops
            .iter()
            .map(|p| match p {
                Predicate::Diagonal(d) if d.dense.get().is_none() => d.materialise(),
                _ => p.dense().clone(),
            })
            .collect()
    }

    /// Number of predicates held in factored form.
    pub fn factored_count(&self) -> usize {
        self.ops.iter().filter(|p| p.is_factored()).count()
    }

    /// The largest factor width among factored predicates (`None` when
    /// the set is all-dense) — the rank column of the benchmark tables.
    pub fn max_factored_rank(&self) -> Option<usize> {
        self.ops.iter().filter_map(Predicate::rank).max()
    }

    /// The guaranteed expected satisfaction `Exp(ρ ⊨ Θ) = inf_M tr(Mρ)`
    /// (Definition 4.1). Factored predicates evaluate as `tr(V†ρV)` —
    /// the dense operator is never materialised for the forward/semantics
    /// checks.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expectation(&self, rho: &CMat) -> f64 {
        assert_eq!(rho.rows(), self.dim, "state dimension mismatch");
        self.ops
            .iter()
            .map(|m| m.expectation(rho))
            .fold(f64::INFINITY, f64::min)
    }

    /// Element-wise map over the **dense** forms of the predicate set.
    /// Factored elements materialise first and the result is dense —
    /// use the structure-aware transforms ([`Assertion::wp_unitary`],
    /// [`Assertion::wp_init`], [`Assertion::sandwich_local`]) on the wp
    /// hot path.
    pub fn map<F: FnMut(&CMat) -> CMat>(&self, mut f: F) -> Assertion {
        Assertion {
            dim: self.dim,
            ops: self
                .ops
                .iter()
                .map(|m| Predicate::Dense(f(m.dense())))
                .collect(),
        }
        .deduped()
    }

    /// The (Unit) rule transform `{U† M U}` for a `k`-local unitary on
    /// `positions`: dense predicates run the strided conjugation,
    /// factored ones map their factor through one gate sweep
    /// (`U_S†·V` — rank and width unchanged, no recompression needed).
    /// Both read `U†` from `u` by index; no adjoint is materialised.
    /// An exactly-diagonal `u` (see [`Unitary::diagonal`]) scales the
    /// factor rows in `O(2ⁿ·r)` or the dense entries in `O(4ⁿ)` instead,
    /// bitwise equal to the sweeps; diagonal predicates still come out
    /// dense.
    pub fn wp_unitary(&self, u: &Unitary, positions: &[usize], n: usize) -> Assertion {
        // One index plan serves every predicate of the set, built only
        // for a gate that is not an exact diagonal.
        let plan = OnceCell::new();
        let plan = || plan.get_or_init(|| GatePlan::new(positions, n));
        Assertion {
            dim: self.dim,
            ops: self
                .ops
                .iter()
                .map(|p| match (p, u.diagonal()) {
                    (Predicate::Factored(f), diagonal) => {
                        let mut v = f.v.clone();
                        match diagonal {
                            Some(d) => apply_diagonal_columns_adjoint(d, positions, n, &mut v),
                            None => plan().apply_columns_adjoint(u, &mut v),
                        }
                        Predicate::Factored(Factor::new(v))
                    }
                    (_, Some(d)) => {
                        Predicate::Dense(adjoint_conjugate_diagonal(d, positions, n, p.dense()))
                    }
                    (_, None) => Predicate::Dense(plan().adjoint_conjugate(u, p.dense())),
                })
                .collect(),
        }
        .deduped()
    }

    /// The measurement sandwich `{P M P}` for a hermitian `k`-local
    /// projector `p` on `positions` (rules (Meas)/(While)): dense
    /// predicates run the strided conjugation; factored ones apply `P` to
    /// the factor columns (`P(VV†)P = (PV)(PV)†`) and re-truncate — a
    /// projector can only shrink the rank.
    pub fn sandwich_local(&self, p: &CMat, positions: &[usize], n: usize) -> Assertion {
        // One index plan serves every predicate of the set.
        let plan = GatePlan::new(positions, n);
        Assertion {
            dim: self.dim,
            ops: self
                .ops
                .iter()
                .map(|pred| match pred {
                    Predicate::Dense(_) | Predicate::Diagonal(_) => {
                        Predicate::Dense(plan.conjugate(p, pred.dense()))
                    }
                    Predicate::Factored(f) => {
                        let mut v = f.v.clone();
                        plan.apply_columns(p, &mut v);
                        Predicate::Factored(Factor::new(factor_recompress(&v)))
                    }
                })
                .collect(),
        }
        .deduped()
    }

    /// The (Init) rule transform `xp.(q̄:=0).M = Σᵢ |i⟩⟨0| M |0⟩⟨i|` for
    /// initialised `positions`. Dense predicates go through the strided
    /// initialiser super-operator as before. Factored predicates exploit
    /// the structure `E†(M) = I_pos ⊗ ⟨0|M|0⟩`: gather the `pos = 0` rows
    /// of the factor, re-truncate that `2^{n-k}×r` block (this is where
    /// rank *grows* by the `2ᵏ` branch factor, and where recompression
    /// claws it back), and re-embed — never touching the `2ᵏ` Kraus
    /// branches individually. Past the payoff width, an exactly-diagonal
    /// rest-space block `⟨0|M|0⟩` re-embeds as a diagonal predicate.
    pub fn wp_init(&self, positions: &[usize], n: usize) -> Assertion {
        let k = positions.len();
        let rest: Vec<usize> = (0..n).filter(|q| !positions.contains(q)).collect();
        let setter = OnceLock::new(); // built only if a dense element needs it
        Assertion {
            dim: self.dim,
            ops: self
                .ops
                .iter()
                .map(|pred| match pred {
                    Predicate::Dense(_) | Predicate::Diagonal(_) => {
                        let e: &SuperOp =
                            setter.get_or_init(|| SuperOp::initializer(k).embed(positions, n));
                        Predicate::Dense(e.apply_heisenberg(pred.dense()))
                    }
                    Predicate::Factored(f) => {
                        // V₀ = the rows of V whose `positions` bits are 0,
                        // ordered by the remaining qubits.
                        let r = f.v.cols();
                        let v0 = CMat::from_fn(1usize << rest.len(), r, |a, j| {
                            f.v[(deposit_bits(a, &rest, n), j)]
                        });
                        let w = factor_recompress(&v0);
                        let width = w.cols() << k;
                        if 2 * width <= self.dim {
                            Predicate::Factored(Factor::new(embed_factor(&w, &rest, n)))
                        } else {
                            // Full-ish rank after the 2ᵏ branch blow-up:
                            // build the small rest-space block densely and
                            // embed it once: O(2ⁿ) when the block is
                            // diagonal (e.g. Grover's wp lands on
                            // ⟨0|M|0⟩·I here), O(4ⁿ) otherwise.
                            let block = w.mul(&w.adjoint());
                            match exact_diagonal(&block)
                                .and_then(|d| embeddable_diagonal(&block, d))
                            {
                                Some(d) => Predicate::from_diagonal(embed_diagonal(&d, &rest, n)),
                                None => Predicate::Dense(embed(&block, &rest, n)),
                            }
                        }
                    }
                })
                .collect(),
        }
        .deduped()
    }

    /// Set union `Θ ∪ Ψ` (rule (Union) / nondeterministic choice in Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns [`VerifError::AssertionShape`] on dimension mismatch.
    pub fn union(&self, other: &Assertion) -> Result<Assertion, VerifError> {
        if self.dim != other.dim {
            return Err(VerifError::AssertionShape {
                expected: self.dim,
                got: other.dim,
            });
        }
        let mut ops = self.ops.clone();
        ops.extend(other.ops.iter().cloned());
        Ok(Assertion { dim: self.dim, ops }.deduped())
    }

    /// Element-wise (cartesian) sums `{A + B : A ∈ Θ, B ∈ Ψ}` — the
    /// measurement-combination of rule (Meas) and the `P⁰(Ψ)+P¹(Θ)`
    /// construction of rule (While). Factored pairs concatenate their
    /// factors and re-truncate (densifying only past the payoff
    /// threshold); mixed pairs fall back to the dense sum.
    ///
    /// # Errors
    ///
    /// Returns [`VerifError::AssertionShape`] on dimension mismatch.
    pub fn sum_pairwise(&self, other: &Assertion) -> Result<Assertion, VerifError> {
        if self.dim != other.dim {
            return Err(VerifError::AssertionShape {
                expected: self.dim,
                got: other.dim,
            });
        }
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for a in &self.ops {
            for b in &other.ops {
                ops.push(match (a, b) {
                    (Predicate::Factored(fa), Predicate::Factored(fb)) => {
                        Predicate::from_factor(factor_recompress(&hconcat(&fa.v, &fb.v)))
                    }
                    _ => Predicate::Dense(a.dense().add_mat(b.dense())),
                });
            }
        }
        Ok(Assertion { dim: self.dim, ops }.deduped())
    }

    /// Decides `self ⊑_inf other` with the solver. When every element of
    /// both sides is diagonal, the diagonal scan decides first
    /// ([`nqpv_solver::diagonal_assertion_le`]) without materialising a
    /// dense operator. Pairs of factored predicates try the
    /// `(r₁+r₂)`-dimensional Gram fast path: if every `N ∈ Ψ` is
    /// dominated by some factored `M ∈ Θ`, the order is certified without
    /// materialising a single dense operator. Otherwise the dense minimax
    /// solver decides as before.
    ///
    /// # Errors
    ///
    /// Wraps solver input failures.
    pub fn le_inf(&self, other: &Assertion, opts: LownerOptions) -> Result<Verdict, VerifError> {
        if let Some(v) = self.diagonal_le_inf_traced(other, opts) {
            return Ok(v);
        }
        if self.fast_le_inf_holds_traced(other, opts) {
            return Ok(Verdict::Holds);
        }
        assertion_le(&self.dense_ops(), &other.dense_ops(), opts).map_err(VerifError::Solver)
    }

    /// Every element's diagonal, when all of them are diagonal.
    fn diagonals(&self) -> Option<Vec<&[f64]>> {
        self.ops
            .iter()
            .map(|p| match p {
                Predicate::Diagonal(d) => Some(d.diag()),
                _ => None,
            })
            .collect()
    }

    /// `⊑_inf` between all-diagonal sides under one solver span on the
    /// `diagonal` path. `None` (span cancelled) when some element is not
    /// diagonal, the deadline has expired, or the scan leaves the order
    /// undecided: the dense solver then decides and records its own spans.
    fn diagonal_le_inf_traced(&self, other: &Assertion, opts: LownerOptions) -> Option<Verdict> {
        let (theta, psi) = (self.diagonals()?, other.diagonals()?);
        if opts.deadline.expired() {
            return None;
        }
        let mut span = opts
            .tracer
            .span(nqpv_telemetry::Phase::Solver, "obligation");
        let Some(verdict) = diagonal_assertion_le(&theta, &psi, opts.eps) else {
            span.cancel();
            return None;
        };
        span.classify("solver_path", "diagonal");
        match &verdict {
            Verdict::Violated(v) => {
                span.arg("outcome", nqpv_telemetry::ArgValue::Static("violated"));
                span.arg("margin", nqpv_telemetry::ArgValue::F64(v.margin));
            }
            _ => span.arg("outcome", nqpv_telemetry::ArgValue::Static("holds")),
        }
        Some(verdict)
    }

    /// [`Assertion::fast_le_inf_holds`] under a solver span: a certified
    /// factored screen is a solver obligation settled on the
    /// `factored-gram` path (the dense solver records its own spans per
    /// element, so an undecided screen records nothing here).
    fn fast_le_inf_holds_traced(&self, other: &Assertion, opts: LownerOptions) -> bool {
        let mut span = opts
            .tracer
            .span(nqpv_telemetry::Phase::Solver, "obligation");
        let holds = self.fast_le_inf_holds(other, opts.eps);
        if holds {
            span.classify("solver_path", "factored-gram");
            span.arg("outcome", nqpv_telemetry::ArgValue::Static("holds"));
        } else {
            // Undecided: the dense solver will record the real spans.
            span.cancel();
        }
        holds
    }

    /// Rank-aware certifying-side screen for `⊑_inf`: `true` when every
    /// element of `other` is Löwner-dominated by some **factored** element
    /// of `self`, each pair decided by the Gram eigenproblem. `false`
    /// means "undecided", never "violated". Mismatched dimensions are
    /// left undecided so the solver path reports them as errors, as the
    /// API documents.
    fn fast_le_inf_holds(&self, other: &Assertion, eps: f64) -> bool {
        if self.dim != other.dim {
            return false;
        }
        other.ops.iter().all(|n| {
            self.ops.iter().any(|m| match (m, n) {
                (Predicate::Factored(fm), Predicate::Factored(fnn)) => {
                    factored_lowner_le(&fm.v, &fnn.v, eps)
                }
                _ => false,
            })
        })
    }

    /// Rank-aware certifying-side screen for the angelic `⊑_sup` (used by
    /// [`crate::angelic::le_sup`]): `true` when every factored element of
    /// `self` is dominated by some factored element of `other`.
    pub(crate) fn fast_le_sup_holds(&self, other: &Assertion, eps: f64) -> bool {
        if self.dim != other.dim {
            return false;
        }
        self.ops.iter().all(|m| {
            other.ops.iter().any(|n| match (m, n) {
                (Predicate::Factored(fm), Predicate::Factored(fnn)) => {
                    factored_lowner_le(&fm.v, &fnn.v, eps)
                }
                _ => false,
            })
        })
    }

    /// [`Assertion::le_inf`] through an optional **verdict cache**: the
    /// decision is keyed by the exact operator bits of both sides plus the
    /// solver options, and looked up via the
    /// [`TransformerCache`](crate::cache::TransformerCache) hook before the
    /// solver runs. Loop-heavy corpora repeat the same `⊑_inf` queries many
    /// times (invariant checks, cut assertions, final comparisons of
    /// byte-identical jobs); a shared cache answers all but the first.
    ///
    /// # Errors
    ///
    /// Same as [`Assertion::le_inf`]. Solver errors are never cached.
    pub fn le_inf_cached(
        &self,
        other: &Assertion,
        opts: LownerOptions,
        cache: Option<&dyn crate::cache::TransformerCache>,
    ) -> Result<Verdict, VerifError> {
        let Some(cache) = cache else {
            return self.le_inf(other, opts);
        };
        let key = crate::cache::verdict_key(crate::cache::VERDICT_TAG_INF, self, other, &opts);
        let hit = {
            let mut span = opts
                .tracer
                .span(nqpv_telemetry::Phase::Cache, "verdict_tier");
            let hit = cache.get_verdict(key);
            span.classify("verdict_tier", if hit.is_some() { "hit" } else { "miss" });
            hit
        };
        if let Some(v) = hit {
            return Ok(v);
        }
        let v = self.le_inf(other, opts)?;
        cache.put_verdict(key, &v);
        Ok(v)
    }

    /// Validates that every element lies in the predicate interval
    /// `0 ⊑ M ⊑ I` (within `tol`). Factored elements decide `VV† ⊑ I`
    /// as the `r×r` Gram eigenproblem `V†V ⊑ I`; diagonal ones scan their
    /// diagonal.
    pub fn validate_predicates(&self, tol: f64) -> bool {
        self.ops.iter().all(|m| m.is_predicate(tol))
    }

    /// `true` if the two assertions contain the same predicates (as
    /// matrices, within `tol`), regardless of order. Used by the proof
    /// checker to match rule premises *syntactically* — semantic weakening
    /// must go through the (Imp) rule, as in the paper.
    pub fn approx_set_eq(&self, other: &Assertion, tol: f64) -> bool {
        if self.dim != other.dim || self.ops.len() != other.ops.len() {
            return false;
        }
        let mut used = vec![false; other.ops.len()];
        'outer: for a in &self.ops {
            for (j, b) in other.ops.iter().enumerate() {
                if !used[j] && a.dense().approx_eq(b.dense(), tol) {
                    used[j] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// Caps the set size, returning an error if exceeded (nondeterministic
    /// branching multiplies set sizes; see `VcOptions::max_set`).
    pub(crate) fn check_size(self, max: usize) -> Result<Self, VerifError> {
        if self.ops.len() > max {
            Err(VerifError::SetBlowup { limit: max })
        } else {
            Ok(self)
        }
    }

    fn deduped(mut self) -> Self {
        if self.ops.len() <= 1 {
            return self;
        }
        let mut seen = HashSet::new();
        self.ops.retain(|m| seen.insert(m.fingerprint(1e8)));
        self
    }
}

/// One resolved `P[q̄]` term: the library operator `m` embedded on
/// `positions` of an `n`-qubit register, in the `structure` the library
/// detected in `m` at its native `2ᵏ` dimension when it was bound. The
/// embedded rank is `r·2^{n−k}`, so the factored form pays off exactly
/// when `2r ≤ 2ᵏ`, the rank budget of that detection. An exactly-diagonal
/// `m` with no factor embeds as its diagonal, a gather of `2ⁿ` entries.
/// `factor = false` keeps every term dense.
fn resolve_term(
    m: &CMat,
    structure: &Structure,
    positions: &[usize],
    n: usize,
    factor: bool,
) -> Predicate {
    if !factor {
        return Predicate::Dense(embed(m, positions, n));
    }
    match structure {
        Structure::Factor(w) => Predicate::Factored(Factor::new(embed_factor(w, positions, n))),
        Structure::Diagonal(d) => match embeddable_diagonal(m, d.clone()) {
            Some(d) => Predicate::from_diagonal(embed_diagonal(&d, positions, n)),
            None => Predicate::Dense(embed(m, positions, n)),
        },
        Structure::Dense => Predicate::Dense(embed(m, positions, n)),
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{ {} predicate(s) on dim {} }}",
            self.ops.len(),
            self.dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_lang::OpApp;
    use nqpv_linalg::{apply_gate_columns, conjugate_gate};
    use nqpv_quantum::ket;

    fn reg2() -> Register {
        Register::new(&["q1", "q2"]).unwrap()
    }

    /// `resolve_term` on the structure the library's bind detects in `m`
    /// (`m` need not be a predicate here).
    fn resolve_detected(m: &CMat, positions: &[usize], n: usize) -> Predicate {
        let structure =
            nqpv_linalg::detect_structure(m, nqpv_quantum::RANK_DETECT_TOL, m.rows() / 2);
        resolve_term(m, &structure, positions, n, true)
    }

    #[test]
    fn from_expr_embeds_onto_register() {
        let lib = OperatorLibrary::with_builtins();
        let expr = AssertionExpr::new(vec![OpApp::new("P0", &["q2"])]);
        let a = Assertion::from_expr(&expr, &lib, &reg2()).unwrap();
        assert_eq!(a.dim(), 4);
        // P0 on q2 = I ⊗ |0⟩⟨0|: expectation 1 on |10⟩, 0 on |11⟩.
        assert!((a.expectation(&ket("10").projector()) - 1.0).abs() < 1e-10);
        assert!(a.expectation(&ket("11").projector()).abs() < 1e-10);
    }

    #[test]
    fn from_expr_detects_low_rank_projectors() {
        let lib = OperatorLibrary::with_builtins();
        // P0 is rank 1 of dimension 2: factored (embedded rank 2 = dim/2).
        let a = Assertion::from_expr(
            &AssertionExpr::new(vec![OpApp::new("P0", &["q2"])]),
            &lib,
            &reg2(),
        )
        .unwrap();
        assert_eq!(a.factored_count(), 1);
        assert_eq!(a.max_factored_rank(), Some(2));
        assert!(a.ops()[0]
            .dense()
            .approx_eq(&embed(&ket("0").projector(), &[1], 2), 1e-12));
        // I is full rank: dense.
        let id = Assertion::from_expr(
            &AssertionExpr::new(vec![OpApp::new("I", &["q1"])]),
            &lib,
            &reg2(),
        )
        .unwrap();
        assert_eq!(id.factored_count(), 0);
        // The ablation switch forces dense.
        let dense = Assertion::from_expr_with(
            &AssertionExpr::new(vec![OpApp::new("P0", &["q2"])]),
            &lib,
            &reg2(),
            false,
        )
        .unwrap();
        assert_eq!(dense.factored_count(), 0);
        assert!(dense.ops()[0].dense().approx_eq(a.ops()[0].dense(), 1e-12));
    }

    #[test]
    fn expectation_takes_the_infimum() {
        let lib = OperatorLibrary::with_builtins();
        let expr = AssertionExpr::new(vec![OpApp::new("P0", &["q1"]), OpApp::new("P1", &["q1"])]);
        let a = Assertion::from_expr(&expr, &lib, &reg2()).unwrap();
        // On any state, min(tr(P0ρ), tr(P1ρ)) ≤ 1/2·tr(ρ).
        let rho = ket("0+").projector();
        assert!(a.expectation(&rho) < 1e-10 + 0.0f64.max(0.0)); // P1 gives 0
    }

    #[test]
    fn factored_expectation_matches_dense() {
        let v = CMat::from_fn(4, 2, |i, j| {
            nqpv_linalg::c((i + j) as f64 * 0.2, i as f64 * 0.1 - j as f64 * 0.3)
        });
        let factored = Predicate::Factored(Factor::new(v.clone()));
        let dense = Predicate::Dense(v.mul(&v.adjoint()));
        let rho = ket("0+").projector();
        assert!((factored.expectation(&rho) - dense.expectation(&rho)).abs() < 1e-10);
    }

    #[test]
    fn union_and_sum_shapes() {
        let a = Assertion::identity(2);
        let b = Assertion::zero(2);
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
        let s = a.sum_pairwise(&b).unwrap();
        assert_eq!(s.len(), 1); // I + 0 = I
        let bad = Assertion::identity(4);
        assert!(a.union(&bad).is_err());
    }

    #[test]
    fn factored_sum_pairwise_concatenates_and_recompresses() {
        let p0 = Predicate::from_factor(CMat::from_real(4, 1, &[1.0, 0.0, 0.0, 0.0]));
        let p1 = Predicate::from_factor(CMat::from_real(4, 1, &[0.0, 1.0, 0.0, 0.0]));
        let a = Assertion::from_predicates(4, vec![p0.clone()]).unwrap();
        let b = Assertion::from_predicates(4, vec![p1]).unwrap();
        let s = a.sum_pairwise(&b).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.max_factored_rank(), Some(2));
        // Summing a factor with itself re-truncates back to rank 1.
        let twice = a
            .sum_pairwise(&Assertion::from_predicates(4, vec![p0]).unwrap())
            .unwrap();
        assert_eq!(twice.max_factored_rank(), Some(1));
        assert!((twice.expectation(&ket("00").projector()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wp_unitary_keeps_factors_factored() {
        // post = |11⟩⟨11| factored; wp through H⊗H must stay rank 1 and
        // agree with the dense conjugation.
        let marked = Predicate::from_factor(CMat::from_real(4, 1, &[0.0, 0.0, 0.0, 1.0]));
        let a = Assertion::from_predicates(4, vec![marked]).unwrap();
        let h = nqpv_quantum::gates::h();
        let hh = h.kron(&h);
        let wp = a.wp_unitary(&Unitary::new(hh.clone()), &[0, 1], 2);
        assert_eq!(wp.max_factored_rank(), Some(1));
        let dense_ref = hh.adjoint_conjugate(&ket("11").projector());
        assert!(wp.ops()[0].dense().approx_eq(&dense_ref, 1e-10));
    }

    #[test]
    fn wp_unitary_matches_the_materialised_adjoint_bitwise() {
        // The (Unit) rule reads U† from `u` by index; on one factored and
        // one dense element it must reproduce the formula over a
        // materialised `u.adjoint()` bit for bit. `u` is not hermitian,
        // so U† ≠ U and the test tells the two apart.
        let u = CMat::from_fn(4, 4, |i, j| {
            nqpv_linalg::c(
                (i * 4 + j) as f64 * 0.13 - 0.9,
                (i as f64 - 2.0 * j as f64) * 0.21,
            )
        });
        assert!(!u.approx_eq(&u.adjoint(), 1e-6));
        let (pos, n) = ([2usize, 0], 3);
        let v = CMat::from_fn(8, 2, |i, j| {
            nqpv_linalg::c((i + j) as f64 * 0.2 - 0.5, i as f64 * 0.1 - j as f64 * 0.3)
        });
        let m = CMat::from_fn(8, 8, |i, j| {
            nqpv_linalg::c((i + 2 * j) as f64 * 0.07, (i as f64 - j as f64) * 0.05)
        });
        let a = Assertion::from_predicates(
            8,
            vec![
                Predicate::Factored(Factor::new(v.clone())),
                Predicate::Dense(m.clone()),
            ],
        )
        .unwrap();
        let wp = a.wp_unitary(&Unitary::new(u.clone()), &pos, n);
        let ua = u.adjoint();
        let mut v_ref = v;
        apply_gate_columns(&ua, &pos, n, &mut v_ref);
        let m_ref = conjugate_gate(&ua, &pos, n, &m);
        let bits = |x: &CMat| -> Vec<(u64, u64)> {
            x.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_eq!(wp.len(), 2);
        match (&wp.ops()[0], &wp.ops()[1]) {
            (Predicate::Factored(f), Predicate::Dense(d)) => {
                assert_eq!(bits(f.v()), bits(&v_ref));
                assert_eq!(bits(d), bits(&m_ref));
            }
            other => panic!("representations changed: {other:?}"),
        }
    }

    #[test]
    fn wp_init_full_width_lands_on_scaled_identity() {
        // xp.(q̄:=0).[|ψ⟩] = |⟨0…0|ψ⟩|²·I — rank explodes, so the factored
        // element leaves factored form; the 1×1 rest-space block is
        // diagonal, so it lands on a diagonal scaled identity whose dense
        // form is bitwise the dense embedding of that block.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let psi = CMat::from_real(4, 1, &[s, 0.0, 0.0, s]);
        let a = Assertion::from_predicates(4, vec![Predicate::from_factor(psi.clone())]).unwrap();
        let wp = a.wp_init(&[0, 1], 2);
        assert_eq!(wp.factored_count(), 0);
        assert!(matches!(wp.ops()[0], Predicate::Diagonal(_)));
        assert!(wp.ops()[0]
            .dense()
            .approx_eq(&CMat::identity(4).scale_re(0.5), 1e-10));
        let v0 = CMat::from_fn(1, 1, |_, _| psi[(0, 0)]);
        let w = factor_recompress(&v0);
        assert_eq!(
            bits(wp.ops()[0].dense()),
            bits(&embed(&w.mul(&w.adjoint()), &[], 2))
        );
    }

    fn bits(x: &CMat) -> Vec<(u64, u64)> {
        x.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    fn diagonal_assertion(d: &[f64]) -> Assertion {
        Assertion::from_predicates(d.len(), vec![Predicate::from_diagonal(d.to_vec())]).unwrap()
    }

    #[test]
    fn from_expr_keeps_exact_diagonals_diagonal_only_when_factoring() {
        let lib = OperatorLibrary::with_builtins();
        let expr = AssertionExpr::new(vec![OpApp::new("I", &["q1"])]);
        let a = Assertion::from_expr(&expr, &lib, &reg2()).unwrap();
        match &a.ops()[0] {
            Predicate::Diagonal(d) => assert_eq!(d.diag(), &[1.0; 4]),
            other => panic!("I[q1] should resolve to a diagonal: {other:?}"),
        }
        assert!(a.validate_predicates(1e-6));
        let dense = Assertion::from_expr_with(&expr, &lib, &reg2(), false).unwrap();
        assert!(matches!(dense.ops()[0], Predicate::Dense(_)));
        assert_eq!(bits(a.ops()[0].dense()), bits(dense.ops()[0].dense()));
    }

    #[test]
    fn embeddable_diagonal_reproduces_embed_bits_or_declines() {
        // Exact zeros of either sign embed as +0.0; a nonzero entry with a
        // -0.0 imaginary part would not survive the round trip.
        let m = CMat::diag(&[
            nqpv_linalg::c(-0.0, 0.0),
            nqpv_linalg::c(0.25, 0.0),
            nqpv_linalg::c(0.0, -0.0),
            nqpv_linalg::c(-0.5, 0.0),
        ]);
        let p = resolve_detected(&m, &[2, 0], 3);
        assert!(matches!(p, Predicate::Diagonal(_)));
        assert_eq!(bits(p.dense()), bits(&embed(&m, &[2, 0], 3)));
        let mut signed = m.clone();
        signed[(1, 1)] = nqpv_linalg::c(0.25, -0.0);
        let p = resolve_detected(&signed, &[2, 0], 3);
        assert!(matches!(p, Predicate::Dense(_)));
        assert_eq!(bits(p.dense()), bits(&embed(&signed, &[2, 0], 3)));
    }

    #[test]
    fn twelve_qubit_diagonal_comparison_materialises_nothing() {
        let dim = 1usize << 12;
        let low = diagonal_assertion(&vec![0.25; dim]);
        let high = diagonal_assertion(&vec![0.75; dim]);
        let opts = LownerOptions::default();
        assert!(low.le_inf(&high, opts).unwrap().holds());
        match high.le_inf(&low, opts).unwrap() {
            Verdict::Violated(v) => {
                assert_eq!(v.index, 0);
                assert_eq!(v.margin, 0.5);
            }
            other => panic!("expected a violation, got {other:?}"),
        }
        for a in [&low, &high] {
            match &a.ops()[0] {
                Predicate::Diagonal(d) => assert!(d.dense.get().is_none()),
                other => panic!("representation changed: {other:?}"),
            }
        }
    }

    #[test]
    fn grover8_final_comparison_is_diagonal_on_both_sides() {
        let study = crate::casestudies::grover(8);
        let opts = crate::transformer::VcOptions {
            mode: study.mode,
            ..Default::default()
        };
        let outcome = crate::verifier::verify_proof_term_with(
            &study.term,
            &study.library,
            opts,
            &study.rankings,
            None,
        )
        .unwrap();
        assert!(outcome.status.verified());
        let reg = Register::new(&study.term.qubits).unwrap();
        let pre =
            Assertion::from_expr(study.term.pre.as_ref().unwrap(), &study.library, &reg).unwrap();
        assert!(pre.validate_predicates(1e-6));
        assert!(pre
            .le_inf(&outcome.computed_pre, opts.lowner)
            .unwrap()
            .holds());
        // Both sides are diagonal, and neither comparison (the one inside
        // the verify, the one above) built a dense 256×256 matrix.
        for a in [&pre, &outcome.computed_pre] {
            assert_eq!(a.len(), 1);
            match &a.ops()[0] {
                Predicate::Diagonal(d) => assert!(d.dense.get().is_none()),
                other => panic!("expected a diagonal, got {other:?}"),
            }
        }
        // The dense reference pipeline holds no diagonal.
        let small = crate::casestudies::grover(3);
        let dense = small
            .verify_with(crate::transformer::VcOptions {
                mode: small.mode,
                factor_assertions: false,
                ..Default::default()
            })
            .unwrap();
        assert!(matches!(dense.computed_pre.ops()[0], Predicate::Dense(_)));
    }

    #[test]
    fn diagonal_comparisons_record_the_diagonal_solver_path() {
        let tracer = nqpv_telemetry::Tracer::create(true);
        let opts = LownerOptions {
            tracer,
            ..LownerOptions::default()
        };
        let low = diagonal_assertion(&[0.2, 0.4]);
        let high = diagonal_assertion(&[0.3, 0.9]);
        assert!(low.le_inf(&high, opts).unwrap().holds());
        assert!(!high.le_inf(&low, opts).unwrap().holds());
        // Mixed sides go to the dense solver and record its paths.
        let dense = Assertion::from_ops(2, vec![CMat::identity(2)]).unwrap();
        assert!(low.le_inf(&dense, opts).unwrap().holds());
        let data = tracer.finish().expect("live sink");
        assert!(
            data.tallies.contains(&("solver_path", "diagonal", 2)),
            "{:?}",
            data.tallies
        );
        assert!(
            data.tallies.contains(&("solver_path", "cholesky", 1)),
            "{:?}",
            data.tallies
        );
        assert!(data.events.iter().any(|e| {
            e.args.iter().any(|(k, v)| {
                *k == "margin"
                    && matches!(v, nqpv_telemetry::ArgValue::F64(m) if (*m - 0.5).abs() < 1e-12)
            })
        }));
        // The tally feeds the obligations counter under path="diagonal".
        let diagonal_total = || {
            nqpv_telemetry::global()
                .snapshot()
                .into_iter()
                .filter(|s| s.name == "nqpv_solver_obligations_total")
                .filter(|s| s.labels.contains("\"diagonal\""))
                .map(|s| match s.value {
                    nqpv_telemetry::SampleValue::Counter(v) => v,
                    _ => 0,
                })
                .sum::<u64>()
        };
        let before = diagonal_total();
        nqpv_telemetry::record_job("verified", 1e-3, &data);
        assert_eq!(diagonal_total(), before + 2);
    }

    /// Diagonal entries for the equivalence property: edge values (signed
    /// zeros, subnormals, the `1 ± 1e-7` and `eps` boundaries, overflow,
    /// `inf`, `NaN`) and ordinary values in `[-0.2, 1.2]`.
    fn edge_or_ordinary(s: &mut u64) -> f64 {
        const EDGES: [f64; 26] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + 1e-7,
            1.0 - 1e-7,
            1.0 + 1.1e-7,
            1.0 + 1e-6,
            1.0 + 1.1e-6,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON,
            1e-7,
            -1e-7,
            -1.1e-7,
            -1e-6,
            -1.1e-6,
            0.5,
            1e300,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        if s.is_multiple_of(3) {
            (*s >> 11) as f64 / (1u64 << 53) as f64 * 1.4 - 0.2
        } else {
            EDGES[(*s >> 8) as usize % EDGES.len()]
        }
    }

    /// A comparable rendering of an `⊑_inf` outcome: the verdict with the
    /// violation's index, margin bits and witness basis index, or the
    /// error text.
    fn outcome(r: Result<Verdict, VerifError>) -> String {
        match r {
            Ok(Verdict::Holds) => "holds".into(),
            Ok(Verdict::Violated(v)) => {
                let basis = (0..v.witness.rows()).find(|&i| v.witness[(i, i)].re == 1.0);
                format!(
                    "violated #{} margin {:#x} witness {basis:?} {:?}",
                    v.index,
                    v.margin.to_bits(),
                    bits(&v.witness)
                )
            }
            Ok(Verdict::Inconclusive {
                index,
                lower,
                upper,
            }) => format!(
                "inconclusive #{index} [{:#x}, {:#x}]",
                lower.to_bits(),
                upper.to_bits()
            ),
            Err(e) => format!("error {e}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn diagonal_results_equal_the_dense_functions_on_the_materialised_matrix(
            seed in 1u64..u64::MAX,
            k in 0usize..=3,
            n_theta in 1usize..=2,
            n_psi in 1usize..=2,
        ) {
            let mut s = seed;
            let dim = 1usize << k;
            let theta: Vec<Vec<f64>> = (0..n_theta)
                .map(|_| (0..dim).map(|_| edge_or_ordinary(&mut s)).collect())
                .collect();
            // Half of the Ψ elements sit within a few eps of Θ's first
            // element, so both sides of the eps boundary come up often.
            let psi: Vec<Vec<f64>> = (0..n_psi)
                .map(|_| {
                    let near = edge_or_ordinary(&mut s).to_bits().is_multiple_of(2);
                    (0..dim)
                        .map(|i| {
                            let x = edge_or_ordinary(&mut s);
                            if near {
                                const DELTAS: [f64; 9] =
                                    [0.0, 5e-8, 9e-8, 1e-7, 1.1e-7, 1.4e-7, 2e-7, 1e-6, 1.1e-6];
                                let delta = DELTAS[(s >> 5) as usize % DELTAS.len()];
                                theta[0][i] + if s.is_multiple_of(2) { delta } else { -delta }
                            } else {
                                x
                            }
                        })
                        .collect()
                })
                .collect();
            let as_diag = |side: &[Vec<f64>]| {
                Assertion::from_predicates(
                    dim,
                    side.iter().map(|d| Predicate::from_diagonal(d.clone())).collect(),
                )
                .unwrap()
            };
            let as_dense = |side: &[Vec<f64>]| {
                Assertion::from_ops(
                    dim,
                    side.iter()
                        .map(|d| Predicate::from_diagonal(d.clone()).dense().clone())
                        .collect(),
                )
                .unwrap()
            };
            // is_predicate, at the resolve tolerance, the solver eps and 0.
            for d in theta.iter().chain(&psi) {
                let p = Predicate::from_diagonal(d.clone());
                for tol in [1e-6, nqpv_solver::DEFAULT_EPS, 0.0] {
                    proptest::prop_assert_eq!(
                        p.is_predicate(tol),
                        nqpv_linalg::is_predicate(p.dense(), tol),
                        "diag {:?} tol {}", d, tol
                    );
                }
            }
            // ⊑_inf: verdict, margin bits and witness.
            let (td, pd) = (as_diag(&theta), as_diag(&psi));
            let (tm, pm) = (as_dense(&theta), as_dense(&psi));
            let opts = LownerOptions::default();
            proptest::prop_assert_eq!(
                outcome(td.le_inf(&pd, opts)),
                outcome(tm.le_inf(&pm, opts)),
                "theta {:?} psi {:?}", theta, psi
            );
            // dense() bits: a resolved term against the dense embedding,
            // on random positions of a register of up to four qubits.
            let n = k + (s % 2) as usize;
            let mut pos: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                pos.swap(i, (s >> (i + 3)) as usize % (i + 1));
            }
            pos.truncate(k);
            let m = CMat::diag(
                &theta[0]
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let im = if (s >> i) & 7 == 0 { -0.0 } else { 0.0 };
                        nqpv_linalg::c(x, im)
                    })
                    .collect::<Vec<_>>(),
            );
            let p = resolve_detected(&m, &pos, n);
            if !p.is_factored() {
                proptest::prop_assert_eq!(bits(p.dense()), bits(&embed(&m, &pos, n)));
            }
        }
    }

    #[test]
    fn wp_init_partial_width_stays_factored_when_thin() {
        // Init on q1 of 3 qubits with post [|000⟩]: wp = I_{q1} ⊗ ⟨0|M|0⟩
        // = [|00⟩⟨00|]_{q0,q2} ⊗ I_{q1}: rank 2 of dim 8 — stays factored.
        let a = Assertion::from_predicates(
            8,
            vec![Predicate::from_factor(CMat::from_fn(8, 1, |i, _| {
                if i == 0 {
                    nqpv_linalg::cr(1.0)
                } else {
                    nqpv_linalg::Complex::ZERO
                }
            }))],
        )
        .unwrap();
        let wp = a.wp_init(&[1], 3);
        assert_eq!(wp.max_factored_rank(), Some(2));
        // Dense reference through the initialiser super-operator.
        let setter = SuperOp::initializer(1).embed(&[1], 3);
        let dense_ref = setter.apply_heisenberg(&ket("000").projector());
        assert!(wp.ops()[0].dense().approx_eq(&dense_ref, 1e-10));
    }

    #[test]
    fn sandwich_local_matches_dense_and_drops_rank() {
        // P0 on qubit 0 sandwiching [|+⟩⊗|0⟩] + [|1⟩⊗|1⟩] (rank 2): the
        // second column is annihilated, rank drops to 1.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let v = CMat::from_real(4, 2, &[s, 0.0, 0.0, 0.0, s, 0.0, 0.0, 1.0]);
        let a = Assertion::from_predicates(4, vec![Predicate::from_factor(v.clone())]).unwrap();
        let p0 = ket("0").projector();
        let out = a.sandwich_local(&p0, &[0], 2);
        assert_eq!(out.max_factored_rank(), Some(1));
        let dense_ref = conjugate_gate(&p0, &[0], 2, &v.mul(&v.adjoint()));
        assert!(out.ops()[0].dense().approx_eq(&dense_ref, 1e-9));
    }

    #[test]
    fn dedupe_collapses_equal_predicates() {
        let i = CMat::identity(2);
        let a = Assertion::from_ops(2, vec![i.clone(), i.clone(), i]).unwrap();
        assert_eq!(a.len(), 1);
        // Identical factors dedupe without materialising.
        let v = CMat::from_real(4, 1, &[0.0, 1.0, 0.0, 0.0]);
        let f = Assertion::from_predicates(
            4,
            vec![
                Predicate::from_factor(v.clone()),
                Predicate::from_factor(v.clone()),
                Predicate::from_factor(v),
            ],
        )
        .unwrap();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn le_inf_basic_directions() {
        let half = Assertion::from_ops(2, vec![CMat::identity(2).scale_re(0.5)]).unwrap();
        let one = Assertion::identity(2);
        assert!(half.le_inf(&one, LownerOptions::default()).unwrap().holds());
        assert!(!one.le_inf(&half, LownerOptions::default()).unwrap().holds());
        // {0} ⊑_inf anything.
        let zero = Assertion::zero(2);
        assert!(zero
            .le_inf(&half, LownerOptions::default())
            .unwrap()
            .holds());
    }

    #[test]
    fn le_inf_dimension_mismatch_is_an_error_not_a_panic() {
        // The factored fast path must leave mismatched dimensions to the
        // solver, which reports them as ShapeMismatch errors.
        let a = Assertion::from_predicates(
            4,
            vec![Predicate::from_factor(CMat::from_real(
                4,
                1,
                &[1.0, 0.0, 0.0, 0.0],
            ))],
        )
        .unwrap();
        let b = Assertion::from_predicates(
            8,
            vec![Predicate::from_factor(CMat::from_real(
                8,
                1,
                &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            ))],
        )
        .unwrap();
        assert!(a.le_inf(&b, LownerOptions::default()).is_err());
        assert!(crate::angelic::le_sup(&a, &b, LownerOptions::default()).is_err());
    }

    #[test]
    fn le_inf_factored_fast_path_agrees_with_dense() {
        let v1 = CMat::from_real(4, 1, &[0.0, 0.0, 0.0, 1.0]);
        let v2 = CMat::from_real(4, 2, &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        let small =
            Assertion::from_predicates(4, vec![Predicate::from_factor(v1.clone())]).unwrap();
        let big = Assertion::from_predicates(4, vec![Predicate::from_factor(v2.clone())]).unwrap();
        // [|11⟩] ⊑ [|10⟩]+[|11⟩] holds, settled by the Gram fast path.
        assert!(small
            .le_inf(&big, LownerOptions::default())
            .unwrap()
            .holds());
        // The converse is violated — the fast path must *not* certify it,
        // and the dense fallback must report the violation.
        let v = big.le_inf(&small, LownerOptions::default()).unwrap();
        assert!(!v.holds());
        // Same verdicts as the all-dense encodings.
        let small_d = Assertion::from_ops(4, vec![v1.mul(&v1.adjoint())]).unwrap();
        let big_d = Assertion::from_ops(4, vec![v2.mul(&v2.adjoint())]).unwrap();
        assert_eq!(
            small
                .le_inf(&big, LownerOptions::default())
                .unwrap()
                .holds(),
            small_d
                .le_inf(&big_d, LownerOptions::default())
                .unwrap()
                .holds()
        );
    }

    #[test]
    fn arity_and_kind_errors() {
        let lib = OperatorLibrary::with_builtins();
        let bad_arity = AssertionExpr::new(vec![OpApp::new("P0", &["q1", "q2"])]);
        assert!(matches!(
            Assertion::from_expr(&bad_arity, &lib, &reg2()),
            Err(VerifError::ArityMismatch { .. })
        ));
        let not_pred = AssertionExpr::new(vec![OpApp::new("X", &["q1"])]);
        assert!(matches!(
            Assertion::from_expr(&not_pred, &lib, &reg2()),
            Err(VerifError::Library(_))
        ));
        let unknown_q = AssertionExpr::new(vec![OpApp::new("P0", &["zz"])]);
        assert!(matches!(
            Assertion::from_expr(&unknown_q, &lib, &reg2()),
            Err(VerifError::Register(_))
        ));
    }

    #[test]
    fn validate_predicates_flags_out_of_interval() {
        let ok = Assertion::from_ops(2, vec![CMat::identity(2).scale_re(0.3)]).unwrap();
        assert!(ok.validate_predicates(1e-8));
        let bad = Assertion::from_ops(2, vec![CMat::identity(2).scale_re(1.7)]).unwrap();
        assert!(!bad.validate_predicates(1e-8));
        // Factored validation is the r×r Gram test.
        let good_f = Assertion::from_predicates(
            4,
            vec![Predicate::from_factor(CMat::from_real(
                4,
                1,
                &[0.0, 1.0, 0.0, 0.0],
            ))],
        )
        .unwrap();
        assert!(good_f.validate_predicates(1e-8));
        let big_f = Assertion::from_predicates(
            4,
            vec![Predicate::from_factor(CMat::from_real(
                4,
                1,
                &[0.0, 1.3, 0.0, 0.0],
            ))],
        )
        .unwrap();
        assert!(!big_f.validate_predicates(1e-8));
    }

    #[test]
    fn from_factor_densifies_past_the_payoff_threshold() {
        // Width 2 at dimension 2: 2·2 > 2, must densify.
        let wide = Predicate::from_factor(CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 1.0]));
        assert!(!wide.is_factored());
        // Width 1 at dimension 2: stays factored.
        let thin = Predicate::from_factor(CMat::from_real(2, 1, &[1.0, 0.0]));
        assert!(thin.is_factored());
    }
}
