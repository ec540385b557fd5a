//! The `⊑_inf` / `⊑_sup` decision procedures (paper Sec. 6.3 and its
//! angelic dual).
//!
//! `Θ ⊑_inf Ψ` iff for every state `ρ`: `inf_{M∈Θ} tr(Mρ) ≤ inf_{N∈Ψ} tr(Nρ)`.
//! By Lemma 6.1 it suffices to check, for each `N ∈ Ψ`, that **no** state
//! satisfies `tr(Mρ) > tr(Nρ)` for all `M ∈ Θ`. The paper solves this with
//! one SDP per `N` (CVXPY/MOSEK, precision `ε`). We solve the *same*
//! problem through its exact minimax reformulation:
//!
//! ```text
//! v(N) = max_{ρ⪰0, trρ=1} min_{M∈Θ} tr((M−N)·ρ)      (the SDP value)
//!      = min_{w∈Δ(Θ)}     λ_max(Σ_M w_M·M − N)        (by minimax duality)
//! ```
//!
//! `Θ ⊑_inf Ψ` iff `v(N) ≤ 0` for all `N`. The dual side (exponentiated-
//! gradient descent over the simplex) produces *upper* bounds certifying
//! satisfaction; the primal side (projected supergradient ascent over
//! density matrices) produces *lower* bounds with explicit violation
//! witnesses. The singleton case `|Θ| = 1` degenerates to the eigenvalue
//! test `N − M ⪰ 0`, exactly as in the paper.
//!
//! The *angelic* order `Θ ⊑_sup Ψ` (`sup_M tr(Mρ) ≤ sup_N tr(Nρ)` for all
//! `ρ`) reduces to the **same** game with the roles swapped: per `M ∈ Θ`,
//! `v(M) = max_ρ min_{N∈Ψ} tr((M−N)·ρ) ≤ 0`. Both orders share the
//! [`game_value`] engine.

use crate::lanczos::{max_eigenpair, min_eigenpair, LanczosOptions};
use crate::primal::{max_min_expectation, PrimalOptions};
use crate::simplex::{exp_gradient_step, uniform};
use nqpv_linalg::{is_psd_pivoted, CMat, CVec};
use nqpv_telemetry::{ArgValue, Deadline, Phase, Tracer};
use std::fmt;

/// Default decision precision, mirroring the paper's user-defined `ε`.
pub const DEFAULT_EPS: f64 = 1e-7;

/// Options for the `⊑_inf` / `⊑_sup` decisions.
#[derive(Debug, Clone, Copy)]
pub struct LownerOptions {
    /// Precision `ε`: violations smaller than this are tolerated
    /// (paper Sec. 6.3 introduces the same parameter for its SDPs).
    pub eps: f64,
    /// Dual (exponentiated-gradient) iteration budget per game.
    pub max_iter: usize,
    /// Options for extreme-eigenvalue computations.
    pub lanczos: LanczosOptions,
    /// Options for the primal witness search fallback.
    pub primal: PrimalOptions,
    /// Telemetry handle: every obligation decided by [`assertion_le`] /
    /// [`assertion_le_sup`] records a solver span (decision path +
    /// margin) into it. The default is the inert tracer — a single
    /// branch, so the bench-guarded hot paths pay nothing. `Tracer` is
    /// `Copy` with a constant `Debug`, so this field changes neither the
    /// struct's ergonomics nor any `Debug`-derived cache key.
    pub tracer: Tracer,
    /// Cooperative wall-clock budget: checked before every obligation
    /// (raising [`SolverError::Timeout`]) and between dual-loop
    /// iterations inside [`game_value`]. The default never expires and,
    /// like [`LownerOptions::tracer`], renders a constant `Debug` so
    /// cache keys stay deadline-independent.
    pub deadline: Deadline,
}

impl Default for LownerOptions {
    fn default() -> Self {
        LownerOptions {
            eps: DEFAULT_EPS,
            max_iter: 400,
            lanczos: LanczosOptions::default(),
            primal: PrimalOptions::default(),
            tracer: Tracer::DISABLED,
            deadline: Deadline::NONE,
        }
    }
}

/// A concrete violation of an assertion order.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the element whose game was won by the adversary
    /// (`N ∈ Ψ` for `⊑_inf`, `M ∈ Θ` for `⊑_sup`).
    pub index: usize,
    /// A density operator witnessing the violation.
    pub witness: CMat,
    /// The certified violation margin.
    pub margin: f64,
}

/// Decision outcome.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The order holds within `ε` (every game received a dual certificate
    /// `v ≤ ε`).
    Holds,
    /// A violation witness was found.
    Violated(Violation),
    /// Neither side resolved within the iteration budget; the true value
    /// for the reported element lies in `[lower, upper]` around zero.
    Inconclusive {
        /// Index of the unresolved element.
        index: usize,
        /// Best primal lower bound on the game value.
        lower: f64,
        /// Best dual upper bound on the game value.
        upper: f64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "order relation satisfied"),
            Verdict::Violated(v) => write!(
                f,
                "order relation not satisfied (element #{}, margin {:.3e})",
                v.index, v.margin
            ),
            Verdict::Inconclusive {
                index,
                lower,
                upper,
            } => write!(
                f,
                "inconclusive for element #{index}: value in [{lower:.3e}, {upper:.3e}]"
            ),
        }
    }
}

/// Errors raised on malformed inputs.
#[derive(Debug)]
pub enum SolverError {
    /// Θ or Ψ was empty.
    EmptyAssertion(&'static str),
    /// An operator is not hermitian.
    NotHermitian {
        /// which side
        side: &'static str,
        /// index within the side
        index: usize,
    },
    /// Dimension mismatch across the operators.
    ShapeMismatch,
    /// The cooperative deadline ([`LownerOptions::deadline`]) expired
    /// before the obligations were decided.
    Timeout,
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::EmptyAssertion(side) => write!(f, "assertion {side} is empty"),
            SolverError::NotHermitian { side, index } => {
                write!(f, "operator {index} of {side} is not hermitian")
            }
            SolverError::ShapeMismatch => write!(f, "assertion operator dimensions mismatch"),
            SolverError::Timeout => write!(f, "solver deadline exceeded"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Bounds on the matrix-game value `v = max_{ρ⪰0, trρ=1} min_i tr(A_i·ρ)`
/// produced by [`game_value`].
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// Best dual upper bound (`min_w λ_max(Σ wᵢAᵢ)` over visited `w`).
    pub upper: f64,
    /// Best primal lower bound.
    pub lower: f64,
    /// The state achieving `lower`, when one was evaluated.
    pub witness: Option<CMat>,
}

impl GameOutcome {
    /// `true` when the value is certified `≤ eps`.
    pub fn certified_nonpositive(&self, eps: f64) -> bool {
        self.upper <= eps
    }

    /// `true` when a strictly positive value is witnessed (`> eps`).
    pub fn witnessed_positive(&self, eps: f64) -> bool {
        self.lower > eps
    }
}

/// Solves the matrix game `max_ρ min_i tr(A_i·ρ)` over density operators
/// to the precision the iteration budget allows. Stops early as soon as
/// the sign of the value is resolved relative to `opts.eps`.
///
/// # Panics
///
/// Panics on an empty list or non-square/mismatched matrices.
pub fn game_value(diffs: &[CMat], opts: &LownerOptions) -> GameOutcome {
    assert!(!diffs.is_empty(), "game needs at least one payoff matrix");
    let dim = diffs[0].rows();
    for a in diffs {
        assert!(a.is_square() && a.rows() == dim, "payoff shape mismatch");
    }
    let k = diffs.len();

    if k == 1 {
        // v = λ_max(A₀) exactly.
        let pair = max_eigenpair(&diffs[0], opts.lanczos);
        let witness = pair.vector.projector();
        let margin = diffs[0].trace_product(&witness).re;
        return GameOutcome {
            upper: pair.value,
            lower: margin,
            witness: Some(witness),
        };
    }

    let mut w = uniform(k);
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut best_witness: Option<CMat> = None;
    let scale = diffs.iter().map(CMat::max_abs).fold(1.0, f64::max);

    for t in 0..opts.max_iter {
        // Cooperative cancellation between dual iterations: an expired
        // budget stops refining; the caller's next obligation check
        // turns the (possibly inconclusive) outcome into a timeout.
        if opts.deadline.expired() {
            break;
        }
        // A(w) = Σ wᵢ·Aᵢ.
        let mut a = diffs[0].scale_re(w[0]);
        for i in 1..k {
            a += &diffs[i].scale_re(w[i]);
        }
        let pair = max_eigenpair(&a, opts.lanczos);
        upper = upper.min(pair.value);
        // Primal candidate from the top Ritz vector.
        let rho = pair.vector.projector();
        let margin = diffs
            .iter()
            .map(|d| d.trace_product(&rho).re)
            .fold(f64::INFINITY, f64::min);
        if margin > lower {
            lower = margin;
            best_witness = Some(rho.clone());
        }
        if upper <= opts.eps || lower > opts.eps {
            break;
        }
        // Exponentiated-gradient step; ∂λ_max/∂wᵢ = v†·Aᵢ·v.
        let grad: Vec<f64> = diffs.iter().map(|d| d.trace_product(&rho).re).collect();
        let eta = 2.0 * (1.0 + (k as f64).ln()) / (scale * ((t + 1) as f64).sqrt());
        w = exp_gradient_step(&w, &grad, eta);
    }

    if upper > opts.eps && lower <= opts.eps {
        // Unresolved by the dual loop: dedicated primal search for a witness.
        let (pval, prho) = max_min_expectation(diffs, opts.primal);
        if pval > lower {
            lower = pval;
            best_witness = Some(prho);
        }
    }
    GameOutcome {
        upper,
        lower,
        witness: best_witness,
    }
}

/// Decides `Θ ⊑_inf Ψ` within `opts.eps`
/// (`∀ρ. inf_{M∈Θ} tr(Mρ) ≤ inf_{N∈Ψ} tr(Nρ)`).
///
/// # Errors
///
/// Returns [`SolverError`] on empty sides, non-hermitian operators or
/// dimension mismatches.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::CMat;
/// use nqpv_solver::{assertion_le, LownerOptions};
///
/// // The Sec. 4.1 example: {|0⟩⟨0|, |1⟩⟨1|} ⊑_inf {I/2} holds …
/// let p0 = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 0.0]);
/// let p1 = CMat::from_real(2, 2, &[0.0, 0.0, 0.0, 1.0]);
/// let half = CMat::identity(2).scale_re(0.5);
/// let v = assertion_le(&[p0.clone(), p1], &[half.clone()], LownerOptions::default())?;
/// assert!(v.holds());
///
/// // … but the singleton {|0⟩⟨0|} ⊑_inf {I/2} does not.
/// let v2 = assertion_le(&[p0], &[half], LownerOptions::default())?;
/// assert!(!v2.holds());
/// # Ok::<(), nqpv_solver::SolverError>(())
/// ```
pub fn assertion_le(
    theta: &[CMat],
    psi: &[CMat],
    opts: LownerOptions,
) -> Result<Verdict, SolverError> {
    validate(theta, psi)?;
    for (ni, n) in psi.iter().enumerate() {
        if opts.deadline.expired() {
            return Err(SolverError::Timeout);
        }
        let mut span = opts.tracer.span(Phase::Solver, "obligation");
        if span.recording() {
            span.arg("element", ArgValue::U64(ni as u64));
        }
        // Tier-1 fast path, certifying side: v(N) ≤ λ_max(M − N) for every
        // M; the pivoted-Cholesky test is the paper's singleton eigenvalue
        // check, settled without any Lanczos iteration.
        if theta
            .iter()
            .any(|m| is_psd_pivoted(&n.sub_mat(m), opts.eps))
        {
            span.classify("solver_path", "cholesky");
            span.arg("outcome", ArgValue::Static("holds"));
            continue;
        }
        let diffs: Vec<CMat> = theta.iter().map(|m| m.sub_mat(n)).collect();
        // Tier-1 fast path, violating side: a computational-basis witness
        // with clear margin skips the matrix game entirely.
        if let Some(v) = diag_violation(&diffs, ni, opts.eps) {
            span.classify("solver_path", "diag-scan");
            span.arg("outcome", ArgValue::Static("violated"));
            span.arg("margin", ArgValue::F64(v.margin));
            return Ok(Verdict::Violated(v));
        }
        // Singleton games are one exact Lanczos eigenpair; larger ones run
        // the dual/primal iteration.
        span.classify(
            "solver_path",
            if diffs.len() == 1 { "lanczos" } else { "game" },
        );
        match resolve(game_value(&diffs, &opts), ni, &opts) {
            Verdict::Holds => {
                span.arg("outcome", ArgValue::Static("holds"));
                continue;
            }
            other => {
                record_outcome(&mut span, &other);
                return Ok(other);
            }
        }
    }
    Ok(Verdict::Holds)
}

/// Attaches the non-holding outcome (and, for violations, the certified
/// margin) to a solver span. Recording mode only — args are dropped on
/// inert spans.
fn record_outcome(span: &mut nqpv_telemetry::Span, verdict: &Verdict) {
    match verdict {
        Verdict::Holds => span.arg("outcome", ArgValue::Static("holds")),
        Verdict::Violated(v) => {
            span.arg("outcome", ArgValue::Static("violated"));
            span.arg("margin", ArgValue::F64(v.margin));
        }
        Verdict::Inconclusive { lower, upper, .. } => {
            span.arg("outcome", ArgValue::Static("inconclusive"));
            span.arg("lower", ArgValue::F64(*lower));
            span.arg("upper", ArgValue::F64(*upper));
        }
    }
}

/// Clear-margin violation scan: if some computational-basis state
/// `ρ = |i⟩⟨i|` has `min_j tr(A_j·ρ) = min_j A_j[i][i] > ε`, it witnesses
/// a positive game value exactly (no iteration needed). Returns the best
/// such witness. `O(k·d)` — negligible next to one Lanczos sweep.
fn diag_violation(diffs: &[CMat], index: usize, eps: f64) -> Option<Violation> {
    let d = diffs[0].rows();
    let mut best: Option<(usize, f64)> = None;
    for i in 0..d {
        let margin = diffs
            .iter()
            .map(|a| a[(i, i)].re)
            .fold(f64::INFINITY, f64::min);
        if margin > eps && best.is_none_or(|(_, m)| margin > m) {
            best = Some((i, margin));
        }
    }
    best.map(|(i, margin)| Violation {
        index,
        witness: CVec::basis(d, i).projector(),
        margin,
    })
}

/// Decides the angelic order `Θ ⊑_sup Ψ` within `opts.eps`
/// (`∀ρ. sup_{M∈Θ} tr(Mρ) ≤ sup_{N∈Ψ} tr(Nρ)`) — the natural order for
/// *angelic* nondeterminism (paper Sec. 7 future work).
///
/// # Errors
///
/// Returns [`SolverError`] on malformed inputs.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::CMat;
/// use nqpv_solver::{assertion_le_sup, LownerOptions};
///
/// let p0 = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 0.0]);
/// let p1 = CMat::from_real(2, 2, &[0.0, 0.0, 0.0, 1.0]);
/// let half = CMat::identity(2).scale_re(0.5);
/// // sup{tr(I/2·ρ)} = ½ ≤ sup{tr(P0ρ), tr(P1ρ)} always: holds.
/// let v = assertion_le_sup(&[half.clone()], &[p0.clone(), p1], LownerOptions::default())?;
/// assert!(v.holds());
/// // The converse fails on ρ = |0⟩⟨0| (1 > ½).
/// let v2 = assertion_le_sup(&[p0, CMat::from_real(2,2,&[0.0,0.0,0.0,1.0])], &[half], LownerOptions::default())?;
/// assert!(!v2.holds());
/// # Ok::<(), nqpv_solver::SolverError>(())
/// ```
pub fn assertion_le_sup(
    theta: &[CMat],
    psi: &[CMat],
    opts: LownerOptions,
) -> Result<Verdict, SolverError> {
    validate(theta, psi)?;
    for (mi, m) in theta.iter().enumerate() {
        if opts.deadline.expired() {
            return Err(SolverError::Timeout);
        }
        let mut span = opts.tracer.span(Phase::Solver, "obligation");
        if span.recording() {
            span.arg("element", ArgValue::U64(mi as u64));
        }
        // Vertex shortcut: if M ⊑ N for some N, the game value is ≤ 0.
        if psi.iter().any(|n| is_psd_pivoted(&n.sub_mat(m), opts.eps)) {
            span.classify("solver_path", "cholesky");
            span.arg("outcome", ArgValue::Static("holds"));
            continue;
        }
        let diffs: Vec<CMat> = psi.iter().map(|n| m.sub_mat(n)).collect();
        if let Some(v) = diag_violation(&diffs, mi, opts.eps) {
            span.classify("solver_path", "diag-scan");
            span.arg("outcome", ArgValue::Static("violated"));
            span.arg("margin", ArgValue::F64(v.margin));
            return Ok(Verdict::Violated(v));
        }
        span.classify(
            "solver_path",
            if diffs.len() == 1 { "lanczos" } else { "game" },
        );
        match resolve(game_value(&diffs, &opts), mi, &opts) {
            Verdict::Holds => {
                span.arg("outcome", ArgValue::Static("holds"));
                continue;
            }
            other => {
                record_outcome(&mut span, &other);
                return Ok(other);
            }
        }
    }
    Ok(Verdict::Holds)
}

fn resolve(outcome: GameOutcome, index: usize, opts: &LownerOptions) -> Verdict {
    if outcome.witnessed_positive(opts.eps) {
        return Verdict::Violated(Violation {
            index,
            witness: outcome
                .witness
                .expect("positive lower bound implies a recorded witness"),
            margin: outcome.lower,
        });
    }
    if outcome.certified_nonpositive(opts.eps) {
        return Verdict::Holds;
    }
    // Boundary case: treat tiny residual gaps as holding (the paper accepts
    // the same ε-level uncertainty), report anything larger honestly.
    if outcome.upper <= 10.0 * opts.eps && outcome.lower <= opts.eps {
        return Verdict::Holds;
    }
    Verdict::Inconclusive {
        index,
        lower: outcome.lower,
        upper: outcome.upper,
    }
}

fn validate(theta: &[CMat], psi: &[CMat]) -> Result<(), SolverError> {
    if theta.is_empty() {
        return Err(SolverError::EmptyAssertion("Θ"));
    }
    if psi.is_empty() {
        return Err(SolverError::EmptyAssertion("Ψ"));
    }
    let d = theta[0].rows();
    for (i, m) in theta.iter().enumerate() {
        if !m.is_square() || m.rows() != d {
            return Err(SolverError::ShapeMismatch);
        }
        if !m.is_hermitian(1e-7) {
            return Err(SolverError::NotHermitian {
                side: "Θ",
                index: i,
            });
        }
    }
    for (i, n) in psi.iter().enumerate() {
        if !n.is_square() || n.rows() != d {
            return Err(SolverError::ShapeMismatch);
        }
        if !n.is_hermitian(1e-7) {
            return Err(SolverError::NotHermitian {
                side: "Ψ",
                index: i,
            });
        }
    }
    Ok(())
}

/// A violating eigenvector surfaced by a failed Löwner comparison
/// `M ⊑ N`: a unit vector `v` with `⟨v|(N−M)|v⟩ = −margin < −ε`, i.e. the
/// pure state `ρ = |v⟩⟨v|` satisfies `tr(Mρ) − tr(Nρ) = margin > ε` and
/// refutes the comparison with an explicit state. Consumers (the
/// `nqpv-diagnose` counterexample extractor) replay exactly this state.
#[derive(Debug, Clone)]
pub struct EigenWitness {
    /// The violating unit vector.
    pub vector: CVec,
    /// The certified violation `⟨v|(M−N)|v⟩ > ε`.
    pub margin: f64,
}

/// Outcome of a witnessed singleton Löwner comparison: the boolean verdict
/// plus, on failure, the violating eigenvector (see [`EigenWitness`]).
#[derive(Debug, Clone)]
pub struct WitnessedVerdict {
    /// Whether `M ⊑ N` holds within `ε`. Agrees with the boolean APIs
    /// ([`lowner_le_eps`] / [`factored_lowner_le`]) on every input,
    /// boundary cases included.
    pub holds: bool,
    /// The violating eigenvector when `holds` is `false`. Present on
    /// every clear-margin violation; absent only when certification was
    /// *refused* without a witness clearing `ε` — sub-ε boundary cases
    /// and (for the factored path) non-finite inputs.
    pub witness: Option<EigenWitness>,
}

impl WitnessedVerdict {
    fn holding() -> Self {
        WitnessedVerdict {
            holds: true,
            witness: None,
        }
    }

    fn violated(vector: CVec, margin: f64) -> Self {
        WitnessedVerdict {
            holds: false,
            witness: Some(EigenWitness { vector, margin }),
        }
    }
}

/// Convenience wrapper: singleton Löwner comparison `M ⊑ N` within `ε`,
/// decided by the pivoted-Cholesky PSD test (rank-deficient differences —
/// the common case for projector predicates — terminate at the numerical
/// rank; clear-margin violations abort at the first negative pivot).
pub fn lowner_le_eps(m: &CMat, n: &CMat, eps: f64) -> bool {
    is_psd_pivoted(&n.sub_mat(m), eps)
}

/// Witnessed singleton Löwner comparison `M ⊑ N` within `ε`.
///
/// The certifying side is the same pivoted-Cholesky test as
/// [`lowner_le_eps`] — zero extra cost when the comparison holds. On
/// failure the violating eigenvector is extracted instead of discarded:
/// the diagonal basis-witness scan supplies a computational-basis
/// candidate, the Lanczos path (`min_eigenpair` of `N − M`) the extreme
/// one, and the better of the two is returned. The margin is evaluated
/// exactly on the returned vector, so `tr(M|v⟩⟨v|) − tr(N|v⟩⟨v|) = margin`
/// holds by construction, never just up to iteration tolerance.
pub fn lowner_le_witnessed(m: &CMat, n: &CMat, eps: f64) -> WitnessedVerdict {
    let diff = n.sub_mat(m);
    if is_psd_pivoted(&diff, eps) {
        return WitnessedVerdict::holding();
    }
    let d = diff.rows();
    // Basis-witness scan: the most-negative diagonal entry of N − M.
    let mut best: Option<(CVec, f64)> = None;
    for i in 0..d {
        let margin = -diff[(i, i)].re;
        if margin > eps && best.as_ref().is_none_or(|(_, b)| margin > *b) {
            best = Some((CVec::basis(d, i), margin));
        }
    }
    // Lanczos path: the extreme (most-negative) eigenpair of N − M.
    let pair = min_eigenpair(&diff, LanczosOptions::default());
    let v = pair.vector.normalized();
    let margin = -diff.trace_product(&v.projector()).re;
    if margin > eps && best.as_ref().is_none_or(|(_, b)| margin > *b) {
        best = Some((v, margin));
    }
    match best {
        Some((vector, margin)) => WitnessedVerdict::violated(vector, margin),
        // The pivoted test refused to certify but no witness clears ε:
        // a boundary case. Stay consistent with `lowner_le_eps` (and the
        // factored twin): refuse to certify, carry no witness.
        None => WitnessedVerdict {
            holds: false,
            witness: None,
        },
    }
}

/// Rank-aware Löwner comparison on **factored** operators: decides
/// `Vm·Vm† ⊑ Vn·Vn†` within `ε` through an `(r_m+r_n)`-dimensional Gram
/// eigenproblem, never materialising either `d×d` operator.
///
/// The difference `D = VnVn† − VmVm†` vanishes on the orthogonal
/// complement of `span[Vn | Vm]`, so `D ⪰ −ε·I` iff its compression onto
/// an orthonormal basis `Q` of that span is. With `J = [Vn | Vm]`,
/// `G = J†J = U·Λ·U†` and `Q = J·U₊·Λ₊^{-1/2}`, the compressed difference
/// is `S = A·A† − B·B†` where `A = Λ₊^{-1/2}·U₊†·(J†Vn)` and `B` likewise
/// for `Vm` — and `J†Vn`/`J†Vm` are just the column blocks of `G`. Total
/// cost `O(d·(r_m+r_n)²)` plus small-matrix eigenproblems, against the
/// `O(d³)` dense pivoted-Cholesky route this fast path runs ahead of.
///
/// # Panics
///
/// Panics if the factor heights differ.
pub fn factored_lowner_le(vm: &CMat, vn: &CMat, eps: f64) -> bool {
    factored_lowner_le_witnessed(vm, vn, eps).holds
}

/// Witnessed variant of [`factored_lowner_le`]: on failure, the violating
/// eigenvector of the compressed difference is mapped back to the full
/// space (`x = Q·w` with `Q = J·U₊·Λ₊^{-1/2}` — one tall-skinny GEMV, no
/// `d×d` operator materialised) and returned alongside the exactly
/// re-evaluated margin. Non-finite factors refuse to certify and carry no
/// witness (there is no meaningful state to report).
///
/// # Panics
///
/// Panics if the factor heights differ.
pub fn factored_lowner_le_witnessed(vm: &CMat, vn: &CMat, eps: f64) -> WitnessedVerdict {
    assert_eq!(vm.rows(), vn.rows(), "factor height mismatch");
    let (rn, rm) = (vn.cols(), vm.cols());
    let m_tot = rn + rm;
    if m_tot == 0 {
        return WitnessedVerdict::holding(); // 0 ⊑ 0
    }
    let j = nqpv_linalg::hconcat(vn, vm);
    let g = nqpv_linalg::gram(&j, &j);
    let Ok(e) = nqpv_linalg::eigh(&g) else {
        // NaN/Inf factors: refuse to certify.
        return WitnessedVerdict {
            holds: false,
            witness: None,
        };
    };
    let lmax = e.values.last().copied().unwrap_or(0.0).max(0.0);
    let cut = 1e-14 * lmax.max(1e-300);
    let kept: Vec<usize> = (0..m_tot).filter(|&i| e.values[i] > cut).collect();
    if kept.is_empty() {
        return WitnessedVerdict::holding(); // both operators are numerically zero
    }
    let p = kept.len();
    // A = Λ₊^{-1/2}·U₊†·G[:, 0..rn], B = Λ₊^{-1/2}·U₊†·G[:, rn..].
    let mut a = CMat::zeros(p, rn);
    let mut b = CMat::zeros(p, rm);
    for (row, &src) in kept.iter().enumerate() {
        let inv_sqrt = 1.0 / e.values[src].sqrt();
        for col in 0..m_tot {
            let mut acc = nqpv_linalg::Complex::ZERO;
            for t in 0..m_tot {
                acc += e.vectors[(t, src)].conj() * g[(t, col)];
            }
            let val = acc.scale(inv_sqrt);
            if col < rn {
                a[(row, col)] = val;
            } else {
                b[(row, col - rn)] = val;
            }
        }
    }
    let s = a.mul(&a.adjoint()).sub_mat(&b.mul(&b.adjoint()));
    let Ok(es) = nqpv_linalg::eigh(&s) else {
        return WitnessedVerdict {
            holds: false,
            witness: None,
        };
    };
    let (mut min_idx, mut min_val) = (0usize, f64::INFINITY);
    for (i, &v) in es.values.iter().enumerate() {
        if v < min_val {
            min_val = v;
            min_idx = i;
        }
    }
    if min_val >= -eps {
        return WitnessedVerdict::holding();
    }
    // Map the compressed eigenvector w back through Q = J·U₊·Λ₊^{-1/2}:
    // x = J·y with y[t] = Σ_row U[t, src_row]·λ_row^{-1/2}·w[row].
    let mut y = CVec::zeros(m_tot);
    for (row, &src) in kept.iter().enumerate() {
        let w_row = es.vectors[(row, min_idx)];
        let inv_sqrt = 1.0 / e.values[src].sqrt();
        for t in 0..m_tot {
            y.as_mut_slice()[t] += (e.vectors[(t, src)] * w_row).scale(inv_sqrt);
        }
    }
    let x = j.mul_vec(&y).normalized();
    // Exact margin on the reconstructed state: tr(M|x⟩⟨x|) − tr(N|x⟩⟨x|)
    // = |Vm†x|² − |Vn†x|².
    let margin = gate_energy(vm, &x) - gate_energy(vn, &x);
    if margin > eps {
        WitnessedVerdict::violated(x, margin)
    } else {
        // Reconstruction noise ate the sub-ε violation: stay honest and
        // report the boolean verdict without a witness.
        WitnessedVerdict {
            holds: false,
            witness: None,
        }
    }
}

/// `‖V†x‖² = tr(VV†·|x⟩⟨x|)` without materialising `V·V†`.
fn gate_energy(v: &CMat, x: &CVec) -> f64 {
    let d = v.rows();
    let mut acc = 0.0f64;
    for jcol in 0..v.cols() {
        let mut dotp = nqpv_linalg::Complex::ZERO;
        for i in 0..d {
            dotp += v[(i, jcol)].conj() * x.as_slice()[i];
        }
        acc += dotp.re * dotp.re + dotp.im * dotp.im;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_linalg::{c, CVec};

    fn p0() -> CMat {
        CVec::basis(2, 0).projector()
    }

    fn p1() -> CMat {
        CVec::basis(2, 1).projector()
    }

    fn half() -> CMat {
        CMat::identity(2).scale_re(0.5)
    }

    #[test]
    fn paper_sec_4_1_counterexample_direction() {
        // {P0, P1} ⊑_inf {I/2} holds…
        let v = assertion_le(&[p0(), p1()], &[half()], LownerOptions::default()).unwrap();
        assert!(v.holds(), "{v}");
        // …while {I/2} ⊑_inf {P0} fails on ρ = |1⟩⟨1| (½ > 0).
        let v2 = assertion_le(&[half()], &[p0()], LownerOptions::default()).unwrap();
        match v2 {
            Verdict::Violated(viol) => {
                assert!(viol.margin > 0.4);
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn singleton_cases_match_cholesky() {
        let v = assertion_le(&[half()], &[CMat::identity(2)], LownerOptions::default()).unwrap();
        assert!(v.holds());
        let v2 = assertion_le(&[CMat::identity(2)], &[half()], LownerOptions::default()).unwrap();
        assert!(!v2.holds());
        assert!(lowner_le_eps(&half(), &CMat::identity(2), 1e-9));
    }

    #[test]
    fn violation_witness_is_a_valid_state_with_true_margin() {
        let v = assertion_le(&[CMat::identity(2)], &[half()], LownerOptions::default()).unwrap();
        match v {
            Verdict::Violated(viol) => {
                assert!(nqpv_linalg::is_partial_density(&viol.witness, 1e-7));
                let margin = CMat::identity(2)
                    .sub_mat(&half())
                    .trace_product(&viol.witness)
                    .re;
                assert!((margin - viol.margin).abs() < 1e-6);
                assert!(margin > 0.4); // true value 1/2
            }
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn multi_element_dual_certificate() {
        // Θ = {P0, P1}, N = I/2 + δ·I still holds.
        let n = CMat::identity(2).scale_re(0.55);
        let v = assertion_le(&[p0(), p1()], &[n], LownerOptions::default()).unwrap();
        assert!(v.holds(), "{v}");
        // But N = I/2 − δ·I is violated (ρ = I/2 gives min = 1/2 > 0.45).
        let n2 = CMat::identity(2).scale_re(0.45);
        let v2 = assertion_le(&[p0(), p1()], &[n2], LownerOptions::default()).unwrap();
        match v2 {
            Verdict::Violated(viol) => assert!(viol.margin > 0.02),
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn multiple_n_all_must_hold() {
        let theta = [p0(), p1()];
        let v = assertion_le(
            &theta,
            &[half(), CMat::identity(2)],
            LownerOptions::default(),
        )
        .unwrap();
        assert!(v.holds());
        let v2 = assertion_le(
            &theta,
            &[half(), CMat::zeros(2, 2)],
            LownerOptions::default(),
        )
        .unwrap();
        match v2 {
            Verdict::Violated(viol) => assert_eq!(viol.index, 1),
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn reflexivity_and_subset_monotonicity() {
        let theta = [p0(), half()];
        let v = assertion_le(&theta, &theta, LownerOptions::default()).unwrap();
        assert!(v.holds());
        let bigger = [p0(), half(), p1()];
        let v2 = assertion_le(&bigger, &theta, LownerOptions::default()).unwrap();
        assert!(v2.holds());
    }

    #[test]
    fn sup_order_basic_directions() {
        // {I/2} ⊑_sup {P0, P1}: sup rhs ≥ max(tr P0ρ, tr P1ρ) ≥ ½trρ. Holds.
        let v = assertion_le_sup(&[half()], &[p0(), p1()], LownerOptions::default()).unwrap();
        assert!(v.holds(), "{v}");
        // {P0, P1} ⊑_sup {I/2} fails: on |0⟩⟨0| the lhs sup is 1 > ½.
        let v2 = assertion_le_sup(&[p0(), p1()], &[half()], LownerOptions::default()).unwrap();
        match v2 {
            Verdict::Violated(viol) => assert!(viol.margin > 0.4),
            other => panic!("expected violation, got {other}"),
        }
        // Reflexivity.
        let theta = [p0(), half()];
        assert!(assertion_le_sup(&theta, &theta, LownerOptions::default())
            .unwrap()
            .holds());
        // Enlarging Ψ preserves ⊑_sup.
        assert!(
            assertion_le_sup(&[half()], &[p0(), p1(), half()], LownerOptions::default())
                .unwrap()
                .holds()
        );
    }

    #[test]
    fn sup_and_inf_differ_on_the_same_sets() {
        // Θ = {P0, P1}, Ψ = {I/2}:
        //   inf order holds (min ≤ ½) but sup order fails (max can be 1).
        let theta = [p0(), p1()];
        let psi = [half()];
        assert!(assertion_le(&theta, &psi, LownerOptions::default())
            .unwrap()
            .holds());
        assert!(!assertion_le_sup(&theta, &psi, LownerOptions::default())
            .unwrap()
            .holds());
    }

    #[test]
    fn game_value_exact_on_known_instances() {
        // v for {P0, P1} (no shift): max_ρ min(tr P0ρ, tr P1ρ) = ½.
        let out = game_value(
            &[p0(), p1()],
            &LownerOptions {
                eps: 1e-12,
                ..LownerOptions::default()
            },
        );
        assert!(out.lower <= 0.5 + 1e-6);
        assert!(out.upper >= 0.5 - 1e-6);
        assert!((out.lower - 0.5).abs() < 1e-3 || (out.upper - 0.5).abs() < 1e-3);
        // Singleton: v = λ_max exactly, upper == lower.
        let z = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let out2 = game_value(&[z], &LownerOptions::default());
        assert!((out2.upper - 1.0).abs() < 1e-9);
        assert!((out2.lower - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_and_primal_agree_on_random_instances() {
        let mut seed = 0xC0FFEEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for trial in 0..25 {
            let rand_herm = |next: &mut dyn FnMut() -> f64| {
                let g = CMat::from_fn(2, 2, |_, _| c(next(), next()));
                g.add_mat(&g.adjoint()).scale_re(0.25)
            };
            let theta = [rand_herm(&mut next), rand_herm(&mut next)];
            let psi = [rand_herm(&mut next)];
            let verdict = assertion_le(&theta, &psi, LownerOptions::default()).unwrap();
            // Brute force over a Bloch-sphere grid + the mixed state.
            let mut vmax = f64::NEG_INFINITY;
            let steps = 40;
            for a in 0..=steps {
                for b in 0..=(4 * steps) {
                    let th = std::f64::consts::PI * a as f64 / steps as f64;
                    let ph = std::f64::consts::PI * b as f64 / (2 * steps) as f64;
                    let psi_v = CVec::new(vec![
                        c((th / 2.0).cos(), 0.0),
                        c((th / 2.0).sin() * ph.cos(), (th / 2.0).sin() * ph.sin()),
                    ]);
                    let rho = psi_v.projector();
                    let val = theta
                        .iter()
                        .map(|m| m.sub_mat(&psi[0]).trace_product(&rho).re)
                        .fold(f64::INFINITY, f64::min);
                    vmax = vmax.max(val);
                }
            }
            let mm = CMat::identity(2).scale_re(0.5);
            let val_mm = theta
                .iter()
                .map(|m| m.sub_mat(&psi[0]).trace_product(&mm).re)
                .fold(f64::INFINITY, f64::min);
            vmax = vmax.max(val_mm);
            match verdict {
                Verdict::Holds => assert!(
                    vmax <= 1e-3,
                    "trial {trial}: solver says holds but grid found v ≈ {vmax}"
                ),
                Verdict::Violated(_) => assert!(
                    vmax >= -1e-3,
                    "trial {trial}: solver says violated but grid max is {vmax}"
                ),
                Verdict::Inconclusive { lower, upper, .. } => {
                    assert!(lower <= vmax + 1e-3 && vmax <= upper + 1e-3);
                }
            }
        }
    }

    #[test]
    fn diag_fast_path_picks_best_basis_witness() {
        // Θ = {diag(0.9, 0.2)}, Ψ = {0}: |0⟩⟨0| witnesses margin 0.9
        // without any game iteration.
        let m = CMat::from_real(2, 2, &[0.9, 0.0, 0.0, 0.2]);
        let v = assertion_le(&[m], &[CMat::zeros(2, 2)], LownerOptions::default()).unwrap();
        match v {
            Verdict::Violated(viol) => {
                assert!((viol.margin - 0.9).abs() < 1e-12);
                assert!(viol
                    .witness
                    .approx_eq(&CVec::basis(2, 0).projector(), 1e-12));
            }
            other => panic!("expected violation, got {other}"),
        }
        // Off-diagonal violations still go through the game: X vs 0 has
        // zero diagonal but λ_max = 1.
        let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let v2 = assertion_le(&[x], &[CMat::zeros(2, 2)], LownerOptions::default()).unwrap();
        match v2 {
            Verdict::Violated(viol) => assert!(viol.margin > 0.9),
            other => panic!("expected violation, got {other}"),
        }
    }

    #[test]
    fn factored_fast_path_agrees_with_dense_on_projectors() {
        // |1⟩⟨1| ⊑ I (factor of I is I itself) and the strict converse fails.
        let v1 = CMat::from_real(4, 1, &[0.0, 1.0, 0.0, 0.0]);
        let vi = CMat::identity(4);
        assert!(factored_lowner_le(&v1, &vi, 1e-9));
        assert!(!factored_lowner_le(&vi, &v1, 1e-9));
        // Reflexivity, including through a different factor of the same
        // operator (V vs V·unitary-phase).
        assert!(factored_lowner_le(&v1, &v1, 1e-12));
        let v1_phase = v1.scale(c(0.0, 1.0));
        assert!(factored_lowner_le(&v1, &v1_phase, 1e-12));
        assert!(factored_lowner_le(&v1_phase, &v1, 1e-12));
        // Disjoint rank-1 projectors are incomparable.
        let v0 = CMat::from_real(4, 1, &[1.0, 0.0, 0.0, 0.0]);
        assert!(!factored_lowner_le(&v0, &v1, 1e-9));
        // Zero-width factors: 0 ⊑ anything, and I ⋢ 0.
        let empty = CMat::zeros(4, 0);
        assert!(factored_lowner_le(&empty, &v1, 1e-9));
        assert!(factored_lowner_le(&empty, &empty, 1e-9));
        assert!(!factored_lowner_le(&vi, &empty, 1e-9));
    }

    #[test]
    fn factored_fast_path_agrees_with_dense_on_random_factors() {
        let mut seed = 0xFACEDu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for trial in 0..40 {
            let d = 8usize;
            let rm = 1 + trial % 3;
            let rn = 1 + (trial / 3) % 3;
            let vm = CMat::from_fn(d, rm, |_, _| c(next() * 0.5, next() * 0.5));
            let vn = CMat::from_fn(d, rn, |_, _| c(next() * 0.5, next() * 0.5));
            let dense_m = vm.mul(&vm.adjoint());
            let dense_n = vn.mul(&vn.adjoint());
            let diff = dense_n.sub_mat(&dense_m);
            let min = nqpv_linalg::eigh(&diff).unwrap().min();
            // Only compare away from the tolerance boundary.
            if min.abs() > 1e-7 {
                assert_eq!(
                    factored_lowner_le(&vm, &vn, 1e-9),
                    min >= -1e-9,
                    "trial {trial}: min eig {min}"
                );
                assert_eq!(
                    factored_lowner_le(&vm, &vn, 1e-9),
                    lowner_le_eps(&dense_m, &dense_n, 1e-9),
                    "trial {trial}: fast path disagrees with pivoted Cholesky"
                );
            }
            // A guaranteed-holding instance: M ⊑ M + WW†.
            let w = CMat::from_fn(d, 1, |_, _| c(next(), next()));
            let vn_sup = nqpv_linalg::hconcat(&vm, &w);
            assert!(factored_lowner_le(&vm, &vn_sup, 1e-9), "trial {trial}");
        }
    }

    #[test]
    fn witnessed_singleton_comparison_surfaces_the_eigenvector() {
        // Pp ⋢ P1: the most-negative eigenvector of P1 − Pp violates with
        // margin 1/√2 (eigenvalues of P1 − Pp are ±1/√2), strictly better
        // than the best basis witness (margin ½ on |0⟩).
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let pp = CMat::from_real(2, 2, &[0.5, 0.5, 0.5, 0.5]);
        let v = lowner_le_witnessed(&pp, &p1(), 1e-9);
        assert!(!v.holds);
        let w = v.witness.expect("violation carries a witness");
        assert!((w.margin - s).abs() < 1e-7, "margin {}", w.margin);
        // The margin is exact on the returned vector.
        let rho = w.vector.projector();
        let exact = pp.sub_mat(&p1()).trace_product(&rho).re;
        assert!((exact - w.margin).abs() < 1e-12);
        // Holding comparisons stay witness-free and agree with the bool API.
        let hold = lowner_le_witnessed(&half(), &CMat::identity(2), 1e-9);
        assert!(hold.holds && hold.witness.is_none());
        assert!(lowner_le_eps(&half(), &CMat::identity(2), 1e-9));
    }

    #[test]
    fn witnessed_comparison_prefers_the_basis_scan_when_it_wins() {
        // diag(0.9, 0.2) vs 0: the basis witness |0⟩ has the extreme
        // margin already; the witnessed path must report it.
        let m = CMat::from_real(2, 2, &[0.9, 0.0, 0.0, 0.2]);
        let v = lowner_le_witnessed(&m, &CMat::zeros(2, 2), 1e-9);
        let w = v.witness.expect("violated");
        assert!((w.margin - 0.9).abs() < 1e-7);
        assert!(w.vector.projector().approx_eq(&p0(), 1e-6));
    }

    #[test]
    fn witnessed_factored_comparison_reconstructs_a_full_space_witness() {
        // [|11⟩] ⋢ [|10⟩]: the witness must be |11⟩ with margin 1, mapped
        // back from the compressed Gram eigenproblem.
        let v11 = CMat::from_real(4, 1, &[0.0, 0.0, 0.0, 1.0]);
        let v10 = CMat::from_real(4, 1, &[0.0, 0.0, 1.0, 0.0]);
        let out = factored_lowner_le_witnessed(&v11, &v10, 1e-9);
        assert!(!out.holds);
        let w = out.witness.expect("violation carries a witness");
        assert!((w.margin - 1.0).abs() < 1e-9);
        assert!(w
            .vector
            .projector()
            .approx_eq(&CVec::basis(4, 3).projector(), 1e-9));
        // The bool wrapper agrees both ways.
        assert!(!factored_lowner_le(&v11, &v10, 1e-9));
        assert!(factored_lowner_le_witnessed(&v11, &v11, 1e-12).holds);
        // Random factors: witnessed margins are exact on the returned state.
        let mut seed = 0xBADCAFEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for trial in 0..20 {
            let vm = CMat::from_fn(8, 2, |_, _| c(next() * 0.5, next() * 0.5));
            let vn = CMat::from_fn(8, 1, |_, _| c(next() * 0.3, next() * 0.3));
            let out = factored_lowner_le_witnessed(&vm, &vn, 1e-9);
            assert_eq!(out.holds, factored_lowner_le(&vm, &vn, 1e-9), "{trial}");
            if let Some(w) = out.witness {
                let rho = w.vector.projector();
                let dense_gap = vm
                    .mul(&vm.adjoint())
                    .sub_mat(&vn.mul(&vn.adjoint()))
                    .trace_product(&rho)
                    .re;
                assert!(
                    (dense_gap - w.margin).abs() < 1e-9,
                    "trial {trial}: margin {} vs dense {dense_gap}",
                    w.margin
                );
                assert!(w.margin > 1e-9);
            }
        }
    }

    #[test]
    fn obligations_record_solver_spans_and_path_tallies() {
        let tracer = Tracer::create(true);
        let opts = LownerOptions {
            tracer,
            ..LownerOptions::default()
        };
        // One obligation per element of Ψ: k=2 game, then a Cholesky
        // certificate, then a diag-scan violation.
        assertion_le(&[p0(), p1()], &[half()], opts).unwrap();
        assertion_le(&[half()], &[CMat::identity(2)], opts).unwrap();
        let m = CMat::from_real(2, 2, &[0.9, 0.0, 0.0, 0.2]);
        assertion_le(&[m], &[CMat::zeros(2, 2)], opts).unwrap();
        let data = tracer.finish().expect("live sink");
        assert_eq!(data.phases.get(Phase::Solver).0, 3);
        assert_eq!(data.events.len(), 3);
        let paths: Vec<&str> = data
            .tallies
            .iter()
            .filter(|(k, _, _)| *k == "solver_path")
            .map(|&(_, v, _)| v)
            .collect();
        assert!(paths.contains(&"game"), "{paths:?}");
        assert!(paths.contains(&"cholesky"), "{paths:?}");
        assert!(paths.contains(&"diag-scan"), "{paths:?}");
        // The violated span carries its margin argument.
        assert!(data.events.iter().any(|e| {
            e.args
                .iter()
                .any(|(k, v)| *k == "margin" && matches!(v, ArgValue::F64(m) if *m > 0.8))
        }));
        // Options with a tracer render a stable Debug (cache keys hash
        // option structs through Debug).
        assert_eq!(
            format!("{:?}", opts).replace("Tracer", "T"),
            format!("{:?}", LownerOptions::default()).replace("Tracer", "T")
        );
    }

    #[test]
    fn expired_deadline_times_out_obligations() {
        let opts = LownerOptions {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..LownerOptions::default()
        };
        assert!(matches!(
            assertion_le(&[p0()], &[half()], opts),
            Err(SolverError::Timeout)
        ));
        assert!(matches!(
            assertion_le_sup(&[half()], &[p0()], opts),
            Err(SolverError::Timeout)
        ));
        // An unarmed deadline never fires.
        assert!(assertion_le(&[p0(), p1()], &[half()], LownerOptions::default()).is_ok());
    }

    #[test]
    fn input_validation() {
        assert!(matches!(
            assertion_le(&[], &[half()], LownerOptions::default()),
            Err(SolverError::EmptyAssertion("Θ"))
        ));
        assert!(matches!(
            assertion_le(&[half()], &[], LownerOptions::default()),
            Err(SolverError::EmptyAssertion("Ψ"))
        ));
        let non_herm = CMat::from_real(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        assert!(matches!(
            assertion_le(
                std::slice::from_ref(&non_herm),
                &[half()],
                LownerOptions::default()
            ),
            Err(SolverError::NotHermitian { .. })
        ));
        assert!(matches!(
            assertion_le_sup(&[half()], &[non_herm], LownerOptions::default()),
            Err(SolverError::NotHermitian { .. })
        ));
        let wrong_dim = CMat::identity(4);
        assert!(matches!(
            assertion_le(&[half()], &[wrong_dim], LownerOptions::default()),
            Err(SolverError::ShapeMismatch)
        ));
    }
}
