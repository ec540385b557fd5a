//! Two-outcome projective measurements and observables.
//!
//! The language of the paper branches on two-outcome projective measurements
//! `M = {P₀, P₁}` with `P₀ + P₁ = I` (Sec. 3.1). Observables (hermitian
//! operators) induce projective measurements through their spectral
//! decomposition (Sec. 2).

use crate::library::Digest;
use nqpv_linalg::{cr, eigh, CMat, CVec, EighError};
use std::fmt;

/// Errors raised while constructing measurements.
#[derive(Debug)]
pub enum MeasurementError {
    /// An operator is not a projector (`P² = P = P†`).
    NotProjector(&'static str),
    /// The completeness equation `P₀ + P₁ = I` fails.
    Incomplete,
    /// Dimension mismatch between the projectors.
    ShapeMismatch,
    /// Spectral decomposition failed.
    Eigen(EighError),
}

impl fmt::Display for MeasurementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasurementError::NotProjector(which) => {
                write!(f, "measurement operator {which} is not a projector")
            }
            MeasurementError::Incomplete => write!(f, "completeness equation P0 + P1 = I fails"),
            MeasurementError::ShapeMismatch => write!(f, "measurement projector shape mismatch"),
            MeasurementError::Eigen(e) => write!(f, "spectral decomposition failed: {e}"),
        }
    }
}

impl std::error::Error for MeasurementError {}

impl From<EighError> for MeasurementError {
    fn from(e: EighError) -> Self {
        MeasurementError::Eigen(e)
    }
}

fn is_projector(p: &CMat, tol: f64) -> bool {
    p.is_square() && p.is_hermitian(tol) && p.mul(p).approx_eq(p, tol.max(1e-8))
}

/// A two-outcome projective measurement `{P₀, P₁}` on a (sub)space.
///
/// Outcome 0 exits a `while` loop; outcome 1 runs the body
/// (paper Fig. 2).
///
/// # Examples
///
/// ```
/// use nqpv_quantum::Measurement;
/// let m = Measurement::computational();
/// assert_eq!(m.dim(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Measurement {
    p0: CMat,
    p1: CMat,
    digest: Digest,
}

impl Measurement {
    /// Creates a measurement from the two projectors.
    ///
    /// # Errors
    ///
    /// Returns [`MeasurementError`] if either operator fails the projector
    /// test or completeness fails.
    pub fn new(p0: CMat, p1: CMat) -> Result<Self, MeasurementError> {
        if p0.rows() != p1.rows() || p0.cols() != p1.cols() {
            return Err(MeasurementError::ShapeMismatch);
        }
        if !is_projector(&p0, 1e-8) {
            return Err(MeasurementError::NotProjector("P0"));
        }
        if !is_projector(&p1, 1e-8) {
            return Err(MeasurementError::NotProjector("P1"));
        }
        let sum = p0.add_mat(&p1);
        if !sum.approx_eq(&CMat::identity(p0.rows()), 1e-8) {
            return Err(MeasurementError::Incomplete);
        }
        Ok(Measurement::from_parts(p0, p1))
    }

    /// The computational-basis measurement `{|0⟩⟨0|, |1⟩⟨1|}` on one qubit
    /// (the paper's `M` / `M_{0,1}`).
    pub fn computational() -> Self {
        Measurement::from_parts(CVec::basis(2, 0).projector(), CVec::basis(2, 1).projector())
    }

    /// The `{|+⟩⟨+|, |−⟩⟨−|}` measurement (the paper's `M±`).
    pub fn plus_minus() -> Self {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let plus = CVec::new(vec![cr(s), cr(s)]);
        let minus = CVec::new(vec![cr(s), cr(-s)]);
        Measurement::from_parts(plus.projector(), minus.projector())
    }

    /// The quantum-walk boundary measurement of Sec. 5.3:
    /// `P₀ = |10⟩⟨10|` (absorb/terminate), `P₁ = I − P₀` (continue).
    pub fn qwalk_boundary() -> Self {
        let p0 = CVec::basis(4, 0b10).projector();
        let p1 = CMat::identity(4).sub_mat(&p0);
        Measurement::from_parts(p0, p1)
    }

    /// Builds the two-outcome measurement induced by a projector `P`:
    /// outcome 0 is `P`, outcome 1 is `I − P`.
    ///
    /// # Errors
    ///
    /// Returns [`MeasurementError::NotProjector`] if `P` is not a projector.
    pub fn from_projector(p: CMat) -> Result<Self, MeasurementError> {
        if !is_projector(&p, 1e-8) {
            return Err(MeasurementError::NotProjector("P0"));
        }
        let p1 = CMat::identity(p.rows()).sub_mat(&p);
        Ok(Measurement::from_parts(p, p1))
    }

    /// Builds a measurement from an observable by thresholding its spectrum:
    /// outcome 0 collects eigenspaces with eigenvalue `≤ threshold`,
    /// outcome 1 the rest. This realises the observable→measurement map of
    /// paper Sec. 2 for the two-outcome case.
    ///
    /// # Errors
    ///
    /// Propagates spectral-decomposition failures.
    pub fn from_observable(m: &CMat, threshold: f64) -> Result<Self, MeasurementError> {
        let e = eigh(m)?;
        let n = m.rows();
        let mut p0 = CMat::zeros(n, n);
        let mut p1 = CMat::zeros(n, n);
        for (k, &lam) in e.values.iter().enumerate() {
            let proj = e.vector(k).projector();
            if lam <= threshold {
                p0 += &proj;
            } else {
                p1 += &proj;
            }
        }
        Ok(Measurement::from_parts(p0, p1))
    }

    /// The measurement `{p0, p1}`, unchecked.
    fn from_parts(p0: CMat, p1: CMat) -> Measurement {
        Measurement {
            p0,
            p1,
            digest: Digest::default(),
        }
    }

    /// The [`Digest`](crate::Digest) of `P₀` and `P₁`, in that order,
    /// computed on first use.
    pub fn digest(&self) -> u128 {
        self.digest.of(&[&self.p0, &self.p1])
    }

    /// Whether [`Measurement::digest`] has been computed.
    pub(crate) fn digest_computed(&self) -> bool {
        self.digest.computed()
    }

    /// Projector for outcome 0.
    pub fn p0(&self) -> &CMat {
        &self.p0
    }

    /// Projector for outcome 1.
    pub fn p1(&self) -> &CMat {
        &self.p1
    }

    /// Projector for outcome `o ∈ {0, 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `o > 1`.
    pub fn projector(&self, o: usize) -> &CMat {
        match o {
            0 => &self.p0,
            1 => &self.p1,
            _ => panic!("two-outcome measurement has no outcome {o}"),
        }
    }

    /// Dimension of the measured space.
    pub fn dim(&self) -> usize {
        self.p0.rows()
    }

    /// Number of qubits of the measured space.
    pub fn n_qubits(&self) -> usize {
        self.dim().trailing_zeros() as usize
    }

    /// Probability of outcome `o` on state `ρ`: `tr(P_o ρ)`.
    pub fn probability(&self, o: usize, rho: &CMat) -> f64 {
        self.projector(o).trace_product(rho).re
    }

    /// Unnormalised post-measurement state for outcome `o`: `P_o ρ P_o`.
    pub fn collapse(&self, o: usize, rho: &CMat) -> CMat {
        let p = self.projector(o);
        p.mul(rho).mul(p)
    }
}

/// Expected value `tr(Mρ)` of an observable on a state (paper Sec. 2).
pub fn expectation(observable: &CMat, rho: &CMat) -> f64 {
    observable.trace_product(rho).re
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ket, maximally_mixed};
    use nqpv_linalg::TOL;

    #[test]
    fn computational_measurement_is_complete() {
        let m = Measurement::computational();
        let sum = m.p0().add_mat(m.p1());
        assert!(sum.approx_eq(&CMat::identity(2), TOL));
    }

    #[test]
    fn probabilities_on_plus_state() {
        let m = Measurement::computational();
        let rho = ket("+").projector();
        assert!((m.probability(0, &rho) - 0.5).abs() < TOL);
        assert!((m.probability(1, &rho) - 0.5).abs() < TOL);
        // collapse renormalises to |0⟩⟨0| scaled by ½
        let c0 = m.collapse(0, &rho);
        assert!(c0.approx_eq(&ket("0").projector().scale_re(0.5), TOL));
    }

    #[test]
    fn plus_minus_measurement() {
        let m = Measurement::plus_minus();
        let rho = ket("0").projector();
        assert!((m.probability(0, &rho) - 0.5).abs() < TOL);
        let rho_plus = ket("+").projector();
        assert!((m.probability(0, &rho_plus) - 1.0).abs() < TOL);
    }

    #[test]
    fn qwalk_boundary_probabilities() {
        let m = Measurement::qwalk_boundary();
        assert_eq!(m.dim(), 4);
        let rho = ket("10").projector();
        assert!((m.probability(0, &rho) - 1.0).abs() < TOL);
        let rho2 = ket("00").projector();
        assert!((m.probability(0, &rho2)).abs() < TOL);
    }

    #[test]
    fn from_observable_splits_spectrum() {
        // Z has spectrum {-1, 1}: threshold 0 puts |1⟩⟨1| in outcome 0.
        let z = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        let m = Measurement::from_observable(&z, 0.0).unwrap();
        assert!(m.p0().approx_eq(&ket("1").projector(), 1e-9));
        assert!(m.p1().approx_eq(&ket("0").projector(), 1e-9));
    }

    #[test]
    fn rejects_bad_projectors() {
        let not_proj = CMat::from_real(2, 2, &[0.5, 0.0, 0.0, 0.5]);
        assert!(matches!(
            Measurement::new(not_proj.clone(), not_proj),
            Err(MeasurementError::NotProjector(_))
        ));
        let p0 = ket("0").projector();
        assert!(matches!(
            Measurement::new(p0.clone(), p0),
            Err(MeasurementError::Incomplete)
        ));
    }

    #[test]
    fn from_projector_completes() {
        let p = ket("1").projector();
        let m = Measurement::from_projector(p.clone()).unwrap();
        assert!(m.p1().approx_eq(&ket("0").projector(), TOL));
    }

    #[test]
    fn expectation_of_observable() {
        let z = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!((expectation(&z, &ket("0").projector()) - 1.0).abs() < TOL);
        assert!((expectation(&z, &maximally_mixed(1))).abs() < TOL);
    }
}
