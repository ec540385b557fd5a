//! Cholesky factorisation and fast positive-semidefiniteness tests.
//!
//! The Löwner order `A ⊑ B` ("B − A is positive") is the single most
//! frequently decided question in the verifier: every (Imp) side condition
//! and every singleton `⊑_inf` test reduces to it (paper Sec. 6.3: "simply
//! checking if the eigenvalues of N − M are all nonnegative"). A tolerance
//! Cholesky factorisation decides it in one `O(n³/3)` pass — much cheaper
//! than a full eigendecomposition.

use crate::complex::{Complex, TOL};
use crate::matrix::CMat;

/// Attempts an exact Cholesky factorisation `A = L·L†` with `L` lower
/// triangular. Returns `None` if `A` is not (numerically) positive definite.
///
/// The strict positivity requirement makes this unsuitable for *semi*definite
/// inputs; use [`is_psd`] for those.
pub fn cholesky(a: &CMat) -> Option<CMat> {
    if !a.is_square() {
        return None;
    }
    let n = a.rows();
    let mut l = CMat::zeros(n, n);
    for j in 0..n {
        // Diagonal entry.
        let mut d = a[(j, j)].re;
        for k in 0..j {
            d -= l[(j, k)].norm_sqr();
        }
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let dj = d.sqrt();
        l[(j, j)] = Complex::real(dj);
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = s / dj;
        }
    }
    Some(l)
}

/// Decides whether a hermitian matrix is positive semidefinite within an
/// absolute tolerance `tol ≥ 0`: returns `true` iff `A + tol·I` admits a
/// Cholesky factorisation, i.e. iff `λ_min(A) > -tol` up to rounding.
///
/// The input is hermitised first so callers may pass matrices with tiny
/// anti-hermitian drift.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::{CMat, is_psd};
/// let p = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 0.0]); // |0⟩⟨0|
/// assert!(is_psd(&p, 1e-9));
/// let m = CMat::from_real(2, 2, &[-1.0, 0.0, 0.0, 1.0]);
/// assert!(!is_psd(&m, 1e-9));
/// ```
pub fn is_psd(a: &CMat, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    let n = a.rows();
    if n == 0 {
        return true;
    }
    if let Some(diag) = exact_diagonal(a) {
        return diagonal_is_psd(diag, tol);
    }
    let mut shifted = a.hermitize();
    // Scale-aware shift: tol is treated as absolute but we never shift by
    // less than machine noise relative to the matrix magnitude.
    let shift = tol.max(1e-14 * shifted.max_abs());
    for i in 0..n {
        shifted[(i, i)] += Complex::real(shift);
    }
    cholesky(&shifted).is_some()
}

/// Diagonal-pivoted Cholesky factorisation of a hermitian matrix:
/// `P·A·Pᵀ = L·L†` with `L` lower triangular, choosing the largest
/// remaining diagonal entry as pivot at every step. Returns
/// `(l, perm, rank)` where `perm[k]` is the original index pivoted into
/// position `k`; elimination stops at the numerical `rank` (remaining
/// diagonal below `rank_tol`). Returns `None` as soon as a pivot would be
/// negative beyond `-rank_tol` — the matrix is then certainly indefinite.
///
/// Unlike [`cholesky`], the pivoted form handles rank-deficient positive
/// *semi*definite matrices without a tolerance shift, and exits after
/// `O(d·r²)` work for a rank-`r` input — both common in the verifier,
/// where predicates are low-rank projectors.
pub fn pivoted_cholesky(a: &CMat, rank_tol: f64) -> Option<(CMat, Vec<usize>, usize)> {
    pivoted_cholesky_capped(a, rank_tol, usize::MAX)
}

/// [`pivoted_cholesky`] with a **rank budget**: gives up (returns `None`)
/// as soon as elimination would pass `max_rank` pivots with diagonal mass
/// remaining, bounding the Schur updates at `O(d²·max_rank)`. The rank
/// detector uses this so full-rank operators abort cheaply instead of
/// paying the full `O(d³)` factorisation.
pub(crate) fn pivoted_cholesky_capped(
    a: &CMat,
    rank_tol: f64,
    max_rank: usize,
) -> Option<(CMat, Vec<usize>, usize)> {
    if !a.is_square() {
        return None;
    }
    let d = a.rows();
    let mut w = a.hermitize();
    let mut perm: Vec<usize> = (0..d).collect();
    let mut l = CMat::zeros(d, d);
    let scale = w.max_abs();
    let stop = rank_tol.max(1e-15 * scale);
    for k in 0..d {
        // Largest remaining diagonal entry.
        let (mut p, mut best) = (k, w[(k, k)].re);
        for i in (k + 1)..d {
            let v = w[(i, i)].re;
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < -stop || !best.is_finite() {
            return None; // negative pivot: indefinite beyond tolerance
        }
        if best <= stop {
            // The pivot is the *largest* remaining diagonal, so every
            // trailing diagonal is ≤ stop here. If A is PSD its Schur
            // complement is PSD too, and Cauchy–Schwarz bounds every
            // trailing off-diagonal by √(a_ii·a_jj) ≤ stop — so anything
            // meaningfully larger (beyond elimination round-off, which is
            // O(ε·‖A‖) per update chain) certifies indefiniteness.
            let off = 10.0 * stop + 1e-12 * scale;
            for i in k..d {
                for j in k..d {
                    if i != j && w[(i, j)].abs() > off {
                        return None;
                    }
                }
            }
            return Some((l, perm, k));
        }
        if k == max_rank {
            return None; // rank budget exceeded with mass remaining
        }
        if p != k {
            swap_sym(&mut w, k, p);
            perm.swap(k, p);
            // Keep already-computed L rows consistent with the permutation.
            for j in 0..k {
                let t = l[(k, j)];
                l[(k, j)] = l[(p, j)];
                l[(p, j)] = t;
            }
        }
        let piv = best.sqrt();
        l[(k, k)] = Complex::real(piv);
        for i in (k + 1)..d {
            l[(i, k)] = w[(i, k)] / piv;
        }
        // Schur-complement update of the trailing block.
        for i in (k + 1)..d {
            for j in (k + 1)..=i {
                let upd = l[(i, k)] * l[(j, k)].conj();
                let v = w[(i, j)] - upd;
                w[(i, j)] = v;
                if i != j {
                    w[(j, i)] = v.conj();
                }
            }
        }
    }
    Some((l, perm, d))
}

/// `Some(real diagonal)` when the matrix is **exactly** diagonal with
/// real, non-NaN diagonal entries, else `None`. Shared by the PSD fast
/// paths below, the structure detector and diagonal predicates: scaled
/// identities, basis projectors and their differences — the dominant
/// shapes once the wp pipeline runs factored — are decided in `O(d²)`
/// through this instead of an `O(d³)` factorisation.
pub fn exact_diagonal(a: &CMat) -> Option<Vec<f64>> {
    let d = a.rows();
    let mut diag = Vec::with_capacity(d);
    for i in 0..d {
        for j in 0..d {
            let z = a[(i, j)];
            if i == j {
                if z.im != 0.0 || z.re.is_nan() {
                    return None;
                }
                diag.push(z.re);
            } else if !z.is_exact_zero() {
                return None;
            }
        }
    }
    Some(diag)
}

/// The PSD rule for an exactly-diagonal matrix given by its real
/// diagonal: `min dᵢ ≥ −max(tol, 1e-14·max|dᵢ|)`. The one copy of the
/// rule: [`is_psd`] and [`is_psd_pivoted`] apply it to the diagonal of
/// an exactly-diagonal input, and diagonal predicates apply it without
/// materialising a matrix, so both routes reach bitwise the same
/// decision. `max|dᵢ|` is taken as `Complex::abs`, as `CMat::max_abs`
/// takes it (the off-diagonal zeros cannot raise it).
pub fn diagonal_is_psd(diag: impl IntoIterator<Item = f64>, tol: f64) -> bool {
    let (mut min, mut max_abs) = (f64::INFINITY, 0.0f64);
    for x in diag {
        min = min.min(x);
        max_abs = max_abs.max(Complex::real(x).abs());
    }
    min >= -tol.max(1e-14 * max_abs)
}

/// Symmetric row+column swap of a hermitian working matrix.
fn swap_sym(w: &mut CMat, a: usize, b: usize) {
    let d = w.rows();
    for j in 0..d {
        let t = w[(a, j)];
        w[(a, j)] = w[(b, j)];
        w[(b, j)] = t;
    }
    for i in 0..d {
        let t = w[(i, a)];
        w[(i, a)] = w[(i, b)];
        w[(i, b)] = t;
    }
}

/// Positive-semidefiniteness within `tol` via [`pivoted_cholesky`]:
/// `true` iff `A + tol·I` admits a diagonal-pivoted factorisation.
///
/// Semantically equivalent to [`is_psd`] but rank-deficient inputs
/// terminate after the numerical rank is exhausted and clear-margin
/// indefinite inputs abort at the first negative pivot — the fast PSD
/// path used by the `⊑_inf` solver ahead of any eigenvalue iteration.
pub fn is_psd_pivoted(a: &CMat, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    let n = a.rows();
    if n == 0 {
        return true;
    }
    if let Some(diag) = exact_diagonal(a) {
        return diagonal_is_psd(diag, tol);
    }
    let mut shifted = a.hermitize();
    let shift = tol.max(1e-14 * shifted.max_abs());
    for i in 0..n {
        shifted[(i, i)] += Complex::real(shift);
    }
    pivoted_cholesky(&shifted, 1e-14 * (1.0 + shifted.max_abs())).is_some()
}

/// Decides the Löwner order `A ⊑ B` within tolerance: `B − A ⪰ -tol·I`.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::{CMat, lowner_le};
/// let half = CMat::identity(2).scale_re(0.5);
/// let id = CMat::identity(2);
/// assert!(lowner_le(&half, &id, 1e-9));
/// assert!(!lowner_le(&id, &half, 1e-9));
/// ```
pub fn lowner_le(a: &CMat, b: &CMat, tol: f64) -> bool {
    is_psd(&b.sub_mat(a), tol)
}

/// Decides whether a hermitian matrix is a *quantum predicate*, i.e.
/// `0 ⊑ M ⊑ I` within tolerance (the set `P(H_V)` of the paper, Sec. 4).
pub fn is_predicate(m: &CMat, tol: f64) -> bool {
    m.is_square()
        && m.is_hermitian(tol.max(TOL))
        && is_psd(m, tol)
        && lowner_le(m, &CMat::identity(m.rows()), tol)
}

/// Decides whether a matrix is a partial density operator: hermitian,
/// positive, and `tr ρ ≤ 1 + tol` (Selinger's convention, paper Sec. 2).
pub fn is_partial_density(rho: &CMat, tol: f64) -> bool {
    rho.is_square()
        && rho.is_hermitian(tol.max(TOL))
        && is_psd(rho, tol)
        && rho.trace_re() <= 1.0 + tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c, cr};
    use crate::eigen::eigh;

    #[test]
    fn factorises_spd() {
        let a = CMat::from_real(3, 3, &[4.0, 2.0, 0.0, 2.0, 5.0, 1.0, 0.0, 1.0, 3.0]);
        let l = cholesky(&a).expect("SPD matrix must factor");
        let rec = l.mul(&l.adjoint());
        assert!(rec.approx_eq(&a, 1e-10));
        // Lower triangular
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(l[(i, j)].is_zero(1e-12));
            }
        }
    }

    #[test]
    fn complex_spd() {
        let a = CMat::from_vec(2, 2, vec![cr(2.0), c(0.0, -0.5), c(0.0, 0.5), cr(2.0)]);
        let l = cholesky(&a).expect("complex SPD must factor");
        assert!(l.mul(&l.adjoint()).approx_eq(&a, 1e-12));
    }

    #[test]
    fn rejects_indefinite() {
        let a = CMat::from_real(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
        assert!(!is_psd(&a, 1e-9));
    }

    #[test]
    fn semidefinite_rank_deficient_passes_is_psd() {
        // |+⟩⟨+| is PSD but singular; exact Cholesky may fail, is_psd must not.
        let p = CMat::from_real(2, 2, &[0.5, 0.5, 0.5, 0.5]);
        assert!(is_psd(&p, 1e-9));
    }

    #[test]
    fn psd_agrees_with_eigenvalues_on_samples() {
        let mut seed = 99u64;
        let next = move |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            (*s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for n in [2usize, 3, 4, 6] {
            for _ in 0..20 {
                let g = CMat::from_fn(n, n, |_, _| c(next(&mut seed), next(&mut seed)));
                let h = g.add_mat(&g.adjoint()).scale_re(0.5);
                let min = eigh(&h).unwrap().min();
                let by_chol = is_psd(&h, 1e-9);
                let by_eig = min >= -1e-9;
                // Allow disagreement only in a razor-thin band around zero.
                if min.abs() > 1e-7 {
                    assert_eq!(by_chol, by_eig, "n={n}, min eig {min}");
                }
            }
        }
    }

    #[test]
    fn lowner_is_a_partial_order_on_samples() {
        let a = CMat::identity(3).scale_re(0.3);
        let b = CMat::identity(3).scale_re(0.7);
        assert!(lowner_le(&a, &b, 1e-12));
        assert!(lowner_le(&a, &a, 1e-12)); // reflexive
        assert!(!lowner_le(&b, &a, 1e-12)); // antisymmetric direction
    }

    #[test]
    fn predicate_check() {
        assert!(is_predicate(&CMat::identity(4), 1e-9));
        assert!(is_predicate(&CMat::zeros(4, 4), 1e-9));
        assert!(is_predicate(&CMat::identity(4).scale_re(0.5), 1e-9));
        assert!(!is_predicate(&CMat::identity(4).scale_re(1.5), 1e-9));
        assert!(!is_predicate(&CMat::identity(4).scale_re(-0.5), 1e-9));
    }

    #[test]
    fn partial_density_check() {
        let rho = CMat::from_real(2, 2, &[0.5, 0.0, 0.0, 0.25]);
        assert!(is_partial_density(&rho, 1e-9));
        let too_big = CMat::identity(2);
        assert!(!is_partial_density(&too_big, 1e-9)); // trace 2 > 1
    }

    #[test]
    fn diagonal_fast_path_matches_general_route() {
        // Exactly diagonal inputs (scaled identities and their
        // differences) take the O(d²) diagonal scan.
        let pos = CMat::diag(&[cr(0.5), cr(0.25), cr(1e-12)]);
        assert!(is_psd(&pos, 1e-9));
        assert!(is_psd_pivoted(&pos, 1e-9));
        let neg = CMat::diag(&[cr(0.5), cr(-0.1), cr(0.25)]);
        assert!(!is_psd(&neg, 1e-9));
        assert!(!is_psd_pivoted(&neg, 1e-9));
        // Tiny negative within tolerance still passes.
        let slack = CMat::diag(&[cr(1.0), cr(-1e-12)]);
        assert!(is_psd(&slack, 1e-9));
        assert!(is_psd_pivoted(&slack, 1e-9));
        // A single off-diagonal entry falls back to the factorisation.
        let mut off = pos.clone();
        off[(0, 1)] = cr(0.1);
        off[(1, 0)] = cr(0.1);
        assert!(is_psd(&off, 1e-9));
        let trap = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(!is_psd_pivoted(&trap, 1e-9));
    }

    #[test]
    fn non_square_is_not_psd() {
        assert!(!is_psd(&CMat::zeros(2, 3), 1e-9));
        assert!(cholesky(&CMat::zeros(2, 3)).is_none());
        assert!(!is_psd_pivoted(&CMat::zeros(2, 3), 1e-9));
        assert!(pivoted_cholesky(&CMat::zeros(2, 3), 1e-12).is_none());
    }

    #[test]
    fn pivoted_factorises_spd_and_reconstructs() {
        let a = CMat::from_real(3, 3, &[4.0, 2.0, 0.0, 2.0, 5.0, 1.0, 0.0, 1.0, 3.0]);
        let (l, perm, rank) = pivoted_cholesky(&a, 1e-12).expect("SPD must factor");
        assert_eq!(rank, 3);
        // P·A·Pᵀ = L·L†, i.e. A[perm[i]][perm[j]] = (L·L†)[i][j].
        let rec = l.mul(&l.adjoint());
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    rec[(i, j)].approx_eq(a[(perm[i], perm[j])], 1e-10),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn pivoted_handles_rank_deficient_psd() {
        // rank-1 projector on 4 dims: exact Cholesky fails, pivoted stops
        // at rank 1 and certifies PSD.
        let v = CMat::from_real(4, 1, &[0.5, 0.5, 0.5, 0.5]);
        let p = v.mul(&v.adjoint());
        let (_, _, rank) = pivoted_cholesky(&p, 1e-12).expect("projector is PSD");
        assert_eq!(rank, 1);
        assert!(is_psd_pivoted(&p, 1e-9));
        // And the zero matrix has rank 0.
        let (_, _, r0) = pivoted_cholesky(&CMat::zeros(3, 3), 1e-12).expect("0 is PSD");
        assert_eq!(r0, 0);
    }

    #[test]
    fn pivoted_rejects_indefinite_including_zero_diagonal_traps() {
        // Zero diagonal but large off-diagonal: indefinite; the unpivoted
        // loop would need the shift to notice, the pivoted test must not
        // be fooled by the empty diagonal.
        let a = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]); // eigenvalues ±1
        assert!(pivoted_cholesky(&a, 1e-12).is_none());
        assert!(!is_psd_pivoted(&a, 1e-9));
        let b = CMat::from_real(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(!is_psd_pivoted(&b, 1e-9));
    }

    #[test]
    fn pivoted_rejects_tiny_diagonal_with_dominant_off_diagonal() {
        // Regression: after the tol shift the trailing diagonals are ~0
        // while a 1e-7 off-diagonal makes λ_min ≈ -1.01e-7 — two orders
        // beyond tol. A loose off-diagonal threshold (√(stop·scale))
        // wrongly certified this PSD; the PSD-consistent O(stop) bound
        // must reject it.
        let a = CMat::from_real(3, 3, &[1.0, 0.0, 0.0, 0.0, -1e-9, 1e-7, 0.0, 1e-7, -1e-9]);
        assert!(!is_psd_pivoted(&a, 1e-9));
        let min = eigh(&a).unwrap().min();
        assert!(min < -9e-8, "counterexample must be clearly indefinite");
        // The unshifted factorisation also refuses it.
        assert!(pivoted_cholesky(&a, 1e-12).is_none());
    }

    #[test]
    fn pivoted_psd_agrees_with_eigenvalues_on_samples() {
        let mut seed = 1234u64;
        let next = move |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            (*s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for n in [2usize, 3, 4, 6, 8] {
            for _ in 0..20 {
                let g = CMat::from_fn(n, n, |_, _| c(next(&mut seed), next(&mut seed)));
                let h = g.add_mat(&g.adjoint()).scale_re(0.5);
                let min = eigh(&h).unwrap().min();
                let by_piv = is_psd_pivoted(&h, 1e-9);
                let by_eig = min >= -1e-9;
                if min.abs() > 1e-7 {
                    assert_eq!(by_piv, by_eig, "n={n}, min eig {min}");
                }
                // Shifting past the minimum must always make it PSD.
                let mut shifted = h.clone();
                for i in 0..n {
                    shifted[(i, i)] += Complex::real(min.abs() + 1e-6);
                }
                assert!(is_psd_pivoted(&shifted, 1e-9));
            }
        }
    }
}
