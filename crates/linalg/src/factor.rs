//! Tall-skinny factor kernels for low-rank positive operators `M = V·V†`.
//!
//! The verifier's interesting predicates — Grover's target projector, code
//! spaces, RUS success projectors — are rank-`r` with `r ≪ 2ⁿ`, and the
//! weakest-precondition transformer preserves that structure:
//! `U†(VV†)U = (U†V)(U†V)†`. Keeping the `2ⁿ×r` factor `V` instead of the
//! dense `2ⁿ×2ⁿ` operator turns every `O(8ⁿ)` conjugation on the wp hot
//! path into an `O(4ⁿ·r)` GEMM (or an `O(2ⁿ·2ᵏ·r)` strided sweep for
//! `k`-local statements).
//!
//! This module provides the factor algebra the pipeline needs:
//!
//! * [`gram`] — small `r₁×r₂` Gram matrices `A†B` of tall factors;
//! * [`factor_recompress`] — rank re-truncation after factor sums (Init's
//!   `2ᵏ` Kraus branches, If/NDet combinations) via an eigendecomposition
//!   of the `r×r` Gram matrix — the tall-skinny analogue of a
//!   column-pivoted QR;
//! * [`hconcat`] — column concatenation (`VV† + WW† = [V W][V W]†`);
//! * [`embed_factor`] — the cylinder extension of a factored operator;
//! * [`detect_structure`] — rank detection on a dense PSD operator through
//!   [`pivoted_cholesky`](crate::pivoted_cholesky), used when assertions
//!   are loaded so existing corpora benefit with no syntax change; an
//!   exactly-diagonal operator that gets no factor is reported as a
//!   diagonal.

use crate::cholesky::{exact_diagonal, pivoted_cholesky_capped};
use crate::complex::Complex;
use crate::eigen::eigh;
use crate::matrix::CMat;
use crate::tensor::deposit_bits;

/// Relative eigenvalue threshold below which a Gram direction is treated
/// as numerically null during recompression. Dropping a direction with
/// Gram eigenvalue `λ` perturbs the operator `VV†` by exactly `λ` in
/// operator norm, so this sits far below every solver tolerance.
pub const FACTOR_RANK_RTOL: f64 = 1e-13;

/// Gram matrix `A†·B` of two equal-height factors, computed directly
/// (no materialised adjoint): `O(d·r₁·r₂)` for `d×r` inputs.
///
/// # Panics
///
/// Panics if the row counts differ.
pub fn gram(a: &CMat, b: &CMat) -> CMat {
    assert_eq!(a.rows(), b.rows(), "gram factor height mismatch");
    let (ra, rb) = (a.cols(), b.cols());
    let mut g = CMat::zeros(ra, rb);
    if ra == 0 || rb == 0 || a.rows() == 0 {
        return g;
    }
    // Parallelise over output rows (columns of `a`): each chunk owns a
    // disjoint band of `g` and streams the full height of both factors,
    // conjugating `a` entries on the fly (no materialised adjoint). The
    // `ra×rb` output stays cache-resident, and every `g[(i,j)]`
    // accumulates its `k` terms in ascending order inside one chunk, so
    // results are bitwise identical at every thread count.
    let shared = crate::par::SharedMut::new(g.as_mut_slice());
    crate::par::sweep(ra, a.rows() * rb, |cols| {
        for k in 0..a.rows() {
            let arow = a.row(k);
            let brow = b.row(k);
            for i in cols.clone() {
                let ac = arow[i].conj();
                if ac.is_exact_zero() {
                    continue;
                }
                // SAFETY: chunks cover disjoint `i` ranges, so the
                // reconstituted output rows never alias across threads.
                let grow = unsafe { std::slice::from_raw_parts_mut(shared.ptr().add(i * rb), rb) };
                for (gv, bv) in grow.iter_mut().zip(brow) {
                    *gv += ac * *bv;
                }
            }
        }
    });
    g
}

/// Horizontal concatenation `[A | B]` of two equal-height factors — the
/// factor of the operator sum `AA† + BB†`.
///
/// # Panics
///
/// Panics if the row counts differ.
pub fn hconcat(a: &CMat, b: &CMat) -> CMat {
    assert_eq!(a.rows(), b.rows(), "hconcat factor height mismatch");
    let (ra, rb) = (a.cols(), b.cols());
    CMat::from_fn(a.rows(), ra + rb, |i, j| {
        if j < ra {
            a[(i, j)]
        } else {
            b[(i, j - ra)]
        }
    })
}

/// Re-truncates a factor to its numerical rank while preserving the
/// operator `V·V†` (up to [`FACTOR_RANK_RTOL`]): diagonalise the `r×r`
/// Gram matrix `V†V = U·Λ·U†` and keep `W = V·U₊` for the eigenvalues
/// above threshold — `W`'s columns are orthogonal with norms `√λᵢ` and
/// `W·W† = V·V†` minus the discarded null mass. `O(d·r² + r³)`.
///
/// Factors that are already thin (zero or one column) pass through
/// untouched.
pub fn factor_recompress(v: &CMat) -> CMat {
    let r = v.cols();
    if r <= 1 {
        return v.clone();
    }
    let g = gram(v, v);
    let e = match eigh(&g) {
        Ok(e) => e,
        // A Gram matrix that fails to diagonalise carries NaN/Inf; keep
        // the factor untouched and let downstream checks surface it.
        Err(_) => return v.clone(),
    };
    let lmax = e.values.last().copied().unwrap_or(0.0).max(0.0);
    let cut = FACTOR_RANK_RTOL * lmax.max(1e-300);
    let kept: Vec<usize> = (0..r).filter(|&i| e.values[i] > cut).collect();
    if kept.len() == r {
        // Full numerical rank: recompression cannot shrink it.
        return v.clone();
    }
    // W = V · U₊  (columns in kept order).
    let mut w = CMat::zeros(v.rows(), kept.len());
    for (out_j, &src) in kept.iter().enumerate() {
        for i in 0..v.rows() {
            let mut acc = Complex::ZERO;
            for k in 0..r {
                acc += v[(i, k)] * e.vectors[(k, src)];
            }
            w[(i, out_j)] = acc;
        }
    }
    w
}

/// Cylinder extension of a factored operator: given a `2ᵏ×r` factor `W`
/// acting on register qubits `positions` (of `n`), returns the
/// `2ⁿ × r·2^{n-k}` factor of `embed(W·W†, positions, n)` — one column per
/// (original column, rest-basis-state) pair; no dense `2ⁿ×2ⁿ` matrix is
/// built.
///
/// # Panics
///
/// Panics if `W` does not act on `positions.len()` qubits or positions are
/// invalid.
pub fn embed_factor(w: &CMat, positions: &[usize], n: usize) -> CMat {
    let k = positions.len();
    assert_eq!(w.rows(), 1usize << k, "factor acts on {k} qubits");
    for (t, &p) in positions.iter().enumerate() {
        assert!(p < n, "qubit position {p} out of range for {n} qubits");
        assert!(!positions[..t].contains(&p), "duplicate qubit position {p}");
    }
    let rest: Vec<usize> = (0..n).filter(|q| !positions.contains(q)).collect();
    let n_rest = 1usize << rest.len();
    let r = w.cols();
    let mut out = CMat::zeros(1usize << n, r * n_rest);
    for rest_ix in 0..n_rest {
        let base = deposit_bits(rest_ix, &rest, n);
        for j in 0..r {
            let col = rest_ix * r + j;
            for x in 0..w.rows() {
                let val = w[(x, j)];
                if val.is_exact_zero() {
                    continue;
                }
                out[(base | deposit_bits(x, positions, n), col)] = val;
            }
        }
    }
    out
}

/// What [`detect_structure`] finds in a dense operator.
#[derive(Debug, Clone)]
pub enum Structure {
    /// `M = V·V†` with `V` no wider than the rank budget.
    Factor(CMat),
    /// `M` is exactly diagonal (see [`exact_diagonal`]) but no factor
    /// was taken (indefinite, or over the rank budget): its real diagonal.
    Diagonal(Vec<f64>),
    /// Neither: the operator stays dense.
    Dense,
}

/// Rank detection on a dense operator: attempts `M = V·V†` with `V` of
/// width equal to `M`'s numerical rank, refusing factors wider than
/// `max_rank` (the caller's payoff threshold) — the factorisation aborts
/// as soon as the rank budget is exceeded, so full-rank operators cost
/// `O(d²·max_rank)` at worst, not `O(d³)`.
///
/// Two tiers:
///
/// * an **exact-diagonal screen** (`O(d²)`): scaled identities,
///   computational-basis projectors and their differences — the dominant
///   shapes in practice — read their rank straight off the diagonal, and
///   those the rule declines come back as [`Structure::Diagonal`];
/// * a diagonal-pivoted Cholesky elimination (`O(d·r²)` Schur updates for
///   a rank-`r` input: a rank-1 projector at dimension 1024 factors in
///   microseconds, where a full eigendecomposition would take seconds),
///   followed by a residual guard `‖VV† − M‖_max ≤ tol`.
///
/// Returns [`Structure::Dense`] when neither tier applies — callers then
/// keep the dense form.
pub fn detect_structure(m: &CMat, tol: f64, max_rank: usize) -> Structure {
    if !m.is_square() {
        return Structure::Dense;
    }
    let d = m.rows();
    let stop = FACTOR_RANK_RTOL * m.max_abs().max(1e-300);
    // Tier 1: exactly diagonal operators.
    if let Some(diag) = exact_diagonal(m) {
        if diag.iter().any(|&x| x < -stop) {
            return Structure::Diagonal(diag); // indefinite
        }
        let nz: Vec<usize> = (0..d).filter(|&i| diag[i] > stop).collect();
        if nz.len() > max_rank {
            return Structure::Diagonal(diag);
        }
        let mut v = CMat::zeros(d, nz.len());
        for (j, &i) in nz.iter().enumerate() {
            v[(i, j)] = Complex::real(diag[i].sqrt());
        }
        return Structure::Factor(v);
    }
    // Tier 2: rank-capped pivoted Cholesky.
    let Some((l, perm, rank)) = pivoted_cholesky_capped(m, stop, max_rank) else {
        return Structure::Dense;
    };
    // Undo the pivot permutation: M = Pᵀ·L·L†·P, so V[perm[i]] = L[i].
    let mut v = CMat::zeros(d, rank);
    for i in 0..d {
        for j in 0..rank.min(i + 1) {
            v[(perm[i], j)] = l[(i, j)];
        }
    }
    // Residual guard: the truncated factorisation must reproduce M.
    let bound = tol * m.max_abs().max(1.0);
    for i in 0..d {
        for j in 0..d {
            let mut acc = Complex::ZERO;
            for k in 0..rank {
                acc += v[(i, k)] * v[(j, k)].conj();
            }
            if !(acc - m[(i, j)]).is_zero(bound) {
                return Structure::Dense;
            }
        }
    }
    Structure::Factor(v)
}

/// Relative gap below which two descending Gram eigenvalues are treated
/// as one degenerate cluster by [`canonical_factor`]. Far wider than the
/// numerical noise between factorings of the same operator (~1e-12), far
/// narrower than genuinely distinct spectra.
pub const CANONICAL_CLUSTER_RTOL: f64 = 1e-8;

/// A **canonical** factor of the operator `V·V†`: a function of the
/// operator alone, not of the particular factoring `V` that represents
/// it. Two factors `V`, `W` with `V·V† = W·W†` (up to numerical noise)
/// map to entry-wise nearly identical outputs, so quantised hashes of the
/// canonical form give representation-independent cache keys (see
/// `nqpv-core`'s verdict cache).
///
/// Construction (eigenbasis-phase-fixed form):
///
/// 1. Diagonalise the `r×r` Gram matrix `V†V = U·Λ·U†`; the non-null
///    eigenpairs give the spectral decomposition `V·V† = Σ λᵢ·bᵢbᵢ†`.
/// 2. Group eigenvalues into degenerate clusters
///    ([`CANONICAL_CLUSTER_RTOL`], descending order). Within a cluster
///    the eigenbasis is arbitrary — only the eigen*space* is canonical.
/// 3. Re-derive a canonical basis of each cluster subspace by projecting
///    the standard basis vectors `e₀, e₁, …` onto it in index order and
///    Gram–Schmidt-orthonormalising the survivors (column-pivoted QR of
///    the spectral projector with a fixed pivot order).
/// 4. Fix each basis vector's global phase by rotating its
///    largest-modulus entry (lowest index on near-ties) to the positive
///    real axis, and scale by `√λ̄` of the cluster.
///
/// Canonicalisation is best-effort at cluster/pivot/tie boundaries —
/// a missed identification only costs a cache hit, never correctness —
/// but exact in the common cases (projectors, scaled projectors, generic
/// non-degenerate spectra). `O(d·r² + r³)` for the eigenstage plus
/// `O(d·r)` per scanned pivot column; the scan stops after `r` accepts.
pub fn canonical_factor(v: &CMat) -> CMat {
    let d = v.rows();
    let r = v.cols();
    if r == 0 {
        return v.clone();
    }
    let g = gram(v, v);
    let e = match eigh(&g) {
        Ok(e) => e,
        // NaN/Inf factors cannot be canonicalised; hand back the input so
        // the caller still gets *a* key (just not a representation-free
        // one) and downstream checks surface the bad numbers.
        Err(_) => return v.clone(),
    };
    let lmax = e.values.last().copied().unwrap_or(0.0);
    // Zero (or NaN-poisoned) operator: canonical form is the empty factor.
    if lmax.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return CMat::zeros(d, 0);
    }
    let cut = FACTOR_RANK_RTOL * lmax;
    // Non-null eigenpairs, descending. `eigh` returns ascending order.
    let kept: Vec<usize> = (0..r).rev().filter(|&i| e.values[i] > cut).collect();
    // Orthonormal eigenbasis B = V·uᵢ/√λᵢ, one column per kept pair.
    let mut basis = CMat::zeros(d, kept.len());
    for (j, &src) in kept.iter().enumerate() {
        let s = 1.0 / e.values[src].sqrt();
        for i in 0..d {
            let mut acc = Complex::ZERO;
            for k in 0..r {
                acc += v[(i, k)] * e.vectors[(k, src)];
            }
            basis[(i, j)] = acc * Complex::real(s);
        }
    }
    let mut out = CMat::zeros(d, kept.len());
    let mut col = 0usize;
    let mut lo = 0usize;
    while lo < kept.len() {
        // Extend the cluster while the descending gap stays negligible.
        let mut hi = lo + 1;
        while hi < kept.len()
            && e.values[kept[hi - 1]] - e.values[kept[hi]] <= CANONICAL_CLUSTER_RTOL * lmax
        {
            hi += 1;
        }
        let k = hi - lo;
        let lam_mean = kept[lo..hi].iter().map(|&i| e.values[i]).sum::<f64>() / k as f64;
        let scale = Complex::real(lam_mean.sqrt());
        // Canonical orthonormal basis of the cluster subspace: project
        // e_j (j ascending) onto the subspace, orthogonalise against the
        // vectors already accepted for this cluster, keep the survivors.
        let mut accepted = 0usize;
        for j in 0..d {
            if accepted == k {
                break;
            }
            // p = B_c · (B_c† e_j); B_c† e_j is the conjugated j-th row.
            let mut p = vec![Complex::ZERO; d];
            for c_idx in lo..hi {
                let w = basis[(j, c_idx)].conj();
                if w.is_exact_zero() {
                    continue;
                }
                for (i, pi) in p.iter_mut().enumerate() {
                    *pi += basis[(i, c_idx)] * w;
                }
            }
            // Two rounds of Gram–Schmidt against this cluster's accepted
            // columns (re-orthogonalisation keeps the form stable).
            for _ in 0..2 {
                for a in (col - accepted)..col {
                    let mut dot = Complex::ZERO;
                    for i in 0..d {
                        dot += out[(i, a)].conj() * p[i];
                    }
                    // Accepted columns carry norm √λ̄; normalise the dot.
                    let dot = dot * Complex::real(1.0 / lam_mean);
                    for i in 0..d {
                        let sub = out[(i, a)] * dot;
                        p[i] -= sub;
                    }
                }
            }
            let norm2: f64 = p.iter().map(|z| z.norm_sqr()).sum();
            // Pivot threshold: components below √(rtol) of a unit vector
            // are residual noise, not a new direction.
            if norm2 <= 1e-12 {
                continue;
            }
            // Phase fix: largest-modulus entry (lowest index on ties
            // within 1e-9) rotated to the positive real axis.
            let mut best = 0usize;
            let mut best_abs = 0.0f64;
            for (i, z) in p.iter().enumerate() {
                let a = z.abs();
                if a > best_abs * (1.0 + 1e-9) {
                    best = i;
                    best_abs = a;
                }
            }
            let phase = p[best] * Complex::real(1.0 / best_abs);
            let rot = phase.conj() * Complex::real(1.0 / norm2.sqrt());
            for (i, z) in p.iter().enumerate() {
                out[(i, col)] = *z * rot * scale;
            }
            accepted += 1;
            col += 1;
        }
        // Numerically deficient pivot scans (accepted < k) simply yield a
        // narrower canonical factor; the quantised hash stays a function
        // of the operator.
        lo = hi;
    }
    if col < out.cols() {
        let trimmed = CMat::from_fn(d, col, |i, j| out[(i, j)]);
        return trimmed;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c, cr, TOL};
    use crate::matrix::CVec;
    use crate::tensor::embed;

    fn random_factor(d: usize, r: usize, seed: &mut u64) -> CMat {
        let next = move |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            (*s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        CMat::from_fn(d, r, |_, _| c(next(seed), next(seed)))
    }

    /// A Haar-ish random r×r unitary via Gram–Schmidt of a random matrix.
    fn random_unitary(r: usize, seed: &mut u64) -> CMat {
        let m = random_factor(r, r, seed);
        let mut q = CMat::zeros(r, r);
        for j in 0..r {
            let mut col: Vec<Complex> = (0..r).map(|i| m[(i, j)]).collect();
            for a in 0..j {
                let mut dot = Complex::ZERO;
                for i in 0..r {
                    dot += q[(i, a)].conj() * col[i];
                }
                for (i, ci) in col.iter_mut().enumerate() {
                    *ci -= q[(i, a)] * dot;
                }
            }
            let n = col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            for (i, ci) in col.iter().enumerate() {
                q[(i, j)] = ci.scale(1.0 / n);
            }
        }
        q
    }

    #[test]
    fn canonical_factor_is_representation_independent() {
        // V and V·Q (Q unitary) represent the same operator V·V†: their
        // canonical forms must agree entry-wise to high precision, even
        // with a degenerate (projector) spectrum.
        let mut seed = 41u64;
        for r in [1usize, 2, 3] {
            // Orthonormalise a random factor → rank-r projector (fully
            // degenerate spectrum, the hard case for canonicalisation).
            let raw = random_factor(8, r, &mut seed);
            let v = {
                let mut q = CMat::zeros(8, r);
                let big = random_unitary(8, &mut seed);
                for j in 0..r {
                    for i in 0..8 {
                        q[(i, j)] = big[(i, j)];
                    }
                }
                q
            };
            let _ = raw;
            let qmix = random_unitary(r, &mut seed);
            let w = v.mul(&qmix);
            let ca = canonical_factor(&v);
            let cb = canonical_factor(&w);
            assert_eq!(ca.cols(), cb.cols(), "rank {r}");
            assert!(
                ca.approx_eq(&cb, 1e-9),
                "canonical forms of equivalent rank-{r} factors must agree"
            );
            // And the canonical form still represents the same operator.
            assert!(ca.mul(&ca.adjoint()).approx_eq(&v.mul(&v.adjoint()), 1e-9));
        }
    }

    #[test]
    fn canonical_factor_distinct_spectra_and_phases() {
        // Non-degenerate spectrum: 2·|ψ⟩⟨ψ| + 1·|φ⟩⟨φ| built from two
        // different factor orderings/phases must canonicalise together.
        let u = random_unitary(4, &mut { 77u64 });
        let psi = u.col(0);
        let phi = u.col(1);
        let mk = |a: &CVec, sa: f64, b: &CVec, sb: f64, phase: Complex| {
            CMat::from_fn(4, 2, |i, j| {
                if j == 0 {
                    a.as_slice()[i].scale(sa) * phase
                } else {
                    b.as_slice()[i].scale(sb)
                }
            })
        };
        let s2 = 2.0f64.sqrt();
        let v = mk(&psi, s2, &phi, 1.0, Complex::ONE);
        // Swapped column order and a phase on the first column.
        let w = mk(&phi, 1.0, &psi, s2, Complex::I);
        let ca = canonical_factor(&v);
        let cb = canonical_factor(&w);
        assert!(ca.approx_eq(&cb, 1e-9), "order/phase must not matter");
        // Distinct operators must canonicalise apart.
        let other = mk(&psi, 1.3, &phi, 1.0, Complex::ONE);
        let cc = canonical_factor(&other);
        assert!(!ca.approx_eq(&cc, 1e-6));
    }

    #[test]
    fn canonical_factor_zero_and_empty() {
        let z = canonical_factor(&CMat::zeros(4, 2));
        assert_eq!(z.cols(), 0);
        let e = canonical_factor(&CMat::zeros(4, 0));
        assert_eq!(e.cols(), 0);
    }

    #[test]
    fn gram_matches_adjoint_product() {
        let mut seed = 11u64;
        let a = random_factor(8, 3, &mut seed);
        let b = random_factor(8, 2, &mut seed);
        assert!(gram(&a, &b).approx_eq(&a.adjoint().mul(&b), 1e-10));
    }

    #[test]
    fn hconcat_is_the_operator_sum_factor() {
        let mut seed = 7u64;
        let a = random_factor(4, 2, &mut seed);
        let b = random_factor(4, 1, &mut seed);
        let j = hconcat(&a, &b);
        let sum = a.mul(&a.adjoint()).add_mat(&b.mul(&b.adjoint()));
        assert!(j.mul(&j.adjoint()).approx_eq(&sum, 1e-10));
    }

    #[test]
    fn recompress_preserves_operator_and_shrinks_rank() {
        let mut seed = 23u64;
        let base = random_factor(8, 2, &mut seed);
        // Duplicate columns: true rank 2, width 4.
        let fat = hconcat(&base, &base);
        let thin = factor_recompress(&fat);
        assert!(
            thin.cols() <= 2,
            "rank must shrink to 2, got {}",
            thin.cols()
        );
        let dense_fat = fat.mul(&fat.adjoint());
        let dense_thin = thin.mul(&thin.adjoint());
        assert!(dense_thin.approx_eq(&dense_fat, 1e-9));
    }

    #[test]
    fn recompress_keeps_full_rank_factors() {
        let mut seed = 3u64;
        let v = random_factor(6, 3, &mut seed);
        let w = factor_recompress(&v);
        assert_eq!(w.cols(), 3);
        assert!(w.mul(&w.adjoint()).approx_eq(&v.mul(&v.adjoint()), 1e-9));
    }

    #[test]
    fn recompress_drops_zero_columns() {
        let v = CMat::from_fn(4, 3, |i, j| {
            if j == 1 {
                Complex::ZERO
            } else {
                cr((i + j) as f64 * 0.25 + 1.0)
            }
        });
        let w = factor_recompress(&v);
        assert!(w.cols() <= 2);
        assert!(w.mul(&w.adjoint()).approx_eq(&v.mul(&v.adjoint()), 1e-9));
    }

    #[test]
    fn embed_factor_matches_dense_embedding() {
        let mut seed = 31u64;
        for positions in [vec![0usize], vec![2], vec![0, 2], vec![2, 0]] {
            let k = positions.len();
            let w = random_factor(1 << k, 2, &mut seed);
            let n = 3;
            let v = embed_factor(&w, &positions, n);
            assert_eq!(v.cols(), 2 << (n - k));
            let dense = embed(&w.mul(&w.adjoint()), &positions, n);
            assert!(
                v.mul(&v.adjoint()).approx_eq(&dense, 1e-10),
                "positions {positions:?}"
            );
        }
    }

    #[test]
    fn embed_factor_zero_width() {
        let w = CMat::zeros(2, 0);
        let v = embed_factor(&w, &[1], 2);
        assert_eq!((v.rows(), v.cols()), (4, 0));
    }

    /// The factor [`detect_structure`] finds, if any.
    fn low_rank_factor(m: &CMat, tol: f64, max_rank: usize) -> Option<CMat> {
        match detect_structure(m, tol, max_rank) {
            Structure::Factor(v) => Some(v),
            Structure::Diagonal(_) | Structure::Dense => None,
        }
    }

    #[test]
    fn detect_structure_reports_declined_exact_diagonals() {
        // Full rank over the budget, and indefinite: diagonal, not dense.
        let id = CMat::identity(4).scale_re(0.25);
        match detect_structure(&id, 1e-8, 2) {
            Structure::Diagonal(d) => assert_eq!(d, vec![0.25; 4]),
            other => panic!("{other:?}"),
        }
        let z = CMat::diag(&[Complex::real(1.0), Complex::real(-1.0)]);
        assert!(matches!(
            detect_structure(&z, 1e-8, 2),
            Structure::Diagonal(_)
        ));
        // Within budget: a factor; off-diagonal and full rank: dense.
        let p0 = CVec::basis(4, 2).projector();
        assert!(matches!(
            detect_structure(&p0, 1e-8, 2),
            Structure::Factor(_)
        ));
        let x = CMat::from_real(2, 2, &[0.5, 0.25, 0.25, 0.5]);
        assert!(matches!(detect_structure(&x, 1e-8, 1), Structure::Dense));
    }

    #[test]
    fn low_rank_factor_detects_projector_ranks() {
        // Rank-1 projector at dimension 16.
        let marked = CVec::basis(16, 15).projector();
        let v = low_rank_factor(&marked, 1e-8, 8).expect("projector is PSD");
        assert_eq!(v.cols(), 1);
        assert!(v.mul(&v.adjoint()).approx_eq(&marked, 1e-9));
        // Rank-2 sum of orthogonal projectors.
        let two = CVec::basis(8, 1)
            .projector()
            .add_mat(&CVec::basis(8, 5).projector());
        let v2 = low_rank_factor(&two, 1e-8, 4).expect("PSD");
        assert_eq!(v2.cols(), 2);
        assert!(v2.mul(&v2.adjoint()).approx_eq(&two, 1e-9));
        // The zero operator has rank 0.
        let v0 = low_rank_factor(&CMat::zeros(4, 4), 1e-8, 2).expect("0 is PSD");
        assert_eq!(v0.cols(), 0);
        // Full-rank identity factors at full width.
        let vi = low_rank_factor(&CMat::identity(4), 1e-8, 4).expect("I is PSD");
        assert_eq!(vi.cols(), 4);
    }

    #[test]
    fn low_rank_factor_rejects_indefinite() {
        let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]); // eigenvalues ±1
        assert!(low_rank_factor(&x, 1e-8, 2).is_none());
        assert!(low_rank_factor(&CMat::zeros(2, 3), 1e-8, 2).is_none());
    }

    #[test]
    fn low_rank_factor_roundtrips_random_psd() {
        let mut seed = 99u64;
        for d in [2usize, 4, 8] {
            for r in [1usize, 2, d / 2] {
                let g = random_factor(d, r.max(1), &mut seed);
                let m = g.mul(&g.adjoint());
                let v = low_rank_factor(&m, 1e-7, d).expect("PSD by construction");
                assert!(v.cols() <= r.max(1));
                assert!(
                    v.mul(&v.adjoint())
                        .approx_eq(&m, 1e-7 * (1.0 + m.max_abs())),
                    "d={d} r={r}"
                );
            }
        }
    }

    #[test]
    fn gram_handles_empty_factors() {
        let a = CMat::zeros(4, 0);
        let g = gram(&a, &a);
        assert_eq!((g.rows(), g.cols()), (0, 0));
        assert_eq!(factor_recompress(&a).cols(), 0);
        let _ = TOL;
    }
}
