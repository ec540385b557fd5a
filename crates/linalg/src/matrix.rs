//! Dense complex matrices and vectors.
//!
//! [`CMat`] is a row-major dense matrix over [`Complex`]; [`CVec`] is a dense
//! complex vector. These are the workhorses of the whole verification stack:
//! predicates, density operators, unitaries and Kraus operators are all
//! `CMat`s, pure states are `CVec`s.

use crate::complex::{cr, Complex, TOL};
use crate::par::{Isa, SharedMut};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Range, Sub};

/// Inner-dimension tile for [`CMat::mul`]: a 64-row block of the right
/// operand (64·cols complex entries, 1 KiB per 64 columns) stays
/// cache-resident while every output row in the chunk streams over it.
const MUL_BLOCK_K: usize = 64;

/// Rows of `A†A` per panel of [`CMat::is_unitary`]: the panel
/// (`32·cols` entries, 128 KiB at 256 columns) stays cache-resident while
/// every row of `A` streams over it once, and a failing entry stops the
/// check after at most one panel more than it needs.
const GRAM_PANEL: usize = 32;

/// A dense complex column vector.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::CVec;
/// let v = CVec::basis(4, 2);
/// assert_eq!(v.dim(), 4);
/// assert!((v.norm() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CVec {
    data: Vec<Complex>,
}

impl CVec {
    /// Creates a vector from raw components.
    pub fn new(data: Vec<Complex>) -> Self {
        CVec { data }
    }

    /// Creates a zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        CVec {
            data: vec![Complex::ZERO; n],
        }
    }

    /// Creates the `k`-th computational basis vector of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n`.
    pub fn basis(n: usize, k: usize) -> Self {
        assert!(k < n, "basis index {k} out of range for dimension {n}");
        let mut v = CVec::zeros(n);
        v.data[k] = Complex::ONE;
        v
    }

    /// Creates a vector from real components.
    pub fn from_real(data: &[f64]) -> Self {
        CVec {
            data: data.iter().map(|&x| cr(x)).collect(),
        }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the components.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Mutable view of the components.
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Hermitian inner product `⟨self|other⟩` (conjugate-linear in `self`).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &CVec) -> Complex {
        assert_eq!(self.dim(), other.dim(), "inner product dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Returns the vector scaled to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the norm is (numerically) zero.
    pub fn normalized(&self) -> CVec {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalise the zero vector");
        self.scale(cr(1.0 / n))
    }

    /// Scales every component by `s`.
    pub fn scale(&self, s: Complex) -> CVec {
        CVec {
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Outer product `|self⟩⟨other|`.
    pub fn outer(&self, other: &CVec) -> CMat {
        let mut m = CMat::zeros(self.dim(), other.dim());
        for i in 0..self.dim() {
            for j in 0..other.dim() {
                m[(i, j)] = self.data[i] * other.data[j].conj();
            }
        }
        m
    }

    /// Rank-1 projector `|self⟩⟨self|` (the `[|ψ⟩]` of the paper).
    pub fn projector(&self) -> CMat {
        self.outer(self)
    }

    /// Tensor product `self ⊗ other`.
    pub fn kron(&self, other: &CVec) -> CVec {
        let mut data = Vec::with_capacity(self.dim() * other.dim());
        for &a in &self.data {
            for &b in &other.data {
                data.push(a * b);
            }
        }
        CVec { data }
    }

    /// `true` if all components are within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &CVec, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

impl Index<usize> for CVec {
    type Output = Complex;
    fn index(&self, i: usize) -> &Complex {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVec {
    fn index_mut(&mut self, i: usize) -> &mut Complex {
        &mut self.data[i]
    }
}

impl Add for &CVec {
    type Output = CVec;
    fn add(self, rhs: &CVec) -> CVec {
        assert_eq!(self.dim(), rhs.dim(), "vector addition dimension mismatch");
        CVec {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CVec {
    type Output = CVec;
    fn sub(self, rhs: &CVec) -> CVec {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "vector subtraction dimension mismatch"
        );
        CVec {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::CMat;
/// let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
/// assert!(x.is_hermitian(1e-12));
/// assert!(x.is_unitary(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMat {
    /// Creates a matrix from raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        CMat { rows, cols, data }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        CMat { rows, cols, data }
    }

    /// Creates a matrix from row-major real entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries.len() != rows * cols`.
    pub fn from_real(rows: usize, cols: usize, entries: &[f64]) -> Self {
        assert_eq!(entries.len(), rows * cols, "matrix data length mismatch");
        CMat {
            rows,
            cols,
            data: entries.iter().map(|&x| cr(x)).collect(),
        }
    }

    /// Creates a diagonal matrix from the given (complex) diagonal.
    pub fn diag(d: &[Complex]) -> Self {
        let n = d.len();
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = d[i];
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    pub fn row(&self, i: usize) -> &[Complex] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Extracts column `j` as a vector.
    pub fn col(&self, j: usize) -> CVec {
        CVec::new((0..self.rows).map(|i| self[(i, j)]).collect())
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Trace `tr(A)`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Real part of the trace (traces of hermitian products are real).
    pub fn trace_re(&self) -> f64 {
        self.trace().re
    }

    /// `tr(A·B)` computed without materialising the product.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not compatible (`A: m×n`, `B: n×m`).
    pub fn trace_product(&self, other: &CMat) -> Complex {
        assert_eq!(self.cols, other.rows, "trace_product shape mismatch");
        assert_eq!(self.rows, other.cols, "trace_product shape mismatch");
        let mut acc = Complex::ZERO;
        for i in 0..self.rows {
            for k in 0..self.cols {
                acc += self[(i, k)] * other[(k, i)];
            }
        }
        acc
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.cols()`.
    pub fn mul_vec(&self, v: &CVec) -> CVec {
        assert_eq!(self.cols, v.dim(), "matvec dimension mismatch");
        let mut out = CVec::zeros(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = Complex::ZERO;
            for (a, b) in row.iter().zip(v.as_slice()) {
                acc += *a * *b;
            }
            out[i] = acc;
        }
        out
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: Complex) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, s: f64) -> CMat {
        self.scale(cr(s))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// `true` if all entries are within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &CMat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// `true` if `A† = A` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if !self[(i, j)].approx_eq(self[(j, i)].conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `A†A = I` within `tol`: the decision of
    /// `self.adjoint_mul(self).is_identity(tol)`, from the upper triangle
    /// of `G = A†A` only, in row panels, stopping at the first entry out
    /// of tolerance and never holding the `d × d` product.
    ///
    /// Each upper entry sums the products [`CMat::adjoint_mul`] sums, in
    /// its order, so it has the same bits. Entry `(j, i)` below the
    /// diagonal sums the conjugates of the products of entry `(i, j)`,
    /// and round-to-nearest is symmetric under negation, so it is the
    /// conjugate of entry `(i, j)` up to the sign of a zero; both are
    /// within `tol` of 0 or neither is. The one asymmetry is the
    /// exact-zero skip: `(i, j)` skips the products with `A[k][i] = 0`,
    /// `(j, i)` those with `A[k][j] = 0`, and a skipped product with a
    /// non-finite factor is NaN in the other entry. Such a factor also
    /// makes the diagonal entry of its column `+∞` or NaN (a sum of
    /// `|A[k][j]|²`), which fails the check either way.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square() && gram_is_identity(Isa::host(), self, tol)
    }

    /// `true` if `A = I` within `tol`: `approx_eq` against the identity,
    /// entry by entry, without building it.
    pub fn is_identity(&self, tol: f64) -> bool {
        self.is_square()
            && self.data.iter().enumerate().all(|(k, z)| {
                let want = if k / self.cols == k % self.cols {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                z.approx_eq(want, tol)
            })
    }

    /// Hermitian part `(A + A†)/2`; useful to repair rounding drift.
    pub fn hermitize(&self) -> CMat {
        assert!(self.is_square(), "hermitize of a non-square matrix");
        let adj = self.adjoint();
        let mut m = self.clone();
        for (a, b) in m.data.iter_mut().zip(adj.data) {
            *a = (*a + b).scale(0.5);
        }
        m
    }

    /// Matrix product `A·B`, cache-blocked over the inner (`k`)
    /// dimension and row-parallel through [`crate::par::sweep`].
    ///
    /// The i-k-j loop is tiled so a `MUL_BLOCK_K`-row block of `rhs`
    /// stays cache-resident while every output row streams over it —
    /// `rhs` traffic drops from `rows·cols·16B` per output row to one
    /// pass per block. Each output element still accumulates its `k`
    /// contributions in strictly ascending order (blocks ascend, `k`
    /// ascends within a block) and keeps the exact-zero skip, so results
    /// are bitwise identical to the untiled kernel — and to every thread
    /// count, since a row is computed wholly inside one chunk, and to
    /// every instruction-set instance of the row update.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul(&self, rhs: &CMat) -> CMat {
        self.mul_as(Isa::host(), rhs)
    }

    /// [`CMat::mul`] with its row update run as the `isa` instance.
    pub(crate) fn mul_as(&self, isa: Isa, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        mul_by(isa, self.rows, self.cols, |i, k| self[(i, k)], rhs)
    }

    /// `A†·B`, reading `A†` from `self` by index instead of copying it:
    /// bitwise identical to `self.adjoint().mul(rhs)`, since every output
    /// element sums the same products in the same ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn adjoint_mul(&self, rhs: &CMat) -> CMat {
        self.adjoint_mul_as(Isa::host(), rhs)
    }

    /// [`CMat::adjoint_mul`] with its row update run as the `isa` instance.
    pub(crate) fn adjoint_mul_as(&self, isa: Isa, rhs: &CMat) -> CMat {
        assert_eq!(self.rows, rhs.rows, "matmul shape mismatch");
        mul_by(isa, self.cols, self.rows, |i, k| self[(k, i)].conj(), rhs)
    }

    /// Conjugation `A·B·A†` (e.g. `UρU†`, `KρK†`).
    pub fn conjugate(&self, inner: &CMat) -> CMat {
        self.mul(inner).mul(&self.adjoint())
    }

    /// Adjoint conjugation `A†·B·A` (e.g. `U†MU` in Heisenberg picture),
    /// reading `A†` by index ([`CMat::adjoint_mul`]): bitwise identical to
    /// `self.adjoint().mul(inner).mul(self)`.
    pub fn adjoint_conjugate(&self, inner: &CMat) -> CMat {
        self.adjoint_mul(inner).mul(self)
    }

    /// Tensor (Kronecker) product `self ⊗ other`.
    pub fn kron(&self, other: &CMat) -> CMat {
        let rows = self.rows * other.rows;
        let cols = self.cols * other.cols;
        let mut out = CMat::zeros(rows, cols);
        for i1 in 0..self.rows {
            for j1 in 0..self.cols {
                let a = self[(i1, j1)];
                // Skip exact (±0) zeros only — see `Complex::is_exact_zero`.
                if a.is_exact_zero() {
                    continue;
                }
                for i2 in 0..other.rows {
                    let dst = (i1 * other.rows + i2) * cols + j1 * other.cols;
                    let src = i2 * other.cols;
                    for j2 in 0..other.cols {
                        out.data[dst + j2] = a * other.data[src + j2];
                    }
                }
            }
        }
        out
    }

    /// Matrix power by repeated squaring (non-negative exponent).
    pub fn pow(&self, mut e: u32) -> CMat {
        assert!(self.is_square(), "pow of a non-square matrix");
        let mut result = CMat::identity(self.rows);
        let mut base = self.clone();
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            base = base.mul(&base);
            e >>= 1;
        }
        result
    }

    /// `self + other` (checked).
    pub fn add_mat(&self, other: &CMat) -> CMat {
        assert_eq!(self.rows, other.rows, "addition shape mismatch");
        assert_eq!(self.cols, other.cols, "addition shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }

    /// `self - other` (checked).
    pub fn sub_mat(&self, other: &CMat) -> CMat {
        assert_eq!(self.rows, other.rows, "subtraction shape mismatch");
        assert_eq!(self.cols, other.cols, "subtraction shape mismatch");
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }

    /// `true` if every entry has modulus below `tol`.
    pub fn is_zero(&self, tol: f64) -> bool {
        self.data.iter().all(|z| z.is_zero(tol))
    }

    /// `true` if any entry is NaN.
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|z| z.is_nan())
    }

    /// A quantised fingerprint of the matrix, suitable for deduplicating
    /// numerically-equal matrices inside assertion sets.
    ///
    /// Entries are rounded to `1/scale` before hashing, so matrices within
    /// about `1/scale` of each other in every entry receive equal keys.
    pub fn fingerprint(&self, scale: f64) -> u64 {
        // FNV-1a-style mix over the quantised entries, one multiply per
        // 64-bit word rather than per byte — fingerprinting is on the
        // outline-rendering path for every intermediate predicate, so the
        // 8× matters at 2ⁿ×2ⁿ sizes.
        let mut h: u64 = 0xcbf29ce484222325;
        let mut feed = |x: f64| {
            let q = (x * scale).round() as i64;
            h ^= q as u64;
            h = h.wrapping_mul(0x100000001b3);
            h ^= h >> 32;
            h = h.wrapping_mul(0x100000001b3);
        };
        feed(self.rows as f64);
        feed(self.cols as f64);
        for z in &self.data {
            // Canonicalise -0.0 to 0.0 before quantising.
            feed(z.re + 0.0);
            feed(z.im + 0.0);
        }
        h
    }
}

/// The blocked, row-parallel product kernel behind [`CMat::mul`] and
/// [`CMat::adjoint_mul`]: `out[i] = Σ_k lhs(i, k)·rhs[k]` for a virtual
/// `rows × inner` left operand read through `lhs`, skipping exact-zero
/// `lhs` entries and accumulating each element in ascending `k`. Each
/// chunk of rows runs as the `isa` instance of [`mul_rows`].
fn mul_by(
    isa: Isa,
    rows: usize,
    inner: usize,
    lhs: impl Fn(usize, usize) -> Complex + Sync,
    rhs: &CMat,
) -> CMat {
    let mut out = CMat::zeros(rows, rhs.cols);
    if rows == 0 || rhs.cols == 0 || inner == 0 {
        return out;
    }
    let shared = SharedMut::new(&mut out.data);
    crate::par::sweep(rows, inner * rhs.cols, |range| {
        // SAFETY: chunks own disjoint row ranges of `out`, whose borrow
        // outlives the sweep. The AVX-512 instance runs only when the
        // host has `avx512f`.
        unsafe {
            if isa.avx512() {
                #[cfg(target_arch = "x86_64")]
                return mul_rows_avx512(&lhs, rhs, &shared, range);
            }
            mul_rows(&lhs, rhs, &shared, range)
        }
    });
    out
}

/// Output rows `range` of [`mul_by`], blocked over `k`: the body both
/// instruction-set instances share.
///
/// # Safety
///
/// `out` must wrap a live `lhs-rows × rhs.cols` buffer, and no
/// concurrent call may touch the rows in `range`.
#[inline(always)]
unsafe fn mul_rows(
    lhs: &impl Fn(usize, usize) -> Complex,
    rhs: &CMat,
    out: &SharedMut<Complex>,
    range: Range<usize>,
) {
    let (inner, ncols) = (rhs.rows, rhs.cols);
    for kb in (0..inner).step_by(MUL_BLOCK_K) {
        let kend = inner.min(kb + MUL_BLOCK_K);
        for i in range.clone() {
            // SAFETY: row `i` of the live output buffer, which no
            // concurrent call touches.
            let orow = std::slice::from_raw_parts_mut(out.ptr().add(i * ncols), ncols);
            for k in kb..kend {
                let a = lhs(i, k);
                // Skip exact (±0) zeros only — see `Complex::is_exact_zero`.
                if a.is_exact_zero() {
                    continue;
                }
                let rrow = &rhs.data[k * ncols..(k + 1) * ncols];
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * *r;
                }
            }
        }
    }
}

/// [`mul_rows`] compiled for AVX-512.
///
/// # Safety
///
/// As [`mul_rows`], on a host with `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mul_rows_avx512(
    lhs: &impl Fn(usize, usize) -> Complex,
    rhs: &CMat,
    out: &SharedMut<Complex>,
    range: Range<usize>,
) {
    mul_rows(lhs, rhs, out, range)
}

/// The decision of [`CMat::is_unitary`] for a square `a`, with the Gram
/// rows run as the `isa` instance of [`gram_rows`]: panel by panel of
/// [`GRAM_PANEL`] rows, each entry `G[i][j]`, `j ≥ i`, is compared with
/// the identity's once its panel is complete.
fn gram_is_identity(isa: Isa, a: &CMat, tol: f64) -> bool {
    let d = a.rows;
    let mut panel = vec![Complex::ZERO; GRAM_PANEL.min(d) * d];
    for i0 in (0..d).step_by(GRAM_PANEL) {
        let rows = GRAM_PANEL.min(d - i0);
        let shared = SharedMut::new(&mut panel[..rows * d]);
        crate::par::sweep(rows, d * (d - i0), |range| {
            // SAFETY: chunks own disjoint row ranges of the panel, whose
            // borrow outlives the sweep. The AVX-512 instance runs only
            // when the host has `avx512f`.
            unsafe {
                if isa.avx512() {
                    #[cfg(target_arch = "x86_64")]
                    return gram_rows_avx512(a, i0, &shared, range);
                }
                gram_rows(a, i0, &shared, range)
            }
        });
        for (r, row) in panel.chunks_exact(d).take(rows).enumerate() {
            let i = i0 + r;
            for (j, z) in row.iter().enumerate().skip(i) {
                let want = if i == j { Complex::ONE } else { Complex::ZERO };
                if !z.approx_eq(want, tol) {
                    return false;
                }
            }
        }
    }
    true
}

/// Rows `i0 + r`, `r ∈ range`, of the upper triangle of `A†A` into the
/// panel `out` (row `r` at offset `r·d`, entry `j ≥ i0 + r` at `j`):
/// `G[i][j] = Σ_k conj(A[k][i])·A[k][j]`, from zero in ascending `k`,
/// skipping exact-zero `conj(A[k][i])` — the products and order of
/// [`CMat::adjoint_mul`]. The body both instruction-set instances share.
///
/// # Safety
///
/// `out` must wrap a live buffer of at least `range.end · d` entries, and
/// no concurrent call may touch the rows in `range`.
#[inline(always)]
unsafe fn gram_rows(a: &CMat, i0: usize, out: &SharedMut<Complex>, range: Range<usize>) {
    let d = a.cols;
    debug_assert!(range.end * d <= out.len());
    for r in range.clone() {
        // SAFETY: row `r` of the live panel, which no concurrent call
        // touches.
        std::slice::from_raw_parts_mut(out.ptr().add(r * d), d).fill(Complex::ZERO);
    }
    for k in 0..d {
        let arow = a.row(k);
        for r in range.clone() {
            let i = i0 + r;
            let x = arow[i].conj();
            // Skip exact (±0) zeros only — see `Complex::is_exact_zero`.
            if x.is_exact_zero() {
                continue;
            }
            // SAFETY: the tail of row `r` of the live panel, as above.
            let orow = std::slice::from_raw_parts_mut(out.ptr().add(r * d + i), d - i);
            for (o, &b) in orow.iter_mut().zip(&arow[i..]) {
                *o += x * b;
            }
        }
    }
}

/// [`gram_rows`] compiled for AVX-512.
///
/// # Safety
///
/// As [`gram_rows`], on a host with `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gram_rows_avx512(a: &CMat, i0: usize, out: &SharedMut<Complex>, range: Range<usize>) {
    gram_rows(a, i0, out, range)
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        self.add_mat(rhs)
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        self.sub_mat(rhs)
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        CMat::mul(self, rhs)
    }
}

impl Neg for &CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        self.scale(cr(-1.0))
    }
}

impl AddAssign<&CMat> for CMat {
    fn add_assign(&mut self, rhs: &CMat) {
        assert_eq!(self.rows, rhs.rows, "addition shape mismatch");
        assert_eq!(self.cols, rhs.cols, "addition shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                let z = self[(i, j)];
                if z.im.abs() < TOL {
                    write!(f, "{:.4}", z.re)?;
                } else {
                    write!(f, "{:.4}{:+.4}i", z.re, z.im)?;
                }
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c;
    use crate::par::test_support::{assert_every_instance_agrees, TestRng};

    /// A random `rows × cols` matrix in which every third entry takes one
    /// of `specials`: a zero replaces the whole entry (`±0 ∓ 0i`, so the
    /// exact-zero skip runs), any other value one component.
    fn seeded(rng: &mut TestRng, rows: usize, cols: usize, specials: &[f64]) -> CMat {
        let mut data = rng.complexes(rows * cols);
        if !specials.is_empty() {
            for (t, z) in data.iter_mut().enumerate().step_by(3) {
                let x = specials[(t / 3) % specials.len()];
                if x == 0.0 {
                    *z = c(x, -x);
                } else if t % 2 == 0 {
                    z.re = x;
                } else {
                    z.im = x;
                }
            }
        }
        CMat::from_vec(rows, cols, data)
    }

    /// The half-Gram unitarity check decides as the full product does on
    /// every instruction-set instance and thread count, across panels.
    #[test]
    fn unitarity_decisions_agree_across_instruction_sets() {
        let mut rng = TestRng::new(27);
        for d in [1usize, 5, 33, 40] {
            let mut near = CMat::identity(d);
            near[(0, d - 1)].im += 0.5e-8;
            let mut far = near.clone();
            far[(d - 1, d / 2)].re += 2e-8;
            let mut nan = CMat::identity(d);
            nan[(d / 3, d / 2)] = c(f64::NAN, 0.0);
            let random = seeded(&mut rng, d, d, &[0.0, -0.0, f64::INFINITY]);
            for (m, name) in [
                (CMat::identity(d), "identity"),
                (near, "near"),
                (far, "far"),
                (nan, "nan"),
                (random, "random"),
            ] {
                let full = m.adjoint_mul(&m).is_identity(1e-8);
                assert_eq!(m.is_unitary(1e-8), full, "{name}, d = {d}");
                assert_every_instance_agrees(&format!("{name}, d = {d}"), |isa| {
                    vec![Complex::real(f64::from(u8::from(gram_is_identity(
                        isa, &m, 1e-8,
                    ))))]
                });
            }
        }
    }

    /// `mul` and `adjoint_mul` give the same bits on every instruction-set
    /// instance and thread count: blocked inner dimensions, exact ±0
    /// entries (the zero skip), subnormals, ±inf, and NaN (compared by
    /// position only).
    #[test]
    fn products_agree_across_instruction_sets() {
        let mut rng = TestRng::new(25);
        let inputs: [&[f64]; 4] = [
            &[],
            &[0.0, -0.0, 1.5, -0.0],
            &[1e-310, -5e-324, 0.0, 2.2e-308],
            &[f64::INFINITY, 0.0, f64::NEG_INFINITY, f64::NAN, -0.0],
        ];
        for (rows, inner, cols) in [
            (1, 1, 1),
            (3, 7, 5),
            (16, 16, 16),
            (33, 130, 17),
            (64, 70, 9),
        ] {
            for specials in inputs {
                let a = seeded(&mut rng, rows, inner, specials);
                let b = seeded(&mut rng, inner, cols, specials);
                let what = format!("{rows}×{inner}·{inner}×{cols}, specials {specials:?}");
                assert_every_instance_agrees(&format!("mul, {what}"), |isa| {
                    a.mul_as(isa, &b).as_slice().to_vec()
                });
                let at = seeded(&mut rng, inner, rows, specials);
                assert_every_instance_agrees(&format!("adjoint_mul, {what}"), |isa| {
                    at.adjoint_mul_as(isa, &b).as_slice().to_vec()
                });
            }
        }
    }

    fn pauli_x() -> CMat {
        CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMat {
        CMat::from_vec(
            2,
            2,
            vec![c(0.0, 0.0), c(0.0, -1.0), c(0.0, 1.0), c(0.0, 0.0)],
        )
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i = CMat::identity(2);
        assert!(x.mul(&i).approx_eq(&x, TOL));
        assert!(i.mul(&x).approx_eq(&x, TOL));
    }

    #[test]
    fn zero_skip_treats_negative_zero_like_positive_zero() {
        // Regression: the mul/kron fast paths skip exact-zero entries; IEEE
        // `-0.0 == 0.0` means -0.0 entries take the skip too, and the result
        // must be bit-for-bit what the +0.0 matrix produces.
        let with_neg = CMat::from_vec(
            2,
            2,
            vec![c(-0.0, 0.0), c(1.0, -0.0), c(-0.0, -0.0), c(2.0, 0.5)],
        );
        let mut normalised = with_neg.clone();
        for z in normalised.as_mut_slice() {
            // +0.0 canonical form of every component.
            z.re += 0.0;
            z.im += 0.0;
        }
        let other = CMat::from_fn(2, 2, |i, j| c(0.3 * i as f64 - 0.1, 0.2 * j as f64 + 0.4));
        for (a, b) in with_neg
            .mul(&other)
            .as_slice()
            .iter()
            .zip(normalised.mul(&other).as_slice())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        for (a, b) in with_neg
            .kron(&other)
            .as_slice()
            .iter()
            .zip(normalised.kron(&other).as_slice())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // But a subnormal entry whose square underflows must NOT be skipped
        // (the reason the guard is not `norm_sqr() == 0.0`).
        let tiny = 1e-200;
        assert!(!c(tiny, 0.0).is_exact_zero());
        let sub = CMat::from_vec(1, 1, vec![c(tiny, 0.0)]);
        let prod = sub.mul(&CMat::from_vec(1, 1, vec![c(2.0, 0.0)]));
        assert_eq!(prod[(0, 0)].re, 2.0 * tiny);
    }

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let y = pauli_y();
        // XY = iZ
        let xy = x.mul(&y);
        let z = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!(xy.approx_eq(&z.scale(Complex::I), TOL));
        // X² = I
        assert!(x.mul(&x).approx_eq(&CMat::identity(2), TOL));
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = CMat::from_fn(3, 3, |i, j| c(i as f64, j as f64 * 0.5));
        let b = CMat::from_fn(3, 3, |i, j| c(j as f64 - i as f64, 1.0));
        let lhs = a.mul(&b).adjoint();
        let rhs = b.adjoint().mul(&a.adjoint());
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn trace_properties() {
        let a = CMat::from_fn(4, 4, |i, j| c((i + j) as f64, (i * j) as f64));
        let b = CMat::from_fn(4, 4, |i, j| c((i as f64 - j as f64).abs(), 1.0));
        // tr(AB) = tr(BA)
        let t1 = a.mul(&b).trace();
        let t2 = b.mul(&a).trace();
        assert!(t1.approx_eq(t2, 1e-9));
        // trace_product agrees with materialised product
        assert!(a.trace_product(&b).approx_eq(t1, 1e-9));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = pauli_x();
        let b = pauli_y();
        let c_ = CMat::identity(2);
        let d = pauli_x();
        let lhs = a.kron(&b).mul(&c_.kron(&d));
        let rhs = a.mul(&c_).kron(&b.mul(&d));
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    fn kron_dimensions() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(4, 5);
        let k = a.kron(&b);
        assert_eq!((k.rows(), k.cols()), (8, 15));
    }

    #[test]
    fn outer_product_and_projector() {
        let v = CVec::new(vec![c(1.0, 0.0), c(0.0, 1.0)]).normalized();
        let p = v.projector();
        assert!(p.is_hermitian(TOL));
        // P² = P
        assert!(p.mul(&p).approx_eq(&p, TOL));
        assert!((p.trace_re() - 1.0).abs() < TOL);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = CMat::from_fn(3, 3, |i, j| c(i as f64 + 1.0, j as f64));
        let v = CVec::new(vec![c(1.0, 0.0), c(0.0, 1.0), c(-1.0, 0.5)]);
        let av = a.mul_vec(&v);
        for i in 0..3 {
            let mut acc = Complex::ZERO;
            for j in 0..3 {
                acc += a[(i, j)] * v[j];
            }
            assert!(av[i].approx_eq(acc, TOL));
        }
    }

    #[test]
    fn hermitian_and_unitary_checks() {
        assert!(pauli_x().is_hermitian(TOL));
        assert!(pauli_x().is_unitary(TOL));
        assert!(pauli_y().is_hermitian(TOL));
        let not_h = CMat::from_real(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        assert!(!not_h.is_hermitian(TOL));
        assert!(!not_h.is_unitary(TOL));
    }

    #[test]
    fn identity_check_decides_as_comparison_with_identity() {
        let mut near = CMat::identity(4);
        near[(1, 2)] = Complex::new(0.0, 0.5e-12);
        let mut nan = CMat::identity(2);
        nan[(1, 1)] = Complex::new(f64::NAN, 0.0);
        for (m, want) in [
            (CMat::identity(4), true),
            (near.clone(), true),
            (near.scale_re(1.0 + 1e-11), false),
            (pauli_x(), false),
            (nan, false),
            (CMat::zeros(2, 4), false),
        ] {
            assert_eq!(m.is_identity(1e-12), want, "{m:?}");
            let square = m.is_square();
            assert_eq!(
                square && m.approx_eq(&CMat::identity(m.rows()), 1e-12),
                want
            );
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = CMat::from_real(2, 2, &[1.0, 1.0, 0.0, 1.0]);
        let a5 = a.pow(5);
        let mut manual = CMat::identity(2);
        for _ in 0..5 {
            manual = manual.mul(&a);
        }
        assert!(a5.approx_eq(&manual, TOL));
        assert!(a.pow(0).approx_eq(&CMat::identity(2), TOL));
    }

    #[test]
    fn fingerprint_dedupe_behaviour() {
        let a = CMat::from_real(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let mut b = a.clone();
        b[(0, 0)] = c(1.0 + 1e-12, 0.0);
        assert_eq!(a.fingerprint(1e6), b.fingerprint(1e6));
        let c_ = CMat::from_real(2, 2, &[2.0, 0.0, 0.0, 1.0]);
        assert_ne!(a.fingerprint(1e6), c_.fingerprint(1e6));
    }

    #[test]
    fn vector_basics() {
        let v = CVec::basis(4, 1);
        let w = CVec::basis(4, 2);
        assert!(v.dot(&w).is_zero(TOL));
        assert!((&v + &w).norm() - 2f64.sqrt() < TOL);
        let kr = v.kron(&w);
        assert_eq!(kr.dim(), 16);
        assert!(kr[4 + 2].approx_eq(Complex::ONE, TOL));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn mismatched_matmul_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    fn hermitize_repairs_drift() {
        let mut a = pauli_x();
        a[(0, 1)] = c(1.0 + 1e-13, 1e-13);
        let h = a.hermitize();
        assert!(h.is_hermitian(0.0_f64.max(1e-15)));
    }
}
