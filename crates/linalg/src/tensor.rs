//! Qubit-register tensor operations: embeddings, fast gate application,
//! qubit permutations and partial traces.
//!
//! Convention: a register of `n` qubits is indexed `0..n`, and the
//! computational-basis index of the full space puts **qubit 0 in the most
//! significant bit**, so `kron(A, B)` acts with `A` on lower-numbered qubits.
//! `bit_of(i, q, n) = (i >> (n-1-q)) & 1`.
//!
//! Every dense gate sweep runs its chunks through one `#[inline(always)]`
//! body, compiled twice: as the target compiles it, and for AVX-512 when
//! the host has it (see [`crate::par`]). The body uses no fused
//! multiply-add (neither the instruction nor the `f64` method) and no
//! reassociation, so each output element sums the same products in the
//! same order on either instance: results are bitwise identical across
//! instruction sets, as they are across thread counts.

use crate::complex::Complex;
use crate::matrix::{CMat, CVec};
use crate::par::{self, Isa, SharedMut};
use std::ops::Range;

/// Value of qubit `q`'s bit inside basis index `i` of an `n`-qubit space.
#[inline]
pub fn bit_of(i: usize, q: usize, n: usize) -> usize {
    (i >> (n - 1 - q)) & 1
}

/// Basis index of an `n`-qubit register given one bit per qubit
/// (`bits[0]` is qubit 0).
///
/// # Panics
///
/// Panics if any entry is not 0 or 1.
pub fn index_of_bits(bits: &[usize]) -> usize {
    let mut i = 0usize;
    for &b in bits {
        assert!(b <= 1, "bits must be 0 or 1");
        i = (i << 1) | b;
    }
    i
}

/// Checks that `positions` are distinct and within `0..n`.
fn validate_positions(positions: &[usize], n: usize) {
    for (t, &p) in positions.iter().enumerate() {
        assert!(p < n, "qubit position {p} out of range for {n} qubits");
        for &q in &positions[..t] {
            assert_ne!(p, q, "duplicate qubit position {p}");
        }
    }
}

/// Embeds a `k`-qubit operator into the full `n`-qubit space, acting on
/// `positions` (in order: the operator's qubit `t` is register qubit
/// `positions[t]`) and identity elsewhere. This is the cylinder extension
/// used implicitly throughout the paper.
///
/// # Panics
///
/// Panics if the operator is not `2^k × 2^k` or positions are invalid.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::{CMat, embed};
/// let x = CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
/// // X on qubit 1 of 2 = I ⊗ X
/// let e = embed(&x, &[1], 2);
/// let expect = CMat::identity(2).kron(&x);
/// assert!(e.approx_eq(&expect, 1e-12));
/// ```
pub fn embed(op: &CMat, positions: &[usize], n: usize) -> CMat {
    let k = positions.len();
    let dk = 1usize << k;
    assert_eq!(op.rows(), dk, "operator acts on {k} qubits");
    assert_eq!(op.cols(), dk, "operator acts on {k} qubits");
    validate_positions(positions, n);
    let dn = 1usize << n;
    let rest_mask: usize = {
        let mut m = dn - 1;
        for &p in positions {
            m &= !(1usize << (n - 1 - p));
        }
        m
    };
    let mut out = CMat::zeros(dn, dn);
    for i in 0..dn {
        let xi = extract_sub_index(i, positions, n);
        let rest = i & rest_mask;
        for xj in 0..dk {
            let g = op[(xi, xj)];
            // Skip exact (±0) zeros only — see `Complex::is_exact_zero`.
            if g.is_exact_zero() {
                continue;
            }
            let j = rest | deposit_sub_index(xj, positions, n);
            out[(i, j)] = g;
        }
    }
    out
}

/// The diagonal of [`embed`]`(D, positions, n)` for a `k`-qubit diagonal
/// operator `D` given by its (real or complex) diagonal: entry `i` of the
/// result is `D[x]`, where `x` is the sub-index of `positions` in `i`. A
/// gather of `2ⁿ` entries instead of a `4ⁿ` matrix.
///
/// # Panics
///
/// Panics if `diag` does not have `2^k` entries or positions are invalid.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::embed_diagonal;
/// // diag(1, 0) on qubit 1 of 2 = I ⊗ diag(1, 0)
/// assert_eq!(embed_diagonal(&[1.0, 0.0], &[1], 2), vec![1.0, 0.0, 1.0, 0.0]);
/// ```
pub fn embed_diagonal<T: Copy>(diag: &[T], positions: &[usize], n: usize) -> Vec<T> {
    let k = positions.len();
    assert_eq!(diag.len(), 1usize << k, "operator acts on {k} qubits");
    validate_positions(positions, n);
    (0..1usize << n)
        .map(|i| diag[extract_sub_index(i, positions, n)])
        .collect()
}

/// Extracts the sub-index of `positions` bits from full index `i`.
#[inline]
fn extract_sub_index(i: usize, positions: &[usize], n: usize) -> usize {
    let mut x = 0usize;
    for &p in positions {
        x = (x << 1) | bit_of(i, p, n);
    }
    x
}

/// Deposits sub-index `x` into the `positions` bits of an otherwise-zero
/// full index (`x`'s most significant bit maps to `positions[0]`). The
/// public inverse of per-qubit [`bit_of`] extraction, used by the
/// low-rank factor embeddings.
#[inline]
pub fn deposit_bits(x: usize, positions: &[usize], n: usize) -> usize {
    deposit_sub_index(x, positions, n)
}

/// Deposits sub-index `x` into the `positions` bits of an otherwise-zero
/// full index.
#[inline]
fn deposit_sub_index(x: usize, positions: &[usize], n: usize) -> usize {
    let k = positions.len();
    let mut i = 0usize;
    for (t, &p) in positions.iter().enumerate() {
        let b = (x >> (k - 1 - t)) & 1;
        i |= b << (n - 1 - p);
    }
    i
}

/// How a sweep reads its `dk × dk` gate `G`: entry `(x, y)` of the
/// applied operator is `G[x][y]` (`AsIs`), `conj(G[x][y])` (`Conj`),
/// `conj(G[y][x])` (`Adjoint`) or `G[y][x]` (`Transpose`). Reading by
/// index replaces a per-call `G.conj()` / `G.adjoint()` copy. Every
/// output element sums the same products in the same ascending order
/// as it would over the materialised matrix, so results are bitwise
/// identical to it.
#[derive(Clone, Copy, Debug)]
enum GateView {
    AsIs,
    Conj,
    Adjoint,
    Transpose,
}

impl GateView {
    /// `acc ← view(G) · g` for one gathered block. `AsIs`/`Conj` take
    /// row-contiguous dot products; `Adjoint`/`Transpose` stream the
    /// rows of `G` into the accumulator, so no view walks a column.
    #[inline(always)]
    fn apply(self, gate: &CMat, g: &[Complex], acc: &mut [Complex]) {
        match self {
            GateView::AsIs => dot_rows(gate, g, acc, |z| z),
            GateView::Conj => dot_rows(gate, g, acc, Complex::conj),
            GateView::Adjoint => stream_rows(gate, g, acc, Complex::conj),
            GateView::Transpose => stream_rows(gate, g, acc, |z| z),
        }
    }
}

/// `acc[x] = Σ_y f(G[x][y])·g[y]`, summed in ascending `y`.
#[inline(always)]
fn dot_rows(gate: &CMat, g: &[Complex], acc: &mut [Complex], f: impl Fn(Complex) -> Complex) {
    for (x, a) in acc.iter_mut().enumerate() {
        let mut s = Complex::ZERO;
        for (&e, &gy) in gate.row(x).iter().zip(g) {
            s += f(e) * gy;
        }
        *a = s;
    }
}

/// `acc[x] = Σ_y f(G[y][x])·g[y]`, summed in ascending `y`: the sums
/// [`dot_rows`] takes over the materialised transpose, read row by row.
#[inline(always)]
fn stream_rows(gate: &CMat, g: &[Complex], acc: &mut [Complex], f: impl Fn(Complex) -> Complex) {
    acc.fill(Complex::ZERO);
    for (y, &gy) in g.iter().enumerate() {
        for (a, &e) in acc.iter_mut().zip(gate.row(y)) {
            *a += f(e) * gy;
        }
    }
}

/// Precomputed index plan for applying a `k`-qubit gate inside an
/// `n`-qubit space: the "rest" qubit shifts and the sub-index deposits.
/// Building it once per gate application (instead of once per matrix row,
/// as a naive loop would) keeps the strided kernels allocation-free on
/// the hot path. The plan also fixes the instruction-set instance its
/// sweep chunks run as: the host's, read once per plan.
struct GatePlan {
    isa: Isa,
    dk: usize,
    rest_count: usize,
    rest_shifts: Vec<usize>,
    sub_deposits: Vec<usize>,
}

impl GatePlan {
    fn new(positions: &[usize], n: usize) -> GatePlan {
        let k = positions.len();
        let dk = 1usize << k;
        let dn = 1usize << n;
        // Positions of the non-acted ("rest") qubits, as bit shifts.
        let mut rest_shifts: Vec<usize> = Vec::with_capacity(n - k);
        'outer: for q in 0..n {
            for &p in positions {
                if p == q {
                    continue 'outer;
                }
            }
            rest_shifts.push(n - 1 - q);
        }
        debug_assert_eq!(rest_shifts.len(), n - k);
        let sub_deposits: Vec<usize> = (0..dk)
            .map(|x| deposit_sub_index(x, positions, n))
            .collect();
        GatePlan {
            isa: Isa::host(),
            dk,
            rest_count: dn >> k,
            rest_shifts,
            sub_deposits,
        }
    }

    /// Applies `view(gate)` to the virtual vector
    /// `v[t] = data[offset + t·stride]`, `t ∈ 0..2^n`, in place. `scratch`
    /// (length `2·dk`) holds the gathered block and its accumulator.
    ///
    /// The threaded sweeps share one buffer across chunks with provably
    /// disjoint index sets (each virtual vector touches
    /// `offset + t·stride` only — distinct offsets with a common stride
    /// never collide). Every output element is gathered, multiplied and
    /// scattered within one call, so results are bitwise identical for
    /// every chunking.
    ///
    /// # Safety
    ///
    /// `data` must wrap a live buffer for the duration of the call, and
    /// the index set this call touches must be disjoint from that of
    /// every concurrent call on the same buffer.
    #[inline(always)]
    unsafe fn run_raw(
        &self,
        gate: &CMat,
        view: GateView,
        data: &SharedMut<Complex>,
        offset: usize,
        stride: usize,
        scratch: &mut [Complex],
    ) {
        let (gathered, acc) = scratch.split_at_mut(self.dk);
        for r in 0..self.rest_count {
            // Spread the bits of r into the rest positions.
            let mut base = 0usize;
            for (bi, &sh) in self.rest_shifts.iter().enumerate() {
                let b = (r >> (self.rest_shifts.len() - 1 - bi)) & 1;
                base |= b << sh;
            }
            for (g, &dep) in gathered.iter_mut().zip(&self.sub_deposits) {
                let idx = offset + (base | dep) * stride;
                debug_assert!(idx < data.len());
                *g = *data.ptr().add(idx);
            }
            view.apply(gate, gathered, acc);
            for (&a, &dep) in acc.iter().zip(&self.sub_deposits) {
                let idx = offset + (base | dep) * stride;
                debug_assert!(idx < data.len());
                *data.ptr().add(idx) = a;
            }
        }
    }

    /// One sweep chunk: [`GatePlan::run_raw`] on the virtual vectors
    /// `offset_of(j), stride` for every `j` in `range`, with its own
    /// scratch buffer. The body both instruction-set instances share.
    ///
    /// # Safety
    ///
    /// As [`GatePlan::run_raw`], for every `j` in `range`.
    #[inline(always)]
    unsafe fn run_chunk(
        &self,
        gate: &CMat,
        view: GateView,
        data: &SharedMut<Complex>,
        stride: usize,
        offset_of: &impl Fn(usize) -> usize,
        range: Range<usize>,
    ) {
        let mut scratch = vec![Complex::ZERO; 2 * self.dk];
        for j in range {
            self.run_raw(gate, view, data, offset_of(j), stride, &mut scratch);
        }
    }

    /// [`GatePlan::run_chunk`] compiled for AVX-512.
    ///
    /// # Safety
    ///
    /// As [`GatePlan::run_chunk`], on a host with `avx512f`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn run_chunk_avx512(
        &self,
        gate: &CMat,
        view: GateView,
        data: &SharedMut<Complex>,
        stride: usize,
        offset_of: &impl Fn(usize) -> usize,
        range: Range<usize>,
    ) {
        self.run_chunk(gate, view, data, stride, offset_of, range)
    }

    /// Per-virtual-vector sweep cost estimate (gather + `dk×dk` multiply
    /// per rest block), for the serial/parallel decision of
    /// [`par::sweep`].
    fn sweep_work(&self) -> usize {
        self.rest_count * self.dk * (self.dk + 1)
    }
}

/// Runs `plan` with `view(gate)` on the virtual vectors
/// `offset_of(j), stride` for every `j ∈ 0..count`, chunked by
/// [`par::sweep`], each chunk as the plan's instance. Distinct offsets
/// with a common stride address disjoint index sets, so chunks never
/// overlap.
fn sweep_strided(
    plan: &GatePlan,
    gate: &CMat,
    view: GateView,
    data: &mut [Complex],
    count: usize,
    stride: usize,
    offset_of: impl Fn(usize) -> usize + Sync,
) {
    let shared = SharedMut::new(data);
    par::sweep(count, plan.sweep_work(), |range| {
        // SAFETY: `shared` wraps a live unique borrow; chunk `j` ranges
        // are disjoint and each `j` touches only indices
        // `offset_of(j) + t·stride`, distinct across `j`. The AVX-512
        // instance runs only when the host has `avx512f`.
        unsafe {
            if plan.isa.avx512() {
                #[cfg(target_arch = "x86_64")]
                return plan.run_chunk_avx512(gate, view, &shared, stride, &offset_of, range);
            }
            plan.run_chunk(gate, view, &shared, stride, &offset_of, range)
        }
    });
}

/// Checks what every public sweep relies on: distinct in-range
/// `positions` and a square `2^k × 2^k` gate for `k = positions.len()`.
/// Matrix indexing only bounds-checks the flat offset, so a wrong-size
/// gate would otherwise be read silently out of shape.
fn validate_gate(gate: &CMat, positions: &[usize], n: usize) {
    validate_positions(positions, n);
    let dk = 1usize << positions.len();
    assert!(
        gate.rows() == dk && gate.cols() == dk,
        "gate size mismatch: a {}×{} gate on {} qubit(s) must be {dk}×{dk}",
        gate.rows(),
        gate.cols(),
        positions.len()
    );
}

/// Checks that `m` is a `2^n × 2^n` operator.
fn validate_square(m: &CMat, n: usize) {
    let d = 1usize << n;
    assert_eq!(m.rows(), d, "matrix dimension mismatch");
    assert_eq!(m.cols(), d, "matrix dimension mismatch");
}

/// Sweeps `view(gate)` down every column of `v` (`V ← G_S·V` for
/// `AsIs`). Column `j` occupies indices `j + t·r` (`t < 2ⁿ`): disjoint
/// across columns.
fn sweep_columns(gate: &CMat, view: GateView, positions: &[usize], n: usize, v: &mut CMat) {
    assert_eq!(v.rows(), 1usize << n, "factor height mismatch");
    validate_gate(gate, positions, n);
    let r = v.cols();
    if r == 0 {
        return;
    }
    let plan = GatePlan::new(positions, n);
    sweep_strided(&plan, gate, view, v.as_mut_slice(), r, r, |j| j);
}

/// Sweeps `view(gate)` along every row of the `2^n × 2^n` matrix `m`
/// (`M ← M·G_Sᵀ` for `AsIs`). Row `i` occupies the contiguous range
/// `i·d .. (i+1)·d`, disjoint across rows.
fn sweep_rows(plan: &GatePlan, gate: &CMat, view: GateView, n: usize, m: &mut CMat) {
    let d = 1usize << n;
    sweep_strided(plan, gate, view, m.as_mut_slice(), d, 1, |i| i * d);
}

/// Applies a `k`-qubit gate to a `2^n` state vector in place:
/// `v ← G_S · v`.
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn apply_gate_vec(gate: &CMat, positions: &[usize], n: usize, v: &mut CVec) {
    assert_eq!(v.dim(), 1usize << n, "state vector dimension mismatch");
    validate_gate(gate, positions, n);
    let plan = GatePlan::new(positions, n);
    sweep_strided(&plan, gate, GateView::AsIs, v.as_mut_slice(), 1, 1, |_| 0);
}

/// Left-multiplies an embedded gate into every **column** of a `2^n × r`
/// matrix in place: `V ← G_S · V`. The columns are independent state
/// vectors, so this is the tall-skinny-factor form of [`apply_gate_left`]
/// (which requires a square matrix): `O(2ⁿ·2ᵏ·r)` — for a low-rank factor
/// this replaces the `O(8ⁿ)` dense conjugation of the operator it
/// represents. Columns are swept in parallel chunks when
/// [`crate::par::kernel_threads`] > 1 and the sweep is large enough;
/// results are bitwise identical for every thread count.
///
/// # Panics
///
/// Panics on dimension mismatches (including a gate that is not
/// `2^k × 2^k`) or invalid positions.
pub fn apply_gate_columns(gate: &CMat, positions: &[usize], n: usize, v: &mut CMat) {
    sweep_columns(gate, GateView::AsIs, positions, n, v);
}

/// [`apply_gate_columns`] with the gate's adjoint, `V ← G_S† · V` — the
/// factored (Unit) rule. `G†` is read from `gate` by index, never
/// materialised, and the result is bitwise identical to
/// `apply_gate_columns(&gate.adjoint(), …)`.
///
/// # Panics
///
/// As [`apply_gate_columns`].
pub fn apply_gate_columns_adjoint(gate: &CMat, positions: &[usize], n: usize, v: &mut CMat) {
    sweep_columns(gate, GateView::Adjoint, positions, n, v);
}

/// Left-multiplies an embedded gate into a `2^n × 2^n` matrix in place:
/// `M ← G_S · M`. Column-parallel like [`apply_gate_columns`].
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn apply_gate_left(gate: &CMat, positions: &[usize], n: usize, m: &mut CMat) {
    validate_square(m, n);
    sweep_columns(gate, GateView::AsIs, positions, n, m);
}

/// Right-multiplies the adjoint of an embedded gate into a matrix in place:
/// `M ← M · G_S†`, viewed as a left action of `conj(G)` on each row
/// (read by index). Row-parallel.
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn apply_gate_right_adjoint(gate: &CMat, positions: &[usize], n: usize, m: &mut CMat) {
    validate_square(m, n);
    validate_gate(gate, positions, n);
    let plan = GatePlan::new(positions, n);
    sweep_rows(&plan, gate, GateView::Conj, n, m);
}

/// `M ← L_S · M · R_S†` where `view_left` gives `L` and `view_right`
/// gives `conj(R)`: one index plan shared by a column-parallel left
/// sweep and a row-parallel right sweep, with a barrier between them.
fn conjugate_views(
    gate: &CMat,
    view_left: GateView,
    view_right: GateView,
    positions: &[usize],
    n: usize,
    m: &CMat,
) -> CMat {
    validate_square(m, n);
    validate_gate(gate, positions, n);
    let d = 1usize << n;
    let mut out = m.clone();
    let plan = GatePlan::new(positions, n);
    sweep_strided(&plan, gate, view_left, out.as_mut_slice(), d, d, |j| j);
    sweep_rows(&plan, gate, view_right, n, &mut out);
    out
}

/// Schrödinger-picture conjugation `M ← G_S · M · G_S†` without
/// materialising the `2^n` embedding (e.g. `UρU†`).
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn conjugate_gate(gate: &CMat, positions: &[usize], n: usize, m: &CMat) -> CMat {
    conjugate_views(gate, GateView::AsIs, GateView::Conj, positions, n, m)
}

/// Heisenberg-picture conjugation `M ← G_S† · M · G_S` (e.g. `U†MU`,
/// the (Unit) rule of the proof system). The left sweep reads `G†` and
/// the right sweep `conj(G†) = Gᵀ` by index, so no adjoint is
/// materialised; the result is bitwise identical to
/// `conjugate_gate(&gate.adjoint(), …)`.
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn adjoint_conjugate_gate(gate: &CMat, positions: &[usize], n: usize, m: &CMat) -> CMat {
    conjugate_views(
        gate,
        GateView::Adjoint,
        GateView::Transpose,
        positions,
        n,
        m,
    )
}

// Diagonal gates.
//
// For a `k`-qubit diagonal gate `D = diag(d)` every off-diagonal entry
// is an exact zero, so a sweep over the dense `D` computes each output
// element as `ZERO + f(dₓ)·x` plus products that are all ±0 (for finite
// operands). Adding ±0 to a nonzero sum changes nothing, and to a zero
// sum can only turn −0 into +0, which `ZERO + …` already does. The
// kernels below compute exactly `ZERO + f(dₓ)·x`, with the operands in
// the order the sweep multiplies them, in O(2ⁿ·r) for a factor and
// O(4ⁿ) for a square matrix instead of the sweep's O(2ⁿ·2ᵏ·r): the
// results are bitwise those of the dense sweeps.

/// `out[i][j] = ZERO + right[j]·(ZERO + left[i]·m[i][j])`: a column sweep
/// by `diag(left)` followed by a row sweep by `diag(right)`, each output
/// element computed as those two sweeps compute it. Row-parallel.
fn scale_rows_then_cols(m: &CMat, left: &[Complex], right: &[Complex]) -> CMat {
    let d = left.len();
    assert_eq!(m.rows(), d, "matrix dimension mismatch");
    assert_eq!(m.cols(), right.len(), "matrix dimension mismatch");
    let mut out = m.clone();
    let cols = out.cols();
    let shared = SharedMut::new(out.as_mut_slice());
    par::sweep(d, cols, |rows| {
        for i in rows {
            // SAFETY: chunks own disjoint row ranges of a live buffer.
            let row = unsafe { std::slice::from_raw_parts_mut(shared.ptr().add(i * cols), cols) };
            for (x, &r) in row.iter_mut().zip(right) {
                *x = Complex::ZERO + r * (Complex::ZERO + left[i] * *x);
            }
        }
    });
    out
}

/// [`apply_gate_columns_adjoint`] for a diagonal gate given by its
/// diagonal `d`: `V ← D_S†·V`, entry `(i, j)` becoming
/// `ZERO + conj(d[x])·V[i][j]`. `O(2ⁿ·r)`, bitwise the sweep over
/// `CMat::diag(d)` for finite inputs.
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn apply_diagonal_columns_adjoint(d: &[Complex], positions: &[usize], n: usize, v: &mut CMat) {
    assert_eq!(v.rows(), 1usize << n, "factor height mismatch");
    let e = embed_diagonal(d, positions, n);
    let r = v.cols();
    if r == 0 {
        return;
    }
    let shared = SharedMut::new(v.as_mut_slice());
    par::sweep(e.len(), r, |rows| {
        for i in rows {
            // SAFETY: chunks own disjoint row ranges of a live buffer.
            let row = unsafe { std::slice::from_raw_parts_mut(shared.ptr().add(i * r), r) };
            let f = e[i].conj();
            for x in row {
                *x = Complex::ZERO + f * *x;
            }
        }
    });
}

/// [`adjoint_conjugate_gate`] for a diagonal gate given by its diagonal
/// `d`: `M ← D_S†·M·D_S`, entry `(i, j)` becoming
/// `ZERO + d[y]·(ZERO + conj(d[x])·M[i][j])`. `O(4ⁿ)`, bitwise the
/// sweeps over `CMat::diag(d)` for finite inputs.
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn adjoint_conjugate_diagonal(d: &[Complex], positions: &[usize], n: usize, m: &CMat) -> CMat {
    validate_square(m, n);
    let e = embed_diagonal(d, positions, n);
    let conj: Vec<Complex> = e.iter().map(|z| z.conj()).collect();
    scale_rows_then_cols(m, &conj, &e)
}

/// [`conjugate_gate`] for a diagonal gate given by its diagonal `d`:
/// `ρ ← D_S·ρ·D_S†`, entry `(i, j)` becoming
/// `ZERO + conj(d[y])·(ZERO + d[x]·ρ[i][j])`. `O(4ⁿ)`, bitwise the
/// sweeps over `CMat::diag(d)` for finite inputs.
///
/// # Panics
///
/// Panics on dimension mismatches or invalid positions.
pub fn conjugate_diagonal(d: &[Complex], positions: &[usize], n: usize, rho: &CMat) -> CMat {
    validate_square(rho, n);
    let e = embed_diagonal(d, positions, n);
    let conj: Vec<Complex> = e.iter().map(|z| z.conj()).collect();
    scale_rows_then_cols(rho, &e, &conj)
}

/// Partial trace over the qubits in `traced`, returning an operator on the
/// remaining qubits (kept in their original relative order).
///
/// # Panics
///
/// Panics on invalid positions or dimension mismatch.
///
/// # Examples
///
/// ```
/// use nqpv_linalg::{CMat, CVec, partial_trace};
/// // Bell state (|00⟩+|11⟩)/√2: tracing either qubit leaves I/2.
/// let mut bell = CVec::zeros(4);
/// bell[0] = nqpv_linalg::c(std::f64::consts::FRAC_1_SQRT_2, 0.0);
/// bell[3] = nqpv_linalg::c(std::f64::consts::FRAC_1_SQRT_2, 0.0);
/// let rho = bell.projector();
/// let reduced = partial_trace(&rho, &[1], 2);
/// assert!(reduced.approx_eq(&CMat::identity(2).scale_re(0.5), 1e-12));
/// ```
pub fn partial_trace(m: &CMat, traced: &[usize], n: usize) -> CMat {
    let d = 1usize << n;
    assert_eq!(m.rows(), d, "matrix dimension mismatch");
    assert_eq!(m.cols(), d, "matrix dimension mismatch");
    validate_positions(traced, n);
    let kept: Vec<usize> = (0..n).filter(|q| !traced.contains(q)).collect();
    let nk = kept.len();
    let dk = 1usize << nk;
    let dt = 1usize << traced.len();
    let mut out = CMat::zeros(dk, dk);
    for a in 0..dk {
        let ia = deposit_sub_index(a, &kept, n);
        for b in 0..dk {
            let ib = deposit_sub_index(b, &kept, n);
            let mut acc = Complex::ZERO;
            for t in 0..dt {
                let it = deposit_sub_index(t, traced, n);
                acc += m[(ia | it, ib | it)];
            }
            out[(a, b)] = acc;
        }
    }
    out
}

/// Reorders the tensor factors of an `n`-qubit operator: in the result, the
/// qubit at position `q` is the input's qubit `perm[q]`.
///
/// # Panics
///
/// Panics unless `perm` is a permutation of `0..n`.
pub fn permute_qubits(m: &CMat, perm: &[usize], n: usize) -> CMat {
    assert_eq!(perm.len(), n, "permutation length mismatch");
    validate_positions(perm, n);
    let d = 1usize << n;
    assert_eq!(m.rows(), d, "matrix dimension mismatch");
    assert_eq!(m.cols(), d, "matrix dimension mismatch");
    let map = |i: usize| -> usize {
        let mut j = 0usize;
        for (q, &src) in perm.iter().enumerate() {
            j |= bit_of(i, src, n) << (n - 1 - q);
        }
        j
    };
    // out[map(i)][map(j)] = m[i][j] ⇒ out[i'][j'] = m[inv(i')][inv(j')];
    // build forward to avoid inverting.
    let mut out = CMat::zeros(d, d);
    for i in 0..d {
        let mi = map(i);
        for j in 0..d {
            out[(mi, map(j))] = m[(i, j)];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c, cr, TOL};
    use crate::par::test_support::{assert_every_instance_agrees, assert_same_bits, TestRng};

    fn x() -> CMat {
        CMat::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn h() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_real(2, 2, &[s, s, s, -s])
    }

    fn cx() -> CMat {
        CMat::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 1.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
        )
    }

    #[test]
    fn embed_diagonal_is_the_diagonal_of_embed() {
        let d = [0.5, -0.25, 1.0, 0.125];
        let op = CMat::diag(&d.map(Complex::real));
        for positions in [[0usize, 1], [1, 0], [2, 0], [1, 3]] {
            let dense = embed(&op, &positions, 4);
            let diag = embed_diagonal(&d, &positions, 4);
            assert_eq!(diag.len(), 16);
            for (i, x) in diag.iter().enumerate() {
                assert_eq!(dense[(i, i)].re.to_bits(), x.to_bits(), "{positions:?} {i}");
            }
        }
    }

    #[test]
    fn embed_matches_kron() {
        // X on qubit 0 of 3 = X ⊗ I ⊗ I
        let e = embed(&x(), &[0], 3);
        let expect = x().kron(&CMat::identity(4));
        assert!(e.approx_eq(&expect, TOL));
        // X on qubit 2 of 3 = I ⊗ I ⊗ X
        let e2 = embed(&x(), &[2], 3);
        let expect2 = CMat::identity(4).kron(&x());
        assert!(e2.approx_eq(&expect2, TOL));
    }

    #[test]
    fn embed_two_qubit_gate_ordered() {
        // CX with control q0, target q1 on 2 qubits is CX itself.
        let e = embed(&cx(), &[0, 1], 2);
        assert!(e.approx_eq(&cx(), TOL));
    }

    #[test]
    fn embed_reversed_positions_swaps_roles() {
        // CX on positions [1,0]: control is qubit 1, target qubit 0.
        let e = embed(&cx(), &[1, 0], 2);
        // |01⟩ (q0=0,q1=1) → |11⟩
        let v = CVec::basis(4, 0b01);
        let out = e.mul_vec(&v);
        assert!(out[0b11].approx_eq(Complex::ONE, TOL));
        // |10⟩ stays (control q1 = 0)
        let v2 = CVec::basis(4, 0b10);
        let out2 = e.mul_vec(&v2);
        assert!(out2[0b10].approx_eq(Complex::ONE, TOL));
    }

    #[test]
    fn apply_gate_vec_matches_embed() {
        let n = 4;
        let mut state = CVec::zeros(1 << n);
        // Superposition seed.
        for i in 0..(1 << n) {
            state[i] = c((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos());
        }
        let norm = state.norm();
        let state = state.scale(cr(1.0 / norm));
        for positions in [vec![0], vec![3], vec![1]] {
            let mut fast = state.clone();
            apply_gate_vec(&h(), &positions, n, &mut fast);
            let slow = embed(&h(), &positions, n).mul_vec(&state);
            assert!(fast.approx_eq(&slow, 1e-10), "positions {positions:?}");
        }
        // Two-qubit, non-adjacent, reversed order.
        for positions in [vec![0, 2], vec![3, 1], vec![2, 3]] {
            let mut fast = state.clone();
            apply_gate_vec(&cx(), &positions, n, &mut fast);
            let slow = embed(&cx(), &positions, n).mul_vec(&state);
            assert!(fast.approx_eq(&slow, 1e-10), "positions {positions:?}");
        }
    }

    #[test]
    fn conjugate_gate_matches_explicit() {
        let n = 3;
        let d = 1 << n;
        let m = CMat::from_fn(d, d, |i, j| {
            c((i + 2 * j) as f64 * 0.1, (i as f64 - j as f64) * 0.05)
        });
        let m = m.add_mat(&m.adjoint()).scale_re(0.5);
        for positions in [vec![1], vec![0, 2], vec![2, 0]] {
            let g = if positions.len() == 1 { h() } else { cx() };
            let big = embed(&g, &positions, n);
            let expect = big.conjugate(&m);
            let fast = conjugate_gate(&g, &positions, n, &m);
            assert!(fast.approx_eq(&expect, 1e-10), "positions {positions:?}");
            let expect_adj = big.adjoint_conjugate(&m);
            let fast_adj = adjoint_conjugate_gate(&g, &positions, n, &m);
            assert!(
                fast_adj.approx_eq(&expect_adj, 1e-10),
                "positions {positions:?}"
            );
        }
    }

    #[test]
    fn apply_gate_columns_matches_embed_per_column() {
        let n = 3;
        let d = 1 << n;
        let v = CMat::from_fn(d, 3, |i, j| {
            c((i + j) as f64 * 0.2, (i as f64 - j as f64) * 0.1)
        });
        for positions in [vec![1usize], vec![0, 2], vec![2, 0]] {
            let g = if positions.len() == 1 { h() } else { cx() };
            let mut fast = v.clone();
            apply_gate_columns(&g, &positions, n, &mut fast);
            let big = embed(&g, &positions, n);
            for j in 0..3 {
                let slow = big.mul_vec(&v.col(j));
                for i in 0..d {
                    assert!(
                        fast[(i, j)].approx_eq(slow.as_slice()[i], 1e-10),
                        "positions {positions:?} col {j}"
                    );
                }
            }
        }
        // Zero-width factors are a no-op.
        let mut empty = CMat::zeros(d, 0);
        apply_gate_columns(&h(), &[0], n, &mut empty);
        assert_eq!(empty.cols(), 0);
    }

    #[test]
    fn partial_trace_of_product_state() {
        // ρ = |0⟩⟨0| ⊗ |+⟩⟨+|; tracing qubit 1 gives |0⟩⟨0|.
        let p0 = CVec::basis(2, 0).projector();
        let plus = CVec::new(vec![cr(std::f64::consts::FRAC_1_SQRT_2); 2]).projector();
        let rho = p0.kron(&plus);
        let r = partial_trace(&rho, &[1], 2);
        assert!(r.approx_eq(&p0, TOL));
        let r2 = partial_trace(&rho, &[0], 2);
        assert!(r2.approx_eq(&plus, TOL));
    }

    #[test]
    fn partial_trace_preserves_trace() {
        let n = 3;
        let d = 1 << n;
        let g = CMat::from_fn(d, d, |i, j| c((i * j) as f64 * 0.01, (i + j) as f64 * 0.02));
        let rho = g.mul(&g.adjoint()); // PSD
        let t = rho.trace_re();
        let r = partial_trace(&rho, &[0, 2], n);
        assert!((r.trace_re() - t).abs() < 1e-9);
        assert_eq!(r.rows(), 2);
    }

    #[test]
    fn permute_qubits_round_trip() {
        let a = x().kron(&h()); // X on q0, H on q1
        let swapped = permute_qubits(&a, &[1, 0], 2);
        let expect = h().kron(&x());
        assert!(swapped.approx_eq(&expect, TOL));
        let back = permute_qubits(&swapped, &[1, 0], 2);
        assert!(back.approx_eq(&a, TOL));
    }

    #[test]
    fn bit_helpers() {
        // |q0 q1 q2⟩ = |1 0 1⟩ ⇒ index 0b101 = 5
        assert_eq!(index_of_bits(&[1, 0, 1]), 5);
        assert_eq!(bit_of(5, 0, 3), 1);
        assert_eq!(bit_of(5, 1, 3), 0);
        assert_eq!(bit_of(5, 2, 3), 1);
    }

    /// A gate on `positions` of an `n`-qubit register.
    type Case = (CMat, Vec<usize>, usize);

    /// The random shapes of the cross-instance sweep checks: `dk` from 2
    /// to 256 on unsorted positions of `k + extra_qubits` qubits.
    fn sweep_cases(rng: &mut TestRng, extra_qubits: usize) -> Vec<Case> {
        (1..=8)
            .map(|k| {
                let dk = 1usize << k;
                let gate = CMat::from_vec(dk, dk, rng.complexes(dk * dk));
                let n = k + extra_qubits;
                (gate, rng.positions(k, n), n)
            })
            .collect()
    }

    /// [`sweep_strided`] on a copy of `data`, with the plan's chunks run
    /// as the `isa` instance.
    fn swept(
        isa: Isa,
        (gate, positions, n): &Case,
        view: GateView,
        data: &[Complex],
        count: usize,
        stride: usize,
        offset_of: impl Fn(usize) -> usize + Sync,
    ) -> Vec<Complex> {
        let plan = GatePlan {
            isa,
            ..GatePlan::new(positions, *n)
        };
        let mut out = data.to_vec();
        sweep_strided(&plan, gate, view, &mut out, count, stride, offset_of);
        out
    }

    const VIEWS: [GateView; 4] = [
        GateView::AsIs,
        GateView::Conj,
        GateView::Adjoint,
        GateView::Transpose,
    ];

    // Every sweep shape (factor columns, the dense column and row sweeps
    // of `conjugate_views`, state vectors) under every gate view gives the
    // same bits on every instruction-set instance and thread count.

    #[test]
    fn factor_and_vector_sweeps_agree_across_instruction_sets() {
        let mut rng = TestRng::new(25);
        for case in sweep_cases(&mut rng, 1) {
            let d = 1usize << case.2;
            let factor = rng.complexes(d * 3);
            let vector = rng.complexes(d);
            for view in VIEWS {
                let what = format!("{:?} of {}, {view:?}", case.1, case.2);
                assert_every_instance_agrees(&format!("factor, {what}"), |isa| {
                    swept(isa, &case, view, &factor, 3, 3, |j| j)
                });
                assert_every_instance_agrees(&format!("vector, {what}"), |isa| {
                    swept(isa, &case, view, &vector, 1, 1, |_| 0)
                });
            }
        }
    }

    #[test]
    fn dense_row_and_column_sweeps_agree_across_instruction_sets() {
        let mut rng = TestRng::new(26);
        for case in sweep_cases(&mut rng, 0) {
            let d = 1usize << case.2;
            let m = rng.complexes(d * d);
            // The strides and offsets of `conjugate_views` on a `d × d`
            // matrix, over its first (at most) 8 columns and rows: a full
            // 256-wide dense sweep is 17M multiply-adds per view.
            let count = d.min(8);
            for view in VIEWS {
                let what = format!("{:?} of {}, {view:?}", case.1, case.2);
                assert_every_instance_agrees(&format!("columns, {what}"), |isa| {
                    swept(isa, &case, view, &m, count, d, |j| j)
                });
                assert_every_instance_agrees(&format!("rows, {what}"), |isa| {
                    swept(isa, &case, view, &m, count, 1, |i| i * d)
                });
            }
        }
    }

    #[test]
    fn sweeps_over_non_finite_inputs_agree_across_instruction_sets() {
        let mut rng = TestRng::new(27);
        let specials = [
            0.0,
            -0.0,
            1e-310,
            -4e-320,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for mut case in sweep_cases(&mut rng, 1).into_iter().take(5) {
            let mut factor = rng.complexes(2 << case.2);
            for (t, z) in case.0.as_mut_slice().iter_mut().enumerate().step_by(5) {
                z.re = specials[t % specials.len()];
            }
            for (t, z) in factor.iter_mut().enumerate().step_by(3) {
                z.im = specials[t % specials.len()];
            }
            for view in VIEWS {
                let what = format!("{:?} of {}, {view:?}", case.1, case.2);
                assert_every_instance_agrees(&what, |isa| {
                    swept(isa, &case, view, &factor, 2, 2, |j| j)
                });
            }
        }
    }

    /// The public sweeps run the host instance: bitwise the baseline.
    #[test]
    fn public_sweeps_run_the_host_instance() {
        let mut rng = TestRng::new(28);
        let case = (
            CMat::from_vec(8, 8, rng.complexes(64)),
            rng.positions(3, 5),
            5,
        );
        let m = CMat::from_vec(32, 32, rng.complexes(32 * 32));
        let left = swept(
            Isa::BASELINE,
            &case,
            GateView::Adjoint,
            m.as_slice(),
            32,
            32,
            |j| j,
        );
        let want = swept(
            Isa::BASELINE,
            &case,
            GateView::Transpose,
            &left,
            32,
            1,
            |i| i * 32,
        );
        let got = adjoint_conjugate_gate(&case.0, &case.1, case.2, &m);
        assert_same_bits(&want, got.as_slice(), "adjoint_conjugate_gate");
    }

    #[test]
    #[should_panic(expected = "duplicate qubit position")]
    fn duplicate_positions_panics() {
        embed(&cx(), &[1, 1], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_position_panics() {
        embed(&x(), &[3], 3);
    }

    // Every public sweep rejects a gate that is not 2^k × 2^k for its k
    // positions: matrix indexing only bounds-checks the flat offset, so
    // an unchecked wrong-size gate would be read out of shape silently.

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn apply_gate_vec_rejects_wrong_size_gate() {
        apply_gate_vec(&cx(), &[0], 2, &mut CVec::zeros(4));
    }

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn apply_gate_columns_rejects_non_square_gate() {
        let wide = CMat::zeros(2, 4);
        apply_gate_columns(&wide, &[0], 2, &mut CMat::zeros(4, 1));
    }

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn apply_gate_columns_adjoint_rejects_wrong_size_gate() {
        apply_gate_columns_adjoint(&cx(), &[1], 2, &mut CMat::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn apply_gate_left_rejects_wrong_size_gate() {
        apply_gate_left(&CMat::identity(8), &[1], 2, &mut CMat::zeros(4, 4));
    }

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn apply_gate_right_adjoint_rejects_wrong_size_gate() {
        apply_gate_right_adjoint(&h(), &[0, 1], 2, &mut CMat::zeros(4, 4));
    }

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn conjugate_gate_rejects_wrong_size_gate() {
        conjugate_gate(&CMat::identity(4), &[0], 2, &CMat::identity(4));
    }

    #[test]
    #[should_panic(expected = "gate size mismatch")]
    fn adjoint_conjugate_gate_rejects_non_square_gate() {
        let tall = CMat::zeros(4, 2);
        adjoint_conjugate_gate(&tall, &[0, 1], 2, &CMat::identity(4));
    }
}
