//! Structure-aware workload operators.
//!
//! The batch workloads the LRM paper targets — range, prefix, marginal,
//! WDiscrete — are extremely structured, yet a dense `m×n` [`Matrix`]
//! forgets all of it. [`MatrixOp`] is the abstraction every consumer of a
//! workload matrix `W` programs against instead: it exposes exactly the
//! products the mechanisms and the Algorithm-1 solver need (`W·x`, `Wᵀ·y`,
//! `W·R`, `L·W`, norms, column sums) so each representation can answer
//! them at its natural cost:
//!
//! * [`DenseOp`] — wraps a dense [`Matrix`]; every product is the existing
//!   cache-blocked GEMM. `O(m·n)` storage, `O(m·n·k)` products.
//! * [`CsrOp`] — compressed sparse rows; products stream the non-zeros
//!   (`O(nnz·k)`), with the same row-blocked `std::thread::scope`
//!   parallelism as the dense kernels above a flop threshold.
//! * [`IntervalsOp`] — rows that are contiguous `[lo, hi]` indicator
//!   ranges (range and prefix workloads). Products run in
//!   `O((m + n)·k)` via running sums — no per-entry work at all, and
//!   `O(m)` storage regardless of the domain size.
//!
//! [`MatrixOp::to_dense`] is the escape hatch back to a dense matrix. For
//! the structured implementations it increments a global **densification
//! counter** ([`densification_count`]) so tests can assert that a code
//! path — e.g. the whole LRM compile pipeline — never silently fell back
//! to `O(m·n)` materialization.

use crate::matrix::Matrix;
use crate::ops;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Flop threshold above which [`CsrOp`] products split rows across threads
/// (mirrors `PAR_THRESHOLD` in [`crate::ops`]).
const CSR_PAR_THRESHOLD: usize = 1 << 21;

/// How many times a structured (non-dense) operator has been densified via
/// [`MatrixOp::to_dense`] since process start (or the last
/// [`reset_densification_count`]).
static DENSIFICATIONS: AtomicU64 = AtomicU64::new(0);

/// Global count of structured-operator densifications. [`DenseOp`] does
/// not count — handing out a matrix that already exists is free.
pub fn densification_count() -> u64 {
    DENSIFICATIONS.load(Ordering::Relaxed)
}

/// Resets the densification counter to zero. Intended for tests that
/// assert a pipeline stays on the structured path; such tests must run in
/// their own process (integration-test binary) — the counter is global.
pub fn reset_densification_count() {
    DENSIFICATIONS.store(0, Ordering::Relaxed);
}

fn count_densification() {
    DENSIFICATIONS.fetch_add(1, Ordering::Relaxed);
}

/// A (possibly implicit) real `rows × cols` matrix, exposed through the
/// products the LRM pipeline needs. See the [module docs](self) for the
/// provided implementations and their costs.
///
/// Implementations must be [`Send`] + [`Sync`] — workloads share their
/// operator across threads via `Arc`.
pub trait MatrixOp: fmt::Debug + Send + Sync {
    /// Number of rows `m` (queries).
    fn rows(&self) -> usize;

    /// Number of columns `n` (domain size).
    fn cols(&self) -> usize;

    /// `(rows, cols)` pair.
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// `y = W·x` for a dense vector `x` of length `cols`.
    fn matvec(&self, x: &[f64]) -> Vec<f64>;

    /// `y = Wᵀ·x` for a dense vector `x` of length `rows`.
    fn matvec_t(&self, x: &[f64]) -> Vec<f64>;

    /// `C = W·R` for a dense `cols × k` matrix `R`; returns `rows × k`.
    fn apply_right(&self, rhs: &Matrix) -> Matrix;

    /// `C = L·W` for a dense `k × rows` matrix `L`; returns `k × cols`.
    fn apply_left(&self, lhs: &Matrix) -> Matrix;

    /// `C = W·Rᵀ` for a dense `k × cols` matrix `R`; returns `rows × k` —
    /// the `W·Lᵀ` product of the Eq. 9 B-update. Mirrors
    /// [`crate::ops::mul_tr`]; the dense implementation *is* that kernel,
    /// so the dense path's floating-point behavior is unchanged.
    fn mul_tr(&self, rhs: &Matrix) -> Matrix {
        self.apply_right(&rhs.transpose())
    }

    /// `C = Lᵀ·W` for a dense `rows × k` matrix `L`; returns `k × cols` —
    /// the `Bᵀ·W` product of the Formula 10 linear term. Mirrors
    /// [`crate::ops::tr_mul`].
    fn tr_mul(&self, lhs: &Matrix) -> Matrix {
        self.apply_left(&lhs.transpose())
    }

    /// `Σ_ij W_ij²` — the squared Frobenius norm.
    fn frobenius_sq(&self) -> f64;

    /// Per-column absolute sums `Σ_i |W_ij|` — the L1-sensitivity vector.
    fn col_abs_sums(&self) -> Vec<f64>;

    /// Writes row `i` densely into `out` (length `cols`, fully
    /// overwritten). This is the generic row access the fallbacks, the
    /// fingerprint, and logical comparison build on.
    fn fill_row(&self, i: usize, out: &mut [f64]);

    /// `out += W` for a dense `rows × cols` matrix — the building block of
    /// residual computation (`W − B·L` is `-(B·L) + W`) that never
    /// materializes `W` itself.
    fn add_to(&self, out: &mut Matrix) {
        debug_assert_eq!(out.shape(), self.shape());
        let n = self.cols();
        let mut buf = vec![0.0; n];
        for i in 0..self.rows() {
            self.fill_row(i, &mut buf);
            let row = out.row_mut(i);
            for (o, &v) in row.iter_mut().zip(buf.iter()) {
                *o += v;
            }
        }
    }

    /// Number of stored (structurally non-zero) entries; `m·n` for dense.
    fn nnz(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Coarse structural class tag ("dense", "sparse", "intervals") used
    /// to partition similarity searches over cached strategies: seeding a
    /// warm start across representations is legal but rarely profitable,
    /// so the index only compares like with like.
    fn structure_class(&self) -> &'static str {
        "dense"
    }

    /// The exact partition of the columns into classes of bit-identical
    /// columns (see [`ColumnClasses`]). A property of `W` alone, so it is
    /// data-independent.
    ///
    /// The default refines the partition row by row through
    /// [`fill_row`](Self::fill_row), comparing IEEE bit patterns, and
    /// stops as soon as every column is its own class.
    fn column_classes(&self) -> ColumnClasses {
        let n = self.cols();
        let mut labels = vec![0usize; n];
        let mut count = 1;
        let mut buf = vec![0.0; n];
        let mut split: HashMap<(usize, u64), usize> = HashMap::new();
        for i in 0..self.rows() {
            if count == n {
                break;
            }
            self.fill_row(i, &mut buf);
            split.clear();
            for (label, &v) in labels.iter_mut().zip(buf.iter()) {
                let next = split.len();
                *label = *split.entry((*label, v.to_bits())).or_insert(next);
            }
            count = split.len();
        }
        ColumnClasses::from_labels(labels)
    }

    /// Escape hatch: materializes the dense matrix. Structured
    /// implementations bump the global [`densification_count`].
    fn to_dense(&self) -> Matrix {
        count_densification();
        let (m, n) = self.shape();
        let mut out = Matrix::zeros(m, n);
        let mut buf = vec![0.0; n];
        for i in 0..m {
            self.fill_row(i, &mut buf);
            out.row_mut(i).copy_from_slice(&buf);
        }
        out
    }

    /// The column Gram matrix `Wᵀ·W` (`n×n`), accumulated by streaming
    /// rows (`Σ_i w_i·w_iᵀ`, skipping zeros so sparse rows cost
    /// `O(nnz_row²)`) — never densifying `W` itself.
    fn gram_cols(&self) -> Matrix {
        let (m, n) = self.shape();
        let mut g = Matrix::zeros(n, n);
        let mut buf = vec![0.0; n];
        for i in 0..m {
            self.fill_row(i, &mut buf);
            for (j, &vj) in buf.iter().enumerate() {
                if vj == 0.0 {
                    continue;
                }
                let row = g.row_mut(j);
                for (k, &vk) in buf.iter().enumerate() {
                    if vk != 0.0 {
                        row[k] += vj * vk;
                    }
                }
            }
        }
        g
    }

    /// The Gram matrix of the smaller side without densifying `W`:
    /// `W·Wᵀ` (`m×m`) when `rows ≤ cols`, else `Wᵀ·W` (`n×n`).
    /// Returns `(gram, rows_side)` with `rows_side == true` for `W·Wᵀ`.
    ///
    /// This is what makes the workload SVD (rank detection, the Lemma 3
    /// initializer) operator-aware: an eigendecomposition of the small
    /// Gram plus `min(m,n)` structured matvecs replaces the dense SVD.
    fn gram_small(&self) -> (Matrix, bool) {
        let (m, n) = self.shape();
        if m <= n {
            // Column j of W·Wᵀ is W · (row j of W).
            let mut g = Matrix::zeros(m, m);
            let mut buf = vec![0.0; n];
            for j in 0..m {
                self.fill_row(j, &mut buf);
                let col = self.matvec(&buf);
                g.set_col(j, &col);
            }
            (g, true)
        } else {
            (self.gram_cols(), false)
        }
    }
}

/// Logical (entry-wise) equality of two operators, compared row by row
/// with `O(cols)` scratch — never densifying either side. This is the
/// collision check the engine's strategy cache uses in place of a dense
/// matrix compare.
pub fn op_logical_eq(a: &dyn MatrixOp, b: &dyn MatrixOp) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    let n = a.cols();
    let mut ra = vec![0.0; n];
    let mut rb = vec![0.0; n];
    for i in 0..a.rows() {
        a.fill_row(i, &mut ra);
        b.fill_row(i, &mut rb);
        // Bit-level compare, matching the fingerprint's notion of identity
        // (distinguishes 0.0 from -0.0, as the hash does).
        if ra
            .iter()
            .zip(rb.iter())
            .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Column classes
// ---------------------------------------------------------------------------

/// A partition of a matrix's `n` columns into `k` classes of identical
/// columns, numbered in order of first appearance (class 0 holds column
/// 0). Workloads snapped to a boundary grid repeat each column across a
/// whole grid cell, so `k` is often far below `n`; a solver may then work
/// over one column per class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnClasses {
    class_of: Vec<usize>,
    sizes: Vec<usize>,
}

impl ColumnClasses {
    /// Builds the partition from one label per column: columns with equal
    /// labels share a class. Labels are arbitrary; classes are renumbered
    /// in order of first appearance.
    pub fn from_labels(labels: Vec<usize>) -> Self {
        let mut renumber: HashMap<usize, usize> = HashMap::new();
        let mut sizes = Vec::new();
        let class_of = labels
            .into_iter()
            .map(|label| {
                let next = renumber.len();
                let c = *renumber.entry(label).or_insert(next);
                if c == sizes.len() {
                    sizes.push(0);
                }
                sizes[c] += 1;
                c
            })
            .collect();
        Self { class_of, sizes }
    }

    /// Number of classes `k`.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Number of columns `n`.
    pub fn cols(&self) -> usize {
        self.class_of.len()
    }

    /// Whether every column is its own class (`k = n`).
    pub fn is_trivial(&self) -> bool {
        self.count() == self.cols()
    }

    /// The class of each column.
    pub fn class_of(&self) -> &[usize] {
        &self.class_of
    }

    /// The number of columns `d_c` in each class.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }
}

// ---------------------------------------------------------------------------
// Coarse spec signatures
// ---------------------------------------------------------------------------

/// A coarse, shape-robust signature of where a workload puts its mass
/// along the domain: the per-column absolute sums aggregated into
/// `buckets` equal-width bins and normalized to sum 1 (all-zero
/// workloads return all zeros). Two near-duplicate workloads — the same
/// dashboard panel at 33 cuts vs 34 — land on nearly identical profiles
/// even though their fingerprints differ, which is what makes the
/// profile usable as a similarity key for warm-starting the ALM solver
/// from a cached decomposition. Cost is one `col_abs_sums` pass
/// (`O(nnz)` structured), never a densification.
pub fn coarse_column_profile(op: &dyn MatrixOp, buckets: usize) -> Vec<f64> {
    assert!(buckets > 0, "profile needs at least one bucket");
    let n = op.cols();
    let mut profile = vec![0.0; buckets];
    if n == 0 {
        return profile;
    }
    let sums = op.col_abs_sums();
    for (j, &s) in sums.iter().enumerate() {
        // Equal-width bins over the domain; j·buckets/n is exact in f64
        // for any realistic n and keeps bucket edges deterministic.
        let bucket = (j * buckets / n).min(buckets - 1);
        profile[bucket] += s;
    }
    let total: f64 = profile.iter().sum();
    if total > 0.0 && total.is_finite() {
        for p in profile.iter_mut() {
            *p /= total;
        }
    }
    profile
}

/// L1 distance between two [`coarse_column_profile`] signatures. Both
/// inputs are normalized to sum 1, so the distance lives in `[0, 2]`;
/// profiles of different lengths are incomparable and return `+∞`.
pub fn profile_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
}

// ---------------------------------------------------------------------------
// DenseOp
// ---------------------------------------------------------------------------

/// [`MatrixOp`] over an explicit dense [`Matrix`]; all products delegate to
/// the cache-blocked kernels in [`crate::ops`].
///
/// The matrix is held behind an `Arc` so callers that need the dense form
/// anyway (e.g. `Workload::matrix`) can share it without a copy.
#[derive(Debug, Clone)]
pub struct DenseOp {
    matrix: std::sync::Arc<Matrix>,
}

impl DenseOp {
    /// Wraps a dense matrix.
    pub fn new(matrix: Matrix) -> Self {
        Self {
            matrix: std::sync::Arc::new(matrix),
        }
    }

    /// Wraps an already-shared dense matrix.
    pub fn shared(matrix: std::sync::Arc<Matrix>) -> Self {
        Self { matrix }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// The shared handle to the wrapped matrix.
    pub fn matrix_arc(&self) -> std::sync::Arc<Matrix> {
        std::sync::Arc::clone(&self.matrix)
    }
}

impl MatrixOp for DenseOp {
    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        ops::mul_vec(&self.matrix, x).expect("operator matvec shape")
    }

    fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        ops::tr_mul_vec(&self.matrix, x).expect("operator matvec_t shape")
    }

    fn apply_right(&self, rhs: &Matrix) -> Matrix {
        ops::matmul(&self.matrix, rhs).expect("operator apply_right shape")
    }

    fn apply_left(&self, lhs: &Matrix) -> Matrix {
        ops::matmul(lhs, &self.matrix).expect("operator apply_left shape")
    }

    fn mul_tr(&self, rhs: &Matrix) -> Matrix {
        ops::mul_tr(&self.matrix, rhs).expect("operator mul_tr shape")
    }

    fn tr_mul(&self, lhs: &Matrix) -> Matrix {
        ops::tr_mul(lhs, &self.matrix).expect("operator tr_mul shape")
    }

    fn frobenius_sq(&self) -> f64 {
        self.matrix.squared_sum()
    }

    fn col_abs_sums(&self) -> Vec<f64> {
        self.matrix.col_abs_sums()
    }

    fn fill_row(&self, i: usize, out: &mut [f64]) {
        out.copy_from_slice(self.matrix.row(i));
    }

    fn add_to(&self, out: &mut Matrix) {
        out.axpy(1.0, &self.matrix).expect("operator add_to shape");
    }

    /// A dense operator's matrix already exists — no densification is
    /// counted.
    fn to_dense(&self) -> Matrix {
        (*self.matrix).clone()
    }

    fn gram_cols(&self) -> Matrix {
        ops::gram(&self.matrix)
    }

    fn gram_small(&self) -> (Matrix, bool) {
        let (m, n) = self.matrix.shape();
        if m <= n {
            (
                ops::mul_tr(&self.matrix, &self.matrix).expect("gram shape"),
                true,
            )
        } else {
            (ops::gram(&self.matrix), false)
        }
    }
}

// ---------------------------------------------------------------------------
// CsrOp
// ---------------------------------------------------------------------------

/// Compressed-sparse-row storage: `row_ptr[i]..row_ptr[i+1]` indexes the
/// `(col_idx, values)` pairs of row `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrOp {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrOp {
    /// Builds CSR storage from per-row `(column, value)` lists. Columns
    /// within a row must be strictly increasing; `+0.0` values are
    /// dropped. `-0.0` is kept as an explicit entry: `fill_row` must
    /// reproduce the logical matrix *bit-exactly* (the fingerprint and
    /// the cache's logical-equality check compare IEEE bit patterns), and
    /// an implicit zero reads back as `+0.0`.
    ///
    /// # Panics
    /// Panics on out-of-range or non-increasing column indices, or a zero
    /// dimension.
    pub fn from_row_entries(rows: usize, cols: usize, entries: &[Vec<(usize, f64)>]) -> Self {
        assert!(rows > 0 && cols > 0, "CsrOp dimensions must be positive");
        assert_eq!(entries.len(), rows, "one entry list per row");
        assert!(cols <= u32::MAX as usize, "column index must fit in u32");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in entries {
            let mut last: Option<usize> = None;
            for &(c, v) in row {
                assert!(c < cols, "column {c} out of range for {cols} columns");
                assert!(
                    last.is_none_or(|p| c > p),
                    "columns within a row must be strictly increasing"
                );
                last = Some(c);
                if v.to_bits() != 0.0f64.to_bits() {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Compresses a dense matrix, dropping `+0.0` entries (`-0.0` is kept
    /// explicitly so the round trip is bit-exact; see
    /// [`CsrOp::from_row_entries`]).
    pub fn from_dense(matrix: &Matrix) -> Self {
        let entries: Vec<Vec<(usize, f64)>> = matrix
            .rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|(_, &v)| v.to_bits() != 0.0f64.to_bits())
                    .map(|(j, &v)| (j, v))
                    .collect()
            })
            .collect();
        Self::from_row_entries(matrix.rows(), matrix.cols(), &entries)
    }

    /// `(col_idx, values)` slices of row `i`.
    #[inline]
    fn row_entries(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// SpMM over output rows `r0..r1`, writing into `out` (a `k`-wide
    /// row-major slab for those rows).
    fn spmm_rows(&self, rhs: &Matrix, out: &mut [f64], r0: usize, r1: usize) {
        let k = rhs.cols();
        for i in r0..r1 {
            let out_row = &mut out[(i - r0) * k..(i - r0 + 1) * k];
            let (cols, vals) = self.row_entries(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let rhs_row = rhs.row(c as usize);
                for (o, &r) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += v * r;
                }
            }
        }
    }
}

impl MatrixOp for CsrOp {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn structure_class(&self) -> &'static str {
        "sparse"
    }

    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| {
                let (cols, vals) = self.row_entries(i);
                cols.iter()
                    .zip(vals.iter())
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum()
            })
            .collect()
    }

    fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.rows);
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row_entries(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                y[c as usize] += v * xi;
            }
        }
        y
    }

    /// Row-blocked SpMM, split across threads above a flop threshold —
    /// the sparsity-aware sibling of the dense parallel GEMM in
    /// [`crate::ops`].
    fn apply_right(&self, rhs: &Matrix) -> Matrix {
        debug_assert_eq!(rhs.rows(), self.cols);
        let k = rhs.cols();
        let mut out = Matrix::zeros(self.rows, k);
        let work = self.values.len() * k;
        if work >= CSR_PAR_THRESHOLD {
            let threads = std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
                .min(self.rows)
                .max(1);
            let rows_per = self.rows.div_ceil(threads);
            let chunks: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(rows_per * k).collect();
            std::thread::scope(|scope| {
                for (t, chunk) in chunks.into_iter().enumerate() {
                    let r0 = t * rows_per;
                    let r1 = (r0 + chunk.len() / k).min(self.rows);
                    scope.spawn(move || {
                        self.spmm_rows(rhs, chunk, r0, r1);
                    });
                }
            });
        } else {
            self.spmm_rows(rhs, out.as_mut_slice(), 0, self.rows);
        }
        out
    }

    fn apply_left(&self, lhs: &Matrix) -> Matrix {
        debug_assert_eq!(lhs.cols(), self.rows);
        let k = lhs.rows();
        let mut out = Matrix::zeros(k, self.cols);
        // (L·W)[t, :] = Σ_i L[t, i] · W[i, :] — stream W's rows once per
        // output row.
        for t in 0..k {
            let l_row = lhs.row(t);
            let out_row = out.row_mut(t);
            for (i, &lv) in l_row.iter().enumerate() {
                if lv == 0.0 {
                    continue;
                }
                let (cols, vals) = self.row_entries(i);
                for (&c, &v) in cols.iter().zip(vals.iter()) {
                    out_row[c as usize] += lv * v;
                }
            }
        }
        out
    }

    fn frobenius_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    fn col_abs_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (&c, &v) in self.col_idx.iter().zip(self.values.iter()) {
            sums[c as usize] += v.abs();
        }
        sums
    }

    fn fill_row(&self, i: usize, out: &mut [f64]) {
        out.fill(0.0);
        let (cols, vals) = self.row_entries(i);
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            out[c as usize] = v;
        }
    }

    fn add_to(&self, out: &mut Matrix) {
        debug_assert_eq!(out.shape(), self.shape());
        for i in 0..self.rows {
            let (cols, vals) = self.row_entries(i);
            let row = out.row_mut(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                row[c as usize] += v;
            }
        }
    }

    fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Groups columns by their exact `(row, value bits)` entry lists, read
    /// off a column-major bucketing of the stored entries — `O(nnz + n)`.
    /// An explicit `-0.0` entry differs from an implicit `+0.0`, as in
    /// [`fill_row`](MatrixOp::fill_row).
    fn column_classes(&self) -> ColumnClasses {
        let mut columns: Vec<Vec<(u32, u64)>> = vec![Vec::new(); self.cols];
        for i in 0..self.rows {
            let (cols, vals) = self.row_entries(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                columns[c as usize].push((i as u32, v.to_bits()));
            }
        }
        let mut ids: HashMap<Vec<(u32, u64)>, usize> = HashMap::new();
        let labels = columns
            .into_iter()
            .map(|entries| {
                let next = ids.len();
                *ids.entry(entries).or_insert(next)
            })
            .collect();
        ColumnClasses::from_labels(labels)
    }
}

// ---------------------------------------------------------------------------
// IntervalsOp
// ---------------------------------------------------------------------------

/// Implicit operator for interval-indicator workloads: row `i` is 1 on the
/// inclusive column range `[lo_i, hi_i]` and 0 elsewhere. Range-count and
/// prefix-sum workloads are exactly this shape.
///
/// Storage is `O(m)`; every product runs through running sums in
/// `O((m + n)·k)` — at `n = 8192` that is three orders of magnitude fewer
/// operations than the dense GEMM, and the reason the scaling sweep can
/// push the LRM compile past the former dense ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalsOp {
    /// Inclusive `(lo, hi)` per row.
    intervals: Vec<(u32, u32)>,
    cols: usize,
}

impl IntervalsOp {
    /// Builds the operator from inclusive `(lo, hi)` ranges.
    ///
    /// # Panics
    /// Panics on an empty row set, a zero domain, or `lo > hi` /
    /// `hi >= cols`.
    pub fn new(cols: usize, intervals: Vec<(usize, usize)>) -> Self {
        assert!(cols > 0, "IntervalsOp needs a positive domain");
        assert!(!intervals.is_empty(), "IntervalsOp needs at least one row");
        assert!(cols <= u32::MAX as usize, "domain must fit in u32");
        let intervals = intervals
            .into_iter()
            .map(|(lo, hi)| {
                assert!(
                    lo <= hi && hi < cols,
                    "invalid interval [{lo}, {hi}] for {cols} columns"
                );
                (lo as u32, hi as u32)
            })
            .collect();
        Self { intervals, cols }
    }

    /// The prefix-sum workload: rows `[0, end_i]` for the given inclusive
    /// ends.
    pub fn prefixes(cols: usize, ends: Vec<usize>) -> Self {
        Self::new(cols, ends.into_iter().map(|e| (0, e)).collect())
    }

    /// The inclusive `(lo, hi)` ranges, one per row.
    pub fn intervals(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.intervals
            .iter()
            .map(|&(lo, hi)| (lo as usize, hi as usize))
    }
}

impl MatrixOp for IntervalsOp {
    fn rows(&self) -> usize {
        self.intervals.len()
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn structure_class(&self) -> &'static str {
        "intervals"
    }

    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.cols);
        // prefix[j] = x_0 + … + x_{j-1}; each row is one subtraction.
        let mut prefix = Vec::with_capacity(self.cols + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &v in x {
            acc += v;
            prefix.push(acc);
        }
        self.intervals
            .iter()
            .map(|&(lo, hi)| prefix[hi as usize + 1] - prefix[lo as usize])
            .collect()
    }

    fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.intervals.len());
        // Difference array: add x_i on [lo, hi], one prefix pass at the end.
        let mut diff = vec![0.0; self.cols + 1];
        for (&(lo, hi), &xi) in self.intervals.iter().zip(x.iter()) {
            diff[lo as usize] += xi;
            diff[hi as usize + 1] -= xi;
        }
        let mut acc = 0.0;
        let mut y = Vec::with_capacity(self.cols);
        for &d in diff.iter().take(self.cols) {
            acc += d;
            y.push(acc);
        }
        y
    }

    fn apply_right(&self, rhs: &Matrix) -> Matrix {
        debug_assert_eq!(rhs.rows(), self.cols);
        let k = rhs.cols();
        // Column-wise prefix sums of R: P[j] = Σ_{t<j} R[t, :].
        let mut prefix = Matrix::zeros(self.cols + 1, k);
        for j in 0..self.cols {
            let (done, rest) = prefix.as_mut_slice().split_at_mut((j + 1) * k);
            let prev = &done[j * k..(j + 1) * k];
            let next = &mut rest[..k];
            for ((nx, &pv), &rv) in next.iter_mut().zip(prev.iter()).zip(rhs.row(j).iter()) {
                *nx = pv + rv;
            }
        }
        let mut out = Matrix::zeros(self.intervals.len(), k);
        for (i, &(lo, hi)) in self.intervals.iter().enumerate() {
            let top = prefix.row(hi as usize + 1).to_vec();
            let bot = prefix.row(lo as usize);
            let out_row = out.row_mut(i);
            for ((o, t), &b) in out_row.iter_mut().zip(top.iter()).zip(bot.iter()) {
                *o = t - b;
            }
        }
        out
    }

    fn apply_left(&self, lhs: &Matrix) -> Matrix {
        debug_assert_eq!(lhs.cols(), self.intervals.len());
        let k = lhs.rows();
        let mut out = Matrix::zeros(k, self.cols);
        // Each output row is a difference-array pass over that row of L.
        let mut diff = vec![0.0; self.cols + 1];
        for t in 0..k {
            diff.fill(0.0);
            for (&(lo, hi), &lv) in self.intervals.iter().zip(lhs.row(t).iter()) {
                diff[lo as usize] += lv;
                diff[hi as usize + 1] -= lv;
            }
            let mut acc = 0.0;
            for (o, &d) in out.row_mut(t).iter_mut().zip(diff.iter()) {
                acc += d;
                *o = acc;
            }
        }
        out
    }

    /// `W·Rᵀ` without materializing `Rᵀ`: row-wise prefix sums of `R`,
    /// then one subtraction per (interval, row-of-R) pair — `O((n + m)·k)`.
    fn mul_tr(&self, rhs: &Matrix) -> Matrix {
        debug_assert_eq!(rhs.cols(), self.cols);
        let k = rhs.rows();
        let m = self.intervals.len();
        let mut out = Matrix::zeros(m, k);
        let mut prefix = vec![0.0; self.cols + 1];
        for t in 0..k {
            let r_row = rhs.row(t);
            let mut acc = 0.0;
            for (p, &v) in prefix[1..].iter_mut().zip(r_row.iter()) {
                acc += v;
                *p = acc;
            }
            for (i, &(lo, hi)) in self.intervals.iter().enumerate() {
                out.row_mut(i)[t] = prefix[hi as usize + 1] - prefix[lo as usize];
            }
        }
        out
    }

    /// `Lᵀ·W` without materializing `Lᵀ`: one difference-array pass per
    /// column of `L` — `O((m + n)·k)`.
    fn tr_mul(&self, lhs: &Matrix) -> Matrix {
        debug_assert_eq!(lhs.rows(), self.intervals.len());
        let k = lhs.cols();
        let mut out = Matrix::zeros(k, self.cols);
        let mut diff = vec![0.0; self.cols + 1];
        for t in 0..k {
            diff.fill(0.0);
            for (&(lo, hi), l_row) in self.intervals.iter().zip(lhs.rows_iter()) {
                let lv = l_row[t];
                diff[lo as usize] += lv;
                diff[hi as usize + 1] -= lv;
            }
            let mut acc = 0.0;
            for (o, &d) in out.row_mut(t).iter_mut().zip(diff.iter()) {
                acc += d;
                *o = acc;
            }
        }
        out
    }

    fn frobenius_sq(&self) -> f64 {
        self.intervals
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as f64)
            .sum()
    }

    fn col_abs_sums(&self) -> Vec<f64> {
        let ones = vec![1.0; self.intervals.len()];
        self.matvec_t(&ones)
    }

    fn fill_row(&self, i: usize, out: &mut [f64]) {
        out.fill(0.0);
        let (lo, hi) = self.intervals[i];
        out[lo as usize..=hi as usize].fill(1.0);
    }

    fn add_to(&self, out: &mut Matrix) {
        debug_assert_eq!(out.shape(), self.shape());
        for (i, &(lo, hi)) in self.intervals.iter().enumerate() {
            for v in &mut out.row_mut(i)[lo as usize..=hi as usize] {
                *v += 1.0;
            }
        }
    }

    fn nnz(&self) -> usize {
        self.intervals
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as usize)
            .sum()
    }

    /// Columns `s < t` are identical iff every interval covering one
    /// covers the other, which holds iff both share the smallest `hi` and
    /// the largest `lo` over the intervals covering them (the interval
    /// attaining each covers both columns, so neither can stop or start
    /// between them). One sweep with two heaps computes that key per
    /// column — `O(n + m log m)`; uncovered columns share the empty key.
    fn column_classes(&self) -> ColumnClasses {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut by_lo: Vec<(u32, u32)> = self.intervals.clone();
        by_lo.sort_unstable();
        let mut next = 0;
        let mut min_hi: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut max_lo: BinaryHeap<(u32, u32)> = BinaryHeap::new();
        let mut ids: HashMap<Option<(u32, u32)>, usize> = HashMap::new();
        let labels = (0..self.cols as u32)
            .map(|j| {
                while next < by_lo.len() && by_lo[next].0 == j {
                    min_hi.push(Reverse(by_lo[next].1));
                    max_lo.push(by_lo[next]);
                    next += 1;
                }
                while min_hi.peek().is_some_and(|&Reverse(hi)| hi < j) {
                    min_hi.pop();
                }
                while max_lo.peek().is_some_and(|&(_, hi)| hi < j) {
                    max_lo.pop();
                }
                let key = min_hi
                    .peek()
                    .zip(max_lo.peek())
                    .map(|(&Reverse(hi), &(lo, _))| (hi, lo));
                let fresh = ids.len();
                *ids.entry(key).or_insert(fresh)
            })
            .collect();
        ColumnClasses::from_labels(labels)
    }

    fn gram_small(&self) -> (Matrix, bool) {
        let m = self.intervals.len();
        if m <= self.cols {
            // (W·Wᵀ)_{ij} = |[lo_i, hi_i] ∩ [lo_j, hi_j]| — O(m²) directly.
            let mut g = Matrix::zeros(m, m);
            for i in 0..m {
                let (li, hi) = self.intervals[i];
                for j in i..m {
                    let (lj, hj) = self.intervals[j];
                    let lo = li.max(lj);
                    let hi_ = hi.min(hj);
                    let overlap = if lo <= hi_ {
                        (hi_ - lo + 1) as f64
                    } else {
                        0.0
                    };
                    g.set(i, j, overlap);
                    g.set(j, i, overlap);
                }
            }
            (g, true)
        } else {
            // Tall-and-thin interval workloads are rare; use the generic
            // row-streaming accumulation.
            let mut g = Matrix::zeros(self.cols, self.cols);
            for &(lo, hi) in &self.intervals {
                for j in lo as usize..=hi as usize {
                    let row = g.row_mut(j);
                    for v in &mut row[lo as usize..=hi as usize] {
                        *v += 1.0;
                    }
                }
            }
            (g, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn sparse_pattern(rows: usize, cols: usize, seed: u64) -> Matrix {
        let dense = pseudo_random(rows, cols, seed);
        dense.map(|v| if v > 0.6 { v } else { 0.0 })
    }

    fn interval_op(cols: usize, seed: u64, rows: usize) -> IntervalsOp {
        let mut state = seed | 1;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let intervals: Vec<(usize, usize)> = (0..rows)
            .map(|_| {
                let a = next(cols);
                let b = next(cols);
                (a.min(b), a.max(b))
            })
            .collect();
        IntervalsOp::new(cols, intervals)
    }

    fn dense_of(op: &dyn MatrixOp) -> Matrix {
        let (m, n) = op.shape();
        let mut out = Matrix::zeros(m, n);
        let mut buf = vec![0.0; n];
        for i in 0..m {
            op.fill_row(i, &mut buf);
            out.row_mut(i).copy_from_slice(&buf);
        }
        out
    }

    fn check_against_dense(op: &dyn MatrixOp, tol: f64) {
        let (m, n) = op.shape();
        let reference = dense_of(op);
        let x: Vec<f64> = (0..n).map(|j| (j as f64) * 0.37 - 1.0).collect();
        let y: Vec<f64> = (0..m).map(|i| (i as f64) * -0.21 + 0.5).collect();

        let got = op.matvec(&x);
        let want = ops::mul_vec(&reference, &x).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() <= tol, "matvec {g} vs {w}");
        }

        let got_t = op.matvec_t(&y);
        let want_t = ops::tr_mul_vec(&reference, &y).unwrap();
        for (g, w) in got_t.iter().zip(want_t.iter()) {
            assert!((g - w).abs() <= tol, "matvec_t {g} vs {w}");
        }

        let rhs = pseudo_random(n, 3, 99);
        assert!(op
            .apply_right(&rhs)
            .approx_eq(&ops::matmul(&reference, &rhs).unwrap(), tol));

        let lhs = pseudo_random(3, m, 98);
        assert!(op
            .apply_left(&lhs)
            .approx_eq(&ops::matmul(&lhs, &reference).unwrap(), tol));

        assert!((op.frobenius_sq() - reference.squared_sum()).abs() <= tol);
        let cs = op.col_abs_sums();
        let want_cs = reference.col_abs_sums();
        for (g, w) in cs.iter().zip(want_cs.iter()) {
            assert!((g - w).abs() <= tol, "col_abs_sums {g} vs {w}");
        }

        let mut acc = pseudo_random(m, n, 55);
        let mut want_acc = acc.clone();
        op.add_to(&mut acc);
        want_acc.axpy(1.0, &reference).unwrap();
        assert!(acc.approx_eq(&want_acc, tol));

        let (g, rows_side) = op.gram_small();
        let want_g = if rows_side {
            ops::mul_tr(&reference, &reference).unwrap()
        } else {
            ops::gram(&reference)
        };
        assert!(g.approx_eq(&want_g, tol * (1.0 + reference.squared_sum())));
    }

    #[test]
    fn dense_op_matches_matrix() {
        let op = DenseOp::new(pseudo_random(7, 11, 1));
        check_against_dense(&op, 1e-12);
        assert_eq!(op.nnz(), 77);
    }

    #[test]
    fn csr_matches_dense_reference() {
        for &(m, n, seed) in &[(6usize, 9usize, 2u64), (13, 5, 3), (20, 20, 4)] {
            let pattern = sparse_pattern(m, n, seed);
            let op = CsrOp::from_dense(&pattern);
            check_against_dense(&op, 1e-12);
            assert!(op.nnz() < m * n, "pattern should be sparse");
        }
    }

    #[test]
    fn intervals_match_dense_reference() {
        for &(m, n, seed) in &[(5usize, 16usize, 5u64), (12, 8, 6), (40, 33, 7)] {
            let op = interval_op(n, seed, m);
            check_against_dense(&op, 1e-9);
        }
    }

    #[test]
    fn prefix_constructor() {
        let op = IntervalsOp::prefixes(6, vec![1, 3, 5]);
        let mut row = vec![0.0; 6];
        op.fill_row(0, &mut row);
        assert_eq!(row, vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        op.fill_row(2, &mut row);
        assert_eq!(row, vec![1.0; 6]);
        assert_eq!(op.nnz(), 2 + 4 + 6);
    }

    #[test]
    fn densification_counter_counts_structured_only() {
        let before = densification_count();
        let dense = DenseOp::new(pseudo_random(3, 3, 8));
        let _ = dense.to_dense();
        assert_eq!(densification_count(), before, "DenseOp must not count");

        let op = IntervalsOp::new(4, vec![(0, 2)]);
        let d = op.to_dense();
        assert_eq!(d.row(0), &[1.0, 1.0, 1.0, 0.0]);
        assert_eq!(densification_count(), before + 1);

        let csr = CsrOp::from_dense(&sparse_pattern(4, 4, 9));
        let _ = csr.to_dense();
        assert_eq!(densification_count(), before + 2);
    }

    #[test]
    fn logical_equality_across_representations() {
        let op = interval_op(12, 10, 7);
        let dense = DenseOp::new(dense_of(&op));
        let csr = CsrOp::from_dense(dense.matrix());
        assert!(op_logical_eq(&op, &dense));
        assert!(op_logical_eq(&dense, &csr));
        assert!(op_logical_eq(&op, &csr));

        let other = interval_op(12, 13, 7);
        assert!(!op_logical_eq(&op, &other));
        let smaller = IntervalsOp::new(12, vec![(0, 3)]);
        assert!(!op_logical_eq(&op, &smaller));
    }

    #[test]
    fn csr_preserves_negative_zero_bits() {
        // -0.0 must survive the CSR round trip bit-exactly: the
        // fingerprint and op_logical_eq compare IEEE bit patterns.
        let mut m = Matrix::zeros(2, 3);
        m.set(0, 1, -0.0);
        m.set(1, 2, 4.0);
        let csr = CsrOp::from_dense(&m);
        assert_eq!(csr.nnz(), 2, "-0.0 is an explicit entry, +0.0 is not");
        assert!(op_logical_eq(&csr, &DenseOp::new(m)));
    }

    #[test]
    fn csr_parallel_path_matches() {
        // Enough nnz·k to cross the parallel threshold.
        let pattern = sparse_pattern(600, 600, 11);
        let op = CsrOp::from_dense(&pattern);
        let rhs = pseudo_random(600, 16, 12);
        let got = op.apply_right(&rhs);
        let want = ops::matmul(&pattern, &rhs).unwrap();
        assert!(got.approx_eq(&want, 1e-9));
    }

    #[test]
    fn interval_column_classes_join_columns_across_a_nested_interval() {
        // Columns 0-2 and 5-10 are covered by the outer interval alone,
        // 3-4 also by the inner one, and 11 by neither.
        let op = IntervalsOp::new(12, vec![(0, 10), (3, 4)]);
        let classes = op.column_classes();
        assert_eq!(classes.class_of(), &[0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(classes.sizes(), &[9, 2, 1]);
        assert_eq!(classes, DenseOp::new(dense_of(&op)).column_classes());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn csr_rejects_unsorted_columns() {
        let _ = CsrOp::from_row_entries(1, 4, &[vec![(2, 1.0), (1, 2.0)]]);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn intervals_reject_out_of_range() {
        let _ = IntervalsOp::new(4, vec![(2, 4)]);
    }

    #[test]
    fn coarse_profile_is_normalized_and_representation_independent() {
        let op = interval_op(64, 21, 15);
        let profile = coarse_column_profile(&op, 8);
        assert_eq!(profile.len(), 8);
        let total: f64 = profile.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "profile sums to {total}");

        // Same logical matrix through a different representation → same
        // profile (both reduce to the same col_abs_sums).
        let dense = DenseOp::new(dense_of(&op));
        let dense_profile = coarse_column_profile(&dense, 8);
        for (a, b) in profile.iter().zip(dense_profile.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn near_duplicate_profiles_are_close_distinct_shapes_are_far() {
        // The motivating case: the same range panel with one boundary
        // nudged lands within a small L1 distance, while a disjoint
        // panel is far away.
        let base = IntervalsOp::new(64, vec![(0, 15), (16, 31), (32, 47), (48, 63)]);
        let nudged = IntervalsOp::new(64, vec![(0, 16), (17, 31), (32, 47), (48, 63)]);
        let disjoint = IntervalsOp::new(64, vec![(0, 7), (0, 7), (0, 7), (0, 7)]);

        let g = 16;
        let pb = coarse_column_profile(&base, g);
        let pn = coarse_column_profile(&nudged, g);
        let pd = coarse_column_profile(&disjoint, g);
        let near = profile_distance(&pb, &pn);
        let far = profile_distance(&pb, &pd);
        assert!(near < 0.1, "near-duplicate distance {near}");
        assert!(far > 0.5, "disjoint distance {far}");
        assert!(near < far);
    }

    #[test]
    fn profile_distance_edge_cases() {
        assert_eq!(profile_distance(&[0.5, 0.5], &[0.5]), f64::INFINITY);
        assert_eq!(profile_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        // Zero workload: all-zero profile, finite distances.
        let zero = CsrOp::from_dense(&Matrix::zeros(3, 12));
        let p = coarse_column_profile(&zero, 4);
        assert_eq!(p, vec![0.0; 4]);
    }
}
