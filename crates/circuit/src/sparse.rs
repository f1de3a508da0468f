//! Sparse linear algebra for large MNA systems: compressed-column
//! storage, left-looking LU with partial pivoting (Gilbert–Peierls), and
//! a factorization object that separates the *symbolic* work (sparsity
//! pattern, pivot order, per-column elimination schedules) from the
//! *numeric* work (the actual values).
//!
//! Why this exists: MNA matrices of RC meshes and power grids are ≥ 99 %
//! zero beyond a few hundred nodes, and the engine solves the **same
//! structure repeatedly** — every timestep of a linear transient reuses
//! one factorization verbatim, and every Newton iteration of a nonlinear
//! one reuses the pivot order and fill pattern with new values
//! ([`Factorization::refactor`]). Dense LU is O(n³) per solve; this path
//! is O(nnz(L+U)) per re-solve and, on banded grid matrices, roughly
//! O(n·b²) to factor (b = bandwidth) instead of O(n³).
//!
//! ```
//! use hotwire_circuit::sparse::SparseMatrix;
//!
//! let mut m = SparseMatrix::zeros(3);
//! for i in 0..3 {
//!     m.add(i, i, 2.0);
//! }
//! m.add(0, 1, -1.0);
//! m.add(1, 0, -1.0);
//! let f = m.factor()?;
//! let x = f.solve(&[1.0, 0.0, 4.0]);
//! // tridiagonal-ish system; check A·x = b
//! assert!((2.0 * x[0] - x[1] - 1.0).abs() < 1e-12);
//! assert!((2.0 * x[2] - 4.0).abs() < 1e-12);
//! # Ok::<(), hotwire_circuit::CircuitError>(())
//! ```

use crate::CircuitError;

/// Pivot magnitudes below this are treated as singular (matches the
/// dense path in [`crate::linalg::Matrix`]).
const PIVOT_TINY: f64 = 1e-300;

/// A square sparse matrix assembled by MNA-style stamping.
///
/// Stamps are collected as coordinate triplets — duplicate `(r, c)`
/// stamps sum, exactly like the dense [`crate::linalg::Matrix::add`] —
/// and compressed to column-major form when factored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMatrix {
    n: usize,
    triplets: Vec<(u32, u32, f64)>,
}

impl SparseMatrix {
    /// Creates an empty `n × n` matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            triplets: Vec::new(),
        }
    }

    /// The dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stamped triplets (before duplicate combination).
    #[must_use]
    pub fn stamp_count(&self) -> usize {
        self.triplets.len()
    }

    /// Removes every stamp (capacity is kept for re-stamping).
    pub fn clear(&mut self) {
        self.triplets.clear();
    }

    /// Adds `v` to entry `(r, c)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.n && c < self.n, "index ({r},{c}) out of bounds");
        // CAST(row/col indices are < n, asserted above, and grid sizes
        // stay far below u32::MAX): compact triplet storage.
        #[allow(clippy::cast_possible_truncation)]
        self.triplets.push((r as u32, c as u32, v));
    }

    /// Matrix–vector product `A·v` (for tests and residual checks).
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    #[must_use]
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n);
        let mut out = vec![0.0; self.n];
        for &(r, c, val) in &self.triplets {
            out[r as usize] += val * v[c as usize];
        }
        out
    }

    /// Compresses the triplets into column-major (CSC) form, summing
    /// duplicates. Shared with the SPD path in [`crate::cholesky`].
    pub(crate) fn to_csc(&self) -> Csc {
        let n = self.n;
        let mut count = vec![0usize; n + 1];
        for &(_, c, _) in &self.triplets {
            count[c as usize + 1] += 1;
        }
        for j in 0..n {
            count[j + 1] += count[j];
        }
        let mut entries: Vec<(u32, f64)> = vec![(0, 0.0); self.triplets.len()];
        let mut cursor = count.clone();
        for &(r, c, v) in &self.triplets {
            let slot = cursor[c as usize];
            entries[slot] = (r, v);
            cursor[c as usize] += 1;
        }
        // Sort each column by row and combine duplicates in place.
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx: Vec<u32> = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        for j in 0..n {
            let col = &mut entries[count[j]..count[j + 1]];
            col.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in col.iter() {
                if row_idx.len() > col_ptr[j] && *row_idx.last().unwrap() == r {
                    *values.last_mut().unwrap() += v;
                } else {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr[j + 1] = row_idx.len();
        }
        Csc {
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Factors `A = P⁻¹·L·U` by left-looking sparse LU with partial
    /// pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] when no acceptable pivot exists
    /// in some column.
    pub fn factor(&self) -> Result<Factorization, CircuitError> {
        let csc = self.to_csc();
        Factorization::compute(self.n, &csc)
    }
}

/// Compressed-sparse-column view used internally by the factorizations
/// (both the LU here and the LDLᵀ in [`crate::cholesky`]).
#[derive(Debug, Clone)]
pub(crate) struct Csc {
    pub(crate) col_ptr: Vec<usize>,
    pub(crate) row_idx: Vec<u32>,
    pub(crate) values: Vec<f64>,
}

impl Csc {
    /// Largest entry magnitude (pivot-growth denominator).
    pub(crate) fn max_abs(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Matrix–vector product `A·x` (residual checks).
    ///
    /// # Panics
    ///
    /// Panics when `x` is shorter than the matrix dimension.
    pub(crate) fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let n = self.col_ptr.len() - 1;
        let mut out = vec![0.0; n];
        for (c, &xc) in x[..n].iter().enumerate() {
            let (lo, hi) = (self.col_ptr[c], self.col_ptr[c + 1]);
            for (&r, &v) in self.row_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                out[r as usize] += v * xc;
            }
        }
        out
    }
}

/// A sparse LU factorization `P·A = L·U`.
///
/// The *symbolic* state — pivot order and the per-column topological
/// elimination schedules discovered during the first factorization — is
/// retained, so [`Factorization::refactor`] can refresh the numeric
/// values from a matrix with the **same sparsity pattern** without any
/// graph traversal, and [`Factorization::solve`] can be called any number
/// of times. This is what lets a linear transient factor once and
/// re-solve per timestep, and a Newton loop re-pivot-free per iteration.
#[derive(Debug, Clone)]
pub struct Factorization {
    n: usize,
    /// Strictly-lower L by column, row indices in pivot space.
    l_colptr: Vec<usize>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// Strictly-upper U by column, row indices in pivot space.
    u_colptr: Vec<usize>,
    u_rows: Vec<u32>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// `pinv[orig_row] = pivot position`.
    pinv: Vec<u32>,
    /// Per-column elimination schedule (pivot space, topological order),
    /// for `refactor`.
    pattern_ptr: Vec<usize>,
    pattern_rows: Vec<u32>,
    /// Pivot growth max|U| / max|A| of the current numeric values; a
    /// large factor means the elimination amplified entries and the
    /// factorization's backward error budget is spent.
    pivot_growth: f64,
}

impl Factorization {
    fn compute(n: usize, a: &Csc) -> Result<Self, CircuitError> {
        let mut f = Self {
            n,
            l_colptr: vec![0; n + 1],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_colptr: vec![0; n + 1],
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            u_diag: vec![0.0; n],
            pinv: vec![u32::MAX; n],
            pattern_ptr: vec![0; n + 1],
            pattern_rows: Vec::new(),
            pivot_growth: 0.0,
        };
        // Workspaces, all indexed by ORIGINAL row during factorization.
        let mut x = vec![0.0f64; n];
        let mut mark = vec![u32::MAX; n]; // mark[i] == j ⇒ visited in column j
        let mut topo: Vec<u32> = Vec::with_capacity(n); // reach, topological order
        let mut dfs_stack: Vec<(u32, usize)> = Vec::new();

        // L columns during factorization carry ORIGINAL row indices; they
        // are remapped to pivot space once the pivot order is complete.
        for j in 0..n {
            // ---- symbolic: topo = Reach_L(pattern(A[:,j])) ----
            topo.clear();
            // CAST(column index j < n fits u32 — matrix dimensions are
            // bounded by the u32 index representation): mark-array tag.
            #[allow(clippy::cast_possible_truncation)]
            let ju = j as u32;
            for &r in &a.row_idx[a.col_ptr[j]..a.col_ptr[j + 1]] {
                if mark[r as usize] == ju {
                    continue;
                }
                // Iterative DFS over the graph of L (edges from a pivoted
                // row to the rows of its L column).
                dfs_stack.push((r, 0));
                mark[r as usize] = ju;
                while let Some(&(i, child)) = dfs_stack.last() {
                    let k = f.pinv[i as usize];
                    let mut descend: Option<u32> = None;
                    let mut child = child;
                    if k != u32::MAX {
                        let lo = f.l_colptr[k as usize];
                        let hi = f.l_colptr[k as usize + 1];
                        while lo + child < hi {
                            let next = f.l_rows[lo + child];
                            child += 1;
                            if mark[next as usize] != ju {
                                mark[next as usize] = ju;
                                descend = Some(next);
                                break;
                            }
                        }
                    }
                    if let Some(next) = descend {
                        dfs_stack.last_mut().unwrap().1 = child;
                        dfs_stack.push((next, 0));
                    } else {
                        dfs_stack.pop();
                        topo.push(i); // post-order ⇒ reverse is topological
                    }
                }
            }
            topo.reverse();

            // ---- numeric: sparse triangular solve then pivot ----
            for &i in &topo {
                x[i as usize] = 0.0;
            }
            for (&r, &v) in a.row_idx[a.col_ptr[j]..a.col_ptr[j + 1]]
                .iter()
                .zip(&a.values[a.col_ptr[j]..a.col_ptr[j + 1]])
            {
                x[r as usize] = v;
            }
            for &i in &topo {
                let k = f.pinv[i as usize];
                if k == u32::MAX {
                    continue;
                }
                let xi = x[i as usize];
                if xi != 0.0 {
                    let (lo, hi) = (f.l_colptr[k as usize], f.l_colptr[k as usize + 1]);
                    for (&r, &v) in f.l_rows[lo..hi].iter().zip(&f.l_vals[lo..hi]) {
                        x[r as usize] -= v * xi;
                    }
                }
            }

            // Partial pivot: the largest unpivoted entry.
            let mut pivot_row = u32::MAX;
            let mut pivot_abs = 0.0f64;
            for &i in &topo {
                if f.pinv[i as usize] == u32::MAX {
                    let v = x[i as usize].abs();
                    if v > pivot_abs {
                        pivot_abs = v;
                        pivot_row = i;
                    }
                }
            }
            if pivot_abs < PIVOT_TINY {
                return Err(CircuitError::Singular { row: j });
            }
            #[allow(clippy::cast_possible_truncation)]
            {
                // CAST(pivot position j < n fits u32 — same bound as the
                // row indices it inverts): pinv stores positions compactly.
                f.pinv[pivot_row as usize] = j as u32;
            }
            let pivot_val = x[pivot_row as usize];
            f.u_diag[j] = pivot_val;

            // Emit U (already-pivoted rows) and L (the rest), and record
            // the elimination schedule for refactor.
            for &i in &topo {
                let k = f.pinv[i as usize];
                if i == pivot_row {
                    continue;
                }
                if k != u32::MAX && (k as usize) < j {
                    f.u_rows.push(k);
                    f.u_vals.push(x[i as usize]);
                } else {
                    f.l_rows.push(i); // original space; remapped below
                    f.l_vals.push(x[i as usize] / pivot_val);
                }
            }
            f.u_colptr[j + 1] = f.u_rows.len();
            f.l_colptr[j + 1] = f.l_rows.len();
            f.pattern_rows.extend_from_slice(&topo);
            f.pattern_ptr[j + 1] = f.pattern_rows.len();
        }

        // Remap L rows and the stored schedules into pivot space: every
        // original row now has a pivot position.
        for r in &mut f.l_rows {
            *r = f.pinv[*r as usize];
        }
        for r in &mut f.pattern_rows {
            *r = f.pinv[*r as usize];
        }
        f.pivot_growth = Self::growth(&f.u_vals, &f.u_diag, a.max_abs());
        Ok(f)
    }

    /// max|U| / max|A| — how much elimination amplified the entries.
    fn growth(u_vals: &[f64], u_diag: &[f64], max_a: f64) -> f64 {
        let max_u = u_vals
            .iter()
            .chain(u_diag)
            .map(|v| v.abs())
            .fold(0.0, f64::max);
        if max_a > 0.0 {
            max_u / max_a
        } else {
            0.0
        }
    }

    /// The dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros in `L + U` (fill-in diagnostic).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// Pivot growth max|U| / max|A| of the current numeric values. Near
    /// 1 on well-behaved MNA stamps; large values mean the factors have
    /// amplified round-off and the solve's backward error is degraded.
    #[must_use]
    pub fn pivot_growth(&self) -> f64 {
        self.pivot_growth
    }

    /// Recomputes the numeric factors from a matrix with the **same
    /// sparsity pattern** (same stamping structure), reusing the pivot
    /// order and elimination schedules — no graph traversal, no pivot
    /// search. This is the Newton-iteration fast path.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] when a reused pivot becomes
    /// numerically zero; callers should fall back to a fresh
    /// [`SparseMatrix::factor`] (which re-pivots) in that case.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension differs from the factored one.
    pub fn refactor(&mut self, matrix: &SparseMatrix) -> Result<(), CircuitError> {
        assert_eq!(matrix.n, self.n, "refactor dimension mismatch");
        let a = matrix.to_csc();
        let mut x = vec![0.0f64; self.n];
        for j in 0..self.n {
            let pattern = &self.pattern_rows[self.pattern_ptr[j]..self.pattern_ptr[j + 1]];
            for &k in pattern {
                x[k as usize] = 0.0;
            }
            for (&r, &v) in a.row_idx[a.col_ptr[j]..a.col_ptr[j + 1]]
                .iter()
                .zip(&a.values[a.col_ptr[j]..a.col_ptr[j + 1]])
            {
                x[self.pinv[r as usize] as usize] = v;
            }
            for &k in pattern {
                let k = k as usize;
                if k >= j {
                    continue;
                }
                let xk = x[k];
                if xk != 0.0 {
                    let (lo, hi) = (self.l_colptr[k], self.l_colptr[k + 1]);
                    for (&r, &v) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                        x[r as usize] -= v * xk;
                    }
                }
            }
            let pivot_val = x[j];
            if pivot_val.abs() < PIVOT_TINY {
                return Err(CircuitError::Singular { row: j });
            }
            self.u_diag[j] = pivot_val;
            for slot in self.u_colptr[j]..self.u_colptr[j + 1] {
                self.u_vals[slot] = x[self.u_rows[slot] as usize];
            }
            for slot in self.l_colptr[j]..self.l_colptr[j + 1] {
                self.l_vals[slot] = x[self.l_rows[slot] as usize] / pivot_val;
            }
        }
        self.pivot_growth = Self::growth(&self.u_vals, &self.u_diag, a.max_abs());
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer (resized to `n`) —
    /// the allocation-free per-timestep path.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        x.clear();
        x.resize(self.n, 0.0);
        // x ← P·b
        for (i, &bi) in b.iter().enumerate() {
            x[self.pinv[i] as usize] = bi;
        }
        // Forward: L·y = P·b (unit diagonal).
        for j in 0..self.n {
            let xj = x[j];
            if xj != 0.0 {
                let (lo, hi) = (self.l_colptr[j], self.l_colptr[j + 1]);
                for (&r, &v) in self.l_rows[lo..hi].iter().zip(&self.l_vals[lo..hi]) {
                    x[r as usize] -= v * xj;
                }
            }
        }
        // Backward: U·x = y.
        for j in (0..self.n).rev() {
            let xj = x[j] / self.u_diag[j];
            x[j] = xj;
            if xj != 0.0 {
                let (lo, hi) = (self.u_colptr[j], self.u_colptr[j + 1]);
                for (&r, &v) in self.u_rows[lo..hi].iter().zip(&self.u_vals[lo..hi]) {
                    x[r as usize] -= v * xj;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the 5-point Laplacian of a `rows × cols` grid plus a small
    /// diagonal shift — the shape of every power-grid MNA matrix here.
    fn grid_laplacian(rows: usize, cols: usize) -> SparseMatrix {
        let n = rows * cols;
        let mut m = SparseMatrix::zeros(n);
        let at = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                m.add(at(r, c), at(r, c), 1e-9); // gmin-like shift
                let mut couple = |a: usize, b: usize| {
                    m.add(a, a, 1.0);
                    m.add(b, b, 1.0);
                    m.add(a, b, -1.0);
                    m.add(b, a, -1.0);
                };
                if c + 1 < cols {
                    couple(at(r, c), at(r, c + 1));
                }
                if r + 1 < rows {
                    couple(at(r, c), at(r + 1, c));
                }
            }
        }
        // Ground one corner strongly so the system is well-posed.
        m.add(0, 0, 1.0e3);
        m
    }

    fn residual_norm(m: &SparseMatrix, x: &[f64], b: &[f64]) -> f64 {
        m.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn identity_solve() {
        let mut m = SparseMatrix::zeros(4);
        for i in 0..4 {
            m.add(i, i, 2.0);
        }
        let f = m.factor().unwrap();
        let x = f.solve(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] — MNA voltage-source incidence shape.
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let x = m.factor().unwrap().solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_stamps_sum() {
        let mut m = SparseMatrix::zeros(1);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        let x = m.factor().unwrap().solve(&[4.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn grid_system_round_trip() {
        let m = grid_laplacian(13, 17);
        let n = m.n();
        #[allow(clippy::cast_precision_loss)]
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let f = m.factor().unwrap();
        let x = f.solve(&b);
        assert!(residual_norm(&m, &x, &b) < 1e-9);
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        let m = grid_laplacian(9, 9);
        let mut f = m.factor().unwrap();
        // Same pattern, scaled values.
        let mut m2 = SparseMatrix::zeros(m.n());
        for &(r, c, v) in &m.triplets {
            m2.add(r as usize, c as usize, v * 3.25);
        }
        f.refactor(&m2).unwrap();
        let b: Vec<f64> = (0..m.n())
            .map(|i| f64::from(u32::try_from(i % 5).unwrap()))
            .collect();
        let x = f.solve(&b);
        assert!(
            residual_norm(&m2, &x, &b) < 1e-9,
            "refactored solve must satisfy A2"
        );
    }

    #[test]
    fn singular_detected() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        assert!(matches!(m.factor(), Err(CircuitError::Singular { .. })));
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        // column 2 never stamped
        assert!(matches!(m.factor(), Err(CircuitError::Singular { .. })));
    }

    #[test]
    fn solve_into_reuses_buffer() {
        let m = grid_laplacian(6, 6);
        let f = m.factor().unwrap();
        let b1 = vec![1.0; m.n()];
        let b2 = vec![-2.0; m.n()];
        let mut x = Vec::new();
        f.solve_into(&b1, &mut x);
        assert!(residual_norm(&m, &x, &b1) < 1e-9);
        f.solve_into(&b2, &mut x);
        assert!(residual_norm(&m, &x, &b2) < 1e-9);
    }

    #[test]
    fn growth_diagnostics() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 3.0);
        m.add(0, 0, 1.0);
        m.add(1, 0, -2.0);
        m.add(1, 1, 5.0);
        let mut f = m.factor().unwrap();
        // Partial pivoting keeps growth modest on any 2×2.
        assert!(f.pivot_growth() >= 1.0 - 1e-12 && f.pivot_growth() <= 2.0);
        let mut m2 = SparseMatrix::zeros(2);
        m2.add(0, 0, 8.0);
        m2.add(1, 0, -4.0);
        m2.add(1, 1, 10.0);
        f.refactor(&m2).unwrap();
        assert!(f.pivot_growth() > 0.0);
    }

    #[test]
    fn fill_in_stays_sparse_on_grids() {
        // A 20×20 grid (400 unknowns): dense LU would hold 160 000
        // entries; banded fill should stay far below that.
        let m = grid_laplacian(20, 20);
        let f = m.factor().unwrap();
        assert!(
            f.nnz() < 40_000,
            "fill-in {} should be ≪ dense 160000",
            f.nnz()
        );
    }
}
