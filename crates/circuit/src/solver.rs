//! Automatic dense/sparse solver selection for MNA systems.
//!
//! Small systems (repeater testbenches, short RC ladders) are fastest
//! through the cache-friendly dense LU in [`crate::linalg`]; large ones
//! (power grids, long distributed lines) through the sparse backends,
//! whose factor cost grows far slower than O(n³). [`MnaMatrix::auto`]
//! picks dense vs sparse by unknown count at [`SPARSE_THRESHOLD`]; the
//! sparse arm then routes SPD stamps (symmetric, positive diagonal —
//! every power-grid and thermal-map matrix) to the AMD-ordered LDLᵀ in
//! [`crate::cholesky`] and everything else to the pivoting LU in
//! [`crate::sparse`], falling back to LU automatically when an LDLᵀ
//! pivot fails. All backends expose the same stamping and
//! factor-once/solve-many surface so assembly code is
//! representation-agnostic; [`MnaFactorization::path`] reports which
//! backend actually served a factorization.

use crate::cholesky::CholeskyFactorization;
use crate::linalg::Matrix;
use crate::sparse::{Factorization as SparseFactorization, SparseMatrix};
use crate::CircuitError;
use hotwire_obs::health;
use hotwire_obs::metrics;

/// Which concrete backend served a factorization — reported by
/// [`MnaFactorization::path`] and recorded in the bench baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverPath {
    /// Dense LU ([`crate::linalg`]).
    Dense,
    /// Sparse Gilbert–Peierls LU with partial pivoting
    /// ([`crate::sparse`]).
    SparseLu,
    /// Sparse AMD-ordered LDLᵀ ([`crate::cholesky`]).
    SparseCholesky,
}

impl SolverPath {
    /// Stable lowercase label (used in bench JSON and logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::SparseLu => "lu",
            Self::SparseCholesky => "cholesky",
        }
    }
}

impl std::fmt::Display for SolverPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Unknown count at and above which [`MnaMatrix::auto`] picks the sparse
/// backend.
///
/// Around this size the dense LU's n³ flops overtake the sparse path's
/// graph overhead on typical MNA sparsity (≈ 5 entries/row); the exact
/// crossover is machine-dependent but flat near the optimum, so a single
/// fixed threshold is fine (measured with `cargo bench --bench solver`).
pub const SPARSE_THRESHOLD: usize = 128;

/// A square MNA system matrix with a dense or sparse backing store.
#[derive(Debug, Clone)]
pub enum MnaMatrix {
    /// Dense row-major storage (small systems).
    Dense(Matrix),
    /// Compressed sparse storage (large systems).
    Sparse(SparseMatrix),
}

impl MnaMatrix {
    /// Creates an `n × n` zero matrix, choosing the backend by size.
    #[must_use]
    pub fn auto(n: usize) -> Self {
        if n >= SPARSE_THRESHOLD {
            Self::Sparse(SparseMatrix::zeros(n))
        } else {
            Self::Dense(Matrix::zeros(n, n))
        }
    }

    /// Forces the dense backend (benchmarking / comparison).
    #[must_use]
    pub fn dense(n: usize) -> Self {
        Self::Dense(Matrix::zeros(n, n))
    }

    /// Forces the sparse backend (benchmarking / comparison).
    #[must_use]
    pub fn sparse(n: usize) -> Self {
        Self::Sparse(SparseMatrix::zeros(n))
    }

    /// The dimension `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            Self::Dense(m) => m.rows(),
            Self::Sparse(m) => m.n(),
        }
    }

    /// `true` when backed by the sparse store.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Self::Sparse(_))
    }

    /// Adds `v` to entry `(r, c)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        match self {
            Self::Dense(m) => m.add(r, c, v),
            Self::Sparse(m) => m.add(r, c, v),
        }
    }

    /// Removes every stamp, keeping allocations for re-stamping.
    pub fn clear(&mut self) {
        match self {
            Self::Dense(m) => m.clear(),
            Self::Sparse(m) => m.clear(),
        }
    }

    /// Factors the current values into a reusable [`MnaFactorization`]
    /// (`self` is left stamped and unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] when the system has no unique
    /// solution.
    pub fn factor(&self) -> Result<MnaFactorization, CircuitError> {
        metrics::counter("solver.factor").inc();
        let _t = hotwire_obs::trace::span("solver.factor_time");
        self.factor_dispatch(false)
    }

    /// Backend dispatch shared by [`MnaMatrix::factor`] and the
    /// refactor fallback (which must not double-increment
    /// `solver.factor`); `force_lu` keeps an LU factorization on LU.
    fn factor_dispatch(&self, force_lu: bool) -> Result<MnaFactorization, CircuitError> {
        match self {
            Self::Dense(m) => {
                let mut lu = m.clone();
                lu.factor()?;
                Ok(MnaFactorization::Dense(lu))
            }
            Self::Sparse(m) => {
                // SPD fast path: symmetric stamps with a positive
                // diagonal go through AMD + LDLᵀ; anything else — and
                // any LDLᵀ pivot failure — falls back to pivoting LU.
                if !force_lu {
                    match m.factor_cholesky() {
                        Ok(f) => {
                            metrics::gauge(health::names::CHOL_MIN_PIVOT).set(f.min_pivot());
                            return Ok(MnaFactorization::SparseCholesky(f));
                        }
                        Err(_) => metrics::counter("solver.chol.fallback").inc(),
                    }
                }
                let f = m.factor()?;
                #[allow(clippy::cast_precision_loss)]
                metrics::gauge("solver.sparse.fill_nnz").set(f.nnz() as f64);
                metrics::gauge(health::names::PIVOT_GROWTH).set(f.pivot_growth());
                Ok(MnaFactorization::Sparse(f))
            }
        }
    }

    /// Matrix–vector product `A·v` against the current stamps (residual
    /// checks; not a hot path).
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    #[must_use]
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        match self {
            Self::Dense(m) => m.mul_vec(v),
            Self::Sparse(m) => m.mul_vec(v),
        }
    }

    /// One-shot solve (factor + substitute), for callers without reuse.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] when the system has no unique
    /// solution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, CircuitError> {
        Ok(self.factor()?.solve(b))
    }
}

/// A reusable factorization of an [`MnaMatrix`]: solve any number of
/// right-hand sides, or [`MnaFactorization::refactor`] from same-pattern
/// values (Newton iterations) without redoing symbolic work.
#[derive(Debug, Clone)]
pub enum MnaFactorization {
    /// Factored dense matrix.
    Dense(Matrix),
    /// Sparse LU factors.
    Sparse(SparseFactorization),
    /// Sparse LDLᵀ factors (the SPD fast path).
    SparseCholesky(CholeskyFactorization),
}

impl MnaFactorization {
    /// The backend that served this factorization.
    #[must_use]
    pub fn path(&self) -> SolverPath {
        match self {
            Self::Dense(_) => SolverPath::Dense,
            Self::Sparse(_) => SolverPath::SparseLu,
            Self::SparseCholesky(_) => SolverPath::SparseCholesky,
        }
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics on an rhs length mismatch.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer (resized to `n`).
    ///
    /// # Panics
    ///
    /// Panics on an rhs length mismatch.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) {
        match self {
            Self::Dense(lu) => lu.solve_factored_into(b, x),
            Self::Sparse(f) => f.solve_into(b, x),
            Self::SparseCholesky(f) => f.solve_into(b, x),
        }
    }

    /// LU pivot-growth factor `max|U| / max|A|` of the stored factors —
    /// a large value signals element growth eating precision. `None`
    /// on the dense and Cholesky backends (Cholesky health is tracked
    /// through its smallest pivot instead).
    #[must_use]
    pub fn pivot_growth(&self) -> Option<f64> {
        match self {
            Self::Sparse(f) => Some(f.pivot_growth()),
            Self::Dense(_) | Self::SparseCholesky(_) => None,
        }
    }

    /// Refreshes the numeric factors from a matrix with the same
    /// dimension (and, for the sparse backend, the same sparsity
    /// pattern). The sparse path reuses the pivot order and elimination
    /// schedules; on a reused pivot going numerically bad it falls back
    /// to a full re-pivoting factorization automatically, and so does a
    /// matrix whose backend (dense or sparse) differs from the factored
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Singular`] when the new values are
    /// singular.
    ///
    /// # Panics
    ///
    /// Panics when a sparse factorization meets a sparse matrix of a
    /// different dimension.
    pub fn refactor(&mut self, matrix: &MnaMatrix) -> Result<(), CircuitError> {
        metrics::counter("solver.refactor").inc();
        let _t = hotwire_obs::trace::span("solver.refactor_time");
        let in_place_ok = match (&mut *self, matrix) {
            (Self::Dense(lu), MnaMatrix::Dense(m)) => {
                *lu = m.clone();
                lu.factor()?;
                true
            }
            (Self::Sparse(f), MnaMatrix::Sparse(m)) => {
                let ok = f.refactor(m).is_ok();
                if ok {
                    #[allow(clippy::cast_precision_loss)]
                    metrics::gauge("solver.sparse.fill_nnz").set(f.nnz() as f64);
                    metrics::gauge(health::names::PIVOT_GROWTH).set(f.pivot_growth());
                }
                ok
            }
            (Self::SparseCholesky(f), MnaMatrix::Sparse(m)) => {
                let ok = f.refactor(m).is_ok();
                if ok {
                    metrics::gauge(health::names::CHOL_MIN_PIVOT).set(f.min_pivot());
                }
                ok
            }
            // A dense factorization against a sparse stamp, or the
            // reverse: nothing to reuse.
            _ => false,
        };
        if !in_place_ok {
            // Pivot order (LU) or definiteness (LDLᵀ) went stale for the
            // new values, or the backend changed; re-dispatch from
            // scratch. A Cholesky backend may come back as LU (values no
            // longer SPD); an LU backend stays LU — dispatch chose it for
            // a non-SPD candidate or after a pivot failure.
            metrics::counter("solver.refactor_fallback").inc();
            let keep_lu = matches!(&*self, Self::Sparse(_));
            *self = matrix.factor_dispatch(keep_lu)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp_test_system(m: &mut MnaMatrix) {
        // 2-resistor divider MNA: nodes 0,1 + branch 2 for a 1 V source.
        m.add(0, 0, 1.0); // 1/R1 at node 0
        m.add(0, 1, -1.0);
        m.add(1, 0, -1.0);
        m.add(1, 1, 1.0 + 0.5); // R1 + R2 to ground
        m.add(0, 2, 1.0); // source branch
        m.add(2, 0, 1.0);
    }

    #[test]
    fn auto_picks_backend_by_size() {
        assert!(!MnaMatrix::auto(SPARSE_THRESHOLD - 1).is_sparse());
        assert!(MnaMatrix::auto(SPARSE_THRESHOLD).is_sparse());
    }

    #[test]
    fn dense_and_sparse_agree() {
        let mut d = MnaMatrix::dense(3);
        let mut s = MnaMatrix::sparse(3);
        stamp_test_system(&mut d);
        stamp_test_system(&mut s);
        let b = [0.0, 0.0, 1.0];
        let xd = d.solve(&b).unwrap();
        let xs = s.solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-12, "dense {a} vs sparse {b}");
        }
        // Divider: v1 = R2/(R1+R2) · 1 V with R1=1, R2=2 ⇒ 2/3.
        assert!((xd[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn factorization_reuse_and_refactor() {
        for mut m in [MnaMatrix::dense(3), MnaMatrix::sparse(3)] {
            stamp_test_system(&mut m);
            let mut f = m.factor().unwrap();
            let x1 = f.solve(&[0.0, 0.0, 1.0]);
            let x2 = f.solve(&[0.0, 0.0, 2.0]);
            for (a, b) in x1.iter().zip(&x2) {
                assert!((2.0 * a - b).abs() < 1e-12, "linearity under reuse");
            }
            // Restamp with doubled conductances; refactor and re-check.
            m.clear();
            stamp_test_system(&mut m);
            stamp_test_system(&mut m);
            // (doubling every stamp doubles the source row too — still the
            // same solution for a doubled rhs)
            f.refactor(&m).unwrap();
            let x3 = f.solve(&[0.0, 0.0, 2.0]);
            for (a, b) in x1.iter().zip(&x3) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn refactor_across_backends_solves_like_a_fresh_factor() {
        // A dense factorization refactored against a sparse stamp of the
        // same system (and the reverse) re-dispatches from scratch.
        let b = [0.0, 0.0, 1.0];
        for (mut first, mut second) in [
            (MnaMatrix::dense(3), MnaMatrix::sparse(3)),
            (MnaMatrix::sparse(3), MnaMatrix::dense(3)),
        ] {
            stamp_test_system(&mut first);
            stamp_test_system(&mut second);
            let mut f = first.factor().unwrap();
            f.refactor(&second).unwrap();
            assert_eq!(f.path(), second.factor().unwrap().path());
            let fresh = second.solve(&b).unwrap();
            for (a, b) in f.solve(&b).iter().zip(&fresh) {
                assert!((a - b).abs() < 1e-12, "refactored {a} vs fresh {b}");
            }
        }
    }

    #[test]
    fn singular_propagates() {
        let m = MnaMatrix::auto(2);
        assert!(matches!(
            m.solve(&[1.0, 1.0]),
            Err(CircuitError::Singular { .. })
        ));
    }
}
