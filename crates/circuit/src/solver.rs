//! Dense/sparse LU selection for general MNA systems.
//!
//! Small systems (repeater testbenches, short RC ladders) are fastest
//! through the cache-friendly dense LU in [`crate::linalg`]; large ones
//! (long distributed lines, full-MNA grids) through the pivoting sparse
//! LU in [`crate::sparse`], whose factor cost grows far slower than
//! O(n³). [`MnaMatrix::auto`] picks by unknown count at
//! [`SPARSE_THRESHOLD`]. Both backends expose the same stamping and
//! factor-once/solve-many surface, so assembly code is
//! representation-agnostic.
//!
//! Voltage-source branch rows and MOSFET stamps make general MNA
//! matrices unsymmetric or indefinite, so nothing here tries an LDLᵀ.
//! The one SPD class hotwire solves, the reduced DC grid, factors
//! through [`crate::cholesky`] itself ([`crate::grid_dc`]).

use crate::linalg::Matrix;
use crate::sparse::{Factorization as SparseFactorization, SparseMatrix};
use crate::CircuitError;
use hotwire_obs::health;
use hotwire_obs::metrics;

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
        counted_factor(|| self.factor_lu())
    }

    /// The LU of [`MnaMatrix::factor`], shared with the refactor
    /// fallback (which must not double-increment `solver.factor`).
    fn factor_lu(&self) -> Result<MnaFactorization, CircuitError> {
        match self {
            Self::Dense(m) => {
                let mut lu = m.clone();
                lu.factor()?;
                Ok(MnaFactorization::Dense(lu))
            }
            Self::Sparse(m) => {
                let f = m.factor()?;
                publish_lu_health(&f);
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

/// Runs a first factorization of a circuit system (an MNA LU here, the
/// DC grid's LDLᵀ in [`crate::grid_dc`]), counted as `solver.factor`
/// and timed as `solver.factor_time`.
pub(crate) fn counted_factor<T>(factor: impl FnOnce() -> T) -> T {
    metrics::counter("solver.factor").inc();
    let _t = hotwire_obs::trace::span("solver.factor_time");
    factor()
}

/// Runs a numeric refactor of a circuit system, counted as
/// `solver.refactor` and timed as `solver.refactor_time`.
pub(crate) fn counted_refactor<T>(refactor: impl FnOnce() -> T) -> T {
    metrics::counter("solver.refactor").inc();
    let _t = hotwire_obs::trace::span("solver.refactor_time");
    refactor()
}

/// Publishes the fill and pivot growth of a sparse LU after each factor
/// or in-place refactor.
fn publish_lu_health(f: &SparseFactorization) {
    #[allow(clippy::cast_precision_loss)]
    metrics::gauge("solver.sparse.fill_nnz").set(f.nnz() as f64);
    metrics::gauge(health::names::PIVOT_GROWTH).set(f.pivot_growth());
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
}

impl MnaFactorization {
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
        counted_refactor(|| {
            let in_place_ok = match (&mut *self, matrix) {
                (Self::Dense(lu), MnaMatrix::Dense(m)) => {
                    *lu = m.clone();
                    lu.factor()?;
                    true
                }
                (Self::Sparse(f), MnaMatrix::Sparse(m)) => {
                    let ok = f.refactor(m).is_ok();
                    if ok {
                        publish_lu_health(f);
                    }
                    ok
                }
                // A dense factorization against a sparse stamp, or the
                // reverse: nothing to reuse.
                _ => false,
            };
            if !in_place_ok {
                // The pivot order went stale for the new values, or the
                // backend changed: factor from scratch.
                metrics::counter("solver.refactor_fallback").inc();
                *self = matrix.factor_lu()?;
            }
            Ok(())
        })
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
            assert_eq!(matches!(f, MnaFactorization::Sparse(_)), second.is_sparse());
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
