//! Banded symmetric-positive-definite direct solver: factor once, solve
//! many right-hand sides.
//!
//! Finite-volume conduction matrices on structured grids are SPD with a
//! half-bandwidth equal to the shorter grid axis when unknowns are
//! ordered with that axis varying fastest. A banded Cholesky factors
//! them in O(n·bw²) flops and O(n·bw) memory — no pivoting, no fill
//! beyond the band. It serves [`grid2d`](crate::grid2d) only, whose
//! cross-sections are a few dozen unknowns across: there the band
//! factors faster than `hotwire_circuit::cholesky` can order, and keeps
//! the peak memory lower (DESIGN.md §12).

use crate::error::ThermalError;

/// A symmetric positive-definite matrix assembled in banded lower
/// storage, ready to [`BandedSpd::factor`].
#[derive(Debug, Clone)]
pub struct BandedSpd {
    n: usize,
    bw: usize,
    /// Row-major banded lower storage: `ab[r*(bw+1) + (c + bw - r)]`
    /// holds `A[r][c]` for `c ∈ [r-bw, r]`.
    ab: Vec<f64>,
}

impl BandedSpd {
    /// Creates an `n × n` zero matrix with half-bandwidth `bw`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] when `n` is zero.
    pub fn new(n: usize, bw: usize) -> Result<Self, ThermalError> {
        if n == 0 {
            return Err(ThermalError::InvalidInput {
                message: "banded system needs at least one unknown".to_owned(),
            });
        }
        let bw = bw.min(n - 1);
        Ok(Self {
            n,
            bw,
            ab: vec![0.0; n * (bw + 1)],
        })
    }

    /// Adds `v` to entry `(r, c)` of the lower triangle (the upper
    /// triangle is implied by symmetry).
    ///
    /// # Panics
    ///
    /// Panics when `c > r`, when `r - c` exceeds the bandwidth, or when
    /// `r` is out of range.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.n && c <= r && r - c <= self.bw,
            "({r}, {c}) outside band"
        );
        self.ab[r * (self.bw + 1) + (c + self.bw - r)] += v;
    }

    /// Factors `A = L·Lᵀ` in place, consuming the assembly.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoConvergence`] when the matrix is not
    /// positive definite (`iterations` holds the failing row and
    /// `residual` the non-positive pivot).
    pub fn factor(mut self) -> Result<BandedCholesky, ThermalError> {
        let (n, bw) = (self.n, self.bw);
        let w = bw + 1;
        let ab = &mut self.ab;
        for r in 0..n {
            let c_lo = r.saturating_sub(bw);
            for c in c_lo..=r {
                let mut sum = ab[r * w + (c + bw - r)];
                let k_lo = c_lo.max(c.saturating_sub(bw));
                for k in k_lo..c {
                    sum -= ab[r * w + (k + bw - r)] * ab[c * w + (k + bw - c)];
                }
                if c == r {
                    if sum <= 0.0 {
                        return Err(ThermalError::NoConvergence {
                            iterations: r,
                            residual: sum,
                        });
                    }
                    ab[r * w + bw] = sum.sqrt();
                } else {
                    ab[r * w + (c + bw - r)] = sum / ab[c * w + bw];
                }
            }
        }
        Ok(BandedCholesky { n, bw, ab: self.ab })
    }
}

/// The Cholesky factor of a [`BandedSpd`]: solve any number of
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct BandedCholesky {
    n: usize,
    bw: usize,
    ab: Vec<f64>,
}

impl BandedCholesky {
    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics on an rhs length mismatch.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let (n, bw) = (self.n, self.bw);
        let w = bw + 1;
        let ab = &self.ab;
        let mut x = b.to_vec();
        // Forward substitution L·y = b.
        for r in 0..n {
            let c_lo = r.saturating_sub(bw);
            let mut sum = x[r];
            for c in c_lo..r {
                sum -= ab[r * w + (c + bw - r)] * x[c];
            }
            x[r] = sum / ab[r * w + bw];
        }
        // Back substitution Lᵀ·x = y.
        for r in (0..n).rev() {
            let mut sum = x[r];
            let hi = (r + bw).min(n - 1);
            for c in (r + 1)..=hi {
                sum -= ab[c * w + (r + bw - c)] * x[c];
            }
            x[r] = sum / ab[r * w + bw];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_system() {
        assert!(BandedSpd::new(0, 1).is_err());
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let mut a = BandedSpd::new(2, 1).unwrap();
        a.add(0, 0, 1.0);
        a.add(1, 1, 1.0);
        a.add(1, 0, -2.0); // |off-diag| > diag ⇒ not PD
        assert!(matches!(
            a.factor(),
            Err(ThermalError::NoConvergence { .. })
        ));
    }

    #[test]
    fn solves_dense_spd_reference() {
        // A = M·Mᵀ + I for a small fixed M is SPD; check A·x = b round-trip.
        let n = 6;
        let bw = 2;
        let mut dense = vec![vec![0.0; n]; n];
        for (r, row) in dense.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                let d = r.abs_diff(c);
                if d <= bw {
                    *v = if d == 0 {
                        4.0 + r as f64 * 0.1
                    } else {
                        -1.0 / d as f64
                    };
                }
            }
        }
        let mut a = BandedSpd::new(n, bw).unwrap();
        for (r, row) in dense.iter().enumerate() {
            for (c, &v) in row.iter().enumerate().take(r + 1) {
                if r - c <= bw {
                    a.add(r, c, v);
                }
            }
        }
        let f = a.factor().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.5).collect();
        let x = f.solve(&b);
        for r in 0..n {
            let ax: f64 = (0..n).map(|c| dense[r][c] * x[c]).sum();
            assert!((ax - b[r]).abs() < 1e-10, "row {r}: {ax} vs {}", b[r]);
        }
    }

    #[test]
    fn repeated_solves_are_independent() {
        let mut a = BandedSpd::new(3, 1).unwrap();
        for r in 0..3 {
            a.add(r, r, 2.0);
            if r > 0 {
                a.add(r, r - 1, -1.0);
            }
        }
        let f = a.factor().unwrap();
        let x1 = f.solve(&[1.0, 0.0, 0.0]);
        let _ = f.solve(&[0.0, 5.0, 0.0]);
        let x1_again = f.solve(&[1.0, 0.0, 0.0]);
        for (a, b) in x1.iter().zip(&x1_again) {
            assert!((a - b).abs() == 0.0);
        }
    }

    #[test]
    fn bandwidth_clamps_to_dimension() {
        let a = BandedSpd::new(3, 10).unwrap();
        assert_eq!(a.bw, 2);
    }
}
