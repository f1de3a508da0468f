//! Chip-scale steady-state thermal map for power-grid straps.
//!
//! The coupled electro-thermal signoff loop needs the temperature of
//! every strap segment given every segment's Joule dissipation. At chip
//! scale the relevant physics is the paper's §2.2 picture applied per
//! node: heat generated in the metal flows *down* through the
//! inter-layer dielectric into the substrate (held at the reference
//! temperature) and *sideways* along the metal straps themselves, whose
//! thermal conductivity is two orders of magnitude above the oxide's.
//! Quasi-2D spreading in the dielectric is folded into the vertical path
//! exactly as eq. 9 does for a single line, via the effective width
//! `W + φ·t_ox` (see [`crate::impedance::effective_width`]).
//!
//! The model is a node-based finite-volume system on the strap
//! intersections:
//!
//! * each node owns the half-segments incident on it and gets their
//!   vertical (node-to-substrate) conductance `G_half` each;
//! * adjacent nodes couple through the strap's axial metal conduction
//!   `G_lat = k_m·W·t_m / ℓ`;
//! * node powers (W) come from splitting each branch's `I²R` equally
//!   onto its endpoints.
//!
//! With uniform current this reduces per segment to exactly
//! ΔT = j²·ρ·κ with κ from [`crate::impedance::self_heating_constant`] —
//! the single-wire limit the eq. 13 solver uses — which is what anchors
//! the coupled loop's single-wire regression test.
//!
//! The conduction matrix `A = G_lat·L + G_half·D` (grid Laplacian `L`,
//! node degrees `D`) is never factored: Jacobi-preconditioned conjugate
//! gradients solve it through a matrix-free 5-point stencil. With
//! `r = G_lat/G_half` the preconditioned `κ ≤ 1 + 2r` (1.05 for the demo
//! stack at 100 µm pitch, five or six iterations from zero), and each
//! row's diagonal dominance `deg·G_half` bounds the error of any answer
//! by `‖b − A·x̂‖∞ / min(deg·G_half)`, which every solve drives to 1e-9 K.
//! Solves warm-start from the caller's previous field. Iterations grow
//! like `√(1+2r)`, so below about 10 µm pitch (`r > 2`) they add up
//! (DESIGN.md §12).

use crate::error::ThermalError;
use hotwire_obs::metrics;

/// Certified bound (K) on the max-norm error of every returned field.
const TOLERANCE_K: f64 = 1e-9;

/// A chip thermal model over a `rows × cols` grid of strap
/// intersections.
#[derive(Debug, Clone)]
pub struct ChipThermalModel {
    rows: usize,
    cols: usize,
    lateral_g: f64,
    half_g: f64,
    /// Row-major diagonal of the conduction matrix, `deg·(G_lat + G_half)`.
    diag: Vec<f64>,
    /// Its reciprocal, the Jacobi preconditioner.
    inv_diag: Vec<f64>,
}

impl ChipThermalModel {
    /// Validates the grid and conductances and precomputes the stencil
    /// diagonal; nothing is factored.
    ///
    /// `lateral_conductance` is the strap-axial metal conductance per
    /// branch, `k_m·W·t_m / ℓ` (W/K); `vertical_half_conductance` is the
    /// node-to-substrate conductance contributed by **one** incident
    /// half-segment, `W_eff·(ℓ/2) / Σ(tᵢ/kᵢ)` (W/K). A node touching
    /// `m` segments gets `m × vertical_half_conductance` to the sink.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] for a degenerate grid
    /// (fewer than two intersections) or non-physical conductances.
    pub fn new(
        rows: usize,
        cols: usize,
        lateral_conductance: f64,
        vertical_half_conductance: f64,
    ) -> Result<Self, ThermalError> {
        if rows == 0 || cols == 0 || rows * cols < 2 {
            return Err(ThermalError::InvalidInput {
                message: format!("chip thermal map needs ≥ 2 intersections, got {rows}×{cols}"),
            });
        }
        if !(vertical_half_conductance > 0.0) || !vertical_half_conductance.is_finite() {
            return Err(ThermalError::InvalidInput {
                message: format!(
                    "vertical half-segment conductance must be positive, got {vertical_half_conductance}"
                ),
            });
        }
        if !(lateral_conductance >= 0.0) || !lateral_conductance.is_finite() {
            return Err(ThermalError::InvalidInput {
                message: format!(
                    "lateral conductance must be non-negative, got {lateral_conductance}"
                ),
            });
        }
        let g = lateral_conductance + vertical_half_conductance;
        let diag: Vec<f64> = (0..rows * cols)
            .map(|k| degree(rows, cols, k) * g)
            .collect();
        Ok(Self {
            rows,
            cols,
            lateral_g: lateral_conductance,
            half_g: vertical_half_conductance,
            inv_diag: diag.iter().map(|d| 1.0 / d).collect(),
            diag,
        })
    }

    /// Number of intersections.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.rows * self.cols
    }

    /// The node-to-substrate conductance of intersection
    /// `(row, col)` (W/K), row-major.
    ///
    /// # Panics
    ///
    /// Panics if the intersection is outside the grid.
    #[must_use]
    pub fn vertical_conductance(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols);
        degree(self.rows, self.cols, row * self.cols + col) * self.half_g
    }

    /// Solves for per-node temperature **rise** above the substrate
    /// reference (K) given per-node powers (W), both row-major
    /// (`row * cols + col`). A `rise` of the grid's length on entry is
    /// the starting guess (the previous Picard iterate makes a good
    /// one); anything else starts from zero. On return every node is
    /// within 1e-9 K of the exact field.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] on a length mismatch or a
    /// non-finite/negative power, and [`ThermalError::NoConvergence`]
    /// when the iteration cap derived from `κ` runs out first (powers so
    /// large that the tolerance is below the field's rounding error).
    pub fn solve_into(&self, node_power: &[f64], rise: &mut Vec<f64>) -> Result<(), ThermalError> {
        let n = self.node_count();
        if node_power.len() != n {
            return Err(ThermalError::InvalidInput {
                message: format!("expected {n} node powers, got {}", node_power.len()),
            });
        }
        for (k, &p) in node_power.iter().enumerate() {
            if !(p >= 0.0) || !p.is_finite() {
                return Err(ThermalError::InvalidInput {
                    message: format!("node {k} power must be finite and ≥ 0, got {p}"),
                });
            }
        }
        metrics::counter("thermal.chip.solves").inc();
        let _t = hotwire_obs::trace::span("thermal.chip.solve_time");
        if rise.len() != n {
            rise.clear();
            rise.resize(n, 0.0);
        }
        let cap = self.iteration_cap(max_abs(node_power));
        let (iterations, _) = self.pcg(node_power, rise, cap)?;
        metrics::counter("thermal.chip.pcg_iterations").add(iterations as u64);
        Ok(())
    }

    /// Allocating convenience wrapper around
    /// [`ChipThermalModel::solve_into`], started from zero.
    ///
    /// # Errors
    ///
    /// As [`ChipThermalModel::solve_into`].
    pub fn solve(&self, node_power: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let mut rise = Vec::new();
        self.solve_into(node_power, &mut rise)?;
        Ok(rise)
    }

    /// The smallest node-to-substrate conductance, `min(deg)·G_half`: the
    /// diagonal-dominance margin behind the certified error bound. Corner
    /// node 0 always has the fewest incident half-segments.
    fn min_vertical_g(&self) -> f64 {
        degree(self.rows, self.cols, 0) * self.half_g
    }

    /// Iterations within which PCG meets [`TOLERANCE_K`] from any start
    /// no worse than zero, with a factor two for rounding. In exact
    /// arithmetic the A-norm error falls like `2ρᵏ`, `ρ = (√κ−1)/(√κ+1)`;
    /// the norm equivalences between it and the residual's max-norm cost
    /// `2·√(κ·n·max(deg)/min(deg)) ≤ 4·√(κ·n)`, and the starting residual
    /// is at most `‖b‖∞`.
    fn iteration_cap(&self, b_norm: f64) -> usize {
        let kappa = 1.0 + 2.0 * self.lateral_g / self.half_g;
        let s = kappa.sqrt();
        let n = self.node_count() as f64;
        let reach =
            (4.0 * (kappa * n).sqrt() * b_norm / (TOLERANCE_K * self.min_vertical_g())).ln();
        let per_iteration = ((s + 1.0) / (s - 1.0)).ln();
        // The float → integer conversion saturates: a non-positive reach
        // (nothing to reduce) or κ = 1 gives 0, and the cap falls to 2.
        ((reach / per_iteration).ceil() as usize)
            .saturating_mul(2)
            .saturating_add(2)
    }

    /// Jacobi-preconditioned CG on `A·x = b`, started from `x` unless
    /// that start is worse than zero. Stops when the certified bound on
    /// a freshly computed residual is at most [`TOLERANCE_K`]; returns
    /// the iterations taken and that bound (K).
    fn pcg(&self, b: &[f64], x: &mut [f64], cap: usize) -> Result<(usize, f64), ThermalError> {
        let n = b.len();
        let (mut r, mut p, mut q) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let (floor, inv_diag) = (self.min_vertical_g(), &self.inv_diag);
        let b_norm = max_abs(b);
        let mut r_norm = self.residual(b, x, &mut r, &mut q);
        if !(r_norm <= b_norm) {
            x.fill(0.0);
            r.copy_from_slice(b);
            r_norm = b_norm;
        }
        let mut iterations = 0;
        loop {
            if r_norm <= TOLERANCE_K * floor {
                return Ok((iterations, r_norm / floor));
            }
            if iterations >= cap || !r_norm.is_finite() {
                return Err(ThermalError::NoConvergence {
                    iterations,
                    residual: r_norm / b_norm,
                });
            }
            let mut rz = 0.0;
            for ((pi, &ri), &m) in p.iter_mut().zip(&r).zip(inv_diag) {
                *pi = ri * m;
                rz += ri * *pi;
            }
            // The recursively updated residual drifts from the true one,
            // so it only decides when to stop iterating; the loop head
            // judges convergence on a fresh `b − A·x`.
            while iterations < cap {
                iterations += 1;
                let alpha = rz / self.apply(&p, &mut q);
                let (mut rz_next, mut r_max) = (0.0, 0.0);
                for ((((xi, ri), zi), &pi), &m) in
                    x.iter_mut().zip(&mut r).zip(&mut q).zip(&p).zip(inv_diag)
                {
                    *xi += alpha * pi;
                    *ri -= alpha * *zi;
                    *zi = *ri * m;
                    rz_next += *ri * *zi;
                    r_max = abs_max(r_max, *ri);
                }
                if !(r_max > TOLERANCE_K * floor) {
                    break;
                }
                let beta = rz_next / rz;
                rz = rz_next;
                for (pi, &zi) in p.iter_mut().zip(&q) {
                    *pi = zi + beta * *pi;
                }
            }
            r_norm = self.residual(b, x, &mut r, &mut q);
        }
    }

    /// `r = b − A·x`, using `scratch` for `A·x`; returns `‖r‖∞`.
    fn residual(&self, b: &[f64], x: &[f64], r: &mut [f64], scratch: &mut [f64]) -> f64 {
        self.apply(x, scratch);
        for ((ri, &bi), &ax) in r.iter_mut().zip(b).zip(scratch.iter()) {
            *ri = bi - ax;
        }
        max_abs(r)
    }

    /// `y = A·x` through the 5-point stencil, one grid row at a time;
    /// returns `x·y`.
    fn apply(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let (cols, g) = (self.cols, self.lateral_g);
        let mut xy = 0.0;
        for (r, yr) in y.chunks_exact_mut(cols).enumerate() {
            let at = r * cols;
            let xr = &x[at..at + cols];
            for ((yc, &d), &xc) in yr.iter_mut().zip(&self.diag[at..]).zip(xr) {
                *yc = d * xc;
            }
            for (yc, &west) in yr[1..].iter_mut().zip(xr) {
                *yc -= g * west;
            }
            for (yc, &east) in yr.iter_mut().zip(&xr[1..]) {
                *yc -= g * east;
            }
            if r > 0 {
                for (yc, &north) in yr.iter_mut().zip(&x[at - cols..at]) {
                    *yc -= g * north;
                }
            }
            if r + 1 < self.rows {
                for (yc, &south) in yr.iter_mut().zip(&x[at + cols..]) {
                    *yc -= g * south;
                }
            }
            xy += xr.iter().zip(yr.iter()).map(|(a, b)| a * b).sum::<f64>();
        }
        xy
    }
}

/// Number of strap half-segments incident on row-major node `k`.
fn degree(rows: usize, cols: usize, k: usize) -> f64 {
    let (r, c) = (k / cols, k % cols);
    let incident = usize::from(c > 0)
        + usize::from(c + 1 < cols)
        + usize::from(r > 0)
        + usize::from(r + 1 < rows);
    incident as f64
}

/// `‖v‖∞`, or NaN when `v` holds a NaN.
fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, &x| abs_max(m, x))
}

/// `max(m, |x|)`, sticking at NaN once either is NaN: a plain `f64::max`
/// would drop it and let a poisoned field pass the convergence test.
fn abs_max(m: f64, x: f64) -> f64 {
    if x.abs() > m || x.is_nan() {
        x.abs()
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validation() {
        assert!(ChipThermalModel::new(1, 1, 1.0, 1.0).is_err());
        assert!(ChipThermalModel::new(0, 5, 1.0, 1.0).is_err());
        assert!(ChipThermalModel::new(2, 2, 1.0, 0.0).is_err());
        assert!(ChipThermalModel::new(2, 2, -1.0, 1.0).is_err());
        assert!(ChipThermalModel::new(2, 2, f64::NAN, 1.0).is_err());
        assert!(ChipThermalModel::new(2, 2, 1.0, 1.0).is_ok());
    }

    #[test]
    fn zero_lateral_decouples_nodes() {
        // Without metal conduction every node is P/G_v exactly.
        let m = ChipThermalModel::new(3, 4, 0.0, 0.5).unwrap();
        let p: Vec<f64> = (0..12).map(|k| 0.1 * (k + 1) as f64).collect();
        let t = m.solve(&p).unwrap();
        for r in 0..3 {
            for c in 0..4 {
                let k = r * 4 + c;
                let expect = p[k] / m.vertical_conductance(r, c);
                assert!((t[k] - expect).abs() < 1e-12, "node {k}");
            }
        }
    }

    #[test]
    fn energy_balance_closes_with_lateral_conduction() {
        // All heat must leave through the vertical conductances.
        for (rows, cols) in [(5, 7), (70, 90)] {
            let m = ChipThermalModel::new(rows, cols, 2.0, 0.3).unwrap();
            let p: Vec<f64> = (0..rows * cols)
                .map(|k| ((k * 13) % 7) as f64 * 0.05)
                .collect();
            let t = m.solve(&p).unwrap();
            let total_in: f64 = p.iter().sum();
            let mut total_out = 0.0;
            for r in 0..rows {
                for c in 0..cols {
                    total_out += t[r * cols + c] * m.vertical_conductance(r, c);
                }
            }
            assert!(
                (total_in - total_out).abs() < 1e-9 * total_in,
                "{rows}x{cols}: in {total_in} vs out {total_out}"
            );
        }
    }

    #[test]
    fn lateral_conduction_spreads_a_hot_spot() {
        let rows = 5;
        let cols = 5;
        let mut p = vec![0.0; rows * cols];
        p[2 * cols + 2] = 1.0;
        let isolated = ChipThermalModel::new(rows, cols, 0.0, 0.2).unwrap();
        let coupled = ChipThermalModel::new(rows, cols, 1.0, 0.2).unwrap();
        let ti = isolated.solve(&p).unwrap();
        let tc = coupled.solve(&p).unwrap();
        // The heated node cools down; its neighbors warm up.
        assert!(tc[2 * cols + 2] < ti[2 * cols + 2]);
        assert!(ti[2 * cols + 1] == 0.0);
        assert!(tc[2 * cols + 1] > 0.0);
        // Peak stays at the heated node.
        let peak = tc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 2 * cols + 2);
    }

    #[test]
    fn tall_and_wide_grids_agree_by_transpose() {
        // Solving a tall grid and its wide transpose must give the same
        // field: the stencil's row and column couplings are separate
        // passes, and both must be wired the same way.
        let (rows, cols) = (3, 6);
        let p: Vec<f64> = (0..rows * cols).map(|k| 0.01 * (k % 5) as f64).collect();
        let wide = ChipThermalModel::new(rows, cols, 0.7, 0.2).unwrap();
        let tall = ChipThermalModel::new(cols, rows, 0.7, 0.2).unwrap();
        let tw = wide.solve(&p).unwrap();
        let mut pt = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                pt[c * rows + r] = p[r * cols + c];
            }
        }
        let tt = tall.solve(&pt).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                let a = tw[r * cols + c];
                let b = tt[c * rows + r];
                assert!((a - b).abs() < 1e-12, "({r},{c}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn field_satisfies_the_stencil() {
        // Check the finite-volume stencil residual at every node, written
        // out here node by node, from degenerate chains up to 70×90.
        let gl = 0.8;
        let gh = 0.3;
        for (rows, cols) in [(1, 2), (3, 4), (6, 3), (64, 64), (66, 66), (70, 90)] {
            let m = ChipThermalModel::new(rows, cols, gl, gh).unwrap();
            let p: Vec<f64> = (0..rows * cols)
                .map(|k| ((k * 7) % 11) as f64 * 0.02)
                .collect();
            let t = m.solve(&p).unwrap();
            let mut worst = 0.0f64;
            for r in 0..rows {
                for c in 0..cols {
                    let k = r * cols + c;
                    let mut acc = m.vertical_conductance(r, c) * t[k];
                    let mut couple = |nk: usize| acc += gl * (t[k] - t[nk]);
                    if c > 0 {
                        couple(k - 1);
                    }
                    if c + 1 < cols {
                        couple(k + 1);
                    }
                    if r > 0 {
                        couple(k - cols);
                    }
                    if r + 1 < rows {
                        couple(k + cols);
                    }
                    worst = worst.max((acc - p[k]).abs());
                }
            }
            assert!(worst < 1e-9, "{rows}x{cols}: stencil residual {worst}");
        }
    }

    #[test]
    fn single_row_chain_matches_hand_solution() {
        // 1×2 chain, one branch: both nodes have one incident
        // half-segment. Equal powers ⇒ equal temperatures ⇒ no lateral
        // flow: ΔT = P / G_half regardless of the lateral conductance.
        let m = ChipThermalModel::new(1, 2, 3.0, 0.25).unwrap();
        let t = m.solve(&[0.5, 0.5]).unwrap();
        assert!((t[0] - 2.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn input_validation_on_solve() {
        let m = ChipThermalModel::new(2, 2, 1.0, 1.0).unwrap();
        assert!(m.solve(&[0.0; 3]).is_err());
        assert!(m.solve(&[0.0, 0.0, 0.0, f64::NAN]).is_err());
        assert!(m.solve(&[0.0, 0.0, 0.0, -1.0]).is_err());
    }

    /// Independent oracle: the conduction matrix stamped branch by
    /// branch and solved by LU. Row-major unknowns put every coupling
    /// within `cols` of the diagonal, elimination fills nothing outside
    /// that band, and partial pivoting never swaps rows of a strictly
    /// diagonally dominant matrix, so eliminating within the band does
    /// the dense LU's arithmetic minus the multiplications by structural
    /// zeros. On small grids the answer is also checked against the
    /// circuit crate's dense LU itself.
    fn dense_lu_oracle(rows: usize, cols: usize, gl: f64, gh: f64, p: &[f64]) -> Vec<f64> {
        let n = rows * cols;
        let (w, width) = (cols, 2 * cols + 1);
        let at = |i: usize, j: usize| i * width + j + w - i;
        let mut a = vec![0.0; n * width];
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                let branches = [
                    (c > 0).then(|| i - 1),
                    (c + 1 < cols).then(|| i + 1),
                    (r > 0).then(|| i - cols),
                    (r + 1 < rows).then(|| i + cols),
                ];
                for j in branches.into_iter().flatten() {
                    a[at(i, i)] += gl + gh;
                    a[at(i, j)] -= gl;
                }
            }
        }
        let mut dense = (n <= 400).then(|| {
            let mut d = hotwire_circuit::linalg::Matrix::zeros(n, n);
            for i in 0..n {
                for j in i.saturating_sub(w)..(i + w + 1).min(n) {
                    d.add(i, j, a[at(i, j)]);
                }
            }
            d
        });
        let mut x = p.to_vec();
        for k in 0..n {
            for i in k + 1..(k + w + 1).min(n) {
                let l = a[at(i, k)] / a[at(k, k)];
                for j in k..(k + w + 1).min(n) {
                    a[at(i, j)] -= l * a[at(k, j)];
                }
                x[i] -= l * x[k];
            }
        }
        for k in (0..n).rev() {
            for j in k + 1..(k + w + 1).min(n) {
                x[k] -= a[at(k, j)] * x[j];
            }
            x[k] /= a[at(k, k)];
        }
        if let Some(d) = dense.as_mut() {
            let full = d.solve(p).unwrap();
            for (got, want) in x.iter().zip(&full) {
                assert!((got - want).abs() <= 1e-13 * (1.0 + want.abs()));
            }
        }
        x
    }

    /// Deterministic node powers up to 5 W with one hot spot.
    fn power_map(n: usize) -> Vec<f64> {
        let mut p: Vec<f64> = (0..n).map(|k| ((k * 7919) % 101) as f64 * 0.05).collect();
        p[n / 3] = 20.0;
        p
    }

    /// Random cases per property: `PROPTEST_CASES`, else 24.
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24)
    }

    /// Uniform `[0, 1]` draws from a splitmix64 stream.
    fn uniform(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Random grids, hot spots and warm starts (none, a field close
        /// to the answer, or a flat one): the field is within its
        /// certified bound of the dense-LU answer, the bound meets the
        /// tolerance, and no run needs more than the exact-arithmetic
        /// iteration bound plus the closing residual check.
        #[test]
        fn random_grids_meet_the_certified_bound(
            rows in 1_usize..41,
            cols in 1_usize..41,
            ratio in 0_usize..4,
            start in 0_usize..3,
            seed in any::<u64>(),
        ) {
            prop_assume!(rows * cols >= 2);
            let (gl, gh) = ([0.0, 0.021, 1.0, 30.0][ratio] * 0.25, 0.25);
            let m = ChipThermalModel::new(rows, cols, gl, gh).unwrap();
            let mut draw = uniform(seed);
            let p: Vec<f64> = (0..rows * cols)
                .map(|_| {
                    let u = draw();
                    if u < 0.1 { 50.0 * u } else { 0.01 * u }
                })
                .collect();
            let oracle = dense_lu_oracle(rows, cols, gl, gh, &p);
            let mean = oracle.iter().sum::<f64>() / oracle.len() as f64;
            let mut x: Vec<f64> = match start {
                0 => vec![0.0; rows * cols],
                1 => oracle.iter().map(|t| t * (1.0 + 1e-3 * (draw() - 0.5))).collect(),
                _ => vec![mean; rows * cols],
            };
            let cap = m.iteration_cap(max_abs(&p));
            let (iterations, bound) = m.pcg(&p, &mut x, cap).unwrap();
            let error = x
                .iter()
                .zip(&oracle)
                .fold(0.0f64, |e, (a, b)| e.max((a - b).abs()));
            prop_assert!(error <= bound + 1e-14 * max_abs(&oracle), "{error:e} vs {bound:e}");
            prop_assert!(bound <= TOLERANCE_K);
            prop_assert!(iterations <= cap / 2 + 1, "{iterations} of {cap}");
        }
    }

    #[test]
    fn certified_bound_holds_against_a_dense_lu_oracle() {
        let gh = 0.25;
        let grids = [
            (1, 2),
            (2, 1),
            (2, 2),
            (1, 9),
            (7, 1),
            (3, 4),
            (6, 3),
            (13, 17),
            (20, 20),
            (70, 90),
        ];
        for (rows, cols) in grids {
            for ratio in [0.0, 0.021, 1.0, 30.0] {
                let m = ChipThermalModel::new(rows, cols, ratio * gh, gh).unwrap();
                let p = power_map(rows * cols);
                let oracle = dense_lu_oracle(rows, cols, ratio * gh, gh, &p);
                let mut x = vec![0.0; rows * cols];
                let (iterations, bound) = m.pcg(&p, &mut x, m.iteration_cap(max_abs(&p))).unwrap();
                let error = x
                    .iter()
                    .zip(&oracle)
                    .fold(0.0f64, |e, (a, b)| e.max((a - b).abs()));
                // The oracle and the residual carry their own rounding,
                // which is what a bound of exactly zero leaves over.
                let slack = 1e-14 * max_abs(&oracle);
                assert!(
                    error <= bound + slack && bound <= TOLERANCE_K,
                    "{rows}x{cols} r={ratio}: error {error:e} K, bound {bound:e} K \
                     after {iterations} iterations"
                );
                assert!(iterations >= 1 && iterations <= m.iteration_cap(max_abs(&p)));
            }
        }
    }

    #[test]
    fn warm_start_from_the_exact_field_takes_no_iterations() {
        let (rows, cols, gl, gh) = (70, 90, 0.25, 0.25);
        let m = ChipThermalModel::new(rows, cols, gl, gh).unwrap();
        let p = power_map(rows * cols);
        let exact = dense_lu_oracle(rows, cols, gl, gh, &p);
        let mut x = exact.clone();
        let (iterations, bound) = m.pcg(&p, &mut x, 1).unwrap();
        assert_eq!(iterations, 0);
        assert!(bound <= TOLERANCE_K);
        assert_eq!(x, exact, "a converged start must come back untouched");
        // Through the public entry point too, from its own answer.
        let mut rise = m.solve(&p).unwrap();
        let first = rise.clone();
        m.solve_into(&p, &mut rise).unwrap();
        assert_eq!(rise, first);
    }

    #[test]
    fn zero_power_gives_zero_rise() {
        let m = ChipThermalModel::new(9, 11, 1.0, 0.25).unwrap();
        let zero = vec![0.0; 99];
        assert!(m.solve(&zero).unwrap().iter().all(|&t| t == 0.0));
        // A stale warm start is dropped, not iterated towards zero.
        let mut x = power_map(99);
        assert_eq!(m.pcg(&zero, &mut x, 1).unwrap(), (0, 0.0));
        assert!(x.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn an_iteration_cap_of_one_is_no_convergence() {
        let m = ChipThermalModel::new(20, 20, 0.25, 0.25).unwrap();
        let p = power_map(400);
        let mut x = vec![0.0; 400];
        match m.pcg(&p, &mut x, 1) {
            Err(ThermalError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 1);
                assert!(residual > 0.0 && residual < 1.0);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }
}
