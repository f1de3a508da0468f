//! Properties of the DC grid solver that follow from its reduced matrix
//! being a symmetric nonsingular M-matrix, each checked against an
//! oracle that shares no code with the solver:
//!
//! * [`DcGridSolver::condition_number`] (one solve `A·y = 1`, then
//!   ‖A‖∞·max y) equals ‖A‖₁·‖A⁻¹‖₁ of an independently assembled dense
//!   matrix inverted column by column;
//! * the voltage drops against the unloaded solve obey superposition,
//!   reciprocity and inverse-positivity;
//! * a [`ChipThermalModel`] fed the solve's Joule power sends exactly
//!   that power into the substrate.
//!
//! The random grids are `rows × cols` meshes of 2–16 nodes per side with
//! about one branch in five removed, one to three pads at 1 V, a `gmin`
//! leak of 1e-12, 1e-9, 1e-6 or 1e-3 S and branch conductances
//! log-uniform over 0.05–20 S; some have one link weakened by 10⁻³ to
//! 10⁻⁹. `PROPTEST_CASES` sets the number of random cases per property
//! (default 24).

use hotwire_circuit::grid_dc::DcGridSolver;
use hotwire_circuit::linalg::Matrix;
use hotwire_thermal::chip::ChipThermalModel;
use proptest::prelude::*;

/// Random cases per property: `PROPTEST_CASES`, else 24.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Splitmix64 — each case derives its whole grid from one seed.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// Log-uniform in `[lo, hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.in_range(lo.ln(), hi.ln()).exp()
    }
}

/// The pad voltage every random grid is pinned to.
const VDD: f64 = 1.0;

/// A random mesh with holes (see the module docs).
struct Grid {
    rows: usize,
    cols: usize,
    branches: Vec<(usize, usize)>,
    g: Vec<f64>,
    pads: Vec<usize>,
    gmin: f64,
}

impl Grid {
    fn random(rows: usize, cols: usize, gmin: f64, weak: bool, mix: &mut Mix) -> Self {
        let mut branches = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let here = r * cols + c;
                if c + 1 < cols {
                    branches.push((here, here + 1));
                }
                if r + 1 < rows {
                    branches.push((here, here + cols));
                }
            }
        }
        branches.retain(|_| mix.below(5) != 0);
        if branches.is_empty() {
            branches.push((0, 1));
        }
        let mut g: Vec<f64> = branches
            .iter()
            .map(|_| mix.log_uniform(0.05, 20.0))
            .collect();
        if weak {
            let k = mix.below(g.len());
            g[k] *= 10f64.powf(-mix.in_range(3.0, 9.0));
        }
        let n = rows * cols;
        let want = (1 + mix.below(3)).min(n - 1);
        let mut pads = Vec::new();
        while pads.len() < want {
            let p = mix.below(n);
            if !pads.contains(&p) {
                pads.push(p);
            }
        }
        Self {
            rows,
            cols,
            branches,
            g,
            pads,
            gmin,
        }
    }

    fn nodes(&self) -> usize {
        self.rows * self.cols
    }

    fn free_nodes(&self) -> Vec<usize> {
        (0..self.nodes())
            .filter(|n| !self.pads.contains(n))
            .collect()
    }

    fn solver(&self) -> DcGridSolver {
        let pinned: Vec<(usize, f64)> = self.pads.iter().map(|&p| (p, VDD)).collect();
        DcGridSolver::new(self.nodes(), self.branches.clone(), &pinned, self.gmin)
            .expect("random grids are valid")
    }

    /// Node voltages with the given per-node sinks (A).
    fn voltages(&self, sinks: &[f64]) -> Vec<f64> {
        let mut s = self.solver();
        for (node, &amps) in sinks.iter().enumerate() {
            s.set_sink(node, amps);
        }
        s.solve(&self.g).expect("random grids solve");
        s.node_voltages().to_vec()
    }

    /// The reduced conductance matrix, assembled from the branch list
    /// with free nodes numbered in node order.
    fn dense(&self) -> Matrix {
        let free = self.free_nodes();
        let mut index = vec![None; self.nodes()];
        for (u, &node) in free.iter().enumerate() {
            index[node] = Some(u);
        }
        let mut a = Matrix::zeros(free.len(), free.len());
        for (&(p, q), &g) in self.branches.iter().zip(&self.g) {
            for (here, there) in [(index[p], index[q]), (index[q], index[p])] {
                if let Some(u) = here {
                    a.add(u, u, g);
                    if let Some(v) = there {
                        a.add(u, v, -g);
                    }
                }
            }
        }
        for u in 0..free.len() {
            a.add(u, u, self.gmin);
        }
        a
    }
}

/// κ₁ = ‖A‖₁·‖A⁻¹‖₁ by brute force: dense LU, then every column of A⁻¹.
fn dense_kappa_1(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut lu = a.clone();
    lu.factor().expect("the reduced matrix is nonsingular");
    let (mut inv_norm, mut col) = (0.0_f64, Vec::new());
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        lu.solve_factored_into(&e, &mut col);
        inv_norm = inv_norm.max(col.iter().map(|v| v.abs()).sum());
    }
    let a_norm = (0..n)
        .map(|j| (0..n).map(|i| a[(i, j)].abs()).sum::<f64>())
        .fold(0.0, f64::max);
    a_norm * inv_norm
}

/// Asserts the solver's κ matches the dense-inverse κ₁. Two
/// eliminations of one stored matrix agree to 1e-9 relative unless κ
/// passes about 5e6: a backward error of ε‖A‖ moves ‖A⁻¹‖ by up to ε·κ
/// relative. That happens when a cluster of nodes reaches the pads only
/// through `gmin` or a weak link, so its smallest pivot is a difference
/// of conductances many orders larger; the dense LU and the AMD-ordered
/// LDLᵀ then round it differently.
fn assert_kappa_matches(kappa: f64, exact: f64) -> Result<(), TestCaseError> {
    let tol = 1e-9_f64.max(f64::EPSILON * exact);
    prop_assert!(
        (kappa - exact).abs() <= tol * exact,
        "κ {kappa} vs dense κ₁ {exact} (relative tolerance {tol:e})"
    );
    Ok(())
}

const GMINS: [f64; 4] = [1e-12, 1e-9, 1e-6, 1e-3];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The one-solve κ matches the dense-inverse κ₁.
    #[test]
    fn condition_number_matches_the_dense_inverse(
        rows in 2_usize..17,
        cols in 2_usize..17,
        gmin in 0_usize..4,
        weak in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let grid = Grid::random(rows, cols, GMINS[gmin], weak, &mut Mix(seed));
        let mut solver = grid.solver();
        solver.solve(&grid.g).expect("random grids solve");
        let kappa = solver.condition_number().expect("free nodes exist");
        assert_kappa_matches(kappa, dense_kappa_1(&grid.dense()))?;
    }

    /// A chain with one link weakened by `10^-weak_exp`: κ grows at least
    /// with the conductance ratio, and still matches the dense inverse.
    #[test]
    fn condition_number_grows_with_a_weak_link(
        weak_exp in 3.0_f64..9.0,
        n in 4_usize..200,
    ) {
        let weak = 10f64.powf(-weak_exp);
        let branches: Vec<_> = (0..n - 1).map(|k| (k, k + 1)).collect();
        let g: Vec<f64> = (0..n - 1).map(|k| if k == n / 2 { weak } else { 1.0 }).collect();
        let grid = Grid { rows: 1, cols: n, branches, g, pads: vec![0], gmin: 1e-12 };
        let mut solver = grid.solver();
        solver.solve(&grid.g).expect("chain solves");
        let kappa = solver.condition_number().expect("free nodes exist");
        prop_assert!(kappa >= 1.0 / weak, "κ {kappa} below the ratio {}", 1.0 / weak);
        assert_kappa_matches(kappa, dense_kappa_1(&grid.dense()))?;
    }

    /// Drops against the unloaded solve are linear in the sinks,
    /// symmetric between source and observer, and never negative; no
    /// node rises when a sink grows.
    #[test]
    fn voltage_drops_obey_superposition_reciprocity_and_positivity(
        rows in 2_usize..17,
        cols in 2_usize..17,
        gmin in 0_usize..4,
        seed in any::<u64>(),
    ) {
        let mix = &mut Mix(seed);
        let grid = Grid::random(rows, cols, GMINS[gmin], false, mix);
        let n = grid.nodes();
        let free = grid.free_nodes();
        let mut solver = grid.solver();
        solver.solve(&grid.g).expect("random grids solve");
        let kappa = solver.condition_number().expect("free nodes exist");
        let unloaded = solver.node_voltages().to_vec();
        let drop = |sinks: &[f64]| -> Vec<f64> {
            let v = grid.voltages(sinks);
            unloaded.iter().zip(&v).map(|(v0, v)| v0 - v).collect()
        };
        let random_sinks = |mix: &mut Mix| -> Vec<f64> {
            let mut s = vec![0.0; n];
            for &node in &free {
                if mix.below(3) == 0 {
                    s[node] = mix.in_range(0.0, 1e-3);
                }
            }
            s
        };
        let (s1, s2) = (random_sinks(mix), random_sinks(mix));
        let both: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
        let (d1, d2, d12) = (drop(&s1), drop(&s2), drop(&both));
        // Each solve is backward stable, so its voltages are within about
        // ε·κ of exact relative to their size, VDD plus the largest drop;
        // the `n` term covers the rounding of the subtractions.
        let tol = |drops: &[&[f64]]| {
            let volts = drops
                .iter()
                .flat_map(|d| d.iter())
                .fold(VDD, |m, &v| m.max(VDD + v.abs()));
            4.0 * (kappa + n as f64) * f64::EPSILON * volts
        };

        let t = tol(&[&d1, &d2, &d12]);
        for k in 0..n {
            prop_assert!(
                (d12[k] - d1[k] - d2[k]).abs() <= t,
                "superposition at node {k}: {} vs {} + {} (tol {t:e})",
                d12[k], d1[k], d2[k]
            );
            prop_assert!(d1[k] >= -t, "drop {} at node {k} is negative", d1[k]);
        }

        let (i, j) = (free[mix.below(free.len())], free[mix.below(free.len())]);
        let unit = |node: usize| -> Vec<f64> {
            let mut s = vec![0.0; n];
            s[node] = 1e-3;
            s
        };
        let (di, dj) = (drop(&unit(i)), drop(&unit(j)));
        let t = tol(&[&di, &dj]);
        prop_assert!(
            (dj[i] - di[j]).abs() <= t,
            "reciprocity between {i} and {j}: {} vs {} (tol {t:e})", dj[i], di[j]
        );

        let k = free[mix.below(free.len())];
        let mut grown = s1.clone();
        grown[k] += mix.in_range(1e-6, 1e-3);
        let dg = drop(&grown);
        let t = tol(&[&d1, &dg]);
        for node in 0..n {
            prop_assert!(
                dg[node] >= d1[node] - t,
                "node {node} rose by {} when the sink at {k} grew",
                d1[node] - dg[node]
            );
        }
    }

    /// The chip thermal map's heat out, Σ G_v·ΔT, equals the Joule power
    /// in. `1ᵀL = 0` for the lateral Laplacian, so the two differ by the
    /// sum of the residual, at most n·1e-9 K·min G_v by the map's
    /// certified stopping rule, plus the rounding of the sums.
    #[test]
    fn chip_map_returns_the_joule_power_to_the_substrate(
        rows in 2_usize..17,
        cols in 2_usize..17,
        gmin in 0_usize..4,
        seed in any::<u64>(),
    ) {
        let mix = &mut Mix(seed);
        let grid = Grid::random(rows, cols, GMINS[gmin], false, mix);
        let mut solver = grid.solver();
        for node in grid.free_nodes() {
            solver.set_sink(node, mix.in_range(0.0, 1e-3));
        }
        solver.solve(&grid.g).expect("random grids solve");
        let mut power = vec![0.0; grid.nodes()];
        for ((&(a, b), &i), &g) in grid.branches.iter().zip(solver.branch_currents()).zip(&grid.g) {
            power[a] += 0.5 * i * i / g;
            power[b] += 0.5 * i * i / g;
        }
        let half_g = mix.log_uniform(1e-7, 1e-4);
        let lateral_g = half_g * mix.log_uniform(1e-2, 1e2);
        let chip = ChipThermalModel::new(rows, cols, lateral_g, half_g).expect("valid map");
        let rise = chip.solve(&power).expect("map converges");
        let mut heat_out = 0.0;
        let mut magnitude = 0.0;
        let mut min_gv = f64::INFINITY;
        for r in 0..rows {
            for c in 0..cols {
                let gv = chip.vertical_conductance(r, c);
                let t = rise[r * cols + c];
                heat_out += gv * t;
                // |A|·ΔT summed over rows: each node's diagonal and its
                // lateral links, both ways.
                magnitude += gv * t + 2.0 * (gv / half_g) * lateral_g * t.abs();
                min_gv = min_gv.min(gv);
            }
        }
        let power_in: f64 = power.iter().sum();
        let n = grid.nodes() as f64;
        let bound = n * 1e-9 * min_gv + 8.0 * n * f64::EPSILON * (power_in + magnitude);
        prop_assert!(
            (heat_out - power_in).abs() <= bound,
            "heat out {heat_out:e} W vs power in {power_in:e} W (bound {bound:e})"
        );
    }
}

/// A diagonal reduced matrix — every free node tied to the pad alone, no
/// leak — has κ = max g / min g exactly, at any size.
#[test]
fn diagonal_condition_number_is_the_conductance_spread() {
    for free in [3, 200] {
        let branches: Vec<_> = (1..=free).map(|k| (0, k)).collect();
        let g: Vec<f64> = (1..=free).map(|k| 0.5 + (k % 7) as f64).collect();
        let mut solver = DcGridSolver::new(free + 1, branches, &[(0, VDD)], 0.0).unwrap();
        solver.solve(&g).unwrap();
        let (max, min) = g.iter().fold((0.0_f64, f64::INFINITY), |(hi, lo), &v| {
            (hi.max(v), lo.min(v))
        });
        let spread = max / min;
        let kappa = solver.condition_number().unwrap();
        assert!(
            (kappa - spread).abs() <= 4.0 * f64::EPSILON * spread,
            "{free} unknowns: κ {kappa} vs {spread}"
        );
    }
}
