//! Reusable DC solver for resistive grids: Dirichlet-pinned nodes,
//! per-node sink currents, per-branch conductances — and cheap repeated
//! solves when only the conductances change.
//!
//! This is the electrical half of the coupled electro-thermal loop: the
//! topology (which nodes exist, which are pinned to a supply, which
//! branches connect them) is fixed once, while branch conductances are
//! restamped every iteration as each strap's resistivity tracks its
//! local temperature. The solver eliminates pinned nodes from the
//! system (no voltage-source branches), so the reduced conductance
//! matrix is a weighted grid Laplacian plus the pad ties and the `gmin`
//! leak on its diagonal: symmetric, and positive definite whenever it is
//! nonsingular. Every grid, whatever its size, is therefore factored by
//! the AMD-ordered LDLᵀ of [`crate::cholesky`], and the
//! [`CholeskyFactorization`] stays alive across solves so iteration 2+
//! pays only a numeric refactor, not the ordering and symbolic analysis.
//!
//! The matrix itself is a stamp map. [`DcGridSolver::new`] builds the
//! compressed-column pattern of the reduced matrix once, with one value
//! slot per distinct entry, and records for every stamp the slot it adds
//! into: four per branch between free nodes, one per pad branch and one
//! per `gmin` diagonal, so parallel branches share their slots. Every
//! solve, the first included, zeroes the values and scatters the
//! conductances into them in a fixed order, so a restamped solve adds
//! exactly what a fresh one would, and the factorization reads the
//! matrix in place.
//!
//! The reduced matrix is a nonsingular M-matrix, so `A⁻¹ ≥ 0` entrywise
//! and `‖A⁻¹‖∞ = max(A⁻¹·1)`. One extra solve with the factorization in
//! hand therefore gives the exact condition number κ₁ = κ∞
//! ([`DcGridSolver::condition_number`]); no estimator is needed.
//!
//! ```
//! use hotwire_circuit::grid_dc::DcGridSolver;
//!
//! // A 3-node chain: node 0 pinned at 1 V, 1 A drawn from node 2.
//! let mut solver = DcGridSolver::new(3, vec![(0, 1), (1, 2)], &[(0, 1.0)], 1e-12)?;
//! solver.set_sink(2, 1.0);
//! solver.solve(&[2.0, 2.0])?; // two 0.5 Ω branches
//! let v = solver.node_voltages();
//! assert!((v[2] - 0.0).abs() < 1e-6, "1 V − 1 A·1 Ω ⇒ ≈0 V at the load");
//! let i = solver.branch_currents();
//! assert!((i[0] - 1.0).abs() < 1e-6, "current flows 0 → 2");
//! # Ok::<(), hotwire_circuit::CircuitError>(())
//! ```

use crate::cholesky::CholeskyFactorization;
use crate::solver::{counted_factor, counted_refactor};
use crate::sparse::Csc;
use crate::CircuitError;
use hotwire_obs::trace::{self, FieldValue, Level};
use hotwire_obs::{health, metrics};

/// Relative-residual warn threshold: ‖Ax−b‖∞/‖b‖∞ beyond this increments
/// `health.residual_warn` and logs a warning, and a KCL imbalance beyond
/// it increments `health.kcl_warn`. Direct solves on well-conditioned
/// grids land near machine epsilon; 1e-8 leaves orders of headroom
/// before flagging.
pub const RESIDUAL_WARN: f64 = 1e-8;

/// A resistive-grid DC solver with a fixed topology and restampable
/// branch conductances.
///
/// Create once per topology with [`DcGridSolver::new`], then call
/// [`DcGridSolver::solve`] as many times as needed with updated
/// conductance vectors. The first solve factors the reduced matrix;
/// later solves reuse the factorization's symbolic structure via
/// [`CholeskyFactorization::refactor`]. [`DcGridSolver::condition_number`]
/// reports κ of the matrix behind the current voltages on demand, from
/// the same factorization.
#[derive(Debug, Clone)]
pub struct DcGridSolver {
    n_nodes: usize,
    branches: Vec<(usize, usize)>,
    pinned_v: Vec<Option<f64>>,
    unknown_of: Vec<usize>,
    n_unknowns: usize,
    gmin: f64,
    sinks: Vec<f64>,
    /// The reduced matrix: its pattern is built once, its values are
    /// rewritten by every solve.
    matrix: Csc,
    /// The slot in `matrix.values` of every stamp, in the order
    /// [`DcGridSolver::solve`] adds them (see [`stamp_map`]).
    slots: Vec<u32>,
    /// Factors `matrix`; `None` before the first solve and after a
    /// failed one.
    factorization: Option<CholeskyFactorization>,
    rhs: Vec<f64>,
    /// Per-row absolute sums of `matrix`; ‖A‖∞ is their maximum.
    row_abs: Vec<f64>,
    reduced: Vec<f64>,
    node_v: Vec<f64>,
    branch_i: Vec<f64>,
    solves: usize,
    last_residual: Option<f64>,
}

impl DcGridSolver {
    /// Builds a solver for `n_nodes` nodes connected by `branches`
    /// (pairs of node indices), with the given nodes pinned to fixed
    /// voltages and a `gmin` leak from every free node to ground (so
    /// disconnected islands droop instead of going singular).
    ///
    /// Duplicate pins on the same node are allowed; the last value wins.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] when there are no nodes,
    /// no branches, no pinned nodes, an index is out of range, a branch
    /// is a self-loop, or `gmin` is negative or non-finite.
    pub fn new(
        n_nodes: usize,
        branches: Vec<(usize, usize)>,
        pinned: &[(usize, f64)],
        gmin: f64,
    ) -> Result<Self, CircuitError> {
        if n_nodes == 0 {
            return Err(CircuitError::InvalidDevice {
                message: "DC grid needs at least one node".to_owned(),
            });
        }
        if branches.is_empty() {
            return Err(CircuitError::InvalidDevice {
                message: "DC grid needs at least one branch".to_owned(),
            });
        }
        if pinned.is_empty() {
            return Err(CircuitError::InvalidDevice {
                message: "DC grid needs at least one pinned node".to_owned(),
            });
        }
        if !(gmin >= 0.0) || !gmin.is_finite() {
            return Err(CircuitError::InvalidDevice {
                message: format!("gmin must be finite and non-negative, got {gmin}"),
            });
        }
        for &(a, b) in &branches {
            if a >= n_nodes || b >= n_nodes {
                return Err(CircuitError::InvalidDevice {
                    message: format!("branch ({a}, {b}) outside {n_nodes} nodes"),
                });
            }
            if a == b {
                return Err(CircuitError::InvalidDevice {
                    message: format!("branch ({a}, {b}) is a self-loop"),
                });
            }
        }
        let mut pinned_v = vec![None; n_nodes];
        for &(node, v) in pinned {
            if node >= n_nodes {
                return Err(CircuitError::InvalidDevice {
                    message: format!("pinned node {node} outside {n_nodes} nodes"),
                });
            }
            if !v.is_finite() {
                return Err(CircuitError::InvalidDevice {
                    message: format!("pinned voltage {v} at node {node} is not finite"),
                });
            }
            pinned_v[node] = Some(v);
        }
        let mut unknown_of = vec![usize::MAX; n_nodes];
        let mut n_unknowns = 0;
        for (node, u) in unknown_of.iter_mut().enumerate() {
            if pinned_v[node].is_none() {
                *u = n_unknowns;
                n_unknowns += 1;
            }
        }
        let n_branches = branches.len();
        let (matrix, slots) = stamp_map(n_unknowns, &branches, &unknown_of);
        Ok(Self {
            n_nodes,
            branches,
            pinned_v,
            unknown_of,
            n_unknowns,
            gmin,
            sinks: vec![0.0; n_nodes],
            matrix,
            slots,
            factorization: None,
            rhs: vec![0.0; n_unknowns],
            row_abs: vec![0.0; n_unknowns],
            reduced: Vec::new(),
            node_v: vec![0.0; n_nodes],
            branch_i: vec![0.0; n_branches],
            solves: 0,
            last_residual: None,
        })
    }

    /// Sets the DC current drawn from `node` to ground (a logic load).
    ///
    /// Sinks on pinned nodes are legal but inert: the pad supplies them
    /// directly without flowing through any branch.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_sink(&mut self, node: usize, amps: f64) {
        self.sinks[node] = amps;
    }

    /// Solves the grid for the given per-branch conductances (S), in
    /// branch order as passed to [`DcGridSolver::new`].
    ///
    /// Every call restamps the reduced matrix in place. The first
    /// factors it; later calls refactor, reusing the ordering and
    /// symbolic structure. Results land in [`DcGridSolver::node_voltages`]
    /// and [`DcGridSolver::branch_currents`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDevice`] on a conductance-count
    /// mismatch or a non-positive/non-finite conductance, and
    /// [`CircuitError::Singular`] when the stamped system cannot be
    /// factored: an LDLᵀ pivot came out zero (or tiny), which on this
    /// symmetric, diagonally dominant matrix means it is singular or
    /// numerically so, as with a floating island at `gmin = 0`.
    pub fn solve(&mut self, branch_conductance: &[f64]) -> Result<(), CircuitError> {
        if branch_conductance.len() != self.branches.len() {
            return Err(CircuitError::InvalidDevice {
                message: format!(
                    "expected {} branch conductances, got {}",
                    self.branches.len(),
                    branch_conductance.len()
                ),
            });
        }
        for (k, &g) in branch_conductance.iter().enumerate() {
            if !(g > 0.0) || !g.is_finite() {
                return Err(CircuitError::InvalidDevice {
                    message: format!("branch {k} conductance must be positive, got {g}"),
                });
            }
        }

        metrics::counter("grid_dc.solves").inc();
        #[allow(clippy::cast_precision_loss)]
        metrics::gauge("grid_dc.unknowns").set(self.n_unknowns as f64);
        let _t = hotwire_obs::trace::span("grid_dc.solve_time");
        if self.n_unknowns > 0 {
            self.stamp(branch_conductance);
            // A failed (re)factorization is dropped rather than kept in a
            // half-overwritten state.
            let factored = match self.factorization.take() {
                Some(mut f) => counted_refactor(|| f.refactor_csc(&self.matrix)).map(|()| f),
                None => counted_factor(|| CholeskyFactorization::factor_csc(&self.matrix)),
            };
            let f = self.factorization.insert(factored.map_err(|e| match e {
                CircuitError::NotPositiveDefinite { row } => CircuitError::Singular { row },
                e => e,
            })?);
            metrics::gauge(health::names::CHOL_MIN_PIVOT).set(f.min_pivot());
            f.solve_into(&self.rhs, &mut self.reduced);
            self.check_residual();
        }
        for node in 0..self.n_nodes {
            self.node_v[node] = match self.pinned_v[node] {
                Some(v) => v,
                None => self.reduced[self.unknown_of[node]],
            };
        }
        for (k, (&(a, b), &g)) in self.branches.iter().zip(branch_conductance).enumerate() {
            self.branch_i[k] = (self.node_v[a] - self.node_v[b]) * g;
        }
        self.solves += 1;
        Ok(())
    }

    /// Rewrites the reduced matrix, the right-hand side and the row sums
    /// for `branch_conductance`. The stamps go in a fixed order (the one
    /// [`stamp_map`] numbered the slots in), so every solve adds the same
    /// floating-point sums as a fresh solver would.
    fn stamp(&mut self, branch_conductance: &[f64]) {
        let values = &mut self.matrix.values;
        values.fill(0.0);
        self.rhs.fill(0.0);
        self.row_abs.fill(0.0);
        let (slots, mut next) = (&self.slots, 0);
        let mut add = |v: f64| {
            values[slots[next] as usize] += v;
            next += 1;
        };
        for (&(a, b), &g) in self.branches.iter().zip(branch_conductance) {
            match (self.pinned_v[a], self.pinned_v[b]) {
                (None, None) => {
                    for v in [g, g, -g, -g] {
                        add(v);
                    }
                    self.row_abs[self.unknown_of[a]] += 2.0 * g;
                    self.row_abs[self.unknown_of[b]] += 2.0 * g;
                }
                (Some(va), None) => {
                    let ub = self.unknown_of[b];
                    add(g);
                    self.rhs[ub] += g * va;
                    self.row_abs[ub] += g;
                }
                (None, Some(vb)) => {
                    let ua = self.unknown_of[a];
                    add(g);
                    self.rhs[ua] += g * vb;
                    self.row_abs[ua] += g;
                }
                (Some(_), Some(_)) => {} // both ends pinned: no unknown
            }
        }
        for node in 0..self.n_nodes {
            if self.pinned_v[node].is_none() {
                let u = self.unknown_of[node];
                add(self.gmin);
                self.rhs[u] -= self.sinks[node];
                self.row_abs[u] += self.gmin;
            }
        }
    }

    /// Post-solve relative residual ‖Ax−b‖∞/‖b‖∞ against the stamps and
    /// RHS still in place from [`DcGridSolver::solve`]. Cheap (one
    /// sparse mat-vec) and always on; publishes `health.residual_rel`
    /// and flags `health.residual_warn` past the threshold.
    fn check_residual(&mut self) {
        let ax = self.matrix.mul_vec(&self.reduced);
        let mut err = 0.0f64;
        let mut bnorm = 0.0f64;
        for (axi, bi) in ax.iter().zip(&self.rhs) {
            err = err.max((axi - bi).abs());
            bnorm = bnorm.max(bi.abs());
        }
        let rel = if bnorm > 0.0 { err / bnorm } else { err };
        self.last_residual = Some(rel);
        metrics::gauge(health::names::RESIDUAL_REL).set(rel);
        if rel.is_nan() || rel > RESIDUAL_WARN {
            metrics::counter(health::names::RESIDUAL_WARN).inc();
            trace::event(
                Level::Warn,
                "health.residual_warn",
                "relative residual exceeds threshold",
                &[
                    ("residual_rel", FieldValue::F64(rel)),
                    ("threshold", FieldValue::F64(RESIDUAL_WARN)),
                    ("unknowns", FieldValue::from(self.n_unknowns)),
                ],
            );
        }
    }

    /// Audits Kirchhoff's current law at every free node of the most
    /// recent solve: the signed branch outflows, the sink draw, and the
    /// `gmin` leak must cancel. Returns the worst imbalance relative to
    /// the total sink magnitude (falling back to the largest branch
    /// current, then to 1 A, so a sink-free grid still gets a sane
    /// scale). Publishes `health.kcl_imbalance_rel` and counts
    /// `health.kcl_warn` when the imbalance clears [`RESIDUAL_WARN`].
    ///
    /// Returns 0.0 before the first solve or when every node is pinned.
    #[must_use]
    pub fn kcl_audit(&self) -> f64 {
        if self.solves == 0 || self.n_unknowns == 0 {
            return 0.0;
        }
        let mut imbalance = vec![0.0f64; self.n_nodes];
        for (&(a, b), &i) in self.branches.iter().zip(&self.branch_i) {
            imbalance[a] += i; // outflow at the from-node
            imbalance[b] -= i; // inflow at the to-node
        }
        let mut worst = 0.0f64;
        for (node, &net_out) in imbalance.iter().enumerate() {
            if self.pinned_v[node].is_none() {
                let residual = net_out + self.sinks[node] + self.gmin * self.node_v[node];
                worst = worst.max(residual.abs());
            }
        }
        let mut scale: f64 = self.sinks.iter().map(|s| s.abs()).sum();
        if scale <= 0.0 {
            scale = self.branch_i.iter().fold(0.0f64, |m, i| m.max(i.abs()));
        }
        if scale <= 0.0 {
            scale = 1.0;
        }
        let rel = worst / scale;
        metrics::gauge(health::names::KCL_IMBALANCE_REL).set(rel);
        if rel.is_nan() || rel > RESIDUAL_WARN {
            metrics::counter(health::names::KCL_WARN).inc();
            trace::event(
                Level::Warn,
                "health.kcl_warn",
                "KCL imbalance exceeds threshold",
                &[
                    ("imbalance_rel", FieldValue::F64(rel)),
                    ("free_nodes", FieldValue::from(self.n_unknowns)),
                ],
            );
        }
        rel
    }

    /// The condition number κ₁ = κ∞ of the reduced matrix behind the
    /// current voltages: ‖A‖∞ from the stamps times ‖A⁻¹‖∞ = max(y),
    /// where `A·y = 1` is solved with the LDLᵀ in hand. Exact to rounding
    /// because `A` is a symmetric M-matrix; `f64::INFINITY` when `y` is
    /// not finite.
    /// Each call costs one solve and records one `health.cond_est`
    /// sample.
    ///
    /// `None` before the first successful solve, after a failed one, or
    /// when every node is pinned.
    #[must_use]
    pub fn condition_number(&self) -> Option<f64> {
        let f = self.factorization.as_ref()?;
        let y = f.solve(&vec![1.0; self.n_unknowns]);
        let inv_norm = y
            .iter()
            .try_fold(0.0f64, |m, &v| v.is_finite().then_some(m.max(v.abs())));
        let a_norm = self.row_abs.iter().fold(0.0f64, |m, &r| m.max(r));
        let kappa = inv_norm.map_or(f64::INFINITY, |m| a_norm * m);
        metrics::gauge(health::names::COND_EST).set(kappa);
        metrics::counter(health::names::COND_SAMPLES).inc();
        Some(kappa)
    }

    /// Relative residual ‖Ax−b‖∞/‖b‖∞ from the most recent solve
    /// (`None` before the first, or when every node is pinned).
    #[must_use]
    pub fn last_residual_rel(&self) -> Option<f64> {
        self.last_residual
    }

    /// Per-node voltages from the most recent solve (zeros before any).
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_v
    }

    /// Signed per-branch currents from the most recent solve, positive
    /// when flowing from the branch's first node to its second.
    #[must_use]
    pub fn branch_currents(&self) -> &[f64] {
        &self.branch_i
    }

    /// Number of free (non-pinned) nodes — the reduced system size.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.n_unknowns
    }

    /// Number of branches.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// How many solves have completed (the first pays a full
    /// factorization; the rest refactor).
    #[must_use]
    pub fn solve_count(&self) -> usize {
        self.solves
    }
}

/// The compressed-column pattern of the reduced matrix of `branches`
/// over the free nodes (`unknown_of[node]`, `usize::MAX` when pinned),
/// with zero values, and the value slot of every stamp in the order
/// [`DcGridSolver::solve`] adds them: four per branch between free nodes
/// (`aa`, `bb`, `ab`, `ba`), one per pad branch, then one `gmin`
/// diagonal per free node. Rows are sorted within each column and every
/// entry has one slot, so stamps on the same entry share it.
fn stamp_map(
    n_unknowns: usize,
    branches: &[(usize, usize)],
    unknown_of: &[usize],
) -> (Csc, Vec<u32>) {
    let free = |node: usize| Some(unknown_of[node]).filter(|&u| u != usize::MAX);
    // CAST(free-node indices and value slots stay below the entry count
    // of a u32-indexed CSC, like every SparseMatrix index): compact map.
    #[allow(clippy::cast_possible_truncation)]
    let narrow = |i: usize| i as u32;
    // Column u holds its diagonal, then one row per branch to a free
    // neighbour; sorting and dropping repeats merges parallel branches.
    let mut col_ptr = vec![0usize; n_unknowns + 1];
    for &(a, b) in branches {
        if let (Some(ua), Some(ub)) = (free(a), free(b)) {
            col_ptr[ua + 1] += 1;
            col_ptr[ub + 1] += 1;
        }
    }
    for u in 0..n_unknowns {
        col_ptr[u + 1] += col_ptr[u] + 1;
    }
    let mut row_idx = vec![0u32; col_ptr[n_unknowns]];
    let mut cursor = col_ptr.clone();
    for (u, at) in cursor[..n_unknowns].iter_mut().enumerate() {
        row_idx[*at] = narrow(u);
        *at += 1;
    }
    for &(a, b) in branches {
        if let (Some(ua), Some(ub)) = (free(a), free(b)) {
            row_idx[cursor[ua]] = narrow(ub);
            cursor[ua] += 1;
            row_idx[cursor[ub]] = narrow(ua);
            cursor[ub] += 1;
        }
    }
    let mut starts = Vec::with_capacity(n_unknowns + 1);
    starts.push(0);
    let mut diag = Vec::with_capacity(n_unknowns);
    let mut kept = 0;
    for u in 0..n_unknowns {
        let (lo, hi) = (col_ptr[u], col_ptr[u + 1]);
        row_idx[lo..hi].sort_unstable();
        for p in lo..hi {
            let r = row_idx[p];
            if kept == starts[u] || row_idx[kept - 1] != r {
                if r as usize == u {
                    diag.push(narrow(kept));
                }
                row_idx[kept] = r;
                kept += 1;
            }
        }
        starts.push(kept);
    }
    row_idx.truncate(kept);

    let off_diagonal = |r: usize, c: usize| {
        let col = &row_idx[starts[c]..starts[c + 1]];
        narrow(starts[c] + col.partition_point(|&x| (x as usize) < r))
    };
    let mut slots = Vec::with_capacity(4 * branches.len() + n_unknowns);
    for &(a, b) in branches {
        match (free(a), free(b)) {
            (Some(ua), Some(ub)) => slots.extend([
                diag[ua],
                diag[ub],
                off_diagonal(ua, ub),
                off_diagonal(ub, ua),
            ]),
            (Some(u), None) | (None, Some(u)) => slots.push(diag[u]),
            (None, None) => {} // both ends pinned: no unknown
        }
    }
    slots.extend_from_slice(&diag);
    let values = vec![0.0; row_idx.len()];
    (
        Csc {
            col_ptr: starts,
            row_idx,
            values,
        },
        slots,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseMatrix;

    /// rows×cols mesh with unit spacing; returns (branches, index fn).
    fn mesh(rows: usize, cols: usize) -> Vec<(usize, usize)> {
        let mut branches = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    branches.push((r * cols + c, r * cols + c + 1));
                }
                if r + 1 < rows {
                    branches.push((r * cols + c, (r + 1) * cols + c));
                }
            }
        }
        branches
    }

    #[test]
    fn validation_rejects_degenerate_inputs() {
        assert!(DcGridSolver::new(0, vec![(0, 1)], &[(0, 1.0)], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![], &[(0, 1.0)], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![(0, 1)], &[], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![(0, 2)], &[(0, 1.0)], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![(1, 1)], &[(0, 1.0)], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![(0, 1)], &[(5, 1.0)], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![(0, 1)], &[(0, f64::NAN)], 0.0).is_err());
        assert!(DcGridSolver::new(2, vec![(0, 1)], &[(0, 1.0)], -1.0).is_err());
    }

    #[test]
    fn chain_divider_solves_exactly() {
        let mut s = DcGridSolver::new(3, vec![(0, 1), (1, 2)], &[(0, 2.0)], 0.0).unwrap();
        s.set_sink(2, 0.5);
        s.solve(&[1.0, 4.0]).unwrap(); // 1 Ω + 0.25 Ω in series
        let v = s.node_voltages();
        assert!((v[0] - 2.0).abs() < 1e-12);
        assert!((v[1] - 1.5).abs() < 1e-12);
        assert!((v[2] - 1.375).abs() < 1e-12);
        let i = s.branch_currents();
        assert!((i[0] - 0.5).abs() < 1e-12);
        assert!((i[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn branch_current_sign_follows_orientation() {
        // Pin the SECOND endpoint high: current flows b → a, so the
        // signed from→to current must be negative.
        let mut s = DcGridSolver::new(2, vec![(0, 1)], &[(1, 1.0)], 0.0).unwrap();
        s.set_sink(0, 1.0);
        s.solve(&[2.0]).unwrap();
        assert!((s.branch_currents()[0] + 1.0).abs() < 1e-12);
    }

    /// A topology: node count, branches and pins.
    type Topology = (usize, Vec<(usize, usize)>, Vec<(usize, f64)>);

    /// Two meshes pinned at opposite corners, and small grids with the
    /// corner cases of the stamp map: parallel branches (free–free, both
    /// orientations, and pad ties), a branch between two pinned nodes,
    /// a node pinned twice, and free nodes held only by `gmin`.
    fn topologies() -> Vec<(&'static str, Topology)> {
        let corners = |rows: usize, cols: usize| vec![(0, 1.8), (rows * cols - 1, 1.8)];
        let mut parallel = mesh(4, 4);
        parallel.extend([(1, 2), (2, 1), (5, 6), (0, 1), (1, 0), (4, 0)]);
        vec![
            ("6x7 mesh", (42, mesh(6, 7), corners(6, 7))),
            ("15x15 mesh", (225, mesh(15, 15), corners(15, 15))),
            ("parallel branches", (16, parallel, corners(4, 4))),
            (
                "pinned-to-pinned branch",
                (16, mesh(4, 4), vec![(0, 1.8), (1, 1.7), (15, 1.8)]),
            ),
            (
                "duplicate pins",
                (
                    16,
                    mesh(4, 4),
                    vec![(0, 1.5), (0, 1.8), (15, 1.8), (15, 1.7)],
                ),
            ),
            ("gmin-held nodes", (20, mesh(4, 4), corners(4, 4))),
        ]
    }

    /// The reduced matrix as stamped before the stamp map existed: one
    /// triplet per stamp in a `SparseMatrix`, in the same order.
    fn triplets(s: &DcGridSolver, g: &[f64]) -> SparseMatrix {
        let mut m = SparseMatrix::zeros(s.n_unknowns);
        for (&(a, b), &g) in s.branches.iter().zip(g) {
            let (ua, ub) = (s.unknown_of[a], s.unknown_of[b]);
            match (s.pinned_v[a], s.pinned_v[b]) {
                (None, None) => {
                    m.add(ua, ua, g);
                    m.add(ub, ub, g);
                    m.add(ua, ub, -g);
                    m.add(ub, ua, -g);
                }
                (Some(_), None) => m.add(ub, ub, g),
                (None, Some(_)) => m.add(ua, ua, g),
                (Some(_), Some(_)) => {}
            }
        }
        for node in 0..s.n_nodes {
            if s.pinned_v[node].is_none() {
                let u = s.unknown_of[node];
                m.add(u, u, s.gmin);
            }
        }
        m
    }

    #[test]
    fn stamp_map_matches_the_triplet_assembly() {
        for (name, (n, branches, pinned)) in topologies() {
            let g: Vec<f64> = (0..branches.len())
                .map(|k| 0.7 + 0.13 * (k % 11) as f64)
                .collect();
            let mut s = DcGridSolver::new(n, branches, &pinned, 1e-9).unwrap();
            s.solve(&g).unwrap();
            let want = triplets(&s, &g).to_csc();
            assert_eq!(s.matrix.col_ptr, want.col_ptr, "{name}");
            assert_eq!(s.matrix.row_idx, want.row_idx, "{name}");
            // Only the summation order of shared entries differs.
            for (k, (&got, &want)) in s.matrix.values.iter().zip(&want.values).enumerate() {
                let ulps = (got.to_bits() as i64 - want.to_bits() as i64).abs();
                assert!(ulps <= 4, "{name}: entry {k}: {got:e} vs {want:e}");
            }
        }
    }

    #[test]
    fn restamped_solve_matches_fresh_solver() {
        // Solve each topology twice with different non-uniform
        // conductances via restamp+refactor; a fresh solver on the second
        // set must give the same bits, since both scatter the same stamps
        // in the same order and the refactor replays the fresh factor's
        // arithmetic.
        for (name, (n, branches, pinned)) in topologies() {
            let nb = branches.len();
            let g1: Vec<f64> = (0..nb).map(|k| 1.0 + 0.1 * (k % 7) as f64).collect();
            let g2: Vec<f64> = (0..nb).map(|k| 2.0 + 0.05 * (k % 5) as f64).collect();
            let mut wired = vec![false; n];
            for &(a, b) in &branches {
                wired[a] = true;
                wired[b] = true;
            }
            let solver = || {
                let mut s = DcGridSolver::new(n, branches.clone(), &pinned, 1e-12).unwrap();
                for node in (0..n).filter(|&node| wired[node]) {
                    s.set_sink(node, 1e-3);
                }
                s
            };

            let mut reused = solver();
            reused.solve(&g1).unwrap();
            reused.solve(&g2).unwrap();
            assert_eq!(reused.solve_count(), 2);
            let mut fresh = solver();
            fresh.solve(&g2).unwrap();

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(reused.node_voltages()),
                bits(fresh.node_voltages()),
                "{name}"
            );
            assert_eq!(
                bits(reused.branch_currents()),
                bits(fresh.branch_currents()),
                "{name}"
            );
            let worst = fresh
                .node_voltages()
                .iter()
                .zip(&wired)
                .filter(|&(_, &w)| w)
                .fold(f64::INFINITY, |m, (&v, _)| m.min(v));
            assert!(
                worst < 1.8 && worst > 0.0,
                "{name}: droop exists but is bounded"
            );
        }
    }

    #[test]
    fn a_floating_island_is_singular() {
        // Node 0 is the pad and feeds a chain of `tail` free nodes; the
        // last two nodes form an island joined by a unit conductance and
        // reach nothing else. With no gmin leak the island's second LDLᵀ
        // pivot is 1 − 1 = 0 exactly.
        for tail in [1, 126] {
            let n = tail + 3;
            let mut branches: Vec<_> = (0..tail).map(|k| (k, k + 1)).collect();
            branches.push((n - 2, n - 1));
            let mut s = DcGridSolver::new(n, branches, &[(0, 1.0)], 0.0).unwrap();
            assert_eq!(s.unknown_count(), tail + 2);
            let g = vec![1.0; tail + 1];
            assert!(matches!(s.solve(&g), Err(CircuitError::Singular { .. })));
            assert_eq!(s.condition_number(), None, "{} free nodes", tail + 2);
            assert_eq!(s.solve_count(), 0);
        }
    }

    #[test]
    fn rejects_bad_conductances() {
        let mut s = DcGridSolver::new(2, vec![(0, 1)], &[(0, 1.0)], 0.0).unwrap();
        assert!(s.solve(&[]).is_err());
        assert!(s.solve(&[0.0]).is_err());
        assert!(s.solve(&[-1.0]).is_err());
        assert!(s.solve(&[f64::NAN]).is_err());
    }

    #[test]
    fn health_monitors_report_after_solve() {
        let (rows, cols) = (15, 15);
        let branches = mesh(rows, cols);
        let nb = branches.len();
        let mut s = DcGridSolver::new(rows * cols, branches, &[(0, 1.0)], 1e-9).unwrap();
        for node in 0..rows * cols {
            s.set_sink(node, 1e-4);
        }
        s.solve(&vec![2.0; nb]).unwrap();
        let res = s.last_residual_rel().expect("residual computed");
        assert!(
            res < 1e-10,
            "direct solve residual should be tiny, got {res}"
        );
        let kappa = s.condition_number().expect("factored");
        assert!(kappa.is_finite() && kappa >= 1.0, "kappa = {kappa}");
        let kcl = s.kcl_audit();
        assert!(
            kcl < 1e-9,
            "KCL must balance on a converged grid, got {kcl}"
        );
    }

    #[test]
    fn condition_number_is_exact_on_a_chain() {
        // Node 0 pinned, two unit branches, no leak: A = [[2, −1], [−1, 1]],
        // A⁻¹ = [[1, 1], [1, 2]], so κ∞ = ‖A‖∞·‖A⁻¹‖∞ = 3·3.
        let mut s = DcGridSolver::new(3, vec![(0, 1), (1, 2)], &[(0, 1.0)], 0.0).unwrap();
        assert_eq!(s.condition_number(), None, "nothing factored yet");
        s.solve(&[1.0, 1.0]).unwrap();
        let kappa = s.condition_number().unwrap();
        assert!((kappa - 9.0).abs() < 1e-12, "κ = {kappa}");
        // Weakening the tail link spreads the spectrum: κ follows the
        // new stamps, not a cached value.
        s.solve(&[1.0, 1e-6]).unwrap();
        assert!(s.condition_number().unwrap() > 1e6);
    }

    #[test]
    fn a_failed_refactor_leaves_no_condition_number() {
        let mut s = DcGridSolver::new(3, vec![(0, 1), (1, 2)], &[(0, 1.0)], 0.0).unwrap();
        s.solve(&[1.0, 1.0]).unwrap();
        // Subnormal conductances underflow the LDLᵀ's pivot test.
        assert!(s.solve(&[1e-310, 1e-310]).is_err());
        assert_eq!(s.condition_number(), None);
        s.solve(&[2.0, 2.0]).unwrap();
        assert!(s.condition_number().is_some_and(f64::is_finite));
    }

    #[test]
    fn kcl_audit_is_zero_before_solve_and_when_all_pinned() {
        let s = DcGridSolver::new(2, vec![(0, 1)], &[(0, 1.0)], 0.0).unwrap();
        assert_eq!(s.kcl_audit(), 0.0);
        let mut pinned = DcGridSolver::new(2, vec![(0, 1)], &[(0, 1.0), (1, 0.5)], 0.0).unwrap();
        pinned.solve(&[4.0]).unwrap();
        assert_eq!(pinned.kcl_audit(), 0.0);
        assert_eq!(pinned.condition_number(), None);
    }

    #[test]
    fn all_nodes_pinned_is_trivial() {
        let mut s = DcGridSolver::new(2, vec![(0, 1)], &[(0, 1.0), (1, 0.5)], 0.0).unwrap();
        s.solve(&[4.0]).unwrap();
        assert_eq!(s.unknown_count(), 0);
        assert!((s.branch_currents()[0] - 2.0).abs() < 1e-12);
    }
}
