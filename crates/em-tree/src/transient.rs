//! Implicit finite-volume transient Korhonen solver with void
//! nucleation and growth-to-failure.
//!
//! Each branch is discretized into vertex-centered finite volumes;
//! junction nodes are shared between branches, which enforces both
//! stress continuity and atom-flux conservation at junctions
//! automatically. Zero-flux (blocking-boundary) conditions at leaves
//! fall out of the FV formulation for free. The implicit (backward
//! Euler) step
//!
//! ```text
//! (M/Δt + K) σᵏ⁺¹ = (M/Δt) σᵏ + S
//! ```
//!
//! is SPD, so [`hotwire_circuit::solver::MnaMatrix`] routes it to the
//! shared sparse LDLᵀ (or dense LU for small meshes); the factorization
//! is reused across every step taken at the same Δt. A geometric
//! block-doubling Δt schedule covers the ~10-decade span from the early
//! `√t` stress build-up to ten-year horizons with a handful of
//! refactorizations. Between blocks only the M/Δt diagonal changes, so
//! the system is restamped and refactored numerically on the kept
//! ordering and symbolic analysis; only void nucleation, which removes
//! a node and so changes the sparsity pattern, factors afresh.
//!
//! Two-point flux is exact for piecewise-linear profiles, so the FV
//! steady state matches the continuum steady state at the nodes to
//! round-off — the transient and [`crate::steady`] solvers agree by
//! construction, which the proptest suite pins.
//!
//! Once the peak tensile stress crosses `σ_crit` a void nucleates
//! there: the node switches to an absorbing `σ = 0` (Dirichlet)
//! boundary and the net atom volume flowing out of it accrues as void
//! volume (one growing void per tree — the weakest site; consistent
//! with the weakest-link chip rollup this feeds). The segment fails
//! when the void spans [`crate::model::KorhonenModel::critical_void_length`].

use hotwire_circuit::solver::{MnaFactorization, MnaMatrix};
use hotwire_obs::metrics;
use hotwire_obs::trace::{self, FieldValue, Level};
use hotwire_units::{CurrentDensity, Kelvin, Length, Pascals, Seconds};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::model::KorhonenModel;
use crate::tree::InterconnectTree;
use crate::TreeEmError;

/// Time-integration options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientOptions {
    /// Finite volumes per segment (mesh resolution).
    pub resolution: usize,
    /// Total simulated horizon for [`KorhonenSolver::run_to_failure`].
    pub horizon: Seconds,
    /// Number of Δt-doubling blocks in the schedule.
    pub blocks: usize,
    /// Steps per block (one factorization per block).
    pub steps_per_block: usize,
}

impl TransientOptions {
    /// Defaults for a given horizon: 8 volumes per segment, 12 blocks
    /// of 64 steps (Δt spans ~3.6 decades, 768 steps, 12
    /// factorizations).
    #[must_use]
    pub fn for_horizon(horizon: Seconds) -> Self {
        Self {
            resolution: 8,
            horizon,
            blocks: 12,
            steps_per_block: 64,
        }
    }

    fn validate(&self) -> Result<(), TreeEmError> {
        if self.resolution == 0 || self.blocks == 0 || self.steps_per_block == 0 {
            return Err(TreeEmError::InvalidParameter {
                message: "transient options must have non-zero resolution/blocks/steps".into(),
            });
        }
        if !(self.horizon.value() > 0.0) || !self.horizon.is_finite() {
            return Err(TreeEmError::InvalidParameter {
                message: format!("horizon must be positive and finite, got {}", self.horizon),
            });
        }
        Ok(())
    }
}

/// Result of (a window of) transient integration on one tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientOutcome {
    /// Tree name, for report joins.
    pub tree: String,
    /// Time at which the first void nucleated, if it did.
    pub nucleation_time: Option<Seconds>,
    /// Time at which the void spanned the critical length, if it did.
    pub failure_time: Option<Seconds>,
    /// Tree node nearest the void site (`None` until nucleation).
    pub nucleation_node: Option<usize>,
    /// Current void length (zero until nucleation).
    pub void_length: Length,
    /// Peak tensile stress seen so far anywhere in the tree.
    pub peak_tensile: Pascals,
    /// Total simulated time so far.
    pub simulated: Seconds,
    /// Implicit steps taken so far.
    pub steps: usize,
}

#[derive(Debug, Clone, Copy)]
struct MeshEdge {
    a: usize,
    b: usize,
    /// κ·A/h — conductance of the two-point flux.
    w: f64,
    /// κ·A·G — the wind source carried by this face pair.
    src: f64,
    /// Owning tree segment.
    seg: usize,
}

#[derive(Debug, Clone, Copy)]
struct VoidState {
    mesh_node: usize,
    seg: usize,
    /// Tree node nearest the void.
    tree_node: usize,
    /// Accrued void volume, m³.
    volume: f64,
}

/// Stateful transient Korhonen solver for one tree.
///
/// The solver owns its stress field, so the coupled aging loop can
/// alternate [`KorhonenSolver::set_operating_points`] (fresh
/// electro-thermal state) with [`KorhonenSolver::advance`] windows
/// while stress history accumulates.
#[derive(Debug)]
pub struct KorhonenSolver {
    tree: InterconnectTree,
    model: KorhonenModel,
    options: TransientOptions,
    /// Finite volume of each mesh node, m³.
    volume: Vec<f64>,
    edges: Vec<MeshEdge>,
    /// Sub-edge length per segment (h), m.
    seg_h: Vec<f64>,
    stress: Vec<f64>,
    time: f64,
    steps: usize,
    peak_tensile: f64,
    void: Option<VoidState>,
    /// The factored FV system, kept across Δt blocks and restamps while
    /// its sparsity pattern (the void node) stays the same.
    factored: Option<Factored>,
}

/// A factorization of `M/Δt + K` and what it was built for.
#[derive(Debug)]
struct Factored {
    /// Δt the numeric values were stamped for; `None` once an
    /// operating-point restamp has made them stale.
    dt: Option<f64>,
    /// The void node eliminated as a σ = 0 Dirichlet site — it fixes the
    /// sparsity pattern.
    void_node: Option<usize>,
    /// Mesh node → unknown index, −1 for the eliminated void node.
    map: Vec<isize>,
    factors: MnaFactorization,
}

impl KorhonenSolver {
    /// Builds the FV mesh and zero-stress initial state.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::InvalidParameter`] for bad options.
    pub fn new(
        tree: &InterconnectTree,
        model: &KorhonenModel,
        options: TransientOptions,
    ) -> Result<Self, TreeEmError> {
        options.validate()?;
        let n_tree = tree.node_count();
        let segs = tree.segments();
        let sub = options.resolution;
        let n_mesh = n_tree + segs.len() * (sub - 1);
        let mut volume = vec![0.0; n_mesh];
        let mut edges = Vec::with_capacity(segs.len() * sub);
        let mut seg_h = Vec::with_capacity(segs.len());
        let mut next_internal = n_tree;
        for (si, s) in segs.iter().enumerate() {
            let h = s.length.value() / sub as f64;
            seg_h.push(h);
            let area = s.area().value();
            let kappa = model.kappa(s.temperature);
            let wind = model.wind_term(s.current_density, s.temperature);
            let w = kappa * area / h;
            let src = kappa * area * wind;
            let mut prev = s.from;
            for k in 0..sub {
                let next = if k + 1 == sub {
                    s.to
                } else {
                    let id = next_internal;
                    next_internal += 1;
                    id
                };
                edges.push(MeshEdge {
                    a: prev,
                    b: next,
                    w,
                    src,
                    seg: si,
                });
                volume[prev] += 0.5 * area * h;
                volume[next] += 0.5 * area * h;
                prev = next;
            }
        }
        Ok(Self {
            tree: tree.clone(),
            model: model.clone(),
            options,
            volume,
            edges,
            seg_h,
            stress: vec![0.0; n_mesh],
            time: 0.0,
            steps: 0,
            peak_tensile: 0.0,
            void: None,
            factored: None,
        })
    }

    /// The tree being integrated.
    #[must_use]
    pub fn tree(&self) -> &InterconnectTree {
        &self.tree
    }

    /// Total simulated time so far.
    #[must_use]
    pub fn time(&self) -> Seconds {
        Seconds::new(self.time)
    }

    /// Stress at the tree nodes (junctions and endpoints).
    #[must_use]
    pub fn node_stress(&self) -> Vec<Pascals> {
        (0..self.tree.node_count())
            .map(|i| Pascals::new(self.stress[i]))
            .collect()
    }

    /// Current void length (zero before nucleation).
    #[must_use]
    pub fn void_length(&self) -> Length {
        match &self.void {
            Some(v) => {
                let area = self.tree.segments()[v.seg].area().value();
                Length::new(v.volume / area)
            }
            None => Length::new(0.0),
        }
    }

    /// Per-segment void length — the resistance back-annotation input
    /// for the coupled aging loop (all-zero until nucleation; only the
    /// void-carrying segment is non-zero).
    #[must_use]
    pub fn segment_void_lengths(&self) -> Vec<Length> {
        let mut out = vec![Length::new(0.0); self.tree.segments().len()];
        if let Some(v) = &self.void {
            out[v.seg] = self.void_length();
        }
        out
    }

    /// Re-stamps per-segment densities and temperatures (same topology
    /// and geometry) without resetting the accumulated stress state —
    /// the aging loop calls this after each coupled re-solve.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::InvalidTree`] on a length mismatch.
    pub fn set_operating_points(
        &mut self,
        points: &[(CurrentDensity, Kelvin)],
    ) -> Result<(), TreeEmError> {
        self.tree = self.tree.with_operating_points(points)?;
        let segs = self.tree.segments();
        for e in &mut self.edges {
            let s = &segs[e.seg];
            let h = self.seg_h[e.seg];
            let area = s.area().value();
            let kappa = self.model.kappa(s.temperature);
            let wind = self.model.wind_term(s.current_density, s.temperature);
            e.w = kappa * area / h;
            e.src = kappa * area * wind;
        }
        // Same pattern, new values: the next step restamps and refactors.
        if let Some(f) = &mut self.factored {
            f.dt = None;
        }
        Ok(())
    }

    /// Makes `factored` hold `M/Δt + K` for the current void state. While
    /// the void node is unchanged only the values move (the M/Δt
    /// diagonal, or restamped operating points), so the system is
    /// restamped and numerically refactored on the kept ordering and
    /// symbolic analysis. A new void node changes the pattern and gets a
    /// fresh factorization.
    fn ensure_factored(&mut self, dt: f64) -> Result<(), TreeEmError> {
        let void_node = self.void.as_ref().map(|v| v.mesh_node);
        match &mut self.factored {
            Some(f) if f.void_node == void_node => {
                if f.dt == Some(dt) {
                    return Ok(());
                }
                let matrix = stamp_system(&self.volume, &self.edges, &f.map, dt);
                f.factors.refactor(&matrix)?;
                f.dt = Some(dt);
            }
            _ => {
                // Map mesh nodes to unknowns, eliminating the Dirichlet
                // void node (σ pinned to 0 there).
                let mut map = vec![0isize; self.stress.len()];
                let mut n_unknown = 0isize;
                for (i, m) in map.iter_mut().enumerate() {
                    if Some(i) == void_node {
                        *m = -1;
                    } else {
                        *m = n_unknown;
                        n_unknown += 1;
                    }
                }
                let factors = stamp_system(&self.volume, &self.edges, &map, dt).factor()?;
                self.factored = Some(Factored {
                    dt: Some(dt),
                    void_node,
                    map,
                    factors,
                });
            }
        }
        metrics::counter("em.stress.factorizations").inc();
        Ok(())
    }

    /// One backward-Euler step at Δt; assumes `ensure_factored(dt)` ran.
    fn step(&mut self, dt: f64) -> Result<(), TreeEmError> {
        let Some(Factored { map, factors, .. }) = &self.factored else {
            return Err(TreeEmError::InvalidParameter {
                message: "internal: step() before factorization".into(),
            });
        };
        let n_unknown = map.iter().filter(|&&m| m >= 0).count();
        let mut rhs = vec![0.0; n_unknown];
        for (i, &v) in self.volume.iter().enumerate() {
            if map[i] >= 0 {
                rhs[map[i] as usize] = v / dt * self.stress[i];
            }
        }
        for e in &self.edges {
            if map[e.a] >= 0 {
                rhs[map[e.a] as usize] += e.src;
            }
            if map[e.b] >= 0 {
                rhs[map[e.b] as usize] -= e.src;
            }
        }
        let x = factors.solve(&rhs);
        for (i, s) in self.stress.iter_mut().enumerate() {
            *s = if map[i] >= 0 { x[map[i] as usize] } else { 0.0 };
        }
        self.time += dt;
        self.steps += 1;
        Ok(())
    }

    fn max_tensile(&self) -> (f64, usize) {
        let mut best = f64::NEG_INFINITY;
        let mut at = 0usize;
        for (i, &s) in self.stress.iter().enumerate() {
            if s > best {
                best = s;
                at = i;
            }
        }
        (best, at)
    }

    /// Net atom volume per second leaving the void node (positive =
    /// void grows), m³/s.
    fn void_outflow(&self, v: &VoidState) -> f64 {
        let modulus = self.model.effective_modulus().value();
        let mut out = 0.0;
        for e in &self.edges {
            // Atom-volume flux along +x (a→b): (κA/B)·(∂σ/∂x + G).
            let flux = (e.w * (self.stress[e.b] - self.stress[e.a]) + e.src) / modulus;
            if e.a == v.mesh_node {
                out += flux;
            } else if e.b == v.mesh_node {
                out -= flux;
            }
        }
        out
    }

    /// Nearest tree node to a mesh node (itself if it is one, else the
    /// closer endpoint of the owning segment).
    fn nearest_tree_node(&self, mesh_node: usize) -> (usize, usize) {
        let n_tree = self.tree.node_count();
        if mesh_node < n_tree {
            // Endpoint: find a segment that touches it.
            let seg = self
                .tree
                .segments()
                .iter()
                .position(|s| s.from == mesh_node || s.to == mesh_node)
                .unwrap_or(0);
            return (seg, mesh_node);
        }
        let sub = self.options.resolution;
        let internal = mesh_node - n_tree;
        let seg = internal / (sub - 1);
        let k = internal % (sub - 1); // 0-based internal index, node k+1 of sub+1
        let s = &self.tree.segments()[seg];
        let node = if (k + 1) * 2 <= sub { s.from } else { s.to };
        (seg, node)
    }

    /// Marches `steps` backward-Euler steps at fixed `dt`, watching for
    /// nucleation and failure. Returns `true` when failure occurred
    /// (integration should stop).
    fn march(
        &mut self,
        dt: f64,
        steps: usize,
        nucleation: &mut Option<f64>,
        failure: &mut Option<f64>,
    ) -> Result<bool, TreeEmError> {
        let sigma_crit = self.model.critical_stress().value();
        let len_crit = self.model.critical_void_length().value();
        for _ in 0..steps {
            self.ensure_factored(dt)?;
            let prev_max = self.max_tensile().0;
            let prev_void_len = self.void_length().value();
            self.step(dt)?;
            let (cur_max, at) = self.max_tensile();
            self.peak_tensile = self.peak_tensile.max(cur_max);
            if self.void.is_none() && cur_max >= sigma_crit {
                // Interpolate the crossing inside this step.
                let frac = if cur_max > prev_max {
                    ((sigma_crit - prev_max) / (cur_max - prev_max)).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                *nucleation = Some(self.time - dt + frac * dt);
                let (seg, tree_node) = self.nearest_tree_node(at);
                self.void = Some(VoidState {
                    mesh_node: at,
                    seg,
                    tree_node,
                    volume: 0.0,
                });
                self.stress[at] = 0.0;
                self.factored = None; // pattern changed: factor afresh
                metrics::counter("em.stress.nucleations").inc();
                trace::event(
                    Level::Debug,
                    "em.nucleation",
                    "void nucleated",
                    &[
                        ("tree", FieldValue::Str(self.tree.name())),
                        ("mesh_node", FieldValue::from(at)),
                        ("time_s", FieldValue::F64(self.time)),
                    ],
                );
            } else if let Some(mut v) = self.void.take() {
                let outflow = self.void_outflow(&v);
                v.volume = (v.volume + dt * outflow).max(0.0);
                let area = self.tree.segments()[v.seg].area().value();
                let cur_len = v.volume / area;
                self.void = Some(v);
                if cur_len >= len_crit && failure.is_none() {
                    let frac = if cur_len > prev_void_len {
                        ((len_crit - prev_void_len) / (cur_len - prev_void_len)).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    *failure = Some(self.time - dt + frac * dt);
                    metrics::counter("em.stress.failures").inc();
                    trace::event(
                        Level::Debug,
                        "em.failure",
                        "void reached the critical length",
                        &[
                            ("tree", FieldValue::Str(self.tree.name())),
                            ("void_m", FieldValue::F64(cur_len)),
                            ("critical_m", FieldValue::F64(len_crit)),
                            ("time_s", FieldValue::F64(self.time)),
                        ],
                    );
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn outcome(&self, nucleation: Option<f64>, failure: Option<f64>) -> TransientOutcome {
        TransientOutcome {
            tree: self.tree.name().to_string(),
            nucleation_time: nucleation.map(Seconds::new),
            failure_time: failure.map(Seconds::new),
            nucleation_node: self.void.as_ref().map(|v| v.tree_node),
            void_length: self.void_length(),
            peak_tensile: Pascals::new(self.peak_tensile),
            simulated: Seconds::new(self.time),
            steps: self.steps,
        }
    }

    /// Runs the block-doubling schedule from the current state to the
    /// options horizon (or early failure).
    ///
    /// # Errors
    ///
    /// Propagates FV solve failures ([`TreeEmError::Circuit`]).
    pub fn run_to_failure(&mut self) -> Result<TransientOutcome, TreeEmError> {
        let _t = hotwire_obs::trace::span("em.stress.transient_time");
        let mut nucleation = None;
        let mut failure = None;
        let steps_before = self.steps;
        for k in 0..self.options.blocks {
            let dt = self.block_dt(k);
            let steps = self.options.steps_per_block;
            if self.march(dt, steps, &mut nucleation, &mut failure)? {
                break;
            }
        }
        metrics::counter("em.stress.transient_steps").add((self.steps - steps_before) as u64);
        Ok(self.outcome(nucleation, failure))
    }

    /// Δt of block `k` in the doubling schedule: Σ s·dt0·2^k over the
    /// blocks spans the horizon.
    fn block_dt(&self, k: usize) -> f64 {
        let b = self.options.blocks;
        let s = self.options.steps_per_block;
        let dt0 = self.options.horizon.value() / (s as f64 * ((1u64 << b) - 1) as f64);
        dt0 * (1u64 << k) as f64
    }

    /// Advances a uniform-Δt window from the current state — the aging
    /// loop's building block between operating-point re-stamps.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::InvalidParameter`] for a non-positive
    /// window or zero steps; propagates FV solve failures.
    pub fn advance(
        &mut self,
        window: Seconds,
        steps: usize,
    ) -> Result<TransientOutcome, TreeEmError> {
        if !(window.value() > 0.0) || steps == 0 {
            return Err(TreeEmError::InvalidParameter {
                message: format!("advance needs positive window and steps, got {window}, {steps}"),
            });
        }
        let _t = hotwire_obs::trace::span("em.stress.transient_time");
        let dt = window.value() / steps as f64;
        let mut nucleation = None;
        let mut failure = None;
        let steps_before = self.steps;
        self.march(dt, steps, &mut nucleation, &mut failure)?;
        metrics::counter("em.stress.transient_steps").add((self.steps - steps_before) as u64);
        Ok(self.outcome(nucleation, failure))
    }
}

/// Stamps `M/Δt + K` over the unknowns of `map` (−1 marks the σ = 0
/// void node, eliminated).
fn stamp_system(volume: &[f64], edges: &[MeshEdge], map: &[isize], dt: f64) -> MnaMatrix {
    let n_unknown = map.iter().filter(|&&m| m >= 0).count();
    let mut matrix = MnaMatrix::auto(n_unknown);
    for (&v, &u) in volume.iter().zip(map) {
        if u >= 0 {
            matrix.add(u as usize, u as usize, v / dt);
        }
    }
    for e in edges {
        let (ua, ub) = (map[e.a], map[e.b]);
        match (ua >= 0, ub >= 0) {
            (true, true) => {
                let (ua, ub) = (ua as usize, ub as usize);
                matrix.add(ua, ua, e.w);
                matrix.add(ub, ub, e.w);
                matrix.add(ua, ub, -e.w);
                matrix.add(ub, ua, -e.w);
            }
            // One end pinned to σ = 0: only the live end's
            // diagonal survives (the coupling term carries a zero).
            (true, false) => matrix.add(ua as usize, ua as usize, e.w),
            (false, true) => matrix.add(ub as usize, ub as usize, e.w),
            (false, false) => {}
        }
    }
    matrix
}

/// Runs each tree's transient to failure, optionally in parallel.
/// Order-preserving and byte-identical between the two paths (each
/// solve is independent; results collect in input order).
///
/// # Errors
///
/// Propagates the first per-tree error in input order.
pub fn batch_to_failure(
    trees: &[InterconnectTree],
    model: &KorhonenModel,
    options: TransientOptions,
    parallel: bool,
) -> Result<Vec<TransientOutcome>, TreeEmError> {
    let run = |t: &InterconnectTree| -> Result<TransientOutcome, TreeEmError> {
        KorhonenSolver::new(t, model, options)?.run_to_failure()
    };
    if parallel {
        trees.par_iter().map(run).collect::<Result<Vec<_>, _>>()
    } else {
        trees.iter().map(run).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_units::{CurrentDensity, Kelvin, Length};

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn hot_line(j_ma: f64, t_c: f64, segs: usize) -> InterconnectTree {
        InterconnectTree::straight_line(
            "line",
            segs,
            um(10.0),
            um(0.5),
            um(0.5),
            CurrentDensity::from_mega_amps_per_cm2(j_ma),
            Kelvin::new(t_c + 273.15),
        )
        .unwrap()
    }

    #[test]
    fn transient_relaxes_to_steady_state_on_immortal_line() {
        // Short line well under the Blech product: stress must saturate
        // at the linear steady profile, never nucleate.
        // jL = 1.6 kA/cm; at 150 °C the ρ(T) factor over the 100 °C
        // calibration is 1.34, so the peak sits at ~0.71 σ_crit.
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(0.4, 150.0, 4);
        let steady = crate::steady::steady_state(&line, &model).unwrap();
        assert!(steady.immortal);

        // Horizon ≫ L²/κ so the transient fully settles.
        let l_total = line.total_length().value();
        let kappa = model.kappa(Kelvin::new(423.15));
        let horizon = Seconds::new(50.0 * l_total * l_total / kappa);
        let mut solver =
            KorhonenSolver::new(&line, &model, TransientOptions::for_horizon(horizon)).unwrap();
        let out = solver.run_to_failure().unwrap();
        assert!(out.nucleation_time.is_none(), "immortal line nucleated");
        let got = solver.node_stress();
        for (g, want) in got.iter().zip(&steady.node_stress) {
            let denom = steady.max_tensile.value();
            assert!(
                ((g.value() - want.value()) / denom).abs() < 1e-3,
                "transient {} vs steady {}",
                g,
                want
            );
        }
    }

    #[test]
    fn mortal_line_nucleates_then_fails() {
        // Far above the Blech product at high temperature: must
        // nucleate at the cathode node and grow to failure within a
        // generous horizon.
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(4.0, 300.0, 4); // jL = 16 kA/cm
        let l_total = line.total_length().value();
        let kappa = model.kappa(Kelvin::new(573.15));
        let horizon = Seconds::new(500.0 * l_total * l_total / kappa);
        let out = KorhonenSolver::new(&line, &model, TransientOptions::for_horizon(horizon))
            .unwrap()
            .run_to_failure()
            .unwrap();
        let t_nuc = out.nucleation_time.expect("must nucleate");
        assert_eq!(out.nucleation_node, Some(4), "void at cathode end");
        let t_fail = out.failure_time.expect("must fail");
        assert!(t_fail > t_nuc);
        assert!(out.void_length >= model.critical_void_length());
    }

    #[test]
    fn advance_windows_compose_like_one_run() {
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(0.5, 250.0, 3);
        let l_total = line.total_length().value();
        let kappa = model.kappa(Kelvin::new(523.15));
        let t_char = l_total * l_total / kappa;
        let opts = TransientOptions::for_horizon(Seconds::new(t_char));

        let mut one = KorhonenSolver::new(&line, &model, opts).unwrap();
        one.advance(Seconds::new(t_char), 128).unwrap();

        let mut two = KorhonenSolver::new(&line, &model, opts).unwrap();
        two.advance(Seconds::new(t_char / 2.0), 64).unwrap();
        two.advance(Seconds::new(t_char / 2.0), 64).unwrap();

        for (a, b) in one.node_stress().iter().zip(two.node_stress()) {
            assert!(
                (a.value() - b.value()).abs() <= 1e-6 * a.value().abs().max(1.0),
                "split-window mismatch: {a} vs {b}"
            );
        }
    }

    #[test]
    fn refactor_across_blocks_matches_fresh_factors_bitwise() {
        // 24 segments × 8 volumes = 193 unknowns: above the sparse
        // crossover, so every block after the first refactors the LDLᵀ.
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(4.0, 300.0, 24);
        let l_total = line.total_length().value();
        let kappa = model.kappa(Kelvin::new(573.15));
        let opts = TransientOptions::for_horizon(Seconds::new(50.0 * l_total * l_total / kappa));

        let mut reused = KorhonenSolver::new(&line, &model, opts).unwrap();
        let a = reused.run_to_failure().unwrap();
        assert!(a.nucleation_time.is_some(), "the test tree must be mortal");
        let path = reused.factored.as_ref().map(|f| f.factors.path());
        assert_eq!(
            path,
            Some(hotwire_circuit::solver::SolverPath::SparseCholesky)
        );

        // The old behaviour: a fresh factorization at every block.
        let mut fresh = KorhonenSolver::new(&line, &model, opts).unwrap();
        let (mut nucleation, mut failure) = (None, None);
        for k in 0..opts.blocks {
            fresh.factored = None;
            let dt = fresh.block_dt(k);
            if fresh
                .march(dt, opts.steps_per_block, &mut nucleation, &mut failure)
                .unwrap()
            {
                break;
            }
        }
        let b = fresh.outcome(nucleation, failure);

        let bits = |t: Option<Seconds>| t.map(|t| t.value().to_bits());
        assert_eq!(bits(a.nucleation_time), bits(b.nucleation_time));
        assert_eq!(bits(a.failure_time), bits(b.failure_time));
        assert_eq!(a.nucleation_node, b.nucleation_node);
        assert_eq!(
            a.void_length.value().to_bits(),
            b.void_length.value().to_bits()
        );
        assert_eq!(
            a.peak_tensile.value().to_bits(),
            b.peak_tensile.value().to_bits()
        );
        assert_eq!(a.simulated.value().to_bits(), b.simulated.value().to_bits());
        assert_eq!(a.steps, b.steps);
        for (x, y) in reused.node_stress().iter().zip(fresh.node_stress()) {
            assert_eq!(x.value().to_bits(), y.value().to_bits());
        }
    }

    #[test]
    fn batch_parallel_matches_serial_bitwise() {
        let model = crate::model::KorhonenModel::copper().unwrap();
        let trees: Vec<_> = (1..6).map(|i| hot_line(3.0 + i as f64, 280.0, i)).collect();
        let opts = TransientOptions {
            resolution: 4,
            horizon: Seconds::new(1.0e6),
            blocks: 6,
            steps_per_block: 16,
        };
        let serial = batch_to_failure(&trees, &model, opts, false).unwrap();
        let par = batch_to_failure(&trees, &model, opts, true).unwrap();
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(
                a.peak_tensile.value().to_bits(),
                b.peak_tensile.value().to_bits()
            );
            assert_eq!(
                a.nucleation_time.map(|t| t.value().to_bits()),
                b.nucleation_time.map(|t| t.value().to_bits())
            );
            assert_eq!(
                a.failure_time.map(|t| t.value().to_bits()),
                b.failure_time.map(|t| t.value().to_bits())
            );
        }
    }
}
