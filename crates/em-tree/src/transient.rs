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
//! is SPD, and its graph is the FV mesh, itself a tree. Rooted once at
//! tree node 0, it eliminates from the leaves to the root with no fill:
//! each node's pivot `d` is its diagonal less `w·l` over its children,
//! and its multiplier `l = w/d` couples it to its parent through the
//! flux conductance `w = κA/h` (`docs/THEORY.md` §11). The pivots are
//! computed once per Δt and reused by every step taken at it; a step is
//! one forward sweep from the leaves and one back sweep from the root,
//! in O(n) with no allocation. A geometric block-doubling Δt schedule
//! covers the ~10-decade span from the early `√t` stress build-up to
//! ten-year horizons with a handful of eliminations: one per block, one
//! per operating-point restamp and one per nucleation.
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

use hotwire_circuit::CircuitError;
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
    /// Number of Δt-doubling blocks in the schedule (at most 63).
    pub blocks: usize,
    /// Steps per block (one elimination per block).
    pub steps_per_block: usize,
}

impl TransientOptions {
    /// Defaults for a given horizon: 8 volumes per segment, 12 blocks
    /// of 64 steps (Δt spans ~3.6 decades, 768 steps, 12
    /// eliminations).
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
        // `block_dt` divides the horizon by 2^blocks − 1 in a u64.
        if self.blocks > 63 {
            return Err(TreeEmError::InvalidParameter {
                message: format!(
                    "transient options allow at most 63 blocks, got {}",
                    self.blocks
                ),
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
}

#[derive(Debug, Clone)]
struct VoidState {
    mesh_node: usize,
    seg: usize,
    /// Tree node nearest the void.
    tree_node: usize,
    /// Accrued void volume, m³.
    volume: f64,
    /// The mesh edges incident to the void node, in ascending order.
    edges: Vec<usize>,
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
    /// The mesh rooted at tree node 0: each node's parent. The root is
    /// its own parent, with zero coupling.
    parent: Vec<usize>,
    /// κA/h of the edge to the parent.
    up_w: Vec<f64>,
    /// Every mesh node after all of its children: the root comes last.
    order: Vec<usize>,
    /// Σ κA/h over each node's edges.
    w_sum: Vec<f64>,
    /// Net wind source of each node, Σ ±κA·G over its edges.
    source: Vec<f64>,
    /// M/Δt at the eliminated Δt.
    mass: Vec<f64>,
    /// Pivots `d` of `M/Δt + K` eliminated leaves first.
    pivot: Vec<f64>,
    /// Multipliers `l = w/d` to the parent (zero at the root, the void
    /// node and its children).
    mult: Vec<f64>,
    /// A step's right-hand side, swept forward in place.
    rhs: Vec<f64>,
    stress: Vec<f64>,
    time: f64,
    steps: usize,
    peak_tensile: f64,
    void: Option<VoidState>,
    /// The Δt the pivots hold `M/Δt + K` for; `None` once an
    /// operating-point restamp or a nucleation has made them stale.
    factored_dt: Option<f64>,
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
        for s in segs {
            let h = s.length.value() / sub as f64;
            seg_h.push(h);
            let area = s.area().value();
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
                    w: 0.0,
                    src: 0.0,
                });
                volume[prev] += 0.5 * area * h;
                volume[next] += 0.5 * area * h;
                prev = next;
            }
        }
        // Root the mesh at tree node 0. A breadth-first walk of the tree
        // reaches each segment from its parent end, and the segment's
        // `sub` edges (stored from `from` to `to`) chain down from there.
        let adjacency = tree.adjacency();
        let mut parent = vec![usize::MAX; n_mesh];
        parent[0] = 0;
        let mut order = vec![0];
        let mut walk = vec![0];
        let mut head = 0;
        while let Some(&u) = walk.get(head) {
            head += 1;
            for &(si, v) in &adjacency[u] {
                if parent[v] != usize::MAX {
                    continue;
                }
                walk.push(v);
                let chain = &edges[si * sub..(si + 1) * sub];
                if segs[si].from == u {
                    for e in chain {
                        parent[e.b] = e.a;
                        order.push(e.b);
                    }
                } else {
                    for e in chain.iter().rev() {
                        parent[e.a] = e.b;
                        order.push(e.a);
                    }
                }
            }
        }
        // Parents came first; eliminate children first.
        order.reverse();
        let mut solver = Self {
            tree: tree.clone(),
            model: model.clone(),
            options,
            volume,
            edges,
            seg_h,
            parent,
            up_w: vec![0.0; n_mesh],
            order,
            w_sum: vec![0.0; n_mesh],
            source: vec![0.0; n_mesh],
            mass: vec![0.0; n_mesh],
            pivot: vec![0.0; n_mesh],
            mult: vec![0.0; n_mesh],
            rhs: vec![0.0; n_mesh],
            stress: vec![0.0; n_mesh],
            time: 0.0,
            steps: 0,
            peak_tensile: 0.0,
            void: None,
            factored_dt: None,
        };
        solver.couple();
        Ok(solver)
    }

    /// Stamps each edge's κA/h and wind source from its segment's
    /// operating point, then each node's Σ κA/h, net source and
    /// coupling to its parent.
    fn couple(&mut self) {
        self.w_sum.fill(0.0);
        self.source.fill(0.0);
        let sub = self.options.resolution;
        for (si, s) in self.tree.segments().iter().enumerate() {
            let area = s.area().value();
            let kappa = self.model.kappa(s.temperature);
            let wind = self.model.wind_term(s.current_density, s.temperature);
            let (w, src) = (kappa * area / self.seg_h[si], kappa * area * wind);
            for e in &mut self.edges[si * sub..(si + 1) * sub] {
                (e.w, e.src) = (w, src);
                self.w_sum[e.a] += w;
                self.w_sum[e.b] += w;
                self.source[e.a] += src;
                self.source[e.b] -= src;
                let child = if self.parent[e.b] == e.a { e.b } else { e.a };
                self.up_w[child] = w;
            }
        }
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
        self.couple();
        // New values: the next step eliminates afresh.
        self.factored_dt = None;
        Ok(())
    }

    /// Makes the pivots and multipliers hold `M/Δt + K` for the current
    /// void state, eliminating leaves to root in O(n) with no fill. The
    /// void node is a σ = 0 Dirichlet site: its row is the identity and
    /// its edges add only to the live ends' diagonals.
    ///
    /// # Errors
    ///
    /// Returns [`TreeEmError::Circuit`] (not positive definite) on a
    /// non-positive or non-finite pivot.
    fn ensure_factored(&mut self, dt: f64) -> Result<(), TreeEmError> {
        if self.factored_dt == Some(dt) {
            return Ok(());
        }
        self.factored_dt = None;
        let void_node = self.void.as_ref().map(|v| v.mesh_node);
        for (i, m) in self.mass.iter_mut().enumerate() {
            *m = self.volume[i] / dt;
            self.pivot[i] = *m + self.w_sum[i];
        }
        for &i in &self.order {
            self.mult[i] = 0.0;
            if Some(i) == void_node {
                self.pivot[i] = 1.0;
                continue;
            }
            let d = self.pivot[i];
            if !(d > 0.0) || !d.is_finite() {
                return Err(CircuitError::NotPositiveDefinite { row: i }.into());
            }
            let p = self.parent[i];
            if Some(p) != void_node {
                self.mult[i] = self.up_w[i] / d;
                self.pivot[p] -= self.mult[i] * self.up_w[i];
            }
        }
        self.factored_dt = Some(dt);
        metrics::counter("em.stress.factorizations").inc();
        Ok(())
    }

    /// One backward-Euler step at Δt on the pivots `ensure_factored(dt)`
    /// left: the right-hand side swept from the leaves to the root, then
    /// back from the root straight into `stress`. Returns the peak
    /// tensile stress and the lowest mesh node that holds it.
    fn step(&mut self, dt: f64) -> (f64, usize) {
        for (i, r) in self.rhs.iter_mut().enumerate() {
            *r = self.mass[i] * self.stress[i] + self.source[i];
        }
        if let Some(v) = &self.void {
            self.rhs[v.mesh_node] = 0.0;
        }
        for &i in &self.order {
            let p = self.parent[i];
            self.rhs[p] += self.mult[i] * self.rhs[i];
        }
        let mut max = (f64::NEG_INFINITY, 0usize);
        for &i in self.order.iter().rev() {
            let s = self.rhs[i] / self.pivot[i] + self.mult[i] * self.stress[self.parent[i]];
            self.stress[i] = s;
            if s > max.0 || (s == max.0 && i < max.1) {
                max = (s, i);
            }
        }
        self.time += dt;
        self.steps += 1;
        max
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
        for &k in &v.edges {
            let e = &self.edges[k];
            // Atom-volume flux along +x (a→b): (κA/B)·(∂σ/∂x + G).
            let flux = (e.w * (self.stress[e.b] - self.stress[e.a]) + e.src) / modulus;
            if e.a == v.mesh_node {
                out += flux;
            } else {
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

    /// Turns mesh node `at` into the σ = 0 void site. The system loses
    /// that node, so the next step eliminates afresh.
    fn nucleate(&mut self, at: usize) {
        let (seg, tree_node) = self.nearest_tree_node(at);
        let edges = (0..self.edges.len())
            .filter(|&k| self.edges[k].a == at || self.edges[k].b == at)
            .collect();
        self.void = Some(VoidState {
            mesh_node: at,
            seg,
            tree_node,
            volume: 0.0,
            edges,
        });
        self.stress[at] = 0.0;
        self.factored_dt = None;
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
        let mut prev_max = self.max_tensile().0;
        for _ in 0..steps {
            self.ensure_factored(dt)?;
            let prev_void_len = self.void_length().value();
            let (cur_max, at) = self.step(dt);
            self.peak_tensile = self.peak_tensile.max(cur_max);
            if self.void.is_none() && cur_max >= sigma_crit {
                // Interpolate the crossing inside this step.
                let frac = if cur_max > prev_max {
                    ((sigma_crit - prev_max) / (cur_max - prev_max)).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                *nucleation = Some(self.time - dt + frac * dt);
                self.nucleate(at);
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
            // Only read before nucleation, when no void has zeroed a node.
            prev_max = cur_max;
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
    use hotwire_circuit::linalg::Matrix;
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
        // 24 segments × 8 volumes = 193 unknowns; every block after the
        // first eliminates again on the kept mesh.
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(4.0, 300.0, 24);
        let l_total = line.total_length().value();
        let kappa = model.kappa(Kelvin::new(573.15));
        let opts = TransientOptions::for_horizon(Seconds::new(50.0 * l_total * l_total / kappa));

        let mut reused = KorhonenSolver::new(&line, &model, opts).unwrap();
        let a = reused.run_to_failure().unwrap();
        assert!(a.nucleation_time.is_some(), "the test tree must be mortal");

        // The old behaviour: a fresh factorization at every block.
        let mut fresh = KorhonenSolver::new(&line, &model, opts).unwrap();
        let (mut nucleation, mut failure) = (None, None);
        for k in 0..opts.blocks {
            fresh.factored_dt = None;
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

    #[test]
    fn more_than_63_blocks_are_rejected() {
        // `block_dt` divides by 2^blocks − 1 in a u64: 64 blocks would
        // overflow the shift.
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(1.0, 100.0, 2);
        let mut opts = TransientOptions::for_horizon(Seconds::new(1.0e6));
        opts.blocks = 64;
        assert!(matches!(
            KorhonenSolver::new(&line, &model, opts),
            Err(TreeEmError::InvalidParameter { .. })
        ));
        opts.blocks = 63;
        let solver = KorhonenSolver::new(&line, &model, opts).unwrap();
        let (first, last) = (solver.block_dt(0), solver.block_dt(62));
        assert!(first > 0.0 && last.is_finite() && last > first);
    }

    #[test]
    fn a_bad_pivot_is_a_typed_error() {
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(1.0, 100.0, 3);
        let mut solver = KorhonenSolver::new(
            &line,
            &model,
            TransientOptions::for_horizon(Seconds::new(1.0e6)),
        )
        .unwrap();
        for poison in [f64::NAN, f64::INFINITY, -1.0] {
            solver.volume[5] = poison;
            solver.factored_dt = None;
            assert!(matches!(
                solver.advance(Seconds::new(1.0e3), 4),
                Err(TreeEmError::Circuit(
                    hotwire_circuit::CircuitError::NotPositiveDefinite { .. }
                ))
            ));
        }
    }

    #[test]
    fn peak_ties_go_to_the_lowest_mesh_node() {
        // No current and no stress: every node ties at zero.
        let model = crate::model::KorhonenModel::copper().unwrap();
        let line = hot_line(0.0, 100.0, 3);
        let opts = TransientOptions::for_horizon(Seconds::new(1.0e6));
        let mut solver = KorhonenSolver::new(&line, &model, opts).unwrap();
        solver.ensure_factored(1.0e3).unwrap();
        assert_eq!(solver.step(1.0e3), (0.0, 0));
        assert_eq!(solver.max_tensile(), (0.0, 0));
    }

    /// Random cases of the dense oracle: `PROPTEST_CASES`, else 16.
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16)
    }

    /// Splitmix64: each oracle case derives its tree and state from one
    /// seed.
    struct Mix(u64);

    impl Mix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// Node k + 1 hangs off a random earlier node: paths, stars and
    /// everything between, with mixed widths, currents and temperatures.
    fn junction_tree(count: usize, mix: &mut Mix) -> InterconnectTree {
        let segments = (0..count)
            .map(|k| crate::tree::TreeSegment {
                from: mix.below(k + 1),
                to: k + 1,
                length: um(mix.in_range(2.0, 30.0)),
                width: um(mix.in_range(0.2, 1.0)),
                thickness: um(0.5),
                current_density: CurrentDensity::from_mega_amps_per_cm2(mix.in_range(-5.0, 5.0)),
                temperature: Kelvin::new(mix.in_range(50.0, 300.0) + 273.15),
            })
            .collect();
        InterconnectTree::new("oracle", count + 1, segments).unwrap()
    }

    /// A mesh node of the asked kind — 1 a leaf, 2 a junction, 3 the
    /// root, 4 a node inside a segment (or between two) — or `None`.
    fn void_site(solver: &KorhonenSolver, kind: usize, mix: &mut Mix) -> Option<usize> {
        let n_tree = solver.tree.node_count();
        let adjacency = solver.tree.adjacency();
        let degree: Vec<usize> = (0..n_tree).map(|u| adjacency[u].len()).collect();
        let candidates: Vec<usize> = match kind {
            1 => (0..n_tree).filter(|&i| degree[i] == 1).collect(),
            2 => (0..n_tree).filter(|&i| degree[i] >= 3).collect(),
            3 => vec![0],
            4 if solver.stress.len() > n_tree => (n_tree..solver.stress.len()).collect(),
            4 => (1..n_tree).filter(|&i| degree[i] == 2).collect(),
            _ => Vec::new(),
        };
        (!candidates.is_empty()).then(|| candidates[mix.below(candidates.len())])
    }

    /// `M/Δt + K` assembled densely over every mesh node but the void,
    /// straight from the mesh volumes and edges, and the unknown of each
    /// mesh node.
    fn dense_system(solver: &KorhonenSolver, dt: f64) -> (Matrix, Vec<Option<usize>>) {
        let void = solver.void.as_ref().map(|v| v.mesh_node);
        let mut unknown = Vec::with_capacity(solver.volume.len());
        let mut n = 0;
        for i in 0..solver.volume.len() {
            let live = Some(i) != void;
            unknown.push(live.then_some(n));
            n += usize::from(live);
        }
        let mut a = Matrix::zeros(n, n);
        for (i, &v) in solver.volume.iter().enumerate() {
            if let Some(u) = unknown[i] {
                a.add(u, u, v / dt);
            }
        }
        for e in &solver.edges {
            match (unknown[e.a], unknown[e.b]) {
                (Some(ua), Some(ub)) => {
                    a.add(ua, ua, e.w);
                    a.add(ub, ub, e.w);
                    a.add(ua, ub, -e.w);
                    a.add(ub, ua, -e.w);
                }
                (Some(u), None) | (None, Some(u)) => a.add(u, u, e.w),
                (None, None) => {}
            }
        }
        (a, unknown)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases()))]

        /// k steps of the leaves-to-root elimination match a dense LU of
        /// the same system to a rounding bound scaled by its κ∞, with no
        /// void and with the void at a leaf, a junction, the root and an
        /// interior node; the peak the back sweep finds is a plain scan's.
        #[test]
        fn tree_elimination_matches_a_dense_lu(
            segments in 2_usize..41,
            resolution in 1_usize..9,
            block in 0_usize..12,
            horizon_exp in 4.0_f64..9.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let model = crate::model::KorhonenModel::copper().unwrap();
            let mix = &mut Mix(seed);
            let tree = junction_tree(segments, mix);
            let opts = TransientOptions {
                resolution,
                ..TransientOptions::for_horizon(Seconds::new(10f64.powf(horizon_exp)))
            };
            let sigma_crit = model.critical_stress().value();
            let start: Vec<f64> = (0..tree.node_count() + segments * (resolution - 1))
                .map(|_| mix.in_range(-2.0, 2.0) * sigma_crit)
                .collect();
            for kind in 0..5 {
                let mut solver = KorhonenSolver::new(&tree, &model, opts).unwrap();
                let dt = solver.block_dt(block);
                solver.stress.clone_from(&start);
                if let Some(at) = void_site(&solver, kind, mix) {
                    solver.nucleate(at);
                }
                let (a, unknown) = dense_system(&solver, dt);
                let n = a.rows();
                let mut lu = a.clone();
                lu.factor().unwrap();
                // A is an M-matrix, so A⁻¹ ≥ 0 and ‖A⁻¹‖∞ = max(A⁻¹·1).
                let inv_norm = lu.solve_factored(&vec![1.0; n]).into_iter().fold(0.0, f64::max);
                let a_norm = (0..n)
                    .map(|i| (0..n).map(|j| a[(i, j)].abs()).sum::<f64>())
                    .fold(0.0, f64::max);
                let kappa = a_norm * inv_norm;
                for _ in 0..3 {
                    let mut b = vec![0.0; n];
                    for (i, &v) in solver.volume.iter().enumerate() {
                        if let Some(u) = unknown[i] {
                            b[u] = v / dt * solver.stress[i];
                        }
                    }
                    for e in &solver.edges {
                        if let Some(u) = unknown[e.a] {
                            b[u] += e.src;
                        }
                        if let Some(u) = unknown[e.b] {
                            b[u] -= e.src;
                        }
                    }
                    let x = lu.solve_factored(&b);
                    let want: Vec<f64> = unknown.iter().map(|u| u.map_or(0.0, |u| x[u])).collect();
                    solver.ensure_factored(dt).unwrap();
                    let (max, at) = solver.step(dt);
                    let scale = want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                    let tol = 4.0 * (kappa + n as f64) * f64::EPSILON * scale;
                    for (i, (&got, &w)) in solver.stress.iter().zip(&want).enumerate() {
                        // The void node is pinned: exactly zero.
                        let tol = if unknown[i].is_some() { tol } else { 0.0 };
                        proptest::prop_assert!(
                            (got - w).abs() <= tol,
                            "void kind {kind}, node {i}: {got:e} vs dense {w:e} (κ∞ {kappa:e}, tol {tol:e})"
                        );
                    }
                    let plain = solver.max_tensile();
                    proptest::prop_assert_eq!((max.to_bits(), at), (plain.0.to_bits(), plain.1));
                    let dense_max = want.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    proptest::prop_assert!((max - dense_max).abs() <= tol, "peak {max:e} vs dense {dense_max:e}");
                    proptest::prop_assert!(want[at] >= dense_max - 2.0 * tol);
                }
            }
        }
    }
}
