//! The coupled fixed-point engine: IR drop ⇄ Joule heating ⇄
//! temperature-dependent resistivity, then an EM rollup on the
//! converged state.
//!
//! One iteration of the Anderson-accelerated Picard loop:
//!
//! 1. stamp every branch's conductance from its current temperature,
//!    `g_b = A / (ρ(T_b)·ℓ)`, and DC-solve the grid — the first solve
//!    factors the reduced sparse matrix, later solves reuse its
//!    symbolic structure via `refactor()`;
//! 2. convert branch currents to Joule powers `P_b = I_b²/g_b`, split
//!    them onto the end nodes, and solve the chip thermal map (a
//!    matrix-free conjugate-gradient solve, warm-started from the last
//!    iteration's field);
//! 3. step every branch temperature toward the substrate-referenced
//!    field `G(T)`: the damped step `α·f`, `f = G − T`, corrected by
//!    type-II Anderson mixing over the last three iterates (THEORY.md
//!    §10), clamping the *resistivity lookup* into the metal fit's
//!    validity window so an overshooting iterate can never stamp a
//!    non-physical resistance.
//!
//! The residual is the damped step size `α·max|f|`. Under the tolerance
//! the engine takes that damped step and stops; a residual that grew
//! restarts the mixing from it. Growth over consecutive iterations
//! raises [`CoupledError::Diverged`] naming the offending branches, and
//! a converged state still pinned at the validity limit raises
//! [`CoupledError::BeyondResistivityRange`].

use hotwire_circuit::grid_dc::DcGridSolver;
use hotwire_circuit::power_grid::worst_index;
use hotwire_circuit::transient::TransientOptions;
use hotwire_core::signoff::{GoverningRule, NetVerdict};
use hotwire_em::blech::BlechModel;
use hotwire_em::lifetime::{weakest_link_rollup, WeakestLinkPopulation};
use hotwire_em::BlackModel;
use hotwire_obs::health::{self, ConvergenceClass, HealthReport};
use hotwire_obs::trace::{FieldValue, Level};
use hotwire_obs::{metrics, trace as obs_trace};
use hotwire_tech::{Dielectric, Metal};
use hotwire_thermal::chip::ChipThermalModel;
use hotwire_thermal::impedance::{effective_width, InsulatorStack, QUASI_2D_PHI};
use hotwire_units::{Current, CurrentDensity, Kelvin, Length, Seconds, Voltage};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::error::{BranchHotspot, CoupledError};
use crate::trace::{ConvergenceTrace, IterationRecord};

/// How many offending branches an error report names.
const ERROR_REPORT_BRANCHES: usize = 8;

/// Depth `m` of the Anderson history: how many difference pairs of past
/// iterates the temperature update extrapolates from.
const MIXING_DEPTH: usize = 3;

/// A strap between two grid intersections, `((row, col), (row, col))`.
pub type GridBranch = ((usize, usize), (usize, usize));

/// Specification of a power grid for coupled electro-thermal signoff.
///
/// Unlike the purely electrical
/// [`PowerGridSpec`](hotwire_circuit::power_grid::PowerGridSpec), this
/// carries the full physical picture: strap geometry, the inter-layer
/// dielectric under the straps, the metal's material model, and the
/// substrate reference temperature. `1 × N` chains are allowed — that
/// degenerate grid is the paper's single-wire limit and the anchor for
/// the eq. 13 regression test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledGridSpec {
    /// Number of strap intersections vertically.
    pub rows: usize,
    /// Number of strap intersections horizontally.
    pub cols: usize,
    /// Distance between adjacent intersections.
    pub pitch: Length,
    /// Strap width.
    pub strap_width: Length,
    /// Strap metal thickness.
    pub strap_thickness: Length,
    /// Thickness of the dielectric between the straps and the substrate.
    pub dielectric_thickness: Length,
    /// That dielectric's material.
    pub dielectric: Dielectric,
    /// Heat-spreading parameter φ (eq. 14; 2.45 for quasi-2D lines).
    pub phi: f64,
    /// The strap metal (resistivity fit, thermal conductivity, EM).
    pub metal: Metal,
    /// Supply voltage at the pads.
    pub vdd: Voltage,
    /// DC current drawn by the logic under each intersection.
    pub sink_per_node: Current,
    /// `(row, col)` intersections bonded to ideal supply pads.
    pub pads: Vec<(usize, usize)>,
    /// Substrate (chip reference) temperature.
    pub reference_temperature: Kelvin,
}

impl CoupledGridSpec {
    /// A representative deep-sub-micron Cu grid for demos and benches:
    /// 100 µm pitch, 2 × 0.8 µm straps over 1 µm of oxide, 2.5 V pads
    /// at the four corners, 0.2 mA per intersection, 100 °C substrate.
    #[must_use]
    pub fn demo(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            pitch: Length::from_micrometers(100.0),
            strap_width: Length::from_micrometers(2.0),
            strap_thickness: Length::from_micrometers(0.8),
            dielectric_thickness: Length::from_micrometers(1.0),
            dielectric: Dielectric::oxide(),
            phi: QUASI_2D_PHI,
            metal: Metal::copper(),
            vdd: Voltage::new(2.5),
            sink_per_node: Current::from_milliamps(0.2),
            pads: vec![
                (0, 0),
                (0, cols.saturating_sub(1)),
                (rows.saturating_sub(1), 0),
                (rows.saturating_sub(1), cols.saturating_sub(1)),
            ],
            reference_temperature: hotwire_units::Celsius::new(100.0).into(),
        }
    }
}

/// Knobs of the fixed-point iteration and the EM rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoupledOptions {
    /// Convergence tolerance on the max per-branch |ΔT| update (K).
    pub tolerance: f64,
    /// Iteration cap before [`CoupledError::NotConverged`].
    pub max_iterations: usize,
    /// Relaxation α ∈ (0, 1] of the mixed update: with an empty
    /// Anderson history it is the damped Picard step
    /// `T ← T + α·(T_new − T)`, and the residual is that step's size.
    pub damping: f64,
    /// Initial branch-temperature guess; defaults to the substrate
    /// reference.
    pub initial_temperature: Option<Kelvin>,
    /// Lognormal shape parameter σ of each strap's TTF distribution.
    pub sigma: f64,
    /// Cumulative failure fraction the TTF is quoted at (the paper uses
    /// 0.1 %).
    pub failure_quantile: f64,
    /// Blech immortality filter (None disables it).
    pub blech: Option<BlechModel>,
}

impl Default for CoupledOptions {
    fn default() -> Self {
        Self {
            tolerance: 0.05,
            max_iterations: 100,
            damping: 0.7,
            initial_temperature: None,
            sigma: 0.5,
            failure_quantile: 1.0e-3,
            blech: Some(BlechModel::copper()),
        }
    }
}

/// One strap's converged operating point plus its EM verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchAssessment {
    /// Tail intersection `(row, col)`.
    pub from: (usize, usize),
    /// Head intersection `(row, col)`.
    pub to: (usize, usize),
    /// Magnitude of the DC current through the strap.
    pub current: Current,
    /// The corresponding (average = RMS = peak, r = 1) density.
    pub density: CurrentDensity,
    /// The strap's converged metal temperature.
    pub temperature: Kelvin,
    /// The signoff verdict, in `core::signoff` style.
    pub verdict: NetVerdict,
    /// Black TTF at the local stress (`None` for immortal or idle
    /// straps, which cannot fail by EM).
    pub ttf: Option<Seconds>,
}

/// The converged chip-level result.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledReport {
    /// Picard iterations to convergence.
    pub iterations: usize,
    /// Largest supply droop anywhere on the grid.
    pub worst_ir_drop: Voltage,
    /// The intersection with the largest droop.
    pub worst_node: (usize, usize),
    /// The hottest strap's metal temperature.
    pub peak_temperature: Kelvin,
    /// The per-iteration residual history, one record per iteration.
    pub trace: ConvergenceTrace,
    /// Every strap's assessment, in grid order.
    pub branches: Vec<BranchAssessment>,
    /// Weakest-link failure distribution over every mortal strap
    /// (`None` when the whole grid is immortal or idle).
    pub chip_failure: Option<WeakestLinkPopulation>,
    /// The chip TTF at the configured failure quantile.
    pub chip_ttf: Option<Seconds>,
    /// Numerical-health summary of the run: Picard rate fit, condition
    /// number, post-solve residual, and KCL audit (what a diagnostic
    /// bundle embeds and `hotwire doctor` renders).
    pub health: HealthReport,
}

impl CoupledReport {
    /// The failing straps, most over-stressed first (mirrors
    /// [`hotwire_core::signoff::ranked_violations`]).
    #[must_use]
    pub fn violations(&self) -> Vec<&BranchAssessment> {
        let mut v: Vec<&BranchAssessment> = self
            .branches
            .iter()
            .filter(|b| !b.verdict.passes())
            .collect();
        v.sort_by(|a, b| b.verdict.utilization.total_cmp(&a.verdict.utilization));
        v
    }

    /// `true` when every strap meets its rule.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.branches.iter().all(|b| b.verdict.passes())
    }
}

/// The coupled engine: owns the DC solver (with its reusable
/// factorization), the chip thermal map, and the temperature state.
#[derive(Debug, Clone)]
pub struct CoupledEngine {
    spec: CoupledGridSpec,
    options: CoupledOptions,
    branches: Vec<GridBranch>,
    solver: DcGridSolver,
    thermal: ChipThermalModel,
    cross_section: f64,
    branch_t: Vec<f64>,
    branch_g: Vec<f64>,
    /// Per-branch resistance multipliers (≥ 1) back-annotated by the
    /// tree-EM aging loop as voids grow under straps.
    branch_r_mult: Vec<f64>,
    node_power: Vec<f64>,
    node_rise: Vec<f64>,
    mixing: Mixing,
    records: Vec<IterationRecord>,
    converged: bool,
}

/// Type-II Anderson history over the branch temperatures. The step that
/// converges releases it, and the next step allocates it again.
#[derive(Debug, Clone, Default)]
struct Mixing {
    /// Residual `f = G − T` and target `G` of the latest iterate, one per
    /// branch.
    f: Vec<f64>,
    g: Vec<f64>,
    /// [`MIXING_DEPTH`] columns of differences `ΔF`, `ΔG` between
    /// consecutive iterates, each a block of one value per branch.
    df: Vec<f64>,
    dg: Vec<f64>,
    /// Columns `0..len` are filled; `next` is overwritten next.
    len: usize,
    next: usize,
}

impl Mixing {
    /// Allocates the history for `branches` if it was released. Returns
    /// whether it was kept, so `f` and `g` still hold an iterate.
    fn allocate(&mut self, branches: usize) -> bool {
        if !self.f.is_empty() {
            return true;
        }
        *self = Self {
            f: vec![0.0; branches],
            g: vec![0.0; branches],
            df: vec![0.0; MIXING_DEPTH * branches],
            dg: vec![0.0; MIXING_DEPTH * branches],
            len: 0,
            next: 0,
        };
        false
    }

    /// Drops the difference columns, keeping the latest iterate.
    fn restart(&mut self) {
        self.len = 0;
        self.next = 0;
    }

    /// The weights γ minimizing `‖f − ΔF·γ‖₂` over the filled columns,
    /// from the normal equations by Cholesky. A rank-deficient history
    /// gives non-finite weights.
    fn weights(&self) -> [f64; MIXING_DEPTH] {
        let n = self.f.len();
        // The Gram matrix ΔFᵀΔF and ΔFᵀf in one sweep. Each sum runs over
        // the branches in order from −0.0, as `Iterator::sum` does.
        let (mut gram, mut rhs) = ([[-0.0; MIXING_DEPTH]; MIXING_DEPTH], [-0.0; MIXING_DEPTH]);
        for (k, &f) in self.f.iter().enumerate() {
            let df = |j: usize| self.df[j * n + k];
            for (i, (row, r)) in gram.iter_mut().zip(&mut rhs).enumerate().take(self.len) {
                for (j, g) in row[..=i].iter_mut().enumerate() {
                    *g += df(i) * df(j);
                }
                *r += df(i) * f;
            }
        }
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let (mut l, mut gamma) = ([[0.0; MIXING_DEPTH]; MIXING_DEPTH], [0.0; MIXING_DEPTH]);
        for i in 0..self.len {
            for j in 0..=i {
                let s = gram[i][j] - dot(&l[i][..j], &l[j][..j]);
                l[i][j] = if i == j { s.sqrt() } else { s / l[j][j] };
            }
            gamma[i] = (rhs[i] - dot(&l[i][..i], &gamma[..i])) / l[i][i];
        }
        for i in (0..self.len).rev() {
            let s: f64 = (i + 1..self.len).map(|j| l[j][i] * gamma[j]).sum();
            gamma[i] = (gamma[i] - s) / l[i][i];
        }
        gamma
    }
}

impl CoupledEngine {
    /// Validates the spec and builds the electrical and thermal systems
    /// (the electrical one is factored on the first step; the thermal
    /// one is matrix-free and never factored).
    ///
    /// # Errors
    ///
    /// Returns [`CoupledError::InvalidSpec`] for degenerate geometry, a
    /// grid of more than `u32::MAX` intersections, an empty or
    /// out-of-range pad list, or bad options.
    pub fn new(spec: CoupledGridSpec, options: CoupledOptions) -> Result<Self, CoupledError> {
        let invalid = |message: String| CoupledError::InvalidSpec { message };
        // The LDLᵀ and AMD arrays index nodes with `u32`.
        let nodes = spec
            .rows
            .checked_mul(spec.cols)
            .filter(|&n| u32::try_from(n).is_ok())
            .ok_or_else(|| {
                invalid(format!(
                    "a {}×{} grid has more than {} intersections",
                    spec.rows,
                    spec.cols,
                    u32::MAX
                ))
            })?;
        if nodes < 2 {
            return Err(invalid(format!(
                "grid needs at least 2 intersections, got {}×{}",
                spec.rows, spec.cols
            )));
        }
        for (what, v) in [
            ("pitch", spec.pitch.value()),
            ("strap width", spec.strap_width.value()),
            ("strap thickness", spec.strap_thickness.value()),
            ("dielectric thickness", spec.dielectric_thickness.value()),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(invalid(format!("{what} must be positive, got {v} m")));
            }
        }
        if !(spec.phi >= 0.0) || !spec.phi.is_finite() {
            return Err(invalid(format!("phi must be ≥ 0, got {}", spec.phi)));
        }
        if !(spec.sink_per_node.value() >= 0.0) {
            return Err(invalid(format!(
                "sink per node must be ≥ 0, got {}",
                spec.sink_per_node
            )));
        }
        if !(spec.reference_temperature.value() > 0.0) {
            return Err(invalid(format!(
                "reference temperature must be positive, got {}",
                spec.reference_temperature
            )));
        }
        if spec.pads.is_empty() {
            return Err(invalid("grid needs at least one pad".to_owned()));
        }
        for &(r, c) in &spec.pads {
            if r >= spec.rows || c >= spec.cols {
                return Err(invalid(format!(
                    "pad ({r}, {c}) outside the {}×{} grid",
                    spec.rows, spec.cols
                )));
            }
        }
        if !(options.tolerance > 0.0) || !options.tolerance.is_finite() {
            return Err(invalid(format!(
                "tolerance must be positive, got {} K",
                options.tolerance
            )));
        }
        if options.max_iterations == 0 {
            return Err(invalid("max_iterations must be at least 1".to_owned()));
        }
        if !(options.damping > 0.0 && options.damping <= 1.0) {
            return Err(invalid(format!(
                "damping must be in (0, 1], got {}",
                options.damping
            )));
        }
        if !(options.sigma > 0.0) || !options.sigma.is_finite() {
            return Err(invalid(format!(
                "lognormal sigma must be positive, got {}",
                options.sigma
            )));
        }
        if !(options.failure_quantile > 0.0 && options.failure_quantile < 1.0) {
            return Err(invalid(format!(
                "failure quantile must be in (0, 1), got {}",
                options.failure_quantile
            )));
        }
        let (lo, hi) = spec.metal.resistivity_validity_range();
        let t0 = options
            .initial_temperature
            .unwrap_or(spec.reference_temperature);
        if !(t0.value() >= lo.value() && t0.value() <= hi.value()) {
            return Err(invalid(format!(
                "initial temperature {} outside the resistivity fit's validity window [{:.1} K, {:.1} K]",
                t0,
                lo.value(),
                hi.value()
            )));
        }

        let (rows, cols) = (spec.rows, spec.cols);
        let mut branches = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    branches.push(((r, c), (r, c + 1)));
                }
                if r + 1 < rows {
                    branches.push(((r, c), (r + 1, c)));
                }
            }
        }
        let node_branches: Vec<(usize, usize)> = branches
            .iter()
            .map(|&((r0, c0), (r1, c1))| (r0 * cols + c0, r1 * cols + c1))
            .collect();
        let pinned: Vec<(usize, f64)> = spec
            .pads
            .iter()
            .map(|&(r, c)| (r * cols + c, spec.vdd.value()))
            .collect();
        let mut solver = DcGridSolver::new(
            nodes,
            node_branches,
            &pinned,
            TransientOptions::default().gmin,
        )?;
        for cell in 0..nodes {
            solver.set_sink(cell, spec.sink_per_node.value());
        }

        // Thermal conductances (W/K): axial metal conduction per branch
        // and per-half-segment vertical conduction through the ILD into
        // the substrate, with eq. 14's effective-width spreading.
        let area = spec.strap_width.value() * spec.strap_thickness.value();
        let pitch = spec.pitch.value();
        let stack = InsulatorStack::single(spec.dielectric_thickness, &spec.dielectric);
        let srt = stack.series_resistance_thickness();
        let w_eff = effective_width(spec.strap_width, spec.dielectric_thickness, spec.phi);
        let g_lateral = spec.metal.thermal_conductivity().value() * area / pitch;
        let g_half = w_eff.value() * (0.5 * pitch) / srt;
        let thermal = ChipThermalModel::new(rows, cols, g_lateral, g_half)?;

        let n_branches = branches.len();
        Ok(Self {
            spec,
            options,
            branches,
            solver,
            thermal,
            cross_section: area,
            branch_t: vec![t0.value(); n_branches],
            branch_g: vec![0.0; n_branches],
            branch_r_mult: vec![1.0; n_branches],
            node_power: vec![0.0; nodes],
            node_rise: Vec::new(),
            mixing: Mixing::default(),
            records: Vec::new(),
            converged: false,
        })
    }

    /// One mixed Picard iteration; returns its residual, the damped step
    /// size `α·max|G(T) − T|` (K).
    ///
    /// # Errors
    ///
    /// Propagates electrical ([`CoupledError::Circuit`]) and thermal
    /// ([`CoupledError::Thermal`]) solve failures.
    pub fn step(&mut self) -> Result<f64, CoupledError> {
        metrics::counter("coupled.iterations").inc();
        let iteration = self.records.len() + 1;
        // The per-iteration span carries the 1-based iteration index as
        // an attribute, so `hotwire trace` can key its critical-path
        // extraction on it; the stage spans below nest underneath, and
        // its close carries the iteration's record.
        let iter_span = obs_trace::span_with(
            "coupled.iteration",
            &[("iteration", FieldValue::U64(iteration as u64))],
        );
        let step_start = hotwire_obs::Stopwatch::start();
        let metal = &self.spec.metal;
        let pitch = self.spec.pitch.value();
        let area = self.cross_section;
        // 1. Electrical: restamp ρ(T) and solve (refactor after the
        //    first iteration).
        let electrical_start = hotwire_obs::Stopwatch::start();
        {
            let _t = obs_trace::span("coupled.stamp_time");
            for (k, (g, &t)) in self.branch_g.iter_mut().zip(&self.branch_t).enumerate() {
                let (rho, _) = metal.resistivity_clamped(Kelvin::new(t));
                *g = area / (rho.value() * pitch * self.branch_r_mult[k]);
            }
        }
        {
            let _t = obs_trace::span("coupled.electrical_time");
            self.solver.solve(&self.branch_g)?;
        }
        let electrical = electrical_start.elapsed();
        // 2. Thermal: branch Joule powers onto end nodes, one
        //    conjugate-gradient solve for the whole chip, started from
        //    the previous iteration's rise.
        let thermal_start = hotwire_obs::Stopwatch::start();
        self.node_power.iter_mut().for_each(|p| *p = 0.0);
        let cols = self.spec.cols;
        for (k, &((r0, c0), (r1, c1))) in self.branches.iter().enumerate() {
            let i = self.solver.branch_currents()[k];
            let p = i * i / self.branch_g[k];
            self.node_power[r0 * cols + c0] += 0.5 * p;
            self.node_power[r1 * cols + c1] += 0.5 * p;
        }
        {
            let _t = obs_trace::span("coupled.thermal_time");
            self.thermal
                .solve_into(&self.node_power, &mut self.node_rise)?;
        }
        let thermal = thermal_start.elapsed();
        // 3. Mixed update toward the substrate-referenced field G(T).
        let update_span = obs_trace::span("coupled.update_time");
        let t_ref = self.spec.reference_temperature.value();
        let alpha = self.options.damping;
        let n = self.branches.len();
        let mix = &mut self.mixing;
        // `f` and `g` hold the previous iterate of this epoch, if any; a
        // freshly allocated history holds none.
        let primed = mix.allocate(n) && !self.records.is_empty();
        let column = mix.next * n;
        let mut residual = 0.0_f64;
        for (k, &((r0, c0), (r1, c1))) in self.branches.iter().enumerate() {
            let g = t_ref + 0.5 * (self.node_rise[r0 * cols + c0] + self.node_rise[r1 * cols + c1]);
            let f = g - self.branch_t[k];
            if primed {
                mix.df[column + k] = f - mix.f[k];
                mix.dg[column + k] = g - mix.g[k];
            }
            (mix.f[k], mix.g[k]) = (f, g);
            residual = residual.max(f.abs());
        }
        let delta = alpha * residual;
        self.converged = delta <= self.options.tolerance;
        let grew = self.records.last().is_some_and(|r| delta > r.max_delta_t);
        let mut gamma = [0.0; MIXING_DEPTH];
        if primed && !grew && !self.converged {
            mix.len = (mix.len + 1).min(MIXING_DEPTH);
            mix.next = (mix.next + 1) % MIXING_DEPTH;
            gamma = mix.weights();
        }
        // The converged step and a restart are the plain damped step.
        if self.converged || grew || !gamma.iter().all(|g| g.is_finite()) {
            if !self.converged {
                metrics::counter("coupled.mixing_restarts").inc();
            }
            mix.restart();
        }
        let mut peak = f64::NEG_INFINITY;
        for (k, t) in self.branch_t.iter_mut().enumerate() {
            *t += alpha * mix.f[k];
            for (j, &gj) in gamma.iter().enumerate().take(mix.len) {
                *t -= gj * (mix.dg[j * n + k] - (1.0 - alpha) * mix.df[j * n + k]);
            }
            peak = peak.max(*t);
        }
        if self.converged {
            // Free the history before `assess`, where a run peaks.
            *mix = Mixing::default();
        }
        let (_, worst_drop) = self.worst_drop().unwrap_or((0, 0.0));
        self.records.push(IterationRecord {
            iteration,
            max_delta_t: delta,
            peak_temperature: peak,
            worst_ir_drop: worst_drop,
            electrical_ms: electrical.as_secs_f64() * 1e3,
            thermal_ms: thermal.as_secs_f64() * 1e3,
            total_ms: step_start.elapsed().as_secs_f64() * 1e3,
        });
        metrics::gauge("coupled.residual").set(delta);
        metrics::gauge("coupled.peak_t_k").set(peak);
        // Rate fit + early classification on the delta history so far;
        // the class counters let dashboards alarm on a sick loop long
        // before the iteration cap fires.
        let rate = health::picard_rate(&self.deltas(), self.options.tolerance);
        metrics::gauge(health::names::PICARD_CONTRACTION).set(rate.contraction);
        if let Some(n) = rate.predicted_iterations {
            #[allow(clippy::cast_precision_loss)]
            metrics::gauge(health::names::PICARD_PREDICTED).set(n as f64);
        }
        match rate.class {
            ConvergenceClass::Stagnated => {
                metrics::counter(health::names::PICARD_STAGNATED).inc();
            }
            ConvergenceClass::Oscillating => {
                metrics::counter(health::names::PICARD_OSCILLATING).inc();
            }
            ConvergenceClass::Diverging => {
                metrics::counter(health::names::PICARD_DIVERGING).inc();
            }
            _ => {}
        }
        drop(update_span);
        iter_span.close(
            Level::Debug,
            &[
                ("max_delta_t_k", FieldValue::F64(delta)),
                ("peak_temperature_k", FieldValue::F64(peak)),
                ("worst_ir_drop_v", FieldValue::F64(worst_drop)),
                ("class", FieldValue::Str(rate.class.label())),
            ],
        );
        Ok(delta)
    }

    /// Runs [`CoupledEngine::step`] to convergence. The `coupled.run`
    /// span closes on every exit path with the verdict (`converged`,
    /// `tolerance_k`, `damping`).
    ///
    /// # Errors
    ///
    /// [`CoupledError::Diverged`] when the update keeps growing,
    /// [`CoupledError::NotConverged`] at the iteration cap, and
    /// [`CoupledError::BeyondResistivityRange`] when the settled state
    /// is pinned at the metal fit's validity limit (the engine then
    /// counts as not converged).
    pub fn run(&mut self) -> Result<(), CoupledError> {
        let run_span = obs_trace::span("coupled.run");
        let outcome = self.iterate();
        run_span.close(
            Level::Info,
            &[
                ("converged", FieldValue::Bool(self.converged)),
                ("tolerance_k", FieldValue::F64(self.options.tolerance)),
                ("damping", FieldValue::F64(self.options.damping)),
            ],
        );
        outcome
    }

    /// The Picard loop of [`CoupledEngine::run`]. Each failure is one
    /// event below `warn`, since the caller reports the returned error.
    fn iterate(&mut self) -> Result<(), CoupledError> {
        let tolerance = self.options.tolerance;
        while !self.converged {
            let iterations = self.records.len();
            if iterations >= self.options.max_iterations {
                let last_delta = self.records.last().map_or(f64::INFINITY, |r| r.max_delta_t);
                obs_trace::event(
                    Level::Info,
                    "coupled.not_converged",
                    "iteration cap hit",
                    &[
                        ("iterations", FieldValue::from(iterations)),
                        ("last_delta_k", FieldValue::F64(last_delta)),
                        ("tolerance_k", FieldValue::F64(tolerance)),
                    ],
                );
                return Err(CoupledError::NotConverged {
                    iterations,
                    last_delta,
                    history: self.deltas(),
                    hottest: self.hotspots_by(|_, &t| t),
                });
            }
            let delta = self.step()?;
            let growing = matches!(self.records.as_slice(), [.., a, b, c]
                if c.max_delta_t > b.max_delta_t && b.max_delta_t > a.max_delta_t);
            if !delta.is_finite() || (growing && delta > 100.0 * tolerance) {
                obs_trace::event(
                    Level::Info,
                    "coupled.diverged",
                    "update growing",
                    &[
                        ("iteration", FieldValue::from(iterations + 1)),
                        ("delta_k", FieldValue::F64(delta)),
                    ],
                );
                return Err(CoupledError::Diverged {
                    iterations: iterations + 1,
                    delta,
                    offending: self.hotspots_by(|_, &t| t),
                });
            }
        }
        // Settled: a state pinned at the resistivity fit's limit is
        // runaway, not convergence.
        let (_, hi) = self.spec.metal.resistivity_validity_range();
        let mut offending: Vec<BranchHotspot> = (0..self.branches.len())
            .filter(|&k| self.branch_t[k] >= hi.value())
            .map(|k| BranchHotspot {
                from: self.branches[k].0,
                to: self.branches[k].1,
                temperature: Kelvin::new(self.branch_t[k]),
            })
            .collect();
        offending.sort_by(|a, b| b.temperature.value().total_cmp(&a.temperature.value()));
        if let Some(hottest) = offending.first() {
            self.converged = false;
            let ((r0, c0), (r1, c1)) = (hottest.from, hottest.to);
            obs_trace::event(
                Level::Info,
                "coupled.beyond_range",
                "settled beyond the resistivity fit",
                &[
                    ("limit_k", FieldValue::F64(hi.value())),
                    (
                        "hottest",
                        FieldValue::Str(&format!("({r0},{c0})->({r1},{c1})")),
                    ),
                    ("hottest_k", FieldValue::F64(hottest.temperature.value())),
                ],
            );
            offending.truncate(ERROR_REPORT_BRANCHES);
            return Err(CoupledError::BeyondResistivityRange {
                limit: hi,
                offending,
            });
        }
        Ok(())
    }

    /// The row-major index of the node with the largest IR drop, and
    /// that drop (ties per [`worst_index`]).
    fn worst_drop(&self) -> Option<(usize, f64)> {
        let vdd = self.spec.vdd.value();
        worst_index(self.solver.node_voltages().iter().map(|&v| vdd - v), vdd)
    }

    /// The worst branches by a score function, for error reports.
    fn hotspots_by(&self, score: impl Fn(usize, &f64) -> f64) -> Vec<BranchHotspot> {
        let mut scored: Vec<(f64, usize)> = self
            .branch_t
            .iter()
            .enumerate()
            .map(|(k, t)| (score(k, t), k))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored
            .iter()
            .take(ERROR_REPORT_BRANCHES)
            .map(|&(_, k)| BranchHotspot {
                from: self.branches[k].0,
                to: self.branches[k].1,
                temperature: Kelvin::new(self.branch_t[k]),
            })
            .collect()
    }

    /// Iterations performed so far.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.records.len()
    }

    /// The max |ΔT| update of every iteration so far (K), in order.
    fn deltas(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.max_delta_t).collect()
    }

    /// The convergence trace accumulated so far — available even when
    /// [`CoupledEngine::run`] fails, so a post-mortem can see the
    /// residual history that led to the error.
    #[must_use]
    pub fn trace(&self) -> ConvergenceTrace {
        ConvergenceTrace {
            records: self.records.clone(),
            converged: self.converged,
            tolerance: self.options.tolerance,
            damping: self.options.damping,
        }
    }

    /// `true` once the temperature field has settled under tolerance.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Numerical-health summary of the run so far: the Picard rate fit
    /// over the delta history plus the electrical solver's monitors,
    /// including the condition number of the matrix behind the current
    /// voltages (one extra solve per call). Available mid-run and after
    /// a failed [`CoupledEngine::run`] — the error-path diagnostic
    /// bundles lean on exactly that.
    #[must_use]
    pub fn health_report(&self) -> HealthReport {
        let kcl = if self.converged && self.solver.solve_count() > 0 {
            Some(self.solver.kcl_audit())
        } else {
            None
        };
        HealthReport {
            picard: health::picard_rate(&self.deltas(), self.options.tolerance),
            iterations: self.records.len() as u64,
            last_delta: self.records.last().map_or(0.0, |r| r.max_delta_t),
            tolerance: self.options.tolerance,
            condition_estimate: self.solver.condition_number(),
            residual_rel: self.solver.last_residual_rel(),
            kcl_imbalance_rel: kcl,
        }
    }

    /// Per-branch metal temperatures (K), in grid order.
    #[must_use]
    pub fn branch_temperatures(&self) -> &[f64] {
        &self.branch_t
    }

    /// Per-node voltages of the latest electrical solve, row-major.
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        self.solver.node_voltages()
    }

    /// The branch list, `((row, col), (row, col))` per strap.
    #[must_use]
    pub fn branches(&self) -> &[GridBranch] {
        &self.branches
    }

    /// Signed per-branch currents of the latest electrical solve
    /// (positive = conventional current from the branch's first node to
    /// its second), in grid order. The tree-EM layer consumes the sign
    /// to orient electron wind along each segment.
    #[must_use]
    pub fn branch_currents(&self) -> &[f64] {
        self.solver.branch_currents()
    }

    /// The grid spec the engine was built from.
    #[must_use]
    pub fn spec(&self) -> &CoupledGridSpec {
        &self.spec
    }

    /// The options the engine was built with.
    #[must_use]
    pub fn options(&self) -> &CoupledOptions {
        &self.options
    }

    /// Back-annotates per-branch resistance multipliers (≥ 1, one per
    /// strap) — the aging loop's hook: as voids grow, the liner carries
    /// the current at elevated resistance, which reshapes both the IR
    /// drop and the Joule heat of the next coupled solve.
    ///
    /// Call [`CoupledEngine::reset_convergence`] afterwards to re-run
    /// the fixed point with the new multipliers.
    ///
    /// # Errors
    ///
    /// [`CoupledError::InvalidSpec`] on a length mismatch or a
    /// multiplier below 1 / non-finite.
    pub fn set_branch_resistance_multipliers(
        &mut self,
        multipliers: &[f64],
    ) -> Result<(), CoupledError> {
        if multipliers.len() != self.branches.len() {
            return Err(CoupledError::InvalidSpec {
                message: format!(
                    "{} resistance multipliers for {} branches",
                    multipliers.len(),
                    self.branches.len()
                ),
            });
        }
        if let Some(bad) = multipliers.iter().find(|m| !m.is_finite() || **m < 1.0) {
            return Err(CoupledError::InvalidSpec {
                message: format!("resistance multipliers must be finite and ≥ 1, got {bad}"),
            });
        }
        self.branch_r_mult.copy_from_slice(multipliers);
        Ok(())
    }

    /// Clears the convergence state (residual history and flag) while
    /// keeping the warm temperature field and factorizations — the
    /// aging loop calls this between epochs so each re-solve gets the
    /// full iteration budget and converges fast from the warm start.
    pub fn reset_convergence(&mut self) {
        self.mixing.restart();
        self.records.clear();
        self.converged = false;
    }

    /// Size of the reduced electrical system.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.solver.unknown_count()
    }

    /// Evaluates the per-branch EM stage on the converged state and
    /// rolls it up into the chip-level report. The per-branch verdicts
    /// run on a rayon pool in an order-preserving fan-out, so the
    /// result is byte-identical to [`CoupledEngine::assess_serial`].
    ///
    /// # Errors
    ///
    /// [`CoupledError::InvalidSpec`] when called before convergence;
    /// [`CoupledError::Em`] if the statistics stage rejects a TTF.
    pub fn assess(&self) -> Result<CoupledReport, CoupledError> {
        self.assess_impl(true)
    }

    /// Serial twin of [`CoupledEngine::assess`] (determinism reference).
    ///
    /// # Errors
    ///
    /// As [`CoupledEngine::assess`].
    pub fn assess_serial(&self) -> Result<CoupledReport, CoupledError> {
        self.assess_impl(false)
    }

    fn assess_impl(&self, parallel: bool) -> Result<CoupledReport, CoupledError> {
        if !self.converged {
            return Err(CoupledError::InvalidSpec {
                message: "assess() requires a converged engine; call run() first".to_owned(),
            });
        }
        let _assess_span = obs_trace::span("coupled.assess");
        let black = BlackModel::for_metal(&self.spec.metal);
        let blech = self.options.blech;
        let pitch = self.spec.pitch;
        let blech_floor = blech.as_ref().map(|b| b.immortality_density(pitch));
        let area = self.cross_section;
        // Snap the logical context before the fan-out so the per-strap
        // spans on rayon workers parent under `coupled.assess`.
        let ctx = obs_trace::context();
        let eval = |k: usize| -> (BranchAssessment, Option<(CurrentDensity, Kelvin)>) {
            let _ctx = ctx.adopt();
            let _strap_span = obs_trace::span("coupled.em.strap");
            let (from, to) = self.branches[k];
            let i = self.solver.branch_currents()[k].abs();
            let j = i / area;
            let t = Kelvin::new(self.branch_t[k]);
            let allowed_wearout = black.allowed_average_density(t);
            let (allowed, governing) = match blech_floor {
                Some(floor) if floor > allowed_wearout => (floor, GoverningRule::BlechImmortal),
                _ => (allowed_wearout, GoverningRule::SelfConsistent),
            };
            let immortal = j <= 0.0
                || blech
                    .as_ref()
                    .is_some_and(|b| b.is_immortal(CurrentDensity::new(j), pitch));
            let verdict = NetVerdict {
                net: format!("strap ({},{})->({},{})", from.0, from.1, to.0, to.1),
                allowed_j_peak: allowed,
                governing,
                utilization: j / allowed.value(),
                metal_temperature: t,
            };
            let stress = (!immortal).then_some((CurrentDensity::new(j), t));
            (
                BranchAssessment {
                    from,
                    to,
                    current: Current::new(i),
                    density: CurrentDensity::new(j),
                    temperature: t,
                    verdict,
                    ttf: None, // filled from the batch TTF below
                },
                stress,
            )
        };
        let mut assessed: Vec<(BranchAssessment, Option<(CurrentDensity, Kelvin)>)> = if parallel {
            (0..self.branches.len()).into_par_iter().map(eval).collect()
        } else {
            (0..self.branches.len()).map(eval).collect()
        };
        // Batch TTF over the mortal straps, then the weakest-link rollup.
        let stresses: Vec<(CurrentDensity, Kelvin)> =
            assessed.iter().filter_map(|(_, s)| *s).collect();
        metrics::counter("coupled.em.mortal_straps").add(stresses.len() as u64);
        metrics::counter("coupled.em.immortal_straps")
            .add((assessed.len() - stresses.len()) as u64);
        let ttfs = black.batch_ttf(&stresses);
        // `batch_ttf` yields one TTF per stress, and `stresses` holds
        // one entry per mortal branch in order — zipping the mortal
        // subset against the TTFs restores the pairing without an
        // unreachable-panic path.
        let mortal = assessed.iter_mut().filter(|(_, stress)| stress.is_some());
        for ((branch, _), &ttf) in mortal.zip(&ttfs) {
            branch.ttf = Some(ttf);
        }
        let (chip_failure, chip_ttf) =
            weakest_link_rollup(&ttfs, self.options.failure_quantile, self.options.sigma)
                .map_err(CoupledError::Em)?
                .unzip();

        let (node, worst_drop) = self.worst_drop().unwrap_or((0, 0.0));
        let peak = self
            .branch_t
            .iter()
            .fold(f64::NEG_INFINITY, |m, &t| m.max(t));
        Ok(CoupledReport {
            iterations: self.records.len(),
            trace: self.trace(),
            worst_ir_drop: Voltage::new(worst_drop),
            worst_node: (node / self.spec.cols, node % self.spec.cols),
            peak_temperature: Kelvin::new(peak),
            branches: assessed.into_iter().map(|(b, _)| b).collect(),
            chip_failure,
            chip_ttf,
            health: self.health_report(),
        })
    }
}

/// One-call convenience: build, iterate to the fixed point, assess.
///
/// # Errors
///
/// As [`CoupledEngine::new`], [`CoupledEngine::run`], and
/// [`CoupledEngine::assess`].
pub fn coupled_signoff(
    spec: CoupledGridSpec,
    options: CoupledOptions,
) -> Result<CoupledReport, CoupledError> {
    let mut engine = CoupledEngine::new(spec, options)?;
    engine.run()?;
    engine.assess()
}
