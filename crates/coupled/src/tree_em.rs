//! Tree-EM stage for the coupled engine: grid rows and columns as
//! interconnect trees under the Korhonen stress model.
//!
//! The per-strap Black/Blech stage ([`crate::CoupledEngine::assess`])
//! judges every strap in isolation. This stage instead treats each
//! grid **row and column as one multi-segment interconnect tree**: the
//! converged electro-thermal state supplies per-segment signed currents
//! and metal temperatures, the linear-time steady-state filter
//! ([`hotwire_em_tree::steady`]) retires immortal lines in O(segments),
//! and the implicit Korhonen integrator
//! ([`hotwire_em_tree::transient`]) produces nucleation and
//! growth-to-failure times for the rest, rolled up through the same
//! weakest-link population as the per-strap path.
//!
//! [`age_with_tree_em`] closes the loop EMSpice-style: voids that grow
//! under straps are back-annotated as resistance multipliers, the
//! Picard fixed point is re-run, and the stress solvers continue from
//! their accumulated state at the new operating point.

use hotwire_core::signoff::{GoverningRule, NetVerdict};
use hotwire_em::lifetime::{weakest_link_rollup, WeakestLinkPopulation};
use hotwire_em_tree::model::KorhonenModel;
use hotwire_em_tree::steady::{batch_steady_state, SteadyStateStress};
use hotwire_em_tree::transient::{KorhonenSolver, TransientOptions, TransientOutcome};
use hotwire_em_tree::tree::{InterconnectTree, TreeSegment};
use hotwire_obs::metrics;
use hotwire_units::{CurrentDensity, Kelvin, Length, Pascals, Seconds};
use serde::{Deserialize, Serialize};

use crate::engine::CoupledEngine;
use crate::CoupledError;

/// Options of the tree-EM stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeEmOptions {
    /// The Korhonen parameter set (usually
    /// [`KorhonenModel::for_metal_name`] of the grid's metal, which is
    /// Blech-calibrated so single straps reduce to the legacy check).
    pub model: KorhonenModel,
    /// Signoff horizon: trees that neither nucleate nor fail within it
    /// pass.
    pub horizon: Seconds,
    /// Transient mesh/stepping knobs.
    pub transient: TransientOptions,
    /// Skip the transient stage: steady-state (immortality) filter
    /// only, with mortal trees flagged by their stress utilization.
    pub steady_only: bool,
}

impl TreeEmOptions {
    /// Defaults for a model and horizon (transient knobs from
    /// [`TransientOptions::for_horizon`]).
    #[must_use]
    pub fn new(model: KorhonenModel, horizon: Seconds) -> Self {
        Self {
            model,
            horizon,
            transient: TransientOptions::for_horizon(horizon),
            steady_only: false,
        }
    }
}

/// One tree's verdict from the stress stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeAssessment {
    /// Tree name (`row{r}` / `col{c}` for grid lines).
    pub name: String,
    /// Peak steady-state tensile stress.
    pub max_tensile: Pascals,
    /// `true` when the steady-state filter proves the tree immortal.
    pub immortal: bool,
    /// The transient result for mortal trees (None when immortal or
    /// [`TreeEmOptions::steady_only`]).
    pub outcome: Option<TransientOutcome>,
    /// The signoff verdict: `stress-immortal` trees pass outright;
    /// `stress-wearout` utilization is horizon-referenced
    /// (`horizon/TTF` once failed, void fraction while growing), so
    /// `passes()` means "survives the signoff horizon".
    pub verdict: NetVerdict,
}

/// The chip-level tree-EM report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeEmReport {
    /// Every tree's assessment: rows first (top to bottom), then
    /// columns (left to right).
    pub trees: Vec<TreeAssessment>,
    /// Trees retired by the steady-state filter.
    pub immortal_trees: usize,
    /// Trees whose void spans the critical length within the horizon.
    pub failed_trees: usize,
    /// Weakest-link population over the failed trees.
    pub chip_failure: Option<WeakestLinkPopulation>,
    /// Chip TTF at the engine's failure quantile (None when nothing
    /// fails inside the horizon).
    pub chip_ttf: Option<Seconds>,
}

impl TreeEmReport {
    /// `true` when every tree survives the horizon.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.trees.iter().all(|t| t.verdict.passes())
    }
}

/// Lifts the converged grid into straight-line trees — one per row and
/// one per column — with signed per-segment densities and local
/// temperatures. Returns each tree alongside the engine branch index
/// of every segment (for resistance back-annotation).
///
/// Rows and columns are assessed as independent trees: each carries
/// its own within-line flux continuity, while current exchanged at
/// intersections enters through the per-segment densities the full
/// mesh solve produced.
///
/// # Errors
///
/// [`CoupledError::InvalidSpec`] when called before convergence.
pub fn grid_line_trees(
    engine: &CoupledEngine,
) -> Result<Vec<(InterconnectTree, Vec<usize>)>, CoupledError> {
    if !engine.converged() {
        return Err(CoupledError::InvalidSpec {
            message: "grid_line_trees() requires a converged engine; call run() first".to_owned(),
        });
    }
    let spec = engine.spec();
    let (rows, cols) = (spec.rows, spec.cols);
    let area = spec.strap_width.value() * spec.strap_thickness.value();
    let currents = engine.branch_currents();
    let temps = engine.branch_temperatures();
    let mut by_ends = std::collections::HashMap::new();
    for (k, &(a, b)) in engine.branches().iter().enumerate() {
        by_ends.insert((a, b), k);
    }
    let segment = |k: usize, from: usize, to: usize, length: f64| TreeSegment {
        from,
        to,
        length: Length::new(length),
        width: spec.strap_width,
        thickness: spec.strap_thickness,
        current_density: CurrentDensity::new(currents[k] / area),
        temperature: Kelvin::new(temps[k]),
    };
    let pitch = spec.pitch.value();
    let mut out = Vec::new();
    if cols >= 2 {
        for r in 0..rows {
            let mut segs = Vec::with_capacity(cols - 1);
            let mut map = Vec::with_capacity(cols - 1);
            for c in 0..cols - 1 {
                let Some(&k) = by_ends.get(&((r, c), (r, c + 1))) else {
                    return Err(CoupledError::InvalidSpec {
                        message: format!("missing grid branch ({r},{c})->({r},{})", c + 1),
                    });
                };
                segs.push(segment(k, c, c + 1, pitch));
                map.push(k);
            }
            out.push((InterconnectTree::new(format!("row{r}"), cols, segs)?, map));
        }
    }
    if rows >= 2 {
        for c in 0..cols {
            let mut segs = Vec::with_capacity(rows - 1);
            let mut map = Vec::with_capacity(rows - 1);
            for r in 0..rows - 1 {
                let Some(&k) = by_ends.get(&((r, c), (r + 1, c))) else {
                    return Err(CoupledError::InvalidSpec {
                        message: format!("missing grid branch ({r},{c})->({},{c})", r + 1),
                    });
                };
                segs.push(segment(k, r, r + 1, pitch));
                map.push(k);
            }
            out.push((InterconnectTree::new(format!("col{c}"), rows, segs)?, map));
        }
    }
    Ok(out)
}

fn verdict_for(
    tree: &InterconnectTree,
    steady: &SteadyStateStress,
    outcome: Option<&TransientOutcome>,
    model: &KorhonenModel,
    horizon: Seconds,
) -> NetVerdict {
    let sigma_crit = model.critical_stress().value();
    let peak_j = tree
        .segments()
        .iter()
        .map(|s| s.current_density.value().abs())
        .fold(0.0_f64, f64::max);
    let hottest = tree
        .segments()
        .iter()
        .map(|s| s.temperature.value())
        .fold(f64::NEG_INFINITY, f64::max);
    let stress_ratio = (steady.max_tensile.value() / sigma_crit).max(0.0);
    // Stress is linear in a uniform current scale, so the density at
    // which this tree would sit exactly at σ_crit is peak_j / ratio —
    // the tree-level analogue of the per-strap allowed density.
    let allowed = if stress_ratio > 1.0e-6 && peak_j > 0.0 {
        peak_j / stress_ratio
    } else {
        peak_j.max(model.implied_blech_product(Kelvin::new(hottest)) / tree.total_length().value())
    };
    let (governing, utilization) = if steady.immortal {
        (GoverningRule::StressImmortal, stress_ratio)
    } else {
        let u = match outcome {
            // Failed: how many times over the horizon budget.
            Some(o) if o.failure_time.is_some() => o
                .failure_time
                .map_or(0.0, |t| horizon.value() / t.value().max(f64::MIN_POSITIVE)),
            // Still growing at the horizon: fraction of the critical
            // void consumed (< 1 ⇒ survives the horizon).
            Some(o) => (o.void_length / model.critical_void_length()).min(0.999),
            // Steady-only: fall back to the stress utilization (≥ 1
            // here by construction — flagged for the transient stage).
            None => stress_ratio,
        };
        (GoverningRule::StressWearout, u)
    };
    NetVerdict {
        net: tree.name().to_string(),
        allowed_j_peak: CurrentDensity::new(allowed),
        governing,
        utilization,
        metal_temperature: Kelvin::new(hottest),
    }
}

/// Runs the tree-EM stage on a converged engine: steady-state filter
/// over every grid line, transient Korhonen to failure on the mortal
/// ones, weakest-link rollup over the failures.
///
/// # Errors
///
/// [`CoupledError::InvalidSpec`] before convergence;
/// [`CoupledError::TreeEm`] from the stress solvers;
/// [`CoupledError::Em`] from the statistics rollup.
pub fn assess_trees(
    engine: &CoupledEngine,
    options: &TreeEmOptions,
) -> Result<TreeEmReport, CoupledError> {
    let trees: Vec<InterconnectTree> = grid_line_trees(engine)?
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let steady = batch_steady_state(&trees, &options.model, true)?;

    // Transient only where the filter could not prove immortality.
    let mortal: Vec<usize> = (0..trees.len()).filter(|&i| !steady[i].immortal).collect();
    let mut outcomes: Vec<Option<TransientOutcome>> = vec![None; trees.len()];
    if !options.steady_only && !mortal.is_empty() {
        let mortal_trees: Vec<InterconnectTree> =
            mortal.iter().map(|&i| trees[i].clone()).collect();
        let runs = hotwire_em_tree::transient::batch_to_failure(
            &mortal_trees,
            &options.model,
            options.transient,
            true,
        )?;
        for (&i, o) in mortal.iter().zip(runs) {
            outcomes[i] = Some(o);
        }
    }

    let assessments: Vec<TreeAssessment> = trees
        .iter()
        .zip(&steady)
        .zip(&outcomes)
        .map(|((tree, s), o)| TreeAssessment {
            name: tree.name().to_string(),
            max_tensile: s.max_tensile,
            immortal: s.immortal,
            outcome: o.clone(),
            verdict: verdict_for(tree, s, o.as_ref(), &options.model, options.horizon),
        })
        .collect();

    let immortal_trees = assessments.iter().filter(|a| a.immortal).count();
    let failures: Vec<Seconds> = assessments
        .iter()
        .filter_map(|a| a.outcome.as_ref().and_then(|o| o.failure_time))
        .collect();
    let options = engine.options();
    let (chip_failure, chip_ttf) =
        weakest_link_rollup(&failures, options.failure_quantile, options.sigma)
            .map_err(CoupledError::Em)?
            .unzip();
    metrics::gauge("em.tree.immortal_fraction")
        .set(immortal_trees as f64 / assessments.len().max(1) as f64);
    Ok(TreeEmReport {
        trees: assessments,
        immortal_trees,
        failed_trees: failures.len(),
        chip_failure,
        chip_ttf,
    })
}

/// Aging-loop knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingOptions {
    /// Number of epochs the horizon is split into (operating points
    /// re-converge between epochs).
    pub epochs: usize,
    /// Implicit steps per epoch window.
    pub steps_per_epoch: usize,
    /// Resistance multiplier of a fully voided segment (the liner
    /// carries the current); scales linearly with void fraction.
    pub liner_resistance_factor: f64,
}

impl Default for AgingOptions {
    fn default() -> Self {
        Self {
            epochs: 8,
            steps_per_epoch: 32,
            liner_resistance_factor: 10.0,
        }
    }
}

/// One epoch of the coupled aging loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Simulated time at the end of the epoch.
    pub time: Seconds,
    /// Trees with a nucleated void so far.
    pub nucleated_trees: usize,
    /// Trees past the critical void length so far.
    pub failed_trees: usize,
    /// Longest void anywhere on the grid.
    pub peak_void: Length,
    /// Largest branch resistance multiplier back-annotated.
    pub peak_r_multiplier: f64,
    /// Picard iterations the post-annotation re-solve took.
    pub picard_iterations: usize,
}

/// The aging-loop result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgingReport {
    /// Per-epoch evolution.
    pub epochs: Vec<EpochRecord>,
    /// First nucleation time over the grid, if any.
    pub first_nucleation: Option<Seconds>,
    /// First growth-to-failure time over the grid, if any.
    pub first_failure: Option<Seconds>,
}

/// EMSpice-style coupled aging: alternates Korhonen stress windows
/// with full electro-thermal re-solves, back-annotating void growth as
/// branch resistance.
///
/// Per epoch: every line tree advances `horizon/epochs` of simulated
/// stress evolution from its accumulated state; void lengths map to
/// per-branch resistance multipliers
/// `1 + (liner_factor − 1)·(ℓ_void/L_seg)`; the Picard fixed point
/// re-runs (warm-started) and the trees are re-stamped with the fresh
/// currents and temperatures.
///
/// # Errors
///
/// Propagates engine and stress-solver failures; the engine is left in
/// its last converged state on success.
pub fn age_with_tree_em(
    engine: &mut CoupledEngine,
    options: &TreeEmOptions,
    aging: &AgingOptions,
) -> Result<AgingReport, CoupledError> {
    if aging.epochs == 0 || aging.steps_per_epoch == 0 || !(aging.liner_resistance_factor >= 1.0) {
        return Err(CoupledError::InvalidSpec {
            message: "aging needs epochs ≥ 1, steps ≥ 1, liner factor ≥ 1".to_owned(),
        });
    }
    let _span = hotwire_obs::trace::span("em.stress.aging_time");
    if !engine.converged() {
        engine.run()?;
    }
    let lines = grid_line_trees(engine)?;
    let mut solvers = Vec::with_capacity(lines.len());
    let mut maps = Vec::with_capacity(lines.len());
    for (tree, map) in &lines {
        solvers.push(KorhonenSolver::new(
            tree,
            &options.model,
            options.transient,
        )?);
        maps.push(map.clone());
    }
    let n_branches = engine.branches().len();
    let window = Seconds::new(options.horizon.value() / aging.epochs as f64);
    let mut multipliers = vec![1.0_f64; n_branches];
    let mut epochs = Vec::with_capacity(aging.epochs);
    let mut first_nucleation: Option<Seconds> = None;
    let mut first_failure: Option<Seconds> = None;
    // `advance` reports nucleation/failure times for its own window
    // only; the cumulative failed count needs a persistent flag.
    let mut has_failed = vec![false; solvers.len()];
    for epoch in 1..=aging.epochs {
        let mut nucleated = 0usize;
        let mut peak_void = 0.0_f64;
        for ((solver, map), failed_flag) in solvers.iter_mut().zip(&maps).zip(has_failed.iter_mut())
        {
            let out = solver.advance(window, aging.steps_per_epoch)?;
            if let Some(t) = out.nucleation_time {
                first_nucleation = Some(match first_nucleation {
                    Some(cur) => cur.min(t),
                    None => t,
                });
            }
            if let Some(t) = out.failure_time {
                *failed_flag = true;
                first_failure = Some(match first_failure {
                    Some(cur) => cur.min(t),
                    None => t,
                });
            }
            if out.nucleation_node.is_some() {
                nucleated += 1;
            }
            let voids = solver.segment_void_lengths();
            let segs = solver.tree().segments();
            for ((&k, v), s) in map.iter().zip(&voids).zip(segs) {
                let frac = (v.value() / s.length.value()).clamp(0.0, 1.0);
                let mult = 1.0 + (aging.liner_resistance_factor - 1.0) * frac;
                // A branch sits on one row and one column tree; the
                // larger annotation wins (only one can host the void).
                if mult > multipliers[k] {
                    multipliers[k] = mult;
                }
                peak_void = peak_void.max(v.value());
            }
        }
        // Re-converge the electro-thermal state under the aged grid.
        engine.set_branch_resistance_multipliers(&multipliers)?;
        engine.reset_convergence();
        engine.run()?;
        let peak_mult = multipliers.iter().copied().fold(1.0_f64, f64::max);
        epochs.push(EpochRecord {
            epoch,
            time: Seconds::new(window.value() * epoch as f64),
            nucleated_trees: nucleated,
            failed_trees: has_failed.iter().filter(|&&f| f).count(),
            peak_void: Length::new(peak_void),
            peak_r_multiplier: peak_mult,
            picard_iterations: engine.iterations(),
        });
        metrics::gauge("em.stress.peak_r_multiplier").set(peak_mult);
        // Feed the fresh operating point back into the stress state.
        let fresh = grid_line_trees(engine)?;
        for (solver, (tree, _)) in solvers.iter_mut().zip(&fresh) {
            let points: Vec<(CurrentDensity, Kelvin)> = tree
                .segments()
                .iter()
                .map(|s| (s.current_density, s.temperature))
                .collect();
            solver.set_operating_points(&points)?;
        }
    }
    Ok(AgingReport {
        epochs,
        first_nucleation,
        first_failure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CoupledGridSpec, CoupledOptions};

    fn converged_engine(rows: usize, cols: usize) -> CoupledEngine {
        let mut e =
            CoupledEngine::new(CoupledGridSpec::demo(rows, cols), CoupledOptions::default())
                .unwrap();
        e.run().unwrap();
        e
    }

    fn cu_options(horizon_s: f64) -> TreeEmOptions {
        TreeEmOptions::new(KorhonenModel::copper().unwrap(), Seconds::new(horizon_s))
    }

    #[test]
    fn grid_lines_cover_every_branch_once_per_direction() {
        let e = converged_engine(4, 5);
        let lines = grid_line_trees(&e).unwrap();
        assert_eq!(lines.len(), 4 + 5);
        let mut seen = vec![0usize; e.branches().len()];
        for (tree, map) in &lines {
            assert_eq!(tree.segments().len(), map.len());
            for &k in map {
                seen[k] += 1;
            }
        }
        // Every branch belongs to exactly one line tree.
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn demo_grid_trees_are_immortal_and_pass() {
        // The demo grid's straps run at ~0.0125 MA/cm² — orders below
        // any EM concern; the steady filter must retire every line.
        let e = converged_engine(4, 4);
        let report = assess_trees(&e, &cu_options(10.0 * 3.15e7)).unwrap();
        assert_eq!(report.immortal_trees, report.trees.len());
        assert!(report.passes());
        assert!(report.chip_ttf.is_none());
        for t in &report.trees {
            assert_eq!(t.verdict.governing, GoverningRule::StressImmortal);
            assert!(t.verdict.utilization < 1.0);
        }
    }

    #[test]
    fn hot_grid_goes_mortal_and_rolls_up_ttf() {
        // Crank the per-node sink so line currents clear the Blech
        // product and the transient stage produces failure times.
        let mut spec = CoupledGridSpec::demo(3, 3);
        spec.sink_per_node = hotwire_units::Current::from_milliamps(40.0);
        let mut e = CoupledEngine::new(spec, CoupledOptions::default()).unwrap();
        e.run().unwrap();
        // A horizon far beyond the diffusion time at these stresses.
        let report = assess_trees(&e, &cu_options(3.15e9)).unwrap();
        assert!(report.immortal_trees < report.trees.len());
        let mortal = report.trees.iter().find(|t| !t.immortal).unwrap();
        assert_eq!(mortal.verdict.governing, GoverningRule::StressWearout);
        assert!(mortal.outcome.is_some());
    }

    #[test]
    fn aging_back_annotates_resistance_and_keeps_engine_converged() {
        let mut spec = CoupledGridSpec::demo(3, 3);
        spec.sink_per_node = hotwire_units::Current::from_milliamps(40.0);
        let mut e = CoupledEngine::new(spec, CoupledOptions::default()).unwrap();
        e.run().unwrap();
        let mut opts = cu_options(3.15e9);
        opts.transient.resolution = 4;
        let aging = AgingOptions {
            epochs: 3,
            steps_per_epoch: 16,
            liner_resistance_factor: 10.0,
        };
        let report = age_with_tree_em(&mut e, &opts, &aging).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert!(e.converged());
        // Time advances monotonically epoch to epoch.
        for w in report.epochs.windows(2) {
            assert!(w[1].time > w[0].time);
            assert!(w[1].peak_r_multiplier >= w[0].peak_r_multiplier);
        }
    }

    #[test]
    fn steady_only_skips_transient() {
        let mut spec = CoupledGridSpec::demo(3, 3);
        spec.sink_per_node = hotwire_units::Current::from_milliamps(40.0);
        let mut e = CoupledEngine::new(spec, CoupledOptions::default()).unwrap();
        e.run().unwrap();
        let mut opts = cu_options(3.15e9);
        opts.steady_only = true;
        let report = assess_trees(&e, &opts).unwrap();
        assert!(report.trees.iter().all(|t| t.outcome.is_none()));
        assert!(report
            .trees
            .iter()
            .any(|t| !t.immortal && t.verdict.utilization >= 1.0));
    }
}
