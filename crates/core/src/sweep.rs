//! Parameter sweeps over the self-consistent solution — the generators
//! behind the paper's Fig. 2 (duty-cycle sweep) and Fig. 3 (j₀ sweep).
//!
//! Every sweep point is an independent fixed-point solve, so the sweeps
//! fan out across threads (`rayon`). Results are collected **in input
//! order** and each point's arithmetic is untouched, so parallel output
//! is bit-identical to the serial variants kept alongside
//! ([`duty_cycle_sweep_serial`]) — verified by the determinism tests in
//! `tests/parallel_determinism.rs`.

use hotwire_obs::metrics;
use hotwire_obs::trace as obs_trace;
use hotwire_units::CurrentDensity;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::{CoreError, SelfConsistentProblem, SelfConsistentSolution};

/// One point of a duty-cycle sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The duty cycle of this point.
    pub duty_cycle: f64,
    /// The self-consistent solution.
    pub solution: SelfConsistentSolution,
    /// The EM-only reference `j₀/r` (Fig. 2's upper dotted line: what a
    /// design ignoring self-heating would allow).
    pub em_only_peak: CurrentDensity,
}

impl SweepPoint {
    /// The self-heating penalty `j_peak(self-consistent)/j_peak(EM only)`
    /// ∈ (0, 1] — monotonically decreasing in `1/r` per the paper.
    #[must_use]
    pub fn peak_penalty(&self) -> f64 {
        self.solution.j_peak / self.em_only_peak
    }
}

fn solve_point(
    problem: &SelfConsistentProblem,
    r: f64,
    ctx: obs_trace::TraceContext,
) -> Result<SweepPoint, CoreError> {
    // Counter and span live here, in the path shared by the serial and
    // parallel sweeps, so `sweep.points` and the `sweep.point_time`
    // count are identical however the fan-out is scheduled. Adopting
    // the batch context parents this point's span under the enclosing
    // `sweep.batch_time` span even on a rayon worker.
    let _ctx = ctx.adopt();
    metrics::counter("sweep.points").inc();
    let _t = obs_trace::span("sweep.point_time");
    let p = problem.with_duty_cycle(r)?;
    Ok(SweepPoint {
        duty_cycle: r,
        solution: p.solve()?,
        em_only_peak: p.em_only_peak(),
    })
}

/// Times one sweep fan-out (the `sweep.batch_time` span) and publishes
/// throughput gauges (`sweep.points_per_sec`, `sweep.workers`,
/// `sweep.utilization`). The batch's [`obs_trace::TraceContext`] is
/// handed to `f` so the per-point spans parent under the batch span
/// across the rayon fan-out.
fn with_batch_metrics<T>(
    points: usize,
    parallel: bool,
    f: impl FnOnce(obs_trace::TraceContext) -> T,
) -> T {
    let busy_before_ms = metrics::snapshot()
        .timers
        .get("sweep.point_time")
        .map_or(0.0, |t| t.total_ms);
    let batch_span = obs_trace::span("sweep.batch_time");
    let ctx = obs_trace::context();
    let start = hotwire_obs::Stopwatch::start();
    let out = f(ctx);
    let wall = start.elapsed();
    drop(batch_span);
    let busy_s = (metrics::snapshot()
        .timers
        .get("sweep.point_time")
        .map_or(0.0, |t| t.total_ms)
        - busy_before_ms)
        / 1e3;
    let workers = if parallel {
        rayon::current_num_threads().max(1)
    } else {
        1
    };
    #[allow(clippy::cast_precision_loss)]
    let workers_f = workers as f64;
    metrics::gauge("sweep.workers").set(workers_f);
    let wall_s = wall.as_secs_f64();
    if wall_s > 0.0 {
        #[allow(clippy::cast_precision_loss)]
        metrics::gauge("sweep.points_per_sec").set(points as f64 / wall_s);
        metrics::gauge("sweep.utilization").set((busy_s / (wall_s * workers_f)).clamp(0.0, 1.0));
    }
    out
}

/// Solves the problem across a set of duty cycles (Fig. 2), one thread
/// per point; results come back in input order, bit-identical to
/// [`duty_cycle_sweep_serial`].
///
/// # Errors
///
/// Propagates solver errors ([`CoreError::MeltLimited`] etc.) and
/// [`CoreError::InvalidDutyCycle`] for out-of-range entries.
pub fn duty_cycle_sweep(
    problem: &SelfConsistentProblem,
    duty_cycles: &[f64],
) -> Result<Vec<SweepPoint>, CoreError> {
    with_batch_metrics(duty_cycles.len(), true, |ctx| {
        duty_cycles
            .par_iter()
            .map(|&r| solve_point(problem, r, ctx))
            .collect()
    })
}

/// The single-threaded reference implementation of [`duty_cycle_sweep`],
/// kept public so determinism tests (and debugging sessions) can compare
/// against the parallel path.
///
/// # Errors
///
/// Identical to [`duty_cycle_sweep`].
pub fn duty_cycle_sweep_serial(
    problem: &SelfConsistentProblem,
    duty_cycles: &[f64],
) -> Result<Vec<SweepPoint>, CoreError> {
    with_batch_metrics(duty_cycles.len(), false, |ctx| {
        duty_cycles
            .iter()
            .map(|&r| solve_point(problem, r, ctx))
            .collect()
    })
}

/// Logarithmically spaced duty cycles over `[lo, hi]` — the paper's
/// Fig. 2/3 x-axis (10⁻⁴ … 1).
///
/// # Panics
///
/// Panics in debug builds when `points < 2` or the bounds are
/// non-positive/reversed.
#[must_use]
pub fn log_spaced(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    debug_assert!(points >= 2);
    debug_assert!(lo > 0.0 && hi > lo);
    let l0 = lo.ln();
    let l1 = hi.ln();
    #[allow(clippy::cast_precision_loss)]
    (0..points)
        .map(|i| (l0 + (l1 - l0) * (i as f64) / (points as f64 - 1.0)).exp())
        .collect()
}

/// One series of a j₀ sweep: the duty-cycle sweep at a given design-rule
/// density (Fig. 3 plots several of these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct J0Series {
    /// The design-rule density of this series.
    pub j0: CurrentDensity,
    /// The duty-cycle sweep at this j₀.
    pub points: Vec<SweepPoint>,
}

/// Sweeps both j₀ and the duty cycle (Fig. 3). The full j₀ × r product
/// is flattened into one parallel fan-out (rather than parallelizing
/// only the inner sweep), then regrouped per series in input order.
///
/// # Errors
///
/// Propagates solver errors.
pub fn j0_sweep(
    problem: &SelfConsistentProblem,
    j0_values: &[CurrentDensity],
    duty_cycles: &[f64],
) -> Result<Vec<J0Series>, CoreError> {
    let cells: Vec<(CurrentDensity, f64)> = j0_values
        .iter()
        .flat_map(|&j0| duty_cycles.iter().map(move |&r| (j0, r)))
        .collect();
    let solved: Vec<SweepPoint> = with_batch_metrics(cells.len(), true, |ctx| {
        cells
            .par_iter()
            .map(|&(j0, r)| solve_point(&problem.with_design_rule_j0(j0), r, ctx))
            .collect::<Result<_, CoreError>>()
    })?;
    let mut solved = solved.into_iter();
    Ok(j0_values
        .iter()
        .map(|&j0| J0Series {
            j0,
            points: solved.by_ref().take(duty_cycles.len()).collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_tech::{Dielectric, Metal};
    use hotwire_thermal::impedance::{InsulatorStack, LineGeometry, QUASI_1D_PHI};
    use hotwire_units::Length;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn fig2_problem() -> SelfConsistentProblem {
        SelfConsistentProblem::builder()
            .metal(Metal::copper().with_design_rule_j0(CurrentDensity::from_amps_per_cm2(6.0e5)))
            .line(LineGeometry::new(um(3.0), um(0.5), um(1000.0)).unwrap())
            .stack(InsulatorStack::single(um(3.0), &Dielectric::oxide()))
            .phi(QUASI_1D_PHI)
            .duty_cycle(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn log_spacing_endpoints_and_monotone() {
        let rs = log_spaced(1e-4, 1.0, 9);
        assert_eq!(rs.len(), 9);
        assert!((rs[0] - 1e-4).abs() < 1e-12);
        assert!((rs[8] - 1.0).abs() < 1e-12);
        for w in rs.windows(2) {
            assert!(w[1] > w[0]);
        }
        // log-uniform: constant ratio
        let ratio = rs[1] / rs[0];
        for w in rs.windows(2) {
            assert!((w[1] / w[0] - ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn fig2_shape_penalty_decreases_with_duty_cycle() {
        let rs = log_spaced(1e-4, 1.0, 13);
        let points = duty_cycle_sweep(&fig2_problem(), &rs).unwrap();
        // The penalty j_peak,sc/j_peak,EM-only decreases monotonically as r
        // decreases (paper's second observation on Fig. 2).
        for w in points.windows(2) {
            assert!(
                w[0].peak_penalty() <= w[1].peak_penalty() + 1e-9,
                "penalty must shrink with r: {} then {}",
                w[0].peak_penalty(),
                w[1].peak_penalty()
            );
        }
        // And equals ~1 at r = 1 (no self-heating at j₀).
        let last = points.last().unwrap();
        assert!((last.peak_penalty() - 1.0).abs() < 0.02);
    }

    #[test]
    fn fig3_shape_j0_becomes_ineffective_at_small_r() {
        // "j₀ becomes increasingly ineffective in increasing j_peak as the
        // duty cycle r decreases."
        let j0s = [
            CurrentDensity::from_amps_per_cm2(6.0e5),
            CurrentDensity::from_amps_per_cm2(1.8e6),
        ];
        let rs = [1e-4, 1e-1];
        let series = j0_sweep(&fig2_problem(), &j0s, &rs).unwrap();
        let gain_small_r = series[1].points[0].solution.j_peak.value()
            / series[0].points[0].solution.j_peak.value();
        let gain_large_r = series[1].points[1].solution.j_peak.value()
            / series[0].points[1].solution.j_peak.value();
        assert!(
            gain_small_r < gain_large_r,
            "3× j₀ must buy less at r = 1e-4 ({gain_small_r:.2}×) than at r = 0.1 ({gain_large_r:.2}×)"
        );
        // Temperatures increase with j₀ everywhere.
        for (a, b) in series[0].points.iter().zip(&series[1].points) {
            assert!(b.solution.metal_temperature > a.solution.metal_temperature);
        }
    }

    #[test]
    fn sweep_propagates_bad_duty_cycle() {
        assert!(duty_cycle_sweep(&fig2_problem(), &[0.1, -1.0]).is_err());
    }
}
