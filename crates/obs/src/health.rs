//! Numerical-health assessment: convergence-rate fitting, the health
//! summary, and the `health.*` metric catalog.
//!
//! The solver stack can fail in ways a residual history alone cannot
//! explain — a near-singular MNA matrix, pivot growth eating the
//! factorization's accuracy, a Picard loop that is oscillating rather
//! than contracting. This module holds the *math* of diagnosing those
//! failures; the instrumented crates (`hotwire-circuit`,
//! `hotwire-coupled`) call it and publish the results through the
//! metrics registry under the names in [`names`], and the coupled
//! engine attaches a [`HealthReport`] to every report and diagnostic
//! bundle (see [`crate::recorder`]).
//!
//! Everything here is pure arithmetic over numbers the solvers hand
//! in. The condition number itself is computed where the factorization
//! lives, by `hotwire_circuit::grid_dc::DcGridSolver`.

use crate::json::Json;

/// Early classification of a fixed-point iteration from its residual
/// (`delta`) history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvergenceClass {
    /// Deltas are contracting; the loop should reach tolerance.
    Converging,
    /// Deltas are flat — neither contracting nor growing. Raising the
    /// iteration cap will not help; the fixed point is out of reach at
    /// this damping/tolerance.
    Stagnated,
    /// Deltas alternate between growth and shrinkage around a flat
    /// trend — the classic overshooting signature; lower the damping.
    Oscillating,
    /// Deltas are growing; the iteration is moving away from the fixed
    /// point.
    Diverging,
    /// Not enough history to say (fewer than three deltas).
    Unknown,
}

impl ConvergenceClass {
    /// Stable lower-case label used in JSON, metrics, and `doctor`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Converging => "converging",
            Self::Stagnated => "stagnated",
            Self::Oscillating => "oscillating",
            Self::Diverging => "diverging",
            Self::Unknown => "unknown",
        }
    }

    /// Parses [`ConvergenceClass::label`] output (`None` otherwise).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "converging" => Some(Self::Converging),
            "stagnated" => Some(Self::Stagnated),
            "oscillating" => Some(Self::Oscillating),
            "diverging" => Some(Self::Diverging),
            "unknown" => Some(Self::Unknown),
            _ => None,
        }
    }
}

/// Fitted convergence-rate diagnosis of a Picard (fixed-point) loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PicardHealth {
    /// Fitted per-iteration contraction factor: the geometric mean of
    /// consecutive delta ratios over the recent window. `< 1` is
    /// contracting, `≈ 1` stagnating, `> 1` growing; `0` when fewer
    /// than two deltas exist.
    pub contraction: f64,
    /// Iterations still needed to bring the last delta under tolerance
    /// at the fitted rate; `None` unless the loop is classified
    /// [`ConvergenceClass::Converging`] and is not there yet.
    pub predicted_iterations: Option<u64>,
    /// The early classification.
    pub class: ConvergenceClass,
}

/// Window of recent deltas the rate fit looks at; the start of a
/// Picard transient is deliberately forgotten.
const RATE_WINDOW: usize = 8;

/// Fits a contraction factor to a delta history and classifies the
/// iteration (see [`ConvergenceClass`]).
///
/// `deltas` is the per-iteration residual sequence (most recent last),
/// `tolerance` the loop's convergence threshold in the same units.
/// Non-positive deltas are treated as converged-scale noise.
#[must_use]
pub fn picard_rate(deltas: &[f64], tolerance: f64) -> PicardHealth {
    let window = &deltas[deltas.len().saturating_sub(RATE_WINDOW)..];
    let ratios: Vec<f64> = window
        .windows(2)
        .filter(|w| w[0] > 0.0 && w[1] > 0.0)
        .map(|w| w[1] / w[0])
        .collect();
    let last = window.last().copied().unwrap_or(0.0);
    if ratios.is_empty() {
        let class = if last > 0.0 && last <= tolerance {
            ConvergenceClass::Converging
        } else {
            ConvergenceClass::Unknown
        };
        return PicardHealth {
            contraction: 0.0,
            predicted_iterations: None,
            class,
        };
    }
    #[allow(clippy::cast_precision_loss)]
    let contraction = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    if last <= tolerance {
        return PicardHealth {
            contraction,
            predicted_iterations: None,
            class: ConvergenceClass::Converging,
        };
    }
    if ratios.len() < 2 {
        return PicardHealth {
            contraction,
            predicted_iterations: None,
            class: ConvergenceClass::Unknown,
        };
    }
    // Oscillation: the log-ratios keep changing sign (grow, shrink,
    // grow, …) while the overall trend is roughly flat.
    let flips = ratios
        .windows(2)
        .filter(|w| (w[0] > 1.0) != (w[1] > 1.0))
        .count();
    let class =
        if ratios.iter().rev().take(3).filter(|&&r| r > 1.0).count() == 3 || contraction > 1.2 {
            ConvergenceClass::Diverging
        } else if flips + 1 >= ratios.len() && (0.8..=1.25).contains(&contraction) {
            ConvergenceClass::Oscillating
        } else if (0.95..=1.05).contains(&contraction) {
            ConvergenceClass::Stagnated
        } else if contraction < 1.0 {
            ConvergenceClass::Converging
        } else {
            ConvergenceClass::Diverging
        };
    let predicted_iterations = if class == ConvergenceClass::Converging && contraction > 0.0 {
        let n = (tolerance / last).ln() / contraction.ln();
        if n.is_finite() && n > 0.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(n.ceil().min(1e12) as u64)
        } else {
            None
        }
    } else {
        None
    };
    PicardHealth {
        contraction,
        predicted_iterations,
        class,
    }
}

/// A self-contained numerical-health summary: what the monitors saw
/// during one solver run.
///
/// Attached to `CoupledReport`, embedded in diagnostic bundles
/// ([`crate::recorder::bundle`]), and rendered by `hotwire doctor`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Fixed-point rate diagnosis.
    pub picard: PicardHealth,
    /// Iterations the loop actually ran.
    pub iterations: u64,
    /// Final delta (residual) of the loop, kelvin for the coupled
    /// engine.
    pub last_delta: f64,
    /// The convergence threshold the loop was aiming for.
    pub tolerance: f64,
    /// Condition number κ₁ = κ∞ of the electrical matrix behind the
    /// reported voltages, exact to rounding (the grid stamp is a
    /// symmetric M-matrix, so one solve A·y = 1 gives ‖A⁻¹‖∞ = max y);
    /// `None` when no unknown was factored. The historical name is kept
    /// as the bundle key.
    pub condition_estimate: Option<f64>,
    /// Worst post-solve relative residual ‖Ax−b‖∞/‖b‖∞ observed.
    pub residual_rel: Option<f64>,
    /// KCL current-conservation audit: worst per-node current
    /// imbalance relative to the total load current.
    pub kcl_imbalance_rel: Option<f64>,
}

impl HealthReport {
    /// Serializes to the bundle schema documented in
    /// `docs/OBSERVABILITY.md`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        Json::object([
            ("class", Json::from(self.picard.class.label())),
            ("contraction", Json::from(self.picard.contraction)),
            (
                "predicted_iterations",
                self.picard
                    .predicted_iterations
                    .map_or(Json::Null, Json::from),
            ),
            ("iterations", Json::from(self.iterations)),
            ("last_delta", Json::from(self.last_delta)),
            ("tolerance", Json::from(self.tolerance)),
            ("condition_estimate", opt(self.condition_estimate)),
            ("residual_rel", opt(self.residual_rel)),
            ("kcl_imbalance_rel", opt(self.kcl_imbalance_rel)),
        ])
    }

    /// Rebuilds a report from [`HealthReport::to_json`] output. Keys it
    /// does not know are ignored, so bundles that still carry the
    /// retired `pivot_growth` read as before.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let class = v
            .get("class")
            .and_then(Json::as_str)
            .and_then(ConvergenceClass::from_label)
            .ok_or("missing or unknown `class`")?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number `{key}`"))
        };
        let opt = |key: &str| v.get(key).and_then(Json::as_f64);
        Ok(Self {
            picard: PicardHealth {
                contraction: num("contraction")?,
                predicted_iterations: v.get("predicted_iterations").and_then(Json::as_u64),
                class,
            },
            iterations: v
                .get("iterations")
                .and_then(Json::as_u64)
                .ok_or("missing count `iterations`")?,
            last_delta: num("last_delta")?,
            tolerance: num("tolerance")?,
            condition_estimate: opt("condition_estimate"),
            residual_rel: opt("residual_rel"),
            kcl_imbalance_rel: opt("kcl_imbalance_rel"),
        })
    }
}

/// Registry names of the `health.*` metric family (catalog in
/// `docs/OBSERVABILITY.md`). Centralized so the instrumented crates,
/// the CI schema assertions, and the docs cannot drift apart.
pub mod names {
    /// Gauge: condition number κ₁ of the electrical matrix, one solve
    /// with its factorization.
    pub const COND_EST: &str = "health.cond_est";
    /// Counter: condition numbers computed (one per health report).
    pub const COND_SAMPLES: &str = "health.cond_samples";
    /// Gauge: last post-solve relative residual ‖Ax−b‖∞/‖b‖∞.
    pub const RESIDUAL_REL: &str = "health.residual_rel";
    /// Counter: residual checks that exceeded the warn threshold.
    pub const RESIDUAL_WARN: &str = "health.residual_warn";
    /// Gauge: KCL audit — worst node imbalance / total load current.
    pub const KCL_IMBALANCE_REL: &str = "health.kcl_imbalance_rel";
    /// Counter: KCL audits that exceeded the warn threshold.
    pub const KCL_WARN: &str = "health.kcl_warn";
    /// Gauge: LU pivot growth max|U|/max|A| of the last sparse-LU
    /// factorization of a general MNA system.
    pub const PIVOT_GROWTH: &str = "health.pivot_growth";
    /// Gauge: smallest |LDLᵀ pivot| of the last DC-grid factorization.
    pub const CHOL_MIN_PIVOT: &str = "health.chol_min_pivot";
    /// Gauge: fitted Picard contraction factor.
    pub const PICARD_CONTRACTION: &str = "health.picard.contraction";
    /// Gauge: predicted iterations-to-converge at the fitted rate.
    pub const PICARD_PREDICTED: &str = "health.picard.predicted_iters";
    /// Counter: iterations classified stagnated.
    pub const PICARD_STAGNATED: &str = "health.picard.stagnated";
    /// Counter: iterations classified oscillating.
    pub const PICARD_OSCILLATING: &str = "health.picard.oscillating";
    /// Counter: iterations classified diverging.
    pub const PICARD_DIVERGING: &str = "health.picard.diverging";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_decay_is_converging_with_a_rate() {
        let deltas: Vec<f64> = (0..10).map(|i| 8.0 * 0.5_f64.powi(i)).collect();
        let h = picard_rate(&deltas, 1e-6);
        assert_eq!(h.class, ConvergenceClass::Converging);
        assert!((h.contraction - 0.5).abs() < 1e-9);
        // last delta 8·0.5⁹ ≈ 1.56e-2; (ln(1e-6/1.56e-2))/ln(0.5) ≈ 13.9.
        assert_eq!(h.predicted_iterations, Some(14));
    }

    #[test]
    fn flat_history_is_stagnated() {
        let deltas = vec![0.5, 0.505, 0.495, 0.5, 0.501, 0.499];
        let h = picard_rate(&deltas, 1e-6);
        assert!(
            matches!(
                h.class,
                ConvergenceClass::Stagnated | ConvergenceClass::Oscillating
            ),
            "{h:?}"
        );
        assert!(h.predicted_iterations.is_none());
    }

    #[test]
    fn growth_is_diverging() {
        let deltas: Vec<f64> = (0..8).map(|i| 0.1 * 1.9_f64.powi(i)).collect();
        let h = picard_rate(&deltas, 1e-6);
        assert_eq!(h.class, ConvergenceClass::Diverging);
        assert!(h.contraction > 1.5);
    }

    #[test]
    fn alternating_growth_is_oscillating() {
        let mut deltas = Vec::new();
        let mut d = 1.0;
        for i in 0..10 {
            d *= if i % 2 == 0 { 1.6 } else { 0.65 };
            deltas.push(d);
        }
        let h = picard_rate(&deltas, 1e-6);
        assert_eq!(h.class, ConvergenceClass::Oscillating, "{h:?}");
    }

    #[test]
    fn short_history_is_unknown_and_converged_is_converging() {
        assert_eq!(picard_rate(&[], 1e-6).class, ConvergenceClass::Unknown);
        assert_eq!(picard_rate(&[0.5], 1e-6).class, ConvergenceClass::Unknown);
        let h = picard_rate(&[0.5, 1e-9], 1e-6);
        assert_eq!(h.class, ConvergenceClass::Converging);
    }

    #[test]
    fn health_report_round_trips_through_json() {
        let report = HealthReport {
            picard: PicardHealth {
                contraction: 0.42,
                predicted_iterations: Some(7),
                class: ConvergenceClass::Converging,
            },
            iterations: 12,
            last_delta: 3.2e-4,
            tolerance: 1e-4,
            condition_estimate: Some(1.8e6),
            residual_rel: Some(4.4e-13),
            kcl_imbalance_rel: None,
        };
        let text = report.to_json().to_pretty_string();
        let back = HealthReport::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn class_labels_round_trip() {
        for class in [
            ConvergenceClass::Converging,
            ConvergenceClass::Stagnated,
            ConvergenceClass::Oscillating,
            ConvergenceClass::Diverging,
            ConvergenceClass::Unknown,
        ] {
            assert_eq!(ConvergenceClass::from_label(class.label()), Some(class));
        }
        assert_eq!(ConvergenceClass::from_label("nope"), None);
    }
}
