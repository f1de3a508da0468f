//! Per-run convergence history of the Anderson-accelerated Picard loop.
//!
//! Unlike the process-wide telemetry (`hotwire_obs`, whose span
//! capture records only while `--trace-out` asks for it), the
//! convergence trace is a **functional output**: it is always
//! recorded, rides along on [`CoupledReport`](crate::CoupledReport),
//! and backs the residual history of
//! [`CoupledError::NotConverged`](crate::CoupledError). It
//! answers the post-mortem questions the scalar report cannot: how fast
//! did the fixed point settle, did the residual stall before the cap,
//! and which stage (electrical refactor+solve vs the thermal CG solve)
//! dominated each iteration.
//!
//! The telemetry views are produced from the same record: each
//! iteration's `coupled.iteration` span closes with its
//! `max_delta_t_k`, `peak_temperature_k` and `worst_ir_drop_v`, which
//! reach the `--trace-out` span capture, the stderr log and the flight
//! recorder at once. The `coupled.residual` gauge keeps only the *last*
//! residual, but its snapshot carries the min/max envelope of every
//! write, so an oscillating loop that happens to end on a small
//! residual is still visible post-hoc.

use serde::{Deserialize, Serialize};

/// One iteration of the coupled loop, as observed from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// The loop's residual (K): the damped step size `α·max|G(T) − T|`,
    /// whatever step the Anderson mixing then took.
    pub max_delta_t: f64,
    /// Hottest branch temperature after the update (K).
    pub peak_temperature: f64,
    /// Largest supply droop of this iteration's electrical solve (V).
    pub worst_ir_drop: f64,
    /// Wall time of the restamp + DC grid solve (ms).
    pub electrical_ms: f64,
    /// Wall time of the chip thermal solve (ms).
    pub thermal_ms: f64,
    /// Wall time of the whole iteration (ms) — electrical + thermal +
    /// the mixed update. Strictly ≥ `electrical_ms + thermal_ms`, and
    /// the `coupled.run` registry timer is in turn ≥ the sum of these
    /// over a run, since its RAII span encloses the full Picard loop.
    pub total_ms: f64,
}

/// The full residual history of one [`run`](crate::CoupledEngine::run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// One record per Picard iteration, in order.
    pub records: Vec<IterationRecord>,
    /// Whether the loop settled under tolerance, inside the metal's
    /// resistivity fit.
    pub converged: bool,
    /// The convergence tolerance on max |ΔT| (K).
    pub tolerance: f64,
    /// The relaxation α of the mixed update.
    pub damping: f64,
}
