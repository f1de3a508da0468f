//! Wall-clock measurement, owned by the observability layer.
//!
//! Project invariant **HW003** (see `docs/STATIC_ANALYSIS.md`) keeps
//! `Instant::now` and `SystemTime` out of every other library crate:
//! engines that need a duration for their *data model* — the coupled
//! Picard loop's per-iteration `electrical_ms`, the sweep throughput
//! gauges — read the clock through this type instead, so the workspace
//! has a single, greppable point of contact with the system clock.

use std::time::Duration;

/// A started wall-clock stopwatch.
///
/// ```
/// let sw = hotwire_obs::Stopwatch::start();
/// let ms = sw.elapsed_ms();
/// assert!(ms >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Reads the clock and starts timing.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    /// Wall time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Wall time since [`Stopwatch::start`], in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_ms() >= b.as_secs_f64() * 1e3);
    }
}
