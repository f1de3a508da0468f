//! A process-global, rayon-safe metrics registry.
//!
//! Three metric kinds cover what the solver stack needs:
//!
//! * **Counters** — monotone event counts (`solver.factor`,
//!   `sweep.points`). Atomic `fetch_add`, so totals are identical no
//!   matter how a rayon fan-out interleaves — the determinism tests
//!   compare serial and parallel snapshots for equality.
//! * **Gauges** — last-written values (`solver.sparse.fill_nnz`,
//!   `sweep.points_per_sec`) that also track the min/max ever written,
//!   so an oscillating quantity (the Picard residual, say) is visible
//!   post-hoc even though only the final value survives. Not
//!   deterministic under parallelism by nature; use for descriptive,
//!   not asserted, quantities.
//! * **Timers** — wall-time accumulators (count / total / min / max)
//!   fed by [`Timer::observe`], which every closing
//!   [`crate::trace::span`] calls on the timer of its name. Every
//!   observation also lands in a lock-free log-linear histogram
//!   ([`crate::histogram`]), so snapshots carry p50/p90/p99 within a
//!   documented relative-error bound. Counts are deterministic;
//!   durations obviously are not.
//!
//! Handles are cheap clones of `Arc`ed atomic cells; look one up once
//! (`metrics::counter("name")` takes a short registry lock) and record
//! lock-free afterwards. [`snapshot`] freezes the registry into a
//! [`MetricsSnapshot`] that serializes through [`crate::json`] (the
//! workspace serde is a no-op shim), and [`reset`] clears it — tests
//! bracket measured regions with `reset()` … `snapshot()`.

use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::histogram::AtomicHistogram;
use crate::json::Json;
use crate::sync::{AtomicU64, Ordering};

/// Timer accumulator cell (nanosecond resolution) plus the
/// log-linear distribution of every observation.
#[derive(Debug)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: AtomicHistogram,
}

impl Default for TimerCell {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            // fetch_min seed: the first observation always wins.
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            hist: AtomicHistogram::default(),
        }
    }
}

/// Gauge cell: last-write value plus running min/max over every
/// write (`sets == 0` means never written).
///
/// min/max use an order-preserving bijection from `f64` to `u64`
/// ([`ordered_bits`]) so `fetch_min`/`fetch_max` work lock-free.
#[derive(Debug)]
struct GaugeCell {
    value: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    sets: AtomicU64,
}

impl Default for GaugeCell {
    fn default() -> Self {
        Self {
            value: AtomicU64::new(0.0_f64.to_bits()),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(u64::MIN),
            sets: AtomicU64::new(0),
        }
    }
}

/// Maps `f64` onto `u64` preserving the total order of finite
/// values (the standard sign-flip trick), so atomic integer
/// min/max implement float min/max.
fn ordered_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`ordered_bits`].
fn from_ordered_bits(bits: u64) -> f64 {
    f64::from_bits(if bits >> 63 == 1 {
        bits & !(1 << 63)
    } else {
        !bits
    })
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<GaugeCell>>>,
    timers: Mutex<BTreeMap<&'static str, Arc<TimerCell>>>,
}

static REGISTRY: LazyLock<Registry> = LazyLock::new(Registry::default);

/// Bumped by every [`reset`], after the maps are cleared: a handle
/// cached at an older generation points at a cell the registry forgot.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The registry generation: it changes exactly when [`reset`] empties
/// the registry, so a cache of handles (the span close's per-thread
/// timer cache in [`crate::trace`]) keyed on it never feeds a forgotten
/// cell after it has seen the reset.
pub(crate) fn generation() -> u64 {
    // SAFETY(ordering): Acquire pairs with the Release bump in `reset`,
    // so a thread that reads the new generation also sees the cleared
    // maps when it re-interns. A stale read is the race every handle
    // already has with `reset` (documented there): the observation
    // lands in the forgotten cell, as on a handle looked up just
    // before the reset.
    GENERATION.load(Ordering::Acquire)
}

/// Locks a registry map, recovering from poisoning: the maps hold
/// plain `Arc`s, so a panic mid-insert cannot leave them in a state
/// worse than missing one entry, and telemetry must never take the
/// process down with it.
fn lock_map<'a, T>(
    map: &'a Mutex<BTreeMap<&'static str, Arc<T>>>,
) -> MutexGuard<'a, BTreeMap<&'static str, Arc<T>>> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

fn intern<T: Default>(map: &Mutex<BTreeMap<&'static str, Arc<T>>>, name: &'static str) -> Arc<T> {
    Arc::clone(lock_map(map).entry(name).or_default())
}

// SAFETY(ordering): every cell in this registry is an independent
// statistic (count, total, min, max, bucket) mutated only through
// RMW operations, and readers (`snapshot`) tolerate tearing
// *between* cells — a snapshot taken mid-update may pair a count
// with a slightly older total, which the schema documents as a
// point-in-time approximation. No cell's value is used to publish
// another memory location, so no acquire/release edge is needed;
// the loom models in tests/loom.rs stress exactness of the totals
// and monotonicity of concurrent snapshots.
const RELAXED: Ordering = Ordering::Relaxed;

/// A monotone event counter.
///
/// Increments are atomic and order-independent, so totals are
/// deterministic under rayon fan-outs.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, RELAXED);
    }
}

/// A last-value-wins gauge that also tracks the min/max ever written.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Stores `value` (last write wins) and folds it into the running
    /// min/max, so an oscillating series leaves a visible envelope.
    pub fn set(&self, value: f64) {
        self.cell.value.store(value.to_bits(), RELAXED);
        let ordered = ordered_bits(value);
        self.cell.min.fetch_min(ordered, RELAXED);
        self.cell.max.fetch_max(ordered, RELAXED);
        self.cell.sets.fetch_add(1, RELAXED);
    }
}

/// A wall-time accumulator (count / total / min / max).
#[derive(Debug, Clone)]
pub struct Timer {
    cell: Arc<TimerCell>,
}

impl Timer {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.cell.count.fetch_add(1, RELAXED);
        self.cell.total_ns.fetch_add(ns, RELAXED);
        self.cell.min_ns.fetch_min(ns, RELAXED);
        self.cell.max_ns.fetch_max(ns, RELAXED);
        self.cell.hist.record(ns);
    }
}

/// Looks up (or registers) the counter `name`.
#[must_use]
pub fn counter(name: &'static str) -> Counter {
    Counter {
        cell: intern(&REGISTRY.counters, name),
    }
}

/// Looks up (or registers) the gauge `name`.
#[must_use]
pub fn gauge(name: &'static str) -> Gauge {
    Gauge {
        cell: intern(&REGISTRY.gauges, name),
    }
}

/// Looks up (or registers) the timer `name`.
#[must_use]
pub fn timer(name: &'static str) -> Timer {
    Timer {
        cell: intern(&REGISTRY.timers, name),
    }
}

/// Frozen statistics of one timer.
///
/// The quantiles come from the timer's log-linear histogram
/// ([`crate::histogram`]) and are accurate to within its documented
/// relative-error bound (`1/32`), not exact order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerStats {
    /// Observations recorded.
    pub count: u64,
    /// Summed wall time, milliseconds.
    pub total_ms: f64,
    /// Shortest observation, milliseconds (0 when `count == 0`).
    pub min_ms: f64,
    /// Longest observation, milliseconds (0 when `count == 0`).
    pub max_ms: f64,
    /// Median observation, milliseconds (histogram estimate).
    pub p50_ms: f64,
    /// 90th-percentile observation, milliseconds (histogram estimate).
    pub p90_ms: f64,
    /// 99th-percentile observation, milliseconds (histogram estimate).
    pub p99_ms: f64,
}

/// Frozen statistics of one gauge: the last value written plus the
/// envelope of every write, so an oscillating series (`coupled.residual`
/// bouncing between iterations, say) cannot hide behind its final value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStats {
    /// The last value written.
    pub value: f64,
    /// Smallest value ever written (`value` when written once, 0 when
    /// never written).
    pub min: f64,
    /// Largest value ever written (same conventions as `min`).
    pub max: f64,
}

impl GaugeStats {
    /// Stats of a gauge written exactly once (min = max = value).
    #[must_use]
    pub fn single(value: f64) -> Self {
        Self {
            value,
            min: value,
            max: value,
        }
    }
}

/// A point-in-time copy of the whole registry.
///
/// Serializes to the schema documented in `docs/OBSERVABILITY.md`,
/// whose `"telemetry": true` is a constant older readers expect (parsing
/// ignores it):
///
/// ```json
/// {
///   "telemetry": true,
///   "counters": {"solver.factor": 1},
///   "gauges": {"solver.sparse.fill_nnz": {"value": 1234.0, "min": 980.0, "max": 1234.0}},
///   "timers": {"grid_dc.solve_time": {"count": 5, "total_ms": 1.2, "min_ms": 0.1,
///              "max_ms": 0.9, "p50_ms": 0.2, "p90_ms": 0.8, "p99_ms": 0.9}}
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge statistics (last value + min/max envelope) by name.
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Timer statistics by name.
    pub timers: BTreeMap<String, TimerStats>,
}

impl MetricsSnapshot {
    /// Shorthand counter lookup (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serializes to a [`Json`] object (names sorted, schema above).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, g)| {
                (
                    k.clone(),
                    Json::object([
                        ("value", Json::from(g.value)),
                        ("min", Json::from(g.min)),
                        ("max", Json::from(g.max)),
                    ]),
                )
            })
            .collect();
        let timers = self
            .timers
            .iter()
            .map(|(k, t)| {
                (
                    k.clone(),
                    Json::object([
                        ("count", Json::from(t.count)),
                        ("total_ms", Json::from(t.total_ms)),
                        ("min_ms", Json::from(t.min_ms)),
                        ("max_ms", Json::from(t.max_ms)),
                        ("p50_ms", Json::from(t.p50_ms)),
                        ("p90_ms", Json::from(t.p90_ms)),
                        ("p99_ms", Json::from(t.p99_ms)),
                    ]),
                )
            })
            .collect();
        Json::object([
            ("telemetry", Json::Bool(true)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("timers", Json::Obj(timers)),
        ])
    }

    /// Rebuilds a snapshot from [`MetricsSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let obj = |key: &str| -> Result<&[(String, Json)], String> {
            v.get(key)
                .and_then(Json::as_object)
                .ok_or(format!("missing object `{key}`"))
        };
        let mut counters = BTreeMap::new();
        for (k, val) in obj("counters")? {
            counters.insert(
                k.clone(),
                val.as_u64().ok_or(format!("counter `{k}` not a count"))?,
            );
        }
        let mut gauges = BTreeMap::new();
        for (k, val) in obj("gauges")? {
            let field = |f: &str| -> Result<f64, String> {
                val.get(f)
                    .and_then(Json::as_f64)
                    .ok_or(format!("gauge `{k}` missing `{f}`"))
            };
            gauges.insert(
                k.clone(),
                GaugeStats {
                    value: field("value")?,
                    min: field("min")?,
                    max: field("max")?,
                },
            );
        }
        let mut timers = BTreeMap::new();
        for (k, val) in obj("timers")? {
            let field = |f: &str| -> Result<f64, String> {
                val.get(f)
                    .and_then(Json::as_f64)
                    .ok_or(format!("timer `{k}` missing `{f}`"))
            };
            timers.insert(
                k.clone(),
                TimerStats {
                    count: val
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or(format!("timer `{k}` missing `count`"))?,
                    total_ms: field("total_ms")?,
                    min_ms: field("min_ms")?,
                    max_ms: field("max_ms")?,
                    p50_ms: field("p50_ms")?,
                    p90_ms: field("p90_ms")?,
                    p99_ms: field("p99_ms")?,
                },
            );
        }
        Ok(Self {
            counters,
            gauges,
            timers,
        })
    }
}

/// Copies the registry into a [`MetricsSnapshot`].
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    const NS_PER_MS: f64 = 1.0e6;
    #[allow(clippy::cast_precision_loss)]
    let ms = |ns: u64| ns as f64 / NS_PER_MS;
    let counters = lock_map(&REGISTRY.counters)
        .iter()
        .map(|(&k, v)| (k.to_owned(), v.load(RELAXED)))
        .collect();
    let gauges = lock_map(&REGISTRY.gauges)
        .iter()
        .map(|(&k, g)| {
            let value = f64::from_bits(g.value.load(RELAXED));
            let stats = if g.sets.load(RELAXED) == 0 {
                GaugeStats {
                    value,
                    min: 0.0,
                    max: 0.0,
                }
            } else {
                GaugeStats {
                    value,
                    min: from_ordered_bits(g.min.load(RELAXED)),
                    max: from_ordered_bits(g.max.load(RELAXED)),
                }
            };
            (k.to_owned(), stats)
        })
        .collect();
    let timers = lock_map(&REGISTRY.timers)
        .iter()
        .map(|(&k, t)| {
            let count = t.count.load(RELAXED);
            let hist = t.hist.snapshot();
            (
                k.to_owned(),
                TimerStats {
                    count,
                    total_ms: ms(t.total_ns.load(RELAXED)),
                    min_ms: if count == 0 {
                        0.0
                    } else {
                        ms(t.min_ns.load(RELAXED))
                    },
                    max_ms: ms(t.max_ns.load(RELAXED)),
                    p50_ms: hist.quantile(0.5) / NS_PER_MS,
                    p90_ms: hist.quantile(0.9) / NS_PER_MS,
                    p99_ms: hist.quantile(0.99) / NS_PER_MS,
                },
            )
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        timers,
    }
}

/// Empties the registry (counters, gauges, and timers all forgotten).
///
/// Handles interned before a reset keep recording into cells that are
/// no longer in the registry; re-intern after resetting. Intended for
/// tests and for bracketing a measured region in a benchmark binary.
pub fn reset() {
    lock_map(&REGISTRY.counters).clear();
    lock_map(&REGISTRY.gauges).clear();
    lock_map(&REGISTRY.timers).clear();
    // SAFETY(ordering): Release publishes the cleared maps to every
    // thread that Acquire-reads the new generation (`generation`).
    GENERATION.fetch_add(1, Ordering::Release);
}

/// The registry is process-global; every test touching it serializes on
/// this lock (shared with the `trace` module's tests).
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::lock;
    use super::*;

    #[test]
    fn snapshot_json_round_trips() {
        let _guard = lock();
        reset();
        counter("t.counter").add(7);
        gauge("t.gauge").set(-2.5e-3);
        timer("t.timer").observe(Duration::from_micros(1500));
        let snap = snapshot();
        let text = snap.to_json().to_pretty_string();
        let back = MetricsSnapshot::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(snap, back);
        reset();
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        for text in [
            "{}",
            r#"{"telemetry": true, "counters": {}, "gauges": {}}"#,
            r#"{"telemetry": true, "counters": {"a": -1}, "gauges": {}, "timers": {}}"#,
            r#"{"telemetry": true, "counters": {}, "gauges": {}, "timers": {"t": {}}}"#,
            r#"{"telemetry": true, "counters": {}, "gauges": {"g": 4.5}, "timers": {}}"#,
            r#"{"telemetry": true, "counters": {}, "gauges": {},
                "timers": {"t": {"count": 1, "total_ms": 2.0, "min_ms": 2.0, "max_ms": 2.0}}}"#,
        ] {
            let v = crate::json::parse(text).unwrap();
            assert!(MetricsSnapshot::from_json(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn counters_sum_across_threads() {
        let _guard = lock();
        reset();
        let c = counter("t.parallel");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(snapshot().counter("t.parallel"), 4000);
        reset();
    }

    #[test]
    fn timer_stats_accumulate() {
        let _guard = lock();
        reset();
        let t = timer("t.accum");
        t.observe(Duration::from_millis(2));
        t.observe(Duration::from_millis(6));
        t.observe(Duration::from_micros(5));
        let stats = snapshot().timers["t.accum"];
        assert_eq!(stats.count, 3);
        assert!(stats.total_ms >= 8.0);
        assert!(stats.min_ms <= 2.0 && stats.max_ms >= 6.0);
        assert!(stats.min_ms <= stats.max_ms);
        // Histogram quantiles are monotone and bracketed by min/max
        // (up to the documented 1/32 relative error).
        let slack = 1.0 + crate::histogram::RELATIVE_ERROR_BOUND;
        assert!(stats.p50_ms <= stats.p90_ms && stats.p90_ms <= stats.p99_ms);
        assert!(stats.p99_ms <= stats.max_ms * slack, "{stats:?}");
        assert!(stats.p50_ms * slack >= stats.min_ms, "{stats:?}");
        reset();
    }

    #[test]
    fn gauges_track_their_envelope() {
        let _guard = lock();
        reset();
        let g = gauge("t.envelope");
        for v in [3.0, -2.5, 10.0, 0.5] {
            g.set(v);
        }
        let stats = snapshot().gauges["t.envelope"];
        assert_eq!(stats.value, 0.5, "last write wins");
        assert_eq!(stats.min, -2.5, "the dip is not forgotten");
        assert_eq!(stats.max, 10.0, "nor the spike");
        reset();
    }
}
