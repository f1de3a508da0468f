//! A log-linear (HDR-style) histogram with bounded relative error.
//!
//! The registry's wall-time timers need latency *distributions*, not
//! just count/total/min/max — one 372 ms outlier solve must be
//! distinguishable from uniformly slow iterations. This module supplies
//! the bucketing shared by the lock-free atomic histogram inside every
//! timer cell and the plain mergeable
//! [`HistogramSnapshot`] that tests and tools use directly.
//!
//! # Bucket scheme
//!
//! Values are non-negative integers (the timers record nanoseconds).
//! The first 32 buckets are exact: value `v < 32` lands in bucket `v`.
//! Above that, each power-of-two octave `[2^e, 2^(e+1))` is split into
//! 32 linear sub-buckets of width `2^(e-5)`, so a bucket's width is at
//! most `1/32` of its lower bound. Reconstruction quotes the bucket
//! midpoint, which bounds the relative quantile error by half a bucket
//! width: **`|estimate − true| / true ≤ 2⁻⁶ ≈ 1.6 %`** (the
//! conservative `1/32` bound in [`RELATIVE_ERROR_BOUND`] is what tests
//! assert against). Every `u64` is representable — there is no
//! saturating "overflow" bucket to hide a pathological outlier in.
//!
//! Counts are exact: merging per-worker histograms with
//! [`HistogramSnapshot::merge`] produces bucket counts identical to a
//! serial histogram fed the same values in any order
//! (`tests/histogram_properties.rs` proves both claims).

/// Sub-bucket resolution: each octave is split into `2^5 = 32` linear
/// sub-buckets.
pub const SUB_BUCKET_BITS: u32 = 5;

/// Sub-buckets per octave (`32`).
pub const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Total bucket count covering the full `u64` range: 32 exact buckets
/// plus 59 octaves (`e = 5 … 63`) of 32 sub-buckets each.
pub const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BUCKET_BITS as usize + 1);

/// Documented bound on the relative error of a quantile estimate
/// (`1/32`; the midpoint reconstruction actually achieves `2⁻⁶`).
pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / SUB_BUCKETS as f64;

/// The bucket index of `value`.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let e = 63 - value.leading_zeros(); // ≥ SUB_BUCKET_BITS
    let sub = ((value >> (e - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
    (e - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// The half-open value range `[lo, hi)` covered by bucket `index`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    if index < SUB_BUCKETS {
        #[allow(clippy::cast_precision_loss)]
        return (index as f64, index as f64 + 1.0);
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
    let e = (index / SUB_BUCKETS - 1) as i32 + SUB_BUCKET_BITS as i32;
    #[allow(clippy::cast_precision_loss)]
    let sub = (index % SUB_BUCKETS) as f64;
    let width = (e - SUB_BUCKET_BITS as i32).max(0); // 2^(e-5)
    let width = 2.0_f64.powi(width);
    let lo = 2.0_f64.powi(e) + sub * width;
    (lo, lo + width)
}

/// The value a bucket reports for everything it absorbed: exact for the
/// first 32 buckets, the midpoint above.
#[must_use]
pub fn bucket_value(index: usize) -> f64 {
    let (lo, hi) = bucket_bounds(index);
    if index < SUB_BUCKETS {
        lo
    } else {
        0.5 * (lo + hi)
    }
}

/// A frozen (or serially built) histogram: plain bucket counts, no
/// atomics, mergeable and feature-independent.
///
/// This is both the snapshot type produced by the registry's atomic
/// histograms and a directly usable serial histogram — call
/// [`HistogramSnapshot::record`] to build one by hand (per rayon
/// worker, say) and [`HistogramSnapshot::merge`] to combine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// Rebuilds from dense bucket counts (must be `BUCKETS` long).
    #[must_use]
    pub(crate) fn from_counts(counts: Vec<u64>) -> Self {
        debug_assert_eq!(counts.len(), BUCKETS);
        let total = counts.iter().sum();
        Self { counts, total }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
    }

    /// Adds every count of `other` into `self`. Count-exact: merging is
    /// commutative and associative, so any partition of the input
    /// stream across workers reproduces the serial histogram.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The estimated `q`-quantile (`q ∈ [0, 1]`), in the recorded unit,
    /// within [`RELATIVE_ERROR_BOUND`] of the true order statistic.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(index);
            }
        }
        unreachable!("cumulative count reaches total")
    }

    /// The midpoint of the highest occupied bucket (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0.0, bucket_value)
    }

    /// The representative of the lowest occupied bucket (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.counts
            .iter()
            .position(|&c| c > 0)
            .map_or(0.0, bucket_value)
    }
}

/// A lock-free histogram cell: one relaxed `fetch_add` per record.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    counts: Vec<crate::sync::AtomicU64>,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS)
                .map(|_| crate::sync::AtomicU64::new(0))
                .collect(),
        }
    }
}

impl AtomicHistogram {
    pub fn record(&self, value: u64) {
        // SAFETY(ordering): each bucket is an independent monotone
        // counter; `fetch_add` is atomic per cell, so no increment is
        // ever lost regardless of interleaving, and nothing reads a
        // bucket to decide a write elsewhere — there is no cross-cell
        // happens-before to establish. The loom model
        // `timer_histogram_counts_are_exact` checks the no-lost-update
        // claim under preempted schedules.
        self.counts[bucket_index(value)].fetch_add(1, crate::sync::Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        // SAFETY(ordering): relaxed per-bucket loads mean a snapshot
        // concurrent with recording may split one logical observation
        // set across buckets (count it in one bucket but miss a
        // later-indexed one). Each bucket read is still atomic and
        // monotone, so a snapshot never under-counts a bucket it has
        // already passed, and a quiescent snapshot (all recorders
        // joined) is exact — the property the loom and determinism
        // tests assert; in-flight snapshots are documented as
        // point-in-time approximations.
        HistogramSnapshot::from_counts(
            self.counts
                .iter()
                .map(|c| c.load(crate::sync::Ordering::Relaxed))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), usize::try_from(v).unwrap());
            #[allow(clippy::cast_precision_loss)]
            let expected = v as f64;
            assert_eq!(bucket_value(bucket_index(v)), expected);
        }
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        // Boundaries and interior points land in a bucket whose bounds
        // contain them, and indexes are monotone in the value.
        let mut last = 0;
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "{v} → {idx}");
            let (lo, hi) = bucket_bounds(idx);
            #[allow(clippy::cast_precision_loss)]
            let vf = v as f64;
            if v < (1 << 53) {
                assert!(lo <= vf && vf < hi, "{v} ∉ [{lo}, {hi})");
            } else {
                // v itself rounds when widened to f64 (u64::MAX/2 lands
                // exactly on its bucket's exclusive bound), so only the
                // closed bracketing is testable up here.
                assert!(lo <= vf && vf <= hi, "{v} ∉ [{lo}, {hi}]");
            }
            assert!(idx >= last, "indexes are monotone");
            last = idx;
        }
    }

    #[test]
    fn quantiles_respect_the_error_bound() {
        let mut h = HistogramSnapshot::new();
        let values: Vec<u64> = (1..=1000).map(|i| i * 977).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        for &(q, rank) in &[(0.5, 500usize), (0.9, 900), (0.99, 990)] {
            #[allow(clippy::cast_precision_loss)]
            let truth = values[rank - 1] as f64;
            let est = h.quantile(q);
            assert!(
                (est - truth).abs() / truth <= RELATIVE_ERROR_BOUND,
                "p{q}: {est} vs {truth}"
            );
        }
        #[allow(clippy::cast_precision_loss)]
        let top = values[999] as f64;
        assert!((h.max() - top).abs() / top <= RELATIVE_ERROR_BOUND);
    }

    #[test]
    fn merge_is_count_exact() {
        let mut serial = HistogramSnapshot::new();
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        for v in 0..500u64 {
            let v = v * v * 31;
            serial.record(v);
            if v % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = HistogramSnapshot::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn atomic_histogram_matches_serial() {
        let atomic = AtomicHistogram::default();
        let mut serial = HistogramSnapshot::new();
        std::thread::scope(|s| {
            for chunk in 0..4u64 {
                let atomic = &atomic;
                s.spawn(move || {
                    for i in 0..250 {
                        atomic.record((chunk * 250 + i) * 7919);
                    }
                });
            }
        });
        for v in 0..1000u64 {
            serial.record(v * 7919);
        }
        assert_eq!(atomic.snapshot(), serial);
    }
}
