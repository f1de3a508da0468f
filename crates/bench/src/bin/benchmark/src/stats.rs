//! Order statistics for timing samples: median, quartiles, MAD, and the
//! tail rule — report the highest percentile that has at least ten
//! samples beyond it, together with the sample count.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed over many runs. A single
/// sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = n + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let mid = median(xs);
    let deviations: Vec<f64> = xs.iter().map(|x| (x - mid).abs()).collect();
    median(&deviations)
}

/// A tail percentile that the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// The number of samples it was taken from.
    pub n: usize,
}

/// Candidate percentiles in per mille, highest first.
const LADDER_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of the ladder (p99.9, p99, p95, p90, p75,
/// p50) with at least ten samples beyond it, or `None` when even the
/// median lacks them (fewer than 20 samples). p99 needs 1000 samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let per_mille = LADDER_PER_MILLE
        .into_iter()
        .find(|&pm| n * (1000 - pm) >= 10 * 1000)?;
    let v = sorted(xs);
    let rank = (n * per_mille).div_ceil(1000).max(1);
    Some(Tail {
        percentile: per_mille as f64 / 10.0,
        value: v[rank - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.n, 999);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 50.0);
    }
}
