//! Lognormal time-to-fail statistics.
//!
//! Black's equation predicts a *scale* for the lifetime; real EM failure
//! times of a population of lines scatter lognormally around it. The
//! paper's TTF is quoted "typically for 0.1 % cumulative failure" — i.e.
//! the early tail of that distribution, not its median. This module
//! converts between the median, arbitrary cumulative-failure quantiles
//! and instantaneous failure fractions, so a `TTF(j, T)` from
//! [`crate::BlackModel`] can be restated at any population percentile.
//!
//! The deviation σ (the lognormal shape parameter) is a measured film
//! property; values of 0.3–0.7 are typical for AlCu/Cu damascene lines.

use hotwire_units::Seconds;
use serde::{Deserialize, Serialize};

use crate::EmError;

/// A lognormal lifetime distribution: `ln(TTF) ~ N(ln(median), σ²)`.
///
/// ```
/// use hotwire_em::lifetime::LognormalLifetime;
/// use hotwire_units::Seconds;
///
/// let years = |y: f64| Seconds::new(y * 365.25 * 24.0 * 3600.0);
/// let dist = LognormalLifetime::new(years(30.0), 0.5)?;
/// // The 0.1 % early tail is far below the median:
/// let t_tail = dist.time_to_fraction(1.0e-3)?;
/// assert!(t_tail < years(10.0));
/// assert!(t_tail > years(1.0));
/// # Ok::<(), hotwire_em::EmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LognormalLifetime {
    median: Seconds,
    sigma: f64,
}

impl LognormalLifetime {
    /// Creates a distribution from its median and lognormal σ.
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] for non-positive median or σ.
    pub fn new(median: Seconds, sigma: f64) -> Result<Self, EmError> {
        if !(median.value() > 0.0) {
            return Err(EmError::InvalidParameter {
                message: format!("median lifetime must be positive, got {median}"),
            });
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(EmError::InvalidParameter {
                message: format!("lognormal sigma must be positive, got {sigma}"),
            });
        }
        Ok(Self { median, sigma })
    }

    /// Anchors the distribution so that the given cumulative failure
    /// fraction is reached exactly at `time` — the inverse of
    /// [`LognormalLifetime::time_to_fraction`]. This is how an
    /// accelerated-test "TTF at 0.1 % failures" maps onto a full
    /// population model.
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] for out-of-range inputs.
    pub fn from_quantile(time: Seconds, fraction: f64, sigma: f64) -> Result<Self, EmError> {
        if !(time.value() > 0.0) {
            return Err(EmError::InvalidParameter {
                message: "quantile time must be positive".to_owned(),
            });
        }
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(EmError::InvalidParameter {
                message: format!("fraction must be in (0, 1), got {fraction}"),
            });
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(EmError::InvalidParameter {
                message: format!("lognormal sigma must be positive, got {sigma}"),
            });
        }
        // t_f = median · exp(σ · Φ⁻¹(f))  ⇒  median = t_f · exp(−σ·Φ⁻¹(f))
        let z = inverse_normal_cdf(fraction);
        let median = Seconds::new(time.value() * (-sigma * z).exp());
        Self::new(median, sigma)
    }

    /// The median lifetime (50 % cumulative failures).
    #[must_use]
    pub fn median(&self) -> Seconds {
        self.median
    }

    /// The lognormal shape parameter σ.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The time at which the given cumulative failure fraction is
    /// reached: `t_f = median · exp(σ·Φ⁻¹(f))`.
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] unless `0 < fraction < 1`.
    pub fn time_to_fraction(&self, fraction: f64) -> Result<Seconds, EmError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(EmError::InvalidParameter {
                message: format!("fraction must be in (0, 1), got {fraction}"),
            });
        }
        let z = inverse_normal_cdf(fraction);
        Ok(Seconds::new(self.median.value() * (self.sigma * z).exp()))
    }

    /// The cumulative failure fraction at a given time:
    /// `F(t) = Φ(ln(t/median)/σ)`.
    ///
    /// Returns 0 for non-positive times.
    #[must_use]
    pub fn failure_fraction_at(&self, time: Seconds) -> f64 {
        if time.value() <= 0.0 {
            return 0.0;
        }
        let z = (time.value() / self.median.value()).ln() / self.sigma;
        normal_cdf(z)
    }

    /// Scales the whole distribution's time axis (e.g. by a Black's-law
    /// lifetime ratio or a latent-damage derating factor).
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] for a non-positive factor.
    pub fn scaled(&self, factor: f64) -> Result<Self, EmError> {
        if !(factor > 0.0) || !factor.is_finite() {
            return Err(EmError::InvalidParameter {
                message: format!("scale factor must be positive, got {factor}"),
            });
        }
        Self::new(self.median * factor, self.sigma)
    }
}

/// Weakest-link (series system) failure statistics of a population of
/// independently failing members, e.g. every mortal strap of a power
/// grid: the chip fails when its *first* member fails, so
/// `F_chip(t) = 1 − Π(1 − F_i(t))`.
///
/// ```
/// use hotwire_em::lifetime::{LognormalLifetime, WeakestLinkPopulation};
/// use hotwire_units::Seconds;
///
/// let member = LognormalLifetime::new(Seconds::new(1.0e9), 0.5)?;
/// let chip = WeakestLinkPopulation::new(vec![member; 100])?;
/// // 100 identical links fail (to a fraction) sooner than one.
/// let alone = member.time_to_fraction(1.0e-3)?;
/// let chained = chip.time_to_fraction(1.0e-3)?;
/// assert!(chained < alone);
/// # Ok::<(), hotwire_em::EmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeakestLinkPopulation {
    members: Vec<LognormalLifetime>,
}

impl WeakestLinkPopulation {
    /// Builds the series system from its members' distributions.
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] for an empty population.
    pub fn new(members: Vec<LognormalLifetime>) -> Result<Self, EmError> {
        if members.is_empty() {
            return Err(EmError::InvalidParameter {
                message: "weakest-link population needs at least one member".to_owned(),
            });
        }
        Ok(Self { members })
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always `false`: construction rejects empty populations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member distributions.
    #[must_use]
    pub fn members(&self) -> &[LognormalLifetime] {
        &self.members
    }

    /// The system's cumulative failure fraction at `time`:
    /// `1 − Π(1 − F_i)`, accumulated in log space (`ln(1−F)`) so a
    /// thousand tiny per-member fractions don't round to zero.
    #[must_use]
    pub fn failure_fraction_at(&self, time: Seconds) -> f64 {
        let log_survival: f64 = self
            .members
            .iter()
            .map(|m| (-m.failure_fraction_at(time)).ln_1p())
            .sum();
        -log_survival.exp_m1()
    }

    /// The time at which the *system* reaches a cumulative failure
    /// fraction `q`: Newton's method on `u = ln t` for the log cumulative
    /// hazard `ln H`, `H = −Σ ln(1 − Φ((u − ln median_i)/σ_i))`, which is
    /// close to linear in `u` (THEORY.md §10). It starts where every
    /// member reaches `q/n` (by the union bound the chip is then below
    /// `q`); the weakest member alone at `q` bounds the root from above,
    /// and a step that leaves the bracket bisects it instead.
    ///
    /// # Errors
    ///
    /// Returns [`EmError::InvalidParameter`] unless `0 < fraction < 1`.
    pub fn time_to_fraction(&self, fraction: f64) -> Result<Seconds, EmError> {
        self.time_to_fraction_counted(fraction).map(|(t, _)| t)
    }

    /// [`WeakestLinkPopulation::time_to_fraction`] and the population
    /// sums it took.
    fn time_to_fraction_counted(&self, fraction: f64) -> Result<(Seconds, usize), EmError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(EmError::InvalidParameter {
                message: format!("fraction must be in (0, 1), got {fraction}"),
            });
        }
        #[allow(clippy::cast_precision_loss)]
        let share = (fraction / self.members.len() as f64).max(f64::MIN_POSITIVE);
        let (z_hi, z_lo) = (inverse_normal_cdf(fraction), inverse_normal_cdf(share));
        let mut members = Vec::with_capacity(self.members.len());
        let (mut lo, mut t_hi) = (f64::INFINITY, f64::INFINITY);
        for m in &self.members {
            let (ln_median, sigma) = (m.median.value().ln(), m.sigma);
            members.push((ln_median, sigma));
            lo = lo.min(ln_median + sigma * z_lo);
            // As `LognormalLifetime::time_to_fraction` quotes it.
            t_hi = t_hi.min(m.median.value() * (sigma * z_hi).exp());
        }
        let done = |u: f64, sums| Ok((Seconds::new(u.exp().min(t_hi)), sums));
        let (mut hi, mut u) = (t_hi.ln(), lo);
        let target = (-(-fraction).ln_1p()).ln();
        for sums in 1..=200 {
            // ln(1 − F_chip) = −H and its derivative in u.
            let (s, ds) = members.iter().fold((0.0, 0.0), |(s, ds), &(a, sigma)| {
                let z = (u - a) / sigma;
                let p = normal_cdf(z);
                let density = (-0.5 * z * z).exp() / ((2.0 * std::f64::consts::PI).sqrt() * sigma);
                (s + (-p).ln_1p(), ds - density / (1.0 - p))
            });
            let excess = (-s).ln() - target;
            (lo, hi) = if excess < 0.0 { (u, hi) } else { (lo, u) };
            // d ln H/du = ds/s; a sub-tolerance step is the answer even
            // where rounding puts it a hair outside the bracket.
            let step = -excess * s / ds;
            if step.abs() <= 1e-12 {
                return done(u + step, sums);
            }
            u += step;
            if !(lo..=hi).contains(&u) {
                u = 0.5 * (lo + hi);
            }
            if hi - lo <= 1e-12 {
                return done(u, sums);
            }
        }
        done(u, 200)
    }
}

/// The weakest-link rollup of independent failure sites: each site's
/// time to the `quantile` failure fraction anchors a lognormal member of
/// spread `sigma` ([`LognormalLifetime::from_quantile`]), and the chip
/// fails with its first member. Returns the population and the chip's
/// time to the same quantile, or `None` when no site fails.
///
/// ```
/// use hotwire_em::lifetime::weakest_link_rollup;
/// use hotwire_units::Seconds;
///
/// let sites = [Seconds::new(1.0e9), Seconds::new(3.0e9)];
/// let (chip, ttf) = weakest_link_rollup(&sites, 1.0e-3, 0.5)?.expect("two sites");
/// assert_eq!(chip.len(), 2);
/// assert!(ttf < sites[0], "two links fail sooner than the weaker alone");
/// assert!(weakest_link_rollup(&[], 1.0e-3, 0.5)?.is_none());
/// # Ok::<(), hotwire_em::EmError>(())
/// ```
///
/// # Errors
///
/// As [`LognormalLifetime::from_quantile`] and
/// [`WeakestLinkPopulation::time_to_fraction`].
pub fn weakest_link_rollup(
    site_ttfs: &[Seconds],
    quantile: f64,
    sigma: f64,
) -> Result<Option<(WeakestLinkPopulation, Seconds)>, EmError> {
    if site_ttfs.is_empty() {
        return Ok(None);
    }
    let members = site_ttfs
        .iter()
        .map(|&t| LognormalLifetime::from_quantile(t, quantile, sigma))
        .collect::<Result<Vec<_>, _>>()?;
    let chip = WeakestLinkPopulation::new(members)?;
    let ttf = chip.time_to_fraction(quantile)?;
    Ok(Some((chip, ttf)))
}

/// The standard normal CDF Φ, via `erfc`:
/// `Φ(z) = erfc(−z/√2)/2`.
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// The complementary error function, by the Numerical-Recipes rational
/// Chebyshev fit (relative error < 1.2×10⁻⁷ everywhere).
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The inverse standard normal CDF Φ⁻¹ (probit), by Acklam's algorithm
/// with one Halley refinement step — accurate to ~1e-7 over (0, 1)
/// (limited by the [`erfc`] fit used in the refinement).
///
/// # Panics
///
/// Panics in debug builds when `p` is outside `(0, 1)`.
#[must_use]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "probit domain is (0, 1)");
    // Coefficients for the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement against the forward CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn years(y: f64) -> Seconds {
        Seconds::new(y * 365.25 * 24.0 * 3600.0)
    }

    #[test]
    fn probit_round_trips_cdf() {
        for &p in &[1e-4, 1e-3, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999, 0.9999] {
            let z = inverse_normal_cdf(p);
            let back = normal_cdf(z);
            assert!((back - p).abs() < 1e-6, "p = {p}: z = {z}, back = {back}");
        }
    }

    #[test]
    fn probit_known_values() {
        // accuracy is limited by the ~1.2e-7 relative error of the erfc
        // fit used in the Halley refinement
        assert!(inverse_normal_cdf(0.5).abs() < 1e-6);
        // Φ⁻¹(0.975) ≈ 1.959964
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        // Φ⁻¹(0.001) ≈ −3.090232
        assert!((inverse_normal_cdf(0.001) + 3.090_232).abs() < 1e-4);
    }

    #[test]
    fn erfc_symmetry_and_anchor() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        for &x in &[0.3, 1.0, 2.5] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-7);
        }
        // erfc(1) ≈ 0.157299
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-5);
    }

    #[test]
    fn median_is_half_failed() {
        let d = LognormalLifetime::new(years(20.0), 0.5).unwrap();
        assert!((d.failure_fraction_at(years(20.0)) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn quantile_inverse_consistency() {
        let d = LognormalLifetime::new(years(30.0), 0.45).unwrap();
        for &f in &[1e-3, 0.01, 0.1, 0.5, 0.9] {
            let t = d.time_to_fraction(f).unwrap();
            let back = d.failure_fraction_at(t);
            assert!((back - f).abs() < 1e-6, "f = {f}: back = {back}");
        }
    }

    #[test]
    fn from_quantile_anchors_the_tail() {
        // "10-year lifetime at 0.1 % cumulative failures" (the paper's goal
        // form) with σ = 0.5: the median must be well above 10 years.
        let d = LognormalLifetime::from_quantile(years(10.0), 1.0e-3, 0.5).unwrap();
        let t = d.time_to_fraction(1.0e-3).unwrap();
        assert!((t.value() - years(10.0).value()).abs() / t.value() < 1e-9);
        assert!(
            d.median() > years(40.0),
            "median = {} y",
            d.median().value() / years(1.0).value()
        );
    }

    #[test]
    fn tighter_sigma_means_tail_closer_to_median() {
        let wide = LognormalLifetime::from_quantile(years(10.0), 1e-3, 0.7).unwrap();
        let tight = LognormalLifetime::from_quantile(years(10.0), 1e-3, 0.3).unwrap();
        assert!(tight.median() < wide.median());
    }

    #[test]
    fn scaled_shifts_time_axis() {
        let d = LognormalLifetime::new(years(20.0), 0.5).unwrap();
        let derated = d.scaled(0.3).unwrap(); // latent-damage factor
        assert!((derated.median().value() - 0.3 * d.median().value()).abs() < 1.0);
        // fractions at scaled times match
        let f1 = d.failure_fraction_at(years(5.0));
        let f2 = derated.failure_fraction_at(years(1.5));
        assert!((f1 - f2).abs() < 1e-9);
        assert!(d.scaled(0.0).is_err());
    }

    #[test]
    fn validation() {
        assert!(LognormalLifetime::new(Seconds::new(0.0), 0.5).is_err());
        assert!(LognormalLifetime::new(years(1.0), 0.0).is_err());
        assert!(LognormalLifetime::from_quantile(years(1.0), 0.0, 0.5).is_err());
        assert!(LognormalLifetime::from_quantile(years(1.0), 1.0, 0.5).is_err());
        let d = LognormalLifetime::new(years(1.0), 0.5).unwrap();
        assert!(d.time_to_fraction(0.0).is_err());
        assert_eq!(d.failure_fraction_at(Seconds::new(-1.0)), 0.0);
    }

    #[test]
    fn failure_fraction_monotone_in_time() {
        let d = LognormalLifetime::new(years(10.0), 0.6).unwrap();
        let mut prev = 0.0;
        for y in 1..40 {
            let f = d.failure_fraction_at(years(f64::from(y)));
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn weakest_link_single_member_is_identity() {
        let m = LognormalLifetime::new(years(25.0), 0.5).unwrap();
        let pop = WeakestLinkPopulation::new(vec![m]).unwrap();
        for f in [1e-4, 1e-3, 0.1, 0.5] {
            let alone = m.time_to_fraction(f).unwrap().value();
            let sys = pop.time_to_fraction(f).unwrap().value();
            assert!(
                (alone - sys).abs() < 1e-6 * alone,
                "f={f}: {alone} vs {sys}"
            );
        }
    }

    #[test]
    fn weakest_link_identical_members_follow_survival_product() {
        // n identical members: F_sys(t) = 1 − (1 − F(t))ⁿ exactly.
        let m = LognormalLifetime::new(years(25.0), 0.5).unwrap();
        let n = 64;
        let pop = WeakestLinkPopulation::new(vec![m; n]).unwrap();
        let t = years(10.0);
        let f1 = m.failure_fraction_at(t);
        let want = 1.0 - (1.0 - f1).powi(n as i32);
        let got = pop.failure_fraction_at(t);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        // And the quantile inverts the CDF.
        let tq = pop.time_to_fraction(want).unwrap();
        assert!((tq.value() - t.value()).abs() < 1e-6 * t.value());
    }

    #[test]
    fn weakest_link_dominated_by_weakest_member() {
        let strong = LognormalLifetime::new(years(1000.0), 0.4).unwrap();
        let weak = LognormalLifetime::new(years(5.0), 0.4).unwrap();
        let mut members = vec![strong; 50];
        members.push(weak);
        let pop = WeakestLinkPopulation::new(members).unwrap();
        let sys = pop.time_to_fraction(1e-3).unwrap();
        let weak_alone = weak.time_to_fraction(1e-3).unwrap();
        // The system tracks the weak member closely (strong ones barely
        // contribute) but fails no later than it.
        assert!(sys <= weak_alone);
        assert!(sys.value() > 0.9 * weak_alone.value());
    }

    /// One member: the chip quantile is the member's closed form
    /// `median·e^{σ·Φ⁻¹(q)}`.
    #[test]
    fn weakest_link_quantile_of_one_member_is_its_closed_form() {
        for sigma in [0.1, 0.5, 1.5] {
            for q in [1e-6, 1e-3, 0.1, 0.5] {
                let m = LognormalLifetime::new(years(25.0), sigma).unwrap();
                let pop = WeakestLinkPopulation::new(vec![m]).unwrap();
                let (got, sums) = pop.time_to_fraction_counted(q).unwrap();
                let want = m.median().value() * (sigma * inverse_normal_cdf(q)).exp();
                let rel = (got.value() - want).abs() / want;
                assert!(rel < 1e-12, "σ {sigma}, q {q}: {} vs {want}", got.value());
                assert!(sums <= 12, "σ {sigma}, q {q}: {sums} sums");
            }
        }
    }

    /// n identical members: the chip reaches `q` where each member
    /// reaches `F = 1 − (1 − q)^{1/n}`.
    #[test]
    fn weakest_link_quantile_of_identical_members_is_closed_form() {
        for n in [2, 64, 10_000] {
            for q in [1e-6, 1e-3, 0.5] {
                let m = LognormalLifetime::new(years(25.0), 0.5).unwrap();
                let pop = WeakestLinkPopulation::new(vec![m; n]).unwrap();
                let (got, sums) = pop.time_to_fraction_counted(q).unwrap();
                #[allow(clippy::cast_precision_loss)]
                let per_member = -((-q).ln_1p() / n as f64).exp_m1();
                let want = m.time_to_fraction(per_member).unwrap().value();
                let rel = (got.value() - want).abs() / want;
                assert!(rel < 1e-12, "n {n}, q {q}: {} vs {want}", got.value());
                assert!(sums <= 12, "n {n}, q {q}: {sums} sums");
            }
        }
    }

    proptest::proptest! {
        /// On mixed populations the returned time inverts the chip CDF
        /// to 1e-10, within 12 population sums.
        #[test]
        fn weakest_link_quantile_inverts_the_chip_cdf(
            n in 1_usize..=10_000,
            log_q in -6.0_f64..=0.5_f64.log10(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let members = (0..n)
                .map(|_| {
                    let median = Seconds::new(10f64.powf(rng.gen_range(6.0..12.0)));
                    LognormalLifetime::new(median, rng.gen_range(0.1..=1.5)).unwrap()
                })
                .collect();
            let pop = WeakestLinkPopulation::new(members).unwrap();
            let q = 10f64.powf(log_q);
            let (t, sums) = pop.time_to_fraction_counted(q).unwrap();
            let f = pop.failure_fraction_at(t);
            proptest::prop_assert!((f - q).abs() <= 1e-10 * q, "F(t̂) = {f} for q = {q}");
            proptest::prop_assert!(sums <= 12, "{sums} population sums for n = {n}, q = {q}");
        }
    }

    #[test]
    fn weakest_link_validation() {
        assert!(WeakestLinkPopulation::new(vec![]).is_err());
        let m = LognormalLifetime::new(years(1.0), 0.5).unwrap();
        let pop = WeakestLinkPopulation::new(vec![m]).unwrap();
        assert!(pop.time_to_fraction(0.0).is_err());
        assert!(pop.time_to_fraction(1.0).is_err());
        assert_eq!(pop.len(), 1);
        assert!(!pop.is_empty());
    }
}
