//! Behavioural tests of the coupled fixed-point engine: the paper's
//! single-wire limit (eq. 13), the light-load limit against a full-MNA
//! transient step, initial-guess independence of the fixed point, the
//! Anderson-mixed loop's iteration count and end state, typed failure
//! modes, and parallel/serial determinism.
//!
//! `PROPTEST_CASES` sets the number of random cases of the mixing
//! property (24 by default).

use hotwire_circuit::power_grid::{PowerGrid, PowerGridSpec};
use hotwire_circuit::transient::{simulate, TransientOptions};
use hotwire_core::SelfConsistentProblem;
use hotwire_coupled::{
    coupled_signoff, CoupledEngine, CoupledError, CoupledGridSpec, CoupledOptions,
};
use hotwire_thermal::impedance::{InsulatorStack, LineGeometry};
use hotwire_units::{Area, Current, Kelvin, Length, Resistance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// Random cases per mixing property: `PROPTEST_CASES`, else 24.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// A `1 × 2` chain is a single wire fed from one pad: the chip-level
/// fixed point must land on eq. 13's self-consistent metal temperature.
///
/// Construction: the core solver gives the *allowed* `j_peak` and the
/// metal temperature `T_m` it self-heats to. Driving the chain's one
/// strap at exactly that density (sink `I = j_peak·A`) makes the Picard
/// fixed point solve the identical heating balance `T = T_ref +
/// j²·ρ(T)·κ`, because the half-segment node construction reduces the
/// chip map's node rise to exactly `j²ρκ` for a lone strap.
#[test]
fn single_wire_fixed_point_matches_eq13() {
    let spec = CoupledGridSpec {
        pads: vec![(0, 0)], // feed from one end only, so the strap carries the sink
        ..CoupledGridSpec::demo(1, 2)
    };
    let area = spec.strap_width.value() * spec.strap_thickness.value();

    let problem = SelfConsistentProblem::builder()
        .metal(spec.metal.clone())
        .line(LineGeometry::new(spec.strap_width, spec.strap_thickness, spec.pitch).unwrap())
        .stack(InsulatorStack::single(
            spec.dielectric_thickness,
            &spec.dielectric,
        ))
        .phi(spec.phi)
        .duty_cycle(1.0)
        .reference_temperature(spec.reference_temperature)
        .build()
        .unwrap();
    let eq13 = problem.solve().unwrap();

    let spec = CoupledGridSpec {
        sink_per_node: Current::new(eq13.j_peak.value() * area),
        ..spec
    };
    let options = CoupledOptions {
        tolerance: 1.0e-3,
        ..CoupledOptions::default()
    };
    let report = coupled_signoff(spec, options).unwrap();

    assert_eq!(report.branches.len(), 1);
    let strap = &report.branches[0];
    let err = (strap.temperature.value() - eq13.metal_temperature.value()).abs();
    assert!(
        err < 0.5,
        "chip fixed point {} vs eq. 13 {} (err {err:.3} K)",
        strap.temperature,
        eq13.metal_temperature
    );
    // Driven exactly at the allowed density, the strap sits at the edge
    // of its rule (utilization ≈ 1) when wearout governs; the Blech
    // floor can only relax it further.
    assert!(
        strap.verdict.utilization <= 1.0 + 1.0e-6,
        "utilization {} should not exceed 1 at the allowed density",
        strap.verdict.utilization
    );
}

/// At 0.01 mA/node the grid heats by microkelvins, so the converged
/// electrical state is the grid's DC operating point at the reference
/// resistivity. Its worst IR drop must match one 1 ns transient step
/// over the full MNA system of the same grid, a different formulation:
/// the pads are driven through voltage-source branches instead of being
/// eliminated. The engine factors its 96 (10×10) and 252 (16×16)
/// unknowns through the grid's LDLᵀ; the full-MNA step takes the general
/// LU, dense at 10×10 and sparse at 16×16.
#[test]
fn light_load_drop_matches_a_full_mna_transient_step() {
    for n in [10, 16] {
        let spec = CoupledGridSpec {
            sink_per_node: Current::from_milliamps(0.01),
            ..CoupledGridSpec::demo(n, n)
        };
        let rho = spec.metal.resistivity(spec.reference_temperature).value();
        let area = spec.strap_width.value() * spec.strap_thickness.value();
        let grid = PowerGrid::build(&PowerGridSpec {
            rows: n,
            cols: n,
            segment_resistance: Resistance::new(rho * spec.pitch.value() / area),
            strap_cross_section: Area::new(area),
            vdd: spec.vdd,
            sink_per_node: spec.sink_per_node,
            pads: spec.pads.clone(),
        })
        .unwrap();
        let step = simulate(
            grid.circuit(),
            1.0e-9,
            TransientOptions {
                dt: Some(1.0e-9),
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let last = step.times.len() - 1;
        let reference = (0..n * n)
            .map(|k| spec.vdd.value() - step.voltage_at(grid.node_id(k / n, k % n), last))
            .fold(0.0_f64, f64::max);

        let mut engine = CoupledEngine::new(spec.clone(), CoupledOptions::default()).unwrap();
        engine.run().unwrap();
        let coupled = spec.vdd.value()
            - engine
                .node_voltages()
                .iter()
                .fold(f64::INFINITY, |m, &v| m.min(v));
        let rel = (coupled - reference).abs() / reference;
        assert!(
            rel < 1.0e-9,
            "{n}x{n}: coupled drop {coupled} V vs transient {reference} V (relative {rel:.1e})"
        );
    }
}

/// The converged report is byte-identical whether the per-branch EM
/// stage fans out on rayon or runs serially.
#[test]
fn parallel_and_serial_assessments_agree() {
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(20, 20), CoupledOptions::default()).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.assess().unwrap(), engine.assess_serial().unwrap());
}

/// A hot 50×50 grid converges with violations and a finite chip TTF.
#[test]
fn dense_grid_converges_with_violations() {
    let spec = CoupledGridSpec::demo(50, 50);
    let report = coupled_signoff(spec, CoupledOptions::default()).unwrap();
    assert!(report.iterations >= 3, "strong feedback should iterate");
    assert!(!report.passes(), "the 50×50 demo is deliberately stressed");
    let violations = report.violations();
    assert!(!violations.is_empty());
    // Ranked: non-increasing utilization.
    for pair in violations.windows(2) {
        assert!(pair[0].verdict.utilization >= pair[1].verdict.utilization);
    }
    let ttf = report.chip_ttf.expect("stressed grid has mortal straps");
    assert!(ttf.value().is_finite() && ttf.value() > 0.0);
    // The chip fails no later than its weakest strap.
    let weakest = report
        .branches
        .iter()
        .filter_map(|b| b.ttf)
        .fold(f64::INFINITY, |m, t| m.min(t.value()));
    assert!(ttf.value() <= weakest);
    // Monotone convergence trace: the last delta is under tolerance.
    assert!(report.trace.records.last().unwrap().max_delta_t <= 0.05);
}

/// Anderson mixing pins the iteration count: the 100×100 demo grid
/// (corner pads, 0.2 mA per intersection) settles in at most 8
/// iterations, where the damped Picard update alone needed 23.
#[test]
fn mixing_converges_the_100x100_demo_in_at_most_8_iterations() {
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(100, 100), CoupledOptions::default()).unwrap();
    engine.run().unwrap();
    assert!(
        engine.iterations() <= 8,
        "{} iterations",
        engine.iterations()
    );
}

/// A new aging epoch lands on the fixed point of its own multipliers:
/// new resistance multipliers, `reset_convergence` and `run` land within
/// two tolerances of a fresh engine that had the multipliers from the
/// start — whether the previous epoch converged or stopped mid-run with
/// a primed mixing history.
#[test]
fn a_new_epoch_matches_a_fresh_engine_with_the_same_multipliers() {
    let spec = CoupledGridSpec::demo(30, 30);
    let options = CoupledOptions::default();
    let mut fresh = CoupledEngine::new(spec.clone(), options.clone()).unwrap();
    let multipliers: Vec<f64> = (0..fresh.branches().len())
        .map(|k| 1.0 + 0.1 * (k % 11) as f64)
        .collect();
    fresh
        .set_branch_resistance_multipliers(&multipliers)
        .unwrap();
    fresh.run().unwrap();
    for previous_epoch_steps in [None, Some(2)] {
        let mut aged = CoupledEngine::new(spec.clone(), options.clone()).unwrap();
        match previous_epoch_steps {
            None => aged.run().unwrap(),
            Some(n) => {
                for _ in 0..n {
                    aged.step().unwrap();
                }
                assert!(!aged.converged());
            }
        }
        aged.set_branch_resistance_multipliers(&multipliers)
            .unwrap();
        aged.reset_convergence();
        aged.run().unwrap();
        for (a, f) in aged
            .branch_temperatures()
            .iter()
            .zip(fresh.branch_temperatures())
        {
            assert!(
                (a - f).abs() <= 2.0 * options.tolerance,
                "after {previous_epoch_steps:?}: aged {a} K vs fresh {f} K"
            );
        }
    }
}

/// Pushing the grid hard enough that the settled state pins at the
/// metal's validity limit is a typed error naming the hottest straps,
/// not a silent clamp or a panic.
#[test]
fn runaway_heating_reports_beyond_validity_range() {
    let spec = CoupledGridSpec {
        sink_per_node: Current::from_milliamps(3.0),
        ..CoupledGridSpec::demo(50, 50)
    };
    match coupled_signoff(spec, CoupledOptions::default()) {
        Err(CoupledError::BeyondResistivityRange { limit, offending }) => {
            assert!(!offending.is_empty());
            assert!(offending[0].temperature.value() >= limit.value());
            // Hottest first.
            for pair in offending.windows(2) {
                assert!(pair[0].temperature.value() >= pair[1].temperature.value());
            }
        }
        Err(CoupledError::Diverged { .. }) => {} // also acceptable physics
        other => panic!("expected a thermal-runaway error, got {other:?}"),
    }
}

/// An unreachable tolerance under a small iteration cap is a typed
/// `NotConverged` carrying the convergence state.
#[test]
fn iteration_cap_reports_not_converged() {
    let options = CoupledOptions {
        tolerance: 1.0e-12,
        max_iterations: 3,
        ..CoupledOptions::default()
    };
    match coupled_signoff(CoupledGridSpec::demo(30, 30), options) {
        Err(CoupledError::NotConverged {
            iterations,
            last_delta,
            history,
            hottest,
        }) => {
            assert_eq!(iterations, 3);
            assert!(last_delta > 1.0e-12);
            assert!(!hottest.is_empty());
            // Regression: the error must carry the full residual
            // history, one entry per iteration, ending at last_delta,
            // every entry still above the unreachable tolerance.
            assert_eq!(history.len(), iterations);
            assert_eq!(*history.last().unwrap(), last_delta);
            assert!(history.iter().all(|&d| d > 1.0e-12));
        }
        other => panic!("expected NotConverged, got {other:?}"),
    }
}

/// Degenerate specs and options are rejected up front.
#[test]
fn invalid_specs_are_rejected() {
    let demo = CoupledGridSpec::demo(4, 4);
    let cases: Vec<CoupledGridSpec> = vec![
        CoupledGridSpec {
            rows: 1,
            cols: 1,
            pads: vec![(0, 0)],
            ..demo.clone()
        },
        CoupledGridSpec {
            pitch: um(0.0),
            ..demo.clone()
        },
        CoupledGridSpec {
            pads: vec![],
            ..demo.clone()
        },
        CoupledGridSpec {
            pads: vec![(4, 0)],
            ..demo.clone()
        },
        CoupledGridSpec {
            phi: f64::NAN,
            ..demo.clone()
        },
    ];
    for spec in cases {
        assert!(matches!(
            CoupledEngine::new(spec, CoupledOptions::default()),
            Err(CoupledError::InvalidSpec { .. })
        ));
    }
    for options in [
        CoupledOptions {
            tolerance: 0.0,
            ..CoupledOptions::default()
        },
        CoupledOptions {
            damping: 1.5,
            ..CoupledOptions::default()
        },
        CoupledOptions {
            max_iterations: 0,
            ..CoupledOptions::default()
        },
        CoupledOptions {
            failure_quantile: 1.0,
            ..CoupledOptions::default()
        },
    ] {
        assert!(matches!(
            CoupledEngine::new(demo.clone(), options),
            Err(CoupledError::InvalidSpec { .. })
        ));
    }
}

/// Asking for the EM rollup before the loop has settled is an error,
/// not a report built on a transient state.
#[test]
fn assess_requires_convergence() {
    let engine =
        CoupledEngine::new(CoupledGridSpec::demo(10, 10), CoupledOptions::default()).unwrap();
    assert!(matches!(
        engine.assess(),
        Err(CoupledError::InvalidSpec { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fixed point is a property of the grid, not of the starting
    /// guess: seeding the Picard loop at the substrate temperature and
    /// 150 K above it must settle onto the same branch-temperature
    /// field (to a few tolerances of slack).
    #[test]
    fn fixed_point_is_independent_of_initial_guess(
        rows in 2_usize..6,
        cols in 2_usize..6,
        sink_ma in 0.05_f64..0.6,
    ) {
        let spec = CoupledGridSpec {
            sink_per_node: Current::from_milliamps(sink_ma),
            ..CoupledGridSpec::demo(rows, cols)
        };
        let tolerance = 0.01;
        let cold = CoupledOptions {
            tolerance,
            ..CoupledOptions::default()
        };
        let hot = CoupledOptions {
            tolerance,
            initial_temperature: Some(Kelvin::new(
                spec.reference_temperature.value() + 150.0,
            )),
            ..cold.clone()
        };
        let mut a = CoupledEngine::new(spec.clone(), cold).unwrap();
        let mut b = CoupledEngine::new(spec, hot).unwrap();
        a.run().unwrap();
        b.run().unwrap();
        for (ta, tb) in a.branch_temperatures().iter().zip(b.branch_temperatures()) {
            prop_assert!(
                (ta - tb).abs() < 4.0 * tolerance,
                "cold start {ta} K vs hot start {tb} K"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A mixed run ends at the fixed point, not merely at the end of a
    /// short sequence: on random grids, pad sets and loads, the
    /// default-tolerance branch temperatures lie within two tolerances
    /// of a 1e-9 K run, and one more step after `run` is already under
    /// tolerance.
    #[test]
    fn mixed_runs_end_at_the_fixed_point(
        rows in 2_usize..=12,
        cols in 2_usize..=12,
        sink_ma in 0.05_f64..0.6,
        pad_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(pad_seed);
        let mut pads: Vec<(usize, usize)> = (0..rng.gen_range(1..=4_usize))
            .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols)))
            .collect();
        pads.sort_unstable();
        pads.dedup();
        let spec = CoupledGridSpec {
            sink_per_node: Current::from_milliamps(sink_ma),
            pads,
            ..CoupledGridSpec::demo(rows, cols)
        };
        let options = CoupledOptions::default();
        let tight = CoupledOptions {
            tolerance: 1.0e-9,
            ..options.clone()
        };
        let mut a = CoupledEngine::new(spec.clone(), options.clone()).unwrap();
        let mut b = CoupledEngine::new(spec, tight).unwrap();
        a.run().unwrap();
        b.run().unwrap();
        for (ta, tb) in a.branch_temperatures().iter().zip(b.branch_temperatures()) {
            prop_assert!(
                (ta - tb).abs() <= 2.0 * options.tolerance,
                "default tolerance {ta} K vs 1e-9 K run {tb} K"
            );
        }
        let extra = a.step().unwrap();
        prop_assert!(extra <= options.tolerance, "one more step moved {extra} K");
    }
}
