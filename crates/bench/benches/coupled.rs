//! Criterion benchmarks for the coupled EM–IR–thermal fixed point and
//! the tree-EM stress stage — including the telemetry-overhead check
//! promised in `docs/OBSERVABILITY.md`.
//!
//! ```text
//! cargo bench -p hotwire-bench --bench coupled
//! cargo bench -p hotwire-bench --bench coupled -- telemetry_call
//! ```
//!
//! `telemetry_call` times one call of each recording primitive outside
//! a capture: a span open plus close, a `counter(..).inc()` and a
//! `Timer::observe`. Those per-call costs times the calls per
//! `coupled_step` and per `assess` bound what the always-on counters,
//! timers and spans cost the hot loop (acceptance bar: < 2% of
//! `coupled_step/100`).
//!
//! `coupled_step_traced` reruns the same hot loop under a live span
//! capture (record + drain per step) — compare against `coupled_step`
//! at the same size to read the full `--trace-out` cost against its 5%
//! budget. No check enforces that budget; the benchmark's
//! `trace_overhead_pct` reports the same cost on whole `coupled-picard`
//! CLI runs.
//!
//! `chip_thermal` times the chip thermal map alone, built and solved the
//! way one coupled run uses it, across grid sizes and strap pitches.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hotwire_coupled::{CoupledEngine, CoupledGridSpec, CoupledOptions};
use hotwire_em_tree::model::KorhonenModel;
use hotwire_em_tree::steady::steady_state;
use hotwire_em_tree::transient::{KorhonenSolver, TransientOptions};
use hotwire_em_tree::tree::{InterconnectTree, TreeSegment};
use hotwire_obs::{metrics, spantree, trace};
use hotwire_thermal::chip::ChipThermalModel;
use hotwire_thermal::impedance::{effective_width, InsulatorStack};
use hotwire_units::{CurrentDensity, Kelvin, Length, Seconds};

fn engine(n: usize) -> CoupledEngine {
    CoupledEngine::new(CoupledGridSpec::demo(n, n), CoupledOptions::default())
        .expect("valid demo spec")
}

/// One call of each recording primitive, outside a capture: a span
/// open plus close (its thread-local push and pop, the timer lookup and
/// observation), a counter lookup plus increment, and one observation
/// on a held timer handle.
fn bench_telemetry_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_call");
    group.sample_size(20);
    group.bench_function("span", |b| b.iter(|| drop(trace::span("bench.span"))));
    group.bench_function("counter_inc", |b| {
        b.iter(|| metrics::counter("bench.counter").inc());
    });
    let timer = metrics::timer("bench.timer");
    group.bench_function("timer_observe", |b| {
        b.iter(|| timer.observe(black_box(Duration::from_nanos(1500))));
    });
    group.finish();
}

/// One Picard iteration at the converged operating point: restamp +
/// refactor + grid solve + thermal update. This is the hot loop the
/// instrumentation rides on, so it is the telemetry-overhead vehicle.
fn bench_coupled_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupled_step");
    group.sample_size(10);
    for n in [50usize, 100] {
        let mut eng = engine(n);
        eng.run().expect("demo grid converges");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(eng.step().expect("step at fixed point")));
        });
    }
    group.finish();
}

/// The hot loop again, but with span capture live: each iteration
/// records the full `coupled.*`/`solver.*`/`thermal.*` span tree and
/// drains it, so the delta over `coupled_step` is the whole tracing
/// bill — begin/end timestamps, buffer pushes, and the drain.
fn bench_coupled_step_traced(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupled_step_traced");
    group.sample_size(10);
    for n in [50usize, 100] {
        let mut eng = engine(n);
        eng.run().expect("demo grid converges");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                spantree::capture_start();
                let step = eng.step().expect("step at fixed point");
                black_box(spantree::capture_take());
                black_box(step)
            });
        });
    }
    group.finish();
}

/// Full cold run to convergence plus the EM assessment — what one
/// `hotwire coupled-signoff` invocation pays.
fn bench_coupled_signoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupled_signoff");
    group.sample_size(10);
    group.bench_function("50x50", |b| {
        b.iter(|| {
            let mut eng = engine(50);
            eng.run().expect("demo grid converges");
            black_box(eng.assess().expect("assessment succeeds"))
        });
    });
    group.finish();
}

/// `ChipThermalModel::new` plus the 14 solves of a Picard run, on the
/// demo stack at 100 µm pitch (20×20, 100×100, 300×300) and at 10 µm
/// and 3 µm pitch (100×100), where the lateral-to-vertical conductance
/// ratio is 100× and about 1 100× larger. The power map is fixed, up to
/// 0.1 mW per node; solve k scales it by 1 + 2⁻ᵏ, so the map settles
/// the way a converging run's does, and each solve starts from the
/// previous field as `CoupledEngine::step` does.
fn bench_chip_thermal(c: &mut Criterion) {
    let mut group = c.benchmark_group("chip_thermal");
    group.sample_size(10);
    for (n, pitch_um) in [
        (20usize, 100.0),
        (100, 100.0),
        (300, 100.0),
        (100, 10.0),
        (100, 3.0),
    ] {
        // The engine's conductances for the demo stack at this pitch.
        let spec = CoupledGridSpec {
            pitch: Length::from_micrometers(pitch_um),
            ..CoupledGridSpec::demo(n, n)
        };
        let pitch = spec.pitch.value();
        let area = spec.strap_width.value() * spec.strap_thickness.value();
        let srt = InsulatorStack::single(spec.dielectric_thickness, &spec.dielectric)
            .series_resistance_thickness();
        let w_eff = effective_width(spec.strap_width, spec.dielectric_thickness, spec.phi);
        let g_lateral = spec.metal.thermal_conductivity().value() * area / pitch;
        let g_half = w_eff.value() * 0.5 * pitch / srt;
        let power: Vec<f64> = (0..n * n)
            .map(|k| 1e-6 * ((k * 7919) % 101) as f64)
            .collect();
        let id = BenchmarkId::new(format!("{n}x{n}"), format!("{pitch_um}um"));
        group.bench_function(id, |b| {
            b.iter(|| {
                let chip = ChipThermalModel::new(n, n, g_lateral, g_half).unwrap();
                let (mut scaled, mut rise) = (vec![0.0; n * n], Vec::new());
                for k in 0..14 {
                    let s = 1.0 + 0.5f64.powi(k);
                    for (q, &p) in scaled.iter_mut().zip(&power) {
                        *q = s * p;
                    }
                    chip.solve_into(&scaled, &mut rise).unwrap();
                }
                black_box(rise)
            });
        });
    }
    group.finish();
}

/// A seeded supply tree shaped like the `tree-em` benchmark decks': each
/// new node extends the previous one with probability 0.7 and otherwise
/// branches off a random earlier node, segments are 5–15 µm long, and
/// every leaf plus one inner node in ten draws a 150 µA tap, so each
/// segment carries the taps below it (0.5 × 0.5 µm Cu at 110 °C).
fn junction_tree(segments: usize) -> InterconnectTree {
    // SplitMix64, seeded: the same tree on every machine.
    let mut state = 0x5EED_u64;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    };
    let mut parent = vec![0usize; segments + 1];
    let mut length = vec![0.0; segments + 1];
    let mut leaf = vec![true; segments + 1];
    for i in 1..=segments {
        parent[i] = if unit() < 0.7 {
            i - 1
        } else {
            (unit() * i as f64) as usize
        };
        leaf[parent[i]] = false;
        length[i] = 5.0 + 10.0 * unit();
    }
    let mut amps = vec![0.0; segments + 1];
    for i in 1..=segments {
        if leaf[i] || unit() < 0.1 {
            amps[i] = 150.0e-6;
        }
    }
    for i in (1..=segments).rev() {
        amps[parent[i]] += amps[i];
    }
    let area = 0.5e-6 * 0.5e-6;
    let tree_segments = (1..=segments)
        .map(|i| TreeSegment {
            from: parent[i],
            to: i,
            length: Length::from_micrometers(length[i]),
            width: Length::from_micrometers(0.5),
            thickness: Length::from_micrometers(0.5),
            current_density: CurrentDensity::new(amps[i] / area),
            temperature: Kelvin::new(383.15),
        })
        .collect();
    InterconnectTree::new("bench_junction", segments + 1, tree_segments).expect("valid bench tree")
}

/// The tree-EM stress stage on straight Cu lines of 100, 1 000 and
/// 10 000 segments (10 µm each, 0.5 MA/cm² at 110 °C: mortal, so the
/// filter runs its full recurrence and extrema scan) and on one
/// 400-segment [`junction_tree`]. `steady_state` is the linear-time
/// immortality filter, so its time divided by the segment count must
/// stay flat across the line sizes. `transient_32_steps` builds a fresh
/// solver on the tree's FV mesh (8 cells per segment) and advances one
/// implicit window: one leaves-to-root elimination, 32 steps.
fn bench_em_tree_line(c: &mut Criterion) {
    let model = KorhonenModel::copper().expect("built-in copper model");
    let options = TransientOptions::for_horizon(Seconds::new(1.0e7));
    let mut group = c.benchmark_group("em_tree_line");
    group.sample_size(10);
    let mut trees: Vec<(String, InterconnectTree)> = [100usize, 1_000, 10_000]
        .into_iter()
        .map(|n| {
            let line = InterconnectTree::straight_line(
                "bench",
                n,
                Length::from_micrometers(10.0),
                Length::from_micrometers(0.5),
                Length::from_micrometers(0.5),
                CurrentDensity::from_mega_amps_per_cm2(0.5),
                Kelvin::new(383.15),
            );
            (n.to_string(), line.expect("valid bench line"))
        })
        .collect();
    trees.push(("junction_400".to_owned(), junction_tree(400)));
    for (label, tree) in &trees {
        group.bench_with_input(BenchmarkId::new("steady_state", label), tree, |b, tree| {
            b.iter(|| black_box(steady_state(tree, &model).unwrap().max_tensile));
        });
        group.bench_with_input(
            BenchmarkId::new("transient_32_steps", label),
            tree,
            |b, tree| {
                b.iter(|| {
                    let mut solver = KorhonenSolver::new(tree, &model, options).unwrap();
                    black_box(solver.advance(Seconds::new(1.0e5), 32).unwrap())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_telemetry_call,
    bench_coupled_step,
    bench_coupled_step_traced,
    bench_coupled_signoff,
    bench_chip_thermal,
    bench_em_tree_line
);
criterion_main!(benches);
