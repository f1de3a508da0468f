//! Cross-crate observability invariants: the metrics registry must
//! report identical counters whether work ran serially or across the
//! rayon pool (the determinism contract of `docs/OBSERVABILITY.md`),
//! and a snapshot must survive the JSON round trip byte-exactly.
//!
//! The registry is process-global, so every test here serializes on one
//! mutex and resets the registry before measuring.

use std::sync::{Mutex, MutexGuard};

use hotwire::core::sweep::{duty_cycle_sweep, duty_cycle_sweep_serial, log_spaced};
use hotwire::core::SelfConsistentProblem;
use hotwire::coupled::{CoupledEngine, CoupledGridSpec, CoupledOptions};
use hotwire::obs::metrics::{self, MetricsSnapshot};
use hotwire::obs::{recorder, spantree, FlightEvent, SpanRecord};
use hotwire::tech::{Dielectric, Metal};
use hotwire::thermal::impedance::{InsulatorStack, LineGeometry, QUASI_1D_PHI};
use hotwire::units::{CurrentDensity, Length};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn sweep_problem() -> SelfConsistentProblem {
    SelfConsistentProblem::builder()
        .metal(Metal::copper().with_design_rule_j0(CurrentDensity::from_amps_per_cm2(6.0e5)))
        .line(
            LineGeometry::new(
                Length::from_micrometers(3.0),
                Length::from_micrometers(0.5),
                Length::from_micrometers(1000.0),
            )
            .unwrap(),
        )
        .stack(InsulatorStack::single(
            Length::from_micrometers(3.0),
            &Dielectric::oxide(),
        ))
        .phi(QUASI_1D_PHI)
        .duty_cycle(0.1)
        .build()
        .unwrap()
}

/// `sweep.points` (and every other counter) must not depend on how the
/// fan-out was scheduled: the counters live in the per-point path shared
/// by both variants, and atomic increments commute.
#[test]
fn sweep_counters_match_between_serial_and_parallel() {
    let _guard = registry_lock();
    let problem = sweep_problem();
    let rs = log_spaced(1.0e-4, 1.0, 9);

    metrics::reset();
    let serial_points = duty_cycle_sweep_serial(&problem, &rs).unwrap();
    let serial = metrics::snapshot();

    metrics::reset();
    let parallel_points = duty_cycle_sweep(&problem, &rs).unwrap();
    let parallel = metrics::snapshot();

    assert_eq!(serial_points, parallel_points, "results are bit-identical");
    assert_eq!(
        serial.counters, parallel.counters,
        "counters are schedule-independent"
    );
    // Timer *counts* are deterministic too; durations of course differ.
    let timer_counts = |s: &MetricsSnapshot| -> Vec<(String, u64)> {
        s.timers.iter().map(|(k, t)| (k.clone(), t.count)).collect()
    };
    assert_eq!(timer_counts(&serial), timer_counts(&parallel));
    assert_eq!(serial.counter("sweep.points"), rs.len() as u64);
}

/// The captured span tree must be schedule-independent too: the same
/// sweep records the same span-name multiset whether the points ran on
/// the rayon pool or serially, and every `sweep.point_time` span hangs
/// off the `sweep.batch_time` span that spawned it (on workers via the
/// adopted `TraceContext`, serially via the thread-local stack).
#[test]
fn sweep_span_multisets_match_between_serial_and_parallel() {
    let _guard = registry_lock();
    let problem = sweep_problem();
    let rs = log_spaced(1.0e-4, 1.0, 9);
    fn names(t: &hotwire::obs::SpanTrace) -> Vec<&str> {
        let mut v: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        v.sort_unstable();
        v
    }

    hotwire::obs::spantree::capture_start();
    duty_cycle_sweep_serial(&problem, &rs).unwrap();
    let serial = hotwire::obs::spantree::capture_take();

    hotwire::obs::spantree::capture_start();
    duty_cycle_sweep(&problem, &rs).unwrap();
    let parallel = hotwire::obs::spantree::capture_take();

    assert_eq!(
        names(&serial),
        names(&parallel),
        "span-name multisets are schedule-independent"
    );
    for trace in [&serial, &parallel] {
        let batch = trace
            .spans
            .iter()
            .find(|s| s.name == "sweep.batch_time")
            .expect("one batch span");
        let points: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "sweep.point_time")
            .collect();
        assert_eq!(points.len(), rs.len(), "one span per sweep point");
        for p in &points {
            assert_eq!(
                p.parent,
                Some(batch.id),
                "point spans attach to the batch span on any thread"
            );
        }
    }
    // The parallel run used worker threads, so at least one point span
    // must carry a different tid than the batch span — unless rayon
    // collapsed to one thread (single-core runner), which is legal.
    let batch_tid = parallel
        .spans
        .iter()
        .find(|s| s.name == "sweep.batch_time")
        .unwrap()
        .tid;
    let cross_thread = parallel
        .spans
        .iter()
        .filter(|s| s.name == "sweep.point_time")
        .any(|s| s.tid != batch_tid);
    if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1 {
        assert!(
            cross_thread,
            "a multi-core rayon sweep records worker-thread spans"
        );
    }
}

/// The per-strap EM counters increment inside the fan-out closure, so
/// `assess()` and `assess_serial()` must agree on mortal/immortal totals.
#[test]
fn coupled_assess_counters_match_between_serial_and_parallel() {
    let _guard = registry_lock();
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(12, 12), CoupledOptions::default()).unwrap();
    engine.run().unwrap();

    metrics::reset();
    let parallel_report = engine.assess().unwrap();
    let parallel = metrics::snapshot();

    metrics::reset();
    let serial_report = engine.assess_serial().unwrap();
    let serial = metrics::snapshot();

    assert_eq!(parallel_report, serial_report, "reports are bit-identical");
    assert_eq!(serial.counters, parallel.counters);
    let straps = engine.branches().len() as u64;
    assert_eq!(
        serial.counter("coupled.em.mortal_straps") + serial.counter("coupled.em.immortal_straps"),
        straps,
        "every strap is classified exactly once"
    );
}

/// A populated snapshot must survive snapshot → JSON → text → JSON →
/// snapshot without losing a counter, gauge bit-pattern, or timer stat.
#[test]
fn snapshot_round_trips_through_json() {
    let _guard = registry_lock();
    metrics::reset();
    metrics::counter("roundtrip.events").add(42);
    metrics::gauge("roundtrip.level").set(0.1 + 0.2); // not representable "nicely"
    metrics::timer("roundtrip.stage").observe(std::time::Duration::from_micros(1_234));
    metrics::timer("roundtrip.stage").observe(std::time::Duration::from_micros(17));
    let snapshot = metrics::snapshot();

    let text = snapshot.to_json().to_pretty_string();
    let reparsed = hotwire::obs::json::parse(&text).expect("pretty output parses");
    let restored = MetricsSnapshot::from_json(&reparsed).expect("schema round-trips");
    assert_eq!(snapshot, restored);

    // Compact rendering round-trips identically.
    let compact = hotwire::obs::json::parse(&snapshot.to_json().to_string()).unwrap();
    assert_eq!(MetricsSnapshot::from_json(&compact).unwrap(), snapshot);

    assert_eq!(
        reparsed
            .get("telemetry")
            .and_then(hotwire::obs::json::Json::as_bool),
        Some(true),
        "the writer keeps the constant key older readers expect"
    );
    assert_eq!(restored.counter("roundtrip.events"), 42);
    let stage = restored.timers["roundtrip.stage"];
    assert_eq!(stage.count, 2);
    // The histogram quantiles survive the trip and are ordered.
    assert!(stage.p50_ms > 0.0, "{stage:?}");
    assert!(stage.p50_ms <= stage.p90_ms && stage.p90_ms <= stage.p99_ms);
    // The gauge survives as value + envelope; one write means all
    // three coincide at the exact bit pattern.
    assert_eq!(
        restored.gauges["roundtrip.level"],
        metrics::GaugeStats::single(0.1 + 0.2)
    );
}

/// Each Picard iteration is produced once: the close of its
/// `coupled.iteration` span carries the same `IterationRecord` fields
/// the report's trace holds into the span capture, the flight recorder
/// and the timer of its name.
#[test]
fn iteration_views_agree_with_the_report_trace() {
    let _guard = registry_lock();
    metrics::reset();
    recorder::clear();
    spantree::capture_start();
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(20, 20), CoupledOptions::default()).unwrap();
    engine.run().unwrap();
    let report = engine.assess().unwrap();
    let capture = spantree::capture_take();
    let records = &report.trace.records;
    assert!(report.trace.converged);
    assert_eq!(records.len(), report.iterations);
    assert!(records.len() >= 2, "demo 20×20 iterates at least twice");
    for record in records {
        // The iteration wall time covers both timed stages.
        assert!(
            record.total_ms >= record.electrical_ms + record.thermal_ms,
            "{record:?}"
        );
    }
    let last = records.last().unwrap();
    assert_eq!(last.peak_temperature, report.peak_temperature.value());

    let spans: Vec<&SpanRecord> = capture
        .spans
        .iter()
        .filter(|s| s.name == "coupled.iteration")
        .collect();
    let ring: Vec<FlightEvent> = recorder::snapshot_events()
        .into_iter()
        .filter(|e| e.kind == "coupled.iteration")
        .collect();
    assert_eq!(
        spans.len(),
        records.len(),
        "one captured span per iteration"
    );
    assert_eq!(
        ring.len(),
        records.len(),
        "one recorder event per iteration"
    );
    let arg = |s: &SpanRecord, key: &str| {
        s.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    };
    let field = |detail: &str, key: &str| {
        detail
            .split(' ')
            .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse::<f64>().ok())
    };
    for ((record, span), event) in records.iter().zip(&spans).zip(&ring) {
        #[allow(clippy::cast_precision_loss)]
        let index = record.iteration as f64;
        assert_eq!(arg(span, "iteration"), Some(index));
        assert_eq!(arg(span, "max_delta_t_k"), Some(record.max_delta_t));
        assert_eq!(
            field(&event.detail, "max_delta_t_k"),
            Some(record.max_delta_t),
            "{event:?}"
        );
        assert_eq!(
            arg(span, "peak_temperature_k"),
            Some(record.peak_temperature)
        );
        assert_eq!(arg(span, "worst_ir_drop_v"), Some(record.worst_ir_drop));
    }
    assert_eq!(
        metrics::snapshot().timers["coupled.iteration"].count,
        records.len() as u64
    );
    let run = capture
        .spans
        .iter()
        .find(|s| s.name == "coupled.run")
        .expect("coupled.run captured");
    let converged = run.args.iter().find(|(k, _)| k == "converged");
    assert_eq!(converged.and_then(|(_, v)| v.as_bool()), Some(true));
    recorder::clear();
}

/// Regression test for the `coupled.run` timer bug: the run-level RAII
/// span must enclose the full Picard loop, so its total wall time
/// dominates the per-stage timers recorded inside `step()` — the seed
/// baseline file showed `coupled.run` at 0.079 ms for a 2640 ms run
/// because the benchmark drove `step()` directly and the span only ever
/// wrapped a sanity anchor.
#[test]
fn coupled_run_timer_encloses_the_stage_timers() {
    let _guard = registry_lock();
    metrics::reset();
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(15, 15), CoupledOptions::default()).unwrap();
    engine.run().unwrap();
    let snap = metrics::snapshot();
    let total = |name: &str| snap.timers.get(name).map_or(0.0, |t| t.total_ms);
    let run_ms = total("coupled.run");
    let stage_ms = total("coupled.stamp_time")
        + total("coupled.electrical_time")
        + total("coupled.thermal_time")
        + total("coupled.update_time");
    assert!(stage_ms > 0.0, "stage timers recorded: {:?}", snap.timers);
    assert!(
        run_ms >= stage_ms,
        "coupled.run ({run_ms} ms) must enclose the stage timers ({stage_ms} ms)"
    );
    assert_eq!(
        snap.timers["coupled.run"].count, 1,
        "one run() call, one observation"
    );
    // Every timer in the snapshot now carries quantiles.
    for (name, t) in &snap.timers {
        assert!(
            t.p50_ms <= t.p90_ms && t.p90_ms <= t.p99_ms,
            "{name}: {t:?}"
        );
    }
}

/// The `coupled.residual` gauge keeps only its last write, but the
/// snapshot's envelope must expose the whole excursion: the first
/// (largest) residual of the damped loop ends up in `max`, the
/// converged one in `value`.
#[test]
fn residual_gauge_envelope_shows_the_decay() {
    let _guard = registry_lock();
    metrics::reset();
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(10, 10), CoupledOptions::default()).unwrap();
    engine.run().unwrap();
    let report = engine.assess().unwrap();
    let residual = metrics::snapshot().gauges["coupled.residual"];
    let deltas: Vec<f64> = report.trace.records.iter().map(|r| r.max_delta_t).collect();
    let last = deltas.last().copied().unwrap();
    let biggest = deltas.iter().copied().fold(0.0, f64::max);
    let smallest = deltas.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(residual.value, last, "last write wins");
    assert_eq!(residual.max, biggest, "the big early residual is retained");
    assert_eq!(residual.min, smallest);
    // Whenever some iteration's residual exceeded the final one, the
    // envelope — unlike the bare last value — must show it.
    if biggest > last {
        assert!(residual.max > residual.value);
    }
}
