//! The traced phase: each layer's public functions are called
//! in-process on the seed's inputs, every call inside a benchmark-owned
//! `bench.<layer>.<call>` span. The spans are captured with the
//! span-tree recorder, written as JSONL that `hotwire trace` reads, and
//! every per-layer metric is read back from them (counts come from the
//! calls the spans enclose). Programs that only run as processes
//! (`repro`, `hotwire serve`, the CLI itself) are spawned inside spans.
//!
//! Per-layer metrics describe layers, not workloads: every traced run
//! measures the whole catalog, each layer on the inputs of the workload
//! that exercises it, so the same names appear under every workload.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use hotwire::circuit::grid_dc::DcGridSolver;
use hotwire::circuit::ordering;
use hotwire::circuit::sparse::SparseMatrix;
use hotwire::circuit::transient::TransientOptions;
use hotwire::coupled::{CoupledEngine, CoupledGridSpec, CoupledOptions};
use hotwire::em_tree::model::KorhonenModel;
use hotwire::em_tree::netlist::{trees_from_netlist_text, NetlistTreeOptions};
use hotwire::em_tree::steady::batch_steady_state;
use hotwire::em_tree::transient::{batch_to_failure, TransientOptions as KorhonenOptions};
use hotwire::obs::spantree::{self, SpanTrace};
use hotwire::obs::trace::{self as obs_trace, FieldValue, Span};
use hotwire::obs::{metrics, Json};
use hotwire::tech::Metal;
use hotwire::thermal::chip::ChipThermalModel;
use hotwire::thermal::impedance::{effective_width, InsulatorStack};
use hotwire::units::{Celsius, Current, Kelvin, Length, Seconds};

use crate::check::{self, CoupledResult, Tally};
use crate::gen::{self, Request};
use crate::proc::{self, Server};
use crate::stats;
use crate::workloads::{self, Grid, LARGE, PICARD};
use crate::{Context, Metric};

/// The grids the coupled, circuit and thermal layers run on, with the
/// prefix of their metric names.
const GRIDS: [(&str, &Grid); 2] = [("picard", &PICARD), ("large", &LARGE)];
/// `repro` experiments timed one by one; the rest run as one `other`.
const EXPERIMENTS: [&str; 6] = ["fig5", "fig7", "table5", "table6", "table7", "esd"];
/// Length of the serve load in each round.
const SERVE_SESSION: Duration = Duration::from_millis(2500);
/// Plain/traced CLI pairs behind `trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 4;
const NO_INPUT: &str = "-";

/// The per-layer metric catalog, in report order, with units.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (grid, _) in GRIDS {
        for (metric, unit) in [
            ("coupled.new_ms", "ms"),
            ("coupled.step_first_ms", "ms"),
            ("coupled.step_later_ms", "ms"),
            ("coupled.iterations", "count"),
            ("coupled.electrical_ms", "ms"),
            ("coupled.thermal_ms", "ms"),
            ("coupled.stamp_update_ms", "ms"),
            ("coupled.refactors_per_iteration", "ratio"),
            ("coupled.assess_ms", "ms"),
            ("circuit.amd_ms", "ms"),
            ("circuit.chol_factor_ms", "ms"),
            ("circuit.chol_factor_serial_ms", "ms"),
            ("circuit.chol_refactor_ms", "ms"),
            ("circuit.chol_solve_ms", "ms"),
            ("circuit.chol_fill_nnz", "count"),
            ("circuit.dc_solve_first_ms", "ms"),
            ("circuit.dc_solve_repeat_ms", "ms"),
            ("thermal.chip_new_ms", "ms"),
            ("thermal.chip_solve_ms", "ms"),
        ] {
            names.push((format!("{grid}.{metric}"), unit));
        }
    }
    names.push(("picard.coupled.unaccounted_ms".to_owned(), "ms"));
    names.push(("picard.cli.cpu_ms".to_owned(), "ms"));
    for (metric, unit) in [
        ("em_tree.parse_extract_ms", "ms"),
        ("em_tree.steady_ms", "ms"),
        ("em_tree.transient_ms", "ms"),
        ("em_tree.factorizations", "count"),
        ("em_tree.mortal_ratio", "ratio"),
    ] {
        names.push((metric.to_owned(), unit));
    }
    for id in EXPERIMENTS.iter().chain(&["other"]) {
        names.push((format!("repro.{id}_ms"), "ms"));
    }
    for metric in [
        "serve.client_signoff_p50_ms",
        "serve.server_request_p50_ms",
        "serve.server_request_p90_ms",
        "serve.signoff_p50_ms",
        "serve.wait_p50_ms",
        "serve.scrape_p50_ms",
    ] {
        names.push((metric.to_owned(), "ms"));
    }
    names.push(("trace_overhead_pct".to_owned(), "%"));
    names
}

/// Opens a benchmark span tagged with its input and round.
fn span(name: &'static str, input: &str, round: u64) -> Span {
    obs_trace::span_with(
        name,
        &[
            ("input", FieldValue::Str(input)),
            ("round", FieldValue::U64(round)),
        ],
    )
}

/// Values measured directly in one round (counts, sums over the
/// engine's iteration records, scraped server quantiles).
type Values = BTreeMap<String, f64>;

/// Runs suite rounds until the time budget is spent (at least one),
/// writes the span capture to `capture`, and returns the catalog.
pub fn run(ctx: &Context, tally: &mut Tally, capture: &Path) -> Result<Vec<Metric>, String> {
    let experiments = repro_experiments(ctx)?;
    spantree::capture_start();
    let start = Instant::now();
    let mut rounds: Vec<Values> = Vec::new();
    loop {
        let mut values = Values::new();
        let round = rounds.len() as u64;
        let outcome = suite(ctx, round, &experiments, &mut values, tally);
        rounds.push(values);
        if tally.record("traced suite", outcome).is_none() {
            break;
        }
        let per_round = start.elapsed() / rounds.len() as u32;
        if start.elapsed() + per_round > ctx.budget {
            break;
        }
    }
    let trace = spantree::capture_take();
    std::fs::write(capture, trace.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", capture.display()))?;
    println!(
        "capture: {} spans in {} round(s) written to {} (read it with `hotwire trace {}`)",
        trace.spans.len(),
        rounds.len(),
        capture.display(),
        capture.display()
    );

    let per_round: Vec<Values> = rounds
        .into_iter()
        .enumerate()
        .map(|(r, values)| from_spans(&trace, r as u64, values))
        .collect();
    Ok(catalog()
        .into_iter()
        .map(|(name, unit)| {
            let samples: Vec<f64> = per_round
                .iter()
                .filter_map(|v| v.get(&name).copied())
                .filter(|v| v.is_finite())
                .collect();
            let note = format!("median of {} round(s)", samples.len());
            Metric::new(name, stats::median(&samples), unit, note)
        })
        .collect())
}

fn suite(
    ctx: &Context,
    round: u64,
    experiments: &[String],
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    for (prefix, grid) in GRIDS {
        grid_layers(ctx, prefix, grid, round, values, tally)?;
    }
    em_tree(ctx, round, values, tally)?;
    repro(ctx, round, experiments, tally)?;
    serve(ctx, round, values, tally)?;
    cli_overhead(ctx, round, values, tally)
}

/// The conductance system of a converged coupled grid, stamped by the
/// benchmark itself: pads eliminated, gmin on the diagonal, and the
/// full symmetric pattern in CSC form for the ordering.
struct GridSystem {
    matrix: SparseMatrix,
    rhs: Vec<f64>,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    /// Unknown index of each node, `None` for a pad.
    unknown: Vec<Option<usize>>,
}

impl GridSystem {
    fn stamp(spec: &CoupledGridSpec, branches: &[(usize, usize)], g: &[f64], gmin: f64) -> Self {
        let nodes = spec.rows * spec.cols;
        let mut pinned = vec![false; nodes];
        for &(r, c) in &spec.pads {
            pinned[r * spec.cols + c] = true;
        }
        let mut unknown = vec![None; nodes];
        let mut n = 0;
        for (node, u) in unknown.iter_mut().enumerate() {
            if !pinned[node] {
                *u = Some(n);
                n += 1;
            }
        }
        let vdd = spec.vdd.value();
        let mut matrix = SparseMatrix::zeros(n);
        let mut rhs = vec![-spec.sink_per_node.value(); n];
        let mut neighbours: Vec<Vec<u32>> = (0..n).map(|u| vec![u as u32]).collect();
        for (&(a, b), &gk) in branches.iter().zip(g) {
            match (unknown[a], unknown[b]) {
                (Some(ua), Some(ub)) => {
                    matrix.add(ua, ua, gk);
                    matrix.add(ub, ub, gk);
                    matrix.add(ua, ub, -gk);
                    matrix.add(ub, ua, -gk);
                    neighbours[ua].push(ub as u32);
                    neighbours[ub].push(ua as u32);
                }
                (Some(u), None) | (None, Some(u)) => {
                    matrix.add(u, u, gk);
                    rhs[u] += gk * vdd;
                }
                (None, None) => {}
            }
        }
        let mut col_ptr = vec![0];
        let mut row_idx = Vec::new();
        for (u, rows) in neighbours.iter_mut().enumerate() {
            matrix.add(u, u, gmin);
            rows.sort_unstable();
            row_idx.extend_from_slice(rows);
            col_ptr.push(row_idx.len());
        }
        Self {
            matrix,
            rhs,
            col_ptr,
            row_idx,
            unknown,
        }
    }
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// The coupled engine, then the circuit and thermal layers on its
/// converged grid, for layout 0 of the seed.
fn grid_layers(
    ctx: &Context,
    prefix: &str,
    grid: &Grid,
    round: u64,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let spec = CoupledGridSpec {
        sink_per_node: Current::from_milliamps(grid.sink_ma),
        pads: gen::pad_layout(ctx.seed, 0, grid.edge),
        ..CoupledGridSpec::demo(grid.edge, grid.edge)
    };
    let options = CoupledOptions::default();
    let mut put = |metric: &str, value: f64| values.insert(format!("{prefix}.{metric}"), value);

    // Coupled: construction, every Picard step, the EM assessment.
    let refactors_before = metrics::snapshot().counter("solver.refactor");
    let mut engine = {
        let _s = span("bench.coupled.new", prefix, round);
        CoupledEngine::new(spec.clone(), options.clone())
    }
    .map_err(|e| fail("CoupledEngine::new", e))?;
    while !engine.converged() {
        if engine.iterations() >= options.max_iterations {
            return Err(format!("{prefix} grid did not converge"));
        }
        let _s = span("bench.coupled.step", prefix, round);
        engine.step().map_err(|e| fail("CoupledEngine::step", e))?;
    }
    let report = {
        let _s = span("bench.coupled.assess", prefix, round);
        engine.assess()
    }
    .map_err(|e| fail("CoupledEngine::assess", e))?;
    let iterations = engine.iterations() as f64;
    let records = engine.trace().records;
    put("coupled.iterations", iterations);
    put(
        "coupled.electrical_ms",
        records.iter().map(|r| r.electrical_ms).sum(),
    );
    put(
        "coupled.thermal_ms",
        records.iter().map(|r| r.thermal_ms).sum(),
    );
    let refactors = metrics::snapshot().counter("solver.refactor") - refactors_before;
    put(
        "coupled.refactors_per_iteration",
        refactors as f64 / iterations,
    );
    let result = CoupledResult::from_report(&report);
    let reference = ctx.references.coupled(ctx.seed, grid.name, 0);
    tally.record(
        &format!("in-process {} layout 0", grid.name),
        reference.map_or(Ok(()), |r| result.matches(&r)),
    );

    // Circuit: the converged conductances, stamped and solved directly.
    let metal = &spec.metal;
    let area = spec.strap_width.value() * spec.strap_thickness.value();
    let pitch = spec.pitch.value();
    let g: Vec<f64> = engine
        .branch_temperatures()
        .iter()
        .map(|&t| area / (metal.resistivity_clamped(Kelvin::new(t)).0.value() * pitch))
        .collect();
    let cols = spec.cols;
    let branches: Vec<(usize, usize)> = engine
        .branches()
        .iter()
        .map(|&((r0, c0), (r1, c1))| (r0 * cols + c0, r1 * cols + c1))
        .collect();
    let gmin = TransientOptions::default().gmin;
    let system = GridSystem::stamp(&spec, &branches, &g, gmin);
    let n = system.rhs.len();
    let perm = {
        let _s = span("bench.circuit.amd", prefix, round);
        ordering::amd(n, &system.col_ptr, &system.row_idx)
    };
    std::hint::black_box(perm);
    let mut factor = {
        let _s = span("bench.circuit.chol_factor", prefix, round);
        system.matrix.factor_cholesky()
    }
    .map_err(|e| fail("factor_cholesky", e))?;
    put("circuit.chol_fill_nnz", factor.nnz() as f64);
    let serial = {
        let _s = span("bench.circuit.chol_factor_serial", prefix, round);
        system.matrix.factor_cholesky_serial()
    }
    .map_err(|e| fail("factor_cholesky_serial", e))?;
    std::hint::black_box(serial);
    {
        let _s = span("bench.circuit.chol_refactor", prefix, round);
        factor.refactor(&system.matrix)
    }
    .map_err(|e| fail("refactor", e))?;
    let x = {
        let _s = span("bench.circuit.chol_solve", prefix, round);
        factor.solve(&system.rhs)
    };

    let pinned: Vec<(usize, f64)> = spec
        .pads
        .iter()
        .map(|&(r, c)| (r * cols + c, spec.vdd.value()))
        .collect();
    let mut dc = DcGridSolver::new(spec.rows * cols, branches.clone(), &pinned, gmin)
        .map_err(|e| fail("DcGridSolver::new", e))?;
    for node in 0..spec.rows * cols {
        dc.set_sink(node, spec.sink_per_node.value());
    }
    for name in [
        "bench.circuit.dc_solve_first",
        "bench.circuit.dc_solve_repeat",
    ] {
        let _s = span(name, prefix, round);
        dc.solve(&g).map_err(|e| fail("DcGridSolver::solve", e))?;
    }
    // Two independent assemblies of one system must agree.
    let worst = system
        .unknown
        .iter()
        .zip(dc.node_voltages())
        .filter_map(|(u, v)| u.map(|u| (x[u] - v).abs()))
        .fold(0.0_f64, f64::max);
    tally.record(
        &format!("{prefix} Cholesky solve against DcGridSolver"),
        if worst < 1e-6 {
            Ok(())
        } else {
            Err(format!("node voltages differ by {worst:e} V"))
        },
    );

    // Thermal: the chip map the engine builds, driven by the Joule
    // power of the solve above.
    let tox = spec.dielectric_thickness;
    let srt = InsulatorStack::single(tox, &spec.dielectric).series_resistance_thickness();
    let w_eff = effective_width(spec.strap_width, tox, spec.phi).value();
    let g_lateral = metal.thermal_conductivity().value() * area / pitch;
    let g_half = w_eff * 0.5 * pitch / srt;
    let mut power = vec![0.0; spec.rows * cols];
    for (k, &(a, b)) in branches.iter().enumerate() {
        let i = dc.branch_currents()[k];
        let p = i * i / g[k];
        power[a] += 0.5 * p;
        power[b] += 0.5 * p;
    }
    let chip = {
        let _s = span("bench.thermal.chip_new", prefix, round);
        ChipThermalModel::new(spec.rows, cols, g_lateral, g_half)
    }
    .map_err(|e| fail("ChipThermalModel::new", e))?;
    let rise = {
        let _s = span("bench.thermal.chip_solve", prefix, round);
        chip.solve(&power)
    }
    .map_err(|e| fail("ChipThermalModel::solve", e))?;
    tally.record(
        &format!("{prefix} chip thermal solve"),
        if rise.iter().all(|r| r.is_finite() && *r >= 0.0) {
            Ok(())
        } else {
            Err("negative or non-finite temperature rise".to_owned())
        },
    );
    Ok(())
}

/// Extraction, the steady-state filter and the Korhonen transient on
/// deck 0 of the seed, with the flags `tree-em` passes the CLI.
fn em_tree(
    ctx: &Context,
    round: u64,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let deck = gen::tree_deck(ctx.seed, 0);
    let temperature: Kelvin = Celsius::new(gen::TREE_TEMP_C).to_kelvin();
    let options = NetlistTreeOptions {
        width: Length::from_micrometers(gen::TREE_WIDTH_UM),
        thickness: Length::from_micrometers(gen::TREE_THICKNESS_UM),
        metal: Metal::copper(),
        temperature,
    };
    let model = KorhonenModel::copper().map_err(|e| fail("KorhonenModel::copper", e))?;
    let extracted = {
        let _s = span("bench.em_tree.parse_extract", NO_INPUT, round);
        trees_from_netlist_text(&deck.text, &options)
    }
    .map_err(|e| fail("trees_from_netlist_text", e))?;
    let trees: Vec<_> = extracted.into_iter().map(|e| e.tree).collect();
    let steady = {
        let _s = span("bench.em_tree.steady", NO_INPUT, round);
        batch_steady_state(&trees, &model, true)
    }
    .map_err(|e| fail("batch_steady_state", e))?;
    let by_name: BTreeMap<&str, bool> = trees
        .iter()
        .zip(&steady)
        .map(|(t, s)| (t.name(), s.immortal))
        .collect();
    tally.record(
        "in-process tree extraction and filter",
        if trees.len() == deck.trees.len()
            && deck.trees.iter().all(|t| {
                by_name
                    .get(t.name.as_str())
                    .is_some_and(|&imm| imm || !t.provably_immortal)
            })
        {
            Ok(())
        } else {
            Err("extracted trees disagree with the deck".to_owned())
        },
    );
    let mortal: Vec<_> = trees
        .iter()
        .zip(&steady)
        .filter(|(_, s)| !s.immortal)
        .map(|(t, _)| t.clone())
        .collect();
    let before = metrics::snapshot().counter("em.stress.factorizations");
    let outcomes = {
        let _s = span("bench.em_tree.transient", NO_INPUT, round);
        batch_to_failure(
            &mortal,
            &model,
            KorhonenOptions::for_horizon(Seconds::from_years(10.0)),
            true,
        )
    }
    .map_err(|e| fail("batch_to_failure", e))?;
    std::hint::black_box(outcomes);
    let factorizations = metrics::snapshot().counter("em.stress.factorizations") - before;
    values.insert("em_tree.factorizations".to_owned(), factorizations as f64);
    values.insert(
        "em_tree.mortal_ratio".to_owned(),
        mortal.len() as f64 / trees.len() as f64,
    );
    Ok(())
}

/// The experiment ids `repro --list` prints.
fn repro_experiments(ctx: &Context) -> Result<Vec<String>, String> {
    let run = proc::run(Command::new(&ctx.repro).arg("--list"), &ctx.stderr_log())
        .map_err(|e| format!("repro --list: {e}"))?;
    Ok(run.stdout.lines().map(str::to_owned).collect())
}

/// Each headline experiment as its own serial `repro` process, then the
/// remaining ones together.
fn repro(
    ctx: &Context,
    round: u64,
    experiments: &[String],
    tally: &mut Tally,
) -> Result<(), String> {
    let others: Vec<&String> = experiments
        .iter()
        .filter(|id| !EXPERIMENTS.contains(&id.as_str()))
        .collect();
    let mut groups: Vec<(&str, Vec<&str>)> = EXPERIMENTS.iter().map(|&id| (id, vec![id])).collect();
    groups.push(("other", others.iter().map(|s| s.as_str()).collect()));
    for (tag, ids) in groups {
        let mut cmd = Command::new(&ctx.repro);
        cmd.args(["--jobs", "1"]);
        for id in ids {
            cmd.args(["--experiment", id]);
        }
        let run = {
            let _s = span("bench.repro.experiment", tag, round);
            proc::run(&mut cmd, &ctx.stderr_log())
        }
        .map_err(|e| format!("repro: {e}"))?;
        tally.record(
            &format!("repro {tag}"),
            if run.exit.code == 0 {
                Ok(())
            } else {
                Err(format!("exit status {}", run.exit.code))
            },
        );
    }
    Ok(())
}

/// A short closed-loop session against a fresh server, each request in
/// a span, then one scrape of the server's own latency summaries.
fn serve(ctx: &Context, round: u64, values: &mut Values, tally: &mut Tally) -> Result<(), String> {
    let server = Server::start(&ctx.hotwire, &workloads::serve_args(), &ctx.stderr_log())
        .map_err(|e| format!("serve: {e}"))?;
    let replies = workloads::load(
        &server.addr,
        ctx.seed,
        Instant::now() + SERVE_SESSION,
        |addr, request| {
            let name = match request {
                Request::Signoff { .. } => "bench.serve.signoff",
                Request::Metrics => "bench.serve.metrics",
            };
            let _s = span(name, NO_INPUT, round);
            workloads::send(addr, request)
        },
    );
    for reply in replies {
        tally.record(&format!("{:?}", reply.request), reply.outcome);
    }
    let scrape = {
        let _s = span("bench.serve.scrape", NO_INPUT, round);
        proc::http(&server.addr, "GET", "/metrics", "")
    }
    .map_err(|e| format!("scrape: {e}"))?;
    server.stop().map_err(|e| format!("stopping serve: {e}"))?;
    for (metric, timer, q) in [
        ("serve.server_request_p50_ms", "serve_request", "0.5"),
        ("serve.server_request_p90_ms", "serve_request", "0.9"),
        ("serve.signoff_p50_ms", "serve_signoff", "0.5"),
    ] {
        let seconds = workloads::prom_quantile(&scrape.1, timer, q)
            .ok_or_else(|| format!("scrape has no {timer} q{q}"))?;
        values.insert(metric.to_owned(), seconds * 1e3);
    }
    Ok(())
}

/// `coupled-signoff` on layout 0 of `coupled-picard`, alternately plain
/// and with a JSONL span capture; also the plain runs' CPU time.
fn cli_overhead(
    ctx: &Context,
    round: u64,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<(), String> {
    let plain = PICARD.args(ctx.seed, 0);
    let capture = ctx.work.join("cli-trace.jsonl");
    let mut traced = plain.clone();
    traced.extend(["--trace-out".to_owned(), capture.display().to_string()]);
    traced.extend(["--trace-format".to_owned(), "jsonl".to_owned()]);
    let mut plain_cpu_ms = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let mut order = [("bench.cli.plain", &plain), ("bench.cli.traced", &traced)];
        if pair % 2 == 1 {
            order.reverse();
        }
        for (name, args) in order {
            let run = {
                let _s = span(name, NO_INPUT, round);
                proc::run(Command::new(&ctx.hotwire).args(args), &ctx.stderr_log())
            }
            .map_err(|e| format!("hotwire: {e}"))?;
            let reference = ctx.references.coupled(ctx.seed, PICARD.name, 0);
            let checked =
                check::check_coupled(run.exit.code, &run.stdout, PICARD.edge, reference.as_ref());
            tally.record(name, checked);
            if name == "bench.cli.plain" {
                plain_cpu_ms.push(run.cpu_ms());
            }
        }
    }
    values.insert("picard.cli.cpu_ms".to_owned(), stats::median(&plain_cpu_ms));
    Ok(())
}

/// Durations (ms) of the spans called `name` with `input` in `round`.
fn durations(trace: &SpanTrace, name: &str, input: &str, round: u64) -> Vec<f64> {
    let arg = |s: &hotwire::obs::SpanRecord, key: &str| {
        s.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    trace
        .spans
        .iter()
        .filter(|s| {
            s.name == name
                && arg(s, "input") == Some(Json::from(input))
                && arg(s, "round") == Some(Json::from(round))
        })
        .map(|s| s.dur_us / 1e3)
        .collect()
}

/// Completes one round's values with everything read from its spans.
fn from_spans(trace: &SpanTrace, round: u64, mut values: Values) -> Values {
    let one = |name: &str, input: &str| durations(trace, name, input, round).first().copied();
    let mut span_metrics: Vec<(String, Option<f64>)> = Vec::new();
    for (grid, _) in GRIDS {
        let steps = durations(trace, "bench.coupled.step", grid, round);
        let step_sum: f64 = steps.iter().sum();
        let new = one("bench.coupled.new", grid);
        let assess = one("bench.coupled.assess", grid);
        let staged = |k: &str| values.get(&format!("{grid}.coupled.{k}")).copied();
        span_metrics.extend([
            (format!("{grid}.coupled.new_ms"), new),
            (
                format!("{grid}.coupled.step_first_ms"),
                steps.first().copied(),
            ),
            (
                format!("{grid}.coupled.step_later_ms"),
                (steps.len() > 1).then(|| stats::median(&steps[1..])),
            ),
            (
                format!("{grid}.coupled.stamp_update_ms"),
                staged("electrical_ms")
                    .zip(staged("thermal_ms"))
                    .map(|(e, t)| step_sum - e - t),
            ),
            (format!("{grid}.coupled.assess_ms"), assess),
        ]);
        if grid == "picard" {
            let cli = durations(trace, "bench.cli.plain", NO_INPUT, round);
            let in_process = new.zip(assess).map(|(n, a)| n + step_sum + a);
            span_metrics.push((
                "picard.coupled.unaccounted_ms".to_owned(),
                in_process
                    .filter(|_| !cli.is_empty())
                    .map(|p| stats::median(&cli) - p),
            ));
        }
        for call in [
            "circuit.amd",
            "circuit.chol_factor",
            "circuit.chol_factor_serial",
            "circuit.chol_refactor",
            "circuit.chol_solve",
            "circuit.dc_solve_first",
            "circuit.dc_solve_repeat",
            "thermal.chip_new",
            "thermal.chip_solve",
        ] {
            let name = format!("bench.{call}");
            span_metrics.push((format!("{grid}.{call}_ms"), one(&name, grid)));
        }
    }
    for call in ["parse_extract", "steady", "transient"] {
        let name = format!("bench.em_tree.{call}");
        span_metrics.push((format!("em_tree.{call}_ms"), one(&name, NO_INPUT)));
    }
    for id in EXPERIMENTS.iter().chain(&["other"]) {
        span_metrics.push((format!("repro.{id}_ms"), one("bench.repro.experiment", id)));
    }
    let median_of = |name: &str| {
        let d = durations(trace, name, NO_INPUT, round);
        (!d.is_empty()).then(|| stats::median(&d))
    };
    let client = median_of("bench.serve.signoff");
    let server = values.get("serve.server_request_p50_ms").copied();
    span_metrics.extend([
        ("serve.client_signoff_p50_ms".to_owned(), client),
        (
            "serve.wait_p50_ms".to_owned(),
            client.zip(server).map(|(c, s)| c - s),
        ),
        (
            "serve.scrape_p50_ms".to_owned(),
            median_of("bench.serve.metrics"),
        ),
        (
            "trace_overhead_pct".to_owned(),
            median_of("bench.cli.plain")
                .zip(median_of("bench.cli.traced"))
                .map(|(p, t)| (t - p) / p * 100.0),
        ),
    ]);
    for (name, value) in span_metrics {
        if let Some(v) = value {
            values.insert(name, v);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists this catalog.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = hotwire::obs::json::parse(&text).unwrap();
        let listed: Vec<(String, String)> = json
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn grid_system_matches_the_dc_solver() {
        let spec = CoupledGridSpec::demo(6, 5);
        let cols = spec.cols;
        let mut branches = Vec::new();
        for r in 0..spec.rows {
            for c in 0..cols {
                if c + 1 < cols {
                    branches.push((r * cols + c, r * cols + c + 1));
                }
                if r + 1 < spec.rows {
                    branches.push((r * cols + c, (r + 1) * cols + c));
                }
            }
        }
        let g: Vec<f64> = (0..branches.len()).map(|k| 1.0 + 0.1 * k as f64).collect();
        let system = GridSystem::stamp(&spec, &branches, &g, 1e-12);
        let x = system.matrix.factor_cholesky().unwrap().solve(&system.rhs);
        let pinned: Vec<(usize, f64)> = spec
            .pads
            .iter()
            .map(|&(r, c)| (r * cols + c, 2.5))
            .collect();
        let mut dc = DcGridSolver::new(spec.rows * cols, branches, &pinned, 1e-12).unwrap();
        for node in 0..spec.rows * cols {
            dc.set_sink(node, spec.sink_per_node.value());
        }
        dc.solve(&g).unwrap();
        for (u, v) in system.unknown.iter().zip(dc.node_voltages()) {
            if let Some(u) = u {
                assert!((x[*u] - v).abs() < 1e-9);
            }
        }
        assert_eq!(system.col_ptr.len(), system.rhs.len() + 1);
    }
}
