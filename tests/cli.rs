//! End-to-end tests of the `hotwire` CLI binary.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn hotwire(args: &[&str]) -> (bool, String, String) {
    let (code, stdout, stderr) = hotwire_status(args);
    (code == Some(0), stdout, stderr)
}

/// As [`hotwire`], but exposing the raw exit code for the tests of the
/// usage/violation/internal classification.
fn hotwire_status(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hotwire"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The `telemetry` key of a JSONL span capture's header line.
fn jsonl_telemetry(jsonl: &str) -> Option<bool> {
    let header = hotwire::obs::json::parse(jsonl.lines().next()?).ok()?;
    header
        .get("telemetry")
        .and_then(hotwire::obs::json::Json::as_bool)
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = hotwire(&["help"]);
    assert!(ok);
    for cmd in [
        "solve", "rules", "sweep", "repeater", "esd", "techfile", "trace", "doctor",
    ] {
        assert!(stdout.contains(cmd), "help must mention {cmd}");
    }
    // no args behaves like help
    let (ok, stdout, _) = hotwire(&[]);
    assert!(ok);
    assert!(stdout.contains("usage"));
}

#[test]
fn solve_reports_the_operating_point() {
    let (ok, stdout, _) = hotwire(&[
        "solve",
        "--tech",
        "ntrs-250",
        "--layer",
        "M6",
        "--dielectric",
        "HSQ",
        "--r",
        "0.1",
    ]);
    assert!(ok);
    assert!(stdout.contains("M6/HSQ"));
    assert!(stdout.contains("j_peak"));
    assert!(stdout.contains("T_m"));
}

#[test]
fn rules_prints_both_blocks() {
    let (ok, stdout, _) = hotwire(&["rules", "--tech", "ntrs-100", "--j0", "1.8e6"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Signal Lines (r = 0.1)"));
    assert!(stdout.contains("Power Lines (r = 1.0)"));
    assert!(stdout.contains("M8"));
}

#[test]
fn sweep_emits_csv() {
    let (ok, stdout, _) = hotwire(&[
        "sweep", "--tech", "ntrs-250", "--layer", "M6", "--points", "5",
    ]);
    assert!(ok);
    let lines: Vec<&str> = stdout.trim().lines().collect();
    assert_eq!(
        lines[0],
        "r,metal_temperature_c,j_peak_ma_cm2,em_only_peak_ma_cm2"
    );
    assert_eq!(lines.len(), 6, "header + 5 points");
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), 4);
    }
}

/// A reader that stops after one line (`hotwire sweep … | head -1`)
/// closes the pipe under the CLI, which must end quietly: no panic on
/// stderr and no panic bundle.
#[test]
fn closed_stdout_ends_quietly() {
    let dir = std::env::temp_dir().join(format!("hotwire-pipe-{}", std::process::id()));
    let bundles = dir.join("bundles");
    let mut child = Command::new(env!("CARGO_BIN_EXE_hotwire"))
        .args([
            "sweep", "--tech", "ntrs-250", "--layer", "M6", "--points", "20000",
        ])
        .args(["--bundle-dir", bundles.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("r,"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!bundles.exists(), "no bundle for a closed pipe");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn esd_classifies_a_narrow_line_as_failing() {
    let (ok, stdout, _) = hotwire(&[
        "esd",
        "--stress",
        "hbm:2000",
        "--width-um",
        "0.5",
        "--metal",
        "alcu",
    ]);
    assert!(ok);
    assert!(stdout.contains("OpenCircuit"), "{stdout}");
    let (ok, stdout, _) = hotwire(&[
        "esd",
        "--stress",
        "hbm:2000",
        "--width-um",
        "20",
        "--metal",
        "alcu",
    ]);
    assert!(ok);
    assert!(stdout.contains("Pass"), "{stdout}");
}

#[test]
fn techfile_round_trips_through_the_cli() {
    let (ok, dump, _) = hotwire(&["techfile", "--tech", "ntrs-250"]);
    assert!(ok);
    assert!(dump.contains("technology ntrs-0.25um-cu"));
    // Write it out and load it back through --tech <path>.
    let dir = std::env::temp_dir().join(format!("hotwire-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dump.tech");
    std::fs::write(&path, &dump).unwrap();
    let (ok, stdout, stderr) = hotwire(&[
        "solve",
        "--tech",
        path.to_str().unwrap(),
        "--layer",
        "M6",
        "--r",
        "0.1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("j_peak"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let (ok, _, stderr) = hotwire(&["solve", "--tech", "ntrs-250"]);
    assert!(!ok);
    assert!(stderr.contains("--layer"));
    let (ok, _, stderr) = hotwire(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = hotwire(&["esd", "--stress", "zap:9000"]);
    assert!(!ok);
    assert!(stderr.contains("bad stress"));
    let (ok, _, stderr) = hotwire(&["solve", "--tech", "no-such-preset.tech", "--layer", "M1"]);
    assert!(!ok);
    assert!(stderr.contains("no-such-preset"));
}

#[test]
fn signoff_reports_violations_with_nonzero_exit() {
    let dir = std::env::temp_dir().join(format!("hotwire-signoff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nets.csv");
    std::fs::write(
        &path,
        "name,layer,width_um,length_um,duty_cycle,j_peak_ma_cm2\n\
         bus,M6,1.2,4000,0.1,3.0\n\
         jog,M2,0.4,3,0.3,8.0\n\
         strap,M6,2.4,5000,1.0,2.0\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = hotwire(&[
        "signoff",
        "--tech",
        "ntrs-250",
        "--nets",
        path.to_str().unwrap(),
    ]);
    assert!(!ok, "the strap violates its rule");
    assert!(stdout.contains("blech-immortal"), "{stdout}");
    assert!(stdout.contains("VIOLATION"), "{stdout}");
    assert!(stderr.contains("violate"), "{stderr}");

    // Drop the violating strap: now everything passes, exit 0.
    std::fs::write(
        &path,
        "name,layer,width_um,length_um,duty_cycle,j_peak_ma_cm2\nbus,M6,1.2,4000,0.1,3.0\n",
    )
    .unwrap();
    let (ok, stdout, _) = hotwire(&[
        "signoff",
        "--tech",
        "ntrs-250",
        "--nets",
        path.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(stdout.contains("all 1 nets pass"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn signoff_rejects_malformed_csv() {
    let dir = std::env::temp_dir().join(format!("hotwire-badcsv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.csv");
    std::fs::write(&path, "name,layer\nbus,M6\n").unwrap();
    let (ok, _, stderr) = hotwire(&[
        "signoff",
        "--tech",
        "ntrs-250",
        "--nets",
        path.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("6 columns"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_runs_a_netlist_deck() {
    let dir = std::env::temp_dir().join(format!("hotwire-sim-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deck.sp");
    std::fs::write(&path, "V1 in 0 DC 1.0\nR1 in out 1k\nC1 out 0 1n\n").unwrap();
    let (ok, stdout, stderr) = hotwire(&[
        "simulate",
        "--netlist",
        path.to_str().unwrap(),
        "--tstop",
        "1e-5",
        "--probe",
        "out",
    ]);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout.trim().lines().collect();
    assert_eq!(lines[0], "time_s,out");
    // final sample settles to the rail
    let last: f64 = lines
        .last()
        .unwrap()
        .split(',')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!((last - 1.0).abs() < 1e-2, "settled to {last}");
    // unknown probe is an error
    let (ok, _, stderr) = hotwire(&[
        "simulate",
        "--netlist",
        path.to_str().unwrap(),
        "--tstop",
        "1e-6",
        "--probe",
        "missing",
    ]);
    assert!(!ok);
    assert!(stderr.contains("missing"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coupled_signoff_passes_lightly_loaded_grids() {
    let (ok, stdout, _) = hotwire(&[
        "coupled-signoff",
        "--rows",
        "15",
        "--cols",
        "15",
        "--sink-ma",
        "0.1",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fixed point in"), "{stdout}");
    assert!(stdout.contains("straps pass"), "{stdout}");
}

#[test]
fn coupled_signoff_flags_overstressed_grids() {
    let (ok, stdout, stderr) = hotwire(&[
        "coupled-signoff",
        "--rows",
        "30",
        "--cols",
        "30",
        "--sink-ma",
        "0.5",
    ]);
    assert!(!ok, "a hot 30x30 grid must violate: {stdout}");
    assert!(stdout.contains("top violations"), "{stdout}");
    assert!(stdout.contains("self-consistent"), "{stdout}");
    assert!(stderr.contains("violate"), "{stderr}");
}

#[test]
fn exit_codes_distinguish_failure_classes() {
    // Usage errors exit 2: missing flag, unknown command, bad value.
    let (code, _, _) = hotwire_status(&["solve", "--tech", "ntrs-250"]);
    assert_eq!(code, Some(2), "missing --layer is a usage error");
    let (code, _, _) = hotwire_status(&["bogus"]);
    assert_eq!(code, Some(2), "unknown command is a usage error");
    let (code, _, _) = hotwire_status(&["coupled-signoff", "--rows", "abc"]);
    assert_eq!(code, Some(2), "non-numeric --rows is a usage error");
    // Signoff violations exit 3: the analysis ran, the design fails.
    let (code, _, stderr) = hotwire_status(&[
        "coupled-signoff",
        "--rows",
        "30",
        "--cols",
        "30",
        "--sink-ma",
        "0.5",
    ]);
    assert_eq!(code, Some(3), "violations exit 3: {stderr}");
    // Internal failures exit 1: the engine could not produce an answer.
    let (code, _, stderr) = hotwire_status(&[
        "signoff",
        "--tech",
        "ntrs-250",
        "--nets",
        "/no/such/nets.csv",
    ]);
    assert_eq!(code, Some(1), "unreadable input is internal: {stderr}");
    assert!(stderr.contains("caused by"), "chain reported: {stderr}");
}

#[test]
fn serve_rejects_thread_counts_outside_one_to_256() {
    for threads in ["0", "-3", "2.5", "nan", "1e9", "257"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hotwire"))
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", threads])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // A count that slipped through would start serving: stop it
        // instead of hanging the test.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("wait works").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("--threads {threads} started a server");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("output readable");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--threads {threads} is a usage error: {stderr}"
        );
        assert!(stderr.contains("--threads"), "{stderr}");
    }
}

#[test]
fn log_format_json_emits_a_structured_error_event() {
    let (code, _, stderr) = hotwire_status(&[
        "signoff",
        "--tech",
        "ntrs-250",
        "--nets",
        "/no/such/nets.csv",
        "--log-format",
        "json",
    ]);
    assert_eq!(code, Some(1));
    let event = hotwire::obs::json::parse(stderr.trim()).expect("stderr is one JSON event");
    assert_eq!(
        event.get("level").and_then(|v| v.as_str()),
        Some("error"),
        "{stderr}"
    );
    assert_eq!(event.get("kind").and_then(|v| v.as_str()), Some("internal"));
    let cause = event.get("cause").and_then(|v| v.as_array()).unwrap();
    assert!(!cause.is_empty(), "io error arrives as the cause chain");
    // And a bad --log-level is itself a usage error.
    let (code, _, stderr) = hotwire_status(&["help", "--log-level", "loud"]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn metrics_and_trace_out_write_parsable_json() {
    let dir = std::env::temp_dir().join(format!("hotwire-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("metrics.json");
    let trace_path = dir.join("trace.jsonl");
    // 20×20 at the demo load needs >1 Picard iteration, so the second
    // electrical solve must hit the factorization-reuse path.
    let (ok, stdout, stderr) = hotwire(&[
        "coupled-signoff",
        "--rows",
        "20",
        "--cols",
        "20",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");

    let metrics = hotwire::obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap())
        .expect("metrics file is valid JSON");
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(hotwire::obs::json::Json::as_u64)
    };
    assert_eq!(
        metrics
            .get("telemetry")
            .and_then(hotwire::obs::json::Json::as_bool),
        Some(true)
    );
    assert_eq!(counter("solver.factor"), Some(1), "one symbolic factor");
    assert!(
        counter("solver.refactor").unwrap_or(0) >= 1,
        "iteration 2+ must reuse the factorization: {metrics}"
    );
    let iterations = counter("coupled.iterations").unwrap();
    assert!(iterations >= 2, "demo 20×20 iterates at least twice");
    assert_eq!(counter("grid_dc.solves"), Some(iterations));
    let timers = metrics.get("timers").unwrap();
    for stage in ["coupled.electrical_time", "coupled.thermal_time"] {
        let total = timers
            .get(stage)
            .and_then(|t| t.get("total_ms"))
            .and_then(hotwire::obs::json::Json::as_f64)
            .unwrap();
        assert!(total >= 0.0, "{stage} records wall time");
    }

    // The JSONL span capture carries the convergence history: one
    // `coupled.iteration` span per iteration with its residual, and a
    // `coupled.run` span closed with the verdict.
    let jsonl = std::fs::read_to_string(&trace_path).unwrap();
    let trace = hotwire::obs::spantree::SpanTrace::parse(&jsonl)
        .expect("trace file is a JSONL span capture");
    assert_eq!(jsonl_telemetry(&jsonl), Some(true));
    let arg = |s: &hotwire::obs::SpanRecord, key: &str| {
        s.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let iterations: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "coupled.iteration")
        .collect();
    assert_eq!(
        Some(iterations.len() as u64),
        counter("coupled.iterations"),
        "one span per iteration"
    );
    let run = trace
        .spans
        .iter()
        .find(|s| s.name == "coupled.run")
        .unwrap();
    assert_eq!(arg(run, "converged").and_then(|v| v.as_bool()), Some(true));
    let tolerance = arg(run, "tolerance_k").and_then(|v| v.as_f64()).unwrap();
    let residual = arg(iterations.last().unwrap(), "max_delta_t_k")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(
        residual <= tolerance,
        "converged trace ends under tolerance"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `hotwire trace` prints each critical-path root's args, so a
/// `coupled-signoff` capture shows every iteration's residual.
#[test]
fn trace_critical_paths_show_each_iteration_residual() {
    let dir = std::env::temp_dir().join(format!("hotwire-residual-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("capture.jsonl");
    let (ok, stdout, stderr) = hotwire(&[
        "coupled-signoff",
        "--rows",
        "20",
        "--cols",
        "20",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let (ok, stdout, stderr) = hotwire(&["trace", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let lines: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("critical path"))
        .skip(1)
        .take_while(|l| l.starts_with("  coupled.iteration "))
        .collect();
    assert!(lines.len() >= 2, "{stdout}");
    for line in lines {
        assert!(line.contains(" [max_delta_t_k="), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A span capture on `serve` would grow with every request until
/// shutdown, so `--trace-out` is a usage error there that names the
/// bounded alternatives.
#[test]
fn serve_rejects_trace_out() {
    let (code, stdout, stderr) = hotwire_status(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--trace-out",
        "unused.jsonl",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stdout.contains("listening"), "{stdout}");
    assert!(stderr.contains("/metrics"), "{stderr}");
    assert!(stderr.contains("SIGUSR1"), "{stderr}");
}

/// Count flags are integers: a fraction, an exponent or a grid whose
/// node count overflows `u32` is a usage error, never a truncated or
/// memory-exhausting run.
#[test]
fn count_flags_reject_non_integers_and_oversized_grids() {
    for (rows, cols) in [("2.9", "3"), ("100000", "100000"), ("1e10", "1e10")] {
        let (code, stdout, stderr) =
            hotwire_status(&["coupled-signoff", "--rows", rows, "--cols", cols]);
        assert_eq!(
            code,
            Some(2),
            "--rows {rows} --cols {cols}: {stdout}{stderr}"
        );
        assert!(stdout.is_empty(), "{stdout}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    for args in [
        &["coupled-signoff", "--max-iters", "3.5"][..],
        &["serve", "--rows", "2.5"],
        &[
            "sweep", "--tech", "ntrs-250", "--layer", "M6", "--points", "4.5",
        ],
        &["rules", "--tech", "ntrs-250", "--levels", "1e1"],
    ] {
        let (code, _, stderr) = hotwire_status(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("not a non-negative integer"), "{stderr}");
    }
}

/// A grid driven until its straps melt settles at the resistivity
/// fit's limit: the bundle records `coupled.beyond_range`, never a
/// convergence, and `hotwire doctor` diagnoses thermal runaway.
#[test]
fn melted_grid_bundle_reads_thermal_runaway() {
    let dir = std::env::temp_dir().join(format!("hotwire-melt-{}", std::process::id()));
    let bundles = dir.join("b");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, _, stderr) = hotwire_status(&[
        "coupled-signoff",
        "--rows",
        "10",
        "--cols",
        "10",
        "--sink-ma",
        "80",
        "--damping",
        "1.0",
        "--bundle-dir",
        bundles.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("beyond the resistivity fit's validity limit"),
        "{stderr}"
    );
    let entries: Vec<_> = std::fs::read_dir(&bundles)
        .expect("bundle dir was created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    let doc = hotwire::obs::json::parse(&std::fs::read_to_string(&entries[0]).unwrap()).unwrap();
    let events = doc.get("events").and_then(|v| v.as_array()).unwrap();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(|v| v.as_str()))
        .collect();
    let (ok, stdout, stderr) = hotwire(&["doctor", entries[0].to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(kinds.contains(&"coupled.beyond_range"), "{kinds:?}");
    let run = events
        .iter()
        .rev()
        .find(|e| e.get("kind").and_then(|v| v.as_str()) == Some("coupled.run"))
        .and_then(|e| e.get("detail").and_then(|v| v.as_str()))
        .expect("coupled.run closes into the recorder");
    assert!(run.contains("converged=false"), "{run}");
    assert!(stdout.contains("diagnosis: thermal-runaway"), "{stdout}");
    for hint in ["--sink-ma", "wider or thicker straps", "add pads"] {
        assert!(stdout.contains(hint), "{hint}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_format_chrome_captures_a_span_tree_the_analyzer_reads() {
    use hotwire::obs::spantree::SpanTrace;

    let dir = std::env::temp_dir().join(format!("hotwire-chrome-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.chrome.json");
    let (ok, stdout, stderr) = hotwire(&[
        "coupled-signoff",
        "--rows",
        "20",
        "--cols",
        "20",
        "--trace-out",
        path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");

    let text = std::fs::read_to_string(&path).unwrap();
    let trace = SpanTrace::parse(&text).expect("chrome trace parses back");
    // The raw Trace Event stream must be balanced and well-formed: the
    // `from_chrome` parser rejects unmatched B/E, so a successful parse
    // is the balance assertion. Check the content beyond that.
    let raw = hotwire::obs::json::parse(&text).expect("chrome trace is JSON");
    assert_eq!(
        raw.get("otherData")
            .and_then(|d| d.get("telemetry"))
            .and_then(hotwire::obs::json::Json::as_bool),
        Some(true)
    );
    let iterations = trace
        .spans
        .iter()
        .filter(|s| s.name == "coupled.iteration")
        .count();
    assert!(iterations >= 2, "demo 20×20 iterates at least twice");
    for s in trace.spans.iter().filter(|s| s.name == "coupled.iteration") {
        assert!(
            s.args.iter().any(|(k, _)| k == "iteration"),
            "iteration spans carry their index: {s:?}"
        );
    }
    assert!(
        trace.spans.iter().any(|s| s.name == "coupled.em.strap"),
        "per-strap EM spans captured"
    );

    // The analyzer consumes the same file: self-time table, critical
    // path, folded stacks.
    let (ok, stdout, stderr) = hotwire(&["trace", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("self [ms]"), "{stdout}");
    assert!(stdout.contains("coupled.iteration"), "{stdout}");
    assert!(stdout.contains("critical path"), "{stdout}");
    assert!(stdout.contains("folded stacks"), "{stdout}");

    // `--folded` pipes bare `stack weight` lines for inferno/speedscope.
    let (ok, folded, _) = hotwire(&["trace", path.to_str().unwrap(), "--folded"]);
    assert!(ok);
    assert!(!folded.trim().is_empty());
    for line in folded.trim().lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("integer microsecond weight");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression test: the retained span capture must not depend on the
/// stderr level filter — `--log-level error` and `--log-level trace`
/// produce the same retained span-name multiset (the filter decides
/// what is printed, never what the trace keeps).
#[test]
fn trace_out_is_independent_of_log_level() {
    use hotwire::obs::spantree::SpanTrace;

    let dir = std::env::temp_dir().join(format!("hotwire-lvl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut multisets = Vec::new();
    for level in ["error", "trace"] {
        let path = dir.join(format!("{level}.jsonl"));
        let (ok, stdout, stderr) = hotwire(&[
            "coupled-signoff",
            "--rows",
            "12",
            "--cols",
            "12",
            "--log-level",
            level,
            "--trace-out",
            path.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ]);
        assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        let trace = SpanTrace::parse(&jsonl).unwrap();
        let mut names: Vec<String> = trace.spans.iter().map(|s| s.name.clone()).collect();
        names.sort();
        assert_eq!(jsonl_telemetry(&jsonl), Some(true));
        multisets.push(names);
    }
    assert_eq!(
        multisets[0], multisets[1],
        "the level filter must not leak into the retained trace"
    );
    assert!(
        multisets[0].iter().any(|n| n == "coupled.iteration"),
        "{multisets:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_subcommand_rejects_bad_invocations() {
    // No capture file: usage error, exit 2.
    let (code, _, stderr) = hotwire_status(&["trace"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    // A malformed file: usage error naming the file.
    let dir = std::env::temp_dir().join(format!("hotwire-badtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-a-trace.json");
    std::fs::write(&path, "this is not a trace\n").unwrap();
    let (code, _, stderr) = hotwire_status(&["trace", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("not a span trace"), "{stderr}");
    // An unbalanced Chrome stream is rejected, not silently truncated.
    let path = dir.join("unbalanced.json");
    std::fs::write(
        &path,
        "{\"traceEvents\": [{\"ph\": \"B\", \"name\": \"x\", \"ts\": 0, \"pid\": 1, \
         \"tid\": 0}, {\"ph\": \"E\", \"name\": \"x\", \"ts\": 5, \"pid\": 1, \"tid\": 0}, \
         {\"ph\": \"E\", \"name\": \"x\", \"ts\": 9, \"pid\": 1, \"tid\": 0}]}\n",
    )
    .unwrap();
    let (code, _, stderr) = hotwire_status(&["trace", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a header-only capture (what builds that
/// compiled telemetry out used to write) exits 2 with a clear message
/// instead of an empty report.
#[test]
fn trace_rejects_an_empty_capture() {
    let dir = std::env::temp_dir().join(format!("hotwire-emptytrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.jsonl");
    std::fs::write(
        &path,
        "{\"schema\": \"hotwire.spans/v1\", \"telemetry\": true}\n",
    )
    .unwrap();
    let (code, _, stderr) = hotwire_status(&["trace", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("no spans captured"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole end-to-end: force a non-converging coupled run with a
/// tolerance of 1e-9 K and a cap of 3 iterations — the iteration cap is
/// a verdict (exit 3), the flight recorder freezes into a diagnostic
/// bundle, and `hotwire doctor` renders it and classifies it
/// `not-converged` (the residual is still falling at the cap).
#[test]
fn forced_non_convergence_writes_a_bundle_doctor_reads() {
    let dir = std::env::temp_dir().join(format!("hotwire-bundle-cli-{}", std::process::id()));
    let bundles = dir.join("bundles");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, _, stderr) = hotwire_status(&[
        "coupled-signoff",
        "--rows",
        "20",
        "--cols",
        "20",
        "--damping",
        "0.05",
        "--tol",
        "1e-9",
        "--max-iters",
        "3",
        "--bundle-dir",
        bundles.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(3), "the iteration cap is a verdict: {stderr}");
    assert!(stderr.contains("diagnostic bundle:"), "{stderr}");

    let entries: Vec<_> = std::fs::read_dir(&bundles)
        .expect("bundle dir was created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "exactly one bundle: {entries:?}");
    let text = std::fs::read_to_string(&entries[0]).unwrap();
    let doc = hotwire::obs::json::parse(&text).expect("bundle is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("hotwire.bundle/v1"),
        "{text}"
    );
    assert_eq!(
        doc.get("reason").and_then(|v| v.as_str()),
        Some("violation")
    );
    assert!(
        doc.get("spec_hash")
            .and_then(|v| v.as_str())
            .is_some_and(|h| h.starts_with("fnv-")),
        "{text}"
    );
    let health = doc.get("health").expect("health embedded");
    let report =
        hotwire::obs::HealthReport::from_json(health).expect("embedded health report parses");
    assert_eq!(report.iterations, 3, "capped exactly at --max-iters");
    assert!(
        report.last_delta > report.tolerance,
        "still above tolerance"
    );

    // `doctor` renders the bundle: header, timeline, diagnosis, hints.
    let (ok, stdout, stderr) = hotwire(&["doctor", entries[0].to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("diagnostic bundle"), "{stdout}");
    assert!(stdout.contains("reason:    violation"), "{stdout}");
    assert!(stdout.contains("numerical health:"), "{stdout}");
    assert!(stdout.contains("diagnosis: not-converged"), "{stdout}");
    assert!(stdout.contains("raise --max-iters"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A clean exit must not write a bundle — the recorder only freezes on
/// failure (or an explicit SIGUSR1).
#[test]
fn successful_runs_do_not_write_bundles() {
    let dir = std::env::temp_dir().join(format!("hotwire-nobundle-{}", std::process::id()));
    let bundles = dir.join("bundles");
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, _, stderr) = hotwire(&[
        "solve",
        "--tech",
        "ntrs-250",
        "--layer",
        "M6",
        "--bundle-dir",
        bundles.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(!bundles.exists(), "no bundle dir on success");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn doctor_rejects_bad_invocations() {
    // No bundle file: usage error, exit 2.
    let (code, _, stderr) = hotwire_status(&["doctor"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    // Valid JSON that is not a bundle: exit 2 naming the schema.
    let dir = std::env::temp_dir().join(format!("hotwire-baddoctor-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-a-bundle.json");
    std::fs::write(&path, "{\"schema\": \"something/else\"}\n").unwrap();
    let (code, _, stderr) = hotwire_status(&["doctor", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("not a hotwire diagnostic bundle"),
        "{stderr}"
    );
    // Unknown flags are rejected.
    let (code, _, stderr) = hotwire_status(&["doctor", "--bogus", "x"]);
    assert_eq!(code, Some(2), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `hotwire doctor` diagnoses `ill-conditioned` from the health block's
/// condition number: κ 1e14 is, κ 1e3 is not.
#[test]
fn doctor_flags_an_ill_conditioned_bundle() {
    let dir = std::env::temp_dir().join(format!("hotwire-illcond-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The last bundle was written before the health block lost its
    // `pivot_growth` key: it still parses, and the key no longer makes a
    // verdict.
    for (kappa, extra, ill) in [
        (1e14, "", true),
        (1e3, "", false),
        (1e3, ", \"pivot_growth\": 1e9", false),
    ] {
        let path = dir.join(format!("kappa-{kappa:e}-{}.json", extra.len()));
        let bundle = format!(
            "{{\"schema\": \"hotwire.bundle/v1\", \"reason\": \"error\", \
             \"detail\": \"synthetic\", \"health\": {{\"class\": \"converging\", \
             \"contraction\": 0.5, \"iterations\": 4, \"last_delta\": 1e-3, \
             \"tolerance\": 0.05, \"condition_estimate\": {kappa:e}{extra}}}}}\n"
        );
        std::fs::write(&path, bundle).unwrap();
        let (ok, stdout, stderr) = hotwire(&["doctor", path.to_str().unwrap()]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("numerical health:"), "{stdout}");
        assert!(!stdout.contains("pivot growth"), "{stdout}");
        assert_eq!(
            stdout.contains("diagnosis: ill-conditioned"),
            ill,
            "κ {kappa:e}{extra}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
