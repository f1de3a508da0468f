//! The `hotwire` command-line tool: thermally-aware interconnect
//! design-rule queries from the shell.
//!
//! ```text
//! hotwire solve    --tech ntrs-250 --layer M6 --dielectric HSQ --r 0.1
//! hotwire rules    --tech ntrs-100 --j0 1.8e6 --levels 2
//! hotwire sweep    --tech ntrs-250 --layer M6 --points 17        # CSV
//! hotwire repeater --tech ntrs-250 --layer M6
//! hotwire esd      --stress hbm:2000 --width-um 3 --metal alcu
//! hotwire techfile --tech ntrs-250                               # dump
//! hotwire serve    --addr 127.0.0.1:9184                         # HTTP
//! ```
//!
//! `--tech` accepts the built-in presets (`ntrs-250`, `ntrs-100`,
//! `ntrs-250-alcu`, `ntrs-100-alcu`) or a path to a tech file.
//!
//! Every command additionally understands the observability flags
//! (`docs/OBSERVABILITY.md`): `--log-level error|warn|info|debug|trace`
//! and `--log-format text|json` control diagnostic events on stderr,
//! and `--metrics-out <path>` dumps the process-wide metrics snapshot
//! as JSON after the command runs. `--trace-out <path>` captures the
//! span tree of the run (every command but `serve`, whose capture
//! would grow with every request): `--trace-format jsonl` (retained
//! span records, the default) or `chrome` (Trace Event JSON loadable in
//! Perfetto / `chrome://tracing`). On `coupled-signoff` the capture
//! holds the convergence history: each `coupled.iteration` span's args
//! carry its `max_delta_t_k`, `peak_temperature_k` and
//! `worst_ir_drop_v`, and `coupled.run` closes with `converged`,
//! `tolerance_k` and `damping`. `hotwire trace <capture>` analyzes a
//! captured span tree: self-time per span name, slowest-child critical
//! paths (with each root span's args), and folded stacks for flamegraph
//! tools. The span capture is independent of `--log-level`; the level
//! filter decides what is printed on stderr, never what the retained
//! trace keeps.
//!
//! Exit codes: 0 success, 1 internal/solver failure, 2 usage error,
//! 3 signoff violation.

use std::collections::HashMap;
use std::fmt;
use std::process::ExitCode;

use hotwire::circuit::repeater::{optimal_design, simulate_repeater, RepeaterSimOptions};
use hotwire::core::rules::{layer_stack, DesignRuleSpec, DesignRuleTable};
use hotwire::core::signoff::{ranked_violations, signoff, NetSpec, SignoffConfig};
use hotwire::core::sweep::{duty_cycle_sweep, log_spaced};
use hotwire::core::SelfConsistentProblem;
use hotwire::coupled::{CoupledEngine, CoupledError, CoupledGridSpec, CoupledOptions};
use hotwire::esd::{check_robustness, EsdStress};
use hotwire::obs::json::Json;
use hotwire::obs::{LogConfig, LogFormat};
use hotwire::tech::{format as techformat, presets, Dielectric, Metal, Technology};
use hotwire::thermal::impedance::{InsulatorStack, LineGeometry, QUASI_2D_PHI};
use hotwire::units::{Celsius, CurrentDensity, Length, Seconds};

/// Graceful-shutdown plumbing for `hotwire serve`: SIGINT/SIGTERM set a
/// flag that the server's control thread polls; it then wakes the
/// workers blocked in `accept()`, lets them finish their requests in
/// flight, and the process exits 0 instead of dying mid-response. Every
/// other command gets SIGPIPE's default disposition back, so a closed
/// stdout (`hotwire sweep | head`) ends it quietly.
///
/// Installed with the raw C `signal(2)` — the workspace has no `libc`
/// crate (offline build), and the constants below are part of the
/// Linux/POSIX ABI this binary targets. This is the only unsafe in the
/// workspace; every library crate stays `#![forbid(unsafe_code)]`.
mod shutdown {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::sync::OnceLock;

    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIGUSR1: i32 = 10;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    fn flag_cell() -> &'static Arc<AtomicBool> {
        static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
        FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)))
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only the async-signal-safe store; everything else reacts to it.
        // SAFETY(ordering): SeqCst store from a signal handler — the
        // server's control thread must observe it, and handlers run
        // rarely enough that the fence cost is irrelevant.
        flag_cell().store(true, Ordering::SeqCst);
    }

    extern "C" fn on_usr1(_signum: i32) {
        // Again only an atomic store: the server's control thread polls
        // this flag and writes the diagnostic bundle outside the handler.
        // SAFETY(ordering): same as on_signal — SeqCst store, polled
        // outside the handler, no surrounding data to order against.
        hotwire::serve::dump_flag().store(true, Ordering::SeqCst);
    }

    /// Installs the handlers (idempotent) and returns the shared flag.
    pub fn install() -> Arc<AtomicBool> {
        let flag = Arc::clone(flag_cell());
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        flag
    }

    /// Installs the SIGUSR1 → bundle-dump handler (`hotwire serve`).
    pub fn install_usr1() {
        let handler = on_usr1 as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGUSR1, handler);
        }
    }

    /// Restores SIGPIPE's default disposition, which the Rust runtime
    /// sets to ignore before `main`: a write to a closed pipe then ends
    /// the process instead of surfacing as a panicking `println!`.
    pub fn restore_sigpipe() {
        // SAFETY: SIG_DFL installs no handler code, so nothing runs in
        // signal context; `signal` only swaps the process disposition.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

/// Cross-cutting bundle state: the last numerical-health report a
/// command produced, so the error-exit bundle writer in [`run`] can
/// embed it without every command threading it back explicitly.
mod bundle_state {
    use std::sync::Mutex;

    use hotwire::obs::json::Json;

    static LAST_HEALTH: Mutex<Option<Json>> = Mutex::new(None);

    /// Stores the most recent health report (overwrites the previous).
    pub fn set_health(health: Json) {
        if let Ok(mut guard) = LAST_HEALTH.lock() {
            *guard = Some(health);
        }
    }

    /// Takes the stored report, leaving `None`.
    pub fn take_health() -> Option<Json> {
        LAST_HEALTH.lock().ok().and_then(|mut g| g.take())
    }
}

/// FNV-1a fingerprint of the resolved invocation (command + flags), so
/// bundles from different workloads are tellable apart at a glance.
fn spec_hash(args: &[String]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for arg in args {
        for b in arg.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x1f; // unit separator between args
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv-{hash:016x}")
}

/// Exit code of a usage error (bad flags, unknown command).
const EXIT_USAGE: u8 = 2;
/// Exit code when the analysis ran but the design fails its rules.
const EXIT_VIOLATION: u8 = 3;
/// Exit code of an internal/solver failure.
const EXIT_INTERNAL: u8 = 1;

/// A classified CLI failure, so scripts can tell "you typed it wrong"
/// (exit 2) from "the design fails signoff" (exit 3) from "the engine
/// could not produce an answer" (exit 1).
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command, missing/unparsable flag.
    Usage(String),
    /// The command ran to completion and the design violates its rules.
    Violation(String),
    /// The engine failed; carries the typed error so the full
    /// `source()` chain reaches the error report.
    Internal(Box<dyn std::error::Error>),
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self::Usage(message.into())
    }

    fn violation(message: impl Into<String>) -> Self {
        Self::Violation(message.into())
    }

    fn internal(e: impl std::error::Error + 'static) -> Self {
        Self::Internal(Box::new(e))
    }

    /// Wraps `e` with a context line while keeping it as `source()`.
    fn context(message: impl Into<String>, e: impl std::error::Error + 'static) -> Self {
        Self::Internal(Box::new(ContextError {
            context: message.into(),
            source: Box::new(e),
        }))
    }

    fn exit_code(&self) -> u8 {
        match self {
            Self::Usage(_) => EXIT_USAGE,
            Self::Violation(_) => EXIT_VIOLATION,
            Self::Internal(_) => EXIT_INTERNAL,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Self::Usage(_) => "usage",
            Self::Violation(_) => "violation",
            Self::Internal(_) => "internal",
        }
    }

    /// The `source()` chain below the top-level message, outermost
    /// first (empty for usage/violation errors).
    fn causes(&self) -> Vec<String> {
        let mut chain = Vec::new();
        if let Self::Internal(e) = self {
            let mut cursor = e.source();
            while let Some(cause) = cursor {
                chain.push(cause.to_string());
                cursor = cause.source();
            }
        }
        chain
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(m) | Self::Violation(m) => f.write_str(m),
            Self::Internal(e) => write!(f, "{e}"),
        }
    }
}

/// An error wrapped with a human context line; the wrapped error stays
/// reachable through `source()` for the caused-by report.
#[derive(Debug)]
struct ContextError {
    context: String,
    source: Box<dyn std::error::Error>,
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.context)
    }
}

impl std::error::Error for ContextError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

/// Renders a failure on stderr: classic `error:` lines (plus the
/// `caused by:` chain) in text mode, one structured JSONL event in
/// json mode.
fn report_error(err: &CliError, format: LogFormat) {
    let causes = err.causes();
    match format {
        LogFormat::Text => {
            eprintln!("error: {err}");
            for cause in &causes {
                eprintln!("  caused by: {cause}");
            }
        }
        LogFormat::Json => {
            let event = Json::object([
                ("level", Json::from("error")),
                ("target", Json::from("hotwire")),
                ("msg", Json::from(err.to_string())),
                ("kind", Json::from(err.kind())),
                (
                    "cause",
                    Json::Arr(causes.into_iter().map(Json::from).collect()),
                ),
            ]);
            eprintln!("{event}");
        }
    }
}

/// Extracts `--log-level` / `--log-format` from the raw argument list
/// (they ride in the same `--flag value` stream as everything else, but
/// the subscriber must be installed before the command dispatches).
fn log_config(args: &[String]) -> Result<LogConfig, CliError> {
    let mut config = LogConfig::default();
    for pair in args.windows(2) {
        match pair[0].as_str() {
            "--log-level" => config.level = pair[1].parse().map_err(CliError::Usage)?,
            "--log-format" => config.format = pair[1].parse().map_err(CliError::Usage)?,
            _ => {}
        }
    }
    Ok(config)
}

/// The `--bundle-dir` value, pulled from the raw argument stream (the
/// panic hook must know it before the flag parser runs).
fn bundle_dir(args: &[String]) -> Option<String> {
    args.windows(2)
        .find(|pair| pair[0] == "--bundle-dir")
        .map(|pair| pair[1].clone())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` keeps SIGPIPE ignored: a client that hangs up is an EPIPE
    // on its socket, not a dead server.
    if args.first().map(String::as_str) != Some("serve") {
        shutdown::restore_sigpipe();
    }
    let config = match log_config(&args) {
        Ok(config) => config,
        Err(e) => {
            report_error(&e, LogFormat::Text);
            return ExitCode::from(e.exit_code());
        }
    };
    hotwire::obs::trace::init(config);
    if let Some(dir) = bundle_dir(&args) {
        // A panic is the one failure the error-exit writer in run()
        // cannot see — freeze the flight recorder from the hook itself.
        let hash = spec_hash(&args);
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let detail = info.to_string();
            match hotwire::obs::recorder::write_bundle(&dir, "panic", &detail, None, Some(&hash)) {
                Ok(path) => eprintln!("diagnostic bundle: {path}"),
                Err(e) => eprintln!("error: cannot write panic bundle: {e}"),
            }
            default_hook(info);
        }));
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            report_error(&e, config.format);
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(());
    };
    // `trace` and `doctor` take positional files, which the strict
    // `--flag value` parser below would reject — dispatch them first.
    if command == "trace" {
        return cmd_trace(&args[1..]);
    }
    if command == "doctor" {
        return cmd_doctor(&args[1..]);
    }
    let opts = parse_flags(&args[1..])?;
    // `--trace-out` writes the span capture: JSONL, or Chrome Trace
    // Event JSON for Perfetto.
    let chrome = match opts.get("trace-format").map(String::as_str) {
        None | Some("jsonl") => false,
        Some("chrome") => true,
        Some(other) => {
            return Err(CliError::usage(format!(
                "--trace-format: unknown format `{other}` (jsonl|chrome)"
            )))
        }
    };
    if opts.contains_key("trace-out") {
        if command == "serve" {
            return Err(CliError::usage(
                "--trace-out is not available on serve: its capture would grow with every \
                 request until shutdown; scrape GET /metrics, or send SIGUSR1 for a \
                 diagnostic bundle (with --bundle-dir)",
            ));
        }
        hotwire::obs::spantree::capture_start();
    }
    let result = match command.as_str() {
        "solve" => cmd_solve(&opts),
        "rules" => cmd_rules(&opts),
        "sweep" => cmd_sweep(&opts),
        "repeater" => cmd_repeater(&opts),
        "esd" => cmd_esd(&opts),
        "signoff" => cmd_signoff(&opts),
        "coupled-signoff" => cmd_coupled_signoff(&opts),
        "tree-signoff" => cmd_tree_signoff(&opts),
        "serve" => cmd_serve(&opts),
        "simulate" => cmd_simulate(&opts),
        "techfile" => cmd_techfile(&opts),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}` (try `hotwire help`)"
        ))),
    };
    // The metrics snapshot is a post-mortem artifact: write it whenever
    // the command actually ran, violations and solver failures
    // included. Only a usage error (nothing executed) skips it.
    let metrics = match (&result, opts.get("metrics-out")) {
        (Err(CliError::Usage(_)), _) | (_, None) => Ok(()),
        (_, Some(path)) => write_json_file(path, &hotwire::obs::metrics::snapshot().to_json()),
    };
    // Same policy for the span trace: a failed signoff is exactly when
    // the profile matters, so only a usage error skips the write.
    let trace = match (&result, opts.get("trace-out")) {
        (Err(CliError::Usage(_)), _) | (_, None) => Ok(()),
        (_, Some(path)) => {
            let captured = hotwire::obs::spantree::capture_take();
            if chrome {
                write_json_file(path, &captured.to_chrome())
            } else {
                std::fs::write(path, captured.to_jsonl())
                    .map_err(|e| CliError::context(format!("cannot write {path}"), e))
            }
        }
    };
    let outcome = result.and(metrics).and(trace);
    // Error-path exits (internal failure or signoff violation) freeze
    // the flight recorder into a diagnostic bundle when the operator
    // gave us somewhere to put it. A usage error recorded nothing worth
    // bundling.
    if let (Err(e), Some(dir)) = (&outcome, opts.get("bundle-dir")) {
        if !matches!(e, CliError::Usage(_)) {
            let health = bundle_state::take_health();
            let hash = spec_hash(args);
            match hotwire::obs::recorder::write_bundle(
                dir,
                e.kind(),
                &e.to_string(),
                health.as_ref(),
                Some(&hash),
            ) {
                Ok(path) => eprintln!("diagnostic bundle: {path}"),
                Err(we) => eprintln!("error: cannot write bundle to {dir}: {we}"),
            }
        }
    }
    outcome
}

/// Writes pretty-printed JSON (with a trailing newline) to `path`.
fn write_json_file(path: &str, json: &Json) -> Result<(), CliError> {
    std::fs::write(path, format!("{}\n", json.to_pretty_string()))
        .map_err(|e| CliError::context(format!("cannot write {path}"), e))
}

fn print_help() {
    println!(
        "hotwire — self-consistent EM + self-heating interconnect design rules\n\
         (reproduction of Banerjee et al., DAC 1999)\n\n\
         usage: hotwire <command> [--flag value]...\n\n\
         commands:\n\
           solve     one self-consistent solve for a layer\n\
                     --tech <preset|path> --layer <name> [--dielectric <name>]\n\
                     [--r <duty>] [--j0 <A/cm²>] [--length-um <L>] [--phi <φ>]\n\
           rules     a Tables 2-4 style design-rule grid\n\
                     --tech <preset|path> [--j0 <A/cm²>] [--levels <n>]\n\
           sweep     Fig. 2 duty-cycle sweep as CSV on stdout\n\
                     --tech <preset|path> --layer <name> [--points <n>]\n\
           repeater  eq. (16)/(17) buffer plan + simulated currents\n\
                     --tech <preset|path> --layer <name>\n\
           esd       single-pulse robustness of a line\n\
                     --stress hbm:<V>|mm:<V>|cdm:<A>|tlp:<A>:<ns> --width-um <W>\n\
                     [--thickness-um <t>] [--metal cu|alcu]\n\
           signoff   composite rule check of a net list (CSV)\n\
                     --tech <preset|path> --nets <csv>\n\
                     (columns: name,layer,width_um,length_um,duty_cycle,j_peak_ma_cm2)\n\
           coupled-signoff\n\
                     chip-level coupled IR-thermal-EM power-grid signoff\n\
                     [--rows <n>] [--cols <n>] [--pitch-um <p>] [--width-um <W>]\n\
                     [--thickness-um <t>] [--tox-um <t>] [--dielectric <name>]\n\
                     [--metal cu|alcu] [--vdd <V>] [--sink-ma <I>] [--ref-c <T>]\n\
                     [--pads r:c,r:c,...] [--tol <K>] [--max-iters <n>]\n\
                     [--damping <a>] [--sigma <s>] [--quantile <f>]\n\
                     (--damping: relaxation α in (0, 1] of the Anderson-mixed\n\
                     temperature update, default 0.7)\n\
           tree-signoff\n\
                     Korhonen stress-evolution EM signoff of supply trees\n\
                     extracted from a SPICE-subset netlist (resistor trees\n\
                     fed by V-sources, loads as I-sources)\n\
                     --netlist <path> [--width-um <W>] [--thickness-um <t>]\n\
                     [--metal cu|alcu] [--temp-c <T>] [--horizon-years <y>]\n\
                     [--steady-only true] [--sigma <s>] [--quantile <f>]\n\
           serve     HTTP observability endpoint (blocks until SIGTERM/ctrl-c)\n\
                     [--addr <ip:port>] [--threads <1-256>] plus the\n\
                     coupled-signoff grid flags (template for POST /signoff);\n\
                     serves GET /metrics (Prometheus 0.0.4), GET /healthz,\n\
                     POST /signoff (optional JSON body {{\"rows\": n, \"cols\": n}})\n\
           simulate  transient-simulate a SPICE-subset netlist\n\
                     --netlist <path> --tstop <seconds> [--dt <seconds>]\n\
                     [--probe <node>[,<node>...]] (CSV on stdout)\n\
           techfile  dump a technology as a tech file\n\
                     --tech <preset|path>\n\
           trace     analyze a span trace captured with --trace-out\n\
                     <capture> [--folded] [--critical-path <name>]\n\
                     (self-time table + critical paths + folded stacks;\n\
                     --folded emits only inferno/speedscope folded lines)\n\
           doctor    analyze a diagnostic bundle written by --bundle-dir\n\
                     <bundle.json> (timeline + health summary + failure\n\
                     classification + remediation hints)\n\n\
         observability (any command):\n\
           --log-level error|warn|info|debug|trace   stderr event threshold\n\
           --log-format text|json                    event rendering (JSONL)\n\
           --metrics-out <path>                      metrics snapshot (JSON)\n\
           --trace-out <path>                        span tree of the run\n\
                     (not on serve: scrape /metrics or SIGUSR1 a bundle)\n\
           --trace-format jsonl|chrome               span records (default) or\n\
                     Perfetto-loadable Chrome Trace Event JSON\n\
           --bundle-dir <dir>                        on error exit, panic, a\n\
                     serve 500, or SIGUSR1 (serve), freeze the flight\n\
                     recorder + metrics + health into a diagnostic bundle\n\
                     JSON there (analyze with `hotwire doctor`)\n\n\
         exit codes: 0 ok, 1 internal failure, 2 usage, 3 signoff violation\n\n\
         presets: ntrs-250, ntrs-100, ntrs-250-alcu, ntrs-100-alcu"
    );
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::usage(format!("expected a --flag, got `{}`", args[i])))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
        map.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn flag<'a>(opts: &'a Flags, key: &str) -> Result<&'a str, CliError> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("missing required flag --{key}")))
}

fn flag_or<'a>(opts: &'a Flags, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map_or(default, String::as_str)
}

/// A count flag (`--rows`, `--points`, …): anything but a non-negative
/// integer — `2.9`, `1e10`, `-3` — is a usage error, never truncated.
fn parse_count(opts: &Flags, key: &str, default: usize) -> Result<usize, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| CliError::usage(format!("--{key}: `{v}` is not a non-negative integer"))),
    }
}

fn parse_f64(opts: &Flags, key: &str, default: f64) -> Result<f64, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| CliError::usage(format!("--{key}: `{v}` is not a number"))),
    }
}

fn load_tech(opts: &Flags) -> Result<Technology, CliError> {
    let spec = flag(opts, "tech")?;
    match spec {
        "ntrs-250" | "ntrs-0.25um" => Ok(presets::ntrs_250nm()),
        "ntrs-100" | "ntrs-0.1um" => Ok(presets::ntrs_100nm()),
        "ntrs-250-alcu" => Ok(presets::ntrs_250nm_alcu()),
        "ntrs-100-alcu" => Ok(presets::ntrs_100nm_alcu()),
        path => techformat::read_file(path)
            .map_err(|e| CliError::context(format!("cannot load tech file {path}"), e)),
    }
}

fn pick_dielectric(opts: &Flags) -> Result<Dielectric, CliError> {
    let name = flag_or(opts, "dielectric", "oxide");
    Dielectric::builtin(name).ok_or_else(|| CliError::usage(format!("unknown dielectric `{name}`")))
}

fn build_problem(
    opts: &Flags,
    tech: &Technology,
) -> Result<(SelfConsistentProblem, String), CliError> {
    let layer_name = flag(opts, "layer")?;
    let layer = tech
        .layer(layer_name)
        .ok_or_else(|| CliError::usage(format!("technology has no layer `{layer_name}`")))?;
    let dielectric = pick_dielectric(opts)?;
    let r = parse_f64(opts, "r", 0.1)?;
    let length = Length::from_micrometers(parse_f64(opts, "length-um", 1000.0)?);
    let phi = parse_f64(opts, "phi", QUASI_2D_PHI)?;
    let mut metal = tech.metal().clone();
    if let Some(j0) = opts.get("j0") {
        let v = j0
            .parse::<f64>()
            .map_err(|_| CliError::usage(format!("--j0: `{j0}` is not a number")))?;
        metal = metal.with_design_rule_j0(CurrentDensity::from_amps_per_cm2(v));
    }
    let problem = SelfConsistentProblem::builder()
        .metal(metal)
        .line(
            LineGeometry::new(layer.width(), layer.thickness(), length)
                .map_err(CliError::internal)?,
        )
        .stack(layer_stack(tech, layer.index(), &dielectric).map_err(CliError::internal)?)
        .phi(phi)
        .duty_cycle(r)
        .reference_temperature(tech.reference_temperature())
        .build()
        .map_err(CliError::internal)?;
    Ok((problem, format!("{layer_name}/{}", dielectric.name())))
}

fn cmd_solve(opts: &Flags) -> Result<(), CliError> {
    let tech = load_tech(opts)?;
    let (problem, label) = build_problem(opts, &tech)?;
    let sol = problem.solve().map_err(CliError::internal)?;
    println!("{} {label} @ r = {}", tech.name(), problem.duty_cycle());
    println!("  T_m      = {:.2}", sol.metal_temperature.to_celsius());
    println!("  ΔT       = {:.2}", sol.temperature_rise);
    println!(
        "  j_peak   = {:.3} MA/cm²   (EM-only would allow {:.3})",
        sol.j_peak.to_mega_amps_per_cm2(),
        problem.em_only_peak().to_mega_amps_per_cm2()
    );
    println!(
        "  j_rms    = {:.3} MA/cm²",
        sol.j_rms.to_mega_amps_per_cm2()
    );
    println!(
        "  j_avg    = {:.3} MA/cm²",
        sol.j_avg.to_mega_amps_per_cm2()
    );
    Ok(())
}

fn cmd_rules(opts: &Flags) -> Result<(), CliError> {
    let tech = load_tech(opts)?;
    let j0 = CurrentDensity::from_amps_per_cm2(parse_f64(opts, "j0", 6.0e5)?);
    let levels = parse_count(opts, "levels", 2)?;
    let spec = DesignRuleSpec::paper_defaults(&tech, levels, j0);
    let table = DesignRuleTable::generate(&spec).map_err(CliError::internal)?;
    println!(
        "{} — max allowed j_peak [MA/cm²], j0 = {:.2e} A/cm²\n",
        tech.name(),
        j0.to_amps_per_cm2()
    );
    print!("{table}");
    Ok(())
}

fn cmd_sweep(opts: &Flags) -> Result<(), CliError> {
    let tech = load_tech(opts)?;
    let (problem, _) = build_problem(opts, &tech)?;
    let points = parse_count(opts, "points", 17)?;
    let rs = log_spaced(1.0e-4, 1.0, points.max(2));
    let sweep = duty_cycle_sweep(&problem, &rs).map_err(CliError::internal)?;
    println!("r,metal_temperature_c,j_peak_ma_cm2,em_only_peak_ma_cm2");
    for p in sweep {
        println!(
            "{:.6e},{:.3},{:.4},{:.4}",
            p.duty_cycle,
            p.solution.metal_temperature.to_celsius().value(),
            p.solution.j_peak.to_mega_amps_per_cm2(),
            p.em_only_peak.to_mega_amps_per_cm2()
        );
    }
    Ok(())
}

fn cmd_repeater(opts: &Flags) -> Result<(), CliError> {
    let tech = load_tech(opts)?;
    let layer_name = flag(opts, "layer")?;
    let layer = tech
        .layer(layer_name)
        .ok_or_else(|| CliError::usage(format!("technology has no layer `{layer_name}`")))?;
    let design = optimal_design(&tech, layer.index()).map_err(CliError::internal)?;
    println!("{} {layer_name} — delay-optimal buffering:", tech.name());
    println!(
        "  l_opt = {:.2} mm, s_opt = {:.0}×min, est. stage delay {:.1} ps",
        design.l_opt.value() * 1e3,
        design.s_opt,
        design.stage_delay * 1e12
    );
    let report = simulate_repeater(&tech, layer.index(), RepeaterSimOptions::default())
        .map_err(CliError::internal)?;
    println!(
        "  simulated: j_peak {:.2} MA/cm², j_rms {:.2} MA/cm², r_eff {:.3}, slew {:.3}",
        report.j_peak().to_mega_amps_per_cm2(),
        report.j_rms().to_mega_amps_per_cm2(),
        report.effective_duty_cycle,
        report.relative_slew
    );
    Ok(())
}

fn parse_stress(spec: &str) -> Result<EsdStress, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<f64, CliError> {
        s.parse::<f64>()
            .map_err(|_| CliError::usage(format!("`{s}` is not a number in stress spec `{spec}`")))
    };
    match parts.as_slice() {
        ["hbm", v] => Ok(EsdStress::human_body(num(v)?)),
        ["mm", v] => Ok(EsdStress::machine(num(v)?)),
        ["cdm", a] => Ok(EsdStress::charged_device(num(a)?)),
        ["tlp", a, ns] => Ok(EsdStress::tlp(num(a)?, Seconds::from_nanos(num(ns)?))),
        _ => Err(CliError::usage(format!(
            "bad stress `{spec}` (expected hbm:<V>, mm:<V>, cdm:<A>, tlp:<A>:<ns>)"
        ))),
    }
}

fn cmd_esd(opts: &Flags) -> Result<(), CliError> {
    let stress = parse_stress(flag(opts, "stress")?)?;
    let width = Length::from_micrometers(parse_f64(opts, "width-um", 3.0)?);
    let thickness = Length::from_micrometers(parse_f64(opts, "thickness-um", 0.55)?);
    let metal_name = flag_or(opts, "metal", "alcu");
    let metal = Metal::builtin(metal_name)
        .ok_or_else(|| CliError::usage(format!("unknown metal `{metal_name}`")))?;
    let line = LineGeometry::new(width, thickness, Length::from_micrometers(150.0))
        .map_err(CliError::internal)?;
    let stack = InsulatorStack::single(
        Length::from_micrometers(parse_f64(opts, "tox-um", 1.2)?),
        &Dielectric::oxide(),
    );
    let verdict = check_robustness(
        &metal,
        line,
        &stack,
        QUASI_2D_PHI,
        Celsius::new(parse_f64(opts, "ambient-c", 25.0)?).to_kelvin(),
        &stress,
    )
    .map_err(CliError::internal)?;
    println!(
        "{} line {:.2} × {:.2} µm under {stress:?}:",
        metal.name(),
        width.to_micrometers(),
        thickness.to_micrometers()
    );
    println!(
        "  outcome {:?}, peak {:.0} °C, j_peak {:.1} MA/cm², EM lifetime ×{:.2}",
        verdict.outcome,
        verdict.peak_temperature.to_celsius().value(),
        verdict.peak_density.to_mega_amps_per_cm2(),
        verdict.em_lifetime_factor
    );
    Ok(())
}

fn parse_nets_csv(text: &str) -> Result<Vec<NetSpec>, CliError> {
    let mut nets = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || (idx == 0 && line.starts_with("name")) {
            continue;
        }
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        if cols.len() != 6 {
            return Err(CliError::usage(format!(
                "nets csv line {}: expected 6 columns, got {}",
                idx + 1,
                cols.len()
            )));
        }
        let num = |k: usize| -> Result<f64, CliError> {
            cols[k].parse::<f64>().map_err(|_| {
                CliError::usage(format!(
                    "nets csv line {}: `{}` is not a number",
                    idx + 1,
                    cols[k]
                ))
            })
        };
        nets.push(NetSpec {
            name: cols[0].to_owned(),
            layer: cols[1].to_owned(),
            width: Length::from_micrometers(num(2)?),
            length: Length::from_micrometers(num(3)?),
            duty_cycle: num(4)?,
            j_peak: CurrentDensity::from_mega_amps_per_cm2(num(5)?),
        });
    }
    if nets.is_empty() {
        return Err(CliError::usage("nets csv contains no nets"));
    }
    Ok(nets)
}

fn cmd_signoff(opts: &Flags) -> Result<(), CliError> {
    let tech = load_tech(opts)?;
    let path = flag(opts, "nets")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::context(format!("cannot read {path}"), e))?;
    let nets = parse_nets_csv(&text)?;
    let mut config = SignoffConfig {
        intra_dielectric: pick_dielectric(opts)?,
        ..SignoffConfig::paper_defaults()
    };
    if let Some(j0) = opts.get("j0") {
        let v = j0
            .parse::<f64>()
            .map_err(|_| CliError::usage(format!("--j0: `{j0}` is not a number")))?;
        config.j0 = CurrentDensity::from_amps_per_cm2(v);
    }
    let verdicts = signoff(&tech, &config, &nets).map_err(CliError::internal)?;
    println!(
        "{:<16}{:>8}{:>18}{:>14}{:>18}{:>10}",
        "net", "layer", "allowed [MA/cm²]", "utilization", "governing", "verdict"
    );
    for (v, n) in verdicts.iter().zip(&nets) {
        println!(
            "{:<16}{:>8}{:>18.2}{:>14.2}{:>18}{:>10}",
            v.net,
            n.layer,
            v.allowed_j_peak.to_mega_amps_per_cm2(),
            v.utilization,
            v.governing.label(),
            if v.passes() { "pass" } else { "VIOLATION" },
        );
    }
    let violations = ranked_violations(&verdicts);
    if violations.is_empty() {
        println!("all {} nets pass", verdicts.len());
        Ok(())
    } else {
        println!(
            "worst offender: {} ({:.2}×)",
            violations[0].net, violations[0].utilization
        );
        Err(CliError::violation(format!(
            "{} net(s) violate their rules",
            violations.len()
        )))
    }
}

fn parse_pads(spec: &str, rows: usize, cols: usize) -> Result<Vec<(usize, usize)>, CliError> {
    let mut pads = Vec::new();
    for part in spec.split(',') {
        let (r, c) = part
            .split_once(':')
            .ok_or_else(|| CliError::usage(format!("bad pad `{part}` (expected row:col)")))?;
        let parse = |s: &str| -> Result<usize, CliError> {
            s.trim()
                .parse::<usize>()
                .map_err(|_| CliError::usage(format!("bad pad index `{s}` in `{part}`")))
        };
        let (r, c) = (parse(r)?, parse(c)?);
        if r >= rows || c >= cols {
            return Err(CliError::usage(format!(
                "pad {r}:{c} outside the {rows}×{cols} grid"
            )));
        }
        pads.push((r, c));
    }
    Ok(pads)
}

/// Maps a coupled-engine failure: a rejected spec is the user's input
/// (usage), everything else is the solver's problem (internal).
fn coupled_error(e: CoupledError) -> CliError {
    match e {
        CoupledError::InvalidSpec { message } => CliError::usage(message),
        // The iteration cap is a verdict, not an engine failure: the
        // analysis ran and the design failed to settle within budget —
        // exit 3, like any other failed signoff.
        e @ CoupledError::NotConverged { .. } => CliError::violation(e.to_string()),
        other => CliError::internal(other),
    }
}

/// Builds the coupled grid spec + solver options from the shared flag
/// set (`coupled-signoff` and `serve` accept the same grid flags, with
/// per-command defaults for the grid size).
fn coupled_setup(
    opts: &Flags,
    default_edge: usize,
) -> Result<(CoupledGridSpec, CoupledOptions), CliError> {
    let (rows, cols) = (
        parse_count(opts, "rows", default_edge)?,
        parse_count(opts, "cols", default_edge)?,
    );
    let metal_name = flag_or(opts, "metal", "cu");
    let metal = Metal::builtin(metal_name)
        .ok_or_else(|| CliError::usage(format!("unknown metal `{metal_name}`")))?;
    let mut spec = CoupledGridSpec {
        metal,
        dielectric: pick_dielectric(opts)?,
        ..CoupledGridSpec::demo(rows, cols)
    };
    spec.pitch = Length::from_micrometers(parse_f64(opts, "pitch-um", 100.0)?);
    spec.strap_width = Length::from_micrometers(parse_f64(opts, "width-um", 2.0)?);
    spec.strap_thickness = Length::from_micrometers(parse_f64(opts, "thickness-um", 0.8)?);
    spec.dielectric_thickness = Length::from_micrometers(parse_f64(opts, "tox-um", 1.0)?);
    spec.phi = parse_f64(opts, "phi", QUASI_2D_PHI)?;
    spec.vdd = hotwire::units::Voltage::new(parse_f64(opts, "vdd", 2.5)?);
    spec.sink_per_node = hotwire::units::Current::from_milliamps(parse_f64(opts, "sink-ma", 0.2)?);
    spec.reference_temperature = Celsius::new(parse_f64(opts, "ref-c", 100.0)?).to_kelvin();
    if let Some(pads) = opts.get("pads") {
        spec.pads = parse_pads(pads, rows, cols)?;
    }
    let options = CoupledOptions {
        tolerance: parse_f64(opts, "tol", 0.05)?,
        max_iterations: parse_count(opts, "max-iters", 100)?,
        damping: parse_f64(opts, "damping", 0.7)?,
        sigma: parse_f64(opts, "sigma", 0.5)?,
        failure_quantile: parse_f64(opts, "quantile", 1.0e-3)?,
        ..CoupledOptions::default()
    };
    Ok((spec, options))
}

fn cmd_coupled_signoff(opts: &Flags) -> Result<(), CliError> {
    let (spec, options) = coupled_setup(opts, 50)?;
    let (rows, cols) = (spec.rows, spec.cols);
    let options_quantile = options.failure_quantile;
    let mut engine = CoupledEngine::new(spec, options).map_err(coupled_error)?;
    let outcome = engine.run().and_then(|()| engine.assess());
    // Whatever happens next, the health report (Picard rate fit,
    // condition number, residuals) is ready for an error-exit bundle:
    // the report's own on success, a fresh one only on failure, so a run
    // pays for one condition-number solve.
    let health = match &outcome {
        Ok(report) => report.health.to_json(),
        Err(_) => engine.health_report().to_json(),
    };
    bundle_state::set_health(health);
    let report = outcome.map_err(coupled_error)?;
    println!(
        "{rows}×{cols} grid: fixed point in {} iterations (last max |dT| = {:.3e} K)",
        report.iterations,
        report.trace.records.last().map_or(0.0, |r| r.max_delta_t)
    );
    println!(
        "  worst IR drop  = {:.1} mV at node ({}, {})",
        report.worst_ir_drop.value() * 1e3,
        report.worst_node.0,
        report.worst_node.1
    );
    println!(
        "  peak strap T   = {:.2} ({:.2})",
        report.peak_temperature.to_celsius(),
        report.peak_temperature
    );
    match report.chip_ttf {
        Some(ttf) => println!(
            "  chip TTF       = {:.2e} h at the {:.0e} failure quantile ({} mortal straps)",
            ttf.value() / 3600.0,
            options_quantile,
            report
                .chip_failure
                .as_ref()
                .map_or(0, hotwire::em::lifetime::WeakestLinkPopulation::len)
        ),
        None => println!("  chip TTF       = unbounded (every strap Blech-immortal or idle)"),
    }
    let violations = report.violations();
    if violations.is_empty() {
        println!("all {} straps pass", report.branches.len());
        Ok(())
    } else {
        println!("\ntop violations (of {}):", violations.len());
        println!(
            "{:<26}{:>14}{:>16}{:>12}{:>18}",
            "strap", "T_m [°C]", "j [MA/cm²]", "util", "governing"
        );
        for v in violations.iter().take(10) {
            println!(
                "{:<26}{:>14.1}{:>16.2}{:>12.2}{:>18}",
                v.verdict.net,
                v.temperature.to_celsius().value(),
                v.density.to_mega_amps_per_cm2(),
                v.verdict.utilization,
                v.verdict.governing.label(),
            );
        }
        Err(CliError::violation(format!(
            "{} strap(s) violate their rules",
            violations.len()
        )))
    }
}

/// Renders a lifetime in the unit a signoff reader expects — years
/// when it is at least a month, hours below that (a grossly overdriven
/// tree fails in hours, and "0.00 years" hides that).
fn format_horizon_time(t: Seconds) -> String {
    let years = t.to_years();
    if years >= 0.1 {
        format!("{years:.2} years")
    } else {
        format!("{:.2} hours", t.value() / 3600.0)
    }
}

fn cmd_tree_signoff(opts: &Flags) -> Result<(), CliError> {
    use hotwire::em_tree::model::KorhonenModel;
    use hotwire::em_tree::netlist::{trees_from_netlist_text, NetlistTreeOptions};
    use hotwire::em_tree::steady::batch_steady_state;
    use hotwire::em_tree::transient::{batch_to_failure, TransientOptions};

    let path = flag(opts, "netlist")?;
    let deck = std::fs::read_to_string(path)
        .map_err(|e| CliError::context(format!("cannot read {path}"), e))?;
    let metal_name = flag_or(opts, "metal", "cu");
    let metal = Metal::builtin(metal_name)
        .ok_or_else(|| CliError::usage(format!("unknown metal `{metal_name}`")))?;
    let model = KorhonenModel::for_metal_name(metal_name).map_err(CliError::internal)?;
    let temperature = Celsius::new(parse_f64(opts, "temp-c", 100.0)?).to_kelvin();
    let netlist_options = NetlistTreeOptions {
        width: Length::from_micrometers(parse_f64(opts, "width-um", 0.5)?),
        thickness: Length::from_micrometers(parse_f64(opts, "thickness-um", 0.5)?),
        metal,
        temperature,
    };
    let horizon = Seconds::from_years(parse_f64(opts, "horizon-years", 10.0)?);
    let steady_only = flag_or(opts, "steady-only", "false") != "false";
    let sigma = parse_f64(opts, "sigma", 0.5)?;
    let quantile = parse_f64(opts, "quantile", 1e-3)?;

    let extracted = trees_from_netlist_text(&deck, &netlist_options).map_err(CliError::internal)?;
    if extracted.is_empty() {
        return Err(CliError::usage(format!(
            "{path} contains no resistor trees to assess"
        )));
    }
    let trees: Vec<_> = extracted.iter().map(|e| e.tree.clone()).collect();
    let steady = batch_steady_state(&trees, &model, true).map_err(CliError::internal)?;

    let mortal: Vec<usize> = (0..trees.len()).filter(|&i| !steady[i].immortal).collect();
    let mut outcomes = vec![None; trees.len()];
    if !steady_only && !mortal.is_empty() {
        let mortal_trees: Vec<_> = mortal.iter().map(|&i| trees[i].clone()).collect();
        let runs = batch_to_failure(
            &mortal_trees,
            &model,
            TransientOptions::for_horizon(horizon),
            true,
        )
        .map_err(CliError::internal)?;
        for (&i, o) in mortal.iter().zip(runs) {
            outcomes[i] = Some(o);
        }
    }

    println!(
        "{} tree(s) from {path} at {:.1} ({} horizon: {:.1} years)",
        trees.len(),
        temperature.to_celsius(),
        if steady_only {
            "filter only;"
        } else {
            "signoff"
        },
        horizon.to_years()
    );
    println!(
        "{:<16}{:>10}{:>16}{:>14}  {:>28}",
        "tree", "segments", "peak σ [MPa]", "immortal", "outcome"
    );
    let sigma_crit = model.critical_stress();
    let mut failures: Vec<Seconds> = Vec::new();
    let mut mortal_unresolved = 0usize;
    for ((e, s), o) in extracted.iter().zip(&steady).zip(&outcomes) {
        let outcome = match (s.immortal, o) {
            (true, _) => "below σ_crit forever".to_owned(),
            (false, None) => {
                mortal_unresolved += 1;
                format!("σ would reach {:.0} MPa", s.max_tensile.value() * 1e-6)
            }
            (false, Some(out)) => match (out.failure_time, out.nucleation_time) {
                (Some(t), _) => {
                    failures.push(t);
                    format!("fails at {}", format_horizon_time(t))
                }
                (None, Some(t)) => format!("void at {}, survives", format_horizon_time(t)),
                (None, None) => "no void within horizon".to_owned(),
            },
        };
        // Cathode = tree-local node where the steady tensile peak sits;
        // name it in netlist terms so the report is actionable.
        let peak_mpa = s.max_tensile.value() * 1e-6;
        println!(
            "{:<16}{:>10}{:>16.1}{:>14}  {:>28}",
            e.tree.name(),
            e.tree.segments().len(),
            peak_mpa,
            if s.immortal { "yes" } else { "no" },
            outcome
        );
    }
    println!(
        "σ_crit = {:.0} MPa ({}, Blech-calibrated at 100 °C)",
        sigma_crit.value() * 1e-6,
        metal_name
    );
    if let Some((_, ttf)) = hotwire::em::lifetime::weakest_link_rollup(&failures, quantile, sigma)
        .map_err(CliError::internal)?
    {
        println!(
            "chip TTF = {} at the {quantile:.0e} failure quantile ({} failing tree(s))",
            format_horizon_time(ttf),
            failures.len()
        );
        return Err(CliError::violation(format!(
            "{} tree(s) fail within the {:.1}-year horizon",
            failures.len(),
            horizon.to_years()
        )));
    }
    if steady_only && mortal_unresolved > 0 {
        return Err(CliError::violation(format!(
            "{mortal_unresolved} tree(s) exceed σ_crit in steady state (run without \
             --steady-only for nucleation/growth times)"
        )));
    }
    println!("all trees survive the horizon");
    Ok(())
}

/// Most worker threads `hotwire serve --threads` accepts.
const MAX_SERVE_THREADS: usize = 256;

/// `--threads`: an integer in 1..=[`MAX_SERVE_THREADS`] (default 4).
/// Anything else — `0`, `-3`, `2.5`, `nan`, `1e9` — is a usage error.
fn parse_threads(opts: &Flags) -> Result<usize, CliError> {
    match opts.get("threads") {
        None => Ok(4),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=MAX_SERVE_THREADS).contains(n))
            .ok_or_else(|| {
                CliError::usage(format!(
                    "--threads: `{v}` is not an integer in [1, {MAX_SERVE_THREADS}]"
                ))
            }),
    }
}

fn cmd_serve(opts: &Flags) -> Result<(), CliError> {
    let addr = flag_or(opts, "addr", "127.0.0.1:9184");
    let threads = parse_threads(opts)?;
    // The per-request signoff grid defaults small (20×20) so a scrape
    // burst cannot wedge the server behind multi-second solves.
    let (spec, options) = coupled_setup(opts, 20)?;
    let config = hotwire::serve::ServeConfig {
        threads,
        spec,
        options,
        bundle_dir: opts.get("bundle-dir").cloned(),
    };
    // Validate the template eagerly: a bad grid should fail at startup
    // with a usage error, not 500 on the first POST.
    CoupledEngine::new(config.spec.clone(), config.options.clone()).map_err(coupled_error)?;
    let server = hotwire::serve::Server::bind(addr)
        .map_err(|e| CliError::context(format!("cannot bind {addr}"), e))?;
    let bound = server
        .local_addr()
        .map_err(|e| CliError::context("cannot read bound address", e))?;
    let stop = shutdown::install();
    shutdown::install_usr1();
    // On stdout (not a trace event) so scripts and the e2e test can
    // scrape the ephemeral port without parsing log formats.
    println!("listening on http://{bound} (/metrics /healthz POST /signoff)");
    server
        .run(&config, &stop)
        .map_err(|e| CliError::context("server failed", e))
}

fn cmd_simulate(opts: &Flags) -> Result<(), CliError> {
    let path = flag(opts, "netlist")?;
    let deck = std::fs::read_to_string(path)
        .map_err(|e| CliError::context(format!("cannot read {path}"), e))?;
    let parsed = hotwire::circuit::parser::parse_netlist(&deck).map_err(CliError::internal)?;
    let t_stop = flag(opts, "tstop")?
        .parse::<f64>()
        .map_err(|_| CliError::usage("--tstop must be a number in seconds"))?;
    let dt = match opts.get("dt") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| CliError::usage("--dt must be a number in seconds"))?,
        ),
    };
    let probes: Vec<String> = match opts.get("probe") {
        Some(list) => list.split(',').map(|s| s.trim().to_owned()).collect(),
        None => {
            let mut names: Vec<String> = parsed.nodes().map(|(name, _)| name.to_owned()).collect();
            names.sort_unstable();
            names
        }
    };
    let mut probe_ids = Vec::new();
    for name in &probes {
        let id = parsed
            .node(name)
            .ok_or_else(|| CliError::usage(format!("netlist has no node `{name}`")))?;
        probe_ids.push(id);
    }
    let result = hotwire::circuit::transient::simulate(
        &parsed.circuit,
        t_stop,
        hotwire::circuit::transient::TransientOptions {
            dt,
            ..hotwire::circuit::transient::TransientOptions::default()
        },
    )
    .map_err(CliError::internal)?;
    println!("time_s,{}", probes.join(","));
    for (k, t) in result.times.iter().enumerate() {
        let mut row = format!("{t:.6e}");
        for &id in &probe_ids {
            row.push_str(&format!(",{:.6e}", result.voltage_at(id, k)));
        }
        println!("{row}");
    }
    Ok(())
}

fn cmd_techfile(opts: &Flags) -> Result<(), CliError> {
    let tech = load_tech(opts)?;
    print!("{}", techformat::serialize(&tech));
    Ok(())
}

/// `hotwire trace <capture>`: offline analyzer for a span trace
/// captured with `--trace-out` (either JSONL or Chrome format; the
/// parser auto-detects). Prints a self-time table, the slowest-child
/// critical path under each root span, and folded stacks; `--folded`
/// restricts the output to the folded lines so it pipes straight into
/// `inferno-flamegraph` / speedscope.
fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    use hotwire::obs::spantree::SpanTrace;

    let mut file: Option<&str> = None;
    let mut folded_only = false;
    let mut root = "coupled.iteration";
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--folded" => {
                folded_only = true;
                i += 1;
            }
            "--critical-path" => {
                root = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::usage("--critical-path needs a span name"))?;
                i += 2;
            }
            // Already consumed by the subscriber setup in main().
            "--log-level" | "--log-format" => i += 2,
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!(
                    "unknown flag `{other}` (trace takes --folded, --critical-path <name>)"
                )));
            }
            other => {
                if file.is_some() {
                    return Err(CliError::usage("trace takes exactly one capture file"));
                }
                file = Some(other);
                i += 1;
            }
        }
    }
    let path = file.ok_or_else(|| {
        CliError::usage("usage: hotwire trace <capture> [--folded] [--critical-path <name>]")
    })?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::context(format!("cannot read {path}"), e))?;
    let trace = SpanTrace::parse(&text)
        .map_err(|e| CliError::usage(format!("{path} is not a span trace: {e}")))?;
    if trace.spans.is_empty() {
        return Err(CliError::usage(format!(
            "{path}: no spans captured — nothing to analyze"
        )));
    }

    if folded_only {
        for (stack, us) in trace.folded() {
            println!("{stack} {us}");
        }
        return Ok(());
    }

    let threads = {
        let mut tids: Vec<u64> = trace.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids.len()
    };
    let wall_us = trace
        .spans
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .fold(0.0_f64, f64::max);
    println!(
        "{}: {} span(s) on {} thread(s), {:.2} ms wall",
        path,
        trace.spans.len(),
        threads,
        wall_us / 1e3
    );

    let summary = trace.self_time();
    if !summary.is_empty() {
        println!(
            "\n{:<34}{:>8}{:>14}{:>14}{:>8}",
            "span", "count", "total [ms]", "self [ms]", "self %"
        );
        let grand_self: f64 = summary.iter().map(|r| r.self_us).sum();
        for r in &summary {
            println!(
                "{:<34}{:>8}{:>14.3}{:>14.3}{:>8.1}",
                r.name,
                r.count,
                r.total_us / 1e3,
                r.self_us / 1e3,
                if grand_self > 0.0 {
                    100.0 * r.self_us / grand_self
                } else {
                    0.0
                }
            );
        }
    }

    let paths = trace.critical_paths(root);
    if paths.is_empty() {
        println!("\nno `{root}` spans for critical-path extraction");
    } else {
        println!("\ncritical path per `{root}` span (slowest child chain):");
        for p in &paths {
            let mut line = format!("  {} {:.3} ms", p.root.name, p.root.dur_us / 1e3);
            for (k, v) in &p.root.args {
                line.push_str(&format!(" [{k}={v}]"));
            }
            for s in &p.steps {
                line.push_str(&format!(" -> {} {:.3} ms", s.name, s.dur_us / 1e3));
            }
            println!("{line}");
        }
    }

    let folded = trace.folded();
    if !folded.is_empty() {
        println!("\nfolded stacks (pipe `hotwire trace <capture> --folded` into inferno):");
        for (stack, us) in folded {
            println!("{stack} {us}");
        }
    }
    Ok(())
}

/// `hotwire doctor <bundle>`: renders a diagnostic bundle written by
/// `--bundle-dir` (error exits, panics, serve 500s, SIGUSR1 snapshots)
/// as a human-readable post-mortem — header, health summary, event
/// timeline, failure classification, remediation hints.
fn cmd_doctor(args: &[String]) -> Result<(), CliError> {
    use hotwire::obs::health::ConvergenceClass;
    use hotwire::obs::HealthReport;

    let mut file: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            // Already consumed by the subscriber setup in main().
            "--log-level" | "--log-format" => i += 2,
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!(
                    "unknown flag `{other}` (doctor takes one bundle file)"
                )));
            }
            other => {
                if file.is_some() {
                    return Err(CliError::usage("doctor takes exactly one bundle file"));
                }
                file = Some(other);
                i += 1;
            }
        }
    }
    let path = file.ok_or_else(|| CliError::usage("usage: hotwire doctor <bundle.json>"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::context(format!("cannot read {path}"), e))?;
    let doc = hotwire::obs::json::parse(&text)
        .map_err(|e| CliError::usage(format!("{path} is not a diagnostic bundle: {e}")))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != hotwire::obs::recorder::BUNDLE_SCHEMA {
        return Err(CliError::usage(format!(
            "{path}: schema `{schema}` is not `{}` — not a hotwire diagnostic bundle",
            hotwire::obs::recorder::BUNDLE_SCHEMA
        )));
    }

    let str_of = |key: &str| doc.get(key).and_then(Json::as_str).unwrap_or("?");
    let reason = str_of("reason");
    let detail = str_of("detail");
    println!("{path}: diagnostic bundle ({schema})");
    println!("  version:   hotwire {}", str_of("version"));
    println!("  reason:    {reason} — {detail}");
    if let Some(hash) = doc.get("spec_hash").and_then(Json::as_str) {
        println!("  spec hash: {hash}");
    }
    if let Some(ms) = doc.get("generated_unix_ms").and_then(Json::as_f64) {
        println!("  generated: {:.0} (unix ms)", ms);
    }
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .unwrap_or_default();
    let recorded = doc
        .get("recorded_events")
        .and_then(Json::as_u64)
        .unwrap_or(events.len() as u64);
    if recorded > events.len() as u64 {
        println!(
            "  events:    {} retained of {recorded} recorded (ring wrapped)",
            events.len()
        );
    } else {
        println!("  events:    {} recorded", events.len());
    }

    // The embedded health report, when the failing layer produced one.
    let health = doc
        .get("health")
        .and_then(|h| HealthReport::from_json(h).ok());
    if let Some(h) = &health {
        let opt = |v: Option<f64>| v.map_or_else(|| "—".to_owned(), |x| format!("{x:.3e}"));
        println!("\nnumerical health:");
        println!(
            "  picard:        {} (contraction {:.3}, {} iteration(s), last delta {:.3e} vs tolerance {:.3e})",
            h.picard.class.label(),
            h.picard.contraction,
            h.iterations,
            h.last_delta,
            h.tolerance
        );
        if let Some(n) = h.picard.predicted_iterations {
            println!("  predicted:     ~{n} more iteration(s) to converge at the fitted rate");
        }
        println!("  cond number:   {}", opt(h.condition_estimate));
        println!("  residual:      {}", opt(h.residual_rel));
        println!("  kcl imbalance: {}", opt(h.kcl_imbalance_rel));
    }

    if !events.is_empty() {
        println!("\ntimeline (ms since first recorded event):");
        for e in events {
            let t = e.get("t_ms").and_then(Json::as_f64).unwrap_or(0.0);
            let kind = e.get("kind").and_then(Json::as_str).unwrap_or("?");
            let d = e.get("detail").and_then(Json::as_str).unwrap_or("");
            println!("  [{t:>10.3}] {kind:<22} {d}");
        }
    }

    // Classification, most-specific signal first: a violation caused by
    // a diverging loop is a divergence, not "violation".
    let serve_errors = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.errors"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let class = health.as_ref().map(|h| h.picard.class);
    let beyond_range = events
        .iter()
        .any(|e| e.get("kind").and_then(Json::as_str) == Some("coupled.beyond_range"));
    let ill_conditioned = health.as_ref().is_some_and(|h| {
        h.condition_estimate.is_some_and(|k| k > 1e12)
            || h.residual_rel.is_some_and(|r| r.is_nan() || r > 1e-6)
    });
    let (diagnosis, hints): (&str, Vec<String>) = if class == Some(ConvergenceClass::Diverging) {
        (
            "diverged",
            vec![
                "the Picard loop is moving away from its fixed point — the \
                 electro-thermal feedback is too strong for the current update"
                    .into(),
                "strengthen the damping: lower --damping (e.g. halve it) and rerun".into(),
                "if divergence persists at heavy damping, the operating point \
                 may be past thermal runaway — reduce --sink-ma or widen the grid"
                    .into(),
            ],
        )
    } else if beyond_range {
        (
            "thermal-runaway",
            vec![
                "the loop settled with straps past the metal resistivity fit's \
                 validity limit: Joule heating outruns the heat path to the substrate \
                 (see the coupled.beyond_range event above)"
                    .into(),
                "lower --sink-ma to draw less current per intersection".into(),
                "use wider or thicker straps (--width-um, --thickness-um)".into(),
                "add pads (--pads) so the current has shorter paths to the supply".into(),
            ],
        )
    } else if ill_conditioned {
        (
            "ill-conditioned",
            vec![
                "the electrical system is near-singular: the condition number \
                 or the post-solve residual is far beyond healthy"
                    .into(),
                "grid is near-singular: check for floating nodes (sinks with no \
                 path to a pad) and zero-width straps"
                    .into(),
                "raise the gmin regularization or pin additional pads".into(),
            ],
        )
    } else if class == Some(ConvergenceClass::Oscillating) {
        (
            "oscillating",
            vec![
                "deltas alternate growth/shrink — the classic overshoot signature".into(),
                "lower --damping to suppress the overshoot".into(),
            ],
        )
    } else if class == Some(ConvergenceClass::Stagnated) {
        (
            "stagnated",
            vec![
                "deltas are flat; more iterations will not reach tolerance".into(),
                "relax --tol, or adjust --damping so the update makes progress".into(),
            ],
        )
    } else if let Some(h) = health.as_ref().filter(|h| h.last_delta > h.tolerance) {
        let more = h.picard.predicted_iterations.map_or_else(
            || "raise --max-iters".to_owned(),
            |n| format!("raise --max-iters by at least {n} (the fitted rate predicts convergence)"),
        );
        (
            "not-converged",
            vec![
                "the loop stopped at the iteration cap with its residual still above \
                 tolerance: there is no converged state to sign off"
                    .into(),
                more,
                "or relax --tol".into(),
            ],
        )
    } else if reason == "violation" {
        (
            "signoff-violation",
            vec![
                "the solve converged cleanly; the design itself fails its rules".into(),
                "this is a signoff result, not a numerical failure — see the \
                 violation detail above"
                    .into(),
            ],
        )
    } else if serve_errors > 0 && (reason == "sigusr1" || reason == "request-error") {
        (
            "load-shed",
            vec![
                format!("serve dropped or failed {serve_errors} request(s)"),
                "raise --threads, or slow the client; check the request \
                 timeline above for the failing endpoints"
                    .into(),
            ],
        )
    } else if reason == "sigusr1" {
        (
            "healthy-snapshot",
            vec!["operator-requested snapshot; no failure signal in the bundle".into()],
        )
    } else {
        (
            "internal",
            vec![
                "no numerical-health signal explains the failure".into(),
                "rerun with --log-level debug --log-format json and compare the \
                 stderr events against the timeline above"
                    .into(),
            ],
        )
    };
    println!("\ndiagnosis: {diagnosis}");
    for hint in &hints {
        println!("  - {hint}");
    }
    Ok(())
}
