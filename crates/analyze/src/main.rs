//! `cargo xtask analyze` — the workspace invariant gate.
//!
//! Exit codes: `0` clean (no new violations), `1` at least one new
//! violation against the baseline, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use hotwire_analyze::baseline::{ratchet, Baseline, RatchetReport};
use hotwire_analyze::lints::{Violation, ALL_LINTS};
use hotwire_obs::json::Json;

const USAGE: &str = "\
cargo xtask analyze — project-invariant lints with a baseline ratchet

USAGE:
    cargo xtask analyze [OPTIONS]
    cargo run -p hotwire-analyze -- [OPTIONS]

OPTIONS:
    --root <DIR>        workspace root (default: .)
    --baseline <FILE>   baseline path (default: <root>/analyze-baseline.toml)
    --format <FMT>      text | json (default: text)
    --write-baseline    rewrite the baseline from the current scan and exit
    -h, --help          print this help

LINTS:
    HW001  no unwrap/expect/panic!/todo!/unimplemented! in non-test library code
    HW002  public APIs use units newtypes, not raw f64 dimensional values
    HW003  no Instant::now/SystemTime/println!/eprintln! outside crates/obs
    HW004  every Ordering:: use carries a // SAFETY(ordering): justification
    HW005  public error enums are #[non_exhaustive] and implement Error
    HW006  narrowing `as` casts in kernel crates carry a // CAST(reason): comment
    HW007  metric/span names match the docs/OBSERVABILITY.md catalog both ways
    HW009  exit codes flow through the central EXIT_* consts, never literals

The baseline is a ratchet: per-file counts may only decrease. Suppress a
single finding with `// ANALYZE-ALLOW(HWxxx): <reason>` on or above the
line; the reason is mandatory. See docs/STATIC_ANALYSIS.md.
";

struct Options {
    root: PathBuf,
    baseline_path: Option<PathBuf>,
    json: bool,
    write_baseline: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline_path: None,
        json: false,
        write_baseline: false,
    };
    let mut it = args.iter().peekable();
    // Tolerate `cargo xtask analyze`-style invocation where the task
    // name arrives as a positional.
    if it.peek().is_some_and(|a| *a == "analyze") {
        it.next();
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--root" => {
                opts.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--baseline" => {
                opts.baseline_path =
                    Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("text") => opts.json = false,
                Some("json") => opts.json = true,
                other => {
                    return Err(format!(
                        "--format must be `text` or `json`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--write-baseline" => opts.write_baseline = true,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn violation_json(v: &Violation) -> Json {
    Json::object([
        ("lint", Json::from(v.lint.id())),
        ("file", Json::from(v.file.as_str())),
        ("line", Json::from(v.line as f64)),
        ("column", Json::from(v.column as f64)),
        ("message", Json::from(v.message.as_str())),
    ])
}

fn report_json(violations: &[Violation], report: &RatchetReport) -> Json {
    let new_violations: Vec<Json> = report
        .regressions
        .iter()
        .flat_map(|r| r.violations.iter().map(violation_json))
        .collect();
    let totals = Json::object(ALL_LINTS.map(|l| {
        let n = violations.iter().filter(|v| v.lint == l).count();
        (l.id(), Json::from(n as f64))
    }));
    let slack: Vec<Json> = report
        .slack
        .iter()
        .map(|(lint, file, allowed, found)| {
            Json::object([
                ("lint", Json::from(lint.id())),
                ("file", Json::from(file.as_str())),
                ("allowed", Json::from(*allowed as f64)),
                ("found", Json::from(*found as f64)),
            ])
        })
        .collect();
    let tolerated = violations.len()
        - report
            .regressions
            .iter()
            .map(|r| r.violations.len())
            .sum::<usize>();
    let lints = Json::Arr(
        ALL_LINTS
            .map(|l| {
                Json::object([
                    ("id", Json::from(l.id())),
                    ("summary", Json::from(l.summary())),
                ])
            })
            .to_vec(),
    );
    Json::object([
        ("clean", Json::Bool(report.is_clean())),
        ("lints", lints),
        ("totals", totals),
        ("tolerated", Json::from(tolerated as f64)),
        ("new_violations", Json::Arr(new_violations)),
        ("slack", Json::Arr(slack)),
        (
            "stale_baseline_entries",
            Json::Arr(
                report
                    .stale
                    .iter()
                    .map(|(lint, file)| {
                        Json::object([
                            ("lint", Json::from(lint.id())),
                            ("file", Json::from(file.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_text(violations: &[Violation], report: &RatchetReport) {
    for r in &report.regressions {
        for v in &r.violations {
            println!("{v}");
        }
        println!(
            "  -> {} {}: {} violation(s), baseline tolerates {}",
            r.lint.id(),
            r.file,
            r.found,
            r.allowed
        );
    }
    for (lint, file, allowed, found) in &report.slack {
        println!(
            "note: {} {file} improved ({found} < baseline {allowed}) — run --write-baseline to ratchet down",
            lint.id()
        );
    }
    for (lint, file) in &report.stale {
        println!(
            "note: stale baseline entry {} {file} (no violations remain) — run --write-baseline",
            lint.id()
        );
    }
    let total = violations.len();
    let tolerated = total
        - report
            .regressions
            .iter()
            .map(|r| r.violations.len())
            .sum::<usize>();
    if report.is_clean() {
        println!("analyze: clean ({total} tolerated violation(s) under baseline)");
    } else {
        println!(
            "analyze: FAILED — {} new violation(s) ({tolerated} tolerated under baseline)",
            total - tolerated
        );
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse_args(&args)? else {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    };
    let baseline_path = opts
        .baseline_path
        .clone()
        .unwrap_or_else(|| opts.root.join("analyze-baseline.toml"));

    let violations = hotwire_analyze::analyze_workspace(&opts.root).map_err(|e| e.to_string())?;

    if opts.write_baseline {
        // Load the previous baseline first: entries that vanish from
        // the rewrite (typically because their file was renamed or
        // deleted) used to disappear silently — report each one so a
        // rename doesn't quietly launder tolerated violations out of
        // the ratchet's history.
        let previous = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => Some(Baseline::parse(&text).map_err(|e| e.to_string())?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
        };
        let next = Baseline::from_violations(&violations);
        if let Some(previous) = &previous {
            for (lint, file, count) in previous.entries() {
                if next.allowed(lint, file) > 0 {
                    continue;
                }
                let fate = if opts.root.join(file).is_file() {
                    "file is now clean"
                } else {
                    "file no longer exists (renamed or deleted?)"
                };
                eprintln!(
                    "analyze: dropping baseline entry {} {file} ({count} tolerated) — {fate}",
                    lint.id()
                );
            }
        }
        std::fs::write(&baseline_path, next.render())
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        eprintln!(
            "analyze: wrote {} ({} violation(s) baselined)",
            baseline_path.display(),
            violations.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| e.to_string())?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
    };
    let report = ratchet(&violations, &baseline);

    if opts.json {
        print!("{}", report_json(&violations, &report).to_pretty_string());
    } else {
        print_text(&violations, &report);
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Usage/I-O error exit status (the tool practices HW009's preaching
/// even though it exempts itself from scanning).
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("analyze: error: {message}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}
