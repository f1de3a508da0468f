//! `benchmark`: the end-to-end and per-layer benchmark of hotwire.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--capture <path>]
//! ```
//!
//! With `--trace 0` the benchmark spawns the real `hotwire` and `repro`
//! binaries found next to its own executable, runs one workload for
//! `--seconds`, checks every output, and reports the end-to-end metrics.
//! With `--trace 1` it calls each layer's public functions in-process
//! inside benchmark-owned spans, writes the span capture (JSONL, for
//! `hotwire trace`) and reports the per-layer metrics. Inputs are
//! generated from `--seed`. Human-readable lines come first; the last
//! line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See README.md for the workloads and the metric catalog.

mod check;
mod gen;
mod layers;
mod proc;
mod speed;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use hotwire::obs::Json;

use check::{References, Tally};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoupledPicard,
    CoupledLarge,
    TreeEm,
    ReproAll,
    ServeMixed,
}

impl Workload {
    const ALL: [Self; 5] = [
        Self::CoupledPicard,
        Self::CoupledLarge,
        Self::TreeEm,
        Self::ReproAll,
        Self::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Self::CoupledPicard => "coupled-picard",
            Self::CoupledLarge => "coupled-large",
            Self::TreeEm => "tree-em",
            Self::ReproAll => "repro-all",
            Self::ServeMixed => "serve-mixed",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How it was measured, for the human-readable line.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            note,
        }
    }
}

/// What every phase needs: the programs under test, a scratch
/// directory, the seed and the time budget.
pub struct Context {
    pub workload: Workload,
    pub hotwire: PathBuf,
    pub repro: PathBuf,
    /// Scratch space inside the build directory (decks, logs, captures).
    pub work: PathBuf,
    pub seed: u64,
    pub budget: Duration,
    pub references: References,
}

impl Context {
    pub fn stderr_log(&self) -> PathBuf {
        self.work.join("stderr.log")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    capture: Option<PathBuf>,
}

const USAGE: &str =
    "usage: benchmark --workload <coupled-picard|coupled-large|tree-em|repro-all|serve-mixed> \
                     --seed <n> [--seconds <s>] [--trace 0|1] [--capture <path>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut capture) =
        (None, None, 15.0, false, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--capture" => capture = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        capture,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == [speed::CALIBRATE_FLAG] {
        return match speed::serve_loop() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark {}: {e}", speed::CALIBRATE_FLAG);
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let program = |name: &str| {
        let path = dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} not found (build it next to the benchmark)",
                path.display()
            ))
        }
    };
    let work = dir.join("benchmark-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Context {
        workload: args.workload,
        hotwire: program("hotwire")?,
        repro: program("repro")?,
        work,
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        references: References::load()?,
    };
    println!(
        "benchmark: workload {} seed {} for {} s, trace {} ({} threads available)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );

    let mut tally = Tally::default();
    let metrics = if args.trace {
        let capture = args.capture.clone().unwrap_or_else(|| {
            ctx.work
                .join(format!("capture-{}.jsonl", args.workload.name()))
        });
        layers::run(&ctx, &mut tally, &capture)?
    } else {
        workloads::run(&ctx, &mut tally)?
    };

    for m in &metrics {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    if let Some(e) = &tally.first_error {
        println!("first failure: {e}");
    }
    let correct =
        tally.failed == 0 && tally.attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    let report = Json::object([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        let entry = Json::object([
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit)),
                        ]);
                        (m.name, entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{report}");
    Ok(())
}
