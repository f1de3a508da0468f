//! The untraced phase: every operation is a real process, spawned from
//! the binaries next to the benchmark and timed from outside, with
//! tracing off. Each run yields the end-to-end metrics of one workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use hotwire::coupled::{CoupledEngine, CoupledGridSpec, CoupledOptions};
use hotwire::obs::Json;

use crate::check::{self, CoupledResult, Tally, TreeResult};
use crate::gen::{self, DeckTree, Request};
use crate::proc::{self, Run, Server};
use crate::speed::Speed;
use crate::stats;
use crate::{Context, Metric, Workload};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest operations a CLI workload measures, even past its budget.
const MIN_OPS: usize = 3;
/// Closed-loop clients and server workers of `serve-mixed`.
const SERVE_CLIENTS: usize = 2;
pub const SERVE_THREADS: &str = "2";
/// Fresh servers behind the `serve-mixed` peak RSS.
const RSS_SERVERS: usize = 5;

/// One coupled-signoff workload: grid edge, per-node sink current, and
/// how many seeded pad layouts a run cycles through.
pub struct Grid {
    pub name: &'static str,
    pub edge: usize,
    pub sink_ma: f64,
    pub layouts: usize,
}

pub const PICARD: Grid = Grid {
    name: "coupled-picard",
    edge: 100,
    sink_ma: 0.4,
    layouts: 16,
};

/// Six layouts at about 2.5 s each, so one run covers all of them.
pub const LARGE: Grid = Grid {
    name: "coupled-large",
    edge: 300,
    sink_ma: 0.01,
    layouts: 6,
};

/// Decks a `tree-em` run cycles through.
pub const DECKS: usize = 4;

impl Grid {
    /// The `coupled-signoff` arguments for one seeded layout.
    pub fn args(&self, seed: u64, layout: usize) -> Vec<String> {
        let edge = self.edge.to_string();
        let pads = gen::pads_flag(&gen::pad_layout(seed, layout, self.edge));
        let sink = self.sink_ma.to_string();
        [
            "coupled-signoff",
            "--rows",
            &edge,
            "--cols",
            &edge,
            "--sink-ma",
            &sink,
            "--pads",
            &pads,
        ]
        .map(str::to_owned)
        .to_vec()
    }
}

/// The `tree-signoff` arguments for a deck file.
pub fn tree_args(deck: &Path) -> Vec<String> {
    let mut args = vec!["tree-signoff".to_owned(), "--netlist".to_owned()];
    args.push(deck.display().to_string());
    for (flag, value) in [
        ("--width-um", gen::TREE_WIDTH_UM),
        ("--thickness-um", gen::TREE_THICKNESS_UM),
        ("--temp-c", gen::TREE_TEMP_C),
    ] {
        args.push(flag.to_owned());
        args.push(value.to_string());
    }
    args
}

/// Generates deck `input` of the seed, writes it to the work dir, and
/// keeps only the generator's view of its trees: the text stays out of
/// the benchmark's own memory (see [`proc::reset_peak_rss`]).
fn write_deck(ctx: &Context, input: usize) -> Result<(Vec<DeckTree>, PathBuf), String> {
    let deck = gen::tree_deck(ctx.seed, input);
    let path = ctx.work.join(format!("deck-{input}.sp"));
    // A new file rather than a truncated one: truncating pages that are
    // still being written back waits for the disk, which made the set-up
    // of one repetition take 5 ms to 40 ms longer than that of the next.
    let _ = std::fs::remove_file(&path);
    std::fs::write(&path, &deck.text)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((deck.trees, path))
}

pub fn run(ctx: &Context, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    match ctx.workload {
        Workload::CoupledPicard => coupled(ctx, &PICARD, tally),
        Workload::CoupledLarge => coupled(ctx, &LARGE, tally),
        Workload::TreeEm => tree_em(ctx, tally),
        Workload::ReproAll => repro_all(ctx, tally),
        Workload::ServeMixed => serve_mixed(ctx, tally),
    }
}

/// One measured operation, and the factor that scales its time to the
/// reference speed: from calibration samples taken right after it.
struct Op {
    run: Run,
    scale: f64,
}

/// The operations of one CLI workload, by input.
struct Samples(BTreeMap<usize, Vec<Op>>);

impl Samples {
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.0.values().flatten()
    }

    /// The mean over inputs of each input's median of `value`.
    fn per_input_mean(&self, value: impl Fn(&Op) -> f64) -> f64 {
        let medians: Vec<f64> = self
            .0
            .values()
            .map(|ops| stats::median(&ops.iter().map(&value).collect::<Vec<_>>()))
            .collect();
        stats::mean(&medians)
    }

    fn metrics(&self, setup: Metric) -> Vec<Metric> {
        let walls: Vec<f64> = self.ops().map(|op| op.run.wall_ms()).collect();
        let scales: Vec<f64> = self.ops().map(|op| op.scale).collect();
        let (q1, q3) = stats::quartiles(&walls);
        let tail = stats::tail(&walls).map_or_else(
            || "no tail: fewer than 20 operations".to_owned(),
            |t| format!("p{} {:.3} ms of n={}", t.percentile, t.value, t.n),
        );
        let note = format!(
            "raw {:.3} ms; n={} operations over {} inputs; raw pooled median {:.3}, q1 {q1:.3}, q3 {q3:.3}, MAD {:.3} ms; {tail}; user+sys {:.3} ms; scale median {:.4}",
            self.per_input_mean(|op| op.run.wall_ms()),
            walls.len(),
            self.0.len(),
            stats::median(&walls),
            stats::mad(&walls),
            self.per_input_mean(|op| op.run.cpu_ms()),
            stats::median(&scales),
        );
        vec![
            Metric::new(
                "wall_ms",
                self.per_input_mean(|op| op.run.wall_ms() * op.scale),
                "ms",
                note,
            ),
            Metric::new(
                "peak_rss_mb",
                self.per_input_mean(|op| op.run.rss_mb()),
                "MB",
                format!(
                    "max RSS of each operation's process tree (wait4), n={}",
                    walls.len()
                ),
            ),
            setup,
        ]
    }
}

/// Times `SETUP_REPS` runs of `once`, each scaled to the reference speed
/// by a calibration sample taken right after it, and reports their
/// median: starting a process is CPU work whose time drifts with the
/// machine's speed.
fn setup_metric(
    speed: &mut Speed,
    mut once: impl FnMut() -> Result<Duration, String>,
) -> Result<Metric, String> {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let time = once()?;
        raw.push(time.as_secs_f64());
        scaled.push(time.as_secs_f64() * speed.scale_after(time)?);
    }
    Ok(Metric::new(
        "setup_s",
        stats::median(&scaled),
        "s",
        format!(
            "raw {:.6} s: median of {SETUP_REPS} set-ups",
            stats::median(&raw)
        ),
    ))
}

/// The set-up of a CLI workload: `prepare` writes every input of the run,
/// then the program is started once (`probe`).
fn cli_setup(
    ctx: &Context,
    speed: &mut Speed,
    mut prepare: impl FnMut() -> Result<(), String>,
    probe: &mut Command,
) -> Result<Metric, String> {
    setup_metric(speed, || {
        let start = Instant::now();
        prepare()?;
        let run =
            proc::run(probe, &ctx.stderr_log()).map_err(|e| format!("start-up probe: {e}"))?;
        if run.exit.code != 0 {
            return Err(format!("start-up probe exited {}", run.exit.code));
        }
        Ok(start.elapsed())
    })
}

/// Runs the inputs round-robin until the time budget is spent (at least
/// [`MIN_OPS`] operations, and none started that would likely overrun),
/// checking each output. `check` returns a summary of a correct output,
/// printed once per input as an `observed` line: the form
/// `references.json` records.
fn measure(
    ctx: &Context,
    speed: &mut Speed,
    inputs: usize,
    program: &Path,
    args: impl Fn(usize) -> Vec<String>,
    check: impl Fn(usize, &Run) -> Result<Json, String>,
    tally: &mut Tally,
) -> Result<Samples, String> {
    let mut samples = Samples(BTreeMap::new());
    let mut first_stdout: BTreeMap<usize, String> = BTreeMap::new();
    let mut walls = Vec::new();
    let start = Instant::now();
    for op in 0.. {
        let typical = Duration::from_secs_f64(stats::median(&walls).max(0.0) / 1e3);
        if op >= MIN_OPS && start.elapsed() + typical > ctx.budget {
            break;
        }
        let input = op % inputs;
        let run = proc::run(Command::new(program).args(args(input)), &ctx.stderr_log())
            .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
        let outcome = match first_stdout.get(&input) {
            Some(first) if *first != run.stdout => {
                Err("output differs from the first run of the same input".to_owned())
            }
            _ => check(input, &run),
        }
        .map_err(|e| match proc::stderr_tail(&ctx.stderr_log()) {
            tail if tail.is_empty() => e,
            tail => format!("{e} (stderr: {tail})"),
        });
        let observed = tally.record(&format!("input {input}"), outcome);
        if let (Some(summary), false) = (observed, first_stdout.contains_key(&input)) {
            println!(
                "observed {} seed {} input {input}: {summary}",
                ctx.workload.name(),
                ctx.seed
            );
        }
        first_stdout
            .entry(input)
            .or_insert_with(|| run.stdout.clone());
        walls.push(run.wall_ms());
        let scale = speed.scale_after(run.wall)?;
        samples.0.entry(input).or_default().push(Op { run, scale });
    }
    Ok(samples)
}

fn coupled(ctx: &Context, grid: &Grid, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut speed = Speed::start()?;
    let setup = cli_setup(
        ctx,
        &mut speed,
        || {
            for layout in 0..grid.layouts {
                std::hint::black_box(grid.args(ctx.seed, layout));
            }
            Ok(())
        },
        Command::new(&ctx.hotwire).arg("help"),
    )?;
    let samples = measure(
        ctx,
        &mut speed,
        grid.layouts,
        &ctx.hotwire,
        |layout| grid.args(ctx.seed, layout),
        |layout, run| {
            let reference = ctx.references.coupled(ctx.seed, grid.name, layout);
            check::check_coupled(run.exit.code, &run.stdout, grid.edge, reference.as_ref())
                .map(CoupledResult::to_json)
        },
        tally,
    )?;
    Ok(samples.metrics(setup))
}

fn tree_em(ctx: &Context, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut speed = Speed::start()?;
    let mut decks = Vec::new();
    let setup = cli_setup(
        ctx,
        &mut speed,
        || {
            decks = (0..DECKS)
                .map(|input| write_deck(ctx, input))
                .collect::<Result<_, _>>()?;
            Ok(())
        },
        Command::new(&ctx.hotwire).arg("help"),
    )?;
    let samples = measure(
        ctx,
        &mut speed,
        DECKS,
        &ctx.hotwire,
        |input| tree_args(&decks[input].1),
        |input, run| {
            let reference = ctx.references.tree(ctx.seed, input);
            check::check_tree(
                run.exit.code,
                &run.stdout,
                &decks[input].0,
                reference.as_ref(),
            )
            .map(TreeResult::to_json)
        },
        tally,
    )?;
    Ok(samples.metrics(setup))
}

fn repro_all(ctx: &Context, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let digest = ctx
        .references
        .repro_digest()
        .ok_or("references.json has no repro digest")?;
    let mut speed = Speed::start()?;
    let setup = cli_setup(
        ctx,
        &mut speed,
        || Ok(()),
        Command::new(&ctx.repro).arg("--list"),
    )?;
    let samples = measure(
        ctx,
        &mut speed,
        1,
        &ctx.repro,
        |_| Vec::new(),
        |_, run| {
            check::check_repro(run.exit.code, &run.stdout, digest).map(|()| Json::from(digest))
        },
        tally,
    )?;
    Ok(samples.metrics(setup))
}

/// One client request as the client saw it.
pub struct Reply {
    pub request: Request,
    pub latency: Duration,
    /// Status 200 and a body of the right kind, else why not.
    pub outcome: Result<String, String>,
}

/// Sends `request` and checks the reply's status and kind.
pub fn send(addr: &str, request: Request) -> Reply {
    let start = Instant::now();
    let response = match request {
        Request::Signoff { edge } => proc::http(
            addr,
            "POST",
            "/signoff",
            &format!("{{\"rows\": {edge}, \"cols\": {edge}}}"),
        ),
        Request::Metrics => proc::http(addr, "GET", "/metrics", ""),
    };
    let latency = start.elapsed();
    let outcome = match response {
        Ok((200, body))
            if request == Request::Metrics && !body.contains("hotwire_serve_requests_total") =>
        {
            Err("scrape lacks hotwire_serve_requests_total".to_owned())
        }
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("status {status}: {}", body.trim())),
        Err(e) => Err(e.to_string()),
    };
    Reply {
        request,
        latency,
        outcome,
    }
}

/// Runs `SERVE_CLIENTS` closed-loop clients against `addr` until
/// `deadline`: each sends (through `send`) its next request only after
/// the last reply.
pub fn load(
    addr: &str,
    seed: u64,
    deadline: Instant,
    send: impl Fn(&str, Request) -> Reply + Sync,
) -> Vec<Reply> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let send = &send;
                scope.spawn(move || {
                    gen::serve_schedule(seed, client)
                        .take_while(|_| Instant::now() < deadline)
                        .map(|request| send(addr, request))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("serve client panicked"))
            .collect()
    })
}

/// The result the engine gives in-process for the serve template on an
/// `edge × edge` grid (the four-corner pads `POST /signoff` uses).
pub fn engine_result(edge: usize) -> Result<CoupledResult, String> {
    let mut engine =
        CoupledEngine::new(CoupledGridSpec::demo(edge, edge), CoupledOptions::default())
            .map_err(|e| e.to_string())?;
    engine.run().map_err(|e| e.to_string())?;
    let report = engine.assess().map_err(|e| e.to_string())?;
    Ok(CoupledResult::from_report(&report))
}

pub fn serve_args() -> [&'static str; 4] {
    ["--addr", "127.0.0.1:0", "--threads", SERVE_THREADS]
}

fn serve_mixed(ctx: &Context, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let start_server = || {
        Server::start(&ctx.hotwire, &serve_args(), &ctx.stderr_log())
            .map_err(|e| format!("serve: {e}"))
    };
    let stop = |server: Server| server.stop().map_err(|e| format!("stopping serve: {e}"));
    let setup = setup_metric(&mut Speed::start()?, || {
        let server = start_server()?;
        let ready = server.ready;
        stop(server)?;
        Ok(ready)
    })?;

    // The client latency is not scaled to the machine's speed. A signoff
    // reply waits mostly on the server's accept poll, a fixed sleep that a
    // slower machine does not lengthen, so scaling would only add the
    // calibration loop's noise.
    let server = start_server()?;
    let start = Instant::now();
    let replies = load(&server.addr, ctx.seed, start + ctx.budget, send);
    let elapsed = start.elapsed();
    let scrape = proc::http(&server.addr, "GET", "/metrics", "").map(|(_, body)| body);
    let loaded = stop(server)?;

    let mut per_edge: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut signoff_ms = Vec::new();
    let mut scrape_ms = Vec::new();
    for reply in replies {
        let ms = reply.latency.as_secs_f64() * 1e3;
        tally.record(&format!("{:?}", reply.request), reply.outcome);
        match reply.request {
            Request::Signoff { edge } => {
                per_edge.entry(edge).or_default().push(ms);
                signoff_ms.push(ms);
            }
            Request::Metrics => scrape_ms.push(ms),
        }
    }
    let signoffs = signoff_ms.len();
    let tail = stats::tail(&signoff_ms).map_or_else(String::new, |t| {
        format!("; client p{} {:.3} ms of n={}", t.percentile, t.value, t.n)
    });
    println!(
        "serve: {} requests ({signoffs} signoffs) from {SERVE_CLIENTS} closed-loop clients in {:.2} s = {:.1} signoffs/s; client p50 {:.3} ms{tail}; scrape p50 {:.3} ms (n={}); server CPU {:.3} ms per signoff; error rate {}/{}",
        signoffs + scrape_ms.len(),
        elapsed.as_secs_f64(),
        signoffs as f64 / elapsed.as_secs_f64(),
        stats::median(&signoff_ms),
        stats::median(&scrape_ms),
        scrape_ms.len(),
        loaded.cpu.as_secs_f64() * 1e3 / signoffs.max(1) as f64,
        tally.failed,
        tally.attempted,
    );
    if let Ok(text) = scrape {
        for (name, q) in [
            ("serve_request", "0.5"),
            ("serve_request", "0.99"),
            ("serve_signoff", "0.5"),
        ] {
            if let Some(s) = prom_quantile(&text, name, q) {
                println!("serve: server-side {name} q{q} = {:.3} ms", s * 1e3);
            }
        }
    }

    // Fresh servers answer one signoff per edge size, one at a time: each
    // reply is checked against the engine, and a server's peak RSS does
    // not depend on how requests overlapped under load. It still depends
    // on which worker's allocator arena served the largest grids, so the
    // metric is the median over several servers.
    let expected: Vec<(usize, Result<CoupledResult, String>)> = (gen::MIN_EDGE..=gen::MAX_EDGE)
        .map(|edge| (edge, engine_result(edge)))
        .collect();
    let mut rss_mb = Vec::with_capacity(RSS_SERVERS);
    for _ in 0..RSS_SERVERS {
        let server = start_server()?;
        for (edge, engine) in &expected {
            let verdict = send(&server.addr, Request::Signoff { edge: *edge })
                .outcome
                .and_then(|body| {
                    check::check_signoff_reply(&body, *edge, engine.as_ref().map_err(Clone::clone)?)
                });
            tally.record(
                &format!("signoff on edge {edge} against the engine"),
                verdict,
            );
        }
        rss_mb.push(stop(server)?.max_rss_kib as f64 / 1024.0);
    }

    let wall = stats::mean(
        &per_edge
            .values()
            .map(|v| stats::median(v))
            .collect::<Vec<_>>(),
    );
    Ok(vec![
        Metric::new(
            "wall_ms",
            wall,
            "ms",
            format!(
                "client-observed POST /signoff: mean over {} edge sizes of the median, n={signoffs}",
                per_edge.len(),
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            stats::median(&rss_mb),
            "MB",
            format!("median over {RSS_SERVERS} servers of the max RSS (wait4) of a server that answered one signoff per edge size in turn"),
        ),
        setup,
    ])
}

/// A quantile of a timer summary in a Prometheus scrape, in seconds.
pub fn prom_quantile(text: &str, timer: &str, quantile: &str) -> Option<f64> {
    let key = format!("hotwire_{timer}_seconds{{quantile=\"{quantile}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&key)?.trim().parse().ok())
}
