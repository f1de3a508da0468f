//! Property tests for the span-tree serializers: any well-formed span
//! forest (generated by simulating begin/end opcodes against per-thread
//! LIFO stacks, with cross-thread parent adoption like a rayon worker)
//! must survive the Chrome Trace Event writer → `obs::json` parser →
//! `from_chrome` trip bit-exactly, the JSONL trip likewise, and the
//! emitted Chrome stream must be structurally valid: balanced
//! `ph:"B"`/`ph:"E"` pairs with matching names per `(pid, tid)` lane.
//!
//! The live recorder is checked against a plain model too: random
//! open/close/adopt/guard-drop programs on one to three real threads,
//! some spans opened before the capture starts, must capture each span
//! with the parent the model predicts.

use std::collections::HashMap;
use std::sync::mpsc;

use hotwire::obs::json::Json;
use hotwire::obs::spantree::{self, SpanRecord, SpanTrace};
use hotwire::obs::trace::{self, FieldValue, Level, TraceContext};
use proptest::prelude::*;

/// One simulation opcode; interpreted modulo the current state, so any
/// integer stream maps to a valid trace (classic "opcode soup").
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Open a span on thread `tid % live_threads`.
    Begin { tid: u8, with_arg: bool },
    /// Open a span on a brand-new thread, adopting the deepest open
    /// span of thread 0 as logical parent (the rayon-worker shape).
    BeginNewThread,
    /// Close the deepest open span on thread `tid % live_threads`.
    End { tid: u8 },
    /// Advance the clock by `1 + us` microseconds.
    Tick { us: u8 },
}

/// Decodes one raw `u32` into an opcode. Begins outnumber the other
/// kinds so generated forests actually nest a few levels deep.
fn decode(v: u32) -> Op {
    #[allow(clippy::cast_possible_truncation)]
    let payload = (v >> 3) as u8;
    match v % 8 {
        0..=2 => Op::Begin {
            tid: payload,
            with_arg: v & (1 << 12) != 0,
        },
        3 => Op::BeginNewThread,
        4 | 5 => Op::End { tid: payload },
        _ => Op::Tick { us: payload },
    }
}

/// Runs the opcode program and returns the resulting trace, sorted the
/// way every (de)serializer sorts — by `(start_us, id)`.
fn build_trace(ops: &[Op]) -> SpanTrace {
    struct OpenSpan {
        id: u64,
        parent: Option<u64>,
        name: String,
        start: u64,
        args: Vec<(String, Json)>,
    }
    let mut stacks: Vec<Vec<OpenSpan>> = vec![Vec::new()];
    let mut clock: u64 = 0;
    let mut next_id: u64 = 1;
    let mut done: Vec<SpanRecord> = Vec::new();
    let names = ["solve", "factor", "assess", "iterate", "drain"];
    #[allow(clippy::cast_precision_loss)]
    let close = |s: OpenSpan, tid: usize, at: u64, done: &mut Vec<SpanRecord>| {
        done.push(SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name,
            tid: tid as u64,
            start_us: s.start as f64,
            dur_us: (at - s.start) as f64,
            args: s.args,
        });
    };
    for &op in ops {
        match op {
            Op::Begin { tid, with_arg } => {
                let tid = tid as usize % stacks.len();
                let parent = stacks[tid].last().map(|s| s.id);
                let args = if with_arg {
                    vec![("iteration".to_owned(), Json::from(next_id))]
                } else {
                    Vec::new()
                };
                stacks[tid].push(OpenSpan {
                    id: next_id,
                    parent,
                    name: names[next_id as usize % names.len()].to_owned(),
                    start: clock,
                    args,
                });
                next_id += 1;
            }
            Op::BeginNewThread => {
                let parent = stacks[0].last().map(|s| s.id);
                stacks.push(vec![OpenSpan {
                    id: next_id,
                    parent,
                    name: names[next_id as usize % names.len()].to_owned(),
                    start: clock,
                    args: Vec::new(),
                }]);
                next_id += 1;
            }
            Op::End { tid } => {
                let tid = tid as usize % stacks.len();
                if let Some(s) = stacks[tid].pop() {
                    close(s, tid, clock, &mut done);
                }
            }
            Op::Tick { us } => clock += 1 + u64::from(us),
        }
    }
    // Drain: anything still open closes at the final clock, deepest
    // first (exactly what `capture_take` does at the drain instant).
    for (tid, stack) in stacks.into_iter().enumerate() {
        for s in stack.into_iter().rev() {
            close(s, tid, clock, &mut done);
        }
    }
    done.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    SpanTrace { spans: done }
}

/// Checks the raw Trace Event array: every `B` has a matching same-name
/// `E` on the same `(pid, tid)` lane, strictly LIFO, nothing left open.
fn assert_balanced_chrome(chrome: &Json) -> Result<(), String> {
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents array")?;
    let mut lanes: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).ok_or("event sans ph")?;
        if ph == "M" {
            continue; // metadata (process_name / thread_name)
        }
        let pid = e
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or("event sans pid")?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or("event sans tid")?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event sans name")?;
        let lane = lanes.entry((pid, tid)).or_default();
        match ph {
            "B" => lane.push(name.to_owned()),
            "E" => {
                let open = lane.pop().ok_or_else(|| format!("E `{name}` without B"))?;
                if open != name {
                    return Err(format!("E `{name}` closes B `{open}`"));
                }
            }
            other => return Err(format!("unexpected ph `{other}`")),
        }
    }
    for ((pid, tid), lane) in lanes {
        if !lane.is_empty() {
            return Err(format!("lane ({pid},{tid}) left open: {lane:?}"));
        }
    }
    Ok(())
}

proptest! {
    /// Chrome writer → text → `obs::json` parser → `from_chrome` is the
    /// identity on any well-formed span forest, and the intermediate
    /// Trace Event stream is balanced per lane.
    #[test]
    fn chrome_round_trip_is_exact_and_balanced(
        raw in prop::collection::vec(0_u32..u32::MAX, 0..120),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&v| decode(v)).collect();
        let trace = build_trace(&ops);
        let chrome = trace.to_chrome();
        if let Err(e) = assert_balanced_chrome(&chrome) {
            prop_assert!(false, "unbalanced chrome stream: {}", e);
        }
        // Through the actual text form, exactly as `hotwire trace`
        // ingests a `--trace-format chrome` file.
        let reparsed = hotwire::obs::json::parse(&chrome.to_pretty_string())
            .map_err(|e| TestCaseError::fail(format!("chrome text reparses: {e}")))?;
        let back = SpanTrace::from_chrome(&reparsed)
            .map_err(|e| TestCaseError::fail(format!("from_chrome: {e}")))?;
        prop_assert_eq!(back, trace);
    }

    /// The JSONL form round-trips bit-exactly too.
    #[test]
    fn jsonl_round_trip_is_exact(
        raw in prop::collection::vec(0_u32..u32::MAX, 0..120),
    ) {
        let ops: Vec<Op> = raw.iter().map(|&v| decode(v)).collect();
        let trace = build_trace(&ops);
        let back = SpanTrace::from_jsonl(&trace.to_jsonl())
            .map_err(|e| TestCaseError::fail(format!("from_jsonl: {e}")))?;
        prop_assert_eq!(back, trace);
        // And the auto-detecting entry point agrees.
        let auto = SpanTrace::parse(&trace.to_jsonl())
            .map_err(|e| TestCaseError::fail(format!("parse: {e}")))?;
        prop_assert_eq!(auto, trace);
    }
}

/// One step of a live-recorder program, decoded modulo the program's
/// state: a close with nothing open, or an adoption before any
/// snapshot, does nothing.
#[derive(Debug, Clone, Copy)]
enum Live {
    /// Open a span.
    Open,
    /// Close the innermost open span: dropped, or `Span::close`d.
    Close { explicit: bool },
    /// Snapshot `trace::context()`.
    Snap,
    /// Adopt snapshot `snap` (modulo the snapshots taken so far).
    Adopt { snap: usize },
    /// Drop the innermost adoption guard.
    Unadopt,
}

/// Decodes one raw `u32` into a worker index (modulo the thread count)
/// and a step.
fn decode_live(v: u32) -> (usize, Live) {
    let op = match v % 8 {
        0..=2 => Live::Open,
        3 | 4 => Live::Close {
            explicit: v & (1 << 10) != 0,
        },
        5 => Live::Snap,
        6 => Live::Adopt {
            snap: (v >> 12) as usize,
        },
        _ => Live::Unadopt,
    };
    ((v >> 4) as usize, op)
}

/// What a worker thread is asked to do; it answers every command with
/// one reply (the context, for `Snap`).
enum Cmd {
    Open(u64),
    Close(bool),
    Snap,
    Adopt(TraceContext),
    Unadopt,
    Finish,
}

/// A worker: owns its span and adoption guards, and runs commands one
/// at a time, so the program's interleaving is the one it lists.
fn live_worker(cmds: mpsc::Receiver<Cmd>, replies: mpsc::Sender<Option<TraceContext>>) {
    let mut spans = Vec::new();
    let mut guards = Vec::new();
    for cmd in cmds {
        let reply = match cmd {
            Cmd::Open(model) => {
                spans.push(trace::span_with(
                    "live.span",
                    &[("model", FieldValue::U64(model))],
                ));
                None
            }
            Cmd::Close(explicit) => {
                if let Some(span) = spans.pop() {
                    if explicit {
                        span.close(Level::Trace, &[]);
                    }
                }
                None
            }
            Cmd::Snap => Some(trace::context()),
            Cmd::Adopt(ctx) => {
                guards.push(ctx.adopt());
                None
            }
            Cmd::Unadopt => {
                guards.pop();
                None
            }
            Cmd::Finish => {
                while spans.pop().is_some() {}
                while guards.pop().is_some() {}
                None
            }
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

/// The model of one thread's span state: the open spans (their model
/// IDs, `None` when opened outside the capture), the adopted parents,
/// and whether each adoption guard pushed one.
#[derive(Debug, Clone, Default)]
struct ModelThread {
    stack: Vec<Option<u64>>,
    adopted: Vec<u64>,
    guards: Vec<bool>,
}

impl ModelThread {
    /// The nearest captured span on the stack, else the innermost
    /// adopted context.
    fn parent(&self) -> Option<u64> {
        self.stack
            .iter()
            .rev()
            .find_map(|&id| id)
            .or_else(|| self.adopted.last().copied())
    }
}

proptest! {
    /// The live recorder parents every captured span as the model
    /// does, records each thread under one `tid` of its own, and
    /// captures exactly the spans opened after `capture_start`.
    #[test]
    fn live_capture_parents_spans_like_the_model(
        raw in prop::collection::vec(0_u32..u32::MAX, 0..60),
        threads in 1_usize..4,
        start in 0_usize..61,
    ) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel();
            let replies = reply_tx.clone();
            senders.push(tx);
            handles.push(std::thread::spawn(move || live_worker(rx, replies)));
        }
        let run = |w: usize, cmd: Cmd| -> Option<TraceContext> {
            senders[w].send(cmd).expect("worker is alive");
            reply_rx.recv().expect("worker replies")
        };

        let start = start.min(raw.len());
        let mut model = vec![ModelThread::default(); threads];
        let mut snaps: Vec<(TraceContext, Option<u64>)> = Vec::new();
        // (model parent, worker) of each captured span; model ID = index + 1.
        let mut expected: Vec<(Option<u64>, usize)> = Vec::new();
        let mut capturing = false;
        for (k, &v) in raw.iter().enumerate() {
            if k == start {
                spantree::capture_start();
                capturing = true;
            }
            let (w, op) = decode_live(v);
            let w = w % threads;
            let m = &mut model[w];
            match op {
                Live::Open => {
                    let id = if capturing {
                        expected.push((m.parent(), w));
                        Some(expected.len() as u64)
                    } else {
                        None
                    };
                    m.stack.push(id);
                    run(w, Cmd::Open(id.unwrap_or(0)));
                }
                Live::Close { explicit } => {
                    if m.stack.pop().is_some() {
                        run(w, Cmd::Close(explicit));
                    }
                }
                Live::Snap => {
                    let parent = if capturing { m.parent() } else { None };
                    let ctx = run(w, Cmd::Snap).expect("a snapshot replies with its context");
                    snaps.push((ctx, parent));
                }
                Live::Adopt { snap } => {
                    if !snaps.is_empty() {
                        let (ctx, parent) = snaps[snap % snaps.len()];
                        m.guards.push(parent.is_some());
                        m.adopted.extend(parent);
                        run(w, Cmd::Adopt(ctx));
                    }
                }
                Live::Unadopt => {
                    if let Some(pushed) = m.guards.pop() {
                        if pushed {
                            m.adopted.pop();
                        }
                        run(w, Cmd::Unadopt);
                    }
                }
            }
        }
        if !capturing {
            spantree::capture_start();
        }
        for w in 0..threads {
            run(w, Cmd::Finish);
        }
        drop(senders);
        for h in handles {
            h.join().expect("worker joins");
        }
        let captured = spantree::capture_take();

        let model_id = |s: &SpanRecord| {
            s.args
                .iter()
                .find(|(k, _)| k == "model")
                .and_then(|(_, v)| v.as_u64())
        };
        prop_assert_eq!(captured.spans.len(), expected.len());
        let by_real: HashMap<u64, u64> = captured
            .spans
            .iter()
            .filter_map(|s| Some((s.id, model_id(s)?)))
            .collect();
        let mut tids: HashMap<usize, u64> = HashMap::new();
        for s in &captured.spans {
            let id = model_id(s).unwrap_or(0);
            prop_assert!(id >= 1 && id as usize <= expected.len(), "span {s:?}");
            let (parent, worker) = expected[id as usize - 1];
            let got = s.parent.map(|p| by_real.get(&p).copied());
            prop_assert_eq!(got, parent.map(Some), "parent of model span {}", id);
            let tid = *tids.entry(worker).or_insert(s.tid);
            prop_assert_eq!(tid, s.tid, "worker {} records under one tid", worker);
        }
        let mut distinct: Vec<u64> = tids.values().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), tids.len(), "each worker has a tid of its own");
    }
}
