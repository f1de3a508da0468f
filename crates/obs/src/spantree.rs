//! Span-tree capture: a causal, per-thread execution trace.
//!
//! The flat [`crate::trace`] sink answers *how long* each named region
//! took (every span feeds the metrics timer of the same name). This
//! module answers *why* and *on which thread*: while a capture is
//! active, every span records a begin/end event pair — with a
//! process-unique span ID, a logical parent link, and the dense index
//! of the recording thread — into a lock-free-to-contend per-thread
//! segment buffer. [`capture_take`] drains the buffers into a
//! [`SpanTrace`], which serializes to two formats:
//!
//! * **JSONL** ([`SpanTrace::to_jsonl`]) — one self-describing JSON
//!   object per completed span, parseable line-by-line with
//!   [`crate::json`], consistent with the stderr event sink's
//!   one-object-per-line convention;
//! * **Chrome Trace Event JSON** ([`SpanTrace::to_chrome`]) — loadable
//!   in Perfetto or `chrome://tracing`, with balanced `ph:"B"`/`"E"`
//!   pairs per thread and the span ID/parent carried in `args` so the
//!   file round-trips losslessly through [`SpanTrace::from_chrome`].
//!
//! Parent links are *logical*, not positional: a span opened on a rayon
//! worker under an adopted [`crate::trace::TraceContext`] records the
//! context's span as its parent even though that parent lives on a
//! different OS thread. The Chrome writer therefore distinguishes the
//! logical tree (carried in `args`) from the per-thread *stack* nesting
//! (the B/E bracketing, computed from the nearest same-thread logical
//! ancestor), which is what the timeline UI renders.
//!
//! Analysis helpers ([`SpanTrace::self_time`], [`SpanTrace::folded`],
//! [`SpanTrace::critical_paths`]) back the `hotwire trace` subcommand.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::Json;
use crate::sync::{AtomicU64, AtomicU8, Ordering};

/// One completed span in a captured trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span ID (assigned at begin; never 0).
    pub id: u64,
    /// Logical parent span ID — the enclosing span on the opening
    /// thread, or the adopted [`crate::trace::TraceContext`] on a rayon
    /// worker. `None` for roots.
    pub parent: Option<u64>,
    /// Span name — the same dotted name as the metrics timer it feeds.
    pub name: String,
    /// Dense capture-local index of the recording OS thread.
    pub tid: u64,
    /// Begin time in microseconds since the capture started.
    pub start_us: f64,
    /// Wall duration in microseconds.
    pub dur_us: f64,
    /// Attributes attached via [`crate::trace::span_with`] (e.g. the
    /// Picard iteration index), then the result fields of an explicit
    /// [`crate::trace::Span::close`]. Keys `id` and `parent` are
    /// reserved for the Chrome `args` encoding.
    pub args: Vec<(String, Json)>,
}

/// A drained capture: completed spans sorted by `(start_us, id)`.
///
/// Both file forms carry `"telemetry": true` (the JSONL header, the
/// Chrome `otherData`), which older readers expect; the parsers ignore
/// it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanTrace {
    /// Completed spans, sorted by begin time then ID.
    pub spans: Vec<SpanRecord>,
}

/// Per-span-name aggregate for the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Summed wall duration in microseconds.
    pub total_us: f64,
    /// Summed self time: duration minus the duration of direct logical
    /// children, clamped at zero per span (children running in parallel
    /// on rayon workers can overlap their parent's wall time).
    pub self_us: f64,
}

/// One slowest-child chain under a matching root span; see
/// [`SpanTrace::critical_paths`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The matching root span (e.g. one `coupled.iteration`).
    pub root: SpanRecord,
    /// The chain of slowest direct children, outermost first.
    pub steps: Vec<SpanRecord>,
}

impl SpanTrace {
    /// Renders the JSONL form: a header object, then one JSON object
    /// per span (`id`, `parent`, `name`, `tid`, `start_us`, `dur_us`,
    /// plus a nested `args` object when attributes are present).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Json::object([
            ("schema", Json::from("hotwire-spans")),
            ("version", Json::from(1_u64)),
            ("telemetry", Json::Bool(true)),
            ("spans", Json::from(self.spans.len())),
        ]);
        out.push_str(&header.to_string());
        out.push('\n');
        for s in &self.spans {
            let mut pairs = vec![("id".to_owned(), Json::from(s.id))];
            if let Some(p) = s.parent {
                pairs.push(("parent".to_owned(), Json::from(p)));
            }
            pairs.push(("name".to_owned(), Json::from(s.name.as_str())));
            pairs.push(("tid".to_owned(), Json::from(s.tid)));
            pairs.push(("start_us".to_owned(), Json::Num(s.start_us)));
            pairs.push(("dur_us".to_owned(), Json::Num(s.dur_us)));
            if !s.args.is_empty() {
                pairs.push((
                    "args".to_owned(),
                    Json::Obj(s.args.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
                ));
            }
            out.push_str(&Json::Obj(pairs).to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the JSONL form. Lines that are not span objects (the
    /// header, interleaved event lines) are skipped; malformed JSON or
    /// a span object missing a required key is an error.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = crate::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if v.get("schema").is_some() || v.get("dur_us").is_none() {
                continue; // the header, or a stray log event
            }
            let need = |key: &str| {
                v.get(key)
                    .cloned()
                    .ok_or_else(|| format!("line {}: span object missing `{key}`", i + 1))
            };
            spans.push(SpanRecord {
                id: need("id")?
                    .as_u64()
                    .ok_or_else(|| format!("line {}: `id` is not a u64", i + 1))?,
                parent: v.get("parent").and_then(Json::as_u64),
                name: need("name")?
                    .as_str()
                    .ok_or_else(|| format!("line {}: `name` is not a string", i + 1))?
                    .to_owned(),
                tid: v.get("tid").and_then(Json::as_u64).unwrap_or(0),
                start_us: need("start_us")?
                    .as_f64()
                    .ok_or_else(|| format!("line {}: `start_us` is not a number", i + 1))?,
                dur_us: need("dur_us")?
                    .as_f64()
                    .ok_or_else(|| format!("line {}: `dur_us` is not a number", i + 1))?,
                args: v
                    .get("args")
                    .and_then(Json::as_object)
                    .map(<[(String, Json)]>::to_vec)
                    .unwrap_or_default(),
            });
        }
        sort_spans(&mut spans);
        Ok(Self { spans })
    }

    /// Renders the Chrome Trace Event form (the JSON Object Format with
    /// a `traceEvents` array), loadable in Perfetto/`chrome://tracing`.
    ///
    /// Every span becomes one `ph:"B"`/`ph:"E"` pair on its recording
    /// thread; the pairs are emitted structurally (a depth-first walk
    /// of the per-thread stack nesting), so they are balanced per `tid`
    /// by construction. `B` events carry `args.id`/`args.parent` (plus
    /// user attributes), which makes [`SpanTrace::from_chrome`] an
    /// exact inverse. Timestamps are microseconds.
    #[must_use]
    pub fn to_chrome(&self) -> Json {
        let n = self.spans.len();
        let by_id: HashMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        // Per-thread stack nesting: each span brackets under its
        // nearest logical ancestor *on the same thread* (a rayon
        // worker's spans must not bracket under another thread's).
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots_by_tid: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut up = s.parent;
            let mut hops = 0usize;
            let mut stack_parent = None;
            while let Some(pid) = up {
                hops += 1;
                if hops > n {
                    break; // defensive: parent cycle in hand-edited input
                }
                match by_id.get(&pid) {
                    Some(&j) if self.spans[j].tid == s.tid => {
                        stack_parent = Some(j);
                        break;
                    }
                    Some(&j) => up = self.spans[j].parent,
                    None => break,
                }
            }
            match stack_parent {
                Some(j) => kids[j].push(i),
                None => roots_by_tid.entry(s.tid).or_default().push(i),
            }
        }
        let by_start = |list: &mut Vec<usize>| {
            list.sort_by(|&a, &b| {
                self.spans[a]
                    .start_us
                    .total_cmp(&self.spans[b].start_us)
                    .then(self.spans[a].id.cmp(&self.spans[b].id))
            });
        };
        for list in &mut kids {
            by_start(list);
        }

        let mut events = vec![Json::object([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1_u64)),
            ("tid", Json::from(0_u64)),
            ("args", Json::object([("name", Json::from("hotwire"))])),
        ])];
        for &tid in roots_by_tid.keys() {
            events.push(Json::object([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(1_u64)),
                ("tid", Json::from(tid)),
                (
                    "args",
                    Json::object([("name", Json::from(format!("thread-{tid}")))]),
                ),
            ]));
        }

        enum Walk {
            Open(usize),
            Close(usize),
        }
        for roots in roots_by_tid.values_mut() {
            by_start(roots);
            let mut work: Vec<Walk> = roots.iter().rev().map(|&i| Walk::Open(i)).collect();
            while let Some(item) = work.pop() {
                match item {
                    Walk::Open(i) => {
                        let s = &self.spans[i];
                        let mut args = vec![("id".to_owned(), Json::from(s.id))];
                        if let Some(p) = s.parent {
                            args.push(("parent".to_owned(), Json::from(p)));
                        }
                        args.extend(s.args.iter().map(|(k, v)| (k.clone(), v.clone())));
                        events.push(Json::object([
                            ("name", Json::from(s.name.as_str())),
                            ("cat", Json::from("hotwire")),
                            ("ph", Json::from("B")),
                            ("ts", Json::Num(s.start_us)),
                            ("pid", Json::from(1_u64)),
                            ("tid", Json::from(s.tid)),
                            ("args", Json::Obj(args)),
                        ]));
                        work.push(Walk::Close(i));
                        for &c in kids[i].iter().rev() {
                            work.push(Walk::Open(c));
                        }
                    }
                    Walk::Close(i) => {
                        let s = &self.spans[i];
                        events.push(Json::object([
                            ("name", Json::from(s.name.as_str())),
                            ("ph", Json::from("E")),
                            ("ts", Json::Num(s.start_us + s.dur_us)),
                            ("pid", Json::from(1_u64)),
                            ("tid", Json::from(s.tid)),
                        ]));
                    }
                }
            }
        }

        Json::object([
            ("displayTimeUnit", Json::from("ms")),
            ("otherData", Json::object([("telemetry", Json::Bool(true))])),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// Parses a Chrome Trace Event value (either the object format with
    /// `traceEvents` or a bare event array), reconstructing the span
    /// tree from a per-thread `B`/`E` stack.
    ///
    /// Errors on an `E` without a matching `B` on the same thread, a
    /// name mismatch between a pair, an end before its begin, or begin
    /// events left open at the end of the array — i.e. success implies
    /// the trace is balanced.
    pub fn from_chrome(v: &Json) -> Result<Self, String> {
        let events = match v {
            Json::Arr(events) => events.as_slice(),
            other => other
                .get("traceEvents")
                .and_then(Json::as_array)
                .ok_or("chrome trace: missing `traceEvents` array")?,
        };
        // Events without an explicit args.id get fresh IDs above every
        // explicit one, so synthesized IDs never collide.
        let mut next_id = events
            .iter()
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_u64)
            })
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let mut stacks: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        let mut spans = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing `ph`"))?;
            let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
            match ph {
                "B" => {
                    let name = e
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event {i}: B event missing `name`"))?;
                    let ts = e
                        .get("ts")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("event {i}: B event missing `ts`"))?;
                    let args = e.get("args").and_then(Json::as_object).unwrap_or(&[]);
                    let explicit = |key: &str| {
                        args.iter()
                            .find(|(k, _)| k == key)
                            .and_then(|(_, v)| v.as_u64())
                    };
                    let id = explicit("id").unwrap_or_else(|| {
                        let id = next_id;
                        next_id = next_id.saturating_add(1);
                        id
                    });
                    let stack = stacks.entry(tid).or_default();
                    let parent = explicit("parent").or_else(|| stack.last().map(|p| p.id));
                    stack.push(SpanRecord {
                        id,
                        parent,
                        name: name.to_owned(),
                        tid,
                        start_us: ts,
                        dur_us: 0.0,
                        args: args
                            .iter()
                            .filter(|(k, _)| k != "id" && k != "parent")
                            .cloned()
                            .collect(),
                    });
                }
                "E" => {
                    let ts = e
                        .get("ts")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("event {i}: E event missing `ts`"))?;
                    let mut done = stacks
                        .get_mut(&tid)
                        .and_then(Vec::pop)
                        .ok_or_else(|| format!("event {i}: E on tid {tid} without an open B"))?;
                    if let Some(name) = e.get("name").and_then(Json::as_str) {
                        if name != done.name {
                            return Err(format!(
                                "event {i}: E named `{name}` closes B named `{}`",
                                done.name
                            ));
                        }
                    }
                    if ts < done.start_us {
                        return Err(format!(
                            "event {i}: span `{}` ends before it begins",
                            done.name
                        ));
                    }
                    done.dur_us = ts - done.start_us;
                    spans.push(done);
                }
                // Metadata and phases this writer never emits (counters,
                // complete events, flows) are skipped, not errors.
                _ => {}
            }
        }
        for (tid, stack) in &stacks {
            if !stack.is_empty() {
                return Err(format!(
                    "unbalanced trace: {} B event(s) never closed on tid {tid}",
                    stack.len()
                ));
            }
        }
        sort_spans(&mut spans);
        Ok(Self { spans })
    }

    /// Parses either format: whole-text Chrome Trace Event JSON (object
    /// with `traceEvents`, or a bare event array), else line-based
    /// JSONL.
    pub fn parse(text: &str) -> Result<Self, String> {
        if let Ok(v) = crate::json::parse(text) {
            if matches!(v, Json::Arr(_)) || v.get("traceEvents").is_some() {
                return Self::from_chrome(&v);
            }
        }
        Self::from_jsonl(text)
    }

    /// Aggregates per-name totals and self time, sorted by descending
    /// self time (ties by name).
    ///
    /// Self time subtracts the durations of *direct logical children*
    /// from each span and clamps at zero — children that ran in
    /// parallel on rayon workers can sum past their parent's wall time,
    /// and that surplus is concurrency, not self work.
    #[must_use]
    pub fn self_time(&self) -> Vec<NameSummary> {
        let mut child_sum: HashMap<u64, f64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_sum.entry(p).or_insert(0.0) += s.dur_us;
            }
        }
        let mut by_name: BTreeMap<&str, NameSummary> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.dur_us - child_sum.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            let entry = by_name
                .entry(s.name.as_str())
                .or_insert_with(|| NameSummary {
                    name: s.name.clone(),
                    count: 0,
                    total_us: 0.0,
                    self_us: 0.0,
                });
            entry.count += 1;
            entry.total_us += s.dur_us;
            entry.self_us += own;
        }
        let mut rows: Vec<NameSummary> = by_name.into_values().collect();
        rows.sort_by(|a, b| {
            b.self_us
                .total_cmp(&a.self_us)
                .then_with(|| a.name.cmp(&b.name))
        });
        rows
    }

    /// Folded-stack lines for flamegraph tools (inferno, speedscope):
    /// `root;child;leaf` stacks keyed by the logical parent chain, with
    /// integer self-microsecond weights. Zero-weight stacks are
    /// dropped. Sorted by descending weight (ties by stack).
    #[must_use]
    pub fn folded(&self) -> Vec<(String, u64)> {
        let by_id: HashMap<u64, &SpanRecord> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut child_sum: HashMap<u64, f64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_sum.entry(p).or_insert(0.0) += s.dur_us;
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let own = (s.dur_us - child_sum.get(&s.id).copied().unwrap_or(0.0))
                .max(0.0)
                .round() as u64;
            if own == 0 {
                continue;
            }
            let mut chain = vec![s.name.as_str()];
            let mut up = s.parent;
            let mut hops = 0usize;
            while let Some(pid) = up {
                hops += 1;
                if hops > self.spans.len() {
                    break; // defensive: parent cycle in hand-edited input
                }
                match by_id.get(&pid) {
                    Some(p) => {
                        chain.push(p.name.as_str());
                        up = p.parent;
                    }
                    None => break,
                }
            }
            chain.reverse();
            *stacks.entry(chain.join(";")).or_insert(0) += own;
        }
        let mut rows: Vec<(String, u64)> = stacks.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// For every span named `root_name` (e.g. `coupled.iteration`),
    /// extracts the slowest-child chain: repeatedly descend into the
    /// longest-duration direct logical child. This is the critical path
    /// of each Picard iteration — the work that bounded its wall time.
    #[must_use]
    pub fn critical_paths(&self, root_name: &str) -> Vec<CriticalPath> {
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == root_name)
            .map(|root| {
                let mut steps = Vec::new();
                let mut cur = root.id;
                let mut hops = 0usize;
                while let Some(kids) = children.get(&cur) {
                    hops += 1;
                    if hops > self.spans.len() {
                        break; // defensive: parent cycle in hand-edited input
                    }
                    let Some(best) = kids
                        .iter()
                        .copied()
                        .max_by(|a, b| a.dur_us.total_cmp(&b.dur_us).then_with(|| b.id.cmp(&a.id)))
                    else {
                        break;
                    };
                    steps.push(best.clone());
                    cur = best.id;
                }
                CriticalPath {
                    root: root.clone(),
                    steps,
                }
            })
            .collect()
    }
}

fn sort_spans(spans: &mut [SpanRecord]) {
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
}

/// 1 while a capture is recording. Purely a sampling gate: span
/// guards that saw 0 at open simply don't record, and the drain
/// discards any half pair a racing guard produced.
static RECORDING: AtomicU8 = AtomicU8::new(0);
/// Next span ID; IDs start at 1 and never repeat within a process.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Next dense thread index, assigned at first record per thread.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

enum RawEvent {
    Begin {
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        at: Instant,
        args: Vec<(String, Json)>,
    },
    End {
        id: u64,
        at: Instant,
        args: Vec<(String, Json)>,
    },
}

/// One thread's capture buffer. [`crate::trace`] keeps the thread's
/// handle with the rest of its span state and records through it.
pub(crate) struct ThreadBuffer {
    tid: u64,
    events: Mutex<Vec<RawEvent>>,
}

struct Shared {
    epoch: Mutex<Option<Instant>>,
    buffers: Mutex<Vec<Arc<ThreadBuffer>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        epoch: Mutex::new(None),
        buffers: Mutex::new(Vec::new()),
    })
}

impl ThreadBuffer {
    /// A new buffer with the next thread index, registered for the
    /// drain.
    pub(crate) fn register() -> Arc<Self> {
        // SAFETY(ordering): pure unique-index allocation; the
        // fetch_add's atomicity alone guarantees distinct tids
        // and nothing else is published through this counter.
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(Self {
            tid,
            events: Mutex::new(Vec::new()),
        });
        lock(&shared().buffers).push(Arc::clone(&buf));
        buf
    }

    /// Records a begin event and returns the new span's ID. The hot
    /// path touches only this thread's own buffer mutex — uncontended
    /// except while a drain is in progress.
    pub(crate) fn begin(
        &self,
        name: &'static str,
        parent: Option<u64>,
        args: Vec<(String, Json)>,
        at: Instant,
    ) -> u64 {
        // SAFETY(ordering): pure unique-ID allocation; atomicity alone
        // guarantees uniqueness and no other memory rides on the edge.
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        lock(&self.events).push(RawEvent::Begin {
            id,
            parent,
            name,
            at,
            args,
        });
        id
    }

    /// Records the end event for a span begun during a capture, with
    /// the result args of an explicit close. Called unconditionally
    /// once a span holds an ID — if the capture was drained in between,
    /// the orphan end is discarded by the next assembly rather than
    /// lost mid-pair.
    pub(crate) fn end(&self, id: u64, at: Instant, args: Vec<(String, Json)>) {
        lock(&self.events).push(RawEvent::End { id, at, args });
    }
}

/// Starts (or restarts) the process-global span capture: prunes the
/// buffers of exited threads, clears the rest, stamps the epoch, raises
/// the flag. From here until [`capture_take`], every
/// [`crate::trace::span`] records a begin/end pair into its thread's
/// buffer.
pub fn capture_start() {
    {
        let mut buffers = lock(&shared().buffers);
        buffers.retain(|b| Arc::strong_count(b) > 1);
        for b in buffers.iter() {
            lock(&b.events).clear();
        }
    }
    *lock(&shared().epoch) = Some(Instant::now());
    // SAFETY(ordering): sampling gate only — see `capture_active`. The
    // epoch is published under its own mutex, and event timestamps
    // are clamped to it at assembly, so a recorder that races the
    // flag cannot produce a nonsensical time.
    RECORDING.store(1, Ordering::Relaxed);
}

/// `true` while a capture is recording.
#[must_use]
pub fn capture_active() -> bool {
    // SAFETY(ordering): RECORDING is a self-contained sampling
    // gate; no memory is published through it. Recorders stamp
    // events with their own `Instant` and the drain pairs or
    // discards them, so a stale read costs at most one span at a
    // capture boundary. The loom model
    // `trace_capture_drain_is_complete_and_balanced` exercises
    // recording racing a drain.
    RECORDING.load(Ordering::Relaxed) == 1
}

/// Stops the capture and drains every thread's buffer into a
/// [`SpanTrace`]. Spans still open at drain time are closed at the
/// drain instant (their end events, arriving later, are discarded as
/// orphans by the next assembly).
#[must_use]
pub fn capture_take() -> SpanTrace {
    // SAFETY(ordering): sampling gate only — see `capture_active`.
    RECORDING.store(0, Ordering::Relaxed);
    let drained_at = Instant::now();
    let Some(epoch) = lock(&shared().epoch).take() else {
        return SpanTrace::default();
    };
    let mut all: Vec<(u64, RawEvent)> = Vec::new();
    {
        let buffers = lock(&shared().buffers);
        for b in buffers.iter() {
            let events = std::mem::take(&mut *lock(&b.events));
            all.extend(events.into_iter().map(|e| (b.tid, e)));
        }
    }
    let us = |at: Instant| {
        at.checked_duration_since(epoch)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e6
    };
    let mut open: BTreeMap<u64, SpanRecord> = BTreeMap::new();
    let mut ends = Vec::new();
    for (tid, e) in all {
        match e {
            RawEvent::Begin {
                id,
                parent,
                name,
                at,
                args,
            } => {
                open.insert(
                    id,
                    SpanRecord {
                        id,
                        parent,
                        name: name.to_owned(),
                        tid,
                        start_us: us(at),
                        dur_us: 0.0,
                        args,
                    },
                );
            }
            RawEvent::End { id, at, args } => ends.push((id, at, args)),
        }
    }
    let mut spans = Vec::with_capacity(open.len());
    for (id, at, args) in ends {
        // Orphan ends (begin drained by a previous capture) have no
        // entry here and are dropped.
        if let Some(mut r) = open.remove(&id) {
            r.dur_us = (us(at) - r.start_us).max(0.0);
            r.args.extend(args);
            spans.push(r);
        }
    }
    for (_, mut r) in open {
        r.dur_us = (us(drained_at) - r.start_us).max(0.0);
        spans.push(r);
    }
    sort_spans(&mut spans);
    SpanTrace { spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-thread trace: main runs `root` [0, 1000] with
    /// children `stage_a` [0, 400] and `stage_b` [400, 1000]; a worker
    /// runs `task` [450, 550] twice with logical parent `stage_b`.
    fn sample() -> SpanTrace {
        let span = |id, parent, name: &str, tid, start_us: f64, dur_us: f64| SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            tid,
            start_us,
            dur_us,
            args: Vec::new(),
        };
        let mut t = SpanTrace {
            spans: vec![
                span(1, None, "root", 0, 0.0, 1000.0),
                span(2, Some(1), "stage_a", 0, 0.0, 400.0),
                span(3, Some(1), "stage_b", 0, 400.0, 600.0),
                span(4, Some(3), "task", 1, 450.0, 100.0),
                span(5, Some(3), "task", 1, 560.0, 50.0),
            ],
        };
        t.spans[3].args = vec![("index".to_owned(), Json::from(0_u64))];
        t
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample();
        let back = SpanTrace::from_jsonl(&t.to_jsonl()).expect("parses");
        assert_eq!(back, t);
        // And through the auto-detecting entry point.
        assert_eq!(SpanTrace::parse(&t.to_jsonl()).expect("parses"), t);
    }

    #[test]
    fn chrome_round_trips_and_balances() {
        let t = sample();
        let chrome = t.to_chrome();
        // Balanced B/E per tid, checked the pedestrian way.
        let events = chrome
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
        for e in events {
            let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => *depth.entry(tid).or_insert(0) += 1,
                Some("E") => {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "E before B on tid {tid}");
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced: {depth:?}");
        // Lossless: text round trip through the parser.
        let text = chrome.to_pretty_string();
        let back = SpanTrace::parse(&text).expect("chrome parses");
        assert_eq!(back, t);
    }

    #[test]
    fn chrome_parser_rejects_unbalanced_input() {
        let missing_end = r#"{"traceEvents":[
            {"ph":"B","name":"a","ts":0,"tid":0},
            {"ph":"B","name":"b","ts":1,"tid":0},
            {"ph":"E","name":"b","ts":2,"tid":0}
        ]}"#;
        let v = crate::json::parse(missing_end).expect("valid json");
        let err = SpanTrace::from_chrome(&v).expect_err("unbalanced");
        assert!(err.contains("never closed"), "{err}");

        let orphan_end = r#"{"traceEvents":[{"ph":"E","name":"a","ts":2,"tid":3}]}"#;
        let v = crate::json::parse(orphan_end).expect("valid json");
        let err = SpanTrace::from_chrome(&v).expect_err("orphan end");
        assert!(err.contains("without an open B"), "{err}");
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = sample();
        let rows = t.self_time();
        let get = |name: &str| rows.iter().find(|r| r.name == name).expect(name);
        // root: 1000 - (400 + 600) = 0 self.
        assert!((get("root").self_us - 0.0).abs() < 1e-9);
        // stage_b: 600 - (100 + 50) = 450 self.
        assert!((get("stage_b").self_us - 450.0).abs() < 1e-9);
        assert_eq!(get("task").count, 2);
        assert!((get("task").total_us - 150.0).abs() < 1e-9);
        // Sorted by descending self time.
        assert!(rows.windows(2).all(|w| w[0].self_us >= w[1].self_us));
    }

    #[test]
    fn folded_stacks_follow_logical_parents() {
        let t = sample();
        let folded = t.folded();
        let get = |stack: &str| {
            folded
                .iter()
                .find(|(s, _)| s == stack)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        // The worker's spans fold under the cross-thread logical chain.
        assert_eq!(get("root;stage_b;task"), 150);
        assert_eq!(get("root;stage_b"), 450);
        assert_eq!(get("root;stage_a"), 400);
        // root has zero self time, so no bare "root" line.
        assert!(folded.iter().all(|(s, _)| s != "root"));
    }

    #[test]
    fn critical_path_descends_into_slowest_children() {
        let t = sample();
        let paths = t.critical_paths("root");
        assert_eq!(paths.len(), 1);
        let names: Vec<&str> = paths[0].steps.iter().map(|s| s.name.as_str()).collect();
        // stage_b (600) beats stage_a (400); task#4 (100) beats #5 (50).
        assert_eq!(names, ["stage_b", "task"]);
        assert_eq!(paths[0].steps[1].id, 4);
    }

    #[test]
    fn capture_records_nested_and_cross_thread_spans() {
        // Capture state is process-global; serialize with the other
        // registry-touching tests.
        let _guard = crate::metrics::testutil::lock();
        capture_start();
        {
            let _root = crate::trace::span("cap.root");
            {
                let _child = crate::trace::span_with(
                    "cap.child",
                    &[("iteration", crate::trace::FieldValue::U64(7))],
                );
            }
            let ctx = crate::trace::context();
            std::thread::spawn(move || {
                let _adopt = ctx.adopt();
                let _task = crate::trace::span("cap.task");
            })
            .join()
            .map_err(|_| "worker panicked")
            .expect("worker thread joins");
        }
        let t = capture_take();
        assert!(!capture_active());
        let jsonl = t.to_jsonl();
        let header =
            crate::json::parse(jsonl.lines().next().expect("header line")).expect("header parses");
        assert_eq!(header.get("telemetry").and_then(Json::as_bool), Some(true));
        let find = |name: &str| t.spans.iter().find(|s| s.name == name).expect(name);
        let root = find("cap.root");
        let child = find("cap.child");
        let task = find("cap.task");
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        // Cross-thread adoption: same logical parent, different thread.
        assert_eq!(task.parent, Some(root.id));
        assert_ne!(task.tid, root.tid);
        assert_eq!(
            child.args,
            vec![("iteration".to_owned(), Json::from(7_u64))]
        );
        assert!(root.dur_us >= child.dur_us);
        // Nothing records once the capture is drained.
        {
            let _late = crate::trace::span("cap.late");
        }
        assert!(capture_take().spans.is_empty());
    }

    #[test]
    fn open_spans_are_closed_at_drain_time() {
        let _guard = crate::metrics::testutil::lock();
        capture_start();
        let still_open = crate::trace::span("cap.open");
        let t = capture_take();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "cap.open");
        assert!(t.spans[0].dur_us >= 0.0);
        drop(still_open); // its orphan end is discarded by the next take
        capture_start();
        assert!(capture_take().spans.is_empty());
    }
}
