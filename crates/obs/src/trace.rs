//! Structured tracing: levelled events and RAII spans with a text or
//! JSONL sink on stderr.
//!
//! The design follows the `tracing` crate's span/event split scaled to
//! what this workspace needs, with no external dependency:
//!
//! * an **event** ([`event`]) is one structured record — a level, a
//!   target (dotted module-ish name), a message, and typed key/value
//!   fields. Every event also lands in the flight recorder
//!   ([`crate::recorder`]) with its target as the kind, whether or not
//!   the level filter lets stderr print it;
//! * a **span** is a named region of work ([`span`] returns a guard).
//!   Every span records its wall time into the metrics timer of the
//!   same name (so spans are visible in `--metrics-out` even when the
//!   log sink is quiet), maintains a thread-local stack that stamps
//!   events with their enclosing span path, and emits a close event at
//!   [`Level::Trace`] when dropped. [`Span::close`] ends a span with a
//!   level and result fields instead: they join the span's captured
//!   args, its stderr close line, and the flight recorder, so one
//!   close feeds every view.
//!
//! While a [`crate::spantree`] capture is active, every span
//! additionally records a begin/end event pair with a process-unique
//! span ID and a *logical parent* link — the enclosing span on this
//! thread, or, on a rayon worker, the span adopted through a
//! [`TraceContext`]. The capture path is independent of the stderr
//! sink: the level filter decides what is *printed*, never what the
//! retained trace *keeps*, so `--trace-out` files are identical at
//! `--log-level error` and `--log-level trace`.
//!
//! Crossing a thread boundary (a `par_iter`, a worker pool) snaps the
//! context explicitly:
//!
//! ```
//! let _outer = hotwire_obs::trace::span("doc.batch");
//! let ctx = hotwire_obs::trace::context();   // before the fan-out
//! // inside each worker closure:
//! let _adopt = ctx.adopt();                  // re-parents this thread
//! let _inner = hotwire_obs::trace::span("doc.item");
//! ```
//!
//! Nothing is written to stderr until [`init`] installs a
//! [`LogConfig`]; the `hotwire` CLI does this from `--log-level` /
//! `--log-format`. The JSONL format emits exactly one JSON object per
//! line on stderr — machine-parseable with the schema in
//! `docs/OBSERVABILITY.md`.
//!
//! Each thread keeps its span state in one thread-local: the open-span
//! stack, the adopted cross-thread parents, and its capture buffer. A
//! captured span touches it once to open and once to close.

use std::cell::RefCell;
use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::Timer;
use crate::spantree::ThreadBuffer;
use crate::sync::{AtomicU8, Ordering};

/// Event severity, conventional ordering (`Error` most severe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error,
    /// Something surprising that does not stop the run.
    Warn,
    /// High-level progress (one line per stage, not per iteration).
    Info,
    /// Per-iteration diagnostics (convergence residuals, stage times).
    Debug,
    /// Per-span-exit firehose.
    Trace,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Self::Error => "error",
            Self::Warn => "warn",
            Self::Info => "info",
            Self::Debug => "debug",
            Self::Trace => "trace",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Self::Error => 0,
            Self::Warn => 1,
            Self::Info => 2,
            Self::Debug => 3,
            Self::Trace => 4,
        }
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "error" => Ok(Self::Error),
            "warn" | "warning" => Ok(Self::Warn),
            "info" => Ok(Self::Info),
            "debug" => Ok(Self::Debug),
            "trace" => Ok(Self::Trace),
            other => Err(format!(
                "unknown log level `{other}` (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How emitted events are rendered on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `[level] target: message key=value …` — for people.
    #[default]
    Text,
    /// One JSON object per line — for machines (JSONL).
    Json,
}

impl FromStr for LogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Self::Text),
            "json" | "jsonl" => Ok(Self::Json),
            other => Err(format!("unknown log format `{other}` (expected text|json)")),
        }
    }
}

/// Sink configuration installed by [`init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Most verbose level that is emitted.
    pub level: Level,
    /// Output rendering.
    pub format: LogFormat,
}

impl Default for LogConfig {
    /// Warnings and errors, as text — quiet on a healthy run.
    fn default() -> Self {
        Self {
            level: Level::Warn,
            format: LogFormat::Text,
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// An unsigned count or index.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point quantity.
    F64(f64),
    /// A borrowed string.
    Str(&'a str),
    /// A flag.
    Bool(bool),
}

impl From<u64> for FieldValue<'_> {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for FieldValue<'_> {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<i64> for FieldValue<'_> {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<f64> for FieldValue<'_> {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl<'a> From<&'a str> for FieldValue<'a> {
    fn from(v: &'a str) -> Self {
        Self::Str(v)
    }
}

impl From<bool> for FieldValue<'_> {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl FieldValue<'_> {
    fn to_json(self) -> Json {
        match self {
            Self::U64(v) => Json::from(v),
            #[allow(clippy::cast_precision_loss)]
            Self::I64(v) => Json::Num(v as f64),
            Self::F64(v) => Json::Num(v),
            Self::Str(v) => Json::from(v),
            Self::Bool(v) => Json::from(v),
        }
    }
}

impl fmt::Display for FieldValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::U64(v) => write!(f, "{v}"),
            Self::I64(v) => write!(f, "{v}"),
            // Debug: the shortest round-tripping form, with an
            // exponent for tiny or huge magnitudes.
            Self::F64(v) => write!(f, "{v:?}"),
            Self::Str(v) => write!(f, "{v}"),
            Self::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Event fields: ordered `(name, value)` pairs.
pub type Fields<'a> = &'a [(&'a str, FieldValue<'a>)];

/// 255 = no subscriber installed.
static LEVEL: AtomicU8 = AtomicU8::new(255);
static FORMAT: AtomicU8 = AtomicU8::new(0);
static WRITE: Mutex<()> = Mutex::new(());

/// One entry per open span on this thread. `id` is `Some` only for
/// spans opened while a [`crate::spantree`] capture was recording.
struct Frame {
    name: &'static str,
    id: Option<u64>,
}

/// Everything this thread knows about spans.
struct ThreadSpans {
    /// The open spans, outermost first.
    stack: Vec<Frame>,
    /// Parents adopted from another thread via [`TraceContext::adopt`].
    adopted: Vec<u64>,
    /// This thread's capture buffer, registered at its first captured
    /// span. The registry keeps a second `Arc`; when the thread exits
    /// and drops this one, the next capture start prunes the buffer.
    buffer: Option<Arc<ThreadBuffer>>,
    /// Timer handles of the span names this thread has closed, keyed by
    /// the name's address and length, valid for registry generation
    /// `timers_generation` ([`crate::metrics::reset`] moves it on).
    timers: Vec<(&'static str, Timer)>,
    timers_generation: u64,
}

impl ThreadSpans {
    /// The logical parent for a span opened now on this thread: the
    /// nearest enclosing *captured* span, else the innermost adopted
    /// cross-thread context.
    fn parent(&self) -> Option<u64> {
        self.stack
            .iter()
            .rev()
            .find_map(|f| f.id)
            .or_else(|| self.adopted.last().copied())
    }

    fn buffer(&mut self) -> &ThreadBuffer {
        self.buffer.get_or_insert_with(ThreadBuffer::register)
    }

    /// The metrics timer of span `name`: the registry lock is taken once
    /// per name and thread, and again only after a registry reset.
    fn timer(&mut self, name: &'static str) -> &Timer {
        let generation = crate::metrics::generation();
        if self.timers_generation != generation {
            self.timers.clear();
            self.timers_generation = generation;
        }
        let at = match self.timers.iter().position(|&(n, _)| std::ptr::eq(n, name)) {
            Some(at) => at,
            None => {
                self.timers.push((name, crate::metrics::timer(name)));
                self.timers.len() - 1
            }
        };
        &self.timers[at].1
    }
}

thread_local! {
    static SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans {
            stack: Vec::new(),
            adopted: Vec::new(),
            buffer: None,
            timers: Vec::new(),
            timers_generation: 0,
        })
    };
}

/// Installs the stderr sink. Until this is called nothing is emitted.
///
/// Safe to call again (e.g. per test); the latest configuration wins.
pub fn init(config: LogConfig) {
    let format = match config.format {
        LogFormat::Text => 0,
        LogFormat::Json => 1,
    };
    // SAFETY(ordering): LEVEL and FORMAT are independent one-byte
    // configuration flags, each atomic on its own; no other memory
    // is published through them, so there is no release edge to
    // establish. A reader racing a reconfiguration may briefly
    // combine the new format with the old level (or vice versa) —
    // both fields are self-contained, every combination is a valid
    // configuration, and `init` documents last-writer-wins. The
    // loom model `trace_flags_never_tear` checks that each flag
    // individually only ever reads an installed value.
    FORMAT.store(format, Ordering::Relaxed);
    // SAFETY(ordering): same argument as FORMAT above — a
    // self-contained flag with last-writer-wins semantics.
    LEVEL.store(config.level.as_u8(), Ordering::Relaxed);
}

/// `true` when an event at `level` would currently be emitted.
#[must_use]
pub fn enabled(level: Level) -> bool {
    // SAFETY(ordering): a stale LEVEL read merely routes one event
    // through the previous verbosity setting — acceptable by the
    // last-writer-wins contract above; no data is guarded by this
    // flag.
    let current = LEVEL.load(Ordering::Relaxed);
    current != 255 && level.as_u8() <= current
}

fn span_path() -> Option<String> {
    SPANS.with(|spans| {
        let names: Vec<&str> = spans.borrow().stack.iter().map(|f| f.name).collect();
        (!names.is_empty()).then(|| names.join("/"))
    })
}

fn emit(level: Level, target: &str, message: &str, fields: Fields<'_>) {
    let line = render(level, target, message, fields);
    let _lock = WRITE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// Fields as ` key=value` pairs: the text sink's and the flight
/// recorder's rendering.
struct Pairs<'a>(Fields<'a>);

impl fmt::Display for Pairs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.0 {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

fn render(level: Level, target: &str, message: &str, fields: Fields<'_>) -> String {
    let span = span_path();
    // SAFETY(ordering): see `init` — FORMAT is a self-contained
    // rendering flag; a stale read renders one line in the previous
    // format, which last-writer-wins permits.
    if FORMAT.load(Ordering::Relaxed) == 1 {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64());
        let mut pairs = vec![
            ("ts".to_owned(), Json::Num(ts)),
            ("level".to_owned(), Json::from(level.as_str())),
            ("target".to_owned(), Json::from(target)),
            ("msg".to_owned(), Json::from(message)),
        ];
        if let Some(path) = span {
            pairs.push(("span".to_owned(), Json::from(path)));
        }
        for &(k, v) in fields {
            pairs.push((k.to_owned(), v.to_json()));
        }
        Json::Obj(pairs).to_string()
    } else {
        use std::fmt::Write;
        let mut line = format!("[{level}] {target}: {message}");
        if let Some(path) = span {
            let _ = write!(line, " span={path}");
        }
        let _ = write!(line, "{}", Pairs(fields));
        line
    }
}

fn to_args(fields: Fields<'_>) -> Vec<(String, Json)> {
    fields
        .iter()
        .map(|&(key, value)| (key.to_owned(), value.to_json()))
        .collect()
}

/// Emits one structured event: into the flight recorder always (kind
/// `target`, detail the message and ` key=value` fields), and on stderr
/// when `level` is enabled.
pub fn event(level: Level, target: &'static str, message: &str, fields: Fields<'_>) {
    if enabled(level) {
        emit(level, target, message, fields);
    }
    crate::recorder::record(target, format_args!("{message}{}", Pairs(fields)));
}

/// A named region of work; see [`span`].
#[derive(Debug)]
#[must_use = "a dropped Span closes immediately; bind it with `let _span = ...`"]
pub struct Span {
    name: &'static str,
    id: Option<u64>,
    start: Instant,
}

impl Span {
    /// The capture-assigned span ID — `Some` only when a
    /// [`crate::spantree`] capture was recording when the span opened.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Closes the span with a level and result fields (an iteration's
    /// residual, a run's verdict). The fields join the span's captured
    /// args after its begin args, follow `elapsed_ms` on its stderr
    /// close line when `level` is enabled, and land in the flight
    /// recorder as one event (kind = span name, detail `close
    /// elapsed_ms=… key=value …`). The metrics timer is fed as on drop;
    /// a dropped span closes at [`Level::Trace`] with no fields and no
    /// recorder event.
    pub fn close(self, level: Level, fields: Fields<'_>) {
        self.finish(Some((level, fields)));
        // `finish` did everything `drop` would; the guard owns no heap.
        std::mem::forget(self);
    }

    fn finish(&self, closed: Option<(Level, Fields<'_>)>) {
        let end_at = Instant::now();
        let elapsed = end_at.saturating_duration_since(self.start);
        let (level, fields) = closed.unwrap_or((Level::Trace, &[]));
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        if enabled(level) {
            let mut line = vec![("elapsed_ms", FieldValue::F64(elapsed_ms))];
            line.extend_from_slice(fields);
            emit(level, self.name, "close", &line);
        }
        if closed.is_some() {
            crate::recorder::record(
                self.name,
                format_args!("close elapsed_ms={elapsed_ms:?}{}", Pairs(fields)),
            );
        }
        SPANS.with(|spans| {
            let mut spans = spans.borrow_mut();
            spans.timer(self.name).observe(elapsed);
            if let Some(id) = self.id {
                // Unconditional once the span holds an ID: if the
                // capture was drained mid-span, this end is an orphan
                // the next assembly discards — never a torn pair.
                spans.buffer().end(id, end_at, to_args(fields));
            }
            let popped = spans.stack.pop();
            debug_assert_eq!(
                popped.map(|f| f.name),
                Some(self.name),
                "span stack out of order"
            );
        });
    }
}

/// Opens a span named `name` (dotted, e.g. `"coupled.step"`).
///
/// On drop (or [`Span::close`]) the span records its wall time into the
/// metrics timer of the same name, pops itself from the thread-local
/// span stack, and emits a `close` event with `elapsed_ms` (at
/// [`Level::Trace`] on drop). While a [`crate::spantree`] capture is
/// active it also records a begin/end pair into the span tree,
/// parented per [`context`].
pub fn span(name: &'static str) -> Span {
    span_with(name, &[])
}

/// Like [`span`], with attributes retained in the captured span tree
/// (e.g. the Picard iteration index). The attributes do not reach the
/// metrics timer, the stderr sink or the flight recorder; outside a
/// capture they are not even converted.
pub fn span_with(name: &'static str, fields: Fields<'_>) -> Span {
    let start = Instant::now();
    let id = SPANS.with(|spans| {
        let mut spans = spans.borrow_mut();
        let id = crate::spantree::capture_active().then(|| {
            let parent = spans.parent();
            spans.buffer().begin(name, parent, to_args(fields), start)
        });
        spans.stack.push(Frame { name, id });
        id
    });
    Span { name, id, start }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(None);
    }
}

/// A snapshot of the current logical span, for re-parenting work that
/// crosses a thread boundary (rayon `par_iter` closures, worker
/// pools). `Copy`.
///
/// Capture it *before* the fan-out with [`context`], then [`adopt`] it
/// inside each worker closure; spans the worker opens record the
/// originating span as their logical parent even though it lives on a
/// different OS thread. Outside a capture the context is empty and
/// adoption is free.
///
/// [`adopt`]: TraceContext::adopt
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceContext {
    parent: Option<u64>,
}

/// Captures the current logical span context on this thread. Empty
/// (and nearly free) unless a [`crate::spantree`] capture is active.
#[must_use]
pub fn context() -> TraceContext {
    let parent = if crate::spantree::capture_active() {
        SPANS.with(|spans| spans.borrow().parent())
    } else {
        None
    };
    TraceContext { parent }
}

impl TraceContext {
    /// Adopts this context on the current thread until the returned
    /// guard drops: spans opened meanwhile (with no captured local
    /// ancestor) parent to the context's span. Nesting adoptions is
    /// fine; the innermost wins.
    pub fn adopt(&self) -> ContextGuard {
        if let Some(parent) = self.parent {
            SPANS.with(|spans| spans.borrow_mut().adopted.push(parent));
        }
        ContextGuard {
            pushed: self.parent.is_some(),
        }
    }
}

/// RAII guard from [`TraceContext::adopt`]; un-adopts on drop.
#[derive(Debug)]
#[must_use = "a dropped ContextGuard un-adopts immediately; bind it with `let _ctx = ...`"]
pub struct ContextGuard {
    pushed: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.pushed {
            SPANS.with(|spans| {
                spans.borrow_mut().adopted.pop();
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_and_format_parse() {
        assert_eq!("debug".parse::<Level>(), Ok(Level::Debug));
        assert!("loud".parse::<Level>().is_err());
        assert_eq!("json".parse::<LogFormat>(), Ok(LogFormat::Json));
        assert!("xml".parse::<LogFormat>().is_err());
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn rendering_both_formats() {
        init(LogConfig {
            level: Level::Info,
            format: LogFormat::Text,
        });
        let fields: &[(&str, FieldValue<'_>)] = &[
            ("iter", 3usize.into()),
            ("dt", 0.5f64.into()),
            ("tag", "x".into()),
        ];
        let text = render(Level::Info, "coupled", "iteration", fields);
        assert_eq!(text, "[info] coupled: iteration iter=3 dt=0.5 tag=x");

        init(LogConfig {
            level: Level::Info,
            format: LogFormat::Json,
        });
        let line = render(Level::Warn, "cli", "bad \"flag\"", fields);
        let v = crate::json::parse(&line).expect("JSONL line parses");
        assert_eq!(
            v.get("level").and_then(crate::json::Json::as_str),
            Some("warn")
        );
        assert_eq!(
            v.get("msg").and_then(crate::json::Json::as_str),
            Some("bad \"flag\"")
        );
        assert_eq!(v.get("iter").and_then(crate::json::Json::as_u64), Some(3));
        // Leave the sink quiet for other tests.
        init(LogConfig {
            level: Level::Error,
            format: LogFormat::Text,
        });
    }

    #[test]
    fn spans_feed_timers_and_stack() {
        let _guard = crate::metrics::testutil::lock();
        crate::metrics::reset();
        {
            let _outer = span("t.outer");
            let _inner = span("t.inner");
            assert_eq!(span_path().as_deref(), Some("t.outer/t.inner"));
        }
        assert_eq!(span_path(), None);
        let snap = crate::metrics::snapshot();
        assert_eq!(snap.timers["t.outer"].count, 1);
        assert_eq!(snap.timers["t.inner"].count, 1);
        crate::metrics::reset();
    }

    /// A thread that closed a span name before `metrics::reset()`
    /// holds that name's timer in its cache; its next close of the name
    /// must still land in the fresh registry.
    #[test]
    fn a_span_closed_after_reset_lands_in_the_fresh_registry() {
        let _guard = crate::metrics::testutil::lock();
        crate::metrics::reset();
        drop(span("t.cached"));
        assert_eq!(crate::metrics::snapshot().timers["t.cached"].count, 1);
        crate::metrics::reset();
        drop(span("t.cached"));
        let fresh = crate::metrics::snapshot();
        assert_eq!(fresh.timers.get("t.cached").map(|t| t.count), Some(1));
        crate::metrics::reset();
    }

    /// One explicit close, four views: the timer of its name, the
    /// capture's args (after the begin args), one flight-recorder
    /// event, and one stderr line when its level is enabled — checked
    /// in a child process, since the sink writes the real stderr.
    #[test]
    fn a_closed_span_shows_up_once_in_each_view() {
        const CHILD: &str = "HOTWIRE_OBS_CLOSE_CHILD";
        let close = || {
            span_with("t.closed", &[("iteration", FieldValue::U64(1))])
                .close(Level::Debug, &[("residual", FieldValue::F64(0.25))]);
            span("t.quiet").close(Level::Trace, &[]);
        };
        if std::env::var_os(CHILD).is_some() {
            init(LogConfig {
                level: Level::Debug,
                format: LogFormat::Text,
            });
            close();
            return;
        }
        let _guard = crate::metrics::testutil::lock();
        crate::metrics::reset();
        crate::recorder::clear();
        crate::spantree::capture_start();
        close();
        let trace = crate::spantree::capture_take();

        assert_eq!(crate::metrics::snapshot().timers["t.closed"].count, 1);
        let captured: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "t.closed")
            .collect();
        assert_eq!(captured.len(), 1);
        assert_eq!(
            captured[0].args,
            vec![
                ("iteration".to_owned(), Json::from(1_u64)),
                ("residual".to_owned(), Json::Num(0.25)),
            ]
        );
        let ring: Vec<_> = crate::recorder::snapshot_events()
            .into_iter()
            .filter(|e| e.kind == "t.closed")
            .collect();
        assert_eq!(ring.len(), 1, "{ring:?}");
        assert!(ring[0].detail.starts_with("close elapsed_ms="), "{ring:?}");
        assert!(ring[0].detail.ends_with(" residual=0.25"), "{ring:?}");
        crate::metrics::reset();
        crate::recorder::clear();

        if cfg!(miri) {
            return; // Miri cannot spawn the child process.
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "trace::tests::a_closed_span_shows_up_once_in_each_view",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("t.")).collect();
        assert_eq!(lines.len(), 1, "only the debug close prints: {stderr}");
        assert!(
            lines[0].starts_with("[debug] t.closed: close span=t.closed elapsed_ms="),
            "{stderr}"
        );
        assert!(lines[0].ends_with(" residual=0.25"), "{stderr}");
    }

    #[test]
    fn events_land_in_the_recorder_whatever_the_level() {
        let _guard = crate::metrics::testutil::lock();
        crate::recorder::clear();
        event(Level::Trace, "t.event", "happened", &[("n", 3usize.into())]);
        let ring: Vec<_> = crate::recorder::snapshot_events()
            .into_iter()
            .filter(|e| e.kind == "t.event")
            .collect();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].detail, "happened n=3");
        crate::recorder::clear();
    }
}
