//! Observability for the hotwire workspace: metrics, tracing, JSON.
//!
//! The solver stack (sparse MNA factorizations, sweep fan-outs, the
//! coupled Picard loop) is the hot path of the repository; this crate
//! makes it inspectable without making it slower:
//!
//! * [`metrics`] — a process-global, rayon-safe registry of atomic
//!   counters, gauges, and wall-time histograms. Recording is lock-free
//!   (`fetch_add` on pre-registered cells); [`metrics::snapshot`]
//!   freezes everything into a serializable [`metrics::MetricsSnapshot`].
//! * [`histogram`] — the log-linear (HDR-style) bucketing behind every
//!   timer: lock-free recording, count-exact merging, and p50/p90/p99
//!   quantile estimates with a documented `1/32` relative-error bound.
//! * [`prom`] — Prometheus text-exposition (version 0.0.4) rendering of
//!   a snapshot, for `hotwire serve` and anything else that scrapes.
//! * [`trace`] — structured spans and events with a text or JSONL sink
//!   on stderr, levelled like conventional loggers (`error` … `trace`).
//!   [`trace::event`] and the span close are the crate's only event
//!   producers: a span close feeds the metrics timer of its name, and
//!   an explicit [`trace::Span::close`] with result fields and every
//!   event also land in the flight recorder, so `--metrics-out`,
//!   `--trace-out`, `--log-format json` and a bundle describe the same
//!   execution. [`trace::context`] / [`TraceContext::adopt`] carry the
//!   logical span across rayon thread boundaries.
//! * [`spantree`] — parallelism-aware span-tree capture: while a
//!   capture is active every span records begin/end events (ID, logical
//!   parent, thread index) into per-thread buffers, drained into a
//!   [`SpanTrace`] with JSONL and Chrome Trace Event (Perfetto)
//!   exports plus self-time, folded-stack, and critical-path analysis
//!   for the `hotwire trace` subcommand.
//! * [`health`] — numerical-health math: the Picard convergence-rate
//!   fit and early classification (converging / stagnated /
//!   oscillating / diverging), the [`HealthReport`] summary (which
//!   carries the grid solver's exact condition number), and the
//!   `health.*` metric-name catalog.
//! * [`recorder`] — the flight recorder: a fixed-memory ring of the
//!   most recent events and explicit span closes, always on at bounded
//!   cost, frozen into a diagnostic bundle ([`recorder::bundle`]) on
//!   error exits, panics, or SIGUSR1 for offline analysis by
//!   `hotwire doctor`.
//! * [`json`] — a small dependency-free JSON value type with a writer
//!   and parser. The workspace's `serde` is an offline no-op shim
//!   (see `shims/README.md`), so report files, snapshots, and span
//!   captures serialize through this module instead.
//!
//! Recording is always compiled in. Its cost is a few atomic adds per
//! counter or timer call and a thread-local push and pop per span; the
//! budget is measured in `docs/OBSERVABILITY.md`.
//!
//! ```
//! let solves = hotwire_obs::metrics::counter("doc.solves");
//! solves.inc();
//! let snap = hotwire_obs::metrics::snapshot();
//! assert!(snap.counters.get("doc.solves").copied().unwrap_or(0) >= 1);
//! let text = snap.to_json().to_string();
//! let back = hotwire_obs::json::parse(&text).unwrap();
//! assert_eq!(snap, hotwire_obs::metrics::MetricsSnapshot::from_json(&back).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod spantree;
pub mod stopwatch;
pub(crate) mod sync;
pub mod trace;

pub use health::{ConvergenceClass, HealthReport, PicardHealth};
pub use json::Json;
pub use metrics::MetricsSnapshot;
pub use recorder::FlightEvent;
pub use spantree::{SpanRecord, SpanTrace};
pub use stopwatch::Stopwatch;
pub use trace::{FieldValue, Level, LogConfig, LogFormat, TraceContext};
