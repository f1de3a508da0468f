//! Flight recorder: a fixed-memory ring of recent structured events,
//! and the diagnostic-bundle snapshot built from it.
//!
//! The metrics registry says *how much* and *how long*; the trace sink
//! says everything, but only if someone was capturing stderr. Neither
//! survives a crash usefully. This module is the black box in between:
//! every [`crate::trace::event`] and every explicit
//! [`crate::trace::Span::close`] — per-iteration residuals, failure
//! verdicts, health warnings, per-request lines in `hotwire serve` —
//! lands as one timestamped entry in a process-global ring of
//! [`CAPACITY`] slots, whatever the stderr level filter. Recording is
//! always on and bounded: one atomic sequence claim plus one
//! uncontended per-slot lock, overwriting the oldest event once the
//! ring laps.
//!
//! On an error-path exit, a panic, or SIGUSR1, the binary freezes the
//! ring together with a metrics snapshot and a numerical-health
//! summary into a **diagnostic bundle** ([`bundle`]) — one
//! self-contained JSON document that `hotwire doctor` can analyze
//! offline. The bundle schema is documented in
//! `docs/OBSERVABILITY.md`.

use std::fmt;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::json::Json;
use crate::sync::{AtomicU64, Ordering};

/// Ring capacity: the recorder keeps this many most-recent events.
/// 1024 events × ~100 bytes ≈ 100 KiB, the fixed memory bound.
pub const CAPACITY: usize = 1024;

/// Identifier of the bundle JSON schema emitted by [`bundle`].
pub const BUNDLE_SCHEMA: &str = "hotwire.bundle/v1";

/// One recorded breadcrumb, as it appears in snapshots and bundles.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (monotone across the whole process).
    pub seq: u64,
    /// Milliseconds since the recorder's first event (process-relative
    /// monotonic time, *not* wall-clock).
    pub t_ms: f64,
    /// The event's target or the closed span's name
    /// (`"coupled.iteration"`, `"request"`, …).
    pub kind: &'static str,
    /// The message (`close` for a span) and its ` key=value` fields.
    pub detail: String,
}

impl FlightEvent {
    /// Serializes to the bundle schema's event shape.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("seq", Json::from(self.seq)),
            ("t_ms", Json::from(self.t_ms)),
            ("kind", Json::from(self.kind)),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
}

// SAFETY(ordering): the head counter only hands out unique sequence
// numbers (a single RMW `fetch_add`); the event payload it indexes
// is published through the slot's Mutex, which provides the
// happens-before edge to readers. Loads of the head are used for
// counts and capacity math where an approximate in-flight value is
// acceptable. The loom model in tests/loom.rs checks uniqueness of
// sequence numbers and that a drain observes every completed write.
const RELAXED: Ordering = Ordering::Relaxed;

struct Slot {
    seq: u64,
    t_ms: f64,
    kind: &'static str,
    detail: String,
}

struct Ring {
    head: AtomicU64,
    slots: Vec<Mutex<Option<Slot>>>,
}

fn lock_slot(slot: &Mutex<Option<Slot>>) -> MutexGuard<'_, Option<Slot>> {
    // A panic while holding the guard can at worst leave one stale
    // event behind; the recorder must never take the process down.
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

static RING: LazyLock<Ring> = LazyLock::new(|| Ring {
    head: AtomicU64::new(0),
    slots: (0..CAPACITY).map(|_| Mutex::new(None)).collect(),
});

static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// Records one entry into the ring: the write path behind
/// [`crate::trace::event`] and [`crate::trace::Span::close`], which
/// instrumented code calls instead.
pub fn record(kind: &'static str, args: fmt::Arguments<'_>) {
    let detail = fmt::format(args);
    let t_ms = EPOCH.elapsed().as_secs_f64() * 1e3;
    let ring = &*RING;
    let seq = ring.head.fetch_add(1, RELAXED);
    #[allow(clippy::cast_possible_truncation)]
    let idx = (seq % CAPACITY as u64) as usize;
    let mut guard = lock_slot(&ring.slots[idx]);
    // Lap guard: if a writer stalled long enough for the ring to
    // wrap past it, the newer event wins and the stale one is
    // dropped — the ring is strictly "most recent CAPACITY events".
    if guard.as_ref().is_none_or(|s| s.seq < seq) {
        *guard = Some(Slot {
            seq,
            t_ms,
            kind,
            detail,
        });
    }
}

/// Copies the ring's current contents, oldest first.
#[must_use]
pub fn snapshot_events() -> Vec<FlightEvent> {
    let mut events: Vec<FlightEvent> = RING
        .slots
        .iter()
        .filter_map(|slot| {
            lock_slot(slot).as_ref().map(|s| FlightEvent {
                seq: s.seq,
                t_ms: s.t_ms,
                kind: s.kind,
                detail: s.detail.clone(),
            })
        })
        .collect();
    events.sort_by_key(|e| e.seq);
    events
}

/// Total events ever recorded (≥ the ring's current population; the
/// difference is what the ring has forgotten).
#[must_use]
pub fn recorded() -> u64 {
    RING.head.load(RELAXED)
}

/// Empties the ring and resets the sequence counter. Intended for
/// tests and for bracketing a measured region in a benchmark binary —
/// concurrent [`record`] calls during a clear may survive it.
pub fn clear() {
    let ring = &*RING;
    for slot in &ring.slots {
        *lock_slot(slot) = None;
    }
    ring.head.store(0, RELAXED);
}

/// Freezes the recorder, the metrics registry, and an optional health
/// summary into one diagnostic-bundle JSON document.
///
/// * `reason` — why the bundle exists: `"error-exit"`, `"panic"`,
///   `"sigusr1"`, `"request-error"`.
/// * `detail` — the triggering error message (or signal description).
/// * `health` — a [`crate::health::HealthReport`] in JSON form, when
///   the failing layer produced one.
/// * `spec_hash` — fingerprint of the resolved input spec, so bundles
///   from different workloads are distinguishable at a glance.
///
/// The document always satisfies [`BUNDLE_SCHEMA`].
#[must_use]
pub fn bundle(reason: &str, detail: &str, health: Option<&Json>, spec_hash: Option<&str>) -> Json {
    let events: Vec<Json> = snapshot_events().iter().map(FlightEvent::to_json).collect();
    let generated_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3);
    Json::object([
        ("schema", Json::from(BUNDLE_SCHEMA)),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("generated_unix_ms", Json::from(generated_unix_ms)),
        ("reason", Json::from(reason)),
        ("detail", Json::from(detail)),
        ("spec_hash", spec_hash.map_or(Json::Null, Json::from)),
        ("recorded_events", Json::from(recorded())),
        ("events", Json::Arr(events)),
        ("metrics", crate::metrics::snapshot().to_json()),
        ("health", health.map_or(Json::Null, Clone::clone)),
    ])
}

/// Builds a [`bundle`] and writes it into `dir` (created if missing)
/// under a process-unique name, returning the written path.
///
/// This is the one write path shared by every bundle producer — the
/// CLI's error-exit and panic hooks, `hotwire serve`'s 500 handler,
/// and the SIGUSR1 snapshot — so they all emit the same schema.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures; the caller
/// decides whether a failed dump is worth reporting (it must never
/// mask the original error).
pub fn write_bundle(
    dir: &str,
    reason: &str,
    detail: &str,
    health: Option<&Json>,
    spec_hash: Option<&str>,
) -> std::io::Result<String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // SAFETY(ordering): a pure filename uniquifier — `fetch_add` hands
    // out distinct values at any ordering; nothing is published through
    // this counter.
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::fs::create_dir_all(dir)?;
    let name = format!("hotwire-bundle-{}-{n}.json", std::process::id());
    let path = std::path::Path::new(dir).join(name);
    let doc = bundle(reason, detail, health, spec_hash);
    std::fs::write(&path, format!("{}\n", doc.to_pretty_string()))?;
    Ok(path.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::lock;

    #[test]
    fn events_come_back_in_order_with_unique_seqs() {
        let _guard = lock();
        clear();
        for i in 0..10 {
            record("stage", format_args!("step {i}"));
        }
        let events = snapshot_events();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.detail, format!("step {i}"));
            assert_eq!(e.kind, "stage");
            if i > 0 {
                assert!(e.seq > events[i - 1].seq);
                assert!(e.t_ms >= events[i - 1].t_ms);
            }
        }
        assert_eq!(recorded(), 10);
        clear();
    }

    #[test]
    fn ring_keeps_only_the_most_recent_capacity_events() {
        let _guard = lock();
        clear();
        let total = CAPACITY + 37;
        for i in 0..total {
            record("stage", format_args!("e{i}"));
        }
        let events = snapshot_events();
        assert_eq!(events.len(), CAPACITY);
        assert_eq!(events[0].detail, format!("e{}", total - CAPACITY));
        assert_eq!(events[CAPACITY - 1].detail, format!("e{}", total - 1));
        assert_eq!(recorded(), total as u64);
        clear();
    }

    #[test]
    fn concurrent_records_all_land() {
        let _guard = lock();
        clear();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..100 {
                        record("stage", format_args!("t{t}:{i}"));
                    }
                });
            }
        });
        let events = snapshot_events();
        assert_eq!(events.len(), 400);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "sequence numbers are unique");
        clear();
    }

    #[test]
    fn write_bundle_creates_the_directory_and_file() {
        let _guard = lock();
        let dir = std::env::temp_dir().join(format!("hotwire-bundle-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().into_owned();
        let path = write_bundle(&dir_s, "sigusr1", "operator snapshot", None, None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some(BUNDLE_SCHEMA)
        );
        assert_eq!(back.get("reason").and_then(Json::as_str), Some("sigusr1"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn bundle_has_the_documented_shape() {
        let _guard = lock();
        clear();
        crate::metrics::reset();
        crate::metrics::counter("t.bundle").inc();
        record("error", format_args!("it broke"));
        let health = crate::json::parse(r#"{"class": "diverging"}"#).unwrap();
        let b = bundle("error-exit", "it broke", Some(&health), Some("fnv-abc123"));
        let text = b.to_pretty_string();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some(BUNDLE_SCHEMA)
        );
        assert_eq!(
            back.get("reason").and_then(Json::as_str),
            Some("error-exit")
        );
        assert_eq!(
            back.get("spec_hash").and_then(Json::as_str),
            Some("fnv-abc123")
        );
        assert_eq!(back.get("recorded_events").and_then(Json::as_u64), Some(1));
        let events = back.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").and_then(Json::as_str), Some("error"));
        assert!(back
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some());
        assert_eq!(
            back.get("health")
                .and_then(|h| h.get("class"))
                .and_then(Json::as_str),
            Some("diverging")
        );
        crate::metrics::reset();
        clear();
    }
}
