//! Prometheus text-exposition (version 0.0.4) rendering of a
//! [`MetricsSnapshot`].
//!
//! This is what `hotwire serve` returns from `GET /metrics`, and it is
//! deliberately dependency-free: a snapshot is already a frozen tree of
//! numbers, so exposition is pure string formatting. An empty snapshot
//! renders as the single `hotwire_telemetry_enabled` gauge.
//!
//! # Naming conventions
//!
//! Registry names are dotted (`coupled.picard_iterations`); Prometheus
//! names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so every metric is
//! rendered as `hotwire_` + the registry name with each `.` (or any
//! other illegal character) replaced by `_`:
//!
//! * counters  → `hotwire_<name>_total` (TYPE `counter`)
//! * gauges    → `hotwire_<name>` plus `hotwire_<name>_min` /
//!   `hotwire_<name>_max` for the write envelope (TYPE `gauge`)
//! * timers    → `hotwire_<name>_seconds` (TYPE `summary`): one sample
//!   per quantile (`{quantile="0.5"}`, `0.9`, `0.99`) from the timer's
//!   log-linear histogram, plus `_seconds_sum` and `_seconds_count`.
//!   Times are recorded in nanoseconds and exposed in seconds, per the
//!   Prometheus base-unit convention.

use crate::metrics::MetricsSnapshot;

/// Maps a dotted registry name onto a legal Prometheus metric name:
/// `hotwire_` prefix, every character outside `[a-zA-Z0-9_:]` becomes
/// `_`, and a leading digit gains a `_` guard.
#[must_use]
pub fn metric_name(registry_name: &str) -> String {
    let mut out = String::with_capacity(registry_name.len() + 8);
    out.push_str("hotwire_");
    for c in registry_name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a float the way the exposition format expects (`Inf`,
/// `-Inf`, `NaN` spelled out; plain decimal otherwise — Rust's `{}`
/// never produces exponent notation for `f64`).
fn number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Renders `snapshot` in Prometheus text-exposition format 0.0.4.
///
/// The output always contains at least `hotwire_telemetry_enabled`
/// (always 1: every build records telemetry), so a scrape is never
/// empty.
#[must_use]
pub fn render(snapshot: &MetricsSnapshot) -> String {
    const MS_PER_SEC: f64 = 1.0e3;
    let mut out = String::new();

    header(
        &mut out,
        "hotwire_telemetry_enabled",
        "gauge",
        "Always 1: every build records telemetry.",
    );
    out.push_str("hotwire_telemetry_enabled 1\n");

    for (name, &value) in &snapshot.counters {
        let prom = format!("{}_total", metric_name(name));
        header(
            &mut out,
            &prom,
            "counter",
            &format!("Monotone event count of registry counter `{name}`."),
        );
        out.push_str(&format!("{prom} {value}\n"));
    }

    for (name, stats) in &snapshot.gauges {
        let prom = metric_name(name);
        header(
            &mut out,
            &prom,
            "gauge",
            &format!("Last value written to registry gauge `{name}`."),
        );
        out.push_str(&format!("{prom} {}\n", number(stats.value)));
        for (suffix, v, what) in [
            ("min", stats.min, "Smallest"),
            ("max", stats.max, "Largest"),
        ] {
            let sub = format!("{prom}_{suffix}");
            header(
                &mut out,
                &sub,
                "gauge",
                &format!("{what} value ever written to registry gauge `{name}`."),
            );
            out.push_str(&format!("{sub} {}\n", number(v)));
        }
    }

    for (name, t) in &snapshot.timers {
        let prom = format!("{}_seconds", metric_name(name));
        header(
            &mut out,
            &prom,
            "summary",
            &format!("Wall time of registry timer `{name}`, in seconds."),
        );
        for (q, v) in [("0.5", t.p50_ms), ("0.9", t.p90_ms), ("0.99", t.p99_ms)] {
            out.push_str(&format!(
                "{prom}{{quantile=\"{q}\"}} {}\n",
                number(v / MS_PER_SEC)
            ));
        }
        out.push_str(&format!("{prom}_sum {}\n", number(t.total_ms / MS_PER_SEC)));
        out.push_str(&format!("{prom}_count {}\n", t.count));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{GaugeStats, TimerStats};
    use std::collections::BTreeMap;

    fn sample() -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        counters.insert("solver.factor".to_owned(), 42);
        let mut gauges = BTreeMap::new();
        gauges.insert(
            "coupled.residual".to_owned(),
            GaugeStats {
                value: 1.5e-7,
                min: 1.5e-7,
                max: 0.25,
            },
        );
        let mut timers = BTreeMap::new();
        timers.insert(
            "coupled.run".to_owned(),
            TimerStats {
                count: 3,
                total_ms: 120.0,
                min_ms: 20.0,
                max_ms: 60.0,
                p50_ms: 40.0,
                p90_ms: 58.0,
                p99_ms: 60.0,
            },
        );
        MetricsSnapshot {
            counters,
            gauges,
            timers,
        }
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(metric_name("coupled.run"), "hotwire_coupled_run");
        assert_eq!(metric_name("a-b c.d"), "hotwire_a_b_c_d");
    }

    #[test]
    fn exposition_covers_every_metric_kind() {
        let text = render(&sample());
        assert!(text.contains("# TYPE hotwire_solver_factor_total counter\n"));
        assert!(text.contains("hotwire_solver_factor_total 42\n"));
        assert!(text.contains("# TYPE hotwire_coupled_residual gauge\n"));
        assert!(text.contains("hotwire_coupled_residual 0.00000015\n"));
        assert!(text.contains("hotwire_coupled_residual_max 0.25\n"));
        assert!(text.contains("# TYPE hotwire_coupled_run_seconds summary\n"));
        assert!(text.contains("hotwire_coupled_run_seconds{quantile=\"0.5\"} 0.04\n"));
        assert!(text.contains("hotwire_coupled_run_seconds_sum 0.12\n"));
        assert!(text.contains("hotwire_coupled_run_seconds_count 3\n"));
    }

    #[test]
    fn every_sample_line_is_well_formed() {
        // Each non-comment line is `<name>[{labels}] <value>`, the name
        // matches the Prometheus grammar, and HELP/TYPE precede samples.
        let text = render(&sample());
        let mut seen_type: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                seen_type.push(parts.next().unwrap().to_owned());
                assert!(matches!(
                    parts.next().unwrap(),
                    "counter" | "gauge" | "summary"
                ));
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = series.split('{').next().unwrap();
            let base = name
                .trim_end_matches("_sum")
                .trim_end_matches("_count")
                .trim_end_matches("_min")
                .trim_end_matches("_max");
            assert!(
                seen_type.iter().any(|t| t == name || t == base),
                "sample `{name}` has no TYPE header"
            );
            assert!(name.starts_with("hotwire_"));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name `{name}`"
            );
            assert!(value.parse::<f64>().is_ok(), "bad value `{value}`");
        }
    }

    #[test]
    fn empty_snapshot_still_renders() {
        let text = render(&MetricsSnapshot::default());
        assert!(text.contains("hotwire_telemetry_enabled 1\n"));
    }
}
