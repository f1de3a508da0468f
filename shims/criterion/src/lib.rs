//! Offline stand-in for `criterion`.
//!
//! Implements the measurement API this workspace's benches use —
//! `Criterion`, `benchmark_group`/`sample_size`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple but honest
//! timer: per benchmark it auto-scales the iteration count to a target
//! sample duration, collects `sample_size` samples, and reports the
//! median/mean/min per-iteration time.
//!
//! Extras over a plain stopwatch:
//!
//! * Every run appends machine-readable results to
//!   `target/criterion-shim/<bench-binary>.json` (override the directory
//!   with `CRITERION_SHIM_DIR`), so a per-size sweep can be read back
//!   without parsing terminal output.
//! * A positional CLI argument filters benchmarks by substring, matching
//!   `cargo bench -- <filter>` usage; criterion's own flags are ignored.
//!
//! Swap the workspace dependency back to crates.io `criterion` when
//! network access is available.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target duration of one sample batch (tunable via
/// `CRITERION_SHIM_SAMPLE_MS`).
fn target_sample_duration() -> Duration {
    let ms = std::env::var("CRITERION_SHIM_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_u64);
    Duration::from_millis(ms)
}

/// One benchmark's collected statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full benchmark id (`group/function` or bare function name).
    pub id: String,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
    /// Median ns/iter.
    pub median_ns: f64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Fastest-sample ns/iter.
    pub min_ns: f64,
}

/// The benchmark driver.
pub struct Criterion {
    filter: Option<String>,
    default_sample_size: usize,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench passes `--bench` (and sometimes criterion flags);
        // treat the first non-flag argument as a substring filter.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Self {
            filter,
            default_sample_size: 10,
            records: Vec::new(),
        }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmarks a closure under a bare name.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let sample_size = self.default_sample_size;
        self.run_one(id.to_owned(), sample_size, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: String, sample_size: usize, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        // Calibration pass: one iteration, to pick iters_per_sample.
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        let once = bencher.elapsed.max(Duration::from_nanos(1));
        let target = target_sample_duration();
        let iters_per_sample = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(sample_size);
        for _ in 0..sample_size {
            let mut bencher = Bencher {
                iters: iters_per_sample,
                elapsed: Duration::ZERO,
            };
            f(&mut bencher);
            #[allow(clippy::cast_precision_loss)]
            let ns = bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64;
            per_iter_ns.push(ns);
        }
        per_iter_ns.sort_by(f64::total_cmp);
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        let min = per_iter_ns[0];
        println!(
            "{id:<56} time: [{} {} {}]  ({iters_per_sample} iters × {sample_size} samples)",
            format_ns(min),
            format_ns(median),
            format_ns(per_iter_ns[per_iter_ns.len() - 1]),
        );
        self.records.push(BenchRecord {
            id,
            iters_per_sample,
            samples: sample_size,
            median_ns: median,
            mean_ns: mean,
            min_ns: min,
        });
    }

    /// All records measured so far.
    #[must_use]
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Writes the JSON results file; called by `criterion_main!`.
    pub fn finalize(&self) {
        if self.records.is_empty() {
            return;
        }
        let dir = std::env::var("CRITERION_SHIM_DIR")
            .unwrap_or_else(|_| "target/criterion-shim".to_owned());
        let bin = std::env::args()
            .next()
            .map(|p| {
                std::path::Path::new(&p)
                    .file_stem()
                    .map_or_else(|| "bench".to_owned(), |s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "bench".to_owned());
        // Strip the -<hash> suffix cargo appends to bench binaries.
        let bin = bin
            .rsplit_once('-')
            .filter(|(_, h)| h.len() == 16 && h.chars().all(|c| c.is_ascii_hexdigit()))
            .map_or(bin.clone(), |(stem, _)| stem.to_owned());
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let path = format!("{dir}/{bin}.json");
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {}}}{}\n",
                json_string(&r.id),
                r.median_ns,
                r.mean_ns,
                r.min_ns,
                r.iters_per_sample,
                r.samples,
                if i + 1 == self.records.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(out.as_bytes());
            println!("\nwrote {path}");
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1.0e9 {
        format!("{:.3} s", ns / 1.0e9)
    } else if ns >= 1.0e6 {
        format!("{:.3} ms", ns / 1.0e6)
    } else if ns >= 1.0e3 {
        format!("{:.3} µs", ns / 1.0e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Overrides the per-sample measurement time (accepted for
    /// compatibility; the shim auto-scales instead).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks a closure under `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().0);
        let n = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion.run_one(full, n, f);
        self
    }

    /// Benchmarks a closure that receives a shared input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op; kept for API parity).
    pub fn finish(self) {}
}

/// A benchmark identifier.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_owned())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// Measures the closure passed to [`Bencher::iter`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` runs of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares `main` running the given groups and writing the JSON summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_scaling() {
        let mut c = Criterion {
            filter: None,
            default_sample_size: 5,
            records: Vec::new(),
        };
        c.bench_function("spin", |b| b.iter(|| (0..100).sum::<u64>()));
        assert_eq!(c.records().len(), 1);
        let r = &c.records()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn group_ids_include_group_name() {
        let mut c = Criterion {
            filter: None,
            default_sample_size: 3,
            records: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::from_parameter(42), &42, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
        assert_eq!(c.records()[0].id, "grp/42");
    }
}
