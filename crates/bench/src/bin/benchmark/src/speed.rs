//! Machine-speed calibration. On a shared 2-vCPU Xeon virtual machine
//! the time of the same work drifts by 5–12 % over minutes, and for
//! minutes at a time it nearly doubles, which moves every time a run
//! measures. A fixed loop owned by the benchmark, timed right after each
//! operation, tracks most of that drift, and the times of CPU-bound work
//! (`wall_ms` of the CLI workloads, and every `setup_s`) are scaled to the
//! speed at which the loop takes [`REFERENCE_MS`]. Over 146
//! `coupled-picard` runs of 8 s in 19 minutes on such a machine, the
//! quartile spread of the run medians was 7.9 % raw and 3.0 % scaled in
//! the quiet minutes; in the slow ones the raw median rose 1.91× and the
//! scaled one 1.21×. The loop pairs sparse arithmetic in cache (slower
//! cores) with random reads from memory (contended episodes). It runs on
//! one core: a copy on each core at once tracked the parallel `tree-em`
//! a little better, but while one vCPU was taken by another tenant it
//! read 2× slow where the mostly serial `coupled-picard` ran 1.3× slow.
//! The loop never changes with the program, so a change to the program
//! moves scaled times exactly as it moves raw ones; the raw times are
//! printed next to them.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats;

/// The loop's median time at rest on the 2-vCPU Xeon virtual machine
/// the bounds were set on.
pub const REFERENCE_MS: f64 = 5.5;
/// One loop sample per this much operation time, at least one.
const OP_MS_PER_SAMPLE: f64 = 250.0;

const GRID: usize = 150;
const CG_ITERATIONS: usize = 60;
/// 32 MiB of f64, well beyond the per-core caches.
const TABLE_LEN: usize = 1 << 22;
const READS: usize = 200_000;

/// The loop's memory, allocated and touched once so that samples time
/// arithmetic and reads, not page faults.
struct Workspace {
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    table: Vec<f64>,
}

impl Default for Workspace {
    fn default() -> Self {
        let zeros = vec![0.0_f64; GRID * GRID];
        Self {
            x: zeros.clone(),
            r: zeros.clone(),
            p: zeros.clone(),
            ap: zeros,
            table: (0..TABLE_LEN).map(|i| i as f64).collect(),
        }
    }
}

/// Conjugate-gradient iterations on a 150×150 five-point Laplacian
/// (streaming sparse arithmetic over 0.7 MB, like the solvers under
/// test), then independent random reads from the 32 MiB table.
fn kernel(w: &mut Workspace) -> f64 {
    let Workspace { x, r, p, ap, table } = w;
    x.fill(0.0);
    r.fill(1.0);
    p.fill(1.0);
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..CG_ITERATIONS {
        for i in 0..GRID {
            for j in 0..GRID {
                let k = i * GRID + j;
                let mut s = 4.0 * p[k];
                if i > 0 {
                    s -= p[k - GRID];
                }
                if i + 1 < GRID {
                    s -= p[k + GRID];
                }
                if j > 0 {
                    s -= p[k - 1];
                }
                if j + 1 < GRID {
                    s -= p[k + 1];
                }
                ap[k] = s;
            }
        }
        let alpha = rr / p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum::<f64>();
        for k in 0..GRID * GRID {
            x[k] += alpha * p[k];
            r[k] -= alpha * ap[k];
        }
        let rr_next: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_next / rr;
        rr = rr_next;
        for k in 0..GRID * GRID {
            p[k] = r[k] + beta * p[k];
        }
    }
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0;
    for _ in 0..READS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        acc += table[state as usize & (TABLE_LEN - 1)];
    }
    x.iter().sum::<f64>() + acc
}

/// The argument that turns the benchmark binary into the loop's process.
pub const CALIBRATE_FLAG: &str = "--calibrate";

/// The loop's process: answers each line `k` on stdin with one line of
/// `k` loop times (ms), until stdin closes.
pub fn serve_loop() -> Result<(), String> {
    let mut work = Workspace::default();
    std::hint::black_box(kernel(&mut work)); // warm the caches; not timed
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let count: usize = line
            .trim()
            .parse()
            .map_err(|_| format!("bad count {line:?}"))?;
        let times: Vec<String> = (0..count)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(kernel(&mut work));
                format!("{}", start.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        writeln!(out, "{}", times.join(" ")).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The calibration loop, running in a child process (this binary with
/// [`CALIBRATE_FLAG`]): a spawned process's `wait4` peak RSS starts from
/// its parent's high-water mark, so the loop's 32 MiB must never be
/// resident in the process that spawns the programs under test.
pub struct Speed {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

impl Speed {
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(CALIBRATE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the calibration loop: {e}"))?;
        let requests = child.stdin.take().expect("stdin is piped");
        let replies = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            requests,
            replies,
        })
    }

    /// Times the loop right after an operation that took `op`, once per
    /// [`OP_MS_PER_SAMPLE`] of it and at least once, and returns the factor
    /// that scales the operation's time to the reference speed. Scaling
    /// each operation by the samples next to it follows drift within a
    /// run: over ten seeds of 20 s runs, the quartile spread of
    /// `coupled-large` fell from 0.094 with one factor per run to 0.062,
    /// and that of `coupled-picard` from 0.076 to 0.040, on the same runs.
    pub fn scale_after(&mut self, op: Duration) -> Result<f64, String> {
        let count = (op.as_secs_f64() * 1e3 / OP_MS_PER_SAMPLE).ceil().max(1.0) as usize;
        let lost = |e: std::io::Error| format!("calibration loop: {e}");
        writeln!(self.requests, "{count}").map_err(lost)?;
        let mut line = String::new();
        self.replies.read_line(&mut line).map_err(lost)?;
        let times = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|_| format!("calibration loop replied {line:?}"))?;
        if times.len() != count {
            return Err(format!("calibration loop replied {line:?}"));
        }
        Ok(scale(&times))
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        // The loop's process keeps nothing worth a graceful exit.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What scales a time measured while the loop took `samples_ms` to the
/// reference speed.
fn scale(samples_ms: &[f64]) -> f64 {
    REFERENCE_MS / stats::median(samples_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_does_fixed_work() {
        let mut work = Workspace::default();
        let first = kernel(&mut work);
        assert!(first.is_finite() && first > 0.0);
        assert_eq!(first.to_bits(), kernel(&mut work).to_bits());
    }

    #[test]
    fn scale_is_the_reference_over_the_median() {
        assert_eq!(scale(&[8.0, 7.0, 9.0]), REFERENCE_MS / 8.0);
    }
}
