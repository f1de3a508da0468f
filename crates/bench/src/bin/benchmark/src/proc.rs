//! Child processes measured from outside: wall time from spawn to reap,
//! and the kernel's own CPU-time and peak-RSS accounting, taken from
//! `wait4(2)` when the child is reaped. The rusage a reap returns covers
//! the child and every descendant it reaped in turn (the `repro` fan-out
//! included), and it is exact, where sampling `/proc` would miss short
//! peaks.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux LP64 targets: two timevals, then fourteen
/// longs starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    other: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// The exit status, or 128 + the signal that killed the child.
    pub code: i32,
    /// User plus system CPU time.
    pub cpu: Duration,
    pub max_rss_kib: u64,
}

/// Reaps `child`, which must not have been waited for. Consumes it, so
/// nothing can signal or wait on the reused pid afterwards.
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = c_int::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        other: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals laid out
        // as the C `int` and `struct rusage` that wait4 fills in, and
        // `pid` is a child of this process that nothing else reaps.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    let micros = |t: &Timeval| u64::try_from(t.sec * 1_000_000 + t.usec).unwrap_or(0);
    Ok(Exit {
        code,
        cpu: Duration::from_micros(micros(&usage.utime) + micros(&usage.stime)),
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// One finished run of a program.
#[derive(Debug, Clone)]
pub struct Run {
    pub exit: Exit,
    /// From just before the spawn to just after the reap.
    pub wall: Duration,
    pub stdout: String,
}

impl Run {
    pub fn wall_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3
    }

    pub fn cpu_ms(&self) -> f64 {
        self.exit.cpu.as_secs_f64() * 1e3
    }

    pub fn rss_mb(&self) -> f64 {
        self.exit.max_rss_kib as f64 / 1024.0
    }
}

/// Lowers this process's RSS high-water mark to its current RSS. A
/// spawned child's `wait4` peak RSS starts from its parent's high-water
/// mark, so without this a child would report any earlier peak of the
/// benchmark itself. Best effort: kernels before 4.0 lack the knob.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `cmd` to completion with its stdout captured and its stderr
/// written to `stderr_log`.
pub fn run(cmd: &mut Command, stderr_log: &Path) -> io::Result<Run> {
    let log = File::create(stderr_log)?;
    reset_peak_rss();
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = reap(child)?;
    let wall = start.elapsed();
    read?;
    Ok(Run {
        exit,
        wall,
        stdout: String::from_utf8_lossy(&stdout).into_owned(),
    })
}

/// The last lines of a stderr log, for error messages.
pub fn stderr_tail(stderr_log: &Path) -> String {
    let text = std::fs::read_to_string(stderr_log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(3)..].join(" | ")
}

/// A running `hotwire serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    // Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `ip:port` the server listens on.
    pub addr: String,
    /// From spawn until the `listening on` line.
    pub ready: Duration,
}

impl Server {
    /// Spawns `hotwire serve` with `args` and waits for its `listening
    /// on http://<addr>` line.
    pub fn start(hotwire: &Path, args: &[&str], stderr_log: &Path) -> io::Result<Self> {
        let log = File::create(stderr_log)?;
        reset_peak_rss();
        let start = Instant::now();
        let mut child = Command::new(hotwire)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready = start.elapsed();
        let mut server = Self {
            child: Some(child),
            _stdout: stdout,
            addr: String::new(),
            ready,
        };
        read?;
        server.addr = line
            .strip_prefix("listening on http://")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "serve printed {line:?}, not a listening line ({})",
                        stderr_tail(stderr_log)
                    ),
                )
            })?
            .to_owned();
        Ok(server)
    }

    /// Kills the server and reaps it.
    pub fn stop(mut self) -> io::Result<Exit> {
        let mut child = self.child.take().expect("server not yet stopped");
        let killed = child.kill();
        let exit = reap(child);
        killed?;
        exit
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child);
        }
    }
}

/// One HTTP/1.1 exchange (`Connection: close`): returns the status code
/// and the body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, payload) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, payload.to_owned()))
}
