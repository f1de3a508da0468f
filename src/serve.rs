//! The `hotwire serve` HTTP layer: a dependency-free blocking listener
//! that makes the metrics registry scrapeable and the coupled signoff
//! engine callable while the process stays up.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the process-wide registry in Prometheus
//!   text-exposition format 0.0.4 ([`hotwire_obs::prom`]).
//! * `GET /healthz` — liveness; `200 ok` whenever a worker is free.
//! * `POST /signoff` — runs one coupled EM–IR–thermal signoff on the
//!   server's template grid (optionally overridden by a JSON body with
//!   `rows`/`cols`) and returns a JSON verdict. Each request exercises
//!   the real engine, so scraping `/metrics` during a load burst shows
//!   the solver's latency distribution, not synthetic numbers.
//!
//! The implementation is std-only. Each of the `threads` workers blocks
//! in `accept()` on one shared [`TcpListener`] and handles the
//! connection it gets, so a request never waits on a poll or a hand-off
//! between threads. The thread that called [`Server::run`] keeps a
//! [`CONTROL_POLL`] cadence for the work that is never on a request
//! path: it writes SIGUSR1 bundles, and once the shutdown flag is set it
//! wakes each blocked worker with a loopback connect and joins it. HTTP
//! support is the minimal correct subset: one request per connection,
//! `Connection: close` semantics, bodies up to [`MAX_REQUEST_BYTES`],
//! the whole request within [`READ_TIMEOUT`].
//!
//! Every response carries a process-unique `X-Hotwire-Request-Id`
//! header. The same ID tags the request's root `serve.request` span
//! (whose latency histogram is scrapeable on `/metrics`) and any
//! structured error event the handler emits, so a failing client call
//! can be matched to the server-side diagnostics it produced.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hotwire_coupled::{CoupledEngine, CoupledError, CoupledGridSpec, CoupledOptions};
use hotwire_obs::json::Json;
use hotwire_obs::trace::{self, FieldValue, Level};
use hotwire_obs::{metrics, prom, recorder, Stopwatch};

/// Hard cap on a request (start line + headers + body); larger
/// requests are answered `413` and the connection dropped.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How often the thread that called [`Server::run`] checks the shutdown
/// and dump flags. Workers never wait on it.
const CONTROL_POLL: Duration = Duration::from_millis(25);

/// Deadline for reading a whole request, so a stalled or trickling
/// client cannot pin a worker; past it the client gets `408`.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on each shutdown wake-up connect, so a listener that stopped
/// completing handshakes cannot hang [`Server::run`].
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What the server needs besides a socket: worker count and the
/// signoff template a `POST /signoff` instantiates.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each accepting and handling connections.
    pub threads: usize,
    /// Grid template for per-request signoffs.
    pub spec: CoupledGridSpec,
    /// Solver options for per-request signoffs.
    pub options: CoupledOptions,
    /// Where diagnostic bundles land (failed signoffs, SIGUSR1
    /// snapshots). `None` disables bundle writing.
    pub bundle_dir: Option<String>,
}

impl ServeConfig {
    /// A small default: 4 workers, the demo 20×20 grid, no bundles.
    #[must_use]
    pub fn demo() -> Self {
        Self {
            threads: 4,
            spec: CoupledGridSpec::demo(20, 20),
            options: CoupledOptions::default(),
            bundle_dir: None,
        }
    }
}

/// Operator-requested bundle-dump flag: the CLI's SIGUSR1 handler sets
/// it (an atomic store is async-signal-safe), and [`Server::run`]'s
/// control thread polls it — the dump itself runs there, not in the
/// handler, and needs no request to arrive.
static DUMP_REQUEST: AtomicBool = AtomicBool::new(false);

/// The flag a SIGUSR1 handler should set to request a diagnostic
/// bundle from a running [`Server`].
#[must_use]
pub fn dump_flag() -> &'static AtomicBool {
    &DUMP_REQUEST
}

/// A bound-but-not-yet-serving listener, so callers (and the e2e test)
/// can learn the ephemeral port before the workers start.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port taken, privileged port, …).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener })
    }

    /// The actual bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` becomes `true`, then lets every worker
    /// finish its request in flight and returns. The flag is checked
    /// every [`CONTROL_POLL`], so a signal handler that only sets it
    /// produces a graceful exit.
    ///
    /// # Errors
    ///
    /// Returns a worker's accept error (which also sets `shutdown`), a
    /// failure to start a worker, or a failure to wake the workers on
    /// shutdown — then without waiting for them. Per-connection I/O
    /// failures are counted (`serve.errors`) and do not stop the server.
    pub fn run(self, config: &ServeConfig, shutdown: &Arc<AtomicBool>) -> io::Result<()> {
        let wake = wake_addr(self.listener.local_addr()?);
        let listener = Arc::new(self.listener);
        let mut workers = Vec::new();
        for i in 0..config.threads.max(1) {
            let (listener, config, stop) =
                (Arc::clone(&listener), config.clone(), Arc::clone(shutdown));
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || accept_loop(&listener, &config, &stop));
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    // SAFETY(ordering): SeqCst store, the same flag and
                    // protocol as the signal handler's.
                    shutdown.store(true, Ordering::SeqCst);
                    // The refused spawn is the error worth reporting.
                    let _stopped = stop_workers(workers, wake);
                    return Err(e);
                }
            }
        }
        // SAFETY(ordering): SeqCst load pairing with the SeqCst stores of
        // the signal handler and of a failing worker; the loop only needs
        // to eventually observe the flag.
        while !shutdown.load(Ordering::SeqCst) {
            // SAFETY(ordering): swap is the whole protocol — the handler
            // stores true, exactly one poll observes and clears it.
            if DUMP_REQUEST.swap(false, Ordering::SeqCst) {
                match &config.bundle_dir {
                    Some(dir) => match recorder::write_bundle(
                        dir,
                        "sigusr1",
                        "operator-requested snapshot (SIGUSR1)",
                        None,
                        None,
                    ) {
                        // Not `println!`: a closed stdout must not kill
                        // the server.
                        Ok(path) => {
                            let _ = writeln!(io::stdout(), "diagnostic bundle: {path}");
                        }
                        Err(_) => metrics::counter("serve.errors").inc(),
                    },
                    None => trace::event(
                        Level::Warn,
                        "serve",
                        "SIGUSR1 received but no --bundle-dir configured",
                        &[],
                    ),
                }
            }
            std::thread::sleep(CONTROL_POLL);
        }
        stop_workers(workers, wake)
    }
}

/// One worker: accepts and handles connections until it accepts one
/// after `shutdown` is set (the wake-up connect from [`stop_workers`]),
/// which it drops.
fn accept_loop(
    listener: &TcpListener,
    config: &ServeConfig,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // SAFETY(ordering): SeqCst load pairing with the stores
                // that set the flag before the wake-up connect is made.
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                handle_connection(stream, config, READ_TIMEOUT);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // SAFETY(ordering): SeqCst store, observed by the control
                // thread's poll, which then stops the other workers.
                shutdown.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
    }
}

/// Where a shutdown wake-up connects: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by its loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// With the shutdown flag set, connects once per worker so each blocked
/// `accept()` returns, then joins them all. A worker busy with a request
/// finishes it first and takes a queued connect afterwards.
///
/// Returns the first worker error. A connect that fails would leave a
/// worker blocked for good, so it is returned at once, without joining.
fn stop_workers(workers: Vec<JoinHandle<io::Result<()>>>, wake: SocketAddr) -> io::Result<()> {
    // Held open until the joins, so every wake-up is still a live
    // connection when a worker accepts it.
    let _wakers = workers
        .iter()
        .map(|_| TcpStream::connect_timeout(&wake, WAKE_TIMEOUT))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot wake the serve workers through {wake}: {e}"),
            )
        })?;
    workers
        .into_iter()
        // A panicked worker has already reported through the panic hook.
        .filter_map(|worker| worker.join().ok())
        .fold(Ok(()), io::Result::and)
}

/// A parsed-enough HTTP request: method, path, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the parser).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// A response ready to serialize: status, content type, body, and the
/// request ID echoed back as `X-Hotwire-Request-Id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Server-assigned request ID (`req-xxxxxxxx`), sent back in the
    /// `X-Hotwire-Request-Id` header so a client-observed failure can
    /// be matched to the server's structured error events and the
    /// captured `serve.request` span.
    pub request_id: Option<String>,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            request_id: None,
        }
    }

    fn json(status: u16, body: &Json) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: format!("{}\n", body.to_pretty_string()).into_bytes(),
            request_id: None,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            _ => "Internal Server Error",
        }
    }
}

/// Process-wide allocator behind every `X-Hotwire-Request-Id`.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates the next request ID in its rendered `req-xxxxxxxx` form.
fn next_request_id() -> String {
    format!(
        "req-{:08x}",
        // SAFETY(ordering): pure ID allocator — uniqueness is the only
        // requirement, which fetch_add guarantees at any ordering.
        NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
    )
}

/// Routes one request. Pure (no I/O beyond the signoff engine), so the
/// unit tests exercise every endpoint without opening sockets.
///
/// Every request gets a process-unique ID: it roots the request-scoped
/// `serve.request` span (feeding the latency histogram of the same
/// name on `/metrics`), tags any structured error event the handler
/// emits, and is echoed to the client via [`Response::request_id`].
#[must_use]
pub fn route(request: &Request, config: &ServeConfig) -> Response {
    metrics::counter("serve.requests").inc();
    let request_id = next_request_id();
    let _span = trace::span_with(
        "serve.request",
        &[("request_id", FieldValue::Str(&request_id))],
    );
    let mut response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response {
            status: 200,
            // The exposition-format content type, version pinned.
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: prom::render(&metrics::snapshot()).into_bytes(),
            request_id: None,
        },
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("POST", "/signoff") => signoff_response(&request.body, config, &request_id),
        (_, "/metrics" | "/healthz" | "/signoff") => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "not found\n"),
    };
    trace::event(
        Level::Debug,
        "request",
        "answered",
        &[
            ("request_id", FieldValue::Str(&request_id)),
            ("method", FieldValue::Str(&request.method)),
            ("path", FieldValue::Str(&request.path)),
            ("status", FieldValue::U64(u64::from(response.status))),
        ],
    );
    response.request_id = Some(request_id);
    response
}

/// Runs one coupled signoff from the template (body may override
/// `rows`/`cols`) and renders the verdict as JSON. Engine failures are
/// logged as structured error events carrying `request_id`, and the
/// same ID rides in the 500 body so the client can quote it.
fn signoff_response(body: &[u8], config: &ServeConfig, request_id: &str) -> Response {
    let mut spec = config.spec.clone();
    if !body.is_empty() {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::text(400, "body is not UTF-8\n");
        };
        let parsed = match hotwire_obs::json::parse(text) {
            Ok(v) => v,
            Err(e) => return Response::text(400, format!("bad JSON body: {e}\n")),
        };
        let dim = |key: &str, default: usize| -> Result<usize, Response> {
            match parsed.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .filter(|&n| (2..=500).contains(&n))
                    .ok_or_else(|| {
                        Response::text(400, format!("`{key}` must be an integer in [2, 500]\n"))
                    }),
            }
        };
        match (dim("rows", spec.rows), dim("cols", spec.cols)) {
            (Ok(rows), Ok(cols)) => {
                spec.rows = rows;
                spec.cols = cols;
                // The demo pad layout is the four corners; keep it
                // valid for the overridden dimensions.
                spec.pads = vec![(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)];
            }
            (Err(r), _) | (_, Err(r)) => return r,
        }
    }
    metrics::counter("serve.signoffs").inc();
    let _span = trace::span("serve.signoff");
    // Keep the engine reachable on failure: its health report (Picard
    // rate fit, condition number, residuals) goes into the bundle.
    let result: Result<_, (CoupledError, Option<Json>)> =
        match CoupledEngine::new(spec, config.options.clone()) {
            Err(e) => Err((e, None)),
            Ok(mut engine) => match engine.run().and_then(|()| engine.assess()) {
                Ok(report) => Ok(report),
                Err(e) => {
                    let health = engine.health_report().to_json();
                    Err((e, Some(health)))
                }
            },
        };
    match result {
        Ok(report) => {
            let violations = report.violations().len();
            Response::json(
                200,
                &Json::object([
                    ("ok", Json::from(report.passes())),
                    (
                        "iterations",
                        Json::from(u64::try_from(report.iterations).unwrap_or(0)),
                    ),
                    (
                        "worst_ir_drop_mv",
                        Json::from(report.worst_ir_drop.value() * 1e3),
                    ),
                    (
                        "peak_temperature_c",
                        Json::from(report.peak_temperature.to_celsius().value()),
                    ),
                    (
                        "straps",
                        Json::from(u64::try_from(report.branches.len()).unwrap_or(0)),
                    ),
                    (
                        "violations",
                        Json::from(u64::try_from(violations).unwrap_or(0)),
                    ),
                    (
                        "chip_ttf_hours",
                        report
                            .chip_ttf
                            .map_or(Json::Null, |t| Json::from(t.value() / 3600.0)),
                    ),
                ]),
            )
        }
        Err((e, health)) => {
            metrics::counter("serve.errors").inc();
            let message = e.to_string();
            trace::event(
                Level::Error,
                "serve",
                "signoff failed",
                &[
                    ("request_id", FieldValue::Str(request_id)),
                    ("error", FieldValue::Str(&message)),
                ],
            );
            // A failed request is exactly when the flight recorder pays
            // off: freeze it into a bundle and quote the path next to
            // the request ID, so `hotwire doctor <bundle>` picks up
            // where the 500 left off.
            let bundle_path = config.bundle_dir.as_deref().and_then(|dir| {
                recorder::write_bundle(
                    dir,
                    "request-error",
                    &format!("{request_id}: {message}"),
                    health.as_ref(),
                    None,
                )
                .ok()
            });
            Response::json(
                500,
                &Json::object([
                    ("error", Json::from(message)),
                    ("request_id", Json::from(request_id)),
                    ("bundle", bundle_path.map_or(Json::Null, Json::from)),
                ]),
            )
        }
    }
}

/// Reads one request off the stream (within `timeout`), routes it,
/// writes the response, closes. Any protocol or I/O failure just counts
/// an error — a broken client must not take the server down.
fn handle_connection(mut stream: TcpStream, config: &ServeConfig, timeout: Duration) {
    let response = match read_request(&mut stream, timeout) {
        Ok(request) => route(&request, config),
        Err(status) => {
            metrics::counter("serve.errors").inc();
            let request_id = next_request_id();
            trace::event(
                Level::Error,
                "serve",
                "unreadable request",
                &[
                    ("request_id", FieldValue::Str(&request_id)),
                    ("status", FieldValue::U64(u64::from(status))),
                ],
            );
            let body = if status == 408 {
                "request timeout\n"
            } else {
                "bad request\n"
            };
            let mut response = Response::text(status, body);
            response.request_id = Some(request_id);
            response
        }
    };
    let mut header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    );
    if let Some(id) = &response.request_id {
        header.push_str(&format!("X-Hotwire-Request-Id: {id}\r\n"));
    }
    header.push_str("Connection: close\r\n\r\n");
    let _ = stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(&response.body))
        .and_then(|()| stream.flush());
}

/// Reads start line + headers + `Content-Length` body, all of it within
/// `timeout` of the call. Returns the HTTP status to answer with on
/// failure: `408` past the deadline, `413` when too large, else `400`.
fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, u16> {
    let clock = Stopwatch::start();
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0_u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(413);
        }
        let n = read_before(stream, &mut chunk, &clock, timeout)?;
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| 400_u16)?;
    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(400_u16)?;
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or(400_u16)?.to_uppercase();
    let target = parts.next().ok_or(400_u16)?;
    let path = target.split('?').next().unwrap_or(target).to_owned();
    let mut content_length = 0_usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| 400_u16)?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err(413);
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_before(stream, &mut chunk, &clock, timeout)?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

/// One `read` that waits at most for what is left of the request
/// deadline: each call re-arms the socket timeout with the remainder,
/// so slow trickling cannot stretch the whole request past `timeout`.
/// A peer that closes early is a `400`.
fn read_before(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    clock: &Stopwatch,
    timeout: Duration,
) -> Result<usize, u16> {
    loop {
        let left = timeout.saturating_sub(clock.elapsed());
        if left.is_zero() {
            return Err(408);
        }
        stream.set_read_timeout(Some(left)).map_err(|_| 400_u16)?;
        match stream.read(chunk) {
            Ok(0) => return Err(400),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(408)
            }
            Err(_) => return Err(400),
        }
    }
}

/// Byte offset of the `\r\n\r\n` header terminator, if present.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            body: Vec::new(),
        }
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            threads: 1,
            spec: CoupledGridSpec::demo(6, 6),
            options: CoupledOptions::default(),
            bundle_dir: None,
        }
    }

    #[test]
    fn healthz_is_200() {
        let r = route(&get("/healthz"), &small_config());
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok\n");
    }

    #[test]
    fn metrics_render_exposition() {
        let r = route(&get("/metrics"), &small_config());
        assert_eq!(r.status, 200);
        assert!(r.content_type.contains("version=0.0.4"));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("hotwire_telemetry_enabled"));
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_405() {
        assert_eq!(route(&get("/nope"), &small_config()).status, 404);
        let r = route(
            &Request {
                method: "DELETE".to_owned(),
                path: "/metrics".to_owned(),
                body: Vec::new(),
            },
            &small_config(),
        );
        assert_eq!(r.status, 405);
    }

    #[test]
    fn signoff_runs_the_engine() {
        let r = route(
            &Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: Vec::new(),
            },
            &small_config(),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let json = hotwire_obs::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert!(json.get("iterations").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(json.get("straps").and_then(Json::as_u64).unwrap(), 60);
    }

    #[test]
    fn signoff_rejects_bad_overrides() {
        for body in [&b"not json"[..], br#"{"rows": 1}"#, br#"{"cols": 100000}"#] {
            let r = route(
                &Request {
                    method: "POST".to_owned(),
                    path: "/signoff".to_owned(),
                    body: body.to_vec(),
                },
                &small_config(),
            );
            assert_eq!(r.status, 400, "{:?}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn header_terminator_is_found() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn every_response_carries_a_unique_request_id() {
        let a = route(&get("/healthz"), &small_config());
        let b = route(&get("/nope"), &small_config());
        let id_a = a.request_id.expect("healthz response has a request id");
        let id_b = b.request_id.expect("404 response has a request id");
        assert!(id_a.starts_with("req-"), "{id_a}");
        assert_ne!(id_a, id_b, "request ids must be process-unique");
    }

    #[test]
    fn failed_signoff_quotes_the_request_id_in_the_body() {
        // An unbuildable template (no pads) makes the engine fail, which
        // must produce a 500 whose JSON body names the request id.
        let mut config = small_config();
        config.spec.pads.clear();
        let r = route(
            &Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: Vec::new(),
            },
            &config,
        );
        assert_eq!(r.status, 500);
        let json = hotwire_obs::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let body_id = json.get("request_id").and_then(Json::as_str).unwrap();
        assert_eq!(Some(body_id.to_owned()), r.request_id);
        // No --bundle-dir configured: the field is present but null.
        assert_eq!(json.get("bundle"), Some(&Json::Null));
    }

    #[test]
    fn failed_signoff_writes_a_bundle_when_a_dir_is_configured() {
        let dir = std::env::temp_dir().join(format!("hotwire-serve-bundle-{}", std::process::id()));
        let mut config = small_config();
        config.spec.pads.clear();
        config.bundle_dir = Some(dir.to_string_lossy().into_owned());
        let r = route(
            &Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: Vec::new(),
            },
            &config,
        );
        assert_eq!(r.status, 500);
        let json = hotwire_obs::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let bundle_path = json
            .get("bundle")
            .and_then(Json::as_str)
            .expect("500 body quotes the bundle path")
            .to_owned();
        let text = std::fs::read_to_string(&bundle_path).expect("bundle file exists");
        let bundle = hotwire_obs::json::parse(&text).unwrap();
        assert_eq!(
            bundle.get("schema").and_then(Json::as_str),
            Some(hotwire_obs::recorder::BUNDLE_SCHEMA)
        );
        assert_eq!(
            bundle.get("reason").and_then(Json::as_str),
            Some("request-error")
        );
        let _ = std::fs::remove_file(&bundle_path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// Connects to `addr`, writes `request`, and returns the whole reply.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    }

    /// A loopback pair: a client that sends `request` one byte per
    /// `gap`, and the server-side stream it connected to.
    fn trickling_client(
        request: &'static [u8],
        gap: Duration,
    ) -> (TcpStream, std::thread::JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in request {
                std::thread::sleep(gap);
                // The server may already have given up and closed.
                if stream.write_all(std::slice::from_ref(byte)).is_err() {
                    break;
                }
            }
            let mut reply = String::new();
            let _ = stream.read_to_string(&mut reply);
            reply
        });
        let (server_side, _) = listener.accept().unwrap();
        (server_side, client)
    }

    #[test]
    fn read_deadline_covers_the_whole_request() {
        // Every byte arrives well inside the deadline, but the request as
        // a whole does not: a per-read timeout would wait for all of it.
        let request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let (mut stream, client) = trickling_client(request, Duration::from_millis(30));
        let clock = Stopwatch::start();
        assert_eq!(
            read_request(&mut stream, Duration::from_millis(200)),
            Err(408)
        );
        let waited = clock.elapsed();
        assert!(
            waited >= Duration::from_millis(200) && waited < Duration::from_millis(900),
            "gave up after {waited:?}"
        );
        drop(stream);
        let _ = client.join();

        // The same request sent at once reads fine under the same deadline.
        let (mut stream, client) = trickling_client(request, Duration::ZERO);
        let parsed = read_request(&mut stream, Duration::from_millis(200)).unwrap();
        assert_eq!(
            (parsed.method.as_str(), parsed.path.as_str()),
            ("GET", "/healthz")
        );
        drop(stream);
        let _ = client.join();
    }

    #[test]
    fn a_stalled_request_is_answered_408() {
        // The header block never ends, so only the deadline can end it.
        let (stream, client) = trickling_client(b"POST /signoff HTTP/1.1\r\n", Duration::ZERO);
        let errors_before = metrics::snapshot().counter("serve.errors");
        handle_connection(stream, &small_config(), Duration::from_millis(100));
        let reply = client.join().unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{reply:?}"
        );
        assert!(reply.contains("X-Hotwire-Request-Id: req-"), "{reply:?}");
        assert!(metrics::snapshot().counter("serve.errors") > errors_before);
    }

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:9184", "127.0.0.1:9184"),
            ("[::]:9184", "[::1]:9184"),
            ("10.1.2.3:80", "10.1.2.3:80"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
    }

    /// Starts `threads` workers on `addr`, checks one request is served,
    /// lets every worker settle into `accept()`, then requires `run` to
    /// return `Ok` within 1 s of the shutdown flag.
    fn run_stops_promptly(addr: &str, threads: usize) {
        let server = Server::bind(addr).unwrap();
        let target = wake_addr(server.local_addr().unwrap());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (done, finished) = mpsc::channel();
        let worker_flag = Arc::clone(&shutdown);
        let runner = std::thread::spawn(move || {
            let config = ServeConfig {
                threads,
                ..small_config()
            };
            let _ = done.send(server.run(&config, &worker_flag));
        });
        let reply = exchange(target, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply:?}");
        std::thread::sleep(Duration::from_millis(100));
        // SAFETY(ordering): SeqCst store, as the CLI's signal handler.
        shutdown.store(true, Ordering::SeqCst);
        let outcome = finished
            .recv_timeout(Duration::from_secs(1))
            .expect("run returns within 1 s of the shutdown flag");
        assert!(outcome.is_ok(), "{outcome:?}");
        runner.join().unwrap();
    }

    #[test]
    fn run_returns_promptly_with_one_idle_worker() {
        run_stops_promptly("127.0.0.1:0", 1);
    }

    #[test]
    fn run_returns_promptly_with_four_idle_workers_on_an_unspecified_ip() {
        run_stops_promptly("0.0.0.0:0", 4);
    }

    #[test]
    fn a_failed_wake_returns_without_joining() {
        // Nothing listens on a port whose listener was just dropped.
        let refused = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let (release, blocked) = mpsc::channel::<()>();
        let stuck = std::thread::spawn(move || {
            let _ = blocked.recv();
            Ok(())
        });
        let err = stop_workers(vec![stuck], refused).unwrap_err();
        assert!(err.to_string().contains("cannot wake"), "{err}");
        release.send(()).unwrap();
    }
}
