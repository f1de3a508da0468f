//! End-to-end test of `hotwire serve`: real process, real sockets.
//!
//! Starts the binary on an ephemeral port, scrapes `/metrics` and
//! `/healthz` over raw TCP (the workspace has no HTTP client, and the
//! server speaks `Connection: close` one-shot HTTP/1.1 — a 60-line
//! client below covers it), exercises `POST /signoff`, then sends
//! SIGTERM and requires a graceful exit 0. Two more servers check that
//! back-to-back requests wait on no accept poll and that SIGUSR1 writes
//! a bundle with no request sent.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Starts `hotwire serve` on port 0 with a tiny signoff grid (plus
/// `extra` flags) and returns the child plus the bound address parsed
/// from stdout.
fn start_server(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hotwire"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--rows",
            "6",
            "--cols",
            "6",
            "--threads",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("server announces its address")
        .expect("stdout is UTF-8");
    // "listening on http://127.0.0.1:PORT (...)"
    let addr = first
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparsable announcement: {first}"))
        .to_owned();
    // Keep draining stdout, so the server never writes into a closed pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr)
}

/// One blocking HTTP exchange; returns `(status, headers, body)`.
fn http(addr: &str, request: &str) -> (u16, String, String) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in: {response:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: &str, path: &str) -> (u16, String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    )
}

/// Minimal Prometheus 0.0.4 exposition check: every sample line has a
/// legal metric name and a numeric value, and is preceded by a TYPE
/// header for its family.
fn assert_exposition_parses(text: &str) {
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            families.push(parts.next().expect("TYPE names a metric").to_owned());
            let kind = parts.next().expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                "bad TYPE kind: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name: {name}"
        );
        let base = name
            .trim_end_matches("_sum")
            .trim_end_matches("_count")
            .trim_end_matches("_min")
            .trim_end_matches("_max");
        assert!(
            families.iter().any(|f| f == name || f == base),
            "sample {name} has no TYPE header"
        );
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line:?}");
        samples += 1;
    }
    assert!(samples > 0, "exposition has no samples:\n{text}");
}

/// Counter value of `name` in an exposition dump (0 when absent).
fn counter_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.split_whitespace().next() == Some(name))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0.0)
}

/// Sends the signal `name` (a `kill` name such as `TERM`) to the child.
fn signal(child: &Child, name: &str) {
    let sent = Command::new("kill")
        .args([&format!("-{name}"), &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(sent.success(), "kill -{name} failed");
}

/// SIGTERM → graceful drain → exit 0, within 15 s.
fn stop_gracefully(mut child: Child) {
    signal(&child, "TERM");
    let deadline = Instant::now() + Duration::from_secs(15);
    let status = loop {
        match child.try_wait().expect("wait works") {
            Some(status) => break status,
            None => {
                assert!(
                    Instant::now() < deadline,
                    "server did not exit within 15 s of SIGTERM"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
}

#[test]
fn serve_scrapes_signs_off_and_shuts_down_gracefully() {
    let (child, addr) = start_server(&[]);

    // /healthz answers 200 immediately.
    let (status, _, body) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // /metrics is valid exposition with the right content type.
    let (status, head, text) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_lowercase().contains("version=0.0.4"),
        "exposition content type missing: {head}"
    );
    assert_exposition_parses(&text);
    assert!(text.contains("hotwire_telemetry_enabled 1"));
    let requests_before = counter_value(&text, "hotwire_serve_requests_total");
    assert!(requests_before >= 1.0, "the scrape itself is counted");

    // POST /signoff runs a real coupled solve and reports its verdict,
    // echoing the server-assigned request ID in a response header.
    let (status, head, body) = http(
        &addr,
        &format!(
            "POST /signoff HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n"
        ),
    );
    assert_eq!(status, 200, "signoff failed: {body}");
    assert!(body.contains("\"iterations\""), "{body}");
    let request_id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Hotwire-Request-Id: "))
        .unwrap_or_else(|| panic!("no X-Hotwire-Request-Id header in: {head}"));
    assert!(request_id.starts_with("req-"), "{request_id}");

    // Unknown path → 404; the server keeps running, and every response
    // (this one included) carries a distinct request ID.
    let (status, head, _) = get(&addr, "/nope");
    assert_eq!(status, 404);
    let other_id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Hotwire-Request-Id: "))
        .expect("404 responses carry a request id too");
    assert_ne!(other_id, request_id, "ids are per-request");

    // Counters are monotone across scrapes, and the signoff timers now
    // carry observations.
    let (_, _, text2) = get(&addr, "/metrics");
    let requests_after = counter_value(&text2, "hotwire_serve_requests_total");
    assert!(
        requests_after > requests_before,
        "{requests_after} vs {requests_before}"
    );
    assert!(counter_value(&text2, "hotwire_serve_signoffs_total") >= 1.0);
    assert!(counter_value(&text2, "hotwire_coupled_run_seconds_count") >= 1.0);
    // The per-request latency histogram (fed by the request-scoped
    // `serve.request` span) is scrapeable.
    assert!(
        counter_value(&text2, "hotwire_serve_request_seconds_count") >= 1.0,
        "serve.request histogram missing from:\n{text2}"
    );

    stop_gracefully(child);
}

#[test]
fn sequential_requests_do_not_wait_on_an_accept_poll() {
    let (child, addr) = start_server(&[]);
    // Warm-up: the first exchange also waits for the server to come up.
    assert_eq!(get(&addr, "/healthz").0, 200);
    let start = Instant::now();
    for _ in 0..40 {
        let (status, _, body) = get(&addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
    }
    let took = start.elapsed();
    // A worker blocked in accept() answers at once; a 25 ms accept poll
    // made this about 750 ms.
    assert!(
        took < Duration::from_millis(300),
        "40 sequential /healthz took {took:?}"
    );
    stop_gracefully(child);
}

#[test]
fn sigusr1_writes_a_bundle_without_any_request() {
    let dir = std::env::temp_dir().join(format!("hotwire-serve-usr1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();
    let (child, _addr) = start_server(&["--bundle-dir", &dir_arg]);
    // The handler is installed before the server announces its address;
    // no request is sent, so nothing but the control thread can dump.
    signal(&child, "USR1");
    let deadline = Instant::now() + Duration::from_secs(10);
    let bundle = loop {
        let found = std::fs::read_dir(&dir).ok().and_then(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|x| x == "json"))
        });
        if let Some(path) = found {
            break path;
        }
        assert!(
            Instant::now() < deadline,
            "no SIGUSR1 bundle in {} after 10 s",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // The file may be seen before its one write has finished.
    let doc = (0..50)
        .find_map(|_| {
            let text = std::fs::read_to_string(&bundle).unwrap_or_default();
            let doc = hotwire::obs::json::parse(&text).ok();
            if doc.is_none() {
                std::thread::sleep(Duration::from_millis(20));
            }
            doc
        })
        .unwrap_or_else(|| panic!("{} never became a whole JSON document", bundle.display()));
    assert_eq!(
        doc.get("reason").and_then(hotwire::obs::json::Json::as_str),
        Some("sigusr1")
    );
    stop_gracefully(child);
    let _ = std::fs::remove_dir_all(&dir);
}
