//! Live telemetry endpoint: a tiny in-process HTTP/1.0 server.
//!
//! Long fleet runs were a black box while executing — every obs artifact
//! materialized only after exit. [`ObsServer`] turns the process into
//! something an operator (or CI) can interrogate *during* the run over
//! plain `std::net::TcpListener`, no dependencies:
//!
//! | Route       | Payload                                                        |
//! |-------------|----------------------------------------------------------------|
//! | `/health`   | JSON liveness: uptime and dropped (overwritten) events         |
//! | `/metrics`  | Prometheus text exposition from [`crate::export::prometheus_text`] |
//! | `/progress` | The latest document published via [`publish_progress`]         |
//! | `/flight`   | Flight-recorder snapshot as the merged-trace JSON schema       |
//! | `/quit`     | Requests shutdown (the owner polls [`ObsServer::quit_requested`]) |
//!
//! The server is opt-in (`--serve-obs <port>` / `RF_OBS_ADDR` through the
//! bench harness) and owns one accept thread; each request is answered
//! inline, which is plenty for a polling operator and keeps the worker
//! pool untouched. `/progress` is a publish/poll seam rather than a
//! callback into the simulator: the run loop pushes a fresh JSON document
//! at every epoch boundary ([`publish_progress`]) and the endpoint serves
//! the newest one, so `util` never needs to know what a fleet is.
//!
//! Binding port 0 lets the OS pick a free port — the bound address is
//! returned by [`ObsServer::addr`] and, when `RF_OBS_ADDR_FILE` names a
//! path, written there atomically so a second process (the CI smoke gate)
//! can discover it without racing.

use crate::export;
use crate::flight;
use crate::json::Value;
use crate::obs;
use crate::persist::atomic_write;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static PROGRESS: OnceLock<Mutex<Option<Value>>> = OnceLock::new();

fn progress_slot() -> &'static Mutex<Option<Value>> {
    PROGRESS.get_or_init(|| Mutex::new(None))
}

/// Publishes the document `/progress` should serve from now on. The run
/// loop calls this at every epoch boundary; publishing replaces, so the
/// endpoint always answers with the newest state.
pub fn publish_progress(doc: Value) {
    *progress_slot().lock().expect("progress slot") = Some(doc);
}

/// The latest published progress document, or `{"status": "idle"}` when
/// nothing has been published yet.
pub fn progress() -> Value {
    progress_slot()
        .lock()
        .expect("progress slot")
        .clone()
        .unwrap_or_else(|| Value::object([("status", Value::from("idle"))]))
}

/// Expands an address spec to something bindable: a bare port (`"8080"`,
/// `"0"`) becomes `127.0.0.1:<port>`; anything containing `:` is used
/// verbatim.
pub fn resolve_addr(spec: &str) -> String {
    if spec.contains(':') {
        spec.to_string()
    } else {
        format!("127.0.0.1:{spec}")
    }
}

/// A running telemetry endpoint. Dropping (or [`ObsServer::stop`])
/// shuts the accept thread down cleanly.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    quit: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (see [`resolve_addr`] — port 0 asks the OS for a free
    /// port), writes the bound address to `RF_OBS_ADDR_FILE` if that is
    /// set, and starts the accept thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, permission) unchanged.
    pub fn start(addr: &str) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(resolve_addr(addr))?;
        let local = listener.local_addr()?;
        if let Ok(path) = std::env::var("RF_OBS_ADDR_FILE") {
            if let Err(e) = atomic_write(std::path::Path::new(&path), &format!("{local}\n")) {
                eprintln!("RF_OBS_ADDR_FILE not written: {e}");
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let quit = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let (stop_in_thread, quit_in_thread) = (stop.clone(), quit.clone());
        let handle = std::thread::Builder::new()
            .name("rf-obs-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_in_thread.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        handle_conn(stream, &quit_in_thread, started);
                    }
                }
            })?;
        Ok(ObsServer {
            addr: local,
            stop,
            quit,
            handle: Some(handle),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client has requested shutdown via `GET /quit`. The
    /// process owning the server polls this while lingering after its
    /// work finishes, so CI can end a smoke run deterministically.
    pub fn quit_requested(&self) -> bool {
        self.quit.load(Ordering::Relaxed)
    }

    /// Stops the accept thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = handle.join();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Hard cap on the request head: nothing a poller legitimately sends
/// comes anywhere near this, so anything longer is garbage or abuse and
/// is answered `400` without buffering more.
const MAX_HEAD_BYTES: usize = 8192;

fn handle_conn(mut stream: TcpStream, quit: &AtomicBool, started: Instant) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Read until the end of the request head; only the request line
    // matters — every route is a body-less GET. The read is bounded: a
    // head that exceeds [`MAX_HEAD_BYTES`], times out, or whose
    // connection closes before the `\r\n\r\n` terminator is a malformed
    // request, answered 400 rather than parsed on a partial line.
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let mut complete = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    complete = true;
                    break;
                }
                if head.len() > MAX_HEAD_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let bad_request = |reason: &str| {
        (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            format!("{reason}\n"),
        )
    };
    let request_line = String::from_utf8_lossy(&head)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next(), parts.next());
    let (status, content_type, body) = if !complete {
        if head.len() > MAX_HEAD_BYTES {
            bad_request("request head exceeds 8192 bytes")
        } else {
            bad_request("request head ended before the blank-line terminator")
        }
    } else if method.is_none() || path.is_none() {
        bad_request("malformed request line (expected `METHOD PATH ...`)")
    } else if method != Some("GET") {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        let path = path.expect("checked above");
        match path {
            "/health" => {
                let health = Value::object([
                    ("status", Value::from("ok")),
                    (
                        "uptime_ms",
                        Value::from(started.elapsed().as_millis() as u64),
                    ),
                    ("dropped_events", Value::from(obs::dropped_events())),
                ]);
                ("200 OK", "application/json", health.to_pretty())
            }
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                export::prometheus_text(),
            ),
            "/progress" => ("200 OK", "application/json", progress().to_pretty()),
            "/flight" => (
                "200 OK",
                "application/json",
                export::chrome_trace(&flight::snapshot()).to_pretty(),
            ),
            "/quit" => {
                quit.store(true, Ordering::Relaxed);
                (
                    "200 OK",
                    "application/json",
                    Value::object([("status", Value::from("quitting"))]).to_pretty(),
                )
            }
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no route {path}; try /health /metrics /progress /flight /quit\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("send request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    /// Sends raw bytes (optionally closing the write half early) and
    /// returns whatever the server answers.
    fn raw_request(addr: SocketAddr, bytes: &[u8], close_write: bool) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("send bytes");
        if close_write {
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
        }
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    #[test]
    fn malformed_requests_get_400_not_a_panic() {
        let server = ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.addr();

        // Partial read: the client gives up mid-request-line.
        let partial = raw_request(addr, b"GET /hea", true);
        assert!(partial.starts_with("HTTP/1.0 400"), "partial: {partial}");
        assert!(partial.contains("terminator"), "partial: {partial}");

        // Empty request: connect and immediately close.
        let empty = raw_request(addr, b"", true);
        assert!(empty.starts_with("HTTP/1.0 400"), "empty: {empty}");

        // Garbage bytes with a terminated head but no parseable
        // `METHOD PATH` pair.
        let garbage = raw_request(addr, b"\xff\xfe\x00\x01garbage\r\n\r\n", false);
        assert!(garbage.starts_with("HTTP/1.0 400"), "garbage: {garbage}");

        // Oversized head: more than the cap without a terminator.
        let oversized = raw_request(addr, &vec![b'A'; MAX_HEAD_BYTES + 512], false);
        assert!(
            oversized.starts_with("HTTP/1.0 400"),
            "oversized: {oversized}"
        );
        assert!(oversized.contains("8192"), "oversized: {oversized}");

        // Non-GET on a real route: still 405, not 400.
        let post = raw_request(addr, b"POST /health HTTP/1.0\r\n\r\n", false);
        assert!(post.starts_with("HTTP/1.0 405"), "post: {post}");

        // And a well-formed GET for a missing route is still a 404 —
        // the hardening must not break ordinary dispatch.
        let missing = raw_request(addr, b"GET /no/such/route HTTP/1.0\r\n\r\n", false);
        assert!(missing.starts_with("HTTP/1.0 404"), "missing: {missing}");

        server.stop();
    }

    #[test]
    fn resolve_addr_expands_bare_ports() {
        assert_eq!(resolve_addr("8080"), "127.0.0.1:8080");
        assert_eq!(resolve_addr("0"), "127.0.0.1:0");
        assert_eq!(resolve_addr("0.0.0.0:9100"), "0.0.0.0:9100");
    }

    #[test]
    fn routes_answer_and_quit_is_observable() {
        let _serial = obs::exclusive();
        obs::reset();
        obs::set_metrics_enabled(true);
        obs::counter("servetest.requests").add(3);
        {
            let _scope = obs::scope(4, 0);
            let _span = obs::span("servetest.work_ns");
        }
        publish_progress(Value::object([
            ("status", Value::from("running")),
            ("epoch", Value::from(7u64)),
        ]));
        let server = ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
        let addr = server.addr();

        let health = http_get(addr, "/health");
        assert!(health.starts_with("HTTP/1.0 200"), "health: {health}");
        assert!(health.contains("\"status\": \"ok\""), "health: {health}");

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.contains("servetest_requests 3"), "{metrics}");

        let progress = http_get(addr, "/progress");
        assert!(progress.contains("\"epoch\": 7"), "progress: {progress}");

        let flight = http_get(addr, "/flight");
        assert!(
            flight.contains("servetest.work_ns") && flight.contains("\"cat\": \"obs.span\""),
            "flight: {flight}"
        );

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "missing: {missing}");

        assert!(!server.quit_requested());
        let quit = http_get(addr, "/quit");
        assert!(quit.contains("quitting"), "quit: {quit}");
        assert!(server.quit_requested());
        server.stop();

        obs::set_metrics_enabled(false);
        obs::reset();
        *progress_slot().lock().unwrap() = None;
    }
}
