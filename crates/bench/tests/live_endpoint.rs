//! The live telemetry endpoint, driven as a process: a served
//! `fleet_forecast` run publishes its OS-assigned address through
//! `RF_OBS_ADDR_FILE` and answers every route over plain TCP while it
//! lingers — `/health` is ok, `/metrics` is a strict-parsing metrics
//! snapshot, `/flight` is a JSON event array, `/progress` reaches
//! `complete` with a forecast — then `/quit` ends the linger and the run
//! exits 0, leaving obs artifacts that pass `obs_validate`.

use relaxfault_util::json::Value;
use relaxfault_util::obs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the served run if the test fails before `/quit` ends it.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Polls `ready` every 50 ms until it yields a value or `limit` passes.
fn poll<T>(limit: Duration, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(v) = ready() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One HTTP/1.0 GET; returns (status line, content type, body).
fn get(addr: &str, route: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the endpoint");
    stream
        .write_all(format!("GET {route} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("{route}: no header terminator: {response}"));
    let status = head.lines().next().unwrap_or_default().to_string();
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_default()
        .to_string();
    (status, content_type, body.to_string())
}

/// GETs `route` and strict-parses its 200 JSON body.
fn get_json(addr: &str, route: &str) -> Value {
    let (status, content_type, body) = get(addr, route);
    assert_eq!(status, "HTTP/1.0 200 OK", "{route}: {body}");
    assert_eq!(content_type, "application/json", "{route}");
    Value::parse(&body).unwrap_or_else(|e| panic!("{route} is not JSON ({e}): {body}"))
}

#[test]
fn served_fleet_run_answers_every_route_and_exits_on_quit() {
    let dir = std::env::temp_dir().join(format!("rf_live_endpoint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let addr_file = dir.join("obs_addr");
    let child = Command::new(env!("CARGO_BIN_EXE_fleet_forecast"))
        .args(["20000", "--epochs=4", "--serve-obs=0", "--linger-ms=120000"])
        .env("RF_RESULTS_DIR", &dir)
        .env("RF_OBS", "on")
        .env_remove("RF_TRACE")
        .env("RF_RUN_NAME", "live_smoke")
        .env("RF_OBS_ADDR_FILE", &addr_file)
        .env_remove("RF_OBS_ADDR")
        .env_remove("RF_FLEET_CRASH_AT")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("fleet_forecast starts");
    let mut served = Served(child);

    let addr = poll(Duration::from_secs(60), || {
        std::fs::read_to_string(&addr_file)
            .ok()
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
    })
    .expect("endpoint address never published");

    let health = get_json(&addr, "/health");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    let metrics = get_json(&addr, "/metrics");
    for key in [
        "schema_version",
        "manifest",
        "counters",
        "gauges",
        "histograms",
        "dropped_events",
    ] {
        assert!(metrics.get(key).is_some(), "/metrics has no `{key}`");
    }
    assert_eq!(
        metrics.get("schema_version").and_then(Value::as_f64),
        Some(obs::SCHEMA_VERSION as f64)
    );

    assert!(
        get_json(&addr, "/flight").as_array().is_some(),
        "/flight is not an event array"
    );

    // The run publishes a fresh document every epoch boundary and lingers
    // once complete, so polling for `complete` terminates.
    let progress = poll(Duration::from_secs(300), || {
        let doc = get_json(&addr, "/progress");
        (doc.get("status").and_then(Value::as_str) == Some("complete")).then_some(doc)
    })
    .expect("/progress never reached complete");
    assert!(
        progress.get("forecast").and_then(Value::as_array).is_some(),
        "/progress has no forecast"
    );

    let (status, _, _) = get(&addr, "/quit");
    assert_eq!(status, "HTTP/1.0 200 OK");
    let exit = poll(Duration::from_secs(60), || {
        served.0.try_wait().expect("poll the served run")
    })
    .expect("served run did not exit after /quit");
    assert!(exit.success(), "served run exited with {exit}");

    let validate = Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .arg(dir.join("obs"))
        .output()
        .expect("obs_validate runs");
    assert!(
        validate.status.success(),
        "{}",
        String::from_utf8_lossy(&validate.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
