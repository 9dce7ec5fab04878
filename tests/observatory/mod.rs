//! What the observatory suites (`e2e_quality`, `e2e_lifecycle`) share: a
//! GET against the in-process telemetry server, a field reader for the
//! per-model `/quality` and `/drift` bodies, and the drain that keeps the
//! hubs' rings from filling while a fleet phase runs.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use gamescope::obs::{self, DriftEngine, QualityHub};

pub fn get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

/// Extracts the raw JSON value of `key` inside the per-model object for
/// `model` (the reports serialize each model's scalars before any nested
/// array, so scanning forward from the `"model":"<name>"` anchor is
/// unambiguous).
pub fn model_field(body: &str, model: &str, key: &str) -> String {
    let anchor = format!("\"model\":\"{model}\"");
    let start = body
        .find(&anchor)
        .unwrap_or_else(|| panic!("no {model:?} object in {body}"));
    let rest = &body[start..];
    let pat = format!("\"{key}\":");
    let at = rest
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key:?} after {anchor} in {body}"));
    let val = &rest[at + pat.len()..];
    let end = val
        .find([',', '}', ']'])
        .unwrap_or_else(|| panic!("unterminated {key:?} value"));
    val[..end].trim().to_string()
}

/// Runs `phase` while a second thread drains both hubs every millisecond,
/// as a live deployment's scrapes do, so a phase of any length sheds
/// nothing at the rings.
pub fn draining<T>(
    quality: &Mutex<QualityHub>,
    drift: &Mutex<DriftEngine>,
    phase: impl FnOnce() -> T,
) -> T {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                obs::lock(quality).drain_and_sync();
                obs::lock(drift).drain_and_sync();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = phase();
        done.store(true, Ordering::Relaxed);
        out
    })
}
