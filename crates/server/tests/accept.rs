//! The accept path: connections are served as soon as they arrive, and
//! shutdown wakes the blocked accept promptly — in process, on a
//! wildcard bind, and for the `sdserved` binary, whose `shutdown` reply
//! and the replies of the queries it drains must leave before the
//! process exits.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sd_server::{Client, Config, ErrorKind, Json, QueryReq, Request, ServeHandle};

/// Runs `handle.shutdown()` on another thread and fails the test if it
/// does not return within `limit` (a hung accept must not hang the
/// suite).
fn assert_shutdown_within(handle: ServeHandle, limit: Duration) {
    let (tx, rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let t = Instant::now();
        handle.shutdown();
        tx.send(t.elapsed()).unwrap();
    });
    let took = rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("ServeHandle::shutdown did not return within {limit:?}"));
    stopper.join().unwrap();
    assert!(took < limit, "shutdown took {took:?}");
}

#[test]
fn shutdown_with_no_client_returns_promptly() {
    let handle = ServeHandle::spawn(Config::default()).unwrap();
    assert_shutdown_within(handle, Duration::from_secs(1));
}

#[test]
fn shutdown_of_a_wildcard_bind_returns_promptly() {
    let handle = ServeHandle::spawn(Config {
        addr: "0.0.0.0:0".into(),
        ..Config::default()
    })
    .unwrap();
    assert!(handle.local_addr().ip().is_unspecified());
    assert_shutdown_within(handle, Duration::from_secs(1));
}

#[test]
fn shutdown_after_a_shutdown_request_returns_promptly() {
    let handle = ServeHandle::spawn(Config::default()).unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.shutdown().unwrap();
    assert_shutdown_within(handle, Duration::from_secs(1));
}

/// New connections are accepted without a polling delay: 200 sequential
/// sessions take well under a second (a 20 ms poll costs ~10 ms each).
#[test]
fn sequential_sessions_are_accepted_without_delay() {
    let handle = ServeHandle::spawn(Config::default()).unwrap();
    let addr = handle.local_addr();
    let t = Instant::now();
    for _ in 0..200 {
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
    }
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "200 sessions took {took:?}");
    assert_shutdown_within(handle, Duration::from_secs(1));
}

struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Daemon {
    /// Starts `sdserved` with one query slot and returns it with its
    /// address.
    fn spawn() -> (Daemon, String) {
        let mut d = Daemon(
            Command::new(env!("CARGO_BIN_EXE_sdserved"))
                .args(["--addr", "127.0.0.1:0", "--workers", "1"])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn sdserved"),
        );
        let mut banner = String::new();
        BufReader::new(d.0.stdout.as_mut().unwrap())
            .read_line(&mut banner)
            .unwrap();
        let addr = banner
            .trim()
            .strip_prefix("sdserved listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        (d, addr)
    }

    /// Fails unless the process exits successfully within `limit`.
    fn assert_exits_within(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.0.try_wait().unwrap() {
                assert!(status.success(), "exit {status}");
                return;
            }
            assert!(
                Instant::now() < deadline,
                "sdserved still running {limit:?} after shutdown"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One spawn → ping → shutdown cycle of the real binary.
fn daemon_cycle(cycle: usize) {
    let (mut d, addr) = Daemon::spawn();
    let mut c = Client::connect(addr.as_str()).unwrap();
    c.ping().unwrap();
    let (resp, raw) = c
        .call_raw(Request::Shutdown)
        .unwrap_or_else(|e| panic!("cycle {cycle}: shutdown reply lost: {e}"));
    assert!(resp.ok, "cycle {cycle}: {raw}");
    assert!(
        raw.contains("\"shutting_down\":true"),
        "cycle {cycle}: {raw}"
    );
    d.assert_exits_within(Duration::from_secs(2));
}

#[test]
fn sdserved_replies_to_shutdown_then_exits() {
    for cycle in 0..200 {
        daemon_cycle(cycle);
    }
}

/// The drain covers the reply write: a slow query admitted before a
/// `shutdown` from another connection still receives its whole reply
/// line (an answer or `timeout`), not EOF, before `sdserved` exits.
#[test]
fn sdserved_writes_drained_replies_before_exiting() {
    let (mut d, addr) = Daemon::spawn();
    let mut c = Client::connect(addr.as_str()).unwrap();
    let key = c.register_example("pointer_chain", &[5, 2]).unwrap();
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut slow = Client::connect(addr.as_str()).unwrap();
            let rows = (0..5).map(|i| vec![format!("o{i}")]).collect();
            let mut req = QueryReq::matrix(key, rows);
            req.timeout_ms = Some(2000);
            slow.query(req)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let inflight = |m: Json| m.get("gauges")?.get("inflight")?.as_u64();
    while inflight(c.metrics().unwrap()) != Some(1) {
        assert!(Instant::now() < deadline, "the slow query never ran");
        std::thread::yield_now();
    }
    c.shutdown().unwrap();
    match slow.join().unwrap() {
        Ok(resp) => assert!(resp.ok),
        Err(e) => assert_eq!(e.kind, ErrorKind::Timeout, "{e:?}"),
    }
    d.assert_exits_within(Duration::from_secs(10));
}
