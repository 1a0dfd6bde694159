//! Deterministic metrics correctness: a known request mix against a
//! live server must produce exact counter values, exact histogram
//! counts, and a slow-query ring entry with a complete phase breakdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use sd_server::{Client, Config, ErrorKind, Json, Method, QueryReq, ServeHandle, SystemDesc};

fn spawn() -> ServeHandle {
    let cfg = Config {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        registry_cap: 8,
        cache_cap: 64,
        max_frame: 4096,
        max_timeout: Duration::from_secs(10),
        sink: None,
        access_log: None,
        // Threshold 0: every request is "slow", so the ring must hold
        // the whole mix and the timeout entry is guaranteed captured.
        slow_ms: 0,
        slowlog_cap: 32,
        metrics: true,
    };
    ServeHandle::spawn(cfg).expect("bind loopback")
}

fn u64_at(v: &Json, path: &[&str]) -> Option<u64> {
    let mut v = v;
    for k in path {
        v = v.get(k)?;
    }
    v.as_u64()
}

/// The ISSUE's acceptance mix: 1 register, 1 cold depends, 2 warm
/// repeats, 1 malformed frame, 1 timeout — then assert the families.
#[test]
fn known_mix_produces_exact_counters_histograms_and_slowlog() {
    let handle = spawn();
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();

    // 1 register (cold: compiles fresh).
    let key = c
        .register(SystemDesc::Example {
            name: "flag_copy".into(),
            params: vec![3],
        })
        .unwrap();

    // 1 cold depends + 2 warm byte-identical repeats.
    let req = QueryReq::depends(key, vec!["alpha".into()], "beta");
    for (i, want_cached) in [(0, false), (1, true), (2, true)] {
        let resp = c.query(req.clone()).unwrap();
        assert_eq!(resp.cached, want_cached, "repeat {i}");
    }

    // 1 timeout: deadline expired before the search starts; a distinct
    // source set keeps it off the cached fingerprint.
    let mut doomed = QueryReq::depends(key, vec!["x".into()], "beta");
    doomed.timeout_ms = Some(0);
    let err = c.query(doomed).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Timeout);

    // 1 malformed frame on a raw connection; the trailing ping-pong on
    // the same connection guarantees the frame's metrics were folded in
    // before we scrape.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "this is not json").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains(r#""kind":"parse""#), "{resp}");
        writeln!(writer, r#"{{"method":"ping"}}"#).unwrap();
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains(r#""pong":true"#), "{resp}");
    }
    // The ping's own observation races with the scrape below (its
    // response is written before its metrics land); give it a moment.
    std::thread::sleep(Duration::from_millis(50));

    // Exact counters, in-process.
    let m = handle.metrics();
    assert_eq!(m.requests_total(Method::Register, None), 1);
    assert_eq!(m.requests_total(Method::Depends, None), 3);
    assert_eq!(
        m.requests_total(Method::Depends, Some(ErrorKind::Timeout)),
        1
    );
    assert_eq!(m.requests_total(Method::Unknown, Some(ErrorKind::Parse)), 1);

    // Exact histogram counts: 1 cold search, 2 cached replays. Errors
    // (the timeout) record no duration sample.
    let cold = m.duration_snapshot(Method::Depends, true);
    let warm = m.duration_snapshot(Method::Depends, false);
    assert_eq!(cold.count, 1);
    assert_eq!(warm.count, 2);
    assert_eq!(cold.buckets.iter().map(|(_, n)| n).sum::<u64>(), 1);
    assert_eq!(warm.buckets.iter().map(|(_, n)| n).sum::<u64>(), 2);
    let reg = m.duration_snapshot(Method::Register, true);
    assert_eq!(reg.count, 1, "fresh registration is a cold sample");

    // The same numbers over the wire, as structured JSON.
    let scraped = c.metrics().unwrap();
    assert_eq!(u64_at(&scraped, &["requests", "register", "ok"]), Some(1));
    assert_eq!(u64_at(&scraped, &["requests", "depends", "ok"]), Some(3));
    assert_eq!(
        u64_at(&scraped, &["requests", "depends", "timeout"]),
        Some(1)
    );
    assert_eq!(u64_at(&scraped, &["requests", "unknown", "parse"]), Some(1));
    assert_eq!(
        u64_at(&scraped, &["durations", "depends", "cold", "count"]),
        Some(1)
    );
    assert_eq!(
        u64_at(&scraped, &["durations", "depends", "warm", "count"]),
        Some(2)
    );
    assert_eq!(u64_at(&scraped, &["cache", "hits"]), Some(2));
    assert_eq!(u64_at(&scraped, &["registry", "systems"]), Some(1));
    assert_eq!(u64_at(&scraped, &["oracle", "compiles"]), Some(1));
    assert!(u64_at(&scraped, &["durations", "depends", "cold", "p50_ns"]).unwrap() > 0);

    // The slow ring (threshold 0) captured the timeout with all six
    // phases present, and phases that ran are nonzero.
    let slow = c.slowlog(None).unwrap();
    let timeout_entry = slow
        .iter()
        .find(|e| e.get("outcome").and_then(Json::as_str) == Some("timeout"))
        .expect("timeout captured in slowlog");
    assert_eq!(
        timeout_entry.get("method").and_then(Json::as_str),
        Some("depends")
    );
    let phases = timeout_entry.get("phases").expect("phase breakdown");
    for p in ["parse", "cache", "compile", "search", "serialize", "write"] {
        assert!(
            phases.get(p).and_then(Json::as_u64).is_some(),
            "phase `{p}` missing: {phases:?}"
        );
    }
    assert!(u64_at(timeout_entry, &["phases", "parse"]).unwrap() > 0);
    assert!(u64_at(timeout_entry, &["total_ns"]).unwrap() > 0);

    // And the Prometheus exposition agrees.
    let prom = c.metrics_prom().unwrap();
    for needle in [
        r#"sd_requests_total{method="depends",outcome="ok"} 3"#,
        r#"sd_requests_total{method="depends",outcome="timeout"} 1"#,
        r#"sd_requests_total{method="unknown",outcome="parse"} 1"#,
        r#"sd_request_duration_ns_count{method="depends",cold="false"} 2"#,
        r#"sd_request_duration_ns_count{method="depends",cold="true"} 1"#,
        "sd_cache_hits_total 2",
        "sd_compiles_total 1",
        "sd_registry_systems 1",
        "sd_slow_queries_total",
        "# TYPE sd_request_duration_ns histogram",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    handle.shutdown();
}

/// With the default threshold (100ms) nothing in a fast mix is slow;
/// with metrics disabled nothing records at all.
#[test]
fn thresholds_and_disabled_metrics_behave() {
    // Default threshold: fast requests leave the ring empty.
    let handle = ServeHandle::spawn(Config {
        addr: "127.0.0.1:0".into(),
        ..Config::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.ping().unwrap();
    assert!(c.slowlog(None).unwrap().is_empty());
    assert_eq!(handle.metrics().requests_total(Method::Ping, None), 1);
    handle.shutdown();

    // Disabled: scrapes succeed but report nothing.
    let handle = ServeHandle::spawn(Config {
        addr: "127.0.0.1:0".into(),
        metrics: false,
        slow_ms: 0,
        ..Config::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.ping().unwrap();
    c.ping().unwrap();
    let m = c.metrics().unwrap();
    assert_eq!(u64_at(&m, &["requests", "ping", "ok"]), None);
    assert!(c.slowlog(None).unwrap().is_empty());
    assert_eq!(handle.metrics().requests_total(Method::Ping, None), 0);
    handle.shutdown();
}
