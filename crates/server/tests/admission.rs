//! Admission control over real TCP: with one query slot and one waiting
//! place, a third concurrent query is refused with `overloaded` at once,
//! and the waiting query is answered once the slot frees; waiting
//! queries are admitted in arrival order; and a client that never reads
//! its replies holds no slot and cannot hold up shutdown for good.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sd_server::proto::encode_frame;
use sd_server::{
    Client, ClientError, Config, ErrorKind, Frame, Json, QueryReq, Request, ServeHandle,
};

/// The slow query's deadline, which bounds how long it holds the slot.
/// Unbounded, its five-row matrix runs for about 0.6 s in a release
/// build and 3 s in a debug build.
const SLOW_MS: u64 = 2000;

fn gauge(c: &mut Client, key: &str) -> u64 {
    let m = c.metrics().unwrap();
    m.get("gauges")
        .and_then(|g| g.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no gauge `{key}`"))
}

/// Polls the `metrics` scrape until gauge `key` reads `want`.
fn await_gauge(c: &mut Client, key: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while gauge(c, key) != want {
        assert!(Instant::now() < deadline, "gauge `{key}` never read {want}");
        std::thread::yield_now();
    }
}

#[test]
fn a_full_queue_refuses_at_once_and_the_waiter_is_answered() {
    let handle = ServeHandle::spawn(Config {
        workers: 1,
        queue_depth: 1,
        ..Config::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut scrape = Client::connect(addr).unwrap();
    let slow_key = scrape.register_example("pointer_chain", &[5, 2]).unwrap();
    let key = scrape.register_example("flag_copy", &[3]).unwrap();

    // Holds the only slot: sinks of every object of pointer_chain(5,2).
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let rows = (0..5).map(|i| vec![format!("o{i}")]).collect();
        let mut req = QueryReq::matrix(slow_key, rows);
        req.timeout_ms = Some(SLOW_MS);
        c.query(req)
    });
    await_gauge(&mut scrape, "inflight", 1);

    // Takes the only waiting place.
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.sinks(QueryReq::sinks(key, vec!["alpha".into()]))
    });
    await_gauge(&mut scrape, "queue_depth", 1);

    let mut third = Client::connect(addr).unwrap();
    let asked = Instant::now();
    let err = third
        .query(QueryReq::sinks(key, vec!["beta".into()]))
        .unwrap_err();
    let took = asked.elapsed();
    assert_eq!(err.kind, ErrorKind::Overloaded, "{err:?}");
    assert!(
        took < Duration::from_millis(SLOW_MS),
        "refusal took {took:?}"
    );

    assert_eq!(waiter.join().unwrap().unwrap(), ["alpha", "beta"]);
    match slow.join().unwrap() {
        Ok(resp) => assert!(resp.ok),
        Err(e) => assert_eq!(e.kind, ErrorKind::Timeout, "{e:?}"),
    }
    // Every slot and waiting place is free again.
    await_gauge(&mut scrape, "inflight", 0);
    assert_eq!(gauge(&mut scrape, "queue_depth"), 0);
    handle.shutdown();
}

/// Runs `req` on a fresh connection and returns when its reply arrived.
fn timed_query(
    addr: std::net::SocketAddr,
    req: QueryReq,
) -> JoinHandle<(Result<sd_server::ResponseFrame, ClientError>, Instant)> {
    std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let resp = c.query(req);
        (resp, Instant::now())
    })
}

/// With one slot busy, three queries that start waiting one after the
/// other are answered in that order.
#[test]
fn waiting_queries_are_admitted_in_arrival_order() {
    let handle = ServeHandle::spawn(Config {
        workers: 1,
        queue_depth: 3,
        ..Config::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut scrape = Client::connect(addr).unwrap();
    // Each waiter searches its own system, so no waiter's answer comes
    // from another's result cache or row memo, and each holds the slot
    // for tens of milliseconds: ample to tell the reply order apart.
    let mut keys = Vec::new();
    for (n, d) in [(5, 2), (4, 4), (6, 1), (4, 3)] {
        keys.push(scrape.register_example("pointer_chain", &[n, d]).unwrap());
    }

    let rows = (0..5).map(|i| vec![format!("o{i}")]).collect();
    let mut req = QueryReq::matrix(keys[0], rows);
    req.timeout_ms = Some(SLOW_MS);
    let slow = timed_query(addr, req);
    await_gauge(&mut scrape, "inflight", 1);

    let mut waiters = Vec::new();
    for (i, &key) in keys[1..].iter().enumerate() {
        let mut req = QueryReq::sinks(key, vec!["o0".into()]);
        req.timeout_ms = Some(SLOW_MS);
        waiters.push(timed_query(addr, req));
        await_gauge(&mut scrape, "queue_depth", i as u64 + 1);
    }

    let (slow, slow_at) = slow.join().unwrap();
    if let Err(e) = slow {
        assert_eq!(e.kind, ErrorKind::Timeout, "{e:?}");
    }
    let mut last = slow_at;
    for (i, w) in waiters.into_iter().enumerate() {
        let (resp, at) = w.join().unwrap();
        match resp {
            Ok(resp) => assert!(resp.ok),
            Err(e) => assert_eq!(e.kind, ErrorKind::Timeout, "{e:?}"),
        }
        assert!(at > last, "waiter {i} was answered out of turn");
        last = at;
    }
    handle.shutdown();
}

/// A client that pipelines queries and never reads the replies ends up
/// with its connection thread blocked writing one. The slot was handed
/// on before the write, so other clients are still answered, and
/// shutdown returns once the blocked write times out.
#[test]
fn a_client_that_never_reads_blocks_only_itself() {
    let max_timeout = Duration::from_secs(4);
    let handle = ServeHandle::spawn(Config {
        workers: 1,
        queue_depth: 1,
        max_timeout,
        ..Config::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    let key = c.register_example("flag_copy", &[3]).unwrap();

    let frame = Frame {
        id: None,
        req: Request::Query(QueryReq::sinks(key, vec!["alpha".into()])),
    };
    let batch = format!("{}\n", encode_frame(&frame)).repeat(1000);
    let mut hog = TcpStream::connect(addr).unwrap();
    // Writes until the server has stopped reading for a while: its
    // connection thread is then stuck writing a reply nobody reads.
    hog.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    while hog.write_all(batch.as_bytes()).is_ok() {}

    let asked = Instant::now();
    let sinks = c.sinks(QueryReq::sinks(key, vec!["beta".into()])).unwrap();
    assert_eq!(sinks, ["beta"]);
    let took = asked.elapsed();
    assert!(took < max_timeout / 2, "answer took {took:?}");

    let (done, returned) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        done.send(()).unwrap();
    });
    returned
        .recv_timeout(max_timeout * 3)
        .expect("shutdown still blocked by the unread reply");
    drop(hog);
}
