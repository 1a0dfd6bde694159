//! The TCP daemon: accept loop, one admission gate, graceful shutdown,
//! and the observability hooks around all of it.
//!
//! # Threading model
//!
//! - One **accept thread** blocks in `accept` and spawns a thread per
//!   connection (connections are cheap: they block on reads). It never
//!   polls: a new connection is served as soon as the kernel hands it
//!   over, and only a real accept error (such as `EMFILE`) backs off
//!   briefly so it cannot spin.
//! - Each **connection thread** reads bounded JSON lines, answers
//!   control methods (`ping`, `register`, `metrics`, `slowlog`,
//!   `shutdown`) inline, and runs each query itself with
//!   [`engine::execute_query`] once the **admission gate** grants it a
//!   slot: at most `workers` run, at most `queue_depth` more wait in
//!   arrival order, and the next is refused with `overloaded` — the
//!   server never buffers unbounded work. The slot is handed on once the
//!   reply is serialised, so a client slow to read blocks only its own
//!   connection; reply writes time out after `max_timeout`.
//!
//! # Observability
//!
//! Every request carries a [`RequestTrace`] from the moment its line is
//! read: parsing, cache probes, registry/compile work, the search,
//! serialisation, and the response write are each timed as phases. The
//! finished trace plus the request's outcome feed
//! [`ServerMetrics::observe_request`], which maintains the counter and
//! histogram families the `metrics` method scrapes and captures
//! requests slower than `--slow-ms` into the `slowlog` ring. Oracle
//! telemetry (compiles, partition cache traffic, memo rows) rolls up
//! through a [`MetricsSink`] wrapped around any user-provided sink.
//!
//! The access log never blocks a request on a slow or broken writer:
//! lines are serialised outside the lock, the lock is held only for the
//! `write_all`, and write failures drop the line and bump
//! `sd_access_log_dropped_total` instead of erroring the request.
//!
//! # Graceful shutdown
//!
//! `shutdown` (request or [`ServeHandle::shutdown`]) closes the gate.
//! From then on new queries and registrations are refused with
//! `shutting_down`; every query the gate already admitted, running or
//! waiting for a slot, still runs and writes its reply (the drain); a
//! reply its client never reads holds the drain at most `max_timeout`.
//! [`ServeHandle::wait`] returns only once the drain is over, so
//! `sdserved` cannot exit between a drained query and its reply.
//!
//! The blocked accept thread is woken by a connection to the listener's
//! own address (loopback when bound to a wildcard address); it checks
//! the gate after every accept and drops that connection. A `shutdown`
//! request writes its reply *before* the wake: once the accept thread
//! exits and the drain is over, [`ServeHandle::wait`] returns and
//! `sdserved` exits, so waking first could end the process before the
//! reply leaves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use sd_core::{CompileBudget, JsonBuf, QueryReport, Sink};

use crate::cache::ResultCache;
use crate::engine;
use crate::metrics::{
    Method, MetricsSink, Phase, RequestObs, RequestTrace, ScrapeGauges, ServerMetrics,
};
use crate::proto::{self, put_id, ErrorKind, QueryReq, Request, WireError, MAX_FRAME};
use crate::registry::{Registry, SystemEntry};

/// Server tuning knobs. [`Config::default`] is suitable for tests and
/// small deployments: loopback, four query slots, 64 waiting places.
pub struct Config {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// How many queries may execute at once (each on its own
    /// connection thread).
    pub workers: usize,
    /// How many more queries may wait for a slot (admitted in arrival
    /// order); past that a query is refused with `overloaded`.
    pub queue_depth: usize,
    /// Maximum registered systems (entries live for the process).
    pub registry_cap: usize,
    /// Result-cache capacity in answers (0 disables caching).
    pub cache_cap: usize,
    /// Maximum request-line length in bytes.
    pub max_frame: usize,
    /// Cap — and default — for per-request deadlines, and how long a
    /// reply write may block before the connection is dropped.
    pub max_timeout: Duration,
    /// Telemetry sink observing compiles, searches and cache events.
    pub sink: Option<Arc<dyn Sink>>,
    /// JSON-lines access log (one line per request).
    pub access_log: Option<Box<dyn Write + Send>>,
    /// Requests slower than this land in the slow-query ring (and on
    /// the access log stream when one is configured). 0 captures
    /// everything.
    pub slow_ms: u64,
    /// Slow-query ring capacity (most recent N kept).
    pub slowlog_cap: usize,
    /// Whether metric recording is live. `false` turns every recording
    /// call into a no-op — the A/B baseline for measuring metrics
    /// overhead.
    pub metrics: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            registry_cap: 16,
            cache_cap: 1024,
            max_frame: MAX_FRAME,
            max_timeout: Duration::from_secs(30),
            sink: None,
            access_log: None,
            slow_ms: 100,
            slowlog_cap: 128,
            metrics: true,
        }
    }
}

struct Shared {
    /// The listener's bound address, which the shutdown wake dials.
    addr: SocketAddr,
    registry: Registry,
    cache: ResultCache,
    sink: Option<Arc<dyn Sink>>,
    metrics: Arc<ServerMetrics>,
    access: Option<Mutex<Box<dyn Write + Send>>>,
    max_frame: usize,
    max_timeout: Duration,
    gate: Gate,
    connections: AtomicU64,
    connections_open: AtomicU64,
}

/// The admission gate: at most `workers` queries run at once, at most
/// `queue_depth` more wait for a slot and are admitted in arrival order,
/// and a closed gate turns away new queries. Its state is the only
/// record of running and waiting queries.
struct Gate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    /// Signalled when a slot or a reply frees, and when the gate closes.
    freed: Condvar,
}

#[derive(Clone, Copy, Default)]
struct GateState {
    /// Queries holding a slot.
    running: usize,
    /// Admitted queries whose reply is still being written.
    replying: usize,
    /// Tickets: each waiting query holds one in `serving..next`, and
    /// `serving` is the next to be admitted.
    next: u64,
    serving: u64,
    closed: bool,
}

impl GateState {
    fn waiting(&self) -> usize {
        (self.next - self.serving) as usize
    }
}

/// An admitted query's hold on the gate: a slot until
/// [`Admitted::replying`], then a reply the drain waits for. Dropping it
/// releases whichever it holds, also when the query panics.
struct Admitted<'g> {
    gate: &'g Gate,
    running: bool,
}

impl Gate {
    /// Recovers a poisoned lock: every update leaves the counts valid,
    /// and `Admitted::drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot, waiting behind earlier queries when every slot is
    /// busy or others already wait. Refuses with `shutting_down` once
    /// closed (a query already waiting is still admitted) and with
    /// `overloaded` when every waiting place is taken.
    fn admit(&self) -> Result<Admitted<'_>, WireError> {
        let mut st = self.lock();
        if st.closed {
            return Err(draining());
        }
        if st.waiting() > 0 || st.running >= self.workers {
            if st.waiting() >= self.queue_depth {
                return Err(WireError::new(
                    ErrorKind::Overloaded,
                    "admission queue full; retry later",
                ));
            }
            let ticket = st.next;
            st.next += 1;
            let not_yet = |st: &mut GateState| st.serving != ticket || st.running >= self.workers;
            st = self
                .freed
                .wait_while(st, not_yet)
                .unwrap_or_else(PoisonError::into_inner);
            st.serving += 1;
            // The next in line may find a slot free as well.
            self.wake(&st);
        }
        st.running += 1;
        Ok(Admitted {
            gate: self,
            running: true,
        })
    }

    fn close(&self) {
        self.lock().closed = true;
        self.freed.notify_all();
    }

    /// After a slot or a reply frees. Only the head of the line may take
    /// a slot, and the drain waits on the same condvar, so wake everyone
    /// whenever anyone waits.
    fn wake(&self, st: &GateState) {
        if st.closed || st.waiting() > 0 {
            self.freed.notify_all();
        }
    }

    /// Blocks until the gate is closed and every admitted query has
    /// run and written its reply.
    fn drain(&self) {
        let busy = |st: &mut GateState| !st.closed || st.running + st.waiting() + st.replying > 0;
        drop(self.freed.wait_while(self.lock(), busy));
    }
}

impl Admitted<'_> {
    /// Hands the slot on once the reply is serialised; the drain still
    /// waits for the reply until this is dropped.
    fn replying(&mut self) {
        debug_assert!(self.running, "the slot is handed on once");
        self.running = false;
        let mut st = self.gate.lock();
        st.running -= 1;
        st.replying += 1;
        self.gate.wake(&st);
    }
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.lock();
        if self.running {
            st.running -= 1;
        } else {
            st.replying -= 1;
        }
        self.gate.wake(&st);
    }
}

fn draining() -> WireError {
    WireError::new(ErrorKind::ShuttingDown, "server is draining")
}

/// Everything known about a finished request when it is folded into the
/// metric families and the access log.
struct Done {
    response: String,
    method: Method,
    outcome: Option<ErrorKind>,
    cached: bool,
    cold: bool,
    system: Option<u64>,
    fingerprint: Option<u64>,
    report: Option<QueryReport>,
}

impl Done {
    fn ok(method: Method, response: String) -> Done {
        Done {
            response,
            method,
            outcome: None,
            cached: false,
            cold: false,
            system: None,
            fingerprint: None,
            report: None,
        }
    }

    fn err(method: Method, id: Option<u64>, err: &WireError) -> Done {
        let mut d = Done::ok(method, proto::encode_error(id, err));
        d.outcome = Some(err.kind);
        d
    }
}

impl Shared {
    /// Unblocks the accept thread after the gate closes by
    /// connecting to the listener. A wildcard bind is dialled on the
    /// loopback address of its family. Once the accept thread has gone
    /// the connect is refused, which is harmless.
    fn wake_accept(&self) {
        let mut to = self.addr;
        if to.ip().is_unspecified() {
            to.set_ip(match to.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&to, Duration::from_secs(1));
    }

    fn scrape_gauges(&self) -> ScrapeGauges {
        let gate = *self.gate.lock();
        ScrapeGauges {
            connections_total: self.connections.load(Ordering::SeqCst),
            connections_open: self.connections_open.load(Ordering::SeqCst),
            inflight: gate.running as u64,
            queue_depth: gate.waiting() as u64,
            workers: self.gate.workers as u64,
            cache: self.cache.stats(),
            registry_systems: self.registry.len() as u64,
            registry_cap: self.registry.cap() as u64,
        }
    }

    /// Folds the finished request into the metric families and appends
    /// its access-log line (plus the slow-query line, when it crossed
    /// the threshold). The log write happens on a line serialised
    /// *outside* the lock; a failed or poisoned writer drops the lines
    /// and counts them rather than blocking or erroring the request.
    fn observe_and_log(&self, id: Option<u64>, done: &Done, trace: &RequestTrace) {
        let obs = RequestObs {
            method: done.method,
            id,
            outcome: done.outcome,
            cached: done.cached,
            cold: done.cold,
            system: done.system,
            fingerprint: done.fingerprint,
            report: done.report.as_ref(),
        };
        let slow_line = self.metrics.observe_request(&obs, trace);
        let Some(access) = &self.access else { return };
        let mut j = JsonBuf::new();
        j.begin_obj().str_field("event", "request");
        put_id(&mut j, id);
        j.str_field("method", done.method.as_str());
        match done.outcome {
            None => {
                j.bool_field("ok", true).bool_field("cached", done.cached);
            }
            Some(kind) => {
                j.bool_field("ok", false).str_field("error", kind.as_str());
            }
        }
        j.u64_field("wall_ns", trace.total_ns());
        j.end_obj();
        let mut buf = j.finish();
        buf.push('\n');
        let mut lines = 1u64;
        if let Some(slow) = slow_line {
            buf.push_str(&slow);
            buf.push('\n');
            lines += 1;
        }
        let wrote = match access.lock() {
            Ok(mut out) => out.write_all(buf.as_bytes()).and_then(|()| out.flush()),
            Err(_) => Err(std::io::Error::other("access log lock poisoned")),
        };
        if wrote.is_err() {
            self.metrics.access_log_dropped(lines);
        }
    }
}

/// A handle to a running server: its bound address and the means to
/// stop it.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl ServeHandle {
    /// Binds, spawns the accept thread, and returns immediately.
    pub fn spawn(cfg: Config) -> std::io::Result<ServeHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::new(
            cfg.metrics,
            cfg.slow_ms,
            cfg.slowlog_cap,
        ));
        // Wrap any user sink so Oracle telemetry (compiles, partition
        // traffic, memo rows) also rolls up into the metric families.
        let sink: Option<Arc<dyn Sink>> = if cfg.metrics {
            Some(Arc::new(MetricsSink::new(Arc::clone(&metrics), cfg.sink)))
        } else {
            cfg.sink
        };
        let shared = Arc::new(Shared {
            addr,
            registry: Registry::new(cfg.registry_cap, CompileBudget::default(), sink.clone()),
            cache: ResultCache::new(cfg.cache_cap),
            sink,
            metrics,
            access: cfg.access_log.map(Mutex::new),
            max_frame: cfg.max_frame,
            max_timeout: cfg.max_timeout,
            gate: Gate {
                workers: cfg.workers.max(1),
                queue_depth: cfg.queue_depth.max(1),
                state: Mutex::default(),
                freed: Condvar::new(),
            },
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(ServeHandle {
            addr,
            shared,
            accept,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry, for in-process inspection in tests.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.shared.cache.stats()
    }

    /// The server's metric families, for in-process inspection in tests.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Begins graceful shutdown and returns once the accept thread has
    /// exited and every admitted query has written its reply.
    /// Connection threads exit as their clients disconnect or issue
    /// their next request.
    pub fn shutdown(self) {
        self.shared.gate.close();
        self.shared.wake_accept();
        self.wait();
    }

    /// Blocks until the server shuts down (via a `shutdown` request)
    /// and the drain is over.
    pub fn wait(self) {
        let _ = self.accept.join();
        self.shared.gate.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Checked after every accept: the shutdown wake is a connection
        // (dropped here), as is any client racing the shutdown.
        if shared.gate.lock().closed {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // One request-response per round trip: Nagle + delayed
                // ACK would add ~40ms to every reply.
                stream.set_nodelay(true).ok();
                // A client that stops reading fails its own connection
                // after this long instead of holding the drain open.
                stream.set_write_timeout(Some(shared.max_timeout)).ok();
                shared.connections.fetch_add(1, Ordering::SeqCst);
                shared.connections_open.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = serve_conn(stream, &shared);
                    shared.connections_open.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // A failing accept (EMFILE, ENOBUFS…) fails again at once:
            // back off so it cannot become a hot loop.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads one newline-terminated line of at most `max` bytes. Returns
/// `Ok(Ok(None))` on a clean EOF and `Ok(Err(err))` when the line was
/// too long (the rest of the line is consumed so the connection stays
/// usable) or not UTF-8.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Result<Option<String>, WireError>> {
    let mut buf = Vec::new();
    let limit = (max as u64).saturating_add(1);
    reader.by_ref().take(limit).read_until(b'\n', &mut buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > max {
        reader.skip_until(b'\n')?;
        return Ok(Err(WireError::new(
            ErrorKind::TooLarge,
            format!("frame exceeds limit of {max} bytes"),
        )));
    } else if buf.is_empty() {
        return Ok(Ok(None));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(String::from_utf8(buf)
        .map(Some)
        .map_err(|_| WireError::new(ErrorKind::Parse, "request is not valid UTF-8")))
}

fn flag_response(id: Option<u64>, flag: &str) -> String {
    let mut j = proto::begin_response(id, true);
    j.bool_field(flag, true).end_obj();
    j.finish()
}

fn metrics_response(shared: &Shared, id: Option<u64>, prom: bool) -> String {
    let gauges = shared.scrape_gauges();
    let mut j = proto::begin_response(id, true);
    if prom {
        j.str_field("format", "prometheus");
        j.str_field("text", &shared.metrics.render_prom(&gauges));
    } else {
        j.begin_obj_field("metrics");
        shared.metrics.json_fields(&gauges, &mut j);
        j.end_obj();
    }
    j.end_obj();
    j.finish()
}

fn slowlog_response(shared: &Shared, id: Option<u64>, limit: Option<u64>) -> String {
    let limit = limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
    let entries = shared.metrics.slowlog_tail(limit);
    let mut j = proto::begin_response(id, true);
    j.begin_arr_field("entries");
    for e in &entries {
        j.raw_elem(&e.to_json());
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

fn register_response(id: Option<u64>, entry: &SystemEntry, fresh: bool) -> String {
    let u = entry.system.universe();
    let mut j = proto::begin_response(id, true);
    j.u64_field("system", entry.key)
        .str_field("desc", &entry.desc)
        .bool_field("fresh", fresh);
    j.begin_arr_field("objects");
    for obj in u.objects() {
        j.str_elem(u.name(obj));
    }
    j.end_arr();
    j.end_obj();
    j.finish()
}

fn handle_register(
    shared: &Shared,
    id: Option<u64>,
    desc: &proto::SystemDesc,
    trace: &mut RequestTrace,
) -> Done {
    if shared.gate.lock().closed {
        return Done::err(Method::Register, id, &draining());
    }
    // Registration *is* the compile phase: a fresh description parses
    // and compiles here, outside the registry's map lock.
    match trace.time(Phase::Compile, || shared.registry.register(desc)) {
        Ok((entry, fresh)) => {
            let response = trace.time(Phase::Serialize, || register_response(id, &entry, fresh));
            let mut d = Done::ok(Method::Register, response);
            d.cold = fresh;
            d.system = Some(entry.key);
            d
        }
        Err(err) => Done::err(Method::Register, id, &err),
    }
}

/// Runs a query on the calling connection thread. Its admission is left
/// in `held` for the caller to hand on and release around the reply.
fn handle_query<'s>(
    shared: &'s Shared,
    id: Option<u64>,
    req: QueryReq,
    trace: &mut RequestTrace,
    held: &mut Option<Admitted<'s>>,
) -> Done {
    let method = Method::from_kind(req.kind);
    let system = req.system;
    let Some(entry) = shared.registry.get(system) else {
        // A registered system's query learns of a shutdown from the gate.
        let err = if shared.gate.lock().closed {
            draining()
        } else {
            WireError::new(
                ErrorKind::UnknownSystem,
                format!("system {system} is not registered"),
            )
        };
        return Done::err(method, id, &err);
    };
    let result = shared.gate.admit().and_then(|admitted| {
        *held = Some(admitted);
        engine::execute_query(
            &entry,
            &shared.cache,
            shared.sink.as_ref(),
            &req,
            shared.max_timeout,
            trace,
        )
    });
    let mut d = match result {
        Ok(out) => {
            let response = trace.time(Phase::Serialize, || {
                proto::encode_query_ok(id, &out.answer, out.cached, out.report.as_ref())
            });
            let mut d = Done::ok(method, response);
            d.cached = out.cached;
            d.cold = !out.cached;
            d.fingerprint = out.fingerprint;
            d.report = out.report;
            d
        }
        Err(err) => Done::err(method, id, &err),
    };
    d.system = Some(system);
    d
}

fn serve_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let read = read_bounded_line(&mut reader, shared.max_frame)?;
        // The trace clock starts once a line has arrived: time blocked
        // on the client is not request time.
        let mut trace = RequestTrace::start();
        let frame = match read {
            Ok(None) => return Ok(()), // clean disconnect
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => trace.time(Phase::Parse, || proto::parse_frame(&line)),
            Err(err) => Err(err),
        };
        let id = frame.as_ref().ok().and_then(|f| f.id);
        let mut held = None;
        let done = match frame.map(|f| f.req) {
            Err(err) => Done::err(Method::Unknown, None, &err),
            Ok(Request::Ping) => Done::ok(Method::Ping, flag_response(id, "pong")),
            Ok(Request::Metrics { prom }) => Done::ok(
                Method::Metrics,
                trace.time(Phase::Serialize, || metrics_response(shared, id, prom)),
            ),
            Ok(Request::SlowLog { limit }) => Done::ok(
                Method::SlowLog,
                trace.time(Phase::Serialize, || slowlog_response(shared, id, limit)),
            ),
            Ok(Request::Shutdown) => {
                shared.gate.close();
                Done::ok(Method::Shutdown, flag_response(id, "shutting_down"))
            }
            Ok(Request::Register(desc)) => handle_register(shared, id, &desc, &mut trace),
            Ok(Request::Query(q)) => handle_query(shared, id, q, &mut trace, &mut held),
        };
        // A client slow to read must block only its own connection.
        if let Some(admitted) = &mut held {
            admitted.replying();
        }
        let wres = trace.time(Phase::Write, || writeln!(writer, "{}", done.response));
        // Observe after the write so the trace's write phase and total
        // cover the full request. A scrape therefore does not count
        // itself — the mix a test issues is exactly what it reads back.
        shared.observe_and_log(id, &done, &trace);
        // The drain waits for a query until its reply is written.
        drop(held);
        if done.method == Method::Shutdown {
            // Only now that the reply is written may the accept thread
            // stop (see the module docs on shutdown ordering).
            shared.wake_accept();
        }
        wres?;
    }
}
