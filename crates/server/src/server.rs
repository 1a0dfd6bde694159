//! The TCP daemon: accept loop, bounded admission queue, fixed worker
//! pool, graceful shutdown, and the observability hooks around all of
//! it.
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
//!   `shutdown`) inline, and submits query work to a bounded
//!   [`mpsc::sync_channel`]. A full queue is an immediate `overloaded`
//!   error — the client backs off, the server never buffers unbounded
//!   work.
//! - A **fixed pool** of worker threads drains the queue, runs
//!   [`engine::execute_query`], and replies over a per-request channel.
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
//! `shutdown` (request or [`ServeHandle::shutdown`]) flips a flag and
//! closes the job queue's sender side. Workers finish every job already
//! admitted (the drain), then exit; new queries are refused with
//! `shutting_down`. In-flight requests therefore complete normally
//! while the server drains — the robustness property the e2e tests pin.
//!
//! The blocked accept thread is woken by a connection to the listener's
//! own address (loopback when bound to a wildcard address); it checks
//! the flag after every accept and drops that connection. A `shutdown`
//! request writes its reply *before* the wake: once the accept thread
//! exits, [`ServeHandle::wait`] returns and `sdserved` exits, so waking
//! first could end the process before the reply leaves.

use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sd_core::{CompileBudget, JsonBuf, QueryReport, Sink};

use crate::cache::ResultCache;
use crate::engine::{self, ExecOutcome};
use crate::metrics::{
    Method, MetricsSink, Phase, RequestObs, RequestTrace, ScrapeGauges, ServerMetrics,
};
use crate::proto::{self, ErrorKind, QueryReq, Request, WireError, MAX_FRAME};
use crate::registry::{Registry, SystemEntry};

/// Server tuning knobs. [`Config::default`] is suitable for tests and
/// small deployments: loopback, four workers, a 64-deep queue.
pub struct Config {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded admission-queue depth; a full queue refuses work.
    pub queue_depth: usize,
    /// Maximum registered systems (entries live for the process).
    pub registry_cap: usize,
    /// Result-cache capacity in answers (0 disables caching).
    pub cache_cap: usize,
    /// Maximum request-line length in bytes.
    pub max_frame: usize,
    /// Cap — and default — for per-request deadlines.
    pub max_timeout: Duration,
    /// Compile budget for registered systems.
    pub budget: CompileBudget,
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
            budget: CompileBudget::default(),
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
    workers: usize,
    shutdown: AtomicBool,
    jobs: Mutex<Option<SyncSender<Job>>>,
    connections: AtomicU64,
    connections_open: AtomicU64,
    inflight: AtomicU64,
    queue_depth: AtomicU64,
}

struct Job {
    entry: Arc<SystemEntry>,
    req: QueryReq,
    trace: RequestTrace,
    reply: mpsc::SyncSender<(Result<ExecOutcome, WireError>, RequestTrace)>,
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
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Closing the sender lets workers drain the queue and exit.
        self.jobs.lock().expect("jobs lock").take();
    }

    /// Unblocks the accept thread after [`Shared::begin_shutdown`] by
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
        ScrapeGauges {
            connections_total: self.connections.load(Ordering::SeqCst),
            connections_open: self.connections_open.load(Ordering::SeqCst),
            inflight: self.inflight.load(Ordering::SeqCst),
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            workers: self.workers as u64,
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
        match id {
            Some(id) => j.u64_field("id", id),
            None => j.null_field("id"),
        };
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
    threads: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Binds, spawns the accept thread and worker pool, and returns
    /// immediately.
    pub fn spawn(cfg: Config) -> std::io::Result<ServeHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));
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
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            addr,
            registry: Registry::new(cfg.registry_cap, cfg.budget, sink.clone()),
            cache: ResultCache::new(cfg.cache_cap),
            sink,
            metrics,
            access: cfg.access_log.map(Mutex::new),
            max_frame: cfg.max_frame,
            max_timeout: cfg.max_timeout,
            workers,
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(Some(tx)),
            connections: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
        });
        let mut threads = Vec::new();
        // Worker pool: shared receiver behind a mutex (std mpsc is
        // single-consumer; the hand-off cost is dwarfed by the search).
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&rx, &shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(listener, &shared)));
        }
        Ok(ServeHandle {
            addr,
            shared,
            threads,
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

    /// Begins graceful shutdown and joins the accept thread and worker
    /// pool (queued queries complete first). Connection threads exit as
    /// their clients disconnect or issue their next request.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.shared.wake_accept();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server shuts down (via a `shutdown` request).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<Job>>>, shared: &Arc<Shared>) {
    loop {
        let mut job = match rx.lock().expect("worker rx lock").recv() {
            Ok(job) => job,
            Err(_) => return, // sender closed: drained, exit
        };
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let result = engine::execute_query(
            &job.entry,
            &shared.cache,
            shared.sink.as_ref(),
            &job.req,
            shared.max_timeout,
            &mut job.trace,
        );
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send((result, job.trace));
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // Checked after every accept: the shutdown wake is a connection
        // (dropped here), as is any client racing the shutdown.
        if shared.shutting_down() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // One request-response per round trip: Nagle + delayed
                // ACK would add ~40ms to every reply.
                stream.set_nodelay(true).ok();
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
/// `Ok(None)` on a clean EOF, `Err(Some(err))` when the line was too
/// long (the rest of the line is consumed so the connection stays
/// usable).
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> std::io::Result<Result<Option<String>, WireError>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let mut byte = [0u8; 1];
        let n = loop {
            match reader.read(&mut byte) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            if buf.is_empty() && !overflow {
                return Ok(Ok(None));
            }
            break;
        }
        if byte[0] == b'\n' {
            break;
        }
        if buf.len() >= max {
            overflow = true;
            buf.clear(); // keep consuming to the newline, discard payload
            continue;
        }
        buf.push(byte[0]);
    }
    if overflow {
        return Ok(Err(WireError::new(
            ErrorKind::TooLarge,
            format!("frame exceeds limit of {max} bytes"),
        )));
    }
    match String::from_utf8(buf) {
        Ok(mut s) => {
            if s.ends_with('\r') {
                s.pop();
            }
            Ok(Ok(Some(s)))
        }
        Err(_) => Ok(Err(WireError::new(
            ErrorKind::Parse,
            "request is not valid UTF-8",
        ))),
    }
}

fn put_id(j: &mut JsonBuf, id: Option<u64>) {
    match id {
        Some(id) => j.u64_field("id", id),
        None => j.null_field("id"),
    };
}

fn flag_response(id: Option<u64>, flag: &str) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true).bool_field(flag, true).end_obj();
    j.finish()
}

fn metrics_response(shared: &Shared, id: Option<u64>, prom: bool) -> String {
    let gauges = shared.scrape_gauges();
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true);
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
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true);
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
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", true)
        .u64_field("system", entry.key)
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
    if shared.shutting_down() {
        let err = WireError::new(ErrorKind::ShuttingDown, "server is draining");
        return Done::err(Method::Register, id, &err);
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

fn handle_query(shared: &Shared, id: Option<u64>, req: QueryReq, trace: &mut RequestTrace) -> Done {
    let method = Method::from_kind(req.kind);
    if shared.shutting_down() {
        let err = WireError::new(ErrorKind::ShuttingDown, "server is draining");
        return Done::err(method, id, &err);
    }
    let system = req.system;
    let Some(entry) = shared.registry.get(system) else {
        let err = WireError::new(
            ErrorKind::UnknownSystem,
            format!("system {system} is not registered"),
        );
        return Done::err(method, id, &err);
    };
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    // The trace travels with the job so worker-side phases (cache,
    // compile, search, serialize) land on this request; it comes back
    // with the reply. `take` leaves a fresh trace behind, immediately
    // overwritten on every path below.
    let job = Job {
        entry,
        req,
        trace: std::mem::take(trace),
        reply: reply_tx,
    };
    shared.queue_depth.fetch_add(1, Ordering::SeqCst);
    let submit = {
        let guard = shared.jobs.lock().expect("jobs lock");
        match &*guard {
            Some(tx) => tx.try_send(job),
            None => Err(TrySendError::Disconnected(job)),
        }
    };
    let err = match submit {
        Ok(()) => match reply_rx.recv() {
            Ok((Ok(out), t)) => {
                *trace = t;
                let response = trace.time(Phase::Serialize, || {
                    proto::encode_query_ok(id, &out.answer, out.cached, out.report.as_ref())
                });
                let mut d = Done::ok(method, response);
                d.cached = out.cached;
                d.cold = !out.cached;
                d.system = Some(system);
                d.fingerprint = out.fingerprint;
                d.report = out.report;
                return d;
            }
            Ok((Err(err), t)) => {
                *trace = t;
                err
            }
            Err(_) => WireError::new(ErrorKind::ShuttingDown, "worker pool stopped"),
        },
        Err(TrySendError::Full(job)) => {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            *trace = job.trace;
            WireError::new(ErrorKind::Overloaded, "admission queue full; retry later")
        }
        Err(TrySendError::Disconnected(job)) => {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            *trace = job.trace;
            WireError::new(ErrorKind::ShuttingDown, "server is draining")
        }
    };
    let mut d = Done::err(method, id, &err);
    d.system = Some(system);
    d
}

fn serve_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        // The trace clock starts once a line has arrived: time blocked
        // on the client is not request time.
        let (line, mut trace) = match read_bounded_line(&mut reader, shared.max_frame)? {
            Ok(None) => return Ok(()), // clean disconnect
            Ok(Some(line)) => (line, RequestTrace::start()),
            Err(err) => {
                let mut trace = RequestTrace::start();
                let done = Done::err(Method::Unknown, None, &err);
                let wres = trace.time(Phase::Write, || writeln!(writer, "{}", done.response));
                shared.observe_and_log(None, &done, &trace);
                wres?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let frame = match trace.time(Phase::Parse, || proto::parse_frame(&line)) {
            Ok(frame) => frame,
            Err(err) => {
                let done = Done::err(Method::Unknown, None, &err);
                let wres = trace.time(Phase::Write, || writeln!(writer, "{}", done.response));
                shared.observe_and_log(None, &done, &trace);
                wres?;
                continue;
            }
        };
        let id = frame.id;
        let done = match frame.req {
            Request::Ping => Done::ok(Method::Ping, flag_response(id, "pong")),
            Request::Metrics { prom } => Done::ok(
                Method::Metrics,
                trace.time(Phase::Serialize, || metrics_response(shared, id, prom)),
            ),
            Request::SlowLog { limit } => Done::ok(
                Method::SlowLog,
                trace.time(Phase::Serialize, || slowlog_response(shared, id, limit)),
            ),
            Request::Shutdown => {
                shared.begin_shutdown();
                Done::ok(Method::Shutdown, flag_response(id, "shutting_down"))
            }
            Request::Register(desc) => handle_register(shared, id, &desc, &mut trace),
            Request::Query(q) => handle_query(shared, id, q, &mut trace),
        };
        let wres = trace.time(Phase::Write, || writeln!(writer, "{}", done.response));
        // Observe after the write so the trace's write phase and total
        // cover the full request. A scrape therefore does not count
        // itself — the mix a test issues is exactly what it reads back.
        shared.observe_and_log(id, &done, &trace);
        if done.method == Method::Shutdown {
            // Only now that the reply is written may the accept thread
            // stop (see the module docs on shutdown ordering).
            shared.wake_accept();
        }
        wres?;
    }
}
