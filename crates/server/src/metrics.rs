//! Server observability: metric families, per-request phase tracing,
//! and the slow-query ring.
//!
//! Everything here is fed from two directions:
//!
//! - **The request loop** times each request's six phases through a
//!   [`RequestTrace`] (parse → cache-lookup → registry/compile → search
//!   → serialize → write) and hands the finished trace to
//!   [`ServerMetrics::observe_request`], which updates the per-method /
//!   per-outcome counters, the cold/warm latency histograms, the
//!   per-phase time accumulators, and the rolled-up
//!   [`QueryReport`] cost counters — and captures a [`SlowEntry`] when
//!   the request ran past the configured threshold.
//! - **The telemetry stream**: a [`MetricsSink`] wraps the Oracle-side
//!   [`Sink`] so compile events ([`QueryEvent::CompileFinish`]),
//!   `Sat(φ)` partition hits/misses, and sparse-row memo traffic roll
//!   up into server-level counters while still forwarding to any
//!   user-configured sink (`--telemetry`).
//!
//! All hot-path state is lock-free ([`sd_core::metrics`]): sharded
//! counters and fixed-bucket log-scale histograms, no floats, no locks
//! on the request path. Quantiles (p50/p90/p95/p99) and gauges
//! (uptime, in-flight, queue depth, worker utilization) are derived at
//! scrape time by the `metrics` protocol method, which renders either
//! structured JSON or a Prometheus text exposition. The slow-query ring
//! is behind a `Mutex`, but is touched only by requests already slower
//! than the threshold.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use sd_core::{Counter, Histogram, JsonBuf, QueryEvent, QueryReport, Sink};

use crate::cache::CacheStats;
use crate::proto::ErrorKind;

/// Protocol methods, as metric label values. `Unknown` covers frames
/// that never parsed far enough to have a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// `ping`.
    Ping,
    /// `register`.
    Register,
    /// `depends`.
    Depends,
    /// `sinks`.
    Sinks,
    /// `sinks_matrix`.
    SinksMatrix,
    /// `stats`.
    Stats,
    /// `metrics`.
    Metrics,
    /// `slowlog`.
    SlowLog,
    /// `shutdown`.
    Shutdown,
    /// Unparsable frame (no method).
    #[default]
    Unknown,
}

/// Number of [`Method`] variants.
pub const METHODS: usize = 10;

impl Method {
    /// Every method, in index order.
    pub const ALL: [Method; METHODS] = [
        Method::Ping,
        Method::Register,
        Method::Depends,
        Method::Sinks,
        Method::SinksMatrix,
        Method::Stats,
        Method::Metrics,
        Method::SlowLog,
        Method::Shutdown,
        Method::Unknown,
    ];

    /// The label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Ping => "ping",
            Method::Register => "register",
            Method::Depends => "depends",
            Method::Sinks => "sinks",
            Method::SinksMatrix => "sinks_matrix",
            Method::Stats => "stats",
            Method::Metrics => "metrics",
            Method::SlowLog => "slowlog",
            Method::Shutdown => "shutdown",
            Method::Unknown => "unknown",
        }
    }

    /// The metric method for a query kind.
    pub fn from_kind(kind: crate::proto::QueryKind) -> Method {
        match kind {
            crate::proto::QueryKind::Depends => Method::Depends,
            crate::proto::QueryKind::Sinks => Method::Sinks,
            crate::proto::QueryKind::SinksMatrix => Method::SinksMatrix,
        }
    }

    fn idx(self) -> usize {
        Method::ALL.iter().position(|m| *m == self).unwrap_or(0)
    }
}

/// Request outcome label values: `"ok"` plus every [`ErrorKind`].
pub const OUTCOMES: [&str; 12] = [
    "ok",
    "parse",
    "protocol",
    "too_large",
    "unknown_method",
    "unknown_system",
    "invalid",
    "timeout",
    "budget",
    "overloaded",
    "shutting_down",
    "internal",
];

fn outcome_idx(outcome: Option<ErrorKind>) -> usize {
    match outcome {
        None => 0,
        Some(ErrorKind::Parse) => 1,
        Some(ErrorKind::Protocol) => 2,
        Some(ErrorKind::TooLarge) => 3,
        Some(ErrorKind::UnknownMethod) => 4,
        Some(ErrorKind::UnknownSystem) => 5,
        Some(ErrorKind::Invalid) => 6,
        Some(ErrorKind::Timeout) => 7,
        Some(ErrorKind::Budget) => 8,
        Some(ErrorKind::Overloaded) => 9,
        Some(ErrorKind::ShuttingDown) => 10,
        Some(ErrorKind::Internal) => 11,
    }
}

/// The label for an outcome.
pub fn outcome_str(outcome: Option<ErrorKind>) -> &'static str {
    OUTCOMES[outcome_idx(outcome)]
}

/// The six request phases a [`RequestTrace`] times, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Frame parsing (JSON → `Frame`).
    Parse,
    /// Result-cache lookup (fingerprint + LRU probe).
    Cache,
    /// Registry build / φ lowering / name resolution.
    Compile,
    /// The pair search itself (`Query::run`).
    Search,
    /// Answer + envelope serialisation.
    Serialize,
    /// Writing the response line to the socket.
    Write,
}

/// Number of phases.
pub const PHASES: usize = 6;

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Parse,
        Phase::Cache,
        Phase::Compile,
        Phase::Search,
        Phase::Serialize,
        Phase::Write,
    ];

    /// The label value (`"parse"`, `"cache"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Cache => "cache",
            Phase::Compile => "compile",
            Phase::Search => "search",
            Phase::Serialize => "serialize",
            Phase::Write => "write",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Cache => 1,
            Phase::Compile => 2,
            Phase::Search => 3,
            Phase::Serialize => 4,
            Phase::Write => 5,
        }
    }
}

/// Per-request phase timings. Created when the request line arrives,
/// carried through the worker pool (it travels inside the job), and
/// finalised after the response write. Phases not exercised by a
/// request (e.g. `search` for `ping`) stay 0 — the breakdown is always
/// complete, never partial.
#[derive(Debug)]
pub struct RequestTrace {
    started: Instant,
    phase_ns: [u64; PHASES],
}

impl Default for RequestTrace {
    fn default() -> RequestTrace {
        RequestTrace::start()
    }
}

impl RequestTrace {
    /// Starts the request clock.
    pub fn start() -> RequestTrace {
        RequestTrace {
            started: Instant::now(),
            phase_ns: [0; PHASES],
        }
    }

    /// Runs `f`, attributing its wall time to `phase` (accumulating —
    /// a phase may be entered more than once).
    #[inline]
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(phase, t.elapsed().as_nanos() as u64);
        out
    }

    /// Attributes the time since `since` to `phase` and returns the
    /// clock read that ended it, so back-to-back phases share a read.
    #[inline]
    pub fn lap(&mut self, phase: Phase, since: Instant) -> Instant {
        let now = Instant::now();
        self.add(phase, (now - since).as_nanos() as u64);
        now
    }

    /// Adds externally measured nanoseconds to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.phase_ns[phase.idx()] += ns;
    }

    /// Nanoseconds attributed to `phase` so far.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.idx()]
    }

    /// Total wall nanoseconds since the request line arrived.
    pub fn total_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// One captured slow request: identity, outcome, the full phase
/// breakdown, and the query's cost report when a search ran.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Monotone capture sequence number.
    pub seq: u64,
    /// Capture time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Request method.
    pub method: Method,
    /// Request correlation id, when present.
    pub id: Option<u64>,
    /// Target system registry key (content digest), for query methods.
    pub system: Option<u64>,
    /// Canonical query fingerprint, when fingerprintable.
    pub fingerprint: Option<u64>,
    /// `None` = ok; otherwise the error kind.
    pub outcome: Option<ErrorKind>,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Total request wall nanoseconds.
    pub total_ns: u64,
    /// Per-phase nanoseconds, indexed like [`Phase::ALL`].
    pub phase_ns: [u64; PHASES],
    /// The search cost report, when a search ran.
    pub report: Option<QueryReport>,
}

impl SlowEntry {
    /// One self-contained JSON object (no trailing newline): the
    /// `slowlog` wire entries and the access-log `slow_query` lines
    /// share this encoding.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .str_field("event", "slow_query")
            .u64_field("seq", self.seq)
            .u64_field("unix_ms", self.unix_ms)
            .str_field("method", self.method.as_str());
        match self.id {
            Some(id) => j.u64_field("id", id),
            None => j.null_field("id"),
        };
        match self.system {
            Some(k) => j.u64_field("system", k),
            None => j.null_field("system"),
        };
        match self.fingerprint {
            Some(fp) => j.u64_field("fingerprint", fp),
            None => j.null_field("fingerprint"),
        };
        j.str_field("outcome", outcome_str(self.outcome))
            .bool_field("cached", self.cached)
            .u64_field("total_ns", self.total_ns);
        j.begin_obj_field("phases");
        for p in Phase::ALL {
            j.u64_field(p.as_str(), self.phase_ns[p.idx()]);
        }
        j.end_obj();
        match &self.report {
            Some(r) => {
                j.begin_obj_field("report");
                r.json_fields(&mut j);
                j.end_obj();
            }
            None => {
                j.null_field("report");
            }
        }
        j.end_obj();
        j.finish()
    }
}

/// The slow-query ring: the last `cap` entries, plus a total-captured
/// counter that keeps counting when the ring wraps.
struct SlowLog {
    ring: Mutex<std::collections::VecDeque<SlowEntry>>,
    cap: usize,
    seq: AtomicU64,
    captured: Counter,
}

impl SlowLog {
    fn new(cap: usize) -> SlowLog {
        SlowLog {
            ring: Mutex::new(std::collections::VecDeque::with_capacity(cap.min(1024))),
            cap,
            seq: AtomicU64::new(0),
            captured: Counter::new(),
        }
    }

    fn push(&self, mut entry: SlowEntry) -> SlowEntry {
        entry.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.captured.inc();
        if self.cap > 0 {
            let mut ring = self.ring.lock().expect("slowlog lock");
            if ring.len() >= self.cap {
                ring.pop_front();
            }
            ring.push_back(entry.clone());
        }
        entry
    }

    /// The most recent `limit` entries, oldest first.
    fn tail(&self, limit: usize) -> Vec<SlowEntry> {
        let ring = self.ring.lock().expect("slowlog lock");
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }
}

/// Everything [`ServerMetrics::observe_request`] needs to know about a
/// finished request beyond its timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestObs<'a> {
    /// Request method (defaults to [`Method::Unknown`]).
    pub method: Method,
    /// Correlation id.
    pub id: Option<u64>,
    /// `None` = ok.
    pub outcome: Option<ErrorKind>,
    /// Result-cache hit?
    pub cached: bool,
    /// Cold path? (`true` for searches and fresh compiles; `false` for
    /// cache replays and re-registrations.) Labels the histogram.
    pub cold: bool,
    /// Target system key for query/register methods.
    pub system: Option<u64>,
    /// Canonical query fingerprint.
    pub fingerprint: Option<u64>,
    /// The search cost report, when a search ran.
    pub report: Option<&'a QueryReport>,
}

/// Engine label values for `sd_engine_runs_total`.
const ENGINES: [&str; 5] = [
    "interpreted",
    "compiled-dense",
    "compiled-sparse",
    "none",
    "other",
];

fn engine_idx(engine: &str) -> usize {
    ENGINES.iter().position(|e| *e == engine).unwrap_or(4)
}

/// The server's metric families. One instance per server, shared by
/// every connection/worker thread; all recording is lock-free. When
/// constructed disabled (`--no-metrics`, the A/B bench baseline) every
/// recording call returns immediately.
pub struct ServerMetrics {
    enabled: bool,
    started: Instant,
    slow_ns: u64,
    /// requests_total[method][outcome].
    requests: Vec<Vec<Counter>>,
    /// duration histograms\[method\]\[cold as usize\] (ok requests only).
    durations: Vec<[Histogram; 2]>,
    /// phase_ns_total[method][phase].
    phases: Vec<Vec<Counter>>,
    /// Rolled-up QueryReport costs, per method.
    pair_expansions: Vec<Counter>,
    visited_pairs: Vec<Counter>,
    bfs_levels: Vec<Counter>,
    rows_reused: Vec<Counter>,
    rows_materialized: Vec<Counter>,
    /// Searches per engine kind.
    engine_runs: Vec<Counter>,
    // Oracle-side rollups fed by the telemetry sink.
    partition_hits: Counter,
    partition_misses: Counter,
    memo_rows_reused: Counter,
    memo_rows_materialized: Counter,
    compiles: Counter,
    compile_ns: Counter,
    /// Access-log lines dropped rather than blocking the request path.
    access_dropped: Counter,
    slow: SlowLog,
}

impl ServerMetrics {
    /// A metrics registry. `slow_ms` is the slow-query threshold,
    /// `slowlog_cap` the ring size; `enabled = false` turns every
    /// recording call into a no-op (scrapes then report zeros).
    pub fn new(enabled: bool, slow_ms: u64, slowlog_cap: usize) -> ServerMetrics {
        let counters = |n: usize| (0..n).map(|_| Counter::new()).collect::<Vec<_>>();
        ServerMetrics {
            enabled,
            started: Instant::now(),
            slow_ns: slow_ms.saturating_mul(1_000_000),
            requests: (0..METHODS).map(|_| counters(OUTCOMES.len())).collect(),
            durations: (0..METHODS)
                .map(|_| [Histogram::new(), Histogram::new()])
                .collect(),
            phases: (0..METHODS).map(|_| counters(PHASES)).collect(),
            pair_expansions: counters(METHODS),
            visited_pairs: counters(METHODS),
            bfs_levels: counters(METHODS),
            rows_reused: counters(METHODS),
            rows_materialized: counters(METHODS),
            engine_runs: counters(ENGINES.len()),
            partition_hits: Counter::new(),
            partition_misses: Counter::new(),
            memo_rows_reused: Counter::new(),
            memo_rows_materialized: Counter::new(),
            compiles: Counter::new(),
            compile_ns: Counter::new(),
            access_dropped: Counter::new(),
            slow: SlowLog::new(slowlog_cap),
        }
    }

    /// Whether recording is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one access-log line dropped (writer contended or
    /// errored).
    pub fn access_log_dropped(&self, n: u64) {
        self.access_dropped.add(n);
    }

    /// Folds a finished request into every family. Returns the
    /// serialised slow-query line when the request crossed the
    /// threshold (the caller appends it to the access log stream).
    pub fn observe_request(&self, obs: &RequestObs, trace: &RequestTrace) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let m = obs.method.idx();
        let total_ns = trace.total_ns();
        self.requests[m][outcome_idx(obs.outcome)].inc();
        if obs.outcome.is_none() {
            self.durations[m][usize::from(obs.cold)].record(total_ns);
        }
        for p in Phase::ALL {
            let ns = trace.phase_ns(p);
            if ns != 0 {
                self.phases[m][p.idx()].add(ns);
            }
        }
        if let Some(r) = obs.report {
            self.pair_expansions[m].add(r.pair_expansions);
            self.visited_pairs[m].add(r.visited_pairs);
            self.bfs_levels[m].add(u64::from(r.levels));
            self.rows_reused[m].add(r.rows_reused);
            self.rows_materialized[m].add(r.rows_materialized);
            self.engine_runs[engine_idx(r.engine)].inc();
        }
        if total_ns >= self.slow_ns {
            let unix_ms = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64);
            let entry = self.slow.push(SlowEntry {
                seq: 0,
                unix_ms,
                method: obs.method,
                id: obs.id,
                system: obs.system,
                fingerprint: obs.fingerprint,
                outcome: obs.outcome,
                cached: obs.cached,
                total_ns,
                phase_ns: std::array::from_fn(|i| trace.phase_ns(Phase::ALL[i])),
                report: obs.report.copied(),
            });
            return Some(entry.to_json());
        }
        None
    }

    /// The most recent `limit` slow entries, oldest first.
    pub fn slowlog_tail(&self, limit: usize) -> Vec<SlowEntry> {
        self.slow.tail(limit)
    }

    /// Duration snapshot for `(method, cold)` — the bench reads server-
    /// side percentiles through this.
    pub fn duration_snapshot(&self, method: Method, cold: bool) -> sd_core::HistogramSnapshot {
        self.durations[method.idx()][usize::from(cold)].snapshot()
    }

    /// requests_total for `(method, outcome)`.
    pub fn requests_total(&self, method: Method, outcome: Option<ErrorKind>) -> u64 {
        self.requests[method.idx()][outcome_idx(outcome)].get()
    }

    /// Writes the metric families as JSON fields into an open object.
    /// `g` carries the scrape-time gauges the metrics registry does not
    /// own (queue depth, cache/registry state, …).
    pub fn json_fields(&self, g: &ScrapeGauges, j: &mut JsonBuf) {
        j.bool_field("enabled", self.enabled)
            .u64_field("uptime_s", self.uptime_s())
            .u64_field("slow_ms", self.slow_ns / 1_000_000);
        j.begin_obj_field("gauges")
            .u64_field("connections_total", g.connections_total)
            .u64_field("connections_open", g.connections_open)
            .u64_field("inflight", g.inflight)
            .u64_field("queue_depth", g.queue_depth)
            .u64_field("workers", g.workers)
            .u64_field("workers_busy", g.inflight)
            .end_obj();
        j.begin_obj_field("requests");
        for m in Method::ALL {
            let any = (0..OUTCOMES.len()).any(|o| self.requests[m.idx()][o].get() != 0);
            if !any {
                continue;
            }
            j.begin_obj_field(m.as_str());
            for (o, label) in OUTCOMES.iter().enumerate() {
                let n = self.requests[m.idx()][o].get();
                if n != 0 {
                    j.u64_field(label, n);
                }
            }
            j.end_obj();
        }
        j.end_obj();
        j.begin_obj_field("durations");
        for m in Method::ALL {
            let snaps = [
                self.durations[m.idx()][1].snapshot(),
                self.durations[m.idx()][0].snapshot(),
            ];
            if snaps.iter().all(|s| s.count == 0) {
                continue;
            }
            j.begin_obj_field(m.as_str());
            for (label, snap) in ["cold", "warm"].iter().zip(&snaps) {
                if snap.count == 0 {
                    continue;
                }
                j.begin_obj_field(label)
                    .u64_field("count", snap.count)
                    .u64_field("sum_ns", snap.sum)
                    .u64_field("p50_ns", snap.quantile(50, 100))
                    .u64_field("p90_ns", snap.quantile(90, 100))
                    .u64_field("p95_ns", snap.quantile(95, 100))
                    .u64_field("p99_ns", snap.quantile(99, 100));
                j.begin_arr_field("buckets");
                for (upper, n) in &snap.buckets {
                    j.begin_arr_elem().u64_elem(*upper).u64_elem(*n).end_arr();
                }
                j.end_arr();
                j.end_obj();
            }
            j.end_obj();
        }
        j.end_obj();
        j.begin_obj_field("phase_ns");
        for m in Method::ALL {
            let any = (0..PHASES).any(|p| self.phases[m.idx()][p].get() != 0);
            if !any {
                continue;
            }
            j.begin_obj_field(m.as_str());
            for p in Phase::ALL {
                j.u64_field(p.as_str(), self.phases[m.idx()][p.idx()].get());
            }
            j.end_obj();
        }
        j.end_obj();
        j.begin_obj_field("costs");
        for m in Method::ALL {
            let i = m.idx();
            if self.pair_expansions[i].get() == 0 && self.visited_pairs[i].get() == 0 {
                continue;
            }
            j.begin_obj_field(m.as_str())
                .u64_field("pair_expansions", self.pair_expansions[i].get())
                .u64_field("visited_pairs", self.visited_pairs[i].get())
                .u64_field("bfs_levels", self.bfs_levels[i].get())
                .u64_field("rows_reused", self.rows_reused[i].get())
                .u64_field("rows_materialized", self.rows_materialized[i].get())
                .end_obj();
        }
        j.end_obj();
        j.begin_obj_field("engines");
        for (i, label) in ENGINES.iter().enumerate() {
            let n = self.engine_runs[i].get();
            if n != 0 {
                j.u64_field(label, n);
            }
        }
        j.end_obj();
        j.begin_obj_field("oracle")
            .u64_field("partition_hits", self.partition_hits.get())
            .u64_field("partition_misses", self.partition_misses.get())
            .u64_field("memo_rows_reused", self.memo_rows_reused.get())
            .u64_field("memo_rows_materialized", self.memo_rows_materialized.get())
            .u64_field("compiles", self.compiles.get())
            .u64_field("compile_ns", self.compile_ns.get())
            .end_obj();
        j.begin_obj_field("cache")
            .u64_field("hits", g.cache.hits)
            .u64_field("misses", g.cache.misses)
            .u64_field("insertions", g.cache.insertions)
            .u64_field("evictions", g.cache.evictions)
            .u64_field("entries", g.cache.entries)
            .u64_field("capacity", g.cache.capacity)
            .end_obj();
        j.begin_obj_field("registry")
            .u64_field("systems", g.registry_systems)
            .u64_field("capacity", g.registry_cap)
            .end_obj();
        j.u64_field("access_log_dropped", self.access_dropped.get());
        j.begin_obj_field("slowlog")
            .u64_field("captured", self.slow.captured.get())
            .u64_field("capacity", self.slow.cap as u64)
            .end_obj();
    }

    /// Renders the Prometheus text exposition (counter/gauge/histogram
    /// families; histograms with cumulative `le` buckets over the
    /// non-empty buckets plus `+Inf`, and derived p50/p90/p99 gauges).
    pub fn render_prom(&self, g: &ScrapeGauges) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "# HELP sd_requests_total Requests handled, by method and outcome.\n\
             # TYPE sd_requests_total counter"
        );
        for m in Method::ALL {
            for (o, label) in OUTCOMES.iter().enumerate() {
                let n = self.requests[m.idx()][o].get();
                if n != 0 {
                    let _ = writeln!(
                        out,
                        "sd_requests_total{{method=\"{}\",outcome=\"{label}\"}} {n}",
                        m.as_str()
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP sd_request_duration_ns Request wall time, successful requests only.\n\
             # TYPE sd_request_duration_ns histogram"
        );
        let mut quantile_lines = String::new();
        for m in Method::ALL {
            for (cold, label) in [(1usize, "true"), (0, "false")] {
                let snap = self.durations[m.idx()][cold].snapshot();
                if snap.count == 0 {
                    continue;
                }
                let labels = format!("method=\"{}\",cold=\"{label}\"", m.as_str());
                let mut cum = 0u64;
                for (upper, n) in &snap.buckets {
                    cum += n;
                    let _ = writeln!(
                        out,
                        "sd_request_duration_ns_bucket{{{labels},le=\"{upper}\"}} {cum}"
                    );
                }
                let _ = writeln!(
                    out,
                    "sd_request_duration_ns_bucket{{{labels},le=\"+Inf\"}} {}",
                    cum
                );
                let _ = writeln!(out, "sd_request_duration_ns_sum{{{labels}}} {}", snap.sum);
                let _ = writeln!(
                    out,
                    "sd_request_duration_ns_count{{{labels}}} {}",
                    snap.count
                );
                for (q, num) in [("0.5", 50u64), ("0.9", 90), ("0.99", 99)] {
                    let _ = writeln!(
                        quantile_lines,
                        "sd_request_duration_quantile_ns{{{labels},quantile=\"{q}\"}} {}",
                        snap.quantile(num, 100)
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP sd_request_duration_quantile_ns Derived latency quantiles (p50/p90/p99).\n\
             # TYPE sd_request_duration_quantile_ns gauge"
        );
        out.push_str(&quantile_lines);
        let _ = writeln!(
            out,
            "# HELP sd_request_phase_ns_total Cumulative per-phase request time.\n\
             # TYPE sd_request_phase_ns_total counter"
        );
        for m in Method::ALL {
            for p in Phase::ALL {
                let n = self.phases[m.idx()][p.idx()].get();
                if n != 0 {
                    let _ = writeln!(
                        out,
                        "sd_request_phase_ns_total{{method=\"{}\",phase=\"{}\"}} {n}",
                        m.as_str(),
                        p.as_str()
                    );
                }
            }
        }
        for (family, help, values) in [
            (
                "sd_pair_expansions_total",
                "Pair expansions attempted by served searches.",
                &self.pair_expansions,
            ),
            (
                "sd_visited_pairs_total",
                "Distinct canonical state pairs discovered by served searches.",
                &self.visited_pairs,
            ),
            (
                "sd_bfs_levels_total",
                "BFS levels expanded by served searches.",
                &self.bfs_levels,
            ),
            (
                "sd_memo_rows_reused_total",
                "Sparse successor rows served from the memo, per method.",
                &self.rows_reused,
            ),
            (
                "sd_memo_rows_materialized_total",
                "Sparse successor rows interpreted, per method.",
                &self.rows_materialized,
            ),
        ] {
            let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} counter");
            for m in Method::ALL {
                let n = values[m.idx()].get();
                if n != 0 {
                    let _ = writeln!(out, "{family}{{method=\"{}\"}} {n}", m.as_str());
                }
            }
        }
        let _ = writeln!(
            out,
            "# HELP sd_engine_runs_total Searches run, by engine kind.\n\
             # TYPE sd_engine_runs_total counter"
        );
        for (i, label) in ENGINES.iter().enumerate() {
            let n = self.engine_runs[i].get();
            if n != 0 {
                let _ = writeln!(out, "sd_engine_runs_total{{engine=\"{label}\"}} {n}");
            }
        }
        for (name, help, v) in [
            (
                "sd_partition_hits_total",
                "Sat(phi) enumerations served from the Oracle intern cache.",
                self.partition_hits.get(),
            ),
            (
                "sd_partition_misses_total",
                "Sat(phi) enumerations computed fresh.",
                self.partition_misses.get(),
            ),
            (
                "sd_compiles_total",
                "Successor-table compiles.",
                self.compiles.get(),
            ),
            (
                "sd_compile_ns_total",
                "Nanoseconds spent compiling successor tables.",
                self.compile_ns.get(),
            ),
            ("sd_cache_hits_total", "Result-cache hits.", g.cache.hits),
            (
                "sd_cache_misses_total",
                "Result-cache misses.",
                g.cache.misses,
            ),
            (
                "sd_cache_insertions_total",
                "Result-cache insertions.",
                g.cache.insertions,
            ),
            (
                "sd_cache_evictions_total",
                "Result-cache evictions.",
                g.cache.evictions,
            ),
            (
                "sd_connections_total",
                "TCP connections accepted.",
                g.connections_total,
            ),
            (
                "sd_access_log_dropped_total",
                "Access-log lines dropped instead of blocking requests.",
                self.access_dropped.get(),
            ),
            (
                "sd_slow_queries_total",
                "Requests slower than the slow-query threshold.",
                self.slow.captured.get(),
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, help, v) in [
            ("sd_uptime_seconds", "Seconds since start.", self.uptime_s()),
            (
                "sd_connections_open",
                "Currently open connections.",
                g.connections_open,
            ),
            (
                "sd_inflight_queries",
                "Queries executing in the worker pool.",
                g.inflight,
            ),
            (
                "sd_queue_depth",
                "Jobs waiting in the admission queue.",
                g.queue_depth,
            ),
            ("sd_workers", "Worker pool size.", g.workers),
            (
                "sd_workers_busy",
                "Workers currently executing a query.",
                g.inflight,
            ),
            ("sd_cache_entries", "Result-cache entries.", g.cache.entries),
            (
                "sd_cache_capacity",
                "Result-cache capacity.",
                g.cache.capacity,
            ),
            (
                "sd_registry_systems",
                "Registered systems.",
                g.registry_systems,
            ),
            ("sd_registry_capacity", "Registry capacity.", g.registry_cap),
            (
                "sd_slowlog_capacity",
                "Slow-query ring capacity.",
                self.slow.cap as u64,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        out
    }
}

/// Scrape-time gauge values owned by the server loop rather than the
/// metrics registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrapeGauges {
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Currently open connections.
    pub connections_open: u64,
    /// Queries executing right now.
    pub inflight: u64,
    /// Jobs waiting in the admission queue.
    pub queue_depth: u64,
    /// Worker pool size.
    pub workers: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Registered systems.
    pub registry_systems: u64,
    /// Registry capacity.
    pub registry_cap: u64,
}

/// A [`Sink`] that rolls Oracle telemetry into server metric families
/// and forwards every event to an optional inner sink (`--telemetry`).
pub struct MetricsSink {
    metrics: Arc<ServerMetrics>,
    inner: Option<Arc<dyn Sink>>,
}

impl MetricsSink {
    /// Wraps `metrics`, chaining to `inner` when present.
    pub fn new(metrics: Arc<ServerMetrics>, inner: Option<Arc<dyn Sink>>) -> MetricsSink {
        MetricsSink { metrics, inner }
    }
}

impl Sink for MetricsSink {
    fn record(&self, event: &QueryEvent) {
        match *event {
            QueryEvent::CompileFinish { wall_ns, .. } => {
                self.metrics.compiles.inc();
                self.metrics.compile_ns.add(wall_ns);
            }
            QueryEvent::PartitionHit { .. } => self.metrics.partition_hits.inc(),
            QueryEvent::PartitionMiss { .. } => self.metrics.partition_misses.inc(),
            QueryEvent::MemoRows {
                reused,
                materialized,
            } => {
                self.metrics.memo_rows_reused.add(reused);
                self.metrics.memo_rows_materialized.add(materialized);
            }
            _ => {}
        }
        if let Some(inner) = &self.inner {
            inner.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_rolls_up_counters_histograms_and_phases() {
        let m = ServerMetrics::new(true, 1_000_000, 8); // slow_ms huge: nothing slow
        let mut trace = RequestTrace::start();
        trace.add(Phase::Parse, 100);
        trace.add(Phase::Search, 5_000);
        let report = QueryReport {
            engine: "compiled-dense",
            wall_ns: 5_000,
            visited_pairs: 10,
            pair_expansions: 40,
            levels: 3,
            partition_cached: false,
            fresh_compile: false,
            rows_reused: 0,
            rows_materialized: 0,
        };
        let obs = RequestObs {
            method: Method::Depends,
            cold: true,
            report: Some(&report),
            ..RequestObs::default()
        };
        assert!(m.observe_request(&obs, &trace).is_none());
        assert_eq!(m.requests_total(Method::Depends, None), 1);
        assert_eq!(m.duration_snapshot(Method::Depends, true).count, 1);
        assert_eq!(m.duration_snapshot(Method::Depends, false).count, 0);
        assert_eq!(m.pair_expansions[Method::Depends.idx()].get(), 40);
        assert_eq!(m.engine_runs[1].get(), 1);
    }

    #[test]
    fn slow_threshold_zero_captures_everything_with_full_phases() {
        let m = ServerMetrics::new(true, 0, 4);
        let trace = RequestTrace::start();
        let obs = RequestObs {
            method: Method::Ping,
            id: Some(7),
            ..RequestObs::default()
        };
        let line = m.observe_request(&obs, &trace).expect("slow line");
        assert!(line.contains(r#""event":"slow_query""#), "{line}");
        for p in Phase::ALL {
            assert!(line.contains(&format!(r#""{}":"#, p.as_str())), "{line}");
        }
        let tail = m.slowlog_tail(10);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].id, Some(7));
    }

    #[test]
    fn slowlog_ring_keeps_the_most_recent() {
        let m = ServerMetrics::new(true, 0, 2);
        for i in 0..5 {
            let obs = RequestObs {
                method: Method::Ping,
                id: Some(i),
                ..RequestObs::default()
            };
            m.observe_request(&obs, &RequestTrace::start());
        }
        let tail = m.slowlog_tail(10);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].id, Some(3));
        assert_eq!(tail[1].id, Some(4));
        assert_eq!(tail[1].seq, 4);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = ServerMetrics::new(false, 0, 4);
        let obs = RequestObs::default();
        assert!(m.observe_request(&obs, &RequestTrace::start()).is_none());
        assert_eq!(m.requests_total(Method::Unknown, None), 0);
        assert!(m.slowlog_tail(10).is_empty());
    }

    #[test]
    fn prom_exposition_has_families_and_cumulative_buckets() {
        let m = ServerMetrics::new(true, 1_000_000, 8);
        let mut trace = RequestTrace::start();
        trace.add(Phase::Write, 10);
        for _ in 0..3 {
            let obs = RequestObs {
                method: Method::Sinks,
                cold: false,
                ..RequestObs::default()
            };
            m.observe_request(&obs, &trace);
        }
        let g = ScrapeGauges {
            connections_total: 2,
            workers: 4,
            ..ScrapeGauges::default()
        };
        let prom = m.render_prom(&g);
        assert!(prom.contains("# TYPE sd_requests_total counter"), "{prom}");
        assert!(
            prom.contains(r#"sd_requests_total{method="sinks",outcome="ok"} 3"#),
            "{prom}"
        );
        assert!(prom.contains(r#"cold="false",le="+Inf"} 3"#), "{prom}");
        assert!(prom.contains("sd_request_duration_quantile_ns{"), "{prom}");
        assert!(prom.contains("sd_workers 4"), "{prom}");
        // Every line is either a comment or `name{labels} value`.
        for line in prom.lines() {
            assert!(line.starts_with('#') || line.starts_with("sd_"), "{line}");
        }
    }

    #[test]
    fn metrics_sink_rolls_up_compile_and_partition_events() {
        let m = Arc::new(ServerMetrics::new(true, 1_000_000, 8));
        let sink = MetricsSink::new(Arc::clone(&m), None);
        sink.record(&QueryEvent::CompileFinish {
            kind: "compiled-dense",
            wall_ns: 1234,
        });
        sink.record(&QueryEvent::PartitionMiss { states: 4 });
        sink.record(&QueryEvent::PartitionHit { states: 4 });
        sink.record(&QueryEvent::MemoRows {
            reused: 5,
            materialized: 2,
        });
        assert_eq!(m.compiles.get(), 1);
        assert_eq!(m.compile_ns.get(), 1234);
        assert_eq!(m.partition_hits.get(), 1);
        assert_eq!(m.partition_misses.get(), 1);
        assert_eq!(m.memo_rows_reused.get(), 5);
        assert_eq!(m.memo_rows_materialized.get(), 2);
    }
}
