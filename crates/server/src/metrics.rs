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
//! (uptime, in-flight, queue depth, slot utilization) are derived at
//! scrape time by the `metrics` protocol method, which renders either
//! structured JSON or a Prometheus text exposition. Both formats are
//! written from one table, `FAMILIES`: each row defines a family once
//! (JSON place, Prometheus name and HELP, kind, labels, reader). The
//! slow-query ring is behind a `Mutex`, but is touched only by requests
//! already slower than the threshold.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use sd_core::{Counter, Histogram, HistogramSnapshot, JsonBuf, QueryEvent, QueryReport, Sink};

use crate::cache::CacheStats;
use crate::proto::ErrorKind;

/// Protocol methods: the wire `method` field and the metric label
/// value. `Unknown` covers frames that never parsed far enough to have
/// a method; no frame parses to it.
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
pub const METHODS: usize = 9;

/// Method names, indexed like [`Method::ALL`]: the only spelling of
/// each, read by the frame parser and encoder and by the metric labels.
const METHOD_NAMES: [&str; METHODS] = [
    "ping",
    "register",
    "depends",
    "sinks",
    "sinks_matrix",
    "metrics",
    "slowlog",
    "shutdown",
    "unknown",
];

impl Method {
    /// Every method, in index order.
    pub const ALL: [Method; METHODS] = [
        Method::Ping,
        Method::Register,
        Method::Depends,
        Method::Sinks,
        Method::SinksMatrix,
        Method::Metrics,
        Method::SlowLog,
        Method::Shutdown,
        Method::Unknown,
    ];

    /// The wire name, which is also the label value.
    pub fn as_str(self) -> &'static str {
        METHOD_NAMES[self.idx()]
    }

    /// The method named `name`, if any.
    pub(crate) fn from_name(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.as_str() == name)
    }

    /// The metric method for a query kind.
    pub fn from_kind(kind: crate::proto::QueryKind) -> Method {
        match kind {
            crate::proto::QueryKind::Depends => Method::Depends,
            crate::proto::QueryKind::Sinks => Method::Sinks,
            crate::proto::QueryKind::SinksMatrix => Method::SinksMatrix,
        }
    }

    /// The position in [`Method::ALL`]: variants are declared in that
    /// order, so this is the discriminant.
    fn idx(self) -> usize {
        self as usize
    }
}

/// Request outcome label values: `"ok"`, then every [`ErrorKind`] in
/// [`ErrorKind::ALL`] order.
pub const OUTCOMES: [&str; 12] = {
    let mut out = ["ok"; 12];
    let mut i = 0;
    while i < ErrorKind::ALL.len() {
        out[i + 1] = ErrorKind::ALL[i].as_str();
        i += 1;
    }
    out
};

/// The index into [`OUTCOMES`]: `ErrorKind` variants are declared in
/// [`ErrorKind::ALL`] order.
fn outcome_idx(outcome: Option<ErrorKind>) -> usize {
    outcome.map_or(0, |k| k as usize + 1)
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

/// Phase label values, indexed like [`Phase::ALL`].
const PHASE_NAMES: [&str; PHASES] = ["parse", "cache", "compile", "search", "serialize", "write"];

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
        PHASE_NAMES[self.idx()]
    }

    /// The position in [`Phase::ALL`] (the discriminant).
    fn idx(self) -> usize {
        self as usize
    }
}

/// Per-request phase timings. Created when the request line arrives,
/// filled in on the connection thread that serves the request, and
/// finalised after the response write. Phases not exercised by a
/// request (e.g. `search` for `ping`) stay 0 — the breakdown is always
/// complete, never partial.
#[derive(Debug)]
pub struct RequestTrace {
    started: Instant,
    phase_ns: [u64; PHASES],
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
const ENGINES: [&str; 6] = [
    "interpreted",
    "compiled-dense",
    "compiled-sparse",
    "cone",
    "none",
    "other",
];

fn engine_idx(engine: &str) -> usize {
    ENGINES
        .iter()
        .position(|e| *e == engine)
        .unwrap_or(ENGINES.len() - 1)
}

/// The server's metric families. One instance per server, shared by
/// every connection thread; all recording is lock-free. When
/// constructed disabled (`--no-metrics`, the overhead A/B baseline) every
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

    /// Duration snapshot for `(method, cold)`.
    pub fn duration_snapshot(&self, method: Method, cold: bool) -> sd_core::HistogramSnapshot {
        self.durations[method.idx()][usize::from(cold)].snapshot()
    }

    /// requests_total for `(method, outcome)`.
    pub fn requests_total(&self, method: Method, outcome: Option<ErrorKind>) -> u64 {
        self.requests[method.idx()][outcome_idx(outcome)].get()
    }

    /// Writes each `FAMILIES` group, in order, as a JSON object field
    /// into an open object (the top-level group writes its fields
    /// directly). `g` carries the scrape-time gauges the registry does
    /// not own (queue depth, cache/registry state, …).
    pub fn json_fields(&self, g: &ScrapeGauges, j: &mut JsonBuf) {
        for &(group, families) in &FAMILIES {
            if !group.is_empty() {
                j.begin_obj_field(group);
            }
            let f = &families[0];
            // The cells along `d`: a histogram cell as an object, phases
            // whole (a breakdown should visibly sum), others when nonzero.
            let cells = |j: &mut JsonBuf, d: &Dim, cell: &dyn Fn(usize) -> Cell| {
                for (c, key) in d.keys.iter().enumerate() {
                    let v = f.value(self, g, cell(c));
                    if let Kind::Histogram(read) = f.kind {
                        if v != 0 {
                            j.begin_obj_field(key);
                            json_histogram(j, &read(self, cell(c)).snapshot());
                            j.end_obj();
                        }
                    } else if v != 0 || *d == Dim::PHASE {
                        j.u64_field(key, v);
                    }
                }
            };
            match *f.labels {
                [] => {
                    for f in families {
                        let Json::Key(k) = f.json else { continue };
                        match (f.kind, f.value(self, g, [0, 0])) {
                            (Kind::Flag(_), v) => j.bool_field(k, v != 0),
                            (_, v) => j.u64_field(k, v),
                        };
                    }
                }
                // Method-labelled families are the columns of one object
                // per method, written when a gate column is nonzero.
                [Dim::METHOD] => {
                    for (mi, method) in METHOD_NAMES.iter().enumerate() {
                        let gate = |f: &Family| {
                            matches!(f.json, Json::Gate(_)) && f.value(self, g, [mi, 0]) != 0
                        };
                        if families.iter().any(gate) {
                            j.begin_obj_field(method);
                            for f in families {
                                if let Json::Key(k) | Json::Gate(k) = f.json {
                                    j.u64_field(k, f.value(self, g, [mi, 0]));
                                }
                            }
                            j.end_obj();
                        }
                    }
                }
                [Dim::METHOD, ref d] => {
                    for (mi, method) in METHOD_NAMES.iter().enumerate() {
                        if (0..d.values.len()).any(|c| f.value(self, g, [mi, c]) != 0) {
                            j.begin_obj_field(method);
                            cells(j, d, &|c| [mi, c]);
                            j.end_obj();
                        }
                    }
                }
                [ref d] => cells(j, d, &|c| [c, 0]),
                _ => unreachable!("families have at most two label dimensions"),
            }
            if !group.is_empty() {
                j.end_obj();
            }
        }
    }

    /// Renders the Prometheus text exposition: for each `FAMILIES` row
    /// with a Prometheus name, its `# HELP`/`# TYPE` header and samples.
    pub fn render_prom(&self, g: &ScrapeGauges) -> String {
        let mut out = String::with_capacity(4096);
        for f in FAMILIES.iter().flat_map(|(_, families)| families.iter()) {
            let Some((name, help)) = f.prom else { continue };
            let kind = match f.kind {
                Kind::Counter(_) => "counter",
                Kind::Histogram(_) => "histogram",
                Kind::Gauge(_) | Kind::Flag(_) | Kind::Quantiles(_) => "gauge",
            };
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            for cell in f.cells() {
                let (labels, v) = (f.label_text(cell), f.value(self, g, cell));
                // An unlabelled family always writes its sample; a
                // labelled cell only when nonzero.
                if v == 0 && !labels.is_empty() {
                    continue;
                }
                let _ = match f.kind {
                    Kind::Histogram(read) | Kind::Quantiles(read) => {
                        f.prom_histogram(&mut out, &labels, &read(self, cell).snapshot())
                    }
                    _ if labels.is_empty() => writeln!(out, "{name} {v}"),
                    _ => writeln!(out, "{name}{{{labels}}} {v}"),
                };
            }
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
    /// Queries holding an admission slot right now.
    pub inflight: u64,
    /// Queries waiting for an admission slot.
    pub queue_depth: u64,
    /// Admission slots: how many queries may execute at once.
    pub workers: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Registered systems.
    pub registry_systems: u64,
    /// Registry capacity.
    pub registry_cap: u64,
}

/// One label cell: an index into each of a family's label dimensions.
type Cell = [usize; 2];

/// A label dimension: the Prometheus label name and values, and the
/// JSON keys of the same cells.
#[derive(Debug, PartialEq, Eq)]
struct Dim {
    name: &'static str,
    values: &'static [&'static str],
    keys: &'static [&'static str],
}

#[rustfmt::skip]
impl Dim {
    const METHOD: Dim = Dim { name: "method", values: &METHOD_NAMES, keys: &METHOD_NAMES };
    const OUTCOME: Dim = Dim { name: "outcome", values: &OUTCOMES, keys: &OUTCOMES };
    const PHASE: Dim = Dim { name: "phase", values: &PHASE_NAMES, keys: &PHASE_NAMES };
    /// Cell 0 is cold, cell 1 warm.
    const COLD: Dim = Dim { name: "cold", values: &["true", "false"], keys: &["cold", "warm"] };
    const ENGINE: Dim = Dim { name: "engine", values: &ENGINES, keys: &ENGINES };
}

/// A family's kind, holding the reader of one label cell.
#[derive(Clone, Copy)]
enum Kind {
    Counter(fn(&ServerMetrics, &ScrapeGauges, Cell) -> u64),
    Gauge(fn(&ServerMetrics, &ScrapeGauges, Cell) -> u64),
    /// A 0/1 gauge that JSON writes as a boolean.
    Flag(fn(&ServerMetrics, &ScrapeGauges, Cell) -> u64),
    Histogram(fn(&ServerMetrics, Cell) -> &Histogram),
    /// A histogram's derived quantiles, exported as a gauge.
    Quantiles(fn(&ServerMetrics, Cell) -> &Histogram),
}

/// Where a family sits in its JSON group.
#[derive(Debug, Clone, Copy)]
enum Json {
    /// Not in the JSON scrape.
    No,
    /// The family's cells are the group's fields: `group.<method>.<cell>`
    /// or `group.<cell>`.
    Cells,
    /// `group.key`. A method-labelled family is the `key` column of each
    /// `group.<method>` object.
    Key(&'static str),
    /// A method column like `Key` whose nonzero cells decide which
    /// `group.<method>` objects are written at all.
    Gate(&'static str),
}

/// One metric family: the single definition both scrape formats write.
struct Family {
    json: Json,
    kind: Kind,
    labels: &'static [Dim],
    /// Prometheus name and HELP text; `None` keeps the family out of
    /// the exposition.
    prom: Option<(&'static str, &'static str)>,
}

impl Family {
    /// The cell's value; a histogram's is its sample count.
    fn value(&self, m: &ServerMetrics, g: &ScrapeGauges, cell: Cell) -> u64 {
        match self.kind {
            Kind::Counter(read) | Kind::Gauge(read) | Kind::Flag(read) => read(m, g, cell),
            Kind::Histogram(read) | Kind::Quantiles(read) => read(m, cell).count(),
        }
    }

    /// Every label cell, first dimension outermost.
    fn cells(&self) -> Vec<Cell> {
        let len = |i: usize| self.labels.get(i).map_or(1, |d| d.values.len());
        (0..len(0))
            .flat_map(|a| (0..len(1)).map(move |b| [a, b]))
            .collect()
    }

    /// The Prometheus label set of `cell` (`method="ping",…`).
    fn label_text(&self, cell: Cell) -> String {
        let pairs = self.labels.iter().zip(cell);
        let pairs = pairs.map(|(d, i)| format!("{}=\"{}\"", d.name, d.values[i]));
        pairs.collect::<Vec<_>>().join(",")
    }

    /// A histogram cell's Prometheus samples: cumulative `le` buckets
    /// over the non-empty buckets plus `+Inf`, then sum and count; or,
    /// for the quantile gauge, p50/p90/p99.
    fn prom_histogram(&self, out: &mut String, labels: &str, s: &HistogramSnapshot) -> fmt::Result {
        let name = self.prom.map_or("", |p| p.0);
        if let Kind::Quantiles(_) = self.kind {
            for (q, num) in [("0.5", 50), ("0.9", 90), ("0.99", 99)] {
                let v = s.quantile(num, 100);
                writeln!(out, "{name}{{{labels},quantile=\"{q}\"}} {v}")?;
            }
            return Ok(());
        }
        let mut cum = 0u64;
        for (upper, n) in &s.buckets {
            cum += n;
            writeln!(out, "{name}_bucket{{{labels},le=\"{upper}\"}} {cum}")?;
        }
        writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}")?;
        writeln!(out, "{name}_sum{{{labels}}} {}", s.sum)?;
        writeln!(out, "{name}_count{{{labels}}} {}", s.count)
    }
}

/// A histogram cell's JSON fields: count, sum, percentiles, buckets.
fn json_histogram(j: &mut JsonBuf, s: &HistogramSnapshot) {
    j.u64_field("count", s.count).u64_field("sum_ns", s.sum);
    for (key, num) in [("p50_ns", 50), ("p90_ns", 90), ("p95_ns", 95)] {
        j.u64_field(key, s.quantile(num, 100));
    }
    j.u64_field("p99_ns", s.quantile(99, 100));
    j.begin_arr_field("buckets");
    for (upper, n) in &s.buckets {
        j.begin_arr_elem().u64_elem(*upper).u64_elem(*n).end_arr();
    }
    j.end_arr();
}

/// The `capacity` key of the `cache`, `registry` and `slowlog` groups.
const CAPACITY: &str = "capacity";

/// Every metric family, grouped by the JSON object it sits in (`""` is
/// the top level), in scrape order. A group of labelled families leads
/// with its one JSON family. Columns: JSON place, label dimensions,
/// kind with its reader; then the Prometheus name and HELP text.
#[rustfmt::skip]
static FAMILIES: [(&str, &[Family]); 12] = {
    use Json::{Cells, Gate, Key, No};
    use Kind::{Counter, Flag, Gauge, Histogram, Quantiles};
    const M: Dim = Dim::METHOD;
    const fn fam(json: Json, labels: &'static [Dim], kind: Kind,
                 prom: Option<(&'static str, &'static str)>) -> Family {
        Family { json, kind, labels, prom }
    }
    [
        ("", &[
            fam(Key("enabled"), &[], Flag(|m, _, _| u64::from(m.enabled)), None),
            fam(Key("uptime_s"), &[], Gauge(|m, _, _| m.uptime_s()),
                Some(("sd_uptime_seconds", "Seconds since start."))),
            fam(Key("slow_ms"), &[], Gauge(|m, _, _| m.slow_ns / 1_000_000), None),
        ]),
        ("gauges", &[
            fam(Key("connections_total"), &[], Counter(|_, g, _| g.connections_total),
                Some(("sd_connections_total", "TCP connections accepted."))),
            fam(Key("connections_open"), &[], Gauge(|_, g, _| g.connections_open),
                Some(("sd_connections_open", "Currently open connections."))),
            fam(Key("inflight"), &[], Gauge(|_, g, _| g.inflight),
                Some(("sd_inflight_queries", "Queries holding an admission slot."))),
            fam(Key("queue_depth"), &[], Gauge(|_, g, _| g.queue_depth),
                Some(("sd_queue_depth", "Queries waiting for an admission slot."))),
            fam(Key("workers"), &[], Gauge(|_, g, _| g.workers),
                Some(("sd_workers", "Admission slots (queries that may execute at once)."))),
            fam(Key("workers_busy"), &[], Gauge(|_, g, _| g.inflight),
                Some(("sd_workers_busy", "Admission slots currently held by a query."))),
        ]),
        ("requests", &[
            fam(Cells, &[M, Dim::OUTCOME], Counter(|m, _, [i, o]| m.requests[i][o].get()),
                Some(("sd_requests_total", "Requests handled, by method and outcome."))),
        ]),
        // Cold is cell 0, but the histograms are indexed by `cold as usize`.
        ("durations", &[
            fam(Cells, &[M, Dim::COLD], Histogram(|m, [i, c]| &m.durations[i][1 - c]),
                Some(("sd_request_duration_ns", "Request wall time, successful requests only."))),
            fam(No, &[M, Dim::COLD], Quantiles(|m, [i, c]| &m.durations[i][1 - c]),
                Some(("sd_request_duration_quantile_ns",
                      "Derived latency quantiles (p50/p90/p99)."))),
        ]),
        ("phase_ns", &[
            fam(Cells, &[M, Dim::PHASE], Counter(|m, _, [i, p]| m.phases[i][p].get()),
                Some(("sd_request_phase_ns_total", "Cumulative per-phase request time."))),
        ]),
        ("costs", &[
            fam(Gate("pair_expansions"), &[M], Counter(|m, _, [i, _]| m.pair_expansions[i].get()),
                Some(("sd_pair_expansions_total",
                      "Pair expansions attempted by served searches."))),
            fam(Gate("visited_pairs"), &[M], Counter(|m, _, [i, _]| m.visited_pairs[i].get()),
                Some(("sd_visited_pairs_total",
                      "Distinct canonical state pairs discovered by served searches."))),
            fam(Key("bfs_levels"), &[M], Counter(|m, _, [i, _]| m.bfs_levels[i].get()),
                Some(("sd_bfs_levels_total", "BFS levels expanded by served searches."))),
            fam(Key("rows_reused"), &[M], Counter(|m, _, [i, _]| m.rows_reused[i].get()),
                Some(("sd_memo_rows_reused_total",
                      "Sparse successor rows served from the memo, per method."))),
            fam(Key("rows_materialized"), &[M],
                Counter(|m, _, [i, _]| m.rows_materialized[i].get()),
                Some(("sd_memo_rows_materialized_total",
                      "Sparse successor rows interpreted, per method."))),
        ]),
        ("engines", &[
            fam(Cells, &[Dim::ENGINE], Counter(|m, _, [e, _]| m.engine_runs[e].get()),
                Some(("sd_engine_runs_total", "Queries run, by engine kind (cone and none ran no search)."))),
        ]),
        ("oracle", &[
            fam(Key("partition_hits"), &[], Counter(|m, _, _| m.partition_hits.get()),
                Some(("sd_partition_hits_total",
                      "Sat(phi) enumerations served from the Oracle intern cache."))),
            fam(Key("partition_misses"), &[], Counter(|m, _, _| m.partition_misses.get()),
                Some(("sd_partition_misses_total", "Sat(phi) enumerations computed fresh."))),
            fam(Key("memo_rows_reused"), &[], Counter(|m, _, _| m.memo_rows_reused.get()), None),
            fam(Key("memo_rows_materialized"), &[],
                Counter(|m, _, _| m.memo_rows_materialized.get()), None),
            fam(Key("compiles"), &[], Counter(|m, _, _| m.compiles.get()),
                Some(("sd_compiles_total", "Successor-table compiles."))),
            fam(Key("compile_ns"), &[], Counter(|m, _, _| m.compile_ns.get()),
                Some(("sd_compile_ns_total", "Nanoseconds spent compiling successor tables."))),
        ]),
        ("cache", &[
            fam(Key("hits"), &[], Counter(|_, g, _| g.cache.hits),
                Some(("sd_cache_hits_total", "Result-cache hits."))),
            fam(Key("misses"), &[], Counter(|_, g, _| g.cache.misses),
                Some(("sd_cache_misses_total", "Result-cache misses."))),
            fam(Key("insertions"), &[], Counter(|_, g, _| g.cache.insertions),
                Some(("sd_cache_insertions_total", "Result-cache insertions."))),
            fam(Key("evictions"), &[], Counter(|_, g, _| g.cache.evictions),
                Some(("sd_cache_evictions_total", "Result-cache evictions."))),
            fam(Key("entries"), &[], Gauge(|_, g, _| g.cache.entries),
                Some(("sd_cache_entries", "Result-cache entries."))),
            fam(Key(CAPACITY), &[], Gauge(|_, g, _| g.cache.capacity),
                Some(("sd_cache_capacity", "Result-cache capacity."))),
        ]),
        ("registry", &[
            fam(Key("systems"), &[], Gauge(|_, g, _| g.registry_systems),
                Some(("sd_registry_systems", "Registered systems."))),
            fam(Key(CAPACITY), &[], Gauge(|_, g, _| g.registry_cap),
                Some(("sd_registry_capacity", "Registry capacity."))),
        ]),
        ("", &[
            fam(Key("access_log_dropped"), &[], Counter(|m, _, _| m.access_dropped.get()),
                Some(("sd_access_log_dropped_total",
                      "Access-log lines dropped instead of blocking requests."))),
        ]),
        ("slowlog", &[
            fam(Key("captured"), &[], Counter(|m, _, _| m.slow.captured.get()),
                Some(("sd_slow_queries_total", "Requests slower than the slow-query threshold."))),
            fam(Key(CAPACITY), &[], Gauge(|m, _, _| m.slow.cap as u64),
                Some(("sd_slowlog_capacity", "Slow-query ring capacity."))),
        ]),
    ]
};

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

    /// One observed request: method, outcome, cold, phase times, report.
    type Step<'a> = (
        Method,
        Option<ErrorKind>,
        bool,
        &'a [(Phase, u64)],
        Option<&'a QueryReport>,
    );

    /// A fixed request and telemetry mix for the scrape tests. The
    /// wall-time histograms are refilled with fixed samples afterwards,
    /// so the scrape is deterministic.
    fn fixed_mix() -> (ServerMetrics, ScrapeGauges) {
        // slow_ms 0: every request lands in the slow-query ring.
        let m = Arc::new(ServerMetrics::new(true, 0, 8));
        let report =
            |engine, pair_expansions, visited_pairs, levels, rows_materialized| QueryReport {
                engine,
                wall_ns: 5_000,
                visited_pairs,
                pair_expansions,
                levels,
                partition_cached: false,
                fresh_compile: false,
                rows_reused: 2,
                rows_materialized,
            };
        let dense = report("compiled-dense", 40, 10, 3, 5);
        // No pairs: the JSON scrape leaves out `costs.sinks`.
        let sparse = report("compiled-sparse", 0, 0, 1, 3);
        let interp = report("interpreted", 7, 4, 2, 0);
        let odd = report("weird", 1, 1, 1, 1);
        let (parse, cache, compile, search) =
            (Phase::Parse, Phase::Cache, Phase::Compile, Phase::Search);
        #[rustfmt::skip]
        let mix: [Step; 7] = [
            (Method::Depends, None, true, &[(parse, 100), (cache, 20), (search, 5_000)], Some(&dense)),
            (Method::Depends, None, false, &[(cache, 15), (Phase::Write, 25)], None),
            (Method::Depends, Some(ErrorKind::Timeout), false, &[(search, 700)], None),
            (Method::Sinks, None, true, &[(search, 400)], Some(&sparse)),
            (Method::SinksMatrix, None, true, &[(compile, 60), (search, 900)], Some(&interp)),
            (Method::Register, None, true, &[(Phase::Serialize, 50)], Some(&odd)),
            (Method::Unknown, Some(ErrorKind::Parse), false, &[(parse, 10)], None),
        ];
        for (method, outcome, cold, phases, report) in mix {
            let mut trace = RequestTrace::start();
            for &(p, ns) in phases {
                trace.add(p, ns);
            }
            let obs = RequestObs {
                method,
                outcome,
                cold,
                report,
                ..RequestObs::default()
            };
            assert!(m.observe_request(&obs, &trace).is_some());
        }
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
        m.access_log_dropped(2);
        drop(sink);
        let mut m = Arc::try_unwrap(m).ok().expect("sole owner");
        m.durations = (0..METHODS)
            .map(|_| [Histogram::new(), Histogram::new()])
            .collect();
        let depends = Method::Depends.idx();
        for (cold, ns) in [(true, 5_500), (true, 12_000), (false, 250)] {
            m.durations[depends][usize::from(cold)].record(ns);
        }
        m.durations[Method::Register.idx()][1].record(1_100);
        m.started = Instant::now();
        let cache = CacheStats {
            hits: 7,
            misses: 3,
            insertions: 3,
            evictions: 1,
            entries: 2,
            capacity: 16,
        };
        let g = ScrapeGauges {
            connections_total: 5,
            connections_open: 2,
            inflight: 1,
            queue_depth: 3,
            workers: 4,
            cache,
            registry_systems: 2,
            registry_cap: 16,
        };
        (m, g)
    }

    fn scrape_json(m: &ServerMetrics, g: &ScrapeGauges) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        m.json_fields(g, &mut j);
        j.end_obj();
        j.finish()
    }

    fn prom_samples(m: &ServerMetrics, g: &ScrapeGauges) -> Vec<String> {
        let prom = m.render_prom(g);
        let mut lines: Vec<String> = prom
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    }

    /// The scrape of [`fixed_mix`]: the JSON bytes, and the Prometheus
    /// sample lines (sorted, comments dropped).
    const GOLDEN_JSON: &str = concat!(
        r#"{"enabled":true,"uptime_s":0,"slow_ms":0,"gauges":{"connections_total":5,"#,
        r#""connections_open":2,"inflight":1,"queue_depth":3,"workers":4,"workers_busy":1},"#,
        r#""requests":{"register":{"ok":1},"depends":{"ok":2,"timeout":1},"sinks":{"ok":1},"#,
        r#""sinks_matrix":{"ok":1},"unknown":{"parse":1}},"#,
        r#""durations":{"register":{"cold":{"count":1,"sum_ns":1100,"p50_ns":1151,"p90_ns":1151,"#,
        r#""p95_ns":1151,"p99_ns":1151,"buckets":[[1151,1]]}},"depends":{"cold":{"count":2,"#,
        r#""sum_ns":17500,"p50_ns":5631,"p90_ns":12287,"p95_ns":12287,"p99_ns":12287,"#,
        r#""buckets":[[5631,1],[12287,1]]},"warm":{"count":1,"sum_ns":250,"p50_ns":255,"#,
        r#""p90_ns":255,"p95_ns":255,"p99_ns":255,"buckets":[[255,1]]}}},"#,
        r#""phase_ns":{"register":{"parse":0,"cache":0,"compile":0,"search":0,"serialize":50,"#,
        r#""write":0},"depends":{"parse":100,"cache":35,"compile":0,"search":5700,"serialize":0,"#,
        r#""write":25},"sinks":{"parse":0,"cache":0,"compile":0,"search":400,"serialize":0,"#,
        r#""write":0},"sinks_matrix":{"parse":0,"cache":0,"compile":60,"search":900,"#,
        r#""serialize":0,"write":0},"unknown":{"parse":10,"cache":0,"compile":0,"search":0,"#,
        r#""serialize":0,"write":0}},"costs":{"register":{"pair_expansions":1,"visited_pairs":1,"#,
        r#""bfs_levels":1,"rows_reused":2,"rows_materialized":1},"depends":{"pair_expansions":40,"#,
        r#""visited_pairs":10,"bfs_levels":3,"rows_reused":2,"rows_materialized":5},"#,
        r#""sinks_matrix":{"pair_expansions":7,"visited_pairs":4,"bfs_levels":2,"rows_reused":2,"#,
        r#""rows_materialized":0}},"engines":{"interpreted":1,"compiled-dense":1,"#,
        r#""compiled-sparse":1,"other":1},"oracle":{"partition_hits":1,"partition_misses":1,"#,
        r#""memo_rows_reused":5,"memo_rows_materialized":2,"compiles":1,"compile_ns":1234},"#,
        r#""cache":{"hits":7,"misses":3,"insertions":3,"evictions":1,"entries":2,"capacity":16},"#,
        r#""registry":{"systems":2,"capacity":16},"access_log_dropped":2,"slowlog":{"captured":7,"#,
        r#""capacity":8}}"#,
    );

    const GOLDEN_PROM: &str = r#"
sd_access_log_dropped_total 2
sd_bfs_levels_total{method="depends"} 3
sd_bfs_levels_total{method="register"} 1
sd_bfs_levels_total{method="sinks"} 1
sd_bfs_levels_total{method="sinks_matrix"} 2
sd_cache_capacity 16
sd_cache_entries 2
sd_cache_evictions_total 1
sd_cache_hits_total 7
sd_cache_insertions_total 3
sd_cache_misses_total 3
sd_compile_ns_total 1234
sd_compiles_total 1
sd_connections_open 2
sd_connections_total 5
sd_engine_runs_total{engine="compiled-dense"} 1
sd_engine_runs_total{engine="compiled-sparse"} 1
sd_engine_runs_total{engine="interpreted"} 1
sd_engine_runs_total{engine="other"} 1
sd_inflight_queries 1
sd_memo_rows_materialized_total{method="depends"} 5
sd_memo_rows_materialized_total{method="register"} 1
sd_memo_rows_materialized_total{method="sinks"} 3
sd_memo_rows_reused_total{method="depends"} 2
sd_memo_rows_reused_total{method="register"} 2
sd_memo_rows_reused_total{method="sinks"} 2
sd_memo_rows_reused_total{method="sinks_matrix"} 2
sd_pair_expansions_total{method="depends"} 40
sd_pair_expansions_total{method="register"} 1
sd_pair_expansions_total{method="sinks_matrix"} 7
sd_partition_hits_total 1
sd_partition_misses_total 1
sd_queue_depth 3
sd_registry_capacity 16
sd_registry_systems 2
sd_request_duration_ns_bucket{method="depends",cold="false",le="+Inf"} 1
sd_request_duration_ns_bucket{method="depends",cold="false",le="255"} 1
sd_request_duration_ns_bucket{method="depends",cold="true",le="+Inf"} 2
sd_request_duration_ns_bucket{method="depends",cold="true",le="12287"} 2
sd_request_duration_ns_bucket{method="depends",cold="true",le="5631"} 1
sd_request_duration_ns_bucket{method="register",cold="true",le="+Inf"} 1
sd_request_duration_ns_bucket{method="register",cold="true",le="1151"} 1
sd_request_duration_ns_count{method="depends",cold="false"} 1
sd_request_duration_ns_count{method="depends",cold="true"} 2
sd_request_duration_ns_count{method="register",cold="true"} 1
sd_request_duration_ns_sum{method="depends",cold="false"} 250
sd_request_duration_ns_sum{method="depends",cold="true"} 17500
sd_request_duration_ns_sum{method="register",cold="true"} 1100
sd_request_duration_quantile_ns{method="depends",cold="false",quantile="0.5"} 255
sd_request_duration_quantile_ns{method="depends",cold="false",quantile="0.9"} 255
sd_request_duration_quantile_ns{method="depends",cold="false",quantile="0.99"} 255
sd_request_duration_quantile_ns{method="depends",cold="true",quantile="0.5"} 5631
sd_request_duration_quantile_ns{method="depends",cold="true",quantile="0.9"} 12287
sd_request_duration_quantile_ns{method="depends",cold="true",quantile="0.99"} 12287
sd_request_duration_quantile_ns{method="register",cold="true",quantile="0.5"} 1151
sd_request_duration_quantile_ns{method="register",cold="true",quantile="0.9"} 1151
sd_request_duration_quantile_ns{method="register",cold="true",quantile="0.99"} 1151
sd_request_phase_ns_total{method="depends",phase="cache"} 35
sd_request_phase_ns_total{method="depends",phase="parse"} 100
sd_request_phase_ns_total{method="depends",phase="search"} 5700
sd_request_phase_ns_total{method="depends",phase="write"} 25
sd_request_phase_ns_total{method="register",phase="serialize"} 50
sd_request_phase_ns_total{method="sinks",phase="search"} 400
sd_request_phase_ns_total{method="sinks_matrix",phase="compile"} 60
sd_request_phase_ns_total{method="sinks_matrix",phase="search"} 900
sd_request_phase_ns_total{method="unknown",phase="parse"} 10
sd_requests_total{method="depends",outcome="ok"} 2
sd_requests_total{method="depends",outcome="timeout"} 1
sd_requests_total{method="register",outcome="ok"} 1
sd_requests_total{method="sinks",outcome="ok"} 1
sd_requests_total{method="sinks_matrix",outcome="ok"} 1
sd_requests_total{method="unknown",outcome="parse"} 1
sd_slow_queries_total 7
sd_slowlog_capacity 8
sd_uptime_seconds 0
sd_visited_pairs_total{method="depends"} 10
sd_visited_pairs_total{method="register"} 1
sd_visited_pairs_total{method="sinks_matrix"} 4
sd_workers 4
sd_workers_busy 1
"#;

    #[test]
    fn golden_scrape_is_stable() {
        let (m, g) = fixed_mix();
        assert_eq!(scrape_json(&m, &g), GOLDEN_JSON);
        assert_eq!(prom_samples(&m, &g).join("\n"), GOLDEN_PROM.trim());
    }

    /// Each row that names both outputs shows every nonzero cell in
    /// both; family names are unique; every Prometheus sample follows
    /// its family's `# TYPE`.
    #[test]
    fn both_outputs_show_every_nonzero_cell() {
        let (m, g) = fixed_mix();
        let json = crate::wire::parse(&scrape_json(&m, &g)).expect("scrape is JSON");
        let prom = m.render_prom(&g);
        let lines: std::collections::HashSet<&str> = prom.lines().collect();
        let mut unexercised = Vec::new();
        let families = FAMILIES
            .iter()
            .flat_map(|&(g, fs)| fs.iter().map(move |f| (g, fs, f)));
        for (group, siblings, f) in families {
            let key = match f.json {
                Json::No => continue,
                Json::Cells => "",
                Json::Key(k) | Json::Gate(k) => k,
            };
            let Some((name, _)) = f.prom else { continue };
            let mut exercised = false;
            for cell in f.cells() {
                let v = f.value(&m, &g, cell);
                if v == 0 {
                    continue;
                }
                exercised = true;
                let labels = f.label_text(cell);
                let sample = match f.kind {
                    Kind::Histogram(_) => format!("{name}_count{{{labels}}} {v}"),
                    _ if labels.is_empty() => format!("{name} {v}"),
                    _ => format!("{name}{{{labels}}} {v}"),
                };
                assert!(lines.contains(sample.as_str()), "missing {sample}\n{prom}");
                let mut path = vec![group];
                match *f.labels {
                    [] => path.push(key),
                    [Dim::METHOD] => path.extend([METHOD_NAMES[cell[0]], key]),
                    [Dim::METHOD, ref d] => path.extend([METHOD_NAMES[cell[0]], d.keys[cell[1]]]),
                    [ref d] => path.push(d.keys[cell[0]]),
                    _ => unreachable!(),
                }
                if matches!(f.kind, Kind::Histogram(_)) {
                    path.push("count");
                }
                let found = (path.iter().filter(|k| !k.is_empty()))
                    .try_fold(&json, |v, k| v.get(k))
                    .and_then(|v| v.as_u64());
                // A method's cost object is written only when a gate
                // column is nonzero.
                let gated_out = *f.labels == [Dim::METHOD]
                    && siblings
                        .iter()
                        .all(|h| !matches!(h.json, Json::Gate(_)) || h.value(&m, &g, cell) == 0);
                let want = (!gated_out).then_some(v);
                assert_eq!(found, want, "{path:?}");
            }
            if !exercised {
                unexercised.push(name);
            }
        }
        // Uptime reads 0 seconds in a test; every other family is hit.
        assert_eq!(unexercised, ["sd_uptime_seconds"]);

        let all = FAMILIES.iter().flat_map(|(_, fs)| fs.iter());
        let mut names: Vec<&str> = all.filter_map(|f| f.prom.map(|p| p.0)).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate family name");

        let mut typed = Vec::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split(' ').next().unwrap_or_default());
            } else if !line.starts_with('#') {
                let name = line.split(['{', ' ']).next().unwrap_or_default();
                let family = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|s| name.strip_suffix(s).filter(|f| typed.contains(f)))
                    .unwrap_or(name);
                assert!(typed.contains(&family), "{line} before its # TYPE");
            }
        }
    }

    #[test]
    fn label_indices_are_positions() {
        for m in Method::ALL {
            assert_eq!(Method::ALL[m.idx()], m);
        }
        for p in Phase::ALL {
            assert_eq!(Phase::ALL[p.idx()], p);
        }
        for k in ErrorKind::ALL {
            assert_eq!(outcome_str(Some(k)), k.as_str());
        }
    }
}
