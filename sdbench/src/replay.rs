//! The traced run: a sequential in-process replay of a workload's exact
//! request stream through the server's layers, on a fresh
//! [`Registry`], [`ResultCache`] and [`ServerMetrics`], calling their
//! public functions in the order a connection thread and a worker do.
//!
//! Spans (name, start, end, parent, request id) are recorded around
//! every layer call and kept in memory. The same replay runs a second
//! time without spans; the difference in wall time is the tracing
//! overhead, and every count must come out identical.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sd_core::{CompileBudget, Engine, Oracle, QueryReport, Sink};
use sd_server::engine::{self, ExecOutcome};
use sd_server::{
    proto, MetricsSink, Phase, Registry, Request, RequestObs, RequestTrace, ResultCache,
    ServerMetrics, SystemDesc,
};

use crate::drive::step_line;
use crate::gen::{Step, Workload, CACHE_CAP};

/// sdserved's default per-request deadline cap.
const MAX_TIMEOUT: Duration = Duration::from_secs(30);

/// One recorded span. Phase spans inside `engine.exec` come from the
/// [`RequestTrace`] the engine fills: their durations are measured by
/// the engine, and they are laid end to end from the parent's start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`proto.parse`, `engine.exec`, …).
    pub name: &'static str,
    /// Start, in ns since the replay began.
    pub start: u64,
    /// End, in ns since the replay began.
    pub end: u64,
    /// Index of the parent span.
    pub parent: Option<u32>,
    /// Request id (1-based position in the stream).
    pub req: u64,
}

/// Counts that must repeat exactly for a fixed request stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Result-cache hits.
    pub hits: u64,
    /// Result-cache misses.
    pub misses: u64,
    /// Result-cache evictions.
    pub evictions: u64,
    /// Registered systems.
    pub registrations: u64,
    /// Distinct φ interned across all Oracles.
    pub interned_phis: u64,
    /// Pair expansions over all searches.
    pub pair_expansions: u64,
    /// Visited pairs over all searches.
    pub visited_pairs: u64,
}

/// What one query cost, layer by layer (traced replay only).
struct QueryObs {
    get_ns: u64,
    exec_ns: u64,
    phase_ns: [u64; 4],
    encode_ns: u64,
    observe_ns: u64,
    response_bytes: usize,
    report: Option<QueryReport>,
    flow: Option<bool>,
}

/// The outcome of one replay.
pub struct Replay {
    /// Wall time of the timed part of the stream (after setup and
    /// the cache fill).
    pub wall: Duration,
    /// Exact counts.
    pub counts: Counts,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Per-layer metrics (empty when untraced).
    pub layers: Vec<(&'static str, f64, &'static str)>,
}

/// The order the replay issues steps in: setup registrations and the
/// cache fill, then round by round the lanes' steps interleaved one
/// step per lane in turn, which is the order a concurrent run
/// approximates.
pub fn stream(w: &Workload) -> Vec<Step> {
    let mut out: Vec<Step> = w.setup_systems.iter().map(|&s| Step::Register(s)).collect();
    out.extend(w.fill.iter().map(|&q| Step::Query(q)));
    for r in 0..w.lanes.first().map_or(0, Vec::len) {
        let lanes: Vec<Vec<Step>> = w
            .lanes
            .iter()
            .map(|l| l[r].iter().flat_map(|s| s.steps.iter().copied()).collect())
            .collect();
        let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            out.extend(lanes.iter().filter_map(|l| l.get(i).copied()));
        }
    }
    out
}

const PHASES: [(Phase, &str); 4] = [
    (Phase::Compile, "engine.prepare"),
    (Phase::Cache, "cache"),
    (Phase::Search, "oracle.search"),
    (Phase::Serialize, "proto.encode_answer"),
];

/// At most this many requests keep their spans (evenly spaced), so
/// the span file stays small; every request is still timed.
const MAX_SPANNED: usize = 50_000;

struct Tracer {
    on: bool,
    /// Whether the current request's spans are kept.
    keep: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span when tracing; returns its result, its
    /// span index (when kept) and its duration in ns.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<u32>, u64) {
        if !self.on {
            return (f(), None, 0);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.push(name, start, end, parent, req);
        (out, idx, end - start)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u32>,
        req: u64,
    ) -> Option<u32> {
        if !self.keep {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        Some((self.spans.len() - 1) as u32)
    }
}

/// Replays `w`'s stream. With `traced`, records spans and derives the
/// per-layer metrics, including direct probes of the cache, `lang` and
/// `compiled` layers after the stream.
pub fn replay(w: &Workload, traced: bool) -> Result<Replay, String> {
    let steps = stream(w);
    let lines: Vec<String> = steps
        .iter()
        .enumerate()
        .map(|(i, &s)| step_line(w, i as u64 + 1, s))
        .collect();
    let metrics = Arc::new(ServerMetrics::new(true, 100, 128));
    let sink: Arc<dyn Sink> = Arc::new(MetricsSink::new(Arc::clone(&metrics), None));
    let registry = Registry::new(
        w.registry_cap,
        CompileBudget::default(),
        Some(Arc::clone(&sink)),
    );
    let cache = ResultCache::new(CACHE_CAP);
    let mut t = Tracer {
        on: traced,
        keep: false,
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let stride = lines.len().div_ceil(MAX_SPANNED).max(1);
    let mut queries: Vec<QueryObs> = Vec::new();
    let mut parse_ns: Vec<u64> = Vec::new();
    let mut register_ns: Vec<u64> = Vec::new();
    let mut cache_seq: Vec<(u128, Arc<str>)> = Vec::new();
    let mut counts = Counts::default();
    // Per-request layer costs describe the timed part of the stream;
    // registrations are timed wherever they happen.
    let setup_len = w.setup_systems.len() + w.fill.len();
    let mut started = Instant::now();
    let mut setup_stats = cache.stats();
    for (i, line) in lines.iter().enumerate() {
        let req_id = i as u64 + 1;
        let timed = i >= setup_len;
        if i == setup_len {
            started = Instant::now();
            setup_stats = cache.stats();
        }
        t.keep = t.on && i % stride == 0;
        let root = if t.keep {
            let at = t.epoch.elapsed().as_nanos() as u64;
            t.push("request", at, at, None, req_id)
        } else {
            None
        };
        let (frame, _, ns) = t.span("proto.parse", root, req_id, || {
            proto::parse_frame(line.trim_end())
        });
        if timed {
            parse_ns.push(ns);
        }
        let frame = frame.map_err(|e| format!("replay parse: {e}"))?;
        match frame.req {
            Request::Register(desc) => {
                let (res, _, ns) = t.span("registry.register", root, req_id, || {
                    registry.register(&desc)
                });
                res.map_err(|e| format!("replay register: {e}"))?;
                register_ns.push(ns);
            }
            Request::Query(req) => {
                let (entry, _, get_ns) =
                    t.span("registry.get", root, req_id, || registry.get(req.system));
                let entry = entry.ok_or("replay: query before its system was registered")?;
                let mut trace = RequestTrace::start();
                let (out, exec_idx, exec_ns) = t.span("engine.exec", root, req_id, || {
                    engine::execute_query(
                        &entry,
                        &cache,
                        Some(&sink),
                        &req,
                        MAX_TIMEOUT,
                        &mut trace,
                    )
                });
                let out: ExecOutcome = out.map_err(|e| format!("replay query: {e}"))?;
                let phase_ns = PHASES.map(|(p, _)| trace.phase_ns(p));
                if let Some(exec_idx) = exec_idx {
                    let mut at = t.spans[exec_idx as usize].start;
                    for ((_, name), ns) in PHASES.iter().zip(phase_ns) {
                        t.push(name, at, at + ns, Some(exec_idx), req_id);
                        at += ns;
                    }
                }
                let (response, _, encode_ns) = t.span("proto.encode", root, req_id, || {
                    proto::encode_query_ok(frame.id, &out.answer, out.cached, out.report.as_ref())
                });
                let obs = RequestObs {
                    method: sd_server::Method::from_kind(req.kind),
                    id: frame.id,
                    outcome: None,
                    cached: out.cached,
                    cold: !out.cached,
                    system: Some(req.system),
                    fingerprint: out.fingerprint,
                    report: out.report.as_ref(),
                };
                let (_, _, observe_ns) = t.span("metrics.observe", root, req_id, || {
                    metrics.observe_request(&obs, &trace)
                });
                if let Some(r) = &out.report {
                    counts.pair_expansions += r.pair_expansions;
                    counts.visited_pairs += r.visited_pairs;
                }
                if t.on && timed {
                    if let Some(fp) = out.fingerprint {
                        cache_seq.push((
                            (u128::from(entry.key) << 64) | u128::from(fp),
                            Arc::clone(&out.answer),
                        ));
                    }
                    let flow = (req.kind == sd_server::QueryKind::Depends && out.report.is_some())
                        .then(|| out.answer.contains("\"holds\":true"));
                    queries.push(QueryObs {
                        get_ns,
                        exec_ns,
                        phase_ns,
                        encode_ns,
                        observe_ns,
                        response_bytes: response.len() + 1,
                        report: out.report,
                        flow,
                    });
                }
            }
            other => return Err(format!("replay: unexpected request {other:?}")),
        }
        if let Some(r) = root {
            t.spans[r as usize].end = t.epoch.elapsed().as_nanos() as u64;
        }
    }
    let wall = started.elapsed();
    let stats = cache.stats();
    counts.hits = stats.hits;
    counts.misses = stats.misses;
    counts.evictions = stats.evictions;
    counts.registrations = registry.len() as u64;
    let entries: Vec<_> = registry
        .list()
        .into_iter()
        .filter_map(|(k, _)| registry.get(k))
        .collect();
    counts.interned_phis = entries.iter().map(|e| e.oracle.stats().interned_phis).sum();
    let mut layers = Vec::new();
    if traced {
        let window = sd_server::CacheStats {
            hits: stats.hits - setup_stats.hits,
            misses: stats.misses - setup_stats.misses,
            evictions: stats.evictions - setup_stats.evictions,
            ..stats
        };
        layers = layer_metrics(&queries, &parse_ns, &register_ns, &window, &counts);
        layers.extend(probes(w, &entries, &cache_seq)?);
    }
    Ok(Replay {
        wall,
        counts,
        spans: t.spans,
        layers,
    })
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn pct(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    crate::stats::nearest_rank(&v, p).unwrap_or(0.0)
}

fn layer_metrics(
    q: &[QueryObs],
    parse_ns: &[u64],
    register_ns: &[u64],
    stats: &sd_server::CacheStats,
    counts: &Counts,
) -> Vec<(&'static str, f64, &'static str)> {
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let searched: Vec<&QueryObs> = q.iter().filter(|o| o.report.is_some()).collect();
    let search_ns: Vec<u64> = searched.iter().map(|o| o.phase_ns[2]).collect();
    let exec_sum: u64 = q.iter().map(|o| o.exec_ns).sum();
    let child_sum: u64 = q.iter().map(|o| o.phase_ns.iter().sum::<u64>()).sum();
    let reports: Vec<&QueryReport> = searched.iter().filter_map(|o| o.report.as_ref()).collect();
    let reused: u64 = reports.iter().map(|r| r.rows_reused).sum();
    let materialized: u64 = reports.iter().map(|r| r.rows_materialized).sum();
    let levels: u64 = reports.iter().map(|r| u64::from(r.levels)).sum();
    let expansions: u64 = reports.iter().map(|r| r.pair_expansions).sum();
    let visited: u64 = reports.iter().map(|r| r.visited_pairs).sum();
    let flows: Vec<bool> = q.iter().filter_map(|o| o.flow).collect();
    let lookups = stats.hits + stats.misses;
    vec![
        (
            "proto.parse_us",
            mean(parse_ns.iter().map(|&n| us(n))),
            "us",
        ),
        (
            "proto.encode_us",
            mean(q.iter().map(|o| us(o.encode_ns + o.phase_ns[3]))),
            "us",
        ),
        (
            "proto.response_bytes",
            mean(q.iter().map(|o| o.response_bytes as f64)),
            "bytes",
        ),
        (
            "cache.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                stats.hits as f64 / lookups as f64
            },
            "ratio",
        ),
        ("cache.evictions", stats.evictions as f64, "count"),
        (
            "metrics.observe_us",
            mean(q.iter().map(|o| us(o.observe_ns))),
            "us",
        ),
        (
            "engine.exec_us_p50",
            pct(q.iter().map(|o| us(o.exec_ns)).collect(), 50.0),
            "us",
        ),
        (
            "engine.exec_us_p99",
            pct(q.iter().map(|o| us(o.exec_ns)).collect(), 99.0),
            "us",
        ),
        (
            "engine.prepare_us",
            mean(q.iter().map(|o| us(o.phase_ns[0]))),
            "us",
        ),
        (
            "engine.span_sum_ratio",
            if exec_sum == 0 {
                0.0
            } else {
                child_sum as f64 / exec_sum as f64
            },
            "ratio",
        ),
        (
            "registry.register_ms_p50",
            pct(register_ns.iter().map(|&n| ms(n)).collect(), 50.0),
            "ms",
        ),
        (
            "registry.register_ms_p99",
            pct(register_ns.iter().map(|&n| ms(n)).collect(), 99.0),
            "ms",
        ),
        (
            "registry.get_us",
            mean(q.iter().map(|o| us(o.get_ns))),
            "us",
        ),
        ("registry.systems", counts.registrations as f64, "count"),
        ("compiled.rows_materialized", materialized as f64, "count"),
        (
            "compiled.rows_reused_ratio",
            if reused + materialized == 0 {
                0.0
            } else {
                reused as f64 / (reused + materialized) as f64
            },
            "ratio",
        ),
        ("oracle.interned_phis", counts.interned_phis as f64, "count"),
        (
            "oracle.search_ms_p50",
            pct(search_ns.iter().map(|&n| ms(n)).collect(), 50.0),
            "ms",
        ),
        (
            "oracle.search_ms_p99",
            pct(search_ns.iter().map(|&n| ms(n)).collect(), 99.0),
            "ms",
        ),
        ("oracle.searches", searched.len() as f64, "count"),
        ("oracle.pair_expansions", expansions as f64, "count"),
        ("oracle.visited_pairs", visited as f64, "count"),
        ("oracle.levels", levels as f64, "count"),
        (
            "oracle.expansions_per_ms",
            {
                let total_ms = ms(search_ns.iter().sum());
                if total_ms == 0.0 {
                    0.0
                } else {
                    expansions as f64 / total_ms
                }
            },
            "1/ms",
        ),
        (
            "oracle.flow_ratio",
            if flows.is_empty() {
                0.0
            } else {
                flows.iter().filter(|f| **f).count() as f64 / flows.len() as f64
            },
            "ratio",
        ),
    ]
}

/// Direct calls into single layers, after the stream: the result
/// cache on the replay's exact key sequence, program parse+compile,
/// φ lowering, table builds, and each φ's first Sat(φ) enumeration.
fn probes(
    w: &Workload,
    entries: &[Arc<sd_server::SystemEntry>],
    cache_seq: &[(u128, Arc<str>)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let cache = ResultCache::new(CACHE_CAP);
    let (mut get_ns, mut insert_ns) = (Vec::new(), Vec::new());
    for (key, val) in cache_seq {
        let t = Instant::now();
        let hit = cache.get(*key).is_some();
        get_ns.push(t.elapsed().as_nanos() as f64);
        if !hit {
            let t = Instant::now();
            cache.insert(*key, Arc::clone(val));
            insert_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let mut compile_ns = Vec::new();
    for desc in &w.systems {
        if let SystemDesc::Program { source } = desc {
            let t = Instant::now();
            let prog = sd_lang::parse(source).map_err(|e| e.to_string())?;
            std::hint::black_box(sd_lang::compile(&prog).map_err(|e| e.to_string())?);
            compile_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let mut lower_ns = Vec::new();
    let mut build_ns = Vec::new();
    let mut sat_ns = Vec::new();
    let mut phis_of: HashMap<u64, Vec<&str>> = HashMap::new();
    for q in &w.queries {
        if let Some(phi) = q.req.phi.as_deref().filter(|p| !p.is_empty()) {
            phis_of.entry(q.req.system).or_default().push(phi);
        }
    }
    for e in entries {
        let t = Instant::now();
        let oracle = Oracle::with_engine(e.system, Engine::Auto, &CompileBudget::default())
            .map_err(|e| e.to_string())?;
        build_ns.push(t.elapsed().as_nanos() as f64);
        for src in phis_of.get(&e.key).map(Vec::as_slice).unwrap_or(&[]) {
            let t = Instant::now();
            let phi = sd_lang::lower_phi(e.system.universe(), src).map_err(|e| e.to_string())?;
            lower_ns.push(t.elapsed().as_nanos() as f64);
            if !oracle.phi_interned(&phi) {
                let t = Instant::now();
                oracle.sat_codes(&phi).map_err(|e| e.to_string())?;
                sat_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    Ok(vec![
        ("cache.get_us", mean(get_ns.iter().map(|n| n / 1e3)), "us"),
        (
            "cache.insert_us",
            mean(insert_ns.iter().map(|n| n / 1e3)),
            "us",
        ),
        (
            "lang.program_compile_ms",
            mean(compile_ns.iter().map(|n| n / 1e6)),
            "ms",
        ),
        (
            "lang.lower_phi_us",
            mean(lower_ns.iter().map(|n| n / 1e3)),
            "us",
        ),
        (
            "compiled.table_build_ms",
            mean(build_ns.iter().map(|n| n / 1e6)),
            "ms",
        ),
        (
            "oracle.sat_enum_ms",
            mean(sat_ns.iter().map(|n| n / 1e6)),
            "ms",
        ),
    ])
}

/// Writes spans as tab-separated lines: request, span index, parent
/// index (`-` for roots), name, start ns, end ns.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => writeln!(
                out,
                "{}\t{i}\t{p}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?,
            None => writeln!(out, "{}\t{i}\t-\t{}\t{}\t{}", s.req, s.name, s.start, s.end)?,
        }
    }
    out.flush()
}
