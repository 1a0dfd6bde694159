//! `sdbench` — the end-to-end and per-layer benchmark for `sdserved`.
//!
//! ```text
//! sdbench --workload <warm_hits|cold_search|tenant_sessions> --seed N
//!         --seconds S --trace <0|1> [--repeat N] [--out DIR]
//! ```
//!
//! `--trace 0` starts a fresh release `sdserved` (built next to this
//! binary), sets it up, drives it over loopback TCP with a closed loop
//! of `nproc` connections, checks every answer against sd-core, and
//! prints the end-to-end metrics. `--trace 1` does the same run and
//! then replays the identical request stream in-process through the
//! server's layers, printing the per-layer metrics. `--repeat N`
//! repeats the run N times on the same seed and prints each metric's
//! median, quartiles and spread. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod drive;
mod gen;
mod procfs;
mod replay;
mod stats;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sd_core::JsonBuf;
use sd_server::{Json, ResultCache};

use crate::drive::{Conn, Sample, Server};
use crate::gen::{Step, Workload, CACHE_CAP};

// The window runs as a warm-up round and then `gen::ROUNDS` rounds of
// equal work, and the timing metrics are medians over the timed rounds:
// the machine's speed changes in spells of a few seconds (other
// tenants), and a median over rounds follows the common spell rather
// than the mix of spells in one run. The warm-up round is sent, checked
// and counted like the others but not timed: the first second after the
// server turns busy runs measurably slower.

/// Fresh servers set up per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    out: PathBuf,
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run reports.
struct RunResult {
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Further figures printed for reading, not part of the result line.
    info: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Counts that must repeat exactly for this seed.
    exact: Vec<(&'static str, u64)>,
    problems: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdbench --workload <{}> --seed N --seconds S --trace <0|1> [--repeat N] [--out DIR]",
        gen::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: 1,
        out: PathBuf::from("sdbench/out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.chunks(2);
    for pair in &mut it {
        let [flag, value] = pair else { return None };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|&s| s > 0)?,
            "--trace" => args.trace = matches!(value.as_str(), "1"),
            "--repeat" => args.repeat = value.parse().ok().filter(|&n| n > 0)?,
            "--out" => args.out = PathBuf::from(value),
            _ => return None,
        }
    }
    gen::WORKLOADS
        .contains(&args.workload.as_str())
        .then_some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    match run(&args) {
        // A failed check is reported in the result line (`correct`).
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sdbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn sdserved_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("sdserved");
    bin.exists()
        .then_some(bin)
        .ok_or_else(|| "sdserved is not built next to sdbench".into())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the mode `args` asks for and prints its result line.
fn run(args: &Args) -> Result<(), String> {
    let bin = sdserved_path()?;
    let lanes = nproc();
    let probe =
        gen::build(&args.workload, args.seed, args.seconds, lanes).expect("workload checked");
    let flags = drive::server_flags(lanes, probe.registry_cap);
    let stamp = format!(
        "# sdbench workload={} seed={} seconds={} trace={} nproc={} rev={} profile={} sdserved_flags=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        lanes,
        git_rev(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        flags.join(" ")
    );
    println!("{stamp}");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut results = Vec::new();
    for rep in 0..args.repeat {
        let r = run_once(args, &bin, &flags, lanes)?;
        if args.repeat > 1 {
            println!("# repeat {} of {}", rep + 1, args.repeat);
        }
        print_run(&r);
        results.push(r);
    }
    let mut problems: Vec<String> = results.iter().flat_map(|r| r.problems.clone()).collect();
    for (i, r) in results.iter().enumerate().skip(1) {
        if r.exact != results[0].exact {
            problems.push(format!(
                "exact counts of repeat {} differ from repeat 1: {:?} vs {:?}",
                i + 1,
                r.exact,
                results[0].exact
            ));
        }
    }
    let final_metrics = if results.len() > 1 {
        spread_report(&results)
    } else {
        results[0].metrics.clone()
    };
    for p in &problems {
        eprintln!("sdbench: FAILED: {p}");
    }
    let correct = problems.is_empty();
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let line = result_json(correct, attempted, failed, &final_metrics);
    let record = args.out.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record, format!("{stamp}\n{line}\n"))
        .map_err(|e| format!("{}: {e}", record.display()))?;
    println!("{line}");
    Ok(())
}

fn print_run(r: &RunResult) {
    for m in r.metrics.iter().chain(&r.info) {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Prints median, quartiles and (max−min)/median per metric over the
/// repeats, flagging spreads over a tenth, and returns the medians.
fn spread_report(results: &[RunResult]) -> Vec<Metric> {
    println!(
        "# spread over {} repeats: metric, median, q1, q3, (max-min)/median",
        results.len()
    );
    let first = &results[0];
    let mut medians = Vec::new();
    for (k, m) in first.metrics.iter().chain(&first.info).enumerate() {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.metrics.iter().chain(&r.info).nth(k))
            .map(|x| x.value)
            .collect();
        let med = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let spread = if med == 0.0 {
            0.0
        } else {
            (max - min) / med.abs()
        };
        let flag = if spread > 0.1 { "  SPREAD>0.1" } else { "" };
        println!(
            "{:<32} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {}{flag}",
            m.name, med, q1, q3, spread, m.unit
        );
        if k < first.metrics.len() {
            medians.push(metric(&m.name, med, m.unit));
        }
    }
    medians
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj()
        .bool_field("correct", correct)
        .u64_field("attempted", attempted)
        .u64_field("failed", failed);
    j.begin_obj_field("metrics");
    for m in metrics {
        j.begin_obj_field(&m.name)
            .raw_field("value", &json_number(m.value))
            .str_field("unit", m.unit)
            .end_obj();
    }
    j.end_obj().end_obj();
    j.finish()
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// A key for a query that is equal exactly when the requests ask the
/// same question (limits aside), as the server's fingerprint should be.
fn request_key(w: &Workload, q: usize) -> u128 {
    let r = &w.queries[q].req;
    let mut h = DefaultHasher::new();
    (
        r.kind.method(),
        &r.phi,
        &r.a,
        &r.beta,
        &r.set,
        &r.sources,
        r.bound,
    )
        .hash(&mut h);
    (u128::from(r.system) << 64) | u128::from(h.finish())
}

/// The cache counts the request stream must produce: the stream's
/// questions run through an LRU of the server's capacity. Every reuse
/// in these workloads is at a distance far below the capacity, so the
/// counts do not depend on how the lanes interleave.
fn predicted_cache(w: &Workload) -> sd_server::CacheStats {
    let model = ResultCache::new(CACHE_CAP);
    let empty: Arc<str> = Arc::from("");
    for step in replay::stream(w) {
        if let Step::Query(q) = step {
            let key = request_key(w, q);
            if model.get(key).is_none() {
                model.insert(key, Arc::clone(&empty));
            }
        }
    }
    model.stats()
}

fn get_u64(j: &Json, path: &[&str]) -> u64 {
    let mut cur = j;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

/// Server-side request count and summed duration over query methods.
fn server_query_time(m: &Json) -> (u64, u64) {
    let (mut count, mut sum) = (0, 0);
    for method in ["depends", "sinks", "sinks_matrix"] {
        for temp in ["cold", "warm"] {
            count += get_u64(m, &["metrics", "durations", method, temp, "count"]);
            sum += get_u64(m, &["metrics", "durations", method, temp, "sum_ns"]);
        }
    }
    (count, sum)
}

/// A server after set-up.
struct Setup {
    server: Server,
    control: Conn,
    /// `(id, query, response)` of each cache-fill request.
    fill: Vec<(u64, usize, String)>,
    secs: f64,
}

/// Starts a fresh server, waits until it answers, registers the setup
/// systems and answers the cache fill, timing all of it.
fn setup(bin: &Path, flags: &[String], w: &Workload) -> Result<Setup, String> {
    let t0 = Instant::now();
    let server = Server::start(bin, flags)?;
    let mut control = Conn::open(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let pong = control
        .call(&drive::encode(1_000_000_000, sd_server::Request::Ping))
        .map_err(|e| format!("ping: {e}"))?;
    if !pong.contains("\"ok\":true") {
        return Err(format!("ping failed: {pong}"));
    }
    let mut id = 1_000_000_000u64;
    let mut call = |control: &mut Conn, step: Step| -> Result<(u64, String), String> {
        id += 1;
        let line = drive::step_line(w, id, step);
        Ok((
            id,
            control
                .call(&line)
                .map_err(|e| format!("setup request: {e}"))?,
        ))
    };
    for &s in &w.setup_systems {
        let (id, resp) = call(&mut control, Step::Register(s))?;
        check::check_register(&resp, id, w.systems[s].content_key())?;
    }
    let mut fill = Vec::with_capacity(w.fill.len());
    for &q in &w.fill {
        let (id, resp) = call(&mut control, Step::Query(q))?;
        fill.push((id, q, resp));
    }
    Ok(Setup {
        server,
        control,
        fill,
        secs: t0.elapsed().as_secs_f64(),
    })
}

fn run_once(args: &Args, bin: &Path, flags: &[String], lanes: usize) -> Result<RunResult, String> {
    let w = gen::build(&args.workload, args.seed, args.seconds, lanes).expect("workload checked");
    let mut problems = Vec::new();
    if gen::build(&args.workload, args.seed, args.seconds, lanes).as_ref() != Some(&w) {
        problems.push("the generator gave two streams for one seed".to_string());
    }
    let expected = check::expected_answers(&w, lanes)?;
    let lane_lines = drive::encode_lanes(&w);
    let ticks = procfs::ticks_per_second();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        let s = setup(bin, flags, &w)?;
        setup_s.push(s.secs);
        if k + 1 < SETUPS {
            s.server.stop(s.control)?;
        } else {
            live = Some(s);
        }
    }
    let Setup {
        server,
        mut control,
        fill,
        ..
    } = live.expect("at least one setup");
    for (id, q, resp) in &fill {
        if let Err(e) = check::check_query(resp, *id, &expected[*q]) {
            problems.push(format!("cache fill: {e}"));
        }
    }
    let conns = w
        .lanes
        .iter()
        .map(|lane| match lane.iter().flatten().next() {
            Some(s) if !s.connect => Conn::open(&server.addr).map(Some),
            _ => Ok(None),
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let before = control.metrics()?;
    let window = drive::run_window(&server.addr, &lane_lines, conns, || {
        procfs::cpu_seconds(server.pid, ticks).unwrap_or(0.0)
    });
    let after = control.metrics()?;
    let rss = procfs::peak_rss_mib(server.pid).unwrap_or(0.0);
    server.stop(control)?;

    // Every answer against its expected bytes.
    let mut ok = vec![false; window.samples.len()];
    for (i, s) in window.samples.iter().enumerate() {
        let verdict = s
            .response
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|line| match s.step {
                Step::Query(q) => check::check_query(line, s.id, &expected[q]),
                Step::Register(sys) => {
                    check::check_register(line, s.id, w.systems[sys].content_key())
                }
            });
        match verdict {
            Ok(()) => ok[i] = true,
            Err(e) if problems.len() < 20 => problems.push(format!("request {}: {e}", s.id)),
            Err(_) => {}
        }
    }
    let attempted = window.samples.len() as u64;
    let good = ok.iter().filter(|&&x| x).count() as u64;
    let failed = attempted - good;
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} requests failed or answered wrongly"
        ));
    }

    // Exact-count guard: the scrape must match the stream's prediction.
    let predicted = predicted_cache(&w);
    let registered = (w.setup_systems.len()
        + w.lanes
            .iter()
            .flatten()
            .flatten()
            .flat_map(|s| &s.steps)
            .filter(|s| matches!(s, Step::Register(_)))
            .count()) as u64;
    let scraped = [
        (
            "cache_hits",
            get_u64(&after, &["metrics", "cache", "hits"]),
            predicted.hits,
        ),
        (
            "cache_misses",
            get_u64(&after, &["metrics", "cache", "misses"]),
            predicted.misses,
        ),
        (
            "cache_evictions",
            get_u64(&after, &["metrics", "cache", "evictions"]),
            predicted.evictions,
        ),
        (
            "registrations",
            get_u64(&after, &["metrics", "registry", "systems"]),
            registered,
        ),
    ];
    for (name, got, want) in scraped {
        if got != want {
            problems.push(format!(
                "exact count {name}: scraped {got}, stream gives {want}"
            ));
        }
    }
    let mut exact: Vec<(&'static str, u64)> = scraped.iter().map(|(n, g, _)| (*n, *g)).collect();

    let good_samples: Vec<&Sample> = window
        .samples
        .iter()
        .zip(&ok)
        .filter(|(_, &k)| k)
        .map(|(s, _)| s)
        .collect();
    let ms = |s: &Sample| s.rtt.as_secs_f64() * 1e3;
    // Throughput, p50 and CPU pool the timed rounds: the machine's speed
    // changes in spells of 5 to 10 s (other tenants), and a pooled
    // figure averages the spells a run sees where a median over rounds
    // would jump between them. p99 is the median of the rounds' p99s:
    // a pooled p99 is set by whichever round the machine stalled in.
    let timed = &window.rounds[1..];
    let wall: f64 = timed.iter().map(|r| r.wall.as_secs_f64()).sum();
    let cpu: f64 = timed.iter().map(|r| r.cpu_s).sum();
    let mut lat: Vec<f64> = good_samples
        .iter()
        .filter(|s| s.round > 0)
        .map(|s| ms(s))
        .collect();
    lat.sort_by(f64::total_cmp);
    let mut by_round: Vec<Vec<f64>> = vec![Vec::new(); timed.len()];
    for s in good_samples.iter().filter(|s| s.round > 0) {
        by_round[s.round - 1].push(ms(s));
    }
    let mut round_p99 = Vec::with_capacity(timed.len());
    let mut per_round = Vec::with_capacity(timed.len());
    for (r, lat) in timed.iter().zip(&mut by_round) {
        lat.sort_by(f64::total_cmp);
        round_p99.extend(stats::nearest_rank(lat, 99.0));
        per_round.push(format!(
            "{:.1}",
            lat.len() as f64 / r.wall.as_secs_f64().max(1e-9)
        ));
    }
    println!("# throughput per round (1/s): {}", per_round.join(" "));
    let p99s: Vec<String> = round_p99.iter().map(|p| format!("{p:.4}")).collect();
    println!("# p99 per round (ms): {}", p99s.join(" "));
    let (c0, s0) = server_query_time(&before);
    let (c1, s1) = server_query_time(&after);
    let query_rtts: Vec<f64> = good_samples
        .iter()
        .filter(|s| matches!(s.step, Step::Query(_)))
        .map(|s| s.rtt.as_secs_f64() * 1e6)
        .collect();
    let server_mean_us = if c1 > c0 {
        (s1 - s0) as f64 / (c1 - c0) as f64 / 1e3
    } else {
        0.0
    };
    let client_mean_us = query_rtts.iter().sum::<f64>() / query_rtts.len().max(1) as f64;
    let mut first_rtt: Vec<f64> = good_samples
        .iter()
        .filter(|s| s.first)
        .map(|s| ms(s))
        .collect();
    first_rtt.sort_by(f64::total_cmp);

    let e2e = vec![
        metric("throughput_rps", lat.len() as f64 / wall.max(1e-9), "1/s"),
        metric(
            "latency_p50_ms",
            stats::nearest_rank(&lat, 50.0).unwrap_or(0.0),
            "ms",
        ),
        metric("latency_p99_ms", stats::median(&round_p99), "ms"),
        metric(
            "server_cpu_us_per_req",
            cpu * 1e6 / lat.len().max(1) as f64,
            "us",
        ),
        metric("server_peak_rss_mb", rss, "MiB"),
        metric("setup_s", stats::median(&setup_s), "s"),
        metric(
            "success_ratio",
            good as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let memo = |k: &str| {
        get_u64(&after, &["metrics", "oracle", k])
            .saturating_sub(get_u64(&before, &["metrics", "oracle", k]))
    };
    let mut info = vec![
        metric(
            "error_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("samples", attempted as f64, "count"),
        metric("timed_samples", lat.len() as f64, "count"),
        metric("timed_window_s", wall, "s"),
        metric(
            "latency_p99_pooled_ms",
            stats::nearest_rank(&lat, 99.0).unwrap_or(0.0),
            "ms",
        ),
        metric("server_mean_us", server_mean_us, "us"),
        metric(
            "scraped.memo_rows_materialized",
            memo("memo_rows_materialized") as f64,
            "count",
        ),
        metric(
            "scraped.memo_rows_reused",
            memo("memo_rows_reused") as f64,
            "count",
        ),
    ];

    let metrics = if args.trace {
        let traced = replay::replay(&w, true)?;
        let plain = replay::replay(&w, false)?;
        if traced.counts != plain.counts {
            problems.push(format!(
                "exact counts differ between the two replays: {:?} vs {:?}",
                traced.counts, plain.counts
            ));
        }
        for (name, got, _) in &scraped {
            let replayed = match *name {
                "cache_hits" => traced.counts.hits,
                "cache_misses" => traced.counts.misses,
                "cache_evictions" => traced.counts.evictions,
                _ => traced.counts.registrations,
            };
            if replayed != *got {
                problems.push(format!(
                    "exact count {name}: replay {replayed}, scraped {got}"
                ));
            }
        }
        exact.extend([
            ("interned_phis", traced.counts.interned_phis),
            ("pair_expansions", traced.counts.pair_expansions),
            ("visited_pairs", traced.counts.visited_pairs),
        ]);
        let spans_path = args.out.join(format!("spans-{}.tsv", args.workload));
        replay::write_spans(&spans_path, &traced.spans)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        info.push(metric("trace.spans", traced.spans.len() as f64, "count"));
        let layer = |name: &str| {
            traced
                .layers
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |l| l.1)
        };
        let mut out = vec![
            metric(
                "server.transport_queue_us",
                client_mean_us - server_mean_us,
                "us",
            ),
            metric(
                "server.accept_wait_ms",
                if first_rtt.is_empty() {
                    0.0
                } else {
                    stats::nearest_rank(&first_rtt, 50.0).unwrap_or(0.0)
                        - layer("registry.register_ms_p50")
                },
                "ms",
            ),
        ];
        out.extend(traced.layers.iter().map(|(n, v, u)| metric(n, *v, u)));
        out.push(metric(
            "trace.overhead_ratio",
            traced.wall.as_secs_f64() / plain.wall.as_secs_f64().max(1e-9) - 1.0,
            "ratio",
        ));
        info.extend(e2e);
        out
    } else {
        e2e
    };
    Ok(RunResult {
        metrics,
        info,
        attempted,
        failed,
        exact,
        problems,
    })
}
