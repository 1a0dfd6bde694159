//! `sdcheck` — command-line information-flow analysis for programs in the
//! mini language, built on the Strong Dependency formalism.
//!
//! ```text
//! sdcheck analyze <file> --from VAR --to VAR [--entry EXPR] [--assert L=EXPR]...
//!     Decide whether VAR can transmit information to VAR, exactly (pair
//!     reachability). With assertions, also attempt the §6.5 Floyd-cover
//!     proof and print its certificate.
//!
//! sdcheck certify <file> --cls VAR=LEVEL... [--levels L1<L2<...]
//!     Denning-style static certification against a chain lattice
//!     (default two-point L < H).
//!
//! sdcheck compile <file>
//!     Show the pc-guarded compilation of the program.
//!
//! sdcheck run <file> --init VAR=VALUE... [--fuel N]
//!     Execute the program and print the final environment.
//!
//! sdcheck client <op> [--addr HOST:PORT] ...
//!     Talk to a running `sdserved` daemon: register systems, run
//!     depends/sinks queries remotely, fetch stats, shut it down.
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use strong_dependency::core::{ObjSet, Phi};
use strong_dependency::flow::{certify, Classification, FiniteLattice};
use strong_dependency::lang::{compile, eval, floyd, parse, Assertions, Val};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sdcheck: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "analyze" => analyze(&args[1..]),
        "worth" => do_worth(&args[1..]),
        "certify" => do_certify(&args[1..]),
        "compile" => do_compile(&args[1..]),
        "run" => do_run(&args[1..]),
        "client" => do_client(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  sdcheck analyze <file> --from VAR --to VAR [--entry EXPR] [--assert LABEL=EXPR]...\n  \
     sdcheck worth <file> [--entry EXPR]\n  \
     sdcheck certify <file> --cls VAR=LEVEL... [--levels L1<L2<...]\n  \
     sdcheck compile <file>\n  \
     sdcheck run <file> --init VAR=VALUE... [--fuel N]\n  \
     sdcheck client (ping|register|depends|sinks|metrics|slowlog|shutdown) [--addr HOST:PORT] ...\n      \
     system: --system KEY | --example NAME [--params P1,P2,...] | --program FILE\n      \
     query:  --from VAR[,VAR...] --to VAR [--phi EXPR] [--bound N] [--timeout-ms N] [--max-pairs N]\n      \
     scrape: metrics [--prom] | slowlog [--limit N]"
        .to_string()
}

/// Splits `args` into the file path and `--flag value` pairs (flags may
/// repeat).
fn parse_flags(args: &[String]) -> Result<(String, Vec<(String, String)>), String> {
    let mut file = None;
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else if file.is_none() {
            file = Some(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    let file = file.ok_or_else(|| "missing input file".to_string())?;
    Ok((file, flags))
}

fn load(file: &str) -> Result<strong_dependency::lang::Program, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    parse(&src).map_err(|e| format!("{file}: {e}"))
}

fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let (file, flags) = parse_flags(args)?;
    let program = load(&file)?;
    let compiled = compile(&program).map_err(|e| e.to_string())?;

    let mut from = None;
    let mut to = None;
    let mut ann = Assertions::new();
    let mut have_assertions = false;
    for (flag, value) in &flags {
        match flag.as_str() {
            "from" => from = Some(value.clone()),
            "to" => to = Some(value.clone()),
            "entry" => {
                ann = ann.with_entry(value).map_err(|e| e.to_string())?;
                have_assertions = true;
            }
            "assert" => {
                let (label, expr) = value
                    .split_once('=')
                    .ok_or_else(|| "--assert expects LABEL=EXPR".to_string())?;
                let label: i64 = label
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad label `{label}`"))?;
                ann = ann.with_at(label, expr).map_err(|e| e.to_string())?;
                have_assertions = true;
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let from = from.ok_or_else(|| "--from is required".to_string())?;
    let to = to.ok_or_else(|| "--to is required".to_string())?;

    // Exact answer first.
    let phi = floyd::entry_phi(&compiled, &ann).map_err(|e| e.to_string())?;
    let a = ObjSet::singleton(compiled.var(&from).map_err(|e| e.to_string())?);
    let beta = compiled.var(&to).map_err(|e| e.to_string())?;
    let witness = strong_dependency::core::Query::new(phi.clone(), a.clone())
        .beta(beta)
        .run_on(&compiled.system)
        .map_err(|e| e.to_string())?
        .into_witness();
    match &witness {
        Some(w) => {
            println!("FLOW: {from} ▷ {to} — information can be transmitted.");
            println!(
                "  witness history: {} ({} steps)",
                w.history,
                w.history.len()
            );
            println!("  σ1 = {}", w.sigma1.display(compiled.system.universe()));
            println!("  σ2 = {}", w.sigma2.display(compiled.system.universe()));
        }
        None => println!("NO FLOW: ¬{from} ▷φ {to} — no history transmits information."),
    }

    // Floyd proof attempt when assertions were supplied.
    if have_assertions && witness.is_none() {
        let legal = floyd::verify_assertions(&compiled, &ann).map_err(|e| e.to_string())?;
        if !legal {
            println!("note: the supplied assertions are not an inductive cover (Def 6-2).");
        } else {
            match floyd::prove_no_flow(&compiled, &ann, &from, &to).map_err(|e| e.to_string())? {
                strong_dependency::core::certificate::ProofOutcome::Proved(cert) => {
                    println!("\nFloyd-cover proof (Theorem 6-7):\n{cert}");
                }
                strong_dependency::core::certificate::ProofOutcome::Inapplicable(r) => {
                    println!("note: Floyd-cover proof inapplicable: {r}");
                }
            }
        }
    }
    Ok(if witness.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Prints the worth (§3.6) of the entry constraint: every variable-to-
/// variable information path the program still permits.
fn do_worth(args: &[String]) -> Result<ExitCode, String> {
    let (file, flags) = parse_flags(args)?;
    let program = load(&file)?;
    let compiled = compile(&program).map_err(|e| e.to_string())?;
    let mut ann = Assertions::new();
    for (flag, value) in &flags {
        match flag.as_str() {
            "entry" => ann = ann.with_entry(value).map_err(|e| e.to_string())?,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let phi = floyd::entry_phi(&compiled, &ann).map_err(|e| e.to_string())?;
    let w =
        strong_dependency::core::worth::worth(&compiled.system, &phi).map_err(|e| e.to_string())?;
    let u = compiled.system.universe();
    let vars: std::collections::BTreeSet<&str> = compiled.vars.keys().map(|s| s.as_str()).collect();
    println!("permitted information paths among program variables:");
    let mut count = 0;
    for (a, b) in w.paths() {
        let (na, nb) = (u.name(a), u.name(b));
        if vars.contains(na) && vars.contains(nb) && na != nb {
            println!("  {na} ▷ {nb}");
            count += 1;
        }
    }
    if count == 0 {
        println!("  (none)");
    }
    println!("({count} non-reflexive paths; pc-involving paths omitted)");
    Ok(ExitCode::SUCCESS)
}

fn do_certify(args: &[String]) -> Result<ExitCode, String> {
    let (file, flags) = parse_flags(args)?;
    let program = load(&file)?;
    let mut levels: Vec<String> = vec!["L".into(), "H".into()];
    let mut bindings: Vec<(String, String)> = Vec::new();
    for (flag, value) in &flags {
        match flag.as_str() {
            "levels" => levels = value.split('<').map(|s| s.trim().to_string()).collect(),
            "cls" => {
                let (var, lvl) = value
                    .split_once('=')
                    .ok_or_else(|| "--cls expects VAR=LEVEL".to_string())?;
                bindings.push((var.trim().to_string(), lvl.trim().to_string()));
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let level_refs: Vec<&str> = levels.iter().map(|s| s.as_str()).collect();
    let lat = FiniteLattice::chain(&level_refs).map_err(|e| e.to_string())?;
    let mut cls = Classification::new();
    for (var, lvl) in &bindings {
        let label = lat.label(lvl).map_err(|e| e.to_string())?;
        cls = cls.with(var.clone(), label);
    }
    let result = certify(&program, &lat, &cls).map_err(|e| e.to_string())?;
    if result.ok() {
        println!("CERTIFIED: no statically detectable down-flow.");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("REJECTED: {} violation(s).", result.violations.len());
        for v in &result.violations {
            println!(
                "  `{}` — {} flow from {} to {} (target `{}`)",
                v.stmt,
                if v.implicit { "implicit" } else { "explicit" },
                lat.name(v.from),
                lat.name(v.to),
                v.target
            );
        }
        Ok(ExitCode::from(1))
    }
}

fn do_compile(args: &[String]) -> Result<ExitCode, String> {
    let (file, flags) = parse_flags(args)?;
    if let Some((f, _)) = flags.first() {
        return Err(format!("unknown flag --{f}"));
    }
    let program = load(&file)?;
    let compiled = compile(&program).map_err(|e| e.to_string())?;
    println!(
        "{} program points; entry pc = {}, exit pc = {}",
        compiled.flat.len(),
        compiled.entry,
        compiled.exit
    );
    for f in &compiled.flat {
        println!("  δ{}: {}", f.label, f.text);
    }
    println!(
        "state space: {} states",
        compiled.system.state_count().map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn do_run(args: &[String]) -> Result<ExitCode, String> {
    let (file, flags) = parse_flags(args)?;
    let program = load(&file)?;
    let mut env: eval::Env = BTreeMap::new();
    let mut fuel = 10_000u64;
    for (flag, value) in &flags {
        match flag.as_str() {
            "init" => {
                let (var, val) = value
                    .split_once('=')
                    .ok_or_else(|| "--init expects VAR=VALUE".to_string())?;
                let val = val.trim();
                let v = if val == "true" {
                    Val::Bool(true)
                } else if val == "false" {
                    Val::Bool(false)
                } else {
                    Val::Int(val.parse().map_err(|_| format!("bad value `{val}`"))?)
                };
                env.insert(var.trim().to_string(), v);
            }
            "fuel" => {
                fuel = value.parse().map_err(|_| format!("bad fuel `{value}`"))?;
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    // Default any missing variables to their lowest domain value.
    for (name, ty) in &program.decls {
        env.entry(name.clone()).or_insert(match ty {
            strong_dependency::lang::Type::Bool => Val::Bool(false),
            strong_dependency::lang::Type::Int { lo, .. } => Val::Int(*lo),
        });
    }
    let out = eval::run(&program, &env, fuel).map_err(|e| e.to_string())?;
    for (name, val) in &out {
        let rendered = match val {
            Val::Bool(b) => b.to_string(),
            Val::Int(i) => i.to_string(),
        };
        println!("{name} = {rendered}");
    }
    // Keep Phi referenced to make the core dependency explicit.
    let _ = Phi::True;
    Ok(ExitCode::SUCCESS)
}

/// `sdcheck client` — the remote counterpart of `analyze`, speaking the
/// sd-server JSON-lines protocol to a running `sdserved`.
fn do_client(args: &[String]) -> Result<ExitCode, String> {
    use strong_dependency::server::{Client, QueryReq, SystemDesc};

    let Some(op) = args.first() else {
        return Err(format!("client needs an operation\n{}", usage()));
    };
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        // `--prom` is a boolean switch; every other flag takes a value.
        if name == "prom" {
            flags.push((name.to_string(), "true".to_string()));
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    let get = |k: &str| {
        flags
            .iter()
            .rev()
            .find(|(f, _)| f == k)
            .map(|(_, v)| v.as_str())
    };

    let addr = get("addr").unwrap_or("127.0.0.1:4177");
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;

    // The target system: an existing registry key, or a description that
    // is registered (idempotently — same content, same key) first.
    let desc = || -> Result<SystemDesc, String> {
        if let Some(name) = get("example") {
            let params = match get("params") {
                None => Vec::new(),
                Some(p) => p
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<i64>()
                            .map_err(|_| format!("bad param `{s}`"))
                    })
                    .collect::<Result<Vec<i64>, String>>()?,
            };
            Ok(SystemDesc::Example {
                name: name.to_string(),
                params,
            })
        } else if let Some(file) = get("program") {
            let source =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            Ok(SystemDesc::Program { source })
        } else {
            Err("need --system KEY, --example NAME or --program FILE".to_string())
        }
    };
    let system_key = |c: &mut Client| -> Result<u64, String> {
        if let Some(key) = get("system") {
            return key.parse().map_err(|_| format!("bad system key `{key}`"));
        }
        c.register(desc()?).map_err(|e| e.to_string())
    };

    // A query with the shared option flags applied.
    let finish_query = |mut q: QueryReq| -> Result<QueryReq, String> {
        if let Some(phi) = get("phi") {
            q.phi = Some(phi.to_string());
        }
        if let Some(b) = get("bound") {
            q.bound = Some(b.parse().map_err(|_| format!("bad bound `{b}`"))?);
        }
        if let Some(t) = get("timeout-ms") {
            q.timeout_ms = Some(t.parse().map_err(|_| format!("bad timeout `{t}`"))?);
        }
        if let Some(m) = get("max-pairs") {
            q.max_pairs = Some(m.parse().map_err(|_| format!("bad max-pairs `{m}`"))?);
        }
        Ok(q)
    };
    let from = || -> Result<Vec<String>, String> {
        let src = get("from").ok_or_else(|| "--from is required".to_string())?;
        Ok(src
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect())
    };

    match op.as_str() {
        "ping" => {
            c.ping().map_err(|e| e.to_string())?;
            println!("pong ({addr})");
            Ok(ExitCode::SUCCESS)
        }
        "register" => {
            let key = c.register(desc()?).map_err(|e| e.to_string())?;
            println!("system {key}");
            Ok(ExitCode::SUCCESS)
        }
        "depends" => {
            let key = system_key(&mut c)?;
            let to = get("to").ok_or_else(|| "--to is required".to_string())?;
            let req = finish_query(QueryReq::depends(key, from()?, to))?;
            let resp = c.query(req).map_err(|e| e.to_string())?;
            let holds = resp
                .answer
                .as_ref()
                .and_then(|a| a.get("holds"))
                .and_then(strong_dependency::server::Json::as_bool)
                .ok_or_else(|| "malformed depends answer".to_string())?;
            let cached = if resp.cached { " (cached)" } else { "" };
            if holds {
                println!("FLOW: information can be transmitted.{cached}");
                Ok(ExitCode::from(1))
            } else {
                println!("NO FLOW: no history transmits information.{cached}");
                Ok(ExitCode::SUCCESS)
            }
        }
        "sinks" => {
            let key = system_key(&mut c)?;
            let req = finish_query(QueryReq::sinks(key, from()?))?;
            let objs = c.sinks(req).map_err(|e| e.to_string())?;
            println!("sinks: {}", objs.join(" "));
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            use strong_dependency::server::Json;
            if get("prom").is_some() {
                // Raw Prometheus exposition, ready to pipe into a file
                // or a scrape-format validator.
                let text = c.metrics_prom().map_err(|e| e.to_string())?;
                print!("{text}");
                return Ok(ExitCode::SUCCESS);
            }
            let m = c.metrics().map_err(|e| e.to_string())?;
            let u64_at = |v: &Json, path: &[&str]| {
                let mut v = v.clone();
                for k in path {
                    v = v.get(k)?.clone();
                }
                v.as_u64()
            };
            if let Some(up) = u64_at(&m, &["uptime_s"]) {
                println!("uptime_s: {up}");
            }
            if let Some(reqs) = m.get("requests").and_then(|r| r.as_obj()) {
                println!("requests:");
                for (method, outcomes) in reqs {
                    if let Some(outcomes) = outcomes.as_obj() {
                        let cells: Vec<String> = outcomes
                            .iter()
                            .filter_map(|(o, n)| n.as_u64().map(|n| format!("{o}={n}")))
                            .collect();
                        println!("  {method}: {}", cells.join(" "));
                    }
                }
            }
            if let Some(durs) = m.get("durations").and_then(|d| d.as_obj()) {
                println!("latency (ns):");
                for (method, by_temp) in durs {
                    if let Some(by_temp) = by_temp.as_obj() {
                        for (temp, snap) in by_temp {
                            let (p50, p99, count) = (
                                u64_at(snap, &["p50_ns"]).unwrap_or(0),
                                u64_at(snap, &["p99_ns"]).unwrap_or(0),
                                u64_at(snap, &["count"]).unwrap_or(0),
                            );
                            println!("  {method}/{temp}: count={count} p50={p50} p99={p99}");
                        }
                    }
                }
            }
            for (label, path) in [
                ("cache hits", &["cache", "hits"][..]),
                ("cache misses", &["cache", "misses"][..]),
                ("oracle compiles", &["oracle", "compiles"][..]),
                ("partition hits", &["oracle", "partition_hits"][..]),
                ("slow queries", &["slowlog", "captured"][..]),
                ("access log dropped", &["access_log_dropped"][..]),
            ] {
                if let Some(v) = u64_at(&m, path) {
                    println!("{label}: {v}");
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "slowlog" => {
            use strong_dependency::server::Request;
            let limit = match get("limit") {
                None => None,
                Some(l) => Some(l.parse::<u64>().map_err(|_| format!("bad limit `{l}`"))?),
            };
            // Print the raw response line: each entry is a complete
            // slow-query JSON object with its phase breakdown.
            let (_, raw) = c
                .call_raw(Request::SlowLog { limit })
                .map_err(|e| e.to_string())?;
            println!("{raw}");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            c.shutdown().map_err(|e| e.to_string())?;
            println!("server draining");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown client operation `{other}`\n{}", usage())),
    }
}
