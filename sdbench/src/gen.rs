//! Seeded workload generators.
//!
//! Everything a run sends is generated here from `--seed` before the
//! timed window: the systems, the queries, and the order in which each
//! client lane issues them. The same seed always yields the same
//! stream (see the tests), so counts derived from a stream repeat
//! exactly from run to run.

use std::collections::HashSet;

use sd_server::{QueryKind, QueryReq, SystemDesc};

/// SplitMix64: tiny, seedable, and stable across platforms and
/// toolchains, so a seed names the same stream everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One step a client lane performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Register `systems[i]`.
    Register(usize),
    /// Ask `queries[i]`.
    Query(usize),
}

/// Steps sent on one connection. `connect` sessions open their
/// connection inside the timed window and close it at the end;
/// otherwise they use the lane's connection, opened before the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Whether the session connects inside the timed window.
    pub connect: bool,
    /// The steps, in order.
    pub steps: Vec<Step>,
}

/// A query against one of the workload's systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Index into [`Workload::systems`].
    pub system: usize,
    /// The wire request (its `system` key is the description's
    /// content key, which clients can predict).
    pub req: QueryReq,
}

/// A generated workload: what setup registers and answers, and what
/// each client lane sends inside the timed window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Every system the run registers (setup and in-window).
    pub systems: Vec<SystemDesc>,
    /// Every query the run asks.
    pub queries: Vec<Query>,
    /// Systems registered during setup.
    pub setup_systems: Vec<usize>,
    /// Queries answered once during setup (the cache fill).
    pub fill: Vec<usize>,
    /// Per lane and round, the sessions it runs inside the timed
    /// window: a warm-up round, then [`ROUNDS`] timed rounds. All lanes
    /// start each round together.
    pub lanes: Vec<Vec<Vec<Session>>>,
    /// The `--registry-cap` the server needs for this stream.
    pub registry_cap: usize,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["warm_hits", "cold_search", "tenant_sessions"];

/// The result cache capacity sdserved runs with (its default).
pub const CACHE_CAP: usize = 1024;

/// Timed rounds per run, after one warm-up round.
pub const ROUNDS: usize = 10;

/// Builds workload `name` for `seed`, sized for a window of about
/// `seconds` on a two-core machine, with `lanes` client connections.
pub fn build(name: &str, seed: u64, seconds: u64, lanes: usize) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let lanes = lanes.max(1);
    let seconds = seconds.max(1) as usize;
    Some(match name {
        "warm_hits" => warm_hits(&mut rng, 22_000 * seconds, lanes),
        "cold_search" => cold_search(&mut rng, 1_300 * seconds, lanes),
        "tenant_sessions" => tenant_sessions(&mut rng, 100 * seconds, lanes),
        _ => return None,
    })
}

fn example(name: &str, params: &[i64]) -> SystemDesc {
    SystemDesc::Example {
        name: name.into(),
        params: params.to_vec(),
    }
}

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// The query shapes asked of a system: β targets with and without
/// flow, set targets, sinks, and one sinks matrix over the sources.
fn shapes(system: u64, objs: &[&str], phi: Option<&str>, out: &mut Vec<QueryReq>) {
    let with_phi = |mut q: QueryReq| {
        q.phi = phi.map(str::to_string);
        q
    };
    for (i, a) in objs.iter().enumerate() {
        for (j, b) in objs.iter().enumerate() {
            if i != j {
                out.push(with_phi(QueryReq::depends(system, names(&[a]), *b)));
            }
        }
        out.push(with_phi(QueryReq::sinks(system, names(&[a]))));
        if objs.len() >= 3 {
            let mut set: Vec<String> = objs
                .iter()
                .filter(|o| *o != a)
                .take(2)
                .map(|s| s.to_string())
                .collect();
            set.sort();
            let mut q = QueryReq::sinks(system, names(&[a]));
            q.kind = QueryKind::Depends;
            q.set = set;
            out.push(with_phi(q));
        }
    }
    let rows = objs.iter().map(|o| names(&[o])).collect();
    out.push(with_phi(QueryReq::matrix(system, rows)));
}

/// Adds every shape of `objs` under every φ in `phis` for system `sys`.
fn candidates(w: &Workload, sys: usize, objs: &[&str], phis: &[String]) -> Vec<Query> {
    let key = w.systems[sys].content_key();
    let mut reqs = Vec::new();
    for phi in phis {
        let phi = (!phi.is_empty()).then_some(phi.as_str());
        shapes(key, objs, phi, &mut reqs);
    }
    reqs.into_iter()
        .map(|req| Query { system: sys, req })
        .collect()
}

/// A random straight-line sd-lang program over `ints` integer
/// variables `v0…` with domain `0..=hi`, one boolean `b0`, and `stmts`
/// statements. Every assignment stays inside its variable's domain.
pub fn program(rng: &mut Rng, ints: usize, hi: i64, stmts: usize) -> String {
    let mut src = String::new();
    for i in 0..ints {
        src.push_str(&format!("var v{i}: int 0..{hi};\n"));
    }
    src.push_str("var b0: bool;\n");
    let v = |rng: &mut Rng| format!("v{}", rng.below(ints));
    let c = |rng: &mut Rng| rng.below(hi as usize + 1);
    for _ in 0..stmts {
        let (dst, src1, src2) = (v(rng), v(rng), v(rng));
        let line = match rng.below(5) {
            0 => format!("{dst} := {src1};"),
            1 => format!("{dst} := ({src1} + {src2}) % {};", hi + 1),
            2 => format!("if {src1} < {} {{ {dst} := {src2}; }}", c(rng)),
            3 => format!(
                "if b0 {{ {dst} := {src1}; }} else {{ {dst} := {}; }}",
                c(rng)
            ),
            _ => format!("b0 := {src1} < {};", c(rng)),
        };
        src.push_str(&line);
        src.push('\n');
    }
    src
}

/// Cuts `steps` into a warm-up round and [`ROUNDS`] timed rounds of
/// equal size, and deals each round's steps round-robin to `lanes`
/// persistent connections.
fn deal(steps: Vec<Step>, lanes: usize) -> Vec<Vec<Vec<Session>>> {
    let n = steps.len();
    let rounds = (0..=ROUNDS)
        .map(|r| steps[r * n / (ROUNDS + 1)..(r + 1) * n / (ROUNDS + 1)].to_vec())
        .collect();
    deal_rounds(rounds, lanes)
}

/// Deals each round's steps round-robin to `lanes` persistent
/// connections.
fn deal_rounds(rounds: Vec<Vec<Step>>, lanes: usize) -> Vec<Vec<Vec<Session>>> {
    let mut out = vec![Vec::with_capacity(rounds.len()); lanes];
    for round in rounds {
        let mut per: Vec<Vec<Step>> = vec![Vec::new(); lanes];
        for (i, s) in round.into_iter().enumerate() {
            per[i % lanes].push(s);
        }
        for (lane, steps) in out.iter_mut().zip(per) {
            lane.push(vec![Session {
                connect: false,
                steps,
            }]);
        }
    }
    out
}

fn phis_eq_lt(vars: &[&str], hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    for v in vars {
        for c in 0..=hi {
            out.push(format!("{v} == {c}"));
            out.push(format!("{v} < {c}"));
        }
    }
    out
}

/// `warm_hits`: a pool of 1000 distinct queries (under the 1024-entry
/// default cache) over small systems is answered once in setup; the
/// window replays `requests` draws from it, so every request is a hit.
fn warm_hits(rng: &mut Rng, requests: usize, lanes: usize) -> Workload {
    let mut w = Workload {
        systems: vec![
            example("mod_adder", &[4]),
            example("flag_copy", &[6]),
            example("guarded_copy", &[6]),
            example("pointer_chain", &[3, 2]),
            example("nontransitive", &[4]),
            SystemDesc::Program {
                source: program(rng, 3, 3, 4),
            },
            SystemDesc::Program {
                source: program(rng, 3, 3, 5),
            },
        ],
        queries: Vec::new(),
        setup_systems: (0..7).collect(),
        fill: Vec::new(),
        lanes: Vec::new(),
        registry_cap: 16,
    };
    let mut pool = Vec::new();
    pool.extend(candidates(
        &w,
        0,
        &["a1", "a2", "beta"],
        &phis_eq_lt(&["a1", "a2", "beta"], 15),
    ));
    let mut fc = phis_eq_lt(&["alpha", "x", "beta"], 5);
    fc.extend(["".into(), "flag".into(), "!flag".into()]);
    pool.extend(candidates(&w, 1, &["alpha", "beta", "flag", "x"], &fc));
    let mut gc = phis_eq_lt(&["alpha", "beta"], 5);
    gc.extend(["".into(), "m".into(), "!m".into()]);
    pool.extend(candidates(&w, 2, &["alpha", "beta", "m"], &gc));
    pool.extend(candidates(&w, 3, &["o0", "o1", "o2"], &["".into()]));
    let mut nt = phis_eq_lt(&["alpha", "m"], 3);
    nt.extend(["q".into(), "!q".into()]);
    pool.extend(candidates(&w, 4, &["alpha", "beta", "m", "q"], &nt));
    for sys in [5, 6] {
        let phis: Vec<String> = (0..3)
            .flat_map(|v| (0..4).map(move |c| format!("pc == 1 && v{v} == {c}")))
            .collect();
        pool.extend(candidates(&w, sys, &["v0", "v1", "v2", "b0"], &phis));
    }
    w.queries = pick(rng, pool, 1000);
    w.fill = (0..w.queries.len()).collect();
    let steps = (0..requests)
        .map(|_| Step::Query(rng.below(w.queries.len())))
        .collect();
    w.lanes = deal(steps, lanes);
    w
}

/// Picks `take` items at random (without repeats) from `pool`.
fn pick<T>(rng: &mut Rng, mut pool: Vec<T>, take: usize) -> Vec<T> {
    rng.shuffle(&mut pool);
    pool.truncate(take);
    pool
}

/// `cold_search`: every request is a distinct query (more of them than
/// the cache holds) against systems registered in setup, including one
/// program above the dense-table budget with two distinct φ.
///
/// The systems are the same for every seed, and every round asks the
/// same number of queries of each kind (system, φ family, shape); the
/// seed picks the constants in φ and the order. Query costs differ by
/// orders of magnitude between kinds, so a free draw would make the
/// work of a run, and of a round, depend on the seed.
fn cold_search(rng: &mut Rng, requests: usize, lanes: usize) -> Workload {
    let mut systems = vec![
        example("mod_adder", &[5]),
        example("pointer_chain", &[4, 2]),
        example("flag_copy", &[8]),
        example("guarded_copy", &[8]),
    ];
    for i in 0..3 {
        systems.push(SystemDesc::Program {
            source: program(&mut Rng::new(0xC01D + i), 4, 7, 5),
        });
    }
    systems.push(SystemDesc::Program {
        source: BIG_PROGRAM.into(),
    });
    let n = systems.len();
    let mut w = Workload {
        systems,
        queries: Vec::new(),
        setup_systems: (0..n).collect(),
        fill: Vec::new(),
        lanes: Vec::new(),
        registry_cap: 16,
    };
    let big = n - 1;
    // |Σ| = 3.67M states × 6 ops is over the 2^24 dense budget: lazy
    // sparse rows, and each φ's first use enumerates Sat(φ) over every
    // state. Two φ: setup asks the first question under each (so both
    // enumerations land in setup), and each timed round asks one of
    // ten more, with flow and without, of similar cost.
    let key = w.systems[big].content_key();
    let big_query = |(phi, a, b): &(&str, &str, &str)| {
        let mut req = QueryReq::depends(key, names(&[a]), *b);
        req.phi = Some(phi.to_string());
        Query { system: big, req }
    };
    let (p1, p2) = ("pc == 1 && x == 3 && f", "pc == 1 && z == 5 && !h");
    let first_uses: Vec<Query> = [(p1, "g", "w"), (p2, "h", "g")]
        .iter()
        .map(big_query)
        .collect();
    let per_round: Vec<Query> = [
        (p1, "y", "x"),
        (p1, "y", "z"),
        (p1, "z", "x"),
        (p1, "z", "y"),
        (p1, "w", "y"),
        (p2, "x", "y"),
        (p2, "x", "z"),
        (p2, "y", "z"),
        (p2, "w", "z"),
        (p2, "y", "w"),
    ]
    .iter()
    .map(big_query)
    .collect();
    assert_eq!(
        per_round.len(),
        ROUNDS,
        "one big-program query per timed round"
    );
    // What each round asks; `fill` is answered in setup, so that the
    // big φ are interned and search buffers, memo rows and allocator
    // pools have grown before the window.
    let mut rounds: Vec<Vec<Query>> = vec![Vec::new(); ROUNDS + 1];
    let mut fill = first_uses;
    // Deals items round-robin over the rounds from a random start, so
    // every round gets the same number (±1) of each kind.
    let spread = |rng: &mut Rng, items: Vec<Vec<Query>>, rounds: &mut Vec<Vec<Query>>| {
        let start = rng.below(ROUNDS + 1);
        for (i, item) in items.into_iter().enumerate() {
            rounds[(start + i) % (ROUNDS + 1)].extend(item);
        }
    };
    // Every pointer-chain question (record domains: φ = tt only).
    let chain = candidates(&w, 1, &["o0", "o1", "o2", "o3"], &["".into()]);
    spread(
        rng,
        chain.into_iter().map(|q| vec![q]).collect(),
        &mut rounds,
    );
    // About 1% bounded (history length ≤ 3) β queries; the server runs
    // these by enumerating histories.
    let mut bounded = Vec::new();
    for (sys, objs, var) in [
        (2, &["alpha", "beta", "flag", "x"][..], "x"),
        (3, &["alpha", "beta", "m"][..], "alpha"),
    ] {
        for (i, mut q) in candidates(&w, sys, objs, &phis_eq_lt(&[var], 7))
            .into_iter()
            .enumerate()
        {
            if q.req.beta.is_some() {
                q.req.bound = Some(1 + i % 3);
                bounded.push(vec![q]);
            }
        }
    }
    let bounded = pick(rng, bounded, requests / 100);
    spread(rng, bounded, &mut rounds);
    // The rest: bundles of every query shape under one φ, so each φ's
    // Sat(φ) is enumerated by its first query and interned for the
    // others, and every round has the same share of interning hits.
    // Two-variable φ families give 64 to 1024 distinct φ each: enough
    // for windows up to about 25 s; longer ones run out of distinct φ
    // and send fewer requests.
    let pairs = |f: &dyn Fn(usize, usize) -> String,
                 cs: std::ops::Range<usize>,
                 ds: std::ops::Range<usize>| {
        cs.flat_map(|c| ds.clone().map(move |d| (c, d)))
            .map(|(c, d)| f(c, d))
            .collect::<Vec<String>>()
    };
    // (share of the requests, system, objects, φ families)
    type Group<'a> = (usize, usize, &'a [&'a str], Vec<Vec<String>>);
    let mut groups: Vec<Group> = vec![
        (
            35,
            0,
            &["a1", "a2", "beta"],
            vec![
                pairs(&|c, d| format!("a2 == {c} && beta < {d}"), 0..32, 0..32),
                pairs(&|c, d| format!("a1 < {c} && a2 == {d}"), 1..17, 0..32),
                pairs(&|c, d| format!("beta == {c} && a1 < {d}"), 0..32, 1..17),
            ],
        ),
        (
            10,
            2,
            &["alpha", "beta", "flag", "x"],
            vec![
                pairs(&|c, d| format!("alpha == {c} && x == {d}"), 0..8, 0..8),
                pairs(&|c, d| format!("beta == {c} && x < {d}"), 0..8, 1..9),
                pairs(
                    &|c, d| format!("flag && alpha == {c} && beta < {d}"),
                    0..8,
                    1..9,
                ),
                pairs(
                    &|c, d| format!("!flag && x == {c} && beta == {d}"),
                    0..8,
                    0..8,
                ),
            ],
        ),
        (
            4,
            3,
            &["alpha", "beta", "m"],
            vec![
                pairs(&|c, d| format!("alpha == {c} && beta == {d}"), 0..8, 0..8),
                pairs(
                    &|c, d| format!("m && alpha < {c} && beta == {d}"),
                    1..9,
                    0..8,
                ),
                pairs(
                    &|c, d| format!("!m && alpha == {c} && beta < {d}"),
                    0..8,
                    1..9,
                ),
            ],
        ),
    ];
    for sys in 4..big {
        groups.push((
            12,
            sys,
            &["v0", "v1", "v2", "v3", "b0"],
            vec![
                pairs(
                    &|c, d| format!("pc == 1 && v0 == {c} && v1 == {d}"),
                    0..8,
                    0..8,
                ),
                pairs(
                    &|c, d| format!("pc == 1 && v2 < {c} && v3 == {d} && b0"),
                    1..9,
                    0..8,
                ),
                pairs(
                    &|c, d| format!("pc == 1 && v1 == {c} && v3 < {d}"),
                    0..8,
                    1..9,
                ),
                pairs(
                    &|c, d| format!("pc == 1 && v0 < {c} && v2 == {d} && !b0"),
                    1..9,
                    0..8,
                ),
            ],
        ));
    }
    let total: usize = groups.iter().map(|g| g.0).sum();
    let used: usize = rounds.iter().map(Vec::len).sum::<usize>() + per_round.len();
    let rest = requests.saturating_sub(used);
    for (share, sys, objs, families) in groups {
        let shapes_per_phi = candidates(&w, sys, objs, &[String::new()]).len();
        let bundles = rest * share / total / shapes_per_phi;
        let nf = families.len();
        let mut chosen = Vec::new();
        for (f, mut fam) in families.into_iter().enumerate() {
            // One more than this family's share: the first goes to setup.
            let n = bundles / nf + usize::from(f < bundles % nf) + 1;
            rng.shuffle(&mut fam);
            let mut fam = fam
                .into_iter()
                .take(n)
                .map(|phi| candidates(&w, sys, objs, &[phi]));
            fill.extend(fam.next().unwrap_or_default());
            chosen.extend(fam);
        }
        rng.shuffle(&mut chosen);
        spread(rng, chosen, &mut rounds);
    }
    for (r, q) in per_round.into_iter().enumerate() {
        rounds[r + 1].push(q);
    }
    // Candidates are distinct within each system and systems are
    // distinct, so no query repeats.
    let mut queries = fill;
    w.fill = (0..queries.len()).collect();
    let mut steps = Vec::with_capacity(ROUNDS + 1);
    for mut round in rounds {
        rng.shuffle(&mut round);
        let start = queries.len();
        queries.extend(round);
        steps.push((start..queries.len()).map(Step::Query).collect());
    }
    w.queries = queries;
    w.lanes = deal_rounds(steps, lanes);
    w
}

/// The program above the dense-table budget: 3,670,016 states, 6 ops.
pub const BIG_PROGRAM: &str = "var x: int 0..15;
var y: int 0..15;
var z: int 0..15;
var w: int 0..15;
var f: bool;
var g: bool;
var h: bool;
if f { y := x; }
if x < 8 { z := y; } else { z := w; }
if g { w := z; }
y := (y + w) % 16;
if z == 3 { f := true; }
if h { g := f; }
";

/// `tenant_sessions`: each session connects inside the window,
/// registers a freshly generated program, asks three distinct queries
/// plus one repeat, and disconnects.
fn tenant_sessions(rng: &mut Rng, sessions: usize, lanes: usize) -> Workload {
    let mut w = Workload {
        systems: Vec::new(),
        queries: Vec::new(),
        setup_systems: Vec::new(),
        fill: Vec::new(),
        lanes: vec![vec![Vec::new(); ROUNDS + 1]; lanes],
        registry_cap: sessions + 8,
    };
    let mut seen = HashSet::new();
    for s in 0..sessions {
        let source = loop {
            let stmts = 3 + rng.below(3);
            let src = program(rng, 3, 3, stmts);
            if seen.insert(src.clone()) {
                break src;
            }
        };
        let sys = w.systems.len();
        w.systems.push(SystemDesc::Program { source });
        let mut phis: Vec<String> = (0..3)
            .flat_map(|v| (0..4).map(move |c| format!("pc == 1 && v{v} == {c}")))
            .collect();
        phis.push(String::new());
        let mut pool = candidates(&w, sys, &["v0", "v1", "v2", "b0"], &phis);
        rng.shuffle(&mut pool);
        let first = w.queries.len();
        w.queries.extend(pool.into_iter().take(3));
        let mut steps = vec![Step::Register(sys)];
        steps.extend((first..first + 3).map(Step::Query));
        steps.push(Step::Query(first + rng.below(3)));
        let round = s * (ROUNDS + 1) / sessions;
        w.lanes[s % lanes][round].push(Session {
            connect: true,
            steps,
        });
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        for name in WORKLOADS {
            let a = build(name, 7, 1, 2).unwrap();
            let b = build(name, 7, 1, 2).unwrap();
            assert_eq!(a, b, "{name}");
            let c = build(name, 8, 1, 2).unwrap();
            assert_ne!(a, c, "{name}: another seed gives another stream");
        }
    }

    #[test]
    fn rng_is_stable() {
        let mut r = Rng::new(1);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        let mut r = Rng::new(1);
        assert_eq!(first, (0..3).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!(first.iter().all(|&x| x != 0));
    }

    #[test]
    fn warm_pool_fits_the_cache_and_cold_queries_are_distinct() {
        let warm = build("warm_hits", 3, 1, 2).unwrap();
        assert!(warm.queries.len() <= CACHE_CAP);
        let cold = build("cold_search", 3, 1, 2).unwrap();
        assert!(cold.queries.len() > CACHE_CAP);
        let mut seen = HashSet::new();
        for q in &cold.queries {
            assert!(seen.insert(format!("{:?}", q.req)), "repeated {:?}", q.req);
        }
    }

    #[test]
    fn tenant_sessions_repeat_one_query_each() {
        let w = build("tenant_sessions", 5, 1, 2).unwrap();
        let sessions: Vec<&Session> = w.lanes.iter().flatten().flatten().collect();
        assert_eq!(sessions.len(), w.systems.len());
        assert!(w.registry_cap >= sessions.len());
        for s in sessions {
            assert!(s.connect);
            assert_eq!(s.steps.len(), 5);
            assert!(matches!(s.steps[0], Step::Register(_)));
            assert!(s.steps[1..4].contains(&s.steps[4]));
        }
    }
}
