//! Experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Each section corresponds to one experiment id from DESIGN.md §4 and
//! reproduces one worked example, theorem or claim from the paper. Run
//! with `cargo run -p sd-bench --bin experiments --release`.
//!
//! Arguments `p1` … `p7` run only those performance sections. Each one
//! times its cases with [`time5`] and writes one `BENCH_*.json` through
//! [`Ledger`]:
//!
//! - `p1`: Cor 4-3 induction vs exact search (`BENCH_induction_vs_exact.json`);
//! - `p2`: interpreted vs compiled pair search (`BENCH_pair_bfs.json`);
//! - `p3`: static certification vs semantics (`BENCH_static_vs_semantic.json`);
//! - `p4`: quantitative measures (`BENCH_info.json`);
//! - `p5`: prover sweeps (`BENCH_provers.json`);
//! - `p6`: Sat(φ) enumeration (`BENCH_sat_enum.json`);
//! - `p7`: φ = tt (α, β) sweeps on one shared Oracle, with the verdicts
//!   the static cone of influence settled (`BENCH_cone.json`).
//!
//! `--telemetry OUT.jsonl` instead runs a short instrumented workload
//! (cold + warm `sinks_matrix` sweeps and a witness query against a
//! shared Oracle) and writes every [`sd_core::QueryEvent`] as one JSON
//! object per line — the raw material for cache-attribution analysis.

use std::time::{Duration, Instant};

use sd_bench::Table;
use sd_core::certificate::ProofOutcome;
use sd_core::{examples, DependsWitness, Expr, History, JsonBuf, ObjId, ObjSet, OpId, Phi, Rights};
use sd_info::Dist;

type Section = fn() -> Result<(), Box<dyn std::error::Error>>;

/// The performance sections, by the argument that selects each.
const PERF: [(&str, Section); 7] = [
    ("p1", p1_induction_vs_exact),
    ("p2", p2_pair_bfs),
    ("p3", p3_static_vs_semantic),
    ("p4", p4_info),
    ("p5", p5_provers),
    ("p6", p6_sat_enum),
    ("p7", p7_cone),
];

fn yes(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--telemetry") {
        let out = args
            .get(1)
            .ok_or("--telemetry requires an output path (e.g. out.jsonl)")?;
        return telemetry_log(out);
    }
    if !args.is_empty() {
        // Resolve every argument before running anything, so a typo
        // fails at once rather than after minutes of timing.
        let sections = args
            .iter()
            .map(|arg| {
                PERF.iter()
                    .find(|(name, _)| name == arg)
                    .map(|&(_, run)| run)
                    .ok_or_else(|| format!("unknown section {arg:?} (try p1 … p7, --telemetry)"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return sections.iter().try_for_each(|run| run());
    }
    let started = Instant::now();
    e1_variety()?;
    e2_reflexivity()?;
    e3_maximal_solutions()?;
    e4_unique_maximal()?;
    e5_worth()?;
    e6_pointer_chains()?;
    e7_nontransitivity()?;
    e8_relative_autonomy()?;
    e9_set_intermediate()?;
    e10_oscillator()?;
    e11_floyd()?;
    e12_observers()?;
    e13_confinement()?;
    e14_security()?;
    e15_bits()?;
    e16_channel()?;
    e17_set_sources()?;
    e18_inferential()?;
    e19_mechanisms()?;
    PERF.iter().try_for_each(|(_, run)| run())?;
    println!("\ntotal harness time: {:.2?}", started.elapsed());
    Ok(())
}

/// `--telemetry OUT.jsonl`: run an instrumented workload and dump every
/// query event as JSON Lines. The workload exercises the paths a serving
/// layer cares about: one compile, a cold `sinks_matrix` sweep (partition
/// miss), a warm repeat (partition hit), and a per-query witness search.
fn telemetry_log(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::BufWriter;
    use std::sync::Arc;

    use sd_core::{CompileBudget, Engine, JsonLinesSink, Oracle, Query, Sink};

    let sys = examples::flag_copy_system(3)?;
    let file = std::fs::File::create(path)?;
    let sink: Arc<JsonLinesSink<BufWriter<std::fs::File>>> =
        Arc::new(JsonLinesSink::new(BufWriter::new(file)));
    let oracle = Oracle::with_sink(
        &sys,
        Engine::Auto,
        &CompileBudget::default(),
        sink.clone() as Arc<dyn Sink>,
    )?;

    let u = sys.universe();
    let sources: Vec<ObjSet> = u.objects().map(ObjSet::singleton).collect();
    let matrix = Query::matrix(Phi::True, sources);
    let cold = matrix.run(&oracle)?.into_rows();
    let warm = matrix.run(&oracle)?.into_rows();
    assert_eq!(cold, warm, "warm sweep must agree with the cold one");

    let alpha = u.obj("alpha")?;
    let beta = u.obj("beta")?;
    let out = Query::new(Phi::True, ObjSet::singleton(alpha))
        .beta(beta)
        .run(&oracle)?;
    println!(
        "telemetry: α ▷ β = {}; engine = {}, {} pair expansions, partition cached = {}",
        yes(out.holds()),
        out.report.engine,
        out.report.pair_expansions,
        out.report.partition_cached,
    );

    drop(oracle);
    let writer = Arc::into_inner(sink).expect("oracle dropped, sink unshared");
    writer
        .into_inner()
        .into_inner()
        .map_err(|e| std::io::Error::from(e.error().kind()))?;
    println!("telemetry: events written to {path}");
    Ok(())
}

/// E1 (§2.2): copying conveys variety; constraints remove it.
fn e1_variety() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E1 (§2.2): variety and its elimination ==");
    let mut t = Table::new(&["system", "constraint φ", "α ▷φ β", "paper"]);
    for k in [4i64, 16, 64] {
        let sys = examples::copy_system(k)?;
        let u = sys.universe();
        let a = u.obj("alpha")?;
        let b = u.obj("beta")?;
        let free = sd_core::Query::new(Phi::True, ObjSet::singleton(a).clone())
            .beta(b)
            .run_on(&sys)?
            .into_witness();
        t.row(&[
            format!("β ← α ({k} values)"),
            "tt".into(),
            yes(free.is_some()),
            "yes".into(),
        ]);
        let constant = Phi::expr(Expr::var(a).eq(Expr::int(k / 2)));
        let blocked = sd_core::Query::new(constant.clone(), ObjSet::singleton(a).clone())
            .beta(b)
            .run_on(&sys)?
            .into_witness();
        t.row(&[
            format!("β ← α ({k} values)"),
            format!("α = {}", k / 2),
            yes(blocked.is_some()),
            "no".into(),
        ]);
    }
    let sys = examples::threshold_system(15)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let free = sd_core::Query::new(Phi::True, ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "if α<10 then β←0 else β←1".into(),
        "tt".into(),
        yes(free.is_some()),
        "yes (1 bit)".into(),
    ]);
    let lt10 = Phi::expr(Expr::var(a).lt(Expr::int(10)));
    let blocked = sd_core::Query::new(lt10.clone(), ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "if α<10 then β←0 else β←1".into(),
        "α < 10".into(),
        yes(blocked.is_some()),
        "no".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E2 (§2.5, Thms 2-4/2-5): reflexivity over λ.
fn e2_reflexivity() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E2 (§2.5): reflexivity and the empty history ==");
    let sys = examples::copy_system(4)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let lambda = History::empty();
    let mut t = Table::new(&["claim", "checked", "paper"]);
    let refl = sd_core::depend::strongly_depends_after(
        &sys,
        &Phi::True,
        &ObjSet::singleton(a),
        a,
        &lambda,
    )?;
    t.row(&[
        "α ▷λ α (variety present)".into(),
        yes(refl.is_some()),
        "yes".into(),
    ]);
    let constant = Phi::expr(Expr::var(a).eq(Expr::int(1)));
    let none = sd_core::depend::strongly_depends_after(
        &sys,
        &constant,
        &ObjSet::singleton(a),
        a,
        &lambda,
    )?;
    t.row(&[
        "α ▷φλ α with φ: α const (Thm 2-4)".into(),
        yes(none.is_some()),
        "no".into(),
    ]);
    let cross = sd_core::depend::strongly_depends_after(
        &sys,
        &Phi::True,
        &ObjSet::singleton(a),
        b,
        &lambda,
    )?;
    t.row(&[
        "α ▷λ β for β ∉ A (Thm 2-5)".into(),
        yes(cross.is_some()),
        "no".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E3 (§3.5): maximal solutions are not unique; the join property fails.
fn e3_maximal_solutions() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E3 (§3.5): non-unique maximal solutions, join failure ==");
    let sys = examples::threshold_system(12)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let maximal = sd_core::solve::maximal_value_constraints(&sys, a, b)?;
    let mut t = Table::new(&["maximal solution (allowed α values)", "size"]);
    for m in &maximal {
        let vals: Vec<String> = m.allowed.iter().map(|v| v.to_string()).collect();
        t.row(&[vals.join(","), m.allowed.len().to_string()]);
    }
    print!("{}", t.render());
    println!(
        "maximal solutions found: {} (paper: 2 — α ≤ 10 and α > 10)",
        maximal.len()
    );

    let sys2 = examples::guarded_copy_system(2)?;
    let u2 = sys2.universe();
    let a2 = u2.obj("alpha")?;
    let b2 = u2.obj("beta")?;
    let problem = sd_core::problem::Problem::no_flow(ObjSet::singleton(a2), b2, false);
    let phi1 = Phi::expr(Expr::var(a2).eq(Expr::int(0)));
    let phi2 = Phi::expr(Expr::var(a2).eq(Expr::int(1)));
    let join_ok = sd_core::solve::join_property_instance(&sys2, &problem, &phi1, &phi2)?;
    println!(
        "join property for α=0 / α=1 in `if m then β←α`: {} (paper: fails)",
        if join_ok { "holds" } else { "fails" }
    );
    Ok(())
}

/// E4 (Thm 3-1): unique maximal independent solution, constructed.
fn e4_unique_maximal() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E4 (Thm 3-1, §3.5): unique maximal α-independent solution ==");
    let sys = examples::two_op_rights_system()?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let computed =
        sd_core::solve::unique_maximal_independent_solution(&sys, &ObjSet::singleton(a), b)?;
    let expected = Phi::expr(
        Expr::var(u.obj("xx")?)
            .has_rights(Rights::S)
            .not()
            .or(Expr::var(u.obj("xa")?).has_rights(Rights::R).not())
            .or(Expr::var(u.obj("xb")?).has_rights(Rights::W).not()),
    );
    let same = computed.sat(&sys)? == expected.sat(&sys)?;
    println!(
        "computed φmax = (s∉<x,x> ∨ r∉<x,α> ∨ w∉<x,β>): {} (paper: the single maximal solution)",
        yes(same)
    );
    println!(
        "|Sat(φmax)| = {} of {} states",
        computed.sat(&sys)?.count(),
        sys.state_count()?
    );
    Ok(())
}

/// E5 (§3.6): worth comparison of φmax, φ1, φ2.
fn e5_worth() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E5 (§3.6): the worth measure ==");
    let sys = examples::two_op_rights_system()?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let m = u.obj("m")?;
    let phi_max = Phi::expr(
        Expr::var(u.obj("xx")?)
            .has_rights(Rights::S)
            .not()
            .or(Expr::var(u.obj("xa")?).has_rights(Rights::R).not())
            .or(Expr::var(u.obj("xb")?).has_rights(Rights::W).not()),
    );
    let phi_1 = Phi::expr(Expr::var(u.obj("xa")?).has_rights(Rights::R).not());
    let phi_2 = Phi::expr(
        Expr::var(u.obj("xx")?)
            .has_rights(Rights::S)
            .not()
            .or(Expr::var(u.obj("xb")?).has_rights(Rights::W).not()),
    );
    let w_max = sd_core::worth::worth(&sys, &phi_max)?;
    let w_1 = sd_core::worth::worth(&sys, &phi_1)?;
    let w_2 = sd_core::worth::worth(&sys, &phi_2)?;
    let mut t = Table::new(&["solution", "α ▷ β", "m ▷ β", "|worth|", "vs φmax"]);
    for (name, w) in [
        ("φmax", &w_max),
        ("φ1: r∉<x,α>", &w_1),
        ("φ2: s∉ ∨ w∉", &w_2),
    ] {
        let cmp = match w.partial_cmp(&w_max) {
            Some(core::cmp::Ordering::Equal) => "equal",
            Some(core::cmp::Ordering::Less) => "strictly less",
            Some(core::cmp::Ordering::Greater) => "greater",
            None => "incomparable",
        };
        t.row(&[
            name.into(),
            yes(w.permits(a, b)),
            yes(w.permits(m, b)),
            w.len().to_string(),
            cmp.into(),
        ]);
    }
    print!("{}", t.render());
    println!("paper: φ1 as worthy as φmax; φ2 strictly less worthy");
    Ok(())
}

/// The §4.3 pointer-chain workload of E6 and P1:
/// `pointer_chain_system(n, 2)` under φ = "nothing outside Chain = {o0}
/// points into it", asking whether α = o0 reaches β = o(n−1).
struct ChainCase {
    sys: sd_core::System,
    phi: Phi,
    alpha: ObjId,
    beta: ObjId,
}

impl ChainCase {
    fn new(n: usize) -> sd_core::Result<ChainCase> {
        let sys = examples::pointer_chain_system(n, 2)?;
        let u = sys.universe();
        let alpha = u.obj("o0")?;
        let beta = u.obj(&format!("o{}", n - 1))?;
        let phi = Phi::pred("chain-closed", move |sys, sigma| {
            let u = sys.universe();
            for y in u.objects() {
                let target = match sigma.value(u, y) {
                    sd_core::Value::Record(fields) => {
                        fields[1].as_name().expect("ptr field is a name")
                    }
                    _ => unreachable!("pointer objects are records"),
                };
                if target == alpha && y != alpha {
                    return Ok(false);
                }
            }
            Ok(true)
        });
        Ok(ChainCase {
            sys,
            phi,
            alpha,
            beta,
        })
    }

    /// Cor 4-3 with q(x, y) = Chain(x) ⊃ Chain(y).
    fn prove(&self) -> sd_core::Result<ProofOutcome> {
        let alpha = self.alpha;
        let q = move |x: ObjId, y: ObjId| x != alpha || y == alpha;
        sd_core::induction::prove_cor_4_3(&self.sys, &self.phi, &q, "Chain(x) ⊃ Chain(y)")
    }

    /// The exact pair search for `α ▷φ β`.
    fn exact(&self) -> sd_core::Result<Option<DependsWitness>> {
        Ok(
            sd_core::Query::new(self.phi.clone(), ObjSet::singleton(self.alpha))
                .beta(self.beta)
                .run_on(&self.sys)?
                .into_witness(),
        )
    }
}

/// E6 (§4.3): the pointer-chain induction proof, with scaling.
fn e6_pointer_chains() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E6 (§4.3): pointer chains — Strong Dependency Induction vs exact ==");
    let mut t = Table::new(&[
        "n objects",
        "states",
        "ops",
        "induction proves ¬α▷φβ",
        "exact agrees",
    ]);
    for n in [3usize, 4] {
        let case = ChainCase::new(n)?;
        t.row(&[
            n.to_string(),
            case.sys.state_count()?.to_string(),
            case.sys.num_ops().to_string(),
            yes(case.prove()?.is_proved()),
            yes(case.exact()?.is_none()),
        ]);
    }
    print!("{}", t.render());
    println!("paper: no chain of pointers from β to α ⇒ ¬α ▷φ β (proved by Cor 4-3)");
    Ok(())
}

/// E7 (§4.4–4.6): non-transitivity and Separation of Variety.
fn e7_nontransitivity() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E7 (§4.4–4.6): non-transitivity and Separation of Variety ==");
    let sys = examples::nontransitive_system(2)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let m = u.obj("m")?;
    let q_obj = u.obj("q")?;
    let h1 = History::single(OpId(0));
    let h2 = History::single(OpId(1));
    let h12 = h1.concat(&h2);
    let mut t = Table::new(&["relation", "holds", "paper"]);
    let am =
        sd_core::depend::strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), m, &h1)?;
    t.row(&["α ▷δ1 m".into(), yes(am.is_some()), "yes".into()]);
    let mb =
        sd_core::depend::strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(m), b, &h2)?;
    t.row(&["m ▷δ2 β".into(), yes(mb.is_some()), "yes".into()]);
    let ab =
        sd_core::depend::strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), b, &h12)?;
    t.row(&[
        "α ▷δ1δ2 β".into(),
        yes(ab.is_some()),
        "no (non-transitive!)".into(),
    ]);
    let ab_any = sd_core::Query::new(Phi::True, ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "α ▷ β (any history)".into(),
        yes(ab_any.is_some()),
        "no".into(),
    ]);
    print!("{}", t.render());

    let cover = vec![
        Phi::expr(Expr::var(q_obj)),
        Phi::expr(Expr::var(q_obj).not()),
    ];
    let out = sd_core::cover::prove_separation_of_variety(
        &sys,
        &Phi::True,
        &cover,
        &ObjSet::singleton(a),
        b,
        sd_core::cover::PieceStrategy::ExactBfs,
    )?;
    println!(
        "Separation of Variety over {{q, ¬q}} proves ¬α ▷ β: {}",
        yes(out.is_proved())
    );

    let stat = sd_flow::transitive_flows(&sys)?;
    println!(
        "transitive flow baseline reports α → β: {} (false positive, as §4.4 predicts)",
        yes(stat.contains(&(a, b)))
    );
    Ok(())
}

/// E8 (§5.2–5.4): non-autonomous constraints and relative autonomy.
fn e8_relative_autonomy() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E8 (§5.2–5.4): relative autonomy ==");
    let sys = examples::alpha12_copy_system(4)?;
    let u = sys.universe();
    let a1 = u.obj("a1")?;
    let a2 = u.obj("a2")?;
    let b = u.obj("beta")?;
    let phi = Phi::expr(Expr::var(a1).eq(Expr::var(a2)));
    let mut t = Table::new(&["claim", "checked", "paper"]);
    t.row(&[
        "φ: α1 = α2 autonomous".into(),
        yes(sd_core::classify::is_autonomous(&sys, &phi)?),
        "no".into(),
    ]);
    t.row(&[
        "φ {α1,α2}-autonomous".into(),
        yes(sd_core::classify::is_autonomous_relative(
            &sys,
            &phi,
            &ObjSet::from_iter([a1, a2]),
        )?),
        "yes".into(),
    ]);
    let single = sd_core::Query::new(phi.clone(), ObjSet::singleton(a1).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "α1 ▷φ β (β ← α1)".into(),
        yes(single.is_some()),
        "no — yet info IS transmitted".into(),
    ]);
    let pair = sd_core::Query::new(phi.clone(), ObjSet::from_iter([a1, a2]).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "{α1,α2} ▷φ β".into(),
        yes(pair.is_some()),
        "yes (clump as one source)".into(),
    ]);
    print!("{}", t.render());

    let sub = examples::alpha12_sub_system(4)?;
    let su = sub.universe();
    let sa1 = su.obj("a1")?;
    let sa2 = su.obj("a2")?;
    let sb = su.obj("beta")?;
    let sphi = Phi::expr(Expr::var(sa1).eq(Expr::var(sa2)));
    let sub_pair = sd_core::Query::new(sphi.clone(), ObjSet::from_iter([sa1, sa2]).clone())
        .beta(sb)
        .run_on(&sub)?
        .into_witness();
    println!(
        "β ← α1 − α2 with φ: α1 = α2: {{α1,α2}} ▷φ β = {} (paper: no — β always 0)",
        yes(sub_pair.is_some())
    );
    Ok(())
}

/// E9 (§5.5): set-valued intermediate objects.
fn e9_set_intermediate() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E9 (§5.5): set-valued intermediates under non-autonomous φ ==");
    let sys = examples::m1m2_system(2)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let m1 = u.obj("m1")?;
    let m2 = u.obj("m2")?;
    let phi = Phi::expr(Expr::var(m1).eq(Expr::var(m2)));
    let h1 = History::single(OpId(0));
    let h2 = History::single(OpId(1));
    let mut t = Table::new(&["relation", "holds", "paper"]);
    for (label, m) in [("m1", m1), ("m2", m2)] {
        let r = sd_core::depend::strongly_depends_after(&sys, &phi, &ObjSet::singleton(m), b, &h2)?;
        t.row(&[format!("{label} ▷φδ2 β"), yes(r.is_some()), "no".into()]);
    }
    let set =
        sd_core::depend::strongly_depends_after(&sys, &phi, &ObjSet::from_iter([m1, m2]), b, &h2)?;
    t.row(&["{m1,m2} ▷φδ2 β".into(), yes(set.is_some()), "yes".into()]);
    let fan = sd_core::depend::strongly_depends_set_after(
        &sys,
        &phi,
        &ObjSet::singleton(a),
        &ObjSet::from_iter([m1, m2]),
        &h1,
    )?;
    t.row(&[
        "α ▷φδ1 {m1,m2} (Def 5-6)".into(),
        yes(fan.is_some()),
        "yes".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E10 (§6.4): the oscillating system and inductive covers.
fn e10_oscillator() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E10 (§6.4): oscillating system, inductive covers ==");
    let sys = examples::oscillator_system(37)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let phi = Phi::expr(Expr::var(a).eq(Expr::int(37)));
    let phi_star = Phi::expr(
        Expr::var(a)
            .eq(Expr::int(37))
            .or(Expr::var(a).eq(Expr::int(-37))),
    );
    let mut t = Table::new(&["step", "result", "paper"]);
    t.row(&[
        "φ: α = 37 invariant".into(),
        yes(sd_core::classify::is_invariant(&sys, &phi)?),
        "no".into(),
    ]);
    let relax = sd_core::Query::new(phi_star.clone(), ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "relaxation φ*: α = ±37 — α ▷φ* β".into(),
        yes(relax.is_some()),
        "yes (retreat to invariance fails)".into(),
    ]);
    let cover = vec![
        Phi::expr(Expr::var(a).eq(Expr::int(37))),
        Phi::expr(Expr::var(a).eq(Expr::int(-37))),
    ];
    t.row(&[
        "{α = 37, α = -37} inductive cover for φ".into(),
        yes(sd_core::cover::is_inductive_cover(&sys, &phi, &cover)?),
        "yes".into(),
    ]);
    let proof =
        sd_core::cover::prove_inductive_cover(&sys, &phi, &cover, &ObjSet::singleton(a), b)?;
    t.row(&[
        "Thm 6-7 proves ¬α ▷φ β".into(),
        yes(proof.is_proved()),
        "yes".into(),
    ]);
    let exact = sd_core::Query::new(phi.clone(), ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&["exact: α ▷φ β".into(), yes(exact.is_some()), "no".into()]);
    print!("{}", t.render());
    Ok(())
}

/// E11 (§6.5): Floyd assertions on the flowchart program.
fn e11_floyd() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E11 (§6.5): Floyd assertions as inductive covers ==");
    let src = "\
var alpha: int 0..1;
var beta: int 0..1;
var q: int 0..15;
var t: bool;
if q > 10 { t := true; } else { t := false; }
if t { beta := alpha; }
";
    let program = sd_lang::parse(src)?;
    let c = sd_lang::compile(&program)?;
    let ann = sd_lang::Assertions::new()
        .with_entry("q < 10")?
        .with_at(2, "!t")?;
    let mut t = Table::new(&["step", "result", "paper"]);
    t.row(&[
        "assertions form an inductive cover".into(),
        yes(sd_lang::verify_assertions(&c, &ann)?),
        "yes".into(),
    ]);
    let proof = sd_lang::prove_no_flow(&c, &ann, "alpha", "beta")?;
    t.row(&[
        "Thm 6-7 proves ¬α ▷φ β".into(),
        yes(proof.is_proved()),
        "yes".into(),
    ]);
    let exact = sd_lang::floyd::depends_exact(&c, &ann, "alpha", "beta")?;
    t.row(&["exact: α ▷φ β".into(), yes(exact), "no".into()]);
    let unconstrained =
        sd_lang::floyd::depends_exact(&c, &sd_lang::Assertions::new(), "alpha", "beta")?;
    t.row(&[
        "without entry assertion: α ▷ β".into(),
        yes(unconstrained),
        "yes".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E12 (§6.5 end): the pc paradox under different observers.
fn e12_observers() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E12 (§6.5 end, §7.3): observation power ==");
    let sys = examples::pc_branch_system()?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let pc = u.obj("pc")?;
    let phi = Phi::expr(Expr::var(pc).eq(Expr::int(1)));
    let known = sd_core::observe::depends_observed(
        &sys,
        &phi,
        &ObjSet::singleton(a),
        b,
        sd_core::observe::Observer::KnownHistory,
    )?;
    let timed = sd_core::observe::depends_observed(
        &sys,
        &phi,
        &ObjSet::singleton(a),
        b,
        sd_core::observe::Observer::TimeOnly,
    )?;
    let mut t = Table::new(&["observer", "α ▷φ β", "paper"]);
    t.row(&["knows the history".into(), yes(known), "yes".into()]);
    t.row(&["sees only time + β".into(), yes(timed), "no".into()]);
    print!("{}", t.render());
    Ok(())
}

/// E13 (§3.4, §7.5): confinement and declassification.
fn e13_confinement() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E13 (§3.4, §7.5): the Confinement Problem ==");
    let m = sd_matrix::MatrixBuilder::new()
        .subject("u")
        .file("secret", 2)
        .file("scratch", 2)
        .file("spy", 2)
        .build()?;
    let c = sd_matrix::Confinement::new(&m, &["secret"], &["spy"])?;
    let mut t = Table::new(&["constraint φ", "solves confinement", "expected"]);
    t.row(&[
        "tt".into(),
        yes(c.is_solution(&m, &Phi::True)?),
        "no".into(),
    ]);
    let phi_r = sd_matrix::no_reads_of_confined(&m, &["secret"])?;
    t.row(&[
        "no reads of secret".into(),
        yes(c.is_solution(&m, &phi_r)?),
        "yes".into(),
    ]);
    let phi_w = sd_matrix::no_writes_to_spies(&m, &["spy"])?;
    t.row(&[
        "no writes to spy".into(),
        yes(c.is_solution(&m, &phi_w)?),
        "yes".into(),
    ]);
    let weak =
        sd_matrix::Confinement::new(&m, &["secret"], &["spy"])?.declassify(&m, &["secret"])?;
    t.row(&[
        "tt, secret declassified (§7.5)".into(),
        yes(weak.is_solution(&m, &Phi::True)?),
        "yes".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E14 (§3.4, §4.2, §7.3): the Security Problem.
fn e14_security() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E14 (§3.4, §4.2, §7.3): the Security Problem ==");
    let m = sd_matrix::MatrixBuilder::new()
        .subject("u")
        .file("low", 2)
        .file("high", 2)
        .build()?;
    let p = sd_matrix::SecurityPolicy::new(&m, &[("low", 0), ("high", 1)], 0)?;
    let phi = p.secure_configuration(&m)?;
    let mut t = Table::new(&[
        "configuration",
        "secure (exact)",
        "Cor 4-3 proof",
        "expected",
    ]);
    t.row(&[
        "unconstrained".into(),
        yes(p.holds(&m, &Phi::True)?),
        "-".into(),
        "no".into(),
    ]);
    let proof = p.prove(&m, &phi)?;
    t.row(&[
        "fixed secure rights".into(),
        yes(p.holds(&m, &phi)?),
        yes(proof.is_proved()),
        "yes".into(),
    ]);
    let leaky = sd_matrix::MatrixBuilder::new()
        .subject("u")
        .file("low", 2)
        .file("high", 2)
        .with_dynamic_classification("high", 1)
        .build()?;
    let lp = sd_matrix::SecurityPolicy::new(&leaky, &[("low", 0), ("high", 1)], 0)?;
    let lphi = lp.secure_configuration(&leaky)?;
    let lproof = lp.prove(&leaky, &lphi)?;
    t.row(&[
        "varying classification (§7.3)".into(),
        yes(lp.holds(&leaky, &lphi)?),
        yes(lproof.is_proved()),
        "no (covert path)".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E15 (§7.4): quantitative measures on the mod adder.
fn e15_bits() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E15 (§7.4): bits transmitted by β ← (α1 + α2) mod 2^k ==");
    let mut t = Table::new(&[
        "k",
        "b({α1,α2}→β) equivoc.",
        "b(α1→β) equivoc.",
        "b(α1→β) held-const",
        "interference",
    ]);
    for k in [3u32, 5, 7] {
        let sys = examples::mod_adder_system(k)?;
        let u = sys.universe();
        let a1 = u.obj("a1")?;
        let a2 = u.obj("a2")?;
        let b = u.obj("beta")?;
        let d = Dist::uniform(&sys, &Phi::True)?;
        let h = History::single(OpId(0));
        let pair = ObjSet::from_iter([a1, a2]);
        let both = sd_info::bits_equivocation(&sys, &d, &pair, b, &h)?;
        let single = sd_info::bits_equivocation(&sys, &d, &ObjSet::singleton(a1), b, &h)?;
        let held = sd_info::bits_held_constant(&sys, &d, a1, b, &h)?;
        let interf = sd_info::interference(
            &sys,
            &d,
            &ObjSet::singleton(a1),
            &ObjSet::singleton(a2),
            b,
            &h,
        )?;
        t.row(&[
            k.to_string(),
            format!("{both:.3}"),
            format!("{single:.3}"),
            format!("{held:.3}"),
            format!("{interf:.3}"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "paper (k=7): 7 bits from the pair; 0 bits (equivocation) / 7 bits (held-constant) from α1"
    );
    Ok(())
}

/// E16 (§1.8): noise lowers covert-channel bandwidth.
fn e16_channel() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E16 (§1.8): covert-channel capacity under noise (Blahut–Arimoto) ==");
    let mut t = Table::new(&["crossover ε", "capacity (bits/use)", "closed form 1 − H(ε)"]);
    for eps in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let ch = sd_info::Channel::bsc(eps)?;
        let (cap, _iters, _) = ch.capacity(1e-9, 10_000)?;
        let closed = 1.0 - sd_info::binary_entropy(eps);
        t.row(&[
            format!("{eps:.2}"),
            format!("{cap:.6}"),
            format!("{closed:.6}"),
        ]);
    }
    print!("{}", t.render());
    println!("paper: enough noise makes the user→disk bandwidth \"sufficiently low\"");
    Ok(())
}

/// E17 (Thms 2-1/2-6): set sources decompose under autonomous φ.
fn e17_set_sources() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E17 (Thm 2-1/2-6): set sources have individual members ==");
    let sys = examples::mod_adder_system(2)?;
    let u = sys.universe();
    let a1 = u.obj("a1")?;
    let a2 = u.obj("a2")?;
    let b = u.obj("beta")?;
    let pair = ObjSet::from_iter([a1, a2]);
    let set_dep = sd_core::Query::new(Phi::True, pair.clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    let single1 = sd_core::Query::new(Phi::True, ObjSet::singleton(a1).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    let single2 = sd_core::Query::new(Phi::True, ObjSet::singleton(a2).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    println!(
        "{{α1,α2}} ▷ β: {}; α1 ▷ β: {}; α2 ▷ β: {} (Thm 2-1: at least one member transmits)",
        yes(set_dep.is_some()),
        yes(single1.is_some()),
        yes(single2.is_some()),
    );
    Ok(())
}

/// E18 (§7.2): Inferential and Direct Dependency.
fn e18_inferential() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E18 (§7.2): Inferential and Direct Dependency ==");
    use sd_core::inferential;
    let mut t = Table::new(&[
        "system / φ",
        "source",
        "SD",
        "inferential",
        "direct",
        "paper",
    ]);
    // β ← α1 under φ: α1 = α2 — the §5.2 example.
    let sys = examples::alpha12_copy_system(3)?;
    let u = sys.universe();
    let a1 = u.obj("a1")?;
    let a2 = u.obj("a2")?;
    let b = u.obj("beta")?;
    let phi = Phi::expr(Expr::var(a1).eq(Expr::var(a2)));
    let h = History::single(OpId(0));
    for (name, src) in [("α1", a1), ("α2", a2)] {
        let s = ObjSet::singleton(src);
        let sd = sd_core::depend::strongly_depends_after(&sys, &phi, &s, b, &h)?.is_some();
        let inf = inferential::inferentially_depends(&sys, &phi, &s, b, &h)?.is_some();
        let dir = inferential::directly_depends_after(&sys, &phi, &s, b, &h)?.is_some();
        let expect = if src == a1 {
            "SD blind; inf+dir see it"
        } else {
            "only inferential (via φ)"
        };
        t.row(&[
            "β←α1, φ: α1=α2".into(),
            name.into(),
            yes(sd),
            yes(inf),
            yes(dir),
            expect.into(),
        ]);
    }
    // The adder: contingent transmission.
    let adder = examples::mod_adder_system(2)?;
    let au = adder.universe();
    let aa1 = au.obj("a1")?;
    let ab = au.obj("beta")?;
    let s = ObjSet::singleton(aa1);
    let sd = sd_core::depend::strongly_depends_after(&adder, &Phi::True, &s, ab, &h)?.is_some();
    let inf = inferential::inferentially_depends(&adder, &Phi::True, &s, ab, &h)?.is_some();
    let dir = inferential::directly_depends_after(&adder, &Phi::True, &s, ab, &h)?.is_some();
    t.row(&[
        "β←(α1+α2) mod 4, tt".into(),
        "α1".into(),
        yes(sd),
        yes(inf),
        yes(dir),
        "SD sees contingent; inf does not".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E19 (§7.3): mechanism audit.
fn e19_mechanisms() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E19 (§7.3): mechanisms and covert paths ==");
    use sd_core::mechanism::{added_paths, Mechanism};
    use std::sync::Arc;
    let mk = || {
        sd_core::Universe::new(vec![
            ("alpha".into(), sd_core::Domain::int_range(0, 1).unwrap()),
            ("beta".into(), sd_core::Domain::int_range(0, 1).unwrap()),
            ("tmp".into(), sd_core::Domain::int_range(0, 1).unwrap()),
        ])
        .unwrap()
    };
    let ub = mk();
    let (a, b, tmp) = (ub.obj("alpha")?, ub.obj("beta")?, ub.obj("tmp")?);
    let base = sd_core::System::new(
        ub,
        vec![
            sd_core::Op::from_cmd("copy", sd_core::Cmd::assign(b, Expr::var(a))),
            sd_core::Op::from_cmd("reset", sd_core::Cmd::assign(tmp, Expr::int(0))),
        ],
    );
    let ua = mk();
    let (aa, ab2, atmp) = (ua.obj("alpha")?, ua.obj("beta")?, ua.obj("tmp")?);
    let augmented = sd_core::System::new(
        ua,
        vec![
            sd_core::Op::from_cmd(
                "copy_cached",
                sd_core::Cmd::Seq(vec![
                    sd_core::Cmd::assign(ab2, Expr::var(aa)),
                    sd_core::Cmd::If(
                        Expr::var(aa).eq(Expr::int(1)),
                        Box::new(sd_core::Cmd::assign(atmp, Expr::int(1))),
                        Box::new(sd_core::Cmd::assign(atmp, Expr::int(0))),
                    ),
                ]),
            ),
            sd_core::Op::from_cmd("reset", sd_core::Cmd::assign(atmp, Expr::int(0))),
        ],
    );
    let m = Mechanism {
        augmented,
        base,
        project: Arc::new(|_a, _b, s| Ok(s.clone())),
        realize: vec![History::single(OpId(0)), History::single(OpId(1))],
        visible: vec![(aa, a), (ab2, b), (atmp, tmp)],
    };
    let sim = m.check_simulation();
    let added = added_paths(&m, &Phi::True, &Phi::True)?;
    println!(
        "caching mechanism: simulation {} (expected: fails); covert paths added: {} (expected: α → tmp)",
        if sim.is_ok() { "passes" } else { "fails" },
        added.len()
    );
    Ok(())
}

/// P1: Strong Dependency Induction (Cor 4-3) vs the exact pair search on
/// the §4.3 pointer chains, with the bounded history enumeration (every
/// history up to length 2 checked against one Sat(φ) partition, Def 2-7)
/// as the pre-pair-search ablation. The enumeration grows as |Δ|^bound,
/// so it runs on the small chain only. The matrix substrate adds the
/// secure-configuration proof (Cor 4-3) vs its exact check, and the
/// confinement check. Writes `BENCH_induction_vs_exact.json`.
fn p1_induction_vs_exact() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::depend::{strongly_depends_after_with, SatPartition};
    use sd_core::history::histories_up_to;
    use sd_matrix::{Confinement, MatrixBuilder, SecurityPolicy};

    println!("\n== P1: Strong Dependency Induction vs exact search ==");
    let mut cases = Cases::new("induction_vs_exact");
    for n in [3usize, 4] {
        let case = ChainCase::new(n)?;
        let name = format!("pointer chain n={n} ({} states)", case.sys.state_count()?);
        let proof = cases.time(&name, "cor_4_3", || case.prove())?;
        let exact = cases.time(&name, "exact_bfs", || case.exact())?;
        assert!(
            proof.is_proved() && exact.is_none(),
            "{name}: E6's verdicts"
        );
        if n == 3 {
            let src = ObjSet::singleton(case.alpha);
            let bounded = cases.time(&name, "bounded_enum_len2", || {
                let part = SatPartition::new(&case.sys, &case.phi, &src)?;
                histories_up_to(case.sys.num_ops(), 2)
                    .map(|h| strongly_depends_after_with(&case.sys, &part, case.beta, &h))
                    .find_map(Result::transpose)
                    .transpose()
            })?;
            assert!(bounded.is_none(), "{name}: no flow within length 2");
        }
    }
    for files in [2usize, 3] {
        let mut b = MatrixBuilder::new().subject("u");
        for i in 0..files {
            b = b.file(&format!("f{i}"), 2);
        }
        let m = b.build()?;
        let levels: Vec<(String, u32)> = (0..files).map(|i| (format!("f{i}"), i as u32)).collect();
        let refs: Vec<(&str, u32)> = levels.iter().map(|(f, l)| (f.as_str(), *l)).collect();
        let p = SecurityPolicy::new(&m, &refs, 0)?;
        let phi = p.secure_configuration(&m)?;
        let name = format!("security {files} files");
        cases.time(&name, "prove", || p.prove(&m, &phi))?;
        cases.time(&name, "holds", || p.holds(&m, &phi))?;
    }
    for files in [2usize, 3] {
        let mut b = MatrixBuilder::new().subject("u").file("secret", 2);
        for i in 1..files {
            b = b.file(&format!("f{i}"), 2);
        }
        let m = b.file("spy", 2).build()?;
        let conf = Confinement::new(&m, &["secret"], &["spy"])?;
        let phi = sd_matrix::no_reads_of_confined(&m, &["secret"])?;
        let name = format!("confinement {} files", files + 1);
        cases.time(&name, "is_solution_for_pair", || {
            conf.is_solution_for_pair(&m, &phi, "secret", "spy")
        })?;
    }
    cases.finish()
}

/// P2: interpreted vs compiled pair-BFS engines, one β-target query per
/// workload. Random guarded-copy systems show the crossover region where
/// compilation overhead still matters; on the pinned pointer chains
/// (see [`sd_bench::workloads::pointer_chain_pinned`]) `o0 ▷φ o(n−1)` is
/// false, so every engine must exhaust the reachable pair space. Writes
/// `BENCH_pair_bfs.json`.
fn p2_pair_bfs() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::Engine;

    println!("\n== P2: pair-BFS engines — interpreted vs compiled tables ==");
    let mut cases: Vec<(String, sd_core::System, Phi)> = Vec::new();
    for (n, k) in [(4usize, 2i64), (5, 2), (6, 2), (4, 3), (5, 3)] {
        let sys = sd_bench::workloads::random_system(n, k, 4, 7)?;
        cases.push((format!("random n={n} k={k}"), sys, Phi::True));
    }
    // d = 2 scales the chain length; d = 3 deepens the data alphabet,
    // which decorrelates difference patterns further and pushes the
    // visited-pairs / reached-states ratio from ~8 to ~81.
    for (n, d) in [(4usize, 2i64), (5, 2), (6, 2), (6, 3)] {
        let (sys, phi) = sd_bench::workloads::pointer_chain_pinned(n, d)?;
        cases.push((format!("pointer-chain n={n} d={d}"), sys, phi));
    }

    let mut ledger = Ledger::new("pair_bfs");
    let mut t = Table::new(&[
        "workload",
        "states",
        "ops",
        "engine",
        "visited pairs",
        "wall ms",
        "speedup",
    ]);
    for (name, sys, phi) in &cases {
        let mut objects = sys.universe().objects();
        let a = ObjSet::singleton(objects.next().expect("non-empty universe"));
        let beta = objects.last().expect("at least two objects");
        let states = sys.state_count()?;
        let ops = sys.num_ops() as u64;
        let mut interpreted = None;
        for engine in [Engine::Interpreted, Engine::Auto] {
            let query = sd_core::Query::new(phi.clone(), a.clone())
                .beta(beta)
                .engine(engine);
            let (time, out) = time5(|| query.run_on(sys))?;
            let reference = *interpreted.get_or_insert(time.median);
            let r = &out.report;
            t.row(&[
                name.clone(),
                states.to_string(),
                ops.to_string(),
                r.engine.into(),
                r.visited_pairs.to_string(),
                time.to_string(),
                format!("{:.2}x", reference / time.median),
            ]);
            ledger.row(&[("wall", time)], |j| {
                j.str_field("workload", name)
                    .u64_field("states", states)
                    .u64_field("ops", ops)
                    .str_field("engine", r.engine)
                    .u64_field("visited_pairs", r.visited_pairs)
                    .u64_field("levels", u64::from(r.levels))
                    .bool_field("witness", out.holds());
            });
        }
    }
    print!("{}", t.render());
    println!("expected: compiled ≥10x faster on the pointer-chain family at n ≥ 6");
    ledger.write()?;
    Ok(())
}

/// P3: the transitive flow baseline vs exact strong dependency —
/// precision on the paper's examples, then the cost side on random
/// programs: Denning certification, one exact source/sink query and the
/// full transitive flow relation. Writes `BENCH_static_vs_semantic.json`.
fn p3_static_vs_semantic() -> Result<(), Box<dyn std::error::Error>> {
    use sd_flow::{Classification, FiniteLattice};

    println!("\n== P3: static transitive baseline vs exact strong dependency ==");
    let mut t = Table::new(&[
        "system",
        "static flows",
        "semantic flows",
        "false+",
        "precision",
        "sound",
    ]);
    let cases: Vec<(&str, sd_core::System)> = vec![
        ("copy", examples::copy_system(3)?),
        ("guarded copy", examples::guarded_copy_system(2)?),
        ("non-transitive (§4.4)", examples::nontransitive_system(2)?),
        ("flag copy (§3.3)", examples::flag_copy_system(2)?),
        ("m1/m2 (§5.5)", examples::m1m2_system(2)?),
    ];
    for (name, sys) in cases {
        let r = sd_flow::compare(&sys, &Phi::True)?;
        t.row(&[
            name.into(),
            r.static_flows.len().to_string(),
            r.semantic_flows.len().to_string(),
            r.false_positives.len().to_string(),
            format!("{:.2}", r.precision()),
            yes(r.sound()),
        ]);
    }
    print!("{}", t.render());
    println!("expected: soundness everywhere; precision < 1 exactly where the paper predicts");

    // The Millen-style constraint-aware refinement (§1.5) on the
    // non-transitive system: the {q, ¬q} cover removes the false α → β
    // path that the plain baseline cannot.
    let sys = examples::nontransitive_system(2)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let q = u.obj("q")?;
    let cover = vec![Phi::expr(Expr::var(q)), Phi::expr(Expr::var(q).not())];
    let refined = sd_flow::cover_sensitive_flows(&sys, &Phi::True, &cover)?;
    let baseline = sd_flow::transitive_flows(&sys)?;
    println!(
        "Millen refinement over {{q, ¬q}}: α → β reported = {} (baseline: {}; exact: no)",
        yes(refined.contains(&(a, b))),
        yes(baseline.contains(&(a, b))),
    );

    let lat = FiniteLattice::two_point();
    let (hi, lo) = (lat.label("H")?, lat.label("L")?);
    let mut cls = Classification::new().with("v0", hi);
    for i in 1..4 {
        cls = cls.with(format!("v{i}"), lo);
    }
    let mut cases = Cases::new("static_vs_semantic");
    for stmts in [4usize, 6, 8] {
        let program = sd_bench::workloads::random_program(4, 2, stmts, 11);
        let compiled = sd_lang::compile(&program)?;
        let query =
            sd_core::Query::new(compiled.at_entry(), ObjSet::singleton(compiled.var("v0")?))
                .beta(compiled.var("v3")?);
        let name = format!("random program {stmts} stmts");
        cases.time(&name, "denning_certify", || {
            sd_flow::certify(&program, &lat, &cls)
        })?;
        cases.time(&name, "semantic_exact", || query.run_on(&compiled.system))?;
        cases.time(&name, "transitive_flows", || {
            sd_flow::transitive_flows(&compiled.system)
        })?;
    }
    cases.finish()
}

/// P4: quantitative measures — equivocation bits on the §7.4 mod-2^k
/// adder (its state space grows as 2^{3k}) and Blahut–Arimoto capacity
/// of symmetric channels. Writes `BENCH_info.json`.
fn p4_info() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== P4: quantitative measures — bits and channel capacity ==");
    let mut cases = Cases::new("info");
    for k in [3u32, 5, 6] {
        let sys = examples::mod_adder_system(k)?;
        let u = sys.universe();
        let a1 = ObjSet::singleton(u.obj("a1")?);
        let b = u.obj("beta")?;
        let d = Dist::uniform(&sys, &Phi::True)?;
        let h = History::single(OpId(0));
        let name = format!("mod_adder k={k} ({} states)", sys.state_count()?);
        cases.time(&name, "bits_equivocation", || {
            sd_info::bits_equivocation(&sys, &d, &a1, b, &h)
        })?;
    }
    for m in [2usize, 4, 8, 16] {
        let ch = sd_info::Channel::symmetric(m, 0.1)?;
        let name = format!("symmetric channel m={m} ε=0.1");
        cases.time(&name, "blahut_arimoto", || ch.capacity(1e-9, 10_000))?;
    }
    cases.finish()
}

/// P5: prover workloads — the pre-Oracle sequential sweeps (one fresh
/// compile-and-search per cylinder class / cover piece) vs the shared
/// compiled Oracle with parallel kernels. Writes `BENCH_provers.json`.
fn p5_provers() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::cover::PieceStrategy;
    use sd_core::{solve, CompileBudget, Engine, StateSet};

    println!("\n== P5: prover engines — sequential per-call vs shared Oracle ==");
    let budget = CompileBudget::default();
    let mut ledger = Ledger::new("provers");

    let mut t = Table::new(&[
        "workload",
        "states",
        "units",
        "sequential ms",
        "oracle ms",
        "speedup",
        "agree",
    ]);

    // Maximal-solution sweep: every `=A=` cylinder class must be decided.
    // Two-object source sets keep the per-class pair searches non-trivial.
    // Guarded-copy rows show the gain on thin operation bodies; mixing
    // rows (wide modular-sum bodies, isolated sink, exhaustive "no" per
    // class) show the regime the Oracle exists for — per-call row
    // re-interpretation dominates the sequential path there.
    let solve_configs: Vec<(String, sd_core::System)> = vec![
        (
            "maximal solution guarded n=7 k=3".into(),
            sd_bench::workloads::random_system(7, 3, 6, 11)?,
        ),
        (
            "maximal solution mixing n=7 k=3".into(),
            sd_bench::workloads::mixing_system(7, 3, 4)?,
        ),
        (
            "maximal solution mixing n=6 k=4".into(),
            sd_bench::workloads::mixing_system(6, 4, 4)?,
        ),
    ];
    for (name, sys) in solve_configs {
        let u = sys.universe();
        let mut sources = ObjSet::singleton(u.obj("x0")?);
        sources.insert(u.obj("x1")?);
        let sink = u.objects().last().expect("non-empty universe");
        let ns = sys.state_count()?;
        let n_classes = sd_core::depend::classes(&sys, &Phi::True, &sources)?.len();

        // Pre-Oracle sequential path, exactly as the seed implemented it:
        // enumerate the `=A=` classes as decoded states, then one full
        // `depends` call — fresh compile, fresh search state — per class.
        let (seq, seq_solution) = time5(|| -> sd_core::Result<StateSet> {
            let mut sol = StateSet::new(ns);
            for class in sd_core::depend::classes(&sys, &Phi::True, &sources)? {
                let mut cyl = StateSet::new(ns);
                for s in &class {
                    cyl.insert(s.encode(u));
                }
                let phi_c = Phi::from_set(cyl.clone());
                if sd_core::Query::new(phi_c.clone(), sources.clone())
                    .beta(sink)
                    .engine(Engine::Auto)
                    .budget(budget)
                    .run_on(&sys)?
                    .into_witness()
                    .is_none()
                {
                    sol.union_with(&cyl);
                }
            }
            Ok(sol)
        })?;
        let (oracle, (oracle_solution, stats)) =
            time5(|| solve::unique_maximal_independent_solution_stats(&sys, &sources, sink))?;
        let compiles = stats.compiles;
        let agree = oracle_solution.sat(&sys)? == seq_solution && compiles == 1;

        t.row(&[
            name.clone(),
            ns.to_string(),
            format!("{n_classes} classes"),
            seq.to_string(),
            oracle.to_string(),
            format!("{:.2}x", seq.median / oracle.median),
            yes(agree),
        ]);
        ledger.row(&[("sequential", seq), ("oracle", oracle)], |j| {
            j.str_field("workload", &name)
                .u64_field("states", ns)
                .u64_field("classes", n_classes as u64)
                .bool_field("agree", agree);
        });
    }

    // Separation-of-Variety sweep: one piece proof per cover element.
    let sov_configs: Vec<(String, i64, sd_core::System)> = vec![
        (
            "separation of variety guarded n=6 k=3".into(),
            3,
            sd_bench::workloads::random_system(6, 3, 5, 11)?,
        ),
        (
            "separation of variety mixing n=7 k=3".into(),
            3,
            sd_bench::workloads::mixing_system(7, 3, 4)?,
        ),
    ];
    for (name, k, sys) in sov_configs {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let a = ObjSet::singleton(ids[0]);
        let beta = *ids.last().expect("non-empty universe");
        let ns = sys.state_count()?;
        // Split on x1 ∧ x2 jointly so the cover has k² pieces, each
        // A-independent, together covering Σ.
        let (x1, x2) = (ids[1], ids[2]);
        let cover: Vec<Phi> = (0..k)
            .flat_map(|v1| {
                (0..k).map(move |v2| {
                    Phi::expr(
                        Expr::var(x1)
                            .eq(Expr::int(v1))
                            .and(Expr::var(x2).eq(Expr::int(v2))),
                    )
                })
            })
            .collect();

        // Pre-Oracle sequential path, as the seed implemented Thm 4-5:
        // per-piece independence checks, the coverage check, then one
        // fresh exact search per piece.
        let (seq, seq_proved) = time5(|| -> sd_core::Result<bool> {
            let mut proved = true;
            'seq: {
                for piece in &cover {
                    if !sd_core::classify::is_independent(&sys, piece, &a)? {
                        proved = false;
                        break 'seq;
                    }
                }
                let mut union = StateSet::new(ns);
                for piece in &cover {
                    union.union_with(&piece.sat(&sys)?);
                }
                if union.count() != ns {
                    proved = false;
                    break 'seq;
                }
                for piece in &cover {
                    let conj = Phi::True.and(piece.clone());
                    if sd_core::Query::new(conj.clone(), a.clone())
                        .beta(beta)
                        .engine(Engine::Auto)
                        .budget(budget)
                        .run_on(&sys)?
                        .into_witness()
                        .is_some()
                    {
                        proved = false;
                        break 'seq;
                    }
                }
            }
            Ok(proved)
        })?;
        let (oracle, oracle_proved) = time5(|| {
            sd_core::cover::prove_separation_of_variety(
                &sys,
                &Phi::True,
                &cover,
                &a,
                beta,
                PieceStrategy::ExactBfs,
            )
            .map(|out| out.is_proved())
        })?;
        let agree = seq_proved == oracle_proved;

        t.row(&[
            name.clone(),
            ns.to_string(),
            format!("{} pieces", cover.len()),
            seq.to_string(),
            oracle.to_string(),
            format!("{:.2}x", seq.median / oracle.median),
            yes(agree),
        ]);
        ledger.row(&[("sequential", seq), ("oracle", oracle)], |j| {
            j.str_field("workload", &name)
                .u64_field("states", ns)
                .u64_field("pieces", cover.len() as u64)
                .bool_field("agree", agree);
        });
    }

    print!("{}", t.render());
    println!("expected: oracle ≥5x on the maximal-solution workloads with ≥64 classes");
    ledger.write()?;
    Ok(())
}

/// The `sdbench` cold_search program above the dense-table budget
/// (3,670,016 states), copied from `sdbench/src/gen.rs`.
const BIG_PROGRAM: &str = "var x: int 0..15;
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

/// P6: Sat(φ) enumeration, the reference scan of every state
/// (`depend::sat_codes_scan`) against the per-object normal form
/// (`depend::sat_codes`), on the cold_search big-program φ, the
/// mod_adder φ families and one residual-heavy φ. The two enumerations
/// are checked to be identical. Writes `BENCH_sat_enum.json`.
fn p6_sat_enum() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::depend::{sat_codes, sat_codes_scan};

    println!("\n== P6: Sat(φ) enumeration — full scan vs per-object normal form ==");
    let big = sd_lang::compile(&sd_lang::parse(BIG_PROGRAM)?)?.system;
    let systems: Vec<(&str, sd_core::System, Vec<&str>)> = vec![
        (
            "cold_search big program",
            big,
            vec![
                "pc == 1 && x == 3 && f",
                "pc == 1 && z == 5 && !h",
                "pc == 1 && x < y && f",
            ],
        ),
        (
            "mod_adder(5)",
            examples::mod_adder_system(5)?,
            vec![
                "a2 == 7 && beta < 12",
                "a1 < 9 && a2 == 4",
                "beta == 3 && a1 < 10",
            ],
        ),
        (
            "mod_adder(7)",
            examples::mod_adder_system(7)?,
            vec!["a1 == 3 && a2 < 4", "a2 == 100 && beta < 64"],
        ),
    ];
    let mut ledger = Ledger::new("sat_enum");
    let mut t = Table::new(&[
        "system",
        "φ",
        "|Σ|",
        "|Sat|",
        "scan ms",
        "normal form ms",
        "speedup",
    ]);
    for (name, sys, phis) in &systems {
        let states = sys.state_count()?;
        for src in phis {
            let phi = sd_lang::lower_phi(sys.universe(), src)?;
            let (scan, scanned) = time5(|| sat_codes_scan(sys, &phi))?;
            let (nf, codes) = time5(|| sat_codes(sys, &phi))?;
            assert_eq!(codes, scanned, "normal form differs from the scan on {src}");
            t.row(&[
                name.to_string(),
                src.to_string(),
                states.to_string(),
                codes.len().to_string(),
                scan.to_string(),
                nf.to_string(),
                format!("{:.0}x", scan.median / nf.median),
            ]);
            ledger.row(&[("scan", scan), ("normal_form", nf)], |j| {
                j.str_field("system", name)
                    .str_field("phi", src)
                    .u64_field("states", states)
                    .u64_field("sat", codes.len() as u64);
            });
        }
    }
    print!("{}", t.render());
    ledger.write()?;
    Ok(())
}

/// The three 4-variable `sdbench` cold_search programs, as
/// `sdbench/src/gen.rs` generates them (`program(Rng::new(0xC01D + i),
/// 4, 7, 5)` for i = 0, 1, 2).
const COLD_PROGRAMS: [&str; 3] = [
    "var v0: int 0..7;
var v1: int 0..7;
var v2: int 0..7;
var v3: int 0..7;
var b0: bool;
v1 := v3;
v3 := v0;
if b0 { v0 := v2; } else { v0 := 2; }
v2 := v3;
if b0 { v0 := v1; } else { v0 := 2; }
",
    "var v0: int 0..7;
var v1: int 0..7;
var v2: int 0..7;
var v3: int 0..7;
var b0: bool;
v3 := (v0 + v2) % 8;
if v2 < 7 { v2 := v0; }
if b0 { v0 := v3; } else { v0 := 1; }
v0 := (v2 + v3) % 8;
v1 := (v3 + v2) % 8;
",
    "var v0: int 0..7;
var v1: int 0..7;
var v2: int 0..7;
var v3: int 0..7;
var b0: bool;
if v0 < 4 { v0 := v1; }
if v3 < 0 { v1 := v2; }
if b0 { v1 := v3; } else { v1 := 5; }
b0 := v1 < 2;
if v2 < 5 { v0 := v2; }
",
];

/// P7: the static cone of influence. On each system, one shared Oracle
/// answers every singleton (α, β) query under φ = tt; the section times
/// the Oracle's construction (which computes the cones) and the whole
/// sweep, and counts the flows and the no-flow verdicts the cone settled
/// without searching (`engine == "cone"`). The sweep uses only the
/// public [`sd_core::Query`] API, so the same code times a tree without
/// the cone. Writes `BENCH_cone.json`.
fn p7_cone() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::{Oracle, Query};

    println!("\n== P7: φ = tt (α, β) sweeps — no-flow verdicts settled by β's cone ==");
    let mut systems: Vec<(String, sd_core::System)> = vec![
        ("mod_adder(5)".into(), examples::mod_adder_system(5)?),
        ("flag_copy(8)".into(), examples::flag_copy_system(8)?),
        ("guarded_copy(8)".into(), examples::guarded_copy_system(8)?),
        (
            "pointer_chain(4,2)".into(),
            examples::pointer_chain_system(4, 2)?,
        ),
    ];
    for (i, src) in COLD_PROGRAMS.iter().enumerate() {
        let sys = sd_lang::compile(&sd_lang::parse(src)?)?.system;
        systems.push((format!("cold_search program {i}"), sys));
    }
    let mut ledger = Ledger::new("cone");
    let mut t = Table::new(&[
        "system", "|Σ|", "queries", "flows", "cone", "build ms", "sweep ms",
    ]);
    for (name, sys) in &systems {
        let u = sys.universe();
        let queries: Vec<Query> = u
            .objects()
            .flat_map(|a| u.objects().map(move |b| (a, b)))
            .map(|(a, b)| Query::new(Phi::True, ObjSet::singleton(a)).beta(b))
            .collect();
        let (build, oracle) = time5(|| Oracle::new(sys))?;
        let (sweep, (flows, cone)) = time5(|| {
            let (mut flows, mut cone) = (0u64, 0u64);
            for q in &queries {
                let out = q.run(&oracle)?;
                flows += u64::from(out.holds());
                cone += u64::from(out.report.engine == "cone");
            }
            Ok::<_, sd_core::Error>((flows, cone))
        })?;
        let states = sys.state_count()?;
        t.row(&[
            name.clone(),
            states.to_string(),
            queries.len().to_string(),
            flows.to_string(),
            cone.to_string(),
            build.to_string(),
            sweep.to_string(),
        ]);
        ledger.row(&[("build", build), ("sweep", sweep)], |j| {
            j.str_field("system", name)
                .u64_field("states", states)
                .u64_field("queries", queries.len() as u64)
                .u64_field("flows", flows)
                .u64_field("cone", cone);
        });
    }
    print!("{}", t.render());
    println!("expected: the cone settles no-flow verdicts only; every flow still searches");
    ledger.write()?;
    Ok(())
}

/// Runs per timed case; the quartiles in [`time5`] assume 5.
const RUNS: usize = 5;

/// The shortest timed run: a case faster than this is called in a batch
/// long enough to reach it, and the batch's time divided by its size, so
/// that no row sits at the timer's resolution.
const MIN_RUN: Duration = Duration::from_millis(1);

/// Median and interquartile range, in ms per call, of one case's
/// [`RUNS`] runs, and the number of calls each run timed.
#[derive(Clone, Copy)]
struct Timing {
    median: f64,
    iqr: f64,
    batch: u32,
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ± {}", ms(self.median), ms(self.iqr))
    }
}

/// A duration in ms: 3 decimals, or 4 significant digits below 1 ms, so
/// that no sub-millisecond time reads `0.000`.
fn ms(x: f64) -> String {
    let decimals = if x > 0.0 {
        (3 - x.log10().floor() as i32).clamp(3, 9) as usize
    } else {
        3
    };
    format!("{x:.decimals$}")
}

/// The harness's one timer: [`RUNS`] timed runs of `f`, their median
/// and interquartile range per call, plus the last call's output. Each
/// run times one batch of calls lasting at least [`MIN_RUN`]: the batch
/// doubles from one call until it does, and the first batch that does
/// counts as the first run (so a case slower than [`MIN_RUN`] runs
/// exactly [`RUNS`] times). The quartiles follow Python's
/// `statistics.quantiles(n=4)`.
fn time5<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<(Timing, T), E> {
    let mut run = |batch: u32| -> Result<(Duration, T), E> {
        let t = Instant::now();
        let mut out = std::hint::black_box(f()?);
        for _ in 1..batch {
            out = std::hint::black_box(f()?);
        }
        Ok((t.elapsed(), out))
    };
    let mut batch = 1;
    let (mut took, mut out) = run(batch)?;
    while took < MIN_RUN {
        batch *= 2;
        (took, out) = run(batch)?;
    }
    let mut ms = Vec::with_capacity(RUNS);
    ms.push(took.as_secs_f64() * 1e3 / f64::from(batch));
    for _ in 1..RUNS {
        (took, out) = run(batch)?;
        ms.push(took.as_secs_f64() * 1e3 / f64::from(batch));
    }
    ms.sort_by(f64::total_cmp);
    let timing = Timing {
        median: ms[2],
        iqr: (ms[3] + ms[4]) / 2.0 - (ms[0] + ms[1]) / 2.0,
        batch,
    };
    Ok((timing, out))
}

/// Where a `BENCH_*.json` row was measured: the checkout's git revision,
/// the core count and the build profile.
struct RunMeta {
    git_rev: String,
    cores: usize,
    profile: &'static str,
}

impl RunMeta {
    fn current() -> RunMeta {
        let git_rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=7"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        RunMeta {
            git_rev,
            cores,
            profile,
        }
    }
}

/// One `BENCH_<name>.json` file — the only writer of those files. Each
/// row is one JSON object: the case's own fields, then each timing as
/// `<key>_ms` (median per call), `<key>_iqr_ms` and `<key>_batch`
/// (calls per timed run), then `runs`, `git_rev`, `cores` and
/// `profile`.
struct Ledger {
    name: &'static str,
    meta: RunMeta,
    rows: Vec<String>,
}

impl Ledger {
    fn new(name: &'static str) -> Ledger {
        Ledger {
            name,
            meta: RunMeta::current(),
            rows: Vec::new(),
        }
    }

    /// Appends one row: `fields` pushes the case's own fields.
    fn row(&mut self, times: &[(&str, Timing)], fields: impl FnOnce(&mut JsonBuf)) {
        let mut j = JsonBuf::new();
        j.begin_obj();
        fields(&mut j);
        for (key, t) in times {
            j.raw_field(&format!("{key}_ms"), &ms(t.median))
                .raw_field(&format!("{key}_iqr_ms"), &ms(t.iqr))
                .u64_field(&format!("{key}_batch"), u64::from(t.batch));
        }
        j.u64_field("runs", RUNS as u64)
            .str_field("git_rev", &self.meta.git_rev)
            .u64_field("cores", self.meta.cores as u64)
            .str_field("profile", self.meta.profile)
            .end_obj();
        self.rows.push(j.finish());
    }

    /// The file's text: one row per line.
    fn render(&self) -> String {
        format!(
            "{{\"benchmark\":{},\"unit\":\"ms\",\"rows\":[\n{}\n]}}\n",
            sd_core::json::quote(self.name),
            self.rows.join(",\n")
        )
    }

    /// Writes `BENCH_<name>.json` to the working directory and prints
    /// the footnote of the section's table.
    fn write(&self) -> std::io::Result<()> {
        let path = format!("BENCH_{}.json", self.name);
        std::fs::write(&path, self.render())?;
        println!(
            "(median ± interquartile range of {RUNS} runs; {} cores, {})\nwrote {path}",
            self.meta.cores, self.meta.profile
        );
        Ok(())
    }
}

/// A section whose cases each time one method on one workload: prints
/// them as one `workload | method | ms` table and records each in the
/// section's [`Ledger`].
struct Cases {
    table: Table,
    ledger: Ledger,
}

impl Cases {
    fn new(name: &'static str) -> Cases {
        Cases {
            table: Table::new(&["workload", "method", "ms"]),
            ledger: Ledger::new(name),
        }
    }

    /// Times `f` with [`time5`], records the row and returns the last
    /// run's output.
    fn time<T, E: Into<Box<dyn std::error::Error>>>(
        &mut self,
        workload: &str,
        method: &str,
        f: impl FnMut() -> Result<T, E>,
    ) -> Result<T, Box<dyn std::error::Error>> {
        let (time, out) = time5(f).map_err(Into::into)?;
        self.table
            .row(&[workload.into(), method.into(), time.to_string()]);
        self.ledger.row(&[("wall", time)], |j| {
            j.str_field("workload", workload)
                .str_field("method", method);
        });
        Ok(out)
    }

    fn finish(self) -> Result<(), Box<dyn std::error::Error>> {
        print!("{}", self.table.render());
        self.ledger.write()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time5_batches_calls_below_the_minimum_run() {
        // A near-free call is batched until one run lasts MIN_RUN, and
        // the timing is per call.
        let mut calls = 0u64;
        let (fast, last) = time5(|| {
            calls += 1;
            Ok::<_, ()>(calls)
        })
        .unwrap();
        assert!(fast.batch > 1, "batch {}", fast.batch);
        assert_eq!(last, calls, "the last call's output is returned");
        assert!(calls >= RUNS as u64 * u64::from(fast.batch));
        // A call slower than MIN_RUN runs exactly RUNS times, unbatched.
        let mut calls = 0;
        let (slow, _) = time5(|| {
            calls += 1;
            std::thread::sleep(2 * MIN_RUN);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!((slow.batch, calls), (1, RUNS));
        assert!(slow.median >= 2.0 * MIN_RUN.as_secs_f64() * 1e3);
    }

    #[test]
    fn ledger_rows_are_escaped_json_with_run_metadata() {
        let mut ledger = Ledger {
            name: "test",
            meta: RunMeta {
                git_rev: "abc1234-dirty".into(),
                cores: 2,
                profile: "release",
            },
            rows: Vec::new(),
        };
        let fast = Timing {
            median: 0.000_412_3,
            iqr: 0.000_05,
            batch: 4096,
        };
        let slow = Timing {
            median: 1234.5,
            iqr: 12.0,
            batch: 1,
        };
        ledger.row(&[("wall", fast)], |j| {
            j.str_field("workload", "a\"b\\c\u{1}");
        });
        ledger.row(&[("scan", slow), ("normal_form", fast)], |j| {
            j.u64_field("states", 7);
        });
        let text = ledger.render();
        assert!(
            text.contains(r#""workload":"a\"b\\c\u0001""#),
            "name not JSON-escaped: {text}"
        );
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(rows.len(), 3, "header plus one line per row: {text}");
        for row in &rows[1..] {
            for field in [
                r#""runs":5"#,
                r#""git_rev":"abc1234-dirty""#,
                r#""cores":2"#,
                r#""profile":"release""#,
            ] {
                assert!(row.contains(field), "{field} missing from {row}");
            }
        }
        assert!(
            rows[1].contains(r#""wall_ms":0.0004123,"wall_iqr_ms":0.00005000,"wall_batch":4096"#)
        );
        assert!(rows[2].contains(r#""scan_ms":1234.500,"scan_iqr_ms":12.000,"scan_batch":1"#));
        assert!(!text.contains("0.000,") && !text.contains("0.000 "));
        assert_eq!(fast.to_string(), "0.0004123 ± 0.00005000");
    }
}
