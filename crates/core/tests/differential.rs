//! Differential tests: every engine behind [`Query`] must be
//! observationally identical to the interpreted reference on valid
//! systems — same verdicts, same (minimal-length) witnesses, same sink
//! sets, and, wherever it searched, the same visited pairs, levels and
//! pair expansions — across random systems and every example system
//! from the paper. Bounded queries are checked against brute-force history
//! enumeration (the Def 2-7 check on every history up to the bound).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::depend::strongly_depends_after;
use sd_core::history::histories_up_to;
use sd_core::{
    examples, Cmd, CompileBudget, DependsWitness, Domain, Engine, Expr, History, ObjId, ObjSet, Op,
    Oracle, Phi, Query, QueryOutcome, QueryReport, State, System, Universe,
};

const BUDGET: CompileBudget = CompileBudget {
    max_dense_entries: 1 << 24,
    max_dense_pair_bits: 1 << 28,
};

/// [`BUDGET`] with a hashed visited set in every search.
const HASHED: CompileBudget = CompileBudget {
    max_dense_pair_bits: 0,
    ..BUDGET
};

/// [`BUDGET`] with no room for a dense table: sparse rows on any system.
const SPARSE: CompileBudget = CompileBudget {
    max_dense_entries: 0,
    ..BUDGET
};

/// How a test runs a query: `Some((engine, budget, label))` on a fresh
/// Oracle built with that engine and budget, whose searches must report
/// the engine label given; `None` one-shot through [`Query::run_on`] (the
/// φ-tuned `Engine::Auto` Oracle). Every corpus system has dense tables
/// under [`BUDGET`].
type Mode = Option<(Engine, CompileBudget, &'static str)>;

const INTERPRETED: Mode = Some((Engine::Interpreted, BUDGET, "interpreted"));

const COMPILED: [Mode; 4] = [
    None,
    Some((Engine::Auto, BUDGET, "compiled-dense")),
    Some((Engine::Auto, HASHED, "compiled-dense")),
    Some((Engine::Auto, SPARSE, "compiled-sparse")),
];

const ENGINES: [Mode; 5] = [
    INTERPRETED,
    COMPILED[0],
    COMPILED[1],
    COMPILED[2],
    COMPILED[3],
];

/// Runs `q` in `mode`, checking the engine label of an Oracle run: the
/// mode's own, or `"cone"` where a dense Oracle's cone decided without a
/// search.
fn run(sys: &System, q: &Query, mode: Mode) -> QueryOutcome {
    let Some((engine, budget, label)) = mode else {
        return q.run_on(sys).unwrap();
    };
    let out = run_with(sys, q, engine, &budget);
    let got = out.report.engine;
    assert!(
        got == label || (got == "cone" && label == "compiled-dense"),
        "{engine:?} under {budget:?} reports {got}, not {label}"
    );
    out
}

/// Runs `q` on a fresh Oracle built with `engine` and `budget`.
fn run_with(sys: &System, q: &Query, engine: Engine, budget: &CompileBudget) -> QueryOutcome {
    q.run(&Oracle::with_engine(sys, engine, budget).unwrap())
        .unwrap()
}

/// The search counts `(visited pairs, levels, pair expansions)` that
/// every engine must report alike.
fn counts(r: &QueryReport) -> (u64, u32, u64) {
    (r.visited_pairs, r.levels, r.pair_expansions)
}

/// Asserts that a β- or set-target run's search counts equal the
/// interpreted reference's, unless the cone decided the run without a
/// search.
fn assert_counts(got: &QueryReport, reference: &QueryReport, what: &str) {
    if got.engine != "cone" {
        assert_eq!(counts(got), counts(reference), "{what}: search counts");
    }
}

/// The brute-force reference for `bounded(k)`: the first history of
/// length ≤ k, in enumeration order, after which β strongly depends on
/// A, with the state pair the Def 2-7 check found.
fn enumerate_bounded(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    beta: ObjId,
    k: usize,
) -> Option<(History, State, State)> {
    histories_up_to(sys.num_ops(), k).find_map(|h| {
        strongly_depends_after(sys, phi, a, beta, &h)
            .unwrap()
            .map(|w| (h, w.sigma1, w.sigma2))
    })
}

/// A random valid system: `n` objects over a common `k`-valued domain,
/// with guarded copy/constant operations (always in-domain, so
/// `System::validate` holds by construction).
fn random_system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..=4);
    let k = rng.gen_range(2i64..=3);
    let objects = (0..n)
        .map(|i| (format!("x{i}"), Domain::int_range(0, k - 1).unwrap()))
        .collect();
    let u = Universe::new(objects).unwrap();
    let ids: Vec<_> = u.objects().collect();
    let num_ops = rng.gen_range(2usize..=4);
    let ops = (0..num_ops)
        .map(|i| {
            let guard = Expr::var(ids[rng.gen_range(0..n)]).lt(Expr::int(rng.gen_range(1..=k)));
            let mut body = Vec::new();
            for _ in 0..rng.gen_range(1usize..=2) {
                let dst = ids[rng.gen_range(0..n)];
                let rhs = if rng.gen_bool(0.7) {
                    Expr::var(ids[rng.gen_range(0..n)])
                } else {
                    Expr::int(rng.gen_range(0..k))
                };
                body.push(Cmd::assign(dst, rhs));
            }
            Op::from_cmd(format!("o{i}"), Cmd::when(guard, Cmd::Seq(body)))
        })
        .collect();
    System::new(u, ops)
}

/// A φ drawn from a small pool, including a materialised `Phi::Set` so
/// the extensional fast path is exercised too.
fn random_phi(sys: &System, rng: &mut StdRng) -> Phi {
    let u = sys.universe();
    let ids: Vec<_> = u.objects().collect();
    let obj = ids[rng.gen_range(0..ids.len())];
    let bound = u.domain(obj).size() as i64;
    let expr = Phi::expr(Expr::var(obj).lt(Expr::int(rng.gen_range(1..=bound))));
    match rng.gen_range(0u32..3) {
        0 => Phi::True,
        1 => expr,
        _ => Phi::from_set(expr.sat(sys).unwrap()),
    }
}

fn witness_fields(w: Option<DependsWitness>) -> Option<(History, State, State)> {
    w.map(|w| (w.history, w.sigma1, w.sigma2))
}

/// Replays a witness: both states satisfy φ, differ only at A, and the
/// history drives them to different β values.
fn assert_witness_valid(sys: &System, phi: &Phi, a: &ObjSet, beta: ObjId, w: &DependsWitness) {
    assert!(phi.holds(sys, &w.sigma1).unwrap());
    assert!(phi.holds(sys, &w.sigma2).unwrap());
    assert!(w.sigma1.eq_except(&w.sigma2, a));
    assert_ne!(w.sigma1, w.sigma2);
    let o1 = sys.run(&w.sigma1, &w.history).unwrap();
    let o2 = sys.run(&w.sigma2, &w.history).unwrap();
    assert_ne!(o1.index(beta), o2.index(beta), "witness does not reach β");
}

/// Checks all engines against the interpreted reference for one
/// (system, φ, A) configuration, over every β and a set target.
fn check_configuration(sys: &System, phi: &Phi, a: &ObjSet) {
    let u = sys.universe();
    let objects: Vec<_> = u.objects().collect();
    let query = Query::new(phi.clone(), a.clone());
    for &beta in &objects {
        let q = query.clone().beta(beta);
        let reference = run(sys, &q, INTERPRETED);
        let report = reference.report;
        let reference = reference.into_witness();
        if let Some(w) = &reference {
            assert_witness_valid(sys, phi, a, beta, w);
        }
        let reference = witness_fields(reference);
        for engine in COMPILED {
            let got = run(sys, &q, engine);
            assert_counts(&got.report, &report, &format!("{engine:?}, beta {beta:?}"));
            let got = got.into_witness();
            if let Some(w) = &got {
                assert_witness_valid(sys, phi, a, beta, w);
            }
            assert_eq!(
                witness_fields(got),
                reference,
                "depends mismatch: {engine:?}, beta {beta:?}"
            );
        }
    }
    // Set target: the first two objects simultaneously.
    let q = query.clone().set(objects.iter().take(2).copied().collect());
    let reference = run(sys, &q, INTERPRETED);
    for engine in COMPILED {
        let got = run(sys, &q, engine);
        assert_counts(&got.report, &reference.report, &format!("{engine:?} set"));
        assert_eq!(
            witness_fields(got.into_witness()),
            witness_fields(reference.clone().into_witness()),
            "set-target mismatch: {engine:?}"
        );
    }
    // Sinks row. No counts: the compiled engines drop objects whose
    // cone misses A from the goal set, so their search may stop sooner.
    let reference = run(sys, &query, INTERPRETED).into_sinks();
    for engine in COMPILED {
        let got = run(sys, &query, engine).into_sinks();
        assert_eq!(got, reference, "sinks mismatch: {engine:?}");
    }
}

#[test]
fn engines_agree_on_random_systems() {
    // ≥ 100 random systems, each exercised across every β under a random
    // φ and source set.
    for seed in 0..120u64 {
        let sys = random_system(seed);
        sys.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, &mut rng);
        let mut a = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        if rng.gen_bool(0.3) {
            a.insert(ids[rng.gen_range(0..ids.len())]);
        }
        check_configuration(&sys, &phi, &a);
    }
}

#[test]
fn exact_search_agrees_with_bounded_enumeration() {
    // The enumeration visits histories by ascending length, so when the
    // exact witness fits the bound both must find one of the same
    // minimal length; when the exact search finds nothing, neither can
    // the enumeration. `bounded(BOUND)` must agree with the enumeration
    // on every engine, and return the exact witness when it fits.
    const BOUND: usize = 3;
    for seed in 0..40u64 {
        let sys = random_system(seed);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let mut rng = StdRng::seed_from_u64(!seed);
        let phi = random_phi(&sys, &mut rng);
        let a = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        for &beta in &ids {
            let q = Query::new(phi.clone(), a.clone()).beta(beta);
            let exact = q.run_on(&sys).unwrap().into_witness();
            let brute = enumerate_bounded(&sys, &phi, &a, beta, BOUND);
            match (&exact, &brute) {
                (None, None) => {}
                (None, Some((h, _, _))) => panic!(
                    "enumeration found a length-{} witness the exact search missed",
                    h.len()
                ),
                (Some(e), None) => assert!(
                    e.history.len() > BOUND,
                    "exact witness of length {} not found by bound {BOUND}",
                    e.history.len()
                ),
                (Some(e), Some((h, sigma1, sigma2))) => {
                    assert_eq!(
                        e.history.len(),
                        h.len(),
                        "witness lengths disagree (both must be minimal)"
                    );
                    let w = DependsWitness {
                        history: h.clone(),
                        sigma1: sigma1.clone(),
                        sigma2: sigma2.clone(),
                    };
                    assert_witness_valid(&sys, &phi, &a, beta, &w);
                }
            }
            for engine in ENGINES {
                let bounded = run(&sys, &q.clone().bounded(BOUND), engine).into_witness();
                assert_eq!(
                    bounded.as_ref().map(|w| w.history.len()),
                    brute.as_ref().map(|(h, _, _)| h.len()),
                    "bounded verdict or length differs from the enumeration: {engine:?}"
                );
                if let Some(w) = &bounded {
                    assert_witness_valid(&sys, &phi, &a, beta, w);
                    assert_eq!(witness_fields(bounded), witness_fields(exact.clone()));
                }
            }
        }
    }
}

/// For every engine on the paper examples, `bounded(k)` returns the
/// unbounded witness when that witness has length ≤ k, and nothing
/// otherwise.
#[test]
fn bounded_witnesses_are_the_unbounded_ones() {
    let systems = [
        examples::copy_system(3).unwrap(),
        examples::threshold_system(3).unwrap(),
        examples::guarded_copy_system(2).unwrap(),
        examples::flag_copy_system(2).unwrap(),
        examples::nontransitive_system(2).unwrap(),
        examples::left_right_system(2).unwrap(),
        examples::m1m2_system(2).unwrap(),
        examples::oscillator_system(2).unwrap(),
    ];
    for sys in &systems {
        let ids: Vec<_> = sys.universe().objects().collect();
        for &alpha in &ids {
            for &beta in &ids {
                let q = Query::new(Phi::True, ObjSet::singleton(alpha)).beta(beta);
                for engine in ENGINES {
                    let exact = witness_fields(run(sys, &q, engine).into_witness());
                    for k in 0..=3usize {
                        let bounded =
                            witness_fields(run(sys, &q.clone().bounded(k), engine).into_witness());
                        let want = exact.clone().filter(|(h, _, _)| h.len() <= k);
                        assert_eq!(bounded, want, "bounded({k}) on {engine:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_paper_examples() {
    let systems = [
        examples::copy_system(4).unwrap(),
        examples::threshold_system(15).unwrap(),
        examples::guarded_copy_system(3).unwrap(),
        examples::flag_copy_system(3).unwrap(),
        examples::nontransitive_system(2).unwrap(),
        examples::pointer_chain_system(3, 2).unwrap(),
        examples::left_right_system(3).unwrap(),
        examples::alpha12_copy_system(3).unwrap(),
        examples::alpha12_sub_system(3).unwrap(),
        examples::m1m2_system(2).unwrap(),
        examples::oscillator_system(5).unwrap(),
        examples::floyd_flowchart_system(2).unwrap(),
        examples::pc_branch_system().unwrap(),
        examples::mod_adder_system(2).unwrap(),
        examples::two_op_rights_system().unwrap(),
    ];
    for sys in &systems {
        let u = sys.universe();
        // Cap the source sweep on the larger universes; every object is
        // still covered as a β via the sinks-row comparison.
        let sources: Vec<ObjSet> = u.objects().take(4).map(ObjSet::singleton).collect();
        for a in &sources {
            check_configuration(sys, &Phi::True, a);
        }
        // The batched matrix agrees with interpreted row-by-row sinks.
        let matrix = Query::matrix(Phi::True, sources.clone());
        for engine in COMPILED {
            let rows = run(sys, &matrix, engine).into_rows().unwrap();
            for (a, row) in sources.iter().zip(rows) {
                let single = Query::new(Phi::True, a.clone());
                let reference = run(sys, &single, INTERPRETED).into_sinks();
                assert_eq!(Some(row), reference, "matrix row mismatch for {a:?}");
            }
        }
    }
}

#[test]
fn root_to_root_steps_match_the_interpreted_engine() {
    // `rot` maps every initial pair (two states differing only at a) onto
    // another initial pair, so whether the compiled engines drop those
    // candidates rests on their root test alone: roots own no visited
    // mark. `leak` copies `a > 1` into b once x = 2; `mask` writes c from
    // a without transmitting anything, so a ▷ c needs an exhaustive
    // search that the cone cannot skip. Each query runs on a dense
    // visited bitmap, on a hashed visited set (|Σ|² above the pair-bit
    // budget) and on sparse rows.
    let u = Universe::new(vec![
        ("a".into(), Domain::int_range(0, 3).unwrap()),
        ("b".into(), Domain::boolean()),
        ("c".into(), Domain::int_range(0, 1).unwrap()),
        ("x".into(), Domain::int_range(0, 2).unwrap()),
    ])
    .unwrap();
    let [a, b, c, x] = ["a", "b", "c", "x"].map(|n| u.obj(n).unwrap());
    let ops = vec![
        Op::from_cmd(
            "rot",
            Cmd::assign(a, Expr::var(a).add(Expr::int(1)).modulo(Expr::int(4))),
        ),
        Op::from_cmd(
            "leak",
            Cmd::when(
                Expr::var(x).eq(Expr::int(2)),
                Cmd::assign(b, Expr::var(a).gt(Expr::int(1))),
            ),
        ),
        Op::from_cmd("mask", Cmd::assign(c, Expr::var(a).sub(Expr::var(a)))),
        Op::from_cmd(
            "x",
            Cmd::assign(x, Expr::var(x).add(Expr::int(1)).modulo(Expr::int(3))),
        ),
    ];
    let sys = System::new(u, ops);
    sys.validate().unwrap();
    let a_only = ObjSet::singleton(a);
    let x_is_0 = Phi::expr(Expr::var(x).eq(Expr::int(0)));
    let queries = [
        Query::new(Phi::True, a_only.clone()).beta(b),
        Query::new(x_is_0.clone(), a_only.clone()).beta(b),
        Query::new(Phi::True, a_only.clone()).beta(c),
        Query::new(x_is_0, a_only.clone()),
    ];
    for (i, q) in queries.iter().enumerate() {
        let reference = run(&sys, q, INTERPRETED);
        assert!(reference.report.visited_pairs > 0);
        for (engine, budget, label) in COMPILED.into_iter().flatten() {
            let got = run_with(&sys, q, engine, &budget);
            let what = format!("query {i}, {engine:?}, {budget:?}");
            assert_eq!(got.report.engine, label, "{what}");
            assert_eq!(counts(&got.report), counts(&reference.report), "{what}");
            assert_eq!(
                witness_fields(got.clone().into_witness()),
                witness_fields(reference.clone().into_witness()),
                "{what}"
            );
            assert_eq!(got.into_sinks(), reference.clone().into_sinks(), "{what}");
        }
    }
    // The flow queries do flow, and a ▷ c does not.
    assert!(run(&sys, &queries[0], INTERPRETED).holds());
    assert!(!run(&sys, &queries[2], INTERPRETED).holds());
}
