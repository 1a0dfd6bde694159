//! Differential tests: every engine behind [`Query`] must be
//! observationally identical to the interpreted reference on valid
//! systems — same verdicts, same (minimal-length) witnesses, same sink
//! sets — across random systems and every example system from the
//! paper. Bounded queries are checked against brute-force history
//! enumeration (the Def 2-7 check on every history up to the bound).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::depend::strongly_depends_after;
use sd_core::history::histories_up_to;
use sd_core::{
    examples, Cmd, CompileBudget, DependsWitness, Domain, Engine, Expr, History, ObjId, ObjSet, Op,
    Oracle, Phi, Query, QueryOutcome, State, System, Universe,
};

const BUDGET: CompileBudget = CompileBudget {
    max_dense_entries: 1 << 24,
    max_dense_pair_bits: 1 << 28,
};

/// How a test runs a query: `Some(engine)` on a fresh Oracle pinned to
/// that engine under the shared test budget, `None` one-shot through
/// [`Query::run_on`] (the φ-tuned `Engine::Auto` Oracle).
type Mode = Option<Engine>;

const INTERPRETED: Mode = Some(Engine::Interpreted);

const COMPILED: [Mode; 4] = [
    None,
    Some(Engine::Auto),
    Some(Engine::CompiledDense),
    Some(Engine::CompiledSparse),
];

const ENGINES: [Mode; 5] = [
    INTERPRETED,
    None,
    Some(Engine::Auto),
    Some(Engine::CompiledDense),
    Some(Engine::CompiledSparse),
];

/// Runs `q` in `mode`.
fn run(sys: &System, q: &Query, mode: Mode) -> QueryOutcome {
    match mode {
        Some(engine) => q
            .run(&Oracle::with_engine(sys, engine, &BUDGET).unwrap())
            .unwrap(),
        None => q.run_on(sys).unwrap(),
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

fn witness_fields(w: Option<DependsWitness>) -> Option<(usize, State, State)> {
    w.map(|w| (w.history.len(), w.sigma1, w.sigma2))
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
        let reference = run(sys, &q, INTERPRETED).into_witness();
        if let Some(w) = &reference {
            assert_witness_valid(sys, phi, a, beta, w);
        }
        let reference = witness_fields(reference);
        for engine in COMPILED {
            let got = run(sys, &q, engine).into_witness();
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
    let reference = witness_fields(run(sys, &q, INTERPRETED).into_witness());
    for engine in COMPILED {
        let got = witness_fields(run(sys, &q, engine).into_witness());
        assert_eq!(got, reference, "set-target mismatch: {engine:?}");
    }
    // Sinks row.
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
                        let want = exact.clone().filter(|(len, _, _)| *len <= k);
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
