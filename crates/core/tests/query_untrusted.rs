//! Edge paths a serving layer feeds the [`Query`] builder from
//! untrusted input: empty source sets, object ids outside the universe,
//! zero budgets and bounds, and searches that exhaust their limits.
//! Every case must produce a structured error or a well-defined answer —
//! never a panic.

use std::time::{Duration, Instant};

use sd_core::{examples, CompileBudget, Engine, Error, ObjId, ObjSet, Oracle, Phi, Query};

#[test]
fn empty_source_set_yields_empty_sinks() {
    let sys = examples::flag_copy_system(3).unwrap();
    let out = Query::new(Phi::True, ObjSet::empty()).run_on(&sys).unwrap();
    assert!(!out.holds());
    assert!(out.into_sinks().unwrap().is_empty());
}

#[test]
fn empty_source_set_transmits_to_no_beta() {
    let sys = examples::flag_copy_system(3).unwrap();
    let beta = sys.universe().obj("beta").unwrap();
    let out = Query::new(Phi::True, ObjSet::empty())
        .beta(beta)
        .run_on(&sys)
        .unwrap();
    assert!(out.into_witness().is_none());
}

#[test]
fn out_of_universe_beta_is_unknown_object_not_panic() {
    let sys = examples::flag_copy_system(3).unwrap();
    let a = ObjSet::singleton(sys.universe().obj("alpha").unwrap());
    let err = Query::new(Phi::True, a)
        .beta(ObjId::from_index(999))
        .run_on(&sys)
        .unwrap_err();
    assert!(
        matches!(err, Error::UnknownObject(ref n) if n == "#999"),
        "{err:?}"
    );
}

#[test]
fn out_of_universe_source_is_unknown_object_not_panic() {
    let sys = examples::flag_copy_system(3).unwrap();
    let a = ObjSet::singleton(ObjId::from_index(4096));
    let err = Query::new(Phi::True, a).run_on(&sys).unwrap_err();
    assert!(matches!(err, Error::UnknownObject(_)), "{err:?}");
}

#[test]
fn out_of_universe_set_target_and_matrix_row_are_rejected() {
    let sys = examples::flag_copy_system(3).unwrap();
    let u = sys.universe();
    let a = ObjSet::singleton(u.obj("alpha").unwrap());
    let bad = ObjSet::singleton(ObjId::from_index(77));
    let err = Query::new(Phi::True, a.clone())
        .set(bad.clone())
        .run_on(&sys)
        .unwrap_err();
    assert!(matches!(err, Error::UnknownObject(_)), "{err:?}");
    let err = Query::matrix(Phi::True, vec![a, bad])
        .run_on(&sys)
        .unwrap_err();
    assert!(matches!(err, Error::UnknownObject(_)), "{err:?}");
}

#[test]
fn shared_oracle_validates_before_searching() {
    let sys = examples::flag_copy_system(3).unwrap();
    let oracle = Oracle::new(&sys).unwrap();
    let err = Query::new(Phi::True, ObjSet::singleton(ObjId::from_index(500)))
        .run(&oracle)
        .unwrap_err();
    assert!(matches!(err, Error::UnknownObject(_)), "{err:?}");
}

#[test]
fn zero_compile_budget_still_answers_correctly() {
    // A zero budget cannot afford any compiled table; Engine::Auto must
    // degrade (not fail, not panic) and agree with the default build.
    let sys = examples::flag_copy_system(3).unwrap();
    let u = sys.universe();
    let a = ObjSet::singleton(u.obj("alpha").unwrap());
    let zero = CompileBudget {
        max_dense_entries: 0,
        max_dense_pair_bits: 0,
    };
    let lean = Query::new(Phi::True, a.clone())
        .run(&Oracle::with_engine(&sys, Engine::Auto, &zero).unwrap())
        .unwrap();
    let full = Query::new(Phi::True, a).run_on(&sys).unwrap();
    assert_eq!(
        lean.into_sinks().unwrap(),
        full.into_sinks().unwrap(),
        "budget changes the engine, never the answer"
    );
}

#[test]
fn bounded_zero_permits_only_the_empty_history() {
    // Length-0 histories transmit nothing: the query completes with a
    // negative verdict rather than erroring or panicking.
    let sys = examples::flag_copy_system(3).unwrap();
    let u = sys.universe();
    let a = ObjSet::singleton(u.obj("alpha").unwrap());
    let beta = u.obj("beta").unwrap();
    let out = Query::new(Phi::True, a.clone())
        .beta(beta)
        .bounded(0)
        .run_on(&sys)
        .unwrap();
    assert!(out.into_witness().is_none());
    // Sanity: an adequate bound finds the flow this system does have.
    let out = Query::new(Phi::True, a)
        .beta(beta)
        .bounded(4)
        .run_on(&sys)
        .unwrap();
    assert!(out.into_witness().is_some());
}

#[test]
fn large_bounds_cost_no_more_than_the_unbounded_search() {
    // A bound is a depth cap on the pair search, not an enumeration of
    // |Δ|^k histories: k = 40 finishes as fast as the unbounded query.
    // alpha is in cone(beta) (through m and q), so the cone cannot answer
    // and the search runs; q never changes, so nothing flows.
    let sys = examples::nontransitive_system(3).unwrap();
    let u = sys.universe();
    let start = Instant::now();
    let out = Query::new(Phi::True, ObjSet::singleton(u.obj("alpha").unwrap()))
        .beta(u.obj("beta").unwrap())
        .bounded(40)
        .timeout(Duration::from_secs(2))
        .run_on(&sys)
        .unwrap();
    let took = start.elapsed();
    assert!(!out.holds(), "nothing flows from alpha into beta");
    assert!(
        out.report.visited_pairs > 0,
        "the report names the real search"
    );
    assert!(
        took < Duration::from_millis(100),
        "bounded(40) took {took:?}"
    );
}

#[test]
fn pair_budget_applies_to_bounded_queries() {
    // alpha is in cone(beta), so this bounded query searches.
    let sys = examples::nontransitive_system(2).unwrap();
    let u = sys.universe();
    let err = Query::new(Phi::True, ObjSet::singleton(u.obj("alpha").unwrap()))
        .beta(u.obj("beta").unwrap())
        .bounded(3)
        .max_pairs(0)
        .run_on(&sys)
        .unwrap_err();
    assert!(matches!(err, Error::BudgetExhausted { .. }), "{err:?}");
}

#[test]
fn cone_decided_queries_spend_no_pair_budget() {
    // cone(x) = {x} in flag_copy: nothing is ever assigned into x, so
    // beta cannot reach it and no search runs, even under a zero budget.
    let sys = examples::flag_copy_system(3).unwrap();
    let u = sys.universe();
    let out = Query::new(Phi::True, ObjSet::singleton(u.obj("beta").unwrap()))
        .beta(u.obj("x").unwrap())
        .bounded(3)
        .max_pairs(0)
        .run_on(&sys)
        .unwrap();
    assert!(!out.holds());
    assert_eq!(out.report.engine, "cone");
    assert_eq!(out.report.visited_pairs, 0);
    assert_eq!(out.report.pair_expansions, 0);
}

#[test]
fn pair_budget_exhausts_with_counts_in_the_error() {
    let sys = examples::flag_copy_system(3).unwrap();
    let a = ObjSet::singleton(sys.universe().obj("alpha").unwrap());
    let err = Query::new(Phi::True, a)
        .max_pairs(0)
        .run_on(&sys)
        .unwrap_err();
    match err {
        Error::BudgetExhausted {
            visited_pairs,
            limit,
        } => {
            assert_eq!(limit, 0);
            assert!(visited_pairs > limit, "the search made progress first");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn expired_deadline_is_a_structured_timeout() {
    let sys = examples::flag_copy_system(3).unwrap();
    let a = ObjSet::singleton(sys.universe().obj("alpha").unwrap());
    let err = Query::new(Phi::True, a)
        .timeout(Duration::ZERO)
        .run_on(&sys)
        .unwrap_err();
    assert!(matches!(err, Error::DeadlineExceeded), "{err:?}");
}

#[test]
fn exhausted_searches_leave_the_shared_oracle_usable() {
    // A budget failure mid-search must not poison shared state: the same
    // Oracle answers the same query afterwards.
    let sys = examples::flag_copy_system(3).unwrap();
    let u = sys.universe();
    let a = ObjSet::singleton(u.obj("alpha").unwrap());
    let oracle = Oracle::new(&sys).unwrap();
    let err = Query::new(Phi::True, a.clone())
        .max_pairs(0)
        .run(&oracle)
        .unwrap_err();
    assert!(matches!(err, Error::BudgetExhausted { .. }), "{err:?}");
    let out = Query::new(Phi::True, a).run(&oracle).unwrap();
    assert!(out.holds());
}
