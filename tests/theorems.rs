//! Integration tests: the paper's theorems, validated on families of
//! random systems against the exact decision procedures.

mod common;

use common::{random_autonomous_phi, random_phi, random_src_sink, random_system};
use strong_dependency::core::{
    after, classify, cover, depend, history, induction, History, ObjSet, Oracle, Phi, Query,
};

/// Systems used across the theorem sweeps.
fn systems() -> Vec<strong_dependency::core::System> {
    let mut out = Vec::new();
    for seed in 0..8u64 {
        out.push(random_system(3, 3, 3, seed));
    }
    for seed in 8..12u64 {
        out.push(random_system(4, 2, 4, seed));
    }
    out
}

#[test]
fn random_systems_are_closed() {
    for sys in systems() {
        sys.validate().expect("workload systems are total");
    }
}

/// Theorem 2-2: A1 ⊆ A2 ⊃ (A1 ▷φH β ⊃ A2 ▷φH β).
#[test]
fn theorem_2_2_source_monotonicity() {
    for (i, sys) in systems().into_iter().enumerate() {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, i as u64);
        let a1 = ObjSet::singleton(ids[0]);
        let a2 = ObjSet::from_iter([ids[0], ids[1]]);
        for h in history::histories_up_to(sys.num_ops(), 2) {
            for &beta in &ids {
                let small = depend::strongly_depends_after(&sys, &phi, &a1, beta, &h)
                    .unwrap()
                    .is_some();
                let big = depend::strongly_depends_after(&sys, &phi, &a2, beta, &h)
                    .unwrap()
                    .is_some();
                assert!(!small || big, "Thm 2-2 violated (seed {i}, H = {h})");
            }
        }
    }
}

/// Theorem 2-3: φ1 ⊆ φ2 ⊃ (A ▷φ1H β ⊃ A ▷φ2H β).
#[test]
fn theorem_2_3_constraint_monotonicity() {
    for (i, sys) in systems().into_iter().enumerate() {
        let phi2 = random_phi(&sys, i as u64);
        let phi1 = phi2
            .clone()
            .and(random_autonomous_phi(&sys, 100 + i as u64));
        assert!(phi1.entails(&sys, &phi2).unwrap());
        let (a, beta) = random_src_sink(&sys, i as u64);
        for h in history::histories_up_to(sys.num_ops(), 2) {
            let small = depend::strongly_depends_after(&sys, &phi1, &a, beta, &h)
                .unwrap()
                .is_some();
            let big = depend::strongly_depends_after(&sys, &phi2, &a, beta, &h)
                .unwrap()
                .is_some();
            assert!(!small || big, "Thm 2-3 violated (seed {i}, H = {h})");
        }
    }
}

/// Theorem 2-4: if φ eliminates all variety in A, nothing flows from A.
#[test]
fn theorem_2_4_no_variety_no_flow() {
    for (i, sys) in systems().into_iter().enumerate() {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let a = ObjSet::singleton(ids[0]);
        // Pin the source to a constant.
        let phi = Phi::expr(
            strong_dependency::core::Expr::var(ids[0]).eq(strong_dependency::core::Expr::int(0)),
        );
        for &beta in &ids {
            if beta == ids[0] {
                continue;
            }
            // Over the empty and unit histories (exhaustive over all
            // histories would allow later writes INTO α to flow onward,
            // which Thm 2-4 does not forbid — it speaks of A's initial
            // variety).
            let dep =
                depend::strongly_depends_after(&sys, &phi, &a, beta, &History::empty()).unwrap();
            assert!(dep.is_none(), "Thm 2-4 violated (seed {i})");
        }
    }
}

/// Theorem 2-5: A ▷φλ β ⊃ β ∈ A.
#[test]
fn theorem_2_5_lambda_reflexive() {
    for (i, sys) in systems().into_iter().enumerate() {
        let phi = random_phi(&sys, i as u64);
        let (a, beta) = random_src_sink(&sys, 31 + i as u64);
        let dep = depend::strongly_depends_after(&sys, &phi, &a, beta, &History::empty())
            .unwrap()
            .is_some();
        assert!(!dep || a.contains(beta), "Thm 2-5 violated (seed {i})");
    }
}

/// Theorem 2-6: for autonomous φ, A ▷φH β ⊃ ∃α ∈ A: α ▷φH β.
#[test]
fn theorem_2_6_set_sources_decompose() {
    for (i, sys) in systems().into_iter().enumerate() {
        let phi = random_autonomous_phi(&sys, i as u64);
        if phi.sat(&sys).unwrap().is_empty() {
            continue;
        }
        assert!(classify::is_autonomous(&sys, &phi).unwrap());
        let (a, beta) = random_src_sink(&sys, 77 + i as u64);
        for h in history::histories_up_to(sys.num_ops(), 2) {
            let set_dep = depend::strongly_depends_after(&sys, &phi, &a, beta, &h)
                .unwrap()
                .is_some();
            if set_dep {
                let any_single = a.iter().any(|alpha| {
                    depend::strongly_depends_after(&sys, &phi, &ObjSet::singleton(alpha), beta, &h)
                        .unwrap()
                        .is_some()
                });
                assert!(any_single, "Thm 2-6 violated (seed {i}, H = {h})");
            }
        }
    }
}

/// Theorem 4-1: for autonomous invariant φ, a two-part dependency factors
/// through an intermediate object.
#[test]
fn theorem_4_1_intermediate_objects() {
    for (i, sys) in systems().into_iter().enumerate().take(6) {
        let phi = random_autonomous_phi(&sys, i as u64);
        if phi.sat(&sys).unwrap().is_empty() || !classify::is_invariant(&sys, &phi).unwrap() {
            continue;
        }
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        assert!(
            induction::check_theorem_4_1(&sys, &phi, ids[0], ids[1], 2).unwrap(),
            "Thm 4-1 violated (seed {i})"
        );
    }
}

/// Theorem 5-5: the pointwise decomposition through difference sets, for
/// invariant φ (and in fact pointwise for any φ — Thm 6-4).
#[test]
fn theorem_5_5_pointwise_decomposition() {
    for (i, sys) in systems().into_iter().enumerate().take(6) {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, 600 + i as u64);
        let a = ObjSet::singleton(ids[0]);
        assert!(
            induction::check_theorem_5_5(&sys, &phi, &a, ids[1], 2).unwrap(),
            "Thm 5-5 violated (seed {i})"
        );
    }
}

/// Theorem 6-3: decomposition through set intermediates under the evolved
/// constraint [H]φ, for arbitrary (non-invariant) φ.
#[test]
fn theorem_6_3_evolved_constraint() {
    for (i, sys) in systems().into_iter().enumerate().take(6) {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, 700 + i as u64);
        if phi.sat(&sys).unwrap().is_empty() {
            continue;
        }
        let a = ObjSet::singleton(ids[0]);
        assert!(
            induction::check_theorem_6_3(&sys, &phi, &a, ids[1], 2).unwrap(),
            "Thm 6-3 violated (seed {i})"
        );
    }
}

/// Theorem 4-5: separation of variety over A-independent covers.
#[test]
fn theorem_4_5_separation() {
    for (i, sys) in systems().into_iter().enumerate() {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let (a, beta) = random_src_sink(&sys, 13 + i as u64);
        // Split on an object outside A.
        let Some(&pivot) = ids.iter().find(|o| !a.contains(**o)) else {
            continue;
        };
        let split =
            strong_dependency::core::Expr::var(pivot).lt(strong_dependency::core::Expr::int(1));
        let cover = vec![Phi::expr(split.clone()), Phi::expr(split).not()];
        assert!(
            cover::check_theorem_4_5(&sys, &Phi::True, &cover, &a, beta).unwrap(),
            "Thm 4-5 violated (seed {i})"
        );
    }
}

/// Theorem 5-1: the A-autonomy product characterization agrees with the
/// literal substitution condition.
#[test]
fn theorem_5_1_substitution() {
    for (i, sys) in systems().into_iter().enumerate() {
        let phi = random_phi(&sys, 55 + i as u64);
        let (a, _) = random_src_sink(&sys, i as u64);
        let fast = classify::is_autonomous_relative(&sys, &phi, &a).unwrap();
        let sat: Vec<_> = sys
            .states()
            .unwrap()
            .filter(|s| phi.holds(&sys, s).unwrap())
            .collect();
        let literal = sat.iter().all(|s1| {
            sat.iter()
                .all(|s2| phi.holds(&sys, &s2.substitute(&a, s1)).unwrap())
        });
        assert_eq!(fast, literal, "Thm 5-1 mismatch (seed {i})");
    }
}

/// Theorem 5-3: set-target dependency implies each member singly.
#[test]
fn theorem_5_3_set_targets() {
    for (i, sys) in systems().into_iter().enumerate().take(6) {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, i as u64);
        let a = ObjSet::singleton(ids[0]);
        let b = ObjSet::from_iter([ids[1], ids[2 % ids.len()]]);
        for h in history::histories_up_to(sys.num_ops(), 2) {
            let set_dep = depend::strongly_depends_set_after(&sys, &phi, &a, &b, &h)
                .unwrap()
                .is_some();
            if set_dep {
                for beta in b.iter() {
                    assert!(
                        depend::strongly_depends_after(&sys, &phi, &a, beta, &h)
                            .unwrap()
                            .is_some(),
                        "Thm 5-3 violated (seed {i})"
                    );
                }
            }
        }
    }
}

/// Theorem 6-1: φ(σ) ⊃ [H]φ(H(σ)).
#[test]
fn theorem_6_1_after_images() {
    for (i, sys) in systems().into_iter().enumerate().take(6) {
        let phi = random_phi(&sys, i as u64);
        assert!(
            after::check_theorem_6_1(&sys, &phi, 2).unwrap(),
            "Thm 6-1 violated (seed {i})"
        );
    }
}

/// Theorem 6-2: invariant φ ⊃ [H]φ ⊆ φ.
#[test]
fn theorem_6_2_invariant_shrinks() {
    for (i, sys) in systems().into_iter().enumerate() {
        let phi = random_phi(&sys, i as u64);
        if !classify::is_invariant(&sys, &phi).unwrap() {
            continue;
        }
        let sat = phi.sat(&sys).unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        for img in after::reachable_images(&oracle, &phi).unwrap() {
            assert!(img.is_subset(&sat), "Thm 6-2 violated (seed {i})");
        }
    }
}

/// Soundness of the provers: whatever they prove, the exact oracle
/// confirms.
#[test]
fn provers_are_sound() {
    let mut proved = 0;
    for (i, sys) in systems().into_iter().enumerate() {
        let phi = random_phi(&sys, 200 + i as u64);
        if phi.sat(&sys).unwrap().is_empty() {
            continue;
        }
        let (a, beta) = random_src_sink(&sys, 300 + i as u64);
        if a.contains(beta) {
            continue;
        }
        let oracle = Oracle::new(&sys).unwrap();
        for outcome in [
            induction::prove_cor_5_6(&oracle, &phi, &a, beta).unwrap(),
            induction::prove_cor_6_5(&oracle, &phi, &a, beta).unwrap(),
        ] {
            if outcome.is_proved() {
                proved += 1;
                assert!(
                    !Query::new(phi.clone(), a.clone())
                        .beta(beta)
                        .run_on(&sys)
                        .unwrap()
                        .holds(),
                    "prover claimed ¬A ▷φ β but the oracle found a flow (seed {i})"
                );
            }
        }
    }
    assert!(proved > 0, "the sweep should exercise at least one proof");
}

/// The exact BFS agrees with brute-force bounded history enumeration.
#[test]
fn bfs_matches_bounded_enumeration() {
    for (i, sys) in systems().into_iter().enumerate().take(8) {
        let phi = random_phi(&sys, 400 + i as u64);
        let (a, beta) = random_src_sink(&sys, 500 + i as u64);
        let exact = Query::new(phi.clone(), a.clone())
            .beta(beta)
            .run_on(&sys)
            .unwrap()
            .into_witness();
        // Brute force: the Def 2-7 check on every history of length ≤ 3.
        let brute = history::histories_up_to(sys.num_ops(), 3).find_map(|h| {
            depend::strongly_depends_after(&sys, &phi, &a, beta, &h)
                .unwrap()
                .map(|_| h.len())
        });
        if brute.is_some() {
            assert!(exact.is_some(), "BFS missed a bounded flow (seed {i})");
        }
        let bounded = Query::new(phi.clone(), a.clone())
            .beta(beta)
            .bounded(3)
            .run_on(&sys)
            .unwrap()
            .into_witness();
        assert_eq!(
            bounded.map(|w| w.history.len()),
            brute,
            "bounded search disagrees with the enumeration (seed {i})"
        );
        if let Some(w) = exact {
            // Replay the witness.
            let o1 = sys.run(&w.sigma1, &w.history).unwrap();
            let o2 = sys.run(&w.sigma2, &w.history).unwrap();
            assert_ne!(o1.index(beta), o2.index(beta));
            assert!(w.sigma1.eq_except(&w.sigma2, &a));
            assert!(phi.holds(&sys, &w.sigma1).unwrap());
            assert!(phi.holds(&sys, &w.sigma2).unwrap());
        }
    }
}
