//! Maximal solutions and the join property (§3.5, Thm 3-1).
//!
//! Information problems do not satisfy the join property in general — the
//! join of two "squeeze the source" solutions can re-admit variety — so
//! maximal solutions need not be unique (§3.5). Requiring A-independence
//! (Def 3-1) restores the join property (Thm 3-1) and with it a unique
//! maximal solution, which this module constructs *directly*: an
//! A-independent constraint is a union of `=A=`-cylinder classes, and a
//! cylinder belongs to the maximal solution iff it alone admits no
//! dependency.

use crate::compiled::par_map_chunks;
use crate::constraint::{Phi, StateSet};
use crate::depend::SatPartition;
use crate::error::{Error, Result};
use crate::oracle::Oracle;
use crate::problem::Problem;
use crate::reach::SearchLimits;
use crate::system::System;
use crate::universe::{ObjId, ObjSet};

/// Constructs the unique maximal A-independent solution to
/// `X(φ) ≡ ¬A ▷φ β ∧ φ A-independent`, as an extensional constraint.
///
/// Every A-independent constraint is a union of cylinder classes of the
/// `=A=` relation (sets of states closed under changing A). Initial pairs
/// of the dependency search never cross cylinders, so a union of cylinders
/// is a solution iff each cylinder is — hence the union of all good
/// cylinders is the unique maximal solution (this is Thm 3-1 made
/// constructive).
///
/// The per-cylinder searches run in parallel against the shared
/// [`Oracle`], one search per class, so several solves (different
/// sources/sinks) share one compile; [`Oracle::stats`] counts both.
pub fn unique_maximal_independent_solution(
    oracle: &Oracle<'_>,
    sources: &ObjSet,
    sink: ObjId,
) -> Result<Phi> {
    let sys = oracle.system();
    let u = sys.universe();
    let n = sys.state_count()?;
    let partition = oracle.partition(&Phi::True, sources)?;
    let classes = partition.classes();
    // Initial pairs never cross cylinders, so each class is decided by
    // its own single-class search; the sweep is embarrassingly parallel.
    let verdicts: Vec<Result<bool>> = par_map_chunks(classes, 1, |chunk| {
        chunk
            .iter()
            .map(|class| -> Result<bool> {
                let part = SatPartition::from_classes(u, sources, vec![class.clone()]);
                let (witness, _) = oracle.depends_partition(
                    &part,
                    sink,
                    &SearchLimits::NONE,
                    u32::MAX,
                    oracle.sink_ref(),
                )?;
                Ok(witness.is_none())
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut solution = StateSet::new(n);
    for (class, good) in classes.iter().zip(verdicts) {
        if good? {
            for &code in class {
                solution.insert(code);
            }
        }
    }
    Ok(Phi::from_set(solution))
}

/// Checks one instance of the join property (§3.5):
/// `X(φ1) ∧ X(φ2) ⊃ X(φ1 ∨ φ2)`. Returns `true` when the implication
/// holds for this pair (vacuously if a premise fails).
pub fn join_property_instance(
    sys: &System,
    problem: &Problem,
    phi1: &Phi,
    phi2: &Phi,
) -> Result<bool> {
    if !problem.is_solution(sys, phi1)? || !problem.is_solution(sys, phi2)? {
        return Ok(true);
    }
    problem.is_solution(sys, &phi1.clone().or(phi2.clone()))
}

/// A maximal single-object value constraint: `φ(σ) ≡ σ.α ∈ S` for some set
/// of domain values S.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueConstraint {
    /// The constrained object.
    pub object: ObjId,
    /// Permitted domain indices for the object.
    pub allowed: Vec<u32>,
}

impl ValueConstraint {
    /// Converts to a [`Phi`] over the given system.
    pub fn to_phi(&self, sys: &System) -> Result<Phi> {
        let n = sys.state_count()?;
        let u = sys.universe();
        let mut set = StateSet::new(n);
        for sigma in sys.states()? {
            if self.allowed.contains(&sigma.index(self.object)) {
                set.insert(sigma.encode(u));
            }
        }
        Ok(Phi::from_set(set))
    }
}

/// Enumerates all *maximal* solutions among single-object value constraints
/// `σ.α ∈ S` for the problem `¬α ▷φ β`, demonstrating §3.5's point that
/// maximal solutions need not be unique.
///
/// Exponential in α's domain size; rejected above 16 values.
pub fn maximal_value_constraints(
    sys: &System,
    alpha: ObjId,
    beta: ObjId,
) -> Result<Vec<ValueConstraint>> {
    let dom = sys.universe().domain(alpha).size();
    if dom > 16 {
        return Err(Error::Invalid(format!(
            "domain of size {dom} too large for subset enumeration (max 16)"
        )));
    }
    let a = ObjSet::singleton(alpha);
    let u = sys.universe();
    let n = sys.state_count()?;
    let oracle = Oracle::new(sys)?;
    // Bucket state codes by α's value once; Sat(α ∈ S) is then a merge
    // of buckets instead of a fresh state-space sweep per subset.
    let stride = u.stride(alpha) as u64;
    let dsize = dom as u64;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); dom];
    for code in 0..n {
        buckets[((code / stride) % dsize) as usize].push(code);
    }
    // A subset S is a solution iff ¬α ▷(α∈S) β. Solutions are downward
    // closed (Thm 2-3), so the maximal ones form an antichain of subsets.
    // All subsets are checked in parallel against the one compiled
    // system.
    let masks: Vec<u32> = (1u32..(1u32 << dom)).collect();
    let verdicts: Vec<Result<bool>> = par_map_chunks(&masks, 16, |chunk| {
        chunk
            .iter()
            .map(|&mask| -> Result<bool> {
                let mut codes: Vec<u64> = Vec::new();
                for (i, bucket) in buckets.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        codes.extend_from_slice(bucket);
                    }
                }
                codes.sort_unstable();
                let part = SatPartition::from_codes(u, &codes, &a);
                let (witness, _) = oracle.depends_partition(
                    &part,
                    beta,
                    &SearchLimits::NONE,
                    u32::MAX,
                    oracle.sink_ref(),
                )?;
                Ok(witness.is_none())
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut solutions: Vec<u32> = Vec::new();
    for (&mask, good) in masks.iter().zip(verdicts) {
        if good? {
            solutions.push(mask);
        }
    }
    // Keep only maximal masks (not strictly contained in another solution).
    let mut maximal = Vec::new();
    'outer: for &m in &solutions {
        for &m2 in &solutions {
            if m != m2 && (m & m2) == m {
                continue 'outer;
            }
        }
        maximal.push(ValueConstraint {
            object: alpha,
            allowed: (0..dom as u32).filter(|i| m & (1 << i) != 0).collect(),
        });
    }
    Ok(maximal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};

    /// Exact `A ▷φ β` verdict through the Query builder.
    fn exact_depends(
        sys: &System,
        phi: &Phi,
        a: &ObjSet,
        beta: crate::universe::ObjId,
    ) -> Option<crate::reach::DependsWitness> {
        crate::query::Query::new(phi.clone(), a.clone())
            .beta(beta)
            .run_on(sys)
            .unwrap()
            .into_witness()
    }
    use crate::value::{Rights, Value};

    /// δ: if α ≤ 10 then β ← 0 else β ← 1, α ∈ 0..=12 (§3.5, scaled to a
    /// 13-value domain so subset enumeration stays cheap).
    fn threshold() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 12).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        System::new(
            u,
            vec![Op::from_cmd(
                "thresh",
                Cmd::If(
                    Expr::var(a).le(Expr::int(10)),
                    Box::new(Cmd::assign(b, Expr::int(0))),
                    Box::new(Cmd::assign(b, Expr::int(1))),
                ),
            )],
        )
    }

    #[test]
    fn two_maximal_solutions_sec_3_5() {
        let sys = threshold();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let maximal = maximal_value_constraints(&sys, a, b).unwrap();
        // Exactly the two maximal solutions of §3.5: α ≤ 10 and α > 10.
        assert_eq!(maximal.len(), 2);
        let mut sizes: Vec<usize> = maximal.iter().map(|m| m.allowed.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 11]); // {11, 12} and {0..=10}.
    }

    #[test]
    fn join_property_fails_without_independence_sec_3_5() {
        // δ: if m then β ← α; φ1: α = 0 and φ2: α = 1 are both solutions,
        // their join is not.
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("m".into(), Domain::boolean()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "copy",
                Cmd::when(Expr::var(m), Cmd::assign(b, Expr::var(a))),
            )],
        );
        let problem = Problem::no_flow(ObjSet::singleton(a), b, false);
        let phi1 = Phi::expr(Expr::var(a).eq(Expr::int(0)));
        let phi2 = Phi::expr(Expr::var(a).eq(Expr::int(1)));
        assert!(problem.is_solution(&sys, &phi1).unwrap());
        assert!(problem.is_solution(&sys, &phi2).unwrap());
        assert!(!join_property_instance(&sys, &problem, &phi1, &phi2).unwrap());

        // With the independence requirement (Thm 3-1), the join property
        // holds: the independent solutions here are unions of m-cylinders.
        let strict = Problem::no_flow(ObjSet::singleton(a), b, true);
        let psi1 = Phi::expr(Expr::var(m).not());
        let psi2 = Phi::expr(Expr::var(m).not().and(Expr::var(b).eq(Expr::int(0))));
        assert!(strict.is_solution(&sys, &psi1).unwrap());
        assert!(strict.is_solution(&sys, &psi2).unwrap());
        assert!(join_property_instance(&sys, &strict, &psi1, &psi2).unwrap());
    }

    #[test]
    fn unique_maximal_solution_guarded_copy() {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("m".into(), Domain::boolean()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "copy",
                Cmd::when(Expr::var(m), Cmd::assign(b, Expr::var(a))),
            )],
        );
        let phi_max = unique_maximal_independent_solution(
            &Oracle::new(&sys).unwrap(),
            &ObjSet::singleton(a),
            b,
        )
        .unwrap();
        // It is a solution, it is α-independent, and it equals ¬m
        // extensionally.
        let strict = Problem::no_flow(ObjSet::singleton(a), b, true);
        assert!(strict.is_solution(&sys, &phi_max).unwrap());
        let expected = Phi::expr(Expr::var(m).not()).sat(&sys).unwrap();
        assert_eq!(phi_max.sat(&sys).unwrap(), expected);
    }

    #[test]
    fn unique_maximal_solution_rights_system_sec_3_5() {
        // δ: if s∈<x,x> ∧ r∈<x,α> ∧ w∈<x,β> then β ← α. The single maximal
        // α-independent solution is s∉<x,x> ∨ r∉<x,α> ∨ w∉<x,β>.
        let cell = || {
            Domain::new(vec![
                Value::Rights(Rights::NONE),
                Value::Rights(Rights::S.union(Rights::R).union(Rights::W)),
            ])
            .unwrap()
        };
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("xx".into(), cell()),
            ("xa".into(), cell()),
            ("xb".into(), cell()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let xx = u.obj("xx").unwrap();
        let xa = u.obj("xa").unwrap();
        let xb = u.obj("xb").unwrap();
        let guard = Expr::var(xx)
            .has_rights(Rights::S)
            .and(Expr::var(xa).has_rights(Rights::R))
            .and(Expr::var(xb).has_rights(Rights::W));
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "d",
                Cmd::when(guard, Cmd::assign(b, Expr::var(a))),
            )],
        );
        let computed = unique_maximal_independent_solution(
            &Oracle::new(&sys).unwrap(),
            &ObjSet::singleton(a),
            b,
        )
        .unwrap();
        let expected = Phi::expr(
            Expr::var(xx)
                .has_rights(Rights::S)
                .not()
                .or(Expr::var(xa).has_rights(Rights::R).not())
                .or(Expr::var(xb).has_rights(Rights::W).not()),
        );
        assert_eq!(computed.sat(&sys).unwrap(), expected.sat(&sys).unwrap());
    }

    #[test]
    fn maximal_solution_compiles_once_and_matches_sequential_reference() {
        let sys = threshold();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        let phi = unique_maximal_independent_solution(&oracle, &ObjSet::singleton(a), b).unwrap();
        let stats = oracle.stats();
        assert_eq!(stats.compiles, 1, "one compile for the whole sweep");
        // Same extensional result as the pre-Oracle sequential path:
        // one one-shot β query per cylinder class.
        let classes = crate::depend::classes(&sys, &Phi::True, &ObjSet::singleton(a)).unwrap();
        assert!(!classes.is_empty());
        assert_eq!(stats.searches, classes.len() as u64, "one search per class");
        let n = sys.state_count().unwrap();
        let mut expected = StateSet::new(n);
        for class in classes {
            let mut cyl = StateSet::new(n);
            for s in &class {
                cyl.insert(s.encode(u));
            }
            let solo = exact_depends(&sys, &Phi::from_set(cyl.clone()), &ObjSet::singleton(a), b);
            if solo.is_none() {
                expected.union_with(&cyl);
            }
        }
        assert_eq!(phi.sat(&sys).unwrap(), expected);
    }

    #[test]
    fn subset_enumeration_bounded() {
        let u = Universe::new(vec![("big".into(), Domain::int_range(0, 20).unwrap())]).unwrap();
        let big = u.obj("big").unwrap();
        let sys = System::new(u, vec![]);
        assert!(maximal_value_constraints(&sys, big, big).is_err());
    }
}
