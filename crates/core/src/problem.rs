//! Information problems (§3.2, §3.4).
//!
//! An information problem is a predicate X over constraints: `X(φ)` holds
//! when φ, imposed as an *initial* constraint, eliminates the unwanted
//! information transmission. Two classic instances from §3.4 are built in:
//! the Confinement Problem and the Security Problem, both expressed through
//! the general "allowed paths" form
//! `X(φ) ≡ ∀α, β: α ▷φ β ⊃ q(α, β)`.

use std::fmt;
use std::sync::Arc;

use crate::constraint::Phi;
use crate::error::Result;
use crate::system::System;
use crate::universe::{ObjId, ObjSet};

/// The shape of an information problem.
#[derive(Clone)]
pub enum ProblemKind {
    /// `X(φ) ≡ ¬A ▷φ β` — optionally also requiring φ A-independent
    /// (Def 3-1) so the solution may not cheat by squeezing the source's
    /// own variety (§3.2).
    NoFlow {
        /// The source set A.
        sources: ObjSet,
        /// The sink β.
        sink: ObjId,
        /// Whether solutions must be A-independent.
        require_independent: bool,
    },
    /// `X(φ) ≡ ∀α, β: α ▷φ β ⊃ q(α, β)` — every permitted information
    /// path must satisfy the policy relation q.
    AllowedPaths {
        /// The policy relation.
        q: Arc<dyn Fn(ObjId, ObjId) -> bool + Send + Sync>,
    },
}

/// A named information problem.
#[derive(Clone)]
pub struct Problem {
    name: String,
    kind: ProblemKind,
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Problem({})", self.name)
    }
}

impl Problem {
    /// The `¬A ▷φ β` problem, with or without the independence side
    /// condition.
    pub fn no_flow(sources: ObjSet, sink: ObjId, require_independent: bool) -> Problem {
        Problem {
            name: format!(
                "no-flow(|A| = {}, independent = {require_independent})",
                sources.len()
            ),
            kind: ProblemKind::NoFlow {
                sources,
                sink,
                require_independent,
            },
        }
    }

    /// The Confinement Problem (§3.4): if information is transmitted from a
    /// confined object, the receiver must not be a spy.
    pub fn confinement(confined: ObjSet, spies: ObjSet) -> Problem {
        Problem {
            name: "confinement".into(),
            kind: ProblemKind::AllowedPaths {
                q: Arc::new(move |a, b| !(confined.contains(a) && spies.contains(b))),
            },
        }
    }

    /// The Security Problem (§3.4): information may only move to an equal
    /// or higher classification. `cls` is indexed by object id.
    pub fn security(cls: Vec<u32>) -> Problem {
        Problem {
            name: "security".into(),
            kind: ProblemKind::AllowedPaths {
                q: Arc::new(move |a, b| cls[a.index()] <= cls[b.index()]),
            },
        }
    }

    /// A custom allowed-paths problem.
    pub fn allowed_paths(
        name: impl Into<String>,
        q: impl Fn(ObjId, ObjId) -> bool + Send + Sync + 'static,
    ) -> Problem {
        Problem {
            name: name.into(),
            kind: ProblemKind::AllowedPaths { q: Arc::new(q) },
        }
    }

    /// The problem's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The problem's kind.
    pub fn kind(&self) -> &ProblemKind {
        &self.kind
    }

    /// Decides `X(φ)`: is φ a solution to this problem in `sys`?
    ///
    /// Exact — uses the pair-reachability oracle for every source.
    pub fn is_solution(&self, sys: &System, phi: &Phi) -> Result<bool> {
        match &self.kind {
            ProblemKind::NoFlow {
                sources,
                sink,
                require_independent,
            } => {
                if *require_independent && !crate::classify::is_independent(sys, phi, sources)? {
                    return Ok(false);
                }
                Ok(!crate::query::Query::new(phi.clone(), sources.clone())
                    .beta(*sink)
                    .run_on(sys)?
                    .holds())
            }
            ProblemKind::AllowedPaths { q } => {
                let objects: Vec<ObjId> = sys.universe().objects().collect();
                let rows = crate::worth::singleton_sink_rows(sys, phi, &objects)?;
                for (alpha, sinks) in objects.into_iter().zip(rows) {
                    for beta in sinks.iter() {
                        if !q(alpha, beta) {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            }
        }
    }

    /// The paths that violate the problem under φ (empty iff φ solves it).
    pub fn violations(&self, sys: &System, phi: &Phi) -> Result<Vec<(ObjId, ObjId)>> {
        let mut out = Vec::new();
        match &self.kind {
            ProblemKind::NoFlow { sources, sink, .. } => {
                if crate::query::Query::new(phi.clone(), sources.clone())
                    .beta(*sink)
                    .run_on(sys)?
                    .holds()
                {
                    for alpha in sources.iter() {
                        out.push((alpha, *sink));
                    }
                }
            }
            ProblemKind::AllowedPaths { q } => {
                // One compile + a batched row sweep instead of a fresh
                // per-source search state for every α.
                let objects: Vec<ObjId> = sys.universe().objects().collect();
                let rows = crate::worth::singleton_sink_rows(sys, phi, &objects)?;
                for (alpha, sinks) in objects.into_iter().zip(rows) {
                    for beta in sinks.iter() {
                        if !q(alpha, beta) {
                            out.push((alpha, beta));
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};

    /// δ: if m then β ← α (§3.2).
    fn guarded_copy() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 3).unwrap()),
            ("beta".into(), Domain::int_range(0, 3).unwrap()),
            ("m".into(), Domain::boolean()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        System::new(
            u,
            vec![Op::from_cmd(
                "copy",
                Cmd::when(Expr::var(m), Cmd::assign(b, Expr::var(a))),
            )],
        )
    }

    #[test]
    fn no_flow_solutions_sec_3_2() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let problem = Problem::no_flow(ObjSet::singleton(a), b, false);

        // The "obvious" solution: ¬m.
        let phi_m = Phi::expr(Expr::var(m).not());
        assert!(problem.is_solution(&sys, &phi_m).unwrap());

        // The "cheating" solution: α = const also solves the raw problem…
        let phi_c = Phi::expr(Expr::var(a).eq(Expr::int(2)));
        assert!(problem.is_solution(&sys, &phi_c).unwrap());

        // …but not the independence-requiring version (§3.2's X with
        // Def 3-1).
        let strict = Problem::no_flow(ObjSet::singleton(a), b, true);
        assert!(strict.is_solution(&sys, &phi_m).unwrap());
        assert!(!strict.is_solution(&sys, &phi_c).unwrap());

        // tt is not a solution at all.
        assert!(!problem.is_solution(&sys, &Phi::True).unwrap());
        let viols = problem.violations(&sys, &Phi::True).unwrap();
        assert_eq!(viols, vec![(a, b)]);
    }

    #[test]
    fn confinement_statement() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        // α is confined, β is a spy.
        let problem = Problem::confinement(ObjSet::singleton(a), ObjSet::singleton(b));
        assert!(!problem.is_solution(&sys, &Phi::True).unwrap());
        let phi = Phi::expr(Expr::var(m).not());
        assert!(problem.is_solution(&sys, &phi).unwrap());
        assert!(problem.violations(&sys, &phi).unwrap().is_empty());
    }

    #[test]
    fn security_statement() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        // Cls(α) = 1 > Cls(β) = 0: the copy is a down-flow.
        let mut cls = vec![0u32; u.num_objects()];
        cls[a.index()] = 1;
        let problem = Problem::security(cls);
        assert!(!problem.is_solution(&sys, &Phi::True).unwrap());
        let viols = problem.violations(&sys, &Phi::True).unwrap();
        assert!(viols.contains(&(a, b)));
        // Blocking the guard secures the system.
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).not());
        assert!(problem.is_solution(&sys, &phi).unwrap());
    }

    #[test]
    fn security_up_flows_are_fine() {
        let sys = guarded_copy();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        // Cls(β) = 1 ≥ everything: copying up is allowed, tt solves it.
        let mut cls = vec![0u32; u.num_objects()];
        cls[b.index()] = 1;
        let problem = Problem::security(cls);
        assert!(problem.is_solution(&sys, &Phi::True).unwrap());
    }
}
