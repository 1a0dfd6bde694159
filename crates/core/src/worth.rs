//! The worth of a solution (§3.6).
//!
//! `Worth(φ) = { (α, β) | α ▷φ β }` — the set of information paths a
//! constraint still permits. Worths are ordered by inclusion; the measure
//! is qualitative and, per Thm 2-3, monotonic (Def 3-2): a less restrictive
//! solution permits at least the paths of a more restrictive one.
//!
//! The paper computes worths over set-valued sources; for comparison
//! purposes singleton sources suffice (Thm 2-2 makes set sources monotone
//! in the singleton rows), and that is what [`worth`] computes.

use std::collections::BTreeSet;
use std::fmt;

use crate::constraint::Phi;
use crate::error::Result;
use crate::system::System;
use crate::universe::{ObjId, ObjSet};

/// The set of permitted information paths under some constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Worth {
    paths: BTreeSet<(ObjId, ObjId)>,
}

impl Worth {
    /// The permitted paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = (ObjId, ObjId)> + '_ {
        self.paths.iter().copied()
    }

    /// Number of permitted paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no paths are permitted at all.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Whether a specific path is permitted.
    pub fn permits(&self, alpha: ObjId, beta: ObjId) -> bool {
        self.paths.contains(&(alpha, beta))
    }

    /// `Worth(self) ≤ Worth(other)`: every path permitted here is
    /// permitted there.
    pub fn le(&self, other: &Worth) -> bool {
        self.paths.is_subset(&other.paths)
    }

    /// The partial order on worths: `Some(Less)` when strictly fewer paths
    /// are permitted, `None` when incomparable.
    pub fn partial_cmp(&self, other: &Worth) -> Option<core::cmp::Ordering> {
        match (self.le(other), other.le(self)) {
            (true, true) => Some(core::cmp::Ordering::Equal),
            (true, false) => Some(core::cmp::Ordering::Less),
            (false, true) => Some(core::cmp::Ordering::Greater),
            (false, false) => None,
        }
    }

    /// Renders the worth with object names.
    pub fn display<'a>(&'a self, sys: &'a System) -> WorthDisplay<'a> {
        WorthDisplay { worth: self, sys }
    }
}

/// Helper produced by [`Worth::display`].
pub struct WorthDisplay<'a> {
    worth: &'a Worth,
    sys: &'a System,
}

impl fmt::Display for WorthDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.worth.paths().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{} ▷ {}",
                self.sys.universe().name(a),
                self.sys.universe().name(b)
            )?;
        }
        write!(f, "}}")
    }
}

/// Computes `Worth(φ)` over singleton sources: one pair-reachability sweep
/// per object, batched through [`crate::query::Query::matrix`] so a single
/// Sat(φ) enumeration and one compiled system serve every row.
pub fn worth(sys: &System, phi: &Phi) -> Result<Worth> {
    let objects: Vec<ObjId> = sys.universe().objects().collect();
    let rows = singleton_sink_rows(sys, phi, &objects)?;
    let mut paths = BTreeSet::new();
    for (alpha, sinks) in objects.into_iter().zip(rows) {
        for beta in sinks.iter() {
            paths.insert((alpha, beta));
        }
    }
    Ok(Worth { paths })
}

/// One sinks row per source object, delegated to the batched matrix
/// query (one compiled system and Sat(φ) enumeration for every row).
pub(crate) fn singleton_sink_rows(
    sys: &System,
    phi: &Phi,
    sources: &[ObjId],
) -> Result<Vec<ObjSet>> {
    let sets: Vec<ObjSet> = sources.iter().map(|&a| ObjSet::singleton(a)).collect();
    Ok(crate::query::Query::matrix(phi.clone(), sets)
        .run_on(sys)?
        .into_rows()
        .expect("a matrix query returns rows"))
}

/// Checks monotonicity (Def 3-2) for one instance: if `φ1 ⊆ φ2` then
/// `Worth(φ1) ≤ Worth(φ2)` must hold. Returns `true` when the instance is
/// consistent with monotonicity.
pub fn check_monotonic(sys: &System, phi1: &Phi, phi2: &Phi) -> Result<bool> {
    if !phi1.entails(sys, phi2)? {
        return Ok(true);
    }
    Ok(worth(sys, phi1)?.le(&worth(sys, phi2)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};
    use crate::value::Rights;
    use crate::value::Value;

    /// The §3.6 two-operation rights system:
    /// δ1: if s∈<x,x> ∧ r∈<x,α> ∧ w∈<x,β> then β ← α
    /// δ2: if s∈<x,x> ∧ r∈<x,m> ∧ w∈<x,β> then β ← m
    fn two_op_rights() -> System {
        let cell = || {
            Domain::new(vec![
                Value::Rights(Rights::NONE),
                Value::Rights(Rights::S),
                Value::Rights(Rights::R),
                Value::Rights(Rights::W),
            ])
            .unwrap()
        };
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("m".into(), Domain::int_range(0, 1).unwrap()),
            ("xx".into(), cell()),
            ("xa".into(), cell()),
            ("xb".into(), cell()),
            ("xm".into(), cell()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let xx = u.obj("xx").unwrap();
        let xa = u.obj("xa").unwrap();
        let xb = u.obj("xb").unwrap();
        let xm = u.obj("xm").unwrap();
        let guard = |src_cell| {
            Expr::var(xx)
                .has_rights(Rights::S)
                .and(Expr::var(src_cell).has_rights(Rights::R))
                .and(Expr::var(xb).has_rights(Rights::W))
        };
        System::new(
            u,
            vec![
                Op::from_cmd("d1", Cmd::when(guard(xa), Cmd::assign(b, Expr::var(a)))),
                Op::from_cmd("d2", Cmd::when(guard(xm), Cmd::assign(b, Expr::var(m)))),
            ],
        )
    }

    #[test]
    fn sec_3_6_worth_comparison() {
        let sys = two_op_rights();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let xx = u.obj("xx").unwrap();
        let xa = u.obj("xa").unwrap();
        let xb = u.obj("xb").unwrap();

        // φmax: s∉<x,x> ∨ r∉<x,α> ∨ w∉<x,β>.
        let phi_max = Phi::expr(
            Expr::var(xx)
                .has_rights(Rights::S)
                .not()
                .or(Expr::var(xa).has_rights(Rights::R).not())
                .or(Expr::var(xb).has_rights(Rights::W).not()),
        );
        // φ1: r∉<x,α> — stricter, but same worth.
        let phi_1 = Phi::expr(Expr::var(xa).has_rights(Rights::R).not());
        // φ2: s∉<x,x> ∨ w∉<x,β> — kills the m → β path too.
        let phi_2 = Phi::expr(
            Expr::var(xx)
                .has_rights(Rights::S)
                .not()
                .or(Expr::var(xb).has_rights(Rights::W).not()),
        );

        let w_max = worth(&sys, &phi_max).unwrap();
        let w_1 = worth(&sys, &phi_1).unwrap();
        let w_2 = worth(&sys, &phi_2).unwrap();

        // All three block α → β.
        assert!(!w_max.permits(a, b));
        assert!(!w_1.permits(a, b));
        assert!(!w_2.permits(a, b));

        // φmax and φ1 keep m → β; φ2 kills it.
        assert!(w_max.permits(m, b));
        assert!(w_1.permits(m, b));
        assert!(!w_2.permits(m, b));

        // φ1 is as worthy as φmax; φ2 is strictly less worthy.
        assert_eq!(w_1.partial_cmp(&w_max), Some(core::cmp::Ordering::Equal));
        assert_eq!(w_2.partial_cmp(&w_max), Some(core::cmp::Ordering::Less));
    }

    #[test]
    fn monotonicity_def_3_2() {
        let sys = two_op_rights();
        let u = sys.universe();
        let xa = u.obj("xa").unwrap();
        let xx = u.obj("xx").unwrap();
        let phi_small = Phi::expr(
            Expr::var(xa)
                .has_rights(Rights::R)
                .not()
                .and(Expr::var(xx).has_rights(Rights::S).not()),
        );
        let phi_big = Phi::expr(Expr::var(xa).has_rights(Rights::R).not());
        assert!(phi_small.entails(&sys, &phi_big).unwrap());
        assert!(check_monotonic(&sys, &phi_small, &phi_big).unwrap());
        // Also trivially consistent when not comparable.
        assert!(check_monotonic(&sys, &phi_big, &phi_small).unwrap());
    }

    #[test]
    fn worth_display_uses_names() {
        let sys = two_op_rights();
        let u = sys.universe();
        let m = u.obj("m").unwrap();
        let b = u.obj("beta").unwrap();
        let phi_1 = Phi::expr(Expr::var(u.obj("xa").unwrap()).has_rights(Rights::R).not());
        let w = worth(&sys, &phi_1).unwrap();
        let s = w.display(&sys).to_string();
        assert!(w.permits(m, b));
        assert!(s.contains("m ▷ beta"));
    }
}
