//! Static cones of influence: exact "no flow" answers without search.
//!
//! The cone of β is the least object set that contains β and is closed
//! under reads: for every assignment into the set, the objects its
//! expression reads, the objects every enclosing guard reads, and (for a
//! field update) the record it rewrites are in the set too. Tracking
//! reads per assignment, rather than per operation, matters: `sd-lang`
//! guards every statement with `pc`, so a per-operation union of reads
//! would put every variable into every cone.
//!
//! On a system whose operations are total, every operation maps states
//! that agree on a closed set C to states that agree on C: an
//! assignment into C computes its value, and decides whether it runs at
//! all, from objects of C only (at the point where it runs, and those
//! intermediate values are themselves functions of C by the same
//! argument), and assignments outside C leave C alone. By induction over
//! the history, β's final value is a function of the initial values of
//! cone(β). States that are `=A=` differ only at A, so when A misses
//! cone(β), `A ▷̸φ β` holds for every φ and every history bound — the
//! sound direction of Cohen's §1.5 / §4.4 remark that a transitive flow
//! model over-approximates strong dependency.
//!
//! The argument needs operations that never fail, and it needs every
//! operation's read set. [`crate::oracle::Oracle`] therefore consults
//! the cones only when every operation is an [`OpBody::Cmd`] (native
//! operations have no syntactic read set) and its dense successor table
//! holds no poison entry (so no reachable step can error, and the search
//! the cone replaces could not have reported an error either).
//!
//! # Examples
//!
//! ```
//! use sd_core::{cone::Cones, examples, ObjSet};
//!
//! // δ: if m then β ← α.
//! let sys = examples::guarded_copy_system(2)?;
//! let u = sys.universe();
//! let (alpha, beta, m) = (u.obj("alpha")?, u.obj("beta")?, u.obj("m")?);
//! let cones = Cones::of(&sys).expect("every operation is a command");
//! assert_eq!(cones.cone(beta), &ObjSet::from_iter([alpha, beta, m]));
//! // Nothing is ever assigned into α, so only α itself reaches it.
//! assert!(cones.excludes(&ObjSet::singleton(beta), alpha));
//! # Ok::<(), sd_core::Error>(())
//! ```

use crate::op::{Cmd, LValue, OpBody};
use crate::system::System;
use crate::universe::{ObjId, ObjSet};

/// The engine label (`QueryReport::engine`) of a query the cone decided
/// without searching.
pub const ENGINE: &str = "cone";

/// Every object's cone of influence over one system (see the module
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cones {
    /// `cones[b]` is cone(b), indexed by object.
    cones: Vec<ObjSet>,
}

impl Cones {
    /// The cones of every object of `sys`, or `None` when some operation
    /// is [`OpBody::Native`] and so has no syntactic read set. One pass
    /// over the operations collects each object's direct influences,
    /// then one graph walk per object closes them.
    pub fn of(sys: &System) -> Option<Cones> {
        let n = sys.universe().num_objects();
        let mut direct: Vec<Vec<ObjId>> = vec![Vec::new(); n];
        let mut guards = Vec::new();
        for op in &sys.ops {
            match op.body() {
                OpBody::Cmd(cmd) => influences(cmd, &mut guards, &mut direct),
                OpBody::Native(_) => return None,
            }
        }
        for reads in &mut direct {
            reads.sort_unstable();
            reads.dedup();
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        let cones = (0..n)
            .map(|b| {
                seen.iter_mut().for_each(|s| *s = false);
                seen[b] = true;
                stack.push(b);
                while let Some(obj) = stack.pop() {
                    for r in &direct[obj] {
                        if !seen[r.index()] {
                            seen[r.index()] = true;
                            stack.push(r.index());
                        }
                    }
                }
                ObjSet::from_iter((0..n).filter(|&i| seen[i]).map(ObjId::from_index))
            })
            .collect();
        Some(Cones { cones })
    }

    /// cone(β): every object whose initial value can reach β.
    pub fn cone(&self, beta: ObjId) -> &ObjSet {
        &self.cones[beta.index()]
    }

    /// Whether `a` misses cone(β), which proves `A ▷̸φ β` for every φ.
    pub fn excludes(&self, a: &ObjSet, beta: ObjId) -> bool {
        let cone = self.cone(beta);
        a.iter().all(|obj| !cone.contains(obj))
    }
}

/// Adds, for every assignment in `cmd`, the objects it reads and the
/// objects its enclosing guards read (`guards`, a stack) to the direct
/// influences of the object it writes.
fn influences(cmd: &Cmd, guards: &mut Vec<ObjId>, direct: &mut [Vec<ObjId>]) {
    match cmd {
        Cmd::Skip => {}
        Cmd::Assign(lv, e) => {
            let reads = &mut direct[lv.object().index()];
            reads.extend_from_slice(guards);
            e.reads(reads);
            if let LValue::Field(record, _) = lv {
                // A field update keeps the record's other fields.
                reads.push(*record);
            }
        }
        Cmd::Seq(cmds) => {
            for c in cmds {
                influences(c, guards, direct);
            }
        }
        Cmd::If(g, t, e) => {
            let depth = guards.len();
            g.reads(guards);
            influences(t, guards, direct);
            influences(e, guards, direct);
            guards.truncate(depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::expr::Expr;
    use crate::op::Op;
    use crate::universe::{Domain, Universe};

    fn objs(n: usize) -> (Universe, Vec<ObjId>) {
        let u = Universe::new(
            (0..n)
                .map(|i| (format!("v{i}"), Domain::int_range(0, 1).unwrap()))
                .collect(),
        )
        .unwrap();
        let ids = u.objects().collect();
        (u, ids)
    }

    #[test]
    fn reads_are_tracked_per_assignment_not_per_operation() {
        // One op, pc-guarded like sd-lang output: `if pc then (x ← a; y ← b)`.
        let (u, v) = objs(5);
        let (pc, x, a, y, b) = (v[0], v[1], v[2], v[3], v[4]);
        let body = Cmd::when(
            Expr::var(pc).eq(Expr::int(1)),
            Cmd::Seq(vec![
                Cmd::assign(x, Expr::var(a)),
                Cmd::assign(y, Expr::var(b)),
            ]),
        );
        let sys = System::new(u, vec![Op::from_cmd("s", body)]);
        let cones = Cones::of(&sys).unwrap();
        assert_eq!(cones.cone(x), &ObjSet::from_iter([pc, x, a]));
        assert_eq!(cones.cone(y), &ObjSet::from_iter([pc, y, b]));
        assert!(cones.excludes(&ObjSet::singleton(b), x));
    }

    #[test]
    fn cones_close_over_sequenced_and_nested_writes() {
        // (t ← s; if t = 1 then β ← 0 else w ← β): β learns s through t.
        let (u, v) = objs(4);
        let (s, t, beta, w) = (v[0], v[1], v[2], v[3]);
        let body = Cmd::Seq(vec![
            Cmd::assign(t, Expr::var(s)),
            Cmd::If(
                Expr::var(t).eq(Expr::int(1)),
                Box::new(Cmd::assign(beta, Expr::int(0))),
                Box::new(Cmd::assign(w, Expr::var(beta))),
            ),
        ]);
        let sys = System::new(u, vec![Op::from_cmd("s", body)]);
        let cones = Cones::of(&sys).unwrap();
        assert_eq!(cones.cone(beta), &ObjSet::from_iter([s, t, beta]));
        assert_eq!(cones.cone(w), &ObjSet::from_iter([s, t, beta, w]));
        assert_eq!(cones.cone(s), &ObjSet::singleton(s));
    }

    #[test]
    fn native_operations_have_no_cones() {
        let (u, _) = objs(1);
        let sys = System::new(u, vec![Op::native("id", |_, s| Ok(s.clone()))]);
        assert!(Cones::of(&sys).is_none());
    }

    #[test]
    fn paper_examples_keep_their_flows_inside_the_cone() {
        // flag_copy: beta and x feed each other only through the flag.
        let sys = examples::flag_copy_system(3).unwrap();
        let u = sys.universe();
        let cones = Cones::of(&sys).unwrap();
        let (alpha, beta, x) = (
            u.obj("alpha").unwrap(),
            u.obj("beta").unwrap(),
            u.obj("x").unwrap(),
        );
        assert!(cones.cone(beta).contains(alpha));
        assert!(cones.excludes(&ObjSet::singleton(beta), x));
    }
}
