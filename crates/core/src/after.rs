//! Constraint after a history: `[H]φ` (Def 6-1, §6.2).
//!
//! `[H]φ` characterizes the states reachable by executing `H` from a state
//! initially satisfying φ. Because states are finite, `[H]φ` is computed
//! extensionally as the image of Sat(φ) under `H`. The module also
//! enumerates *all* image sets reachable over any history — the basis for
//! the exact inductive-cover check (Def 6-2).

use std::collections::{HashSet, VecDeque};

use crate::constraint::{Phi, StateSet};
use crate::error::{Error, Result};
use crate::history::{History, OpId};
use crate::oracle::Oracle;
use crate::state::State;
use crate::system::System;

/// Applies one operation to every state in a set: `δ(S)`.
pub fn image_op(sys: &System, set: &StateSet, op: OpId) -> Result<StateSet> {
    let u = sys.universe();
    let mut out = StateSet::new(set.capacity());
    for code in set.iter() {
        let sigma = State::decode(u, code);
        let next = sys.apply(op, &sigma)?;
        out.insert(next.encode(u));
    }
    Ok(out)
}

/// Computes `[H]φ` (Def 6-1) as an extensional state set.
pub fn after_history(sys: &System, phi: &Phi, h: &History) -> Result<StateSet> {
    let mut cur = phi.sat(sys)?;
    for &op in h.ops() {
        cur = image_op(sys, &cur, op)?;
    }
    Ok(cur)
}

/// Computes `[H]φ` wrapped back as a [`Phi`], for use as a constraint.
pub fn after_history_phi(sys: &System, phi: &Phi, h: &History) -> Result<Phi> {
    Ok(Phi::from_set(after_history(sys, phi, h)?))
}

/// Enumerates every distinct image set `[H]φ` over all histories H.
///
/// The sets form a transition system (`[Hδ]φ = δ([H]φ)`), so a BFS with
/// memoization suffices. `max_sets` bounds the exploration; the default used
/// by [`reachable_images`] is generous for the systems in this crate. Each
/// BFS step maps the current image through the Oracle's successor view —
/// compiled rows, or the interpreter when the Oracle runs interpreted.
pub fn reachable_images_bounded(
    oracle: &Oracle,
    phi: &Phi,
    max_sets: usize,
) -> Result<Vec<StateSet>> {
    let start = oracle.sat_set(phi)?;
    let mut seen: HashSet<StateSet> = HashSet::new();
    let mut queue: VecDeque<StateSet> = VecDeque::new();
    let mut out = Vec::new();
    seen.insert(start.clone());
    queue.push_back(start);
    while let Some(cur) = queue.pop_front() {
        out.push(cur.clone());
        if out.len() > max_sets {
            return Err(Error::Invalid(format!(
                "more than {max_sets} distinct [H]φ image sets; raise the bound"
            )));
        }
        let codes: Vec<u64> = cur.iter().collect();
        let rows = oracle.successors(&codes);
        let images: Vec<StateSet> = (0..oracle.system().num_ops())
            .map(|op| {
                let mut img = StateSet::new(cur.capacity());
                for &code in &codes {
                    img.insert(rows.step(code, op)?);
                }
                Ok(img)
            })
            .collect::<Result<_>>()?;
        for next in images {
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    Ok(out)
}

/// [`reachable_images_bounded`] with a default bound of 65 536 sets.
pub fn reachable_images(oracle: &Oracle, phi: &Phi) -> Result<Vec<StateSet>> {
    reachable_images_bounded(oracle, phi, 1 << 16)
}

/// Theorem 6-1 as a runtime check: `φ(σ) ⊃ [H]φ(H(σ))` for all σ, H of
/// length ≤ `max_len`. Returns `true` when the theorem holds (it always
/// should; this exists for the test suite).
pub fn check_theorem_6_1(sys: &System, phi: &Phi, max_len: usize) -> Result<bool> {
    let u = sys.universe();
    for h in crate::history::histories_up_to(sys.num_ops(), max_len) {
        let img = after_history(sys, phi, &h)?;
        for sigma in sys.states()? {
            if phi.holds(sys, &sigma)? {
                let end = sys.run(&sigma, &h)?;
                if !img.contains(end.encode(u)) {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};

    /// The §6.2 example: δ: β ← α - 4, φ(σ) ≡ σ.α < 10.
    fn sec_6_2_system() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 12).unwrap()),
            ("beta".into(), Domain::int_range(-4, 8).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        System::new(
            u,
            vec![Op::from_cmd(
                "sub4",
                Cmd::assign(b, Expr::var(a).sub(Expr::int(4))),
            )],
        )
    }

    #[test]
    fn after_matches_paper_example() {
        let sys = sec_6_2_system();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        let h = History::single(OpId(0));
        let img = after_history(&sys, &phi, &h).unwrap();
        // [δ]φ(σ) ≡ σ.α < 10 ∧ σ.β = σ.α - 4.
        let expected = Phi::expr(
            Expr::var(a)
                .lt(Expr::int(10))
                .and(Expr::var(b).eq(Expr::var(a).sub(Expr::int(4)))),
        );
        assert_eq!(img, expected.sat(&sys).unwrap());
        // …and, as the paper notes, [δ]φ need not be autonomous even
        // though φ is.
        assert!(classify::is_autonomous(&sys, &phi).unwrap());
        assert!(!classify::is_autonomous(&sys, &Phi::from_set(img)).unwrap());
    }

    #[test]
    fn theorem_6_1_holds() {
        let sys = sec_6_2_system();
        let a = sys.universe().obj("alpha").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        assert!(check_theorem_6_1(&sys, &phi, 3).unwrap());
    }

    #[test]
    fn theorem_6_2_invariant_phi_shrinks() {
        // If φ is invariant then [H]φ ⊆ φ.
        let sys = sec_6_2_system();
        let a = sys.universe().obj("alpha").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        assert!(classify::is_invariant(&sys, &phi).unwrap());
        let sat = phi.sat(&sys).unwrap();
        for img in reachable_images(&Oracle::new(&sys).unwrap(), &phi).unwrap() {
            assert!(img.is_subset(&sat));
        }
    }

    #[test]
    fn reachable_images_saturate() {
        // The §6.2 system stabilizes after one application of δ: the image
        // of the image is itself.
        let sys = sec_6_2_system();
        let a = sys.universe().obj("alpha").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        let images = reachable_images(&Oracle::new(&sys).unwrap(), &phi).unwrap();
        assert_eq!(images.len(), 2);
    }

    #[test]
    fn bounded_enumeration_errors_when_exceeded() {
        let sys = sec_6_2_system();
        let a = sys.universe().obj("alpha").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        assert!(reachable_images_bounded(&Oracle::new(&sys).unwrap(), &phi, 1).is_err());
    }

    #[test]
    fn image_op_is_pointwise() {
        let sys = sec_6_2_system();
        let u = sys.universe();
        let full = Phi::True.sat(&sys).unwrap();
        let img = image_op(&sys, &full, OpId(0)).unwrap();
        for code in img.iter() {
            let s = State::decode(u, code);
            let a = u.obj("alpha").unwrap();
            let b = u.obj("beta").unwrap();
            let av = s.value(u, a).as_int().unwrap();
            let bv = s.value(u, b).as_int().unwrap();
            assert_eq!(bv, av - 4);
        }
    }
}
