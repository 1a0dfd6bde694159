//! Semantic classification of constraints.
//!
//! The paper distinguishes several classes of constraints, each with its own
//! role in the theory:
//!
//! - **A-independent** (Def 3-1): φ in no way constrains the objects in A —
//!   required of solutions so they do not "cheat" by squeezing the source's
//!   variety (§3.2), and of the covers used by Separation of Variety.
//! - **A-strict** (Def 5-1): φ constrains *only* the objects in A.
//! - **A-autonomous** (Def 5-2 / Thm 5-1): φ splits into an A-strict part
//!   and an A-independent part; equivalently, Sat(φ) is closed under
//!   substitution at A.
//! - **autonomous** (Def 5-4, §2.6): φ is α-autonomous for every single
//!   object α; constrains each object independently of the others.
//! - **invariant**: every operation preserves φ — the hypothesis of the
//!   chapter-4/5 induction theorems.
//!
//! All checks here are exact, by enumeration of the finite state space. The
//! autonomy checks exploit the product characterization derived from
//! Thm 5-1: φ is A-autonomous iff Sat(φ) = proj_A(Sat) × proj_Ā(Sat).
//!
//! Enumeration works over packed state codes: a state's projection onto A
//! (or onto its complement) is summarised by the arithmetic key
//! `Σ_{α∈A} stride_α · digit_α(code)`, which is injective on projection
//! classes, so grouping needs only [`crate::fastmap`] integer containers —
//! no `State` is decoded until a witness is returned. The invariance check
//! additionally reads successors through an [`Oracle`]'s view: compiled
//! rows when the state space compiles, the interpreter otherwise.

use crate::constraint::Phi;
use crate::error::Result;
use crate::fastmap::{U64Map, U64Set};
use crate::history::OpId;
use crate::oracle::Oracle;
use crate::state::State;
use crate::system::System;
use crate::universe::{proj_key, ObjSet};

/// Whether φ is A-independent (Def 3-1):
/// `∀σ1 =A= σ2: φ(σ1) = φ(σ2)`.
pub fn is_independent(sys: &System, phi: &Phi, a: &ObjSet) -> Result<bool> {
    Ok(independence_witness(sys, phi, a)?.is_none())
}

/// A pair of states violating A-independence, if any.
///
/// The witness is canonical: scanning states in code order, it is the
/// first (satisfying, violating) pair completed within one `=A=` class.
pub fn independence_witness(sys: &System, phi: &Phi, a: &ObjSet) -> Result<Option<(State, State)>> {
    // Group states by their projection outside A; φ must be constant on
    // each group. Groups are keyed by the arithmetic complement key.
    let u = sys.universe();
    let n = sys.state_count()?;
    let sat = phi.sat(sys)?;
    let dims = u.dims();
    let mut first_true = U64Map::new();
    let mut first_false = U64Map::new();
    for code in 0..n {
        let key = code - proj_key(&dims, a, code);
        if sat.contains(code) {
            if first_true.get(key).is_none() {
                first_true.insert(key, code);
            }
        } else if first_false.get(key).is_none() {
            first_false.insert(key, code);
        }
        if let (Some(t), Some(f)) = (first_true.get(key), first_false.get(key)) {
            return Ok(Some((State::decode(u, t), State::decode(u, f))));
        }
    }
    Ok(None)
}

/// Whether φ is A-strict (Def 5-1):
/// `∀σ1, σ2: σ1.A = σ2.A ⊃ φ(σ1) = φ(σ2)`.
pub fn is_strict(sys: &System, phi: &Phi, a: &ObjSet) -> Result<bool> {
    let n = sys.state_count()?;
    let sat = phi.sat(sys)?;
    let dims = sys.universe().dims();
    // Per `σ.A` projection class, a 2-bit mask: bit 0 = saw a satisfying
    // state, bit 1 = saw a violating one. Both ⇒ not strict.
    let mut seen = U64Map::new();
    for code in 0..n {
        let key = proj_key(&dims, a, code);
        let bit = if sat.contains(code) { 1 } else { 2 };
        let cur = seen.get(key).unwrap_or(0);
        if cur | bit == 3 {
            return Ok(false);
        }
        if cur | bit != cur {
            seen.insert(key, cur | bit);
        }
    }
    Ok(true)
}

/// Whether φ is A-autonomous (Def 5-2, via the Thm 5-1 substitution
/// characterization): `∀σ1, σ2 ∈ Sat(φ): φ(σ2 ←A σ1)`.
///
/// Checked through the product form: Sat(φ) must equal the full cross
/// product of its projection onto A and its projection onto the complement.
pub fn is_autonomous_relative(sys: &System, phi: &Phi, a: &ObjSet) -> Result<bool> {
    let sat = phi.sat(sys)?;
    let dims = sys.universe().dims();
    let mut proj_a = U64Set::new();
    let mut proj_c = U64Set::new();
    let mut sat_count: u128 = 0;
    for code in sat.iter() {
        sat_count += 1;
        let p = proj_key(&dims, a, code);
        proj_a.insert(p);
        proj_c.insert(code - p);
    }
    Ok(sat_count == (proj_a.len() as u128) * (proj_c.len() as u128))
}

/// Whether φ is autonomous (Def 5-4): α-autonomous for every object α.
///
/// Checked through the full product form: Sat(φ) must equal the product of
/// its per-object projections.
pub fn is_autonomous(sys: &System, phi: &Phi) -> Result<bool> {
    let u = sys.universe();
    let sat = phi.sat(sys)?;
    let dims = u.dims();
    let mut per_obj: Vec<Vec<bool>> = dims.iter().map(|&(_, d)| vec![false; d as usize]).collect();
    let mut sat_count: u128 = 0;
    for code in sat.iter() {
        sat_count += 1;
        for (seen, &(stride, dom)) in per_obj.iter_mut().zip(&dims) {
            seen[((code / stride) % dom) as usize] = true;
        }
    }
    if sat_count == 0 {
        // ff is vacuously autonomous (the substitution condition has no
        // witnesses).
        return Ok(true);
    }
    let product: u128 = per_obj
        .iter()
        .map(|s| s.iter().filter(|&&b| b).count() as u128)
        .product();
    Ok(sat_count == product)
}

/// Whether φ is invariant: `∀σ ∈ Sat(φ), ∀δ: φ(δ(σ))`.
pub fn is_invariant(sys: &System, phi: &Phi) -> Result<bool> {
    Ok(invariance_witness(sys, phi)?.is_none())
}

/// A `(state, op)` pair escaping φ, if φ is not invariant.
///
/// The witness is canonical: the first escaping pair in (state code,
/// operation index) order. Successors come from compiled transition rows
/// when the system compiles; the AST interpreter is the fallback.
pub fn invariance_witness(sys: &System, phi: &Phi) -> Result<Option<(State, OpId)>> {
    let oracle = Oracle::new(sys)?;
    invariance_witness_with(&oracle, phi)
}

/// [`is_invariant`] against a prepared [`Oracle`], sharing its compiled
/// tables with the caller's other queries.
pub(crate) fn is_invariant_with(oracle: &Oracle, phi: &Phi) -> Result<bool> {
    Ok(invariance_witness_with(oracle, phi)?.is_none())
}

/// [`invariance_witness`] against a prepared [`Oracle`], over its
/// interned Sat(φ) and its successor view.
pub(crate) fn invariance_witness_with(oracle: &Oracle, phi: &Phi) -> Result<Option<(State, OpId)>> {
    let sys = oracle.system();
    let sat = oracle.sat_set(phi)?;
    let codes: Vec<u64> = sat.iter().collect();
    let rows = oracle.successors(&codes);
    for &code in &codes {
        for op in sys.op_ids() {
            if !sat.contains(rows.step(code, op.index())?) {
                return Ok(Some((State::decode(sys.universe(), code), op)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};

    /// Universe with α, β, m over small int domains (plus a flag).
    fn sys() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 3).unwrap()),
            ("beta".into(), Domain::int_range(0, 3).unwrap()),
            ("m".into(), Domain::int_range(0, 3).unwrap()),
        ])
        .unwrap();
        let b = u.obj("beta").unwrap();
        let a = u.obj("alpha").unwrap();
        System::new(u, vec![Op::from_cmd("copy", Cmd::assign(b, Expr::var(a)))])
    }

    #[test]
    fn paper_autonomy_examples_sec_2_6() {
        // φ(σ) ≡ σ.α ≤ 1 ∧ σ.β ≤ 1 is autonomous.
        let sys = sys();
        let u = sys.universe();
        let a = Expr::var(u.obj("alpha").unwrap());
        let b = Expr::var(u.obj("beta").unwrap());
        let phi1 = Phi::expr(a.clone().le(Expr::int(1)).and(b.clone().le(Expr::int(1))));
        assert!(is_autonomous(&sys, &phi1).unwrap());

        // φ(σ) ≡ σ.β = σ.α is non-autonomous.
        let phi2 = Phi::expr(b.clone().eq(a.clone()));
        assert!(!is_autonomous(&sys, &phi2).unwrap());

        // φ(σ) ≡ σ.α ≤ 1 ⊃ σ.β = 2 is non-autonomous.
        let phi3 = Phi::expr(
            a.clone()
                .le(Expr::int(1))
                .implies(b.clone().eq(Expr::int(2))),
        );
        assert!(!is_autonomous(&sys, &phi3).unwrap());

        // tt and ff are autonomous.
        assert!(is_autonomous(&sys, &Phi::True).unwrap());
        assert!(is_autonomous(&sys, &Phi::False).unwrap());
    }

    #[test]
    fn relative_autonomy_sec_5_3() {
        // φ(σ) ≡ σ.α = σ.β is {α,β}-autonomous but not {α}-autonomous.
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let phi = Phi::expr(Expr::var(a).eq(Expr::var(b)));
        let ab = ObjSet::from_iter([a, b]);
        assert!(is_autonomous_relative(&sys, &phi, &ab).unwrap());
        assert!(!is_autonomous_relative(&sys, &phi, &ObjSet::singleton(a)).unwrap());
        // …and m-autonomous for the unrelated object m (§5.4).
        let m = u.obj("m").unwrap();
        assert!(is_autonomous_relative(&sys, &phi, &ObjSet::singleton(m)).unwrap());
    }

    #[test]
    fn independence_def_3_1() {
        // φ(σ) ≡ σ.m = 0 is {α}-independent but not {m}-independent.
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).eq(Expr::int(0)));
        assert!(is_independent(&sys, &phi, &ObjSet::singleton(a)).unwrap());
        assert!(!is_independent(&sys, &phi, &ObjSet::singleton(m)).unwrap());
        let w = independence_witness(&sys, &phi, &ObjSet::singleton(m))
            .unwrap()
            .unwrap();
        // The witness differs only at m and disagrees on φ.
        assert!(w.0.eq_except(&w.1, &ObjSet::singleton(m)));
    }

    #[test]
    fn strictness_def_5_1() {
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let phi = Phi::expr(Expr::var(a).eq(Expr::var(b)));
        let ab = ObjSet::from_iter([a, b]);
        assert!(is_strict(&sys, &phi, &ab).unwrap());
        assert!(!is_strict(&sys, &phi, &ObjSet::singleton(a)).unwrap());
        // tt is A-strict for every A (it constrains nothing).
        assert!(is_strict(&sys, &Phi::True, &ObjSet::empty()).unwrap());
    }

    #[test]
    fn a_autonomous_decomposition_matches_def_5_2() {
        // φ ≡ (α = β) ∧ (m ≤ 1): {α,β}-strict part ∧ {α,β}-independent part.
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(
            Expr::var(a)
                .eq(Expr::var(b))
                .and(Expr::var(m).le(Expr::int(1))),
        );
        let ab = ObjSet::from_iter([a, b]);
        assert!(is_autonomous_relative(&sys, &phi, &ab).unwrap());
        assert!(is_autonomous_relative(&sys, &phi, &ObjSet::singleton(m)).unwrap());
        assert!(!is_autonomous(&sys, &phi).unwrap());
    }

    #[test]
    fn invariance() {
        // Under δ: β ← α, the constraint α = β is invariant; β = 0 is not.
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let eq = Phi::expr(Expr::var(a).eq(Expr::var(b)));
        assert!(is_invariant(&sys, &eq).unwrap());
        let b0 = Phi::expr(Expr::var(b).eq(Expr::int(0)));
        assert!(!is_invariant(&sys, &b0).unwrap());
        let w = invariance_witness(&sys, &b0).unwrap().unwrap();
        assert_eq!(w.1, crate::history::OpId(0));
        // tt is always invariant.
        assert!(is_invariant(&sys, &Phi::True).unwrap());
    }

    #[test]
    fn substitution_characterization_thm_5_1() {
        // Cross-check the product characterization against the literal
        // Thm 5-1 condition on a non-trivial φ.
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let phi = Phi::expr(Expr::var(a).eq(Expr::var(b)));
        for set in [
            ObjSet::from_iter([a, b]),
            ObjSet::singleton(a),
            ObjSet::singleton(u.obj("m").unwrap()),
        ] {
            let fast = is_autonomous_relative(&sys, &phi, &set).unwrap();
            // Literal check: ∀σ1,σ2∈Sat: φ(σ2 ←A σ1).
            let sat: Vec<_> = sys
                .states()
                .unwrap()
                .filter(|s| phi.holds(&sys, s).unwrap())
                .collect();
            let literal = sat.iter().all(|s1| {
                sat.iter()
                    .all(|s2| phi.holds(&sys, &s2.substitute(&set, s1)).unwrap())
            });
            assert_eq!(fast, literal, "mismatch for {set:?}");
        }
    }

    /// Satellite check for the fastmap rewrite: every classification and —
    /// crucially — every *witness* matches the straightforward
    /// `HashMap<Vec<u32>, _>` reference implementation the module used
    /// before arithmetic projection keys.
    #[test]
    fn fastmap_kernels_match_reference_witnesses() {
        use std::collections::{HashMap, HashSet};

        fn reference_independence_witness(
            sys: &System,
            phi: &Phi,
            a: &ObjSet,
        ) -> Option<(State, State)> {
            let mut groups: HashMap<Vec<u32>, (Option<State>, Option<State>)> = HashMap::new();
            for sigma in sys.states().unwrap() {
                let key = sigma.project_complement(a);
                let holds = phi.holds(sys, &sigma).unwrap();
                let entry = groups.entry(key).or_default();
                let slot = if holds { &mut entry.0 } else { &mut entry.1 };
                if slot.is_none() {
                    *slot = Some(sigma);
                }
                if let (Some(t), Some(f)) = (&entry.0, &entry.1) {
                    return Some((t.clone(), f.clone()));
                }
            }
            None
        }

        fn reference_is_strict(sys: &System, phi: &Phi, a: &ObjSet) -> bool {
            let mut groups: HashMap<Vec<u32>, (bool, bool)> = HashMap::new();
            for sigma in sys.states().unwrap() {
                let key = sigma.project(a);
                let entry = groups.entry(key).or_default();
                if phi.holds(sys, &sigma).unwrap() {
                    entry.0 = true;
                } else {
                    entry.1 = true;
                }
                if entry.0 && entry.1 {
                    return false;
                }
            }
            true
        }

        fn reference_autonomous_relative(sys: &System, phi: &Phi, a: &ObjSet) -> bool {
            let mut pa: HashSet<Vec<u32>> = HashSet::new();
            let mut pc: HashSet<Vec<u32>> = HashSet::new();
            let mut count: u128 = 0;
            for sigma in sys.states().unwrap() {
                if phi.holds(sys, &sigma).unwrap() {
                    count += 1;
                    pa.insert(sigma.project(a));
                    pc.insert(sigma.project_complement(a));
                }
            }
            count == (pa.len() as u128) * (pc.len() as u128)
        }

        fn reference_invariance_witness(sys: &System, phi: &Phi) -> Option<(State, OpId)> {
            for sigma in sys.states().unwrap() {
                if !phi.holds(sys, &sigma).unwrap() {
                    continue;
                }
                for op in sys.op_ids() {
                    let next = sys.apply(op, &sigma).unwrap();
                    if !phi.holds(sys, &next).unwrap() {
                        return Some((sigma, op));
                    }
                }
            }
            None
        }

        let sys = sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let phis = [
            Phi::True,
            Phi::False,
            Phi::expr(Expr::var(a).eq(Expr::var(b))),
            Phi::expr(Expr::var(m).eq(Expr::int(0))),
            Phi::expr(
                Expr::var(b)
                    .eq(Expr::int(0))
                    .or(Expr::var(m).lt(Expr::var(a))),
            ),
            Phi::expr(
                Expr::var(a)
                    .le(Expr::int(1))
                    .implies(Expr::var(b).eq(Expr::int(2))),
            ),
        ];
        let sets = [
            ObjSet::empty(),
            ObjSet::singleton(a),
            ObjSet::singleton(m),
            ObjSet::from_iter([a, b]),
            ObjSet::from_iter([a, b, m]),
        ];
        for phi in &phis {
            for set in &sets {
                assert_eq!(
                    independence_witness(&sys, phi, set).unwrap(),
                    reference_independence_witness(&sys, phi, set),
                    "independence witness diverged for {phi:?} / {set:?}"
                );
                assert_eq!(
                    is_strict(&sys, phi, set).unwrap(),
                    reference_is_strict(&sys, phi, set),
                    "strictness diverged for {phi:?} / {set:?}"
                );
                assert_eq!(
                    is_autonomous_relative(&sys, phi, set).unwrap(),
                    reference_autonomous_relative(&sys, phi, set),
                    "relative autonomy diverged for {phi:?} / {set:?}"
                );
            }
            assert_eq!(
                invariance_witness(&sys, phi).unwrap(),
                reference_invariance_witness(&sys, phi),
                "invariance witness diverged for {phi:?}"
            );
        }
    }
}
