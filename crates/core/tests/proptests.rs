//! Property-based tests for the core data structures and the constraint
//! algebra, checked against reference models.

use proptest::prelude::*;
use sd_core::bitset::BitSet;
use sd_core::{Cmd, Domain, Expr, History, ObjSet, Op, OpId, Phi, State, System, Universe};
use std::collections::BTreeSet;

const CAP: u64 = 200;

fn arb_bits() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..CAP, 0..40)
}

fn to_bitset(items: &[u64]) -> BitSet {
    let mut s = BitSet::new(CAP);
    for &i in items {
        s.insert(i);
    }
    s
}

fn to_model(items: &[u64]) -> BTreeSet<u64> {
    items.iter().copied().collect()
}

proptest! {
    #[test]
    fn bitset_union_matches_model(a in arb_bits(), b in arb_bits()) {
        let mut s = to_bitset(&a);
        s.union_with(&to_bitset(&b));
        let model: BTreeSet<u64> = to_model(&a).union(&to_model(&b)).copied().collect();
        prop_assert_eq!(s.iter().collect::<BTreeSet<_>>(), model);
    }

    #[test]
    fn bitset_intersection_matches_model(a in arb_bits(), b in arb_bits()) {
        let mut s = to_bitset(&a);
        s.intersect_with(&to_bitset(&b));
        let model: BTreeSet<u64> =
            to_model(&a).intersection(&to_model(&b)).copied().collect();
        prop_assert_eq!(s.iter().collect::<BTreeSet<_>>(), model);
    }

    #[test]
    fn bitset_difference_matches_model(a in arb_bits(), b in arb_bits()) {
        let mut s = to_bitset(&a);
        s.difference_with(&to_bitset(&b));
        let model: BTreeSet<u64> =
            to_model(&a).difference(&to_model(&b)).copied().collect();
        prop_assert_eq!(s.iter().collect::<BTreeSet<_>>(), model);
    }

    #[test]
    fn bitset_complement_involution(a in arb_bits()) {
        let s = to_bitset(&a);
        let mut c = s.clone();
        c.complement();
        prop_assert_eq!(c.count() + s.count(), CAP);
        c.complement();
        prop_assert_eq!(c, s);
    }

    #[test]
    fn bitset_subset_matches_model(a in arb_bits(), b in arb_bits()) {
        let sa = to_bitset(&a);
        let sb = to_bitset(&b);
        prop_assert_eq!(
            sa.is_subset(&sb),
            to_model(&a).is_subset(&to_model(&b))
        );
    }

    #[test]
    fn objset_union_and_membership(
        a in prop::collection::vec(0usize..12, 0..8),
        b in prop::collection::vec(0usize..12, 0..8),
    ) {
        use sd_core::ObjId;
        let sa: ObjSet = a.iter().map(|&i| ObjId::from_index(i)).collect();
        let sb: ObjSet = b.iter().map(|&i| ObjId::from_index(i)).collect();
        let u = sa.union(&sb);
        for i in 0..12 {
            let id = ObjId::from_index(i);
            prop_assert_eq!(u.contains(id), sa.contains(id) || sb.contains(id));
        }
        prop_assert!(sa.is_subset(&u) && sb.is_subset(&u));
        // Sorted and deduplicated.
        let items: Vec<_> = u.iter().collect();
        let mut sorted = items.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(items, sorted);
    }

    #[test]
    fn history_concat_split_roundtrip(
        a in prop::collection::vec(0u32..4, 0..6),
        b in prop::collection::vec(0u32..4, 0..6),
    ) {
        let ha = History::from_ops(a.iter().copied().map(OpId).collect());
        let hb = History::from_ops(b.iter().copied().map(OpId).collect());
        let h = ha.concat(&hb);
        prop_assert_eq!(h.len(), ha.len() + hb.len());
        let (p, q) = h.split_at(ha.len());
        prop_assert_eq!(p, ha);
        prop_assert_eq!(q, hb);
    }
}

/// A fixed little universe for state and constraint properties.
fn uni() -> Universe {
    Universe::new(vec![
        ("a".into(), Domain::int_range(0, 2).unwrap()),
        ("b".into(), Domain::int_range(0, 3).unwrap()),
        ("c".into(), Domain::boolean()),
    ])
    .unwrap()
}

fn sys() -> System {
    let u = uni();
    let a = u.obj("a").unwrap();
    let b = u.obj("b").unwrap();
    System::new(
        u,
        vec![Op::from_cmd(
            "copyish",
            Cmd::when(Expr::var(a).lt(Expr::int(2)), Cmd::assign(b, Expr::var(a))),
        )],
    )
}

fn arb_state() -> impl Strategy<Value = State> {
    (0u32..3, 0u32..4, 0u32..2).prop_map(|(a, b, c)| State::from_indices(vec![a, b, c]))
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(s in arb_state()) {
        let u = uni();
        prop_assert_eq!(State::decode(&u, s.encode(&u)), s);
    }

    #[test]
    fn substitution_laws(s1 in arb_state(), s2 in arb_state()) {
        let u = uni();
        let ab = u.obj_set(&["a", "b"]).unwrap();
        // Def 5-3: σ2 ←A σ1 agrees with σ1 on A and with σ2 elsewhere.
        let sub = s2.substitute(&ab, &s1);
        prop_assert!(sub.eq_on(&s1, &ab));
        prop_assert!(sub.eq_except(&s2, &ab));
        // Idempotence and identity.
        prop_assert_eq!(sub.substitute(&ab, &s1), sub.clone());
        prop_assert_eq!(s2.substitute(&ObjSet::empty(), &s1), s2.clone());
    }

    #[test]
    fn eq_except_is_equivalence_with_diff(s1 in arb_state(), s2 in arb_state()) {
        let set = s1.diff(&s2);
        prop_assert!(s1.eq_except(&s2, &set));
        // Minimality: removing any member breaks it (unless equal there).
        for obj in set.iter() {
            let smaller: ObjSet = set.iter().filter(|&o| o != obj).collect();
            prop_assert!(!s1.eq_except(&s2, &smaller));
        }
    }

    #[test]
    fn phi_algebra_matches_set_algebra(t1 in 0i64..3, t2 in 0i64..4) {
        let sys = sys();
        let u = sys.universe();
        let a = u.obj("a").unwrap();
        let b = u.obj("b").unwrap();
        let p = Phi::expr(Expr::var(a).lt(Expr::int(t1)));
        let q = Phi::expr(Expr::var(b).lt(Expr::int(t2)));

        let sp = p.sat(&sys).unwrap();
        let sq = q.sat(&sys).unwrap();

        let mut expected_and = sp.clone();
        expected_and.intersect_with(&sq);
        prop_assert_eq!(p.clone().and(q.clone()).sat(&sys).unwrap(), expected_and);

        let mut expected_or = sp.clone();
        expected_or.union_with(&sq);
        prop_assert_eq!(p.clone().or(q.clone()).sat(&sys).unwrap(), expected_or);

        let mut expected_not = sp.clone();
        expected_not.complement();
        prop_assert_eq!(p.clone().not().sat(&sys).unwrap(), expected_not);

        // Entailment is subset.
        prop_assert_eq!(
            p.entails(&sys, &q).unwrap(),
            sp.is_subset(&sq)
        );
    }

    #[test]
    fn run_composes(s in arb_state(), n in 0usize..4) {
        let sys = sys();
        let h = History::from_ops(vec![OpId(0); n]);
        let composed = sys.run(&s, &h).unwrap();
        let mut stepped = s;
        for _ in 0..n {
            stepped = sys.apply(OpId(0), &stepped).unwrap();
        }
        prop_assert_eq!(composed, stepped);
    }
}

/// Random small systems and random φ for the Sat(φ) normal-form property.
mod sat_gen {
    use rand::rngs::StdRng;
    use rand::Rng;
    use sd_core::bitset::BitSet;
    use sd_core::{BinOp, Domain, Error, Expr, ObjId, Phi, System, Universe, Value};

    /// Two to four objects: small int ranges (some negative), booleans
    /// and a record domain, so comparisons can be ill-typed.
    pub fn system(rng: &mut StdRng) -> System {
        let n = rng.gen_range(2..5usize);
        let objects = (0..n)
            .map(|i| {
                let dom = match rng.gen_range(0..6u32) {
                    0 | 1 => Domain::boolean(),
                    2 => Domain::new(vec![
                        Value::Record(vec![Value::Int(0)]),
                        Value::Record(vec![Value::Int(1)]),
                    ])
                    .unwrap(),
                    _ => {
                        let lo = rng.gen_range(-2..2i64);
                        Domain::int_range(lo, lo + rng.gen_range(0..5i64)).unwrap()
                    }
                };
                (format!("o{i}"), dom)
            })
            .collect();
        System::new(Universe::new(objects).unwrap(), Vec::new())
    }

    fn var(rng: &mut StdRng, sys: &System) -> Expr {
        Expr::var(ObjId::from_index(
            rng.gen_range(0..sys.universe().num_objects()),
        ))
    }

    fn int_expr(rng: &mut StdRng, sys: &System, depth: u32) -> Expr {
        if depth == 0 || rng.gen_bool(0.4) {
            return if rng.gen_bool(0.6) {
                var(rng, sys)
            } else {
                Expr::int(rng.gen_range(-1..4i64))
            };
        }
        let op =
            [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod][rng.gen_range(0..5usize)];
        Expr::bin(
            op,
            int_expr(rng, sys, depth - 1),
            int_expr(rng, sys, depth - 1),
        )
    }

    pub fn bool_expr(rng: &mut StdRng, sys: &System, depth: u32) -> Expr {
        let arms = if depth == 0 { 3 } else { 8 };
        match rng.gen_range(0..arms) {
            0 => Expr::bool(rng.gen_bool(0.5)),
            // Any object: ill-typed when it is not boolean.
            1 => var(rng, sys),
            2 => {
                let op = [
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                ][rng.gen_range(0..6usize)];
                Expr::bin(op, var(rng, sys), Expr::int(rng.gen_range(-1..4i64)))
            }
            3 => {
                // A multi-object residual such as `x < y`, or an
                // arithmetic comparison that may divide by zero.
                let op = [BinOp::Eq, BinOp::Lt, BinOp::Ge][rng.gen_range(0..3usize)];
                Expr::bin(
                    op,
                    int_expr(rng, sys, depth - 1),
                    int_expr(rng, sys, depth - 1),
                )
            }
            4 => {
                // Division by an object, hidden behind a `≠ 0` guard.
                let x = var(rng, sys);
                x.clone()
                    .ne(Expr::int(0))
                    .and(Expr::bin(BinOp::Div, Expr::int(7), x).lt(var(rng, sys)))
            }
            5 => bool_expr(rng, sys, depth - 1).not(),
            6 => bool_expr(rng, sys, depth - 1).or(bool_expr(rng, sys, depth - 1)),
            _ => bool_expr(rng, sys, depth - 1).and(bool_expr(rng, sys, depth - 1)),
        }
    }

    pub fn phi(rng: &mut StdRng, sys: &System, depth: u32) -> Phi {
        let arms = if depth == 0 { 4 } else { 10 };
        match rng.gen_range(0..arms) {
            0 => Phi::True,
            1 => Phi::False,
            2 | 3 => Phi::expr(bool_expr(rng, sys, 2)),
            4 => {
                let n = sys.state_count().unwrap();
                let mut s = BitSet::new(n);
                for code in 0..n {
                    if rng.gen_bool(0.5) {
                        s.insert(code);
                    }
                }
                Phi::from_set(s)
            }
            5 => {
                // A native predicate that errors on some states.
                let m = rng.gen_range(2..5u64);
                Phi::pred(format!("mod {m}"), move |sys, sigma| {
                    match sigma.encode(sys.universe()) % m {
                        0 => Err(Error::Invalid("poisoned state".into())),
                        r => Ok(r == 1),
                    }
                })
            }
            6 => phi(rng, sys, depth - 1).not(),
            7 => phi(rng, sys, depth - 1).or(phi(rng, sys, depth - 1)),
            _ => phi(rng, sys, depth - 1).and(phi(rng, sys, depth - 1)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]
    #[test]
    fn sat_codes_match_the_scan(seed in 0u64..u64::MAX) {
        use rand::SeedableRng;
        use sd_core::depend::{sat_codes, sat_codes_scan};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sys = sat_gen::system(&mut rng);
        let phi = sat_gen::phi(&mut rng, &sys, 3);
        // Sometimes the system is over its enumeration limit.
        if seed % 16 == 0 {
            let n = sys.universe().state_count();
            sys = sys.with_enum_limit(n - 1);
        }
        let fast = sat_codes(&sys, &phi);
        let scan = sat_codes_scan(&sys, &phi);
        match (&fast, &scan) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            _ => prop_assert!(false, "{phi:?}: {fast:?} vs {scan:?}"),
        }
        // `Phi::sat` is built from the same sweep.
        let set = phi.sat(&sys).map(|s| s.iter().collect::<Vec<u64>>());
        prop_assert_eq!(format!("{set:?}"), format!("{scan:?}"));
    }
}
