//! Parameterized workload generators for the `experiments` performance
//! sections and scaling studies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::{Cmd, Domain, Expr, Op, Phi, Result, System, Universe, Value};

/// A random guarded-copy system: `n` objects over a `k`-valued domain and
/// `ops` operations of the shape `if x ◇ c then y ← z`, with everything
/// chosen by `seed`. All assignments copy whole objects, so the system is
/// closed over its domains by construction.
pub fn random_system(n: usize, k: i64, ops: usize, seed: u64) -> Result<System> {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = (0..n)
        .map(|i| Ok((format!("x{i}"), Domain::int_range(0, k - 1)?)))
        .collect::<Result<Vec<_>>>()?;
    let u = Universe::new(objects)?;
    let ids: Vec<_> = u.objects().collect();
    let mut op_list = Vec::with_capacity(ops);
    for i in 0..ops {
        let guard_var = ids[rng.gen_range(0..n)];
        let threshold = rng.gen_range(0..k);
        let dst = ids[rng.gen_range(0..n)];
        let src = ids[rng.gen_range(0..n)];
        let guard = if rng.gen_bool(0.5) {
            Expr::var(guard_var).lt(Expr::int(threshold))
        } else {
            Expr::var(guard_var).eq(Expr::int(threshold))
        };
        op_list.push(Op::from_cmd(
            format!("g{i}"),
            Cmd::when(guard, Cmd::assign(dst, Expr::var(src))),
        ));
    }
    Ok(System::new(u, op_list))
}

/// A wide-bodied converging "mixing" system with a single deterministic
/// operation: one ascending sweep rewrites each of `x1 … x(n−2)` by a
/// modular sum of up to `width` *already-updated* predecessors
/// (`x_i ← (x_(i−1) + … + x_(i−width)) mod k`, sequential semantics),
/// while `x0` is never written and the last object is an isolated sink
/// that no operation reads or writes.
///
/// Three properties make this the stress case for repeated-query engines:
///
/// - **Every per-class query is an exhaustive "no".** The sink never
///   changes, so differences confined to other objects can never reach
///   it and the pair search must drain its whole frontier — no early
///   exits to hide setup costs behind.
/// - **The pair frontier dies fast.** Because each update reads only
///   already-rewritten predecessors, one sweep collapses `x1 … x(n−2)`
///   to functions of `x0` alone: state pairs differing anywhere but `x0`
///   converge within two steps, so the search visits O(roots) pairs
///   instead of a long orbit.
/// - **Successor rows are expensive to interpret.** The sweep body costs
///   ~`(n − 2) · width` AST node evaluations per state, against two
///   table lookups per compiled pair expansion. Engines that
///   re-interpret rows per query (the per-call sequential path) pay that
///   for every class's states; a shared compiled Oracle pays it once per
///   *sweep* of queries.
pub fn mixing_system(n: usize, k: i64, width: usize) -> Result<System> {
    assert!(n >= 3, "mixing_system needs a seed, a mixer, and a sink");
    let objects = (0..n)
        .map(|i| Ok((format!("x{i}"), Domain::int_range(0, k - 1)?)))
        .collect::<Result<Vec<_>>>()?;
    let u = Universe::new(objects)?;
    let ids: Vec<_> = u.objects().collect();
    let m = n - 1; // objects that mix; ids[m] is the isolated sink
    let mut sweep = Vec::with_capacity(m - 1);
    for i in 1..m {
        let mut body = Expr::var(ids[i - 1]);
        for j in 2..=width.min(i) {
            body = body.add(Expr::var(ids[i - j]));
        }
        sweep.push(Cmd::assign(ids[i], body.modulo(Expr::int(k))));
    }
    Ok(System::new(u, vec![Op::from_cmd("mix", Cmd::Seq(sweep))]))
}

/// The benchmark member of the §4.3 pointer-chain family: the same
/// `(data, ptr)` records and pointer-advance `δ2` as
/// [`sd_core::examples::pointer_chain_system`], but `δ1` *accumulates*
/// instead of copying — `y.data ← (y.data + x.data) mod d` when
/// `y.ptr = x`. A plain copy makes every downstream difference a verbatim
/// image of the source's, so state pairs stay cheap to enumerate;
/// accumulation decorrelates the difference pattern from the data values
/// and the reachable *pair* space dwarfs the reachable *state* space —
/// the regime the pair search actually lives in.
pub fn accumulator_chain_system(n: usize, d: i64) -> Result<System> {
    let names: Vec<String> = (0..n).map(|i| format!("o{i}")).collect();
    let mut objects = Vec::with_capacity(n);
    for name in &names {
        let mut values = Vec::new();
        for data in 0..d {
            for ptr in 0..n {
                values.push(Value::Record(vec![
                    Value::Int(data),
                    Value::Name(sd_core::ObjId::from_index(ptr)),
                ]));
            }
        }
        objects.push((
            name.clone(),
            Domain::with_fields(values, vec!["data".into(), "ptr".into()])?,
        ));
    }
    let u = Universe::new(objects)?;
    let ids: Vec<_> = u.objects().collect();
    let mut ops = Vec::new();
    for &y in &ids {
        for &x in &ids {
            if y == x {
                continue;
            }
            let y_points_x = Expr::var(y).field(1).eq(Expr::Const(Value::Name(x)));
            // a1(y, x): if y.ptr = x then y.data ← (y.data + x.data) mod d.
            ops.push(Op::from_cmd(
                format!("a1({},{})", u.name(y), u.name(x)),
                Cmd::when(
                    y_points_x.clone(),
                    Cmd::assign_field(
                        y,
                        0,
                        Expr::var(y)
                            .field(0)
                            .add(Expr::var(x).field(0))
                            .modulo(Expr::int(d)),
                    ),
                ),
            ));
            // δ2(y, x): if y.ptr = x then y.ptr ← x.ptr.
            ops.push(Op::from_cmd(
                format!("d2({},{})", u.name(y), u.name(x)),
                Cmd::when(y_points_x, Cmd::assign_field(y, 1, Expr::var(x).field(1))),
            ));
        }
    }
    Ok(System::new(u, ops))
}

/// The [`accumulator_chain_system`] pinned to one *backward* chain with an
/// isolated tail: φ requires `o0.ptr = o0`, `o_i.ptr = o_(i−1)` for
/// `1 ≤ i ≤ n−2`, and `o_(n−1).ptr = o_(n−1)`, leaving only the data
/// fields free.
///
/// Each `a1` pulls data from the pointed-to object, so `o0`'s variety
/// spreads *forward* through `o1 … o_(n−2)` — and because it accumulates,
/// any subset of those objects can end up differing, independent of the
/// underlying data values. The tail `o_(n−1)` only ever points at itself
/// (δ2 can never move a self-pointer), so `o0 ▷φ o_(n−1)` is *false* and
/// the search must exhaust the entire reachable pair space — the worst
/// case for engine throughput, with no early exit.
///
/// The constraint is returned materialised as an extensional [`Phi::Set`],
/// so Sat(φ) enumeration costs the same (near nothing) for every engine
/// and the benchmark measures pair expansion, not constraint evaluation.
///
/// The set is built *directly* rather than by evaluating a pinning
/// expression over all `(d·n)^n` states: only the `d^n` free data
/// assignments satisfy φ, and each one's mixed-radix state code follows
/// arithmetically from the per-object strides (a record's value index is
/// `data·n + ptr` by [`accumulator_chain_system`]'s construction order).
/// That keeps setup instant even when the ambient space has tens of
/// millions of states, e.g. `n = 6, d = 3`.
pub fn pointer_chain_pinned(n: usize, d: i64) -> Result<(System, Phi)> {
    let sys = accumulator_chain_system(n, d)?;
    let u = sys.universe();
    let ns = u.checked_state_count(u64::MAX as u128)?;
    let pinned_ptr = |i: usize| if i == 0 || i == n - 1 { i } else { i - 1 };
    let strides: Vec<u64> = (0..n)
        .map(|i| u.stride(sd_core::ObjId::from_index(i)) as u64)
        .collect();
    let base: u64 = strides
        .iter()
        .enumerate()
        .map(|(i, s)| s * pinned_ptr(i) as u64)
        .sum();
    let mut set = sd_core::StateSet::new(ns);
    // Odometer over the free data fields; ptr fields stay pinned.
    let mut data = vec![0u64; n];
    loop {
        let code = base
            + strides
                .iter()
                .zip(&data)
                .map(|(s, v)| s * v * n as u64)
                .sum::<u64>();
        set.insert(code);
        let mut i = 0;
        while i < n {
            data[i] += 1;
            if data[i] < d as u64 {
                break;
            }
            data[i] = 0;
            i += 1;
        }
        if i == n {
            break;
        }
    }
    Ok((sys, Phi::from_set(set)))
}

/// A random straight-line program over `n` int variables with `stmts`
/// assignments and occasional branch-free conditionals — the workload for
/// the static-vs-semantic comparison.
pub fn random_program(n: usize, k: i64, stmts: usize, seed: u64) -> sd_lang::Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let decls: Vec<(String, sd_lang::Type)> = (0..n)
        .map(|i| (format!("v{i}"), sd_lang::Type::Int { lo: 0, hi: k - 1 }))
        .collect();
    let var = |i: usize| sd_lang::Expr::Var(format!("v{i}"));
    let mut body = Vec::new();
    for _ in 0..stmts {
        let dst = rng.gen_range(0..n);
        let src = rng.gen_range(0..n);
        let assign = sd_lang::Stmt::Assign(format!("v{dst}"), var(src));
        if rng.gen_bool(0.4) {
            let g = rng.gen_range(0..n);
            let c = rng.gen_range(0..k);
            body.push(sd_lang::Stmt::If(
                sd_lang::Expr::Bin(
                    sd_lang::ast::BinOp::Lt,
                    Box::new(var(g)),
                    Box::new(sd_lang::Expr::Int(c)),
                ),
                vec![assign],
                vec![],
            ));
        } else {
            body.push(assign);
        }
    }
    sd_lang::Program { decls, body }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_system_is_closed_and_deterministic() {
        let a = random_system(4, 3, 5, 42).unwrap();
        a.validate().unwrap();
        let b = random_system(4, 3, 5, 42).unwrap();
        // Same seed, same behaviour on a sample state.
        let s = sd_core::State::from_indices(vec![1, 2, 0, 1]);
        for op in a.op_ids() {
            assert_eq!(a.apply(op, &s).unwrap(), b.apply(op, &s).unwrap());
        }
    }

    #[test]
    fn mixing_spreads_variety_but_spares_the_sink() {
        let sys = mixing_system(5, 3, 3).unwrap();
        sys.validate().unwrap();
        let u = sys.universe();
        let x0 = sd_core::ObjSet::singleton(u.obj("x0").unwrap());
        // Mixing carries x0's variety to every other mixer...
        assert!(sd_core::Query::new(sd_core::Phi::True, x0.clone())
            .beta(u.obj("x2").unwrap())
            .run_on(&sys)
            .unwrap()
            .holds());
        // ...but the isolated sink is untouched: an exhaustive "no".
        assert!(!sd_core::Query::new(sd_core::Phi::True, x0.clone())
            .beta(u.obj("x4").unwrap())
            .run_on(&sys)
            .unwrap()
            .holds());
    }

    #[test]
    fn pinned_pointer_chain_spreads_variety_but_spares_the_tail() {
        let (sys, phi) = pointer_chain_pinned(4, 2).unwrap();
        sys.validate().unwrap();
        let u = sys.universe();
        let o0 = sd_core::ObjSet::singleton(u.obj("o0").unwrap());
        // o0's variety spreads through the backward chain...
        assert!(sd_core::Query::new(phi.clone(), o0.clone())
            .beta(u.obj("o2").unwrap())
            .run_on(&sys)
            .unwrap()
            .holds());
        // ...but the isolated tail only ever reads itself, so the
        // benchmark query is an exhaustive "no".
        assert!(!sd_core::Query::new(phi.clone(), o0.clone())
            .beta(u.obj("o3").unwrap())
            .run_on(&sys)
            .unwrap()
            .holds());
    }

    #[test]
    fn pinned_set_matches_the_pinning_expression() {
        // The arithmetically-built Sat set must equal the one obtained by
        // evaluating the pinning expression over the whole state space.
        for (n, d) in [(3usize, 2i64), (4, 2), (3, 3)] {
            let (sys, phi) = pointer_chain_pinned(n, d).unwrap();
            let u = sys.universe();
            let ids: Vec<_> = u.objects().collect();
            let mut expr: Option<Expr> = None;
            for i in 0..n {
                let target = if i == 0 || i == n - 1 {
                    ids[i]
                } else {
                    ids[i - 1]
                };
                let clause = Expr::var(ids[i])
                    .field(1)
                    .eq(Expr::Const(Value::Name(target)));
                expr = Some(match expr {
                    Some(e) => e.and(clause),
                    None => clause,
                });
            }
            let by_expr = Phi::expr(expr.unwrap()).sat(&sys).unwrap();
            assert_eq!(phi.sat(&sys).unwrap(), by_expr, "n={n} d={d}");
        }
    }

    #[test]
    fn random_programs_compile() {
        for seed in 0..5 {
            let p = random_program(4, 3, 6, seed);
            let c = sd_lang::compile(&p).unwrap();
            c.system.validate().unwrap();
        }
    }
}
