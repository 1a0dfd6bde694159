//! The static cone of influence (`sd_core::cone`) answers "no flow"
//! without searching, so it must never answer differently from the
//! exact search. Every query here runs twice: on a shared default Oracle
//! (dense tables, the cone consulted wherever its gate holds) and on an
//! `Engine::Interpreted` Oracle (never a cone). Verdicts, witnesses,
//! sink rows and error texts must be byte-identical, every query the
//! cone decided must be no-flow on the interpreted engine, and systems
//! outside the gate (a reachable poison transition, a native operation,
//! a sparse table) must never report the `"cone"` engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strong_dependency::core::{
    Cmd, CompileBudget, Domain, Engine, Expr, ObjId, ObjSet, Op, Oracle, Phi, Query, System,
    Universe, Value,
};
use strong_dependency::lang::{self, ast::BinOp, Program, Stmt, Type};

/// What one query run produced, as compared across engines: the answer
/// (or error) text and the engine label the report carries.
struct Run {
    text: String,
    engine: &'static str,
    holds: bool,
}

fn run(q: &Query, oracle: &Oracle<'_>) -> Run {
    match q.run(oracle) {
        Ok(out) => Run {
            text: format!("{:?}", out.answer),
            engine: out.report.engine,
            holds: out.holds(),
        },
        Err(e) => Run {
            text: format!("error: {e}"),
            engine: "error",
            holds: false,
        },
    }
}

/// Every query shape over `sys` under `phi`: β for each (singleton A, β)
/// pair, `bounded(k)` β queries, set targets, sinks per singleton, the
/// singleton matrix, and a few two-object sources.
fn queries(sys: &System, phi: &Phi, rng: &mut StdRng) -> Vec<Query> {
    let objs: Vec<ObjId> = sys.universe().objects().collect();
    let singletons: Vec<ObjSet> = objs.iter().map(|&o| ObjSet::singleton(o)).collect();
    let mut sources = singletons.clone();
    for _ in 0..2 {
        let a = objs[rng.gen_range(0..objs.len())];
        let b = objs[rng.gen_range(0..objs.len())];
        sources.push(ObjSet::from_iter([a, b]));
    }
    let mut out = Vec::new();
    for a in &sources {
        let q = Query::new(phi.clone(), a.clone());
        for &beta in &objs {
            out.push(q.clone().beta(beta));
            out.push(q.clone().beta(beta).bounded(rng.gen_range(0..4)));
        }
        let b = ObjSet::from_iter([
            objs[rng.gen_range(0..objs.len())],
            objs[rng.gen_range(0..objs.len())],
        ]);
        out.push(q.clone().set(b));
        out.push(q.sinks());
    }
    out.push(Query::matrix(phi.clone(), singletons));
    out
}

/// Runs every query on a shared default Oracle and on an interpreted
/// one, asserting identical answers and that every cone-decided query is
/// no-flow on the interpreted engine. Returns how many the cone decided.
fn assert_cone_agrees(sys: &System, phi: &Phi, rng: &mut StdRng) -> usize {
    let shared = Oracle::new(sys).unwrap();
    let interp = Oracle::with_engine(sys, Engine::Interpreted, &CompileBudget::default()).unwrap();
    let mut decided = 0;
    for q in queries(sys, phi, rng) {
        let fast = run(&q, &shared);
        let slow = run(&q, &interp);
        assert_eq!(fast.text, slow.text, "answers differ");
        if fast.engine == "cone" {
            assert!(!slow.holds, "the cone answered a query that flows");
            decided += 1;
        }
    }
    decided
}

/// A φ over the int objects only (record objects have no `<`).
fn random_phi(ints: &[ObjId], k: i64, rng: &mut StdRng) -> Phi {
    if rng.gen_bool(0.5) {
        return Phi::True;
    }
    let obj = ints[rng.gen_range(0..ints.len())];
    Phi::expr(Expr::var(obj).lt(Expr::int(rng.gen_range(1..=k))))
}

/// Random command systems beyond `tests/common::random_system`:
/// sequences whose later assignments read earlier targets, nested
/// if/else writes and record-field updates. Every assignment stays in
/// its domain (sums reduce modulo the domain size), so the dense table
/// holds no poison and the cone applies.
fn random_cmd_system(rng: &mut StdRng) -> (System, Vec<ObjId>, i64) {
    let n = rng.gen_range(2usize..=4);
    let k = rng.gen_range(2i64..=3);
    let mut objects: Vec<(String, Domain)> = (0..n)
        .map(|i| (format!("v{i}"), Domain::int_range(0, k - 1).unwrap()))
        .collect();
    let bits = [0, 1].map(Value::Int);
    let records = bits
        .iter()
        .flat_map(|l| {
            bits.iter()
                .map(move |r| Value::Record(vec![l.clone(), r.clone()]))
        })
        .collect();
    objects.push((
        "rec".into(),
        Domain::with_fields(records, vec!["lo".into(), "hi".into()]).unwrap(),
    ));
    let u = Universe::new(objects).unwrap();
    let ids: Vec<ObjId> = u.objects().collect();
    let (ints, rec) = (ids[..n].to_vec(), ids[n]);
    let mut gen = CmdGen {
        rng,
        ints: &ints,
        rec,
        k,
    };
    let ops = (0..gen.rng.gen_range(2usize..=4))
        .map(|i| Op::from_cmd(format!("d{i}"), gen.cmd(2)))
        .collect();
    (System::new(u, ops), ints, k)
}

struct CmdGen<'a> {
    rng: &'a mut StdRng,
    ints: &'a [ObjId],
    rec: ObjId,
    k: i64,
}

impl CmdGen<'_> {
    fn int(&mut self) -> ObjId {
        self.ints[self.rng.gen_range(0..self.ints.len())]
    }

    /// An int-valued read: a variable, a record field or a constant.
    fn operand(&mut self) -> Expr {
        match self.rng.gen_range(0..4) {
            0 => Expr::var(self.rec).field(self.rng.gen_range(0..2)),
            1 => Expr::int(self.rng.gen_range(0..self.k)),
            _ => Expr::var(self.int()),
        }
    }

    /// `lhs ← (x + y) mod m`, in the domain of size `m` by construction.
    fn sum(&mut self, m: i64) -> Expr {
        self.operand().add(self.operand()).modulo(Expr::int(m))
    }

    fn guard(&mut self) -> Expr {
        let c = Expr::int(self.rng.gen_range(0..self.k));
        if self.rng.gen_bool(0.5) {
            self.operand().lt(c)
        } else {
            self.operand().eq(c)
        }
    }

    fn cmd(&mut self, depth: u32) -> Cmd {
        match self.rng.gen_range(0..if depth == 0 { 2 } else { 5 }) {
            0 => Cmd::assign(self.int(), self.sum(self.k)),
            1 => Cmd::assign_field(self.rec, self.rng.gen_range(0..2), self.sum(2)),
            2 => {
                // A chain: each assignment reads the previous target.
                let mut prev = self.int();
                let mut chain = vec![Cmd::assign(prev, self.sum(self.k))];
                for _ in 0..self.rng.gen_range(1..=2) {
                    let next = self.int();
                    let rhs = Expr::var(prev)
                        .add(self.operand())
                        .modulo(Expr::int(self.k));
                    chain.push(Cmd::assign(next, rhs));
                    prev = next;
                }
                Cmd::Seq(chain)
            }
            3 => Cmd::If(
                self.guard(),
                Box::new(self.cmd(depth - 1)),
                Box::new(self.cmd(depth - 1)),
            ),
            _ => Cmd::Seq(vec![self.cmd(depth - 1), self.cmd(depth - 1)]),
        }
    }
}

#[test]
fn cone_decisions_match_the_exact_engine_on_random_commands() {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let mut decided = 0;
    for _ in 0..40 {
        let (sys, ints, k) = random_cmd_system(&mut rng);
        let phi = random_phi(&ints, k, &mut rng);
        decided += assert_cone_agrees(&sys, &phi, &mut rng);
    }
    assert!(decided > 0, "the cone decided some of the queries");
}

/// A random sd-lang program over `n` int variables in `0..=hi`, with
/// branches, `while` loops, and arithmetic (no division: that is the
/// poison case below).
fn random_program(rng: &mut StdRng) -> Program {
    let n = rng.gen_range(2usize..=3);
    let hi = 1;
    let body = (0..rng.gen_range(1usize..=3))
        .map(|_| random_stmt(rng, n, hi, 1))
        .collect();
    Program {
        decls: (0..n)
            .map(|i| (format!("v{i}"), Type::Int { lo: 0, hi }))
            .collect(),
        body,
    }
}

fn random_expr(rng: &mut StdRng, n: usize, hi: i64) -> lang::Expr {
    let leaf = |rng: &mut StdRng| {
        if rng.gen_bool(0.7) {
            lang::Expr::var(format!("v{}", rng.gen_range(0..n)))
        } else {
            lang::Expr::Int(rng.gen_range(0..=hi))
        }
    };
    if rng.gen_bool(0.5) {
        return leaf(rng);
    }
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.gen_range(0usize..3)];
    lang::Expr::Bin(op, Box::new(leaf(rng)), Box::new(leaf(rng)))
}

fn random_stmt(rng: &mut StdRng, n: usize, hi: i64, depth: u32) -> Stmt {
    let block = |rng: &mut StdRng| {
        (0..rng.gen_range(0usize..=2))
            .map(|_| random_stmt(rng, n, hi, depth - 1))
            .collect()
    };
    match rng.gen_range(0..if depth == 0 { 2 } else { 5 }) {
        0 => Stmt::Skip,
        1 | 2 => Stmt::Assign(format!("v{}", rng.gen_range(0..n)), random_expr(rng, n, hi)),
        3 => {
            let g = lang::Expr::Bin(
                BinOp::Lt,
                Box::new(random_expr(rng, n, hi)),
                Box::new(lang::Expr::Int(rng.gen_range(0..=hi))),
            );
            Stmt::If(g, block(rng), block(rng))
        }
        _ => {
            let g = lang::Expr::Bin(
                BinOp::Eq,
                Box::new(random_expr(rng, n, hi)),
                Box::new(lang::Expr::Int(rng.gen_range(0..=hi))),
            );
            Stmt::While(g, block(rng))
        }
    }
}

#[test]
fn cone_decisions_match_the_exact_engine_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(0x5d1a);
    let mut decided = 0;
    for _ in 0..24 {
        let compiled = lang::compile(&random_program(&mut rng)).unwrap();
        decided += assert_cone_agrees(&compiled.system, &Phi::True, &mut rng);
    }
    assert!(decided > 0, "the cone decided some of the queries");
}

/// Asserts `sys` gets the same answers and errors from `oracle` as from
/// the interpreted engine, and that no report says `"cone"`. Returns the
/// number of queries that errored.
fn assert_falls_back(sys: &System, oracle: &Oracle<'_>) -> usize {
    let interp = Oracle::with_engine(sys, Engine::Interpreted, &CompileBudget::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut errors = 0;
    for q in queries(sys, &Phi::True, &mut rng) {
        let fast = run(&q, oracle);
        let slow = run(&q, &interp);
        assert_eq!(fast.text, slow.text, "answers or errors differ");
        assert_ne!(fast.engine, "cone", "the cone ran outside its gate");
        errors += usize::from(fast.engine == "error");
    }
    errors
}

/// `x ← 10 / y` next to an unrelated `z ← w`: x is not in cone(z), but
/// the division errors whenever y = 0, so the cone must stay out of it.
fn poisoned_system() -> System {
    let u = Universe::new(vec![
        ("x".into(), Domain::int_range(0, 10).unwrap()),
        ("y".into(), Domain::int_range(0, 3).unwrap()),
        ("z".into(), Domain::int_range(0, 1).unwrap()),
        ("w".into(), Domain::int_range(0, 1).unwrap()),
    ])
    .unwrap();
    let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| u.obj(n).unwrap());
    let div = Expr::bin(
        strong_dependency::core::BinOp::Div,
        Expr::int(10),
        Expr::var(y),
    );
    System::new(
        u,
        vec![
            Op::from_cmd("div", Cmd::assign(x, div)),
            Op::from_cmd("copy", Cmd::assign(z, Expr::var(w))),
        ],
    )
}

#[test]
fn reachable_poison_keeps_the_search_and_its_errors() {
    let sys = poisoned_system();
    let oracle = Oracle::new(&sys).unwrap();
    assert!(
        assert_falls_back(&sys, &oracle) > 0,
        "the poison is reached"
    );
}

#[test]
fn native_operations_keep_the_search() {
    let sys = poisoned_system();
    let u = sys.universe().clone();
    let [z, w] = ["z", "w"].map(|n| u.obj(n).unwrap());
    let native = Op::native("copy", move |_, s| {
        let mut out = s.clone();
        out.set_index(z, s.index(w));
        Ok(out)
    });
    let total = Op::from_cmd("keep", Cmd::assign(w, Expr::var(w)));
    let sys = System::new(u, vec![total, native]);
    let oracle = Oracle::new(&sys).unwrap();
    assert_eq!(assert_falls_back(&sys, &oracle), 0);
}

#[test]
fn sparse_oracles_keep_the_search() {
    let sys = strong_dependency::core::examples::flag_copy_system(3).unwrap();
    // No dense table fits this budget, so the Oracle keeps sparse rows.
    let sparse_budget = CompileBudget {
        max_dense_entries: 0,
        ..CompileBudget::default()
    };
    let oracle = Oracle::with_engine(&sys, Engine::Auto, &sparse_budget).unwrap();
    assert_eq!(assert_falls_back(&sys, &oracle), 0);
    let [beta, x] = ["beta", "x"].map(|n| sys.universe().obj(n).unwrap());
    let query = Query::new(Phi::True, ObjSet::singleton(beta)).beta(x);
    assert_eq!(query.run(&oracle).unwrap().report.engine, "compiled-sparse");
    // The same system on a dense Oracle does use the cone.
    let dense = Oracle::new(&sys).unwrap();
    assert_eq!(query.run(&dense).unwrap().report.engine, "cone");
}
