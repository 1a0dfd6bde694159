//! Strong dependency over a fixed history (Defs 2-3 … 2-11, 5-5 … 5-7).
//!
//! `β` strongly depends on `A` after `H` given φ when two states that
//! satisfy φ and differ only at `A` lead, via `H`, to different values of
//! `β`. This module decides that *for a given H*, exhaustively; the
//! all-histories relation `A ▷φ β` lives in [`crate::reach`].
//!
//! The decision groups Sat(φ) into equivalence classes of the
//! "equal-except-at-A" relation (`σ1 =A= σ2`, Def 1-1) and compares
//! β-outcomes within each class, which is linear in |Sat(φ)| rather than
//! quadratic.

use crate::constraint::Phi;
use crate::error::Result;
use crate::expr::{BinOp, Expr};
use crate::fastmap::U64Map;
use crate::history::History;
use crate::state::State;
use crate::system::System;
use crate::universe::{ObjId, ObjSet, Universe};

/// A witnessing state pair `σ1 (A ▷H β) σ2` (Def 2-9).
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// First state of the differing pair.
    pub sigma1: State,
    /// Second state of the differing pair.
    pub sigma2: State,
}

/// Enumerates `Sat(φ)` as ascending state codes.
///
/// Extensional and trivial constraints short-circuit without touching
/// the state space. Any other φ is lowered to a per-object normal form
/// when that is exact: each conjunct is tabulated over the objects it
/// reads, one-object conjuncts narrow that object's allowed values, and
/// Sat(φ) is enumerated from the product of the allowed values, filtered
/// by the remaining tables, so the cost follows the number of candidates
/// rather than |Σ|. Otherwise — a native predicate, a nested
/// extensional set, a conjunct too wide to tabulate, or one that errors
/// somewhere on its read set — it falls back to [`sat_codes_scan`], so
/// every `Err` is the scan's own. This is the single Sat(φ) sweep shared
/// by [`SatPartition`], [`crate::reach`], [`Phi::sat`] and the worth
/// matrix.
pub fn sat_codes(sys: &System, phi: &Phi) -> Result<Vec<u64>> {
    let n = sys.state_count()?;
    match phi {
        Phi::True => Ok((0..n).collect()),
        Phi::False => Ok(Vec::new()),
        Phi::Set(s) => Ok(s.iter().filter(|&i| i < n).collect()),
        _ => match NormalForm::lower(sys, phi) {
            Some(nf) => Ok(nf.codes(sys.universe())),
            None => sat_codes_scan(sys, phi),
        },
    }
}

/// The reference Sat(φ) enumeration: decodes every state and evaluates φ
/// on it, in code order, returning the first error it meets.
/// [`sat_codes`] falls back to it whenever the normal form is not exact.
pub fn sat_codes_scan(sys: &System, phi: &Phi) -> Result<Vec<u64>> {
    let n = sys.state_count()?;
    let mut out = Vec::new();
    // `StateIter` yields states in encoding order, so a running counter
    // doubles as the code (checked by the state round-trip property
    // tests).
    for (code, sigma) in (0..n).zip(sys.states()?) {
        if phi.holds(sys, &sigma)? {
            out.push(code);
        }
    }
    Ok(out)
}

/// A residual conjunct is tabulated only when its read set has at most
/// this many points; a wider one sends φ to the scan.
const TABLE_CAP: u64 = 1 << 16;

/// φ lowered to a per-object normal form: `⋀ σ.α ∈ allowed[α] ∧ ⋀ ρ(σ)`.
///
/// φ is flattened through `Phi::And` and boolean `Expr` `∧` into
/// conjuncts. Each conjunct is tabulated over the full domains of the
/// objects it reads. A conjunct reading one object narrows that object's
/// allowed indices; any other is kept as a residual table `ρ`. Lowering
/// succeeds only when every conjunct evaluates without error on every
/// point of its read set: then φ is total, `∧`'s short-circuit order
/// cannot matter, and Sat(φ) is exactly the candidates of the product
/// that pass every residual.
#[derive(Debug)]
pub(crate) struct NormalForm {
    /// Per object (by index), its allowed domain indices, ascending.
    allowed: Vec<Vec<u32>>,
    residuals: Vec<Residual>,
}

/// A conjunct over several (or no) objects, as a truth table.
#[derive(Debug)]
struct Residual {
    /// `(object index, table stride)`, the last read object fastest.
    reads: Vec<(usize, usize)>,
    table: Vec<bool>,
}

impl Residual {
    fn holds(&self, digits: &[u32]) -> bool {
        let at: usize = self
            .reads
            .iter()
            .map(|&(obj, stride)| digits[obj] as usize * stride)
            .sum();
        self.table[at]
    }
}

/// One conjunct of a flattened φ.
enum Conjunct<'a> {
    Phi(&'a Phi),
    Expr(&'a Expr),
}

impl Conjunct<'_> {
    /// The objects the conjunct reads; `false` if it contains a native
    /// predicate or an extensional set (which read the whole state).
    fn reads(&self, out: &mut Vec<ObjId>) -> bool {
        fn phi_reads(phi: &Phi, out: &mut Vec<ObjId>) -> bool {
            match phi {
                Phi::True | Phi::False => true,
                Phi::Expr(e) => {
                    e.reads(out);
                    true
                }
                Phi::Pred { .. } | Phi::Set(_) => false,
                Phi::Not(p) => phi_reads(p, out),
                Phi::And(a, b) | Phi::Or(a, b) => phi_reads(a, out) && phi_reads(b, out),
            }
        }
        match self {
            Conjunct::Phi(p) => phi_reads(p, out),
            Conjunct::Expr(e) => {
                e.reads(out);
                true
            }
        }
    }

    fn holds(&self, sys: &System, sigma: &State) -> Result<bool> {
        match self {
            Conjunct::Phi(p) => p.holds(sys, sigma),
            Conjunct::Expr(e) => e.eval_bool(sys.universe(), sigma),
        }
    }
}

fn flatten<'a>(phi: &'a Phi, out: &mut Vec<Conjunct<'a>>) {
    fn flatten_expr<'a>(e: &'a Expr, out: &mut Vec<Conjunct<'a>>) {
        match e {
            Expr::Bin(BinOp::And, l, r) => {
                flatten_expr(l, out);
                flatten_expr(r, out);
            }
            other => out.push(Conjunct::Expr(other)),
        }
    }
    match phi {
        Phi::And(a, b) => {
            flatten(a, out);
            flatten(b, out);
        }
        Phi::Expr(e) => flatten_expr(e, out),
        other => out.push(Conjunct::Phi(other)),
    }
}

impl NormalForm {
    /// Lowers φ, or `None` when the normal form would not be exact (see
    /// [`sat_codes`]).
    pub(crate) fn lower(sys: &System, phi: &Phi) -> Option<NormalForm> {
        let u = sys.universe();
        let mut conjuncts = Vec::new();
        flatten(phi, &mut conjuncts);
        let mut allowed: Vec<Vec<u32>> = u
            .objects()
            .map(|obj| (0..u.domain(obj).size() as u32).collect())
            .collect();
        let mut residuals = Vec::new();
        let mut sigma = State::from_indices(vec![0; u.num_objects()]);
        for c in &conjuncts {
            let mut reads = Vec::new();
            if !c.reads(&mut reads) {
                return None;
            }
            reads.sort_unstable();
            reads.dedup();
            let table = tabulate(sys, c, &reads, &mut sigma)?;
            match reads[..] {
                [obj] => allowed[obj.index()].retain(|&v| table[v as usize]),
                _ => {
                    let mut stride = table.len();
                    let reads = reads
                        .iter()
                        .map(|&obj| {
                            stride /= u.domain(obj).size();
                            (obj.index(), stride)
                        })
                        .collect();
                    residuals.push(Residual { reads, table });
                }
            }
        }
        Some(NormalForm { allowed, residuals })
    }

    /// The size of the product of allowed values: how many candidates
    /// [`NormalForm::codes`] walks.
    pub(crate) fn candidates(&self) -> u64 {
        self.allowed.iter().map(|a| a.len() as u64).product()
    }

    /// Walks the product of allowed indices in mixed-radix order (last
    /// object fastest, as in the state encoding), so codes come out
    /// ascending, keeping each candidate every residual accepts.
    pub(crate) fn codes(&self, u: &Universe) -> Vec<u64> {
        let mut out = Vec::new();
        if self.allowed.iter().any(Vec::is_empty) {
            return out;
        }
        if self.residuals.is_empty() {
            out.reserve_exact(self.candidates() as usize);
        }
        let strides: Vec<u64> = u.objects().map(|obj| u.stride(obj) as u64).collect();
        let mut pos = vec![0usize; self.allowed.len()];
        let mut digits: Vec<u32> = self.allowed.iter().map(|a| a[0]).collect();
        let mut code: u64 = digits
            .iter()
            .zip(&strides)
            .map(|(&d, &s)| d as u64 * s)
            .sum();
        loop {
            if self.residuals.iter().all(|r| r.holds(&digits)) {
                out.push(code);
            }
            // Advance the odometer, carrying leftwards.
            let mut i = self.allowed.len();
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                let vals = &self.allowed[i];
                code -= digits[i] as u64 * strides[i];
                pos[i] += 1;
                let carry = pos[i] == vals.len();
                if carry {
                    pos[i] = 0;
                }
                digits[i] = vals[pos[i]];
                code += digits[i] as u64 * strides[i];
                if !carry {
                    break;
                }
            }
        }
    }
}

/// The truth table of one conjunct over the full domains of `reads`
/// (mixed radix, last object fastest), or `None` when the read set has
/// more than [`TABLE_CAP`] points or the conjunct errors on any of them.
/// `sigma` is scratch: only its `reads` coordinates are written.
fn tabulate(
    sys: &System,
    c: &Conjunct<'_>,
    reads: &[ObjId],
    sigma: &mut State,
) -> Option<Vec<bool>> {
    let u = sys.universe();
    let points = reads
        .iter()
        .try_fold(1u64, |acc, &obj| {
            acc.checked_mul(u.domain(obj).size() as u64)
        })
        .filter(|&p| p <= TABLE_CAP)?;
    let mut table = Vec::with_capacity(points as usize);
    for &obj in reads {
        sigma.set_index(obj, 0);
    }
    loop {
        table.push(c.holds(sys, sigma).ok()?);
        let mut i = reads.len();
        loop {
            if i == 0 {
                return Some(table);
            }
            i -= 1;
            let obj = reads[i];
            let next = sigma.index(obj) + 1;
            if (next as usize) < u.domain(obj).size() {
                sigma.set_index(obj, next);
                break;
            }
            sigma.set_index(obj, 0);
        }
    }
}

/// `Sat(φ)` partitioned into `=A=` equivalence classes, by state code.
///
/// Two states are in the same class iff they agree on every object
/// outside `A`. The class key is computed arithmetically — the encoding
/// of the state with every A-object zeroed — so no per-state projection
/// vector is allocated or hashed. One partition serves every consumer
/// of the classes: [`crate::reach`] streams its initial pairs from it
/// and tests candidates against them, and [`strongly_depends_after_with`]
/// reuses it across the histories of a bounded enumeration.
#[derive(Debug, Clone)]
pub struct SatPartition {
    classes: Vec<Vec<u64>>,
    /// `(class, position)` of every member that has a later member in
    /// its class, in ascending code order: the first sides of the
    /// initial pairs, in the order [`SatPartition::root_pairs`]
    /// streams them.
    firsts: Vec<(u32, u32)>,
    /// `(stride, domain size)` of each object in A.
    a_digits: Vec<(u64, u64)>,
}

/// `(stride, domain size)` of each object in A.
fn a_digits(u: &Universe, a: &ObjSet) -> Vec<(u64, u64)> {
    a.iter()
        .map(|obj| (u.stride(obj) as u64, u.domain(obj).size() as u64))
        .collect()
}

/// `code` with every A-coordinate zeroed: a perfect, allocation-free
/// key for the `=A=` relation.
fn off_a_key(a_digits: &[(u64, u64)], code: u64) -> u64 {
    let mut key = code;
    for &(stride, dom) in a_digits {
        key -= stride * ((code / stride) % dom);
    }
    key
}

impl SatPartition {
    /// Partitions `Sat(φ)` under `=A=`.
    pub fn new(sys: &System, phi: &Phi, a: &ObjSet) -> Result<SatPartition> {
        Ok(SatPartition::from_codes(
            sys.universe(),
            &sat_codes(sys, phi)?,
            a,
        ))
    }

    /// Partitions an explicit ascending code list under `=A=`. Useful
    /// when one Sat(φ) enumeration is shared across several source sets
    /// (the worth matrix re-partitions the same codes per row).
    pub fn from_codes(u: &Universe, codes: &[u64], a: &ObjSet) -> SatPartition {
        let a_digits = a_digits(u, a);
        let mut index = U64Map::new();
        let mut classes: Vec<Vec<u64>> = Vec::new();
        let mut firsts: Vec<(u32, u32)> = Vec::with_capacity(codes.len());
        // `codes` is ascending, so members are appended in ascending
        // order and classes are created in order of their smallest
        // member: both orders are deterministic without a sort.
        for &code in codes {
            let key = off_a_key(&a_digits, code);
            let class = match index.get(key) {
                Some(i) => i as usize,
                None => {
                    index.insert(key, classes.len() as u64);
                    classes.push(Vec::new());
                    classes.len() - 1
                }
            };
            let members = &mut classes[class];
            firsts.push((
                u32::try_from(class).expect("Sat(φ) has fewer than 2^32 classes"),
                u32::try_from(members.len()).expect("an =A= class has fewer than 2^32 members"),
            ));
            members.push(code);
        }
        // The last member of each class starts no pair.
        firsts.retain(|&(c, p)| p as usize + 1 < classes[c as usize].len());
        SatPartition {
            classes,
            firsts,
            a_digits,
        }
    }

    /// A partition assembled from explicit `=A=` classes (each
    /// internally ascending), without hashing: the maximal-solution
    /// sweep searches one cylinder class at a time against a shared
    /// compiled system. Classes and first sides are sorted once.
    pub(crate) fn from_classes(
        u: &Universe,
        a: &ObjSet,
        mut classes: Vec<Vec<u64>>,
    ) -> SatPartition {
        classes.sort_unstable();
        let mut firsts: Vec<(u32, u32)> = Vec::new();
        for (c, class) in classes.iter().enumerate() {
            let c = u32::try_from(c).expect("Sat(φ) has fewer than 2^32 classes");
            for p in 1..class.len() {
                let p = u32::try_from(p - 1).expect("an =A= class has fewer than 2^32 members");
                firsts.push((c, p));
            }
        }
        firsts.sort_unstable_by_key(|&(c, p)| classes[c as usize][p as usize]);
        SatPartition {
            classes,
            firsts,
            a_digits: a_digits(u, a),
        }
    }

    /// The classes; each inner vector is ascending, classes are sorted
    /// by first member.
    pub fn classes(&self) -> &[Vec<u64>] {
        &self.classes
    }

    /// Total number of φ-states across all classes.
    pub fn num_states(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Every unordered pair of distinct φ-states that differ only at A,
    /// as `(c1, c2)` with `c1 < c2`, in ascending order — streamed, with
    /// no sort: for each first side in ascending code order, its later
    /// classmates in ascending order.
    pub(crate) fn root_pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.firsts.iter().flat_map(move |&(c, p)| {
            let class = &self.classes[c as usize];
            let c1 = class[p as usize];
            class[p as usize + 1..].iter().map(move |&c2| (c1, c2))
        })
    }

    /// How many pairs [`SatPartition::root_pairs`] yields.
    pub(crate) fn root_pair_count(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.len() * (c.len() - 1) / 2)
            .sum()
    }

    /// Whether two φ-states agree off A, i.e. lie in one class. Both
    /// codes must be members of Sat(φ).
    #[inline]
    pub(crate) fn same_class(&self, c1: u64, c2: u64) -> bool {
        off_a_key(&self.a_digits, c1) == off_a_key(&self.a_digits, c2)
    }
}

/// Partitions Sat(φ) into `=A=` equivalence classes, as decoded states.
///
/// Kept for callers that want `State` values; the partition itself is
/// computed code-wise via [`SatPartition`] (no per-state key
/// allocation).
pub fn classes(sys: &System, phi: &Phi, a: &ObjSet) -> Result<Vec<Vec<State>>> {
    let u = sys.universe();
    Ok(SatPartition::new(sys, phi, a)?
        .classes()
        .iter()
        .map(|class| class.iter().map(|&c| State::decode(u, c)).collect())
        .collect())
}

/// Decides `A ▷φH β` (Def 2-10): returns a witness pair if β strongly
/// depends on A after H given φ, or `None` if no information can be
/// transmitted from A to β by H under φ.
///
/// # Examples
///
/// ```
/// use sd_core::{depend, examples, History, ObjSet, OpId, Phi};
///
/// // §4.4: δ1·δ2 transmits nothing from α to β even though each step
/// // transmits individually.
/// let sys = examples::nontransitive_system(2)?;
/// let u = sys.universe();
/// let (alpha, beta) = (u.obj("alpha")?, u.obj("beta")?);
/// let h = History::from_ops(vec![OpId(0), OpId(1)]);
/// let w = depend::strongly_depends_after(
///     &sys, &Phi::True, &ObjSet::singleton(alpha), beta, &h)?;
/// assert!(w.is_none());
/// # Ok::<(), sd_core::Error>(())
/// ```
pub fn strongly_depends_after(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    beta: ObjId,
    h: &History,
) -> Result<Option<Witness>> {
    strongly_depends_after_with(sys, &SatPartition::new(sys, phi, a)?, beta, h)
}

/// [`strongly_depends_after`] against a precomputed partition, so one
/// Sat(φ) enumeration serves many histories (brute-force bounded
/// enumerations over [`crate::history::histories_up_to`] iterate with it).
pub fn strongly_depends_after_with(
    sys: &System,
    partition: &SatPartition,
    beta: ObjId,
    h: &History,
) -> Result<Option<Witness>> {
    let u = sys.universe();
    for class in partition.classes() {
        if class.len() < 2 {
            continue;
        }
        let mut first: Option<(u32, u64)> = None;
        for &code in class {
            let sigma = State::decode(u, code);
            let out = sys.run(&sigma, h)?;
            let b = out.index(beta);
            match first {
                None => first = Some((b, code)),
                Some((b0, c0)) => {
                    if b != b0 {
                        return Ok(Some(Witness {
                            sigma1: State::decode(u, c0),
                            sigma2: sigma,
                        }));
                    }
                }
            }
        }
    }
    Ok(None)
}

/// Decides the set-target relation `A ▷φH B` (Def 5-6): some pair of
/// φ-states differing only at A leads to values differing at *every*
/// object of `B` after H.
pub fn strongly_depends_set_after(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    b: &ObjSet,
    h: &History,
) -> Result<Option<Witness>> {
    if b.is_empty() {
        // Vacuously, any in-class pair differs at every member of ∅; the
        // paper never uses B = ∅, so we treat it as "no dependency".
        return Ok(None);
    }
    for class in classes(sys, phi, a)? {
        if class.len() < 2 {
            continue;
        }
        // Project each outcome onto B; we need a pair differing in every
        // coordinate. Classes are small (they range only over A's domain),
        // so a pairwise scan is fine.
        let outcomes: Vec<Vec<u32>> = class
            .iter()
            .map(|s| -> Result<Vec<u32>> { Ok(sys.run(s, h)?.project(b)) })
            .collect::<Result<_>>()?;
        for i in 0..class.len() {
            for j in (i + 1)..class.len() {
                let all_differ = outcomes[i].iter().zip(&outcomes[j]).all(|(x, y)| x != y);
                if all_differ {
                    return Ok(Some(Witness {
                        sigma1: class[i].clone(),
                        sigma2: class[j].clone(),
                    }));
                }
            }
        }
    }
    Ok(None)
}

/// Def 2-1 specialized: whether *no* information is transmitted from α to β
/// by H (no constraint, i.e. φ = tt).
pub fn no_information_transmitted(
    sys: &System,
    alpha: ObjId,
    beta: ObjId,
    h: &History,
) -> Result<bool> {
    Ok(strongly_depends_after(sys, &Phi::True, &ObjSet::singleton(alpha), beta, h)?.is_none())
}

/// All sinks β with `A ▷φH β` for a fixed history.
pub fn sinks_after(sys: &System, phi: &Phi, a: &ObjSet, h: &History) -> Result<ObjSet> {
    let mut out = ObjSet::empty();
    for class in classes(sys, phi, a)? {
        if class.len() < 2 {
            continue;
        }
        let outcomes: Vec<State> = class.iter().map(|s| sys.run(s, h)).collect::<Result<_>>()?;
        for i in 0..outcomes.len() {
            for j in (i + 1)..outcomes.len() {
                for obj in outcomes[i].diff(&outcomes[j]).iter() {
                    out.insert(obj);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::history::OpId;
    use crate::op::{Cmd, Op};
    use crate::universe::{Domain, Universe};
    use std::collections::HashMap;

    /// δ: β ← α over k-valued ints — the §2.2 copy example.
    fn copy_sys(k: i64) -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, k - 1).unwrap()),
            ("beta".into(), Domain::int_range(0, k - 1).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        System::new(u, vec![Op::from_cmd("copy", Cmd::assign(b, Expr::var(a)))])
    }

    #[test]
    fn copy_transmits_variety() {
        let sys = copy_sys(16);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let h = History::single(OpId(0));
        let w = strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), b, &h)
            .unwrap()
            .unwrap();
        assert!(w.sigma1.eq_except(&w.sigma2, &ObjSet::singleton(a)));
        assert_ne!(
            sys.run(&w.sigma1, &h).unwrap().index(b),
            sys.run(&w.sigma2, &h).unwrap().index(b)
        );
    }

    #[test]
    fn constant_constraint_blocks_transmission() {
        // §2.2: if α is known to be a constant, no information flows.
        let sys = copy_sys(16);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let phi = Phi::expr(Expr::var(a).eq(Expr::int(7)));
        let h = History::single(OpId(0));
        assert!(
            strongly_depends_after(&sys, &phi, &ObjSet::singleton(a), b, &h)
                .unwrap()
                .is_none()
        );
    }

    /// δ: if α < 10 then β ← 0 else β ← 1 — the §2.2 threshold example.
    fn threshold_sys() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 15).unwrap()),
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
                    Expr::var(a).lt(Expr::int(10)),
                    Box::new(Cmd::assign(b, Expr::int(0))),
                    Box::new(Cmd::assign(b, Expr::int(1))),
                ),
            )],
        )
    }

    #[test]
    fn threshold_example_sec_2_2() {
        let sys = threshold_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let h = History::single(OpId(0));
        // Unconstrained: one bit flows.
        assert!(
            strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), b, &h)
                .unwrap()
                .is_some()
        );
        // With φ: α < 10, nothing flows.
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(10)));
        assert!(
            strongly_depends_after(&sys, &phi, &ObjSet::singleton(a), b, &h)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn reflexivity_sec_2_5() {
        // α ▷δ α when δ preserves α; and over λ, dependency is reflexive
        // unless φ kills α's variety (Thm 2-4).
        let sys = copy_sys(4);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let lambda = History::empty();
        assert!(
            strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), a, &lambda)
                .unwrap()
                .is_some()
        );
        let constant = Phi::expr(Expr::var(a).eq(Expr::int(2)));
        assert!(
            strongly_depends_after(&sys, &constant, &ObjSet::singleton(a), a, &lambda)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn theorem_2_5_lambda_transmission_is_reflexive() {
        // A ▷φλ β ⊃ β ∈ A.
        let sys = copy_sys(4);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let lambda = History::empty();
        // β ∉ {α}: no λ-dependency.
        assert!(
            strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), b, &lambda)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn set_sources_thm_2_1() {
        // δ: β ← α1 + α2 (§2.3): {α1,α2} ▷ β and each αi ▷ β.
        let u = Universe::new(vec![
            ("a1".into(), Domain::int_range(0, 3).unwrap()),
            ("a2".into(), Domain::int_range(0, 3).unwrap()),
            ("beta".into(), Domain::int_range(0, 6).unwrap()),
        ])
        .unwrap();
        let a1 = u.obj("a1").unwrap();
        let a2 = u.obj("a2").unwrap();
        let b = u.obj("beta").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "add",
                Cmd::assign(b, Expr::var(a1).add(Expr::var(a2))),
            )],
        );
        let h = History::single(OpId(0));
        let pair = ObjSet::from_iter([a1, a2]);
        assert!(strongly_depends_after(&sys, &Phi::True, &pair, b, &h)
            .unwrap()
            .is_some());
        for alpha in [a1, a2] {
            assert!(
                strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(alpha), b, &h)
                    .unwrap()
                    .is_some()
            );
        }
        // Theorem 2-2 (monotonicity in A): α1 alone implies the pair.
        assert!(strongly_depends_after(&sys, &Phi::True, &pair, b, &h)
            .unwrap()
            .is_some());
    }

    #[test]
    fn set_target_def_5_6() {
        // δ1: (m1 ← α; m2 ← α) transmits from α to the *set* {m1, m2}.
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 2).unwrap()),
            ("m1".into(), Domain::int_range(0, 2).unwrap()),
            ("m2".into(), Domain::int_range(0, 2).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let m1 = u.obj("m1").unwrap();
        let m2 = u.obj("m2").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "fanout",
                Cmd::Seq(vec![
                    Cmd::assign(m1, Expr::var(a)),
                    Cmd::assign(m2, Expr::var(a)),
                ]),
            )],
        );
        let h = History::single(OpId(0));
        let m12 = ObjSet::from_iter([m1, m2]);
        let w = strongly_depends_set_after(&sys, &Phi::True, &ObjSet::singleton(a), &m12, &h)
            .unwrap()
            .unwrap();
        let o1 = sys.run(&w.sigma1, &h).unwrap();
        let o2 = sys.run(&w.sigma2, &h).unwrap();
        assert!(o1.index(m1) != o2.index(m1) && o1.index(m2) != o2.index(m2));
        // Theorem 5-3: set-target dependency implies each member singly.
        for m in [m1, m2] {
            assert!(
                strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), m, &h)
                    .unwrap()
                    .is_some()
            );
        }
        // Empty target is never a dependency.
        assert!(strongly_depends_set_after(
            &sys,
            &Phi::True,
            &ObjSet::singleton(a),
            &ObjSet::empty(),
            &h
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn sat_partition_matches_projection_classes() {
        // The arithmetic comp-key partition must agree with the
        // reference grouping by the projected complement vector.
        let sys = copy_sys(4);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        for phi in [
            Phi::True,
            Phi::expr(Expr::var(a).lt(Expr::int(2))),
            Phi::expr(Expr::var(a).le(Expr::var(u.obj("beta").unwrap()))),
        ] {
            for src in [ObjSet::singleton(a), ObjSet::empty()] {
                let part = SatPartition::new(&sys, &phi, &src).unwrap();
                let mut reference: HashMap<Vec<u32>, Vec<u64>> = HashMap::new();
                for sigma in sys.states().unwrap() {
                    if phi.holds(&sys, &sigma).unwrap() {
                        reference
                            .entry(sigma.project_complement(&src))
                            .or_default()
                            .push(sigma.encode(u));
                    }
                }
                let mut expected: Vec<Vec<u64>> = reference.into_values().collect();
                expected.sort_unstable();
                assert_eq!(part.classes(), &expected[..]);
                assert_eq!(part.num_states(), expected.iter().map(Vec::len).sum());
            }
        }
    }

    #[test]
    fn sat_codes_fast_paths_agree() {
        let sys = copy_sys(4);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let phi = Phi::expr(Expr::var(a).lt(Expr::int(2)));
        let slow = sat_codes(&sys, &phi).unwrap();
        let as_set = Phi::from_set(phi.sat(&sys).unwrap());
        assert_eq!(sat_codes(&sys, &as_set).unwrap(), slow);
        assert_eq!(
            sat_codes(&sys, &Phi::True).unwrap().len() as u64,
            sys.state_count().unwrap()
        );
        assert!(sat_codes(&sys, &Phi::False).unwrap().is_empty());
    }

    /// Sat(φ) from the normal form, checked against the scan, and the
    /// number of candidates the normal form walked.
    fn sat_and_candidates(sys: &System, phi: &Phi) -> (usize, u64) {
        let nf = NormalForm::lower(sys, phi).expect("φ lowers exactly");
        let codes = sat_codes(sys, phi).unwrap();
        assert_eq!(codes, sat_codes_scan(sys, phi).unwrap());
        (codes.len(), nf.candidates())
    }

    #[test]
    fn normal_form_walks_sat_not_sigma() {
        // The universe the `sdbench` cold_search big program compiles
        // to: its declarations, then `pc` over the 6 statement labels
        // plus exit. The program text:
        //
        //   var x: int 0..15; var y: int 0..15; var z: int 0..15;
        //   var w: int 0..15; var f: bool; var g: bool; var h: bool;
        //   if f { y := x; }
        //   if x < 8 { z := y; } else { z := w; }
        //   if g { w := z; }
        //   y := (y + w) % 16;
        //   if z == 3 { f := true; }
        //   if h { g := f; }
        let mut objects: Vec<(String, Domain)> = ["x", "y", "z", "w"]
            .iter()
            .map(|&n| (n.into(), Domain::int_range(0, 15).unwrap()))
            .collect();
        for n in ["f", "g", "h"] {
            objects.push((n.into(), Domain::boolean()));
        }
        objects.push(("pc".into(), Domain::int_range(1, 7).unwrap()));
        let u = Universe::new(objects).unwrap();
        let var = |n: &str| Expr::var(u.obj(n).unwrap());
        let phi = Phi::expr(
            var("pc")
                .eq(Expr::int(1))
                .and(var("x").eq(Expr::int(3)))
                .and(var("f")),
        );
        let sys = System::new(u.clone(), Vec::new());
        assert_eq!(sys.state_count().unwrap(), 3_670_016);
        assert_eq!(sat_and_candidates(&sys, &phi), (16_384, 16_384));

        // ROADMAP item 8's thin φ on mod_adder(7): 2,097,152 states.
        let sys = crate::examples::mod_adder_system(7).unwrap();
        let u = sys.universe();
        let (a1, a2) = (u.obj("a1").unwrap(), u.obj("a2").unwrap());
        let phi = Phi::expr(
            Expr::var(a1)
                .eq(Expr::int(3))
                .and(Expr::var(a2).lt(Expr::int(4))),
        );
        assert_eq!(sys.state_count().unwrap(), 2_097_152);
        assert_eq!(sat_and_candidates(&sys, &phi), (512, 512));
    }

    #[test]
    fn normal_form_filters_residuals() {
        // `alpha ≤ beta` reads two objects: a residual table, filtered
        // per candidate; `alpha < 3` narrows alpha's allowed values.
        let sys = copy_sys(4);
        let u = sys.universe();
        let (a, b) = (u.obj("alpha").unwrap(), u.obj("beta").unwrap());
        let phi =
            Phi::expr(Expr::var(a).le(Expr::var(b))).and(Phi::expr(Expr::var(a).lt(Expr::int(3))));
        assert_eq!(sat_and_candidates(&sys, &phi), (4 + 3 + 2, 12));
        // A constant-false conjunct empties Sat(φ).
        let phi = Phi::True.and(Phi::expr(Expr::int(1).lt(Expr::int(0))));
        assert_eq!(sat_and_candidates(&sys, &phi), (0, 16));
    }

    #[test]
    fn normal_form_declines_inexact_conjuncts() {
        let sys = copy_sys(4);
        let u = sys.universe();
        let (a, b) = (u.obj("alpha").unwrap(), u.obj("beta").unwrap());
        let guarded_div = Expr::var(a)
            .ne(Expr::int(0))
            .and(Expr::bin(BinOp::Div, Expr::int(8), Expr::var(a)).gt(Expr::var(b)));
        let pred = Phi::pred("any", |_, _| Ok(true));
        let set = Phi::from_set(Phi::True.sat(&sys).unwrap());
        for phi in [
            // Errors at alpha = 0, a point the guard hides from the scan.
            Phi::expr(guarded_div),
            Phi::expr(Expr::var(a).lt(Expr::int(2))).and(pred),
            Phi::expr(Expr::var(a).lt(Expr::int(2))).and(set),
        ] {
            assert!(NormalForm::lower(&sys, &phi).is_none(), "{phi:?}");
            assert_eq!(
                sat_codes(&sys, &phi).unwrap(),
                sat_codes_scan(&sys, &phi).unwrap()
            );
        }
        // Wider than the table cap: 2^17 points on one conjunct.
        let wide = Universe::new(vec![
            ("p".into(), Domain::int_range(0, 511).unwrap()),
            ("q".into(), Domain::int_range(0, 255).unwrap()),
        ])
        .unwrap();
        let (p, q) = (wide.obj("p").unwrap(), wide.obj("q").unwrap());
        let phi = Phi::expr(Expr::var(p).lt(Expr::var(q)));
        assert!(NormalForm::lower(&System::new(wide, Vec::new()), &phi).is_none());
    }

    #[test]
    fn sinks_after_collects_all_targets() {
        let sys = copy_sys(4);
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let h = History::single(OpId(0));
        let sinks = sinks_after(&sys, &Phi::True, &ObjSet::singleton(a), &h).unwrap();
        // α's variety reaches both α itself (preserved) and β (copied).
        assert!(sinks.contains(a) && sinks.contains(b));
    }
}
