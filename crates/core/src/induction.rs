//! Strong Dependency Induction (chapters 4–6).
//!
//! The induction theorems reduce an all-histories claim `¬A ▷φ β` to
//! per-operation checks:
//!
//! - **Corollary 4-2** (φ autonomous and invariant): either no operation
//!   transmits information out of α, or none transmits information into β.
//! - **Corollary 4-3** (φ autonomous and invariant): if every one-operation
//!   dependency respects a reflexive transitive relation q, every
//!   dependency does — the engine behind the Security Problem (§3.4).
//! - **Corollary 5-6** (φ invariant, possibly non-autonomous): the same
//!   disjunction with set-valued sources and intermediate sets.
//! - **Corollary 6-5** (φ arbitrary): quantify the per-operation checks
//!   over every reachable `[H]φ`.
//!
//! The two per-operation side conditions have linear-time formulations
//! (see DESIGN.md): "differences confined to A stay confined to A" and
//! "no operation creates a new difference at β".
//!
//! Every prover takes a prepared [`Oracle`]: the system compiles once,
//! per-operation checks read the Oracle's successor view (compiled rows,
//! or the interpreter when the Oracle runs interpreted), and the
//! `(constraint set, operation)` check matrix is discharged in parallel. Grouping inside the kernels uses arithmetic
//! projection keys over packed `u64` codes — no `State` is decoded on the
//! hot path.

use crate::certificate::{Certificate, Fact, ProofOutcome};
use crate::classify;
use crate::compiled::par_map_chunks;
use crate::constraint::{Phi, StateSet};
use crate::depend::SatPartition;
use crate::error::Result;
use crate::fastmap::U64Map;
use crate::history::OpId;
use crate::oracle::Oracle;
use crate::state::State;
use crate::system::System;
use crate::universe::{proj_key, ObjId, ObjSet};

/// Kernel behind [`op_confines_diffs`]: checks
/// `∀σ1 =A= σ2 ∈ Sat(φ): δ(σ1) =A= δ(σ2)` over packed codes, grouping by
/// the arithmetic complement-projection key. `succ` supplies δ's successor
/// code (compiled row probe or AST interpretation).
fn confines_kernel(
    dims: &[(u64, u64)],
    a: &ObjSet,
    codes: &[u64],
    succ: &mut dyn FnMut(u64) -> Result<u64>,
) -> Result<bool> {
    let mut groups = U64Map::new();
    for &code in codes {
        let next = succ(code)?;
        let key = code - proj_key(dims, a, code);
        let val = next - proj_key(dims, a, next);
        match groups.get(key) {
            None => {
                groups.insert(key, val);
            }
            Some(prev) => {
                if prev != val {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// Kernel behind [`op_no_new_diff_at`]: checks
/// `∀σ1, σ2 ∈ Sat(φ): σ1.β = σ2.β ⊃ δ(σ1).β = δ(σ2).β` over packed codes.
/// A flat per-β-value table (sentinel `u32::MAX`) replaces the hash map;
/// domains large enough to collide with the sentinel use the map instead.
fn no_new_diff_kernel(
    dims: &[(u64, u64)],
    beta: ObjId,
    codes: &[u64],
    succ: &mut dyn FnMut(u64) -> Result<u64>,
) -> Result<bool> {
    let (stride, dom) = dims[beta.index()];
    if dom >= u32::MAX as u64 {
        let mut seen = U64Map::new();
        for &code in codes {
            let next = succ(code)?;
            let before = (code / stride) % dom;
            let after = (next / stride) % dom;
            match seen.get(before) {
                None => {
                    seen.insert(before, after);
                }
                Some(prev) => {
                    if prev != after {
                        return Ok(false);
                    }
                }
            }
        }
        return Ok(true);
    }
    let mut seen = vec![u32::MAX; dom as usize];
    for &code in codes {
        let next = succ(code)?;
        let before = ((code / stride) % dom) as usize;
        let after = ((next / stride) % dom) as u32;
        if seen[before] == u32::MAX {
            seen[before] = after;
        } else if seen[before] != after {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates `kernel` for every `(constraint set, operation)` pair, in
/// parallel, against the Oracle's successor view. Results are returned in
/// pair order, so callers can replay the sequential first-failure
/// semantics exactly.
fn eval_pairs<K>(
    oracle: &Oracle,
    sat_codes: &[Vec<u64>],
    pairs: &[(usize, usize)],
    kernel: K,
) -> Vec<Result<bool>>
where
    K: Fn(&[u64], &mut dyn FnMut(u64) -> Result<u64>) -> Result<bool> + Sync,
{
    let mut all: Vec<u64> = sat_codes.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    let rows = oracle.successors(&all);
    par_map_chunks(pairs, 1, |chunk| {
        chunk
            .iter()
            .map(|&(si, op)| kernel(&sat_codes[si], &mut |code| rows.step(code, op)))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Per-operation check `∀m: A ▷δφ m ⊃ m ∈ A`, in the linear form
/// `∀σ1 =A= σ2 ∈ Sat(φ): δ(σ1) =A= δ(σ2)`.
pub fn op_confines_diffs(sys: &System, sat: &StateSet, a: &ObjSet, op: OpId) -> Result<bool> {
    let u = sys.universe();
    let dims = u.dims();
    let codes: Vec<u64> = sat.iter().collect();
    confines_kernel(&dims, a, &codes, &mut |code| {
        Ok(sys.apply(op, &State::decode(u, code))?.encode(u))
    })
}

/// [`op_confines_diffs`] against a prepared [`Oracle`], reading its
/// successor view instead of interpreting the operation per state.
pub(crate) fn op_confines_diffs_with(
    oracle: &Oracle,
    sat: &StateSet,
    a: &ObjSet,
    op: OpId,
) -> Result<bool> {
    let dims = oracle.system().universe().dims();
    let codes: Vec<u64> = sat.iter().collect();
    let rows = oracle.successors(&codes);
    confines_kernel(&dims, a, &codes, &mut |code| rows.step(code, op.index()))
}

/// Per-operation check `∀M: M ▷δφ β ⊃ β ∈ M`, in the linear form
/// `∀σ1, σ2 ∈ Sat(φ): σ1.β = σ2.β ⊃ δ(σ1).β = δ(σ2).β`.
pub fn op_no_new_diff_at(sys: &System, sat: &StateSet, beta: ObjId, op: OpId) -> Result<bool> {
    let u = sys.universe();
    let dims = u.dims();
    let codes: Vec<u64> = sat.iter().collect();
    no_new_diff_kernel(&dims, beta, &codes, &mut |code| {
        Ok(sys.apply(op, &State::decode(u, code))?.encode(u))
    })
}

/// [`op_no_new_diff_at`] against a prepared [`Oracle`].
pub(crate) fn op_no_new_diff_at_with(
    oracle: &Oracle,
    sat: &StateSet,
    beta: ObjId,
    op: OpId,
) -> Result<bool> {
    let dims = oracle.system().universe().dims();
    let codes: Vec<u64> = sat.iter().collect();
    let rows = oracle.successors(&codes);
    no_new_diff_kernel(&dims, beta, &codes, &mut |code| rows.step(code, op.index()))
}

fn render_objset(sys: &System, a: &ObjSet) -> String {
    let names: Vec<&str> = a.iter().map(|o| sys.universe().name(o)).collect();
    format!("{{{}}}", names.join(", "))
}

/// Corollary 5-6: for invariant φ and β ∉ A, if no operation spreads
/// differences out of A, or no operation creates a new difference at β,
/// then `¬A ▷φ β`.
///
/// The compile, Sat(φ) enumeration and successor rows are shared with
/// the caller's other queries on `oracle`, and the per-operation checks
/// run in parallel.
pub fn prove_cor_5_6(oracle: &Oracle, phi: &Phi, a: &ObjSet, beta: ObjId) -> Result<ProofOutcome> {
    let sys = oracle.system();
    if a.contains(beta) {
        return Ok(ProofOutcome::Inapplicable("β ∈ A".into()));
    }
    if !classify::is_invariant_with(oracle, phi)? {
        return Ok(ProofOutcome::Inapplicable("φ is not invariant".into()));
    }
    let sat = oracle.sat_set(phi)?;
    let mut cert = Certificate::new(
        "Corollary 5-6",
        format!(
            "¬ {} ▷φ {}",
            render_objset(sys, a),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Invariant);
    match disjunction(oracle, &[sat], a, beta, &mut cert)? {
        Ok(()) => Ok(ProofOutcome::Proved(cert)),
        Err(reason) => Ok(ProofOutcome::Inapplicable(reason)),
    }
}

/// Checks the Cor 5-6 / 6-5 / Thm 6-7 disjunction over a family of
/// satisfying sets, recording the successful branch in `cert`.
///
/// Both branches evaluate their whole `(constraint set, operation)` check
/// matrix in parallel, then replay the results in sequential order so the
/// recorded facts, failure reasons and surfaced errors are identical to
/// the one-check-at-a-time formulation.
fn disjunction(
    oracle: &Oracle,
    sats: &[StateSet],
    a: &ObjSet,
    beta: ObjId,
    cert: &mut Certificate,
) -> Result<core::result::Result<(), String>> {
    let sys = oracle.system();
    let dims = sys.universe().dims();
    let num_ops = sys.num_ops();
    let sat_codes: Vec<Vec<u64>> = sats.iter().map(|s| s.iter().collect()).collect();
    let pairs: Vec<(usize, usize)> = (0..sats.len())
        .flat_map(|si| (0..num_ops).map(move |op| (si, op)))
        .collect();
    // Branch 1: ∀(sat, δ): differences confined to A stay confined.
    let branch1 = eval_pairs(oracle, &sat_codes, &pairs, |codes, succ| {
        confines_kernel(&dims, a, codes, succ)
    });
    let mut confined = true;
    for check in branch1 {
        match check {
            Err(e) => return Err(e),
            Ok(false) => {
                confined = false;
                break;
            }
            Ok(true) => {}
        }
    }
    if confined {
        cert.record(Fact::NoSpreadFrom {
            sources: render_objset(sys, a),
            checks: pairs.len(),
        });
        return Ok(Ok(()));
    }
    // Branch 2: ∀(sat, δ): no new difference at β.
    let branch2 = eval_pairs(oracle, &sat_codes, &pairs, |codes, succ| {
        no_new_diff_kernel(&dims, beta, codes, succ)
    });
    for check in branch2 {
        match check {
            Err(e) => return Err(e),
            Ok(false) => {
                return Ok(Err(format!(
                    "both disjuncts fail: some operation spreads differences out of A \
                     and some operation writes β under {} constraint sets",
                    sats.len()
                )));
            }
            Ok(true) => {}
        }
    }
    cert.record(Fact::NoNewDifferenceAt {
        sink: sys.universe().name(beta).to_string(),
        checks: pairs.len(),
    });
    Ok(Ok(()))
}

/// Corollary 4-2: for autonomous invariant φ and α ≠ β, if either no
/// operation transmits from α to another object, or none transmits into β
/// from another object, then `¬α ▷φ β`.
///
/// # Examples
///
/// ```
/// use sd_core::{examples, induction, Expr, Oracle, Phi};
///
/// let sys = examples::guarded_copy_system(2)?;
/// let u = sys.universe();
/// let (alpha, beta, m) = (u.obj("alpha")?, u.obj("beta")?, u.obj("m")?);
/// let phi = Phi::expr(Expr::var(m).not());
/// let outcome = induction::prove_cor_4_2(&Oracle::new(&sys)?, &phi, alpha, beta)?;
/// let cert = outcome.certificate().expect("φ = ¬m blocks the copy");
/// assert!(cert.conclusion.contains("beta"));
/// # Ok::<(), sd_core::Error>(())
/// ```
pub fn prove_cor_4_2(
    oracle: &Oracle,
    phi: &Phi,
    alpha: ObjId,
    beta: ObjId,
) -> Result<ProofOutcome> {
    let sys = oracle.system();
    if alpha == beta {
        return Ok(ProofOutcome::Inapplicable("α = β".into()));
    }
    if !classify::is_autonomous(sys, phi)? {
        return Ok(ProofOutcome::Inapplicable("φ is not autonomous".into()));
    }
    if !classify::is_invariant_with(oracle, phi)? {
        return Ok(ProofOutcome::Inapplicable("φ is not invariant".into()));
    }
    let sat = oracle.sat_set(phi)?;
    let mut cert = Certificate::new(
        "Corollary 4-2",
        format!(
            "¬ {} ▷φ {}",
            sys.universe().name(alpha),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Autonomous);
    cert.record(Fact::Invariant);
    match disjunction(oracle, &[sat], &ObjSet::singleton(alpha), beta, &mut cert)? {
        Ok(()) => Ok(ProofOutcome::Proved(cert)),
        Err(reason) => Ok(ProofOutcome::Inapplicable(reason)),
    }
}

/// Kernel behind the Cor 4-3 per-operation sweep: the sinks of a
/// single-operation history from source partition `part` — the union over
/// `=A=` classes of the objects at which two successor codes differ.
/// Pairwise diffs reduce to first-vs-rest diffs: if two successors differ
/// at y, at least one differs from the class's first successor at y.
fn op_sinks_kernel(
    dims: &[(u64, u64)],
    part: &SatPartition,
    succ: &mut dyn FnMut(u64) -> Result<u64>,
) -> Result<ObjSet> {
    let mut out = ObjSet::empty();
    for class in part.classes() {
        if class.len() < 2 {
            continue;
        }
        let mut first: Option<u64> = None;
        for &code in class {
            let next = succ(code)?;
            match first {
                None => first = Some(next),
                Some(f) => {
                    if f != next {
                        for (i, &(stride, dom)) in dims.iter().enumerate() {
                            if (f / stride) % dom != (next / stride) % dom {
                                out.insert(ObjId::from_index(i));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Corollary 4-3: for autonomous invariant φ and a reflexive transitive
/// relation q over objects, if every one-operation dependency respects q,
/// then every dependency over every history respects q:
/// `∀x, y: x ▷φ y ⊃ q(x, y)`.
///
/// This is the engine behind Security-Problem style proofs, with
/// `q(x, y) ≡ Cls(x) ≤ Cls(y)`.
///
/// The per-`(operation, source)` sink sets are computed in parallel over
/// the Oracle's successor rows, then checked against q in the sequential
/// sweep order, so the reported first violation is the same as a
/// one-at-a-time sweep's.
pub fn prove_cor_4_3(
    oracle: &Oracle,
    phi: &Phi,
    q: &dyn Fn(ObjId, ObjId) -> bool,
    q_name: &str,
) -> Result<ProofOutcome> {
    let sys = oracle.system();
    if !classify::is_autonomous(sys, phi)? {
        return Ok(ProofOutcome::Inapplicable("φ is not autonomous".into()));
    }
    if !classify::is_invariant_with(oracle, phi)? {
        return Ok(ProofOutcome::Inapplicable("φ is not invariant".into()));
    }
    // q must be reflexive and transitive over the (finite) object universe.
    let objs: Vec<ObjId> = sys.universe().objects().collect();
    for &x in &objs {
        if !q(x, x) {
            return Ok(ProofOutcome::Inapplicable(format!(
                "{q_name} is not reflexive at {}",
                sys.universe().name(x)
            )));
        }
    }
    for &x in &objs {
        for &y in &objs {
            for &z in &objs {
                if q(x, y) && q(y, z) && !q(x, z) {
                    return Ok(ProofOutcome::Inapplicable(format!(
                        "{q_name} is not transitive at ({}, {}, {})",
                        sys.universe().name(x),
                        sys.universe().name(y),
                        sys.universe().name(z)
                    )));
                }
            }
        }
    }
    // Per-operation: x ▷δφ y ⊃ q(x, y), via the single-history sink set.
    // Sink sets for every (op, x) pair are computed in parallel; q itself
    // (an opaque, possibly non-Sync closure) is applied afterwards in
    // sweep order.
    let u = sys.universe();
    let dims = u.dims();
    let parts: Vec<SatPartition> = objs
        .iter()
        .map(|&x| oracle.partition(phi, &ObjSet::singleton(x)))
        .collect::<Result<_>>()?;
    let pairs: Vec<(usize, usize)> = (0..sys.num_ops())
        .flat_map(|op| (0..objs.len()).map(move |xi| (op, xi)))
        .collect();
    // The view is dropped before q runs: q is the caller's closure.
    let sinks: Vec<Result<ObjSet>> = {
        let rows = oracle.successors(&oracle.sat_codes(phi)?);
        par_map_chunks(&pairs, 1, |chunk| {
            chunk
                .iter()
                .map(|&(op, xi)| {
                    op_sinks_kernel(&dims, &parts[xi], &mut |code| rows.step(code, op))
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    for (&(op, xi), sinks) in pairs.iter().zip(sinks) {
        let x = objs[xi];
        for y in sinks?.iter() {
            if !q(x, y) {
                return Ok(ProofOutcome::Inapplicable(format!(
                    "operation δ{op} transmits {} ▷ {} violating {q_name}",
                    sys.universe().name(x),
                    sys.universe().name(y)
                )));
            }
        }
    }
    let mut cert = Certificate::new("Corollary 4-3", format!("∀x, y: x ▷φ y ⊃ {q_name}(x, y)"));
    cert.record(Fact::Autonomous);
    cert.record(Fact::Invariant);
    cert.record(Fact::ReflexiveTransitive(q_name.to_string()));
    cert.record(Fact::RelationRespected {
        relation: q_name.to_string(),
        checks: pairs.len(),
    });
    Ok(ProofOutcome::Proved(cert))
}

/// Corollary 6-5: for arbitrary (possibly non-invariant) φ and β ∉ A,
/// the Cor 5-6 disjunction checked over *every* reachable `[H]φ` proves
/// `¬A ▷φ β`. Image enumeration and the disjunction over all images
/// share the Oracle's one compile.
pub fn prove_cor_6_5(oracle: &Oracle, phi: &Phi, a: &ObjSet, beta: ObjId) -> Result<ProofOutcome> {
    let sys = oracle.system();
    if a.contains(beta) {
        return Ok(ProofOutcome::Inapplicable("β ∈ A".into()));
    }
    let images = crate::after::reachable_images(oracle, phi)?;
    let mut cert = Certificate::new(
        "Corollary 6-5",
        format!(
            "¬ {} ▷φ {}",
            render_objset(sys, a),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Note(format!(
        "{} reachable [H]φ constraint sets enumerated",
        images.len()
    )));
    match disjunction(oracle, &images, a, beta, &mut cert)? {
        Ok(()) => Ok(ProofOutcome::Proved(cert)),
        Err(reason) => Ok(ProofOutcome::Inapplicable(reason)),
    }
}

/// Theorem 4-1 as a runtime check (for tests): for autonomous invariant φ,
/// `α ▷φ(H·H′) β ⊃ ∃m: α ▷φH m ∧ m ▷φH′ β`, verified over all splits of
/// all histories up to `max_len`.
pub fn check_theorem_4_1(
    sys: &System,
    phi: &Phi,
    alpha: ObjId,
    beta: ObjId,
    max_len: usize,
) -> Result<bool> {
    for h in crate::history::histories_up_to(sys.num_ops(), max_len) {
        let full =
            crate::depend::strongly_depends_after(sys, phi, &ObjSet::singleton(alpha), beta, &h)?;
        if full.is_none() {
            continue;
        }
        for split in 0..=h.len() {
            let (h1, h2) = h.split_at(split);
            let mut found = false;
            for m in sys.universe().objects() {
                let first = crate::depend::strongly_depends_after(
                    sys,
                    phi,
                    &ObjSet::singleton(alpha),
                    m,
                    &h1,
                )?;
                if first.is_none() {
                    continue;
                }
                let second = crate::depend::strongly_depends_after(
                    sys,
                    phi,
                    &ObjSet::singleton(m),
                    beta,
                    &h2,
                )?;
                if second.is_some() {
                    found = true;
                    break;
                }
            }
            if !found {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Theorem 5-5 as a runtime check (for tests): for invariant φ, with
/// `M = { m | H(σ1).m ≠ H(σ2).m }`,
/// `σ1 (A ▷HH′ β) σ2  ⟺  σ1 (A ▷H M) σ2 ∧ H(σ1) (M ▷H′ β) H(σ2)`,
/// verified pointwise over all φ-pairs and all splits of histories up to
/// `max_len`.
pub fn check_theorem_5_5(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    beta: ObjId,
    max_len: usize,
) -> Result<bool> {
    for h in crate::history::histories_up_to(sys.num_ops(), max_len) {
        for split in 0..=h.len() {
            let (h1, h2) = h.split_at(split);
            for class in crate::depend::classes(sys, phi, a)? {
                for i in 0..class.len() {
                    for j in (i + 1)..class.len() {
                        let s1 = &class[i];
                        let s2 = &class[j];
                        let m1 = sys.run(s1, &h1)?;
                        let m2 = sys.run(s2, &h1)?;
                        let m_set = m1.diff(&m2);
                        // Left side: β differs after the full history.
                        let lhs = sys.run(&m1, &h2)?.index(beta) != sys.run(&m2, &h2)?.index(beta);
                        // Right side: the mid states differ exactly at M
                        // (true by construction) and continue to differ at
                        // β over h2.
                        let rhs = if m_set.is_empty() {
                            false
                        } else {
                            sys.run(&m1, &h2)?.index(beta) != sys.run(&m2, &h2)?.index(beta)
                        };
                        if lhs != rhs {
                            return Ok(false);
                        }
                        // And the decomposed pair relations hold when the
                        // left side does: σ1 (A ▷h1 M) σ2 means the runs
                        // differ at every m ∈ M — immediate from the
                        // definition of M, but check it anyway.
                        if lhs {
                            for m in m_set.iter() {
                                if m1.index(m) == m2.index(m) {
                                    return Ok(false);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(true)
}

/// Theorem 6-3 as a runtime check (for tests): for any φ,
/// `A ▷φHH′ β ⊃ ∃M: A ▷φH M ∧ M ▷[H]φH′ β` — the intermediate step is
/// taken under the *evolved* constraint `[H]φ`.
pub fn check_theorem_6_3(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    beta: ObjId,
    max_len: usize,
) -> Result<bool> {
    for h in crate::history::histories_up_to(sys.num_ops(), max_len) {
        for split in 0..=h.len() {
            let (h1, h2) = h.split_at(split);
            let full = crate::depend::strongly_depends_after(sys, phi, a, beta, &h)?;
            let Some(w) = full else { continue };
            // Take M as the difference set of the mid states of the
            // witness pair; Thm 6-4 says this particular M works.
            let m1 = sys.run(&w.sigma1, &h1)?;
            let m2 = sys.run(&w.sigma2, &h1)?;
            let m_set = m1.diff(&m2);
            if m_set.is_empty() {
                return Ok(false);
            }
            // A ▷φh1 M: the witness pair differs at every member of M.
            let fan = crate::depend::strongly_depends_set_after(sys, phi, a, &m_set, &h1)?;
            if fan.is_none() {
                return Ok(false);
            }
            // M ▷[h1]φ h2 β: the mid pair lies in [h1]φ and leads to a β
            // difference.
            let evolved = crate::after::after_history_phi(sys, phi, &h1)?;
            let cont = crate::depend::strongly_depends_after(sys, &evolved, &m_set, beta, &h2)?;
            if cont.is_none() {
                return Ok(false);
            }
        }
    }
    Ok(true)
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

    /// δ: if m then β ← α, from §3.2.
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
    fn cor_4_2_proves_guarded_copy_blocked() {
        // φ(σ) ≡ ¬σ.m is autonomous and invariant (δ never writes m); no
        // operation then writes β, so ¬α ▷φ β.
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).not());
        let out = prove_cor_4_2(&Oracle::new(&sys).unwrap(), &phi, a, b).unwrap();
        let cert = out.certificate().expect("should prove");
        assert!(cert.facts.contains(&Fact::Autonomous));
        // Cross-check against the exact oracle.
        assert!(exact_depends(&sys, &phi, &ObjSet::singleton(a), b).is_none());
    }

    #[test]
    fn cor_4_2_inapplicable_when_flow_exists() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let out = prove_cor_4_2(&Oracle::new(&sys).unwrap(), &Phi::True, a, b).unwrap();
        assert!(!out.is_proved());
        // And indeed the flow exists.
        assert!(exact_depends(&sys, &Phi::True, &ObjSet::singleton(a), b).is_some());
    }

    #[test]
    fn cor_4_2_rejects_non_autonomous_phi() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let phi = Phi::expr(Expr::var(a).eq(Expr::var(b)));
        let out = prove_cor_4_2(&Oracle::new(&sys).unwrap(), &phi, a, b).unwrap();
        assert_eq!(out.reason(), Some("φ is not autonomous"));
    }

    #[test]
    fn cor_5_6_handles_non_autonomous_invariant_phi() {
        // §5.5 system: δ1: (m1 ← α; m2 ← α); δ2: β ← m1, with the
        // invariant non-autonomous φ(σ) ≡ σ.m1 = σ.m2.
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("m1".into(), Domain::int_range(0, 1).unwrap()),
            ("m2".into(), Domain::int_range(0, 1).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m1 = u.obj("m1").unwrap();
        let m2 = u.obj("m2").unwrap();
        let sys = System::new(
            u,
            vec![
                Op::from_cmd(
                    "d1",
                    Cmd::Seq(vec![
                        Cmd::assign(m1, Expr::var(a)),
                        Cmd::assign(m2, Expr::var(a)),
                    ]),
                ),
                Op::from_cmd("d2", Cmd::assign(b, Expr::var(m1))),
            ],
        );
        let phi = Phi::expr(Expr::var(m1).eq(Expr::var(m2)));
        assert!(classify::is_invariant(&sys, &phi).unwrap());
        assert!(!classify::is_autonomous(&sys, &phi).unwrap());
        // β does flow from α here, so the proof must fail…
        let oracle = Oracle::new(&sys).unwrap();
        let out = prove_cor_5_6(&oracle, &phi, &ObjSet::singleton(a), b).unwrap();
        assert!(!out.is_proved());
        // …but {β} is genuinely isolated as a source: nothing reads β.
        let out2 = prove_cor_5_6(&oracle, &phi, &ObjSet::singleton(b), m1).unwrap();
        assert!(out2.is_proved(), "{:?}", out2.reason());
        assert!(exact_depends(&sys, &phi, &ObjSet::singleton(b), m1).is_none());
    }

    #[test]
    fn cor_5_6_requires_beta_not_in_a() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        let out = prove_cor_5_6(&oracle, &Phi::True, &ObjSet::singleton(a), a).unwrap();
        assert_eq!(out.reason(), Some("β ∈ A"));
    }

    #[test]
    fn cor_4_3_with_chain_relation() {
        // In the guarded-copy system with φ ≡ ¬m, the relation
        // q(x, y) = (x = y) ∨ (y = beta) is respected trivially since no op
        // moves information; a more meaningful use is in examples::pointer.
        let sys = guarded_copy();
        let u = sys.universe();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).not());
        let q = |x: ObjId, y: ObjId| x == y;
        let out = prove_cor_4_3(&Oracle::new(&sys).unwrap(), &phi, &q, "identity").unwrap();
        assert!(out.is_proved(), "{:?}", out.reason());
    }

    #[test]
    fn cor_4_3_rejects_non_transitive_relation() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).not());
        // q relating a→b and b→m but not a→m is not transitive.
        let q = move |x: ObjId, y: ObjId| x == y || (x == a && y == b) || (x == b && y == m);
        let out = prove_cor_4_3(&Oracle::new(&sys).unwrap(), &phi, &q, "broken").unwrap();
        assert!(out.reason().unwrap().contains("not transitive"));
    }

    #[test]
    fn cor_6_5_handles_non_invariant_phi() {
        // §6.4 oscillator: δ: (β ← α; α ← -α), φ(σ) ≡ σ.α = 37.
        // φ is not invariant, but every [H]φ pins α to a constant, so no
        // information flows from α to β.
        let u = Universe::new(vec![
            ("alpha".into(), Domain::ints([-37, 37]).unwrap()),
            ("beta".into(), Domain::ints([-37, 0, 37]).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "osc",
                Cmd::Seq(vec![
                    Cmd::assign(b, Expr::var(a)),
                    Cmd::assign(a, Expr::var(a).neg()),
                ]),
            )],
        );
        let phi = Phi::expr(Expr::var(a).eq(Expr::int(37)));
        assert!(!classify::is_invariant(&sys, &phi).unwrap());
        let oracle = Oracle::new(&sys).unwrap();
        let out = prove_cor_6_5(&oracle, &phi, &ObjSet::singleton(a), b).unwrap();
        assert!(out.is_proved(), "{:?}", out.reason());
        assert!(exact_depends(&sys, &phi, &ObjSet::singleton(a), b).is_none());
        // Cor 5-6 is inapplicable here (φ not invariant).
        let weak = prove_cor_5_6(&oracle, &phi, &ObjSet::singleton(a), b).unwrap();
        assert!(!weak.is_proved());
    }

    #[test]
    fn theorem_4_1_holds_on_guarded_copy() {
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).not());
        assert!(check_theorem_4_1(&sys, &phi, a, b, 3).unwrap());
        assert!(check_theorem_4_1(&sys, &Phi::True, a, b, 3).unwrap());
    }

    #[test]
    fn shared_oracle_provers_match_fresh_oracles() {
        // One Oracle discharging all four provers must compile exactly
        // once and agree with a fresh Oracle per call.
        let sys = guarded_copy();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let phi = Phi::expr(Expr::var(m).not());
        let oracle = Oracle::new(&sys).unwrap();
        let shared = [
            prove_cor_4_2(&oracle, &phi, a, b).unwrap(),
            prove_cor_5_6(&oracle, &phi, &ObjSet::singleton(a), b).unwrap(),
            prove_cor_6_5(&oracle, &phi, &ObjSet::singleton(a), b).unwrap(),
            prove_cor_4_3(&oracle, &phi, &|x, y| x == y, "identity").unwrap(),
        ];
        let fresh = || Oracle::new(&sys).unwrap();
        let free = [
            prove_cor_4_2(&fresh(), &phi, a, b).unwrap(),
            prove_cor_5_6(&fresh(), &phi, &ObjSet::singleton(a), b).unwrap(),
            prove_cor_6_5(&fresh(), &phi, &ObjSet::singleton(a), b).unwrap(),
            prove_cor_4_3(&fresh(), &phi, &|x, y| x == y, "identity").unwrap(),
        ];
        for (s, f) in shared.iter().zip(&free) {
            assert_eq!(s.is_proved(), f.is_proved());
            assert_eq!(
                s.certificate().map(|c| &c.facts),
                f.certificate().map(|c| &c.facts)
            );
        }
        assert_eq!(oracle.stats().compiles, 1);
    }
}
