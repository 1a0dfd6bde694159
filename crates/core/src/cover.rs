//! Separation of Variety (§4.5, Thm 4-5) and inductive covers (§6.4,
//! Def 6-2, Thm 6-7).
//!
//! Strong dependency is not transitive (§4.4), so plain induction can get
//! stuck. Separation of Variety splits the state space along an
//! A-*independent* cover `{φi}`: if `¬A ▷(φ∧φi) β` for every piece, then
//! `¬A ▷φ β`. Inductive covers generalize invariance: a family `{φi}` such
//! that every `[H]φ` is contained in some `φi` lets the per-operation
//! induction checks be discharged piecewise — this is exactly how Floyd
//! assertions enter in §6.5.

use crate::certificate::{Certificate, Fact, ProofOutcome};
use crate::classify;
use crate::compiled::par_map_chunks;
use crate::constraint::{Phi, StateSet};
use crate::error::Result;
use crate::oracle::Oracle;
use crate::reach::SearchLimits;
use crate::system::System;
use crate::universe::{ObjId, ObjSet};

/// Whether `{φi}` is an A-independent cover (Def 4-1): each φi is
/// A-independent, and together they cover Σ.
pub fn is_independent_cover(sys: &System, phis: &[Phi], a: &ObjSet) -> Result<bool> {
    for phi in phis {
        if !classify::is_independent(sys, phi, a)? {
            return Ok(false);
        }
    }
    let n = sys.state_count()?;
    let mut union = StateSet::new(n);
    for phi in phis {
        union.union_with(&phi.sat(sys)?);
    }
    Ok(union.count() == n)
}

/// The strategy used to discharge each piece of a Separation-of-Variety
/// proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PieceStrategy {
    /// Decide `¬A ▷(φ∧φi) β` exactly with the pair-reachability BFS.
    ExactBfs,
    /// Prove each piece with Corollary 5-6 (requires each φ∧φi invariant).
    Cor56,
    /// Prove each piece with Corollary 6-5 (handles non-invariant pieces).
    Cor65,
}

/// Theorem 4-5 as a proof technique: given an A-independent cover `{φi}`,
/// if `¬A ▷(φ∧φi) β` for every i, then `¬A ▷φ β`.
///
/// The pieces are discharged in parallel against the shared [`Oracle`],
/// then merged in piece order so the reported first failure (and the
/// recorded sub-certificates) are identical to a sequential sweep.
pub fn prove_separation_of_variety(
    oracle: &Oracle,
    phi: &Phi,
    cover: &[Phi],
    a: &ObjSet,
    beta: ObjId,
    strategy: PieceStrategy,
) -> Result<ProofOutcome> {
    let sys = oracle.system();
    if cover.is_empty() {
        return Ok(ProofOutcome::Inapplicable("empty cover".into()));
    }
    for (i, piece) in cover.iter().enumerate() {
        if !classify::is_independent(sys, piece, a)? {
            return Ok(ProofOutcome::Inapplicable(format!(
                "cover element {i} is not A-independent"
            )));
        }
    }
    let n = sys.state_count()?;
    let mut union = StateSet::new(n);
    for piece in cover {
        union.union_with(&piece.sat(sys)?);
    }
    if union.count() != n {
        return Ok(ProofOutcome::Inapplicable(
            "cover does not cover the state space".into(),
        ));
    }
    let a_names: Vec<&str> = a.iter().map(|o| sys.universe().name(o)).collect();
    let mut cert = Certificate::new(
        "Theorem 4-5 (Separation of Variety)",
        format!(
            "¬ {{{}}} ▷φ {}",
            a_names.join(", "),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Independent(format!("{{{}}}", a_names.join(", "))));
    cert.record(Fact::CoversStateSpace(cover.len()));
    // Each piece proof is independent of the others, so run them in
    // parallel against the shared Oracle and replay the outcomes in piece
    // order (first failure wins, exactly as the sequential loop reported).
    let indices: Vec<usize> = (0..cover.len()).collect();
    let outcomes: Vec<Result<std::result::Result<Certificate, String>>> =
        par_map_chunks(&indices, 1, |chunk| {
            chunk
                .iter()
                .map(|&i| -> Result<std::result::Result<Certificate, String>> {
                    let conj = phi.clone().and(cover[i].clone());
                    match strategy {
                        PieceStrategy::ExactBfs => {
                            let part = oracle.partition(&conj, a)?;
                            let (witness, _) = oracle.depends_partition(
                                &part,
                                beta,
                                &SearchLimits::NONE,
                                u32::MAX,
                                oracle.sink_ref(),
                            )?;
                            if witness.is_some() {
                                return Ok(Err(format!(
                                    "piece {i}: A ▷(φ∧φ{i}) β holds — no proof possible"
                                )));
                            }
                            let mut c = Certificate::new(
                                "exact pair reachability",
                                format!("¬ A ▷(φ∧φ{i}) β"),
                            );
                            c.record(Fact::Note("pair-BFS exhausted with no β-difference".into()));
                            Ok(Ok(c))
                        }
                        PieceStrategy::Cor56 => {
                            match crate::induction::prove_cor_5_6(oracle, &conj, a, beta)? {
                                ProofOutcome::Proved(c) => Ok(Ok(c)),
                                ProofOutcome::Inapplicable(r) => {
                                    Ok(Err(format!("piece {i}: Corollary 5-6 failed: {r}")))
                                }
                            }
                        }
                        PieceStrategy::Cor65 => {
                            match crate::induction::prove_cor_6_5(oracle, &conj, a, beta)? {
                                ProofOutcome::Proved(c) => Ok(Ok(c)),
                                ProofOutcome::Inapplicable(r) => {
                                    Ok(Err(format!("piece {i}: Corollary 6-5 failed: {r}")))
                                }
                            }
                        }
                    }
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    for outcome in outcomes {
        match outcome? {
            Ok(sub) => {
                cert.record(Fact::SubProof(Box::new(sub)));
            }
            Err(reason) => return Ok(ProofOutcome::Inapplicable(reason)),
        }
    }
    Ok(ProofOutcome::Proved(cert))
}

/// Whether `{φi}` is an inductive cover for φ (Def 6-2): every reachable
/// `[H]φ` is contained in some φi. Exact, via image-set enumeration over
/// the Oracle's successor rows.
pub fn is_inductive_cover(oracle: &Oracle, phi: &Phi, cover: &[Phi]) -> Result<bool> {
    let sys = oracle.system();
    let sats: Vec<StateSet> = cover.iter().map(|p| p.sat(sys)).collect::<Result<_>>()?;
    for image in crate::after::reachable_images(oracle, phi)? {
        if !sats.iter().any(|s| image.is_subset(s)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A sufficient one-step condition for Def 6-2: Sat(φ) ⊆ some φi, and for
/// every i and δ, δ(Sat(φi)) ⊆ some φj. Cheaper than the exact check and
/// matches how Floyd-style covers are justified in §6.5.
pub fn is_inductive_cover_one_step(sys: &System, phi: &Phi, cover: &[Phi]) -> Result<bool> {
    let sats: Vec<StateSet> = cover.iter().map(|p| p.sat(sys)).collect::<Result<_>>()?;
    let start = phi.sat(sys)?;
    if !sats.iter().any(|s| start.is_subset(s)) {
        return Ok(false);
    }
    for sat in &sats {
        for op in sys.op_ids() {
            let img = crate::after::image_op(sys, sat, op)?;
            if !sats.iter().any(|s| img.is_subset(s)) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Theorem 6-7 as a proof technique: if `{φi}` is an inductive cover for φ
/// and, globally, either no operation spreads differences out of A under
/// any φi, or no operation creates a new difference at β under any φi,
/// then `¬A ▷φ β`.
///
/// The Def 6-2 image enumeration and every per-operation disjunct check
/// run over the Oracle's successor rows.
pub fn prove_inductive_cover(
    oracle: &Oracle,
    phi: &Phi,
    cover: &[Phi],
    a: &ObjSet,
    beta: ObjId,
) -> Result<ProofOutcome> {
    let sys = oracle.system();
    if a.contains(beta) {
        return Ok(ProofOutcome::Inapplicable("β ∈ A".into()));
    }
    if !is_inductive_cover(oracle, phi, cover)? {
        return Ok(ProofOutcome::Inapplicable(
            "{φi} is not an inductive cover for φ (Def 6-2)".into(),
        ));
    }
    let sats: Vec<StateSet> = cover.iter().map(|p| p.sat(sys)).collect::<Result<_>>()?;
    let a_names: Vec<&str> = a.iter().map(|o| sys.universe().name(o)).collect();
    let mut cert = Certificate::new(
        "Theorem 6-7 (inductive cover)",
        format!(
            "¬ {{{}}} ▷φ {}",
            a_names.join(", "),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::InductiveCover(cover.len()));
    // Branch 1: ∀(i, δ): differences confined to A stay confined.
    let mut checks = 0;
    let mut branch1 = true;
    'b1: for sat in &sats {
        for op in sys.op_ids() {
            checks += 1;
            if !crate::induction::op_confines_diffs_with(oracle, sat, a, op)? {
                branch1 = false;
                break 'b1;
            }
        }
    }
    if branch1 {
        cert.record(Fact::NoSpreadFrom {
            sources: format!("{{{}}}", a_names.join(", ")),
            checks,
        });
        return Ok(ProofOutcome::Proved(cert));
    }
    // Branch 2: ∀(i, δ): no new difference at β.
    let mut checks = 0;
    for sat in &sats {
        for op in sys.op_ids() {
            checks += 1;
            if !crate::induction::op_no_new_diff_at_with(oracle, sat, beta, op)? {
                return Ok(ProofOutcome::Inapplicable(
                    "both Theorem 6-7 disjuncts fail over the cover".into(),
                ));
            }
        }
    }
    cert.record(Fact::NoNewDifferenceAt {
        sink: sys.universe().name(beta).to_string(),
        checks,
    });
    Ok(ProofOutcome::Proved(cert))
}

/// Theorem 4-5 as a runtime check (for tests): if `{φi}` is an
/// A-independent cover and `A ▷φ β`, then `A ▷(φ∧φi) β` for some i.
pub fn check_theorem_4_5(
    sys: &System,
    phi: &Phi,
    cover: &[Phi],
    a: &ObjSet,
    beta: ObjId,
) -> Result<bool> {
    if !is_independent_cover(sys, cover, a)? {
        // Vacuously true: the theorem's premise fails.
        return Ok(true);
    }
    if !crate::query::Query::new(phi.clone(), a.clone())
        .beta(beta)
        .run_on(sys)?
        .holds()
    {
        return Ok(true);
    }
    for piece in cover {
        let conj = phi.clone().and(piece.clone());
        if crate::query::Query::new(conj, a.clone())
            .beta(beta)
            .run_on(sys)?
            .holds()
        {
            return Ok(true);
        }
    }
    Ok(false)
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

    /// Separation of Variety under φ = tt, each piece decided exactly.
    fn sov_exact(sys: &System, cover: &[Phi], a: &ObjSet, beta: ObjId) -> ProofOutcome {
        let oracle = Oracle::new(sys).unwrap();
        prove_separation_of_variety(&oracle, &Phi::True, cover, a, beta, PieceStrategy::ExactBfs)
            .unwrap()
    }

    /// The §4.4/§4.6 non-transitive system:
    /// δ1: if q then m ← α; δ2: if ¬q then β ← m.
    fn nontransitive() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("m".into(), Domain::int_range(0, 1).unwrap()),
            ("q".into(), Domain::boolean()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let q = u.obj("q").unwrap();
        System::new(
            u,
            vec![
                Op::from_cmd("d1", Cmd::when(Expr::var(q), Cmd::assign(m, Expr::var(a)))),
                Op::from_cmd(
                    "d2",
                    Cmd::when(Expr::var(q).not(), Cmd::assign(b, Expr::var(m))),
                ),
            ],
        )
    }

    #[test]
    fn separation_of_variety_sec_4_6() {
        // With the α-independent cover {q, ¬q}, Separation of Variety
        // proves ¬α ▷ β even though ▷ is non-transitive here.
        let sys = nontransitive();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let q = u.obj("q").unwrap();
        let cover = vec![Phi::expr(Expr::var(q)), Phi::expr(Expr::var(q).not())];
        let src = ObjSet::singleton(a);
        assert!(is_independent_cover(&sys, &cover, &src).unwrap());
        let out = sov_exact(&sys, &cover, &src, b);
        assert!(out.is_proved(), "{:?}", out.reason());
        // Exact oracle agrees.
        assert!(exact_depends(&sys, &Phi::True, &src, b).is_none());
    }

    #[test]
    fn cover_on_wrong_object_fails_sec_4_5() {
        // Splitting on m instead of q leaves the flow alive in the system
        // δ: if m then β ← α. Under φ1 (m = tt) the flow persists.
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 1).unwrap()),
            ("beta".into(), Domain::int_range(0, 1).unwrap()),
            ("m".into(), Domain::boolean()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "copy",
                Cmd::when(Expr::var(m), Cmd::assign(b, Expr::var(a))),
            )],
        );
        let cover = vec![Phi::expr(Expr::var(m)), Phi::expr(Expr::var(m).not())];
        let src = ObjSet::singleton(a);
        let out = sov_exact(&sys, &cover, &src, b);
        assert!(!out.is_proved());
        assert!(out.reason().unwrap().contains("piece 0"));
        // The m = ff piece on its own does block the flow (paper's point:
        // one piece blocks, the other does not).
        let phi2 = Phi::expr(Expr::var(m).not());
        assert!(exact_depends(&sys, &phi2, &src, b).is_none());
    }

    #[test]
    fn non_independent_cover_rejected() {
        let sys = nontransitive();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        // Splitting on α itself is not α-independent.
        let cover = vec![
            Phi::expr(Expr::var(a).eq(Expr::int(0))),
            Phi::expr(Expr::var(a).eq(Expr::int(1))),
        ];
        let src = ObjSet::singleton(a);
        assert!(!is_independent_cover(&sys, &cover, &src).unwrap());
        let out = sov_exact(&sys, &cover, &src, b);
        assert!(out.reason().unwrap().contains("not A-independent"));
    }

    #[test]
    fn incomplete_cover_rejected() {
        let sys = nontransitive();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let q = u.obj("q").unwrap();
        let cover = vec![Phi::expr(Expr::var(q))];
        let out = sov_exact(&sys, &cover, &ObjSet::singleton(a), b);
        assert!(out.reason().unwrap().contains("does not cover"));
    }

    #[test]
    fn oscillator_inductive_cover_sec_6_4() {
        // δ: (β ← α; α ← -α), φ(σ) ≡ σ.α = 37. The cover
        // {α = 37, α = -37} is inductive, and Theorem 6-7 proves ¬α ▷φ β.
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
        let cover = vec![
            Phi::expr(Expr::var(a).eq(Expr::int(37))),
            Phi::expr(Expr::var(a).eq(Expr::int(-37))),
        ];
        let oracle = Oracle::new(&sys).unwrap();
        assert!(is_inductive_cover(&oracle, &phi, &cover).unwrap());
        assert!(is_inductive_cover_one_step(&sys, &phi, &cover).unwrap());
        let out = prove_inductive_cover(&oracle, &phi, &cover, &ObjSet::singleton(a), b).unwrap();
        assert!(out.is_proved(), "{:?}", out.reason());
        assert!(exact_depends(&sys, &phi, &ObjSet::singleton(a), b).is_none());

        // The paper's "retreat to invariance" fails: the most restrictive
        // invariant φ* ⊇ φ is α = ±37, and under it the flow exists.
        let phi_star = Phi::expr(
            Expr::var(a)
                .eq(Expr::int(37))
                .or(Expr::var(a).eq(Expr::int(-37))),
        );
        assert!(crate::classify::is_invariant(&sys, &phi_star).unwrap());
        assert!(exact_depends(&sys, &phi_star, &ObjSet::singleton(a), b).is_some());
    }

    #[test]
    fn non_cover_detected() {
        let sys = nontransitive();
        let u = sys.universe();
        let q = u.obj("q").unwrap();
        // {q} alone is not an inductive cover for tt (misses ¬q states).
        let cover = vec![Phi::expr(Expr::var(q))];
        assert!(!is_inductive_cover(&Oracle::new(&sys).unwrap(), &Phi::True, &cover).unwrap());
        assert!(!is_inductive_cover_one_step(&sys, &Phi::True, &cover).unwrap());
    }

    #[test]
    fn theorem_4_5_property() {
        let sys = nontransitive();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let q = u.obj("q").unwrap();
        let cover = vec![Phi::expr(Expr::var(q)), Phi::expr(Expr::var(q).not())];
        // Check the theorem for several source/sink combinations.
        for (src, sink) in [(a, b), (a, m), (m, b), (q, b)] {
            assert!(
                check_theorem_4_5(&sys, &Phi::True, &cover, &ObjSet::singleton(src), sink).unwrap()
            );
        }
    }
}
