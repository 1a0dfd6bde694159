//! Per-operation flow relations and their transitive composition (§1.5).
//!
//! [Denning 75] and [Case 74] sidestep implicit-flow subtleties by
//! *disregarding the state* in which an operation executes: information
//! flows `α -(δ)-> β` as long as **some** state exhibits the transmission,
//! and flow over histories is defined by assuming transitivity:
//!
//! ```text
//! α -(λ)-> β  ⇔  α = β
//! α -(Hδ)-> β ⇔  ∃m: α -(H)-> m ∧ m -(δ)-> β
//! ```
//!
//! The paper derives the per-operation relation from the operation's
//! *semantics* (as it advocates in §1.5): `α -(δ)-> β` is exactly
//! single-operation strong dependency with φ = tt. The union over all
//! histories is then the reflexive-transitive closure of the per-operation
//! union. This module computes both, giving the machine-checkable baseline
//! for the paper's precision comparison (§4.4).

use std::collections::BTreeSet;

use sd_core::{ObjId, ObjSet, OpId, Phi, Result, System};

/// A relation over objects.
pub type Relation = BTreeSet<(ObjId, ObjId)>;

/// The per-operation flow relation `α -(δ)-> β`, derived semantically:
/// there exists a state pair differing only at α for which δ's outputs
/// differ at β (strong dependency after the single-op history, φ = tt):
/// [`crate::millen::op_flow_relation_under`] with φ = tt.
pub fn op_flow_relation(sys: &System, op: OpId) -> Result<Relation> {
    crate::millen::op_flow_relation_under(sys, &Phi::True, op)
}

/// The transitive flow relation over all histories:
/// `⋃_H Rel(H)` = the reflexive-transitive closure of `⋃_δ Rel(δ)`.
pub fn transitive_flows(sys: &System) -> Result<Relation> {
    let n = sys.universe().num_objects();
    let mut reach = vec![vec![false; n]; n];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    for op in sys.op_ids() {
        for (a, b) in op_flow_relation(sys, op)? {
            reach[a.index()][b.index()] = true;
        }
    }
    for k in 0..n {
        // Row k is stable during iteration k (reach[k][j] |= reach[k][k] &&
        // reach[k][j] changes nothing), so a snapshot is exact.
        let row_k = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (j, &via_k) in row_k.iter().enumerate() {
                    if via_k {
                        row[j] = true;
                    }
                }
            }
        }
    }
    let mut out = Relation::new();
    for (i, row) in reach.iter().enumerate() {
        for (j, &connected) in row.iter().enumerate() {
            if connected {
                out.insert((ObjId::from_index(i), ObjId::from_index(j)));
            }
        }
    }
    Ok(out)
}

/// The exact semantic flow relation `{(α, β) | α ▷φ β}` via pair
/// reachability (one sweep per source object).
pub fn semantic_flows(sys: &System, phi: &Phi) -> Result<Relation> {
    // One compile + a batched row sweep over all sources, rather than a
    // fresh per-source search for every α.
    let sources: Vec<ObjSet> = sys.universe().objects().map(ObjSet::singleton).collect();
    let rows = sd_core::Query::matrix(phi.clone(), sources)
        .run_on(sys)?
        .into_rows()
        .expect("a matrix query returns rows");
    let mut out = Relation::new();
    for (alpha, sinks) in sys.universe().objects().zip(rows) {
        for beta in sinks.iter() {
            out.insert((alpha, beta));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_core::examples;

    #[test]
    fn per_op_relation_matches_semantics() {
        // δ: if m then β ← α: flows α→β, m→β, plus every preserved object
        // reflexively.
        let sys = examples::guarded_copy_system(2).unwrap();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let rel = op_flow_relation(&sys, OpId(0)).unwrap();
        assert!(rel.contains(&(a, b)));
        assert!(rel.contains(&(m, b)));
        assert!(rel.contains(&(a, a)) && rel.contains(&(m, m)));
        // β is (conditionally) overwritten but persists when m = ff.
        assert!(rel.contains(&(b, b)));
        assert!(!rel.contains(&(b, a)));
    }

    #[test]
    fn overwritten_object_not_reflexive() {
        // δ: β ← α: β's own variety is always destroyed, so (β, β) is NOT
        // in the per-op relation (§2.5's reflexivity discussion).
        let sys = examples::copy_system(3).unwrap();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        let rel = op_flow_relation(&sys, OpId(0)).unwrap();
        assert!(!rel.contains(&(b, b)));
    }

    #[test]
    fn transitive_baseline_overapproximates_sec_4_4() {
        // δ1: if q then m ← α; δ2: if ¬q then β ← m.
        // The transitive baseline reports α → β (via m); the semantic
        // relation does not — the paper's headline precision gap.
        let sys = examples::nontransitive_system(2).unwrap();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let m = u.obj("m").unwrap();
        let stat = transitive_flows(&sys).unwrap();
        assert!(stat.contains(&(a, m)));
        assert!(stat.contains(&(m, b)));
        assert!(stat.contains(&(a, b)), "baseline assumes transitivity");
        let sem = semantic_flows(&sys, &Phi::True).unwrap();
        assert!(sem.contains(&(a, m)));
        assert!(sem.contains(&(m, b)));
        assert!(!sem.contains(&(a, b)), "no real transmission (Thm of §4.4)");
    }

    #[test]
    fn static_is_sound_wrt_semantic() {
        // For every example system: semantic ⊆ static (the baseline never
        // misses a real flow; it only over-approximates).
        for sys in [
            examples::copy_system(3).unwrap(),
            examples::guarded_copy_system(2).unwrap(),
            examples::nontransitive_system(2).unwrap(),
            examples::flag_copy_system(2).unwrap(),
            examples::m1m2_system(2).unwrap(),
            examples::oscillator_system(5).unwrap(),
        ] {
            let stat = transitive_flows(&sys).unwrap();
            let sem = semantic_flows(&sys, &Phi::True).unwrap();
            for pair in &sem {
                assert!(stat.contains(pair), "static misses {pair:?}");
            }
        }
    }
}
