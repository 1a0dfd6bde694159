//! The Security Problem on access-matrix systems (§3.4, §4.2, §7.3).
//!
//! Files carry classifications; information must never move to a lower
//! classification. With a *fixed* protection state whose rights respect
//! the classification ordering, Corollary 4-3 (with `q(x, y) ≡
//! Cls(x) ≤ Cls(y)`) proves the system secure — the formal basis the paper
//! provides for [Denning 75]-style static certification. With *varying*
//! classifications (the Adept-50 discussion in §7.3), covert paths appear
//! and the exact checker finds them.

use sd_core::certificate::ProofOutcome;
use sd_core::problem::Problem;
use sd_core::{ObjId, Phi, Result, Rights};

use crate::model::Matrix;

/// A classification assignment for a matrix system's files.
#[derive(Debug, Clone)]
pub struct SecurityPolicy {
    /// Per-object classification level (indexed by object id); matrix
    /// cells and subject diagonals share one level (the protection state
    /// itself is visible system-wide in this model).
    pub cls: Vec<u32>,
}

impl SecurityPolicy {
    /// Builds a policy assigning `level(file)` to each file's content
    /// object; all protection-state objects get level `matrix_level`.
    pub fn new(m: &Matrix, levels: &[(&str, u32)], matrix_level: u32) -> Result<SecurityPolicy> {
        let u = m.system.universe();
        let mut cls = vec![matrix_level; u.num_objects()];
        for (f, lvl) in levels {
            cls[m.file(f)?.index()] = *lvl;
        }
        Ok(SecurityPolicy { cls })
    }

    /// The classification of an object.
    pub fn of(&self, o: ObjId) -> u32 {
        self.cls[o.index()]
    }

    /// The §3.4 problem statement
    /// `X(φ) ≡ ∀α, β: α ▷φ β ⊃ Cls(α) ≤ Cls(β)`.
    pub fn problem(&self) -> Problem {
        Problem::security(self.cls.clone())
    }

    /// A rights configuration respecting the policy: every subject's cell
    /// on a file at level `l` holds `r` only if reads cannot move data
    /// down. In this single-level-subject model we simply require that a
    /// subject may read `src` and write `dst` together only when
    /// `Cls(src) ≤ Cls(dst)` — pinning each cell is autonomous.
    ///
    /// The returned constraint pins every file cell to an explicit rights
    /// value, chosen so reads are unrestricted and writes are allowed only
    /// on top-level files.
    pub fn secure_configuration(&self, m: &Matrix) -> Result<Phi> {
        let top = m
            .files()
            .iter()
            .map(|f| self.of(m.file(f).expect("file exists")))
            .max()
            .unwrap_or(0);
        let mut phi = Phi::True;
        for s in m.subjects().to_vec() {
            phi = phi.and(m.cell_is(&s, &s, Rights::S)?);
            for f in m.files().to_vec() {
                let lvl = self.of(m.file(&f)?);
                // Read everywhere; write only at the top level. Then any
                // copy moves data to the top, which every level ≤.
                let rights = if lvl == top {
                    Rights::R.union(Rights::W)
                } else {
                    Rights::R
                };
                phi = phi.and(m.cell_is(&s, &f, rights)?);
            }
        }
        Ok(phi)
    }

    /// Proves the Security Problem for `phi` via Corollary 4-3 with
    /// `q(x, y) ≡ Cls(x) ≤ Cls(y)` (requires φ autonomous and invariant).
    pub fn prove(&self, m: &Matrix, phi: &Phi) -> Result<ProofOutcome> {
        let cls = self.cls.clone();
        let q = move |x: ObjId, y: ObjId| cls[x.index()] <= cls[y.index()];
        sd_core::induction::prove_cor_4_3(&sd_core::Oracle::new(&m.system)?, phi, &q, "Cls ≤")
    }

    /// Decides the Security Problem exactly.
    pub fn holds(&self, m: &Matrix, phi: &Phi) -> Result<bool> {
        self.problem().is_solution(&m.system, phi)
    }

    /// The down-flows that exist under φ (empty iff secure).
    pub fn violations(&self, m: &Matrix, phi: &Phi) -> Result<Vec<(ObjId, ObjId)>> {
        self.problem().violations(&m.system, phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MatrixBuilder;

    fn two_level() -> (Matrix, SecurityPolicy) {
        let m = MatrixBuilder::new()
            .subject("u")
            .file("low", 2)
            .file("high", 2)
            .build()
            .unwrap();
        let p = SecurityPolicy::new(&m, &[("low", 0), ("high", 1)], 0).unwrap();
        (m, p)
    }

    #[test]
    fn unconstrained_matrix_is_insecure() {
        let (m, p) = two_level();
        assert!(!p.holds(&m, &Phi::True).unwrap());
        let v = p.violations(&m, &Phi::True).unwrap();
        let high = m.file("high").unwrap();
        let low = m.file("low").unwrap();
        assert!(v.contains(&(high, low)));
    }

    #[test]
    fn secure_configuration_proved_by_cor_4_3() {
        let (m, p) = two_level();
        let phi = p.secure_configuration(&m).unwrap();
        // Exact check and the Cor 4-3 proof agree.
        assert!(p.holds(&m, &phi).unwrap());
        let out = p.prove(&m, &phi).unwrap();
        assert!(out.is_proved(), "{:?}", out.reason());
        let cert = out.certificate().unwrap();
        assert!(cert.conclusion.contains("Cls ≤"));
    }

    #[test]
    fn varying_classification_leaks_sec_7_3() {
        // The Adept-50 hazard: reclassifying `high` based on its content
        // lets an observer of the protection state learn the content, and
        // the protection state is classified low here.
        let m = MatrixBuilder::new()
            .subject("u")
            .file("low", 2)
            .file("high", 2)
            .with_dynamic_classification("high", 1)
            .build()
            .unwrap();
        let p = SecurityPolicy::new(&m, &[("low", 0), ("high", 1)], 0).unwrap();
        let phi = p.secure_configuration(&m).unwrap();
        // The configuration that was secure without reclassification now
        // leaks: high ▷ <u,high> (a level-0 object).
        assert!(!p.holds(&m, &phi).unwrap());
        let v = p.violations(&m, &phi).unwrap();
        let high = m.file("high").unwrap();
        let cell = m.cell("u", "high").unwrap();
        assert!(v.contains(&(high, cell)));
        // And Cor 4-3 is inapplicable: φ is no longer invariant.
        let out = p.prove(&m, &phi).unwrap();
        assert!(!out.is_proved());
    }

    #[test]
    fn three_level_chain() {
        let m = MatrixBuilder::new()
            .subject("u")
            .file("f0", 2)
            .file("f1", 2)
            .file("f2", 2)
            .build()
            .unwrap();
        let p = SecurityPolicy::new(&m, &[("f0", 0), ("f1", 1), ("f2", 2)], 0).unwrap();
        let phi = p.secure_configuration(&m).unwrap();
        assert!(p.holds(&m, &phi).unwrap());
        let out = p.prove(&m, &phi).unwrap();
        assert!(out.is_proved(), "{:?}", out.reason());
    }
}
