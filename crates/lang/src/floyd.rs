//! Floyd assertions as inductive covers (§6.5).
//!
//! Attach an assertion to each program point; if the entry assertion holds
//! initially, the pc-indexed family `{φi ∧ pc = i}` is an inductive cover
//! (Def 6-2) for `entry ∧ pc = entry`, and Theorem 6-7 then proves absence
//! of information transmission: for each statement that assigns to β, its
//! assertion must pin the state so the assignment conveys no variety.
//!
//! The cover property requires the pc's trajectory to be data-independent
//! (the paper's flowcharts are straight-line chains of atomic boxes; see
//! [`crate::compile`](mod@crate::compile)). Programs with data-dependent branching fail the
//! Def 6-2 check and are reported `Inapplicable` — for those, the exact
//! procedures in [`sd_core::reach`] still apply.

use std::collections::BTreeMap;

use sd_core::certificate::ProofOutcome;
use sd_core::{Expr as CExpr, Phi};

use crate::ast::Expr;
use crate::compile::Compiled;
use crate::error::{LangError, Result};

/// Floyd-style assertions for a compiled program.
#[derive(Debug, Clone, Default)]
pub struct Assertions {
    /// The entry assertion φ1 (about data, not the pc).
    pub entry: Option<Expr>,
    /// Intermediate assertions keyed by program-point label; points without
    /// an entry default to `true`.
    pub at: BTreeMap<i64, Expr>,
    /// The exit assertion, if any.
    pub exit: Option<Expr>,
}

impl Assertions {
    /// Creates an empty annotation (all assertions `true`).
    pub fn new() -> Assertions {
        Assertions::default()
    }

    /// Sets the entry assertion from source text.
    pub fn with_entry(mut self, src: &str) -> Result<Assertions> {
        self.entry = Some(crate::parser::parse_expr(src)?);
        Ok(self)
    }

    /// Attaches an assertion to a program point.
    pub fn with_at(mut self, label: i64, src: &str) -> Result<Assertions> {
        self.at.insert(label, crate::parser::parse_expr(src)?);
        Ok(self)
    }

    /// Sets the exit assertion from source text.
    pub fn with_exit(mut self, src: &str) -> Result<Assertions> {
        self.exit = Some(crate::parser::parse_expr(src)?);
        Ok(self)
    }
}

fn lower_assertion(c: &Compiled, e: Option<&Expr>) -> Result<CExpr> {
    let Some(e) = e else {
        return Ok(CExpr::bool(true));
    };
    // Reuse the compiler's expression lowering through a tiny shim: build
    // the var map from the compiled program.
    let vars: BTreeMap<String, (sd_core::ObjId, crate::ast::Type)> = c
        .vars
        .iter()
        .map(|(name, id)| {
            let dom = c.system.universe().domain(*id);
            let ty = if dom.values().iter().all(|v| v.as_bool().is_some()) {
                crate::ast::Type::Bool
            } else {
                let ints: Vec<i64> = dom.values().iter().filter_map(|v| v.as_int()).collect();
                crate::ast::Type::Int {
                    lo: ints.iter().copied().min().unwrap_or(0),
                    hi: ints.iter().copied().max().unwrap_or(0),
                }
            };
            (name.clone(), (*id, ty))
        })
        .collect();
    let (ce, ty) = crate::compile::lower_expr_pub(e, &vars)?;
    if !ty {
        return Err(LangError::Semantic("assertion must be boolean".into()));
    }
    Ok(ce)
}

/// Builds the pc-indexed cover `{assertion_i ∧ pc = i}` ∪ `{exit ∧ pc =
/// exit}` for a compiled program.
pub fn pc_cover(c: &Compiled, ann: &Assertions) -> Result<Vec<Phi>> {
    let mut cover = Vec::new();
    for f in &c.flat {
        let data = lower_assertion(c, ann.at.get(&f.label))?;
        let here = CExpr::var(c.pc).eq(CExpr::int(f.label));
        cover.push(Phi::expr(data.and(here)));
    }
    let exit_data = lower_assertion(c, ann.exit.as_ref())?;
    let at_exit = CExpr::var(c.pc).eq(CExpr::int(c.exit));
    cover.push(Phi::expr(exit_data.and(at_exit)));
    Ok(cover)
}

/// The initial constraint `entry_assertion ∧ pc = entry`.
pub fn entry_phi(c: &Compiled, ann: &Assertions) -> Result<Phi> {
    let data = lower_assertion(c, ann.entry.as_ref())?;
    let at = CExpr::var(c.pc).eq(CExpr::int(c.entry));
    Ok(Phi::expr(data.and(at)))
}

/// Verifies that the annotated assertions form an inductive cover
/// (Def 6-2) for the entry constraint — the legality condition for Floyd
/// assertions in §6.5.
pub fn verify_assertions(c: &Compiled, ann: &Assertions) -> Result<bool> {
    let phi = entry_phi(c, ann)?;
    let cover = pc_cover(c, ann)?;
    Ok(sd_core::cover::is_inductive_cover(&c.system, &phi, &cover)?)
}

/// Proves `¬from ▷φ to` for a compiled program using the annotated Floyd
/// assertions as an inductive cover (Theorem 6-7).
pub fn prove_no_flow(c: &Compiled, ann: &Assertions, from: &str, to: &str) -> Result<ProofOutcome> {
    let phi = entry_phi(c, ann)?;
    let cover = pc_cover(c, ann)?;
    let a = sd_core::ObjSet::singleton(c.var(from)?);
    let beta = c.var(to)?;
    Ok(sd_core::cover::prove_inductive_cover(
        &c.system, &phi, &cover, &a, beta,
    )?)
}

/// The exact answer, for comparison: does `to` strongly depend on `from`
/// given the entry constraint?
pub fn depends_exact(c: &Compiled, ann: &Assertions, from: &str, to: &str) -> Result<bool> {
    let phi = entry_phi(c, ann)?;
    let a = sd_core::ObjSet::singleton(c.var(from)?);
    let beta = c.var(to)?;
    Ok(sd_core::Query::new(phi, a)
        .beta(beta)
        .run_on(&c.system)?
        .holds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    /// The §6.5 flowchart program.
    fn sec_6_5() -> Compiled {
        let src = "\
var alpha: int 0..1;
var beta: int 0..1;
var q: int 0..15;
var t: bool;
if q > 10 { t := true; } else { t := false; }
if t { beta := alpha; }
";
        compile(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn paper_proof_sec_6_5() {
        // Entry assertion q < 10; intermediate assertion ¬t at statement 2.
        let c = sec_6_5();
        let ann = Assertions::new()
            .with_entry("q < 10")
            .unwrap()
            .with_at(2, "!t")
            .unwrap();
        assert!(verify_assertions(&c, &ann).unwrap());
        let out = prove_no_flow(&c, &ann, "alpha", "beta").unwrap();
        assert!(out.is_proved(), "{:?}", out.reason());
        // Exact oracle agrees.
        assert!(!depends_exact(&c, &ann, "alpha", "beta").unwrap());
    }

    #[test]
    fn without_entry_assertion_flow_exists() {
        let c = sec_6_5();
        let ann = Assertions::new();
        assert!(depends_exact(&c, &ann, "alpha", "beta").unwrap());
        let out = prove_no_flow(&c, &ann, "alpha", "beta").unwrap();
        assert!(!out.is_proved());
    }

    #[test]
    fn wrong_assertion_is_not_inductive() {
        // Claiming t at statement 2 under entry q < 10 is false (t will be
        // set false), so the cover check fails.
        let c = sec_6_5();
        let ann = Assertions::new()
            .with_entry("q < 10")
            .unwrap()
            .with_at(2, "t")
            .unwrap();
        assert!(!verify_assertions(&c, &ann).unwrap());
    }

    #[test]
    fn exit_assertion_checked() {
        let c = sec_6_5();
        // With entry q < 10, at exit beta is unchanged… we can only state
        // data facts; ¬t holds at exit too.
        let ann = Assertions::new()
            .with_entry("q < 10")
            .unwrap()
            .with_at(2, "!t")
            .unwrap()
            .with_exit("!t")
            .unwrap();
        assert!(verify_assertions(&c, &ann).unwrap());
        // A false exit assertion breaks the cover.
        let bad = Assertions::new()
            .with_entry("q < 10")
            .unwrap()
            .with_at(2, "!t")
            .unwrap()
            .with_exit("t")
            .unwrap();
        assert!(!verify_assertions(&c, &bad).unwrap());
    }

    #[test]
    fn data_dependent_branching_is_reported_inapplicable() {
        // A while loop branching on data makes the pc trajectory
        // data-dependent: the pc-indexed family is not an inductive cover.
        let src = "\
var x: int 0..3;
var y: int 0..3;
while x > 0 { x := x - 1; }
y := 1;
";
        let c = compile(&parse(src).unwrap()).unwrap();
        let ann = Assertions::new();
        assert!(!verify_assertions(&c, &ann).unwrap());
        let out = prove_no_flow(&c, &ann, "x", "y").unwrap();
        assert!(!out.is_proved());
        // And indeed a flow exists: the loop's duration depends on x, so
        // an observer who knows the history can read x off whether the
        // `y := 1` statement has fired yet — the §6.5 timing channel.
        assert!(depends_exact(&c, &ann, "x", "y").unwrap());
    }

    #[test]
    fn assertions_reject_non_boolean() {
        let c = sec_6_5();
        let ann = Assertions::new().with_entry("q + 1").unwrap();
        assert!(matches!(
            verify_assertions(&c, &ann),
            Err(LangError::Semantic(_))
        ));
    }
}
