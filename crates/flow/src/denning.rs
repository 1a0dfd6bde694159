//! Denning-style static certification of programs.
//!
//! This is the [Denning 75] baseline the paper positions itself against
//! (§1.5): a syntax-directed analysis over the program text that tracks
//! *explicit* flows (assignments) and *implicit* flows (assignments under
//! guards), with every object statically bound to a lattice label.
//!
//! Certification rule: for `x := e` executing under guard context `g`,
//! require `join(labels(vars(e)), g) ≤ label(x)`. `if`/`while` raise the
//! guard context by their condition's label.
//!
//! The analysis is *sound* for the paper's semantics (see
//! [`crate::compare`](mod@crate::compare) for the machine-checked statement) but conservative:
//! it ignores the state in which operations execute, so it rejects programs
//! that transmit nothing (the §4.4 non-transitivity example).

use std::collections::BTreeMap;

use sd_core::{Error, Result};
use sd_lang::{Expr, Program, Stmt};

use crate::lattice::{FiniteLattice, Label};

/// A static binding of program variables to lattice labels.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    labels: BTreeMap<String, Label>,
}

impl Classification {
    /// Creates an empty classification.
    pub fn new() -> Classification {
        Classification::default()
    }

    /// Binds a variable to a label.
    #[must_use]
    pub fn with(mut self, var: impl Into<String>, label: Label) -> Classification {
        self.labels.insert(var.into(), label);
        self
    }

    /// Looks up a variable's label.
    pub fn of(&self, var: &str) -> Result<Label> {
        self.labels
            .get(var)
            .copied()
            .ok_or_else(|| Error::Invalid(format!("variable `{var}` has no classification")))
    }
}

/// One certification violation: a potential flow the policy forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The assignment's target variable.
    pub target: String,
    /// Rendering of the offending statement.
    pub stmt: String,
    /// The (joined) source label.
    pub from: Label,
    /// The target's label.
    pub to: Label,
    /// Whether the flow is implicit (through a guard) rather than explicit.
    pub implicit: bool,
}

/// The result of certifying a program.
#[derive(Debug, Clone)]
pub struct Certified {
    /// All violations found (empty means the program is certified secure).
    pub violations: Vec<Violation>,
}

impl Certified {
    /// Whether certification succeeded.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn expr_label(e: &Expr, lat: &FiniteLattice, cls: &Classification) -> Result<Label> {
    let mut vars = Vec::new();
    e.reads(&mut vars);
    let mut acc = lat.bottom();
    for v in vars {
        acc = lat.join(acc, cls.of(&v)?);
    }
    Ok(acc)
}

fn certify_block(
    stmts: &[Stmt],
    ctx: Label,
    lat: &FiniteLattice,
    cls: &Classification,
    out: &mut Vec<Violation>,
) -> Result<()> {
    for s in stmts {
        match s {
            Stmt::Skip => {}
            Stmt::Assign(x, e) => {
                let explicit = expr_label(e, lat, cls)?;
                let src = lat.join(explicit, ctx);
                let dst = cls.of(x)?;
                if !lat.leq(src, dst) {
                    out.push(Violation {
                        target: x.clone(),
                        stmt: format!("{x} := {e}"),
                        from: src,
                        to: dst,
                        implicit: !lat.leq(ctx, dst),
                    });
                }
            }
            Stmt::If(g, t, els) => {
                let gctx = lat.join(ctx, expr_label(g, lat, cls)?);
                certify_block(t, gctx, lat, cls, out)?;
                certify_block(els, gctx, lat, cls, out)?;
            }
            Stmt::While(g, b) => {
                let gctx = lat.join(ctx, expr_label(g, lat, cls)?);
                certify_block(b, gctx, lat, cls, out)?;
            }
        }
    }
    Ok(())
}

/// Certifies a program against a lattice and classification.
pub fn certify(p: &Program, lat: &FiniteLattice, cls: &Classification) -> Result<Certified> {
    let mut violations = Vec::new();
    certify_block(&p.body, lat.bottom(), lat, cls, &mut violations)?;
    Ok(Certified { violations })
}

/// The set of *static* variable-to-variable flows the analysis infers:
/// `(x, y)` means information may flow from x to y somewhere in the
/// program (explicit or implicit), closed transitively — the [Case 74]
/// composition of per-statement flows (§1.5).
pub fn static_flows(p: &Program) -> Result<Vec<(String, String)>> {
    // Collect direct flows per statement.
    let mut direct: Vec<(String, String)> = Vec::new();
    fn walk(stmts: &[Stmt], guards: &mut Vec<String>, out: &mut Vec<(String, String)>) {
        for s in stmts {
            match s {
                Stmt::Skip => {}
                Stmt::Assign(x, e) => {
                    let mut vars = Vec::new();
                    e.reads(&mut vars);
                    for v in vars.into_iter().chain(guards.iter().cloned()) {
                        out.push((v, x.clone()));
                    }
                }
                Stmt::If(g, t, els) => {
                    let mut vars = Vec::new();
                    g.reads(&mut vars);
                    let depth = guards.len();
                    guards.extend(vars);
                    walk(t, guards, out);
                    walk(els, guards, out);
                    guards.truncate(depth);
                }
                Stmt::While(g, b) => {
                    let mut vars = Vec::new();
                    g.reads(&mut vars);
                    let depth = guards.len();
                    guards.extend(vars);
                    walk(b, guards, out);
                    guards.truncate(depth);
                }
            }
        }
    }
    let mut guards = Vec::new();
    walk(&p.body, &mut guards, &mut direct);

    // Reflexive-transitive closure over declared variables.
    let vars: Vec<String> = p.decls.iter().map(|(n, _)| n.clone()).collect();
    let idx = |v: &str| vars.iter().position(|x| x == v);
    let n = vars.len();
    let mut reach = vec![vec![false; n]; n];
    for (i, row) in reach.iter_mut().enumerate() {
        row[i] = true;
    }
    for (a, b) in &direct {
        if let (Some(i), Some(j)) = (idx(a), idx(b)) {
            reach[i][j] = true;
        }
    }
    // Floyd–Warshall closure.
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
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if reach[i][j] {
                out.push((vars[i].clone(), vars[j].clone()));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_lang::parse;

    fn two() -> (FiniteLattice, Label, Label) {
        let l = FiniteLattice::two_point();
        let lo = l.label("L").unwrap();
        let hi = l.label("H").unwrap();
        (l, lo, hi)
    }

    #[test]
    fn explicit_flow_violation() {
        let (lat, lo, hi) = two();
        let p = parse("var h: int 0..3; var l: int 0..3; l := h;").unwrap();
        let cls = Classification::new().with("h", hi).with("l", lo);
        let c = certify(&p, &lat, &cls).unwrap();
        assert_eq!(c.violations.len(), 1);
        assert!(!c.violations[0].implicit);
        assert_eq!(c.violations[0].target, "l");
    }

    #[test]
    fn implicit_flow_violation() {
        let (lat, lo, hi) = two();
        let p = parse("var h: bool; var l: int 0..1; if h { l := 1; }").unwrap();
        let cls = Classification::new().with("h", hi).with("l", lo);
        let c = certify(&p, &lat, &cls).unwrap();
        assert_eq!(c.violations.len(), 1);
        assert!(c.violations[0].implicit);
    }

    #[test]
    fn upward_flows_certified() {
        let (lat, lo, hi) = two();
        let p =
            parse("var h: int 0..3; var l: int 0..3; h := l; if l > 0 { h := h + 0; }").unwrap();
        let cls = Classification::new().with("h", hi).with("l", lo);
        assert!(certify(&p, &lat, &cls).unwrap().ok());
    }

    #[test]
    fn nested_guards_accumulate() {
        let (lat, lo, hi) = two();
        // The inner assignment to l sits under an h guard two levels up.
        let p =
            parse("var h: bool; var m: bool; var l: int 0..1; if h { if m { l := 1; } }").unwrap();
        let cls = Classification::new()
            .with("h", hi)
            .with("m", lo)
            .with("l", lo);
        let c = certify(&p, &lat, &cls).unwrap();
        assert_eq!(c.violations.len(), 1);
    }

    #[test]
    fn while_guard_is_a_source() {
        let (lat, lo, hi) = two();
        let p =
            parse("var h: int 0..3; var l: int 0..3; while h > 0 { l := 1; h := h - 1; }").unwrap();
        let cls = Classification::new().with("h", hi).with("l", lo);
        let c = certify(&p, &lat, &cls).unwrap();
        assert!(!c.ok());
    }

    #[test]
    fn missing_classification_is_an_error() {
        let (lat, _, hi) = two();
        let p = parse("var h: int 0..3; var l: int 0..3; l := h;").unwrap();
        let cls = Classification::new().with("h", hi);
        assert!(certify(&p, &lat, &cls).is_err());
    }

    #[test]
    fn static_flows_are_transitive() {
        // x → m → y: the closure includes x → y even though no statement
        // copies x to y directly.
        let p =
            parse("var x: int 0..1; var m: int 0..1; var y: int 0..1; m := x; y := m;").unwrap();
        let flows = static_flows(&p).unwrap();
        assert!(flows.contains(&("x".into(), "y".into())));
        assert!(flows.contains(&("x".into(), "m".into())));
        // Reflexive by definition (λ case of §1.5).
        assert!(flows.contains(&("y".into(), "y".into())));
        // No flow from y anywhere else.
        assert!(!flows.contains(&("y".into(), "x".into())));
    }

    #[test]
    fn static_flows_include_guards() {
        let p = parse("var g: bool; var y: int 0..1; if g { y := 1; }").unwrap();
        let flows = static_flows(&p).unwrap();
        assert!(flows.contains(&("g".into(), "y".into())));
    }
}
