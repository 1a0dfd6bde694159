//! Lowering φ source text against an arbitrary [`Universe`].
//!
//! The compiler's expression lowering ([`crate::compile`](mod@crate::compile)) works over the
//! variable map of a compiled program. Serving layers (`sd-server`) need
//! the inverse direction: given a *system* — any system, including the
//! paper examples built directly in core — and a constraint written as
//! source text (`"m && x < 2"`), produce the [`Phi`] it denotes. This
//! module derives the variable map from the universe itself: every object
//! whose domain is all-boolean or all-integer becomes a variable; records
//! and mixed domains are not expressible in the mini language and yield a
//! structured error when referenced.

use std::collections::BTreeMap;

use sd_core::{ObjId, Phi, Universe};

use crate::ast::Type;
use crate::error::{LangError, Result};

/// Derives the expression-language variable map of a universe: object
/// name → (id, inferred [`Type`]). Objects whose domains are neither
/// all-boolean nor all-integer are omitted (they cannot appear in φ
/// source text).
fn universe_vars(u: &Universe) -> BTreeMap<String, (ObjId, Type)> {
    let mut vars = BTreeMap::new();
    for id in u.objects() {
        let dom = u.domain(id);
        let ty = if dom.values().iter().all(|v| v.as_bool().is_some()) {
            Type::Bool
        } else if dom.values().iter().all(|v| v.as_int().is_some()) {
            let ints: Vec<i64> = dom.values().iter().filter_map(|v| v.as_int()).collect();
            Type::Int {
                lo: ints.iter().copied().min().unwrap_or(0),
                hi: ints.iter().copied().max().unwrap_or(0),
            }
        } else {
            continue;
        };
        vars.insert(u.name(id).to_string(), (id, ty));
    }
    vars
}

/// Parses and lowers φ source text (e.g. `"m && x < 2"`) into a [`Phi`]
/// over `u`. Variables are the universe's boolean- and integer-domain
/// objects; the expression must be boolean-typed.
///
/// Errors are structured [`LangError`]s — parse errors for bad syntax,
/// semantic errors for undeclared variables or a non-boolean result —
/// never panics, which is what makes this safe to call on untrusted
/// input from the query service.
pub fn lower_phi(u: &Universe, src: &str) -> Result<Phi> {
    let e = crate::parser::parse_expr(src)?;
    let vars = universe_vars(u);
    let (ce, is_bool) = crate::compile::lower_expr_pub(&e, &vars)?;
    if !is_bool {
        return Err(LangError::Semantic(format!(
            "constraint `{src}` must be boolean-typed"
        )));
    }
    Ok(Phi::expr(ce))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_core::{examples, ObjSet, Query};

    #[test]
    fn lowers_against_example_universe() {
        let sys = examples::guarded_copy_system(2).unwrap();
        let u = sys.universe();
        let phi = lower_phi(u, "!m").unwrap();
        let alpha = u.obj("alpha").unwrap();
        let beta = u.obj("beta").unwrap();
        let out = Query::new(phi, ObjSet::singleton(alpha))
            .beta(beta)
            .run_on(&sys)
            .unwrap();
        assert!(!out.holds(), "pinning the guard kills the flow");
        let phi = lower_phi(u, "m").unwrap();
        let out = Query::new(phi, ObjSet::singleton(alpha))
            .beta(beta)
            .run_on(&sys)
            .unwrap();
        assert!(out.holds());
    }

    #[test]
    fn integer_domains_get_range_types() {
        let sys = examples::threshold_system(3).unwrap();
        let u = sys.universe();
        let phi = lower_phi(u, "alpha < 2").unwrap();
        assert!(matches!(phi, Phi::Expr(_)));
    }

    #[test]
    fn undeclared_variable_is_structured_error() {
        let sys = examples::flag_copy_system(2).unwrap();
        let err = lower_phi(sys.universe(), "nonexistent").unwrap_err();
        assert!(matches!(err, LangError::Semantic(_)));
    }

    #[test]
    fn parse_error_is_structured() {
        let sys = examples::flag_copy_system(2).unwrap();
        assert!(lower_phi(sys.universe(), "&& &&").is_err());
    }

    #[test]
    fn non_boolean_constraint_rejected() {
        let sys = examples::threshold_system(3).unwrap();
        let err = lower_phi(sys.universe(), "alpha + 1").unwrap_err();
        assert!(matches!(err, LangError::Semantic(_)));
    }
}
