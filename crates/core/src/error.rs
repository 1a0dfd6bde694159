//! Error types for the core formalism.

use core::fmt;

use crate::value::Value;

/// Errors produced while building or analyzing computational systems.
///
/// Every fallible public operation in this crate returns [`Result`]. The
/// model is deliberately strict: domains are finite and closed, so an
/// operation that produces a value outside its target domain is an error in
/// the system description, not something to paper over silently.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An object name was not declared in the universe.
    UnknownObject(String),
    /// A field name does not exist on a record-valued object.
    UnknownField {
        /// The offending field name.
        field: String,
        /// Context describing where the lookup happened.
        context: String,
    },
    /// An expression evaluated to a value of the wrong kind.
    TypeMismatch {
        /// What the evaluator required.
        expected: &'static str,
        /// What it actually found.
        found: &'static str,
        /// Context describing the evaluation site.
        context: String,
    },
    /// An operation produced a value outside the target object's domain.
    OutOfDomain {
        /// Name of the object being assigned.
        object: String,
        /// The out-of-domain value.
        value: Value,
    },
    /// Integer division or modulo by zero during expression evaluation.
    DivisionByZero,
    /// An operation id is not defined in the system.
    UnknownOp(String),
    /// The state space is too large to enumerate under the configured limit.
    StateSpaceTooLarge {
        /// The (possibly saturated) number of states.
        size: u128,
        /// The configured enumeration limit.
        limit: u128,
    },
    /// A duplicate object name was declared.
    DuplicateObject(String),
    /// A constraint or proof premise was structurally invalid.
    Invalid(String),
    /// A pair search exceeded its caller-imposed visited-pair budget
    /// (see `Query::max_pairs`). Deterministic: both engines discover
    /// pairs in the same order, so they exhaust at the same pair.
    BudgetExhausted {
        /// Pairs discovered when the budget tripped.
        visited_pairs: u64,
        /// The configured budget.
        limit: u64,
    },
    /// A search ran past its caller-imposed deadline (see
    /// `Query::timeout`). Checked once per BFS level, so overshoot is
    /// bounded by one level's expansion.
    DeadlineExceeded,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownObject(name) => write!(f, "unknown object `{name}`"),
            Error::UnknownField { field, context } => {
                write!(f, "unknown field `{field}` ({context})")
            }
            Error::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch: expected {expected}, found {found} ({context})"
            ),
            Error::OutOfDomain { object, value } => write!(
                f,
                "operation produced value {value} outside the domain of `{object}`"
            ),
            Error::DivisionByZero => write!(f, "division by zero"),
            Error::UnknownOp(name) => write!(f, "unknown operation `{name}`"),
            Error::StateSpaceTooLarge { size, limit } => write!(
                f,
                "state space has {size} states, above the enumeration limit {limit}"
            ),
            Error::DuplicateObject(name) => write!(f, "duplicate object `{name}`"),
            Error::Invalid(msg) => write!(f, "invalid input: {msg}"),
            Error::BudgetExhausted {
                visited_pairs,
                limit,
            } => write!(
                f,
                "search budget exhausted: {visited_pairs} pairs visited, limit {limit}"
            ),
            Error::DeadlineExceeded => write!(f, "search deadline exceeded"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_object() {
        let e = Error::UnknownObject("alpha".into());
        assert_eq!(e.to_string(), "unknown object `alpha`");
    }

    #[test]
    fn display_state_space() {
        let e = Error::StateSpaceTooLarge {
            size: 1 << 40,
            limit: 1 << 24,
        };
        assert!(e.to_string().contains("enumeration limit"));
    }

    #[test]
    fn display_type_mismatch() {
        let e = Error::TypeMismatch {
            expected: "int",
            found: "bool",
            context: "binary +".into(),
        };
        assert!(e.to_string().contains("expected int"));
        assert!(e.to_string().contains("found bool"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&Error::DivisionByZero);
    }
}
