//! Static information-flow baseline for the Strong Dependency
//! reproduction.
//!
//! The paper positions strong dependency against the flow models of
//! [Denning 75] and [Case 74] (§1.5): analyses that disregard the state in
//! which operations execute and assume flows compose transitively. This
//! crate implements that baseline in full —
//!
//! - verified finite security lattices ([`lattice`]);
//! - Denning-style syntax-directed certification of programs, with
//!   explicit and implicit flows ([`denning`]);
//! - semantically derived per-operation flow relations and their
//!   transitive closure over histories ([`flowrel`]);
//! - the precision comparison against exact strong dependency
//!   ([`compare`](mod@compare)) — sound, but over-approximate on the §4.4 example;
//! - the Millen-style constraint-aware refinement and its §1.5 limits
//!   ([`millen`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod denning;
pub mod flowrel;
pub mod lattice;
pub mod millen;

pub use crate::compare::{compare, PrecisionReport};
pub use crate::denning::{certify, static_flows, Certified, Classification, Violation};
pub use crate::flowrel::{op_flow_relation, semantic_flows, transitive_flows, Relation};
pub use crate::lattice::{FiniteLattice, Label};
pub use crate::millen::{cover_sensitive_flows, op_flow_relation_under};
