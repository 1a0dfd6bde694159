//! Core formal model and decision procedures for **Strong Dependency**
//! (Ellis Cohen, "Information Transmission in Computational Systems",
//! SOSP 1977).
//!
//! The crate provides:
//!
//! - the paper's model of computational systems `<Σ, Δ>` over finite
//!   domains ([`universe`], [`state`], [`op`], [`system`], [`history`]);
//! - constraints φ and their semantic classification — A-independence,
//!   A-strictness, (relative) autonomy, invariance ([`constraint`],
//!   [`classify`], [`after`]);
//! - exact decision procedures for strong dependency `A ▷φ β`, both per
//!   history (Defs 2-3…2-11, 5-5…5-7) and over *all* histories via pair
//!   reachability ([`depend`], [`reach`]), with a compiled transition-table
//!   engine for the pair search ([`compiled`]), static cones of
//!   influence that answer "no flow" without searching ([`cone`]), a
//!   unified [`query`] builder over compile-once [`oracle`] sessions,
//!   and pluggable query observability ([`telemetry`]);
//! - the paper's proof techniques as certificate-producing provers:
//!   Strong Dependency Induction, Separation of Variety and inductive
//!   covers ([`induction`], [`cover`], [`certificate`]);
//! - information problems, the worth measure, and maximal solutions
//!   ([`problem`], [`worth`], [`solve`]);
//! - observation models resolving the §6.5 program-counter paradox
//!   ([`observe`]), and the §7.2 Inferential/Direct Dependency extensions
//!   ([`inferential`]);
//! - builders for every example system in the paper ([`examples`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod after;
pub mod bitset;
pub mod certificate;
pub mod classify;
pub mod compiled;
pub mod cone;
pub mod constraint;
pub mod cover;
pub mod depend;
pub mod error;
pub mod examples;
pub mod expr;
pub mod fastmap;
pub mod history;
pub mod induction;
pub mod inferential;
pub mod json;
pub mod mechanism;
pub mod observe;
pub mod op;
pub mod oracle;
pub mod problem;
pub mod query;
pub mod reach;
pub mod solve;
pub mod state;
pub mod system;
pub mod telemetry;
pub mod universe;
pub mod value;
pub mod worth;

pub use crate::compiled::{CompileBudget, Engine};
pub use crate::constraint::{Phi, StateSet};
pub use crate::error::{Error, Result};
pub use crate::expr::{BinOp, Expr};
pub use crate::fastmap::Fnv64;
pub use crate::history::{History, OpId};
pub use crate::json::JsonBuf;
pub use crate::op::{Cmd, LValue, Op};
pub use crate::oracle::{Oracle, OracleStats};
pub use crate::query::{Query, QueryAnswer, QueryOutcome};
pub use crate::reach::{DependsWitness, SearchLimits};
pub use crate::state::State;
pub use crate::system::System;
pub use crate::telemetry::{JsonLinesSink, NullSink, QueryEvent, QueryReport, RecordingSink, Sink};
pub use crate::universe::{Domain, ObjId, ObjSet, Universe};
pub use crate::value::{Rights, Value};
