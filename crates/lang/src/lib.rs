//! Sequential-program substrate for the Strong Dependency reproduction.
//!
//! §6.5 of the paper analyzes information transmission in sequential
//! programs by (1) modelling a program as a computational system with an
//! explicit program counter and (2) using Floyd assertions as an inductive
//! cover for Strong Dependency Induction. This crate provides the whole
//! pipeline:
//!
//! - a mini imperative language ([`ast`], [`token`], [`parser`]);
//! - a direct interpreter for differential testing ([`eval`]);
//! - the Lipton-style pc compilation to [`sd_core::System`] ([`compile`](mod@compile));
//! - Floyd assertions and the §6.5 no-flow prover ([`floyd`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod error;
pub mod eval;
pub mod floyd;
pub mod parser;
pub mod phi;
pub mod token;

pub use crate::ast::{Expr, Program, Stmt, Type};
pub use crate::compile::{compile, Compiled};
pub use crate::error::{LangError, Result};
pub use crate::eval::{run, Env, Val};
pub use crate::floyd::{prove_no_flow, verify_assertions, Assertions};
pub use crate::parser::{parse, parse_expr};
pub use crate::phi::lower_phi;
