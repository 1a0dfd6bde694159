//! **strong-dependency** — an executable reproduction of Ellis Cohen's
//! *"Information Transmission in Computational Systems"* (SOSP 1977), the
//! Strong Dependency formalism for information flow.
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`core`]: the formal model, exact decision procedures for
//!   `A ▷φ β`, and the paper's proof techniques (Strong Dependency
//!   Induction, Separation of Variety, inductive covers).
//! - [`lang`]: a small imperative language compiled to pc-guarded
//!   computational systems, with Floyd assertions as inductive covers
//!   (§6.5).
//! - [`flow`]: the Denning/Case-style static information-flow baseline the
//!   paper compares against (§1.5).
//! - [`matrix`]: the §1.3 access-matrix protection substrate with the
//!   Confinement and Security problems.
//! - [`info`]: the §7.4 quantitative extension — entropy, transmitted
//!   bits, channel capacity.
//! - [`server`]: the concurrent query service — `sdserved` daemon,
//!   JSON-lines wire protocol, system registry, result cache, and the
//!   client library behind `sdcheck client`.
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use sd_core as core;
pub use sd_flow as flow;
pub use sd_info as info;
pub use sd_lang as lang;
pub use sd_matrix as matrix;
pub use sd_server as server;

/// The README, whose `rust` blocks `cargo test` compiles and runs as
/// doctests, so the quickstart keeps up with the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
