//! A concurrent strong-dependency query service.
//!
//! `sd-server` turns the workspace's compile-once [`sd_core::Oracle`]
//! sessions into a long-running daemon: systems are registered once
//! (parsed/compiled once, keyed by content hash), then any number of
//! clients ask `depends` / `sinks` / `sinks_matrix` questions over a
//! JSON-lines TCP protocol. The paper's framing (§7.4) treats the
//! dependency analysis as something one *consults* about a fixed
//! system; this crate is that consultation made operational.
//!
//! The crate is std-only (the build is offline): `std::net` + threads,
//! no async runtime, no serialisation framework. Structure:
//!
//! - [`wire`] — strict JSON reading (writing uses [`sd_core::JsonBuf`],
//!   the workspace's single escaper);
//! - [`proto`] — request/response frames, error kinds, size limits, and
//!   the canonical answer encoding;
//! - [`registry`] — content-hash-keyed systems, one shared
//!   [`sd_core::Oracle`] each, compiled exactly once;
//! - [`cache`] — an LRU over canonical query fingerprints
//!   ([`sd_core::Query::fingerprint`]) storing serialised answers, so
//!   repeat queries replay byte-identically without searching;
//! - [`engine`] — the pure request-execution path (resolve, lower φ,
//!   fingerprint, cache, run, serialise);
//! - [`metrics`] — server observability: per-method/per-outcome request
//!   counters, cold/warm latency histograms, six-phase request traces,
//!   rolled-up query-cost counters, the slow-query ring, and the
//!   Prometheus/JSON scrape renderers, built on the sharded counters and
//!   log-scale histograms of [`primitives`];
//! - [`server`] — the TCP daemon: a thread per connection that runs its
//!   own queries behind one bounded admission gate, per-request
//!   deadlines/budgets, graceful draining shutdown, JSON-lines access
//!   log;
//! - [`client`] — a blocking client library (used by `sdcheck client`
//!   and the end-to-end tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod metrics;
pub mod primitives;
pub mod proto;
pub mod registry;
pub mod server;
pub mod wire;

pub use crate::cache::{CacheStats, ResultCache};
pub use crate::client::{Client, ClientError};
pub use crate::metrics::{
    Method, MetricsSink, Phase, RequestObs, RequestTrace, ScrapeGauges, ServerMetrics, SlowEntry,
};
pub use crate::proto::{
    ErrorKind, Frame, QueryKind, QueryReq, Request, ResponseFrame, SystemDesc, WireError, MAX_FRAME,
};
pub use crate::registry::{Registry, SystemEntry};
pub use crate::server::{Config, ServeHandle};
pub use crate::wire::Json;
