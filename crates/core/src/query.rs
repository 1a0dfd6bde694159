//! The unified query builder: one entry point for every strong-dependency
//! question.
//!
//! A [`Query`] names a constraint φ and a source set A, a target (a
//! single object β, a set B, or "all sinks"), and optional tuning
//! (engine, compile budget, history-length bound, search limits,
//! telemetry sink). It is the one public way to ask: it runs either
//! one-shot ([`Query::run_on`] — builds a short-lived [`Oracle`] per
//! call) or against a shared [`Oracle`] ([`Query::run`] — compile once,
//! query many times). Both return a [`QueryOutcome`]: the answer and the
//! per-query [`QueryReport`] cost accounting, the one record of what the
//! search did.
//!
//! # Examples
//!
//! ```
//! use sd_core::{examples, ObjSet, Phi, Query, Expr};
//!
//! // δ: if m then β ← α — a flow exists, until φ pins m to false.
//! let sys = examples::guarded_copy_system(2)?;
//! let u = sys.universe();
//! let (alpha, beta, m) = (u.obj("alpha")?, u.obj("beta")?, u.obj("m")?);
//! let src = ObjSet::singleton(alpha);
//! assert!(Query::new(Phi::True, src.clone()).beta(beta).run_on(&sys)?.holds());
//! let phi = Phi::expr(Expr::var(m).not());
//! assert!(!Query::new(phi, src).beta(beta).run_on(&sys)?.holds());
//! # Ok::<(), sd_core::Error>(())
//! ```
//!
//! Against a shared Oracle:
//!
//! ```
//! use sd_core::{examples, ObjSet, Oracle, Phi, Query};
//!
//! let sys = examples::flag_copy_system(3)?;
//! let u = sys.universe();
//! let oracle = Oracle::new(&sys)?;
//! for obj in u.objects() {
//!     let out = Query::new(Phi::True, ObjSet::singleton(obj)).run(&oracle)?;
//!     let _sinks = out.into_sinks().unwrap();
//! }
//! assert_eq!(oracle.stats().compiles, 1);
//! # Ok::<(), sd_core::Error>(())
//! ```

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::compiled::{CompileBudget, Engine, TableKind};
use crate::cone;
use crate::constraint::Phi;
use crate::depend::SatPartition;
use crate::error::{Error, Result};
use crate::fastmap::Fnv64;
use crate::oracle::Oracle;
use crate::reach::{DependsWitness, SearchLimits};
use crate::system::System;
use crate::telemetry::{QueryEvent, QueryReport, Sink};
use crate::universe::{ObjId, ObjSet, Universe};

/// What a [`Query`] asks about its source set.
#[derive(Debug, Clone)]
enum Target {
    /// All sinks of A: `{ β | A ▷φ β }` (the default).
    Sinks,
    /// `A ▷φ β` for one object.
    Beta(ObjId),
    /// The set-target relation `A ▷φ B` (Def 5-7).
    Set(ObjSet),
    /// One sinks row per source set (the §3.6 worth matrix).
    Matrix(Vec<ObjSet>),
}

/// A strong-dependency query, built with method chaining and executed
/// with [`Query::run`] (shared [`Oracle`]) or [`Query::run_on`]
/// (one-shot). See the module docs for examples.
#[derive(Clone)]
pub struct Query {
    phi: Phi,
    a: ObjSet,
    target: Target,
    bound: Option<usize>,
    engine: Engine,
    budget: CompileBudget,
    limits: SearchLimits,
    sink: Option<Arc<dyn Sink>>,
}

/// The answer payload of a [`QueryOutcome`], by target shape.
#[derive(Debug, Clone)]
pub enum QueryAnswer {
    /// Verdict (and witness, when the relation holds) for a β- or
    /// set-target query.
    Depends(Option<DependsWitness>),
    /// The sink set of a sinks query.
    Sinks(ObjSet),
    /// One sink row per source set of a matrix query.
    Matrix(Vec<ObjSet>),
}

/// Everything one query run produced: the answer and the cost report.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The answer, shaped by the query's target.
    pub answer: QueryAnswer,
    /// Per-query cost accounting: which engine searched, how many pairs
    /// and levels, and where the time went.
    pub report: QueryReport,
}

impl QueryOutcome {
    /// Whether the queried relation holds: a witness was found, or at
    /// least one sink exists (in any row, for matrix queries).
    pub fn holds(&self) -> bool {
        match &self.answer {
            QueryAnswer::Depends(w) => w.is_some(),
            QueryAnswer::Sinks(set) => !set.is_empty(),
            QueryAnswer::Matrix(rows) => rows.iter().any(|r| !r.is_empty()),
        }
    }

    /// The transmission witness, if this was a β/set query that holds.
    pub fn witness(&self) -> Option<&DependsWitness> {
        match &self.answer {
            QueryAnswer::Depends(w) => w.as_ref(),
            _ => None,
        }
    }

    /// Consumes the outcome into its witness (β/set queries).
    pub fn into_witness(self) -> Option<DependsWitness> {
        match self.answer {
            QueryAnswer::Depends(w) => w,
            _ => None,
        }
    }

    /// Consumes the outcome into its sink set (sinks queries).
    pub fn into_sinks(self) -> Option<ObjSet> {
        match self.answer {
            QueryAnswer::Sinks(set) => Some(set),
            _ => None,
        }
    }

    /// Consumes the outcome into its rows (matrix queries).
    pub fn into_rows(self) -> Option<Vec<ObjSet>> {
        match self.answer {
            QueryAnswer::Matrix(rows) => Some(rows),
            _ => None,
        }
    }
}

impl Query {
    /// A query about source set `a` under constraint `phi`. The default
    /// target is all sinks of `a`; narrow it with [`Query::beta`] or
    /// [`Query::set`].
    pub fn new(phi: Phi, a: ObjSet) -> Query {
        Query {
            phi,
            a,
            target: Target::Sinks,
            bound: None,
            engine: Engine::Auto,
            budget: CompileBudget::default(),
            limits: SearchLimits::NONE,
            sink: None,
        }
    }

    /// A matrix query: one sinks row per source set, sharing one
    /// compile and one Sat(φ) enumeration across all rows.
    pub fn matrix(phi: Phi, sources: Vec<ObjSet>) -> Query {
        let mut q = Query::new(phi, ObjSet::empty());
        q.target = Target::Matrix(sources);
        q
    }

    /// Asks `A ▷φ β` for a single target object.
    pub fn beta(mut self, beta: ObjId) -> Query {
        self.target = Target::Beta(beta);
        self
    }

    /// Asks the set-target relation `A ▷φ B` (simultaneous difference at
    /// every object of `b`).
    pub fn set(mut self, b: ObjSet) -> Query {
        self.target = Target::Set(b);
        self
    }

    /// Asks for all sinks of A (the default target).
    pub fn sinks(mut self) -> Query {
        self.target = Target::Sinks;
        self
    }

    /// Restricts the question to histories of length ≤ `max_len` (only
    /// valid for β targets). It runs the same pair search, which stops
    /// expanding after level `max_len`; pairs are discovered at their
    /// minimal depth, so the verdict is exact for the bound and the
    /// witness is the unbounded query's whenever that one has length
    /// ≤ `max_len`. Search limits apply as for any other query.
    pub fn bounded(mut self, max_len: usize) -> Query {
        self.bound = Some(max_len);
        self
    }

    /// Pins the search engine (default [`Engine::Auto`]). When running
    /// against a shared [`Oracle`], the pinned engine must match the
    /// Oracle's configuration.
    pub fn engine(mut self, engine: Engine) -> Query {
        self.engine = engine;
        self
    }

    /// Sets the compile budget for one-shot runs (ignored by
    /// [`Query::run`], which uses the Oracle's budget).
    pub fn budget(mut self, budget: CompileBudget) -> Query {
        self.budget = budget;
        self
    }

    /// Caps the pair search at `max_pairs` discovered pairs; exceeding
    /// it returns [`Error::BudgetExhausted`]. Both engines discover
    /// pairs in the same order, so the budget trips identically on
    /// either. Goal pairs found at the budget boundary are still
    /// reported.
    pub fn max_pairs(mut self, max_pairs: u64) -> Query {
        self.limits.max_pairs = Some(max_pairs);
        self
    }

    /// Sets a wall-clock deadline `timeout` from now; a search running
    /// past it returns [`Error::DeadlineExceeded`]. Checked once per
    /// BFS level, so overshoot is bounded by one level's expansion.
    pub fn timeout(mut self, timeout: Duration) -> Query {
        self.limits.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Sets an absolute wall-clock deadline (see [`Query::timeout`]).
    pub fn deadline(mut self, deadline: Instant) -> Query {
        self.limits.deadline = Some(deadline);
        self
    }

    /// Attaches a telemetry sink to this query. For one-shot runs the
    /// sink also observes the compile; for [`Query::run`] it overrides
    /// the Oracle's own sink on this query's events.
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> Query {
        self.sink = Some(sink);
        self
    }

    /// A canonical 64-bit fingerprint of the query's *semantic* content:
    /// φ, A, the target shape, the history bound, and the pinned engine.
    /// Tuning that cannot change a successful answer (compile budget,
    /// search limits, telemetry sink) is excluded, which is what makes
    /// the fingerprint usable as a result-cache key: a query that
    /// *completes* returns the same answer under any limits.
    ///
    /// Returns `None` when φ contains a native [`Phi::Pred`] — closure
    /// identity is not canonically hashable, so such queries are not
    /// fingerprintable (and not cacheable).
    ///
    /// The hash is FNV-1a over a tagged little-endian encoding: stable
    /// across processes, runs, and architectures.
    pub fn fingerprint(&self) -> Option<u64> {
        let mut h = Fnv64::new();
        if !self.phi.fingerprint_into(&mut h) {
            return None;
        }
        self.a.hash(&mut h);
        match &self.target {
            Target::Sinks => h.write_u8(1),
            Target::Beta(beta) => {
                h.write_u8(2);
                beta.hash(&mut h);
            }
            Target::Set(b) => {
                h.write_u8(3);
                b.hash(&mut h);
            }
            Target::Matrix(sources) => {
                h.write_u8(4);
                h.write_u64(sources.len() as u64);
                for s in sources {
                    s.hash(&mut h);
                }
            }
        }
        match self.bound {
            None => h.write_u8(0),
            Some(n) => {
                h.write_u8(1);
                h.write_u64(n as u64);
            }
        }
        h.write_u8(match self.engine {
            Engine::Auto => 0,
            Engine::Interpreted => 1,
            Engine::CompiledDense => 2,
            Engine::CompiledSparse => 3,
        });
        Some(h.digest())
    }

    /// Checks every object id the query mentions against the universe,
    /// so untrusted input yields [`Error::UnknownObject`] instead of an
    /// out-of-bounds panic deep in the pair search.
    fn validate(&self, u: &Universe) -> Result<()> {
        let n = u.num_objects();
        let check_set = |set: &ObjSet| -> Result<()> {
            for obj in set.iter() {
                if obj.index() >= n {
                    return Err(Error::UnknownObject(format!("#{}", obj.index())));
                }
            }
            Ok(())
        };
        check_set(&self.a)?;
        match &self.target {
            Target::Sinks => Ok(()),
            Target::Beta(beta) => {
                if beta.index() >= n {
                    return Err(Error::UnknownObject(format!("#{}", beta.index())));
                }
                Ok(())
            }
            Target::Set(b) => check_set(b),
            Target::Matrix(sources) => sources.iter().try_for_each(check_set),
        }
    }

    /// Runs one-shot: builds a short-lived [`Oracle`] for this query
    /// (one compile, one Sat(φ) enumeration) and executes against it.
    pub fn run_on(&self, sys: &System) -> Result<QueryOutcome> {
        // Shortcuts that never need an oracle — identical to the
        // historical free-function behaviour of returning before any
        // compile happens.
        self.validate(sys.universe())?;
        if let Some(out) = self.trivial_outcome() {
            return Ok(out);
        }
        let oracle = Oracle::for_phi(sys, &self.phi, self.engine, &self.budget, self.sink.clone())?;
        self.run_with(&oracle, true)
    }

    /// Runs against a shared [`Oracle`], reusing its compiled tables,
    /// interned Sat(φ) enumerations and buffer pool.
    ///
    /// The query's engine must be compatible with the Oracle:
    /// [`Engine::Auto`] (the default) always is; a pinned engine must
    /// match what the Oracle was built with.
    pub fn run(&self, oracle: &Oracle<'_>) -> Result<QueryOutcome> {
        let compatible = match self.engine {
            Engine::Auto => true,
            Engine::Interpreted => oracle.table_kind().is_none(),
            Engine::CompiledDense => oracle.table_kind() == Some(TableKind::Dense),
            Engine::CompiledSparse => oracle.table_kind() == Some(TableKind::Sparse),
        };
        if !compatible {
            return Err(Error::Invalid(format!(
                "query pins engine {:?} but the shared Oracle runs {}; \
                 build the Oracle with that engine or use Query::run_on",
                self.engine,
                oracle.engine_name(),
            )));
        }
        self.validate(oracle.system().universe())?;
        if let Some(out) = self.trivial_outcome() {
            return Ok(out);
        }
        self.run_with(oracle, false)
    }

    /// Answers that need no search at all (empty target set, empty
    /// matrix), reported with a zeroed `"none"` engine report.
    fn trivial_outcome(&self) -> Option<QueryOutcome> {
        let answer = match &self.target {
            Target::Set(b) if b.is_empty() => QueryAnswer::Depends(None),
            Target::Matrix(sources) if sources.is_empty() => QueryAnswer::Matrix(Vec::new()),
            _ => return None,
        };
        Some(QueryOutcome {
            answer,
            report: QueryReport::empty("none"),
        })
    }

    /// The shared execution core. `fresh` is true when `oracle` was
    /// built by this very run (one-shot), which determines the report's
    /// cache attribution.
    ///
    /// Sat(φ) is interned first, so φ's errors and the interned-φ count
    /// never depend on the target. Then, before any `=A=` partition is
    /// built, the Oracle's cones of influence ([`crate::cone`]) answer
    /// "no flow" for a β (or any b ∈ B) whose cone misses A, reported
    /// with a zeroed `"cone"` engine report.
    fn run_with(&self, oracle: &Oracle<'_>, fresh: bool) -> Result<QueryOutcome> {
        let sink = self.sink.as_deref().or_else(|| oracle.sink_ref());
        let partition_cached = !fresh && oracle.phi_interned(&self.phi);
        let fresh_compile = fresh && oracle.stats().compiles > 0;
        let u = oracle.system().universe();
        let no_flow = || (QueryAnswer::Depends(None), QueryReport::empty(cone::ENGINE));
        let start = Instant::now();
        let (answer, mut report) = match &self.target {
            Target::Beta(beta) => {
                // Levels beyond any u32 depth cannot exist: the node
                // arena holds fewer than 2³² pairs.
                let max_depth = self
                    .bound
                    .map_or(u32::MAX, |k| u32::try_from(k).unwrap_or(u32::MAX));
                let codes = oracle.sat_codes_at(&self.phi, sink)?;
                if oracle.cone_excludes(&self.a, *beta) {
                    no_flow()
                } else {
                    let part = SatPartition::from_codes(u, &codes, &self.a);
                    let (witness, report) =
                        oracle.depends_partition(&part, *beta, &self.limits, max_depth, sink)?;
                    (QueryAnswer::Depends(witness), report)
                }
            }
            _ if self.bound.is_some() => {
                return Err(Error::Invalid(
                    "bounded queries require a single-object β target".into(),
                ))
            }
            Target::Set(b) => {
                let codes = oracle.sat_codes_at(&self.phi, sink)?;
                if b.iter().any(|obj| oracle.cone_excludes(&self.a, obj)) {
                    no_flow()
                } else {
                    let targets: Vec<(u64, u64)> = b
                        .iter()
                        .map(|obj| crate::reach::extractor(u, obj))
                        .collect();
                    let part = SatPartition::from_codes(u, &codes, &self.a);
                    let (witness, report) =
                        oracle.search(&part, &self.limits, u32::MAX, sink, move |c1, c2| {
                            targets
                                .iter()
                                .all(|&(stride, dom)| (c1 / stride) % dom != (c2 / stride) % dom)
                        })?;
                    (QueryAnswer::Depends(witness), report)
                }
            }
            Target::Sinks => {
                let codes = oracle.sat_codes_at(&self.phi, sink)?;
                let (set, report) = oracle.sinks(&codes, &self.a, &self.limits, sink)?;
                (QueryAnswer::Sinks(set), report)
            }
            Target::Matrix(sources) => {
                let (rows, report) = oracle.sinks_matrix(&self.phi, sources, &self.limits, sink)?;
                (QueryAnswer::Matrix(rows), report)
            }
        };
        report.wall_ns = start.elapsed().as_nanos() as u64;
        report.partition_cached = partition_cached;
        report.fresh_compile = fresh_compile;
        if let Some(s) = sink {
            s.record(&QueryEvent::QueryDone { report });
        }
        Ok(QueryOutcome { answer, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::telemetry::RecordingSink;

    fn sys3() -> System {
        examples::flag_copy_system(3).unwrap()
    }

    #[test]
    fn shared_and_one_shot_runs_agree() {
        let sys = sys3();
        let u = sys.universe();
        let oracle = Oracle::new(&sys).unwrap();
        for a in u.objects() {
            let src = ObjSet::singleton(a);
            let shared = Query::new(Phi::True, src.clone()).run(&oracle).unwrap();
            let oneshot = Query::new(Phi::True, src).run_on(&sys).unwrap();
            assert_eq!(shared.report.visited_pairs, oneshot.report.visited_pairs);
            assert_eq!(shared.into_sinks().unwrap(), oneshot.into_sinks().unwrap());
        }
        assert_eq!(oracle.stats().compiles, 1);
    }

    #[test]
    fn report_attributes_cache_hits_on_shared_oracle() {
        let sys = sys3();
        let u = sys.universe();
        // alpha → beta: alpha is in cone(beta), so both runs search.
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let beta = u.obj("beta").unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        let cold = Query::new(Phi::True, a.clone())
            .beta(beta)
            .run(&oracle)
            .unwrap();
        assert!(!cold.report.partition_cached);
        assert!(!cold.report.fresh_compile);
        let warm = Query::new(Phi::True, a).beta(beta).run(&oracle).unwrap();
        assert!(warm.report.partition_cached);
        assert!(warm.report.pair_expansions > 0);
    }

    #[test]
    fn one_shot_reports_fresh_compile_not_cache() {
        let sys = sys3();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let out = Query::new(Phi::True, a).run_on(&sys).unwrap();
        assert!(out.report.fresh_compile);
        assert!(!out.report.partition_cached);
        assert!(out.report.visited_pairs > 0);
    }

    #[test]
    fn pinned_engine_must_match_shared_oracle() {
        let sys = sys3();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let oracle =
            Oracle::with_engine(&sys, Engine::Interpreted, &CompileBudget::default()).unwrap();
        let err = Query::new(Phi::True, a.clone())
            .engine(Engine::CompiledDense)
            .run(&oracle)
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
        let ok = Query::new(Phi::True, a)
            .engine(Engine::Interpreted)
            .run(&oracle);
        assert!(ok.is_ok());
    }

    #[test]
    fn bounded_requires_beta_target() {
        let sys = sys3();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let err = Query::new(Phi::True, a)
            .bounded(2)
            .run_on(&sys)
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn empty_targets_short_circuit_without_searching() {
        let sys = sys3();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let out = Query::new(Phi::True, a)
            .set(ObjSet::empty())
            .run_on(&sys)
            .unwrap();
        assert!(!out.holds());
        assert_eq!(out.report.engine, "none");
        let out = Query::matrix(Phi::True, Vec::new()).run_on(&sys).unwrap();
        assert_eq!(out.into_rows().unwrap().len(), 0);
    }

    #[test]
    fn per_query_sink_observes_run_on_shared_oracle() {
        let sys = sys3();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let beta = u.obj("beta").unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        let sink = Arc::new(RecordingSink::new());
        let out = Query::new(Phi::True, a)
            .beta(beta)
            .sink(sink.clone())
            .run(&oracle)
            .unwrap();
        assert!(out.holds());
        assert_eq!(sink.count(|e| matches!(e, QueryEvent::QueryDone { .. })), 1);
        assert!(sink.count(|e| matches!(e, QueryEvent::BfsLevel { .. })) > 0);
        assert_eq!(sink.count(|e| matches!(e, QueryEvent::Witness { .. })), 1);
    }
}
