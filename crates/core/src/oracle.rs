//! Compile-once query sessions: the [`Oracle`].
//!
//! Every decision procedure in this crate reduces to repeated questions
//! about one fixed system — pair reachability for `A ▷φ β`, successor
//! rows for the induction kernels, Sat(φ) enumerations for everything.
//! Before this module existed each public entry point recompiled the
//! system and re-enumerated Sat(φ) per call; an [`Oracle`] pins those
//! system-wide artefacts in one place instead:
//!
//! - the [`CompiledSystem`] successor tables, built **once** at
//!   construction (or not at all when the engine falls back to the
//!   interpreter — see below). A sparse system's row store lives in the
//!   compiled system itself, so every pair search and every op-kernel
//!   sweep of [`crate::induction`], [`crate::classify`] and
//!   [`crate::after`] reads and extends the same rows
//!   (`Oracle::successors`);
//! - interned `Sat(φ)` enumerations, hash-indexed and confirmed by
//!   structural φ equality (never re-enumerated for a φ the Oracle has
//!   already seen);
//! - a pool of reusable search buffers (visited structure, BFS node
//!   arena), so a sweep of thousands of pair searches allocates only on
//!   growth;
//! - every object's static cone of influence ([`crate::cone`]), computed
//!   once at construction when the system is known total (a dense table
//!   with no poison entry, every operation a command), so queries the
//!   cone already decides answer "no flow" without searching.
//!
//! An Oracle answers nothing by itself: [`crate::query::Query::run`]
//! asks it questions, and one-shot [`crate::query::Query::run_on`] runs
//! build a short-lived Oracle per call, so there is exactly one code
//! path. The provers ([`crate::solve`], [`crate::cover`],
//! [`crate::induction`]) hold one Oracle across their whole run, which is
//! where the compile-once payoff lands.
//!
//! # When does an Oracle interpret instead of compiling?
//!
//! [`Engine::Interpreted`] never compiles. [`Engine::Auto`] compiles
//! unless the state space has ≥ 2³² states (packed `u64` pair keys no
//! longer fit); in that case every search runs on the interpreted
//! reference engine and [`OracleStats::compiles`] stays 0. Within the
//! compiled regime, `Auto` picks dense tables when they fit the
//! [`CompileBudget`] and lazy sparse rows otherwise — or when the φ the
//! Oracle was built for (one-shot [`crate::query::Query::run_on`] runs
//! build theirs for the query's φ) has a thin satisfying set.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::compiled::{par_map_chunks, CompileBudget, CompiledSystem, Engine, Rows, TableKind};
use crate::cone::{self, Cones};
use crate::constraint::{Phi, StateSet};
use crate::depend::{self, SatPartition};
use crate::error::{Error, Result};
use crate::reach::{
    self, compiled_search, interpreted_search, DependsWitness, SearchBuffers, SearchLimits,
};
use crate::system::System;
use crate::telemetry::{QueryEvent, QueryReport, Sink, Trace};
use crate::universe::{ObjId, ObjSet};

/// Counters describing the work an [`Oracle`] has performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of times the system was compiled (0 when the Oracle runs
    /// interpreted, 1 otherwise — construction is the only compile).
    pub compiles: u64,
    /// Number of pair searches run through the Oracle.
    pub searches: u64,
    /// Number of distinct φ whose Sat(φ) enumeration is interned.
    pub interned_phis: u64,
}

/// One interned constraint and its Sat(φ) codes.
type Interned = (Phi, Arc<Vec<u64>>);

/// Interned Sat(φ) enumerations, indexed by a hash of φ
/// ([`Phi::cache_hash_into`]). The hash only finds the bucket; every hit
/// is confirmed with [`Phi::cache_eq`], so colliding constraints keep
/// separate entries. The hasher is keyed per cache, so clients cannot
/// craft constraints that all land in one bucket.
#[derive(Default)]
struct SatCache {
    hasher: RandomState,
    buckets: HashMap<u64, Vec<Interned>>,
    /// Entries across all buckets: the Oracle's interned-φ count.
    len: u64,
}

impl SatCache {
    fn hash(&self, phi: &Phi) -> u64 {
        let mut h = self.hasher.build_hasher();
        phi.cache_hash_into(&mut h);
        h.finish()
    }

    fn get(&self, hash: u64, phi: &Phi) -> Option<Arc<Vec<u64>>> {
        self.buckets
            .get(&hash)?
            .iter()
            .find(|(p, _)| p.cache_eq(phi))
            .map(|(_, codes)| Arc::clone(codes))
    }

    /// Interns `codes` for φ and returns the shared enumeration: on a
    /// race, the entry already present wins, so every caller shares one
    /// allocation.
    fn insert(&mut self, hash: u64, phi: &Phi, codes: Arc<Vec<u64>>) -> Arc<Vec<u64>> {
        let bucket = self.buckets.entry(hash).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(p, _)| p.cache_eq(phi)) {
            return Arc::clone(existing);
        }
        bucket.push((phi.clone(), Arc::clone(&codes)));
        self.len += 1;
        codes
    }
}

/// A compile-once query session over one [`System`]. See the module docs
/// for what is shared; see [`crate::reach`] for the search semantics.
/// Ask it questions with [`crate::query::Query::run`].
///
/// An `Oracle` is `Sync`: the provers share one by reference across
/// scoped worker threads (pieces, cylinder classes, worth-matrix rows).
///
/// # Examples
///
/// ```
/// use sd_core::{examples, ObjSet, Oracle, Phi, Query};
///
/// let sys = examples::flag_copy_system(3)?;
/// let u = sys.universe();
/// let oracle = Oracle::new(&sys)?;
/// // Many queries, one compile.
/// for obj in u.objects() {
///     let _ = Query::new(Phi::True, ObjSet::singleton(obj)).run(&oracle)?;
/// }
/// assert_eq!(oracle.stats().compiles, 1);
/// # Ok::<(), sd_core::Error>(())
/// ```
pub struct Oracle<'s> {
    sys: &'s System,
    ns: u64,
    budget: CompileBudget,
    /// `None` ⇒ every search runs interpreted.
    compiled: Option<CompiledSystem<'s>>,
    /// Every object's cone of influence, present only where the cone
    /// argument holds: a dense table with no poison entry and no native
    /// operation. `None` ⇒ every query searches.
    cones: Option<Cones>,
    /// Interned Sat(φ) enumerations. A served system interns every
    /// distinct φ its clients send (over a thousand in one `sdbench`
    /// cold_search run), so lookups go through a hash index.
    sat_cache: Mutex<SatCache>,
    /// Reusable search buffers (one per concurrently running search).
    pool: Mutex<Vec<SearchBuffers>>,
    /// Telemetry sink, attached at construction so compile events are
    /// observable. `None` ⇒ uninstrumented (one branch per emission
    /// site, no event construction).
    sink: Option<Arc<dyn Sink>>,
    compiles: u64,
    searches: AtomicU64,
}

impl<'s> Oracle<'s> {
    /// An Oracle with [`Engine::Auto`] and the default budget.
    pub fn new(sys: &'s System) -> Result<Oracle<'s>> {
        Oracle::with_engine(sys, Engine::Auto, &CompileBudget::default())
    }

    /// An Oracle with an explicit engine and budget.
    pub fn with_engine(
        sys: &'s System,
        engine: Engine,
        budget: &CompileBudget,
    ) -> Result<Oracle<'s>> {
        Oracle::build(sys, engine, budget, None, None)
    }

    /// An instrumented Oracle: every compile, partition lookup and
    /// search reports [`QueryEvent`]s to `sink`. The sink must be
    /// attached at construction because compilation happens here.
    pub fn with_sink(
        sys: &'s System,
        engine: Engine,
        budget: &CompileBudget,
        sink: Arc<dyn Sink>,
    ) -> Result<Oracle<'s>> {
        Oracle::build(sys, engine, budget, None, Some(sink))
    }

    /// An Oracle tuned for queries under one constraint: Sat(φ) is
    /// enumerated up front (and interned), and [`Engine::Auto`] refines
    /// on its thinness exactly like the one-shot search paths. This is
    /// what one-shot [`crate::query::Query::run_on`] runs construct per
    /// call.
    pub(crate) fn for_phi(
        sys: &'s System,
        phi: &Phi,
        engine: Engine,
        budget: &CompileBudget,
        sink: Option<Arc<dyn Sink>>,
    ) -> Result<Oracle<'s>> {
        let codes = Arc::new(depend::sat_codes(sys, phi)?);
        if let Some(s) = &sink {
            s.record(&QueryEvent::PartitionMiss {
                states: codes.len() as u64,
            });
        }
        let oracle = Oracle::build(sys, engine, budget, Some(codes.len() as u64), sink)?;
        {
            let mut cache = oracle.sat_cache.lock().expect("sat cache lock");
            let hash = cache.hash(phi);
            cache.insert(hash, phi, codes);
        }
        Ok(oracle)
    }

    fn build(
        sys: &'s System,
        engine: Engine,
        budget: &CompileBudget,
        sat_hint: Option<u64>,
        sink: Option<Arc<dyn Sink>>,
    ) -> Result<Oracle<'s>> {
        let ns = sys.state_count()?;
        let compiled = if reach::wants_interpreter(engine, ns) {
            None
        } else if ns >= reach::MAX_COMPILED_STATES {
            return Err(Error::Invalid(format!(
                "state space of {ns} states exceeds the compiled pair-key range"
            )));
        } else {
            let engine = reach::refine_auto(engine, sat_hint.unwrap_or(ns), ns);
            if let Some(s) = &sink {
                s.record(&QueryEvent::CompileStart {
                    states: ns,
                    ops: sys.num_ops() as u64,
                });
            }
            let start = std::time::Instant::now();
            let cs = CompiledSystem::compile(sys, engine, budget)?;
            if let Some(s) = &sink {
                s.record(&QueryEvent::CompileFinish {
                    kind: cs.kind().engine_name(),
                    wall_ns: start.elapsed().as_nanos() as u64,
                });
            }
            Some(cs)
        };
        let compiles = u64::from(compiled.is_some());
        let cones = match &compiled {
            Some(cs) if cs.is_total() => Cones::of(sys),
            _ => None,
        };
        Ok(Oracle {
            sys,
            ns,
            budget: *budget,
            compiled,
            cones,
            sat_cache: Mutex::new(SatCache::default()),
            pool: Mutex::new(Vec::new()),
            sink,
            compiles,
            searches: AtomicU64::new(0),
        })
    }

    /// The underlying system.
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// Work counters so far.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            compiles: self.compiles,
            searches: self.searches.load(Ordering::Relaxed),
            interned_phis: self.sat_cache.lock().expect("sat cache lock").len,
        }
    }

    /// The telemetry sink attached at construction, if any.
    pub(crate) fn sink_ref(&self) -> Option<&dyn Sink> {
        self.sink.as_deref()
    }

    /// Whether `Sat(φ)` for this φ is already interned (i.e. a query on
    /// it would hit the partition cache).
    pub fn phi_interned(&self, phi: &Phi) -> bool {
        let cache = self.sat_cache.lock().expect("sat cache lock");
        cache.get(cache.hash(phi), phi).is_some()
    }

    /// The engine label searches through this Oracle report.
    pub(crate) fn engine_name(&self) -> &'static str {
        self.table_kind()
            .map_or("interpreted", |kind| kind.engine_name())
    }

    /// Table layout of the compiled system, `None` when interpreted.
    pub(crate) fn table_kind(&self) -> Option<TableKind> {
        self.compiled.as_ref().map(|cs| cs.kind())
    }

    /// The interned `Sat(φ)` enumeration (ascending state codes),
    /// computing and caching it on first use.
    pub fn sat_codes(&self, phi: &Phi) -> Result<Arc<Vec<u64>>> {
        self.sat_codes_at(phi, self.sink_ref())
    }

    /// [`Oracle::sat_codes`] reporting hit/miss events to an explicit
    /// sink (a per-query sink overriding the Oracle's own).
    pub(crate) fn sat_codes_at(&self, phi: &Phi, sink: Option<&dyn Sink>) -> Result<Arc<Vec<u64>>> {
        let (hash, hit) = {
            let cache = self.sat_cache.lock().expect("sat cache lock");
            let hash = cache.hash(phi);
            (hash, cache.get(hash, phi))
        };
        if let Some(codes) = hit {
            if let Some(s) = sink {
                s.record(&QueryEvent::PartitionHit {
                    states: codes.len() as u64,
                });
            }
            return Ok(codes);
        }
        // Enumerate outside the lock; on a race the first entry wins so
        // every caller shares one allocation.
        let codes = Arc::new(depend::sat_codes(self.sys, phi)?);
        if let Some(s) = sink {
            s.record(&QueryEvent::PartitionMiss {
                states: codes.len() as u64,
            });
        }
        Ok(self
            .sat_cache
            .lock()
            .expect("sat cache lock")
            .insert(hash, phi, codes))
    }

    /// `Sat(φ)` as a state set, built from the interned enumeration.
    pub(crate) fn sat_set(&self, phi: &Phi) -> Result<StateSet> {
        let mut out = StateSet::new(self.ns);
        for &code in self.sat_codes(phi)?.iter() {
            out.insert(code);
        }
        Ok(out)
    }

    /// `Sat(φ)` partitioned into `=A=` classes, from the interned
    /// enumeration.
    pub fn partition(&self, phi: &Phi, a: &ObjSet) -> Result<SatPartition> {
        let codes = self.sat_codes(phi)?;
        Ok(SatPartition::from_codes(self.sys.universe(), &codes, a))
    }

    /// Whether β's cone of influence misses `a`, which proves `A ▷̸φ β`
    /// for every φ and every history bound (see [`crate::cone`]). Always
    /// `false` where the cone does not apply, so the caller searches.
    pub(crate) fn cone_excludes(&self, a: &ObjSet, beta: ObjId) -> bool {
        self.cones.as_ref().is_some_and(|c| c.excludes(a, beta))
    }

    /// Runs one pair search over an explicit partition, borrowing a
    /// buffer set from the pool. Levels at depth `max_depth` are
    /// discovered but not expanded (`u32::MAX`: no bound). Returns the
    /// witness, when `found` stopped the search at a goal pair, and the
    /// search's cost record (engine, pair and level counts, hot-path
    /// counters; the caller fills in the query-level fields).
    pub(crate) fn search(
        &self,
        part: &SatPartition,
        limits: &SearchLimits,
        max_depth: u32,
        sink: Option<&dyn Sink>,
        found: impl FnMut(u64, u64) -> bool,
    ) -> Result<(Option<DependsWitness>, QueryReport)> {
        self.searches.fetch_add(1, Ordering::Relaxed);
        let mut trace = Trace::new(sink);
        let witness = match &self.compiled {
            None => interpreted_search(self.sys, part, limits, max_depth, &mut trace, found)?,
            Some(cs) => {
                let mut bufs = self
                    .pool
                    .lock()
                    .expect("buffer pool lock")
                    .pop()
                    .unwrap_or_else(|| SearchBuffers::new(self.ns, &self.budget));
                let out =
                    compiled_search(cs, part, &mut bufs, limits, max_depth, &mut trace, found);
                self.pool.lock().expect("buffer pool lock").push(bufs);
                out?
            }
        };
        Ok((witness, trace.report))
    }

    /// `A ▷ β` over an explicit partition, within `max_depth` steps (see
    /// [`Oracle::search`]). [`crate::query::Query`] and the provers'
    /// per-class and per-piece checks run through here.
    pub(crate) fn depends_partition(
        &self,
        part: &SatPartition,
        beta: ObjId,
        limits: &SearchLimits,
        max_depth: u32,
        sink: Option<&dyn Sink>,
    ) -> Result<(Option<DependsWitness>, QueryReport)> {
        let (stride, dom) = reach::extractor(self.sys.universe(), beta);
        self.search(part, limits, max_depth, sink, move |c1, c2| {
            (c1 / stride) % dom != (c2 / stride) % dom
        })
    }

    /// All sinks of one source set, `{ β | A ▷φ β }`, over the interned
    /// `Sat(φ)` codes. Objects whose cone misses A cannot be sinks, so
    /// they leave the goal set; when none remain, no search runs and the
    /// report's engine is `"cone"`. Otherwise one search runs, stopping
    /// early once every remaining candidate is known to be a sink.
    pub(crate) fn sinks(
        &self,
        codes: &[u64],
        a: &ObjSet,
        limits: &SearchLimits,
        sink: Option<&dyn Sink>,
    ) -> Result<(ObjSet, QueryReport)> {
        let u = self.sys.universe();
        let extractors: Vec<(ObjId, u64, u64)> = u
            .objects()
            .filter(|&obj| !self.cone_excludes(a, obj))
            .map(|obj| {
                let (stride, dom) = reach::extractor(u, obj);
                (obj, stride, dom)
            })
            .collect();
        if extractors.is_empty() {
            return Ok((ObjSet::empty(), QueryReport::empty(cone::ENGINE)));
        }
        let part = SatPartition::from_codes(u, codes, a);
        let total = extractors.len();
        let mut out = ObjSet::empty();
        let mut count = 0usize;
        let (_, report) = self.search(&part, limits, u32::MAX, sink, |c1, c2| {
            for &(obj, stride, dom) in &extractors {
                if !out.contains(obj) && (c1 / stride) % dom != (c2 / stride) % dom {
                    out.insert(obj);
                    count += 1;
                }
            }
            count == total
        })?;
        Ok((out, report))
    }

    /// One sinks row per source set, sharing the interned Sat(φ)
    /// enumeration; rows run in parallel on scoped threads, each
    /// borrowing buffers from the pool. The report sums the rows' counts
    /// and keeps the deepest level; its engine is `"cone"` only when the
    /// cone decided every row. The limits apply to each row's search
    /// independently; the deadline is shared, so the whole matrix
    /// respects it.
    pub(crate) fn sinks_matrix(
        &self,
        phi: &Phi,
        sources: &[ObjSet],
        limits: &SearchLimits,
        sink: Option<&dyn Sink>,
    ) -> Result<(Vec<ObjSet>, QueryReport)> {
        let codes = self.sat_codes_at(phi, sink)?;
        let row = |src: &ObjSet| self.sinks(&codes, src, limits, sink);
        let chunked: Vec<Vec<Result<(ObjSet, QueryReport)>>> =
            par_map_chunks(sources, 1, |chunk| chunk.iter().map(&row).collect());
        let mut total = QueryReport::empty(cone::ENGINE);
        let mut rows = Vec::with_capacity(sources.len());
        for res in chunked.into_iter().flatten() {
            let (set, report) = res?;
            if report.engine != cone::ENGINE {
                total.engine = report.engine;
            }
            total.absorb(&report);
            rows.push(set);
        }
        Ok((rows, total))
    }

    /// A view of the successor function for the op-kernel sweeps, with
    /// the sparse rows of every state in `codes` materialised in the
    /// compiled system's row store (counted on the Oracle's sink). When
    /// the Oracle runs interpreted, the view interprets each step. See
    /// [`Rows`] for the one rule its holder must keep.
    pub(crate) fn successors(&self, codes: &[u64]) -> Rows<'_> {
        match &self.compiled {
            None => Rows::Interpreted(self.sys),
            Some(cs) => {
                cs.ensure_rows(codes, &mut Trace::new(self.sink_ref()));
                cs.rows()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::query::Query;

    #[test]
    fn one_compile_many_queries() {
        let sys = examples::flag_copy_system(3).unwrap();
        let u = sys.universe();
        let oracle = Oracle::new(&sys).unwrap();
        let sources: Vec<ObjSet> = u.objects().map(ObjSet::singleton).collect();
        for a in &sources {
            for beta in u.objects() {
                let q = Query::new(Phi::True, a.clone()).beta(beta);
                let via_oracle = q.run(&oracle).unwrap().into_witness();
                let direct = q.run_on(&sys).unwrap().into_witness();
                assert_eq!(
                    via_oracle.map(|w| (w.history, w.sigma1, w.sigma2)),
                    direct.map(|w| (w.history, w.sigma1, w.sigma2)),
                );
            }
        }
        let stats = oracle.stats();
        assert_eq!(stats.compiles, 1);
        // Of the 16 (a, β) pairs, 8 have a ∈ cone(β) and search; the cone
        // answers the other 8 (cone(x) = {x}, cone(flag) = {flag},
        // cone(alpha) = {alpha, x}) without one.
        assert_eq!(stats.searches, 8);
        assert_eq!(stats.interned_phis, 1);
    }

    #[test]
    fn sat_enumerations_are_interned() {
        let sys = examples::flag_copy_system(3).unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        let a = oracle.sat_codes(&Phi::True).unwrap();
        let b = oracle.sat_codes(&Phi::True).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same φ must share one enumeration");
        let _ = oracle.sat_codes(&Phi::False).unwrap();
        assert_eq!(oracle.stats().interned_phis, 2);
    }

    #[test]
    fn interning_confirms_identity_behind_the_hash() {
        let sys = examples::flag_copy_system(3).unwrap();
        let oracle = Oracle::new(&sys).unwrap();
        // Same name, different closures: two entries, never a shared hit.
        let even = Phi::pred("p", |sys, s| Ok(s.encode(sys.universe()) % 2 == 0));
        let odd = Phi::pred("p", |sys, s| Ok(s.encode(sys.universe()) % 2 == 1));
        let a = oracle.sat_codes(&even).unwrap();
        assert!(!oracle.phi_interned(&odd));
        let b = oracle.sat_codes(&odd).unwrap();
        assert_ne!(a, b);
        // A clone shares the closure, so it hits the same entry.
        assert!(Arc::ptr_eq(&a, &oracle.sat_codes(&even.clone()).unwrap()));
        assert_eq!(oracle.stats().interned_phis, 2);

        // Forced hash collision: both entries live in one bucket and each
        // lookup finds its own.
        let mut cache = SatCache::default();
        let (p, q) = (Phi::True, Phi::False);
        let (cp, cq) = (Arc::new(vec![1]), Arc::new(vec![2]));
        assert!(Arc::ptr_eq(&cache.insert(7, &p, Arc::clone(&cp)), &cp));
        assert!(Arc::ptr_eq(&cache.insert(7, &q, Arc::clone(&cq)), &cq));
        // A racing second insert keeps the first entry.
        assert!(Arc::ptr_eq(&cache.insert(7, &p, Arc::new(vec![3])), &cp));
        assert_eq!(cache.len, 2);
        assert!(Arc::ptr_eq(&cache.get(7, &q).unwrap(), &cq));
        assert!(cache.get(8, &q).is_none());
    }

    #[test]
    fn interpreted_oracle_never_compiles() {
        let sys = examples::flag_copy_system(3).unwrap();
        let u = sys.universe();
        let oracle =
            Oracle::with_engine(&sys, Engine::Interpreted, &CompileBudget::default()).unwrap();
        let a = ObjSet::singleton(u.objects().next().unwrap());
        let out = Query::new(Phi::True, a)
            .beta(u.objects().last().unwrap())
            .run(&oracle)
            .unwrap();
        assert_eq!(out.report.engine, "interpreted");
        assert_eq!(oracle.stats().compiles, 0);
    }

    /// Every (source, β) query of `pointer_chain(3, 2)` under `φ = tt`.
    fn chain_queries(sys: &System) -> Vec<Query> {
        let u = sys.universe();
        u.objects()
            .flat_map(|a| {
                u.objects()
                    .map(move |beta| Query::new(Phi::True, ObjSet::singleton(a)).beta(beta))
            })
            .collect()
    }

    /// Verdict, witness and materialised-row count of one query.
    type Answer = (Option<(crate::History, crate::State, crate::State)>, u64);

    fn answer(q: &Query, oracle: &Oracle) -> Answer {
        let out = q.run(oracle).unwrap();
        let rows = out.report.rows_materialized;
        let w = out.into_witness().map(|w| (w.history, w.sigma1, w.sigma2));
        (w, rows)
    }

    #[test]
    fn concurrent_searches_materialise_each_row_once() {
        let sys = examples::pointer_chain_system(3, 2).unwrap();
        let budget = CompileBudget::default();
        let queries = chain_queries(&sys);
        let fresh = Oracle::with_engine(&sys, Engine::CompiledSparse, &budget).unwrap();
        let sequential: Vec<Answer> = queries.iter().map(|q| answer(q, &fresh)).collect();
        let sequential_rows: u64 = sequential.iter().map(|a| a.1).sum();
        assert!(sequential_rows > 0);

        // Eight threads released together, each taking every eighth query.
        const THREADS: usize = 8;
        let shared = Oracle::with_engine(&sys, Engine::CompiledSparse, &budget).unwrap();
        let barrier = std::sync::Barrier::new(THREADS);
        let mut concurrent: Vec<Option<Answer>> = vec![None; queries.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (queries, shared, barrier) = (&queries, &shared, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        (t..queries.len())
                            .step_by(THREADS)
                            .map(|i| (i, answer(&queries[i], shared)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, a) in h.join().unwrap() {
                    concurrent[i] = Some(a);
                }
            }
        });
        let mut concurrent_rows = 0;
        for (i, (got, want)) in concurrent.into_iter().zip(&sequential).enumerate() {
            let got = got.expect("every query ran");
            assert_eq!(got.0, want.0, "verdict or witness differs for query {i}");
            concurrent_rows += got.1;
        }
        assert_eq!(
            concurrent_rows, sequential_rows,
            "each sparse row is materialised exactly once"
        );
    }

    #[test]
    fn searches_reuse_the_rows_a_prover_materialised() {
        // φ = tt is invariant, so the invariance sweep touches every state
        // a later search can reach.
        let sys = examples::pointer_chain_system(3, 2).unwrap();
        let oracle =
            Oracle::with_engine(&sys, Engine::CompiledSparse, &CompileBudget::default()).unwrap();
        assert!(crate::classify::is_invariant_with(&oracle, &Phi::True).unwrap());
        let mut reused = 0;
        for q in chain_queries(&sys) {
            let report = q.run(&oracle).unwrap().report;
            assert_eq!(report.rows_materialized, 0);
            reused += report.rows_reused;
        }
        assert!(reused > 0, "the searches read rows");
    }

    #[test]
    fn matrix_agrees_with_rows() {
        let sys = examples::nontransitive_system(2).unwrap();
        let u = sys.universe();
        let oracle = Oracle::new(&sys).unwrap();
        let sources: Vec<ObjSet> = u.objects().map(ObjSet::singleton).collect();
        let out = Query::matrix(Phi::True, sources.clone())
            .run(&oracle)
            .unwrap();
        let mut visited = 0;
        for (a, row) in sources.iter().zip(out.clone().into_rows().unwrap()) {
            let single = Query::new(Phi::True, a.clone()).run(&oracle).unwrap();
            visited += single.report.visited_pairs;
            assert_eq!(row, single.into_sinks().unwrap());
        }
        assert_eq!(out.report.visited_pairs, visited, "rows' pairs add up");
    }
}
