//! Strong dependency over *all* histories: `A ▷φ β` (Defs 2-7, 2-11, 5-7).
//!
//! Deciding `∃H. A ▷φH β` looks like an unbounded search, but for finite
//! systems it is exactly a reachability question on the *self-composition*
//! of the system: run two copies in lockstep from a pair of φ-states that
//! differ only at A, and ask whether a pair differing at β is reachable.
//! This module implements that product-automaton BFS, with witness
//! reconstruction (the actual history H and state pair).
//!
//! Two engines run the same search (selected by [`Engine`](crate::Engine)):
//!
//! - **Interpreted** — the reference implementation: every pair expansion
//!   decodes both states, walks the operation ASTs, and re-encodes.
//! - **Compiled** — the [`crate::compiled`] tables: the BFS runs over
//!   packed `u64` pair codes only, the visited structure is a flat
//!   [`BitSet`] (falling back to a hash set above
//!   [`CompileBudget::max_dense_pair_bits`]). The roots are streamed
//!   from the [`SatPartition`] in ascending order, unsorted; they get
//!   nodes but no visited bit, and a candidate that is a root (both
//!   sides in Sat(φ), agreeing off A) is dropped by a bit test and a
//!   masked compare instead. Each later level is expanded in blocks of
//!   frontier pairs — 256, then twice the previous block — on the
//!   calling thread, or split across scoped threads (the caller running
//!   the first chunk) once a block holds enough pair expansions to pay
//!   for the spawns. After each block its candidates are merged
//!   sequentially in frontier order, and the merge returns at the first
//!   goal, so discovery order — and therefore the reconstructed witness
//!   and its minimal length — is identical to the interpreted engine's,
//!   wherever a chunk ran, and a flow query leaves the rest of its last
//!   level unexpanded.
//!
//! Both engines check the goal when a pair is *discovered* (first
//! reached), not when it is dequeued, and both expand pairs
//! in the same frontier × operation order. They are therefore
//! observationally identical — same verdicts, same minimal witnesses, the
//! same `visited_pairs`/`levels`/`pair_expansions` in the
//! [`crate::telemetry::QueryReport`] they fill, and the same first error
//! on invalid systems.
//!
//! Every pair is discovered at its minimal depth, so a search that stops
//! expanding after level k decides the bounded relation "some history of
//! length ≤ k transmits" exactly: that is how
//! [`crate::query::Query::bounded`] runs, and its witness is the
//! unbounded search's whenever that witness has length ≤ k.
//!
//! The same search underlies sink queries (all β reachable from a source
//! set, i.e. one row of the §3.6 worth measure) and batched matrix sweeps
//! over a single compiled system. The public entry point is the
//! [`crate::query::Query`] builder — one-shot runs
//! ([`crate::query::Query::run_on`]) construct a short-lived
//! [`crate::oracle::Oracle`] per call; hold an `Oracle` yourself and use
//! [`crate::query::Query::run`] to amortise the compile and Sat(φ)
//! enumeration across many queries. Both engines report [`QueryEvent`]s
//! (BFS levels, memo-row reuse, witnesses) to an attached
//! [`crate::telemetry::Sink`].

use std::collections::{HashMap, VecDeque};

use crate::bitset::BitSet;
use crate::compiled::{par_map_chunks, CompileBudget, CompiledSystem, TableKind, POISON};
use crate::depend::SatPartition;
use crate::error::{Error, Result};
use crate::fastmap::U64Set;
use crate::history::{History, OpId};
use crate::state::State;
use crate::system::System;
use crate::telemetry::{QueryEvent, Trace};
use crate::universe::{ObjId, Universe};

/// A witness that `A ▷φ β`: the history and initial state pair.
#[derive(Debug, Clone)]
pub struct DependsWitness {
    /// The history transmitting the variety.
    pub history: History,
    /// First initial state (satisfies φ).
    pub sigma1: State,
    /// Second initial state (satisfies φ, differs from `sigma1` only at A).
    pub sigma2: State,
}

/// Caller-imposed cut-offs on one pair search: a visited-pair budget
/// and/or a wall-clock deadline. The default imposes neither.
///
/// Both cut-offs yield *structured* errors ([`Error::BudgetExhausted`],
/// [`Error::DeadlineExceeded`]) rather than partial answers, so a
/// serving layer can refuse work deterministically. The budget is
/// engine-independent: both engines discover pairs in the same order,
/// so they exhaust at the same pair. The compiled engines check the
/// deadline when the search starts and at every block boundary, root
/// blocks included (a level's first block holds 256 pairs, each later
/// one twice the previous), so overshoot is bounded by one block; the
/// interpreted reference checks it once per level. Both cut-offs apply
/// to bounded queries too, which run the same search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum distinct pairs the search may discover. A pair that
    /// satisfies the goal is always reported, even as the last one in
    /// budget.
    pub max_pairs: Option<u64>,
    /// Wall-clock deadline for the search.
    pub deadline: Option<std::time::Instant>,
}

impl SearchLimits {
    /// No limits: run to completion.
    pub const NONE: SearchLimits = SearchLimits {
        max_pairs: None,
        deadline: None,
    };

    /// Whether any cut-off is configured.
    pub fn is_none(&self) -> bool {
        self.max_pairs.is_none() && self.deadline.is_none()
    }

    #[inline]
    fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(Error::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    #[inline]
    fn check_pairs(&self, visited: u64) -> Result<()> {
        match self.max_pairs {
            Some(limit) if visited > limit => Err(Error::BudgetExhausted {
                visited_pairs: visited,
                limit,
            }),
            _ => Ok(()),
        }
    }
}

/// Canonically ordered pair of encoded states.
type Pair = (u64, u64);

fn canon(a: u64, b: u64) -> Pair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The initial pair frontier: all unordered pairs of distinct φ-states
/// that differ only at A, in ascending order. Classes are disjoint and
/// internally ascending, so the pairs are already canonical and
/// duplicate-free. Built and sorted: the interpreted reference for the
/// compiled engine's stream, [`SatPartition::root_pairs`].
fn initial_pairs(part: &SatPartition) -> Vec<Pair> {
    let mut out = Vec::new();
    for class in part.classes() {
        for (i, &c1) in class.iter().enumerate() {
            for &c2 in &class[i + 1..] {
                out.push((c1, c2));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Bumps the pair count for one BFS depth (instrumented searches only).
fn bump_depth(counts: &mut Vec<u64>, depth: usize) {
    if counts.len() <= depth {
        counts.resize(depth + 1, 0);
    }
    counts[depth] += 1;
}

/// Records how a search ended in its cost record, plus the witness event
/// when it stopped at a goal pair.
fn finish(
    trace: &mut Trace<'_>,
    visited: usize,
    levels: u32,
    witness: Option<DependsWitness>,
) -> Result<Option<DependsWitness>> {
    trace.report.visited_pairs = visited as u64;
    trace.report.levels = levels;
    if witness.is_some() {
        trace.emit(|| QueryEvent::Witness { length: levels });
    }
    Ok(witness)
}

/// Interpreted reference BFS over the pair graph. Calls `found` on every
/// pair as it is *discovered* (roots in ascending order, then candidates
/// in frontier × operation order — the same order the compiled merge
/// uses); when `found` returns `true` the search stops and the witness is
/// reconstructed. Levels at depth `max_depth` are discovered but not
/// expanded. Fills `trace.report`'s engine and search counts.
pub(crate) fn interpreted_search(
    sys: &System,
    part: &SatPartition,
    limits: &SearchLimits,
    max_depth: u32,
    trace: &mut Trace<'_>,
    mut found: impl FnMut(u64, u64) -> bool,
) -> Result<Option<DependsWitness>> {
    let u = sys.universe();
    let num_ops = sys.num_ops() as u64;
    let tracing = trace.sink.is_some();
    trace.report.engine = "interpreted";
    // Pairs discovered per depth, maintained only when a sink is
    // attached: all of depth d is discovered before the first depth-d
    // pair is dequeued, so the count is the level's frontier size.
    let mut depth_counts: Vec<u64> = Vec::new();
    // parent: pair -> (predecessor pair, op applied). Roots map to None.
    let mut parent: HashMap<Pair, Option<(Pair, OpId)>> = HashMap::new();
    let mut queue: VecDeque<(Pair, u32)> = VecDeque::new();
    let witness = |parent: &HashMap<Pair, Option<(Pair, OpId)>>, mut cur: Pair| {
        let mut ops = Vec::new();
        while let Some((prev, op)) = parent[&cur] {
            ops.push(op);
            cur = prev;
        }
        ops.reverse();
        DependsWitness {
            history: History::from_ops(ops),
            sigma1: State::decode(u, cur.0),
            sigma2: State::decode(u, cur.1),
        }
    };
    let mut levels = 0u32;
    limits.check_deadline()?;
    for p in initial_pairs(part) {
        if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(p) {
            e.insert(None);
            if tracing {
                bump_depth(&mut depth_counts, 0);
            }
            if found(p.0, p.1) {
                let w = witness(&parent, p);
                return finish(trace, parent.len(), levels, Some(w));
            }
            limits.check_pairs(parent.len() as u64)?;
            queue.push_back((p, 0));
        }
    }
    // The queue holds pairs in depth order, so the first pair of each
    // depth marks a level boundary: the depth cap, the deadline and the
    // level event all act there, matching the compiled engine's
    // per-level loop.
    let mut level: i64 = -1;
    while let Some((pair, depth)) = queue.pop_front() {
        if i64::from(depth) > level {
            level = i64::from(depth);
            if depth >= max_depth {
                break;
            }
            limits.check_deadline()?;
            trace.emit(|| QueryEvent::BfsLevel {
                level: depth,
                frontier: depth_counts[depth as usize],
                visited: parent.len() as u64,
            });
        }
        trace.report.pair_expansions += num_ops;
        let s1 = State::decode(u, pair.0);
        let s2 = State::decode(u, pair.1);
        for op in sys.op_ids() {
            let n1 = sys.apply(op, &s1)?.encode(u);
            let n2 = sys.apply(op, &s2)?.encode(u);
            if n1 == n2 {
                // Once the two runs coincide they stay equal forever
                // (operations are deterministic): no future difference at β
                // can arise from this branch.
                continue;
            }
            let next = canon(n1, n2);
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next) {
                e.insert(Some((pair, op)));
                levels = levels.max(depth + 1);
                if tracing {
                    bump_depth(&mut depth_counts, depth as usize + 1);
                }
                if found(next.0, next.1) {
                    let w = witness(&parent, next);
                    return finish(trace, parent.len(), levels, Some(w));
                }
                limits.check_pairs(parent.len() as u64)?;
                queue.push_back((next, depth + 1));
            }
        }
    }
    finish(trace, parent.len(), levels, None)
}

/// A discovered pair in the compiled search: packed canonical pair key
/// plus the BFS-tree edge that reached it.
#[derive(Clone, Copy)]
struct Node {
    /// Packed canonical pair `a · |Σ| + b` (`a ≤ b`), or
    /// [`DEFERRED_ERROR`] for a pending expansion error.
    key: u64,
    /// Index of the predecessor node, or [`NO_PARENT`] for roots.
    parent: u32,
    /// Operation index applied at the predecessor.
    op: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// Key of a candidate whose operation errors on a side of its parent
/// pair. No pair key equals it: pair keys are below |Σ|² < (2³² − 1)².
const DEFERRED_ERROR: u64 = u64::MAX;

/// A set of `u64` keys below a known bound: a flat bitmap when the
/// bound fits [`CompileBudget::max_dense_pair_bits`], an open-addressed
/// [`U64Set`] otherwise. The compiled search keeps its visited pairs in
/// one (bound `|Σ|²`) and the sides of its roots in another (bound
/// `|Σ|`).
enum KeySet {
    Dense(BitSet),
    Sparse(U64Set),
}

impl KeySet {
    fn below(bound: Option<u64>, budget: &CompileBudget) -> KeySet {
        match bound {
            Some(bits) if bits <= budget.max_dense_pair_bits => KeySet::Dense(BitSet::new(bits)),
            _ => KeySet::Sparse(U64Set::new()),
        }
    }

    #[inline]
    fn contains(&self, key: u64) -> bool {
        match self {
            KeySet::Dense(b) => b.contains(key),
            KeySet::Sparse(s) => s.contains(key),
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        match self {
            KeySet::Dense(b) => b.insert(key),
            KeySet::Sparse(s) => s.insert(key),
        }
    }

    /// Empties the set, given every key inserted since it was last
    /// empty: a bitmap erases just those, in O(keys) instead of
    /// O(bound).
    fn clear(&mut self, keys: impl Iterator<Item = u64>) {
        match self {
            KeySet::Dense(b) => {
                for key in keys {
                    b.remove(key);
                }
            }
            KeySet::Sparse(s) => s.clear(),
        }
    }
}

/// Reusable scratch for repeated compiled searches over one system: the
/// visited pairs, the marked root sides and the BFS node arena.
/// Successor rows are not scratch: they live in the [`CompiledSystem`]'s
/// one row store, shared by every search and prover sweep over it.
///
/// [`crate::oracle::Oracle`] keeps a pool of these so a sweep of many
/// searches allocates only on growth. Buffers must be created with the
/// same `ns`/budget as the [`CompiledSystem`] they are used with.
pub(crate) struct SearchBuffers {
    /// Keys of the non-root nodes.
    visited: KeySet,
    /// Both sides of every root node.
    root_sides: KeySet,
    /// The codes marked in `root_sides`, each once, so `reset` clears
    /// them without decoding a key per root.
    sides: Vec<u64>,
    nodes: Vec<Node>,
}

impl SearchBuffers {
    pub(crate) fn new(ns: u64, budget: &CompileBudget) -> SearchBuffers {
        SearchBuffers {
            visited: KeySet::below(ns.checked_mul(ns), budget),
            root_sides: KeySet::below(Some(ns), budget),
            sides: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Marks `code` as a side of a root.
    #[inline]
    fn mark_side(&mut self, code: u64) {
        if self.root_sides.insert(code) {
            self.sides.push(code);
        }
    }

    /// Clears the previous search's marks and node arena. A root owns
    /// no visited bit, only its sides' marks (listed in `sides`); every
    /// other node owns its key's visited bit (`compiled_search` inserts
    /// and pushes 1:1), and roots are the arena's prefix. Both sets are
    /// therefore cleared in O(nodes) instead of O(|Σ|²).
    fn reset(&mut self) {
        let roots = self.nodes.partition_point(|n| n.parent == NO_PARENT);
        self.visited
            .clear(self.nodes[roots..].iter().map(|n| n.key));
        self.root_sides.clear(self.sides.drain(..));
        self.nodes.clear();
    }
}

fn push_node(nodes: &mut Vec<Node>, key: u64, parent: u32, op: u32) -> Result<usize> {
    let idx = nodes.len();
    if idx >= NO_PARENT as usize {
        return Err(Error::Invalid(
            "pair search exceeded 2^32 - 1 visited pairs".into(),
        ));
    }
    nodes.push(Node { key, parent, op });
    Ok(idx)
}

fn reconstruct_compiled(u: &Universe, nodes: &[Node], mut idx: usize, ns: u64) -> DependsWitness {
    let mut ops = Vec::new();
    loop {
        let n = nodes[idx];
        if n.parent == NO_PARENT {
            ops.reverse();
            return DependsWitness {
                history: History::from_ops(ops),
                sigma1: State::decode(u, n.key / ns),
                sigma2: State::decode(u, n.key % ns),
            };
        }
        ops.push(OpId(n.op));
        idx = n.parent as usize;
    }
}

/// Frontier pair expansions (frontier pairs × |Δ|) above which a block
/// is expanded in parallel. One `std::thread::scope` that spawns a
/// helper beside an inline chunk costs ≈ 50 µs on a 2-vCPU x86-64 VM
/// (≈ 80–90 µs with two spawns); the compiled search runs ≈ 30 ns per
/// expansion, merge included (≈ 30k expansions per ms in a traced
/// `sdbench` cold_search), so a block this size takes ≈ 2 ms and
/// splitting it saves about twenty times the spawn. Lower cut-offs
/// (2¹³, 2¹⁴) served that workload 16 % and 5 % slower.
const PAR_LEVEL_EXPANSIONS: usize = 1 << 16;

/// Frontier pairs in the first block of a level; each later block of the
/// level holds twice as many as the one before. A flow query stops at
/// the block holding its goal's parent, so most of a wide last level is
/// never expanded, while a level of n pairs still costs only
/// ≈ log₂(n / 256) merges and row batches. The schedule is fixed (not
/// derived from the core count), so expansion counts repeat exactly.
const FIRST_BLOCK: usize = 256;

/// Splits the frontier range `lo..hi` into consecutive blocks of
/// [`FIRST_BLOCK`], then twice, four times … as many pairs.
fn blocks(lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut start = lo;
    let mut len = FIRST_BLOCK;
    std::iter::from_fn(move || {
        (start < hi).then(|| {
            let block = (start, hi.min(start + len));
            start = block.1;
            len *= 2;
            block
        })
    })
}

/// Compiled BFS over packed pair codes. Level 0 streams the roots from
/// the partition; every later level is expanded block by block (each
/// block in parallel above [`PAR_LEVEL_EXPANSIONS`]), with a sequential
/// in-order merge after each block that returns at the first goal (see
/// module docs for why the merge order matters). Same contract as
/// [`interpreted_search`].
pub(crate) fn compiled_search(
    cs: &CompiledSystem<'_>,
    part: &SatPartition,
    bufs: &mut SearchBuffers,
    limits: &SearchLimits,
    max_depth: u32,
    trace: &mut Trace<'_>,
    mut found: impl FnMut(u64, u64) -> bool,
) -> Result<Option<DependsWitness>> {
    let u = cs.system().universe();
    let ns = cs.state_count();
    let num_ops = cs.num_ops();
    trace.report.engine = cs.kind().engine_name();
    bufs.reset();

    // Level 0: the roots, goal-checked in the same ascending order the
    // interpreted engine discovers them (key order equals pair order
    // because the packing is lexicographic). A root gets a node but no
    // visited bit; its sides are marked instead, and the pre-filter
    // below drops every candidate that is a root.
    limits.check_deadline()?;
    let mut roots = part.root_pairs();
    for (start, end) in blocks(0, part.root_pair_count()) {
        if start > 0 {
            limits.check_deadline()?;
        }
        for (c1, c2) in roots.by_ref().take(end - start) {
            bufs.mark_side(c1);
            bufs.mark_side(c2);
            let idx = push_node(&mut bufs.nodes, c1 * ns + c2, NO_PARENT, 0)?;
            if found(c1, c2) {
                let w = reconstruct_compiled(u, &bufs.nodes, idx, ns);
                return finish(trace, bufs.nodes.len(), 0, Some(w));
            }
            limits.check_pairs(bufs.nodes.len() as u64)?;
        }
    }

    let SearchBuffers {
        visited,
        root_sides,
        nodes,
        ..
    } = bufs;

    let min_seq = PAR_LEVEL_EXPANSIONS / num_ops.max(1);
    let expansions = |pairs: usize| (pairs * num_ops) as u64;
    let mut lo = 0usize;
    let mut depth = 0u32;
    let mut levels = 0u32;
    while lo < nodes.len() && depth < max_depth {
        let hi = nodes.len();
        trace.emit(|| QueryEvent::BfsLevel {
            level: depth,
            frontier: (hi - lo) as u64,
            visited: hi as u64,
        });
        depth += 1;
        for (start, end) in blocks(lo, hi) {
            limits.check_deadline()?;
            // Materialise sparse successor rows for every state in the
            // block (a no-op for dense tables), then take this block's
            // one view of the tables. It is dropped before the next
            // block materialises more rows.
            if cs.kind() == TableKind::Sparse {
                let mut codes: Vec<u64> = Vec::with_capacity((end - start) * 2);
                for n in &nodes[start..end] {
                    codes.push(n.key / ns);
                    codes.push(n.key % ns);
                }
                codes.sort_unstable();
                codes.dedup();
                cs.ensure_rows(&codes, trace);
            }
            let rows = cs.rows();
            // Expand the block, in parallel chunks when it is large
            // enough; each chunk emits candidates in frontier × op order.
            let frontier: Vec<(u64, u32)> = nodes[start..end]
                .iter()
                .zip(start as u32..)
                .map(|(n, idx)| (n.key, idx))
                .collect();
            let (rows_ref, visited_ref, sides_ref) = (&rows, &*visited, &*root_sides);
            let candidates: Vec<Vec<Node>> = par_map_chunks(&frontier, min_seq, |chunk| {
                let mut out = Vec::new();
                for &(key, idx) in chunk {
                    let (c1, c2) = (key / ns, key % ns);
                    // One row borrow per side instead of a table lookup per
                    // operation.
                    let r1 = rows_ref.row(c1);
                    let r2 = rows_ref.row(c2);
                    for (op, (&n1, &n2)) in r1.iter().zip(r2).enumerate() {
                        if n1 == POISON || n2 == POISON {
                            // Defer the error so it surfaces in deterministic
                            // merge order.
                            out.push(Node {
                                key: DEFERRED_ERROR,
                                parent: idx,
                                op: op as u32,
                            });
                            continue;
                        }
                        let (n1, n2) = (u64::from(n1), u64::from(n2));
                        if n1 == c1 && n2 == c2 {
                            // The op moved neither side, so the candidate is
                            // this very pair — already discovered. Skipping
                            // here saves the probes; guard-heavy systems
                            // disable most operations in most states.
                            continue;
                        }
                        if n1 == n2 {
                            // Coinciding runs stay equal forever.
                            continue;
                        }
                        let (a, b) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
                        let key = a * ns + b;
                        // Pairs already visited when the block started would
                        // be dropped by the merge anyway; filtering here (a
                        // read-only probe, safe in parallel) keeps the
                        // sequential merge proportional to *novel* pairs, not
                        // to all candidates. A root has no visited bit: it
                        // is a pair of marked sides in one class. The roots
                        // are fixed once level 0 is done, so this test is
                        // final and the merge need not repeat it.
                        if visited_ref.contains(key)
                            || (sides_ref.contains(a)
                                && sides_ref.contains(b)
                                && part.same_class(a, b))
                        {
                            continue;
                        }
                        out.push(Node {
                            key,
                            parent: idx,
                            op: op as u32,
                        });
                    }
                }
                out
            });
            // Sequential merge in frontier order: discovery order — and
            // hence witnesses — match the interpreted FIFO exactly.
            for cand in candidates.into_iter().flatten() {
                if cand.key == DEFERRED_ERROR {
                    // The first poisoned side's error, as the interpreter
                    // would report it.
                    let pkey = nodes[cand.parent as usize].key;
                    let op = cand.op as usize;
                    rows.step(pkey / ns, op)?;
                    return Err(rows
                        .step(pkey % ns, op)
                        .expect_err("a deferred candidate has a poisoned side"));
                }
                if visited.insert(cand.key) {
                    levels = depth;
                    let idx = push_node(nodes, cand.key, cand.parent, cand.op)?;
                    if found(cand.key / ns, cand.key % ns) {
                        // Charged through the goal's parent pair, where the
                        // interpreted engine stops expanding too.
                        trace.report.pair_expansions +=
                            expansions(cand.parent as usize + 1 - start);
                        let w = reconstruct_compiled(u, nodes, idx, ns);
                        return finish(trace, nodes.len(), levels, Some(w));
                    }
                    limits.check_pairs(nodes.len() as u64)?;
                }
            }
            trace.report.pair_expansions += expansions(end - start);
        }
        lo = hi;
    }
    finish(trace, nodes.len(), levels, None)
}

/// Precomputed `(stride, domain size)` for extracting one object's index
/// from an encoded state without decoding.
pub(crate) fn extractor(u: &Universe, obj: ObjId) -> (u64, u64) {
    (u.stride(obj) as u64, u.domain(obj).size() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::Engine;
    use crate::constraint::Phi;
    use crate::expr::Expr;
    use crate::op::{Cmd, Op};
    use crate::oracle::Oracle;
    use crate::query::{Query, QueryOutcome};
    use crate::telemetry::RecordingSink;
    use crate::universe::{Domain, ObjSet, Universe};
    use std::sync::Arc;

    /// How an Oracle is built: an engine, a budget, and the engine label
    /// its searches must report.
    type Mode = (Engine, CompileBudget, &'static str);

    /// One mode per search path on the small test systems: the
    /// interpreted reference, dense tables with a visited bitmap, dense
    /// tables with a hashed visited set, and sparse rows.
    fn modes() -> [Mode; 4] {
        let dense = CompileBudget::default();
        let hashed = CompileBudget {
            max_dense_pair_bits: 0,
            ..dense
        };
        let sparse = CompileBudget {
            max_dense_entries: 0,
            ..dense
        };
        [
            (Engine::Interpreted, dense, "interpreted"),
            (Engine::Auto, dense, "compiled-dense"),
            (Engine::Auto, hashed, "compiled-dense"),
            (Engine::Auto, sparse, "compiled-sparse"),
        ]
    }

    /// Shorthand: a β-target query on cloned inputs.
    fn q(phi: &Phi, a: &ObjSet, beta: ObjId) -> Query {
        Query::new(phi.clone(), a.clone()).beta(beta)
    }

    /// Runs `query` on a fresh Oracle built in `mode`, and checks the
    /// engine label: the mode's own, or `"cone"` where a dense Oracle's
    /// cone decided without a search.
    fn run_in(sys: &System, query: &Query, (engine, budget, label): Mode) -> QueryOutcome {
        let oracle = Oracle::with_engine(sys, engine, &budget).unwrap();
        let out = query.run(&oracle).unwrap();
        let got = out.report.engine;
        assert!(
            got == label || (got == "cone" && label == "compiled-dense"),
            "{engine:?} under {budget:?} reports {got}, not {label}"
        );
        out
    }

    /// §3.3 system: δ1: if flag then β ← α else β ← 0;
    /// δ2: (flag ← tt; α ← x).
    fn flag_sys() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 2).unwrap()),
            ("beta".into(), Domain::int_range(0, 2).unwrap()),
            ("flag".into(), Domain::boolean()),
            ("x".into(), Domain::int_range(0, 2).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let flag = u.obj("flag").unwrap();
        let x = u.obj("x").unwrap();
        System::new(
            u,
            vec![
                Op::from_cmd(
                    "d1",
                    Cmd::If(
                        Expr::var(flag),
                        Box::new(Cmd::assign(b, Expr::var(a))),
                        Box::new(Cmd::assign(b, Expr::int(0))),
                    ),
                ),
                Op::from_cmd(
                    "d2",
                    Cmd::Seq(vec![
                        Cmd::assign(flag, Expr::bool(true)),
                        Cmd::assign(a, Expr::var(x)),
                    ]),
                ),
            ],
        )
    }

    #[test]
    fn initial_constraint_not_invariant_sec_3_3() {
        // φ(σ) ≡ ¬σ.flag solves ¬α ▷φ β even though δ2 later sets the
        // flag — by then δ2 has overwritten α's initial variety.
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let flag = u.obj("flag").unwrap();
        let phi = Phi::expr(Expr::var(flag).not());
        assert!(!q(&phi, &ObjSet::singleton(a), b)
            .run_on(&sys)
            .unwrap()
            .holds());
        // Without the constraint there is a flow.
        let w = q(&Phi::True, &ObjSet::singleton(a), b)
            .run_on(&sys)
            .unwrap()
            .into_witness()
            .unwrap();
        // Replay the witness to double-check it.
        let o1 = sys.run(&w.sigma1, &w.history).unwrap();
        let o2 = sys.run(&w.sigma2, &w.history).unwrap();
        assert_ne!(o1.index(b), o2.index(b));
        assert!(w.sigma1.eq_except(&w.sigma2, &ObjSet::singleton(a)));
    }

    #[test]
    fn bfs_agrees_with_bounded_enumeration() {
        let sys = flag_sys();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        for src in ["alpha", "flag", "x"] {
            let a = ObjSet::singleton(u.obj(src).unwrap());
            for phi in [
                Phi::True,
                Phi::expr(Expr::var(u.obj("flag").unwrap()).not()),
            ] {
                let exact = q(&phi, &a, b).run_on(&sys).unwrap().holds();
                // Brute force: the Def 2-7 check on every history of
                // length ≤ 4, which is enough in this tiny system.
                let brute = crate::history::histories_up_to(sys.num_ops(), 4).any(|h| {
                    crate::depend::strongly_depends_after(&sys, &phi, &a, b, &h)
                        .unwrap()
                        .is_some()
                });
                assert_eq!(exact, brute, "mismatch for source {src}");
                let bounded = q(&phi, &a, b).bounded(4).run_on(&sys).unwrap().holds();
                assert_eq!(bounded, brute, "bounded mismatch for source {src}");
            }
        }
    }

    #[test]
    fn sinks_row() {
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        let x = u.obj("x").unwrap();
        let from_x = Query::new(Phi::True, ObjSet::singleton(x))
            .run_on(&sys)
            .unwrap()
            .into_sinks()
            .unwrap();
        // x flows to α (δ2), then to β (δ1), and stays in x.
        assert!(from_x.contains(x) && from_x.contains(a) && from_x.contains(b));
        // β never flows anywhere else.
        let from_b = Query::new(Phi::True, ObjSet::singleton(b))
            .run_on(&sys)
            .unwrap()
            .into_sinks()
            .unwrap();
        assert_eq!(from_b, ObjSet::singleton(b));
    }

    #[test]
    fn depends_set_needs_simultaneous_difference() {
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        // α reaches {α, β} simultaneously (before δ2 destroys α).
        let ab = ObjSet::from_iter([a, b]);
        assert!(Query::new(Phi::True, ObjSet::singleton(a))
            .set(ab)
            .run_on(&sys)
            .unwrap()
            .holds());
        assert!(!Query::new(Phi::True, ObjSet::singleton(a))
            .set(ObjSet::empty())
            .run_on(&sys)
            .unwrap()
            .holds());
    }

    #[test]
    fn witness_history_is_minimal_length() {
        // BFS explores by increasing depth, so the witness history is as
        // short as possible — under every engine.
        let sys = flag_sys();
        let u = sys.universe();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        for mode in modes() {
            let w = run_in(&sys, &q(&Phi::True, &ObjSet::singleton(a), b), mode)
                .into_witness()
                .unwrap();
            assert_eq!(w.history.len(), 1, "flag=true states allow a 1-step flow");
        }
    }

    #[test]
    fn engines_agree_on_flag_sys() {
        let sys = flag_sys();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        for src in ["alpha", "beta", "flag", "x"] {
            let a = ObjSet::singleton(u.obj(src).unwrap());
            for phi in [
                Phi::True,
                Phi::expr(Expr::var(u.obj("flag").unwrap()).not()),
            ] {
                let sinks = Query::new(phi.clone(), a.clone());
                let [interpreted, compiled @ ..] = modes();
                let reference = run_in(&sys, &q(&phi, &a, b), interpreted)
                    .into_witness()
                    .map(|w| (w.history, w.sigma1, w.sigma2));
                let ref_sinks = run_in(&sys, &sinks, interpreted).into_sinks().unwrap();
                for mode in compiled {
                    let got = run_in(&sys, &q(&phi, &a, b), mode)
                        .into_witness()
                        .map(|w| (w.history, w.sigma1, w.sigma2));
                    assert_eq!(got, reference, "depends mismatch for {src} / {mode:?}");
                    let got_sinks = run_in(&sys, &sinks, mode).into_sinks().unwrap();
                    assert_eq!(got_sinks, ref_sinks, "sinks mismatch for {src} / {mode:?}");
                }
            }
        }
    }

    #[test]
    fn sinks_matrix_matches_rowwise_sinks() {
        let sys = flag_sys();
        let u = sys.universe();
        let sources: Vec<ObjSet> = u.objects().map(ObjSet::singleton).collect();
        for mode in modes() {
            let rows = run_in(&sys, &Query::matrix(Phi::True, sources.clone()), mode)
                .into_rows()
                .unwrap();
            for (src, row) in sources.iter().zip(&rows) {
                let single = Query::new(Phi::True, src.clone())
                    .run_on(&sys)
                    .unwrap()
                    .into_sinks()
                    .unwrap();
                assert_eq!(*row, single, "matrix row mismatch for {src:?}");
            }
        }
        assert!(Query::matrix(Phi::True, Vec::new())
            .run_on(&sys)
            .unwrap()
            .into_rows()
            .unwrap()
            .is_empty());
    }

    /// Witness fields plus the search counts `(engine, visited pairs,
    /// levels)` of one direct engine run.
    type Run = (Option<(History, State, State)>, (&'static str, u64, u32));

    fn unpack(witness: Option<DependsWitness>, trace: Trace<'_>) -> Run {
        let r = trace.report;
        (
            witness.map(|w| (w.history, w.sigma1, w.sigma2)),
            (r.engine, r.visited_pairs, r.levels),
        )
    }

    /// The compiled engine with no limits, driven directly.
    fn run_compiled(
        cs: &CompiledSystem<'_>,
        part: &SatPartition,
        bufs: &mut SearchBuffers,
        max_depth: u32,
        goal: impl FnMut(u64, u64) -> bool,
    ) -> Run {
        let mut trace = Trace::disabled();
        let w = compiled_search(
            cs,
            part,
            bufs,
            &SearchLimits::NONE,
            max_depth,
            &mut trace,
            goal,
        )
        .unwrap();
        unpack(w, trace)
    }

    /// The interpreted engine with no limits, driven directly.
    fn run_interpreted(
        sys: &System,
        part: &SatPartition,
        max_depth: u32,
        goal: impl FnMut(u64, u64) -> bool,
    ) -> Run {
        let mut trace = Trace::disabled();
        let w = interpreted_search(sys, part, &SearchLimits::NONE, max_depth, &mut trace, goal)
            .unwrap();
        unpack(w, trace)
    }

    #[test]
    fn stats_report_engine_and_depth() {
        let sys = flag_sys();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let b = u.obj("beta").unwrap();
        let budget = CompileBudget::default();
        let mut early = Vec::new();
        for mode in modes() {
            let out = run_in(&sys, &q(&Phi::True, &a, b), mode);
            let report = out.report;
            assert_eq!(report.engine, mode.2);
            assert!(report.visited_pairs > 0);
            assert!(report.pair_expansions > 0);
            assert_eq!(
                report.levels as usize,
                out.into_witness().unwrap().history.len()
            );
            early.push(report);
        }
        // Every engine goal-checks at discovery, so early-exit searches
        // count the same pairs and depth.
        for report in &early[1..] {
            assert_eq!(report.visited_pairs, early[0].visited_pairs);
            assert_eq!(report.levels, early[0].levels);
        }
        // Exhaustive searches (a goal that never triggers) count exactly
        // the same reachable pairs.
        let ns = sys.state_count().unwrap();
        let part = SatPartition::new(&sys, &Phi::True, &a).unwrap();
        let (_, (_, visited, levels)) = run_interpreted(&sys, &part, u32::MAX, |_, _| false);
        let cs = CompiledSystem::compile(&sys, TableKind::Dense).unwrap();
        let mut bufs = SearchBuffers::new(ns, &budget);
        let (_, (_, c_visited, c_levels)) =
            run_compiled(&cs, &part, &mut bufs, u32::MAX, |_, _| false);
        assert_eq!((visited, levels), (c_visited, c_levels));
    }

    #[test]
    fn depth_cap_stops_expansion_at_level_k() {
        // Capped at depth k, both engines discover exactly the pairs an
        // exhaustive search finds within k levels, and no deeper ones.
        let sys = flag_sys();
        let u = sys.universe();
        let budget = CompileBudget::default();
        let ns = sys.state_count().unwrap();
        let a = ObjSet::singleton(u.obj("x").unwrap());
        let part = SatPartition::new(&sys, &Phi::True, &a).unwrap();
        let full = run_interpreted(&sys, &part, u32::MAX, |_, _| false).1;
        for kind in [TableKind::Dense, TableKind::Sparse] {
            let cs = CompiledSystem::compile(&sys, kind).unwrap();
            let mut bufs = SearchBuffers::new(ns, &budget);
            for k in 0..=full.2 + 1 {
                let (_, (_, visited, levels)) = run_interpreted(&sys, &part, k, |_, _| false);
                assert_eq!(levels, k.min(full.2), "depth {k}");
                assert!(visited <= full.1);
                assert_eq!(visited == full.1, k >= full.2, "depth {k}");
                let (_, (_, c_visited, c_levels)) =
                    run_compiled(&cs, &part, &mut bufs, k, |_, _| false);
                assert_eq!(
                    (c_visited, c_levels),
                    (visited, levels),
                    "{kind:?} depth {k}"
                );
            }
        }
    }

    #[test]
    fn buffers_reused_across_searches_do_not_leak() {
        // One SearchBuffers driven through early-exit and exhaustive
        // searches over different sources and constraints must match
        // fresh buffers every time, with bitmaps and with hashed sets.
        // A thin φ after φ = tt catches root marks left set: stale marks
        // would pass candidates outside Sat(φ) off as roots.
        let sys = flag_sys();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        let flag = u.obj("flag").unwrap();
        let ns = sys.state_count().unwrap();
        let (b_stride, b_dom) = extractor(u, b);
        let hashed = CompileBudget {
            max_dense_pair_bits: 0,
            ..CompileBudget::default()
        };
        for budget in [CompileBudget::default(), hashed] {
            for kind in [TableKind::Dense, TableKind::Sparse] {
                let cs = CompiledSystem::compile(&sys, kind).unwrap();
                let mut reused = SearchBuffers::new(ns, &budget);
                for _round in 0..3 {
                    for phi in [Phi::True, Phi::expr(Expr::var(flag).not())] {
                        for src in ["alpha", "beta", "flag", "x"] {
                            let a = ObjSet::singleton(u.obj(src).unwrap());
                            let part = SatPartition::new(&sys, &phi, &a).unwrap();
                            let what = format!("{src} / {phi:?} / {kind:?} / {budget:?}");
                            // Early-exit search (leaves the buffers
                            // mid-sweep).
                            let goal = |c1: u64, c2: u64| {
                                (c1 / b_stride) % b_dom != (c2 / b_stride) % b_dom
                            };
                            let mut fresh = SearchBuffers::new(ns, &budget);
                            let want = run_compiled(&cs, &part, &mut fresh, u32::MAX, goal);
                            let got = run_compiled(&cs, &part, &mut reused, u32::MAX, goal);
                            assert_eq!(got, want, "early exit diverges for {what}");
                            // Exhaustive search.
                            let mut fresh = SearchBuffers::new(ns, &budget);
                            let want = run_compiled(&cs, &part, &mut fresh, u32::MAX, |_, _| false);
                            let got = run_compiled(&cs, &part, &mut reused, u32::MAX, |_, _| false);
                            assert_eq!(got, want, "exhaustive search diverges for {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn engines_agree_on_a_system_without_operations() {
        // No operation ever runs, so no flow exists; a sparse search must
        // still find (empty) rows for its roots.
        let u = Universe::new(vec![
            ("x".into(), Domain::int_range(0, 2).unwrap()),
            ("y".into(), Domain::int_range(0, 2).unwrap()),
        ])
        .unwrap();
        let (x, y) = (u.obj("x").unwrap(), u.obj("y").unwrap());
        let sys = System::new(u, Vec::new());
        for mode in modes() {
            let out = run_in(&sys, &q(&Phi::True, &ObjSet::singleton(x), y), mode);
            assert!(!out.holds(), "{mode:?}");
        }
    }

    /// A system whose BFS levels hold blocks wide enough to go parallel:
    /// x (0..63) has 63 counter ops (`x += k mod 64`), y (0..1) one
    /// toggle, and `leak` sets β to `α > 2` once x = 63 and y = 1, if the
    /// flag w (which nothing writes) is set.
    fn wide_sys() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 8).unwrap()),
            ("beta".into(), Domain::boolean()),
            ("x".into(), Domain::int_range(0, 63).unwrap()),
            ("y".into(), Domain::int_range(0, 1).unwrap()),
            ("w".into(), Domain::boolean()),
        ])
        .unwrap();
        let [a, b, x, y, w] = ["alpha", "beta", "x", "y", "w"].map(|n| u.obj(n).unwrap());
        let mut ops: Vec<Op> = (1..64)
            .map(|k| {
                let step = Expr::var(x).add(Expr::int(k)).modulo(Expr::int(64));
                Op::from_cmd(format!("x+{k}"), Cmd::assign(x, step))
            })
            .collect();
        ops.push(Op::from_cmd(
            "y",
            Cmd::assign(y, Expr::int(1).sub(Expr::var(y))),
        ));
        let armed = Expr::var(x)
            .eq(Expr::int(63))
            .and(Expr::var(y).eq(Expr::int(1)))
            .and(Expr::var(w));
        ops.push(Op::from_cmd(
            "leak",
            Cmd::when(armed, Cmd::assign(b, Expr::var(a).gt(Expr::int(2)))),
        ));
        System::new(u, ops)
    }

    #[test]
    fn parallel_levels_match_the_interpreted_engine() {
        // Blocks above PAR_LEVEL_EXPANSIONS are split across threads; the
        // merge must still discover pairs in the interpreted FIFO order,
        // and a flow query must stop expanding at its goal's parent pair
        // as the interpreted engine does. φ pins everything but α: 36
        // root pairs, whose levels 1 and 2 hold 36 · 64 and 36 · 63
        // pairs of 65 operations each, so their third blocks (1,024
        // pairs) go parallel. With w set the search stops at a flow on
        // level 3; without, it is exhaustive.
        let sys = wide_sys();
        let u = sys.universe();
        let [a, b, x, y, w] = ["alpha", "beta", "x", "y", "w"].map(|n| u.obj(n).unwrap());
        let pinned = Expr::var(x)
            .eq(Expr::int(0))
            .and(Expr::var(y).eq(Expr::int(0)))
            .and(Expr::var(b).not());
        let alpha = ObjSet::singleton(a);
        let min_seq = PAR_LEVEL_EXPANSIONS / sys.num_ops();
        let run = |(engine, budget, label): Mode, flag: bool| {
            let phi = Phi::expr(pinned.clone().and(Expr::var(w).eq(Expr::bool(flag))));
            let sink = Arc::new(RecordingSink::new());
            let oracle = Oracle::with_sink(&sys, engine, &budget, sink.clone()).unwrap();
            let out = q(&phi, &alpha, b).run(&oracle).unwrap();
            assert_eq!(out.report.engine, label, "{budget:?}");
            let widest = sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    QueryEvent::BfsLevel { frontier, .. } => {
                        blocks(0, *frontier as usize).map(|(s, e)| e - s).max()
                    }
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let r = out.report;
            let counts = (r.visited_pairs, r.levels, r.pair_expansions);
            let witness = out
                .into_witness()
                .map(|wit| (wit.history, wit.sigma1, wit.sigma2));
            (witness, counts, widest)
        };
        for flag in [true, false] {
            let [interpreted, compiled @ ..] = modes();
            let (want, want_counts, _) = run(interpreted, flag);
            assert_eq!(want.is_some(), flag);
            for mode in compiled {
                let (got, counts, widest) = run(mode, flag);
                assert!(
                    widest > min_seq,
                    "{mode:?}: widest block has {widest} pairs"
                );
                assert_eq!(got, want, "{mode:?} witness, w = {flag}");
                assert_eq!(counts, want_counts, "{mode:?} counts, w = {flag}");
            }
        }
    }

    #[test]
    fn streamed_roots_are_the_sorted_initial_pairs() {
        // The compiled engine streams `root_pairs` unsorted; the
        // interpreted engine's sorted `initial_pairs` is the reference.
        // `same_class` must agree with the class lists on every pair of
        // members.
        use rand::{Rng, SeedableRng};
        let check = |part: &SatPartition| {
            let streamed: Vec<Pair> = part.root_pairs().collect();
            assert_eq!(streamed, initial_pairs(part));
            assert_eq!(streamed.len(), part.root_pair_count());
            let class_of: HashMap<u64, usize> = part
                .classes()
                .iter()
                .enumerate()
                .flat_map(|(i, class)| class.iter().map(move |&c| (c, i)))
                .collect();
            for (&c1, i) in &class_of {
                for (&c2, j) in &class_of {
                    assert_eq!(part.same_class(c1, c2), i == j, "{c1} {c2}");
                }
            }
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for _ in 0..200 {
            let objects = (0..rng.gen_range(1..=4))
                .map(|i| {
                    let hi = rng.gen_range(0..=3);
                    (format!("v{i}"), Domain::int_range(0, hi).unwrap())
                })
                .collect();
            let u = Universe::new(objects).unwrap();
            let ns = u.state_count() as u64;
            let codes: Vec<u64> = (0..ns).filter(|_| rng.gen_bool(0.6)).collect();
            let a = ObjSet::from_iter(u.objects().filter(|_| rng.gen_bool(0.4)));
            let part = SatPartition::from_codes(&u, &codes, &a);
            check(&part);
            // The same classes handed over explicitly, in reverse, and
            // one class as a partition of its own, as the maximal-solution
            // sweep builds them.
            let reversed = part.classes().iter().rev().cloned().collect();
            let explicit = SatPartition::from_classes(&u, &a, reversed);
            assert_eq!(explicit.classes(), part.classes());
            check(&explicit);
            if let Some(class) = part.classes().iter().max_by_key(|c| c.len()) {
                let single = SatPartition::from_classes(&u, &a, vec![class.clone()]);
                assert_eq!(single.classes(), std::slice::from_ref(class));
                check(&single);
            }
        }
    }

    #[test]
    fn auto_falls_back_below_budget() {
        // A budget of zero dense entries forces sparse tables; the result
        // is unchanged.
        let sys = flag_sys();
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj("alpha").unwrap());
        let b = u.obj("beta").unwrap();
        let tiny = CompileBudget {
            max_dense_entries: 0,
            max_dense_pair_bits: 0,
        };
        let oracle = Oracle::with_engine(&sys, Engine::Auto, &tiny).unwrap();
        let out = q(&Phi::True, &a, b).run(&oracle).unwrap();
        assert_eq!(out.report.engine, "compiled-sparse");
        assert!(out.holds());
    }
}
