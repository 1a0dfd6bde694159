//! Compiled execution engine: integer successor tables over encoded
//! state codes.
//!
//! The interpreted oracle in [`crate::reach`] pays for every pair
//! expansion with two `State::decode`s, two AST walks and two
//! `State::encode`s. For finite systems the whole transition function
//! can instead be *compiled once*: each operation becomes a dense
//! successor table `next[code · |Δ| + op] → code'` of `u32` codes.
//!
//! Two table layouts are provided; the Oracle picks one from the
//! [`CompileBudget`] and the state space (see [`crate::oracle`]). Both
//! store the same `u32` rows, one cell per operation, filled by one row
//! interpreter:
//!
//! - **Dense**: every successor is precomputed up front, split over
//!   state-code ranges across the workers once the system has 1,024
//!   states or more.
//! - **Sparse**: successor rows are interpreted on first touch and
//!   memoised in the system's one row store, so each *reached* state is
//!   interpreted exactly once for all operations, however many searches
//!   and prover sweeps share the system — the BFS in `reach` typically
//!   touches a tiny fraction of `Σ²` pairs but a larger fraction of `Σ`,
//!   and this caps interpretation cost at `O(|reached states| · |Δ|)`
//!   instead of `O(|visited pairs| · |Δ|)`.
//!
//! Readers see either layout through a `Rows` view, which also has an
//! interpreted form for systems that do not compile.
//!
//! Operations that *error* on a state (possible when
//! `System::validate` would fail) are stored as the poison sentinel
//! `u32::MAX`, which no state code equals: a compiled system has fewer
//! than 2³² − 1 states. `Rows::step` re-interprets on access to surface
//! the precise [`Error`].

use std::sync::{RwLock, RwLockReadGuard};

use crate::error::{Error, Result};
use crate::fastmap::U64Map;
use crate::history::OpId;
use crate::state::State;
use crate::system::System;
use crate::telemetry::{QueryEvent, Trace};

/// Operation applications (missing rows × |Δ|) above which
/// [`CompiledSystem::ensure_rows`] interprets its batch in parallel. One
/// `std::thread::scope` that spawns a helper beside an inline chunk
/// costs ≈ 50 µs on a 2-vCPU x86-64 VM (≈ 80–90 µs with two spawns),
/// and interpreting one operation on one state ≈ 0.15 µs (a
/// `pointer_chain(4,2)` row of 24 ops takes 3.4 µs, a `mod_adder(5)` row
/// of one op 0.17 µs). A batch this size takes ≈ 1.2 ms, so splitting it
/// saves about ten times the spawn.
const PAR_ROW_OPS: usize = 1 << 13;

/// Successor-row sentinel: "this operation errors on this state".
pub(crate) const POISON: u32 = u32::MAX;

/// Resource budget steering the automatic engine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileBudget {
    /// Maximum `|Σ| · |Δ|` entries for an upfront dense successor table
    /// (4 bytes per entry).
    pub max_dense_entries: u64,
    /// Maximum `|Σ|²` bits for the flat bitset visited-pair structure in
    /// the pair search; above it a hash set is used instead.
    pub max_dense_pair_bits: u64,
}

impl Default for CompileBudget {
    fn default() -> CompileBudget {
        CompileBudget {
            // ≤ 64 MiB of u32 successors.
            max_dense_entries: 1 << 24,
            // ≤ 32 MiB of visited bitmap (|Σ| ≤ 16384 gets the bitset).
            max_dense_pair_bits: 1 << 28,
        }
    }
}

/// Which pair-search engine an [`crate::Oracle`] runs; the Oracle turns
/// it into a table layout (see [`crate::oracle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Compile, picking dense or sparse tables from the budget and the
    /// size of Sat(φ).
    #[default]
    Auto,
    /// The original AST-interpreting BFS (reference implementation).
    Interpreted,
}

/// Table layout of a compiled system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TableKind {
    /// Upfront `|Σ| · |Δ|` table.
    Dense,
    /// Rows interpreted on first touch and memoised.
    Sparse,
}

impl TableKind {
    /// The engine label searches on this layout report
    /// (`QueryReport::engine`, the `CompileFinish` event).
    pub(crate) fn engine_name(self) -> &'static str {
        match self {
            TableKind::Dense => "compiled-dense",
            TableKind::Sparse => "compiled-sparse",
        }
    }
}

/// A system compiled to integer successor tables (see module docs).
///
/// Shared by reference across scoped worker threads — this is what lets
/// [`crate::query::Query::matrix`] compile once for all worth-matrix
/// rows. A dense system is immutable after construction; a sparse one
/// grows its row store as searches and prover sweeps touch new states.
pub(crate) struct CompiledSystem<'s> {
    sys: &'s System,
    ns: u64,
    num_ops: usize,
    table: Table,
}

/// The successor table behind a [`CompiledSystem`].
enum Table {
    /// State-major dense table: `next[code · num_ops + op]`, and whether
    /// any entry is [`POISON`].
    Dense(Vec<u32>, bool),
    /// The system's one sparse row store, shared by every search and
    /// prover sweep over it.
    Sparse(RwLock<SparseMemo>),
}

/// Memoised successor rows of a sparse compiled system: an index plus
/// an append-only row arena.
#[derive(Default)]
pub(crate) struct SparseMemo {
    /// State code → offset of its row in `rows` (row length = `num_ops`).
    index: U64Map,
    rows: Vec<u32>,
}

/// A read view of one system's successor function: the dense table, a
/// read guard on the sparse row store, or the interpreter when the
/// system did not compile. Take one view per BFS block or per prover
/// sweep, after the rows it will read are materialised
/// ([`CompiledSystem::ensure_rows`], or
/// [`crate::oracle::Oracle::successors`], which does both).
///
/// **Never hold a view across a call that materialises rows.** The
/// sparse view holds the row store's read lock, and materialising takes
/// its write lock: the same thread would wait on itself. And because
/// `std`'s `RwLock` may block new readers while a writer is queued, a
/// thread that takes a second view while holding one can deadlock
/// against another thread's pending write. Share one view by reference
/// across scoped workers instead of taking one per worker.
pub(crate) enum Rows<'a> {
    /// A compiled system's dense table.
    Dense(&'a CompiledSystem<'a>, &'a [u32]),
    /// A sparse compiled system's row store, read-locked.
    Sparse(&'a CompiledSystem<'a>, RwLockReadGuard<'a, SparseMemo>),
    /// No tables: every step interprets the operation.
    Interpreted(&'a System),
}

impl Rows<'_> {
    /// The full successor row of `code`, [`POISON`] marking erroring
    /// operations — one borrow instead of a table lookup per operation,
    /// for the search's hot loop. Sparse rows must have been materialised
    /// before the view was taken; interpreted views have no rows.
    #[inline]
    pub(crate) fn row(&self, code: u64) -> &[u32] {
        match self {
            Rows::Dense(cs, table) => &table[code as usize * cs.num_ops..][..cs.num_ops],
            Rows::Sparse(cs, memo) => {
                let off =
                    memo.index
                        .get(code)
                        .expect("sparse row materialised before use") as usize;
                &memo.rows[off..off + cs.num_ops]
            }
            Rows::Interpreted(_) => unreachable!("interpreted views have no successor rows"),
        }
    }

    /// Successor of `code` under operation `op`, or the error the
    /// interpreter reports for it (a poisoned entry is re-interpreted to
    /// recover that error).
    pub(crate) fn step(&self, code: u64, op: usize) -> Result<u64> {
        let cs = match self {
            Rows::Interpreted(sys) => return interpret(sys, code, op),
            Rows::Dense(cs, _) | Rows::Sparse(cs, _) => cs,
        };
        match self.row(code)[op] {
            POISON => Err(match interpret(cs.sys, code, op) {
                Err(e) => e,
                Ok(_) => Error::Invalid("poison entry without interpreter error".into()),
            }),
            next => Ok(u64::from(next)),
        }
    }
}

/// Interprets operation `op` on the state encoded by `code`.
fn interpret(sys: &System, code: u64, op: usize) -> Result<u64> {
    let u = sys.universe();
    Ok(sys
        .apply(OpId(op as u32), &State::decode(u, code))?
        .encode(u))
}

/// Interprets every operation on the state encoded by `code` into `out`
/// (one cell per operation, [`POISON`] where the operation errors), and
/// returns whether any operation errored. Fills the rows of both table
/// layouts.
fn interpret_row(sys: &System, code: u64, out: &mut [u32]) -> bool {
    let u = sys.universe();
    let sigma = State::decode(u, code);
    let mut poisoned = false;
    for (op, cell) in out.iter_mut().enumerate() {
        *cell = match sys.apply(OpId(op as u32), &sigma) {
            Ok(next) => next.encode(u) as u32,
            Err(_) => {
                poisoned = true;
                POISON
            }
        };
    }
    poisoned
}

impl<'s> CompiledSystem<'s> {
    /// Compiles `sys` to the given table layout. Which layout a system
    /// gets is the Oracle's decision (`oracle::choose_tables`); the
    /// caller guarantees that every state code is below [`POISON`].
    pub(crate) fn compile(sys: &'s System, kind: TableKind) -> Result<CompiledSystem<'s>> {
        let ns = sys.state_count()?;
        assert!(
            ns <= u64::from(POISON),
            "state codes fit below the sentinel"
        );
        let num_ops = sys.num_ops();
        let table = match kind {
            TableKind::Dense => {
                let (table, poisoned) = build_dense(sys, ns, num_ops);
                Table::Dense(table, poisoned)
            }
            TableKind::Sparse => Table::Sparse(RwLock::default()),
        };
        Ok(CompiledSystem {
            sys,
            ns,
            num_ops,
            table,
        })
    }

    /// The underlying system.
    pub(crate) fn system(&self) -> &'s System {
        self.sys
    }

    /// `|Σ|`.
    pub(crate) fn state_count(&self) -> u64 {
        self.ns
    }

    /// `|Δ|`.
    pub(crate) fn num_ops(&self) -> usize {
        self.num_ops
    }

    /// Which table layout was chosen.
    pub(crate) fn kind(&self) -> TableKind {
        match self.table {
            Table::Dense(..) => TableKind::Dense,
            Table::Sparse(_) => TableKind::Sparse,
        }
    }

    /// Whether every operation is known to succeed on every state: the
    /// table is dense and holds no poison entry. A sparse table only
    /// learns its rows as searches touch them, so it never knows.
    pub(crate) fn is_total(&self) -> bool {
        matches!(self.table, Table::Dense(_, false))
    }

    /// A read view of the successor tables (see [`Rows`] for the one
    /// rule its holder must keep).
    pub(crate) fn rows(&self) -> Rows<'_> {
        match &self.table {
            Table::Dense(table, _) => Rows::Dense(self, table),
            Table::Sparse(store) => Rows::Sparse(self, store.read().expect("row store lock")),
        }
    }

    /// Materialises sparse successor rows for every code in `codes` that
    /// is not yet in the row store. Missing codes are found under the
    /// read lock and interpreted outside any lock: on the calling thread,
    /// or split across [`par_map_chunks`] workers when interpreting them
    /// applies more than [`PAR_ROW_OPS`] operations. The write lock then
    /// inserts each row unless a concurrent caller inserted it first. A
    /// no-op for dense tables.
    /// Rows this call inserted count as materialised on `trace`, all
    /// other requested codes as reused (also emitted as a
    /// [`QueryEvent::MemoRows`] event when a sink is attached), so each
    /// row is counted as materialised exactly once per system.
    pub(crate) fn ensure_rows(&self, codes: &[u64], trace: &mut Trace<'_>) {
        let Table::Sparse(store) = &self.table else {
            return;
        };
        let missing: Vec<u64> = {
            let memo = store.read().expect("row store lock");
            codes
                .iter()
                .copied()
                .filter(|&c| memo.index.get(c).is_none())
                .collect()
        };
        let mut materialized = 0u64;
        if !missing.is_empty() {
            let n = self.num_ops;
            let min_seq = PAR_ROW_OPS / n.max(1);
            let computed: Vec<Vec<u32>> = par_map_chunks(&missing, min_seq, |chunk| {
                let mut rows = vec![POISON; chunk.len() * n];
                for (i, &code) in chunk.iter().enumerate() {
                    interpret_row(self.sys, code, &mut rows[i * n..][..n]);
                }
                rows
            });
            let rows = computed.concat();
            let mut memo = store.write().expect("row store lock");
            for (i, &code) in missing.iter().enumerate() {
                if memo.index.get(code).is_none() {
                    let offset = memo.rows.len() as u64;
                    memo.index.insert(code, offset);
                    memo.rows.extend_from_slice(&rows[i * n..][..n]);
                    materialized += 1;
                }
            }
        }
        let reused = codes.len() as u64 - materialized;
        trace.report.rows_reused += reused;
        trace.report.rows_materialized += materialized;
        if !codes.is_empty() {
            trace.emit(|| QueryEvent::MemoRows {
                reused,
                materialized,
            });
        }
    }
}

/// Builds the dense state-major table, splitting the state-code range
/// into [`worker_count`] chunks: the caller fills the first and scoped
/// threads the rest. Also returns whether any entry is poisoned.
fn build_dense(sys: &System, ns: u64, num_ops: usize) -> (Vec<u32>, bool) {
    let total = ns as usize * num_ops;
    if total == 0 {
        return (Vec::new(), false);
    }
    let mut table = vec![POISON; total];
    let threads = worker_count();
    if threads <= 1 || ns < 1024 {
        let poisoned = fill_dense_chunk(sys, &mut table, 0);
        return (table, poisoned);
    }
    let chunk_states = (ns as usize).div_ceil(threads);
    let mut chunks = table.chunks_mut(chunk_states * num_ops);
    let first = chunks.next().expect("a non-empty table has a first chunk");
    let poisoned = std::thread::scope(|scope| {
        let helpers: Vec<_> = chunks
            .enumerate()
            .map(|(i, chunk)| {
                let start = ((i + 1) * chunk_states) as u64;
                scope.spawn(move || fill_dense_chunk(sys, chunk, start))
            })
            .collect();
        let first_poisoned = fill_dense_chunk(sys, first, 0);
        helpers.into_iter().fold(first_poisoned, |any, h| {
            h.join().expect("dense table worker does not panic") | any
        })
    });
    (table, poisoned)
}

/// Fills `chunk` (whole rows) with successors of codes starting at
/// `start_code`, returning whether any operation errored.
fn fill_dense_chunk(sys: &System, chunk: &mut [u32], start_code: u64) -> bool {
    chunk
        .chunks_mut(sys.num_ops())
        .zip(start_code..)
        .fold(false, |poisoned, (row, code)| {
            interpret_row(sys, code, row) | poisoned
        })
}

/// Number of workers for scoped-thread parallel sections. Cached:
/// `available_parallelism` is a syscall on Linux, and parallel sections
/// consult it on the search hot path (for each BFS block and row batch
/// large enough to go parallel).
pub(crate) fn worker_count() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to chunks of `items`, returning one result per chunk in
/// order. Input of at most `min_seq` items (or any input on one core)
/// is one call on the calling thread. Larger input is split into
/// [`worker_count`] chunks: the caller runs the first and scoped
/// threads run the rest, so a section spawns `threads − 1` helpers. A
/// panic in any chunk propagates to the caller.
pub(crate) fn par_map_chunks<T, R, F>(items: &[T], min_seq: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    map_chunks_on(worker_count(), items, min_seq, f)
}

/// [`par_map_chunks`] on a given number of threads.
fn map_chunks_on<T, R, F>(threads: usize, items: &[T], min_seq: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    if threads <= 1 || items.len() <= min_seq.max(1) {
        return vec![f(items)];
    }
    let mut chunks = items.chunks(items.len().div_ceil(threads));
    let first = chunks.next().expect("non-empty input has a first chunk");
    let f = &f;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = chunks.map(|chunk| scope.spawn(move || f(chunk))).collect();
        let mut out = Vec::with_capacity(helpers.len() + 1);
        out.push(f(first));
        out.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("parallel chunk worker does not panic")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::system::System;

    fn compile_both(sys: &System) -> (CompiledSystem<'_>, CompiledSystem<'_>) {
        let dense = CompiledSystem::compile(sys, TableKind::Dense).unwrap();
        let sparse = CompiledSystem::compile(sys, TableKind::Sparse).unwrap();
        (dense, sparse)
    }

    #[test]
    fn tables_agree_with_interpreter_everywhere() {
        let sys = examples::pointer_chain_system(3, 2).unwrap();
        let u = sys.universe();
        let ns = sys.state_count().unwrap();
        let (dense, sparse) = compile_both(&sys);
        assert!(dense.is_total() && !sparse.is_total());
        let all: Vec<u64> = (0..ns).collect();
        sparse.ensure_rows(&all, &mut Trace::disabled());
        let (dense, sparse) = (dense.rows(), sparse.rows());
        for code in 0..ns {
            assert_eq!(dense.row(code), sparse.row(code), "row of {code}");
            let sigma = State::decode(u, code);
            for op in sys.op_ids() {
                let expect = sys.apply(op, &sigma).unwrap().encode(u);
                assert_eq!(dense.step(code, op.index()).unwrap(), expect);
                assert_eq!(sparse.step(code, op.index()).unwrap(), expect);
                assert_eq!(
                    Rows::Interpreted(&sys).step(code, op.index()).unwrap(),
                    expect
                );
            }
        }
    }

    #[test]
    fn each_sparse_row_is_materialised_once() {
        // Overlapping requests: only the first sighting of a code
        // materialises its row; every later one counts as reused.
        let sys = examples::pointer_chain_system(3, 2).unwrap();
        let (_, sparse) = compile_both(&sys);
        let mut trace = Trace::disabled();
        sparse.ensure_rows(&[0, 1, 2, 3], &mut trace);
        sparse.ensure_rows(&[2, 3, 4], &mut trace);
        assert_eq!(trace.report.rows_materialized, 5);
        assert_eq!(trace.report.rows_reused, 2);
        // Dense tables have no rows to materialise.
        let (dense, _) = compile_both(&sys);
        let mut trace = Trace::disabled();
        dense.ensure_rows(&[0, 1], &mut trace);
        assert_eq!(trace.report.rows_materialized, 0);
    }

    #[test]
    fn small_input_runs_once_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..10).collect();
        for threads in [1, 3] {
            let out = map_chunks_on(threads, &items, 10, |chunk| {
                (chunk.len(), std::thread::current().id())
            });
            assert_eq!(out, vec![(10, caller)], "{threads} threads");
        }
        assert!(map_chunks_on(3, &items[..0], 0, |c: &[u32]| c.len()).is_empty());
    }

    #[test]
    fn large_input_runs_its_first_chunk_on_the_caller_and_keeps_chunk_order() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..100).collect();
        let out = map_chunks_on(3, &items, 10, |chunk| {
            (chunk.to_vec(), std::thread::current().id())
        });
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].1, caller);
        assert!(out[1..].iter().all(|(_, id)| *id != caller));
        let rejoined: Vec<u32> = out.into_iter().flat_map(|(chunk, _)| chunk).collect();
        assert_eq!(rejoined, items);
    }

    #[test]
    #[should_panic(expected = "parallel chunk worker does not panic")]
    fn a_helper_panic_reaches_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        map_chunks_on(2, &items, 10, |chunk| {
            assert!(chunk[0] == 0, "helper chunk")
        });
    }

    #[test]
    fn poison_surfaces_interpreter_error() {
        // copy_system(3) with enum limit large enough, but an op writing
        // out of domain: build via with_enum_limit on an invalid system.
        use crate::expr::Expr;
        use crate::op::{Cmd, Op};
        use crate::universe::{Domain, Universe};
        let u = Universe::new(vec![("x".into(), Domain::int_range(0, 2).unwrap())]).unwrap();
        let x = u.obj("x").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "bump",
                Cmd::assign(x, Expr::var(x).add(Expr::int(1))),
            )],
        );
        let (dense, sparse) = compile_both(&sys);
        // x = 2 overflows the domain.
        assert!(!dense.is_total() && !sparse.is_total());
        sparse.ensure_rows(&[0, 1, 2], &mut Trace::disabled());
        // Both layouts hold the same u32 rows, sentinel included.
        for rows in [dense.rows(), sparse.rows()] {
            assert_eq!(rows.row(0), &[1]);
            assert_eq!(rows.row(1), &[2]);
            assert_eq!(rows.row(2), &[POISON]);
            assert!(matches!(rows.step(2, 0), Err(Error::OutOfDomain { .. })));
            assert_eq!(rows.step(1, 0).unwrap(), 2);
        }
    }
}
