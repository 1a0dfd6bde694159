//! Compiled execution engine: integer successor tables over encoded
//! state codes.
//!
//! The interpreted oracle in [`crate::reach`] pays for every pair
//! expansion with two `State::decode`s, two AST walks and two
//! `State::encode`s. For finite systems the whole transition function
//! can instead be *compiled once*: each operation becomes a dense
//! successor table `next[code · |Δ| + op] → code'` of `u32` codes, and
//! per-object index extraction becomes two integer divisions against
//! precomputed 64-bit strides ([`CompiledSystem::obj_index`]) instead of
//! the `u128` arithmetic in `Universe::stride`.
//!
//! Two table layouts are provided, chosen by [`CompileBudget`]:
//!
//! - **Dense** (`|Σ| · |Δ|` within budget): every successor is
//!   precomputed up front, in parallel over state-code ranges.
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
//! `System::validate` would fail) are stored as a poison sentinel;
//! `Rows::step` re-interprets on access to surface the precise
//! [`Error`].

use std::sync::{RwLock, RwLockReadGuard};

use crate::error::{Error, Result};
use crate::fastmap::U64Map;
use crate::history::OpId;
use crate::state::State;
use crate::system::System;
use crate::telemetry::{QueryEvent, Trace};
use crate::universe::ObjId;

/// Dense-table sentinel: "this operation errors on this state".
const POISON32: u32 = u32::MAX;
/// 64-bit poison sentinel used by sparse rows and [`Row::succ`].
pub(crate) const POISON: u64 = u64::MAX;

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

/// Which pair-search engine [`crate::reach`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Compile, picking dense or sparse tables from the budget.
    #[default]
    Auto,
    /// The original AST-interpreting BFS (reference implementation).
    Interpreted,
    /// Force a dense upfront table.
    CompiledDense,
    /// Force sparse memoised rows.
    CompiledSparse,
}

/// Table layout chosen for a [`CompiledSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Upfront `|Σ| · |Δ|` table.
    Dense,
    /// Rows interpreted on first touch and memoised.
    Sparse,
}

impl TableKind {
    /// The engine label searches on this layout report
    /// (`QueryReport::engine`, the `CompileFinish` event).
    pub fn engine_name(self) -> &'static str {
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
pub struct CompiledSystem<'s> {
    sys: &'s System,
    ns: u64,
    num_ops: usize,
    /// Per-object stride, narrowed to u64 (valid because `|Σ|` fits u64).
    strides: Vec<u64>,
    /// Per-object domain size, narrowed likewise.
    dom_sizes: Vec<u64>,
    table: Table,
}

/// The successor table behind a [`CompiledSystem`].
enum Table {
    /// State-major dense table: `next[code · num_ops + op]`, and whether
    /// any entry is [`POISON32`].
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
    rows: Vec<u64>,
}

/// One state's successor row, borrowed from whichever table layout the
/// system compiled to. Produced by [`Rows::row`].
#[derive(Clone, Copy)]
pub(crate) enum Row<'a> {
    /// A dense-table row; [`POISON32`] marks erroring operations.
    Dense(&'a [u32]),
    /// A sparse memoised row; [`POISON`] marks erroring operations.
    Sparse(&'a [u64]),
}

impl Row<'_> {
    /// Successor under operation `op`, or [`POISON`].
    #[inline]
    pub(crate) fn succ(&self, op: usize) -> u64 {
        match *self {
            Row::Dense(r) => {
                let v = r[op];
                if v == POISON32 {
                    POISON
                } else {
                    u64::from(v)
                }
            }
            Row::Sparse(r) => r[op],
        }
    }
}

/// A read view of one system's successor function: the dense table, a
/// read guard on the sparse row store, or the interpreter when the
/// system did not compile. Take one view per BFS level or per prover
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
    /// The full successor row of `code` — one borrow instead of a table
    /// lookup per operation, for the search's hot loop. Sparse rows must
    /// have been materialised before the view was taken; interpreted
    /// views have no rows.
    #[inline]
    pub(crate) fn row(&self, code: u64) -> Row<'_> {
        match self {
            Rows::Dense(cs, table) => {
                Row::Dense(&table[code as usize * cs.num_ops..][..cs.num_ops])
            }
            Rows::Sparse(cs, memo) => {
                let off =
                    memo.index
                        .get(code)
                        .expect("sparse row materialised before use") as usize;
                Row::Sparse(&memo.rows[off..off + cs.num_ops])
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
        match self.row(code).succ(op) {
            POISON => Err(match interpret(cs.sys, code, op) {
                Err(e) => e,
                Ok(_) => Error::Invalid("poison entry without interpreter error".into()),
            }),
            next => Ok(next),
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

impl<'s> CompiledSystem<'s> {
    /// Compiles `sys` under `engine` and `budget`.
    ///
    /// [`Engine::Auto`] (and, for convenience, [`Engine::Interpreted`])
    /// selects dense tables when `|Σ| · |Δ|` fits the budget and codes
    /// fit `u32`, sparse otherwise. Forcing [`Engine::CompiledDense`]
    /// beyond the `u32` code range is an error.
    pub fn compile(
        sys: &'s System,
        engine: Engine,
        budget: &CompileBudget,
    ) -> Result<CompiledSystem<'s>> {
        let ns = sys.state_count()?;
        let num_ops = sys.num_ops();
        let entries = ns.saturating_mul(num_ops.max(1) as u64);
        let dense_feasible = ns < u64::from(u32::MAX);
        let kind = match engine {
            Engine::CompiledDense => {
                if !dense_feasible {
                    return Err(Error::Invalid(format!(
                        "state space of {ns} states does not fit dense u32 codes"
                    )));
                }
                TableKind::Dense
            }
            Engine::CompiledSparse => TableKind::Sparse,
            Engine::Auto | Engine::Interpreted => {
                if dense_feasible && entries <= budget.max_dense_entries {
                    TableKind::Dense
                } else {
                    TableKind::Sparse
                }
            }
        };
        let u = sys.universe();
        let mut strides = Vec::with_capacity(u.num_objects());
        let mut dom_sizes = Vec::with_capacity(u.num_objects());
        for obj in u.objects() {
            strides.push(u.stride(obj) as u64);
            dom_sizes.push(u.domain(obj).size() as u64);
        }
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
            strides,
            dom_sizes,
            table,
        })
    }

    /// Compiles with [`Engine::Auto`] and the default budget.
    pub fn auto(sys: &'s System) -> Result<CompiledSystem<'s>> {
        CompiledSystem::compile(sys, Engine::Auto, &CompileBudget::default())
    }

    /// The underlying system.
    pub fn system(&self) -> &'s System {
        self.sys
    }

    /// `|Σ|`.
    pub fn state_count(&self) -> u64 {
        self.ns
    }

    /// `|Δ|`.
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    /// Which table layout was chosen.
    pub fn kind(&self) -> TableKind {
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

    /// Extracts the domain index of `obj` from an encoded state without
    /// decoding — the compiled counterpart of `State::index`.
    #[inline]
    pub fn obj_index(&self, code: u64, obj: ObjId) -> u32 {
        let i = obj.index();
        ((code / self.strides[i]) % self.dom_sizes[i]) as u32
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
    /// read lock and interpreted outside any lock, in parallel when there
    /// are enough of them; the write lock then inserts each row unless a
    /// concurrent caller inserted it first. A no-op for dense tables.
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
            // Row interpretation is ~two orders of magnitude more
            // expensive than a table probe, so parallelise even smallish
            // batches.
            let computed: Vec<Vec<u64>> = par_map_chunks(&missing, 32, |chunk| {
                let mut rows = Vec::with_capacity(chunk.len() * self.num_ops);
                for &code in chunk {
                    self.interpret_row(code, &mut rows);
                }
                rows
            });
            let rows = computed.concat();
            let n = self.num_ops;
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

    /// Interprets one state's full successor row into `out`.
    fn interpret_row(&self, code: u64, out: &mut Vec<u64>) {
        let u = self.sys.universe();
        let sigma = State::decode(u, code);
        for op in 0..self.num_ops {
            out.push(match self.sys.apply(OpId(op as u32), &sigma) {
                Ok(next) => next.encode(u),
                Err(_) => POISON,
            });
        }
    }
}

/// Builds the dense state-major table, splitting the state-code range
/// across scoped threads. Also returns whether any entry is poisoned.
fn build_dense(sys: &System, ns: u64, num_ops: usize) -> (Vec<u32>, bool) {
    let total = ns as usize * num_ops;
    if total == 0 {
        return (Vec::new(), false);
    }
    let mut table = vec![POISON32; total];
    let threads = worker_count();
    if threads <= 1 || ns < 1024 {
        let poisoned = fill_dense_chunk(sys, &mut table, 0);
        return (table, poisoned);
    }
    let chunk_states = (ns as usize).div_ceil(threads);
    let poisoned = std::thread::scope(|scope| {
        let handles: Vec<_> = table
            .chunks_mut(chunk_states * num_ops)
            .enumerate()
            .map(|(i, chunk)| {
                let start = (i * chunk_states) as u64;
                scope.spawn(move || fill_dense_chunk(sys, chunk, start))
            })
            .collect();
        handles.into_iter().fold(false, |any, h| {
            h.join().expect("dense table worker does not panic") | any
        })
    });
    (table, poisoned)
}

/// Fills `chunk` (whole rows) with successors of codes starting at
/// `start_code`, returning whether any operation errored.
fn fill_dense_chunk(sys: &System, chunk: &mut [u32], start_code: u64) -> bool {
    let u = sys.universe();
    let num_ops = sys.num_ops();
    let mut poisoned = false;
    for (row, cells) in chunk.chunks_mut(num_ops).enumerate() {
        let sigma = State::decode(u, start_code + row as u64);
        for (op, cell) in cells.iter_mut().enumerate() {
            *cell = match sys.apply(OpId(op as u32), &sigma) {
                Ok(next) => next.encode(u) as u32,
                Err(_) => {
                    poisoned = true;
                    POISON32
                }
            };
        }
    }
    poisoned
}

/// Number of workers for scoped-thread parallel sections. Cached:
/// `available_parallelism` is a syscall on Linux, and this is consulted
/// once per BFS level on the search hot path.
pub(crate) fn worker_count() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to chunks of `items` on scoped threads, returning one
/// result per chunk in order. Falls back to a single sequential call
/// when `items` is small or the machine has one core.
pub(crate) fn par_map_chunks<T, R, F>(items: &[T], min_seq: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = worker_count();
    if threads <= 1 || items.len() <= min_seq.max(1) {
        return vec![f(items)];
    }
    let chunk_len = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(|| f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel chunk worker does not panic"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::system::System;

    fn compile_both(sys: &System) -> (CompiledSystem<'_>, CompiledSystem<'_>) {
        let budget = CompileBudget::default();
        let dense = CompiledSystem::compile(sys, Engine::CompiledDense, &budget).unwrap();
        let sparse = CompiledSystem::compile(sys, Engine::CompiledSparse, &budget).unwrap();
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
    fn obj_index_matches_decode() {
        let sys = examples::m1m2_system(3).unwrap();
        let u = sys.universe();
        let cs = CompiledSystem::auto(&sys).unwrap();
        for code in 0..sys.state_count().unwrap() {
            let sigma = State::decode(u, code);
            for obj in u.objects() {
                assert_eq!(cs.obj_index(code, obj), sigma.index(obj));
            }
        }
    }

    #[test]
    fn auto_respects_budget() {
        let sys = examples::copy_system(8).unwrap();
        let tiny = CompileBudget {
            max_dense_entries: 4,
            ..CompileBudget::default()
        };
        let cs = CompiledSystem::compile(&sys, Engine::Auto, &tiny).unwrap();
        assert_eq!(cs.kind(), TableKind::Sparse);
        let cs = CompiledSystem::auto(&sys).unwrap();
        assert_eq!(cs.kind(), TableKind::Dense);
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
        let cs = CompiledSystem::compile(&sys, Engine::CompiledDense, &CompileBudget::default())
            .unwrap();
        // x = 2 overflows the domain.
        assert!(!cs.is_total());
        let rows = cs.rows();
        assert_eq!(rows.row(2).succ(0), POISON);
        assert!(matches!(rows.step(2, 0), Err(Error::OutOfDomain { .. })));
        assert_eq!(rows.step(1, 0).unwrap(), 2);
    }
}
