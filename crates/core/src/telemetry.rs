//! Query observability: pluggable event sinks and per-query cost reports.
//!
//! Every decision procedure in this crate bottoms out in a handful of
//! expensive primitives — compiling successor tables, enumerating
//! `Sat(φ)`, expanding pair-BFS levels, materialising sparse successor
//! rows. Aggregate counters ([`crate::oracle::OracleStats`]) say how
//! *often* those ran, but not where a particular query's time went, so
//! cache wins cannot be attributed and a serving layer cannot be tuned.
//! This module makes the machinery observable:
//!
//! - [`QueryEvent`] — a `Copy` enum of the interesting moments (compile
//!   start/finish, partition-cache hit/miss, one BFS level expanded,
//!   memo rows reused/materialised, witness found, query finished);
//! - [`Sink`] — where events go. Implementations receive events by
//!   reference and must be cheap: they run on the search path.
//! - [`QueryReport`] — per-query cost accounting (wall time, pairs
//!   visited, pair expansions, engine chosen, cache attribution),
//!   returned by [`crate::query::Query`] runs and emitted as the final
//!   [`QueryEvent::QueryDone`] event.
//!
//! # Sink lifecycle and overhead
//!
//! A sink is attached when an [`crate::oracle::Oracle`] is constructed
//! ([`crate::oracle::Oracle::with_sink`]) or per query
//! ([`crate::query::Query::sink`]); construction-time attachment is the
//! only way to observe compile events, which fire before any query
//! runs. Internally the sink is an `Option`: when absent (the default —
//! semantically a [`NullSink`]), the hot path pays one branch per
//! *level*, not per pair, and allocates nothing. Events are built lazily
//! inside that branch, so an uninstrumented search does not even
//! construct them.
//!
//! Three sinks are provided: [`NullSink`] (drop everything),
//! [`RecordingSink`] (buffer events for test assertions), and
//! [`JsonLinesSink`] (serialise each event as one JSON object per line —
//! the `--telemetry` mode of the bench binary writes these).

use std::io::Write;
use std::sync::Mutex;

use crate::json::JsonBuf;

/// One observable moment in the life of a query. All variants are
/// `Copy` and carry only scalars: recording an event never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryEvent {
    /// Successor-table compilation is starting (`|Σ|` states, `|Δ|` ops).
    CompileStart {
        /// Number of states in the system being compiled.
        states: u64,
        /// Number of operations.
        ops: u64,
    },
    /// Compilation finished.
    CompileFinish {
        /// Table layout chosen: `"compiled-dense"` or `"compiled-sparse"`.
        kind: &'static str,
        /// Wall-clock nanoseconds spent compiling.
        wall_ns: u64,
    },
    /// A `Sat(φ)` enumeration was served from the Oracle's intern cache.
    PartitionHit {
        /// Size of the cached enumeration (`|Sat(φ)|`).
        states: u64,
    },
    /// A `Sat(φ)` enumeration had to be computed fresh.
    PartitionMiss {
        /// Size of the fresh enumeration (`|Sat(φ)|`).
        states: u64,
    },
    /// One BFS level is about to be expanded.
    BfsLevel {
        /// Depth of the level (0 = the initial pair frontier).
        level: u32,
        /// Number of pairs in this level's frontier.
        frontier: u64,
        /// Total pairs discovered so far (including this frontier).
        visited: u64,
    },
    /// Sparse successor rows were requested for a batch of states.
    MemoRows {
        /// Rows already memoised (served from cache).
        reused: u64,
        /// Rows interpreted and memoised by this request.
        materialized: u64,
    },
    /// A dependency witness (transmission certificate) was found.
    Witness {
        /// Length of the witness history.
        length: u32,
    },
    /// A serving-layer result cache answered a query without searching.
    /// Emitted by caches built *on top of* the query machinery (e.g.
    /// `sd-server`), never by the Oracle itself.
    ResultCacheHit {
        /// Canonical query fingerprint ([`crate::query::Query::fingerprint`]).
        key: u64,
    },
    /// A serving-layer result cache missed and the query ran for real.
    ResultCacheMiss {
        /// Canonical query fingerprint ([`crate::query::Query::fingerprint`]).
        key: u64,
    },
    /// A [`crate::query::Query`] run finished; the final accounting.
    QueryDone {
        /// The per-query cost report.
        report: QueryReport,
    },
}

/// Per-query cost accounting, attached to every
/// [`crate::query::QueryOutcome`] and emitted as
/// [`QueryEvent::QueryDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryReport {
    /// Engine that ran the search: `"interpreted"`, `"compiled-dense"`,
    /// `"compiled-sparse"`; `"cone"` when the Oracle's static cones of
    /// influence decided "no flow" without searching ([`crate::cone`]:
    /// a β or set query whose target's cone misses A, or a sinks or
    /// matrix query where no object's cone meets any row's A); or
    /// `"none"` when the query short-circuited without searching (empty
    /// target set, empty matrix). Both search-free labels come with
    /// zero pairs and levels.
    pub engine: &'static str,
    /// Wall-clock nanoseconds for the whole run (excluding any fresh
    /// compile, which is reported by [`QueryEvent::CompileFinish`]).
    pub wall_ns: u64,
    /// Distinct canonical state pairs discovered (summed over rows for
    /// matrix queries).
    pub visited_pairs: u64,
    /// Pair expansions attempted: frontier pairs × operations, summed
    /// over all levels. Unlike `visited_pairs` this counts work, not
    /// discoveries, so it is the better proxy for search cost.
    pub pair_expansions: u64,
    /// Deepest BFS level reached (max over rows for matrix queries).
    pub levels: u32,
    /// Whether `Sat(φ)` was served from the Oracle's intern cache (always
    /// `false` for one-shot [`crate::query::Query::run_on`] runs, which
    /// enumerate fresh).
    pub partition_cached: bool,
    /// Whether this run compiled the system itself (one-shot runs) as
    /// opposed to reusing a shared Oracle's tables.
    pub fresh_compile: bool,
    /// Sparse successor rows served from the memo.
    pub rows_reused: u64,
    /// Sparse successor rows interpreted by this query.
    pub rows_materialized: u64,
}

impl QueryReport {
    /// Pushes this report's fields (flat, canonical order) onto an open
    /// JSON object. The access log of `sd-server` and
    /// [`QueryEvent::QueryDone`] share this one encoding.
    pub fn json_fields(&self, j: &mut JsonBuf) {
        j.str_field("engine", self.engine)
            .u64_field("wall_ns", self.wall_ns)
            .u64_field("visited_pairs", self.visited_pairs)
            .u64_field("pair_expansions", self.pair_expansions)
            .u64_field("levels", u64::from(self.levels))
            .bool_field("partition_cached", self.partition_cached)
            .bool_field("fresh_compile", self.fresh_compile)
            .u64_field("rows_reused", self.rows_reused)
            .u64_field("rows_materialized", self.rows_materialized);
    }

    pub(crate) fn empty(engine: &'static str) -> QueryReport {
        QueryReport {
            engine,
            wall_ns: 0,
            visited_pairs: 0,
            pair_expansions: 0,
            levels: 0,
            partition_cached: false,
            fresh_compile: false,
            rows_reused: 0,
            rows_materialized: 0,
        }
    }

    /// Folds one row's search into a matrix query's report: counts add
    /// up, depth is the deepest row's.
    pub(crate) fn absorb(&mut self, row: &QueryReport) {
        self.visited_pairs += row.visited_pairs;
        self.pair_expansions += row.pair_expansions;
        self.levels = self.levels.max(row.levels);
        self.rows_reused += row.rows_reused;
        self.rows_materialized += row.rows_materialized;
    }
}

impl QueryEvent {
    /// Serialises the event as one self-contained JSON object (no
    /// trailing newline). The schema is flat: an `"event"` tag plus the
    /// variant's scalar fields. Encoding goes through the workspace's
    /// single JSON writer ([`crate::json`]).
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        match *self {
            QueryEvent::CompileStart { states, ops } => {
                j.str_field("event", "compile_start")
                    .u64_field("states", states)
                    .u64_field("ops", ops);
            }
            QueryEvent::CompileFinish { kind, wall_ns } => {
                j.str_field("event", "compile_finish")
                    .str_field("kind", kind)
                    .u64_field("wall_ns", wall_ns);
            }
            QueryEvent::PartitionHit { states } => {
                j.str_field("event", "partition_hit")
                    .u64_field("states", states);
            }
            QueryEvent::PartitionMiss { states } => {
                j.str_field("event", "partition_miss")
                    .u64_field("states", states);
            }
            QueryEvent::BfsLevel {
                level,
                frontier,
                visited,
            } => {
                j.str_field("event", "bfs_level")
                    .u64_field("level", u64::from(level))
                    .u64_field("frontier", frontier)
                    .u64_field("visited", visited);
            }
            QueryEvent::MemoRows {
                reused,
                materialized,
            } => {
                j.str_field("event", "memo_rows")
                    .u64_field("reused", reused)
                    .u64_field("materialized", materialized);
            }
            QueryEvent::Witness { length } => {
                j.str_field("event", "witness")
                    .u64_field("length", u64::from(length));
            }
            QueryEvent::ResultCacheHit { key } => {
                j.str_field("event", "result_cache_hit")
                    .u64_field("key", key);
            }
            QueryEvent::ResultCacheMiss { key } => {
                j.str_field("event", "result_cache_miss")
                    .u64_field("key", key);
            }
            QueryEvent::QueryDone { report } => {
                j.str_field("event", "query_done");
                report.json_fields(&mut j);
            }
        }
        j.end_obj();
        j.finish()
    }
}

/// Where [`QueryEvent`]s go. Implementations must be `Send + Sync`
/// (searches run on scoped worker threads) and should be cheap — the
/// sink is called on the BFS level loop.
pub trait Sink: Send + Sync {
    /// Records one event. Must not panic; I/O sinks swallow errors.
    fn record(&self, event: &QueryEvent);
}

/// A sink that drops every event. Attaching no sink at all is
/// equivalent and strictly cheaper (the instrumentation branch is never
/// taken); `NullSink` exists for call sites that need *a* sink value.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &QueryEvent) {}
}

/// A sink that buffers every event in memory, for test assertions.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<QueryEvent>>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// A snapshot of every event recorded so far, in order.
    pub fn events(&self) -> Vec<QueryEvent> {
        self.events.lock().expect("recording sink lock").clone()
    }

    /// Number of recorded events matching `pred`.
    pub fn count(&self, pred: impl Fn(&QueryEvent) -> bool) -> usize {
        self.events
            .lock()
            .expect("recording sink lock")
            .iter()
            .filter(|e| pred(e))
            .count()
    }

    /// Discards all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("recording sink lock").clear();
    }
}

impl Sink for RecordingSink {
    fn record(&self, event: &QueryEvent) {
        self.events
            .lock()
            .expect("recording sink lock")
            .push(*event);
    }
}

/// A sink that writes each event as one JSON line (see
/// [`QueryEvent::to_json`]). Write errors are swallowed: telemetry must
/// never fail a query.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("jsonl sink lock");
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn record(&self, event: &QueryEvent) {
        let mut out = self.out.lock().expect("jsonl sink lock");
        let _ = writeln!(out, "{}", event.to_json());
    }
}

/// Per-search instrumentation context threaded through the engines: an
/// optional sink plus the search's cost record, which the engines fill
/// whether or not a sink is attached (plain integer adds).
/// [`Trace::disabled`] is the uninstrumented fast path — every emission
/// site is a single `is_some` branch and the event is never constructed.
pub(crate) struct Trace<'a> {
    pub sink: Option<&'a dyn Sink>,
    pub report: QueryReport,
}

impl<'a> Trace<'a> {
    pub(crate) fn new(sink: Option<&'a dyn Sink>) -> Trace<'a> {
        Trace {
            sink,
            report: QueryReport::empty("none"),
        }
    }

    /// Uninstrumented context for direct engine invocations (tests and
    /// benches drive the search functions without an Oracle).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn disabled() -> Trace<'static> {
        Trace::new(None)
    }

    /// Records the event produced by `make` iff a sink is attached.
    #[inline]
    pub(crate) fn emit(&self, make: impl FnOnce() -> QueryEvent) {
        if let Some(sink) = self.sink {
            sink.record(&make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sink_preserves_order() {
        let sink = RecordingSink::new();
        sink.record(&QueryEvent::PartitionMiss { states: 4 });
        sink.record(&QueryEvent::BfsLevel {
            level: 0,
            frontier: 2,
            visited: 2,
        });
        sink.record(&QueryEvent::Witness { length: 1 });
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], QueryEvent::PartitionMiss { states: 4 });
        assert_eq!(sink.count(|e| matches!(e, QueryEvent::Witness { .. })), 1);
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn json_lines_schema_is_one_object_per_line() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(&QueryEvent::CompileStart { states: 9, ops: 2 });
        sink.record(&QueryEvent::QueryDone {
            report: QueryReport::empty("none"),
        });
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(r#""event":"#), "{line}");
        }
        assert!(lines[0].contains(r#""compile_start""#));
        assert!(lines[1].contains(r#""engine":"none""#));
    }

    #[test]
    fn disabled_trace_emits_nothing_and_counts() {
        let mut t = Trace::disabled();
        t.emit(|| unreachable!("no sink attached"));
        t.report.pair_expansions += 7;
        assert_eq!(t.report.pair_expansions, 7);
    }
}
