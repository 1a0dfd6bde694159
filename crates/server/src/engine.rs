//! Pure query execution: one request against one registered system.
//!
//! This layer is deliberately free of I/O and threading so the whole
//! request path — name resolution, φ lowering, fingerprinting, cache
//! lookup, query run, answer serialisation — is testable in-process.
//! The TCP server calls [`execute_query`] on the connection thread
//! that read the request, once its admission gate grants a slot.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sd_core::{Error, ObjSet, Phi, Query, QueryEvent, QueryReport, Sink};
use sd_lang::lower_phi;

use crate::cache::ResultCache;
use crate::metrics::{Phase, RequestTrace};
use crate::proto::{self, ErrorKind, QueryKind, QueryReq, WireError};
use crate::registry::SystemEntry;

/// The result of executing one query request.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The serialised answer value (spliced into the response).
    pub answer: Arc<str>,
    /// Whether it came from the result cache.
    pub cached: bool,
    /// The canonical fingerprint, when the query was fingerprintable.
    pub fingerprint: Option<u64>,
    /// The cost report — `None` on cache hits (no search ran).
    pub report: Option<QueryReport>,
}

fn resolve_set(entry: &SystemEntry, names: &[String]) -> Result<ObjSet, WireError> {
    let u = entry.system.universe();
    let mut set = ObjSet::empty();
    for name in names {
        let obj = u
            .obj(name)
            .map_err(|_| WireError::new(ErrorKind::Invalid, format!("unknown object `{name}`")))?;
        set.insert(obj);
    }
    Ok(set)
}

fn core_error(e: Error) -> WireError {
    let kind = match e {
        Error::DeadlineExceeded => ErrorKind::Timeout,
        Error::BudgetExhausted { .. } => ErrorKind::Budget,
        _ => ErrorKind::Invalid,
    };
    WireError::new(kind, e.to_string())
}

/// Builds the [`Query`] a request denotes, with limits applied.
fn build_query(
    entry: &SystemEntry,
    req: &QueryReq,
    max_timeout: Duration,
) -> Result<Query, WireError> {
    let u = entry.system.universe();
    let phi = match req.phi.as_deref() {
        None | Some("") => Phi::True,
        Some(src) => lower_phi(u, src)
            .map_err(|e| WireError::new(ErrorKind::Invalid, format!("bad phi: {e}")))?,
    };
    let mut q = match req.kind {
        QueryKind::SinksMatrix => {
            let sources = req
                .sources
                .iter()
                .map(|row| resolve_set(entry, row))
                .collect::<Result<Vec<ObjSet>, WireError>>()?;
            Query::matrix(phi, sources)
        }
        QueryKind::Sinks => Query::new(phi, resolve_set(entry, &req.a)?),
        QueryKind::Depends => {
            let q = Query::new(phi, resolve_set(entry, &req.a)?);
            match (&req.beta, req.set.is_empty()) {
                (Some(beta), true) => {
                    let obj = u.obj(beta).map_err(|_| {
                        WireError::new(ErrorKind::Invalid, format!("unknown object `{beta}`"))
                    })?;
                    q.beta(obj)
                }
                (None, false) => q.set(resolve_set(entry, &req.set)?),
                _ => {
                    return Err(WireError::new(
                        ErrorKind::Protocol,
                        "depends needs exactly one of `beta` or `set`",
                    ))
                }
            }
        }
    };
    if let Some(b) = req.bound {
        q = q.bounded(b);
    }
    let timeout = req
        .timeout_ms
        .map(Duration::from_millis)
        .map_or(max_timeout, |t| t.min(max_timeout));
    q = q.timeout(timeout);
    if let Some(m) = req.max_pairs {
        q = q.max_pairs(m);
    }
    Ok(q)
}

/// Executes one query request against a registered system: fingerprint
/// → cache lookup → (on miss) run on the shared Oracle → cache fill.
///
/// `max_timeout` caps (and defaults) the per-request deadline — the
/// server's robustness floor against requests that would otherwise hold
/// an admission slot forever.
///
/// `trace` attributes the stage costs to request phases: query
/// construction (φ lowering, name resolution) is `compile`; the
/// fingerprint, the cache probe and its hit/miss event are `cache`; the
/// pair search is `search`; and answer encoding is `serialize`. Any fresh
/// successor-table compile triggered inside `Query::run` lands in
/// `search` here; the dedicated compile accounting for it comes from
/// the telemetry stream (`CompileFinish.wall_ns`) instead, which is why
/// `QueryReport.wall_ns` excluding compile time no longer loses
/// information at the server.
pub fn execute_query(
    entry: &SystemEntry,
    cache: &ResultCache,
    sink: Option<&Arc<dyn Sink>>,
    req: &QueryReq,
    max_timeout: Duration,
    trace: &mut RequestTrace,
) -> Result<ExecOutcome, WireError> {
    let t = Instant::now();
    let q = build_query(entry, req, max_timeout);
    // The cache phase starts on the clock read that ends this one.
    let t = trace.lap(Phase::Compile, t);
    let q = q?;
    let cache_key = |fp: u64| (u128::from(entry.key) << 64) | u128::from(fp);
    let fingerprint = q.fingerprint();
    let hit = fingerprint.and_then(|fp| cache.get(cache_key(fp)));
    if let (Some(fp), Some(s)) = (fingerprint, sink) {
        s.record(&match hit {
            Some(_) => QueryEvent::ResultCacheHit { key: fp },
            None => QueryEvent::ResultCacheMiss { key: fp },
        });
    }
    if let Some(answer) = hit {
        // Releasing the unused query is part of answering from cache.
        drop(q);
        trace.lap(Phase::Cache, t);
        return Ok(ExecOutcome {
            answer,
            cached: true,
            fingerprint,
            report: None,
        });
    }
    trace.lap(Phase::Cache, t);
    let outcome = trace
        .time(Phase::Search, || q.run(&entry.oracle))
        .map_err(core_error)?;
    let answer: Arc<str> = trace.time(Phase::Serialize, || {
        Arc::from(proto::encode_answer(entry.system, &outcome))
    });
    if let Some(fp) = fingerprint {
        trace.time(Phase::Cache, || {
            cache.insert(cache_key(fp), Arc::clone(&answer))
        });
    }
    Ok(ExecOutcome {
        answer,
        cached: false,
        fingerprint,
        report: Some(outcome.report),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SystemDesc;
    use crate::registry::Registry;
    use sd_core::CompileBudget;

    fn entry() -> Arc<SystemEntry> {
        let reg = Registry::new(4, CompileBudget::default(), None);
        reg.register(&SystemDesc::Example {
            name: "guarded_copy".into(),
            params: vec![2],
        })
        .unwrap()
        .0
    }

    fn run(
        entry: &SystemEntry,
        cache: &ResultCache,
        req: &QueryReq,
    ) -> Result<ExecOutcome, WireError> {
        let mut trace = RequestTrace::start();
        execute_query(entry, cache, None, req, Duration::from_secs(5), &mut trace)
    }

    fn depends_req(entry: &SystemEntry, phi: &str) -> QueryReq {
        let mut r = QueryReq::depends(entry.key, vec!["alpha".into()], "beta");
        r.phi = Some(phi.into());
        r
    }

    #[test]
    fn second_identical_query_hits_cache_byte_identically() {
        let entry = entry();
        let cache = ResultCache::new(8);
        let req = depends_req(&entry, "m");
        let mut trace = RequestTrace::start();
        let cold = execute_query(
            &entry,
            &cache,
            None,
            &req,
            Duration::from_secs(5),
            &mut trace,
        )
        .unwrap();
        assert!(trace.phase_ns(Phase::Search) > 0, "search phase timed");
        let warm = run(&entry, &cache, &req).unwrap();
        assert!(!cold.cached);
        assert!(warm.cached);
        assert_eq!(&*cold.answer, &*warm.answer);
        assert!(warm.report.is_none());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn limits_do_not_split_the_cache_key() {
        let entry = entry();
        let cache = ResultCache::new(8);
        let mut req = depends_req(&entry, "m");
        run(&entry, &cache, &req).unwrap();
        req.timeout_ms = Some(4000);
        req.max_pairs = Some(1 << 40);
        let warm = run(&entry, &cache, &req).unwrap();
        assert!(warm.cached, "limits must not change the fingerprint");
    }

    #[test]
    fn unknown_object_is_invalid_not_panic() {
        let entry = entry();
        let cache = ResultCache::new(8);
        let req = QueryReq::depends(entry.key, vec!["nope".into()], "beta");
        let err = run(&entry, &cache, &req).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Invalid);
        assert!(err.message.contains("nope"));
    }

    #[test]
    fn exhausted_budget_maps_to_budget_kind() {
        let entry = entry();
        let cache = ResultCache::new(8);
        let mut req = QueryReq::sinks(entry.key, vec!["alpha".into()]);
        req.max_pairs = Some(0);
        let err = run(&entry, &cache, &req).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Budget);
    }

    #[test]
    fn failed_queries_are_not_cached() {
        let entry = entry();
        let cache = ResultCache::new(8);
        let mut req = QueryReq::sinks(entry.key, vec!["alpha".into()]);
        req.max_pairs = Some(0);
        let _ = run(&entry, &cache, &req);
        // Same semantic query, no budget: must run and succeed.
        req.max_pairs = None;
        let out = run(&entry, &cache, &req).unwrap();
        assert!(!out.cached);
        assert!(out.report.is_some());
    }
}
