//! The sd-server wire protocol: JSON-lines request/response framing.
//!
//! One request per line, one response per line, both single JSON
//! objects. Every request may carry an `"id"`; the response echoes it.
//! Methods:
//!
//! | method         | fields                                                        |
//! |----------------|---------------------------------------------------------------|
//! | `ping`         | —                                                             |
//! | `register`     | `example`+`params`, or `program` (mini-language source)       |
//! | `depends`      | `system`, `a`, `beta` or `set`, `phi?`, `bound?`, limits      |
//! | `sinks`        | `system`, `a`, `phi?`, limits                                 |
//! | `sinks_matrix` | `system`, `sources`, `phi?`, limits                           |
//! | `metrics`      | `format?` (`"json"` default, or `"prometheus"`)               |
//! | `slowlog`      | `limit?` (most recent N slow queries; default all buffered)   |
//! | `shutdown`     | —                                                             |
//!
//! Limits are `timeout_ms` and `max_pairs`, mapped onto
//! [`sd_core::Query`]'s deadline/budget. Success responses are
//! `{"id":…,"ok":true,…}`; failures are `{"id":…,"ok":false,
//! "error":{"kind":…,"message":…}}` with a machine-readable kind.
//! Malformed input is answered with an error response and the
//! connection stays usable — the framing resynchronises at the next
//! newline.

use sd_core::{Fnv64, JsonBuf, QueryAnswer, QueryOutcome, QueryReport, System};

use crate::metrics::Method;
use crate::wire::{self, Json};

/// Maximum accepted request-line length in bytes. Longer frames are
/// rejected with a `too_large` error without buffering the payload.
pub const MAX_FRAME: usize = 1 << 20;

/// Machine-readable error categories carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON.
    Parse,
    /// The request was valid JSON but not a valid frame.
    Protocol,
    /// The request line exceeded [`MAX_FRAME`].
    TooLarge,
    /// The `method` is not one the server knows.
    UnknownMethod,
    /// The `system` key is not registered.
    UnknownSystem,
    /// The request named unknown objects, an unparsable φ, or an
    /// otherwise semantically invalid query.
    Invalid,
    /// The query ran past its deadline ([`sd_core::Error::DeadlineExceeded`]).
    Timeout,
    /// The query exhausted its pair budget ([`sd_core::Error::BudgetExhausted`]).
    Budget,
    /// The admission queue was full; retry later.
    Overloaded,
    /// The server is draining and accepts no new queries.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// Every kind, in declaration order.
    pub const ALL: [ErrorKind; 11] = [
        ErrorKind::Parse,
        ErrorKind::Protocol,
        ErrorKind::TooLarge,
        ErrorKind::UnknownMethod,
        ErrorKind::UnknownSystem,
        ErrorKind::Invalid,
        ErrorKind::Timeout,
        ErrorKind::Budget,
        ErrorKind::Overloaded,
        ErrorKind::ShuttingDown,
        ErrorKind::Internal,
    ];

    /// The wire spelling of the kind.
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::UnknownMethod => "unknown_method",
            ErrorKind::UnknownSystem => "unknown_system",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Budget => "budget",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses the wire spelling back (client side).
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// A structured protocol error: kind + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error of `kind` with a message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> WireError {
        WireError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

/// How a system is defined at registration time. The registry keys
/// systems by [`SystemDesc::content_key`] — the hash of this content —
/// so re-registering the same description is idempotent and never
/// recompiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemDesc {
    /// A named paper-example builder with integer parameters
    /// (`"guarded_copy"` with `[2]`, `"pointer_chain"` with `[3, 2]`…).
    Example {
        /// Builder name (see `sd_core::examples`).
        name: String,
        /// Builder parameters, in declaration order.
        params: Vec<i64>,
    },
    /// A mini-language program (see `sd_lang`), compiled with the pc
    /// construction.
    Program {
        /// The program source text.
        source: String,
    },
}

impl SystemDesc {
    /// Canonical content hash: FNV-1a over a tagged encoding of the
    /// description. Stable across processes, so clients may predict it.
    pub fn content_key(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = Fnv64::new();
        match self {
            SystemDesc::Example { name, params } => {
                h.write_u8(1);
                h.write(name.as_bytes());
                h.write_u8(0);
                for p in params {
                    h.write_i64(*p);
                }
            }
            SystemDesc::Program { source } => {
                h.write_u8(2);
                h.write(source.as_bytes());
            }
        }
        h.digest()
    }

    /// Human-readable one-line description for stats and logs.
    pub fn describe(&self) -> String {
        match self {
            SystemDesc::Example { name, params } => {
                let ps: Vec<String> = params.iter().map(|p| p.to_string()).collect();
                format!("example:{}({})", name, ps.join(","))
            }
            SystemDesc::Program { source } => {
                format!("program({} bytes)", source.len())
            }
        }
    }
}

/// Which relation a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `A ▷φ β` (or the set-target `A ▷φ B`).
    Depends,
    /// All sinks of A.
    Sinks,
    /// One sinks row per source set.
    SinksMatrix,
}

impl QueryKind {
    /// The wire method name.
    pub fn method(self) -> &'static str {
        Method::from_kind(self).as_str()
    }
}

/// A query request, object references by *name* (resolved against the
/// target system's universe server-side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReq {
    /// Registry key of the target system.
    pub system: u64,
    /// The relation asked for.
    pub kind: QueryKind,
    /// φ as mini-language source text; `None` ⇒ `tt` (no constraint).
    pub phi: Option<String>,
    /// Source object names (A).
    pub a: Vec<String>,
    /// Target object for `depends`.
    pub beta: Option<String>,
    /// Set target for `depends` (mutually exclusive with `beta`).
    pub set: Vec<String>,
    /// Source rows for `sinks_matrix`.
    pub sources: Vec<Vec<String>>,
    /// History-length bound (β-target only): the pair search stops
    /// expanding after this many levels.
    pub bound: Option<usize>,
    /// Per-request deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request visited-pair budget.
    pub max_pairs: Option<u64>,
}

impl QueryReq {
    /// A `sinks` query skeleton.
    pub fn sinks(system: u64, a: Vec<String>) -> QueryReq {
        QueryReq {
            system,
            kind: QueryKind::Sinks,
            phi: None,
            a,
            beta: None,
            set: Vec::new(),
            sources: Vec::new(),
            bound: None,
            timeout_ms: None,
            max_pairs: None,
        }
    }

    /// A `depends` query skeleton.
    pub fn depends(system: u64, a: Vec<String>, beta: impl Into<String>) -> QueryReq {
        let mut q = QueryReq::sinks(system, a);
        q.kind = QueryKind::Depends;
        q.beta = Some(beta.into());
        q
    }

    /// A `sinks_matrix` query skeleton.
    pub fn matrix(system: u64, sources: Vec<Vec<String>>) -> QueryReq {
        let mut q = QueryReq::sinks(system, Vec::new());
        q.kind = QueryKind::SinksMatrix;
        q.sources = sources;
        q
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Register (or look up) a system.
    Register(SystemDesc),
    /// Run a strong-dependency query.
    Query(QueryReq),
    /// Metric-families scrape. `prom` selects the Prometheus text
    /// exposition; otherwise the response carries structured JSON.
    Metrics {
        /// `true` ⇒ `"format":"prometheus"`.
        prom: bool,
    },
    /// The most recent slow-query entries, oldest first.
    SlowLog {
        /// Cap on returned entries; `None` ⇒ the whole ring.
        limit: Option<u64>,
    },
    /// Begin graceful shutdown.
    Shutdown,
}

impl Request {
    /// The request's method.
    pub(crate) fn method(&self) -> Method {
        match self {
            Request::Ping => Method::Ping,
            Request::Register(_) => Method::Register,
            Request::Query(q) => Method::from_kind(q.kind),
            Request::Metrics { .. } => Method::Metrics,
            Request::SlowLog { .. } => Method::SlowLog,
            Request::Shutdown => Method::Shutdown,
        }
    }
}

/// A request with its correlation id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Echoed verbatim in the response; `None` ⇒ the response carries
    /// `"id":null`.
    pub id: Option<u64>,
    /// The request body.
    pub req: Request,
}

fn str_list(v: &Json, field: &str) -> Result<Vec<String>, WireError> {
    let arr = v.as_arr().ok_or_else(|| {
        WireError::new(
            ErrorKind::Protocol,
            format!("field `{field}` must be an array of strings"),
        )
    })?;
    arr.iter()
        .map(|e| {
            e.as_str().map(str::to_string).ok_or_else(|| {
                WireError::new(
                    ErrorKind::Protocol,
                    format!("field `{field}` must contain only strings"),
                )
            })
        })
        .collect()
}

/// Reads optional field `field` of object `v` with `read`: absent or
/// `null` gives `None`, a value `read` rejects the protocol error
/// "field `field` must be {what}".
fn opt_field<'a, T>(
    v: &'a Json,
    field: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, WireError> {
    match v.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => read(x).map(Some).ok_or_else(|| {
            WireError::new(
                ErrorKind::Protocol,
                format!("field `{field}` must be {what}"),
            )
        }),
    }
}

/// An optional unsigned integer field (see [`opt_field`]).
fn opt_u64(v: &Json, field: &str) -> Result<Option<u64>, WireError> {
    opt_field(v, field, "an unsigned integer", Json::as_u64)
}

/// An optional string field (see [`opt_field`]).
fn opt_string(v: &Json, field: &str) -> Result<Option<String>, WireError> {
    opt_field(v, field, "a string", |x| x.as_str().map(str::to_string))
}

/// Parses one request line into a [`Frame`].
pub fn parse_frame(line: &str) -> Result<Frame, WireError> {
    if line.len() > MAX_FRAME {
        return Err(WireError::new(
            ErrorKind::TooLarge,
            format!("frame of {} bytes exceeds limit {}", line.len(), MAX_FRAME),
        ));
    }
    let v = wire::parse(line).map_err(|e| WireError::new(ErrorKind::Parse, e.to_string()))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(WireError::new(
            ErrorKind::Protocol,
            "request must be a JSON object",
        ));
    }
    let id = opt_u64(&v, "id")?;
    let name = v
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(ErrorKind::Protocol, "missing string field `method`"))?;
    let req = match Method::from_name(name) {
        Some(Method::Ping) => Request::Ping,
        Some(Method::Shutdown) => Request::Shutdown,
        Some(Method::Metrics) => {
            let prom = match v.get("format") {
                None | Some(Json::Null) => false,
                Some(f) => match f.as_str() {
                    Some("json") => false,
                    Some("prometheus") | Some("prom") => true,
                    _ => {
                        return Err(WireError::new(
                            ErrorKind::Protocol,
                            "field `format` must be \"json\" or \"prometheus\"",
                        ))
                    }
                },
            };
            Request::Metrics { prom }
        }
        Some(Method::SlowLog) => Request::SlowLog {
            limit: opt_u64(&v, "limit")?,
        },
        Some(Method::Register) => {
            let desc = match (v.get("example"), v.get("program")) {
                (Some(name), None) => {
                    let name = name
                        .as_str()
                        .ok_or_else(|| {
                            WireError::new(ErrorKind::Protocol, "field `example` must be a string")
                        })?
                        .to_string();
                    let params = match v.get("params") {
                        None => Vec::new(),
                        Some(p) => p
                            .as_arr()
                            .ok_or_else(|| {
                                WireError::new(
                                    ErrorKind::Protocol,
                                    "field `params` must be an array of integers",
                                )
                            })?
                            .iter()
                            .map(|e| {
                                e.as_i64().ok_or_else(|| {
                                    WireError::new(
                                        ErrorKind::Protocol,
                                        "field `params` must contain only integers",
                                    )
                                })
                            })
                            .collect::<Result<Vec<i64>, WireError>>()?,
                    };
                    SystemDesc::Example { name, params }
                }
                (None, Some(src)) => SystemDesc::Program {
                    source: src
                        .as_str()
                        .ok_or_else(|| {
                            WireError::new(ErrorKind::Protocol, "field `program` must be a string")
                        })?
                        .to_string(),
                },
                _ => {
                    return Err(WireError::new(
                        ErrorKind::Protocol,
                        "register needs exactly one of `example` or `program`",
                    ))
                }
            };
            Request::Register(desc)
        }
        Some(method @ (Method::Depends | Method::Sinks | Method::SinksMatrix)) => {
            let system = v.get("system").and_then(Json::as_u64).ok_or_else(|| {
                WireError::new(
                    ErrorKind::Protocol,
                    "missing unsigned integer field `system`",
                )
            })?;
            let kind = match method {
                Method::Depends => QueryKind::Depends,
                Method::Sinks => QueryKind::Sinks,
                _ => QueryKind::SinksMatrix,
            };
            let phi = opt_string(&v, "phi")?;
            let a = match v.get("a") {
                None => Vec::new(),
                Some(av) => str_list(av, "a")?,
            };
            let beta = opt_string(&v, "beta")?;
            let set = match v.get("set") {
                None => Vec::new(),
                Some(sv) => str_list(sv, "set")?,
            };
            let sources = match v.get("sources") {
                None => Vec::new(),
                Some(sv) => sv
                    .as_arr()
                    .ok_or_else(|| {
                        WireError::new(
                            ErrorKind::Protocol,
                            "field `sources` must be an array of arrays",
                        )
                    })?
                    .iter()
                    .map(|row| str_list(row, "sources"))
                    .collect::<Result<Vec<Vec<String>>, WireError>>()?,
            };
            Request::Query(QueryReq {
                system,
                kind,
                phi,
                a,
                beta,
                set,
                sources,
                bound: opt_u64(&v, "bound")?.map(|b| b as usize),
                timeout_ms: opt_u64(&v, "timeout_ms")?,
                max_pairs: opt_u64(&v, "max_pairs")?,
            })
        }
        None | Some(Method::Unknown) => {
            return Err(WireError::new(
                ErrorKind::UnknownMethod,
                format!("unknown method `{name}`"),
            ))
        }
    };
    Ok(Frame { id, req })
}

/// Writes the `id` field: the number, or `null` when the frame had none.
pub(crate) fn put_id(j: &mut JsonBuf, id: Option<u64>) {
    match id {
        Some(id) => j.u64_field("id", id),
        None => j.null_field("id"),
    };
}

/// Encodes a request [`Frame`] as one wire line (no trailing newline).
pub fn encode_frame(frame: &Frame) -> String {
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, frame.id);
    j.str_field("method", frame.req.method().as_str());
    match &frame.req {
        Request::Ping | Request::Shutdown => {}
        Request::Metrics { prom } => {
            if *prom {
                j.str_field("format", "prometheus");
            }
        }
        Request::SlowLog { limit } => {
            if let Some(l) = limit {
                j.u64_field("limit", *l);
            }
        }
        Request::Register(desc) => match desc {
            SystemDesc::Example { name, params } => {
                j.str_field("example", name);
                j.begin_arr_field("params");
                for p in params {
                    j.i64_elem(*p);
                }
                j.end_arr();
            }
            SystemDesc::Program { source } => {
                j.str_field("program", source);
            }
        },
        Request::Query(q) => {
            j.u64_field("system", q.system);
            if let Some(phi) = &q.phi {
                j.str_field("phi", phi);
            }
            if !q.a.is_empty() {
                j.begin_arr_field("a");
                for n in &q.a {
                    j.str_elem(n);
                }
                j.end_arr();
            }
            if let Some(beta) = &q.beta {
                j.str_field("beta", beta);
            }
            if !q.set.is_empty() {
                j.begin_arr_field("set");
                for n in &q.set {
                    j.str_elem(n);
                }
                j.end_arr();
            }
            if !q.sources.is_empty() {
                j.begin_arr_field("sources");
                for row in &q.sources {
                    j.begin_arr_elem();
                    for n in row {
                        j.str_elem(n);
                    }
                    j.end_arr();
                }
                j.end_arr();
            }
            if let Some(b) = q.bound {
                j.u64_field("bound", b as u64);
            }
            if let Some(t) = q.timeout_ms {
                j.u64_field("timeout_ms", t);
            }
            if let Some(m) = q.max_pairs {
                j.u64_field("max_pairs", m);
            }
        }
    }
    j.end_obj();
    j.finish()
}

/// Serialises a [`QueryOutcome`]'s answer as a canonical JSON value.
///
/// This is the *cacheable* part of a response: deterministic given the
/// outcome, independent of timing, ids, and cache state, so a cache
/// replay is byte-identical to the original. Object names come from the
/// system's universe; witness states serialise as name → value maps in
/// universe order.
pub fn encode_answer(sys: &System, out: &QueryOutcome) -> String {
    let u = sys.universe();
    let mut j = JsonBuf::new();
    j.begin_obj();
    match &out.answer {
        QueryAnswer::Depends(witness) => {
            j.str_field("type", "depends");
            j.bool_field("holds", witness.is_some());
            match witness {
                None => {
                    j.null_field("witness");
                }
                Some(w) => {
                    j.begin_obj_field("witness");
                    j.begin_arr_field("history");
                    for op in w.history.ops() {
                        let name = sys.op(*op).map(|o| o.name().to_string());
                        j.str_elem(name.as_deref().unwrap_or("?"));
                    }
                    j.end_arr();
                    for (key, sigma) in [("sigma1", &w.sigma1), ("sigma2", &w.sigma2)] {
                        j.begin_obj_field(key);
                        for obj in u.objects() {
                            j.str_field(u.name(obj), &sigma.value(u, obj).to_string());
                        }
                        j.end_obj();
                    }
                    j.end_obj();
                }
            }
        }
        QueryAnswer::Sinks(set) => {
            j.str_field("type", "sinks");
            j.begin_arr_field("objects");
            for obj in set.iter() {
                j.str_elem(u.name(obj));
            }
            j.end_arr();
        }
        QueryAnswer::Matrix(rows) => {
            j.str_field("type", "matrix");
            j.begin_arr_field("rows");
            for row in rows {
                j.begin_arr_elem();
                for obj in row.iter() {
                    j.str_elem(u.name(obj));
                }
                j.end_arr();
            }
            j.end_arr();
        }
    }
    j.end_obj();
    j.finish()
}

/// Starts a response line with its `id` and `ok` fields; the caller
/// adds the rest, closes the object and finishes the buffer.
pub(crate) fn begin_response(id: Option<u64>, ok: bool) -> JsonBuf {
    let mut j = JsonBuf::new();
    j.begin_obj();
    put_id(&mut j, id);
    j.bool_field("ok", ok);
    j
}

/// Encodes an error response line.
pub fn encode_error(id: Option<u64>, err: &WireError) -> String {
    let mut j = begin_response(id, false);
    j.begin_obj_field("error")
        .str_field("kind", err.kind.as_str())
        .str_field("message", &err.message)
        .end_obj();
    j.end_obj();
    j.finish()
}

/// Encodes a successful query response around a pre-serialised answer.
pub fn encode_query_ok(
    id: Option<u64>,
    answer_json: &str,
    cached: bool,
    report: Option<&QueryReport>,
) -> String {
    let mut j = begin_response(id, true);
    j.bool_field("cached", cached);
    j.raw_field("answer", answer_json);
    if let Some(r) = report {
        j.begin_obj_field("meta");
        r.json_fields(&mut j);
        j.end_obj();
    }
    j.end_obj();
    j.finish()
}

/// A parsed response frame (client side). `answer_raw` preserves the
/// exact bytes of the `answer` value so callers can assert cache
/// replays are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// The parsed `answer` value, when present.
    pub answer: Option<Json>,
    /// The exact serialised bytes of the `answer` value, when present.
    pub answer_raw: Option<String>,
    /// The full parsed response body.
    pub body: Json,
    /// The error, when `ok` is false.
    pub error: Option<WireError>,
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<ResponseFrame, WireError> {
    let body = wire::parse(line).map_err(|e| WireError::new(ErrorKind::Parse, e.to_string()))?;
    let id = body.get("id").and_then(Json::as_u64);
    let ok = body.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let cached = body.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let answer = body.get("answer").cloned();
    let answer_raw = match &answer {
        None => None,
        Some(_) => wire::top_level_spans(line)
            .ok()
            .and_then(|spans| spans.into_iter().find(|(k, _)| k == "answer"))
            .map(|(_, (s, e))| line[s..e].to_string()),
    };
    let error = body.get("error").map(|e| {
        let kind = e
            .get("kind")
            .and_then(Json::as_str)
            .and_then(ErrorKind::from_wire)
            .unwrap_or(ErrorKind::Internal);
        let message = e
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        WireError { kind, message }
    });
    Ok(ResponseFrame {
        id,
        ok,
        cached,
        answer,
        answer_raw,
        body,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let frame = Frame {
            id: Some(3),
            req: Request::Query(QueryReq {
                system: 99,
                kind: QueryKind::Depends,
                phi: Some("!m".into()),
                a: vec!["alpha".into()],
                beta: Some("beta".into()),
                set: Vec::new(),
                sources: Vec::new(),
                bound: Some(4),
                timeout_ms: Some(250),
                max_pairs: Some(1000),
            }),
        };
        let line = encode_frame(&frame);
        assert_eq!(parse_frame(&line).unwrap(), frame);
    }

    #[test]
    fn register_round_trip() {
        for desc in [
            SystemDesc::Example {
                name: "guarded_copy".into(),
                params: vec![2],
            },
            SystemDesc::Program {
                source: "var x: bool;\nx := true;".into(),
            },
        ] {
            let frame = Frame {
                id: None,
                req: Request::Register(desc.clone()),
            };
            let line = encode_frame(&frame);
            assert_eq!(parse_frame(&line).unwrap().req, Request::Register(desc));
        }
    }

    #[test]
    fn metrics_and_slowlog_round_trip() {
        for req in [
            Request::Metrics { prom: false },
            Request::Metrics { prom: true },
            Request::SlowLog { limit: None },
            Request::SlowLog { limit: Some(16) },
        ] {
            let frame = Frame {
                id: Some(1),
                req: req.clone(),
            };
            assert_eq!(parse_frame(&encode_frame(&frame)).unwrap().req, req);
        }
        // `"format":"prom"` is accepted as an alias; garbage is not.
        assert_eq!(
            parse_frame(r#"{"method":"metrics","format":"prom"}"#)
                .unwrap()
                .req,
            Request::Metrics { prom: true }
        );
        assert_eq!(
            parse_frame(r#"{"method":"metrics","format":"xml"}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Protocol
        );
        assert_eq!(
            parse_frame(r#"{"method":"slowlog","limit":"x"}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Protocol
        );
    }

    /// A request of every method but `Unknown` survives `encode_frame`
    /// → `parse_frame`, and its wire name is its metric label. Neither
    /// `unknown` nor the retired `stats` is a wire method.
    #[test]
    fn every_method_round_trips_under_its_label() {
        let reqs = [
            Request::Ping,
            Request::Register(SystemDesc::Example {
                name: "copy".into(),
                params: vec![2],
            }),
            Request::Query(QueryReq::depends(7, vec!["a".into()], "b")),
            Request::Query(QueryReq::sinks(7, vec!["a".into()])),
            Request::Query(QueryReq::matrix(7, vec![vec!["a".into()]])),
            Request::Metrics { prom: false },
            Request::SlowLog { limit: None },
            Request::Shutdown,
        ];
        let methods: Vec<Method> = reqs.iter().map(Request::method).collect();
        assert_eq!(methods, Method::ALL[..Method::ALL.len() - 1]);
        for req in reqs {
            let line = encode_frame(&Frame {
                id: Some(1),
                req: req.clone(),
            });
            let wire_name = wire::parse(&line).unwrap().get("method").cloned();
            let label = req.method().as_str();
            assert_eq!(wire_name.as_ref().and_then(Json::as_str), Some(label));
            assert_eq!(parse_frame(&line).unwrap().req, req);
        }
        for name in ["unknown", "stats"] {
            let line = format!(r#"{{"method":"{name}"}}"#);
            let err = parse_frame(&line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::UnknownMethod, "{name}");
        }
    }

    #[test]
    fn content_key_is_stable_and_discriminates() {
        let a = SystemDesc::Example {
            name: "copy".into(),
            params: vec![2],
        };
        let b = SystemDesc::Example {
            name: "copy".into(),
            params: vec![3],
        };
        let c = SystemDesc::Program {
            source: "copy".into(),
        };
        assert_eq!(a.content_key(), a.content_key());
        assert_ne!(a.content_key(), b.content_key());
        assert_ne!(a.content_key(), c.content_key());
    }

    #[test]
    fn malformed_frames_yield_structured_kinds() {
        assert_eq!(parse_frame("{oops").unwrap_err().kind, ErrorKind::Parse);
        assert_eq!(parse_frame("[1,2]").unwrap_err().kind, ErrorKind::Protocol);
        assert_eq!(
            parse_frame(r#"{"method":"frobnicate"}"#).unwrap_err().kind,
            ErrorKind::UnknownMethod
        );
        assert_eq!(
            parse_frame(r#"{"method":"depends"}"#).unwrap_err().kind,
            ErrorKind::Protocol
        );
        let oversized = format!(r#"{{"method":"ping","pad":"{}"}}"#, "x".repeat(MAX_FRAME));
        assert_eq!(
            parse_frame(&oversized).unwrap_err().kind,
            ErrorKind::TooLarge
        );
    }

    #[test]
    fn error_response_round_trip() {
        let line = encode_error(Some(9), &WireError::new(ErrorKind::Timeout, "too slow"));
        let resp = parse_response(&line).unwrap();
        assert_eq!(resp.id, Some(9));
        assert!(!resp.ok);
        let err = resp.error.unwrap();
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert_eq!(err.message, "too slow");
    }

    #[test]
    fn query_ok_preserves_answer_bytes() {
        let answer = r#"{"type":"sinks","objects":["beta","gamma"]}"#;
        let line = encode_query_ok(Some(1), answer, true, None);
        let resp = parse_response(&line).unwrap();
        assert!(resp.ok);
        assert!(resp.cached);
        assert_eq!(resp.answer_raw.as_deref(), Some(answer));
    }
}
