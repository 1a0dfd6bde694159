//! A blocking client for the sd-server protocol.
//!
//! One request in flight per connection; ids are assigned
//! monotonically and checked against the response. `sdcheck client`
//! and the end-to-end tests are built on this.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    self, ErrorKind, Frame, QueryReq, Request, ResponseFrame, SystemDesc, WireError,
};
use crate::wire::Json;

/// A client-side failure: transport errors surface as
/// [`ErrorKind::Internal`]; server-reported errors keep their kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError {
            kind: ErrorKind::Internal,
            message: format!("transport: {e}"),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError {
            kind: e.kind,
            message: e.message,
        }
    }
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Sets a read timeout for responses (per request).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }

    /// Sends one request and returns the parsed response together with
    /// the raw response line (for byte-level assertions).
    pub fn call_raw(&mut self, req: Request) -> Result<(ResponseFrame, String), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let line = proto::encode_frame(&Frame { id: Some(id), req });
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut resp_line = String::new();
        let n = self.reader.read_line(&mut resp_line)?;
        if n == 0 {
            return Err(ClientError {
                kind: ErrorKind::Internal,
                message: "server closed the connection".into(),
            });
        }
        let trimmed = resp_line.trim_end_matches(['\n', '\r']).to_string();
        let resp = proto::parse_response(&trimmed)?;
        if resp.id != Some(id) {
            return Err(ClientError {
                kind: ErrorKind::Protocol,
                message: format!("response id {:?} does not match request {id}", resp.id),
            });
        }
        Ok((resp, trimmed))
    }

    /// Sends one request; an `ok:false` response becomes an error
    /// carrying the server's kind.
    pub fn call(&mut self, req: Request) -> Result<ResponseFrame, ClientError> {
        let (resp, _) = self.call_raw(req)?;
        if !resp.ok {
            let err = resp.error.clone().unwrap_or_else(|| {
                WireError::new(ErrorKind::Internal, "server sent ok:false with no error")
            });
            return Err(err.into());
        }
        Ok(resp)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(Request::Ping).map(|_| ())
    }

    /// Registers a system and returns its registry key.
    pub fn register(&mut self, desc: SystemDesc) -> Result<u64, ClientError> {
        let resp = self.call(Request::Register(desc))?;
        resp.body
            .get("system")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError {
                kind: ErrorKind::Protocol,
                message: "register response missing `system`".into(),
            })
    }

    /// Registers a named example system.
    pub fn register_example(&mut self, name: &str, params: &[i64]) -> Result<u64, ClientError> {
        self.register(SystemDesc::Example {
            name: name.into(),
            params: params.to_vec(),
        })
    }

    /// Runs a query and returns the parsed response.
    pub fn query(&mut self, req: QueryReq) -> Result<ResponseFrame, ClientError> {
        self.call(Request::Query(req))
    }

    /// Runs a `depends` query; returns the verdict.
    pub fn depends(&mut self, req: QueryReq) -> Result<bool, ClientError> {
        let resp = self.query(req)?;
        resp.answer
            .as_ref()
            .and_then(|a| a.get("holds"))
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError {
                kind: ErrorKind::Protocol,
                message: "depends response missing `holds`".into(),
            })
    }

    /// Runs a `sinks` query; returns the sink object names.
    pub fn sinks(&mut self, req: QueryReq) -> Result<Vec<String>, ClientError> {
        let resp = self.query(req)?;
        let objs = resp
            .answer
            .as_ref()
            .and_then(|a| a.get("objects"))
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError {
                kind: ErrorKind::Protocol,
                message: "sinks response missing `objects`".into(),
            })?;
        Ok(objs
            .iter()
            .filter_map(|o| o.as_str().map(str::to_string))
            .collect())
    }

    /// Scrapes the metric families as structured JSON (the response's
    /// `metrics` object).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let resp = self.call(Request::Metrics { prom: false })?;
        resp.body
            .get("metrics")
            .cloned()
            .ok_or_else(|| ClientError {
                kind: ErrorKind::Protocol,
                message: "metrics response missing `metrics`".into(),
            })
    }

    /// Scrapes the metric families as a Prometheus text exposition.
    pub fn metrics_prom(&mut self) -> Result<String, ClientError> {
        let resp = self.call(Request::Metrics { prom: true })?;
        resp.body
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError {
                kind: ErrorKind::Protocol,
                message: "metrics response missing `text`".into(),
            })
    }

    /// Fetches the most recent slow-query entries (oldest first).
    pub fn slowlog(&mut self, limit: Option<u64>) -> Result<Vec<Json>, ClientError> {
        let resp = self.call(Request::SlowLog { limit })?;
        let entries = resp
            .body
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError {
                kind: ErrorKind::Protocol,
                message: "slowlog response missing `entries`".into(),
            })?;
        Ok(entries.to_vec())
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Request::Shutdown).map(|_| ())
    }
}
