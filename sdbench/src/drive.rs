//! The end-to-end run: a fresh `sdserved` process, set up over one
//! control connection, then driven by a closed loop of client lanes
//! over loopback TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sd_server::proto::{self, Frame};
use sd_server::{Json, Request};

use crate::gen::{Step, Workload};

/// How long a client waits for one response before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `sdserved` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    /// Held open: sdserved prints one more line when it stops, and a
    /// closed pipe would make that print fail.
    stdout: Option<BufReader<ChildStdout>>,
    /// Process id, for the `/proc` readers.
    pub pid: u32,
    /// The address it listens on.
    pub addr: String,
}

/// The flags sdserved runs with: its defaults except the address, the
/// worker count and the registry cap.
pub fn server_flags(workers: usize, registry_cap: usize) -> Vec<String> {
    vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        workers.to_string(),
        "--registry-cap".into(),
        registry_cap.to_string(),
    ]
}

impl Server {
    /// Starts `bin` with `flags` and waits for its listening line.
    pub fn start(bin: &Path, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut server = Server {
            stdout: child.stdout.take().map(BufReader::new),
            child: Some(child),
            pid,
            addr: String::new(),
        };
        let mut line = String::new();
        if let Some(out) = server.stdout.as_mut() {
            out.read_line(&mut line)
                .map_err(|e| format!("reading sdserved's listening line: {e}"))?;
        }
        server.addr = line
            .trim()
            .strip_prefix("sdserved listening on ")
            .ok_or_else(|| format!("sdserved did not start: {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// Asks the server to shut down over `control` and waits for the
    /// process to exit (killing it after ten seconds).
    pub fn stop(mut self, mut control: Conn) -> Result<(), String> {
        let asked = control
            .call(&encode(0, Request::Shutdown))
            .map(|_| ())
            .map_err(|e| format!("shutdown: {e}"));
        let mut child = self.child.take().expect("server is running until stopped");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        asked
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking JSON lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr` (no delay, bounded reads).
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one newline-terminated request line and returns the
    /// response line without its newline.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut out = String::new();
        if self.reader.read_line(&mut out)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while out.ends_with(['\n', '\r']) {
            out.pop();
        }
        Ok(out)
    }

    /// Scrapes the server's JSON metrics.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let line = self
            .call(&encode(0, Request::Metrics { prom: false }))
            .map_err(|e| format!("metrics scrape: {e}"))?;
        sd_server::wire::parse(&line).map_err(|e| format!("metrics scrape: {e}"))
    }
}

/// One request line, newline included.
pub fn encode(id: u64, req: Request) -> String {
    let mut line = proto::encode_frame(&Frame { id: Some(id), req });
    line.push('\n');
    line
}

/// The request line for `step`.
pub fn step_line(w: &Workload, id: u64, step: Step) -> String {
    match step {
        Step::Register(s) => encode(id, Request::Register(w.systems[s].clone())),
        Step::Query(q) => encode(id, Request::Query(w.queries[q].req.clone())),
    }
}

/// One completed (or failed) timed request.
#[derive(Debug)]
pub struct Sample {
    /// The request id.
    pub id: u64,
    /// What was asked.
    pub step: Step,
    /// Whether this was the first request of an in-window connection
    /// (its round trip includes the connect and the server's accept).
    pub first: bool,
    /// The round it ran in.
    pub round: usize,
    /// Round-trip time.
    pub rtt: Duration,
    /// The response line, or the transport error.
    pub response: Result<String, String>,
}

/// A run of requests on one connection: whether it opens its own
/// connection (and closes it at the end), and its `(id, step, line)`
/// requests.
pub type SessionLines = (bool, Vec<(u64, Step, String)>);

/// Encodes every lane's requests (per lane, round and session),
/// numbering them from 1 in lane-major order.
pub fn encode_lanes(w: &Workload) -> Vec<Vec<Vec<SessionLines>>> {
    let mut id = 0u64;
    w.lanes
        .iter()
        .map(|lane| {
            lane.iter()
                .map(|round| {
                    round
                        .iter()
                        .map(|s| {
                            let reqs = s
                                .steps
                                .iter()
                                .map(|&step| {
                                    id += 1;
                                    (id, step, step_line(w, id, step))
                                })
                                .collect();
                            (s.connect, reqs)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Wall and server CPU time of one round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// From the round's start barrier to the last lane's finish.
    pub wall: Duration,
    /// Server CPU seconds used during the round.
    pub cpu_s: f64,
}

/// The result of the timed window.
pub struct Window {
    /// Every request, in per-lane order.
    pub samples: Vec<Sample>,
    /// Per-round timings.
    pub rounds: Vec<Round>,
}

/// Runs the closed loop: each lane sends its next request only after
/// the previous answer. All lanes start each round together and the
/// next round starts when the last lane has finished; `cpu` reads the
/// server's CPU seconds at each round boundary. Lanes that do not
/// connect per session use the connection passed in for them, opened
/// before the window.
pub fn run_window(
    addr: &str,
    lanes: &[Vec<Vec<SessionLines>>],
    mut conns: Vec<Option<Conn>>,
    cpu: impl Fn() -> f64,
) -> Window {
    let rounds = lanes.first().map_or(0, Vec::len);
    let start = Arc::new(Barrier::new(lanes.len() + 1));
    let end = Arc::new(Barrier::new(lanes.len() + 1));
    let mut timings = Vec::with_capacity(rounds);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .zip(conns.iter_mut())
            .map(|(lane, conn)| {
                let (start, end) = (Arc::clone(&start), Arc::clone(&end));
                let mut conn = conn.take();
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (r, round) in lane.iter().enumerate() {
                        start.wait();
                        run_round(addr, round, r, &mut conn, &mut samples);
                        end.wait();
                    }
                    samples
                })
            })
            .collect();
        for _ in 0..rounds {
            let cpu0 = cpu();
            start.wait();
            let t0 = Instant::now();
            end.wait();
            let wall = t0.elapsed();
            timings.push(Round {
                wall,
                cpu_s: cpu() - cpu0,
            });
        }
        for h in handles {
            samples.extend(h.join().expect("client lane panicked"));
        }
    });
    Window {
        samples,
        rounds: timings,
    }
}

fn run_round(
    addr: &str,
    sessions: &[SessionLines],
    round: usize,
    conn: &mut Option<Conn>,
    samples: &mut Vec<Sample>,
) {
    for (connect, reqs) in sessions {
        let session_start = Instant::now();
        if *connect {
            *conn = None;
        }
        for (k, (id, step, line)) in reqs.iter().enumerate() {
            let first = *connect && k == 0;
            let t = if first { session_start } else { Instant::now() };
            let response = match conn {
                Some(c) => c.call(line).map_err(|e| e.to_string()),
                None if *connect => Conn::open(addr)
                    .and_then(|c| conn.insert(c).call(line))
                    .map_err(|e| e.to_string()),
                None => Err("no connection".into()),
            };
            let rtt = t.elapsed();
            if response.is_err() {
                *conn = None;
            }
            samples.push(Sample {
                id: *id,
                step: *step,
                first,
                round,
                rtt,
                response,
            });
        }
        if *connect {
            *conn = None; // disconnect at the end of the session
        }
    }
}
