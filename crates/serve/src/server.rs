//! The socket server: a `std::net` accept loop with one handler thread
//! per connection (no async runtime — the vendored-deps build has no
//! tokio), speaking the NDJSON protocol of [`crate::protocol`] over a
//! shared [`SessionTable`].

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use obcs_agent::{AgentReply, ConversationAgent, ReplyKind};
use obcs_faults::ResilienceConfig;
use obcs_kb::{DurableKb, RecoveryReport};
use obcs_telemetry::{span, stage, CollectingRecorder, NoopRecorder, Recorder, TraceReport};

use crate::protocol::{
    decode_request, encode_line, Request, Response, StatsSnapshot, TurnReply, MAX_LINE_BYTES,
};
use crate::session::{shed_reply, Admission, SessionConfig, SessionTable};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port `0` for an ephemeral port (tests, bench).
    pub addr: String,
    /// Session-table resource policy (shards, capacity, TTL, memory
    /// ceiling).
    pub session: SessionConfig,
    /// Per-turn deadline budget, in ticks of each fork's resilience
    /// clock, installed on the base agent before any fork is taken
    /// (`None` keeps the agent's current resilience policy).
    pub turn_budget: Option<u64>,
    /// When true, each connection runs under a tick-clock
    /// [`CollectingRecorder`]; reports merge into one [`TraceReport`]
    /// retrievable via [`ServerHandle::take_trace`].
    pub trace: bool,
    /// Durability directory (DESIGN.md §16). When set, startup recovers
    /// the KB from the directory's snapshot + WAL if one exists —
    /// replacing the agent's KB with the recovered one — or seeds the
    /// directory from the agent's KB if not. `None` (the default) serves
    /// purely in memory.
    pub durability: Option<DurabilityConfig>,
}

/// Where a durable server keeps its snapshot + WAL pair.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding [`obcs_kb::SNAPSHOT_FILE`] and
    /// [`obcs_kb::WAL_FILE`] (created if absent).
    pub dir: PathBuf,
}

impl DurabilityConfig {
    /// Durability rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { dir: dir.into() }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            session: SessionConfig::default(),
            turn_budget: ResilienceConfig::serving().turn_budget,
            trace: false,
            durability: None,
        }
    }
}

#[derive(Default)]
struct Counters {
    turns: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    connections: AtomicU64,
}

struct Inner {
    table: SessionTable,
    server_name: String,
    counters: Counters,
    traces: Mutex<Vec<TraceReport>>,
    trace: bool,
    shutdown: AtomicBool,
}

impl Inner {
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_live: self.table.live(),
            sessions_opened: self.table.opened(),
            sessions_evicted: self.table.evicted(),
            sessions_ended: self.table.ended(),
            turns: self.counters.turns.load(Ordering::Relaxed),
            shed_turns: self.counters.shed.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            connections: self.counters.connections.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server —
/// call [`ServerHandle::shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    recovery: Option<RecoveryReport>,
}

/// Alias kept for readability at call sites: `Server::start` returns the
/// handle you shut the server down with.
pub type ServerHandle = Server;

impl Server {
    /// Bind, install the serving resilience policy on `agent`, and start
    /// accepting connections. The agent becomes the base every session
    /// forks from.
    ///
    /// With [`ServeConfig::durability`] set, the agent's KB is first
    /// reconciled with the durability directory: an existing snapshot +
    /// WAL is recovered (torn tail truncated, generation counters and
    /// index policy restored — see [`Server::recovery`]) and installed
    /// on the agent; a fresh directory is seeded with a snapshot of the
    /// agent's KB. The server never mutates the KB, so it keeps no
    /// durable handle past startup: every startup write (torn-tail
    /// truncation, log realignment, the seed snapshot) is synced before
    /// this returns. Durability failures surface as `std::io::Error`
    /// here rather than degrading to a silently non-durable server.
    pub fn start(mut agent: ConversationAgent, config: ServeConfig) -> std::io::Result<Server> {
        if let Some(budget) = config.turn_budget {
            agent.set_resilience(ResilienceConfig {
                turn_budget: Some(budget),
                ..ResilienceConfig::serving()
            });
        }
        let mut recovery = None;
        if let Some(durability) = &config.durability {
            if DurableKb::exists(&durability.dir) {
                let (d, report) =
                    DurableKb::open(&durability.dir).map_err(std::io::Error::other)?;
                agent.set_kb(d.into_kb());
                recovery = Some(report);
            } else {
                DurableKb::create(&durability.dir, agent.kb().clone())
                    .map_err(std::io::Error::other)?;
            }
        }
        let server_name = agent.config().name.clone();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            table: SessionTable::new(agent, config.session.clone()),
            server_name,
            counters: Counters::default(),
            traces: Mutex::new(Vec::new()),
            trace: config.trace,
            shutdown: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_inner = Arc::clone(&inner);
        let accept_conns = Arc::clone(&conns);
        let accept = std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if accept_inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    accept_inner.counters.connections.fetch_add(1, Ordering::Relaxed);
                    let conn_inner = Arc::clone(&accept_inner);
                    let handle = std::thread::spawn(move || handle_connection(stream, conn_inner));
                    accept_conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
                Err(_) => {
                    if accept_inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        });

        Ok(Server { inner, addr, accept: Some(accept), conns, recovery })
    }

    /// What startup recovery did, when this server was started with a
    /// durability directory holding prior state: records replayed, torn
    /// bytes truncated, whether a snapshot was found. `None` for a
    /// non-durable server or a freshly seeded directory.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound address (resolves the ephemeral port when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current lifetime counters (same data as a wire `Stats` request).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }

    /// Merge and take the per-connection trace reports collected so far.
    /// Returns `None` when the server was started with `trace: false` or
    /// no traced connection has closed yet.
    pub fn take_trace(&self) -> Option<TraceReport> {
        let mut traces = self.inner.traces.lock().unwrap_or_else(|e| e.into_inner());
        if traces.is_empty() {
            return None;
        }
        Some(TraceReport::merge(std::mem::take(&mut *traces)))
    }

    /// Stop accepting, wake the accept loop, and join every thread.
    /// Connection handlers notice shutdown within their read-timeout
    /// tick (250ms) even if the peer keeps the socket open. Idempotent —
    /// a second call (or a call racing a first) just re-joins nothing;
    /// the handle stays usable for [`Server::stats`] /
    /// [`Server::take_trace`] afterwards.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The stable lowercase wire label for each engine reply kind — the
/// same vocabulary telemetry counts under `reply_kind`.
pub fn kind_label(kind: ReplyKind) -> &'static str {
    match kind {
        ReplyKind::Management => "management",
        ReplyKind::Elicitation => "elicitation",
        ReplyKind::Fulfilment => "fulfilment",
        ReplyKind::Proposal => "proposal",
        ReplyKind::Disambiguation => "disambiguation",
        ReplyKind::Fallback => "fallback",
        ReplyKind::Closing => "closing",
        ReplyKind::Degraded => "degraded",
    }
}

/// Convert an engine reply (plus session/intent context) to its wire
/// form. Public within the crate so the e2e test can render an
/// in-process replay through the identical code path.
pub(crate) fn wire_reply(
    session: &str,
    reply: &AgentReply,
    intent_name: Option<String>,
    shed: bool,
) -> TurnReply {
    TurnReply {
        session: session.to_string(),
        text: reply.text.clone(),
        kind: kind_label(reply.kind).to_string(),
        intent: intent_name,
        confidence: reply.confidence,
        found_results: reply.found_results,
        shed,
    }
}

fn handle_connection(stream: TcpStream, inner: Arc<Inner>) {
    // Bounded reads so a handler can observe shutdown even when the
    // peer goes quiet without closing.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let collecting: Option<Arc<CollectingRecorder>> =
        if inner.trace { Some(Arc::new(CollectingRecorder::ticks())) } else { None };
    let recorder: Arc<dyn Recorder> = match &collecting {
        Some(c) => Arc::clone(c) as Arc<dyn Recorder>,
        None => Arc::new(NoopRecorder),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match read_bounded_line(&mut reader, &mut line, &inner.shutdown) {
            LineRead::Eof => break,
            LineRead::TimedOut => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            LineRead::TooLarge => {
                inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: "too_large".to_string(),
                    message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                };
                if write_response(&mut writer, &resp).is_err() {
                    break;
                }
                // The oversized line was consumed; keep serving.
                continue;
            }
            LineRead::Line => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = match decode_request(&line) {
            Err(detail) => {
                inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error { code: "malformed".to_string(), message: detail }
            }
            Ok(Request::Hello { client: _ }) => Response::Welcome {
                server: inner.server_name.clone(),
                protocol: crate::protocol::PROTOCOL_VERSION,
            },
            Ok(Request::Turn { session, utterance }) => {
                serve_turn(&inner, &recorder, &session, &utterance)
            }
            Ok(Request::End { session }) => {
                let existed = inner.table.end(&session);
                Response::Ended { session, existed }
            }
            Ok(Request::Stats) => Response::Stats(inner.stats()),
        };
        if write_response(&mut writer, &response).is_err() {
            break;
        }
    }
    if let Some(c) = collecting {
        let report = c.take_report();
        inner.traces.lock().unwrap_or_else(|e| e.into_inner()).push(report);
    }
}

fn serve_turn(
    inner: &Inner,
    recorder: &Arc<dyn Recorder>,
    session: &str,
    utterance: &str,
) -> Response {
    let _serve = span(&**recorder, stage::SERVE_TURN);
    match inner.table.turn(session, utterance, recorder) {
        Admission::Served(reply) => {
            inner.counters.turns.fetch_add(1, Ordering::Relaxed);
            let intent_name = inner.table.intent_name(reply.intent);
            Response::Reply(wire_reply(session, &reply, intent_name, false))
        }
        Admission::Shed => {
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            recorder.incr(obcs_telemetry::metric::SHED, "capacity");
            Response::Reply(wire_reply(session, &shed_reply(), None, true))
        }
    }
}

enum LineRead {
    Line,
    Eof,
    TimedOut,
    TooLarge,
}

/// `read_line` with a byte ceiling and timeout awareness. On `TooLarge`
/// the rest of the oversized line is drained so the stream stays framed.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    shutdown: &AtomicBool,
) -> LineRead {
    // Read raw bytes up to the newline ourselves: BufReader::read_line
    // would buffer an unbounded line before returning.
    let mut bytes: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return LineRead::Eof;
                }
                if bytes.is_empty() {
                    return LineRead::TimedOut;
                }
                continue;
            }
            Err(_) => return LineRead::Eof,
        };
        if available.is_empty() {
            return if bytes.is_empty() { LineRead::Eof } else { LineRead::Line };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(available.len());
        if bytes.len() + take > MAX_LINE_BYTES {
            reader.consume(take);
            if newline.is_some() {
                return LineRead::TooLarge;
            }
            // Drain the rest of the oversized line.
            bytes.clear();
            loop {
                let buf = match reader.fill_buf() {
                    Ok(b) => b,
                    Err(_) => return LineRead::TooLarge,
                };
                if buf.is_empty() {
                    return LineRead::TooLarge;
                }
                let pos = buf.iter().position(|&b| b == b'\n');
                let n = pos.map(|i| i + 1).unwrap_or(buf.len());
                reader.consume(n);
                if pos.is_some() {
                    return LineRead::TooLarge;
                }
            }
        }
        bytes.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            *line = String::from_utf8_lossy(&bytes).into_owned();
            return LineRead::Line;
        }
    }
}

fn write_response(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    writer.write_all(encode_line(response).as_bytes())?;
    writer.flush()
}
