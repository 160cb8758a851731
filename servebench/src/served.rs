//! The served side: a real `obcs-serve` server started in-process, and
//! one client thread driving the script over one connection.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use obcs_serve::{Client, ClientError, DurabilityConfig, ServeConfig, Server, TurnReply};

use crate::script::{session_id, GateSample, Script, Step};
use crate::turns::{digest, judged_wire, play, reply_line, Digests};
use crate::workload::Workload;

/// A started server with a client that has shaken hands with it.
pub struct Running {
    pub server: Server,
    pub client: Client,
    /// Wall time from the start of the set-up to the first `Welcome`.
    pub setup_s: f64,
    /// Of that, the time `Server::start` took.
    pub start_ms: f64,
}

impl Running {
    /// Closes the connection first, so the server's connection thread
    /// sees end-of-stream and shutdown joins it at once.
    pub fn stop(self) {
        let Running { mut server, client, .. } = self;
        drop(client);
        server.shutdown();
    }
}

fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
    let mut client = Client::connect(addr)?;
    client.hello("servebench")?;
    Ok(client)
}

/// One complete set-up from scratch: world build, agent assembly (NLU
/// training, dialogue tree), `Server::start` (recovery when `dir` is
/// set), until the server answers the first `Hello`.
pub fn set_up(workload: &Workload, dir: Option<&Path>) -> Running {
    let started = Instant::now();
    let agent = workload.agent();
    let t = Instant::now();
    let config =
        ServeConfig { durability: dir.map(DurabilityConfig::at), ..ServeConfig::default() };
    let server = Server::start(agent, config).expect("start the server");
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let client = connect(server.addr()).expect("shake hands with the server");
    Running { server, client, setup_s: started.elapsed().as_secs_f64(), start_ms }
}

/// What the closed loop saw.
#[derive(Debug, Default)]
pub struct Served {
    /// Round trip of every turn, write to read, in nanoseconds. A failed
    /// turn reads `u64::MAX`: it misses any latency limit.
    pub rtt_ns: Vec<u64>,
    /// Wall time of the whole load phase, `End` requests included.
    pub wall_s: f64,
    /// Wire requests sent (turns and `End`s) and those that failed: shed,
    /// degraded, a wire `Error`, or lost to a socket error.
    pub attempted: u64,
    pub failed: u64,
    pub turns_ok: u64,
    pub requests: u64,
    pub correct: u64,
    /// Reply-line digests of the gate's sampled sessions.
    pub digests: Digests,
}

impl Served {
    pub fn task_success(&self) -> f64 {
        self.correct as f64 / self.requests.max(1) as f64
    }

    /// Round trips of the turns that were answered.
    pub fn answered_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.rtt_ns.iter().copied().filter(|&ns| ns != u64::MAX)
    }

    fn record(&mut self, rtt_ns: Option<u64>) {
        self.rtt_ns.push(rtt_ns.unwrap_or(u64::MAX));
        match rtt_ns {
            Some(_) => self.turns_ok += 1,
            None => self.failed += 1,
        }
    }
}

/// After a socket error the connection is unusable: replace it. If the
/// server takes no new connection, the old one keeps failing, counted,
/// and the next failure tries again.
fn reconnect(client: &mut Client, addr: SocketAddr) {
    if let Ok(fresh) = connect(addr) {
        *client = fresh;
    }
}

/// Drives `script` as a closed loop: one request in flight, no think
/// time. Failures are counted and never abort the run.
pub fn drive(running: &mut Running, script: &Script, gate: &GateSample) -> Served {
    let addr = running.server.addr();
    let client = &mut running.client;
    let mut out =
        Served { rtt_ns: Vec::with_capacity(script.requests * 5 / 4), ..Served::default() };
    let started = Instant::now();
    for step in &script.steps {
        match step {
            Step::Ask(request) => {
                let session = session_id(request.session);
                let sampled = gate.covers(request);
                let last: Option<TurnReply> = play(request, |utterance| {
                    out.attempted += 1;
                    let t = Instant::now();
                    let result = client.turn(&session, utterance);
                    let rtt = t.elapsed().as_nanos() as u64;
                    match result {
                        Ok(reply) => {
                            let failed = reply.shed || reply.kind == "degraded";
                            out.record((!failed).then_some(rtt));
                            if sampled {
                                let line = reply_line(reply.clone());
                                out.digests.entry(request.session).or_default().push(digest(&line));
                            }
                            Some(reply)
                        }
                        Err(e) => {
                            out.record(None);
                            if matches!(e, ClientError::Io(_)) {
                                reconnect(client, addr);
                            }
                            None
                        }
                    }
                });
                out.requests += 1;
                if last.is_some_and(|r| judged_wire(request.expected, &r)) {
                    out.correct += 1;
                }
            }
            Step::End(session) => {
                out.attempted += 1;
                if let Err(e) = client.end(&session_id(*session)) {
                    out.failed += 1;
                    if matches!(e, ClientError::Io(_)) {
                        reconnect(client, addr);
                    }
                }
            }
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}
