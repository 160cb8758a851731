//! The sharded session table.
//!
//! Each live session owns an engine fork, keyed by the client-chosen
//! session id and hashed across N independently locked shards so
//! concurrent connections only contend when their sessions collide on a
//! shard. A fork starts a fresh dialogue context and log and shares
//! everything else with the base agent — NLU, space, dialogue tree, KB
//! tables, prepared queries — behind `Arc`s, so opening a session costs
//! a few reference-count increments and no lock: the base agent is never
//! mutated once the table holds it. The table enforces three resource
//! policies (DESIGN.md §15):
//!
//! * **TTL eviction** — sessions idle longer than `ttl` clock readings
//!   are dropped; idleness is measured on a pluggable
//!   [`Clock`], which keeps the eviction tests
//!   deterministic on a [`TickClock`].
//! * **Per-session memory ceiling** — the fork's interaction log is the
//!   only unbounded per-session allocation, so after every turn the
//!   oldest records are trimmed until the log's approximate byte size
//!   fits `byte_ceiling`. No session holds a cache of its own or a copy
//!   of the KB.
//! * **Admission control** — when the table is at `capacity` live
//!   sessions (after reclaiming expired ones), *new* sessions are shed
//!   with a [`ReplyKind::Degraded`] apology instead of queuing;
//!   established sessions are never shed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use obcs_agent::{AgentReply, ConversationAgent, ReplyKind};
use obcs_telemetry::{Clock, Recorder, TickClock};

/// Resource policy for the session table.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of independently locked shards the session map is split
    /// over. Turns on sessions in the same shard serialize.
    pub shards: usize,
    /// Maximum live sessions before admission control sheds new ones.
    pub capacity: usize,
    /// Idle lifetime, in readings of the table's clock. A session whose
    /// last turn is more than `ttl` readings in the past is evicted.
    pub ttl: u64,
    /// Approximate per-session byte budget for the fork's interaction
    /// log (utterance + response text); oldest records are trimmed
    /// beyond it.
    pub byte_ceiling: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { shards: 8, capacity: 1024, ttl: 100_000, byte_ceiling: 64 * 1024 }
    }
}

struct SessionEntry {
    agent: ConversationAgent,
    last_used: u64,
    log_bytes: usize,
}

/// How the table disposed of one turn request.
pub enum Admission {
    /// The turn reached an engine fork; here is its reply.
    Served(AgentReply),
    /// Admission control refused to open a new session; the caller
    /// should relay [`shed_reply`] and leave no trace of the session.
    Shed,
}

/// The degraded apology served for a shed turn. Kept as a function (not
/// a constant reply) so every shed turn gets a fresh value.
pub fn shed_reply() -> AgentReply {
    AgentReply {
        text: "I am sorry — the service is at capacity right now. \
               Please try again in a moment."
            .to_string(),
        kind: ReplyKind::Degraded,
        intent: None,
        confidence: None,
        found_results: false,
    }
}

/// One reserved live-session slot, counted in `live` from the moment
/// [`SessionTable::try_reserve`] succeeds. Dropping an uncommitted
/// reservation releases the slot, so an abandoned fork (a panic in
/// `fork_session`, a future early-return) can never leak capacity.
struct Reservation<'a> {
    live: &'a AtomicU64,
    committed: bool,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A sharded map of live sessions, each owning an engine fork.
pub struct SessionTable {
    base: ConversationAgent,
    shards: Vec<Mutex<HashMap<String, SessionEntry>>>,
    clock: Box<dyn Clock>,
    config: SessionConfig,
    live: AtomicU64,
    opened: AtomicU64,
    evicted: AtomicU64,
    ended: AtomicU64,
}

impl SessionTable {
    /// Build a table around a fully assembled base agent, with a
    /// [`TickClock`] driving TTL (one reading per table operation).
    pub fn new(base: ConversationAgent, config: SessionConfig) -> Self {
        SessionTable::with_clock(base, config, Box::new(TickClock::new()))
    }

    /// Like [`SessionTable::new`] but with an explicit clock — tests
    /// inject a [`TickClock`] they can reason about; a wall-clock server
    /// could inject a monotonic one.
    pub fn with_clock(
        base: ConversationAgent,
        config: SessionConfig,
        clock: Box<dyn Clock>,
    ) -> Self {
        let shards = config.shards.max(1);
        SessionTable {
            base,
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            clock,
            config: SessionConfig { shards, ..config },
            live: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            ended: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, session: &str) -> usize {
        let mut h = DefaultHasher::new();
        session.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Drop expired entries from one locked shard.
    fn sweep_shard(&self, shard: &mut HashMap<String, SessionEntry>, now: u64) {
        let ttl = self.config.ttl;
        let before = shard.len();
        shard.retain(|_, e| now.saturating_sub(e.last_used) <= ttl);
        let dropped = (before - shard.len()) as u64;
        if dropped > 0 {
            self.live.fetch_sub(dropped, Ordering::Relaxed);
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Sweep every shard (used before shedding, so capacity pressure
    /// first reclaims idle sessions table-wide).
    ///
    /// Uses `try_lock`: the caller holds its own shard's lock, so
    /// *blocking* on another shard here can deadlock with a second
    /// at-capacity caller sweeping from that shard toward this one. A
    /// shard that is contended is being actively served — its holder
    /// swept it on entry, so skipping it loses nothing.
    fn sweep_all(&self, now: u64, skip: usize) {
        for (i, s) in self.shards.iter().enumerate() {
            if i == skip {
                continue;
            }
            let mut shard = match s.try_lock() {
                Ok(guard) => guard,
                Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => continue,
            };
            self.sweep_shard(&mut shard, now);
        }
    }

    /// Reserve one live-session slot with a compare-exchange loop, so
    /// the check and the increment are a single atomic step. A plain
    /// load-then-`fetch_add` here would let N first-contact turns racing
    /// on *different* shards all pass the check at `capacity - 1` and
    /// over-admit past the configured capacity.
    fn try_reserve(&self) -> Option<Reservation<'_>> {
        let capacity = self.config.capacity as u64;
        let mut current = self.live.load(Ordering::Relaxed);
        loop {
            if current >= capacity {
                return None;
            }
            match self.live.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Reservation { live: &self.live, committed: false }),
                Err(actual) => current = actual,
            }
        }
    }

    /// Serve one turn. Opens a session on first contact (subject to
    /// admission control), then runs the engine fork with `recorder`
    /// installed for the duration of the call.
    pub fn turn(&self, session: &str, utterance: &str, recorder: &Arc<dyn Recorder>) -> Admission {
        let now = self.clock.now();
        let idx = self.shard_of(session);
        let mut shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        self.sweep_shard(&mut shard, now);

        if !shard.contains_key(session) {
            let reservation = match self.try_reserve() {
                Some(r) => Some(r),
                None => {
                    // At capacity: reclaim idle sessions everywhere
                    // before giving up on this one.
                    self.sweep_all(now, idx);
                    self.try_reserve()
                }
            };
            let Some(mut reservation) = reservation else {
                return Admission::Shed;
            };
            shard.insert(
                session.to_string(),
                SessionEntry { agent: self.base.fork_session(), last_used: now, log_bytes: 0 },
            );
            reservation.committed = true;
            self.opened.fetch_add(1, Ordering::Relaxed);
        }

        let entry = match shard.get_mut(session) {
            Some(e) => e,
            None => return Admission::Shed,
        };
        entry.last_used = now;
        entry.agent.set_recorder(Arc::clone(recorder));
        let reply = entry.agent.respond(utterance);
        entry.log_bytes += utterance.len() + reply.text.len();
        // Trim the oldest records in one pass: compute the cut index,
        // then a single `drain`. Per-record `Vec::remove(0)` would be
        // O(n²) under sustained ceiling pressure.
        let records = &entry.agent.log.records;
        let mut cut = 0;
        while entry.log_bytes > self.config.byte_ceiling && records.len() - cut > 1 {
            let old = &records[cut];
            entry.log_bytes =
                entry.log_bytes.saturating_sub(old.utterance.len() + old.response.len());
            cut += 1;
        }
        if cut > 0 {
            entry.agent.log.records.drain(..cut);
        }
        Admission::Served(reply)
    }

    /// Close a session explicitly, returning whether it was live.
    pub fn end(&self, session: &str) -> bool {
        let idx = self.shard_of(session);
        let mut shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        let existed = shard.remove(session).is_some();
        if existed {
            self.live.fetch_sub(1, Ordering::Relaxed);
            self.ended.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Sessions currently live.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Sessions ever admitted.
    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Sessions evicted by TTL.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Sessions closed by an explicit end.
    pub fn ended(&self) -> u64 {
        self.ended.load(Ordering::Relaxed)
    }

    /// The TTL the table enforces (clock readings).
    pub fn ttl(&self) -> u64 {
        self.config.ttl
    }

    /// Number of interaction-log records a live session currently holds,
    /// or `None` when the session is not live — introspection for the
    /// memory-ceiling tests and operational debugging.
    pub fn log_len(&self, session: &str) -> Option<usize> {
        let idx = self.shard_of(session);
        let shard = self.shards[idx].lock().unwrap_or_else(|e| e.into_inner());
        shard.get(session).map(|e| e.agent.log.records.len())
    }

    /// Resolve an engine intent id to its name via the base agent's
    /// conversation space (forks share the same space).
    pub fn intent_name(&self, id: Option<obcs_agent::IntentId>) -> Option<String> {
        id.and_then(|i| self.base.space().intent(i)).map(|i| i.name.clone())
    }
}
