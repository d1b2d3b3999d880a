//! The `cts-daemon` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 LE payload length][payload]`, and every payload is
//! `[version byte][message-type byte][body]`. All integers are little-endian;
//! strings are `u16 LE` length + UTF-8 bytes; an [`EventId`] is
//! `process u32 + index u32`. The layout is documented normatively in
//! DESIGN.md Appendix A. The event-block layout (`[u32 count][event...]`) is shared
//! with the write-ahead log ([`crate::wal`]) via [`encode_event_block`] /
//! [`decode_event_block`], so WAL records and `Events` frames cannot drift.
//!
//! Version negotiation is two-layered. The *frame* version is a single byte:
//! a peer that receives a frame with an unknown version answers [`Msg::Error`]
//! with [`code::BAD_VERSION`] and may close. There is exactly one frame
//! version today, [`VERSION`] = 1. Above it sits the *message set* level,
//! negotiated by [`Msg::ProtoHello`]: the client states the highest message
//! set and WAL record format it speaks, the server answers the minimum of
//! each side's maximum, and messages introduced after level 1 (currently
//! [`Msg::Subscribe`] and its replies) are refused with [`code::UNSUPPORTED`]
//! on connections that never negotiated a level that carries them. An
//! entirely unknown message-type byte likewise answers `UNSUPPORTED` without
//! dropping the connection, so old daemons degrade politely under new peers.

use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
use std::io::{self, Read, Write};

/// Protocol version carried as the first payload byte of every frame.
pub const VERSION: u8 = 1;

/// Highest message-set level this build speaks, as negotiated by
/// [`Msg::ProtoHello`]. Level 1 is the implicit pre-handshake set; level 2
/// adds `ListComputations` / `Subscribe` / `StreamBatch` (replication);
/// level 3 adds the time-travel verbs (`QueryAsOf*`, `ListEpochs`,
/// `ReplayInterval`); level 4 adds `QueryClusterMap` (adaptive
/// re-clustering observability); level 5 adds `QueryPlacement` (shard
/// autoscaling and worker-placement observability).
pub const PROTOCOL: u16 = 5;

/// Highest WAL record format this build can stream and replay (the `CTSWAL2`
/// delta encoding; v1 fixed-width segments are still readable).
pub const WAL_FORMAT: u16 = 2;

/// Upper bound on a frame's payload, to bound a malicious length prefix.
pub const MAX_FRAME: u32 = 1 << 20;

/// Upper bound on a computation's process count: `Hello` above it is
/// refused with [`code::BAD_HELLO`] before any per-process state is
/// allocated. (The paper's corpus tops out at 300 processes.)
pub const MAX_PROCESSES: u32 = 1 << 16;

/// Most events one [`Msg::QueryGcBatch`] may name on a computation of
/// `num_processes` processes so that the [`Msg::GcBatchResult`] still fits
/// [`MAX_FRAME`]: every answer is a 5-byte header plus up to 9 bytes per
/// process, under a reply header of at most 16 bytes. The daemon refuses
/// larger batches; [`crate::Client::gc_batch`] splits by the same formula.
pub fn gc_batch_limit(num_processes: u32) -> usize {
    (MAX_FRAME as usize - 16) / (5 + 9 * num_processes as usize)
}

/// Error codes carried by [`Msg::Error`].
pub mod code {
    /// A queried event is not (yet) in the published snapshot.
    pub const UNKNOWN_EVENT: u16 = 1;
    /// Hello for an existing computation with different parameters.
    pub const BAD_HELLO: u16 = 2;
    /// A session-scoped message arrived before `Hello`.
    pub const NO_SESSION: u16 = 3;
    /// A `Flush` barrier timed out before its target was delivered.
    pub const FLUSH_TIMEOUT: u16 = 4;
    /// The payload could not be decoded.
    pub const MALFORMED: u16 = 5;
    /// The daemon is shutting down and no longer ingesting.
    pub const SHUTTING_DOWN: u16 = 6;
    /// Unsupported protocol version byte.
    pub const BAD_VERSION: u16 = 7;
    /// The daemon is replaying its write-ahead log after a restart; ingest
    /// and queries are refused until recovery completes.
    pub const RECOVERING: u16 = 8;
    /// The daemon is out of connection capacity (thread/fd exhaustion);
    /// the connection is refused but the daemon keeps serving others.
    pub const OVERLOADED: u16 = 9;
    /// This daemon is a replication follower: writes (`Events`, `Flush`)
    /// are refused — send them to the leader.
    pub const READ_ONLY: u16 = 10;
    /// The message is not in the negotiated message set (or the type byte
    /// is unknown entirely). The connection stays open.
    pub const UNSUPPORTED: u16 = 11;
    /// A `Subscribe` presented a lease minted by a previous leader
    /// incarnation; the follower must resubscribe from scratch.
    pub const LEASE_EXPIRED: u16 = 12;
    /// A time-travel request named an epoch the retention GC has already
    /// retired (or that was never published); see `Msg::ListEpochs` for
    /// what is still answerable.
    pub const EPOCH_RETIRED: u16 = 13;
}

/// Aggregate counters a [`Msg::StatsResult`] reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsSnapshot {
    /// Events accepted into the engine (after reordering, excl. duplicates).
    pub events_ingested: u64,
    /// Duplicate deliveries dropped by the reorder buffer.
    pub duplicates_dropped: u64,
    /// Events currently parked in the reorder buffer.
    pub reorder_depth: u64,
    /// High-water mark of the reorder buffer.
    pub reorder_peak: u64,
    /// Queries answered (precedence + greatest-concurrent + window).
    pub queries_served: u64,
    /// Snapshots (epochs) published.
    pub snapshots_published: u64,
    /// Ingest-path apply latency percentiles, nanoseconds.
    pub ingest_p50_ns: u64,
    pub ingest_p95_ns: u64,
    /// Query service latency percentiles, nanoseconds (all query types).
    pub query_p50_ns: u64,
    pub query_p95_ns: u64,
    /// Counters of the computation's shared greatest-concurrent memo (a
    /// precedence query looks nothing up and moves none of them).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Batched query messages served (`QueryPrecedesBatch` + `QueryGcBatch`).
    pub batch_queries: u64,
    /// Per-query-type latency percentiles, nanoseconds.
    pub precedes_p50_ns: u64,
    pub precedes_p95_ns: u64,
    pub gc_p50_ns: u64,
    pub gc_p95_ns: u64,
    pub window_p50_ns: u64,
    pub window_p95_ns: u64,
    /// Replication (follower side): leader-acked commit watermark of this
    /// computation's subscription, events applied from the stream, and
    /// stream resubscriptions (lag = `repl_commit - repl_applied`).
    pub repl_commit: u64,
    pub repl_applied: u64,
    pub repl_resubscribes: u64,
    /// Time travel: epochs currently retained (gauge), epochs the retention
    /// GC has retired since start, and as-of queries answered from a
    /// retained (non-head) epoch.
    pub epochs_retained: u64,
    pub epochs_retired: u64,
    pub asof_hits: u64,
    /// Adaptive re-clustering: drift migrations performed, and full stamps
    /// forced by the migration soundness rules (markers + stale sources).
    pub drift_migrations: u64,
    pub drift_forced_full: u64,
    /// Placement: hottest shard's occupancy share (Q16 gauge), active shard
    /// count (gauge), completed splits + retires, and clusters stolen
    /// between shards at a fixed count.
    pub place_occupancy_q16: u64,
    pub place_shards: u64,
    pub place_rescales: u64,
    pub place_steals: u64,
}

/// One computation's identity row in a [`Msg::ComputationList`] reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompInfo {
    pub name: String,
    pub num_processes: u32,
    pub max_cluster_size: u32,
    /// Events delivered so far (follower discovery polls this to decide
    /// when it has caught up).
    pub delivered: u64,
}

/// A protocol message (either direction).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Msg {
    // ---- client → server ----
    /// Bind this session to a computation, creating it if needed.
    Hello {
        computation: String,
        num_processes: u32,
        max_cluster_size: u32,
    },
    /// A batch of observed events, in any order, duplicates allowed.
    Events(Vec<Event>),
    /// Barrier: block until `expected_total` events are delivered and a
    /// snapshot covering them is published.
    Flush {
        expected_total: u64,
    },
    /// Does `e` happen before `f`?
    QueryPrecedes {
        e: EventId,
        f: EventId,
    },
    /// Greatest event of every other process concurrent with `e`.
    QueryGreatestConcurrent {
        e: EventId,
    },
    /// Scroll a window of the published partial order: process `p`, indices
    /// `[from, to)` as of the head epoch. `limit` caps the ids per reply (`0` = server default);
    /// the server answers with at most that many and a continuation cursor.
    QueryWindow {
        process: u32,
        from: u32,
        to: u32,
        limit: u32,
    },
    /// Batched precedence queries, answered pair-for-pair in one reply.
    QueryPrecedesBatch {
        pairs: Vec<(EventId, EventId)>,
    },
    /// Batched greatest-concurrent queries, answered slot-for-slot.
    QueryGcBatch {
        events: Vec<EventId>,
    },
    /// Request the computation's metrics counters.
    Stats,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
    /// Close this session.
    Goodbye,
    /// Negotiate the message-set and WAL-format levels: the client states
    /// the highest of each it speaks; the server answers the minimum of the
    /// two sides' maxima. Messages above level 1 require this handshake.
    ProtoHello {
        protocol_max: u16,
        wal_max: u16,
    },
    /// Enumerate the daemon's computations (level 2; follower discovery).
    ListComputations,
    /// Subscribe to a computation's committed WAL record stream starting at
    /// delivery offset `from_offset` (exclusive: the first streamed event is
    /// `from_offset + 1`). `prev_lease` is 0 on a first subscription, else
    /// the lease from the previous [`Msg::SubscribeAck`] — a lease minted by
    /// an older leader incarnation is refused with [`code::LEASE_EXPIRED`].
    Subscribe {
        computation: String,
        from_offset: u64,
        prev_lease: u64,
    },
    /// Time travel (level 3): [`Msg::QueryPrecedes`] answered against the
    /// retained snapshot published at `epoch` instead of the head. A retired
    /// (or never-published) epoch is refused with [`code::EPOCH_RETIRED`].
    QueryAsOfPrecedes {
        epoch: u64,
        e: EventId,
        f: EventId,
    },
    /// Time travel (level 3): greatest-concurrent as of `epoch`.
    QueryAsOfGc {
        epoch: u64,
        e: EventId,
    },
    /// Time travel (level 3): window scroll as of `epoch`, with the same
    /// pagination contract as [`Msg::QueryWindow`].
    QueryAsOfWindow {
        epoch: u64,
        process: u32,
        from: u32,
        to: u32,
        limit: u32,
    },
    /// Time travel (level 3): enumerate the epochs still retained (and thus
    /// answerable by the `QueryAsOf*` verbs and `ReplayInterval`).
    ListEpochs,
    /// Time travel (level 3): stream the delivered-event interval between
    /// two retained epochs, in delivery order. `from_epoch == 0` means "from
    /// the beginning of history". `cursor` is 0 on the first request, else
    /// the `next` from the previous [`Msg::ReplayChunk`]. `limit` caps the
    /// events per chunk (`0` = server default).
    ReplayInterval {
        from_epoch: u64,
        to_epoch: u64,
        cursor: u64,
        limit: u32,
    },
    /// Adaptive re-clustering (level 4): ask for the cluster map of the
    /// computation's head snapshot — the current partition plus the drift
    /// counters, so clients can watch migrations move processes between
    /// clusters without parsing stats deltas.
    QueryClusterMap,
    /// Shard autoscaling (level 5): ask for the computation's current
    /// placement — active shard count, per-shard occupancy shares, the
    /// rescale/steal counters, and the process → shard routing table.
    QueryPlacement,

    // ---- server → client ----
    HelloAck {
        session: u64,
        existing: bool,
    },
    FlushAck {
        epoch: u64,
        delivered: u64,
    },
    PrecedesResult {
        epoch: u64,
        precedes: bool,
    },
    GcResult {
        epoch: u64,
        slots: Vec<Option<EventId>>,
    },
    WindowResult {
        ids: Vec<EventId>,
        /// Resume-from index for the rest of the window, or `0` when the
        /// reply completes the requested range (indices are 1-based, so 0
        /// is never a valid cursor).
        next: u32,
    },
    /// Reply to [`Msg::QueryPrecedesBatch`]: one verdict per pair, `None`
    /// when either event is unknown at the answering epoch.
    PrecedesBatchResult {
        epoch: u64,
        verdicts: Vec<Option<bool>>,
    },
    /// Reply to [`Msg::QueryGcBatch`]: one slot vector per event, `None`
    /// when the event is unknown at the answering epoch.
    GcBatchResult {
        epoch: u64,
        results: Vec<Option<Vec<Option<EventId>>>>,
    },
    StatsResult(StatsSnapshot),
    ShutdownAck,
    /// Reply to [`Msg::ProtoHello`]: the negotiated levels this connection
    /// will use (min of each side's maximum).
    ProtoHelloAck {
        protocol: u16,
        wal: u16,
    },
    /// Reply to [`Msg::ListComputations`].
    ComputationList {
        comps: Vec<CompInfo>,
    },
    /// Reply to [`Msg::Subscribe`]: the granted lease (high 32 bits are the
    /// leader's incarnation number), the computation's parameters, and the
    /// offset the stream actually starts from (== the requested
    /// `from_offset`, capped at the leader's durable watermark).
    SubscribeAck {
        lease: u64,
        leader_epoch: u64,
        num_processes: u32,
        max_cluster_size: u32,
        start_offset: u64,
    },
    /// One pushed batch of committed (durably synced) WAL records. `commit`
    /// is the leader's durable watermark as of the push — every event at
    /// offset <= `commit` survives a leader crash, so the follower may
    /// publish a snapshot through it.
    StreamBatch {
        lease: u64,
        first_offset: u64,
        commit: u64,
        events: Vec<Event>,
    },
    /// Reply to [`Msg::ListEpochs`]: `(epoch, delivered)` rows, oldest first.
    EpochList {
        epochs: Vec<(u64, u64)>,
    },
    /// One chunk of a [`Msg::ReplayInterval`] stream: events starting at
    /// 1-based delivery offset `first_offset`, and the cursor to resume from
    /// (`0` when the interval is fully delivered — delivery offsets are
    /// 1-based, so 0 is never a valid cursor).
    ReplayChunk {
        first_offset: u64,
        events: Vec<Event>,
        next: u64,
    },
    /// Reply to [`Msg::QueryClusterMap`]: the head snapshot's epoch and
    /// delivered count, its clustering outcome counters, the daemon-lifetime
    /// drift counters, and the partition itself — `partition[p]` is the
    /// cluster representative (canonical member id) of process `p`, so two
    /// processes are clustered together iff their entries are equal.
    ClusterMapResult {
        epoch: u64,
        delivered: u64,
        cluster_receives: u64,
        merges: u64,
        migrations: u64,
        forced_full: u64,
        partition: Vec<u32>,
    },
    /// Reply to [`Msg::QueryPlacement`]: the head snapshot's epoch and
    /// delivered count, the active shard count, whether workers are pinned
    /// to topology-chosen cores, the daemon-lifetime rescale/steal counters,
    /// per-active-shard occupancy shares in Q16 (`occupancy_q16[s]` sums to
    /// ~1.0 across shards), and `routing[p]` = the shard process `p`'s
    /// events are routed to.
    PlacementResult {
        epoch: u64,
        delivered: u64,
        shards: u64,
        pinned: bool,
        rescales: u64,
        steals: u64,
        occupancy_q16: Vec<u64>,
        routing: Vec<u32>,
    },
    Error {
        code: u16,
        message: String,
    },
}

/// Message-type bytes. Client-originated types are `0x01..`, server replies
/// `0x81..`, the error reply `0x7F`.
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const EVENTS: u8 = 0x02;
    pub const FLUSH: u8 = 0x03;
    pub const QUERY_PRECEDES: u8 = 0x04;
    pub const QUERY_GC: u8 = 0x05;
    pub const QUERY_WINDOW: u8 = 0x06;
    pub const STATS: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const GOODBYE: u8 = 0x09;
    pub const QUERY_PRECEDES_BATCH: u8 = 0x0A;
    pub const QUERY_GC_BATCH: u8 = 0x0B;
    pub const PROTO_HELLO: u8 = 0x0C;
    pub const LIST_COMPS: u8 = 0x0D;
    pub const SUBSCRIBE: u8 = 0x0E;
    pub const QUERY_ASOF_PRECEDES: u8 = 0x0F;
    pub const QUERY_ASOF_GC: u8 = 0x10;
    pub const QUERY_ASOF_WINDOW: u8 = 0x11;
    pub const LIST_EPOCHS: u8 = 0x12;
    pub const REPLAY_INTERVAL: u8 = 0x13;
    pub const QUERY_CLUSTER_MAP: u8 = 0x14;
    pub const QUERY_PLACEMENT: u8 = 0x15;
    pub const HELLO_ACK: u8 = 0x81;
    pub const FLUSH_ACK: u8 = 0x83;
    pub const PRECEDES_RESULT: u8 = 0x84;
    pub const GC_RESULT: u8 = 0x85;
    pub const WINDOW_RESULT: u8 = 0x86;
    pub const STATS_RESULT: u8 = 0x87;
    pub const SHUTDOWN_ACK: u8 = 0x88;
    pub const PRECEDES_BATCH_RESULT: u8 = 0x89;
    pub const GC_BATCH_RESULT: u8 = 0x8A;
    pub const PROTO_HELLO_ACK: u8 = 0x8B;
    pub const COMP_LIST: u8 = 0x8C;
    pub const SUBSCRIBE_ACK: u8 = 0x8D;
    pub const STREAM_BATCH: u8 = 0x8E;
    pub const EPOCH_LIST: u8 = 0x8F;
    pub const REPLAY_CHUNK: u8 = 0x90;
    pub const CLUSTER_MAP_RESULT: u8 = 0x91;
    pub const PLACEMENT_RESULT: u8 = 0x92;
    pub const ERROR: u8 = 0x7F;
}

/// Decoding failure: the payload does not parse under [`VERSION`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Unknown version byte (the value received).
    BadVersion(u8),
    /// Unknown message-type byte.
    BadTag(u8),
    /// Body too short / trailing garbage / invalid field.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- primitive encoders ----

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_event_id(out: &mut Vec<u8>, id: EventId) {
    put_u32(out, id.process.0);
    put_u32(out, id.index.0);
}

/// Encode an event block — `[u32 count][event...]` — the layout shared by
/// `Msg::Events` bodies and WAL record payloads.
pub fn encode_event_block(out: &mut Vec<u8>, events: &[Event]) {
    put_u32(out, events.len() as u32);
    for ev in events {
        put_event(out, ev);
    }
}

/// Decode an event block occupying exactly `buf`.
pub fn decode_event_block(buf: &[u8]) -> Result<Vec<Event>, WireError> {
    let mut c = Cur { buf, pos: 0 };
    let events = c.event_block(buf.len())?;
    c.finish()?;
    Ok(events)
}

fn put_event(out: &mut Vec<u8>, ev: &Event) {
    put_event_id(out, ev.id);
    match ev.kind {
        EventKind::Internal => out.push(0),
        EventKind::Send { to } => {
            out.push(1);
            put_u32(out, to.0);
        }
        EventKind::Receive { from } => {
            out.push(2);
            put_event_id(out, from);
        }
        EventKind::Sync { peer } => {
            out.push(3);
            put_event_id(out, peer);
        }
    }
}

// ---- primitive decoders (cursor style) ----

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Malformed("truncated body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn event_id(&mut self) -> Result<EventId, WireError> {
        let p = self.u32()?;
        let i = self.u32()?;
        if i == 0 {
            return Err(WireError::Malformed("event index 0 (indices are 1-based)"));
        }
        Ok(EventId::new(ProcessId(p), EventIndex(i)))
    }

    fn event(&mut self) -> Result<Event, WireError> {
        let id = self.event_id()?;
        let kind = match self.u8()? {
            0 => EventKind::Internal,
            1 => EventKind::Send {
                to: ProcessId(self.u32()?),
            },
            2 => EventKind::Receive {
                from: self.event_id()?,
            },
            3 => EventKind::Sync {
                peer: self.event_id()?,
            },
            _ => return Err(WireError::Malformed("unknown event kind")),
        };
        Ok(Event::new(id, kind))
    }

    /// `[u32 count][event...]`; `bound` caps the plausible count (each event
    /// is ≥ 9 bytes, so a count the container can't hold is rejected before
    /// allocation).
    fn event_block(&mut self, bound: usize) -> Result<Vec<Event>, WireError> {
        let n = self.u32()? as usize;
        if n > bound / 9 + 1 {
            return Err(WireError::Malformed("event count exceeds body"));
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(self.event()?);
        }
        Ok(events)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

impl Msg {
    /// Serialize into a payload (version + tag + body), without the frame
    /// length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(VERSION);
        match self {
            Msg::Hello {
                computation,
                num_processes,
                max_cluster_size,
            } => {
                out.push(tag::HELLO);
                put_str(&mut out, computation);
                put_u32(&mut out, *num_processes);
                put_u32(&mut out, *max_cluster_size);
            }
            Msg::Events(events) => {
                out.push(tag::EVENTS);
                encode_event_block(&mut out, events);
            }
            Msg::Flush { expected_total } => {
                out.push(tag::FLUSH);
                put_u64(&mut out, *expected_total);
            }
            Msg::QueryPrecedes { e, f } => {
                out.push(tag::QUERY_PRECEDES);
                put_event_id(&mut out, *e);
                put_event_id(&mut out, *f);
            }
            Msg::QueryGreatestConcurrent { e } => {
                out.push(tag::QUERY_GC);
                put_event_id(&mut out, *e);
            }
            Msg::QueryWindow {
                process,
                from,
                to,
                limit,
            } => {
                out.push(tag::QUERY_WINDOW);
                put_u32(&mut out, *process);
                put_u32(&mut out, *from);
                put_u32(&mut out, *to);
                put_u32(&mut out, *limit);
            }
            Msg::QueryPrecedesBatch { pairs } => {
                out.push(tag::QUERY_PRECEDES_BATCH);
                put_u32(&mut out, pairs.len() as u32);
                for (e, f) in pairs {
                    put_event_id(&mut out, *e);
                    put_event_id(&mut out, *f);
                }
            }
            Msg::QueryGcBatch { events } => {
                out.push(tag::QUERY_GC_BATCH);
                put_u32(&mut out, events.len() as u32);
                for e in events {
                    put_event_id(&mut out, *e);
                }
            }
            Msg::Stats => out.push(tag::STATS),
            Msg::Shutdown => out.push(tag::SHUTDOWN),
            Msg::Goodbye => out.push(tag::GOODBYE),
            Msg::ProtoHello {
                protocol_max,
                wal_max,
            } => {
                out.push(tag::PROTO_HELLO);
                put_u16(&mut out, *protocol_max);
                put_u16(&mut out, *wal_max);
            }
            Msg::ListComputations => out.push(tag::LIST_COMPS),
            Msg::Subscribe {
                computation,
                from_offset,
                prev_lease,
            } => {
                out.push(tag::SUBSCRIBE);
                put_str(&mut out, computation);
                put_u64(&mut out, *from_offset);
                put_u64(&mut out, *prev_lease);
            }
            Msg::QueryAsOfPrecedes { epoch, e, f } => {
                out.push(tag::QUERY_ASOF_PRECEDES);
                put_u64(&mut out, *epoch);
                put_event_id(&mut out, *e);
                put_event_id(&mut out, *f);
            }
            Msg::QueryAsOfGc { epoch, e } => {
                out.push(tag::QUERY_ASOF_GC);
                put_u64(&mut out, *epoch);
                put_event_id(&mut out, *e);
            }
            Msg::QueryAsOfWindow {
                epoch,
                process,
                from,
                to,
                limit,
            } => {
                out.push(tag::QUERY_ASOF_WINDOW);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, *process);
                put_u32(&mut out, *from);
                put_u32(&mut out, *to);
                put_u32(&mut out, *limit);
            }
            Msg::ListEpochs => out.push(tag::LIST_EPOCHS),
            Msg::ReplayInterval {
                from_epoch,
                to_epoch,
                cursor,
                limit,
            } => {
                out.push(tag::REPLAY_INTERVAL);
                put_u64(&mut out, *from_epoch);
                put_u64(&mut out, *to_epoch);
                put_u64(&mut out, *cursor);
                put_u32(&mut out, *limit);
            }
            Msg::QueryClusterMap => out.push(tag::QUERY_CLUSTER_MAP),
            Msg::QueryPlacement => out.push(tag::QUERY_PLACEMENT),
            Msg::HelloAck { session, existing } => {
                out.push(tag::HELLO_ACK);
                put_u64(&mut out, *session);
                out.push(u8::from(*existing));
            }
            Msg::FlushAck { epoch, delivered } => {
                out.push(tag::FLUSH_ACK);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *delivered);
            }
            Msg::PrecedesResult { epoch, precedes } => {
                out.push(tag::PRECEDES_RESULT);
                put_u64(&mut out, *epoch);
                out.push(u8::from(*precedes));
            }
            Msg::GcResult { epoch, slots } => {
                out.push(tag::GC_RESULT);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, slots.len() as u32);
                for slot in slots {
                    match slot {
                        None => out.push(0),
                        Some(id) => {
                            out.push(1);
                            put_event_id(&mut out, *id);
                        }
                    }
                }
            }
            Msg::WindowResult { ids, next } => {
                out.push(tag::WINDOW_RESULT);
                put_u32(&mut out, ids.len() as u32);
                for id in ids {
                    put_event_id(&mut out, *id);
                }
                put_u32(&mut out, *next);
            }
            Msg::PrecedesBatchResult { epoch, verdicts } => {
                out.push(tag::PRECEDES_BATCH_RESULT);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, verdicts.len() as u32);
                for v in verdicts {
                    out.push(match v {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    });
                }
            }
            Msg::GcBatchResult { epoch, results } => {
                out.push(tag::GC_BATCH_RESULT);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, results.len() as u32);
                for result in results {
                    match result {
                        None => out.push(0),
                        Some(slots) => {
                            out.push(1);
                            put_u32(&mut out, slots.len() as u32);
                            for slot in slots {
                                match slot {
                                    None => out.push(0),
                                    Some(id) => {
                                        out.push(1);
                                        put_event_id(&mut out, *id);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Msg::StatsResult(s) => {
                out.push(tag::STATS_RESULT);
                for v in [
                    s.events_ingested,
                    s.duplicates_dropped,
                    s.reorder_depth,
                    s.reorder_peak,
                    s.queries_served,
                    s.snapshots_published,
                    s.ingest_p50_ns,
                    s.ingest_p95_ns,
                    s.query_p50_ns,
                    s.query_p95_ns,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_evictions,
                    s.batch_queries,
                    s.precedes_p50_ns,
                    s.precedes_p95_ns,
                    s.gc_p50_ns,
                    s.gc_p95_ns,
                    s.window_p50_ns,
                    s.window_p95_ns,
                    s.repl_commit,
                    s.repl_applied,
                    s.repl_resubscribes,
                    s.epochs_retained,
                    s.epochs_retired,
                    s.asof_hits,
                    s.drift_migrations,
                    s.drift_forced_full,
                    s.place_occupancy_q16,
                    s.place_shards,
                    s.place_rescales,
                    s.place_steals,
                ] {
                    put_u64(&mut out, v);
                }
            }
            Msg::ShutdownAck => out.push(tag::SHUTDOWN_ACK),
            Msg::ProtoHelloAck { protocol, wal } => {
                out.push(tag::PROTO_HELLO_ACK);
                put_u16(&mut out, *protocol);
                put_u16(&mut out, *wal);
            }
            Msg::ComputationList { comps } => {
                out.push(tag::COMP_LIST);
                put_u32(&mut out, comps.len() as u32);
                for c in comps {
                    put_str(&mut out, &c.name);
                    put_u32(&mut out, c.num_processes);
                    put_u32(&mut out, c.max_cluster_size);
                    put_u64(&mut out, c.delivered);
                }
            }
            Msg::SubscribeAck {
                lease,
                leader_epoch,
                num_processes,
                max_cluster_size,
                start_offset,
            } => {
                out.push(tag::SUBSCRIBE_ACK);
                put_u64(&mut out, *lease);
                put_u64(&mut out, *leader_epoch);
                put_u32(&mut out, *num_processes);
                put_u32(&mut out, *max_cluster_size);
                put_u64(&mut out, *start_offset);
            }
            Msg::StreamBatch {
                lease,
                first_offset,
                commit,
                events,
            } => {
                out.push(tag::STREAM_BATCH);
                put_u64(&mut out, *lease);
                put_u64(&mut out, *first_offset);
                put_u64(&mut out, *commit);
                encode_event_block(&mut out, events);
            }
            Msg::EpochList { epochs } => {
                out.push(tag::EPOCH_LIST);
                put_u32(&mut out, epochs.len() as u32);
                for (epoch, delivered) in epochs {
                    put_u64(&mut out, *epoch);
                    put_u64(&mut out, *delivered);
                }
            }
            Msg::ReplayChunk {
                first_offset,
                events,
                next,
            } => {
                out.push(tag::REPLAY_CHUNK);
                put_u64(&mut out, *first_offset);
                put_u64(&mut out, *next);
                encode_event_block(&mut out, events);
            }
            Msg::ClusterMapResult {
                epoch,
                delivered,
                cluster_receives,
                merges,
                migrations,
                forced_full,
                partition,
            } => {
                out.push(tag::CLUSTER_MAP_RESULT);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *delivered);
                put_u64(&mut out, *cluster_receives);
                put_u64(&mut out, *merges);
                put_u64(&mut out, *migrations);
                put_u64(&mut out, *forced_full);
                put_u32(&mut out, partition.len() as u32);
                for rep in partition {
                    put_u32(&mut out, *rep);
                }
            }
            Msg::PlacementResult {
                epoch,
                delivered,
                shards,
                pinned,
                rescales,
                steals,
                occupancy_q16,
                routing,
            } => {
                out.push(tag::PLACEMENT_RESULT);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *delivered);
                put_u64(&mut out, *shards);
                out.push(u8::from(*pinned));
                put_u64(&mut out, *rescales);
                put_u64(&mut out, *steals);
                put_u32(&mut out, occupancy_q16.len() as u32);
                for occ in occupancy_q16 {
                    put_u64(&mut out, *occ);
                }
                put_u32(&mut out, routing.len() as u32);
                for shard in routing {
                    put_u32(&mut out, *shard);
                }
            }
            Msg::Error { code, message } => {
                out.push(tag::ERROR);
                put_u16(&mut out, *code);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decode a payload (version + tag + body).
    pub fn decode(payload: &[u8]) -> Result<Msg, WireError> {
        let mut c = Cur {
            buf: payload,
            pos: 0,
        };
        let version = c.u8()?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let t = c.u8()?;
        let msg = match t {
            tag::HELLO => Msg::Hello {
                computation: c.string()?,
                num_processes: c.u32()?,
                max_cluster_size: c.u32()?,
            },
            tag::EVENTS => Msg::Events(c.event_block(payload.len())?),
            tag::FLUSH => Msg::Flush {
                expected_total: c.u64()?,
            },
            tag::QUERY_PRECEDES => Msg::QueryPrecedes {
                e: c.event_id()?,
                f: c.event_id()?,
            },
            tag::QUERY_GC => Msg::QueryGreatestConcurrent { e: c.event_id()? },
            tag::QUERY_WINDOW => Msg::QueryWindow {
                process: c.u32()?,
                from: c.u32()?,
                to: c.u32()?,
                limit: c.u32()?,
            },
            tag::QUERY_PRECEDES_BATCH => {
                let n = c.u32()? as usize;
                if n > payload.len() / 16 + 1 {
                    return Err(WireError::Malformed("pair count exceeds body"));
                }
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((c.event_id()?, c.event_id()?));
                }
                Msg::QueryPrecedesBatch { pairs }
            }
            tag::QUERY_GC_BATCH => {
                let n = c.u32()? as usize;
                if n > payload.len() / 8 + 1 {
                    return Err(WireError::Malformed("event count exceeds body"));
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(c.event_id()?);
                }
                Msg::QueryGcBatch { events }
            }
            tag::STATS => Msg::Stats,
            tag::SHUTDOWN => Msg::Shutdown,
            tag::GOODBYE => Msg::Goodbye,
            tag::PROTO_HELLO => Msg::ProtoHello {
                protocol_max: c.u16()?,
                wal_max: c.u16()?,
            },
            tag::LIST_COMPS => Msg::ListComputations,
            tag::SUBSCRIBE => Msg::Subscribe {
                computation: c.string()?,
                from_offset: c.u64()?,
                prev_lease: c.u64()?,
            },
            tag::QUERY_ASOF_PRECEDES => Msg::QueryAsOfPrecedes {
                epoch: c.u64()?,
                e: c.event_id()?,
                f: c.event_id()?,
            },
            tag::QUERY_ASOF_GC => Msg::QueryAsOfGc {
                epoch: c.u64()?,
                e: c.event_id()?,
            },
            tag::QUERY_ASOF_WINDOW => Msg::QueryAsOfWindow {
                epoch: c.u64()?,
                process: c.u32()?,
                from: c.u32()?,
                to: c.u32()?,
                limit: c.u32()?,
            },
            tag::LIST_EPOCHS => Msg::ListEpochs,
            tag::REPLAY_INTERVAL => Msg::ReplayInterval {
                from_epoch: c.u64()?,
                to_epoch: c.u64()?,
                cursor: c.u64()?,
                limit: c.u32()?,
            },
            tag::QUERY_CLUSTER_MAP => Msg::QueryClusterMap,
            tag::QUERY_PLACEMENT => Msg::QueryPlacement,
            tag::HELLO_ACK => Msg::HelloAck {
                session: c.u64()?,
                existing: c.u8()? != 0,
            },
            tag::FLUSH_ACK => Msg::FlushAck {
                epoch: c.u64()?,
                delivered: c.u64()?,
            },
            tag::PRECEDES_RESULT => Msg::PrecedesResult {
                epoch: c.u64()?,
                precedes: c.u8()? != 0,
            },
            tag::GC_RESULT => {
                let epoch = c.u64()?;
                let n = c.u32()? as usize;
                if n > payload.len() {
                    return Err(WireError::Malformed("slot count exceeds body"));
                }
                let mut slots = Vec::with_capacity(n);
                for _ in 0..n {
                    slots.push(match c.u8()? {
                        0 => None,
                        1 => Some(c.event_id()?),
                        _ => return Err(WireError::Malformed("bad option flag")),
                    });
                }
                Msg::GcResult { epoch, slots }
            }
            tag::WINDOW_RESULT => {
                let n = c.u32()? as usize;
                if n > payload.len() / 8 + 1 {
                    return Err(WireError::Malformed("id count exceeds body"));
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(c.event_id()?);
                }
                Msg::WindowResult {
                    ids,
                    next: c.u32()?,
                }
            }
            tag::PRECEDES_BATCH_RESULT => {
                let epoch = c.u64()?;
                let n = c.u32()? as usize;
                if n > payload.len() {
                    return Err(WireError::Malformed("verdict count exceeds body"));
                }
                let mut verdicts = Vec::with_capacity(n);
                for _ in 0..n {
                    verdicts.push(match c.u8()? {
                        0 => None,
                        1 => Some(false),
                        2 => Some(true),
                        _ => return Err(WireError::Malformed("bad verdict byte")),
                    });
                }
                Msg::PrecedesBatchResult { epoch, verdicts }
            }
            tag::GC_BATCH_RESULT => {
                let epoch = c.u64()?;
                let n = c.u32()? as usize;
                if n > payload.len() {
                    return Err(WireError::Malformed("result count exceeds body"));
                }
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(match c.u8()? {
                        0 => None,
                        1 => {
                            let m = c.u32()? as usize;
                            if m > payload.len() {
                                return Err(WireError::Malformed("slot count exceeds body"));
                            }
                            let mut slots = Vec::with_capacity(m);
                            for _ in 0..m {
                                slots.push(match c.u8()? {
                                    0 => None,
                                    1 => Some(c.event_id()?),
                                    _ => return Err(WireError::Malformed("bad option flag")),
                                });
                            }
                            Some(slots)
                        }
                        _ => return Err(WireError::Malformed("bad option flag")),
                    });
                }
                Msg::GcBatchResult { epoch, results }
            }
            tag::STATS_RESULT => Msg::StatsResult(StatsSnapshot {
                events_ingested: c.u64()?,
                duplicates_dropped: c.u64()?,
                reorder_depth: c.u64()?,
                reorder_peak: c.u64()?,
                queries_served: c.u64()?,
                snapshots_published: c.u64()?,
                ingest_p50_ns: c.u64()?,
                ingest_p95_ns: c.u64()?,
                query_p50_ns: c.u64()?,
                query_p95_ns: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                cache_evictions: c.u64()?,
                batch_queries: c.u64()?,
                precedes_p50_ns: c.u64()?,
                precedes_p95_ns: c.u64()?,
                gc_p50_ns: c.u64()?,
                gc_p95_ns: c.u64()?,
                window_p50_ns: c.u64()?,
                window_p95_ns: c.u64()?,
                repl_commit: c.u64()?,
                repl_applied: c.u64()?,
                repl_resubscribes: c.u64()?,
                epochs_retained: c.u64()?,
                epochs_retired: c.u64()?,
                asof_hits: c.u64()?,
                drift_migrations: c.u64()?,
                drift_forced_full: c.u64()?,
                place_occupancy_q16: c.u64()?,
                place_shards: c.u64()?,
                place_rescales: c.u64()?,
                place_steals: c.u64()?,
            }),
            tag::SHUTDOWN_ACK => Msg::ShutdownAck,
            tag::PROTO_HELLO_ACK => Msg::ProtoHelloAck {
                protocol: c.u16()?,
                wal: c.u16()?,
            },
            tag::COMP_LIST => {
                let n = c.u32()? as usize;
                // Each row costs >= 18 bytes (2-byte name length + 16 of
                // integers), bounding a corrupt count before allocation.
                if n > payload.len() / 18 + 1 {
                    return Err(WireError::Malformed("computation count exceeds body"));
                }
                let mut comps = Vec::with_capacity(n);
                for _ in 0..n {
                    comps.push(CompInfo {
                        name: c.string()?,
                        num_processes: c.u32()?,
                        max_cluster_size: c.u32()?,
                        delivered: c.u64()?,
                    });
                }
                Msg::ComputationList { comps }
            }
            tag::SUBSCRIBE_ACK => Msg::SubscribeAck {
                lease: c.u64()?,
                leader_epoch: c.u64()?,
                num_processes: c.u32()?,
                max_cluster_size: c.u32()?,
                start_offset: c.u64()?,
            },
            tag::STREAM_BATCH => Msg::StreamBatch {
                lease: c.u64()?,
                first_offset: c.u64()?,
                commit: c.u64()?,
                events: c.event_block(payload.len())?,
            },
            tag::EPOCH_LIST => {
                let n = c.u32()? as usize;
                if n > payload.len() / 16 + 1 {
                    return Err(WireError::Malformed("epoch count exceeds body"));
                }
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push((c.u64()?, c.u64()?));
                }
                Msg::EpochList { epochs }
            }
            tag::REPLAY_CHUNK => Msg::ReplayChunk {
                first_offset: c.u64()?,
                next: c.u64()?,
                events: c.event_block(payload.len())?,
            },
            tag::CLUSTER_MAP_RESULT => {
                let epoch = c.u64()?;
                let delivered = c.u64()?;
                let cluster_receives = c.u64()?;
                let merges = c.u64()?;
                let migrations = c.u64()?;
                let forced_full = c.u64()?;
                let n = c.u32()? as usize;
                if n > payload.len() / 4 + 1 {
                    return Err(WireError::Malformed("partition size exceeds body"));
                }
                let mut partition = Vec::with_capacity(n);
                for _ in 0..n {
                    partition.push(c.u32()?);
                }
                Msg::ClusterMapResult {
                    epoch,
                    delivered,
                    cluster_receives,
                    merges,
                    migrations,
                    forced_full,
                    partition,
                }
            }
            tag::PLACEMENT_RESULT => {
                let epoch = c.u64()?;
                let delivered = c.u64()?;
                let shards = c.u64()?;
                let pinned = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("bad bool flag")),
                };
                let rescales = c.u64()?;
                let steals = c.u64()?;
                let n = c.u32()? as usize;
                if n > payload.len() / 8 + 1 {
                    return Err(WireError::Malformed("occupancy size exceeds body"));
                }
                let mut occupancy_q16 = Vec::with_capacity(n);
                for _ in 0..n {
                    occupancy_q16.push(c.u64()?);
                }
                let n = c.u32()? as usize;
                if n > payload.len() / 4 + 1 {
                    return Err(WireError::Malformed("routing size exceeds body"));
                }
                let mut routing = Vec::with_capacity(n);
                for _ in 0..n {
                    routing.push(c.u32()?);
                }
                Msg::PlacementResult {
                    epoch,
                    delivered,
                    shards,
                    pinned,
                    rescales,
                    steals,
                    occupancy_q16,
                    routing,
                }
            }
            tag::ERROR => Msg::Error {
                code: c.u16()?,
                message: c.string()?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        c.finish()?;
        Ok(msg)
    }
}

/// Write one message as a frame. A message that encodes past [`MAX_FRAME`]
/// is an error and nothing is written: the peer would reject the frame and
/// lose the stream's framing with it.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    let payload = msg.encode();
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "message encodes to {} bytes, over the frame limit {MAX_FRAME}",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    Ok(())
}

/// Outcome of one [`recv_frame`] attempt on a possibly-timeouted socket.
pub enum Recv {
    /// A complete payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// Read timeout fired before the first byte of a frame — poll again.
    Idle,
}

/// Read one frame. Tolerates read timeouts: a timeout before the frame's
/// first byte yields [`Recv::Idle`]; mid-frame timeouts keep reading (the
/// sender has committed to the frame). A close at a frame boundary is
/// [`Recv::Eof`]; a close mid-frame is an error.
pub fn recv_frame<R: Read>(r: &mut R) -> io::Result<Recv> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(Recv::Eof)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if filled == 0 {
                    return Ok(Recv::Idle);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Recv::Frame(payload))
}

/// Blocking read of exactly one message (client side; no timeout tolerance
/// needed because replies follow requests promptly).
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Option<Msg>> {
    match recv_frame(r)? {
        Recv::Eof => Ok(None),
        Recv::Idle => unreachable!("read_msg requires a blocking stream"),
        Recv::Frame(payload) => Msg::decode(&payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// Incremental frame reassembly for non-blocking sockets.
///
/// The blocking path ([`recv_frame`]) can loop until a frame completes; an
/// edge-triggered readiness loop cannot — it gets whatever bytes the kernel
/// has and must come back later for the rest. `FrameBuffer` accumulates
/// those arbitrary chunks and yields complete payloads as they form,
/// enforcing [`MAX_FRAME`] as soon as a header is visible so a malicious
/// length prefix is rejected before any payload is buffered.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted between readiness events rather
    /// than per frame so a burst of small frames costs one memmove.
    pos: usize,
}

/// Keep at most this much slack allocated in an idle [`FrameBuffer`].
const FRAME_BUF_IDLE_CAP: usize = 64 * 1024;

impl FrameBuffer {
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pop the next complete frame payload, if one has fully arrived.
    /// `Ok(None)` means "need more bytes"; an oversized length prefix is a
    /// protocol error that must end the connection.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds limit {MAX_FRAME}"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            self.compact();
            return Ok(None);
        }
        let payload = avail[4..total].to_vec();
        self.pos += total;
        Ok(Some(payload))
    }

    /// Drop the consumed prefix and release oversized capacity once the
    /// buffer is empty — a connection that once carried a 1 MiB frame must
    /// not pin that allocation forever.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        if self.buf.is_empty() && self.buf.capacity() > FRAME_BUF_IDLE_CAP {
            self.buf.shrink_to(FRAME_BUF_IDLE_CAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(p: u32, i: u32) -> EventId {
        EventId::new(ProcessId(p), EventIndex(i))
    }

    fn all_messages() -> Vec<Msg> {
        vec![
            Msg::Hello {
                computation: "pvm/stencil".into(),
                num_processes: 64,
                max_cluster_size: 13,
            },
            Msg::Events(vec![
                Event::new(id(0, 1), EventKind::Internal),
                Event::new(id(0, 2), EventKind::Send { to: ProcessId(1) }),
                Event::new(id(1, 1), EventKind::Receive { from: id(0, 2) }),
                Event::new(id(1, 2), EventKind::Sync { peer: id(2, 1) }),
            ]),
            Msg::Flush {
                expected_total: 338_320,
            },
            Msg::QueryPrecedes {
                e: id(3, 7),
                f: id(5, 2),
            },
            Msg::QueryGreatestConcurrent { e: id(9, 1) },
            Msg::QueryWindow {
                process: 4,
                from: 10,
                to: 20,
                limit: 5,
            },
            Msg::QueryPrecedesBatch {
                pairs: vec![(id(3, 7), id(5, 2)), (id(0, 1), id(0, 2))],
            },
            Msg::QueryGcBatch {
                events: vec![id(9, 1), id(2, 4)],
            },
            Msg::Stats,
            Msg::Shutdown,
            Msg::Goodbye,
            Msg::ProtoHello {
                protocol_max: PROTOCOL,
                wal_max: WAL_FORMAT,
            },
            Msg::ListComputations,
            Msg::Subscribe {
                computation: "pvm/stencil".into(),
                from_offset: 4096,
                prev_lease: (3 << 32) | 7,
            },
            Msg::QueryAsOfPrecedes {
                epoch: 11,
                e: id(3, 7),
                f: id(5, 2),
            },
            Msg::QueryAsOfGc {
                epoch: 11,
                e: id(9, 1),
            },
            Msg::QueryAsOfWindow {
                epoch: 11,
                process: 4,
                from: 10,
                to: 20,
                limit: 5,
            },
            Msg::ListEpochs,
            Msg::ReplayInterval {
                from_epoch: 9,
                to_epoch: 11,
                cursor: 512,
                limit: 256,
            },
            Msg::QueryClusterMap,
            Msg::QueryPlacement,
            Msg::HelloAck {
                session: 42,
                existing: true,
            },
            Msg::FlushAck {
                epoch: 3,
                delivered: 1000,
            },
            Msg::PrecedesResult {
                epoch: 3,
                precedes: true,
            },
            Msg::GcResult {
                epoch: 7,
                slots: vec![None, Some(id(1, 5)), Some(id(2, 1)), None],
            },
            Msg::WindowResult {
                ids: vec![id(0, 1), id(0, 2)],
                next: 3,
            },
            Msg::PrecedesBatchResult {
                epoch: 9,
                verdicts: vec![Some(true), None, Some(false)],
            },
            Msg::GcBatchResult {
                epoch: 9,
                results: vec![None, Some(vec![None, Some(id(1, 5))]), Some(vec![])],
            },
            Msg::StatsResult(StatsSnapshot {
                events_ingested: 1,
                duplicates_dropped: 2,
                reorder_depth: 3,
                reorder_peak: 4,
                queries_served: 5,
                snapshots_published: 6,
                ingest_p50_ns: 7,
                ingest_p95_ns: 8,
                query_p50_ns: 9,
                query_p95_ns: 10,
                cache_hits: 11,
                cache_misses: 12,
                cache_evictions: 13,
                batch_queries: 14,
                precedes_p50_ns: 15,
                precedes_p95_ns: 16,
                gc_p50_ns: 17,
                gc_p95_ns: 18,
                window_p50_ns: 19,
                window_p95_ns: 20,
                repl_commit: 21,
                repl_applied: 22,
                repl_resubscribes: 23,
                epochs_retained: 24,
                epochs_retired: 25,
                asof_hits: 26,
                drift_migrations: 27,
                drift_forced_full: 28,
                place_occupancy_q16: 29,
                place_shards: 30,
                place_rescales: 31,
                place_steals: 32,
            }),
            Msg::ShutdownAck,
            Msg::ProtoHelloAck {
                protocol: PROTOCOL,
                wal: WAL_FORMAT,
            },
            Msg::ComputationList {
                comps: vec![
                    CompInfo {
                        name: "pvm/stencil".into(),
                        num_processes: 64,
                        max_cluster_size: 13,
                        delivered: 338_320,
                    },
                    CompInfo {
                        name: "web/shard".into(),
                        num_processes: 288,
                        max_cluster_size: 8,
                        delivered: 0,
                    },
                ],
            },
            Msg::SubscribeAck {
                lease: (5 << 32) | 1,
                leader_epoch: 5,
                num_processes: 64,
                max_cluster_size: 13,
                start_offset: 4096,
            },
            Msg::StreamBatch {
                lease: (5 << 32) | 1,
                first_offset: 4097,
                commit: 4100,
                events: vec![
                    Event::new(id(0, 1), EventKind::Internal),
                    Event::new(id(0, 2), EventKind::Send { to: ProcessId(1) }),
                ],
            },
            Msg::EpochList {
                epochs: vec![(9, 4000), (10, 4050), (11, 4100)],
            },
            Msg::ReplayChunk {
                first_offset: 513,
                events: vec![
                    Event::new(id(0, 1), EventKind::Internal),
                    Event::new(id(1, 1), EventKind::Receive { from: id(0, 2) }),
                ],
                next: 515,
            },
            Msg::ClusterMapResult {
                epoch: 12,
                delivered: 4200,
                cluster_receives: 900,
                merges: 14,
                migrations: 3,
                forced_full: 21,
                partition: vec![0, 0, 2, 2, 0],
            },
            Msg::PlacementResult {
                epoch: 13,
                delivered: 4300,
                shards: 3,
                pinned: true,
                rescales: 2,
                steals: 5,
                occupancy_q16: vec![30000, 20000, 15536],
                routing: vec![0, 0, 1, 2, 1],
            },
            Msg::Error {
                code: code::UNKNOWN_EVENT,
                message: "P9#99 not in snapshot".into(),
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let enc = msg.encode();
            assert_eq!(enc[0], VERSION);
            let dec = Msg::decode(&enc).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(dec, msg);
        }
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            write_msg(&mut buf, &msg).unwrap();
        }
        let mut r = &buf[..];
        for expect in all_messages() {
            assert_eq!(read_msg(&mut r).unwrap(), Some(expect));
        }
        assert_eq!(read_msg(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn bad_version_and_tag_are_rejected() {
        let mut enc = Msg::Stats.encode();
        enc[0] = 99;
        assert_eq!(Msg::decode(&enc), Err(WireError::BadVersion(99)));
        let mut enc = Msg::Stats.encode();
        enc[1] = 0x60;
        assert_eq!(Msg::decode(&enc), Err(WireError::BadTag(0x60)));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let enc = Msg::Flush { expected_total: 7 }.encode();
        assert!(matches!(
            Msg::decode(&enc[..enc.len() - 1]),
            Err(WireError::Malformed(_))
        ));
        let mut padded = enc;
        padded.push(0);
        assert!(matches!(Msg::decode(&padded), Err(WireError::Malformed(_))));
    }

    #[test]
    fn zero_event_index_is_rejected() {
        let mut enc = Msg::QueryGreatestConcurrent { e: id(1, 1) }.encode();
        // Overwrite the index field (last 4 bytes) with 0.
        let n = enc.len();
        enc[n - 4..].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(Msg::decode(&enc), Err(WireError::Malformed(_))));
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(recv_frame(&mut r).is_err());
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let msg = Msg::Hello {
            computation: "frame-buffer".into(),
            num_processes: 5,
            max_cluster_size: 3,
        };
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        let mut fb = FrameBuffer::new();
        let mut out = Vec::new();
        // Worst-case fragmentation: one byte per readiness event.
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(payload) = fb.next_frame().unwrap() {
                out.push(Msg::decode(&payload).unwrap());
            }
        }
        assert_eq!(out, vec![msg]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_yields_multiple_frames_from_one_chunk() {
        let msgs = all_messages();
        let mut wire = Vec::new();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        // One chunk carrying every frame plus a dangling partial header.
        wire.extend_from_slice(&[3, 0]);
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        let mut out = Vec::new();
        while let Some(payload) = fb.next_frame().unwrap() {
            out.push(Msg::decode(&payload).unwrap());
        }
        assert_eq!(out, msgs);
        assert_eq!(fb.pending(), 2);
    }

    #[test]
    fn frame_buffer_rejects_oversized_length_before_payload() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn frame_buffer_releases_large_allocations_when_idle() {
        let mut fb = FrameBuffer::new();
        let big = vec![0xABu8; (MAX_FRAME as usize) / 2];
        let mut wire = (big.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&big);
        fb.extend(&wire);
        assert_eq!(fb.next_frame().unwrap().unwrap(), big);
        assert!(fb.next_frame().unwrap().is_none());
        assert!(
            fb.buf.capacity() <= FRAME_BUF_IDLE_CAP,
            "idle buffer still holds {} bytes",
            fb.buf.capacity()
        );
    }
}
