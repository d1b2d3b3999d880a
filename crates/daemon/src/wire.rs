//! The `cts-daemon` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 LE payload length][payload]`, and every payload is
//! `[version byte][message-type byte][body]`. The layout is documented
//! normatively in DESIGN.md Appendix A.
//!
//! ## One table
//!
//! Each message is declared once, as a row of the `messages!` table below:
//! doc comment, tag byte, variant name, protocol level, [`Scope`], and its
//! fields in wire order. The table generates [`Msg`], [`Msg::encode`],
//! [`Msg::decode`], [`Msg::name`], [`Msg::level`] and [`Msg::scope`]. A
//! body is its fields' encodings back to back, and each wire type has
//! exactly one codec, its [`Field`] impl (DESIGN A.2). DESIGN A.3 is the
//! table rendered, and a unit test keeps the two equal. Adding a message
//! is one table row plus its handler in [`crate::session`].
//!
//! The event-block layout (`[u32 count][event...]`) is shared with the
//! checkpoint files ([`crate::checkpoint`]) via [`encode_event_block`] /
//! [`decode_event_block`], so checkpoints and `Events` frames cannot drift.
//!
//! Version negotiation is two-layered. The *frame* version is a single byte:
//! a peer that receives a frame with an unknown version answers [`Msg::Error`]
//! with [`code::BAD_VERSION`] and may close. There is exactly one frame
//! version today, [`VERSION`] = 1. Above it sits the *message set* level,
//! negotiated by [`Msg::ProtoHello`]: the client states the highest message
//! set and WAL record format it speaks, the server answers the minimum of
//! each side's maximum, and messages introduced after level 1 (see
//! [`Msg::level`]) are refused with [`code::UNSUPPORTED`] on connections
//! that never negotiated a level that carries them. An entirely unknown
//! message-type byte likewise answers `UNSUPPORTED` without dropping the
//! connection, so old daemons degrade politely under new peers.

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

/// Highest WAL record format this build can stream and replay (the
/// `CTSWAL2` delta encoding).
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

// ---- the field codecs: one per wire type ----

/// One wire type's encoding. Every message body, and every record type in
/// one, is its fields' encodings in declaration order. The impls an event
/// block runs through are `#[inline]`: without the hints the block codec
/// costs 2-4x what a hand-written loop does.
trait Field: Sized {
    /// Fewest bytes a value encodes to, so a decoded count can be refused
    /// before allocation when the rest of the body cannot hold it.
    const MIN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError>;
}

/// A read position in a payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Where this decode read a count or a flag byte (the fuzzer's map of
    /// a payload's structure).
    #[cfg(test)]
    marks: Vec<(usize, tests::Mark)>,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur {
            buf,
            pos: 0,
            #[cfg(test)]
            marks: Vec::new(),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(WireError::Malformed("truncated body"))?;
        self.pos += n;
        Ok(s)
    }

    /// A discriminant byte; `what` names the refusal of a value outside
    /// `0..limit`.
    #[inline]
    fn flag(&mut self, limit: u8, what: &'static str) -> Result<u8, WireError> {
        #[cfg(test)]
        self.marks.push((self.pos, tests::Mark::Flag(limit)));
        match u8::get(self)? {
            v if v < limit => Ok(v),
            _ => Err(WireError::Malformed(what)),
        }
    }

    /// A `u32` element count, refused unless the rest of the body can hold
    /// that many elements of at least `min` bytes each.
    fn count(&mut self, min: usize) -> Result<usize, WireError> {
        #[cfg(test)]
        self.marks.push((self.pos, tests::Mark::Count(min)));
        let n = u32::get(self)? as usize;
        if n > (self.buf.len() - self.pos) / min {
            return Err(WireError::Malformed("count exceeds body"));
        }
        Ok(n)
    }
}

/// Decode one `T` occupying exactly `buf`.
fn decode_exact<T: Field>(buf: &[u8]) -> Result<T, WireError> {
    let mut c = Cur::new(buf);
    let value = T::get(&mut c)?;
    if c.pos == buf.len() {
        Ok(value)
    } else {
        Err(WireError::Malformed("trailing bytes"))
    }
}

/// `u8`/`u16`/`u32`/`u64`: little-endian.
macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(c.take(<$t as Field>::MIN)?.try_into().unwrap()))
            }
        }
    )*};
}
int_field!(u8, u16, u32, u64);

/// One byte, 0 or 1.
impl Field for bool {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(c.flag(2, "bad bool byte")? == 1)
    }
}

/// A batch verdict byte: 0 = unknown event, 1 = false, 2 = true.
impl Field for Option<bool> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(match c.flag(3, "bad verdict byte")? {
            0 => None,
            v => Some(v == 2),
        })
    }
}

/// Flag byte (0 = none, 1 = some), then the value if some.
macro_rules! option_field {
    ($($t:ty),*) => {$(
        impl Field for Option<$t> {
            const MIN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        v.put(out);
                    }
                }
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(match c.flag(2, "bad option flag")? {
                    0 => None,
                    _ => Some(Field::get(c)?),
                })
            }
        }
    )*};
}
option_field!(EventId, Vec<Option<EventId>>);

/// `u16` byte length + UTF-8. A longer string is cut at the last char
/// boundary that fits, so a reply that quotes an over-long name still
/// frames.
impl Field for String {
    const MIN: usize = 2;
    fn put(&self, out: &mut Vec<u8>) {
        let mut n = self.len().min(u16::MAX as usize);
        while !self.is_char_boundary(n) {
            n -= 1;
        }
        (n as u16).put(out);
        out.extend_from_slice(&self.as_bytes()[..n]);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let n = u16::get(c)? as usize;
        String::from_utf8(c.take(n)?.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }
}

/// `process: u32` + `index: u32`; index 0 is refused (indices are 1-based).
impl Field for EventId {
    const MIN: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.process.0.put(out);
        self.index.0.put(out);
    }
    #[inline]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let (p, i) = (u32::get(c)?, u32::get(c)?);
        if i == 0 {
            return Err(WireError::Malformed("event index 0 (indices are 1-based)"));
        }
        Ok(EventId::new(ProcessId(p), EventIndex(i)))
    }
}

/// `EventId` + kind byte: 0 = internal; 1 = send + `to: u32`; 2 = receive +
/// `from: EventId`; 3 = sync + `peer: EventId`.
impl Field for Event {
    const MIN: usize = 9;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.id.put(out);
        match self.kind {
            EventKind::Internal => out.push(0),
            EventKind::Send { to } => {
                out.push(1);
                to.0.put(out);
            }
            EventKind::Receive { from } => {
                out.push(2);
                from.put(out);
            }
            EventKind::Sync { peer } => {
                out.push(3);
                peer.put(out);
            }
        }
    }
    #[inline]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let id = EventId::get(c)?;
        let kind = match c.flag(4, "unknown event kind")? {
            0 => EventKind::Internal,
            1 => EventKind::Send {
                to: ProcessId(u32::get(c)?),
            },
            2 => EventKind::Receive {
                from: EventId::get(c)?,
            },
            _ => EventKind::Sync {
                peer: EventId::get(c)?,
            },
        };
        Ok(Event::new(id, kind))
    }
}

/// `u32` count, then that many elements.
impl<T: Field> Field for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_all(out, self);
    }
    #[inline]
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let n = c.count(T::MIN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(c)?);
        }
        Ok(items)
    }
}

fn put_all<T: Field>(out: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

/// The two elements back to back.
impl<A: Field, B: Field> Field for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// Encode an event block — `[u32 count][event...]` — the layout shared by
/// `Msg::Events` bodies and checkpoint payloads.
pub fn encode_event_block(out: &mut Vec<u8>, events: &[Event]) {
    put_all(out, events);
}

/// Decode an event block occupying exactly `buf`.
pub fn decode_event_block(buf: &[u8]) -> Result<Vec<Event>, WireError> {
    decode_exact(buf)
}

/// A struct whose wire form is its fields in declaration order.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$fmeta:meta])* pub $f:ident: $t:ty,)* }
    ) => {
        $(#[$meta])*
        pub struct $name { $($(#[$fmeta])* pub $f: $t,)* }

        impl Field for $name {
            const MIN: usize = 0 $(+ <$t as Field>::MIN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok($name { $($f: Field::get(c)?,)* })
            }
        }

        #[cfg(test)]
        impl $name {
            /// Field names and types in wire order (DESIGN A.3).
            const LAYOUT: &'static [(&'static str, &'static str)] =
                &[$((stringify!($f), stringify!($t)),)*];
        }
    };
}

record! {
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
}

record! {
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
}

// ---- the message table ----

/// Who sends a message, and what a client must have done first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Scope {
    /// A client verb, answered on any connection.
    Connection,
    /// A client verb that needs a session bound by `Hello` first.
    Session,
    /// A server → client message.
    Reply,
}

/// One row per message: doc comment, tag byte, variant name,
/// `[protocol level, scope]`, then the fields in wire order — `{ named }`,
/// `(one: T)` for a tuple variant, or nothing.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $tag:literal $name:ident [$level:literal, $scope:ident]
        $({ $($(#[$fdoc:meta])* $f:ident: $t:ty),* $(,)? })?
        $(($one:ident: $one_t:ty))?
    )*) => {
        /// A protocol message (either direction).
        #[derive(Clone, PartialEq, Eq, Debug)]
        pub enum Msg {
            $(
                $(#[$doc])*
                $name $({ $($(#[$fdoc])* $f: $t),* })? $(($one_t))?,
            )*
        }

        /// The message as a payload: version byte, tag byte, fields.
        impl Field for Msg {
            const MIN: usize = 2;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(VERSION);
                match self {
                    $(Msg::$name $({ $($f),* })? $(($one))? => {
                        out.push($tag);
                        $($($f.put(out);)*)?
                        $($one.put(out);)?
                    })*
                }
            }
            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let version = u8::get(c)?;
                if version != VERSION {
                    return Err(WireError::BadVersion(version));
                }
                Ok(match u8::get(c)? {
                    $($tag => Msg::$name $({ $($f: Field::get(c)?),* })? $((<$one_t>::get(c)?))?,)*
                    other => return Err(WireError::BadTag(other)),
                })
            }
        }

        impl Msg {
            /// Serialize into a payload (version + tag + body), without the
            /// frame length prefix.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(16);
                self.put(&mut out);
                out
            }

            /// Decode a payload (version + tag + body).
            pub fn decode(payload: &[u8]) -> Result<Msg, WireError> {
                decode_exact(payload)
            }

            /// The variant name: the one DESIGN A.3 and refusals use.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $(Msg::$name { .. } => stringify!($name),)*
                }
            }

            /// The lowest message-set level (negotiated by `ProtoHello`, see
            /// [`PROTOCOL`]) that carries this message.
            pub(crate) fn level(&self) -> u16 {
                match self {
                    $(Msg::$name { .. } => $level,)*
                }
            }

            /// Who sends this message, and whether it needs a session.
            pub(crate) fn scope(&self) -> Scope {
                match self {
                    $(Msg::$name { .. } => Scope::$scope,)*
                }
            }
        }

        /// Every row: tag, name, level, scope, fields in wire order.
        #[cfg(test)]
        const TABLE: &[(u8, &str, u16, Scope, &[(&str, &str)])] = &[$((
            $tag,
            stringify!($name),
            $level,
            Scope::$scope,
            &[$($((stringify!($f), stringify!($t)),)*)? $((stringify!($one), stringify!($one_t)))?],
        ),)*];
    };
}

messages! {
    /// Bind this session to a computation, creating it if needed.
    0x01 Hello [1, Connection] {
        computation: String,
        num_processes: u32,
        max_cluster_size: u32,
    }
    /// A batch of observed events, in any order, duplicates allowed.
    0x02 Events [1, Session] (events: Vec<Event>)
    /// Barrier: block until `expected_total` events are delivered and a
    /// snapshot covering them is published.
    0x03 Flush [1, Session] { expected_total: u64 }
    /// Does `e` happen before `f`?
    0x04 QueryPrecedes [1, Session] { e: EventId, f: EventId }
    /// Greatest event of every other process concurrent with `e`.
    0x05 QueryGreatestConcurrent [1, Session] { e: EventId }
    /// Scroll a window of the published partial order: process `p`, indices
    /// `[from, to)` as of the head epoch. `limit` caps the ids per reply (`0` = server default);
    /// the server answers with at most that many and a continuation cursor.
    0x06 QueryWindow [1, Session] {
        process: u32,
        from: u32,
        to: u32,
        limit: u32,
    }
    /// Request the computation's metrics counters.
    0x07 Stats [1, Session]
    /// Ask the daemon to shut down gracefully.
    0x08 Shutdown [1, Connection]
    /// Close this session.
    0x09 Goodbye [1, Connection]
    /// Batched precedence queries, answered pair-for-pair in one reply.
    0x0A QueryPrecedesBatch [1, Session] { pairs: Vec<(EventId, EventId)> }
    /// Batched greatest-concurrent queries, answered slot-for-slot.
    0x0B QueryGcBatch [1, Session] { events: Vec<EventId> }
    /// Negotiate the message-set and WAL-format levels: the client states
    /// the highest of each it speaks; the server answers the minimum of the
    /// two sides' maxima. Messages above level 1 require this handshake.
    0x0C ProtoHello [1, Connection] { protocol_max: u16, wal_max: u16 }
    /// Enumerate the daemon's computations (level 2; follower discovery).
    0x0D ListComputations [2, Connection]
    /// Subscribe to a computation's committed WAL record stream starting at
    /// delivery offset `from_offset` (exclusive: the first streamed event is
    /// `from_offset + 1`). `prev_lease` is 0 on a first subscription, else
    /// the lease from the previous [`Msg::SubscribeAck`] — a lease minted by
    /// an older leader incarnation is refused with [`code::LEASE_EXPIRED`].
    0x0E Subscribe [2, Connection] {
        computation: String,
        from_offset: u64,
        prev_lease: u64,
    }
    /// Time travel (level 3): [`Msg::QueryPrecedes`] answered against the
    /// retained snapshot published at `epoch` instead of the head. A retired
    /// (or never-published) epoch is refused with [`code::EPOCH_RETIRED`].
    0x0F QueryAsOfPrecedes [3, Session] { epoch: u64, e: EventId, f: EventId }
    /// Time travel (level 3): greatest-concurrent as of `epoch`.
    0x10 QueryAsOfGc [3, Session] { epoch: u64, e: EventId }
    /// Time travel (level 3): window scroll as of `epoch`, with the same
    /// pagination contract as [`Msg::QueryWindow`].
    0x11 QueryAsOfWindow [3, Session] {
        epoch: u64,
        process: u32,
        from: u32,
        to: u32,
        limit: u32,
    }
    /// Time travel (level 3): enumerate the epochs still retained (and thus
    /// answerable by the `QueryAsOf*` verbs and `ReplayInterval`).
    0x12 ListEpochs [3, Session]
    /// Time travel (level 3): stream the delivered-event interval between
    /// two retained epochs, in delivery order. `from_epoch == 0` means "from
    /// the beginning of history". `cursor` is 0 on the first request, else
    /// the `next` from the previous [`Msg::ReplayChunk`]. `limit` caps the
    /// events per chunk (`0` = server default).
    0x13 ReplayInterval [3, Session] {
        from_epoch: u64,
        to_epoch: u64,
        cursor: u64,
        limit: u32,
    }
    /// Adaptive re-clustering (level 4): ask for the cluster map of the
    /// computation's head snapshot — the current partition plus the drift
    /// counters, so clients can watch migrations move processes between
    /// clusters without parsing stats deltas.
    0x14 QueryClusterMap [4, Session]
    /// Shard autoscaling (level 5): ask for the computation's current
    /// placement — active shard count, per-shard occupancy shares, the
    /// rescale/steal counters, and the process → shard routing table.
    0x15 QueryPlacement [5, Session]

    /// Reply to [`Msg::Hello`]: the session id, and whether the computation
    /// already existed.
    0x81 HelloAck [1, Reply] { session: u64, existing: bool }
    /// Reply to [`Msg::Flush`]: the epoch that covers the barrier target.
    0x83 FlushAck [1, Reply] { epoch: u64, delivered: u64 }
    /// Reply to [`Msg::QueryPrecedes`] and [`Msg::QueryAsOfPrecedes`].
    0x84 PrecedesResult [1, Reply] { epoch: u64, precedes: bool }
    /// Reply to [`Msg::QueryGreatestConcurrent`] and [`Msg::QueryAsOfGc`]:
    /// slot `p` is the greatest event of process `p` concurrent with `e`.
    0x85 GcResult [1, Reply] { epoch: u64, slots: Vec<Option<EventId>> }
    /// Reply to [`Msg::QueryWindow`] and [`Msg::QueryAsOfWindow`].
    0x86 WindowResult [1, Reply] {
        ids: Vec<EventId>,
        /// Resume-from index for the rest of the window, or `0` when the
        /// reply completes the requested range (indices are 1-based, so 0
        /// is never a valid cursor).
        next: u32,
    }
    /// Reply to [`Msg::Stats`].
    0x87 StatsResult [1, Reply] (stats: StatsSnapshot)
    /// Reply to [`Msg::Shutdown`], sent before the daemon drains.
    0x88 ShutdownAck [1, Reply]
    /// Reply to [`Msg::QueryPrecedesBatch`]: one verdict per pair, `None`
    /// when either event is unknown at the answering epoch.
    0x89 PrecedesBatchResult [1, Reply] { epoch: u64, verdicts: Vec<Option<bool>> }
    /// Reply to [`Msg::QueryGcBatch`]: one slot vector per event, `None`
    /// when the event is unknown at the answering epoch.
    0x8A GcBatchResult [1, Reply] {
        epoch: u64,
        results: Vec<Option<Vec<Option<EventId>>>>,
    }
    /// Reply to [`Msg::ProtoHello`]: the negotiated levels this connection
    /// will use (min of each side's maximum).
    0x8B ProtoHelloAck [1, Reply] { protocol: u16, wal: u16 }
    /// Reply to [`Msg::ListComputations`].
    0x8C ComputationList [2, Reply] { comps: Vec<CompInfo> }
    /// Reply to [`Msg::Subscribe`]: the granted lease (high 32 bits are the
    /// leader's incarnation number), the computation's parameters, and the
    /// offset the stream actually starts from (== the requested
    /// `from_offset`, capped at the leader's durable watermark).
    0x8D SubscribeAck [2, Reply] {
        lease: u64,
        leader_epoch: u64,
        num_processes: u32,
        max_cluster_size: u32,
        start_offset: u64,
    }
    /// One pushed batch of committed (durably synced) WAL records. `commit`
    /// is the leader's durable watermark as of the push — every event at
    /// offset <= `commit` survives a leader crash, so the follower may
    /// publish a snapshot through it.
    0x8E StreamBatch [2, Reply] {
        lease: u64,
        first_offset: u64,
        commit: u64,
        events: Vec<Event>,
    }
    /// Reply to [`Msg::ListEpochs`]: `(epoch, delivered)` rows, oldest first.
    0x8F EpochList [3, Reply] { epochs: Vec<(u64, u64)> }
    /// One chunk of a [`Msg::ReplayInterval`] stream: events starting at
    /// 1-based delivery offset `first_offset`, and the cursor to resume from
    /// (`0` when the interval is fully delivered — delivery offsets are
    /// 1-based, so 0 is never a valid cursor).
    0x90 ReplayChunk [3, Reply] {
        first_offset: u64,
        next: u64,
        events: Vec<Event>,
    }
    /// Reply to [`Msg::QueryClusterMap`]: the head snapshot's epoch and
    /// delivered count, its clustering outcome counters, the daemon-lifetime
    /// drift counters, and the partition itself — `partition[p]` is the
    /// cluster representative (canonical member id) of process `p`, so two
    /// processes are clustered together iff their entries are equal.
    0x91 ClusterMapResult [4, Reply] {
        epoch: u64,
        delivered: u64,
        cluster_receives: u64,
        merges: u64,
        migrations: u64,
        forced_full: u64,
        partition: Vec<u32>,
    }
    /// Reply to [`Msg::QueryPlacement`]: the head snapshot's epoch and
    /// delivered count, the active shard count, whether workers are pinned
    /// to topology-chosen cores, the daemon-lifetime rescale/steal counters,
    /// per-active-shard occupancy shares in Q16 (`occupancy_q16[s]` sums to
    /// ~1.0 across shards), and `routing[p]` = the shard process `p`'s
    /// events are routed to.
    0x92 PlacementResult [5, Reply] {
        epoch: u64,
        delivered: u64,
        shards: u64,
        pinned: bool,
        rescales: u64,
        steals: u64,
        occupancy_q16: Vec<u64>,
        routing: Vec<u32>,
    }
    /// A refusal, with one of the [`code`]s and a human-readable reason.
    0x7F Error [1, Reply] { code: u16, message: String }
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

    /// A structural byte position a decode read.
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub(super) enum Mark {
        /// A `u32` element count of elements at least this many bytes long.
        Count(usize),
        /// A discriminant byte whose valid values are `0..limit`.
        Flag(u8),
    }

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

    /// One row of `tests/fixtures/wire_messages.txt`.
    struct Pinned {
        name: String,
        tag: u8,
        level: u16,
        scope: String,
        payload: Vec<u8>,
    }

    fn pinned() -> Vec<Pinned> {
        include_str!("../tests/fixtures/wire_messages.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|line| {
                let cols: Vec<&str> = line.split(' ').collect();
                let [name, tag, level, scope, hex] = cols[..] else {
                    panic!("bad fixture line {line:?}");
                };
                Pinned {
                    name: name.into(),
                    tag: u8::from_str_radix(tag.trim_start_matches("0x"), 16).unwrap(),
                    level: level.parse().unwrap(),
                    scope: scope.into(),
                    payload: (0..hex.len())
                        .step_by(2)
                        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                        .collect(),
                }
            })
            .collect()
    }

    /// The bytes of every message are pinned by a fixture recorded with an
    /// earlier, hand-written codec: the round-trip tests compare the codec
    /// with itself and would pass a layout changed on both sides at once.
    #[test]
    fn every_message_encodes_to_the_pinned_bytes() {
        let pins = pinned();
        let msgs = all_messages();
        assert_eq!(pins.len(), msgs.len());
        for (pin, msg) in pins.iter().zip(msgs) {
            assert_eq!(
                msg.encode(),
                pin.payload,
                "{} encodes differently",
                pin.name
            );
            assert_eq!(pin.payload[1], pin.tag, "{}", pin.name);
            assert_eq!(msg.name(), pin.name);
            assert_eq!(msg.level(), pin.level, "{}", pin.name);
            let scope = format!("{:?}", msg.scope()).to_lowercase();
            assert_eq!(scope, pin.scope, "{}", pin.name);
            assert_eq!(Msg::decode(&pin.payload), Ok(msg), "{}", pin.name);
        }
    }

    /// `all_messages` has one message per table row, so everything driven
    /// by it covers the whole table.
    #[test]
    fn all_messages_covers_the_table() {
        let msgs = all_messages();
        let tags: std::collections::BTreeSet<u8> = TABLE.iter().map(|row| row.0).collect();
        assert_eq!((msgs.len(), tags.len()), (TABLE.len(), TABLE.len()));
        for &(tag, name, level, scope, _) in TABLE {
            let msg = msgs.iter().find(|m| m.encode()[1] == tag);
            let msg = msg.unwrap_or_else(|| panic!("no {name} in all_messages"));
            assert_eq!((msg.name(), msg.level(), msg.scope()), (name, level, scope));
        }
    }

    /// DESIGN A.3 as the table declares it: the messages, then the records.
    fn render_design() -> String {
        let fields = |fields: &[(&str, &str)]| match fields {
            [] => "empty".to_string(),
            _ => fields
                .iter()
                .map(|(name, ty)| format!("`{name}: {ty}`"))
                .collect::<Vec<_>>()
                .join(", "),
        };
        let mut out = String::from(
            "| Tag | Message | Level | Direction | Body, in wire order |\n|---|---|---|---|---|\n",
        );
        for &(tag, name, level, scope, body) in TABLE {
            let direction = match scope {
                Scope::Connection => "client → server",
                Scope::Session => "client → server, after `Hello`",
                Scope::Reply => "server → client",
            };
            out += &format!(
                "| 0x{tag:02X} | `{name}` | {level} | {direction} | {} |\n",
                fields(body)
            );
        }
        out += "\n| Record | Fields, in wire order |\n|---|---|\n";
        for (name, layout) in [
            ("CompInfo", CompInfo::LAYOUT),
            ("StatsSnapshot", StatsSnapshot::LAYOUT),
        ] {
            out += &format!("| `{name}` | {} |\n", fields(layout));
        }
        out
    }

    /// DESIGN.md documents exactly the table the codec is generated from.
    #[test]
    fn design_a3_is_the_rendered_table() {
        let design = include_str!("../../../DESIGN.md");
        let a3 = &design[design.find("### A.3").unwrap()..design.find("### A.4").unwrap()];
        let table = render_design();
        assert!(
            a3.contains(&table),
            "DESIGN.md A.3 must contain the message table exactly as rendered:\n\n{table}"
        );
    }

    /// Decode a valid payload, returning where it read counts and flags.
    fn marks(payload: &[u8]) -> Vec<(usize, Mark)> {
        let mut c = Cur::new(payload);
        Msg::get(&mut c).unwrap();
        c.marks
    }

    /// A decoded payload is canonical: it is exactly what its message
    /// encodes to, so no two payloads decode to the same message.
    fn assert_canonical(payload: &[u8]) {
        if let Ok(msg) = Msg::decode(payload) {
            assert_eq!(
                msg.encode(),
                payload,
                "{} decoded from a non-canonical body",
                msg.name()
            );
        }
    }

    /// Structure-aware mutation of every message in the table, one property
    /// at a time: truncation, inflated counts, and every value of every
    /// discriminant byte. Decoding never panics (a panic fails the test)
    /// and every refusal is a typed [`WireError`].
    #[test]
    fn mutated_messages_are_refused_with_typed_errors() {
        let mut seen = Vec::new();
        for msg in all_messages() {
            let enc = msg.encode();
            let name = msg.name();
            for cut in 0..enc.len() {
                assert!(
                    matches!(Msg::decode(&enc[..cut]), Err(WireError::Malformed(_))),
                    "{name} cut to {cut} bytes"
                );
            }
            for (pos, mark) in marks(&enc) {
                seen.push(mark);
                let mut bad = enc.clone();
                match mark {
                    // Refused by the count check itself, before any
                    // allocation sized by the count: any count the rest of
                    // the body cannot hold, and no count it can.
                    Mark::Count(min) => {
                        let fits = (enc.len() - pos - 4) / min;
                        for (n, refused) in
                            [(u32::MAX as usize, true), (fits + 1, true), (fits, false)]
                        {
                            bad[pos..pos + 4].copy_from_slice(&(n as u32).to_le_bytes());
                            let got = Msg::decode(&bad);
                            let over = got == Err(WireError::Malformed("count exceeds body"));
                            assert_eq!(over, refused, "{name}: count {n} at byte {pos}: {got:?}");
                        }
                    }
                    Mark::Flag(limit) => {
                        for v in 0..=u8::MAX {
                            bad[pos] = v;
                            if v >= limit {
                                assert!(
                                    matches!(Msg::decode(&bad), Err(WireError::Malformed(_))),
                                    "{name}: flag {v} at byte {pos}"
                                );
                            }
                            assert_canonical(&bad);
                        }
                    }
                }
            }
        }
        // Every kind of structural byte was exercised: counts, bools and
        // options, verdicts, event kinds.
        assert!(seen.iter().any(|m| matches!(m, Mark::Count(_))));
        for mark in [Mark::Flag(2), Mark::Flag(3), Mark::Flag(4)] {
            assert!(seen.contains(&mark), "no {mark:?} in any message");
        }
    }

    /// Random bodies after every valid tag, and random bit flips of every
    /// valid payload: whatever decodes is canonical, nothing panics.
    #[test]
    fn random_bodies_decode_or_are_refused() {
        use cts_util::check::run_cases;
        use cts_util::prng::Rng;
        let valid: Vec<Vec<u8>> = all_messages().iter().map(Msg::encode).collect();
        run_cases("random bodies", 2_000, 0x3172E, |rng| {
            let tag = TABLE[rng.gen_range(0..TABLE.len())].0;
            let mut payload = vec![VERSION, tag];
            payload.resize(2 + rng.gen_range(0..48usize), 0);
            rng.fill_bytes(&mut payload[2..]);
            assert_canonical(&payload);

            let mut flipped = valid[rng.gen_range(0..valid.len())].clone();
            let bit = rng.gen_range(0..flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_canonical(&flipped);
        });
    }

    #[test]
    fn over_long_strings_are_cut_at_a_char_boundary() {
        // 21 845 three-byte chars fill 65 535 bytes exactly; one more
        // ASCII byte would not fit, nor would the first byte of another é.
        for tail in ["", "x", "é"] {
            let message = "€".repeat(21_845) + tail;
            let msg = Msg::Error { code: 1, message };
            match Msg::decode(&msg.encode()) {
                Ok(Msg::Error { message, .. }) => assert_eq!(message, "€".repeat(21_845)),
                other => panic!("{other:?}"),
            }
        }
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
