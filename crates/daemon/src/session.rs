//! The per-connection session: one step function from a received frame to
//! what the connection does next.
//!
//! The daemon speaks one protocol to every peer, so the protocol is written
//! once, here. The transport (the [`crate::event_loop`] pollers) owns the
//! socket and the waiting; it hands each complete frame payload to
//! [`Session::on_frame`] and acts on the [`Step`] that comes back. Nothing
//! outside this module matches on client verbs.
//!
//! What a verb needs before it is served — its protocol level, and whether
//! it needs a bound session — is declared in its row of the wire table
//! ([`Msg::level`], [`Msg::scope`]); this module holds only the handlers.
//! Adding a message is one table row in [`crate::wire`] plus its handler
//! here.
//!
//! ## Gating order
//!
//! Every frame passes the same checks in the same order, and the first one
//! that fails decides the reply (DESIGN.md A.4 is the normative copy):
//!
//! 1. **decode** — an unknown frame version answers `BAD_VERSION` and hangs
//!    up; an unknown message type answers `UNSUPPORTED` and keeps the
//!    connection; any other decode failure answers `MALFORMED`;
//! 2. **recovering** — until startup recovery has replayed on-disk state,
//!    everything but `Shutdown`/`Goodbye` answers `RECOVERING`;
//! 3. **read-only** — a follower refuses `Events` and `Flush` with
//!    `READ_ONLY`;
//! 4. **protocol level** — a server-side message answers `MALFORMED`; a
//!    verb above the connection's negotiated level ([`Msg::level`]) answers
//!    `UNSUPPORTED`;
//! 5. **session** — a session-scoped verb ([`Scope::Session`]) before
//!    `Hello` answers `NO_SESSION`;
//! 6. **arguments** — process ids, batch sizes and `Hello` parameters are
//!    range-checked before anything is allocated or enqueued.

use crate::metrics::Metrics;
use crate::pipeline::{lock, Computation, FlushError, Snapshot};
use crate::query_pool::QueryPool;
use crate::reorder::{unknown_process, MAX_PARKED};
use crate::replication::{self, Grant};
use crate::server::DaemonShared;
use crate::wire::{self, code, CompInfo, Msg, Scope, WireError};
use cts_model::{Event, EventId, EventIndex, ProcessId};
use cts_store::queries::{greatest_concurrent, PrecedenceBackend};
use cts_store::{CachedClusterBackend, SharedQueryCache};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Server-side ceiling on ids per `WindowResult`, whatever the client's
/// `limit` asks for (bounds reply frames and per-request work).
const WINDOW_PAGE_CAP: u32 = 2048;

/// Server-side ceiling on events per `ReplayChunk` (an encoded event is at
/// most 17 bytes, so a full chunk stays well inside [`wire::MAX_FRAME`]).
const REPLAY_CHUNK_CAP: u32 = 4096;

/// What a transport does after a frame. The session has already made every
/// protocol decision; what is left is how to wait.
pub(crate) enum Step {
    /// Send this and keep reading.
    Reply(Msg),
    /// Send this, then close the connection.
    ReplyThenClose(Msg),
    /// Close the connection (after draining replies already queued).
    Close,
    /// Enqueue a validated batch on [`Session::computation`]'s ingest queue,
    /// which may be full. Silent on success; [`computation_closed`] if the
    /// computation is gone. Then send the refusal, if any, of the frame's
    /// events the reorder cap did not admit.
    Ingest(Vec<Event>, Option<Msg>),
    /// Run the flush barrier on [`Session::computation`] (it waits for the
    /// pipeline) and send [`flush_reply`] of its outcome.
    Flush { expected_total: u64 },
    /// Send [`Grant::ack`], then turn the connection into a replication
    /// push stream ([`replication::serve_subscription`]).
    Subscribe(Grant),
}

/// One connection's protocol state.
pub(crate) struct Session {
    comp: Option<Arc<Computation>>,
    /// Message-set level negotiated by `ProtoHello` (1 before any).
    protocol: u16,
}

impl Session {
    pub(crate) fn new() -> Session {
        Session {
            comp: None,
            protocol: 1,
        }
    }

    /// The computation an [`Step::Ingest`] or [`Step::Flush`] applies to.
    pub(crate) fn computation(&self) -> &Arc<Computation> {
        self.comp
            .as_ref()
            .expect("Ingest and Flush steps only come from a bound session")
    }

    /// One received frame payload through the gating order in the module
    /// docs.
    pub(crate) fn on_frame(&mut self, shared: &DaemonShared, payload: &[u8]) -> Step {
        let msg = match Msg::decode(payload) {
            Ok(m) => m,
            Err(e) => {
                let message = e.to_string();
                return match e {
                    // No common language; hang up.
                    WireError::BadVersion(_) => Step::ReplyThenClose(Msg::Error {
                        code: code::BAD_VERSION,
                        message,
                    }),
                    // A verb from a newer message set is not a framing
                    // error: the peer can downgrade on the same connection.
                    WireError::BadTag(_) => Step::Reply(Msg::Error {
                        code: code::UNSUPPORTED,
                        message,
                    }),
                    _ => Step::Reply(Msg::Error {
                        code: code::MALFORMED,
                        message,
                    }),
                };
            }
        };
        // Until recovery has replayed on-disk state, sessions would observe
        // a daemon that silently forgot events — refuse instead (clients
        // retry).
        if shared.recovering.load(Ordering::Acquire) && !matches!(msg, Msg::Shutdown | Msg::Goodbye)
        {
            return Step::Reply(Msg::Error {
                code: code::RECOVERING,
                message: "daemon is recovering; retry shortly".into(),
            });
        }
        if shared.config.follow.is_some() && matches!(msg, Msg::Events(_) | Msg::Flush { .. }) {
            return Step::Reply(Msg::Error {
                code: code::READ_ONLY,
                message: "this daemon is a read-only follower; write to the leader".into(),
            });
        }
        let level = msg.level();
        match msg.scope() {
            Scope::Reply => {
                return Step::Reply(malformed("server-side message sent by client".into()))
            }
            _ if self.protocol < level => {
                return Step::Reply(Msg::Error {
                    code: code::UNSUPPORTED,
                    message: format!(
                        "{} requires ProtoHello negotiation to protocol level >= {level}",
                        msg.name()
                    ),
                });
            }
            Scope::Session => {
                return match &self.comp {
                    Some(comp) => in_session(comp, &shared.query_pool, msg),
                    None => Step::Reply(Msg::Error {
                        code: code::NO_SESSION,
                        message: "no session: send Hello first".into(),
                    }),
                };
            }
            Scope::Connection => {}
        }
        match msg {
            Msg::Hello {
                computation,
                num_processes,
                max_cluster_size,
            } => match hello(shared, computation, num_processes, max_cluster_size) {
                Ok((comp, existing)) => {
                    self.comp = Some(comp);
                    let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
                    Step::Reply(Msg::HelloAck { session, existing })
                }
                Err(message) => Step::Reply(Msg::Error {
                    code: code::BAD_HELLO,
                    message,
                }),
            },
            Msg::ProtoHello {
                protocol_max,
                wal_max,
            } => {
                let protocol = protocol_max.min(wire::PROTOCOL);
                // Level 1 is the pre-handshake set; no negotiation takes it
                // away.
                self.protocol = protocol.max(1);
                Step::Reply(Msg::ProtoHelloAck {
                    protocol,
                    wal: wal_max.min(wire::WAL_FORMAT),
                })
            }
            Msg::ListComputations => Step::Reply(Msg::ComputationList {
                comps: list_computations(shared),
            }),
            Msg::Subscribe {
                computation,
                from_offset,
                prev_lease,
            } => {
                match replication::check_subscribe(shared, &computation, from_offset, prev_lease) {
                    Ok(grant) => Step::Subscribe(grant),
                    Err(refusal) => Step::Reply(*refusal),
                }
            }
            Msg::Shutdown => {
                shared.request_shutdown();
                Step::ReplyThenClose(Msg::ShutdownAck)
            }
            Msg::Goodbye => Step::Close,
            other => unreachable!("{} is not a connection verb", other.name()),
        }
    }
}

fn malformed(message: String) -> Msg {
    Msg::Error {
        code: code::MALFORMED,
        message,
    }
}

/// The reply when a computation's ingest side is gone (its worker exited on
/// shutdown): for a refused [`Step::Ingest`] and a closed flush barrier.
pub(crate) fn computation_closed() -> Msg {
    Msg::Error {
        code: code::SHUTTING_DOWN,
        message: "computation is shut down".into(),
    }
}

/// The reply to a `Flush` whose barrier ended with `outcome`, whichever
/// thread waited on it.
pub(crate) fn flush_reply(expected_total: u64, outcome: Result<(u64, u64), FlushError>) -> Msg {
    match outcome {
        Ok((epoch, delivered)) => Msg::FlushAck { epoch, delivered },
        Err(FlushError::Timeout { delivered }) => Msg::Error {
            code: code::FLUSH_TIMEOUT,
            message: format!("flush target {expected_total} not reached (delivered {delivered})"),
        },
        Err(FlushError::Closed) => computation_closed(),
    }
}

/// Validate `Hello` parameters, then open (or join) the computation. Also
/// the follower's way in: a leader's `ComputationList` row is outside input
/// just as a client's `Hello` is.
pub(crate) fn hello(
    shared: &DaemonShared,
    name: String,
    num_processes: u32,
    max_cluster_size: u32,
) -> Result<(Arc<Computation>, bool), String> {
    if num_processes == 0 {
        return Err("num_processes must be positive".into());
    }
    // Per-process state is allocated up front; an absurd count must be
    // refused before that, not discovered by the allocator.
    if num_processes > wire::MAX_PROCESSES {
        return Err(format!(
            "num_processes {num_processes} exceeds the limit of {}",
            wire::MAX_PROCESSES
        ));
    }
    if max_cluster_size == 0 {
        return Err("max_cluster_size must be positive".into());
    }
    // The name becomes a thread name, which cannot hold a NUL.
    if name.contains('\0') {
        return Err("computation name must not contain NUL".into());
    }
    shared.open_computation(name, num_processes, max_cluster_size)
}

/// The identity rows for [`Msg::ListComputations`], sorted by name so
/// discovery sees a deterministic listing.
fn list_computations(shared: &DaemonShared) -> Vec<CompInfo> {
    let mut comps: Vec<CompInfo> = lock(&shared.computations)
        .iter()
        .map(|(name, c)| CompInfo {
            name: name.clone(),
            num_processes: c.num_processes,
            max_cluster_size: c.max_cluster_size,
            delivered: c.delivered(),
        })
        .collect();
    comps.sort_by(|a, b| a.name.cmp(&b.name));
    comps
}

/// A session-scoped verb on a bound session.
fn in_session(comp: &Computation, pool: &QueryPool, msg: Msg) -> Step {
    match msg {
        Msg::Events(events) => {
            // Validate process ids — the event's own and its edge's far
            // end — here, where we can still answer; the ingest path is
            // fire-and-forget.
            let unknown = |e: &Event| unknown_process(e, comp.num_processes).map(|p| (e.id, p));
            if let Some((id, p)) = events.iter().find_map(unknown) {
                return Step::Reply(malformed(format!(
                    "event {id} names process {} outside 0..{}",
                    p.0, comp.num_processes
                )));
            }
            // Both runtimes publish the parked count after every batch. Over
            // the cap, only events that cannot park behind a gap are taken:
            // each is a duplicate or its process's next-in-line, so the
            // parked set grows by at most one head per process, and the
            // event that fills the gap is never shut out. The rest is
            // refused; events are idempotent, so the client resends.
            let parked = comp.metrics().reorder_depth.load(Ordering::Relaxed);
            if parked < MAX_PARKED as u64 {
                return Step::Ingest(events, None);
            }
            let (fills, rest): (Vec<Event>, Vec<Event>) = events
                .into_iter()
                .partition(|e| e.index().0 <= comp.next_index(e.process()));
            if rest.is_empty() {
                return Step::Ingest(fills, None);
            }
            let refusal = Msg::Error {
                code: code::OVERLOADED,
                message: format!(
                    "{} events refused, {parked} parked awaiting their causal predecessors; resend",
                    rest.len()
                ),
            };
            if fills.is_empty() {
                Step::Reply(refusal)
            } else {
                Step::Ingest(fills, Some(refusal))
            }
        }
        Msg::Flush { expected_total } => Step::Flush { expected_total },
        Msg::QueryClusterMap => Step::Reply(cluster_map(comp)),
        Msg::QueryPlacement => Step::Reply(placement_result(comp)),
        Msg::Stats => {
            let retainer = comp.retainer();
            Step::Reply(Msg::StatsResult(comp.metrics().snapshot(
                comp.query_cache().stats(),
                retainer.retained(),
                retainer.retired(),
            )))
        }
        query => Step::Reply(serve_query(comp, pool, &query)),
    }
}

/// Answer [`Msg::QueryPlacement`] from the computation's placement state
/// (plus the head snapshot's epoch/delivered pair for correlation).
fn placement_result(comp: &Computation) -> Msg {
    let snap = comp.snapshot();
    let info = comp.placement();
    Msg::PlacementResult {
        epoch: snap.epoch,
        delivered: snap.delivered,
        shards: info.shards,
        pinned: info.pinned,
        rescales: info.rescales,
        steals: info.steals,
        occupancy_q16: info.occupancy_q16,
        routing: info.routing,
    }
}

/// Answer [`Msg::QueryClusterMap`] from the computation's head snapshot:
/// the partition is reported as one representative (smallest member id) per
/// process, so equality of entries == co-clustering regardless of the order
/// clusters happen to be enumerated in.
fn cluster_map(comp: &Computation) -> Msg {
    let snap = comp.snapshot();
    let partition = snap.cts.final_partition();
    let mut reps = vec![0u32; comp.num_processes as usize];
    for cluster in partition.clusters() {
        let rep = cluster.iter().map(|p| p.0).min().unwrap_or(0);
        for &m in cluster {
            reps[m.idx()] = rep;
        }
    }
    let m = comp.metrics();
    Msg::ClusterMapResult {
        epoch: snap.epoch,
        delivered: snap.delivered,
        cluster_receives: snap.cts.num_cluster_receives() as u64,
        merges: snap.cts.num_merges() as u64,
        migrations: m.drift_migrations.load(Ordering::Relaxed),
        forced_full: m.drift_forced_full.load(Ordering::Relaxed),
        partition: reps,
    }
}

/// Answer a query with latency/served metrics recorded, so the stats a
/// client reads do not depend on which transport served it.
fn serve_query(comp: &Computation, pool: &QueryPool, msg: &Msg) -> Msg {
    let t0 = std::time::Instant::now();
    let (reply, served) = answer_query(comp, pool, msg);
    record_query(comp.metrics(), msg, t0.elapsed().as_nanos() as u64, served);
    reply
}

/// Account for one query message that took `ns` to answer `items` questions
/// (what [`answer_query`] returns: a batch counts per item, a refused batch
/// once). The latency histograms hold the cost of *one* answer — a verdict,
/// a slot vector, a window page — whichever verb carried it, so a batch
/// contributes one sample of `ns / items` (DESIGN A.3).
fn record_query(m: &Metrics, msg: &Msg, ns: u64, items: u64) {
    let per_item = ns / items.max(1);
    m.query_ns.record(per_item);
    match msg {
        Msg::QueryPrecedes { .. }
        | Msg::QueryAsOfPrecedes { .. }
        | Msg::QueryPrecedesBatch { .. } => m.precedes_ns.record(per_item),
        Msg::QueryGreatestConcurrent { .. }
        | Msg::QueryAsOfGc { .. }
        | Msg::QueryGcBatch { .. } => m.gc_ns.record(per_item),
        Msg::QueryWindow { .. } | Msg::QueryAsOfWindow { .. } => m.window_ns.record(per_item),
        _ => {}
    }
    if matches!(
        msg,
        Msg::QueryPrecedesBatch { .. } | Msg::QueryGcBatch { .. }
    ) {
        m.batch_queries.fetch_add(1, Ordering::Relaxed);
    }
    m.queries_served.fetch_add(items, Ordering::Relaxed);
}

/// The read backend over one snapshot: the §2.3 precedence test on its
/// cluster timestamps, greatest-concurrent through the computation's memo
/// (keyed by the snapshot's delivered-prefix length, so head and retained
/// epochs never collide).
fn reader<'a>(snap: &'a Snapshot, cache: &'a SharedQueryCache) -> CachedClusterBackend<'a> {
    CachedClusterBackend {
        cts: &snap.cts,
        cache,
    }
}

/// The snapshot a query reads: the published head, or the retained epoch an
/// as-of verb names (refused with `EPOCH_RETIRED` once retention let it go).
fn resolve(comp: &Computation, at: Option<u64>) -> Result<Arc<Snapshot>, Box<Msg>> {
    match at {
        None => Ok(comp.snapshot()),
        Some(epoch) => comp
            .retainer()
            .get(epoch)
            .ok_or_else(|| Box::new(epoch_retired(comp, epoch))),
    }
}

/// An as-of verb was answered from a retained epoch.
fn count_asof(comp: &Computation, at: Option<u64>) {
    if at.is_some() {
        comp.metrics().asof_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// `QueryPrecedes` / `QueryAsOfPrecedes`.
fn precedes(comp: &Computation, at: Option<u64>, e: EventId, f: EventId) -> Msg {
    let snap = match resolve(comp, at) {
        Ok(s) => s,
        Err(refusal) => return *refusal,
    };
    for id in [e, f] {
        if !snap.trace.contains(id) {
            return unknown_event(id, snap.epoch);
        }
    }
    count_asof(comp, at);
    Msg::PrecedesResult {
        epoch: snap.epoch,
        precedes: reader(&snap, comp.query_cache()).precedes(&snap.trace, e, f),
    }
}

/// `QueryGreatestConcurrent` / `QueryAsOfGc`.
fn gc(comp: &Computation, at: Option<u64>, e: EventId) -> Msg {
    let snap = match resolve(comp, at) {
        Ok(s) => s,
        Err(refusal) => return *refusal,
    };
    if !snap.trace.contains(e) {
        return unknown_event(e, snap.epoch);
    }
    count_asof(comp, at);
    Msg::GcResult {
        epoch: snap.epoch,
        slots: greatest_concurrent(&mut reader(&snap, comp.query_cache()), &snap.trace, e),
    }
}

/// `limit` as the client sent it (`0` = server default), under the server's
/// `cap`.
fn page_cap(limit: u32, cap: u32) -> u32 {
    match limit {
        0 => cap,
        n => n.min(cap),
    }
}

/// `QueryWindow` / `QueryAsOfWindow`: one page of process `process`'s ids in
/// `[from, to)` and the continuation cursor, read from the snapshot — the
/// head window is the as-of window at the head epoch, so it never names an
/// event a precedence query on the same epoch would refuse. A process row is
/// a contiguous 1-based prefix (causal delivery), so a page that came back
/// short has exhausted what is there — no cursor, the same completion
/// semantics as an unpaginated scan.
fn window(
    comp: &Computation,
    at: Option<u64>,
    process: u32,
    from: u32,
    to: u32,
    limit: u32,
) -> Msg {
    let snap = match resolve(comp, at) {
        Ok(s) => s,
        Err(refusal) => return *refusal,
    };
    if process >= comp.num_processes {
        return malformed(format!(
            "process {process} outside 0..{}",
            comp.num_processes
        ));
    }
    let p = ProcessId(process);
    let from = from.max(1);
    let page_to = to.min(from.saturating_add(page_cap(limit, WINDOW_PAGE_CAP)));
    let row_end = snap.trace.process_len(p) as u32 + 1;
    let ids: Vec<EventId> = (from..page_to.min(row_end))
        .map(|i| EventId::new(p, EventIndex(i)))
        .collect();
    let next = if page_to < to && ids.len() as u32 == page_to - from {
        page_to
    } else {
        0
    };
    count_asof(comp, at);
    Msg::WindowResult { ids, next }
}

/// Answer a query against the head snapshot or a retained epoch. Returns the
/// reply and how many individual queries it answered (batch messages count
/// per item).
fn answer_query(comp: &Computation, pool: &QueryPool, msg: &Msg) -> (Msg, u64) {
    match msg {
        &Msg::QueryPrecedes { e, f } => (precedes(comp, None, e, f), 1),
        &Msg::QueryAsOfPrecedes { epoch, e, f } => (precedes(comp, Some(epoch), e, f), 1),
        &Msg::QueryGreatestConcurrent { e } => (gc(comp, None, e), 1),
        &Msg::QueryAsOfGc { epoch, e } => (gc(comp, Some(epoch), e), 1),
        &Msg::QueryWindow {
            process,
            from,
            to,
            limit,
        } => (window(comp, None, process, from, to, limit), 1),
        &Msg::QueryAsOfWindow {
            epoch,
            process,
            from,
            to,
            limit,
        } => (window(comp, Some(epoch), process, from, to, limit), 1),
        Msg::QueryPrecedesBatch { pairs } => {
            let snap = comp.snapshot();
            let epoch = snap.epoch;
            let cache = Arc::clone(comp.query_cache());
            let verdicts = pool.map(pairs.clone(), move |(e, f)| {
                if !snap.trace.contains(e) || !snap.trace.contains(f) {
                    return None;
                }
                Some(reader(&snap, &cache).precedes(&snap.trace, e, f))
            });
            (
                Msg::PrecedesBatchResult { epoch, verdicts },
                pairs.len() as u64,
            )
        }
        Msg::QueryGcBatch { events } => {
            // Every answer is one slot per process, so the reply grows with
            // items x processes; refuse what could not be framed.
            let limit = wire::gc_batch_limit(comp.num_processes);
            if events.len() > limit {
                let err = malformed(format!(
                    "QueryGcBatch of {} events exceeds the limit of {limit} for a \
                     {}-process computation (the reply would not fit one frame)",
                    events.len(),
                    comp.num_processes
                ));
                return (err, 1);
            }
            let snap = comp.snapshot();
            let epoch = snap.epoch;
            let cache = Arc::clone(comp.query_cache());
            let results = pool.map(events.clone(), move |e| {
                if !snap.trace.contains(e) {
                    return None;
                }
                Some(greatest_concurrent(
                    &mut reader(&snap, &cache),
                    &snap.trace,
                    e,
                ))
            });
            (Msg::GcBatchResult { epoch, results }, events.len() as u64)
        }
        Msg::ListEpochs => {
            let epochs = comp
                .retainer()
                .list()
                .into_iter()
                .map(|i| (i.epoch, i.delivered))
                .collect();
            (Msg::EpochList { epochs }, 1)
        }
        &Msg::ReplayInterval {
            from_epoch,
            to_epoch,
            cursor,
            limit,
        } => (replay_chunk(comp, from_epoch, to_epoch, cursor, limit), 1),
        _ => unreachable!("answer_query only receives queries"),
    }
}

/// One chunk of `ReplayInterval`: the events delivered after `from_epoch`
/// (`0` = the beginning of history) up to `to_epoch`, resumed at `cursor`.
fn replay_chunk(
    comp: &Computation,
    from_epoch: u64,
    to_epoch: u64,
    cursor: u64,
    limit: u32,
) -> Msg {
    // Hold the destination epoch so retention GC cannot retire it under
    // this request (chunk resumption across requests re-resolves and may
    // legitimately get EPOCH_RETIRED).
    let to_snap = match resolve(comp, Some(to_epoch)) {
        Ok(s) => s,
        Err(refusal) => return *refusal,
    };
    let d_from = if from_epoch == 0 {
        0
    } else {
        match comp
            .retainer()
            .list()
            .iter()
            .find(|i| i.epoch == from_epoch)
        {
            Some(i) => i.delivered,
            None => return epoch_retired(comp, from_epoch),
        }
    };
    let d_to = to_snap.delivered;
    if d_from > d_to {
        return malformed(format!(
            "from_epoch {from_epoch} is newer than to_epoch {to_epoch}"
        ));
    }
    // `cursor` is the 1-based delivery offset to resume from (0 on the
    // first request); the snapshot's trace is the delivered prefix in
    // delivery order, so offsets index it directly.
    let start0 = if cursor == 0 {
        d_from
    } else {
        (cursor - 1).max(d_from)
    };
    let end0 = d_to.min(start0.saturating_add(page_cap(limit, REPLAY_CHUNK_CAP) as u64));
    let events = if start0 >= end0 {
        Vec::new()
    } else {
        to_snap.trace.events()[start0 as usize..end0 as usize].to_vec()
    };
    Msg::ReplayChunk {
        first_offset: start0 + 1,
        events,
        next: if end0 < d_to { end0 + 1 } else { 0 },
    }
}

fn unknown_event(id: EventId, epoch: u64) -> Msg {
    Msg::Error {
        code: code::UNKNOWN_EVENT,
        message: format!("{id} is not covered by snapshot epoch {epoch}"),
    }
}

/// The time-travel refusal: the named epoch is outside the retained ring.
fn epoch_retired(comp: &Computation, epoch: u64) -> Msg {
    let list = comp.retainer().list();
    let range = match (list.first(), list.last()) {
        (Some(a), Some(b)) => format!("{}..={}", a.epoch, b.epoch),
        _ => "none".into(),
    };
    Msg::Error {
        code: code::EPOCH_RETIRED,
        message: format!("epoch {epoch} is not retained (retained epochs: {range})"),
    }
}

#[cfg(test)]
mod tests {
    //! The verb x connection-state x protocol-level matrix, driven straight
    //! through [`Session::on_frame`] — no socket, no transport. The test
    //! plays the transport where a step needs one (it enqueues and flushes
    //! by hand).

    use super::*;
    use crate::server::DaemonConfig;
    use cts_model::EventKind;
    use std::time::Duration;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum State {
        NoSession,
        Bound,
        Follower,
        Recovering,
    }

    /// What gates a row, besides decoding.
    #[derive(Clone, Copy)]
    struct Gates {
        /// Answered even while recovering.
        always: bool,
        /// A write verb (refused by a follower).
        write: bool,
        level: u16,
        /// Needs a `Hello` first.
        session: bool,
    }

    const BASE: Gates = Gates {
        always: false,
        write: false,
        level: 1,
        session: false,
    };
    const IN_SESSION: Gates = Gates {
        session: true,
        ..BASE
    };

    struct Row {
        name: &'static str,
        payload: Vec<u8>,
        /// `None`: the frame does not decode, so no gate ever sees it.
        gates: Option<Gates>,
        /// The step class once every gate has passed.
        ok: &'static str,
        /// Sent while "m" holds [`MAX_PARKED`] parked events.
        overloaded: bool,
    }

    fn row(name: &'static str, msg: Msg, gates: Gates, ok: &'static str) -> Row {
        Row {
            name,
            payload: msg.encode(),
            gates: Some(gates),
            ok,
            overloaded: false,
        }
    }

    fn ev(p: u32, i: u32) -> EventId {
        EventId::new(ProcessId(p), EventIndex(i))
    }

    fn trace() -> Vec<Event> {
        vec![
            Event::new(ev(0, 1), EventKind::Send { to: ProcessId(1) }),
            Event::new(ev(1, 1), EventKind::Receive { from: ev(0, 1) }),
            Event::new(ev(0, 2), EventKind::Internal),
        ]
    }

    /// Every client verb (and every way a frame can fail to be one), as sent
    /// on a connection at `level` against a head snapshot at `epoch`.
    fn rows(level: u16, epoch: u64) -> Vec<Row> {
        let write = Gates {
            write: true,
            ..IN_SESSION
        };
        let at = |level| Gates {
            level,
            ..IN_SESSION
        };
        let always = Gates {
            always: true,
            ..BASE
        };
        let hello = |num_processes| Msg::Hello {
            computation: "m".into(),
            num_processes,
            max_cluster_size: 2,
        };
        let (e, f) = (ev(0, 1), ev(1, 1));
        let window = (0u32, 1u32, 9u32, 0u32);
        let frame = |name, payload: &[u8], ok| Row {
            name,
            payload: payload.to_vec(),
            gates: None,
            ok,
            overloaded: false,
        };
        vec![
            row("Hello", hello(2), BASE, "Reply(HelloAck)"),
            row("Hello/mismatch", hello(3), BASE, "Reply(Error 2)"),
            row("Hello/zero", hello(0), BASE, "Reply(Error 2)"),
            row(
                "Hello/too-wide",
                hello(wire::MAX_PROCESSES + 1),
                BASE,
                "Reply(Error 2)",
            ),
            row(
                "Hello/nul-name",
                Msg::Hello {
                    computation: "a\0b".into(),
                    num_processes: 2,
                    max_cluster_size: 2,
                },
                BASE,
                "Reply(Error 2)",
            ),
            row(
                "Hello/long-mismatch",
                Msg::Hello {
                    computation: long_name(),
                    num_processes: 3,
                    max_cluster_size: 2,
                },
                BASE,
                "Reply(Error 2)",
            ),
            row("Events", Msg::Events(trace()), write, "Ingest"),
            row(
                "Events/bad-process",
                Msg::Events(vec![Event::new(ev(7, 1), EventKind::Internal)]),
                write,
                "Reply(Error 5)",
            ),
            row(
                "Events/bad-source",
                Msg::Events(vec![Event::new(
                    ev(1, 1),
                    EventKind::Receive { from: ev(7, 1) },
                )]),
                write,
                "Reply(Error 5)",
            ),
            // Over the reorder cap: "m" has delivered P0#1..2, so P0#3 is
            // next-in-line and P0#9 would park behind a gap.
            Row {
                overloaded: true,
                ..row(
                    "Events/overloaded",
                    Msg::Events(vec![
                        Event::new(ev(0, 3), EventKind::Internal),
                        Event::new(ev(0, 9), EventKind::Internal),
                    ]),
                    write,
                    "Ingest, Reply(Error 9)",
                )
            },
            row("Flush", Msg::Flush { expected_total: 3 }, write, "Flush"),
            row(
                "QueryPrecedes",
                Msg::QueryPrecedes { e, f },
                IN_SESSION,
                "Reply(PrecedesResult)",
            ),
            row(
                "QueryPrecedes/unknown",
                Msg::QueryPrecedes { e, f: ev(1, 9) },
                IN_SESSION,
                "Reply(Error 1)",
            ),
            row(
                "QueryGreatestConcurrent",
                Msg::QueryGreatestConcurrent { e },
                IN_SESSION,
                "Reply(GcResult)",
            ),
            row(
                "QueryWindow",
                Msg::QueryWindow {
                    process: window.0,
                    from: window.1,
                    to: window.2,
                    limit: window.3,
                },
                IN_SESSION,
                "Reply(WindowResult)",
            ),
            row(
                "QueryPrecedesBatch",
                Msg::QueryPrecedesBatch {
                    pairs: vec![(e, f), (f, e)],
                },
                IN_SESSION,
                "Reply(PrecedesBatchResult)",
            ),
            row(
                "QueryGcBatch",
                Msg::QueryGcBatch { events: vec![e, f] },
                IN_SESSION,
                "Reply(GcBatchResult)",
            ),
            row(
                "QueryGcBatch/over-frame",
                Msg::QueryGcBatch {
                    events: vec![e; wire::gc_batch_limit(2) + 1],
                },
                IN_SESSION,
                "Reply(Error 5)",
            ),
            row("Stats", Msg::Stats, IN_SESSION, "Reply(StatsResult)"),
            row(
                "Shutdown",
                Msg::Shutdown,
                always,
                "ReplyThenClose(ShutdownAck)",
            ),
            row("Goodbye", Msg::Goodbye, always, "Close"),
            row(
                "ProtoHello",
                Msg::ProtoHello {
                    protocol_max: level,
                    wal_max: wire::WAL_FORMAT,
                },
                BASE,
                "Reply(ProtoHelloAck)",
            ),
            row(
                "ListComputations",
                Msg::ListComputations,
                Gates { level: 2, ..BASE },
                "Reply(ComputationList)",
            ),
            // An in-memory daemon has nothing committed to stream; the grant
            // itself is `subscribe_is_gated_then_granted`.
            row(
                "Subscribe",
                Msg::Subscribe {
                    computation: "m".into(),
                    from_offset: 0,
                    prev_lease: 0,
                },
                Gates { level: 2, ..BASE },
                "Reply(Error 11)",
            ),
            row(
                "QueryAsOfPrecedes",
                Msg::QueryAsOfPrecedes { epoch, e, f },
                at(3),
                "Reply(PrecedesResult)",
            ),
            row(
                "QueryAsOfPrecedes/retired",
                Msg::QueryAsOfPrecedes {
                    epoch: epoch + 99,
                    e,
                    f,
                },
                at(3),
                "Reply(Error 13)",
            ),
            row(
                "QueryAsOfGc",
                Msg::QueryAsOfGc { epoch, e },
                at(3),
                "Reply(GcResult)",
            ),
            row(
                "QueryAsOfWindow",
                Msg::QueryAsOfWindow {
                    epoch,
                    process: window.0,
                    from: window.1,
                    to: window.2,
                    limit: window.3,
                },
                at(3),
                "Reply(WindowResult)",
            ),
            row("ListEpochs", Msg::ListEpochs, at(3), "Reply(EpochList)"),
            row(
                "ReplayInterval",
                Msg::ReplayInterval {
                    from_epoch: 0,
                    to_epoch: epoch,
                    cursor: 0,
                    limit: 0,
                },
                at(3),
                "Reply(ReplayChunk)",
            ),
            row(
                "QueryClusterMap",
                Msg::QueryClusterMap,
                at(4),
                "Reply(ClusterMapResult)",
            ),
            row(
                "QueryPlacement",
                Msg::QueryPlacement,
                at(5),
                "Reply(PlacementResult)",
            ),
            row(
                "server-side message",
                Msg::ShutdownAck,
                BASE,
                "Reply(Error 5)",
            ),
            frame("unknown tag", &[wire::VERSION, 0x70], "Reply(Error 11)"),
            frame("unknown version", &[9, 0x01], "ReplyThenClose(Error 7)"),
            frame("truncated body", &[wire::VERSION, 0x01], "Reply(Error 5)"),
            frame("empty payload", &[], "Reply(Error 5)"),
        ]
    }

    /// A computation name so long that a refusal quoting it overflows a
    /// string field's `u16` length.
    fn long_name() -> String {
        "n".repeat(65_500)
    }

    fn msg_class(m: &Msg) -> String {
        // Whatever the session answers must survive the wire.
        let m = &Msg::decode(&m.encode()).expect("the reply decodes");
        match m {
            Msg::Error { code, .. } => format!("Error {code}"),
            other => {
                let debug = format!("{other:?}");
                let end = debug
                    .find(|c: char| !c.is_alphanumeric())
                    .unwrap_or(debug.len());
                debug[..end].to_string()
            }
        }
    }

    fn class(step: &Step) -> String {
        match step {
            Step::Reply(m) => format!("Reply({})", msg_class(m)),
            Step::ReplyThenClose(m) => format!("ReplyThenClose({})", msg_class(m)),
            Step::Close => "Close".into(),
            Step::Ingest(_, None) => "Ingest".into(),
            Step::Ingest(_, Some(m)) => format!("Ingest, Reply({})", msg_class(m)),
            Step::Flush { .. } => "Flush".into(),
            Step::Subscribe(_) => "Subscribe".into(),
        }
    }

    /// The gating order, as the module docs state it.
    fn expected(row: &Row, state: State, level: u16) -> String {
        let Some(g) = row.gates else {
            return row.ok.into();
        };
        let refusal = if state == State::Recovering && !g.always {
            Some(code::RECOVERING)
        } else if state == State::Follower && g.write {
            Some(code::READ_ONLY)
        } else if level.max(1) < g.level {
            Some(code::UNSUPPORTED)
        } else if state == State::NoSession && g.session {
            Some(code::NO_SESSION)
        } else {
            None
        };
        match refusal {
            Some(code) => format!("Reply(Error {code})"),
            None => row.ok.into(),
        }
    }

    fn shared(config: DaemonConfig) -> DaemonShared {
        let config = DaemonConfig {
            query_workers: 1, // inline: no pool threads to join
            ..config
        };
        // Port 0 is never connectable, so `request_shutdown`'s accept-loop
        // nudge fails fast.
        DaemonShared::new(config, "127.0.0.1:0".parse().unwrap(), false)
    }

    fn shut_down(shared: &DaemonShared) {
        for (_, comp) in lock(&shared.computations).drain() {
            comp.shutdown();
        }
    }

    fn step(session: &mut Session, shared: &DaemonShared, msg: &Msg) -> Step {
        session.on_frame(shared, &msg.encode())
    }

    /// A fresh connection negotiated to `level` and, if asked, bound to the
    /// 2-process computation "m".
    fn connect(shared: &DaemonShared, level: u16, bind: bool) -> Session {
        let mut session = Session::new();
        let hello = Msg::ProtoHello {
            protocol_max: level,
            wal_max: wire::WAL_FORMAT,
        };
        assert_eq!(
            class(&step(&mut session, shared, &hello)),
            "Reply(ProtoHelloAck)"
        );
        if bind {
            let hello = Msg::Hello {
                computation: "m".into(),
                num_processes: 2,
                max_cluster_size: 2,
            };
            assert_eq!(
                class(&step(&mut session, shared, &hello)),
                "Reply(HelloAck)"
            );
        }
        session
    }

    /// Stream [`trace`] into "m" the way a transport would, and return the
    /// epoch that covers it.
    fn populate(shared: &DaemonShared) -> u64 {
        let session = connect(shared, 1, true);
        let comp = session.computation();
        comp.enqueue_events(trace()).expect("ingest open");
        let (epoch, delivered) = comp.flush(3, Duration::from_secs(30)).expect("flush");
        assert_eq!(delivered, 3);
        // What the `Hello/long-mismatch` row mismatches. A name this long
        // has no directory to live in, so only an in-memory daemon has it.
        if shared.config.data_dir.is_none() {
            hello(shared, long_name(), 2, 2).expect("open the long-named computation");
        }
        epoch
    }

    #[test]
    fn every_verb_in_every_state_at_every_level() {
        let mut cells = 0;
        for state in [
            State::NoSession,
            State::Bound,
            State::Follower,
            State::Recovering,
        ] {
            let shared = shared(DaemonConfig {
                follow: (state == State::Follower).then(|| "127.0.0.1:1".parse().unwrap()),
                ..DaemonConfig::default()
            });
            let epoch = populate(&shared);
            let m = Arc::clone(&lock(&shared.computations)["m"]);
            for level in 0..=wire::PROTOCOL {
                for row in rows(level, epoch) {
                    let mut session = connect(&shared, level, state != State::NoSession);
                    shared
                        .recovering
                        .store(state == State::Recovering, Ordering::Release);
                    let parked = &m.metrics().reorder_depth;
                    parked.store(row.overloaded as u64 * MAX_PARKED as u64, Ordering::Relaxed);
                    let got = class(&session.on_frame(&shared, &row.payload));
                    shared.recovering.store(false, Ordering::Release);
                    parked.store(0, Ordering::Relaxed);
                    assert_eq!(
                        got,
                        expected(&row, state, level),
                        "{} in {state:?} at level {level}",
                        row.name
                    );
                    cells += 1;
                }
            }
            shut_down(&shared);
        }
        assert_eq!(cells, 4 * 6 * rows(1, 0).len());
    }

    /// The table has a row for every client verb: a new one cannot be added
    /// to the wire without a decision here.
    #[test]
    fn the_table_covers_every_client_tag() {
        let tags: std::collections::BTreeSet<u8> = rows(1, 0)
            .iter()
            .filter(|r| r.gates.is_some() && r.name != "server-side message")
            .map(|r| r.payload[1])
            .collect();
        assert_eq!(tags, (0x01..=0x15).collect());
    }

    #[test]
    fn subscribe_is_gated_then_granted() {
        let dir = std::env::temp_dir().join(format!("cts-session-sub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let shared = shared(DaemonConfig {
            data_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        });
        populate(&shared);
        let subscribe = Msg::Subscribe {
            computation: "m".into(),
            from_offset: 0,
            prev_lease: 0,
        };
        match step(&mut connect(&shared, 1, false), &shared, &subscribe) {
            Step::Reply(Msg::Error { code, message }) => {
                assert_eq!(code, code::UNSUPPORTED);
                assert_eq!(
                    message,
                    "Subscribe requires ProtoHello negotiation to protocol level >= 2"
                );
            }
            other => panic!("level 1 Subscribe: {}", class(&other)),
        }
        match step(&mut connect(&shared, 2, false), &shared, &subscribe) {
            Step::Subscribe(grant) => {
                assert_eq!(grant.comp.name, "m");
                assert_eq!(replication::lease_epoch(grant.lease), shared.leader_epoch);
            }
            other => panic!("level 2 Subscribe: {}", class(&other)),
        }
        shut_down(&shared);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_outcomes_have_one_wording() {
        assert_eq!(
            flush_reply(9, Ok((4, 9))),
            Msg::FlushAck {
                epoch: 4,
                delivered: 9
            }
        );
        assert_eq!(
            flush_reply(9, Err(FlushError::Timeout { delivered: 7 })),
            Msg::Error {
                code: code::FLUSH_TIMEOUT,
                message: "flush target 9 not reached (delivered 7)".into()
            }
        );
        assert_eq!(
            flush_reply(9, Err(FlushError::Closed)),
            computation_closed()
        );
    }

    /// p50 of a histogram holding exactly the given samples.
    fn p50_of(samples: &[u64]) -> u64 {
        let h = cts_util::hist::AtomicHistogram::new();
        samples.iter().for_each(|&ns| h.record(ns));
        h.percentile(50.0)
    }

    #[test]
    fn a_batch_is_recorded_per_item_whichever_verb_carried_it() {
        let m = Metrics::new();
        let pairs = vec![(ev(0, 1), ev(1, 1)); 256];
        record_query(&m, &Msg::QueryPrecedesBatch { pairs }, 256_000, 256);
        // One verdict of that batch cost what a 1 000 ns single one does.
        assert_eq!(m.precedes_ns.count(), 1);
        assert_eq!(m.precedes_ns.percentile(50.0), p50_of(&[1_000]));
        assert_eq!(m.query_ns.percentile(50.0), p50_of(&[1_000]));
        record_query(
            &m,
            &Msg::QueryPrecedes {
                e: ev(0, 1),
                f: ev(1, 1),
            },
            1_000,
            1,
        );
        assert_eq!(m.precedes_ns.percentile(50.0), p50_of(&[1_000, 1_000]));
        assert_eq!(m.gc_ns.count(), 0);
        assert_eq!(m.batch_queries.load(Ordering::Relaxed), 1);
        assert_eq!(m.queries_served.load(Ordering::Relaxed), 257);

        // A refused batch answered one thing, the refusal: one sample of
        // the whole service time, one query served.
        let events = vec![ev(0, 1); 4096];
        record_query(&m, &Msg::QueryGcBatch { events }, 8_000, 1);
        assert_eq!(m.gc_ns.count(), 1);
        assert_eq!(m.gc_ns.percentile(50.0), p50_of(&[8_000]));
        assert_eq!(m.batch_queries.load(Ordering::Relaxed), 2);
        assert_eq!(m.queries_served.load(Ordering::Relaxed), 258);
        // An empty batch divides by one, not by zero.
        record_query(&m, &Msg::QueryGcBatch { events: vec![] }, 500, 0);
        assert_eq!(m.gc_ns.count(), 2);
        assert_eq!(m.window_ns.count(), 0);
        assert_eq!(m.query_ns.count(), 4);
    }
}
