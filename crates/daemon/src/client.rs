//! A blocking, typed client for the daemon's wire protocol — what a
//! visualization front end (or the load generator) links against.

use crate::wire::{self, read_msg, write_msg, Msg, StatsSnapshot};
use cts_model::{Event, EventId};
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// One connection to the daemon, carrying at most one session at a time
/// (re-`hello` rebinds the session to another computation).
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    /// Process count of the bound computation (0 before `hello`); sizes
    /// [`Client::gc_batch`]'s requests.
    num_processes: u32,
}

/// Typed form of [`Msg::ClusterMapResult`]: the head snapshot's partition
/// (one cluster representative per process) and drift counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterMap {
    pub epoch: u64,
    pub delivered: u64,
    pub cluster_receives: u64,
    pub merges: u64,
    pub migrations: u64,
    pub forced_full: u64,
    pub partition: Vec<u32>,
}

/// Typed form of [`Msg::PlacementResult`]: the computation's live shard
/// placement — active shard count, per-shard occupancy shares (Q16), the
/// rescale/steal counters, and the process → shard routing table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    pub epoch: u64,
    pub delivered: u64,
    pub shards: u64,
    pub pinned: bool,
    pub rescales: u64,
    pub steals: u64,
    pub occupancy_q16: Vec<u64>,
    pub routing: Vec<u32>,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: stream,
            writer,
            num_processes: 0,
        })
    }

    fn send(&mut self, msg: &Msg) -> io::Result<()> {
        write_msg(&mut self.writer, msg)?;
        self.writer.flush()
    }

    /// Send a request and read its (single) reply.
    fn call(&mut self, msg: &Msg) -> io::Result<Msg> {
        self.send(msg)?;
        read_msg(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }

    fn protocol_error(got: &Msg) -> io::Error {
        let text = match got {
            Msg::Error { code, message } => format!("daemon error {code}: {message}"),
            other => format!("unexpected reply: {other:?}"),
        };
        io::Error::new(io::ErrorKind::InvalidData, text)
    }

    /// Bind this connection to a computation. Returns `(session_id,
    /// existed_already)`.
    pub fn hello(
        &mut self,
        computation: &str,
        num_processes: u32,
        max_cluster_size: u32,
    ) -> io::Result<(u64, bool)> {
        match self.call(&Msg::Hello {
            computation: computation.to_string(),
            num_processes,
            max_cluster_size,
        })? {
            Msg::HelloAck { session, existing } => {
                self.num_processes = num_processes;
                Ok((session, existing))
            }
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Stream events, `batch` per frame, without waiting for any reply
    /// (ingest is fire-and-forget; use [`flush`](Self::flush) as the
    /// barrier).
    pub fn stream_events(&mut self, events: &[Event], batch: usize) -> io::Result<()> {
        for chunk in events.chunks(batch.max(1)) {
            write_msg(&mut self.writer, &Msg::Events(chunk.to_vec()))?;
        }
        self.writer.flush()
    }

    /// Barrier: wait until the daemon has delivered `expected_total` events
    /// of this computation and published a covering snapshot. Returns
    /// `(epoch, delivered)`.
    pub fn flush(&mut self, expected_total: u64) -> io::Result<(u64, u64)> {
        match self.call(&Msg::Flush { expected_total })? {
            Msg::FlushAck { epoch, delivered } => Ok((epoch, delivered)),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Does `e` happen before `f`?
    pub fn precedes(&mut self, e: EventId, f: EventId) -> io::Result<bool> {
        match self.call(&Msg::QueryPrecedes { e, f })? {
            Msg::PrecedesResult { precedes, .. } => Ok(precedes),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Greatest event of every process concurrent with `e`.
    pub fn greatest_concurrent(&mut self, e: EventId) -> io::Result<Vec<Option<EventId>>> {
        match self.call(&Msg::QueryGreatestConcurrent { e })? {
            Msg::GcResult { slots, .. } => Ok(slots),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Batched precedence: one verdict per pair in one round trip; `None`
    /// marks a pair with an event unknown at the answering epoch.
    pub fn precedes_batch(
        &mut self,
        pairs: &[(EventId, EventId)],
    ) -> io::Result<Vec<Option<bool>>> {
        match self.call(&Msg::QueryPrecedesBatch {
            pairs: pairs.to_vec(),
        })? {
            Msg::PrecedesBatchResult { verdicts, .. } => Ok(verdicts),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Batched greatest-concurrent: one slot vector per event; `None` marks
    /// an event unknown at the answering epoch. One round trip while the
    /// reply fits a frame ([`wire::gc_batch_limit`]), one per
    /// frame-sized slice of `events` beyond that.
    pub fn gc_batch(
        &mut self,
        events: &[EventId],
    ) -> io::Result<Vec<Option<Vec<Option<EventId>>>>> {
        let per_call = wire::gc_batch_limit(self.num_processes);
        let mut all = Vec::with_capacity(events.len());
        let mut rest = events;
        loop {
            let (chunk, tail) = rest.split_at(rest.len().min(per_call));
            match self.call(&Msg::QueryGcBatch {
                events: chunk.to_vec(),
            })? {
                Msg::GcBatchResult { results, .. } => all.extend(results),
                other => return Err(Self::protocol_error(&other)),
            }
            if tail.is_empty() {
                return Ok(all);
            }
            rest = tail;
        }
    }

    /// Event ids of process `p` with indices in `[from, to)`. Iterates the
    /// server's continuation cursor transparently, so callers see the whole
    /// range however the server paginates it.
    pub fn window(&mut self, process: u32, from: u32, to: u32) -> io::Result<Vec<EventId>> {
        self.window_paged(process, from, to, 0).map(|(ids, _)| ids)
    }

    /// As [`window`](Self::window) with an explicit per-reply page size
    /// (`0` = server default). Returns the ids and the number of pages the
    /// scan took.
    pub fn window_paged(
        &mut self,
        process: u32,
        from: u32,
        to: u32,
        page: u32,
    ) -> io::Result<(Vec<EventId>, u32)> {
        let mut all = Vec::new();
        let mut cursor = from;
        let mut pages = 0u32;
        loop {
            let (ids, next) = self.window_page(process, cursor, to, page)?;
            all.extend(ids);
            pages += 1;
            if next == 0 {
                return Ok((all, pages));
            }
            cursor = next;
        }
    }

    /// One page of a window scan: the ids plus the raw continuation cursor
    /// (`0` = range complete). For callers that interleave paging with
    /// other work — [`window_paged`](Self::window_paged) drives the loop.
    pub fn window_page(
        &mut self,
        process: u32,
        from: u32,
        to: u32,
        limit: u32,
    ) -> io::Result<(Vec<EventId>, u32)> {
        match self.call(&Msg::QueryWindow {
            process,
            from,
            to,
            limit,
        })? {
            Msg::WindowResult { ids, next } => Ok((ids, next)),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Does `e` happen before `f`, as of retained epoch `epoch`? Requires a
    /// prior [`Client::proto_hello`] at level >= 3; a retired epoch fails
    /// with a `code::EPOCH_RETIRED` daemon error.
    pub fn asof_precedes(&mut self, epoch: u64, e: EventId, f: EventId) -> io::Result<bool> {
        match self.call(&Msg::QueryAsOfPrecedes { epoch, e, f })? {
            Msg::PrecedesResult { precedes, .. } => Ok(precedes),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Greatest-concurrent vector as of retained epoch `epoch` (level 3).
    pub fn asof_greatest_concurrent(
        &mut self,
        epoch: u64,
        e: EventId,
    ) -> io::Result<Vec<Option<EventId>>> {
        match self.call(&Msg::QueryAsOfGc { epoch, e })? {
            Msg::GcResult { slots, .. } => Ok(slots),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Window scan as of retained epoch `epoch` (level 3), driving the
    /// continuation cursor transparently like [`Client::window`].
    pub fn asof_window(
        &mut self,
        epoch: u64,
        process: u32,
        from: u32,
        to: u32,
    ) -> io::Result<Vec<EventId>> {
        let mut all = Vec::new();
        let mut cursor = from;
        loop {
            match self.call(&Msg::QueryAsOfWindow {
                epoch,
                process,
                from: cursor,
                to,
                limit: 0,
            })? {
                Msg::WindowResult { ids, next } => {
                    all.extend(ids);
                    if next == 0 {
                        return Ok(all);
                    }
                    cursor = next;
                }
                other => return Err(Self::protocol_error(&other)),
            }
        }
    }

    /// The `(epoch, delivered)` rows still retained for time travel, oldest
    /// first (level 3).
    pub fn list_epochs(&mut self) -> io::Result<Vec<(u64, u64)>> {
        match self.call(&Msg::ListEpochs)? {
            Msg::EpochList { epochs } => Ok(epochs),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// One chunk of an interval replay: events from 1-based delivery offset
    /// `cursor` (0 = start of the interval) and the next cursor (0 = done).
    pub fn replay_page(
        &mut self,
        from_epoch: u64,
        to_epoch: u64,
        cursor: u64,
        limit: u32,
    ) -> io::Result<(u64, Vec<Event>, u64)> {
        match self.call(&Msg::ReplayInterval {
            from_epoch,
            to_epoch,
            cursor,
            limit,
        })? {
            Msg::ReplayChunk {
                first_offset,
                events,
                next,
            } => Ok((first_offset, events, next)),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// The full delivered prefix between two retained epochs, in delivery
    /// order, driving chunk resumption transparently (level 3).
    /// `from_epoch == 0` replays from the beginning of history.
    pub fn replay_interval(&mut self, from_epoch: u64, to_epoch: u64) -> io::Result<Vec<Event>> {
        let mut all = Vec::new();
        let mut cursor = 0u64;
        loop {
            let (_, events, next) = self.replay_page(from_epoch, to_epoch, cursor, 0)?;
            all.extend(events);
            if next == 0 {
                return Ok(all);
            }
            cursor = next;
        }
    }

    /// The head snapshot's cluster map (level 4): `partition[p]` is the
    /// representative of process `p`'s cluster, plus the clustering and
    /// drift counters. Two processes are co-clustered iff their
    /// representatives are equal.
    pub fn cluster_map(&mut self) -> io::Result<ClusterMap> {
        match self.call(&Msg::QueryClusterMap)? {
            Msg::ClusterMapResult {
                epoch,
                delivered,
                cluster_receives,
                merges,
                migrations,
                forced_full,
                partition,
            } => Ok(ClusterMap {
                epoch,
                delivered,
                cluster_receives,
                merges,
                migrations,
                forced_full,
                partition,
            }),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// The computation's live shard placement (level 5): active shard
    /// count, occupancy shares, rescale/steal counters, and routing.
    pub fn placement(&mut self) -> io::Result<Placement> {
        match self.call(&Msg::QueryPlacement)? {
            Msg::PlacementResult {
                epoch,
                delivered,
                shards,
                pinned,
                rescales,
                steals,
                occupancy_q16,
                routing,
            } => Ok(Placement {
                epoch,
                delivered,
                shards,
                pinned,
                rescales,
                steals,
                occupancy_q16,
                routing,
            }),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// The computation's metrics counters.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.call(&Msg::Stats)? {
            Msg::StatsResult(s) => Ok(s),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Negotiate the message-set protocol and WAL-format levels (PR 7).
    /// Returns `(protocol, wal)` — the minimum of ours and the server's.
    pub fn proto_hello(&mut self) -> io::Result<(u16, u16)> {
        let msg = Msg::ProtoHello {
            protocol_max: wire::PROTOCOL,
            wal_max: wire::WAL_FORMAT,
        };
        match self.call(&msg)? {
            Msg::ProtoHelloAck { protocol, wal } => Ok((protocol, wal)),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// List the computations the daemon is serving, with their delivered
    /// watermarks. Requires a prior [`Client::proto_hello`] at level >= 2.
    pub fn list_computations(&mut self) -> io::Result<Vec<wire::CompInfo>> {
        match self.call(&Msg::ListComputations)? {
            Msg::ComputationList { comps } => Ok(comps),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Ask the daemon to shut down gracefully; waits for the ack.
    pub fn shutdown_daemon(&mut self) -> io::Result<()> {
        match self.call(&Msg::Shutdown)? {
            Msg::ShutdownAck => Ok(()),
            other => Err(Self::protocol_error(&other)),
        }
    }

    /// Close the session politely.
    pub fn goodbye(mut self) -> io::Result<()> {
        self.send(&Msg::Goodbye)
    }

    /// Expose the raw wire version for diagnostics.
    pub fn protocol_version() -> u8 {
        wire::VERSION
    }
}
