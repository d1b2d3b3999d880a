//! Replication: follower daemons consuming a leader's committed WAL stream.
//!
//! The WAL records the *post-reorder delivery order*, and every piece of
//! daemon state is a pure function of the delivered prefix (the
//! delivery-order-invariance property the core crates establish). That makes
//! the WAL a complete replication log: a follower that replays the leader's
//! record stream through its own reorder → engine → snapshot pipeline holds a
//! sequence-identical prefix and answers every query bit-identically to the
//! leader at the same epoch. Nothing new has to be proven about follower
//! state — it is the recovery argument ("recovery is replay") applied over
//! TCP instead of a local disk.
//!
//! ## Leader side
//!
//! A connection that negotiated protocol level 2 ([`Msg::ProtoHello`]) may
//! send [`Msg::Subscribe`]. The leader answers [`Msg::SubscribeAck`] and
//! converts the connection into a push stream of [`Msg::StreamBatch`]
//! frames, each carrying committed (durably synced) events plus the
//! leader's commit watermark:
//!
//! 1. **Catch-up**: events from the subscriber's `from_offset` up to the
//!    current durable watermark are read from disk — the newest valid
//!    checkpoint (whose `meta` name must match the subscription; see
//!    [`checkpoint::load_latest_checkpoint_named`]) covers a prefix, WAL
//!    segments cover the rest. The scan is read-only and capped at the
//!    watermark, so a torn tail still being written never ships.
//! 2. **Live tail**: the subscription registers a bounded channel with the
//!    computation's [`ReplHub`]; the ingest worker pushes every batch it
//!    syncs. A subscriber that falls [`REPL_SUBSCRIBER_QUEUE`] batches
//!    behind is dropped (the follower resubscribes from its durable
//!    position — catch-up is incremental, so this is cheap).
//! 3. **Heartbeats**: an idle stream carries an empty `StreamBatch` every
//!    [`HEARTBEAT`] so the follower can bound leader-failure detection and
//!    publish its final epoch promptly.
//!
//! Only committed events are ever streamed. The leader's synced prefix
//! survives its crashes, so a follower can never observe (and publish) state
//! a restarted leader no longer has — the streams re-converge by
//! construction.
//!
//! ## Leases and fencing
//!
//! Each leader start mints an *incarnation number* (persisted in
//! `data_dir/leader.epoch` and incremented on every start). A granted lease
//! packs it into the high 32 bits. Followers present their last lease when
//! resubscribing; a lease minted by an older incarnation is refused with
//! [`code::LEASE_EXPIRED`], which tells the follower its leader restarted —
//! it clears the lease and resubscribes fresh from its own durable
//! position. A follower fenced this way counts a resubscription in
//! [`Metrics::repl_resubscribes`].
//!
//! ## Follower side
//!
//! `cts-daemon --follow <leader-addr>` starts a normal daemon whose wire
//! surface refuses `Events` and `Flush` with [`code::READ_ONLY`], plus a
//! discovery thread polling the leader's [`Msg::ListComputations`]. Every
//! discovered computation gets a replication worker: it opens (or recovers —
//! a durable follower's own WAL tail makes catch-up incremental) the local
//! computation, subscribes from its delivered count, and applies stream
//! batches through [`Computation::enqueue_events`] — the normal ingest
//! pipeline, including the reorder buffer whose dedup makes resubscription
//! overlap harmless. Epochs are published (via the flush barrier) only at
//! leader-acked commit points.

use crate::checkpoint;
use crate::pipeline::{Computation, ReplBatch, REPL_SUBSCRIBER_QUEUE};
use crate::server::{lock, DaemonShared};
use crate::session::hello;
use crate::wal;
use crate::wire::{self, code, read_msg, recv_frame, write_msg, CompInfo, Msg, Recv};
use cts_model::Event;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Events per [`Msg::StreamBatch`] frame. Events encode in ≤ ~20 bytes, so
/// this keeps frames far under [`wire::MAX_FRAME`].
const STREAM_CHUNK: usize = 4096;

/// Idle-stream heartbeat cadence (an empty `StreamBatch` carrying the
/// current commit watermark).
const HEARTBEAT: Duration = Duration::from_millis(250);

/// Follower read timeout per poll; [`SILENT_POLLS_DEAD`] consecutive silent
/// polls declare the leader dead and trigger a resubscribe.
const FOLLOW_READ_TIMEOUT: Duration = Duration::from_millis(500);
const SILENT_POLLS_DEAD: u32 = 6;

/// Backoff between follower resubscription attempts.
const RESUBSCRIBE_BACKOFF: Duration = Duration::from_millis(50);

/// Discovery cadence: how often a follower polls the leader for new
/// computations.
const DISCOVERY_POLL: Duration = Duration::from_millis(200);

/// Publish a follower epoch at most every this many applied events while
/// the stream is hot (every idle heartbeat publishes regardless, so a
/// drained stream always converges to the leader's commit point).
const FOLLOWER_PUBLISH_EVERY: u64 = 1024;

/// Stalled-peer bound on leader-side stream writes.
const STREAM_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The leader incarnation half of a lease.
pub fn lease_epoch(lease: u64) -> u64 {
    lease >> 32
}

/// Load-and-increment the leader incarnation number persisted in
/// `root/leader.epoch`. Every daemon start with a data dir mints a fresh
/// incarnation, so leases granted before a crash are recognizably stale.
pub fn next_leader_epoch(root: &Path) -> u64 {
    let path = root.join("leader.epoch");
    let prev = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let epoch = prev + 1;
    if let Err(e) = std::fs::write(&path, format!("{epoch}\n")) {
        eprintln!(
            "[cts-daemon] cannot persist leader incarnation to {}: {e}",
            path.display()
        );
    }
    epoch
}

/// A granted subscription, ready to stream.
pub(crate) struct Grant {
    pub(crate) comp: Arc<Computation>,
    pub(crate) lease: u64,
    pub(crate) start_offset: u64,
}

impl Grant {
    pub(crate) fn ack(&self, shared: &DaemonShared) -> Msg {
        Msg::SubscribeAck {
            lease: self.lease,
            leader_epoch: shared.leader_epoch,
            num_processes: self.comp.num_processes,
            max_cluster_size: self.comp.max_cluster_size,
            start_offset: self.start_offset,
        }
    }
}

/// Validate a [`Msg::Subscribe`] and mint its lease, or produce the typed
/// refusal to send instead. The session has already checked the
/// connection's protocol level (`crate::session`'s one verb → level table).
pub(crate) fn check_subscribe(
    shared: &DaemonShared,
    computation: &str,
    from_offset: u64,
    prev_lease: u64,
) -> Result<Grant, Box<Msg>> {
    let refuse = |code: u16, message: String| Box::new(Msg::Error { code, message });
    if shared.config.data_dir.is_none() {
        return Err(refuse(
            code::UNSUPPORTED,
            "this daemon is not durable (no --data-dir); nothing committed to stream".into(),
        ));
    }
    if prev_lease != 0 && lease_epoch(prev_lease) != shared.leader_epoch {
        return Err(refuse(
            code::LEASE_EXPIRED,
            format!(
                "lease {prev_lease:#x} was minted by leader incarnation {}, \
                 current incarnation is {}; resubscribe fresh",
                lease_epoch(prev_lease),
                shared.leader_epoch
            ),
        ));
    }
    let Some(comp) = lock(&shared.computations).get(computation).cloned() else {
        return Err(refuse(
            code::BAD_HELLO,
            format!("unknown computation {computation:?}"),
        ));
    };
    if comp.num_shards() > 1 {
        return Err(refuse(
            code::UNSUPPORTED,
            format!(
                "computation {computation:?} runs sharded ingest; streaming it is not supported"
            ),
        ));
    }
    if comp.durability_dir().is_none() {
        return Err(refuse(
            code::UNSUPPORTED,
            format!("computation {computation:?} is not durable"),
        ));
    }
    let counter = shared.lease_counter.fetch_add(1, Ordering::Relaxed) + 1;
    let lease = (shared.leader_epoch << 32) | (counter & 0xFFFF_FFFF);
    let start_offset = from_offset.min(comp.durable_offset());
    Ok(Grant {
        comp,
        lease,
        start_offset,
    })
}

/// Read the committed events at offsets `(from_excl, to_incl]` from a
/// computation's data directory: the newest valid checkpoint (refused if its
/// `meta` names another computation) covers a prefix, WAL segments the rest.
/// Read-only — a torn tail on the live segment is simply where the scan
/// stops, and `to_incl` (the durable watermark) is always below it.
fn read_committed_range(
    dir: &Path,
    name: &str,
    from_excl: u64,
    to_incl: u64,
) -> io::Result<Vec<Event>> {
    let mut events: Vec<Event> = Vec::with_capacity((to_incl - from_excl) as usize);
    // Highest contiguous offset collected (or skipped as already held).
    let mut have = from_excl;
    if let Some(ck) = checkpoint::load_latest_checkpoint_named(dir, Some(name))? {
        if ck.delivered > have {
            events.extend_from_slice(&ck.events[have as usize..]);
            have = ck.delivered;
        }
    }
    let segs = wal::list_segments(dir)?;
    for (i, (start, path)) in segs.iter().enumerate() {
        if have >= to_incl {
            break;
        }
        // Segment i covers (start_i, start_{i+1}]; skip it when a later
        // segment already starts at or before what we hold.
        if let Some((next_start, _)) = segs.get(i + 1) {
            if *next_start <= have {
                continue;
            }
        }
        if *start > have {
            break; // hole between checkpoint/segments: cannot serve
        }
        let scan = wal::scan_segment(path)?;
        for rec in &scan.records {
            let rec_end = rec.first_offset + rec.events.len() as u64 - 1;
            if rec_end <= have {
                continue;
            }
            let skip = (have + 1).saturating_sub(rec.first_offset) as usize;
            events.extend_from_slice(&rec.events[skip..]);
            have = rec_end;
            if have >= to_incl {
                break;
            }
        }
    }
    if have < to_incl {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "committed range ({from_excl}, {to_incl}] not coverable from {}: \
                 contiguous through {have} only",
                dir.display()
            ),
        ));
    }
    events.truncate((to_incl - from_excl) as usize);
    Ok(events)
}

fn send_chunks<W: Write>(
    w: &mut W,
    lease: u64,
    first_offset: u64,
    commit: u64,
    events: &[Event],
) -> io::Result<()> {
    let mut off = first_offset;
    for chunk in events.chunks(STREAM_CHUNK) {
        write_msg(
            w,
            &Msg::StreamBatch {
                lease,
                first_offset: off,
                commit,
                events: chunk.to_vec(),
            },
        )?;
        off += chunk.len() as u64;
    }
    Ok(())
}

/// Stream a granted subscription until the peer goes away, the daemon shuts
/// down, or the subscriber falls too far behind. The [`Msg::SubscribeAck`]
/// must already be on the wire. Runs on the connection thread (thread
/// backend) or a dedicated streamer thread the poller handed the socket to
/// (epoll backend).
pub(crate) fn serve_subscription(
    stream: TcpStream,
    shared: &DaemonShared,
    grant: &Grant,
) -> io::Result<()> {
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_write_timeout(Some(STREAM_WRITE_TIMEOUT));
    let mut out = BufWriter::new(stream);
    let comp = &grant.comp;
    let lease = grant.lease;
    // Register for the live tail *before* reading the watermark: anything
    // synced from here on is either under the watermark (trimmed below) or
    // arrives on the channel. No gap is possible.
    let (tx, rx) = sync_channel::<Arc<ReplBatch>>(REPL_SUBSCRIBER_QUEUE);
    comp.add_repl_subscriber(tx);
    let watermark = comp.durable_offset();
    let mut next = grant.start_offset + 1;
    if watermark >= next {
        let dir = comp
            .durability_dir()
            .expect("check_subscribe gated on durability");
        let catchup = read_committed_range(dir, &comp.name, next - 1, watermark)?;
        send_chunks(&mut out, lease, next, watermark, &catchup)?;
        out.flush()?;
        next = watermark + 1;
    }
    loop {
        if shared.shutting_down() {
            return Ok(());
        }
        match rx.recv_timeout(HEARTBEAT) {
            Ok(batch) => {
                let end = batch.first_offset + batch.events.len() as u64 - 1;
                if end < next {
                    continue; // fully covered by the catch-up read
                }
                if batch.first_offset > next {
                    // Defensive: a hole in the live stream (should be
                    // impossible; the hub drops lagging subscribers via the
                    // channel instead). End the stream; the follower
                    // resubscribes from its durable position.
                    return Ok(());
                }
                let skip = (next - batch.first_offset) as usize;
                send_chunks(&mut out, lease, next, batch.commit, &batch.events[skip..])?;
                out.flush()?;
                next = end + 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                // Idle heartbeat: liveness + the current commit watermark
                // (it can advance without new events only across a
                // checkpoint boundary, but the follower also uses this to
                // publish its final epoch once the stream drains).
                write_msg(
                    &mut out,
                    &Msg::StreamBatch {
                        lease,
                        first_offset: next,
                        commit: comp.durable_offset(),
                        events: Vec::new(),
                    },
                )?;
                out.flush()?;
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The ingest worker dropped us (lagging subscriber) or the
                // computation shut down.
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Follower runtime
// ---------------------------------------------------------------------------

/// Why one subscription attempt ended.
enum FollowEnd {
    /// The daemon is shutting down; stop following.
    Shutdown,
    /// The leader fenced our lease (it restarted); resubscribe fresh,
    /// immediately.
    Fenced,
    /// Connection lost / leader silent / stream error; back off and
    /// resubscribe from the current delivered position.
    Retry,
}

/// Entry point of the `--follow` runtime: discover the leader's
/// computations and keep one replication worker per computation until
/// shutdown. Runs on its own thread.
pub(crate) fn follower_runtime(shared: Arc<DaemonShared>, leader: SocketAddr) {
    // Our own startup recovery replays local replicas first; opening a
    // computation while recover_all scans the same directory would race it.
    while shared.recovering.load(Ordering::Acquire) && !shared.shutting_down() {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut tracked: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutting_down() {
        match discover(leader) {
            Ok(comps) => {
                for info in comps {
                    if tracked.contains(&info.name) {
                        continue;
                    }
                    tracked.insert(info.name.clone());
                    let worker_shared = Arc::clone(&shared);
                    let name = info.name.clone();
                    let spawned = std::thread::Builder::new()
                        .name(format!("repl-follow-{name}"))
                        .spawn(move || follow_computation(&worker_shared, leader, &info));
                    match spawned {
                        Ok(h) => workers.push(h),
                        Err(e) => {
                            eprintln!(
                                "[cts-daemon] cannot spawn replication worker for {name:?}: {e}"
                            );
                            tracked.remove(&name);
                        }
                    }
                }
            }
            Err(e) => {
                if tracked.is_empty() {
                    eprintln!("[cts-daemon] follower discovery: leader unreachable: {e}");
                }
            }
        }
        shutdown_sleep(&shared, DISCOVERY_POLL);
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Sleep `total`, waking early on shutdown.
fn shutdown_sleep(shared: &DaemonShared, total: Duration) {
    let step = Duration::from_millis(25);
    let mut left = total;
    while !shared.shutting_down() && !left.is_zero() {
        let d = left.min(step);
        std::thread::sleep(d);
        left -= d;
    }
}

/// One discovery poll: negotiate protocol 2 and list the leader's
/// computations.
fn discover(leader: SocketAddr) -> io::Result<Vec<CompInfo>> {
    let mut stream = TcpStream::connect(leader)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let protocol = proto_handshake(&mut stream)?;
    if protocol < 2 {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("leader speaks protocol level {protocol}, replication needs 2"),
        ));
    }
    write_msg(&mut stream, &Msg::ListComputations)?;
    match read_reply(&mut stream)? {
        Msg::ComputationList { comps } => Ok(comps),
        Msg::Error { code, message } => Err(io::Error::other(format!(
            "leader refused ListComputations ({code}): {message}"
        ))),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply to ListComputations: {other:?}"),
        )),
    }
}

/// Send [`Msg::ProtoHello`] and return the negotiated protocol level.
fn proto_handshake(stream: &mut TcpStream) -> io::Result<u16> {
    write_msg(
        stream,
        &Msg::ProtoHello {
            protocol_max: wire::PROTOCOL,
            wal_max: wire::WAL_FORMAT,
        },
    )?;
    match read_reply(stream)? {
        Msg::ProtoHelloAck { protocol, .. } => Ok(protocol),
        Msg::Error { code, message } => Err(io::Error::other(format!(
            "leader refused ProtoHello ({code}): {message}"
        ))),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply to ProtoHello: {other:?}"),
        )),
    }
}

fn read_reply(stream: &mut TcpStream) -> io::Result<Msg> {
    read_msg(stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "leader closed the connection"))
}

/// Keep one computation replicated until shutdown: open the local replica
/// (recovering its own WAL tail when durable), then subscribe / apply /
/// resubscribe forever.
fn follow_computation(shared: &Arc<DaemonShared>, leader: SocketAddr, info: &CompInfo) {
    let comp = match hello(
        shared,
        info.name.clone(),
        info.num_processes,
        info.max_cluster_size,
    ) {
        Ok((comp, _)) => comp,
        Err(e) => {
            eprintln!(
                "[cts-daemon] cannot open local replica of {:?}: {e}",
                info.name
            );
            return;
        }
    };
    let mut lease: u64 = 0;
    let mut attempts: u64 = 0;
    while !shared.shutting_down() {
        if attempts > 0 {
            comp.metrics()
                .repl_resubscribes
                .fetch_add(1, Ordering::Relaxed);
        }
        attempts += 1;
        match follow_once(shared, leader, &comp, &mut lease) {
            FollowEnd::Shutdown => return,
            FollowEnd::Fenced => {
                lease = 0; // resubscribe fresh, immediately
            }
            FollowEnd::Retry => shutdown_sleep(shared, RESUBSCRIBE_BACKOFF),
        }
    }
}

/// One subscription: connect, negotiate, subscribe from the local delivered
/// position, and apply stream batches until something ends the stream.
fn follow_once(
    shared: &Arc<DaemonShared>,
    leader: SocketAddr,
    comp: &Arc<Computation>,
    lease: &mut u64,
) -> FollowEnd {
    let from = comp.delivered();
    let Ok(mut stream) = TcpStream::connect(leader) else {
        return FollowEnd::Retry;
    };
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(FOLLOW_READ_TIMEOUT)).is_err()
    {
        return FollowEnd::Retry;
    }
    match blocking_handshake(&mut stream) {
        Ok(p) if p >= 2 => {}
        _ => return FollowEnd::Retry,
    }
    if write_msg(
        &mut stream,
        &Msg::Subscribe {
            computation: comp.name.clone(),
            from_offset: from,
            prev_lease: *lease,
        },
    )
    .is_err()
    {
        return FollowEnd::Retry;
    }
    match read_one(shared, &mut stream) {
        ReadOne::Msg(m) => match *m {
            Msg::SubscribeAck { lease: granted, .. } => *lease = granted,
            Msg::Error { code, .. } if code == code::LEASE_EXPIRED => return FollowEnd::Fenced,
            _ => return FollowEnd::Retry,
        },
        ReadOne::Shutdown => return FollowEnd::Shutdown,
        ReadOne::Dead => return FollowEnd::Retry,
    }
    let mut applied = from;
    let mut published = from;
    let metrics = comp.metrics();
    loop {
        let msg = match read_one(shared, &mut stream) {
            ReadOne::Msg(m) => *m,
            ReadOne::Shutdown => return FollowEnd::Shutdown,
            ReadOne::Dead => return FollowEnd::Retry,
        };
        let Msg::StreamBatch {
            lease: l,
            first_offset,
            commit,
            events,
        } = msg
        else {
            return FollowEnd::Retry; // stream corrupted / unexpected frame
        };
        if l != *lease {
            return FollowEnd::Retry;
        }
        metrics.repl_commit.store(commit, Ordering::Relaxed);
        let idle = events.is_empty();
        if !idle {
            let end = first_offset + events.len() as u64 - 1;
            if first_offset > applied + 1 {
                return FollowEnd::Retry; // hole in the stream: resubscribe
            }
            if end > applied {
                let skip = (applied + 1 - first_offset) as usize;
                let fresh = if skip == 0 {
                    events
                } else {
                    events[skip..].to_vec()
                };
                if comp.enqueue_events(fresh).is_err() {
                    return FollowEnd::Shutdown;
                }
                applied = end;
                metrics.repl_applied.store(applied, Ordering::Relaxed);
            }
        }
        // Publish epochs only at leader-acked commit points: everything
        // applied is committed (only synced records are ever streamed), so
        // any applied prefix is a valid epoch — but we pace the snapshot
        // churn and always land exactly on the commit point once the
        // stream drains (idle heartbeat).
        let target = applied.min(commit);
        if target > published && (idle || target - published >= FOLLOWER_PUBLISH_EVERY) {
            match comp.flush(target, shared.config.flush_timeout) {
                Ok(_) => published = target,
                Err(_) => return FollowEnd::Retry,
            }
        }
    }
}

enum ReadOne {
    // Boxed: `Msg` grew past clippy's large-variant threshold with the
    // level-3 time-travel verbs, and one heap hop per received frame is
    // noise next to the frame read itself.
    Msg(Box<Msg>),
    Shutdown,
    /// Leader closed, errored, or went silent past the deadline.
    Dead,
}

/// Read one message, polling the shutdown flag on read timeouts and
/// declaring the leader dead after [`SILENT_POLLS_DEAD`] silent polls
/// (heartbeats arrive every [`HEARTBEAT`], so silence means a dead or
/// wedged leader).
fn read_one(shared: &DaemonShared, stream: &mut TcpStream) -> ReadOne {
    let mut silent = 0u32;
    loop {
        if shared.shutting_down() {
            return ReadOne::Shutdown;
        }
        match recv_frame(stream) {
            Ok(Recv::Frame(payload)) => match Msg::decode(&payload) {
                Ok(m) => return ReadOne::Msg(Box::new(m)),
                Err(_) => return ReadOne::Dead,
            },
            Ok(Recv::Idle) => {
                silent += 1;
                if silent >= SILENT_POLLS_DEAD {
                    return ReadOne::Dead;
                }
            }
            Ok(Recv::Eof) | Err(_) => return ReadOne::Dead,
        }
    }
}

/// Handshake variant for the timeouted follower socket (uses
/// [`read_one`]-style polling so a slow leader is not mistaken for a dead
/// one mid-handshake). Returns the negotiated protocol level.
fn blocking_handshake(stream: &mut TcpStream) -> io::Result<u16> {
    write_msg(
        stream,
        &Msg::ProtoHello {
            protocol_max: wire::PROTOCOL,
            wal_max: wire::WAL_FORMAT,
        },
    )?;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match recv_frame(stream)? {
            Recv::Frame(payload) => {
                return match Msg::decode(&payload) {
                    Ok(Msg::ProtoHelloAck { protocol, .. }) => Ok(protocol),
                    Ok(Msg::Error { code, message }) => Err(io::Error::other(format!(
                        "leader refused ProtoHello ({code}): {message}"
                    ))),
                    Ok(other) => Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected reply to ProtoHello: {other:?}"),
                    )),
                    Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
                }
            }
            Recv::Idle => {
                if std::time::Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "leader silent during handshake",
                    ));
                }
            }
            Recv::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "leader closed during handshake",
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_packs_incarnation() {
        assert_eq!(lease_epoch((7 << 32) | 123), 7);
        assert_eq!(lease_epoch(0), 0);
    }

    #[test]
    fn leader_epoch_increments_across_starts() {
        let dir = std::env::temp_dir().join("cts-repl-epoch-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = next_leader_epoch(&dir);
        let b = next_leader_epoch(&dir);
        let c = next_leader_epoch(&dir);
        assert_eq!(b, a + 1);
        assert_eq!(c, b + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
