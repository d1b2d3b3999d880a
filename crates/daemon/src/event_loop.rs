//! The readiness-driven network front end: a small pool of poller threads
//! owning *all* connections through one epoll instance each.
//!
//! ## Architecture
//!
//! Every poller registers:
//!
//! - a dup of the shared listener, level-triggered `EPOLLIN | EPOLLEXCLUSIVE`
//!   (dup'd fds share the open file description, so the kernel wakes exactly
//!   one poller per connection burst — no thundering herd, and whichever
//!   poller accepts owns the socket from then on);
//! - a wake eventfd, through which [`DaemonShared::request_shutdown`] and
//!   flush-helper completions interrupt `epoll_wait`;
//! - an ingest-retry timerfd, armed one-shot whenever a connection parks a
//!   batch against a full ingest queue;
//! - on poller 0 only, the WAL group-commit timerfd: each expiry nudges
//!   every computation's worker to fsync a dirty WAL, replacing the old
//!   per-append window check in `pipeline.rs`.
//!
//! Connection sockets are edge-triggered (`EPOLLIN | EPOLLRDHUP | EPOLLET`):
//! each readiness edge drains the socket to `EAGAIN` into a
//! [`FrameBuffer`], and every complete frame goes through the connection's
//! `Session` — the one protocol implementation, shared with the thread
//! transport in [`crate::server`]. This module is a transport: it decides
//! nothing about the protocol, only how to wait for what a `Step` needs
//! without ever blocking the poller.
//!
//! ## The per-connection transport state
//!
//! A connection is always in exactly one of these states, enforced by the
//! order of checks in [`Worker::pump`]:
//!
//! 1. **draining**: replies are written when the input runs out, or before
//!    the connection stops (closing, parked, blocked on a flush, or at the
//!    write buffer's cap), so the k pipelined frames of one readiness turn
//!    cost one `write()`. Queued bytes flush until `EAGAIN`; a partial
//!    write arms `EPOLLOUT` (write backpressure) and the next writable
//!    edge resumes. Reply production stops while the write buffer is over
//!    its cap, so a client that stops reading cannot balloon the daemon.
//! 2. **parked on ingest**: a batch refused by a full ingest queue waits
//!    in `pending`; frame processing stops (order must be preserved) and
//!    the retry timer re-offers it. The poller thread itself NEVER blocks
//!    on the queue — that would stall every connection it owns.
//! 3. **blocked on flush**: a `Flush` barrier runs on a helper thread (it
//!    legitimately waits for the ingest pipeline); the reply re-enters
//!    through the completion queue + wake eventfd. Frame processing stops
//!    so replies stay in request order.
//! 4. **pumping**: otherwise, step the session frame by frame and queue its
//!    replies — queries, hello, stats are all non-blocking against
//!    published snapshots.
//!
//! Closing (a `Close` or `ReplyThenClose` step) drains queued replies
//! first, then deregisters and drops the socket.

use crate::netpoll::{
    EpollEvent, EventFd, Poller, TimerFd, EPOLLERR, EPOLLET, EPOLLEXCLUSIVE, EPOLLHUP, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP,
};
use crate::pipeline::{lock, TryEnqueue};
use crate::replication;
use crate::server::{refuse_overloaded, DaemonShared};
use crate::session::{computation_closed, flush_reply, Session, Step};
use crate::wire::{code, frame_msg, FrameBuffer, Msg};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
const TOK_WAL: u64 = 2;
const TOK_RETRY: u64 = 3;
/// First connection token; below are the fixed per-poller fds.
const TOK_CONN0: u64 = 8;

/// Accepts per listener readiness before yielding back to the event loop.
const ACCEPT_BURST: usize = 256;

/// Stop producing replies while this many bytes are queued unsent.
const WBUF_CAP: usize = 1 << 20;

/// Listener backlog: a C10K connect storm must not see resets.
const LISTEN_BACKLOG: i32 = 4096;

/// Delay before re-offering a batch parked on a full ingest queue.
const RETRY_DELAY: Duration = Duration::from_millis(1);

/// How poller completions re-enter the loop: flush helpers push the reply
/// here and ring the eventfd.
struct PollerShared {
    wake: Arc<EventFd>,
    completions: Mutex<Vec<(u64, Msg)>>,
}

impl PollerShared {
    fn complete(&self, conn: u64, reply: Msg) {
        lock(&self.completions).push((conn, reply));
        self.wake.wake();
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    /// Encoded, not-yet-written reply bytes (`wpos` = sent prefix).
    wbuf: Vec<u8>,
    wpos: usize,
    session: Session,
    /// A batch the ingest queue refused; re-offered by the retry timer.
    pending: Option<Vec<cts_model::Event>>,
    /// A flush helper thread owns the next reply slot.
    blocked_on_flush: bool,
    /// The socket may have unread bytes (edge-triggered: readiness is
    /// remembered here, not re-reported by the kernel).
    read_ready: bool,
    /// Peer closed its write side; remaining buffered frames still run.
    eof: bool,
    /// Drain `wbuf`, then close.
    closing: bool,
    /// `EPOLLOUT` currently armed.
    want_write: bool,
    /// A granted Subscribe: the poller hands the socket to a dedicated
    /// streamer thread (replication pushes for the connection's lifetime —
    /// the antithesis of a readiness loop's non-blocking contract).
    subscribe: Option<replication::Grant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            session: Session::new(),
            pending: None,
            blocked_on_flush: false,
            read_ready: false,
            eof: false,
            closing: false,
            want_write: false,
            subscribe: None,
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue_msg(&mut self, msg: &Msg) {
        // Framing fails only for a message over the frame limit, which
        // leaves nothing queued. The peer cannot be answered; hang up, as a
        // failed socket write does on the thread transport.
        if frame_msg(&mut self.wbuf, msg).is_err() {
            self.closing = true;
        }
    }

    fn interest(&self) -> u32 {
        let mut i = EPOLLIN | EPOLLRDHUP | EPOLLET;
        if self.want_write {
            i |= EPOLLOUT;
        }
        i
    }
}

/// How many pollers `config.pollers = 0` resolves to.
fn auto_pollers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Start the poller pool on `listener`. Returns the poller join handles;
/// they exit when [`DaemonShared::request_shutdown`] runs.
pub(crate) fn start(
    listener: TcpListener,
    shared: Arc<DaemonShared>,
) -> io::Result<Vec<std::thread::JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    // Best-effort capacity raises: a refused setrlimit or listen just
    // lowers the ceiling, it does not break the backend.
    let _ = crate::netpoll::raise_backlog(listener.as_raw_fd(), LISTEN_BACKLOG);
    let _ = crate::netpoll::raise_nofile_to_hard();
    let n = match shared.config.pollers {
        0 => auto_pollers(),
        n => n,
    };
    // With --pin-cores, pollers take CPUs from the back of the topology's
    // candidate list — shard workers take theirs from the front, so the two
    // pools stay disjoint whenever the host has enough cores.
    let plan = if shared.config.pin_cores {
        crate::topology::CpuTopology::discover()
            .ok()
            .map(|t| t.plan(0, n))
    } else {
        None
    };
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let mut worker = Worker::new(i, listener.try_clone()?, Arc::clone(&shared))?;
        let cpu = plan.as_ref().map(|pl| pl.poller_cpus[i]);
        handles.push(
            std::thread::Builder::new()
                .name(format!("cts-daemon-poll-{i}"))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        let _ = crate::netpoll::pin_current_thread(cpu);
                    }
                    worker.run()
                })?,
        );
    }
    Ok(handles)
}

struct Worker {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<DaemonShared>,
    ps: Arc<PollerShared>,
    /// Poller 0 only: the WAL group-commit clock.
    wal_timer: Option<TimerFd>,
    retry_timer: TimerFd,
    retry_armed: bool,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    scratch: Vec<u8>,
}

impl Worker {
    fn new(index: usize, listener: TcpListener, shared: Arc<DaemonShared>) -> io::Result<Worker> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, TOK_LISTENER)?;
        let wake = Arc::new(EventFd::new()?);
        poller.add(wake.fd(), EPOLLIN, TOK_WAKE)?;
        lock(&shared.net_wakes).push(Arc::clone(&wake));
        let wal_timer = if index == 0
            && shared.config.data_dir.is_some()
            && !shared.config.sync_window.is_zero()
        {
            let t = TimerFd::new()?;
            t.set_periodic(shared.config.sync_window)?;
            poller.add(t.fd(), EPOLLIN, TOK_WAL)?;
            Some(t)
        } else {
            None
        };
        let retry_timer = TimerFd::new()?;
        poller.add(retry_timer.fd(), EPOLLIN, TOK_RETRY)?;
        Ok(Worker {
            poller,
            listener,
            shared,
            ps: Arc::new(PollerShared {
                wake,
                completions: Mutex::new(Vec::new()),
            }),
            wal_timer,
            retry_timer,
            retry_armed: false,
            conns: HashMap::new(),
            next_token: TOK_CONN0,
            scratch: vec![0u8; 64 * 1024],
        })
    }

    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        loop {
            if self.shared.shutting_down() {
                self.shutdown_conns();
                return;
            }
            let n = match self.poller.wait(&mut events, -1) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("[cts-daemon] poller died: {e}");
                    return;
                }
            };
            for ev in &events[..n] {
                let (token, ready) = (ev.data, ev.events);
                match token {
                    TOK_LISTENER => self.accept_burst(),
                    TOK_WAKE => {
                        self.ps.wake.drain();
                        self.drain_completions();
                    }
                    TOK_WAL => {
                        if let Some(t) = &self.wal_timer {
                            t.drain();
                        }
                        self.nudge_wal_windows();
                    }
                    TOK_RETRY => {
                        self.retry_timer.drain();
                        self.retry_armed = false;
                        self.retry_parked();
                    }
                    id => self.on_conn_event(id, ready),
                }
                if self.shared.shutting_down() {
                    break;
                }
            }
        }
    }

    /// Accept until `EAGAIN` (or a burst cap, to keep latency fair for the
    /// connections already owned).
    fn accept_burst(&mut self) {
        for _ in 0..ACCEPT_BURST {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Out of fds (EMFILE/ENFILE) or a transient accept
                    // error: leave the rest in the backlog and come back
                    // on the next readiness report.
                    eprintln!("[cts-daemon] accept failed: {e}");
                    break;
                }
            };
            if self.shared.shutting_down() {
                return;
            }
            if self.shared.spawns_failing() {
                // The injected-exhaustion hook applies to both backends so
                // the OVERLOADED regression runs parameterized.
                refuse_overloaded(stream, &self.shared, "cannot take new connections");
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let id = self.next_token;
            self.next_token += 1;
            let conn = Conn::new(stream);
            if self
                .poller
                .add(conn.stream.as_raw_fd(), conn.interest(), id)
                .is_err()
            {
                continue;
            }
            self.shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
            self.shared.live_conns.fetch_add(1, Ordering::AcqRel);
            self.conns.insert(id, conn);
        }
    }

    fn on_conn_event(&mut self, id: u64, ready: u32) {
        // Take the connection out of the map for the duration of the pump
        // (split-borrow dance: pump needs &mut self for timers/epoll).
        let Some(mut conn) = self.conns.remove(&id) else {
            return; // stale event for an already-closed connection
        };
        if ready & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            conn.read_ready = true;
        }
        match self.pump(id, &mut conn) {
            Pump::Keep => {
                self.conns.insert(id, conn);
            }
            Pump::Close => self.close_conn(conn),
            Pump::Handoff => self.handoff_subscription(conn),
        }
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.shared.live_conns.fetch_sub(1, Ordering::AcqRel);
        // conn drops here, closing the socket.
    }

    /// Drive one connection as far as it can go without blocking. Returns
    /// whether to keep it, close it, or hand it to a replication streamer.
    fn pump(&mut self, id: u64, conn: &mut Conn) -> Pump {
        loop {
            // 1. Write queued replies once the input runs out, or before the
            //    connection stops producing them: the k frames of one
            //    readiness turn cost one write(), not k.
            let stops = conn.closing
                || conn.blocked_on_flush
                || conn.pending.is_some()
                || conn.unsent() >= WBUF_CAP;
            if (stops || !conn.rbuf.has_frame()) && self.flush_writes(id, conn).is_err() {
                return Pump::Close;
            }
            if conn.closing {
                // Keep only to finish draining; EPOLLOUT re-enters here.
                return if conn.unsent() > 0 {
                    Pump::Keep
                } else {
                    Pump::Close
                };
            }
            // 2. A parked batch must go first (order within the stream).
            if let Some(batch) = conn.pending.take() {
                match self.offer_ingest(conn, batch) {
                    Offer::Accepted => continue,
                    Offer::Parked => return Pump::Keep,
                    Offer::Closed => continue, // error already queued
                }
            }
            // 3. A flush in flight owns the next reply slot.
            if conn.blocked_on_flush {
                return Pump::Keep;
            }
            // 4. Write backpressure: stop producing replies (and reading)
            //    until the peer drains what it already asked for.
            if conn.unsent() >= WBUF_CAP {
                return Pump::Keep;
            }
            // 5. Next frame, or more bytes.
            let step = match conn.rbuf.next_frame() {
                Ok(Some(payload)) => conn.session.on_frame(&self.shared, payload),
                Ok(None) => {
                    if conn.read_ready {
                        if self.fill_rbuf(conn).is_err() {
                            return Pump::Close;
                        }
                        continue;
                    } else if conn.eof {
                        // All complete frames processed; a dangling partial
                        // frame is a mid-frame hangup either way.
                        return if conn.unsent() > 0 {
                            conn.closing = true;
                            Pump::Keep
                        } else {
                            Pump::Close
                        };
                    } else {
                        return Pump::Keep; // wait for the next readiness edge
                    }
                }
                Err(_) => return Pump::Close, // oversized frame: hang up
            };
            self.handle_step(id, conn, step);
            if conn.subscribe.is_some() {
                // Granted Subscribe: the connection leaves the readiness
                // loop (the streamer writes the queued SubscribeAck and
                // everything after it).
                return Pump::Handoff;
            }
        }
    }

    /// Move a granted subscription off the poller: deregister the socket,
    /// restore blocking mode, and run the stream on a dedicated thread (it
    /// pushes for the connection's lifetime, which a poller thread must
    /// never do).
    fn handoff_subscription(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let shared = Arc::clone(&self.shared);
        let Conn {
            stream,
            wbuf,
            wpos,
            subscribe,
            ..
        } = conn;
        let Some(grant) = subscribe else {
            shared.live_conns.fetch_sub(1, Ordering::AcqRel);
            return;
        };
        let spawned = std::thread::Builder::new()
            .name("cts-repl-stream".into())
            .spawn(move || {
                let mut stream = stream;
                let r = (|| -> io::Result<()> {
                    stream.set_nonblocking(false)?;
                    // Queued replies (ending in the SubscribeAck) go first.
                    stream.write_all(&wbuf[wpos..])?;
                    replication::serve_subscription(stream, &shared, &grant)
                })();
                if let Err(e) = r {
                    eprintln!(
                        "[cts-daemon] replication stream for {:?} ended: {e}",
                        grant.comp.name
                    );
                }
                shared.live_conns.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            // Thread exhaustion: the follower sees the hangup and retries.
            self.shared.live_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Read the socket to `EAGAIN` (edge-triggered contract) into the
    /// frame buffer.
    fn fill_rbuf(&mut self, conn: &mut Conn) -> Result<(), ()> {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.eof = true;
                    conn.read_ready = false;
                    return Ok(());
                }
                Ok(n) => {
                    conn.rbuf.extend(&self.scratch[..n]);
                    // Process what we have before reading more once a
                    // decent chunk is buffered — bounds rbuf growth.
                    if conn.rbuf.pending() >= WBUF_CAP {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.read_ready = false;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }

    /// Write queued bytes to `EAGAIN`, arming/disarming `EPOLLOUT` as the
    /// drain state changes.
    fn flush_writes(&mut self, id: u64, conn: &mut Conn) -> Result<(), ()> {
        while conn.unsent() > 0 {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self
                            .poller
                            .modify(conn.stream.as_raw_fd(), conn.interest(), id);
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.want_write {
            conn.want_write = false;
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.interest(), id);
        }
        Ok(())
    }

    /// Offer a batch to the ingest queue without blocking.
    fn offer_ingest(&mut self, conn: &mut Conn, batch: Vec<cts_model::Event>) -> Offer {
        match conn.session.computation().try_enqueue_events(batch) {
            Ok(()) => Offer::Accepted,
            Err(TryEnqueue::Backpressure(leftover)) => {
                conn.pending = Some(leftover);
                self.arm_retry();
                Offer::Parked
            }
            Err(TryEnqueue::Closed) => {
                conn.queue_msg(&computation_closed());
                Offer::Closed
            }
        }
    }

    fn arm_retry(&mut self) {
        if !self.retry_armed {
            let _ = self.retry_timer.set_oneshot(RETRY_DELAY);
            self.retry_armed = true;
        }
    }

    /// Retry every parked connection; re-arm if any stay parked.
    fn retry_parked(&mut self) {
        let parked: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.pending.is_some())
            .map(|(id, _)| *id)
            .collect();
        for id in parked {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            match self.pump(id, &mut conn) {
                Pump::Keep => {
                    self.conns.insert(id, conn);
                }
                Pump::Close => self.close_conn(conn),
                Pump::Handoff => self.handoff_subscription(conn),
            }
        }
    }

    /// Flush-helper completions: queue the reply and resume the stream.
    fn drain_completions(&mut self) {
        let done: Vec<(u64, Msg)> = std::mem::take(&mut *lock(&self.ps.completions));
        for (id, reply) in done {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue; // the connection died while its flush ran
            };
            conn.blocked_on_flush = false;
            conn.queue_msg(&reply);
            match self.pump(id, &mut conn) {
                Pump::Keep => {
                    self.conns.insert(id, conn);
                }
                Pump::Close => self.close_conn(conn),
                Pump::Handoff => self.handoff_subscription(conn),
            }
        }
    }

    /// Group-commit tick: fsync every computation's dirty WAL.
    fn nudge_wal_windows(&self) {
        let comps: Vec<_> = lock(&self.shared.computations).values().cloned().collect();
        for comp in comps {
            comp.nudge_wal_sync();
        }
    }

    /// Whatever waiting one frame's step needs.
    fn handle_step(&mut self, id: u64, conn: &mut Conn, step: Step) {
        match step {
            Step::Reply(reply) => conn.queue_msg(&reply),
            Step::ReplyThenClose(reply) => {
                conn.queue_msg(&reply);
                conn.closing = true;
            }
            Step::Close => conn.closing = true,
            Step::Ingest(events, refusal) => {
                let _ = self.offer_ingest(conn, events);
                if let Some(refusal) = refusal {
                    conn.queue_msg(&refusal);
                }
            }
            Step::Flush { expected_total } => {
                // A flush legitimately waits (possibly seconds) for the
                // pipeline — never on the poller thread. A helper carries
                // it and completes through the wake eventfd.
                let comp = Arc::clone(conn.session.computation());
                let ps = Arc::clone(&self.ps);
                let timeout = self.shared.config.flush_timeout;
                let spawned = std::thread::Builder::new()
                    .name("cts-daemon-flush".into())
                    .spawn(move || {
                        let outcome = comp.flush(expected_total, timeout);
                        ps.complete(id, flush_reply(expected_total, outcome));
                    });
                match spawned {
                    Ok(_) => conn.blocked_on_flush = true,
                    // Thread exhaustion degrades this one request, not the
                    // daemon: the client backs off and retries.
                    Err(_) => conn.queue_msg(&Msg::Error {
                        code: code::OVERLOADED,
                        message: "cannot service flush right now; retry".into(),
                    }),
                }
            }
            Step::Subscribe(grant) => {
                conn.queue_msg(&grant.ack(&self.shared));
                conn.subscribe = Some(grant); // pump hands the socket off
            }
        }
    }

    /// Best-effort shutdown notice to every connection, then drop them all.
    fn shutdown_conns(&mut self) {
        let conns: Vec<Conn> = std::mem::take(&mut self.conns).into_values().collect();
        for mut conn in conns {
            if !conn.closing {
                conn.queue_msg(&Msg::Error {
                    code: code::SHUTTING_DOWN,
                    message: "daemon is shutting down".into(),
                });
            }
            while conn.unsent() > 0 {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(n) if n > 0 => conn.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    _ => break, // would block or closed: best effort only
                }
            }
            self.close_conn(conn);
        }
    }
}

enum Offer {
    Accepted,
    Parked,
    Closed,
}

/// Outcome of [`Worker::pump`].
enum Pump {
    Keep,
    Close,
    /// A granted Subscribe: hand the socket to a streamer thread.
    Handoff,
}
