//! The TCP daemon: start-up and shutdown, the computation registry, and the
//! thread-per-connection transport.
//!
//! The protocol lives in `crate::session`: a connection hands each frame
//! to `Session::on_frame` and acts on the `Step` it returns. What is
//! left to a transport is owning sockets and deciding how to wait. There are
//! two, chosen by platform ([`NetBackend::default`]):
//!
//! - [`NetBackend::Epoll`] (Linux): a small pool of poller threads (see
//!   [`crate::event_loop`]) owns *all* sockets via edge-triggered readiness.
//!   Connection count is bounded by fds, not threads. If epoll set-up fails
//!   the daemon falls back, loudly, to the thread transport.
//! - [`NetBackend::Threads`] (everywhere else, the fallback, and the
//!   reference side of the differential tests): one *accept* thread owns
//!   the listener and spawns one *connection* thread per client, which
//!   blocks inline on the ingest queue and the flush barrier. Sockets carry
//!   a short read timeout so idle connections poll the shutdown flag.
//!
//! Either way, one *ingest worker* thread (or shard pool) per computation
//! does the actual clustering work (see [`crate::pipeline::Computation`]).
//!
//! Shutdown is cooperative: [`Daemon::shutdown`] raises the flag, wakes the
//! pollers (eventfd) or the accept loop (loopback connect), joins the
//! network threads, then shuts every computation down (drop the master
//! sender → the worker drains its queue, publishes a final snapshot, and
//! exits).

use crate::checkpoint;
use crate::pipeline::{Computation, ComputationConfig, DurabilityConfig};
use crate::query_pool::QueryPool;
use crate::replication;
use crate::session::{computation_closed, flush_reply, Session, Step};
use crate::shard::{PlacementParams, StampStrategy};
use crate::wire::{code, recv_frame, write_msg, Msg, Recv};
use cts_core::cluster::AdaptiveParams;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Which network front end serves connections.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetBackend {
    /// Readiness-driven poller pool over epoll (Linux only; selecting it
    /// elsewhere falls back to [`NetBackend::Threads`] loudly).
    Epoll,
    /// Thread-per-connection with a polling read timeout.
    Threads,
}

impl Default for NetBackend {
    fn default() -> NetBackend {
        if cfg!(target_os = "linux") {
            NetBackend::Epoll
        } else {
            NetBackend::Threads
        }
    }
}

/// Daemon-wide tunables.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Network front end (default: epoll on Linux, threads elsewhere).
    pub net: NetBackend,
    /// Poller threads for the epoll backend; `0` = one per core, capped
    /// at 4 (pollers do little CPU work per event — more just shards the
    /// fd space).
    pub pollers: usize,
    /// Connection-thread ceiling for the thread backend: connections past
    /// it are refused with `code::OVERLOADED` instead of spawning a thread
    /// that may abort the process.
    pub max_conn_threads: usize,
    /// Ingest queue bound per computation, in batches.
    pub queue_capacity: usize,
    /// Snapshot publication cadence, in delivered events.
    pub epoch_every: u64,
    /// Socket read timeout: how often idle connections poll the shutdown
    /// flag.
    pub poll_interval: Duration,
    /// How long a `Flush` barrier may wait before reporting a stall.
    pub flush_timeout: Duration,
    /// Root data directory for durable computations (one subdirectory
    /// each). `None` = fully in-memory, the pre-durability behavior. On
    /// start, every subdirectory with a valid `meta` file is recovered in
    /// the background; the daemon answers `RECOVERING` until that is done.
    pub data_dir: Option<PathBuf>,
    /// WAL group-commit window (see [`DurabilityConfig::sync_window`]).
    pub sync_window: Duration,
    /// Checkpoint cadence in delivered events, `0` = WAL only (see
    /// [`DurabilityConfig::checkpoint_every`]).
    pub checkpoint_every: u64,
    /// Test failpoint (see [`DurabilityConfig::wal_byte_budget`]).
    pub wal_byte_budget: Option<u64>,
    /// Ingest shards per computation (see [`ComputationConfig::shards`]);
    /// `1` = the classic single-worker pipeline.
    pub shards: u32,
    /// `--shards auto`: live shard autoscaling — start at `shards` (at
    /// least 2) and let the placement engine split hot shards and retire
    /// cold ones between batches (see [`ComputationConfig::auto_scale`]).
    pub auto_scale: bool,
    /// `--balance`: cluster stealing at a fixed shard count.
    pub balance: bool,
    /// `--pin-cores`: pin shard workers, pollers, and the WAL clock to
    /// topology-chosen CPUs (Linux; silently unpinned elsewhere or when
    /// sysfs discovery fails).
    pub pin_cores: bool,
    /// Placement-engine tuning (EWMA shift, cooldown, hot/cold thresholds,
    /// shard-count bounds). `None` = [`PlacementParams::default`]. A finite
    /// `max_shards` also raises the pre-allocated slot count past the
    /// host's parallelism, which is how soaks force splits on small hosts.
    pub placement: Option<PlacementParams>,
    /// Entry bound of each computation's greatest-concurrent memo;
    /// `0` selects [`crate::pipeline::DEFAULT_QUERY_CACHE_CAPACITY`].
    pub query_cache_capacity: usize,
    /// Worker threads for batched queries; `0` picks a host-sized default
    /// ([`QueryPool::default_size`]), `1` evaluates batches inline.
    pub query_workers: usize,
    /// Follower mode: replicate this leader's computations and serve reads
    /// from them. Writes (`Events`, `Flush`) over the wire are refused with
    /// [`code::READ_ONLY`]; see [`crate::replication`].
    pub follow: Option<SocketAddr>,
    /// Published epochs kept answerable for time-travel reads; `0` selects
    /// [`crate::pipeline::DEFAULT_RETAIN_EPOCHS`].
    pub retain_epochs: usize,
    /// Byte budget across retained epochs, `0` = unlimited (the epoch count
    /// cap still applies).
    pub retain_bytes: u64,
    /// Online adaptive re-clustering: when set, computations stamp under
    /// [`StampStrategy::Adaptive`] with these parameters (the per-computation
    /// `Hello` max cluster size overrides the one in the params). `None` =
    /// the classic merge-on-first policy.
    pub adaptive: Option<AdaptiveParams>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            net: NetBackend::default(),
            pollers: 0,
            max_conn_threads: 4096,
            queue_capacity: 64,
            epoch_every: 4096,
            poll_interval: Duration::from_millis(50),
            flush_timeout: Duration::from_secs(60),
            data_dir: None,
            sync_window: Duration::from_millis(5),
            checkpoint_every: 100_000,
            wal_byte_budget: None,
            shards: 1,
            auto_scale: false,
            balance: false,
            pin_cores: false,
            placement: None,
            query_cache_capacity: 0,
            query_workers: 0,
            follow: None,
            retain_epochs: 0,
            retain_bytes: 0,
            adaptive: None,
        }
    }
}

pub(crate) struct DaemonShared {
    pub(crate) config: DaemonConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
    shutdown_signal: Mutex<bool>,
    shutdown_cond: Condvar,
    pub(crate) computations: Mutex<HashMap<String, Arc<Computation>>>,
    /// Thread backend only: join handles of live connection threads.
    /// Finished handles are reaped on every accept, so the registry is
    /// bounded by *concurrent* connections, not total served.
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    pub(crate) next_session: AtomicU64,
    /// True while startup recovery replays on-disk state; every request
    /// except `Shutdown`/`Goodbye` is refused with `RECOVERING` until then.
    pub(crate) recovering: AtomicBool,
    /// Shared worker pool for batched query evaluation.
    pub(crate) query_pool: QueryPool,
    /// Connections currently being served (either backend).
    pub(crate) live_conns: AtomicU64,
    /// Connections accepted / refused-with-OVERLOADED since start.
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_refused: AtomicU64,
    /// Test hook: force the connection-spawn path to fail as if the OS
    /// were out of threads, exercising the OVERLOADED degradation.
    fail_spawns: AtomicBool,
    /// This leader's incarnation number (persisted in `data_dir/
    /// leader.epoch`, incremented every start); the high half of every
    /// granted replication lease. `1` for in-memory daemons (which refuse
    /// `Subscribe` anyway).
    pub(crate) leader_epoch: u64,
    /// Low-half counter for minting replication leases.
    pub(crate) lease_counter: AtomicU64,
    /// Epoll backend: one wake eventfd per poller, so shutdown (and flush
    /// completions) can interrupt `epoll_wait`.
    #[cfg(target_os = "linux")]
    pub(crate) net_wakes: Mutex<Vec<Arc<crate::netpoll::EventFd>>>,
}

/// A running daemon. Dropping it without [`shutdown`](Daemon::shutdown)
/// leaves the threads running until process exit; tests and the binary
/// always shut down explicitly.
pub struct Daemon {
    shared: Arc<DaemonShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    recovery_thread: Option<std::thread::JoinHandle<()>>,
    /// Epoll backend: the poller pool.
    poller_threads: Vec<std::thread::JoinHandle<()>>,
    /// Thread backend with durability: the group-commit clock (the epoll
    /// backend drives the same windows from a timerfd instead).
    wal_clock: Option<std::thread::JoinHandle<()>>,
    /// `--follow` mode: the replication runtime (discovery + per-computation
    /// stream workers).
    follower_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind and start serving. With a [`DaemonConfig::data_dir`], on-disk
    /// computations are recovered in the background; queries answer
    /// `RECOVERING` until [`is_recovering`](Self::is_recovering) is false.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;

        // Find computation directories to recover before serving.
        let mut recover_dirs: Vec<PathBuf> = Vec::new();
        if let Some(root) = &config.data_dir {
            std::fs::create_dir_all(root)?;
            for entry in std::fs::read_dir(root)? {
                let path = entry?.path();
                if path.is_dir() && path.join("meta").is_file() {
                    recover_dirs.push(path);
                }
            }
            recover_dirs.sort();
        }

        let shared = Arc::new(DaemonShared::new(config, addr, !recover_dirs.is_empty()));
        let recovery_thread = if recover_dirs.is_empty() {
            None
        } else {
            let rec_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("cts-daemon-recovery".into())
                    .spawn(move || recover_all(&rec_shared, recover_dirs))
                    .expect("spawn recovery thread"),
            )
        };

        // Bring up the requested network front end; an epoll backend that
        // cannot initialize degrades (loudly) to the thread backend rather
        // than refusing to serve.
        let mut poller_threads = Vec::new();
        let mut accept_thread = None;
        let mut wal_clock = None;
        let mut use_threads = shared.config.net == NetBackend::Threads;
        #[cfg(target_os = "linux")]
        if !use_threads {
            match crate::event_loop::start(listener.try_clone()?, Arc::clone(&shared)) {
                Ok(handles) => poller_threads = handles,
                Err(e) => {
                    eprintln!(
                        "[cts-daemon] epoll front end failed to start, \
                         falling back to thread-per-connection: {e}"
                    );
                    use_threads = true;
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        if !use_threads {
            eprintln!("[cts-daemon] epoll front end is Linux-only; using threads");
            use_threads = true;
        }
        if use_threads {
            let accept_shared = Arc::clone(&shared);
            accept_thread = Some(
                std::thread::Builder::new()
                    .name("cts-daemon-accept".into())
                    .spawn(move || accept_loop(listener, accept_shared))
                    .expect("spawn accept thread"),
            );
            // Group-commit clock: ticks every sync window and nudges each
            // computation's WAL (the epoll backend registers a timerfd for
            // this instead). Zero-window configs sync inline on append and
            // need no clock.
            if shared.config.data_dir.is_some() && !shared.config.sync_window.is_zero() {
                let clock_shared = Arc::clone(&shared);
                #[cfg(target_os = "linux")]
                let clock_cpu = if shared.config.pin_cores {
                    crate::topology::CpuTopology::discover()
                        .ok()
                        .and_then(|t| t.plan(0, 0).wal_clock_cpu)
                } else {
                    None
                };
                wal_clock = Some(
                    std::thread::Builder::new()
                        .name("cts-daemon-walclock".into())
                        .spawn(move || {
                            #[cfg(target_os = "linux")]
                            if let Some(cpu) = clock_cpu {
                                let _ = crate::netpoll::pin_current_thread(cpu);
                            }
                            wal_clock_loop(&clock_shared)
                        })
                        .expect("spawn wal clock thread"),
                );
            }
        }
        // Follower mode: replicate the leader's computations in the
        // background (the runtime waits out our own recovery first).
        let follower_thread = shared.config.follow.map(|leader| {
            let f_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cts-daemon-follow".into())
                .spawn(move || replication::follower_runtime(f_shared, leader))
                .expect("spawn follower runtime")
        });
        Ok(Daemon {
            shared,
            accept_thread,
            recovery_thread,
            poller_threads,
            wal_clock,
            follower_thread,
        })
    }

    /// Is startup recovery still replaying on-disk state?
    pub fn is_recovering(&self) -> bool {
        self.shared.recovering.load(Ordering::Acquire)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Ask the daemon to stop (also triggered by the wire `Shutdown`
    /// message). Returns immediately; pair with [`shutdown`](Self::shutdown)
    /// to join.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until someone requests shutdown.
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = lock(&self.shared.shutdown_signal);
        while !*requested {
            requested = self
                .shared
                .shutdown_cond
                .wait(requested)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Graceful shutdown: stop accepting, drain connections, finish every
    /// computation's queue, join all threads. Durable computations sync
    /// their WAL and write a final checkpoint on the way out.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.join_net_threads();
        let comps: Vec<_> = lock(&self.shared.computations).drain().collect();
        for (_, comp) in comps {
            comp.shutdown();
        }
        self.shared.query_pool.shutdown();
    }

    /// Crash-stop for recovery testing: like [`shutdown`](Self::shutdown)
    /// but every ingest worker exits *without* the final WAL sync,
    /// checkpoint, or snapshot, and queued batches are discarded. On-disk
    /// state is whatever the group-commit discipline last made durable.
    pub fn kill(mut self) {
        self.shared.request_shutdown();
        self.join_net_threads();
        let comps: Vec<_> = lock(&self.shared.computations).drain().collect();
        for (_, comp) in comps {
            comp.kill();
        }
        self.shared.query_pool.shutdown();
    }

    fn join_net_threads(&mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.recovery_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.wal_clock.take() {
            let _ = h.join();
        }
        if let Some(h) = self.follower_thread.take() {
            let _ = h.join();
        }
        for h in self.poller_threads.drain(..) {
            let _ = h.join();
        }
        let conns: Vec<_> = lock(&self.shared.conns).drain(..).collect();
        for h in conns {
            let _ = h.join();
        }
    }

    /// Connections currently being served (either backend).
    pub fn live_connections(&self) -> u64 {
        self.shared.live_conns.load(Ordering::Acquire)
    }

    /// Connections accepted since start.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.conns_accepted.load(Ordering::Acquire)
    }

    /// Connections refused with `OVERLOADED` since start.
    pub fn connections_refused(&self) -> u64 {
        self.shared.conns_refused.load(Ordering::Acquire)
    }

    /// Thread backend: current size of the connection-handle registry.
    /// Bounded by concurrent connections (finished handles are reaped on
    /// accept) — the regression surface for the old unbounded push.
    pub fn conn_registry_len(&self) -> usize {
        lock(&self.shared.conns).len()
    }

    /// Test hook: make connection-thread spawning fail as if the OS were
    /// out of threads, so tests can exercise the OVERLOADED path without
    /// actually exhausting the host.
    #[doc(hidden)]
    pub fn inject_spawn_failure(&self, fail: bool) {
        self.shared.fail_spawns.store(fail, Ordering::Release);
    }

    /// WAL durability barriers issued for `computation` so far, or `None`
    /// if the daemon has no such computation. A process-local observable
    /// for the group-commit tests (not on the wire).
    #[doc(hidden)]
    pub fn wal_syncs(&self, computation: &str) -> Option<u64> {
        lock(&self.shared.computations)
            .get(computation)
            .map(|c| c.metrics().wal_syncs.load(Ordering::Acquire))
    }
}

impl DaemonShared {
    /// The state every connection shares, before any thread serves it.
    /// `recovering` closes the `RECOVERING` gate until startup recovery
    /// opens it.
    pub(crate) fn new(config: DaemonConfig, addr: SocketAddr, recovering: bool) -> DaemonShared {
        let query_pool = QueryPool::new(match config.query_workers {
            0 => QueryPool::default_size(),
            n => n,
        });
        // Mint this start's leader incarnation before serving: leases
        // granted by a previous incarnation must be recognizably stale from
        // the very first Subscribe.
        let leader_epoch = match &config.data_dir {
            Some(root) => replication::next_leader_epoch(root),
            None => 1,
        };
        DaemonShared {
            config,
            addr,
            shutdown: AtomicBool::new(false),
            shutdown_signal: Mutex::new(false),
            shutdown_cond: Condvar::new(),
            computations: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(1),
            recovering: AtomicBool::new(recovering),
            query_pool,
            live_conns: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_refused: AtomicU64::new(0),
            fail_spawns: AtomicBool::new(false),
            leader_epoch,
            lease_counter: AtomicU64::new(0),
            #[cfg(target_os = "linux")]
            net_wakes: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        *lock(&self.shutdown_signal) = true;
        self.shutdown_cond.notify_all();
        // Wake the epoll pollers out of epoll_wait.
        #[cfg(target_os = "linux")]
        for wake in lock(&self.net_wakes).iter() {
            wake.wake();
        }
        // Nudge a thread-backend accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn spawns_failing(&self) -> bool {
        self.fail_spawns.load(Ordering::Acquire)
    }
}

/// Refuse a connection with `OVERLOADED` (best effort — the peer may
/// already be gone) without taking it into the session machinery.
pub(crate) fn refuse_overloaded(mut stream: TcpStream, shared: &DaemonShared, why: &str) {
    shared.conns_refused.fetch_add(1, Ordering::Relaxed);
    let _ = write_msg(
        &mut stream,
        &Msg::Error {
            code: code::OVERLOADED,
            message: format!("daemon out of connection capacity: {why}"),
        },
    );
}

/// Group-commit clock for the thread backend: every sync window, nudge
/// each computation's worker(s) to fsync a dirty WAL. Replaces the old
/// per-append window check in the ingest worker.
fn wal_clock_loop(shared: &DaemonShared) {
    let window = shared.config.sync_window;
    loop {
        let g = lock(&shared.shutdown_signal);
        if *g {
            return;
        }
        let (g, _) = shared
            .shutdown_cond
            .wait_timeout(g, window)
            .unwrap_or_else(|e| e.into_inner());
        if *g {
            return;
        }
        drop(g);
        let comps: Vec<_> = lock(&shared.computations).values().cloned().collect();
        for comp in comps {
            comp.nudge_wal_sync();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<DaemonShared>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Reap finished connection threads first: the registry must be
        // bounded by *concurrent* connections, not total ever served.
        let mut conns = lock(&shared.conns);
        conns.retain(|h| !h.is_finished());
        if conns.len() >= shared.config.max_conn_threads {
            drop(conns);
            refuse_overloaded(stream, &shared, "connection-thread limit reached");
            continue;
        }
        drop(conns);
        if shared.spawns_failing() {
            refuse_overloaded(stream, &shared, "cannot spawn connection thread");
            continue;
        }
        // Hand the stream to the thread through a slot: if spawn fails
        // (thread/fd exhaustion) the closure is consumed by Builder::spawn,
        // but the slot lets us take the stream back and refuse it with
        // OVERLOADED instead of panicking the accept loop.
        let slot = Arc::new(Mutex::new(Some(stream)));
        let thread_slot = Arc::clone(&slot);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("cts-daemon-conn".into())
            .spawn(move || {
                if let Some(stream) = lock(&thread_slot).take() {
                    let _ = serve_connection(stream, &conn_shared);
                }
            });
        match spawned {
            Ok(handle) => {
                shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
                lock(&shared.conns).push(handle);
            }
            Err(e) => {
                eprintln!("[cts-daemon] connection thread spawn failed: {e}");
                if let Some(stream) = lock(&slot).take() {
                    refuse_overloaded(stream, &shared, "cannot spawn connection thread");
                }
            }
        }
    }
}

/// One connection on the thread transport: read a frame, step the session,
/// wait inline for whatever the step needs.
fn serve_connection(stream: TcpStream, shared: &DaemonShared) -> io::Result<()> {
    shared.live_conns.fetch_add(1, Ordering::AcqRel);
    let r = serve_connection_inner(stream, shared);
    shared.live_conns.fetch_sub(1, Ordering::AcqRel);
    r
}

fn serve_connection_inner(mut stream: TcpStream, shared: &DaemonShared) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    stream.set_nodelay(true)?;
    let mut session = Session::new();

    loop {
        if shared.shutting_down() {
            let _ = write_msg(
                &mut stream,
                &Msg::Error {
                    code: code::SHUTTING_DOWN,
                    message: "daemon is shutting down".into(),
                },
            );
            return Ok(());
        }
        let payload = match recv_frame(&mut stream)? {
            Recv::Idle => continue,
            Recv::Eof => return Ok(()),
            Recv::Frame(p) => p,
        };
        match session.on_frame(shared, &payload) {
            Step::Reply(reply) => write_msg(&mut stream, &reply)?,
            Step::ReplyThenClose(reply) => {
                write_msg(&mut stream, &reply)?;
                return Ok(());
            }
            Step::Close => return Ok(()),
            Step::Ingest(events) => {
                // Blocks while the ingest queue is full: backpressure
                // reaches the peer through this connection's TCP window.
                if session.computation().enqueue_events(events).is_err() {
                    write_msg(&mut stream, &computation_closed())?;
                }
            }
            Step::Flush { expected_total } => {
                let outcome = session
                    .computation()
                    .flush(expected_total, shared.config.flush_timeout);
                write_msg(&mut stream, &flush_reply(expected_total, outcome))?;
            }
            Step::Subscribe(grant) => {
                write_msg(&mut stream, &grant.ack(shared))?;
                // The connection turns into a push stream from here on.
                return replication::serve_subscription(stream, shared, &grant);
            }
        }
    }
}

/// Directory name for a computation: every byte outside `[a-zA-Z0-9_-]` is
/// percent-encoded (injective, so distinct names never collide, and names
/// like `pvm/stencil` or `..` cannot escape the data root). The `meta` file
/// holds the authoritative name.
fn comp_dir_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

/// Build the spawn config for a computation, durable iff the daemon has a
/// data directory.
fn computation_config(
    shared: &DaemonShared,
    name: &str,
    num_processes: u32,
    max_cluster_size: u32,
) -> ComputationConfig {
    let durability = shared
        .config
        .data_dir
        .as_ref()
        .map(|root| DurabilityConfig {
            dir: root.join(comp_dir_name(name)),
            sync_window: shared.config.sync_window,
            checkpoint_every: shared.config.checkpoint_every,
            wal_byte_budget: shared.config.wal_byte_budget,
        });
    let strategy = match shared.config.adaptive {
        Some(mut params) => {
            params.max_cluster_size = max_cluster_size as usize;
            StampStrategy::Adaptive(params)
        }
        None => StampStrategy::Merge1st {
            max_cluster_size: max_cluster_size as usize,
        },
    };
    ComputationConfig {
        name: name.to_string(),
        num_processes,
        max_cluster_size,
        strategy,
        queue_capacity: shared.config.queue_capacity,
        epoch_every: shared.config.epoch_every,
        shards: shared.config.shards,
        auto_scale: shared.config.auto_scale,
        balance: shared.config.balance,
        pin_cores: shared.config.pin_cores,
        placement: shared.config.placement,
        durability,
        query_cache_capacity: shared.config.query_cache_capacity,
        retain_epochs: shared.config.retain_epochs,
        retain_bytes: shared.config.retain_bytes,
    }
}

/// Startup recovery: bring every on-disk computation back, then open the
/// gate. Runs on its own thread so the listener is up (and answering
/// `RECOVERING`) while potentially large WALs replay.
fn recover_all(shared: &Arc<DaemonShared>, dirs: Vec<PathBuf>) {
    for dir in dirs {
        if shared.shutting_down() {
            break;
        }
        match recover_one(shared, &dir) {
            Ok((name, report)) => eprintln!(
                "[cts-daemon] recovered {name:?}: {} events \
                 ({} from checkpoint, {} from WAL across {} segment(s)){}",
                report.total_events(),
                report.checkpoint_events,
                report.wal_events,
                report.segments_scanned,
                match &report.torn_tail {
                    Some(t) => format!("; truncated torn tail [{t}]"),
                    None => String::new(),
                },
            ),
            Err(e) => eprintln!("[cts-daemon] recovery of {} failed: {e}", dir.display()),
        }
    }
    shared.recovering.store(false, Ordering::Release);
}

fn recover_one(
    shared: &Arc<DaemonShared>,
    dir: &std::path::Path,
) -> io::Result<(String, crate::checkpoint::RecoveryReport)> {
    let meta = checkpoint::load_meta(dir)?;
    let mut config = computation_config(
        shared,
        &meta.name,
        meta.num_processes,
        meta.max_cluster_size,
    );
    // Trust the scanned directory over the derived name (a rename must not
    // orphan state).
    config
        .durability
        .as_mut()
        .expect("recovery only runs with a data_dir")
        .dir = dir.to_path_buf();
    let (comp, report) = Computation::spawn_durable(config)?;
    lock(&shared.computations).insert(meta.name.clone(), comp);
    Ok((meta.name, report))
}

impl DaemonShared {
    /// Join the live computation `name`, or open it: fresh, or — with a data
    /// directory — recovered from what an earlier run left on disk. The
    /// flag says whether it was already live. Parameters must match an
    /// existing computation's exactly; callers range-check them first
    /// (`crate::session::hello`).
    pub(crate) fn open_computation(
        &self,
        name: String,
        num_processes: u32,
        max_cluster_size: u32,
    ) -> Result<(Arc<Computation>, bool), String> {
        let mut comps = lock(&self.computations);
        if let Some(existing) = comps.get(&name) {
            if existing.num_processes != num_processes
                || existing.max_cluster_size != max_cluster_size
            {
                return Err(format!(
                    "computation {name:?} exists with {} processes / max cluster {}, \
                     hello asked for {num_processes} / {max_cluster_size}",
                    existing.num_processes, existing.max_cluster_size
                ));
            }
            return Ok((Arc::clone(existing), true));
        }
        let config = computation_config(self, &name, num_processes, max_cluster_size);
        let comp = if config.durability.is_some() {
            // The directory may hold state from a run that predates this
            // process (e.g. it was added while the daemon was down): recover
            // it rather than shadowing it. A parameter mismatch against the
            // on-disk meta is a BAD_HELLO, same as against a live computation.
            match Computation::spawn_durable(config) {
                Ok((comp, report)) => {
                    if report.total_events() > 0 {
                        eprintln!(
                            "[cts-daemon] {name:?}: restored {} events from disk on hello",
                            report.total_events()
                        );
                    }
                    comp
                }
                Err(e) => return Err(format!("cannot open durable computation {name:?}: {e}")),
            }
        } else {
            Computation::spawn(config)
        };
        comps.insert(name, Arc::clone(&comp));
        Ok((comp, false))
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
