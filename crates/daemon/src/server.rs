//! The TCP daemon: start-up and shutdown, and the computation registry.
//!
//! The protocol lives in `crate::session`: a connection hands each frame
//! to `Session::on_frame` and acts on the `Step` it returns. The transport
//! that owns the sockets is the epoll poller pool in [`crate::event_loop`]:
//! a few poller threads own *all* connections through edge-triggered
//! readiness, so the connection count is bounded by fds, not threads. It
//! is Linux-only; elsewhere [`Daemon::start`] fails with
//! [`io::ErrorKind::Unsupported`], as it fails with the set-up error when
//! epoll cannot start.
//!
//! One *ingest worker* thread (or shard pool) per computation does the
//! actual clustering work (see [`crate::pipeline::Computation`]).
//!
//! Shutdown is cooperative: [`Daemon::shutdown`] raises the flag, wakes the
//! pollers (eventfd), joins the network threads, then shuts every
//! computation down (drop the master sender → the worker drains its queue,
//! publishes a final snapshot, and exits).

use crate::checkpoint;
use crate::pipeline::{lock, Computation, ComputationConfig, DurabilityConfig};
use crate::query_pool::QueryPool;
use crate::replication;
use crate::shard::{PlacementParams, StampStrategy};
use crate::wire::{code, write_msg, Msg};
use cts_core::cluster::AdaptiveParams;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon-wide tunables.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Poller threads; `0` = one per core, capped at 4 (pollers do little
    /// CPU work per event — more just shards the fd space).
    pub pollers: usize,
    /// Ingest queue bound per computation, in batches.
    pub queue_capacity: usize,
    /// Snapshot publication cadence, in delivered events.
    pub epoch_every: u64,
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
    /// `--pin-cores`: pin shard workers and pollers to CPUs of the
    /// process's CPU mask (shards from its front, pollers from its back).
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
            pollers: 0,
            queue_capacity: 64,
            epoch_every: 4096,
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
    pub(crate) next_session: AtomicU64,
    /// True while startup recovery replays on-disk state; every request
    /// except `Shutdown`/`Goodbye` is refused with `RECOVERING` until then.
    pub(crate) recovering: AtomicBool,
    /// Shared worker pool for batched query evaluation.
    pub(crate) query_pool: QueryPool,
    /// Connections currently being served.
    pub(crate) live_conns: AtomicU64,
    /// Connections accepted / refused-with-OVERLOADED since start.
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_refused: AtomicU64,
    /// Test hook: refuse every new connection as if the daemon were out of
    /// capacity, exercising the OVERLOADED degradation.
    fail_spawns: AtomicBool,
    /// This leader's incarnation number (persisted in `data_dir/
    /// leader.epoch`, incremented every start); the high half of every
    /// granted replication lease. `1` for in-memory daemons (which refuse
    /// `Subscribe` anyway).
    pub(crate) leader_epoch: u64,
    /// Low-half counter for minting replication leases.
    pub(crate) lease_counter: AtomicU64,
    /// One wake eventfd per poller, so shutdown (and flush completions) can
    /// interrupt `epoll_wait`.
    #[cfg(target_os = "linux")]
    pub(crate) net_wakes: Mutex<Vec<Arc<crate::netpoll::EventFd>>>,
}

/// A running daemon. Dropping it without [`shutdown`](Daemon::shutdown)
/// leaves the threads running until process exit; tests and the binary
/// always shut down explicitly.
pub struct Daemon {
    shared: Arc<DaemonShared>,
    recovery_thread: Option<std::thread::JoinHandle<()>>,
    poller_threads: Vec<std::thread::JoinHandle<()>>,
    /// `--follow` mode: the replication runtime (discovery + per-computation
    /// stream workers).
    follower_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind and start serving. With a [`DaemonConfig::data_dir`], on-disk
    /// computations are recovered in the background; queries answer
    /// `RECOVERING` until [`is_recovering`](Self::is_recovering) is false.
    /// Fails when the poller pool cannot start, before recovery begins.
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
        // The pollers come up before recovery spawns anything, so a failed
        // start leaves no computation behind with a writer on its WAL.
        #[cfg(target_os = "linux")]
        let started = crate::event_loop::start(listener, Arc::clone(&shared));
        #[cfg(not(target_os = "linux"))]
        let started = Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the daemon serves over epoll, which is Linux-only",
        ));
        let poller_threads = match started {
            Ok(handles) => handles,
            Err(e) => {
                // Pollers started before the failure exit on the wake.
                shared.request_shutdown();
                shared.query_pool.shutdown();
                return Err(e);
            }
        };
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
            recovery_thread,
            poller_threads,
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
        if let Some(h) = self.recovery_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.follower_thread.take() {
            let _ = h.join();
        }
        for h in self.poller_threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Connections currently being served.
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

    /// Test hook: refuse new connections as if the daemon were out of
    /// capacity, so tests can exercise the OVERLOADED path without
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
        // Wake the pollers out of epoll_wait.
        #[cfg(target_os = "linux")]
        for wake in lock(&self.net_wakes).iter() {
            wake.wake();
        }
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
