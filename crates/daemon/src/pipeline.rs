//! The per-computation ingest pipeline and its snapshot/epoch discipline.
//!
//! Each computation the daemon monitors gets one [`Computation`]: a single
//! ingest worker thread that owns the [`ReorderBuffer`], the online
//! [`ClusterEngine`], and the delivered log — the only per-event structure
//! on the ingest path besides the stamps. The WAL and the replication
//! stream are cursors into that log (`wal::WalLane`); the partial-order data
//! structure queries read is the published [`Snapshot`] built from it.
//! Sessions enqueue event batches onto a *bounded* channel (backpressure: a
//! full queue blocks the connection thread, which in turn stops reading its
//! socket, which pushes back on the client through TCP flow control).
//!
//! Queries never touch the engine. The worker periodically *publishes* an
//! immutable [`Snapshot`] — a delivery-order [`Trace`] of everything
//! delivered so far plus the engine's [`ClusterTimestamps`] for exactly that
//! prefix — and query threads read the current `Arc<Snapshot>` without
//! blocking ingest (the engine clone behind
//! [`ClusterEngine::snapshot`] happens on the worker; readers only swap an
//! `Arc`). The `Flush` barrier lets a client wait until a snapshot covering
//! a known event count is live, which is what makes answers deterministic
//! enough to differentially test against the offline batch engine.

use crate::checkpoint::{self, CompMeta, RecoveryReport};
use crate::metrics::Metrics;
use crate::reorder::ReorderBuffer;
use crate::shard::{PlacementParams, StampStrategy};
use crate::sharded::{PlacementInfo, ShardedRuntime};
use crate::wal::{Barrier, WalLane};
use cts_core::cluster::{AdaptiveEngine, ClusterTimestamps};
use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_model::{Event, Trace};
use cts_store::{EpochRetainer, SharedQueryCache};
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Durability tunables for one computation (see [`crate::wal`] and
/// [`crate::checkpoint`]).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// This computation's data directory (`meta`, checkpoints, WAL
    /// segments live here).
    pub dir: PathBuf,
    /// Group-commit window: the WAL fsyncs at most once per window on the
    /// ingest path (`Duration::ZERO` = fsync every batch). `Flush` barriers
    /// and checkpoints always sync regardless of the window.
    pub sync_window: Duration,
    /// Write a checkpoint (and rotate the WAL) every this many delivered
    /// events; `0` disables checkpointing (WAL-only durability).
    pub checkpoint_every: u64,
    /// Test failpoint: simulate a crash (torn write, then hard errors)
    /// after this many WAL bytes. `None` in production.
    pub wal_byte_budget: Option<u64>,
}

/// Parameters of one monitored computation.
#[derive(Clone, Debug)]
pub struct ComputationConfig {
    pub name: String,
    pub num_processes: u32,
    pub max_cluster_size: u32,
    /// The clustering strategy the engine runs. Must agree with
    /// `max_cluster_size` (the strategy's own size bound is authoritative
    /// for stamping; the field above sizes encodings and metadata).
    pub strategy: StampStrategy,
    /// Bound of the ingest command queue, in batches.
    pub queue_capacity: usize,
    /// Publish a snapshot every this many delivered events (also on flush
    /// and on worker exit).
    pub epoch_every: u64,
    /// Ingest shards. `1` (or a single-process computation) runs the
    /// classic single-worker pipeline; `>= 2` runs the sharded runtime
    /// ([`crate::sharded`]) with one delivery core per process group,
    /// clamped to the number of processes.
    pub shards: u32,
    /// Autoscale the shard count at runtime (`--shards auto`): the sharded
    /// runtime pre-allocates worker slots up to the host's parallelism and
    /// live-splits hot shards / retires cold ones between messages, guided
    /// by the [`crate::shard::PlacementEngine`]. Starts at `shards` active.
    pub auto_scale: bool,
    /// Occupancy-driven cluster stealing at a fixed shard count
    /// (`--balance`). Implied by `auto_scale` once it hits a bound.
    pub balance: bool,
    /// Pin shard workers to topology-chosen CPUs (`--pin-cores`): one
    /// worker per physical core, shards packed into one LLC/NUMA domain.
    pub pin_cores: bool,
    /// Placement tuning; `None` selects [`PlacementParams::default`]
    /// (tests pass aggressive thresholds for determinism).
    pub placement: Option<PlacementParams>,
    /// `Some` makes the computation durable: delivered events are
    /// write-ahead logged and checkpointed, and
    /// [`Computation::spawn_durable`] recovers state from disk.
    pub durability: Option<DurabilityConfig>,
    /// Entry bound per layer of the shared query cache (see
    /// [`cts_store::SharedQueryCache`]); `0` selects the default.
    pub query_cache_capacity: usize,
    /// Retained-epoch ring capacity for time-travel queries (see
    /// [`cts_store::EpochRetainer`]); `0` selects [`DEFAULT_RETAIN_EPOCHS`].
    pub retain_epochs: usize,
    /// Byte budget for retained epochs; `0` means no byte cap.
    pub retain_bytes: u64,
}

/// Default [`ComputationConfig::query_cache_capacity`]: asks for ~64k
/// greatest-concurrent vectors, which the memo's own ceiling of 1 024 per
/// lock shard turns into 16 384 (an entry is one slot per process, ~12·N
/// bytes, so a full memo stays in the tens of MB).
pub const DEFAULT_QUERY_CACHE_CAPACITY: usize = 1 << 16;

/// Default [`ComputationConfig::retain_epochs`]: how many published epochs
/// stay answerable via `QueryAsOf`/`ReplayInterval` before GC retires them.
pub const DEFAULT_RETAIN_EPOCHS: usize = 8;

impl ComputationConfig {
    /// Does this configuration select the sharded runtime?
    pub fn is_sharded(&self) -> bool {
        self.shards >= 2 && self.num_processes >= 2
    }
}

/// An immutable published epoch: the delivered prefix as a valid
/// delivery-order trace, with cluster timestamps for exactly that prefix.
pub struct Snapshot {
    pub epoch: u64,
    /// Events covered (== `trace.num_events()`).
    pub delivered: u64,
    pub trace: Trace,
    pub cts: ClusterTimestamps,
}

impl Snapshot {
    /// Estimated resident bytes of this snapshot — the trace's event array
    /// plus per-event stamp state. Retention accounting only (the byte cap
    /// of [`cts_store::EpochRetainer`]); not an exact heap measurement.
    pub fn footprint(&self) -> u64 {
        let per_event = std::mem::size_of::<Event>() as u64 + 16;
        1024 + self.delivered * per_event
    }
}

/// Commands a session enqueues to the ingest worker.
enum IngestCmd {
    Events(Vec<Event>),
    Publish,
    /// Group-commit tick: sync the WAL if dirty. Sent by the daemon's
    /// timer (timerfd on the epoll backend, a timer thread on the thread
    /// backend) instead of the worker checking the window on every append.
    SyncWal,
}

/// Why a non-blocking enqueue did not accept a batch.
pub enum TryEnqueue {
    /// The ingest queue is full; the (unaccepted remainder of the) batch is
    /// handed back so the caller can retry after backing off. Event order
    /// within the returned vector is preserved.
    Backpressure(Vec<Event>),
    /// The computation is shut down; the batch can never be accepted.
    Closed,
}

#[derive(Default)]
pub(crate) struct Progress {
    pub(crate) delivered: u64,
    pub(crate) snapshot_delivered: u64,
    pub(crate) epoch: u64,
}

/// Why a flush barrier failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushError {
    /// The target count was not delivered before the deadline (the stream is
    /// incomplete or stalled in the reorder buffer). Carries the count
    /// delivered so far.
    Timeout { delivered: u64 },
    /// The computation is shutting down.
    Closed,
}

/// The ingest side refused a batch because the worker is gone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Closed;

/// One committed (durably synced) run of delivered events, broadcast to
/// replication subscribers. `commit` is the durable watermark as of the
/// sync that produced the batch — everything at offset <= `commit` survives
/// a crash of this daemon.
pub(crate) struct ReplBatch {
    /// 1-based delivery offset of `events[0]`.
    pub(crate) first_offset: u64,
    pub(crate) commit: u64,
    pub(crate) events: Vec<Event>,
}

/// Per-subscriber channel bound, in batches. A subscriber that falls this
/// far behind the live stream (a stalled follower connection) is dropped by
/// the ingest worker; its streamer notices the closed channel, ends the
/// connection, and the follower resubscribes from its durable position.
pub(crate) const REPL_SUBSCRIBER_QUEUE: usize = 1024;

/// The replication fan-out point of one computation: live subscriber
/// channels fed by the ingest worker at every successful WAL sync, plus the
/// durable watermark catch-up reads are capped at.
#[derive(Default)]
pub(crate) struct ReplHub {
    pub(crate) subscribers: Mutex<Vec<SyncSender<Arc<ReplBatch>>>>,
    /// Events covered by the last successful WAL sync. Monotone; store
    /// ordering is Release so a subscriber that reads the watermark sees
    /// the on-disk bytes it promises.
    pub(crate) durable: std::sync::atomic::AtomicU64,
}

/// State shared between the ingest worker and query threads. The worker
/// holds only this (not the [`Computation`]), so dropping every
/// `Arc<Computation>` drops the master sender and the worker drains and
/// exits on its own.
pub(crate) struct CompShared {
    pub(crate) snapshot: cts_store::sync::RwLock<Arc<Snapshot>>,
    pub(crate) progress: Mutex<Progress>,
    pub(crate) cond: Condvar,
    /// Shared with the WAL lanes, which count their barriers into it.
    pub(crate) metrics: Arc<Metrics>,
    /// Raised by [`Computation::kill`]: the worker exits at the next
    /// command without the graceful final sync/checkpoint/publish.
    pub(crate) killed: AtomicBool,
    /// Query memo shared by every connection of this computation, carried
    /// across epochs (prefix-monotone snapshots keep old entries valid).
    pub(crate) query_cache: Arc<SharedQueryCache>,
    /// Retained-epoch ring: published snapshots stay answerable for
    /// time-travel queries until GC retires them (see
    /// [`cts_store::EpochRetainer`]).
    pub(crate) retainer: Arc<EpochRetainer<Snapshot>>,
    /// Replication fan-out: subscriber channels + durable watermark.
    pub(crate) repl: ReplHub,
}

/// How a computation's ingest runs: one worker thread, or the sharded
/// runtime.
enum EngineMode {
    Single {
        sender: Mutex<Option<SyncSender<IngestCmd>>>,
        worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    },
    Sharded(Arc<ShardedRuntime>),
}

/// One monitored computation: ingest worker(s) + published snapshot.
pub struct Computation {
    pub name: String,
    pub num_processes: u32,
    pub max_cluster_size: u32,
    /// This computation's data directory when durable (where replication
    /// catch-up reads checkpoints and WAL segments from).
    dur_dir: Option<PathBuf>,
    mode: EngineMode,
    shared: Arc<CompShared>,
}

impl Computation {
    /// Spawn the ingest worker for a new computation. Any
    /// [`ComputationConfig::durability`] is honored for *logging*, but
    /// nothing is recovered — use [`spawn_durable`](Self::spawn_durable) to
    /// restore state from disk first.
    pub fn spawn(config: ComputationConfig) -> Arc<Computation> {
        if config.is_sharded() {
            let (comp, rt) = Self::spawn_sharded(&config);
            if let Err(e) = rt.bootstrap(false) {
                eprintln!(
                    "[cts-daemon] {}: sharded bootstrap failed, running in-memory: {e}",
                    comp.name
                );
            }
            return comp;
        }
        Self::spawn_inner(config, Vec::new())
    }

    /// Recover a durable computation from its data directory (newest valid
    /// checkpoint + contiguous WAL tail, torn tails truncated), replay the
    /// recovered delivery order through the normal pipeline, and only then
    /// return. Requires `config.durability`.
    pub fn spawn_durable(
        config: ComputationConfig,
    ) -> io::Result<(Arc<Computation>, RecoveryReport)> {
        if config.is_sharded() {
            assert!(
                config.durability.is_some(),
                "spawn_durable requires a DurabilityConfig"
            );
            let (comp, rt) = Self::spawn_sharded(&config);
            let report = rt.bootstrap(true)?;
            return Ok((comp, report));
        }
        let dur = config
            .durability
            .clone()
            .expect("spawn_durable requires a DurabilityConfig");
        let meta = CompMeta {
            name: config.name.clone(),
            num_processes: config.num_processes,
            max_cluster_size: config.max_cluster_size,
        };
        checkpoint::ensure_meta(&dur.dir, &meta)?;
        let (replay, report) = checkpoint::recover_dir(&dur.dir)?;
        let replayed = replay.len() as u64;
        let comp = Self::spawn_inner(config, replay);
        // Block until the worker has applied the whole recovered prefix, so
        // callers observe fully recovered state.
        if replayed > 0 {
            comp.flush(replayed, Duration::from_secs(600))
                .map_err(|e| io::Error::other(format!("recovery replay stalled: {e:?}")))?;
        }
        Ok((comp, report))
    }

    fn empty_snapshot(config: &ComputationConfig) -> Snapshot {
        Snapshot {
            epoch: 0,
            delivered: 0,
            trace: Trace::from_delivery_order(
                config.name.clone(),
                config.num_processes,
                Vec::new(),
            )
            .expect("empty order is valid"),
            cts: match config.strategy {
                StampStrategy::Merge1st { max_cluster_size } => {
                    ClusterEngine::new(config.num_processes, MergeOnFirst::new(max_cluster_size))
                        .finish()
                }
                StampStrategy::Adaptive(params) => {
                    AdaptiveEngine::new(config.num_processes, params).finish()
                }
            },
        }
    }

    fn new_shared(config: &ComputationConfig) -> Arc<CompShared> {
        Arc::new(CompShared {
            snapshot: cts_store::sync::RwLock::new(Arc::new(Self::empty_snapshot(config))),
            progress: Mutex::new(Progress::default()),
            cond: Condvar::new(),
            metrics: Arc::new(Metrics::new()),
            killed: AtomicBool::new(false),
            query_cache: Arc::new(SharedQueryCache::new(match config.query_cache_capacity {
                0 => DEFAULT_QUERY_CACHE_CAPACITY,
                n => n,
            })),
            retainer: Arc::new(EpochRetainer::new(
                match config.retain_epochs {
                    0 => DEFAULT_RETAIN_EPOCHS,
                    n => n,
                },
                config.retain_bytes,
            )),
            repl: ReplHub::default(),
        })
    }

    /// Spawn the sharded runtime's workers. The caller must still run
    /// [`ShardedRuntime::bootstrap`] (recovery, WAL segments, first cut).
    fn spawn_sharded(config: &ComputationConfig) -> (Arc<Computation>, Arc<ShardedRuntime>) {
        let shared = Self::new_shared(config);
        let rt = ShardedRuntime::spawn(config, Arc::clone(&shared));
        let comp = Arc::new(Computation {
            name: config.name.clone(),
            num_processes: config.num_processes,
            max_cluster_size: config.max_cluster_size,
            dur_dir: config.durability.as_ref().map(|d| d.dir.clone()),
            mode: EngineMode::Sharded(Arc::clone(&rt)),
            shared,
        });
        (comp, rt)
    }

    fn spawn_inner(config: ComputationConfig, replay: Vec<Event>) -> Arc<Computation> {
        let (tx, rx) = sync_channel(config.queue_capacity.max(1));
        let shared = Self::new_shared(&config);
        // The recovered prefix is on disk already (that is where it came
        // from): publish its length as the durable watermark *before* the
        // worker runs, so a subscription racing recovery cannot observe 0
        // and skip the catch-up read.
        shared
            .repl
            .durable
            .store(replay.len() as u64, Ordering::Release);
        let worker_shared = Arc::clone(&shared);
        let name = config.name.clone();
        let num_processes = config.num_processes;
        let max_cluster_size = config.max_cluster_size;
        let dur_dir = config.durability.as_ref().map(|d| d.dir.clone());
        let handle = std::thread::Builder::new()
            .name(format!("ingest-{name}"))
            .spawn(move || worker_loop(&worker_shared, rx, config, replay))
            .expect("spawn ingest worker");
        Arc::new(Computation {
            name,
            num_processes,
            max_cluster_size,
            dur_dir,
            mode: EngineMode::Single {
                sender: Mutex::new(Some(tx)),
                worker: Mutex::new(Some(handle)),
            },
            shared,
        })
    }

    /// Enqueue a batch for ingest. Blocks when the queue is full
    /// (backpressure); fails only once the computation is shut down.
    pub fn enqueue_events(&self, batch: Vec<Event>) -> Result<(), Closed> {
        match &self.mode {
            EngineMode::Single { sender, .. } => {
                let tx = lock(sender).clone().ok_or(Closed)?;
                tx.send(IngestCmd::Events(batch)).map_err(|_| Closed)
            }
            EngineMode::Sharded(rt) => rt.enqueue(batch).map_err(|()| Closed),
        }
    }

    /// Non-blocking enqueue for the readiness-driven front end: a poller
    /// thread must never park on a full ingest queue (that would stall
    /// every other connection it owns). On backpressure the batch comes
    /// back and the caller re-offers it after its readiness loop turns.
    pub fn try_enqueue_events(&self, batch: Vec<Event>) -> Result<(), TryEnqueue> {
        match &self.mode {
            EngineMode::Single { sender, .. } => {
                let tx = lock(sender).clone().ok_or(TryEnqueue::Closed)?;
                match tx.try_send(IngestCmd::Events(batch)) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(IngestCmd::Events(batch))) => {
                        Err(TryEnqueue::Backpressure(batch))
                    }
                    Err(TrySendError::Full(_)) => unreachable!("we only sent Events"),
                    Err(TrySendError::Disconnected(_)) => Err(TryEnqueue::Closed),
                }
            }
            EngineMode::Sharded(rt) => match rt.try_enqueue(batch) {
                Ok(()) => Ok(()),
                Err(Some(leftover)) => Err(TryEnqueue::Backpressure(leftover)),
                Err(None) => Err(TryEnqueue::Closed),
            },
        }
    }

    /// Group-commit tick: ask the worker(s) to sync a dirty WAL. Lossy by
    /// design — if the queue is full the worker is busy ingesting and the
    /// next tick (or flush barrier) covers durability; a full queue must
    /// never block the timer thread driving every computation's windows.
    pub fn nudge_wal_sync(&self) {
        match &self.mode {
            EngineMode::Single { sender, .. } => {
                if let Some(tx) = lock(sender).clone() {
                    let _ = tx.try_send(IngestCmd::SyncWal);
                }
            }
            EngineMode::Sharded(rt) => rt.nudge_wal(),
        }
    }

    /// Non-blocking diagnostic (safe to call from a watchdog).
    #[doc(hidden)]
    #[allow(dead_code)] // diagnostic: referenced from tests only
    pub(crate) fn debug_nofreeze(&self) -> String {
        match &self.mode {
            EngineMode::Single { .. } => "single mode".to_string(),
            EngineMode::Sharded(rt) => rt.debug_nofreeze(),
        }
    }

    /// How many ingest shards this computation runs right now (1 in single
    /// mode; the *active* count under autoscaling).
    pub fn num_shards(&self) -> usize {
        match &self.mode {
            EngineMode::Single { .. } => 1,
            EngineMode::Sharded(rt) => rt.active_shards(),
        }
    }

    /// The placement state behind the `QueryPlacement` wire verb: active
    /// shard count, pinning, rescale/steal totals, per-shard occupancy
    /// shares, and the process→shard routing table. Single mode reports the
    /// trivial one-shard placement.
    pub(crate) fn placement(&self) -> PlacementInfo {
        match &self.mode {
            EngineMode::Single { .. } => PlacementInfo {
                shards: 1,
                pinned: false,
                rescales: 0,
                steals: 0,
                occupancy_q16: vec![1 << 16],
                routing: vec![0; self.num_processes as usize],
            },
            EngineMode::Sharded(rt) => rt.placement_info(),
        }
    }

    /// The current published snapshot (cheap: an `Arc` clone under a read
    /// lock held for nanoseconds).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.shared.snapshot.read())
    }

    /// This computation's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The query cache shared by this computation's connections.
    pub fn query_cache(&self) -> &Arc<SharedQueryCache> {
        &self.shared.query_cache
    }

    /// The retained-epoch ring backing `QueryAsOf`/`ReplayInterval`.
    pub fn retainer(&self) -> &Arc<EpochRetainer<Snapshot>> {
        &self.shared.retainer
    }

    /// Events covered by the last successful WAL sync (the replication
    /// commit watermark). 0 for non-durable computations.
    pub fn durable_offset(&self) -> u64 {
        self.shared.repl.durable.load(Ordering::Acquire)
    }

    /// Register a live replication subscriber: every batch the ingest
    /// worker syncs from now on is offered to `tx`. A subscriber whose
    /// channel fills up or disconnects is silently dropped.
    pub(crate) fn add_repl_subscriber(&self, tx: SyncSender<Arc<ReplBatch>>) {
        lock(&self.shared.repl.subscribers).push(tx);
    }

    /// The data directory this computation persists to, if durable.
    pub fn durability_dir(&self) -> Option<&std::path::Path> {
        self.dur_dir.as_deref()
    }

    /// Events delivered so far (the count the flush barrier waits on). May
    /// run ahead of the published snapshot, never behind it.
    pub fn delivered(&self) -> u64 {
        lock(&self.shared.progress).delivered
    }

    /// Barrier: wait until `expected` events are delivered *and* a snapshot
    /// covering them is published. Returns `(epoch, delivered)`.
    pub fn flush(&self, expected: u64, timeout: Duration) -> Result<(u64, u64), FlushError> {
        let deadline = Instant::now() + timeout;
        let shared = &self.shared;
        let mut g = lock(&shared.progress);
        while g.delivered < expected {
            let now = Instant::now();
            if now >= deadline {
                return Err(FlushError::Timeout {
                    delivered: g.delivered,
                });
            }
            let (g2, _) = shared
                .cond
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = g2;
        }
        if g.snapshot_delivered < expected {
            drop(g);
            match &self.mode {
                EngineMode::Single { sender, .. } => {
                    // A publish may race in between; sending a redundant
                    // Publish is harmless (the worker skips no-op publishes).
                    if let Some(tx) = lock(sender).clone() {
                        tx.send(IngestCmd::Publish)
                            .map_err(|_| FlushError::Closed)?;
                    }
                }
                EngineMode::Sharded(rt) => {
                    // The barrier forces durable cuts itself (no worker to
                    // nudge); a failure here is a deadline miss.
                    rt.flush_cut(expected, deadline).map_err(|()| {
                        if rt.closed() {
                            FlushError::Closed
                        } else {
                            FlushError::Timeout {
                                delivered: lock(&shared.progress).delivered,
                            }
                        }
                    })?;
                }
            }
            g = lock(&shared.progress);
            while g.snapshot_delivered < expected {
                let now = Instant::now();
                if now >= deadline {
                    return Err(FlushError::Timeout {
                        delivered: g.delivered,
                    });
                }
                let (g2, _) = shared
                    .cond
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                g = g2;
            }
        }
        Ok((g.epoch, g.delivered))
    }

    /// Stop accepting, drain the queue, publish a final snapshot, and join
    /// the worker(s). Idempotent.
    pub fn shutdown(&self) {
        match &self.mode {
            EngineMode::Single { sender, worker } => {
                drop(lock(sender).take());
                if let Some(h) = lock(worker).take() {
                    let _ = h.join();
                }
            }
            EngineMode::Sharded(rt) => rt.shutdown(),
        }
    }

    /// Crash-stop for recovery testing: the worker exits at the next
    /// command boundary *without* the graceful final WAL sync, checkpoint,
    /// or snapshot — queued batches are discarded. On-disk state is left
    /// exactly as the group-commit discipline last wrote it, which is what
    /// restart-and-recover tests must cope with. Idempotent.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::Release);
        match &self.mode {
            EngineMode::Single { sender, worker } => {
                drop(lock(sender).take());
                if let Some(h) = lock(worker).take() {
                    let _ = h.join();
                }
            }
            EngineMode::Sharded(rt) => rt.kill(),
        }
    }
}

impl Drop for Computation {
    fn drop(&mut self) {
        // Release the worker(s) without joining (they drain and exit once
        // told); an explicit shutdown() already joined.
        match &self.mode {
            EngineMode::Single { sender, .. } => drop(lock(sender).take()),
            EngineMode::Sharded(rt) => rt.request_stop(),
        }
    }
}

/// The single worker's engine under either strategy. The adaptive variant
/// *is* the offline [`AdaptiveEngine`], run in delivery order — which is
/// what makes a single-worker daemon's stamps bit-identical to an offline
/// re-run of its delivered prefix (the oracle `tests/adaptive_recluster.rs`
/// enforces).
enum WorkerEngine {
    Merge1st(Box<ClusterEngine<MergeOnFirst>>),
    Adaptive(Box<AdaptiveEngine>),
}

impl WorkerEngine {
    fn new(n: u32, strategy: StampStrategy) -> WorkerEngine {
        match strategy {
            StampStrategy::Merge1st { max_cluster_size } => WorkerEngine::Merge1st(Box::new(
                ClusterEngine::new(n, MergeOnFirst::new(max_cluster_size)),
            )),
            StampStrategy::Adaptive(params) => {
                WorkerEngine::Adaptive(Box::new(AdaptiveEngine::new(n, params)))
            }
        }
    }

    fn accept(&mut self, ev: Event) {
        match self {
            WorkerEngine::Merge1st(e) => e.accept(ev),
            WorkerEngine::Adaptive(e) => e.accept(ev),
        }
    }

    fn snapshot(&self) -> ClusterTimestamps {
        match self {
            WorkerEngine::Merge1st(e) => e.snapshot(),
            WorkerEngine::Adaptive(e) => e.snapshot(),
        }
    }

    fn num_migrations(&self) -> u64 {
        match self {
            WorkerEngine::Merge1st(_) => 0,
            WorkerEngine::Adaptive(e) => e.num_migrations() as u64,
        }
    }

    fn num_forced_full(&self) -> u64 {
        match self {
            WorkerEngine::Merge1st(_) => 0,
            WorkerEngine::Adaptive(e) => e.num_forced_full() as u64,
        }
    }
}

/// The ingest worker: reorder → engine → delivered log, with the WAL lane
/// and the replication stream following the log and epochs published from
/// it.
fn worker_loop(
    shared: &CompShared,
    rx: Receiver<IngestCmd>,
    config: ComputationConfig,
    replay: Vec<Event>,
) {
    let n = config.num_processes;
    let mut buf = ReorderBuffer::new(n);
    let mut engine = WorkerEngine::new(n, config.strategy);
    let mut log: Vec<Event> = Vec::new();
    let mut last_published: Option<u64> = None;

    // `forced_epoch` republishes a recovered retention mark under its
    // original epoch number (recovery replay); `None` is a live publish.
    let publish = |engine: &WorkerEngine,
                   log: &Vec<Event>,
                   last_published: &mut Option<u64>,
                   forced_epoch: Option<u64>| {
        let delivered = log.len() as u64;
        if *last_published == Some(delivered) {
            // Nothing new since the last epoch — but still wake waiters: a
            // recovery flush parks on this condvar *after* the last mark
            // republish already set `last_published` to the full prefix, and
            // this no-op publish is the only call left to wake it.
            shared.cond.notify_all();
            return;
        }
        // The whole-prefix validation is the tripwire for a reorder-buffer
        // bug: nothing else on this path re-checks delivery order.
        let trace = Trace::from_delivery_order(config.name.clone(), n, log.clone())
            .expect("reorder buffer emits valid delivery orders");
        let cts = engine.snapshot();
        let mut g = lock(&shared.progress);
        g.epoch = forced_epoch.map_or(g.epoch + 1, |e| e.max(g.epoch + 1));
        g.snapshot_delivered = delivered;
        let epoch = g.epoch;
        drop(g);
        let snap = Arc::new(Snapshot {
            epoch,
            delivered,
            trace,
            cts,
        });
        shared
            .retainer
            .insert(epoch, delivered, snap.footprint(), Arc::clone(&snap));
        *shared.snapshot.write() = snap;
        shared
            .metrics
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
        *last_published = Some(delivered);
        // Persist the retention marks so retained history survives a
        // restart (best-effort: losing them costs epochs, never events).
        if let Some(dur) = &config.durability {
            let marks: Vec<(u64, u64)> = shared
                .retainer
                .list()
                .iter()
                .map(|i| (i.epoch, i.delivered))
                .collect();
            if let Err(e) = checkpoint::write_epoch_marks(&dur.dir, &marks) {
                eprintln!(
                    "[cts-daemon] {}: epoch marks write failed: {e}",
                    config.name
                );
            }
        }
        shared.cond.notify_all();
    };

    // Replay the recovered prefix through the same path live events take —
    // recovery *is* replay. Nothing here is WAL-appended: it is already on
    // disk (that's where it came from). Retention marks republish the
    // retained epochs at their original delivered offsets along the way, so
    // time-travel history survives the restart.
    if !replay.is_empty() {
        let marks: Vec<(u64, u64)> = config
            .durability
            .as_ref()
            .map(|d| checkpoint::load_epoch_marks(&d.dir).unwrap_or_default())
            .unwrap_or_default();
        let mut next_mark = 0;
        for ev in replay {
            match buf.offer(ev) {
                Ok(delivered) => {
                    for d in delivered {
                        engine.accept(d);
                        log.push(d);
                        while next_mark < marks.len() && marks[next_mark].1 == log.len() as u64 {
                            publish(&engine, &log, &mut last_published, Some(marks[next_mark].0));
                            next_mark += 1;
                        }
                    }
                }
                Err(reason) => {
                    eprintln!(
                        "[cts-daemon] {}: recovered event {} refused: {reason}",
                        config.name, ev.id
                    );
                }
            }
        }
        shared
            .metrics
            .events_ingested
            .store(buf.delivered_total(), Ordering::Relaxed);
        shared
            .metrics
            .drift_migrations
            .store(engine.num_migrations(), Ordering::Relaxed);
        shared
            .metrics
            .drift_forced_full
            .store(engine.num_forced_full(), Ordering::Relaxed);
        {
            let mut g = lock(&shared.progress);
            g.delivered = buf.delivered_total();
        }
        publish(&engine, &log, &mut last_published, None);
    }

    // Durability state: a lane whose first segment continues from the
    // recovered frontier (a no-op for an in-memory computation).
    let meta = config.durability.as_ref().map(|_| CompMeta {
        name: config.name.clone(),
        num_processes: n,
        max_cluster_size: config.max_cluster_size,
    });
    let mut last_checkpoint = log.len() as u64;
    let mut lane = WalLane::new(
        config.durability.clone(),
        config.name.clone(),
        Arc::clone(&shared.metrics),
    );
    lane.rotate(log.len());
    // Group commit is timer-driven: the daemon's sync timer (timerfd on the
    // epoll backend) sends SyncWal each window, so the append path syncs
    // inline only under a zero window (= fsync every batch, the crash-test
    // configuration).
    let on_append = match &config.durability {
        Some(d) if d.sync_window.is_zero() => Barrier::Forced,
        _ => Barrier::None,
    };

    // The one sync-then-broadcast sequence. The moment a barrier holds, the
    // range it covered is *committed*: the watermark advances and the run is
    // streamed to replication subscribers (only synced events ever are, so a
    // follower never applies state a leader crash could lose). The batch is
    // cut from the log only when somebody subscribes, and after the
    // watermark store — a subscriber registers first and reads the
    // watermark second, so it sees every range on one side or the other.
    let commit = |log: &[Event], durable: Range<usize>| {
        shared
            .repl
            .durable
            .store(durable.end as u64, Ordering::Release);
        if durable.is_empty() {
            return;
        }
        let mut subscribers = lock(&shared.repl.subscribers);
        if subscribers.is_empty() {
            return;
        }
        let batch = Arc::new(ReplBatch {
            first_offset: durable.start as u64 + 1,
            commit: durable.end as u64,
            events: log[durable].to_vec(),
        });
        // A full or closed channel drops the subscriber: its streamer sees
        // the disconnect and the follower resubscribes from disk.
        subscribers.retain(|tx| tx.try_send(Arc::clone(&batch)).is_ok());
    };

    for cmd in rx.iter() {
        if shared.killed.load(Ordering::Acquire) {
            return; // crash-stop: no final sync, checkpoint, or publish
        }
        match cmd {
            IngestCmd::Events(batch) => {
                let batch_start = log.len();
                for ev in batch {
                    let t0 = Instant::now();
                    match buf.offer(ev) {
                        Ok(delivered) => {
                            for d in delivered {
                                engine.accept(d);
                                log.push(d);
                            }
                        }
                        Err(reason) => {
                            eprintln!(
                                "[cts-daemon] {}: dropping event {}: {reason}",
                                config.name, ev.id
                            );
                        }
                    }
                    shared
                        .metrics
                        .ingest_ns
                        .record(t0.elapsed().as_nanos() as u64);
                }
                // Write-ahead log the newly delivered suffix.
                if log.len() > batch_start {
                    commit(&log, lane.append(&log, on_append));
                }
                shared
                    .metrics
                    .events_ingested
                    .store(buf.delivered_total(), Ordering::Relaxed);
                shared
                    .metrics
                    .duplicates_dropped
                    .store(buf.duplicates(), Ordering::Relaxed);
                shared
                    .metrics
                    .reorder_depth
                    .store(buf.depth() as u64, Ordering::Relaxed);
                shared
                    .metrics
                    .reorder_peak
                    .store(buf.peak_depth() as u64, Ordering::Relaxed);
                shared
                    .metrics
                    .drift_migrations
                    .store(engine.num_migrations(), Ordering::Relaxed);
                shared
                    .metrics
                    .drift_forced_full
                    .store(engine.num_forced_full(), Ordering::Relaxed);
                {
                    let mut g = lock(&shared.progress);
                    g.delivered = buf.delivered_total();
                }
                shared.cond.notify_all();
                let since = buf.delivered_total() - last_published.unwrap_or(0);
                if since >= config.epoch_every {
                    publish(&engine, &log, &mut last_published, None);
                }
                // Checkpoint cadence: once the WAL is synced, persist the
                // delivered prefix and rotate to a fresh segment (the old
                // one, now fully covered, is retired by write_checkpoint).
                if let (Some(dur), Some(m)) = (&config.durability, &meta) {
                    let delivered = log.len() as u64;
                    if lane.is_open()
                        && dur.checkpoint_every > 0
                        && delivered - last_checkpoint >= dur.checkpoint_every
                    {
                        commit(&log, lane.sync(&log));
                        // WAL segments behind the oldest retained epoch
                        // stay on disk even though the checkpoint covers
                        // them.
                        let floor = shared.retainer.oldest_delivered().unwrap_or(delivered);
                        // (A failed sync has closed the lane: no checkpoint.)
                        if lane.is_open() {
                            match checkpoint::write_checkpoint_with_floor(&dur.dir, m, &log, floor)
                            {
                                Ok(()) => {
                                    last_checkpoint = delivered;
                                    lane.rotate(log.len());
                                }
                                Err(e) => eprintln!(
                                    "[cts-daemon] {}: checkpoint failed: {e}",
                                    config.name
                                ),
                            }
                        }
                    }
                }
            }
            IngestCmd::Publish => {
                // A flush barrier is also the durability barrier: everything
                // delivered reaches stable storage before the barrier lifts.
                commit(&log, lane.sync(&log));
                publish(&engine, &log, &mut last_published, None)
            }
            // Timer tick: close the group-commit window (a no-op when
            // nothing was appended since the last barrier).
            IngestCmd::SyncWal => commit(&log, lane.sync(&log)),
        }
    }
    if shared.killed.load(Ordering::Acquire) {
        return; // crash-stop requested while the queue was already empty
    }
    // All senders gone: final snapshot so late readers see everything, and
    // a durable final state (synced WAL + checkpoint) so the next start
    // recovers instantly.
    publish(&engine, &log, &mut last_published, None);
    commit(&log, lane.sync(&log));
    if let (Some(dur), Some(m)) = (&config.durability, &meta) {
        let delivered = log.len() as u64;
        if lane.is_open() && dur.checkpoint_every > 0 && delivered > last_checkpoint {
            let floor = shared.retainer.oldest_delivered().unwrap_or(delivered);
            if let Err(e) = checkpoint::write_checkpoint_with_floor(&dur.dir, m, &log, floor) {
                eprintln!("[cts-daemon] {}: final checkpoint failed: {e}", config.name);
            }
        }
    }
}

/// Poison-tolerant mutex lock (a panicked ingest worker must not wedge
/// every query thread behind a poisoned lock).
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::linearize::relinearize;
    use cts_store::queries::{greatest_concurrent, ClusterBackend};
    use cts_workloads::spmd::Stencil1D;
    use cts_workloads::Workload;

    fn config(name: &str, n: u32) -> ComputationConfig {
        ComputationConfig {
            name: name.to_string(),
            num_processes: n,
            max_cluster_size: 4,
            strategy: StampStrategy::Merge1st {
                max_cluster_size: 4,
            },
            queue_capacity: 8,
            epoch_every: 64,
            shards: 1,
            auto_scale: false,
            balance: false,
            pin_cores: false,
            placement: None,
            durability: None,
            query_cache_capacity: 0,
            retain_epochs: 0,
            retain_bytes: 0,
        }
    }

    #[test]
    fn flush_then_queries_match_offline_engine() {
        let t = Stencil1D { procs: 8, iters: 6 }.generate(7);
        let comp = Computation::spawn(config("pipeline-test", t.num_processes()));
        // Stream a shuffled interleaving in small batches.
        let shuffled = relinearize(&t, 42);
        for chunk in shuffled.events().chunks(37) {
            comp.enqueue_events(chunk.to_vec()).unwrap();
        }
        let (epoch, delivered) = comp
            .flush(t.num_events() as u64, Duration::from_secs(30))
            .unwrap();
        assert!(epoch >= 1);
        assert_eq!(delivered, t.num_events() as u64);

        let snap = comp.snapshot();
        assert_eq!(snap.trace.num_events(), t.num_events());
        let offline = ClusterEngine::run(&t, MergeOnFirst::new(4));
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    snap.cts.precedes(&snap.trace, e, f),
                    offline.precedes(&t, e, f),
                    "{e} -> {f}"
                );
            }
            assert_eq!(
                greatest_concurrent(&mut ClusterBackend(&snap.cts), &snap.trace, e),
                greatest_concurrent(&mut ClusterBackend(&offline), &t, e),
                "gc({e})"
            );
        }
        assert_eq!(comp.delivered(), t.num_events() as u64);
        comp.shutdown();
    }

    #[test]
    fn sharded_flush_then_queries_match_offline_engine() {
        let t = Stencil1D { procs: 8, iters: 6 }.generate(7);
        let mut cfg = config("sharded-pipeline-test", t.num_processes());
        cfg.shards = 4;
        let comp = Computation::spawn(cfg);
        assert_eq!(comp.num_shards(), 4);
        let shuffled = relinearize(&t, 42);
        for chunk in shuffled.events().chunks(37) {
            comp.enqueue_events(chunk.to_vec()).unwrap();
        }
        let (epoch, delivered) = comp
            .flush(t.num_events() as u64, Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("flush failed: {e:?}\n{}", comp.debug_nofreeze()));
        assert!(epoch >= 1);
        assert_eq!(delivered, t.num_events() as u64);

        let snap = comp.snapshot();
        assert_eq!(snap.trace.num_events(), t.num_events());
        let offline = ClusterEngine::run(&t, MergeOnFirst::new(4));
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    snap.cts.precedes(&snap.trace, e, f),
                    offline.precedes(&t, e, f),
                    "{e} -> {f}"
                );
            }
        }
        assert_eq!(comp.delivered(), t.num_events() as u64);
        comp.shutdown();
    }

    #[test]
    fn flush_times_out_on_incomplete_stream() {
        let t = Stencil1D { procs: 4, iters: 2 }.generate(3);
        let comp = Computation::spawn(config("timeout-test", t.num_processes()));
        // Withhold the last event.
        let events = &t.events()[..t.num_events() - 1];
        comp.enqueue_events(events.to_vec()).unwrap();
        let err = comp
            .flush(t.num_events() as u64, Duration::from_millis(200))
            .unwrap_err();
        assert!(matches!(err, FlushError::Timeout { delivered } if delivered > 0));
        comp.shutdown();
    }

    #[test]
    fn shutdown_publishes_final_snapshot() {
        let t = Stencil1D { procs: 4, iters: 3 }.generate(11);
        let comp = Computation::spawn(config("final-snap", t.num_processes()));
        comp.enqueue_events(t.events().to_vec()).unwrap();
        comp.shutdown();
        let snap = comp.snapshot();
        assert_eq!(snap.delivered, t.num_events() as u64);
        assert!(comp.enqueue_events(Vec::new()).is_err());
        // Flush after shutdown: already satisfied, no waiting needed.
        let (_, delivered) = comp
            .flush(t.num_events() as u64, Duration::from_secs(1))
            .unwrap();
        assert_eq!(delivered, t.num_events() as u64);
    }
}
