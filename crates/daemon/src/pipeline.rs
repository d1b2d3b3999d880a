//! The per-computation ingest pipeline and its snapshot/epoch discipline.
//!
//! Each computation the daemon monitors gets one [`Computation`]: a single
//! ingest worker thread that owns the [`ReorderBuffer`], the online
//! [`ClusterEngine`], and the delivered log — the only per-event structure
//! on the ingest path besides the stamps. The WAL and the replication
//! stream are cursors into that log (`wal::WalLane`); the partial-order data
//! structure queries read is the published [`Snapshot`] built from it.
//! Sessions enqueue event batches onto a *bounded* channel (backpressure: a
//! full queue parks the batch on its connection, which then stops reading
//! its socket, which pushes back on the client through TCP flow control).
//!
//! Queries never touch the engine. The worker periodically *publishes* an
//! immutable [`Snapshot`] — a delivery-order [`Trace`] of everything
//! delivered so far plus the engine's [`ClusterTimestamps`] for exactly that
//! prefix — and query threads read the current `Arc<Snapshot>` without
//! blocking ingest. The delivered log is a [`TraceLog`] and the engine keeps
//! its stamps in an append-only stamp log, so a publish is a set of prefix
//! handles on both ([`TraceLog::trace`], [`ClusterEngine::snapshot`]): O(N)
//! on the worker, whatever the length of history, and every retained epoch
//! shares one copy of it. The log checks delivery order as each event is
//! appended. The `Flush` barrier lets a client wait until a snapshot
//! covering a known event count is live, which is what makes answers
//! deterministic enough to differentially test against the offline batch
//! engine.
//!
//! A durable worker's publish of a new epoch appends the retained-epoch
//! marks to the WAL as one record, with no barrier of its own (the next
//! tick, flush or checkpoint syncs it), and every segment it opens starts
//! with them. Recovery replays the recovered prefix into logs reserved for
//! its whole length, republishing each mark on the way, and writes no file
//! but the segment it opens.

use crate::checkpoint::{self, CompMeta, RecoveryReport};
use crate::metrics::{IngestSampler, Metrics};
use crate::reorder::{DeliveryHooks, ReorderBuffer};
use crate::shard::{PlacementParams, StampStrategy};
use crate::sharded::{PlacementInfo, ShardedRuntime};
use crate::wal::{Barrier, WalLane};
use cts_core::cluster::{AdaptiveEngine, ClusterTimestamps};
use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_model::{Event, ProcessId, Trace, TraceLog};
use cts_store::{EpochRetainer, SharedQueryCache};
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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
    /// Pin shard workers to CPUs of the process's CPU mask (`--pin-cores`):
    /// one CPU each from the front of the mask, wrapping when it is short.
    pub pin_cores: bool,
    /// Placement tuning; `None` selects [`PlacementParams::default`]
    /// (tests pass aggressive thresholds for determinism).
    pub placement: Option<PlacementParams>,
    /// `Some` makes the computation durable: delivered events are
    /// write-ahead logged and checkpointed, and
    /// [`Computation::spawn_durable`] recovers state from disk.
    pub durability: Option<DurabilityConfig>,
    /// Entry bound of the shared greatest-concurrent memo (see
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
///
/// Both halves are prefix handles on the computation's append-only logs, so
/// consecutive epochs share their common history instead of each holding a
/// copy; an epoch stays readable, unchanged, however far ingest has moved
/// on.
pub struct Snapshot {
    pub epoch: u64,
    /// Events covered (== `trace.num_events()`).
    pub delivered: u64,
    pub trace: Trace,
    pub cts: ClusterTimestamps,
}

impl Snapshot {
    /// Bytes of history this snapshot refers to: the trace's events and
    /// delivery positions, plus the stamp records, the stamp words written
    /// so far, the cluster-receive lists and the cluster versions
    /// ([`ClusterTimestamps::stored_bytes`]). The byte cap of
    /// [`cts_store::EpochRetainer`] counts these. Retained epochs share
    /// their common history, so summing this over them counts the shared
    /// bytes once per epoch.
    pub fn footprint(&self) -> u64 {
        let per_event = (std::mem::size_of::<Event>() + std::mem::size_of::<u32>()) as u64;
        self.delivered * per_event + self.cts.stored_bytes()
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
    /// Per process, the index of its last delivered event, stored by the
    /// single worker as it delivers (the sharded runtime keeps its own in
    /// [`ShardEnv`](crate::shard::ShardEnv)).
    pub(crate) watermarks: Vec<AtomicU32>,
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
        Self::spawn_inner(config, Vec::new(), Vec::new())
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
        let comp = Self::spawn_inner(config, replay, report.marks.clone());
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
            trace: TraceLog::new(config.name.clone(), config.num_processes)
                .trace()
                .expect("an empty log is a complete delivery order"),
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
            watermarks: (0..config.num_processes)
                .map(|_| AtomicU32::new(0))
                .collect(),
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

    /// Spawn the single worker, which first replays `replay` and republishes
    /// each of `marks` (`(epoch, delivered)`, oldest first) on the way.
    fn spawn_inner(
        config: ComputationConfig,
        replay: Vec<Event>,
        marks: Vec<(u64, u64)>,
    ) -> Arc<Computation> {
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
            .spawn(move || worker_loop(&worker_shared, rx, config, replay, marks))
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

    /// The index of `p`'s next-in-line event as the ingest side last
    /// published it: one past the last delivered, never ahead of it.
    pub(crate) fn next_index(&self, p: ProcessId) -> u32 {
        let marks = match &self.mode {
            EngineMode::Single { .. } => &self.shared.watermarks,
            EngineMode::Sharded(rt) => rt.watermarks(),
        };
        marks[p.idx()].load(Ordering::Relaxed) + 1
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

    fn reserve(&mut self, additional: usize) {
        match self {
            WorkerEngine::Merge1st(e) => e.reserve(additional),
            WorkerEngine::Adaptive(e) => e.reserve(additional),
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

/// The single worker's [`DeliveryHooks`]: every delivered event goes into
/// the log, then the engine, then `then` (recovery republishes retention
/// marks there), and its index is published to `watermarks`. The log's
/// append-time check is the tripwire for a reorder-buffer bug: nothing else
/// on this path re-checks delivery order.
struct WorkerHooks<'a, F: FnMut(&WorkerEngine, &TraceLog)> {
    engine: &'a mut WorkerEngine,
    log: &'a mut TraceLog,
    watermarks: &'a [AtomicU32],
    then: F,
}

impl<F: FnMut(&WorkerEngine, &TraceLog)> DeliveryHooks for WorkerHooks<'_, F> {
    fn deliver(&mut self, ev: Event) {
        self.log
            .push(ev)
            .expect("reorder buffer emits valid delivery orders");
        self.engine.accept(ev);
        self.watermarks[ev.process().idx()].store(ev.index().0, Ordering::Relaxed);
        (self.then)(self.engine, self.log);
    }
}

/// The retainer's `(epoch, delivered)` marks, oldest first: the list a
/// marks record persists and recovery republishes.
fn retained_marks(retainer: &EpochRetainer<Snapshot>) -> Vec<(u64, u64)> {
    retainer
        .list()
        .iter()
        .map(|i| (i.epoch, i.delivered))
        .collect()
}

/// The ingest worker: reorder → engine → delivered log, with the WAL lane
/// and the replication stream following the log and epochs published from
/// it.
fn worker_loop(
    shared: &CompShared,
    rx: Receiver<IngestCmd>,
    config: ComputationConfig,
    replay: Vec<Event>,
    marks: Vec<(u64, u64)>,
) {
    let n = config.num_processes;
    let mut buf = ReorderBuffer::new(n);
    let mut engine = WorkerEngine::new(n, config.strategy);
    let mut log = TraceLog::new(config.name.clone(), n);
    let mut last_published: Option<u64> = None;
    // The durability lane; its first segment opens (at the recovered
    // frontier) after replay, so nothing replayed is written back.
    let mut lane = WalLane::new(
        config.durability.clone(),
        config.name.clone(),
        Arc::clone(&shared.metrics),
    );

    // `forced_epoch` republishes a recovered retention mark under its
    // original epoch number (recovery replay); `None` is a live publish.
    // The snapshot shares the log's and the engine's append-only storage,
    // so a publish costs O(N), not O(history). A new epoch appends the
    // retained marks to the WAL, so they are as durable as the events
    // they name (no-op until the lane opens).
    let publish = |engine: &WorkerEngine,
                   log: &TraceLog,
                   last_published: &mut Option<u64>,
                   forced_epoch: Option<u64>,
                   lane: &mut WalLane| {
        let delivered = log.len() as u64;
        if *last_published == Some(delivered) {
            // Nothing new since the last epoch — but still wake waiters: a
            // recovery flush parks on this condvar *after* the last mark
            // republish already set `last_published` to the full prefix, and
            // this no-op publish is the only call left to wake it.
            shared.cond.notify_all();
            return;
        }
        let trace = log
            .trace()
            .expect("reorder buffer delivers sync pairs whole");
        let cts = engine.snapshot();
        let epoch = {
            let g = lock(&shared.progress);
            forced_epoch.map_or(g.epoch + 1, |e| e.max(g.epoch + 1))
        };
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
        // Only a live head may satisfy a flush barrier: a flush that finds
        // `snapshot_delivered` covering its target returns at once, and its
        // client's next query reads the head.
        let mut g = lock(&shared.progress);
        g.epoch = epoch;
        g.snapshot_delivered = delivered;
        drop(g);
        shared
            .metrics
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
        *last_published = Some(delivered);
        if lane.is_open() {
            lane.marks(&retained_marks(&shared.retainer));
        }
        shared.cond.notify_all();
    };

    // Replay the recovered prefix through the same path live events take —
    // recovery *is* replay. Nothing here is WAL-appended: it is already on
    // disk (that's where it came from). Retention marks republish the
    // retained epochs at their original delivered offsets along the way, so
    // time-travel history survives the restart.
    if !replay.is_empty() {
        // Size the logs for the whole prefix up front: a republished epoch
        // pins the buffers it was cut from, so each doubling on the way
        // would copy history and keep the old copy resident.
        let mut per_process = vec![0usize; n as usize];
        for ev in &replay {
            if let Some(count) = per_process.get_mut(ev.process().idx()) {
                *count += 1;
            }
        }
        log.reserve(replay.len(), &per_process);
        engine.reserve(replay.len());
        let mut next_mark = 0;
        let mut hooks = WorkerHooks {
            engine: &mut engine,
            log: &mut log,
            watermarks: &shared.watermarks,
            then: |engine: &WorkerEngine, log: &TraceLog| {
                while next_mark < marks.len() && marks[next_mark].1 == log.len() as u64 {
                    let epoch = Some(marks[next_mark].0);
                    publish(engine, log, &mut last_published, epoch, &mut lane);
                    next_mark += 1;
                }
            },
        };
        for ev in replay {
            if let Err(reason) = buf.offer_with(ev, &mut hooks) {
                eprintln!(
                    "[cts-daemon] {}: recovered event {} refused: {reason}",
                    config.name, ev.id
                );
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
        publish(&engine, &log, &mut last_published, None, &mut lane);
    }

    // Durability state: the lane's first segment continues from the
    // recovered frontier, headed by the republished marks (a no-op for an
    // in-memory computation).
    let meta = config.durability.as_ref().map(|_| CompMeta {
        name: config.name.clone(),
        num_processes: n,
        max_cluster_size: config.max_cluster_size,
    });
    let mut last_checkpoint = log.len() as u64;
    lane.rotate(log.len(), &retained_marks(&shared.retainer));
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

    let mut ingest_sampler = IngestSampler::default();
    for cmd in rx.iter() {
        if shared.killed.load(Ordering::Acquire) {
            return; // crash-stop: no final sync, checkpoint, or publish
        }
        match cmd {
            IngestCmd::Events(batch) => {
                let batch_start = log.len();
                let mut hooks = WorkerHooks {
                    engine: &mut engine,
                    log: &mut log,
                    watermarks: &shared.watermarks,
                    then: |_: &WorkerEngine, _: &TraceLog| {},
                };
                for ev in batch {
                    let t0 = ingest_sampler.start();
                    if let Err(reason) = buf.offer_with(ev, &mut hooks) {
                        eprintln!(
                            "[cts-daemon] {}: dropping event {}: {reason}",
                            config.name, ev.id
                        );
                    }
                    shared.metrics.record_ingest(t0);
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
                    publish(&engine, &log, &mut last_published, None, &mut lane);
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
                                    lane.rotate(log.len(), &retained_marks(&shared.retainer));
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
                publish(&engine, &log, &mut last_published, None, &mut lane)
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
    publish(&engine, &log, &mut last_published, None, &mut lane);
    commit(&log, lane.sync(&log));
    if let (Some(dur), Some(m)) = (&config.durability, &meta) {
        let delivered = log.len() as u64;
        if lane.is_open() && dur.checkpoint_every > 0 && delivered > last_checkpoint {
            let floor = shared.retainer.oldest_delivered().unwrap_or(delivered);
            match checkpoint::write_checkpoint_with_floor(&dur.dir, m, &log, floor) {
                // The checkpoint may have retired the segment holding the
                // marks: head a fresh one with them, as the cadence does.
                Ok(()) => {
                    lane.rotate(log.len(), &retained_marks(&shared.retainer));
                    lane.sync(&log);
                }
                Err(e) => eprintln!("[cts-daemon] {}: final checkpoint failed: {e}", config.name),
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

    /// The kernel reads the snapshot's own delivery order, which is neither
    /// the generator's nor, at two shards, the order the events were sent
    /// in (the cut assembler interleaves the shards): its answer on every
    /// event must be the generic search's on the offline run. The trace is
    /// long enough that early queries reach the scan's cap.
    #[test]
    fn gc_kernel_on_a_cut_matches_offline_search() {
        let t = Stencil1D {
            procs: 8,
            iters: 40,
        }
        .generate(7);
        let offline = ClusterEngine::run(&t, MergeOnFirst::new(4));
        for shards in [1, 2] {
            let mut cfg = config("gc-cut", t.num_processes());
            cfg.shards = shards;
            let comp = Computation::spawn(cfg);
            for chunk in relinearize(&t, 42).events().chunks(37) {
                comp.enqueue_events(chunk.to_vec()).unwrap();
            }
            comp.flush(t.num_events() as u64, Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("flush failed: {e:?}\n{}", comp.debug_nofreeze()));
            let snap = comp.snapshot();
            assert_eq!(snap.trace.num_events(), t.num_events());
            for e in t.all_event_ids() {
                assert_eq!(
                    snap.cts.greatest_concurrent(&snap.trace, e),
                    greatest_concurrent(&mut ClusterBackend(&offline), &t, e),
                    "shards {shards}: gc({e})"
                );
            }
            comp.shutdown();
        }
    }

    /// A snapshot's footprint is its events and their delivery positions
    /// plus the stamp bytes it refers to, and between two snapshots of one
    /// engine those grow by exactly a 12-byte record per event, 4 bytes per
    /// stamp word written and 8 bytes per cluster receive (no merges, so
    /// the cluster versions stay as they were).
    #[test]
    fn footprint_counts_events_records_and_stamp_words() {
        let t = Stencil1D { procs: 8, iters: 6 }.generate(7);
        let mut eng = ClusterEngine::new(t.num_processes(), cts_core::strategy::NeverMerge);
        let mut log = TraceLog::new("footprint", t.num_processes());
        let mut snaps: Vec<Snapshot> = Vec::new();
        for (k, &ev) in t.events().iter().enumerate() {
            eng.accept(ev);
            log.push(ev).unwrap();
            if k + 1 == t.num_events() / 2 || k + 1 == t.num_events() {
                snaps.push(Snapshot {
                    epoch: snaps.len() as u64 + 1,
                    delivered: k as u64 + 1,
                    trace: log.trace().unwrap(),
                    cts: eng.snapshot(),
                });
            }
        }
        let per_event = (std::mem::size_of::<Event>() + 4) as u64;
        for s in &snaps {
            assert_eq!(
                s.footprint(),
                s.delivered * per_event + s.cts.stored_bytes()
            );
        }
        let (a, b) = (&snaps[0], &snaps[1]);
        let words: usize = b
            .cts
            .stamps()
            .iter()
            .skip(a.delivered as usize)
            .map(|s| s.clock().len())
            .sum();
        let crs = b.cts.num_cluster_receives() - a.cts.num_cluster_receives();
        assert!(words > 0 && crs > 0);
        assert_eq!(
            b.cts.stored_bytes() - a.cts.stored_bytes(),
            12 * (b.delivered - a.delivered) + 4 * words as u64 + 8 * crs as u64
        );
        // The earlier snapshot still counts only its own prefix.
        assert_eq!(a.cts.stamps().len() as u64, a.delivered);
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

    /// A flush barrier that lands while a cadence publish is under way
    /// must not return before that publish's snapshot is the head: a
    /// client that queries right after its flush would be refused events
    /// the barrier promised.
    #[test]
    fn flush_returns_only_once_the_head_covers_it() {
        for sharded in [false, true] {
            let t = Stencil1D {
                procs: 8,
                iters: 300,
            }
            .generate(3);
            let mut cfg = config("flush-head", t.num_processes());
            cfg.epoch_every = 16;
            if sharded {
                cfg.shards = 2;
            }
            let comp = Computation::spawn(cfg);
            let mut sent = 0u64;
            for chunk in t.events().chunks(16) {
                comp.enqueue_events(chunk.to_vec()).unwrap();
                sent += chunk.len() as u64;
                comp.flush(sent, Duration::from_secs(30)).unwrap();
                let head = comp.snapshot().delivered;
                assert!(
                    head >= sent,
                    "sharded {sharded}: flush({sent}) returned with the head at {head}"
                );
            }
            comp.shutdown();
        }
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
