//! The threaded sharded ingest runtime.
//!
//! [`crate::shard`] defines the synchronous per-shard cores and proves them
//! correct under the deterministic schedule harness; this module runs the
//! *same* cores on real threads. One worker thread per shard owns a
//! [`ShardCore`] behind a mutex and drains a bounded message channel;
//! connection threads partition incoming batches by the process-routing
//! table and block on the target shard's channel for backpressure.
//!
//! ## Messaging discipline
//!
//! Shard-to-shard signals (cross-shard wake-ups, forwards of batches that
//! raced a rebalance) must never block a shard thread, or two full queues
//! could deadlock the pair. They go through a per-shard unbounded *overflow*
//! inbox plus a best-effort `Nudge` on the bounded channel: if the nudge
//! fits, the idle target wakes immediately; if the channel is full the
//! target is busy and will drain the overflow at its next loop iteration
//! (overflow is always checked first).
//!
//! `pending_msgs` counts every queued-or-in-flight message (batches, wakes,
//! nudges); a message's follow-on wake-ups are enqueued *before* its own
//! count is released, so `pending_msgs == 0` means the runtime is quiescent.
//!
//! ## The freeze barrier
//!
//! Rebalances, snapshot cuts, flush barriers, and shutdown all run under a
//! stop-the-world *freeze*: take the freeze mutex (serializing initiators),
//! raise the pause flag (shard threads park between messages), then acquire
//! every shard's state mutex. A shard holds its state mutex only while
//! processing a single message, so the freeze completes after at most one
//! in-flight message per shard. Initiators never hold a shard state mutex
//! when they start a freeze, so the barrier cannot deadlock.
//!
//! ## Live autoscaling (no freeze)
//!
//! With `--shards auto` / `--balance` the runtime pre-allocates worker
//! slots up to the host's parallelism and keeps only a prefix *active*.
//! A [`PlacementEngine`] tracks per-shard occupancy EWMAs; splitting a hot
//! shard, retiring a cold one, or stealing a cluster takes the freeze
//! *mutex* (serializing against cuts and rebalances) but neither raises the
//! pause flag nor touches any state mutex beyond the two shards involved —
//! every other shard keeps ingesting throughout. This is sound for the same
//! reason rebalance migrations are: ownership hand-off is entirely
//! exchange-mediated ([`migrate_between`] publishes the released process's
//! in-flight clocks before the new owner adopts), and the cut assembler —
//! the only cross-shard aggregate — is reachable only under the freeze
//! mutex the rescale holds. Retired slots keep their worker thread parked
//! on an empty channel and their WAL directory in place; recovery unions
//! every shard directory anyway, which is what makes shard-count changes
//! crash-safe.
//!
//! ## Durability layout
//!
//! Each shard write-ahead logs *its own* delivered order into
//! `dir/shard-NN/` segments through the same [`WalLane`] the single worker
//! uses: one writer and two cursors into [`ShardCore::log`].
//! Checkpoints stay global: the assembled cut — a valid delivery order — is
//! checkpointed at the top level, and shard segments are retired once the
//! cut has caught up with every delivered event. Recovery unions the
//! top-level state (legacy single-worker layout or a previous global
//! checkpoint, recovered contiguously) with *every* readable record of
//! every shard segment, in any order: events are self-identifying, so the
//! reorder buffers dedup and re-sequence the union, and a torn tail on one
//! shard (it lagged the others at the crash) merely parks the dependents
//! that were never acknowledged — delivery-order invariance makes the
//! replayed state exact.

use crate::checkpoint::{self, CompMeta, RecoveryReport};
use crate::pipeline::{lock, CompShared, ComputationConfig, DurabilityConfig, Snapshot};
use crate::shard::{
    clusters_on, initial_routing, migrate_between, rebalance, CutAssembler, PlacementAction,
    PlacementEngine, ShardCore, ShardEnv, ShardId, Wake,
};
use crate::wal::{self, Barrier, WalLane};
use cts_model::{Event, EventId};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Messages a shard worker consumes.
enum ShardMsg {
    /// A batch of events routed (or forwarded) to this shard.
    Batch(Vec<Event>),
    /// A cross-shard dependency this shard registered for became available.
    Wake(EventId),
    /// Wake-up only: the real message is in the overflow inbox.
    Nudge,
    /// Exit the worker loop immediately.
    Stop,
}

/// One shard's mutable state: the core plus the WAL lane following its log.
struct ShardState {
    core: ShardCore,
    lane: WalLane,
    reported_dup: u64,
    reported_depth: u64,
}

impl ShardState {
    /// Append this shard's un-logged delivered suffix to its WAL.
    fn append_wal(&mut self, barrier: Barrier) {
        self.lane.append(self.core.log(), barrier);
    }
}

struct ShardHandle {
    tx: SyncSender<ShardMsg>,
    overflow: Mutex<VecDeque<ShardMsg>>,
    state: Mutex<ShardState>,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

struct Ctl {
    /// Shard threads park between messages while this is raised.
    pause: AtomicBool,
    pause_lock: Mutex<bool>,
    pause_cond: Condvar,
    /// Serializes freeze initiators.
    freeze: Mutex<()>,
    /// Queued-or-in-flight messages across all shards.
    pending_msgs: AtomicU64,
    /// Total events delivered across all shards.
    delivered: AtomicU64,
    /// Assembled-cut size covered by the last published snapshot
    /// (`u64::MAX` = nothing published yet).
    last_published: AtomicU64,
    /// Assembled-cut size covered by the last global checkpoint.
    last_checkpoint: AtomicU64,
    closed: AtomicBool,
    assembler: Mutex<CutAssembler>,
}

/// The sharded counterpart of the single `worker_loop`: N shard workers,
/// a routing table, the freeze barrier, and the two-phase snapshot cut.
pub(crate) struct ShardedRuntime {
    name: String,
    epoch_every: u64,
    checkpoint_every: u64,
    root_dur: Option<DurabilityConfig>,
    meta: Option<CompMeta>,
    env: ShardEnv,
    routing: Vec<AtomicU32>,
    /// All pre-allocated worker slots; only `[0, active)` receive routed
    /// traffic. Slots are never removed — a retired slot's thread parks on
    /// its empty channel until a later split reactivates it.
    shards: Vec<ShardHandle>,
    active: AtomicUsize,
    auto_scale: bool,
    balance: bool,
    /// Shard workers were pinned to topology-chosen CPUs at spawn.
    pinned: bool,
    placement: Mutex<PlacementEngine>,
    ctl: Ctl,
    shared: Arc<CompShared>,
}

/// The placement state reported by the `QueryPlacement` wire verb.
pub(crate) struct PlacementInfo {
    pub(crate) shards: u64,
    pub(crate) pinned: bool,
    pub(crate) rescales: u64,
    pub(crate) steals: u64,
    /// Per-active-shard occupancy share, Q16.
    pub(crate) occupancy_q16: Vec<u64>,
    /// Process → shard routing table.
    pub(crate) routing: Vec<u32>,
}

type Frozen<'a> = (MutexGuard<'a, ()>, Vec<MutexGuard<'a, ShardState>>);

impl ShardedRuntime {
    /// Build the runtime and spawn its shard workers. Recovery and WAL
    /// opening happen in [`bootstrap`](Self::bootstrap).
    pub(crate) fn spawn(
        config: &ComputationConfig,
        shared: Arc<CompShared>,
    ) -> Arc<ShardedRuntime> {
        let n = config.num_processes;
        let requested = (config.shards.max(2) as usize).min(n.max(1) as usize);
        // With autoscaling, pre-allocate slots up to the host's parallelism
        // so a later split never has to spawn a thread mid-stream; only the
        // first `requested` slots start active. The floor of 4 keeps splits
        // possible on 1- and 2-core hosts (splitting is demand-driven — it
        // only fires past the hot threshold — and a parked slot is just an
        // idle thread on an empty channel). An explicit finite `max_shards`
        // in the placement params overrides the derived cap.
        let shards = if config.auto_scale {
            let cap = match config.placement {
                Some(p) if p.max_shards != usize::MAX => p.max_shards,
                _ => std::thread::available_parallelism()
                    .map_or(requested, |p| p.get())
                    .max(4),
            };
            requested.max(cap).min(n.max(1) as usize)
        } else {
            requested
        };
        let mut placement_params = config.placement.unwrap_or_default();
        placement_params.min_shards = placement_params.min_shards.clamp(1, requested);
        placement_params.max_shards = placement_params.max_shards.min(shards);
        let plan = if config.pin_cores {
            crate::topology::CpuTopology::discover()
                .ok()
                .map(|t| t.plan(shards, 0))
        } else {
            None
        };
        let env = ShardEnv::new(n, config.strategy);
        let routing = initial_routing(n, requested);
        let meta = config.durability.as_ref().map(|_| CompMeta {
            name: config.name.clone(),
            num_processes: n,
            max_cluster_size: config.max_cluster_size,
        });
        let mut receivers: Vec<Receiver<ShardMsg>> = Vec::with_capacity(shards);
        let handles: Vec<ShardHandle> = (0..shards)
            .map(|s| {
                let owned: Vec<bool> = (0..n)
                    .map(|p| routing[p as usize].load(Ordering::Relaxed) as usize == s)
                    .collect();
                let core = ShardCore::new(s, n, owned, &env);
                let dur = config.durability.as_ref().map(|d| DurabilityConfig {
                    dir: d.dir.join(format!("shard-{s:02}")),
                    ..d.clone()
                });
                let lane = WalLane::new(
                    dur,
                    format!("{}: shard {s}", config.name),
                    Arc::clone(&shared.metrics),
                );
                let (tx, rx) = sync_channel(config.queue_capacity.max(1));
                receivers.push(rx);
                ShardHandle {
                    tx,
                    overflow: Mutex::new(VecDeque::new()),
                    state: Mutex::new(ShardState {
                        core,
                        lane,
                        reported_dup: 0,
                        reported_depth: 0,
                    }),
                    join: Mutex::new(None),
                }
            })
            .collect();
        let rt = Arc::new(ShardedRuntime {
            name: config.name.clone(),
            epoch_every: config.epoch_every.max(1),
            checkpoint_every: config.durability.as_ref().map_or(0, |d| d.checkpoint_every),
            root_dur: config.durability.clone(),
            meta,
            env,
            routing,
            shards: handles,
            active: AtomicUsize::new(requested),
            auto_scale: config.auto_scale,
            balance: config.balance || config.auto_scale,
            pinned: plan.is_some(),
            placement: Mutex::new(PlacementEngine::new(shards, placement_params)),
            ctl: Ctl {
                pause: AtomicBool::new(false),
                pause_lock: Mutex::new(false),
                pause_cond: Condvar::new(),
                freeze: Mutex::new(()),
                pending_msgs: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
                last_published: AtomicU64::new(u64::MAX),
                last_checkpoint: AtomicU64::new(0),
                closed: AtomicBool::new(false),
                assembler: Mutex::new(CutAssembler::new(n)),
            },
            shared,
        });
        rt.shared
            .metrics
            .place_shards
            .store(requested as u64, Ordering::Relaxed);
        for (s, rx) in receivers.into_iter().enumerate() {
            let worker = Arc::clone(&rt);
            let cpu = plan.as_ref().map(|pl| pl.shard_cpus[s]);
            let handle = std::thread::Builder::new()
                .name(format!("shard-{}-{s}", config.name))
                .spawn(move || {
                    #[cfg(target_os = "linux")]
                    if let Some(cpu) = cpu {
                        let _ = crate::netpoll::pin_current_thread(cpu);
                    }
                    #[cfg(not(target_os = "linux"))]
                    let _ = cpu;
                    shard_loop(&worker, s, rx)
                })
                .expect("spawn shard worker");
            *lock(&rt.shards[s].join) = Some(handle);
        }
        rt
    }

    /// Shards currently receiving routed traffic.
    pub(crate) fn active_shards(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    pub(crate) fn placement_info(&self) -> PlacementInfo {
        let active = self.active.load(Ordering::Acquire);
        let eng = lock(&self.placement);
        PlacementInfo {
            shards: active as u64,
            pinned: self.pinned,
            rescales: eng.rescales,
            steals: eng.steals,
            occupancy_q16: eng.shares_q16(active),
            routing: self
                .routing
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Recover on-disk state (when `recover` and durable), replay it through
    /// the shards, then open per-shard WAL segments and re-establish a clean
    /// layout (fresh global checkpoint, stale segments and directories
    /// removed). Returns what recovery found.
    pub(crate) fn bootstrap(&self, recover: bool) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        let mut replay: Vec<Event> = Vec::new();
        let mut stale_dirs: Vec<PathBuf> = Vec::new();
        if let (Some(root), Some(meta)) = (&self.root_dur, &self.meta) {
            checkpoint::ensure_meta(&root.dir, meta)?;
            if recover {
                // Top level: a global checkpoint from a previous sharded run,
                // or the legacy single-worker layout — both are internally
                // contiguous, so the offset-based scan applies.
                let (events, rep) = checkpoint::recover_dir(&root.dir)?;
                report.checkpoint_events += rep.checkpoint_events;
                report.wal_events += rep.wal_events;
                report.segments_scanned += rep.segments_scanned;
                report.torn_bytes_truncated += rep.torn_bytes_truncated;
                if report.torn_tail.is_none() {
                    report.torn_tail = rep.torn_tail;
                }
                replay.extend(events);
                // Shard directories: take every readable record of every
                // segment, in any order — the reorder buffers dedup against
                // the checkpointed prefix and re-sequence the rest.
                for dir in shard_dirs(&root.dir)? {
                    for (_, path) in wal::list_segments(&dir)? {
                        let scan = wal::scan_segment(&path)?;
                        report.segments_scanned += 1;
                        if let Some(kind) = scan.torn {
                            let file_len = std::fs::metadata(&path)?.len();
                            report.torn_bytes_truncated += file_len - scan.valid_len;
                            if report.torn_tail.is_none() {
                                report.torn_tail = Some(format!("{}: {kind}", path.display()));
                            }
                            wal::truncate_segment(&path, scan.valid_len)?;
                        }
                        for rec in &scan.records {
                            report.wal_events += rec.events.len() as u64;
                            replay.extend(rec.events.iter().copied());
                        }
                    }
                    let stale = dir
                        .file_name()
                        .and_then(|f| f.to_str())
                        .and_then(parse_shard_dir)
                        .is_none_or(|s| s >= self.shards.len());
                    if stale {
                        stale_dirs.push(dir);
                    }
                }
            }
        }
        for chunk in replay.chunks(4096) {
            if self.enqueue(chunk.to_vec()).is_err() {
                break; // closed mid-recovery (shutdown raced); keep going
            }
        }
        self.quiesce();
        // Finalize under a freeze: cut, checkpoint the cut, open fresh WAL
        // segments at each shard's post-replay frontier, and only then drop
        // the old on-disk state (now fully covered or provably unacked).
        let (f, mut guards) = self.freeze();
        let assembled = self.publish_world(&mut guards, false);
        if let (Some(root), Some(meta)) = (&self.root_dur, &self.meta) {
            if assembled > 0 {
                let asm = lock(&self.ctl.assembler);
                if let Err(e) = checkpoint::write_checkpoint(&root.dir, meta, asm.log()) {
                    eprintln!(
                        "[cts-daemon] {}: recovery checkpoint failed: {e}",
                        self.name
                    );
                }
                self.ctl.last_checkpoint.store(assembled, Ordering::Release);
            }
            for st in guards.iter_mut() {
                let Some(dir) = st.lane.dir() else { continue };
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!(
                        "[cts-daemon] {}: cannot create {}: {e}",
                        self.name,
                        dir.display()
                    );
                    continue;
                }
                // The fresh checkpoint covers every delivered event
                // (quiesced cuts leave nothing dangling), so every old
                // segment here is either covered or holds only unacked
                // orphans — both safe to drop.
                for (_, path) in wal::list_segments(dir).unwrap_or_default() {
                    let _ = std::fs::remove_file(path);
                }
                let start = st.core.log().len();
                st.lane.rotate(start);
            }
            // Legacy top-level segments are covered by the fresh checkpoint;
            // stale shard directories were unioned above.
            for (_, path) in wal::list_segments(&root.dir).unwrap_or_default() {
                let _ = std::fs::remove_file(path);
            }
            for dir in stale_dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        self.unfreeze(f, guards);
        Ok(report)
    }

    /// Partition a batch by the routing table and enqueue each piece on its
    /// shard's bounded channel (blocking: backpressure).
    pub(crate) fn enqueue(&self, batch: Vec<Event>) -> Result<(), ()> {
        if self.ctl.closed.load(Ordering::Acquire) {
            return Err(());
        }
        let mut per: Vec<Vec<Event>> = vec![Vec::new(); self.shards.len()];
        for ev in batch {
            let p = ev.process();
            let s = if (p.idx()) < self.routing.len() {
                self.routing[p.idx()].load(Ordering::Relaxed) as usize
            } else {
                0 // unknown process: let shard 0 reject it
            };
            per[s].push(ev);
        }
        for (s, events) in per.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            self.ctl.pending_msgs.fetch_add(1, Ordering::AcqRel);
            if self.shards[s].tx.send(ShardMsg::Batch(events)).is_err() {
                self.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
                return Err(());
            }
        }
        Ok(())
    }

    /// Non-blocking enqueue for the readiness-driven front end: each
    /// shard's slice is `try_send`-offered; slices refused by a full shard
    /// come back concatenated for the caller to retry. Safe to split a
    /// batch this way because any arrival interleaving is a valid delivery
    /// order (the reorder buffers repair it) and duplicates are dropped.
    /// `Err(None)` means the runtime is closed.
    pub(crate) fn try_enqueue(&self, batch: Vec<Event>) -> Result<(), Option<Vec<Event>>> {
        if self.ctl.closed.load(Ordering::Acquire) {
            return Err(None);
        }
        let mut per: Vec<Vec<Event>> = vec![Vec::new(); self.shards.len()];
        for ev in batch {
            let p = ev.process();
            let s = if (p.idx()) < self.routing.len() {
                self.routing[p.idx()].load(Ordering::Relaxed) as usize
            } else {
                0 // unknown process: let shard 0 reject it
            };
            per[s].push(ev);
        }
        let mut leftover: Vec<Event> = Vec::new();
        for (s, events) in per.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            self.ctl.pending_msgs.fetch_add(1, Ordering::AcqRel);
            match self.shards[s].tx.try_send(ShardMsg::Batch(events)) {
                Ok(()) => {}
                Err(TrySendError::Full(ShardMsg::Batch(events))) => {
                    self.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
                    leftover.extend(events);
                }
                Err(TrySendError::Full(_)) => unreachable!("we only sent Batch"),
                Err(TrySendError::Disconnected(_)) => {
                    self.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
                    return Err(None);
                }
            }
        }
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(Some(leftover))
        }
    }

    /// Group-commit tick: wake every shard so `append_wal` can close a
    /// dirty window. Best-effort — a full shard queue is actively ingesting
    /// and will hit the same window check on its next message.
    pub(crate) fn nudge_wal(&self) {
        if self.ctl.closed.load(Ordering::Acquire) {
            return;
        }
        for h in &self.shards {
            self.ctl.pending_msgs.fetch_add(1, Ordering::AcqRel);
            if h.tx.try_send(ShardMsg::Nudge).is_err() {
                self.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// Non-blocking send for shard threads: overflow inbox + best-effort
    /// nudge. Never blocks, so shard→shard signalling cannot deadlock.
    fn post(&self, s: ShardId, msg: ShardMsg) {
        self.ctl.pending_msgs.fetch_add(1, Ordering::AcqRel);
        lock(&self.shards[s].overflow).push_back(msg);
        // Count the nudge before it is visible (un-counting a refused one),
        // as `nudge_wal` does: the target may consume and release it before
        // a count taken after the send would have landed.
        self.ctl.pending_msgs.fetch_add(1, Ordering::AcqRel);
        if self.shards[s].tx.try_send(ShardMsg::Nudge).is_err() {
            self.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn dispatch(&self, wakes: Vec<Wake>) {
        for (shard, id) in wakes {
            self.post(shard, ShardMsg::Wake(id));
        }
    }

    fn wait_unpaused(&self) {
        if !self.ctl.pause.load(Ordering::Acquire) {
            return;
        }
        let mut paused = lock(&self.ctl.pause_lock);
        while *paused {
            paused = self
                .ctl
                .pause_cond
                .wait(paused)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stop the world: serialize initiators, park shard threads between
    /// messages, and take every shard's state mutex.
    fn freeze(&self) -> Frozen<'_> {
        let f = lock(&self.ctl.freeze);
        self.begin_pause();
        let guards = self.shards.iter().map(|h| lock(&h.state)).collect();
        (f, guards)
    }

    fn try_freeze(&self) -> Option<Frozen<'_>> {
        let f = self.ctl.freeze.try_lock().ok()?;
        self.begin_pause();
        let guards = self.shards.iter().map(|h| lock(&h.state)).collect();
        Some((f, guards))
    }

    fn begin_pause(&self) {
        *lock(&self.ctl.pause_lock) = true;
        self.ctl.pause.store(true, Ordering::Release);
    }

    fn unfreeze(&self, f: MutexGuard<'_, ()>, guards: Vec<MutexGuard<'_, ShardState>>) {
        *lock(&self.ctl.pause_lock) = false;
        self.ctl.pause.store(false, Ordering::Release);
        self.ctl.pause_cond.notify_all();
        drop(guards);
        drop(f);
    }

    /// The two-phase cut, under an already-held freeze: sync WALs (when
    /// asked), drain every shard's delivered records, extend the merged
    /// order, and publish the union as an epoch snapshot. Returns the
    /// assembled-cut size.
    fn publish_world(&self, guards: &mut [MutexGuard<'_, ShardState>], sync_wal: bool) -> u64 {
        let barrier = if sync_wal {
            Barrier::Forced
        } else {
            Barrier::WindowElapsed
        };
        for st in guards.iter_mut() {
            st.append_wal(barrier);
        }
        let mut asm = lock(&self.ctl.assembler);
        for st in guards.iter_mut() {
            asm.ingest(st.core.drain_outbox());
        }
        asm.advance();
        let assembled = asm.assembled();
        if self.ctl.last_published.load(Ordering::Acquire) == assembled {
            return assembled; // nothing new since the last epoch
        }
        let (world, _) = self.env.sets.snapshot();
        let (trace, cts) = asm.snapshot(&self.name, world.sets.clone(), world.num_merges as usize);
        drop(asm);
        let mut g = lock(&self.shared.progress);
        g.epoch += 1;
        g.snapshot_delivered = assembled;
        let epoch = g.epoch;
        drop(g);
        let snap = Arc::new(Snapshot {
            epoch,
            delivered: assembled,
            trace,
            cts,
        });
        // Sharded retention is live-only: epoch numbers restart with the
        // process, so there are no durable marks to republish on recovery.
        self.shared
            .retainer
            .insert(epoch, assembled, snap.footprint(), Arc::clone(&snap));
        *self.shared.snapshot.write() = snap;
        self.shared
            .metrics
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
        self.ctl.last_published.store(assembled, Ordering::Release);
        self.shared.cond.notify_all();
        assembled
    }

    /// Freeze, cut, publish; optionally also sync WALs first (flush
    /// barriers make durability part of the barrier).
    pub(crate) fn freeze_publish(&self, sync_wal: bool) {
        let (f, mut guards) = self.freeze();
        self.publish_world(&mut guards, sync_wal);
        self.unfreeze(f, guards);
    }

    /// Cadence check after each processed message: publish when enough has
    /// been delivered since the last cut, checkpoint when enough has been
    /// delivered since the last checkpoint. Skips (rather than queues)
    /// when another freeze is already in flight.
    fn maybe_publish(&self) {
        let delivered = self.ctl.delivered.load(Ordering::Acquire);
        let lp = self.ctl.last_published.load(Ordering::Acquire);
        let published = if lp == u64::MAX { 0 } else { lp };
        let need_pub = delivered.saturating_sub(published) >= self.epoch_every;
        let need_ckpt = self.checkpoint_every > 0
            && delivered.saturating_sub(self.ctl.last_checkpoint.load(Ordering::Acquire))
                >= self.checkpoint_every;
        if !need_pub && !need_ckpt {
            return;
        }
        let Some((f, mut guards)) = self.try_freeze() else {
            return; // someone else is cutting; their cut covers us
        };
        let assembled = self.publish_world(&mut guards, need_ckpt);
        if need_ckpt {
            self.checkpoint_world(&mut guards, assembled);
        }
        self.unfreeze(f, guards);
    }

    /// Write the global checkpoint of the assembled cut and rotate/retire
    /// per-shard segments. Runs under a freeze, after `publish_world`
    /// already appended and synced every shard's WAL.
    fn checkpoint_world(&self, guards: &mut [MutexGuard<'_, ShardState>], assembled: u64) {
        let (Some(root), Some(meta)) = (&self.root_dur, &self.meta) else {
            return;
        };
        if assembled <= self.ctl.last_checkpoint.load(Ordering::Acquire) {
            return;
        }
        {
            let asm = lock(&self.ctl.assembler);
            if let Err(e) = checkpoint::write_checkpoint(&root.dir, meta, asm.log()) {
                eprintln!("[cts-daemon] {}: checkpoint failed: {e}", self.name);
                return;
            }
            self.ctl.last_checkpoint.store(assembled, Ordering::Release);
            // Retire shard segments only when the cut covers every delivered
            // event (no dangling sync tails, no undrained outboxes — the
            // latter is guaranteed right after a cut).
            if asm.queued() > 0 {
                return;
            }
        }
        for st in guards.iter_mut() {
            if !st.lane.is_open() {
                continue;
            }
            let start = st.core.log().len();
            st.lane.rotate(start);
            // A failed rotation degraded the lane, which then has no
            // directory. Otherwise the fresh segment exists, and every
            // other one here is behind the checkpoint.
            let Some(dir) = st.lane.dir() else { continue };
            for (seg_start, path) in wal::list_segments(dir).unwrap_or_default() {
                if seg_start != start as u64 {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    /// A merge happened on some shard: stop the world and re-align process
    /// ownership with the cluster partition, looping until no migration
    /// re-raises the flag.
    fn freeze_rebalance(&self) {
        let (f, mut guards) = self.freeze();
        let mut all_wakes = Vec::new();
        let mut delivered = 0;
        loop {
            let mut cores: Vec<&mut ShardCore> = guards.iter_mut().map(|g| &mut g.core).collect();
            if !cores.iter().any(|c| c.rebalance_needed) {
                break;
            }
            let mut wakes = Vec::new();
            let (d, _) = rebalance(&mut cores, &self.routing, &self.env, &mut wakes);
            delivered += d;
            all_wakes.extend(wakes);
        }
        for st in guards.iter_mut() {
            st.append_wal(Barrier::WindowElapsed); // migrations may have delivered
        }
        self.unfreeze(f, guards);
        if delivered > 0 {
            self.note_delivered(delivered);
        }
        self.dispatch(all_wakes);
    }

    /// Placement hook run by each shard worker after every message: feed
    /// the occupancy EWMA, refresh the placement gauges, and apply at most
    /// one autoscale/steal action.
    fn maybe_rescale(&self, s: ShardId, work: u64) {
        if !self.auto_scale && !self.balance {
            return;
        }
        if self.ctl.closed.load(Ordering::Acquire) || self.shared.killed.load(Ordering::Acquire) {
            return;
        }
        let active = self.active.load(Ordering::Acquire);
        let action = {
            let mut eng = lock(&self.placement);
            eng.note_message(s, work);
            let (occ, _) = eng.occupancy_q16(active);
            let m = &self.shared.metrics;
            m.place_occupancy_q16.store(occ, Ordering::Relaxed);
            m.place_shards.store(active as u64, Ordering::Relaxed);
            m.place_rescales.store(eng.rescales, Ordering::Relaxed);
            m.place_steals.store(eng.steals, Ordering::Relaxed);
            eng.decide(active, self.auto_scale, self.balance)
        };
        if let Some(action) = action {
            self.rescale(action);
        }
    }

    /// Lock the state mutexes of two distinct shards, always acquiring the
    /// lower index first, and return the guards in argument order.
    fn state_pair(
        &self,
        a: ShardId,
        b: ShardId,
    ) -> (MutexGuard<'_, ShardState>, MutexGuard<'_, ShardState>) {
        assert_ne!(a, b);
        if a < b {
            let ga = lock(&self.shards[a].state);
            let gb = lock(&self.shards[b].state);
            (ga, gb)
        } else {
            let gb = lock(&self.shards[b].state);
            let ga = lock(&self.shards[a].state);
            (ga, gb)
        }
    }

    /// Apply one placement action *without* a stop-the-world freeze: take
    /// the freeze mutex (serializing against cuts, rebalances, flushes, and
    /// other rescales) but never raise the pause flag, and lock only the two
    /// shards being re-laid-out — every other shard keeps processing. An
    /// action that is unsafe right now (mid sync pair, straddling cluster,
    /// too few clusters to move) is simply dropped; the engine will propose
    /// it again once its cooldown elapses.
    fn rescale(&self, action: PlacementAction) {
        let _f = lock(&self.ctl.freeze);
        if self.ctl.closed.load(Ordering::Acquire) || self.shared.killed.load(Ordering::Acquire) {
            return;
        }
        let active = self.active.load(Ordering::Acquire);
        let (world, _) = self.env.sets.snapshot();
        let mut wakes = Vec::new();
        let mut delivered = 0u64;
        match action {
            PlacementAction::Split(from) => {
                let to = active;
                if from >= active || to >= self.shards.len() {
                    return;
                }
                let (mut src, mut dst) = self.state_pair(from, to);
                if !src.core.sync_quiescent() {
                    return;
                }
                let groups = clusters_on(&world, &self.routing, from);
                if groups.len() < 2 {
                    return; // nothing splittable without breaking a cluster
                }
                // Alternate clusters move to the fresh shard; whole-cluster
                // moves keep cluster-locality so rebalance never fights the
                // placement engine.
                for group in groups.iter().skip(1).step_by(2) {
                    for &p in group {
                        delivered +=
                            migrate_between(&mut src.core, &mut dst.core, p, &self.env, &mut wakes);
                        self.routing[p.idx()].store(to as u32, Ordering::Release);
                    }
                }
                src.append_wal(Barrier::WindowElapsed);
                dst.append_wal(Barrier::WindowElapsed);
                self.active.store(active + 1, Ordering::Release);
                lock(&self.placement).note_split(from, to);
            }
            PlacementAction::Retire(cold) => {
                if active <= 1 || cold >= active {
                    return;
                }
                // Retirement always empties the *top* slot so the active set
                // stays a prefix; if the cold shard isn't the top one, the
                // top shard's clusters land on it instead.
                let top = active - 1;
                let dst = if cold == top {
                    lock(&self.placement).coldest(top)
                } else {
                    cold
                };
                if dst == top {
                    return;
                }
                let (mut src, mut dstg) = self.state_pair(top, dst);
                if !src.core.sync_quiescent() {
                    return;
                }
                let groups = clusters_on(&world, &self.routing, top);
                let covered: usize = groups.iter().map(Vec::len).sum();
                let routed = (0..self.routing.len())
                    .filter(|&p| self.routing[p].load(Ordering::Relaxed) as usize == top)
                    .count();
                if covered != routed {
                    return; // a mid-merge cluster straddles shards: defer
                }
                for group in &groups {
                    for &p in group {
                        delivered += migrate_between(
                            &mut src.core,
                            &mut dstg.core,
                            p,
                            &self.env,
                            &mut wakes,
                        );
                        self.routing[p.idx()].store(dst as u32, Ordering::Release);
                    }
                }
                src.append_wal(Barrier::WindowElapsed);
                dstg.append_wal(Barrier::WindowElapsed);
                self.active.store(top, Ordering::Release);
                lock(&self.placement).note_retire(top);
            }
            PlacementAction::Steal { from, to } => {
                if from >= active || to >= active || from == to {
                    return;
                }
                let (mut src, mut dst) = self.state_pair(from, to);
                if !src.core.sync_quiescent() {
                    return;
                }
                let groups = clusters_on(&world, &self.routing, from);
                if groups.len() < 2 {
                    return; // never empty the victim
                }
                let group = groups.last().expect("len checked");
                for &p in group {
                    delivered +=
                        migrate_between(&mut src.core, &mut dst.core, p, &self.env, &mut wakes);
                    self.routing[p.idx()].store(to as u32, Ordering::Release);
                }
                src.append_wal(Barrier::WindowElapsed);
                dst.append_wal(Barrier::WindowElapsed);
                lock(&self.placement).note_steal(1);
            }
        }
        if delivered > 0 {
            self.note_delivered(delivered);
        }
        self.dispatch(wakes);
    }

    fn note_delivered(&self, delta: u64) {
        let total = self.ctl.delivered.fetch_add(delta, Ordering::AcqRel) + delta;
        self.shared
            .metrics
            .events_ingested
            .fetch_add(delta, Ordering::Relaxed);
        let mut g = lock(&self.shared.progress);
        if total > g.delivered {
            g.delivered = total;
        }
        drop(g);
        self.shared.cond.notify_all();
    }

    fn quiesce(&self) {
        while self.ctl.pending_msgs.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Flush barrier, stage 2: force cuts until the published snapshot
    /// covers `expected` or the deadline passes. (Stage 1 — waiting for
    /// delivery — is the caller's, shared with the single-worker path.)
    pub(crate) fn flush_cut(&self, expected: u64, deadline: Instant) -> Result<(), ()> {
        loop {
            self.freeze_publish(true);
            {
                let g = lock(&self.shared.progress);
                if g.snapshot_delivered >= expected {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(());
            }
            // The missing piece is a wake queued on some shard; give its
            // thread a moment before cutting again.
            let g = lock(&self.shared.progress);
            let (g2, _) = self
                .shared
                .cond
                .wait_timeout(g, Duration::from_millis(2))
                .unwrap_or_else(|e| e.into_inner());
            if g2.snapshot_delivered >= expected {
                return Ok(());
            }
        }
    }

    pub(crate) fn closed(&self) -> bool {
        self.ctl.closed.load(Ordering::Acquire)
    }

    /// Lock-free-ish diagnostic (try_lock only; never blocks).
    #[doc(hidden)]
    #[allow(dead_code)] // diagnostic: referenced from tests only
    pub(crate) fn debug_nofreeze(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "pause={} freeze_held={} pending_msgs={} delivered={} last_published={}\n",
            self.ctl.pause.load(Ordering::Acquire),
            self.ctl.freeze.try_lock().is_err(),
            self.ctl.pending_msgs.load(Ordering::Acquire),
            self.ctl.delivered.load(Ordering::Acquire),
            self.ctl.last_published.load(Ordering::Acquire),
        );
        for (s, h) in self.shards.iter().enumerate() {
            match h.state.try_lock() {
                Ok(st) => {
                    let _ = writeln!(
                        out,
                        "shard {s}: delivered={} rebalance={} {}",
                        st.core.delivered_total(),
                        st.core.rebalance_needed,
                        st.core.debug_state()
                    );
                }
                Err(_) => {
                    let _ = writeln!(out, "shard {s}: <state locked>");
                }
            }
            if let Ok(o) = h.overflow.try_lock() {
                let _ = writeln!(out, "shard {s}: overflow={}", o.len());
            }
        }
        out
    }

    /// Graceful shutdown: refuse new batches, drain every queue, publish a
    /// final durable cut (synced WALs + final checkpoint), stop and join
    /// the workers. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.ctl.closed.store(true, Ordering::Release);
        if !self.shared.killed.load(Ordering::Acquire) {
            self.quiesce();
            let (f, mut guards) = self.freeze();
            let assembled = self.publish_world(&mut guards, true);
            self.checkpoint_world(&mut guards, assembled);
            self.unfreeze(f, guards);
        }
        self.stop_workers();
    }

    /// Crash-stop: discard queued work, no final sync/checkpoint/publish.
    pub(crate) fn kill(&self) {
        // The caller raised `shared.killed` first; workers drain without
        // processing from here on.
        self.ctl.closed.store(true, Ordering::Release);
        self.stop_workers();
    }

    /// Ask every worker to exit (without draining) and join them.
    ///
    /// The channel-side wake must be `Stop`, not `Nudge`: stop messages are
    /// not counted in `pending_msgs`, and a worker returns on `Stop` before
    /// the per-message decrement. An uncounted `Nudge` here would be
    /// processed as a normal message by a worker parked in `recv`,
    /// underflowing `pending_msgs` and wedging every later `quiesce()`
    /// (the double-shutdown hang `tests/daemon_soak.rs` pins).
    fn stop_workers(&self) {
        for s in 0..self.shards.len() {
            lock(&self.shards[s].overflow).push_back(ShardMsg::Stop);
            let _ = self.shards[s].tx.try_send(ShardMsg::Stop);
        }
        for h in &self.shards {
            if let Some(j) = lock(&h.join).take() {
                let _ = j.join();
            }
        }
    }

    /// Signal workers to exit without joining (Drop path). As in
    /// [`stop_workers`](Self::stop_workers), the wake is an uncounted
    /// `Stop`, never a `Nudge`.
    pub(crate) fn request_stop(&self) {
        self.ctl.closed.store(true, Ordering::Release);
        for s in 0..self.shards.len() {
            lock(&self.shards[s].overflow).push_back(ShardMsg::Stop);
            let _ = self.shards[s].tx.try_send(ShardMsg::Stop);
        }
    }
}

/// One shard worker: drain overflow then the channel, process one message
/// at a time under the shard's state mutex, honor pauses between messages.
fn shard_loop(rt: &ShardedRuntime, s: ShardId, rx: Receiver<ShardMsg>) {
    loop {
        // Pop-then-drop: the overflow guard must die before the blocking
        // `recv`, or a peer's `post` (which takes this mutex) deadlocks
        // against a shard parked on an empty channel.
        let queued = lock(&rt.shards[s].overflow).pop_front();
        let msg = match queued {
            Some(m) => m,
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => return, // runtime gone
            },
        };
        if matches!(msg, ShardMsg::Stop) {
            return;
        }
        if rt.shared.killed.load(Ordering::Acquire) {
            rt.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
            continue; // crash-stop: drain without processing
        }
        rt.wait_unpaused();
        let mut wakes = Vec::new();
        let (delivered, want_rebalance, depth) = {
            let mut st = lock(&rt.shards[s].state);
            let delivered = process_msg(rt, &mut st, msg, &mut wakes);
            st.append_wal(Barrier::WindowElapsed);
            report_shard_metrics(rt, &mut st);
            (delivered, st.core.rebalance_needed, st.core.depth() as u64)
        };
        rt.dispatch(wakes);
        if delivered > 0 {
            rt.note_delivered(delivered);
        }
        if want_rebalance {
            rt.freeze_rebalance();
        }
        rt.maybe_rescale(s, delivered + depth);
        rt.maybe_publish();
        // This message's count releases only now: its deliveries are in
        // `progress.delivered` and every wake it, its rebalance or its
        // rescale produced is already counted, so `pending_msgs` can only
        // hit zero at true quiescence.
        rt.ctl.pending_msgs.fetch_sub(1, Ordering::AcqRel);
    }
}

fn process_msg(
    rt: &ShardedRuntime,
    st: &mut ShardState,
    msg: ShardMsg,
    wakes: &mut Vec<Wake>,
) -> u64 {
    match msg {
        ShardMsg::Batch(events) => {
            let mut delivered = 0;
            for ev in events {
                let t0 = Instant::now();
                let p = ev.process();
                if p.idx() < rt.routing.len() && !st.core.owns(p) {
                    // Routing moved while the batch was queued: forward.
                    let target = rt.routing[p.idx()].load(Ordering::Relaxed) as usize;
                    rt.post(target, ShardMsg::Batch(vec![ev]));
                    continue;
                }
                match st.core.offer(ev, &rt.env, wakes) {
                    Ok(d) => delivered += d,
                    Err(reason) => eprintln!(
                        "[cts-daemon] {}: dropping event {}: {reason}",
                        rt.name, ev.id
                    ),
                }
                rt.shared
                    .metrics
                    .ingest_ns
                    .record(t0.elapsed().as_nanos() as u64);
            }
            delivered
        }
        ShardMsg::Wake(id) => st.core.wake(id, &rt.env, wakes),
        ShardMsg::Nudge => 0,
        ShardMsg::Stop => unreachable!("Stop is handled before processing"),
    }
}

/// Fold this shard's counters into the computation-wide metrics using
/// wrapping deltas (several shards update concurrently).
fn report_shard_metrics(rt: &ShardedRuntime, st: &mut ShardState) {
    let m = &rt.shared.metrics;
    let dup = st.core.duplicates();
    m.duplicates_dropped
        .fetch_add(dup.wrapping_sub(st.reported_dup), Ordering::Relaxed);
    st.reported_dup = dup;
    let depth = st.core.depth() as u64;
    m.reorder_depth
        .fetch_add(depth.wrapping_sub(st.reported_depth), Ordering::Relaxed);
    st.reported_depth = depth;
    let global_depth = m.reorder_depth.load(Ordering::Relaxed);
    m.reorder_peak.fetch_max(global_depth, Ordering::Relaxed);
    // Drift counters live in the shared membership world, not per shard;
    // the world-wide totals are authoritative (fetch_max keeps concurrent
    // reporters monotone).
    if rt.env.strategy.is_adaptive() {
        let (world, _) = rt.env.sets.snapshot();
        m.drift_migrations
            .fetch_max(world.num_migrations, Ordering::Relaxed);
        m.drift_forced_full.fetch_max(
            rt.env.forced_full.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }
}

fn parse_shard_dir(name: &str) -> Option<usize> {
    name.strip_prefix("shard-")?.parse::<usize>().ok()
}

/// All `shard-NN` subdirectories of a computation directory, sorted.
fn shard_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        let is_shard = path.is_dir()
            && path
                .file_name()
                .and_then(|f| f.to_str())
                .and_then(parse_shard_dir)
                .is_some();
        if is_shard {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::pipeline::{Computation, ComputationConfig, DurabilityConfig};
    use crate::shard::StampStrategy;
    use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    /// The group-commit tick must close a shard's unsynced tail even when
    /// the shard has nothing new to deliver: one batch of shard-local
    /// events, no flush, then `nudge_wal_sync` once the window is gone.
    #[test]
    fn nudge_syncs_an_idle_shards_tail() {
        let dir = std::env::temp_dir().join(format!("cts-sharded-nudge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let window = Duration::from_secs(1);
        let (comp, _) = Computation::spawn_durable(ComputationConfig {
            name: "nudge".into(),
            num_processes: 4,
            max_cluster_size: 4,
            strategy: StampStrategy::Merge1st {
                max_cluster_size: 4,
            },
            queue_capacity: 8,
            epoch_every: 1 << 20,
            shards: 2,
            auto_scale: false,
            balance: false,
            pin_cores: false,
            placement: None,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                sync_window: window,
                checkpoint_every: 0,
                wal_byte_budget: None,
            }),
            query_cache_capacity: 0,
            retain_epochs: 0,
            retain_bytes: 0,
        })
        .expect("spawn");
        let local: Vec<Event> = (1..=8)
            .map(|i| {
                Event::new(
                    EventId::new(ProcessId(0), EventIndex(i)),
                    EventKind::Internal,
                )
            })
            .collect();
        comp.enqueue_events(local).expect("enqueue");
        // Delivered and written well inside the window: not yet synced.
        std::thread::sleep(window / 5);
        let syncs = || comp.metrics().wal_syncs.load(Ordering::Relaxed);
        let before = syncs();
        std::thread::sleep(window);
        comp.nudge_wal_sync();
        let deadline = Instant::now() + Duration::from_secs(5);
        while syncs() == before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            syncs() > before,
            "the tick left the idle shard's tail unsynced"
        );
        comp.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
