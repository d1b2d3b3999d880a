//! Sharded causal delivery: the per-process-group engine partition.
//!
//! The single-worker pipeline ([`crate::pipeline`]) delivers every event of a
//! computation on one thread. This module partitions that work per *process
//! group*: each [`ShardCore`] owns the reorder buffer, Fidge/Mattern
//! frontier, cluster stamper, and delivered log for a subset of the processes,
//! seeded from a balanced block partition and rebalanced so that each cluster
//! of the (growing) cluster hierarchy lives on one shard.
//!
//! Cross-shard edges — a receive whose send was delivered on another shard,
//! or a sync whose peer lives on another shard — are sequenced through the
//! [`Exchange`]: the sending side *publishes* the clock the far side needs
//! (a send's stamp; a sync half's pre-sync frontier) and the consuming side
//! either finds it ready or registers for a wake-up. Because every consumed
//! slot was published at (or before) the delivery of the event it describes,
//! any interleaving of shard steps yields a global delivery order that is a
//! linearization of causal order; the [`CutAssembler`] materializes one such
//! linearization incrementally for snapshot publication.
//!
//! ## Why racy stamping stays exact
//!
//! Shards stamp events against a shared, lock-coherent membership world
//! ([`SharedSets`]) that another shard may have advanced concurrently, so a
//! stamp may be projected over a *different* cluster version than an offline
//! engine replaying the assembled order would have used at that position.
//! Precedence remains exact regardless:
//!
//! - a projected stamp carries the event's true Fidge/Mattern knowledge for
//!   every member of whatever version it projected over (possibly 0, which
//!   `precedes` already treats as "no knowledge"), so observing a *grown*
//!   (merged) version late can never hide anything;
//! - shrink — an adaptive drift migration — is guarded by the three rules
//!   of [`cts_core::cluster::AdaptiveEngine`]: the migrating process's
//!   triggering blocked receive is a recorded full stamp, remaining members
//!   of the shrunk cluster carry a pending marker forcing their next stamp
//!   full, and the stale-source watermark forces receives of pre-change
//!   sends full. The rule state lives *inside* the shared
//!   [`MembershipWorld`] snapshot, so a stamper either sees the
//!   post-migration world, rules and all, or the pre-migration world —
//!   whose version still contains the departed process directly, which is
//!   equally sound;
//! - an event classified as a non-mergeable cluster receive under a *stale*
//!   view re-runs the whole rule ladder under the lock before deciding, so
//!   merge and migration decisions are serialized against the freshest
//!   membership;
//! - a non-mergeable or forced-full cluster receive records its **full**
//!   Fidge/Mattern clock, which is exact by delivery-order invariance, so
//!   the relays `precedes` chains through never under-approximate.
//!
//! Migrations deliberately take **no freeze barrier**: the atomic world
//! swap under the [`SharedSets`] lock *is* the migration. Only
//! shard-ownership rebalancing (a performance heuristic) still runs at the
//! runtime's freeze, and cross-shard re-derivation of a migrated process's
//! stamps is parked and handed off through the [`Exchange`] exactly like a
//! migrated sync half.
//!
//! The schedule-exploration harness ([`SimShards`]) drives the very same
//! cores deterministically, one step at a time, so `tests/shard_schedules.rs`
//! can explore interleavings (including mid-stream rebalances) and assert
//! that the cut's precedence equals the offline batch engine's and that every
//! process row of the cut holds exactly that process's events in index order.

use crate::pipeline::lock;
use crate::reorder::{DeliveryHooks, RejectReason, ReorderBuffer};
use cts_core::cluster::{
    AdaptiveParams, ClusterSets, ClusterStamp, ClusterTimestamps, ClusterVersionId, DriftDecider,
    StampLog,
};
use cts_core::fm::row_and_peer;
use cts_core::strategy::{MergeOnFirst, MergePolicy};
use cts_core::VectorClock;
use cts_model::{Event, EventId, EventKind, ProcessId, Trace, TraceLog};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Index of a shard within one computation's shard set.
pub type ShardId = usize;

/// A pending cross-shard wake-up: shard `.0` has work parked under event
/// `.1`, whose clock just became available on the exchange.
pub type Wake = (ShardId, EventId);

// ---------------------------------------------------------------------------
// Exchange: cross-shard clock hand-off
// ---------------------------------------------------------------------------

enum Slot {
    /// The clock is available (a send's stamp, or a sync half's pre-sync
    /// frontier).
    Ready(VectorClock),
    /// Not published yet; these shards asked to be woken when it is.
    Waiting(Vec<ShardId>),
}

/// The cross-shard clock exchange: a striped map from event id to the clock
/// the *consuming* shard needs to apply the cross-shard edge.
///
/// Publication happens at (send) delivery time or (sync) readiness time on
/// the owning shard; consumption removes the slot exactly once, on the
/// delivery of the far-side event. A slot whose edge later turns local (the
/// consumer's process migrated onto the publisher's shard mid-flight) is
/// simply never consumed; ids are globally unique, so leaked slots are
/// unreachable and bounded by the number of rebalances.
pub struct Exchange {
    stripes: Vec<Mutex<HashMap<EventId, Slot>>>,
}

impl Default for Exchange {
    fn default() -> Exchange {
        Exchange::new()
    }
}

impl Exchange {
    /// An empty exchange.
    pub fn new() -> Exchange {
        Exchange {
            stripes: (0..16).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn stripe(&self, id: EventId) -> &Mutex<HashMap<EventId, Slot>> {
        let h = (id.process.0 as usize).wrapping_mul(31) ^ id.index.0 as usize;
        &self.stripes[h % self.stripes.len()]
    }

    /// Publish the clock for `id`, waking any registered shards (appended to
    /// `wakes`). Idempotent: re-publishing an already-ready slot is a no-op.
    pub fn publish(&self, id: EventId, clock: VectorClock, wakes: &mut Vec<Wake>) {
        let mut g = lock(self.stripe(id));
        match g.insert(id, Slot::Ready(clock)) {
            None => {}
            Some(Slot::Waiting(shards)) => wakes.extend(shards.into_iter().map(|s| (s, id))),
            Some(ready @ Slot::Ready(_)) => {
                // Sync halves re-publish their frontier on re-examination.
                g.insert(id, ready);
            }
        }
    }

    /// Is `id` ready? If not, atomically register `me` for a wake-up.
    pub fn ready_or_register(&self, id: EventId, me: ShardId) -> bool {
        let mut g = lock(self.stripe(id));
        match g.entry(id).or_insert_with(|| Slot::Waiting(Vec::new())) {
            Slot::Ready(_) => true,
            Slot::Waiting(shards) => {
                if !shards.contains(&me) {
                    shards.push(me);
                }
                false
            }
        }
    }

    /// Consume the clock for `id`. Panics if the slot is not ready — callers
    /// only consume after a successful readiness check on the same thread.
    pub fn take(&self, id: EventId) -> VectorClock {
        match lock(self.stripe(id)).remove(&id) {
            Some(Slot::Ready(clock)) => clock,
            _ => panic!("exchange slot {id} consumed before it was published"),
        }
    }
}

// ---------------------------------------------------------------------------
// SharedSets: lock-coherent cluster membership across shards
// ---------------------------------------------------------------------------

/// How a computation's stampers classify events and evolve the clustering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StampStrategy {
    /// Merge on the first cluster receive between two clusters (the
    /// daemon's original behaviour; clusters only ever grow).
    Merge1st { max_cluster_size: usize },
    /// Merge-on-Nth plus drift-triggered process migration, mirroring
    /// [`cts_core::cluster::AdaptiveEngine`].
    Adaptive(AdaptiveParams),
}

impl StampStrategy {
    /// The encoding-relevant maximum cluster size of the strategy.
    pub fn max_cluster_size(&self) -> usize {
        match *self {
            StampStrategy::Merge1st { max_cluster_size } => max_cluster_size,
            StampStrategy::Adaptive(p) => p.max_cluster_size,
        }
    }

    /// Is this the adaptive (migrating) strategy?
    pub fn is_adaptive(&self) -> bool {
        matches!(self, StampStrategy::Adaptive(_))
    }
}

/// Cluster membership plus the migration rule state that must be observed
/// atomically with it. One immutable `Arc<MembershipWorld>` is the unit of
/// sharing: every mutation clones the world, applies the change, and swaps
/// the `Arc` under the [`SharedSets`] lock. Bundling the rule state with
/// the sets is what lets migrations skip the freeze barrier — a stamper
/// sees a membership version together with exactly the rules that make
/// stamping over it sound.
#[derive(Clone)]
pub struct MembershipWorld {
    pub sets: ClusterSets,
    /// Rule 2: processes whose next delivered event must record a full
    /// stamp (their cluster shrank under them).
    pub pending_marker: Vec<bool>,
    /// Rule 3: own-index watermark of each process's last shrinking
    /// membership change; receives of sends at or below it are forced
    /// full. While a process's marker is still pending its watermark is
    /// treated as infinite (every message from it is suspect).
    pub lmc: Vec<u32>,
    /// Cluster merges performed. (The generation counter additionally
    /// counts migrations and marker clears, so it is a freshness counter,
    /// not a merge count.)
    pub num_merges: u64,
    /// Drift migrations performed.
    pub num_migrations: u64,
}

impl MembershipWorld {
    fn new(n: u32) -> MembershipWorld {
        MembershipWorld {
            sets: ClusterSets::singletons(n),
            pending_marker: vec![false; n as usize],
            lmc: vec![0; n as usize],
            num_merges: 0,
            num_migrations: 0,
        }
    }

    /// Is a receive of send/sync `(q, j)` suspect under rule 3?
    pub fn stale_source(&self, q: ProcessId, j: u32) -> bool {
        self.pending_marker[q.idx()] || j <= self.lmc[q.idx()]
    }
}

/// The membership world shared by every shard of one computation.
///
/// Readers keep a cached `Arc<MembershipWorld>` and refresh it when the
/// generation counter moves (one atomic load per event on the fast path).
/// The cache can only *lag* the truth; a lagging cache stamps over an older
/// version, which the module-level argument shows is always sound. A cached
/// "different clusters" verdict is re-checked under the lock before any
/// merge or migration decision.
pub struct SharedSets {
    generation: AtomicU64,
    inner: Mutex<Arc<MembershipWorld>>,
}

impl SharedSets {
    /// Singleton clusters for `n` processes, generation 0.
    pub fn new(n: u32) -> SharedSets {
        SharedSets {
            generation: AtomicU64::new(0),
            inner: Mutex::new(Arc::new(MembershipWorld::new(n))),
        }
    }

    /// Number of membership-world changes so far (merges + migrations +
    /// marker clears).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A coherent `(world, generation)` pair.
    pub fn snapshot(&self) -> (Arc<MembershipWorld>, u64) {
        let g = lock(&self.inner);
        (Arc::clone(&g), self.generation.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// ShardFm: the Fidge/Mattern engine restricted to owned processes
// ---------------------------------------------------------------------------

/// Per-shard Fidge/Mattern state: frontier rows for owned processes, plus
/// the in-flight clocks of locally-delivered sends whose receiver is also
/// local. Cross-shard message/sync clocks travel through the [`Exchange`].
#[derive(Clone, Debug)]
struct ShardFm {
    n: u32,
    owned: Vec<bool>,
    frontier: Vec<VectorClock>,
    /// send id → (receiver, stamp) for sends whose receiver is owned here.
    in_flight: HashMap<EventId, (ProcessId, VectorClock)>,
    /// second-half id → combined stamp, within one local sync delivery.
    pending_sync: HashMap<EventId, VectorClock>,
}

impl ShardFm {
    fn new(n: u32, owned: Vec<bool>) -> ShardFm {
        ShardFm {
            n,
            owned,
            frontier: vec![VectorClock::zero(n as usize); n as usize],
            in_flight: HashMap::new(),
            pending_sync: HashMap::new(),
        }
    }

    /// Apply one delivered event: update its process's frontier row in
    /// place and lend it out as the event's Fidge/Mattern stamp. A send
    /// copies the row once (in flight or onto the exchange), a locally
    /// delivered sync pair keeps one combined clock; nothing else allocates.
    fn accept(&mut self, ev: Event, exchange: &Exchange, wakes: &mut Vec<Wake>) -> &VectorClock {
        let p = ev.process();
        let index = ev.index().0;
        match ev.kind {
            EventKind::Internal => self.frontier[p.idx()].set(p, index),
            EventKind::Send { to } => {
                let row = &mut self.frontier[p.idx()];
                row.set(p, index);
                if to.0 < self.n && self.owned[to.idx()] {
                    self.in_flight.insert(ev.id, (to, row.clone()));
                } else {
                    exchange.publish(ev.id, row.clone(), wakes);
                }
            }
            EventKind::Receive { from } => {
                // The send may have been delivered locally (in-flight) or on
                // another shard (exchange) — including the mixed case where
                // the receiver migrated here after the send was published.
                let msg = match self.in_flight.remove(&from) {
                    Some((_, clock)) => clock,
                    None => exchange.take(from),
                };
                let row = &mut self.frontier[p.idx()];
                row.set(p, index);
                row.max_assign(&msg);
            }
            EventKind::Sync { peer } => {
                let q = peer.process;
                if self.owned[q.idx()] {
                    if let Some(combined) = self.pending_sync.remove(&ev.id) {
                        // Second half of a locally-delivered pair.
                        self.frontier[p.idx()] = combined;
                    } else if self.frontier[q.idx()].get(q) >= peer.index.0 {
                        // The peer half was already delivered as a
                        // cross-shard sync before `q` migrated here. `q`'s
                        // *current* frontier may have moved past the sync,
                        // so it must not leak into this stamp; the peer's
                        // pre-sync frontier is still parked on the exchange
                        // (this half is its only consumer).
                        let peer_frontier = exchange.take(peer);
                        let row = &mut self.frontier[p.idx()];
                        row.set(p, index);
                        row.max_assign(&peer_frontier);
                        row.set(q, peer.index.0);
                    } else {
                        let (row, peer_row) = row_and_peer(&mut self.frontier, p, q);
                        row.set(p, index);
                        row.max_assign(peer_row);
                        row.set(q, peer.index.0);
                        self.pending_sync.insert(peer, row.clone());
                    }
                } else {
                    // Both halves compute the identical combined stamp from
                    // the exchanged pre-sync frontiers: componentwise max
                    // with both own components bumped.
                    let peer_frontier = exchange.take(peer);
                    let row = &mut self.frontier[p.idx()];
                    row.set(p, index);
                    row.max_assign(&peer_frontier);
                    row.set(q, peer.index.0);
                }
            }
        }
        &self.frontier[p.idx()]
    }

    /// Release `p` for migration: its frontier row, plus every in-flight
    /// clock with either endpoint on `p` published to the exchange (the new
    /// owner — or a still-local receive under relaxed ownership — consumes
    /// them from there). Returns the frontier row and the published ids.
    fn release_process(
        &mut self,
        p: ProcessId,
        exchange: &Exchange,
        wakes: &mut Vec<Wake>,
    ) -> (VectorClock, Vec<EventId>) {
        debug_assert!(self.pending_sync.is_empty(), "migration inside a sync pair");
        self.owned[p.idx()] = false;
        let ids: Vec<EventId> = self
            .in_flight
            .iter()
            .filter(|(id, (to, _))| id.process == p || *to == p)
            .map(|(id, _)| *id)
            .collect();
        let mut ids = ids;
        ids.sort();
        for &id in &ids {
            let (_, clock) = self.in_flight.remove(&id).expect("collected above");
            exchange.publish(id, clock, wakes);
        }
        let frontier = std::mem::replace(
            &mut self.frontier[p.idx()],
            VectorClock::zero(self.n as usize),
        );
        (frontier, ids)
    }

    fn adopt_process(&mut self, p: ProcessId, frontier: VectorClock) {
        self.owned[p.idx()] = true;
        self.frontier[p.idx()] = frontier;
    }
}

// ---------------------------------------------------------------------------
// ShardStamper: cluster-timestamp classification against SharedSets
// ---------------------------------------------------------------------------

/// Classifies delivered events into projected stamps vs. (non-mergeable or
/// forced) full stamps, against the shared membership world. Merge and
/// migration decisions are serialized by the [`SharedSets`] lock and the
/// whole rule ladder re-runs there, so a stale cache can never produce a
/// wrong decision — only a redundant lock round-trip or an extra (sound)
/// full stamp.
struct ShardStamper {
    strategy: StampStrategy,
    policy: MergeOnFirst,
    cache: Arc<MembershipWorld>,
    cached_generation: u64,
}

impl ShardStamper {
    fn new(env: &ShardEnv) -> ShardStamper {
        let (cache, cached_generation) = env.sets.snapshot();
        ShardStamper {
            strategy: env.strategy,
            policy: MergeOnFirst::new(env.strategy.max_cluster_size()),
            cache,
            cached_generation,
        }
    }

    fn refresh(&mut self, shared: &SharedSets) {
        if self.cached_generation != shared.generation() {
            let (cache, generation) = shared.snapshot();
            self.cache = cache;
            self.cached_generation = generation;
        }
    }

    /// `p`'s current cluster version in the cached world.
    fn current_version(&self, p: ProcessId) -> ClusterVersionId {
        let sets = &self.cache.sets;
        sets.version_of_root(sets.find_readonly(p))
    }

    /// Swap in `next` as the new world and refresh the local cache. The
    /// caller holds the lock.
    fn install(
        &mut self,
        shared: &SharedSets,
        guard: &mut MutexGuard<'_, Arc<MembershipWorld>>,
        next: MembershipWorld,
    ) {
        **guard = Arc::new(next);
        shared.generation.fetch_add(1, Ordering::Release);
        self.cache = Arc::clone(guard);
        self.cached_generation = shared.generation.load(Ordering::Relaxed);
    }

    /// Fire `p`'s pending marker at own-index `index`: clear it and
    /// finalize the rule-3 watermark — any send below this index may have
    /// been stamped over the pre-change version. (The caller records the
    /// full stamp.)
    fn fire_marker(
        &mut self,
        shared: &SharedSets,
        guard: &mut MutexGuard<'_, Arc<MembershipWorld>>,
        p: ProcessId,
        index: u32,
    ) {
        let mut next = MembershipWorld::clone(guard);
        next.pending_marker[p.idx()] = false;
        next.lmc[p.idx()] = next.lmc[p.idx()].max(index.saturating_sub(1));
        self.install(shared, guard, next);
    }

    /// Classify one delivered event. Returns the cluster version its stamp
    /// projects over (`None` for a full stamp; a version is always in the
    /// cached world on return) and whether this call changed cluster
    /// membership (the caller schedules a rebalance).
    fn classify(&mut self, ev: Event, env: &ShardEnv) -> (Option<ClusterVersionId>, bool) {
        self.refresh(&env.sets);
        let p = ev.process();
        let adaptive = self.strategy.is_adaptive();
        // Rule 2: a pending marker forces a recorded full stamp, whatever
        // the event kind. A marker set concurrently (cache lagging) is
        // missed here and the stamp projects over the pre-change version —
        // sound, see the module doc; the marker then fires on `p`'s next
        // event.
        if adaptive && self.cache.pending_marker[p.idx()] {
            let mut guard = lock(&env.sets.inner);
            self.fire_marker(&env.sets, &mut guard, p, ev.index().0);
            env.forced_full.fetch_add(1, Ordering::Relaxed);
            return (None, false);
        }
        let cross = ev.kind.receive_source().filter(|src| {
            let v = self
                .cache
                .sets
                .version_of_root(self.cache.sets.find_readonly(p));
            !self.cache.sets.contains(v, src.process)
        });
        let Some(src) = cross else {
            // Rule 3: an intra-cluster receive of a pre-membership-change
            // send could project away departed-process knowledge without
            // recording anything; force it full instead.
            if adaptive {
                if let Some(src) = ev.kind.receive_source() {
                    if self.cache.stale_source(src.process, src.index.0) {
                        env.forced_full.fetch_add(1, Ordering::Relaxed);
                        return (None, false);
                    }
                }
            }
            return (Some(self.current_version(p)), false);
        };
        // Cluster receive under the cached view: re-run the rule ladder
        // under the lock with the freshest membership (another shard may
        // have merged or migrated since).
        let mut guard = lock(&env.sets.inner);
        if adaptive && guard.pending_marker[p.idx()] {
            self.fire_marker(&env.sets, &mut guard, p, ev.index().0);
            env.forced_full.fetch_add(1, Ordering::Relaxed);
            return (None, false);
        }
        let ra = guard.sets.find_readonly(p);
        let rb = guard.sets.find_readonly(src.process);
        if ra == rb {
            // Merged concurrently — an ordinary intra-cluster receive,
            // unless rule 3 flags the send as pre-change.
            let stale = adaptive && guard.stale_source(src.process, src.index.0);
            self.cache = Arc::clone(&guard);
            self.cached_generation = env.sets.generation.load(Ordering::Relaxed);
            drop(guard);
            if stale {
                env.forced_full.fetch_add(1, Ordering::Relaxed);
                return (None, false);
            }
            return (Some(self.current_version(p)), false);
        }
        match self.strategy {
            StampStrategy::Merge1st { .. } => {
                if self.policy.on_cluster_receive(ra, rb, &guard.sets) {
                    let mut next = MembershipWorld::clone(&guard);
                    let (new_root, version) = next.sets.merge(ra, rb);
                    next.num_merges += 1;
                    self.policy.after_merge(ra, rb, new_root);
                    self.install(&env.sets, &mut guard, next);
                    (Some(version), true)
                } else {
                    drop(guard);
                    (None, false)
                }
            }
            StampStrategy::Adaptive(params) => {
                let my_size = guard.sets.size_of_root(ra);
                let their_size = guard.sets.size_of_root(rb);
                let mut drift = lock(&env.drift);
                if drift.should_merge(ra, rb, my_size + their_size, &params) {
                    let mut next = MembershipWorld::clone(&guard);
                    let (kept, version) = next.sets.merge(ra, rb);
                    drift.note_merge(if kept == ra { rb } else { ra });
                    drop(drift);
                    next.num_merges += 1;
                    self.install(&env.sets, &mut guard, next);
                    return (Some(version), true);
                }
                let index = ev.index().0;
                let migrate = drift.on_blocked(p, index, rb, my_size, their_size, &params);
                if !migrate {
                    drop(drift);
                    drop(guard);
                    return (None, false);
                }
                // Migrate `p` into the sender's cluster. The blocked CR
                // being stamped right now is `p`'s anchor (rule 1), and the
                // world swap under this lock is the entire migration — no
                // freeze, no barrier.
                drift.note_migration(p, index);
                drop(drift);
                let mut next = MembershipWorld::clone(&guard);
                let old_v = next.sets.version_of_root(ra);
                let remaining: Vec<ProcessId> = next
                    .sets
                    .members(old_v)
                    .iter()
                    .copied()
                    .filter(|&m| m != p)
                    .collect();
                next.sets.migrate(p, rb);
                next.num_migrations += 1;
                next.lmc[p.idx()] = index;
                for m in remaining {
                    // Rules 2+3 for the shrunk side: the marker keeps every
                    // message from `m` suspect until it fires, at which
                    // point the watermark is finalized (`fire_marker`).
                    next.pending_marker[m.idx()] = true;
                }
                self.install(&env.sets, &mut guard, next);
                drop(guard);
                (None, true)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ShardCore: one shard's complete delivery state
// ---------------------------------------------------------------------------

/// One delivered event with its cluster stamp, as handed from a shard to the
/// [`CutAssembler`]. The record owns the stamp's words only in transit: the
/// assembler copies them into its [`StampLog`] and drops the record.
#[derive(Clone, Debug)]
pub struct DeliveredRec {
    pub ev: Event,
    /// The cluster version a projected stamp is over; `None` for a full
    /// stamp.
    pub version: Option<ClusterVersionId>,
    /// The stamp's words: the projection over `version`'s members, or the
    /// full clock.
    pub clock: Box<[u32]>,
}

impl DeliveredRec {
    /// The stamp, borrowing this record's words.
    pub fn stamp(&self) -> ClusterStamp<'_> {
        let clock = &self.clock;
        match self.version {
            Some(version) => ClusterStamp::Projected { version, clock },
            None => ClusterStamp::Full { clock },
        }
    }
}

/// The environment every shard of a computation shares.
pub struct ShardEnv {
    pub exchange: Exchange,
    pub sets: SharedSets,
    /// Drift-detection state shared by every shard's stamper (adaptive
    /// strategy only). Separate from the membership world on purpose: it
    /// influences *future* merge/migration decisions but never how an
    /// already-taken snapshot stamps, so it needs no atomicity with `sets`.
    pub drift: Mutex<DriftDecider>,
    /// Full stamps forced by the migration soundness rules (marker fires +
    /// stale-source hits) across all shards.
    pub forced_full: AtomicU64,
    /// The stamping strategy every shard of this computation runs.
    pub strategy: StampStrategy,
    /// Per process, the index of its last delivered event, stored by
    /// whichever shard delivers it.
    pub watermarks: Vec<AtomicU32>,
}

impl ShardEnv {
    /// A fresh environment for `n` processes.
    pub fn new(n: u32, strategy: StampStrategy) -> ShardEnv {
        ShardEnv {
            exchange: Exchange::new(),
            sets: SharedSets::new(n),
            drift: Mutex::new(DriftDecider::new(n)),
            forced_full: AtomicU64::new(0),
            strategy,
            watermarks: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// One shard's delivery state: reorder buffer, Fidge/Mattern frontier,
/// cluster stamper, and the shard's delivered log.
///
/// The core is fully synchronous — the threaded runtime wraps it in a mutex
/// and the schedule harness steps it directly, so both execute the exact
/// same logic.
pub struct ShardCore {
    pub id: ShardId,
    reorder: ReorderBuffer,
    fm: ShardFm,
    stamper: ShardStamper,
    /// Delivered records not yet drained into the cut assembler.
    outbox: Vec<DeliveredRec>,
    /// This shard's full delivered order (per-shard WAL/checkpoint unit).
    log: Vec<Event>,
    /// Set when a delivery merged clusters; the runtime rebalances at the
    /// next message boundary and clears it.
    pub rebalance_needed: bool,
}

impl ShardCore {
    /// A core owning the processes for which `owned` is true, stamping
    /// under the environment's strategy.
    pub fn new(id: ShardId, n: u32, owned: Vec<bool>, env: &ShardEnv) -> ShardCore {
        ShardCore {
            id,
            reorder: ReorderBuffer::owning(n, owned.clone()),
            fm: ShardFm::new(n, owned),
            stamper: ShardStamper::new(env),
            outbox: Vec::new(),
            log: Vec::new(),
            rebalance_needed: false,
        }
    }

    /// Does this shard currently own process `p`?
    pub fn owns(&self, p: ProcessId) -> bool {
        self.reorder.owns(p)
    }

    /// Offer one event of an owned process; returns how many events this
    /// delivered (cross-shard wake-ups are appended to `wakes`).
    pub fn offer(
        &mut self,
        ev: Event,
        env: &ShardEnv,
        wakes: &mut Vec<Wake>,
    ) -> Result<u64, RejectReason> {
        let (reorder, mut hooks) = self.split(env, wakes);
        reorder.offer_with(ev, &mut hooks)
    }

    /// A cross-shard dependency became available: re-examine waiters.
    pub fn wake(&mut self, id: EventId, env: &ShardEnv, wakes: &mut Vec<Wake>) -> u64 {
        let (reorder, mut hooks) = self.split(env, wakes);
        reorder.wake(id, &mut hooks)
    }

    /// The reorder buffer beside the [`DeliveryHooks`] over everything else
    /// the core owns, so a cascade can call back into the engine state.
    fn split<'a>(
        &'a mut self,
        env: &'a ShardEnv,
        wakes: &'a mut Vec<Wake>,
    ) -> (&'a mut ReorderBuffer, CoreHooks<'a>) {
        let hooks = CoreHooks {
            me: self.id,
            fm: &mut self.fm,
            stamper: &mut self.stamper,
            outbox: &mut self.outbox,
            log: &mut self.log,
            env,
            wakes,
            rebalance_needed: &mut self.rebalance_needed,
        };
        (&mut self.reorder, hooks)
    }

    /// Drain the delivered records accumulated since the last drain.
    pub fn drain_outbox(&mut self) -> Vec<DeliveredRec> {
        std::mem::take(&mut self.outbox)
    }

    /// Diagnostic view of the shard's reorder state.
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        self.reorder.debug_state()
    }

    /// This shard's delivered order (for per-shard WAL/checkpointing).
    pub fn log(&self) -> &[Event] {
        &self.log
    }

    /// Total events delivered by this shard.
    pub fn delivered_total(&self) -> u64 {
        self.reorder.delivered_total()
    }

    /// Duplicate arrivals dropped by this shard.
    pub fn duplicates(&self) -> u64 {
        self.reorder.duplicates()
    }

    /// Events currently parked on this shard.
    pub fn depth(&self) -> usize {
        self.reorder.depth()
    }

    /// High-water mark of [`depth`](Self::depth).
    pub fn peak_depth(&self) -> usize {
        self.reorder.peak_depth()
    }

    /// Is this core between sync pairs? `pending_sync` holds the combined
    /// stamp between the two halves of a locally-delivered sync, and
    /// releasing a process inside that window would strand it — placement
    /// migrations check this and defer to the next boundary.
    pub fn sync_quiescent(&self) -> bool {
        self.fm.pending_sync.is_empty()
    }
}

/// The [`DeliveryHooks`] view over a core's non-reorder state, so readiness
/// probes and deliveries run *during* the reorder cascade with the effects
/// of everything delivered earlier in the same cascade.
struct CoreHooks<'a> {
    me: ShardId,
    fm: &'a mut ShardFm,
    stamper: &'a mut ShardStamper,
    outbox: &'a mut Vec<DeliveredRec>,
    log: &'a mut Vec<Event>,
    env: &'a ShardEnv,
    wakes: &'a mut Vec<Wake>,
    rebalance_needed: &'a mut bool,
}

impl DeliveryHooks for CoreHooks<'_> {
    fn clock_ready(&mut self, id: EventId) -> bool {
        // A send delivered locally before its receiver migrated away leaves
        // its clock in `in_flight` until the receiver's shard is released —
        // but by then release_process has published it, so the exchange is
        // authoritative for any clock the buffer does not hold.
        self.env.exchange.ready_or_register(id, self.me)
    }

    fn sync_ready(&mut self, my_half: EventId, peer: EventId) -> bool {
        let frontier = self.fm.frontier[my_half.process.idx()].clone();
        self.env.exchange.publish(my_half, frontier, self.wakes);
        self.env.exchange.ready_or_register(peer, self.me)
    }

    fn deliver(&mut self, ev: Event) {
        let clock = self.fm.accept(ev, &self.env.exchange, self.wakes);
        let (version, merged) = self.stamper.classify(ev, self.env);
        if merged {
            *self.rebalance_needed = true;
        }
        let clock = match version {
            Some(v) => clock.project(self.stamper.cache.sets.members(v)),
            None => clock.as_slice().into(),
        };
        self.outbox.push(DeliveredRec { ev, version, clock });
        self.log.push(ev);
        self.env.watermarks[ev.process().idx()].store(ev.index().0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Migration & rebalancing
// ---------------------------------------------------------------------------

/// Move ownership of process `p` from core `src` to core `dst`. The caller
/// holds both cores exclusively; no other core is involved, so this runs
/// either at a full-stop barrier (rebalance) or under a two-shard lock
/// while every other shard keeps ingesting (placement rescale). Returns how
/// many events were delivered as a side effect (re-offered pending events
/// and re-examined waiters may both cascade).
pub fn migrate_between(
    src: &mut ShardCore,
    dst: &mut ShardCore,
    p: ProcessId,
    env: &ShardEnv,
    wakes: &mut Vec<Wake>,
) -> u64 {
    assert_ne!(src.id, dst.id);
    let mut delivered = 0;
    let (frontier, handed_over) = src.fm.release_process(p, &env.exchange, wakes);
    let (watermark, pending) = src.reorder.release_process(p, &handed_over);
    // `p`'s undrained delivered records follow it, so the assembler's
    // per-process queue keeps seeing `p` in index order no matter which
    // shard's outbox a cut drains first.
    let mut kept = Vec::with_capacity(src.outbox.len());
    let mut moved_recs = Vec::new();
    for rec in src.outbox.drain(..) {
        if rec.ev.process() == p {
            moved_recs.push(rec);
        } else {
            kept.push(rec);
        }
    }
    src.outbox = kept;
    dst.outbox.extend(moved_recs);
    dst.reorder.adopt_process(p, watermark);
    dst.fm.adopt_process(p, frontier);
    for ev in pending {
        match dst.offer(ev, env, wakes) {
            Ok(d) => delivered += d,
            Err(reason) => eprintln!(
                "[cts-daemon] shard {}: migrated event {} refused: {reason}",
                dst.id, ev.id
            ),
        }
    }
    // Local heads whose edge leads to `p` switch to cross-shard edges.
    let (reorder, mut hooks) = src.split(env, wakes);
    delivered + reorder.reexamine_process(p, &mut hooks)
}

/// [`migrate_between`] addressed through a full core slice (the full-stop
/// barrier callers' natural shape).
pub fn migrate_process(
    cores: &mut [&mut ShardCore],
    from: ShardId,
    to: ShardId,
    p: ProcessId,
    env: &ShardEnv,
    wakes: &mut Vec<Wake>,
) -> u64 {
    assert_ne!(from, to);
    let (lo, hi) = cores.split_at_mut(from.max(to));
    let (src, dst) = if from < to {
        (&mut *lo[from], &mut *hi[0])
    } else {
        (&mut *hi[0], &mut *lo[to])
    };
    migrate_between(src, dst, p, env, wakes)
}

/// Re-align process ownership with the current cluster partition: each
/// multi-process cluster is gathered onto the shard already owning the
/// plurality of its members. Runs at a full-stop barrier. Returns
/// `(events delivered as a side effect, processes migrated)`.
pub fn rebalance(
    cores: &mut [&mut ShardCore],
    routing: &[AtomicU32],
    env: &ShardEnv,
    wakes: &mut Vec<Wake>,
) -> (u64, u64) {
    let (world, _) = env.sets.snapshot();
    let partition = world.sets.current_partition();
    // Clear the flags up front: a merge performed *during* a migration's
    // cascading deliveries re-raises them, and the caller loops until no
    // shard asks again (merges are bounded by the process count, so the
    // loop terminates).
    for core in cores.iter_mut() {
        core.rebalance_needed = false;
    }
    let mut delivered = 0;
    let mut moves = 0;
    for members in partition.clusters() {
        if members.len() < 2 {
            continue;
        }
        let mut counts = vec![0usize; cores.len()];
        for &m in members {
            counts[routing[m.idx()].load(Ordering::Relaxed) as usize] += 1;
        }
        let mut target = 0;
        let mut best = 0;
        for (shard, &c) in counts.iter().enumerate() {
            if c > best {
                best = c;
                target = shard;
            }
        }
        for &m in members {
            let cur = routing[m.idx()].load(Ordering::Relaxed) as usize;
            if cur != target {
                delivered += migrate_process(cores, cur, target, m, env, wakes);
                routing[m.idx()].store(target as u32, Ordering::Relaxed);
                moves += 1;
            }
        }
    }
    (delivered, moves)
}

/// The initial balanced block partition of `n` processes over `shards`
/// shards (clusters start as singletons, so any balanced assignment agrees
/// with the cluster hierarchy).
pub fn initial_routing(n: u32, shards: usize) -> Vec<AtomicU32> {
    (0..n)
        .map(|p| AtomicU32::new((p as usize * shards / n.max(1) as usize) as u32))
        .collect()
}

/// The clusters wholly owned by `shard` under `routing` (singletons
/// included). Placement moves whole clusters so it never undoes the
/// cluster-locality invariant [`rebalance`] maintains; a cluster momentarily
/// straddling shards (mid-merge) is skipped and picked up next time.
pub fn clusters_on(
    world: &MembershipWorld,
    routing: &[AtomicU32],
    shard: ShardId,
) -> Vec<Vec<ProcessId>> {
    let partition = world.sets.current_partition();
    let mut groups = Vec::new();
    for members in partition.clusters() {
        let on_shard = |m: &ProcessId| routing[m.idx()].load(Ordering::Relaxed) as usize == shard;
        if !members.is_empty() && members.iter().all(on_shard) {
            groups.push(members.to_vec());
        }
    }
    groups
}

// ---------------------------------------------------------------------------
// PlacementEngine: occupancy-driven shard scaling and stealing
// ---------------------------------------------------------------------------

/// Q16 fixed-point one (the same scale as [`cts_core::cluster`]'s drift
/// EWMAs).
const Q16_ONE: u64 = 1 << 16;

/// Tuning for the placement engine. All ratios are Q16 fixed-point
/// multiples of the *even* share `1/active`, so the thresholds track the
/// current shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementParams {
    /// Never retire below this many shards.
    pub min_shards: usize,
    /// Never split above this many shards (the runtime clamps it to its
    /// pre-allocated slot count).
    pub max_shards: usize,
    /// EWMA decay shift: each message multiplies every shard's load by
    /// `1 - 2^-shift`. Larger = slower, smoother signal.
    pub ewma_shift: u32,
    /// Minimum messages between placement actions (and before the first).
    pub cooldown: u64,
    /// Split/steal when the hottest shard's share exceeds
    /// `even * hot_factor_q16 / 2^16`.
    pub hot_factor_q16: u64,
    /// Retire when the coldest shard's share falls below
    /// `even * cold_factor_q16 / 2^16` (and some other shard is not hot —
    /// retiring into a hot fleet only makes things worse).
    pub cold_factor_q16: u64,
}

impl Default for PlacementParams {
    fn default() -> PlacementParams {
        PlacementParams {
            min_shards: 2,
            max_shards: usize::MAX,
            ewma_shift: 6,
            cooldown: 64,
            hot_factor_q16: Q16_ONE * 3 / 2, // 1.5x the even share
            cold_factor_q16: Q16_ONE / 4,    // 0.25x the even share
        }
    }
}

/// What the placement engine wants done, between two message boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementAction {
    /// Activate a new shard and move about half of this hot shard's
    /// clusters onto it.
    Split(ShardId),
    /// Deactivate this cold shard, moving its clusters to the remaining
    /// shards.
    Retire(ShardId),
    /// Move one cluster from the hot shard to the cold one at a fixed
    /// shard count (`--balance`, or `--shards auto` already at a bound).
    Steal { from: ShardId, to: ShardId },
}

/// Per-shard occupancy tracking and the split/retire/steal policy.
///
/// Each processed message adds its work (events delivered plus resulting
/// queue depth) to the owning shard's Q16 EWMA while every other shard
/// decays, so a shard's *share* of the total is its share of recent work —
/// the same fixed-point machinery as `cluster/adaptive.rs`, integer-only
/// and deterministic. The runtime consults [`decide`](Self::decide) at
/// message boundaries; actions are applied with [`migrate_between`] under
/// the two shards' locks only, never a global freeze.
pub struct PlacementEngine {
    params: PlacementParams,
    /// Per-slot work EWMA, Q16.
    load: Vec<u64>,
    msgs: u64,
    last_action_at: u64,
    /// Clusters moved by steals (and splits/retires) so far.
    pub steals: u64,
    /// Splits + retires so far.
    pub rescales: u64,
}

impl PlacementEngine {
    /// An engine tracking `slots` shard slots.
    pub fn new(slots: usize, params: PlacementParams) -> PlacementEngine {
        PlacementEngine {
            params,
            load: vec![0; slots],
            msgs: 0,
            last_action_at: 0,
            steals: 0,
            rescales: 0,
        }
    }

    /// The engine's tuning.
    pub fn params(&self) -> &PlacementParams {
        &self.params
    }

    /// Record one processed message on `shard` carrying `work` units.
    pub fn note_message(&mut self, shard: ShardId, work: u64) {
        self.msgs += 1;
        let shift = self.params.ewma_shift;
        let add = work.min(1 << 20) * Q16_ONE;
        for (i, l) in self.load.iter_mut().enumerate() {
            let inject = if i == shard { add >> shift } else { 0 };
            *l = *l - (*l >> shift) + inject;
        }
    }

    /// `(hottest share in Q16, hottest shard)` over the first `active`
    /// slots. Zero total load reports an even share.
    pub fn occupancy_q16(&self, active: usize) -> (u64, ShardId) {
        let active = active.clamp(1, self.load.len());
        let total: u64 = self.load[..active].iter().sum();
        if total == 0 {
            return (Q16_ONE / active as u64, 0);
        }
        let (hot, &max) = self.load[..active]
            .iter()
            .enumerate()
            .max_by_key(|&(_, l)| l)
            .expect("active >= 1");
        (max * Q16_ONE / total, hot)
    }

    /// Pick the next placement action, if any, for `active` shards.
    /// `auto` enables split/retire; `balance` enables stealing. The
    /// cooldown restarts on every returned action (the caller applies it).
    pub fn decide(&mut self, active: usize, auto: bool, balance: bool) -> Option<PlacementAction> {
        if active == 0 || (!auto && !balance) {
            return None;
        }
        if self.msgs - self.last_action_at < self.params.cooldown {
            return None;
        }
        let active = active.min(self.load.len());
        let total: u64 = self.load[..active].iter().sum();
        if total == 0 {
            return None;
        }
        let share = |l: u64| l * Q16_ONE / total;
        let (hot, cold) = {
            let mut hot = 0;
            let mut cold = 0;
            for (i, &l) in self.load[..active].iter().enumerate() {
                if l > self.load[hot] {
                    hot = i;
                }
                if l < self.load[cold] {
                    cold = i;
                }
            }
            (hot, cold)
        };
        let even = Q16_ONE / active as u64;
        let hot_thresh = (even * self.params.hot_factor_q16) >> 16;
        let cold_thresh = (even * self.params.cold_factor_q16) >> 16;
        let is_hot = active > 1 && share(self.load[hot]) > hot_thresh;
        let action = if auto && is_hot && active < self.params.max_shards {
            Some(PlacementAction::Split(hot))
        } else if auto
            && !is_hot
            && active > self.params.min_shards
            && share(self.load[cold]) < cold_thresh
        {
            Some(PlacementAction::Retire(cold))
        } else if balance && is_hot && hot != cold {
            Some(PlacementAction::Steal {
                from: hot,
                to: cold,
            })
        } else {
            None
        };
        if action.is_some() {
            self.last_action_at = self.msgs;
        }
        action
    }

    /// Account a completed split: the new shard starts with half the
    /// source's load (the half of its clusters that moved there).
    pub fn note_split(&mut self, from: ShardId, to: ShardId) {
        self.rescales += 1;
        let half = self.load[from] / 2;
        self.load[from] -= half;
        self.load[to] = half;
    }

    /// Account a completed retire: the slot's load pours onto the absorbing
    /// shards through the next messages' EWMA updates.
    pub fn note_retire(&mut self, s: ShardId) {
        self.rescales += 1;
        self.load[s] = 0;
    }

    /// Account `moved` clusters stolen between shards at a fixed count.
    pub fn note_steal(&mut self, moved: u64) {
        self.steals += moved;
    }

    /// Per-slot occupancy shares in Q16 over the first `active` slots
    /// (even shares when no load has been recorded yet).
    pub fn shares_q16(&self, active: usize) -> Vec<u64> {
        let active = active.clamp(1, self.load.len());
        let total: u64 = self.load[..active].iter().sum();
        if total == 0 {
            return vec![Q16_ONE / active as u64; active];
        }
        self.load[..active]
            .iter()
            .map(|&l| l * Q16_ONE / total)
            .collect()
    }

    /// The least-loaded slot among the first `limit`.
    pub fn coldest(&self, limit: usize) -> ShardId {
        let limit = limit.clamp(1, self.load.len());
        (0..limit)
            .min_by_key(|&i| self.load[i])
            .expect("limit >= 1")
    }
}

// ---------------------------------------------------------------------------
// CutAssembler: incremental union of per-shard delivered prefixes
// ---------------------------------------------------------------------------

/// Merges per-shard delivered sequences into one global delivery order, for
/// snapshot publication (the "two-phase cut": shards publish their delivered
/// prefixes, the assembler emits the union's maximal causally-closed valid
/// prefix).
///
/// Consecutive cuts extend earlier ones — the merged log is an append-only
/// [`TraceLog`] plus a [`StampLog`] — so published snapshots are
/// prefix-monotone exactly like the single-worker pipeline's, and a cut
/// publishes shared prefix handles on them: O(`N`) under the freeze, not a
/// copy of history. A cross-shard sync with only one half assembled (the
/// other shard has not processed its wake yet) *dangles*: its process's
/// contribution is truncated just before it and resumes at the next cut.
/// Receives cannot dangle, because a send's record always reaches the
/// assembler no later than its receive's (publication precedes consumption).
pub struct CutAssembler {
    n: u32,
    queues: Vec<VecDeque<DeliveredRec>>,
    /// Per-process count of events consumed into the merged log.
    taken: Vec<u32>,
    log: TraceLog,
    stamps: StampLog,
}

impl CutAssembler {
    /// An empty assembler for computation `name` of `n` processes.
    pub fn new(name: &str, n: u32) -> CutAssembler {
        CutAssembler {
            n,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            taken: vec![0; n as usize],
            log: TraceLog::new(name, n),
            stamps: StampLog::new(n),
        }
    }

    /// Feed one shard's drained outbox (its events arrive in per-process
    /// index order because each shard delivers each owned process in order).
    pub fn ingest(&mut self, recs: Vec<DeliveredRec>) {
        for rec in recs {
            self.queues[rec.ev.process().idx()].push_back(rec);
        }
    }

    /// Extend the merged log as far as causal readiness allows.
    pub fn advance(&mut self) {
        loop {
            let mut progress = false;
            for p in 0..self.n as usize {
                while self.try_consume(p) {
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
    }

    fn try_consume(&mut self, p: usize) -> bool {
        let Some(front) = self.queues[p].front() else {
            return false;
        };
        debug_assert_eq!(front.ev.index().0, self.taken[p] + 1);
        match front.ev.kind {
            EventKind::Internal | EventKind::Send { .. } => {
                self.consume_one(p);
                true
            }
            EventKind::Receive { from } => {
                if self.taken[from.process.idx()] >= from.index.0 {
                    self.consume_one(p);
                    true
                } else {
                    false
                }
            }
            EventKind::Sync { peer } => {
                let q = peer.process.idx();
                let peer_next = self.taken[q] + 1 == peer.index.0;
                let peer_here = self.queues[q].front().is_some_and(|r| r.ev.id == peer);
                if peer_next && peer_here {
                    self.consume_one(p);
                    self.consume_one(q);
                    true
                } else {
                    false // dangles until the peer's shard catches up
                }
            }
        }
    }

    fn consume_one(&mut self, p: usize) {
        let rec = self.queues[p].pop_front().expect("checked by caller");
        let index = rec.ev.index().0;
        self.log
            .push(rec.ev)
            .expect("the assembler consumes events in a valid delivery order");
        self.taken[p] = index;
        self.stamps.push(rec.ev.process(), index, rec.stamp());
    }

    /// Events in the merged log so far.
    pub fn assembled(&self) -> u64 {
        self.log.len() as u64
    }

    /// The merged log itself (the unit a global checkpoint persists).
    pub fn log(&self) -> &[Event] {
        &self.log
    }

    /// Records ingested but not yet consumable (dangling sync tails).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Materialize the assembled prefix as a published snapshot's parts,
    /// sharing the merged log's storage. `sets` must be a membership
    /// snapshot at least as new as every stamp in the log (the cut takes it
    /// after draining the outboxes).
    pub fn snapshot(&self, sets: ClusterSets, num_merges: usize) -> (Trace, ClusterTimestamps) {
        let trace = self
            .log
            .trace()
            .expect("a cut consumes sync pairs whole, so it never ends inside one");
        (trace, self.stamps.timestamps(sets, num_merges))
    }
}

// ---------------------------------------------------------------------------
// SimShards: the deterministic schedule-exploration harness
// ---------------------------------------------------------------------------

/// A recorded sequence of scheduler choices driving [`SimShards`]. Each
/// `choose(k)` consumes the next recorded value modulo `k`; when the
/// recording is exhausted the schedule continues round-robin, so any prefix
/// of a failing schedule is itself a complete, deterministic schedule — the
/// property the shrinker in `tests/shard_schedules.rs` relies on.
#[derive(Clone, Debug)]
pub struct ShardSchedule {
    choices: Vec<u32>,
    cursor: usize,
}

impl ShardSchedule {
    /// A schedule replaying `choices`, then round-robin.
    pub fn new(choices: Vec<u32>) -> ShardSchedule {
        ShardSchedule { choices, cursor: 0 }
    }

    /// The deterministic default: pure round-robin.
    pub fn round_robin() -> ShardSchedule {
        ShardSchedule::new(Vec::new())
    }

    /// Pick one of `k` runnable shards.
    pub fn choose(&mut self, k: usize) -> usize {
        debug_assert!(k > 0);
        let c = self
            .choices
            .get(self.cursor)
            .copied()
            .unwrap_or(self.cursor as u32);
        self.cursor += 1;
        c as usize % k
    }

    /// How many choices were consumed so far.
    pub fn steps(&self) -> usize {
        self.cursor
    }
}

enum SimMsg {
    Batch(Vec<Event>),
    Wake(EventId),
}

/// The sharded engine, single-threaded: the same [`ShardCore`]s the daemon
/// runs on worker threads, stepped one message at a time under an explicit
/// [`ShardSchedule`]. Cross-shard wake-ups become inbox messages, and a
/// merge rebalances synchronously at the step boundary — exactly the
/// runtime's message-boundary barrier, minus the threads.
pub struct SimShards {
    env: ShardEnv,
    routing: Vec<AtomicU32>,
    cores: Vec<ShardCore>,
    inboxes: Vec<VecDeque<SimMsg>>,
    /// Cores are positional and never removed; a retired slot just goes
    /// inactive (routing stops pointing at it). Mirrors the runtime's
    /// active-slot discipline.
    active: Vec<bool>,
    assembler: CutAssembler,
    rejected: u64,
}

/// Two distinct cores of one slice, mutably.
fn pair_mut(cores: &mut [ShardCore], a: usize, b: usize) -> (&mut ShardCore, &mut ShardCore) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = cores.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = cores.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

impl SimShards {
    /// A fresh simulated deployment under the default merge-on-first
    /// strategy.
    pub fn new(name: &str, n: u32, shards: usize, max_cluster_size: usize) -> SimShards {
        SimShards::with_strategy(
            name,
            n,
            shards,
            StampStrategy::Merge1st { max_cluster_size },
        )
    }

    /// A fresh simulated deployment under an explicit strategy.
    pub fn with_strategy(name: &str, n: u32, shards: usize, strategy: StampStrategy) -> SimShards {
        let shards = shards.clamp(1, n.max(1) as usize);
        let env = ShardEnv::new(n, strategy);
        let routing = initial_routing(n, shards);
        let cores = (0..shards)
            .map(|s| {
                let owned: Vec<bool> = (0..n)
                    .map(|p| routing[p as usize].load(Ordering::Relaxed) as usize == s)
                    .collect();
                ShardCore::new(s, n, owned, &env)
            })
            .collect();
        SimShards {
            env,
            routing,
            cores,
            inboxes: (0..shards).map(|_| VecDeque::new()).collect(),
            active: vec![true; shards],
            assembler: CutAssembler::new(name, n),
            rejected: 0,
        }
    }

    /// Number of shard slots ever created (including retired ones).
    pub fn num_shards(&self) -> usize {
        self.cores.len()
    }

    /// Number of currently active shards.
    pub fn active_shards(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Is slot `s` active (routing may point at it)?
    pub fn is_active(&self, s: ShardId) -> bool {
        self.active.get(s).copied().unwrap_or(false)
    }

    /// Live-split shard `from`: activate a fresh core and move roughly half
    /// of `from`'s (whole) clusters onto it, exactly like the runtime's
    /// autoscaler between two messages. Returns the new shard id, or `None`
    /// when the split must defer — fewer than two movable clusters, or
    /// `from` is mid sync pair.
    pub fn split_shard(&mut self, from: ShardId) -> Option<ShardId> {
        if !self.is_active(from) || !self.cores[from].sync_quiescent() {
            return None;
        }
        let (world, _) = self.env.sets.snapshot();
        let groups = clusters_on(&world, &self.routing, from);
        if groups.len() < 2 {
            return None;
        }
        let n = self.routing.len() as u32;
        let to = self.cores.len();
        self.cores
            .push(ShardCore::new(to, n, vec![false; n as usize], &self.env));
        self.inboxes.push(VecDeque::new());
        self.active.push(true);
        let mut wakes = Vec::new();
        // Alternate clusters move; the source keeps the other half.
        for group in groups.iter().skip(1).step_by(2) {
            for &p in group {
                let (src, dst) = pair_mut(&mut self.cores, from, to);
                migrate_between(src, dst, p, &self.env, &mut wakes);
                self.routing[p.idx()].store(to as u32, Ordering::Relaxed);
            }
        }
        self.dispatch(wakes);
        Some(to)
    }

    /// Live-retire shard `s`: move every cluster it owns onto the remaining
    /// active shards (round-robin) and deactivate the slot. Returns `false`
    /// when the retire must defer — `s` is the last active shard, it is mid
    /// sync pair, or a mid-merge cluster straddles shards.
    pub fn retire_shard(&mut self, s: ShardId) -> bool {
        let others: Vec<ShardId> = (0..self.cores.len())
            .filter(|&i| i != s && self.is_active(i))
            .collect();
        if !self.is_active(s) || others.is_empty() || !self.cores[s].sync_quiescent() {
            return false;
        }
        let (world, _) = self.env.sets.snapshot();
        let groups = clusters_on(&world, &self.routing, s);
        let covered: usize = groups.iter().map(Vec::len).sum();
        let routed = (0..self.routing.len())
            .filter(|&p| self.routing[p].load(Ordering::Relaxed) as usize == s)
            .count();
        if covered != routed {
            return false; // a straddling cluster pins `s`; retry later
        }
        let mut wakes = Vec::new();
        for (i, group) in groups.iter().enumerate() {
            let to = others[i % others.len()];
            for &p in group {
                let (src, dst) = pair_mut(&mut self.cores, s, to);
                migrate_between(src, dst, p, &self.env, &mut wakes);
                self.routing[p.idx()].store(to as u32, Ordering::Relaxed);
            }
        }
        self.active[s] = false;
        self.dispatch(wakes);
        true
    }

    /// Route one arriving event to its owning shard's inbox.
    pub fn inject(&mut self, ev: Event) {
        self.inject_batch(&[ev]);
    }

    /// Route a client batch: events are split by the routing table and each
    /// shard's slice arrives as ONE message, exactly like the runtime's
    /// `enqueue`. The distinction matters: a shard services an entire batch
    /// message before the rebalance barrier, so deliveries *within* a batch
    /// can overtake a pending migration that single-event injection would
    /// force to happen first.
    pub fn inject_batch(&mut self, events: &[Event]) {
        let mut per: Vec<Vec<Event>> = vec![Vec::new(); self.cores.len()];
        for &ev in events {
            let p = ev.process();
            let shard = if p.0 < self.routing.len() as u32 {
                self.routing[p.idx()].load(Ordering::Relaxed) as usize
            } else {
                0 // unknown process: let shard 0 reject it
            };
            per[shard].push(ev);
        }
        for (shard, evs) in per.into_iter().enumerate() {
            if !evs.is_empty() {
                self.inboxes[shard].push_back(SimMsg::Batch(evs));
            }
        }
    }

    /// Shards with at least one queued message.
    pub fn runnable(&self) -> Vec<ShardId> {
        (0..self.cores.len())
            .filter(|&s| !self.inboxes[s].is_empty())
            .collect()
    }

    /// Process exactly one queued message on `shard`; dispatch resulting
    /// wake-ups and perform any required rebalance synchronously.
    pub fn step(&mut self, shard: ShardId) {
        let Some(msg) = self.inboxes[shard].pop_front() else {
            return;
        };
        let mut wakes = Vec::new();
        match msg {
            SimMsg::Batch(evs) => {
                for ev in evs {
                    let p = ev.process();
                    if !self.cores[shard].owns(p) {
                        // Routing moved while the message was queued:
                        // forward (each straggler as its own message).
                        if p.0 < self.routing.len() as u32 {
                            let target = self.routing[p.idx()].load(Ordering::Relaxed) as usize;
                            self.inboxes[target].push_back(SimMsg::Batch(vec![ev]));
                        } else {
                            self.rejected += 1;
                        }
                        continue;
                    }
                    if self.cores[shard].offer(ev, &self.env, &mut wakes).is_err() {
                        self.rejected += 1;
                    }
                }
            }
            SimMsg::Wake(id) => {
                self.cores[shard].wake(id, &self.env, &mut wakes);
            }
        }
        self.dispatch(wakes);
        while self.cores.iter().any(|c| c.rebalance_needed) {
            let mut wakes = Vec::new();
            let mut cores: Vec<&mut ShardCore> = self.cores.iter_mut().collect();
            rebalance(&mut cores, &self.routing, &self.env, &mut wakes);
            self.dispatch(wakes);
        }
    }

    fn dispatch(&mut self, wakes: Vec<Wake>) {
        for (shard, id) in wakes {
            self.inboxes[shard].push_back(SimMsg::Wake(id));
        }
    }

    /// Step under `schedule` until every inbox is empty.
    pub fn run_to_quiescence(&mut self, schedule: &mut ShardSchedule) {
        loop {
            let runnable = self.runnable();
            if runnable.is_empty() {
                break;
            }
            let pick = schedule.choose(runnable.len());
            self.step(runnable[pick]);
        }
    }

    /// Take a two-phase cut: drain every shard's delivered records, extend
    /// the merged order, and materialize the snapshot parts.
    pub fn cut(&mut self) -> (Trace, ClusterTimestamps) {
        for core in &mut self.cores {
            let recs = core.drain_outbox();
            self.assembler.ingest(recs);
        }
        self.assembler.advance();
        let (world, _) = self.env.sets.snapshot();
        self.assembler
            .snapshot(world.sets.clone(), world.num_merges as usize)
    }

    /// The current membership world (for tests asserting on migrations).
    pub fn world(&self) -> Arc<MembershipWorld> {
        self.env.sets.snapshot().0
    }

    /// Total events delivered across all shards.
    pub fn delivered_total(&self) -> u64 {
        self.cores.iter().map(|c| c.delivered_total()).sum()
    }

    /// Duplicate arrivals dropped across all shards.
    pub fn duplicates(&self) -> u64 {
        self.cores.iter().map(|c| c.duplicates()).sum()
    }

    /// Events refused outright (unknown process / conflicting duplicate).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Current shard of process `p` (for tests that assert rebalancing).
    pub fn shard_of(&self, p: ProcessId) -> ShardId {
        self.routing[p.idx()].load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_core::ClusterEngine;
    use cts_model::linearize::relinearize;
    use cts_workloads::spmd::Stencil1D;
    use cts_workloads::Workload;

    #[test]
    fn exchange_publish_take_round_trip() {
        let ex = Exchange::new();
        let id = EventId::new(ProcessId(3), cts_model::EventIndex(7));
        let mut wakes = Vec::new();
        assert!(!ex.ready_or_register(id, 1));
        assert!(!ex.ready_or_register(id, 2));
        assert!(!ex.ready_or_register(id, 1)); // deduped
        ex.publish(id, VectorClock::zero(4), &mut wakes);
        assert_eq!(wakes, vec![(1, id), (2, id)]);
        assert!(ex.ready_or_register(id, 5));
        assert_eq!(ex.take(id), VectorClock::zero(4));
    }

    #[test]
    fn sim_round_robin_matches_offline_engine() {
        let t = Stencil1D { procs: 8, iters: 5 }.generate(17);
        for shards in [1, 2, 4] {
            let mut sim = SimShards::new("sim", t.num_processes(), shards, 4);
            for &ev in relinearize(&t, 5).events() {
                sim.inject(ev);
            }
            sim.run_to_quiescence(&mut ShardSchedule::round_robin());
            assert_eq!(
                sim.delivered_total(),
                t.num_events() as u64,
                "{shards} shards"
            );
            let (trace, cts) = sim.cut();
            assert_eq!(trace.num_events(), t.num_events());
            let offline = ClusterEngine::run(&t, MergeOnFirst::new(4));
            for e in t.all_event_ids() {
                for f in t.all_event_ids() {
                    assert_eq!(
                        cts.precedes(&trace, e, f),
                        offline.precedes(&t, e, f),
                        "{shards} shards: {e} -> {f}"
                    );
                }
            }
            // Every process row of the cut holds exactly that process's
            // events, in index order, whichever shard delivered them.
            for p in (0..t.num_processes()).map(ProcessId) {
                let row = |tr: &Trace| -> Vec<Event> {
                    tr.process_events(p).map(|id| tr.event(id)).collect()
                };
                assert_eq!(row(&trace), row(&t), "{shards} shards: row of {p}");
            }
        }
    }

    /// Every stamp of a sharded cut, word for word: a `Full` record is the
    /// event's offline Fidge/Mattern row, a projected one that row's
    /// projection onto its cluster version.
    #[test]
    fn sharded_stamps_equal_the_offline_fm_rows() {
        use cts_core::FmStore;
        use cts_workloads::dce::ThreeTier;
        let rpc = ThreeTier {
            clients: 6,
            servers: 3,
            databases: 2,
            transactions: 60,
        }
        .generate(7);
        let mut traces = vec![rpc, Stencil1D { procs: 8, iters: 5 }.generate(17)];
        traces.extend(
            cts_workloads::suite::mini_suite()
                .into_iter()
                .map(|s| s.trace),
        );
        for t in &traces {
            let fm = FmStore::compute(t);
            for shards in [2, 4] {
                let mut sim = SimShards::new("sim", t.num_processes(), shards, 3);
                for &ev in relinearize(t, 5).events() {
                    sim.inject(ev);
                }
                sim.run_to_quiescence(&mut ShardSchedule::round_robin());
                let (trace, cts) = sim.cut();
                assert_eq!(trace.num_events(), t.num_events(), "{}", t.name());
                let mut full = 0;
                for (pos, ev) in trace.events().iter().enumerate() {
                    let want = fm.stamp(t, ev.id);
                    match cts.stamp_at(pos) {
                        ClusterStamp::Full { clock } => {
                            full += 1;
                            assert_eq!(clock, want, "{} at {shards} shards: {}", t.name(), ev.id);
                        }
                        ClusterStamp::Projected { version, clock } => {
                            let members = cts.sets().members(version);
                            let proj: Vec<u32> = members.iter().map(|q| want[q.idx()]).collect();
                            assert_eq!(
                                clock,
                                &proj[..],
                                "{} at {shards} shards: {}",
                                t.name(),
                                ev.id
                            );
                        }
                    }
                }
                if t.num_sync_pairs() > 0 {
                    assert!(full > 0, "{} at {shards} shards: no full stamp", t.name());
                }
            }
        }
    }

    #[test]
    fn placement_engine_splits_hot_retires_cold_respects_cooldown() {
        let params = PlacementParams {
            cooldown: 8,
            ..PlacementParams::default()
        };
        let mut eng = PlacementEngine::new(4, params);
        // All work lands on shard 0: it must become a split candidate.
        for _ in 0..32 {
            eng.note_message(0, 10);
        }
        let (share, hot) = eng.occupancy_q16(2);
        assert_eq!(hot, 0);
        assert!(share > Q16_ONE * 9 / 10, "share {share}");
        assert_eq!(eng.decide(2, true, false), Some(PlacementAction::Split(0)));
        // Cooldown just restarted: no immediate second action.
        assert_eq!(eng.decide(2, true, false), None);
        eng.note_split(0, 2);
        // Balanced load across three shards, then shard 1 goes idle while
        // 0 and 2 stay warm and even: retire fires on 1.
        let mut eng = PlacementEngine::new(4, params);
        for i in 0..30 {
            eng.note_message(i % 3, 10);
        }
        for i in 0..64 {
            eng.note_message(if i % 2 == 0 { 0 } else { 2 }, 10);
        }
        assert_eq!(eng.decide(3, true, false), Some(PlacementAction::Retire(1)));
        eng.note_retire(1);
        assert_eq!(eng.rescales, 1);
        // Hot at the max shard count with balance on: steal, not split.
        let mut eng = PlacementEngine::new(2, params);
        for _ in 0..32 {
            eng.note_message(1, 10);
        }
        assert_eq!(
            eng.decide(2, true, true),
            Some(PlacementAction::Split(1)),
            "slots remain, split wins"
        );
        let mut eng = PlacementEngine::new(
            2,
            PlacementParams {
                max_shards: 2,
                ..params
            },
        );
        for _ in 0..32 {
            eng.note_message(1, 10);
        }
        assert_eq!(
            eng.decide(2, true, true),
            Some(PlacementAction::Steal { from: 1, to: 0 })
        );
    }

    #[test]
    fn sim_split_and_retire_stay_equivalent_to_offline() {
        let t = Stencil1D { procs: 8, iters: 5 }.generate(23);
        let events = relinearize(&t, 9);
        let events = events.events();
        let third = events.len() / 3;
        let mut sim = SimShards::new("autoscale", t.num_processes(), 2, 4);
        for &ev in &events[..third] {
            sim.inject(ev);
        }
        sim.run_to_quiescence(&mut ShardSchedule::round_robin());
        let new = sim.split_shard(0);
        assert!(new.is_some(), "quiescent split must succeed");
        assert_eq!(sim.active_shards(), 3);
        for &ev in &events[third..2 * third] {
            sim.inject(ev);
        }
        sim.run_to_quiescence(&mut ShardSchedule::round_robin());
        assert!(sim.retire_shard(new.unwrap()), "quiescent retire");
        assert_eq!(sim.active_shards(), 2);
        for &ev in &events[2 * third..] {
            sim.inject(ev);
        }
        sim.run_to_quiescence(&mut ShardSchedule::round_robin());
        assert_eq!(sim.delivered_total(), t.num_events() as u64);
        let (trace, cts) = sim.cut();
        assert_eq!(trace.num_events(), t.num_events());
        let offline = ClusterEngine::run(&t, MergeOnFirst::new(4));
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    cts.precedes(&trace, e, f),
                    offline.precedes(&t, e, f),
                    "{e} -> {f}"
                );
            }
        }
    }

    #[test]
    fn merge_triggers_rebalance_onto_one_shard() {
        // Stencil neighbors exchange messages, so MergeOnFirst glues
        // adjacent processes; after quiescence every cluster must be
        // shard-local.
        let t = Stencil1D { procs: 8, iters: 4 }.generate(3);
        let mut sim = SimShards::new("rebalance", t.num_processes(), 4, 4);
        for &ev in t.events() {
            sim.inject(ev);
        }
        sim.run_to_quiescence(&mut ShardSchedule::round_robin());
        assert_eq!(sim.delivered_total(), t.num_events() as u64);
        let (world, generation) = sim.env.sets.snapshot();
        assert!(generation > 0, "stencil must merge some clusters");
        for members in world.sets.current_partition().clusters() {
            let shard0 = sim.shard_of(members[0]);
            for &m in members {
                assert_eq!(sim.shard_of(m), shard0, "cluster split across shards");
            }
        }
    }
}
