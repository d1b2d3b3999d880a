//! Online adaptive re-clustering: merge-on-Nth *plus* drift-triggered
//! process migration, producing the standard [`ClusterTimestamps`].
//!
//! ## Drift detection
//!
//! Each process carries a fixed-point (Q16) EWMA of its blocked
//! cluster-receive ratio, clocked by its **own** event index so the value is
//! a deterministic function of the delivered prefix regardless of how other
//! processes' events interleave. The EWMA is updated lazily: observing a
//! blocked cluster receive at own-index `i` first decays the average across
//! the `i − last` silent events (signal 0) and then folds in the receive
//! (signal 1). When the EWMA crosses [`AdaptiveParams::drift_threshold_q16`]
//! *and* the process has accumulated [`AdaptiveParams::migrate_after`]
//! blocked receives from one particular foreign cluster, it migrates there.
//!
//! ## Why migration stays exact (the three rules)
//!
//! The base engine's precedence argument (the covering invariant: any
//! knowledge a projected stamp has of processes outside its cluster version
//! is dominated by a recorded full stamp at some member) relies on clusters
//! only growing. Migration of `p` out of cluster `A` into `B` breaks it in
//! exactly three places, each closed by one rule:
//!
//! 1. **The migrating process** is anchored by the triggering blocked
//!    cluster receive itself — a recorded full stamp at `p` whose index
//!    bounds everything `p` knew pre-migration.
//! 2. **Remaining members of `A`** hold *standing* knowledge of `p` that
//!    their post-migration projections (over the shrunk version) can no
//!    longer express. Each gets a **pending marker**: its next delivered
//!    event is forced to a recorded full stamp, covering that knowledge.
//! 3. **In-flight messages**: a send performed *before* the migration but
//!    delivered *after* it can smuggle uncovered knowledge of the departed
//!    process into an intra-cluster receive (which would project without
//!    recording anything). The engine tracks `lmc[q]` — `q`'s own event
//!    index at its last membership change — and forces any receive whose
//!    source `(q, j)` is inside the receiver's current cluster with
//!    `j ≤ lmc[q]` to a recorded full stamp (the **stale-source rule**).
//!
//! Growth on the destination side needs nothing: like a merge, members of
//! `B` only ever gain direct components. Together the rules re-establish the
//! covering invariant after every migration, so `precedes` and
//! `materialized_clock` on the result are exact — the differential oracle
//! the daemon's test harness enforces.

use super::engine::{ClusterTimestamps, StampLog};
use super::membership::ClusterSets;
use super::stamp::ClusterStamp;
use crate::fm::FmEngine;
use cts_model::{Event, ProcessId, Trace};
use std::collections::HashMap;

/// Q16 fixed-point one.
const Q16_ONE: u64 = 1 << 16;

/// Tuning knobs of the adaptive strategy. All decisions derived from these
/// are deterministic functions of the delivered prefix (fixed-point EWMA, no
/// floats on the drift path), so an offline re-run reproduces the online
/// engine bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveParams {
    /// Hard cap on cluster size for both merges and migrations.
    pub max_cluster_size: usize,
    /// Merge when a slot pair's CR count, normalized by the combined size,
    /// exceeds this (the merge-on-Nth rule).
    pub merge_threshold: f64,
    /// Blocked CRs from one foreign cluster before migrating toward it.
    pub migrate_after: u32,
    /// Q16 blocked-CR-ratio EWMA level that counts as drift.
    pub drift_threshold_q16: u32,
    /// EWMA smoothing: alpha = 2^-shift.
    pub ewma_shift: u32,
    /// Minimum own events between two migrations of the same process.
    pub cooldown: u32,
}

impl AdaptiveParams {
    /// Defaults used by the `adaptive:<maxCS>` strategy spec.
    pub fn new(max_cluster_size: usize) -> AdaptiveParams {
        AdaptiveParams {
            max_cluster_size,
            merge_threshold: 0.5,
            migrate_after: 3,
            drift_threshold_q16: (Q16_ONE / 4) as u32,
            ewma_shift: 3,
            cooldown: 16,
        }
    }
}

/// Drift-detection and migration-decision state, separated from the
/// stamping rules so the sharded daemon can keep it behind its own lock
/// (decisions serialize there; the stamping state rides the shared
/// cluster-set snapshot instead).
#[derive(Clone, Debug, Default)]
pub struct DriftDecider {
    /// CR counts between slot pairs (merge bookkeeping).
    pair_counts: HashMap<(u32, u32), u64>,
    /// Per process: blocked CRs from each foreign slot since last reset.
    affinity: Vec<HashMap<u32, u32>>,
    /// Q16 EWMA of the blocked-CR ratio, clocked by own event index.
    ewma_q16: Vec<u32>,
    /// Own event index of the last EWMA observation.
    ewma_at: Vec<u32>,
    /// Own event index at the process's last migration (cooldown).
    migrated_at: Vec<u32>,
}

/// Multiply two Q16 values.
#[inline]
fn q16_mul(a: u64, b: u64) -> u64 {
    (a * b) >> 16
}

/// `base^exp` for a Q16 `base`, by binary exponentiation (exact, portable).
fn q16_pow(mut base: u64, mut exp: u32) -> u64 {
    let mut acc = Q16_ONE;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = q16_mul(acc, base);
        }
        base = q16_mul(base, base);
        exp >>= 1;
    }
    acc
}

impl DriftDecider {
    pub fn new(n: u32) -> DriftDecider {
        DriftDecider {
            pair_counts: HashMap::new(),
            affinity: vec![HashMap::new(); n as usize],
            ewma_q16: vec![0; n as usize],
            ewma_at: vec![0; n as usize],
            migrated_at: vec![0; n as usize],
        }
    }

    /// Merge decision for a cluster receive between two slots. Bumps the
    /// pair count; merging also requires the combined size to fit.
    pub fn should_merge(
        &mut self,
        my_slot: u32,
        their_slot: u32,
        combined: usize,
        params: &AdaptiveParams,
    ) -> bool {
        let key = (my_slot.min(their_slot), my_slot.max(their_slot));
        let count = self.pair_counts.entry(key).or_insert(0);
        *count += 1;
        combined <= params.max_cluster_size
            && (*count as f64 / combined as f64) > params.merge_threshold
    }

    /// Fold bookkeeping after a merge retired `dead_slot`.
    pub fn note_merge(&mut self, dead_slot: u32) {
        self.pair_counts
            .retain(|&(a, b), _| a != dead_slot && b != dead_slot);
    }

    /// A blocked (non-mergeable) cluster receive at `p` (own index `index`)
    /// from `their_slot`: update the EWMA and affinity, and decide whether
    /// `p` should migrate into `their_slot`.
    pub fn on_blocked(
        &mut self,
        p: ProcessId,
        index: u32,
        their_slot: u32,
        my_size: usize,
        their_size: usize,
        params: &AdaptiveParams,
    ) -> bool {
        let i = p.idx();
        // Lazy EWMA: decay across the silent own events, then fold signal 1.
        let silent = index.saturating_sub(self.ewma_at[i]).saturating_sub(1);
        let keep = Q16_ONE - (Q16_ONE >> params.ewma_shift);
        let mut e = q16_mul(self.ewma_q16[i] as u64, q16_pow(keep, silent));
        e += (Q16_ONE - e) >> params.ewma_shift;
        self.ewma_q16[i] = e.min(Q16_ONE) as u32;
        self.ewma_at[i] = index;

        let aff = self.affinity[i].entry(their_slot).or_insert(0);
        *aff += 1;
        let cooled = self.migrated_at[i] == 0 || index >= self.migrated_at[i] + params.cooldown;
        *aff >= params.migrate_after
            && self.ewma_q16[i] >= params.drift_threshold_q16
            && their_size < params.max_cluster_size
            && my_size > 1
            && cooled
    }

    /// Bookkeeping after `p` migrated (at own index `index`).
    pub fn note_migration(&mut self, p: ProcessId, index: u32) {
        self.affinity[p.idx()].clear();
        self.migrated_at[p.idx()] = index;
        self.ewma_q16[p.idx()] = 0;
    }

    /// Current Q16 EWMA of `p`'s blocked-CR ratio (diagnostics).
    pub fn ewma_q16(&self, p: ProcessId) -> u32 {
        self.ewma_q16[p.idx()]
    }
}

/// Online construction of cluster timestamps under the adaptive strategy.
/// Produces the standard [`ClusterTimestamps`]; the daemon's single-worker
/// pipeline runs this exact engine, which is why an offline re-run over the
/// same delivered prefix is bit-identical.
pub struct AdaptiveEngine {
    fm: FmEngine,
    sets: ClusterSets,
    params: AdaptiveParams,
    decider: DriftDecider,
    /// Processes whose next event must carry a recorded full stamp (rule 2).
    pending_marker: Vec<bool>,
    /// Own event index at each process's last membership change (rule 3).
    lmc: Vec<u32>,
    /// Last delivered own index per process (for `lmc` of bystanders).
    last_index: Vec<u32>,
    log: StampLog,
    num_merges: usize,
    num_migrations: usize,
    /// Full stamps forced by markers or the stale-source rule (not ordinary
    /// blocked cluster receives).
    num_forced_full: usize,
}

impl AdaptiveEngine {
    pub fn new(num_processes: u32, params: AdaptiveParams) -> AdaptiveEngine {
        assert!(params.max_cluster_size >= 1);
        assert!(params.migrate_after >= 1);
        AdaptiveEngine {
            fm: FmEngine::new(num_processes),
            sets: ClusterSets::singletons(num_processes),
            params,
            decider: DriftDecider::new(num_processes),
            pending_marker: vec![false; num_processes as usize],
            lmc: vec![0; num_processes as usize],
            last_index: vec![0; num_processes as usize],
            log: StampLog::new(num_processes),
            num_merges: 0,
            num_migrations: 0,
            num_forced_full: 0,
        }
    }

    fn record_full(&mut self, p: ProcessId, index: u32, clock: crate::clock::VectorClock) {
        self.log.push(p, index, ClusterStamp::Full { clock });
    }

    /// Accept the next event in delivery order.
    pub fn accept(&mut self, ev: Event) {
        let fm_stamp = self.fm.accept(ev);
        let p = ev.process();
        let index = ev.index().0;
        self.last_index[p.idx()] = index;

        // Rule 2: a pending marker forces a recorded full stamp, whatever
        // the event kind.
        if std::mem::take(&mut self.pending_marker[p.idx()]) {
            self.num_forced_full += 1;
            self.record_full(p, index, fm_stamp);
            return;
        }

        let my_slot = self.sets.find(p);
        let v = self.sets.version_of_root(my_slot);
        match ev.kind.receive_source() {
            Some(src) if !self.sets.contains(v, src.process) => {
                // Cluster receive: merge, or record and maybe migrate.
                let their_slot = self.sets.find(src.process);
                let my_size = self.sets.size_of_root(my_slot);
                let their_size = self.sets.size_of_root(their_slot);
                if self.decider.should_merge(
                    my_slot,
                    their_slot,
                    my_size + their_size,
                    &self.params,
                ) {
                    let (kept, vid) = self.sets.merge(my_slot, their_slot);
                    let dead = if kept == my_slot { their_slot } else { my_slot };
                    self.decider.note_merge(dead);
                    self.num_merges += 1;
                    let clock = fm_stamp.project(self.sets.members(vid));
                    self.log.push(
                        p,
                        index,
                        ClusterStamp::Projected {
                            version: vid,
                            clock,
                        },
                    );
                    return;
                }
                let migrate = self.decider.on_blocked(
                    p,
                    index,
                    their_slot,
                    my_size,
                    their_size,
                    &self.params,
                );
                // The blocked CR itself is the migrating process's anchor
                // (rule 1): recorded full stamp, before membership changes.
                self.record_full(p, index, fm_stamp);
                if migrate {
                    self.apply_migration(p, index, my_slot, their_slot);
                }
            }
            Some(src) if src.index.0 <= self.lmc[src.process.idx()] => {
                // Rule 3: intra-cluster receive from a pre-membership-change
                // send — the projection could hide departed-process
                // knowledge, so force a recorded full stamp.
                self.num_forced_full += 1;
                self.record_full(p, index, fm_stamp);
            }
            _ => {
                let clock = fm_stamp.project(self.sets.members(v));
                self.log
                    .push(p, index, ClusterStamp::Projected { version: v, clock });
            }
        }
    }

    fn apply_migration(&mut self, p: ProcessId, index: u32, my_slot: u32, their_slot: u32) {
        let old_v = self.sets.version_of_root(my_slot);
        let remaining: Vec<ProcessId> = self
            .sets
            .members(old_v)
            .iter()
            .copied()
            .filter(|&m| m != p)
            .collect();
        self.sets.migrate(p, their_slot);
        self.num_migrations += 1;
        self.decider.note_migration(p, index);
        self.lmc[p.idx()] = index;
        for m in remaining {
            self.pending_marker[m.idx()] = true;
            self.lmc[m.idx()] = self.last_index[m.idx()];
        }
    }

    /// Cluster merges performed so far.
    pub fn num_merges(&self) -> usize {
        self.num_merges
    }

    /// Migrations performed so far.
    pub fn num_migrations(&self) -> usize {
        self.num_migrations
    }

    /// Full stamps forced by markers or the stale-source rule so far.
    pub fn num_forced_full(&self) -> usize {
        self.num_forced_full
    }

    /// Events accepted so far.
    pub fn num_events(&self) -> usize {
        self.log.len()
    }

    /// A queryable snapshot of the timestamps built so far, without
    /// stopping the engine (the epoch-publication primitive): one copy of
    /// the cluster sets plus O(`N`) shared handles on the stamp log, with
    /// no clone of the engine.
    pub fn snapshot(&self) -> ClusterTimestamps {
        self.log.timestamps(self.sets.clone(), self.num_merges)
    }

    /// Finish, yielding the standard queryable timestamp structure.
    pub fn finish(self) -> ClusterTimestamps {
        self.log.timestamps(self.sets, self.num_merges)
    }

    /// Run over a complete trace.
    pub fn run(trace: &Trace, params: AdaptiveParams) -> ClusterTimestamps {
        let mut eng = AdaptiveEngine::new(trace.num_processes(), params);
        eng.log.reserve(trace.num_events());
        for &ev in trace.events() {
            eng.accept(ev);
        }
        eng.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::{Oracle, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn check_exact(t: &Trace, cts: &ClusterTimestamps) {
        let oracle = Oracle::compute(t);
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    cts.precedes(t, e, f),
                    oracle.happened_before(t, e, f),
                    "{e} -> {f}"
                );
            }
        }
    }

    /// P2's affinity shifts from P0/P1 to P3/P4.
    fn drifting() -> Trace {
        let mut b = TraceBuilder::new(5);
        for _ in 0..4 {
            let s = b.send(p(0), p(2)).unwrap();
            b.receive(p(2), s).unwrap();
            let s = b.send(p(0), p(1)).unwrap();
            b.receive(p(1), s).unwrap();
        }
        for _ in 0..12 {
            let s = b.send(p(3), p(2)).unwrap();
            b.receive(p(2), s).unwrap();
            let s = b.send(p(3), p(4)).unwrap();
            b.receive(p(4), s).unwrap();
        }
        b.finish_complete("drifting").unwrap()
    }

    fn eager(max_cs: usize) -> AdaptiveParams {
        AdaptiveParams {
            max_cluster_size: max_cs,
            merge_threshold: 0.0,
            migrate_after: 3,
            drift_threshold_q16: 1,
            ewma_shift: 3,
            cooldown: 1,
        }
    }

    #[test]
    fn q16_pow_is_exact_decay() {
        let keep = Q16_ONE - (Q16_ONE >> 3); // 7/8
        assert_eq!(q16_pow(keep, 0), Q16_ONE);
        assert_eq!(q16_pow(keep, 1), keep);
        assert_eq!(q16_pow(keep, 2), q16_mul(keep, keep));
        let mut by_loop = Q16_ONE;
        for _ in 0..9 {
            by_loop = q16_mul(by_loop, keep);
        }
        assert_eq!(q16_pow(keep, 9), by_loop);
    }

    #[test]
    fn migration_happens_and_stays_exact() {
        let t = drifting();
        let mut eng = AdaptiveEngine::new(t.num_processes(), eager(3));
        for &ev in t.events() {
            eng.accept(ev);
        }
        assert!(
            eng.num_migrations() >= 1,
            "expected P2 to migrate, got {}",
            eng.num_migrations()
        );
        let cts = eng.finish();
        check_exact(&t, &cts);
    }

    #[test]
    fn migration_reduces_cluster_receives() {
        let t = drifting();
        let with = AdaptiveEngine::run(&t, eager(3));
        let frozen = AdaptiveEngine::run(
            &t,
            AdaptiveParams {
                migrate_after: u32::MAX - 1,
                ..eager(3)
            },
        );
        assert!(
            with.num_cluster_receives() < frozen.num_cluster_receives(),
            "adaptive {} !< frozen {}",
            with.num_cluster_receives(),
            frozen.num_cluster_receives()
        );
        check_exact(&t, &frozen);
    }

    #[test]
    fn exactness_across_parameter_grid() {
        let t = drifting();
        for max_cs in [1, 2, 3, 5] {
            for merge_threshold in [0.0, 1.0] {
                for migrate_after in [1, 2, 100] {
                    // (0, 0) is the gate off, as the migration ablation runs it.
                    for (drift_threshold_q16, cooldown) in
                        [(1, 2), ((Q16_ONE / 4) as u32, 2), (0, 0)]
                    {
                        let params = AdaptiveParams {
                            max_cluster_size: max_cs,
                            merge_threshold,
                            migrate_after,
                            drift_threshold_q16,
                            ewma_shift: 3,
                            cooldown,
                        };
                        check_exact(&t, &AdaptiveEngine::run(&t, params));
                    }
                }
            }
        }
    }

    #[test]
    fn exactness_with_sync_events() {
        let mut b = TraceBuilder::new(4);
        for _ in 0..3 {
            b.sync(p(0), p(1)).unwrap();
            b.sync(p(2), p(3)).unwrap();
            b.sync(p(1), p(2)).unwrap();
        }
        let t = b.finish_complete("sync-drift").unwrap();
        for migrate_after in [1, 3] {
            let params = AdaptiveParams {
                migrate_after,
                ..eager(2)
            };
            check_exact(&t, &AdaptiveEngine::run(&t, params));
        }
    }

    /// The delayed-delivery hole the stale-source rule closes: a message
    /// sent inside cluster {0,1,2} *before* P2 migrates away, delivered to
    /// another remaining member *after* — its projection over the shrunk
    /// cluster would hide knowledge of P2.
    #[test]
    fn stale_source_rule_fires_on_delayed_intra_cluster_delivery() {
        let mut b = TraceBuilder::new(5);
        // Cluster {0,1,2} forms; P2 learns of P0 and P1.
        let s = b.send(p(0), p(1)).unwrap();
        b.receive(p(1), s).unwrap();
        let s = b.send(p(1), p(2)).unwrap();
        b.receive(p(2), s).unwrap();
        // P1 sends to P0 now (carrying knowledge of nothing new yet), and
        // P2 sends to P1 so P1 knows P2's line; THEN P1 sends a delayed
        // message to P0 that will arrive only after P2 migrated.
        let s = b.send(p(2), p(1)).unwrap();
        b.receive(p(1), s).unwrap();
        let delayed = b.send(p(1), p(0)).unwrap();
        // Drift: P2 hammers with P3/P4 until it migrates away.
        for _ in 0..6 {
            let s = b.send(p(3), p(2)).unwrap();
            b.receive(p(2), s).unwrap();
            let s = b.send(p(2), p(4)).unwrap();
            b.receive(p(4), s).unwrap();
        }
        // P0 first consumes its pending marker on an internal event, so the
        // delayed delivery below is NOT marker-protected — only the
        // stale-source rule saves it.
        b.internal(p(0)).unwrap();
        // The delayed intra-cluster delivery, after the migration.
        b.receive(p(0), delayed).unwrap();
        let probe = b.internal(p(0)).unwrap();
        let t = b.finish_complete("stale-source").unwrap();

        let mut eng = AdaptiveEngine::new(t.num_processes(), eager(3));
        for &ev in t.events() {
            eng.accept(ev);
        }
        assert!(eng.num_migrations() >= 1, "trace must trigger a migration");
        assert!(
            eng.num_forced_full() >= 1,
            "marker or stale-source rule must fire"
        );
        let cts = eng.finish();
        check_exact(&t, &cts);
        // The probe at P0 causally follows P2's early events only through
        // the delayed message; precedence must see it.
        let oracle = Oracle::compute(&t);
        let e2 = cts_model::EventId::new(p(2), cts_model::EventIndex(1));
        assert_eq!(
            cts.precedes(&t, e2, probe),
            oracle.happened_before(&t, e2, probe)
        );
    }

    #[test]
    fn marker_forces_full_on_remaining_members() {
        // The drifting pattern, then post-migration activity at the
        // remaining members {0,1} so their pending markers actually fire.
        let mut b = TraceBuilder::new(5);
        for _ in 0..4 {
            let s = b.send(p(0), p(2)).unwrap();
            b.receive(p(2), s).unwrap();
            let s = b.send(p(0), p(1)).unwrap();
            b.receive(p(1), s).unwrap();
        }
        for _ in 0..12 {
            let s = b.send(p(3), p(2)).unwrap();
            b.receive(p(2), s).unwrap();
            let s = b.send(p(3), p(4)).unwrap();
            b.receive(p(4), s).unwrap();
        }
        b.internal(p(0)).unwrap();
        b.internal(p(1)).unwrap();
        let t = b.finish_complete("drifting-tail").unwrap();
        let mut eng = AdaptiveEngine::new(t.num_processes(), eager(3));
        let mut saw_marker = false;
        for &ev in t.events() {
            let before = eng.num_forced_full();
            eng.accept(ev);
            if eng.num_forced_full() > before {
                saw_marker = true;
            }
        }
        assert!(eng.num_migrations() >= 1);
        assert!(saw_marker, "remaining members must stamp a forced full");
        check_exact(&t, &eng.finish());
    }

    #[test]
    fn snapshot_matches_prefix_run() {
        let t = drifting();
        let half = t.num_events() / 2;
        let mut eng = AdaptiveEngine::new(t.num_processes(), eager(3));
        for &ev in &t.events()[..half] {
            eng.accept(ev);
        }
        let snap = eng.snapshot();
        let mut prefix_eng = AdaptiveEngine::new(t.num_processes(), eager(3));
        for &ev in &t.events()[..half] {
            prefix_eng.accept(ev);
        }
        let prefix = prefix_eng.finish();
        assert_eq!(snap.stamps(), prefix.stamps());
        for &ev in &t.events()[half..] {
            eng.accept(ev);
        }
        let full = eng.finish();
        let reference = AdaptiveEngine::run(&t, eager(3));
        assert_eq!(full.stamps(), reference.stamps());
    }

    #[test]
    fn materialized_clocks_stay_exact_under_migration() {
        use crate::fm::FmStore;
        let t = drifting();
        let fm = FmStore::compute(&t);
        let cts = AdaptiveEngine::run(&t, eager(3));
        for f in t.all_event_ids() {
            assert_eq!(
                cts.materialized_clock(&t, f).as_slice(),
                fm.stamp(&t, f),
                "materialized clock of {f}"
            );
        }
    }
}
