//! Lock-free per-computation metrics: monotone counters updated by the
//! ingest worker and connection threads, latency histograms
//! ([`cts_util::hist::AtomicHistogram`]), and a consistent-enough snapshot
//! for the `Stats` wire message.

use crate::wire::StatsSnapshot;
use cts_store::CacheStats;
use cts_util::hist::AtomicHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters and histograms for one computation.
#[derive(Debug, Default)]
pub struct Metrics {
    pub events_ingested: AtomicU64,
    pub duplicates_dropped: AtomicU64,
    pub reorder_depth: AtomicU64,
    pub reorder_peak: AtomicU64,
    pub queries_served: AtomicU64,
    pub snapshots_published: AtomicU64,
    /// Batched query messages served.
    pub batch_queries: AtomicU64,
    /// WAL durability barriers issued (group-commit windows closed). Not on
    /// the wire — a process-local observable for the group-commit tests.
    pub wal_syncs: AtomicU64,
    /// Replication, follower side: the leader's commit watermark as of the
    /// last `StreamBatch`, events applied from the stream, and how many
    /// times the subscription was re-established.
    pub repl_commit: AtomicU64,
    pub repl_applied: AtomicU64,
    pub repl_resubscribes: AtomicU64,
    /// As-of queries answered from a retained (non-head) epoch.
    pub asof_hits: AtomicU64,
    /// Adaptive strategy: drift migrations performed by the engine.
    pub drift_migrations: AtomicU64,
    /// Adaptive strategy: full stamps forced by the migration soundness
    /// rules (pending markers + stale-source watermarks).
    pub drift_forced_full: AtomicU64,
    /// Placement: hottest shard's occupancy share, Q16 gauge.
    pub place_occupancy_q16: AtomicU64,
    /// Placement: active shard count gauge (slots carrying routed traffic).
    pub place_shards: AtomicU64,
    /// Placement: completed splits + retires.
    pub place_rescales: AtomicU64,
    /// Placement: clusters stolen between shards at a fixed count.
    pub place_steals: AtomicU64,
    /// Per-event ingest-apply latency (reorder + engine), ns.
    pub ingest_ns: AtomicHistogram,
    /// Per-query service latency, ns (all query types).
    pub query_ns: AtomicHistogram,
    /// Per-query-type service latency, ns.
    pub precedes_ns: AtomicHistogram,
    pub gc_ns: AtomicHistogram,
    pub window_ns: AtomicHistogram,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Materialize the counters for the wire, folding in the computation's
    /// query-cache counters and the epoch retainer's gauge/counter pair.
    /// Individually atomic, not mutually consistent — fine for monitoring.
    pub fn snapshot(
        &self,
        cache: CacheStats,
        epochs_retained: u64,
        epochs_retired: u64,
    ) -> StatsSnapshot {
        let (ingest_p50_ns, ingest_p95_ns) = self.ingest_ns.p50_p95();
        let (query_p50_ns, query_p95_ns) = self.query_ns.p50_p95();
        let (precedes_p50_ns, precedes_p95_ns) = self.precedes_ns.p50_p95();
        let (gc_p50_ns, gc_p95_ns) = self.gc_ns.p50_p95();
        let (window_p50_ns, window_p95_ns) = self.window_ns.p50_p95();
        StatsSnapshot {
            events_ingested: self.events_ingested.load(Ordering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            reorder_depth: self.reorder_depth.load(Ordering::Relaxed),
            reorder_peak: self.reorder_peak.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            ingest_p50_ns,
            ingest_p95_ns,
            query_p50_ns,
            query_p95_ns,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            precedes_p50_ns,
            precedes_p95_ns,
            gc_p50_ns,
            gc_p95_ns,
            window_p50_ns,
            window_p95_ns,
            repl_commit: self.repl_commit.load(Ordering::Relaxed),
            repl_applied: self.repl_applied.load(Ordering::Relaxed),
            repl_resubscribes: self.repl_resubscribes.load(Ordering::Relaxed),
            epochs_retained,
            epochs_retired,
            asof_hits: self.asof_hits.load(Ordering::Relaxed),
            drift_migrations: self.drift_migrations.load(Ordering::Relaxed),
            drift_forced_full: self.drift_forced_full.load(Ordering::Relaxed),
            place_occupancy_q16: self.place_occupancy_q16.load(Ordering::Relaxed),
            place_shards: self.place_shards.load(Ordering::Relaxed),
            place_rescales: self.place_rescales.load(Ordering::Relaxed),
            place_steals: self.place_steals.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.events_ingested.store(10, Ordering::Relaxed);
        m.duplicates_dropped.store(2, Ordering::Relaxed);
        m.queries_served.store(5, Ordering::Relaxed);
        m.ingest_ns.record(1_000);
        m.query_ns.record(2_000);
        m.precedes_ns.record(500);
        m.repl_commit.store(40, Ordering::Relaxed);
        m.repl_applied.store(38, Ordering::Relaxed);
        m.repl_resubscribes.store(1, Ordering::Relaxed);
        let cache = CacheStats {
            hits: 7,
            misses: 3,
            evictions: 1,
        };
        m.asof_hits.store(4, Ordering::Relaxed);
        m.drift_migrations.store(3, Ordering::Relaxed);
        m.drift_forced_full.store(9, Ordering::Relaxed);
        m.place_occupancy_q16.store(1 << 15, Ordering::Relaxed);
        m.place_shards.store(3, Ordering::Relaxed);
        m.place_rescales.store(2, Ordering::Relaxed);
        m.place_steals.store(7, Ordering::Relaxed);
        let s = m.snapshot(cache, 6, 2);
        assert_eq!(s.events_ingested, 10);
        assert_eq!(s.duplicates_dropped, 2);
        assert_eq!(s.queries_served, 5);
        assert!(s.ingest_p50_ns > 0);
        assert!(s.query_p50_ns > 0);
        assert!(s.precedes_p50_ns > 0);
        assert_eq!(s.cache_hits, 7);
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.cache_evictions, 1);
        assert_eq!(s.repl_commit, 40);
        assert_eq!(s.repl_applied, 38);
        assert_eq!(s.repl_resubscribes, 1);
        assert_eq!(s.epochs_retained, 6);
        assert_eq!(s.epochs_retired, 2);
        assert_eq!(s.asof_hits, 4);
        assert_eq!(s.drift_migrations, 3);
        assert_eq!(s.drift_forced_full, 9);
        assert_eq!(s.place_occupancy_q16, 1 << 15);
        assert_eq!(s.place_shards, 3);
        assert_eq!(s.place_rescales, 2);
        assert_eq!(s.place_steals, 7);
    }
}
