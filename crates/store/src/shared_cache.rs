//! The greatest-concurrent memo shared across the connections of a
//! computation, and the daemon's read backend over it.
//!
//! A precedence question is answered by the paper's §2.3 test
//! ([`ClusterTimestamps::precedes`]): one comparison when `f`'s stamp covers
//! `p_e`, otherwise one component of the greatest cluster receive of each
//! cluster member, O(c log R). That costs about what a memo lookup (a hash
//! and a mutex) costs — less on small clusters, a few times more on the
//! largest — and the questions a tool asks rarely repeat verbatim, so
//! verdicts and materialized clocks are **not** memoised (DESIGN D.1 has
//! the measured break-even). What is memoised is the one result that is
//! expensive and asked again as is: the greatest-concurrent slot vector, a
//! binary search on every process line, as
//! `(e, delivered) → Arc<[Option<EventId>]>`.
//!
//! The daemon's snapshots are prefix-monotone: epoch `k + 1` extends epoch
//! `k` by appending delivered events, never rewriting them — the same
//! observation Replay Clocks make for append-only causal orders. A slot
//! vector does grow as the trace grows (a later event of `q` can be
//! concurrent with `e`), but it is a pure function of the delivered prefix,
//! so the key carries the prefix length and nothing else: the memo is
//! carried across epoch publishes with **no invalidation**, head and as-of
//! reads of one prefix share an entry, and entries for superseded prefixes
//! age out via LRU. Events a snapshot does not contain never reach it (the
//! daemon answers `UNKNOWN_EVENT` first).
//!
//! Locking is sharded: keys hash to one of [`NUM_SHARDS`] independent
//! mutexes, so concurrent connections rarely contend. Hit/miss/eviction
//! counts aggregate the per-shard LRU counters on demand.

use crate::lru::LruCache;
use crate::queries::PrecedenceBackend;
use cts_core::cluster::ClusterTimestamps;
use cts_core::VectorClock;
use cts_model::{EventId, Trace};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shard count (power of two). 16 shards keep contention negligible for a
/// handful of connection threads without bloating small caches.
const NUM_SHARDS: usize = 16;

/// Aggregated cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// One lock shard: greatest-concurrent vectors by `(event, delivered)`.
type GcShard = LruCache<(EventId, u64), Arc<[Option<EventId>]>>;

/// Concurrent, sharded-lock, size-bounded memo of greatest-concurrent
/// results. See the module docs for the carry-forward argument.
pub struct SharedQueryCache {
    shards: Vec<Mutex<GcShard>>,
}

impl SharedQueryCache {
    /// Memo bounded at roughly `capacity` entries (at most 1024 per shard:
    /// an entry is one slot per process), distributed across the shards.
    pub fn new(capacity: usize) -> SharedQueryCache {
        let per_shard = (capacity / NUM_SHARDS).clamp(4, 1024);
        let shards = (0..NUM_SHARDS)
            .map(|_| Mutex::new(LruCache::new(per_shard)))
            .collect();
        SharedQueryCache { shards }
    }

    fn shard(&self, key: &(EventId, u64)) -> MutexGuard<'_, GcShard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() as usize) & (NUM_SHARDS - 1);
        self.shards[i].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Cached greatest-concurrent vector for `e` at a delivered-prefix
    /// length, if present.
    pub fn gc(&self, e: EventId, delivered: u64) -> Option<Arc<[Option<EventId>]>> {
        self.shard(&(e, delivered)).get(&(e, delivered)).cloned()
    }

    /// Memoize a greatest-concurrent vector.
    pub fn insert_gc(&self, e: EventId, delivered: u64, gc: Arc<[Option<EventId>]>) {
        self.shard(&(e, delivered)).insert((e, delivered), gc);
    }

    /// Aggregate hit/miss/eviction counts across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let (h, m, e) = shard.lock().unwrap_or_else(|p| p.into_inner()).stats();
            total.hits += h;
            total.misses += m;
            total.evictions += e;
        }
        total
    }
}

/// The daemon's read backend: cluster timestamps plus the shared
/// greatest-concurrent memo.
///
/// Precedence is the §2.3 test on `cts` and touches no memo. A full clock is
/// materialized only where a whole clock is the answer — once per
/// [`greatest_concurrent`](crate::queries::greatest_concurrent) query, for
/// the predecessor boundary — and the finished slot vector is what `cache`
/// remembers, keyed by the delivered prefix it was computed over.
pub struct CachedClusterBackend<'a> {
    pub cts: &'a ClusterTimestamps,
    pub cache: &'a SharedQueryCache,
}

impl PrecedenceBackend for CachedClusterBackend<'_> {
    fn precedes(&mut self, trace: &Trace, e: EventId, f: EventId) -> bool {
        self.cts.precedes(trace, e, f)
    }

    fn predecessor_clock(&mut self, trace: &Trace, e: EventId) -> Option<VectorClock> {
        Some(self.cts.materialized_clock(trace, e))
    }

    fn recall_gc(&mut self, trace: &Trace, e: EventId) -> Option<Vec<Option<EventId>>> {
        self.cache
            .gc(e, trace.num_events() as u64)
            .map(|slots| slots.to_vec())
    }

    fn remember_gc(&mut self, trace: &Trace, e: EventId, slots: &[Option<EventId>]) {
        self.cache
            .insert_gc(e, trace.num_events() as u64, Arc::from(slots));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{greatest_concurrent, greatest_concurrent_linear, ClusterBackend};
    use cts_core::{ClusterEngine, MergeOnFirst, MergeOnNth, NeverMerge};
    use cts_model::{EventIndex, Oracle, ProcessId, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Five rounds of a 4-process ring in which every process sends before
    /// any receives, so each round's events are concurrent across processes.
    fn sample() -> Trace {
        let mut b = TraceBuilder::new(4);
        for _ in 0..5 {
            let sends: Vec<_> = (0..4u32)
                .map(|i| {
                    b.internal(p(i)).unwrap();
                    b.send(p(i), p((i + 1) % 4)).unwrap()
                })
                .collect();
            for (i, s) in (0..4u32).zip(sends) {
                b.receive(p((i + 1) % 4), s).unwrap();
            }
        }
        b.finish_complete("shared-cache-sample").unwrap()
    }

    /// The first `len` delivered events of `t`, as the daemon would have
    /// published them.
    fn prefix(t: &Trace, len: usize) -> Trace {
        Trace::from_delivery_order("prefix", t.num_processes(), t.events()[..len].to_vec())
            .expect("a prefix of a delivery order is one")
    }

    fn counts(hits: u64, misses: u64) -> CacheStats {
        CacheStats {
            hits,
            misses,
            evictions: 0,
        }
    }

    #[test]
    fn the_memo_is_a_count() {
        let t = sample();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let cache = SharedQueryCache::new(1 << 10);
        let mut b = CachedClusterBackend {
            cts: &cts,
            cache: &cache,
        };
        // However many precedence questions: no lookup, no insert.
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(b.precedes(&t, e, f), cts.precedes(&t, e, f), "{e} -> {f}");
            }
        }
        assert_eq!(cache.stats(), CacheStats::default());

        // One greatest-concurrent query is one lookup whatever the number
        // of process lines searched, and leaves its answer behind.
        let e = EventId::new(p(1), EventIndex(3));
        let first = greatest_concurrent(&mut b, &t, e);
        assert_eq!(first, greatest_concurrent(&mut ClusterBackend(&cts), &t, e));
        assert_eq!(cache.stats(), counts(0, 1));
        assert_eq!(greatest_concurrent(&mut b, &t, e), first);
        assert_eq!(cache.stats(), counts(1, 1));
    }

    #[test]
    fn gc_memo_is_prefix_keyed() {
        let t = sample();
        let short = prefix(&t, t.num_events() / 2);
        let e = EventId::new(p(1), EventIndex(3));
        assert!(short.contains(e));
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let short_cts = ClusterEngine::run(&short, MergeOnFirst::new(2));
        let cache = SharedQueryCache::new(1 << 10);
        let at_short = greatest_concurrent(
            &mut CachedClusterBackend {
                cts: &short_cts,
                cache: &cache,
            },
            &short,
            e,
        );
        assert_eq!(cache.stats(), counts(0, 1));
        // The same event on a longer delivered prefix must not see the old
        // vector: later events are concurrent with it.
        let at_head = greatest_concurrent(
            &mut CachedClusterBackend {
                cts: &cts,
                cache: &cache,
            },
            &t,
            e,
        );
        assert_eq!(cache.stats(), counts(0, 2));
        assert_ne!(at_short, at_head);
        // Both prefixes stay answerable (head and as-of reads share the memo).
        assert_eq!(
            cache.gc(e, short.num_events() as u64).as_deref(),
            Some(&*at_short)
        );
        assert_eq!(
            cache.gc(e, t.num_events() as u64).as_deref(),
            Some(&*at_head)
        );
    }

    /// `slots` is the greatest-concurrent vector of `e` by the definition.
    fn assert_is_gc(o: &Oracle, t: &Trace, e: EventId, slots: &[Option<EventId>]) {
        for q in 0..t.num_processes() {
            let greatest = (1..=t.process_len(p(q)) as u32)
                .map(|i| EventId::new(p(q), EventIndex(i)))
                .rfind(|&c| o.concurrent(t, e, c));
            assert_eq!(slots[q as usize], greatest, "slot {q} of {e}");
        }
    }

    #[test]
    fn cached_backend_matches_uncached_under_eviction() {
        let mini = cts_workloads::suite::mini_suite().swap_remove(2).trace;
        for t in [sample(), mini] {
            let n = t.num_processes();
            let o = Oracle::compute(&t);
            let mut runs = vec![ClusterEngine::run(&t, NeverMerge)];
            for max_cs in [1, 4, 8, 64, n as usize] {
                runs.push(ClusterEngine::run(&t, MergeOnFirst::new(max_cs)));
                runs.push(ClusterEngine::run(&t, MergeOnNth::new(n, max_cs, 1.0)));
            }
            let mut evictions = 0;
            for cts in &runs {
                // Four entries a shard: most answers are evicted before the
                // second pass asks again.
                let cache = SharedQueryCache::new(4);
                let mut cached = CachedClusterBackend { cts, cache: &cache };
                for _ in 0..2 {
                    for e in t.all_event_ids() {
                        let slots = greatest_concurrent(&mut cached, &t, e);
                        assert_is_gc(&o, &t, e, &slots);
                        assert_eq!(
                            slots,
                            greatest_concurrent(&mut ClusterBackend(cts), &t, e),
                            "binary search diverged at {e}"
                        );
                        assert_eq!(
                            slots,
                            greatest_concurrent_linear(&mut ClusterBackend(cts), &t, e),
                            "linear scan diverged at {e}"
                        );
                    }
                }
                let stats = cache.stats();
                assert_eq!(stats.hits + stats.misses, 2 * t.num_events() as u64);
                evictions += stats.evictions;
            }
            assert!(evictions > 0, "a 4-entry-per-shard memo never evicted");
        }
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let t = sample();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let cache = SharedQueryCache::new(1 << 12);
        let ask_all = || {
            let mut cached = CachedClusterBackend {
                cts: &cts,
                cache: &cache,
            };
            for e in t.all_event_ids() {
                assert_eq!(
                    greatest_concurrent(&mut cached, &t, e),
                    greatest_concurrent(&mut ClusterBackend(&cts), &t, e)
                );
            }
        };
        // One thread asks first; whatever the interleaving of the four that
        // follow, everything they ask is already there.
        ask_all();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(ask_all);
            }
        });
        let n = t.num_events() as u64;
        assert_eq!(cache.stats(), counts(4 * n, n));
    }
}
