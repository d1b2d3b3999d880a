//! Higher-level queries a visualization system issues against the store:
//! precedence, greatest-concurrent-elements, and partial-order scrolling.
//!
//! All queries are generic over a [`PrecedenceBackend`], so the same query
//! code runs against precomputed Fidge/Mattern stamps, cluster timestamps,
//! the recompute-forward cache, or the paged-memory simulator — which is how
//! the experiments compare their costs. The daemon's read path is one more
//! backend, [`CachedClusterBackend`](crate::CachedClusterBackend): cluster
//! timestamps that answer [`greatest_concurrent`] with their own kernel and
//! remember the finished answers.

use cts_core::cluster::ClusterTimestamps;
use cts_core::fm::FmStore;
use cts_core::VectorClock;
use cts_model::{EventId, EventIndex, ProcessId, Trace};

/// Anything that can answer `e → f`.
pub trait PrecedenceBackend {
    /// Does `e` happen before `f`?
    fn precedes(&mut self, trace: &Trace, e: EventId, f: EventId) -> bool;

    /// Are `e` and `f` concurrent?
    fn concurrent(&mut self, trace: &Trace, e: EventId, f: EventId) -> bool {
        e != f && !self.precedes(trace, e, f) && !self.precedes(trace, f, e)
    }

    /// The full Fidge/Mattern clock of `e`, if this backend can produce
    /// one cheaply. Component `q` is the length of `q`'s prefix of events
    /// preceding `e`, which hands [`greatest_concurrent`] the predecessor
    /// boundary for free — only the follower boundary must be searched.
    fn predecessor_clock(&mut self, trace: &Trace, e: EventId) -> Option<VectorClock> {
        let _ = (trace, e);
        None
    }

    /// The whole [`greatest_concurrent`] answer for `e` over exactly this
    /// trace, if the backend has a faster way to it than the generic search
    /// — a memo (keyed by `(e, trace.num_events())`, as the answer grows
    /// with the trace) or a dedicated kernel. Most backends have neither.
    fn answer_gc(&mut self, trace: &Trace, e: EventId) -> Option<Vec<Option<EventId>>> {
        let _ = (trace, e);
        None
    }
}

/// Backend over precomputed Fidge/Mattern stamps.
pub struct FmBackend<'a>(pub &'a FmStore);

impl PrecedenceBackend for FmBackend<'_> {
    fn precedes(&mut self, trace: &Trace, e: EventId, f: EventId) -> bool {
        self.0.precedes(trace, e, f)
    }

    fn predecessor_clock(&mut self, trace: &Trace, e: EventId) -> Option<VectorClock> {
        Some(VectorClock::from_vec(self.0.stamp(trace, e).to_vec()))
    }
}

/// Backend over cluster timestamps.
pub struct ClusterBackend<'a>(pub &'a ClusterTimestamps);

impl PrecedenceBackend for ClusterBackend<'_> {
    fn precedes(&mut self, trace: &Trace, e: EventId, f: EventId) -> bool {
        self.0.precedes(trace, e, f)
    }

    fn predecessor_clock(&mut self, trace: &Trace, e: EventId) -> Option<VectorClock> {
        Some(self.0.materialized_clock(trace, e))
    }
}

impl PrecedenceBackend for crate::timestamp_cache::TimestampCache<'_> {
    fn precedes(&mut self, _trace: &Trace, e: EventId, f: EventId) -> bool {
        crate::timestamp_cache::TimestampCache::precedes(self, e, f)
    }
}

impl PrecedenceBackend for crate::vm_sim::PagedTimestampStore<'_> {
    fn precedes(&mut self, _trace: &Trace, e: EventId, f: EventId) -> bool {
        crate::vm_sim::PagedTimestampStore::precedes(self, e, f)
    }
}

/// For each other process, the greatest event concurrent with `e` — the
/// "greatest-concurrent elements" computation of Ward's thesis, used in §1.1
/// to illustrate virtual-memory thrashing.
///
/// Along each process line `q`, the events preceding `e` form a prefix
/// `[1, a]` (where `a` is component `q` of `e`'s Fidge/Mattern clock) and
/// the events following `e` form a suffix `[b, len]`; everything strictly
/// between is concurrent with `e`. When the backend supplies `e`'s clock
/// via [`PrecedenceBackend::predecessor_clock`], `a` is known up front and
/// `b` is found by binary search over the monotone `e → E(q, ·)` predicate:
/// at most ⌈log₂ k⌉ + 1 precedence tests per process instead of O(k). The
/// greatest concurrent element is `E(q, b − 1)` unless the prefix and
/// suffix are adjacent. Backends without a clock fall back to the linear
/// scan, [`greatest_concurrent_linear`].
///
/// The clock is the only whole vector the search builds; every probe is a
/// plain `precedes` on the backend. A backend that answers the whole query
/// itself ([`PrecedenceBackend::answer_gc`]) is asked once, first, and
/// its answer is returned as is: the daemon's
/// [`CachedClusterBackend`](crate::CachedClusterBackend) answers from its
/// memo or from [`ClusterTimestamps::greatest_concurrent`], which reads the
/// trace forward from `e` instead of probing stamps. [`ClusterBackend`]
/// keeps this generic search, so it stays an independent oracle for that
/// kernel.
pub fn greatest_concurrent<B: PrecedenceBackend>(
    backend: &mut B,
    trace: &Trace,
    e: EventId,
) -> Vec<Option<EventId>> {
    if let Some(slots) = backend.answer_gc(trace, e) {
        return slots;
    }
    let clock = match backend.predecessor_clock(trace, e) {
        Some(c) => c,
        None => return greatest_concurrent_linear(backend, trace, e),
    };
    let mut out = Vec::with_capacity(trace.num_processes() as usize);
    for q in 0..trace.num_processes() {
        let q = ProcessId(q);
        if q == e.process {
            out.push(None);
            continue;
        }
        let len = trace.process_len(q) as u32;
        let a = clock.get(q);
        // First follower of `e` on `q`, in (a, len]; `len + 1` if none.
        let mut lo = a + 1;
        let mut hi = len + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if backend.precedes(trace, e, EventId::new(q, EventIndex(mid))) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let b = lo;
        out.push(if b > a + 1 {
            Some(EventId::new(q, EventIndex(b - 1)))
        } else {
            None
        });
    }
    out
}

/// The linear-scan greatest-concurrent computation: walk each process's
/// events backwards from the end, skipping events that causally follow
/// `e`, until one concurrent with `e` is found (events of one process
/// preceding `e` are a prefix, so the first non-follower that isn't a
/// predecessor is the greatest concurrent one). O(k) precedence tests per
/// process — kept as the oracle the binary-search path is validated
/// against, and as the fallback for backends without a predecessor clock.
pub fn greatest_concurrent_linear<B: PrecedenceBackend>(
    backend: &mut B,
    trace: &Trace,
    e: EventId,
) -> Vec<Option<EventId>> {
    let mut out = Vec::with_capacity(trace.num_processes() as usize);
    for q in 0..trace.num_processes() {
        let q = ProcessId(q);
        if q == e.process {
            out.push(None);
            continue;
        }
        let len = trace.process_len(q) as u32;
        let mut found = None;
        let mut i = len;
        while i >= 1 {
            let cand = EventId::new(q, EventIndex(i));
            if !backend.precedes(trace, e, cand) {
                // First event (from the top) not in e's future; concurrent
                // unless it precedes e.
                if !backend.precedes(trace, cand, e) {
                    found = Some(cand);
                }
                break;
            }
            i -= 1;
        }
        out.push(found);
    }
    out
}

/// Partial-order scrolling: the tool renders a window of `width` events per
/// process starting at index `from`, and must determine the pairwise ordering
/// of everything visible to draw arrows. Returns the number of ordered pairs
/// found (and, as a side effect, drives `width² · N²`-ish precedence load
/// through the backend).
pub fn scroll_window<B: PrecedenceBackend>(
    backend: &mut B,
    trace: &Trace,
    from: u32,
    width: u32,
) -> usize {
    let mut visible = Vec::new();
    for q in 0..trace.num_processes() {
        let q = ProcessId(q);
        let len = trace.process_len(q) as u32;
        for i in from..(from + width).min(len + 1) {
            if i >= 1 {
                visible.push(EventId::new(q, EventIndex(i)));
            }
        }
    }
    let mut ordered = 0;
    for &a in &visible {
        for &b in &visible {
            if a != b && backend.precedes(trace, a, b) {
                ordered += 1;
            }
        }
    }
    ordered
}

/// As [`scroll_window`] but only every `stride`-th visible event enters the
/// pairwise phase — for large-N cost measurements where the full quadratic
/// pass is unnecessary (the paging behaviour per query is what matters).
pub fn scroll_window_sampled<B: PrecedenceBackend>(
    backend: &mut B,
    trace: &Trace,
    from: u32,
    width: u32,
    stride: usize,
) -> usize {
    assert!(stride >= 1);
    let mut visible = Vec::new();
    for q in 0..trace.num_processes() {
        let q = ProcessId(q);
        let len = trace.process_len(q) as u32;
        for i in from..(from + width).min(len + 1) {
            if i >= 1 {
                visible.push(EventId::new(q, EventIndex(i)));
            }
        }
    }
    let sampled: Vec<EventId> = visible.into_iter().step_by(stride).collect();
    let mut ordered = 0;
    for &a in &sampled {
        for &b in &sampled {
            if a != b && backend.precedes(trace, a, b) {
                ordered += 1;
            }
        }
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_core::strategy::MergeOnFirst;
    use cts_core::ClusterEngine;
    use cts_model::{Oracle, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn id(pr: u32, i: u32) -> EventId {
        EventId::new(p(pr), EventIndex(i))
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let s = b.send(p(0), p(1)).unwrap();
        b.internal(p(0)).unwrap();
        b.receive(p(1), s).unwrap();
        b.internal(p(1)).unwrap();
        b.internal(p(2)).unwrap();
        let s2 = b.send(p(1), p(2)).unwrap();
        b.receive(p(2), s2).unwrap();
        b.finish_complete("q").unwrap()
    }

    #[test]
    fn greatest_concurrent_against_oracle() {
        let t = sample();
        let fm = FmStore::compute(&t);
        let o = Oracle::compute(&t);
        let e = id(1, 2); // receive on P1
        let gc = greatest_concurrent(&mut FmBackend(&fm), &t, e);
        // Verify each reported element really is concurrent and maximal.
        for (qi, slot) in gc.iter().enumerate() {
            let q = p(qi as u32);
            if q == e.process {
                assert!(slot.is_none());
                continue;
            }
            if let Some(c) = slot {
                assert!(o.concurrent(&t, e, *c), "{c} not concurrent with {e}");
                // Nothing later on q is concurrent.
                for later in (c.index.0 + 1)..=(t.process_len(q) as u32) {
                    assert!(!o.concurrent(&t, e, id(q.0, later)));
                }
            } else {
                for i in 1..=(t.process_len(q) as u32) {
                    assert!(!o.concurrent(&t, e, id(q.0, i)));
                }
            }
        }
    }

    /// 6 processes, ~30 events each: ring sends, stride-2 cross traffic,
    /// and internal padding so prefix/suffix boundaries land everywhere.
    fn wide_sample() -> Trace {
        let mut b = TraceBuilder::new(6);
        for round in 0..8u32 {
            for i in 0..6u32 {
                b.internal(p(i)).unwrap();
                let s = b.send(p(i), p((i + 1) % 6)).unwrap();
                b.receive(p((i + 1) % 6), s).unwrap();
            }
            if round % 2 == 1 {
                for i in 0..3u32 {
                    let s = b.send(p(i), p(i + 3)).unwrap();
                    b.receive(p(i + 3), s).unwrap();
                }
            }
        }
        b.finish_complete("wide").unwrap()
    }

    /// Wraps a backend and counts precedence probes by candidate process.
    struct CountingBackend<B> {
        inner: B,
        probes: std::collections::HashMap<ProcessId, usize>,
    }

    impl<B: PrecedenceBackend> PrecedenceBackend for CountingBackend<B> {
        fn precedes(&mut self, trace: &Trace, e: EventId, f: EventId) -> bool {
            *self.probes.entry(f.process).or_insert(0) += 1;
            self.inner.precedes(trace, e, f)
        }

        fn predecessor_clock(&mut self, trace: &Trace, e: EventId) -> Option<VectorClock> {
            self.inner.predecessor_clock(trace, e)
        }
    }

    #[test]
    fn binary_search_matches_linear_oracle() {
        for t in [sample(), wide_sample()] {
            let fm = FmStore::compute(&t);
            let cts = ClusterEngine::run(&t, MergeOnFirst::new(3));
            for e in t.all_event_ids() {
                let oracle = greatest_concurrent_linear(&mut FmBackend(&fm), &t, e);
                assert_eq!(
                    greatest_concurrent(&mut FmBackend(&fm), &t, e),
                    oracle,
                    "fm binary search diverged at {e}"
                );
                assert_eq!(
                    greatest_concurrent(&mut ClusterBackend(&cts), &t, e),
                    oracle,
                    "cluster binary search diverged at {e}"
                );
            }
        }
    }

    #[test]
    fn binary_search_probe_bound() {
        let t = wide_sample();
        let fm = FmStore::compute(&t);
        for e in t.all_event_ids() {
            let mut counting = CountingBackend {
                inner: FmBackend(&fm),
                probes: Default::default(),
            };
            greatest_concurrent(&mut counting, &t, e);
            for (q, &n) in &counting.probes {
                let k = t.process_len(*q) as f64;
                let bound = k.log2().ceil() as usize + 1;
                assert!(
                    n <= bound,
                    "{n} probes on {q:?} (len {k}) for {e}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn all_backends_agree_on_queries() {
        let t = sample();
        let fm = FmStore::compute(&t);
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let mut cache = crate::timestamp_cache::TimestampCache::new(&t, 8);
        let mut paged = crate::vm_sim::PagedTimestampStore::new(&t, &fm, 64);
        for e in t.all_event_ids() {
            let a = greatest_concurrent(&mut FmBackend(&fm), &t, e);
            let b = greatest_concurrent(&mut ClusterBackend(&cts), &t, e);
            let c = greatest_concurrent(&mut cache, &t, e);
            let d = greatest_concurrent(&mut paged, &t, e);
            assert_eq!(a, b, "cluster backend diverged at {e}");
            assert_eq!(a, c, "cache backend diverged at {e}");
            assert_eq!(a, d, "paged backend diverged at {e}");
        }
    }

    #[test]
    fn scroll_counts_ordered_pairs() {
        let t = sample();
        let fm = FmStore::compute(&t);
        let full = scroll_window(&mut FmBackend(&fm), &t, 1, 10);
        // Count ordered pairs via the oracle.
        let o = Oracle::compute(&t);
        let mut expect = 0;
        for a in t.all_event_ids() {
            for b in t.all_event_ids() {
                if a != b && o.happened_before(&t, a, b) {
                    expect += 1;
                }
            }
        }
        assert_eq!(full, expect);
        // A narrow window sees fewer pairs.
        let narrow = scroll_window(&mut FmBackend(&fm), &t, 1, 1);
        assert!(narrow < full);
    }
}
