//! The online cluster-timestamp engine and the queryable result.

use super::membership::{ClusterSets, ClusterVersionId};
use super::stamp::ClusterStamp;
use crate::clock::VectorClock;
use crate::clustering::Clustering;
use crate::fm::FmEngine;
use crate::strategy::{MergePolicy, StaticClusters};
use cts_model::append::{AppendVec, Prefix};
use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId, Trace};
use std::fmt;
use std::ops::Range;

/// A cluster receive recorded as a gateway: the event's sequence number
/// within its process and where its full stamp lives.
#[derive(Clone, Copy, Debug)]
struct CrRecord {
    /// 1-based event index within the process.
    index: u32,
    /// Delivery position, where the `Full` stamp is stored.
    pos: u32,
}

/// Where one stamp's words lie in the arena, and its shape: a `Copy`
/// record of 12 bytes per event.
#[derive(Clone, Copy, Debug)]
struct StampRec {
    /// The cluster version a projected stamp is over, or [`FULL`].
    version: u32,
    /// The arena chunk holding the words.
    chunk: u32,
    /// Offset of the first word within that chunk.
    offset: u32,
}

/// `StampRec::version` of a `Full` stamp (no real version gets this id).
const FULL: u32 = u32::MAX;

/// Words in the smallest arena chunk (one 4 KiB page), unless the clock
/// width `N` is larger.
const MIN_CHUNK_WORDS: usize = 1 << 10;

/// Words in the largest arena chunk (1 GiB), unless the clock width is
/// larger; offsets within a chunk then always fit a `u32`.
const MAX_CHUNK_WORDS: usize = 1 << 28;

/// Events past the query event, per process of the trace, that
/// [`ClusterTimestamps::greatest_concurrent`] reads forward before it
/// binary-searches the lines still open (DESIGN D.4).
const SCAN_PER_PROCESS: usize = 64;

/// Where one greatest-concurrent query's forward scan ended.
struct FollowerScan {
    /// Per process `q`, the first event of `q` that follows the query
    /// event, clamped to `[a_q + 1, len_q + 1]`.
    first: Vec<u32>,
    /// Events of the trace the scan read.
    #[allow(dead_code)] // diagnostic: referenced from tests only
    visited: usize,
    /// Lines still open when the scan stopped, finished by binary search.
    #[allow(dead_code)] // diagnostic: referenced from tests only
    searched: usize,
}

/// The append-only half of a cluster-timestamp structure: the stamps in
/// delivery order and, per process, the cluster receives among them.
///
/// Every online stamper (the [`ClusterEngine`], the
/// [`AdaptiveEngine`](super::AdaptiveEngine), a sharded daemon's cut
/// assembler) grows one of these, and [`timestamps`](Self::timestamps)
/// turns what it holds so far into a queryable [`ClusterTimestamps`] that
/// shares the storage — an epoch snapshot in O(`N` + log history) handles,
/// whatever the length of history.
///
/// A stamp's words go to an arena of chunks that never move: chunk `k`
/// holds `base·2^k` words (`base ≥ N`, so a full stamp always fits one
/// chunk) unless [`reserve`](Self::reserve) asked for more, is allocated at
/// that capacity and is never grown, and a stamp that does not fit the
/// rest of the open chunk starts the next one. Each
/// event adds a [`StampRec`] locating its words. A word is therefore
/// written once and never copied, and the untouched tail of the open chunk
/// costs address space, not resident memory.
pub struct StampLog {
    recs: AppendVec<StampRec>,
    /// The word arena: every chunk but the last is closed.
    chunks: Vec<AppendVec<u32>>,
    /// Words in chunk 0.
    base: usize,
    /// Cluster receives per process, in increasing `index` order.
    crs: Vec<AppendVec<CrRecord>>,
    num_cluster_receives: usize,
}

impl StampLog {
    /// An empty log for `num_processes` processes.
    pub fn new(num_processes: u32) -> StampLog {
        StampLog::with_base(num_processes, MIN_CHUNK_WORDS)
    }

    /// An empty log whose first arena chunk holds `base` words, or `N` if
    /// that is more.
    fn with_base(num_processes: u32, base: usize) -> StampLog {
        StampLog {
            recs: AppendVec::new(),
            chunks: Vec::new(),
            base: base.max(num_processes as usize),
            crs: (0..num_processes).map(|_| AppendVec::new()).collect(),
            num_cluster_receives: 0,
        }
    }

    /// Append the stamp of the next delivered event, event `index` of
    /// process `p`, copying its words into the arena. A `Full` stamp is
    /// recorded as one of `p`'s cluster receives (events of one process
    /// arrive in index order, so each list stays sorted).
    pub fn push(&mut self, p: ProcessId, index: u32, stamp: ClusterStamp<'_>) {
        let version = match stamp {
            ClusterStamp::Projected { version, .. } => version.0,
            ClusterStamp::Full { clock } => {
                debug_assert_eq!(clock.len(), self.crs.len(), "a full stamp is N wide");
                self.num_cluster_receives += 1;
                self.crs[p.idx()].push(CrRecord {
                    index,
                    pos: self.recs.len() as u32,
                });
                FULL
            }
        };
        let clock = stamp.clock();
        let (chunk, offset) = self.open_chunk(clock.len());
        self.chunks[chunk as usize].extend_from_slice(clock);
        self.recs.push(StampRec {
            version,
            chunk,
            offset,
        });
    }

    /// Append a projected stamp over `version` (whose member list is
    /// `members`), writing the projection of `fm` straight into the arena.
    pub fn push_projected(
        &mut self,
        version: ClusterVersionId,
        fm: &VectorClock,
        members: &[ProcessId],
    ) {
        let (chunk, offset) = self.open_chunk(members.len());
        self.chunks[chunk as usize].extend(members.iter().map(|&q| fm.get(q)));
        self.recs.push(StampRec {
            version: version.0,
            chunk,
            offset,
        });
    }

    /// The chunk and offset where a stamp of `len` words goes: the open
    /// chunk if they fit, else a new one.
    #[inline]
    fn open_chunk(&mut self, len: usize) -> (u32, u32) {
        if self.chunks.last().is_none_or(|c| c.spare() < len) {
            self.open_new_chunk(len);
        }
        let open = self.chunks.len() - 1;
        (open as u32, self.chunks[open].len() as u32)
    }

    /// Open a chunk of at least `min` words (up to the largest chunk). A
    /// chunk holds `base` more words than all chunks before it, so chunk
    /// `k` holds `base·2^k` unless a reservation asked for more.
    #[cold]
    fn open_new_chunk(&mut self, min: usize) {
        let held: usize = self.chunks.iter().map(|c| c.len() + c.spare()).sum();
        let cap = (held + self.base)
            .max(min)
            .min(MAX_CHUNK_WORDS.max(self.base));
        self.chunks.push(AppendVec::with_capacity(cap));
    }

    /// Stamps appended so far.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Has nothing been appended yet?
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Room for `additional` more stamps without allocating: their records,
    /// and words for as many full stamps in the open chunk (or a new one of
    /// that size, up to the largest chunk). Words never written cost
    /// address space, not resident memory. A run of known length thus
    /// writes its words into one allocation, which a later run in the same
    /// process can get back from the allocator with its pages still mapped;
    /// a ladder of chunks is more often returned to the operating system
    /// on drop and faulted in again.
    pub fn reserve(&mut self, additional: usize) {
        self.recs.reserve(additional);
        let words = additional.saturating_mul(self.crs.len());
        if self.chunks.last().is_none_or(|c| c.spare() < words) {
            self.open_new_chunk(words);
        }
    }

    /// The queryable structure over every stamp appended so far. `sets`
    /// must hold every version a `Projected` stamp names; the result shares
    /// the records, the word arena and the cluster-receive lists with this
    /// log.
    pub fn timestamps(&self, sets: ClusterSets, num_merges: usize) -> ClusterTimestamps {
        ClusterTimestamps {
            sets,
            recs: self.recs.prefix(),
            words: self.chunks.iter().map(AppendVec::prefix).collect(),
            crs: self.crs.iter().map(AppendVec::prefix).collect(),
            num_cluster_receives: self.num_cluster_receives,
            num_merges,
        }
    }
}

/// Online construction of cluster timestamps (§2.3's creation algorithm).
///
/// Feed events in delivery order with [`accept`](Self::accept); call
/// [`finish`](Self::finish) for the queryable [`ClusterTimestamps`]. The
/// engine internally runs the Fidge/Mattern computation (which retains only
/// its frontier), classifies cluster receives against the *current* clusters,
/// consults the [`MergePolicy`] for mergeability, and keeps full stamps only
/// for non-mergeable cluster receives — "the algorithm deletes Fidge/Mattern
/// timestamps that are no longer needed".
///
/// See [`snapshot`](Self::snapshot) for the live-query use case.
pub struct ClusterEngine<S> {
    fm: FmEngine,
    sets: ClusterSets,
    policy: S,
    log: StampLog,
    num_merges: usize,
}

impl<S: MergePolicy> ClusterEngine<S> {
    /// Engine starting from singleton clusters (dynamic strategies).
    pub fn new(num_processes: u32, policy: S) -> ClusterEngine<S> {
        ClusterEngine {
            fm: FmEngine::new(num_processes),
            sets: ClusterSets::singletons(num_processes),
            policy,
            log: StampLog::new(num_processes),
            num_merges: 0,
        }
    }

    /// Engine starting from a pre-determined partition (static two-pass
    /// mode; pair with [`StaticClusters`]).
    pub fn with_partition(
        num_processes: u32,
        clustering: &Clustering,
        policy: S,
    ) -> ClusterEngine<S> {
        ClusterEngine {
            fm: FmEngine::new(num_processes),
            sets: ClusterSets::from_partition(num_processes, clustering),
            policy,
            log: StampLog::new(num_processes),
            num_merges: 0,
        }
    }

    /// Room for `additional` more events without allocating stamp storage
    /// (see [`StampLog::reserve`]).
    pub fn reserve(&mut self, additional: usize) {
        self.log.reserve(additional);
    }

    /// Accept the next event in delivery order.
    pub fn accept(&mut self, ev: Event) {
        let fm_stamp = self.fm.accept(ev);
        let p = ev.process();

        // Cluster-receive classification: a receiving event whose source
        // process is currently outside the receiver's cluster.
        let cr_source = match ev.kind.receive_source() {
            Some(src)
                if !{
                    let v = self.sets.current_version(p);
                    self.sets.contains(v, src.process)
                } =>
            {
                Some(src)
            }
            _ => None,
        };

        let v = match cr_source {
            // Ordinary event: project onto the current cluster.
            None => self.sets.current_version(p),
            Some(src) => {
                let ra = self.sets.find(p);
                let rb = self.sets.find(src.process);
                if !self.policy.on_cluster_receive(ra, rb, &self.sets) {
                    // Non-mergeable cluster receive: keep the full stamp (the
                    // log notes it as the greatest cluster receive of `p` so
                    // far).
                    let clock = fm_stamp.as_slice();
                    self.log.push(p, ev.index().0, ClusterStamp::Full { clock });
                    return;
                }
                // Mergeable: the merge makes this event no longer a cluster
                // receive; project onto the merged cluster.
                let (new_root, v) = self.sets.merge(ra, rb);
                self.policy.after_merge(ra, rb, new_root);
                self.num_merges += 1;
                v
            }
        };
        self.log.push_projected(v, fm_stamp, self.sets.members(v));
    }

    /// Coarsen the current clusters to realize `target`: every group of the
    /// target partition becomes one cluster, formed by merging the current
    /// clusters it contains. Panics if the target would *split* a current
    /// cluster (clusters may only grow, §1.2).
    ///
    /// This is the pivot of the collect-then-cluster hybrid
    /// ([`crate::hybrid`]): after a prefix of events has been observed with
    /// singleton clusters, the statically computed clustering is imposed and
    /// stamping continues.
    pub fn merge_partition(&mut self, target: &Clustering) {
        let n = self.sets.num_processes() as u32;
        target
            .validate(n)
            .expect("target clustering must partition the process set");
        // No current cluster may straddle two target groups.
        let assign = target.assignment(n);
        for group in self.sets.current_partition().clusters() {
            let g0 = assign[group[0].idx()];
            assert!(
                group.iter().all(|m| assign[m.idx()] == g0),
                "target clustering splits an existing cluster"
            );
        }
        for group in target.clusters() {
            let mut root = self.sets.find(group[0]);
            for &m in &group[1..] {
                let rm = self.sets.find(m);
                if rm != root {
                    let (new_root, _) = self.sets.merge(root, rm);
                    self.policy.after_merge(root, rm, new_root);
                    self.num_merges += 1;
                    root = new_root;
                }
            }
        }
    }

    /// Snapshot of the current partition (without consuming the engine).
    pub fn final_partition_snapshot(&self) -> Clustering {
        self.sets.current_partition()
    }

    /// A queryable snapshot of the timestamps built *so far*, without
    /// stopping the engine — the epoch-publication primitive of a live
    /// monitoring entity: ingest keeps calling [`accept`](Self::accept) on
    /// the original while query threads read the frozen prefix. Costs one
    /// copy of the cluster sets plus O(`N`) shared handles on the stamp
    /// log; the engine itself is not cloned.
    pub fn snapshot(&self) -> ClusterTimestamps {
        self.log.timestamps(self.sets.clone(), self.num_merges)
    }

    /// Finish, yielding the queryable timestamp structure.
    pub fn finish(self) -> ClusterTimestamps {
        self.log.timestamps(self.sets, self.num_merges)
    }

    /// Run over a complete trace.
    pub fn run(trace: &Trace, policy: S) -> ClusterTimestamps {
        let mut eng = ClusterEngine::new(trace.num_processes(), policy);
        eng.log.reserve(trace.num_events());
        for &ev in trace.events() {
            eng.accept(ev);
        }
        eng.finish()
    }
}

/// Two-pass static mode: timestamp `trace` against a pre-determined
/// clustering (first pass: compute the clustering; second pass: this).
pub fn run_static(trace: &Trace, clustering: &Clustering) -> ClusterTimestamps {
    let mut eng = ClusterEngine::with_partition(trace.num_processes(), clustering, StaticClusters);
    eng.log.reserve(trace.num_events());
    for &ev in trace.events() {
        eng.accept(ev);
    }
    eng.finish()
}

/// The complete cluster-timestamp structure for a trace: per-event stamps,
/// the cluster version history, and the per-process cluster-receive chains
/// used by precedence queries.
///
/// The stamp records, the word arena's chunks and the chains are [`Prefix`]
/// handles on a [`StampLog`], so the epochs a live engine publishes share
/// one copy of them.
pub struct ClusterTimestamps {
    sets: ClusterSets,
    recs: Prefix<StampRec>,
    words: Box<[Prefix<u32>]>,
    crs: Vec<Prefix<CrRecord>>,
    num_cluster_receives: usize,
    num_merges: usize,
}

impl ClusterTimestamps {
    /// The stamp of the event at a delivery position.
    #[inline]
    pub fn stamp_at(&self, pos: usize) -> ClusterStamp<'_> {
        let r = self.recs[pos];
        let words = &self.words[r.chunk as usize][r.offset as usize..];
        if r.version == FULL {
            ClusterStamp::Full {
                clock: &words[..self.crs.len()],
            }
        } else {
            let version = ClusterVersionId(r.version);
            ClusterStamp::Projected {
                version,
                clock: &words[..self.sets.size(version)],
            }
        }
    }

    /// The stamp of an event.
    #[inline]
    pub fn stamp(&self, trace: &Trace, id: EventId) -> ClusterStamp<'_> {
        self.stamp_at(trace.delivery_pos(id))
    }

    /// All stamps in delivery order.
    pub fn stamps(&self) -> Stamps<'_> {
        Stamps { cts: self }
    }

    /// Bytes of stamp state this structure refers to: the records, the
    /// arena words written so far, the cluster-receive lists and the
    /// cluster versions. Snapshots of one log share these bytes.
    pub fn stored_bytes(&self) -> u64 {
        let words: usize = self.words.iter().map(|c| c.len()).sum();
        let crs: usize = self.crs.iter().map(|l| l.len()).sum();
        (self.recs.len() * std::mem::size_of::<StampRec>()
            + words * std::mem::size_of::<u32>()
            + crs * std::mem::size_of::<CrRecord>()
            + self.sets.stored_bytes()) as u64
    }

    /// Number of non-mergeable cluster receives (the quantity every
    /// clustering strategy tries to minimize).
    pub fn num_cluster_receives(&self) -> usize {
        self.num_cluster_receives
    }

    /// Number of cluster merges performed by the dynamic strategy.
    pub fn num_merges(&self) -> usize {
        self.num_merges
    }

    /// The cluster version store (for stamp component lookups).
    pub fn sets(&self) -> &ClusterSets {
        &self.sets
    }

    /// The final partition of processes into clusters.
    pub fn final_partition(&self) -> Clustering {
        self.sets.current_partition()
    }

    /// Greatest cluster receive of process `q` with index ≤ `known`, if any.
    fn greatest_cr(&self, q: ProcessId, known: u32) -> Option<ClusterStamp<'_>> {
        let list = &self.crs[q.idx()];
        let i = list.partition_point(|r| r.index <= known);
        if i == 0 {
            None
        } else {
            Some(self.stamp_at(list[i - 1].pos as usize))
        }
    }

    /// The cluster-timestamp precedence test: `e → f`?
    ///
    /// Three cases, in increasing cost:
    ///
    /// 1. same process — compare sequence numbers;
    /// 2. `f`'s stamp knows `p_e` directly (full stamp, or projected with
    ///    `p_e` in the cluster) — one comparison;
    /// 3. otherwise `e` can only precede `f` through a cluster receive in
    ///    `f`'s cluster: check, for each member process `q`, the **greatest**
    ///    cluster receive of `q` within `f`'s past (monotonicity of
    ///    Fidge/Mattern stamps along a process makes the greatest one
    ///    sufficient) — O(c log R).
    pub fn precedes(&self, trace: &Trace, e: EventId, f: EventId) -> bool {
        if e == f {
            return false;
        }
        if e.process == f.process {
            return e.index < f.index;
        }
        let need = e.index.0;
        match self.stamp(trace, f) {
            ClusterStamp::Full { clock } => clock[e.process.idx()] >= need,
            ClusterStamp::Projected { version, clock } => {
                if let Some(pos) = self.sets.position(version, e.process) {
                    return clock[pos] >= need;
                }
                let members = self.sets.members(version);
                for (pos, &q) in members.iter().enumerate() {
                    let known = clock[pos];
                    if known == 0 {
                        continue;
                    }
                    if let Some(ClusterStamp::Full { clock: cr }) = self.greatest_cr(q, known) {
                        if cr[e.process.idx()] >= need {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Are two events concurrent under this timestamp?
    pub fn concurrent(&self, trace: &Trace, e: EventId, f: EventId) -> bool {
        e != f && !self.precedes(trace, e, f) && !self.precedes(trace, f, e)
    }

    /// Reconstruct the exact Fidge/Mattern clock of `f` from its cluster
    /// stamp, in O(c·N) — one pass over the cluster members plus a
    /// `max_assign` per retained cluster receive.
    ///
    /// Why this is exact: a projected clock *is* the projection of `f`'s
    /// true Fidge/Mattern stamp onto the cluster members, so the direct
    /// components are already maximal. Every bit of knowledge `f` has
    /// about a process *outside* the cluster entered the cluster through
    /// some cluster receive at a member `q` with index ≤ `f`'s knowledge
    /// of `q`; cluster-receive stamps along a process line are monotone,
    /// so the greatest one within `f`'s past dominates all the others.
    /// Conversely every such stamp belongs to an event in `f`'s past, so
    /// no component can exceed the true clock.
    pub fn materialized_clock(&self, trace: &Trace, f: EventId) -> VectorClock {
        match self.stamp(trace, f) {
            ClusterStamp::Full { clock } => VectorClock::from_vec(clock.to_vec()),
            ClusterStamp::Projected { version, clock } => {
                let mut out = VectorClock::zero(self.crs.len());
                let members = self.sets.members(version);
                for (pos, &q) in members.iter().enumerate() {
                    let known = clock[pos];
                    if known == 0 {
                        continue;
                    }
                    if known > out.get(q) {
                        out.set(q, known);
                    }
                    if let Some(ClusterStamp::Full { clock: cr }) = self.greatest_cr(q, known) {
                        out.max_assign_slice(cr);
                    }
                }
                out
            }
        }
    }

    /// The greatest-concurrent elements of `e`: slot `q` is the greatest
    /// event of process `q` concurrent with `e`, `None` for `e`'s own
    /// process and for lines with no such event. The answer equals the
    /// generic binary search over [`precedes`](Self::precedes)
    /// (`cts_store::queries::greatest_concurrent`), found by reading the
    /// delivery order forward from `e` instead of probing stamps.
    ///
    /// 1. *Predecessor boundary.* `a_q`, the number of `q`'s events
    ///    preceding `e`, is component `q` of the
    ///    [materialized clock](Self::materialized_clock).
    /// 2. *Follower boundary.* `b_q`, the first event of `q` that `e`
    ///    reaches, from one forward pass over the trace
    ///    ([`follower_scan`](Self::follower_scan)).
    ///
    /// The answer for `q` is `E(q, b_q − 1)` when `b_q > a_q + 1`.
    pub fn greatest_concurrent(&self, trace: &Trace, e: EventId) -> Vec<Option<EventId>> {
        let before = self.materialized_clock(trace, e);
        let scan = self.follower_scan(trace, e, &before);
        scan.first
            .iter()
            .enumerate()
            .map(|(q, &b)| {
                let q = ProcessId(q as u32);
                (q != e.process && b > before.get(q) + 1)
                    .then(|| EventId::new(q, EventIndex(b - 1)))
            })
            .collect()
    }

    /// The first follower of `e` on every line, `before` being `e`'s
    /// materialized clock (DESIGN D.4).
    ///
    /// `reach[r]` is the index of the first event of `r` that `e` reaches
    /// (`e` itself on `p_e`, and its peer if `e` is a sync half). The
    /// trace is a delivery order: every source comes before its receive,
    /// and sync halves are adjacent. So walking it forward from `e`, an
    /// event `f` on an unreached line is reached exactly when its
    /// `receive_source()` (the send, or the sync peer) has an index at or
    /// above `reach` of the source's line. A line closes when it is reached
    /// or its last event goes by, and the walk stops when none is open, or
    /// after [`SCAN_PER_PROCESS`]`·N` events: a line still open then is
    /// finished by binary search over [`precedes`](Self::precedes), from
    /// just above the last event of it the walk saw.
    fn follower_scan(&self, trace: &Trace, e: EventId, before: &VectorClock) -> FollowerScan {
        let n = trace.num_processes() as usize;
        let start = trace.delivery_pos(e) + 1;
        let mut reach = vec![u32::MAX; n];
        reach[e.process.idx()] = e.index.0;
        if let EventKind::Sync { peer } = trace.kind(e) {
            reach[peer.process.idx()] = peer.index.0;
        }
        let last: Vec<u32> = (0..n)
            .map(|q| trace.process_len(ProcessId(q as u32)) as u32)
            .collect();
        // Last event of each open line known not to follow `e`.
        let mut seen: Vec<u32> = (0..n).map(|q| before.get(ProcessId(q as u32))).collect();
        let mut open: Vec<bool> = (0..n)
            .map(|q| {
                let tail = EventId::new(ProcessId(q as u32), EventIndex(last[q]));
                reach[q] == u32::MAX && last[q] > seen[q] && trace.delivery_pos(tail) >= start
            })
            .collect();
        let mut left = open.iter().filter(|&&o| o).count();

        let end = trace.num_events().min(start + SCAN_PER_PROCESS * n);
        let mut visited = 0;
        for f in &trace.events()[start..end] {
            if left == 0 {
                break;
            }
            visited += 1;
            let q = f.process().idx();
            if !open[q] {
                continue;
            }
            let i = f.index().0;
            let src = f.kind.receive_source();
            if src.is_some_and(|s| s.index.0 >= reach[s.process.idx()]) {
                reach[q] = i;
            } else if i < last[q] {
                seen[q] = i;
                continue;
            }
            open[q] = false;
            left -= 1;
        }

        let mut searched = 0;
        for q in (0..n).filter(|&q| open[q]) {
            searched += 1;
            let (mut lo, mut hi) = (seen[q] + 1, last[q] + 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.precedes(trace, e, EventId::new(ProcessId(q as u32), EventIndex(mid))) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            reach[q] = lo;
        }
        let first = (0..n)
            .map(|q| {
                reach[q]
                    .min(last[q] + 1)
                    .max(before.get(ProcessId(q as u32)) + 1)
            })
            .collect();
        FollowerScan {
            first,
            visited,
            searched,
        }
    }
}

/// The stamps of a [`ClusterTimestamps`] in delivery order: a view that
/// reads each one out of the word arena on demand.
#[derive(Clone, Copy)]
pub struct Stamps<'a> {
    cts: &'a ClusterTimestamps,
}

impl<'a> Stamps<'a> {
    /// Number of stamps.
    pub fn len(&self) -> usize {
        self.cts.recs.len()
    }

    /// Are there none?
    pub fn is_empty(&self) -> bool {
        self.cts.recs.is_empty()
    }

    /// The stamps in delivery order.
    pub fn iter(&self) -> StampIter<'a> {
        StampIter {
            cts: self.cts,
            pos: 0..self.len(),
        }
    }
}

impl<'a> IntoIterator for Stamps<'a> {
    type Item = ClusterStamp<'a>;
    type IntoIter = StampIter<'a>;

    fn into_iter(self) -> StampIter<'a> {
        self.iter()
    }
}

impl PartialEq for Stamps<'_> {
    /// Stamp by stamp: same shapes, versions and words.
    fn eq(&self, other: &Stamps<'_>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Stamps<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over [`Stamps`].
#[derive(Clone)]
pub struct StampIter<'a> {
    cts: &'a ClusterTimestamps,
    pos: Range<usize>,
}

impl<'a> Iterator for StampIter<'a> {
    type Item = ClusterStamp<'a>;

    #[inline]
    fn next(&mut self) -> Option<ClusterStamp<'a>> {
        self.pos.next().map(|pos| self.cts.stamp_at(pos))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pos.size_hint()
    }
}

impl ExactSizeIterator for StampIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{MergeOnFirst, MergeOnNth, NeverMerge};
    use cts_model::{Oracle, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn id(pr: u32, i: u32) -> EventId {
        EventId::new(p(pr), EventIndex(i))
    }

    /// Two chatty pairs (0,1) and (2,3) plus one bridge message 1→2.
    fn two_pairs_bridge() -> Trace {
        let mut b = TraceBuilder::new(4);
        for _ in 0..3 {
            let s = b.send(p(0), p(1)).unwrap();
            b.receive(p(1), s).unwrap();
            let s = b.send(p(3), p(2)).unwrap();
            b.receive(p(2), s).unwrap();
        }
        let s = b.send(p(1), p(2)).unwrap();
        b.receive(p(2), s).unwrap();
        let s = b.send(p(2), p(3)).unwrap();
        b.receive(p(3), s).unwrap();
        b.finish_complete("two-pairs-bridge").unwrap()
    }

    fn check_against_oracle(trace: &Trace, cts: &ClusterTimestamps) {
        let oracle = Oracle::compute(trace);
        for e in trace.all_event_ids() {
            for f in trace.all_event_ids() {
                assert_eq!(
                    cts.precedes(trace, e, f),
                    oracle.happened_before(trace, e, f),
                    "{e} -> {f} mismatch"
                );
            }
        }
    }

    #[test]
    fn merge_on_first_exact_precedence() {
        let t = two_pairs_bridge();
        for max_cs in 1..=4 {
            let cts = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
            check_against_oracle(&t, &cts);
        }
    }

    #[test]
    fn merge_on_nth_exact_precedence() {
        let t = two_pairs_bridge();
        for threshold in [0.0, 0.6, 2.0] {
            for max_cs in 1..=4 {
                let cts =
                    ClusterEngine::run(&t, MergeOnNth::new(t.num_processes(), max_cs, threshold));
                check_against_oracle(&t, &cts);
            }
        }
    }

    #[test]
    fn never_merge_exact_precedence() {
        let t = two_pairs_bridge();
        let cts = ClusterEngine::run(&t, NeverMerge);
        check_against_oracle(&t, &cts);
        // Every cross-process receive is a cluster receive.
        assert_eq!(cts.num_cluster_receives(), t.num_messages());
        assert_eq!(cts.num_merges(), 0);
    }

    #[test]
    fn static_partition_exact_precedence() {
        let t = two_pairs_bridge();
        let good = Clustering::new(vec![vec![p(0), p(1)], vec![p(2), p(3)]]).unwrap();
        let cts = run_static(&t, &good);
        check_against_oracle(&t, &cts);
        // Only the 1→2 bridge message crosses clusters (2→3 stays inside
        // {2,3}).
        assert_eq!(cts.num_cluster_receives(), 1);

        let bad = Clustering::new(vec![vec![p(0), p(2)], vec![p(1), p(3)]]).unwrap();
        let cts_bad = run_static(&t, &bad);
        check_against_oracle(&t, &cts_bad);
        assert!(cts_bad.num_cluster_receives() > cts.num_cluster_receives());
    }

    #[test]
    fn merge_on_first_clusters_the_pairs() {
        let t = two_pairs_bridge();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let part = cts.final_partition();
        let a = part.assignment(4);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        assert_ne!(a[0], a[2]);
        // The 1→2 bridge is the only cluster receive (2→3 is intra-cluster).
        assert_eq!(cts.num_cluster_receives(), 1);
        assert_eq!(cts.num_merges(), 2);
    }

    /// A denser 8-process trace: ring sends plus stride-3 cross traffic,
    /// so projected stamps must route knowledge through cluster receives.
    fn ring_with_cross_traffic() -> Trace {
        let mut b = TraceBuilder::new(8);
        for round in 0..6u32 {
            for i in 0..8u32 {
                let s = b.send(p(i), p((i + 1) % 8)).unwrap();
                b.receive(p((i + 1) % 8), s).unwrap();
            }
            if round % 2 == 0 {
                for i in 0..8u32 {
                    let s = b.send(p(i), p((i + 3) % 8)).unwrap();
                    b.receive(p((i + 3) % 8), s).unwrap();
                }
            }
        }
        b.finish_complete("ring-cross").unwrap()
    }

    #[test]
    fn materialized_clock_matches_fm() {
        use crate::fm::FmStore;
        for t in [two_pairs_bridge(), ring_with_cross_traffic()] {
            let fm = FmStore::compute(&t);
            let n = t.num_processes();
            let mut engines: Vec<ClusterTimestamps> = Vec::new();
            for max_cs in [1, 2, 4] {
                engines.push(ClusterEngine::run(&t, MergeOnFirst::new(max_cs)));
                engines.push(ClusterEngine::run(&t, MergeOnNth::new(n, max_cs, 0.6)));
            }
            engines.push(ClusterEngine::run(&t, NeverMerge));
            for cts in &engines {
                for f in t.all_event_ids() {
                    let mat = cts.materialized_clock(&t, f);
                    assert_eq!(
                        mat.as_slice(),
                        fm.stamp(&t, f),
                        "materialized clock of {f} diverges from Fidge/Mattern"
                    );
                }
            }
        }
    }

    #[test]
    fn projected_stamps_match_fm_projection() {
        use crate::fm::FmStore;
        let t = two_pairs_bridge();
        let fm = FmStore::compute(&t);
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(4));
        for (pos, _) in t.events().iter().enumerate() {
            match cts.stamp_at(pos) {
                ClusterStamp::Projected { version, clock } => {
                    let members = cts.sets().members(version);
                    let full = fm.stamp_at(pos);
                    for (i, &q) in members.iter().enumerate() {
                        assert_eq!(clock[i], full[q.idx()]);
                    }
                }
                ClusterStamp::Full { clock } => {
                    assert_eq!(clock, fm.stamp_at(pos));
                }
            }
        }
    }

    #[test]
    fn sync_halves_and_clusters() {
        let mut b = TraceBuilder::new(3);
        b.sync(p(0), p(1)).unwrap();
        b.sync(p(1), p(2)).unwrap();
        b.sync(p(0), p(2)).unwrap();
        let t = b.finish_complete("sync-triangle").unwrap();
        for max_cs in 1..=3 {
            let cts = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
            check_against_oracle(&t, &cts);
        }
        // With room for all three, the first sync merges 0 and 1.
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(3));
        assert_eq!(cts.final_partition().num_clusters(), 1);
    }

    #[test]
    fn snapshot_matches_prefix_run_and_engine_continues() {
        let t = two_pairs_bridge();
        let half = t.num_events() / 2;
        let mut eng = ClusterEngine::new(t.num_processes(), MergeOnFirst::new(2));
        for &ev in &t.events()[..half] {
            eng.accept(ev);
        }
        let snap = eng.snapshot();
        // The snapshot equals an engine run over just the prefix...
        let mut prefix_eng = ClusterEngine::new(t.num_processes(), MergeOnFirst::new(2));
        for &ev in &t.events()[..half] {
            prefix_eng.accept(ev);
        }
        let prefix = prefix_eng.finish();
        assert_eq!(snap.stamps().len(), half);
        assert_eq!(snap.stamps(), prefix.stamps());
        assert_eq!(snap.num_cluster_receives(), prefix.num_cluster_receives());
        // ...and the original engine keeps stamping, unaffected by the fork.
        for &ev in &t.events()[half..] {
            eng.accept(ev);
        }
        let full = eng.finish();
        let reference = ClusterEngine::run(&t, MergeOnFirst::new(2));
        assert_eq!(full.stamps(), reference.stamps());
        check_against_oracle(&t, &full);
    }

    /// The generic search the kernel replaces: `a_q` from the materialized
    /// clock, then a binary search over [`ClusterTimestamps::precedes`] for
    /// the first follower on each line.
    fn generic_gc(t: &Trace, cts: &ClusterTimestamps, e: EventId) -> Vec<Option<EventId>> {
        let before = cts.materialized_clock(t, e);
        (0..t.num_processes())
            .map(|q| {
                let a = before.get(p(q));
                let (mut lo, mut hi) = (a + 1, t.process_len(p(q)) as u32 + 1);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if cts.precedes(t, e, id(q, mid)) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                (p(q) != e.process && lo > a + 1).then(|| id(q, lo - 1))
            })
            .collect()
    }

    /// The definition over Fidge/Mattern stamps: per line, walking down from
    /// the top, the first event that does not follow `e`, if it does not
    /// precede `e` either.
    fn linear_fm_gc(t: &Trace, fm: &crate::fm::FmStore, e: EventId) -> Vec<Option<EventId>> {
        (0..t.num_processes())
            .map(|q| {
                if p(q) == e.process {
                    return None;
                }
                (1..=t.process_len(p(q)) as u32)
                    .rev()
                    .map(|i| id(q, i))
                    .find(|&f| !fm.precedes(t, e, f))
                    .filter(|&f| !fm.precedes(t, f, e))
            })
            .collect()
    }

    fn assert_gc_exact(t: &Trace, cts: &ClusterTimestamps) {
        let fm = crate::fm::FmStore::compute(t);
        for e in t.all_event_ids() {
            let got = cts.greatest_concurrent(t, e);
            assert_eq!(got, generic_gc(t, cts, e), "generic search, gc({e})");
            assert_eq!(got, linear_fm_gc(t, &fm, e), "linear oracle, gc({e})");
        }
    }

    #[test]
    fn gc_kernel_matches_both_oracles() {
        let mut traces = vec![two_pairs_bridge(), ring_with_cross_traffic()];
        traces.extend(
            cts_workloads::suite::mini_suite()
                .into_iter()
                .map(|entry| entry.trace),
        );
        for t in &traces {
            let n = t.num_processes();
            assert_gc_exact(t, &ClusterEngine::run(t, NeverMerge));
            assert_gc_exact(t, &run_static(t, &Clustering::contiguous(n, 4)));
            for max_cs in [1, 2, 8] {
                assert_gc_exact(t, &ClusterEngine::run(t, MergeOnFirst::new(max_cs)));
                assert_gc_exact(t, &ClusterEngine::run(t, MergeOnNth::new(n, max_cs, 0.6)));
            }
        }
    }

    /// The cluster receive at exactly `a_r` can be `e`'s synchronous peer,
    /// and the peer knows `e`: a follower frontier searched only above
    /// `a_r` misses it and calls P2#2 concurrent with P0#1.
    #[test]
    fn gc_kernel_sees_a_sync_peer_at_the_predecessor_boundary() {
        let mut b = TraceBuilder::new(3);
        // P1→P2 merges {P1, P2}; the sync with P0 cannot join a third
        // process, so P1#2 is a cluster receive, and P1#3→P2#2 stays inside.
        let s = b.send(p(1), p(2)).unwrap();
        b.receive(p(2), s).unwrap();
        b.sync(p(0), p(1)).unwrap();
        let s = b.send(p(1), p(2)).unwrap();
        b.receive(p(2), s).unwrap();
        let t = b.finish_complete("sync-peer").unwrap();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        assert!(cts.stamp(&t, id(1, 2)).is_cluster_receive());
        assert!(!cts.stamp(&t, id(2, 2)).is_cluster_receive());
        let e = id(0, 1);
        assert_eq!(
            cts.materialized_clock(&t, e).get(p(1)),
            2,
            "a_1 is the peer"
        );
        assert_eq!(
            cts.greatest_concurrent(&t, e),
            vec![None, None, Some(id(2, 1))]
        );
        assert_gc_exact(&t, &cts);
    }

    /// `gc(e)` against both oracles for one event.
    fn assert_gc_at(t: &Trace, cts: &ClusterTimestamps, fm: &crate::fm::FmStore, e: EventId) {
        let got = cts.greatest_concurrent(t, e);
        assert_eq!(got, generic_gc(t, cts, e), "generic search, gc({e})");
        assert_eq!(got, linear_fm_gc(t, fm, e), "linear oracle, gc({e})");
    }

    /// Sync pairs around a ring of four, a send crossing each, and an
    /// internal event between send and receive: queried from either half,
    /// the peer's line is the one the scan starts closed.
    fn sync_ring() -> Trace {
        let mut b = TraceBuilder::new(4);
        for r in 0..4u32 {
            b.sync(p(r), p((r + 1) % 4)).unwrap();
            let s = b.send(p((r + 2) % 4), p((r + 3) % 4)).unwrap();
            b.internal(p(r)).unwrap();
            b.receive(p((r + 3) % 4), s).unwrap();
            b.sync(p((r + 2) % 4), p(r)).unwrap();
        }
        b.finish_complete("sync-ring").unwrap()
    }

    #[test]
    fn gc_scan_from_either_half_of_a_sync_pair() {
        let t = sync_ring();
        let fm = crate::fm::FmStore::compute(&t);
        let pairs: Vec<(EventId, EventId)> = t
            .events()
            .windows(2)
            .filter_map(|w| match w[0].kind {
                EventKind::Sync { peer } if peer == w[1].id => Some((w[0].id, w[1].id)),
                _ => None,
            })
            .collect();
        assert_eq!(pairs.len(), 8);
        for cts in [
            ClusterEngine::run(&t, NeverMerge),
            ClusterEngine::run(&t, MergeOnFirst::new(2)),
            ClusterEngine::run(&t, MergeOnFirst::new(4)),
        ] {
            for &(first, second) in &pairs {
                assert_gc_at(&t, &cts, &fm, first);
                assert_gc_at(&t, &cts, &fm, second);
            }
        }
    }

    #[test]
    fn gc_scan_from_the_first_and_the_last_event_of_the_log() {
        for t in [two_pairs_bridge(), ring_with_cross_traffic(), sync_ring()] {
            let fm = crate::fm::FmStore::compute(&t);
            let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
            let (first, last) = (t.at(0).id, t.at(t.num_events() - 1).id);
            assert_gc_at(&t, &cts, &fm, first);
            assert_gc_at(&t, &cts, &fm, last);
            let scan = cts.follower_scan(&t, last, &cts.materialized_clock(&t, last));
            assert_eq!((scan.visited, scan.searched), (0, 0), "{}", t.name());
        }
    }

    /// A snapshot taken halfway and queried after its engine has taken the
    /// rest of the trace answers over its own prefix: the scan ends at the
    /// prefix's last event, and some answers differ from the whole trace's.
    #[test]
    fn gc_scan_stops_at_the_snapshot_end() {
        let t = ring_with_cross_traffic();
        let cut = t.num_events() / 2;
        let mut eng = ClusterEngine::new(t.num_processes(), MergeOnFirst::new(2));
        for &ev in &t.events()[..cut] {
            eng.accept(ev);
        }
        let snap = eng.snapshot();
        for &ev in &t.events()[cut..] {
            eng.accept(ev);
        }
        let whole = eng.snapshot();
        let prefix = prefix_trace(&t, cut);
        let fm = crate::fm::FmStore::compute(&prefix);
        let mut differ = 0;
        for e in prefix.all_event_ids() {
            assert_gc_at(&prefix, &snap, &fm, e);
            let scan = snap.follower_scan(&prefix, e, &snap.materialized_clock(&prefix, e));
            assert!(prefix.delivery_pos(e) + 1 + scan.visited <= cut);
            differ += usize::from(
                snap.greatest_concurrent(&prefix, e) != whole.greatest_concurrent(&t, e),
            );
        }
        assert!(differ > 0, "the grown engine answered every query alike");
    }

    /// P0 never receives and has events up to the end of the log: it
    /// writes to P3 every round, while P1 and P2 trade a message and P1
    /// writes to P3 every 100 rounds. Nothing reaches P0, so a query off P0
    /// reads the scan's full `SCAN_PER_PROCESS·N` events and binary-searches
    /// P0, and P3 too when P1's next message to it is further off than
    /// that: a search for a follower that exists. A query on P0 never
    /// reaches P1 or P2, which search the same way.
    #[test]
    fn gc_scan_caps_its_reads_and_searches_what_stays_open() {
        let mut b = TraceBuilder::new(4);
        for r in 0..400u32 {
            b.internal(p(0)).unwrap();
            let s = b.send(p(0), p(3)).unwrap();
            b.receive(p(3), s).unwrap();
            let (q, other) = if r % 2 == 0 { (1, 2) } else { (2, 1) };
            let s = b.send(p(q), p(other)).unwrap();
            b.receive(p(other), s).unwrap();
            if r % 100 == 50 {
                let s = b.send(p(1), p(3)).unwrap();
                b.receive(p(3), s).unwrap();
            }
        }
        let t = b.finish_complete("silent-sender").unwrap();
        let cap = SCAN_PER_PROCESS * t.num_processes() as usize;
        let fm = crate::fm::FmStore::compute(&t);
        for cts in [
            ClusterEngine::run(&t, NeverMerge),
            ClusterEngine::run(&t, MergeOnFirst::new(2)),
        ] {
            let (mut capped, mut searched_on, mut searched_off) = (0, 0, 0);
            for e in t.all_event_ids() {
                assert_gc_at(&t, &cts, &fm, e);
                let scan = cts.follower_scan(&t, e, &cts.materialized_clock(&t, e));
                assert!(scan.visited <= cap, "gc({e}) read {} events", scan.visited);
                capped += usize::from(scan.visited == cap);
                if e.process == p(0) {
                    searched_on += scan.searched;
                } else {
                    searched_off += scan.searched;
                }
            }
            assert!(capped > 0, "the cap never bound");
            assert!(searched_on > 0 && searched_off > 0, "no line was searched");
        }
    }

    /// Event counts at which a log with chunk-0 size `base` closes a chunk
    /// (every earlier stamp lies in closed chunks; the next one opens a new
    /// chunk).
    fn seams<S: MergePolicy>(t: &Trace, base: usize, policy: S) -> Vec<usize> {
        let mut eng = ClusterEngine::new(t.num_processes(), policy);
        eng.log = StampLog::with_base(t.num_processes(), base);
        let mut out = Vec::new();
        for (k, &ev) in t.events().iter().enumerate() {
            let chunks = eng.log.chunks.len();
            eng.accept(ev);
            if eng.log.chunks.len() > chunks && k > 0 {
                out.push(k);
            }
        }
        out
    }

    /// The first `len` events of `t` as a trace of their own.
    fn prefix_trace(t: &Trace, len: usize) -> Trace {
        let mut log = cts_model::TraceLog::new("prefix", t.num_processes());
        for &ev in &t.events()[..len] {
            log.push(ev).expect("a prefix of a delivery order is one");
        }
        log.trace().expect("no sync pairs in these traces")
    }

    /// Snapshots one event before, at and one event after every chunk seam
    /// of an arena starting at `base` words, all checked once the whole
    /// trace has been pushed (so later pushes into the open chunk must not
    /// have disturbed them): each equals an engine run over its prefix,
    /// stamp by stamp, and answers `precedes` and `greatest_concurrent` as
    /// that run does. Returns the number of seams.
    fn check_seams<S: MergePolicy>(t: &Trace, base: usize, policy: impl Fn() -> S) -> usize {
        let seams = seams(t, base, policy());
        let mut at: Vec<usize> = seams
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1])
            .filter(|&len| len <= t.num_events())
            .collect();
        at.sort_unstable();
        at.dedup();
        let mut eng = ClusterEngine::new(t.num_processes(), policy());
        eng.log = StampLog::with_base(t.num_processes(), base);
        let mut snaps = Vec::new();
        for (k, &ev) in t.events().iter().enumerate() {
            if at.contains(&k) {
                snaps.push((k, eng.snapshot()));
            }
            eng.accept(ev);
        }
        if at.contains(&t.num_events()) {
            snaps.push((t.num_events(), eng.snapshot()));
        }
        let closed = eng.log.chunks.len() - 1;
        assert!(eng.log.chunks[..closed]
            .iter()
            .all(|c| c.spare() < t.num_processes() as usize));
        for (len, snap) in &snaps {
            let prefix = prefix_trace(t, *len);
            let reference = ClusterEngine::run(&prefix, policy());
            assert_eq!(snap.stamps().len(), *len);
            assert_eq!(snap.stamps(), reference.stamps(), "snapshot at {len}");
            assert_eq!(
                snap.num_cluster_receives(),
                reference.num_cluster_receives()
            );
            for e in prefix.all_event_ids() {
                for f in prefix.all_event_ids() {
                    assert_eq!(
                        snap.precedes(&prefix, e, f),
                        reference.precedes(&prefix, e, f),
                        "{e} -> {f} at {len}"
                    );
                }
                assert_eq!(
                    snap.greatest_concurrent(&prefix, e),
                    reference.greatest_concurrent(&prefix, e),
                    "gc({e}) at {len}"
                );
            }
        }
        seams.len()
    }

    /// P0 sends to P1 over and over; with no merging every receive keeps
    /// its full 2-word stamp. Widths run 1, 2, 1, 2, … so an arena of 2-,
    /// 4- and 8-word chunks ends chunk 2 exactly full with a full stamp.
    fn ping(rounds: usize) -> Trace {
        let mut b = TraceBuilder::new(2);
        for _ in 0..rounds {
            let s = b.send(p(0), p(1)).unwrap();
            b.receive(p(1), s).unwrap();
        }
        b.finish_complete("ping").unwrap()
    }

    #[test]
    fn full_stamps_fill_a_chunk_exactly() {
        let t = ping(12);
        let mut eng = ClusterEngine::new(2, NeverMerge);
        eng.log = StampLog::with_base(2, 2);
        for &ev in t.events() {
            eng.accept(ev);
        }
        let chunk2 = &eng.log.chunks[2];
        assert_eq!((chunk2.len(), chunk2.spare()), (8, 0));
        let last_in_chunk2 = eng.log.recs.iter().rev().find(|r| r.chunk == 2).unwrap();
        assert_eq!((last_in_chunk2.version, last_in_chunk2.offset), (FULL, 6));
        assert!(check_seams(&t, 2, || NeverMerge) >= 3);
    }

    #[test]
    fn snapshots_at_chunk_seams_match_prefix_runs() {
        for t in [two_pairs_bridge(), ring_with_cross_traffic()] {
            let n = t.num_processes();
            assert!(check_seams(&t, 1, || NeverMerge) >= 3);
            assert!(check_seams(&t, 4, || MergeOnFirst::new(2)) >= 2);
            assert!(check_seams(&t, 1, || MergeOnNth::new(n, 4, 0.6)) >= 2);
        }
    }

    /// The production chunk size: a hub-heavy computation whose stamps
    /// cross several seams, and every snapshot stays equal to the run over
    /// its prefix.
    #[test]
    fn production_chunks_keep_snapshots_exact() {
        use cts_workloads::Workload;
        let t = cts_workloads::web::WebServer {
            clients: 48,
            workers: 16,
            requests: 1500,
            affinity: 0.6,
        }
        .generate(3);
        let policy = || MergeOnFirst::new(4);
        let mut eng = ClusterEngine::new(t.num_processes(), policy());
        let mut snaps = Vec::new();
        for (k, &ev) in t.events().iter().enumerate() {
            if k % 257 == 0 {
                snaps.push((k, eng.snapshot()));
            }
            eng.accept(ev);
        }
        assert!(eng.log.chunks.len() >= 3, "{} chunks", eng.log.chunks.len());
        let whole = ClusterEngine::run(&t, policy());
        for (len, snap) in &snaps {
            assert!(snap.stamps().iter().eq(whole.stamps().iter().take(*len)));
        }
    }

    /// A reservation opens one chunk with room for that many full stamps,
    /// so a run of known length writes every word into one allocation; the
    /// next chunk after it is at least as large.
    #[test]
    fn reserve_fits_a_run_in_one_chunk() {
        let t = ring_with_cross_traffic();
        let n = t.num_processes() as usize;
        let mut eng = ClusterEngine::new(t.num_processes(), NeverMerge);
        eng.log = StampLog::with_base(t.num_processes(), 1);
        eng.reserve(t.num_events());
        for &ev in t.events() {
            eng.accept(ev);
        }
        assert_eq!(eng.log.chunks.len(), 1);
        assert_eq!(
            eng.log.chunks[0].len() + eng.log.chunks[0].spare(),
            n * t.num_events()
        );
        eng.log.open_new_chunk(1);
        assert_eq!(eng.log.chunks[1].spare(), n * t.num_events() + n);
        assert_eq!(
            eng.snapshot().stamps(),
            ClusterEngine::run(&t, NeverMerge).stamps()
        );
    }

    #[test]
    fn chain_precedence_via_cluster_receives() {
        // 0 -> 1 -> 2 -> 3 pipeline with clusters capped at 2: precedence
        // from P0's send to P3's receive must route through CR chains.
        let mut b = TraceBuilder::new(4);
        for hop in 0..3u32 {
            let s = b.send(p(hop), p(hop + 1)).unwrap();
            b.receive(p(hop + 1), s).unwrap();
        }
        let e_last = b.internal(p(3)).unwrap();
        let t = b.finish_complete("pipeline").unwrap();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        assert!(cts.precedes(&t, id(0, 1), e_last));
        check_against_oracle(&t, &cts);
    }
}
