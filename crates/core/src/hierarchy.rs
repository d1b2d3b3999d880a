//! Multi-level hierarchical cluster timestamps.
//!
//! §2.3: "Clusters in turn are grouped hierarchically into clusters of
//! clusters, and so on recursively, until one large cluster encompasses the
//! entire computation. … though in this paper, we are just exploring two
//! levels of clusters." This module implements the general scheme for any
//! number of levels, in the static (two-pass) setting:
//!
//! - a [`NestedClustering`] is a chain of partitions, each refining the next,
//!   with level-`k` clusters bounded by a per-level size cap; it is built by
//!   applying the Figure 3 greedy algorithm *recursively* — first over
//!   processes, then over the resulting clusters, and so on;
//! - every event is classified by the **smallest level whose cluster contains
//!   its receive source**: level 0 means an ordinary event (projection onto
//!   its innermost cluster); level `k > 0` means a *level-`k` cluster
//!   receive*, which stores a projection onto its level-`k` cluster and is
//!   recorded in the process's level-`k` gateway chain. Only top-level
//!   receives carry full Fidge/Mattern stamps;
//! - precedence recurses outward: a projected stamp that does not cover the
//!   query process routes through the greatest recorded gateway per member
//!   process *at any higher level*, whose stamp covers strictly more
//!   processes — the recursion terminates at the full-width top level.

use crate::clock::VectorClock;
use crate::cluster::space::Encoding;
use crate::clustering::Clustering;
use crate::fm::FmEngine;
use cts_model::comm::CommMatrix;
use cts_model::{EventId, ProcessId, Trace};

/// A chain of nested partitions. Level 0 is the finest; the implicit top
/// level is the whole process set.
#[derive(Clone, Debug)]
pub struct NestedClustering {
    /// `levels[k][p]` = cluster id of process `p` at level `k`.
    assignment: Vec<Vec<u32>>,
    /// `members[k][c]` = sorted processes of cluster `c` at level `k`.
    members: Vec<Vec<Vec<ProcessId>>>,
}

impl NestedClustering {
    /// Build by recursive greedy clustering: level 0 bounded by
    /// `level_caps[0]` *processes*, level 1 by `level_caps[1]`, and so on.
    /// Caps must be increasing; the top (whole computation) is implicit.
    pub fn build(matrix: &CommMatrix, level_caps: &[usize]) -> NestedClustering {
        assert!(!level_caps.is_empty(), "need at least one level");
        for w in level_caps.windows(2) {
            assert!(w[0] < w[1], "level caps must strictly increase");
        }
        let n = matrix.num_processes() as u32;
        let mut assignment = Vec::with_capacity(level_caps.len());
        let mut members = Vec::with_capacity(level_caps.len());
        for &cap in level_caps {
            let clustering = crate::clustering::greedy_pairwise(matrix, cap);
            // Enforce nesting: merge the previous level's clusters into this
            // level's groups — a cluster goes to the group its first member
            // landed in; stragglers of the same lower cluster follow it.
            let raw = clustering.assignment(n);
            let level_assign: Vec<u32> = match assignment.last() {
                None => raw,
                Some(prev) => {
                    let prev: &Vec<u32> = prev;
                    // Each previous-level cluster votes with its first member.
                    let mut vote: std::collections::HashMap<u32, u32> = Default::default();
                    for p in 0..n as usize {
                        vote.entry(prev[p]).or_insert(raw[p]);
                    }
                    (0..n as usize).map(|p| vote[&prev[p]]).collect()
                }
            };
            let mut groups: std::collections::BTreeMap<u32, Vec<ProcessId>> = Default::default();
            for p in 0..n {
                groups
                    .entry(level_assign[p as usize])
                    .or_default()
                    .push(ProcessId(p));
            }
            // Renumber densely.
            let mut dense_assign = vec![0u32; n as usize];
            let mut dense_members = Vec::new();
            for (_, mut g) in groups {
                g.sort_unstable();
                let id = dense_members.len() as u32;
                for &m in &g {
                    dense_assign[m.idx()] = id;
                }
                dense_members.push(g);
            }
            assignment.push(dense_assign);
            members.push(dense_members);
        }
        NestedClustering {
            assignment,
            members,
        }
    }

    /// Build from explicit per-level partitions (tests). Each level must
    /// refine the next.
    pub fn from_partitions(n: u32, levels: &[Clustering]) -> NestedClustering {
        let mut assignment = Vec::new();
        let mut members = Vec::new();
        for level in levels {
            level.validate(n).expect("valid partition");
            assignment.push(level.assignment(n));
            let mut ms: Vec<Vec<ProcessId>> = level.clusters().to_vec();
            for m in &mut ms {
                m.sort_unstable();
            }
            members.push(ms);
        }
        let nc = NestedClustering {
            assignment,
            members,
        };
        nc.assert_nested(n);
        nc
    }

    fn assert_nested(&self, n: u32) {
        for k in 1..self.assignment.len() {
            for p in 0..n as usize {
                for q in 0..n as usize {
                    if self.assignment[k - 1][p] == self.assignment[k - 1][q] {
                        assert_eq!(
                            self.assignment[k][p],
                            self.assignment[k][q],
                            "level {k} must coarsen level {}",
                            k - 1
                        );
                    }
                }
            }
        }
    }

    /// Number of explicit levels (the whole-computation top is implicit).
    pub fn num_levels(&self) -> usize {
        self.assignment.len()
    }

    /// The cluster id of `p` at level `k`.
    #[inline]
    pub fn cluster_of(&self, k: usize, p: ProcessId) -> u32 {
        self.assignment[k][p.idx()]
    }

    /// Sorted members of cluster `c` at level `k`.
    #[inline]
    pub fn cluster_members(&self, k: usize, c: u32) -> &[ProcessId] {
        &self.members[k][c as usize]
    }

    /// The smallest level whose cluster around `p` contains `q`, or `None`
    /// if only the implicit top level does.
    pub fn common_level(&self, p: ProcessId, q: ProcessId) -> Option<usize> {
        (0..self.num_levels()).find(|&k| self.assignment[k][p.idx()] == self.assignment[k][q.idx()])
    }
}

/// A stamp in the multi-level structure: a projection at some level, or the
/// full vector at the (implicit) top.
#[derive(Clone, Debug)]
enum HStamp {
    /// Projection onto the event's level-`level` cluster.
    Projected { level: u8, clock: Box<[u32]> },
    /// Top-level cluster receive: full Fidge/Mattern stamp.
    Full { clock: VectorClock },
}

/// A recorded gateway: an event of some process whose stamp covers a
/// level-`level` (or full) scope.
#[derive(Clone, Copy, Debug)]
struct Gateway {
    index: u32,
    pos: u32,
}

/// Static multi-level hierarchical cluster timestamps for a trace.
pub struct HierarchicalTimestamps {
    nesting: NestedClustering,
    stamps: Vec<HStamp>,
    /// `gateways[k][p]` = events of `p` whose stamp scope is level `> k`
    /// (i.e. usable to escape a level-`k` projection), ascending by index.
    gateways: Vec<Vec<Vec<Gateway>>>,
    /// Cluster receives per level (level index ≥ 1; top-level receives are
    /// the last entry).
    receives_by_level: Vec<usize>,
}

impl HierarchicalTimestamps {
    /// Two-pass static construction against a nested clustering.
    pub fn build(trace: &Trace, nesting: NestedClustering) -> HierarchicalTimestamps {
        let n = trace.num_processes();
        let num_levels = nesting.num_levels();
        let mut fm = FmEngine::new(n);
        let mut stamps = Vec::with_capacity(trace.num_events());
        let mut gateways = vec![vec![Vec::new(); n as usize]; num_levels];
        let mut receives_by_level = vec![0usize; num_levels + 1];
        for ev in trace.events() {
            let stamp = fm.accept(*ev);
            let p = ev.process();
            // Classification: smallest level containing the source.
            let class = match ev.kind.receive_source() {
                None => Some(0),
                Some(src) => nesting.common_level(p, src.process),
            };
            let pos = stamps.len() as u32;
            match class {
                Some(level) => {
                    if level > 0 {
                        receives_by_level[level] += 1;
                    }
                    let c = nesting.cluster_of(level, p);
                    let proj = stamp.project(nesting.cluster_members(level, c));
                    // This event can serve as a gateway out of any level
                    // below `level`.
                    for per_proc in gateways.iter_mut().take(level) {
                        per_proc[p.idx()].push(Gateway {
                            index: ev.index().0,
                            pos,
                        });
                    }
                    stamps.push(HStamp::Projected {
                        level: level as u8,
                        clock: proj,
                    });
                }
                None => {
                    // Top-level cluster receive: full stamp, gateway for all
                    // levels.
                    receives_by_level[num_levels] += 1;
                    for per_proc in gateways.iter_mut().take(num_levels) {
                        per_proc[p.idx()].push(Gateway {
                            index: ev.index().0,
                            pos,
                        });
                    }
                    stamps.push(HStamp::Full {
                        clock: stamp.clone(),
                    });
                }
            }
        }
        HierarchicalTimestamps {
            nesting,
            stamps,
            gateways,
            receives_by_level,
        }
    }

    /// Convenience: recursive greedy nesting + build.
    pub fn build_greedy(trace: &Trace, level_caps: &[usize]) -> HierarchicalTimestamps {
        let matrix = CommMatrix::from_trace(trace);
        HierarchicalTimestamps::build(trace, NestedClustering::build(&matrix, level_caps))
    }

    /// Cluster receives per level (index 1..=L; index L = full-width).
    pub fn receives_by_level(&self) -> &[usize] {
        &self.receives_by_level
    }

    /// The stamp's knowledge of process `q` at a delivery position, if its
    /// scope covers `q` (diagnostics and tests).
    pub fn component(&self, pos: usize, owner: ProcessId, q: ProcessId) -> Option<u32> {
        match &self.stamps[pos] {
            HStamp::Full { clock } => Some(clock.get(q)),
            HStamp::Projected { level, clock } => {
                let c = self.nesting.cluster_of(*level as usize, owner);
                let members = self.nesting.cluster_members(*level as usize, c);
                members.binary_search(&q).ok().map(|i| clock[i])
            }
        }
    }

    /// The exact precedence test, recursing outward through gateway levels.
    pub fn precedes(&self, trace: &Trace, e: EventId, f: EventId) -> bool {
        if e == f {
            return false;
        }
        if e.process == f.process {
            return e.index < f.index;
        }
        self.knows(trace.delivery_pos(f), f.process, e)
    }

    /// Does the stamp at `pos` (owned by `owner`) dominate event `e`?
    fn knows(&self, pos: usize, owner: ProcessId, e: EventId) -> bool {
        match &self.stamps[pos] {
            HStamp::Full { clock } => clock.get(e.process) >= e.index.0,
            HStamp::Projected { level, clock } => {
                let level = *level as usize;
                let c = self.nesting.cluster_of(level, owner);
                let members = self.nesting.cluster_members(level, c);
                if let Ok(i) = members.binary_search(&e.process) {
                    return clock[i] >= e.index.0;
                }
                // Route through the greatest gateway (scope > level) of each
                // member process within this stamp's knowledge.
                for (i, &q) in members.iter().enumerate() {
                    let known = clock[i];
                    if known == 0 {
                        continue;
                    }
                    let list = &self.gateways[level][q.idx()];
                    let j = list.partition_point(|g| g.index <= known);
                    if j == 0 {
                        continue;
                    }
                    let gw = list[j - 1];
                    if self.knows(gw.pos as usize, q, e) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Total stored elements under an encoding policy. For `Fixed`, projected
    /// stamps at level `k` are charged `level_caps[k]`-ish via their actual
    /// projection width (the paper's fixed-width argument applies per level).
    pub fn total_elements(&self, enc: Encoding) -> u64 {
        self.stamps
            .iter()
            .map(|s| match (s, enc) {
                (HStamp::Full { clock }, Encoding::Actual { .. }) => clock.len() as u64,
                (HStamp::Full { .. }, Encoding::Fixed { fm_width, .. }) => fm_width as u64,
                (HStamp::Projected { clock, .. }, _) => clock.len() as u64,
            })
            .sum()
    }

    /// Ratio versus a fixed-width Fidge/Mattern baseline.
    pub fn ratio(&self, enc: Encoding) -> f64 {
        let fm_per_event = match enc {
            Encoding::Fixed { fm_width, .. } => fm_width as u64,
            Encoding::Actual { n } => n as u64,
        };
        self.total_elements(enc) as f64 / (fm_per_event * self.stamps.len() as u64) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::{Oracle, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Three tiers of locality: pairs → quads → everyone. 8 processes.
    fn tiered_trace(rounds: usize) -> Trace {
        let mut b = TraceBuilder::new(8);
        for r in 0..rounds {
            // Tight pairs (0,1) (2,3) (4,5) (6,7): every round.
            for g in 0..4u32 {
                let s = b.send(p(2 * g), p(2 * g + 1)).unwrap();
                b.receive(p(2 * g + 1), s).unwrap();
            }
            // Quads {0..3} {4..7}: every other round.
            if r % 2 == 0 {
                let s = b.send(p(1), p(2)).unwrap();
                b.receive(p(2), s).unwrap();
                let s = b.send(p(5), p(6)).unwrap();
                b.receive(p(6), s).unwrap();
            }
            // Global: rarely.
            if r % 4 == 0 {
                let s = b.send(p(3), p(4)).unwrap();
                b.receive(p(4), s).unwrap();
            }
        }
        b.finish_complete("tiered").unwrap()
    }

    fn check_exact(t: &Trace, h: &HierarchicalTimestamps) {
        let oracle = Oracle::compute(t);
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    h.precedes(t, e, f),
                    oracle.happened_before(t, e, f),
                    "{e} -> {f}"
                );
            }
        }
    }

    #[test]
    fn nested_build_recovers_tiers() {
        let t = tiered_trace(8);
        let m = CommMatrix::from_trace(&t);
        let nc = NestedClustering::build(&m, &[2, 4]);
        assert_eq!(nc.num_levels(), 2);
        // Level 0: the pairs.
        assert_eq!(nc.cluster_of(0, p(0)), nc.cluster_of(0, p(1)));
        assert_ne!(nc.cluster_of(0, p(1)), nc.cluster_of(0, p(2)));
        // Level 1: the quads.
        assert_eq!(nc.cluster_of(1, p(0)), nc.cluster_of(1, p(3)));
        assert_ne!(nc.cluster_of(1, p(0)), nc.cluster_of(1, p(4)));
        // Common levels.
        assert_eq!(nc.common_level(p(0), p(1)), Some(0));
        assert_eq!(nc.common_level(p(0), p(3)), Some(1));
        assert_eq!(nc.common_level(p(0), p(7)), None);
    }

    #[test]
    fn two_level_precedence_is_exact() {
        let t = tiered_trace(8);
        let h = HierarchicalTimestamps::build_greedy(&t, &[2, 4]);
        check_exact(&t, &h);
    }

    #[test]
    fn one_level_degenerates_to_flat_clusters() {
        let t = tiered_trace(6);
        let h = HierarchicalTimestamps::build_greedy(&t, &[2]);
        check_exact(&t, &h);
        // Level classification: receives between pairs are top-level.
        assert!(h.receives_by_level()[1] > 0);
    }

    #[test]
    fn three_levels_are_exact_and_cheaper_at_the_top() {
        let t = tiered_trace(12);
        let h2 = HierarchicalTimestamps::build_greedy(&t, &[2, 4]);
        let h1 = HierarchicalTimestamps::build_greedy(&t, &[2]);
        check_exact(&t, &h2);
        let enc = Encoding::Actual { n: 8 };
        // The extra level turns full-width (8) receives into width-4
        // projections, so total elements cannot increase.
        assert!(
            h2.total_elements(enc) <= h1.total_elements(enc),
            "{} > {}",
            h2.total_elements(enc),
            h1.total_elements(enc)
        );
        // And the top level sees fewer full-width receives.
        let top2 = *h2.receives_by_level().last().unwrap();
        let top1 = *h1.receives_by_level().last().unwrap();
        assert!(top2 <= top1);
    }

    #[test]
    fn explicit_partitions_must_nest() {
        let fine = Clustering::new(vec![vec![p(0), p(1)], vec![p(2), p(3)]]).unwrap();
        let coarse = Clustering::new(vec![vec![p(0), p(1), p(2), p(3)]]).unwrap();
        let nc = NestedClustering::from_partitions(4, &[fine.clone(), coarse]);
        assert_eq!(nc.num_levels(), 2);
        let bad_coarse = Clustering::new(vec![vec![p(0), p(2)], vec![p(1), p(3)]]).unwrap();
        let res =
            std::panic::catch_unwind(|| NestedClustering::from_partitions(4, &[fine, bad_coarse]));
        assert!(res.is_err(), "non-nesting partitions must be rejected");
    }

    #[test]
    fn sync_events_respect_hierarchy() {
        let mut b = TraceBuilder::new(4);
        for _ in 0..3 {
            b.sync(p(0), p(1)).unwrap();
            b.sync(p(2), p(3)).unwrap();
            b.sync(p(1), p(2)).unwrap();
        }
        let t = b.finish_complete("sync-tiers").unwrap();
        let h = HierarchicalTimestamps::build_greedy(&t, &[2]);
        check_exact(&t, &h);
    }
}
