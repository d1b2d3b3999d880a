//! Cluster membership: a slot map over processes with immutable version
//! snapshots.
//!
//! The self-organizing cluster timestamp needs two things from its cluster
//! bookkeeping: (a) fast *current* membership queries, merges, and (since the
//! adaptive strategy) single-process migrations while events stream in, and
//! (b) a permanent record of the cluster **as it was** when each event was
//! stamped, because an event's projected timestamp is indexed by the member
//! list of its cluster at stamping time. We get (a) from a direct
//! process→slot map (`find` is O(1); slots are stable identities that outlive
//! any particular member, so a cluster survives its original anchor process
//! migrating away) and (b) from append-only version snapshots: every merge
//! allocates one new [`ClusterVersionId`] with a sorted member list, every
//! migration allocates two (shrunk source, grown destination), and old
//! versions are never mutated. A merge-only computation over `N` processes
//! creates at most `2N − 1` versions; each migration adds two more.
//!
//! Member lists live end to end in one append-only arena of process ids,
//! and a version is a `(start, len)` record into it, so the history of
//! versions is two flat sequences of `Copy` values that a snapshot shares
//! and no growth ever deep-copies.

use crate::clustering::Clustering;
use cts_model::append::AppendVec;
use cts_model::ProcessId;

/// Identifier of an immutable cluster snapshot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterVersionId(pub u32);

/// Process→slot map plus immutable version snapshots. A *slot* (what the
/// merge-only API historically called a *root*) is a stable cluster identity:
/// merges retire the smaller side's slot, migrations move one process between
/// two live slots.
#[derive(Clone, Debug)]
pub struct ClusterSets {
    /// Current slot of each process.
    slot_of: Vec<u32>,
    /// For live slots: the current version id of the slot's cluster. Garbage
    /// for retired (empty) slots.
    version_at_slot: Vec<u32>,
    /// Per version, where its sorted member list lies in `members`.
    /// Append-only like `members`: a clone shares both, so an engine's
    /// snapshot copies only the two per-process maps above.
    versions: AppendVec<VersionRec>,
    /// Every version's member list, end to end.
    members: AppendVec<ProcessId>,
}

/// A version's member list: `members[start..start + len]`.
#[derive(Clone, Copy, Debug)]
struct VersionRec {
    start: u32,
    len: u32,
}

impl ClusterSets {
    /// Every process in its own singleton cluster (the initial state of all
    /// dynamic strategies).
    pub fn singletons(n: u32) -> ClusterSets {
        ClusterSets {
            slot_of: (0..n).collect(),
            version_at_slot: (0..n).collect(),
            versions: (0..n).map(|p| VersionRec { start: p, len: 1 }).collect(),
            members: (0..n).map(ProcessId).collect(),
        }
    }

    /// Initialize from a pre-determined partition (the static, two-pass
    /// mode: cluster first, timestamp second).
    pub fn from_partition(n: u32, clustering: &Clustering) -> ClusterSets {
        clustering
            .validate(n)
            .expect("clustering must be a partition of 0..n");
        let mut sets = ClusterSets {
            slot_of: vec![0; n as usize],
            version_at_slot: vec![0; n as usize],
            versions: AppendVec::with_capacity(clustering.num_clusters()),
            members: AppendVec::with_capacity(n as usize),
        };
        for members in clustering.clusters() {
            let slot = members[0].0;
            for &m in members {
                sets.slot_of[m.idx()] = slot;
            }
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            sets.version_at_slot[slot as usize] = sets.push_version(sorted).0;
        }
        sets
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.slot_of.len()
    }

    /// Slot (cluster identity) of `p`. Kept `&mut` for signature
    /// compatibility with the union-find era; the lookup is O(1) and does
    /// not mutate.
    pub fn find(&mut self, p: ProcessId) -> u32 {
        self.slot_of[p.idx()]
    }

    /// Slot of `p` without requiring `&mut` — for read-only contexts.
    pub fn find_readonly(&self, p: ProcessId) -> u32 {
        self.slot_of[p.idx()]
    }

    /// Current version of the cluster containing `p`.
    pub fn current_version(&mut self, p: ProcessId) -> ClusterVersionId {
        let r = self.find(p);
        ClusterVersionId(self.version_at_slot[r as usize])
    }

    /// Current version of the cluster occupying `root`.
    pub fn version_of_root(&self, root: u32) -> ClusterVersionId {
        ClusterVersionId(self.version_at_slot[root as usize])
    }

    /// Are `p` and `q` currently in the same cluster?
    pub fn same_cluster(&mut self, p: ProcessId, q: ProcessId) -> bool {
        self.find(p) == self.find(q)
    }

    /// Size of the cluster occupying `root`.
    pub fn size_of_root(&self, root: u32) -> usize {
        self.size(self.version_of_root(root))
    }

    /// Member list of a version snapshot (sorted by process id).
    #[inline]
    pub fn members(&self, v: ClusterVersionId) -> &[ProcessId] {
        let r = self.versions[v.0 as usize];
        &self.members[r.start as usize..(r.start + r.len) as usize]
    }

    /// Size of a version snapshot.
    #[inline]
    pub fn size(&self, v: ClusterVersionId) -> usize {
        self.versions[v.0 as usize].len as usize
    }

    /// Bytes of the version history: the records and the member arena.
    pub fn stored_bytes(&self) -> usize {
        self.versions.len() * std::mem::size_of::<VersionRec>()
            + self.members.len() * std::mem::size_of::<ProcessId>()
    }

    /// Append a new version whose member list is `members` (sorted).
    fn push_version(&mut self, members: impl IntoIterator<Item = ProcessId>) -> ClusterVersionId {
        let vid = ClusterVersionId(self.versions.len() as u32);
        let start = self.members.len();
        self.members.extend(members);
        let len = self.members.len() - start;
        self.versions.push(VersionRec {
            start: start as u32,
            len: len as u32,
        });
        vid
    }

    /// Position of `q` in the member list of `v`, if present. This is the
    /// index of `q`'s component in a timestamp projected over `v`.
    #[inline]
    pub fn position(&self, v: ClusterVersionId, q: ProcessId) -> Option<usize> {
        self.members(v).binary_search(&q).ok()
    }

    /// Does version `v` contain process `q`?
    #[inline]
    pub fn contains(&self, v: ClusterVersionId, q: ProcessId) -> bool {
        self.position(v, q).is_some()
    }

    /// Merge the clusters at slots `ra` and `rb`; returns `(surviving_slot,
    /// new_version)`. The two slots must be distinct, live slots.
    pub fn merge(&mut self, ra: u32, rb: u32) -> (u32, ClusterVersionId) {
        assert_ne!(ra, rb, "merging a cluster with itself");
        debug_assert!(self.slot_is_live(ra), "merge from retired slot {ra}");
        debug_assert!(self.slot_is_live(rb), "merge from retired slot {rb}");
        let (big, small) = if self.size_of_root(ra) >= self.size_of_root(rb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let va = self.version_of_root(big);
        let vb = self.version_of_root(small);
        // Sorted merge of the two member lists.
        let (a, b) = (self.members(va), self.members(vb));
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] < b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        for &m in &merged {
            self.slot_of[m.idx()] = big;
        }
        let vid = self.push_version(merged);
        self.version_at_slot[big as usize] = vid.0;
        (big, vid)
    }

    /// Move one process `q` from its current cluster into the cluster at
    /// slot `to`. Allocates two fresh versions — the shrunk source and the
    /// grown destination — and returns `(source_version, dest_version)`.
    /// The destination must be a live slot distinct from `q`'s own; if `q`
    /// was the last member of its source cluster, the source version is
    /// empty and its slot retires.
    pub fn migrate(&mut self, q: ProcessId, to: u32) -> (ClusterVersionId, ClusterVersionId) {
        let from = self.slot_of[q.idx()];
        assert_ne!(from, to, "migrating a process into its own cluster");
        debug_assert!(self.slot_is_live(to), "migrating into retired slot {to}");
        let shrunk: Vec<ProcessId> = self
            .members(self.version_of_root(from))
            .iter()
            .copied()
            .filter(|&m| m != q)
            .collect();
        let src_vid = self.push_version(shrunk);
        self.version_at_slot[from as usize] = src_vid.0;

        let dest = self.members(self.version_of_root(to));
        let at = dest.partition_point(|&m| m < q);
        let mut grown = Vec::with_capacity(dest.len() + 1);
        grown.extend_from_slice(&dest[..at]);
        grown.push(q);
        grown.extend_from_slice(&dest[at..]);
        let dst_vid = self.push_version(grown);
        self.version_at_slot[to as usize] = dst_vid.0;
        self.slot_of[q.idx()] = to;
        (src_vid, dst_vid)
    }

    fn slot_is_live(&self, slot: u32) -> bool {
        self.slot_of.contains(&slot)
    }

    /// Number of distinct current clusters.
    pub fn num_clusters(&self) -> usize {
        let mut seen = vec![false; self.version_at_slot.len()];
        let mut count = 0;
        for &s in &self.slot_of {
            if !seen[s as usize] {
                seen[s as usize] = true;
                count += 1;
            }
        }
        count
    }

    /// Snapshot of the current partition as a [`Clustering`].
    pub fn current_partition(&self) -> Clustering {
        let n = self.slot_of.len();
        let mut groups: Vec<Vec<ProcessId>> = Vec::new();
        let mut slot: Vec<Option<usize>> = vec![None; self.version_at_slot.len()];
        for p in 0..n {
            let r = self.slot_of[p] as usize;
            let g = *slot[r].get_or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(ProcessId(p as u32));
        }
        Clustering::new(groups).expect("slot map yields a partition")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn singletons_start_separate() {
        let mut s = ClusterSets::singletons(4);
        assert_eq!(s.num_clusters(), 4);
        for i in 0..4 {
            let v = s.current_version(p(i));
            assert_eq!(s.members(v), &[p(i)]);
            assert_eq!(s.size(v), 1);
        }
        assert!(!s.same_cluster(p(0), p(1)));
    }

    #[test]
    fn merge_creates_new_immutable_version() {
        let mut s = ClusterSets::singletons(4);
        let v0 = s.current_version(p(0));
        let (r, v01) = {
            let ra = s.find(p(0));
            let rb = s.find(p(1));
            s.merge(ra, rb)
        };
        assert_eq!(s.members(v01), &[p(0), p(1)]);
        // Old snapshot unchanged.
        assert_eq!(s.members(v0), &[p(0)]);
        assert!(s.same_cluster(p(0), p(1)));
        assert_eq!(s.num_clusters(), 3);
        assert_eq!(s.version_of_root(r), v01);
    }

    #[test]
    fn merged_member_lists_stay_sorted() {
        let mut s = ClusterSets::singletons(6);
        let (ra, rb) = (s.find(p(5)), s.find(p(1)));
        s.merge(ra, rb);
        let (ra, rb) = (s.find(p(3)), s.find(p(5)));
        let (_, v) = s.merge(ra, rb);
        assert_eq!(s.members(v), &[p(1), p(3), p(5)]);
        assert_eq!(s.position(v, p(3)), Some(1));
        assert_eq!(s.position(v, p(0)), None);
        assert!(s.contains(v, p(5)));
        assert!(!s.contains(v, p(2)));
    }

    #[test]
    fn partition_roundtrip() {
        let clustering =
            Clustering::new(vec![vec![p(0), p(2)], vec![p(1)], vec![p(3), p(4)]]).unwrap();
        let mut s = ClusterSets::from_partition(5, &clustering);
        assert_eq!(s.num_clusters(), 3);
        assert!(s.same_cluster(p(0), p(2)));
        assert!(!s.same_cluster(p(0), p(1)));
        let back = s.current_partition();
        assert_eq!(back.assignment(5), clustering.assignment(5));
    }

    #[test]
    fn version_count_is_bounded() {
        let mut s = ClusterSets::singletons(8);
        for i in 1..8 {
            let (ra, rb) = (s.find(p(0)), s.find(p(i)));
            s.merge(ra, rb);
        }
        assert_eq!(s.num_clusters(), 1);
        // n singletons + (n-1) merges = 2n - 1 versions.
        let v = s.current_version(p(0));
        assert_eq!(v.0 as usize, 2 * 8 - 2); // last version id
        assert_eq!(s.size(v), 8);
    }

    #[test]
    #[should_panic(expected = "merging a cluster with itself")]
    fn self_merge_panics() {
        let mut s = ClusterSets::singletons(2);
        let r = s.find(p(0));
        s.merge(r, r);
    }

    #[test]
    fn migrate_moves_one_process_between_live_slots() {
        let mut s = ClusterSets::singletons(5);
        let (ra, rb) = (s.find(p(0)), s.find(p(1)));
        let (ab, _) = s.merge(ra, rb);
        let (rc, rd) = (s.find(p(3)), s.find(p(4)));
        let (cd, _) = s.merge(rc, rd);
        let before_src = s.version_of_root(ab);
        let (src_v, dst_v) = s.migrate(p(1), cd);
        assert_eq!(s.members(src_v), &[p(0)]);
        assert_eq!(s.members(dst_v), &[p(1), p(3), p(4)]);
        // Old snapshots unchanged.
        assert_eq!(s.members(before_src), &[p(0), p(1)]);
        assert!(s.same_cluster(p(1), p(3)));
        assert!(!s.same_cluster(p(0), p(1)));
        assert_eq!(s.num_clusters(), 3);
        assert_eq!(s.position(dst_v, p(1)), Some(0));
    }

    #[test]
    fn migrate_last_member_retires_source_slot() {
        let mut s = ClusterSets::singletons(3);
        let (ra, rb) = (s.find(p(0)), s.find(p(1)));
        let (ab, _) = s.merge(ra, rb);
        let (src_v, dst_v) = s.migrate(p(2), ab);
        assert!(s.members(src_v).is_empty());
        assert_eq!(s.members(dst_v), &[p(0), p(1), p(2)]);
        assert_eq!(s.num_clusters(), 1);
        let part = s.current_partition();
        assert_eq!(part.num_clusters(), 1);
    }

    #[test]
    fn cluster_survives_anchor_departure() {
        // The slot keeps working even when the process whose id named it
        // migrates away (the union-find representation could not do this).
        let mut s = ClusterSets::singletons(4);
        let (ra, rb) = (s.find(p(0)), s.find(p(1)));
        let (r01, _) = s.merge(ra, rb);
        assert_eq!(r01, 0);
        let lone = s.find(p(3));
        s.migrate(p(0), lone);
        // Slot 0 now holds only P1; merging into it still works.
        assert_eq!(s.find(p(1)), 0);
        let rc = s.find(p(2));
        let (_, v) = s.merge(0, rc);
        assert_eq!(s.members(v), &[p(1), p(2)]);
        assert!(s.same_cluster(p(0), p(3)));
    }

    #[test]
    #[should_panic(expected = "migrating a process into its own cluster")]
    fn self_migrate_panics() {
        let mut s = ClusterSets::singletons(2);
        let r = s.find(p(0));
        s.migrate(p(0), r);
    }
}
