//! The per-event cluster timestamp representation.

use super::membership::{ClusterSets, ClusterVersionId};
use cts_model::ProcessId;

/// A cluster timestamp: either a projection of the event's Fidge/Mattern
/// stamp onto its cluster (the common case) or, for non-mergeable cluster
/// receives, the full Fidge/Mattern stamp (§2.3).
///
/// A stamp borrows its words from the structure that stores them (a
/// [`StampLog`](super::StampLog)'s word arena, or a buffer in transit), so
/// reading one copies nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterStamp<'a> {
    /// Projection over the member list of `version` (component `i` belongs to
    /// `sets.members(version)[i]`).
    Projected {
        version: ClusterVersionId,
        clock: &'a [u32],
    },
    /// A non-mergeable cluster receive carrying its full Fidge/Mattern stamp
    /// (component `q` belongs to process `q`).
    Full { clock: &'a [u32] },
}

impl<'a> ClusterStamp<'a> {
    /// Was this event a (non-mergeable) cluster receive?
    #[inline]
    pub fn is_cluster_receive(&self) -> bool {
        matches!(self, ClusterStamp::Full { .. })
    }

    /// The stored words: the projected components, or the full clock.
    #[inline]
    pub fn clock(&self) -> &'a [u32] {
        match *self {
            ClusterStamp::Full { clock } | ClusterStamp::Projected { clock, .. } => clock,
        }
    }

    /// This stamp's knowledge of process `q`: how many events of `q` are in
    /// the stamped event's causal past. `None` when the stamp is projected
    /// and `q` is outside the cluster (the information precedence queries
    /// recover via cluster receives).
    pub fn component(&self, sets: &ClusterSets, q: ProcessId) -> Option<u32> {
        match *self {
            ClusterStamp::Full { clock } => Some(clock[q.idx()]),
            ClusterStamp::Projected { version, clock } => {
                sets.position(version, q).map(|i| clock[i])
            }
        }
    }

    /// Number of vector elements this stamp actually stores (`c` for
    /// projected stamps, `N` for cluster receives).
    pub fn actual_width(&self) -> usize {
        self.clock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn component_lookup_projected() {
        let mut sets = ClusterSets::singletons(4);
        let (ra, rb) = (sets.find(p(1)), sets.find(p(3)));
        let (_, v) = sets.merge(ra, rb);
        let s = ClusterStamp::Projected {
            version: v,
            clock: &[5, 9], // members [P1, P3]
        };
        assert_eq!(s.component(&sets, p(1)), Some(5));
        assert_eq!(s.component(&sets, p(3)), Some(9));
        assert_eq!(s.component(&sets, p(0)), None);
        assert!(!s.is_cluster_receive());
        assert_eq!(s.actual_width(), 2);
    }

    #[test]
    fn component_lookup_full() {
        let sets = ClusterSets::singletons(3);
        let s = ClusterStamp::Full { clock: &[1, 2, 3] };
        assert_eq!(s.component(&sets, p(2)), Some(3));
        assert!(s.is_cluster_receive());
        assert_eq!(s.actual_width(), 3);
    }
}
