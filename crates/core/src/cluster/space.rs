//! Space accounting for timestamp structures (§4's measured quantity).
//!
//! The paper's experiments assume the observation tool encodes Fidge/Mattern
//! timestamps in a **fixed-size vector** (300 elements by default, matching
//! POET/OLT behaviour) and cluster timestamps in vectors of size equal to the
//! maximum cluster size — "any variation in sizing of the vectors is likely
//! to have a detrimental impact on the performance of the memory-allocation
//! system" (§3.1). [`Encoding::Fixed`] reproduces those assumptions;
//! [`Encoding::Actual`] counts the elements actually stored, for comparison.

use super::engine::ClusterTimestamps;
use super::stamp::ClusterStamp;

/// How timestamp vectors are encoded for space accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Encoding {
    /// POET/OLT-style fixed-width vectors: every Fidge/Mattern (and cluster
    /// receive) stamp occupies `fm_width` elements; every projected stamp
    /// occupies `cluster_width` (= the maximum cluster size) elements.
    Fixed {
        fm_width: usize,
        cluster_width: usize,
    },
    /// Count exactly the elements stored; the Fidge/Mattern baseline costs
    /// `n` elements per event.
    Actual { n: usize },
}

impl Encoding {
    /// The paper's default: 300-element fixed vectors for Fidge/Mattern
    /// stamps (widened if the computation has more processes) and
    /// `max_cluster_size`-element vectors for cluster stamps.
    pub fn paper_default(num_processes: u32, max_cluster_size: usize) -> Encoding {
        Encoding::Fixed {
            fm_width: 300.max(num_processes as usize),
            cluster_width: max_cluster_size,
        }
    }

    /// Elements charged for one cluster stamp.
    fn cluster_elements(&self, stamp: &ClusterStamp<'_>) -> u64 {
        match (self, stamp) {
            (Encoding::Fixed { fm_width, .. }, ClusterStamp::Full { .. }) => *fm_width as u64,
            (Encoding::Fixed { cluster_width, .. }, ClusterStamp::Projected { .. }) => {
                *cluster_width as u64
            }
            (Encoding::Actual { .. }, s) => s.actual_width() as u64,
        }
    }

    /// Elements charged for one Fidge/Mattern stamp.
    fn fm_elements(&self) -> u64 {
        match self {
            Encoding::Fixed { fm_width, .. } => *fm_width as u64,
            Encoding::Actual { n } => *n as u64,
        }
    }
}

/// Space consumed by a cluster-timestamp structure versus the Fidge/Mattern
/// baseline over the same events.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpaceReport {
    pub num_events: usize,
    pub num_cluster_receives: usize,
    /// Total vector elements across all cluster stamps.
    pub cluster_elements: u64,
    /// Total vector elements the Fidge/Mattern baseline would use.
    pub fm_elements: u64,
    /// Mean elements per cluster stamp.
    pub avg_cluster_elements: f64,
    /// `cluster_elements / fm_elements` — the y-axis of Figures 4 and 5.
    pub ratio: f64,
}

impl SpaceReport {
    /// Measure a timestamp structure under an encoding policy.
    pub fn measure(cts: &ClusterTimestamps, enc: Encoding) -> SpaceReport {
        let stamps = cts.stamps();
        let mut cluster_elements = 0u64;
        for stamp in stamps {
            cluster_elements += enc.cluster_elements(&stamp);
        }
        let num_events = stamps.len();
        let fm_elements = enc.fm_elements() * num_events as u64;
        SpaceReport {
            num_events,
            num_cluster_receives: cts.num_cluster_receives(),
            cluster_elements,
            fm_elements,
            avg_cluster_elements: if num_events == 0 {
                0.0
            } else {
                cluster_elements as f64 / num_events as f64
            },
            ratio: if fm_elements == 0 {
                0.0
            } else {
                cluster_elements as f64 / fm_elements as f64
            },
        }
    }

    /// Bytes for the cluster structure assuming 32-bit elements.
    pub fn cluster_bytes(&self) -> u64 {
        self.cluster_elements * 4
    }

    /// Bytes for the Fidge/Mattern baseline assuming 32-bit elements.
    pub fn fm_bytes(&self) -> u64 {
        self.fm_elements * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::engine::ClusterEngine;
    use crate::strategy::{MergeOnFirst, NeverMerge};
    use cts_model::{ProcessId, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn pair_trace() -> cts_model::Trace {
        let mut b = TraceBuilder::new(4);
        for _ in 0..5 {
            let s = b.send(p(0), p(1)).unwrap();
            b.receive(p(1), s).unwrap();
        }
        b.internal(p(2)).unwrap();
        b.internal(p(3)).unwrap();
        b.finish_complete("pair").unwrap()
    }

    #[test]
    fn fixed_encoding_ratio_bounds() {
        let t = pair_trace();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let enc = Encoding::Fixed {
            fm_width: 300,
            cluster_width: 2,
        };
        let r = SpaceReport::measure(&cts, enc);
        // Everything merges on the first message: zero cluster receives, all
        // stamps cost 2 of 300 elements.
        assert_eq!(r.num_cluster_receives, 0);
        assert!((r.ratio - 2.0 / 300.0).abs() < 1e-12);
        assert_eq!(r.cluster_elements, 2 * t.num_events() as u64);
        assert_eq!(r.fm_elements, 300 * t.num_events() as u64);
        assert_eq!(r.cluster_bytes(), r.cluster_elements * 4);
    }

    #[test]
    fn never_merge_costs_full_width_for_receives() {
        let t = pair_trace();
        let cts = ClusterEngine::run(&t, NeverMerge);
        let enc = Encoding::Fixed {
            fm_width: 300,
            cluster_width: 1,
        };
        let r = SpaceReport::measure(&cts, enc);
        assert_eq!(r.num_cluster_receives, 5);
        // 5 receives at 300, 7 other events at 1.
        assert_eq!(r.cluster_elements, 5 * 300 + 7);
    }

    #[test]
    fn actual_encoding_counts_stored_elements() {
        let t = pair_trace();
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(2));
        let r = SpaceReport::measure(&cts, Encoding::Actual { n: 4 });
        // First event of P0 is a singleton projection (1), every later
        // event on P0/P1 projects over {0,1} (2); P2, P3 singletons (1).
        assert_eq!(r.fm_elements, 4 * t.num_events() as u64);
        assert!(r.ratio < 1.0);
        assert!(r.avg_cluster_elements < 2.01);
    }

    #[test]
    fn paper_default_widens_for_large_n() {
        match Encoding::paper_default(500, 10) {
            Encoding::Fixed {
                fm_width,
                cluster_width,
            } => {
                assert_eq!(fm_width, 500);
                assert_eq!(cluster_width, 10);
            }
            _ => unreachable!(),
        }
        match Encoding::paper_default(100, 10) {
            Encoding::Fixed { fm_width, .. } => assert_eq!(fm_width, 300),
            _ => unreachable!(),
        }
    }
}
