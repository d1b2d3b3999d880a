//! The self-organizing hierarchical cluster timestamp (§2.3).
//!
//! Processes are grouped into clusters. An event whose causal inputs all come
//! from inside its cluster gets a timestamp that is the **projection** of its
//! Fidge/Mattern stamp onto the cluster's processes — O(c) instead of O(N).
//! A receive whose source lies outside the cluster is a **cluster receive**:
//! either the two clusters merge (and the event projects onto the merged
//! cluster) or the event keeps its full Fidge/Mattern stamp and is recorded
//! as the cluster's gateway to the outside world. Precedence queries on
//! projected stamps route through the recorded cluster receives.
//!
//! - [`engine`]: the online engine under a merge strategy, and the queryable
//!   [`ClusterTimestamps`] every engine produces.
//! - [`membership`]: cluster sets that merge and let a process migrate, with
//!   immutable version snapshots for the projections.
//! - [`adaptive`]: the paper's second future-work variant (§5), processes
//!   that migrate between clusters once the first clustering proves poor.
//!   Its drift gate (an EWMA of blocked cluster receives, plus a cooldown)
//!   is off at `drift_threshold_q16: 0, cooldown: 0`; the migration
//!   ablation runs it that way.
//! - [`space`]: the space accounting of §4.
//! - [`stamp`]: the two stamp shapes, full and projected.

pub mod adaptive;
pub mod engine;
pub mod membership;
pub mod space;
pub mod stamp;

pub use adaptive::{AdaptiveEngine, AdaptiveParams, DriftDecider};
pub use engine::{ClusterEngine, ClusterTimestamps, StampIter, StampLog, Stamps};
pub use membership::{ClusterSets, ClusterVersionId};
pub use space::{Encoding, SpaceReport};
pub use stamp::ClusterStamp;
