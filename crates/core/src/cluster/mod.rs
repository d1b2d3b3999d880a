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

pub mod adaptive;
pub mod engine;
pub mod membership;
pub mod migrate;
pub mod space;
pub mod stamp;

pub use adaptive::{AdaptiveEngine, AdaptiveParams, DriftDecider};
pub use engine::{ClusterEngine, ClusterTimestamps, StampLog};
pub use membership::{ClusterSets, ClusterVersionId};
pub use migrate::{MigratingEngine, MigratingTimestamps};
pub use space::{Encoding, SpaceReport};
pub use stamp::ClusterStamp;
