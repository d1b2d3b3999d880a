//! # cts-store — the monitoring-entity partial-order data structure
//!
//! Communication-visualization tools (POET, Object-Level Trace, ATEMPT) keep
//! "the transitive reduction of the partial order, typically accessed with a
//! B-tree-like index" (§1). This crate is that substrate, built from scratch:
//!
//! - [`btree`]: a B+-tree index keyed by `(process, event number)`;
//! - [`lru`]: an exact O(1) LRU used by both caches below;
//! - [`event_store`]: the monitoring entity — event records with their
//!   transitive-reduction edges, indexed for efficient lookup;
//! - [`timestamp_cache`]: the POET/OLT strategy of *calculating timestamps as
//!   required* — an LRU of Fidge/Mattern stamps with recompute-forward, whose
//!   instrumented cost reproduces the §1.1 claim that precedence tests
//!   become O(N)-expensive as the process count grows;
//! - [`vm_sim`]: a paged-memory simulator (4 KiB pages, LRU frames) that
//!   reproduces the §1.1 claim that *pre-computed* stamps thrash virtual
//!   memory — "about 12,000 pages of virtual memory to be read, only to be
//!   discarded" for one greatest-concurrent query at 1000 processes;
//! - [`queries`]: precedence, greatest-concurrent-elements, and partial-order
//!   scrolling over any timestamp backend;
//! - [`epoch_retainer`]: a capacity/byte-bounded ring of retained epoch
//!   snapshots with pin/unpin, backing the daemon's time-travel read path;
//! - [`sync`]: the poison-tolerant `RwLock` wrapper the shared store hands
//!   its query threads.

pub mod btree;
pub mod epoch_retainer;
pub mod event_store;
pub mod lru;
pub mod queries;
pub mod shared_cache;
pub mod sync;
pub mod timestamp_cache;
pub mod vm_sim;

pub use btree::BPlusTree;
pub use epoch_retainer::{EpochInfo, EpochRetainer, PinnedEpoch};
pub use event_store::{EventStore, IngestHandle, SharedStore};
pub use lru::LruCache;
pub use shared_cache::{CacheStats, CachedClusterBackend, SharedQueryCache};
pub use timestamp_cache::TimestampCache;
pub use vm_sim::PagedTimestampStore;
