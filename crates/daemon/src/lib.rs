//! # cts-daemon — an online monitoring-entity server
//!
//! The paper's monitoring entity (§1) is an *online* system: processes of the
//! target computation forward their events as they happen, the entity builds
//! timestamps incrementally, and interactive tools query precedence while the
//! computation is still running. The rest of this workspace exercises that
//! machinery in batch; this crate closes the loop and runs it as a server:
//!
//! - [`wire`]: a length-prefixed binary protocol over TCP (`std::net` only);
//! - [`reorder`]: the causal-delivery buffer that repairs the arbitrary
//!   arrival interleaving of concurrent client streams — duplicates dropped,
//!   gaps parked until their predecessors arrive, malformed edges parked
//!   rather than delivered. One type for both runtimes: the single worker's
//!   buffer owns every process, a shard core's owns its process group;
//! - [`pipeline`]: the per-computation ingest pipeline — reorder buffer →
//!   [`cts_core::ClusterEngine`] → the worker's delivered log — publishing
//!   immutable epoch snapshots (the partial-order data structure every
//!   query reads) that query threads read without blocking ingest;
//! - [`server`]: the TCP daemon — start-up, the computation registry and
//!   graceful shutdown; Linux-only, since its transport is the epoll
//!   poller pool in `event_loop`;
//! - `session`: the protocol itself — one step function from a received
//!   frame to a reply or a wait, which the epoll pollers drive;
//! - [`client`]: a blocking typed client used by tests and the load
//!   generator;
//! - [`metrics`]: lock-free counters and latency histograms behind the
//!   `Stats` wire message;
//! - [`loadgen`]: replays workload computations as concurrent client
//!   streams and differentially checks every answer against the offline
//!   batch engine — one pipeline whose scenarios (the standard suite, the
//!   adaptive re-clustering soak over the planted-drift fixtures, the
//!   shard-autoscaling soak over planted hot groups) differ only in their
//!   fixtures, daemon setting, plant-phase sampler and liveness gate;
//! - [`wal`] + [`checkpoint`]: the durability subsystem — a CRC-protected,
//!   group-committed write-ahead log of the post-reorder delivery order
//!   (one `WalLane` of cursors into the delivered log per ingest worker),
//!   periodic checkpoints of the delivered prefix, and a recovery scan that
//!   truncates torn tails and replays through the normal pipeline. Because
//!   state is a pure function of delivery order, recovery is replay;
//! - [`shard`]: the sharded ingest path — per-process-group delivery cores,
//!   the cross-shard clock exchange, cluster-driven rebalancing, the
//!   two-phase snapshot cut, and the deterministic schedule-exploration
//!   harness that proves them equivalent to the single-worker pipeline;
//! - [`replication`]: read scale-out — the WAL record stream doubles as a
//!   replication log, so `--follow <leader>` daemons replay it through the
//!   normal pipeline and answer queries bit-identically to the leader at
//!   commit-point epochs, fenced by leader leases;
//! - `netpoll`: the Linux syscalls (epoll, eventfd, timerfd, CPU affinity)
//!   and the `--pin-cores` plan over the process's own CPU mask.
//!
//! Correctness rests on the delivery-order-invariance property established
//! by the core crates: any valid delivery order yields exact precedence, so
//! the daemon's answers must be byte-identical to an offline run no matter
//! how the network interleaves the streams. `tests/daemon_soak.rs` asserts
//! exactly that over the full 54-computation suite.

pub mod checkpoint;
pub mod client;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod loadgen;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod netpoll;
pub mod pipeline;
pub mod reorder;
pub mod replication;
pub mod server;
pub(crate) mod session;
pub mod shard;
pub(crate) mod sharded;
pub mod wal;
pub mod wire;

pub use client::Client;
pub use loadgen::{LoadConfig, LoadReport};
pub use reorder::{DeliveryHooks, ReorderBuffer};
pub use server::{Daemon, DaemonConfig};
pub use shard::{ShardSchedule, SimShards};
