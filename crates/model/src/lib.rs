//! # cts-model — the parallel-computation model
//!
//! This crate implements the computation model of Section 2.1 of *Clustering
//! Strategies for Cluster Timestamps* (Ward, Huang & Taylor, ICPP 2004): a
//! parallel computation is a set of sequential **processes**, each a totally
//! ordered sequence of **events** (send, receive, unary/internal, and
//! synchronous), and the computation as a whole is the partial order generated
//! by Lamport's *happened-before* relation over all events.
//!
//! The crate provides:
//!
//! - strongly-typed identifiers ([`ProcessId`], [`EventIndex`], [`EventId`]);
//! - the [`Event`] / [`EventKind`] representation, including synchronous
//!   event pairs (each synchronous event is simultaneously a transmit and a
//!   receive — see §3.1 of the paper);
//! - a validating [`TraceBuilder`] producing immutable [`Trace`]s whose global
//!   event sequence is a *delivery order*: a linearization of the partial
//!   order suitable for online (dynamic) timestamping by a central monitoring
//!   entity;
//! - a ground-truth [`oracle::Oracle`] (bitset transitive closure) and
//!   on-demand [`oracle::reaches_bfs`] used to property-test every timestamp
//!   scheme in the workspace;
//! - the process [`comm::CommGraph`] / [`comm::CommMatrix`] (communication
//!   occurrences, with synchronous communications counted twice, §3.1);
//! - trace [`stats`], [`textio`] (a compact text serialization), and process
//!   relabeling utilities;
//! - the append-only [`append::AppendVec`], whose [`append::Prefix`] handles
//!   let every published epoch share one copy of history, and the
//!   [`TraceLog`] a monitoring entity grows its delivered trace in.
//!
//! ## Synchronous events
//!
//! A synchronous communication is modeled as a *pair* of events, one per
//! participating process, each referencing the other. Following POET's
//! convention the two halves are **causally identified**: each sees the
//! other's past, and precedence queries treat the two halves as mutually
//! ordered (both `a → b` and `b → a` hold). All timestamp schemes in this
//! workspace and the ground-truth oracle share that convention, so they can be
//! checked against each other exactly.

pub mod append;
pub mod builder;
pub mod comm;
pub mod event;
pub mod linearize;
pub mod oracle;
pub mod stats;
pub mod textio;
pub mod trace;

pub use builder::{TraceBuilder, TraceError};
pub use event::{Event, EventId, EventIndex, EventKind, ProcessId};
pub use oracle::Oracle;
pub use trace::{Trace, TraceLog};
