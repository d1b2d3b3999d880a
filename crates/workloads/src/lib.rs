//! # cts-workloads — synthetic parallel/distributed trace generators
//!
//! The paper evaluates its clustering strategies over more than 50 captured
//! computations from three environments — PVM (SPMD parallel codes including
//! the Cowichan benchmarks, nearest-neighbour and scatter-gather patterns),
//! Java (web-like applications and web servers), and DCE (business
//! application RPC) — with up to 300 processes each. Those traces are not
//! recoverable, so this crate generates deterministic synthetic equivalents
//! spanning the same structural axes (see DESIGN.md §1 for the substitution
//! argument):
//!
//! - [`spmd`]: stencils, rings, scatter-gather, reduction trees, pipelines,
//!   butterflies, and a Cowichan-style phased composite;
//! - [`web`]: acceptor/worker-pool web servers and tiered microservices;
//! - [`dce`]: synchronous-RPC three-tier business applications (heavy use of
//!   synchronous events) and an all-synchronous variant;
//! - [`synthetic`]: adversarial patterns — uniform random (no locality),
//!   planted clusters, hotspots, and hierarchies;
//! - [`drift`]: planted-drift families whose communication locality changes
//!   at known event positions (phase-changing SPMD re-blocking,
//!   re-balancing web tiers) — the fixtures for the online adaptive
//!   re-clustering work — and the hot-group imbalance the shard autoscaler
//!   is soaked on. Not part of the standard suite.
//!
//! [`suite::standard_suite`] packages 54 named computations with fixed seeds
//! as the stand-in for the paper's corpus.
//!
//! All generators are deterministic functions of their parameters and an
//! explicit seed: the in-repo ChaCha8 PRNG of `cts-util`, whose keystream is
//! pinned by known-answer tests (and the suite's first events by golden
//! tests), so the corpus is bit-reproducible across machines and refactors.

pub mod dce;
pub mod drift;
pub mod spmd;
pub mod suite;
pub mod synthetic;
pub mod web;

use cts_model::Trace;

/// A parameterized, seeded trace generator.
pub trait Workload {
    /// Stable descriptive name (used in reports and the suite).
    fn name(&self) -> String;
    /// Generate the trace for a seed. Equal parameters and seed always yield
    /// the identical trace.
    fn generate(&self, seed: u64) -> Trace;
}

pub(crate) fn rng(seed: u64) -> cts_util::prng::ChaCha8Rng {
    cts_util::prng::ChaCha8Rng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::stats::TraceStats;

    #[test]
    fn all_workload_kinds_are_deterministic() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(spmd::Stencil1D { procs: 8, iters: 3 }),
            Box::new(web::WebServer {
                clients: 4,
                workers: 3,
                requests: 10,
                affinity: 0.8,
            }),
            Box::new(dce::ThreeTier {
                clients: 3,
                servers: 2,
                databases: 1,
                transactions: 6,
            }),
            Box::new(synthetic::UniformRandom {
                procs: 10,
                messages: 30,
            }),
        ];
        for w in &workloads {
            let a = w.generate(42);
            let b = w.generate(42);
            assert_eq!(a.events(), b.events(), "{} not deterministic", w.name());
            let st = TraceStats::compute(&a);
            assert!(st.num_events > 0, "{} generated empty trace", w.name());
        }
    }
}
