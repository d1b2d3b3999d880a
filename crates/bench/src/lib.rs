//! Shared fixtures for the Criterion benchmarks: deterministic traces at a
//! few scales, so every bench measures the same inputs.

use cts_model::Trace;
use cts_workloads::synthetic::PlantedClusters;
use cts_workloads::web::WebServer;
use cts_workloads::Workload;

/// A locality-rich trace with `n` processes and roughly `n * density`
/// messages (planted clusters of ~10 processes).
pub fn clustered_trace(n: u32, density: u32) -> Trace {
    PlantedClusters {
        procs: n,
        groups: (n / 10).max(1),
        messages: n * density,
        p_intra: 0.9,
    }
    .generate(4242)
}

/// A hub-heavy web-server trace (the worst-case shape in the figures).
pub fn web_trace(requests: u32) -> Trace {
    WebServer {
        clients: 24,
        workers: 12,
        requests,
        affinity: 0.6,
    }
    .generate(4242)
}

/// The process counts the scaling benches sweep.
pub const SCALES: &[u32] = &[50, 100, 200, 400];

/// The two widest multi-process computations in the workload corpus:
/// 128- and 288-process traces with strong group locality plus a
/// cross-group traffic floor.
pub fn widest_computations() -> Vec<(&'static str, Trace)> {
    use cts_workloads::spmd::BlockedStencil1D;
    use cts_workloads::web::ShardedWebServer;
    vec![
        (
            "blocked_stencil1d_128",
            BlockedStencil1D {
                procs: 128,
                iters: 6,
                block: 8,
            }
            .generate(3),
        ),
        (
            "sharded_web_288",
            ShardedWebServer {
                shards: 24,
                clients_per_shard: 6,
                workers_per_shard: 4,
                requests: 1100,
                affinity: 0.85,
                redirect: 0.25,
            }
            .generate(24),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(
            clustered_trace(50, 8).events(),
            clustered_trace(50, 8).events()
        );
        assert_eq!(web_trace(100).events(), web_trace(100).events());
    }
}
