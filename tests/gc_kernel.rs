//! The greatest-concurrent kernel, `ClusterTimestamps::greatest_concurrent`,
//! against the two oracles it must equal: the generic binary search over the
//! §2.3 precedence test (`queries::greatest_concurrent` on `ClusterBackend`,
//! which the kernel does not serve) and the linear scan over Fidge/Mattern
//! stamps (`queries::greatest_concurrent_linear` on `FmBackend`).

use cluster_timestamps::prelude::*;
use cts_core::cluster::engine::run_static;
use cts_core::cluster::{AdaptiveEngine, AdaptiveParams};
use cts_store::queries::{
    greatest_concurrent, greatest_concurrent_linear, ClusterBackend, FmBackend,
};
use cts_workloads::drift::PhaseShiftStencil;
use cts_workloads::suite::standard_suite;

/// Probes per computation, spread evenly over its delivery order. Both
/// oracles cost far more than the kernel in a debug build (the generic
/// search O(N c log k log R) a probe, the linear scan O(events)), so the
/// suite is sampled here; the kernel's unit tests in `cts-core` check every
/// event of the mini suite.
const PROBES: usize = 64;

/// `PROBES` events of `t` against both oracles.
fn assert_exact(name: &str, t: &Trace, cts: &ClusterTimestamps, fm: &FmStore) {
    let stride = t.num_events().div_ceil(PROBES).max(1);
    for ev in t.events().iter().step_by(stride) {
        let e = ev.id;
        let got = cts.greatest_concurrent(t, e);
        assert_eq!(
            got,
            greatest_concurrent(&mut ClusterBackend(cts), t, e),
            "{name}: generic search, gc({e})"
        );
        assert_eq!(
            got,
            greatest_concurrent_linear(&mut FmBackend(fm), t, e),
            "{name}: linear oracle, gc({e})"
        );
    }
}

/// Every computation of the standard suite under every strategy family:
/// merge-on-1st at maxCS 2 and 8, merge-on-Nth, never-merge and a static
/// partition.
#[test]
fn kernel_matches_both_oracles_on_the_standard_suite() {
    for entry in standard_suite() {
        let t = &entry.trace;
        let n = t.num_processes();
        let fm = FmStore::compute(t);
        let runs = [
            (
                "merge-on-1st/2",
                ClusterEngine::run(t, MergeOnFirst::new(2)),
            ),
            (
                "merge-on-1st/8",
                ClusterEngine::run(t, MergeOnFirst::new(8)),
            ),
            (
                "merge-on-Nth/8",
                ClusterEngine::run(t, MergeOnNth::new(n, 8, 0.6)),
            ),
            ("never-merge", ClusterEngine::run(t, NeverMerge)),
            ("static/8", run_static(t, &Clustering::contiguous(n, 8))),
        ];
        for (strategy, cts) in &runs {
            assert_exact(&format!("{} {strategy}", entry.name), t, cts, &fm);
        }
    }
}

/// An adaptive run whose planted drift migrates processes between clusters.
#[test]
fn kernel_matches_both_oracles_across_migrations() {
    let t = PhaseShiftStencil {
        procs: 8,
        phases: 3,
        iters_per_phase: 4,
        block: 4,
    }
    .generate(1);
    let params = AdaptiveParams {
        max_cluster_size: 6,
        merge_threshold: 0.5,
        migrate_after: 2,
        drift_threshold_q16: (1 << 16) / 4,
        ewma_shift: 1,
        cooldown: 4,
    };
    let mut eng = AdaptiveEngine::new(t.num_processes(), params);
    for &ev in t.events() {
        eng.accept(ev);
    }
    assert!(
        eng.num_migrations() >= 1,
        "the planted drift migrated nothing"
    );
    assert_exact("phase-shift", &t, &eng.finish(), &FmStore::compute(&t));
}

/// Snapshots a live engine publishes at several prefixes answer over the
/// prefix each covers. A cut that would split a synchronous pair moves to
/// the first position after it that is a delivery order on its own.
#[test]
fn kernel_matches_both_oracles_on_snapshots() {
    let entry = standard_suite()
        .into_iter()
        .max_by_key(|entry| entry.trace.num_processes())
        .unwrap();
    let t = &entry.trace;
    let n = t.num_processes();
    let total = t.num_events();
    let mut cuts = vec![total / 8, total / 3, total / 2, total * 3 / 4, total];
    let mut eng = ClusterEngine::new(n, MergeOnFirst::new(8));
    for (pos, &ev) in t.events().iter().enumerate() {
        eng.accept(ev);
        if cuts.first().is_some_and(|&cut| pos + 1 >= cut) {
            let Ok(prefix) = Trace::from_delivery_order("prefix", n, t.events()[..=pos].to_vec())
            else {
                continue;
            };
            cuts.remove(0);
            let name = format!("{} at {}", entry.name, pos + 1);
            assert_exact(&name, &prefix, &eng.snapshot(), &FmStore::compute(&prefix));
        }
    }
    assert!(cuts.is_empty());
}
