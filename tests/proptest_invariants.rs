//! Property-based tests: arbitrary valid computations are generated op by
//! op, and every invariant of the timestamp structures must hold.
//!
//! The harness is `cts_util::check::run_cases`: each property runs 64 cases,
//! each case drawing a fresh trace (and parameters) from a per-case
//! `ChaCha8Rng`. Failures report the property name, case number, and base
//! seed, so any counterexample replays exactly by rerunning the test.

use cluster_timestamps::prelude::*;
use cts_core::cluster::{ClusterStamp, ClusterTimestamps};
use cts_core::clustering::greedy_pairwise;
use cts_core::two_pass::static_pipeline;
use cts_model::comm::CommMatrix;
use cts_util::check::run_cases;
use cts_util::prng::{ChaCha8Rng, Rng};

const CASES: u64 = 64;

/// A generator op; receives refer to the k-th pending send at apply time.
#[derive(Clone, Debug)]
enum Op {
    Internal(u32),
    Send(u32, u32),
    Receive(u32),
    Sync(u32, u32),
}

fn random_op(rng: &mut ChaCha8Rng) -> Op {
    match rng.gen_range(0u32..4) {
        0 => Op::Internal(rng.gen_range(0u32..8)),
        1 => Op::Send(rng.gen_range(0u32..8), rng.gen_range(0u32..8)),
        2 => Op::Receive(rng.gen_range(0u32..64)),
        _ => Op::Sync(rng.gen_range(0u32..8), rng.gen_range(0u32..8)),
    }
}

fn apply_ops(n: u32, ops: &[Op]) -> Trace {
    let mut b = TraceBuilder::new(n);
    let mut pending = Vec::new();
    for op in ops {
        match *op {
            Op::Internal(p) => {
                b.internal(ProcessId(p % n)).unwrap();
            }
            Op::Send(p, q) => {
                let (p, q) = (p % n, q % n);
                if p != q {
                    pending.push(b.send(ProcessId(p), ProcessId(q)).unwrap());
                }
            }
            Op::Receive(k) => {
                if !pending.is_empty() {
                    let tok = pending.remove(k as usize % pending.len());
                    // Destination is encoded in the token; find it by retry.
                    for dest in 0..n {
                        if b.receive(ProcessId(dest), tok).is_ok() {
                            break;
                        }
                    }
                }
            }
            Op::Sync(p, q) => {
                let (p, q) = (p % n, q % n);
                if p != q {
                    b.sync(ProcessId(p), ProcessId(q)).unwrap();
                }
            }
        }
    }
    b.finish("proptest")
}

/// A random valid computation: 2–5 processes, 1–39 generator ops.
fn random_trace(rng: &mut ChaCha8Rng) -> Trace {
    let n = rng.gen_range(2u32..6);
    let len = rng.gen_range(1usize..40);
    let ops: Vec<Op> = (0..len).map(|_| random_op(rng)).collect();
    apply_ops(n, &ops)
}

fn check_exact(t: &Trace, cts: &ClusterTimestamps) {
    let oracle = Oracle::compute(t);
    for e in t.all_event_ids() {
        for f in t.all_event_ids() {
            assert_eq!(
                cts.precedes(t, e, f),
                oracle.happened_before(t, e, f),
                "{e} -> {f}"
            );
        }
    }
}

#[test]
fn fm_equals_oracle() {
    run_cases("fm_equals_oracle", CASES, 0x01, |rng| {
        let t = random_trace(rng);
        let oracle = Oracle::compute(&t);
        let fm = FmStore::compute(&t);
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    fm.precedes(&t, e, f),
                    oracle.happened_before(&t, e, f),
                    "{e} -> {f}"
                );
            }
        }
    });
}

#[test]
fn merge_on_first_equals_oracle() {
    run_cases("merge_on_first_equals_oracle", CASES, 0x02, |rng| {
        let t = random_trace(rng);
        let max_cs = rng.gen_range(1usize..6);
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
        check_exact(&t, &cts);
    });
}

#[test]
fn merge_on_nth_equals_oracle() {
    run_cases("merge_on_nth_equals_oracle", CASES, 0x03, |rng| {
        let t = random_trace(rng);
        let max_cs = rng.gen_range(1usize..6);
        let threshold = rng.gen_f64() * 4.0;
        let cts = ClusterEngine::run(&t, MergeOnNth::new(t.num_processes(), max_cs, threshold));
        check_exact(&t, &cts);
    });
}

#[test]
fn static_greedy_equals_oracle() {
    run_cases("static_greedy_equals_oracle", CASES, 0x04, |rng| {
        let t = random_trace(rng);
        let max_cs = rng.gen_range(1usize..6);
        let (_, cts) = static_pipeline(&t, max_cs);
        check_exact(&t, &cts);
    });
}

#[test]
fn clusters_partition_and_respect_max_size() {
    run_cases(
        "clusters_partition_and_respect_max_size",
        CASES,
        0x05,
        |rng| {
            let t = random_trace(rng);
            let max_cs = rng.gen_range(1usize..6);
            let cts = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
            let part = cts.final_partition();
            part.validate(t.num_processes()).expect("partition");
            assert!(part.max_cluster_size() <= max_cs.max(1));
        },
    );
}

#[test]
fn greedy_clustering_respects_max_size() {
    run_cases("greedy_clustering_respects_max_size", CASES, 0x06, |rng| {
        let t = random_trace(rng);
        let max_cs = rng.gen_range(1usize..8);
        let m = CommMatrix::from_trace(&t);
        let c = greedy_pairwise(&m, max_cs);
        c.validate(t.num_processes()).expect("partition");
        assert!(c.max_cluster_size() <= max_cs.max(1));
        // No two clusters that communicate could still merge within the cap.
        let cl = c.clusters();
        for i in 0..cl.len() {
            for j in (i + 1)..cl.len() {
                if cl[i].len() + cl[j].len() <= max_cs {
                    assert_eq!(
                        m.between_groups(&cl[i], &cl[j]),
                        0,
                        "mergeable communicating pair left behind"
                    );
                }
            }
        }
    });
}

#[test]
fn projected_stamps_are_fm_projections() {
    run_cases("projected_stamps_are_fm_projections", CASES, 0x07, |rng| {
        let t = random_trace(rng);
        let max_cs = rng.gen_range(1usize..6);
        let fm = FmStore::compute(&t);
        let cts = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
        for pos in 0..t.num_events() {
            match cts.stamp_at(pos) {
                ClusterStamp::Projected { version, clock } => {
                    let members = cts.sets().members(version);
                    for (i, &q) in members.iter().enumerate() {
                        assert_eq!(clock[i], fm.stamp_at(pos)[q.idx()]);
                    }
                }
                ClusterStamp::Full { clock } => {
                    assert_eq!(clock, fm.stamp_at(pos));
                }
            }
        }
    });
}

#[test]
fn ratio_bounded_by_one_under_fixed_encoding() {
    run_cases(
        "ratio_bounded_by_one_under_fixed_encoding",
        CASES,
        0x08,
        |rng| {
            let t = random_trace(rng);
            let max_cs = rng.gen_range(1usize..6);
            let cts = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
            let enc = Encoding::paper_default(t.num_processes(), max_cs);
            let r = SpaceReport::measure(&cts, enc);
            assert!(r.ratio <= 1.0 + 1e-12, "ratio {} > 1", r.ratio);
            assert!(r.ratio >= 0.0);
        },
    );
}

#[test]
fn merge_nth_zero_threshold_equals_merge_first() {
    run_cases(
        "merge_nth_zero_threshold_equals_merge_first",
        CASES,
        0x09,
        |rng| {
            let t = random_trace(rng);
            let max_cs = rng.gen_range(1usize..6);
            let a = ClusterEngine::run(&t, MergeOnFirst::new(max_cs));
            let b = ClusterEngine::run(&t, MergeOnNth::new(t.num_processes(), max_cs, 0.0));
            assert_eq!(a.num_cluster_receives(), b.num_cluster_receives());
            assert_eq!(a.num_merges(), b.num_merges());
            assert_eq!(
                a.final_partition().assignment(t.num_processes()),
                b.final_partition().assignment(t.num_processes())
            );
        },
    );
}

#[test]
fn migrating_engine_equals_oracle() {
    run_cases("migrating_engine_equals_oracle", CASES, 0x0a, |rng| {
        use cts_core::cluster::{AdaptiveEngine, AdaptiveParams};
        let t = random_trace(rng);
        let max_cs = rng.gen_range(1usize..6);
        let merge_threshold = rng.gen_f64() * 2.0;
        let migrate_after = rng.gen_range(1u32..4);
        // Every case runs with the drift gate off (what the migration
        // ablation runs) and with it on at a random level and cooldown.
        let gate_on = (rng.gen_range(1u32..1 << 15), rng.gen_range(1u32..4));
        let oracle = Oracle::compute(&t);
        for (drift_threshold_q16, cooldown) in [(0, 0), gate_on] {
            let params = AdaptiveParams {
                merge_threshold,
                migrate_after,
                drift_threshold_q16,
                cooldown,
                ..AdaptiveParams::new(max_cs)
            };
            let cts = AdaptiveEngine::run(&t, params);
            for e in t.all_event_ids() {
                for f in t.all_event_ids() {
                    assert_eq!(
                        cts.precedes(&t, e, f),
                        oracle.happened_before(&t, e, f),
                        "{e} -> {f} under {params:?}"
                    );
                }
            }
        }
    });
}

#[test]
fn relinearization_preserves_fm_stamps() {
    run_cases("relinearization_preserves_fm_stamps", CASES, 0x0b, |rng| {
        use cts_model::linearize::{is_valid_delivery_order, relinearize};
        let t = random_trace(rng);
        let seed = rng.gen_range(0u64..1000);
        let r = relinearize(&t, seed);
        assert!(is_valid_delivery_order(r.num_processes(), r.events()));
        let fm_a = FmStore::compute(&t);
        let fm_b = FmStore::compute(&r);
        for id in t.all_event_ids() {
            assert_eq!(fm_a.stamp(&t, id), fm_b.stamp(&r, id));
        }
    });
}

#[test]
fn textio_roundtrip() {
    run_cases("textio_roundtrip", CASES, 0x0c, |rng| {
        let t = random_trace(rng);
        let text = cts_model::textio::write_trace(&t);
        let back = cts_model::textio::parse_trace(&text).expect("roundtrip");
        assert_eq!(back.events(), t.events());
        assert_eq!(back.num_processes(), t.num_processes());
    });
}

#[test]
fn oracle_is_a_strict_partial_order_modulo_sync() {
    run_cases(
        "oracle_is_a_strict_partial_order_modulo_sync",
        CASES,
        0x0d,
        |rng| {
            // Irreflexive always; antisymmetric except for sync halves (which are
            // causally identified by convention).
            let t = random_trace(rng);
            let oracle = Oracle::compute(&t);
            let nodes = cts_model::oracle::NodeMap::build(&t);
            for e in t.all_event_ids() {
                assert!(!oracle.happened_before(&t, e, e));
                for f in t.all_event_ids() {
                    if oracle.happened_before(&t, e, f) && oracle.happened_before(&t, f, e) {
                        assert_eq!(
                            nodes.node(&t, e),
                            nodes.node(&t, f),
                            "mutual order only for sync halves"
                        );
                    }
                }
            }
        },
    );
}
