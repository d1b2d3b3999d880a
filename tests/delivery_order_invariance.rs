//! Delivery-order invariance: a monitoring entity may observe the same
//! computation in many valid orders. Fidge/Mattern stamps must be identical
//! per event under every order; cluster timestamps may *cluster* differently
//! (dynamic merge decisions are order-dependent by nature) but must stay
//! exact for precedence under every order.

use cluster_timestamps::prelude::*;
use cts_core::cluster::ClusterEngine;
use cts_daemon::{ShardSchedule, SimShards};
use cts_model::linearize::{is_valid_delivery_order, relinearize};
use cts_workloads::spmd::Stencil1D;
use cts_workloads::suite::mini_suite;

#[test]
fn fm_stamps_are_delivery_order_invariant() {
    for entry in mini_suite().into_iter().take(6) {
        let t = &entry.trace;
        let fm = FmStore::compute(t);
        for seed in 0..3 {
            let r = relinearize(t, seed);
            assert!(is_valid_delivery_order(r.num_processes(), r.events()));
            let fm2 = FmStore::compute(&r);
            for id in t.all_event_ids() {
                assert_eq!(
                    fm.stamp(t, id),
                    fm2.stamp(&r, id),
                    "{}: stamp of {id} changed under reordering (seed {seed})",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn cluster_precedence_is_exact_under_any_order() {
    for entry in mini_suite().into_iter().take(4) {
        let t = &entry.trace;
        let oracle = Oracle::compute(t);
        let ids: Vec<EventId> = t.all_event_ids().step_by(3).collect();
        for seed in 0..3 {
            let r = relinearize(t, seed);
            let cts = ClusterEngine::run(&r, MergeOnFirst::new(4));
            for &e in &ids {
                for &f in &ids {
                    assert_eq!(
                        cts.precedes(&r, e, f),
                        oracle.happened_before(t, e, f),
                        "{} seed {seed}: {e} -> {f}",
                        entry.name
                    );
                }
            }
        }
    }
}

/// Drive an arrival sequence through the daemon's reorder buffer and return
/// the delivered order as a trace.
fn reorder_to_trace(name: &str, num_processes: u32, arrivals: &[Event]) -> Trace {
    let mut buf = cts_daemon::ReorderBuffer::new(num_processes);
    let mut delivered = Vec::new();
    for &ev in arrivals {
        delivered.extend(buf.offer(ev).expect("only well-formed events offered"));
    }
    assert_eq!(buf.depth(), 0, "events stuck in the reorder buffer");
    Trace::from_delivery_order(name, num_processes, delivered)
        .expect("reorder buffer must emit a valid delivery order")
}

#[test]
fn duplicate_deliveries_leave_stamps_unchanged() {
    // Network-level retransmits: every event arrives twice (second copy
    // immediately, worst case for dedup). The delivered order must be valid
    // and the Fidge/Mattern stamps identical to in-order delivery.
    for entry in mini_suite().into_iter().take(4) {
        let t = &entry.trace;
        let shuffled = relinearize(t, 31);
        let mut arrivals = Vec::with_capacity(t.num_events() * 2);
        for &ev in shuffled.events() {
            arrivals.push(ev);
            arrivals.push(ev);
        }
        let r = reorder_to_trace("dup", t.num_processes(), &arrivals);
        assert_eq!(r.num_events(), t.num_events(), "{}", entry.name);
        let fm = FmStore::compute(t);
        let fm2 = FmStore::compute(&r);
        for id in t.all_event_ids() {
            assert_eq!(
                fm.stamp(t, id),
                fm2.stamp(&r, id),
                "{}: duplicate delivery changed the stamp of {id}",
                entry.name
            );
        }
    }
}

#[test]
fn drop_then_retransmit_converges_to_exact_precedence() {
    // Lossy transport: every third event of the arrival sequence is dropped
    // on first transmission and retransmitted at the end (in reverse, with
    // one extra duplicate round). The buffer must hold the dependents and
    // release them exactly once; cluster precedence stays exact.
    for entry in mini_suite().into_iter().take(4) {
        let t = &entry.trace;
        let shuffled = relinearize(t, 57);
        let mut first_pass = Vec::new();
        let mut dropped = Vec::new();
        for (i, &ev) in shuffled.events().iter().enumerate() {
            if i % 3 == 2 {
                dropped.push(ev);
            } else {
                first_pass.push(ev);
            }
        }
        dropped.reverse();
        let mut arrivals = first_pass;
        arrivals.extend(&dropped);
        arrivals.extend(&dropped); // retransmit storm: everything again
        let r = reorder_to_trace("retx", t.num_processes(), &arrivals);
        assert_eq!(r.num_events(), t.num_events(), "{}", entry.name);

        let oracle = Oracle::compute(t);
        let cts = ClusterEngine::run(&r, MergeOnFirst::new(4));
        let ids: Vec<EventId> = t.all_event_ids().step_by(3).collect();
        for &e in &ids {
            for &f in &ids {
                assert_eq!(
                    cts.precedes(&r, e, f),
                    oracle.happened_before(t, e, f),
                    "{}: {e} -> {f} after drop/retransmit",
                    entry.name
                );
            }
        }
    }
}

/// Exact-precedence check of a sharded simulation against the causal oracle,
/// plus the invariant that every process row of the cut holds exactly that
/// process's events in index order.
fn assert_shards_exact(t: &Trace, sim: &mut SimShards, ctx: &str) {
    assert_eq!(sim.rejected(), 0, "{ctx}: events rejected");
    assert_eq!(
        sim.delivered_total(),
        t.num_events() as u64,
        "{ctx}: not everything delivered"
    );
    let (trace, cts) = sim.cut();
    assert_eq!(trace.num_events(), t.num_events(), "{ctx}: short cut");
    let oracle = Oracle::compute(t);
    for e in t.all_event_ids() {
        for f in t.all_event_ids() {
            assert_eq!(
                cts.precedes(&trace, e, f),
                oracle.happened_before(t, e, f),
                "{ctx}: {e} -> {f}"
            );
        }
    }
    for p in (0..t.num_processes()).map(ProcessId) {
        let row =
            |tr: &Trace| -> Vec<Event> { tr.process_events(p).map(|id| tr.event(id)).collect() };
        assert_eq!(row(&trace), row(t), "{ctx}: cut row of {p}");
    }
}

#[test]
fn receive_before_send_across_shards() {
    // Inject the delivery order *reversed*: every receive reaches its
    // owning shard before the matching send reaches the sender's shard, so
    // each cross-shard edge must park on the clock exchange and resolve
    // only when the send's frontier is finally published by the peer shard.
    let t = Stencil1D { procs: 6, iters: 3 }.generate(13);
    for shards in [2, 3] {
        let mut sim = SimShards::new("rx-first", t.num_processes(), shards, 4);
        for &ev in t.events().iter().rev() {
            sim.inject(ev);
        }
        sim.run_to_quiescence(&mut ShardSchedule::round_robin());
        assert_shards_exact(&t, &mut sim, &format!("{shards} shards reversed"));
    }
}

#[test]
fn duplicate_delivery_straddling_a_rebalance() {
    // Phase 1 delivers the whole computation; stencil traffic merges
    // neighboring clusters, migrating processes between shards. Phase 2
    // re-injects every event: the duplicates now route to the *new* owner
    // of each migrated process, which must recognize them by watermark even
    // though a different shard performed the original delivery.
    let t = Stencil1D { procs: 8, iters: 4 }.generate(3);
    let mut sim = SimShards::new("dup-rebalance", t.num_processes(), 4, 4);
    for &ev in t.events() {
        sim.inject(ev);
    }
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());
    assert_eq!(sim.delivered_total(), t.num_events() as u64);
    let moved = (0..t.num_processes()).any(|p| sim.shard_of(ProcessId(p)) != (p as usize * 4 / 8));
    assert!(moved, "no process migrated; duplicates would not straddle");
    for &ev in relinearize(&t, 77).events() {
        sim.inject(ev);
    }
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());
    assert_eq!(
        sim.duplicates(),
        t.num_events() as u64,
        "every re-injected event must be dropped as a duplicate"
    );
    assert_shards_exact(&t, &mut sim, "after duplicate storm");
}

#[test]
fn cluster_merge_rebalances_midstream() {
    // Feed the first half, let merges rebalance ownership, then feed the
    // rest: late events are routed by the *new* table, and any that raced
    // the migration are forwarded. Precedence must stay exact throughout.
    let t = Stencil1D { procs: 8, iters: 5 }.generate(29);
    let mut sim = SimShards::new("midstream", t.num_processes(), 4, 4);
    let events = t.events();
    let half = events.len() / 2;
    for &ev in &events[..half] {
        sim.inject(ev);
    }
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());
    let moved = (0..t.num_processes()).any(|p| sim.shard_of(ProcessId(p)) != (p as usize * 4 / 8));
    assert!(moved, "first half must already force a rebalance");
    for &ev in &events[half..] {
        sim.inject(ev);
    }
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());
    assert_shards_exact(&t, &mut sim, "midstream rebalance");
}

#[test]
fn oracle_node_counts_stable_under_reordering() {
    for entry in mini_suite().into_iter().take(4) {
        let t = &entry.trace;
        let o = Oracle::compute(t);
        let r = relinearize(t, 9);
        let o2 = Oracle::compute(&r);
        for id in t.all_event_ids() {
            assert_eq!(
                o.past_size(t, id),
                o2.past_size(&r, id),
                "{}: past of {id}",
                entry.name
            );
        }
    }
}
