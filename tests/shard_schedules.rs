//! Schedule exploration for the sharded ingest path.
//!
//! The daemon's shard workers race: batches land on different shards, wakes
//! cross shard boundaries, and a merge can rebalance ownership mid-stream.
//! `SimShards` runs the *same* cores single-threaded, stepping one message
//! at a time under an explicit `ShardSchedule`, so every interleaving the
//! threaded runtime could exhibit (at message granularity) is reproducible
//! here deterministically.
//!
//! Every schedule must yield the same answers: exact precedence against the
//! causal oracle, and a store holding each event exactly once. Failures
//! shrink to a minimal choice vector before panicking, so a red run prints
//! a schedule short enough to replay by hand.

use cluster_timestamps::prelude::*;
use cts_daemon::{ShardSchedule, SimShards};
use cts_model::linearize::relinearize;
use cts_util::prng::{ChaCha8Rng, Rng};
use cts_workloads::spmd::Stencil1D;
use cts_workloads::synthetic::PlantedClusters;

/// How many events one "inject" scheduler choice feeds into the routing
/// table. Small, so injection interleaves tightly with shard stepping.
const INJECT_CHUNK: usize = 5;

/// Run one complete schedule: interleave injection of `arrival_seed`'s
/// relinearization with shard steps as directed by `choices`, then verify
/// the cut against the causal oracle and the store against the trace.
fn run_schedule(
    t: &Trace,
    shards: usize,
    arrival_seed: u64,
    choices: &[u32],
) -> Result<(), String> {
    let arrivals = relinearize(t, arrival_seed);
    let events = arrivals.events();
    let mut sim = SimShards::new("sched", t.num_processes(), shards, 4);
    let mut sched = ShardSchedule::new(choices.to_vec());
    let mut next = 0;
    loop {
        let runnable = sim.runnable();
        let can_inject = next < events.len();
        let options = runnable.len() + usize::from(can_inject);
        if options == 0 {
            break;
        }
        let pick = sched.choose(options);
        if pick < runnable.len() {
            sim.step(runnable[pick]);
        } else {
            let end = (next + INJECT_CHUNK).min(events.len());
            sim.inject_batch(&events[next..end]);
            next = end;
        }
    }
    verify(t, &mut sim)
}

/// The invariants every schedule must satisfy.
fn verify(t: &Trace, sim: &mut SimShards) -> Result<(), String> {
    if sim.rejected() != 0 {
        return Err(format!("{} events rejected", sim.rejected()));
    }
    if sim.delivered_total() != t.num_events() as u64 {
        return Err(format!(
            "delivered {} of {} events",
            sim.delivered_total(),
            t.num_events()
        ));
    }
    let (trace, cts) = sim.cut();
    if trace.num_events() != t.num_events() {
        return Err(format!(
            "cut assembled {} of {} events",
            trace.num_events(),
            t.num_events()
        ));
    }
    let oracle = Oracle::compute(t);
    let ids: Vec<EventId> = t.all_event_ids().step_by(2).collect();
    for &e in &ids {
        for &f in &ids {
            if cts.precedes(&trace, e, f) != oracle.happened_before(t, e, f) {
                return Err(format!("precedence {e} -> {f} wrong"));
            }
        }
    }
    // Row order of the cut, the structure window queries read: every
    // process row holds exactly that process's events, in index order,
    // regardless of which shards delivered them (or how often ownership
    // migrated along the way).
    for p in (0..t.num_processes()).map(ProcessId) {
        let row =
            |tr: &Trace| -> Vec<Event> { tr.process_events(p).map(|id| tr.event(id)).collect() };
        let (got, expected) = (row(&trace), row(t));
        if got.len() != expected.len() {
            return Err(format!(
                "{p}: cut row has {} of {} events",
                got.len(),
                expected.len()
            ));
        }
        if let Some((_, want)) = got.iter().zip(&expected).find(|(g, w)| g != w) {
            return Err(format!("{p}: cut row diverges at {}", want.id));
        }
    }
    Ok(())
}

/// A schedule runner: executes one complete choice vector and verifies the
/// result. Both the plain runner and the autoscaling runner fit, so the
/// shrinker works on either.
type Runner = fn(&Trace, usize, u64, &[u32]) -> Result<(), String>;

/// Shrink a failing choice vector: truncation first (any prefix is a
/// complete schedule — the tail continues round-robin), then zeroing.
/// Panics with the minimal reproducer.
fn shrink_and_panic(
    run: Runner,
    t: &Trace,
    shards: usize,
    arrival_seed: u64,
    choices: Vec<u32>,
    err: String,
) -> ! {
    let mut best = choices;
    let mut best_err = err;
    // Halve while the prefix still fails.
    loop {
        let half = best.len() / 2;
        match run(t, shards, arrival_seed, &best[..half]) {
            Err(e) => {
                best.truncate(half);
                best_err = e;
                if best.is_empty() {
                    break;
                }
            }
            Ok(()) => break,
        }
    }
    // Trim single trailing choices.
    while !best.is_empty() {
        match run(t, shards, arrival_seed, &best[..best.len() - 1]) {
            Err(e) => {
                best.pop();
                best_err = e;
            }
            Ok(()) => break,
        }
    }
    // Canonicalize: zero every choice that can be zeroed.
    for i in 0..best.len() {
        if best[i] == 0 {
            continue;
        }
        let saved = best[i];
        best[i] = 0;
        match run(t, shards, arrival_seed, &best) {
            Err(e) => best_err = e,
            Ok(()) => best[i] = saved,
        }
    }
    panic!(
        "{}: shards={shards} arrival_seed={arrival_seed} \
         minimal schedule {best:?}: {best_err}",
        t.name()
    );
}

fn check_schedules_with(run: Runner, t: &Trace, shards: usize, seeds: u64) {
    for seed in 0..seeds {
        let mut rng = ChaCha8Rng::seed_from_u64(seed * 7919 + shards as u64);
        // Enough choices to steer well past quiescence; the round-robin
        // tail finishes whatever the random prefix leaves queued.
        let choices: Vec<u32> = (0..4 * t.num_events()).map(|_| rng.next_u32()).collect();
        if let Err(e) = run(t, shards, seed, &choices) {
            shrink_and_panic(run, t, shards, seed, choices, e);
        }
    }
}

fn check_random_schedules(t: &Trace, shards: usize, seeds: u64) {
    check_schedules_with(run_schedule, t, shards, seeds);
}

#[test]
fn planted_clusters_random_schedules() {
    // Group-aligned traffic: shards mostly stay independent, with the
    // occasional cross-group message exercising the clock exchange.
    let t = PlantedClusters {
        procs: 6,
        groups: 3,
        messages: 40,
        p_intra: 0.9,
    }
    .generate(5);
    for shards in [2, 3] {
        check_random_schedules(&t, shards, 10);
    }
}

#[test]
fn merge_heavy_random_schedules() {
    // Low intra-group probability: cross-group messages force cluster
    // merges, which force mid-stream rebalances under every schedule.
    let t = PlantedClusters {
        procs: 8,
        groups: 4,
        messages: 60,
        p_intra: 0.55,
    }
    .generate(11);
    for shards in [2, 4] {
        check_random_schedules(&t, shards, 10);
    }
}

#[test]
fn stencil_random_schedules() {
    // Neighbor-exchange SPMD: every process talks across a shard boundary
    // somewhere, so wakes flow between shards constantly.
    let t = Stencil1D { procs: 6, iters: 4 }.generate(3);
    for shards in [2, 3, 4] {
        check_random_schedules(&t, shards, 8);
    }
}

#[test]
fn tiny_trace_exhaustive_schedules() {
    // Exhaustive enumeration over bounded choice vectors for a tiny trace:
    // every base-3 vector of length 7 (2187 schedules — at most 2 runnable
    // shards plus the inject option at any step, so 3 covers every branch;
    // the round-robin tail completes each one deterministically).
    let t = PlantedClusters {
        procs: 4,
        groups: 2,
        messages: 10,
        p_intra: 0.7,
    }
    .generate(2);
    const LEN: usize = 7;
    const BASE: u64 = 3;
    let total = BASE.pow(LEN as u32);
    for code in 0..total {
        let mut c = code;
        let mut choices = Vec::with_capacity(LEN);
        for _ in 0..LEN {
            choices.push((c % BASE) as u32);
            c /= BASE;
        }
        if let Err(e) = run_schedule(&t, 2, 17, &choices) {
            shrink_and_panic(run_schedule, &t, 2, 17, choices, e);
        }
    }
}

#[test]
fn migrated_sync_half_takes_the_exchanged_frontier() {
    // Regression for a stamp-pollution bug. P0's half of a cross-shard sync
    // parks on shard 0 while shard 1 delivers P2's half *and keeps going*
    // within the same batch message. The merge then migrates P0 to shard 1,
    // and the parked half delivers against a frontier row for P2 that has
    // already moved past the sync. The stamp must come from P2's pre-sync
    // frontier (still parked on the clock exchange — this half is its only
    // consumer), not the migrated row; otherwise later P2/P3 events leak
    // into the half's past and manufacture precedence the oracle denies.
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let p2 = ProcessId(2);
    let p3 = ProcessId(3);
    let mut b = TraceBuilder::new(4);
    let (pre_p2, pre_p3) = b.sync(p2, p3).unwrap(); // merges {P2,P3}
    let e_p1 = b.internal(p1).unwrap();
    let e_p0 = b.internal(p0).unwrap();
    let (half_p0, half_p2) = b.sync(p0, p2).unwrap(); // merges {P0,P2,P3}
    let (late_p2, late_p3) = b.sync(p2, p3).unwrap(); // NOT in half_p0's past
    let t = b.finish("migrated-sync");
    let ev = |id: EventId| t.events().iter().copied().find(|e| e.id == id).unwrap();

    // Initial routing (4 procs / 2 shards): P0,P1 on shard 0; P2,P3 on 1.
    let mut sim = SimShards::new("migrated-sync", 4, 2, 4);

    // Phase 1: shard 1 delivers the P2/P3 sync and merges their clusters.
    sim.inject_batch(&[ev(pre_p2), ev(pre_p3)]);
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());

    // Phase 2: shard 0 delivers the internals, then parks P0's sync half:
    // its pre-sync frontier is published on the exchange and shard 0
    // registers for the peer half.
    sim.inject_batch(&[ev(e_p1), ev(e_p0), ev(half_p0)]);
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());
    assert_eq!(
        sim.delivered_total(),
        4,
        "P0's sync half must still be parked"
    );

    // Phase 3: ONE batch on shard 1 delivers P2's half (completing the
    // cross-shard sync and merging {P0} into {P2,P3}) and then the later
    // P2/P3 sync — all before the batch-boundary rebalance migrates P0
    // over with its parked half.
    sim.inject_batch(&[ev(half_p2), ev(late_p2), ev(late_p3)]);
    sim.run_to_quiescence(&mut ShardSchedule::round_robin());

    assert_eq!(sim.shard_of(p0), 1, "the merge must migrate P0 to shard 1");
    let (trace, cts) = sim.cut();
    assert!(
        !cts.precedes(&trace, late_p2, half_p0),
        "post-sync P2 event leaked into the migrated half's stamp"
    );
    assert!(
        !cts.precedes(&trace, late_p3, half_p0),
        "post-sync P3 event leaked into the migrated half's stamp"
    );
    verify(&t, &mut sim).unwrap();
}

/// Like [`run_schedule`], but the scheduler gets two extra options at every
/// step: *split* a rotating target shard (activating a fresh slot and
/// moving half its clusters there) or *retire* it (migrating every cluster
/// off and deactivating the slot) — the same whole-cluster relayouts the
/// daemon's placement engine performs live between batches. An op that is
/// unsafe right now (mid sync pair, straddling cluster, too few clusters,
/// last active shard) defers exactly as the runtime's does. Every schedule
/// must still match the causal oracle bit for bit.
fn run_rescale_schedule(
    t: &Trace,
    shards: usize,
    arrival_seed: u64,
    choices: &[u32],
) -> Result<(), String> {
    let arrivals = relinearize(t, arrival_seed);
    let events = arrivals.events();
    let mut sim = SimShards::new("rescale", t.num_processes(), shards, 4);
    let mut sched = ShardSchedule::new(choices.to_vec());
    let mut next = 0;
    let mut rot = 0usize;
    loop {
        let runnable = sim.runnable();
        let can_inject = next < events.len();
        if runnable.is_empty() && !can_inject {
            break;
        }
        // Last two options: split / retire the rotating target.
        let options = runnable.len() + usize::from(can_inject) + 2;
        let pick = sched.choose(options);
        rot += 1;
        let target = rot % sim.num_shards();
        if pick < runnable.len() {
            sim.step(runnable[pick]);
        } else if can_inject && pick == runnable.len() {
            let end = (next + INJECT_CHUNK).min(events.len());
            sim.inject_batch(&events[next..end]);
            next = end;
        } else if pick == options - 2 {
            sim.split_shard(target); // None = deferred; keep exploring
        } else {
            sim.retire_shard(target); // false = deferred; keep exploring
        }
    }
    verify(t, &mut sim)
}

#[test]
fn rescale_random_schedules() {
    // Group-aligned traffic with cross-group merges: splits and retires
    // race cluster merges, cross-shard wakes, and mid-stream rebalances.
    let t = PlantedClusters {
        procs: 8,
        groups: 4,
        messages: 48,
        p_intra: 0.7,
    }
    .generate(29);
    for shards in [2, 3] {
        check_schedules_with(run_rescale_schedule, &t, shards, 10);
    }
}

#[test]
fn rescale_stencil_random_schedules() {
    // Neighbor-exchange SPMD under live splits/retires: every process
    // talks across a shard boundary somewhere, so relayouts constantly
    // interleave with cross-shard clock traffic.
    let t = Stencil1D { procs: 6, iters: 4 }.generate(3);
    for shards in [2, 3] {
        check_schedules_with(run_rescale_schedule, &t, shards, 8);
    }
}

#[test]
fn split_then_retire_mid_stream() {
    // Deterministic shrink-then-grow: deliver a third of the trace on 2
    // shards, split shard 0, deliver another third on 3, retire the new
    // shard again, and finish on 2. The final cut must still match the
    // oracle exactly — growth and shrink are both exercised mid-stream.
    let t = PlantedClusters {
        procs: 6,
        groups: 3,
        messages: 42,
        p_intra: 0.85,
    }
    .generate(31);
    let arrivals = relinearize(&t, 13);
    let events = arrivals.events();
    let mut sim = SimShards::new("split-retire", t.num_processes(), 2, 4);
    let thirds = [events.len() / 3, 2 * events.len() / 3, events.len()];
    let mut from = 0;
    for (phase, &cut) in thirds.iter().enumerate() {
        sim.inject_batch(&events[from..cut]);
        sim.run_to_quiescence(&mut ShardSchedule::round_robin());
        from = cut;
        match phase {
            0 => {
                let to = sim.split_shard(0).expect("quiescent multi-cluster split");
                assert!(sim.is_active(to), "split must activate the new slot");
            }
            1 => {
                // Retire the slot the split created (index 2).
                assert!(sim.retire_shard(2), "quiescent retire must succeed");
                assert!(!sim.is_active(2), "retired slot must deactivate");
            }
            _ => {}
        }
    }
    verify(&t, &mut sim).unwrap();
}

#[test]
fn duplicate_storms_under_random_schedules() {
    // Every event arrives twice (injected in two full passes with different
    // arrival orders); shards must drop the duplicates no matter which
    // shard is stepped when, including across rebalances.
    let t = PlantedClusters {
        procs: 6,
        groups: 3,
        messages: 36,
        p_intra: 0.6,
    }
    .generate(23);
    for seed in 0..6u64 {
        let first = relinearize(&t, seed);
        let second = relinearize(&t, seed + 100);
        let mut sim = SimShards::new("dup", t.num_processes(), 3, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let choices: Vec<u32> = (0..8 * t.num_events()).map(|_| rng.next_u32()).collect();
        let mut sched = ShardSchedule::new(choices);
        let mut feeds = [first.events().iter(), second.events().iter()];
        let mut exhausted = 0;
        while exhausted < feeds.len() || !sim.runnable().is_empty() {
            let runnable = sim.runnable();
            let options = runnable.len() + (feeds.len() - exhausted);
            let pick = sched.choose(options);
            if pick < runnable.len() {
                sim.step(runnable[pick]);
            } else {
                let idx = exhausted + (pick - runnable.len());
                match feeds[idx].next() {
                    Some(&ev) => sim.inject(ev),
                    None => {
                        // Swap the dry feed out of the option window.
                        feeds.swap(exhausted, idx);
                        exhausted += 1;
                    }
                }
            }
        }
        assert_eq!(
            sim.duplicates(),
            t.num_events() as u64,
            "seed {seed}: every event should be dropped exactly once as a duplicate"
        );
        verify(&t, &mut sim).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
