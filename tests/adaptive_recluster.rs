//! Online adaptive re-clustering: exactness under migration (PR 9).
//!
//! The correctness bar is a *differential oracle*: after any migration
//! schedule, precedence answers must match the causal oracle, and a
//! single-worker daemon's stamps must be **bit-identical** to the offline
//! [`AdaptiveEngine`] re-run over the same delivered prefix — the daemon
//! migrates online, with no stop-the-world freeze barrier, yet nothing it
//! publishes can be distinguished from a fresh offline clustering.
//!
//! The harness mirrors `tests/shard_schedules.rs`: random schedules over
//! the simulated shard cores with the adaptive strategy, shrinking any
//! failing choice vector to a minimal reproducer before panicking. On
//! failure the minimal schedule is also written to a file (under
//! `$CTS_ARTIFACT_DIR`, or the temp dir) so CI can collect it as an
//! artifact.

use cluster_timestamps::prelude::*;
use cts_core::cluster::{AdaptiveEngine, AdaptiveParams};
use cts_daemon::pipeline::{Computation, ComputationConfig, DurabilityConfig};
use cts_daemon::shard::StampStrategy;
use cts_daemon::{Client, Daemon, DaemonConfig, ShardSchedule, SimShards};
use cts_model::linearize::relinearize;
use cts_util::prng::{ChaCha8Rng, Rng};
use cts_workloads::drift::PhaseShiftStencil;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One message `from → to` (send + matching receive).
fn msg(b: &mut TraceBuilder, from: ProcessId, to: ProcessId) {
    let tok = b.send(from, to).unwrap();
    b.receive(to, tok).unwrap();
}

/// Aggressive drift parameters for small test traces: half-weight EWMA,
/// migrate on the second blocked CR from one cluster, short cooldown. The
/// defaults (`AdaptiveParams::new`) are tuned for the full-size soak
/// fixtures; these make every planted phase change bite within a few
/// events so the tests exercise migrations densely.
fn tuned(max_cluster_size: usize) -> AdaptiveParams {
    AdaptiveParams {
        max_cluster_size,
        merge_threshold: 0.5,
        migrate_after: 2,
        drift_threshold_q16: (1 << 16) / 4,
        ewma_shift: 1,
        cooldown: 4,
    }
}

/// Small planted-drift trace: 8 processes in blocks of 4, ring traffic
/// re-blocked (offset by 2) at each of 3 phases. 288 events.
fn drift_trace() -> Trace {
    PhaseShiftStencil {
        procs: 8,
        phases: 3,
        iters_per_phase: 4,
        block: 4,
    }
    .generate(1)
}

/// All-pairs (every second event, as in shard_schedules) precedence check
/// of `cts` against the causal oracle.
fn assert_precedence_exact(t: &Trace, view: &Trace, cts: &ClusterTimestamps) -> Result<(), String> {
    let oracle = Oracle::compute(t);
    let ids: Vec<EventId> = t.all_event_ids().step_by(2).collect();
    for &e in &ids {
        for &f in &ids {
            if cts.precedes(view, e, f) != oracle.happened_before(t, e, f) {
                return Err(format!("precedence {e} -> {f} wrong"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- offline

/// Offline adaptive engine on planted drift: the detector must fire, and
/// every answer must still match the causal oracle. This is the ground
/// truth the online paths are compared against, so it gets the strictest
/// check first.
#[test]
fn offline_adaptive_migrates_and_matches_oracle() {
    let t = drift_trace();
    let eng = {
        let mut e = AdaptiveEngine::new(t.num_processes(), tuned(6));
        for &ev in t.events() {
            e.accept(ev);
        }
        e
    };
    assert!(
        eng.num_migrations() >= 1,
        "planted drift did not provoke a single migration"
    );
    assert!(eng.num_merges() >= 1, "no merges before the migrations");
    let cts = eng.finish();
    assert_precedence_exact(&t, &t, &cts).unwrap();
}

/// A migration whose trigger is one half of a *sync pair*: P1's half of
/// sync(1,2) is the blocked cluster receive that moves P1 from {0,1} into
/// {2,3}, and P2's half then delivers against the post-migration
/// membership. Both halves, the pending-marker fallout on P0, and all
/// surrounding events must answer precedence exactly.
#[test]
fn migration_mid_sync_pair_stays_exact() {
    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let p2 = ProcessId(2);
    let p3 = ProcessId(3);
    // High merge threshold: the repeated sync pair between P1 and {2,3}
    // must keep *failing* the merge rule (both halves feed the same pair
    // count) so the drift path — not a merge — resolves the affinity.
    let params = AdaptiveParams {
        merge_threshold: 0.9,
        ..tuned(6)
    };
    let mut b = TraceBuilder::new(4);
    // Form cluster {0,1}: merge fires on the second CR of the pair.
    msg(&mut b, p0, p1);
    msg(&mut b, p0, p1);
    // Form cluster {2,3}.
    msg(&mut b, p2, p3);
    msg(&mut b, p2, p3);
    // P1 drifts toward {2,3}: first sync is a blocked CR for both halves
    // (count 1/4 under the merge rule), the second sync's P1 half is the
    // second blocked CR from {2,3} → P1 migrates there, mid-pair.
    b.sync(p1, p2).unwrap();
    let (half_p1, half_p2) = b.sync(p1, p2).unwrap();
    // Post-migration traffic: P0 (marked pending by P1's departure) sends,
    // P1 receives intra-cluster from its new cluster, P3 crosses to P0.
    msg(&mut b, p0, p1);
    msg(&mut b, p2, p1);
    msg(&mut b, p3, p0);
    let t = b.finish("migration-mid-sync");

    let mut eng = AdaptiveEngine::new(4, params);
    let mut migrated_at_sync_half = false;
    for &ev in t.events() {
        let before = eng.num_migrations();
        eng.accept(ev);
        if eng.num_migrations() > before && ev.id == half_p1 {
            migrated_at_sync_half = true;
        }
    }
    assert!(
        migrated_at_sync_half,
        "the migration trigger must be P1's sync half (got {} migrations)",
        eng.num_migrations()
    );
    let cts = eng.finish();
    // The trigger half is the migration anchor: rule 1 records it Full.
    assert!(
        cts.stamp(&t, half_p1).is_cluster_receive(),
        "migration anchor must carry a full stamp"
    );
    let _ = half_p2;
    assert_precedence_exact(&t, &t, &cts).unwrap();
}

// ------------------------------------------- sharded schedule exploration

const INJECT_CHUNK: usize = 5;

/// Run one complete schedule on the simulated shard cores under the
/// adaptive strategy; returns the migration count on success.
fn run_schedule(
    t: &Trace,
    shards: usize,
    arrival_seed: u64,
    choices: &[u32],
) -> Result<u64, String> {
    let arrivals = relinearize(t, arrival_seed);
    let events = arrivals.events();
    let mut sim = SimShards::with_strategy("adaptive-sched", t.num_processes(), shards, {
        StampStrategy::Adaptive(tuned(6))
    });
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
    let (view, cts) = sim.cut();
    if view.num_events() != t.num_events() {
        return Err(format!(
            "cut assembled {} of {} events",
            view.num_events(),
            t.num_events()
        ));
    }
    assert_precedence_exact(t, &view, &cts)?;
    for p in (0..t.num_processes()).map(ProcessId) {
        let row =
            |tr: &Trace| -> Vec<Event> { tr.process_events(p).map(|id| tr.event(id)).collect() };
        if row(&view) != row(t) {
            return Err(format!("cut row of {p} diverges from the trace"));
        }
    }
    Ok(sim.world().num_migrations)
}

/// Where failure artifacts go: `$CTS_ARTIFACT_DIR` if set (the CI `adapt`
/// stage points it at its workdir), else the temp dir.
fn artifact_dir() -> PathBuf {
    std::env::var_os("CTS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// Persist a minimal failing schedule so CI collects it as an artifact.
/// The format replays by hand: one header line, then the choice vector.
fn write_schedule_artifact(
    trace_name: &str,
    shards: usize,
    arrival_seed: u64,
    choices: &[u32],
    err: &str,
) -> PathBuf {
    let slug: String = trace_name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = artifact_dir().join(format!(
        "minimal-schedule-{slug}-s{shards}-a{arrival_seed}.txt"
    ));
    let body = format!(
        "# minimal failing schedule\ntrace {trace_name}\nshards {shards}\narrival_seed {arrival_seed}\nerror {err}\nchoices {}\n",
        choices
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = std::fs::create_dir_all(artifact_dir());
    let _ = std::fs::write(&path, body);
    path
}

/// Shrink a failing choice vector against an arbitrary failure predicate:
/// prefix halving (any prefix is a complete schedule — the round-robin
/// tail finishes it), then trailing pops, then zeroing. Returns the
/// minimal vector and its error.
fn shrink<F>(fails: F, mut best: Vec<u32>, mut best_err: String) -> (Vec<u32>, String)
where
    F: Fn(&[u32]) -> Result<(), String>,
{
    loop {
        let half = best.len() / 2;
        match fails(&best[..half]) {
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
    while !best.is_empty() {
        match fails(&best[..best.len() - 1]) {
            Err(e) => {
                best.pop();
                best_err = e;
            }
            Ok(()) => break,
        }
    }
    for i in 0..best.len() {
        if best[i] == 0 {
            continue;
        }
        let saved = best[i];
        best[i] = 0;
        match fails(&best) {
            Err(e) => best_err = e,
            Ok(()) => best[i] = saved,
        }
    }
    (best, best_err)
}

fn shrink_and_panic(
    t: &Trace,
    shards: usize,
    arrival_seed: u64,
    choices: Vec<u32>,
    err: String,
) -> ! {
    let (best, best_err) = shrink(
        |c| run_schedule(t, shards, arrival_seed, c).map(|_| ()),
        choices,
        err,
    );
    let path = write_schedule_artifact(t.name(), shards, arrival_seed, &best, &best_err);
    panic!(
        "{}: shards={shards} arrival_seed={arrival_seed} minimal schedule \
         {best:?} (saved to {}): {best_err}",
        t.name(),
        path.display()
    );
}

/// Random adaptive schedules over the planted-drift trace: every
/// interleaving of shard stepping, injection, and the resulting migration
/// schedule must answer precedence exactly — and across the seeds the
/// detector must actually fire (a sim that never migrates is not testing
/// migration).
#[test]
fn adaptive_random_schedules_match_oracle() {
    let t = drift_trace();
    let mut total_migrations = 0;
    for shards in [2usize, 3] {
        for seed in 0..6u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed * 7919 + shards as u64);
            let choices: Vec<u32> = (0..4 * t.num_events()).map(|_| rng.next_u32()).collect();
            match run_schedule(&t, shards, seed, &choices) {
                Ok(m) => total_migrations += m,
                Err(e) => shrink_and_panic(&t, shards, seed, choices, e),
            }
        }
    }
    assert!(
        total_migrations >= 1,
        "no schedule provoked a migration — the harness is vacuous"
    );
}

/// Exhaustive enumeration over bounded choice vectors for a tiny drifting
/// trace: every base-3 schedule prefix of length 6 (729 schedules), each
/// completed round-robin, under the adaptive strategy.
#[test]
fn tiny_exhaustive_adaptive_schedules() {
    let t = PhaseShiftStencil {
        procs: 4,
        phases: 2,
        iters_per_phase: 3,
        block: 2,
    }
    .generate(1);
    const LEN: usize = 6;
    const BASE: u64 = 3;
    for code in 0..BASE.pow(LEN as u32) {
        let mut c = code;
        let mut choices = Vec::with_capacity(LEN);
        for _ in 0..LEN {
            choices.push((c % BASE) as u32);
            c /= BASE;
        }
        if let Err(e) = run_schedule(&t, 2, 17, &choices) {
            shrink_and_panic(&t, 2, 17, choices, e);
        }
    }
}

/// The shrinking reporter itself: fed a synthetic failure predicate with a
/// known minimal form ("contains a choice ≥ 5"), the shrinker must reduce
/// any failing vector to exactly one surviving element, and the artifact
/// file must round-trip the schedule.
#[test]
fn shrinker_emits_minimal_schedule_artifact() {
    let fails = |c: &[u32]| -> Result<(), String> {
        if c.iter().any(|&x| x >= 5) {
            Err("synthetic failure".into())
        } else {
            Ok(())
        }
    };
    let noisy: Vec<u32> = vec![0, 3, 9, 1, 7, 0, 2, 5, 5, 8, 1];
    let (minimal, err) = shrink(fails, noisy, "synthetic failure".into());
    // Shrinking is prefix-preserving (a schedule's choices are positional),
    // so the canonical minimal form is all-zeros up to one surviving
    // failing tail choice: the tail cannot be popped, the rest cannot be
    // anything but zero.
    assert!(fails(&minimal).is_err());
    let (zeros, tail) = minimal.split_at(minimal.len() - 1);
    assert!(tail[0] >= 5, "the surviving tail choice must still fail");
    assert!(
        zeros.iter().all(|&c| c == 0),
        "prefix not canonical: {minimal:?}"
    );
    assert!(
        fails(&minimal[..minimal.len() - 1]).is_ok(),
        "dropping the tail must make it pass: {minimal:?}"
    );

    let path = write_schedule_artifact("unit/shrinker", 2, 42, &minimal, &err);
    let body = std::fs::read_to_string(&path).expect("artifact written");
    assert!(body.contains("shards 2"), "artifact: {body}");
    assert!(body.contains("arrival_seed 42"));
    let line = body
        .lines()
        .find(|l| l.starts_with("choices "))
        .expect("choices line");
    let parsed: Vec<u32> = line["choices ".len()..]
        .split_whitespace()
        .map(|w| w.parse().unwrap())
        .collect();
    assert_eq!(parsed, minimal, "artifact must round-trip the schedule");
    let _ = std::fs::remove_file(path);
}

// ----------------------------------------------------- daemon (pipeline)

fn adaptive_config(name: &str, n: u32, epoch_every: u64) -> ComputationConfig {
    ComputationConfig {
        name: name.to_string(),
        num_processes: n,
        max_cluster_size: 6,
        strategy: StampStrategy::Adaptive(tuned(6)),
        queue_capacity: 8,
        epoch_every,
        shards: 1,
        auto_scale: false,
        balance: false,
        pin_cores: false,
        placement: None,
        durability: None,
        query_cache_capacity: 0,
        retain_epochs: 0,
        retain_bytes: 0,
    }
}

/// A single-worker adaptive daemon's published stamps are bit-identical to
/// the offline [`AdaptiveEngine`] run over the same delivered prefix — the
/// oracle statement from DESIGN.md Appendix H, verbatim.
#[test]
fn single_worker_stamps_bit_identical_to_offline() {
    let t = drift_trace();
    let comp = Computation::spawn(adaptive_config("bitident", t.num_processes(), 64));
    for chunk in relinearize(&t, 9).events().chunks(23) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(t.num_events() as u64, Duration::from_secs(30))
        .unwrap();
    let snap = comp.snapshot();
    assert_eq!(snap.delivered, t.num_events() as u64);
    let migrations = comp.metrics().drift_migrations.load(Ordering::Relaxed);
    assert!(
        migrations >= 1,
        "the online run must have migrated (got {migrations})"
    );

    // Fresh offline clustering of the delivered prefix, in its delivery
    // order: stamps must match *bit for bit* (same enum arms, same version
    // ids, same clocks), not merely answer the same queries.
    let offline = AdaptiveEngine::run(&snap.trace, tuned(6));
    assert_eq!(
        snap.cts.num_merges(),
        offline.num_merges(),
        "merge schedule diverged"
    );
    assert_eq!(snap.cts.stamps().len(), offline.stamps().len());
    for (pos, (got, want)) in snap.cts.stamps().iter().zip(offline.stamps()).enumerate() {
        assert_eq!(got, want, "stamp diverged at delivery position {pos}");
    }
    assert_precedence_exact(&t, &snap.trace, &snap.cts).unwrap();
    comp.shutdown();
}

/// Migrations land *across epoch publishes*: with a small epoch cadence,
/// retained historical epochs straddle the migration schedule, and every
/// retained epoch must itself be bit-identical to an offline re-run of
/// exactly that prefix (time-travel answers never see a half-migrated
/// state).
#[test]
fn migrations_across_epoch_publish_stay_exact() {
    let t = drift_trace();
    let mut cfg = adaptive_config("epochs", t.num_processes(), 32);
    cfg.retain_epochs = 16;
    let comp = Computation::spawn(cfg);
    for chunk in t.events().chunks(31) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(t.num_events() as u64, Duration::from_secs(30))
        .unwrap();
    assert!(comp.metrics().drift_migrations.load(Ordering::Relaxed) >= 1);

    let epochs = comp.retainer().list();
    assert!(
        epochs.len() >= 3,
        "need several retained epochs to straddle migrations (got {})",
        epochs.len()
    );
    let mut migration_counts = Vec::new();
    for info in &epochs {
        let snap = comp.retainer().get(info.epoch).expect("retained");
        let mut eng = AdaptiveEngine::new(snap.trace.num_processes(), tuned(6));
        for &ev in snap.trace.events() {
            eng.accept(ev);
        }
        migration_counts.push(eng.num_migrations());
        let offline = eng.finish();
        for (pos, (got, want)) in snap.cts.stamps().iter().zip(offline.stamps()).enumerate() {
            assert_eq!(
                got, want,
                "epoch {}: stamp diverged at delivery position {pos}",
                info.epoch
            );
        }
    }
    assert!(
        migration_counts.first() < migration_counts.last(),
        "migrations must land between retained epochs, got {migration_counts:?}"
    );
    comp.shutdown();
}

/// Crash-stop (`kill()`: workers die without the final sync — the
/// in-process SIGKILL) and recovery: replaying the WAL through the
/// adaptive engine must land in the *same* migration schedule, and after
/// re-streaming the rest the stamps are bit-identical to offline again.
#[test]
fn kill_recover_replays_migration_schedule() {
    let t = drift_trace();
    let dir = std::env::temp_dir().join("cts-adaptive-tests/kill-recover");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = adaptive_config("killrec", t.num_processes(), 64);
    cfg.durability = Some(DurabilityConfig {
        dir: dir.clone(),
        sync_window: Duration::ZERO,
        checkpoint_every: 0,
        wal_byte_budget: None,
    });

    let (comp, _) = Computation::spawn_durable(cfg.clone()).expect("spawn");
    let half = t.num_events() / 2;
    for chunk in t.events()[..half].chunks(19) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(half as u64, Duration::from_secs(30)).unwrap();
    let migrations_before = comp.metrics().drift_migrations.load(Ordering::Relaxed);
    assert!(
        migrations_before >= 1,
        "the first half must already migrate for the replay to be interesting"
    );
    comp.kill();

    let (comp, report) = Computation::spawn_durable(cfg).expect("respawn");
    assert_eq!(
        report.checkpoint_events + report.wal_events,
        half as u64,
        "WAL replay short"
    );
    assert_eq!(
        comp.metrics().drift_migrations.load(Ordering::Relaxed),
        migrations_before,
        "recovery replayed a different migration schedule"
    );
    // Re-stream everything; duplicates are dropped, the tail is delivered.
    for chunk in t.events().chunks(19) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(t.num_events() as u64, Duration::from_secs(30))
        .unwrap();
    let snap = comp.snapshot();
    let offline = AdaptiveEngine::run(&snap.trace, tuned(6));
    assert_eq!(snap.cts.stamps().len(), offline.stamps().len());
    for (pos, (got, want)) in snap.cts.stamps().iter().zip(offline.stamps()).enumerate() {
        assert_eq!(got, want, "stamp diverged at delivery position {pos}");
    }
    assert_precedence_exact(&t, &snap.trace, &snap.cts).unwrap();
    comp.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower daemon replays the leader's WAL through its own adaptive
/// engine: same delivery order + deterministic drift decisions ⇒ the
/// follower converges to the identical partition, merge count, and
/// migration count, and its cluster map matches the leader's field for
/// field.
#[test]
fn follower_replays_leader_migration_stream() {
    let t = drift_trace();
    let dir = std::env::temp_dir().join("cts-adaptive-tests/follower-leader");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let leader = Daemon::start(DaemonConfig {
        data_dir: Some(dir.clone()),
        sync_window: Duration::ZERO,
        adaptive: Some(tuned(6)),
        ..DaemonConfig::default()
    })
    .expect("leader");
    let follower = Daemon::start(DaemonConfig {
        follow: Some(leader.local_addr()),
        sync_window: Duration::ZERO,
        adaptive: Some(tuned(6)),
        ..DaemonConfig::default()
    })
    .expect("follower");

    let mut c = Client::connect(leader.local_addr()).expect("connect");
    c.proto_hello().expect("negotiate");
    c.hello("drift", t.num_processes(), 6).expect("hello");
    c.stream_events(t.events(), 64).expect("stream");
    c.flush(t.num_events() as u64).expect("flush");
    let leader_map = c.cluster_map().expect("leader cluster map");
    let _ = c.goodbye();
    assert!(
        leader_map.migrations >= 1,
        "leader never migrated — nothing to replicate"
    );

    // Poll the follower until its replica covers the whole prefix.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let follower_map = loop {
        let attempt = Client::connect(follower.local_addr()).and_then(|mut f| {
            f.proto_hello()?;
            f.hello("drift", t.num_processes(), 6)?;
            f.cluster_map()
        });
        match attempt {
            Ok(map) if map.delivered == t.num_events() as u64 => break map,
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "follower did not converge in time"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(
        follower_map.partition, leader_map.partition,
        "partitions diverged"
    );
    assert_eq!(
        follower_map.merges, leader_map.merges,
        "merge counts diverged"
    );
    assert_eq!(
        follower_map.migrations, leader_map.migrations,
        "migration counts diverged"
    );
    assert_eq!(
        follower_map.cluster_receives, leader_map.cluster_receives,
        "cluster-receive counts diverged"
    );
    follower.shutdown();
    leader.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
