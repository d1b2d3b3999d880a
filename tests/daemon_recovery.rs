//! Crash-recovery integration tests: the durable daemon must come back
//! from any crash point with a state that is a *valid delivered prefix*,
//! and re-streaming the suite after recovery must leave answers
//! byte-identical to the offline batch engine (delivery-order invariance
//! extends across restarts).
//!
//! Crashes are injected deterministically, not with signals: either the
//! in-process crash-stop (`kill()` — workers exit without the final WAL
//! sync/checkpoint, queued batches discarded) or the `FailpointFs` byte
//! budget (a torn write mid-record, then hard I/O errors — the on-disk
//! state a power cut leaves). Corruption tests then bit-flip and truncate
//! WAL tails directly and assert clean truncate-and-recover, never a panic.

use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_daemon::checkpoint;
use cts_daemon::loadgen::{self, LoadConfig};
use cts_daemon::pipeline::{Computation, ComputationConfig, DurabilityConfig};
use cts_daemon::server::DaemonConfig;
use cts_daemon::shard::StampStrategy;
use cts_daemon::wal;
use cts_model::Trace;
use cts_workloads::suite::mini_suite;
use cts_workloads::{spmd::Stencil1D, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cts-recovery-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(name: &str, n: u32, dir: &Path, budget: Option<u64>) -> ComputationConfig {
    ComputationConfig {
        name: name.to_string(),
        num_processes: n,
        max_cluster_size: 4,
        strategy: StampStrategy::Merge1st {
            max_cluster_size: 4,
        },
        queue_capacity: 8,
        epoch_every: 64,
        shards: 1,
        auto_scale: false,
        balance: false,
        pin_cores: false,
        placement: None,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            // Sync every batch: the crash point is then exactly a batch
            // boundary (or mid-record under a failpoint), deterministically.
            sync_window: Duration::ZERO,
            checkpoint_every: 0,
            wal_byte_budget: budget,
        }),
        query_cache_capacity: 0,
        retain_epochs: 0,
        retain_bytes: 0,
    }
}

/// Assert the computation's published snapshot answers precedence exactly
/// like an offline batch run over `trace` (all pairs).
fn assert_matches_offline(comp: &Computation, trace: &Trace) {
    let snap = comp.snapshot();
    assert_eq!(snap.trace.num_events(), trace.num_events());
    let offline = ClusterEngine::run(trace, MergeOnFirst::new(4));
    for e in trace.all_event_ids() {
        for f in trace.all_event_ids() {
            assert_eq!(
                snap.cts.precedes(&snap.trace, e, f),
                offline.precedes(trace, e, f),
                "{e} -> {f} diverged after recovery"
            );
        }
    }
}

#[test]
fn crash_mid_suite_recovery_has_zero_mismatches() {
    // The headline guarantee, over the whole mini suite through real TCP:
    // partial stream → crash-stop → restart → recover → re-stream full
    // suite → the standard differential check reports zero mismatches.
    // checkpoint_every is tiny so checkpoints *and* WAL rotation happen
    // mid-run, and recovery stitches checkpoint + WAL tail.
    let dir = tmpdir("crash-mid-suite");
    let suite = mini_suite();
    let total: u64 = suite.iter().map(|e| e.trace.num_events() as u64).sum();
    let cfg = LoadConfig {
        connections: 4,
        seed: 7,
        precedence_queries: 40,
        gc_probes: 2,
        ..LoadConfig::default()
    };
    let daemon_cfg = DaemonConfig {
        data_dir: Some(dir.clone()),
        sync_window: Duration::ZERO,
        checkpoint_every: 64,
        ..DaemonConfig::default()
    };
    let report = loadgen::run_crash_replay(&suite, &cfg, daemon_cfg, total / 2, true)
        .expect("crash replay")
        .expect("restart requested");
    assert_eq!(report.computations, suite.len());
    assert_eq!(report.total_events, total);
    assert_eq!(
        report.mismatches, 0,
        "recovered daemon diverged from the offline engine"
    );
}

#[test]
fn sharded_crash_mid_suite_recovery_has_zero_mismatches() {
    // The same headline guarantee with four ingest shards per computation:
    // partial stream → crash-stop → restart (recovering the union of the
    // per-shard WALs) → re-stream → zero differential mismatches.
    let dir = tmpdir("sharded-crash-mid-suite");
    let suite = mini_suite();
    let total: u64 = suite.iter().map(|e| e.trace.num_events() as u64).sum();
    let cfg = LoadConfig {
        connections: 4,
        seed: 11,
        precedence_queries: 40,
        gc_probes: 2,
        ..LoadConfig::default()
    };
    let daemon_cfg = DaemonConfig {
        data_dir: Some(dir.clone()),
        sync_window: Duration::ZERO,
        checkpoint_every: 64,
        shards: 4,
        ..DaemonConfig::default()
    };
    let report = loadgen::run_crash_replay(&suite, &cfg, daemon_cfg, total / 2, true)
        .expect("crash replay")
        .expect("restart requested");
    assert_eq!(report.computations, suite.len());
    assert_eq!(report.total_events, total);
    assert_eq!(
        report.mismatches, 0,
        "recovered sharded daemon diverged from the offline engine"
    );
}

#[test]
fn sharded_torn_shard_tail_with_one_shard_ahead() {
    // Crash-stop a 4-shard durable computation, then tear ONE shard's WAL
    // tail mid-record: that shard restarts behind its peers, so some
    // surviving events on other shards depend on events that no longer
    // exist anywhere on disk. Those orphans were never acknowledged (a
    // flush syncs every shard before acking), so recovery parks them,
    // replays the rest, and the client's re-stream restores exactness.
    let dir = tmpdir("sharded-torn-tail");
    let trace = Stencil1D { procs: 8, iters: 5 }.generate(19);
    let n = trace.num_processes();
    let mut cfg = durable_config("sharded-torn", n, &dir, None);
    cfg.shards = 4;

    let (comp, report) = Computation::spawn_durable(cfg.clone()).expect("spawn");
    assert_eq!(comp.num_shards(), 4);
    assert_eq!(report.total_events(), 0);
    for chunk in trace.events().chunks(17) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.kill();

    // Every shard has its own segment directory; chop one mid-record.
    let shard_dirs: Vec<PathBuf> = (0..4).map(|s| dir.join(format!("shard-{s:02}"))).collect();
    let victim_segs = wal::list_segments(&shard_dirs[1]).unwrap();
    let (_, victim) = victim_segs.first().expect("shard 1 wrote a segment");
    let len = std::fs::metadata(victim).unwrap().len();
    assert!(len > 40, "victim segment too small to tear meaningfully");
    std::fs::File::options()
        .write(true)
        .open(victim)
        .unwrap()
        .set_len(len - 9)
        .unwrap();

    let (comp, report) = Computation::spawn_durable(cfg).expect("respawn");
    assert!(report.torn_tail.is_some(), "tear not reported");
    assert!(report.torn_bytes_truncated > 0);
    assert!(
        report.total_events() < trace.num_events() as u64,
        "the torn shard must have lost events"
    );
    assert!(report.total_events() > 0, "intact shards must replay");

    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush after recovery");
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn sharded_recovery_is_quiescent_when_spawn_returns() {
    // A guard on the sharded runtime's quiescence accounting, not a
    // reproducer: `spawn_durable` returns once `pending_msgs` has drained,
    // and that must mean the whole recovered prefix is delivered *and*
    // counted — `flush(0, …)` waits for nothing, so it reports whatever
    // `progress.delivered` holds at that instant.
    for seed in [3u64, 17, 29, 41, 53] {
        let dir = tmpdir(&format!("sharded-quiescent-{seed}"));
        let trace = Stencil1D {
            procs: 8,
            iters: 12,
        }
        .generate(seed);
        let total = trace.num_events() as u64;
        let mut cfg = durable_config("quiescent", trace.num_processes(), &dir, None);
        cfg.shards = 2;

        let (comp, _) = Computation::spawn_durable(cfg.clone()).expect("spawn");
        for chunk in trace.events().chunks(23) {
            comp.enqueue_events(chunk.to_vec()).unwrap();
        }
        comp.flush(total, Duration::from_secs(30)).expect("flush");
        comp.kill();

        let (comp, report) = Computation::spawn_durable(cfg).expect("respawn");
        assert_eq!(report.total_events(), total, "seed {seed}");
        let (_, delivered) = comp.flush(0, Duration::ZERO).expect("flush(0)");
        assert_eq!(
            delivered, total,
            "seed {seed}: recovery returned with replay still outstanding"
        );
        comp.shutdown();
    }
}

#[test]
fn sharded_graceful_shutdown_restarts_from_global_checkpoint() {
    // Graceful sharded shutdown writes a final *global* checkpoint of the
    // assembled cut; a restart must serve exact answers with no re-stream.
    let dir = tmpdir("sharded-graceful");
    let trace = Stencil1D { procs: 8, iters: 4 }.generate(37);
    let n = trace.num_processes();
    let mut cfg = durable_config("sharded-graceful", n, &dir, None);
    cfg.shards = 4;
    cfg.durability.as_mut().unwrap().checkpoint_every = 50;

    let (comp, _) = Computation::spawn_durable(cfg.clone()).expect("spawn");
    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.shutdown();

    let ckpt = checkpoint::load_latest_checkpoint(&dir)
        .unwrap()
        .expect("final global checkpoint written");
    assert_eq!(ckpt.delivered, trace.num_events() as u64);

    let (comp, report) = Computation::spawn_durable(cfg).expect("respawn");
    assert_eq!(report.total_events(), trace.num_events() as u64);
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn single_worker_layout_recovers_under_sharded_restart() {
    // Upgrade path: a computation runs durably in single-worker mode
    // (top-level WAL segments), crashes, and restarts with --shards 4. The
    // sharded bootstrap must recover the legacy layout, re-shard it, and
    // converge to exactness after a re-stream.
    let dir = tmpdir("legacy-to-sharded");
    let trace = Stencil1D { procs: 8, iters: 4 }.generate(43);
    let n = trace.num_processes();

    let (comp, _) =
        Computation::spawn_durable(durable_config("upgrade", n, &dir, None)).expect("spawn");
    assert_eq!(comp.num_shards(), 1);
    for chunk in trace.events().chunks(13) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.kill();

    let mut cfg = durable_config("upgrade", n, &dir, None);
    cfg.shards = 4;
    let (comp, report) = Computation::spawn_durable(cfg).expect("respawn sharded");
    assert_eq!(comp.num_shards(), 4);
    assert_eq!(report.total_events(), trace.num_events() as u64);
    // Legacy top-level segments are retired once the global checkpoint
    // covers them (re-sharding rewrites durability in the new layout).
    assert!(wal::list_segments(&dir).unwrap().is_empty());
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn crash_during_autoscale_relayout_recovers_exactly() {
    // Crash-stop an autoscaling durable computation the moment a live
    // split re-lays-out the planted hot trace: the crash lands with a
    // freshly-activated slot whose WAL dir only just started filling, and
    // with migrated clusters whose events are spread across the source and
    // destination shard WALs. Recovery must union every shard dir
    // (including slots the autoscaler activated mid-stream), replay a
    // valid delivered prefix, and converge to exactness after a re-stream.
    let dir = tmpdir("autoscale-crash");
    let trace = cts_workloads::drift::hot_group_trace(6, 4, 8, 24);
    let n = trace.num_processes();
    let mut cfg = durable_config("autoscale-crash", n, &dir, None);
    cfg.shards = 2;
    cfg.auto_scale = true;

    let (comp, _) = Computation::spawn_durable(cfg).expect("spawn");
    assert_eq!(
        comp.num_shards(),
        2,
        "autoscale starts at the requested count"
    );
    // Small chunks: the placement engine paces itself in shard *messages*,
    // so the plant must arrive as enough messages to warm the occupancy
    // EWMAs and clear the decision cooldown while streaming.
    let mut killed_mid_relayout = false;
    for chunk in trace.events().chunks(16) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
        if comp.num_shards() > 2 {
            // A split just happened; crash right on top of the re-layout.
            comp.kill();
            killed_mid_relayout = true;
            break;
        }
    }
    if !killed_mid_relayout {
        // Slow path (single-core CI scheduling): finish the stream — the
        // hot plant must force at least one split by quiescence — then
        // crash-stop without the final sync/checkpoint.
        comp.flush(trace.num_events() as u64, Duration::from_secs(30))
            .expect("flush");
        assert!(
            comp.num_shards() > 2,
            "the planted hot shard never split (shards={})",
            comp.num_shards()
        );
        comp.kill();
    }

    let mut cfg = durable_config("autoscale-crash", n, &dir, None);
    cfg.shards = 2;
    cfg.auto_scale = true;
    let (comp, report) = Computation::spawn_durable(cfg).expect("respawn");
    assert!(
        report.total_events() <= trace.num_events() as u64,
        "recovery replayed more events than exist"
    );
    // Differential re-verify: re-stream the full trace (acknowledged
    // events dedup) and compare every precedence pair against the offline
    // engine.
    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(60))
        .expect("flush after recovery");
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn failpoint_torn_write_truncates_and_recovers() {
    // A simulated power cut mid-`write(2)`: the WAL's byte budget tears a
    // record. Recovery must cut the torn tail, replay the surviving valid
    // prefix, and re-streaming must converge to exactness.
    let dir = tmpdir("failpoint-torn");
    let trace = Stencil1D { procs: 6, iters: 5 }.generate(23);
    let n = trace.num_processes();

    // Enough budget for the header and a few records, then the crash.
    // (Calibrated to the delta-encoded v2 record size: the whole trace
    // fits in well under 900 bytes now.)
    let (comp, report) =
        Computation::spawn_durable(durable_config("torn", n, &dir, Some(300))).expect("spawn");
    assert_eq!(report.total_events(), 0);
    for chunk in trace.events().chunks(17) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.kill();

    // The segment on disk must actually be torn (the budget tripped).
    let (_, seg) = wal::list_segments(&dir)
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let scan = wal::scan_segment(&seg).unwrap();
    assert!(scan.torn.is_some(), "failpoint did not tear the WAL");
    let survived = scan.num_events();
    assert!(survived > 0 && survived < trace.num_events());

    // Restart without the failpoint: a strict prefix is recovered...
    let (comp, report) =
        Computation::spawn_durable(durable_config("torn", n, &dir, None)).expect("respawn");
    assert!(report.torn_tail.is_some(), "tear not reported");
    assert!(report.torn_bytes_truncated > 0);
    assert_eq!(report.total_events(), survived as u64);

    // ...and the client re-transmitting everything (dedup absorbs the
    // overlap) restores exactness.
    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush after recovery");
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn bit_flipped_wal_record_is_cut_not_replayed() {
    let dir = tmpdir("bit-flip");
    let trace = Stencil1D { procs: 5, iters: 4 }.generate(41);
    let n = trace.num_processes();

    let (comp, _) =
        Computation::spawn_durable(durable_config("flip", n, &dir, None)).expect("spawn");
    for chunk in trace.events().chunks(13) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.shutdown();

    // Flip one bit late in the segment: every record from the damaged one
    // on must be discarded (CRC), but the prefix before it must survive.
    let (_, seg) = wal::list_segments(&dir)
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let pos = bytes.len() - bytes.len() / 4;
    bytes[pos] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();

    let (comp, report) =
        Computation::spawn_durable(durable_config("flip", n, &dir, None)).expect("respawn");
    assert!(report.torn_tail.is_some(), "corruption not detected");
    assert!(report.total_events() < trace.num_events() as u64);
    // The file was physically truncated to the valid prefix.
    let scan = wal::scan_segment(&seg).unwrap();
    assert!(scan.torn.is_none(), "truncate left a bad tail behind");

    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush after recovery");
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn truncated_wal_tail_recovers_the_prefix() {
    let dir = tmpdir("short-tail");
    let trace = Stencil1D { procs: 4, iters: 4 }.generate(9);
    let n = trace.num_processes();

    let (comp, _) =
        Computation::spawn_durable(durable_config("short", n, &dir, None)).expect("spawn");
    for chunk in trace.events().chunks(11) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.shutdown();

    // Chop mid-record (a crashed kernel never finished the tail write).
    let (_, seg) = wal::list_segments(&dir)
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let (comp, report) =
        Computation::spawn_durable(durable_config("short", n, &dir, None)).expect("respawn");
    assert!(report.torn_tail.is_some());
    assert!(report.total_events() > 0);
    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush after recovery");
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn empty_and_header_only_wals_recover_to_empty() {
    let dir = tmpdir("empty-wal");
    let trace = Stencil1D { procs: 3, iters: 2 }.generate(5);
    let n = trace.num_processes();

    // First start: directory is fresh — nothing to recover.
    let (comp, report) =
        Computation::spawn_durable(durable_config("empty", n, &dir, None)).expect("spawn");
    assert_eq!(report.total_events(), 0);
    comp.kill(); // crash before anything was delivered

    // Second start: a header-only segment exists now; still nothing.
    let (comp, report) =
        Computation::spawn_durable(durable_config("empty", n, &dir, None)).expect("respawn");
    assert_eq!(report.total_events(), 0);
    assert!(report.torn_tail.is_none());
    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}

#[test]
fn graceful_shutdown_then_restart_needs_no_restream() {
    // Graceful shutdown writes a synced WAL and a final checkpoint; a
    // restart must serve exact answers with no client help at all.
    let dir = tmpdir("graceful");
    let trace = Stencil1D { procs: 6, iters: 4 }.generate(31);
    let n = trace.num_processes();
    let mut cfg = durable_config("graceful", n, &dir, None);
    cfg.durability.as_mut().unwrap().checkpoint_every = 50;

    let (comp, _) = Computation::spawn_durable(cfg.clone()).expect("spawn");
    comp.enqueue_events(trace.events().to_vec()).unwrap();
    comp.flush(trace.num_events() as u64, Duration::from_secs(30))
        .expect("flush");
    comp.shutdown();

    // The final checkpoint covers everything — restart replays it alone.
    let ckpt = checkpoint::load_latest_checkpoint(&dir)
        .unwrap()
        .expect("final checkpoint written");
    assert_eq!(ckpt.delivered, trace.num_events() as u64);

    let (comp, report) = Computation::spawn_durable(cfg).expect("respawn");
    assert_eq!(report.total_events(), trace.num_events() as u64);
    assert_eq!(report.checkpoint_events, trace.num_events() as u64);
    assert_matches_offline(&comp, &trace);
    comp.shutdown();
}
