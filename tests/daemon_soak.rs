//! Differential soak: the daemon's online answers must be identical to the
//! offline batch engine's, for the entire standard suite, under concurrent
//! shuffled ingest.
//!
//! This is the strongest end-to-end statement the repo makes about the
//! online path: all 54 computations stream through TCP loopback over ≥8
//! concurrent connections, each computation split into slices that are
//! window-shuffled and salted with duplicate deliveries; after a `Flush`
//! barrier, sampled precedence queries, greatest-concurrent probes, and
//! window scrolls are answered by the daemon and compared 1:1 with a local
//! `ClusterEngine` run over the original in-order trace. By delivery-order
//! invariance the required mismatch count is exactly zero — in both the
//! single-worker and the 4-shard ingest configurations.

use cts_daemon::loadgen::{self, LoadConfig};
use cts_daemon::pipeline::{Computation, ComputationConfig};
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::shard::StampStrategy;
use cts_daemon::Client;
use cts_model::linearize::relinearize;
use cts_workloads::spmd::Stencil1D;
use cts_workloads::suite::{mini_suite, standard_suite};
use cts_workloads::Workload;

/// The soak body, parameterized by the daemon's ingest shard count: the
/// same 54 computations, the same shuffled concurrent streams, the same
/// zero-mismatch bar — whether one worker delivers everything or four
/// shard workers race over process groups.
fn full_suite_soak(shards: u32, seed: u64) {
    let daemon = Daemon::start(DaemonConfig {
        shards,
        ..DaemonConfig::default()
    })
    .expect("bind loopback");
    let suite = standard_suite();
    let cfg = LoadConfig {
        addr: daemon.local_addr(),
        connections: 8,
        seed,
        precedence_queries: 120,
        gc_probes: 2,
        ..LoadConfig::default()
    };
    let report = loadgen::run(&suite, &cfg).expect("load run");
    assert_eq!(report.computations, 54);
    assert_eq!(
        report.total_events,
        suite
            .iter()
            .map(|e| e.trace.num_events() as u64)
            .sum::<u64>()
    );
    assert!(report.duplicates_sent > 0, "soak must exercise duplicates");
    assert!(report.precedence_checked >= 54 * 100);
    assert!(report.gc_checked >= 54);
    assert_eq!(
        report.mismatches, 0,
        "daemon answers diverged from the offline engine"
    );

    // Metrics surface the abuse the soak inflicted.
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    let entry = &suite[0];
    client
        .hello(
            &entry.name,
            entry.trace.num_processes(),
            cfg.max_cluster_size,
        )
        .expect("hello");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.events_ingested, entry.trace.num_events() as u64);
    assert!(stats.duplicates_dropped > 0);
    assert!(stats.snapshots_published >= 1);
    assert!(stats.queries_served > 0);
    assert!(stats.ingest_p50_ns > 0);
    assert!(stats.query_p50_ns > 0);
    // The warm-batch re-issue in the load run must hit the shared cache.
    assert!(
        stats.cache_hits > 0,
        "query cache saw no hits during the soak"
    );
    assert!(stats.batch_queries > 0);
    assert!(stats.precedes_p50_ns > 0);
    client.goodbye().expect("goodbye");

    daemon.shutdown();
}

#[test]
fn full_suite_soak_matches_offline_engine() {
    full_suite_soak(1, 2026);
}

#[test]
fn full_suite_soak_sharded_matches_offline_engine() {
    // Four shard workers per computation: cross-shard edges, mid-stream
    // rebalances, and the two-phase cut all run under the same bar.
    full_suite_soak(4, 4052);
}

#[test]
fn daemon_survives_hostile_sessions() {
    // Protocol-level edge cases: queries without a session, bad hellos,
    // unknown events, mismatched re-hello, and a flush that must time out.
    let daemon = Daemon::start(DaemonConfig {
        flush_timeout: std::time::Duration::from_millis(300),
        ..DaemonConfig::default()
    })
    .expect("bind loopback");
    let addr = daemon.local_addr();
    let suite = mini_suite();
    let entry = &suite[0];
    let n = entry.trace.num_processes();

    // Query without Hello → NO_SESSION error surfaces as an io error.
    let mut c = Client::connect(addr).expect("connect");
    let e0 = entry.trace.all_event_ids().next().unwrap();
    assert!(c.precedes(e0, e0).is_err());

    // Bad hello parameters are refused.
    assert!(c.hello("bad", 0, 4).is_err());

    // Proper session; partial stream; flush for more than was sent times
    // out with FLUSH_TIMEOUT rather than hanging.
    c.hello(&entry.name, n, 4).expect("hello");
    let half = entry.trace.num_events() / 2;
    c.stream_events(&entry.trace.events()[..half], 64)
        .expect("stream");
    assert!(c.flush(entry.trace.num_events() as u64).is_err());

    // Flush for what *was* sent succeeds (prefix of a valid order is valid).
    let (_, delivered) = c.flush(half as u64).expect("flush half");
    assert_eq!(delivered, half as u64);

    // Unknown event id in a query → UNKNOWN_EVENT error, session survives.
    let bogus = cts_model::EventId::new(cts_model::ProcessId(0), cts_model::EventIndex(60_000));
    assert!(c.precedes(e0, bogus).is_err());
    assert!(c.precedes(e0, e0).is_ok());

    // Re-hello with different parameters is refused; with the same
    // parameters it reports the computation as existing.
    assert!(c.hello(&entry.name, n + 1, 4).is_err());
    let (_, existing) = c.hello(&entry.name, n, 4).expect("re-hello");
    assert!(existing);

    // A second concurrent connection joins the same computation and sees
    // the same store.
    let mut c2 = Client::connect(addr).expect("connect 2");
    let (_, existing2) = c2.hello(&entry.name, n, 4).expect("hello 2");
    assert!(existing2);
    let w = c2.window(0, 1, 4).expect("window");
    assert!(!w.is_empty());
    c2.goodbye().expect("goodbye 2");
    c.goodbye().expect("goodbye");

    daemon.shutdown();
}

/// Regression: a sharded computation's `shutdown()` must be idempotent —
/// a second call (from any thread) returns instead of hanging on the
/// already-joined shard workers. Originally caught as a hang when the
/// soak's daemon shutdown raced a per-computation shutdown.
#[test]
fn sharded_shutdown_is_idempotent() {
    let t = Stencil1D { procs: 8, iters: 4 }.generate(7);
    let comp = Computation::spawn(ComputationConfig {
        name: "double-shutdown".into(),
        num_processes: t.num_processes(),
        max_cluster_size: 4,
        strategy: StampStrategy::Merge1st {
            max_cluster_size: 4,
        },
        queue_capacity: 8,
        epoch_every: 64,
        shards: 4,
        auto_scale: false,
        balance: false,
        pin_cores: false,
        placement: None,
        durability: None,
        query_cache_capacity: 0,
        retain_epochs: 0,
        retain_bytes: 0,
    });
    for chunk in relinearize(&t, 3).events().chunks(37) {
        comp.enqueue_events(chunk.to_vec()).unwrap();
    }
    comp.flush(t.num_events() as u64, std::time::Duration::from_secs(30))
        .unwrap();
    comp.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    let c2 = comp.clone();
    std::thread::spawn(move || {
        c2.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("second shutdown() hung");
}

/// Retention must *cycle* under sustained publishing: with a small epoch
/// cadence the default cap (8 retained epochs) is exceeded many times
/// over, so the retainer has to retire old epochs while still answering
/// time-travel queries over the window it kept — and the stats gauges
/// must show both sides of that churn.
#[test]
fn soak_retention_cycles_under_default_cap() {
    let daemon = Daemon::start(DaemonConfig {
        epoch_every: 32,
        ..DaemonConfig::default()
    })
    .expect("bind loopback");
    let t = Stencil1D {
        procs: 8,
        iters: 40,
    }
    .generate(9);
    let mut c = Client::connect(daemon.local_addr()).expect("connect");
    c.hello("retention-soak", t.num_processes(), 4)
        .expect("hello");
    c.stream_events(t.events(), 128).expect("stream");
    c.flush(t.num_events() as u64).expect("flush");
    let stats = c.stats().expect("stats");
    assert!(
        stats.snapshots_published > 8,
        "cadence too coarse to cycle retention ({} publishes)",
        stats.snapshots_published
    );
    assert!(stats.epochs_retained >= 1);
    assert!(
        stats.epochs_retained <= 8,
        "retained {} epochs, default cap is 8",
        stats.epochs_retained
    );
    assert!(
        stats.epochs_retired > 0,
        "no epochs retired despite {} publishes",
        stats.snapshots_published
    );
    // The window that survived is still fully time-travel-queryable.
    c.proto_hello().expect("proto hello");
    let epochs = c.list_epochs().expect("list epochs");
    assert_eq!(epochs.len() as u64, stats.epochs_retained);
    let first = t.events()[0].id;
    let (oldest, _) = epochs[0];
    assert!(!c.asof_precedes(oldest, first, first).expect("as-of query"));
    c.goodbye().expect("goodbye");
    daemon.shutdown();
}

#[test]
fn wire_shutdown_round_trips() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind loopback");
    let addr = daemon.local_addr();
    let mut c = Client::connect(addr).expect("connect");
    c.shutdown_daemon().expect("shutdown ack");
    daemon.wait_for_shutdown_request();
    daemon.shutdown();
    // The daemon is really gone: a fresh connect cannot complete a session.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.hello("post-shutdown", 2, 2).is_err(),
    };
    assert!(refused, "daemon still serving after shutdown");
}

/// One planted scenario through the driver against an in-process daemon
/// carrying the scenario's setting, with the load's defaults.
fn planted_soak(scenario: &loadgen::Scenario) -> loadgen::PlantedReport {
    let mut cfg = LoadConfig {
        precedence_queries: 50,
        ..LoadConfig::default()
    };
    if let Some(m) = scenario.max_cluster_size {
        cfg.max_cluster_size = m;
    }
    let mut daemon_cfg = DaemonConfig::default();
    (scenario.daemon)(&mut daemon_cfg, cfg.max_cluster_size);
    let daemon = Daemon::start(daemon_cfg).expect("bind loopback");
    cfg.addr = daemon.local_addr();
    let report =
        loadgen::run_planted(scenario, &scenario.fixtures(Vec::new), &cfg).expect("planted soak");
    daemon.shutdown();
    report
}

#[test]
fn drift_soak_migrates_on_every_fixture_and_matches_offline_engine() {
    let report = planted_soak(&loadgen::DRIFT);
    assert_eq!(report.load.mismatches, 0);
    assert_eq!(report.load.computations, 2);
    assert!(report.undetected().is_empty(), "{:?}", report.undetected());
    assert!(report.passed());
    // The plant phase streams in delivery order on one connection, so the
    // adaptive engine sees one order and the curves are exact: (delivered,
    // cluster receives, merges, migrations) at every planted boundary.
    let names: Vec<&str> = report.curves.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "drift/phase-stencil-32p4x6b8",
            "drift/rebalanced-tiers-c12f6b6r600p3"
        ]
    );
    let points = |i: usize| -> Vec<(u64, u64, u64, u64)> {
        let curve = &report.curves[i].1;
        curve
            .iter()
            .map(|m| (m.delivered, m.cluster_receives, m.merges, m.migrations))
            .collect()
    };
    assert_eq!(
        points(0),
        [
            (576, 92, 28, 8),
            (1152, 215, 28, 19),
            (1728, 365, 28, 30),
            (2304, 428, 29, 34),
        ]
    );
    assert_eq!(
        points(1),
        [(1600, 24, 18, 0), (3200, 65, 21, 3), (4800, 102, 21, 6)]
    );
    assert_eq!(report.migrations(), 40);
}

#[test]
fn place_soak_autoscales_and_matches_offline_engine() {
    let report = planted_soak(&loadgen::PLACE);
    assert_eq!(report.load.mismatches, 0);
    assert_eq!(report.placements.len(), 2);
    assert!(
        report.rescales() >= 1,
        "no autoscale action fired: {:?}",
        report.placements
    );
    assert!(report.passed());
}
