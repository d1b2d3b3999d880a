//! Integration tests for the fast query read path: batched wire queries,
//! the shared epoch-carried greatest-concurrent memo, window-scan
//! pagination, and the binary-searched greatest-concurrent rewrite.
//!
//! The invariant throughout is the same one the soak leans on: the daemon's
//! online answers — single, batched, cached, or paginated — must be
//! byte-identical to an offline `ClusterEngine` run over the in-order
//! trace.

use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_daemon::server::{Daemon, DaemonConfig};
use cts_daemon::Client;
use cts_model::{EventId, ProcessId};
use cts_store::queries::{greatest_concurrent, greatest_concurrent_linear, ClusterBackend};
use cts_workloads::spmd::Stencil1D;
use cts_workloads::suite::mini_suite;
use cts_workloads::Workload;
use std::time::{Duration, Instant};

/// Deterministic sampled pairs, the same prime strides the loadgen uses.
fn sample_pairs(ids: &[EventId], k: usize) -> Vec<(EventId, EventId)> {
    (0..k)
        .map(|i| {
            (
                ids[(i * 7919) % ids.len()],
                ids[(i * 104_729 + 13) % ids.len()],
            )
        })
        .collect()
}

/// Batched precedence and greatest-concurrent answers must agree with the
/// single-query wire path and with the offline engine, pair for pair.
#[test]
fn batch_queries_match_singles_and_offline() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind loopback");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    for entry in mini_suite().iter().take(4) {
        let trace = &entry.trace;
        client
            .hello(&entry.name, trace.num_processes(), 4)
            .expect("hello");
        client.stream_events(trace.events(), 128).expect("stream");
        client.flush(trace.num_events() as u64).expect("flush");

        let offline = ClusterEngine::run(trace, MergeOnFirst::new(4));
        let ids: Vec<EventId> = trace.all_event_ids().collect();
        let pairs = sample_pairs(&ids, 64);

        let singles: Vec<bool> = pairs
            .iter()
            .map(|&(e, f)| client.precedes(e, f).expect("single precedes"))
            .collect();
        let batched = client.precedes_batch(&pairs).expect("batch precedes");
        assert_eq!(batched.len(), pairs.len());
        for (k, &(e, f)) in pairs.iter().enumerate() {
            let want = offline.precedes(trace, e, f);
            assert_eq!(
                singles[k], want,
                "{}: single precedes({e}, {f})",
                entry.name
            );
            assert_eq!(
                batched[k],
                Some(want),
                "{}: batched precedes({e}, {f})",
                entry.name
            );
        }

        let probes: Vec<EventId> = (0..8)
            .map(|i| ids[(i * 15_485_863 + 3) % ids.len()])
            .collect();
        let gc_batched = client.gc_batch(&probes).expect("batch gc");
        for (k, &e) in probes.iter().enumerate() {
            let single = client.greatest_concurrent(e).expect("single gc");
            let want = greatest_concurrent(&mut ClusterBackend(&offline), trace, e);
            assert_eq!(single, want, "{}: single gc({e})", entry.name);
            assert_eq!(
                gc_batched[k].as_ref(),
                Some(&want),
                "{}: batched gc({e})",
                entry.name
            );
        }
    }
    client.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// A batch containing an unknown event answers `None` for that item and
/// real verdicts for the rest — one bad pair must not poison the frame.
#[test]
fn batch_reports_unknown_events_per_item() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind loopback");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    let suite = mini_suite();
    let entry = &suite[0];
    let trace = &entry.trace;
    client
        .hello(&entry.name, trace.num_processes(), 4)
        .expect("hello");
    client.stream_events(trace.events(), 128).expect("stream");
    client.flush(trace.num_events() as u64).expect("flush");

    let ids: Vec<EventId> = trace.all_event_ids().collect();
    let bogus = EventId::new(ProcessId(0), cts_model::EventIndex(60_000));
    let verdicts = client
        .precedes_batch(&[(ids[0], ids[1]), (ids[0], bogus), (bogus, ids[0])])
        .expect("batch with unknown");
    assert!(verdicts[0].is_some());
    assert_eq!(verdicts[1], None);
    assert_eq!(verdicts[2], None);

    let gc = client.gc_batch(&[ids[0], bogus]).expect("gc with unknown");
    assert!(gc[0].is_some());
    assert_eq!(gc[1], None);

    client.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// Window pagination must resume exactly — no skipped and no duplicated
/// ids — even when new epochs are published between pages. The cursor is
/// a plain row index and snapshots are prefix-monotone, so a scan started
/// on epoch N can finish on epoch N+k and still see one contiguous range.
#[test]
fn window_pagination_resumes_exactly_across_epochs() {
    let t = Stencil1D {
        procs: 4,
        iters: 24,
    }
    .generate(11);
    let p0 = ProcessId(0);
    let rows = t.process_len(p0) as u32;
    assert!(rows >= 12, "fixture too small to paginate");

    let daemon = Daemon::start(DaemonConfig::default()).expect("bind loopback");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    client.hello("paged", t.num_processes(), 4).expect("hello");

    // Phase 1: deliver the first half (a prefix of the trace order is a
    // valid delivery order) and take a few small pages.
    let half = t.num_events() / 2;
    client
        .stream_events(&t.events()[..half], 64)
        .expect("stream half");
    client.flush(half as u64).expect("flush half");

    let to = rows + 1;
    let mut got: Vec<EventId> = Vec::new();
    let (page, next) = client.window_page(0, 1, to, 3).expect("page 1");
    assert_eq!(page.len(), 3, "first page should be full");
    assert!(next > 0, "scan cannot be complete after one page of 3");
    got.extend(page);

    // Phase 2: deliver the rest — new epochs are published — then resume
    // the scan from the saved cursor.
    client
        .stream_events(&t.events()[half..], 64)
        .expect("stream rest");
    client.flush(t.num_events() as u64).expect("flush all");

    let mut cursor = next;
    loop {
        let (page, next) = client.window_page(0, cursor, to, 3).expect("page n");
        got.extend(page);
        if next == 0 {
            break;
        }
        assert!(next > cursor, "cursor must advance");
        cursor = next;
    }
    let expect: Vec<EventId> = t.process_events(p0).collect();
    assert_eq!(got, expect, "paged scan diverged from the process row");

    // The transparent client iterator sees the same range in one call.
    let (all, pages) = client.window_paged(0, 1, to, 5).expect("window_paged");
    assert_eq!(all, expect);
    assert!(pages > 1, "page size 5 over {rows} rows must paginate");

    client.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// A window never names an event the snapshot does not know: the head
/// window is answered at the head epoch, like every other query, not from a
/// structure that runs ahead of it. Fewer events than one epoch are streamed
/// with no `Flush`, so they are delivered but unpublished; whatever a scroll
/// returns at that point must be answerable by `QueryPrecedes`.
#[test]
fn window_never_names_an_event_the_snapshot_does_not_know() {
    let t = Stencil1D {
        procs: 4,
        iters: 24,
    }
    .generate(11);
    let total = t.num_events() as u64;
    let config = DaemonConfig::default();
    assert!(total < config.epoch_every, "fixture must fit in one epoch");
    let p0 = ProcessId(0);

    let daemon = Daemon::start(config).expect("bind loopback");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    client
        .hello("unflushed", t.num_processes(), 4)
        .expect("hello");
    client.stream_events(t.events(), 64).expect("stream");
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.stats().expect("stats").events_ingested < total {
        assert!(Instant::now() < deadline, "ingest stalled");
        std::thread::sleep(Duration::from_millis(2));
    }

    let to = t.process_len(p0) as u32 + 1;
    let ids = client.window(0, 1, to).expect("window before flush");
    for &id in &ids {
        if let Err(e) = client.precedes(id, id) {
            panic!(
                "the window named {id} ({} ids returned) but QueryPrecedes refused it: {e}",
                ids.len()
            );
        }
    }

    client.flush(total).expect("flush");
    let full = client.window(0, 1, to).expect("window after flush");
    assert_eq!(full, t.process_events(p0).collect::<Vec<_>>());

    client.goodbye().expect("goodbye");
    daemon.shutdown();
}

/// The binary-searched greatest-concurrent agrees with the linear oracle
/// event-for-event across whole mini-suite computations.
#[test]
fn binary_gc_matches_linear_oracle_on_the_suite() {
    for entry in mini_suite() {
        let trace = &entry.trace;
        let cts = ClusterEngine::run(trace, MergeOnFirst::new(4));
        for e in trace.all_event_ids() {
            let fast = greatest_concurrent(&mut ClusterBackend(&cts), trace, e);
            let slow = greatest_concurrent_linear(&mut ClusterBackend(&cts), trace, e);
            assert_eq!(fast, slow, "{}: gc({e})", entry.name);
        }
    }
}

/// The Stats message surfaces the shared cache and per-query-type latency
/// counters: re-issuing the same queries must produce cache hits, and each
/// exercised query type must record latency.
#[test]
fn stats_expose_cache_counters_and_latency() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("bind loopback");
    let mut client = Client::connect(daemon.local_addr()).expect("connect");
    let suite = mini_suite();
    let entry = &suite[0];
    let trace = &entry.trace;
    client
        .hello(&entry.name, trace.num_processes(), 4)
        .expect("hello");
    client.stream_events(trace.events(), 128).expect("stream");
    client.flush(trace.num_events() as u64).expect("flush");

    let ids: Vec<EventId> = trace.all_event_ids().collect();
    let pairs = sample_pairs(&ids, 32);
    // Precedence is the cluster-timestamp test itself: nothing is looked up
    // or remembered, however often a batch is re-issued.
    for _ in 0..2 {
        let _ = client.precedes_batch(&pairs).expect("batch");
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
    // Greatest-concurrent twice: the second ask must be answered from the
    // shared memo.
    let first = client.greatest_concurrent(ids[0]).expect("gc");
    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (0, 1),
        "the first ask cannot hit"
    );
    assert_eq!(client.greatest_concurrent(ids[0]).expect("gc"), first);
    let _ = client.window(0, 1, 4).expect("window");

    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (1, 1),
        "the re-issued query must hit the memo"
    );
    assert!(stats.batch_queries >= 2);
    assert!(stats.precedes_p50_ns > 0);
    assert!(stats.gc_p50_ns > 0);
    assert!(stats.window_p50_ns > 0);

    // A second connection to the same computation shares the memo: its
    // first identical query already hits.
    let mut c2 = Client::connect(daemon.local_addr()).expect("connect 2");
    c2.hello(&entry.name, trace.num_processes(), 4)
        .expect("hello 2");
    assert_eq!(c2.greatest_concurrent(ids[0]).expect("gc via c2"), first);
    let stats = client.stats().expect("stats after");
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (2, 1),
        "a second connection's identical query must hit the shared memo"
    );
    c2.goodbye().expect("goodbye 2");

    client.goodbye().expect("goodbye");
    daemon.shutdown();
}
