//! `cts-bench` — the workspace's dependency-free benchmark runner.
//!
//! Ports the former Criterion benches onto `cts_util::bench::Bencher`:
//! every group measures the same deterministic fixtures (see `lib.rs`), and
//! the report is machine-readable JSON on stdout (schema `cts-bench/1`).
//!
//! ```text
//! cargo run --release -p cts-bench                 # full run
//! cargo run --release -p cts-bench -- --quick      # short samples (CI smoke)
//! cargo run --release -p cts-bench -- precedence   # only ids containing "precedence"
//! ```

use cts_analysis::sweep::{sweep, StrategyKind};
use cts_baselines::{DdvStore, DiffStore};
use cts_bench::{clustered_trace, SCALES};
use cts_core::cluster::ClusterEngine;
use cts_core::clustering::{greedy_pairwise, kmedoid};
use cts_core::fm::{FmEngine, FmStore};
use cts_core::strategy::{MergeOnFirst, MergeOnNth, NeverMerge};
use cts_core::two_pass::static_pipeline;
use cts_daemon::wire::{self, Msg};
use cts_daemon::ReorderBuffer;
use cts_model::comm::CommMatrix;
use cts_model::linearize::relinearize;
use cts_model::EventId;
use cts_store::btree::{key_of, BPlusTree};
use cts_store::event_store::EventStore;
use cts_store::queries::{greatest_concurrent, scroll_window, FmBackend};
use cts_store::timestamp_cache::TimestampCache;
use cts_store::vm_sim::PagedTimestampStore;
use cts_util::bench::Bencher;
use cts_workloads::suite::figure_pair;

/// A bencher plus a substring filter over `group/name` ids.
struct Runner {
    bencher: Bencher,
    filter: Option<String>,
}

impl Runner {
    fn run<T, F: FnMut() -> T>(&mut self, group: &str, name: &str, f: F) {
        let id = format!("{group}/{name}");
        if let Some(pat) = &self.filter {
            if !id.contains(pat.as_str()) {
                return;
            }
        }
        let e = self.bencher.bench(group, name, f);
        eprintln!("{:<48} median {:>12} ns", e.id(), e.median_ns);
    }

    /// Record a quality metric (a count, not a duration) as a bench entry so
    /// `bench_gate.py --require-ratio` can gate on it. Same idiom as the c10k
    /// idle-cost entries in the load generator: the value is stored in the
    /// ns fields verbatim.
    fn scalar(&mut self, group: &str, name: &str, v: f64) {
        let id = format!("{group}/{name}");
        if let Some(pat) = &self.filter {
            if !id.contains(pat.as_str()) {
                return;
            }
        }
        let e = cts_util::bench::BenchEntry {
            group: group.to_string(),
            name: name.to_string(),
            samples: 1,
            iters_per_sample: 1,
            min_ns: v,
            median_ns: v,
            p95_ns: v,
            mean_ns: v,
        };
        eprintln!("{:<48} value  {:>12}", e.id(), v);
        self.bencher.record_entry(e);
    }
}

fn bench_fm(r: &mut Runner) {
    for &n in SCALES {
        let trace = clustered_trace(n, 8);
        r.run("fm_engine_accept", &n.to_string(), || {
            let mut eng = FmEngine::new(trace.num_processes());
            let mut acc = 0u64;
            for &ev in trace.events() {
                acc = acc.wrapping_add(eng.accept(ev).as_slice()[0] as u64);
            }
            acc
        });
    }
    for &n in &[100u32, 400] {
        let trace = clustered_trace(n, 8);
        r.run("fm_store_compute", &n.to_string(), || {
            FmStore::compute(&trace).bytes()
        });
    }
}

fn bench_cluster_engine(r: &mut Runner) {
    let trace = clustered_trace(200, 8);
    let n = trace.num_processes();
    r.run("cluster_engine_run", "merge_on_first_13", || {
        ClusterEngine::run(&trace, MergeOnFirst::new(13)).num_cluster_receives()
    });
    r.run("cluster_engine_run", "merge_on_nth_t10_13", || {
        ClusterEngine::run(&trace, MergeOnNth::new(n, 13, 10.0)).num_cluster_receives()
    });
    r.run("cluster_engine_run", "never_merge", || {
        ClusterEngine::run(&trace, NeverMerge).num_cluster_receives()
    });
    r.run("cluster_engine_run", "static_two_pass_13", || {
        static_pipeline(&trace, 13).1.num_cluster_receives()
    });
    for max_cs in [2usize, 13, 50] {
        r.run("cluster_engine_by_max_cs", &max_cs.to_string(), || {
            ClusterEngine::run(&trace, MergeOnFirst::new(max_cs)).num_cluster_receives()
        });
    }
}

/// Deterministic pseudo-random query pairs (fixed prime strides).
fn query_pairs(trace: &cts_model::Trace, k: usize) -> Vec<(EventId, EventId)> {
    let ids: Vec<EventId> = trace.all_event_ids().collect();
    (0..k)
        .map(|i| {
            let a = ids[(i * 7919) % ids.len()];
            let b = ids[(i * 104729 + 13) % ids.len()];
            (a, b)
        })
        .collect()
}

fn bench_precedence(r: &mut Runner) {
    let trace = clustered_trace(200, 8);
    let pairs = query_pairs(&trace, 256);
    let g = "precedence_256_queries";

    let fm = FmStore::compute(&trace);
    r.run(g, "fm_precomputed", || {
        pairs
            .iter()
            .filter(|&&(e, f)| fm.precedes(&trace, e, f))
            .count()
    });

    let cts = ClusterEngine::run(&trace, MergeOnNth::new(trace.num_processes(), 13, 5.0));
    r.run(g, "cluster_timestamps", || {
        pairs
            .iter()
            .filter(|&&(e, f)| cts.precedes(&trace, e, f))
            .count()
    });

    let fz = DdvStore::compute(&trace);
    r.run(g, "fowler_zwaenepoel_search", || {
        pairs
            .iter()
            .filter(|&&(e, f)| fz.precedes(&trace, e, f))
            .count()
    });

    let sk = DiffStore::compute(&trace, 16);
    r.run(g, "sk_differential_reconstruct", || {
        pairs
            .iter()
            .filter(|&&(e, f)| sk.precedes(&trace, e, f))
            .count()
    });

    r.run(g, "recompute_forward_cache", || {
        let mut cache = TimestampCache::new(&trace, 64);
        pairs.iter().filter(|&&(e, f)| cache.precedes(e, f)).count()
    });
}

fn bench_static_clustering(r: &mut Runner) {
    for &n in SCALES {
        let trace = clustered_trace(n, 6);
        let matrix = CommMatrix::from_trace(&trace);
        r.run("greedy_pairwise_by_n", &n.to_string(), || {
            greedy_pairwise(&matrix, 13).num_clusters()
        });
    }
    let trace = clustered_trace(200, 6);
    let matrix = CommMatrix::from_trace(&trace);
    r.run("clusterers_n200", "greedy_pairwise", || {
        greedy_pairwise(&matrix, 13).num_clusters()
    });
    r.run("clusterers_n200", "kmedoid", || {
        kmedoid(&matrix, 16, 20).num_clusters()
    });
}

fn bench_figure_sweeps(r: &mut Runner) {
    let (worst, smooth) = figure_pair();
    let sizes: Vec<usize> = (2..=50).step_by(4).collect(); // sparse axis for the bench
    r.run("figure_sweep", "fig4_static_smooth", || {
        sweep(&smooth, StrategyKind::StaticGreedy, &sizes)
            .ratios
            .len()
    });
    r.run("figure_sweep", "fig4_merge1st_smooth", || {
        sweep(&smooth, StrategyKind::MergeOnFirst, &sizes)
            .ratios
            .len()
    });
    r.run("figure_sweep", "fig5_mergeNth10_worst", || {
        sweep(&worst, StrategyKind::MergeOnNth { threshold: 10.0 }, &sizes)
            .ratios
            .len()
    });
}

fn bench_store_queries(r: &mut Runner) {
    let trace = clustered_trace(200, 8);
    let ids: Vec<EventId> = trace.all_event_ids().collect();
    r.run("btree", "insert_all", || {
        let mut t = BPlusTree::new();
        for (i, &id) in ids.iter().enumerate() {
            t.insert(key_of(id), i as u32);
        }
        t.len()
    });
    let mut tree = BPlusTree::new();
    for (i, &id) in ids.iter().enumerate() {
        tree.insert(key_of(id), i as u32);
    }
    r.run("btree", "get_all", || {
        ids.iter()
            .filter(|&&id| tree.get(key_of(id)).is_some())
            .count()
    });
    r.run("event_store", "ingest", || {
        EventStore::from_trace(&trace).len()
    });

    for &n in &[100u32, 400] {
        let trace = clustered_trace(n, 8);
        let fm = FmStore::compute(&trace);
        let probe = trace.at(trace.num_events() / 2).id;
        r.run(
            "paged_queries",
            &format!("greatest_concurrent_paged_{n}"),
            || {
                let mut paged = PagedTimestampStore::new(&trace, &fm, 1024);
                let _ = greatest_concurrent(&mut paged, &trace, probe);
                paged.page_reads()
            },
        );
        r.run("paged_queries", &format!("scroll_window_fm_{n}"), || {
            scroll_window(&mut FmBackend(&fm), &trace, 1, 4)
        });
    }
}

/// The daemon's query read path:
///
/// Every iteration through [`CachedClusterBackend`] gets a fresh
/// [`SharedQueryCache`], so each question is asked for the first time — the
/// common case for a tool's questions, and the one a memo cannot help.
///
/// - `precedes_cluster_*` vs `precedes_materialized_*`: 256 sampled
///   precedence verdicts on the widest suite computations, through
///   [`CachedClusterBackend`] (the daemon's path: the §2.3 test, no memo) vs
///   answered by reconstructing `f`'s full Fidge/Mattern clock and reading
///   one component of it. `scripts/ci.sh` holds materialized/cluster ≥ 2×.
/// - `gc_linear_*` vs `gc_binary_*` vs `gc_daemon_*`: the greatest-concurrent
///   scan — linear oracle, the binary-searched suffix boundary on the raw
///   [`ClusterBackend`], and the same search through [`CachedClusterBackend`]
///   (a memo miss and an insert per query). `scripts/ci.sh` holds
///   binary/daemon ≥ 0.5: the daemon's query costs at most 2× the bare
///   search.
/// - `rtt_single_256` vs `rtt_batch_256`: the same 256 pairs as individual
///   `QueryPrecedes` round trips vs one `QueryPrecedesBatch` frame against
///   a loopback daemon (wire + scheduling cost, not verdict cost).
fn bench_query_path(r: &mut Runner) {
    use cts_store::queries::{greatest_concurrent_linear, ClusterBackend, PrecedenceBackend};
    use cts_store::{CachedClusterBackend, SharedQueryCache};

    let g = "query_path";
    for (label, trace) in cts_bench::widest_computations() {
        let cts = ClusterEngine::run(&trace, MergeOnFirst::new(8));
        let pairs = query_pairs(&trace, 256);
        r.run(g, &format!("precedes_cluster_{label}"), || {
            let cache = SharedQueryCache::new(256);
            let mut b = CachedClusterBackend {
                cts: &cts,
                cache: &cache,
            };
            pairs
                .iter()
                .filter(|&&(e, f)| b.precedes(&trace, e, f))
                .count()
        });
        r.run(g, &format!("precedes_materialized_{label}"), || {
            pairs
                .iter()
                .filter(|&&(e, f)| cts.materialized_clock(&trace, f).get(e.process) >= e.index.0)
                .count()
        });

        let probes: Vec<EventId> = (0..4)
            .map(|k: usize| trace.at((k * 15_485_863 + 3) % trace.num_events()).id)
            .collect();
        r.run(g, &format!("gc_linear_{label}"), || {
            probes
                .iter()
                .map(|&e| greatest_concurrent_linear(&mut ClusterBackend(&cts), &trace, e).len())
                .sum::<usize>()
        });
        r.run(g, &format!("gc_binary_{label}"), || {
            probes
                .iter()
                .map(|&e| greatest_concurrent(&mut ClusterBackend(&cts), &trace, e).len())
                .sum::<usize>()
        });
        r.run(g, &format!("gc_daemon_{label}"), || {
            let cache = SharedQueryCache::new(256);
            let mut b = CachedClusterBackend {
                cts: &cts,
                cache: &cache,
            };
            probes
                .iter()
                .map(|&e| greatest_concurrent(&mut b, &trace, e).len())
                .sum::<usize>()
        });
    }

    // Wire round trips against a live loopback daemon. Single queries pay
    // one RTT per verdict; the batch pays one RTT total. (Skipped when a
    // filter excludes both ids, so filtered runs don't boot a daemon.)
    let single_id = format!("{g}/rtt_single_256");
    let batch_id = format!("{g}/rtt_batch_256");
    if let Some(pat) = &r.filter {
        if !single_id.contains(pat.as_str()) && !batch_id.contains(pat.as_str()) {
            return;
        }
    }
    let trace = clustered_trace(200, 8);
    let pairs = query_pairs(&trace, 256);
    let daemon =
        cts_daemon::Daemon::start(cts_daemon::DaemonConfig::default()).expect("loopback daemon");
    let mut client = cts_daemon::Client::connect(daemon.local_addr()).expect("connect");
    client
        .hello("bench-query-path", trace.num_processes(), 8)
        .expect("hello");
    client.stream_events(trace.events(), 512).expect("stream");
    client.flush(trace.num_events() as u64).expect("flush");
    r.run(g, "rtt_single_256", || {
        pairs
            .iter()
            .filter(|&&(e, f)| client.precedes(e, f).expect("precedes rtt"))
            .count()
    });
    r.run(g, "rtt_batch_256", || {
        client
            .precedes_batch(&pairs)
            .expect("batch rtt")
            .iter()
            .flatten()
            .filter(|&&b| b)
            .count()
    });
    let _ = client.goodbye();
    daemon.shutdown();
}

/// Time travel (PR 8): warm as-of queries vs identical head queries, and
/// interval-replay throughput, against a loopback daemon retaining a
/// window of epochs.
///
/// - `precedes_head_256` vs `precedes_asof_256`: the same 256 sampled
///   pairs answered at the head and at a retained historical epoch, one
///   RTT per verdict, both asked once before timing. Both are the same
///   precedence test on a snapshot — the head, or the retained one the
///   epoch names — so an as-of verdict costs about a head verdict —
///   `scripts/ci.sh replay` gates `head/asof >= 0.5` (as-of within 2× of
///   head) on this pair via `bench_gate.py --require-ratio`.
/// - `replay_interval`: pulling the oldest retained epoch's full prefix
///   back over chunked `ReplayInterval` frames.
fn bench_timetravel(r: &mut Runner) {
    let g = "timetravel";
    // Skipped entirely when a filter excludes the whole group, so
    // filtered runs don't boot a daemon.
    if let Some(pat) = &r.filter {
        let ids = ["precedes_head_256", "precedes_asof_256", "replay_interval"];
        if !ids
            .iter()
            .any(|n| format!("{g}/{n}").contains(pat.as_str()))
        {
            return;
        }
    }
    let trace = clustered_trace(200, 8);
    let daemon = cts_daemon::Daemon::start(cts_daemon::DaemonConfig {
        epoch_every: 256,
        ..cts_daemon::DaemonConfig::default()
    })
    .expect("loopback daemon");
    let mut client = cts_daemon::Client::connect(daemon.local_addr()).expect("connect");
    let (protocol, _) = client.proto_hello().expect("proto hello");
    assert!(protocol >= 3, "daemon negotiated protocol {protocol}");
    client
        .hello("bench-timetravel", trace.num_processes(), 8)
        .expect("hello");
    client.stream_events(trace.events(), 256).expect("stream");
    client.flush(trace.num_events() as u64).expect("flush");
    let epochs = client.list_epochs().expect("list epochs");
    let &(asof_epoch, _) = epochs.first().expect("a retained epoch");
    // Sample the pairs from the as-of prefix, so both sides answer for
    // exactly the same event ids.
    let replayed = client.replay_interval(0, asof_epoch).expect("replay");
    let prefix =
        cts_model::Trace::from_delivery_order("bench-asof", trace.num_processes(), replayed)
            .expect("replayed prefix is a valid delivery order");
    let pairs = query_pairs(&prefix, 256);
    for &(e, f) in &pairs {
        let _ = client.precedes(e, f).expect("warm head");
        let _ = client.asof_precedes(asof_epoch, e, f).expect("warm as-of");
    }
    r.run(g, "precedes_head_256", || {
        pairs
            .iter()
            .filter(|&&(e, f)| client.precedes(e, f).expect("head precedes"))
            .count()
    });
    r.run(g, "precedes_asof_256", || {
        pairs
            .iter()
            .filter(|&&(e, f)| {
                client
                    .asof_precedes(asof_epoch, e, f)
                    .expect("as-of precedes")
            })
            .count()
    });
    r.run(g, "replay_interval", || {
        client
            .replay_interval(0, asof_epoch)
            .expect("replay interval")
            .len()
    });
    let _ = client.goodbye();
    daemon.shutdown();
}

/// A fixed, allocation-free ALU kernel: pure single-thread CPU speed, no
/// memory traffic, no syscalls. `bench_gate.py` uses this entry to
/// normalize a candidate report against a baseline recorded on a
/// different-speed host instead of requiring manual re-baselining.
fn bench_calibration(r: &mut Runner) {
    r.run("calibration", "fixed_work", || {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..200_000u64 {
            h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 33;
        }
        h
    });
}

/// Deliver `arrivals` (a valid delivery order of `t`) through an
/// in-process computation running `shards` ingest shards — with `auto_pin`,
/// autoscaling from there with workers pinned to topology-chosen cores —
/// from first enqueue to flush completion. Returns the wall nanoseconds.
fn ingest_wall_ns(
    t: &cts_model::Trace,
    arrivals: &[cts_model::Event],
    shards: u32,
    auto_pin: bool,
) -> u64 {
    use cts_daemon::pipeline::{Computation, ComputationConfig};
    let comp = Computation::spawn(ComputationConfig {
        name: format!("bench-{}-s{shards}", t.name()),
        num_processes: t.num_processes(),
        max_cluster_size: 8,
        strategy: cts_daemon::shard::StampStrategy::Merge1st {
            max_cluster_size: 8,
        },
        queue_capacity: 64,
        epoch_every: 4096,
        shards,
        auto_scale: auto_pin,
        balance: false,
        pin_cores: auto_pin,
        placement: None,
        durability: None,
        query_cache_capacity: 0,
        retain_epochs: 0,
        retain_bytes: 0,
    });
    let start = std::time::Instant::now();
    for chunk in arrivals.chunks(512) {
        comp.enqueue_events(chunk.to_vec())
            .expect("bench ingest enqueue");
    }
    comp.flush(arrivals.len() as u64, std::time::Duration::from_secs(120))
        .expect("bench ingest flush");
    let ns = start.elapsed().as_nanos() as u64;
    comp.shutdown();
    ns
}

/// Placement under planted imbalance: one hot process group delivered
/// through static shard layouts (which leave the hot block pinned to one
/// worker) vs `--shards auto` + `--pin-cores` (which splits the hot shard
/// live and pins workers to distinct cores). One iteration = the whole
/// delivery; `ci.sh place` gates `hot6g4w_s1 / hot6g4w_auto_pin` at 1.3x
/// on >=4-core hosts.
fn bench_placement(r: &mut Runner) {
    let t = cts_workloads::drift::hot_group_trace(6, 4, 24, 32);
    let arrivals = relinearize(&t, 11);
    let g = "placement";
    for shards in [1u32, 2, 4] {
        r.run(g, &format!("hot6g4w_s{shards}"), || {
            ingest_wall_ns(&t, arrivals.events(), shards, false)
        });
    }
    r.run(g, "hot6g4w_auto_pin", || {
        ingest_wall_ns(&t, arrivals.events(), 2, true)
    });
}

fn bench_daemon(r: &mut Runner) {
    let trace = clustered_trace(200, 8);
    let g = "daemon_ingest";

    // Wire codec: frame a suite-sized event stream in 512-event batches,
    // then parse it back (the daemon's per-event serialization cost).
    let batches: Vec<Msg> = trace
        .events()
        .chunks(512)
        .map(|c| Msg::Events(c.to_vec()))
        .collect();
    r.run(g, "wire_encode", || {
        let mut buf = Vec::new();
        for msg in &batches {
            wire::write_msg(&mut buf, msg).unwrap();
        }
        buf.len()
    });
    let mut encoded = Vec::new();
    for msg in &batches {
        wire::write_msg(&mut encoded, msg).unwrap();
    }
    r.run(g, "wire_decode", || {
        let mut cur = &encoded[..];
        let mut n = 0usize;
        while let Some(Msg::Events(evs)) = wire::read_msg(&mut cur).unwrap() {
            n += evs.len();
        }
        n
    });

    // Reorder buffer: the in-order fast path (every offer delivers
    // immediately) vs. a fully reversed arrival stream (everything parks
    // until the stream's first events finally arrive — worst-case depth and
    // cascade length). `relinearize` output is also a *valid* order, so it
    // exercises the fast path under a different schedule.
    let relin = relinearize(&trace, 7);
    r.run(g, "reorder_in_order", || {
        let mut buf = ReorderBuffer::new(trace.num_processes());
        let mut out = 0usize;
        for &ev in relin.events() {
            out += buf.offer(ev).unwrap().len();
        }
        out
    });
    r.run(g, "reorder_reversed", || {
        let mut buf = ReorderBuffer::new(trace.num_processes());
        let mut out = 0usize;
        for &ev in trace.events().iter().rev() {
            out += buf.offer(ev).unwrap().len();
        }
        out
    });
}

fn bench_wal(r: &mut Runner) {
    use cts_daemon::wal::{scan_segment, WalWriter};
    use std::time::Duration;

    let trace = clustered_trace(200, 8);
    let g = "wal";
    let batches: Vec<&[cts_model::Event]> = trace.events().chunks(512).collect();

    // Codec + CRC cost alone: an in-memory sink keeps the device out of
    // the loop.
    r.run(g, "append_mem_512", || {
        let mut w = WalWriter::from_sink(Vec::new(), 0, Duration::ZERO).unwrap();
        for b in &batches {
            w.append(b).unwrap();
        }
        w.bytes_written()
    });

    // Group commit against a real file: fsync every batch (window 0) vs
    // amortized syncs under widening windows — the durability/throughput
    // trade the daemon's `--sync-window-ms` flag exposes.
    let dir = std::env::temp_dir().join("cts-bench-wal");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, window) in [
        ("fsync_per_batch", Duration::ZERO),
        ("window_1ms", Duration::from_millis(1)),
        ("window_10ms", Duration::from_millis(10)),
    ] {
        let path = dir.join(format!("{name}.wal"));
        r.run(g, name, || {
            let _ = std::fs::remove_file(&path);
            let file = std::fs::File::create(&path).unwrap();
            let mut w = WalWriter::from_sink(file, 0, window).unwrap();
            for b in &batches {
                w.append(b).unwrap();
                w.maybe_sync().unwrap();
            }
            w.sync().unwrap();
            w.syncs()
        });
    }

    // The recovery scan over a full synced segment (startup cost).
    let path = dir.join("scan.wal");
    {
        let _ = std::fs::remove_file(&path);
        let file = std::fs::File::create(&path).unwrap();
        let mut w = WalWriter::from_sink(file, 0, Duration::ZERO).unwrap();
        for b in &batches {
            w.append(b).unwrap();
        }
        w.sync().unwrap();
    }
    r.run(g, "scan_segment", || {
        scan_segment(&path).unwrap().num_events()
    });
}

/// Online adaptive re-clustering on the planted-drift fixtures.
///
/// Two kinds of entries:
///
/// - timed `engine_*` entries: throughput of the adaptive engine vs the
///   plain single-pass engine on the same trace (the adaptive bookkeeping
///   should cost an EWMA update, not a second pass);
/// - scalar `cr_*` entries: *cluster-receive counts*, the paper's quality
///   metric. The gated claim is that the adaptive engine beats the worst
///   static strategy on each drift trace by >= 1.2x — i.e. drift detection
///   pays for itself exactly where static clustering goes stale.
fn bench_adaptive(r: &mut Runner) {
    use cts_core::cluster::{AdaptiveEngine, AdaptiveParams};

    let g = "adaptive";
    // The drift soak's fixtures: the phase-shift stencil, then the tiers.
    let fixtures = cts_daemon::loadgen::DRIFT.fixtures(Vec::new);
    let (stencil, tiers) = (&fixtures.suite[0].trace, &fixtures.suite[1].trace);
    let params = AdaptiveParams::new(12);

    r.run(g, "engine_run_stencil", || {
        AdaptiveEngine::run(stencil, params).num_cluster_receives()
    });
    r.run(g, "engine_run_merge1st_stencil", || {
        ClusterEngine::run(stencil, MergeOnFirst::new(12)).num_cluster_receives()
    });

    for (tag, t) in [("stencil", stencil), ("tiers", tiers)] {
        let n = t.num_processes();
        let adaptive = AdaptiveEngine::run(t, params).num_cluster_receives();
        let statics = [
            ClusterEngine::run(t, MergeOnFirst::new(12)).num_cluster_receives(),
            ClusterEngine::run(t, MergeOnNth::new(n, 12, 10.0)).num_cluster_receives(),
            static_pipeline(t, 12).1.num_cluster_receives(),
        ];
        let worst = *statics.iter().max().unwrap();
        r.scalar(g, &format!("cr_adaptive_{tag}"), adaptive as f64);
        r.scalar(g, &format!("cr_static_worst_{tag}"), worst as f64);
    }
}

fn main() {
    let mut quick = false;
    let mut filter: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("usage: cts-bench [--quick] [FILTER]");
                eprintln!("  --quick   short samples (smoke-test timings)");
                eprintln!("  FILTER    run only benches whose group/name contains FILTER");
                return;
            }
            other if !other.starts_with('-') => filter = Some(other.to_string()),
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    let mut r = Runner {
        bencher: if quick {
            Bencher::quick()
        } else {
            Bencher::standard()
        },
        filter,
    };
    bench_calibration(&mut r);
    bench_fm(&mut r);
    bench_cluster_engine(&mut r);
    bench_precedence(&mut r);
    bench_static_clustering(&mut r);
    bench_figure_sweeps(&mut r);
    bench_store_queries(&mut r);
    bench_query_path(&mut r);
    bench_timetravel(&mut r);
    bench_daemon(&mut r);
    bench_placement(&mut r);
    bench_wal(&mut r);
    bench_adaptive(&mut r);
    if r.bencher.entries().is_empty() {
        eprintln!("no benches matched the filter");
        std::process::exit(1);
    }
    println!("{}", r.bencher.to_json());
}
