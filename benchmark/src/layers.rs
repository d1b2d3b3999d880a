//! The per-layer drive of the traced run: the workload's generated input is
//! pushed through each layer's public functions in this process, one span
//! per call batch, and the per-layer metrics are read off the spans.
//!
//! Layers are this repository's modules: `wire`, `reorder`, `core`
//! (`cts-core`), `store` (`cts-store`), `wal`, `checkpoint`, `pipeline`,
//! `shard`. The `server`, `query_pool` and `client` figures come from the
//! traced end-to-end run and are only joined in here.

use crate::daemon::MAX_CLUSTER_SIZE;
use crate::e2e::{metric, Metric, Report};
use crate::host;
use crate::phases::{fresh_dir, Ops};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{self, scaled, Comp, Input, Kind, Sampler, Spec, PROBE_FRAME, STREAM_FRAME};
use cts_core::cluster::{Encoding, SpaceReport};
use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_daemon::checkpoint::{self, CompMeta};
use cts_daemon::pipeline::{
    Computation, ComputationConfig, DurabilityConfig, DEFAULT_QUERY_CACHE_CAPACITY,
};
use cts_daemon::shard::{initial_routing, ShardSchedule, SimShards, StampStrategy};
use cts_daemon::wal::{self, WalWriter};
use cts_daemon::wire::{FrameBuffer, Msg};
use cts_daemon::ReorderBuffer;
use cts_model::{Event, EventId, ProcessId, Trace};
use cts_store::queries::{greatest_concurrent, PrecedenceBackend};
use cts_store::{CachedClusterBackend, EventStore, SharedQueryCache, SharedStore};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The daemon's defaults, which the end-to-end run leaves untouched.
const SYNC_WINDOW: Duration = Duration::from_millis(5);
const CHECKPOINT_EVERY: u64 = 100_000;
const EPOCH_EVERY: u64 = 4096;
/// Events held back before each timed publish, so the publish has
/// something new to cover.
const PUBLISH_PROBE: usize = 64;

/// Sums over the computations of a workload; ratios are taken at the end.
#[derive(Default)]
struct Acc {
    comps: u64,
    events: u64,
    arrivals: u64,
    encode_ns: u64,
    decode_ns: u64,
    wire_bytes: u64,
    offer_ns: u64,
    peak_depth: u64,
    dups: u64,
    accept_ns: u64,
    run_ns: u64,
    snapshot_ns: u64,
    cluster_receives: u64,
    merges: u64,
    stamp_bytes: u64,
    insert_ns: u64,
    cold_ns: u64,
    warm_ns: u64,
    pairs: u64,
    gc_ns: u64,
    gcs: u64,
    window_ns: u64,
    window_events: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    append_ns: u64,
    sync_ms: Vec<f64>,
    wal_bytes: u64,
    scan_ns: u64,
    ckpt_write_ns: u64,
    ckpt_bytes: u64,
    ckpt_recover_ns: u64,
    ingest_ns: u64,
    durable_ns: u64,
    durable_syncs: u64,
    publish_ms: Vec<f64>,
    replay_ns: u64,
    retained_bytes: u64,
    s2_ns: u64,
    s2_cpu_ns: u64,
    cut_ms: Vec<f64>,
    sim_steps: u64,
    sim_batches: u64,
    cross_msgs: u64,
    moves: u64,
    ops: Ops,
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// What a computation's events look like when they reach the daemon: trace
/// order on one connection, otherwise the connections' slices interleaved
/// frame by frame.
fn arrival_order(comp: &Comp, connections: usize, seed: u64, index: usize) -> Vec<Event> {
    let (slices, _) = workload::arrivals(comp.trace.events(), connections, seed, index);
    let mut chunks: Vec<_> = slices.iter().map(|s| s.chunks(STREAM_FRAME)).collect();
    let mut out = Vec::with_capacity(slices.iter().map(Vec::len).sum());
    loop {
        let before = out.len();
        for c in &mut chunks {
            if let Some(chunk) = c.next() {
                out.extend_from_slice(chunk);
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Drive every layer with the workload's input. Returns the per-layer
/// metrics (the `server`/`client`/`stats` figures of `e2e` included) and
/// the operations checked against the oracle on the way.
pub fn run(
    spec: &Spec,
    input: &Input,
    work: &Path,
    e2e: &Report,
    tracer: &mut Tracer,
) -> io::Result<(Vec<Metric>, Ops)> {
    let mut acc = Acc::default();
    let single = spec.kind != Kind::SuiteBurst;
    for (c, comp) in input.comps.iter().enumerate() {
        let arrival = arrival_order(comp, spec.connections, input.seed, c);
        let samples = Samples {
            pairs: if single {
                scaled(20_000, input.scale, 10)
            } else {
                400
            },
            gcs: if single {
                scaled(200, input.scale, 10)
            } else {
                4
            },
            windows: if single {
                scaled(500, input.scale, 10)
            } else {
                10
            },
            seed: input.seed.wrapping_add(c as u64),
        };
        let dir = fresh_dir(work, "layers")?;
        tracer
            .span("layers", &comp.name, comp.num_events(), |t| {
                drive(comp, &arrival, &samples, &dir, &mut acc, t)
            })
            .0?;
    }
    Ok((metrics(&acc, spec, e2e), acc.ops))
}

struct Samples {
    pairs: usize,
    gcs: usize,
    windows: usize,
    seed: u64,
}

fn config(
    comp: &Comp,
    tag: &str,
    shards: u32,
    durability: Option<DurabilityConfig>,
) -> ComputationConfig {
    ComputationConfig {
        name: format!("{}-{tag}", comp.name),
        num_processes: comp.num_processes(),
        max_cluster_size: MAX_CLUSTER_SIZE,
        strategy: StampStrategy::Merge1st {
            max_cluster_size: MAX_CLUSTER_SIZE as usize,
        },
        queue_capacity: 64,
        epoch_every: EPOCH_EVERY,
        shards,
        auto_scale: false,
        balance: false,
        pin_cores: false,
        placement: None,
        durability,
        query_cache_capacity: 0,
        retain_epochs: 0,
        retain_bytes: 0,
    }
}

fn batches(events: &[Event]) -> Vec<Vec<Event>> {
    events.chunks(STREAM_FRAME).map(<[Event]>::to_vec).collect()
}

/// Feed pre-cloned batches and wait for the barrier.
fn feed(comp: &Computation, batches: Vec<Vec<Event>>, expected: u64) -> io::Result<()> {
    for b in batches {
        comp.enqueue_events(b)
            .map_err(|_| invalid("pipeline closed during ingest"))?;
    }
    comp.flush(expected, Duration::from_secs(120))
        .map(|_| ())
        .map_err(|e| invalid(format!("pipeline flush: {e:?}")))
}

/// One computation through every layer.
fn drive(
    comp: &Comp,
    arrival: &[Event],
    samples: &Samples,
    dir: &Path,
    acc: &mut Acc,
    t: &mut Tracer,
) -> io::Result<()> {
    let n = comp.num_processes();
    let total = comp.num_events();
    acc.comps += 1;
    acc.events += total;
    acc.arrivals += arrival.len() as u64;
    let policy = || MergeOnFirst::new(MAX_CLUSTER_SIZE as usize);

    // ---- wire: encode, then frame-split and decode the byte stream ----
    let msgs: Vec<Msg> = arrival
        .chunks(STREAM_FRAME)
        .map(|c| Msg::Events(c.to_vec()))
        .collect();
    let (payloads, ns) = t.span("wire", "encode", arrival.len() as u64, |_| {
        msgs.iter().map(Msg::encode).collect::<Vec<_>>()
    });
    acc.encode_ns += ns;
    let mut stream = Vec::new();
    for p in &payloads {
        stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
        stream.extend_from_slice(p);
    }
    acc.wire_bytes += stream.len() as u64;
    let (decoded, ns) = t.span("wire", "decode", arrival.len() as u64, |_| {
        let mut frames = FrameBuffer::new();
        let mut events = 0;
        // Socket-read-sized pieces, as the poller hands them over.
        for piece in stream.chunks(64 << 10) {
            frames.extend(piece);
            while let Some(payload) = frames.next_frame()? {
                match Msg::decode(&payload) {
                    Ok(Msg::Events(evs)) => events += black_box(evs).len(),
                    other => return Err(invalid(format!("decode gave {other:?}"))),
                }
            }
        }
        Ok(events)
    });
    acc.decode_ns += ns;
    acc.ops.add(1, u64::from(decoded? != arrival.len()));

    // ---- reorder: arrival order in, delivery order out ----
    let mut buf = ReorderBuffer::new(n);
    let mut delivered: Vec<Event> = Vec::with_capacity(total as usize);
    let ((), ns) = t.span("reorder", "offer", arrival.len() as u64, |_| {
        for &ev in arrival {
            if let Ok(ready) = buf.offer(ev) {
                delivered.extend(ready);
            }
        }
    });
    acc.offer_ns += ns;
    acc.peak_depth = acc.peak_depth.max(buf.peak_depth() as u64);
    acc.dups += buf.duplicates();
    acc.ops.add(1, u64::from(delivered.len() as u64 != total));
    if delivered.len() as u64 != total {
        return Err(invalid("reorder buffer did not deliver the whole trace"));
    }

    // ---- core: online stamping, its snapshot, and the offline baseline ----
    let mut engine = ClusterEngine::new(n, policy());
    let ((), ns) = t.span("core", "accept", total, |_| {
        for &ev in &delivered {
            engine.accept(ev);
        }
    });
    acc.accept_ns += ns;
    let (cts, ns) = t.span("core", "snapshot", 1, |_| engine.snapshot());
    acc.snapshot_ns += ns;
    let (_, ns) = t.span("core", "run", total, |_| {
        black_box(ClusterEngine::run(&comp.trace, policy()))
    });
    acc.run_ns += ns;
    acc.cluster_receives += cts.num_cluster_receives() as u64;
    acc.merges += cts.num_merges() as u64;
    let space = SpaceReport::measure(&cts, Encoding::paper_default(n, MAX_CLUSTER_SIZE as usize));
    acc.stamp_bytes += space.cluster_bytes();

    // ---- store: insert, then the query functions over a shared cache ----
    let store = SharedStore::new(EventStore::new(n));
    let mut handle = store.ingest_handle().map_err(|e| invalid(e.to_string()))?;
    let (refused, ns) = t.span("store", "insert", total, |_| {
        delivered
            .iter()
            .filter(|&&ev| handle.insert(ev).is_err())
            .count()
    });
    acc.insert_ns += ns;
    acc.ops.add(1, u64::from(refused > 0));
    let dtrace = Trace::from_delivery_order(comp.name.clone(), n, delivered.clone())
        .map_err(|_| invalid("reorder output is not a delivery order"))?;
    let cache = SharedQueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY);
    let mut backend = CachedClusterBackend {
        cts: &cts,
        cache: &cache,
    };
    let mut sampler = Sampler::new(samples.seed, 7);
    let pairs: Vec<(EventId, EventId)> = (0..samples.pairs)
        .map(|_| sampler.pair(&comp.trace, total as usize))
        .collect();
    let (cold, ns) = t.span("store", "precedes_cold", pairs.len() as u64, |_| {
        pairs
            .iter()
            .map(|&(e, f)| backend.precedes(&dtrace, e, f))
            .collect::<Vec<bool>>()
    });
    acc.cold_ns += ns;
    let (warm, ns) = t.span("store", "precedes_warm", pairs.len() as u64, |_| {
        pairs
            .iter()
            .map(|&(e, f)| backend.precedes(&dtrace, e, f))
            .collect::<Vec<bool>>()
    });
    acc.warm_ns += ns;
    acc.pairs += pairs.len() as u64;
    let wrong = pairs
        .iter()
        .zip(cold.iter().zip(&warm))
        .filter(|(&(e, f), (&c, &w))| {
            let want = comp.oracle.precedes(&comp.trace, e, f);
            c != want || w != want
        })
        .count();
    acc.ops.add(2 * pairs.len() as u64, wrong as u64);
    let probes: Vec<EventId> = (0..samples.gcs)
        .map(|_| sampler.event(&comp.trace, total as usize))
        .collect();
    let (slots, ns) = t.span("store", "greatest_concurrent", probes.len() as u64, |_| {
        probes
            .iter()
            .map(|&e| greatest_concurrent(&mut backend, &dtrace, e))
            .collect::<Vec<_>>()
    });
    acc.gc_ns += ns;
    acc.gcs += probes.len() as u64;
    // The greatest concurrent elements do not depend on the delivery order.
    let slots: Vec<_> = slots.into_iter().map(Some).collect();
    let wrong = crate::oracle::gc_mismatches(comp, &probes, &slots);
    acc.ops.add(probes.len() as u64, wrong);
    let windows: Vec<(ProcessId, u32)> = (0..samples.windows)
        .map(|_| {
            let id = sampler.event(&comp.trace, total as usize);
            (id.process, id.index.0)
        })
        .collect();
    let (seen, ns) = t.span("store", "process_window", windows.len() as u64, |_| {
        let guard = store.read();
        windows
            .iter()
            .map(|&(p, from)| {
                guard
                    .process_window(p, from, from + PROBE_FRAME as u32)
                    .len()
            })
            .sum::<usize>()
    });
    acc.window_ns += ns;
    acc.window_events += seen as u64;
    let stats = cache.stats();
    acc.cache_hits += stats.hits;
    acc.cache_misses += stats.misses;
    acc.cache_evictions += stats.evictions;

    // ---- wal: append with a barrier every epoch's worth, then scan ----
    let wal_dir = fresh_dir(dir, "wal")?;
    let mut writer = WalWriter::create(&wal_dir, 0, SYNC_WINDOW)?;
    let mut sync_ns = 0;
    let chunks = delivered.chunks(STREAM_FRAME);
    let last = chunks.len() - 1;
    let (r, ns) = t.span("wal", "append", total, |t| -> io::Result<()> {
        for (i, chunk) in chunks.enumerate() {
            writer.append(chunk)?;
            if (i + 1) % (EPOCH_EVERY as usize / STREAM_FRAME) == 0 || i == last {
                let (r, ns) = t.span("wal", "sync", 1, |_| writer.sync());
                r?;
                sync_ns += ns;
                acc.sync_ms.push(ns as f64 / 1e6);
            }
        }
        Ok(())
    });
    r?;
    acc.append_ns += ns - sync_ns;
    acc.wal_bytes += writer.bytes_written();
    let (scanned, ns) = t.span("wal", "scan", total, |_| -> io::Result<usize> {
        let mut events = 0;
        for (_, path) in wal::list_segments(&wal_dir)? {
            events += wal::scan_segment(&path)?.num_events();
        }
        Ok(events)
    });
    acc.scan_ns += ns;
    acc.ops.add(1, u64::from(scanned? as u64 != total));

    // ---- checkpoint: write the whole prefix, recover it (no replay) ----
    let ckpt_dir = fresh_dir(dir, "ckpt")?;
    let meta = CompMeta {
        name: comp.name.clone(),
        num_processes: n,
        max_cluster_size: MAX_CLUSTER_SIZE,
    };
    checkpoint::ensure_meta(&ckpt_dir, &meta)?;
    let (r, ns) = t.span("checkpoint", "write", total, |_| {
        checkpoint::write_checkpoint(&ckpt_dir, &meta, &delivered)
    });
    r?;
    acc.ckpt_write_ns += ns;
    for entry in std::fs::read_dir(&ckpt_dir)? {
        let entry = entry?;
        if entry.file_name() != "meta" {
            acc.ckpt_bytes += entry.metadata()?.len();
        }
    }
    let (r, ns) = t.span("checkpoint", "recover", total, |_| {
        checkpoint::recover_dir(&ckpt_dir)
    });
    acc.ckpt_recover_ns += ns;
    acc.ops.add(1, u64::from(r?.1.total_events() != total));

    // ---- pipeline: the in-process ingest path, no network ----
    let feedstock = batches(arrival);
    let (r, ns) = t.span("pipeline", "ingest", total, |_| {
        let pipe = Computation::spawn(config(comp, "mem", 1, None));
        feed(&pipe, feedstock, total).map(|()| pipe)
    });
    let pipe = r?;
    acc.ingest_ns += ns;
    acc.retained_bytes += pipe.retainer().resident_bytes();
    pipe.shutdown();

    let durability = DurabilityConfig {
        dir: fresh_dir(dir, "durable")?,
        sync_window: SYNC_WINDOW,
        checkpoint_every: CHECKPOINT_EVERY,
        wal_byte_budget: None,
    };
    let durable_cfg = config(comp, "dur", 1, Some(durability));
    let feedstock = batches(arrival);
    let (r, ns) = t.span("pipeline", "ingest_durable", total, |_| -> io::Result<_> {
        let (pipe, _) = Computation::spawn_durable(durable_cfg.clone())?;
        // The daemon's group-commit clock, which nobody else plays here.
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(SYNC_WINDOW);
                    pipe.nudge_wal_sync();
                }
            });
            let fed = feed(&pipe, feedstock, total);
            stop.store(true, Ordering::Release);
            fed
        })?;
        Ok(pipe)
    });
    let pipe = r?;
    acc.durable_ns += ns;
    acc.durable_syncs += pipe.metrics().wal_syncs.load(Ordering::Relaxed);
    // Crash-stop, then recover: checkpoint + WAL tail replayed through the
    // normal pipeline, as after a SIGKILL.
    pipe.kill();
    let (r, ns) = t.span("pipeline", "replay", total, |_| {
        Computation::spawn_durable(durable_cfg.clone())
    });
    let (pipe, recovered) = r?;
    acc.replay_ns += ns;
    acc.ops.add(1, u64::from(recovered.total_events() != total));
    pipe.shutdown();

    // Publish cost along the stream: at each tenth, everything but a few
    // events is flushed untimed, then the rest is enqueued and the barrier
    // timed — one small batch plus one forced snapshot publish.
    let pipe = Computation::spawn(config(comp, "pub", 1, None));
    let mut fed = 0usize;
    for tenth in 1..=10 {
        let end = workload::safe_cut(&delivered, delivered.len() * tenth / 10);
        let hold = workload::safe_cut(&delivered, end.saturating_sub(PUBLISH_PROBE).max(fed));
        feed(&pipe, batches(&delivered[fed..hold]), hold as u64)?;
        let tail = batches(&delivered[hold..end]);
        let (r, ns) = t.span("pipeline", "publish", 1, |_| feed(&pipe, tail, end as u64));
        r?;
        acc.publish_ms.push(ns as f64 / 1e6);
        fed = end;
    }
    pipe.shutdown();

    // ---- shard: two ingest shards, threaded and then simulated ----
    let feedstock = batches(arrival);
    let cpu0 = host::self_cpu_seconds();
    let (r, ns) = t.span("shard", "ingest_s2", total, |_| {
        let pipe = Computation::spawn(config(comp, "s2", 2, None));
        feed(&pipe, feedstock, total).map(|()| pipe)
    });
    acc.s2_ns += ns;
    acc.s2_cpu_ns += ((host::self_cpu_seconds() - cpu0) * 1e9) as u64;
    r?.shutdown();

    let mut sim = SimShards::new(&comp.name, n, 2, MAX_CLUSTER_SIZE as usize);
    let mut schedule = ShardSchedule::round_robin();
    let mut fed = 0usize;
    for tenth in 1..=10 {
        let end = arrival.len() * tenth / 10;
        for chunk in arrival[fed..end].chunks(STREAM_FRAME) {
            // One message per shard that owns part of the batch.
            let owners = chunk
                .iter()
                .fold(0u64, |set, ev| set | 1 << sim.shard_of(ev.process()));
            acc.sim_batches += u64::from(owners.count_ones());
            sim.inject_batch(chunk);
        }
        let ((), _) = t.span("shard", "sim_run", (end - fed) as u64, |_| {
            sim.run_to_quiescence(&mut schedule)
        });
        let (_, ns) = t.span("shard", "cut", 1, |_| black_box(sim.cut()));
        acc.cut_ms.push(ns as f64 / 1e6);
        fed = end;
    }
    acc.sim_steps += schedule.steps() as u64;
    acc.ops.add(1, u64::from(sim.delivered_total() != total));
    let start = initial_routing(n, 2);
    for p in 0..n {
        let now = sim.shard_of(ProcessId(p));
        acc.moves += u64::from(start[p as usize].load(Ordering::Relaxed) as usize != now);
    }
    acc.cross_msgs += comp
        .trace
        .events()
        .iter()
        .filter_map(|ev| Some((ev.process(), ev.kind.receive_source()?.process)))
        .filter(|&(p, q)| sim.shard_of(p) != sim.shard_of(q))
        .count() as u64;
    Ok(())
}

/// Turn the sums into the per-layer metric list and print the ledger.
fn metrics(a: &Acc, spec: &Spec, e2e: &Report) -> Vec<Metric> {
    let per_ev = |ns: u64| ns as f64 / a.events as f64;
    let per_arrival = |ns: u64| ns as f64 / a.arrivals as f64;
    let kev = a.events as f64 / 1e3;
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);

    // Publishes the normal run performs: one per epoch, at sizes spread
    // evenly over the stream, which is what the ten samples average.
    let publishes = a.events as f64 / EPOCH_EVERY as f64;
    let publish_mean_ms = a.publish_ms.iter().sum::<f64>() / a.publish_ms.len() as f64;
    let publish_ns_per_ev = publishes * publish_mean_ms * 1e6 / a.events as f64;
    let ingest = per_ev(a.ingest_ns);
    let durable = per_ev(a.durable_ns);
    let explained = per_arrival(a.decode_ns)
        + per_arrival(a.offer_ns)
        + per_ev(a.accept_ns)
        + per_ev(a.insert_ns);
    let residual = durable
        - per_arrival(a.offer_ns)
        - per_ev(a.accept_ns)
        - per_ev(a.insert_ns)
        - per_ev(a.append_ns);
    // The in-process figure that matches how the daemon of this workload
    // ingests: sharded, durable single worker, or in-memory single worker.
    let in_process = match spec.kind {
        Kind::WideSharded => per_ev(a.s2_ns),
        _ if spec.durable => durable,
        _ => ingest,
    };
    let loopback = e2e.get("ingest_kev_per_s").map_or(f64::NAN, |k| 1e6 / k);
    let cpu_ns = e2e
        .get("daemon_cpu_us_per_ev")
        .map_or(f64::NAN, |us| us * 1e3);
    let wal_share = if spec.durable {
        per_ev(a.append_ns)
    } else {
        0.0
    };
    let explained_share = (explained + wal_share + publish_ns_per_ev) / cpu_ns;

    let m = vec![
        metric("wire.encode_ns_per_ev", per_arrival(a.encode_ns), "ns"),
        metric("wire.decode_ns_per_ev", per_arrival(a.decode_ns), "ns"),
        metric(
            "wire.bytes_per_ev",
            a.wire_bytes as f64 / a.arrivals as f64,
            "B",
        ),
        metric("reorder.offer_ns_per_ev", per_arrival(a.offer_ns), "ns"),
        metric("reorder.peak_depth", a.peak_depth as f64, "count"),
        metric("reorder.dup_dropped", a.dups as f64, "count"),
        metric("core.accept_ns_per_ev", per_ev(a.accept_ns), "ns"),
        metric("core.run_ns_per_ev", per_ev(a.run_ns), "ns"),
        metric(
            "core.snapshot_ms",
            a.snapshot_ns as f64 / 1e6 / a.comps as f64,
            "ms",
        ),
        metric("core.cluster_receives", a.cluster_receives as f64, "count"),
        metric("core.merges", a.merges as f64, "count"),
        metric(
            "core.stamp_bytes_per_ev",
            a.stamp_bytes as f64 / a.events as f64,
            "B",
        ),
        metric("store.insert_ns_per_ev", per_ev(a.insert_ns), "ns"),
        metric(
            "store.precedes_cold_ns",
            a.cold_ns as f64 / a.pairs as f64,
            "ns",
        ),
        metric(
            "store.precedes_warm_ns",
            a.warm_ns as f64 / a.pairs as f64,
            "ns",
        ),
        metric("store.gc_ns", a.gc_ns as f64 / a.gcs as f64, "ns"),
        metric(
            "store.window_ns_per_ev",
            a.window_ns as f64 / a.window_events as f64,
            "ns",
        ),
        metric(
            "store.cache_hit_ratio",
            a.cache_hits as f64 / (a.cache_hits + a.cache_misses) as f64,
            "ratio",
        ),
        metric("store.cache_evictions", a.cache_evictions as f64, "count"),
        metric("wal.append_ns_per_ev", per_ev(a.append_ns), "ns"),
        metric("wal.sync_ms_p50", med(&a.sync_ms), "ms"),
        metric("wal.syncs_per_kev", a.durable_syncs as f64 / kev, "count"),
        metric(
            "wal.bytes_per_ev",
            a.wal_bytes as f64 / a.events as f64,
            "B",
        ),
        metric("wal.scan_ns_per_ev", per_ev(a.scan_ns), "ns"),
        metric("checkpoint.write_ns_per_ev", per_ev(a.ckpt_write_ns), "ns"),
        metric(
            "checkpoint.bytes_per_ev",
            a.ckpt_bytes as f64 / a.events as f64,
            "B",
        ),
        metric(
            "checkpoint.recover_ns_per_ev",
            per_ev(a.ckpt_recover_ns),
            "ns",
        ),
        metric("pipeline.ingest_ns_per_ev", ingest, "ns"),
        metric("pipeline.ingest_durable_ns_per_ev", durable, "ns"),
        metric("pipeline.publish_ms_p50", med(&a.publish_ms), "ms"),
        metric(
            "pipeline.publish_share",
            publish_ns_per_ev / ingest,
            "ratio",
        ),
        metric("pipeline.replay_ns_per_ev", per_ev(a.replay_ns), "ns"),
        metric(
            "pipeline.footprint_bytes_per_ev",
            a.retained_bytes as f64 / a.events as f64,
            "B",
        ),
        metric("pipeline.residual_ns_per_ev", residual, "ns"),
        // One ingest shard is the single-worker pipeline, measured above.
        metric("shard.ingest_ns_per_ev_s1", ingest, "ns"),
        metric("shard.ingest_ns_per_ev_s2", per_ev(a.s2_ns), "ns"),
        metric("shard.cpu_ns_per_ev_s2", per_ev(a.s2_cpu_ns), "ns"),
        metric("shard.cut_ms_p50", med(&a.cut_ms), "ms"),
        metric(
            "shard.cross_msgs_per_kev",
            a.cross_msgs as f64 / kev,
            "count",
        ),
        metric(
            "shard.wakes_per_kev",
            a.sim_steps.saturating_sub(a.sim_batches) as f64 / kev,
            "count",
        ),
        metric("shard.rebalance_moves", a.moves as f64, "count"),
        metric("server.net_ns_per_ev", loopback - in_process, "ns"),
        metric("ledger.explained_share", explained_share, "ratio"),
    ];

    eprintln!("   ledger, ns per event ({}):", spec.name);
    for (name, ns) in [
        ("wire.decode", per_arrival(a.decode_ns)),
        ("reorder.offer", per_arrival(a.offer_ns)),
        ("core.accept", per_ev(a.accept_ns)),
        ("store.insert", per_ev(a.insert_ns)),
        ("wal.append", wal_share),
        ("pipeline.publish", publish_ns_per_ev),
        ("daemon cpu, end to end", cpu_ns),
    ] {
        eprintln!("     {name:<26} {ns:>12.1}");
    }
    eprintln!("     {:<26} {:>12.3}", "explained share", explained_share);
    m
}

/// Self time per layer over the whole traced run, for the ledger table.
pub fn print_self_times(tracer: &Tracer) {
    eprintln!("   self time per layer:");
    for (layer, ns) in tracer.layer_self_ns() {
        eprintln!("     {layer:<12} {:>10.3} s", ns as f64 / 1e9);
    }
}
