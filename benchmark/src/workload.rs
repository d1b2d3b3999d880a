//! The four workloads: what each streams, to what kind of daemon, and why.
//!
//! Each varies one structural property so that a different set of layers
//! dominates: many short computations (`suite_burst`), one long one
//! (`long_durable`), wide clocks through the sharded runtime
//! (`wide_sharded`), and reads beside paced writes (`query_live`).

use crate::daemon::{frame, FramePool, MAX_CLUSTER_SIZE};
use cts_core::strategy::MergeOnFirst;
use cts_core::{ClusterEngine, ClusterTimestamps};
use cts_daemon::loadgen::{build_slice, LoadConfig};
use cts_daemon::wire::Msg;
use cts_model::{Event, EventId, EventKind, Trace};
use cts_util::prng::{ChaCha8Rng, Rng};
use cts_workloads::spmd::BlockedStencil1D;
use cts_workloads::suite::standard_suite;
use cts_workloads::web::{ShardedWebServer, WebServer};
use cts_workloads::Workload;

/// `--seconds` at which every workload runs at its full, stated size.
/// Shorter runs (`--smoke`) shrink inputs in proportion; longer runs only
/// fit more segments or rounds of the same size.
pub const NOMINAL_SECONDS: f64 = 30.0;

/// Events per frame of a saturated stream.
pub const STREAM_FRAME: usize = 512;
/// Events per visibility probe frame.
pub const PROBE_FRAME: usize = 256;
/// Events per frame of the paced `query_live` stream.
pub const PACED_FRAME: usize = 100;
/// Offered rate of the paced stream, events per second.
pub const PACED_RATE: f64 = 20_000.0;
/// Every this many paced frames, a visibility probe follows.
pub const PACED_PROBE_EVERY: usize = 50;
/// One in this many live queries is a greatest-concurrent query.
pub const LIVE_GC_EVERY: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SuiteBurst,
    LongDurable,
    WideSharded,
    QueryLive,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    /// Extra daemon arguments.
    pub daemon_args: &'static [&'static str],
    /// Generator connections during ingest.
    pub connections: usize,
    /// Whether the measured daemon runs with `--data-dir`.
    pub durable: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "suite_burst",
        kind: Kind::SuiteBurst,
        why: "54 short computations, in-memory: wire decode, reorder parking, stamping, store \
              insert and session set-up dominate; publish and WAL are nearly idle",
        daemon_args: &[],
        connections: 2,
        durable: false,
    },
    Spec {
        name: "long_durable",
        kind: Kind::LongDurable,
        why: "one long 128-process computation, durable: snapshot publish, WAL, checkpoint and \
              replay dominate; reorder is a pass-through; queries range over 5x the query cache",
        daemon_args: &[],
        connections: 1,
        durable: true,
    },
    Spec {
        name: "wide_sharded",
        kind: Kind::WideSharded,
        why: "296-process clocks through --shards 2, durable: routing, exchange, cut assembly \
              and per-shard WAL, the fixed overhead of the sharded runtime",
        daemon_args: &["--shards", "2"],
        connections: 2,
        durable: true,
    },
    Spec {
        name: "query_live",
        kind: Kind::QueryLive,
        why: "hub-heavy computation streamed open loop at 20 kev/s while a second connection \
              queries closed loop: reads beside writes, head changing every epoch",
        daemon_args: &[],
        connections: 1,
        durable: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One computation with its offline oracle.
pub struct Comp {
    pub name: String,
    pub trace: Trace,
    /// `ClusterEngine::run` over the trace in its own order: the reference
    /// every daemon answer is compared against.
    pub oracle: ClusterTimestamps,
}

impl Comp {
    fn new(trace: Trace) -> Comp {
        let oracle = ClusterEngine::run(&trace, MergeOnFirst::new(MAX_CLUSTER_SIZE as usize));
        Comp {
            name: trace.name().to_string(),
            trace,
            oracle,
        }
    }

    pub fn num_events(&self) -> u64 {
        self.trace.num_events() as u64
    }

    pub fn num_processes(&self) -> u32 {
        self.trace.num_processes()
    }
}

/// The generated input of one run.
pub struct Input {
    pub comps: Vec<Comp>,
    pub seed: u64,
    /// `min(1, seconds / NOMINAL_SECONDS)`.
    pub scale: f64,
}

impl Input {
    pub fn total_events(&self) -> u64 {
        self.comps.iter().map(Comp::num_events).sum()
    }
}

/// `full` shrunk by `scale`, but never under `min`: how every input size
/// and sample count follows `--seconds` downward.
pub fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale).round() as usize).max(min)
}

/// Generate the workload's computations. The seed picks the traces of the
/// randomized generators; the stencil and the suite are fixed computations,
/// for which the seed varies arrival order and query sample instead.
pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Input {
    let scale = (seconds / NOMINAL_SECONDS).min(1.0);
    let traces: Vec<Trace> = match spec.kind {
        Kind::SuiteBurst => {
            let suite = standard_suite();
            let keep = scaled(suite.len(), scale, 2);
            // A shrunken run keeps a spread of the suite, not its head.
            let stride = suite.len() / keep;
            suite
                .into_iter()
                .step_by(stride.max(1))
                .take(keep)
                .map(|e| e.trace)
                .collect()
        }
        Kind::LongDurable => vec![BlockedStencil1D {
            procs: 128,
            iters: scaled(200, scale, 8) as u32,
            block: 8,
        }
        .generate(seed)],
        Kind::WideSharded => vec![ShardedWebServer {
            shards: 8,
            clients_per_shard: 24,
            workers_per_shard: 11,
            requests: scaled(18_000, scale, 800) as u32,
            affinity: 0.6,
            redirect: 0.05,
        }
        .generate(seed)],
        Kind::QueryLive => vec![WebServer {
            clients: 96,
            workers: 32,
            requests: scaled(18_000, scale, 800) as u32,
            affinity: 0.6,
        }
        .generate(seed)],
    };
    Input {
        comps: traces.into_iter().map(Comp::new).collect(),
        seed,
        scale,
    }
}

/// The cut position at or just before `pos` that does not separate the two
/// halves of a synchronous pair: the reorder buffer delivers a pair only
/// when both halves are in, so a `Flush` for a total that ends between them
/// would wait for ever.
pub fn safe_cut(events: &[Event], pos: usize) -> usize {
    if pos == 0 || pos >= events.len() {
        return pos.min(events.len());
    }
    match events[pos - 1].kind {
        EventKind::Sync { peer } if peer == events[pos].id => pos - 1,
        _ => pos,
    }
}

/// Split `events` into probe frames of about `per_frame` events that each
/// end on a safe cut. Returns the frames and the running event totals,
/// starting from `base`.
pub fn probe_frames(events: &[Event], per_frame: usize, base: u64) -> (FramePool, Vec<u64>) {
    let mut pool = FramePool::default();
    let mut totals = Vec::new();
    let mut start = 0;
    while start < events.len() {
        let end = safe_cut(events, (start + per_frame.max(2)).min(events.len()));
        pool.push(&frame(&Msg::Events(events[start..end].to_vec())));
        totals.push(base + end as u64);
        start = end;
    }
    (pool, totals)
}

/// Pre-encoded `Events` frames of one arrival sequence.
pub fn events_frames(arrivals: &[Event], per_frame: usize) -> FramePool {
    let mut pool = FramePool::default();
    for chunk in arrivals.chunks(per_frame) {
        pool.push(&frame(&Msg::Events(chunk.to_vec())));
    }
    pool
}

/// The arrival order of `events` on each of `connections` connections: with
/// one connection the order is kept; with more, the repository's load
/// generator model — round-robin slices, window-64 shuffle, every 97th event
/// re-sent. Returns the per-connection sequences and the duplicates added.
pub fn arrivals(
    events: &[Event],
    connections: usize,
    seed: u64,
    comp_index: usize,
) -> (Vec<Vec<Event>>, u64) {
    if connections <= 1 {
        return (vec![events.to_vec()], 0);
    }
    let cfg = LoadConfig {
        seed,
        slices_per_comp: connections,
        ..LoadConfig::default()
    };
    let mut dups = 0;
    let slices = (0..connections)
        .map(|s| {
            let (slice, d) = build_slice(events, s, &cfg, comp_index);
            dups += d;
            slice
        })
        .collect();
    (slices, dups)
}

/// Seeded sampler of query targets over a prefix of a trace.
pub struct Sampler {
    rng: ChaCha8Rng,
}

impl Sampler {
    pub fn new(seed: u64, stream: u64) -> Sampler {
        Sampler {
            rng: ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
        }
    }

    /// A uniform event among the first `prefix` events of `trace`.
    pub fn event(&mut self, trace: &Trace, prefix: usize) -> EventId {
        trace.at(self.rng.gen_range(0..prefix)).id
    }

    pub fn pair(&mut self, trace: &Trace, prefix: usize) -> (EventId, EventId) {
        (self.event(trace, prefix), self.event(trace, prefix))
    }
}

/// `n` pre-encoded `QueryPrecedes` frames over uniform pairs, with the
/// pairs.
pub fn precedes_frames(
    sampler: &mut Sampler,
    trace: &Trace,
    n: usize,
) -> (FramePool, Vec<(EventId, EventId)>) {
    let mut pool = FramePool::default();
    let pairs: Vec<_> = (0..n)
        .map(|_| sampler.pair(trace, trace.num_events()))
        .collect();
    for &(e, f) in &pairs {
        pool.push(&frame(&Msg::QueryPrecedes { e, f }));
    }
    (pool, pairs)
}

/// `n` pre-encoded `QueryGreatestConcurrent` frames over uniform events.
pub fn gc_frames(sampler: &mut Sampler, trace: &Trace, n: usize) -> (FramePool, Vec<EventId>) {
    let mut pool = FramePool::default();
    let events: Vec<_> = (0..n)
        .map(|_| sampler.event(trace, trace.num_events()))
        .collect();
    for &e in &events {
        pool.push(&frame(&Msg::QueryGreatestConcurrent { e }));
    }
    (pool, events)
}

/// The send schedule of the paced stream: frame `i` is due `i / rate`
/// frames-worth of seconds after the start. Fixed before the run, so a slow
/// daemon cannot slow the offered load.
pub fn paced_schedule_ns(frames: usize, events_per_frame: usize, rate: f64) -> Vec<u64> {
    let gap_ns = events_per_frame as f64 / rate * 1e9;
    (0..frames).map(|i| (i as f64 * gap_ns) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_schedule_is_evenly_spaced_and_independent_of_the_run() {
        let s = paced_schedule_ns(5, 100, 20_000.0);
        assert_eq!(s, vec![0, 5_000_000, 10_000_000, 15_000_000, 20_000_000]);
        assert!(paced_schedule_ns(0, 100, 20_000.0).is_empty());
        // The last frame of N events at rate R is due just under N/R seconds in.
        let s = paced_schedule_ns(2000, 100, 20_000.0);
        assert_eq!(*s.last().unwrap(), 9_995_000_000);
    }

    #[test]
    fn cuts_and_probe_frames_never_split_a_synchronous_pair() {
        use cts_model::{ProcessId, TraceBuilder};
        let mut b = TraceBuilder::new(2);
        b.internal(ProcessId(0)).unwrap();
        b.sync(ProcessId(0), ProcessId(1)).unwrap();
        b.internal(ProcessId(1)).unwrap();
        b.sync(ProcessId(1), ProcessId(0)).unwrap();
        let t = b.finish("sync");
        let ev = t.events();
        assert_eq!(ev.len(), 6);
        // [int, s, s', int, s, s']: cutting at 2 or 5 would split a pair.
        let cuts: Vec<usize> = (0..=6).map(|p| safe_cut(ev, p)).collect();
        assert_eq!(cuts, vec![0, 1, 1, 3, 4, 4, 6]);
        let (pool, totals) = probe_frames(ev, 2, 10);
        assert_eq!(totals, vec![11, 13, 14, 16]);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn same_seed_same_input_and_scale_shrinks_it() {
        let spec = spec("query_live").unwrap();
        let a = generate(spec, 7, 1.0);
        let b = generate(spec, 7, 1.0);
        assert_eq!(a.comps[0].trace.events(), b.comps[0].trace.events());
        let c = generate(spec, 8, 1.0);
        assert_ne!(a.comps[0].trace.events(), c.comps[0].trace.events());
        assert!((a.scale - 1.0 / NOMINAL_SECONDS).abs() < 1e-12);
        assert!(a.total_events() < 20_000);
    }

    #[test]
    fn multi_connection_arrivals_cover_every_event_and_count_duplicates() {
        let input = generate(spec("wide_sharded").unwrap(), 1, 1.0);
        let events = input.comps[0].trace.events();
        let (slices, dups) = arrivals(events, 2, 1, 0);
        assert_eq!(slices.len(), 2);
        let sent: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(sent as u64, events.len() as u64 + dups);
        assert!(dups > 0);
        let (one, none) = arrivals(events, 1, 1, 0);
        assert_eq!((one[0].as_slice(), none), (events, 0));
    }
}
