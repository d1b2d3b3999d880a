//! The end-to-end run of one workload against a `cts-daemon` child process.
//!
//! A shared host slows down and speeds up in waves that last longer than
//! any single phase, so no metric is taken from one stretch of the run. A
//! run is a sequence of *segments* (or, on `suite_burst`, rounds), each on a
//! fresh daemon and each visiting every phase: cold starts, ingest, blocks
//! of every query kind in turn, crash and restart. Every metric is a median
//! over the whole run — of the pooled samples or of the per-segment values.
//! Tails and generator-health figures are collected on the side and only
//! surface in the traced run's per-layer list.

use crate::daemon::{frame, hello_frame, Conn, DaemonProc, FramePool, Launch};
use crate::host;
use crate::oracle::{self, GcSlots};
use crate::phases::{self, Budget};
use crate::spans::Tracer;
use crate::stats::{median, median_of_rounds, percentile};
use crate::workload::{
    self, scaled, Comp, Input, Kind, Sampler, Spec, LIVE_GC_EVERY, PACED_FRAME, PACED_PROBE_EVERY,
    PACED_RATE, PROBE_FRAME, STREAM_FRAME,
};
use cts_daemon::wire::Msg;
use cts_model::EventId;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests in flight during the pipelined read phase.
const PIPELINE_DEPTH: usize = 32;
/// Cold starts timed before each segment, and before each `suite_burst`
/// round, behind `setup_s`.
const SETUP_PER_SEGMENT: usize = 8;
const SETUP_PER_ROUND: usize = 2;
/// A one-computation workload runs at least this many segments, and more
/// while another fits in `--seconds`.
const MIN_SEGMENTS: usize = 2;
/// Query cycles per segment: each cycle is one block of every query kind.
const CYCLES: usize = 6;
/// Share of `--seconds` one block runs for: depth-1 precedence queries,
/// depth-1 greatest-concurrent queries (milliseconds each, so the longest
/// block), pipelined reads.
const PRECEDES_BLOCK_SHARE: f64 = 0.003;
const GC_BLOCK_SHARE: f64 = 0.007;
const READS_BLOCK_SHARE: f64 = 0.005;
/// Share of `--seconds` the `suite_burst` rounds may fill before the last
/// one starts.
const ROUNDS_SHARE: f64 = 0.9;
/// On `suite_burst` a restart is timed after every this many rounds.
const ROUNDS_PER_RESTART: usize = 2;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one end-to-end run produced.
#[derive(Default)]
pub struct Report {
    /// The end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// `server.*`, `stats.*` and `client.*` figures of the same run.
    pub side: Vec<Metric>,
    pub ops: phases::Ops,
    /// `(phase, seconds, samples)` of every timed phase, summed over the
    /// segments or rounds of the run.
    pub phases: Vec<(String, f64, u64)>,
    pub notes: Vec<String>,
}

impl Report {
    /// Count operations; failures also leave a note saying where.
    fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.ops.add(attempted, failed);
        if failed > 0 {
            self.notes
                .push(format!("FAILED {what}: {failed} of {attempted}"));
        }
    }

    fn phase(&mut self, name: &str, seconds: f64, samples: u64) {
        match self.phases.iter_mut().find(|(n, ..)| n == name) {
            Some((_, s, k)) => {
                *s += seconds;
                *k += samples;
            }
            None => self.phases.push((name.to_string(), seconds, samples)),
        }
    }

    fn note_once(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.side)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn p99(samples: &[f64]) -> f64 {
    percentile(samples, 99.0).unwrap_or(f64::NAN)
}

/// Run one workload end to end.
///
/// With `tracer.enabled` off this is the complete run behind the end-to-end
/// metrics. With it on it is the traced variant that feeds the per-layer
/// list: ingest is run untraced first and then with a client-side span
/// around every wire write (the difference is `trace.overhead_pct`), the
/// `server.*` side phases are added, and the phases only end-to-end metrics
/// need (cold starts, pipelined reads, restarts) are left out.
pub fn run(
    spec: &Spec,
    input: &Input,
    launch: &Launch,
    seconds: f64,
    tracer: &mut Tracer,
) -> io::Result<Report> {
    let mut report = Report::default();
    match spec.kind {
        Kind::SuiteBurst => suite_burst(spec, input, launch, seconds, tracer, &mut report)?,
        _ => single(spec, input, launch, seconds, tracer, &mut report)?,
    }
    Ok(report)
}

/// Time `n` more cold starts into `samples`; the very first of a run also
/// warms the page cache and is dropped.
fn more_setup_samples(
    launch: &Launch,
    durable: bool,
    comps: &[Comp],
    n: usize,
    samples: &mut Vec<f64>,
    report: &mut Report,
) -> io::Result<()> {
    let warm_up = samples.is_empty();
    let new = phases::setup_samples(launch, durable, comps, n, warm_up)?;
    report.count("setup", (new.len() * (comps.len() + 1)) as u64, 0);
    report.phase("setup", new.iter().sum(), new.len() as u64);
    samples.extend(new);
    Ok(())
}

/// By how much tracing lowered ingest throughput, in percent of the
/// untraced figure.
fn overhead_pct(untraced_kev: f64, traced_kev: f64) -> Metric {
    metric(
        "trace.overhead_pct",
        (untraced_kev - traced_kev) / untraced_kev * 100.0,
        "%",
    )
}

// ---------------------------------------------------------------------------
// One long computation: long_durable, wide_sharded, query_live
// ---------------------------------------------------------------------------

/// Throughput and daemon CPU cost of one ingest.
#[derive(Clone, Copy)]
struct Ingest {
    kev_per_s: f64,
    cpu_us_per_ev: f64,
}

impl Ingest {
    fn push(self, report: &mut Report) {
        report
            .e2e
            .push(metric("ingest_kev_per_s", self.kev_per_s, "kev/s"));
        report
            .e2e
            .push(metric("daemon_cpu_us_per_ev", self.cpu_us_per_ev, "us"));
    }
}

/// Depth-1 round-trip samples, pooled over every block of the run.
#[derive(Default)]
struct Depth1 {
    precedes_us: Vec<f64>,
    gc_us: Vec<f64>,
}

impl Depth1 {
    /// Medians are end-to-end metrics, tails per-layer ones.
    fn push(&self, report: &mut Report) {
        for (name, samples) in [("precedes", &self.precedes_us), ("gc", &self.gc_us)] {
            report
                .e2e
                .push(metric(&format!("{name}_p50_us"), med(samples), "us"));
            report
                .side
                .push(metric(&format!("server.{name}_p99_us"), p99(samples), "us"));
        }
    }
}

/// What the query blocks of a run collected.
#[derive(Default)]
struct Queries {
    depth1: Depth1,
    /// Replies per second of each pipelined block.
    read_rates: Vec<f64>,
}

/// Every query of a segment, encoded once per run. Each segment walks the
/// pools from the start, so every daemon of a run answers the same sample.
struct QueryPools {
    precedes: FramePool,
    precedes_pairs: Vec<(EventId, EventId)>,
    gc: FramePool,
    gc_events: Vec<EventId>,
    reads: FramePool,
    reads_pairs: Vec<(EventId, EventId)>,
    /// Seconds one block of each kind runs for.
    precedes_block_s: f64,
    gc_block_s: f64,
    reads_block_s: f64,
}

impl QueryPools {
    /// Pools large enough that no block runs out at any rate the daemon
    /// reaches: 40 000 depth-1 and 250 000 pipelined precedence queries a
    /// second, 5 000 greatest-concurrent ones.
    fn new(comp: &Comp, seed: u64, seconds: f64, reads: bool) -> QueryPools {
        let precedes_block_s = seconds * PRECEDES_BLOCK_SHARE;
        let gc_block_s = seconds * GC_BLOCK_SHARE;
        let reads_block_s = seconds * READS_BLOCK_SHARE;
        let mut sampler = Sampler::new(seed, 1);
        let per_segment = |rate: f64, block_s: f64| (CYCLES as f64 * block_s * rate) as usize + 64;
        let (precedes, precedes_pairs) = workload::precedes_frames(
            &mut sampler,
            &comp.trace,
            per_segment(40e3, precedes_block_s),
        );
        let (gc, gc_events) =
            workload::gc_frames(&mut sampler, &comp.trace, per_segment(5e3, gc_block_s));
        let n_reads = if reads {
            per_segment(250e3, reads_block_s)
        } else {
            0
        };
        let (reads, reads_pairs) = workload::precedes_frames(&mut sampler, &comp.trace, n_reads);
        QueryPools {
            precedes,
            precedes_pairs,
            gc,
            gc_events,
            reads,
            reads_pairs,
            precedes_block_s,
            gc_block_s,
            reads_block_s,
        }
    }
}

/// What a segment streams: encoded once per run.
enum Stream {
    Saturated(SaturatedPlan),
    Paced(Box<PacedPlan>),
}

/// The per-segment values that are not pooled samples.
struct Segment {
    ingest: Ingest,
    rss_mib: f64,
    cluster_receives: u64,
    recovery_s: Option<f64>,
}

fn single(
    spec: &Spec,
    input: &Input,
    launch: &Launch,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let started = Instant::now();
    let comp = &input.comps[0];
    let total = comp.num_events();
    let full = !tracer.enabled;
    // The traced run has one segment: its blocks are twice as long, so that
    // the depth-1 tails have samples beyond them.
    let share = if full { 1.0 } else { 2.0 };
    let pools = QueryPools::new(comp, input.seed, seconds * share, full);
    let stream = match spec.kind {
        Kind::QueryLive => Stream::Paced(Box::new(PacedPlan::new(input))),
        _ => Stream::Saturated(SaturatedPlan::new(spec, input, !full)),
    };
    let mut queries = Queries::default();

    if !full {
        // One untraced ingest to compare the traced one with, then one
        // traced segment.
        let mut scratch = Report::default();
        let mut off = Tracer::new(false);
        let (untraced, scratch_daemon, _) =
            segment_ingest(input, launch, &stream, &mut off, &mut scratch)?;
        drop(scratch_daemon);
        let seg = segment(input, launch, &stream, &pools, tracer, report, &mut queries)?;
        seg.ingest.push(report);
        report
            .side
            .push(overhead_pct(untraced.kev_per_s, seg.ingest.kev_per_s));
        queries.depth1.push(report);
        push_tail(&[seg], total, report);
        return Ok(());
    }

    let mut setup = Vec::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut longest = 0.0f64;
    while segments.len() < MIN_SEGMENTS || started.elapsed().as_secs_f64() + longest < seconds {
        let t0 = Instant::now();
        more_setup_samples(
            launch,
            spec.durable,
            &input.comps,
            SETUP_PER_SEGMENT,
            &mut setup,
            report,
        )?;
        let mut off = Tracer::new(false);
        segments.push(segment(
            input,
            launch,
            &stream,
            &pools,
            &mut off,
            report,
            &mut queries,
        )?);
        longest = longest.max(t0.elapsed().as_secs_f64());
    }
    report.notes.push(format!("{} segments", segments.len()));

    report.e2e.push(metric("setup_s", med(&setup), "s"));
    let over = |f: fn(&Segment) -> f64| med(&segments.iter().map(f).collect::<Vec<_>>());
    Ingest {
        kev_per_s: over(|s| s.ingest.kev_per_s),
        cpu_us_per_ev: over(|s| s.ingest.cpu_us_per_ev),
    }
    .push(report);
    queries.depth1.push(report);
    report
        .e2e
        .push(metric("reads_per_s", med(&queries.read_rates), "1/s"));
    push_tail(&segments, total, report);
    let recoveries: Vec<f64> = segments.iter().filter_map(|s| s.recovery_s).collect();
    report.e2e.push(metric("recovery_s", med(&recoveries), "s"));
    Ok(())
}

/// The figures read off the daemon at the end of each segment.
fn push_tail(segments: &[Segment], total: u64, report: &mut Report) {
    let cr: Vec<f64> = segments
        .iter()
        .map(|s| s.cluster_receives as f64 / total as f64 * 1e3)
        .collect();
    report.e2e.push(metric("cr_per_kev", med(&cr), "count"));
    let rss: Vec<f64> = segments.iter().map(|s| s.rss_mib).collect();
    report.e2e.push(metric("peak_rss_mb", med(&rss), "MiB"));
}

/// A daemon that holds the computation. The connection is declared, and so
/// dropped, before the daemon.
struct Running {
    conn: Conn,
    daemon: DaemonProc,
    data: PathBuf,
}

/// Cold start on an empty data directory and stream the computation in.
/// Returns the ingest figures, the daemon, and what the paced stream's live
/// queries sampled.
fn segment_ingest(
    input: &Input,
    launch: &Launch,
    stream: &Stream,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<(Ingest, Running, Depth1)> {
    let comp = &input.comps[0];
    let data = phases::fresh_dir(&launch.work, "data")?;
    let (daemon, mut conn, _) = phases::cold_start(launch, "run", Some(&data), &input.comps)?;
    report.count("open", 2, 0);
    let (ingest, live) = match stream {
        Stream::Paced(plan) => paced_ingest(plan, comp, &daemon, &mut conn, tracer, report)?,
        Stream::Saturated(plan) => (
            saturated_ingest(plan, comp, &daemon, &mut conn, tracer, report)?,
            Depth1::default(),
        ),
    };
    Ok((ingest, Running { conn, daemon, data }, live))
}

/// One segment: fresh daemon, ingest, `CYCLES` cycles of query blocks, the
/// daemon's own figures, `SIGKILL`, and (untraced) a timed restart on the
/// directory the crash left.
fn segment(
    input: &Input,
    launch: &Launch,
    stream: &Stream,
    pools: &QueryPools,
    tracer: &mut Tracer,
    report: &mut Report,
    queries: &mut Queries,
) -> io::Result<Segment> {
    let comp = &input.comps[0];
    let full = !tracer.enabled;
    let (ingest, running, live) = segment_ingest(input, launch, stream, tracer, report)?;
    let Running {
        mut conn,
        daemon,
        data,
    } = running;
    // The paced stream was queried while it ran; the saturated one is now.
    let depth1_blocks = matches!(stream, Stream::Saturated(_));
    queries.depth1.precedes_us.extend(live.precedes_us);
    queries.depth1.gc_us.extend(live.gc_us);
    query_blocks(
        comp,
        &mut conn,
        pools,
        depth1_blocks,
        tracer,
        report,
        queries,
    )?;
    let cluster_receives = cluster_receives(&mut conn, report)?;
    if !full {
        server_side_phases(comp, &mut conn, input.seed, input.scale, report)?;
    }
    let rss_mib = daemon.peak_rss_mib()?;
    drop(conn);
    daemon.kill();
    let recovery_s = if full {
        let (daemon, secs, ops) = phases::recover(launch, "recover", &data, &input.comps)?;
        daemon.kill();
        report.count("restart", ops.attempted, ops.failed);
        report.phase("recovery", secs, 1);
        Some(secs)
    } else {
        None
    };
    Ok(Segment {
        ingest,
        rss_mib,
        cluster_receives,
        recovery_s,
    })
}

/// `CYCLES` cycles of one block per query kind: depth-1 precedence, depth-1
/// greatest-concurrent (both over uniform random events of the complete
/// trace, and only when `depth1`), and pipelined precedence (when the pools
/// hold any). Every answer is checked right after its block, outside the
/// timing.
fn query_blocks(
    comp: &Comp,
    conn: &mut Conn,
    pools: &QueryPools,
    depth1: bool,
    tracer: &mut Tracer,
    report: &mut Report,
    queries: &mut Queries,
) -> io::Result<()> {
    let (mut p_at, mut g_at, mut r_at) = (0, 0, 0);
    let block = |seconds| Budget { min: 16, seconds };
    for _ in 0..CYCLES {
        if depth1 {
            let (r, ns) = tracer.span("client", "precedes_depth1", 0, |_| {
                phases::depth1(conn, &pools.precedes, p_at, block(pools.precedes_block_s))
            });
            let (us, replies) = r?;
            report.phase("precedes_depth1", ns as f64 / 1e9, us.len() as u64);
            let answers = phases::precedes_answers(&replies);
            let asked = &pools.precedes_pairs[p_at..p_at + answers.len()];
            let wrong = oracle::precedes_mismatches(comp, asked, &answers);
            report.count("precedes_depth1", answers.len() as u64, wrong);
            p_at += us.len();
            queries.depth1.precedes_us.extend(us);

            let (r, ns) = tracer.span("client", "gc_depth1", 0, |_| {
                phases::depth1(conn, &pools.gc, g_at, block(pools.gc_block_s))
            });
            let (us, replies) = r?;
            report.phase("gc_depth1", ns as f64 / 1e9, us.len() as u64);
            let answers = phases::gc_answers(replies);
            let asked = &pools.gc_events[g_at..g_at + answers.len()];
            let wrong = oracle::gc_mismatches(comp, asked, &answers);
            report.count("gc_depth1", answers.len() as u64, wrong);
            g_at += us.len();
            queries.depth1.gc_us.extend(us);
        }
        if pools.reads.len() > 0 {
            // Pipelined reads: the query path without the wake-up latency.
            let reads = phases::pipelined(
                conn,
                &pools.reads,
                r_at,
                PIPELINE_DEPTH,
                block(pools.reads_block_s),
            )?;
            let answers = phases::precedes_answers(&reads.replies);
            report.phase("reads_pipelined", reads.seconds, answers.len() as u64);
            let asked = &pools.reads_pairs[r_at..r_at + answers.len()];
            let wrong = oracle::precedes_mismatches(comp, asked, &answers);
            report.count("reads_pipelined", answers.len() as u64, wrong);
            r_at += answers.len();
            queries
                .read_rates
                .push(answers.len() as f64 / reads.seconds);
        }
    }
    Ok(())
}

/// A saturated stream, encoded: the body split over the connections, and
/// (traced run only) a held-back tail that feeds the visibility probes.
struct SaturatedPlan {
    pools: Vec<FramePool>,
    probe_pool: FramePool,
    totals: Vec<u64>,
    body_len: usize,
    dups: u64,
}

impl SaturatedPlan {
    fn new(spec: &Spec, input: &Input, with_probes: bool) -> SaturatedPlan {
        let events = input.comps[0].trace.events();
        // Visibility probes feed the per-layer list only: the untraced run
        // streams the whole trace.
        let probes = if with_probes {
            scaled(40, input.scale, 3)
        } else {
            0
        };
        let body_len =
            workload::safe_cut(events, events.len().saturating_sub(probes * PROBE_FRAME));
        let (body, tail) = events.split_at(body_len);
        let (slices, dups) = workload::arrivals(body, spec.connections, input.seed, 0);
        let (probe_pool, totals) = workload::probe_frames(tail, PROBE_FRAME, body_len as u64);
        SaturatedPlan {
            pools: slices
                .iter()
                .map(|s| workload::events_frames(s, STREAM_FRAME))
                .collect(),
            probe_pool,
            totals,
            body_len,
            dups,
        }
    }
}

/// Closed-loop ingest at a fixed input size: every frame of the body is
/// written as fast as the daemon takes it, then a `Flush`; the tail, when
/// there is one, then feeds the visibility probes.
fn saturated_ingest(
    plan: &SaturatedPlan,
    comp: &Comp,
    daemon: &DaemonProc,
    conn: &mut Conn,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<Ingest> {
    let SaturatedPlan {
        pools,
        probe_pool,
        totals,
        body_len,
        dups,
    } = plan;
    let body_len = *body_len;
    let hello = hello_frame(&comp.name, comp.num_processes());
    // Helper connections are opened before the clock starts.
    let mut helpers = Vec::new();
    for _ in 1..pools.len() {
        let mut c = Conn::connect(daemon.addr)?;
        c.call(&hello)?;
        helpers.push(c);
    }
    let frames: usize = pools.iter().map(FramePool::len).sum();

    let cpu0 = daemon.cpu_seconds()?;
    let self0 = host::self_cpu_seconds();
    let (result, ns) = tracer.span("client", "ingest", body_len as u64, |tracer| {
        std::thread::scope(|s| -> io::Result<u64> {
            let handles: Vec<_> = helpers
                .iter_mut()
                .zip(&pools[1..])
                .map(|(c, pool)| {
                    let mut t = tracer.fork();
                    s.spawn(move || phases::send_all(c, pool, &mut t).map(|()| t))
                })
                .collect();
            phases::send_all(conn, &pools[0], tracer)?;
            for h in handles {
                tracer.absorb(h.join().expect("sender thread panicked")?);
            }
            tracer
                .span("client", "flush", 1, |_| conn.flush(body_len as u64))
                .0
        })
    });
    let delivered = result?;
    let secs = ns as f64 / 1e9;
    let cpu = daemon.cpu_seconds()? - cpu0;
    let self_cpu = host::self_cpu_seconds() - self0;
    report.phase("ingest", secs, body_len as u64);
    report.count(
        "ingest",
        frames as u64 + 1,
        u64::from(delivered != body_len as u64),
    );
    let ingest = Ingest {
        kev_per_s: body_len as f64 / secs / 1e3,
        cpu_us_per_ev: cpu / body_len as f64 * 1e6,
    };
    generator_health(self_cpu / secs, &[], report);
    report.note_once(format!(
        "{dups} duplicate events sent, {frames} frames per ingest"
    ));

    if !totals.is_empty() {
        let (r, ns) = tracer.span("client", "visible_probes", totals.len() as u64, |_| {
            phases::visible_probes(conn, probe_pool, totals)
        });
        let (lat_ms, failed) = r?;
        report.phase("visible", ns as f64 / 1e9, lat_ms.len() as u64);
        report.count("visible", 2 * lat_ms.len() as u64, failed);
        push_visible(&lat_ms, report);
    }
    Ok(ingest)
}

/// Time until a sent frame is answerable. A per-layer figure, not an
/// end-to-end metric: the sharded runtime's cut makes it bimodal, and it does
/// not repeat within a quarter between runs on a shared host.
fn push_visible(lat_ms: &[f64], report: &mut Report) {
    set_side(report, "server.visible_p50_ms", med(lat_ms), "ms");
    set_side(report, "server.visible_p99_ms", p99(lat_ms), "ms");
}

/// Set a side figure, replacing what an earlier segment or round left.
fn set_side(report: &mut Report, name: &str, value: f64, unit: &'static str) {
    match report.side.iter_mut().find(|m| m.name == name) {
        Some(m) => m.value = value,
        None => report.side.push(metric(name, value, unit)),
    }
}

/// The generator must not be what is measured: it fails the run when it
/// used most of its core during saturated ingest, or ran late on the paced
/// stream. The side figures are those of the last ingest.
fn generator_health(cpu_share: f64, lag_ms: &[f64], report: &mut Report) {
    let lag_p50 = median(lag_ms).unwrap_or(0.0);
    let lag_max = lag_ms.iter().copied().fold(0.0, f64::max);
    set_side(report, "client.cpu_share", cpu_share, "ratio");
    set_side(report, "client.send_lag_p50_ms", lag_p50, "ms");
    set_side(report, "client.send_lag_max_ms", lag_max, "ms");
    let bound = if lag_ms.is_empty() {
        cpu_share > 0.7
    } else {
        lag_p50 > 1.0
    };
    if bound {
        report.notes.push(format!(
            "FAILED generator_bound: cpu share {cpu_share:.2}, send lag p50 {lag_p50:.3} ms"
        ));
        report.ops.add(0, 1);
    }
}

fn cluster_receives(conn: &mut Conn, report: &mut Report) -> io::Result<u64> {
    match conn.call(&frame(&Msg::QueryClusterMap))? {
        Msg::ClusterMapResult {
            cluster_receives, ..
        } => {
            report.count("cluster_map", 1, 0);
            Ok(cluster_receives)
        }
        other => Err(crate::daemon::unexpected("QueryClusterMap", &other)),
    }
}
/// Side phases of the traced run: the no-op round trip under every depth-1
/// figure, a window scroll, and the daemon's own counters.
fn server_side_phases(
    comp: &Comp,
    conn: &mut Conn,
    seed: u64,
    scale: f64,
    report: &mut Report,
) -> io::Result<()> {
    let noop = frame(&Msg::ProtoHello {
        protocol_max: cts_daemon::wire::PROTOCOL,
        wal_max: cts_daemon::wire::WAL_FORMAT,
    });
    let mut pool = FramePool::default();
    let n = scaled(4_000, scale, 200);
    (0..n).for_each(|_| pool.push(&noop));
    let (rtt_us, _) = phases::depth1(conn, &pool, 0, Budget::whole(n))?;
    report.count("noop", n as u64, 0);
    report
        .side
        .push(metric("server.noop_rtt_us", med(&rtt_us), "us"));

    // 256-id pages at random offsets of random processes.
    let mut sampler = Sampler::new(seed, 9);
    let mut pool = FramePool::default();
    let n = scaled(1_000, scale, 50);
    let mut expect = Vec::with_capacity(n);
    for _ in 0..n {
        let id = sampler.event(&comp.trace, comp.trace.num_events());
        let len = comp.trace.process_len(id.process) as u32;
        let from = id
            .index
            .0
            .min(len.saturating_sub(PROBE_FRAME as u32))
            .max(1);
        let to = (from + PROBE_FRAME as u32).min(len + 1);
        expect.push(to - from);
        pool.push(&frame(&Msg::QueryWindow {
            process: id.process.0,
            from,
            to,
            limit: 0,
        }));
    }
    let (win_us, replies) = phases::depth1(conn, &pool, 0, Budget::whole(n))?;
    let wrong = replies
        .iter()
        .zip(&expect)
        .filter(
            |(m, &want)| !matches!(m, Msg::WindowResult { ids, .. } if ids.len() as u32 == want),
        )
        .count();
    report.count("window", n as u64, wrong as u64);
    report
        .side
        .push(metric("server.window_p50_us", med(&win_us), "us"));

    // Batched reads: 256 pairs per frame through the daemon's query pool.
    let n = scaled(200, scale, 10);
    let mut pool = FramePool::default();
    let mut all_pairs = Vec::with_capacity(n * PROBE_FRAME);
    for _ in 0..n {
        let pairs: Vec<_> = (0..PROBE_FRAME)
            .map(|_| sampler.pair(&comp.trace, comp.trace.num_events()))
            .collect();
        pool.push(&frame(&Msg::QueryPrecedesBatch {
            pairs: pairs.clone(),
        }));
        all_pairs.extend(pairs);
    }
    let (batch_us, replies) = phases::depth1(conn, &pool, 0, Budget::whole(n))?;
    let answers: Vec<Option<bool>> = replies
        .into_iter()
        .flat_map(|m| match m {
            Msg::PrecedesBatchResult { verdicts, .. } => verdicts,
            _ => Vec::new(),
        })
        .collect();
    let wrong = oracle::precedes_mismatches(comp, &all_pairs, &answers);
    report.count("precedes_batch", all_pairs.len() as u64, wrong);
    let total_us: f64 = batch_us.iter().sum();
    report.side.push(metric(
        "query_pool.batch_ns_per_item",
        med(&batch_us) * 1e3 / PROBE_FRAME as f64,
        "ns",
    ));
    report.side.push(metric(
        "query_pool.batch_items_per_s",
        all_pairs.len() as f64 / (total_us / 1e6),
        "1/s",
    ));
    push_stats(conn, report)
}

fn push_stats(conn: &mut Conn, report: &mut Report) -> io::Result<()> {
    let s = match conn.call(&frame(&Msg::Stats))? {
        Msg::StatsResult(s) => s,
        other => return Err(crate::daemon::unexpected("Stats", &other)),
    };
    report.count("stats", 1, 0);
    for (name, value, unit) in [
        ("stats.ingest_p50_ns", s.ingest_p50_ns, "ns"),
        ("stats.precedes_p50_ns", s.precedes_p50_ns, "ns"),
        ("stats.gc_p50_ns", s.gc_p50_ns, "ns"),
        ("stats.snapshots_published", s.snapshots_published, "count"),
        ("stats.cache_hits", s.cache_hits, "count"),
        ("stats.cache_misses", s.cache_misses, "count"),
        ("stats.reorder_peak", s.reorder_peak, "count"),
    ] {
        report.side.push(metric(name, value as f64, unit));
    }
    Ok(())
}
// ---------------------------------------------------------------------------
// query_live: paced open-loop stream beside closed-loop queries
// ---------------------------------------------------------------------------

/// A live query and where its answer is checked.
#[derive(Clone, Copy)]
enum LiveQuery {
    Precedes(EventId, EventId),
    Gc(EventId),
}

/// Queries encoded per generation of the paced stream.
const LIVE_PER_GEN: usize = 8_000;

/// The paced stream and its live queries, encoded: nothing is encoded
/// while the stream runs. Generation `g` of queries ranges over the prefix
/// probe `g` acknowledged.
struct PacedPlan {
    pool: FramePool,
    schedule: Vec<u64>,
    gen_pools: Vec<FramePool>,
    gen_queries: Vec<Vec<LiveQuery>>,
}

impl PacedPlan {
    fn new(input: &Input) -> PacedPlan {
        let comp = &input.comps[0];
        let events = comp.trace.events();
        let total = events.len();
        let pool = workload::events_frames(events, PACED_FRAME);
        let schedule = workload::paced_schedule_ns(pool.len(), PACED_FRAME, PACED_RATE);
        let gens = pool.len() / PACED_PROBE_EVERY;
        let gen_prefix = |g: usize| ((g + 1) * PACED_PROBE_EVERY * PACED_FRAME).min(total);
        let mut sampler = Sampler::new(input.seed, 2);
        let mut gen_pools = Vec::with_capacity(gens);
        let mut gen_queries: Vec<Vec<LiveQuery>> = Vec::with_capacity(gens);
        for g in 0..gens {
            let mut p = FramePool::default();
            let mut qs = Vec::with_capacity(LIVE_PER_GEN);
            for i in 0..LIVE_PER_GEN {
                let q = if i % LIVE_GC_EVERY == LIVE_GC_EVERY - 1 {
                    LiveQuery::Gc(sampler.event(&comp.trace, gen_prefix(g)))
                } else {
                    let (e, f) = sampler.pair(&comp.trace, gen_prefix(g));
                    LiveQuery::Precedes(e, f)
                };
                p.push(&frame(&match q {
                    LiveQuery::Precedes(e, f) => Msg::QueryPrecedes { e, f },
                    LiveQuery::Gc(e) => Msg::QueryGreatestConcurrent { e },
                }));
                qs.push(q);
            }
            gen_pools.push(p);
            gen_queries.push(qs);
        }
        PacedPlan {
            pool,
            schedule,
            gen_pools,
            gen_queries,
        }
    }
}

/// Stream the trace open loop on `conn` (one frame every
/// `PACED_FRAME / PACED_RATE` seconds, on a schedule fixed in advance),
/// probe visibility after every `PACED_PROBE_EVERY`-th frame on a second
/// connection, and query closed loop on a third for the whole stream, over
/// pairs drawn from the prefix the last acknowledged probe covers.
fn paced_ingest(
    plan: &PacedPlan,
    comp: &Comp,
    daemon: &DaemonProc,
    conn: &mut Conn,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<(Ingest, Depth1)> {
    let PacedPlan {
        pool,
        schedule,
        gen_pools,
        gen_queries,
    } = plan;
    let total = comp.trace.num_events();
    let gens = gen_pools.len();
    let hello = hello_frame(&comp.name, comp.num_processes());

    let mut probe_conn = Conn::connect(daemon.addr)?;
    probe_conn.call(&hello)?;
    let mut query_conn = Conn::connect(daemon.addr)?;
    query_conn.call(&hello)?;
    report.count("open", 2, 0);

    // Generations acknowledged so far (0 = none yet) and end of stream.
    let acked = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (probe_tx, probe_rx) = mpsc::channel::<(Instant, u64)>();

    let cpu0 = daemon.cpu_seconds()?;
    let start = Instant::now();
    type ProbeOut = io::Result<(Vec<f64>, u64)>;
    type QueryOut = io::Result<(Vec<(usize, usize, f64, Msg)>, f64)>;
    let (stream_out, probe_out, query_out) = std::thread::scope(|s| {
        let prober = s.spawn(|| -> ProbeOut {
            let mut lat_ms = Vec::new();
            let mut failed = 0;
            for (due, expected_total) in probe_rx {
                let reply = probe_conn.call(&frame(&Msg::Flush { expected_total }))?;
                lat_ms.push(due.elapsed().as_nanos() as f64 / 1e6);
                match reply {
                    Msg::FlushAck { delivered, .. } if delivered >= expected_total => {
                        acked.fetch_add(1, Ordering::Release);
                    }
                    _ => failed += 1,
                }
            }
            Ok((lat_ms, failed))
        });
        let querier = s.spawn(|| -> QueryOut {
            let mut out = Vec::new();
            let mut cursor = vec![0usize; gens];
            let mut busy = Duration::ZERO;
            while !done.load(Ordering::Acquire) {
                let g = match acked.load(Ordering::Acquire) {
                    0 => {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    a => a.min(gens) - 1,
                };
                let i = cursor[g] % LIVE_PER_GEN;
                cursor[g] += 1;
                let t0 = Instant::now();
                let reply = query_conn.call(gen_pools[g].get(i))?;
                let took = t0.elapsed();
                busy += took;
                out.push((g, i, took.as_nanos() as f64 / 1e3, reply));
            }
            Ok((out, busy.as_secs_f64()))
        });
        let stream = (|| -> io::Result<(Vec<f64>, u64)> {
            let mut lag_ms = Vec::with_capacity(pool.len());
            for (i, f) in pool.iter().enumerate() {
                let due = start + Duration::from_nanos(schedule[i]);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag_ms.push(due.elapsed().as_nanos() as f64 / 1e6);
                if tracer.enabled {
                    tracer.span("client", "send_frame", 1, |_| conn.send(f)).0?;
                } else {
                    conn.send(f)?;
                }
                if (i + 1) % PACED_PROBE_EVERY == 0 && (i + 1) / PACED_PROBE_EVERY <= gens {
                    let sent = ((i + 1) * PACED_FRAME).min(total) as u64;
                    let _ = probe_tx.send((due, sent));
                }
            }
            let delivered = conn.flush(total as u64)?;
            Ok((lag_ms, delivered))
        })();
        drop(probe_tx);
        done.store(true, Ordering::Release);
        (
            stream,
            prober.join().expect("prober panicked"),
            querier.join().expect("querier panicked"),
        )
    });
    let secs = start.elapsed().as_secs_f64();
    let cpu = daemon.cpu_seconds()? - cpu0;
    let (lag_ms, delivered) = stream_out?;
    let (visible_ms, probe_failed) = probe_out?;
    let (answers, query_busy_s) = query_out?;

    report.phase("ingest_paced", secs, total as u64);
    report.count(
        "ingest_paced",
        pool.len() as u64 + 1,
        u64::from(delivered != total as u64),
    );
    let ingest = Ingest {
        kev_per_s: total as f64 / secs / 1e3,
        cpu_us_per_ev: cpu / total as f64 * 1e6,
    };
    generator_health(0.0, &lag_ms, report);
    report.phase("visible", secs, visible_ms.len() as u64);
    report.count("visible", visible_ms.len() as u64, probe_failed);
    push_visible(&visible_ms, report);

    // Check the live answers: precedence is exact whatever the prefix;
    // a greatest-concurrent slot must be concurrent with its probe.
    let mut d = Depth1::default();
    let mut wrong = 0u64;
    for (g, i, us, reply) in &answers {
        let ok = match (gen_queries[*g][*i], reply) {
            (LiveQuery::Precedes(e, f), Msg::PrecedesResult { precedes, .. }) => {
                d.precedes_us.push(*us);
                *precedes == comp.oracle.precedes(&comp.trace, e, f)
            }
            (LiveQuery::Gc(e), Msg::GcResult { slots, .. }) => {
                d.gc_us.push(*us);
                oracle::gc_live_consistent(comp, e, slots)
            }
            _ => false,
        };
        wrong += u64::from(!ok);
    }
    report.phase("queries_live", query_busy_s, answers.len() as u64);
    report.count("queries_live", answers.len() as u64, wrong);
    Ok((ingest, d))
}

// ---------------------------------------------------------------------------
// suite_burst: many short computations, fresh daemon per round
// ---------------------------------------------------------------------------

/// Everything one computation sends in a round, encoded once.
struct CompFrames {
    hello: Vec<u8>,
    flush: Vec<u8>,
    /// One pool per arrival slice.
    slices: Vec<FramePool>,
    depth1: FramePool,
    depth1_pairs: Vec<(EventId, EventId)>,
    reads: FramePool,
    reads_pairs: Vec<(EventId, EventId)>,
    gc: FramePool,
    gc_events: Vec<EventId>,
}

#[derive(Default)]
struct RoundAnswers {
    depth1: Vec<Vec<Option<bool>>>,
    reads: Vec<Vec<Option<bool>>>,
    gc: Vec<Vec<Option<GcSlots>>>,
}

fn suite_burst(
    spec: &Spec,
    input: &Input,
    launch: &Launch,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let comps = &input.comps;
    let total = input.total_events();
    let mut dups = 0;
    let frames: Vec<CompFrames> = comps
        .iter()
        .enumerate()
        .map(|(c, comp)| {
            let mut sampler = Sampler::new(input.seed, 100 + c as u64);
            let (slices, d) =
                workload::arrivals(comp.trace.events(), spec.connections, input.seed, c);
            dups += d;
            let (depth1, depth1_pairs) = workload::precedes_frames(&mut sampler, &comp.trace, 100);
            let (reads, reads_pairs) = workload::precedes_frames(&mut sampler, &comp.trace, 500);
            let (gc, gc_events) = workload::gc_frames(&mut sampler, &comp.trace, 4);
            CompFrames {
                hello: hello_frame(&comp.name, comp.num_processes()),
                flush: frame(&Msg::Flush {
                    expected_total: comp.num_events(),
                }),
                slices: slices
                    .iter()
                    .map(|s| workload::events_frames(s, STREAM_FRAME))
                    .collect(),
                depth1,
                depth1_pairs,
                reads,
                reads_pairs,
                gc,
                gc_events,
            }
        })
        .collect();
    report.notes.push(format!(
        "{} computations, {total} events, {dups} duplicates per round",
        comps.len()
    ));

    let full = !tracer.enabled;
    let run_started = Instant::now();
    // The durable side run goes first: the crash state it leaves is what
    // the restarts between the rounds recover.
    let crashed = durable_side_run(input, launch, full, report)?;
    let mut off = Tracer::new(false);
    let mut setup = Vec::new();
    let mut recoveries = Vec::new();
    let mut ingest_kev = Vec::new();
    // Traced run only: throughput of the rounds that recorded spans.
    let mut traced_kev = Vec::new();
    let mut cpu_us = Vec::new();
    let mut rss = Vec::new();
    let mut d = Depth1::default();
    let (mut read_rates, mut reads_s) = (Vec::new(), 0.0);
    let mut cr = Vec::new();
    let mut cpu_share = Vec::new();
    let mut round = 0;
    let mut longest = 0.0f64;
    let rounds_s = seconds * ROUNDS_SHARE * if full { 1.0 } else { 0.5 };
    // Round 0 warms the page cache and the allocator and is discarded. The
    // traced run records spans in every other round. Cold starts and
    // restarts are timed between the rounds, so they too span the run.
    while round < 4 || run_started.elapsed().as_secs_f64() + longest < rounds_s {
        let round_started = Instant::now();
        if full {
            more_setup_samples(launch, false, comps, SETUP_PER_ROUND, &mut setup, report)?;
            if round % ROUNDS_PER_RESTART == ROUNDS_PER_RESTART - 1 {
                recoveries.push(restart_on_copy(launch, &crashed, comps, report)?);
            }
        }
        let spans_on = !full && round % 2 == 1;
        let measured = round > 0 && !spans_on;
        let (daemon, conn, _) = phases::cold_start(launch, "round", None, &[])?;
        drop(conn);
        let cpu0 = daemon.cpu_seconds()?;
        let self0 = host::self_cpu_seconds();
        let t = if spans_on { &mut *tracer } else { &mut off };
        let (r, ns) = t.span("client", "ingest_round", total, |t| {
            ingest_round(&daemon, &frames, spec.connections, t)
        });
        let failed = r?;
        let secs = ns as f64 / 1e9;
        let attempted: usize = frames
            .iter()
            .map(|f| f.slices.iter().map(|s| s.len() + 1).sum::<usize>() + 2)
            .sum();
        report.count("ingest_round", attempted as u64, failed);
        if spans_on {
            traced_kev.push(total as f64 / secs / 1e3);
        } else {
            ingest_kev.push(total as f64 / secs / 1e3);
        }
        if measured {
            cpu_us.push((daemon.cpu_seconds()? - cpu0) / total as f64 * 1e6);
            cpu_share.push((host::self_cpu_seconds() - self0) / secs);
        }

        let mut conn = Conn::connect(daemon.addr)?;
        conn.proto_hello()?;
        let mut answers = RoundAnswers::default();
        let mut round_cr = 0;
        for f in &frames {
            conn.call(&f.hello)?;
            let (us, replies) =
                phases::depth1(&mut conn, &f.depth1, 0, Budget::whole(f.depth1.len()))?;
            answers.depth1.push(phases::precedes_answers(&replies));
            let reads = phases::pipelined(
                &mut conn,
                &f.reads,
                0,
                PIPELINE_DEPTH,
                Budget::whole(f.reads.len()),
            )?;
            answers.reads.push(phases::precedes_answers(&reads.replies));
            let (gc_us, replies) = phases::depth1(&mut conn, &f.gc, 0, Budget::whole(f.gc.len()))?;
            answers.gc.push(phases::gc_answers(replies));
            round_cr += cluster_receives(&mut conn, report)?;
            if measured {
                d.precedes_us.extend(us);
                d.gc_us.extend(gc_us);
                // A burst is shorter than a rate window: one sample each.
                read_rates.push(reads.replies.len() as f64 / reads.seconds);
                reads_s += reads.seconds;
            }
        }
        if measured {
            cr.push(round_cr as f64 / total as f64 * 1e3);
            rss.push(daemon.peak_rss_mib()?);
        }
        drop(conn);
        daemon.kill();

        // Verification is outside every timed section.
        for (c, comp) in comps.iter().enumerate() {
            let f = &frames[c];
            let wrong = oracle::precedes_mismatches(comp, &f.depth1_pairs, &answers.depth1[c])
                + oracle::precedes_mismatches(comp, &f.reads_pairs, &answers.reads[c])
                + oracle::gc_mismatches(comp, &f.gc_events, &answers.gc[c]);
            let asked = f.depth1_pairs.len() + f.reads_pairs.len() + f.gc_events.len();
            report.count("round_queries", asked as u64, wrong);
        }
        round += 1;
        longest = longest.max(round_started.elapsed().as_secs_f64());
    }
    // Round 0 is in `ingest_kev` and dropped by `median_of_rounds`.
    let rounds = ingest_kev.len() - 1;
    let round_kev = median_of_rounds(&ingest_kev, 1).unwrap_or(f64::NAN);
    report.phase(
        "ingest_rounds",
        rounds as f64 * total as f64 / 1e3 / round_kev,
        rounds as u64,
    );
    report.phase(
        "precedes_depth1",
        d.precedes_us.iter().sum::<f64>() / 1e6,
        d.precedes_us.len() as u64,
    );
    report.phase(
        "gc_depth1",
        d.gc_us.iter().sum::<f64>() / 1e6,
        d.gc_us.len() as u64,
    );
    report.phase("reads_pipelined", reads_s, read_rates.len() as u64);

    if full {
        report.e2e.push(metric("setup_s", med(&setup), "s"));
    }
    report
        .e2e
        .push(metric("ingest_kev_per_s", round_kev, "kev/s"));
    report
        .e2e
        .push(metric("daemon_cpu_us_per_ev", med(&cpu_us), "us"));
    report.e2e.push(metric("peak_rss_mb", med(&rss), "MiB"));
    d.push(report);
    report
        .e2e
        .push(metric("reads_per_s", med(&read_rates), "1/s"));
    report.e2e.push(metric("cr_per_kev", med(&cr), "count"));
    generator_health(med(&cpu_share), &[], report);
    if full {
        report.e2e.push(metric("recovery_s", med(&recoveries), "s"));
    } else {
        report.side.push(overhead_pct(round_kev, med(&traced_kev)));
    }
    Ok(())
}

/// One round's ingest: `(computation, slice)` jobs drained by
/// `connections` connections, then a `Flush` barrier per computation.
/// Returns the operations that failed.
fn ingest_round(
    daemon: &DaemonProc,
    frames: &[CompFrames],
    connections: usize,
    tracer: &mut Tracer,
) -> io::Result<u64> {
    let jobs: Vec<(usize, usize)> = (0..frames.len())
        .flat_map(|c| (0..frames[c].slices.len()).map(move |s| (c, s)))
        .collect();
    let next = AtomicUsize::new(0);
    let results: Vec<io::Result<Tracer>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let mut t = tracer.fork();
                let (jobs, next) = (&jobs, &next);
                s.spawn(move || -> io::Result<Tracer> {
                    let mut conn = Conn::connect(daemon.addr)?;
                    while let Some(&(c, slice)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        conn.call(&frames[c].hello)?;
                        phases::send_all(&mut conn, &frames[c].slices[slice], &mut t)?;
                    }
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .collect()
    });
    for r in results {
        tracer.absorb(r?);
    }
    let mut conn = Conn::connect(daemon.addr)?;
    let mut failed = 0;
    for f in frames {
        conn.call(&f.hello)?;
        if !matches!(conn.call(&f.flush)?, Msg::FlushAck { .. }) {
            failed += 1;
        }
    }
    Ok(failed)
}

/// `recovery_s` of the suite (and its visibility figures) come from one
/// extra, durable daemon: the suite is streamed into it once, the last
/// frame of every computation held back as a visibility probe, then the
/// daemon is killed. Returns the directory the crash left, set aside.
fn durable_side_run(
    input: &Input,
    launch: &Launch,
    full: bool,
    report: &mut Report,
) -> io::Result<PathBuf> {
    let comps = &input.comps;
    let data = phases::fresh_dir(&launch.work, "data")?;
    let (daemon, mut conn, _) = phases::cold_start(launch, "durable", Some(&data), &[])?;
    let mut visible = Vec::new();
    let mut failed = 0;
    for comp in comps {
        let events = comp.trace.events();
        let body_len = workload::safe_cut(events, events.len().saturating_sub(PROBE_FRAME));
        let body = workload::events_frames(&events[..body_len], STREAM_FRAME);
        // One probe: the whole tail, however the cut moved.
        let (probe, _) = workload::probe_frames(&events[body_len..], PROBE_FRAME + 1, 0);
        conn.call(&hello_frame(&comp.name, comp.num_processes()))?;
        phases::send_all(&mut conn, &body, &mut Tracer::new(false))?;
        failed += u64::from(conn.flush(body_len as u64)? != body_len as u64);
        let (lat_ms, f) = phases::visible_probes(&mut conn, &probe, &[comp.num_events()])?;
        visible.extend(lat_ms);
        failed += f;
        report.count("side_ingest", body.len() as u64 + 4, 0);
    }
    report.count("side_ingest", 0, failed);
    report.phase(
        "visible",
        visible.iter().sum::<f64>() / 1e3,
        visible.len() as u64,
    );
    push_visible(&visible, report);
    if !full {
        // The side phases look at one mid-sized computation.
        let comp = &comps[comps.len() / 2];
        conn.call(&hello_frame(&comp.name, comp.num_processes()))?;
        server_side_phases(comp, &mut conn, input.seed, input.scale, report)?;
    }
    drop(conn);
    daemon.kill();
    let crashed = launch.work.join("crashed");
    let _ = std::fs::remove_dir_all(&crashed);
    std::fs::rename(&data, &crashed)?;
    Ok(crashed)
}

/// One timed restart on a fresh copy of the crash state, so that every
/// sample recovers the same checkpoint plus WAL tail and not the tidied-up
/// directory an earlier restart leaves behind.
fn restart_on_copy(
    launch: &Launch,
    crashed: &Path,
    comps: &[Comp],
    report: &mut Report,
) -> io::Result<f64> {
    let data = launch.work.join("data");
    let _ = std::fs::remove_dir_all(&data);
    phases::copy_tree(crashed, &data)?;
    let (daemon, secs, ops) = phases::recover(launch, "recover", &data, comps)?;
    daemon.kill();
    report.count("restart", ops.attempted, ops.failed);
    report.phase("recovery", secs, 1);
    Ok(secs)
}
