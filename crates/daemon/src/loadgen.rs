//! The load generator: replays workload suites as concurrent client
//! streams and differentially checks the daemon's answers against the
//! offline batch engine.
//!
//! For every computation the generator:
//!
//! 1. splits the trace's delivery order round-robin into several *slices*
//!    (emulating independently-forwarding monitored processes), window-
//!    shuffles each slice deterministically, and injects duplicates;
//! 2. streams the slices from a pool of concurrent connections;
//! 3. issues a `Flush` barrier for the full event count;
//! 4. replays sampled precedence pairs, greatest-concurrent probes, and a
//!    window scroll against the daemon, comparing every answer with a local
//!    [`ClusterEngine`] batch run over the original in-order trace.
//!
//! Any divergence is a *mismatch* — by the delivery-order-invariance
//! property, the correct count is exactly zero. The report's wall-clock
//! lines are a reading, not a measurement: the recorded end-to-end numbers
//! are `benchmark/results/baseline.json`.
//!
//! A [`Scenario`] is one row of what differs between the soaks
//! `cts-loadgen` runs: the fixtures, the in-process daemon setting, the
//! plant phase's frame size and sampler, and so the liveness gate.
//! [`run_planted`] is the pipeline they share: the plant phase, then
//! [`run`] over the same computations.

use crate::client::{Client, ClusterMap, Placement};
use crate::pipeline::lock;
use crate::server::{Daemon, DaemonConfig};
use cts_core::cluster::AdaptiveParams;
use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_model::{Event, EventId, ProcessId, Trace};
use cts_store::queries::{greatest_concurrent, ClusterBackend};
use cts_util::bench::BenchEntry;
use cts_util::hist::AtomicHistogram;
use cts_util::prng::{ChaCha8Rng, Rng};
use cts_workloads::drift::{hot_group_trace, PhaseShiftStencil, RebalancedWebTiers};
use cts_workloads::suite::{Env, SuiteEntry};
use cts_workloads::Workload;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    pub addr: SocketAddr,
    /// Concurrent client connections during ingest (also bounds the query
    /// pool).
    pub connections: usize,
    /// Seed for the deterministic shuffles and duplicate placement.
    pub seed: u64,
    pub max_cluster_size: u32,
    /// Slices each computation's stream is split into.
    pub slices_per_comp: usize,
    /// Window size of the per-slice shuffle (events may move at most a
    /// window away from their in-order position).
    pub shuffle_window: usize,
    /// Re-send every `duplicate_every`-th event (0 disables).
    pub duplicate_every: usize,
    /// Events per wire frame.
    pub batch: usize,
    /// Sampled precedence pairs per computation.
    pub precedence_queries: usize,
    /// Greatest-concurrent probes per computation.
    pub gc_probes: usize,
    /// Page size for the window-scroll check (0 = server default). Small
    /// values force the continuation cursor to actually continue.
    pub window_page: u32,
    /// Read-only follower daemons replicating `addr` (PR 7). When
    /// non-empty, the query phase also fans the differential checks
    /// across the fleet after waiting for every follower to converge.
    pub follower_addrs: Vec<SocketAddr>,
    /// Historical epochs per computation to time-travel-check (PR 8):
    /// each sampled retained epoch is replayed back over
    /// `ReplayInterval`, re-timestamped offline, and the `QueryAsOf*`
    /// answers compared against that prefix engine. 0 disables.
    pub asof_epochs: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:0".parse().expect("static addr"),
            connections: 8,
            seed: 1,
            max_cluster_size: 8,
            slices_per_comp: 2,
            shuffle_window: 64,
            duplicate_every: 97,
            batch: 512,
            precedence_queries: 200,
            gc_probes: 3,
            window_page: 5,
            follower_addrs: Vec::new(),
            asof_epochs: 0,
        }
    }
}

/// Outcome of a load run.
#[derive(Debug)]
pub struct LoadReport {
    pub computations: usize,
    pub total_events: u64,
    pub duplicates_sent: u64,
    pub ingest_wall_ns: u64,
    pub query_wall_ns: u64,
    pub precedence_checked: u64,
    pub gc_checked: u64,
    pub windows_checked: u64,
    /// Items re-issued through the batched wire messages (warm path).
    pub batch_checked: u64,
    /// Time-travel checks: `QueryAsOf*` answers at retained historical
    /// epochs compared against an offline engine over the replayed prefix.
    pub asof_checked: u64,
    /// Differential failures against the offline engine. Must be zero.
    pub mismatches: u64,
    pub rtt_min_ns: u64,
    pub rtt_p50_ns: u64,
    pub rtt_p95_ns: u64,
    pub rtt_mean_ns: u64,
    pub rtt_samples: u64,
}

impl LoadReport {
    /// Events ingested per second of ingest wall time.
    pub fn ingest_events_per_sec(&self) -> f64 {
        if self.ingest_wall_ns == 0 {
            return 0.0;
        }
        self.total_events as f64 / (self.ingest_wall_ns as f64 / 1e9)
    }

    /// Ingest-side nanoseconds per event (wall clock over the whole pool).
    pub fn ns_per_event(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        self.ingest_wall_ns as f64 / self.total_events as f64
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        format!(
            "computations      {}\n\
             events streamed   {} (+{} duplicates)\n\
             ingest wall       {:.3} s  ({:.0} events/s, {:.0} ns/event)\n\
             query wall        {:.3} s\n\
             checks            {} precedence, {} greatest-concurrent, {} windows\n\
             batch re-issues   {} items (one frame per computation)\n\
             as-of checks      {} (time-travel, historical epochs)\n\
             query RTT         p50 {} ns, p95 {} ns (n = {})\n\
             mismatches        {}",
            self.computations,
            self.total_events,
            self.duplicates_sent,
            self.ingest_wall_ns as f64 / 1e9,
            self.ingest_events_per_sec(),
            self.ns_per_event(),
            self.query_wall_ns as f64 / 1e9,
            self.precedence_checked,
            self.gc_checked,
            self.windows_checked,
            self.batch_checked,
            self.asof_checked,
            self.rtt_p50_ns,
            self.rtt_p95_ns,
            self.rtt_samples,
            self.mismatches,
        )
    }
}

/// Build one slice of a computation's stream: round-robin split, window
/// shuffle, duplicate injection. Deterministic in `(seed, comp, slice)`.
pub fn build_slice(
    events: &[Event],
    slice: usize,
    cfg: &LoadConfig,
    comp_index: usize,
) -> (Vec<Event>, u64) {
    let mut out: Vec<Event> = events
        .iter()
        .enumerate()
        .filter(|(pos, _)| pos % cfg.slices_per_comp.max(1) == slice)
        .map(|(_, &ev)| ev)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((comp_index as u64) << 20)
            .wrapping_add(slice as u64),
    );
    let w = cfg.shuffle_window.max(1);
    for window in out.chunks_mut(w) {
        // Fisher–Yates within the window.
        for i in (1..window.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            window.swap(i, j);
        }
    }
    let mut duplicates = 0u64;
    if cfg.duplicate_every > 0 {
        let mut i = cfg.duplicate_every - 1;
        while i < out.len() {
            let dup = out[i];
            out.insert(i + 1, dup);
            duplicates += 1;
            i += cfg.duplicate_every + 1;
        }
    }
    (out, duplicates)
}

/// `connections` pool workers, all aimed at `addr`.
fn pool(addr: SocketAddr, connections: usize) -> Vec<SocketAddr> {
    vec![addr; connections.max(1)]
}

/// Thread pool draining a job queue: one worker per entry of `targets`,
/// each owning one connection to its target for its whole lifetime.
fn run_pool<J, F>(targets: &[SocketAddr], jobs: Vec<J>, f: F) -> io::Result<()>
where
    J: Send,
    F: Fn(&mut Client, J) -> io::Result<()> + Sync,
{
    let queue = Mutex::new(VecDeque::from(jobs));
    let first_error: Mutex<Option<io::Error>> = Mutex::new(None);
    std::thread::scope(|s| {
        let (queue, first_error, f) = (&queue, &first_error, &f);
        for &addr in targets {
            s.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        set_error(first_error, e);
                        return;
                    }
                };
                loop {
                    if lock(first_error).is_some() {
                        return;
                    }
                    let Some(job) = lock(queue).pop_front() else {
                        break;
                    };
                    if let Err(e) = f(&mut client, job) {
                        set_error(first_error, e);
                        return;
                    }
                }
                let _ = client.goodbye();
            });
        }
    });
    let result = lock(&first_error).take();
    match result {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

fn set_error(slot: &Mutex<Option<io::Error>>, e: io::Error) {
    let mut g = lock(slot);
    if g.is_none() {
        *g = Some(e);
    }
}

/// The ingest phase: all (computation, slice) streams over the pool. With
/// a `quota`, each slice sends only its proportional share of that many
/// events, so the bytes *sent* are deterministic. Returns the duplicates
/// sent.
fn ingest(suite: &[SuiteEntry], cfg: &LoadConfig, quota: Option<u64>) -> io::Result<u64> {
    let total_events: u64 = suite.iter().map(|e| e.trace.num_events() as u64).sum();
    let duplicates_sent = AtomicU64::new(0);
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for c in 0..suite.len() {
        for s in 0..cfg.slices_per_comp.max(1) {
            jobs.push((c, s));
        }
    }
    run_pool(&pool(cfg.addr, cfg.connections), jobs, |client, (c, s)| {
        let entry = &suite[c];
        client.hello(
            &entry.name,
            entry.trace.num_processes(),
            cfg.max_cluster_size,
        )?;
        let (events, dups) = build_slice(entry.trace.events(), s, cfg, c);
        duplicates_sent.fetch_add(dups, Ordering::Relaxed);
        let share = quota.map_or(events.len(), |q| {
            (events.len() as u64)
                .saturating_mul(q)
                .checked_div(total_events)
                .unwrap_or(0) as usize
        });
        client.stream_events(&events[..share.min(events.len())], cfg.batch)
    })?;
    Ok(duplicates_sent.into_inner())
}

/// Run the full load scenario against a daemon at `cfg.addr`.
pub fn run(suite: &[SuiteEntry], cfg: &LoadConfig) -> io::Result<LoadReport> {
    let total_events: u64 = suite.iter().map(|e| e.trace.num_events() as u64).sum();
    let leader = pool(cfg.addr, cfg.connections);
    let all: Vec<usize> = (0..suite.len()).collect();

    let t0 = Instant::now();
    let duplicates_sent = ingest(suite, cfg, None)?;

    // ---- barrier: every computation fully delivered and snapshotted ----
    run_pool(&leader, all.clone(), |client, c| {
        let entry = &suite[c];
        client.hello(
            &entry.name,
            entry.trace.num_processes(),
            cfg.max_cluster_size,
        )?;
        let expected = entry.trace.num_events() as u64;
        let (_, delivered) = client.flush(expected)?;
        if delivered != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: flush delivered {delivered}, expected {expected}",
                    entry.name
                ),
            ));
        }
        Ok(())
    })?;
    let ingest_wall_ns = t0.elapsed().as_nanos() as u64;

    // ---- query phase: differential checks per computation ----
    //
    // Each computation runs the same pattern: single queries (RTT-timed;
    // the greatest-concurrent ones leave their slot vectors in the daemon's
    // shared memo), then a batched re-issue of the identical items in one
    // frame (the greatest-concurrent ones now memo hits). Three answers
    // must agree per item — single, batch, and the offline engine — so a
    // memo that ever returned a stale or cross-wired vector shows up as a
    // mismatch.
    let counters = QueryCounters::new();
    let head = |client: &mut Client, c: usize, who: &str| {
        let entry = &suite[c];
        client.hello(
            &entry.name,
            entry.trace.num_processes(),
            cfg.max_cluster_size,
        )?;
        check(client, &entry.name, &entry.trace, None, cfg, &counters, who)
    };
    let t1 = Instant::now();
    run_pool(&leader, all.clone(), |client, c| head(client, c, "leader"))?;

    // ---- time-travel phase: the same differential idea, one retained
    // epoch back in history at a time (PR 8) ----
    if cfg.asof_epochs > 0 {
        run_pool(&leader, all, |client, c| {
            check_history(client, &suite[c], cfg, &counters)
        })?;
    }

    // ---- fleet phase: the same checks fanned across the followers ----
    //
    // Each computation is assigned round-robin to one follower, so the
    // whole suite is re-verified by the fleet without querying every
    // computation on every replica. A follower answer is compared against
    // the same offline oracle the leader phase used, which by transitivity
    // is a leader-vs-follower differential too.
    if !cfg.follower_addrs.is_empty() {
        wait_followers_converged(&cfg.follower_addrs, suite, cfg, Duration::from_secs(120))?;
        for (fi, &addr) in cfg.follower_addrs.iter().enumerate() {
            let jobs: Vec<usize> = (0..suite.len())
                .filter(|c| c % cfg.follower_addrs.len() == fi)
                .collect();
            let label = format!("follower {fi}");
            run_pool(&pool(addr, cfg.connections), jobs, |client, c| {
                head(client, c, &label)
            })?;
        }
    }
    let query_wall_ns = t1.elapsed().as_nanos() as u64;

    let rtt_samples = counters.rtt.count();
    let (rtt_p50_ns, rtt_p95_ns) = counters.rtt.p50_p95();
    Ok(LoadReport {
        computations: suite.len(),
        total_events,
        duplicates_sent,
        ingest_wall_ns,
        query_wall_ns,
        precedence_checked: counters.precedence_checked.into_inner(),
        gc_checked: counters.gc_checked.into_inner(),
        windows_checked: counters.windows_checked.into_inner(),
        batch_checked: counters.batch_checked.into_inner(),
        asof_checked: counters.asof_checked.into_inner(),
        mismatches: counters.mismatches.into_inner(),
        rtt_min_ns: if rtt_samples == 0 {
            0
        } else {
            counters.rtt_min.into_inner()
        },
        rtt_p50_ns,
        rtt_p95_ns,
        rtt_mean_ns: counters.rtt.mean() as u64,
        rtt_samples,
    })
}

/// Shared tallies of the differential query phases (leader and fleet).
struct QueryCounters {
    mismatches: AtomicU64,
    precedence_checked: AtomicU64,
    gc_checked: AtomicU64,
    windows_checked: AtomicU64,
    batch_checked: AtomicU64,
    asof_checked: AtomicU64,
    rtt: AtomicHistogram,
    rtt_min: AtomicU64,
}

impl QueryCounters {
    fn new() -> QueryCounters {
        QueryCounters {
            mismatches: AtomicU64::new(0),
            precedence_checked: AtomicU64::new(0),
            gc_checked: AtomicU64::new(0),
            windows_checked: AtomicU64::new(0),
            batch_checked: AtomicU64::new(0),
            asof_checked: AtomicU64::new(0),
            rtt: AtomicHistogram::new(),
            rtt_min: AtomicU64::new(u64::MAX),
        }
    }

    /// Report and count one differential failure.
    fn mismatch(&self, name: &str, who: &str, text: String) {
        eprintln!("[cts-loadgen] MISMATCH {name} on {who}: {text}");
        self.mismatches.fetch_add(1, Ordering::Relaxed);
    }
}

/// Pair `j` of the precedence sample over `ids`. Prime strides decorrelate
/// the sampled pairs from trace layout.
fn sampled_pair(ids: &[EventId], j: usize) -> (EventId, EventId) {
    (
        ids[(j * 7919) % ids.len()],
        ids[(j * 104_729 + 13) % ids.len()],
    )
}

/// One computation's differential check against an offline engine over
/// `trace`, on a connection already bound to the computation `name`.
///
/// At the head (`epoch` is `None`): cold single queries, their warm batched
/// re-issue, and a paged window scroll. As of a retained historical epoch,
/// whose delivered prefix `trace` then is: the same single queries (at most
/// 64 pairs) and scroll through the `QueryAsOf*` verbs, all counted as
/// as-of checks. `who` names the daemon under test in mismatch reports.
fn check(
    client: &mut Client,
    name: &str,
    trace: &Trace,
    epoch: Option<u64>,
    cfg: &LoadConfig,
    k: &QueryCounters,
    who: &str,
) -> io::Result<()> {
    let offline = ClusterEngine::run(trace, MergeOnFirst::new(cfg.max_cluster_size as usize));
    let ids: Vec<EventId> = trace.all_event_ids().collect();
    if ids.is_empty() {
        return Ok(());
    }
    let who = match epoch {
        None => who.to_string(),
        Some(epoch) => format!("{who} as of epoch {epoch}"),
    };
    let mismatch = |text: String| k.mismatch(name, &who, text);
    let tally = |at_head: &AtomicU64| {
        (if epoch.is_some() {
            &k.asof_checked
        } else {
            at_head
        })
        .fetch_add(1, Ordering::Relaxed)
    };
    let precedence_queries = match epoch {
        None => cfg.precedence_queries,
        Some(_) => cfg.precedence_queries.min(64),
    };
    let mut pairs = Vec::with_capacity(precedence_queries);
    let mut singles = Vec::with_capacity(precedence_queries);
    for j in 0..precedence_queries {
        let (e, f) = sampled_pair(&ids, j);
        let got = match epoch {
            None => {
                let q0 = Instant::now();
                let got = client.precedes(e, f)?;
                let ns = q0.elapsed().as_nanos() as u64;
                k.rtt.record(ns);
                k.rtt_min.fetch_min(ns, Ordering::Relaxed);
                got
            }
            Some(epoch) => client.asof_precedes(epoch, e, f)?,
        };
        tally(&k.precedence_checked);
        let want = offline.precedes(trace, e, f);
        if got != want {
            mismatch(format!("precedes({e}, {f}) = {got}, offline says {want}"));
        }
        pairs.push((e, f));
        singles.push(want);
    }
    let mut gc_events = Vec::with_capacity(cfg.gc_probes);
    let mut gc_singles = Vec::with_capacity(cfg.gc_probes);
    for j in 0..cfg.gc_probes {
        let e = ids[(j * 15_485_863 + 3) % ids.len()];
        let got = match epoch {
            None => client.greatest_concurrent(e)?,
            Some(epoch) => client.asof_greatest_concurrent(epoch, e)?,
        };
        tally(&k.gc_checked);
        let want = greatest_concurrent(&mut ClusterBackend(&offline), trace, e);
        if got != want {
            mismatch(format!(
                "greatest_concurrent({e}) = {got:?}, offline says {want:?}"
            ));
        }
        gc_events.push(e);
        gc_singles.push(want);
    }
    // Warm batch re-issue: the flush barrier (or, on a follower, the
    // convergence barrier) guarantees every sampled event is delivered,
    // so `None` (unknown event) is itself a bug.
    if epoch.is_none() {
        let verdicts = client.precedes_batch(&pairs)?;
        k.batch_checked
            .fetch_add(verdicts.len() as u64, Ordering::Relaxed);
        if verdicts.len() != pairs.len() {
            mismatch(format!(
                "precedes_batch returned {} verdicts for {} pairs",
                verdicts.len(),
                pairs.len()
            ));
        }
        for (j, v) in verdicts.iter().enumerate() {
            let (e, f) = pairs[j];
            if *v != Some(singles[j]) {
                mismatch(format!(
                    "warm precedes_batch({e}, {f}) = {v:?}, offline says {}",
                    singles[j]
                ));
            }
        }
        let results = client.gc_batch(&gc_events)?;
        k.batch_checked
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        for (j, r) in results.iter().enumerate() {
            if r.as_ref() != Some(&gc_singles[j]) {
                mismatch(format!(
                    "warm gc_batch({}) = {r:?}, offline says {:?}",
                    gc_events[j], gc_singles[j]
                ));
            }
        }
    }
    // One window scroll over process 0's first events, the ids compared
    // against the trace. At the head it is paged with a deliberately small
    // page so the continuation cursor is exercised.
    let p0 = ProcessId(0);
    let upto = (trace.process_len(p0) as u32).min(16) + 1;
    let (got, pages) = match epoch {
        None => client.window_paged(0, 1, upto, cfg.window_page)?,
        Some(epoch) => (client.asof_window(epoch, 0, 1, upto)?, 0),
    };
    let expect: Vec<EventId> = trace
        .process_events(p0)
        .filter(|id| id.index.0 < upto)
        .collect();
    tally(&k.windows_checked);
    if got != expect {
        mismatch(format!(
            "window(P0, 1, {upto}) returned {} ids, expected {}",
            got.len(),
            expect.len()
        ));
    }
    if epoch.is_none() && cfg.window_page > 0 && expect.len() as u32 > cfg.window_page && pages < 2
    {
        mismatch(format!(
            "window(P0, 1, {upto}) with page {} returned {} ids in one page",
            cfg.window_page,
            expect.len()
        ));
    }
    Ok(())
}

/// One computation's time-travel differential: sample up to
/// `cfg.asof_epochs` *historical* retained epochs (everything but the
/// newest), pull each one's delivered prefix back over `ReplayInterval`,
/// and [`check`] the daemon's answers as of that epoch against the
/// prefix — the same delivery-order-invariance oracle as the head-epoch
/// phase, applied to every point in retained history.
fn check_history(
    client: &mut Client,
    entry: &SuiteEntry,
    cfg: &LoadConfig,
    k: &QueryCounters,
) -> io::Result<()> {
    client.proto_hello()?;
    client.hello(
        &entry.name,
        entry.trace.num_processes(),
        cfg.max_cluster_size,
    )?;
    let epochs = client.list_epochs()?;
    if epochs.len() < 2 {
        // Only the head epoch is retained — nothing historical to check.
        return Ok(());
    }
    // Spread the sample across retained history, oldest epoch included.
    let historical = &epochs[..epochs.len() - 1];
    let step = (historical.len() / cfg.asof_epochs.max(1)).max(1);
    for &(epoch, delivered) in historical.iter().step_by(step).take(cfg.asof_epochs) {
        match replay_prefix(client, entry, epoch, delivered)? {
            Ok(prefix) => check(client, &entry.name, &prefix, Some(epoch), cfg, k, "leader")?,
            Err(text) => k.mismatch(&entry.name, "leader", text),
        }
    }
    Ok(())
}

/// Pull retained epoch `epoch`'s delivered prefix (`delivered` events, per
/// `ListEpochs`) back over `ReplayInterval` as a trace. The outer error is
/// the connection's; the inner one says what is wrong with the replayed
/// events.
fn replay_prefix(
    client: &mut Client,
    entry: &SuiteEntry,
    epoch: u64,
    delivered: u64,
) -> io::Result<Result<Trace, String>> {
    let events = client.replay_interval(0, epoch)?;
    if events.len() as u64 != delivered {
        return Ok(Err(format!(
            "replay of epoch {epoch} returned {} events, epoch delivered {delivered}",
            events.len()
        )));
    }
    Ok(Trace::from_delivery_order(
        format!("{}@{epoch}", entry.name),
        entry.trace.num_processes(),
        events,
    )
    .map_err(|e| format!("replayed prefix of epoch {epoch} is not a valid delivery order: {e}")))
}

/// Outcome of `--replay-as` for one computation: the newest retained
/// epoch's delivered prefix, re-timestamped offline under a different
/// clustering strategy, with the paper's space metric for both sides.
#[derive(Debug)]
pub struct ReplayAsReport {
    pub computation: String,
    /// The retained epoch whose prefix was replayed.
    pub epoch: u64,
    /// Events in the replayed prefix.
    pub events: u64,
    pub serving_label: String,
    pub serving_elements: u64,
    pub serving_ratio: f64,
    pub replay_label: String,
    pub replay_elements: u64,
    pub replay_ratio: f64,
}

impl ReplayAsReport {
    /// One-line summary of the strategy comparison.
    pub fn render(&self) -> String {
        let delta = if self.serving_ratio > 0.0 {
            (self.replay_ratio / self.serving_ratio - 1.0) * 100.0
        } else {
            0.0
        };
        format!(
            "{}: epoch {} ({} events): {} ratio {:.4} ({} elements) -> {} ratio {:.4} \
             ({} elements), {delta:+.1}% ratio",
            self.computation,
            self.epoch,
            self.events,
            self.serving_label,
            self.serving_ratio,
            self.serving_elements,
            self.replay_label,
            self.replay_ratio,
            self.replay_elements,
        )
    }
}

/// `cts-loadgen --replay-as`: for each computation, pull the newest
/// retained epoch's delivered prefix back over `ReplayInterval` and
/// re-cluster it offline under `spec`, reporting the paper's
/// stamp-size/ratio deltas against the strategy the daemon served with
/// (merge-on-1st at `cfg.max_cluster_size`). This is the "what if we had
/// clustered differently" loop the time-travel read path exists for —
/// no re-ingest, no second daemon, just the wire replay and the offline
/// engine.
pub fn run_replay_as(
    suite: &[SuiteEntry],
    cfg: &LoadConfig,
    spec: cts_core::StrategySpec,
) -> io::Result<Vec<ReplayAsReport>> {
    use cts_core::{Encoding, SpaceReport};
    let mut out = Vec::new();
    for entry in suite {
        let mut client = Client::connect(cfg.addr)?;
        client.proto_hello()?;
        client.hello(
            &entry.name,
            entry.trace.num_processes(),
            cfg.max_cluster_size,
        )?;
        let epochs = client.list_epochs()?;
        let Some(&(epoch, delivered)) = epochs.last() else {
            continue;
        };
        let prefix = replay_prefix(&mut client, entry, epoch, delivered)?.map_err(|text| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {text}", entry.name),
            )
        })?;
        let _ = client.goodbye();
        let n = prefix.num_processes();
        let serving = ClusterEngine::run(&prefix, MergeOnFirst::new(cfg.max_cluster_size as usize));
        let serving_report = SpaceReport::measure(
            &serving,
            Encoding::paper_default(n, cfg.max_cluster_size as usize),
        );
        let replayed = spec.run(&prefix);
        let replay_report = SpaceReport::measure(
            &replayed,
            Encoding::paper_default(n, spec.max_cluster_size()),
        );
        out.push(ReplayAsReport {
            computation: entry.name.clone(),
            epoch,
            events: delivered,
            serving_label: format!("merge-1st:{}", cfg.max_cluster_size),
            serving_elements: serving_report.cluster_elements,
            serving_ratio: serving_report.ratio,
            replay_label: spec.label(),
            replay_elements: replay_report.cluster_elements,
            replay_ratio: replay_report.ratio,
        });
    }
    Ok(out)
}

/// Block until every follower's *published* snapshot of every suite
/// computation covers the full trace.
///
/// The probe is the last event of each process: delivery respects
/// per-process order, so a snapshot that answers for every process's
/// final event necessarily contains the whole computation. Followers
/// publish the commit point on every idle stream heartbeat, so once the
/// leader has flushed (the ingest barrier already ran), each replica
/// converges within a heartbeat of draining its stream.
pub fn wait_followers_converged(
    addrs: &[SocketAddr],
    suite: &[SuiteEntry],
    cfg: &LoadConfig,
    timeout: Duration,
) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    for (fi, &addr) in addrs.iter().enumerate() {
        for entry in suite {
            let trace = &entry.trace;
            let probe: Vec<(EventId, EventId)> = (0..trace.num_processes())
                .filter_map(|p| trace.process_events(ProcessId(p)).last())
                .map(|id| (id, id))
                .collect();
            if probe.is_empty() {
                continue;
            }
            let mut client = Client::connect(addr)?;
            client.hello(&entry.name, trace.num_processes(), cfg.max_cluster_size)?;
            loop {
                let verdicts = client.precedes_batch(&probe)?;
                if verdicts.len() == probe.len() && verdicts.iter().all(|v| v.is_some()) {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "follower {fi} ({addr}) did not converge on {:?} within {:?}",
                            entry.name, timeout
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            let _ = client.goodbye();
        }
        eprintln!(
            "[cts-loadgen] follower {fi} ({addr}) converged on {} computations",
            suite.len()
        );
    }
    Ok(())
}

/// `repl/warm_batch_{leader,fleet}` entries: wall time of a fixed warm
/// batched-query workload (every suite computation's precedence-pair
/// batch, `passes` times, drained from a shared queue) driven by one
/// client thread per follower — first with every thread aimed at the
/// leader, then with thread *i* aimed at follower *i*.
///
/// Identical work, identical client parallelism; only the serving
/// capacity changes. The `leader/fleet >= R` min_ns ratio is therefore a
/// host-independent read scale-out claim — `scripts/bench_gate.py
/// --require-ratio repl/warm_batch_leader:repl/warm_batch_fleet:1.8`
/// gates on it in the `repl` CI stage (where each daemon is capped at
/// one query worker, so two replicas really are twice the capacity).
pub fn fleet_bench_entries(
    suite: &[SuiteEntry],
    cfg: &LoadConfig,
    passes: usize,
    rounds: usize,
) -> io::Result<Vec<BenchEntry>> {
    assert!(
        !cfg.follower_addrs.is_empty(),
        "fleet bench requires follower_addrs"
    );
    // Pre-sample each computation's warm pairs (the query phase already
    // asked exactly these).
    let work: Vec<Vec<(EventId, EventId)>> = suite
        .iter()
        .map(|entry| {
            let ids: Vec<EventId> = entry.trace.all_event_ids().collect();
            (0..cfg.precedence_queries)
                .filter(|_| !ids.is_empty())
                .map(|j| sampled_pair(&ids, j))
                .collect()
        })
        .collect();
    let items_per_round: u64 = work.iter().map(|w| (w.len() * passes.max(1)) as u64).sum();
    wait_followers_converged(&cfg.follower_addrs, suite, cfg, Duration::from_secs(120))?;

    let leader_targets: Vec<SocketAddr> = vec![cfg.addr; cfg.follower_addrs.len()];
    let mut out = Vec::new();
    for (name, targets) in [
        ("warm_batch_leader", &leader_targets),
        ("warm_batch_fleet", &cfg.follower_addrs),
    ] {
        let mut runs: Vec<u64> = Vec::with_capacity(rounds.max(1));
        for _ in 0..rounds.max(1) {
            let t0 = Instant::now();
            run_pool(targets, (0..suite.len()).collect(), |client, c| {
                let entry = &suite[c];
                client.hello(
                    &entry.name,
                    entry.trace.num_processes(),
                    cfg.max_cluster_size,
                )?;
                for _ in 0..passes.max(1) {
                    let verdicts = client.precedes_batch(&work[c])?;
                    if verdicts.len() != work[c].len() || verdicts.iter().any(|v| v.is_none()) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: incomplete warm batch answer", entry.name),
                        ));
                    }
                }
                Ok(())
            })?;
            runs.push(t0.elapsed().as_nanos() as u64);
        }
        runs.sort_unstable();
        out.push(BenchEntry {
            group: "repl".into(),
            name: name.into(),
            samples: runs.len(),
            iters_per_sample: items_per_round,
            min_ns: runs[0] as f64,
            median_ns: runs[runs.len() / 2] as f64,
            p95_ns: *runs.last().unwrap() as f64,
            mean_ns: runs.iter().sum::<u64>() as f64 / runs.len() as f64,
        });
    }
    Ok(out)
}

/// Start `n` in-process follower daemons replicating `leader`, each with
/// its own data directory under `root` (so a restarted follower catches
/// up from its own WAL tail). Used by `cts-loadgen --followers N`.
pub fn spawn_followers(
    leader: SocketAddr,
    n: usize,
    root: &std::path::Path,
) -> io::Result<Vec<Daemon>> {
    (0..n)
        .map(|i| {
            let cfg = DaemonConfig {
                data_dir: Some(root.join(format!("follower-{i}"))),
                follow: Some(leader),
                ..DaemonConfig::default()
            };
            Daemon::start(cfg)
        })
        .collect()
}

/// The crash scenario's target: stream a deterministic prefix of the suite
/// into a durable in-process daemon, **crash-stop** it (workers exit
/// without the final WAL sync/checkpoint; queued batches are discarded),
/// and — with `restart` — start a fresh daemon on the same data directory
/// and wait for its recovery. Returns the recovered daemon.
///
/// `kill_after_events` is distributed proportionally across slices, so the
/// bytes *sent* are deterministic; what survives the crash is not (that is
/// the point), but any surviving prefix must recover consistently.
pub fn crash_and_restart(
    suite: &[SuiteEntry],
    cfg: &LoadConfig,
    daemon_cfg: DaemonConfig,
    kill_after_events: u64,
    restart: bool,
) -> io::Result<Option<Daemon>> {
    assert!(
        daemon_cfg.data_dir.is_some(),
        "crash replay requires a durable daemon (data_dir)"
    );
    let total_events: u64 = suite.iter().map(|e| e.trace.num_events() as u64).sum();
    let d1 = Daemon::start(daemon_cfg.clone())?;
    let partial = LoadConfig {
        addr: d1.local_addr(),
        ..cfg.clone()
    };
    ingest(suite, &partial, Some(kill_after_events))?;
    eprintln!(
        "[cts-loadgen] crash-stopping the daemon after ~{kill_after_events} of \
         {total_events} events"
    );
    d1.kill();
    if !restart {
        return Ok(None);
    }
    let d2 = Daemon::start(daemon_cfg)?;
    let t0 = Instant::now();
    while d2.is_recovering() {
        if t0.elapsed() > Duration::from_secs(120) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "daemon recovery did not finish within 120 s",
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    eprintln!(
        "[cts-loadgen] daemon recovered in {:.3} s; re-streaming the full suite",
        t0.elapsed().as_secs_f64()
    );
    Ok(Some(d2))
}

/// Crash-replay scenario: [`crash_and_restart`], then re-stream the *full*
/// suite into the recovered daemon and run the standard differential
/// checks.
///
/// Re-streaming is safe because the reorder buffer deduplicates: every
/// event the recovered daemon already holds is dropped on arrival, exactly
/// what a real client re-transmitting after a server crash relies on. The
/// returned report's `mismatches` must be zero — recovery that loses,
/// duplicates, or reorders state shows up as a differential failure.
pub fn run_crash_replay(
    suite: &[SuiteEntry],
    cfg: &LoadConfig,
    daemon_cfg: DaemonConfig,
    kill_after_events: u64,
    restart: bool,
) -> io::Result<Option<LoadReport>> {
    let Some(daemon) = crash_and_restart(suite, cfg, daemon_cfg, kill_after_events, restart)?
    else {
        return Ok(None);
    };
    let cfg = LoadConfig {
        addr: daemon.local_addr(),
        ..cfg.clone()
    };
    let report = run(suite, &cfg)?;
    daemon.shutdown();
    Ok(Some(report))
}

// ---- scenarios: what differs between the soaks ----

/// The computations a scenario streams and, per computation, the
/// delivery-order offsets where its plant phase flushes and samples (the
/// last is the trace's end). `cuts` is empty when there is no plant phase.
pub struct Fixtures {
    pub suite: Vec<SuiteEntry>,
    pub cuts: Vec<Vec<usize>>,
}

/// What the plant phase reads at every cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampler {
    /// No plant phase.
    None,
    /// `QueryClusterMap`: a cluster-receive-ratio curve per fixture. The
    /// liveness gate wants at least one drift migration per fixture.
    ClusterMap,
    /// `QueryPlacement`: the live shard layout after the last cut. The
    /// liveness gate wants at least one autoscale action over all fixtures.
    Placement,
}

/// One soak of the driver: everything that differs between soaks. The
/// pipeline around it — target, plant phase, [`run`], extras, teardown —
/// is shared.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// The flag that selects it (without `--`), and its name in messages.
    pub name: &'static str,
    /// Planted fixtures and their cuts; `None` streams the suite the
    /// caller picks, with no plant phase.
    pub planted: Option<fn() -> Fixtures>,
    /// What the in-process daemon needs for the soak to mean anything,
    /// given the max cluster size. An external daemon must be started so.
    pub daemon: fn(&mut DaemonConfig, u32),
    /// Max cluster size unless the caller sets one.
    pub max_cluster_size: Option<u32>,
    /// Events per frame in the plant phase; `None` = the load's `batch`.
    pub plant_batch: Option<usize>,
    pub sampler: Sampler,
}

/// The differential soak over a workload suite.
pub const STANDARD: Scenario = Scenario {
    name: "standard",
    planted: None,
    daemon: |_, _| {},
    max_cluster_size: None,
    plant_batch: None,
    sampler: Sampler::None,
};

/// Adaptive re-clustering: the planted-drift fixtures, cut at their
/// planted phase boundaries so the ratio curves line up with the plants,
/// through an adaptive daemon. Max cluster size 12: the phase-stencil
/// fixture's blocks are 8 wide, and a migration needs headroom in the
/// destination cluster, so 8 would pin every process in place.
pub const DRIFT: Scenario = Scenario {
    name: "drift",
    planted: Some(drift_fixtures),
    daemon: |d, max_cluster_size| {
        d.adaptive = Some(AdaptiveParams::new(max_cluster_size as usize));
    },
    max_cluster_size: Some(12),
    plant_batch: None,
    sampler: Sampler::ClusterMap,
};

/// Shard autoscaling: planted hot-group fixtures, cut at thirds, through a
/// daemon autoscaling from at least two shards. The plant arrives in
/// 16-event frames: the placement engine paces itself in shard *messages*
/// (cooldowns, EWMA decay), so the plant must arrive as enough messages to
/// warm the EWMAs and clear the decision cooldown before the fixture runs
/// out. Splits and retires must not perturb a single stamp.
pub const PLACE: Scenario = Scenario {
    name: "place",
    planted: Some(place_fixtures),
    daemon: |d, _| {
        d.shards = d.shards.max(2);
        d.auto_scale = true;
    },
    max_cluster_size: None,
    plant_batch: Some(16),
    sampler: Sampler::Placement,
};

impl Scenario {
    /// The computations this scenario streams: its planted fixtures, or
    /// `suite()` without a plant phase.
    pub fn fixtures(&self, suite: impl FnOnce() -> Vec<SuiteEntry>) -> Fixtures {
        match self.planted {
            Some(planted) => planted(),
            None => Fixtures {
                suite: suite(),
                cuts: Vec::new(),
            },
        }
    }
}

/// The planted-drift fixtures, cut at their drift points. These are the
/// parameterizations pinned by the workloads crate's
/// `golden_drift_families` test — edits there fail goldens before they can
/// invalidate the soak's phase alignment.
fn drift_fixtures() -> Fixtures {
    let stencil = PhaseShiftStencil {
        procs: 32,
        phases: 4,
        iters_per_phase: 6,
        block: 8,
    };
    let tiers = RebalancedWebTiers {
        clients: 12,
        frontends: 6,
        backends: 6,
        requests: 600,
        phases: 3,
    };
    // Each fixture is cut at its planted drift points and at its end.
    let fixture = |name, env, trace: Trace, points: Vec<u64>| {
        let mut cuts: Vec<usize> = points.iter().map(|&p| p as usize).collect();
        cuts.push(trace.num_events());
        (SuiteEntry { name, env, trace }, cuts)
    };
    let (suite, cuts) = [
        fixture(
            stencil.name(),
            Env::Pvm,
            stencil.generate(1),
            stencil.drift_points(),
        ),
        fixture(
            tiers.name(),
            Env::Java,
            tiers.generate(1),
            tiers.drift_points(),
        ),
    ]
    .into_iter()
    .unzip();
    Fixtures { suite, cuts }
}

/// Two hot-group plants with different shapes, each cut at thirds: the
/// placement verb answers mid-stream, not just at the end, and the
/// flushes prove cuts interleave with rescales.
fn place_fixtures() -> Fixtures {
    let (suite, cuts) = [hot_group_trace(6, 4, 8, 32), hot_group_trace(8, 3, 6, 24)]
        .into_iter()
        .map(|trace| {
            let n = trace.num_events();
            let name = trace.name().to_string();
            let env = Env::Synthetic;
            (SuiteEntry { name, env, trace }, vec![n / 3, 2 * n / 3, n])
        })
        .unzip();
    Fixtures { suite, cuts }
}

/// Outcome of [`run_planted`].
#[derive(Debug)]
pub struct PlantedReport {
    /// The differential run over the same computations.
    pub load: LoadReport,
    /// Per fixture, one cluster map per cut ([`Sampler::ClusterMap`]).
    pub curves: Vec<(String, Vec<ClusterMap>)>,
    /// Per fixture, the placement after the last cut
    /// ([`Sampler::Placement`]).
    pub placements: Vec<(String, Placement)>,
}

impl PlantedReport {
    /// Drift migrations across the fixtures, at their last cut.
    pub fn migrations(&self) -> u64 {
        self.curves
            .iter()
            .filter_map(|(_, curve)| curve.last())
            .map(|m| m.migrations)
            .sum()
    }

    /// Fixtures whose curve ends without a single migration: the drift
    /// detector failed to react to a planted drift.
    pub fn undetected(&self) -> Vec<&str> {
        self.curves
            .iter()
            .filter(|(_, curve)| curve.last().is_some_and(|m| m.migrations == 0))
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Autoscale actions (splits + retires) across the fixtures.
    pub fn rescales(&self) -> u64 {
        self.placements.iter().map(|(_, p)| p.rescales).sum()
    }

    /// What the liveness gate read, for the verdict line.
    pub fn liveness(&self) -> String {
        let mut out = String::new();
        if !self.curves.is_empty() {
            out.push_str(&format!(", {} migrations", self.migrations()));
        }
        if !self.placements.is_empty() {
            out.push_str(&format!(", {} autoscale actions", self.rescales()));
        }
        out
    }

    /// Zero mismatches *and* the scenario's liveness gate.
    pub fn passed(&self) -> bool {
        self.load.mismatches == 0
            && self.undetected().is_empty()
            && (self.placements.is_empty() || self.rescales() >= 1)
    }

    /// The load summary, preceded by the placements and followed by the
    /// ratio curves.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, p) in &self.placements {
            let occ: Vec<String> = p
                .occupancy_q16
                .iter()
                .map(|&q| format!("{:.2}", q as f64 / 65536.0))
                .collect();
            let _ = writeln!(
                out,
                "{name}: shards={} rescales={} steals={} pinned={} occupancy=[{}]",
                p.shards,
                p.rescales,
                p.steals,
                p.pinned,
                occ.join(" "),
            );
        }
        out.push_str(&self.load.render());
        if !self.curves.is_empty() {
            let _ = write!(out, "\nmigrations        {}", self.migrations());
        }
        for (name, curve) in &self.curves {
            let _ = write!(out, "\nratio curve       {name}");
            for m in curve {
                let ratio = if m.delivered == 0 {
                    0.0
                } else {
                    m.cluster_receives as f64 / m.delivered as f64
                };
                let _ = write!(
                    out,
                    "\n  @{:<8} cr {:<7} ratio {ratio:.4}  merges {:<4} migrations {}",
                    m.delivered, m.cluster_receives, m.merges, m.migrations,
                );
            }
        }
        let undetected = self.undetected();
        if !undetected.is_empty() {
            let _ = write!(
                out,
                "\nUNDETECTED drift  {undetected:?} (no migration fired)"
            );
        }
        out
    }
}

/// The soak pipeline against the daemon at `cfg.addr`: the plant phase,
/// then [`run`] over the same computations.
///
/// The plant phase streams each planted fixture on one connection *in
/// delivery order*, flushing and sampling at every cut — that alignment is
/// what makes the samples interpretable. [`run`] then re-streams the same
/// computations shuffled and duplicated; the reorder buffer absorbs all of
/// it (everything is already delivered), and its query, batch, as-of and
/// window phases do the differential checking. Without planted fixtures
/// this is [`run`] alone.
pub fn run_planted(
    scenario: &Scenario,
    fixtures: &Fixtures,
    cfg: &LoadConfig,
) -> io::Result<PlantedReport> {
    let batch = scenario.plant_batch.unwrap_or(cfg.batch);
    let mut curves = Vec::new();
    let mut placements = Vec::new();
    for (entry, cuts) in fixtures.suite.iter().zip(&fixtures.cuts) {
        let mut client = Client::connect(cfg.addr)?;
        client.proto_hello()?;
        client.hello(
            &entry.name,
            entry.trace.num_processes(),
            cfg.max_cluster_size,
        )?;
        let events = entry.trace.events();
        let mut curve = Vec::new();
        let mut placement = None;
        let mut from = 0usize;
        for &cut in cuts {
            client.stream_events(&events[from..cut], batch)?;
            client.flush(cut as u64)?;
            match scenario.sampler {
                Sampler::None => {}
                Sampler::ClusterMap => curve.push(client.cluster_map()?),
                Sampler::Placement => placement = Some(client.placement()?),
            }
            from = cut;
        }
        if !curve.is_empty() {
            curves.push((entry.name.clone(), curve));
        }
        if let Some(p) = placement {
            placements.push((entry.name.clone(), p));
        }
        client.goodbye()?;
    }
    let load = run(&fixtures.suite, cfg)?;
    Ok(PlantedReport {
        load,
        curves,
        placements,
    })
}

// ---- C10K: idle-connection capacity and cost ----

/// Open `n` connections, complete a `Hello` on each, and return them to be
/// *held idle*. Deliberately raw `TcpStream`s — a [`Client`] wraps its
/// stream in a `BufWriter` whose 8 KiB buffer would dominate the client
/// side of a per-connection memory measurement (and at 10 000 connections,
/// 80 MB of loadgen buffers says nothing about the daemon).
pub fn hold_idle_conns(addr: SocketAddr, n: usize) -> io::Result<Vec<std::net::TcpStream>> {
    use crate::wire::{read_msg, write_msg, Msg};
    let mut conns = Vec::with_capacity(n);
    for _ in 0..n {
        let mut s = std::net::TcpStream::connect(addr)?;
        write_msg(
            &mut s,
            &Msg::Hello {
                computation: "c10k-idle".into(),
                num_processes: 1,
                max_cluster_size: 8,
            },
        )?;
        match read_msg(&mut s)? {
            Some(Msg::HelloAck { .. }) => {}
            Some(Msg::Error { code, message }) => {
                return Err(io::Error::other(format!(
                    "daemon refused idle connection {} of {n}: error {code}: {message}",
                    conns.len() + 1
                )));
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected hello reply on idle connection: {other:?}"
                )));
            }
        }
        conns.push(s);
    }
    Ok(conns)
}

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat`. Returns 0 where /proc is unavailable.
pub fn proc_cpu_ms() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields 14/15 (utime/stime) count in clock ticks; the comm field may
    // contain spaces but is parenthesized, so split after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11usize, 12] // utime, stime (0-indexed after comm)
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    // CLK_TCK is 100 on every Linux ABI this runs on.
    ticks * 10
}

/// Resident set size in bytes, from `/proc/self/statm`. Returns 0 where
/// /proc is unavailable.
pub fn proc_rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse::<u64>().ok())
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// Idle-cost comparison of the two network backends, as `cts-bench/1`
/// entries:
///
/// - `daemon_ingest/c10k_idle_cpu_{epoll,threads}`: process CPU
///   milliseconds (reported in the ns field) burned over a fixed window
///   while `conns` connections sit idle. The thread backend's
///   read-timeout polling wakes every connection thread 20×/s; the epoll
///   backend's pollers sleep in `epoll_wait`.
/// - `daemon_ingest/c10k_rss_per_conn_{epoll,threads}`: resident bytes
///   per held connection (thread stacks vs. one `Conn` struct) — the
///   equal-RSS capacity ratio between the backends.
///
/// Both measurements are floored (1 ms / 1 byte) so ratio gates never
/// divide by an unmeasurably-good zero. The daemon runs in-process; the
/// client side is raw fds (see [`hold_idle_conns`]), identical for both
/// backends, so it cancels out of the ratio.
pub fn c10k_bench_entries(
    epoll_conns: usize,
    thread_conns: usize,
    window: Duration,
) -> io::Result<Vec<BenchEntry>> {
    use crate::server::NetBackend;
    // Both ends of every held connection live in this process.
    #[cfg(target_os = "linux")]
    let _ = crate::netpoll::raise_nofile_to_hard();
    let mut out = Vec::new();
    for (label, net, conns) in [
        ("epoll", NetBackend::Epoll, epoll_conns),
        ("threads", NetBackend::Threads, thread_conns),
    ] {
        let daemon_cfg = DaemonConfig {
            net,
            max_conn_threads: conns + 64,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(daemon_cfg)?;
        let rss0 = proc_rss_bytes();
        let held = hold_idle_conns(daemon.local_addr(), conns)?;
        // Let accept bursts, thread spawns, and allocator churn settle
        // before sampling.
        std::thread::sleep(Duration::from_millis(300));
        let rss1 = proc_rss_bytes();
        let cpu0 = proc_cpu_ms();
        std::thread::sleep(window);
        let cpu_ms = (proc_cpu_ms() - cpu0).max(1);
        let rss_per_conn = (rss1.saturating_sub(rss0) / conns.max(1) as u64).max(1);
        eprintln!(
            "[cts-loadgen] c10k {label}: {conns} idle conns, {cpu_ms} ms CPU / \
             {:.1} s window, {rss_per_conn} B resident per conn",
            window.as_secs_f64()
        );
        drop(held);
        daemon.shutdown();
        let scalar = |name: String, v: f64| BenchEntry {
            group: "daemon_ingest".into(),
            name,
            samples: 1,
            iters_per_sample: conns as u64,
            min_ns: v,
            median_ns: v,
            p95_ns: v,
            mean_ns: v,
        };
        out.push(scalar(format!("c10k_idle_cpu_{label}"), cpu_ms as f64));
        out.push(scalar(
            format!("c10k_rss_per_conn_{label}"),
            rss_per_conn as f64,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::linearize::is_valid_delivery_order;
    use cts_workloads::suite::mini_suite;

    #[test]
    fn slices_partition_the_trace_and_shuffles_are_deterministic() {
        let suite = mini_suite();
        let trace = &suite[0].trace;
        let cfg = LoadConfig::default();
        let (a0, d0) = build_slice(trace.events(), 0, &cfg, 0);
        let (a1, d1) = build_slice(trace.events(), 1, &cfg, 0);
        // Together (minus duplicates) the slices hold every event once.
        let mut seen: Vec<EventId> = a0.iter().chain(a1.iter()).map(|e| e.id).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), trace.num_events());
        assert_eq!(
            (a0.len() + a1.len()) as u64,
            trace.num_events() as u64 + d0 + d1
        );
        // Same inputs, same slice.
        let (b0, _) = build_slice(trace.events(), 0, &cfg, 0);
        assert_eq!(a0, b0);
        // A shuffled slice is genuinely out of order (else the test is
        // vacuous).
        let in_order: Vec<Event> = trace
            .events()
            .iter()
            .enumerate()
            .filter(|(pos, _)| pos % 2 == 0)
            .map(|(_, &e)| e)
            .collect();
        let without_dups: Vec<Event> = {
            let mut v = a0.clone();
            v.dedup();
            v
        };
        assert_ne!(in_order, without_dups, "shuffle did nothing");
        assert!(!is_valid_delivery_order(trace.num_processes(), &a0));
    }
}
