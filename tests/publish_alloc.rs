//! A publish costs O(new events), not O(history).
//!
//! An epoch snapshot is a set of prefix handles on the append-only
//! delivered log and stamp log, so the bytes it allocates must not grow
//! with the number of events already accepted. This binary counts heap
//! bytes per thread with a wrapping global allocator and measures one
//! publish-equivalent — the engine's snapshot plus the trace cut — at two
//! history lengths, for both single-worker engines. A second test drives an
//! in-process computation whose retained epochs outlive several moves of
//! the shared buffers and checks every retained epoch against an offline
//! run over its prefix.

use cts_core::cluster::{AdaptiveEngine, AdaptiveParams, ClusterTimestamps};
use cts_core::strategy::MergeOnFirst;
use cts_core::ClusterEngine;
use cts_daemon::pipeline::{Computation, ComputationConfig, Snapshot};
use cts_daemon::shard::StampStrategy;
use cts_model::linearize::relinearize;
use cts_model::{Event, EventId, Trace, TraceLog};
use cts_store::queries::{greatest_concurrent, ClusterBackend};
use cts_workloads::spmd::{BlockedStencil1D, Stencil1D};
use cts_workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// `System`, plus a per-thread count of bytes requested.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: never panic inside the allocator, even during thread
    // teardown. The cell is const-initialised, so this never allocates.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only a const-initialised thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread allocates while running `f`.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// The 128-process blocked stencil of the `long_durable` benchmark
/// workload, long enough for 200 000 accepted events.
fn stencil() -> Trace {
    let t = BlockedStencil1D {
        procs: 128,
        iters: 130,
        block: 8,
    }
    .generate(0);
    assert!(t.num_events() >= 200_000, "{} events", t.num_events());
    t
}

/// Feed `events` through a log and an engine the way the single worker
/// does, keeping the last 8 published epochs alive (a publish every 4 096
/// events), and return the bytes of one publish-equivalent after each
/// length in `at`.
fn publish_bytes(
    trace: &Trace,
    at: &[usize],
    mut accept: impl FnMut(Event),
    snapshot: impl Fn() -> ClusterTimestamps,
) -> Vec<u64> {
    let mut log = TraceLog::new("alloc", trace.num_processes());
    let mut retained: Vec<(Trace, ClusterTimestamps)> = Vec::new();
    let mut out = Vec::new();
    for (i, &ev) in trace.events().iter().enumerate() {
        log.push(ev).expect("a builder trace is a delivery order");
        accept(ev);
        if (i + 1) % 4096 == 0 {
            retained.push((log.trace().expect("no sync here"), snapshot()));
            if retained.len() > 8 {
                retained.remove(0);
            }
        }
        if at.contains(&(i + 1)) {
            let (bytes, epoch) = bytes_during(|| (log.trace().expect("no sync here"), snapshot()));
            assert_eq!(epoch.0.num_events(), i + 1);
            assert_eq!(epoch.1.stamps().len(), i + 1);
            out.push(bytes);
        }
    }
    out
}

fn assert_flat(what: &str, bytes: &[u64]) {
    let (early, late) = (bytes[0], bytes[1]);
    eprintln!("{what}: one publish allocates {early} B at 50k events, {late} B at 200k");
    assert!(
        late <= early + 4096,
        "{what}: publish bytes grew with history: {early} B at 50k, {late} B at 200k"
    );
    assert!(
        early.max(late) <= 256 << 10,
        "{what}: a publish allocates {} B, over 256 KiB",
        early.max(late)
    );
}

#[test]
fn publish_allocations_do_not_grow_with_history() {
    let t = stencil();
    let n = t.num_processes();
    let at = [50_000, 200_000];

    let engine = std::cell::RefCell::new(ClusterEngine::new(n, MergeOnFirst::new(8)));
    let bytes = publish_bytes(
        &t,
        &at,
        |ev| engine.borrow_mut().accept(ev),
        || engine.borrow().snapshot(),
    );
    assert_flat("ClusterEngine<MergeOnFirst>", &bytes);

    let engine = std::cell::RefCell::new(AdaptiveEngine::new(n, AdaptiveParams::new(8)));
    let bytes = publish_bytes(
        &t,
        &at,
        |ev| engine.borrow_mut().accept(ev),
        || engine.borrow().snapshot(),
    );
    assert_flat("AdaptiveEngine", &bytes);
}

/// Prime-stride sample of `count` pairs over `ids`.
fn sample_pairs(ids: &[EventId], count: usize) -> Vec<(EventId, EventId)> {
    (0..count)
        .map(|i| {
            (
                ids[(i * 7919) % ids.len()],
                ids[(i * 104_729 + 13) % ids.len()],
            )
        })
        .collect()
}

/// Every retained epoch answers exactly like an offline engine run over
/// its own prefix, although the shared buffers its handles point into
/// were outgrown several times while it stayed retained.
#[test]
fn retained_epochs_survive_buffer_growth() {
    let t = Stencil1D {
        procs: 16,
        iters: 60,
    }
    .generate(5);
    let arrivals = relinearize(&t, 9);
    let comp = Computation::spawn(ComputationConfig {
        name: "shared-history".to_string(),
        num_processes: t.num_processes(),
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
        durability: None,
        query_cache_capacity: 0,
        retain_epochs: 8,
        retain_bytes: 0,
    });
    // Take the retained ring at a few points along the stream and keep
    // every epoch seen. The logs start empty and double when full, so
    // between the first capture (~300 events) and the end (~3 800) the
    // event, position and stamp buffers each move at least three times
    // while the early epochs are still held.
    let total = arrivals.num_events();
    assert!(total >= 3_000, "{total} events");
    let mut held: Vec<Arc<Snapshot>> = Vec::new();
    let mut sent = 0;
    for chunk in arrivals.events().chunks(32) {
        comp.enqueue_events(chunk.to_vec()).expect("enqueue");
        sent += chunk.len();
        if [320, 1_024, 2_048]
            .iter()
            .any(|&m| sent - chunk.len() < m && sent >= m)
        {
            comp.flush(sent as u64, Duration::from_secs(60))
                .expect("flush");
            let retainer = comp.retainer();
            for info in retainer.list() {
                if held.iter().all(|s| s.epoch != info.epoch) {
                    held.push(retainer.get(info.epoch).expect("listed epoch"));
                }
            }
        }
    }
    comp.flush(total as u64, Duration::from_secs(60))
        .expect("flush");
    let retainer = comp.retainer();
    for info in retainer.list() {
        if held.iter().all(|s| s.epoch != info.epoch) {
            held.push(retainer.get(info.epoch).expect("listed epoch"));
        }
    }
    let head = comp.snapshot();
    assert_eq!(head.delivered, total as u64);
    assert!(held.len() >= 16, "only {} epochs captured", held.len());
    assert!(held.iter().any(|s| s.delivered <= 384));

    for snap in &held {
        let k = snap.delivered as usize;
        // The epoch's events are the head's first `k`, untouched by the
        // appends and moves since.
        assert_eq!(snap.trace.events(), &head.trace.events()[..k]);
        let prefix = Trace::from_delivery_order(
            "prefix",
            t.num_processes(),
            head.trace.events()[..k].to_vec(),
        )
        .expect("a published prefix is a delivery order");
        let offline = ClusterEngine::run(&prefix, MergeOnFirst::new(4));
        // A single worker stamps exactly like the offline engine.
        assert_eq!(snap.cts.stamps(), offline.stamps(), "epoch {}", snap.epoch);
        let ids: Vec<EventId> = prefix.all_event_ids().collect();
        for (e, f) in sample_pairs(&ids, 300) {
            assert_eq!(
                snap.cts.precedes(&snap.trace, e, f),
                offline.precedes(&prefix, e, f),
                "epoch {}: {e} -> {f}",
                snap.epoch
            );
        }
        for &e in ids.iter().step_by(ids.len() / 12 + 1) {
            assert_eq!(
                greatest_concurrent(&mut ClusterBackend(&snap.cts), &snap.trace, e),
                greatest_concurrent(&mut ClusterBackend(&offline), &prefix, e),
                "epoch {}: gc({e})",
                snap.epoch
            );
        }
    }
    comp.shutdown();
}
