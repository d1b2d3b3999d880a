//! What one arrival costs the reorder buffer.
//!
//! Allocations: a counting global allocator counts allocation calls per
//! thread while the standard suite goes through `offer_with` with a hook
//! that allocates nothing — once in trace order, once as the load
//! generator's two-connection arrival (`loadgen::build_slice`: window-64
//! shuffle, every 97th event re-sent, slices interleaved frame by frame).
//! Buffer construction is counted too.
//!
//! Adversarial shapes: a long run parked behind one gap, and a hub whose
//! every receive arrives before its send, must each drain within a wall
//! clock bound that only an insertion cost linear in the parked count
//! could miss.

use cts_daemon::loadgen::{build_slice, LoadConfig};
use cts_daemon::{DeliveryHooks, ReorderBuffer};
use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
use cts_workloads::suite::standard_suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// `System`, plus a per-thread count of allocation calls.
struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: never panic inside the allocator, even during thread
    // teardown. The cell is const-initialised, so this never allocates.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only a const-initialised thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Counts deliveries; allocates nothing.
struct Count(u64);

impl DeliveryHooks for Count {
    fn deliver(&mut self, _: Event) {
        self.0 += 1;
    }
}

/// Allocation calls this thread makes to build a buffer for
/// `num_processes` and offer it `arrivals`; every distinct event must come
/// out.
fn allocations(num_processes: u32, arrivals: &[Event], distinct: usize) -> u64 {
    let before = CALLS.with(Cell::get);
    let mut buf = ReorderBuffer::new(num_processes);
    let mut out = Count(0);
    for &ev in arrivals {
        buf.offer_with(ev, &mut out)
            .expect("suite events are well formed");
    }
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(out.0 as usize, distinct);
    assert_eq!(buf.depth(), 0);
    drop(buf);
    calls
}

/// Events in the order two connections deliver them: each slice's frames,
/// alternating.
fn two_slice_arrival(events: &[Event], comp_index: usize) -> Vec<Event> {
    let cfg = LoadConfig::default();
    assert_eq!(cfg.slices_per_comp, 2);
    let slices: Vec<Vec<Event>> = (0..2)
        .map(|s| build_slice(events, s, &cfg, comp_index).0)
        .collect();
    let mut frames: Vec<_> = slices.iter().map(|s| s.chunks(cfg.batch)).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for f in &mut frames {
            out.extend_from_slice(f.next().unwrap_or_default());
        }
        if out.len() == before {
            return out;
        }
    }
}

#[test]
fn an_arrival_allocates_almost_never() {
    let suite = standard_suite();
    let (mut arrivals, mut in_order, mut sliced) = ([0u64; 2], 0, 0);
    for (c, entry) in suite.iter().enumerate() {
        let t = &entry.trace;
        in_order += allocations(t.num_processes(), t.events(), t.num_events());
        arrivals[0] += t.num_events() as u64;
        let arrival = two_slice_arrival(t.events(), c);
        sliced += allocations(t.num_processes(), &arrival, t.num_events());
        arrivals[1] += arrival.len() as u64;
    }
    let per = |calls: u64, n: u64| calls as f64 / n as f64;
    eprintln!(
        "allocation calls per arrival: in order {:.3}, two slices {:.3}",
        per(in_order, arrivals[0]),
        per(sliced, arrivals[1])
    );
    assert!(per(in_order, arrivals[0]) < 0.1);
    assert!(per(sliced, arrivals[1]) < 0.1);
}

fn ev(p: u32, i: u32, kind: EventKind) -> Event {
    Event::new(EventId::new(ProcessId(p), EventIndex(i)), kind)
}

/// Offer `arrivals`, then require an empty buffer within `limit`.
fn drains_within(name: &str, num_processes: u32, arrivals: &[Event], limit: Duration) {
    let t0 = Instant::now();
    let mut buf = ReorderBuffer::new(num_processes);
    let mut out = Count(0);
    for &e in arrivals {
        buf.offer_with(e, &mut out).unwrap();
    }
    let took = t0.elapsed();
    assert_eq!(out.0 as usize, arrivals.len(), "{name}");
    assert_eq!(buf.depth(), 0, "{name}");
    assert!(took < limit, "{name}: {took:?}");
}

#[test]
fn a_long_run_behind_one_gap_drains() {
    const RUN: u32 = 200_000;
    let run = |i: u32| ev(0, i, EventKind::Internal);
    let increasing: Vec<u32> = (2..=RUN + 1).collect();
    let decreasing: Vec<u32> = increasing.iter().rev().copied().collect();
    let alternating: Vec<u32> = (0..RUN as usize)
        .map(|k| match k % 2 {
            0 => increasing[k / 2],
            _ => decreasing[k / 2],
        })
        .collect();
    for (name, order) in [
        ("increasing", increasing),
        ("decreasing", decreasing),
        ("alternating ends", alternating),
    ] {
        let mut arrivals: Vec<Event> = order.into_iter().map(run).collect();
        arrivals.push(run(1));
        drains_within(name, 1, &arrivals, Duration::from_secs(60));
    }
}

#[test]
fn receives_ahead_of_their_hub_sends_drain() {
    const MESSAGES: u32 = 50_000;
    const SPOKES: u32 = 100;
    let mut receives = Vec::new();
    let mut sends = Vec::new();
    for m in 0..MESSAGES {
        let spoke = 1 + m % SPOKES;
        let send = ev(
            0,
            m + 1,
            EventKind::Send {
                to: ProcessId(spoke),
            },
        );
        sends.push(send);
        receives.push(ev(
            spoke,
            m / SPOKES + 1,
            EventKind::Receive { from: send.id },
        ));
    }
    receives.extend(sends);
    drains_within("hub", SPOKES + 1, &receives, Duration::from_secs(60));
}
