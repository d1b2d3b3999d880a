//! Causal-delivery reorder buffer.
//!
//! Clients stream events over independent TCP connections, so the daemon
//! observes an arbitrary interleaving — possibly with per-stream reordering
//! (retransmits, multi-path splits) and duplicates. The timestamp engine,
//! however, requires a *valid delivery order* (per-process sequence order,
//! receives after their sends, sync halves adjacent —
//! `cts_model::linearize::is_valid_delivery_order`). [`ReorderBuffer`] sits
//! between the two: events go in however they arrive, and come out in a
//! valid delivery order, exactly once each.
//!
//! There is one buffer for both ingest runtimes. It owns a subset of the
//! processes: the single worker's buffer owns every process, and each shard
//! core's owns its process group. Edges whose far end is not owned are
//! resolved through [`DeliveryHooks`] (in the daemon, against the
//! cross-shard clock exchange); a buffer that owns everything never asks.
//!
//! The buffer is O(1) amortized per event: an event that cannot yet be
//! delivered is parked under the single *blocker* it is waiting for (its
//! process predecessor, its message source, or its sync partner), and a
//! worklist cascade re-examines exactly the parked events whose blocker just
//! arrived or got delivered.
//!
//! Malformed edges never reach the engine. An event naming a process outside
//! the computation is refused at [`offer`](ReorderBuffer::offer). A receive
//! is deliverable only while its source is a delivered send that nothing has
//! received yet, and a sync only together with a partner that is a sync
//! naming it back; an edge that fails either test parks, like a receive of a
//! send that never arrives.

use cts_model::{Event, EventId, EventIndex, EventKind, ProcessId};
use std::collections::HashMap;

/// An event the buffer cannot accept at all (as opposed to "not yet").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// The event names a process outside the computation.
    UnknownProcess,
    /// A different event with the same id was already observed — the stream
    /// is corrupt, not merely reordered.
    ConflictingDuplicate,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownProcess => write!(f, "event names an unknown process"),
            RejectReason::ConflictingDuplicate => {
                write!(f, "conflicting event already observed under the same id")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// The first process `ev` names — its own, or the far end of its edge —
/// that lies outside `0..num_processes`.
pub(crate) fn unknown_process(ev: &Event, num_processes: u32) -> Option<ProcessId> {
    let far = match ev.kind {
        EventKind::Internal => None,
        EventKind::Send { to } => Some(to),
        EventKind::Receive { from } => Some(from.process),
        EventKind::Sync { peer } => Some(peer.process),
    };
    [Some(ev.process()), far]
        .into_iter()
        .flatten()
        .find(|p| p.0 >= num_processes)
}

/// Callbacks a [`ReorderBuffer`] uses to resolve the edges whose far end it
/// does not own, and to hand over delivered events.
///
/// A shard core's buffer owns a subset of the processes. Edges whose far end
/// lives on another shard (a receive whose send is foreign, a sync whose
/// peer is foreign) are resolved through these hooks — in production against
/// the cross-shard clock exchange, in the deterministic schedule harness
/// against a single-threaded simulation. A buffer that owns every process
/// (the single worker) only ever calls `deliver`.
///
/// `deliver` is invoked *during* the cascade, one event at a time, so that a
/// later readiness probe in the same cascade (notably `sync_ready`, which
/// publishes the pre-sync frontier) observes the effects of everything
/// delivered before it.
pub trait DeliveryHooks {
    /// Is the clock of `id` — a send, or a sync half delivered alone, that
    /// this buffer holds no clock for — available? A `false` return MUST
    /// register this buffer for a wake-up when it becomes available. Called
    /// only when the waiting event is otherwise next-in-line; may be called
    /// repeatedly for the same id.
    fn clock_ready(&mut self, id: EventId) -> bool;

    /// Is the foreign sync peer ready? Implementations publish `my_half`'s
    /// pre-sync frontier (idempotently) and probe the peer's, registering
    /// for a wake-up on `peer` if it is not there yet. Called only when
    /// `my_half` is next-in-line on its own process.
    fn sync_ready(&mut self, my_half: EventId, peer: EventId) -> bool;

    /// `ev` is delivered: apply it to the engine state (clocks, stamps,
    /// delivered log) before the cascade continues.
    fn deliver(&mut self, ev: Event);
}

/// The hooks behind [`ReorderBuffer::offer`]: nothing is foreign, so no
/// clock is ever available from outside, and deliveries are collected.
struct Collect(Vec<Event>);

impl DeliveryHooks for Collect {
    fn clock_ready(&mut self, _: EventId) -> bool {
        false
    }

    fn sync_ready(&mut self, _: EventId, _: EventId) -> bool {
        false
    }

    fn deliver(&mut self, ev: Event) {
        self.0.push(ev);
    }
}

/// Reorders an arbitrary arrival interleaving of the events of its *owned*
/// processes into a valid delivery order.
///
/// [`new`](Self::new) owns every process (the single worker);
/// [`owning`](Self::owning) owns one shard's group, and then:
///
/// - per-process watermarks are authoritative only for owned processes;
///   events are offered only for owned processes (the runtime routes);
/// - a receive from a foreign process parks under the send id until the
///   exchange wakes us ([`wake`](Self::wake));
/// - a sync with a foreign peer delivers *only its own half* (the peer's
///   shard delivers the other); both halves still compute the identical
///   combined clock from the exchanged pre-sync frontiers;
/// - processes can be released to and adopted from another shard at a
///   rebalance barrier ([`release_process`](Self::release_process) /
///   [`adopt_process`](Self::adopt_process) /
///   [`reexamine_process`](Self::reexamine_process)).
#[derive(Clone, Debug)]
pub struct ReorderBuffer {
    num_processes: u32,
    owned: Vec<bool>,
    /// Events observed but not yet deliverable, by id.
    pending: HashMap<EventId, Event>,
    /// Per-process count of delivered events (index of the last delivered).
    delivered: Vec<u32>,
    /// Per owned process, bit `i` of the bitmap is set while event `i` is a
    /// delivered send to an owned process that nothing has received yet —
    /// exactly the sends whose clocks the engine holds locally.
    unreceived: Vec<Vec<u64>>,
    /// blocker id → events parked until that blocker arrives/delivers.
    waiting: HashMap<EventId, Vec<EventId>>,
    duplicates: u64,
    delivered_total: u64,
    peak_depth: usize,
}

impl ReorderBuffer {
    /// An empty buffer owning every one of `num_processes` processes.
    pub fn new(num_processes: u32) -> ReorderBuffer {
        ReorderBuffer::owning(num_processes, vec![true; num_processes as usize])
    }

    /// An empty buffer owning the processes for which `owned` is true.
    pub fn owning(num_processes: u32, owned: Vec<bool>) -> ReorderBuffer {
        assert_eq!(owned.len(), num_processes as usize);
        ReorderBuffer {
            num_processes,
            owned,
            pending: HashMap::new(),
            delivered: vec![0; num_processes as usize],
            unreceived: vec![Vec::new(); num_processes as usize],
            waiting: HashMap::new(),
            duplicates: 0,
            delivered_total: 0,
            peak_depth: 0,
        }
    }

    /// Does this buffer currently own process `p`?
    pub fn owns(&self, p: ProcessId) -> bool {
        (p.0 as usize) < self.owned.len() && self.owned[p.idx()]
    }

    /// Offer one observed event to a buffer that owns every process.
    /// Returns the events that became deliverable, in a valid delivery
    /// order (possibly empty; possibly several when this arrival unblocks a
    /// parked chain).
    pub fn offer(&mut self, ev: Event) -> Result<Vec<Event>, RejectReason> {
        let mut out = Collect(Vec::new());
        self.offer_with(ev, &mut out)?;
        Ok(out.0)
    }

    /// Offer one event of an owned process. Returns how many events were
    /// delivered (each passed to `hooks.deliver` during the cascade).
    pub fn offer_with<H: DeliveryHooks>(
        &mut self,
        ev: Event,
        hooks: &mut H,
    ) -> Result<u64, RejectReason> {
        if unknown_process(&ev, self.num_processes).is_some() {
            return Err(RejectReason::UnknownProcess);
        }
        let p = ev.process();
        assert!(self.owned[p.idx()], "event routed to a non-owning shard");
        if ev.index().0 <= self.delivered[p.idx()] {
            // Already delivered: a duplicate (retransmit). Drop silently
            // unless it contradicts what we delivered — we no longer keep
            // delivered events, so only pending conflicts are detectable.
            self.duplicates += 1;
            return Ok(0);
        }
        if let Some(existing) = self.pending.get(&ev.id) {
            if *existing != ev {
                return Err(RejectReason::ConflictingDuplicate);
            }
            self.duplicates += 1;
            return Ok(0);
        }
        self.pending.insert(ev.id, ev);
        self.peak_depth = self.peak_depth.max(self.pending.len());

        // Worklist: this event, plus anything parked waiting for it.
        let mut work = vec![ev.id];
        if let Some(parked) = self.waiting.remove(&ev.id) {
            work.extend(parked);
        }
        Ok(self.cascade(work, hooks))
    }

    /// A cross-shard blocker `id` became available (the exchange published
    /// it): re-examine everything parked under it.
    pub fn wake<H: DeliveryHooks>(&mut self, id: EventId, hooks: &mut H) -> u64 {
        match self.waiting.remove(&id) {
            Some(parked) => self.cascade(parked, hooks),
            None => 0,
        }
    }

    fn cascade<H: DeliveryHooks>(&mut self, mut work: Vec<EventId>, hooks: &mut H) -> u64 {
        let before = self.delivered_total;
        while let Some(id) = work.pop() {
            let Some(&cand) = self.pending.get(&id) else {
                continue; // already delivered by an earlier cascade step
            };
            match self.blocker_of(cand, hooks) {
                Some(blocker) => self.park(id, blocker),
                None => self.deliver(cand, &mut work, hooks),
            }
        }
        self.delivered_total - before
    }

    /// The single event `ev` is waiting for, or `None` if deliverable now.
    fn blocker_of<H: DeliveryHooks>(&self, ev: Event, hooks: &mut H) -> Option<EventId> {
        let p = ev.process();
        let next = self.delivered[p.idx()] + 1;
        if ev.index().0 > next {
            // A process predecessor is missing; park under the immediate
            // predecessor — its own delivery cascades one step at a time.
            return Some(EventId::new(p, EventIndex(ev.index().0 - 1)));
        }
        debug_assert_eq!(ev.index().0, next);
        let (far, ready) = match ev.kind {
            EventKind::Internal | EventKind::Send { .. } => return None,
            EventKind::Receive { from } => {
                // A send not yet delivered here waits. Once delivered, it is
                // ready while this buffer holds its clock, or once the clock
                // is on the exchange (its receiver is foreign, or one end
                // migrated after the send was delivered).
                let q = from.process.idx();
                let sent = !self.owned[q] || self.delivered[q] >= from.index.0;
                (
                    from,
                    sent && (self.is_unreceived(from) || hooks.clock_ready(from)),
                )
            }
            EventKind::Sync { peer } => {
                let q = peer.process.idx();
                let ready = if !self.owned[q] {
                    hooks.sync_ready(ev.id, peer)
                } else if self.delivered[q] >= peer.index.0 {
                    // The peer half was already delivered alone as a
                    // cross-shard sync before its process migrated here;
                    // its pre-sync frontier is still on the exchange.
                    hooks.clock_ready(peer)
                } else {
                    return match self.pending.get(&peer) {
                        // Not a partner: refused, parked.
                        Some(partner) if partner.kind != (EventKind::Sync { peer: ev.id }) => {
                            Some(peer)
                        }
                        // Partner present and also next-in-line: both go.
                        Some(partner) if partner.index().0 == self.delivered[q] + 1 => None,
                        // Partner present but early in its own process: its
                        // own predecessor chain will wake it, and delivering
                        // *it* delivers us.
                        Some(partner) => Some(EventId::new(
                            peer.process,
                            EventIndex(partner.index().0 - 1),
                        )),
                        // Partner not seen yet: wake on its arrival.
                        None => Some(peer),
                    };
                };
                (peer, ready)
            }
        };
        (!ready).then_some(far)
    }

    fn park(&mut self, id: EventId, blocker: EventId) {
        let list = self.waiting.entry(blocker).or_default();
        if !list.contains(&id) {
            list.push(id);
        }
    }

    /// Deliver `ev` — and, for a sync, its still-pending partner right
    /// after it — waking waiters onto `work`. A foreign partner is delivered
    /// by its own shard, and one absent despite local ownership was already
    /// delivered cross-shard before its process migrated onto this shard.
    fn deliver<H: DeliveryHooks>(&mut self, ev: Event, work: &mut Vec<EventId>, hooks: &mut H) {
        let partner = match ev.kind {
            EventKind::Sync { peer } => self.pending.get(&peer).copied(),
            _ => None,
        };
        for ev in std::iter::once(ev).chain(partner) {
            self.pending.remove(&ev.id);
            self.delivered[ev.process().idx()] = ev.index().0;
            match ev.kind {
                EventKind::Send { to } if self.owned[to.idx()] => self.set_unreceived(ev.id, true),
                EventKind::Receive { from } => self.set_unreceived(from, false),
                _ => {}
            }
            self.delivered_total += 1;
            hooks.deliver(ev);
            if let Some(parked) = self.waiting.remove(&ev.id) {
                work.extend(parked);
            }
        }
    }

    fn is_unreceived(&self, send: EventId) -> bool {
        let i = send.index.0 as usize;
        self.unreceived[send.process.idx()]
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    fn set_unreceived(&mut self, send: EventId, on: bool) {
        let i = send.index.0 as usize;
        let bits = &mut self.unreceived[send.process.idx()];
        if on && bits.len() <= i / 64 {
            bits.resize(i / 64 + 1, 0);
        }
        if let Some(word) = bits.get_mut(i / 64) {
            *word = (*word & !(1 << (i % 64))) | (on as u64) << (i % 64);
        }
    }

    /// Release ownership of `p` for migration to another shard. Returns the
    /// delivered watermark and `p`'s still-pending events in index order.
    /// `handed_over` lists the delivered, unreceived sends whose clocks the
    /// caller moved to the exchange because their receiver is `p`; they and
    /// `p`'s own unreceived sends are no longer held here, so the new owner
    /// finds them on the exchange. Call
    /// [`reexamine_process`](Self::reexamine_process) afterwards (once the
    /// new owner can serve `p`'s edges) to re-evaluate local events that
    /// were parked under `p`'s events.
    pub fn release_process(&mut self, p: ProcessId, handed_over: &[EventId]) -> (u32, Vec<Event>) {
        assert!(self.owned[p.idx()], "releasing a process we do not own");
        self.owned[p.idx()] = false;
        self.unreceived[p.idx()] = Vec::new();
        for &send in handed_over {
            self.set_unreceived(send, false);
        }
        let mut evs: Vec<Event> = self
            .pending
            .values()
            .filter(|ev| ev.process() == p)
            .copied()
            .collect();
        for ev in &evs {
            self.pending.remove(&ev.id);
        }
        evs.sort_by_key(|ev| ev.index().0);
        (self.delivered[p.idx()], evs)
    }

    /// Adopt ownership of `p` at the given delivered watermark. The caller
    /// re-offers `p`'s pending events through [`offer_with`](Self::offer_with).
    pub fn adopt_process(&mut self, p: ProcessId, watermark: u32) {
        assert!(!self.owned[p.idx()], "adopting a process we already own");
        self.owned[p.idx()] = true;
        self.delivered[p.idx()] = watermark;
    }

    /// Re-evaluate every local event parked under an event of `p`, whose
    /// edges switched from local to cross-shard when `p` migrated away.
    pub fn reexamine_process<H: DeliveryHooks>(&mut self, p: ProcessId, hooks: &mut H) -> u64 {
        let mut keys: Vec<EventId> = self
            .waiting
            .keys()
            .filter(|id| id.process == p)
            .copied()
            .collect();
        keys.sort(); // HashMap order is not deterministic; schedules must be
        let mut work = Vec::new();
        for key in keys {
            if let Some(parked) = self.waiting.remove(&key) {
                work.extend(parked);
            }
        }
        self.cascade(work, hooks)
    }

    /// Diagnostic view of the buffer: owned processes, watermarks, pending
    /// ids, and the waiting map (blocker → parked ids).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let owned: Vec<u32> = (0..self.num_processes)
            .filter(|&p| self.owned[p as usize])
            .collect();
        let mut pending: Vec<EventId> = self.pending.keys().copied().collect();
        pending.sort();
        let mut waiting: Vec<(EventId, Vec<EventId>)> =
            self.waiting.iter().map(|(k, v)| (*k, v.clone())).collect();
        waiting.sort();
        format!(
            "owned={owned:?} watermarks={:?} pending={pending:?} waiting={waiting:?}",
            self.delivered
        )
    }

    /// Total events delivered so far.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Duplicate arrivals dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Events currently parked (observed, not yet deliverable).
    pub fn depth(&self) -> usize {
        self.pending.len()
    }

    /// High-water mark of [`depth`](Self::depth).
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::linearize::{is_valid_delivery_order, relinearize};
    use cts_model::{ProcessId, TraceBuilder};
    use cts_workloads::spmd::Stencil1D;
    use cts_workloads::Workload;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn offer_all(buf: &mut ReorderBuffer, events: &[Event]) -> Vec<Event> {
        let mut out = Vec::new();
        for &ev in events {
            out.extend(buf.offer(ev).unwrap());
        }
        out
    }

    #[test]
    fn in_order_stream_passes_through() {
        let t = Stencil1D { procs: 6, iters: 4 }.generate(3);
        let mut buf = ReorderBuffer::new(t.num_processes());
        let out = offer_all(&mut buf, t.events());
        assert_eq!(out.len(), t.num_events());
        assert!(is_valid_delivery_order(t.num_processes(), &out));
        assert_eq!(buf.depth(), 0);
        assert_eq!(buf.duplicates(), 0);
    }

    #[test]
    fn fully_reversed_stream_is_repaired() {
        let t = Stencil1D { procs: 5, iters: 3 }.generate(9);
        let mut reversed: Vec<Event> = t.events().to_vec();
        reversed.reverse();
        let mut buf = ReorderBuffer::new(t.num_processes());
        let out = offer_all(&mut buf, &reversed);
        assert_eq!(out.len(), t.num_events());
        assert!(is_valid_delivery_order(t.num_processes(), &out));
        assert_eq!(buf.depth(), 0);
        assert!(buf.peak_depth() > 1);
    }

    #[test]
    fn shuffled_interleavings_deliver_valid_orders() {
        let t = Stencil1D { procs: 8, iters: 5 }.generate(21);
        for seed in 0..20 {
            let shuffled = relinearize(&t, seed);
            let mut buf = ReorderBuffer::new(t.num_processes());
            let out = offer_all(&mut buf, shuffled.events());
            assert_eq!(out.len(), t.num_events(), "seed {seed}");
            assert!(
                is_valid_delivery_order(t.num_processes(), &out),
                "seed {seed}"
            );
            assert_eq!(buf.depth(), 0, "seed {seed}");
        }
    }

    #[test]
    fn duplicates_are_counted_and_dropped() {
        let t = Stencil1D { procs: 4, iters: 3 }.generate(5);
        let mut buf = ReorderBuffer::new(t.num_processes());
        let mut out = Vec::new();
        for &ev in t.events() {
            out.extend(buf.offer(ev).unwrap());
            // Re-offer every event immediately: a delivered duplicate.
            assert_eq!(buf.offer(ev).unwrap(), Vec::new());
        }
        assert_eq!(out.len(), t.num_events());
        assert_eq!(buf.duplicates() as usize, t.num_events());
        assert!(is_valid_delivery_order(t.num_processes(), &out));
    }

    #[test]
    fn pending_duplicate_is_dropped_too() {
        let mut b = TraceBuilder::new(2);
        let s = b.send(p(0), p(1)).unwrap();
        let r = b.receive(p(1), s).unwrap();
        let t = b.finish_complete("dup").unwrap();
        let recv = t.event(r);
        let mut buf = ReorderBuffer::new(2);
        // The receive arrives (twice) before its send: parked, deduped.
        assert_eq!(buf.offer(recv).unwrap(), Vec::new());
        assert_eq!(buf.offer(recv).unwrap(), Vec::new());
        assert_eq!(buf.duplicates(), 1);
        assert_eq!(buf.depth(), 1);
        let out = buf.offer(t.event(s.event())).unwrap();
        assert_eq!(out.len(), 2);
        assert!(is_valid_delivery_order(2, &out));
    }

    #[test]
    fn conflicting_duplicate_is_rejected() {
        let mut buf = ReorderBuffer::new(3);
        let id = EventId::new(p(0), EventIndex(2)); // parked: index 2 first
        let a = Event::new(id, EventKind::Internal);
        let b = Event::new(id, EventKind::Send { to: p(1) });
        assert_eq!(buf.offer(a).unwrap(), Vec::new());
        assert_eq!(buf.offer(b), Err(RejectReason::ConflictingDuplicate));
    }

    #[test]
    fn unknown_process_is_rejected() {
        let mut buf = ReorderBuffer::new(2);
        let ev = Event::new(EventId::new(p(7), EventIndex(1)), EventKind::Internal);
        assert_eq!(buf.offer(ev), Err(RejectReason::UnknownProcess));
    }

    #[test]
    fn dangling_edges_are_refused_not_parked() {
        let mut buf = ReorderBuffer::new(2);
        for i in 1..=1_000 {
            let from = EventId::new(p(7), EventIndex(i));
            let ev = Event::new(
                EventId::new(p(1), EventIndex(i)),
                EventKind::Receive { from },
            );
            assert_eq!(buf.offer(ev), Err(RejectReason::UnknownProcess));
        }
        let to = Event::new(
            EventId::new(p(0), EventIndex(1)),
            EventKind::Send { to: p(2) },
        );
        assert_eq!(buf.offer(to), Err(RejectReason::UnknownProcess));
        assert_eq!(buf.depth(), 0);
    }

    #[test]
    fn sync_halves_emerge_adjacent() {
        let mut b = TraceBuilder::new(3);
        b.internal(p(0)).unwrap();
        let (h0, h1) = b.sync(p(0), p(1)).unwrap();
        b.internal(p(1)).unwrap();
        let t = b.finish_complete("sync").unwrap();
        // Offer in the worst order: second halves first, preceded by nothing.
        let mut buf = ReorderBuffer::new(3);
        let mut arrivals: Vec<Event> = t.events().to_vec();
        arrivals.reverse();
        let out = offer_all(&mut buf, &arrivals);
        assert_eq!(out.len(), t.num_events());
        assert!(is_valid_delivery_order(3, &out));
        // The two sync halves are adjacent in the output.
        let i0 = out.iter().position(|e| e.id == h0).unwrap();
        let i1 = out.iter().position(|e| e.id == h1).unwrap();
        assert_eq!(i0.abs_diff(i1), 1);
    }
}
