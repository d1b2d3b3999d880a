//! Immutable, validated traces in delivery order, and the append-only log
//! a monitoring entity grows them from.

use crate::append::{AppendVec, Prefix};
use crate::event::{Event, EventId, EventIndex, EventKind, ProcessId};
use crate::linearize::DeliveryOrderCheck;

/// The event sequence handed to [`Trace::from_delivery_order`] violates the
/// delivery-order invariants (per-process order, sends before receives, sync
/// halves adjacent, process ids in range).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InvalidDeliveryOrder;

impl std::fmt::Display for InvalidDeliveryOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event sequence is not a valid delivery order")
    }
}

impl std::error::Error for InvalidDeliveryOrder {}

/// An immutable parallel-computation trace.
///
/// The global event sequence is a **delivery order**: a linearization of the
/// happened-before partial order in which
///
/// - events of one process appear in increasing [`EventIndex`] order,
/// - every receive appears after its matching send, and
/// - the two halves of a synchronous pair appear adjacently.
///
/// This is exactly the order in which a central monitoring entity can consume
/// events for *dynamic* (online) timestamping. Traces are produced by
/// [`crate::TraceBuilder`], which enforces these invariants, or grown one
/// event at a time in a [`TraceLog`].
///
/// The arrays are [`Prefix`] handles, so a trace cut from a [`TraceLog`]
/// shares its storage with the log and with every other trace cut from it,
/// and `Clone` is a handful of reference-count increments.
#[derive(Clone, Debug)]
pub struct Trace {
    name: String,
    num_processes: u32,
    /// All events in delivery order.
    events: Prefix<Event>,
    /// `delivery_pos[p][i]` = position in `events` of event `(p, i+1)`.
    delivery_pos: Vec<Prefix<u32>>,
}

impl Trace {
    /// Construct directly from parts. Intended for [`crate::TraceBuilder`] and
    /// deserialization; invariants are `debug_assert`ed, not revalidated.
    pub(crate) fn from_parts(name: String, num_processes: u32, events: Vec<Event>) -> Trace {
        let mut delivery_pos: Vec<Vec<u32>> = vec![Vec::new(); num_processes as usize];
        for (pos, ev) in events.iter().enumerate() {
            let per = &mut delivery_pos[ev.process().idx()];
            debug_assert_eq!(per.len(), ev.index().zero_based());
            per.push(pos as u32);
        }
        Trace {
            name,
            num_processes,
            events: Prefix::from(events),
            delivery_pos: delivery_pos.into_iter().map(Prefix::from).collect(),
        }
    }

    /// Construct a trace from an event sequence observed in delivery order —
    /// the entry point for consumers that *assemble* an order at run time (a
    /// monitoring daemon's causal-delivery pipeline, a deserializer) rather
    /// than building one with [`crate::TraceBuilder`].
    ///
    /// Validates the full delivery-order invariant set
    /// ([`crate::linearize::is_valid_delivery_order`]): per-process sequence
    /// order, receives after their sends, sync halves adjacent, process ids
    /// in range.
    pub fn from_delivery_order(
        name: impl Into<String>,
        num_processes: u32,
        events: Vec<Event>,
    ) -> Result<Trace, InvalidDeliveryOrder> {
        if !crate::linearize::is_valid_delivery_order(num_processes, &events) {
            return Err(InvalidDeliveryOrder);
        }
        Ok(Trace::from_parts(name.into(), num_processes, events))
    }

    /// Human-readable trace name (e.g. `"pvm/stencil2d-16x16"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processes `N` in the computation.
    pub fn num_processes(&self) -> u32 {
        self.num_processes
    }

    /// Total number of events across all processes.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of events in process `p`.
    pub fn process_len(&self, p: ProcessId) -> usize {
        self.delivery_pos[p.idx()].len()
    }

    /// All events in delivery order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The event at a delivery position.
    #[inline]
    pub fn at(&self, pos: usize) -> Event {
        self.events[pos]
    }

    /// Delivery position of an event.
    #[inline]
    pub fn delivery_pos(&self, id: EventId) -> usize {
        self.delivery_pos[id.process.idx()][id.index.zero_based()] as usize
    }

    /// Look up a full event by id.
    #[inline]
    pub fn event(&self, id: EventId) -> Event {
        self.events[self.delivery_pos(id)]
    }

    /// The kind of an event.
    #[inline]
    pub fn kind(&self, id: EventId) -> EventKind {
        self.event(id).kind
    }

    /// Does `id` denote an event present in this trace?
    pub fn contains(&self, id: EventId) -> bool {
        id.process.idx() < self.delivery_pos.len()
            && id.index.0 >= 1
            && id.index.zero_based() < self.delivery_pos[id.process.idx()].len()
    }

    /// The immediate predecessors of an event in the happened-before order:
    /// the previous event of the same process (if any) and, for receiving
    /// events, the remote source event.
    ///
    /// Returned as a fixed pair to keep the hot path allocation-free.
    #[inline]
    pub fn immediate_predecessors(&self, id: EventId) -> [Option<EventId>; 2] {
        let prev = id.prev_in_process();
        let src = self.kind(id).receive_source();
        [prev, src]
    }

    /// Number of point-to-point messages (matched send/receive pairs).
    pub fn num_messages(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Receive { .. }))
            .count()
    }

    /// Number of synchronous communications (pairs, not halves).
    pub fn num_sync_pairs(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Sync { .. }))
            .count()
            / 2
    }

    /// Number of unary (internal) events.
    pub fn num_internal(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Internal))
            .count()
    }

    /// Produce a trace identical to this one but with processes renumbered by
    /// `perm` (`new_id = perm[old_id]`). `perm` must be a permutation of
    /// `0..N`.
    ///
    /// Process numbering is semantically irrelevant to the partial order but
    /// matters a great deal to the *fixed contiguous clusters* baseline; this
    /// is used by the ablation experiments.
    pub fn relabel_processes(&self, perm: &[u32]) -> Trace {
        assert_eq!(perm.len(), self.num_processes as usize, "perm length");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                (p as usize) < perm.len() && !seen[p as usize],
                "perm must be a permutation"
            );
            seen[p as usize] = true;
        }
        let map = |p: ProcessId| ProcessId(perm[p.idx()]);
        let events = self
            .events
            .iter()
            .map(|e| {
                let id = EventId::new(map(e.id.process), e.id.index);
                let kind = match e.kind {
                    EventKind::Internal => EventKind::Internal,
                    EventKind::Send { to } => EventKind::Send { to: map(to) },
                    EventKind::Receive { from } => EventKind::Receive {
                        from: EventId::new(map(from.process), from.index),
                    },
                    EventKind::Sync { peer } => EventKind::Sync {
                        peer: EventId::new(map(peer.process), peer.index),
                    },
                };
                Event::new(id, kind)
            })
            .collect();
        Trace::from_parts(format!("{}+relabel", self.name), self.num_processes, events)
    }

    /// Iterate over the event ids of one process, in order.
    pub fn process_events(&self, p: ProcessId) -> impl Iterator<Item = EventId> + '_ {
        (1..=self.process_len(p) as u32).map(move |i| EventId::new(p, EventIndex(i)))
    }

    /// Iterate over all event ids, grouped by process.
    pub fn all_event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.num_processes).flat_map(move |p| self.process_events(ProcessId(p)))
    }
}

/// A delivery-order trace under construction: the append-only log a
/// monitoring entity delivers events into, validated as it grows.
///
/// Each [`push`](Self::push) checks the delivery-order invariants for the
/// one new event ([`DeliveryOrderCheck`]), and [`trace`](Self::trace) cuts
/// a [`Trace`] of everything pushed so far in O(`N`), sharing storage with
/// the log — so publishing an epoch costs neither a copy nor a
/// re-validation of history. Derefs to the events pushed so far, in
/// delivery order.
pub struct TraceLog {
    name: String,
    num_processes: u32,
    events: AppendVec<Event>,
    delivery_pos: Vec<AppendVec<u32>>,
    check: DeliveryOrderCheck,
}

impl TraceLog {
    /// An empty log for a computation of `num_processes` processes.
    pub fn new(name: impl Into<String>, num_processes: u32) -> TraceLog {
        TraceLog {
            name: name.into(),
            num_processes,
            events: AppendVec::new(),
            delivery_pos: (0..num_processes).map(|_| AppendVec::new()).collect(),
            check: DeliveryOrderCheck::new(num_processes),
        }
    }

    /// Make room for `events` more events, `per_process[p]` of them on
    /// process `p`, without reallocating.
    pub fn reserve(&mut self, events: usize, per_process: &[usize]) {
        self.events.reserve(events);
        for (pos, &more) in self.delivery_pos.iter_mut().zip(per_process) {
            pos.reserve(more);
        }
    }

    /// Append the next delivered event. An event that would break the
    /// delivery order is refused and leaves the log unchanged.
    pub fn push(&mut self, ev: Event) -> Result<(), InvalidDeliveryOrder> {
        if !self.check.push(&ev) {
            return Err(InvalidDeliveryOrder);
        }
        self.delivery_pos[ev.process().idx()].push(self.events.len() as u32);
        self.events.push(ev);
        Ok(())
    }

    /// The trace of everything pushed so far. Fails only while the last
    /// event pushed is the first half of a synchronous pair.
    pub fn trace(&self) -> Result<Trace, InvalidDeliveryOrder> {
        if !self.check.is_complete() {
            return Err(InvalidDeliveryOrder);
        }
        Ok(Trace {
            name: self.name.clone(),
            num_processes: self.num_processes,
            events: self.events.prefix(),
            delivery_pos: self.delivery_pos.iter().map(AppendVec::prefix).collect(),
        })
    }
}

impl std::ops::Deref for TraceLog {
    type Target = [Event];

    fn deref(&self) -> &[Event] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn small() -> Trace {
        // P0: send to P1, internal;  P1: receive, send to P0; P0: receive
        let mut b = TraceBuilder::new(2);
        let s = b.send(ProcessId(0), ProcessId(1)).unwrap();
        b.internal(ProcessId(0)).unwrap();
        b.receive(ProcessId(1), s).unwrap();
        let s2 = b.send(ProcessId(1), ProcessId(0)).unwrap();
        b.receive(ProcessId(0), s2).unwrap();
        b.finish("small")
    }

    #[test]
    fn counts() {
        let t = small();
        assert_eq!(t.num_processes(), 2);
        assert_eq!(t.num_events(), 5);
        assert_eq!(t.num_messages(), 2);
        assert_eq!(t.num_internal(), 1);
        assert_eq!(t.num_sync_pairs(), 0);
        assert_eq!(t.process_len(ProcessId(0)), 3);
        assert_eq!(t.process_len(ProcessId(1)), 2);
    }

    #[test]
    fn lookup_roundtrip() {
        let t = small();
        for ev in t.events() {
            assert_eq!(t.event(ev.id), *ev);
            assert_eq!(t.at(t.delivery_pos(ev.id)), *ev);
            assert!(t.contains(ev.id));
        }
        assert!(!t.contains(EventId::new(ProcessId(0), EventIndex(4))));
        assert!(!t.contains(EventId::new(ProcessId(2), EventIndex(1))));
    }

    #[test]
    fn immediate_predecessors_shape() {
        let t = small();
        let first = EventId::new(ProcessId(0), EventIndex(1));
        assert_eq!(t.immediate_predecessors(first), [None, None]);
        let recv = EventId::new(ProcessId(1), EventIndex(1));
        assert_eq!(
            t.immediate_predecessors(recv),
            [None, Some(EventId::new(ProcessId(0), EventIndex(1)))]
        );
        let last = EventId::new(ProcessId(0), EventIndex(3));
        assert_eq!(
            t.immediate_predecessors(last),
            [
                Some(EventId::new(ProcessId(0), EventIndex(2))),
                Some(EventId::new(ProcessId(1), EventIndex(2)))
            ]
        );
    }

    #[test]
    fn relabel_preserves_structure() {
        let t = small();
        let r = t.relabel_processes(&[1, 0]);
        assert_eq!(r.num_events(), t.num_events());
        assert_eq!(r.num_messages(), t.num_messages());
        assert_eq!(r.process_len(ProcessId(1)), t.process_len(ProcessId(0)));
        // The first event is now on P1 and still a send to P0.
        let ev = r.at(0);
        assert_eq!(ev.process(), ProcessId(1));
        assert_eq!(ev.kind, EventKind::Send { to: ProcessId(0) });
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_non_permutation() {
        small().relabel_processes(&[0, 0]);
    }

    #[test]
    fn from_delivery_order_validates() {
        let t = small();
        let ok = Trace::from_delivery_order("re", t.num_processes(), t.events().to_vec()).unwrap();
        assert_eq!(ok.num_events(), t.num_events());
        assert_eq!(ok.name(), "re");
        // A receive ahead of its send is rejected.
        let mut bad = t.events().to_vec();
        bad.swap(0, 2);
        assert!(matches!(
            Trace::from_delivery_order("bad", t.num_processes(), bad),
            Err(InvalidDeliveryOrder)
        ));
    }

    #[test]
    fn trace_log_cuts_shared_prefix_traces() {
        let t = small();
        let mut log = TraceLog::new("live", t.num_processes());
        let mut cuts = vec![log.trace().unwrap()];
        for &ev in t.events() {
            log.push(ev).unwrap();
            cuts.push(log.trace().unwrap());
        }
        assert_eq!(&log[..], t.events());
        for (k, cut) in cuts.iter().enumerate() {
            assert_eq!(cut.name(), "live");
            assert_eq!(cut.events(), &t.events()[..k]);
            for ev in cut.events() {
                assert_eq!(cut.delivery_pos(ev.id), t.delivery_pos(ev.id));
                assert!(cut.contains(ev.id));
            }
            assert_eq!(
                (0..2).map(|p| cut.process_len(ProcessId(p))).sum::<usize>(),
                k
            );
        }
        // A refused event changes nothing.
        let before = log.len();
        assert_eq!(log.push(t.events()[0]), Err(InvalidDeliveryOrder));
        assert_eq!(log.len(), before);

        // A half-delivered sync pair cannot be cut.
        let mut b = TraceBuilder::new(2);
        b.sync(ProcessId(0), ProcessId(1)).unwrap();
        let s = b.finish("sync");
        let mut log = TraceLog::new("sync", 2);
        log.push(s.at(0)).unwrap();
        assert!(log.trace().is_err());
        log.push(s.at(1)).unwrap();
        assert_eq!(log.trace().unwrap().num_events(), 2);
    }

    #[test]
    fn event_id_iteration_covers_everything() {
        let t = small();
        let ids: Vec<_> = t.all_event_ids().collect();
        assert_eq!(ids.len(), t.num_events());
        for id in ids {
            assert!(t.contains(id));
        }
    }
}
