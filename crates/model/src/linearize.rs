//! Alternative delivery orders.
//!
//! A central monitoring entity may receive the same computation's events in
//! many different valid orders. [`relinearize`] produces such an order (any
//! linear extension of the happened-before relation that keeps sync halves
//! adjacent), and [`is_valid_delivery_order`] checks the invariants. The
//! timestamp engines must produce the *same stamps per event* under every
//! valid order — a strong invariance property the integration tests exploit.

use crate::event::{Event, EventId, EventKind, ProcessId};
use crate::trace::Trace;

/// Is this event sequence a valid delivery order (per-process order, sends
/// before receives, sync halves adjacent, process ids in range)?
pub fn is_valid_delivery_order(num_processes: u32, events: &[Event]) -> bool {
    let mut check = DeliveryOrderCheck::new(num_processes);
    events.iter().all(|ev| check.push(ev)) && check.is_complete()
}

/// The delivery-order invariants checked one event at a time, so a log that
/// only grows can be validated as it is appended instead of re-validated
/// whole.
///
/// Per-process order makes "already delivered" a matter of counts: event
/// `(p, i)` has been delivered exactly when `1 <= i <= seen[p]`. The only
/// other state is the half of a synchronous pair whose peer must come next.
#[derive(Debug)]
pub struct DeliveryOrderCheck {
    /// Events delivered so far, per process.
    seen: Vec<u32>,
    /// The second half of a synchronous pair whose first half was the last
    /// event pushed.
    pending_sync: Option<EventId>,
}

impl DeliveryOrderCheck {
    /// A check over `num_processes` processes with nothing delivered yet.
    pub fn new(num_processes: u32) -> DeliveryOrderCheck {
        DeliveryOrderCheck {
            seen: vec![0; num_processes as usize],
            pending_sync: None,
        }
    }

    fn delivered(&self, id: EventId) -> bool {
        self.seen
            .get(id.process.idx())
            .is_some_and(|&seen| (1..=seen).contains(&id.index.0))
    }

    /// Does the sequence pushed so far stay a valid delivery-order prefix
    /// with `ev` appended? On `true` the event is taken; on `false` the
    /// check is left exactly as it was.
    pub fn push(&mut self, ev: &Event) -> bool {
        let p = ev.process().idx();
        if self
            .seen
            .get(p)
            .is_none_or(|&seen| ev.index().0 != seen + 1)
        {
            return false;
        }
        let pending = match (self.pending_sync, ev.kind) {
            (Some(expected), _) if ev.id != expected => return false,
            (Some(_), _) => None,
            (None, EventKind::Sync { peer }) if !self.delivered(peer) => Some(peer),
            (None, _) => None,
        };
        if let EventKind::Receive { from } = ev.kind {
            if !self.delivered(from) {
                return false;
            }
        }
        self.seen[p] += 1;
        self.pending_sync = pending;
        true
    }

    /// Is the sequence pushed so far a complete delivery order, with no
    /// synchronous pair waiting for its second half?
    pub fn is_complete(&self) -> bool {
        self.pending_sync.is_none()
    }
}

/// Produce a different valid delivery order of the same computation, chosen
/// by a deterministic pseudo-random tie-break from `seed`.
///
/// The schedule repeatedly picks one of the currently *enabled* events (next
/// in its process, with its send already delivered); picking the first half
/// of a sync pair requires the peer to be enabled too, and delivers both
/// halves back to back.
pub fn relinearize(trace: &Trace, seed: u64) -> Trace {
    let n = trace.num_processes();
    let mut next: Vec<u32> = vec![1; n as usize];
    let mut delivered = std::collections::HashSet::new();
    let mut out: Vec<Event> = Vec::with_capacity(trace.num_events());
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut rng = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.max(1);
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };

    let enabled =
        |next: &[u32], delivered: &std::collections::HashSet<EventId>, p: u32| -> Option<Event> {
            let idx = next[p as usize];
            if idx as usize > trace.process_len(ProcessId(p)) {
                return None;
            }
            let id = EventId::new(ProcessId(p), crate::event::EventIndex(idx));
            let ev = trace.event(id);
            match ev.kind {
                EventKind::Receive { from } if !delivered.contains(&from) => None,
                EventKind::Sync { peer } => {
                    // Both halves must be next-in-line simultaneously.
                    if delivered.contains(&peer) || next[peer.process.idx()] == peer.index.0 {
                        Some(ev)
                    } else {
                        None
                    }
                }
                _ => Some(ev),
            }
        };

    while out.len() < trace.num_events() {
        let candidates: Vec<Event> = (0..n)
            .filter_map(|p| enabled(&next, &delivered, p))
            .collect();
        assert!(
            !candidates.is_empty(),
            "valid traces always have an enabled event"
        );
        let pick = candidates[(rng() as usize) % candidates.len()];
        // Deliver the pick (and its sync peer immediately after, if pending).
        out.push(pick);
        delivered.insert(pick.id);
        next[pick.process().idx()] += 1;
        if let EventKind::Sync { peer } = pick.kind {
            if !delivered.contains(&peer) {
                let peer_ev = trace.event(peer);
                out.push(peer_ev);
                delivered.insert(peer);
                next[peer.process.idx()] += 1;
            }
        }
    }
    debug_assert!(is_valid_delivery_order(n, &out));
    Trace::from_parts(format!("{}+relin", trace.name()), n, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::oracle::Oracle;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let s = b.send(p(0), p(1)).unwrap();
        b.internal(p(2)).unwrap();
        b.receive(p(1), s).unwrap();
        b.sync(p(1), p(2)).unwrap();
        let s2 = b.send(p(2), p(0)).unwrap();
        b.receive(p(0), s2).unwrap();
        b.internal(p(0)).unwrap();
        b.finish_complete("lin").unwrap()
    }

    #[test]
    fn original_order_is_valid() {
        let t = sample();
        assert!(is_valid_delivery_order(t.num_processes(), t.events()));
    }

    #[test]
    fn relinearized_orders_are_valid_and_complete() {
        let t = sample();
        for seed in 0..20 {
            let r = relinearize(&t, seed);
            assert!(is_valid_delivery_order(r.num_processes(), r.events()));
            assert_eq!(r.num_events(), t.num_events());
            // Same event set.
            let mut a: Vec<EventId> = t.events().iter().map(|e| e.id).collect();
            let mut b: Vec<EventId> = r.events().iter().map(|e| e.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn relinearization_changes_order_sometimes() {
        let t = sample();
        let changed = (0..20).any(|seed| relinearize(&t, seed).events() != t.events());
        assert!(
            changed,
            "20 reshuffles should produce at least one new order"
        );
    }

    #[test]
    fn happened_before_is_order_independent() {
        let t = sample();
        let o1 = Oracle::compute(&t);
        for seed in 0..5 {
            let r = relinearize(&t, seed);
            let o2 = Oracle::compute(&r);
            for e in t.all_event_ids() {
                for f in t.all_event_ids() {
                    assert_eq!(
                        o1.happened_before(&t, e, f),
                        o2.happened_before(&r, e, f),
                        "seed {seed}: {e} -> {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn refused_event_leaves_the_check_resumable() {
        let t = sample();
        let events = t.events();
        let mut check = DeliveryOrderCheck::new(t.num_processes());
        for (i, ev) in events.iter().enumerate() {
            // Offer the process's following event first: it skips an
            // index, so it is refused, and must change nothing.
            if let Some(ahead) = events.get(i + 1) {
                if ahead.process() == ev.process() {
                    assert!(!check.push(ahead));
                }
            }
            assert!(check.push(ev), "event {i} refused after a refusal");
            let sync_open = matches!(ev.kind, EventKind::Sync { peer }
                if events.get(i + 1).is_some_and(|e| e.id == peer));
            assert_eq!(check.is_complete(), !sync_open);
        }
        assert!(check.is_complete());
    }

    #[test]
    fn validity_checker_rejects_bad_orders() {
        let t = sample();
        let mut events: Vec<Event> = t.events().to_vec();
        events.swap(0, 2); // receive before its send / out of process order
        assert!(!is_valid_delivery_order(t.num_processes(), &events));
        // Splitting a sync pair is invalid.
        let mut ev2: Vec<Event> = t.events().to_vec();
        let sync_pos = ev2
            .iter()
            .position(|e| matches!(e.kind, EventKind::Sync { .. }))
            .unwrap();
        let moved = ev2.remove(sync_pos + 1);
        ev2.push(moved);
        assert!(!is_valid_delivery_order(t.num_processes(), &ev2));
    }
}
