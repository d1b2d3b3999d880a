//! The Fidge/Mattern vector timestamp, computed centrally (§2.2).
//!
//! In the monitoring-entity setting the timestamps are not carried on
//! messages; the entity computes them as events arrive in delivery order. The
//! stamp of an event is the element-wise maximum of its immediate
//! predecessors' stamps with the event's own component set to its sequence
//! number. (See DESIGN.md for why we follow the paper's Figure 2 rather than
//! its misprinted equations (1)–(2).)
//!
//! Two APIs are provided:
//!
//! - [`FmEngine`]: the *online* computation. It retains only what a future
//!   event can still need — the per-process frontier, stamps of in-flight
//!   sends, and half-completed synchronous pairs — so memory is O(N² +
//!   in-flight·N), not O(E·N).
//! - [`FmStore`]: stamps for *every* event of a trace, in one flat
//!   allocation. This is the "pre-computed and stored" baseline of §1.1 and
//!   the reference the cluster timestamps are validated against.

use crate::clock::VectorClock;
use cts_model::{Event, EventId, EventKind, ProcessId, Trace};
use std::collections::HashMap;

/// Online centralized Fidge/Mattern computation.
///
/// Feed events in a valid delivery order via [`accept`](Self::accept); each
/// call updates the event's process row of the frontier in place and lends
/// it out as the event's stamp.
///
/// `Clone` captures the full engine state, so a live consumer (the
/// `cts-daemon` snapshotter) can fork a frozen copy mid-stream.
#[derive(Clone)]
pub struct FmEngine {
    n: usize,
    /// Last stamp of each process (the frontier); zero clock before the
    /// process's first event.
    frontier: Vec<VectorClock>,
    /// Stamps of sends whose receive has not yet arrived.
    in_flight: HashMap<EventId, VectorClock>,
    /// Combined stamp computed at the first half of a sync pair, keyed by the
    /// *second* half's id.
    pending_sync: HashMap<EventId, VectorClock>,
    /// Events accepted per process, to detect sync first/second halves and to
    /// validate delivery order.
    seen: Vec<u32>,
}

impl FmEngine {
    /// New engine over `n` processes.
    pub fn new(n: u32) -> FmEngine {
        FmEngine {
            n: n as usize,
            frontier: (0..n).map(|_| VectorClock::zero(n as usize)).collect(),
            in_flight: HashMap::new(),
            pending_sync: HashMap::new(),
            seen: vec![0; n as usize],
        }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Stamps currently retained for in-flight messages (diagnostics).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Accept the next event in delivery order and return its stamp: the
    /// frontier row of its process, updated where it lies. Internal events
    /// and receives allocate nothing; a send keeps one copy in flight and a
    /// sync pair one combined clock.
    ///
    /// Panics if the event violates delivery order (wrong per-process
    /// sequence, receive before send); use [`cts_model::TraceBuilder`] to
    /// construct valid orders.
    pub fn accept(&mut self, ev: Event) -> &VectorClock {
        let p = ev.process();
        assert_eq!(
            ev.index().0,
            self.seen[p.idx()] + 1,
            "event {:?} out of per-process order",
            ev.id
        );
        self.seen[p.idx()] += 1;

        match ev.kind {
            EventKind::Internal => self.frontier[p.idx()].set(p, ev.index().0),
            EventKind::Send { .. } => {
                let row = &mut self.frontier[p.idx()];
                row.set(p, ev.index().0);
                self.in_flight.insert(ev.id, row.clone());
            }
            EventKind::Receive { from } => {
                let msg = self
                    .in_flight
                    .remove(&from)
                    .expect("receive before its send: invalid delivery order");
                let row = &mut self.frontier[p.idx()];
                row.set(p, ev.index().0);
                row.max_assign(&msg);
            }
            EventKind::Sync { peer } => {
                if let Some(combined) = self.pending_sync.remove(&ev.id) {
                    // Second half: the first half already computed the pair's
                    // shared stamp.
                    self.frontier[p.idx()] = combined;
                } else {
                    // First half: combine both processes' histories; the
                    // second half takes the same stamp.
                    let q = peer.process;
                    let (row, peer_row) = row_and_peer(&mut self.frontier, p, q);
                    row.set(p, ev.index().0);
                    row.max_assign(peer_row);
                    row.set(q, peer.index.0);
                    self.pending_sync.insert(peer, row.clone());
                }
            }
        }
        &self.frontier[p.idx()]
    }
}

/// Row `p` of a frontier to update, beside row `q` (`q ≠ p`) to read: the
/// two rows the first half of a sync pair combines in place.
pub fn row_and_peer(
    frontier: &mut [VectorClock],
    p: ProcessId,
    q: ProcessId,
) -> (&mut VectorClock, &VectorClock) {
    debug_assert_ne!(p, q, "a sync pair spans two processes");
    if p.idx() < q.idx() {
        let (lo, hi) = frontier.split_at_mut(q.idx());
        (&mut lo[p.idx()], &hi[0])
    } else {
        let (lo, hi) = frontier.split_at_mut(p.idx());
        (&mut hi[0], &lo[q.idx()])
    }
}

/// All Fidge/Mattern stamps of a trace, stored flat (one `u32` per process per
/// event — the §1.1 "pre-computed and stored" structure).
pub struct FmStore {
    n: usize,
    /// Row `delivery_pos` holds that event's stamp.
    data: Vec<u32>,
}

impl FmStore {
    /// Compute stamps for an entire trace.
    pub fn compute(trace: &Trace) -> FmStore {
        let n = trace.num_processes() as usize;
        let mut engine = FmEngine::new(trace.num_processes());
        let mut data = Vec::with_capacity(n * trace.num_events());
        for &ev in trace.events() {
            let stamp = engine.accept(ev);
            data.extend_from_slice(stamp.as_slice());
        }
        FmStore { n, data }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Stamp of the event at a delivery position.
    #[inline]
    pub fn stamp_at(&self, pos: usize) -> &[u32] {
        &self.data[pos * self.n..(pos + 1) * self.n]
    }

    /// Stamp of an event.
    #[inline]
    pub fn stamp(&self, trace: &Trace, id: EventId) -> &[u32] {
        self.stamp_at(trace.delivery_pos(id))
    }

    /// The Fidge/Mattern precedence test (constant time):
    /// `e → f ⇔ e ≠ f ∧ FM(f)[p_e] ≥ index(e)`.
    #[inline]
    pub fn precedes(&self, trace: &Trace, e: EventId, f: EventId) -> bool {
        if e == f {
            return false;
        }
        self.stamp(trace, f)[e.process.idx()] >= e.index.0
    }

    /// Are two events concurrent?
    pub fn concurrent(&self, trace: &Trace, e: EventId, f: EventId) -> bool {
        e != f && !self.precedes(trace, e, f) && !self.precedes(trace, f, e)
    }

    /// Bytes this store occupies (the §1.1 space argument), assuming 32-bit
    /// elements with no fixed-width padding.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::{EventIndex, Oracle, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn id(pr: u32, i: u32) -> EventId {
        EventId::new(p(pr), EventIndex(i))
    }

    /// The paper's Figure 2 computation, exactly (0-based process ids:
    /// paper P1→P0, P2→P1, P3→P2). Messages: A→D, B→G, E→C, H→F; I unary.
    fn figure2() -> Trace {
        let mut b = TraceBuilder::new(3);
        let a = b.send(p(0), p(1)).unwrap(); // A
        let bb = b.send(p(0), p(2)).unwrap(); // B
        b.receive(p(1), a).unwrap(); // D
        let e = b.send(p(1), p(0)).unwrap(); // E
        b.receive(p(0), e).unwrap(); // C
        b.receive(p(2), bb).unwrap(); // G
        let h = b.send(p(2), p(1)).unwrap(); // H
        b.receive(p(1), h).unwrap(); // F
        b.internal(p(2)).unwrap(); // I
        b.finish_complete("figure2").unwrap()
    }

    #[test]
    fn figure2_stamps_match_paper() {
        let t = figure2();
        let fm = FmStore::compute(&t);
        let expect = |e: EventId, v: &[u32]| {
            assert_eq!(fm.stamp(&t, e), v, "stamp of {e}");
        };
        expect(id(0, 1), &[1, 0, 0]); // A
        expect(id(0, 2), &[2, 0, 0]); // B
        expect(id(0, 3), &[3, 2, 0]); // C
        expect(id(1, 1), &[1, 1, 0]); // D
        expect(id(1, 2), &[1, 2, 0]); // E
        expect(id(1, 3), &[2, 3, 2]); // F
        expect(id(2, 1), &[2, 0, 1]); // G
        expect(id(2, 2), &[2, 0, 2]); // H
        expect(id(2, 3), &[2, 0, 3]); // I
    }

    #[test]
    fn engine_and_store_agree() {
        let t = figure2();
        let fm = FmStore::compute(&t);
        let mut eng = FmEngine::new(t.num_processes());
        for (pos, &ev) in t.events().iter().enumerate() {
            assert_eq!(eng.accept(ev).as_slice(), fm.stamp_at(pos));
        }
    }

    #[test]
    fn precedence_matches_oracle_on_figure2() {
        let t = figure2();
        let fm = FmStore::compute(&t);
        let o = Oracle::compute(&t);
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(
                    fm.precedes(&t, e, f),
                    o.happened_before(&t, e, f),
                    "{e} -> {f}"
                );
            }
        }
    }

    #[test]
    fn sync_halves_share_stamp_and_are_mutual() {
        let mut b = TraceBuilder::new(3);
        let s = b.send(p(0), p(1)).unwrap();
        b.receive(p(1), s).unwrap();
        let (x, y) = b.sync(p(1), p(2)).unwrap();
        b.internal(p(2)).unwrap();
        let t = b.finish_complete("sync").unwrap();
        let fm = FmStore::compute(&t);
        assert_eq!(fm.stamp(&t, x), fm.stamp(&t, y));
        assert_eq!(fm.stamp(&t, x), &[1, 2, 1]);
        assert!(fm.precedes(&t, x, y) && fm.precedes(&t, y, x));
        // P2's follow-up sees P0's send through the sync.
        assert!(fm.precedes(&t, id(0, 1), id(2, 2)));
        let o = Oracle::compute(&t);
        for e in t.all_event_ids() {
            for f in t.all_event_ids() {
                assert_eq!(fm.precedes(&t, e, f), o.happened_before(&t, e, f));
            }
        }
    }

    #[test]
    fn engine_releases_in_flight_stamps() {
        let mut b = TraceBuilder::new(2);
        let s1 = b.send(p(0), p(1)).unwrap();
        let s2 = b.send(p(0), p(1)).unwrap();
        b.receive(p(1), s1).unwrap();
        b.receive(p(1), s2).unwrap();
        let t = b.finish_complete("t").unwrap();
        let mut eng = FmEngine::new(2);
        eng.accept(t.at(0));
        eng.accept(t.at(1));
        assert_eq!(eng.in_flight_len(), 2);
        eng.accept(t.at(2));
        eng.accept(t.at(3));
        assert_eq!(eng.in_flight_len(), 0);
    }

    /// The Fidge/Mattern clock of every event (by delivery position) from
    /// the happened-before closure alone: row `q` of `e` is the number of
    /// events of `q` that are `e` or happen before it. Those events are a
    /// prefix of `q`'s line, so a binary search finds its length.
    fn oracle_clocks(t: &Trace) -> Vec<Vec<u32>> {
        let o = Oracle::compute(t);
        t.events()
            .iter()
            .map(|ev| {
                (0..t.num_processes())
                    .map(|q| {
                        let line: Vec<u32> = (1..=t.process_len(p(q)) as u32).collect();
                        line.partition_point(|&i| {
                            let f = id(q, i);
                            f == ev.id || o.happened_before(t, f, ev.id)
                        }) as u32
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_engine_matches_oracle(t: &Trace) {
        let want = oracle_clocks(t);
        let mut eng = FmEngine::new(t.num_processes());
        for (pos, &ev) in t.events().iter().enumerate() {
            assert_eq!(
                eng.accept(ev).as_slice(),
                &want[pos][..],
                "{}: stamp of {} ({:?})",
                t.name(),
                ev.id,
                ev.kind
            );
        }
        assert_eq!(eng.in_flight_len(), 0, "{}", t.name());
        assert!(eng.pending_sync.is_empty(), "{}", t.name());
    }

    #[test]
    fn every_stamp_matches_the_oracle_on_the_mini_suite() {
        let suite = cts_workloads::suite::mini_suite();
        assert!(suite.iter().any(|s| s.trace.num_sync_pairs() > 0));
        for s in &suite {
            assert_engine_matches_oracle(&s.trace);
        }
    }

    #[test]
    fn every_stamp_matches_the_oracle_on_synchronous_rpc() {
        use cts_workloads::dce::ThreeTier;
        use cts_workloads::Workload;
        let t = ThreeTier {
            clients: 6,
            servers: 3,
            databases: 2,
            transactions: 60,
        }
        .generate(7);
        assert!(t.num_sync_pairs() > 50);
        assert_engine_matches_oracle(&t);
    }

    #[test]
    fn every_stamp_matches_the_oracle_on_296_planted_processes() {
        use cts_workloads::synthetic::PlantedClusters;
        use cts_workloads::Workload;
        // `cts_bench::clustered_trace(296, 8)`, rebuilt here: planted
        // clusters as wide as the daemon benchmark's sharded computation.
        let t = PlantedClusters {
            procs: 296,
            groups: 29,
            messages: 296 * 8,
            p_intra: 0.9,
        }
        .generate(4242);
        assert_engine_matches_oracle(&t);
    }

    #[test]
    #[should_panic(expected = "out of per-process order")]
    fn engine_rejects_out_of_order() {
        let mut eng = FmEngine::new(2);
        eng.accept(Event::new(id(0, 2), EventKind::Internal));
    }

    #[test]
    fn store_bytes_accounting() {
        let t = figure2();
        let fm = FmStore::compute(&t);
        assert_eq!(fm.bytes(), 9 * 3 * 4);
    }
}
