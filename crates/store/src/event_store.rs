//! The monitoring entity's event store: records of the transitive reduction
//! of the partial order, indexed by a B+-tree over `(process, event number)`.
//!
//! "The information collected will include the event's process identifier,
//! number, and type, as well as partner-event identification, if any. This
//! event data is forwarded from each process to a central monitoring entity
//! which … incrementally builds and maintains a data structure of the partial
//! order of events" (§1).

use crate::btree::{key_of, BPlusTree};
use crate::sync::RwLock;
use cts_model::{Event, EventId, EventKind, ProcessId, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One stored event: the event itself, its transitive-reduction in-edges
/// (immediate predecessors) and out-edges (immediate successors).
#[derive(Clone, Debug)]
pub struct EventRecord {
    pub event: Event,
    /// Immediate predecessors: same-process predecessor and (for receiving
    /// events) the remote source.
    pub preds: [Option<EventId>; 2],
    /// Immediate successors, filled in as later events arrive.
    pub succs: Vec<EventId>,
}

/// Errors from out-of-order or inconsistent insertion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// Event index is not the next for its process.
    OutOfOrder(EventId),
    /// A receive arrived before its send (invalid delivery order).
    MissingPartner(EventId),
    /// Process id out of range.
    UnknownProcess(ProcessId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfOrder(e) => write!(f, "event {e} arrived out of order"),
            StoreError::MissingPartner(e) => write!(f, "partner of {e} not yet stored"),
            StoreError::UnknownProcess(p) => write!(f, "unknown process {p}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The incrementally built partial-order store.
pub struct EventStore {
    num_processes: u32,
    records: Vec<EventRecord>,
    /// `(process, index)` → position in `records`.
    index: BPlusTree<u32>,
    /// Events accepted per process.
    counts: Vec<u32>,
}

impl EventStore {
    /// Empty store over `n` processes.
    pub fn new(num_processes: u32) -> EventStore {
        EventStore {
            num_processes,
            records: Vec::new(),
            index: BPlusTree::new(),
            counts: vec![0; num_processes as usize],
        }
    }

    /// Build a store from a complete trace.
    pub fn from_trace(trace: &Trace) -> EventStore {
        let mut s = EventStore::new(trace.num_processes());
        for &ev in trace.events() {
            s.insert(ev).expect("trace delivery order is valid");
        }
        s
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of processes.
    pub fn num_processes(&self) -> u32 {
        self.num_processes
    }

    /// Insert the next event (delivery order). Maintains transitive-reduction
    /// edges in both directions.
    pub fn insert(&mut self, event: Event) -> Result<(), StoreError> {
        let p = event.process();
        if p.idx() >= self.num_processes as usize {
            return Err(StoreError::UnknownProcess(p));
        }
        if event.index().0 != self.counts[p.idx()] + 1 {
            return Err(StoreError::OutOfOrder(event.id));
        }
        // Partner must exist already — except a sync's *second* half, whose
        // first half references forward; accept sync partners lazily.
        let src = event.kind.receive_source();
        if let Some(src_id) = src {
            let present = self.index.get(key_of(src_id)).is_some();
            let is_sync = matches!(event.kind, EventKind::Sync { .. });
            if !present && !is_sync {
                return Err(StoreError::MissingPartner(event.id));
            }
        }
        let pos = self.records.len() as u32;
        let preds = [event.id.prev_in_process(), src];
        self.records.push(EventRecord {
            event,
            preds,
            succs: Vec::new(),
        });
        self.index.insert(key_of(event.id), pos);
        self.counts[p.idx()] += 1;
        // Back-fill successor links.
        for pred in preds.into_iter().flatten() {
            if let Some(ppos) = self.index.get(key_of(pred)) {
                self.records[ppos as usize].succs.push(event.id);
            }
        }
        Ok(())
    }

    /// Look up an event record.
    pub fn get(&self, id: EventId) -> Option<&EventRecord> {
        self.index
            .get(key_of(id))
            .map(|pos| &self.records[pos as usize])
    }

    /// The events of process `p` with indices in `[from, to)` — the lookup a
    /// visualization performs when scrolling a process timeline.
    pub fn process_window(&self, p: ProcessId, from: u32, to: u32) -> Vec<&EventRecord> {
        let lo = key_of(EventId::new(p, cts_model::EventIndex(from.max(1))));
        let hi = key_of(EventId::new(p, cts_model::EventIndex(to.max(1))));
        self.index
            .range(lo, hi)
            .into_iter()
            .map(|(_, pos)| &self.records[pos as usize])
            .collect()
    }

    /// All records in delivery order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }
}

/// The second [`SharedStore::ingest_handle`] claim while a handle is alive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WriterAlreadyClaimed;

impl std::fmt::Display for WriterAlreadyClaimed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the store's single ingest handle is already claimed")
    }
}

impl std::error::Error for WriterAlreadyClaimed {}

struct StoreShared {
    lock: RwLock<EventStore>,
    writer_claimed: AtomicBool,
}

/// A thread-shareable store: many query threads, one ingest thread — the
/// deployment shape of a live monitoring entity.
///
/// The shape is *enforced*, not just documented: all mutation goes through an
/// [`IngestHandle`], and [`ingest_handle`](SharedStore::ingest_handle) hands
/// out at most one live handle at a time. Query threads clone the
/// `SharedStore` freely and take read guards.
#[derive(Clone)]
pub struct SharedStore {
    inner: Arc<StoreShared>,
}

impl SharedStore {
    /// Wrap a store for sharing.
    pub fn new(store: EventStore) -> SharedStore {
        SharedStore {
            inner: Arc::new(StoreShared {
                lock: RwLock::new(store),
                writer_claimed: AtomicBool::new(false),
            }),
        }
    }

    /// Shared read access (any number of concurrent readers).
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, EventStore> {
        self.inner.lock.read()
    }

    /// Claim the single ingest handle. Fails while another handle is alive;
    /// dropping the handle releases the claim.
    pub fn ingest_handle(&self) -> Result<IngestHandle, WriterAlreadyClaimed> {
        if self.inner.writer_claimed.swap(true, Ordering::AcqRel) {
            return Err(WriterAlreadyClaimed);
        }
        Ok(IngestHandle {
            shared: Arc::clone(&self.inner),
        })
    }
}

/// The exclusive write capability of a [`SharedStore`]: at most one exists
/// per store at any time, making "many query threads, one ingest thread" a
/// compile-and-run-time property rather than a comment.
pub struct IngestHandle {
    shared: Arc<StoreShared>,
}

impl IngestHandle {
    /// Insert the next event in delivery order (see [`EventStore::insert`]).
    /// Takes the write lock only for the duration of the insert.
    pub fn insert(&mut self, event: Event) -> Result<(), StoreError> {
        self.shared.lock.write().insert(event)
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.shared.lock.read().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        self.shared.writer_claimed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cts_model::{EventIndex, TraceBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn id(pr: u32, i: u32) -> EventId {
        EventId::new(p(pr), EventIndex(i))
    }

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new(3);
        let s = b.send(p(0), p(1)).unwrap();
        b.receive(p(1), s).unwrap();
        b.sync(p(1), p(2)).unwrap();
        b.internal(p(0)).unwrap();
        let s2 = b.send(p(2), p(0)).unwrap();
        b.receive(p(0), s2).unwrap();
        b.finish_complete("sample").unwrap()
    }

    #[test]
    fn from_trace_builds_reduction_edges() {
        let t = sample_trace();
        let s = EventStore::from_trace(&t);
        assert_eq!(s.len(), t.num_events());
        // The receive on P1 has both a process predecessor (none — it's
        // first) and the remote send.
        let r = s.get(id(1, 1)).unwrap();
        assert_eq!(r.preds, [None, Some(id(0, 1))]);
        // The send on P0 lists the receive as successor.
        let send = s.get(id(0, 1)).unwrap();
        assert!(send.succs.contains(&id(1, 1)));
    }

    #[test]
    fn rejects_out_of_order_and_missing_partner() {
        let mut s = EventStore::new(2);
        assert_eq!(
            s.insert(Event::new(id(0, 2), EventKind::Internal)),
            Err(StoreError::OutOfOrder(id(0, 2)))
        );
        assert_eq!(
            s.insert(Event::new(id(1, 1), EventKind::Receive { from: id(0, 1) })),
            Err(StoreError::MissingPartner(id(1, 1)))
        );
        assert_eq!(
            s.insert(Event::new(id(5, 1), EventKind::Internal)),
            Err(StoreError::UnknownProcess(p(5)))
        );
    }

    #[test]
    fn sync_forward_reference_is_accepted_and_backfilled() {
        let t = sample_trace();
        let s = EventStore::from_trace(&t);
        // First sync half references the second; both link as successors of
        // each other's process predecessors.
        let h1 = s.get(id(1, 2)).unwrap();
        assert_eq!(h1.preds[1], Some(id(2, 1)));
        let h2 = s.get(id(2, 1)).unwrap();
        // The second half lists the first as successor (back-filled).
        assert!(h2.succs.contains(&id(1, 2)) || h1.succs.contains(&id(2, 1)));
    }

    #[test]
    fn process_window_scrolls() {
        let t = sample_trace();
        let s = EventStore::from_trace(&t);
        let w = s.process_window(p(0), 1, 4);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|r| r.event.process() == p(0)));
        let w2 = s.process_window(p(0), 2, 3);
        assert_eq!(w2.len(), 1);
        assert_eq!(w2[0].event.id, id(0, 2));
    }

    #[test]
    fn shared_store_concurrent_readers() {
        let t = sample_trace();
        let shared = SharedStore::new(EventStore::from_trace(&t));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                let g = s.read();
                assert!(g.get(id(0, 1)).is_some());
                g.len()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), t.num_events());
        }
    }

    #[test]
    fn second_ingest_handle_is_refused_until_first_drops() {
        let t = sample_trace();
        let shared = SharedStore::new(EventStore::new(t.num_processes()));
        let mut w = shared.ingest_handle().unwrap();
        // The two-writer misuse: a second claimant — even via a clone of the
        // shared store, even from another thread — is turned away.
        assert_eq!(shared.ingest_handle().err(), Some(WriterAlreadyClaimed));
        let clone = shared.clone();
        let from_thread = std::thread::spawn(move || clone.ingest_handle().err())
            .join()
            .unwrap();
        assert_eq!(from_thread, Some(WriterAlreadyClaimed));
        // The sole writer works; readers are unrestricted alongside it.
        for &ev in t.events() {
            w.insert(ev).unwrap();
        }
        assert_eq!(w.len(), t.num_events());
        assert_eq!(shared.read().len(), t.num_events());
        // Dropping the handle releases the claim.
        drop(w);
        assert!(shared.ingest_handle().is_ok());
    }
}
