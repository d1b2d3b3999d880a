//! A capacity/byte-bounded ring of retained epoch snapshots.
//!
//! PR 2's pipeline publishes immutable, prefix-monotone snapshots and PR 5's
//! query path answers against the *newest* one. Time-travel queries (RepCl-style
//! replay, as-of precedence) need older epochs to stay reachable for a while.
//! The retainer keeps published snapshot handles in a ring bounded by an epoch
//! count and an optional byte budget; GC retires the oldest entries first and
//! never evicts the newest epoch, so the head of history is always
//! answerable. A reader (an as-of query, an interval replay) holds the `Arc`
//! that [`EpochRetainer::get`] returns for as long as it reads, so GC can
//! drop an epoch from the ring mid-answer without freeing the snapshot under
//! that reader; the next `get` of it reports it retired.
//!
//! The retainer is generic over the snapshot type so the store layer does not
//! depend on the daemon's `Snapshot` struct.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::RwLock;

/// Metadata describing one retained epoch, as reported by [`EpochRetainer::list`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochInfo {
    pub epoch: u64,
    /// Number of delivered events covered by this epoch's snapshot.
    pub delivered: u64,
    /// Estimated resident bytes attributed to this entry.
    pub bytes: u64,
}

struct Entry<T> {
    epoch: u64,
    delivered: u64,
    bytes: u64,
    value: Arc<T>,
}

struct Ring<T> {
    entries: VecDeque<Entry<T>>,
    total_bytes: u64,
}

/// Bounded ring of published epochs with GC.
pub struct EpochRetainer<T> {
    ring: RwLock<Ring<T>>,
    retain_epochs: usize,
    retain_bytes: u64,
    retired: AtomicU64,
}

impl<T> EpochRetainer<T> {
    /// `retain_epochs` bounds how many epochs stay resident (minimum 1: the
    /// newest epoch is never evicted). `retain_bytes == 0` means no byte cap.
    pub fn new(retain_epochs: usize, retain_bytes: u64) -> EpochRetainer<T> {
        EpochRetainer {
            ring: RwLock::new(Ring {
                entries: VecDeque::new(),
                total_bytes: 0,
            }),
            retain_epochs: retain_epochs.max(1),
            retain_bytes,
            retired: AtomicU64::new(0),
        }
    }

    /// Record a newly published epoch, then GC anything the caps push out.
    /// Epochs must be inserted in increasing order (publishes are serialized
    /// by the worker loop); a stale or duplicate epoch is ignored.
    pub fn insert(&self, epoch: u64, delivered: u64, bytes: u64, value: Arc<T>) {
        let mut ring = self.ring.write();
        if let Some(back) = ring.entries.back() {
            if back.epoch >= epoch {
                return;
            }
        }
        ring.total_bytes += bytes;
        ring.entries.push_back(Entry {
            epoch,
            delivered,
            bytes,
            value,
        });
        self.gc_locked(&mut ring);
    }

    /// Evict oldest-first while over either cap, never evicting the newest
    /// epoch.
    fn gc_locked(&self, ring: &mut Ring<T>) {
        while ring.entries.len() > 1 && self.over_caps(ring) {
            let gone = ring.entries.pop_front().expect("length checked");
            ring.total_bytes -= gone.bytes;
            self.retired.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn over_caps(&self, ring: &Ring<T>) -> bool {
        ring.entries.len() > self.retain_epochs
            || (self.retain_bytes > 0 && ring.total_bytes > self.retain_bytes)
    }

    /// Snapshot handle for `epoch`, if still retained. The caller holds the
    /// `Arc` for the duration of a single answer.
    pub fn get(&self, epoch: u64) -> Option<Arc<T>> {
        let ring = self.ring.read();
        ring.entries
            .iter()
            .find(|e| e.epoch == epoch)
            .map(|e| Arc::clone(&e.value))
    }

    /// All retained epochs, oldest first.
    pub fn list(&self) -> Vec<EpochInfo> {
        let ring = self.ring.read();
        ring.entries
            .iter()
            .map(|e| EpochInfo {
                epoch: e.epoch,
                delivered: e.delivered,
                bytes: e.bytes,
            })
            .collect()
    }

    /// Delivered offset of the oldest retained epoch — the WAL retirement
    /// floor: segments at or beyond this offset are still covered by a
    /// retained epoch and must not be reclaimed.
    pub fn oldest_delivered(&self) -> Option<u64> {
        let ring = self.ring.read();
        ring.entries.front().map(|e| e.delivered)
    }

    /// Number of epochs currently resident (gauge).
    pub fn retained(&self) -> u64 {
        self.ring.read().entries.len() as u64
    }

    /// Cumulative count of epochs GC has retired (counter).
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }

    /// Estimated resident bytes across all retained entries.
    pub fn resident_bytes(&self) -> u64 {
        self.ring.read().total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retainer(cap: usize, bytes: u64) -> Arc<EpochRetainer<u64>> {
        Arc::new(EpochRetainer::new(cap, bytes))
    }

    fn fill(r: &EpochRetainer<u64>, epochs: std::ops::RangeInclusive<u64>) {
        for e in epochs {
            r.insert(e, e * 10, 100, Arc::new(e));
        }
    }

    #[test]
    fn capacity_cap_evicts_oldest_first() {
        let r = retainer(3, 0);
        fill(&r, 1..=5);
        assert_eq!(r.retained(), 3);
        assert_eq!(r.retired(), 2);
        assert!(r.get(1).is_none());
        assert!(r.get(2).is_none());
        for e in 3..=5 {
            assert_eq!(*r.get(e).expect("retained"), e);
        }
        assert_eq!(r.oldest_delivered(), Some(30));
    }

    #[test]
    fn byte_cap_evicts_independently_of_count() {
        let r = retainer(100, 250);
        fill(&r, 1..=4); // 400 bytes > 250 cap
        assert_eq!(r.retained(), 2);
        assert_eq!(r.resident_bytes(), 200);
        assert_eq!(r.retired(), 2);
    }

    #[test]
    fn newest_epoch_never_evicted() {
        let r = retainer(1, 50);
        r.insert(1, 10, 1_000_000, Arc::new(1));
        // Over both caps, but it's the only (and newest) entry.
        assert_eq!(r.retained(), 1);
        r.insert(2, 20, 1_000_000, Arc::new(2));
        assert_eq!(r.retained(), 1);
        assert_eq!(*r.get(2).expect("newest retained"), 2);
    }

    #[test]
    fn stale_insert_ignored() {
        let r = retainer(4, 0);
        fill(&r, 1..=3);
        r.insert(2, 999, 1, Arc::new(0));
        assert_eq!(*r.get(2).expect("original entry"), 2);
        assert_eq!(r.retained(), 3);
    }

    #[test]
    fn list_reports_oldest_first() {
        let r = retainer(4, 0);
        fill(&r, 5..=7);
        let infos = r.list();
        assert_eq!(
            infos.iter().map(|i| i.epoch).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(infos[0].delivered, 50);
    }
}
