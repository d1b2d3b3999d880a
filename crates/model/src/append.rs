//! An append-only buffer whose prefixes can be shared without copying.
//!
//! A monitoring entity's state is a function of an append-only stream: the
//! delivered events, their delivery positions and their stamps only ever
//! grow at the end. An epoch published at `k` events is therefore a
//! *prefix* of every later epoch, and needs no copy of its own.
//! [`AppendVec`] is the one writer of such a stream; [`Prefix`] is a cheap,
//! `Clone`, thread-shareable handle on its first `len` elements, taken at
//! any moment with [`AppendVec::prefix`]. Both deref to `&[T]`, so readers
//! index one contiguous slice exactly as they would a `Vec`.
//!
//! ## How sharing works
//!
//! The elements live in a reference-counted buffer of fixed capacity. The
//! writer appends past every reader's length into slots no reader can see,
//! so appending never disturbs a live prefix. When the buffer is full the
//! writer copies its elements into one of twice the capacity; the old
//! buffer stays alive, unchanged, for as long as some prefix still refers
//! to it. Appends therefore cost amortised O(1), a prefix costs one
//! reference-count increment, and a set of prefixes held at once shares at
//! most one copy of history per buffer generation. A writer that must never
//! copy (a stamp arena chunk) is created at its final capacity with
//! [`AppendVec::with_capacity`] and never filled past it.
//!
//! ## Why elements are `Copy`
//!
//! A move to a bigger buffer copies the elements bitwise, whether or not a
//! prefix still holds the old buffer, and a buffer frees its allocation
//! without dropping anything. Both are only right for `Copy` elements, and
//! they are the point: an element that owned heap memory would be
//! deep-cloned at every move made under a live prefix, and the originals
//! would stay resident beside the clones for as long as the prefix lives,
//! so a history of such elements would cost up to two copies. Structures
//! that need variable-length payloads keep them in an arena of words and
//! store `Copy` records that locate them.
//!
//! Cloning a writer forks it copy-on-write: the clone shares the elements
//! so far and moves to a buffer of its own on its first push, so a
//! structure that is mostly read after cloning (a snapshot of an engine's
//! cluster versions) costs O(1) to copy.
//!
//! All `unsafe` code of the workspace's shared-history structures lives in
//! this module; nothing outside it can reach the raw buffer.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::Arc;

/// A heap allocation of `cap` slots of `Copy` values. Dropping it frees the
/// allocation; the values need no drop.
struct Buffer<T: Copy> {
    ptr: NonNull<T>,
    cap: usize,
}

// SAFETY: a `Buffer<T>` owns its allocation (`ptr` is a unique allocation,
// `cap` a plain counter). Sharing `&Buffer<T>` across threads hands out
// `&T` only (readers build `&[T]` over initialised slots, the writer writes
// slots no reader sees), which needs `T: Sync`; whichever thread drops the
// last `Arc` frees the allocation, which holds `T`s and so needs `T: Send`.
unsafe impl<T: Copy + Send + Sync> Send for Buffer<T> {}
// SAFETY: as for `Send` above: shared access yields `&T` only, and the last
// holder, on any thread, frees the allocation.
unsafe impl<T: Copy + Send + Sync> Sync for Buffer<T> {}

impl<T: Copy> Buffer<T> {
    /// Take over a `Vec`'s allocation (its elements stay where they are).
    fn from_vec(v: Vec<T>) -> Buffer<T> {
        let mut v = ManuallyDrop::new(v);
        Buffer {
            ptr: NonNull::new(v.as_mut_ptr()).expect("Vec pointers are never null"),
            cap: v.capacity(),
        }
    }
}

impl<T: Copy> Drop for Buffer<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`cap` came from a `Vec<T>` (`from_vec`) that was
        // never freed, and this is the last reference, so no prefix can
        // read the slots afterwards. Rebuilding the `Vec` with length 0
        // frees the allocation once; `T: Copy` values need no drop.
        unsafe { drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap)) }
    }
}

/// The writer of an append-only sequence whose prefixes can be shared.
///
/// Derefs to the whole sequence so far. See the [module docs](self).
///
/// Invariant: of all writers sharing a buffer, at most one — the one that
/// created it — has `cap == buf.cap` and writes into it; every other one
/// is a fork with `cap == len`, which must move to a buffer of its own
/// before its first write. The writing one's `len` is at least every
/// fork's and every prefix's length. A writer that has never allocated
/// holds no buffer (`cap == len == 0`), so empty sequences cost no
/// allocation.
pub struct AppendVec<T: Copy> {
    buf: Option<Arc<Buffer<T>>>,
    /// `buf.ptr` (dangling without a buffer), cached so the hot paths skip
    /// the `Arc`.
    ptr: NonNull<T>,
    /// Slots this writer may fill before it must move: `buf.cap` for the
    /// buffer's creator, `len` for a fork.
    cap: usize,
    len: usize,
}

// SAFETY: the fields are an optional `Arc<Buffer<T>>` (Send/Sync exactly
// when `T: Send + Sync`, see `Buffer`) plus a copy of that buffer's pointer
// and two counters. Moving the writer to another thread moves its right to
// fill slots `len..cap`, which no other writer or prefix can reach (see
// the invariant above), and `&AppendVec<T>` hands out `&[T]` only.
unsafe impl<T: Copy + Send + Sync> Send for AppendVec<T> {}
// SAFETY: as for `Send` above: through `&AppendVec<T>` nothing can append,
// and reads yield `&T` only.
unsafe impl<T: Copy + Send + Sync> Sync for AppendVec<T> {}

impl<T: Copy> AppendVec<T> {
    /// An empty sequence (no allocation until the first push).
    pub fn new() -> AppendVec<T> {
        AppendVec::from(Vec::new())
    }

    /// An empty sequence with room for `cap` elements before it first
    /// reallocates.
    pub fn with_capacity(cap: usize) -> AppendVec<T> {
        AppendVec::from(Vec::with_capacity(cap))
    }

    /// Elements this writer can still append without moving to a new
    /// buffer.
    #[inline]
    pub fn spare(&self) -> usize {
        self.cap - self.len
    }

    /// A shareable handle on the elements appended so far. Later appends
    /// do not change what it sees.
    pub fn prefix(&self) -> Prefix<T> {
        Prefix {
            buf: self.buf.clone(),
            ptr: self.ptr,
            len: self.len,
        }
    }

    /// Append one element. Amortised O(1); when the buffer is full, the
    /// move to a buffer of twice the size copies the existing elements
    /// once.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.extend_from_slice(std::slice::from_ref(&value));
    }

    /// Append a copy of `values` in one bulk copy. Every append goes
    /// through here: it is the one place that writes elements.
    #[inline]
    pub fn extend_from_slice(&mut self, values: &[T]) {
        self.reserve(values.len());
        // SAFETY: after `reserve`, `len + values.len() <= cap`, so this
        // writer is the buffer's creator (a fork has `cap == len` until it
        // moves), or `values` is empty and nothing is written. The
        // destination slots lie inside the allocation, beyond the length
        // of every fork and every `Prefix` of this buffer (both are taken
        // at this writer's `len` or less, and `len` only grows), so nobody
        // else reads or writes them. `values` is initialised memory and
        // those slots are not yet, so the ranges do not overlap.
        unsafe {
            ptr::copy_nonoverlapping(
                values.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                values.len(),
            )
        };
        self.len += values.len();
    }

    /// Make room for at least `additional` more elements without
    /// reallocating.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        let want = self.len.checked_add(additional).expect("capacity overflow");
        if want > self.cap {
            self.grow(want);
        }
    }

    /// Move to a buffer with room for at least `min_cap` elements: a
    /// bitwise copy of the elements so far. The old buffer is freed when
    /// this was its last holder, and otherwise stays, unchanged, with the
    /// prefixes and forks that hold it.
    #[cold]
    fn grow(&mut self, min_cap: usize) {
        let cap = min_cap.max(self.cap.saturating_mul(2)).max(4);
        let mut next: Vec<T> = Vec::with_capacity(cap);
        next.extend_from_slice(self);
        *self = AppendVec::from(next);
    }
}

impl<T: Copy> Clone for AppendVec<T> {
    /// Fork: O(1) now, sharing the elements so far; the fork's first push
    /// moves it to a buffer of its own.
    fn clone(&self) -> AppendVec<T> {
        AppendVec {
            buf: self.buf.clone(),
            ptr: self.ptr,
            cap: self.len,
            len: self.len,
        }
    }
}

impl<T: Copy> From<Vec<T>> for AppendVec<T> {
    /// Adopt a `Vec`'s allocation and elements without copying.
    fn from(v: Vec<T>) -> AppendVec<T> {
        if v.capacity() == 0 {
            // Nothing allocated (and, with no capacity, nothing held).
            return AppendVec {
                buf: None,
                ptr: NonNull::dangling(),
                cap: 0,
                len: 0,
            };
        }
        let len = v.len();
        let buf = Buffer::from_vec(v);
        AppendVec {
            ptr: buf.ptr,
            cap: buf.cap,
            buf: Some(Arc::new(buf)),
            len,
        }
    }
}

impl<T: Copy> FromIterator<T> for AppendVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> AppendVec<T> {
        AppendVec::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T: Copy> Extend<T> for AppendVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy> Default for AppendVec<T> {
    fn default() -> AppendVec<T> {
        AppendVec::new()
    }
}

impl<T: Copy> Deref for AppendVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is the allocation of the buffer this writer holds,
        // and its first `len` slots are initialised (written by this writer,
        // or by the one it was forked from before the fork); without a
        // buffer it is dangling, well aligned and `len` is 0. Initialised
        // slots are never written again, and `push` takes `&mut self`, so
        // nothing mutates memory this borrow covers while it lives.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for AppendVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The first `len` elements of an [`AppendVec`], frozen at the moment the
/// handle was taken: an `Arc` on the buffer plus a length. Cloning it is a
/// reference-count increment; it derefs to `&[T]`.
pub struct Prefix<T: Copy> {
    /// `None` only for a prefix of a writer that never allocated (`len` 0).
    buf: Option<Arc<Buffer<T>>>,
    /// `buf.ptr`, cached so indexing costs what it costs on a `Vec`.
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: the fields are an optional `Arc<Buffer<T>>` (Send/Sync exactly
// when `T: Send + Sync`, see `Buffer`), a copy of that buffer's pointer,
// and a length. A prefix only ever reads its initialised, never-again-written
// slots, handing out `&T`.
unsafe impl<T: Copy + Send + Sync> Send for Prefix<T> {}
// SAFETY: as for `Send` above: shared access yields `&T` only.
unsafe impl<T: Copy + Send + Sync> Sync for Prefix<T> {}

impl<T: Copy> Deref for Prefix<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the prefix was taken from the writer when `len` slots of
        // `buf` were initialised (or, without a buffer, `ptr` is dangling
        // and `len` is 0). `buf` is kept alive by this handle's `Arc`, and
        // neither a later `push` (which writes at or beyond the writer's
        // length, never below) nor a move to a bigger buffer (which leaves
        // the old buffer untouched) writes those slots again. The writes
        // that filled them happened before the handle was taken, and
        // whatever moved or shared the handle to this thread (channel,
        // lock, spawn) orders them before this read.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Clone for Prefix<T> {
    fn clone(&self) -> Prefix<T> {
        Prefix {
            buf: self.buf.clone(),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T: Copy> From<Vec<T>> for Prefix<T> {
    /// The whole of `v`, without copying.
    fn from(v: Vec<T>) -> Prefix<T> {
        AppendVec::from(v).prefix()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Prefix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const fn assert_send_sync<X: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<AppendVec<u32>>();
        assert_send_sync::<Prefix<u32>>();
        assert_send_sync::<AppendVec<(u64, u32)>>();
        assert_send_sync::<Prefix<(u64, u32)>>();
    };

    #[test]
    fn empty_writer_and_zero_length_prefix() {
        let w: AppendVec<u64> = AppendVec::new();
        assert!(w.is_empty());
        assert_eq!(w.spare(), 0);
        let p = w.prefix();
        assert_eq!(p.len(), 0);
        assert_eq!(&*p, &[] as &[u64]);
        drop(w);
        assert!(p.iter().next().is_none());
        let mut w = AppendVec::with_capacity(0);
        let early = w.prefix();
        w.push(1u64);
        assert_eq!(&*w, &[1]);
        assert!(early.is_empty());
    }

    #[test]
    fn from_vec_adopts_and_keeps_appending() {
        let mut w = AppendVec::from(vec![1, 2, 3]);
        let p = w.prefix();
        for i in 4..=100 {
            w.push(i);
        }
        assert_eq!(&*p, &[1, 2, 3]);
        assert_eq!(w.len(), 100);
        assert!(w.iter().copied().eq(1..=100));
        let whole = Prefix::from(vec!["a", "b"]);
        assert_eq!(&*whole.clone(), &["a", "b"]);
        w.reserve(1000);
        let before = w.prefix();
        w.push(101);
        assert_eq!(before.len(), 100);
        // A bulk append that outgrows the buffer moves it, leaving the
        // prefixes on the old one intact.
        let big: Vec<i32> = (102..=2000).collect();
        w.extend_from_slice(&big);
        w.extend_from_slice(&[]);
        assert!(w.iter().copied().eq(1..=2000));
        assert!(before.iter().copied().eq(1..=100));
        assert_eq!(format!("{:?}", Prefix::from(vec![7, 8])), "[7, 8]");
    }

    /// A writer created at its final capacity fills it in place: its
    /// buffer never moves, so every prefix shares the one allocation.
    #[test]
    fn fixed_capacity_writer_never_moves() {
        let mut w: AppendVec<u32> = AppendVec::with_capacity(64);
        let base = w.ptr;
        let mut prefixes = Vec::new();
        while w.spare() >= 5 {
            let at = w.len() as u32;
            if at.is_multiple_of(2) {
                w.extend(at..at + 5);
            } else {
                w.extend_from_slice(&[at, at + 1, at + 2, at + 3, at + 4]);
            }
            prefixes.push(w.prefix());
        }
        assert_eq!(w.len(), 60);
        assert_eq!(w.spare(), 4);
        assert_eq!(w.ptr, base, "a fill within capacity moved the buffer");
        for (k, p) in prefixes.iter().enumerate() {
            assert_eq!(p.ptr, base);
            assert!(p.iter().copied().eq(0..5 * (k as u32 + 1)));
        }
    }

    /// Readers on other threads hold prefixes taken at many lengths and
    /// keep re-reading them while the writer pushes through several
    /// reallocations; every read sees exactly what was there when the
    /// prefix was taken.
    #[test]
    fn prefixes_stay_frozen_across_reallocations_on_other_threads() {
        const READERS: usize = 4;
        const TOTAL: usize = 5_000;
        let value = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut w: AppendVec<u64> = AppendVec::new();
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..READERS {
            let (tx, rx) = mpsc::channel::<Prefix<u64>>();
            txs.push(tx);
            handles.push(std::thread::spawn(move || {
                let mut held: Vec<Prefix<u64>> = Vec::new();
                let mut checks = 0usize;
                for p in rx {
                    held.push(p);
                    for p in &held {
                        assert!(p.iter().enumerate().all(|(i, &s)| s == value(i)));
                        checks += 1;
                    }
                }
                checks
            }));
        }
        let mut generations = 0;
        let mut sent = 0;
        for i in 0..TOTAL {
            let cap = w.cap;
            w.push(value(i));
            generations += usize::from(w.cap != cap);
            // Hand out prefixes at irregular lengths, including just
            // before and just after a reallocation.
            if i % 97 == 0 || w.len() == w.cap || w.cap != cap {
                for tx in &txs {
                    tx.send(w.prefix()).expect("reader alive");
                }
                sent += 1;
            }
        }
        assert!(generations >= 3, "only {generations} reallocations");
        drop(txs);
        for h in handles {
            let checks = h.join().expect("reader panicked");
            assert!(checks >= sent);
        }
        assert!(w.iter().enumerate().all(|(i, &s)| s == value(i)));
    }

    /// Forks share what they were cloned from and diverge on their first
    /// push, without disturbing the original, each other or any prefix,
    /// whatever order they are dropped in.
    #[test]
    fn forks_copy_on_write() {
        for order in 0..3 {
            let mut a = AppendVec::with_capacity(64);
            for i in 0..10u32 {
                a.push(i);
            }
            let before = a.prefix();
            let mut b = a.clone();
            let mut d = a.clone();
            assert_eq!(b.ptr, a.ptr, "a fork copies nothing");
            a.push(100); // in place: a created the buffer
            b.push(200); // b moves first
            let mut c = b.clone();
            c.push(300);
            let base: Vec<u32> = (0..10).collect();
            assert_eq!(&*before, &base[..]);
            assert_eq!(&*a, &[&base[..], &[100]].concat()[..]);
            assert_eq!(&*b, &[&base[..], &[200]].concat()[..]);
            assert_eq!(&*c, &[&base[..], &[200, 300]].concat()[..]);
            match order {
                0 => drop((a, b, c, d, before)),
                1 => drop((before, d, c, b, a)),
                _ => {
                    // The original goes first: the fork left holding the
                    // buffer alone still moves before writing, since the
                    // buffer also holds a value (100) past the fork's end.
                    drop((a, before));
                    d.push(400);
                    assert_eq!(&*d, &[&base[..], &[400]].concat()[..]);
                    drop((b, c, d));
                }
            }
        }
    }
}
