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
//! writer moves to one of twice the capacity: if nobody else holds the old
//! buffer its elements are moved over bitwise, otherwise they are cloned
//! and the old buffer stays alive, unchanged, for as long as some prefix
//! still refers to it. Appends therefore cost amortised O(1), a prefix
//! costs one reference-count increment, and a set of prefixes held at
//! once shares at most one copy of history per buffer generation.
//!
//! Cloning a writer forks it copy-on-write: the clone shares the elements
//! so far and moves to a buffer of its own on its first push, so a
//! structure that is mostly read after cloning (a snapshot of an engine's
//! cluster versions) costs O(1) to copy.
//!
//! All `unsafe` code of the workspace's shared-history structures lives in
//! this module; nothing outside it can reach the raw buffer.

use std::fmt;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A heap allocation of `cap` slots, the first `init` of which hold
/// initialised values. Dropping it drops exactly those values and frees the
/// allocation.
struct Buffer<T> {
    ptr: NonNull<T>,
    cap: usize,
    /// Initialised slots. Written only by the [`AppendVec`] that created
    /// this buffer; read by `Drop`, after the last `Arc` is gone, and by a
    /// writer that finds its `Arc` unique. Either way the `Arc`'s own
    /// release/acquire on the count orders the write before the read, so
    /// `Relaxed` suffices.
    init: AtomicUsize,
    _owns: PhantomData<T>,
}

// SAFETY: a `Buffer<T>` owns its `T`s (`ptr` is a unique allocation, `cap`
// and `init` are plain counters). Sharing `&Buffer<T>` across threads hands
// out `&T` only (readers build `&[T]` over initialised slots, the writer
// writes slots no reader sees), which needs `T: Sync`; whichever thread
// drops the last `Arc` drops the `T`s, which needs `T: Send`.
unsafe impl<T: Send + Sync> Send for Buffer<T> {}
// SAFETY: as for `Send` above: shared access yields `&T` only, and the last
// holder, on any thread, drops the `T`s.
unsafe impl<T: Send + Sync> Sync for Buffer<T> {}

impl<T> Buffer<T> {
    /// Take over a `Vec`'s allocation; its `len` elements become the
    /// initialised slots.
    fn from_vec(v: Vec<T>) -> Buffer<T> {
        let mut v = ManuallyDrop::new(v);
        Buffer {
            ptr: NonNull::new(v.as_mut_ptr()).expect("Vec pointers are never null"),
            cap: v.capacity(),
            init: AtomicUsize::new(v.len()),
            _owns: PhantomData,
        }
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        let init = *self.init.get_mut();
        // SAFETY: `ptr`/`cap` came from a `Vec<T>` (`from_vec`) that was
        // never freed, and exactly the first `init` slots are initialised:
        // the writer bumps `init` after each write and zeroes it when it
        // moves the values out (`AppendVec::grow`). This is the last
        // reference, so no prefix can observe the values afterwards.
        // Dropping them in place and then rebuilding the `Vec` with length
        // 0 drops each value once and frees the allocation once.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), init));
            drop(Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap));
        }
    }
}

/// The writer of an append-only sequence whose prefixes can be shared.
///
/// Derefs to the whole sequence so far. See the [module docs](self).
///
/// Invariant: of all writers sharing a buffer, at most one — the one that
/// created it — has `cap == buf.cap` and writes into it; every other one
/// is a fork with `cap == len`, which must move to a buffer of its own
/// before its first write. The writing one's `len` equals `buf.init` and
/// is at least every fork's and every prefix's length. A writer that has
/// never allocated holds no buffer (`cap == len == 0`), so empty sequences
/// cost no allocation.
pub struct AppendVec<T> {
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
unsafe impl<T: Send + Sync> Send for AppendVec<T> {}
// SAFETY: as for `Send` above: through `&AppendVec<T>` nothing can append,
// and reads yield `&T` only.
unsafe impl<T: Send + Sync> Sync for AppendVec<T> {}

impl<T> AppendVec<T> {
    /// An empty sequence (no allocation until the first push).
    pub fn new() -> AppendVec<T> {
        AppendVec::from(Vec::new())
    }

    /// An empty sequence with room for `cap` elements before it first
    /// reallocates.
    pub fn with_capacity(cap: usize) -> AppendVec<T> {
        AppendVec::from(Vec::with_capacity(cap))
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
}

impl<T: Clone> AppendVec<T> {
    /// Append one element. Amortised O(1); when the buffer is full and
    /// prefixes still hold it, the move to a buffer of twice the size
    /// clones the existing elements once.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len == self.cap {
            self.grow(self.len + 1);
        }
        // SAFETY: `len < cap`, so this writer is the buffer's creator
        // (a fork has `cap == len` until it moves) and slot `len` is inside
        // the allocation. The slot is uninitialised and beyond the length of
        // every fork and every `Prefix` of this buffer (both are taken at
        // this writer's `len` or less, and `len` only grows), so nobody else
        // reads or writes it.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
        if let Some(buf) = &self.buf {
            buf.init.store(self.len, Ordering::Relaxed);
        }
    }

    /// Make room for at least `additional` more elements without
    /// reallocating.
    pub fn reserve(&mut self, additional: usize) {
        let want = self.len.checked_add(additional).expect("capacity overflow");
        if want > self.cap {
            self.grow(want);
        }
    }

    /// Move to a buffer with room for at least `min_cap` elements.
    #[cold]
    fn grow(&mut self, min_cap: usize) {
        let cap = min_cap.max(self.cap.saturating_mul(2)).max(4);
        let mut next: Vec<T> = Vec::with_capacity(cap);
        let len = self.len;
        match self.buf.as_mut().and_then(Arc::get_mut) {
            Some(old) if old.init.load(Ordering::Relaxed) == len => {
                // SAFETY: nobody else holds the old buffer (the `Arc` is
                // unique), exactly its first `len` slots are initialised,
                // and `next` has room for `cap >= len` elements in a
                // distinct allocation. The values are moved bitwise; zeroing
                // `init` right after keeps the old buffer from dropping them
                // too, and `set_len` hands them to `next`.
                unsafe {
                    ptr::copy_nonoverlapping(self.ptr.as_ptr(), next.as_mut_ptr(), len);
                    *old.init.get_mut() = 0;
                    next.set_len(len);
                }
            }
            // Others still read the old buffer (or, for a fork, it holds
            // more than this writer's elements), or there is none: it keeps
            // its values and the new one gets clones.
            _ => next.extend_from_slice(self),
        }
        *self = AppendVec::from(next);
    }
}

impl<T: Clone> Clone for AppendVec<T> {
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

impl<T> From<Vec<T>> for AppendVec<T> {
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

impl<T> FromIterator<T> for AppendVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> AppendVec<T> {
        AppendVec::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T> Default for AppendVec<T> {
    fn default() -> AppendVec<T> {
        AppendVec::new()
    }
}

impl<T> Deref for AppendVec<T> {
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

impl<T: fmt::Debug> fmt::Debug for AppendVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The first `len` elements of an [`AppendVec`], frozen at the moment the
/// handle was taken: an `Arc` on the buffer plus a length. Cloning it is a
/// reference-count increment; it derefs to `&[T]`.
pub struct Prefix<T> {
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
unsafe impl<T: Send + Sync> Send for Prefix<T> {}
// SAFETY: as for `Send` above: shared access yields `&T` only.
unsafe impl<T: Send + Sync> Sync for Prefix<T> {}

impl<T> Deref for Prefix<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the prefix was taken from the writer when `len` slots of
        // `buf` were initialised (or, without a buffer, `ptr` is dangling
        // and `len` is 0). `buf` is kept alive by this handle's `Arc`, and neither a later `push` (which writes at or beyond the
        // writer's length, never below) nor a move to a bigger buffer (which
        // leaves a shared old buffer untouched) writes those slots again.
        // The writes that filled them happened before the handle was taken,
        // and whatever moved or shared the handle to this thread (channel,
        // lock, spawn) orders them before this read.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Clone for Prefix<T> {
    fn clone(&self) -> Prefix<T> {
        Prefix {
            buf: self.buf.clone(),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T> From<Vec<T>> for Prefix<T> {
    /// The whole of `v`, without copying.
    fn from(v: Vec<T>) -> Prefix<T> {
        AppendVec::from(v).prefix()
    }
}

impl<T: fmt::Debug> fmt::Debug for Prefix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicIsize;
    use std::sync::mpsc;

    const fn assert_send_sync<X: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<AppendVec<u32>>();
        assert_send_sync::<Prefix<u32>>();
        assert_send_sync::<AppendVec<String>>();
        assert_send_sync::<Prefix<String>>();
    };

    #[test]
    fn empty_writer_and_zero_length_prefix() {
        let w: AppendVec<String> = AppendVec::new();
        assert!(w.is_empty());
        let p = w.prefix();
        assert_eq!(p.len(), 0);
        assert_eq!(&*p, &[] as &[String]);
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
        assert_eq!(format!("{:?}", Prefix::from(vec![7, 8])), "[7, 8]");
    }

    /// Readers on other threads hold prefixes taken at many lengths and
    /// keep re-reading them while the writer pushes through several
    /// reallocations; every read sees exactly what was there when the
    /// prefix was taken.
    #[test]
    fn prefixes_stay_frozen_across_reallocations_on_other_threads() {
        const READERS: usize = 4;
        const TOTAL: usize = 5_000;
        let value = |i: usize| format!("v{i}");
        let mut w: AppendVec<String> = AppendVec::new();
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..READERS {
            let (tx, rx) = mpsc::channel::<Prefix<String>>();
            txs.push(tx);
            handles.push(std::thread::spawn(move || {
                let mut held: Vec<Prefix<String>> = Vec::new();
                let mut checks = 0usize;
                for p in rx {
                    held.push(p);
                    for p in &held {
                        assert!(p.iter().enumerate().all(|(i, s)| *s == value(i)));
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
        assert!(w.iter().enumerate().all(|(i, s)| *s == value(i)));
    }

    /// A value that counts its live instances: creation (including
    /// clones) increments, drop decrements.
    struct Counted<'a>(u32, &'a AtomicIsize);

    impl<'a> Counted<'a> {
        fn new(v: u32, live: &'a AtomicIsize) -> Counted<'a> {
            live.fetch_add(1, Ordering::SeqCst);
            Counted(v, live)
        }
    }

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            Counted::new(self.0, self.1)
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            let before = self.1.fetch_sub(1, Ordering::SeqCst);
            assert!(before > 0, "dropped more values than were created");
        }
    }

    /// Every value (original or clone made by a reallocation) is dropped
    /// exactly once, whatever order the writer and the prefixes go in.
    #[test]
    fn every_value_dropped_exactly_once_in_any_drop_order() {
        // Each scenario: (pushes, prefix every k pushes, drop order).
        for pushes in [0usize, 1, 3, 4, 5, 17, 64, 300] {
            for every in [1usize, 3, 50] {
                for order in 0..4 {
                    let live = AtomicIsize::new(0);
                    {
                        let mut w = AppendVec::new();
                        let mut prefixes = Vec::new();
                        for i in 0..pushes {
                            w.push(Counted::new(i as u32, &live));
                            if i % every == 0 {
                                prefixes.push(w.prefix());
                            }
                        }
                        for p in &prefixes {
                            assert!(p.iter().enumerate().all(|(i, c)| c.0 == i as u32));
                        }
                        match order {
                            0 => {
                                drop(w);
                                drop(prefixes);
                            }
                            1 => {
                                drop(prefixes);
                                drop(w);
                            }
                            2 => {
                                // Newest prefix first, writer in the middle.
                                let half = prefixes.len() / 2;
                                while prefixes.len() > half {
                                    prefixes.pop();
                                }
                                drop(w);
                                while prefixes.pop().is_some() {}
                            }
                            _ => {
                                // Oldest first, writer last.
                                while !prefixes.is_empty() {
                                    prefixes.remove(0);
                                }
                                drop(w);
                            }
                        }
                    }
                    assert_eq!(
                        live.load(Ordering::SeqCst),
                        0,
                        "pushes {pushes}, every {every}, order {order}"
                    );
                }
            }
        }
    }

    /// Forks share what they were cloned from and diverge on their first
    /// push, without disturbing the original, each other or any prefix;
    /// every value is still dropped exactly once.
    #[test]
    fn forks_copy_on_write() {
        for order in 0..3 {
            let live = AtomicIsize::new(0);
            {
                let mut a = AppendVec::with_capacity(64);
                for i in 0..10 {
                    a.push(Counted::new(i, &live));
                }
                let before = a.prefix();
                let mut b = a.clone();
                let mut d = a.clone();
                assert_eq!(live.load(Ordering::SeqCst), 10, "a fork copies nothing");
                a.push(Counted::new(100, &live)); // in place: a created the buffer
                b.push(Counted::new(200, &live)); // b moves first
                let mut c = b.clone();
                c.push(Counted::new(300, &live));
                let tags = |v: &[Counted<'_>]| v.iter().map(|c| c.0).collect::<Vec<_>>();
                let base: Vec<u32> = (0..10).collect();
                assert_eq!(tags(&before), base);
                assert_eq!(tags(&a), [&base[..], &[100]].concat());
                assert_eq!(tags(&b), [&base[..], &[200]].concat());
                assert_eq!(tags(&c), [&base[..], &[200, 300]].concat());
                match order {
                    0 => drop((a, b, c, d, before)),
                    1 => drop((before, d, c, b, a)),
                    _ => {
                        // The original goes first: the fork left holding
                        // the buffer alone must clone, not move, since the
                        // buffer also holds a value (100) the fork does not
                        // own.
                        drop((a, before));
                        d.push(Counted::new(400, &live));
                        assert_eq!(tags(&d), [&base[..], &[400]].concat());
                        drop((b, c, d));
                    }
                }
            }
            assert_eq!(live.load(Ordering::SeqCst), 0, "order {order}");
        }
    }

    /// A writer with no prefixes outstanding moves its values instead of
    /// cloning them.
    #[test]
    fn unshared_growth_moves_instead_of_cloning() {
        let live = AtomicIsize::new(0);
        let mut w = AppendVec::new();
        for i in 0..1000 {
            w.push(Counted::new(i, &live));
        }
        assert_eq!(live.load(Ordering::SeqCst), 1000);
        let p = w.prefix();
        w.reserve(w.cap + 1); // shared: clones once
        assert_eq!(live.load(Ordering::SeqCst), 2000);
        drop(p);
        drop(w);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }
}
