//! A small fixed worker pool for batched query evaluation.
//!
//! Batched wire queries (`QueryPrecedesBatch`, `QueryGcBatch`) can carry
//! hundreds of items; evaluating them on the connection thread serializes
//! every other request on that connection behind one slow
//! greatest-concurrent. The pool scatters a batch across a few workers and
//! joins the results in order. Jobs only ever *read* — an `Arc<Snapshot>`
//! plus the shared greatest-concurrent memo — so there is no job-to-job
//! ordering to preserve and no way for a job to deadlock the pool (jobs
//! never submit jobs).
//!
//! Small batches run inline: the scatter/join overhead (~µs) dwarfs the
//! work of a handful of precedence tests (a few hundred ns each).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send>;

/// Batches below this size run inline on the calling thread.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Fixed-size worker pool. Dropping it without [`shutdown`](Self::shutdown)
/// leaves workers parked on the (closed) channel; the daemon always shuts
/// down explicitly.
pub struct QueryPool {
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    size: usize,
}

impl QueryPool {
    /// A pool of `size` workers; `size <= 1` disables the threads entirely
    /// and [`map`](Self::map) runs everything inline.
    pub fn new(size: usize) -> QueryPool {
        if size <= 1 {
            return QueryPool {
                tx: Mutex::new(None),
                workers: Mutex::new(Vec::new()),
                size: 1,
            };
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..size)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cts-query-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn query worker")
            })
            .collect();
        QueryPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            size,
        }
    }

    /// The pool's parallelism suggestion for the host: a few workers, never
    /// more than the hardware offers.
    pub fn default_size() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }

    /// Number of workers (1 = inline).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Evaluate `f` over `items`, in order, scattering contiguous chunks
    /// across the workers. Falls back to an inline map when the pool is
    /// inline-only, the batch is small, or the pool is already shut down.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let tx = match (self.size > 1 && n >= MIN_PARALLEL_ITEMS)
            .then(|| lock(&self.tx).clone())
            .flatten()
        {
            Some(tx) => tx,
            None => return items.into_iter().map(f).collect(),
        };

        struct Join<R> {
            slots: Mutex<(Vec<Option<R>>, usize)>,
            done: Condvar,
        }
        let chunk_len = n.div_ceil(self.size);
        let f = Arc::new(f);
        let join = Arc::new(Join {
            slots: Mutex::new(((0..n).map(|_| None).collect::<Vec<Option<R>>>(), 0)),
            done: Condvar::new(),
        });
        let mut chunks = 0usize;
        let mut base = 0usize;
        let mut items = items.into_iter();
        while base < n {
            let take: Vec<T> = items.by_ref().take(chunk_len).collect();
            let len = take.len();
            let f = Arc::clone(&f);
            let join = Arc::clone(&join);
            let start = base;
            chunks += 1;
            tx.send(Box::new(move || {
                // Compute outside the lock; publish the chunk in one go.
                let out: Vec<R> = take.into_iter().map(|x| f(x)).collect();
                let mut g = lock(&join.slots);
                for (i, r) in out.into_iter().enumerate() {
                    g.0[start + i] = Some(r);
                }
                g.1 += 1;
                join.done.notify_all();
            }))
            .expect("pool workers outlive the sender");
            base += len;
        }
        let mut g = lock(&join.slots);
        while g.1 < chunks {
            g = join.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.0.iter_mut()
            .map(|slot| slot.take().expect("all chunks joined"))
            .collect()
    }

    /// Stop the workers and join them. Idempotent.
    pub fn shutdown(&self) {
        drop(lock(&self.tx).take());
        let workers: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = match lock(rx).recv() {
            Ok(j) => j,
            Err(_) => return, // sender dropped: shutdown
        };
        job();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = QueryPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map(items, |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
        pool.shutdown();
    }

    #[test]
    fn small_batches_run_inline() {
        let pool = QueryPool::new(4);
        let out = pool.map(vec![1u32, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        pool.shutdown();
    }

    #[test]
    fn inline_pool_works_without_threads() {
        let pool = QueryPool::new(1);
        assert_eq!(pool.size(), 1);
        let out = pool.map((0..100u32).collect(), |x| x * x);
        assert_eq!(out[99], 99 * 99);
        pool.shutdown();
    }

    #[test]
    fn map_after_shutdown_runs_inline() {
        let pool = QueryPool::new(2);
        pool.shutdown();
        let out = pool.map((0..200u32).collect(), |x| x + 1);
        assert_eq!(out.len(), 200);
        assert_eq!(out[0], 1);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let pool = QueryPool::new(2);
        pool.shutdown();
        pool.shutdown();
    }
}
