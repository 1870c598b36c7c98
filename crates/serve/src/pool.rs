//! A bounded-queue worker pool on std threads, built for typed
//! backpressure: a full queue or a draining pool hands the job *back*
//! to the caller instead of blocking or dropping it, so the server can
//! answer with a machine-readable rejection.
//!
//! Each worker runs the handler with its worker index, which addresses
//! the worker's home cache shard.
//!
//! Two shutdown flavors match the two ways a serve session ends:
//!
//! * [`WorkerPool::finish`] — the input is exhausted (stdio EOF):
//!   everything already accepted runs to completion, then workers exit.
//! * [`WorkerPool::drain`] — a `shutdown` request arrived: in-flight
//!   jobs complete, queued jobs are handed back for typed rejection,
//!   new submissions are refused.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Why [`WorkerPool::submit`] handed a job back.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The bounded queue is at capacity (backpressure).
    QueueFull(T),
    /// The pool is draining or finished and refuses new work.
    Draining(T),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Running,
    Finishing,
    Draining,
}

struct State<T> {
    queue: VecDeque<T>,
    mode: Mode,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    depth: usize,
}

/// A fixed-size pool of workers draining a bounded FIFO queue.
pub struct WorkerPool<T: Send + 'static> {
    inner: Arc<Inner<T>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads (min 1) running `handler` over
    /// submitted jobs, with at most `depth` jobs queued (min 1). The
    /// handler receives the index in `0..workers` of the worker running
    /// it, stable for the worker's life.
    pub fn new<F>(workers: usize, depth: usize, handler: F) -> Self
    where
        F: Fn(usize, T) + Send + Sync + 'static,
    {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                mode: Mode::Running,
            }),
            available: Condvar::new(),
            depth: depth.max(1),
        });
        let handler = Arc::new(handler);
        let handles = (0..workers.max(1))
            .map(|index| {
                let inner = Arc::clone(&inner);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut st = inner.state.lock().expect("pool state poisoned");
                        loop {
                            if let Some(job) = st.queue.pop_front() {
                                break Some(job);
                            }
                            if st.mode != Mode::Running {
                                break None;
                            }
                            st = inner.available.wait(st).expect("pool state poisoned");
                        }
                    };
                    match job {
                        Some(job) => handler(index, job),
                        None => return,
                    }
                })
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues a job, or hands it back with a typed reason.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Draining`]
    /// once any shutdown has begun. The job rides inside the error so
    /// the caller can still answer it.
    pub fn submit(&self, job: T) -> Result<(), SubmitError<T>> {
        let mut st = self.inner.state.lock().expect("pool state poisoned");
        if st.mode != Mode::Running {
            return Err(SubmitError::Draining(job));
        }
        if st.queue.len() >= self.inner.depth {
            return Err(SubmitError::QueueFull(job));
        }
        st.queue.push_back(job);
        drop(st);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (diagnostic, and the admission-control
    /// depth signal).
    pub fn queued(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("pool state poisoned")
            .queue
            .len()
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("pool workers poisoned")
            .drain(..)
            .collect();
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    }

    /// Completes **all** accepted jobs (queued included), then stops the
    /// workers and joins them. Idempotent; later submissions are
    /// refused as draining.
    pub fn finish(&self) {
        {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            if st.mode == Mode::Running {
                st.mode = Mode::Finishing;
            }
        }
        self.inner.available.notify_all();
        self.join_workers();
    }

    /// Completes only the jobs already **in flight**; queued jobs are
    /// pulled back and returned so the caller can reject them. Joins
    /// the workers. Idempotent (a second call returns an empty list).
    pub fn drain(&self) -> Vec<T> {
        let rejected = {
            let mut st = self.inner.state.lock().expect("pool state poisoned");
            st.mode = Mode::Draining;
            st.queue.drain(..).collect()
        };
        self.inner.available.notify_all();
        self.join_workers();
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_finish_completes_everything() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(3, 64, move |_index, n: usize| {
            d.fetch_add(n, Ordering::SeqCst);
        });
        for i in 1..=10 {
            pool.submit(i).expect("queue has room");
        }
        pool.finish();
        assert_eq!(done.load(Ordering::SeqCst), 55);
        assert!(matches!(pool.submit(99), Err(SubmitError::Draining(99))));
    }

    #[test]
    fn workers_know_their_index() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        let pool = WorkerPool::new(1, 8, move |index, _n: usize| {
            s.lock().unwrap().push(index);
        });
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        pool.finish();
        assert_eq!(*seen.lock().unwrap(), vec![0, 0]);
    }

    #[test]
    fn queue_full_hands_the_job_back() {
        // One worker blocked on a handshake; depth-1 queue: the first
        // job occupies the worker, the second fills the queue, and the
        // third must bounce with QueueFull.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let pool = WorkerPool::new(1, 1, move |_index, n: usize| {
            if n == 0 {
                started_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        });
        pool.submit(0).unwrap();
        started_rx.recv().unwrap(); // worker is now busy with job 0
        pool.submit(1).unwrap(); // fills the depth-1 queue
        match pool.submit(2) {
            Err(SubmitError::QueueFull(2)) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        release_tx.send(()).unwrap();
        pool.finish();
    }

    #[test]
    fn drain_completes_in_flight_and_returns_queued() {
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let completed = Arc::new(Mutex::new(Vec::new()));
        let completed_in = Arc::clone(&completed);
        let pool = Arc::new(WorkerPool::new(1, 16, move |_index, n: usize| {
            if n == 0 {
                started_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
            completed_in.lock().unwrap().push(n);
        }));
        pool.submit(0).unwrap();
        started_rx.recv().unwrap(); // job 0 is in flight
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        // Unblock the in-flight job only once drain() has pulled the
        // queued jobs back (observable as an empty queue) — drain
        // itself blocks until the worker exits, so this needs a helper.
        let drainer = std::thread::spawn({
            let pool = Arc::clone(&pool);
            move || {
                while pool.queued() > 0 {
                    std::thread::yield_now();
                }
                release_tx.send(()).unwrap();
            }
        });
        let rejected = pool.drain();
        drainer.join().unwrap();
        assert_eq!(rejected, vec![1, 2], "queued jobs are handed back");
        assert_eq!(*completed.lock().unwrap(), vec![0], "in-flight completed");
        assert!(matches!(pool.submit(3), Err(SubmitError::Draining(3))));
        assert!(pool.drain().is_empty(), "drain is idempotent");
    }
}
