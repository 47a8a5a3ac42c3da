//! A reusable work-stealing worker pool.
//!
//! [`crate::compute_study`] originally carried its own per-core queue —
//! an `AtomicUsize` cursor over a fixed pair list — which was welded to
//! the bench×mech matrix: nothing else could submit work to it, and it
//! died with the one study it computed. This module lifts that queue
//! into a standalone pool any caller can keep alive and feed closures:
//! `og-serve` executes request jobs on it for the lifetime of the
//! service, and every fan-out of independent jobs — the study's steps,
//! the fault campaign's workloads, the guided fuzz campaign's shards and
//! its random baseline — goes through [`WorkerPool::map_all`].
//!
//! Shape:
//!
//! * **One deque per worker.** A submitted job lands on one worker's
//!   deque (round-robin). The owner pops from the back (LIFO — the job
//!   it just pushed is the one whose data is hottest); idle workers
//!   steal from the *front* of a victim's deque (FIFO — the oldest job,
//!   the one the owner is least likely to touch soon). This is the
//!   classic Arora-Blumofe-Plumbeck split, implemented with plain
//!   `Mutex<VecDeque>` per worker: the study's jobs are milliseconds to
//!   seconds long, so lock-free deques would buy nothing measurable.
//! * **Condvar parking.** Workers with nothing to run and nothing to
//!   steal park on a condvar; every submit notifies one parked worker.
//! * **Panic isolation.** Each job runs under `catch_unwind`: a
//!   panicking job increments [`WorkerPool::panicked_jobs`] and the
//!   worker keeps serving. A service thread must never die because one
//!   request's job panicked — callers that need the panic (every
//!   fan-out) get it back from [`WorkerPool::map_all`], with its
//!   message.
//! * **Drain on drop.** Dropping the pool lets already-submitted jobs
//!   finish, then joins the workers. Nothing is cancelled silently.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Jobs submitted but not yet picked up by any worker.
    queued: usize,
    /// Set by drop: workers drain the queues and exit.
    shutdown: bool,
}

struct PoolInner {
    /// One deque per worker; the index is the owner.
    deques: Vec<Mutex<VecDeque<Job>>>,
    state: Mutex<PoolState>,
    /// Signalled on submit and shutdown.
    available: Condvar,
    /// Round-robin cursor for submissions.
    next_submit: AtomicUsize,
    /// Jobs that panicked (and were contained).
    panicked: AtomicU64,
    /// Payload messages of the first [`MAX_PANIC_MESSAGES`] contained
    /// panics, so callers can log *which* job died and why instead of
    /// only observing a bare count.
    panic_msgs: Mutex<Vec<String>>,
}

/// Cap on retained panic payload messages — diagnostics, not a log.
const MAX_PANIC_MESSAGES: usize = 32;

/// Render a `catch_unwind` payload as best we can (`panic!` with a
/// string literal or a formatted message covers practically all of
/// them).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-size pool of worker threads draining submitted closures, with
/// per-worker deques and work stealing. See the module docs for the
/// design and its callers.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            state: Mutex::new(PoolState { queued: 0, shutdown: false }),
            available: Condvar::new(),
            next_submit: AtomicUsize::new(0),
            panicked: AtomicU64::new(0),
            panic_msgs: Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("og-pool-{me}"))
                    .spawn(move || worker_loop(&inner, me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// A pool with one worker per available core.
    pub fn with_default_parallelism() -> WorkerPool {
        Self::new(std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.deques.len()
    }

    /// Jobs that panicked so far. The panics were contained — the
    /// workers survive — but a caller waiting on a result channel will
    /// see it come up short; this counter says why.
    pub fn panicked_jobs(&self) -> u64 {
        self.inner.panicked.load(Ordering::Relaxed)
    }

    /// Payload messages of contained panics, in arrival order (capped
    /// at the first 32). Pair with [`WorkerPool::panicked_jobs`]: the
    /// counter says how many, this says why.
    pub fn panic_messages(&self) -> Vec<String> {
        self.inner.panic_msgs.lock().unwrap().clone()
    }

    /// Submit a job. It lands on one worker's deque round-robin and runs
    /// as soon as a worker (owner or thief) picks it up. Returns
    /// immediately; results travel however the closure arranges (a
    /// channel, an `Arc<Mutex<_>>`, ...).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let slot = self.inner.next_submit.fetch_add(1, Ordering::Relaxed) % self.workers();
        self.inner.deques[slot].lock().unwrap().push_back(Box::new(job));
        let mut state = self.inner.state.lock().unwrap();
        state.queued += 1;
        drop(state);
        self.inner.available.notify_one();
    }

    /// Run `f` over every item, one pool job per item, and block until
    /// all are done. Results come back in item order. A lost job is a bug
    /// for every caller, so if a job panics this panics too, naming
    /// `what` and carrying the first lost item's panic message.
    pub fn map_all<T, R, F>(&self, what: &str, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel();
        let mut n = 0;
        for item in items {
            let (f, tx, i) = (Arc::clone(&f), tx.clone(), n);
            // The job sends its panic message before re-raising the panic
            // for the pool to count, so the message cannot arrive after
            // the result channel has closed.
            self.submit(move || match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(result) => {
                    let _ = tx.send((i, Ok(result)));
                }
                Err(payload) => {
                    let _ = tx.send((i, Err(panic_message(payload.as_ref()))));
                    resume_unwind(payload);
                }
            });
            n += 1;
        }
        drop(tx);
        let mut slots: Vec<Result<R, String>> =
            (0..n).map(|_| Err("job never reported".to_string())).collect();
        for (i, result) in rx {
            slots[i] = result;
        }
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|why| panic!("{what}: a job panicked: {why}")))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Take a job: own deque's back first (LIFO), then steal from the front
/// of the others (FIFO), starting after `me` so thieves spread out.
fn take_job(inner: &PoolInner, me: usize) -> Option<Job> {
    if let Some(job) = inner.deques[me].lock().unwrap().pop_back() {
        return Some(job);
    }
    let n = inner.deques.len();
    for step in 1..n {
        let victim = (me + step) % n;
        if let Some(job) = inner.deques[victim].lock().unwrap().pop_front() {
            return Some(job);
        }
    }
    None
}

fn worker_loop(inner: &PoolInner, me: usize) {
    loop {
        // Fast path: grab work without touching the shared state lock
        // beyond the decrement.
        if let Some(job) = take_job(inner, me) {
            inner.state.lock().unwrap().queued -= 1;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                inner.panicked.fetch_add(1, Ordering::Relaxed);
                let mut msgs = inner.panic_msgs.lock().unwrap();
                if msgs.len() < MAX_PANIC_MESSAGES {
                    msgs.push(panic_message(payload.as_ref()));
                }
            }
            continue;
        }
        // Nothing anywhere: park until a submit or shutdown. Re-check
        // under the lock — a job may have been submitted between the
        // failed scan and acquiring the lock.
        let state = self_park(inner);
        if state {
            return;
        }
    }
}

/// Park on the condvar until there is queued work or shutdown. Returns
/// `true` when the worker should exit (shutdown and nothing queued).
fn self_park(inner: &PoolInner) -> bool {
    let mut state = inner.state.lock().unwrap();
    loop {
        if state.queued > 0 {
            return false;
        }
        if state.shutdown {
            return true;
        }
        state = inner.available.wait(state).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_every_submitted_job_exactly_once() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u64 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(pool.panicked_jobs(), 0);
    }

    #[test]
    fn work_is_stolen_off_a_blocked_worker() {
        // 2 workers; park one with a job that waits until every other
        // job has run. Round-robin puts half the jobs on the blocked
        // worker's deque — they can only finish if the free worker
        // steals them, so completion proves stealing.
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let n = 20;
        {
            let done = Arc::clone(&done);
            pool.submit(move || {
                while done.load(Ordering::Acquire) < n {
                    std::thread::yield_now();
                }
            });
        }
        for _ in 0..n {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::AcqRel);
            });
        }
        drop(pool); // drains — would deadlock here without stealing
        assert_eq!(done.load(Ordering::Acquire), n);
    }

    #[test]
    fn a_panicking_job_is_contained_and_counted() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(|| panic!("job panic, contained"));
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 10, "workers must survive a panicking job");
        // The ten sends can drain before the panicking job's counter
        // increment lands on another worker; wait for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.panicked_jobs() == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.panicked_jobs(), 1);
        assert_eq!(pool.panic_messages(), vec!["job panic, contained".to_string()]);
    }

    #[test]
    fn panic_messages_carry_formatted_payloads_and_are_capped() {
        let pool = WorkerPool::new(2);
        for shard in 0..40u32 {
            pool.submit(move || panic!("shard {shard} died"));
        }
        drop(pool.panic_messages()); // concurrent reads are fine mid-run
                                     // Drain by dropping a clone-less handle: wait for all counters.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.panicked_jobs() < 40 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.panicked_jobs(), 40);
        let msgs = pool.panic_messages();
        assert_eq!(msgs.len(), 32, "retention is capped");
        assert!(msgs.iter().all(|m| m.starts_with("shard ") && m.ends_with(" died")));
    }

    #[test]
    fn map_all_returns_results_in_item_order() {
        let pool = WorkerPool::new(3);
        let got = pool.map_all("squares", 0..17u64, |i| i * i);
        assert_eq!(got, (0..17u64).map(|i| i * i).collect::<Vec<_>>());
        assert!(pool.map_all("nothing", Vec::<u64>::new(), |i| i).is_empty());
    }

    #[test]
    fn map_all_panics_with_the_contained_message() {
        let pool = WorkerPool::new(2);
        let lost = catch_unwind(AssertUnwindSafe(|| {
            pool.map_all("shards", [1u64, 2, 3], |i| {
                assert_ne!(i, 2, "shard two dies");
                i
            })
        }));
        let message = panic_message(lost.expect_err("a lost job must panic").as_ref());
        assert!(message.starts_with("shards: a job panicked"), "{message}");
        assert!(message.contains("shard two dies"), "{message}");
    }

    #[test]
    fn drop_drains_already_submitted_jobs() {
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }
}
