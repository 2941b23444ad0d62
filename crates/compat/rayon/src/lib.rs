//! Minimal, dependency-free stand-in for the subset of `rayon` this
//! workspace uses.
//!
//! The build environment is fully offline, so the data-parallel kernels in
//! `qsc-linalg` and `qsc-sim` are written against this crate: the same
//! `par_chunks{,_mut}` / `for_each` / `map` / `reduce` surface as real
//! rayon, executed on a **persistent worker pool** (spawned once, shared by
//! every parallel call through a global [`registry`]) with a shared work
//! queue per call. Swapping the path dependency for the real rayon
//! requires no source changes in the kernels.
//!
//! Two properties the kernels rely on:
//!
//! * **Determinism** — reductions fold partial results in chunk order, so
//!   floating-point results are independent of the number of worker threads
//!   (and identical to a serial fold over the same chunking). Real rayon
//!   does **not** give this for `reduce` (its combine order is a
//!   nondeterministic tree): swapping it in keeps everything correct but
//!   makes chunked floating-point reductions vary by ~1 ulp run to run.
//! * **Inline fallback** — with one available thread (or one chunk) the work
//!   runs on the calling thread with no spawn, so small inputs pay nothing.
//!
//! Like real rayon, a thread waiting for its call to finish **helps**: it
//! executes jobs from the global injector instead of blocking, so nested
//! parallel calls (a batch runner whose instances run parallel kernels)
//! cannot deadlock the fixed-size pool.
//!
//! Thread count comes from `RAYON_NUM_THREADS` when set, else
//! `std::thread::available_parallelism()`; it is latched on first use.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Number of worker threads the pool will use.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// A type-erased unit of work queued on the global injector.
type Job = Box<dyn FnOnce() + Send>;

struct Shared {
    injector: Mutex<VecDeque<Job>>,
    /// Signaled when a job is injected or a call's helper set drains.
    work_available: Condvar,
}

/// The persistent worker pool: `current_num_threads() − 1` daemon threads
/// (the calling thread is always the n-th worker of its own call) pulling
/// type-erased jobs from one global injector queue.
pub struct Registry {
    shared: Arc<Shared>,
    workers: usize,
}

impl Registry {
    /// Number of pool threads (excluding callers).
    pub fn num_pool_threads(&self) -> usize {
        self.workers
    }

    fn inject(&self, job: Job) {
        let mut q = self
            .shared
            .injector
            .lock()
            .expect("rayon-compat: poisoned injector");
        q.push_back(job);
        drop(q);
        self.shared.work_available.notify_all();
    }

    /// Wakes every thread parked on the injector (used by finishing calls
    /// so their waiting caller re-checks its completion condition).
    fn notify(&self) {
        self.shared.work_available.notify_all();
    }

    /// Runs injector jobs until `done()` — the cooperative wait that makes
    /// nested parallel calls safe on a fixed-size pool.
    fn wait_until(&self, done: &dyn Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            let job = {
                let mut q = self
                    .shared
                    .injector
                    .lock()
                    .expect("rayon-compat: poisoned injector");
                match q.pop_front() {
                    Some(job) => Some(job),
                    None => {
                        // Nothing to steal: park until new work arrives or a
                        // helper finishes (timeout guards lost wakeups).
                        let (guard, _) = self
                            .shared
                            .work_available
                            .wait_timeout(q, Duration::from_millis(1))
                            .expect("rayon-compat: poisoned injector");
                        drop(guard);
                        None
                    }
                }
            };
            if let Some(job) = job {
                job();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared
                .injector
                .lock()
                .expect("rayon-compat: poisoned injector");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared
                    .work_available
                    .wait(q)
                    .expect("rayon-compat: poisoned injector");
            }
        };
        job();
    }
}

/// The global worker-pool registry, spawned on first use and reused by
/// every parallel call for the life of the process.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
        });
        // The calling thread always participates in its own call, so the
        // pool only needs n − 1 standing workers.
        let workers = current_num_threads().saturating_sub(1);
        for i in 0..workers {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("rayon-compat-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("rayon-compat: failed to spawn pool worker");
        }
        Registry { shared, workers }
    })
}

/// Shared state of one `run_tasks` call, referenced by its helper jobs.
struct CallState<I, F> {
    queue: Mutex<std::vec::IntoIter<I>>,
    f: F,
    pending_helpers: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<I, F: Fn(I) + Sync> CallState<I, F> {
    /// Drains the item queue on the current thread, trapping panics so
    /// sibling helpers keep the queue moving.
    fn drain(&self) {
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let next = self
                .queue
                .lock()
                .expect("rayon-compat: poisoned queue")
                .next();
            match next {
                Some(item) => (self.f)(item),
                None => break,
            }
        }));
        if let Err(payload) = result {
            let mut slot = self
                .panic
                .lock()
                .expect("rayon-compat: poisoned panic slot");
            slot.get_or_insert(payload);
        }
    }
}

/// Runs `a` and `b`, potentially in parallel on the pool, returning both
/// results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let reg = registry();
    let rb_slot: Mutex<Option<std::thread::Result<RB>>> = Mutex::new(None);
    let done = AtomicUsize::new(0);
    // Erase the borrow lifetimes: `join` only returns after `done` is set,
    // so the references stay valid for the job's whole life.
    let boxed: Box<dyn FnOnce() + Send + '_> = {
        let rb_slot = &rb_slot;
        let done = &done;
        let reg_ref = reg;
        Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(b));
            *rb_slot.lock().expect("rayon-compat: poisoned join slot") = Some(result);
            done.store(1, Ordering::SeqCst);
            reg_ref.notify();
        })
    };
    let job: Job = unsafe {
        std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
            boxed,
        )
    };
    reg.inject(job);
    // Trap a caller-side panic until the injected job is done with its
    // borrows, then propagate it.
    let ra_result = catch_unwind(AssertUnwindSafe(a));
    reg.wait_until(&|| done.load(Ordering::SeqCst) == 1);
    let ra = ra_result.unwrap_or_else(|payload| resume_unwind(payload));
    let rb = rb_slot
        .lock()
        .expect("rayon-compat: poisoned join slot")
        .take()
        .expect("rayon-compat: join slot filled")
        .unwrap_or_else(|payload| resume_unwind(payload));
    (ra, rb)
}

/// Distributes `items` over the persistent worker pool, calling `f` on
/// each.
///
/// Items are pulled from a shared queue so uneven task costs balance; the
/// calling thread participates, and with one worker (or one item)
/// everything runs inline on the caller with no queueing at all.
fn run_tasks<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let workers = current_num_threads().min(items.len());
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let reg = registry();
    let state = CallState {
        queue: Mutex::new(items.into_iter()),
        f,
        pending_helpers: AtomicUsize::new(workers - 1),
        panic: Mutex::new(None),
    };

    // Submit `workers − 1` helper jobs; each drains the shared queue, then
    // reports in. Lifetimes are erased: this call only returns once every
    // helper has finished, so `state` outlives every job.
    for _ in 0..workers - 1 {
        let boxed: Box<dyn FnOnce() + Send + '_> = {
            let state = &state;
            let reg_ref = reg;
            Box::new(move || {
                state.drain();
                state.pending_helpers.fetch_sub(1, Ordering::SeqCst);
                reg_ref.notify();
            })
        };
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
                boxed,
            )
        };
        reg.inject(job);
    }

    // The caller is the last worker of its own call, then helps the pool
    // until its helpers are done (they may still be queued behind other
    // calls' jobs — executing those here is what prevents deadlock under
    // nesting).
    state.drain();
    reg.wait_until(&|| state.pending_helpers.load(Ordering::SeqCst) == 0);

    let payload = state
        .panic
        .lock()
        .expect("rayon-compat: poisoned panic slot")
        .take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Like [`run_tasks`] but collects one result per item, **in item order**.
fn run_tasks_collect<I, U, F>(items: Vec<I>, f: F) -> Vec<U>
where
    I: Send,
    U: Send,
    F: Fn(I) -> U + Sync,
{
    let indexed: Vec<(usize, I)> = items.into_iter().enumerate().collect();
    let n = indexed.len();
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = Mutex::new(&mut out);
    run_tasks(indexed, |(i, item)| {
        let u = f(item);
        slots.lock().expect("rayon-compat: poisoned slots")[i] = Some(u);
    });
    out.into_iter()
        .map(|s| s.expect("rayon-compat: missing task result"))
        .collect()
}

/// Parallel view over disjoint mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Calls `f` on every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        run_tasks(self.slice.chunks_mut(self.chunk).collect(), f);
    }

    /// Pairs every chunk with its index.
    pub fn enumerate(self) -> ParEnumChunksMut<'a, T> {
        ParEnumChunksMut {
            slice: self.slice,
            chunk: self.chunk,
        }
    }

    /// Zips with another chunked view; both sides must produce the same
    /// number of chunks.
    pub fn zip(self, other: ParChunksMut<'a, T>) -> ParZipChunksMut<'a, T> {
        ParZipChunksMut { a: self, b: other }
    }
}

/// [`ParChunksMut`] with chunk indices attached.
pub struct ParEnumChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParEnumChunksMut<'a, T> {
    /// Calls `f` on every `(chunk_index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let items: Vec<(usize, &mut [T])> = self.slice.chunks_mut(self.chunk).enumerate().collect();
        run_tasks(items, f);
    }
}

/// Two zipped [`ParChunksMut`] views processed in lock step.
pub struct ParZipChunksMut<'a, T> {
    a: ParChunksMut<'a, T>,
    b: ParChunksMut<'a, T>,
}

impl<'a, T: Send> ParZipChunksMut<'a, T> {
    /// Calls `f` on every pair of corresponding chunks.
    ///
    /// # Panics
    ///
    /// Panics if the two sides produce different chunk counts.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((&mut [T], &mut [T])) + Sync,
    {
        let lhs: Vec<&mut [T]> = self.a.slice.chunks_mut(self.a.chunk).collect();
        let rhs: Vec<&mut [T]> = self.b.slice.chunks_mut(self.b.chunk).collect();
        assert_eq!(
            lhs.len(),
            rhs.len(),
            "rayon-compat: zipped chunk counts differ"
        );
        let items: Vec<(&mut [T], &mut [T])> = lhs.into_iter().zip(rhs).collect();
        run_tasks(items, f);
    }
}

/// Parallel view over immutable chunks of a slice.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Maps every chunk through `f`.
    pub fn map<U, F>(self, f: F) -> ParMapChunks<'a, T, F>
    where
        F: Fn(&[T]) -> U + Sync,
        U: Send,
    {
        ParMapChunks {
            slice: self.slice,
            chunk: self.chunk,
            f,
        }
    }
}

/// Result of [`ParChunks::map`], ready to be reduced.
pub struct ParMapChunks<'a, T, F> {
    slice: &'a [T],
    chunk: usize,
    f: F,
}

impl<'a, T, U, F> ParMapChunks<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    /// Folds the mapped chunks with `op`, starting from `identity()`.
    ///
    /// Partial results are combined in chunk order, so the outcome does not
    /// depend on the number of worker threads.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> U
    where
        ID: Fn() -> U,
        OP: Fn(U, U) -> U,
    {
        let parts = run_tasks_collect(self.slice.chunks(self.chunk).collect(), &self.f);
        parts.into_iter().fold(identity(), op)
    }
}

/// Extension traits, mirroring `rayon::prelude`.
pub mod prelude {
    use super::{ParChunks, ParChunksMut};

    /// Parallel chunking of shared slices.
    pub trait ParallelSlice<T: Sync> {
        /// Splits into chunks of at most `chunk` elements for parallel
        /// processing.
        fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
            assert!(chunk > 0, "par_chunks: chunk size must be positive");
            ParChunks { slice: self, chunk }
        }
    }

    /// Parallel chunking of mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Splits into disjoint mutable chunks of at most `chunk` elements
        /// for parallel processing.
        fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
            assert!(chunk > 0, "par_chunks_mut: chunk size must be positive");
            ParChunksMut { slice: self, chunk }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn for_each_touches_every_chunk() {
        let mut data: Vec<u64> = (0..10_000).collect();
        data.par_chunks_mut(97).for_each(|c| {
            for x in c.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn enumerate_sees_correct_indices() {
        let mut data = vec![0usize; 1000];
        data.par_chunks_mut(64).enumerate().for_each(|(ci, c)| {
            for x in c.iter_mut() {
                *x = ci;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i / 64);
        }
    }

    #[test]
    fn zip_processes_pairs() {
        let mut a = vec![1.0f64; 512];
        let mut b = vec![2.0f64; 512];
        a.par_chunks_mut(100)
            .zip(b.par_chunks_mut(100))
            .for_each(|(ca, cb)| {
                for (x, y) in ca.iter_mut().zip(cb.iter_mut()) {
                    std::mem::swap(x, y);
                }
            });
        assert!(a.iter().all(|&x| x == 2.0));
        assert!(b.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn reduce_is_chunk_ordered_and_correct() {
        let data: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let sum = data
            .par_chunks(123)
            .map(|c| c.iter().sum::<f64>())
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(sum, (0..5000).map(|i| i as f64).sum::<f64>());
        let max = data
            .par_chunks(123)
            .map(|c| c.iter().cloned().fold(f64::MIN, f64::max))
            .reduce(|| f64::MIN, f64::max);
        assert_eq!(max, 4999.0);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn empty_input_is_fine() {
        let mut data: Vec<u8> = Vec::new();
        data.par_chunks_mut(8).for_each(|_| unreachable!());
    }

    #[test]
    fn pool_threads_are_persistent_across_calls() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;
        // The registry is a single global instance, and its workers are
        // long-lived named threads — every non-caller thread observed
        // running our tasks must be one of them. (Counting *distinct* ids
        // would be flaky: other concurrently running tests' callers can
        // legitimately steal our jobs while they wait on their own.)
        assert!(std::ptr::eq(registry(), registry()), "one global registry");
        let pooled = registry().num_pool_threads() > 0;
        let names = Mutex::new(HashSet::new());
        let pool_ran = AtomicBool::new(false);
        // At least four calls; with a pool, more until a pool worker has
        // run a task or 30 s have passed.
        let started = Instant::now();
        let mut calls = 0;
        while calls < 4
            || (pooled
                && !pool_ran.load(Ordering::SeqCst)
                && started.elapsed() < Duration::from_secs(30))
        {
            calls += 1;
            // A task on any other thread holds that thread until a pool
            // worker has run a task, so the caller cannot drain the queue
            // alone. The hold is bounded per call: another test's waiting
            // caller may have taken this call's only helper job, and the
            // next call then injects a fresh one.
            let deadline = Instant::now() + Duration::from_millis(250);
            let mut data = vec![0u8; 4096];
            data.par_chunks_mut(64).for_each(|_| {
                let name = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_default();
                if name.starts_with("rayon-compat-") {
                    pool_ran.store(true, Ordering::SeqCst);
                } else if pooled {
                    while !pool_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                names.lock().unwrap().insert(name);
            });
        }
        if pooled {
            // With standing workers available, at least one task of these
            // calls must have run on a persistent pool thread.
            let names = names.lock().unwrap();
            assert!(
                names.iter().any(|n| n.starts_with("rayon-compat-")),
                "no pool thread ever ran a task: {names:?}"
            );
        }
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // A parallel call whose tasks run parallel calls themselves: on a
        // fixed-size pool this deadlocks unless waiting threads help. The
        // shape mirrors `Pipeline::run_many` (outer) over parallel kernels
        // (inner).
        let mut outer: Vec<u64> = vec![0; 64];
        outer.par_chunks_mut(4).for_each(|chunk| {
            for slot in chunk.iter_mut() {
                let inner: Vec<u64> = (0..512).collect();
                *slot = inner
                    .par_chunks(32)
                    .map(|c| c.iter().sum::<u64>())
                    .reduce(|| 0, |a, b| a + b);
            }
        });
        let expect: u64 = (0..512).sum();
        assert!(outer.iter().all(|&x| x == expect));
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            let data: Vec<usize> = (0..1000).collect();
            let _ = data
                .par_chunks(10)
                .map(|c| {
                    if c[0] == 500 {
                        panic!("boom in worker");
                    }
                    c[0]
                })
                .reduce(|| 0, |a, b| a + b);
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn join_propagates_b_panic() {
        let result = std::panic::catch_unwind(|| {
            join(|| 1, || -> usize { panic!("boom in join") });
        });
        assert!(result.is_err());
    }
}
