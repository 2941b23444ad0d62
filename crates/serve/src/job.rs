//! The job subsystem: a bounded, backpressure-aware submission queue and
//! a worker pool executing sweeps through the existing batch runner.
//!
//! Each accepted submission becomes a [`Job`]. Cache hits are born
//! `done` — the simulator is never invoked for them. Misses wait in a
//! bounded FIFO (a full queue rejects the submission, which the HTTP
//! layer turns into `429` + `Retry-After`); pool workers pull jobs and
//! execute them with [`SweepRunner::run_with_progress`], so each grid
//! point's completed rows land in the job's row buffer the moment its
//! repetition batch finishes (repetitions themselves fan across the
//! process-wide rayon pool exactly as in a local run — which is why
//! served results are bit-identical to local ones). Streams and status
//! polls observe the buffer through a condvar.

use crate::cache::{CachedResult, ResultCache};
use qsc_bench::{ExperimentSpec, Progress, Scale, SweepRunner};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the sweep.
    Running,
    /// Finished; the result is available.
    Done,
    /// The sweep failed as a whole (spec inconsistency, worker panic).
    Failed,
}

impl Phase {
    /// The wire name of the phase.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
        }
    }
}

/// Mutable state of a job, guarded by its mutex.
#[derive(Debug, Default)]
struct JobInner {
    phase: Option<Phase>,
    columns: Option<Vec<String>>,
    rows: Vec<Vec<String>>,
    result: Option<CachedResult>,
    error: Option<String>,
}

/// One submission: identity, content address, and observable progress.
#[derive(Debug)]
pub struct Job {
    /// Service-unique id (`job-<n>`).
    pub id: String,
    /// The content address of the result (hex SHA-256).
    pub key: String,
    /// The scale preset the sweep runs at.
    pub scale: Scale,
    /// Whether the result was served from the cache at submission.
    pub cache_hit: bool,
    /// The validated spec (misses only need it, hits keep it for
    /// inspection).
    pub spec: ExperimentSpec,
    inner: Mutex<JobInner>,
    progress: Condvar,
}

/// A point-in-time copy of a job's observable state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Current phase.
    pub phase: Phase,
    /// Rows of the primary table completed so far.
    pub rows_done: usize,
    /// The failure message of a `failed` job.
    pub error: Option<String>,
    /// The finished result of a `done` job.
    pub result: Option<CachedResult>,
}

impl Job {
    fn new(
        id: String,
        key: String,
        scale: Scale,
        spec: ExperimentSpec,
        hit: Option<CachedResult>,
    ) -> Arc<Job> {
        let cache_hit = hit.is_some();
        let inner = match hit {
            Some(result) => JobInner {
                phase: Some(Phase::Done),
                columns: Some(result.table.columns().to_vec()),
                rows: result.table.rows().to_vec(),
                result: Some(result),
                error: None,
            },
            None => JobInner {
                phase: Some(Phase::Queued),
                ..JobInner::default()
            },
        };
        Arc::new(Job {
            id,
            key,
            scale,
            cache_hit,
            spec,
            inner: Mutex::new(inner),
            progress: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, JobInner> {
        // A poisoned mutex means a holder panicked mid-update; the state
        // is still structurally sound (Vec pushes are atomic enough for
        // observation), so keep serving rather than wedging the service.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A copy of the job's current observable state.
    pub fn snapshot(&self) -> JobSnapshot {
        let inner = self.lock();
        JobSnapshot {
            phase: inner.phase.unwrap_or(Phase::Queued),
            rows_done: inner.rows.len(),
            error: inner.error.clone(),
            result: inner.result.clone(),
        }
    }

    /// Blocks until the primary table's columns are known; `None` if the
    /// job reached a terminal phase without any (a spec-level failure).
    pub fn wait_columns(&self) -> Option<Vec<String>> {
        let mut inner = self.lock();
        loop {
            if let Some(columns) = &inner.columns {
                return Some(columns.clone());
            }
            if matches!(inner.phase, Some(Phase::Done | Phase::Failed)) {
                return None;
            }
            inner = self.progress.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until rows beyond `from` exist or the job is terminal.
    /// Returns the new rows and whether the job is finished.
    pub fn wait_rows(&self, from: usize) -> (Vec<Vec<String>>, bool) {
        let mut inner = self.lock();
        loop {
            let terminal = matches!(inner.phase, Some(Phase::Done | Phase::Failed));
            if inner.rows.len() > from || terminal {
                return (inner.rows[from.min(inner.rows.len())..].to_vec(), terminal);
            }
            inner = self.progress.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn set_phase(&self, phase: Phase) {
        self.lock().phase = Some(phase);
        self.progress.notify_all();
    }

    fn finish_ok(&self, result: CachedResult) {
        {
            let mut inner = self.lock();
            inner.result = Some(result);
            inner.phase = Some(Phase::Done);
        }
        self.progress.notify_all();
    }

    fn finish_err(&self, message: String) {
        {
            let mut inner = self.lock();
            inner.error = Some(message);
            inner.phase = Some(Phase::Failed);
        }
        self.progress.notify_all();
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full — retry after the given delay.
    QueueFull {
        /// Suggested client back-off, in seconds (`Retry-After`).
        retry_after_s: u64,
    },
}

struct Shared {
    queue: Mutex<Vec<Arc<Job>>>,
    available: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    /// Executor fleet the workers fan grid points across; empty = local.
    executors: Vec<String>,
}

/// The queue + worker pool + job registry.
pub struct JobSystem {
    shared: Arc<Shared>,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    queue_capacity: usize,
    next_id: AtomicU64,
}

impl JobSystem {
    /// Starts `workers` pool threads over a bounded queue of
    /// `queue_capacity` pending jobs, with sweeps fanning their grid points
    /// across the `executors` fleet (`host:port` addresses, round-robin
    /// with retry-elsewhere). An empty fleet runs sweeps locally. Zero
    /// workers is legal (useful to test backpressure: nothing ever drains).
    pub fn start_with_fleet(
        cache: ResultCache,
        workers: usize,
        queue_capacity: usize,
        executors: Vec<String>,
    ) -> Arc<JobSystem> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache,
            executors,
        });
        let system = Arc::new(JobSystem {
            shared: shared.clone(),
            jobs: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            queue_capacity,
            next_id: AtomicU64::new(1),
        });
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                match std::thread::Builder::new()
                    .name(format!("qsc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                {
                    Ok(handle) => handle,
                    Err(e) => panic!("spawn worker thread: {e}"),
                }
            })
            .collect();
        *system.workers.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        system
    }

    /// Accepts a submission: a cache hit becomes a `done` job instantly
    /// (no queue, no simulator); a miss takes a queue slot.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when the bounded queue has no
    /// free slot.
    pub fn submit(
        &self,
        spec: ExperimentSpec,
        key: String,
        scale: Scale,
    ) -> Result<Arc<Job>, SubmitError> {
        let hit = self.shared.cache.lookup(&key);
        let cache_hit = hit.is_some();
        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let job = Job::new(id.clone(), key, scale, spec, hit);
        if !cache_hit {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if queue.len() >= self.queue_capacity {
                return Err(SubmitError::QueueFull { retry_after_s: 1 });
            }
            queue.push(job.clone());
            self.shared.available.notify_one();
        }
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, job.clone());
        Ok(job)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id)
            .cloned()
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Stops the worker pool (idempotent). Queued jobs stay queued;
    /// running jobs finish.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for JobSystem {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !queue.is_empty() {
                    break queue.remove(0);
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        execute(shared, &job);
    }
}

/// Runs one job to completion: sweep → row buffer → cache → `done`.
fn execute(shared: &Shared, job: &Arc<Job>) {
    job.set_phase(Phase::Running);
    let runner = SweepRunner::new(job.scale).with_fleet(shared.executors.iter().cloned());
    // The batch runner already confines per-repetition panics; this
    // outer guard confines anything else (spec-level logic) to the job.
    let run = catch_unwind(AssertUnwindSafe(|| {
        runner.run_with_progress(&job.spec, &mut |event| match event {
            Progress::Columns(columns) => {
                job.lock().columns = Some(columns.to_vec());
                job.progress.notify_all();
            }
            Progress::Row { cells, .. } => {
                job.lock().rows.push(cells.to_vec());
                job.progress.notify_all();
            }
        })
    }));
    match run {
        Ok(Ok(output)) => {
            let result = CachedResult {
                name: output.name,
                title: output.title,
                table: output.primary,
                notes: output.notes,
                sinks: output.sinks,
            };
            if let Err(e) = shared.cache.store(&job.key, &result) {
                // A failed store only loses reuse, never the result.
                eprintln!("qsc-serve: cache store for {} failed: {e}", job.key);
            }
            job.finish_ok(result);
        }
        Ok(Err(e)) => job.finish_err(e.to_string()),
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            job.finish_err(format!("panic: {message}"));
        }
    }
}

/// Aggregated `failed(<kind>)` cell counts of a result table — the
/// status endpoint's per-cell failure summary (kinds are the PR 6
/// failure taxonomy, rendered by the sweep engine).
pub fn failed_cell_kinds(rows: &[Vec<String>]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for cell in rows.iter().flatten() {
        let Some(kind) = cell
            .strip_prefix("failed(")
            .and_then(|rest| rest.strip_suffix(')'))
        else {
            continue;
        };
        match counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind.to_string(), 1)),
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_cells_aggregate_by_kind() {
        let rows = vec![
            vec!["64".into(), "failed(budget)".into(), "0.91".into()],
            vec![
                "128".into(),
                "failed(budget)".into(),
                "failed(panic)".into(),
            ],
            vec!["256".into(), "1/3".into(), "ok".into()],
        ];
        assert_eq!(
            failed_cell_kinds(&rows),
            vec![("budget".to_string(), 2), ("panic".to_string(), 1)]
        );
        assert!(failed_cell_kinds(&[]).is_empty());
    }
}
