//! The executor: one fair queue and one set of threads for every job.
//!
//! Every wire request runs as one job on this pool, queued under its
//! session's key ([`crate::sched::FairQueue`]), so one session fanning a
//! 64-cell grid does not queue ahead of every other session's single
//! command. Jobs come in two classes:
//!
//! * **compute** ([`JobClass::Compute`]) — CPU-bound searches. They run
//!   only on the pool's `workers` compute threads, so N clients cannot
//!   oversubscribe the host N-fold, and the memory a search touches stays
//!   on those threads (letting every thread compute raised peak RSS by a
//!   third on the stream re-audit workload). Admission refuses a new
//!   compute job once `workers + queue_depth` are in flight, queued or
//!   running: `queue_depth` pending jobs while every compute thread is
//!   busy, and a thread between jobs does not shrink the budget.
//! * **light** ([`JobClass::Light`]) — everything else. Light jobs run on
//!   any thread, and the pool runs [`LIGHT_THREADS`] threads that never
//!   take compute, so a light command never waits for compute to finish.
//!
//! No job blocks on another job: a scenario plan's cells are queued as
//! compute jobs by the job that compiled the plan, and the last cell to
//! finish runs the reduce. The pool has no blocking submission.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sched::FairQueue;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Admission refused: the pending queue (global or the tag's own slice of
/// it) or the compute in flight is full, or the pool is closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull;

/// Whether a job needs one of the pool's compute threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// CPU-bound: runs only on a compute thread.
    Compute,
    /// Runs on any free thread.
    Light,
}

/// Threads the pool runs beyond its compute threads, so light jobs find
/// a free thread while every compute thread is busy.
pub const LIGHT_THREADS: usize = 2;

/// Jobs pending across all tags before further submissions are refused:
/// a memory bound, not a throughput knob (each connection holds at most
/// one request in flight).
const QUEUE_CAP: usize = 4096;

/// One compute job's place in the pool's in-flight count, released on
/// drop. A job drops it once its compute is done, before it delivers a
/// reply, so a client never finds its own answered request still counted.
pub(crate) struct ComputePermit(Arc<AtomicUsize>);

impl Drop for ComputePermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A fixed set of threads consuming one bounded, per-tag-fair job queue.
pub struct WorkerPool {
    queue: Arc<FairQueue<Job>>,
    /// Compute jobs in flight, admitted up to `compute_cap`.
    in_flight: Arc<AtomicUsize>,
    compute_cap: usize,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// A handle that queues follow-up compute jobs on a pool. A job holds it
/// instead of the pool itself, so a job never keeps the pool alive.
pub(crate) struct Spawner(Arc<FairQueue<Job>>, Arc<AtomicUsize>);

impl Spawner {
    /// Queues a compute job under `tag` past every cap: follow-up work of
    /// an admitted request is never refused and never waits for space
    /// (it is counted in flight all the same). Only a closing pool drops
    /// it (the job is then never run).
    pub(crate) fn spawn_compute(
        &self,
        tag: &str,
        job: impl FnOnce(ComputePermit) + Send + 'static,
    ) {
        self.1.fetch_add(1, Ordering::AcqRel);
        let permit = ComputePermit(Arc::clone(&self.1));
        let _ = self
            .0
            .push_metered_uncapped(tag, Box::new(move || job(permit)));
    }
}

impl WorkerPool {
    /// A pool of `workers` compute threads, refusing new compute jobs once
    /// `workers + queue_depth` are in flight (both floored at 1), with no
    /// per-tag cap.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        Self::with_caps(workers, queue_depth, 0)
    }

    /// Like [`WorkerPool::new`] plus a per-tag pending-job cap
    /// (`session_queue_cap`; 0 = unbounded per tag). Submissions against
    /// a tag at its cap are refused with [`PoolFull`] even while the
    /// global queue has room — one session cannot consume the whole
    /// backlog budget.
    pub fn with_caps(workers: usize, queue_depth: usize, session_queue_cap: usize) -> Self {
        let workers = workers.max(1);
        let queue = Arc::new(FairQueue::new(QUEUE_CAP, session_queue_cap));
        let threads = (0..workers + LIGHT_THREADS)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let computes = i < workers;
                let name = if computes {
                    format!("fairank-worker-{i}")
                } else {
                    format!("fairank-light-{}", i - workers)
                };
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        while let Some(job) = queue.pop_for(computes) {
                            // Contain job panics: the thread must outlive
                            // any single request.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            queue,
            in_flight: Arc::default(),
            compute_cap: workers + queue_depth.max(1),
            threads,
            workers,
        }
    }

    /// The host-sized worker count: one per available core, minus one for
    /// the event-loop/accept threads.
    pub fn default_workers() -> usize {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2);
        cores.saturating_sub(1).max(1)
    }

    /// A pool sized to the host ([`WorkerPool::default_workers`]), queue
    /// twice as deep.
    pub fn sized_for_host() -> Self {
        let workers = Self::default_workers();
        WorkerPool::new(workers, workers * 2)
    }

    /// Number of compute threads (at most this many compute jobs run at
    /// once).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queues `job` under `tag` without blocking, or refuses it with
    /// [`PoolFull`] when the queue (global or the tag's cap) is full or,
    /// for a compute job, `workers + queue_depth` are in flight — until
    /// they return. The refusal is the server's backpressure signal — the
    /// dispatch layer turns it into a structured `overloaded` reply. A
    /// panicking job is contained; the job reports its own outcome.
    pub fn submit(
        &self,
        tag: &str,
        class: JobClass,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), PoolFull> {
        self.submit_with_permit(tag, class, move |_permit| job())
    }

    /// [`WorkerPool::submit`] for a job that drops its compute permit
    /// (`None` for a light job) itself, e.g. before it delivers a reply.
    pub(crate) fn submit_with_permit(
        &self,
        tag: &str,
        class: JobClass,
        job: impl FnOnce(Option<ComputePermit>) + Send + 'static,
    ) -> Result<(), PoolFull> {
        let pushed = match class {
            JobClass::Compute => {
                let cap = self.compute_cap;
                self.in_flight
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n < cap).then_some(n + 1)
                    })
                    .map_err(|_| PoolFull)?;
                let permit = ComputePermit(Arc::clone(&self.in_flight));
                self.queue
                    .try_push_metered(tag, Box::new(move || job(Some(permit))))
            }
            JobClass::Light => self.queue.try_push(tag, Box::new(move || job(None))),
        };
        // A refused job comes back and drops here, its permit with it.
        pushed.map_err(|_| PoolFull)
    }

    /// The handle jobs use to queue follow-up compute work.
    pub(crate) fn spawner(&self) -> Spawner {
        Spawner(Arc::clone(&self.queue), Arc::clone(&self.in_flight))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue wakes every idle thread; already-accepted
        // jobs still drain first (their submitters may wait on results).
        self.queue.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Submits `job` and waits for its result (`None` if it panicked).
    fn run<T: Send + 'static>(
        pool: &WorkerPool,
        tag: &str,
        class: JobClass,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        pool.submit(tag, class, move || {
            let _ = tx.send(job());
        })
        .expect("job admitted");
        rx.recv().ok()
    }

    /// Submits a compute job that signals `started` and then holds its
    /// compute thread until `release` fires.
    fn park(pool: &WorkerPool, tag: &str) -> mpsc::Sender<()> {
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(tag, JobClass::Compute, move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
        })
        .expect("parking job admitted");
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("parking job started");
        release_tx
    }

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = WorkerPool::new(2, 4);
        assert_eq!(pool.workers(), 2);
        assert_eq!(run(&pool, "", JobClass::Compute, || 40 + 2), Some(42));
        let s = run(&pool, "", JobClass::Light, || "hello".to_string());
        assert_eq!(s.as_deref(), Some("hello"));
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = WorkerPool::new(1, 2);
        // More panics than the pool has threads: surviving them is
        // observable, since the next job must still run.
        for round in 0..=(1 + LIGHT_THREADS) as i32 {
            let class = if round % 2 == 0 {
                JobClass::Compute
            } else {
                JobClass::Light
            };
            assert_eq!(run(&pool, "", class, || panic!("job blew up")), None::<i32>);
            assert_eq!(run(&pool, "", class, move || round), Some(round));
        }
    }

    #[test]
    fn bounds_concurrent_execution() {
        let pool = WorkerPool::new(2, 8);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for i in 0..8 {
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            let done_tx = done_tx.clone();
            let job = move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
                let _ = done_tx.send(());
            };
            pool.submit(&format!("s{i}"), JobClass::Compute, job)
                .expect("8 pending compute jobs fit a depth of 8");
        }
        for _ in 0..8 {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("job ran");
        }
        // Never more compute jobs in flight than compute threads,
        // although the pool runs more threads than that.
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn light_jobs_run_while_every_compute_thread_is_busy() {
        let pool = WorkerPool::new(1, 1);
        let release = park(&pool, "heavy");
        // The lone compute thread is busy; one more compute job may
        // wait...
        let (compute_tx, compute_rx) = mpsc::channel::<()>();
        pool.submit("queued", JobClass::Compute, move || {
            let _ = compute_tx.send(());
        })
        .expect("one pending compute job fits the depth");
        // ...a second one is refused at the depth...
        assert_eq!(
            pool.submit("refused", JobClass::Compute, || {}),
            Err(PoolFull)
        );
        // ...while a light job still runs at once.
        let (light_tx, light_rx) = mpsc::channel::<()>();
        pool.submit("light", JobClass::Light, move || {
            let _ = light_tx.send(());
        })
        .expect("light jobs are not bounded by the compute depth");
        light_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a light job waited behind busy compute threads");
        assert!(
            compute_rx.try_recv().is_err(),
            "a compute job ran off the compute thread"
        );
        release.send(()).unwrap();
        compute_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the queued compute job ran once the compute thread was free");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3, 3);
        assert_eq!(run(&pool, "", JobClass::Compute, || 1), Some(1));
        drop(pool); // must not hang
    }

    #[test]
    fn host_sizing_is_sane() {
        let pool = WorkerPool::sized_for_host();
        assert!(pool.workers() >= 1);
    }

    #[test]
    fn sessions_share_the_single_worker_round_robin() {
        // One compute thread, session "a" floods it with 4 compute jobs, then
        // session "b" submits one while a's first job is still running.
        // Round-robin draining must interleave b's job right after a's
        // next one instead of parking it behind the whole batch (the old
        // FIFO behavior).
        let pool = WorkerPool::new(1, 16);
        let completions: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let record = |name: String| {
            let completions = Arc::clone(&completions);
            let done_tx = done_tx.clone();
            move || {
                completions.lock().unwrap().push(name);
                let _ = done_tx.send(());
            }
        };
        // Park the compute thread on a's first job until the competing session
        // is staged.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let a0 = record("a0".into());
        pool.submit("a", JobClass::Compute, move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
            a0();
        })
        .unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("first batch job started");
        for i in 1..4 {
            pool.submit("a", JobClass::Compute, record(format!("a{i}")))
                .unwrap();
        }
        pool.submit("b", JobClass::Compute, record("b0".into()))
            .unwrap();
        release_tx.send(()).unwrap();
        for _ in 0..5 {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("job ran");
        }

        let order = completions.lock().unwrap().clone();
        let pos = |name: &str| order.iter().position(|c| c == name).unwrap();
        // Round-robin: after the parked a0 finishes, the thread alternates
        // a,b — so b0 lands second or third, never behind the whole batch.
        assert!(
            pos("b0") <= 2,
            "session b's single job waited out session a's whole batch: {order:?}"
        );
        assert!(pos("b0") < pos("a3"), "no interleaving happened: {order:?}");
    }

    #[test]
    fn per_session_queue_cap_refuses_the_flooding_session_only() {
        let pool = WorkerPool::with_caps(1, 16, 1);
        // Park the lone compute thread on an unrelated tag so submissions
        // queue.
        let release = park(&pool, "parked");
        // One pending job per session fits the cap...
        let (a_tx, a_rx) = mpsc::channel::<i32>();
        pool.submit("a", JobClass::Compute, move || {
            let _ = a_tx.send(1);
        })
        .expect("the first pending job of a session fits");
        // ...a second pending job for the same session is refused...
        assert_eq!(pool.submit("a", JobClass::Compute, || {}), Err(PoolFull));
        // ...while another session still gets in (global queue has room).
        let (b_tx, b_rx) = mpsc::channel::<i32>();
        pool.submit("b", JobClass::Compute, move || {
            let _ = b_tx.send(2);
        })
        .expect("another session is not capped by a's backlog");
        release.send(()).unwrap();
        assert_eq!(a_rx.recv_timeout(Duration::from_secs(10)), Ok(1));
        assert_eq!(b_rx.recv_timeout(Duration::from_secs(10)), Ok(2));
    }
}
