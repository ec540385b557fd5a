//! The daemon's job queue: a priority heap implementing the engine's
//! [`JobSource`], so the same worker pool that drains fixed corpora
//! drives the live service.
//!
//! Ordering is `(priority desc, submission id)`: higher-priority jobs
//! always run first, and within a priority class jobs pop in submission
//! order, so no job waits behind work submitted after it.
//!
//! `next` blocks idle workers on a condvar until a job arrives or the
//! queue is closed. Closing wakes everyone: running jobs finish, still
//! queued jobs are dropped (the daemon is shutting down — clients watching
//! them observe the connection close).

use nqpv_engine::{Job, JobSource, SourcedJob};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct Entry {
    priority: i64,
    seq: usize,
    job: Job,
    /// When the job entered the heap; the queue-wait observation spans
    /// push → pop, not reservation (reservation is admission control,
    /// not waiting).
    queued_at: Instant,
    /// The same instant on the wall clock (epoch µs), handed to the
    /// worker so the job's own trace carries its `queue_wait` span.
    queued_wall_us: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    /// `BinaryHeap` is a max-heap: "greater" pops first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Default)]
struct Inner {
    heap: BinaryHeap<Entry>,
    closed: bool,
    /// Ids handed out by [`JobQueue::try_reserve_batch`] whose jobs have
    /// not landed in the heap yet — counted against the capacity bound so
    /// concurrent submitters cannot jointly overshoot it.
    reserved: usize,
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Jobs waiting in the queue at refusal time.
    pub queued: usize,
    /// The configured bound.
    pub max_queue: usize,
}

/// A thread-safe, blocking priority queue of verification jobs, with an
/// optional admission bound (`max_queue`): submissions that would push
/// the backlog past the bound are refused atomically instead of growing
/// the heap without limit — the daemon's backpressure seam.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    next_id: AtomicU64,
    cap: Option<usize>,
}

impl Default for JobQueue {
    fn default() -> Self {
        JobQueue::new()
    }
}

impl JobQueue {
    /// An empty, open, unbounded queue.
    pub fn new() -> Self {
        JobQueue::with_capacity(None)
    }

    /// An empty, open queue admitting at most `cap` queued jobs
    /// (`None` = unbounded). Running jobs do not count — the bound
    /// governs the backlog, not the pool.
    pub fn with_capacity(cap: Option<usize>) -> Self {
        JobQueue {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            next_id: AtomicU64::new(0),
            cap,
        }
    }

    /// The configured admission bound.
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Allocates the id a job *will* get, before it becomes visible to
    /// workers — callers use this to register event subscriptions ahead
    /// of [`JobQueue::push_reserved`], so no lifecycle event can race
    /// past the subscription. Bypasses the admission bound (single-job
    /// legacy path); bounded submitters use
    /// [`JobQueue::try_reserve_batch`].
    pub fn reserve(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .reserved += 1;
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Atomically admits a whole submission of `k` jobs against the
    /// capacity bound and allocates their ids. All-or-nothing: a corpus
    /// that does not fit is refused outright rather than truncated
    /// mid-stream.
    ///
    /// # Errors
    ///
    /// [`Overloaded`] when `queued + reserved + k` would exceed the bound.
    pub fn try_reserve_batch(&self, k: usize) -> Result<Vec<u64>, Overloaded> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cap) = self.cap {
            let queued = inner.heap.len() + inner.reserved;
            if queued + k > cap {
                return Err(Overloaded {
                    queued,
                    max_queue: cap,
                });
            }
        }
        inner.reserved += k;
        Ok((0..k)
            .map(|_| self.next_id.fetch_add(1, Ordering::Relaxed))
            .collect())
    }

    /// Enqueues `job` under a previously [`reserve`](JobQueue::reserve)d
    /// (or [`try_reserve_batch`](JobQueue::try_reserve_batch)-admitted)
    /// id. Returns `false` (job dropped) once the queue is closed.
    pub fn push_reserved(&self, id: u64, job: Job, priority: i64) -> bool {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.reserved = inner.reserved.saturating_sub(1);
            if inner.closed {
                return false;
            }
            inner.heap.push(Entry {
                priority,
                seq: id as usize,
                job,
                queued_at: Instant::now(),
                queued_wall_us: nqpv_telemetry::wall_clock_us(),
            });
        }
        self.ready.notify_one();
        true
    }

    /// Enqueues `job` at `priority`, returning its id (also the `seq`
    /// reported by the pool). Jobs pushed after [`JobQueue::close`] are
    /// rejected with `None`.
    pub fn push(&self, job: Job, priority: i64) -> Option<u64> {
        let id = self.reserve();
        self.push_reserved(id, job, priority).then_some(id)
    }

    /// Number of jobs currently waiting.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .heap
            .len()
    }

    /// `true` when no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Waiting jobs per priority class, highest priority first — the
    /// `stats` event's `depths` member and the daemon's per-priority
    /// queue-depth gauges. O(backlog) under the lock; stats requests and
    /// metrics scrapes are rare next to pops.
    pub fn depth_by_priority(&self) -> Vec<(i64, u64)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut depths = std::collections::BTreeMap::new();
        for entry in inner.heap.iter() {
            *depths.entry(entry.priority).or_insert(0u64) += 1;
        }
        depths.into_iter().rev().collect()
    }

    /// Removes the given still-queued job ids from the backlog, returning
    /// how many were actually removed (running jobs are untouched — they
    /// finish and publish normally). The daemon uses this to cancel jobs
    /// whose submitting connection dropped before a worker picked them
    /// up: nobody is left to read the verdicts, so solving them would
    /// only starve live clients.
    pub fn cancel(&self, ids: &[u64]) -> usize {
        if ids.is_empty() {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let before = inner.heap.len();
        inner.heap = std::mem::take(&mut inner.heap)
            .into_iter()
            .filter(|e| !ids.contains(&(e.seq as u64)))
            .collect();
        before - inner.heap.len()
    }

    /// Closes the queue: the backlog is discarded immediately, waiting
    /// workers wake and retire, and workers finishing their current job
    /// retire on their next pull — shutdown latency is one in-flight job,
    /// not the whole backlog.
    pub fn close(&self) {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.closed = true;
            inner.heap.clear();
            inner.reserved = 0;
        }
        self.ready.notify_all();
    }
}

impl JobSource for JobQueue {
    fn next(&self, _worker: usize) -> Option<SourcedJob> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if inner.closed {
                return None;
            }
            if let Some(entry) = inner.heap.pop() {
                nqpv_telemetry::global()
                    .histogram(
                        "nqpv_queue_wait_seconds",
                        "Time jobs spend queued before a worker picks them up.",
                        &[],
                        &nqpv_telemetry::DEFAULT_LATENCY_BOUNDS,
                    )
                    .observe(entry.queued_at.elapsed().as_secs_f64());
                return Some(SourcedJob {
                    seq: entry.seq,
                    job: entry.job,
                    queued_wall_us: entry.queued_wall_us,
                });
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn job(name: &str, source: &str) -> Job {
        Job::new(name, None, source, PathBuf::from("."))
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = JobQueue::new();
        let a = "{ P0[q] }";
        let b = "{ P1[q] }";
        q.push(job("low-a", a), 0).unwrap();
        q.push(job("hi-b", b), 5).unwrap();
        q.push(job("low-b", b), 0).unwrap();
        q.push(job("hi-a", a), 5).unwrap();
        q.push(job("low-a2", a), 0).unwrap();
        let order: Vec<String> = (0..5).map(|_| q.next(0).unwrap().job.name).collect();
        q.close();
        assert!(q.next(0).is_none(), "closed + empty retires workers");
        assert_eq!(order, ["hi-b", "hi-a", "low-a", "low-b", "low-a2"]);
    }

    #[test]
    fn same_priority_jobs_pop_in_submission_order_whatever_their_sources() {
        // The first job's source is one that an order keyed on source
        // content (a hash of its assertion operators) would run last: a
        // job must never wait behind same-priority work submitted after it.
        let q = JobQueue::new();
        let first = "{ I[q] }";
        let later = "{ P0[q] }";
        q.push(job("first", first), 0).unwrap();
        for i in 0..3 {
            q.push(job(&format!("later-{i}"), later), 0).unwrap();
        }
        let order: Vec<String> = (0..4).map(|_| q.next(0).unwrap().job.name).collect();
        assert_eq!(order, ["first", "later-0", "later-1", "later-2"]);
    }

    #[test]
    fn blocks_until_push_and_retires_on_close() {
        use std::sync::Arc;
        let q = Arc::new(JobQueue::new());
        let qc = Arc::clone(&q);
        let handle = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(sj) = qc.next(0) {
                got.push(sj.job.name);
            }
            got
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(job("later", "{ I[q] }"), 0).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let got = handle.join().unwrap();
        assert_eq!(got, ["later"]);
        // Closed queues reject new work.
        assert!(q.push(job("too-late", "{ I[q] }"), 0).is_none());
    }

    #[test]
    fn ids_are_sequential_and_fifo_breaks_ties() {
        let q = JobQueue::new();
        let src = "{ I[q] }";
        assert_eq!(q.push(job("one", src), 0), Some(0));
        assert_eq!(q.push(job("two", src), 0), Some(1));
        assert_eq!(q.push(job("three", src), 0), Some(2));
        let names: Vec<String> = (0..3).map(|_| q.next(1).unwrap().job.name).collect();
        assert_eq!(names, ["one", "two", "three"]);
    }

    #[test]
    fn capacity_bounds_admission_atomically() {
        let q = JobQueue::with_capacity(Some(2));
        assert_eq!(q.capacity(), Some(2));
        // A batch of 2 fits; pushing makes them queued.
        let ids = q.try_reserve_batch(2).expect("fits");
        assert_eq!(ids.len(), 2);
        // While reserved (not yet pushed), further admissions are refused
        // — concurrent submitters cannot jointly overshoot.
        let over = q.try_reserve_batch(1).unwrap_err();
        assert_eq!(
            over,
            Overloaded {
                queued: 2,
                max_queue: 2
            }
        );
        for &id in &ids {
            assert!(q.push_reserved(id, job(&format!("j{id}"), "{ I[q] }"), 0));
        }
        assert_eq!(q.len(), 2);
        assert!(q.try_reserve_batch(1).is_err());
        // Draining frees capacity.
        assert!(q.next(0).is_some());
        let id = q.try_reserve_batch(1).expect("fits again")[0];
        assert!(q.push_reserved(id, job("late", "{ I[q] }"), 0));
        // All-or-nothing: a 2-job batch over a 1-slot remainder is
        // refused whole.
        assert!(q.try_reserve_batch(2).is_err());
        // Zero capacity refuses everything.
        let zero = JobQueue::with_capacity(Some(0));
        assert_eq!(
            zero.try_reserve_batch(1),
            Err(Overloaded {
                queued: 0,
                max_queue: 0
            })
        );
        // Unbounded queues admit anything.
        let free = JobQueue::new();
        assert_eq!(free.try_reserve_batch(1000).unwrap().len(), 1000);
    }

    #[test]
    fn depth_by_priority_groups_the_backlog() {
        let q = JobQueue::new();
        assert!(q.depth_by_priority().is_empty());
        q.push(job("a", "{ I[q] }"), 0).unwrap();
        q.push(job("b", "{ I[q] }"), 5).unwrap();
        q.push(job("c", "{ I[q] }"), 5).unwrap();
        q.push(job("d", "{ I[q] }"), -1).unwrap();
        // Highest priority first; counts per class.
        assert_eq!(q.depth_by_priority(), vec![(5, 2), (0, 1), (-1, 1)]);
        let _ = q.next(0); // pops one priority-5 job
        assert_eq!(q.depth_by_priority(), vec![(5, 1), (0, 1), (-1, 1)]);
        q.close();
        assert!(q.depth_by_priority().is_empty());
    }

    #[test]
    fn cancel_removes_only_the_named_queued_jobs() {
        let q = JobQueue::new();
        let ids: Vec<u64> = (0..4)
            .map(|i| q.push(job(&format!("j{i}"), "{ I[q] }"), 0).unwrap())
            .collect();
        assert_eq!(q.len(), 4);
        // Cancel two of the four; unknown ids are ignored.
        assert_eq!(q.cancel(&[ids[1], ids[3], 999]), 2);
        assert_eq!(q.len(), 2);
        let names: Vec<String> = (0..2).map(|_| q.next(0).unwrap().job.name).collect();
        assert_eq!(names, ["j0", "j2"]);
        // Cancelling an already-popped id is a no-op.
        assert_eq!(q.cancel(&[ids[0]]), 0);
        assert_eq!(q.cancel(&[]), 0);
    }

    #[test]
    fn close_discards_the_backlog_immediately() {
        let q = JobQueue::new();
        for i in 0..3 {
            q.push(job(&format!("queued-{i}"), "{ I[q] }"), 0).unwrap();
        }
        assert_eq!(q.len(), 3);
        q.close();
        // Workers retire without draining the backlog — shutdown latency
        // is bounded by the in-flight job, not the queue depth.
        assert!(q.next(0).is_none());
        assert!(q.is_empty());
    }
}
