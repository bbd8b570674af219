//! Admission control: a bounded job queue with explicit overload
//! rejection and graceful drain.
//!
//! The queue is the server's only buffering: when it is full, new work is
//! *rejected at admission* with a typed reason instead of queueing
//! unboundedly — the client always gets an answer, never an invisible
//! wait. On shutdown the queue [drains](AdmissionQueue::drain): already
//! admitted jobs still run, new pushes are refused, and poppers (the
//! worker threads) unblock and exit once the backlog is gone.
//!
//! This is the serving-side sibling of the one-shot
//! [`run_batch`](smache_sim::run_batch) primitive: the same
//! shared-queue/worker-pull discipline, extended with a capacity bound
//! and a lifecycle, for work that arrives continuously instead of as a
//! closed batch.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — the overload signal.
    Full(T),
    /// The queue is draining for shutdown.
    Draining(T),
}

impl<T> PushError<T> {
    /// The wire-protocol rejection reason for this refusal.
    pub fn reason(&self) -> &'static str {
        match self {
            PushError::Full(_) => "overloaded",
            PushError::Draining(_) => "draining",
        }
    }

    /// Recovers the rejected job.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(t) | PushError::Draining(t) => t,
        }
    }
}

/// How expensive an admitted job is expected to be, decided *before*
/// enqueue from the request's seed-blind schedule key.
///
/// A request whose schedule is already resident (in the in-memory
/// [`ScheduleCache`](smache_sim::ScheduleCache) or the on-disk store) is
/// a [`Replay`](JobClass::Replay): the expensive capture is skipped and
/// the worker only re-executes the decision trace. Everything else —
/// cold schedules, plans, traces, corrupting-chaos runs — is a
/// [`Capture`](JobClass::Capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Schedule resident: cheap, bounded replay work.
    Replay,
    /// Cold or unkeyed: full simulation (capture) work.
    Capture,
}

struct ClassState<T> {
    replay: VecDeque<T>,
    capture: VecDeque<T>,
    draining: bool,
}

impl<T> ClassState<T> {
    fn depth(&self) -> usize {
        self.replay.len() + self.capture.len()
    }
}

/// The reactor's two-class admission queue: schedule-aware priority with
/// a reserved headroom band.
///
/// Both classes share one depth limit (the *effective* limit — the AIMD
/// controller's output when `--adaptive` is on, the configured
/// `--queue-cap` otherwise), passed per push because it moves at
/// runtime. The scheduling policy is:
///
/// * **Admission** — [`Replay`](JobClass::Replay) jobs are admitted up
///   to the full limit; [`Capture`](JobClass::Capture) jobs only while
///   the queue is below ~¾ of it. Under overload the top quarter of the
///   queue is reserved for cheap replays, so a flood of cold captures
///   cannot starve the traffic the cache exists to accelerate. (An
///   [`unbanded`](AdmissionQueue::unbanded) queue skips the reserve —
///   for servers where replay serving is off and every job is a
///   capture.)
/// * **Dispatch** — [`pop`](AdmissionQueue::pop) serves the replay lane
///   first (FIFO within each lane). Replays complete in microseconds,
///   so draining them first frees queue slots fastest and keeps
///   worst-case capture latency bounded by the capture backlog alone.
pub struct AdmissionQueue<T> {
    state: Mutex<ClassState<T>>,
    available: Condvar,
    banded: bool,
}

impl<T> AdmissionQueue<T> {
    /// Creates an empty queue with the reserved replay band. Capacity is
    /// per-push (`limit`), not fixed at construction.
    pub fn new() -> AdmissionQueue<T> {
        AdmissionQueue {
            state: Mutex::new(ClassState {
                replay: VecDeque::new(),
                capture: VecDeque::new(),
                draining: false,
            }),
            available: Condvar::new(),
            banded: true,
        }
    }

    /// Creates an empty queue *without* the reserved band: captures are
    /// admitted up to the full limit. For servers with replay serving
    /// disabled (no schedule cache, no store), where every job is
    /// necessarily a capture and a reserve would only waste capacity.
    pub fn unbanded() -> AdmissionQueue<T> {
        AdmissionQueue {
            banded: false,
            ..AdmissionQueue::new()
        }
    }

    /// The depth below which `Capture` jobs are still admitted: ¾ of
    /// the limit, never below 1 so a tiny limit still admits captures.
    pub fn capture_band(limit: usize) -> usize {
        (limit - limit / 4).max(1)
    }

    /// Admits a job under the current `limit`, or refuses immediately —
    /// never blocks. On a banded queue, `Capture` jobs are additionally
    /// refused once the queue reaches
    /// [`capture_band`](Self::capture_band)`(limit)`.
    pub fn try_push(&self, item: T, class: JobClass, limit: usize) -> Result<(), PushError<T>> {
        let limit = limit.max(1);
        let mut state = self.state.lock().expect("queue poisoned");
        if state.draining {
            return Err(PushError::Draining(item));
        }
        let depth = state.depth();
        let band = match class {
            JobClass::Capture if self.banded => Self::capture_band(limit),
            _ => limit,
        };
        if depth >= band {
            return Err(PushError::Full(item));
        }
        match class {
            JobClass::Replay => state.replay.push_back(item),
            JobClass::Capture => state.capture.push_back(item),
        }
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Takes the next job — replay lane first — blocking while both
    /// lanes are empty. Returns `None` once draining *and* empty.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.replay.pop_front() {
                return Some(item);
            }
            if let Some(item) = state.capture.pop_front() {
                return Some(item);
            }
            if state.draining {
                return None;
            }
            state = self.available.wait(state).expect("queue poisoned");
        }
    }

    /// Begins the graceful drain: refuses new jobs, lets queued ones
    /// run, and releases blocked poppers as the backlog empties.
    pub fn drain(&self) {
        self.state.lock().expect("queue poisoned").draining = true;
        self.available.notify_all();
    }

    /// Jobs currently waiting across both lanes (racy; for metrics).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").depth()
    }

    /// `(replay, capture)` lane depths (racy; for metrics).
    pub fn depth_by_class(&self) -> (usize, usize) {
        let state = self.state.lock().expect("queue poisoned");
        (state.replay.len(), state.capture.len())
    }

    /// True once [`drain`](Self::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.state.lock().expect("queue poisoned").draining
    }
}

impl<T> Default for AdmissionQueue<T> {
    fn default() -> AdmissionQueue<T> {
        AdmissionQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_depth() {
        let q = AdmissionQueue::new();
        for n in 0..5 {
            q.try_push(n, JobClass::Capture, 8).unwrap();
        }
        assert_eq!(q.depth(), 5);
        let popped: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overload_is_an_immediate_typed_refusal() {
        let q = AdmissionQueue::new();
        q.try_push(1, JobClass::Replay, 2).unwrap();
        q.try_push(2, JobClass::Replay, 2).unwrap();
        let err = q.try_push(3, JobClass::Replay, 2).unwrap_err();
        assert_eq!(err.reason(), "overloaded");
        assert_eq!(err.into_inner(), 3);
        // Popping frees a slot.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3, JobClass::Replay, 2).unwrap();
    }

    #[test]
    fn many_producers_one_consumer_loses_nothing() {
        let q = Arc::new(AdmissionQueue::<u64>::new());
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for n in 0..100 {
                        let class = if n % 2 == 0 {
                            JobClass::Replay
                        } else {
                            JobClass::Capture
                        };
                        q.try_push(p * 1000 + n, class, 1024).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.drain();
        let mut seen = Vec::new();
        while let Some(v) = q.pop() {
            seen.push(v);
        }
        assert_eq!(seen.len(), 400);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 400, "no duplicates, no losses");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = AdmissionQueue::new();
        q.try_push(1, JobClass::Replay, 0).unwrap();
        assert_eq!(
            q.try_push(2, JobClass::Replay, 0).unwrap_err().reason(),
            "overloaded"
        );
    }

    #[test]
    fn admission_serves_the_replay_lane_first() {
        let q = AdmissionQueue::new();
        q.try_push("cap1", JobClass::Capture, 8).unwrap();
        q.try_push("rep1", JobClass::Replay, 8).unwrap();
        q.try_push("cap2", JobClass::Capture, 8).unwrap();
        q.try_push("rep2", JobClass::Replay, 8).unwrap();
        assert_eq!(q.depth_by_class(), (2, 2));
        let order: Vec<&str> = (0..4).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, vec!["rep1", "rep2", "cap1", "cap2"]);
    }

    #[test]
    fn the_top_band_is_reserved_for_replays() {
        let q = AdmissionQueue::new();
        let limit = 8; // capture band = 6
        for n in 0..6 {
            q.try_push(n, JobClass::Capture, limit).unwrap();
        }
        // Captures are refused at the band even though slots remain…
        let err = q.try_push(6, JobClass::Capture, limit).unwrap_err();
        assert_eq!(err.reason(), "overloaded");
        // …while replays still fit, up to the full limit.
        q.try_push(100, JobClass::Replay, limit).unwrap();
        q.try_push(101, JobClass::Replay, limit).unwrap();
        assert_eq!(
            q.try_push(102, JobClass::Replay, limit)
                .unwrap_err()
                .reason(),
            "overloaded"
        );
    }

    #[test]
    fn a_shrinking_limit_tightens_admission_immediately() {
        let q = AdmissionQueue::new();
        for n in 0..4 {
            q.try_push(n, JobClass::Replay, 16).unwrap();
        }
        // The adaptive controller cut the limit below the current depth:
        // everything is refused until workers catch up.
        assert!(q.try_push(9, JobClass::Replay, 4).is_err());
        assert!(q.try_push(9, JobClass::Capture, 4).is_err());
        q.pop().unwrap();
        q.try_push(9, JobClass::Replay, 4).unwrap();
    }

    #[test]
    fn an_unbanded_queue_admits_captures_to_the_full_limit() {
        let q = AdmissionQueue::unbanded();
        let limit = 8;
        for n in 0..8 {
            q.try_push(n, JobClass::Capture, limit).unwrap();
        }
        assert_eq!(
            q.try_push(8, JobClass::Capture, limit)
                .unwrap_err()
                .reason(),
            "overloaded"
        );
    }

    #[test]
    fn tiny_limits_still_admit_captures() {
        let q = AdmissionQueue::new();
        assert_eq!(AdmissionQueue::<u32>::capture_band(1), 1);
        q.try_push(1u32, JobClass::Capture, 1).unwrap();
        assert!(q.try_push(2, JobClass::Capture, 1).is_err());
    }

    #[test]
    fn admission_queue_drains_like_the_bounded_queue() {
        let q = AdmissionQueue::new();
        q.try_push(1, JobClass::Capture, 8).unwrap();
        q.try_push(2, JobClass::Replay, 8).unwrap();
        q.drain();
        assert!(q.is_draining());
        assert_eq!(
            q.try_push(3, JobClass::Replay, 8).unwrap_err().reason(),
            "draining"
        );
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "drained queue stays drained");
    }

    #[test]
    fn admission_drain_releases_blocked_poppers() {
        let q = Arc::new(AdmissionQueue::<u32>::new());
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.drain();
        for w in waiters {
            assert_eq!(w.join().unwrap(), None);
        }
    }
}
