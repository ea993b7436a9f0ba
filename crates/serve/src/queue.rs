//! Bounded admission queue with explicit load shedding.
//!
//! The server's first line of defence: every query must win a slot here
//! before any model work happens. When the queue is full the connection
//! handler sheds the request immediately (HTTP 503 + `Retry-After`) instead
//! of queueing unboundedly — under overload, latency of *accepted* requests
//! stays bounded and the excess is refused cheaply.
//!
//! The queue is also the drain point for graceful shutdown: [`close`]
//! rejects new work but lets workers keep popping until the backlog is
//! flushed, so accepted requests are never dropped on the floor.
//!
//! [`close`]: AdmissionQueue::close

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why [`AdmissionQueue::try_push`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// The queue is at capacity — shed the request (503 + `Retry-After`).
    Full,
    /// The server is draining — no new work is admitted (503, no retry soon).
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue: producers never block (they shed), consumers
/// block with a timeout so they can notice shutdown.
pub(crate) struct AdmissionQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` jobs at a time.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity,
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // A panic while holding this lock would poison every later request;
        // the critical sections below cannot panic, so recover the guard.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit a job, or refuse without blocking. On success returns the new
    /// queue depth (for the `serve.queue_depth` gauge).
    pub(crate) fn try_push(&self, item: T) -> Result<usize, AdmitError> {
        let mut s = self.lock();
        if s.closed {
            return Err(AdmitError::Closed);
        }
        if s.items.len() >= self.capacity {
            return Err(AdmitError::Full);
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Pop up to `max` jobs, blocking up to `wait` for the first one. Returns
    /// an empty batch on timeout, or when the queue is closed *and* empty —
    /// callers distinguish the two via [`is_closed`](Self::is_closed).
    pub(crate) fn pop_batch(&self, max: usize, wait: Duration) -> Vec<T> {
        let mut s = self.lock();
        while s.items.is_empty() && !s.closed {
            let (guard, timeout) = self
                .ready
                .wait_timeout(s, wait)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let n = s.items.len().min(max.max(1));
        s.items.drain(..n).collect()
    }

    /// Stop admitting new jobs and wake every blocked consumer. Already
    /// queued jobs remain poppable so the backlog can be flushed.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`close`](Self::close) has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn sheds_when_full_and_preserves_fifo_order() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(AdmitError::Full));
        assert_eq!(q.pop_batch(8, Duration::ZERO), vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_caps_at_max() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(2, Duration::ZERO), vec![0, 1]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn close_rejects_producers_but_flushes_backlog() {
        let q = AdmissionQueue::new(8);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(AdmitError::Closed));
        // The backlog is still drained — accepted work is never dropped.
        assert_eq!(q.pop_batch(8, Duration::ZERO), vec![7]);
        assert!(q.pop_batch(8, Duration::from_millis(50)).is_empty());
        assert!(q.is_closed());
    }

    #[test]
    fn close_wakes_a_blocked_consumer() {
        let q = Arc::new(AdmissionQueue::<u32>::new(8));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::from_secs(30)))
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        q.close();
        assert!(waiter.join().unwrap().is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "close must wake the consumer, not wait out the timeout"
        );
    }

    #[test]
    fn timeout_returns_empty_without_closing() {
        let q = AdmissionQueue::<u32>::new(2);
        assert!(q.pop_batch(4, Duration::from_millis(10)).is_empty());
        assert!(!q.is_closed());
        q.try_push(1).unwrap();
        assert_eq!(q.pop_batch(4, Duration::from_millis(10)), vec![1]);
    }
}
