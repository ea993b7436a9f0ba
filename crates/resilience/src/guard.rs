//! Training watchdog: deadlines, cooperative cancellation, and deterministic
//! abort points, all checked at iteration boundaries.

use crate::error::ResilienceError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Source of elapsed time, injectable so deadline behaviour is testable
/// without sleeping.
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed since the clock (i.e. the run) started.
    fn elapsed_millis(&self) -> u64;
}

/// Wall-clock [`Clock`] anchored at construction.
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// Start counting from now.
    pub fn new() -> Self {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn elapsed_millis(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Hand-cranked [`Clock`] for tests: `advance` moves time forward exactly
/// when the test says so.
#[derive(Clone, Default)]
pub struct ManualClock {
    now: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock frozen at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `millis`.
    pub fn advance(&self, millis: u64) {
        self.now.fetch_add(millis, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn elapsed_millis(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Shared flag for cancelling a run from another thread (or from a signal
/// handler). Cloning shares the flag.
#[derive(Clone, Default)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// A handle that has not been cancelled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; the run stops at its next iteration boundary.
    #[cfg(test)]
    pub(crate) fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Watchdog consulted at every iteration boundary. Combines a wall-clock
/// deadline, a cooperative cancellation flag, and a deterministic
/// abort-at-iteration hook (used by kill/resume tests so "the process died
/// here" is reproducible without signals or timing).
pub struct RunGuard {
    clock: Box<dyn Clock>,
    deadline_millis: Option<u64>,
    cancel: CancelHandle,
    abort_at_iteration: Option<u64>,
}

impl RunGuard {
    /// A guard that never trips.
    pub fn unlimited() -> Self {
        RunGuard {
            clock: Box::new(SystemClock::new()),
            deadline_millis: None,
            cancel: CancelHandle::new(),
            abort_at_iteration: None,
        }
    }

    /// Replace the clock (tests pass a [`ManualClock`]).
    pub fn with_clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Trip with [`ResilienceError::DeadlineExceeded`] once this many
    /// milliseconds have elapsed on the guard's clock.
    pub fn with_deadline_millis(mut self, millis: u64) -> Self {
        self.deadline_millis = Some(millis);
        self
    }

    /// Attach a cancellation flag; `handle.cancel()` stops the run at its
    /// next iteration boundary with [`ResilienceError::Cancelled`].
    #[cfg(test)]
    pub(crate) fn with_cancel(mut self, handle: CancelHandle) -> Self {
        self.cancel = handle;
        self
    }

    /// Deterministically abort when `check(iteration)` is called with this
    /// iteration, as if the process had been killed there.
    pub fn abort_at_iteration(mut self, iteration: u64) -> Self {
        self.abort_at_iteration = Some(iteration);
        self
    }

    /// Called by trainers at the top of each iteration. `Ok(())` means keep
    /// going; an error names why the run must stop.
    pub fn check(&self, iteration: u64) -> Result<(), ResilienceError> {
        if self.abort_at_iteration == Some(iteration) {
            return Err(ResilienceError::Cancelled { iteration });
        }
        if self.cancel.is_cancelled() {
            return Err(ResilienceError::Cancelled { iteration });
        }
        if let Some(deadline) = self.deadline_millis {
            let elapsed = self.clock.elapsed_millis();
            if elapsed >= deadline {
                return Err(ResilienceError::DeadlineExceeded {
                    iteration,
                    elapsed_millis: elapsed,
                });
            }
        }
        Ok(())
    }
}

impl Default for RunGuard {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let guard = RunGuard::unlimited();
        for i in 0..1000 {
            assert!(guard.check(i).is_ok());
        }
    }

    #[test]
    fn deadline_trips_exactly_when_clock_passes_it() {
        let clock = ManualClock::new();
        let guard = RunGuard::unlimited()
            .with_clock(Box::new(clock.clone()))
            .with_deadline_millis(100);
        assert!(guard.check(0).is_ok());
        clock.advance(99);
        assert!(guard.check(1).is_ok());
        clock.advance(1);
        assert_eq!(
            guard.check(2),
            Err(ResilienceError::DeadlineExceeded {
                iteration: 2,
                elapsed_millis: 100
            })
        );
    }

    #[test]
    fn cancel_trips_at_next_boundary() {
        let handle = CancelHandle::new();
        let guard = RunGuard::unlimited().with_cancel(handle.clone());
        assert!(guard.check(0).is_ok());
        handle.cancel();
        assert_eq!(
            guard.check(1),
            Err(ResilienceError::Cancelled { iteration: 1 })
        );
    }

    #[test]
    fn abort_at_iteration_is_deterministic() {
        let guard = RunGuard::unlimited().abort_at_iteration(5);
        for i in 0..5 {
            assert!(guard.check(i).is_ok());
        }
        assert_eq!(
            guard.check(5),
            Err(ResilienceError::Cancelled { iteration: 5 })
        );
    }
}
