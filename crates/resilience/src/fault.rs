//! Deterministic fault injection for checkpoint IO and training loops.
//!
//! Faults are declared up front in a [`FaultPlan`] and fire by *count* (the
//! Nth write) or by *iteration* — never by wall-clock — so every failure the
//! test suite exercises is reproducible bit for bit.

use crate::checkpoint::CheckpointIo;
use crate::error::ResilienceError;
use std::sync::atomic::{AtomicU64, Ordering};

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The `nth` write (1-based) fails outright with an IO error; nothing is
    /// persisted for that write.
    FailWrite {
        /// 1-based index of the write to fail.
        nth: u64,
    },
    /// The `nth` write (1-based) persists only the first `at_byte` bytes,
    /// simulating a crash mid-write / torn file.
    TruncateWrite {
        /// 1-based index of the write to damage.
        nth: u64,
        /// Bytes that make it to storage before the "crash".
        at_byte: usize,
    },
    /// The `nth` write (1-based) persists with the byte at `offset` XOR-ed
    /// with `mask`, simulating silent media corruption.
    FlipByte {
        /// 1-based index of the write to damage.
        nth: u64,
        /// Byte offset to corrupt (clamped into the payload if out of range).
        offset: usize,
        /// XOR mask applied to the byte (0 disables the flip).
        mask: u8,
    },
}

/// A deterministic schedule of [`Fault`]s, plus an optional NaN injection
/// point for training metrics (consumed by
/// [`crate::control::TrainControl::check_metric`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    /// Iteration (0-based) at which reported metrics are replaced with NaN.
    nan_at_iteration: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a fault to the schedule.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Replace the metric reported at `iteration` with NaN.
    pub fn with_nan_at_iteration(mut self, iteration: u64) -> Self {
        self.nan_at_iteration = Some(iteration);
        self
    }

    /// The NaN injection point, if any.
    #[cfg(test)]
    pub(crate) fn nan_at(&self) -> Option<u64> {
        self.nan_at_iteration
    }

    /// True if the plan poisons the metric at this iteration.
    pub(crate) fn poisons_metric_at(&self, iteration: u64) -> bool {
        self.nan_at_iteration == Some(iteration)
    }

    fn faults_for_write(&self, nth: u64) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(move |f| match f {
            Fault::FailWrite { nth: n }
            | Fault::TruncateWrite { nth: n, .. }
            | Fault::FlipByte { nth: n, .. } => *n == nth,
        })
    }
}

/// Wraps a [`CheckpointIo`] and applies a [`FaultPlan`] to its writes.
/// Reads and listings pass through untouched — corruption is injected at
/// write time so it persists in the underlying store, exactly like real
/// on-disk damage.
pub struct FaultyIo<I: CheckpointIo> {
    inner: I,
    plan: FaultPlan,
    writes: AtomicU64,
}

impl<I: CheckpointIo> FaultyIo<I> {
    /// Wrap `inner`, scheduling the faults in `plan`.
    pub fn new(inner: I, plan: FaultPlan) -> Self {
        FaultyIo {
            inner,
            plan,
            writes: AtomicU64::new(0),
        }
    }

    /// How many writes have been attempted so far (including failed ones).
    #[cfg(test)]
    pub(crate) fn writes_attempted(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }
}

impl<I: CheckpointIo> CheckpointIo for FaultyIo<I> {
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), ResilienceError> {
        let nth = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        let mut data = bytes.to_vec();
        for fault in self.plan.faults_for_write(nth) {
            match fault {
                Fault::FailWrite { .. } => {
                    return Err(ResilienceError::io(
                        "write",
                        format!("injected failure on write {nth}"),
                    ));
                }
                Fault::TruncateWrite { at_byte, .. } => {
                    data.truncate(*at_byte);
                }
                Fault::FlipByte { offset, mask, .. } => {
                    if !data.is_empty() {
                        let i = (*offset).min(data.len() - 1);
                        data[i] ^= mask;
                    }
                }
            }
        }
        self.inner.write(name, &data)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, ResilienceError> {
        self.inner.read(name)
    }

    fn list(&self) -> Result<Vec<String>, ResilienceError> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemIo;

    #[test]
    fn fail_write_fires_only_on_nth() {
        let io = FaultyIo::new(
            MemIo::new(),
            FaultPlan::none().with(Fault::FailWrite { nth: 2 }),
        );
        assert!(io.write("a", b"one").is_ok());
        assert!(io.write("b", b"two").is_err());
        assert!(io.write("c", b"three").is_ok());
        assert_eq!(io.writes_attempted(), 3);
        assert!(io.read("b").is_err(), "failed write must persist nothing");
    }

    #[test]
    fn truncate_write_persists_a_prefix() {
        let io = FaultyIo::new(
            MemIo::new(),
            FaultPlan::none().with(Fault::TruncateWrite { nth: 1, at_byte: 2 }),
        );
        io.write("a", b"abcdef").unwrap();
        assert_eq!(io.read("a").unwrap(), b"ab");
    }

    #[test]
    fn flip_byte_corrupts_in_place() {
        let io = FaultyIo::new(
            MemIo::new(),
            FaultPlan::none().with(Fault::FlipByte {
                nth: 1,
                offset: 1,
                mask: 0xff,
            }),
        );
        io.write("a", b"abc").unwrap();
        assert_eq!(io.read("a").unwrap(), vec![b'a', b'b' ^ 0xff, b'c']);
    }

    #[test]
    fn flip_byte_offset_is_clamped() {
        let io = FaultyIo::new(
            MemIo::new(),
            FaultPlan::none().with(Fault::FlipByte {
                nth: 1,
                offset: 999,
                mask: 0x01,
            }),
        );
        io.write("a", b"xyz").unwrap();
        assert_eq!(io.read("a").unwrap(), vec![b'x', b'y', b'z' ^ 0x01]);
    }

    #[test]
    fn nan_schedule() {
        let plan = FaultPlan::none().with_nan_at_iteration(3);
        assert!(plan.poisons_metric_at(3));
        assert!(!plan.poisons_metric_at(2));
        assert_eq!(plan.nan_at(), Some(3));
        assert_eq!(FaultPlan::none().nan_at(), None);
    }
}
