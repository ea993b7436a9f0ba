//! Resilience layer for hidden-layer-model training and serving.
//!
//! Production training runs die: machines are preempted, disks tear writes,
//! gradients blow up. This crate gives the trainers in the workspace a small,
//! dependency-free toolkit to survive that:
//!
//! - [`checkpoint`] — a versioned, checksummed snapshot container
//!   ([`Checkpoint`]), atomic filesystem storage ([`FsIo`]), and a store that
//!   falls back past corrupt files to the latest good snapshot
//!   ([`CheckpointStore`]).
//! - [`guard`] — a watchdog ([`RunGuard`]) combining wall-clock deadlines
//!   (injectable [`Clock`]) and deterministic abort points for kill/resume
//!   tests.
//! - [`control`] — [`TrainControl`], the per-run object trainer loops consult
//!   at iteration boundaries for watchdog checks, NaN/divergence detection
//!   and checkpoint emission.
//! - [`fault`] — a seeded, count-based fault-injection harness
//!   ([`FaultPlan`], [`FaultyIo`]) so every failure mode the tests exercise
//!   is reproducible without timing or signals.
//! - [`netfault`] — the same count-based discipline for network streams
//!   ([`NetFaultPlan`], [`FaultyStream`]): partial writes, mid-request
//!   disconnects, corrupt frames, and slow-loris chunking for serving
//!   drills.
//!
//! The contract trainers uphold: a checkpoint captures *everything* the loop
//! needs (including RNG streams), is written only after an iteration fully
//! completes and passes divergence checks, and resuming from it continues
//! the run bit-for-bit identically to one that was never interrupted.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub(crate) mod control;
pub mod error;
pub(crate) mod fault;
pub mod guard;
pub(crate) mod netfault;

pub use checkpoint::{Checkpoint, CheckpointIo, CheckpointSink, CheckpointStore, FsIo, MemIo};
pub use control::TrainControl;
pub use error::ResilienceError;
pub use fault::{Fault, FaultPlan, FaultyIo};
pub use guard::{Clock, ManualClock, RunGuard, SystemClock};
pub use netfault::{FaultyStream, NetFault, NetFaultPlan};
