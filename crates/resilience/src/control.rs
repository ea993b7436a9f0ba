//! Per-run training control: the object trainers consult at iteration
//! boundaries. It owns the watchdog, the divergence policy, the checkpoint
//! sink, and the fault plan's metric poisoning, so trainer loops stay small:
//!
//! ```text
//! ctrl.begin_iteration(i)?;          // watchdog
//! ... do the work ...
//! ctrl.check_metric(i, "nll", x)?;   // NaN / divergence detection
//! ctrl.checkpoint(i + 1, || bytes);  // snapshot completed iteration
//! ```

use crate::checkpoint::{Checkpoint, CheckpointSink};
use crate::error::ResilienceError;
use crate::fault::FaultPlan;
use crate::guard::RunGuard;

/// Runtime control for one training run.
///
/// A `TrainControl` with no sink and an unlimited guard (see
/// [`TrainControl::noop`]) makes the resilient code paths behave exactly
/// like the original loops, which is how the pre-existing `fit` entry
/// points keep their behaviour.
pub struct TrainControl<'a> {
    guard: RunGuard,
    sink: Option<&'a dyn CheckpointSink>,
    kind: &'a str,
    faults: FaultPlan,
    sink_failures: Vec<(u64, ResilienceError)>,
    saves: u64,
}

impl<'a> TrainControl<'a> {
    /// Control that never trips, never checkpoints, never poisons metrics.
    pub fn noop() -> Self {
        TrainControl {
            guard: RunGuard::unlimited(),
            sink: None,
            kind: "",
            faults: FaultPlan::none(),
            sink_failures: Vec::new(),
            saves: 0,
        }
    }

    /// Control that checkpoints each iteration to `sink` under `kind`.
    pub fn new(kind: &'a str, sink: &'a dyn CheckpointSink) -> Self {
        let mut ctrl = Self::noop();
        ctrl.kind = kind;
        ctrl.sink = Some(sink);
        ctrl
    }

    /// Attach a watchdog.
    pub fn with_guard(mut self, guard: RunGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Attach a fault plan (metric poisoning; IO faults are injected at the
    /// [`crate::fault::FaultyIo`] layer instead).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Watchdog check; call at the top of each iteration.
    pub fn begin_iteration(&self, iteration: u64) -> Result<(), ResilienceError> {
        self.guard.check(iteration)
    }

    /// Validate a scalar training metric. Applies the fault plan's NaN
    /// poisoning first, then fails with [`ResilienceError::Diverged`] if the
    /// (possibly poisoned) value is not finite. Returns the value the
    /// trainer should proceed with.
    pub fn check_metric(
        &self,
        iteration: u64,
        name: &str,
        value: f64,
    ) -> Result<f64, ResilienceError> {
        let value = if self.faults.poisons_metric_at(iteration) {
            hlm_obs::global().add("resilience.faults_injected", 1);
            f64::NAN
        } else {
            value
        };
        if !value.is_finite() {
            hlm_obs::global().add("resilience.divergences", 1);
            return Err(ResilienceError::Diverged {
                iteration,
                reason: format!("{name} is not finite ({value})"),
            });
        }
        Ok(value)
    }

    /// Snapshot the state after `iterations_done` completed iterations
    /// (none before the first). `payload` is only invoked when a sink is
    /// attached. A sink
    /// failure is recorded (see [`TrainControl::sink_failures`]) but does
    /// not abort training — losing one snapshot only widens the resume gap.
    /// With recording on, building the payload is timed under
    /// `resilience.checkpoint_encode_seconds` and the sink write under
    /// `resilience.checkpoint_seconds`.
    pub fn checkpoint<F>(&mut self, iterations_done: u64, payload: F)
    where
        F: FnOnce() -> Vec<u8>,
    {
        let Some(sink) = self.sink else { return };
        if iterations_done == 0 {
            return;
        }
        let rec = hlm_obs::global();
        let encode_t0 = rec.is_enabled().then(std::time::Instant::now);
        let payload = payload();
        if let Some(t0) = encode_t0 {
            rec.observe(
                hlm_obs::names::RESILIENCE_CHECKPOINT_ENCODE_SECONDS,
                t0.elapsed().as_secs_f64(),
            );
        }
        let ckpt = Checkpoint::new(self.kind, iterations_done, payload);
        let write_t0 = rec.is_enabled().then(std::time::Instant::now);
        let saved = sink.save(&ckpt);
        if let Some(t0) = write_t0 {
            rec.observe("resilience.checkpoint_seconds", t0.elapsed().as_secs_f64());
            rec.observe("resilience.checkpoint_bytes", ckpt.payload.len() as f64);
        }
        match saved {
            Ok(()) => {
                rec.add("resilience.checkpoints", 1);
                self.saves += 1;
            }
            Err(e) => {
                rec.add("resilience.checkpoint_failures", 1);
                self.sink_failures.push((iterations_done, e));
            }
        }
    }

    /// Checkpoint saves that failed, with the iteration they were for.
    pub fn sink_failures(&self) -> &[(u64, ResilienceError)] {
        &self.sink_failures
    }

    /// Checkpoints successfully persisted by this control.
    pub fn saves(&self) -> u64 {
        self.saves
    }
}

impl Default for TrainControl<'_> {
    fn default() -> Self {
        Self::noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointStore, MemIo};
    use crate::fault::{Fault, FaultyIo};
    use crate::guard::RunGuard;

    #[test]
    fn noop_control_is_transparent() {
        let mut ctrl = TrainControl::noop();
        for i in 0..10 {
            ctrl.begin_iteration(i).unwrap();
            assert_eq!(ctrl.check_metric(i, "nll", 1.5).unwrap(), 1.5);
            ctrl.checkpoint(i + 1, || panic!("noop must not build payloads"));
        }
        assert_eq!(ctrl.saves(), 0);
    }

    #[test]
    fn non_finite_metric_is_divergence() {
        let ctrl = TrainControl::noop();
        let err = ctrl.check_metric(4, "perplexity", f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            ResilienceError::Diverged { iteration: 4, .. }
        ));
        let err = ctrl.check_metric(4, "nll", f64::INFINITY).unwrap_err();
        assert!(matches!(err, ResilienceError::Diverged { .. }));
    }

    #[test]
    fn fault_plan_poisons_metric_at_scheduled_iteration() {
        let ctrl = TrainControl::noop().with_faults(FaultPlan::none().with_nan_at_iteration(2));
        assert!(ctrl.check_metric(1, "nll", 0.5).is_ok());
        assert!(matches!(
            ctrl.check_metric(2, "nll", 0.5),
            Err(ResilienceError::Diverged { iteration: 2, .. })
        ));
    }

    #[test]
    fn checkpoints_respect_interval_and_count_saves() {
        // The interval is one completed iteration: nothing before the first.
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new("t", &store);
        for done in 0..=6u64 {
            ctrl.checkpoint(done, || vec![done as u8]);
        }
        assert_eq!(ctrl.saves(), 6);
        assert_eq!(store.latest_good("t").unwrap().unwrap().iteration, 6);
        assert!(store.load(5).is_ok(), "every completed iteration persists");
        assert!(store.load(0).is_err(), "no checkpoint before the first");
    }

    #[test]
    fn payload_encode_and_sink_write_are_timed_apart() {
        use hlm_obs::names::RESILIENCE_CHECKPOINT_ENCODE_SECONDS as ENCODE;
        let hist = |name: &str| {
            let snap = hlm_obs::global().snapshot();
            let found = snap.histograms.iter().find(|(n, _)| n == name);
            found.map_or((0, 0.0), |(_, h)| (h.count, h.sum))
        };
        hlm_obs::install(hlm_obs::Recorder::enabled());
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new("t", &store);
        for done in 1..=4u64 {
            ctrl.checkpoint(done, || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                vec![done as u8]
            });
        }
        let (encodes, encode_s) = hist(ENCODE);
        let (writes, write_s) = hist("resilience.checkpoint_seconds");
        hlm_obs::install(hlm_obs::Recorder::noop());
        // Other tests in this binary may checkpoint concurrently, so counts
        // are lower bounds; only this test's payloads sleep.
        assert!(
            encodes >= 2 && writes >= 2,
            "{encodes} encodes, {writes} writes"
        );
        assert!(
            encode_s >= 0.06,
            "encode time {encode_s}s misses the payload closure"
        );
        assert!(
            write_s < encode_s,
            "sink write {write_s}s absorbed the encode"
        );
    }

    #[test]
    fn sink_failure_is_tolerated_and_recorded() {
        let io = FaultyIo::new(
            MemIo::new(),
            FaultPlan::none().with(Fault::FailWrite { nth: 2 }),
        );
        let store = CheckpointStore::new(Box::new(io));
        let mut ctrl = TrainControl::new("t", &store);
        for done in 1..=3u64 {
            ctrl.checkpoint(done, || vec![done as u8]);
        }
        assert_eq!(ctrl.saves(), 2);
        assert_eq!(ctrl.sink_failures().len(), 1);
        assert_eq!(ctrl.sink_failures()[0].0, 2);
        // Latest good skips the hole left by the failed write.
        assert_eq!(store.latest_good("t").unwrap().unwrap().iteration, 3);
    }

    #[test]
    fn guard_is_consulted_at_iteration_boundaries() {
        let ctrl = TrainControl::noop().with_guard(RunGuard::unlimited().abort_at_iteration(3));
        assert!(ctrl.begin_iteration(2).is_ok());
        assert!(matches!(
            ctrl.begin_iteration(3),
            Err(ResilienceError::Cancelled { iteration: 3 })
        ));
    }
}
