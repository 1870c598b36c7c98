//! Load-step droop analysis: the time-domain complement of the
//! impedance profile.
//!
//! A compute kernel launching on the die is a current step; the supply
//! dips by roughly `ΔI · |Z|` at whatever frequency the step excites.
//! This module drives the per-architecture [`PdnModel`] with an actual
//! step through the backward-Euler transient engine and measures the
//! worst excursion — validating the frequency-domain target-impedance
//! story in the time domain.

use crate::{CoreError, PdnModel, SystemSpec};
use vpd_circuit::{ElementId, NodeId, TransientPlan, TransientResult, TransientSettings};
use vpd_units::{Amps, Ohms, Seconds, Volts};

/// A load-step stimulus.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LoadStep {
    /// Quiescent load before the step.
    pub base: Amps,
    /// Load after the step.
    pub after: Amps,
    /// When the step fires.
    pub at: Seconds,
}

impl LoadStep {
    /// The paper-scale stimulus: 25% → 100% of the 1 kA POL current.
    #[must_use]
    pub fn paper_default(spec: &SystemSpec) -> Self {
        let i = spec.pol_current();
        Self {
            base: i * 0.25,
            after: i,
            at: Seconds::from_microseconds(5.0),
        }
    }

    /// The step magnitude `ΔI`.
    #[must_use]
    pub fn delta(&self) -> Amps {
        self.after - self.base
    }
}

/// Result of a droop simulation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DroopReport {
    /// Supply voltage just before the step.
    pub v_before: Volts,
    /// Minimum supply voltage after the step.
    pub v_min: Volts,
    /// Worst excursion `v_before − v_min`.
    pub droop: Volts,
    /// The naive frequency-domain bound `ΔI · |Z|_peak`.
    pub impedance_bound: Volts,
}

/// A compiled, reusable droop scenario: one architecture's PDN ladder
/// plus the load step (a zero-rise ramp current source), lowered once
/// into a [`TransientPlan`].
///
/// The scenario owns the plan, so repeated runs — swept step
/// parameters via [`DroopScenario::set_step`], or re-runs of the same
/// stimulus — re-factor zero times; [`simulate_droop`] is now a thin
/// compile-and-run wrapper over it. The incremental API
/// ([`DroopScenario::start`] / [`DroopScenario::advance`]) exposes the
/// same run chunk-by-chunk for streaming consumers, with the exact
/// waveform bits of a one-shot run.
#[derive(Clone, Debug)]
pub struct DroopScenario {
    plan: TransientPlan,
    die: NodeId,
    step_el: ElementId,
    step: LoadStep,
    peak_z: Ohms,
}

impl DroopScenario {
    /// Compiles `model` plus the `step` stimulus into a reusable plan.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction, settings, and impedance-model
    /// failures.
    pub fn new(
        model: &PdnModel,
        step: &LoadStep,
        sim_time: Seconds,
        dt: Seconds,
    ) -> Result<Self, CoreError> {
        let (mut net, die) = model.netlist()?;
        let step_el = net
            .ramp_current_source(
                die,
                net.ground(),
                step.base,
                step.after,
                step.at,
                Seconds::ZERO,
            )
            .map_err(CoreError::Circuit)?;
        let settings = TransientSettings::new(sim_time, dt).map_err(CoreError::Circuit)?;
        let plan = TransientPlan::compile(&net, &settings).map_err(CoreError::Circuit)?;
        let peak_z = model.peak_impedance()?;
        Ok(Self {
            plan,
            die,
            step_el,
            step: *step,
            peak_z,
        })
    }

    /// Repoints the step stimulus (RHS-only, the factorization
    /// survives). Takes effect on the next run.
    ///
    /// # Errors
    ///
    /// Propagates [`TransientPlan::set_load_ramp`] validation failures.
    pub fn set_step(&mut self, step: &LoadStep) -> Result<(), CoreError> {
        self.plan
            .set_load_ramp(self.step_el, step.base, step.after, step.at, Seconds::ZERO)
            .map_err(CoreError::Circuit)?;
        self.step = *step;
        Ok(())
    }

    /// The die (load) node whose voltage the report measures.
    #[must_use]
    pub fn die(&self) -> NodeId {
        self.die
    }

    /// The current step stimulus.
    #[must_use]
    pub fn step(&self) -> LoadStep {
        self.step
    }

    /// Samples one full run records (`steps + 1`, including `t = 0`).
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.plan.steps() + 1
    }

    /// Samples recorded so far in the current run.
    #[must_use]
    pub fn samples_done(&self) -> usize {
        self.plan.samples_done()
    }

    /// Whether the current run has recorded its final sample.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.plan.finished()
    }

    /// Resets state and waveforms for a fresh (incremental) run.
    pub fn start(&mut self) {
        self.plan.start();
    }

    /// Executes up to `max_steps` steps of the current run; returns how
    /// many ran (`0` once finished). Partial waveforms are visible via
    /// [`DroopScenario::result`].
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn advance(&mut self, max_steps: usize) -> Result<usize, CoreError> {
        self.plan.advance(max_steps).map_err(CoreError::Circuit)
    }

    /// The (possibly partial) waveforms of the current run.
    #[must_use]
    pub fn result(&self) -> &TransientResult {
        self.plan.result()
    }

    /// Runs the scenario start-to-finish and derives the droop report.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn run(&mut self) -> Result<DroopReport, CoreError> {
        self.plan.run().map_err(CoreError::Circuit)?;
        Ok(self.report())
    }

    /// Derives the droop report from the recorded waveforms.
    #[must_use]
    pub fn report(&self) -> DroopReport {
        let result = self.plan.result();
        let (v_before, v_min) = dip(result.times(), result.voltage(self.die), self.step.at);
        DroopReport {
            v_before: Volts::new(v_before),
            v_min: Volts::new(v_min),
            droop: Volts::new(v_before - v_min),
            impedance_bound: self.step.delta() * self.peak_z,
        }
    }
}

/// The dip an event leaves in a sampled rail `v`: the voltage at the
/// last sample before `event` (the first sample when the event is at or
/// before it, or never reached) and the minimum from that sample on —
/// the droop measurement every load-step and fault transient reports.
pub(crate) fn dip(times: &[f64], v: &[f64], event: Seconds) -> (f64, f64) {
    let idx = times
        .iter()
        .position(|&t| t >= event.value())
        .unwrap_or(0)
        .saturating_sub(1);
    (
        v[idx],
        v[idx..].iter().copied().fold(f64::INFINITY, f64::min),
    )
}

/// Simulates a load step against an architecture's PDN model.
///
/// Compiles a [`DroopScenario`] and runs it once; callers sweeping many
/// stimuli should hold the scenario and restamp instead.
///
/// # Errors
///
/// Propagates netlist and transient-solver failures.
pub fn simulate_droop(
    model: &PdnModel,
    step: &LoadStep,
    sim_time: Seconds,
    dt: Seconds,
) -> Result<DroopReport, CoreError> {
    DroopScenario::new(model, step, sim_time, dt)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;

    fn run(arch: Architecture) -> DroopReport {
        let spec = SystemSpec::paper_default();
        let model = PdnModel::for_architecture(arch);
        simulate_droop(
            &model,
            &LoadStep::paper_default(&spec),
            Seconds::from_microseconds(60.0),
            Seconds::from_nanoseconds(10.0),
        )
        .unwrap()
    }

    #[test]
    fn vertical_architectures_droop_less() {
        let a0 = run(Architecture::Reference);
        let a2 = run(Architecture::InterposerEmbedded);
        assert!(
            a0.droop.value() > 5.0 * a2.droop.value(),
            "A0 droop {} vs A2 droop {}",
            a0.droop,
            a2.droop
        );
    }

    #[test]
    fn a2_stays_within_ripple_budget_a0_does_not() {
        // 5% of 1 V budget against the 750 A step.
        let budget = 0.05;
        let a0 = run(Architecture::Reference);
        let a2 = run(Architecture::InterposerEmbedded);
        assert!(a0.droop.value() > budget, "A0 droop {}", a0.droop);
        assert!(a2.droop.value() < budget, "A2 droop {}", a2.droop);
    }

    #[test]
    fn droop_is_bounded_by_impedance_peak_times_delta() {
        // The time-domain excursion cannot exceed the ΔI·|Z|_peak bound
        // by more than discretization error.
        for arch in [Architecture::Reference, Architecture::InterposerEmbedded] {
            let r = run(arch);
            assert!(
                r.droop.value() <= r.impedance_bound.value() * 1.15 + 1e-4,
                "{}: droop {} vs bound {}",
                arch.name(),
                r.droop,
                r.impedance_bound
            );
        }
    }

    #[test]
    fn report_fields_consistent() {
        let r = run(Architecture::InterposerPeriphery);
        assert!(r.v_min.value() <= r.v_before.value());
        assert!((r.droop.value() - (r.v_before - r.v_min).value()).abs() < 1e-15);
        assert!(r.droop.value() >= 0.0);
    }

    #[test]
    fn scenario_restamp_matches_fresh_simulation_bitwise() {
        let spec = SystemSpec::paper_default();
        let model = PdnModel::for_architecture(Architecture::InterposerEmbedded);
        let sim = Seconds::from_microseconds(30.0);
        let dt = Seconds::from_nanoseconds(20.0);
        let first = LoadStep::paper_default(&spec);
        let second = LoadStep {
            base: first.base,
            after: first.after * 0.6,
            at: Seconds::from_microseconds(8.0),
        };
        let mut scenario = DroopScenario::new(&model, &first, sim, dt).unwrap();
        let a = scenario.run().unwrap();
        assert_eq!(a, simulate_droop(&model, &first, sim, dt).unwrap());
        scenario.set_step(&second).unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(b, simulate_droop(&model, &second, sim, dt).unwrap());
        // Rerunning the restamped scenario reproduces the same report.
        assert_eq!(scenario.run().unwrap(), b);
    }

    #[test]
    fn scenario_incremental_run_matches_one_shot() {
        let spec = SystemSpec::paper_default();
        let model = PdnModel::for_architecture(Architecture::Reference);
        let step = LoadStep::paper_default(&spec);
        let sim = Seconds::from_microseconds(20.0);
        let dt = Seconds::from_nanoseconds(20.0);
        let mut scenario = DroopScenario::new(&model, &step, sim, dt).unwrap();
        let one_shot = scenario.run().unwrap();
        scenario.start();
        while scenario.advance(123).unwrap() > 0 {
            assert!(scenario.samples_done() <= scenario.total_samples());
        }
        assert!(scenario.finished());
        assert_eq!(scenario.samples_done(), scenario.total_samples());
        assert_eq!(scenario.report(), one_shot);
    }

    #[test]
    fn load_step_at_t_stop_is_well_defined() {
        // The step fires exactly at the final sample: the derivation
        // must not panic, `v_before` is the last pre-step sample, and
        // the droop window is the final two samples.
        let spec = SystemSpec::paper_default();
        let model = PdnModel::for_architecture(Architecture::InterposerEmbedded);
        let sim = Seconds::from_microseconds(10.0);
        let dt = Seconds::from_nanoseconds(10.0);
        let step = LoadStep {
            at: sim,
            ..LoadStep::paper_default(&spec)
        };
        let r = simulate_droop(&model, &step, sim, dt).unwrap();
        assert!(r.v_before.value().is_finite());
        assert!(r.v_min.value() <= r.v_before.value());
        assert!(r.droop.value() >= 0.0);
        // The load never actually steps inside the window, so the
        // excursion is the settled ripple, far below the stepped droop.
        let stepped = simulate_droop(&model, &LoadStep::paper_default(&spec), sim, dt).unwrap();
        assert!(r.droop.value() < stepped.droop.value());
    }
}
