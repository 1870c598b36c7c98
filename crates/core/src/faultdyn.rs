//! Dynamic fault power-integrity: what a fault *does* to the rail, not
//! just to the DC operating point.
//!
//! The static fault engine ([`crate::FaultSweep`]) answers "where does
//! the current go when a module dies". This module adds the three
//! dynamic questions the paper's resilience story needs:
//!
//! 1. **Fault × frequency** — [`FaultImpedanceSweep`] applies each
//!    scenario of the typed [`Fault`] taxonomy *value-only* to a
//!    compiled [`vpd_circuit::AcPlan`] of the architecture's
//!    [`PdnModel`] ladder and reports whether the degraded profile
//!    pushes |Z| over the target impedance, and by how much.
//! 2. **Fault transients** — [`FaultTransientSweep`] kills the
//!    regulator bank *mid-run* through a series switch whose drive is
//!    restamped per scenario ([`vpd_circuit::TransientPlan`]'s
//!    switch-config LU cache absorbs the topology flip) and reports the
//!    droop excursion versus failure time.
//! 3. **Cascade ladders** — [`CascadeLadder`] couples the faulted DC
//!    solution through the electro-thermal path: the dead module's
//!    neighbours pick up its current, heat up, derate, and shed load,
//!    iterated to a fixed point with an explicit
//!    [`FixedPointTermination`] verdict, rolled up per architecture
//!    into a [`SurvivalEnvelope`].
//!
//! All three engines inherit the repo-wide determinism contract: each
//! scenario is a pure function of (compiled nominal plan, scenario), so
//! serial and parallel runs through [`crate::par_map_with`] are bitwise
//! identical, and restamping a fault into the nominal plan produces the
//! same bits as compiling the faulted netlist from scratch.

use crate::arch::{second_stage_converter, session_placement};
use crate::droop::dip;
use crate::electro_thermal::FixedPointTermination;
use crate::faults::{apply_fault, Fault, FaultScenario, OPEN_RESISTANCE};
use crate::gridshare::placement_sites;
use crate::placement::VrPlacement;
use crate::{
    par_map_with, target_impedance, AnalysisOptions, Architecture, Calibration, CoreError,
    ImpedanceProfile, LoadStep, PdnModel, SharingSolver, SystemSpec,
};
use vpd_circuit::{AcPlan, ElementId, NodeId, SwitchState, TransientPlan, TransientSettings};
use vpd_converters::{Converter, TopologyCharacteristics, VrTopologyKind};
use vpd_thermal::{DeratingModel, DeviceTechnology, ThermalMesh};
use vpd_units::{Amps, Celsius, Henries, Hertz, Ohms, Seconds, Volts, Watts};

/// Projects a fault scenario onto the lumped [`PdnModel`] ladder.
///
/// The ladder's regulator stage is the parallel combination of `n_vrs`
/// identical module branches (each `n·R`, `n·L`), so module faults
/// recombine by conductance sum: an open branch drops out, a derated
/// branch contributes `1/(n·R·factor)`. Module output capacitors stay
/// on the rail even when the module's output stage dies, so opens do
/// not shrink the bulk decap. Sheet and region degradation scale the
/// distribution and vertical resistances — a region patch by its area
/// fraction, so a whole-grid region fault coincides with
/// [`Fault::SheetDegradation`]. Setpoint drift is a DC trim offset with
/// no small-signal effect.
///
/// # Errors
///
/// [`CoreError::InvalidSpec`] for out-of-range module indices, region
/// rectangles outside the grid, or non-positive/non-finite factors.
pub fn faulted_pdn_model(
    model: &PdnModel,
    n_vrs: usize,
    grid_side: usize,
    scenario: &FaultScenario,
) -> Result<PdnModel, CoreError> {
    let check_factor = |factor: f64| {
        if factor.is_finite() && factor > 0.0 {
            Ok(())
        } else {
            Err(CoreError::InvalidSpec {
                what: "fault degradation factor",
                value: factor,
            })
        }
    };
    let mut open = vec![false; n_vrs];
    let mut derate = vec![1.0_f64; n_vrs];
    let mut sheet = 1.0_f64;
    for fault in &scenario.faults {
        match *fault {
            Fault::VrOpen { index } => {
                *open.get_mut(index).ok_or(CoreError::InvalidSpec {
                    what: "regulator index",
                    value: index as f64,
                })? = true;
            }
            Fault::VrDerated { index, factor } => {
                check_factor(factor)?;
                let slot = derate.get_mut(index).ok_or(CoreError::InvalidSpec {
                    what: "regulator index",
                    value: index as f64,
                })?;
                *slot *= factor;
            }
            Fault::SetpointDrift { .. } => {}
            Fault::RegionOpen {
                x0,
                y0,
                x1,
                y1,
                factor,
            } => {
                check_factor(factor)?;
                if x0 > x1 || y0 > y1 || x1 >= grid_side || y1 >= grid_side {
                    return Err(CoreError::InvalidSpec {
                        what: "region fault rectangle",
                        value: x1.max(y1) as f64,
                    });
                }
                let cells = ((x1 - x0 + 1) * (y1 - y0 + 1)) as f64;
                let fraction = cells / (grid_side * grid_side) as f64;
                sheet *= 1.0 + fraction * (factor - 1.0);
            }
            Fault::SheetDegradation { factor } => {
                check_factor(factor)?;
                sheet *= factor;
            }
        }
    }
    let mut faulted = *model;
    // Recombine the parallel bank only when a module fault touched it:
    // the untouched bank must keep its nominal values bit-for-bit, not
    // a floating-point round trip through the conductance sum.
    if open.iter().any(|&o| o) || derate.iter().any(|&d| d != 1.0) {
        let n = n_vrs as f64;
        let mut g_r = 0.0_f64;
        let mut g_l = 0.0_f64;
        let mut survivors = 0usize;
        for k in 0..n_vrs {
            if open[k] {
                continue;
            }
            survivors += 1;
            // Derating degrades the output stage (resistive); the
            // branch inductance is geometric and survives untouched.
            g_r += 1.0 / (n * model.vr_resistance.value() * derate[k]);
            g_l += 1.0 / (n * model.vr_inductance.value());
        }
        if survivors == 0 {
            // The whole bank is dead: the regulator branch is an open.
            // The inductance is irrelevant behind a GΩ, stays nominal.
            faulted.vr_resistance = OPEN_RESISTANCE;
        } else {
            faulted.vr_resistance = Ohms::new(1.0 / g_r);
            faulted.vr_inductance = Henries::new(1.0 / g_l);
        }
    }
    faulted.distribution_resistance = Ohms::new(model.distribution_resistance.value() * sheet);
    faulted.vertical_resistance = Ohms::new(model.vertical_resistance.value() * sheet);
    Ok(faulted)
}

/// One scenario's degraded impedance profile, summarized.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultImpedanceOutcome {
    /// Scenario name.
    pub name: String,
    /// Peak |Z| of the degraded profile.
    pub peak: Ohms,
    /// Frequency of the peak.
    pub peak_frequency: Hertz,
    /// Lowest swept frequency pushed over the target, if any.
    pub first_violation: Option<Hertz>,
    /// Whether the scenario pushes |Z| over the target anywhere.
    pub over_target: bool,
    /// Fractional overshoot `peak / target − 1`: positive means over
    /// target by that fraction, negative means surviving headroom.
    pub excess: f64,
}

/// Aggregate of a [`FaultImpedanceSweep::run`]: per-scenario degraded
/// profiles judged against the target impedance.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultImpedanceReport {
    /// Swept architecture.
    pub architecture: Architecture,
    /// Target impedance the profiles are judged against.
    pub target: Ohms,
    /// Fault-free peak over the same frequency grid.
    pub nominal_peak: Ohms,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<FaultImpedanceOutcome>,
    /// Largest degraded peak over all scenarios.
    pub worst_peak: Ohms,
    /// Name of the scenario producing it.
    pub worst_scenario: String,
    /// Scenarios that push |Z| over the target.
    pub violating_scenarios: usize,
}

impl FaultImpedanceReport {
    fn summarize(
        architecture: Architecture,
        target: Ohms,
        nominal_peak: Ohms,
        outcomes: Vec<FaultImpedanceOutcome>,
    ) -> Self {
        let mut worst_peak = Ohms::new(0.0);
        let mut worst_scenario = String::new();
        let mut violating = 0usize;
        for o in &outcomes {
            if o.peak.value() > worst_peak.value() {
                worst_peak = o.peak;
                worst_scenario = o.name.clone();
            }
            violating += usize::from(o.over_target);
        }
        Self {
            architecture,
            target,
            nominal_peak,
            outcomes,
            worst_peak,
            worst_scenario,
            violating_scenarios: violating,
        }
    }

    /// Worst fractional overshoot over all scenarios (`worst_peak /
    /// target − 1`).
    #[must_use]
    pub fn worst_excess(&self) -> f64 {
        self.worst_peak.value() / self.target.value() - 1.0
    }
}

/// Fault × frequency: the typed fault taxonomy applied value-only to a
/// compiled AC plan of the architecture's PDN ladder.
///
/// The ladder is compiled **once**; every scenario projects its faults
/// onto the lumped model ([`faulted_pdn_model`]), restamps the five
/// fault-touched stamps, and sweeps the frequency grid. Restamped
/// values are baked exactly as compilation would bake them, so the
/// degraded profile is bitwise identical to compiling the faulted
/// netlist from scratch — and serial == parallel bitwise, because each
/// scenario restamps every touched element from absolute values.
///
/// ```
/// use vpd_core::{Architecture, Calibration, FaultImpedanceSweep, FaultScenario, SystemSpec};
/// use vpd_circuit::log_sweep;
/// use vpd_units::Hertz;
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let sweep = FaultImpedanceSweep::new(
///     Architecture::InterposerEmbedded,
///     &SystemSpec::paper_default(),
///     &Calibration::paper_default(),
/// )?;
/// let freqs = log_sweep(Hertz::from_kilohertz(1.0), Hertz::new(1e9), 40);
/// let scenarios = FaultScenario::n_minus_1(sweep.vr_count());
/// let report = sweep.run(&scenarios, &freqs, 0)?;
/// // One module out of 48: the profile degrades but holds the target.
/// assert_eq!(report.violating_scenarios, 0);
/// assert!(report.worst_peak.value() > report.nominal_peak.value());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultImpedanceSweep {
    architecture: Architecture,
    model: PdnModel,
    n_vrs: usize,
    grid_side: usize,
    target: Ohms,
    plan: AcPlan,
    die: NodeId,
    elements: crate::impedance::PdnElements,
}

impl FaultImpedanceSweep {
    /// Compiles the architecture's ladder once, judged against the
    /// paper's target impedance (5% ripple, 25% load step).
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures from the model.
    pub fn new(
        architecture: Architecture,
        spec: &SystemSpec,
        calib: &Calibration,
    ) -> Result<Self, CoreError> {
        let (_, n_vrs) = session_placement(architecture, &AnalysisOptions::default());
        let model = PdnModel::for_architecture(architecture);
        let (net, die, elements) = model.netlist_tagged()?;
        Ok(Self {
            architecture,
            model,
            n_vrs,
            grid_side: calib.grid_nodes_per_side.max(4),
            target: target_impedance(spec, 0.05, 0.25),
            plan: AcPlan::compile(&net),
            die,
            elements,
        })
    }

    /// Number of regulator sites (the N of N-1).
    #[must_use]
    pub fn vr_count(&self) -> usize {
        self.n_vrs
    }

    /// Mesh nodes per side, for sizing region faults.
    #[must_use]
    pub fn grid_side(&self) -> usize {
        self.grid_side
    }

    /// The target impedance scenarios are judged against.
    #[must_use]
    pub fn target(&self) -> Ohms {
        self.target
    }

    /// The fault-free lumped model the sweep perturbs.
    #[must_use]
    pub fn nominal_model(&self) -> &PdnModel {
        &self.model
    }

    /// The lumped model under one scenario (see [`faulted_pdn_model`]).
    ///
    /// # Errors
    ///
    /// Propagates fault-validation failures.
    pub fn faulted_model(&self, scenario: &FaultScenario) -> Result<PdnModel, CoreError> {
        faulted_pdn_model(&self.model, self.n_vrs, self.grid_side, scenario)
    }

    fn restamp(&self, plan: &mut AcPlan, m: &PdnModel) -> Result<(), CoreError> {
        let e = &self.elements;
        plan.set_resistance(e.vr_resistance, m.vr_resistance)
            .map_err(CoreError::Circuit)?;
        plan.set_inductance(e.vr_inductance, m.vr_inductance)
            .map_err(CoreError::Circuit)?;
        plan.set_capacitance(e.bulk_capacitance, m.bulk_capacitance)
            .map_err(CoreError::Circuit)?;
        plan.set_resistance(e.distribution_resistance, m.distribution_resistance)
            .map_err(CoreError::Circuit)?;
        plan.set_resistance(e.vertical_resistance, m.vertical_resistance)
            .map_err(CoreError::Circuit)?;
        Ok(())
    }

    fn profile_over(
        &self,
        plan: &mut AcPlan,
        label: String,
        freqs: &[Hertz],
    ) -> Result<ImpedanceProfile, CoreError> {
        let mut points = Vec::with_capacity(freqs.len());
        for &f in freqs {
            points.push(plan.impedance_at(self.die, f).map_err(CoreError::Circuit)?);
        }
        Ok(ImpedanceProfile::from_points(label, points, self.target))
    }

    /// The full degraded profile of one scenario — what the summary
    /// outcomes are derived from, exposed for plotting and for the
    /// restamp-equals-scratch property tests.
    ///
    /// # Errors
    ///
    /// Propagates fault-validation and AC-solve failures.
    pub fn profile(
        &self,
        scenario: &FaultScenario,
        freqs: &[Hertz],
    ) -> Result<ImpedanceProfile, CoreError> {
        let faulted = self.faulted_model(scenario)?;
        let mut plan = self.plan.clone();
        self.restamp(&mut plan, &faulted)?;
        self.profile_over(&mut plan, scenario.name.clone(), freqs)
    }

    /// Evaluates every scenario over `freqs` on `threads` workers
    /// (0 = auto). The result is bitwise-independent of `threads`.
    ///
    /// # Errors
    ///
    /// The first scenario evaluation failure, in scenario order.
    pub fn run(
        &self,
        scenarios: &[FaultScenario],
        freqs: &[Hertz],
        threads: usize,
    ) -> Result<FaultImpedanceReport, CoreError> {
        let _span = vpd_obs::span("faultdyn.impedance_ns");
        let nominal_peak = {
            let mut plan = self.plan.clone();
            self.profile_over(&mut plan, "nominal".into(), freqs)?.peak
        };
        let results = par_map_with(threads, scenarios, &self.plan, |plan, scenario| {
            let faulted = self.faulted_model(scenario)?;
            self.restamp(plan, &faulted)?;
            let profile = self.profile_over(plan, scenario.name.clone(), freqs)?;
            Ok::<_, CoreError>(FaultImpedanceOutcome {
                name: profile.label.clone(),
                peak: profile.peak,
                peak_frequency: profile.peak_frequency,
                first_violation: profile.first_violation,
                over_target: !profile.meets_target(),
                excess: profile.peak.value() / self.target.value() - 1.0,
            })
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            outcomes.push(r?);
        }
        vpd_obs::incr("faultdyn.impedance_runs");
        vpd_obs::add("faultdyn.impedance_scenarios", outcomes.len() as u64);
        Ok(FaultImpedanceReport::summarize(
            self.architecture,
            self.target,
            nominal_peak,
            outcomes,
        ))
    }
}

/// One mid-run VR-failure stimulus: the bank dies at `fail_at`
/// (`None` = never — the healthy baseline).
#[derive(Clone, PartialEq, Debug)]
pub struct VrFailureScenario {
    /// Display name (`"nominal"`, `"fail@8.0us"`, …).
    pub name: String,
    /// When the regulator bank fails open, if ever.
    pub fail_at: Option<Seconds>,
}

impl VrFailureScenario {
    /// The healthy baseline plus `count` failure times evenly spaced
    /// across `(0, window]`.
    #[must_use]
    pub fn grid(count: usize, window: Seconds) -> Vec<Self> {
        let mut scenarios = vec![Self {
            name: "nominal".into(),
            fail_at: None,
        }];
        for i in 1..=count {
            let at = window.value() * i as f64 / count as f64;
            scenarios.push(Self {
                name: format!("fail@{:.2}us", at * 1e6),
                fail_at: Some(Seconds::new(at)),
            });
        }
        scenarios
    }
}

/// The rail's response to one VR-failure scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultTransientOutcome {
    /// Scenario name.
    pub name: String,
    /// When the bank failed, if it did.
    pub fail_at: Option<Seconds>,
    /// Rail voltage just before the first event (failure or load step).
    pub v_before: Volts,
    /// Minimum rail voltage from that point on.
    pub v_min: Volts,
    /// Worst excursion `v_before − v_min`.
    pub droop: Volts,
    /// Rail voltage at the end of the window.
    pub v_end: Volts,
    /// Whether the rail fell below half the setpoint — the supply is
    /// lost, not merely droopy.
    pub collapsed: bool,
}

/// Aggregate of a [`FaultTransientSweep::run`].
#[derive(Clone, PartialEq, Debug)]
pub struct FaultTransientReport {
    /// Swept architecture.
    pub architecture: Architecture,
    /// The load step every scenario carries.
    pub step: LoadStep,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<FaultTransientOutcome>,
    /// Largest droop excursion over all scenarios.
    pub worst_droop: Volts,
    /// Name of the scenario producing it.
    pub worst_scenario: String,
    /// Scenarios whose rail collapsed below half the setpoint.
    pub collapsed_scenarios: usize,
}

impl FaultTransientReport {
    fn summarize(
        architecture: Architecture,
        step: LoadStep,
        outcomes: Vec<FaultTransientOutcome>,
    ) -> Self {
        let mut worst_droop = Volts::new(0.0);
        let mut worst_scenario = String::new();
        let mut collapsed = 0usize;
        for o in &outcomes {
            if o.droop.value() > worst_droop.value() {
                worst_droop = o.droop;
                worst_scenario = o.name.clone();
            }
            collapsed += usize::from(o.collapsed);
        }
        Self {
            architecture,
            step,
            outcomes,
            worst_droop,
            worst_scenario,
            collapsed_scenarios: collapsed,
        }
    }
}

/// Mid-run VR-failure transients: the architecture's ladder behind a
/// series switch, compiled once into a [`TransientPlan`] and re-driven
/// per scenario.
///
/// Each scenario restamps only the switch drive (a
/// [`vpd_circuit::PwmSchedule`] failure event at its `fail_at`), so the
/// plan's switch-config LU cache carries exactly two factorizations —
/// healthy and failed — across every scenario. Scenarios also carry the
/// paper's load step, so the sweep shows how a failure *before*,
/// *during*, and *after* a load step differ.
#[derive(Clone, Debug)]
pub struct FaultTransientSweep {
    architecture: Architecture,
    plan: TransientPlan,
    die: NodeId,
    switch_el: ElementId,
    step: LoadStep,
    setpoint: Volts,
}

impl FaultTransientSweep {
    /// On-resistance of the series VR switch: negligible against the
    /// ladder's own output resistance.
    pub const SWITCH_ON_RESISTANCE: Ohms = Ohms::new(1e-7);

    /// Compiles the ladder + switch + load step into a reusable plan
    /// and prefactors the healthy switch configuration.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction, settings, and solver failures.
    pub fn new(
        architecture: Architecture,
        model: &PdnModel,
        step: &LoadStep,
        sim_time: Seconds,
        dt: Seconds,
    ) -> Result<Self, CoreError> {
        let mut net = vpd_circuit::Netlist::new();
        let src = net.node("vr_src");
        let vr = net.node("vr");
        let board = net.node("board");
        let pkg = net.node("pkg");
        let die = net.node("die");
        let g = net.ground();
        net.voltage_source(src, g, Volts::new(1.0))
            .map_err(CoreError::Circuit)?;
        let switch_el = net
            .switch(
                src,
                vr,
                Self::SWITCH_ON_RESISTANCE,
                OPEN_RESISTANCE,
                None,
                SwitchState::On,
            )
            .map_err(CoreError::Circuit)?;
        model.stamp_ladder(&mut net, vr, board, pkg, die)?;
        net.ramp_current_source(die, g, step.base, step.after, step.at, Seconds::ZERO)
            .map_err(CoreError::Circuit)?;
        let settings = TransientSettings::new(sim_time, dt).map_err(CoreError::Circuit)?;
        let mut plan = TransientPlan::compile(&net, &settings).map_err(CoreError::Circuit)?;
        plan.prefactor().map_err(CoreError::Circuit)?;
        Ok(Self {
            architecture,
            plan,
            die,
            switch_el,
            step: *step,
            setpoint: Volts::new(1.0),
        })
    }

    /// The load step every scenario carries.
    #[must_use]
    pub fn step(&self) -> LoadStep {
        self.step
    }

    /// Evaluates every scenario on `threads` workers (0 = auto). The
    /// result is bitwise-independent of `threads`.
    ///
    /// # Errors
    ///
    /// The first scenario evaluation failure, in scenario order.
    pub fn run(
        &self,
        scenarios: &[VrFailureScenario],
        threads: usize,
    ) -> Result<FaultTransientReport, CoreError> {
        let _span = vpd_obs::span("faultdyn.transient_ns");
        let results = par_map_with(threads, scenarios, &self.plan, |plan, scenario| {
            match scenario.fail_at {
                Some(at) => plan
                    .fail_switch_at(self.switch_el, at)
                    .map_err(CoreError::Circuit)?,
                None => plan
                    .set_switch_drive(self.switch_el, None, SwitchState::On)
                    .map_err(CoreError::Circuit)?,
            }
            plan.run().map_err(CoreError::Circuit)?;
            Ok::<_, CoreError>(self.derive(scenario, plan))
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            outcomes.push(r?);
        }
        vpd_obs::incr("faultdyn.transient_runs");
        vpd_obs::add("faultdyn.transient_scenarios", outcomes.len() as u64);
        Ok(FaultTransientReport::summarize(
            self.architecture,
            self.step,
            outcomes,
        ))
    }

    fn derive(&self, scenario: &VrFailureScenario, plan: &TransientPlan) -> FaultTransientOutcome {
        let result = plan.result();
        let v = result.voltage(self.die);
        // Reference point: just before the earliest event — the failure
        // or the load step, whichever fires first.
        let event = scenario
            .fail_at
            .map_or(self.step.at, |f| f.min(self.step.at));
        let (v_before, v_min) = dip(result.times(), v, event);
        FaultTransientOutcome {
            name: scenario.name.clone(),
            fail_at: scenario.fail_at,
            v_before: Volts::new(v_before),
            v_min: Volts::new(v_min),
            droop: Volts::new(v_before - v_min),
            v_end: Volts::new(*v.last().unwrap_or(&f64::NAN)),
            collapsed: v_min < 0.5 * self.setpoint.value(),
        }
    }
}

/// Settings for the electro-thermal cascade fixed point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CascadeSettings {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Convergence threshold on the peak-temperature change (kelvin).
    pub tolerance_k: f64,
    /// Device technology of the regulator switches.
    pub technology: DeviceTechnology,
    /// Fraction of a periphery module's heat that couples into the die
    /// mesh.
    pub periphery_coupling: f64,
    /// Peak temperature past which the loop is declared
    /// [`FixedPointTermination::Diverged`] — thermal runaway, not a
    /// fixed point.
    pub runaway_temperature_c: f64,
}

impl Default for CascadeSettings {
    fn default() -> Self {
        Self {
            max_iterations: 16,
            tolerance_k: 0.05,
            technology: DeviceTechnology::GaN,
            periphery_coupling: 0.3,
            runaway_temperature_c: 400.0,
        }
    }
}

/// One scenario's electro-thermal cascade result.
#[derive(Clone, PartialEq, Debug)]
pub struct CascadeOutcome {
    /// Scenario name.
    pub name: String,
    /// How the fixed-point loop ended.
    pub termination: FixedPointTermination,
    /// Iterations performed.
    pub iterations: usize,
    /// Worst IR drop below nominal at the final iterate.
    pub worst_drop: Volts,
    /// Peak die temperature at the final iterate.
    pub peak_temperature: Celsius,
    /// Hottest regulator junction.
    pub worst_module_temperature: Celsius,
    /// Modules whose loss derated above nominal (heated past the knee).
    pub derated_modules: usize,
    /// Surviving modules driven past the topology rating.
    pub overloaded_modules: usize,
    /// Whether every module junction stays within its rating.
    pub within_rating: bool,
}

/// Per-architecture rollup of the cascade outcomes: does the
/// architecture survive its contingency set?
#[derive(Clone, PartialEq, Debug)]
pub struct SurvivalEnvelope {
    /// Judged architecture.
    pub architecture: Architecture,
    /// Droop budget the final iterates are judged against (5% of the
    /// POL setpoint).
    pub droop_budget: Volts,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<CascadeOutcome>,
    /// Scenarios whose cascade converged.
    pub converged: usize,
    /// Scenarios stopped at the iteration cap.
    pub capped: usize,
    /// Scenarios that diverged (thermal runaway).
    pub diverged: usize,
    /// Largest final-iterate drop over all scenarios.
    pub worst_drop: Volts,
    /// Name of the scenario producing it.
    pub worst_drop_scenario: String,
    /// Largest peak temperature over all scenarios.
    pub peak_temperature: Celsius,
    /// Name of the scenario producing it.
    pub peak_temperature_scenario: String,
    /// Scenarios with at least one overloaded surviving module.
    pub overloaded_scenarios: usize,
    /// The verdict: every cascade converged, every junction within
    /// rating, and every final drop within the droop budget.
    pub survives: bool,
}

impl SurvivalEnvelope {
    fn summarize(
        architecture: Architecture,
        droop_budget: Volts,
        outcomes: Vec<CascadeOutcome>,
    ) -> Self {
        let mut converged = 0usize;
        let mut capped = 0usize;
        let mut diverged = 0usize;
        let mut worst_drop = Volts::new(0.0);
        let mut worst_drop_scenario = String::new();
        let mut peak_temperature = Celsius::new(f64::NEG_INFINITY);
        let mut peak_temperature_scenario = String::new();
        let mut overloaded = 0usize;
        let mut survives = true;
        for o in &outcomes {
            match o.termination {
                FixedPointTermination::Converged { .. } => converged += 1,
                FixedPointTermination::IterationCap { .. } => capped += 1,
                FixedPointTermination::Diverged { .. } => diverged += 1,
            }
            if o.worst_drop.value() > worst_drop.value() {
                worst_drop = o.worst_drop;
                worst_drop_scenario = o.name.clone();
            }
            if o.peak_temperature.value() > peak_temperature.value() {
                peak_temperature = o.peak_temperature;
                peak_temperature_scenario = o.name.clone();
            }
            overloaded += usize::from(o.overloaded_modules > 0);
            survives &= o.termination.converged()
                && o.within_rating
                && o.worst_drop.value() <= droop_budget.value();
        }
        survives &= !outcomes.is_empty();
        Self {
            architecture,
            droop_budget,
            outcomes,
            converged,
            capped,
            diverged,
            worst_drop,
            worst_drop_scenario,
            peak_temperature,
            peak_temperature_scenario,
            overloaded_scenarios: overloaded,
            survives,
        }
    }
}

/// The electro-thermal cascade engine: faulted DC solutions coupled
/// through the thermal mesh to a fixed point, per scenario.
///
/// The ladder: a fault kills a module → its neighbours pick up the
/// current → their conversion loss (deposited at their placement
/// sites) heats the die → the derating model raises their loss *and*
/// their droop resistance, shedding load onto the next ring — iterated
/// until the peak temperature settles, the iteration cap cuts it off,
/// or the loop runs away. The per-scenario verdict is the same typed
/// [`FixedPointTermination`] the electro-thermal analysis reports.
///
/// Grid, plan, thermal mesh, and logic heat map are built **once**;
/// every scenario is value-only restamps plus warm solves, bitwise
/// identical for every thread count.
#[derive(Clone, Debug)]
pub struct CascadeLadder {
    architecture: Architecture,
    spec: SystemSpec,
    calib: Calibration,
    droop: Ohms,
    rating: Option<Amps>,
    converter: Converter,
    solver: SharingSolver,
    sites: Vec<(usize, usize)>,
    mesh: ThermalMesh,
    derating: DeratingModel,
    logic: Vec<Vec<Watts>>,
    coupling: f64,
    settings: CascadeSettings,
}

impl CascadeLadder {
    /// Builds the engine for a vertical architecture (A1, A2, or
    /// A3@bus; the reference architecture has no regulator bank on the
    /// die mesh).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] for the reference architecture;
    /// otherwise any grid, thermal-mesh, or nominal-solve failure.
    pub fn new(
        architecture: Architecture,
        topology: VrTopologyKind,
        spec: &SystemSpec,
        calib: &Calibration,
        settings: &CascadeSettings,
    ) -> Result<Self, CoreError> {
        let (placement, n_vrs) = session_placement(architecture, &AnalysisOptions::default());
        let (converter, rating) = match architecture {
            Architecture::Reference => {
                return Err(CoreError::InvalidSpec {
                    what: "cascade analysis requires a vertical architecture",
                    value: 0.0,
                })
            }
            Architecture::InterposerPeriphery | Architecture::InterposerEmbedded => (
                crate::single_stage_converter(topology),
                TopologyCharacteristics::table_ii(topology).max_load,
            ),
            Architecture::TwoStage { bus } => {
                let conv = second_stage_converter(bus)?;
                let rating = conv.max_load();
                (conv, rating)
            }
        };
        let (sites, droop) = placement_sites(placement, calib, n_vrs);
        let mut solver = SharingSolver::new(spec, calib, &sites, droop)?;
        solver.solve()?;
        solver.anchor_last();

        let n = calib.grid_nodes_per_side.max(4);
        let mesh = ThermalMesh::silicon_die_default(n, n).map_err(CoreError::Thermal)?;
        let derating = DeratingModel::for_technology(settings.technology);
        let logic = calib
            .power_map
            .thermally_averaged()
            .node_currents(n, n, spec.pol_current())
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|i| i * spec.pol_voltage())
                    .collect::<Vec<Watts>>()
            })
            .collect::<Vec<_>>();
        let coupling = match placement {
            VrPlacement::Periphery => settings.periphery_coupling.clamp(0.0, 1.0),
            VrPlacement::BelowDie => 1.0,
        };
        Ok(Self {
            architecture,
            spec: *spec,
            calib: *calib,
            droop,
            rating: Some(rating),
            converter,
            solver,
            sites,
            mesh,
            derating,
            logic,
            coupling,
            settings: *settings,
        })
    }

    /// Number of regulator sites (the N of N-1).
    #[must_use]
    pub fn vr_count(&self) -> usize {
        self.solver.vr_count()
    }

    /// Mesh nodes per side, for sizing region faults.
    #[must_use]
    pub fn grid_side(&self) -> usize {
        self.solver.grid_side()
    }

    /// Evaluates every scenario's cascade on `threads` workers
    /// (0 = auto); rolls the outcomes into the architecture's survival
    /// envelope. The result is bitwise-independent of `threads`.
    ///
    /// # Errors
    ///
    /// The first scenario evaluation failure, in scenario order.
    pub fn run(
        &self,
        scenarios: &[FaultScenario],
        threads: usize,
    ) -> Result<SurvivalEnvelope, CoreError> {
        let _span = vpd_obs::span("faultdyn.cascade_ns");
        let results = par_map_with(threads, scenarios, &self.solver, |solver, scenario| {
            self.evaluate(solver, scenario)
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            outcomes.push(r?);
        }
        vpd_obs::incr("faultdyn.cascade_runs");
        vpd_obs::add("faultdyn.cascade_scenarios", outcomes.len() as u64);
        let budget = Volts::new(self.spec.pol_voltage().value() * 0.05);
        Ok(SurvivalEnvelope::summarize(
            self.architecture,
            budget,
            outcomes,
        ))
    }

    /// One scenario's cascade: restamp to nominal, inject the faults,
    /// then iterate DC ⇄ thermal to a fixed point.
    fn evaluate(
        &self,
        solver: &mut SharingSolver,
        scenario: &FaultScenario,
    ) -> Result<CascadeOutcome, CoreError> {
        let n_vrs = solver.vr_count();
        let n = self.calib.grid_nodes_per_side.max(4);
        solver.restamp(&self.spec, &self.calib, self.droop)?;
        for fault in &scenario.faults {
            apply_fault(solver, fault)?;
        }
        let opened = scenario.opened(n_vrs);
        // The faulted droops are the baseline the thermal shed scales:
        // droop_k(T) = droop_k(fault) · loss_factor(T_k).
        let base_droop: Vec<Ohms> = (0..n_vrs)
            .map(|k| {
                solver.vr_droop(k).ok_or(CoreError::InvalidSpec {
                    what: "regulator index",
                    value: k as f64,
                })
            })
            .collect::<Result<_, _>>()?;
        let mut report = solver.solve()?;
        let mut factors = vec![1.0_f64; n_vrs];
        let mut last_peak = f64::NEG_INFINITY;
        let mut residual_k = f64::INFINITY;
        let mut iterations = 0usize;
        let mut termination = None;
        let mut peak = Celsius::new(0.0);
        let mut worst_module = Celsius::new(0.0);
        while iterations < self.settings.max_iterations {
            iterations += 1;
            // Heat map: logic + surviving modules' derated conversion
            // loss over their 3×3 footprint patches. A dead module's
            // output stage dissipates nothing.
            let mut heat = self.logic.clone();
            for (k, &(x, y)) in self.sites.iter().enumerate() {
                if opened[k] {
                    continue;
                }
                let loss = self.converter.curve().loss_unchecked(report.per_vr()[k]);
                let total = loss * factors[k] * self.coupling;
                let mut patch = Vec::new();
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let px = x as i64 + dx;
                        let py = y as i64 + dy;
                        if (0..n as i64).contains(&px) && (0..n as i64).contains(&py) {
                            patch.push((px as usize, py as usize));
                        }
                    }
                }
                let share = total / patch.len() as f64;
                for (px, py) in patch {
                    heat[py][px] += share;
                }
            }
            let map = self.mesh.solve(&heat).map_err(CoreError::Thermal)?;
            peak = map.max();
            worst_module = self
                .sites
                .iter()
                .map(|&(x, y)| map.at(x, y))
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max);
            for (factor, &(x, y)) in factors.iter_mut().zip(&self.sites) {
                *factor = self.derating.loss_factor(map.at(x, y));
            }
            if !peak.value().is_finite() || peak.value() > self.settings.runaway_temperature_c {
                termination = Some(FixedPointTermination::Diverged { residual_k });
                break;
            }
            residual_k = (peak.value() - last_peak).abs();
            if residual_k < self.settings.tolerance_k {
                termination = Some(FixedPointTermination::Converged { residual_k });
                break;
            }
            last_peak = peak.value();
            // Electrical feedback: a heated module's output stage
            // derates, raising its droop resistance — it sheds load to
            // cooler neighbours, moving the heat with it.
            for k in 0..n_vrs {
                if opened[k] {
                    continue;
                }
                solver.set_vr_droop(k, base_droop[k] * factors[k])?;
            }
            report = solver.solve()?;
        }
        let termination = termination.unwrap_or(FixedPointTermination::IterationCap { residual_k });

        let mut overloaded = 0usize;
        for (k, amps) in report.per_vr().iter().enumerate() {
            if opened[k] {
                continue;
            }
            if self.rating.is_some_and(|r| amps.value() > r.value()) {
                overloaded += 1;
            }
        }
        Ok(CascadeOutcome {
            name: scenario.name.clone(),
            termination,
            iterations,
            worst_drop: report.worst_drop(),
            peak_temperature: peak,
            worst_module_temperature: worst_module,
            derated_modules: factors.iter().filter(|f| **f > 1.0 + 1e-9).count(),
            overloaded_modules: overloaded,
            within_rating: self.derating.within_rating(worst_module),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_circuit::log_sweep;

    fn env() -> (SystemSpec, Calibration) {
        (SystemSpec::paper_default(), Calibration::paper_default())
    }

    fn freqs() -> Vec<Hertz> {
        log_sweep(Hertz::from_kilohertz(1.0), Hertz::new(1e9), 40)
    }

    #[test]
    fn faulted_model_mapping_is_physical() {
        let (_, calib) = env();
        let model = PdnModel::for_architecture(Architecture::InterposerEmbedded);
        let n = 48;
        let g = calib.grid_nodes_per_side;
        let one_open = faulted_pdn_model(
            &model,
            n,
            g,
            &FaultScenario {
                name: "n-1".into(),
                faults: vec![Fault::VrOpen { index: 0 }],
            },
        )
        .unwrap();
        // 47 survivors of 48: R and L grow by 48/47 exactly.
        let scale = 48.0 / 47.0;
        assert!(
            (one_open.vr_resistance.value() / model.vr_resistance.value() - scale).abs() < 1e-12
        );
        assert!(
            (one_open.vr_inductance.value() / model.vr_inductance.value() - scale).abs() < 1e-12
        );
        // Output caps stay on the rail.
        assert_eq!(one_open.bulk_capacitance, model.bulk_capacitance);

        // Whole-grid region fault ≡ sheet degradation.
        let region = faulted_pdn_model(
            &model,
            n,
            g,
            &FaultScenario {
                name: "region".into(),
                faults: vec![Fault::RegionOpen {
                    x0: 0,
                    y0: 0,
                    x1: g - 1,
                    y1: g - 1,
                    factor: 3.0,
                }],
            },
        )
        .unwrap();
        let sheet = faulted_pdn_model(
            &model,
            n,
            g,
            &FaultScenario {
                name: "sheet".into(),
                faults: vec![Fault::SheetDegradation { factor: 3.0 }],
            },
        )
        .unwrap();
        assert_eq!(region, sheet);
        assert_eq!(
            sheet.distribution_resistance.value(),
            3.0 * model.distribution_resistance.value()
        );

        // Setpoint drift is a DC trim offset: no small-signal change.
        let drift = faulted_pdn_model(
            &model,
            n,
            g,
            &FaultScenario {
                name: "drift".into(),
                faults: vec![Fault::SetpointDrift {
                    index: 3,
                    delta: Volts::from_millivolts(-2.0),
                }],
            },
        )
        .unwrap();
        assert_eq!(drift, model);

        // All modules open: the regulator branch is an open.
        let all = FaultScenario {
            name: "all".into(),
            faults: (0..n).map(|index| Fault::VrOpen { index }).collect(),
        };
        let dead = faulted_pdn_model(&model, n, g, &all).unwrap();
        assert_eq!(dead.vr_resistance, OPEN_RESISTANCE);

        // Invalid inputs are typed errors, not panics.
        for bad in [
            FaultScenario {
                name: "idx".into(),
                faults: vec![Fault::VrOpen { index: n }],
            },
            FaultScenario {
                name: "factor".into(),
                faults: vec![Fault::VrDerated {
                    index: 0,
                    factor: -1.0,
                }],
            },
            FaultScenario {
                name: "rect".into(),
                faults: vec![Fault::RegionOpen {
                    x0: 0,
                    y0: 0,
                    x1: g,
                    y1: g,
                    factor: 2.0,
                }],
            },
        ] {
            assert!(
                matches!(
                    faulted_pdn_model(&model, n, g, &bad),
                    Err(CoreError::InvalidSpec { .. })
                ),
                "{}",
                bad.name
            );
        }
    }

    #[test]
    fn restamped_profile_matches_faulted_netlist_from_scratch_bitwise() {
        let (spec, calib) = env();
        let sweep =
            FaultImpedanceSweep::new(Architecture::InterposerPeriphery, &spec, &calib).unwrap();
        let mut scenarios = FaultScenario::n_minus_1(4);
        scenarios.push(FaultScenario {
            name: "compound".into(),
            faults: vec![
                Fault::VrOpen { index: 7 },
                Fault::VrDerated {
                    index: 9,
                    factor: 4.0,
                },
                Fault::SheetDegradation { factor: 1.7 },
            ],
        });
        for scenario in &scenarios {
            let restamped = sweep.profile(scenario, &freqs()).unwrap();
            let faulted = sweep.faulted_model(scenario).unwrap();
            let scratch = faulted.impedance_profile(&freqs()).unwrap();
            assert_eq!(restamped.points, scratch, "{}", scenario.name);
        }
    }

    #[test]
    fn impedance_sweep_serial_equals_parallel_and_degrades_monotonically() {
        let (spec, calib) = env();
        let sweep =
            FaultImpedanceSweep::new(Architecture::InterposerEmbedded, &spec, &calib).unwrap();
        let mut scenarios = FaultScenario::n_minus_1(6);
        scenarios.extend(FaultScenario::random_k(
            2,
            6,
            0xFD,
            sweep.vr_count(),
            sweep.grid_side(),
        ));
        let serial = sweep.run(&scenarios, &freqs(), 1).unwrap();
        for threads in [2, 5] {
            let parallel = sweep.run(&scenarios, &freqs(), threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Losing a module raises both the bank's R and L: every N-1
        // peak degrades. (Random scenarios are exempt — added series
        // resistance can *damp* an antiresonant peak.)
        for o in &serial.outcomes[..6] {
            assert!(
                o.peak.value() >= serial.nominal_peak.value() * (1.0 - 1e-12),
                "{}: {} vs nominal {}",
                o.name,
                o.peak,
                serial.nominal_peak
            );
        }
        for o in &serial.outcomes {
            assert_eq!(o.over_target, o.first_violation.is_some());
            assert!((o.excess - (o.peak.value() / serial.target.value() - 1.0)).abs() < 1e-15);
        }
        // A2 holds the target through any single contingency.
        assert_eq!(serial.violating_scenarios, 0);
        assert!(serial.worst_excess() < 0.0);
    }

    #[test]
    fn losing_the_whole_bank_pushes_any_architecture_over_target() {
        let (spec, calib) = env();
        let sweep =
            FaultImpedanceSweep::new(Architecture::InterposerEmbedded, &spec, &calib).unwrap();
        let n = sweep.vr_count();
        let all = FaultScenario {
            name: "bank-dead".into(),
            faults: (0..n).map(|index| Fault::VrOpen { index }).collect(),
        };
        let report = sweep.run(&[all], &freqs(), 1).unwrap();
        assert_eq!(report.violating_scenarios, 1);
        assert!(report.outcomes[0].over_target);
        assert!(report.worst_excess() > 0.0);
    }

    #[test]
    fn transient_sweep_serial_equals_parallel_and_collapse_tracks_fail_time() {
        let (spec, _) = env();
        let model = PdnModel::for_architecture(Architecture::InterposerEmbedded);
        let step = LoadStep::paper_default(&spec);
        let sweep = FaultTransientSweep::new(
            Architecture::InterposerEmbedded,
            &model,
            &step,
            Seconds::from_microseconds(20.0),
            Seconds::from_nanoseconds(40.0),
        )
        .unwrap();
        let scenarios = VrFailureScenario::grid(4, Seconds::from_microseconds(16.0));
        let serial = sweep.run(&scenarios, 1).unwrap();
        for threads in [2, 3] {
            assert_eq!(serial, sweep.run(&scenarios, threads).unwrap());
        }
        // The healthy baseline holds the rail; every failure collapses
        // it before the window ends.
        let nominal = &serial.outcomes[0];
        assert_eq!(nominal.fail_at, None);
        assert!(!nominal.collapsed, "nominal v_min {}", nominal.v_min);
        for o in &serial.outcomes[1..] {
            assert!(o.collapsed, "{}: v_min {}", o.name, o.v_min);
            assert!(o.droop.value() > nominal.droop.value());
        }
        assert_eq!(serial.collapsed_scenarios, serial.outcomes.len() - 1);
        // A later failure leaves less discharge time: the rail ends
        // higher (weakly) as fail_at grows.
        let ends: Vec<f64> = serial.outcomes[1..]
            .iter()
            .map(|o| o.v_end.value())
            .collect();
        assert!(ends.windows(2).all(|w| w[1] >= w[0] - 1e-12), "{ends:?}");
    }

    #[test]
    fn cascade_converges_for_n_minus_1_and_reports_typed_verdicts() {
        let (spec, calib) = env();
        let ladder = CascadeLadder::new(
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &CascadeSettings::default(),
        )
        .unwrap();
        let scenarios: Vec<_> = FaultScenario::n_minus_1(ladder.vr_count())
            .into_iter()
            .take(6)
            .collect();
        let serial = ladder.run(&scenarios, 1).unwrap();
        for threads in [2, 4] {
            assert_eq!(serial, ladder.run(&scenarios, threads).unwrap());
        }
        assert_eq!(serial.outcomes.len(), 6);
        assert_eq!(serial.converged, 6);
        assert_eq!(serial.capped + serial.diverged, 0);
        for o in &serial.outcomes {
            assert!(o.termination.converged());
            assert!(o.iterations >= 2);
            assert!(o.worst_drop.value() > 0.0);
            assert!(o.peak_temperature.value() > 25.0);
            assert!(o.worst_module_temperature.value() <= o.peak_temperature.value() + 1e-9);
            assert!(o.derated_modules > 0, "heating must derate someone");
        }
        assert!(!serial.worst_drop_scenario.is_empty());
        assert!(serial.peak_temperature.value() >= 25.0);
    }

    #[test]
    fn cascade_iteration_cap_is_a_typed_verdict_not_a_hang() {
        let (spec, calib) = env();
        let ladder = CascadeLadder::new(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &CascadeSettings {
                max_iterations: 2,
                tolerance_k: 0.0,
                ..CascadeSettings::default()
            },
        )
        .unwrap();
        let envelope = ladder
            .run(&FaultScenario::n_minus_1(ladder.vr_count())[..2], 1)
            .unwrap();
        assert_eq!(envelope.capped, 2);
        assert!(!envelope.survives);
        for o in &envelope.outcomes {
            assert_eq!(o.iterations, 2);
            assert!(matches!(
                o.termination,
                FixedPointTermination::IterationCap { .. }
            ));
            assert!(o.termination.residual_k().is_finite());
        }
    }

    #[test]
    fn cascade_runaway_threshold_is_a_divergence_verdict() {
        let (spec, calib) = env();
        let ladder = CascadeLadder::new(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &CascadeSettings {
                // Any real solve exceeds room temperature: declare
                // everything runaway to pin the verdict plumbing.
                runaway_temperature_c: 25.0,
                ..CascadeSettings::default()
            },
        )
        .unwrap();
        let envelope = ladder
            .run(&FaultScenario::n_minus_1(ladder.vr_count())[..1], 1)
            .unwrap();
        assert_eq!(envelope.diverged, 1);
        assert!(!envelope.survives);
        assert!(matches!(
            envelope.outcomes[0].termination,
            FixedPointTermination::Diverged { .. }
        ));
    }

    #[test]
    fn cascade_rejects_the_reference_architecture() {
        let (spec, calib) = env();
        assert!(matches!(
            CascadeLadder::new(
                Architecture::Reference,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &CascadeSettings::default(),
            ),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn empty_scenario_set_never_survives() {
        let env = SurvivalEnvelope::summarize(
            Architecture::InterposerPeriphery,
            Volts::new(0.05),
            Vec::new(),
        );
        assert!(!env.survives);
        assert_eq!(env.converged + env.capped + env.diverged, 0);
    }
}
