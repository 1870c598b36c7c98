//! Fault injection and solver-resilience sweeps.
//!
//! The paper's architectures differ not only in nominal efficiency but
//! in how gracefully they degrade: A1's periphery ring shares a lost
//! module's current across many neighbours at similar distance, while
//! A2's under-die modules localize onto the hotspot — losing the
//! central module dumps its ~93 A onto a handful of survivors. This
//! module quantifies that contrast. Faults are *value-only* edits: an
//! open module is a ≈GΩ droop, a failed via patch is a resistance-scaled
//! mesh rectangle, so the compiled sparse plan survives every scenario.
//!
//! Two paths answer a scenario. A *VR-local* one (opens, derates and
//! setpoint drifts only) changes one diagonal and one right-hand-side
//! entry of the reduced mesh system per module it touches, so it is a
//! low-rank update of one exact nominal solve
//! ([`vpd_circuit::RegulatorResponse`]). Region and sheet faults go
//! through [`SharingSolver`]'s restamp hooks and a warm solve.
//!
//! Determinism contract: each scenario's outcome is a pure function of
//! (engine, scenario) — the low-rank path reads only state fixed at
//! construction, and the restamp path restamps back to nominal before
//! injecting its faults and warm-starts from the one shared anchor, so
//! [`FaultSweep::run`] returns bitwise-identical results for every
//! thread count (see [`crate::par_map_with`]).

use crate::arch::{second_stage_converter, session_placement};
use crate::gridshare::placement_sites;
use crate::mc::sample_rng;
use crate::{
    par_map_with, AnalysisOptions, Architecture, Calibration, CoreError, SharingReport,
    SharingSolver, SystemSpec,
};
use rand::Rng;
use vpd_circuit::{DcPlanMode, RegulatorEdit, RegulatorResponse};
use vpd_converters::{TopologyCharacteristics, VrTopologyKind};
use vpd_numeric::SolveReport;
use vpd_units::{Amps, Ohms, Volts};

/// Droop resistance that models an electrically open module: large
/// enough that the module's current is numerically zero, small enough
/// that its conductance stamp (≈1 nS against ≈kS mesh diagonals) keeps
/// the system comfortably positive definite.
pub const OPEN_RESISTANCE: Ohms = Ohms::new(1e9);

/// One injectable defect. Indices are regulator site indices; mesh
/// coordinates are grid node coordinates.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum Fault {
    /// Module `index` fails open (carries no current).
    VrOpen {
        /// Regulator site index.
        index: usize,
    },
    /// Module `index`'s droop resistance grows by `factor` (degraded
    /// output stage / partial attach failure).
    VrDerated {
        /// Regulator site index.
        index: usize,
        /// Droop multiplier (> 1 degrades).
        factor: f64,
    },
    /// Module `index`'s setpoint drifts by `delta` from nominal
    /// (trim/feedback error). Worst-drop stays referenced to nominal.
    SetpointDrift {
        /// Regulator site index.
        index: usize,
        /// Signed setpoint offset.
        delta: Volts,
    },
    /// Every mesh edge inside `[x0, x1] × [y0, y1]` gains resistance by
    /// `factor` — an open or high-resistance C4/TSV/µ-bump patch.
    RegionOpen {
        /// Left edge (node x).
        x0: usize,
        /// Bottom edge (node y).
        y0: usize,
        /// Right edge (inclusive).
        x1: usize,
        /// Top edge (inclusive).
        y1: usize,
        /// Resistance multiplier (> 1 degrades).
        factor: f64,
    },
    /// Whole-grid sheet-resistance degradation (electromigration,
    /// thermal derating) by `factor`.
    SheetDegradation {
        /// Resistance multiplier (> 1 degrades).
        factor: f64,
    },
}

/// A named set of simultaneous faults evaluated as one operating point.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultScenario {
    /// Display name (`"n-1/vr07"`, `"random-3/012"`, …).
    pub name: String,
    /// Faults applied together, in order.
    pub faults: Vec<Fault>,
}

impl FaultScenario {
    /// The classic N-1 contingency set: one scenario per module, each
    /// opening exactly that module.
    #[must_use]
    pub fn n_minus_1(n_vrs: usize) -> Vec<Self> {
        (0..n_vrs)
            .map(|index| Self {
                name: format!("n-1/vr{index:02}"),
                faults: vec![Fault::VrOpen { index }],
            })
            .collect()
    }

    /// `count` random scenarios of `k` simultaneous faults each, drawn
    /// over all fault kinds. Scenario `i`'s draws come from an RNG
    /// seeded by `(seed, i)` alone, so the set is reproducible and
    /// independent of evaluation order.
    #[must_use]
    pub fn random_k(
        k: usize,
        count: usize,
        seed: u64,
        n_vrs: usize,
        grid_side: usize,
    ) -> Vec<Self> {
        (0..count)
            .map(|i| {
                let mut rng = sample_rng(seed, i);
                let faults = (0..k)
                    .map(|_| random_fault(&mut rng, n_vrs, grid_side))
                    .collect();
                Self {
                    name: format!("random-{k}/{i:03}"),
                    faults,
                }
            })
            .collect()
    }

    /// Regulator indices this scenario opens (used to separate the
    /// surviving-module statistics from the dead modules).
    pub(crate) fn opened(&self, n_vrs: usize) -> Vec<bool> {
        let mut opened = vec![false; n_vrs];
        for fault in &self.faults {
            if let Fault::VrOpen { index } = *fault {
                if let Some(slot) = opened.get_mut(index) {
                    *slot = true;
                }
            }
        }
        opened
    }
}

fn random_fault(rng: &mut impl Rng, n_vrs: usize, grid_side: usize) -> Fault {
    let index = rng.gen_range(0..n_vrs);
    match rng.gen_range(0_u32..10) {
        0..=4 => Fault::VrOpen { index },
        5 | 6 => Fault::VrDerated {
            index,
            factor: rng.gen_range(2.0..10.0),
        },
        7 | 8 => Fault::SetpointDrift {
            index,
            delta: Volts::from_millivolts(-rng.gen_range(0.5..3.0)),
        },
        _ => {
            let patch = (grid_side / 5).max(2);
            let x0 = rng.gen_range(0..grid_side - patch);
            let y0 = rng.gen_range(0..grid_side - patch);
            Fault::RegionOpen {
                x0,
                y0,
                x1: x0 + patch,
                y1: y0 + patch,
                factor: rng.gen_range(5.0..50.0),
            }
        }
    }
}

/// The solved electrical state under one fault scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Worst IR drop below the *nominal* setpoint.
    pub worst_drop: Volts,
    /// Smallest surviving-module current.
    pub surviving_min: Amps,
    /// Largest surviving-module current.
    pub surviving_max: Amps,
    /// Mean surviving-module current.
    pub surviving_mean: Amps,
    /// Load imbalance among survivors: `max / mean` (≥ 1). Ratio to
    /// the mean rather than the minimum because a faulted module can
    /// legitimately back-feed (≤ 0 A), which would make `max / min`
    /// unbounded; the survivor mean is always positive (the survivors
    /// carry the whole load).
    pub spread: f64,
    /// Surviving modules driven beyond the topology's rating.
    pub overloaded_modules: usize,
    /// Whether the solver left the plain warm-CG rung (cold restart or
    /// dense-LU fallback) to produce this solution.
    pub used_fallback: bool,
    /// Whether CG stagnated along the way.
    pub stagnated: bool,
    /// Iterations spent across all solver rungs.
    pub iterations: usize,
}

/// Aggregate of a [`FaultSweep::run`] over a scenario set.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultSweepReport {
    /// Swept architecture.
    pub architecture: Architecture,
    /// Per-module rating used for overload counting (None for the
    /// reference architecture's passive entry clusters).
    pub rating: Option<Amps>,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Largest worst-case drop over all scenarios.
    pub worst_drop: Volts,
    /// Name of the scenario producing it.
    pub worst_scenario: String,
    /// Largest surviving-module spread over all scenarios.
    pub max_spread: f64,
    /// Largest single surviving-module current over all scenarios.
    pub worst_surviving_current: Amps,
    /// Scenarios whose solution needed a restart or dense fallback.
    pub fallback_count: usize,
    /// Scenarios in which CG stagnated.
    pub stagnation_count: usize,
    /// Scenarios with at least one overloaded surviving module.
    pub overloaded_scenarios: usize,
    /// Scenarios answered from the nominal regulator response, with no
    /// restamp and no mesh solve.
    pub lowrank_scenarios: usize,
    /// VR-local scenarios whose low-rank update failed the conditioning
    /// guard and were restamped and solved instead.
    pub lowrank_fallbacks: usize,
}

impl FaultSweepReport {
    fn summarize(
        architecture: Architecture,
        rating: Option<Amps>,
        outcomes: Vec<ScenarioOutcome>,
    ) -> Self {
        let mut worst_drop = Volts::new(0.0);
        let mut worst_scenario = String::new();
        let mut max_spread = 0.0_f64;
        let mut worst_current = Amps::ZERO;
        let mut fallback_count = 0;
        let mut stagnation_count = 0;
        let mut overloaded_scenarios = 0;
        for o in &outcomes {
            if o.worst_drop.value() > worst_drop.value() {
                worst_drop = o.worst_drop;
                worst_scenario = o.name.clone();
            }
            max_spread = max_spread.max(o.spread);
            worst_current = worst_current.max(o.surviving_max);
            fallback_count += usize::from(o.used_fallback);
            stagnation_count += usize::from(o.stagnated);
            overloaded_scenarios += usize::from(o.overloaded_modules > 0);
        }
        Self {
            architecture,
            rating,
            outcomes,
            worst_drop,
            worst_scenario,
            max_spread,
            worst_surviving_current: worst_current,
            fallback_count,
            stagnation_count,
            overloaded_scenarios,
            lowrank_scenarios: 0,
            lowrank_fallbacks: 0,
        }
    }

    /// Worst-case current margin against the module rating:
    /// `1 − worst_surviving / rating`. Negative means some scenario
    /// drives a module past its rating; `None` when the architecture
    /// has no rated modules, when the sweep evaluated no scenarios
    /// (there is no worst current to compare), or when the rating is
    /// degenerate (zero, negative, or non-finite) — the ratio would be
    /// ±inf/NaN rather than a margin.
    #[must_use]
    pub fn margin(&self) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        let r = self.rating?.value();
        if !(r > 0.0 && r.is_finite()) {
            return None;
        }
        let m = 1.0 - self.worst_surviving_current.value() / r;
        m.is_finite().then_some(m)
    }
}

/// A reusable fault-sweep engine for one architecture × topology
/// configuration: the grid is built and its solve plan compiled once,
/// the nominal operating point is solved and pinned as the warm-start
/// anchor, and the nominal regulator response is factored once. Every
/// VR-local scenario is then a small dense update of that response, and
/// every other scenario a value-only restamp plus a warm solve —
/// embarrassingly parallel over scenarios.
///
/// ```
/// use vpd_core::{Calibration, FaultScenario, FaultSweep, Architecture, SystemSpec};
/// use vpd_converters::VrTopologyKind;
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let sweep = FaultSweep::new(
///     Architecture::InterposerEmbedded,
///     VrTopologyKind::Dsch,
///     &SystemSpec::paper_default(),
///     &Calibration::paper_default(),
/// )?;
/// let scenarios = FaultScenario::n_minus_1(sweep.vr_count());
/// let report = sweep.run(&scenarios, 0)?;
/// assert_eq!(report.outcomes.len(), sweep.vr_count());
/// // Losing a module always hurts the worst-case droop.
/// assert!(report.worst_drop.value() > sweep.nominal().worst_drop().value());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FaultSweep {
    architecture: Architecture,
    spec: SystemSpec,
    calib: Calibration,
    droop: Ohms,
    rating: Option<Amps>,
    solver: SharingSolver,
    nominal: SharingReport,
    /// Exact nominal solve plus one `A⁻¹` column per regulator site: the
    /// low-rank path for VR-local scenarios. `None` above the size cap.
    response: Option<RegulatorResponse>,
}

/// How [`FaultSweep::run`] answered one scenario.
enum Route {
    /// From the nominal regulator response, with no restamp or solve.
    LowRank(ScenarioOutcome),
    /// VR-local, but its update failed the conditioning guard.
    Guarded,
    /// Not VR-local (or not valid): restamp to nominal, inject, solve.
    Restamp,
}

impl FaultSweep {
    /// Builds the grid for `architecture` (paper placement and module
    /// count), compiles its plan, anchors the nominal solution, and
    /// builds the nominal regulator response when the mesh fits its size
    /// cap.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] if the grid cannot be built or the
    /// nominal point cannot be solved; [`CoreError::Converter`] for an
    /// uncalibrated two-stage bus.
    pub fn new(
        architecture: Architecture,
        topology: VrTopologyKind,
        spec: &SystemSpec,
        calib: &Calibration,
    ) -> Result<Self, CoreError> {
        let (placement, n_vrs) = session_placement(architecture, &AnalysisOptions::default());
        let (sites, droop) = placement_sites(placement, calib, n_vrs);
        let rating = match architecture {
            Architecture::Reference => None,
            Architecture::InterposerPeriphery | Architecture::InterposerEmbedded => {
                Some(TopologyCharacteristics::table_ii(topology).max_load)
            }
            Architecture::TwoStage { bus } => Some(second_stage_converter(bus)?.max_load()),
        };
        let mut solver = SharingSolver::new(spec, calib, &sites, droop)?;
        let nominal = solver.solve()?;
        solver.anchor_last();
        let response = solver.regulator_response()?;
        Ok(Self {
            architecture,
            spec: *spec,
            calib: *calib,
            droop,
            rating,
            solver,
            nominal,
            response,
        })
    }

    /// Swept architecture.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.architecture
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

    /// The fault-free operating point.
    #[must_use]
    pub fn nominal(&self) -> &SharingReport {
        &self.nominal
    }

    /// Sparse-solver mode restamp-path scenarios are evaluated under
    /// (warm CG by default, which keeps their historical results
    /// bit-for-bit).
    #[must_use]
    pub fn solve_mode(&self) -> DcPlanMode {
        self.solver.solve_mode()
    }

    /// Switches the sparse-solver mode for every subsequent restamp-path
    /// scenario evaluation and re-solves + re-anchors the nominal point
    /// under the new mode; low-rank results do not depend on it.
    /// [`DcPlanMode::DirectCholesky`] answers each restamped scenario
    /// with an exact factorization: value-only scenarios whose matrix
    /// matches nominal reuse the cached factor outright, and the
    /// serial==parallel bitwise contract of
    /// [`FaultSweep::run`] holds per mode because workers clone the
    /// solver — mode, factor and anchor included.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] if the nominal point cannot be re-solved
    /// under the new mode.
    pub fn set_solve_mode(&mut self, mode: DcPlanMode) -> Result<(), CoreError> {
        self.solver.set_solve_mode(mode)?;
        self.nominal = self.solver.solve()?;
        self.solver.anchor_last();
        Ok(())
    }

    /// Evaluates every scenario on `threads` workers (0 = auto). The
    /// result is bitwise-independent of `threads`.
    ///
    /// A VR-local scenario — every fault a [`Fault::VrOpen`],
    /// [`Fault::VrDerated`] or [`Fault::SetpointDrift`] — is answered
    /// from the nominal regulator response built at construction: one
    /// small dense solve, with no restamp, no mesh solve and no solver
    /// clone. Region and sheet faults, invalid faults, VR-local scenarios
    /// whose update fails the conditioning guard, and every scenario of
    /// a sweep whose mesh is above the response's size cap take the
    /// restamp path: restamp a per-worker solver clone to nominal, inject,
    /// and warm-solve from the nominal anchor. The route depends on the
    /// scenario alone.
    ///
    /// # Errors
    ///
    /// The first scenario evaluation failure, in scenario order.
    pub fn run(
        &self,
        scenarios: &[FaultScenario],
        threads: usize,
    ) -> Result<FaultSweepReport, CoreError> {
        let _span = vpd_obs::span("faults.run_ns");
        let timer = vpd_obs::is_enabled().then(std::time::Instant::now);
        let routes: Vec<Route> = scenarios.iter().map(|s| self.route(s)).collect();
        let restamp: Vec<&FaultScenario> = scenarios
            .iter()
            .zip(&routes)
            .filter(|(_, route)| !matches!(route, Route::LowRank(_)))
            .map(|(scenario, _)| scenario)
            .collect();
        // No restamp work, no solver clone.
        let mut restamped = if restamp.is_empty() {
            Vec::new()
        } else {
            par_map_with(threads, &restamp, &self.solver, |solver, scenario| {
                self.evaluate(solver, scenario)
            })
        }
        .into_iter();
        let (mut lowrank, mut guarded) = (0, 0);
        let mut outcomes = Vec::with_capacity(scenarios.len());
        for route in routes {
            let outcome = match route {
                Route::LowRank(outcome) => {
                    lowrank += 1;
                    outcome
                }
                Route::Guarded | Route::Restamp => {
                    guarded += usize::from(matches!(route, Route::Guarded));
                    restamped
                        .next()
                        .expect("one result per restamped scenario")?
                }
            };
            outcomes.push(outcome);
        }
        let mut report = FaultSweepReport::summarize(self.architecture, self.rating, outcomes);
        report.lowrank_scenarios = lowrank;
        report.lowrank_fallbacks = guarded;
        // Accounting only, after every scenario is solved: enabling
        // metrics cannot change a bit of the report.
        vpd_obs::incr("faults.runs");
        vpd_obs::add("faults.scenarios", report.outcomes.len() as u64);
        vpd_obs::add("faults.fallbacks", report.fallback_count as u64);
        vpd_obs::add("faults.stagnations", report.stagnation_count as u64);
        vpd_obs::add("faults.lowrank_scenarios", lowrank as u64);
        vpd_obs::add("faults.lowrank_fallbacks", guarded as u64);
        if let Some(start) = timer {
            let secs = start.elapsed().as_secs_f64();
            if secs > 0.0 {
                vpd_obs::gauge_set(
                    "faults.scenarios_per_sec",
                    report.outcomes.len() as f64 / secs,
                );
            }
        }
        Ok(report)
    }

    /// Picks a scenario's path, answering it on the spot when it is
    /// VR-local and its update passes the conditioning guard.
    fn route(&self, scenario: &FaultScenario) -> Route {
        let (Some(response), Some(edits)) = (&self.response, self.vr_edits(scenario)) else {
            return Route::Restamp;
        };
        match response.solve(&edits) {
            Ok(Some(point)) => {
                let worst_drop = self.solver.setpoint() - point.min_voltage;
                Route::LowRank(self.outcome(scenario, &point.currents, worst_drop, None))
            }
            Ok(None) => Route::Guarded,
            // `vr_edits` admits only values the response accepts; should
            // one slip through, the restamp path reports it typed.
            Err(_) => Route::Restamp,
        }
    }

    /// The final droop and setpoint of each regulator a VR-local scenario
    /// touches, by [`apply_fault`]'s rules in fault order: an open
    /// overrides, a derate compounds, a drift is absolute. `None` for a
    /// mesh fault, or for any value `apply_fault` would reject, so that
    /// the restamp path reports the same typed error as ever.
    fn vr_edits(&self, scenario: &FaultScenario) -> Option<Vec<RegulatorEdit>> {
        let nominal = self.solver.setpoint();
        let mut edits: Vec<RegulatorEdit> = Vec::with_capacity(scenario.faults.len());
        for fault in &scenario.faults {
            let (Fault::VrOpen { index }
            | Fault::VrDerated { index, .. }
            | Fault::SetpointDrift { index, .. }) = *fault
            else {
                return None;
            };
            if index >= self.vr_count() {
                return None;
            }
            let slot = match edits.iter().position(|e| e.regulator == index) {
                Some(slot) => slot,
                None => {
                    edits.push(RegulatorEdit {
                        regulator: index,
                        droop: self.droop,
                        setpoint: nominal,
                    });
                    edits.len() - 1
                }
            };
            let edit = &mut edits[slot];
            match *fault {
                Fault::VrDerated { factor, .. } => {
                    let droop = edit.droop * factor;
                    let valid = |v: f64| v.is_finite() && v > 0.0;
                    if !valid(factor) || !valid(droop.value()) {
                        return None;
                    }
                    edit.droop = droop;
                }
                Fault::SetpointDrift { delta, .. } => {
                    edit.setpoint = Volts::new(nominal.value() + delta.value());
                    if !edit.setpoint.value().is_finite() {
                        return None;
                    }
                }
                _ => edit.droop = OPEN_RESISTANCE,
            }
        }
        Some(edits)
    }

    /// The restamp path: restamp to nominal, inject, warm-solve.
    fn evaluate(
        &self,
        solver: &mut SharingSolver,
        scenario: &FaultScenario,
    ) -> Result<ScenarioOutcome, CoreError> {
        solver.restamp(&self.spec, &self.calib, self.droop)?;
        for fault in &scenario.faults {
            apply_fault(solver, fault)?;
        }
        let report = solver.solve()?;
        Ok(self.outcome(
            scenario,
            report.per_vr(),
            report.worst_drop(),
            solver.last_solve_report(),
        ))
    }

    /// Summarizes one solved scenario: the survivors' currents, the worst
    /// drop and the solver path (`solve` is `None` on the low-rank path).
    fn outcome(
        &self,
        scenario: &FaultScenario,
        per_vr: &[Amps],
        worst_drop: Volts,
        solve: Option<SolveReport>,
    ) -> ScenarioOutcome {
        let opened = scenario.opened(self.vr_count());
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        let mut sum = 0.0_f64;
        let mut survivors = 0usize;
        let mut overloaded = 0usize;
        for (k, amps) in per_vr.iter().enumerate() {
            if opened[k] {
                continue;
            }
            let i = amps.value();
            min = min.min(i);
            max = max.max(i);
            sum += i;
            survivors += 1;
            if self.rating.is_some_and(|r| i > r.value()) {
                overloaded += 1;
            }
        }
        let (min, mean) = if survivors == 0 {
            (0.0, 0.0)
        } else {
            (min, sum / survivors as f64)
        };
        ScenarioOutcome {
            name: scenario.name.clone(),
            worst_drop,
            surviving_min: Amps::new(min),
            surviving_max: Amps::new(max),
            surviving_mean: Amps::new(mean),
            spread: if mean > 0.0 { max / mean } else { 0.0 },
            overloaded_modules: overloaded,
            used_fallback: solve.as_ref().is_some_and(SolveReport::used_fallback),
            stagnated: solve.as_ref().is_some_and(|s| s.stagnated),
            iterations: solve.as_ref().map_or(0, |s| s.iterations),
        }
    }
}

pub(crate) fn apply_fault(solver: &mut SharingSolver, fault: &Fault) -> Result<(), CoreError> {
    match *fault {
        Fault::VrOpen { index } => solver.set_vr_droop(index, OPEN_RESISTANCE),
        Fault::VrDerated { index, factor } => {
            if !factor.is_finite() || factor <= 0.0 {
                return Err(CoreError::InvalidSpec {
                    what: "droop derating factor",
                    value: factor,
                });
            }
            let base = solver.vr_droop(index).ok_or(CoreError::InvalidSpec {
                what: "regulator index",
                value: index as f64,
            })?;
            solver.set_vr_droop(index, base * factor)
        }
        Fault::SetpointDrift { index, delta } => {
            let nominal = solver.setpoint();
            solver.set_vr_setpoint(index, Volts::new(nominal.value() + delta.value()))
        }
        Fault::RegionOpen {
            x0,
            y0,
            x1,
            y1,
            factor,
        } => solver.scale_region_resistance(x0, y0, x1, y1, factor),
        Fault::SheetDegradation { factor } => {
            let n = solver.grid_side();
            solver.scale_region_resistance(0, 0, n - 1, n - 1, factor)
        }
    }
}

/// Runs N-1 contingency sweeps for the paper's proposed architectures
/// (A1, A2, A3@12V, A3@6V) under one topology and returns the reports
/// in that order — the per-architecture resilience comparison behind
/// the periphery-vs-under-die trade-off.
///
/// # Errors
///
/// The first sweep failure.
pub fn n_minus_1_comparison(
    topology: VrTopologyKind,
    spec: &SystemSpec,
    calib: &Calibration,
    threads: usize,
) -> Result<Vec<FaultSweepReport>, CoreError> {
    Architecture::paper_set()
        .into_iter()
        .skip(1)
        .map(|arch| {
            let sweep = FaultSweep::new(arch, topology, spec, calib)?;
            sweep.run(&FaultScenario::n_minus_1(sweep.vr_count()), threads)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> (SystemSpec, Calibration) {
        (SystemSpec::paper_default(), Calibration::paper_default())
    }

    fn a2_sweep() -> FaultSweep {
        let (spec, calib) = paper();
        FaultSweep::new(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
        )
        .unwrap()
    }

    #[test]
    fn a2_n_minus_1_completes_without_solver_errors() {
        let sweep = a2_sweep();
        let scenarios = FaultScenario::n_minus_1(sweep.vr_count());
        let report = sweep.run(&scenarios, 0).unwrap();
        assert_eq!(report.outcomes.len(), 48);
        for o in &report.outcomes {
            assert!(o.worst_drop.value().is_finite() && o.worst_drop.value() > 0.0);
            assert!(o.surviving_min.value() > 0.0);
            assert!(o.spread.is_finite());
            assert!(!o.stagnated, "{}: CG stagnated", o.name);
        }
        // A2's central modules already exceed the 30 A DSCH rating at
        // nominal; every contingency keeps them overloaded.
        assert_eq!(report.overloaded_scenarios, 48);
        assert!(report.margin().unwrap() < 0.0);
    }

    #[test]
    fn serial_and_parallel_sweeps_are_bitwise_identical() {
        let sweep = a2_sweep();
        let mut scenarios = FaultScenario::n_minus_1(sweep.vr_count());
        scenarios.extend(FaultScenario::random_k(
            3,
            16,
            0xFA17,
            sweep.vr_count(),
            sweep.grid_side(),
        ));
        // Interleave VR-local and mesh scenarios so both paths run in one
        // call, with their outcomes merged back in scenario order.
        scenarios.extend(mixed_scenarios());
        let serial = sweep.run(&scenarios, 1).unwrap();
        assert!(
            serial.lowrank_scenarios >= 48,
            "{}",
            serial.lowrank_scenarios
        );
        assert!(serial.lowrank_scenarios < scenarios.len());
        for threads in [2, 5, 8] {
            let parallel = sweep.run(&scenarios, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Cached equals cold: a second run on the same engine equals a
        // fresh engine's run.
        assert_eq!(sweep.run(&scenarios, 2).unwrap(), serial);
        assert_eq!(a2_sweep().run(&scenarios, 1).unwrap(), serial);
    }

    /// VR-local and mesh scenarios, alternating.
    fn mixed_scenarios() -> Vec<FaultScenario> {
        let scenario = |name: &str, faults: Vec<Fault>| FaultScenario {
            name: name.into(),
            faults,
        };
        let region = Fault::RegionOpen {
            x0: 10,
            y0: 10,
            x1: 14,
            y1: 14,
            factor: 20.0,
        };
        vec![
            scenario(
                "open+derate",
                vec![
                    Fault::VrOpen { index: 5 },
                    Fault::VrDerated {
                        index: 6,
                        factor: 3.0,
                    },
                ],
            ),
            scenario(
                "open+region",
                vec![Fault::VrOpen { index: 5 }, region.clone()],
            ),
            scenario(
                "drift",
                vec![Fault::SetpointDrift {
                    index: 20,
                    delta: Volts::from_millivolts(-2.0),
                }],
            ),
            scenario("sheet", vec![Fault::SheetDegradation { factor: 1.3 }]),
            scenario("region", vec![region]),
            scenario("none", vec![]),
        ]
    }

    /// The restamp path alone, solved exactly: the reference the
    /// low-rank path must agree with.
    fn direct_restamp(mut sweep: FaultSweep) -> FaultSweep {
        sweep.response = None;
        sweep.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        sweep
    }

    fn assert_outcomes_agree(low: &FaultSweepReport, exact: &FaultSweepReport) {
        assert_eq!(low.outcomes.len(), exact.outcomes.len());
        for (a, b) in low.outcomes.iter().zip(&exact.outcomes) {
            let drop = (a.worst_drop.value() - b.worst_drop.value()).abs();
            assert!(drop < 1e-9, "{}: worst drop off by {drop:e} V", a.name);
            for (what, x, y) in [
                ("min", a.surviving_min, b.surviving_min),
                ("max", a.surviving_max, b.surviving_max),
                ("mean", a.surviving_mean, b.surviving_mean),
            ] {
                let d = (x.value() - y.value()).abs();
                assert!(d < 1e-6, "{}: surviving {what} off by {d:e} A", a.name);
            }
        }
    }

    /// One random VR-local scenario of 1–5 faults. Indices come from a
    /// pool of three modules, so repeated indices — open after derate,
    /// derate after open, stacked drifts — are common.
    fn vr_local_scenario(seed: u64, i: usize, n_vrs: usize) -> FaultScenario {
        let mut rng = sample_rng(seed, i);
        let pool: Vec<usize> = (0..3).map(|_| rng.gen_range(0..n_vrs)).collect();
        let k = rng.gen_range(1..=5);
        let faults = (0..k)
            .map(|_| {
                let index = pool[rng.gen_range(0..pool.len())];
                match rng.gen_range(0_u32..3) {
                    0 => Fault::VrOpen { index },
                    1 => Fault::VrDerated {
                        index,
                        factor: rng.gen_range(0.5..10.0),
                    },
                    _ => Fault::SetpointDrift {
                        index,
                        delta: Volts::from_millivolts(rng.gen_range(-3.0..3.0)),
                    },
                }
            })
            .collect();
        FaultScenario {
            name: format!("vr-local/{i:02}"),
            faults,
        }
    }

    /// (low-rank engine, direct restamp reference) per swept
    /// architecture, built once for every proptest case.
    fn engines() -> &'static [(FaultSweep, FaultSweep)] {
        static ENGINES: std::sync::OnceLock<Vec<(FaultSweep, FaultSweep)>> =
            std::sync::OnceLock::new();
        ENGINES.get_or_init(|| {
            let (spec, calib) = paper();
            [
                Architecture::InterposerPeriphery,
                Architecture::InterposerEmbedded,
            ]
            .into_iter()
            .map(|arch| {
                let sweep = FaultSweep::new(arch, VrTopologyKind::Dsch, &spec, &calib).unwrap();
                (sweep.clone(), direct_restamp(sweep))
            })
            .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]
        /// VR-local scenarios on the low-rank path agree with an exact
        /// restamp-and-factor sweep of the same scenarios.
        #[test]
        fn prop_low_rank_matches_direct_restamp(seed in 0_u64..1_000_000) {
            for (low, exact) in engines() {
                let scenarios: Vec<FaultScenario> = (0..4)
                    .map(|i| vr_local_scenario(seed, i, low.vr_count()))
                    .collect();
                let a = low.run(&scenarios, 1).unwrap();
                let b = exact.run(&scenarios, 1).unwrap();
                proptest::prop_assert_eq!(a.lowrank_scenarios, scenarios.len());
                proptest::prop_assert_eq!(b.lowrank_scenarios, 0);
                assert_outcomes_agree(&a, &b);
            }
        }
    }

    #[test]
    fn repeated_indices_follow_apply_fault_order() {
        let sweep = a2_sweep();
        let exact = direct_restamp(sweep.clone());
        let scenario = |faults: Vec<Fault>| FaultScenario {
            name: format!("{faults:?}"),
            faults,
        };
        let (open, derate, drift) = (
            Fault::VrOpen { index: 7 },
            Fault::VrDerated {
                index: 7,
                factor: 4.0,
            },
            |mv: f64| Fault::SetpointDrift {
                index: 7,
                delta: Volts::from_millivolts(mv),
            },
        );
        let scenarios = vec![
            // Open overrides an earlier derate; a later derate compounds
            // on the open; a drift is absolute, not cumulative.
            scenario(vec![derate.clone(), open.clone()]),
            scenario(vec![open.clone(), derate.clone()]),
            scenario(vec![derate.clone(), derate.clone()]),
            scenario(vec![drift(-1.0), drift(-2.0)]),
            scenario(vec![drift(-2.0), open, drift(1.5), derate]),
        ];
        let low = sweep.run(&scenarios, 1).unwrap();
        assert_eq!(low.lowrank_scenarios, scenarios.len());
        assert_outcomes_agree(&low, &exact.run(&scenarios, 1).unwrap());
        // Derate after open leaves a 4 GΩ module: still opened, and the
        // same operating point as the plain open.
        assert!(
            (low.outcomes[1].worst_drop.value() - low.outcomes[0].worst_drop.value()).abs() < 1e-9
        );
        // Two drifts: only the last one counts.
        let last_only = sweep.run(&[scenario(vec![drift(-2.0)])], 1).unwrap();
        assert_eq!(low.outcomes[3].worst_drop, last_only.outcomes[0].worst_drop);
    }

    #[test]
    fn ill_conditioned_updates_fall_back_to_the_restamp_path() {
        // A droop nine orders below the mesh resistance: opening such a
        // module cancels almost every digit of its 1×1 update.
        let (spec, mut calib) = paper();
        calib.vr_droop_below_die = Ohms::new(1e-13);
        let sweep = FaultSweep::new(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
        )
        .unwrap();
        let mut restamp_only = sweep.clone();
        restamp_only.response = None;
        let scenarios = FaultScenario::n_minus_1(4);
        let report = sweep.run(&scenarios, 1).unwrap();
        assert_eq!(report.lowrank_fallbacks, scenarios.len());
        assert_eq!(report.lowrank_scenarios, 0);
        let reference = restamp_only.run(&scenarios, 1).unwrap();
        assert_eq!(report.outcomes, reference.outcomes);
        assert_eq!(reference.lowrank_fallbacks, 0);
    }

    #[test]
    fn meshes_above_the_size_cap_take_the_restamp_path() {
        let (spec, calib) = paper();
        let sweep = a2_sweep();
        let n = sweep.grid_side() * sweep.grid_side();
        // A2 (25×25 mesh, 48 sites, 11,325 factor entries) fits; a
        // 200×200 mesh does not, on its 48 columns alone.
        assert!(RegulatorResponse::fits(n, 11_325, 48));
        assert!(!RegulatorResponse::fits(200 * 200, 0, 48));
        assert!(!RegulatorResponse::fits(usize::MAX, 1, 2));
        assert!(sweep.response.is_some());

        // A 96×96 mesh's two columns fit, but its RCM factor (about 600k
        // entries) does not: refused on the symbolic count.
        let mut big = calib;
        big.grid_nodes_per_side = 96;
        let mut solver =
            SharingSolver::new(&spec, &big, &[(0, 0), (95, 95)], big.vr_droop_periphery).unwrap();
        assert!(solver.regulator_response().unwrap().is_none());

        let mut capped = sweep.clone();
        capped.response = None;
        let scenarios = FaultScenario::n_minus_1(3);
        let report = capped.run(&scenarios, 1).unwrap();
        assert_eq!(report.lowrank_scenarios, 0);
        assert_eq!(report.lowrank_fallbacks, 0);
        assert!(report.outcomes.iter().all(|o| o.iterations > 0));
        // Warm CG stops at its tolerance: §13.4's 1e-8 V bound.
        let low = sweep.run(&scenarios, 1).unwrap();
        for (a, b) in low.outcomes.iter().zip(&report.outcomes) {
            assert!((a.worst_drop.value() - b.worst_drop.value()).abs() < 1e-8);
            assert!((a.spread - b.spread).abs() < 1e-6);
        }
    }

    #[test]
    fn random_k_is_reproducible_and_seed_sensitive() {
        let a = FaultScenario::random_k(2, 12, 42, 48, 25);
        let b = FaultScenario::random_k(2, 12, 42, 48, 25);
        let c = FaultScenario::random_k(2, 12, 43, 48, 25);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|s| s.faults.len() == 2));
        // Every fault kind appears somewhere in a modest draw.
        let many = FaultScenario::random_k(4, 40, 7, 48, 25);
        let has = |pred: fn(&Fault) -> bool| many.iter().flat_map(|s| &s.faults).any(pred);
        assert!(has(|f| matches!(f, Fault::VrOpen { .. })));
        assert!(has(|f| matches!(f, Fault::VrDerated { .. })));
        assert!(has(|f| matches!(f, Fault::SetpointDrift { .. })));
        assert!(has(|f| matches!(f, Fault::RegionOpen { .. })));
    }

    #[test]
    fn periphery_ring_is_more_resilient_than_under_die() {
        // Losing a module costs A1 far less load-spread than A2: the
        // ring's survivors sit at comparable electrical distance, while
        // A2's hotspot modules are irreplaceable.
        let (spec, calib) = paper();
        let reports = n_minus_1_comparison(VrTopologyKind::Dsch, &spec, &calib, 0).unwrap();
        assert_eq!(reports.len(), 4);
        let a1 = &reports[0];
        let a2 = &reports[1];
        assert_eq!(a1.architecture, Architecture::InterposerPeriphery);
        assert!(a1.max_spread < a2.max_spread);
        assert!(a1.margin().unwrap() > a2.margin().unwrap());
        // Both A3 buses share A2's under-die placement and inherit its
        // wide contingency spread.
        for a3 in &reports[2..] {
            assert!(a3.max_spread > a1.max_spread);
        }
    }

    #[test]
    fn a1_n_minus_1_golden() {
        // Pinned A1 N-1 summary (VR failure contingency): guards both
        // the fault model and the solver path against silent drift.
        let (spec, calib) = paper();
        let sweep = FaultSweep::new(
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
        )
        .unwrap();
        let report = sweep
            .run(&FaultScenario::n_minus_1(sweep.vr_count()), 0)
            .unwrap();
        let golden_drop = GOLDEN_A1_WORST_DROP;
        let golden_spread = GOLDEN_A1_MAX_SPREAD;
        assert!(
            (report.worst_drop.value() - golden_drop).abs() < 1e-6 * golden_drop,
            "worst drop {:.9} V vs golden {golden_drop:.9} V",
            report.worst_drop.value()
        );
        assert!(
            (report.max_spread - golden_spread).abs() < 1e-6 * golden_spread,
            "max spread {:.9} vs golden {golden_spread:.9}",
            report.max_spread
        );
        assert_eq!(report.fallback_count, 0);
        assert_eq!(report.stagnation_count, 0);
    }

    /// Pinned from the paper-default A1 N-1 sweep; see
    /// `a1_n_minus_1_golden`.
    const GOLDEN_A1_WORST_DROP: f64 = 0.090586354;
    const GOLDEN_A1_MAX_SPREAD: f64 = 1.297382967;

    #[test]
    fn direct_mode_sweep_matches_warm_cg_and_stays_deterministic() {
        let mut sweep = a2_sweep();
        let mut scenarios = FaultScenario::n_minus_1(8);
        scenarios.extend(FaultScenario::random_k(
            2,
            6,
            0xD1CE,
            sweep.vr_count(),
            sweep.grid_side(),
        ));
        let cg = sweep.run(&scenarios, 1).unwrap();

        sweep.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        assert_eq!(sweep.solve_mode(), DcPlanMode::DirectCholesky);
        let serial = sweep.run(&scenarios, 1).unwrap();
        // Exact solves: the ladder never leaves its first rung.
        assert_eq!(serial.fallback_count, 0);
        assert_eq!(serial.stagnation_count, 0);
        for (a, b) in cg.outcomes.iter().zip(&serial.outcomes) {
            assert!(
                (a.worst_drop.value() - b.worst_drop.value()).abs() < 1e-8,
                "{}: {} vs {}",
                a.name,
                a.worst_drop,
                b.worst_drop
            );
            assert!((a.spread - b.spread).abs() < 1e-6);
        }
        // The bitwise serial==parallel contract holds in direct mode.
        for threads in [2, 5] {
            let parallel = sweep.run(&scenarios, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn compound_scenarios_degrade_monotonically() {
        let sweep = a2_sweep();
        let single = FaultScenario {
            name: "vr0".into(),
            faults: vec![Fault::VrOpen { index: 0 }],
        };
        let compound = FaultScenario {
            name: "vr0+sheet".into(),
            faults: vec![
                Fault::VrOpen { index: 0 },
                Fault::SheetDegradation { factor: 1.5 },
            ],
        };
        let report = sweep.run(&[single, compound], 1).unwrap();
        assert!(report.outcomes[1].worst_drop.value() > report.outcomes[0].worst_drop.value());
        assert_eq!(report.worst_scenario, "vr0+sheet");
    }

    #[test]
    fn invalid_faults_are_rejected() {
        let sweep = a2_sweep();
        let bad_index = FaultScenario {
            name: "bad".into(),
            faults: vec![Fault::VrOpen { index: 999 }],
        };
        assert!(sweep.run(&[bad_index], 1).is_err());
        let bad_factor = FaultScenario {
            name: "bad".into(),
            faults: vec![Fault::VrDerated {
                index: 0,
                factor: -2.0,
            }],
        };
        assert!(matches!(
            sweep.run(&[bad_factor], 1),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn margin_is_none_for_empty_sweeps_and_degenerate_ratings() {
        let outcome = ScenarioOutcome {
            name: "one".into(),
            worst_drop: Volts::from_millivolts(50.0),
            surviving_min: Amps::new(10.0),
            surviving_max: Amps::new(20.0),
            surviving_mean: Amps::new(15.0),
            spread: 20.0 / 15.0,
            overloaded_modules: 0,
            used_fallback: false,
            stagnated: false,
            iterations: 3,
        };
        let summarize = |rating: Option<Amps>, outcomes: Vec<ScenarioOutcome>| {
            FaultSweepReport::summarize(Architecture::InterposerEmbedded, rating, outcomes)
        };
        // No scenarios evaluated: worst_surviving_current is a fold over
        // nothing, so the "margin" would be the meaningless 1 - 0/r.
        assert!(summarize(Some(Amps::new(30.0)), vec![]).margin().is_none());
        // Degenerate ratings would divide by ~0 or propagate non-finites.
        for bad in [0.0, -5.0, 1e-320, f64::NAN, f64::INFINITY] {
            assert!(
                summarize(Some(Amps::new(bad)), vec![outcome.clone()])
                    .margin()
                    .is_none(),
                "rating {bad} should have no margin"
            );
        }
        // A healthy rating still reports the exact ratio.
        let good = summarize(Some(Amps::new(40.0)), vec![outcome]);
        assert_eq!(good.margin(), Some(1.0 - 20.0 / 40.0));
    }

    #[test]
    fn reference_architecture_has_no_rating() {
        let (spec, calib) = paper();
        let sweep =
            FaultSweep::new(Architecture::Reference, VrTopologyKind::Dsch, &spec, &calib).unwrap();
        let report = sweep.run(&FaultScenario::n_minus_1(4), 1).unwrap();
        assert!(report.rating.is_none());
        assert!(report.margin().is_none());
        assert_eq!(report.overloaded_scenarios, 0);
    }
}
