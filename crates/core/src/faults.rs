//! Fault injection and solver-resilience sweeps.
//!
//! The paper's architectures differ not only in nominal efficiency but
//! in how gracefully they degrade: A1's periphery ring shares a lost
//! module's current across many neighbours at similar distance, while
//! A2's under-die modules localize onto the hotspot — losing the
//! central module dumps its ~93 A onto a handful of survivors. This
//! module quantifies that contrast. Faults are *value-only* edits
//! applied through [`SharingSolver`]'s restamp hooks (an open module is
//! a ≈GΩ droop, a failed via patch is a resistance-scaled mesh
//! rectangle), so the compiled sparse plan survives every scenario and
//! the sweep runs at restamp-plus-warm-solve cost.
//!
//! Determinism contract: each scenario's outcome is a pure function of
//! (nominal-anchored solver, scenario) — every evaluation restamps back
//! to nominal before injecting its faults and warm-starts from the one
//! shared anchor, so [`FaultSweep::run`] returns bitwise-identical
//! results for every thread count (see [`crate::par_map_with`]).

use crate::arch::{second_stage_converter, session_placement};
use crate::gridshare::placement_sites;
use crate::mc::sample_rng;
use crate::{
    par_map_with, AnalysisOptions, Architecture, Calibration, CoreError, SharingReport,
    SharingSolver, SystemSpec,
};
use rand::Rng;
use vpd_circuit::DcPlanMode;
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
/// anchor, and every scenario is then a value-only restamp plus a warm
/// solve — embarrassingly parallel over scenarios.
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
}

impl FaultSweep {
    /// Builds the grid for `architecture` (paper placement and module
    /// count), compiles its plan, and anchors the nominal solution.
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
        Ok(Self {
            architecture,
            spec: *spec,
            calib: *calib,
            droop,
            rating,
            solver,
            nominal,
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

    /// Sparse-solver mode scenarios are evaluated under (warm CG by
    /// default, which keeps the historical sweep results bit-for-bit).
    #[must_use]
    pub fn solve_mode(&self) -> DcPlanMode {
        self.solver.solve_mode()
    }

    /// Switches the sparse-solver mode for every subsequent scenario
    /// evaluation and re-solves + re-anchors the nominal point under the
    /// new mode. [`DcPlanMode::DirectCholesky`] answers each restamped
    /// scenario with an exact factorization: value-only scenarios whose
    /// matrix matches nominal (setpoint drift) reuse the cached factor
    /// outright, and the serial==parallel bitwise contract of
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
        let results = par_map_with(threads, scenarios, &self.solver, |solver, scenario| {
            self.evaluate(solver, scenario)
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            outcomes.push(r?);
        }
        let report = FaultSweepReport::summarize(self.architecture, self.rating, outcomes);
        // Accounting only, after every scenario is solved: enabling
        // metrics cannot change a bit of the report.
        vpd_obs::incr("faults.runs");
        vpd_obs::add("faults.scenarios", report.outcomes.len() as u64);
        vpd_obs::add("faults.fallbacks", report.fallback_count as u64);
        vpd_obs::add("faults.stagnations", report.stagnation_count as u64);
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

    /// One scenario: restamp to nominal, inject, warm-solve, summarize.
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
        let solve = solver.last_solve_report();

        let opened = scenario.opened(solver.vr_count());
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        let mut sum = 0.0_f64;
        let mut survivors = 0usize;
        let mut overloaded = 0usize;
        for (k, amps) in report.per_vr().iter().enumerate() {
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
        Ok(ScenarioOutcome {
            name: scenario.name.clone(),
            worst_drop: report.worst_drop(),
            surviving_min: Amps::new(min),
            surviving_max: Amps::new(max),
            surviving_mean: Amps::new(mean),
            spread: if mean > 0.0 { max / mean } else { 0.0 },
            overloaded_modules: overloaded,
            used_fallback: solve.as_ref().is_some_and(SolveReport::used_fallback),
            stagnated: solve.as_ref().is_some_and(|s| s.stagnated),
            iterations: solve.as_ref().map_or(0, |s| s.iterations),
        })
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
        let serial = sweep.run(&scenarios, 1).unwrap();
        for threads in [2, 5, 8] {
            let parallel = sweep.run(&scenarios, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
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
