//! The time-domain sweep engine: compiled-plan, parallel load-transient
//! droop grids.
//!
//! This is the transient counterpart of [`crate::ImpedanceSweep`]: a
//! [`PdnModel`] ladder plus a ramping load source is compiled **once**
//! into a [`vpd_circuit::TransientPlan`] (pre-factored so workers
//! re-factor zero times), an amplitude × slew grid fans out through
//! [`crate::par_map_with`] with one cloned plan per worker, and the
//! result is a [`DroopSweepReport`] (worst droop, worst settling,
//! first budget violation) implementing [`vpd_report::Render`]. Every
//! grid point depends only on the compiled plan and its own stimulus,
//! so the serial and parallel sweeps are **bitwise identical** — the
//! same contract every other engine in this crate makes.

use crate::droop::dip;
use crate::par::par_map_with;
use crate::{Architecture, CoreError, PdnModel, SystemSpec};
use vpd_circuit::{ElementId, NodeId, TransientPlan, TransientResult, TransientSettings};
use vpd_units::{Amps, Ohms, Seconds, Volts};

/// Default amplitude-grid floor as a fraction of the POL current.
const DEFAULT_AMPLITUDE_FLOOR: f64 = 0.5;
/// Default slowest slew window of the rise grid.
const DEFAULT_MAX_RISE: Seconds = Seconds::from_microseconds(2.0);

/// Sweep grid and execution settings for [`DroopSweep`].
#[derive(Clone, PartialEq, Debug)]
pub struct DroopSweepSettings {
    /// Post-transient load levels to sweep (the "after" currents).
    pub amplitudes: Vec<Amps>,
    /// Slew windows to sweep; `0` is an ideal step.
    pub rises: Vec<Seconds>,
    /// Worker threads (0 = auto). The result is identical for every
    /// thread count.
    pub threads: usize,
}

impl DroopSweepSettings {
    /// The paper-scale grid: `amps` load levels linearly spanning 50%
    /// to 100% of the POL current, and `slews` rise times linearly
    /// spanning an ideal step to 2 µs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when either count is zero.
    pub fn paper_default(spec: &SystemSpec, amps: usize, slews: usize) -> Result<Self, CoreError> {
        if amps == 0 {
            return Err(CoreError::InvalidSpec {
                what: "droop sweep amplitude count",
                value: 0.0,
            });
        }
        if slews == 0 {
            return Err(CoreError::InvalidSpec {
                what: "droop sweep slew count",
                value: 0.0,
            });
        }
        let full = spec.pol_current();
        let amplitudes = (0..amps)
            .map(|k| {
                let frac = if amps == 1 {
                    1.0
                } else {
                    DEFAULT_AMPLITUDE_FLOOR
                        + (1.0 - DEFAULT_AMPLITUDE_FLOOR) * (k as f64 / (amps - 1) as f64)
                };
                full * frac
            })
            .collect();
        let rises = (0..slews)
            .map(|k| {
                if slews == 1 {
                    Seconds::ZERO
                } else {
                    Seconds::new(DEFAULT_MAX_RISE.value() * (k as f64 / (slews - 1) as f64))
                }
            })
            .collect();
        Ok(Self {
            amplitudes,
            rises,
            threads: 0,
        })
    }

    /// The row-major amplitude × rise grid these settings describe.
    #[must_use]
    pub fn grid(&self) -> Vec<(Amps, Seconds)> {
        let mut grid = Vec::with_capacity(self.amplitudes.len() * self.rises.len());
        for &after in &self.amplitudes {
            for &rise in &self.rises {
                grid.push((after, rise));
            }
        }
        grid
    }
}

/// One swept stimulus and its measured response.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DroopSweepPoint {
    /// Post-transient load level.
    pub after: Amps,
    /// Slew window (`0` = ideal step).
    pub rise: Seconds,
    /// Supply voltage just before the transient.
    pub v_before: Volts,
    /// Minimum supply voltage from the transient onward.
    pub v_min: Volts,
    /// Worst excursion `v_before − v_min`.
    pub droop: Volts,
    /// Time from transient start until the waveform last re-enters the
    /// 1%-of-droop band around its final value.
    pub settle: Seconds,
    /// Whether the droop exceeds the report's budget.
    pub violates: bool,
}

/// A reusable droop-sweep engine over one compiled PDN transient.
///
/// ```
/// use vpd_core::{Architecture, DroopSweep, DroopSweepSettings, SystemSpec};
/// use vpd_units::Seconds;
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let spec = SystemSpec::paper_default();
/// let sweep = DroopSweep::for_architecture(
///     Architecture::InterposerEmbedded,
///     &spec,
///     Seconds::from_microseconds(20.0),
///     Seconds::from_nanoseconds(50.0),
/// )?;
/// let settings = DroopSweepSettings::paper_default(&spec, 2, 2)?;
/// let report = sweep.run(&settings)?;
/// assert_eq!(report.points.len(), 4);
/// assert!(report.first_violation().is_none(), "A2 holds the budget");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DroopSweep {
    label: String,
    base: Amps,
    at: Seconds,
    budget: Volts,
    plan: TransientPlan,
    die: NodeId,
    ramp: ElementId,
    peak_z: Ohms,
}

impl DroopSweep {
    /// Compiles `model` into a sweep engine labelled `label`: quiescent
    /// load `base`, transient firing at `at`, droops judged against
    /// `budget`. The `t = 0` configuration is pre-factored so parallel
    /// workers (which clone the plan, cache included) re-factor zero
    /// times at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction, settings, and impedance-model
    /// failures.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        model: &PdnModel,
        label: impl Into<String>,
        base: Amps,
        at: Seconds,
        budget: Volts,
        sim_time: Seconds,
        dt: Seconds,
    ) -> Result<Self, CoreError> {
        let (mut net, die) = model.netlist()?;
        let ramp = net
            .ramp_current_source(die, net.ground(), base, base, at, Seconds::ZERO)
            .map_err(CoreError::Circuit)?;
        let settings = TransientSettings::new(sim_time, dt).map_err(CoreError::Circuit)?;
        let mut plan = TransientPlan::compile(&net, &settings).map_err(CoreError::Circuit)?;
        plan.prefactor().map_err(CoreError::Circuit)?;
        let peak_z = model.peak_impedance()?;
        Ok(Self {
            label: label.into(),
            base,
            at,
            budget,
            plan,
            die,
            ramp,
            peak_z,
        })
    }

    /// The engine for an architecture's representative [`PdnModel`]
    /// under the paper's stimulus: 25% POL quiescent load, transient at
    /// 5 µs, droop budget 5% of the POL voltage.
    ///
    /// # Errors
    ///
    /// As for [`DroopSweep::new`].
    pub fn for_architecture(
        arch: Architecture,
        spec: &SystemSpec,
        sim_time: Seconds,
        dt: Seconds,
    ) -> Result<Self, CoreError> {
        Self::new(
            &PdnModel::for_architecture(arch),
            arch.name(),
            spec.pol_current() * 0.25,
            Seconds::from_microseconds(5.0),
            spec.pol_voltage() * 0.05,
            sim_time,
            dt,
        )
    }

    /// The droop budget points are judged against.
    #[must_use]
    pub fn budget(&self) -> Volts {
        self.budget
    }

    /// Runs the sweep over the settings' grid on `settings.threads`
    /// workers (0 = auto). Serial and parallel runs are bitwise
    /// identical: each point restamps a cloned plan's ramp source
    /// (RHS-only) and replays the same compiled op list.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] when a restamp or transient solve
    /// fails.
    pub fn run(&self, settings: &DroopSweepSettings) -> Result<DroopSweepReport, CoreError> {
        let grid = settings.grid();
        vpd_obs::incr("droop.sweeps");
        vpd_obs::add("droop.points", grid.len() as u64);
        let results = par_map_with(
            settings.threads,
            &grid,
            &self.plan,
            |plan, &(after, rise)| -> Result<DroopSweepPoint, CoreError> {
                plan.set_load_ramp(self.ramp, self.base, after, self.at, rise)
                    .map_err(CoreError::Circuit)?;
                plan.run().map_err(CoreError::Circuit)?;
                Ok(self.derive_point(plan.result(), after, rise))
            },
        );
        let points = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(DroopSweepReport {
            label: self.label.clone(),
            base: self.base,
            at: self.at,
            budget: self.budget,
            impedance_peak: self.peak_z,
            points,
        })
    }

    /// Measures one recorded run: droop exactly as
    /// [`crate::DroopScenario::report`], plus the settling time (last
    /// excursion outside the 1%-of-droop band around the final value).
    fn derive_point(
        &self,
        result: &TransientResult,
        after: Amps,
        rise: Seconds,
    ) -> DroopSweepPoint {
        let times = result.times();
        let v = result.voltage(self.die);
        let (v_before, v_min) = dip(times, v, self.at);
        let droop = v_before - v_min;

        let v_final = v[v.len() - 1];
        let tol = 0.01 * droop.abs();
        let settle = v
            .iter()
            .rposition(|&s| (s - v_final).abs() > tol)
            .map_or(0.0, |k| {
                let t_in = times[(k + 1).min(times.len() - 1)];
                (t_in - self.at.value()).max(0.0)
            });

        DroopSweepPoint {
            after,
            rise,
            v_before: Volts::new(v_before),
            v_min: Volts::new(v_min),
            droop: Volts::new(droop),
            settle: Seconds::new(settle),
            violates: droop > self.budget.value(),
        }
    }
}

/// A full droop-sweep report: the swept grid plus derived worst cases.
/// Renders as JSON via [`vpd_report::Render`].
#[derive(Clone, PartialEq, Debug)]
pub struct DroopSweepReport {
    /// What was swept (architecture name or a caller label).
    pub label: String,
    /// Quiescent load before every transient.
    pub base: Amps,
    /// When every transient fires.
    pub at: Seconds,
    /// The droop budget points are judged against.
    pub budget: Volts,
    /// The model's peak impedance (the frequency-domain bound scale).
    pub impedance_peak: Ohms,
    /// The swept points, row-major over amplitude × rise.
    pub points: Vec<DroopSweepPoint>,
}

impl DroopSweepReport {
    /// The point with the largest droop (first in row-major order on
    /// ties).
    #[must_use]
    pub fn worst_droop(&self) -> Option<&DroopSweepPoint> {
        self.points.iter().fold(None, |best, p| match best {
            Some(b) if p.droop.value() > b.droop.value() => Some(p),
            None => Some(p),
            keep => keep,
        })
    }

    /// The point with the longest settling time (first on ties).
    #[must_use]
    pub fn worst_settle(&self) -> Option<&DroopSweepPoint> {
        self.points.iter().fold(None, |best, p| match best {
            Some(b) if p.settle.value() > b.settle.value() => Some(p),
            None => Some(p),
            keep => keep,
        })
    }

    /// The first point in row-major sweep order whose droop exceeds
    /// the budget, if any.
    #[must_use]
    pub fn first_violation(&self) -> Option<&DroopSweepPoint> {
        self.points.iter().find(|p| p.violates)
    }

    /// Whether every point stays within the budget.
    #[must_use]
    pub fn meets_budget(&self) -> bool {
        self.first_violation().is_none()
    }
}

/// Per-architecture sweep reports over one common grid — the
/// all-architecture comparison mode of `vpd droop --sweep`.
#[derive(Clone, PartialEq, Debug)]
pub struct DroopSweepComparison {
    /// One report per compared architecture, in input order.
    pub reports: Vec<DroopSweepReport>,
}

/// Sweeps every architecture in `archs` over the same grid and collects
/// the reports for side-by-side rendering.
///
/// # Errors
///
/// Returns the first model or solver failure.
pub fn compare_droop_architectures(
    archs: &[Architecture],
    spec: &SystemSpec,
    sim_time: Seconds,
    dt: Seconds,
    settings: &DroopSweepSettings,
) -> Result<DroopSweepComparison, CoreError> {
    let reports = archs
        .iter()
        .map(|&arch| DroopSweep::for_architecture(arch, spec, sim_time, dt)?.run(settings))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DroopSweepComparison { reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_droop, LoadStep};

    fn small(spec: &SystemSpec) -> DroopSweepSettings {
        DroopSweepSettings::paper_default(spec, 2, 3).unwrap()
    }

    fn fast_sweep(arch: Architecture) -> (DroopSweep, SystemSpec) {
        let spec = SystemSpec::paper_default();
        let sweep = DroopSweep::for_architecture(
            arch,
            &spec,
            Seconds::from_microseconds(20.0),
            Seconds::from_nanoseconds(50.0),
        )
        .unwrap();
        (sweep, spec)
    }

    #[test]
    fn grid_is_row_major_and_paper_default_brackets_the_load() {
        let spec = SystemSpec::paper_default();
        let s = DroopSweepSettings::paper_default(&spec, 3, 2).unwrap();
        assert_eq!(s.amplitudes.len(), 3);
        assert_eq!(s.rises.len(), 2);
        let grid = s.grid();
        assert_eq!(grid.len(), 6);
        // Row-major: rises vary fastest.
        assert_eq!(grid[0].0, grid[1].0);
        assert_ne!(grid[1].0, grid[2].0);
        let full = spec.pol_current().value();
        assert!((s.amplitudes[0].value() - 0.5 * full).abs() < 1e-9);
        assert!((s.amplitudes[2].value() - full).abs() < 1e-9);
        assert_eq!(s.rises[0], Seconds::ZERO);
        assert!(DroopSweepSettings::paper_default(&spec, 0, 1).is_err());
        assert!(DroopSweepSettings::paper_default(&spec, 1, 0).is_err());
    }

    #[test]
    fn ideal_step_point_matches_simulate_droop_bitwise() {
        // The sweep's rise = 0 point is the classic step stimulus; its
        // droop must carry the exact bits of the one-shot path.
        let (sweep, spec) = fast_sweep(Architecture::InterposerEmbedded);
        let settings = DroopSweepSettings {
            amplitudes: vec![spec.pol_current()],
            rises: vec![Seconds::ZERO],
            threads: 1,
        };
        let report = sweep.run(&settings).unwrap();
        let oracle = simulate_droop(
            &PdnModel::for_architecture(Architecture::InterposerEmbedded),
            &LoadStep::paper_default(&spec),
            Seconds::from_microseconds(20.0),
            Seconds::from_nanoseconds(50.0),
        )
        .unwrap();
        let p = &report.points[0];
        assert_eq!(
            p.v_before.value().to_bits(),
            oracle.v_before.value().to_bits()
        );
        assert_eq!(p.v_min.value().to_bits(), oracle.v_min.value().to_bits());
        assert_eq!(p.droop.value().to_bits(), oracle.droop.value().to_bits());
    }

    #[test]
    fn slower_slews_droop_less() {
        // A finite-slew transient excites less of the peak impedance
        // than an ideal step at the same amplitude.
        let (sweep, spec) = fast_sweep(Architecture::Reference);
        let settings = DroopSweepSettings {
            amplitudes: vec![spec.pol_current()],
            rises: vec![Seconds::ZERO, Seconds::from_microseconds(2.0)],
            threads: 1,
        };
        let report = sweep.run(&settings).unwrap();
        assert!(report.points[0].droop.value() > report.points[1].droop.value());
    }

    #[test]
    fn report_derives_worst_cases_and_violations() {
        let (sweep, spec) = fast_sweep(Architecture::Reference);
        let report = sweep.run(&small(&spec)).unwrap();
        assert_eq!(report.points.len(), 6);
        let worst = report.worst_droop().unwrap();
        let max = report
            .points
            .iter()
            .map(|p| p.droop.value())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(worst.droop.value(), max);
        // A0's full-amplitude step blows the 5% budget.
        assert!(!report.meets_budget());
        let first = report.first_violation().unwrap();
        assert!(first.violates && first.droop.value() > report.budget.value());
        assert!(report.worst_settle().unwrap().settle.value() >= 0.0);

        let (a2, _) = fast_sweep(Architecture::InterposerEmbedded);
        let a2_report = a2.run(&small(&spec)).unwrap();
        assert!(a2_report.meets_budget());
        assert!(a2_report.first_violation().is_none());
    }

    #[test]
    fn comparison_keeps_input_order() {
        let spec = SystemSpec::paper_default();
        let archs = [Architecture::Reference, Architecture::InterposerEmbedded];
        let cmp = compare_droop_architectures(
            &archs,
            &spec,
            Seconds::from_microseconds(20.0),
            Seconds::from_nanoseconds(100.0),
            &DroopSweepSettings::paper_default(&spec, 2, 2).unwrap(),
        )
        .unwrap();
        assert_eq!(cmp.reports.len(), 2);
        assert_eq!(cmp.reports[0].label, "A0");
        assert!(
            cmp.reports[0].worst_droop().unwrap().droop.value()
                > cmp.reports[1].worst_droop().unwrap().droop.value()
        );
    }
}
