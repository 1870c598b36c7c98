//! The frequency-domain sweep engine: compiled-plan, parallel PDN
//! impedance profiles.
//!
//! This is the AC counterpart of the Monte-Carlo and fault engines: a
//! [`PdnModel`] ladder is compiled **once** into an
//! [`vpd_circuit::AcPlan`], frequency points fan out through
//! [`crate::par_map_with`] with one cloned plan per worker, and the
//! result is an [`ImpedanceProfile`] report (peak, antiresonant peaks,
//! target-impedance margin, first violating frequency) implementing
//! [`vpd_report::Render`]. Every point depends only on the compiled
//! plan and its frequency, so the serial and parallel sweeps are
//! **bitwise identical** — the same contract the DC engines make.

use crate::par::par_map_with;
use crate::{target_impedance, Architecture, CoreError, PdnModel, SystemSpec};
use vpd_circuit::{log_sweep_checked, AcPlan, AcPoint, NodeId};
use vpd_units::{Hertz, Ohms};

/// Sweep grid and execution settings for [`ImpedanceSweep`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ImpedanceSweepSettings {
    /// Sweep start frequency.
    pub fmin: Hertz,
    /// Sweep stop frequency.
    pub fmax: Hertz,
    /// Number of logarithmically spaced points.
    pub points: usize,
    /// Worker threads (0 = auto). The result is identical for every
    /// thread count.
    pub threads: usize,
}

impl Default for ImpedanceSweepSettings {
    /// The grid of [`PdnModel::default_peak_sweep`]: 200 points,
    /// 1 kHz – 1 GHz, auto threads.
    fn default() -> Self {
        Self {
            fmin: crate::impedance::DEFAULT_SWEEP_FMIN,
            fmax: crate::impedance::DEFAULT_SWEEP_FMAX,
            points: crate::impedance::DEFAULT_SWEEP_POINTS,
            threads: 0,
        }
    }
}

impl ImpedanceSweepSettings {
    /// The validated frequency grid for these settings.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] for bad bounds or point counts —
    /// no input panics, so CLI flags can flow here directly.
    pub fn frequencies(&self) -> Result<Vec<Hertz>, CoreError> {
        log_sweep_checked(self.fmin, self.fmax, self.points).map_err(CoreError::Circuit)
    }
}

/// A reusable impedance-sweep engine over one compiled PDN ladder.
///
/// ```
/// use vpd_core::{Architecture, ImpedanceSweep, ImpedanceSweepSettings, SystemSpec};
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let spec = SystemSpec::paper_default();
/// let sweep = ImpedanceSweep::for_architecture(Architecture::InterposerEmbedded, &spec)?;
/// let profile = sweep.run(&ImpedanceSweepSettings {
///     points: 40,
///     ..ImpedanceSweepSettings::default()
/// })?;
/// assert!(profile.meets_target(), "A2 flattens the profile");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ImpedanceSweep {
    label: String,
    plan: AcPlan,
    die: NodeId,
    target: Ohms,
}

impl ImpedanceSweep {
    /// Compiles `model` into a sweep engine labelled `label`, judged
    /// against `target`.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures from the model.
    pub fn new(
        model: &PdnModel,
        label: impl Into<String>,
        target: Ohms,
    ) -> Result<Self, CoreError> {
        let (net, die) = model.netlist()?;
        Ok(Self {
            label: label.into(),
            plan: AcPlan::compile(&net),
            die,
            target,
        })
    }

    /// The engine for an architecture's representative [`PdnModel`],
    /// judged against the paper's target impedance (5% ripple budget,
    /// 25% load step).
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures from the model.
    pub fn for_architecture(arch: Architecture, spec: &SystemSpec) -> Result<Self, CoreError> {
        Self::new(
            &PdnModel::for_architecture(arch),
            arch.name(),
            target_impedance(spec, 0.05, 0.25),
        )
    }

    /// The target impedance this engine judges profiles against.
    #[must_use]
    pub fn target(&self) -> Ohms {
        self.target
    }

    /// Runs the sweep over the settings' validated grid.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] for invalid grid settings or a
    /// failed AC solve.
    pub fn run(&self, settings: &ImpedanceSweepSettings) -> Result<ImpedanceProfile, CoreError> {
        self.run_over(&settings.frequencies()?, settings.threads)
    }

    /// Runs the sweep over an explicit frequency grid on `threads`
    /// workers (0 = auto). Serial and parallel runs are bitwise
    /// identical.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] when an AC solve fails.
    pub fn run_over(&self, freqs: &[Hertz], threads: usize) -> Result<ImpedanceProfile, CoreError> {
        vpd_obs::incr("zsweep.runs");
        vpd_obs::add("zsweep.points", freqs.len() as u64);
        let die = self.die;
        let results = par_map_with(threads, freqs, &self.plan, |plan, &f| {
            plan.impedance_at(die, f)
        });
        let points = results
            .into_iter()
            .collect::<Result<Vec<AcPoint>, _>>()
            .map_err(CoreError::Circuit)?;
        Ok(ImpedanceProfile::from_points(
            self.label.clone(),
            points,
            self.target,
        ))
    }
}

/// A full impedance-profile report: the swept points plus the derived
/// target-impedance verdict. Renders as JSON via
/// [`vpd_report::Render`].
#[derive(Clone, PartialEq, Debug)]
pub struct ImpedanceProfile {
    /// What was swept (architecture name or a caller label).
    pub label: String,
    /// The swept points, in frequency order.
    pub points: Vec<AcPoint>,
    /// The target impedance the profile is judged against.
    pub target: Ohms,
    /// The peak impedance magnitude.
    pub peak: Ohms,
    /// The frequency of the peak.
    pub peak_frequency: Hertz,
    /// Interior local maxima — the antiresonant peaks between decap
    /// stages.
    pub antiresonances: Vec<AcPoint>,
    /// The lowest swept frequency whose magnitude exceeds the target,
    /// if any.
    pub first_violation: Option<Hertz>,
}

impl ImpedanceProfile {
    /// Derives the report quantities from swept points.
    #[must_use]
    pub fn from_points(label: String, points: Vec<AcPoint>, target: Ohms) -> Self {
        let (peak, peak_frequency) = points.iter().map(|p| (p.magnitude(), p.frequency)).fold(
            (0.0, Hertz::new(0.0)),
            |(bm, bf), (m, f)| {
                if m > bm {
                    (m, f)
                } else {
                    (bm, bf)
                }
            },
        );
        let antiresonances = points
            .windows(3)
            .filter(|w| w[1].magnitude() > w[0].magnitude() && w[1].magnitude() > w[2].magnitude())
            .map(|w| w[1])
            .collect();
        let first_violation = points
            .iter()
            .find(|p| p.magnitude() > target.value())
            .map(|p| p.frequency);
        Self {
            label,
            points,
            target,
            peak: Ohms::new(peak),
            peak_frequency,
            antiresonances,
            first_violation,
        }
    }

    /// Whether the whole profile stays at or below the target.
    #[must_use]
    pub fn meets_target(&self) -> bool {
        self.first_violation.is_none()
    }

    /// Target-impedance margin as a fraction of the target: positive
    /// means the peak sits below `Z_t` by that fraction, negative means
    /// it overshoots.
    ///
    /// Returns `None` when no margin is defined: an empty sweep (there
    /// is no peak to judge) or a zero/near-zero or non-finite target
    /// (the ratio would divide to `±inf`/`NaN` instead of meaning
    /// anything).
    #[must_use]
    pub fn margin(&self) -> Option<f64> {
        if self.points.is_empty() || !self.target.value().is_normal() || self.target.value() < 0.0 {
            return None;
        }
        let ratio = self.peak.value() / self.target.value();
        ratio.is_finite().then_some(1.0 - ratio)
    }
}

/// Per-architecture profiles over one common grid — the all-architecture
/// comparison mode of `vpd impedance`.
#[derive(Clone, PartialEq, Debug)]
pub struct ImpedanceComparison {
    /// One profile per compared architecture, in input order.
    pub profiles: Vec<ImpedanceProfile>,
}

/// Sweeps every architecture in `archs` over the same grid and collects
/// the profiles for side-by-side rendering.
///
/// # Errors
///
/// Returns the first model or solver failure.
pub fn compare_architectures(
    archs: &[Architecture],
    spec: &SystemSpec,
    settings: &ImpedanceSweepSettings,
) -> Result<ImpedanceComparison, CoreError> {
    let freqs = settings.frequencies()?;
    let profiles = archs
        .iter()
        .map(|&arch| {
            ImpedanceSweep::for_architecture(arch, spec)?.run_over(&freqs, settings.threads)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ImpedanceComparison { profiles })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ImpedanceSweepSettings {
        ImpedanceSweepSettings {
            points: 48,
            ..ImpedanceSweepSettings::default()
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_are_bitwise_identical() {
        let spec = SystemSpec::paper_default();
        let sweep = ImpedanceSweep::for_architecture(Architecture::Reference, &spec).unwrap();
        let freqs = small().frequencies().unwrap();
        let serial = sweep.run_over(&freqs, 1).unwrap();
        for threads in [2, 3, 8] {
            assert_eq!(sweep.run_over(&freqs, threads).unwrap(), serial);
        }
        assert_eq!(sweep.run_over(&freqs, 0).unwrap(), serial);
    }

    #[test]
    fn profile_derives_peak_violation_and_antiresonances() {
        let spec = SystemSpec::paper_default();
        let freqs = small().frequencies().unwrap();
        let a0 = ImpedanceSweep::for_architecture(Architecture::Reference, &spec)
            .unwrap()
            .run_over(&freqs, 1)
            .unwrap();
        // A0's board-level loop violates the target with antiresonant
        // structure; the peak must be one of the swept magnitudes.
        assert!(!a0.meets_target());
        assert!(a0.first_violation.is_some());
        assert!(a0.margin().unwrap() < 0.0);
        assert!(!a0.antiresonances.is_empty());
        let max = a0.points.iter().map(AcPoint::magnitude).fold(0.0, f64::max);
        assert_eq!(a0.peak.value(), max);
        assert!(a0
            .points
            .iter()
            .any(|p| p.frequency == a0.peak_frequency && p.magnitude() == max));

        let a2 = ImpedanceSweep::for_architecture(Architecture::InterposerEmbedded, &spec)
            .unwrap()
            .run_over(&freqs, 1)
            .unwrap();
        assert!(a2.meets_target());
        assert_eq!(a2.first_violation, None);
        assert!(a2.margin().unwrap() > 0.0);
    }

    #[test]
    fn margin_is_none_for_empty_sweeps_and_degenerate_targets() {
        // Empty point set: no peak exists, so no margin — not the
        // misleading `1.0` the raw formula would produce.
        let empty = ImpedanceProfile::from_points("empty".into(), Vec::new(), Ohms::new(0.01));
        assert_eq!(empty.margin(), None);
        assert!(empty.meets_target(), "no point can violate");

        let point = |f: f64, re: f64| AcPoint {
            frequency: Hertz::new(f),
            response: vpd_numeric::Complex::from_real(re),
        };
        let points = vec![point(1e3, 0.5), point(1e4, 2.0), point(1e5, 1.0)];
        // A zero target divides to ±inf; near-zero (subnormal) and
        // non-finite targets are equally meaningless.
        for bad in [0.0, f64::MIN_POSITIVE * 0.5, f64::NAN, f64::INFINITY] {
            let p = ImpedanceProfile::from_points("bad".into(), points.clone(), Ohms::new(bad));
            assert_eq!(p.margin(), None, "target {bad}");
        }
        // A healthy target still reports the exact ratio margin.
        let good = ImpedanceProfile::from_points("good".into(), points, Ohms::new(4.0));
        assert_eq!(good.margin(), Some(0.5));
    }

    #[test]
    fn peak_agrees_with_pdn_model_over_the_same_grid() {
        let spec = SystemSpec::paper_default();
        let model = PdnModel::for_architecture(Architecture::InterposerPeriphery);
        let freqs = small().frequencies().unwrap();
        let profile = ImpedanceSweep::for_architecture(Architecture::InterposerPeriphery, &spec)
            .unwrap()
            .run_over(&freqs, 1)
            .unwrap();
        let peak = model.peak_impedance_over(&freqs).unwrap();
        assert_eq!(profile.peak.value(), peak.value());
    }

    #[test]
    fn default_settings_match_the_default_peak_sweep() {
        let freqs = ImpedanceSweepSettings::default().frequencies().unwrap();
        assert_eq!(freqs, PdnModel::default_peak_sweep());
    }

    #[test]
    fn comparison_keeps_input_order_and_rejects_bad_grids() {
        let spec = SystemSpec::paper_default();
        let archs = [Architecture::Reference, Architecture::InterposerEmbedded];
        let cmp = compare_architectures(&archs, &spec, &small()).unwrap();
        assert_eq!(cmp.profiles.len(), 2);
        assert_eq!(cmp.profiles[0].label, "A0");
        assert!(cmp.profiles[0].peak.value() > cmp.profiles[1].peak.value());

        let bad = ImpedanceSweepSettings {
            points: 1,
            ..small()
        };
        assert!(matches!(
            compare_architectures(&archs, &spec, &bad),
            Err(CoreError::Circuit(_))
        ));
    }
}
