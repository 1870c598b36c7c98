//! Electro-thermal co-analysis of the vertical architectures.
//!
//! The DC picture favors putting regulators as close to the load as
//! possible (A2); the thermal picture pushes back: an under-die module
//! dumps its conversion loss directly beneath the compute hotspot,
//! raising its own junction temperature, which raises its conduction
//! loss, which raises the temperature — a feedback loop this module
//! iterates to a fixed point. This is the co-design trade the paper's
//! heterogeneous-integration discussion (\[13\]) points at.

use crate::placement::{below_die_sites, periphery_sites, VrPlacement};
use crate::{analyze, AnalysisOptions, Architecture, Calibration, CoreError, SystemSpec};
use vpd_converters::VrTopologyKind;
use vpd_thermal::{DeratingModel, DeviceTechnology, ThermalMesh};
use vpd_units::{Celsius, Watts};

/// Settings for the electro-thermal fixed-point iteration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ElectroThermalSettings {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Convergence threshold on the peak-temperature change (kelvin).
    pub tolerance_k: f64,
    /// Device technology of the regulator switches.
    pub technology: DeviceTechnology,
    /// Fraction of a periphery module's heat that couples into the die
    /// mesh (periphery modules sit beside, not under, the die).
    pub periphery_coupling: f64,
}

impl Default for ElectroThermalSettings {
    fn default() -> Self {
        Self {
            max_iterations: 20,
            tolerance_k: 0.01,
            technology: DeviceTechnology::GaN,
            periphery_coupling: 0.3,
        }
    }
}

/// How a fixed-point iteration ended. `Converged` is the only verdict
/// under which the reported state is an actual fixed point; the other
/// two return the last iterate together with how far it still moved,
/// so callers can distinguish "almost there" from "meaningless".
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FixedPointTermination {
    /// The iterate's change fell below tolerance.
    Converged {
        /// Final iterate change (kelvin for thermal loops).
        residual_k: f64,
    },
    /// The iteration cap was reached with the residual still above
    /// tolerance — the loop was cut off, not settled.
    IterationCap {
        /// Residual when the cap was reached.
        residual_k: f64,
    },
    /// The iterate went non-finite — feedback ran away and the state
    /// is not usable.
    Diverged {
        /// Last residual observed before the blow-up.
        residual_k: f64,
    },
}

impl FixedPointTermination {
    /// True only for [`FixedPointTermination::Converged`].
    #[must_use]
    pub fn converged(&self) -> bool {
        matches!(self, Self::Converged { .. })
    }

    /// The final residual, whatever the verdict.
    #[must_use]
    pub fn residual_k(&self) -> f64 {
        match *self {
            Self::Converged { residual_k }
            | Self::IterationCap { residual_k }
            | Self::Diverged { residual_k } => residual_k,
        }
    }
}

impl std::fmt::Display for FixedPointTermination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Converged { residual_k } => {
                write!(f, "converged (residual {residual_k:.3e} K)")
            }
            Self::IterationCap { residual_k } => {
                write!(f, "iteration cap hit (residual {residual_k:.3e} K)")
            }
            Self::Diverged { residual_k } => {
                write!(f, "DIVERGED (last residual {residual_k:.3e} K)")
            }
        }
    }
}

/// Result of the coupled analysis.
#[derive(Clone, Debug)]
pub struct ElectroThermalReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the fixed point converged within tolerance.
    pub converged: bool,
    /// Typed verdict: how the fixed-point loop ended and the final
    /// residual. `converged` mirrors `termination.converged()`.
    pub termination: FixedPointTermination,
    /// Peak die temperature.
    pub peak_temperature: Celsius,
    /// Mean die temperature.
    pub mean_temperature: Celsius,
    /// Hottest regulator junction (site temperature).
    pub worst_module_temperature: Celsius,
    /// Conversion loss before derating.
    pub nominal_conversion_loss: Watts,
    /// Conversion loss at the thermal fixed point.
    pub derated_conversion_loss: Watts,
    /// Whether every module stays within its junction rating.
    pub modules_within_rating: bool,
}

impl ElectroThermalReport {
    /// The thermal penalty: extra conversion loss caused by heating.
    #[must_use]
    pub fn thermal_penalty(&self) -> Watts {
        self.derated_conversion_loss - self.nominal_conversion_loss
    }
}

/// Runs the coupled electro-thermal analysis for a single-stage
/// vertical architecture (A1 or A2).
///
/// The die dissipates the full POL power with the calibrated power map;
/// regulator losses enter the mesh at their placement sites (fully for
/// under-die modules, partially for periphery modules). Each iteration
/// re-derates every module's conduction loss at its local temperature.
///
/// # Errors
///
/// * [`CoreError::InvalidSpec`] when called with the reference or
///   two-stage architecture (no single regulator bank on the die mesh).
/// * Any error from the underlying DC analysis or thermal solve.
pub fn electro_thermal(
    architecture: Architecture,
    topology: VrTopologyKind,
    spec: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
    settings: &ElectroThermalSettings,
) -> Result<ElectroThermalReport, CoreError> {
    let placement = match architecture {
        Architecture::InterposerPeriphery => VrPlacement::Periphery,
        Architecture::InterposerEmbedded => VrPlacement::BelowDie,
        _ => {
            return Err(CoreError::InvalidSpec {
                what: "electro-thermal analysis requires A1 or A2",
                value: 0.0,
            })
        }
    };
    let base = analyze(architecture, topology, spec, calib, opts)?;
    let conv = crate::single_stage_converter(topology);
    let per_vr = base.sharing.per_vr().to_vec();

    let n = calib.grid_nodes_per_side.max(4);
    let mesh = ThermalMesh::silicon_die_default(n, n)?;
    let derating = DeratingModel::for_technology(settings.technology);

    // Die logic heat: the full POL power, distributed by the
    // *time-averaged* power map (heat integrates over workload
    // migration; the sharper electrical map sets module currents).
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

    let sites = match placement {
        VrPlacement::Periphery => periphery_sites(per_vr.len(), n, n),
        VrPlacement::BelowDie => below_die_sites(per_vr.len(), n, n),
    };
    let coupling = match placement {
        VrPlacement::Periphery => settings.periphery_coupling.clamp(0.0, 1.0),
        VrPlacement::BelowDie => 1.0,
    };

    let nominal_losses: Vec<Watts> = per_vr
        .iter()
        .map(|&i| conv.curve().loss_unchecked(i))
        .collect();
    let nominal_total: Watts = nominal_losses.iter().copied().sum();

    let mut factors = vec![1.0; per_vr.len()];
    let mut last_peak = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut residual_k = f64::INFINITY;
    let mut termination = None;
    let mut peak = Celsius::new(0.0);
    let mut mean = Celsius::new(0.0);
    let mut worst_module = Celsius::new(0.0);

    while iterations < settings.max_iterations {
        iterations += 1;
        // Assemble the heat map: logic + (derated) module losses. A
        // module's footprint (~7 mm² for DSCH) spans a 3×3 cell patch of
        // the 25×25 mesh, so its heat deposits over that patch rather
        // than one cell.
        let mut heat = logic.clone();
        for ((&(x, y), loss), factor) in sites.iter().zip(&nominal_losses).zip(&factors) {
            let total = *loss * *factor * coupling;
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
        let map = mesh.solve(&heat)?;
        peak = map.max();
        mean = map.mean();
        worst_module = sites
            .iter()
            .map(|&(x, y)| map.at(x, y))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max);
        // Update derating factors from the site temperatures.
        for (factor, &(x, y)) in factors.iter_mut().zip(&sites) {
            *factor = derating.loss_factor(map.at(x, y));
        }
        if !peak.value().is_finite() {
            termination = Some(FixedPointTermination::Diverged { residual_k });
            break;
        }
        residual_k = (peak.value() - last_peak).abs();
        if residual_k < settings.tolerance_k {
            termination = Some(FixedPointTermination::Converged { residual_k });
            break;
        }
        last_peak = peak.value();
    }
    // Falling off the loop means the cap cut the iteration short: the
    // report carries the last iterate, flagged as such rather than
    // silently presented as a fixed point.
    let termination = termination.unwrap_or(FixedPointTermination::IterationCap { residual_k });

    let derated_total: Watts = nominal_losses
        .iter()
        .zip(&factors)
        .map(|(l, f)| *l * *f)
        .sum();

    Ok(ElectroThermalReport {
        iterations,
        converged: termination.converged(),
        termination,
        peak_temperature: peak,
        mean_temperature: mean,
        worst_module_temperature: worst_module,
        nominal_conversion_loss: nominal_total,
        derated_conversion_loss: derated_total,
        modules_within_rating: derating.within_rating(worst_module),
    })
}

/// Convenience: the A1-versus-A2 thermal comparison at the paper's
/// operating point.
///
/// # Errors
///
/// Propagates any analysis failure.
pub fn thermal_comparison(
    topology: VrTopologyKind,
    spec: &SystemSpec,
    calib: &Calibration,
) -> Result<(ElectroThermalReport, ElectroThermalReport), CoreError> {
    let opts = AnalysisOptions::default();
    let settings = ElectroThermalSettings::default();
    let a1 = electro_thermal(
        Architecture::InterposerPeriphery,
        topology,
        spec,
        calib,
        &opts,
        &settings,
    )?;
    let a2 = electro_thermal(
        Architecture::InterposerEmbedded,
        topology,
        spec,
        calib,
        &opts,
        &settings,
    )?;
    Ok((a1, a2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_units::Volts;

    fn env() -> (SystemSpec, Calibration) {
        (SystemSpec::paper_default(), Calibration::paper_default())
    }

    #[test]
    fn iteration_converges() {
        let (spec, calib) = env();
        let report = electro_thermal(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &AnalysisOptions::default(),
            &ElectroThermalSettings::default(),
        )
        .unwrap();
        assert!(report.converged, "fixed point within 20 iterations");
        assert!(report.iterations >= 2);
        assert!(report.peak_temperature.value() > 25.0);
        assert!(report.thermal_penalty().value() > 0.0);
    }

    #[test]
    fn iteration_cap_is_surfaced_as_a_typed_non_convergence() {
        // An unreachable tolerance forces the loop to its cap: the
        // report must say so explicitly instead of spinning forever or
        // quietly claiming convergence.
        let (spec, calib) = env();
        let report = electro_thermal(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &AnalysisOptions::default(),
            &ElectroThermalSettings {
                max_iterations: 2,
                tolerance_k: 0.0,
                ..ElectroThermalSettings::default()
            },
        )
        .unwrap();
        assert_eq!(report.iterations, 2, "loop stops at the cap");
        assert!(!report.converged);
        assert!(
            matches!(
                report.termination,
                FixedPointTermination::IterationCap { .. }
            ),
            "got {:?}",
            report.termination
        );
        let residual = report.termination.residual_k();
        assert!(residual.is_finite() && residual >= 0.0);
        assert!(!report.termination.converged());
        assert!(report.termination.to_string().contains("iteration cap"));
        // The state is still the last iterate — physically plausible.
        assert!(report.peak_temperature.value() > 25.0);

        // And the healthy path reports Converged with the same residual
        // semantics.
        let ok = electro_thermal(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &AnalysisOptions::default(),
            &ElectroThermalSettings::default(),
        )
        .unwrap();
        assert!(ok.converged);
        assert!(matches!(
            ok.termination,
            FixedPointTermination::Converged { .. }
        ));
        assert!(ok.termination.residual_k() < ElectroThermalSettings::default().tolerance_k);
    }

    #[test]
    fn under_die_modules_run_hotter_than_periphery() {
        // The co-design trade: A2's modules sit under the hotspot.
        let (spec, calib) = env();
        let (a1, a2) = thermal_comparison(VrTopologyKind::Dsch, &spec, &calib).unwrap();
        assert!(
            a2.worst_module_temperature.value() > a1.worst_module_temperature.value(),
            "A2 module {} vs A1 module {}",
            a2.worst_module_temperature,
            a1.worst_module_temperature
        );
        // And its thermal penalty is correspondingly larger.
        assert!(a2.thermal_penalty().value() > a1.thermal_penalty().value());
    }

    #[test]
    fn gan_pays_smaller_penalty_than_si() {
        let (spec, calib) = env();
        let run = |tech| {
            electro_thermal(
                Architecture::InterposerEmbedded,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &AnalysisOptions::default(),
                &ElectroThermalSettings {
                    technology: tech,
                    ..ElectroThermalSettings::default()
                },
            )
            .unwrap()
        };
        let si = run(DeviceTechnology::Si);
        let gan = run(DeviceTechnology::GaN);
        assert!(si.thermal_penalty().value() > gan.thermal_penalty().value());
    }

    #[test]
    fn rejects_reference_architecture() {
        let (spec, calib) = env();
        let err = electro_thermal(
            Architecture::Reference,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &AnalysisOptions::default(),
            &ElectroThermalSettings::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec { .. }));
        let err2 = electro_thermal(
            Architecture::TwoStage {
                bus: Volts::new(12.0),
            },
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &AnalysisOptions::default(),
            &ElectroThermalSettings::default(),
        )
        .unwrap_err();
        assert!(matches!(err2, CoreError::InvalidSpec { .. }));
    }

    #[test]
    fn temperatures_in_plausible_band() {
        let (spec, calib) = env();
        let (a1, a2) = thermal_comparison(VrTopologyKind::Dsch, &spec, &calib).unwrap();
        for (name, r) in [("A1", &a1), ("A2", &a2)] {
            let peak = r.peak_temperature.value();
            assert!(
                (45.0..150.0).contains(&peak),
                "{name} peak {peak:.0} °C implausible"
            );
            assert!(r.mean_temperature.value() < peak);
        }
    }
}
