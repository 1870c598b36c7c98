//! Design-space exploration: the full architecture × topology matrix
//! and the parameter sweeps behind the ablation studies.

use crate::arch::{AnalysisOptions, AnalysisSession, Architecture, ArchitectureReport};
use crate::{Calibration, CoreError, SystemSpec};
use vpd_converters::VrTopologyKind;
use vpd_units::{CurrentDensity, Volts};

/// One cell of the exploration matrix: a configuration and its outcome
/// (analyses that fail — e.g. 3LHD's insufficient per-module current at
/// 48 positions — are carried as errors, exactly like the paper's
/// "not shown in Figure 7" note).
#[derive(Clone, Debug)]
pub struct MatrixEntry {
    /// Architecture of this cell.
    pub architecture: Architecture,
    /// POL-stage topology of this cell.
    pub topology: VrTopologyKind,
    /// Analysis result.
    pub outcome: Result<ArchitectureReport, CoreError>,
}

/// Analyzes every (architecture, topology) combination, never failing
/// as a whole.
///
/// One [`AnalysisSession`] per architecture serves all of its topology
/// columns — the die grid does not depend on the topology, so each
/// extra column costs a restamp, not a rebuild.
#[must_use]
pub fn explore_matrix(
    topologies: &[VrTopologyKind],
    spec: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Vec<MatrixEntry> {
    vpd_obs::incr("explore.matrix_runs");
    let mut out = Vec::new();
    for arch in Architecture::paper_set() {
        let columns: &[VrTopologyKind] = if matches!(arch, Architecture::Reference) {
            &[VrTopologyKind::Dsch]
        } else {
            topologies
        };
        let mut session = AnalysisSession::new(arch, spec, calib, opts);
        for &topology in columns {
            out.push(MatrixEntry {
                architecture: arch,
                topology,
                // A session that could not be built fails every cell of
                // its row with the construction error.
                outcome: match session.as_mut() {
                    Ok(session) => session.analyze(topology, calib),
                    Err(e) => Err(e.clone()),
                },
            });
        }
    }
    vpd_obs::add("explore.entries", out.len() as u64);
    out
}

/// Sweeps the intermediate bus voltage of the two-stage architecture
/// (ablation B2): which bus minimizes total loss?
#[must_use]
pub fn sweep_bus_voltage(
    buses: &[Volts],
    spec: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Vec<(Volts, Result<ArchitectureReport, CoreError>)> {
    // All bus points share the under-die placement, so one session's
    // grid serves the whole sweep via `set_architecture`.
    let Some(&first) = buses.first() else {
        return Vec::new();
    };
    let mut session =
        AnalysisSession::new(Architecture::TwoStage { bus: first }, spec, calib, opts);
    buses
        .iter()
        .map(|&bus| {
            let outcome = match session.as_mut() {
                Ok(s) => s
                    .set_architecture(Architecture::TwoStage { bus })
                    .and_then(|()| s.analyze(VrTopologyKind::Dsch, calib)),
                Err(e) => Err(e.clone()),
            };
            (bus, outcome)
        })
        .collect()
}

/// The bus voltage with the lowest total loss among the swept points.
#[must_use]
pub fn best_bus_voltage(
    buses: &[Volts],
    spec: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Option<(Volts, f64)> {
    sweep_bus_voltage(buses, spec, calib, opts)
        .into_iter()
        .filter_map(|(bus, r)| r.ok().map(|rep| (bus, rep.loss_percent())))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// Sweeps the die current density at fixed power (the Figure 1 / §I
/// scaling axis), analyzing one configuration per point.
#[must_use]
pub fn sweep_current_density(
    densities_a_per_mm2: &[f64],
    architecture: Architecture,
    topology: VrTopologyKind,
    base: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Vec<(f64, Result<ArchitectureReport, CoreError>)> {
    let mut session = AnalysisSession::new(architecture, base, calib, opts);
    densities_a_per_mm2
        .iter()
        .map(|&d| {
            let spec = SystemSpec::new(
                base.pcb_voltage(),
                base.pol_voltage(),
                base.pol_power(),
                CurrentDensity::from_amps_per_square_millimeter(d),
            );
            let outcome = match (spec, session.as_mut()) {
                (Ok(s), Ok(sess)) => {
                    sess.set_spec(&s);
                    sess.analyze(topology, calib)
                }
                (Ok(_), Err(e)) => Err(e.clone()),
                (Err(e), _) => Err(e),
            };
            (d, outcome)
        })
        .collect()
}

/// Sweeps the POL power at fixed density and voltages: horizontal loss
/// grows with `I²` while delivered power grows with `I`, so the
/// reference architecture degrades quadratically — exposing the power
/// level where vertical delivery starts to pay.
#[must_use]
pub fn sweep_pol_power(
    powers_w: &[f64],
    architecture: Architecture,
    topology: VrTopologyKind,
    base: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Vec<(f64, Result<ArchitectureReport, CoreError>)> {
    let mut session = AnalysisSession::new(architecture, base, calib, opts);
    powers_w
        .iter()
        .map(|&p| {
            let spec = SystemSpec::new(
                base.pcb_voltage(),
                base.pol_voltage(),
                vpd_units::Watts::new(p),
                base.current_density(),
            );
            let outcome = match (spec, session.as_mut()) {
                (Ok(s), Ok(sess)) => {
                    sess.set_spec(&s);
                    sess.analyze(topology, calib)
                }
                (Ok(_), Err(e)) => Err(e.clone()),
                (Err(e), _) => Err(e),
            };
            (p, outcome)
        })
        .collect()
}

/// The POL power at which the reference architecture's total loss first
/// exceeds the given vertical architecture's, scanning the provided
/// grid. Returns `None` when no crossover lies inside the grid.
#[must_use]
pub fn reference_crossover_power(
    powers_w: &[f64],
    vertical: Architecture,
    topology: VrTopologyKind,
    base: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Option<f64> {
    let a0 = sweep_pol_power(
        powers_w,
        Architecture::Reference,
        topology,
        base,
        calib,
        opts,
    );
    let av = sweep_pol_power(powers_w, vertical, topology, base, calib, opts);
    for ((p, r0), (_, rv)) in a0.into_iter().zip(av) {
        if let (Ok(r0), Ok(rv)) = (r0, rv) {
            if r0.loss_percent() > rv.loss_percent() {
                return Some(p);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (SystemSpec, Calibration, AnalysisOptions) {
        (
            SystemSpec::paper_default(),
            Calibration::paper_default(),
            AnalysisOptions::default(),
        )
    }

    #[test]
    fn matrix_includes_failed_cells_for_3lhd() {
        let (spec, calib, opts) = env();
        let entries = explore_matrix(&VrTopologyKind::ALL, &spec, &calib, &opts);
        // A0 + 4 architectures × 3 topologies.
        assert_eq!(entries.len(), 13);
        // Single-stage 3LHD cells fail capacity (48 × 12 A < 1 kA) — the
        // paper's exclusion.
        let failed_3lhd = entries
            .iter()
            .filter(|e| e.topology == VrTopologyKind::ThreeLevelHybridDickson && e.outcome.is_err())
            .count();
        assert!(failed_3lhd >= 2, "expected A1/A2 3LHD exclusions");
        // Everything with DPMIH and DSCH succeeds.
        for e in &entries {
            if e.topology != VrTopologyKind::ThreeLevelHybridDickson {
                assert!(e.outcome.is_ok(), "{} {}", e.architecture, e.topology);
            }
        }
    }

    #[test]
    fn three_lhd_succeeds_with_enough_modules() {
        // The module-count override lets the explorer run the 84-module
        // variant the paper couldn't quote numbers for.
        let (spec, calib, _) = env();
        let opts = AnalysisOptions {
            module_count: Some(84),
            ..AnalysisOptions::default()
        };
        let entries = explore_matrix(
            &[VrTopologyKind::ThreeLevelHybridDickson],
            &spec,
            &calib,
            &opts,
        );
        let a1 = entries
            .iter()
            .find(|e| e.architecture == Architecture::InterposerPeriphery)
            .unwrap();
        assert!(a1.outcome.as_ref().unwrap().loss_percent() < 35.0);
    }

    #[test]
    fn zero_module_count_fails_every_regulator_cell() {
        let (spec, calib, _) = env();
        let opts = AnalysisOptions {
            module_count: Some(0),
            ..AnalysisOptions::default()
        };
        let entries = explore_matrix(&VrTopologyKind::ALL, &spec, &calib, &opts);
        assert_eq!(entries.len(), 13);
        for e in &entries {
            if e.architecture == Architecture::Reference {
                // The reference's 48 via-entry clusters ignore the
                // override.
                assert!(e.outcome.is_ok());
            } else {
                assert!(
                    matches!(
                        e.outcome,
                        Err(CoreError::InvalidSpec {
                            what: "regulator count",
                            ..
                        })
                    ),
                    "{} {}: {:?}",
                    e.architecture,
                    e.topology,
                    e.outcome
                );
            }
        }
    }

    #[test]
    fn bus_sweep_has_an_interior_optimum() {
        // Too low a bus → huge lateral current; too high → second stage
        // back at a punishing ratio. The optimum is interior.
        let (spec, calib, opts) = env();
        let buses: Vec<Volts> = [3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]
            .iter()
            .map(|&v| Volts::new(v))
            .collect();
        let (best, best_pct) = best_bus_voltage(&buses, &spec, &calib, &opts).unwrap();
        assert!(
            best.value() > 3.0 && best.value() < 32.0,
            "optimum at edge: {best}"
        );
        assert!(best_pct < 30.0);
    }

    #[test]
    fn density_sweep_worsens_reference_faster_than_vertical() {
        let (spec, calib, opts) = env();
        let densities = [0.5, 1.0, 2.0];
        let a0 = sweep_current_density(
            &densities,
            Architecture::Reference,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        );
        // Reference-architecture loss percent is density-independent in
        // this model (the PPDN resistance is calibrated at the system
        // level), but the *die area the C4 field demands* stays at
        // ~1200 mm² while the die shrinks with density — verify the
        // utilization pressure instead.
        for (_, outcome) in &a0 {
            assert!(outcome.is_ok());
        }
        let a1 = sweep_current_density(
            &densities,
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        );
        for (d, outcome) in &a1 {
            let rep = outcome.as_ref().unwrap();
            assert!(
                rep.loss_percent() < 30.0,
                "A1 at {d} A/mm²: {:.1}%",
                rep.loss_percent()
            );
        }
    }

    #[test]
    fn reference_degrades_quadratically_with_power() {
        let (spec, calib, opts) = env();
        let powers = [125.0, 250.0, 500.0, 1000.0];
        let swept = sweep_pol_power(
            &powers,
            Architecture::Reference,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        );
        let loss_pcts: Vec<f64> = swept
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().loss_percent())
            .collect();
        // Strictly worsening with power (I²R vs linear P).
        assert!(loss_pcts.windows(2).all(|w| w[0] < w[1]), "{loss_pcts:?}");
    }

    #[test]
    fn crossover_power_exists_within_hpc_range() {
        // At low power PCB conversion is fine; by the paper's kilowatt
        // scale, vertical delivery wins decisively.
        let (spec, calib, opts) = env();
        let powers: Vec<f64> = (1..=20).map(|k| 50.0 * k as f64).collect();
        let crossover = reference_crossover_power(
            &powers,
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        );
        let p = crossover.expect("crossover inside 50-1000 W range");
        assert!((50.0..=1000.0).contains(&p), "crossover at {p} W");
    }

    #[test]
    fn invalid_density_is_carried_not_panicked() {
        let (spec, calib, opts) = env();
        let swept = sweep_current_density(
            &[-1.0],
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        );
        assert!(swept[0].1.is_err());
    }
}
