//! Vertical power-delivery architectures and exploration — the primary
//! contribution of *"Vertical Power Delivery for Emerging Packaging and
//! Integration Platforms — Power Conversion and Distribution"*
//! (SOCC 2023).
//!
//! The crate models the paper's five PCB-to-POL delivery configurations
//! (the PCB-conversion reference `A0` and the vertical architectures
//! `A1`, `A2`, `A3@12V`, `A3@6V`), places their regulators, solves the
//! die-grid current sharing, and decomposes the end-to-end loss into
//! conversion, horizontal, vertical, and grid-spreading segments — the
//! data behind the paper's Figure 7 and §IV claims.
//!
//! ```
//! use vpd_core::{analyze, AnalysisOptions, Architecture, Calibration, SystemSpec};
//! use vpd_converters::VrTopologyKind;
//!
//! # fn main() -> Result<(), vpd_core::CoreError> {
//! let spec = SystemSpec::paper_default(); // 48 V → 1 V, 1 kW, 2 A/mm²
//! let calib = Calibration::paper_default();
//! let a1 = analyze(
//!     Architecture::InterposerPeriphery,
//!     VrTopologyKind::Dsch,
//!     &spec,
//!     &calib,
//!     &AnalysisOptions::default(),
//! )?;
//! // The paper's headline: vertical delivery reaches ~80% efficiency
//! // where PCB-level conversion loses over 40%.
//! assert!(a1.loss_percent() < 25.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod calib;
mod designer;
mod droop;
mod droopsweep;
mod electro_thermal;
mod error;
mod explore;
mod faultdyn;
mod faults;
mod gridshare;
mod impedance;
mod loss;
mod mc;
mod optimize;
mod par;
pub mod placement;
mod powermap;
mod render;
mod spec;
pub mod survey;
pub mod wire;
mod zsweep;

pub use arch::{
    analyze, analyze_paper_matrix, single_stage_converter, AnalysisOptions, AnalysisSession,
    Architecture, ArchitectureReport, PAPER_VR_POSITIONS,
};
pub use calib::Calibration;
pub use designer::{recommend, Candidate, Recommendation};
pub use droop::{simulate_droop, DroopReport, DroopScenario, LoadStep};
pub use droopsweep::{
    compare_droop_architectures, DroopSweep, DroopSweepComparison, DroopSweepPoint,
    DroopSweepReport, DroopSweepSettings,
};
pub use electro_thermal::{
    electro_thermal, thermal_comparison, ElectroThermalReport, ElectroThermalSettings,
    FixedPointTermination,
};
pub use error::CoreError;
pub use explore::{
    best_bus_voltage, explore_matrix, reference_crossover_power, sweep_bus_voltage,
    sweep_current_density, sweep_pol_power, MatrixEntry,
};
pub use faultdyn::{
    faulted_pdn_model, CascadeLadder, CascadeOutcome, CascadeSettings, FaultImpedanceOutcome,
    FaultImpedanceReport, FaultImpedanceSweep, FaultTransientOutcome, FaultTransientReport,
    FaultTransientSweep, SurvivalEnvelope, VrFailureScenario,
};
pub use faults::{
    n_minus_1_comparison, Fault, FaultScenario, FaultSweep, FaultSweepReport, ScenarioOutcome,
    OPEN_RESISTANCE,
};
pub use gridshare::{
    solve_sharing, solve_sharing_at, SharingReport, SharingSolver, SharingSolverBuilder,
};
pub use impedance::{target_impedance, PdnElements, PdnModel};
pub use loss::{LossBreakdown, LossKind, LossSegment};
pub use mc::{run_tolerance, run_tolerance_with, McSettings, McSummary};
pub use optimize::{optimize_placement, AnnealSettings, OptimizedPlacement, PlacementObjective};
pub use par::par_map_with;
pub use placement::VrPlacement;
pub use powermap::PowerMap;
pub use spec::SystemSpec;
pub use vpd_circuit::DcPlanMode;
pub use zsweep::{
    compare_architectures, ImpedanceComparison, ImpedanceProfile, ImpedanceSweep,
    ImpedanceSweepSettings,
};
