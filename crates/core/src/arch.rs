//! The paper's power-delivery architectures and their PCB-to-POL
//! analysis (§II and §IV).

use crate::gridshare::{placement_droop, placement_sites, SharingReport, SharingSolver};
use crate::loss::{LossBreakdown, LossKind, LossSegment};
use crate::placement::{modules_required, VrPlacement};
use crate::{Calibration, CoreError, SystemSpec};
use vpd_circuit::{DcPlanMode, RegulatorResponse};
use vpd_converters::{Converter, TopologyCharacteristics, VrTopologyKind};
use vpd_package::{required_platform_area, InterconnectTech, ViaAllocation};
use vpd_units::{Amps, SquareMeters, Volts, Watts};

/// A power-delivery architecture from the paper's §II.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum Architecture {
    /// A0 — 48 V→1 V conversion at the PCB (transformer + multiphase
    /// buck), POL current through the whole PPDN.
    Reference,
    /// A1 — single-stage conversion with on-interposer power transistors
    /// along the die periphery, passives embedded beneath them.
    InterposerPeriphery,
    /// A2 — single-stage conversion with transistors and passives
    /// embedded in the interposer under the die.
    InterposerEmbedded,
    /// A3 — two stages: 48 V→bus on the interposer periphery, bus→1 V
    /// under the die (e.g. in a dedicated power die). The paper
    /// evaluates 12 V and 6 V buses.
    TwoStage {
        /// Intermediate bus voltage.
        bus: Volts,
    },
}

impl Architecture {
    /// The five configurations evaluated in the paper's Figure 7.
    #[must_use]
    pub fn paper_set() -> Vec<Self> {
        vec![
            Self::Reference,
            Self::InterposerPeriphery,
            Self::InterposerEmbedded,
            Self::TwoStage {
                bus: Volts::new(12.0),
            },
            Self::TwoStage {
                bus: Volts::new(6.0),
            },
        ]
    }

    /// Short name (`"A0"`, `"A1"`, `"A2"`, `"A3@12V"`, `"A3@6V"`).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Self::Reference => "A0".to_owned(),
            Self::InterposerPeriphery => "A1".to_owned(),
            Self::InterposerEmbedded => "A2".to_owned(),
            Self::TwoStage { bus } => format!("A3@{:.0}V", bus.value()),
        }
    }

    /// One-line description.
    #[must_use]
    pub fn description(&self) -> String {
        match self {
            Self::Reference => "48V-to-1V conversion at the PCB".to_owned(),
            Self::InterposerPeriphery => {
                "single-stage VRs on interposer along the die periphery".to_owned()
            }
            Self::InterposerEmbedded => {
                "single-stage VRs embedded in interposer below the die".to_owned()
            }
            Self::TwoStage { bus } => format!(
                "two-stage: 48V-to-{0:.0}V at the periphery, {0:.0}V-to-1V below the die",
                bus.value()
            ),
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// The number of distributed VR positions the paper's Figure 7
/// evaluation implies: with 1 kA shared across the A1 ring at 16–27 A
/// per module (mean ≈ 21 A), all topologies are spread over ~48
/// positions. Table II's smaller DPMIH counts (8 along the periphery, 7
/// below) count only the modules fitting one ring row / one footprint
/// layer; §IV's "additional rows of VRs are utilized farther away from
/// the perimeter" fills the rest.
pub const PAPER_VR_POSITIONS: usize = 48;

/// Analysis options.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnalysisOptions {
    /// Permit regulator modules beyond their published maximum load,
    /// extrapolating the loss curve (the paper does this implicitly for
    /// A2, whose central modules reach 93 A against a 30 A DSCH rating).
    pub allow_overload: bool,
    /// Override the POL-stage module count (default:
    /// [`PAPER_VR_POSITIONS`]). Lets the explorer e.g. run 3LHD with the
    /// 84 modules its 12 A rating needs at 1 kA.
    pub module_count: Option<usize>,
    /// Sparse-solver mode for the die-grid mesh (default
    /// [`DcPlanMode::WarmCg`]). [`DcPlanMode::DirectCholesky`] answers
    /// each operating point with an exact factorization — fastest when
    /// consecutive solves reuse the factor (setpoint/load sweeps), and
    /// iteration-count-free everywhere, at the price of a refactor
    /// whenever the matrix values move.
    pub solve_mode: DcPlanMode,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            allow_overload: true,
            module_count: None,
            solve_mode: DcPlanMode::WarmCg,
        }
    }
}

/// The result of analyzing one architecture × topology configuration.
#[derive(Clone, Debug)]
pub struct ArchitectureReport {
    /// Analyzed architecture.
    pub architecture: Architecture,
    /// POL-stage topology (None for the reference architecture).
    pub topology: Option<VrTopologyKind>,
    /// The loss decomposition (Figure 7 bar).
    pub breakdown: LossBreakdown,
    /// Die-grid current sharing of the POL-side regulators/entry
    /// clusters.
    pub sharing: SharingReport,
    /// First-stage module count (A3 only).
    pub stage1_modules: Option<usize>,
    /// POL-stage module count.
    pub stage2_modules: usize,
    /// Per-level interconnect utilization `(tech name, fraction of
    /// sites)`.
    pub utilization: Vec<(String, f64)>,
    /// Whether any module exceeded its published rating (extrapolated
    /// loss curve).
    pub overloaded: bool,
}

impl ArchitectureReport {
    /// Total loss as percent of the nominal POL power.
    #[must_use]
    pub fn loss_percent(&self) -> f64 {
        self.breakdown.percent_of_pol_power(self.breakdown.total())
    }
}

/// Picks the single-stage 48 V→1 V converter for a topology.
#[must_use]
pub fn single_stage_converter(kind: VrTopologyKind) -> Converter {
    match kind {
        VrTopologyKind::Dpmih => Converter::dpmih_48v_to_1v(),
        VrTopologyKind::Dsch => Converter::dsch_48v_to_1v(),
        VrTopologyKind::ThreeLevelHybridDickson => {
            Converter::three_level_hybrid_dickson_48v_to_1v()
        }
    }
}

/// Analyzes one architecture under a spec and calibration: a fresh
/// [`AnalysisSession`], asked once.
///
/// For [`Architecture::Reference`] the `topology` parameter is ignored
/// (the PCB converter is fixed); for [`Architecture::TwoStage`] the
/// first stage is always DPMIH (per §III) and `topology` selects the
/// POL stage.
///
/// ```
/// use vpd_core::{analyze, AnalysisOptions, Architecture, Calibration, SystemSpec};
/// use vpd_converters::VrTopologyKind;
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let report = analyze(
///     Architecture::Reference,
///     VrTopologyKind::Dsch,
///     &SystemSpec::paper_default(),
///     &Calibration::paper_default(),
///     &AnalysisOptions::default(),
/// )?;
/// assert!(report.loss_percent() > 40.0); // the paper's "over 40%"
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidSpec`] for an invalid calibration or a zero
///   module count.
/// * [`CoreError::InsufficientVrCapacity`] when the module bank's
///   combined rating cannot carry the POL current.
/// * [`CoreError::VrOverload`] when a module exceeds its rating and
///   `allow_overload` is off.
/// * [`CoreError::Package`] when an interconnect level cannot carry its
///   current.
/// * [`CoreError::Circuit`] / [`CoreError::Converter`] from the
///   substrate solvers.
pub fn analyze(
    architecture: Architecture,
    topology: VrTopologyKind,
    spec: &SystemSpec,
    calib: &Calibration,
    opts: &AnalysisOptions,
) -> Result<ArchitectureReport, CoreError> {
    AnalysisSession::new(architecture, spec, calib, opts)?.analyze(topology, calib)
}

fn platform_bga(spec: &SystemSpec) -> SquareMeters {
    // Paper ratios: 1800 mm² of PCB/PKG platform for a 500 mm² die.
    spec.die_area() * 3.6
}

fn platform_c4(spec: &SystemSpec) -> SquareMeters {
    spec.die_area() * 2.4
}

fn platform_tsv(spec: &SystemSpec) -> SquareMeters {
    spec.die_area() * 2.4
}

fn push_vertical(
    breakdown: &mut LossBreakdown,
    utilization: &mut Vec<(String, f64)>,
    tech: InterconnectTech,
    current: Amps,
    platform: SquareMeters,
) -> Result<(), CoreError> {
    let alloc = ViaAllocation::for_current(tech, current, platform)?;
    breakdown.push(LossSegment {
        name: tech.name.to_owned(),
        kind: LossKind::Vertical,
        power: alloc.loss(),
    });
    utilization.push((tech.name.to_owned(), alloc.utilization()));
    Ok(())
}

/// Sum of per-module conversion losses over a measured current
/// distribution; flags (or rejects) extrapolation beyond rating.
fn bank_loss(
    conv: &Converter,
    currents: &[Amps],
    allow_overload: bool,
) -> Result<(Watts, bool), CoreError> {
    let mut total = Watts::ZERO;
    let mut overloaded = false;
    for &i in currents {
        if i.value() > conv.max_load().value() {
            if !allow_overload {
                return Err(CoreError::VrOverload {
                    worst: i.value(),
                    rating: conv.max_load().value(),
                });
            }
            overloaded = true;
            total += conv.curve().loss_unchecked(i);
        } else if i.value() > 0.0 {
            total += conv.loss(i)?;
        }
        // Modules that happen to carry ~0 A contribute no loss.
    }
    Ok((total, overloaded))
}

/// Stage 2 of A3: the selected topology below the die at bus→1 V. The
/// paper prefers DSCH for the second stage (§III); DSCH calibration data
/// is what we carry, so non-DSCH selections fall back to the DSCH curve
/// characteristics with that topology's placement counts.
/// The paper's two buses use the fixed calibration anchors; any other
/// bus (the ablation sweep) falls back to the log-ratio interpolation.
pub(crate) fn second_stage_converter(bus: Volts) -> Result<Converter, CoreError> {
    Ok(Converter::dsch_second_stage(bus)
        .or_else(|_| Converter::dsch_second_stage_for_ratio(bus))?)
}

/// The placement pattern and module count an architecture analyzes
/// with (the reference's 48 via-entry clusters ignore `module_count`).
pub(crate) fn session_placement(
    architecture: Architecture,
    opts: &AnalysisOptions,
) -> (VrPlacement, usize) {
    match architecture {
        Architecture::Reference => (VrPlacement::BelowDie, PAPER_VR_POSITIONS),
        Architecture::InterposerPeriphery => (
            VrPlacement::Periphery,
            opts.module_count.unwrap_or(PAPER_VR_POSITIONS),
        ),
        Architecture::InterposerEmbedded | Architecture::TwoStage { .. } => (
            VrPlacement::BelowDie,
            opts.module_count.unwrap_or(PAPER_VR_POSITIONS),
        ),
    }
}

/// A reusable analysis pipeline, and the one path every architecture
/// analysis takes.
///
/// A session builds the [`SharingSolver`](crate::SharingSolver) once
/// per architecture and merely restamps element values for each
/// evaluation, so topology columns and bus/spec sweep points all reuse
/// the same symbolic work — and can warm-start from an anchored nominal
/// solution. [`analyze`] is a fresh session asked once, so until its
/// grid values move a session answers exactly as [`analyze`] does. A
/// Monte-Carlo run ([`crate::run_tolerance_with`]) also leaves the
/// nominal regulator response with the session, and later runs answer
/// their samples from it while the nominal grid inputs stay the same.
///
/// The mesh resolution is pinned at construction
/// (`calib.grid_nodes_per_side`); later calibrations passed to
/// [`AnalysisSession::analyze`] may vary any element value but not the
/// mesh size.
///
/// ```
/// use vpd_core::{
///     analyze, AnalysisOptions, AnalysisSession, Architecture, Calibration, SystemSpec,
/// };
/// use vpd_converters::VrTopologyKind;
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let (spec, calib) = (SystemSpec::paper_default(), Calibration::paper_default());
/// let opts = AnalysisOptions::default();
/// let mut session = AnalysisSession::new(
///     Architecture::InterposerEmbedded, &spec, &calib, &opts,
/// )?;
/// // Two topologies off one compiled grid.
/// let dsch = session.analyze(VrTopologyKind::Dsch, &calib)?;
/// let dpmih = session.analyze(VrTopologyKind::Dpmih, &calib)?;
/// let one_shot = analyze(
///     Architecture::InterposerEmbedded, VrTopologyKind::Dpmih, &spec, &calib, &opts,
/// )?;
/// assert_eq!(dpmih.loss_percent(), one_shot.loss_percent());
/// assert!(dpmih.loss_percent() != dsch.loss_percent());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisSession {
    pipeline: Pipeline,
    solver: SharingSolver,
    /// The nominal regulator response the first Monte-Carlo run built,
    /// with the grid inputs it was built from (see
    /// [`AnalysisSession::prepare_response`]); the response itself is
    /// `None` when the mesh is above its size cap.
    response: Option<(Vec<u64>, Option<RegulatorResponse>)>,
}

/// What an analysis reads besides the grid: the capacity check before
/// the solve and the loss breakdown after it.
#[derive(Clone, Copy, Debug)]
struct Pipeline {
    architecture: Architecture,
    spec: SystemSpec,
    opts: AnalysisOptions,
    placement: VrPlacement,
    n_vrs: usize,
}

impl Pipeline {
    /// Rejects a module bank whose combined rating cannot meet the POL
    /// current, before any solve (a hopeless module count fails first).
    fn check_capacity(&self, topology: VrTopologyKind) -> Result<(), CoreError> {
        let max_load = match self.architecture {
            Architecture::Reference => return Ok(()),
            Architecture::InterposerPeriphery | Architecture::InterposerEmbedded => {
                TopologyCharacteristics::table_ii(topology).max_load
            }
            Architecture::TwoStage { bus } => second_stage_converter(bus)?.max_load(),
        };
        let capacity = max_load.value() * self.n_vrs as f64;
        let demand = self.spec.pol_current().value();
        if capacity < demand {
            return Err(CoreError::InsufficientVrCapacity {
                modules: self.n_vrs,
                capacity,
                demand,
            });
        }
        Ok(())
    }

    /// The restamp path: restamp `solver` to this spec and `calib`,
    /// solve, and finish.
    fn analyze(
        &self,
        solver: &mut SharingSolver,
        topology: VrTopologyKind,
        calib: &Calibration,
    ) -> Result<ArchitectureReport, CoreError> {
        self.check_capacity(topology)?;
        solver.restamp(&self.spec, calib, placement_droop(self.placement, calib))?;
        let sharing = solver.solve()?;
        self.finish(topology, calib, sharing)
    }

    /// Everything downstream of the die-grid solve.
    fn finish(
        &self,
        topology: VrTopologyKind,
        calib: &Calibration,
        sharing: SharingReport,
    ) -> Result<ArchitectureReport, CoreError> {
        match self.architecture {
            Architecture::Reference => self.finish_reference(calib, sharing),
            Architecture::InterposerPeriphery | Architecture::InterposerEmbedded => {
                self.finish_single_stage(topology, calib, sharing)
            }
            Architecture::TwoStage { bus } => self.finish_two_stage(topology, bus, calib, sharing),
        }
    }

    /// The reference breakdown. POL current enters the die through
    /// distributed via clusters (the session's `n_vrs` entry points); the
    /// on-die spreading is the same mesh physics as the proposed
    /// architectures, with under-die entry points.
    fn finish_reference(
        &self,
        calib: &Calibration,
        sharing: SharingReport,
    ) -> Result<ArchitectureReport, CoreError> {
        let spec = &self.spec;
        let i_pol = spec.pol_current();
        let mut breakdown = LossBreakdown::new(spec.pol_power());
        let mut utilization = Vec::new();

        breakdown.push(LossSegment {
            name: "die-grid spreading".to_owned(),
            kind: LossKind::GridSpreading,
            power: sharing.grid_loss() + sharing.droop_loss(),
        });

        // Lateral PCB + package routing at POL voltage.
        let horizontal = i_pol.dissipation_in(calib.horizontal_pol_resistance);
        breakdown.push(LossSegment {
            name: "horizontal PCB/PKG (1 V)".to_owned(),
            kind: LossKind::Horizontal,
            power: horizontal,
        });

        // Vertical levels at full POL current. The reference die must grow
        // until its C4 field can sink the current (the paper's 1,200 mm²).
        let c4_platform = required_platform_area(InterconnectTech::C4, i_pol)?;
        let bga_platform = {
            let needed = required_platform_area(InterconnectTech::BGA, i_pol)?;
            needed.max(platform_bga(spec))
        };
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::BGA,
            i_pol,
            bga_platform,
        )?;
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::C4,
            i_pol,
            c4_platform,
        )?;

        // The PCB converter supplies the POL power plus everything the PPDN
        // dissipates downstream of it.
        let converter = Converter::reference_pcb_48v_to_1v();
        let p_out = spec.pol_power() + horizontal + breakdown.vertical_loss();
        let i_out = p_out / spec.pol_voltage();
        let vr_loss = converter.loss(i_out)?;
        breakdown.push(LossSegment {
            name: "VR at PCB (48V→1V)".to_owned(),
            kind: LossKind::Conversion { stage: 1 },
            power: vr_loss,
        });

        Ok(ArchitectureReport {
            architecture: Architecture::Reference,
            topology: None,
            breakdown,
            sharing,
            stage1_modules: None,
            stage2_modules: self.n_vrs,
            utilization,
            overloaded: false,
        })
    }

    /// The single-stage (A1/A2) breakdown.
    fn finish_single_stage(
        &self,
        topology: VrTopologyKind,
        calib: &Calibration,
        sharing: SharingReport,
    ) -> Result<ArchitectureReport, CoreError> {
        let spec = &self.spec;
        let i_pol = spec.pol_current();
        let ch = TopologyCharacteristics::table_ii(topology);
        let conv = single_stage_converter(topology);
        let (vr_loss, overloaded) = bank_loss(&conv, sharing.per_vr(), self.opts.allow_overload)?;

        let mut breakdown = LossBreakdown::new(spec.pol_power());
        let mut utilization = Vec::new();

        breakdown.push(LossSegment {
            name: format!("VR {} (48V→1V)", ch.kind),
            kind: LossKind::Conversion { stage: 1 },
            power: vr_loss + sharing.droop_loss(),
        });
        breakdown.push(LossSegment {
            name: "die-grid spreading".to_owned(),
            kind: LossKind::GridSpreading,
            power: sharing.grid_loss(),
        });

        // 48 V side: lateral PCB feed plus BGA/C4 at the reduced current.
        let p_in = spec.pol_power() + vr_loss;
        let i_hv = p_in / spec.pcb_voltage();
        breakdown.push(LossSegment {
            name: "horizontal PCB (48 V)".to_owned(),
            kind: LossKind::Horizontal,
            power: i_hv.dissipation_in(calib.horizontal_hv_resistance),
        });
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::BGA,
            i_hv,
            platform_bga(spec),
        )?;
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::C4,
            i_hv,
            platform_c4(spec),
        )?;
        // 1 V side: TSVs and Cu pads at full POL current.
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::TSV,
            i_pol,
            platform_tsv(spec),
        )?;
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::CU_PAD,
            i_pol,
            spec.die_area(),
        )?;

        Ok(ArchitectureReport {
            architecture: self.architecture,
            topology: Some(topology),
            breakdown,
            sharing,
            stage1_modules: None,
            stage2_modules: self.n_vrs,
            utilization,
            overloaded,
        })
    }

    /// The two-stage (A3) breakdown.
    fn finish_two_stage(
        &self,
        topology: VrTopologyKind,
        bus: Volts,
        calib: &Calibration,
        sharing: SharingReport,
    ) -> Result<ArchitectureReport, CoreError> {
        let spec = &self.spec;
        let i_pol = spec.pol_current();
        let conv2 = second_stage_converter(bus)?;
        let (vr2_loss, overloaded) = bank_loss(&conv2, sharing.per_vr(), self.opts.allow_overload)?;

        let mut breakdown = LossBreakdown::new(spec.pol_power());
        let mut utilization = Vec::new();

        breakdown.push(LossSegment {
            name: format!("VR stage 2 ({}V→1V)", bus.value()),
            kind: LossKind::Conversion { stage: 2 },
            power: vr2_loss + sharing.droop_loss(),
        });
        breakdown.push(LossSegment {
            name: "die-grid spreading".to_owned(),
            kind: LossKind::GridSpreading,
            power: sharing.grid_loss(),
        });

        // Interposer lateral bus from the periphery first stage to the
        // under-die second stage.
        let p2_in = spec.pol_power() + vr2_loss;
        let i_bus = p2_in / bus;
        let bus_loss = i_bus.dissipation_in(calib.interposer_bus_resistance);
        breakdown.push(LossSegment {
            name: format!("interposer bus ({} V)", bus.value()),
            kind: LossKind::Horizontal,
            power: bus_loss,
        });

        // Stage 1: DPMIH 48 V→bus on the periphery, module count chosen to
        // run modules near their peak-efficiency current.
        let conv1 = Converter::dpmih_first_stage(bus)
            .or_else(|_| Converter::dpmih_first_stage_for_ratio(bus))?;
        let p1_out = p2_in + bus_loss;
        let i1_total = p1_out / bus;
        let n1 = (i1_total.value() / conv1.curve().peak_efficiency_current().value())
            .round()
            .max(1.0) as usize;
        let n1 = n1.max(modules_required(i1_total, conv1.max_load(), 1.0));
        let per_module = i1_total / n1 as f64;
        let vr1_loss = conv1.loss(per_module)? * n1 as f64;
        breakdown.push(LossSegment {
            name: format!("VR stage 1 (48V→{}V)", bus.value()),
            kind: LossKind::Conversion { stage: 1 },
            power: vr1_loss,
        });

        // 48 V side feed.
        let p1_in = p1_out + vr1_loss;
        let i_hv = p1_in / spec.pcb_voltage();
        breakdown.push(LossSegment {
            name: "horizontal PCB (48 V)".to_owned(),
            kind: LossKind::Horizontal,
            power: i_hv.dissipation_in(calib.horizontal_hv_resistance),
        });
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::BGA,
            i_hv,
            platform_bga(spec),
        )?;
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::C4,
            i_hv,
            platform_c4(spec),
        )?;
        // The bus crosses the interposer TSVs; the POL current crosses the
        // pads into the die.
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::TSV,
            i_bus,
            platform_tsv(spec),
        )?;
        push_vertical(
            &mut breakdown,
            &mut utilization,
            InterconnectTech::CU_PAD,
            i_pol,
            spec.die_area(),
        )?;

        Ok(ArchitectureReport {
            architecture: self.architecture,
            topology: Some(topology),
            breakdown,
            sharing,
            stage1_modules: Some(n1),
            stage2_modules: self.n_vrs,
            utilization,
            overloaded,
        })
    }
}

impl AnalysisSession {
    /// Builds the session's grid and compiles its solve plan.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] for a zero module count or an
    ///   invalid calibration.
    /// * [`CoreError::Circuit`] if the grid cannot be built.
    pub fn new(
        architecture: Architecture,
        spec: &SystemSpec,
        calib: &Calibration,
        opts: &AnalysisOptions,
    ) -> Result<Self, CoreError> {
        let (placement, n_vrs) = session_placement(architecture, opts);
        if n_vrs == 0 {
            return Err(CoreError::InvalidSpec {
                what: "regulator count",
                value: 0.0,
            });
        }
        let (sites, droop) = placement_sites(placement, calib, n_vrs);
        let mut solver = SharingSolver::new(spec, calib, &sites, droop)?;
        solver.set_solve_mode(opts.solve_mode)?;
        Ok(Self {
            pipeline: Pipeline {
                architecture,
                spec: *spec,
                opts: *opts,
                placement,
                n_vrs,
            },
            solver,
            response: None,
        })
    }

    /// Analyzes the session's architecture for one (topology,
    /// calibration) point, reusing the compiled grid. Until the grid
    /// values move away from the ones the session was built with (for
    /// another topology, say), this is [`analyze`]'s answer bit for bit;
    /// after they move, the warm start matches it to solver tolerance.
    ///
    /// # Errors
    ///
    /// As for [`analyze`].
    pub fn analyze(
        &mut self,
        topology: VrTopologyKind,
        calib: &Calibration,
    ) -> Result<ArchitectureReport, CoreError> {
        self.pipeline.analyze(&mut self.solver, topology, calib)
    }

    /// [`AnalysisSession::analyze`] on a clone of this session's solver,
    /// leaving the session untouched: the restamp path of a parallel
    /// sweep whose workers share the session.
    pub(crate) fn analyze_on(
        &self,
        solver: &mut SharingSolver,
        topology: VrTopologyKind,
        calib: &Calibration,
    ) -> Result<ArchitectureReport, CoreError> {
        self.pipeline.analyze(solver, topology, calib)
    }

    /// The session's grid solver, for workers to clone.
    pub(crate) fn solver(&self) -> &SharingSolver {
        &self.solver
    }

    /// The capacity check an analysis runs before any grid work.
    ///
    /// # Errors
    ///
    /// As for [`analyze`], before the solve.
    pub(crate) fn check_capacity(&self, topology: VrTopologyKind) -> Result<(), CoreError> {
        self.pipeline.check_capacity(topology)
    }

    /// Makes the stored regulator response that of the nominal grid for
    /// `base` at the session's spec. A stored response is kept only when
    /// it was built from bit-identical grid inputs (sheet resistance,
    /// droop, setpoint and every load current) and rebuilt otherwise, so
    /// a reused session answers exactly as a fresh one. Only the
    /// Monte-Carlo engine calls this: [`AnalysisSession::analyze`] never
    /// builds a response.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] if the grid cannot be restamped or its
    /// plan compiled.
    pub(crate) fn prepare_response(&mut self, base: &Calibration) -> Result<(), CoreError> {
        let p = self.pipeline;
        let droop = placement_droop(p.placement, base);
        let n = self.solver.grid_side();
        let loads = base.power_map.node_currents(n, n, p.spec.pol_current());
        let inputs: Vec<u64> = [
            base.grid_sheet_resistance.value(),
            droop.value(),
            p.spec.pol_voltage().value(),
        ]
        .into_iter()
        .chain(loads.iter().flatten().map(|i| i.value()))
        .map(f64::to_bits)
        .collect();
        if self
            .response
            .as_ref()
            .is_some_and(|(built, _)| *built == inputs)
        {
            return Ok(());
        }
        self.solver.restamp(&p.spec, base, droop)?;
        let response = self.solver.regulator_response()?;
        self.response = Some((inputs, response));
        Ok(())
    }

    /// [`AnalysisSession::analyze`] answered from the response of the
    /// last [`AnalysisSession::prepare_response`], with no restamp and
    /// no solve: `calib` may move the sheet resistance and the droop
    /// away from that nominal, and nothing else the grid reads (the
    /// Monte-Carlo perturbation). `Ok(None)` when the session holds no
    /// response or the response refuses the update.
    ///
    /// # Errors
    ///
    /// As for [`analyze`], past the grid solve.
    pub(crate) fn analyze_uniform(
        &self,
        topology: VrTopologyKind,
        calib: &Calibration,
    ) -> Result<Option<ArchitectureReport>, CoreError> {
        let Some((_, Some(response))) = &self.response else {
            return Ok(None);
        };
        let p = &self.pipeline;
        p.check_capacity(topology)?;
        let droop = placement_droop(p.placement, calib);
        let Ok(Some(point)) = response.solve_uniform(calib.grid_sheet_resistance, droop) else {
            return Ok(None);
        };
        p.finish(topology, calib, SharingReport::from_uniform(point))
            .map(Some)
    }

    /// Switches the analyzed architecture without rebuilding the grid —
    /// legal only when the new architecture shares this session's
    /// placement pattern and module count (e.g. an A3 bus sweep).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when the switch would change the
    /// regulator sites.
    pub fn set_architecture(&mut self, architecture: Architecture) -> Result<(), CoreError> {
        let (placement, n_vrs) = session_placement(architecture, &self.pipeline.opts);
        if placement != self.pipeline.placement || n_vrs != self.pipeline.n_vrs {
            return Err(CoreError::InvalidSpec {
                what: "architecture switch changes regulator placement",
                value: n_vrs as f64,
            });
        }
        self.pipeline.architecture = architecture;
        Ok(())
    }

    /// Replaces the system spec (power/density sweeps); loads are
    /// restamped on the next [`AnalysisSession::analyze`].
    pub fn set_spec(&mut self, spec: &SystemSpec) {
        self.pipeline.spec = *spec;
    }

    /// Pins the warm-start anchor to the most recent solution so all
    /// later solves start from it — the parallel-sweep determinism
    /// contract (see [`crate::par_map_with`]).
    pub fn anchor(&mut self) {
        self.solver.anchor_last();
    }

    /// CG iterations of the most recent grid solve (reuse diagnostic).
    #[must_use]
    pub fn last_iterations(&self) -> Option<usize> {
        self.solver.last_iterations()
    }

    /// Sparse-solver mode the session's grid solves run under.
    #[must_use]
    pub fn solve_mode(&self) -> DcPlanMode {
        self.solver.solve_mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(arch: Architecture, topo: VrTopologyKind) -> ArchitectureReport {
        analyze(
            arch,
            topo,
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            &AnalysisOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn reference_exceeds_40_percent_loss() {
        let report = run(Architecture::Reference, VrTopologyKind::Dsch);
        let pct = report.loss_percent();
        assert!((40.0..48.0).contains(&pct), "A0 loss {pct:.1}%");
    }

    #[test]
    fn proposed_architectures_reach_about_80_percent_efficiency() {
        for arch in Architecture::paper_set().into_iter().skip(1) {
            for topo in [VrTopologyKind::Dpmih, VrTopologyKind::Dsch] {
                let report = run(arch, topo);
                let pct = report.loss_percent();
                assert!(
                    (10.0..30.0).contains(&pct),
                    "{} {topo}: {pct:.1}%",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn proposed_ppdn_below_10_percent_and_conversion_above_10_percent() {
        // The paper's concluding claim (§V).
        for arch in Architecture::paper_set().into_iter().skip(1) {
            for topo in [VrTopologyKind::Dpmih, VrTopologyKind::Dsch] {
                let report = run(arch, topo);
                let b = &report.breakdown;
                let ppdn_pct = b.percent_of_pol_power(b.ppdn_loss());
                let conv_pct = b.percent_of_pol_power(b.conversion_loss());
                assert!(
                    ppdn_pct < 10.0,
                    "{} {topo} PPDN {ppdn_pct:.1}%",
                    arch.name()
                );
                assert!(
                    conv_pct > 10.0,
                    "{} {topo} conversion {conv_pct:.1}%",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn vertical_losses_are_negligible_everywhere() {
        for arch in Architecture::paper_set() {
            let report = run(arch, VrTopologyKind::Dsch);
            assert!(
                report.breakdown.vertical_loss().value() < 5.0,
                "{}: vertical {}",
                arch.name(),
                report.breakdown.vertical_loss()
            );
        }
    }

    #[test]
    fn dual_stage_loses_to_single_stage_dsch() {
        // §IV: "the dual-stage power conversion yields a lower power
        // efficiency when compared to the single-stage conversion
        // approach in architectures A1 and A2 with DSCH".
        let a1 = run(Architecture::InterposerPeriphery, VrTopologyKind::Dsch);
        let a2 = run(Architecture::InterposerEmbedded, VrTopologyKind::Dsch);
        for bus in [12.0, 6.0] {
            let a3 = run(
                Architecture::TwoStage {
                    bus: Volts::new(bus),
                },
                VrTopologyKind::Dsch,
            );
            assert!(
                a3.loss_percent() > a1.loss_percent(),
                "A3@{bus}V {:.1}% vs A1 {:.1}%",
                a3.loss_percent(),
                a1.loss_percent()
            );
            assert!(
                a3.loss_percent() > a2.loss_percent(),
                "A3@{bus}V {:.1}% vs A2 {:.1}%",
                a3.loss_percent(),
                a2.loss_percent()
            );
        }
    }

    #[test]
    fn horizontal_reduction_factors_match_paper() {
        // §IV: horizontal loss reduced by up to ~19x (A3@12V) and ~7x
        // (A3@6V) relative to the reference.
        let a0 = run(Architecture::Reference, VrTopologyKind::Dsch);
        let h0 = a0.breakdown.horizontal_loss().value();
        let r = |bus: f64| {
            let a3 = run(
                Architecture::TwoStage {
                    bus: Volts::new(bus),
                },
                VrTopologyKind::Dsch,
            );
            h0 / a3.breakdown.horizontal_loss().value()
        };
        let r12 = r(12.0);
        let r6 = r(6.0);
        assert!((14.0..26.0).contains(&r12), "A3@12V reduction {r12:.1}x");
        assert!((5.0..10.0).contains(&r6), "A3@6V reduction {r6:.1}x");
        assert!(r12 > r6);
    }

    #[test]
    fn a2_overloads_dsch_modules_as_the_paper_reports() {
        let a2 = run(Architecture::InterposerEmbedded, VrTopologyKind::Dsch);
        assert!(a2.overloaded, "central modules exceed the 30 A rating");
        assert!(a2.sharing.max().value() > 30.0);
        // And with overload forbidden, analysis refuses.
        let err = analyze(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            &AnalysisOptions {
                allow_overload: false,
                ..AnalysisOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::VrOverload { .. }));
    }

    #[test]
    fn paper_matrix_covers_all_bars() {
        let entries = crate::explore::explore_matrix(
            &[VrTopologyKind::Dpmih, VrTopologyKind::Dsch],
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            &AnalysisOptions::default(),
        );
        // A0 + 4 architectures × 2 topologies, every cell solved.
        assert_eq!(entries.len(), 9);
        let reports: Vec<&ArchitectureReport> = entries
            .iter()
            .map(|e| e.outcome.as_ref().unwrap())
            .collect();
        // A0 is the worst of the set.
        assert_eq!(entries[0].architecture, Architecture::Reference);
        let worst = reports.iter().map(|r| r.loss_percent()).fold(0.0, f64::max);
        assert!((reports[0].loss_percent() - worst).abs() < 1e-9);
    }

    #[test]
    fn utilization_entries_present_for_proposed() {
        let a1 = run(Architecture::InterposerPeriphery, VrTopologyKind::Dsch);
        let names: Vec<&str> = a1.utilization.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["BGA", "C4", "TSV", "Cu pad"]);
        for (name, u) in &a1.utilization {
            assert!(*u > 0.0 && *u < 0.25, "{name} utilization {u}");
        }
    }

    #[test]
    fn session_matches_one_shot_for_every_architecture() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let opts = AnalysisOptions::default();
        for arch in Architecture::paper_set() {
            let mut session = AnalysisSession::new(arch, &spec, &calib, &opts).unwrap();
            for topo in [VrTopologyKind::Dsch, VrTopologyKind::Dpmih] {
                let fresh = analyze(arch, topo, &spec, &calib, &opts).unwrap();
                let reused = session.analyze(topo, &calib).unwrap();
                // The second topology reuses the session's solved grid
                // and still answers exactly like a fresh one.
                assert_eq!(
                    reused.loss_percent().to_bits(),
                    fresh.loss_percent().to_bits(),
                    "{} {topo}: session {}% vs one-shot {}%",
                    arch.name(),
                    reused.loss_percent(),
                    fresh.loss_percent()
                );
                assert_eq!(reused.sharing, fresh.sharing, "{} {topo}", arch.name());
                assert_eq!(reused.stage2_modules, fresh.stage2_modules);
                assert_eq!(reused.overloaded, fresh.overloaded);
            }
        }
    }

    #[test]
    fn zero_module_count_is_a_typed_error() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let opts = AnalysisOptions {
            module_count: Some(0),
            ..AnalysisOptions::default()
        };
        let zero = |err: CoreError| {
            matches!(
                err,
                CoreError::InvalidSpec {
                    what: "regulator count",
                    ..
                }
            )
        };
        for arch in Architecture::paper_set().into_iter().skip(1) {
            let session = AnalysisSession::new(arch, &spec, &calib, &opts);
            assert!(session.is_err_and(zero), "{arch} session");
            let one_shot = analyze(arch, VrTopologyKind::Dsch, &spec, &calib, &opts);
            assert!(one_shot.is_err_and(zero), "{arch} analyze");
        }
        // The reference's 48 via-entry clusters ignore the override.
        assert!(analyze(
            Architecture::Reference,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts
        )
        .is_ok());
    }

    #[test]
    fn session_tracks_calibration_changes() {
        let spec = SystemSpec::paper_default();
        let mut calib = Calibration::paper_default();
        let opts = AnalysisOptions::default();
        let mut session =
            AnalysisSession::new(Architecture::InterposerPeriphery, &spec, &calib, &opts).unwrap();
        session.analyze(VrTopologyKind::Dsch, &calib).unwrap();
        session.anchor();

        calib.grid_sheet_resistance = calib.grid_sheet_resistance * 1.1;
        calib.vr_droop_periphery = calib.vr_droop_periphery * 0.95;
        let reused = session.analyze(VrTopologyKind::Dsch, &calib).unwrap();
        let fresh = analyze(
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        )
        .unwrap();
        assert!((reused.loss_percent() - fresh.loss_percent()).abs() < 1e-6);
    }

    #[test]
    fn session_switches_architecture_only_within_placement() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let opts = AnalysisOptions::default();
        let mut session = AnalysisSession::new(
            Architecture::TwoStage {
                bus: Volts::new(12.0),
            },
            &spec,
            &calib,
            &opts,
        )
        .unwrap();
        // Bus sweep: same under-die sites, allowed.
        session
            .set_architecture(Architecture::TwoStage {
                bus: Volts::new(6.0),
            })
            .unwrap();
        let reused = session.analyze(VrTopologyKind::Dsch, &calib).unwrap();
        let fresh = analyze(
            Architecture::TwoStage {
                bus: Volts::new(6.0),
            },
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &opts,
        )
        .unwrap();
        assert!((reused.loss_percent() - fresh.loss_percent()).abs() < 1e-6);
        // Periphery placement differs: refused.
        assert!(matches!(
            session.set_architecture(Architecture::InterposerPeriphery),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn names_and_descriptions() {
        assert_eq!(Architecture::Reference.name(), "A0");
        assert_eq!(
            Architecture::TwoStage {
                bus: Volts::new(12.0)
            }
            .name(),
            "A3@12V"
        );
        assert!(Architecture::InterposerEmbedded
            .description()
            .contains("below the die"));
    }
}
