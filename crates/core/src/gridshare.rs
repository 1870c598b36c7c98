//! Die-grid current sharing: which regulator supplies how much.
//!
//! The die's 1 V distribution grid is discretized as a 2-D resistive
//! mesh; the power map drives per-node current sinks; every regulator
//! is an ideal setpoint source behind its droop resistance. Solving the
//! mesh (sparse MNA, conjugate gradient) yields the per-module output
//! currents — the quantity behind the paper's observation that A1's
//! periphery modules see 16–27 A while A2's under-die modules see
//! 10–93 A.

use crate::placement::{below_die_sites, periphery_sites, VrPlacement};
use crate::{Calibration, CoreError, SystemSpec};
use vpd_circuit::{
    CircuitError, DcPlanMode, DcSolution, GridSummary, PowerGrid, RegulatorResponse, UniformPoint,
};
use vpd_numeric::SolveReport;
use vpd_units::{Amps, Ohms, Volts, Watts};

/// Result of a current-sharing solve.
#[derive(Clone, PartialEq, Debug)]
pub struct SharingReport {
    per_vr: Vec<Amps>,
    grid_loss: Watts,
    droop_loss: Watts,
    worst_drop: Volts,
}

impl SharingReport {
    /// The report of a [`RegulatorResponse::solve_uniform`] answer.
    pub(crate) fn from_uniform(point: UniformPoint) -> Self {
        Self {
            per_vr: point.currents,
            grid_loss: point.grid_loss,
            droop_loss: point.droop_loss,
            worst_drop: point.worst_drop,
        }
    }

    /// Per-module output currents, in site order.
    #[must_use]
    pub fn per_vr(&self) -> &[Amps] {
        &self.per_vr
    }

    /// Smallest module current.
    #[must_use]
    pub fn min(&self) -> Amps {
        self.per_vr
            .iter()
            .copied()
            .fold(Amps::new(f64::INFINITY), Amps::min)
    }

    /// Largest module current.
    #[must_use]
    pub fn max(&self) -> Amps {
        self.per_vr.iter().copied().fold(Amps::ZERO, Amps::max)
    }

    /// Mean module current.
    #[must_use]
    pub fn mean(&self) -> Amps {
        self.per_vr.iter().copied().sum::<Amps>() / self.per_vr.len() as f64
    }

    /// Power dissipated in the distribution mesh (the on-die/
    /// on-interposer 1 V spreading loss).
    #[must_use]
    pub fn grid_loss(&self) -> Watts {
        self.grid_loss
    }

    /// Power dissipated in the module droop resistances (counted as
    /// conversion-path loss by the architecture analysis).
    #[must_use]
    pub fn droop_loss(&self) -> Watts {
        self.droop_loss
    }

    /// Worst-case IR drop below the regulator setpoint.
    #[must_use]
    pub fn worst_drop(&self) -> Volts {
        self.worst_drop
    }
}

/// Solves current sharing for `n_vrs` modules in the given placement.
///
/// Thin convenience over [`SharingSolver::builder`] — prefer the
/// builder when you need explicit sites, a non-default droop, or the
/// solver itself for repeated solves.
///
/// ```
/// use vpd_core::{solve_sharing, Calibration, SystemSpec, VrPlacement};
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let spec = SystemSpec::paper_default();
/// let calib = Calibration::paper_default();
/// let report = solve_sharing(&spec, &calib, VrPlacement::Periphery, 48)?;
/// // 48 modules carry 1 kA between them.
/// let total: f64 = report.per_vr().iter().map(|a| a.value()).sum();
/// assert!((total - 1000.0).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidSpec`] for `n_vrs == 0`.
/// * [`CoreError::Circuit`] if the mesh solve fails.
pub fn solve_sharing(
    spec: &SystemSpec,
    calib: &Calibration,
    placement: VrPlacement,
    n_vrs: usize,
) -> Result<SharingReport, CoreError> {
    SharingSolver::builder(spec, calib)
        .placement(placement)
        .modules(n_vrs)
        .solve()
}

/// The canonical sites and droop resistance for a placement pattern.
#[must_use]
pub(crate) fn placement_sites(
    placement: VrPlacement,
    calib: &Calibration,
    n_vrs: usize,
) -> (Vec<(usize, usize)>, Ohms) {
    let n = calib.grid_nodes_per_side.max(4);
    let sites = match placement {
        VrPlacement::Periphery => periphery_sites(n_vrs, n, n),
        VrPlacement::BelowDie => below_die_sites(n_vrs, n, n),
    };
    (sites, placement_droop(placement, calib))
}

/// The calibrated droop resistance for a placement pattern.
#[must_use]
pub(crate) fn placement_droop(placement: VrPlacement, calib: &Calibration) -> Ohms {
    match placement {
        VrPlacement::Periphery => calib.vr_droop_periphery,
        VrPlacement::BelowDie => calib.vr_droop_below_die,
    }
}

/// Solves current sharing for an explicit set of module sites (used by
/// the placement optimizer; [`solve_sharing`] wraps this with the §II
/// canonical patterns).
///
/// Thin convenience over [`SharingSolver::builder`] with
/// [`SharingSolverBuilder::sites`] — prefer the builder for anything
/// beyond a one-shot solve.
///
/// # Errors
///
/// As for [`solve_sharing`].
pub fn solve_sharing_at(
    spec: &SystemSpec,
    calib: &Calibration,
    sites: &[(usize, usize)],
    droop: Ohms,
) -> Result<SharingReport, CoreError> {
    SharingSolver::builder(spec, calib)
        .sites(sites.to_vec())
        .droop(droop)
        .solve()
}

/// Step-by-step configuration for a [`SharingSolver`]: placement and
/// module count (or explicit sites) and droop resistance all default to
/// the paper's §II values and can be overridden independently; the
/// setpoint is the spec's POL voltage.
///
/// ```
/// use vpd_core::{Calibration, SharingSolver, SystemSpec, VrPlacement};
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let spec = SystemSpec::paper_default();
/// let calib = Calibration::paper_default();
/// // Defaults: 48 modules on the periphery, calibrated droop.
/// let nominal = SharingSolver::builder(&spec, &calib).solve()?;
/// // Under-die placement with half the modules.
/// let below = SharingSolver::builder(&spec, &calib)
///     .placement(VrPlacement::BelowDie)
///     .modules(24)
///     .solve()?;
/// assert!(below.max().value() > nominal.max().value());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SharingSolverBuilder<'a> {
    spec: &'a SystemSpec,
    calib: &'a Calibration,
    placement: VrPlacement,
    modules: usize,
    sites: Option<Vec<(usize, usize)>>,
    droop: Option<Ohms>,
}

impl<'a> SharingSolverBuilder<'a> {
    /// Placement pattern for the generated sites (default
    /// [`VrPlacement::Periphery`]). Ignored when explicit
    /// [`SharingSolverBuilder::sites`] are given.
    #[must_use]
    pub fn placement(mut self, placement: VrPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Number of modules to place (default [`crate::PAPER_VR_POSITIONS`]).
    /// Ignored when explicit [`SharingSolverBuilder::sites`] are given.
    #[must_use]
    pub fn modules(mut self, n_vrs: usize) -> Self {
        self.modules = n_vrs;
        self
    }

    /// Explicit module sites, overriding placement + modules (the
    /// placement-optimizer path).
    #[must_use]
    pub fn sites(mut self, sites: Vec<(usize, usize)>) -> Self {
        self.sites = Some(sites);
        self
    }

    /// Per-module droop resistance (default: the calibrated value for
    /// the placement).
    #[must_use]
    pub fn droop(mut self, droop: Ohms) -> Self {
        self.droop = Some(droop);
        self
    }

    /// Builds the solver: resolves sites and droop and constructs the
    /// mesh.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] for zero modules / empty sites.
    /// * [`CoreError::Circuit`] for sites outside the mesh or invalid
    ///   element values.
    pub fn build(self) -> Result<SharingSolver, CoreError> {
        let droop = self
            .droop
            .unwrap_or_else(|| placement_droop(self.placement, self.calib));
        let sites = match self.sites {
            Some(sites) => sites,
            None => {
                if self.modules == 0 {
                    return Err(CoreError::InvalidSpec {
                        what: "regulator count",
                        value: 0.0,
                    });
                }
                placement_sites(self.placement, self.calib, self.modules).0
            }
        };
        SharingSolver::new(self.spec, self.calib, &sites, droop)
    }

    /// Builds the solver and solves once.
    ///
    /// # Errors
    ///
    /// As [`SharingSolverBuilder::build`], plus [`CoreError::Circuit`]
    /// on solve failure.
    pub fn solve(self) -> Result<SharingReport, CoreError> {
        self.build()?.solve()
    }
}

/// A reusable current-sharing solver: the mesh, loads, and regulators
/// are built (and the sparse solve plan compiled) once; subsequent
/// solves restamp values in place and warm-start the iteration.
///
/// This is the hot object behind Monte-Carlo tolerance sweeps and
/// placement annealing, where [`solve_sharing_at`] (which rebuilds the
/// whole netlist per call) would spend most of its time on symbolic
/// work that never changes.
///
/// ```
/// use vpd_core::{SharingSolver, Calibration, SystemSpec};
/// use vpd_core::placement::below_die_sites;
///
/// # fn main() -> Result<(), vpd_core::CoreError> {
/// let spec = SystemSpec::paper_default();
/// let mut calib = Calibration::paper_default();
/// let n = calib.grid_nodes_per_side;
/// let sites = below_die_sites(48, n, n);
/// let mut solver = SharingSolver::new(&spec, &calib, &sites, calib.vr_droop_below_die)?;
/// let nominal = solver.solve()?;
/// // Re-solve a perturbed calibration without rebuilding anything.
/// calib.grid_sheet_resistance = calib.grid_sheet_resistance * 1.1;
/// solver.restamp(&spec, &calib, calib.vr_droop_below_die)?;
/// let perturbed = solver.solve()?;
/// assert!(perturbed.grid_loss() > nominal.grid_loss());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SharingSolver {
    grid: PowerGrid,
    n: usize,
    /// Per-module droop resistances, in site order. Uniform after
    /// construction and [`SharingSolver::restamp`]; fault injection
    /// perturbs individual entries through
    /// [`SharingSolver::set_vr_droop`].
    droops: Vec<Ohms>,
    setpoint: Volts,
    /// Warm-start anchor: when set, every solve starts the iteration
    /// from this solution instead of the previous solve's result, which
    /// makes results independent of solve order (the parallel-sweep
    /// determinism contract).
    anchor: Option<DcSolution>,
    last: Option<DcSolution>,
}

impl SharingSolver {
    /// Starts a [`SharingSolverBuilder`] with the paper defaults:
    /// periphery placement, [`crate::PAPER_VR_POSITIONS`] modules, the
    /// calibrated droop for the placement, and the spec's POL voltage as
    /// setpoint.
    #[must_use]
    pub fn builder<'a>(spec: &'a SystemSpec, calib: &'a Calibration) -> SharingSolverBuilder<'a> {
        SharingSolverBuilder {
            spec,
            calib,
            placement: VrPlacement::Periphery,
            modules: crate::PAPER_VR_POSITIONS,
            sites: None,
            droop: None,
        }
    }

    /// Builds the mesh with dense per-node loads and one regulator per
    /// site, ready for repeated solving. Prefer
    /// [`SharingSolver::builder`], which resolves placement patterns and
    /// calibrated droop for you; this is the explicit-everything
    /// primitive underneath it.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] for an empty site list.
    /// * [`CoreError::Circuit`] for sites outside the mesh or invalid
    ///   element values.
    pub fn new(
        spec: &SystemSpec,
        calib: &Calibration,
        sites: &[(usize, usize)],
        droop: Ohms,
    ) -> Result<Self, CoreError> {
        if sites.is_empty() {
            return Err(CoreError::InvalidSpec {
                what: "regulator count",
                value: 0.0,
            });
        }
        // Reject out-of-range calibrations (negative sheet resistance,
        // bad power-map shapes) before stamping, with the field named —
        // a negative conductance would otherwise silently produce an
        // indefinite mesh that CG cannot solve.
        calib.validate()?;
        let n = calib.grid_nodes_per_side.max(4);
        let mut grid = PowerGrid::new(n, n, calib.grid_sheet_resistance)?;
        let loads = calib.power_map.node_currents(n, n, spec.pol_current());
        // Dense attachment (zero-current nodes included) keeps the
        // topology independent of the profile, so restamps never
        // recompile.
        grid.attach_dense_load_profile(|x, y| loads[y][x])?;
        for &(x, y) in sites {
            grid.attach_regulator(x, y, spec.pol_voltage(), droop)?;
        }
        Ok(Self {
            grid,
            n,
            droops: vec![droop; sites.len()],
            setpoint: spec.pol_voltage(),
            anchor: None,
            last: None,
        })
    }

    /// Rewrites every value the spec and calibration control — sheet
    /// resistance, load profile, regulator droop and setpoint — in
    /// place. The compiled solve plan survives.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for invalid values.
    pub fn restamp(
        &mut self,
        spec: &SystemSpec,
        calib: &Calibration,
        droop: Ohms,
    ) -> Result<(), CoreError> {
        self.grid
            .set_sheet_resistance(calib.grid_sheet_resistance)?;
        let loads = calib
            .power_map
            .node_currents(self.n, self.n, spec.pol_current());
        self.grid.set_load_profile(|x, y| loads[y][x])?;
        for k in 0..self.grid.regulators().len() {
            self.grid.set_regulator_droop(k, droop)?;
            self.grid.set_regulator_setpoint(k, spec.pol_voltage())?;
        }
        self.droops.fill(droop);
        self.setpoint = spec.pol_voltage();
        Ok(())
    }

    /// Number of regulator modules.
    #[must_use]
    pub fn vr_count(&self) -> usize {
        self.droops.len()
    }

    /// Droop resistance of module `k` (None out of range).
    #[must_use]
    pub fn vr_droop(&self, k: usize) -> Option<Ohms> {
        self.droops.get(k).copied()
    }

    /// Nominal regulator setpoint (the IR-drop reference).
    #[must_use]
    pub fn setpoint(&self) -> Volts {
        self.setpoint
    }

    /// Overrides the droop resistance of module `k` alone — the fault
    /// hook for an open (≈GΩ) or derated module. Value-only: the
    /// compiled plan survives.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for an index out of range or a
    /// non-positive resistance.
    pub fn set_vr_droop(&mut self, k: usize, droop: Ohms) -> Result<(), CoreError> {
        self.grid.set_regulator_droop(k, droop)?;
        self.droops[k] = droop;
        Ok(())
    }

    /// Overrides the setpoint of module `k` alone (setpoint-drift
    /// fault). The worst-drop reference stays at the nominal setpoint.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for an index out of range or a
    /// non-finite voltage.
    pub fn set_vr_setpoint(&mut self, k: usize, setpoint: Volts) -> Result<(), CoreError> {
        self.grid.set_regulator_setpoint(k, setpoint)?;
        Ok(())
    }

    /// Multiplies every mesh-edge resistance inside the node rectangle
    /// `[x0, x1] × [y0, y1]` by `factor` — the fault hook for an open or
    /// high-resistance via patch (large factor over a small rectangle)
    /// or degraded sheet metal (moderate factor over a larger one).
    /// Compounding: relative to the current values, so restamp first to
    /// apply against nominal.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for a rectangle outside the mesh or a
    /// non-positive factor.
    pub fn scale_region_resistance(
        &mut self,
        x0: usize,
        y0: usize,
        x1: usize,
        y1: usize,
        factor: f64,
    ) -> Result<(), CoreError> {
        self.grid.scale_region_resistance(x0, y0, x1, y1, factor)?;
        Ok(())
    }

    /// Mesh nodes per side.
    #[must_use]
    pub fn grid_side(&self) -> usize {
        self.n
    }

    /// Moves regulator `k` to mesh position `(x, y)` — the annealer's
    /// placement move. Invalidates the compiled plan (the node set is
    /// unchanged, so only the sparsity pattern is recompiled on the next
    /// solve; the netlist itself is reused).
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for an index or position out of range.
    pub fn move_site(&mut self, k: usize, x: usize, y: usize) -> Result<(), CoreError> {
        self.grid.move_regulator(k, x, y)?;
        Ok(())
    }

    /// Pins the warm-start anchor to the most recent solution (typically
    /// the nominal operating point). Subsequent solves all start from
    /// it, independent of order.
    pub fn anchor_last(&mut self) {
        self.anchor = self.last.clone();
    }

    /// Sparse-solver mode the mesh solves run under (warm CG by
    /// default).
    #[must_use]
    pub fn solve_mode(&self) -> DcPlanMode {
        self.grid.solve_mode()
    }

    /// Selects the sparse-solver mode for every subsequent solve:
    /// [`DcPlanMode::DirectCholesky`] factors the mesh once per value
    /// change and answers each operating point exactly;
    /// [`DcPlanMode::WarmCg`] is the iterative default.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] if the symbolic analysis of the mesh
    /// pattern fails.
    pub fn set_solve_mode(&mut self, mode: DcPlanMode) -> Result<(), CoreError> {
        self.grid.set_solve_mode(mode)?;
        Ok(())
    }

    /// Answers one operating point per setpoint, as if **every**
    /// regulator were driven to the same swept value — the rail-voltage
    /// sweep primitive. Each regulator is an ideal source at `V` behind
    /// its droop, the loads are current sinks and nothing else reaches
    /// ground, so the node voltages are `V·1 − d` with a drop `d` that
    /// does not depend on `V`: every point carries the nominal currents
    /// and losses, and only the worst drop moves, by the setpoint offset.
    /// The sweep is therefore answered from **one** [`SharingSolver::solve`]
    /// at the nominal setpoint, and point `i` is that report with
    /// `worst_drop + (setpoint − vᵢ)`. It agrees with solving each
    /// setpoint on its own up to rounding; the nominal setpoint's point is
    /// bitwise the solve.
    ///
    /// Each report's worst drop stays referenced to the *nominal*
    /// setpoint, matching [`SharingSolver::set_vr_setpoint`] semantics.
    /// Every regulator is first reset to the nominal setpoint (undoing
    /// any [`SharingSolver::set_vr_setpoint`] drift), and the grid is
    /// left there.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] for a non-finite setpoint (before the grid
    /// is touched) or on solve failure.
    pub fn solve_setpoints(
        &mut self,
        setpoints: &[Volts],
    ) -> Result<Vec<SharingReport>, CoreError> {
        if let Some(bad) = setpoints.iter().find(|v| !v.value().is_finite()) {
            return Err(CoreError::Circuit(CircuitError::InvalidValue {
                element: "voltage source",
                value: bad.value(),
            }));
        }
        vpd_obs::incr("share.setpoint_sweeps");
        vpd_obs::observe("share.setpoint_columns", setpoints.len() as u64);
        if setpoints.is_empty() {
            return Ok(Vec::new());
        }
        for k in 0..self.vr_count() {
            self.set_vr_setpoint(k, self.setpoint)?;
        }
        let nominal = self.solve()?;
        Ok(setpoints
            .iter()
            .map(|&v| SharingReport {
                worst_drop: nominal.worst_drop + (self.setpoint - v),
                ..nominal.clone()
            })
            .collect())
    }

    /// Solves the current state of the grid and summarizes the sharing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Circuit`] on solve failure.
    pub fn solve(&mut self) -> Result<SharingReport, CoreError> {
        if let Some(anchor) = &self.anchor {
            // Ignore a stale anchor (e.g. after a recompile changed
            // nothing structural) rather than failing the solve.
            let _ = self.grid.seed_solution(anchor);
        }
        let sol = self.grid.solve_cached()?;
        let report = self.report(self.grid.summarize(&sol));
        self.last = Some(sol);
        Ok(report)
    }

    /// The sharing report of one solved point: the grid's summary plus
    /// the droop loss of this solver's per-module droops.
    fn report(&self, summary: GridSummary) -> SharingReport {
        let droop_loss = summary
            .currents
            .iter()
            .zip(&self.droops)
            .map(|(i, r)| i.dissipation_in(*r))
            .sum();
        SharingReport {
            grid_loss: summary.grid_loss,
            droop_loss,
            worst_drop: self.setpoint - summary.min_voltage,
            per_vr: summary.currents,
        }
    }

    /// The exact nominal response of the mesh at its regulator sites, or
    /// `None` where [`PowerGrid::regulator_response`] builds none.
    pub(crate) fn regulator_response(&mut self) -> Result<Option<RegulatorResponse>, CoreError> {
        Ok(self.grid.regulator_response()?)
    }

    /// CG iterations of the most recent solve (warm-start diagnostic).
    #[must_use]
    pub fn last_iterations(&self) -> Option<usize> {
        self.grid.last_cg_iterations()
    }

    /// Full solver diagnostics of the most recent solve — which rung of
    /// the resilience ladder produced the solution, iterations, final
    /// residual, and whether CG stagnated along the way.
    #[must_use]
    pub fn last_solve_report(&self) -> Option<SolveReport> {
        self.grid.last_solve_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> (SystemSpec, Calibration) {
        (SystemSpec::paper_default(), Calibration::paper_default())
    }

    #[test]
    fn currents_sum_to_load_either_placement() {
        let (spec, calib) = paper();
        for placement in [VrPlacement::Periphery, VrPlacement::BelowDie] {
            let rep = solve_sharing(&spec, &calib, placement, 48).unwrap();
            let total: f64 = rep.per_vr().iter().map(|a| a.value()).sum();
            assert!((total - 1000.0).abs() < 0.5, "{placement}: {total}");
        }
    }

    #[test]
    fn below_die_spread_is_much_wider_than_periphery() {
        // The paper's §IV contrast: A2's under-die modules span a much
        // broader current range than A1's periphery ring.
        let (spec, calib) = paper();
        let peri = solve_sharing(&spec, &calib, VrPlacement::Periphery, 48).unwrap();
        let below = solve_sharing(&spec, &calib, VrPlacement::BelowDie, 48).unwrap();
        let spread = |r: &SharingReport| r.max().value() / r.min().value();
        assert!(
            spread(&below) > 2.0 * spread(&peri),
            "below {:.1}x vs periphery {:.1}x",
            spread(&below),
            spread(&peri)
        );
    }

    #[test]
    fn paper_a1_band_reproduces() {
        // 16–27 A for 48 periphery modules.
        let (spec, calib) = paper();
        let rep = solve_sharing(&spec, &calib, VrPlacement::Periphery, 48).unwrap();
        let (min, max) = (rep.min().value(), rep.max().value());
        assert!(
            (12.0..=20.0).contains(&min) && (23.0..=32.0).contains(&max),
            "A1 band [{min:.1}, {max:.1}] vs paper [16, 27]"
        );
    }

    #[test]
    fn paper_a2_band_reproduces() {
        // 10–93 A for 48 under-die modules.
        let (spec, calib) = paper();
        let rep = solve_sharing(&spec, &calib, VrPlacement::BelowDie, 48).unwrap();
        let (min, max) = (rep.min().value(), rep.max().value());
        assert!(
            (6.0..=14.0).contains(&min) && (75.0..=110.0).contains(&max),
            "A2 band [{min:.1}, {max:.1}] vs paper [10, 93]"
        );
    }

    #[test]
    fn zero_modules_rejected() {
        let (spec, calib) = paper();
        assert!(matches!(
            solve_sharing(&spec, &calib, VrPlacement::Periphery, 0),
            Err(CoreError::InvalidSpec { .. })
        ));
        assert!(matches!(
            SharingSolver::builder(&spec, &calib).modules(0).solve(),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn builder_defaults_match_the_free_function() {
        let (spec, calib) = paper();
        let built = SharingSolver::builder(&spec, &calib).solve().unwrap();
        let free = solve_sharing(&spec, &calib, VrPlacement::Periphery, 48).unwrap();
        assert_eq!(built, free);
        assert_eq!(built.per_vr().len(), crate::PAPER_VR_POSITIONS);
    }

    #[test]
    fn builder_explicit_sites_match_solve_sharing_at() {
        let (spec, calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 24);
        let built = SharingSolver::builder(&spec, &calib)
            .sites(sites.clone())
            .droop(droop)
            .solve()
            .unwrap();
        let free = solve_sharing_at(&spec, &calib, &sites, droop).unwrap();
        assert_eq!(built, free);
        // Explicit sites without a droop override fall back to the
        // placement's calibrated droop (periphery by default).
        let defaulted = SharingSolver::builder(&spec, &calib)
            .sites(sites)
            .build()
            .unwrap();
        assert_eq!(defaulted.vr_droop(0), Some(calib.vr_droop_periphery));
    }

    #[test]
    fn grid_loss_positive_and_bounded() {
        let (spec, calib) = paper();
        let rep = solve_sharing(&spec, &calib, VrPlacement::Periphery, 48).unwrap();
        assert!(rep.grid_loss().value() > 1.0);
        assert!(rep.grid_loss().value() < 100.0, "{}", rep.grid_loss());
        assert!(rep.worst_drop().value() > 0.0);
        assert!(rep.droop_loss().value() > 0.0);
    }

    #[test]
    fn reusable_solver_matches_one_shot_path() {
        let (spec, calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 48);
        let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        let reused = solver.solve().unwrap();
        let fresh = solve_sharing_at(&spec, &calib, &sites, droop).unwrap();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn restamped_solver_matches_fresh_solver() {
        let (spec, mut calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 24);
        let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        solver.solve().unwrap();

        calib.grid_sheet_resistance = calib.grid_sheet_resistance * 1.17;
        let droop2 = droop * 0.9;
        solver.restamp(&spec, &calib, droop2).unwrap();
        let restamped = solver.solve().unwrap();
        let fresh = solve_sharing_at(&spec, &calib, &sites, droop2).unwrap();

        // Warm and cold CG converge from different starting points, so
        // compare to solver tolerance, not bitwise.
        for (a, b) in restamped.per_vr().iter().zip(fresh.per_vr()) {
            assert!((a.value() - b.value()).abs() < 1e-5, "{a} vs {b}");
        }
        assert!((restamped.grid_loss().value() - fresh.grid_loss().value()).abs() < 1e-4);
        assert!((restamped.droop_loss().value() - fresh.droop_loss().value()).abs() < 1e-4);
    }

    #[test]
    fn anchored_warm_start_cuts_iterations() {
        let (spec, mut calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 48);
        let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        solver.solve().unwrap();
        let cold = solver.last_iterations().unwrap();
        solver.anchor_last();

        // A ±2% perturbation, the Monte-Carlo regime.
        calib.grid_sheet_resistance = calib.grid_sheet_resistance * 1.02;
        solver.restamp(&spec, &calib, droop).unwrap();
        solver.solve().unwrap();
        let warm = solver.last_iterations().unwrap();
        assert!(
            warm < cold,
            "warm start took {warm} iterations vs {cold} cold"
        );
    }

    #[test]
    fn moved_site_matches_fresh_solver_at_new_sites() {
        let (spec, calib) = paper();
        let (mut sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 12);
        let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        solver.solve().unwrap();

        sites[3] = (0, 0);
        solver.move_site(3, 0, 0).unwrap();
        let moved = solver.solve().unwrap();
        let fresh = solve_sharing_at(&spec, &calib, &sites, droop).unwrap();
        for (a, b) in moved.per_vr().iter().zip(fresh.per_vr()) {
            assert!((a.value() - b.value()).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn opened_module_sheds_its_current_to_the_survivors() {
        let (spec, calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 48);
        let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        let nominal = solver.solve().unwrap();
        solver.anchor_last();

        solver.set_vr_droop(7, Ohms::new(1e9)).unwrap();
        let faulted = solver.solve().unwrap();
        // The opened module carries (numerically) nothing; the load is
        // conserved across the survivors; the grid sags further.
        assert!(faulted.per_vr()[7].value() < 1e-6);
        let total: f64 = faulted.per_vr().iter().map(|a| a.value()).sum();
        assert!((total - 1000.0).abs() < 0.5, "{total}");
        assert!(faulted.worst_drop().value() > nominal.worst_drop().value());
        assert_eq!(solver.vr_count(), 48);
        assert_eq!(solver.vr_droop(7), Some(Ohms::new(1e9)));

        // Restamp restores the uniform nominal droop.
        solver.restamp(&spec, &calib, droop).unwrap();
        assert_eq!(solver.vr_droop(7), Some(droop));
        let restored = solver.solve().unwrap();
        let total: f64 = restored.per_vr().iter().map(|a| a.value()).sum();
        assert!((total - 1000.0).abs() < 0.5);
        assert!(restored.per_vr()[7].value() > 1.0);
    }

    #[test]
    fn setpoint_drift_and_region_faults_reach_the_mesh() {
        let (spec, calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 12);
        let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        let nominal = solver.solve().unwrap();

        // A drooped setpoint on one module reduces its share.
        solver
            .set_vr_setpoint(0, Volts::new(solver.setpoint().value() - 0.02))
            .unwrap();
        let drifted = solver.solve().unwrap();
        assert!(drifted.per_vr()[0].value() < nominal.per_vr()[0].value());

        // Degrading a corner patch raises the spreading loss.
        solver.restamp(&spec, &calib, droop).unwrap();
        solver.scale_region_resistance(0, 0, 5, 5, 40.0).unwrap();
        let degraded = solver.solve().unwrap();
        assert!(degraded.grid_loss().value() > nominal.grid_loss().value());
        assert!(solver.last_solve_report().is_some());
    }

    #[test]
    fn direct_mode_matches_warm_cg_sharing() {
        let (spec, calib) = paper();
        let (sites, droop) = placement_sites(VrPlacement::BelowDie, &calib, 24);
        let mut cg = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        let mut direct = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
        assert_eq!(direct.solve_mode(), DcPlanMode::WarmCg);
        direct.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        assert_eq!(direct.solve_mode(), DcPlanMode::DirectCholesky);
        let a = cg.solve().unwrap();
        let b = direct.solve().unwrap();
        for (x, y) in a.per_vr().iter().zip(b.per_vr()) {
            assert!((x.value() - y.value()).abs() < 1e-6, "{x} vs {y}");
        }
        assert!((a.worst_drop().value() - b.worst_drop().value()).abs() < 1e-8);
    }

    /// A direct-mode solver for one paper placement (`0` periphery, `1`
    /// below the die) with an optional fault: `1` opens a module, `2`
    /// derates one, `3` degrades a corner patch of the mesh.
    fn sweep_solver(placement: usize, modules: usize, fault: usize) -> SharingSolver {
        let (spec, calib) = paper();
        let mut solver = SharingSolver::builder(&spec, &calib)
            .placement([VrPlacement::Periphery, VrPlacement::BelowDie][placement])
            .modules(modules)
            .build()
            .unwrap();
        solver.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        match fault {
            1 => solver.set_vr_droop(modules / 2, Ohms::new(1e9)).unwrap(),
            2 => solver.set_vr_droop(0, Ohms::from_milliohms(3.0)).unwrap(),
            3 => solver.scale_region_resistance(0, 0, 5, 5, 40.0).unwrap(),
            _ => {}
        }
        solver
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]
        /// A sweep answered from the one nominal solve agrees with one
        /// direct solve per setpoint (every regulator moved to it).
        #[test]
        fn prop_setpoint_sweep_matches_per_setpoint_solves(
            placement in 0_usize..2,
            modules in 0_usize..4,
            fault in 0_usize..4,
            setpoints in proptest::collection::vec(0.9_f64..1.1, 1..9),
        ) {
            let modules = [8, 12, 24, 48][modules];
            let sweep: Vec<Volts> = setpoints.iter().map(|&v| Volts::new(v)).collect();
            let points = sweep_solver(placement, modules, fault)
                .solve_setpoints(&sweep)
                .unwrap();
            proptest::prop_assert_eq!(points.len(), sweep.len());
            let mut direct = sweep_solver(placement, modules, fault);
            for (point, &v) in points.iter().zip(&sweep) {
                for k in 0..direct.vr_count() {
                    direct.set_vr_setpoint(k, v).unwrap();
                }
                let exact = direct.solve().unwrap();
                let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol;
                for (a, b) in point.per_vr().iter().zip(exact.per_vr()) {
                    proptest::prop_assert!(close(a.value(), b.value(), 1e-9), "{v}: {a} vs {b}");
                }
                proptest::prop_assert!(close(
                    point.grid_loss().value(),
                    exact.grid_loss().value(),
                    1e-9
                ));
                proptest::prop_assert!(close(
                    point.droop_loss().value(),
                    exact.droop_loss().value(),
                    1e-9
                ));
                proptest::prop_assert!(close(
                    point.worst_drop().value(),
                    exact.worst_drop().value(),
                    1e-12
                ));
            }
        }
    }

    #[test]
    fn setpoint_sweep_is_one_nominal_solve() {
        let nominal = SystemSpec::paper_default().pol_voltage();
        let sweep = [Volts::new(0.97), nominal, Volts::new(1.03)];
        let points = sweep_solver(1, 12, 0).solve_setpoints(&sweep).unwrap();
        // The nominal setpoint's point is the solve itself, bit for bit.
        assert_eq!(points[1], sweep_solver(1, 12, 0).solve().unwrap());
        // A higher rail pushes every node up: referenced to the nominal
        // setpoint, the worst drop shrinks as the sweep rises.
        assert!(points[2].worst_drop().value() < points[0].worst_drop().value());

        // A drifted module is reset to the nominal setpoint first.
        let mut drifted = sweep_solver(1, 12, 0);
        drifted.set_vr_setpoint(3, Volts::new(0.95)).unwrap();
        drifted.solve().unwrap();
        assert_eq!(drifted.solve_setpoints(&sweep).unwrap(), points);

        // A non-finite setpoint is rejected before the grid moves.
        let mut rejected = sweep_solver(1, 12, 0);
        let err = rejected
            .solve_setpoints(&[Volts::new(0.98), Volts::new(f64::NAN)])
            .unwrap_err();
        assert!(matches!(err, CoreError::Circuit(_)), "{err:?}");
        assert_eq!(rejected.solve_setpoints(&sweep).unwrap(), points);
        assert!(rejected.solve_setpoints(&[]).unwrap().is_empty());
    }

    #[test]
    fn more_modules_reduce_spreading_loss() {
        let (spec, calib) = paper();
        let few = solve_sharing(&spec, &calib, VrPlacement::BelowDie, 8).unwrap();
        let many = solve_sharing(&spec, &calib, VrPlacement::BelowDie, 48).unwrap();
        assert!(many.grid_loss().value() < few.grid_loss().value());
    }
}
