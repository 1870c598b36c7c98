//! PDN output-impedance profiles — the AC side of vertical power
//! delivery.
//!
//! The paper's DC analysis shows *where* conversion should happen; this
//! module adds the classical AC argument for the same conclusion: an
//! integrated regulator close to the POL shrinks the supply loop
//! inductance by orders of magnitude, flattening the impedance profile
//! and meeting the target impedance `Z_t = V·ripple / ΔI` that a
//! board-level converter cannot reach at high frequency. This is the
//! "accurate system-level models" direction the paper's §I calls for.

use crate::{Architecture, CoreError, SystemSpec};
use vpd_circuit::{log_sweep, AcPlan, AcPoint, ElementId, Netlist, NodeId};
use vpd_units::{Amps, Farads, Henries, Hertz, Ohms, Volts};

/// Element handles into the ladder built by
/// [`PdnModel::netlist_tagged`] — the stamps a fault scenario edits
/// value-only on a compiled plan. Only the fault-touched elements are
/// tagged; the remaining passives never change under the fault
/// taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PdnElements {
    /// Regulator output resistance (parallel VR bank recombination).
    pub vr_resistance: ElementId,
    /// Regulator output inductance (parallel VR bank recombination).
    pub vr_inductance: ElementId,
    /// Bulk decap at the regulator output.
    pub bulk_capacitance: ElementId,
    /// Distribution resistance (sheet/region degradation).
    pub distribution_resistance: ElementId,
    /// Vertical resistance into the die (sheet/region degradation).
    pub vertical_resistance: ElementId,
}

/// A three-stage PDN ladder: regulator → (board/interposer) → package →
/// die, with a decoupling capacitor at each stage.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PdnModel {
    /// Regulator output inductance (loop from the converter output to
    /// the first distribution node).
    pub vr_inductance: Henries,
    /// Regulator output resistance.
    pub vr_resistance: Ohms,
    /// Bulk capacitance at the regulator output.
    pub bulk_capacitance: Farads,
    /// Bulk capacitor ESR.
    pub bulk_esr: Ohms,
    /// Distribution inductance to the package/interposer node.
    pub distribution_inductance: Henries,
    /// Distribution resistance.
    pub distribution_resistance: Ohms,
    /// Package/interposer-level capacitance.
    pub package_capacitance: Farads,
    /// Package capacitor ESR.
    pub package_esr: Ohms,
    /// Vertical inductance from package/interposer into the die.
    pub vertical_inductance: Henries,
    /// Vertical resistance into the die.
    pub vertical_resistance: Ohms,
    /// On-die capacitance.
    pub die_capacitance: Farads,
    /// On-die capacitor ESR.
    pub die_esr: Ohms,
}

impl PdnModel {
    /// A representative model for each architecture. The decisive
    /// difference is structural: A0's regulator sits across the board
    /// (~15 nH of loop), while the vertical architectures regulate on
    /// or in the interposer (tens of pH).
    #[must_use]
    pub fn for_architecture(arch: Architecture) -> Self {
        match arch {
            Architecture::Reference => Self {
                vr_inductance: Henries::from_nanohenries(5.0),
                vr_resistance: Ohms::from_microohms(100.0),
                bulk_capacitance: Farads::new(5e-3),
                bulk_esr: Ohms::from_microohms(200.0),
                distribution_inductance: Henries::from_nanohenries(15.0),
                distribution_resistance: Ohms::from_microohms(280.0),
                package_capacitance: Farads::from_microfarads(200.0),
                package_esr: Ohms::from_microohms(150.0),
                vertical_inductance: Henries::from_nanohenries(0.05),
                vertical_resistance: Ohms::from_microohms(10.0),
                die_capacitance: Farads::from_microfarads(2.0),
                die_esr: Ohms::from_microohms(30.0),
            },
            // Periphery IVR: 48 modules in parallel, short interposer
            // routing; values are the per-module network divided by the
            // module count (module output capacitance 6.6 µF × 48 plus
            // embedded interposer capacitance).
            Architecture::InterposerPeriphery | Architecture::TwoStage { .. } => Self {
                vr_inductance: Henries::from_nanohenries(0.010),
                vr_resistance: Ohms::from_microohms(25.0),
                bulk_capacitance: Farads::from_microfarads(500.0),
                bulk_esr: Ohms::from_microohms(150.0),
                distribution_inductance: Henries::from_nanohenries(0.015),
                distribution_resistance: Ohms::from_microohms(25.0),
                package_capacitance: Farads::from_microfarads(100.0),
                package_esr: Ohms::from_microohms(80.0),
                vertical_inductance: Henries::from_nanohenries(0.002),
                vertical_resistance: Ohms::from_microohms(3.0),
                die_capacitance: Farads::from_microfarads(350.0),
                die_esr: Ohms::from_microohms(20.0),
            },
            // Under-die IVR: the loop is almost purely vertical — the
            // per-module attach is Cu pads (µΩ, sub-pH), 48-way parallel.
            Architecture::InterposerEmbedded => Self {
                vr_inductance: Henries::from_nanohenries(0.0015),
                vr_resistance: Ohms::from_microohms(5.0),
                bulk_capacitance: Farads::from_microfarads(800.0),
                bulk_esr: Ohms::from_microohms(120.0),
                distribution_inductance: Henries::from_nanohenries(0.0015),
                distribution_resistance: Ohms::from_microohms(8.0),
                package_capacitance: Farads::from_microfarads(100.0),
                package_esr: Ohms::from_microohms(80.0),
                vertical_inductance: Henries::from_nanohenries(0.0004),
                vertical_resistance: Ohms::from_microohms(1.0),
                die_capacitance: Farads::from_microfarads(400.0),
                die_esr: Ohms::from_microohms(15.0),
            },
        }
    }

    /// Builds the ladder netlist and returns `(netlist, die node)`.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors (all model values must be
    /// positive).
    pub fn netlist(&self) -> Result<(Netlist, NodeId), CoreError> {
        let (net, die, _) = self.netlist_tagged()?;
        Ok((net, die))
    }

    /// Builds the ladder netlist and additionally returns the
    /// fault-touched element handles, so callers can restamp faulted
    /// values into a compiled plan. The netlist is constructed exactly
    /// as [`PdnModel::netlist`] (same node and element order), so plans
    /// compiled from either are interchangeable bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors (all model values must be
    /// positive).
    pub fn netlist_tagged(&self) -> Result<(Netlist, NodeId, PdnElements), CoreError> {
        let mut net = Netlist::new();
        let vr = net.node("vr");
        let board = net.node("board");
        let pkg = net.node("pkg");
        let die = net.node("die");
        let g = net.ground();
        // Regulator: AC-shorted ideal source behind its output RL.
        net.voltage_source(vr, g, Volts::new(1.0))
            .map_err(CoreError::Circuit)?;
        let elements = self.stamp_ladder(&mut net, vr, board, pkg, die)?;
        Ok((net, die, elements))
    }

    /// Stamps the passive ladder from the regulator output node `vr`
    /// down to `die` into `net` (everything except the source), in the
    /// canonical element order. Shared by the AC netlist above and the
    /// VR-failure transient netlist, which puts a series switch between
    /// the source and `vr`.
    pub(crate) fn stamp_ladder(
        &self,
        net: &mut Netlist,
        vr: NodeId,
        board: NodeId,
        pkg: NodeId,
        die: NodeId,
    ) -> Result<PdnElements, CoreError> {
        let g = net.ground();
        let mid1 = net.node("vr_l");
        let vr_resistance = net
            .resistor(vr, mid1, self.vr_resistance)
            .map_err(CoreError::Circuit)?;
        let vr_inductance = net
            .inductor(mid1, board, self.vr_inductance, Amps::ZERO)
            .map_err(CoreError::Circuit)?;
        // Bulk decap at the first node.
        let bulk = net.node("bulk");
        let bulk_capacitance = net
            .capacitor(board, bulk, self.bulk_capacitance, Volts::ZERO)
            .map_err(CoreError::Circuit)?;
        net.resistor(bulk, g, self.bulk_esr)
            .map_err(CoreError::Circuit)?;
        // Distribution to package.
        let mid2 = net.node("dist_l");
        let distribution_resistance = net
            .resistor(board, mid2, self.distribution_resistance)
            .map_err(CoreError::Circuit)?;
        net.inductor(mid2, pkg, self.distribution_inductance, Amps::ZERO)
            .map_err(CoreError::Circuit)?;
        let pkg_c = net.node("pkg_c");
        net.capacitor(pkg, pkg_c, self.package_capacitance, Volts::ZERO)
            .map_err(CoreError::Circuit)?;
        net.resistor(pkg_c, g, self.package_esr)
            .map_err(CoreError::Circuit)?;
        // Vertical into the die.
        let mid3 = net.node("vert_l");
        let vertical_resistance = net
            .resistor(pkg, mid3, self.vertical_resistance)
            .map_err(CoreError::Circuit)?;
        net.inductor(mid3, die, self.vertical_inductance, Amps::ZERO)
            .map_err(CoreError::Circuit)?;
        let die_c = net.node("die_c");
        net.capacitor(die, die_c, self.die_capacitance, Volts::ZERO)
            .map_err(CoreError::Circuit)?;
        net.resistor(die_c, g, self.die_esr)
            .map_err(CoreError::Circuit)?;
        Ok(PdnElements {
            vr_resistance,
            vr_inductance,
            bulk_capacitance,
            distribution_resistance,
            vertical_resistance,
        })
    }

    /// Driving-point impedance at the die across a frequency sweep.
    ///
    /// # Errors
    ///
    /// Propagates AC-solver failures.
    pub fn impedance_profile(&self, freqs: &[Hertz]) -> Result<Vec<AcPoint>, CoreError> {
        let (net, die) = self.netlist()?;
        AcPlan::compile(&net)
            .impedance(die, freqs)
            .map_err(CoreError::Circuit)
    }

    /// The default peak-impedance frequency grid: a 200-point decade
    /// sweep from 1 kHz to 1 GHz. [`PdnModel::peak_impedance`] and the
    /// CLI's `vpd impedance` defaults both derive from this one grid,
    /// so the two can never disagree about what "peak" means.
    #[must_use]
    pub fn default_peak_sweep() -> Vec<Hertz> {
        log_sweep(DEFAULT_SWEEP_FMIN, DEFAULT_SWEEP_FMAX, DEFAULT_SWEEP_POINTS)
    }

    /// The peak impedance magnitude across a caller-chosen frequency
    /// sweep.
    ///
    /// # Errors
    ///
    /// Propagates AC-solver failures.
    pub fn peak_impedance_over(&self, freqs: &[Hertz]) -> Result<Ohms, CoreError> {
        let profile = self.impedance_profile(freqs)?;
        Ok(Ohms::new(
            profile.iter().map(AcPoint::magnitude).fold(0.0, f64::max),
        ))
    }

    /// The peak impedance magnitude across
    /// [`PdnModel::default_peak_sweep`] (200 points, 1 kHz – 1 GHz).
    ///
    /// # Errors
    ///
    /// Propagates AC-solver failures.
    pub fn peak_impedance(&self) -> Result<Ohms, CoreError> {
        self.peak_impedance_over(&Self::default_peak_sweep())
    }
}

/// Default sweep lower bound shared by [`PdnModel::default_peak_sweep`]
/// and [`crate::ImpedanceSweepSettings`].
pub(crate) const DEFAULT_SWEEP_FMIN: Hertz = Hertz::from_kilohertz(1.0);
/// Default sweep upper bound.
pub(crate) const DEFAULT_SWEEP_FMAX: Hertz = Hertz::new(1e9);
/// Default sweep point count.
pub(crate) const DEFAULT_SWEEP_POINTS: usize = 200;

/// The classical target impedance `Z_t = V · ripple / ΔI`.
#[must_use]
pub fn target_impedance(spec: &SystemSpec, ripple_fraction: f64, step_fraction: f64) -> Ohms {
    let dv = spec.pol_voltage().value() * ripple_fraction;
    let di = spec.pol_current().value() * step_fraction;
    Ohms::new(dv / di)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<Hertz> {
        log_sweep(Hertz::from_kilohertz(1.0), Hertz::new(1e9), 120)
    }

    #[test]
    fn vertical_architectures_flatten_the_profile() {
        let a0 = PdnModel::for_architecture(Architecture::Reference)
            .peak_impedance()
            .unwrap();
        let a1 = PdnModel::for_architecture(Architecture::InterposerPeriphery)
            .peak_impedance()
            .unwrap();
        let a2 = PdnModel::for_architecture(Architecture::InterposerEmbedded)
            .peak_impedance()
            .unwrap();
        assert!(
            a0.value() > 50.0 * a2.value(),
            "A0 peak {a0} vs A2 peak {a2}"
        );
        assert!(
            a2.value() < a1.value() && a1.value() < a0.value(),
            "monotone with regulator proximity: {a2} < {a1} < {a0}"
        );
    }

    #[test]
    fn reference_misses_target_vertical_meets_it() {
        // 5% ripple budget against a 25% load step of 1 kA → 200 µΩ.
        let spec = SystemSpec::paper_default();
        let zt = target_impedance(&spec, 0.05, 0.25);
        let a0 = PdnModel::for_architecture(Architecture::Reference)
            .peak_impedance()
            .unwrap();
        let a2 = PdnModel::for_architecture(Architecture::InterposerEmbedded)
            .peak_impedance()
            .unwrap();
        assert!(a0.value() > zt.value(), "A0 must violate Z_t {zt}");
        assert!(a2.value() < zt.value(), "A2 peak {a2} must meet Z_t {zt}");
    }

    #[test]
    fn low_frequency_impedance_is_resistive() {
        let model = PdnModel::for_architecture(Architecture::Reference);
        let z = model.impedance_profile(&[Hertz::new(10.0)]).unwrap()[0];
        // At 10 Hz the inductors are shorts and the caps are open: the
        // dc path resistance dominates.
        let dc_r = model.vr_resistance.value()
            + model.distribution_resistance.value()
            + model.vertical_resistance.value();
        assert!(
            (z.magnitude() - dc_r).abs() < 0.3 * dc_r,
            "{}",
            z.magnitude()
        );
    }

    #[test]
    fn profile_has_antiresonant_peaks_for_a0() {
        let profile = PdnModel::for_architecture(Architecture::Reference)
            .impedance_profile(&sweep())
            .unwrap();
        let mags: Vec<f64> = profile.iter().map(AcPoint::magnitude).collect();
        // Non-monotone: at least one interior local maximum
        // (antiresonance between decap stages).
        let interior_peak = mags
            .windows(3)
            .any(|w| w[1] > w[0] * 1.05 && w[1] > w[2] * 1.05);
        assert!(interior_peak, "expected an antiresonant peak");
    }

    #[test]
    fn target_impedance_formula() {
        let spec = SystemSpec::paper_default();
        let zt = target_impedance(&spec, 0.05, 0.30);
        // 50 mV / 300 A ≈ 167 µΩ.
        assert!((zt.value() - 50e-3 / 300.0).abs() < 1e-9);
    }
}
