//! Passive sizing: the inverse problem of Table II.
//!
//! Table II reports each converter's total inductance and capacitance;
//! this module derives those values from ripple specifications — the
//! design flow §III implies ("integrated passives limited by the small
//! form factor exhibit lower energy capacity and need to be switched
//! faster"). Given a ripple budget and switching frequency it sizes the
//! phase inductor and output capacitor, and conversely reports the
//! frequency a given (small, embeddable) passive set forces.

use crate::{ConverterError, TopologyCharacteristics, VrTopologyKind};
use vpd_devices::InductorKind;
use vpd_units::{Amps, Farads, Henries, Hertz, SquareMeters, Volts};

/// Ripple requirements at the converter output.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RippleSpec {
    /// Peak-to-peak inductor-current ripple as a fraction of the phase
    /// current (typical designs target 0.3–0.5).
    pub current_ripple_fraction: f64,
    /// Peak-to-peak output-voltage ripple as a fraction of `V_out`.
    pub voltage_ripple_fraction: f64,
}

impl RippleSpec {
    /// A conventional 40% current / 1% voltage ripple target.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            current_ripple_fraction: 0.4,
            voltage_ripple_fraction: 0.01,
        }
    }
}

/// A sized passive set for one buck-derived phase.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PassiveSizing {
    /// Per-phase inductance.
    pub inductance_per_phase: Henries,
    /// Output capacitance (per module).
    pub output_capacitance: Farads,
    /// Phase count the sizing assumed.
    pub phases: usize,
    /// The switching frequency the sizing assumed.
    pub f_sw: Hertz,
    /// Area an embedded inductor of this rating needs (1 A/mm² limit,
    /// per the paper's \[14\]).
    pub inductor_area_per_phase: SquareMeters,
}

/// Sizes the passives of a buck-derived output stage.
///
/// Standard relations for an interleaved buck cell whose switching node
/// swings `v_cell` with duty `d = v_out/v_cell`:
///
/// * `L = v_out·(1 − d) / (ΔI · f)`
/// * `C = ΔI / (8 · f · ΔV)` (phase-interleaving reduces the effective
///   ripple current by the phase count).
///
/// # Errors
///
/// Returns [`ConverterError::BadCalibration`] for non-positive inputs
/// or a duty outside `(0, 1)`.
pub fn size_passives(
    kind: VrTopologyKind,
    v_out: Volts,
    i_out: Amps,
    f_sw: Hertz,
    spec: &RippleSpec,
) -> Result<PassiveSizing, ConverterError> {
    if !(v_out.value() > 0.0 && i_out.value() > 0.0 && f_sw.value() > 0.0) {
        return Err(ConverterError::BadCalibration {
            detail: "sizing inputs must be positive".into(),
        });
    }
    if !(spec.current_ripple_fraction > 0.0 && spec.voltage_ripple_fraction > 0.0) {
        return Err(ConverterError::BadCalibration {
            detail: "ripple fractions must be positive".into(),
        });
    }
    let ch = TopologyCharacteristics::table_ii(kind);
    let phases = ch.inductors.max(1);
    // The SC front division sets the cell voltage the buck tail sees.
    let factors = crate::StressFactors::for_kind(kind);
    let v_cell = 48.0 * factors.switch_voltage_fraction;
    let duty = v_out.value() / v_cell;
    if !(0.0..1.0).contains(&duty) {
        return Err(ConverterError::BadCalibration {
            detail: format!("infeasible duty {duty:.3} for {kind}"),
        });
    }
    let i_phase = i_out.value() / phases as f64;
    let di = spec.current_ripple_fraction * i_phase;
    let l = v_out.value() * (1.0 - duty) / (di * f_sw.value());
    let dv = spec.voltage_ripple_fraction * v_out.value();
    // Interleaving: the capacitor sees ΔI/phases of effective ripple.
    let c = di / (phases as f64 * 8.0 * f_sw.value() * dv);
    let area = Amps::new(i_phase) / InductorKind::Embedded.current_density_limit();
    Ok(PassiveSizing {
        inductance_per_phase: Henries::new(l),
        output_capacitance: Farads::new(c),
        phases,
        f_sw,
        inductor_area_per_phase: area,
    })
}

/// The switching frequency at which the sized per-phase inductance
/// matches a given (embeddable) value — how fast a small passive set
/// forces the converter to run (§III's core tension).
///
/// # Errors
///
/// As for [`size_passives`].
pub fn frequency_for_inductance(
    kind: VrTopologyKind,
    v_out: Volts,
    i_out: Amps,
    target_l: Henries,
    spec: &RippleSpec,
) -> Result<Hertz, ConverterError> {
    if target_l.value() <= 0.0 || target_l.value().is_nan() {
        return Err(ConverterError::BadCalibration {
            detail: "target inductance must be positive".into(),
        });
    }
    // L ∝ 1/f, so solve directly from a reference sizing at 1 MHz.
    let at_1mhz = size_passives(kind, v_out, i_out, Hertz::from_megahertz(1.0), spec)?;
    let f = at_1mhz.inductance_per_phase.value() / target_l.value() * 1e6;
    Ok(Hertz::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_inductance_recovered_at_plausible_frequency() {
        // DSCH: Table II lists 0.88 µH over 2 phases → 0.44 µH/phase.
        // Sizing with typical ripple at the published ~30 A max load
        // should land at a frequency in the hundreds-of-kHz-to-MHz band
        // those designs actually use.
        let f = frequency_for_inductance(
            VrTopologyKind::Dsch,
            Volts::new(1.0),
            Amps::new(30.0),
            Henries::from_microhenries(0.44),
            &RippleSpec::typical(),
        )
        .unwrap();
        let mhz = f.value() / 1e6;
        assert!((0.05..5.0).contains(&mhz), "DSCH at {mhz:.2} MHz");
    }

    #[test]
    fn smaller_inductors_force_higher_frequency() {
        let spec = RippleSpec::typical();
        let f = |l_uh: f64| {
            frequency_for_inductance(
                VrTopologyKind::Dsch,
                Volts::new(1.0),
                Amps::new(30.0),
                Henries::from_microhenries(l_uh),
                &spec,
            )
            .unwrap()
            .value()
        };
        // Halving L doubles f — §III's "need to be switched faster".
        assert!((f(0.22) / f(0.44) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sizing_scales_inversely_with_frequency() {
        let spec = RippleSpec::typical();
        let s1 = size_passives(
            VrTopologyKind::Dpmih,
            Volts::new(1.0),
            Amps::new(100.0),
            Hertz::from_megahertz(1.0),
            &spec,
        )
        .unwrap();
        let s2 = size_passives(
            VrTopologyKind::Dpmih,
            Volts::new(1.0),
            Amps::new(100.0),
            Hertz::from_megahertz(2.0),
            &spec,
        )
        .unwrap();
        assert!(
            (s1.inductance_per_phase.value() / s2.inductance_per_phase.value() - 2.0).abs() < 1e-9
        );
        assert!((s1.output_capacitance.value() / s2.output_capacitance.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn embedded_inductor_area_matches_current_limit() {
        // 100 A over 4 DPMIH phases → 25 A/phase → 25 mm² at 1 A/mm².
        let s = size_passives(
            VrTopologyKind::Dpmih,
            Volts::new(1.0),
            Amps::new(100.0),
            Hertz::from_megahertz(1.0),
            &RippleSpec::typical(),
        )
        .unwrap();
        assert!((s.inductor_area_per_phase.as_square_millimeters() - 25.0).abs() < 1e-9);
        assert_eq!(s.phases, 4);
    }

    #[test]
    fn tighter_voltage_ripple_needs_more_capacitance() {
        let mk = |vr: f64| {
            size_passives(
                VrTopologyKind::Dsch,
                Volts::new(1.0),
                Amps::new(30.0),
                Hertz::from_megahertz(1.0),
                &RippleSpec {
                    current_ripple_fraction: 0.4,
                    voltage_ripple_fraction: vr,
                },
            )
            .unwrap()
            .output_capacitance
        };
        assert!(mk(0.005).value() > mk(0.02).value());
    }

    #[test]
    fn validation() {
        let spec = RippleSpec::typical();
        assert!(size_passives(
            VrTopologyKind::Dsch,
            Volts::ZERO,
            Amps::new(30.0),
            Hertz::from_megahertz(1.0),
            &spec
        )
        .is_err());
        assert!(size_passives(
            VrTopologyKind::Dsch,
            Volts::new(1.0),
            Amps::new(30.0),
            Hertz::from_megahertz(1.0),
            &RippleSpec {
                current_ripple_fraction: 0.0,
                voltage_ripple_fraction: 0.01
            }
        )
        .is_err());
        assert!(frequency_for_inductance(
            VrTopologyKind::Dsch,
            Volts::new(1.0),
            Amps::new(30.0),
            Henries::ZERO,
            &spec
        )
        .is_err());
        // 3LHD steps to 4.8 V internally, so a 1 V output keeps
        // duty < 1 and sizes fine; an absurd 10 V output does not.
        assert!(size_passives(
            VrTopologyKind::ThreeLevelHybridDickson,
            Volts::new(10.0),
            Amps::new(10.0),
            Hertz::from_megahertz(1.0),
            &spec
        )
        .is_err());
    }
}
