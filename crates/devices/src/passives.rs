//! Passive components: embedded/discrete inductors and capacitors.

use crate::DeviceError;
use vpd_units::{Amps, CurrentDensity, Farads, Henries, Hertz, Ohms, SquareMeters, Watts};

/// Where an inductor is realized. Embedded (in-interposer / in-package)
/// inductors are area-efficient but current-limited; the paper cites
/// state-of-the-art embedded inductors supporting only ~1 A/mm² (\[14\]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InductorKind {
    /// Embedded in the interposer, RDL, or package substrate.
    Embedded,
    /// Discrete component placed on or in the interposer cavity.
    Discrete,
}

impl InductorKind {
    /// Maximum current density the magnetic structure supports.
    #[must_use]
    pub const fn current_density_limit(self) -> CurrentDensity {
        match self {
            Self::Embedded => CurrentDensity::from_amps_per_square_millimeter(1.0),
            Self::Discrete => CurrentDensity::from_amps_per_square_millimeter(5.0),
        }
    }
}

/// A power inductor with DC resistance and an AC (core + winding
/// proximity) loss coefficient.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Inductor {
    l: Henries,
    dcr: Ohms,
    kind: InductorKind,
    area: SquareMeters,
    /// Core-loss coefficient: `P_core = k · f · ΔI²` (W·s·A⁻²).
    k_core: f64,
}

impl Inductor {
    /// Creates an inductor.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for non-positive
    /// inductance, DCR, or area.
    pub fn new(
        l: Henries,
        dcr: Ohms,
        kind: InductorKind,
        area: SquareMeters,
    ) -> Result<Self, DeviceError> {
        for (what, v) in [
            ("inductance", l.value()),
            ("dcr", dcr.value()),
            ("inductor area", area.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(DeviceError::InvalidParameter { what, value: v });
            }
        }
        Ok(Self {
            l,
            dcr,
            kind,
            area,
            k_core: 2e-8,
        })
    }

    /// Inductance.
    #[must_use]
    pub fn inductance(&self) -> Henries {
        self.l
    }

    /// DC resistance.
    #[must_use]
    pub fn dcr(&self) -> Ohms {
        self.dcr
    }

    /// Footprint area.
    #[must_use]
    pub fn area(&self) -> SquareMeters {
        self.area
    }

    /// Realization kind.
    #[must_use]
    pub fn kind(&self) -> InductorKind {
        self.kind
    }

    /// Maximum DC current before exceeding the kind's current-density
    /// limit over this footprint.
    #[must_use]
    pub fn max_current(&self) -> Amps {
        self.kind.current_density_limit() * self.area
    }

    /// Winding (DCR) loss at an average current plus core loss at a
    /// ripple amplitude and frequency.
    #[must_use]
    pub fn loss(&self, i_avg: Amps, ripple_pp: Amps, f_sw: Hertz) -> Watts {
        // RMS of a triangular ripple on a DC level:
        // I_rms² = I_avg² + ΔI²/12.
        let i_rms_sq = i_avg.value() * i_avg.value() + ripple_pp.value() * ripple_pp.value() / 12.0;
        let winding = Watts::new(i_rms_sq * self.dcr.value());
        let core = Watts::new(self.k_core * f_sw.value() * ripple_pp.value() * ripple_pp.value());
        winding + core
    }

    /// Peak-to-peak current ripple of this inductor in a buck phase:
    /// `ΔI = V_out·(1 − D)/(L·f)`.
    #[must_use]
    pub fn buck_ripple(&self, v_out: vpd_units::Volts, duty: f64, f_sw: Hertz) -> Amps {
        Amps::new(v_out.value() * (1.0 - duty.clamp(0.0, 1.0)) / (self.l.value() * f_sw.value()))
    }
}

/// A (flying or output) capacitor with equivalent series resistance.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Capacitor {
    c: Farads,
    esr: Ohms,
    area: SquareMeters,
}

impl Capacitor {
    /// Creates a capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for non-positive
    /// capacitance, ESR, or area.
    pub fn new(c: Farads, esr: Ohms, area: SquareMeters) -> Result<Self, DeviceError> {
        for (what, v) in [
            ("capacitance", c.value()),
            ("esr", esr.value()),
            ("capacitor area", area.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(DeviceError::InvalidParameter { what, value: v });
            }
        }
        Ok(Self { c, esr, area })
    }

    /// Capacitance.
    #[must_use]
    pub fn capacitance(&self) -> Farads {
        self.c
    }

    /// Equivalent series resistance.
    #[must_use]
    pub fn esr(&self) -> Ohms {
        self.esr
    }

    /// Footprint area.
    #[must_use]
    pub fn area(&self) -> SquareMeters {
        self.area
    }

    /// ESR loss at an RMS ripple current.
    #[must_use]
    pub fn loss(&self, i_rms: Amps) -> Watts {
        i_rms.dissipation_in(self.esr)
    }

    /// Charge-sharing ("hard-switching") loss when connected each cycle
    /// to a rail differing by `dv`: `P = ½·C·ΔV²·f` — the SC-converter
    /// loss the DPMIH topology avoids through soft charging (§III).
    #[must_use]
    pub fn charge_sharing_loss(&self, dv: vpd_units::Volts, f_sw: Hertz) -> Watts {
        vpd_units::capacitor_energy(self.c, dv) * f_sw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_units::Volts;

    #[test]
    fn embedded_inductor_current_limit_matches_paper() {
        // Paper §IV: embedded inductors support up to 1 A/mm².
        let l = Inductor::new(
            Henries::from_microhenries(1.0),
            Ohms::from_milliohms(1.0),
            InductorKind::Embedded,
            SquareMeters::from_square_millimeters(30.0),
        )
        .unwrap();
        assert!((l.max_current().value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn discrete_carries_more_per_area() {
        let mk = |kind| {
            Inductor::new(
                Henries::from_microhenries(1.0),
                Ohms::from_milliohms(1.0),
                kind,
                SquareMeters::from_square_millimeters(10.0),
            )
            .unwrap()
            .max_current()
        };
        assert!(mk(InductorKind::Discrete).value() > mk(InductorKind::Embedded).value());
    }

    #[test]
    fn inductor_loss_includes_ripple_rms() {
        let l = Inductor::new(
            Henries::from_microhenries(1.0),
            Ohms::from_milliohms(10.0),
            InductorKind::Discrete,
            SquareMeters::from_square_millimeters(10.0),
        )
        .unwrap();
        let no_ripple = l.loss(Amps::new(10.0), Amps::ZERO, Hertz::from_megahertz(1.0));
        let with_ripple = l.loss(Amps::new(10.0), Amps::new(6.0), Hertz::from_megahertz(1.0));
        assert!(with_ripple.value() > no_ripple.value());
        // Winding-only check: I_rms² = 100 + 36/12 = 103 → 1.03 W at 10 mΩ.
        assert!((no_ripple.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn buck_ripple_formula() {
        let l = Inductor::new(
            Henries::from_microhenries(1.0),
            Ohms::from_milliohms(1.0),
            InductorKind::Discrete,
            SquareMeters::from_square_millimeters(10.0),
        )
        .unwrap();
        // ΔI = 1 V · (1 − 0.5) / (1 µH · 1 MHz) = 0.5 A.
        let ripple = l.buck_ripple(Volts::new(1.0), 0.5, Hertz::from_megahertz(1.0));
        assert!((ripple.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacitor_losses() {
        let c = Capacitor::new(
            Farads::from_microfarads(1.0),
            Ohms::from_milliohms(2.0),
            SquareMeters::from_square_millimeters(1.0),
        )
        .unwrap();
        assert!((c.loss(Amps::new(5.0)).value() - 0.05).abs() < 1e-12);
        // ½·1µF·(2V)²·1MHz = 2 W of charge-sharing loss.
        let p = c.charge_sharing_loss(Volts::new(2.0), Hertz::from_megahertz(1.0));
        assert!((p.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(Inductor::new(
            Henries::ZERO,
            Ohms::new(1.0),
            InductorKind::Embedded,
            SquareMeters::from_square_millimeters(1.0)
        )
        .is_err());
        assert!(Capacitor::new(
            Farads::from_microfarads(1.0),
            Ohms::new(f64::NAN),
            SquareMeters::from_square_millimeters(1.0)
        )
        .is_err());
    }
}
