//! Power-transistor models: silicon vs. gallium nitride.
//!
//! The paper's §III argues GaN devices are required to make high-ratio
//! near-POL conversion efficient. This module captures that with a
//! compact technology model: voltage-dependent specific on-resistance
//! (`R_on·A`), per-area gate and output charge, and the loss terms they
//! imply. The figure of merit `R_on·Q_g` comes out ~10–20× better for
//! GaN at the 48 V class, consistent with the devices cited in the
//! paper (\[8\]–\[10\]).

use crate::DeviceError;
use vpd_units::{Amps, Coulombs, Hertz, Joules, Ohms, SquareMeters, Volts, Watts};

/// Transistor semiconductor technology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Semiconductor {
    /// Silicon power MOSFET.
    Si,
    /// Gallium-nitride HEMT.
    GaN,
}

impl Semiconductor {
    /// Specific on-resistance `R_on · A` at a drain-voltage rating,
    /// modeled as `r₀ · (V/12 V)^α` — the classical unipolar-limit
    /// scaling, with GaN's higher critical field flattening both the
    /// coefficient and the exponent.
    #[must_use]
    pub fn specific_on_resistance(self, v_rating: Volts) -> f64 {
        // Returns Ω·m² (SI). Anchors: Si 6 mΩ·mm², GaN 2 mΩ·mm² at 12 V.
        let (r0_mohm_mm2, alpha) = match self {
            Self::Si => (6.0, 2.3),
            Self::GaN => (2.0, 1.8),
        };
        let scale = (v_rating.value() / 12.0).max(0.1);
        r0_mohm_mm2 * 1e-3 * 1e-6 * scale.powf(alpha)
    }

    /// Gate charge per device area (C/m²).
    #[must_use]
    pub const fn gate_charge_density(self) -> f64 {
        match self {
            // 8 nC/mm² and 3 nC/mm².
            Self::Si => 8.0e-9 / 1e-6,
            Self::GaN => 3.0e-9 / 1e-6,
        }
    }

    /// Output (Coss) charge per device area (C/m²).
    #[must_use]
    pub const fn output_charge_density(self) -> f64 {
        match self {
            Self::Si => 12.0e-9 / 1e-6,
            Self::GaN => 4.0e-9 / 1e-6,
        }
    }

    /// Typical gate-drive voltage.
    #[must_use]
    pub const fn drive_voltage(self) -> Volts {
        match self {
            Self::Si => Volts::new(10.0),
            Self::GaN => Volts::new(5.0),
        }
    }

    /// Technology figure of merit `R_on·Q_g` at a voltage rating
    /// (Ω·C; lower is better). Area cancels, so this compares
    /// technologies directly.
    #[must_use]
    pub fn figure_of_merit(self, v_rating: Volts) -> f64 {
        self.specific_on_resistance(v_rating) * self.gate_charge_density()
    }
}

impl std::fmt::Display for Semiconductor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Si => write!(f, "Si"),
            Self::GaN => write!(f, "GaN"),
        }
    }
}

/// A sized power transistor.
///
/// ```
/// use vpd_devices::{PowerTransistor, Semiconductor};
/// use vpd_units::{SquareMeters, Volts};
///
/// # fn main() -> Result<(), vpd_devices::DeviceError> {
/// let fet = PowerTransistor::new(
///     Semiconductor::GaN,
///     Volts::new(48.0),
///     SquareMeters::from_square_millimeters(4.0),
/// )?;
/// assert!(fet.r_on().as_milliohms() < 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PowerTransistor {
    material: Semiconductor,
    v_rating: Volts,
    area: SquareMeters,
}

impl PowerTransistor {
    /// Creates a transistor of the given technology, voltage class, and
    /// die area.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for a non-positive
    /// rating or area.
    pub fn new(
        material: Semiconductor,
        v_rating: Volts,
        area: SquareMeters,
    ) -> Result<Self, DeviceError> {
        if !(v_rating.value().is_finite() && v_rating.value() > 0.0) {
            return Err(DeviceError::InvalidParameter {
                what: "voltage rating",
                value: v_rating.value(),
            });
        }
        if !(area.value().is_finite() && area.value() > 0.0) {
            return Err(DeviceError::InvalidParameter {
                what: "device area",
                value: area.value(),
            });
        }
        Ok(Self {
            material,
            v_rating,
            area,
        })
    }

    /// Technology.
    #[must_use]
    pub fn material(&self) -> Semiconductor {
        self.material
    }

    /// Drain-voltage rating.
    #[must_use]
    pub fn v_rating(&self) -> Volts {
        self.v_rating
    }

    /// Die area.
    #[must_use]
    pub fn area(&self) -> SquareMeters {
        self.area
    }

    /// On-resistance `R_sp / A`.
    #[must_use]
    pub fn r_on(&self) -> Ohms {
        Ohms::new(self.material.specific_on_resistance(self.v_rating) / self.area.value())
    }

    /// Total gate charge.
    #[must_use]
    pub fn q_g(&self) -> Coulombs {
        Coulombs::new(self.material.gate_charge_density() * self.area.value())
    }

    /// Total output charge.
    #[must_use]
    pub fn q_oss(&self) -> Coulombs {
        Coulombs::new(self.material.output_charge_density() * self.area.value())
    }

    /// Conduction loss for an RMS current and conduction duty.
    #[must_use]
    pub fn conduction_loss(&self, i_rms: Amps, duty: f64) -> Watts {
        i_rms.dissipation_in(self.r_on()) * duty.clamp(0.0, 1.0)
    }

    /// Gate-drive loss at a switching frequency.
    #[must_use]
    pub fn gate_loss(&self, f_sw: Hertz) -> Watts {
        (self.q_g() * self.material.drive_voltage()) * f_sw
    }

    /// Hard-switching energy per cycle: output-charge loss plus a
    /// voltage–current overlap term (`t_sw` from slewing the gate charge
    /// at 1 A of drive).
    #[must_use]
    pub fn switching_energy(&self, v_sw: Volts, i_sw: Amps) -> Joules {
        let e_oss = Joules::new(0.5 * self.q_oss().value() * v_sw.value());
        let t_sw = self.q_g().value() / 1.0; // 1 A gate drive
        let e_overlap = Joules::new(0.5 * v_sw.value() * i_sw.value() * t_sw);
        e_oss + e_overlap
    }

    /// Hard-switching loss at frequency `f_sw`.
    #[must_use]
    pub fn switching_loss(&self, f_sw: Hertz, v_sw: Volts, i_sw: Amps) -> Watts {
        self.switching_energy(v_sw, i_sw) * f_sw
    }

    /// Total loss of this device in a switching cell: conduction +
    /// gate + (hard) switching. `soft_switching` drops the
    /// voltage–current terms, keeping only gate loss (the DPMIH
    /// soft-switching advantage in the paper's §III).
    #[must_use]
    pub fn total_loss(
        &self,
        i_rms: Amps,
        duty: f64,
        f_sw: Hertz,
        v_sw: Volts,
        soft_switching: bool,
    ) -> Watts {
        let base = self.conduction_loss(i_rms, duty) + self.gate_loss(f_sw);
        if soft_switching {
            base
        } else {
            base + self.switching_loss(f_sw, v_sw, i_rms)
        }
    }

    /// The die area minimizing conduction + frequency-dependent loss for
    /// the given operating point: `A* = I·√(duty·R_sp / (k_f·f))` where
    /// `k_f` collects the per-area charge terms.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] for a non-positive
    /// current or frequency.
    pub fn optimal_area(
        material: Semiconductor,
        v_rating: Volts,
        i_rms: Amps,
        duty: f64,
        f_sw: Hertz,
        v_sw: Volts,
    ) -> Result<SquareMeters, DeviceError> {
        if !(i_rms.value() > 0.0 && i_rms.value().is_finite()) {
            return Err(DeviceError::InvalidParameter {
                what: "rms current",
                value: i_rms.value(),
            });
        }
        if !(f_sw.value() > 0.0 && f_sw.value().is_finite()) {
            return Err(DeviceError::InvalidParameter {
                what: "switching frequency",
                value: f_sw.value(),
            });
        }
        let r_sp = material.specific_on_resistance(v_rating);
        let k_f = material.gate_charge_density() * material.drive_voltage().value()
            + 0.5 * material.output_charge_density() * v_sw.value();
        let a = i_rms.value() * (duty.clamp(0.0, 1.0) * r_sp / (k_f * f_sw.value())).sqrt();
        Ok(SquareMeters::new(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gan_fom_is_order_of_magnitude_better_at_48v() {
        let v = Volts::new(48.0);
        let ratio = Semiconductor::Si.figure_of_merit(v) / Semiconductor::GaN.figure_of_merit(v);
        assert!(
            (8.0..30.0).contains(&ratio),
            "expected ~10-20x FOM advantage, got {ratio:.1}"
        );
    }

    #[test]
    fn r_on_scales_inverse_with_area() {
        let v = Volts::new(48.0);
        let small = PowerTransistor::new(
            Semiconductor::GaN,
            v,
            SquareMeters::from_square_millimeters(1.0),
        )
        .unwrap();
        let big = PowerTransistor::new(
            Semiconductor::GaN,
            v,
            SquareMeters::from_square_millimeters(4.0),
        )
        .unwrap();
        assert!((small.r_on().value() / big.r_on().value() - 4.0).abs() < 1e-9);
        // Charge scales with area instead.
        assert!((big.q_g().value() / small.q_g().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn soft_switching_removes_vi_terms() {
        let fet = PowerTransistor::new(
            Semiconductor::GaN,
            Volts::new(48.0),
            SquareMeters::from_square_millimeters(2.0),
        )
        .unwrap();
        let f = Hertz::from_megahertz(1.0);
        let hard = fet.total_loss(Amps::new(10.0), 0.5, f, Volts::new(48.0), false);
        let soft = fet.total_loss(Amps::new(10.0), 0.5, f, Volts::new(48.0), true);
        assert!(hard.value() > soft.value());
        let diff = hard - soft;
        let expected = fet.switching_loss(f, Volts::new(48.0), Amps::new(10.0));
        assert!((diff.value() - expected.value()).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_parameters() {
        let a = SquareMeters::from_square_millimeters(1.0);
        assert!(PowerTransistor::new(Semiconductor::Si, Volts::new(-5.0), a).is_err());
        assert!(
            PowerTransistor::new(Semiconductor::Si, Volts::new(48.0), SquareMeters::ZERO).is_err()
        );
        assert!(PowerTransistor::optimal_area(
            Semiconductor::GaN,
            Volts::new(48.0),
            Amps::ZERO,
            0.5,
            Hertz::from_megahertz(1.0),
            Volts::new(48.0),
        )
        .is_err());
    }

    #[test]
    fn switching_loss_linear_in_frequency() {
        let fet = PowerTransistor::new(
            Semiconductor::Si,
            Volts::new(48.0),
            SquareMeters::from_square_millimeters(2.0),
        )
        .unwrap();
        let p1 = fet.switching_loss(Hertz::from_megahertz(1.0), Volts::new(48.0), Amps::new(5.0));
        let p2 = fet.switching_loss(Hertz::from_megahertz(2.0), Volts::new(48.0), Amps::new(5.0));
        assert!((p2.value() / p1.value() - 2.0).abs() < 1e-9);
    }

    proptest! {
        /// The closed-form optimal area beats nearby areas.
        #[test]
        fn prop_optimal_area_is_a_minimum(
            i in 1.0_f64..50.0,
            f_mhz in 0.2_f64..5.0,
            duty in 0.05_f64..0.95,
        ) {
            let v = Volts::new(48.0);
            let f = Hertz::from_megahertz(f_mhz);
            let a_star = PowerTransistor::optimal_area(
                Semiconductor::GaN, v, Amps::new(i), duty, f, v).unwrap();
            let loss_at = |a: SquareMeters| {
                let fet = PowerTransistor::new(Semiconductor::GaN, v, a).unwrap();
                // Loss model the optimum was derived for: conduction +
                // gate + e_oss (no overlap, which is area-independent).
                (fet.conduction_loss(Amps::new(i), duty)
                    + fet.gate_loss(f)
                    + Joules::new(0.5 * fet.q_oss().value() * v.value()) * f).value()
            };
            let at_star = loss_at(a_star);
            prop_assert!(at_star <= loss_at(a_star * 1.3) + 1e-12);
            prop_assert!(at_star <= loss_at(a_star * 0.7) + 1e-12);
        }

        /// GaN never loses to Si at the same operating point when both
        /// use their own optimal area.
        #[test]
        fn prop_gan_dominates_si_at_optimum(
            i in 1.0_f64..50.0,
            f_mhz in 0.5_f64..5.0,
        ) {
            let v = Volts::new(48.0);
            let f = Hertz::from_megahertz(f_mhz);
            let total = |m: Semiconductor| {
                let a = PowerTransistor::optimal_area(m, v, Amps::new(i), 0.5, f, v).unwrap();
                PowerTransistor::new(m, v, a).unwrap()
                    .total_loss(Amps::new(i), 0.5, f, v, false).value()
            };
            prop_assert!(total(Semiconductor::GaN) <= total(Semiconductor::Si));
        }
    }
}
