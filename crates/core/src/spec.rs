//! The system specification: the operating point an architecture must
//! serve.

use crate::CoreError;
use vpd_units::{Amps, CurrentDensity, SquareMeters, Volts, Watts};

/// A power-delivery specification.
///
/// The paper's headline system is the default: 48 V at the PCB, 1 V at
/// the points of load, 1 kW, 2 A/mm² — which fixes a 500 mm² die and
/// 1 kA of POL current.
///
/// ```
/// use vpd_core::SystemSpec;
///
/// let spec = SystemSpec::paper_default();
/// assert!((spec.die_area().as_square_millimeters() - 500.0).abs() < 1e-9);
/// assert!((spec.pol_current().value() - 1000.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SystemSpec {
    pcb_voltage: Volts,
    pol_voltage: Volts,
    pol_power: Watts,
    current_density: CurrentDensity,
}

impl SystemSpec {
    /// The paper's 1 kW / 2 A/mm² / 48 V→1 V system.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            pcb_voltage: Volts::new(48.0),
            pol_voltage: Volts::new(1.0),
            pol_power: Watts::from_kilowatts(1.0),
            current_density: CurrentDensity::from_amps_per_square_millimeter(2.0),
        }
    }

    /// Creates a validated specification.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when any value is non-positive
    /// or non-finite, or when `pol_voltage ≥ pcb_voltage`.
    pub fn new(
        pcb_voltage: Volts,
        pol_voltage: Volts,
        pol_power: Watts,
        current_density: CurrentDensity,
    ) -> Result<Self, CoreError> {
        for (what, v) in [
            ("pcb voltage", pcb_voltage.value()),
            ("pol voltage", pol_voltage.value()),
            ("pol power", pol_power.value()),
            ("current density", current_density.value()),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CoreError::InvalidSpec { what, value: v });
            }
        }
        if pol_voltage.value() >= pcb_voltage.value() {
            return Err(CoreError::InvalidSpec {
                what: "pol voltage (must be below pcb voltage)",
                value: pol_voltage.value(),
            });
        }
        Ok(Self {
            pcb_voltage,
            pol_voltage,
            pol_power,
            current_density,
        })
    }

    /// Input bus voltage at the PCB.
    #[must_use]
    pub fn pcb_voltage(&self) -> Volts {
        self.pcb_voltage
    }

    /// Point-of-load voltage.
    #[must_use]
    pub fn pol_voltage(&self) -> Volts {
        self.pol_voltage
    }

    /// Power delivered to the points of load.
    #[must_use]
    pub fn pol_power(&self) -> Watts {
        self.pol_power
    }

    /// Die current density.
    #[must_use]
    pub fn current_density(&self) -> CurrentDensity {
        self.current_density
    }

    /// POL current: `P / V_pol`.
    #[must_use]
    pub fn pol_current(&self) -> Amps {
        self.pol_power / self.pol_voltage
    }

    /// Die area implied by the current density: `I / J`.
    #[must_use]
    pub fn die_area(&self) -> SquareMeters {
        self.pol_current() / self.current_density
    }

    /// Overall conversion ratio `V_pcb : V_pol`.
    #[must_use]
    pub fn conversion_ratio(&self) -> f64 {
        self.pcb_voltage / self.pol_voltage
    }
}

impl Default for SystemSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_derivations() {
        let s = SystemSpec::paper_default();
        assert_eq!(s.conversion_ratio(), 48.0);
        assert!((s.pol_current().value() - 1000.0).abs() < 1e-9);
        assert!((s.die_area().as_square_millimeters() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let ok = SystemSpec::paper_default();
        assert!(SystemSpec::new(
            Volts::new(1.0),
            Volts::new(48.0),
            ok.pol_power(),
            ok.current_density()
        )
        .is_err());
        assert!(SystemSpec::new(
            ok.pcb_voltage(),
            ok.pol_voltage(),
            Watts::ZERO,
            ok.current_density()
        )
        .is_err());
        assert!(SystemSpec::new(
            Volts::new(f64::NAN),
            ok.pol_voltage(),
            ok.pol_power(),
            ok.current_density()
        )
        .is_err());
    }

    #[test]
    fn scaled_spec_scales_die() {
        let half = SystemSpec::new(
            Volts::new(48.0),
            Volts::new(1.0),
            Watts::new(500.0),
            CurrentDensity::from_amps_per_square_millimeter(2.0),
        )
        .unwrap();
        assert!((half.die_area().as_square_millimeters() - 250.0).abs() < 1e-9);
    }
}
