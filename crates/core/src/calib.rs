//! The model's free parameters and their calibration.
//!
//! The paper reports loss *percentages*, not the absolute resistances of
//! its lateral interconnect, so a handful of scale parameters must be
//! set once. DESIGN.md §6 documents each; the values below anchor:
//!
//! * the reference architecture A0 at ≈42% total loss ("over 40%",
//!   Fig. 7);
//! * the horizontal-loss reductions of ≈19× (A3@12V) and ≈7× (A3@6V);
//! * the A1 per-VR spread of 16–27 A and the A2 spread of 10–93 A.
//!
//! Every number here is asserted by integration tests, so a calibration
//! drift fails the build rather than silently changing the results.

use crate::{CoreError, PowerMap};
use vpd_units::Ohms;

/// Free parameters of the PCB-to-POL loss model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Calibration {
    /// Lateral PCB + package routing resistance at POL voltage for the
    /// reference architecture (converter output to package entry).
    pub horizontal_pol_resistance: Ohms,
    /// Lateral PCB routing at 48 V feeding the package/interposer edge —
    /// common to every proposed architecture.
    pub horizontal_hv_resistance: Ohms,
    /// Interposer lateral bus resistance at the intermediate voltage
    /// (stage-1 outputs to the under-die stage-2 region) in the
    /// multi-stage architectures.
    pub interposer_bus_resistance: Ohms,
    /// Sheet resistance of the die + interposer 1 V distribution grid
    /// (per square) used by the current-sharing mesh.
    pub grid_sheet_resistance: Ohms,
    /// Droop (output impedance proxy) of a periphery module: converter
    /// output impedance plus the lateral escape routing from the ring
    /// into the die shadow.
    pub vr_droop_periphery: Ohms,
    /// Droop of an under-die module: converter output impedance plus the
    /// short vertical attach (Cu pads), an order of magnitude lower —
    /// which is exactly why A2's modules localize onto the hotspot.
    pub vr_droop_below_die: Ohms,
    /// Mesh resolution per side for the current-sharing solve.
    pub grid_nodes_per_side: usize,
    /// Die power map used for current sharing.
    pub power_map: PowerMap,
}

impl Calibration {
    /// Validates every free parameter, returning the first violation as
    /// a typed [`CoreError::InvalidSpec`] naming the field. Resistances
    /// must be positive and finite (a negative sheet resistance would
    /// previously flow silently into the mesh stamp and produce an
    /// indefinite system), the mesh needs at least 2 nodes per side,
    /// and the power map's shape parameters must lie in range.
    pub fn validate(&self) -> Result<(), CoreError> {
        let positive = |what: &'static str, r: Ohms| {
            if r.value().is_finite() && r.value() > 0.0 {
                Ok(())
            } else {
                Err(CoreError::InvalidSpec {
                    what,
                    value: r.value(),
                })
            }
        };
        positive("horizontal POL resistance", self.horizontal_pol_resistance)?;
        positive("horizontal HV resistance", self.horizontal_hv_resistance)?;
        positive("interposer bus resistance", self.interposer_bus_resistance)?;
        positive("grid sheet resistance", self.grid_sheet_resistance)?;
        positive("periphery VR droop", self.vr_droop_periphery)?;
        positive("below-die VR droop", self.vr_droop_below_die)?;
        if self.grid_nodes_per_side < 2 {
            return Err(CoreError::InvalidSpec {
                what: "grid nodes per side",
                value: self.grid_nodes_per_side as f64,
            });
        }
        self.power_map.validate()
    }

    /// The documented paper calibration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            // Tuned so A0 lands at ≈42% of 1 kW (over 40%, Fig. 7).
            horizontal_pol_resistance: Ohms::from_microohms(280.0),
            // A 48 V lateral feed dissipating ~6 W at ~25 A.
            horizontal_hv_resistance: Ohms::from_milliohms(10.0),
            // Sized so the 12 V bus loses ~9 W at ~90 A and the 6 V bus
            // ~35 W at ~180 A, reproducing the 19x / 7x reductions.
            interposer_bus_resistance: Ohms::from_milliohms(1.15),
            // Thick-metal RDL + on-die grid in parallel.
            grid_sheet_resistance: Ohms::from_milliohms(0.30),
            // Periphery modules feed through ring escape routing...
            vr_droop_periphery: Ohms::from_milliohms(1.2),
            // ...while under-die modules attach vertically through pads.
            vr_droop_below_die: Ohms::from_microohms(60.0),
            grid_nodes_per_side: 25,
            power_map: PowerMap::paper_hotspot(),
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_default() {
        assert_eq!(Calibration::default(), Calibration::paper_default());
    }

    #[test]
    fn a0_horizontal_anchor() {
        // 1 kA² × 280 µΩ = 280 W — the dominant A0 loss component.
        let c = Calibration::paper_default();
        let loss = vpd_units::Amps::from_kiloamps(1.0).dissipation_in(c.horizontal_pol_resistance);
        assert!((loss.value() - 280.0).abs() < 1e-9);
    }

    #[test]
    fn bus_resistance_reproduces_19x_and_7x_scale() {
        let c = Calibration::paper_default();
        // 12 V bus at ~90 A and 6 V bus at ~180 A over the same lateral
        // path, plus the common 48 V feed at ~26 A.
        let hv = vpd_units::Amps::new(26.0).dissipation_in(c.horizontal_hv_resistance);
        let l12 = vpd_units::Amps::new(90.0).dissipation_in(c.interposer_bus_resistance);
        let l6 = vpd_units::Amps::new(180.0).dissipation_in(c.interposer_bus_resistance);
        let a0 = 280.0;
        let r12 = a0 / (hv.value() + l12.value());
        let r6 = a0 / (hv.value() + l6.value());
        assert!((15.0..24.0).contains(&r12), "12 V reduction {r12:.1}x");
        assert!((5.5..9.0).contains(&r6), "6 V reduction {r6:.1}x");
    }
}
