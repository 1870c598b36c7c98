//! Lateral ("horizontal") interconnect models.
//!
//! The paper's loss breakdown treats the lateral PCB/package routing as
//! a lumped resistance; this module provides the standard derivations
//! behind such lumps — copper-trace resistance, radial plane spreading,
//! and multi-layer paralleling — and a representative board model that
//! grounds the calibrated `horizontal_pol_resistance` (280 µΩ) in real
//! copper geometry.

use vpd_units::{Meters, Ohms, Resistivity};

/// Resistance of a rectangular trace: `ρ·L/(w·t)`.
///
/// ```
/// use vpd_package::trace_resistance;
/// use vpd_units::{Meters, Ohms, Resistivity};
///
/// // 30 mm of 2-oz copper (70 µm), 10 mm wide: ~0.72 mΩ.
/// let r = trace_resistance(
///     Resistivity::COPPER,
///     Meters::from_millimeters(30.0),
///     Meters::from_millimeters(10.0),
///     Meters::from_micrometers(70.0),
/// );
/// assert!((r.as_milliohms() - 0.72).abs() < 0.01);
/// ```
#[must_use]
pub fn trace_resistance(
    resistivity: Resistivity,
    length: Meters,
    width: Meters,
    thickness: Meters,
) -> Ohms {
    Ohms::new(resistivity.value() * length.value() / (width.value() * thickness.value()))
}

/// Radial spreading resistance of a plane from an inner contact radius
/// to an outer collection radius: `ρ/(2π·t) · ln(r_outer/r_inner)`.
///
/// This is the classical disk-spreading result used for power planes
/// feeding a package from a via field.
///
/// # Panics
///
/// Panics if `r_outer <= r_inner` or either radius is non-positive —
/// a geometry error, not a recoverable condition.
#[must_use]
pub fn plane_spreading_resistance(
    resistivity: Resistivity,
    thickness: Meters,
    r_inner: Meters,
    r_outer: Meters,
) -> Ohms {
    assert!(
        r_inner.value() > 0.0 && r_outer.value() > r_inner.value(),
        "spreading geometry requires 0 < r_inner < r_outer"
    );
    let sheet = resistivity.value() / thickness.value();
    Ohms::new(sheet / (2.0 * std::f64::consts::PI) * (r_outer.value() / r_inner.value()).ln())
}

/// A representative lateral power path on a server board: `layers`
/// paralleled planes of `thickness` copper, spreading from the
/// converter's via field (`r_inner`) out to the package footprint
/// (`r_outer`), plus an escape-trace section.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoardLateralModel {
    /// Paralleled copper planes dedicated to this rail.
    pub layers: usize,
    /// Per-plane copper thickness.
    pub plane_thickness: Meters,
    /// Effective inner (source via-field) radius.
    pub r_inner: Meters,
    /// Effective outer (package footprint) radius.
    pub r_outer: Meters,
}

impl BoardLateralModel {
    /// A representative A0-class board: the 1 V rail of a kilowatt
    /// accelerator on two dedicated 1-oz planes (dense boards rarely
    /// spare more copper for one rail), converter bank via field ~5 mm
    /// across, package footprint ~50 mm away.
    #[must_use]
    pub fn representative_a0() -> Self {
        Self {
            layers: 2,
            plane_thickness: Meters::from_micrometers(35.0),
            r_inner: Meters::from_millimeters(5.0),
            r_outer: Meters::from_millimeters(50.0),
        }
    }

    /// Total lateral resistance: per-plane spreading, paralleled across
    /// the layers, doubled for the ground return.
    ///
    /// # Panics
    ///
    /// Panics for degenerate geometry (see
    /// [`plane_spreading_resistance`]) or zero layers.
    #[must_use]
    pub fn resistance(&self) -> Ohms {
        assert!(self.layers > 0, "at least one plane required");
        let per_plane = plane_spreading_resistance(
            Resistivity::COPPER,
            self.plane_thickness,
            self.r_inner,
            self.r_outer,
        );
        per_plane.parallel_of(self.layers) * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_board_grounds_the_calibration() {
        // The DESIGN.md §6 calibration uses 280 µΩ for the A0 lateral
        // path; the physical derivation must land in the same decade.
        let r = BoardLateralModel::representative_a0().resistance();
        let uohm = r.value() * 1e6;
        assert!(
            (90.0..900.0).contains(&uohm),
            "physical model {uohm:.0} µΩ vs calibrated 280 µΩ"
        );
    }

    #[test]
    fn spreading_grows_logarithmically() {
        let t = Meters::from_micrometers(70.0);
        let r1 = plane_spreading_resistance(
            Resistivity::COPPER,
            t,
            Meters::from_millimeters(10.0),
            Meters::from_millimeters(20.0),
        );
        let r2 = plane_spreading_resistance(
            Resistivity::COPPER,
            t,
            Meters::from_millimeters(10.0),
            Meters::from_millimeters(40.0),
        );
        // ln(4)/ln(2) = 2.
        assert!((r2.value() / r1.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_layers_less_resistance() {
        let mut model = BoardLateralModel::representative_a0();
        let two = model.resistance();
        model.layers = 4;
        let four = model.resistance();
        assert!((two.value() / four.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "spreading geometry")]
    fn degenerate_radii_panic() {
        let _ = plane_spreading_resistance(
            Resistivity::COPPER,
            Meters::from_micrometers(70.0),
            Meters::from_millimeters(20.0),
            Meters::from_millimeters(10.0),
        );
    }

    #[test]
    fn trace_formula() {
        // ρ·L/(w·t), doubled length doubles R.
        let r1 = trace_resistance(
            Resistivity::COPPER,
            Meters::from_millimeters(10.0),
            Meters::from_millimeters(5.0),
            Meters::from_micrometers(35.0),
        );
        let r2 = trace_resistance(
            Resistivity::COPPER,
            Meters::from_millimeters(20.0),
            Meters::from_millimeters(5.0),
            Meters::from_micrometers(35.0),
        );
        assert!((r2.value() / r1.value() - 2.0).abs() < 1e-12);
    }
}
