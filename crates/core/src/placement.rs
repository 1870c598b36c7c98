//! Voltage-regulator placement: how many modules, and where.
//!
//! The paper's §II places regulators either **along the die periphery**
//! (architectures A1 and the first stage of A3) or **below the die**
//! (A2 and the second stage of A3), maximally vertically aligned with
//! the load. This module generates both site patterns on the sharing
//! mesh and derives module counts from geometry and current capability.

use vpd_converters::TopologyCharacteristics;
use vpd_units::{Amps, SquareMeters};

/// Where a regulator bank sits relative to the die.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VrPlacement {
    /// On the interposer, ringing the die periphery.
    Periphery,
    /// Embedded under the die shadow (in-interposer or in a power die).
    BelowDie,
}

impl std::fmt::Display for VrPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Periphery => write!(f, "periphery"),
            Self::BelowDie => write!(f, "below-die"),
        }
    }
}

/// Modules needed purely by current capability, with a safety margin.
#[must_use]
pub fn modules_required(load: Amps, max_per_module: Amps, margin: f64) -> usize {
    ((load.value() * margin.max(1.0)) / max_per_module.value()).ceil() as usize
}

/// Geometric periphery capacity: modules of `module_area` fitting
/// shoulder-to-shoulder around a square die of `die_area` (one module
/// depth, square aspect).
#[must_use]
pub fn periphery_slots(die_area: SquareMeters, module_area: SquareMeters) -> usize {
    let side = die_area.square_side().value();
    let module_width = module_area.value().sqrt();
    ((4.0 * side) / module_width).floor() as usize
}

/// Geometric below-die capacity: modules fitting in `fill_fraction` of
/// the die shadow (the paper devotes ~50% of the die area in the
/// interposer to conversion).
#[must_use]
pub fn below_die_slots(
    die_area: SquareMeters,
    module_area: SquareMeters,
    fill_fraction: f64,
) -> usize {
    ((die_area.value() * fill_fraction.clamp(0.0, 1.0)) / module_area.value()).floor() as usize
}

/// The module count an analysis uses: at least the current-capability
/// requirement, and at least the paper's Table II placement count so the
/// published figure reproduces.
#[must_use]
pub fn analysis_count(ch: &TopologyCharacteristics, placement: VrPlacement, load: Amps) -> usize {
    let paper = match placement {
        VrPlacement::Periphery => ch.vrs_along_periphery,
        VrPlacement::BelowDie => ch.vrs_below_die,
    };
    paper.max(modules_required(load, ch.max_load, 1.0))
}

/// Evenly spaced sites along the boundary ring of an `nx × ny` mesh.
///
/// Walks the ring clockwise from the top-left corner and picks `n`
/// equally spaced nodes — the discrete version of "distributed uniformly
/// along the periphery of the die" (§II).
///
/// # Panics
///
/// Panics if the mesh is smaller than 2×2 or `n == 0`.
#[must_use]
pub fn periphery_sites(n: usize, nx: usize, ny: usize) -> Vec<(usize, usize)> {
    assert!(nx >= 2 && ny >= 2, "mesh too small for a periphery ring");
    assert!(n > 0, "need at least one site");
    // Build the ring walk.
    let mut ring = Vec::new();
    for x in 0..nx {
        ring.push((x, 0));
    }
    for y in 1..ny {
        ring.push((nx - 1, y));
    }
    for x in (0..nx - 1).rev() {
        ring.push((x, ny - 1));
    }
    for y in (1..ny - 1).rev() {
        ring.push((0, y));
    }
    let len = ring.len();
    (0..n).map(|k| ring[(k * len) / n]).collect()
}

/// A near-square `r × c` pattern of `n` sites across the die shadow —
/// the "uniformly distributed below the die" placement of §II.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn below_die_sites(n: usize, nx: usize, ny: usize) -> Vec<(usize, usize)> {
    assert!(n > 0, "need at least one site");
    let rows = (n as f64).sqrt().floor().max(1.0) as usize;
    let cols = n.div_ceil(rows);
    let mut sites = Vec::with_capacity(n);
    'outer: for j in 0..rows {
        for i in 0..cols {
            if sites.len() == n {
                break 'outer;
            }
            let x = ((i as f64 + 0.5) * nx as f64 / cols as f64) as usize;
            let y = ((j as f64 + 0.5) * ny as f64 / rows as f64) as usize;
            sites.push((x.min(nx - 1), y.min(ny - 1)));
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_converters::VrTopologyKind;

    fn die() -> SquareMeters {
        SquareMeters::from_square_millimeters(500.0)
    }

    #[test]
    fn modules_required_rounds_up() {
        assert_eq!(
            modules_required(Amps::new(1000.0), Amps::new(100.0), 1.0),
            10
        );
        assert_eq!(
            modules_required(Amps::new(1000.0), Amps::new(30.0), 1.0),
            34
        );
        assert_eq!(
            modules_required(Amps::new(1000.0), Amps::new(100.0), 1.25),
            13
        );
    }

    #[test]
    fn geometric_slots_scale_with_module_size() {
        let dpmih = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        let dsch = TopologyCharacteristics::table_ii(VrTopologyKind::Dsch);
        // Smaller modules → more slots, both on the ring and below.
        assert!(
            periphery_slots(die(), dsch.module_area())
                > periphery_slots(die(), dpmih.module_area())
        );
        assert!(
            below_die_slots(die(), dsch.module_area(), 0.5)
                > below_die_slots(die(), dpmih.module_area(), 0.5)
        );
        // Sanity magnitudes for the 500 mm² die.
        assert_eq!(periphery_slots(die(), dpmih.module_area()), 12);
        assert_eq!(below_die_slots(die(), dpmih.module_area(), 0.5), 4);
        assert_eq!(below_die_slots(die(), dsch.module_area(), 0.5), 34);
    }

    #[test]
    fn analysis_count_takes_max_of_paper_and_required() {
        let dpmih = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        // Paper says 8 along the periphery, but 1 kA needs 10 modules.
        assert_eq!(
            analysis_count(&dpmih, VrPlacement::Periphery, Amps::new(1000.0)),
            10
        );
        // At a light load the paper count dominates.
        assert_eq!(
            analysis_count(&dpmih, VrPlacement::Periphery, Amps::new(100.0)),
            8
        );
        let dsch = TopologyCharacteristics::table_ii(VrTopologyKind::Dsch);
        assert_eq!(
            analysis_count(&dsch, VrPlacement::BelowDie, Amps::new(1000.0)),
            48
        );
    }

    #[test]
    fn periphery_sites_lie_on_boundary_and_are_distinct() {
        let sites = periphery_sites(48, 25, 25);
        assert_eq!(sites.len(), 48);
        for &(x, y) in &sites {
            assert!(
                x == 0 || y == 0 || x == 24 || y == 24,
                "({x},{y}) not on ring"
            );
        }
        let unique: std::collections::HashSet<_> = sites.iter().collect();
        assert_eq!(unique.len(), 48);
    }

    #[test]
    fn below_die_sites_cover_interior() {
        let sites = below_die_sites(48, 25, 25);
        assert_eq!(sites.len(), 48);
        // Spread across all four quadrants.
        let quadrants: std::collections::HashSet<(bool, bool)> =
            sites.iter().map(|&(x, y)| (x < 12, y < 12)).collect();
        assert_eq!(quadrants.len(), 4);
    }

    #[test]
    fn single_site_patterns() {
        assert_eq!(periphery_sites(1, 5, 5).len(), 1);
        let below = below_die_sites(1, 5, 5);
        assert_eq!(below, vec![(2, 2)]);
    }

    #[test]
    fn placement_display() {
        assert_eq!(VrPlacement::Periphery.to_string(), "periphery");
        assert_eq!(VrPlacement::BelowDie.to_string(), "below-die");
    }
}
