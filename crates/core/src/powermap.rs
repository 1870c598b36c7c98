//! Die power maps: how the POL current is distributed over the die.
//!
//! The paper's per-VR load spreads (16–27 A at the periphery in A1,
//! 10–93 A under the die in A2) imply a strongly non-uniform die power
//! map — as real accelerators have: compute clusters run hot while SRAM
//! and I/O regions draw far less. The default map is a centered Gaussian
//! hotspot calibrated to reproduce both published spreads at once.

use vpd_units::Amps;

use crate::CoreError;

/// A spatial current-draw profile over the die.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum PowerMap {
    /// Every node draws the same current.
    Uniform,
    /// A Gaussian hotspot centered at (`cx`, `cy`) in normalized die
    /// coordinates, with standard deviation `sigma` (fraction of the die
    /// side) on top of a uniform floor. `floor` is the fraction of the
    /// total current drawn uniformly; the remaining `1 − floor`
    /// concentrates in the hotspot.
    GaussianHotspot {
        /// Hotspot center x in `[0, 1]`.
        cx: f64,
        /// Hotspot center y in `[0, 1]`.
        cy: f64,
        /// Gaussian sigma as a fraction of the die side.
        sigma: f64,
        /// Uniform-floor fraction of the total current in `[0, 1]`.
        floor: f64,
    },
    /// Two half-die domains with an asymmetric split: `left_share` of
    /// the current in the left half (a chiplet-style map).
    SplitHalves {
        /// Fraction of total current drawn by the left half in `[0, 1]`.
        left_share: f64,
    },
}

impl PowerMap {
    /// The calibrated map reproducing the paper's A1 and A2 per-VR
    /// spreads: a centered hotspot holding ~68% of the power within
    /// σ = 0.09 of the die side (a compute cluster running hot over a
    /// cooler SRAM/IO floor).
    #[must_use]
    pub fn paper_hotspot() -> Self {
        Self::GaussianHotspot {
            cx: 0.5,
            cy: 0.5,
            sigma: 0.09,
            floor: 0.32,
        }
    }

    /// Validates the map's shape parameters, naming the offending field
    /// in a typed [`CoreError::InvalidSpec`]. Hotspot centers and
    /// fractional shares must lie in `[0, 1]` and `sigma` must be
    /// positive and finite — out-of-range values would previously feed
    /// NaN or all-zero weights into the renormalization.
    pub fn validate(&self) -> Result<(), CoreError> {
        let unit = |what: &'static str, value: f64| {
            if value.is_finite() && (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(CoreError::InvalidSpec { what, value })
            }
        };
        match *self {
            Self::Uniform => Ok(()),
            Self::GaussianHotspot {
                cx,
                cy,
                sigma,
                floor,
            } => {
                unit("hotspot center x", cx)?;
                unit("hotspot center y", cy)?;
                unit("hotspot floor fraction", floor)?;
                if sigma.is_finite() && sigma > 0.0 {
                    Ok(())
                } else {
                    Err(CoreError::InvalidSpec {
                        what: "hotspot sigma",
                        value: sigma,
                    })
                }
            }
            Self::SplitHalves { left_share } => unit("left-half share", left_share),
        }
    }

    /// Per-node currents for an `nx × ny` grid summing exactly to
    /// `total`.
    ///
    /// The profile is evaluated at node centers and renormalized, so the
    /// sum is exact regardless of discretization.
    #[must_use]
    pub fn node_currents(&self, nx: usize, ny: usize, total: Amps) -> Vec<Vec<Amps>> {
        let mut weights = vec![vec![0.0_f64; nx]; ny];
        let mut sum = 0.0;
        for (y, row) in weights.iter_mut().enumerate() {
            for (x, w) in row.iter_mut().enumerate() {
                let u = (x as f64 + 0.5) / nx as f64;
                let v = (y as f64 + 0.5) / ny as f64;
                *w = self.weight(u, v);
                sum += *w;
            }
        }
        weights
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|w| total * (w / sum))
                    .collect::<Vec<Amps>>()
            })
            .collect()
    }

    /// Unnormalized profile weight at normalized coordinates
    /// `(u, v) ∈ [0, 1]²`.
    #[must_use]
    pub fn weight(&self, u: f64, v: f64) -> f64 {
        match *self {
            Self::Uniform => 1.0,
            Self::GaussianHotspot {
                cx,
                cy,
                sigma,
                floor,
            } => {
                let d2 = (u - cx) * (u - cx) + (v - cy) * (v - cy);
                let gauss = (-d2 / (2.0 * sigma * sigma)).exp();
                // Normalize the Gaussian's integral over the unit square
                // approximately so `floor` keeps its meaning.
                let gauss_mass = 2.0 * std::f64::consts::PI * sigma * sigma;
                floor + (1.0 - floor) * gauss / gauss_mass
            }
            Self::SplitHalves { left_share } => {
                if u < 0.5 {
                    2.0 * left_share
                } else {
                    2.0 * (1.0 - left_share)
                }
            }
        }
    }

    /// The time-averaged variant of this map for thermal analysis: the
    /// electrical calibration captures the instantaneous worst-case
    /// concentration (which sets per-module currents), while heat
    /// integrates over milliseconds of workload migration — a hotspot's
    /// thermal footprint is roughly twice as wide.
    #[must_use]
    pub fn thermally_averaged(&self) -> Self {
        match *self {
            Self::GaussianHotspot {
                cx,
                cy,
                sigma,
                floor,
            } => Self::GaussianHotspot {
                cx,
                cy,
                sigma: sigma * 2.0,
                floor,
            },
            other => other,
        }
    }

    /// Peak-to-mean ratio of the discretized map (1 for uniform).
    #[must_use]
    pub fn peak_to_mean(&self, nx: usize, ny: usize) -> f64 {
        let cells = self.node_currents(nx, ny, Amps::new(1.0));
        let peak = cells
            .iter()
            .flatten()
            .map(|a| a.value())
            .fold(0.0, f64::max);
        peak * (nx * ny) as f64
    }
}

impl Default for PowerMap {
    fn default() -> Self {
        Self::paper_hotspot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_splits_evenly() {
        let cells = PowerMap::Uniform.node_currents(4, 4, Amps::new(16.0));
        for row in &cells {
            for c in row {
                assert!((c.value() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hotspot_concentrates_in_center() {
        let map = PowerMap::paper_hotspot();
        let cells = map.node_currents(9, 9, Amps::new(81.0));
        let center = cells[4][4].value();
        let corner = cells[0][0].value();
        assert!(
            center > 3.0 * corner,
            "center {center:.2} vs corner {corner:.2}"
        );
    }

    #[test]
    fn paper_hotspot_peak_to_mean_band() {
        // The A2 spread (max 93 A over a 20.8 A mean) needs a strong
        // local peak: the grid and VR-cell averaging smooth a ~13x node
        // peak down to the ~4.5x module peak the paper reports.
        let ratio = PowerMap::paper_hotspot().peak_to_mean(25, 25);
        assert!((8.0..20.0).contains(&ratio), "peak/mean = {ratio:.2}");
    }

    #[test]
    fn split_halves_ratio() {
        let cells = PowerMap::SplitHalves { left_share: 0.75 }.node_currents(4, 2, Amps::new(8.0));
        let left: f64 = cells.iter().map(|r| r[0].value() + r[1].value()).sum();
        assert!((left - 6.0).abs() < 1e-9);
    }

    proptest! {
        /// Discretized maps always conserve the total current.
        #[test]
        fn prop_total_conserved(
            nx in 2_usize..20,
            ny in 2_usize..20,
            total in 1.0_f64..2000.0,
            sigma in 0.05_f64..0.5,
            floor in 0.0_f64..1.0,
        ) {
            let maps = [
                PowerMap::Uniform,
                PowerMap::GaussianHotspot { cx: 0.5, cy: 0.5, sigma, floor },
                PowerMap::SplitHalves { left_share: floor },
            ];
            for map in maps {
                let cells = map.node_currents(nx, ny, Amps::new(total));
                let sum: f64 = cells.iter().flatten().map(|a| a.value()).sum();
                prop_assert!((sum - total).abs() < 1e-6 * total.max(1.0));
                // And no negative draws.
                prop_assert!(cells.iter().flatten().all(|a| a.value() >= 0.0));
            }
        }
    }
}
