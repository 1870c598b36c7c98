//! Literature survey datasets behind the paper's Figures 1 and 2.
//!
//! Figure 1 plots power and current-density demand for state-of-the-art
//! HPC chips and server systems (refs \[1\]–\[3\]); Figure 2 plots the
//! current-demand trend (Intel power-density data × a 200 mm² die)
//! against the packaging-feature trend (\[12\]). Both are literature
//! data; the values embedded here are the cited public numbers, and the
//! derived series (current demand, PPDN-resistance trend) are recomputed
//! by this module.

use vpd_units::{Amps, CurrentDensity, SquareMeters, Watts};

/// Chip or system-level data point for Figure 1.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HpcDataPoint {
    /// Product name.
    pub name: &'static str,
    /// Introduction year.
    pub year: u32,
    /// Whether this is an individual chip or a server system.
    pub kind: HpcKind,
    /// Rated power.
    pub power: Watts,
    /// Die area (chips) or aggregate silicon area (systems).
    pub silicon_area: SquareMeters,
    /// Published or estimated delivery efficiency (fraction), shown as
    /// the point size in Figure 1.
    pub delivery_efficiency: f64,
}

/// Category of a Figure 1 data point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HpcKind {
    /// Individual accelerator chip.
    Chip,
    /// Server / pod / tile system.
    Server,
}

impl HpcDataPoint {
    /// Die-level current density at ~1 V POL: `P / (V · A)`.
    #[must_use]
    pub fn current_density(&self) -> CurrentDensity {
        let i = Amps::new(self.power.value() / 1.0);
        i / self.silicon_area
    }
}

/// The Figure 1 dataset: accelerators approaching 1 kW per chip and
/// ~20 kW per system (refs \[1\]–\[3\] and vendor datasheets).
#[must_use]
pub fn figure1_dataset() -> Vec<HpcDataPoint> {
    use HpcKind::{Chip, Server};
    let mm2 = SquareMeters::from_square_millimeters;
    vec![
        HpcDataPoint {
            name: "NVIDIA V100",
            year: 2017,
            kind: Chip,
            power: Watts::new(300.0),
            silicon_area: mm2(815.0),
            delivery_efficiency: 0.82,
        },
        HpcDataPoint {
            name: "TPU v3",
            year: 2018,
            kind: Chip,
            power: Watts::new(450.0),
            silicon_area: mm2(700.0),
            delivery_efficiency: 0.80,
        },
        HpcDataPoint {
            name: "NVIDIA A100",
            year: 2020,
            kind: Chip,
            power: Watts::new(400.0),
            silicon_area: mm2(826.0),
            delivery_efficiency: 0.80,
        },
        HpcDataPoint {
            name: "Tesla Dojo D1",
            year: 2021,
            kind: Chip,
            power: Watts::new(400.0),
            silicon_area: mm2(645.0),
            delivery_efficiency: 0.70,
        },
        HpcDataPoint {
            name: "AMD MI250X",
            year: 2021,
            kind: Chip,
            power: Watts::new(560.0),
            silicon_area: mm2(1460.0),
            delivery_efficiency: 0.78,
        },
        HpcDataPoint {
            name: "NVIDIA H100",
            year: 2022,
            kind: Chip,
            power: Watts::new(700.0),
            silicon_area: mm2(814.0),
            delivery_efficiency: 0.76,
        },
        HpcDataPoint {
            name: "Intel Ponte Vecchio",
            year: 2022,
            kind: Chip,
            power: Watts::new(600.0),
            silicon_area: mm2(1280.0),
            delivery_efficiency: 0.78,
        },
        HpcDataPoint {
            name: "DGX A100",
            year: 2020,
            kind: Server,
            power: Watts::from_kilowatts(6.5),
            silicon_area: mm2(8.0 * 826.0),
            delivery_efficiency: 0.78,
        },
        HpcDataPoint {
            name: "Tesla Dojo tile",
            year: 2021,
            kind: Server,
            power: Watts::from_kilowatts(15.0),
            silicon_area: mm2(25.0 * 645.0),
            delivery_efficiency: 0.70,
        },
        HpcDataPoint {
            name: "Cerebras CS-2",
            year: 2021,
            kind: Server,
            power: Watts::from_kilowatts(23.0),
            silicon_area: mm2(46_225.0),
            delivery_efficiency: 0.75,
        },
        HpcDataPoint {
            name: "DGX H100",
            year: 2022,
            kind: Server,
            power: Watts::from_kilowatts(10.2),
            silicon_area: mm2(8.0 * 814.0),
            delivery_efficiency: 0.76,
        },
    ]
}

/// One year of the Figure 2 trend.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TrendPoint {
    /// Year.
    pub year: u32,
    /// Die power density (W/cm², Intel trend).
    pub power_density_w_per_cm2: f64,
    /// Representative solder-interconnect pitch (µm, from \[12\]).
    pub packaging_pitch_um: f64,
}

impl TrendPoint {
    /// Current demand of a typical 200 mm² die at ~1 V:
    /// `J_P · 2 cm² / 1 V`.
    #[must_use]
    pub fn current_demand(&self) -> Amps {
        Amps::new(self.power_density_w_per_cm2 * 2.0)
    }

    /// Relative PPDN resistance: vias per area scale with `1/pitch²`
    /// and the per-via resistance is pitch-independent to first order,
    /// so `R ∝ pitch²` (normalized to the 1970 value).
    #[must_use]
    pub fn relative_ppdn_resistance(&self, baseline: &TrendPoint) -> f64 {
        (self.packaging_pitch_um / baseline.packaging_pitch_um).powi(2)
    }
}

/// The Figure 2 trend dataset (five decades).
#[must_use]
pub fn figure2_trend() -> Vec<TrendPoint> {
    vec![
        TrendPoint {
            year: 1970,
            power_density_w_per_cm2: 0.2,
            packaging_pitch_um: 800.0,
        },
        TrendPoint {
            year: 1980,
            power_density_w_per_cm2: 1.0,
            packaging_pitch_um: 650.0,
        },
        TrendPoint {
            year: 1990,
            power_density_w_per_cm2: 5.0,
            packaging_pitch_um: 500.0,
        },
        TrendPoint {
            year: 2000,
            power_density_w_per_cm2: 25.0,
            packaging_pitch_um: 350.0,
        },
        TrendPoint {
            year: 2010,
            power_density_w_per_cm2: 60.0,
            packaging_pitch_um: 250.0,
        },
        TrendPoint {
            year: 2020,
            power_density_w_per_cm2: 100.0,
            packaging_pitch_um: 200.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chips_approach_a_kilowatt_and_servers_20_kw() {
        let data = figure1_dataset();
        let max_chip = data
            .iter()
            .filter(|p| p.kind == HpcKind::Chip)
            .map(|p| p.power.value())
            .fold(0.0, f64::max);
        let max_server = data
            .iter()
            .filter(|p| p.kind == HpcKind::Server)
            .map(|p| p.power.value())
            .fold(0.0, f64::max);
        assert!((500.0..1000.0).contains(&max_chip));
        assert!((15_000.0..25_000.0).contains(&max_server));
    }

    #[test]
    fn current_density_approaches_one_amp_per_mm2() {
        // Figure 1's observation: modern accelerators approach 1 A/mm².
        let data = figure1_dataset();
        let max_density = data
            .iter()
            .filter(|p| p.kind == HpcKind::Chip)
            .map(|p| p.current_density().as_amps_per_square_millimeter())
            .fold(0.0, f64::max);
        assert!((0.6..1.2).contains(&max_density), "{max_density:.2}");
    }

    #[test]
    fn efficiency_degrades_with_density() {
        // Dojo (highest-density chip in the set) has the worst delivery
        // efficiency — the >30% loss the paper cites.
        let data = figure1_dataset();
        let dojo = data.iter().find(|p| p.name == "Tesla Dojo D1").unwrap();
        assert!(dojo.delivery_efficiency <= 0.70 + 1e-9);
    }

    #[test]
    fn trend_current_grows_orders_of_magnitude_feature_only_4x() {
        // The paper's Figure 2 argument.
        let trend = figure2_trend();
        let first = trend.first().unwrap();
        let last = trend.last().unwrap();
        let current_growth = last.current_demand() / first.current_demand();
        let feature_shrink = first.packaging_pitch_um / last.packaging_pitch_um;
        assert!(current_growth > 100.0, "current grew {current_growth:.0}x");
        assert!(
            (3.0..6.0).contains(&feature_shrink),
            "feature shrank {feature_shrink:.1}x"
        );
    }

    #[test]
    fn ppdn_loss_trend_explodes() {
        // I² grows far faster than R shrinks: the I²R trend across the
        // dataset grows by >10,000x.
        let trend = figure2_trend();
        let first = &trend[0];
        let last = trend.last().unwrap();
        let i_ratio = last.current_demand() / first.current_demand();
        let r_ratio = last.relative_ppdn_resistance(first);
        let loss_growth = i_ratio * i_ratio * r_ratio;
        assert!(loss_growth > 1e4, "loss grew {loss_growth:.0}x");
    }

    #[test]
    fn years_are_sorted() {
        let trend = figure2_trend();
        assert!(trend.windows(2).all(|w| w[0].year < w[1].year));
    }
}
