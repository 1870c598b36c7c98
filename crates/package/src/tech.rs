//! Vertical-interconnect technologies: Table I of the paper, as typed
//! constants, plus the derived per-via quantities.

use vpd_units::{Amps, CurrentDensity, Meters, Ohms, Resistivity, SquareMeters};

use crate::error::PackageError;

/// Conductor material of a via, with its resistivity and
/// electromigration (EM) current-density limit.
///
/// The EM limits are the crate's calibration for the paper's utilization
/// claims (§IV): solder interconnect is limited to ~1×10³ A/cm² and
/// copper to ~8×10³ A/cm², consistent with packaging-reliability
/// literature. With exactly these two limits, the paper's "1% of BGAs,
/// 2% of C4s, 10% of TSVs, <20% of Cu pads" and the 1,200 mm² reference
/// die all reproduce (see `vpd-bench --bin claims`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViaMaterial {
    /// SAC-class solder (BGA balls, C4 bumps, µ-bumps).
    Solder,
    /// Copper (TSVs, Cu–Cu direct-bond pads).
    Copper,
}

impl ViaMaterial {
    /// Bulk resistivity.
    #[must_use]
    pub const fn resistivity(self) -> Resistivity {
        match self {
            Self::Solder => Resistivity::SOLDER,
            Self::Copper => Resistivity::COPPER,
        }
    }

    /// Electromigration current-density limit.
    #[must_use]
    pub const fn em_limit(self) -> CurrentDensity {
        match self {
            // 1×10³ A/cm² = 10 A/mm²
            Self::Solder => CurrentDensity::from_amps_per_square_millimeter(10.0),
            // 8×10³ A/cm² = 80 A/mm²
            Self::Copper => CurrentDensity::from_amps_per_square_millimeter(80.0),
        }
    }
}

impl std::fmt::Display for ViaMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Solder => write!(f, "solder"),
            Self::Copper => write!(f, "Cu"),
        }
    }
}

/// One vertical-interconnect technology — a row of the paper's Table I.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InterconnectTech {
    /// Short name (`"BGA"`, `"C4"`, ...).
    pub name: &'static str,
    /// Packaging level this technology connects.
    pub packaging_level: &'static str,
    /// Conductor material.
    pub material: ViaMaterial,
    /// Ball/bump/via diameter, if circular (Cu pads are quoted by area
    /// only in Table I).
    pub diameter: Option<Meters>,
    /// Conducting cross-sectional area per via.
    pub cross_section: SquareMeters,
    /// Via height (current path length).
    pub height: Meters,
    /// Array pitch.
    pub pitch: Meters,
    /// Platform area available at this level in the paper's reference
    /// system.
    pub default_platform_area: SquareMeters,
    /// Fraction of sites that power delivery may occupy (the paper caps
    /// BGAs at 60% and C4s at 85%; other levels are uncapped).
    pub power_site_cap: f64,
}

impl InterconnectTech {
    /// Table I row 1: solder ball-grid array at the PCB/package boundary.
    pub const BGA: Self = Self {
        name: "BGA",
        packaging_level: "PCB/PKG",
        material: ViaMaterial::Solder,
        diameter: Some(Meters::from_micrometers(400.0)),
        cross_section: SquareMeters::from_square_micrometers(125_664.0),
        height: Meters::from_micrometers(300.0),
        pitch: Meters::from_micrometers(800.0),
        default_platform_area: SquareMeters::from_square_millimeters(1800.0),
        power_site_cap: 0.60,
    };

    /// Table I row 2: C4 solder bumps at the package/interposer boundary.
    pub const C4: Self = Self {
        name: "C4",
        packaging_level: "PKG/Interposer",
        material: ViaMaterial::Solder,
        diameter: Some(Meters::from_micrometers(100.0)),
        cross_section: SquareMeters::from_square_micrometers(7854.0),
        height: Meters::from_micrometers(70.0),
        pitch: Meters::from_micrometers(200.0),
        default_platform_area: SquareMeters::from_square_millimeters(1200.0),
        power_site_cap: 0.85,
    };

    /// Table I row 3: copper through-silicon vias through the interposer.
    pub const TSV: Self = Self {
        name: "TSV",
        packaging_level: "Through-Interposer",
        material: ViaMaterial::Copper,
        diameter: Some(Meters::from_micrometers(5.0)),
        cross_section: SquareMeters::from_square_micrometers(20.0),
        height: Meters::from_micrometers(50.0),
        pitch: Meters::from_micrometers(10.0),
        default_platform_area: SquareMeters::from_square_millimeters(1200.0),
        power_site_cap: 1.0,
    };

    /// Table I row 4: solder µ-bumps at the interposer/die boundary.
    pub const MICRO_BUMP: Self = Self {
        name: "µ-bump",
        packaging_level: "Interposer/Die",
        material: ViaMaterial::Solder,
        diameter: Some(Meters::from_micrometers(30.0)),
        cross_section: SquareMeters::from_square_micrometers(707.0),
        height: Meters::from_micrometers(25.0),
        pitch: Meters::from_micrometers(60.0),
        default_platform_area: SquareMeters::from_square_millimeters(500.0),
        power_site_cap: 1.0,
    };

    /// Table I row 5: advanced Cu–Cu direct-bond pads at the
    /// interposer/die boundary.
    pub const CU_PAD: Self = Self {
        name: "Cu pad",
        packaging_level: "Interposer/Die",
        material: ViaMaterial::Copper,
        diameter: None,
        cross_section: SquareMeters::from_square_micrometers(100.0),
        height: Meters::from_micrometers(10.0),
        pitch: Meters::from_micrometers(20.0),
        default_platform_area: SquareMeters::from_square_millimeters(500.0),
        power_site_cap: 1.0,
    };

    /// All five Table I technologies, top of the stack first.
    #[must_use]
    pub const fn table_i() -> [Self; 5] {
        [
            Self::BGA,
            Self::C4,
            Self::TSV,
            Self::MICRO_BUMP,
            Self::CU_PAD,
        ]
    }

    /// Single-via resistance `ρ·h/A`.
    #[must_use]
    pub fn via_resistance(&self) -> Ohms {
        self.material
            .resistivity()
            .wire_resistance(self.height, self.cross_section)
    }

    /// Electromigration-limited maximum current per via.
    #[must_use]
    pub fn max_current_per_via(&self) -> Amps {
        self.material.em_limit() * self.cross_section
    }

    /// Number of array sites available in `platform` at this pitch.
    ///
    /// A non-positive or non-finite `platform` silently yields 0 sites
    /// here (the `as usize` clamp); validating callers such as the
    /// scenario compiler should prefer [`Self::checked_sites_in`],
    /// which surfaces the rejected field by name instead.
    #[must_use]
    pub fn sites_in(&self, platform: SquareMeters) -> usize {
        (platform.value() / (self.pitch.value() * self.pitch.value())) as usize
    }

    /// Like [`Self::sites_in`], but rejects a non-positive or
    /// non-finite platform area (which the raw cast would silently
    /// clamp to 0 sites) with a typed error naming the field.
    pub fn checked_sites_in(&self, platform: SquareMeters) -> Result<usize, PackageError> {
        if !(platform.value().is_finite() && platform.value() > 0.0) {
            return Err(PackageError::InvalidGeometry {
                tech: self.name,
                field: "platform area",
                value: platform.value(),
            });
        }
        Ok(self.sites_in(platform))
    }

    /// Validates the technology's geometry, returning `self` on
    /// success. Every field that feeds a division or an `as usize`
    /// cast (pitch, height, cross-section, platform area, site cap) is
    /// checked so user-supplied technology tables fail loudly, with
    /// the offending field named, instead of yielding 0-site stacks or
    /// infinite via resistances downstream.
    pub fn validated(self) -> Result<Self, PackageError> {
        let geometry = |field: &'static str, value: f64| PackageError::InvalidGeometry {
            tech: self.name,
            field,
            value,
        };
        let positive = |field: &'static str, value: f64| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(geometry(field, value))
            }
        };
        positive("pitch", self.pitch.value())?;
        positive("height", self.height.value())?;
        positive("cross-section", self.cross_section.value())?;
        positive("platform area", self.default_platform_area.value())?;
        if let Some(d) = self.diameter {
            positive("diameter", d.value())?;
        }
        if !(self.power_site_cap.is_finite()
            && self.power_site_cap > 0.0
            && self.power_site_cap <= 1.0)
        {
            return Err(PackageError::InvalidCap {
                value: self.power_site_cap,
            });
        }
        Ok(self)
    }

    /// Number of sites in the technology's default platform.
    #[must_use]
    pub fn default_sites(&self) -> usize {
        self.sites_in(self.default_platform_area)
    }
}

impl std::fmt::Display for InterconnectTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name, self.packaging_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I derived values, checked against hand calculations.
    #[test]
    fn via_resistances_match_hand_calcs() {
        assert!((InterconnectTech::BGA.via_resistance().as_milliohms() - 0.310).abs() < 0.01);
        assert!((InterconnectTech::C4.via_resistance().as_milliohms() - 1.159).abs() < 0.01);
        assert!((InterconnectTech::TSV.via_resistance().as_milliohms() - 42.0).abs() < 0.1);
        assert!((InterconnectTech::MICRO_BUMP.via_resistance().as_milliohms() - 4.60).abs() < 0.03);
        assert!((InterconnectTech::CU_PAD.via_resistance().as_milliohms() - 1.68).abs() < 0.01);
    }

    #[test]
    fn site_counts_match_platform_over_pitch_squared() {
        assert_eq!(InterconnectTech::BGA.default_sites(), 2812);
        assert_eq!(InterconnectTech::C4.default_sites(), 30_000);
        assert_eq!(InterconnectTech::TSV.default_sites(), 12_000_000);
        assert_eq!(InterconnectTech::MICRO_BUMP.default_sites(), 138_888);
        assert_eq!(InterconnectTech::CU_PAD.default_sites(), 1_250_000);
    }

    #[test]
    fn em_limited_currents() {
        // Solder: 10 A/mm²; BGA cross-section 0.1257 mm² → ~1.26 A.
        let bga = InterconnectTech::BGA.max_current_per_via();
        assert!((bga.value() - 1.257).abs() < 0.01);
        // Cu pad: 80 A/mm² × 1e-4 mm² → 8 mA.
        let pad = InterconnectTech::CU_PAD.max_current_per_via();
        assert!((pad.value() - 8e-3).abs() < 1e-5);
        // TSV: 80 A/mm² × 2e-5 mm² → 1.6 mA.
        let tsv = InterconnectTech::TSV.max_current_per_via();
        assert!((tsv.value() - 1.6e-3).abs() < 1e-6);
    }

    #[test]
    fn table_i_is_ordered_top_down() {
        let levels: Vec<&str> = InterconnectTech::table_i()
            .iter()
            .map(|t| t.packaging_level)
            .collect();
        assert_eq!(
            levels,
            [
                "PCB/PKG",
                "PKG/Interposer",
                "Through-Interposer",
                "Interposer/Die",
                "Interposer/Die"
            ]
        );
    }

    #[test]
    fn caps_match_paper() {
        assert_eq!(InterconnectTech::BGA.power_site_cap, 0.60);
        assert_eq!(InterconnectTech::C4.power_site_cap, 0.85);
        assert_eq!(InterconnectTech::TSV.power_site_cap, 1.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(InterconnectTech::BGA.to_string(), "BGA (PCB/PKG)");
        assert_eq!(ViaMaterial::Copper.to_string(), "Cu");
    }
}
