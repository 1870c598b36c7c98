//! The paper's Table II: characteristics of the three state-of-the-art
//! compact 48 V-to-1 V converters, as typed data.

use vpd_units::{Amps, Efficiency, Farads, Henries, SquareMeters};

/// The three reviewed hybrid topologies (§III).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VrTopologyKind {
    /// Dual-phase multi-inductor hybrid (\[9\], Das & Le) — SC-derived,
    /// soft-switching, highest current capability, largest footprint.
    Dpmih,
    /// Double series-capacitor hybrid (\[8\], Kirshenboim & Peretz) —
    /// buck-derived with an SC front, compact, best at moderate ratios.
    Dsch,
    /// Three-level hybrid Dickson (\[10\], Gong et al.) — Dickson SC front
    /// with a 10× internal step-down relaxing the on-time constraint.
    ThreeLevelHybridDickson,
}

impl VrTopologyKind {
    /// All reviewed topologies in Table II column order.
    pub const ALL: [Self; 3] = [Self::Dpmih, Self::Dsch, Self::ThreeLevelHybridDickson];

    /// Short display name as used in the paper.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Dpmih => "DPMIH",
            Self::Dsch => "DSCH",
            Self::ThreeLevelHybridDickson => "3LHD",
        }
    }
}

impl std::fmt::Display for VrTopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One column of Table II.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TopologyCharacteristics {
    /// Which topology.
    pub kind: VrTopologyKind,
    /// Maximum load current per VR module.
    pub max_load: Amps,
    /// Peak efficiency.
    pub peak_efficiency: Efficiency,
    /// Output current at which efficiency peaks.
    pub current_at_peak: Amps,
    /// Power switches per module.
    pub switches: usize,
    /// Switch area density (switches per mm² of module area) — Table II's
    /// "number of switches per mm²".
    pub switches_per_mm2: f64,
    /// Inductors per module.
    pub inductors: usize,
    /// Total inductance per module.
    pub total_inductance: Henries,
    /// Capacitors per module.
    pub capacitors: usize,
    /// Total capacitance per module.
    pub total_capacitance: Farads,
    /// VR modules placed along the die periphery (paper's placement
    /// study for architectures A1/A3).
    pub vrs_along_periphery: usize,
    /// VR modules placed below the die (architectures A2/A3).
    pub vrs_below_die: usize,
    /// Whether the topology soft-switches its flying capacitors (DPMIH's
    /// inductor-per-capacitor trick).
    pub soft_switching: bool,
}

impl TopologyCharacteristics {
    /// Module footprint implied by Table II: switches / switch density.
    #[must_use]
    pub fn module_area(&self) -> SquareMeters {
        SquareMeters::from_square_millimeters(self.switches as f64 / self.switches_per_mm2)
    }

    /// Table II, column by column.
    ///
    /// # Panics
    ///
    /// Never panics: the embedded efficiencies are valid by
    /// construction.
    #[must_use]
    pub fn table_ii(kind: VrTopologyKind) -> Self {
        let eff = |pct: f64| Efficiency::from_percent(pct).expect("valid table constant");
        match kind {
            VrTopologyKind::Dpmih => Self {
                kind,
                max_load: Amps::new(100.0),
                peak_efficiency: eff(90.0),
                current_at_peak: Amps::new(30.0),
                switches: 8,
                switches_per_mm2: 0.15,
                inductors: 4,
                total_inductance: Henries::from_microhenries(4.0),
                capacitors: 3,
                total_capacitance: Farads::from_microfarads(15.0),
                vrs_along_periphery: 8,
                vrs_below_die: 7,
                soft_switching: true,
            },
            VrTopologyKind::Dsch => Self {
                kind,
                max_load: Amps::new(30.0),
                peak_efficiency: eff(91.5),
                current_at_peak: Amps::new(10.0),
                switches: 5,
                switches_per_mm2: 0.69,
                inductors: 2,
                total_inductance: Henries::from_microhenries(0.88),
                capacitors: 2,
                total_capacitance: Farads::from_microfarads(6.6),
                vrs_along_periphery: 48,
                vrs_below_die: 48,
                soft_switching: false,
            },
            VrTopologyKind::ThreeLevelHybridDickson => Self {
                kind,
                max_load: Amps::new(12.0),
                peak_efficiency: eff(90.4),
                current_at_peak: Amps::new(3.0),
                switches: 11,
                switches_per_mm2: 1.22,
                inductors: 3,
                total_inductance: Henries::from_microhenries(1.86),
                capacitors: 5,
                total_capacitance: Farads::from_microfarads(5.0),
                vrs_along_periphery: 48,
                vrs_below_die: 48,
                soft_switching: false,
            },
        }
    }

    /// The fraction of a 48 V switching period the main switch conducts
    /// in this topology: the buck-derived DSCH suffers the full 48:1
    /// ratio (~2%); the Dickson front of the 3LHD steps 10× down first
    /// (~20%, as §III highlights); DPMIH's dual phases each see ~4%.
    #[must_use]
    pub fn on_time_fraction(&self) -> f64 {
        match self.kind {
            VrTopologyKind::Dpmih => 2.0 / 48.0,
            VrTopologyKind::Dsch => 1.0 / 48.0 * 3.0, // SC front divides by 3 first
            VrTopologyKind::ThreeLevelHybridDickson => 10.0 / 48.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_headline_numbers() {
        let dpmih = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        assert_eq!(dpmih.max_load, Amps::new(100.0));
        assert_eq!(dpmih.switches, 8);
        assert!((dpmih.peak_efficiency.percent() - 90.0).abs() < 1e-9);

        let dsch = TopologyCharacteristics::table_ii(VrTopologyKind::Dsch);
        assert_eq!(dsch.max_load, Amps::new(30.0));
        assert_eq!(dsch.switches, 5);
        assert_eq!(dsch.vrs_along_periphery, 48);

        let tlhd = TopologyCharacteristics::table_ii(VrTopologyKind::ThreeLevelHybridDickson);
        assert_eq!(tlhd.switches, 11);
        assert_eq!(tlhd.capacitors, 5);
        assert!((tlhd.current_at_peak.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn module_areas_from_switch_density() {
        // DPMIH: 8 / 0.15 ≈ 53.3 mm²; DSCH: 5 / 0.69 ≈ 7.25 mm²;
        // 3LHD: 11 / 1.22 ≈ 9.0 mm².
        let area = |k| {
            TopologyCharacteristics::table_ii(k)
                .module_area()
                .as_square_millimeters()
        };
        assert!((area(VrTopologyKind::Dpmih) - 53.33).abs() < 0.1);
        assert!((area(VrTopologyKind::Dsch) - 7.25).abs() < 0.05);
        assert!((area(VrTopologyKind::ThreeLevelHybridDickson) - 9.02).abs() < 0.05);
    }

    #[test]
    fn paper_note_3lhd_smaller_than_dpmih_despite_more_switches() {
        // §III: "while eleven switches are used ... the area occupied by
        // all the switches is lower when compared to DPMIH".
        let dpmih = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        let tlhd = TopologyCharacteristics::table_ii(VrTopologyKind::ThreeLevelHybridDickson);
        assert!(tlhd.switches > dpmih.switches);
        assert!(tlhd.module_area().value() < dpmih.module_area().value());
    }

    #[test]
    fn on_time_hierarchy_matches_section_iii() {
        let on = |k| TopologyCharacteristics::table_ii(k).on_time_fraction();
        // 3LHD ≈ 20%, versus ~2% for a direct 48:1 buck-derived stage.
        assert!((on(VrTopologyKind::ThreeLevelHybridDickson) - 0.208).abs() < 0.01);
        assert!(on(VrTopologyKind::Dpmih) < 0.05);
        assert!(on(VrTopologyKind::ThreeLevelHybridDickson) > 4.0 * on(VrTopologyKind::Dpmih));
    }

    #[test]
    fn only_dpmih_soft_switches() {
        assert!(TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih).soft_switching);
        assert!(!TopologyCharacteristics::table_ii(VrTopologyKind::Dsch).soft_switching);
    }

    #[test]
    fn display_names() {
        assert_eq!(VrTopologyKind::Dpmih.to_string(), "DPMIH");
        assert_eq!(VrTopologyKind::ThreeLevelHybridDickson.to_string(), "3LHD");
    }
}
