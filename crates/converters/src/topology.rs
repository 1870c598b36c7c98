//! Concrete converter instances: the Table II designs, the multi-stage
//! variants of §II, and the PCB reference converter.

use crate::{
    ConverterError, CurveAnchors, EfficiencyCurve, TopologyCharacteristics, VrTopologyKind,
};
use vpd_units::{Amps, Efficiency, SquareMeters, Volts, Watts};

/// A converter instance: a conversion pair, a fitted efficiency curve,
/// and a footprint.
///
/// ```
/// use vpd_converters::Converter;
/// use vpd_units::Amps;
///
/// # fn main() -> Result<(), vpd_converters::ConverterError> {
/// let dsch = Converter::dsch_48v_to_1v();
/// let eta = dsch.efficiency(Amps::new(10.0))?;
/// assert!((eta.percent() - 91.5).abs() < 0.01); // Table II peak point
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Converter {
    name: String,
    v_in: Volts,
    v_out: Volts,
    curve: EfficiencyCurve,
    module_area: SquareMeters,
    characteristics: Option<TopologyCharacteristics>,
}

impl Converter {
    fn from_anchors(
        name: &str,
        v_in: Volts,
        anchors: CurveAnchors,
        module_area: SquareMeters,
        characteristics: Option<TopologyCharacteristics>,
    ) -> Self {
        let curve = EfficiencyCurve::fit(anchors).expect("calibrated anchors are consistent");
        Self {
            name: name.to_owned(),
            v_in,
            v_out: anchors.v_out,
            curve,
            module_area,
            characteristics,
        }
    }

    fn eff(pct: f64) -> Efficiency {
        Efficiency::from_percent(pct).expect("calibration percentage valid")
    }

    /// DPMIH 48 V→1 V per Table II / \[9\]: 90.0% peak at 30 A, 100 A max
    /// (86% full-load estimate from the published curve shape).
    #[must_use]
    pub fn dpmih_48v_to_1v() -> Self {
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        Self::from_anchors(
            "DPMIH 48V-1V",
            Volts::new(48.0),
            CurveAnchors {
                v_out: Volts::new(1.0),
                i_peak: ch.current_at_peak,
                eta_peak: ch.peak_efficiency,
                i_max: ch.max_load,
                eta_max: Self::eff(86.0),
            },
            ch.module_area(),
            Some(ch),
        )
    }

    /// DSCH 48 V→1 V per Table II / \[8\]: 91.5% peak at 10 A, 30 A max
    /// (88% full-load estimate).
    #[must_use]
    pub fn dsch_48v_to_1v() -> Self {
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::Dsch);
        Self::from_anchors(
            "DSCH 48V-1V",
            Volts::new(48.0),
            CurveAnchors {
                v_out: Volts::new(1.0),
                i_peak: ch.current_at_peak,
                eta_peak: ch.peak_efficiency,
                i_max: ch.max_load,
                eta_max: Self::eff(88.0),
            },
            ch.module_area(),
            Some(ch),
        )
    }

    /// 3LHD 48 V→1 V per Table II / \[10\]: 90.4% peak at 3 A, 12 A max
    /// (85% full-load estimate).
    #[must_use]
    pub fn three_level_hybrid_dickson_48v_to_1v() -> Self {
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::ThreeLevelHybridDickson);
        Self::from_anchors(
            "3LHD 48V-1V",
            Volts::new(48.0),
            CurveAnchors {
                v_out: Volts::new(1.0),
                i_peak: ch.current_at_peak,
                eta_peak: ch.peak_efficiency,
                i_max: ch.max_load,
                eta_max: Self::eff(85.0),
            },
            ch.module_area(),
            Some(ch),
        )
    }

    /// First-stage DPMIH for the multi-stage architectures: 48 V to an
    /// intermediate bus of 12 V or 6 V. Lower conversion ratios run the
    /// same topology considerably more efficiently (§III); the anchors
    /// are the crate's documented calibration.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::StageMismatch`] for a bus other than
    /// 12 V or 6 V (the two configurations the paper evaluates).
    pub fn dpmih_first_stage(bus: Volts) -> Result<Self, ConverterError> {
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        let (eta_peak, eta_max) = if (bus.value() - 12.0).abs() < 1e-9 {
            (96.5, 95.2)
        } else if (bus.value() - 6.0).abs() < 1e-9 {
            (95.5, 94.0)
        } else {
            return Err(ConverterError::StageMismatch {
                upstream_out: bus.value(),
                downstream_in: 12.0,
            });
        };
        Ok(Self::from_anchors(
            &format!("DPMIH 48V-{}V", bus.value()),
            Volts::new(48.0),
            CurveAnchors {
                v_out: bus,
                i_peak: Amps::new(40.0),
                eta_peak: Self::eff(eta_peak),
                i_max: ch.max_load,
                eta_max: Self::eff(eta_max),
            },
            ch.module_area(),
            Some(ch),
        ))
    }

    /// Second-stage DSCH for the multi-stage architectures: 12 V or 6 V
    /// down to 1 V, integrated below the functional die (§II). DSCH "is
    /// more suitable for lower conversion ratios such as 12V-to-1V or
    /// 6V-to-1V" (§III); anchors calibrated accordingly.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::StageMismatch`] for an input other than
    /// 12 V or 6 V.
    pub fn dsch_second_stage(bus: Volts) -> Result<Self, ConverterError> {
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::Dsch);
        let (eta_peak, eta_max) = if (bus.value() - 12.0).abs() < 1e-9 {
            (93.0, 90.0)
        } else if (bus.value() - 6.0).abs() < 1e-9 {
            (94.0, 91.5)
        } else {
            return Err(ConverterError::StageMismatch {
                upstream_out: 48.0,
                downstream_in: bus.value(),
            });
        };
        Ok(Self::from_anchors(
            &format!("DSCH {}V-1V", bus.value()),
            bus,
            CurveAnchors {
                v_out: Volts::new(1.0),
                i_peak: ch.current_at_peak,
                eta_peak: Self::eff(eta_peak),
                i_max: ch.max_load,
                eta_max: Self::eff(eta_max),
            },
            ch.module_area(),
            Some(ch),
        ))
    }

    /// First-stage DPMIH for an *arbitrary* intermediate bus in
    /// `(1 V, 48 V)`, interpolating the 12 V / 6 V calibration anchors
    /// linearly in `log₂` of the conversion ratio. Exists for the
    /// bus-voltage ablation sweep; at 12 V and 6 V it matches
    /// [`Converter::dpmih_first_stage`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::StageMismatch`] for a bus outside
    /// `(1, 48)` V, or [`ConverterError::BadCalibration`] when the
    /// extrapolated anchors become inconsistent.
    pub fn dpmih_first_stage_for_ratio(bus: Volts) -> Result<Self, ConverterError> {
        if !(bus.value() > 1.0 && bus.value() < 48.0) {
            return Err(ConverterError::StageMismatch {
                upstream_out: bus.value(),
                downstream_in: 12.0,
            });
        }
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::Dpmih);
        let ratio = (48.0 / bus.value()).log2();
        let eta_peak = (98.5 - 1.0 * ratio).clamp(50.0, 99.0);
        let eta_max = (97.6 - 1.2 * ratio).clamp(50.0, 99.0);
        let curve = EfficiencyCurve::fit(CurveAnchors {
            v_out: bus,
            i_peak: Amps::new(40.0),
            eta_peak: Self::eff(eta_peak),
            i_max: ch.max_load,
            eta_max: Self::eff(eta_max),
        })?;
        Ok(Self {
            name: format!("DPMIH 48V-{:.1}V", bus.value()),
            v_in: Volts::new(48.0),
            v_out: bus,
            curve,
            module_area: ch.module_area(),
            characteristics: Some(ch),
        })
    }

    /// Second-stage DSCH for an arbitrary bus input in `(1 V, 48 V)`,
    /// interpolated like [`Converter::dpmih_first_stage_for_ratio`].
    ///
    /// # Errors
    ///
    /// As for [`Converter::dpmih_first_stage_for_ratio`].
    pub fn dsch_second_stage_for_ratio(bus: Volts) -> Result<Self, ConverterError> {
        if !(bus.value() > 1.0 && bus.value() < 48.0) {
            return Err(ConverterError::StageMismatch {
                upstream_out: 48.0,
                downstream_in: bus.value(),
            });
        }
        let ch = TopologyCharacteristics::table_ii(VrTopologyKind::Dsch);
        let ratio = bus.value().log2();
        let eta_peak = (96.58 - 1.0 * ratio).clamp(50.0, 99.0);
        let eta_max = (95.37 - 1.5 * ratio).clamp(50.0, 99.0);
        let curve = EfficiencyCurve::fit(CurveAnchors {
            v_out: Volts::new(1.0),
            i_peak: ch.current_at_peak,
            eta_peak: Self::eff(eta_peak),
            i_max: ch.max_load,
            eta_max: Self::eff(eta_max),
        })?;
        Ok(Self {
            name: format!("DSCH {:.1}V-1V", bus.value()),
            v_in: bus,
            v_out: Volts::new(1.0),
            curve,
            module_area: ch.module_area(),
            characteristics: Some(ch),
        })
    }

    /// The reference architecture's PCB-level converter: a
    /// transformer-based 48 V→12 V first stage with a multi-phase
    /// synchronous 12 V→1 V buck, modeled at the paper's flat 90%
    /// efficiency with board-scale current capability.
    #[must_use]
    pub fn reference_pcb_48v_to_1v() -> Self {
        // Flat η = 90%: pure linear loss b = v_out·(1/η − 1).
        let v_out = Volts::new(1.0);
        // Board-level converters parallelize freely; 5 kA headroom keeps
        // power sweeps meaningful.
        let curve = EfficiencyCurve::from_coefficients(
            v_out,
            Amps::from_kiloamps(5.0),
            0.0,
            v_out.value() * (1.0 / 0.9 - 1.0),
            0.0,
        )
        .expect("constant-efficiency coefficients valid");
        Self {
            name: "PCB 48V-1V (transformer + multiphase buck)".to_owned(),
            v_in: Volts::new(48.0),
            v_out,
            curve,
            module_area: SquareMeters::from_square_millimeters(2000.0),
            characteristics: None,
        }
    }

    /// Converter display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input voltage.
    #[must_use]
    pub fn v_in(&self) -> Volts {
        self.v_in
    }

    /// Output voltage.
    #[must_use]
    pub fn v_out(&self) -> Volts {
        self.v_out
    }

    /// Conversion ratio `V_in : V_out`.
    #[must_use]
    pub fn conversion_ratio(&self) -> f64 {
        self.v_in / self.v_out
    }

    /// Module footprint.
    #[must_use]
    pub fn module_area(&self) -> SquareMeters {
        self.module_area
    }

    /// Maximum output current per module.
    #[must_use]
    pub fn max_load(&self) -> Amps {
        self.curve.max_load()
    }

    /// Table II characteristics, when this instance is one of the
    /// reviewed topologies.
    #[must_use]
    pub fn characteristics(&self) -> Option<&TopologyCharacteristics> {
        self.characteristics.as_ref()
    }

    /// The fitted efficiency curve.
    #[must_use]
    pub fn curve(&self) -> &EfficiencyCurve {
        &self.curve
    }

    /// Efficiency at an output current.
    ///
    /// # Errors
    ///
    /// Propagates range errors from the curve
    /// ([`ConverterError::OverCurrent`], [`ConverterError::InvalidLoad`]).
    pub fn efficiency(&self, i_out: Amps) -> Result<Efficiency, ConverterError> {
        self.curve.efficiency(i_out).map_err(|e| self.rename(e))
    }

    /// Dissipation at an output current.
    ///
    /// # Errors
    ///
    /// As for [`Converter::efficiency`].
    pub fn loss(&self, i_out: Amps) -> Result<Watts, ConverterError> {
        self.curve.loss(i_out).map_err(|e| self.rename(e))
    }

    /// Input power drawn while delivering `i_out`.
    ///
    /// # Errors
    ///
    /// As for [`Converter::efficiency`].
    pub fn input_power(&self, i_out: Amps) -> Result<Watts, ConverterError> {
        Ok(self.v_out * i_out + self.loss(i_out)?)
    }

    /// Input current drawn while delivering `i_out`.
    ///
    /// # Errors
    ///
    /// As for [`Converter::efficiency`].
    pub fn input_current(&self, i_out: Amps) -> Result<Amps, ConverterError> {
        Ok(self.input_power(i_out)? / self.v_in)
    }

    fn rename(&self, e: ConverterError) -> ConverterError {
        match e {
            ConverterError::OverCurrent { requested, max, .. } => ConverterError::OverCurrent {
                converter: self.name.clone(),
                requested,
                max,
            },
            other => other,
        }
    }
}

/// A chain of converters sharing one current path (per-module view).
#[derive(Clone, PartialEq, Debug)]
pub struct MultiStageConverter {
    stages: Vec<Converter>,
}

impl MultiStageConverter {
    /// Builds a chain, validating that each stage's output bus feeds the
    /// next stage's input.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::StageMismatch`] on a bus-voltage
    /// mismatch, or [`ConverterError::BadCalibration`] for an empty
    /// chain.
    pub fn new(stages: Vec<Converter>) -> Result<Self, ConverterError> {
        if stages.is_empty() {
            return Err(ConverterError::BadCalibration {
                detail: "multi-stage chain needs at least one stage".into(),
            });
        }
        for pair in stages.windows(2) {
            if (pair[0].v_out().value() - pair[1].v_in().value()).abs() > 1e-9 {
                return Err(ConverterError::StageMismatch {
                    upstream_out: pair[0].v_out().value(),
                    downstream_in: pair[1].v_in().value(),
                });
            }
        }
        Ok(Self { stages })
    }

    /// The stages, input side first.
    #[must_use]
    pub fn stages(&self) -> &[Converter] {
        &self.stages
    }

    /// Overall input voltage.
    #[must_use]
    pub fn v_in(&self) -> Volts {
        self.stages[0].v_in()
    }

    /// Overall output voltage.
    #[must_use]
    pub fn v_out(&self) -> Volts {
        self.stages[self.stages.len() - 1].v_out()
    }

    /// Per-stage losses while delivering `i_out` at the final output,
    /// ordered like [`MultiStageConverter::stages`].
    ///
    /// # Errors
    ///
    /// Propagates any stage's range error.
    pub fn stage_losses(&self, i_out: Amps) -> Result<Vec<Watts>, ConverterError> {
        let mut losses = vec![Watts::ZERO; self.stages.len()];
        let mut p_out = self.v_out() * i_out;
        for (k, stage) in self.stages.iter().enumerate().rev() {
            let i_stage = p_out / stage.v_out();
            let loss = stage.loss(i_stage)?;
            losses[k] = loss;
            p_out += loss; // becomes this stage's input power
        }
        Ok(losses)
    }

    /// Total loss delivering `i_out`.
    ///
    /// # Errors
    ///
    /// As for [`MultiStageConverter::stage_losses`].
    pub fn loss(&self, i_out: Amps) -> Result<Watts, ConverterError> {
        Ok(self.stage_losses(i_out)?.into_iter().sum())
    }

    /// End-to-end efficiency delivering `i_out`.
    ///
    /// # Errors
    ///
    /// As for [`MultiStageConverter::stage_losses`].
    pub fn efficiency(&self, i_out: Amps) -> Result<Efficiency, ConverterError> {
        let p_out = (self.v_out() * i_out).value();
        let total = p_out + self.loss(i_out)?.value();
        Efficiency::new(p_out / total).map_err(|e| ConverterError::BadCalibration {
            detail: format!("composed efficiency invalid: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_peak_points_reproduce() {
        let cases = [
            (Converter::dpmih_48v_to_1v(), 30.0, 90.0),
            (Converter::dsch_48v_to_1v(), 10.0, 91.5),
            (Converter::three_level_hybrid_dickson_48v_to_1v(), 3.0, 90.4),
        ];
        for (conv, i_pk, eta_pct) in cases {
            let eta = conv.efficiency(Amps::new(i_pk)).unwrap();
            assert!(
                (eta.percent() - eta_pct).abs() < 0.01,
                "{}: {} != {eta_pct}",
                conv.name(),
                eta
            );
        }
    }

    #[test]
    fn reference_converter_is_flat_90_percent() {
        let a0 = Converter::reference_pcb_48v_to_1v();
        for i in [10.0, 100.0, 1000.0] {
            let eta = a0.efficiency(Amps::new(i)).unwrap();
            assert!((eta.percent() - 90.0).abs() < 1e-6);
        }
    }

    #[test]
    fn over_current_carries_converter_name() {
        let dsch = Converter::dsch_48v_to_1v();
        match dsch.efficiency(Amps::new(31.0)) {
            Err(ConverterError::OverCurrent { converter, .. }) => {
                assert!(converter.contains("DSCH"));
            }
            other => panic!("expected OverCurrent, got {other:?}"),
        }
    }

    #[test]
    fn input_current_respects_conversion_ratio() {
        let dpmih = Converter::dpmih_48v_to_1v();
        let i_in = dpmih.input_current(Amps::new(30.0)).unwrap();
        // 30 W out at 90% → 33.3 W in → 0.694 A at 48 V.
        assert!((i_in.value() - 33.333 / 48.0).abs() < 1e-3);
    }

    #[test]
    fn first_stage_is_more_efficient_than_full_ratio() {
        let full = Converter::dpmih_48v_to_1v();
        let first = Converter::dpmih_first_stage(Volts::new(12.0)).unwrap();
        let eta_full = full.efficiency(Amps::new(30.0)).unwrap();
        let eta_first = first.efficiency(Amps::new(30.0)).unwrap();
        assert!(eta_first.fraction() > eta_full.fraction());
    }

    #[test]
    fn stage_constructors_reject_unknown_buses() {
        assert!(Converter::dpmih_first_stage(Volts::new(9.0)).is_err());
        assert!(Converter::dsch_second_stage(Volts::new(24.0)).is_err());
    }

    #[test]
    fn multi_stage_composes_losses() {
        let chain = MultiStageConverter::new(vec![
            Converter::dpmih_first_stage(Volts::new(12.0)).unwrap(),
            Converter::dsch_second_stage(Volts::new(12.0)).unwrap(),
        ])
        .unwrap();
        let i = Amps::new(20.0);
        let losses = chain.stage_losses(i).unwrap();
        assert_eq!(losses.len(), 2);
        let eta = chain.efficiency(i).unwrap();
        // Composition is below either stage alone.
        let eta2 = chain.stages()[1].efficiency(i).unwrap();
        assert!(eta.fraction() < eta2.fraction());
        // Loss decomposition sums.
        let total = chain.loss(i).unwrap();
        let parts: Watts = losses.into_iter().sum();
        assert!(total.approx_eq(parts, 1e-9));
    }

    #[test]
    fn interpolated_stages_match_fixed_anchors() {
        for bus in [12.0, 6.0] {
            let fixed1 = Converter::dpmih_first_stage(Volts::new(bus)).unwrap();
            let interp1 = Converter::dpmih_first_stage_for_ratio(Volts::new(bus)).unwrap();
            let fixed2 = Converter::dsch_second_stage(Volts::new(bus)).unwrap();
            let interp2 = Converter::dsch_second_stage_for_ratio(Volts::new(bus)).unwrap();
            for i in [5.0, 20.0] {
                let i = Amps::new(i);
                assert!(
                    (fixed1.efficiency(i).unwrap().fraction()
                        - interp1.efficiency(i).unwrap().fraction())
                    .abs()
                        < 2e-3,
                    "first stage at {bus} V"
                );
                assert!(
                    (fixed2.efficiency(i).unwrap().fraction()
                        - interp2.efficiency(i).unwrap().fraction())
                    .abs()
                        < 2e-3,
                    "second stage at {bus} V"
                );
            }
        }
    }

    #[test]
    fn interpolated_stages_reject_out_of_range_buses() {
        assert!(Converter::dpmih_first_stage_for_ratio(Volts::new(48.0)).is_err());
        assert!(Converter::dpmih_first_stage_for_ratio(Volts::new(1.0)).is_err());
        assert!(Converter::dsch_second_stage_for_ratio(Volts::new(0.5)).is_err());
        assert!(Converter::dsch_second_stage_for_ratio(Volts::new(60.0)).is_err());
    }

    #[test]
    fn lower_ratio_stages_are_more_efficient() {
        // Monotonicity of the interpolation: a gentler second-stage
        // ratio converts more efficiently at matched current.
        let eta = |bus: f64| {
            Converter::dsch_second_stage_for_ratio(Volts::new(bus))
                .unwrap()
                .efficiency(Amps::new(10.0))
                .unwrap()
                .fraction()
        };
        assert!(eta(4.0) > eta(8.0));
        assert!(eta(8.0) > eta(16.0));
    }

    #[test]
    fn multi_stage_rejects_mismatched_buses() {
        let err = MultiStageConverter::new(vec![
            Converter::dpmih_first_stage(Volts::new(6.0)).unwrap(),
            Converter::dsch_second_stage(Volts::new(12.0)).unwrap(),
        ])
        .unwrap_err();
        assert!(matches!(err, ConverterError::StageMismatch { .. }));
        assert!(MultiStageConverter::new(vec![]).is_err());
    }

    #[test]
    fn dual_stage_beats_nothing_but_single_stage_dsch_wins() {
        // The paper's §IV finding: the dual-stage path is less efficient
        // than single-stage DSCH conversion at comparable load.
        let dual = MultiStageConverter::new(vec![
            Converter::dpmih_first_stage(Volts::new(12.0)).unwrap(),
            Converter::dsch_second_stage(Volts::new(12.0)).unwrap(),
        ])
        .unwrap();
        let single = Converter::dsch_48v_to_1v();
        let i = Amps::new(20.0);
        assert!(single.efficiency(i).unwrap().fraction() > dual.efficiency(i).unwrap().fraction());
    }
}
