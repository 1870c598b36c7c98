//! Switched-capacitor output-impedance theory (Seeman–Sanders charge
//! multipliers).
//!
//! §III of the paper frames the SC design space through two
//! limitations: *hard charge sharing* between capacitors (the
//! slow-switching-limit loss) and the *discrete conversion ratio*. Both
//! drop out of the classical two-asymptote model implemented here:
//!
//! * **SSL** (slow switching limit): `R_SSL = Σ a_{c,i}² / (C_i · f)` —
//!   charge-sharing loss, shrinking with frequency;
//! * **FSL** (fast switching limit): `R_FSL = Σ 2·a_{r,j}²·R_j` —
//!   conduction loss through the switch resistances;
//! * combined `R_out ≈ √(R_SSL² + R_FSL²)`, and the output droops as
//!   `V_out = V_in/n − I·R_out`.
//!
//! The DPMIH topology's per-capacitor inductors *soft-charge* the
//! flying caps, removing the SSL term — exactly the advantage §III
//! credits it with; `soft_charged()` models that variant.

use crate::ConverterError;
use vpd_units::{Amps, Efficiency, Farads, Hertz, Ohms, Volts};

/// A two-phase SC converter reduced to its charge-multiplier vectors.
#[derive(Clone, PartialEq, Debug)]
pub struct ScConverterModel {
    /// Ideal step-down ratio `n` (output = `V_in / n`).
    ratio: usize,
    /// Flying caps as `(capacitance, charge multiplier a_c)`.
    caps: Vec<(Farads, f64)>,
    /// Switches as `(on-resistance, charge multiplier a_r)`.
    switches: Vec<(Ohms, f64)>,
    /// Whether the flying caps are soft-charged (SSL suppressed).
    soft_charged: bool,
}

impl ScConverterModel {
    /// A series-parallel `n:1` step-down: `n−1` flying caps with
    /// multipliers `1/n`, and `3n−2` switches each carrying `1/n` of
    /// the output charge.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::BadCalibration`] for `n < 2` or
    /// non-positive component values.
    pub fn series_parallel(
        n: usize,
        cap_each: Farads,
        r_switch: Ohms,
    ) -> Result<Self, ConverterError> {
        Self::validate(n, cap_each, r_switch)?;
        let a = 1.0 / n as f64;
        Ok(Self {
            ratio: n,
            caps: vec![(cap_each, a); n - 1],
            switches: vec![(r_switch, a); 3 * n - 2],
            soft_charged: false,
        })
    }

    /// A Dickson (charge-pump ladder) `n:1` step-down: same capacitor
    /// multipliers as series-parallel in two-phase operation, but only
    /// `n + 4` switches — two input-side switches carry half the charge
    /// each phase, the ladder switches carry `1/n`.
    ///
    /// # Errors
    ///
    /// As for [`ScConverterModel::series_parallel`].
    pub fn dickson(n: usize, cap_each: Farads, r_switch: Ohms) -> Result<Self, ConverterError> {
        Self::validate(n, cap_each, r_switch)?;
        let a = 1.0 / n as f64;
        let mut switches = vec![(r_switch, a); n + 2];
        switches.push((r_switch, 0.5 * a));
        switches.push((r_switch, 0.5 * a));
        Ok(Self {
            ratio: n,
            caps: vec![(cap_each, a); n - 1],
            switches,
            soft_charged: false,
        })
    }

    fn validate(n: usize, cap_each: Farads, r_switch: Ohms) -> Result<(), ConverterError> {
        if n < 2 {
            return Err(ConverterError::BadCalibration {
                detail: format!("sc ratio must be at least 2, got {n}"),
            });
        }
        if !(cap_each.value() > 0.0 && r_switch.value() > 0.0) {
            return Err(ConverterError::BadCalibration {
                detail: "sc component values must be positive".into(),
            });
        }
        Ok(())
    }

    /// The soft-charged variant of this converter (every flying cap in
    /// series with an inductor, as in DPMIH): SSL removed.
    #[must_use]
    pub fn soft_charged(mut self) -> Self {
        self.soft_charged = true;
        self
    }

    /// Ideal conversion ratio `n`.
    #[must_use]
    pub fn ratio(&self) -> usize {
        self.ratio
    }

    /// Slow-switching-limit output resistance at `f`.
    #[must_use]
    pub fn r_ssl(&self, f: Hertz) -> Ohms {
        if self.soft_charged {
            return Ohms::ZERO;
        }
        Ohms::new(
            self.caps
                .iter()
                .map(|(c, a)| a * a / (c.value() * f.value()))
                .sum(),
        )
    }

    /// Fast-switching-limit output resistance.
    #[must_use]
    pub fn r_fsl(&self) -> Ohms {
        Ohms::new(
            self.switches
                .iter()
                .map(|(r, a)| 2.0 * a * a * r.value())
                .sum(),
        )
    }

    /// Combined output resistance `√(R_SSL² + R_FSL²)`.
    #[must_use]
    pub fn r_out(&self, f: Hertz) -> Ohms {
        let ssl = self.r_ssl(f).value();
        let fsl = self.r_fsl().value();
        Ohms::new(ssl.hypot(fsl))
    }

    /// The frequency where SSL equals FSL — the knee beyond which more
    /// switching buys (almost) nothing.
    #[must_use]
    pub fn corner_frequency(&self) -> Hertz {
        let ssl_coeff: f64 = self.caps.iter().map(|(c, a)| a * a / c.value()).sum();
        Hertz::new(ssl_coeff / self.r_fsl().value().max(f64::MIN_POSITIVE))
    }

    /// Loaded output voltage `V_in/n − I·R_out`.
    #[must_use]
    pub fn output_voltage(&self, v_in: Volts, i_out: Amps, f: Hertz) -> Volts {
        Volts::new(v_in.value() / self.ratio as f64 - i_out.value() * self.r_out(f).value())
    }

    /// Conversion efficiency at a load: `η = V_out / (V_in/n)` — the
    /// intrinsic SC result that all droop is loss.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::OverCurrent`] when the droop collapses
    /// the output (`V_out ≤ 0`) and [`ConverterError::InvalidLoad`] for
    /// a non-positive current.
    pub fn efficiency(
        &self,
        v_in: Volts,
        i_out: Amps,
        f: Hertz,
    ) -> Result<Efficiency, ConverterError> {
        if !(i_out.value() > 0.0 && i_out.value().is_finite()) {
            return Err(ConverterError::InvalidLoad {
                value: i_out.value(),
            });
        }
        let ideal = v_in.value() / self.ratio as f64;
        let v_out = self.output_voltage(v_in, i_out, f).value();
        if v_out <= 0.0 {
            return Err(ConverterError::OverCurrent {
                converter: format!("SC {}:1", self.ratio),
                requested: i_out.value(),
                max: ideal / self.r_out(f).value(),
            });
        }
        Efficiency::new(v_out / ideal).map_err(|e| ConverterError::BadCalibration {
            detail: format!("sc efficiency invalid: {e}"),
        })
    }

    /// The discrete-ratio penalty §III mentions: regulating to a target
    /// below the ideal tap wastes `1 − V_target·n/V_in` even with a
    /// perfect converter.
    #[must_use]
    pub fn ratio_penalty(&self, v_in: Volts, v_target: Volts) -> f64 {
        let ideal = v_in.value() / self.ratio as f64;
        (1.0 - v_target.value() / ideal).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sp2() -> ScConverterModel {
        ScConverterModel::series_parallel(
            2,
            Farads::from_microfarads(1.0),
            Ohms::from_milliohms(10.0),
        )
        .unwrap()
    }

    #[test]
    fn textbook_2_to_1_ssl() {
        // Single cap, a_c = 1/2: R_SSL = 1/(4·C·f).
        let model = sp2();
        let f = Hertz::from_megahertz(1.0);
        let expected = 1.0 / (4.0 * 1e-6 * 1e6);
        assert!((model.r_ssl(f).value() - expected).abs() < 1e-12);
    }

    #[test]
    fn ssl_falls_with_frequency_fsl_flat() {
        let model = sp2();
        let f1 = Hertz::from_megahertz(1.0);
        let f2 = Hertz::from_megahertz(2.0);
        assert!((model.r_ssl(f1).value() / model.r_ssl(f2).value() - 2.0).abs() < 1e-12);
        assert_eq!(model.r_fsl(), model.r_fsl());
        // r_out approaches FSL at high frequency.
        let fsl = model.r_fsl().value();
        let high = model.r_out(Hertz::new(1e9)).value();
        assert!((high - fsl).abs() < 0.01 * fsl);
    }

    #[test]
    fn corner_frequency_balances_asymptotes() {
        let model = sp2();
        let fc = model.corner_frequency();
        let ssl = model.r_ssl(fc).value();
        let fsl = model.r_fsl().value();
        assert!((ssl - fsl).abs() < 1e-9 * fsl);
    }

    #[test]
    fn soft_charging_removes_ssl() {
        let hard = sp2();
        let soft = sp2().soft_charged();
        let f = Hertz::from_kilohertz(100.0); // deep SSL regime
        assert!(hard.r_out(f).value() > 10.0 * soft.r_out(f).value());
        assert_eq!(soft.r_ssl(f), Ohms::ZERO);
        // The §III claim: at equal (low) frequency the soft-charged
        // converter is far more efficient.
        let v = Volts::new(48.0);
        let i = Amps::new(5.0);
        let eta_hard = hard.efficiency(v, i, f);
        let eta_soft = soft.efficiency(v, i, f).unwrap();
        if let Ok(eh) = eta_hard {
            assert!(eta_soft.fraction() > eh.fraction());
        } // an Err means the output collapsed entirely: even stronger
    }

    #[test]
    fn dickson_has_fewer_switch_losses_at_high_ratio() {
        let n = 8;
        let c = Farads::from_microfarads(1.0);
        let r = Ohms::from_milliohms(10.0);
        let sp = ScConverterModel::series_parallel(n, c, r).unwrap();
        let dickson = ScConverterModel::dickson(n, c, r).unwrap();
        assert!(dickson.r_fsl().value() < sp.r_fsl().value());
        // Same SSL (same cap vector).
        let f = Hertz::from_megahertz(1.0);
        assert_eq!(dickson.r_ssl(f), sp.r_ssl(f));
    }

    #[test]
    fn discrete_ratio_penalty() {
        let model = ScConverterModel::series_parallel(
            48,
            Farads::from_microfarads(1.0),
            Ohms::from_milliohms(1.0),
        )
        .unwrap();
        // Regulating 48 V / 48 = 1 V down to 0.9 V throws away 10%.
        let penalty = model.ratio_penalty(Volts::new(48.0), Volts::new(0.9));
        assert!((penalty - 0.1).abs() < 1e-12);
        // No penalty at or above the tap.
        assert_eq!(model.ratio_penalty(Volts::new(48.0), Volts::new(1.0)), 0.0);
    }

    #[test]
    fn collapse_reported_as_over_current() {
        let model = sp2();
        let err = model
            .efficiency(Volts::new(2.0), Amps::new(1e6), Hertz::from_kilohertz(1.0))
            .unwrap_err();
        assert!(matches!(err, ConverterError::OverCurrent { .. }));
        assert!(model
            .efficiency(Volts::new(2.0), Amps::ZERO, Hertz::from_kilohertz(1.0))
            .is_err());
    }

    #[test]
    fn constructor_validation() {
        let c = Farads::from_microfarads(1.0);
        let r = Ohms::from_milliohms(1.0);
        assert!(ScConverterModel::series_parallel(1, c, r).is_err());
        assert!(ScConverterModel::dickson(0, c, r).is_err());
        assert!(ScConverterModel::series_parallel(2, Farads::ZERO, r).is_err());
    }

    proptest! {
        /// Efficiency decreases monotonically with load and r_out is
        /// positive for any valid design.
        #[test]
        fn prop_efficiency_monotone_in_load(
            n in 2_usize..12,
            i1 in 0.1_f64..5.0,
            scale in 1.1_f64..4.0,
        ) {
            let model = ScConverterModel::series_parallel(
                n,
                Farads::from_microfarads(10.0),
                Ohms::from_milliohms(5.0),
            ).unwrap();
            let f = Hertz::from_megahertz(1.0);
            let v = Volts::new(48.0);
            prop_assert!(model.r_out(f).value() > 0.0);
            let e1 = model.efficiency(v, Amps::new(i1), f);
            let e2 = model.efficiency(v, Amps::new(i1 * scale), f);
            if let (Ok(e1), Ok(e2)) = (e1, e2) {
                prop_assert!(e2.fraction() <= e1.fraction() + 1e-12);
            }
        }
    }
}
