//! Calibrated efficiency-versus-load curves.
//!
//! The paper evaluates converters at the operating points published for
//! the real silicon ([8]–[10]): peak efficiency at one current, maximum
//! load at another. This module fits the standard quadratic loss model
//!
//! ```text
//! P_loss(I) = a + b·I + c·I²
//! ```
//!
//! to those anchors. The fixed term `a` captures switching/gating loss,
//! `b·I` captures overlap and diode-drop-like terms, and `c·I²` captures
//! conduction loss. Three constraints pin the three coefficients:
//!
//! 1. peak efficiency occurs at `I_pk` → `dη/dI = 0` → `a = c·I_pk²`;
//! 2. the efficiency at `I_pk` equals the published peak;
//! 3. the efficiency at `I_max` equals the published (or estimated)
//!    full-load value.

use crate::ConverterError;
use vpd_units::{Amps, Efficiency, Volts, Watts};

/// Published operating points a curve is fitted to.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CurveAnchors {
    /// Output voltage the published numbers refer to.
    pub v_out: Volts,
    /// Current at peak efficiency.
    pub i_peak: Amps,
    /// Peak efficiency.
    pub eta_peak: Efficiency,
    /// Maximum load current.
    pub i_max: Amps,
    /// Efficiency at maximum load.
    pub eta_max: Efficiency,
}

/// A fitted efficiency-versus-load curve.
///
/// ```
/// use vpd_converters::{CurveAnchors, EfficiencyCurve};
/// use vpd_units::{Amps, Efficiency, Volts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The DPMIH anchors from Table II.
/// let curve = EfficiencyCurve::fit(CurveAnchors {
///     v_out: Volts::new(1.0),
///     i_peak: Amps::new(30.0),
///     eta_peak: Efficiency::from_percent(90.0)?,
///     i_max: Amps::new(100.0),
///     eta_max: Efficiency::from_percent(86.0)?,
/// })?;
/// let eta = curve.efficiency(Amps::new(30.0))?;
/// assert!((eta.percent() - 90.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EfficiencyCurve {
    v_out: Volts,
    i_max: Amps,
    a: f64,
    b: f64,
    c: f64,
}

impl EfficiencyCurve {
    /// Fits the quadratic loss model to the anchors.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::BadCalibration`] when the anchors are
    /// inconsistent: `i_peak ≥ i_max`, or a fit with negative
    /// curvature/loss.
    pub fn fit(anchors: CurveAnchors) -> Result<Self, ConverterError> {
        let v = anchors.v_out.value();
        let ip = anchors.i_peak.value();
        let im = anchors.i_max.value();
        if !(ip > 0.0 && im > ip) {
            return Err(ConverterError::BadCalibration {
                detail: format!("need 0 < i_peak < i_max, got {ip} and {im}"),
            });
        }
        // Loss implied by each anchor: P = V·I·(1/η − 1).
        let loss_at = |i: f64, eta: Efficiency| v * i * (1.0 / eta.fraction() - 1.0);
        let lp = loss_at(ip, anchors.eta_peak);
        let lm = loss_at(im, anchors.eta_max);

        // dη/dI = 0 at I_pk  ⇔  d(P/I)/dI = 0  ⇔  a = c·I_pk².
        let c = (lm - lp * im / ip) / ((im - ip) * (im - ip));
        if c < 0.0 {
            return Err(ConverterError::BadCalibration {
                detail: format!("full-load anchor too efficient for the peak anchor (c = {c:.3e})"),
            });
        }
        let a = c * ip * ip;
        let b = (lp - 2.0 * c * ip * ip) / ip;
        if b < 0.0 {
            return Err(ConverterError::BadCalibration {
                detail: format!("fit produced negative linear loss (b = {b:.3e})"),
            });
        }
        Ok(Self {
            v_out: anchors.v_out,
            i_max: anchors.i_max,
            a,
            b,
            c,
        })
    }

    /// Builds a curve directly from loss coefficients
    /// (`P = a + b·I + c·I²`).
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::BadCalibration`] for negative
    /// coefficients or a non-positive `i_max`.
    pub fn from_coefficients(
        v_out: Volts,
        i_max: Amps,
        a: f64,
        b: f64,
        c: f64,
    ) -> Result<Self, ConverterError> {
        if a < 0.0 || b < 0.0 || c < 0.0 || i_max.value() <= 0.0 || i_max.value().is_nan() {
            return Err(ConverterError::BadCalibration {
                detail: "coefficients must be non-negative with positive i_max".into(),
            });
        }
        Ok(Self {
            v_out,
            i_max,
            a,
            b,
            c,
        })
    }

    /// Output voltage the curve refers to.
    #[must_use]
    pub fn v_out(&self) -> Volts {
        self.v_out
    }

    /// Maximum supported output current.
    #[must_use]
    pub fn max_load(&self) -> Amps {
        self.i_max
    }

    /// Loss coefficients `(a, b, c)`.
    #[must_use]
    pub fn coefficients(&self) -> (f64, f64, f64) {
        (self.a, self.b, self.c)
    }

    /// Power dissipated at an output current (no range check — used by
    /// sweeps that probe beyond rating).
    #[must_use]
    pub fn loss_unchecked(&self, i_out: Amps) -> Watts {
        let i = i_out.value();
        Watts::new(self.a + self.b * i + self.c * i * i)
    }

    /// Power dissipated delivering `i_out`.
    ///
    /// # Errors
    ///
    /// * [`ConverterError::InvalidLoad`] for a non-positive current.
    /// * [`ConverterError::OverCurrent`] beyond `max_load`.
    pub fn loss(&self, i_out: Amps) -> Result<Watts, ConverterError> {
        self.check(i_out)?;
        Ok(self.loss_unchecked(i_out))
    }

    /// Conversion efficiency delivering `i_out`.
    ///
    /// # Errors
    ///
    /// As for [`EfficiencyCurve::loss`].
    pub fn efficiency(&self, i_out: Amps) -> Result<Efficiency, ConverterError> {
        self.check(i_out)?;
        let p_out = (self.v_out * i_out).value();
        let eta = p_out / (p_out + self.loss_unchecked(i_out).value());
        Efficiency::new(eta).map_err(|e| ConverterError::BadCalibration {
            detail: format!("efficiency left (0,1]: {e}"),
        })
    }

    /// The current at which efficiency peaks: `√(a/c)` (or `i_max` for a
    /// curve with no fixed loss).
    #[must_use]
    pub fn peak_efficiency_current(&self) -> Amps {
        if self.c > 0.0 && self.a > 0.0 {
            Amps::new((self.a / self.c).sqrt())
        } else {
            self.i_max
        }
    }

    fn check(&self, i_out: Amps) -> Result<(), ConverterError> {
        let i = i_out.value();
        if !(i.is_finite() && i > 0.0) {
            return Err(ConverterError::InvalidLoad { value: i });
        }
        if i > self.i_max.value() * (1.0 + 1e-9) {
            return Err(ConverterError::OverCurrent {
                converter: "efficiency curve".into(),
                requested: i,
                max: self.i_max.value(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dpmih_anchors() -> CurveAnchors {
        CurveAnchors {
            v_out: Volts::new(1.0),
            i_peak: Amps::new(30.0),
            eta_peak: Efficiency::from_percent(90.0).unwrap(),
            i_max: Amps::new(100.0),
            eta_max: Efficiency::from_percent(86.0).unwrap(),
        }
    }

    #[test]
    fn anchors_are_interpolated_exactly() {
        let curve = EfficiencyCurve::fit(dpmih_anchors()).unwrap();
        let at_peak = curve.efficiency(Amps::new(30.0)).unwrap();
        let at_max = curve.efficiency(Amps::new(100.0)).unwrap();
        assert!((at_peak.percent() - 90.0).abs() < 1e-9);
        assert!((at_max.percent() - 86.0).abs() < 1e-9);
    }

    #[test]
    fn peak_is_at_the_anchor_current() {
        let curve = EfficiencyCurve::fit(dpmih_anchors()).unwrap();
        assert!((curve.peak_efficiency_current().value() - 30.0).abs() < 1e-9);
        // And it really is a maximum.
        let eta = |i: f64| curve.efficiency(Amps::new(i)).unwrap().fraction();
        assert!(eta(30.0) >= eta(20.0));
        assert!(eta(30.0) >= eta(45.0));
    }

    #[test]
    fn rejects_inverted_anchors() {
        let mut anchors = dpmih_anchors();
        anchors.i_max = Amps::new(10.0); // below i_peak
        assert!(matches!(
            EfficiencyCurve::fit(anchors),
            Err(ConverterError::BadCalibration { .. })
        ));
    }

    #[test]
    fn rejects_impossible_full_load_efficiency() {
        let mut anchors = dpmih_anchors();
        // Full load more efficient than peak is inconsistent with a
        // quadratic loss having its optimum at i_peak.
        anchors.eta_max = Efficiency::from_percent(95.0).unwrap();
        assert!(EfficiencyCurve::fit(anchors).is_err());
    }

    #[test]
    fn over_current_and_invalid_load() {
        let curve = EfficiencyCurve::fit(dpmih_anchors()).unwrap();
        assert!(matches!(
            curve.efficiency(Amps::new(150.0)),
            Err(ConverterError::OverCurrent { .. })
        ));
        assert!(matches!(
            curve.efficiency(Amps::ZERO),
            Err(ConverterError::InvalidLoad { .. })
        ));
        assert!(curve.loss(Amps::new(f64::NAN)).is_err());
    }

    #[test]
    fn from_coefficients_validation() {
        assert!(EfficiencyCurve::from_coefficients(
            Volts::new(1.0),
            Amps::new(10.0),
            -0.1,
            0.0,
            0.0
        )
        .is_err());
        let flat =
            EfficiencyCurve::from_coefficients(Volts::new(1.0), Amps::new(10.0), 0.0, 0.111, 0.0)
                .unwrap();
        // Pure linear loss: 1/(1+0.111) ≈ 90% at every load.
        let eta = flat.efficiency(Amps::new(5.0)).unwrap();
        assert!((eta.fraction() - 0.9).abs() < 1e-3);
        assert_eq!(flat.peak_efficiency_current(), Amps::new(10.0));
    }

    proptest! {
        /// Any consistent anchor set round-trips, stays within (0,1],
        /// and peaks where promised.
        #[test]
        fn prop_fit_round_trips(
            ip in 2.0_f64..40.0,
            scale in 1.5_f64..5.0,
            eta_pk in 0.85_f64..0.96,
            drop in 0.02_f64..0.08,
        ) {
            let im = ip * scale;
            let anchors = CurveAnchors {
                v_out: Volts::new(1.0),
                i_peak: Amps::new(ip),
                eta_peak: Efficiency::new(eta_pk).unwrap(),
                i_max: Amps::new(im),
                eta_max: Efficiency::new(eta_pk - drop).unwrap(),
            };
            if let Ok(curve) = EfficiencyCurve::fit(anchors) {
                let at_pk = curve.efficiency(Amps::new(ip)).unwrap().fraction();
                let at_max = curve.efficiency(Amps::new(im)).unwrap().fraction();
                prop_assert!((at_pk - eta_pk).abs() < 1e-9);
                prop_assert!((at_max - (eta_pk - drop)).abs() < 1e-9);
                // Efficiency bounded on the whole operating range.
                for k in 1..20 {
                    let i = im * f64::from(k) / 20.0;
                    let eta = curve.efficiency(Amps::new(i)).unwrap().fraction();
                    prop_assert!(eta > 0.0 && eta <= 1.0);
                }
                // Peak location.
                prop_assert!((curve.peak_efficiency_current().value() - ip).abs() < 1e-6);
            }
        }
    }
}
