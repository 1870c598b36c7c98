//! Validated power-conversion efficiency.

use crate::Watts;
use std::fmt;

/// Error returned when constructing an [`Efficiency`] outside `(0, 1]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EfficiencyError {
    value: f64,
}

impl EfficiencyError {
    /// The rejected raw value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for EfficiencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "efficiency must be in (0, 1], got {}", self.value)
    }
}

impl std::error::Error for EfficiencyError {}

/// A power-conversion efficiency, statically known to lie in `(0, 1]`.
///
/// ```
/// # fn main() -> Result<(), vpd_units::EfficiencyError> {
/// use vpd_units::{Efficiency, Watts};
///
/// let eta = Efficiency::from_percent(90.0)?;
/// let out = eta.output_for_input(Watts::new(1000.0));
/// assert_eq!(out, Watts::new(900.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Efficiency(f64);

impl Efficiency {
    /// The lossless (unity) efficiency.
    pub const UNITY: Self = Self(1.0);

    /// Creates an efficiency from a fraction in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`EfficiencyError`] when `fraction` is not finite or lies
    /// outside `(0, 1]`.
    pub fn new(fraction: f64) -> Result<Self, EfficiencyError> {
        if fraction.is_finite() && fraction > 0.0 && fraction <= 1.0 {
            Ok(Self(fraction))
        } else {
            Err(EfficiencyError { value: fraction })
        }
    }

    /// Creates an efficiency from a percentage in `(0, 100]`.
    ///
    /// # Errors
    ///
    /// Returns [`EfficiencyError`] when `percent / 100` lies outside
    /// `(0, 1]`.
    pub fn from_percent(percent: f64) -> Result<Self, EfficiencyError> {
        Self::new(percent / 100.0)
    }

    /// The efficiency as a fraction in `(0, 1]`.
    #[must_use]
    pub const fn fraction(self) -> f64 {
        self.0
    }

    /// The efficiency as a percentage.
    #[must_use]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Output power when `input` is processed at this efficiency.
    #[must_use]
    pub fn output_for_input(self, input: Watts) -> Watts {
        input * self.0
    }

    /// Input power required to deliver `output` at this efficiency.
    #[must_use]
    pub fn input_for_output(self, output: Watts) -> Watts {
        output / self.0
    }

    /// Power dissipated when *delivering* `output`
    /// (`P_loss = P_out·(1/η − 1)`).
    ///
    /// This is the accounting Figure 7 uses: losses are referenced to the
    /// power that must reach the next stage.
    #[must_use]
    pub fn loss_for_output(self, output: Watts) -> Watts {
        self.input_for_output(output) - output
    }

    /// Composes two cascaded conversion stages (`η = η₁·η₂`).
    ///
    /// The product of two values in `(0, 1]` stays in `(0, 1]`, so this
    /// cannot fail.
    #[must_use]
    pub fn cascade(self, second_stage: Self) -> Self {
        Self(self.0 * second_stage.0)
    }
}

impl fmt::Display for Efficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let precision = f.precision().unwrap_or(1);
        write!(f, "{:.*}%", precision, self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        assert!(Efficiency::new(0.0).is_err());
        assert!(Efficiency::new(-0.5).is_err());
        assert!(Efficiency::new(1.0001).is_err());
        assert!(Efficiency::new(f64::NAN).is_err());
        assert!(Efficiency::new(f64::INFINITY).is_err());
        assert!(Efficiency::new(1.0).is_ok());
    }

    #[test]
    fn error_is_displayable_and_carries_value() {
        let err = Efficiency::new(1.5).unwrap_err();
        assert_eq!(err.value(), 1.5);
        assert!(err.to_string().contains("1.5"));
    }

    #[test]
    fn loss_accounting_matches_reference_converter() {
        // The paper's A0: 90%-efficient converter delivering ~1.3 kW to the
        // PPDN dissipates P_out·(1/0.9 − 1) ≈ 144 W.
        let eta = Efficiency::from_percent(90.0).unwrap();
        let loss = eta.loss_for_output(Watts::new(1300.0));
        assert!(loss.approx_eq(Watts::new(1300.0 / 0.9 - 1300.0), 1e-9));
    }

    #[test]
    fn cascade_multiplies() {
        let first = Efficiency::from_percent(95.0).unwrap();
        let second = Efficiency::from_percent(90.0).unwrap();
        assert!((first.cascade(second).fraction() - 0.855).abs() < 1e-12);
    }

    #[test]
    fn display_percent() {
        let eta = Efficiency::from_percent(90.4).unwrap();
        assert_eq!(format!("{eta}"), "90.4%");
        assert_eq!(format!("{eta:.0}"), "90%");
    }

    #[test]
    fn input_output_round_trip() {
        let eta = Efficiency::from_percent(87.0).unwrap();
        let out = Watts::new(500.0);
        let input = eta.input_for_output(out);
        assert!(eta.output_for_input(input).approx_eq(out, 1e-9));
    }
}
