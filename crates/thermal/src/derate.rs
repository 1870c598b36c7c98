//! Temperature derating of power-conversion loss.
//!
//! Conduction loss grows with junction temperature because on-resistance
//! does (`R_on(T) = R_on(25°C)·(1 + α·(T − 25))`). Silicon's mobility
//! collapse gives it roughly +0.8 %/K; GaN HEMTs derate more gently.
//! The electro-thermal loop in `vpd-core` multiplies each module's loss
//! by this factor at its local die temperature.

use vpd_units::Celsius;

/// Device technology for derating (kept separate from
/// `vpd_devices::Semiconductor` so the thermal crate stays a leaf
/// substrate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceTechnology {
    /// Silicon MOSFET.
    Si,
    /// GaN HEMT.
    GaN,
}

/// A linear conduction-loss derating model.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DeratingModel {
    /// Fractional R_on increase per kelvin above the 25 °C reference.
    alpha_per_k: f64,
    /// Junction temperature above which the module must shut down.
    t_max: Celsius,
}

impl DeratingModel {
    /// The standard model for a technology.
    #[must_use]
    pub fn for_technology(tech: DeviceTechnology) -> Self {
        match tech {
            DeviceTechnology::Si => Self {
                alpha_per_k: 0.008,
                t_max: Celsius::new(125.0),
            },
            DeviceTechnology::GaN => Self {
                alpha_per_k: 0.005,
                t_max: Celsius::new(150.0),
            },
        }
    }

    /// A custom model.
    #[must_use]
    pub fn new(alpha_per_k: f64, t_max: Celsius) -> Self {
        Self { alpha_per_k, t_max }
    }

    /// Loss multiplier at a junction temperature (≥ 1 above 25 °C,
    /// clamped at 1 below).
    #[must_use]
    pub fn loss_factor(&self, t_junction: Celsius) -> f64 {
        (1.0 + self.alpha_per_k * (t_junction.value() - 25.0)).max(1.0)
    }

    /// Whether the junction stays within its rating.
    #[must_use]
    pub fn within_rating(&self, t_junction: Celsius) -> bool {
        t_junction.value() <= self.t_max.value()
    }

    /// The shutdown temperature.
    #[must_use]
    pub fn t_max(&self) -> Celsius {
        self.t_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_derates_faster_than_gan() {
        let si = DeratingModel::for_technology(DeviceTechnology::Si);
        let gan = DeratingModel::for_technology(DeviceTechnology::GaN);
        let hot = Celsius::new(105.0);
        assert!(si.loss_factor(hot) > gan.loss_factor(hot));
        // +0.8 %/K × 80 K = 1.64×.
        assert!((si.loss_factor(hot) - 1.64).abs() < 1e-9);
    }

    #[test]
    fn no_bonus_below_reference() {
        let si = DeratingModel::for_technology(DeviceTechnology::Si);
        assert_eq!(si.loss_factor(Celsius::new(0.0)), 1.0);
        assert_eq!(si.loss_factor(Celsius::new(25.0)), 1.0);
    }

    #[test]
    fn rating_checks() {
        let si = DeratingModel::for_technology(DeviceTechnology::Si);
        assert!(si.within_rating(Celsius::new(125.0)));
        assert!(!si.within_rating(Celsius::new(126.0)));
        let gan = DeratingModel::for_technology(DeviceTechnology::GaN);
        assert!(gan.within_rating(Celsius::new(150.0)));
    }

    #[test]
    fn custom_model() {
        let m = DeratingModel::new(0.01, Celsius::new(100.0));
        assert!((m.loss_factor(Celsius::new(75.0)) - 1.5).abs() < 1e-12);
        assert_eq!(m.t_max(), Celsius::new(100.0));
    }
}
