//! Electrical quantities: voltage, current, resistance, conductance,
//! power, charge, and energy.

quantity! {
    /// Electric potential in volts.
    ///
    /// ```
    /// use vpd_units::Volts;
    /// let bus = Volts::new(48.0);
    /// let pol = Volts::new(1.0);
    /// assert_eq!(bus / pol, 48.0); // conversion ratio is dimensionless
    /// ```
    Volts, symbol: "V"
}

quantity! {
    /// Electric current in amperes.
    ///
    /// ```
    /// use vpd_units::Amps;
    /// let per_vr: Amps = Amps::new(1000.0) / 48.0;
    /// assert!((per_vr.value() - 20.833).abs() < 1e-3);
    /// ```
    Amps, symbol: "A"
}

quantity! {
    /// Electrical resistance in ohms.
    ///
    /// ```
    /// use vpd_units::Ohms;
    /// let r = Ohms::from_milliohms(0.3);
    /// assert_eq!(r.value(), 0.0003);
    /// ```
    Ohms, symbol: "Ω"
}

quantity! {
    /// Electrical conductance in siemens.
    ///
    /// ```
    /// use vpd_units::{Ohms, Siemens};
    /// let g = Siemens::new(2.0);
    /// assert_eq!(g.resistance(), Ohms::new(0.5));
    /// ```
    Siemens, symbol: "S"
}

quantity! {
    /// Power in watts.
    ///
    /// ```
    /// use vpd_units::Watts;
    /// let total: Watts = [Watts::new(100.0), Watts::new(280.0)].into_iter().sum();
    /// assert_eq!(total, Watts::new(380.0));
    /// ```
    Watts, symbol: "W"
}

quantity! {
    /// Electric charge in coulombs (used for gate/output charge).
    ///
    /// ```
    /// use vpd_units::{Coulombs, Hertz};
    /// // Gate-drive current: Q_g * f_sw.
    /// let i = Coulombs::from_nanocoulombs(10.0) * Hertz::from_megahertz(1.0);
    /// assert!((i.value() - 0.01).abs() < 1e-12);
    /// ```
    Coulombs, symbol: "C"
}

quantity! {
    /// Energy in joules (used for per-cycle switching energy).
    ///
    /// ```
    /// use vpd_units::{Hertz, Joules};
    /// let p = Joules::from_microjoules(2.0) * Hertz::from_megahertz(1.0);
    /// assert!((p.value() - 2.0).abs() < 1e-12);
    /// ```
    Joules, symbol: "J"
}

impl Volts {
    /// Creates a voltage from millivolts.
    #[must_use]
    pub const fn from_millivolts(mv: f64) -> Self {
        Self::new(mv * 1e-3)
    }

    /// Value in millivolts.
    #[must_use]
    pub fn as_millivolts(self) -> f64 {
        self.value() * 1e3
    }

    /// Power dissipated across a resistance by this voltage drop: `V²/R`.
    ///
    /// Returns [`Watts::ZERO`] for a zero resistance with zero drop; a zero
    /// resistance with a non-zero drop yields `+∞`, mirroring `f64` division.
    #[must_use]
    pub fn dissipation_across(self, r: Ohms) -> Watts {
        if self.is_zero() && r.is_zero() {
            return Watts::ZERO;
        }
        Watts::new(self.value() * self.value() / r.value())
    }
}

impl Amps {
    /// Creates a current from milliamperes.
    #[must_use]
    pub const fn from_milliamps(ma: f64) -> Self {
        Self::new(ma * 1e-3)
    }

    /// Creates a current from kiloamperes.
    #[must_use]
    pub const fn from_kiloamps(ka: f64) -> Self {
        Self::new(ka * 1e3)
    }

    /// Conduction loss of this current through a resistance: `I²R`.
    ///
    /// ```
    /// use vpd_units::{Amps, Ohms, Watts};
    /// let loss = Amps::new(1000.0).dissipation_in(Ohms::from_milliohms(0.3));
    /// assert_eq!(loss, Watts::new(300.0));
    /// ```
    #[must_use]
    pub fn dissipation_in(self, r: Ohms) -> Watts {
        Watts::new(self.value() * self.value() * r.value())
    }
}

impl Ohms {
    /// Creates a resistance from milliohms.
    #[must_use]
    pub const fn from_milliohms(mohm: f64) -> Self {
        Self::new(mohm * 1e-3)
    }

    /// Creates a resistance from microohms.
    #[must_use]
    pub const fn from_microohms(uohm: f64) -> Self {
        Self::new(uohm * 1e-6)
    }

    /// Value in milliohms.
    #[must_use]
    pub fn as_milliohms(self) -> f64 {
        self.value() * 1e3
    }

    /// The equivalent conductance `1/R`.
    ///
    /// A zero resistance maps to infinite conductance (per `f64` division).
    #[must_use]
    pub fn conductance(self) -> Siemens {
        Siemens::new(1.0 / self.value())
    }

    /// Equivalent resistance of `n` identical resistors in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`: an empty parallel combination has no meaning.
    #[must_use]
    pub fn parallel_of(self, n: usize) -> Self {
        assert!(n > 0, "parallel combination of zero resistors");
        Self::new(self.value() / n as f64)
    }

    /// Equivalent resistance of `n` identical resistors in series.
    #[must_use]
    pub fn series_of(self, n: usize) -> Self {
        Self::new(self.value() * n as f64)
    }
}

impl Siemens {
    /// The equivalent resistance `1/G`.
    #[must_use]
    pub fn resistance(self) -> Ohms {
        Ohms::new(1.0 / self.value())
    }
}

impl Watts {
    /// Creates power from kilowatts.
    #[must_use]
    pub const fn from_kilowatts(kw: f64) -> Self {
        Self::new(kw * 1e3)
    }

    /// Creates power from milliwatts.
    #[must_use]
    pub const fn from_milliwatts(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// This power expressed as a fraction of `total` (e.g. for a
    /// Figure-7-style percent-of-1-kW breakdown).
    #[must_use]
    pub fn fraction_of(self, total: Watts) -> f64 {
        self.value() / total.value()
    }

    /// This power expressed as a percentage of `total`.
    #[must_use]
    pub fn percent_of(self, total: Watts) -> f64 {
        100.0 * self.fraction_of(total)
    }
}

impl Coulombs {
    /// Creates a charge from nanocoulombs (datasheet gate-charge units).
    #[must_use]
    pub const fn from_nanocoulombs(nc: f64) -> Self {
        Self::new(nc * 1e-9)
    }
}

impl Joules {
    /// Creates an energy from microjoules.
    #[must_use]
    pub const fn from_microjoules(uj: f64) -> Self {
        Self::new(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    #[must_use]
    pub const fn from_nanojoules(nj: f64) -> Self {
        Self::new(nj * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_series_scale() {
        let r = Ohms::new(1.0);
        assert_eq!(r.parallel_of(4), Ohms::new(0.25));
        assert_eq!(r.series_of(4), Ohms::new(4.0));
    }

    #[test]
    #[should_panic(expected = "parallel combination of zero resistors")]
    fn parallel_of_zero_panics() {
        let _ = Ohms::new(1.0).parallel_of(0);
    }

    #[test]
    fn conductance_round_trips() {
        let r = Ohms::from_milliohms(5.0);
        assert!(r.conductance().resistance().approx_eq(r, 1e-15));
    }

    #[test]
    fn dissipation_across_zero_over_zero_is_zero() {
        assert_eq!(Volts::ZERO.dissipation_across(Ohms::ZERO), Watts::ZERO);
    }

    #[test]
    fn percent_of_total() {
        let part = Watts::new(420.0);
        let total = Watts::from_kilowatts(1.0);
        assert!((part.percent_of(total) - 42.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(format!("{}", Ohms::from_milliohms(3.3)), "3.300 mΩ");
        assert_eq!(format!("{:.1}", Watts::from_kilowatts(1.0)), "1.0 kW");
        assert_eq!(format!("{}", Volts::new(48.0)), "48.000 V");
    }

    #[test]
    fn sum_over_iterator() {
        let total: Watts = (1..=4).map(|i| Watts::new(f64::from(i))).sum();
        assert_eq!(total, Watts::new(10.0));
    }

    #[test]
    fn f64_from_returns_the_si_value() {
        assert_eq!(f64::from(Amps::new(12.5)), 12.5);
    }
}
