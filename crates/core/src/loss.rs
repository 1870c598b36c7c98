//! PCB-to-POL loss breakdowns — the data behind Figure 7.

use vpd_units::{Efficiency, Watts};

/// What a loss segment physically is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LossKind {
    /// Power-conversion loss (switching, conduction, passives, droop) of
    /// one stage (1-indexed; single-stage architectures use stage 1).
    Conversion {
        /// Which conversion stage.
        stage: u8,
    },
    /// Laterally routed interconnect (PCB traces, interposer bus).
    Horizontal,
    /// The 1 V distribution-mesh spreading loss on the die/interposer.
    GridSpreading,
    /// A vertical interconnect level (BGA, C4, TSV, µ-bump/pad).
    Vertical,
}

/// One named loss contribution.
#[derive(Clone, PartialEq, Debug)]
pub struct LossSegment {
    /// Display name (e.g. `"C4"`, `"VR stage 2"`).
    pub name: String,
    /// Physical category.
    pub kind: LossKind,
    /// Dissipated power.
    pub power: Watts,
}

/// A complete PCB-to-POL loss decomposition for one architecture.
///
/// ```
/// use vpd_core::{LossBreakdown, LossKind, LossSegment};
/// use vpd_units::Watts;
///
/// let mut b = LossBreakdown::new(Watts::from_kilowatts(1.0));
/// b.push(LossSegment {
///     name: "horizontal PCB".into(),
///     kind: LossKind::Horizontal,
///     power: Watts::new(280.0),
/// });
/// assert!((b.total().value() - 280.0).abs() < 1e-12);
/// assert!((b.percent_of_pol_power(b.total()) - 28.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct LossBreakdown {
    pol_power: Watts,
    segments: Vec<LossSegment>,
}

impl LossBreakdown {
    /// Creates an empty breakdown for a system delivering `pol_power`.
    #[must_use]
    pub fn new(pol_power: Watts) -> Self {
        Self {
            pol_power,
            segments: Vec::new(),
        }
    }

    /// Appends a segment (zero-power segments are kept: the harness
    /// prints them to show a level is present but negligible).
    pub fn push(&mut self, segment: LossSegment) {
        self.segments.push(segment);
    }

    /// The segments in insertion order.
    #[must_use]
    pub fn segments(&self) -> &[LossSegment] {
        &self.segments
    }

    /// Nominal POL power of the system.
    #[must_use]
    pub fn pol_power(&self) -> Watts {
        self.pol_power
    }

    /// Sum of all losses.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.segments.iter().map(|s| s.power).sum()
    }

    /// Sum of losses of one kind category (ignoring the stage index for
    /// conversion).
    #[must_use]
    pub fn by_kind(&self, kind: LossKind) -> Watts {
        self.segments
            .iter()
            .filter(|s| std::mem::discriminant(&s.kind) == std::mem::discriminant(&kind))
            .map(|s| s.power)
            .sum()
    }

    /// Total conversion loss (all stages, including droop).
    #[must_use]
    pub fn conversion_loss(&self) -> Watts {
        self.by_kind(LossKind::Conversion { stage: 1 })
    }

    /// Total lateral routing loss (PCB + interposer bus), excluding the
    /// die-grid spreading term.
    #[must_use]
    pub fn horizontal_loss(&self) -> Watts {
        self.by_kind(LossKind::Horizontal)
    }

    /// Total vertical interconnect loss.
    #[must_use]
    pub fn vertical_loss(&self) -> Watts {
        self.by_kind(LossKind::Vertical)
    }

    /// Die/interposer mesh spreading loss.
    #[must_use]
    pub fn grid_loss(&self) -> Watts {
        self.by_kind(LossKind::GridSpreading)
    }

    /// Total PPDN (non-conversion) loss: horizontal + vertical + grid.
    #[must_use]
    pub fn ppdn_loss(&self) -> Watts {
        self.horizontal_loss() + self.vertical_loss() + self.grid_loss()
    }

    /// A power expressed as percent of the nominal POL power — the
    /// paper's Figure 7 y-axis ("per cent of the total power available
    /// at the PCB", with the 1 kW nominal).
    #[must_use]
    pub fn percent_of_pol_power(&self, p: Watts) -> f64 {
        p.percent_of(self.pol_power)
    }

    /// End-to-end delivery efficiency: `P_pol / (P_pol + losses)`.
    ///
    /// # Panics
    ///
    /// Never in practice: the ratio is in `(0, 1]` for non-negative
    /// losses and positive POL power.
    #[must_use]
    pub fn end_to_end_efficiency(&self) -> Efficiency {
        let pol = self.pol_power.value();
        Efficiency::new(pol / (pol + self.total().value()))
            .expect("non-negative losses keep efficiency in (0, 1]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LossBreakdown {
        let mut b = LossBreakdown::new(Watts::from_kilowatts(1.0));
        for (name, kind, p) in [
            ("VR stage 1", LossKind::Conversion { stage: 1 }, 44.0),
            ("VR stage 2", LossKind::Conversion { stage: 2 }, 95.0),
            ("PCB 48V", LossKind::Horizontal, 6.0),
            ("bus 12V", LossKind::Horizontal, 8.7),
            ("spreading", LossKind::GridSpreading, 8.0),
            ("BGA", LossKind::Vertical, 0.1),
            ("C4", LossKind::Vertical, 0.05),
        ] {
            b.push(LossSegment {
                name: name.into(),
                kind,
                power: Watts::new(p),
            });
        }
        b
    }

    #[test]
    fn totals_decompose_exactly() {
        let b = sample();
        let sum = b.conversion_loss() + b.horizontal_loss() + b.vertical_loss() + b.grid_loss();
        assert!(b.total().approx_eq(sum, 1e-12));
        assert!((b.total().value() - 161.85).abs() < 1e-9);
    }

    #[test]
    fn conversion_aggregates_both_stages() {
        let b = sample();
        assert!((b.conversion_loss().value() - 139.0).abs() < 1e-12);
    }

    #[test]
    fn ppdn_excludes_conversion() {
        let b = sample();
        assert!((b.ppdn_loss().value() - 22.85).abs() < 1e-9);
    }

    #[test]
    fn efficiency_from_losses() {
        let b = sample();
        let eta = b.end_to_end_efficiency();
        assert!((eta.fraction() - 1000.0 / 1161.85).abs() < 1e-9);
    }

    #[test]
    fn percent_axis() {
        let b = sample();
        assert!((b.percent_of_pol_power(Watts::new(420.0)) - 42.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_lossless() {
        let b = LossBreakdown::new(Watts::from_kilowatts(1.0));
        assert!(b.total().is_zero());
        assert!((b.end_to_end_efficiency().fraction() - 1.0).abs() < 1e-12);
    }
}
