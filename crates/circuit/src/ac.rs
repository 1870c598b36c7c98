//! Small-signal AC (phasor) analysis.
//!
//! Builds the complex MNA system at each frequency: resistors stamp
//! `1/R`, capacitors `jωC`, inductors `1/(jωL)`, switches their `t = 0`
//! resistance. DC voltage sources are AC shorts (their constraint rows
//! stay with a zero phasor); DC current sources are AC opens. The two
//! entry points are the PDN designer's staples: driving-point
//! **impedance** at a node and a **transfer function** from a chosen
//! source. [`AcPlan`] is the one AC path: it walks the netlist once and
//! restamps values per frequency.

use crate::netlist::{ElementKind, SwitchState};
use crate::{CircuitError, ElementId, Netlist, NodeId};
use vpd_numeric::{Complex, ComplexLu, ComplexMatrix};
use vpd_units::{Farads, Henries, Hertz, Ohms};

/// One point of an AC sweep.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AcPoint {
    /// Sweep frequency.
    pub frequency: Hertz,
    /// Complex response (impedance in ohms, or dimensionless gain).
    pub response: Complex,
}

impl AcPoint {
    /// Magnitude of the response.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        self.response.abs()
    }

    /// Phase in degrees.
    #[must_use]
    pub fn phase_degrees(&self) -> f64 {
        self.response.arg().to_degrees()
    }
}

/// What drives the system at a frequency point.
#[derive(Clone, Copy, Debug)]
enum Stimulus {
    /// 1 A phasor injected into the node.
    CurrentInto(NodeId),
    /// Unit phasor on the given voltage source.
    UnitVoltage(ElementId),
}

/// One compiled stamp of the complex MNA system, in netlist element
/// order so a restamp replays exactly the operations a from-scratch
/// assembly would perform.
#[derive(Clone, Copy, Debug)]
enum PlanOp {
    /// A two-terminal admittance between the (ground-dropped) node
    /// indices `a` and `b`.
    Admittance {
        a: Option<usize>,
        b: Option<usize>,
        kind: AdmittanceKind,
    },
    /// A voltage-source constraint row.
    Source {
        /// The element index (matched against the driven source).
        element: usize,
        a: Option<usize>,
        b: Option<usize>,
        row: usize,
    },
}

/// Frequency dependence of a compiled admittance stamp.
#[derive(Clone, Copy, Debug)]
enum AdmittanceKind {
    /// `y = g` (resistors and switches at their `t = 0` state).
    Conductance(f64),
    /// `y = jωc`.
    Capacitance(f64),
    /// `y = −j/(ωl)`.
    Inductance(f64),
}

/// A compiled AC solve plan: the netlist is walked **once** — elements
/// classified, the MNA index map and voltage-source rows fixed — and
/// every frequency point then restamps only values into one reusable
/// [`ComplexMatrix`], factoring with [`ComplexLu::factor_into`] and
/// solving with [`ComplexLu::solve_into`] so a sweep performs **zero
/// allocations per point after warm-up**.
///
/// Every point is assembled in netlist element order with the same
/// expressions a from-scratch assembly would use, so a restamped plan is
/// bitwise-identical to a freshly compiled one. The plan is `Clone`, and
/// each point depends only on the compiled values and the frequency, so
/// cloned plans on worker threads produce results identical to a serial
/// sweep.
///
/// ```
/// use vpd_circuit::{AcPlan, Netlist};
/// use vpd_units::{Farads, Hertz, Ohms, Volts};
///
/// # fn main() -> Result<(), vpd_circuit::CircuitError> {
/// // 1 µF decap: |Z| = 1/(ωC) ≈ 159 Ω at 1 kHz.
/// let mut net = Netlist::new();
/// let n = net.node("pdn");
/// net.capacitor(n, net.ground(), Farads::from_microfarads(1.0), Volts::ZERO)?;
/// net.resistor(n, net.ground(), Ohms::new(1e6))?; // dc path
/// let mut plan = AcPlan::compile(&net);
/// let z = plan.impedance_at(n, Hertz::from_kilohertz(1.0))?;
/// assert!((z.magnitude() - 159.15).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AcPlan {
    /// Unknown node voltages (ground dropped).
    nv: usize,
    /// Node count of the compiled netlist, for stimulus validation.
    node_count: usize,
    /// Element count of the compiled netlist, for stimulus validation.
    element_count: usize,
    /// Stamps in element order.
    ops: Vec<PlanOp>,
    /// Element index → op index (`None` for current sources, which
    /// stamp nothing), so value restamps can find their stamp.
    op_index: Vec<Option<usize>>,
    /// Element indices of the voltage sources, in element order.
    sources: Vec<usize>,
    /// Reusable MNA matrix (`dim × dim`).
    matrix: ComplexMatrix,
    /// Reusable right-hand side.
    rhs: Vec<Complex>,
    /// Reusable factorization (matrix + permutation buffers).
    lu: ComplexLu,
    /// Reusable solution buffer.
    x: Vec<Complex>,
}

impl AcPlan {
    /// Compiles the netlist into a reusable plan. Switches are frozen
    /// at their `t = 0` state.
    #[must_use]
    pub fn compile(net: &Netlist) -> Self {
        vpd_obs::incr("ac.plan_builds");
        let nv = net.node_count() - 1;
        let idx = |n: NodeId| -> Option<usize> {
            let i = n.index();
            (i > 0).then(|| i - 1)
        };
        let mut sources = Vec::new();
        let mut ops = Vec::with_capacity(net.elements().len());
        let mut op_index = Vec::with_capacity(net.elements().len());
        for (i, e) in net.elements().iter().enumerate() {
            let (a, b) = (idx(e.a), idx(e.b));
            op_index.push(match e.kind {
                ElementKind::CurrentSource { .. } | ElementKind::RampCurrentSource { .. } => None,
                _ => Some(ops.len()),
            });
            match &e.kind {
                ElementKind::Resistor { r } => ops.push(PlanOp::Admittance {
                    a,
                    b,
                    kind: AdmittanceKind::Conductance(1.0 / r.value()),
                }),
                ElementKind::Switch {
                    r_on,
                    r_off,
                    schedule,
                    initial,
                } => {
                    let state = schedule.map_or(*initial, |s| s.state_at(0.0));
                    let r = match state {
                        SwitchState::On => r_on.value(),
                        SwitchState::Off => r_off.value(),
                    };
                    ops.push(PlanOp::Admittance {
                        a,
                        b,
                        kind: AdmittanceKind::Conductance(1.0 / r),
                    });
                }
                ElementKind::Capacitor { c, .. } => ops.push(PlanOp::Admittance {
                    a,
                    b,
                    kind: AdmittanceKind::Capacitance(c.value()),
                }),
                ElementKind::Inductor { l, .. } => ops.push(PlanOp::Admittance {
                    a,
                    b,
                    kind: AdmittanceKind::Inductance(l.value()),
                }),
                ElementKind::VoltageSource { .. } => {
                    ops.push(PlanOp::Source {
                        element: i,
                        a,
                        b,
                        row: nv + sources.len(),
                    });
                    sources.push(i);
                }
                ElementKind::CurrentSource { .. } | ElementKind::RampCurrentSource { .. } => {
                    // DC bias sources are AC opens: no stamp.
                }
            }
        }
        let dim = nv + sources.len();
        Self {
            nv,
            node_count: net.node_count(),
            element_count: net.elements().len(),
            ops,
            op_index,
            sources,
            matrix: ComplexMatrix::zeros(dim, dim),
            rhs: vec![Complex::ZERO; dim],
            lu: ComplexLu::new(&ComplexMatrix::zeros(0, 0)).expect("0×0 factors trivially"),
            x: Vec::with_capacity(dim),
        }
    }

    /// The compiled system dimension (unknown voltages plus source
    /// currents).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.nv + self.sources.len()
    }

    /// The compiled admittance stamp for `element`, for value restamps.
    fn stamp_mut(
        &mut self,
        element: ElementId,
        what: &'static str,
        value: f64,
    ) -> Result<&mut AdmittanceKind, CircuitError> {
        if element.index() >= self.element_count {
            return Err(CircuitError::UnknownElement {
                index: element.index(),
            });
        }
        let Some(slot) = self.op_index[element.index()] else {
            return Err(CircuitError::InvalidValue {
                element: what,
                value,
            });
        };
        match &mut self.ops[slot] {
            PlanOp::Admittance { kind, .. } => Ok(kind),
            PlanOp::Source { .. } => Err(CircuitError::InvalidValue {
                element: what,
                value,
            }),
        }
    }

    /// Restamps a compiled conductance stamp (a resistor, or a switch
    /// frozen at `t = 0`) to resistance `r`, baking `1/r` exactly as
    /// [`AcPlan::compile`] would, so a restamped plan is
    /// bitwise-identical to one compiled from the edited netlist.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a foreign element id.
    /// * [`CircuitError::InvalidValue`] when the element's stamp is not
    ///   a conductance, or `r` is non-positive or non-finite.
    pub fn set_resistance(&mut self, element: ElementId, r: Ohms) -> Result<(), CircuitError> {
        if !(r.value() > 0.0 && r.value().is_finite()) {
            return Err(CircuitError::InvalidValue {
                element: "ac set_resistance",
                value: r.value(),
            });
        }
        match self.stamp_mut(element, "set_resistance on non-conductance", r.value())? {
            AdmittanceKind::Conductance(g) => {
                *g = 1.0 / r.value();
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_resistance on non-conductance",
                value: r.value(),
            }),
        }
    }

    /// Restamps a compiled capacitor stamp to capacitance `c`, exactly
    /// as [`AcPlan::compile`] would bake it.
    ///
    /// # Errors
    ///
    /// As for [`AcPlan::set_resistance`], for capacitor stamps.
    pub fn set_capacitance(&mut self, element: ElementId, c: Farads) -> Result<(), CircuitError> {
        if !(c.value() > 0.0 && c.value().is_finite()) {
            return Err(CircuitError::InvalidValue {
                element: "ac set_capacitance",
                value: c.value(),
            });
        }
        match self.stamp_mut(element, "set_capacitance on non-capacitor", c.value())? {
            AdmittanceKind::Capacitance(v) => {
                *v = c.value();
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_capacitance on non-capacitor",
                value: c.value(),
            }),
        }
    }

    /// Restamps a compiled inductor stamp to inductance `l`, exactly
    /// as [`AcPlan::compile`] would bake it.
    ///
    /// # Errors
    ///
    /// As for [`AcPlan::set_resistance`], for inductor stamps.
    pub fn set_inductance(&mut self, element: ElementId, l: Henries) -> Result<(), CircuitError> {
        if !(l.value() > 0.0 && l.value().is_finite()) {
            return Err(CircuitError::InvalidValue {
                element: "ac set_inductance",
                value: l.value(),
            });
        }
        match self.stamp_mut(element, "set_inductance on non-inductor", l.value())? {
            AdmittanceKind::Inductance(v) => {
                *v = l.value();
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_inductance on non-inductor",
                value: l.value(),
            }),
        }
    }

    /// Driving-point impedance at `node` (vs. ground) at one frequency:
    /// a 1 A phasor is injected and the node voltage is the impedance.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownNode`] for a foreign node or ground.
    /// * [`CircuitError::InvalidValue`] for a non-positive or
    ///   non-finite frequency.
    /// * [`CircuitError::Numeric`] when the complex solve fails.
    pub fn impedance_at(&mut self, node: NodeId, f: Hertz) -> Result<AcPoint, CircuitError> {
        if node.index() == 0 || node.index() >= self.node_count {
            return Err(CircuitError::UnknownNode {
                index: node.index(),
            });
        }
        self.solve_at(f, Stimulus::CurrentInto(node))?;
        Ok(AcPoint {
            frequency: f,
            response: self.x[node.index() - 1],
        })
    }

    /// Driving-point impedance across `freqs`, restamping per point.
    ///
    /// # Errors
    ///
    /// As for [`AcPlan::impedance_at`].
    pub fn impedance(
        &mut self,
        node: NodeId,
        freqs: &[Hertz],
    ) -> Result<Vec<AcPoint>, CircuitError> {
        freqs.iter().map(|&f| self.impedance_at(node, f)).collect()
    }

    /// Voltage transfer function from a (DC-defined) voltage source to
    /// `output` at one frequency: the source is driven with a unit
    /// phasor, every other source is shorted.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] when `source` is not an
    ///   element of the compiled netlist.
    /// * [`CircuitError::NotAVoltageSource`] when it exists but is some
    ///   other element kind.
    /// * As for [`AcPlan::impedance_at`] otherwise.
    pub fn transfer_at(
        &mut self,
        source: ElementId,
        output: NodeId,
        f: Hertz,
    ) -> Result<AcPoint, CircuitError> {
        if source.index() >= self.element_count {
            return Err(CircuitError::UnknownElement {
                index: source.index(),
            });
        }
        if !self.sources.contains(&source.index()) {
            return Err(CircuitError::NotAVoltageSource {
                index: source.index(),
            });
        }
        if output.index() >= self.node_count {
            return Err(CircuitError::UnknownNode {
                index: output.index(),
            });
        }
        self.solve_at(f, Stimulus::UnitVoltage(source))?;
        let v = if output.index() == 0 {
            Complex::ZERO
        } else {
            self.x[output.index() - 1]
        };
        Ok(AcPoint {
            frequency: f,
            response: v,
        })
    }

    /// Voltage transfer function across `freqs`, restamping per point.
    ///
    /// # Errors
    ///
    /// As for [`AcPlan::transfer_at`].
    pub fn transfer(
        &mut self,
        source: ElementId,
        output: NodeId,
        freqs: &[Hertz],
    ) -> Result<Vec<AcPoint>, CircuitError> {
        freqs
            .iter()
            .map(|&f| self.transfer_at(source, output, f))
            .collect()
    }

    /// Restamps, refactors, and solves at one frequency into the
    /// plan's buffers, leaving the solution in `self.x`.
    fn solve_at(&mut self, f: Hertz, stimulus: Stimulus) -> Result<(), CircuitError> {
        if !(f.value() > 0.0 && f.value().is_finite()) {
            return Err(CircuitError::InvalidValue {
                element: "ac frequency",
                value: f.value(),
            });
        }
        vpd_obs::incr("ac.points");
        let omega = 2.0 * std::f64::consts::PI * f.value();
        let a = &mut self.matrix;
        a.fill(Complex::ZERO);
        self.rhs.fill(Complex::ZERO);
        for op in &self.ops {
            match *op {
                PlanOp::Admittance { a: na, b: nb, kind } => {
                    let y = match kind {
                        AdmittanceKind::Conductance(g) => Complex::from_real(g),
                        AdmittanceKind::Capacitance(c) => Complex::new(0.0, omega * c),
                        AdmittanceKind::Inductance(l) => Complex::new(0.0, -1.0 / (omega * l)),
                    };
                    if let Some(i) = na {
                        a.add_at(i, i, y);
                    }
                    if let Some(j) = nb {
                        a.add_at(j, j, y);
                    }
                    if let (Some(i), Some(j)) = (na, nb) {
                        a.add_at(i, j, -y);
                        a.add_at(j, i, -y);
                    }
                }
                PlanOp::Source {
                    element,
                    a: na,
                    b: nb,
                    row,
                } => {
                    if let Some(ia) = na {
                        a.add_at(ia, row, Complex::ONE);
                        a.add_at(row, ia, Complex::ONE);
                    }
                    if let Some(ib) = nb {
                        a.add_at(ib, row, -Complex::ONE);
                        a.add_at(row, ib, -Complex::ONE);
                    }
                    self.rhs[row] = match stimulus {
                        Stimulus::UnitVoltage(id) if id.index() == element => Complex::ONE,
                        _ => Complex::ZERO,
                    };
                }
            }
        }
        if let Stimulus::CurrentInto(node) = stimulus {
            if node.index() > 0 {
                self.rhs[node.index() - 1] += Complex::ONE;
            }
        }
        let _span = vpd_obs::span("ac.factor_ns");
        vpd_obs::incr("ac.factorizations");
        self.lu
            .factor_into(&self.matrix)
            .map_err(CircuitError::from)?;
        self.lu
            .solve_into(&self.rhs, &mut self.x)
            .map_err(CircuitError::from)
    }
}

/// Logarithmically spaced frequency grid (decade sweep).
///
/// # Panics
///
/// Panics if `points < 2` or the bounds are not positive and ordered;
/// use [`log_sweep_checked`] for user-supplied inputs.
#[must_use]
pub fn log_sweep(start: Hertz, stop: Hertz, points: usize) -> Vec<Hertz> {
    assert!(points >= 2, "need at least two sweep points");
    assert!(
        start.value() > 0.0 && stop.value() > start.value(),
        "need 0 < start < stop"
    );
    log_sweep_checked(start, stop, points).expect("bounds validated above")
}

/// Logarithmically spaced frequency grid (decade sweep), validating
/// instead of panicking, so CLI-reachable inputs return typed errors.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidValue`] when `points < 2`, either
/// bound is non-finite or non-positive, or `stop ≤ start`.
pub fn log_sweep_checked(
    start: Hertz,
    stop: Hertz,
    points: usize,
) -> Result<Vec<Hertz>, CircuitError> {
    if points < 2 {
        return Err(CircuitError::InvalidValue {
            element: "sweep point count (need at least 2)",
            value: points as f64,
        });
    }
    if !(start.value() > 0.0 && start.value().is_finite()) {
        return Err(CircuitError::InvalidValue {
            element: "sweep start frequency",
            value: start.value(),
        });
    }
    if !(stop.value() > start.value() && stop.value().is_finite()) {
        return Err(CircuitError::InvalidValue {
            element: "sweep stop frequency (need start < stop)",
            value: stop.value(),
        });
    }
    let l0 = start.value().log10();
    let l1 = stop.value().log10();
    Ok((0..points)
        .map(|k| {
            let t = k as f64 / (points - 1) as f64;
            Hertz::new(10f64.powf(l0 + t * (l1 - l0)))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_units::{Amps, Farads, Henries, Ohms, Volts};

    #[test]
    fn resistor_impedance_is_flat() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.resistor(n, net.ground(), Ohms::new(42.0)).unwrap();
        let sweep = AcPlan::compile(&net)
            .impedance(
                n,
                &log_sweep(Hertz::new(1.0), Hertz::from_megahertz(1.0), 5),
            )
            .unwrap();
        for p in sweep {
            assert!((p.magnitude() - 42.0).abs() < 1e-9);
            assert!(p.phase_degrees().abs() < 1e-9);
        }
    }

    #[test]
    fn capacitor_impedance_falls_at_20db_per_decade() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.capacitor(n, net.ground(), Farads::from_microfarads(1.0), Volts::ZERO)
            .unwrap();
        net.resistor(n, net.ground(), Ohms::new(1e9)).unwrap();
        let mut plan = AcPlan::compile(&net);
        let z1 = plan
            .impedance_at(n, Hertz::from_kilohertz(1.0))
            .unwrap()
            .magnitude();
        let z10 = plan
            .impedance_at(n, Hertz::from_kilohertz(10.0))
            .unwrap()
            .magnitude();
        assert!((z1 / z10 - 10.0).abs() < 1e-3);
    }

    #[test]
    fn series_rlc_resonates() {
        // L-C in series to ground through R: |Z| at the node dips to R at
        // f0 = 1/(2π√LC).
        let mut net = Netlist::new();
        let n = net.node("pdn");
        let mid = net.node("mid");
        net.resistor(n, mid, Ohms::from_milliohms(10.0)).unwrap();
        net.inductor(
            mid,
            net.ground(),
            Henries::from_nanohenries(100.0),
            Amps::ZERO,
        )
        .unwrap();
        net.capacitor(
            n,
            net.ground(),
            Farads::from_microfarads(100.0),
            Volts::ZERO,
        )
        .unwrap();
        net.resistor(n, net.ground(), Ohms::new(1e6)).unwrap();
        let mut plan = AcPlan::compile(&net);
        // Antiresonance: parallel L (through R) and C peak between the
        // two corners; check the L-branch dominates low f and C high f.
        let lo = plan.impedance_at(n, Hertz::new(100.0)).unwrap().magnitude();
        let hi = plan
            .impedance_at(n, Hertz::from_megahertz(100.0))
            .unwrap()
            .magnitude();
        let peak_band = plan
            .impedance(
                n,
                &log_sweep(Hertz::from_kilohertz(10.0), Hertz::from_megahertz(10.0), 40),
            )
            .unwrap();
        let peak = peak_band.iter().map(AcPoint::magnitude).fold(0.0, f64::max);
        assert!(peak > lo && peak > hi, "antiresonant peak {peak}");
    }

    #[test]
    fn rc_lowpass_transfer() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        let src = net
            .voltage_source(vin, net.ground(), Volts::new(1.0))
            .unwrap();
        net.resistor(vin, out, Ohms::new(1000.0)).unwrap();
        net.capacitor(
            out,
            net.ground(),
            Farads::from_microfarads(1.0),
            Volts::ZERO,
        )
        .unwrap();
        let mut plan = AcPlan::compile(&net);
        // Corner at 1/(2πRC) ≈ 159 Hz: gain 1/√2, phase −45°.
        let corner = Hertz::new(1.0 / (2.0 * std::f64::consts::PI * 1e-3));
        let p = plan.transfer_at(src, out, corner).unwrap();
        assert!((p.magnitude() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!((p.phase_degrees() + 45.0).abs() < 1e-6);
        // Well below the corner, gain ≈ 1.
        let dc_ish = plan.transfer_at(src, out, Hertz::new(0.1)).unwrap();
        assert!((dc_ish.magnitude() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn validation_paths() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.resistor(n, net.ground(), Ohms::new(1.0)).unwrap();
        let mut plan = AcPlan::compile(&net);
        assert!(plan.impedance(net.ground(), &[Hertz::new(1.0)]).is_err());
        assert!(plan.impedance(n, &[Hertz::new(0.0)]).is_err());
        // `transfer` on a non-voltage-source element.
        assert!(plan.transfer(ElementId(0), n, &[Hertz::new(1.0)]).is_err());
    }

    #[test]
    fn log_sweep_shape() {
        let grid = log_sweep(Hertz::new(1.0), Hertz::new(1000.0), 4);
        assert_eq!(grid.len(), 4);
        assert!((grid[1].value() - 10.0).abs() < 1e-9);
        assert!((grid[2].value() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn log_sweep_rejects_single_point() {
        let _ = log_sweep(Hertz::new(1.0), Hertz::new(10.0), 1);
    }

    #[test]
    fn log_sweep_checked_rejects_bad_inputs_with_typed_errors() {
        let ok = log_sweep_checked(Hertz::new(1.0), Hertz::new(1000.0), 4).unwrap();
        assert_eq!(ok, log_sweep(Hertz::new(1.0), Hertz::new(1000.0), 4));
        for (start, stop, points) in [
            (1.0, 10.0, 0),
            (1.0, 10.0, 1),
            (0.0, 10.0, 5),
            (-2.0, 10.0, 5),
            (f64::NAN, 10.0, 5),
            (10.0, 10.0, 5),
            (10.0, 1.0, 5),
            (1.0, f64::INFINITY, 5),
            (1.0, f64::NAN, 5),
        ] {
            let got = log_sweep_checked(Hertz::new(start), Hertz::new(stop), points);
            assert!(
                matches!(got, Err(CircuitError::InvalidValue { .. })),
                "({start}, {stop}, {points}) must be rejected, got {got:?}"
            );
        }
    }

    /// An A0-style RLC ladder: voltage source behind an RL, two decap
    /// stages, a load node.
    fn ladder() -> (Netlist, NodeId) {
        let mut net = Netlist::new();
        let vr = net.node("vr");
        let board = net.node("board");
        let die = net.node("die");
        let g = net.ground();
        net.voltage_source(vr, g, Volts::new(1.0)).unwrap();
        net.resistor(vr, board, Ohms::from_milliohms(0.5)).unwrap();
        net.inductor(board, die, Henries::from_nanohenries(15.0), Amps::ZERO)
            .unwrap();
        let bulk = net.node("bulk");
        net.capacitor(board, bulk, Farads::from_microfarads(200.0), Volts::ZERO)
            .unwrap();
        net.resistor(bulk, g, Ohms::from_milliohms(0.2)).unwrap();
        net.capacitor(die, g, Farads::from_microfarads(2.0), Volts::ZERO)
            .unwrap();
        net.resistor(die, g, Ohms::new(1e4)).unwrap();
        (net, die)
    }

    #[test]
    fn plan_matches_analytic_rc_answers() {
        // 1 µF to ground: |Z| = 1/(ωC) ≈ 159 Ω at 1 kHz, phase −90°.
        let mut net = Netlist::new();
        let n = net.node("n");
        net.capacitor(n, net.ground(), Farads::from_microfarads(1.0), Volts::ZERO)
            .unwrap();
        net.resistor(n, net.ground(), Ohms::new(1e9)).unwrap();
        let mut plan = AcPlan::compile(&net);
        let p = plan.impedance_at(n, Hertz::from_kilohertz(1.0)).unwrap();
        assert!((p.magnitude() - 159.15).abs() < 0.5);
        assert!((p.phase_degrees() + 90.0).abs() < 0.1);
    }

    #[test]
    fn analysis_transfer_reports_precise_error_kinds() {
        let (net, die) = ladder();
        let mut plan = AcPlan::compile(&net);
        // Exists but is a resistor → NotAVoltageSource, not
        // UnknownElement (the old misleading diagnostic).
        assert!(matches!(
            plan.transfer(ElementId(1), die, &[Hertz::new(1.0)]),
            Err(CircuitError::NotAVoltageSource { index: 1 })
        ));
        assert!(matches!(
            plan.transfer(ElementId(999), die, &[Hertz::new(1.0)]),
            Err(CircuitError::UnknownElement { .. })
        ));
    }

    #[test]
    fn value_restamp_is_bitwise_identical_to_fresh_compile() {
        // Build the same ladder twice: one plan restamped to the
        // degraded values, one compiled from a netlist carrying them
        // from the start. Every sweep point must agree bitwise.
        let build = |r_series: Ohms, l_series: Henries, c_bulk: Farads| {
            let mut net = Netlist::new();
            let vr = net.node("vr");
            let board = net.node("board");
            let die = net.node("die");
            let bulk = net.node("bulk");
            let g = net.ground();
            net.voltage_source(vr, g, Volts::new(1.0)).unwrap();
            let r = net.resistor(vr, board, r_series).unwrap();
            let l = net.inductor(board, die, l_series, Amps::ZERO).unwrap();
            let c = net.capacitor(board, bulk, c_bulk, Volts::ZERO).unwrap();
            net.resistor(bulk, g, Ohms::from_milliohms(0.2)).unwrap();
            net.resistor(die, g, Ohms::new(1e4)).unwrap();
            (net, die, r, l, c)
        };
        let (nominal, die, r, l, c) = build(
            Ohms::from_milliohms(0.5),
            Henries::from_nanohenries(15.0),
            Farads::from_microfarads(200.0),
        );
        let (r2, l2, c2) = (
            Ohms::from_milliohms(2.5),
            Henries::from_nanohenries(45.0),
            Farads::from_microfarads(50.0),
        );
        let (faulted, die2, ..) = build(r2, l2, c2);
        assert_eq!(die, die2);
        let mut restamped = AcPlan::compile(&nominal);
        restamped.set_resistance(r, r2).unwrap();
        restamped.set_inductance(l, l2).unwrap();
        restamped.set_capacitance(c, c2).unwrap();
        let mut scratch = AcPlan::compile(&faulted);
        let freqs = log_sweep(Hertz::new(1e3), Hertz::new(1e9), 40);
        assert_eq!(
            restamped.impedance(die, &freqs).unwrap(),
            scratch.impedance(die, &freqs).unwrap()
        );
    }

    #[test]
    fn value_restamp_rejects_bad_targets_and_values() {
        let mut net = Netlist::new();
        let n = net.node("n");
        let g = net.ground();
        let src = net.voltage_source(n, g, Volts::new(1.0)).unwrap();
        let r = net.resistor(n, g, Ohms::new(1.0)).unwrap();
        let c = net
            .capacitor(n, g, Farads::from_microfarads(1.0), Volts::ZERO)
            .unwrap();
        let i = net.current_source(n, g, Amps::new(1.0)).unwrap();
        let mut plan = AcPlan::compile(&net);
        // Kind mismatches.
        assert!(matches!(
            plan.set_resistance(c, Ohms::new(1.0)),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            plan.set_capacitance(r, Farads::new(1e-6)),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            plan.set_inductance(r, Henries::new(1e-9)),
            Err(CircuitError::InvalidValue { .. })
        ));
        // Sources carry no admittance stamp at all.
        assert!(matches!(
            plan.set_resistance(src, Ohms::new(1.0)),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            plan.set_resistance(i, Ohms::new(1.0)),
            Err(CircuitError::InvalidValue { .. })
        ));
        // Foreign ids and non-physical values.
        assert!(matches!(
            plan.set_resistance(ElementId(999), Ohms::new(1.0)),
            Err(CircuitError::UnknownElement { .. })
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(plan.set_resistance(r, Ohms::new(bad)).is_err());
            assert!(plan.set_capacitance(c, Farads::new(bad)).is_err());
        }
    }

    #[test]
    fn cloned_plans_solve_independently_and_identically() {
        let (net, die) = ladder();
        let freqs = log_sweep(Hertz::new(1e3), Hertz::new(1e8), 16);
        let mut plan = AcPlan::compile(&net);
        let mut clone = plan.clone();
        // Interleave solves in opposite orders; every point must agree.
        let forward: Vec<AcPoint> = freqs
            .iter()
            .map(|&f| plan.impedance_at(die, f).unwrap())
            .collect();
        let backward: Vec<AcPoint> = freqs
            .iter()
            .rev()
            .map(|&f| clone.impedance_at(die, f).unwrap())
            .collect();
        for (p, q) in forward.iter().zip(backward.iter().rev()) {
            assert_eq!(p, q);
        }
    }
}
