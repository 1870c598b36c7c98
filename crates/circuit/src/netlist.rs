//! Netlist construction: nodes, elements, and validation.

use crate::CircuitError;
use vpd_units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};

/// A node handle within one [`Netlist`].
///
/// Node 0 is always ground; use [`Netlist::ground`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (stable within one netlist).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// An element handle within one [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// The raw index (stable within one netlist).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// On/off state of an ideal switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SwitchState {
    /// Conducting (`r_on`).
    On,
    /// Blocking (`r_off`).
    #[default]
    Off,
}

/// A gate-drive schedule for a switch: periodic PWM, with an optional
/// one-shot **failure event** after which the switch stays off forever.
///
/// The switch is on for the first `duty` fraction of each period, with an
/// optional phase offset in `[0, 1)` of a period. When `off_at` is set,
/// the drive is forced [`SwitchState::Off`] for every `t ≥ off_at` —
/// the "VR dies mid-run" stimulus of dynamic fault studies.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PwmSchedule {
    frequency: Hertz,
    duty: f64,
    phase: f64,
    complement: bool,
    off_at: Option<f64>,
}

impl PwmSchedule {
    /// Creates a schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidDuty`] when `duty` lies outside
    /// `[0, 1]`.
    pub fn new(frequency: Hertz, duty: f64, phase: f64) -> Result<Self, CircuitError> {
        if !(0.0..=1.0).contains(&duty) || !duty.is_finite() {
            return Err(CircuitError::InvalidDuty { duty });
        }
        Ok(Self {
            frequency,
            duty,
            phase: phase.rem_euclid(1.0),
            complement: false,
            off_at: None,
        })
    }

    /// A drive that holds the switch on at every time — the natural base
    /// for [`PwmSchedule::with_failure_at`] when modeling a regulator
    /// that runs until it dies.
    #[must_use]
    pub fn always_on() -> Self {
        Self {
            frequency: Hertz::new(1.0),
            duty: 1.0,
            phase: 0.0,
            complement: false,
            off_at: None,
        }
    }

    /// The complementary (inverted) schedule — for the synchronous switch
    /// of a buck half-bridge.
    ///
    /// Complementing inverts only the periodic drive; a failure event
    /// still forces off (a dead regulator conducts through neither
    /// half-bridge switch).
    #[must_use]
    pub fn complementary(mut self) -> Self {
        self.complement = !self.complement;
        self
    }

    /// The same schedule with a one-shot failure at `at`: the drive is
    /// forced off for every `t ≥ at`, regardless of the periodic
    /// pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for a negative or
    /// non-finite failure time.
    pub fn with_failure_at(mut self, at: Seconds) -> Result<Self, CircuitError> {
        if !(at.value().is_finite() && at.value() >= 0.0) {
            return Err(CircuitError::InvalidValue {
                element: "switch failure time",
                value: at.value(),
            });
        }
        self.off_at = Some(at.value());
        Ok(self)
    }

    /// Switch state at time `t` (seconds).
    #[must_use]
    pub fn state_at(&self, t: f64) -> SwitchState {
        if self.off_at.is_some_and(|dead| t >= dead) {
            return SwitchState::Off;
        }
        let cycle = (t * self.frequency.value() + self.phase).rem_euclid(1.0);
        let on = cycle < self.duty;
        match on ^ self.complement {
            true => SwitchState::On,
            false => SwitchState::Off,
        }
    }

    /// The schedule's switching frequency.
    #[must_use]
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// The on-time fraction.
    #[must_use]
    pub fn duty(&self) -> f64 {
        self.duty
    }

    /// The one-shot failure time, if this drive carries one.
    #[must_use]
    pub fn failure_at(&self) -> Option<Seconds> {
        self.off_at.map(Seconds::new)
    }
}

/// What an element is, with its value(s).
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum ElementKind {
    /// Linear resistor.
    Resistor {
        /// Resistance.
        r: Ohms,
    },
    /// Ideal current source driving `i` from terminal `a` to terminal `b`
    /// through the external circuit (injects into `b`).
    CurrentSource {
        /// Source current.
        i: Amps,
    },
    /// A ramping current source: `before` until `at`, then a linear
    /// ramp reaching `after` at `at + rise` (an ideal step when
    /// `rise = 0`) — the finite-slew load transient. DC analysis uses
    /// `before`; AC treats it as an open (like any bias current source).
    RampCurrentSource {
        /// Current before the ramp starts.
        before: Amps,
        /// Current once the ramp completes.
        after: Amps,
        /// Ramp start time.
        at: Seconds,
        /// Ramp duration (slew window); `0` degenerates to a step.
        rise: Seconds,
    },
    /// Ideal voltage source: `V(a) − V(b) = v`.
    VoltageSource {
        /// Source voltage.
        v: Volts,
    },
    /// Linear capacitor (open in DC).
    Capacitor {
        /// Capacitance.
        c: Farads,
        /// Initial voltage `V(a) − V(b)` for transient runs.
        v0: Volts,
    },
    /// Linear inductor (short in DC).
    Inductor {
        /// Inductance.
        l: Henries,
        /// Initial current (a→b) for transient runs.
        i0: Amps,
    },
    /// Ideal switch modeled as a two-state resistor.
    Switch {
        /// On resistance.
        r_on: Ohms,
        /// Off resistance.
        r_off: Ohms,
        /// Optional periodic drive; `None` means the switch holds
        /// `initial` forever.
        schedule: Option<PwmSchedule>,
        /// State used for DC and at `t = 0` when no schedule applies.
        initial: SwitchState,
    },
}

/// One placed element: kind + terminals + label.
#[derive(Clone, PartialEq, Debug)]
pub struct Element {
    /// What the element is.
    pub kind: ElementKind,
    /// First terminal (`+` for sources).
    pub a: NodeId,
    /// Second terminal (`−` for sources).
    pub b: NodeId,
    /// Human-readable label for diagnostics.
    pub label: String,
}

/// A circuit under construction.
///
/// Nodes are created by label via [`Netlist::node`]; elements are added by
/// the typed builder methods, each of which validates its value
/// ([C-VALIDATE]) and returns an [`ElementId`] usable to query branch
/// results after a solve. A full build-and-solve round trip is shown on
/// [`Netlist::voltage_source`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Netlist {
    node_labels: Vec<String>,
    elements: Vec<Element>,
}

impl Netlist {
    /// Creates a netlist containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_labels: vec!["gnd".to_owned()],
            elements: Vec::new(),
        }
    }

    /// The ground node (reference, 0 V).
    #[must_use]
    pub fn ground(&self) -> NodeId {
        NodeId(0)
    }

    /// Returns the node with this label, creating it if needed.
    ///
    /// The labels `"gnd"` and `"0"` always map to ground.
    pub fn node(&mut self, label: &str) -> NodeId {
        if label == "gnd" || label == "0" {
            return NodeId(0);
        }
        if let Some(idx) = self.node_labels.iter().position(|l| l == label) {
            return NodeId(idx);
        }
        self.node_labels.push(label.to_owned());
        NodeId(self.node_labels.len() - 1)
    }

    /// Creates `n` anonymous nodes.
    pub fn nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n).map(|i| self.node(&format!("{prefix}{i}"))).collect()
    }

    /// Number of nodes, including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of elements.
    #[must_use]
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The label of a node.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] for a foreign id.
    pub fn node_label(&self, node: NodeId) -> Result<&str, CircuitError> {
        self.node_labels
            .get(node.0)
            .map(String::as_str)
            .ok_or(CircuitError::UnknownNode { index: node.0 })
    }

    /// The elements, in insertion order.
    #[must_use]
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The handles of [`Netlist::elements`], in the same order.
    pub fn element_ids(&self) -> impl Iterator<Item = ElementId> {
        (0..self.elements.len()).map(ElementId)
    }

    /// One element by id.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownElement`] for a foreign id.
    pub fn element(&self, id: ElementId) -> Result<&Element, CircuitError> {
        self.elements
            .get(id.0)
            .ok_or(CircuitError::UnknownElement { index: id.0 })
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] for a non-positive or non-finite
    ///   resistance.
    /// * [`CircuitError::DegenerateElement`] when `a == b`.
    /// * [`CircuitError::UnknownNode`] for foreign node ids.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, r: Ohms) -> Result<ElementId, CircuitError> {
        self.check_positive("resistor", r.value())?;
        self.push(ElementKind::Resistor { r }, a, b, "R")
    }

    /// Adds a current source driving `i` from `a` to `b` through the
    /// external circuit (i.e. injecting `i` into node `b`).
    ///
    /// A negative or zero `i` is allowed (loads can be expressed either
    /// way).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] for a non-finite current.
    /// * [`CircuitError::DegenerateElement`] / [`CircuitError::UnknownNode`]
    ///   as for [`Netlist::resistor`].
    pub fn current_source(
        &mut self,
        a: NodeId,
        b: NodeId,
        i: Amps,
    ) -> Result<ElementId, CircuitError> {
        self.check_finite("current source", i.value())?;
        self.push(ElementKind::CurrentSource { i }, a, b, "I")
    }

    /// Adds a ramping current source (`before` until `at`, linear to
    /// `after` over `rise`, then `after`) — the finite-di/dt load
    /// transient for slew studies. `rise = 0` is an ideal step, the
    /// load-step stimulus of droop studies. DC analysis uses the
    /// pre-ramp value.
    ///
    /// # Errors
    ///
    /// As for [`Netlist::current_source`], plus
    /// [`CircuitError::InvalidValue`] for a negative or non-finite start
    /// or rise time.
    pub fn ramp_current_source(
        &mut self,
        a: NodeId,
        b: NodeId,
        before: Amps,
        after: Amps,
        at: Seconds,
        rise: Seconds,
    ) -> Result<ElementId, CircuitError> {
        self.check_finite("ramp current source (before)", before.value())?;
        self.check_finite("ramp current source (after)", after.value())?;
        if !(at.value().is_finite() && at.value() >= 0.0) {
            return Err(CircuitError::InvalidValue {
                element: "ramp start time",
                value: at.value(),
            });
        }
        if !(rise.value().is_finite() && rise.value() >= 0.0) {
            return Err(CircuitError::InvalidValue {
                element: "ramp rise time",
                value: rise.value(),
            });
        }
        self.push(
            ElementKind::RampCurrentSource {
                before,
                after,
                at,
                rise,
            },
            a,
            b,
            "Iramp",
        )
    }

    /// Adds an ideal voltage source with `V(plus) − V(minus) = v`.
    ///
    /// ```
    /// use vpd_circuit::{DcSolver, Netlist};
    /// use vpd_units::{Ohms, Volts};
    ///
    /// # fn main() -> Result<(), vpd_circuit::CircuitError> {
    /// let mut net = Netlist::new();
    /// let vin = net.node("vin");
    /// let out = net.node("out");
    /// net.voltage_source(vin, net.ground(), Volts::new(10.0))?;
    /// net.resistor(vin, out, Ohms::new(1.0))?;
    /// net.resistor(out, net.ground(), Ohms::new(1.0))?;
    /// let sol = DcSolver::new().solve(&net)?;
    /// assert!((sol.voltage(out).value() - 5.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Netlist::current_source`].
    pub fn voltage_source(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        v: Volts,
    ) -> Result<ElementId, CircuitError> {
        self.check_finite("voltage source", v.value())?;
        self.push(ElementKind::VoltageSource { v }, plus, minus, "V")
    }

    /// Adds a capacitor (open-circuit in DC) with initial voltage `v0`.
    ///
    /// # Errors
    ///
    /// As for [`Netlist::resistor`].
    pub fn capacitor(
        &mut self,
        a: NodeId,
        b: NodeId,
        c: Farads,
        v0: Volts,
    ) -> Result<ElementId, CircuitError> {
        self.check_positive("capacitor", c.value())?;
        self.push(ElementKind::Capacitor { c, v0 }, a, b, "C")
    }

    /// Adds an inductor (short-circuit in DC) with initial current `i0`.
    ///
    /// # Errors
    ///
    /// As for [`Netlist::resistor`].
    pub fn inductor(
        &mut self,
        a: NodeId,
        b: NodeId,
        l: Henries,
        i0: Amps,
    ) -> Result<ElementId, CircuitError> {
        self.check_positive("inductor", l.value())?;
        self.push(ElementKind::Inductor { l, i0 }, a, b, "L")
    }

    /// Adds an ideal switch modeled as an `r_on`/`r_off` two-state
    /// resistor, optionally driven by a [`PwmSchedule`].
    ///
    /// # Errors
    ///
    /// As for [`Netlist::resistor`] (both resistances must be positive
    /// and finite).
    pub fn switch(
        &mut self,
        a: NodeId,
        b: NodeId,
        r_on: Ohms,
        r_off: Ohms,
        schedule: Option<PwmSchedule>,
        initial: SwitchState,
    ) -> Result<ElementId, CircuitError> {
        self.check_positive("switch r_on", r_on.value())?;
        self.check_positive("switch r_off", r_off.value())?;
        self.push(
            ElementKind::Switch {
                r_on,
                r_off,
                schedule,
                initial,
            },
            a,
            b,
            "S",
        )
    }

    /// Relabels the most recently added element (diagnostics only).
    pub fn label_last(&mut self, label: &str) {
        if let Some(e) = self.elements.last_mut() {
            e.label = label.to_owned();
        }
    }

    /// Changes the resistance of an existing resistor in place.
    ///
    /// Value-only mutation: the topology (nodes, element order,
    /// terminals) is untouched, so compiled solve plans stay valid and
    /// only need a numeric restamp.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a foreign id.
    /// * [`CircuitError::InvalidValue`] for a non-positive or non-finite
    ///   resistance, or when the element is not a resistor.
    pub fn set_resistance(&mut self, id: ElementId, r: Ohms) -> Result<(), CircuitError> {
        self.check_positive("resistor", r.value())?;
        let e = self
            .elements
            .get_mut(id.0)
            .ok_or(CircuitError::UnknownElement { index: id.0 })?;
        match &mut e.kind {
            ElementKind::Resistor { r: slot } => {
                *slot = r;
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_resistance on non-resistor",
                value: r.value(),
            }),
        }
    }

    /// Changes the current of an existing current source in place (see
    /// [`Netlist::set_resistance`] for the restamp contract).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a foreign id.
    /// * [`CircuitError::InvalidValue`] for a non-finite current, or when
    ///   the element is not a plain current source.
    pub fn set_current(&mut self, id: ElementId, i: Amps) -> Result<(), CircuitError> {
        self.check_finite("current source", i.value())?;
        let e = self
            .elements
            .get_mut(id.0)
            .ok_or(CircuitError::UnknownElement { index: id.0 })?;
        match &mut e.kind {
            ElementKind::CurrentSource { i: slot } => {
                *slot = i;
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_current on non-current-source",
                value: i.value(),
            }),
        }
    }

    /// Changes the setpoint of an existing voltage source in place (see
    /// [`Netlist::set_resistance`] for the restamp contract).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a foreign id.
    /// * [`CircuitError::InvalidValue`] for a non-finite voltage, or when
    ///   the element is not a voltage source.
    pub fn set_voltage(&mut self, id: ElementId, v: Volts) -> Result<(), CircuitError> {
        self.check_finite("voltage source", v.value())?;
        let e = self
            .elements
            .get_mut(id.0)
            .ok_or(CircuitError::UnknownElement { index: id.0 })?;
        match &mut e.kind {
            ElementKind::VoltageSource { v: slot } => {
                *slot = v;
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_voltage on non-voltage-source",
                value: v.value(),
            }),
        }
    }

    /// Moves an existing element onto different terminals.
    ///
    /// The node set and element order are unchanged, but the sparsity
    /// pattern is not: compiled solve plans must be recompiled after a
    /// rewire (placement annealers pay one symbolic rebuild per move and
    /// keep everything else).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] / [`CircuitError::UnknownNode`]
    ///   for foreign ids.
    /// * [`CircuitError::DegenerateElement`] when `a == b`.
    pub fn rewire(&mut self, id: ElementId, a: NodeId, b: NodeId) -> Result<(), CircuitError> {
        if a.0 >= self.node_labels.len() {
            return Err(CircuitError::UnknownNode { index: a.0 });
        }
        if b.0 >= self.node_labels.len() {
            return Err(CircuitError::UnknownNode { index: b.0 });
        }
        let e = self
            .elements
            .get_mut(id.0)
            .ok_or(CircuitError::UnknownElement { index: id.0 })?;
        if a == b {
            return Err(CircuitError::DegenerateElement {
                label: e.label.clone(),
            });
        }
        e.a = a;
        e.b = b;
        Ok(())
    }

    fn push(
        &mut self,
        kind: ElementKind,
        a: NodeId,
        b: NodeId,
        prefix: &str,
    ) -> Result<ElementId, CircuitError> {
        if a.0 >= self.node_labels.len() {
            return Err(CircuitError::UnknownNode { index: a.0 });
        }
        if b.0 >= self.node_labels.len() {
            return Err(CircuitError::UnknownNode { index: b.0 });
        }
        if a == b {
            return Err(CircuitError::DegenerateElement {
                label: format!("{prefix}{}", self.elements.len()),
            });
        }
        let label = format!("{prefix}{}", self.elements.len());
        self.elements.push(Element { kind, a, b, label });
        Ok(ElementId(self.elements.len() - 1))
    }

    fn check_positive(&self, element: &'static str, value: f64) -> Result<(), CircuitError> {
        if !(value.is_finite() && value > 0.0) {
            return Err(CircuitError::InvalidValue { element, value });
        }
        Ok(())
    }

    fn check_finite(&self, element: &'static str, value: f64) -> Result<(), CircuitError> {
        if !value.is_finite() {
            return Err(CircuitError::InvalidValue { element, value });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_labels_are_deduplicated() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let a2 = net.node("a");
        assert_eq!(a, a2);
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn ground_aliases() {
        let mut net = Netlist::new();
        assert_eq!(net.node("gnd"), net.ground());
        assert_eq!(net.node("0"), net.ground());
    }

    #[test]
    fn rejects_negative_resistor() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let g = net.ground();
        assert!(matches!(
            net.resistor(a, g, Ohms::new(-1.0)),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(net.resistor(a, g, Ohms::new(f64::NAN)).is_err());
        assert!(net.resistor(a, g, Ohms::ZERO).is_err());
    }

    #[test]
    fn rejects_self_loop() {
        let mut net = Netlist::new();
        let a = net.node("a");
        assert!(matches!(
            net.resistor(a, a, Ohms::new(1.0)),
            Err(CircuitError::DegenerateElement { .. })
        ));
    }

    #[test]
    fn rejects_foreign_node() {
        let mut net = Netlist::new();
        let g = net.ground();
        let bogus = NodeId(99);
        assert!(matches!(
            net.resistor(bogus, g, Ohms::new(1.0)),
            Err(CircuitError::UnknownNode { index: 99 })
        ));
    }

    #[test]
    fn pwm_schedule_states() {
        let sched = PwmSchedule::new(Hertz::new(1.0), 0.25, 0.0).unwrap();
        assert_eq!(sched.state_at(0.1), SwitchState::On);
        assert_eq!(sched.state_at(0.3), SwitchState::Off);
        assert_eq!(sched.state_at(1.1), SwitchState::On); // periodic
        let comp = sched.complementary();
        assert_eq!(comp.state_at(0.1), SwitchState::Off);
        assert_eq!(comp.state_at(0.3), SwitchState::On);
    }

    #[test]
    fn pwm_failure_event_forces_off_from_its_time_on() {
        let sched = PwmSchedule::always_on();
        assert_eq!(sched.state_at(0.0), SwitchState::On);
        assert_eq!(sched.state_at(1e9), SwitchState::On);
        assert_eq!(sched.failure_at(), None);

        let dying = sched.with_failure_at(Seconds::new(0.5)).unwrap();
        assert_eq!(dying.state_at(0.0), SwitchState::On);
        assert_eq!(dying.state_at(0.499), SwitchState::On);
        assert_eq!(dying.state_at(0.5), SwitchState::Off, "inclusive at t");
        assert_eq!(dying.state_at(7.0), SwitchState::Off, "off forever");
        assert_eq!(dying.failure_at(), Some(Seconds::new(0.5)));

        // Failure dominates the periodic pattern and its complement.
        let pwm = PwmSchedule::new(Hertz::new(1.0), 0.25, 0.0)
            .unwrap()
            .with_failure_at(Seconds::new(1.0))
            .unwrap();
        assert_eq!(pwm.state_at(0.1), SwitchState::On);
        assert_eq!(pwm.state_at(1.1), SwitchState::Off);
        assert_eq!(pwm.complementary().state_at(1.3), SwitchState::Off);

        assert!(PwmSchedule::always_on()
            .with_failure_at(Seconds::new(-1.0))
            .is_err());
        assert!(PwmSchedule::always_on()
            .with_failure_at(Seconds::new(f64::NAN))
            .is_err());
    }

    #[test]
    fn pwm_rejects_bad_duty() {
        assert!(PwmSchedule::new(Hertz::new(1.0), 1.5, 0.0).is_err());
        assert!(PwmSchedule::new(Hertz::new(1.0), -0.1, 0.0).is_err());
        assert!(PwmSchedule::new(Hertz::new(1.0), f64::NAN, 0.0).is_err());
    }

    #[test]
    fn pwm_phase_wraps() {
        let sched = PwmSchedule::new(Hertz::new(1.0), 0.5, 1.25).unwrap();
        // phase 1.25 ≡ 0.25: at t=0 the cycle position is 0.25 < 0.5 → on.
        assert_eq!(sched.state_at(0.0), SwitchState::On);
        assert_eq!(sched.state_at(0.5), SwitchState::Off);
    }

    #[test]
    fn value_mutators_update_in_place() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let g = net.ground();
        let r = net.resistor(a, g, Ohms::new(2.0)).unwrap();
        let i = net.current_source(a, g, Amps::new(1.0)).unwrap();
        let v = net.voltage_source(a, g, Volts::new(5.0)).unwrap();

        net.set_resistance(r, Ohms::new(3.0)).unwrap();
        net.set_current(i, Amps::new(-2.0)).unwrap();
        net.set_voltage(v, Volts::new(1.0)).unwrap();

        assert!(matches!(
            net.element(r).unwrap().kind,
            ElementKind::Resistor { r } if (r.value() - 3.0).abs() < 1e-15
        ));
        assert!(matches!(
            net.element(i).unwrap().kind,
            ElementKind::CurrentSource { i } if (i.value() + 2.0).abs() < 1e-15
        ));
        assert!(matches!(
            net.element(v).unwrap().kind,
            ElementKind::VoltageSource { v } if (v.value() - 1.0).abs() < 1e-15
        ));
    }

    #[test]
    fn value_mutators_validate() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let g = net.ground();
        let r = net.resistor(a, g, Ohms::new(2.0)).unwrap();
        let i = net.current_source(a, g, Amps::new(1.0)).unwrap();

        assert!(net.set_resistance(r, Ohms::new(-1.0)).is_err());
        assert!(net.set_resistance(r, Ohms::new(f64::NAN)).is_err());
        assert!(
            net.set_resistance(i, Ohms::new(1.0)).is_err(),
            "kind mismatch"
        );
        assert!(net.set_current(r, Amps::new(1.0)).is_err(), "kind mismatch");
        assert!(net.set_current(i, Amps::new(f64::INFINITY)).is_err());
        assert!(net.set_resistance(ElementId(99), Ohms::new(1.0)).is_err());
    }

    #[test]
    fn rewire_moves_terminals() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let g = net.ground();
        let r = net.resistor(a, g, Ohms::new(1.0)).unwrap();
        net.rewire(r, b, g).unwrap();
        assert_eq!(net.element(r).unwrap().a, b);
        assert!(net.rewire(r, b, b).is_err(), "self loop");
        assert!(net.rewire(r, NodeId(99), g).is_err(), "foreign node");
        assert!(net.rewire(ElementId(99), a, g).is_err(), "foreign element");
    }

    #[test]
    fn labels_and_lookup() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let id = net.resistor(a, net.ground(), Ohms::new(2.0)).unwrap();
        net.label_last("load");
        assert_eq!(net.element(id).unwrap().label, "load");
        assert_eq!(net.node_label(a).unwrap(), "a");
        assert!(net.node_label(NodeId(42)).is_err());
        assert!(net.element(ElementId(42)).is_err());
    }
}
