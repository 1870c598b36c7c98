//! Reference interpreters for the compiled circuit plans.
//!
//! Every production analysis runs on a compiled plan (`TransientPlan`,
//! `AcPlan`). These interpreters derive the same answers the direct way:
//! the transient one walks the netlist every time step, the AC one
//! assembles a fresh complex MNA system per frequency. Both use the
//! plans' stamp order and arithmetic, so the root tests can pin each
//! plan against them bit for bit. They are written on the public
//! `Netlist`, `Element` and `NodeId::index` API and return plain vectors.

// Each test crate that includes this module uses only some of it.
#![allow(dead_code)]

use std::collections::HashMap;

use vertical_power_delivery::circuit::{
    AcPoint, CircuitError, ElementId, ElementKind, Netlist, NodeId, SwitchState, TransientResult,
    TransientSettings,
};
use vertical_power_delivery::numeric::{Complex, ComplexLu, ComplexMatrix, DenseMatrix, LuFactor};
use vertical_power_delivery::units::Hertz;

/// The unknown carrying `node`'s voltage: ground is eliminated.
fn unknown(node: NodeId) -> Option<usize> {
    node.index().checked_sub(1)
}

/// A switch's resistance in `state`.
fn switch_r(kind: &ElementKind, state: SwitchState) -> f64 {
    match (kind, state) {
        (ElementKind::Switch { r_on, .. }, SwitchState::On) => r_on.value(),
        (ElementKind::Switch { r_off, .. }, SwitchState::Off) => r_off.value(),
        _ => unreachable!("not a switch"),
    }
}

/// A switch's state at time `t`.
fn switch_state(kind: &ElementKind, t: f64) -> SwitchState {
    match kind {
        ElementKind::Switch {
            schedule, initial, ..
        } => schedule.map_or(*initial, |s| s.state_at(t)),
        _ => unreachable!("not a switch"),
    }
}

/// Waveforms of one reference transient run.
#[derive(Debug)]
pub struct Waveforms {
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// `node_v[node index][sample]`, ground included.
    pub node_v: Vec<Vec<f64>>,
    /// `element_i[element index][sample]`, current `a → b`.
    pub element_i: Vec<Vec<f64>>,
}

/// A ramp source's current at `t`: `before` until `at`, linear to
/// `after` over `rise`, then `after`.
fn ramp(before: f64, after: f64, at: f64, rise: f64, t: f64) -> f64 {
    if t < at {
        before
    } else if t >= at + rise {
        after
    } else {
        before + (after - before) * ((t - at) / rise)
    }
}

/// A current source's value at `t`, if the element is one.
fn source_current(kind: &ElementKind, t: f64) -> Option<f64> {
    match kind {
        ElementKind::CurrentSource { i } => Some(i.value()),
        ElementKind::RampCurrentSource {
            before,
            after,
            at,
            rise,
        } => Some(ramp(
            before.value(),
            after.value(),
            at.value(),
            rise.value(),
            t,
        )),
        _ => None,
    }
}

fn stamp_g(a: &mut DenseMatrix, na: Option<usize>, nb: Option<usize>, g: f64) {
    if let Some(i) = na {
        a.add_at(i, i, g).unwrap();
    }
    if let Some(j) = nb {
        a.add_at(j, j, g).unwrap();
    }
    if let (Some(i), Some(j)) = (na, nb) {
        a.add_at(i, j, -g).unwrap();
        a.add_at(j, i, -g).unwrap();
    }
}

/// Backward-Euler transient run of `net`: every step walks the netlist
/// to build the right-hand side and record the waveforms, and each
/// switch configuration's conductance matrix is assembled and factored
/// the first time it occurs. Initial conditions come from each
/// capacitor's `v0` and inductor's `i0`.
pub fn transient(net: &Netlist, settings: &TransientSettings) -> Result<Waveforms, CircuitError> {
    if net.element_count() == 0 {
        return Err(CircuitError::EmptyNetlist);
    }
    let dt = settings.dt.value();
    let steps = (settings.t_stop.value() / dt).round() as usize;
    let n_nodes = net.node_count();
    let nv = n_nodes - 1;
    let elements = net.elements();
    // Voltage sources get a current unknown after the node voltages;
    // inductors are resistive companions.
    let mut rows = vec![None; elements.len()];
    let mut dim = nv;
    for (i, e) in elements.iter().enumerate() {
        if matches!(e.kind, ElementKind::VoltageSource { .. }) {
            rows[i] = Some(dim);
            dim += 1;
        }
    }
    // Capacitor voltages and inductor currents, element-indexed.
    let mut state: Vec<f64> = elements
        .iter()
        .map(|e| match &e.kind {
            ElementKind::Capacitor { v0, .. } => v0.value(),
            ElementKind::Inductor { i0, .. } => i0.value(),
            _ => 0.0,
        })
        .collect();
    let mut factors: HashMap<Vec<SwitchState>, LuFactor> = HashMap::new();
    let mut out = Waveforms {
        times: Vec::with_capacity(steps + 1),
        node_v: vec![Vec::with_capacity(steps + 1); n_nodes],
        element_i: vec![Vec::with_capacity(steps + 1); elements.len()],
    };
    let mut voltages = vec![0.0; n_nodes];

    for step in 0..=steps {
        let t = step as f64 * dt;
        let switches: Vec<SwitchState> = elements
            .iter()
            .filter(|e| matches!(e.kind, ElementKind::Switch { .. }))
            .map(|e| switch_state(&e.kind, t))
            .collect();
        if !factors.contains_key(&switches) {
            let mut a = DenseMatrix::zeros(dim, dim);
            let mut sw = switches.iter();
            for (i, e) in elements.iter().enumerate() {
                let (na, nb) = (unknown(e.a), unknown(e.b));
                match &e.kind {
                    ElementKind::Resistor { r } => stamp_g(&mut a, na, nb, 1.0 / r.value()),
                    ElementKind::Switch { .. } => {
                        let state = *sw.next().expect("one state per switch");
                        stamp_g(&mut a, na, nb, 1.0 / switch_r(&e.kind, state));
                    }
                    ElementKind::Capacitor { c, .. } => stamp_g(&mut a, na, nb, c.value() / dt),
                    ElementKind::Inductor { l, .. } => stamp_g(&mut a, na, nb, dt / l.value()),
                    ElementKind::VoltageSource { .. } => {
                        let row = rows[i].expect("source row");
                        if let Some(ia) = na {
                            a.add_at(ia, row, 1.0).unwrap();
                            a.add_at(row, ia, 1.0).unwrap();
                        }
                        if let Some(ib) = nb {
                            a.add_at(ib, row, -1.0).unwrap();
                            a.add_at(row, ib, -1.0).unwrap();
                        }
                    }
                    // Current sources only drive the right-hand side.
                    _ => {}
                }
            }
            factors.insert(switches.clone(), LuFactor::new(&a)?);
        }

        // Right-hand side: sources plus the companion-model history.
        let mut rhs = vec![0.0; dim];
        for (i, e) in elements.iter().enumerate() {
            // The current the element injects into `a` and draws from `b`.
            let into_a = match &e.kind {
                ElementKind::VoltageSource { v } => {
                    rhs[rows[i].expect("source row")] = v.value();
                    continue;
                }
                // i = C/dt·(v − v_prev): the history is a source of
                // C/dt·v_prev into `a`.
                ElementKind::Capacitor { c, .. } => c.value() / dt * state[i],
                // i = i_prev + dt/L·v: the history is i_prev flowing a → b.
                ElementKind::Inductor { .. } => -state[i],
                kind => match source_current(kind, t) {
                    Some(i_src) => -i_src,
                    None => continue,
                },
            };
            if let Some(ia) = unknown(e.a) {
                rhs[ia] += into_a;
            }
            if let Some(ib) = unknown(e.b) {
                rhs[ib] -= into_a;
            }
        }
        let x = factors[&switches].solve(&rhs)?;
        voltages[1..].copy_from_slice(&x[..nv]);

        out.times.push(t);
        for (n, v) in voltages.iter().enumerate() {
            out.node_v[n].push(*v);
        }
        let mut sw = switches.iter();
        for (i, e) in elements.iter().enumerate() {
            let vab = voltages[e.a.index()] - voltages[e.b.index()];
            let current = match &e.kind {
                ElementKind::Resistor { r } => vab / r.value(),
                ElementKind::Switch { .. } => {
                    vab / switch_r(&e.kind, *sw.next().expect("one state per switch"))
                }
                ElementKind::VoltageSource { .. } => x[rows[i].expect("source row")],
                ElementKind::Capacitor { c, .. } => {
                    let i_c = c.value() / dt * (vab - state[i]);
                    state[i] = vab;
                    i_c
                }
                ElementKind::Inductor { l, .. } => {
                    let i_l = state[i] + dt / l.value() * vab;
                    state[i] = i_l;
                    i_l
                }
                kind => source_current(kind, t).expect("a current source"),
            };
            out.element_i[i].push(current);
        }
    }
    Ok(out)
}

/// Asserts that a plan's waveforms equal the reference's bit for bit:
/// every sample time, every node voltage, and every element current.
/// `what` names the case in the failure message.
pub fn assert_waveforms_bitwise(
    what: &str,
    net: &Netlist,
    got: &TransientResult,
    want: &Waveforms,
) {
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(got.times()), bits(&want.times), "{what}: sample times");
    assert_eq!(want.node_v.len(), net.node_count());
    // Every node is a terminal of some element (an element-free node
    // would make the system singular), so the terminals name them all.
    let mut nodes = vec![net.ground()];
    for e in net.elements() {
        nodes.extend([e.a, e.b]);
    }
    nodes.sort();
    nodes.dedup();
    assert_eq!(
        nodes.len(),
        net.node_count(),
        "{what}: a node has no element"
    );
    for node in nodes {
        assert_eq!(
            bits(got.voltage(node)),
            bits(&want.node_v[node.index()]),
            "{what}: voltage of node {}",
            node.index()
        );
    }
    assert_eq!(want.element_i.len(), net.element_count());
    for id in net.element_ids() {
        assert_eq!(
            bits(got.current(id)),
            bits(&want.element_i[id.index()]),
            "{what}: current of element {}",
            id.index()
        );
    }
}

/// What drives the AC system at a frequency point.
#[derive(Clone, Copy)]
enum Stimulus {
    /// A 1 A phasor injected into the node.
    CurrentInto(NodeId),
    /// A unit phasor on the voltage source with this element index.
    UnitVoltage(usize),
}

/// Assembles and solves the complex MNA system of `net` at `f`: node
/// voltages (ground dropped), then voltage-source currents. Resistors
/// stamp `1/R`, capacitors `jωC`, inductors `1/(jωL)`, switches their
/// `t = 0` resistance; voltage sources are shorts unless driven, current
/// sources are opens.
fn ac_solve(net: &Netlist, f: Hertz, stimulus: Stimulus) -> Result<Vec<Complex>, CircuitError> {
    if !(f.value() > 0.0 && f.value().is_finite()) {
        return Err(CircuitError::InvalidValue {
            element: "ac frequency",
            value: f.value(),
        });
    }
    let omega = 2.0 * std::f64::consts::PI * f.value();
    let nv = net.node_count() - 1;
    let sources = net
        .elements()
        .iter()
        .filter(|e| matches!(e.kind, ElementKind::VoltageSource { .. }))
        .count();
    let dim = nv + sources;
    let mut a = ComplexMatrix::zeros(dim, dim);
    let mut rhs = vec![Complex::ZERO; dim];
    let mut row = nv;
    for (i, e) in net.elements().iter().enumerate() {
        let (na, nb) = (unknown(e.a), unknown(e.b));
        let y = match &e.kind {
            ElementKind::Resistor { r } => Complex::from_real(1.0 / r.value()),
            ElementKind::Switch { .. } => {
                Complex::from_real(1.0 / switch_r(&e.kind, switch_state(&e.kind, 0.0)))
            }
            ElementKind::Capacitor { c, .. } => Complex::new(0.0, omega * c.value()),
            ElementKind::Inductor { l, .. } => Complex::new(0.0, -1.0 / (omega * l.value())),
            ElementKind::VoltageSource { .. } => {
                if let Some(ia) = na {
                    a.add_at(ia, row, Complex::ONE);
                    a.add_at(row, ia, Complex::ONE);
                }
                if let Some(ib) = nb {
                    a.add_at(ib, row, -Complex::ONE);
                    a.add_at(row, ib, -Complex::ONE);
                }
                rhs[row] = match stimulus {
                    Stimulus::UnitVoltage(k) if k == i => Complex::ONE,
                    _ => Complex::ZERO,
                };
                row += 1;
                continue;
            }
            // Bias current sources are AC opens.
            _ => continue,
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
    if let Stimulus::CurrentInto(node) = stimulus {
        if let Some(i) = unknown(node) {
            rhs[i] += Complex::ONE;
        }
    }
    Ok(ComplexLu::new(&a)?.solve(&rhs)?)
}

/// Driving-point impedance at `node` (vs. ground) across `freqs`.
pub fn impedance(
    net: &Netlist,
    node: NodeId,
    freqs: &[Hertz],
) -> Result<Vec<AcPoint>, CircuitError> {
    if node.index() == 0 || node.index() >= net.node_count() {
        return Err(CircuitError::UnknownNode {
            index: node.index(),
        });
    }
    freqs
        .iter()
        .map(|&f| {
            let x = ac_solve(net, f, Stimulus::CurrentInto(node))?;
            Ok(AcPoint {
                frequency: f,
                response: x[node.index() - 1],
            })
        })
        .collect()
}

/// Voltage transfer function from the voltage source `source` to
/// `output` across `freqs`; every other source is shorted.
pub fn transfer(
    net: &Netlist,
    source: ElementId,
    output: NodeId,
    freqs: &[Hertz],
) -> Result<Vec<AcPoint>, CircuitError> {
    if !matches!(net.element(source)?.kind, ElementKind::VoltageSource { .. }) {
        return Err(CircuitError::NotAVoltageSource {
            index: source.index(),
        });
    }
    if output.index() >= net.node_count() {
        return Err(CircuitError::UnknownNode {
            index: output.index(),
        });
    }
    freqs
        .iter()
        .map(|&f| {
            let x = ac_solve(net, f, Stimulus::UnitVoltage(source.index()))?;
            Ok(AcPoint {
                frequency: f,
                response: unknown(output).map_or(Complex::ZERO, |i| x[i]),
            })
        })
        .collect()
}
