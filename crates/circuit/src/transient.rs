//! Backward-Euler transient simulation with switched elements.
//!
//! Reactive elements are replaced by their backward-Euler companion
//! models each step; switches follow their [`PwmSchedule`]. Because the
//! conductance matrix only changes when a switch changes state, LU
//! factorizations are cached per switch configuration — a multi-phase
//! converter with `k` switches re-factors at most `2^k` times, not once
//! per step. [`TransientPlan`] is the one transient path: compile a
//! netlist once, then [`TransientPlan::run`] it (or
//! [`TransientPlan::advance`] it chunk by chunk).

use crate::netlist::{ElementKind, PwmSchedule, SwitchState};
use crate::{CircuitError, ElementId, Netlist, NodeId};
use std::collections::HashMap;
use vpd_numeric::{DenseMatrix, LuFactor};
use vpd_units::{Amps, Seconds};

/// Transient run settings.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TransientSettings {
    /// Simulation stop time.
    pub t_stop: Seconds,
    /// Fixed time step.
    pub dt: Seconds,
}

impl TransientSettings {
    /// Creates settings, validating the window.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidTimeStep`] when either time is
    /// non-positive or `dt > t_stop`.
    pub fn new(t_stop: Seconds, dt: Seconds) -> Result<Self, CircuitError> {
        if !(t_stop.value() > 0.0 && dt.value() > 0.0 && dt.value() <= t_stop.value()) {
            return Err(CircuitError::InvalidTimeStep {
                dt: dt.value(),
                t_stop: t_stop.value(),
            });
        }
        Ok(Self { t_stop, dt })
    }
}

/// Recorded waveforms from a transient run.
#[derive(Clone, PartialEq, Debug)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `node_v[node][step]`
    node_v: Vec<Vec<f64>>,
    /// `element_i[element][step]`, current `a → b` through the element.
    element_i: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Sample times (seconds).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage waveform of a node.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> &[f64] {
        &self.node_v[node.index()]
    }

    /// Current waveform of an element (`a → b`).
    #[must_use]
    pub fn current(&self, element: ElementId) -> &[f64] {
        &self.element_i[element.index()]
    }

    /// The trailing window covering the last `fraction` of the samples
    /// (`fraction` clamped to `[0, 1]`). `fraction = 0.0` — and an empty
    /// series — yield an **empty** window; the statistics below define
    /// the empty-window result as `0.0` rather than silently averaging
    /// the final sample.
    fn settled_tail(series: &[f64], fraction: f64) -> &[f64] {
        let n = series.len();
        let start = ((1.0 - fraction.clamp(0.0, 1.0)) * n as f64) as usize;
        &series[start.min(n)..]
    }

    /// Mean of a waveform over the last `fraction` of the run (use e.g.
    /// `0.5` to skip the start-up transient). `0.0` for an empty window.
    #[must_use]
    pub fn settled_mean(series: &[f64], fraction: f64) -> f64 {
        let tail = Self::settled_tail(series, fraction);
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// RMS of a waveform over the last `fraction` of the run. `0.0` for
    /// an empty window.
    #[must_use]
    pub fn settled_rms(series: &[f64], fraction: f64) -> f64 {
        let tail = Self::settled_tail(series, fraction);
        if tail.is_empty() {
            return 0.0;
        }
        (tail.iter().map(|v| v * v).sum::<f64>() / tail.len() as f64).sqrt()
    }

    /// Peak-to-peak ripple over the last `fraction` of the run. `0.0`
    /// for an empty window.
    #[must_use]
    pub fn settled_ripple(series: &[f64], fraction: f64) -> f64 {
        let tail = Self::settled_tail(series, fraction);
        if tail.is_empty() {
            return 0.0;
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in tail {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    }
}

/// Value of a ramping current source at time `t`: `before` until `at`,
/// linear to `after` over `rise`, then `after`. `rise = 0` degenerates
/// to an ideal step (`t >= at` implies `t >= at + 0`), so the divide is
/// never reached with a zero denominator.
fn ramp_value(before: f64, after: f64, at: f64, rise: f64, t: f64) -> f64 {
    if t < at {
        before
    } else if t >= at + rise {
        after
    } else {
        before + (after - before) * ((t - at) / rise)
    }
}

fn stamp_g(
    a: &mut DenseMatrix,
    ia: Option<usize>,
    ib: Option<usize>,
    g: f64,
) -> Result<(), CircuitError> {
    if let Some(i) = ia {
        a.add_at(i, i, g)?;
    }
    if let Some(j) = ib {
        a.add_at(j, j, g)?;
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        a.add_at(i, j, -g)?;
        a.add_at(j, i, -g)?;
    }
    Ok(())
}

/// One compiled element: reduced node indices for stamping, raw node
/// indices for waveform recording, and the element-specific operation.
#[derive(Clone, Debug)]
struct TranOp {
    /// Reduced index of node `a` (`None` = ground).
    na: Option<usize>,
    /// Reduced index of node `b` (`None` = ground).
    nb: Option<usize>,
    /// Raw index of node `a`, for `v_ab` in the record pass.
    ra: usize,
    /// Raw index of node `b`.
    rb: usize,
    kind: TranOpKind,
}

/// The compiled per-element operation. Conductances are pre-divided at
/// compile time (`1/r`, `c/dt`, `dt/l`) from the element values, so a
/// plan restamped in place stamps exactly what a fresh compile would.
#[derive(Clone, Debug)]
enum TranOpKind {
    /// Fixed conductance (resistor). `r` is kept for the record pass,
    /// which divides by resistance.
    Conductance { g: f64, r: f64 },
    /// A scheduled switch; consumes one slot of the switch-state vector.
    Switch {
        g_on: f64,
        g_off: f64,
        r_on: f64,
        r_off: f64,
        schedule: Option<PwmSchedule>,
        initial: SwitchState,
    },
    /// Backward-Euler capacitor companion, `g = c/dt`.
    Capacitor { g: f64 },
    /// Backward-Euler inductor companion, `g = dt/l`.
    Inductor { g: f64 },
    /// Ideal voltage source occupying MNA row `row`.
    VoltageSource { v: f64, row: usize },
    /// Constant current source.
    CurrentSource { i: f64 },
    /// Ramp current source (a step when `rise` is zero).
    RampCurrent {
        before: f64,
        after: f64,
        at: f64,
        rise: f64,
    },
}

/// A compiled, reusable transient simulation.
///
/// One netlist walk at [`TransientPlan::compile`] lowers every element
/// to a compiled op with pre-divided companion conductances and
/// pre-assigned source rows; [`TransientPlan::run`] then replays the op
/// list with reusable matrix/RHS/solution buffers, stamping, solving,
/// and recording in netlist element order every step.
///
/// The per-switch-configuration LU cache **persists across runs**:
/// repeated runs at the same `dt` re-factor zero times, and the
/// restamp API ([`TransientPlan::set_load_ramp`],
/// [`TransientPlan::set_source`])
/// rewrites only right-hand-side inputs — voltage-source matrix stamps
/// are topological `±1` entries — so sweeps over source values never
/// invalidate a factorization. The plan is `Clone`, so parallel sweeps
/// can hand each worker its own buffers (with the factor cache already
/// warm if [`TransientPlan::prefactor`] ran first).
///
/// [`TransientPlan::advance`] exposes the same run incrementally for
/// streaming consumers: each call executes a bounded number of steps
/// and the partial waveforms are visible through
/// [`TransientPlan::result`].
///
/// ```
/// use vpd_circuit::{Netlist, TransientPlan, TransientSettings};
/// use vpd_units::{Farads, Ohms, Seconds, Volts};
///
/// # fn main() -> Result<(), vpd_circuit::CircuitError> {
/// // RC charging: v(t) = V·(1 − e^{−t/RC}), RC = 1 ms.
/// let mut net = Netlist::new();
/// let vin = net.node("vin");
/// let out = net.node("out");
/// let src = net.voltage_source(vin, net.ground(), Volts::new(5.0))?;
/// net.resistor(vin, out, Ohms::new(1000.0))?;
/// net.capacitor(out, net.ground(), Farads::from_microfarads(1.0), Volts::ZERO)?;
/// let settings = TransientSettings::new(Seconds::new(5e-3), Seconds::new(1e-6))?;
/// let mut plan = TransientPlan::compile(&net, &settings)?;
/// let v_end = *plan.run()?.voltage(out).last().unwrap();
/// assert!((v_end - 5.0).abs() < 0.05); // fully charged after 5·RC
/// // Sweep the source: an RHS-only restamp, so nothing re-factors.
/// plan.set_source(src, 2.5)?;
/// let v_end = *plan.run()?.voltage(out).last().unwrap();
/// assert!((v_end - 2.5).abs() < 0.025);
/// assert_eq!(plan.cached_factorizations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TransientPlan {
    dt: f64,
    steps: usize,
    n_nodes: usize,
    dim: usize,
    ops: Vec<TranOp>,
    /// Initial capacitor voltages / inductor currents, element-indexed.
    init_state: Vec<f64>,
    /// Live capacitor voltages / inductor currents, element-indexed.
    state: Vec<f64>,
    /// Switch states at the step being processed (reused buffer).
    sw_buf: Vec<SwitchState>,
    /// LU factorizations, one per switch configuration seen so far.
    factors: Vec<LuFactor>,
    /// Switch configuration → index into `factors`.
    factor_index: HashMap<Vec<SwitchState>, usize>,
    /// The configuration `current` was resolved for, compared (not
    /// hashed) each step so an unchanged configuration costs one `==`.
    current_key: Vec<SwitchState>,
    current: Option<usize>,
    rhs: Vec<f64>,
    x: Vec<f64>,
    voltages: Vec<f64>,
    result: TransientResult,
    next_step: usize,
}

impl TransientPlan {
    /// Compiles a netlist into a reusable transient plan.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyNetlist`] when the netlist has no
    /// elements.
    pub fn compile(net: &Netlist, settings: &TransientSettings) -> Result<Self, CircuitError> {
        if net.element_count() == 0 {
            return Err(CircuitError::EmptyNetlist);
        }
        vpd_obs::incr("transient.plan_builds");
        let dt = settings.dt.value();
        let steps = (settings.t_stop.value() / dt).round() as usize;
        let n_nodes = net.node_count();
        let nv = n_nodes - 1;
        let idx = |n: NodeId| -> Option<usize> {
            let i = n.index();
            (i > 0).then(|| i - 1)
        };

        let mut ops = Vec::with_capacity(net.element_count());
        let mut init_state = vec![0.0; net.element_count()];
        let mut n_sources = 0;
        let mut n_switches = 0;
        for (i, e) in net.elements().iter().enumerate() {
            let kind = match &e.kind {
                ElementKind::Resistor { r } => TranOpKind::Conductance {
                    g: 1.0 / r.value(),
                    r: r.value(),
                },
                ElementKind::Switch {
                    r_on,
                    r_off,
                    schedule,
                    initial,
                } => {
                    n_switches += 1;
                    TranOpKind::Switch {
                        g_on: 1.0 / r_on.value(),
                        g_off: 1.0 / r_off.value(),
                        r_on: r_on.value(),
                        r_off: r_off.value(),
                        schedule: *schedule,
                        initial: *initial,
                    }
                }
                ElementKind::Capacitor { c, v0 } => {
                    init_state[i] = v0.value();
                    TranOpKind::Capacitor { g: c.value() / dt }
                }
                ElementKind::Inductor { l, i0 } => {
                    init_state[i] = i0.value();
                    TranOpKind::Inductor { g: dt / l.value() }
                }
                ElementKind::VoltageSource { v } => {
                    let row = nv + n_sources;
                    n_sources += 1;
                    TranOpKind::VoltageSource { v: v.value(), row }
                }
                ElementKind::CurrentSource { i } => TranOpKind::CurrentSource { i: i.value() },
                ElementKind::RampCurrentSource {
                    before,
                    after,
                    at,
                    rise,
                } => TranOpKind::RampCurrent {
                    before: before.value(),
                    after: after.value(),
                    at: at.value(),
                    rise: rise.value(),
                },
            };
            ops.push(TranOp {
                na: idx(e.a),
                nb: idx(e.b),
                ra: e.a.index(),
                rb: e.b.index(),
                kind,
            });
        }
        let dim = nv + n_sources;
        let state = init_state.clone();
        Ok(Self {
            dt,
            steps,
            n_nodes,
            dim,
            ops,
            init_state,
            state,
            sw_buf: Vec::with_capacity(n_switches),
            factors: Vec::new(),
            factor_index: HashMap::new(),
            current_key: Vec::new(),
            current: None,
            rhs: vec![0.0; dim],
            x: Vec::with_capacity(dim),
            voltages: vec![0.0; n_nodes],
            result: TransientResult {
                times: Vec::with_capacity(steps + 1),
                node_v: vec![Vec::with_capacity(steps + 1); n_nodes],
                element_i: vec![Vec::with_capacity(steps + 1); net.element_count()],
            },
            next_step: 0,
        })
    }

    /// Total number of time steps in a run (the run records
    /// `steps() + 1` samples, including `t = 0`).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Samples recorded so far in the current run.
    #[must_use]
    pub fn samples_done(&self) -> usize {
        self.result.times.len()
    }

    /// The fixed time step (seconds).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Whether the current run has recorded its final sample.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.next_step > self.steps
    }

    /// Number of LU factorizations currently cached.
    #[must_use]
    pub fn cached_factorizations(&self) -> usize {
        self.factors.len()
    }

    /// The (possibly partial) waveforms of the current run.
    #[must_use]
    pub fn result(&self) -> &TransientResult {
        &self.result
    }

    /// Resets state and waveforms for a fresh run, keeping the compiled
    /// ops, buffers, and — crucially — the LU cache.
    pub fn start(&mut self) {
        vpd_obs::incr("transient.runs");
        self.state.copy_from_slice(&self.init_state);
        self.result.times.clear();
        for v in &mut self.result.node_v {
            v.clear();
        }
        for i in &mut self.result.element_i {
            i.clear();
        }
        self.next_step = 0;
    }

    /// Factors the `t = 0` switch configuration if it is not cached
    /// yet, so clones handed to parallel workers re-factor zero times.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Numeric`] when the conductance matrix is
    /// singular.
    pub fn prefactor(&mut self) -> Result<(), CircuitError> {
        self.compute_switch_states(0.0);
        self.ensure_factor()?;
        Ok(())
    }

    /// Runs the simulation start-to-finish and returns the waveforms.
    ///
    /// Always begins a fresh run ([`TransientPlan::start`]); use
    /// [`TransientPlan::advance`] directly for incremental consumption.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Numeric`] when a step's factorization or
    /// solve fails.
    pub fn run(&mut self) -> Result<&TransientResult, CircuitError> {
        self.start();
        while self.advance(usize::MAX)? > 0 {}
        Ok(&self.result)
    }

    /// Executes up to `max_steps` time steps of the current run and
    /// returns how many were executed (`0` once the run is finished).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Numeric`] when a step's factorization or
    /// solve fails.
    pub fn advance(&mut self, max_steps: usize) -> Result<usize, CircuitError> {
        let mut done = 0;
        while done < max_steps && self.next_step <= self.steps {
            self.step()?;
            done += 1;
        }
        if done > 0 {
            vpd_obs::add("transient.steps", done as u64);
        }
        Ok(done)
    }

    /// Repoints a ramp current source's parameters (RHS-only, so the
    /// LU cache survives). A zero `rise` makes the ramp a load step.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] — no such element.
    /// * [`CircuitError::InvalidValue`] — the element is not a ramp
    ///   current source, a current is non-finite, or the start or rise
    ///   time is negative or non-finite.
    pub fn set_load_ramp(
        &mut self,
        element: ElementId,
        before: Amps,
        after: Amps,
        at: Seconds,
        rise: Seconds,
    ) -> Result<(), CircuitError> {
        check_source_value("set_load_ramp current", before.value())?;
        check_source_value("set_load_ramp current", after.value())?;
        check_source_time("set_load_ramp time", at.value())?;
        check_source_time("set_load_ramp rise", rise.value())?;
        let op = self.op_mut(element)?;
        match &mut op.kind {
            TranOpKind::RampCurrent {
                before: b,
                after: a,
                at: t0,
                rise: r,
            } => {
                *b = before.value();
                *a = after.value();
                *t0 = at.value();
                *r = rise.value();
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_load_ramp on a non-ramp element",
                value: element.index() as f64,
            }),
        }
    }

    /// Repoints a constant source's value: volts for a voltage source,
    /// amps for a current source. Both rewrites are RHS-only — a
    /// voltage source's matrix stamps are the topological `±1` entries —
    /// so the LU cache survives.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] — no such element.
    /// * [`CircuitError::InvalidValue`] — non-finite value, or the
    ///   element is neither a voltage source nor a constant current
    ///   source.
    pub fn set_source(&mut self, element: ElementId, value: f64) -> Result<(), CircuitError> {
        check_source_value("set_source value", value)?;
        let op = self.op_mut(element)?;
        match &mut op.kind {
            TranOpKind::VoltageSource { v, .. } => {
                *v = value;
                Ok(())
            }
            TranOpKind::CurrentSource { i } => {
                *i = value;
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_source on a non-source element",
                value: element.index() as f64,
            }),
        }
    }

    /// Replaces a switch's gate drive (schedule plus no-schedule
    /// fallback state) in place.
    ///
    /// Unlike the source restamps this can change which conductance
    /// configurations a run visits, but the per-configuration LU cache
    /// absorbs that: already-cached configurations are reused and new
    /// ones are factored once on first sight, so a restamped plan still
    /// replays exactly what a fresh compile of the edited netlist would.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] — no such element.
    /// * [`CircuitError::InvalidValue`] — the element is not a switch.
    pub fn set_switch_drive(
        &mut self,
        element: ElementId,
        schedule: Option<PwmSchedule>,
        initial: SwitchState,
    ) -> Result<(), CircuitError> {
        let op = self.op_mut(element)?;
        match &mut op.kind {
            TranOpKind::Switch {
                schedule: slot,
                initial: state,
                ..
            } => {
                *slot = schedule;
                *state = initial;
                Ok(())
            }
            _ => Err(CircuitError::InvalidValue {
                element: "set_switch_drive on a non-switch element",
                value: element.index() as f64,
            }),
        }
    }

    /// Schedules a one-shot failure on a switch: it conducts until `at`
    /// and stays off from then on — the "VR dies mid-run" event of
    /// dynamic fault studies. Equivalent to
    /// [`TransientPlan::set_switch_drive`] with
    /// [`PwmSchedule::always_on`] carrying a failure at `at`.
    ///
    /// # Errors
    ///
    /// As for [`TransientPlan::set_switch_drive`], plus
    /// [`CircuitError::InvalidValue`] for a negative or non-finite
    /// failure time.
    pub fn fail_switch_at(&mut self, element: ElementId, at: Seconds) -> Result<(), CircuitError> {
        let drive = PwmSchedule::always_on().with_failure_at(at)?;
        self.set_switch_drive(element, Some(drive), SwitchState::On)
    }

    fn op_mut(&mut self, element: ElementId) -> Result<&mut TranOp, CircuitError> {
        let index = element.index();
        self.ops
            .get_mut(index)
            .ok_or(CircuitError::UnknownElement { index })
    }

    /// Fills `sw_buf` with every switch's state at time `t`, in element
    /// order.
    fn compute_switch_states(&mut self, t: f64) {
        self.sw_buf.clear();
        for op in &self.ops {
            if let TranOpKind::Switch {
                schedule, initial, ..
            } = &op.kind
            {
                self.sw_buf
                    .push(schedule.map_or(*initial, |s| s.state_at(t)));
            }
        }
    }

    /// Resolves (building if needed) the factorization for the switch
    /// configuration in `sw_buf`. The common unchanged-configuration
    /// case is a vector compare, not a hash.
    fn ensure_factor(&mut self) -> Result<usize, CircuitError> {
        if let Some(k) = self.current {
            if self.current_key == self.sw_buf {
                return Ok(k);
            }
        }
        if let Some(&k) = self.factor_index.get(&self.sw_buf) {
            self.current_key.clone_from(&self.sw_buf);
            self.current = Some(k);
            return Ok(k);
        }
        vpd_obs::incr("transient.factorizations");
        let _span = vpd_obs::span("transient.factor_ns");
        let mut a = DenseMatrix::zeros(self.dim, self.dim);
        let mut sw_k = 0;
        for op in &self.ops {
            match &op.kind {
                TranOpKind::Conductance { g, .. } => stamp_g(&mut a, op.na, op.nb, *g)?,
                TranOpKind::Switch { g_on, g_off, .. } => {
                    let g = match self.sw_buf[sw_k] {
                        SwitchState::On => *g_on,
                        SwitchState::Off => *g_off,
                    };
                    sw_k += 1;
                    stamp_g(&mut a, op.na, op.nb, g)?;
                }
                TranOpKind::Capacitor { g } => stamp_g(&mut a, op.na, op.nb, *g)?,
                TranOpKind::Inductor { g } => stamp_g(&mut a, op.na, op.nb, *g)?,
                TranOpKind::VoltageSource { row, .. } => {
                    if let Some(i) = op.na {
                        a.add_at(i, *row, 1.0)?;
                        a.add_at(*row, i, 1.0)?;
                    }
                    if let Some(j) = op.nb {
                        a.add_at(j, *row, -1.0)?;
                        a.add_at(*row, j, -1.0)?;
                    }
                }
                TranOpKind::CurrentSource { .. } | TranOpKind::RampCurrent { .. } => {}
            }
        }
        let lu = LuFactor::new(&a)?;
        let k = self.factors.len();
        self.factors.push(lu);
        self.factor_index.insert(self.sw_buf.clone(), k);
        self.current_key.clone_from(&self.sw_buf);
        self.current = Some(k);
        Ok(k)
    }

    /// One backward-Euler step over the compiled ops with reusable
    /// buffers: assemble the right-hand side, solve against the cached
    /// factor of this step's switch configuration, and record.
    fn step(&mut self) -> Result<(), CircuitError> {
        let t = self.next_step as f64 * self.dt;
        self.compute_switch_states(t);
        let cur = self.ensure_factor()?;

        // RHS with companion-source history terms.
        for v in &mut self.rhs {
            *v = 0.0;
        }
        for (i, op) in self.ops.iter().enumerate() {
            match &op.kind {
                TranOpKind::CurrentSource { i: i_src } => {
                    if let Some(ia) = op.na {
                        self.rhs[ia] -= *i_src;
                    }
                    if let Some(ib) = op.nb {
                        self.rhs[ib] += *i_src;
                    }
                }
                TranOpKind::RampCurrent {
                    before,
                    after,
                    at,
                    rise,
                } => {
                    let i_src = ramp_value(*before, *after, *at, *rise, t);
                    if let Some(ia) = op.na {
                        self.rhs[ia] -= i_src;
                    }
                    if let Some(ib) = op.nb {
                        self.rhs[ib] += i_src;
                    }
                }
                TranOpKind::VoltageSource { v, row } => {
                    self.rhs[*row] = *v;
                }
                TranOpKind::Capacitor { g } => {
                    let hist = *g * self.state[i];
                    if let Some(ia) = op.na {
                        self.rhs[ia] += hist;
                    }
                    if let Some(ib) = op.nb {
                        self.rhs[ib] -= hist;
                    }
                }
                TranOpKind::Inductor { .. } => {
                    let hist = self.state[i];
                    if let Some(ia) = op.na {
                        self.rhs[ia] -= hist;
                    }
                    if let Some(ib) = op.nb {
                        self.rhs[ib] += hist;
                    }
                }
                TranOpKind::Conductance { .. } | TranOpKind::Switch { .. } => {}
            }
        }

        self.factors[cur].solve_into(&self.rhs, &mut self.x)?;
        self.voltages[0] = 0.0;
        self.voltages[1..self.n_nodes].copy_from_slice(&self.x[..self.n_nodes - 1]);

        // Record + update state.
        self.result.times.push(t);
        for (n, v) in self.voltages.iter().enumerate() {
            self.result.node_v[n].push(*v);
        }
        let mut sw_k = 0;
        for (i, op) in self.ops.iter().enumerate() {
            let vab = self.voltages[op.ra] - self.voltages[op.rb];
            let i_e = match &op.kind {
                TranOpKind::Conductance { r, .. } => vab / *r,
                TranOpKind::Switch { r_on, r_off, .. } => {
                    let r = match self.sw_buf[sw_k] {
                        SwitchState::On => *r_on,
                        SwitchState::Off => *r_off,
                    };
                    sw_k += 1;
                    vab / r
                }
                TranOpKind::CurrentSource { i } => *i,
                TranOpKind::RampCurrent {
                    before,
                    after,
                    at,
                    rise,
                } => ramp_value(*before, *after, *at, *rise, t),
                TranOpKind::VoltageSource { row, .. } => self.x[*row],
                TranOpKind::Capacitor { g } => {
                    let i_c = *g * (vab - self.state[i]);
                    self.state[i] = vab;
                    i_c
                }
                TranOpKind::Inductor { g } => {
                    let i_l = self.state[i] + *g * vab;
                    self.state[i] = i_l;
                    i_l
                }
            };
            self.result.element_i[i].push(i_e);
        }
        self.next_step += 1;
        Ok(())
    }
}

fn check_source_value(element: &'static str, value: f64) -> Result<(), CircuitError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(CircuitError::InvalidValue { element, value })
    }
}

fn check_source_time(element: &'static str, value: f64) -> Result<(), CircuitError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(CircuitError::InvalidValue { element, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PwmSchedule;
    use vpd_units::{Amps, Farads, Henries, Hertz, Ohms, Volts};

    /// Compiles `net` and runs it from scratch.
    fn run(net: &Netlist, settings: &TransientSettings) -> TransientResult {
        TransientPlan::compile(net, settings)
            .unwrap()
            .run()
            .unwrap()
            .clone()
    }

    #[test]
    fn rc_charge_matches_analytic() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.voltage_source(vin, net.ground(), Volts::new(1.0))
            .unwrap();
        net.resistor(vin, out, Ohms::new(1000.0)).unwrap();
        net.capacitor(
            out,
            net.ground(),
            Farads::from_microfarads(1.0),
            Volts::ZERO,
        )
        .unwrap();
        let settings = TransientSettings::new(Seconds::new(2e-3), Seconds::new(1e-7)).unwrap();
        let res = run(&net, &settings);
        // Compare against 1 − e^{−t/RC} at several times.
        let rc = 1e-3;
        for (k, &t) in res.times().iter().enumerate().step_by(2000) {
            let expected = 1.0 - (-t / rc).exp();
            let got = res.voltage(out)[k];
            assert!(
                (got - expected).abs() < 2e-3,
                "t={t}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn rl_rise_matches_analytic() {
        // V → R → L → gnd: i(t) = V/R (1 − e^{−tR/L}).
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let mid = net.node("mid");
        net.voltage_source(vin, net.ground(), Volts::new(1.0))
            .unwrap();
        net.resistor(vin, mid, Ohms::new(1.0)).unwrap();
        let l_id = net
            .inductor(
                mid,
                net.ground(),
                Henries::from_microhenries(1.0),
                Amps::ZERO,
            )
            .unwrap();
        let settings = TransientSettings::new(Seconds::new(5e-6), Seconds::new(1e-9)).unwrap();
        let res = run(&net, &settings);
        let tau = 1e-6;
        for (k, &t) in res.times().iter().enumerate().step_by(1000) {
            let expected = 1.0 - (-t / tau).exp();
            let got = res.current(l_id)[k];
            assert!(
                (got - expected).abs() < 5e-3,
                "t={t}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn switched_rc_reaches_duty_weighted_average() {
        // A PWM switch chopping 1 V into an RC filter settles at ~duty·V.
        let f = Hertz::from_megahertz(1.0);
        let duty = 0.3;
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let sw = net.node("sw");
        let out = net.node("out");
        net.voltage_source(vin, net.ground(), Volts::new(1.0))
            .unwrap();
        net.switch(
            vin,
            sw,
            Ohms::from_milliohms(1.0),
            Ohms::new(1e7),
            Some(PwmSchedule::new(f, duty, 0.0).unwrap()),
            SwitchState::Off,
        )
        .unwrap();
        // Pull-down so `sw` follows the off state too.
        net.switch(
            sw,
            net.ground(),
            Ohms::from_milliohms(1.0),
            Ohms::new(1e7),
            Some(PwmSchedule::new(f, duty, 0.0).unwrap().complementary()),
            SwitchState::On,
        )
        .unwrap();
        net.resistor(sw, out, Ohms::new(10.0)).unwrap();
        net.capacitor(
            out,
            net.ground(),
            Farads::from_microfarads(10.0),
            Volts::ZERO,
        )
        .unwrap();
        let settings = TransientSettings::new(Seconds::new(2e-3), Seconds::new(5e-9)).unwrap();
        let res = run(&net, &settings);
        let settled = TransientResult::settled_mean(res.voltage(out), 0.2);
        assert!(
            (settled - duty).abs() < 0.02,
            "settled at {settled}, expected ~{duty}"
        );
    }

    #[test]
    fn zero_rise_ramp_source_steps() {
        // A zero-rise ramp source into an RC supply node is a load step:
        // the classic first-order droop toward the new operating point.
        let mut net = Netlist::new();
        let n = net.node("n");
        net.voltage_source(n, net.ground(), Volts::new(1.0))
            .unwrap();
        let mid = net.node("mid");
        net.resistor(n, mid, Ohms::from_milliohms(1.0)).unwrap();
        net.capacitor(
            mid,
            net.ground(),
            Farads::from_microfarads(100.0),
            Volts::new(1.0),
        )
        .unwrap();
        let step_id = net
            .ramp_current_source(
                mid,
                net.ground(),
                Amps::new(10.0),
                Amps::new(100.0),
                Seconds::from_microseconds(1.0),
                Seconds::ZERO,
            )
            .unwrap();
        let settings = TransientSettings::new(
            Seconds::from_microseconds(5.0),
            Seconds::from_nanoseconds(2.0),
        )
        .unwrap();
        let res = run(&net, &settings);
        let i = res.current(step_id);
        let times = res.times();
        // Before the step: 10 A; after: 100 A.
        let before_idx = times.iter().position(|&t| t > 0.5e-6).unwrap();
        let after_idx = times.iter().position(|&t| t > 2e-6).unwrap();
        assert_eq!(i[before_idx], 10.0);
        assert_eq!(i[after_idx], 100.0);
        // Voltage settles lower after the step (bigger IR drop).
        let v = res.voltage(mid);
        assert!(v[after_idx.max(times.len() - 2)] < v[before_idx]);
    }

    /// Bitwise equality of two results, series by series.
    fn assert_results_bitwise(a: &TransientResult, b: &TransientResult) {
        assert_eq!(a.times.len(), b.times.len());
        for (x, y) in a.times.iter().zip(&b.times) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.node_v.len(), b.node_v.len());
        for (sa, sb) in a.node_v.iter().zip(&b.node_v) {
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(a.element_i.len(), b.element_i.len());
        for (sa, sb) in a.element_i.iter().zip(&b.element_i) {
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn ramp_current_source_interpolates_and_holds() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.resistor(n, net.ground(), Ohms::new(1.0)).unwrap();
        let ramp = net
            .ramp_current_source(
                n,
                net.ground(),
                Amps::new(1.0),
                Amps::new(5.0),
                Seconds::from_microseconds(2.0),
                Seconds::from_microseconds(4.0),
            )
            .unwrap();
        let settings = TransientSettings::new(
            Seconds::from_microseconds(10.0),
            Seconds::from_microseconds(1.0),
        )
        .unwrap();
        let res = run(&net, &settings);
        let i = res.current(ramp);
        // t = 0,1 µs: before; t = 2..6 µs: linear; t >= 6 µs: after.
        assert_eq!(i[0], 1.0);
        assert_eq!(i[1], 1.0);
        assert_eq!(i[2], 1.0); // ramp starts at `at`, still at `before`
        assert!((i[3] - 2.0).abs() < 1e-12);
        assert!((i[4] - 3.0).abs() < 1e-12);
        assert!((i[5] - 4.0).abs() < 1e-12);
        assert_eq!(i[6], 5.0);
        assert_eq!(i[10], 5.0);
    }

    #[test]
    fn ramp_source_validation() {
        let mut net = Netlist::new();
        let n = net.node("n");
        let g = net.ground();
        let ok = (Amps::new(1.0), Amps::new(2.0));
        assert!(net
            .ramp_current_source(n, g, ok.0, ok.1, Seconds::new(-1.0), Seconds::ZERO)
            .is_err());
        assert!(net
            .ramp_current_source(n, g, ok.0, ok.1, Seconds::ZERO, Seconds::new(-1e-9))
            .is_err());
        assert!(net
            .ramp_current_source(
                n,
                g,
                Amps::new(f64::NAN),
                ok.1,
                Seconds::ZERO,
                Seconds::ZERO
            )
            .is_err());
        assert!(net
            .ramp_current_source(n, g, ok.0, ok.1, Seconds::ZERO, Seconds::ZERO)
            .is_ok());
    }

    #[test]
    fn plan_restamp_matches_rebuild_from_scratch() {
        // Build with placeholder load-step params, restamp, and compare
        // to a netlist built directly with the final params.
        let make = |before: f64, after: f64, at_us: f64| {
            let mut net = Netlist::new();
            let vin = net.node("vin");
            let mid = net.node("mid");
            net.voltage_source(vin, net.ground(), Volts::new(1.0))
                .unwrap();
            net.resistor(vin, mid, Ohms::from_milliohms(2.0)).unwrap();
            net.capacitor(
                mid,
                net.ground(),
                Farads::from_microfarads(50.0),
                Volts::new(1.0),
            )
            .unwrap();
            let id = net
                .ramp_current_source(
                    mid,
                    net.ground(),
                    Amps::new(before),
                    Amps::new(after),
                    Seconds::from_microseconds(at_us),
                    Seconds::ZERO,
                )
                .unwrap();
            (net, id)
        };
        let settings = TransientSettings::new(
            Seconds::from_microseconds(10.0),
            Seconds::from_nanoseconds(10.0),
        )
        .unwrap();
        let (net_a, step_a) = make(1.0, 10.0, 1.0);
        let (net_b, _) = make(2.5, 40.0, 3.0);
        let mut plan = TransientPlan::compile(&net_a, &settings).unwrap();
        plan.run().unwrap();
        plan.set_load_ramp(
            step_a,
            Amps::new(2.5),
            Amps::new(40.0),
            Seconds::from_microseconds(3.0),
            Seconds::ZERO,
        )
        .unwrap();
        let restamped = plan.run().unwrap();
        let scratch = run(&net_b, &settings);
        assert_results_bitwise(restamped, &scratch);
        // The restamp must not have invalidated the factorization.
        assert_eq!(plan.cached_factorizations(), 1);
    }

    #[test]
    fn plan_set_source_rewrites_rhs_only() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        let vs = net
            .voltage_source(vin, net.ground(), Volts::new(1.0))
            .unwrap();
        let r = net.resistor(vin, out, Ohms::new(100.0)).unwrap();
        net.capacitor(
            out,
            net.ground(),
            Farads::from_microfarads(1.0),
            Volts::ZERO,
        )
        .unwrap();
        let settings = TransientSettings::new(Seconds::new(1e-4), Seconds::new(1e-7)).unwrap();
        let mut plan = TransientPlan::compile(&net, &settings).unwrap();
        plan.run().unwrap();
        plan.set_source(vs, 2.5).unwrap();
        let swept = plan.run().unwrap();
        let mut net2 = net.clone();
        net2.set_voltage(vs, Volts::new(2.5)).unwrap();
        let scratch = run(&net2, &settings);
        assert_results_bitwise(swept, &scratch);
        assert_eq!(plan.cached_factorizations(), 1);
        // Wrong-kind and out-of-range restamps are typed errors.
        assert!(plan.set_source(r, 1.0).is_err());
        assert!(plan
            .set_load_ramp(vs, Amps::ZERO, Amps::ZERO, Seconds::ZERO, Seconds::ZERO)
            .is_err());
        assert!(plan.set_source(ElementId(99), 1.0).is_err());
        assert!(plan.set_source(vs, f64::INFINITY).is_err());
    }

    #[test]
    fn fail_switch_at_matches_failure_baked_into_the_netlist() {
        // Restamping a mid-run switch failure onto a compiled plan must
        // replay the exact bits of compiling the dying netlist fresh.
        let build = |drive: Option<PwmSchedule>| {
            let mut net = Netlist::new();
            let vin = net.node("vin");
            let mid = net.node("mid");
            let out = net.node("out");
            net.voltage_source(vin, net.ground(), Volts::new(1.0))
                .unwrap();
            let sw = net
                .switch(
                    vin,
                    mid,
                    Ohms::from_milliohms(1.0),
                    Ohms::new(1e9),
                    drive,
                    SwitchState::On,
                )
                .unwrap();
            net.resistor(mid, out, Ohms::from_milliohms(5.0)).unwrap();
            net.capacitor(
                out,
                net.ground(),
                Farads::from_microfarads(1.0),
                Volts::new(1.0),
            )
            .unwrap();
            net.resistor(out, net.ground(), Ohms::new(1.0)).unwrap();
            (net, sw, out)
        };
        let settings = TransientSettings::new(
            Seconds::from_microseconds(8.0),
            Seconds::from_nanoseconds(20.0),
        )
        .unwrap();
        let at = Seconds::from_microseconds(3.0);
        let (healthy, sw, out) = build(None);
        let mut plan = TransientPlan::compile(&healthy, &settings).unwrap();
        plan.run().unwrap();
        assert_eq!(plan.cached_factorizations(), 1);
        plan.fail_switch_at(sw, at).unwrap();
        let restamped = plan.run().unwrap().clone();
        // The flip visits one new configuration; the healthy one stays
        // cached.
        assert_eq!(plan.cached_factorizations(), 2);
        let dying = PwmSchedule::always_on().with_failure_at(at).unwrap();
        let (baked, ..) = build(Some(dying));
        let scratch = run(&baked, &settings);
        assert_results_bitwise(&restamped, &scratch);
        // The die rail must actually sag once the switch opens.
        let v = restamped.voltage(out);
        assert!(v[0] > 0.9, "healthy rail holds up: {}", v[0]);
        assert!(
            *v.last().unwrap() < 0.1,
            "dead rail must collapse: {}",
            v.last().unwrap()
        );
        // Reverting the drive restores the healthy bits without a
        // third factorization.
        plan.set_switch_drive(sw, None, SwitchState::On).unwrap();
        let healthy_again = plan.run().unwrap().clone();
        assert_eq!(plan.cached_factorizations(), 2);
        let healthy_oracle = run(&healthy, &settings);
        assert_results_bitwise(&healthy_again, &healthy_oracle);
        // Wrong-kind, foreign-id, and bad-time restamps are typed
        // errors.
        let r_id = ElementId(2);
        assert!(plan.fail_switch_at(r_id, at).is_err());
        assert!(plan.set_switch_drive(r_id, None, SwitchState::On).is_err());
        assert!(plan.fail_switch_at(ElementId(99), at).is_err());
        assert!(plan.fail_switch_at(sw, Seconds::new(-1.0)).is_err());
        assert!(plan.fail_switch_at(sw, Seconds::new(f64::NAN)).is_err());
    }

    #[test]
    fn plan_rejects_empty_netlist() {
        let settings = TransientSettings::new(Seconds::new(1e-3), Seconds::new(1e-6)).unwrap();
        assert!(matches!(
            TransientPlan::compile(&Netlist::new(), &settings),
            Err(CircuitError::EmptyNetlist)
        ));
    }

    #[test]
    fn settings_validation() {
        assert!(TransientSettings::new(Seconds::new(0.0), Seconds::new(1e-9)).is_err());
        assert!(TransientSettings::new(Seconds::new(1e-3), Seconds::new(-1.0)).is_err());
        assert!(TransientSettings::new(Seconds::new(1e-9), Seconds::new(1e-3)).is_err());
    }

    #[test]
    fn empty_netlist_rejected() {
        // Nodes alone are not a circuit: with no element to stamp there
        // is nothing to simulate.
        let mut net = Netlist::new();
        net.node("a");
        net.node("b");
        let settings = TransientSettings::new(Seconds::new(1e-3), Seconds::new(1e-6)).unwrap();
        assert!(matches!(
            TransientPlan::compile(&net, &settings),
            Err(CircuitError::EmptyNetlist)
        ));
    }

    #[test]
    fn waveform_stats() {
        let series = [0.0, 1.0, 0.0, 1.0];
        assert!((TransientResult::settled_mean(&series, 1.0) - 0.5).abs() < 1e-12);
        assert!((TransientResult::settled_ripple(&series, 1.0) - 1.0).abs() < 1e-12);
        assert!((TransientResult::settled_rms(&series, 1.0) - (0.5_f64).sqrt()).abs() < 1e-12);
        assert_eq!(TransientResult::settled_mean(&[], 0.5), 0.0);
    }

    #[test]
    fn waveform_stats_edge_fractions() {
        let series = [2.0, 4.0, 6.0, 8.0];
        // fraction = 0 is an empty window — it must NOT silently average
        // the final sample (the old clamp made this return 8.0).
        assert_eq!(TransientResult::settled_mean(&series, 0.0), 0.0);
        assert_eq!(TransientResult::settled_rms(&series, 0.0), 0.0);
        assert_eq!(TransientResult::settled_ripple(&series, 0.0), 0.0);
        // fraction = 1 covers the whole series.
        assert!((TransientResult::settled_mean(&series, 1.0) - 5.0).abs() < 1e-12);
        assert!((TransientResult::settled_ripple(&series, 1.0) - 6.0).abs() < 1e-12);
        // fraction > 1 clamps to the whole series; negative clamps to
        // the empty window.
        assert_eq!(
            TransientResult::settled_mean(&series, 7.5),
            TransientResult::settled_mean(&series, 1.0)
        );
        assert_eq!(TransientResult::settled_rms(&series, -0.5), 0.0);
        // Half window: the last two samples exactly.
        assert!((TransientResult::settled_mean(&series, 0.5) - 7.0).abs() < 1e-12);
        // Empty series stays 0 for every statistic and fraction.
        for f in [0.0, 0.5, 1.0, 2.0] {
            assert_eq!(TransientResult::settled_mean(&[], f), 0.0);
            assert_eq!(TransientResult::settled_rms(&[], f), 0.0);
            assert_eq!(TransientResult::settled_ripple(&[], f), 0.0);
        }
    }
}
