//! DC operating-point analysis via modified nodal analysis (MNA).
//!
//! Two solve paths sit behind [`DcSolver::solve`], chosen by the
//! netlist's structure:
//!
//! * **Sparse Cholesky** — when every voltage source (and inductor,
//!   which is a 0 V source in DC) has a grounded terminal, the fixed
//!   nodes are eliminated and the remaining conductance Laplacian is
//!   symmetric positive definite. The solve compiles a [`SparseDcPlan`]
//!   in direct mode: an exact factorization, and large power-grid
//!   meshes solve in milliseconds.
//! * **Dense LU** — general MNA with voltage-source current unknowns,
//!   the only route for floating sources and inductors.
//!
//! Repeated solves of one topology keep a [`SparseDcPlan`] and restamp
//! it instead.

use crate::netlist::{ElementKind, SwitchState};
use crate::{CircuitError, ElementId, Netlist, NodeId};
use vpd_numeric::{
    resilient_solve_direct_into, resilient_solve_into, CgSettings, CgWorkspace, CooMatrix,
    CsrMatrix, DenseMatrix, LuFactor, PatternCache, Preconditioner, ResilientSettings, SolveReport,
    SparseCholesky, SymbolicCholesky,
};
use vpd_units::{Amps, Ohms, Volts, Watts};

/// The resilience ladder every [`SparseDcPlan`] solves through:
/// Jacobi-preconditioned CG to a 1e-10 relative residual (also the
/// direct rung's acceptance bar) with the default `10·n` iteration cap,
/// a cold restart with four times the cap, then dense LU. These are the
/// `ResilientSettings` defaults.
const LADDER: ResilientSettings = ResilientSettings {
    cg: CgSettings {
        tolerance: 1e-10,
        max_iterations: None,
        preconditioner: Preconditioner::Jacobi,
    },
    retry_iteration_factor: 4,
    allow_dense_fallback: true,
};

/// DC operating-point solver.
///
/// A reducible netlist (every voltage source and inductor grounded, no
/// node pinned twice) is solved by a one-shot [`SparseDcPlan`] in
/// [`DcPlanMode::DirectCholesky`]; any other netlist takes dense MNA.
/// Both answers are exact to factorization round-off.
///
/// ```
/// use vpd_circuit::{DcSolver, Netlist};
/// use vpd_units::{Amps, Ohms};
///
/// # fn main() -> Result<(), vpd_circuit::CircuitError> {
/// // 1 A pushed into a 2 Ω grounded resistor → 2 V.
/// let mut net = Netlist::new();
/// let n = net.node("n");
/// net.current_source(net.ground(), n, Amps::new(1.0))?;
/// net.resistor(n, net.ground(), Ohms::new(2.0))?;
/// let sol = DcSolver::new().solve(&net)?;
/// assert!((sol.voltage(n).value() - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DcSolver;

impl DcSolver {
    /// The solver. It holds no state: every call compiles afresh.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Solves the DC operating point.
    ///
    /// Capacitors are open circuits, inductors are 0 V sources (exact
    /// shorts), and switches take their `t = 0` state.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::EmptyNetlist`] — nothing to solve.
    /// * [`CircuitError::FloatingNode`] — some node has no resistive or
    ///   source path to ground.
    /// * [`CircuitError::Numeric`] — the factorization failed (e.g. a
    ///   loop of ideal voltage sources).
    pub fn solve(&self, net: &Netlist) -> Result<DcSolution, CircuitError> {
        let (branches, reducible) = lower_checked(net)?;
        if reducible {
            let mut plan = SparseDcPlan::build(net, &branches);
            plan.set_mode(DcPlanMode::DirectCholesky)?;
            return plan.solve(net);
        }
        solve_dense(net, &branches)
    }
}

/// A compiled sparse DC solve plan: symbolic analysis done once, numeric
/// restamping and warm-started CG per solve.
///
/// [`DcSolver::solve`] compiles a fresh plan on every call —
/// connectivity, node elimination, COO assembly, sort-and-merge,
/// current-recovery scans. When the same topology is solved hundreds of
/// times with different element values (Monte-Carlo sampling, design
/// sweeps, placement annealing), that symbolic work dominates. A plan
/// hoists it:
///
/// * node elimination and the CSR sparsity [`PatternCache`] are computed
///   at compile time;
/// * each solve re-reads element values and scatter-stamps them in place
///   (O(nnz), allocation-free);
/// * the CG solution vector persists across solves, so each solve
///   warm-starts from the last (or from an explicit
///   [`SparseDcPlan::set_guess`]);
/// * per-node element adjacency is cached for O(degree) source-current
///   recovery.
///
/// Value-only mutations ([`Netlist::set_resistance`] and friends) keep a
/// plan valid; terminal changes ([`Netlist::rewire`]) or adding elements
/// require [`SparseDcPlan::compile`] again (a stale plan is detected and
/// reported as [`CircuitError::StalePlan`]).
///
/// ```
/// use vpd_circuit::{Netlist, SparseDcPlan};
/// use vpd_units::{Amps, Ohms, Volts};
///
/// # fn main() -> Result<(), vpd_circuit::CircuitError> {
/// let mut net = Netlist::new();
/// let n = net.node("n");
/// net.current_source(net.ground(), n, Amps::new(1.0))?;
/// let r = net.resistor(n, net.ground(), Ohms::new(2.0))?;
/// let mut plan = SparseDcPlan::compile(&net)?;
/// assert!((plan.solve(&net)?.voltage(n).value() - 2.0).abs() < 1e-9);
/// net.set_resistance(r, Ohms::new(4.0))?; // restamp, no recompile
/// assert!((plan.solve(&net)?.voltage(n).value() - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SparseDcPlan {
    node_count: usize,
    /// Topology fingerprint: (a, b, kind tag) per element.
    fingerprint: Vec<(usize, usize, u8)>,
    unknown_index: Vec<Option<usize>>,
    fixed_from: Vec<FixedBy>,
    ops: Vec<StampOp>,
    csr: CsrMatrix,
    pattern: PatternCache,
    raw_values: Vec<f64>,
    rhs: Vec<f64>,
    fixed_vals: Vec<f64>,
    x: Vec<f64>,
    ws: CgWorkspace,
    adjacency: Vec<Vec<(usize, f64)>>,
    last_report: Option<SolveReport>,
    mode: DcPlanMode,
    /// Symbolic factorization cached at compile time (direct mode only):
    /// ordering, elimination tree, and the pattern of `L` — reused by
    /// every numeric refactorization, including retries after a failed
    /// one.
    sym: Option<SymbolicCholesky>,
    /// The numeric factor, built lazily on the first direct-mode solve
    /// (compile time has no element values yet) and refactored in place
    /// on every restamp.
    chol: Option<SparseCholesky>,
}

/// Which solver backs [`SparseDcPlan::solve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum DcPlanMode {
    /// Warm-started preconditioned CG behind the resilience ladder
    /// (restart, then dense LU) — the iterative default.
    #[default]
    WarmCg,
    /// Sparse Cholesky direct solves: the symbolic factorization is
    /// cached in the plan, each restamp refactors numerically (skipped
    /// when the matrix values are bitwise-unchanged), and failures
    /// degrade through the same CG ladder. Exact solves and no
    /// iteration-count variance.
    DirectCholesky,
}

/// How a node's potential is determined.
#[derive(Clone, Copy, Debug)]
enum FixedBy {
    /// Solved for (an unknown).
    Free,
    /// The reference node (0 V).
    Ground,
    /// Pinned by a grounded source element: `sign * V(element)`.
    Source { element: usize, sign: f64 },
}

/// Compiled per-element stamping instruction. The raw-value push order
/// (4 for `CondUU`, 1 for `CondUF`, 0 otherwise, in element order) is
/// the contract between compile-time pattern construction and per-solve
/// restamping.
#[derive(Clone, Copy, Debug)]
enum StampOp {
    /// Conductance between two unknowns.
    CondUU { i: usize, j: usize },
    /// Conductance between unknown `i` and fixed node `fixed_node`.
    CondUF { i: usize, fixed_node: usize },
    /// Conductance between two fixed nodes: no reduced-system stamp.
    CondFF,
    /// Current injection; right-hand side only.
    Current {
        ia: Option<usize>,
        ib: Option<usize>,
    },
    /// Open circuit or voltage constraint: nothing to stamp.
    Skip,
}

fn kind_tag(kind: &ElementKind) -> u8 {
    match kind {
        ElementKind::Resistor { .. } => 0,
        ElementKind::CurrentSource { .. } => 1,
        ElementKind::RampCurrentSource { .. } => 2,
        ElementKind::VoltageSource { .. } => 3,
        ElementKind::Capacitor { .. } => 4,
        ElementKind::Inductor { .. } => 5,
        ElementKind::Switch { .. } => 6,
    }
}

/// DC conductance of an element, if it lowers to one.
fn dc_conductance(kind: &ElementKind) -> Option<f64> {
    match kind {
        ElementKind::Resistor { r } => Some(1.0 / r.value()),
        ElementKind::Switch {
            r_on,
            r_off,
            schedule,
            initial,
        } => Some(1.0 / dc_switch_resistance(*r_on, *r_off, *schedule, *initial)),
        _ => None,
    }
}

/// DC injection current of an element, if it lowers to one.
fn dc_current(kind: &ElementKind) -> Option<f64> {
    match kind {
        ElementKind::CurrentSource { i } => Some(i.value()),
        ElementKind::RampCurrentSource { before, .. } => Some(before.value()),
        _ => None,
    }
}

/// DC constraint voltage of an element, if it lowers to a source.
fn dc_source_voltage(kind: &ElementKind) -> Option<f64> {
    match kind {
        ElementKind::VoltageSource { v } => Some(v.value()),
        ElementKind::Inductor { .. } => Some(0.0),
        _ => None,
    }
}

impl SparseDcPlan {
    /// Compiles the symbolic side of the sparse solve for this netlist
    /// topology, in [`DcPlanMode::WarmCg`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::EmptyNetlist`] — nothing to solve.
    /// * [`CircuitError::FloatingNode`] — disconnected nodes, or a
    ///   floating (ungrounded) voltage source/inductor, which the sparse
    ///   elimination cannot express.
    pub fn compile(net: &Netlist) -> Result<Self, CircuitError> {
        let (branches, reducible) = lower_checked(net)?;
        if !reducible {
            return Err(CircuitError::FloatingNode {
                label: "sparse plan requires grounded voltage sources".to_owned(),
            });
        }
        Ok(Self::build(net, &branches))
    }

    /// Compiles a plan in [`DcPlanMode::DirectCholesky`]: the
    /// fill-reducing ordering, elimination tree, and factor pattern are
    /// analyzed here, once, and every later solve only refactors
    /// numerically.
    ///
    /// # Errors
    ///
    /// As [`SparseDcPlan::compile`].
    pub fn compile_direct(net: &Netlist) -> Result<Self, CircuitError> {
        let mut plan = Self::compile(net)?;
        plan.set_mode(DcPlanMode::DirectCholesky)?;
        Ok(plan)
    }

    /// Builds the plan for lowered `branches` of a connected, reducible
    /// netlist.
    fn build(net: &Netlist, branches: &[Branch]) -> Self {
        let n = net.node_count();
        let mut fixed_from = vec![FixedBy::Free; n];
        fixed_from[0] = FixedBy::Ground;
        for b in branches {
            if let BranchKind::Source { .. } = b.kind {
                let (node, sign) = if b.b == net.ground() {
                    (b.a.index(), 1.0)
                } else {
                    (b.b.index(), -1.0)
                };
                fixed_from[node] = FixedBy::Source {
                    element: b.element,
                    sign,
                };
            }
        }
        let mut unknown_index: Vec<Option<usize>> = vec![None; n];
        let mut m = 0;
        for node in 0..n {
            if matches!(fixed_from[node], FixedBy::Free) {
                unknown_index[node] = Some(m);
                m += 1;
            }
        }

        let mut ops = Vec::with_capacity(branches.len());
        for b in branches {
            let op = match b.kind {
                BranchKind::Conductance(_) => {
                    let (na, nb) = (b.a.index(), b.b.index());
                    match (unknown_index[na], unknown_index[nb]) {
                        (Some(i), Some(j)) => StampOp::CondUU { i, j },
                        (Some(i), None) => StampOp::CondUF { i, fixed_node: nb },
                        (None, Some(j)) => StampOp::CondUF {
                            i: j,
                            fixed_node: na,
                        },
                        (None, None) => StampOp::CondFF,
                    }
                }
                BranchKind::Current(_) => StampOp::Current {
                    ia: unknown_index[b.a.index()],
                    ib: unknown_index[b.b.index()],
                },
                BranchKind::Source { .. } | BranchKind::Open => StampOp::Skip,
            };
            ops.push(op);
        }

        let mut coo = CooMatrix::new(m, m);
        for op in &ops {
            match *op {
                StampOp::CondUU { i, j } => {
                    coo.push_structural(i, i);
                    coo.push_structural(j, j);
                    coo.push_structural(i, j);
                    coo.push_structural(j, i);
                }
                StampOp::CondUF { i, .. } => coo.push_structural(i, i),
                _ => {}
            }
        }
        let (csr, pattern) = coo.to_csr_with_pattern();

        let fingerprint = net
            .elements()
            .iter()
            .map(|e| (e.a.index(), e.b.index(), kind_tag(&e.kind)))
            .collect();

        vpd_obs::incr("plan.compiles");
        Self {
            node_count: n,
            fingerprint,
            unknown_index,
            fixed_from,
            ops,
            raw_values: Vec::with_capacity(pattern.raw_len()),
            rhs: vec![0.0; m],
            fixed_vals: vec![0.0; n],
            x: vec![0.0; m],
            ws: CgWorkspace::new(),
            adjacency: build_adjacency(net),
            last_report: None,
            csr,
            pattern,
            mode: DcPlanMode::WarmCg,
            sym: None,
            chol: None,
        }
    }

    /// The solver mode backing [`SparseDcPlan::solve`].
    #[must_use]
    pub const fn mode(&self) -> DcPlanMode {
        self.mode
    }

    /// Switches the solver mode. Entering direct mode runs the symbolic
    /// analysis (if not already cached); leaving it keeps the analysis
    /// around so switching back is free.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Numeric`] if the symbolic analysis fails
    /// (cannot happen for plans this compiler produced — the reduced
    /// system is square by construction).
    pub fn set_mode(&mut self, mode: DcPlanMode) -> Result<(), CircuitError> {
        if mode == DcPlanMode::DirectCholesky && self.sym.is_none() {
            self.sym = Some(SymbolicCholesky::analyze(&self.csr)?);
        }
        self.mode = mode;
        Ok(())
    }

    /// Ensures a numeric factor object exists for the current symbolic
    /// analysis, building it from the current matrix values on first use.
    fn ensure_factor(&mut self) -> Result<&mut SparseCholesky, CircuitError> {
        if self.chol.is_none() {
            let sym = match &self.sym {
                Some(sym) => sym.clone(),
                None => SymbolicCholesky::analyze(&self.csr)?,
            };
            self.chol = Some(SparseCholesky::factor_with(&self.csr, sym)?);
        }
        Ok(self.chol.as_mut().expect("factor was just ensured"))
    }

    /// Number of eliminated-system unknowns.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.x.len()
    }

    /// The convergence report of the most recent successful solve:
    /// which ladder rung produced it, CG iterations spent, final
    /// relative residual, and whether CG stagnated along the way.
    #[must_use]
    pub fn last_report(&self) -> Option<SolveReport> {
        self.last_report
    }

    /// Seeds the next solve's warm start from a previous solution of the
    /// same topology (e.g. the nominal operating point of a Monte-Carlo
    /// study). Without this, each solve warm-starts from the previous
    /// solve's result.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::StalePlan`] when the solution's node count
    /// does not match the plan's.
    pub fn set_guess(&mut self, sol: &DcSolution) -> Result<(), CircuitError> {
        if sol.node_voltages.len() != self.node_count {
            return Err(CircuitError::StalePlan {
                reason: format!(
                    "guess has {} nodes, plan has {}",
                    sol.node_voltages.len(),
                    self.node_count
                ),
            });
        }
        for node in 0..self.node_count {
            if let Some(i) = self.unknown_index[node] {
                self.x[i] = sol.node_voltages[node];
            }
        }
        Ok(())
    }

    /// Clears the warm start: the next solve starts from zero, exactly
    /// reproducing a freshly compiled plan's first solve.
    pub fn reset_guess(&mut self) {
        self.x.fill(0.0);
    }

    /// Restamps current element values and solves, warm-starting from
    /// the current guess. When CG stagnates or runs out of iterations,
    /// the solve climbs the resilience ladder (cold-restart CG, then
    /// dense LU unless disabled) instead of failing; the rung that
    /// produced the answer is recorded in [`SparseDcPlan::last_report`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::StalePlan`] — the netlist's topology changed
    ///   since compile; recompile and retry.
    /// * [`CircuitError::Numeric`] — every permitted ladder rung failed
    ///   (the guess is reset so the next attempt is a clean cold start).
    pub fn solve(&mut self, net: &Netlist) -> Result<DcSolution, CircuitError> {
        self.check_topology(net)?;
        self.restamp(net)?;
        vpd_obs::incr("plan.solves");
        vpd_obs::incr("plan.restamps");
        let solve_result = self.run_ladder();
        let report = match solve_result {
            Ok(report) => report,
            Err(e) => {
                self.reset_guess();
                return Err(CircuitError::from(e));
            }
        };
        if report.iterations == 0 {
            vpd_obs::incr("plan.warm_hits");
        }
        self.last_report = Some(report);

        let node_voltages: Vec<f64> = (0..self.node_count)
            .map(|node| match self.unknown_index[node] {
                Some(i) => self.x[i],
                None => self.fixed_vals[node],
            })
            .collect();
        let element_currents = recover_currents(net, &node_voltages, &self.adjacency);
        Ok(DcSolution {
            node_voltages,
            element_currents,
        })
    }

    /// Runs the restamped system through the ladder the current mode
    /// selects. In direct mode a failed *first* factorization (the only
    /// one [`SparseDcPlan::ensure_factor`] can't hand to the resilient
    /// direct ladder) degrades to the iterative ladder for this solve
    /// and is retried on the next.
    fn run_ladder(&mut self) -> Result<SolveReport, vpd_numeric::NumericError> {
        if self.mode == DcPlanMode::DirectCholesky {
            if self.chol.is_none() && self.ensure_factor().is_err() {
                vpd_obs::incr("plan.direct_factor_failures");
            } else if let Some(chol) = self.chol.as_mut() {
                return resilient_solve_direct_into(
                    &self.csr,
                    chol,
                    &self.rhs,
                    &mut self.x,
                    &LADDER,
                    &mut self.ws,
                );
            }
        }
        resilient_solve_into(&self.csr, &self.rhs, &mut self.x, &LADDER, &mut self.ws)
    }

    fn check_topology(&self, net: &Netlist) -> Result<(), CircuitError> {
        if net.node_count() != self.node_count {
            return Err(CircuitError::StalePlan {
                reason: format!(
                    "netlist has {} nodes, plan compiled for {}",
                    net.node_count(),
                    self.node_count
                ),
            });
        }
        if net.element_count() != self.fingerprint.len() {
            return Err(CircuitError::StalePlan {
                reason: format!(
                    "netlist has {} elements, plan compiled for {}",
                    net.element_count(),
                    self.fingerprint.len()
                ),
            });
        }
        for (idx, (e, fp)) in net.elements().iter().zip(&self.fingerprint).enumerate() {
            if (e.a.index(), e.b.index(), kind_tag(&e.kind)) != *fp {
                return Err(CircuitError::StalePlan {
                    reason: format!("element {idx} ({}) changed terminals or kind", e.label),
                });
            }
        }
        Ok(())
    }

    /// Restamps the reduced system from `net`'s current values and
    /// returns its matrix and right-hand side, leaving the warm-start
    /// guess alone — the entry point for analyses that factor the
    /// system themselves.
    pub(crate) fn stamp(&mut self, net: &Netlist) -> Result<(&CsrMatrix, &[f64]), CircuitError> {
        self.check_topology(net)?;
        self.restamp(net)?;
        vpd_obs::incr("plan.restamps");
        Ok((&self.csr, &self.rhs))
    }

    /// The reduced-system unknown that carries `node`'s voltage, if the
    /// node is not fixed by a source or ground.
    pub(crate) fn unknown_of(&self, node: NodeId) -> Option<usize> {
        self.unknown_index.get(node.index()).copied().flatten()
    }

    /// Re-reads the source-fixed node voltages.
    fn stamp_fixed(&mut self, net: &Netlist) {
        for node in 0..self.node_count {
            self.fixed_vals[node] = match self.fixed_from[node] {
                FixedBy::Free | FixedBy::Ground => 0.0,
                FixedBy::Source { element, sign } => {
                    sign * dc_source_voltage(&net.elements()[element].kind).unwrap_or(0.0)
                }
            };
        }
    }

    /// Numeric restamp: re-reads element values and rebuilds matrix
    /// values and right-hand side in place. O(elements + nnz), no
    /// allocation.
    fn restamp(&mut self, net: &Netlist) -> Result<(), CircuitError> {
        self.stamp_fixed(net);
        self.raw_values.clear();
        self.rhs.fill(0.0);
        for (e, op) in net.elements().iter().zip(&self.ops) {
            match *op {
                StampOp::CondUU { .. } => {
                    let g = dc_conductance(&e.kind).unwrap_or(0.0);
                    self.raw_values.extend_from_slice(&[g, g, -g, -g]);
                }
                StampOp::CondUF { i, fixed_node } => {
                    let g = dc_conductance(&e.kind).unwrap_or(0.0);
                    self.raw_values.push(g);
                    self.rhs[i] += g * self.fixed_vals[fixed_node];
                }
                StampOp::Current { ia, ib } => {
                    let i_src = dc_current(&e.kind).unwrap_or(0.0);
                    if let Some(i) = ia {
                        self.rhs[i] -= i_src;
                    }
                    if let Some(j) = ib {
                        self.rhs[j] += i_src;
                    }
                }
                StampOp::CondFF | StampOp::Skip => {}
            }
        }
        self.csr
            .update_values(&self.pattern, &self.raw_values)
            .map_err(CircuitError::from)
    }
}

/// Result of a DC solve: node voltages and per-element branch currents.
///
/// Branch current convention: positive current flows from terminal `a`
/// to terminal `b` *through the element*.
#[derive(Clone, PartialEq, Debug)]
pub struct DcSolution {
    node_voltages: Vec<f64>,
    element_currents: Vec<f64>,
}

impl DcSolution {
    /// Voltage at a node (ground is exactly 0 V).
    ///
    /// # Panics
    ///
    /// Panics if `node` belongs to a different netlist (index out of
    /// range).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Volts {
        Volts::new(self.node_voltages[node.index()])
    }

    /// Branch current through an element, flowing `a → b`.
    ///
    /// # Panics
    ///
    /// Panics if `element` belongs to a different netlist.
    #[must_use]
    pub fn current(&self, element: ElementId) -> Amps {
        Amps::new(self.element_currents[element.index()])
    }

    /// Power dissipated in an element: `(V(a) − V(b)) · I_{a→b}`.
    ///
    /// Positive for passive elements; negative for sources delivering
    /// power.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownElement`] for a foreign id.
    pub fn dissipated_power(
        &self,
        net: &Netlist,
        element: ElementId,
    ) -> Result<Watts, CircuitError> {
        let e = net.element(element)?;
        let v = self.node_voltages[e.a.index()] - self.node_voltages[e.b.index()];
        Ok(Watts::new(v * self.element_currents[element.index()]))
    }

    /// Total power dissipated in resistive elements (resistors and
    /// switches).
    #[must_use]
    pub fn resistive_loss(&self, net: &Netlist) -> Watts {
        net.elements()
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                matches!(
                    e.kind,
                    ElementKind::Resistor { .. } | ElementKind::Switch { .. }
                )
            })
            .map(|(i, e)| {
                let v = self.node_voltages[e.a.index()] - self.node_voltages[e.b.index()];
                Watts::new(v * self.element_currents[i])
            })
            .sum()
    }

    /// KCL residual at a node: net current leaving the node through all
    /// elements. Should be ~0 everywhere in a correct solution.
    #[must_use]
    pub fn kcl_residual(&self, net: &Netlist, node: NodeId) -> Amps {
        let mut sum = 0.0;
        for (i, e) in net.elements().iter().enumerate() {
            if e.a == node {
                sum += self.element_currents[i];
            }
            if e.b == node {
                sum -= self.element_currents[i];
            }
        }
        Amps::new(sum)
    }

    /// The worst KCL residual over all nodes — the solver's self-check.
    #[must_use]
    pub fn max_kcl_residual(&self, net: &Netlist) -> Amps {
        (0..self.node_voltages.len())
            .map(|n| self.kcl_residual(net, NodeId(n)).abs())
            .fold(Amps::ZERO, Amps::max)
    }

    /// All node voltages, indexed by [`NodeId::index`].
    #[must_use]
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_voltages
    }
}

/// A lowered branch: every element reduced to its DC equivalent.
struct Branch {
    a: NodeId,
    b: NodeId,
    kind: BranchKind,
    element: usize,
}

enum BranchKind {
    /// Conductance (resistor, switch).
    Conductance(f64),
    /// Current injection `a → b` through the element.
    Current(f64),
    /// Voltage constraint `V(a) − V(b) = v` (voltage source, inductor).
    Source { v: f64, source_index: usize },
    /// Open circuit (capacitor): carries no DC current.
    Open,
}

fn dc_switch_resistance(
    r_on: Ohms,
    r_off: Ohms,
    schedule: Option<crate::PwmSchedule>,
    initial: SwitchState,
) -> f64 {
    let state = schedule.map_or(initial, |s| s.state_at(0.0));
    match state {
        SwitchState::On => r_on.value(),
        SwitchState::Off => r_off.value(),
    }
}

fn lower(net: &Netlist) -> Vec<Branch> {
    let mut source_index = 0;
    net.elements()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let kind = match &e.kind {
                ElementKind::Resistor { r } => BranchKind::Conductance(1.0 / r.value()),
                ElementKind::Switch {
                    r_on,
                    r_off,
                    schedule,
                    initial,
                } => BranchKind::Conductance(
                    1.0 / dc_switch_resistance(*r_on, *r_off, *schedule, *initial),
                ),
                ElementKind::CurrentSource { i } => BranchKind::Current(i.value()),
                // DC operating point precedes the ramp.
                ElementKind::RampCurrentSource { before, .. } => {
                    BranchKind::Current(before.value())
                }
                ElementKind::VoltageSource { v } => {
                    let k = BranchKind::Source {
                        v: v.value(),
                        source_index,
                    };
                    source_index += 1;
                    k
                }
                ElementKind::Inductor { .. } => {
                    let k = BranchKind::Source {
                        v: 0.0,
                        source_index,
                    };
                    source_index += 1;
                    k
                }
                ElementKind::Capacitor { .. } => BranchKind::Open,
            };
            Branch {
                a: e.a,
                b: e.b,
                kind,
                element: i,
            }
        })
        .collect()
}

/// Union-find connectivity check: every node must reach ground through
/// conductive or source branches.
fn check_connectivity(net: &Netlist) -> Result<(), CircuitError> {
    let n = net.node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in net.elements() {
        let conductive = matches!(
            e.kind,
            ElementKind::Resistor { .. }
                | ElementKind::Switch { .. }
                | ElementKind::VoltageSource { .. }
                | ElementKind::Inductor { .. }
        );
        if conductive {
            let ra = find(&mut parent, e.a.index());
            let rb = find(&mut parent, e.b.index());
            parent[ra] = rb;
        }
    }
    let ground_root = find(&mut parent, 0);
    for idx in 1..n {
        if find(&mut parent, idx) != ground_root {
            return Err(CircuitError::FloatingNode {
                label: net
                    .node_label(NodeId(idx))
                    .unwrap_or("<unknown>")
                    .to_owned(),
            });
        }
    }
    Ok(())
}

/// Validates `net` for a DC solve and lowers it, reporting whether the
/// lowered netlist is reducible: every source branch grounded and no node
/// pinned twice, so the sparse elimination applies.
fn lower_checked(net: &Netlist) -> Result<(Vec<Branch>, bool), CircuitError> {
    if net.element_count() == 0 {
        return Err(CircuitError::EmptyNetlist);
    }
    check_connectivity(net)?;
    let branches = lower(net);
    let reducible = branches.iter().all(|b| match b.kind {
        BranchKind::Source { .. } => b.a == net.ground() || b.b == net.ground(),
        _ => true,
    }) && fixed_nodes_unique(net, &branches);
    Ok((branches, reducible))
}

/// `true` when no node is constrained by two different grounded sources
/// (that would make the fast elimination ambiguous; dense MNA reports it
/// as singular instead).
fn fixed_nodes_unique(net: &Netlist, branches: &[Branch]) -> bool {
    let mut fixed = vec![false; net.node_count()];
    for b in branches {
        if let BranchKind::Source { .. } = b.kind {
            let node = if b.a == net.ground() { b.b } else { b.a };
            if node == net.ground() || fixed[node.index()] {
                return false;
            }
            fixed[node.index()] = true;
        }
    }
    true
}

/// Dense MNA with voltage-source current unknowns, then branch-current
/// recovery.
fn solve_dense(net: &Netlist, branches: &[Branch]) -> Result<DcSolution, CircuitError> {
    let nv = net.node_count() - 1; // ground eliminated
    let ns = branches
        .iter()
        .filter(|b| matches!(b.kind, BranchKind::Source { .. }))
        .count();
    let dim = nv + ns;
    let mut a = DenseMatrix::zeros(dim, dim);
    let mut rhs = vec![0.0; dim];

    // Node n (>0) maps to row/col n-1.
    let idx = |n: NodeId| -> Option<usize> {
        let i = n.index();
        (i > 0).then(|| i - 1)
    };

    for b in branches {
        match b.kind {
            BranchKind::Conductance(g) => {
                if let Some(i) = idx(b.a) {
                    a.add_at(i, i, g)?;
                }
                if let Some(j) = idx(b.b) {
                    a.add_at(j, j, g)?;
                }
                if let (Some(i), Some(j)) = (idx(b.a), idx(b.b)) {
                    a.add_at(i, j, -g)?;
                    a.add_at(j, i, -g)?;
                }
            }
            BranchKind::Current(i_src) => {
                if let Some(i) = idx(b.a) {
                    rhs[i] -= i_src;
                }
                if let Some(j) = idx(b.b) {
                    rhs[j] += i_src;
                }
            }
            BranchKind::Source { v, source_index } => {
                let row = nv + source_index;
                if let Some(i) = idx(b.a) {
                    a.add_at(i, row, 1.0)?;
                    a.add_at(row, i, 1.0)?;
                }
                if let Some(j) = idx(b.b) {
                    a.add_at(j, row, -1.0)?;
                    a.add_at(row, j, -1.0)?;
                }
                rhs[row] = v;
            }
            BranchKind::Open => {}
        }
    }

    let lu = LuFactor::new(&a).map_err(CircuitError::from)?;
    let x = lu.solve(&rhs).map_err(CircuitError::from)?;

    let mut node_voltages = vec![0.0; net.node_count()];
    node_voltages[1..].copy_from_slice(&x[..net.node_count() - 1]);
    let element_currents = recover_currents(net, &node_voltages, &build_adjacency(net));
    Ok(DcSolution {
        node_voltages,
        element_currents,
    })
}

/// Per-node incident-element lists: for each node, `(element index,
/// sign)` where sign is `+1.0` when the node is terminal `a` of the
/// element and `-1.0` when it is terminal `b`. With the `a → b` current
/// convention, `sign * current` is the current *leaving* the node
/// through that element.
fn build_adjacency(net: &Netlist) -> Vec<Vec<(usize, f64)>> {
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); net.node_count()];
    for (i, e) in net.elements().iter().enumerate() {
        adj[e.a.index()].push((i, 1.0));
        adj[e.b.index()].push((i, -1.0));
    }
    adj
}

/// Recovers per-element branch currents (`a → b` through the element)
/// from solved node voltages, using the incident-element adjacency for
/// O(degree) KCL balances instead of full element scans.
fn recover_currents(net: &Netlist, voltages: &[f64], adjacency: &[Vec<(usize, f64)>]) -> Vec<f64> {
    let mut currents = vec![0.0; net.element_count()];
    let mut unresolved = Vec::new();
    // First pass: everything except voltage-constraint elements.
    for (i, e) in net.elements().iter().enumerate() {
        currents[i] = if let Some(g) = dc_conductance(&e.kind) {
            (voltages[e.a.index()] - voltages[e.b.index()]) * g
        } else if let Some(i_src) = dc_current(&e.kind) {
            i_src
        } else if dc_source_voltage(&e.kind).is_some() {
            unresolved.push(i);
            f64::NAN // filled below
        } else {
            0.0 // capacitor: DC open circuit
        };
    }
    // Second pass: source currents by KCL. A source incident to a node
    // whose every *other* incident element is known gets its current from
    // that node's balance; source chains resolve from the ends inward.
    while !unresolved.is_empty() {
        let mut progressed = false;
        unresolved.retain(|&elem| {
            let e = &net.elements()[elem];
            for (node, sign) in [(e.a, 1.0), (e.b, -1.0)] {
                // Sum of known currents leaving `node` through other elements.
                let mut sum = 0.0;
                let mut ok = true;
                for &(other, other_sign) in &adjacency[node.index()] {
                    if other == elem {
                        continue;
                    }
                    if currents[other].is_nan() {
                        ok = false;
                        break;
                    }
                    sum += other_sign * currents[other];
                }
                if ok {
                    // KCL: current leaving `node` through this source
                    // balances the rest: sign * I_e = -sum.
                    currents[elem] = -sum * sign;
                    progressed = true;
                    return false;
                }
            }
            true
        });
        if !progressed {
            // Degenerate source cluster (e.g. a loop of sources); leave
            // the remaining currents as 0 rather than NaN.
            for &elem in &unresolved {
                currents[elem] = 0.0;
            }
            break;
        }
    }
    currents
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn divider() -> (Netlist, NodeId, NodeId) {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.voltage_source(vin, net.ground(), Volts::new(12.0))
            .unwrap();
        net.resistor(vin, out, Ohms::new(2.0)).unwrap();
        net.resistor(out, net.ground(), Ohms::new(1.0)).unwrap();
        (net, vin, out)
    }

    #[test]
    fn voltage_divider_dense() {
        let (net, vin, out) = divider();
        let sol = solve_dense(&net, &lower(&net)).unwrap();
        assert!((sol.voltage(vin).value() - 12.0).abs() < 1e-12);
        assert!((sol.voltage(out).value() - 4.0).abs() < 1e-12);
        assert!(sol.max_kcl_residual(&net).value() < 1e-9);
    }

    #[test]
    fn voltage_divider_sparse_matches_dense() {
        let (net, vin, out) = divider();
        let dense = solve_dense(&net, &lower(&net)).unwrap();
        let sol = SparseDcPlan::compile(&net).unwrap().solve(&net).unwrap();
        assert!((sol.voltage(vin).value() - 12.0).abs() < 1e-9);
        assert!((sol.voltage(out).value() - 4.0).abs() < 1e-9);
        for n in 0..net.node_count() {
            assert!((sol.node_voltages()[n] - dense.node_voltages()[n]).abs() < 1e-9);
        }
    }

    #[test]
    fn source_current_is_recovered() {
        let (net, _, _) = divider();
        // Total series resistance 3 Ω across 12 V → 4 A. Source current
        // a→b (vin→gnd through the source) should be −4 A: current flows
        // out of + terminal into the circuit.
        let sol = DcSolver::new().solve(&net).unwrap();
        let source_id = ElementId(0);
        assert!((sol.current(source_id).value() + 4.0).abs() < 1e-9);
        // Delivered power = −dissipated = 48 W.
        let p = sol.dissipated_power(&net, source_id).unwrap();
        assert!((p.value() + 48.0).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.current_source(net.ground(), n, Amps::new(3.0)).unwrap();
        net.resistor(n, net.ground(), Ohms::new(4.0)).unwrap();
        let sol = DcSolver::new().solve(&net).unwrap();
        assert!((sol.voltage(n).value() - 12.0).abs() < 1e-12);
        assert!((sol.resistive_loss(&net).value() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.voltage_source(a, net.ground(), Volts::new(5.0))
            .unwrap();
        net.inductor(a, b, vpd_units::Henries::from_microhenries(1.0), Amps::ZERO)
            .unwrap();
        net.resistor(b, net.ground(), Ohms::new(5.0)).unwrap();
        let sol = DcSolver::new().solve(&net).unwrap();
        assert!((sol.voltage(b).value() - 5.0).abs() < 1e-9);
        // 1 A flows through the inductor.
        assert!((sol.current(ElementId(1)).value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.voltage_source(a, net.ground(), Volts::new(5.0))
            .unwrap();
        net.resistor(a, b, Ohms::new(1.0)).unwrap();
        net.capacitor(
            b,
            net.ground(),
            vpd_units::Farads::from_microfarads(1.0),
            Volts::ZERO,
        )
        .unwrap();
        // b floats at 5 V through the resistor: no current flows.
        let sol = DcSolver::new().solve(&net).unwrap();
        assert!((sol.voltage(b).value() - 5.0).abs() < 1e-9);
        assert_eq!(sol.current(ElementId(2)).value(), 0.0);
    }

    #[test]
    fn switch_states_in_dc() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.voltage_source(a, net.ground(), Volts::new(1.0))
            .unwrap();
        net.switch(
            a,
            b,
            Ohms::from_milliohms(1.0),
            Ohms::new(1e6),
            None,
            SwitchState::On,
        )
        .unwrap();
        net.resistor(b, net.ground(), Ohms::new(1.0)).unwrap();
        let sol = DcSolver::new().solve(&net).unwrap();
        assert!(sol.voltage(b).value() > 0.99);
    }

    #[test]
    fn floating_node_is_reported_with_label() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let lonely = net.node("lonely");
        let other = net.node("other");
        net.resistor(a, net.ground(), Ohms::new(1.0)).unwrap();
        net.resistor(lonely, other, Ohms::new(1.0)).unwrap();
        match DcSolver::new().solve(&net) {
            Err(CircuitError::FloatingNode { label }) => {
                assert!(label == "lonely" || label == "other");
            }
            other => panic!("expected FloatingNode, got {other:?}"),
        }
    }

    #[test]
    fn node_fed_only_by_current_source_is_floating() {
        let mut net = Netlist::new();
        let n = net.node("n");
        net.current_source(net.ground(), n, Amps::new(1.0)).unwrap();
        assert!(matches!(
            DcSolver::new().solve(&net),
            Err(CircuitError::FloatingNode { .. })
        ));
    }

    #[test]
    fn empty_netlist_rejected() {
        assert!(matches!(
            DcSolver::new().solve(&Netlist::new()),
            Err(CircuitError::EmptyNetlist)
        ));
    }

    #[test]
    fn floating_voltage_source_works_dense() {
        // vin --R-- mid --(floating V)-- out --R-- gnd
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let mid = net.node("mid");
        let out = net.node("out");
        net.voltage_source(vin, net.ground(), Volts::new(10.0))
            .unwrap();
        net.resistor(vin, mid, Ohms::new(1.0)).unwrap();
        net.voltage_source(mid, out, Volts::new(2.0)).unwrap();
        net.resistor(out, net.ground(), Ohms::new(1.0)).unwrap();
        let sol = DcSolver::new().solve(&net).unwrap();
        // KVL: 10 = i·1 + 2 + i·1 → i = 4; out = 4 V, mid = 6 V.
        assert!((sol.voltage(mid).value() - 6.0).abs() < 1e-9);
        assert!((sol.voltage(out).value() - 4.0).abs() < 1e-9);
        assert!(sol.max_kcl_residual(&net).value() < 1e-9);
    }

    #[test]
    fn auto_uses_sparse_for_large_reducible_grids() {
        // A 25x25 resistor mesh (625 nodes) with a grounded source is
        // reducible: the one-shot solve is the direct sparse plan, and it
        // must produce a correct solution.
        let mut net = Netlist::new();
        let side = 25;
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(net.node(&format!("n{x}_{y}")));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let here = ids[y * side + x];
                if x + 1 < side {
                    net.resistor(here, ids[y * side + x + 1], Ohms::new(1.0))
                        .unwrap();
                }
                if y + 1 < side {
                    net.resistor(here, ids[(y + 1) * side + x], Ohms::new(1.0))
                        .unwrap();
                }
            }
        }
        net.voltage_source(ids[0], net.ground(), Volts::new(1.0))
            .unwrap();
        net.current_source(ids[side * side - 1], net.ground(), Amps::new(0.5))
            .unwrap();
        let sol = DcSolver::new().solve(&net).unwrap();
        let direct = SparseDcPlan::compile_direct(&net)
            .unwrap()
            .solve(&net)
            .unwrap();
        assert_eq!(sol, direct);
        assert!((sol.voltage(ids[0]).value() - 1.0).abs() < 1e-9);
        // Pulling 0.5 A out of the far corner drops its voltage below 1 V.
        assert!(sol.voltage(ids[side * side - 1]).value() < 1.0);
        assert!(sol.max_kcl_residual(&net).value() < 1e-6);
    }

    /// `side`×`side` unit-resistance mesh with a 1 V source at one
    /// corner and a load current pulled from the opposite corner.
    /// Returns the netlist, node ids, and the load source's element id.
    fn mesh(side: usize, i_load: f64) -> (Netlist, Vec<NodeId>, ElementId) {
        let mut net = Netlist::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(net.node(&format!("n{x}_{y}")));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let here = ids[y * side + x];
                if x + 1 < side {
                    net.resistor(here, ids[y * side + x + 1], Ohms::new(1.0))
                        .unwrap();
                }
                if y + 1 < side {
                    net.resistor(here, ids[(y + 1) * side + x], Ohms::new(1.0))
                        .unwrap();
                }
            }
        }
        net.voltage_source(ids[0], net.ground(), Volts::new(1.0))
            .unwrap();
        let load = net
            .current_source(ids[side * side - 1], net.ground(), Amps::new(i_load))
            .unwrap();
        (net, ids, load)
    }

    #[test]
    fn plan_matches_solver_on_divider() {
        let (net, vin, out) = divider();
        let mut plan = SparseDcPlan::compile(&net).unwrap();
        let sol = plan.solve(&net).unwrap();
        let reference = DcSolver::new().solve(&net).unwrap();
        assert!((sol.voltage(vin).value() - 12.0).abs() < 1e-9);
        assert!((sol.voltage(out).value() - 4.0).abs() < 1e-9);
        // Source current recovery matches the one-shot solver.
        assert!(
            (sol.current(ElementId(0)).value() - reference.current(ElementId(0)).value()).abs()
                < 1e-9
        );
        assert!(sol.max_kcl_residual(&net).value() < 1e-9);
    }

    #[test]
    fn plan_restamp_matches_fresh_solve() {
        let (mut net, ids, load) = mesh(12, 0.25);
        let mut plan = SparseDcPlan::compile(&net).unwrap();
        let first = plan.solve(&net).unwrap();
        let fresh = DcSolver::new().solve(&net).unwrap();
        for n in 0..net.node_count() {
            assert!((first.node_voltages()[n] - fresh.node_voltages()[n]).abs() < 1e-8);
        }
        // Change element values only: heavier load, one fattened edge.
        net.set_current(load, Amps::new(0.75)).unwrap();
        net.set_resistance(ElementId(0), Ohms::new(0.2)).unwrap();
        let restamped = plan.solve(&net).unwrap();
        let fresh = DcSolver::new().solve(&net).unwrap();
        for n in 0..net.node_count() {
            assert!((restamped.node_voltages()[n] - fresh.node_voltages()[n]).abs() < 1e-8);
        }
        assert!(
            restamped.voltage(*ids.last().unwrap()).value()
                < first.voltage(*ids.last().unwrap()).value()
        );
        assert!(restamped.max_kcl_residual(&net).value() < 1e-6);
    }

    #[test]
    fn plan_detects_topology_change() {
        let (mut net, ids, _) = mesh(4, 0.1);
        let mut plan = SparseDcPlan::compile(&net).unwrap();
        plan.solve(&net).unwrap();
        // Rewiring an element invalidates the compiled pattern.
        net.rewire(ElementId(0), ids[0], ids[5]).unwrap();
        assert!(matches!(
            plan.solve(&net),
            Err(CircuitError::StalePlan { .. })
        ));
        let mut plan = SparseDcPlan::compile(&net).unwrap();
        let sol = plan.solve(&net).unwrap();
        assert!(sol.max_kcl_residual(&net).value() < 1e-6);
    }

    #[test]
    fn plan_warm_start_beats_cold_on_perturbed_grid() {
        let (mut net, _, load) = mesh(25, 0.5);
        let mut warm_plan = SparseDcPlan::compile(&net).unwrap();
        warm_plan.solve(&net).unwrap();
        // Small perturbation, as in a Monte-Carlo sample.
        net.set_current(load, Amps::new(0.52)).unwrap();
        let warm_sol = warm_plan.solve(&net).unwrap();
        let warm_iters = warm_plan.last_report().unwrap().iterations;
        let mut cold_plan = SparseDcPlan::compile(&net).unwrap();
        let cold_sol = cold_plan.solve(&net).unwrap();
        let cold_iters = cold_plan.last_report().unwrap().iterations;
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
        for n in 0..net.node_count() {
            assert!((warm_sol.node_voltages()[n] - cold_sol.node_voltages()[n]).abs() < 1e-7);
        }
    }

    #[test]
    fn plan_set_guess_validates_and_reset_matches_cold() {
        let (net, _, _) = mesh(8, 0.3);
        let mut plan = SparseDcPlan::compile(&net).unwrap();
        let sol = plan.solve(&net).unwrap();
        // A guess from a different netlist is rejected.
        let (other_net, _, _) = mesh(4, 0.3);
        let mut other_plan = SparseDcPlan::compile(&other_net).unwrap();
        let other_sol = other_plan.solve(&other_net).unwrap();
        assert!(matches!(
            plan.set_guess(&other_sol),
            Err(CircuitError::StalePlan { .. })
        ));
        plan.set_guess(&sol).unwrap();
        let warm = plan.solve(&net).unwrap();
        assert_eq!(plan.last_report().unwrap().iterations, 0);
        plan.reset_guess();
        let cold = plan.solve(&net).unwrap();
        for n in 0..net.node_count() {
            assert!((warm.node_voltages()[n] - cold.node_voltages()[n]).abs() < 1e-8);
        }
    }

    #[test]
    fn direct_plan_matches_cg_plan_within_tolerance() {
        let (net, _, _) = mesh(12, 0.4);
        let mut cg_plan = SparseDcPlan::compile(&net).unwrap();
        let cg_sol = cg_plan.solve(&net).unwrap();
        let mut direct_plan = SparseDcPlan::compile_direct(&net).unwrap();
        assert_eq!(direct_plan.mode(), DcPlanMode::DirectCholesky);
        let direct_sol = direct_plan.solve(&net).unwrap();
        let report = direct_plan.last_report().unwrap();
        assert_eq!(report.method, vpd_numeric::SolveMethod::SparseCholesky);
        assert_eq!(report.iterations, 0);
        // Both passed the same residual bar, so they agree to CG
        // tolerance (1e-10 relative residual ⇒ ~1e-7 absolute here).
        for n in 0..net.node_count() {
            assert!(
                (direct_sol.node_voltages()[n] - cg_sol.node_voltages()[n]).abs() < 1e-7,
                "node {n}"
            );
        }
        assert!(direct_sol.max_kcl_residual(&net).value() < 1e-7);
    }

    #[test]
    fn direct_plan_refactors_on_restamp() {
        let (mut net, _, load) = mesh(10, 0.3);
        let mut plan = SparseDcPlan::compile_direct(&net).unwrap();
        plan.solve(&net).unwrap();
        // Matrix-changing restamp: a fattened edge forces a refactor.
        net.set_resistance(ElementId(0), Ohms::new(0.25)).unwrap();
        net.set_current(load, Amps::new(0.6)).unwrap();
        let restamped = plan.solve(&net).unwrap();
        assert_eq!(
            plan.last_report().unwrap().method,
            vpd_numeric::SolveMethod::SparseCholesky
        );
        let fresh = SparseDcPlan::compile(&net).unwrap().solve(&net).unwrap();
        for n in 0..net.node_count() {
            assert!((restamped.node_voltages()[n] - fresh.node_voltages()[n]).abs() < 1e-7);
        }
    }

    #[test]
    fn direct_mode_switch_preserves_plan_and_results() {
        let (net, _, _) = mesh(9, 0.2);
        let mut plan = SparseDcPlan::compile(&net).unwrap();
        let mut direct_plan = SparseDcPlan::compile_direct(&net).unwrap();
        let direct_first = direct_plan.solve(&net).unwrap();
        // Switching an existing CG plan into direct mode must produce
        // bitwise the same answers as compiling direct from scratch.
        plan.set_mode(DcPlanMode::DirectCholesky).unwrap();
        let switched = plan.solve(&net).unwrap();
        for n in 0..net.node_count() {
            assert_eq!(
                switched.node_voltages()[n].to_bits(),
                direct_first.node_voltages()[n].to_bits()
            );
        }
        // And back: CG mode still works after the round trip.
        plan.set_mode(DcPlanMode::WarmCg).unwrap();
        let cg = plan.solve(&net).unwrap();
        for n in 0..net.node_count() {
            assert!((cg.node_voltages()[n] - switched.node_voltages()[n]).abs() < 1e-7);
        }
    }

    #[test]
    fn every_plan_solves_through_the_default_ladder() {
        assert_eq!(LADDER, ResilientSettings::default());
    }

    #[test]
    fn fully_pinned_netlist_solves_without_unknowns() {
        // Every node is fixed by a grounded source: the reduced system is
        // empty, and the currents still come out of KCL.
        let mut net = Netlist::new();
        let a = net.node("a");
        let src = net
            .voltage_source(a, net.ground(), Volts::new(2.0))
            .unwrap();
        let r = net.resistor(a, net.ground(), Ohms::new(4.0)).unwrap();
        let sol = DcSolver::new().solve(&net).unwrap();
        assert_eq!(sol.voltage(a).value(), 2.0);
        assert_eq!(sol.current(r).value(), 0.5);
        assert_eq!(sol.current(src).value(), -0.5);
    }

    #[test]
    fn plan_rejects_floating_source() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.resistor(a, net.ground(), Ohms::new(1.0)).unwrap();
        net.voltage_source(a, b, Volts::new(1.0)).unwrap();
        net.resistor(b, net.ground(), Ohms::new(1.0)).unwrap();
        assert!(matches!(
            SparseDcPlan::compile(&net),
            Err(CircuitError::FloatingNode { .. })
        ));
    }

    proptest! {
        /// KCL holds at every node of a random ladder network.
        #[test]
        fn prop_kcl_on_random_ladders(
            rs in proptest::collection::vec(0.1_f64..10.0, 2..12),
            v in 0.5_f64..48.0,
        ) {
            let mut net = Netlist::new();
            let top = net.node("top");
            net.voltage_source(top, net.ground(), Volts::new(v)).unwrap();
            let mut prev = top;
            for (k, r) in rs.iter().enumerate() {
                let nxt = net.node(&format!("l{k}"));
                net.resistor(prev, nxt, Ohms::new(*r)).unwrap();
                net.resistor(nxt, net.ground(), Ohms::new(*r * 2.0)).unwrap();
                prev = nxt;
            }
            let sol = DcSolver::new().solve(&net).unwrap();
            prop_assert!(sol.max_kcl_residual(&net).value() < 1e-8);
            // Voltages decrease monotonically along the ladder.
            let mut last = v + 1e-9;
            for k in 0..rs.len() {
                let node = net.clone().node(&format!("l{k}"));
                let vn = sol.voltage(node).value();
                prop_assert!(vn <= last + 1e-9);
                last = vn;
            }
        }

        /// Dense and sparse paths agree on grounded-source networks.
        #[test]
        fn prop_dense_sparse_agree(
            rs in proptest::collection::vec(0.5_f64..5.0, 4..10),
            i_load in 0.1_f64..10.0,
        ) {
            let mut net = Netlist::new();
            let top = net.node("top");
            net.voltage_source(top, net.ground(), Volts::new(1.0)).unwrap();
            let mut prev = top;
            for (k, r) in rs.iter().enumerate() {
                let nxt = net.node(&format!("c{k}"));
                net.resistor(prev, nxt, Ohms::new(*r)).unwrap();
                prev = nxt;
            }
            net.current_source(prev, net.ground(), Amps::new(i_load)).unwrap();
            net.resistor(prev, net.ground(), Ohms::new(10.0)).unwrap();
            let dense = solve_dense(&net, &lower(&net)).unwrap();
            let sparse = SparseDcPlan::compile(&net).unwrap().solve(&net).unwrap();
            for n in 0..net.node_count() {
                prop_assert!((dense.node_voltages()[n] - sparse.node_voltages()[n]).abs() < 1e-7);
            }
        }
    }
}
