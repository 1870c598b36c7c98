//! Power-grid mesh builders.
//!
//! The die (or interposer) power distribution network is modeled as a 2-D
//! resistive mesh: `nx × ny` nodes, horizontal/vertical edge resistances
//! derived from a sheet resistance, a per-node load current, and voltage
//! regulators attached as grounded sources behind a droop resistance.

use crate::{
    CircuitError, DcPlanMode, DcSolution, DcSolver, ElementId, ElementKind, Netlist, NodeId,
    SparseDcPlan,
};
use vpd_numeric::{
    CgSettings, CholeskyFactor, DenseMatrix, LuFactor, SolveReport, SparseCholesky,
    SymbolicCholesky,
};
use vpd_units::{Amps, Meters, Ohms, Volts, Watts};

/// A rectangular resistive mesh plus bookkeeping for loads and regulators.
///
/// ```
/// use vpd_circuit::PowerGrid;
/// use vpd_units::{Amps, Meters, Ohms, Volts};
///
/// # fn main() -> Result<(), vpd_circuit::CircuitError> {
/// let mut grid = PowerGrid::new(8, 8, Ohms::from_milliohms(2.0))?;
/// grid.attach_uniform_load(Amps::new(64.0))?; // 1 A per node
/// grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))?;
/// grid.attach_regulator(7, 7, Volts::new(1.0), Ohms::from_milliohms(1.0))?;
/// let sol = grid.solve()?;
/// let currents = grid.regulator_currents(&sol);
/// let total: f64 = currents.iter().map(|c| c.value()).sum();
/// assert!((total - 64.0).abs() < 1e-6); // KCL: VRs supply the whole load
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PowerGrid {
    net: Netlist,
    nx: usize,
    ny: usize,
    nodes: Vec<NodeId>,
    mesh_edges: Vec<ElementId>,
    regulators: Vec<Regulator>,
    loads: Vec<ElementId>,
    /// Compiled sparse solve plan; `None` until first cached solve or
    /// after any topology change (attach/move).
    plan: Option<SparseDcPlan>,
    /// Solver mode applied to the plan (and to recompiles after topology
    /// changes).
    mode: DcPlanMode,
}

/// One attached voltage regulator: a grounded ideal source behind a droop
/// resistance, feeding grid node `(x, y)`.
#[derive(Clone, Copy, Debug)]
pub struct Regulator {
    /// Grid x position.
    pub x: usize,
    /// Grid y position.
    pub y: usize,
    /// The droop-resistor element (its current is the VR output current).
    pub droop_element: ElementId,
    /// The ideal-source element holding `source_node` at the setpoint.
    pub source_element: ElementId,
    /// The internal source node held at the setpoint.
    pub source_node: NodeId,
}

impl PowerGrid {
    /// Builds an `nx × ny` mesh with edge resistance `r_edge` between
    /// 4-connected neighbors.
    ///
    /// `r_edge` is the sheet resistance per square when nodes are laid on
    /// a uniform pitch (lateral squares between adjacent nodes ≈ 1).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for a non-positive edge
    /// resistance or a dimension of zero.
    pub fn new(nx: usize, ny: usize, r_edge: Ohms) -> Result<Self, CircuitError> {
        if nx == 0 || ny == 0 {
            return Err(CircuitError::InvalidValue {
                element: "grid dimension",
                value: 0.0,
            });
        }
        let mut net = Netlist::new();
        let mut nodes = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                nodes.push(net.node(&format!("g{x}_{y}")));
            }
        }
        let mut mesh_edges = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                let here = nodes[y * nx + x];
                if x + 1 < nx {
                    mesh_edges.push(net.resistor(here, nodes[y * nx + x + 1], r_edge)?);
                }
                if y + 1 < ny {
                    mesh_edges.push(net.resistor(here, nodes[(y + 1) * nx + x], r_edge)?);
                }
            }
        }
        Ok(Self {
            net,
            nx,
            ny,
            nodes,
            mesh_edges,
            regulators: Vec::new(),
            loads: Vec::new(),
            plan: None,
            mode: DcPlanMode::default(),
        })
    }

    /// Grid width in nodes.
    #[must_use]
    pub const fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in nodes.
    #[must_use]
    pub const fn ny(&self) -> usize {
        self.ny
    }

    /// The node at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] when the coordinate is
    /// outside the mesh.
    pub fn node_at(&self, x: usize, y: usize) -> Result<NodeId, CircuitError> {
        if x >= self.nx || y >= self.ny {
            return Err(CircuitError::UnknownNode {
                index: y * self.nx + x,
            });
        }
        Ok(self.nodes[y * self.nx + x])
    }

    /// Attaches equal load current sinks at every node, totaling
    /// `total`.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn attach_uniform_load(&mut self, total: Amps) -> Result<(), CircuitError> {
        let per_node = total / (self.nx * self.ny) as f64;
        self.attach_dense_load_profile(|_, _| per_node)
    }

    /// Attaches a per-node load given by `profile(x, y)` (amperes drawn
    /// at that node).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn attach_load_profile(
        &mut self,
        mut profile: impl FnMut(usize, usize) -> Amps,
    ) -> Result<(), CircuitError> {
        let ground = self.net.ground();
        for y in 0..self.ny {
            for x in 0..self.nx {
                let node = self.nodes[y * self.nx + x];
                let i = profile(x, y);
                if !i.is_zero() {
                    let id = self.net.current_source(node, ground, i)?;
                    self.loads.push(id);
                }
            }
        }
        self.plan = None;
        Ok(())
    }

    /// Attaches a load current sink at *every* node, including nodes
    /// where the profile is zero. Unlike [`PowerGrid::attach_load_profile`]
    /// (which skips zero entries), the resulting netlist topology is
    /// independent of the profile values, so a later
    /// [`PowerGrid::set_load_profile`] can swap in a new profile without
    /// recompiling the solve plan.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation errors.
    pub fn attach_dense_load_profile(
        &mut self,
        mut profile: impl FnMut(usize, usize) -> Amps,
    ) -> Result<(), CircuitError> {
        let ground = self.net.ground();
        for y in 0..self.ny {
            for x in 0..self.nx {
                let node = self.nodes[y * self.nx + x];
                let id = self.net.current_source(node, ground, profile(x, y))?;
                self.loads.push(id);
            }
        }
        self.plan = None;
        Ok(())
    }

    /// Rewrites every load current in place from `profile(x, y)`. A
    /// value-only mutation: the compiled solve plan stays valid.
    ///
    /// Requires loads attached by [`PowerGrid::attach_uniform_load`] or
    /// [`PowerGrid::attach_dense_load_profile`] (one source per node, in
    /// row-major order).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::StalePlan`] when the loads are not one-per-node.
    /// * [`CircuitError::InvalidValue`] for a non-finite current.
    pub fn set_load_profile(
        &mut self,
        mut profile: impl FnMut(usize, usize) -> Amps,
    ) -> Result<(), CircuitError> {
        if self.loads.len() != self.nx * self.ny {
            return Err(CircuitError::StalePlan {
                reason: format!(
                    "set_load_profile needs one load per node ({} != {}); \
                     attach with attach_dense_load_profile",
                    self.loads.len(),
                    self.nx * self.ny
                ),
            });
        }
        for y in 0..self.ny {
            for x in 0..self.nx {
                let id = self.loads[y * self.nx + x];
                self.net.set_current(id, profile(x, y))?;
            }
        }
        Ok(())
    }

    /// Rewrites every load to an equal share of `total` in place (see
    /// [`PowerGrid::set_load_profile`]).
    ///
    /// # Errors
    ///
    /// As [`PowerGrid::set_load_profile`].
    pub fn set_uniform_load(&mut self, total: Amps) -> Result<(), CircuitError> {
        let per_node = total / (self.nx * self.ny) as f64;
        self.set_load_profile(|_, _| per_node)
    }

    /// Rewrites every mesh-edge resistance in place (e.g. to sample a
    /// sheet-resistance corner). A value-only mutation: the compiled
    /// solve plan stays valid.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for a non-positive or
    /// non-finite resistance.
    pub fn set_sheet_resistance(&mut self, r_edge: Ohms) -> Result<(), CircuitError> {
        for &id in &self.mesh_edges {
            self.net.set_resistance(id, r_edge)?;
        }
        Ok(())
    }

    /// Scales every mesh-edge resistance whose both endpoints lie inside
    /// the inclusive node rectangle `(x0, y0)..=(x1, y1)` by `factor` —
    /// the model of a locally degraded interconnect patch (corroded or
    /// delaminated C4/TSV/µ-bump field raising the local sheet
    /// resistance). A value-only mutation: the compiled solve plan stays
    /// valid.
    ///
    /// Factors multiply the *current* resistance, so successive calls
    /// compound; restore nominal values with
    /// [`PowerGrid::set_sheet_resistance`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownNode`] for a rectangle that leaves the
    ///   mesh or is inverted.
    /// * [`CircuitError::InvalidValue`] for a non-positive or non-finite
    ///   factor.
    pub fn scale_region_resistance(
        &mut self,
        x0: usize,
        y0: usize,
        x1: usize,
        y1: usize,
        factor: f64,
    ) -> Result<(), CircuitError> {
        if x1 >= self.nx || y1 >= self.ny || x0 > x1 || y0 > y1 {
            return Err(CircuitError::UnknownNode {
                index: y1 * self.nx + x1,
            });
        }
        if !factor.is_finite() || factor <= 0.0 {
            return Err(CircuitError::InvalidValue {
                element: "region resistance factor",
                value: factor,
            });
        }
        // Walk mesh_edges in the same scan order they were built in
        // (per node: horizontal edge, then vertical edge) to recover
        // each edge's coordinates without storing them.
        let mut edge = 0;
        for y in 0..self.ny {
            for x in 0..self.nx {
                if x + 1 < self.nx {
                    let id = self.mesh_edges[edge];
                    edge += 1;
                    if y >= y0 && y <= y1 && x >= x0 && x < x1 {
                        self.scale_edge(id, factor)?;
                    }
                }
                if y + 1 < self.ny {
                    let id = self.mesh_edges[edge];
                    edge += 1;
                    if x >= x0 && x <= x1 && y >= y0 && y < y1 {
                        self.scale_edge(id, factor)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn scale_edge(&mut self, id: ElementId, factor: f64) -> Result<(), CircuitError> {
        let crate::ElementKind::Resistor { r } = self.net.element(id)?.kind else {
            return Err(CircuitError::UnknownElement { index: id.index() });
        };
        self.net.set_resistance(id, Ohms::new(r.value() * factor))
    }

    /// Attaches a regulator at `(x, y)`: an ideal `setpoint` source to
    /// ground, behind `droop` resistance into the grid node.
    ///
    /// # Errors
    ///
    /// Propagates coordinate and netlist validation errors.
    pub fn attach_regulator(
        &mut self,
        x: usize,
        y: usize,
        setpoint: Volts,
        droop: Ohms,
    ) -> Result<(), CircuitError> {
        let grid_node = self.node_at(x, y)?;
        let k = self.regulators.len();
        let source_node = self.net.node(&format!("vr{k}"));
        let source_element = self
            .net
            .voltage_source(source_node, self.net.ground(), setpoint)?;
        let droop_element = self.net.resistor(source_node, grid_node, droop)?;
        self.regulators.push(Regulator {
            x,
            y,
            droop_element,
            source_element,
            source_node,
        });
        self.plan = None;
        Ok(())
    }

    /// Changes regulator `k`'s droop resistance in place. A value-only
    /// mutation: the compiled solve plan stays valid.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a regulator index out of
    ///   range.
    /// * [`CircuitError::InvalidValue`] for a non-positive resistance.
    pub fn set_regulator_droop(&mut self, k: usize, droop: Ohms) -> Result<(), CircuitError> {
        let r = *self
            .regulators
            .get(k)
            .ok_or(CircuitError::UnknownElement { index: k })?;
        self.net.set_resistance(r.droop_element, droop)
    }

    /// Changes regulator `k`'s setpoint voltage in place. A value-only
    /// mutation: the compiled solve plan stays valid.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a regulator index out of
    ///   range.
    /// * [`CircuitError::InvalidValue`] for a non-finite voltage.
    pub fn set_regulator_setpoint(
        &mut self,
        k: usize,
        setpoint: Volts,
    ) -> Result<(), CircuitError> {
        let r = *self
            .regulators
            .get(k)
            .ok_or(CircuitError::UnknownElement { index: k })?;
        self.net.set_voltage(r.source_element, setpoint)
    }

    /// Moves regulator `k` to grid position `(x, y)` by rewiring its
    /// droop resistor — the annealer's placement move. The node set is
    /// unchanged, but terminals move, so the compiled solve plan is
    /// invalidated (the next [`PowerGrid::solve_cached`] recompiles).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a regulator index out of
    ///   range.
    /// * [`CircuitError::UnknownNode`] for a position outside the mesh.
    pub fn move_regulator(&mut self, k: usize, x: usize, y: usize) -> Result<(), CircuitError> {
        let grid_node = self.node_at(x, y)?;
        let r = *self
            .regulators
            .get(k)
            .ok_or(CircuitError::UnknownElement { index: k })?;
        self.net.rewire(r.droop_element, r.source_node, grid_node)?;
        self.regulators[k].x = x;
        self.regulators[k].y = y;
        self.plan = None;
        Ok(())
    }

    /// The regulators attached so far.
    #[must_use]
    pub fn regulators(&self) -> &[Regulator] {
        &self.regulators
    }

    /// Solves the DC operating point of the loaded grid.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::FloatingNode`] when no regulator has been
    ///   attached (the mesh then has no path to ground).
    /// * Any solver error from [`DcSolver::solve`].
    pub fn solve(&self) -> Result<crate::DcSolution, CircuitError> {
        DcSolver::new().solve(&self.net)
    }

    /// Solves through a cached [`SparseDcPlan`], compiling it on first
    /// use (or after a topology change) and otherwise restamping element
    /// values in place and warm-starting CG from the previous solution.
    ///
    /// This is the hot path for repeated solves of one grid — Monte-Carlo
    /// sampling, design sweeps, and placement annealing. Results agree
    /// with [`PowerGrid::solve`] to CG tolerance.
    ///
    /// # Errors
    ///
    /// As [`PowerGrid::solve`].
    pub fn solve_cached(&mut self) -> Result<crate::DcSolution, CircuitError> {
        vpd_obs::incr("grid.solves");
        self.ensure_plan()?;
        let plan = self.plan.as_mut().expect("plan was just ensured");
        match plan.solve(&self.net) {
            Err(CircuitError::StalePlan { .. }) => {
                vpd_obs::incr("grid.plan_recompiles");
                // Defensive: topology mutations clear the plan, so this
                // only triggers if the netlist was changed through a path
                // that bypassed the setters. Recompile and retry once.
                let mut fresh = SparseDcPlan::compile(&self.net)?;
                fresh.set_mode(self.mode)?;
                let sol = fresh.solve(&self.net);
                self.plan = Some(fresh);
                sol
            }
            other => other,
        }
    }

    /// Compiles the plan (in the grid's solver mode) if none is cached.
    fn ensure_plan(&mut self) -> Result<(), CircuitError> {
        if self.plan.is_none() {
            let mut plan = SparseDcPlan::compile(&self.net)?;
            plan.set_mode(self.mode)?;
            self.plan = Some(plan);
            vpd_obs::incr("grid.plan_compiles");
        }
        Ok(())
    }

    /// The solver mode behind [`PowerGrid::solve_cached`].
    #[must_use]
    pub const fn solve_mode(&self) -> DcPlanMode {
        self.mode
    }

    /// Switches the cached plan's solver mode ([`DcPlanMode::WarmCg`] by
    /// default). The compiled plan survives the switch — only the
    /// numeric backend changes — and recompiles after topology changes
    /// keep the chosen mode.
    ///
    /// # Errors
    ///
    /// As [`SparseDcPlan::set_mode`].
    pub fn set_solve_mode(&mut self, mode: DcPlanMode) -> Result<(), CircuitError> {
        if let Some(plan) = self.plan.as_mut() {
            plan.set_mode(mode)?;
        }
        self.mode = mode;
        Ok(())
    }

    /// The summary the sharing analyses read off a solution of this
    /// grid: regulator currents, mesh loss and lowest mesh voltage.
    #[must_use]
    pub fn summarize(&self, sol: &DcSolution) -> GridSummary {
        GridSummary {
            currents: self.regulator_currents(sol),
            grid_loss: self.grid_loss(sol),
            min_voltage: self.min_voltage(sol),
        }
    }

    /// Builds the [`RegulatorResponse`] of the grid's current values:
    /// factors the reduced nodal matrix with [`SparseCholesky`], solves
    /// the nominal voltages and one column of `A⁻¹` per regulator site
    /// (a block solve), then drops the factor. When every mesh edge has
    /// one resistance and every regulator one droop and one setpoint, it
    /// also solves the nominal drop below that setpoint, which is what
    /// [`RegulatorResponse::solve_uniform`] answers from.
    ///
    /// Returns `Ok(None)` when the factor plus the columns would exceed a
    /// fixed 4 MiB cap ([`RegulatorResponse::fits`], checked on the
    /// symbolic entry count before anything of that size is allocated),
    /// when the matrix does not factor, or when the nominal solve misses
    /// the CG tolerance on its relative residual; edits are then answered
    /// by restamping and solving.
    ///
    /// # Errors
    ///
    /// As [`PowerGrid::solve_cached`] for a grid whose plan cannot be
    /// compiled.
    pub fn regulator_response(&mut self) -> Result<Option<RegulatorResponse>, CircuitError> {
        self.ensure_plan()?;
        let plan = self.plan.as_mut().expect("plan was just ensured");
        // Every node but the mesh is pinned by a source or ground, so
        // the unknowns are exactly the mesh nodes and the minimum of the
        // solution vector is the lowest mesh voltage.
        let n = plan.unknown_count();
        if n != self.nodes.len() || self.nodes.iter().any(|&u| plan.unknown_of(u).is_none()) {
            return Ok(None);
        }
        let mut site_unknown: Vec<usize> = Vec::new();
        let mut column_of = Vec::with_capacity(self.regulators.len());
        let mut conductance = Vec::with_capacity(self.regulators.len());
        let mut setpoint = Vec::with_capacity(self.regulators.len());
        for r in &self.regulators {
            let unknown = plan
                .unknown_of(self.nodes[r.y * self.nx + r.x])
                .expect("mesh nodes are unknowns");
            let column = match site_unknown.iter().position(|&s| s == unknown) {
                Some(c) => c,
                None => {
                    site_unknown.push(unknown);
                    site_unknown.len() - 1
                }
            };
            column_of.push(column);
            let ElementKind::Resistor { r: droop } = self.net.element(r.droop_element)?.kind else {
                return Err(CircuitError::UnknownElement {
                    index: r.droop_element.index(),
                });
            };
            let ElementKind::VoltageSource { v } = self.net.element(r.source_element)?.kind else {
                return Err(CircuitError::UnknownElement {
                    index: r.source_element.index(),
                });
            };
            conductance.push(1.0 / droop.value());
            setpoint.push(v.value());
        }
        let sites = site_unknown.len();
        if !RegulatorResponse::fits(n, 0, sites) {
            return Ok(None);
        }
        let max_factor_nnz = (RegulatorResponse::BYTE_CAP - 8 * n * sites) / 16;
        let (a, b) = plan.stamp(&self.net)?;
        let Some(sym) = SymbolicCholesky::analyze_within(a, max_factor_nnz)? else {
            return Ok(None);
        };
        let Ok(mut chol) = SparseCholesky::factor_with(a, sym) else {
            return Ok(None);
        };
        let x0 = chol.solve(b)?;
        // Hold the nominal solve to the bar the plan's direct rung sets
        // (the CG tolerance on the relative residual): a mesh that barely
        // reaches its sources factors, but inaccurately, and then keeps
        // the restamp path and its solver ladder.
        let ax = a.matvec(&x0);
        let residual = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (q - p) * (q - p))
            .sum::<f64>();
        let norm = b.iter().map(|q| q * q).sum::<f64>();
        let accurate = residual.sqrt() <= CgSettings::default().tolerance * norm.sqrt();
        if !accurate {
            return Ok(None);
        }
        let mut columns = vec![0.0; n * sites];
        for (c, &u) in site_unknown.iter().enumerate() {
            columns[c * n + u] = 1.0;
        }
        // A few columns per pass keeps the factor's interleaved scratch
        // small; each column's arithmetic does not depend on the width.
        for chunk in columns.chunks_mut(n * RESPONSE_BLOCK) {
            let k = chunk.len() / n;
            chol.solve_block_into(chunk, k)?;
        }
        let plan = self.plan.as_ref().expect("plan was just ensured");
        let uniform = match self.uniform_values(&conductance, &setpoint)? {
            Some((sheet, droop_conductance)) => {
                let loads = self.load_vector(plan)?;
                let drop = chol.solve(&loads)?;
                let load_drop = loads.iter().zip(&drop).map(|(i, d)| i * d).sum();
                let mut modules = vec![0.0; sites];
                for &c in &column_of {
                    modules[c] += 1.0;
                }
                Some(UniformNominal {
                    sheet,
                    conductance: droop_conductance,
                    drop,
                    load_drop,
                    modules,
                })
            }
            None => None,
        };
        vpd_obs::incr("grid.regulator_responses");
        Ok(Some(RegulatorResponse {
            x0,
            columns,
            site_unknown,
            column_of,
            conductance,
            setpoint,
            uniform,
        }))
    }

    /// The one mesh-edge resistance and the one droop conductance, when
    /// every edge and every regulator share them and every regulator one
    /// setpoint (bit for bit); `None` otherwise.
    fn uniform_values(
        &self,
        conductance: &[f64],
        setpoint: &[f64],
    ) -> Result<Option<(f64, f64)>, CircuitError> {
        let shared = |xs: &[f64]| {
            xs.first()
                .copied()
                .filter(|x| xs.iter().all(|y| y.to_bits() == x.to_bits()))
        };
        let (Some(droop_conductance), Some(_)) = (shared(conductance), shared(setpoint)) else {
            return Ok(None);
        };
        let mut sheet = Vec::with_capacity(self.mesh_edges.len());
        for &id in &self.mesh_edges {
            let ElementKind::Resistor { r } = self.net.element(id)?.kind else {
                return Err(CircuitError::UnknownElement { index: id.index() });
            };
            sheet.push(r.value());
        }
        Ok(shared(&sheet).map(|r| (r, droop_conductance)))
    }

    /// The load currents drawn out of each reduced-system unknown: the
    /// `I` of `A·d = I`, where `d` is the drop below a shared setpoint.
    fn load_vector(&self, plan: &SparseDcPlan) -> Result<Vec<f64>, CircuitError> {
        let mut loads = vec![0.0; plan.unknown_count()];
        for &id in &self.loads {
            let e = self.net.element(id)?;
            let ElementKind::CurrentSource { i } = e.kind else {
                return Err(CircuitError::UnknownElement { index: id.index() });
            };
            if let Some(u) = plan.unknown_of(e.a) {
                loads[u] += i.value();
            }
            if let Some(u) = plan.unknown_of(e.b) {
                loads[u] -= i.value();
            }
        }
        Ok(loads)
    }

    /// Seeds the next [`PowerGrid::solve_cached`]'s warm start from a
    /// previous solution of this grid (e.g. the nominal operating point
    /// of a Monte-Carlo study), compiling the plan if needed.
    ///
    /// Anchoring every sample to one nominal solution keeps results
    /// independent of sample order, which is what makes parallel and
    /// serial sweeps bitwise-identical.
    ///
    /// # Errors
    ///
    /// Compile errors as [`PowerGrid::solve`], or
    /// [`CircuitError::StalePlan`] for a solution of mismatched size.
    pub fn seed_solution(&mut self, sol: &crate::DcSolution) -> Result<(), CircuitError> {
        self.ensure_plan()?;
        self.plan
            .as_mut()
            .expect("plan was just ensured")
            .set_guess(sol)
    }

    /// CG iteration count of the most recent [`PowerGrid::solve_cached`],
    /// if any — the observable effect of warm starting.
    #[must_use]
    pub fn last_cg_iterations(&self) -> Option<usize> {
        self.plan
            .as_ref()
            .and_then(SparseDcPlan::last_report)
            .map(|r| r.iterations)
    }

    /// Full convergence diagnostic of the most recent
    /// [`PowerGrid::solve_cached`]: which resilience-ladder rung solved
    /// the system (plain CG, cold-restart CG, or dense LU), iterations,
    /// residual, and whether CG stagnated.
    #[must_use]
    pub fn last_solve_report(&self) -> Option<SolveReport> {
        self.plan.as_ref().and_then(SparseDcPlan::last_report)
    }

    /// Output current of each regulator (in attachment order), positive
    /// when sourcing current into the grid.
    #[must_use]
    pub fn regulator_currents(&self, sol: &DcSolution) -> Vec<Amps> {
        self.regulators
            .iter()
            .map(|r| sol.current(r.droop_element))
            .collect()
    }

    /// Worst-case IR drop: setpoint minus the minimum node voltage.
    #[must_use]
    pub fn worst_ir_drop(&self, sol: &DcSolution, setpoint: Volts) -> Volts {
        setpoint - self.min_voltage(sol)
    }

    /// Lowest mesh-node voltage of a solution.
    fn min_voltage(&self, sol: &DcSolution) -> Volts {
        let vmin = self
            .nodes
            .iter()
            .map(|n| sol.voltage(*n).value())
            .fold(f64::INFINITY, f64::min);
        Volts::new(vmin)
    }

    /// Total power dissipated in the mesh resistors *excluding* the
    /// regulator droop resistors (grid loss only).
    ///
    /// The mesh edges are the grid's only resistors besides the droops,
    /// and they were added first, in the order `mesh_edges` lists them:
    /// this sums the same elements in the same order as a walk over every
    /// element that skips the droops, without testing each one.
    #[must_use]
    pub fn grid_loss(&self, sol: &DcSolution) -> Watts {
        self.mesh_edges
            .iter()
            .map(|&id| sol.dissipated_power(&self.net, id).unwrap_or(Watts::ZERO))
            .sum()
    }

    /// Borrow of the underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.net
    }

    /// Physical helper: edge resistance for a mesh discretizing a square
    /// sheet of side `side` with `n` nodes per side and the given sheet
    /// resistance — each edge spans one inter-node pitch, which is one
    /// square of sheet.
    #[must_use]
    pub fn edge_resistance_for_sheet(sheet: Ohms, _side: Meters, _nodes_per_side: usize) -> Ohms {
        // One inter-node segment is (pitch long × pitch wide) = 1 square.
        sheet
    }
}

/// What the sharing analyses read off one solved operating point
/// ([`PowerGrid::summarize`]).
#[derive(Clone, PartialEq, Debug)]
pub struct GridSummary {
    /// Output current of each regulator, in attachment order.
    pub currents: Vec<Amps>,
    /// Power lost in the mesh resistors ([`PowerGrid::grid_loss`]).
    pub grid_loss: Watts,
    /// Lowest mesh-node voltage.
    pub min_voltage: Volts,
}

/// Columns per block solve while building a [`RegulatorResponse`].
const RESPONSE_BLOCK: usize = 16;

/// The exact nominal operating point of a [`PowerGrid`] plus the grid's
/// response at every regulator site: enough to answer any
/// regulator-local edit (new droops or setpoints at a few modules)
/// without a restamp or a solve. Built by
/// [`PowerGrid::regulator_response`].
///
/// A regulator is a droop conductance `g` from its setpoint `V` into one
/// mesh node, so in the reduced nodal system `A·x = b` it owns one
/// diagonal entry (`g`) and one right-hand-side entry (`g·V`). Edits at
/// `k` distinct sites change the system to `A + U·D·Uᵀ`, `b + U·β`.
/// With the nominal solution `x₀` and the site columns `Z = A⁻¹·U`, the
/// edited solution is `x₀ + Z·y` where `(I + D·UᵀZ)·y = β − D·Uᵀx₀`: one
/// `k × k` dense solve and an `O(n·k)` update. This form of the
/// Sherman–Morrison–Woodbury identity stays valid when `D` is singular,
/// as it is for a setpoint-only edit.
#[derive(Clone, Debug)]
pub struct RegulatorResponse {
    /// Nominal solution `x₀`, one entry per mesh node.
    x0: Vec<f64>,
    /// Column-major `n × sites` block; column `c` is `A⁻¹` at site `c`.
    columns: Vec<f64>,
    /// Mesh-node unknown of each site.
    site_unknown: Vec<usize>,
    /// Site of each regulator; regulators on one node share a site.
    column_of: Vec<usize>,
    /// Nominal droop conductance of each regulator.
    conductance: Vec<f64>,
    /// Nominal setpoint of each regulator.
    setpoint: Vec<f64>,
    /// The nominal drop a uniform query updates; `None` unless the mesh
    /// and the regulators were uniform when the response was built.
    uniform: Option<UniformNominal>,
}

/// What [`RegulatorResponse::solve_uniform`] reads beyond the site
/// columns: the nominal uniform values and the nominal drop `d₀ = A⁻¹·I`
/// below the shared setpoint.
#[derive(Clone, Debug)]
struct UniformNominal {
    /// The one mesh-edge resistance.
    sheet: f64,
    /// The one droop conductance `g₀`.
    conductance: f64,
    /// `d₀`, one entry per mesh node.
    drop: Vec<f64>,
    /// `Iᵀ·d₀`.
    load_drop: f64,
    /// Regulators at each site (the diagonal of `M`).
    modules: Vec<f64>,
}

/// The operating point a [`RegulatorResponse::solve_uniform`] query
/// answers.
#[derive(Clone, PartialEq, Debug)]
pub struct UniformPoint {
    /// Output current of each regulator, in attachment order.
    pub currents: Vec<Amps>,
    /// Power lost in the mesh resistors ([`PowerGrid::grid_loss`]).
    pub grid_loss: Watts,
    /// Power lost in the droop resistors.
    pub droop_loss: Watts,
    /// The largest drop of a mesh node below the shared setpoint.
    pub worst_drop: Volts,
}

/// A regulator's replacement droop and setpoint, for
/// [`RegulatorResponse::solve`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegulatorEdit {
    /// Regulator index, in attachment order.
    pub regulator: usize,
    /// Droop resistance replacing the nominal one.
    pub droop: Ohms,
    /// Setpoint replacing the nominal one.
    pub setpoint: Volts,
}

/// The operating point after a set of [`RegulatorEdit`]s.
#[derive(Clone, PartialEq, Debug)]
pub struct EditedPoint {
    /// Output current of each regulator, in attachment order.
    pub currents: Vec<Amps>,
    /// Lowest mesh-node voltage.
    pub min_voltage: Volts,
}

impl RegulatorResponse {
    /// Largest footprint, in bytes, of the factor plus the site columns
    /// that [`PowerGrid::regulator_response`] builds a response for. A
    /// 48 × 48 mesh with 48 sites needs about 2.1 MB; a 200 × 200 mesh
    /// would need 15 MB of columns alone.
    const BYTE_CAP: usize = 4 << 20;

    /// Largest error amplification of an edit's `k × k` update that
    /// [`RegulatorResponse::solve`] accepts: the update may lose six of
    /// the sixteen digits of its inputs, which keeps the edited voltages
    /// within 1e-9 V of a direct solve.
    const MAX_AMPLIFICATION: f64 = 1e6;

    /// Whether a response over `unknowns` mesh nodes and `sites`
    /// regulator sites, built from a factor with `factor_nnz` entries,
    /// fits the 4 MiB cap: 16 bytes per factor entry (value and row
    /// index) plus 8 per column entry.
    #[must_use]
    pub fn fits(unknowns: usize, factor_nnz: usize, sites: usize) -> bool {
        unknowns
            .checked_mul(sites)
            .and_then(|c| c.checked_mul(8))
            .and_then(|columns| factor_nnz.checked_mul(16)?.checked_add(columns))
            .is_some_and(|bytes| bytes <= Self::BYTE_CAP)
    }

    /// Solves the grid with `edits` applied over the nominal values; a
    /// later edit of the same regulator replaces an earlier one.
    ///
    /// Returns `Ok(None)` when the update's `k × k` system is singular or
    /// would amplify rounding by more than a factor of 1e6 (a droop far
    /// below the mesh resistance at its node, opened or replaced);
    /// restamping and solving is then the accurate way to answer the
    /// edit.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownElement`] for a regulator index out of
    ///   range.
    /// * [`CircuitError::InvalidValue`] for a non-positive or non-finite
    ///   droop, or a non-finite setpoint.
    pub fn solve(&self, edits: &[RegulatorEdit]) -> Result<Option<EditedPoint>, CircuitError> {
        let mut g = self.conductance.clone();
        let mut v = self.setpoint.clone();
        for e in edits {
            if e.regulator >= g.len() {
                return Err(CircuitError::UnknownElement { index: e.regulator });
            }
            let r = e.droop.value();
            if !(r.is_finite() && r > 0.0) {
                return Err(CircuitError::InvalidValue {
                    element: "regulator droop",
                    value: r,
                });
            }
            if !e.setpoint.value().is_finite() {
                return Err(CircuitError::InvalidValue {
                    element: "regulator setpoint",
                    value: e.setpoint.value(),
                });
            }
            g[e.regulator] = 1.0 / r;
            v[e.regulator] = e.setpoint.value();
        }
        // Per touched site: (column, diagonal change d, rhs change β).
        let mut touched: Vec<(usize, f64, f64)> = Vec::new();
        for r in 0..g.len() {
            let d = g[r] - self.conductance[r];
            let beta = g[r] * v[r] - self.conductance[r] * self.setpoint[r];
            if d == 0.0 && beta == 0.0 {
                continue;
            }
            let c = self.column_of[r];
            match touched.iter_mut().find(|t| t.0 == c) {
                Some(t) => {
                    t.1 += d;
                    t.2 += beta;
                }
                None => touched.push((c, d, beta)),
            }
        }
        let Some(y) = self.update(&touched)? else {
            return Ok(None);
        };
        let n = self.x0.len();
        let mut x = self.x0.clone();
        for (&(c, ..), &yj) in touched.iter().zip(&y) {
            for (xi, zi) in x.iter_mut().zip(&self.columns[c * n..(c + 1) * n]) {
                *xi += zi * yj;
            }
        }
        let currents = (0..g.len())
            .map(|r| Amps::new((v[r] - x[self.site_unknown[self.column_of[r]]]) * g[r]))
            .collect();
        let min_voltage = Volts::new(x.iter().copied().fold(f64::INFINITY, f64::min));
        Ok(Some(EditedPoint {
            currents,
            min_voltage,
        }))
    }

    /// Solves the grid with every mesh edge at `sheet` and every
    /// regulator at droop `droop`, loads and setpoint left nominal: the
    /// Monte-Carlo sample's question.
    ///
    /// With a shared setpoint `V` and current-sink loads `I`, the drop
    /// `d = V·1 − x` solves `(g_s·L + g·P)·d = I` whatever `V` is. Scaling
    /// the sheet conductance by `c` and setting the droop conductance to
    /// `g` turns that into `c·(A₀ + δ·U·M·Uᵀ)·d = I` with `δ = g/c − g₀`,
    /// where `M` counts the regulators at each site. With `Z = A₀⁻¹·U`,
    /// `S = UᵀZ`, `d₀ = A₀⁻¹·I` and `s₀ = Uᵀd₀`, the symmetric positive
    /// definite `k × k` system `(M⁻¹ + δ·S)·y = δ·s₀` gives the site drops
    /// `(s₀ − S·y)/c`, the dissipated power `Iᵀd = (Iᵀd₀ − s₀ᵀy)/c` (`A₀`
    /// is symmetric, so `ZᵀI = s₀`), and the worst drop
    /// `max(d₀ − Z·y)/c`, the one `O(n·k)` step.
    ///
    /// The eigenvalues of `M^½·S·M^½` lie in `(0, 1/g₀]`, so the update's
    /// condition number is at most `max(r, 1/r)` with `r = g/(c·g₀)`;
    /// that closed form is checked against the same 1e6 ceiling as
    /// [`RegulatorResponse::solve`], with no extra solves.
    ///
    /// Returns `Ok(None)` when the response was built from a non-uniform
    /// grid, or when the bound or the factorization refuses the update;
    /// restamping and solving is then the way to answer it.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidValue`] for a non-positive or non-finite
    /// sheet resistance or droop.
    pub fn solve_uniform(
        &self,
        sheet: Ohms,
        droop: Ohms,
    ) -> Result<Option<UniformPoint>, CircuitError> {
        for (element, r) in [("mesh sheet resistance", sheet), ("regulator droop", droop)] {
            if !(r.value().is_finite() && r.value() > 0.0) {
                return Err(CircuitError::InvalidValue {
                    element,
                    value: r.value(),
                });
            }
        }
        let Some(nominal) = &self.uniform else {
            return Ok(None);
        };
        let c = nominal.sheet / sheet.value();
        let g = 1.0 / droop.value();
        // Positive (or infinite) for valid inputs, so never NaN here.
        let r = g / (c * nominal.conductance);
        if r.max(1.0 / r) > Self::MAX_AMPLIFICATION {
            return Ok(None);
        }
        let delta = g / c - nominal.conductance;
        let n = self.x0.len();
        let k = self.site_unknown.len();
        let column = |j: usize| &self.columns[j * n..(j + 1) * n];
        // S is symmetric up to rounding: read its lower triangle only.
        let s = |i: usize, j: usize| column(i.min(j))[self.site_unknown[i.max(j)]];
        let s0: Vec<f64> = self.site_unknown.iter().map(|&u| nominal.drop[u]).collect();
        let m = DenseMatrix::from_fn(k, k, |i, j| {
            let diagonal = if i == j {
                1.0 / nominal.modules[i]
            } else {
                0.0
            };
            diagonal + delta * s(i, j)
        });
        let Ok(chol) = CholeskyFactor::new(&m) else {
            return Ok(None);
        };
        let y = chol.solve(&s0.iter().map(|v| delta * v).collect::<Vec<_>>())?;
        if !y.iter().all(|v| v.is_finite()) {
            return Ok(None);
        }
        let site_drop: Vec<f64> = (0..k)
            .map(|i| (s0[i] - (0..k).map(|j| s(i, j) * y[j]).sum::<f64>()) / c)
            .collect();
        let currents: Vec<Amps> = self
            .column_of
            .iter()
            .map(|&site| Amps::new(g * site_drop[site]))
            .collect();
        let droop_loss: Watts = currents.iter().map(|i| i.dissipation_in(droop)).sum();
        let dissipated =
            (nominal.load_drop - s0.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>()) / c;
        let mut drop = nominal.drop.clone();
        for (j, &yj) in y.iter().enumerate() {
            for (d, z) in drop.iter_mut().zip(column(j)) {
                *d -= z * yj;
            }
        }
        let worst = drop.iter().copied().fold(f64::NEG_INFINITY, f64::max) / c;
        Ok(Some(UniformPoint {
            currents,
            grid_loss: Watts::new(dissipated) - droop_loss,
            droop_loss,
            worst_drop: Volts::new(worst),
        }))
    }

    /// Solves `(I + D·S)·y = β − D·x₀` over the touched sites, where
    /// `S = UᵀA⁻¹U`; `None` when the system is singular or its error
    /// amplification `‖ |M⁻¹| · (I + |D|·|S|) ‖∞` exceeds the guard.
    fn update(&self, touched: &[(usize, f64, f64)]) -> Result<Option<Vec<f64>>, CircuitError> {
        let k = touched.len();
        if k == 0 {
            return Ok(Some(Vec::new()));
        }
        let n = self.x0.len();
        let s =
            |i: usize, j: usize| self.columns[touched[j].0 * n + self.site_unknown[touched[i].0]];
        let identity = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
        let m = DenseMatrix::from_fn(k, k, |i, j| identity(i, j) + touched[i].1 * s(i, j));
        let Ok(lu) = LuFactor::new(&m) else {
            return Ok(None);
        };
        let rhs: Vec<f64> = touched
            .iter()
            .map(|&(c, d, beta)| beta - d * self.x0[self.site_unknown[c]])
            .collect();
        let y = lu.solve(&rhs)?;
        // Row sums of I + |D|·|S|, then |M⁻¹| applied to them column by
        // column: the infinity norm of a non-negative matrix is its
        // largest row sum.
        let scale: Vec<f64> = (0..k)
            .map(|i| 1.0 + touched[i].1.abs() * (0..k).map(|j| s(i, j).abs()).sum::<f64>())
            .collect();
        let mut amplification = vec![0.0; k];
        let mut unit = vec![0.0; k];
        for j in 0..k {
            unit[j] = 1.0;
            let col = lu.solve(&unit)?;
            unit[j] = 0.0;
            for (a, m_ij) in amplification.iter_mut().zip(&col) {
                *a += m_ij.abs() * scale[j];
            }
        }
        let trusted = amplification.iter().all(|&a| a <= Self::MAX_AMPLIFICATION)
            && y.iter().all(|v| v.is_finite());
        Ok(trusted.then_some(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_grid_shares_current_equally() {
        let mut grid = PowerGrid::new(5, 5, Ohms::from_milliohms(1.0)).unwrap();
        grid.attach_uniform_load(Amps::new(25.0)).unwrap();
        // Four corner regulators: symmetry → equal share.
        for (x, y) in [(0, 0), (4, 0), (0, 4), (4, 4)] {
            grid.attach_regulator(x, y, Volts::new(1.0), Ohms::from_milliohms(0.5))
                .unwrap();
        }
        let sol = grid.solve().unwrap();
        let currents = grid.regulator_currents(&sol);
        let avg = 25.0 / 4.0;
        for c in &currents {
            assert!((c.value() - avg).abs() < 1e-6, "corner share {c:?}");
        }
    }

    #[test]
    fn center_regulator_carries_more_than_corner() {
        let mut grid = PowerGrid::new(9, 9, Ohms::from_milliohms(2.0)).unwrap();
        grid.attach_uniform_load(Amps::new(81.0)).unwrap();
        grid.attach_regulator(4, 4, Volts::new(1.0), Ohms::from_milliohms(0.5))
            .unwrap();
        grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(0.5))
            .unwrap();
        let sol = grid.solve().unwrap();
        let currents = grid.regulator_currents(&sol);
        assert!(currents[0].value() > currents[1].value());
        let total: f64 = currents.iter().map(|c| c.value()).sum();
        assert!((total - 81.0).abs() < 1e-6);
    }

    #[test]
    fn unregulated_grid_is_floating() {
        let mut grid = PowerGrid::new(3, 3, Ohms::new(1.0)).unwrap();
        grid.attach_uniform_load(Amps::new(9.0)).unwrap();
        assert!(matches!(
            grid.solve(),
            Err(CircuitError::FloatingNode { .. })
        ));
    }

    #[test]
    fn hotspot_profile_shifts_current_toward_hotspot() {
        let mut grid = PowerGrid::new(7, 7, Ohms::from_milliohms(20.0)).unwrap();
        grid.attach_load_profile(|x, y| {
            // All the load sits in the left column.
            if x == 0 {
                Amps::new(7.0)
            } else {
                let _ = y;
                Amps::ZERO
            }
        })
        .unwrap();
        grid.attach_regulator(0, 3, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        grid.attach_regulator(6, 3, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        let sol = grid.solve().unwrap();
        let currents = grid.regulator_currents(&sol);
        assert!(currents[0].value() > currents[1].value() * 2.0);
    }

    #[test]
    fn ir_drop_grows_with_load() {
        let mk = |load: f64| {
            let mut grid = PowerGrid::new(6, 6, Ohms::from_milliohms(2.0)).unwrap();
            grid.attach_uniform_load(Amps::new(load)).unwrap();
            grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))
                .unwrap();
            let sol = grid.solve().unwrap();
            grid.worst_ir_drop(&sol, Volts::new(1.0)).value()
        };
        assert!(mk(36.0) > mk(3.6));
    }

    #[test]
    fn grid_loss_excludes_droop() {
        let mut grid = PowerGrid::new(2, 1, Ohms::new(1.0)).unwrap();
        grid.attach_load_profile(|x, _| if x == 1 { Amps::new(1.0) } else { Amps::ZERO })
            .unwrap();
        grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::new(1.0))
            .unwrap();
        let sol = grid.solve().unwrap();
        // 1 A through one 1 Ω mesh edge → 1 W grid loss; droop loses
        // another 1 W but must not be counted here.
        assert!((grid.grid_loss(&sol).value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_dims() {
        assert!(PowerGrid::new(0, 3, Ohms::new(1.0)).is_err());
        assert!(PowerGrid::new(3, 0, Ohms::new(1.0)).is_err());
    }

    #[test]
    fn node_at_bounds() {
        let grid = PowerGrid::new(2, 2, Ohms::new(1.0)).unwrap();
        assert!(grid.node_at(1, 1).is_ok());
        assert!(grid.node_at(2, 0).is_err());
    }

    fn assert_solutions_close(a: &crate::DcSolution, b: &crate::DcSolution, tol: f64) {
        assert_eq!(a.node_voltages().len(), b.node_voltages().len());
        for (va, vb) in a.node_voltages().iter().zip(b.node_voltages()) {
            assert!((va - vb).abs() < tol, "{va} vs {vb}");
        }
    }

    #[test]
    fn direct_mode_matches_cg_mode() {
        let build = || {
            let mut grid = PowerGrid::new(10, 10, Ohms::from_milliohms(2.0)).unwrap();
            grid.attach_uniform_load(Amps::new(50.0)).unwrap();
            grid.attach_regulator(2, 2, Volts::new(1.0), Ohms::from_milliohms(0.5))
                .unwrap();
            grid.attach_regulator(7, 7, Volts::new(1.0), Ohms::from_milliohms(0.5))
                .unwrap();
            grid
        };
        let mut cg = build();
        let cg_sol = cg.solve_cached().unwrap();
        let mut direct = build();
        direct.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        assert_eq!(direct.solve_mode(), DcPlanMode::DirectCholesky);
        let direct_sol = direct.solve_cached().unwrap();
        assert_eq!(
            direct.last_solve_report().unwrap().method,
            vpd_numeric::SolveMethod::SparseCholesky
        );
        assert_solutions_close(&cg_sol, &direct_sol, 1e-7);
    }

    /// A 9×9 grid with four regulators, two of them on one node.
    fn response_grid(droop: Ohms) -> PowerGrid {
        let mut grid = PowerGrid::new(9, 9, Ohms::from_milliohms(2.0)).unwrap();
        grid.attach_uniform_load(Amps::new(60.0)).unwrap();
        for (x, y) in [(1, 1), (7, 2), (4, 6), (4, 6)] {
            grid.attach_regulator(x, y, Volts::new(1.0), droop).unwrap();
        }
        grid
    }

    #[test]
    fn regulator_response_matches_restamped_direct_solves() {
        let droop = Ohms::from_milliohms(0.5);
        let mut grid = response_grid(droop);
        let response = grid.regulator_response().unwrap().unwrap();
        let edit = |regulator: usize, droop: Ohms, mv: f64| RegulatorEdit {
            regulator,
            droop,
            setpoint: Volts::new(1.0 + mv * 1e-3),
        };
        let cases = [
            vec![],
            vec![edit(0, Ohms::new(1e9), 0.0)],
            vec![edit(1, droop * 4.0, 0.0), edit(2, droop, -2.0)],
            // Both regulators of the shared node, and a later edit of
            // regulator 0 replacing an earlier one.
            vec![
                edit(0, droop * 3.0, 0.0),
                edit(2, Ohms::new(1e9), 0.0),
                edit(3, droop * 0.5, 1.0),
                edit(0, droop, -1.5),
            ],
        ];
        for edits in cases {
            let point = response.solve(&edits).unwrap().unwrap();
            let mut exact = response_grid(droop);
            exact.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
            for e in &edits {
                exact.set_regulator_droop(e.regulator, e.droop).unwrap();
                exact
                    .set_regulator_setpoint(e.regulator, e.setpoint)
                    .unwrap();
            }
            let sol = exact.solve_cached().unwrap();
            let want = exact.summarize(&sol);
            for (a, b) in point.currents.iter().zip(&want.currents) {
                assert!(
                    (a.value() - b.value()).abs() < 1e-9,
                    "{edits:?}: {a} vs {b}"
                );
            }
            let dv = (point.min_voltage.value() - want.min_voltage.value()).abs();
            assert!(dv < 1e-12, "{edits:?}: min voltage off by {dv:e}");
        }
    }

    #[test]
    fn regulator_response_refuses_cancelling_updates_and_bad_edits() {
        // A droop nine orders below the mesh: opening it cancels all but
        // a few digits of the update, so the guard refuses.
        let mut stiff = response_grid(Ohms::new(1e-12));
        let response = stiff.regulator_response().unwrap().unwrap();
        let open = RegulatorEdit {
            regulator: 1,
            droop: Ohms::new(1e9),
            setpoint: Volts::new(1.0),
        };
        assert_eq!(response.solve(&[open]).unwrap(), None);

        // Droops of 1e30 Ω leave the mesh all but floating: the factor
        // exists, but its nominal solve misses the CG tolerance, as the
        // plan's direct rung would reject it.
        assert!(response_grid(Ohms::new(1e30))
            .regulator_response()
            .unwrap()
            .is_none());

        let response = response_grid(Ohms::from_milliohms(0.5))
            .regulator_response()
            .unwrap()
            .unwrap();
        assert!(matches!(
            response.solve(&[RegulatorEdit {
                regulator: 4,
                ..open
            }]),
            Err(CircuitError::UnknownElement { index: 4 })
        ));
        for (droop, setpoint) in [(0.0, 1.0), (f64::INFINITY, 1.0), (1e-3, f64::NAN)] {
            let bad = RegulatorEdit {
                regulator: 0,
                droop: Ohms::new(droop),
                setpoint: Volts::new(setpoint),
            };
            assert!(matches!(
                response.solve(&[bad]),
                Err(CircuitError::InvalidValue { .. })
            ));
        }
    }

    #[test]
    fn uniform_queries_match_restamped_direct_solves() {
        let (sheet, droop) = (Ohms::from_milliohms(2.0), Ohms::from_milliohms(0.5));
        let mut grid = response_grid(droop);
        let response = grid.regulator_response().unwrap().unwrap();
        // Unchanged, both moved, and each moved alone; the shared node
        // carries two regulators (M = 2 there).
        for (sheet_scale, droop_scale) in [(1.0, 1.0), (1.2, 0.8), (0.8, 1.0), (1.0, 1.5)] {
            let (s, d) = (sheet * sheet_scale, droop * droop_scale);
            let point = response.solve_uniform(s, d).unwrap().unwrap();
            let mut exact = response_grid(droop);
            exact.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
            exact.set_sheet_resistance(s).unwrap();
            for k in 0..exact.regulators().len() {
                exact.set_regulator_droop(k, d).unwrap();
            }
            let sol = exact.solve_cached().unwrap();
            let want = exact.summarize(&sol);
            for (a, b) in point.currents.iter().zip(&want.currents) {
                assert!((a.value() - b.value()).abs() < 1e-9, "{a} vs {b}");
            }
            let drop = Volts::new(1.0) - want.min_voltage;
            let dv = (point.worst_drop.value() - drop.value()).abs();
            assert!(dv < 1e-12, "worst drop off by {dv:e}");
            let loss = want.grid_loss.value();
            assert!((point.grid_loss.value() - loss).abs() < 1e-12 * loss);
            let droop_loss: f64 = want
                .currents
                .iter()
                .map(|i| i.dissipation_in(d).value())
                .sum();
            assert!((point.droop_loss.value() - droop_loss).abs() < 1e-12 * droop_loss);
        }

        // The closed-form guard: r = g/(c·g₀) beyond 1e6 either way.
        assert_eq!(response.solve_uniform(sheet, droop * 2e6).unwrap(), None);
        assert_eq!(response.solve_uniform(sheet * 2e6, droop).unwrap(), None);
        for (s, d) in [
            (0.0, 1e-3),
            (f64::NAN, 1e-3),
            (1e-3, -1.0),
            (1e-3, f64::INFINITY),
        ] {
            assert!(matches!(
                response.solve_uniform(Ohms::new(s), Ohms::new(d)),
                Err(CircuitError::InvalidValue { .. })
            ));
        }

        // A response built with unequal droops answers no uniform query.
        let mut uneven = response_grid(droop);
        uneven.set_regulator_droop(2, droop * 2.0).unwrap();
        let response = uneven.regulator_response().unwrap().unwrap();
        assert_eq!(response.solve_uniform(sheet, droop).unwrap(), None);
    }

    #[test]
    fn cached_solve_matches_one_shot() {
        let mut grid = PowerGrid::new(9, 9, Ohms::from_milliohms(2.0)).unwrap();
        grid.attach_uniform_load(Amps::new(81.0)).unwrap();
        grid.attach_regulator(4, 4, Volts::new(1.0), Ohms::from_milliohms(0.5))
            .unwrap();
        let cached = grid.solve_cached().unwrap();
        let one_shot = grid.solve().unwrap();
        assert_solutions_close(&cached, &one_shot, 1e-8);
        assert!(grid.last_cg_iterations().is_some());
    }

    #[test]
    fn restamped_grid_matches_rebuilt_grid() {
        let build = |r_mohm: f64, load: f64, droop_mohm: f64, setpoint: f64| {
            let mut grid = PowerGrid::new(8, 6, Ohms::from_milliohms(r_mohm)).unwrap();
            grid.attach_uniform_load(Amps::new(load)).unwrap();
            grid.attach_regulator(1, 1, Volts::new(setpoint), Ohms::from_milliohms(droop_mohm))
                .unwrap();
            grid.attach_regulator(6, 4, Volts::new(setpoint), Ohms::from_milliohms(droop_mohm))
                .unwrap();
            grid
        };
        let mut grid = build(2.0, 48.0, 0.5, 1.0);
        grid.solve_cached().unwrap();
        // Restamp every knob the sweeps touch, without rebuilding.
        grid.set_sheet_resistance(Ohms::from_milliohms(3.0))
            .unwrap();
        grid.set_uniform_load(Amps::new(60.0)).unwrap();
        grid.set_regulator_droop(0, Ohms::from_milliohms(0.8))
            .unwrap();
        grid.set_regulator_droop(1, Ohms::from_milliohms(0.8))
            .unwrap();
        grid.set_regulator_setpoint(0, Volts::new(1.05)).unwrap();
        grid.set_regulator_setpoint(1, Volts::new(1.05)).unwrap();
        let restamped = grid.solve_cached().unwrap();
        let rebuilt = build(3.0, 60.0, 0.8, 1.05).solve().unwrap();
        assert_solutions_close(&restamped, &rebuilt, 1e-8);
    }

    #[test]
    fn nonuniform_profile_restamps_in_place() {
        let mut grid = PowerGrid::new(6, 6, Ohms::from_milliohms(5.0)).unwrap();
        grid.attach_dense_load_profile(|_, _| Amps::ZERO).unwrap();
        grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        grid.set_load_profile(|x, _| if x == 5 { Amps::new(2.0) } else { Amps::ZERO })
            .unwrap();
        let sol = grid.solve_cached().unwrap();
        // All load on the far column: its voltage sags below the near one.
        let near = sol.voltage(grid.node_at(0, 3).unwrap()).value();
        let far = sol.voltage(grid.node_at(5, 3).unwrap()).value();
        assert!(far < near);
    }

    #[test]
    fn sparse_profile_rejects_set_load_profile() {
        let mut grid = PowerGrid::new(4, 4, Ohms::new(1.0)).unwrap();
        grid.attach_load_profile(|x, y| {
            if x == 0 && y == 0 {
                Amps::new(1.0)
            } else {
                Amps::ZERO
            }
        })
        .unwrap();
        assert!(matches!(
            grid.set_load_profile(|_, _| Amps::new(0.5)),
            Err(CircuitError::StalePlan { .. })
        ));
    }

    #[test]
    fn move_regulator_matches_rebuild_at_new_site() {
        let mut grid = PowerGrid::new(7, 7, Ohms::from_milliohms(4.0)).unwrap();
        grid.attach_uniform_load(Amps::new(49.0)).unwrap();
        grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        grid.solve_cached().unwrap();
        grid.move_regulator(0, 3, 3).unwrap();
        assert_eq!(grid.regulators()[0].x, 3);
        let moved = grid.solve_cached().unwrap();
        let mut rebuilt = PowerGrid::new(7, 7, Ohms::from_milliohms(4.0)).unwrap();
        rebuilt.attach_uniform_load(Amps::new(49.0)).unwrap();
        rebuilt
            .attach_regulator(3, 3, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        assert_solutions_close(&moved, &rebuilt.solve().unwrap(), 1e-8);
        assert!(grid.move_regulator(0, 9, 0).is_err());
    }

    #[test]
    fn region_scaling_matches_rebuilt_degraded_grid() {
        // Scale a 2x2 patch by 10x via restamp; rebuild the same grid
        // with per-edge resistances set by hand and compare solutions.
        let mut grid = PowerGrid::new(6, 6, Ohms::from_milliohms(2.0)).unwrap();
        grid.attach_uniform_load(Amps::new(36.0)).unwrap();
        grid.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        grid.solve_cached().unwrap();
        grid.scale_region_resistance(2, 2, 4, 4, 10.0).unwrap();
        let degraded = grid.solve_cached().unwrap();

        let mut rebuilt = PowerGrid::new(6, 6, Ohms::from_milliohms(2.0)).unwrap();
        rebuilt.attach_uniform_load(Amps::new(36.0)).unwrap();
        rebuilt
            .attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))
            .unwrap();
        rebuilt.scale_region_resistance(2, 2, 4, 4, 10.0).unwrap();
        assert_solutions_close(&degraded, &rebuilt.solve().unwrap(), 1e-8);

        // Degrading a patch must worsen the IR drop somewhere.
        let nominal = {
            let mut g = PowerGrid::new(6, 6, Ohms::from_milliohms(2.0)).unwrap();
            g.attach_uniform_load(Amps::new(36.0)).unwrap();
            g.attach_regulator(0, 0, Volts::new(1.0), Ohms::from_milliohms(1.0))
                .unwrap();
            let s = g.solve().unwrap();
            g.worst_ir_drop(&s, Volts::new(1.0)).value()
        };
        assert!(grid.worst_ir_drop(&degraded, Volts::new(1.0)).value() > nominal);
    }

    #[test]
    fn region_scaling_validates_inputs() {
        let mut grid = PowerGrid::new(4, 4, Ohms::new(1.0)).unwrap();
        assert!(grid.scale_region_resistance(0, 0, 4, 1, 2.0).is_err());
        assert!(grid.scale_region_resistance(2, 0, 1, 1, 2.0).is_err());
        assert!(grid.scale_region_resistance(0, 0, 1, 1, 0.0).is_err());
        assert!(grid.scale_region_resistance(0, 0, 1, 1, f64::NAN).is_err());
    }

    #[test]
    fn solve_report_is_surfaced_through_cached_solve() {
        let mut grid = PowerGrid::new(6, 6, Ohms::from_milliohms(2.0)).unwrap();
        grid.attach_uniform_load(Amps::new(36.0)).unwrap();
        grid.attach_regulator(3, 3, Volts::new(1.0), Ohms::from_milliohms(0.5))
            .unwrap();
        assert!(grid.last_solve_report().is_none());
        grid.solve_cached().unwrap();
        let report = grid.last_solve_report().unwrap();
        assert_eq!(report.method, vpd_numeric::SolveMethod::ConjugateGradient);
        assert!(!report.used_fallback());
        assert!(report.relative_residual.is_finite());
    }

    #[test]
    fn seeded_resolve_converges_immediately() {
        let mut grid = PowerGrid::new(10, 10, Ohms::from_milliohms(2.0)).unwrap();
        grid.attach_uniform_load(Amps::new(100.0)).unwrap();
        grid.attach_regulator(5, 5, Volts::new(1.0), Ohms::from_milliohms(0.5))
            .unwrap();
        let nominal = grid.solve_cached().unwrap();
        grid.seed_solution(&nominal).unwrap();
        grid.solve_cached().unwrap();
        assert_eq!(grid.last_cg_iterations(), Some(0));
    }
}
