//! Circuit construction and simulation for power-delivery modeling.
//!
//! This crate is the in-repo substitute for the authors' (unpublished)
//! PPDN modeling tools: a netlist builder, 2-D power-grid mesh builders,
//! and one compiled path per analysis — [`SparseDcPlan`] for the DC
//! operating point (with dense MNA behind [`DcSolver`] for floating
//! sources and inductors), [`AcPlan`] for impedance and transfer
//! sweeps, and [`TransientPlan`], a backward-Euler simulator with PWM
//! switches for converter and load-step waveform studies.
//!
//! ```
//! use vpd_circuit::{DcSolver, Netlist};
//! use vpd_units::{Amps, Ohms, Volts};
//!
//! # fn main() -> Result<(), vpd_circuit::CircuitError> {
//! // The paper's headline loss mechanism in one netlist: 1 kA of POL
//! // current through 0.3 mΩ of lateral PPDN resistance burns ~300 W.
//! let mut net = Netlist::new();
//! let pcb = net.node("pcb");
//! let die = net.node("die");
//! net.voltage_source(pcb, net.ground(), Volts::new(1.3))?;
//! let ppdn = net.resistor(pcb, die, Ohms::from_milliohms(0.3))?;
//! net.current_source(die, net.ground(), Amps::from_kiloamps(1.0))?;
//! let sol = DcSolver::new().solve(&net)?;
//! let loss = sol.dissipated_power(&net, ppdn)?;
//! assert!((loss.value() - 300.0).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod dc;
mod error;
mod grid;
mod netlist;
mod transient;

pub use ac::{log_sweep, log_sweep_checked, AcPlan, AcPoint};
pub use dc::{DcPlanMode, DcSolution, DcSolver, SparseDcPlan};
pub use error::CircuitError;
pub use grid::{
    EditedPoint, GridSummary, PowerGrid, Regulator, RegulatorEdit, RegulatorResponse, UniformPoint,
};
pub use netlist::{Element, ElementId, ElementKind, Netlist, NodeId, PwmSchedule, SwitchState};
pub use transient::{TransientPlan, TransientResult, TransientSettings};
