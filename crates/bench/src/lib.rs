//! Shared plumbing for the experiment harness binaries.
//!
//! Each paper table/figure has a binary in `src/bin/` that regenerates
//! it:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table I — vertical-interconnect characteristics |
//! | `table2` | Table II — converter characteristics |
//! | `fig1` | Figure 1 — HPC power/current-density demand survey |
//! | `fig2` | Figure 2 — current demand vs. packaging-feature trend |
//! | `fig3` | Figure 3 — savings vs. conversion point |
//! | `fig7` | Figure 7 — PCB-to-POL loss breakdown |
//! | `claims` | §IV text claims C1–C3 (utilization, sharing, 19×/7×) |
//! | `ablation` | B1 GaN-vs-Si / frequency, B2 bus-voltage sweep |
//! | `impedance` | extension E1 — PDN impedance vs. target impedance |
//! | `thermal` | extensions E2/E3 — electro-thermal co-analysis, placement annealing |
//!
//! Nine perf binaries time the engines through the one protocol of
//! [`perf`] and each write one record (`--smoke` times one round at
//! smoke sizes and audits the checked-in record instead):
//!
//! | target | record | measures |
//! |---|---|---|
//! | `ac` | `BENCH_ac.json` | compiled AC plan vs compile-per-point impedance sweeps |
//! | `cholesky` | `BENCH_cholesky.json` | sparse Cholesky vs warm CG; block and sweep vs sequential |
//! | `faultdyn` | `BENCH_faultdyn.json` | dynamic-fault engines: plan reuse vs rebuild per scenario |
//! | `faults` | `BENCH_faults.json` | N-1 and random-k fault sweeps against the Monte-Carlo rate |
//! | `obs` | `BENCH_obs.json` | metrics overhead, on vs off |
//! | `scenario` | `BENCH_scenario.json` | `.vpd` parse/compile/render; served cold vs cached |
//! | `serve` | `BENCH_serve.json` | `vpd-serve` cold vs warm, saturation curve, shedding |
//! | `sweeps` | `BENCH_sweeps.json` | sharing-solve reuse; Monte-Carlo vs rebuild per sample |
//! | `transient` | `BENCH_transient.json` | transient plan reuse vs compile-per-run |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use vpd_core::{AnalysisOptions, Calibration, SystemSpec};

/// The paper's evaluation environment: spec, calibration, and default
/// analysis options.
#[must_use]
pub fn paper_env() -> (SystemSpec, Calibration, AnalysisOptions) {
    (
        SystemSpec::paper_default(),
        Calibration::paper_default(),
        AnalysisOptions::default(),
    )
}

/// A `vpd-serve` server on an ephemeral loopback port, running on its
/// own thread.
pub struct Loopback {
    /// The address it listens on.
    pub addr: String,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    /// Binds a server with `cfg` and starts it.
    #[must_use]
    pub fn start(cfg: vpd_serve::ServeConfig) -> Self {
        let server = vpd_serve::Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
        let addr = server.local_addr().expect("local addr").to_string();
        let thread = std::thread::spawn(move || server.run());
        Self { addr, thread }
    }

    /// Asks the server to drain and joins it.
    pub fn shutdown(self) {
        vpd_serve::call(&self.addr, &[], true).expect("shutdown call");
        self.thread
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Formats a paper-vs-measured comparison cell.
#[must_use]
pub fn versus(paper: &str, measured: &str) -> String {
    format!("{paper} / {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_is_paper_default() {
        let (spec, _, opts) = paper_env();
        assert_eq!(spec, SystemSpec::paper_default());
        assert!(opts.allow_overload);
    }

    #[test]
    fn versus_formats() {
        assert_eq!(versus("42%", "43.3%"), "42% / 43.3%");
    }
}
