//! Measures the solver-reuse and parallel-sweep engine and emits
//! `BENCH_sweeps.json`.
//!
//! Two layers are timed:
//!
//! * **Sharing solves** — the one-shot path ([`solve_sharing_at`]
//!   rebuilds the netlist and recompiles the solve plan per call)
//!   against the reuse path (one [`SharingSolver`], restamp + warm
//!   start per call).
//! * **Monte-Carlo** — the rebuild-per-sample baseline against
//!   [`run_tolerance`] serially (`threads = 1`) and with the auto
//!   thread count. The engine guarantees the serial and parallel
//!   summaries are bitwise identical; this binary asserts it.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin sweeps               # full, writes JSON
//! cargo run --release -p vpd-bench --bin sweeps -- --smoke    # CI smoke
//! ```

use vpd_bench::perf::{auto_threads, Bench, Config, Size};
use vpd_converters::VrTopologyKind;
use vpd_core::{
    analyze, run_tolerance, solve_sharing_at, Architecture, Calibration, McSettings, SharingSolver,
};
use vpd_units::Ohms;

/// Sharing solves per timed run.
const SOLVES: Size<usize> = Size(40, 4);
/// Monte-Carlo samples per timed run.
const SAMPLES: Size<usize> = Size(200, 8);

/// One ±2%-style perturbed sheet resistance per iteration, so neither
/// path can cache the numeric answer.
fn perturbed_sheet(base: Ohms, i: usize) -> Ohms {
    base * (1.0 + 0.02 * ((i % 5) as f64 - 2.0) / 2.0)
}

fn main() {
    let bench = Bench::from_args("Sweep-engine", "BENCH_sweeps.json");
    let solves = bench.size(SOLVES);
    let samples = bench.size(SAMPLES);
    let (spec, calib, opts) = vpd_bench::paper_env();
    let perturbed = |i| Calibration {
        grid_sheet_resistance: perturbed_sheet(calib.grid_sheet_resistance, i),
        ..calib
    };

    // --- Layer 1: sharing solves, cold vs reuse -------------------------
    let n_vrs = 48;
    let n = calib.grid_nodes_per_side;
    let sites = vpd_core::placement::below_die_sites(n_vrs, n, n);
    let droop = calib.vr_droop_below_die;
    let mut solver = SharingSolver::new(&spec, &calib, &sites, droop).unwrap();
    solver.solve().unwrap();
    solver.anchor_last();
    let sharing = bench.measure(
        &format!("sharing solves ({n_vrs} VRs)"),
        &[
            Config::new("cold_solves_per_sec", solves),
            Config::new("reuse_solves_per_sec", solves).ratio("reuse_speedup"),
        ],
        |config| {
            for i in 0..solves {
                if config == 0 {
                    solve_sharing_at(&spec, &perturbed(i), &sites, droop).unwrap();
                } else {
                    solver.restamp(&spec, &perturbed(i), droop).unwrap();
                    solver.solve().unwrap();
                }
            }
        },
    );

    // --- Layer 2: Monte-Carlo, baseline vs engine -----------------------
    let arch = Architecture::InterposerPeriphery;
    let topo = VrTopologyKind::Dsch;
    let settings = |threads| McSettings {
        samples,
        threads,
        ..McSettings::default()
    };
    let (mut serial, mut parallel) = (None, None);
    let mc = bench.measure(
        &format!("monte-carlo ({samples} samples, A1/DSCH)"),
        &[
            Config::new("baseline_samples_per_sec", samples),
            Config::new("serial_samples_per_sec", samples).ratio("serial_speedup"),
            Config::new("parallel_samples_per_sec", samples).ratio("parallel_speedup"),
        ],
        |config| match config {
            // What the pre-engine implementation did: a fresh `analyze`
            // (netlist rebuild + plan compile + cold solve) per sample.
            0 => (0..samples).for_each(|i| {
                analyze(arch, topo, &spec, &perturbed(i), &opts).unwrap();
            }),
            1 => serial = Some(run_tolerance(arch, topo, &spec, &calib, &settings(1)).unwrap()),
            _ => parallel = Some(run_tolerance(arch, topo, &spec, &calib, &settings(0)).unwrap()),
        },
    );
    let serial = serial.expect("serial ran");
    assert_eq!(
        Some(&serial),
        parallel.as_ref(),
        "thread count must not change the summary"
    );

    bench.finish(
        auto_threads(),
        vec![
            sharing.section("sharing_solves", &[("n_vrs", n_vrs), ("solves", solves)]),
            mc.section("monte_carlo", &[("samples", samples)]),
        ],
        &[],
    );
}
