//! Measures the frequency-domain sweep engine and emits
//! `BENCH_ac.json`.
//!
//! Three configurations run the same impedance sweep over the A1 PDN
//! ladder:
//!
//! * **compile-per-point** — the cold path and the baseline: the
//!   netlist is rebuilt and a fresh [`AcPlan`] is compiled to solve a
//!   single frequency, once per point (the AC analogue of the `sweeps`
//!   bench's cold sharing solves).
//! * **plan, serial** — one compiled [`AcPlan`] via
//!   [`ImpedanceSweep::run_over`] with `threads = 1`: restamp values
//!   into reused buffers, factor and solve in place.
//! * **plan, parallel** — the same engine with the auto thread count.
//!
//! The engine guarantees all three produce bitwise-identical
//! [`vpd_circuit::AcPoint`]s; this binary asserts it after timing them.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin ac               # full, writes JSON
//! cargo run --release -p vpd-bench --bin ac -- --smoke    # CI smoke
//! ```

use vpd_bench::perf::{auto_threads, Bench, Config, Size};
use vpd_circuit::AcPlan;
use vpd_core::{Architecture, ImpedanceSweep, ImpedanceSweepSettings, PdnModel};

/// Frequency points of the sweep.
const POINTS: Size<usize> = Size(240, 16);
/// Sweeps per timed run.
const PASSES: Size<usize> = Size(25, 1);

fn main() {
    let bench = Bench::from_args("AC-sweep", "BENCH_ac.json");
    let points = bench.size(POINTS);
    let passes = bench.size(PASSES);

    let (spec, _, _) = vpd_bench::paper_env();
    let arch = Architecture::InterposerPeriphery;
    let model = PdnModel::for_architecture(arch);
    let settings = ImpedanceSweepSettings {
        points,
        ..ImpedanceSweepSettings::default()
    };
    let freqs = settings.frequencies().unwrap();
    let sweep = ImpedanceSweep::for_architecture(arch, &spec).unwrap();
    let reference = model.impedance_profile(&freqs).unwrap();

    let work = passes * points;
    let (mut rebuilt, mut serial, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let m = bench.measure(
        &format!("ac sweep ({points} points x {passes} passes, A1 ladder)"),
        &[
            Config::new("rebuild_points_per_sec", work),
            Config::new("plan_serial_points_per_sec", work).ratio("plan_vs_rebuild_speedup"),
            Config::new("plan_parallel_points_per_sec", work).ratio("engine_vs_rebuild_speedup"),
        ],
        |config| {
            for _ in 0..passes {
                match config {
                    // Compile-per-point: netlist + plan rebuilt every point.
                    0 => {
                        rebuilt = freqs
                            .iter()
                            .map(|&f| {
                                let (net, die) = model.netlist().unwrap();
                                AcPlan::compile(&net).impedance_at(die, f).unwrap()
                            })
                            .collect();
                    }
                    1 => serial = sweep.run_over(&freqs, 1).unwrap().points,
                    _ => parallel = sweep.run_over(&freqs, 0).unwrap().points,
                }
            }
        },
    );
    assert_eq!(rebuilt, reference, "cold rebuild must match the sweep path");
    assert_eq!(
        serial, reference,
        "the engine must match a one-shot plan sweep"
    );
    assert_eq!(parallel, serial, "thread count must not change the points");

    bench.finish(
        auto_threads(),
        vec![m.section("ac_sweep", &[("points", points), ("passes", passes)])],
        &[],
    );
}
