//! Measures the transient plan-reuse engine and emits
//! `BENCH_transient.json`.
//!
//! Three configurations sweep the same load-step amplitude grid over
//! the A2 PDN ladder with an individually-modeled MLCC decap bank at
//! the die — the cap-heavy netlist every real PDN transient runs on:
//!
//! * **compile-per-run** — the cold path and the baseline: the netlist
//!   is rebuilt and a fresh [`TransientPlan`] is compiled and run once
//!   per amplitude, so the compile and the factorization are paid
//!   every run.
//! * **plan reuse, serial** — one compiled plan; each amplitude is a
//!   source-only restamp ([`TransientPlan::set_load_ramp`] with a zero
//!   rise) plus a run.
//!   Repeated runs at the same `dt` re-factor zero times.
//! * **plan reuse, parallel** — the same restamp-and-run closure fanned
//!   over [`par_map_with`] with the auto thread count; the prefactored
//!   plan is cloned per worker, so no worker factors either.
//!
//! The engine guarantees all three produce bitwise-identical die
//! waveforms; this binary asserts it after timing them.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin transient            # full, writes JSON
//! cargo run --release -p vpd-bench --bin transient -- --smoke # CI smoke
//! ```

use vpd_bench::perf::{auto_threads, Bench, Bound, Config, Size};
use vpd_circuit::{ElementId, Netlist, TransientPlan, TransientSettings};
use vpd_core::{par_map_with, Architecture, PdnModel};
use vpd_units::{Amps, Farads, Seconds, Volts};

/// Individually-modeled MLCC branches hung off the die node.
const DECAP_BRANCHES: usize = 48;
/// Load before the step (25% of the paper's 1 kA POL current).
const I_BASE: f64 = 250.0;
/// When the step fires.
const STEP_AT_US: f64 = 2.0;
/// Load-step amplitudes per timed run.
const RUNS: Size<usize> = Size(40, 4);

/// The benchmark netlist: the A2 ladder, the decap bank, and a load
/// step to `after` amps. Rebuilt from scratch by the cold path.
fn build(after: f64) -> (Netlist, ElementId, TransientSettings) {
    let model = PdnModel::for_architecture(Architecture::InterposerEmbedded);
    let (mut net, die) = model.netlist().expect("PDN netlist");
    for k in 0..DECAP_BRANCHES {
        let c = 100.0e-9 * (1.0 + 0.1 * k as f64);
        net.capacitor(die, net.ground(), Farads::new(c), Volts::new(1.0))
            .expect("decap");
    }
    let el = net
        .ramp_current_source(
            die,
            net.ground(),
            Amps::new(I_BASE),
            Amps::new(after),
            Seconds::from_microseconds(STEP_AT_US),
            Seconds::ZERO,
        )
        .expect("load step");
    let settings = TransientSettings::new(
        Seconds::from_microseconds(20.0),
        Seconds::from_nanoseconds(10.0),
    )
    .expect("window");
    (net, el, settings)
}

fn main() {
    let bench = Bench::from_args("transient-plan", "BENCH_transient.json");
    let runs = bench.size(RUNS);

    // The amplitude grid: 500 A … 980 A in `runs` points.
    let amps: Vec<f64> = (0..runs)
        .map(|k| 500.0 + 480.0 * k as f64 / (runs - 1) as f64)
        .collect();
    let (net, el, settings) = build(amps[0]);
    let steps = (settings.t_stop.value() / settings.dt.value()).round() as usize;
    let (_, die) = PdnModel::for_architecture(Architecture::InterposerEmbedded)
        .netlist()
        .expect("die node");

    // The parallel path clones the prefactored plan per worker.
    let mut plan = TransientPlan::compile(&net, &settings).expect("compile");
    plan.prefactor().expect("prefactor");
    let shared = plan.clone();
    let factors_before = plan.cached_factorizations();
    let restamp = |plan: &mut TransientPlan, a: f64| {
        plan.set_load_ramp(
            el,
            Amps::new(I_BASE),
            Amps::new(a),
            Seconds::from_microseconds(STEP_AT_US),
            Seconds::ZERO,
        )
        .expect("restamp");
        plan.run().expect("reused run").voltage(die).to_vec()
    };

    let (mut rebuilt, mut reused, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let m = bench.measure(
        &format!("transient ({runs} runs x {steps} steps, A2 + {DECAP_BRANCHES} decaps)"),
        &[
            Config::new("rebuild_runs_per_sec", runs),
            Config::new("plan_reuse_runs_per_sec", runs).ratio("plan_reuse_vs_rebuild_speedup"),
            Config::new("plan_parallel_runs_per_sec", runs).ratio("engine_vs_rebuild_speedup"),
        ],
        |config| match config {
            // Compile-per-run: netlist + cold plan every run.
            0 => {
                rebuilt = amps
                    .iter()
                    .map(|&a| {
                        let (net, _, settings) = build(a);
                        let mut cold = TransientPlan::compile(&net, &settings).expect("compile");
                        cold.run().expect("cold run").voltage(die).to_vec()
                    })
                    .collect();
            }
            // Plan reuse, serial: one plan, restamp + rerun.
            1 => reused = amps.iter().map(|&a| restamp(&mut plan, a)).collect(),
            // Plan reuse, parallel: prefactored clones per worker.
            _ => parallel = par_map_with(0, &amps, &shared, |plan, &a| restamp(plan, a)),
        },
    );
    let refactored = plan.cached_factorizations() - factors_before;

    assert_eq!(reused, rebuilt, "restamped reruns must match cold rebuilds");
    assert_eq!(parallel, reused, "thread count must not change the bits");
    assert_eq!(refactored, 0, "plan reuse must re-factor zero times");

    // Sanity: the stepped die waveform actually moves (peak-to-peak).
    let full = reused.last().expect("runs >= 2");
    let lo = full.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = full.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(hi > lo, "die waveform is flat");
    let counts = [
        ("decap_branches", DECAP_BRANCHES),
        ("steps_per_run", steps),
        ("runs", runs),
        ("refactorizations_during_reuse", refactored),
    ];
    bench.finish(
        auto_threads(),
        vec![m.section("transient_plan", &counts)],
        &[
            Bound::AtLeast("transient_plan.plan_reuse_vs_rebuild_speedup", 1.0),
            Bound::AtLeast("transient_plan.engine_vs_rebuild_speedup", 1.0),
        ],
    );
}
