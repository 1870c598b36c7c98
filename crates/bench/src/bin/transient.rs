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
//!   source-only restamp ([`TransientPlan::set_load_step`]) plus a run.
//!   Repeated runs at the same `dt` re-factor zero times.
//! * **plan reuse, parallel** — the same restamp-and-run closure fanned
//!   over [`par_map_with`] with the auto thread count; the prefactored
//!   plan is cloned per worker, so no worker factors either.
//!
//! The engine guarantees all three produce bitwise-identical die
//! waveforms; this binary asserts it before reporting throughput. A full
//! run times seven rounds of the three, rotating their order, and
//! reports the median round with the range of the per-round speedups.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin transient            # full, writes JSON
//! cargo run --release -p vpd-bench --bin transient -- --runs 4    # CI smoke
//! ```
//!
//! Exits non-zero if any reported quantity is non-finite.

use std::time::Instant;
use vpd_circuit::{ElementId, Netlist, TransientPlan, TransientSettings};
use vpd_core::{par_map_with, Architecture, PdnModel};
use vpd_units::{Amps, Farads, Seconds, Volts};

/// Individually-modeled MLCC branches hung off the die node.
const DECAP_BRANCHES: usize = 48;
/// Load before the step (25% of the paper's 1 kA POL current).
const I_BASE: f64 = 250.0;
/// When the step fires.
const STEP_AT_US: f64 = 2.0;

fn usage() -> ! {
    eprintln!("usage: transient [--runs N]");
    std::process::exit(2);
}

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
        .step_current_source(
            die,
            net.ground(),
            Amps::new(I_BASE),
            Amps::new(after),
            Seconds::from_microseconds(STEP_AT_US),
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
    let mut runs: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                let v = args.next().unwrap_or_else(|| usage());
                runs = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    let smoke = runs.is_some();
    let runs = runs.unwrap_or(40).max(2);

    vpd_bench::banner(if smoke {
        "transient-plan smoke"
    } else {
        "transient-plan benchmark (BENCH_transient.json)"
    });

    // The amplitude grid: 500 A … 980 A in `runs` points.
    let amps: Vec<f64> = (0..runs)
        .map(|k| 500.0 + 480.0 * k as f64 / (runs - 1) as f64)
        .collect();
    let (net, el, settings) = build(amps[0]);
    let steps = (settings.t_stop.value() / settings.dt.value()).round() as usize;
    let (_, die) = PdnModel::for_architecture(Architecture::InterposerEmbedded)
        .netlist()
        .expect("die node");

    // Warm up the allocator and page cache once before timing; the
    // prefactored plan is what every worker of the parallel path clones.
    let mut plan = TransientPlan::compile(&net, &settings).expect("compile");
    plan.run().expect("warmup run");
    plan.prefactor().expect("prefactor");
    let factors_before = plan.cached_factorizations();
    let restamp = |plan: &mut TransientPlan, a: f64| {
        plan.set_load_step(
            el,
            Amps::new(I_BASE),
            Amps::new(a),
            Seconds::from_microseconds(STEP_AT_US),
        )
        .expect("restamp");
        plan.run().expect("reused run").voltage(die).to_vec()
    };

    // Each round times the three configurations back to back over the
    // whole grid, rotating which goes first, so host drift during a
    // round reaches all three; ratios are taken within a round and the
    // median round is reported.
    let rounds = if smoke { 1 } else { 7 };
    let mut rates: [Vec<f64>; 3] = Default::default();
    let (mut rebuilt, mut reused, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        for k in 0..3 {
            let config = (round + k) % 3;
            let start = Instant::now();
            match config {
                // Compile-per-run: netlist + cold plan every run.
                0 => {
                    rebuilt = amps
                        .iter()
                        .map(|&a| {
                            let (net, _, settings) = build(a);
                            let mut cold =
                                TransientPlan::compile(&net, &settings).expect("compile");
                            cold.run().expect("cold run").voltage(die).to_vec()
                        })
                        .collect();
                }
                // Plan reuse, serial: one plan, restamp + rerun.
                1 => reused = amps.iter().map(|&a| restamp(&mut plan, a)).collect(),
                // Plan reuse, parallel: prefactored clones per worker.
                _ => parallel = par_map_with(0, &amps, &plan, |plan, &a| restamp(plan, a)),
            }
            rates[config].push(runs as f64 / start.elapsed().as_secs_f64());
        }
    }
    let refactored = plan.cached_factorizations() - factors_before;

    assert_eq!(reused, rebuilt, "restamped reruns must match cold rebuilds");
    assert_eq!(parallel, reused, "thread count must not change the bits");
    assert_eq!(refactored, 0, "plan reuse must re-factor zero times");

    let median = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let ratios = |config: usize| -> Vec<f64> {
        rates[config]
            .iter()
            .zip(&rates[0])
            .map(|(r, base)| r / base)
            .collect()
    };
    let [rebuild_runs_per_sec, reuse_runs_per_sec, parallel_runs_per_sec] =
        [0, 1, 2].map(|c| median(&rates[c]));
    let (plan_ratios, engine_ratios) = (ratios(1), ratios(2));
    let (plan_speedup, engine_speedup) = (median(&plan_ratios), median(&engine_ratios));
    let range = |xs: &[f64]| {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("[{lo:.3}, {hi:.3}]")
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "transient ({runs} runs x {steps} steps, A2 + {DECAP_BRANCHES} decaps, median of \
         {rounds} rounds): compile-per-run {rebuild_runs_per_sec:.1}/s, \
         plan reuse {reuse_runs_per_sec:.1}/s ({plan_speedup:.2}x vs compile-per-run, \
         rounds {}), parallel x{threads} {parallel_runs_per_sec:.1}/s ({engine_speedup:.2}x, \
         rounds {})",
        range(&plan_ratios),
        range(&engine_ratios),
    );

    for (label, v) in [
        ("rebuild", rebuild_runs_per_sec),
        ("reuse", reuse_runs_per_sec),
        ("parallel", parallel_runs_per_sec),
    ] {
        assert!(v.is_finite() && v > 0.0, "{label} rate not finite: {v}");
    }

    if smoke {
        println!("\nsmoke OK ({runs} runs, all three paths bitwise identical)");
        return;
    }

    // Sanity: the stepped die waveform actually moves (peak-to-peak).
    let full = reused.last().expect("runs >= 2");
    let lo = full.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = full.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let swing = hi - lo;
    assert!(swing > 0.0, "die waveform is flat");
    let json = format!(
        "{{\n  \"transient_plan\": {{\n    \"architecture\": \"A2\",\n    \"decap_branches\": {DECAP_BRANCHES},\n    \"steps_per_run\": {steps},\n    \"runs\": {runs},\n    \"rounds\": {rounds},\n    \"rebuild_runs_per_sec\": {rebuild_runs_per_sec:.3},\n    \"plan_reuse_runs_per_sec\": {reuse_runs_per_sec:.3},\n    \"plan_parallel_runs_per_sec\": {parallel_runs_per_sec:.3},\n    \"plan_reuse_vs_rebuild_speedup\": {plan_speedup:.3},\n    \"plan_reuse_vs_rebuild_speedup_range\": {},\n    \"engine_vs_rebuild_speedup\": {engine_speedup:.3},\n    \"engine_vs_rebuild_speedup_range\": {},\n    \"threads\": {threads},\n    \"refactorizations_during_reuse\": {refactored},\n    \"parallel_matches_serial_bitwise\": true\n  }},\n  \"sanity\": {{\n    \"a2_full_step_swing_v\": {swing:.9}\n  }}\n}}\n",
        range(&plan_ratios),
        range(&engine_ratios),
    );
    std::fs::write("BENCH_transient.json", &json).unwrap();
    println!("\nwrote BENCH_transient.json");
}
