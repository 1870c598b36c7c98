//! Measures the fault-injection sweep engine and solver-resilience
//! path and emits `BENCH_faults.json`.
//!
//! Three things are measured:
//!
//! * **N-1 contingency throughput** — every A2 module opened in turn,
//!   serially (`threads = 1`) and with the auto thread count. The
//!   engine guarantees the two reports are bitwise identical; this
//!   binary asserts it.
//! * **Random-k fault batches** — mixed open/derate/drift/region
//!   scenarios, exercising the full fault taxonomy.
//! * **Solver paths** — how many scenarios the low-rank path answered
//!   from the nominal regulator response, how many VR-local ones its
//!   conditioning guard sent back to the restamp path, how many took the
//!   restamp path (region and sheet faults), and how many of those
//!   needed a cold restart or the dense-LU fallback; plus a Monte-Carlo
//!   reference rate so the sweep's cost can be compared against the
//!   Monte-Carlo engine.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin faults              # full, writes JSON
//! cargo run --release -p vpd-bench --bin faults -- --samples 8   # CI smoke
//! ```
//!
//! Exits non-zero if any reported quantity is non-finite.

use std::time::Instant;
use vpd_converters::VrTopologyKind;
use vpd_core::{
    run_tolerance, Architecture, FaultScenario, FaultSweep, FaultSweepReport, McSettings,
};

fn usage() -> ! {
    eprintln!("usage: faults [--samples N]");
    std::process::exit(2);
}

/// Validates every number the sweep reports; non-finite output is a
/// solver bug, so die loudly rather than writing a poisoned JSON.
fn check_finite(label: &str, report: &FaultSweepReport) {
    let mut bad = Vec::new();
    for o in &report.outcomes {
        let fields = [
            ("worst_drop", o.worst_drop.value()),
            ("surviving_min", o.surviving_min.value()),
            ("surviving_max", o.surviving_max.value()),
            ("surviving_mean", o.surviving_mean.value()),
            ("spread", o.spread),
        ];
        for (name, v) in fields {
            if !v.is_finite() {
                bad.push(format!("{label}/{}: {name} = {v}", o.name));
            }
        }
    }
    if !report.worst_drop.value().is_finite() || !report.max_spread.is_finite() {
        bad.push(format!("{label}: summary non-finite"));
    }
    if !bad.is_empty() {
        for b in &bad {
            eprintln!("non-finite output: {b}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let mut samples: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                let v = args.next().unwrap_or_else(|| usage());
                samples = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    let smoke = samples.is_some();

    let (spec, calib, _) = vpd_bench::paper_env();
    vpd_bench::banner(if smoke {
        "Fault-sweep smoke"
    } else {
        "Fault-sweep benchmark (BENCH_faults.json)"
    });

    let sweep = FaultSweep::new(
        Architecture::InterposerEmbedded,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
    )
    .unwrap();

    // --- N-1 contingency, serial vs parallel ----------------------------
    let mut n_minus_1 = FaultScenario::n_minus_1(sweep.vr_count());
    if let Some(n) = samples {
        n_minus_1.truncate(n.max(1));
    }
    let n1_count = n_minus_1.len();

    // A low-rank N-1 sweep takes tens of microseconds: rate the median
    // of a few runs rather than one cold one.
    let rate = |threads: usize| {
        let mut rates: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                sweep.run(&n_minus_1, threads).unwrap();
                n1_count as f64 / start.elapsed().as_secs_f64()
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    let serial = sweep.run(&n_minus_1, 1).unwrap();
    let parallel = sweep.run(&n_minus_1, 0).unwrap();
    let (serial_per_sec, parallel_per_sec) = (rate(1), rate(0));

    assert_eq!(serial, parallel, "thread count must not change the report");
    check_finite("n-1", &serial);
    println!(
        "A2 N-1 ({n1_count} scenarios): serial {serial_per_sec:.1}/s, \
         parallel {parallel_per_sec:.1}/s, worst drop {:.4} V ({}), \
         fallbacks {}",
        serial.worst_drop.value(),
        serial.worst_scenario,
        serial.fallback_count,
    );

    // --- Random-k batch over the full fault taxonomy --------------------
    let k = 3;
    let batch = samples.unwrap_or(128);
    let random = FaultScenario::random_k(k, batch, 0xFA17, sweep.vr_count(), sweep.grid_side());
    let random_start = Instant::now();
    let random_report = sweep.run(&random, 0).unwrap();
    let random_per_sec = batch as f64 / random_start.elapsed().as_secs_f64();
    check_finite("random-k", &random_report);

    let evaluated = n1_count + batch;
    let low_rank = serial.lowrank_scenarios + random_report.lowrank_scenarios;
    let guarded = serial.lowrank_fallbacks + random_report.lowrank_fallbacks;
    let restamped = evaluated - low_rank;
    let fallback_rate =
        (serial.fallback_count + random_report.fallback_count) as f64 / evaluated as f64;
    println!(
        "random-{k} ({batch} scenarios): {random_per_sec:.1}/s, worst drop {:.4} V, \
         max spread {:.1}x, overloaded scenarios {}",
        random_report.worst_drop.value(),
        random_report.max_spread,
        random_report.overloaded_scenarios,
    );
    println!(
        "solver path: {low_rank}/{evaluated} scenarios low-rank, {restamped} restamped \
         ({guarded} by the conditioning guard), solver fallback rate {:.1}%, stagnations {}",
        100.0 * fallback_rate,
        serial.stagnation_count + random_report.stagnation_count,
    );

    if smoke {
        println!("\nsmoke OK ({evaluated} scenarios, all outputs finite)");
        return;
    }

    // --- Monte-Carlo reference rate -------------------------------------
    // The acceptance bar: a Monte-Carlo sample is a restamp plus a warm
    // solve, the most a fault scenario costs, so the sweep should hold
    // at least half the MC engine's serial rate.
    let mc_samples = 200;
    let mc_start = Instant::now();
    run_tolerance(
        Architecture::InterposerPeriphery,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
        &McSettings {
            samples: mc_samples,
            threads: 1,
            ..McSettings::default()
        },
    )
    .unwrap();
    let mc_per_sec = mc_samples as f64 / mc_start.elapsed().as_secs_f64();
    let vs_mc = serial_per_sec / mc_per_sec;
    println!(
        "reference: monte-carlo serial {mc_per_sec:.1}/s, \
         fault sweep at {:.2}x of it",
        vs_mc
    );
    assert!(
        vs_mc >= 0.5,
        "fault-sweep throughput {serial_per_sec:.1}/s fell below half the MC rate {mc_per_sec:.1}/s"
    );

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"n_minus_1\": {{\n    \"architecture\": \"A2\",\n    \"scenarios\": {n1_count},\n    \"serial_scenarios_per_sec\": {serial_per_sec:.3},\n    \"parallel_scenarios_per_sec\": {parallel_per_sec:.3},\n    \"threads\": {threads},\n    \"worst_drop_volts\": {:.6},\n    \"worst_scenario\": \"{}\",\n    \"max_spread\": {:.3},\n    \"parallel_matches_serial_bitwise\": true\n  }},\n  \"random_k\": {{\n    \"k\": {k},\n    \"scenarios\": {batch},\n    \"scenarios_per_sec\": {random_per_sec:.3},\n    \"worst_drop_volts\": {:.6},\n    \"max_spread\": {:.3},\n    \"overloaded_scenarios\": {}\n  }},\n  \"solver\": {{\n    \"scenarios_evaluated\": {evaluated},\n    \"low_rank\": {low_rank},\n    \"restamp_path\": {restamped},\n    \"low_rank_guard_fallbacks\": {guarded},\n    \"fallback_rate\": {fallback_rate:.4},\n    \"stagnations\": {}\n  }},\n  \"reference\": {{\n    \"monte_carlo_serial_samples_per_sec\": {mc_per_sec:.3},\n    \"sweep_vs_monte_carlo\": {vs_mc:.3}\n  }}\n}}\n",
        serial.worst_drop.value(),
        serial.worst_scenario,
        serial.max_spread,
        random_report.worst_drop.value(),
        random_report.max_spread,
        random_report.overloaded_scenarios,
        serial.stagnation_count + random_report.stagnation_count,
    );
    std::fs::write("BENCH_faults.json", &json).unwrap();
    println!("\nwrote BENCH_faults.json");
}
