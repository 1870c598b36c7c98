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
//! [`AcPoint`]s; this binary asserts it before reporting throughput.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin ac               # full, writes JSON
//! cargo run --release -p vpd-bench --bin ac -- --points 16    # CI smoke
//! ```
//!
//! Exits non-zero if any reported quantity is non-finite.

use std::time::Instant;
use vpd_circuit::{AcPlan, AcPoint};
use vpd_core::{Architecture, ImpedanceSweep, ImpedanceSweepSettings, PdnModel};

fn usage() -> ! {
    eprintln!("usage: ac [--points N]");
    std::process::exit(2);
}

fn main() {
    let mut points: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--points" => {
                let v = args.next().unwrap_or_else(|| usage());
                points = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }
    let smoke = points.is_some();
    let points = points.unwrap_or(240).max(2);

    let (spec, _, _) = vpd_bench::paper_env();
    vpd_bench::banner(if smoke {
        "AC-sweep smoke"
    } else {
        "AC-sweep benchmark (BENCH_ac.json)"
    });

    let arch = Architecture::InterposerPeriphery;
    let model = PdnModel::for_architecture(arch);
    let settings = ImpedanceSweepSettings {
        points,
        ..ImpedanceSweepSettings::default()
    };
    let freqs = settings.frequencies().unwrap();
    let sweep = ImpedanceSweep::for_architecture(arch, &spec).unwrap();
    // Warm up every path once so allocator and page effects don't skew
    // the first timed configuration.
    let reference = model.impedance_profile(&freqs).unwrap();
    let passes = if smoke { 1 } else { 25 };

    // --- compile-per-point: netlist + plan rebuilt every point ----------
    let mut rebuilt = Vec::new();
    let start = Instant::now();
    for _ in 0..passes {
        rebuilt = freqs
            .iter()
            .map(|&f| {
                let (net, die) = model.netlist().unwrap();
                AcPlan::compile(&net).impedance_at(die, f).unwrap()
            })
            .collect();
    }
    let rebuild_points_per_sec = (passes * points) as f64 / start.elapsed().as_secs_f64();

    // --- compiled plan, serial and parallel -----------------------------
    let mut serial = Vec::new();
    let start = Instant::now();
    for _ in 0..passes {
        serial = sweep.run_over(&freqs, 1).unwrap().points;
    }
    let serial_points_per_sec = (passes * points) as f64 / start.elapsed().as_secs_f64();

    let mut parallel = Vec::new();
    let start = Instant::now();
    for _ in 0..passes {
        parallel = sweep.run_over(&freqs, 0).unwrap().points;
    }
    let parallel_points_per_sec = (passes * points) as f64 / start.elapsed().as_secs_f64();

    assert_eq!(rebuilt, reference, "cold rebuild must match the sweep path");
    assert_eq!(
        serial, reference,
        "the engine must match a one-shot plan sweep"
    );
    assert_eq!(parallel, serial, "thread count must not change the points");

    let plan_speedup = serial_points_per_sec / rebuild_points_per_sec;
    let engine_speedup = parallel_points_per_sec / rebuild_points_per_sec;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "ac sweep ({points} points, A1 ladder): compile-per-point \
         {rebuild_points_per_sec:.0}/s, plan serial {serial_points_per_sec:.0}/s \
         ({plan_speedup:.1}x), parallel x{threads} {parallel_points_per_sec:.0}/s \
         ({engine_speedup:.1}x)"
    );

    for (label, v) in [
        ("rebuild", rebuild_points_per_sec),
        ("serial", serial_points_per_sec),
        ("parallel", parallel_points_per_sec),
    ] {
        assert!(v.is_finite() && v > 0.0, "{label} rate not finite: {v}");
    }

    if smoke {
        println!("\nsmoke OK ({points} points, all three paths bitwise identical)");
        return;
    }

    let peak = serial
        .iter()
        .map(AcPoint::magnitude)
        .fold(0.0_f64, f64::max);
    let json = format!(
        "{{\n  \"ac_sweep\": {{\n    \"architecture\": \"A1\",\n    \"points\": {points},\n    \"passes\": {passes},\n    \"rebuild_points_per_sec\": {rebuild_points_per_sec:.3},\n    \"plan_serial_points_per_sec\": {serial_points_per_sec:.3},\n    \"plan_parallel_points_per_sec\": {parallel_points_per_sec:.3},\n    \"plan_vs_rebuild_speedup\": {plan_speedup:.3},\n    \"engine_vs_rebuild_speedup\": {engine_speedup:.3},\n    \"threads\": {threads},\n    \"parallel_matches_serial_bitwise\": true\n  }},\n  \"sanity\": {{\n    \"a1_peak_impedance_ohm\": {peak:.9}\n  }}\n}}\n",
    );
    std::fs::write("BENCH_ac.json", &json).unwrap();
    println!("\nwrote BENCH_ac.json");
}
