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
//!   needed a cold restart or the dense-LU fallback.
//!
//! The baseline is the Monte-Carlo engine's serial rate on A1/DSCH.
//! Both engines answer each item from one nominal regulator response —
//! a Monte-Carlo sample as a uniform mesh-and-droop update, a VR-local
//! fault scenario as an edit of its own regulators — so the serial N-1
//! sweep must hold at least half that rate (`sweep_vs_monte_carlo`).
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin faults              # full, writes JSON
//! cargo run --release -p vpd-bench --bin faults -- --smoke   # CI smoke
//! ```
//!
//! Exits non-zero if any reported quantity is non-finite.

use vpd_bench::perf::{auto_threads, section, Bench, Bound, Config, Size};
use vpd_converters::VrTopologyKind;
use vpd_core::{
    run_tolerance, Architecture, FaultScenario, FaultSweep, FaultSweepReport, McSettings,
};

/// N-1 scenarios: all of them, or the first eight.
const N1_SCENARIOS: Size<usize> = Size(usize::MAX, 8);
/// N-1 sweeps per timed run: one low-rank sweep takes ~100 µs.
const N1_PASSES: Size<usize> = Size(20, 1);
/// Random-k scenarios.
const RANDOM_SCENARIOS: Size<usize> = Size(128, 8);
/// Monte-Carlo reference samples.
const MC_SAMPLES: Size<usize> = Size(200, 8);

/// Asserts every number the sweep reports is finite: non-finite output
/// is a solver bug.
fn check_finite(label: &str, report: &FaultSweepReport) {
    for o in &report.outcomes {
        let fields = [
            o.worst_drop.value(),
            o.surviving_min.value(),
            o.surviving_max.value(),
            o.surviving_mean.value(),
            o.spread,
        ];
        assert!(
            fields.iter().all(|v| v.is_finite()),
            "{label}/{}: non-finite output {fields:?}",
            o.name
        );
    }
    assert!(
        report.worst_drop.value().is_finite() && report.max_spread.is_finite(),
        "{label}: summary non-finite"
    );
}

fn main() {
    let bench = Bench::from_args("Fault-sweep", "BENCH_faults.json");
    let (spec, calib, _) = vpd_bench::paper_env();
    let sweep = FaultSweep::new(
        Architecture::InterposerEmbedded,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
    )
    .unwrap();

    let mut n_minus_1 = FaultScenario::n_minus_1(sweep.vr_count());
    n_minus_1.truncate(bench.size(N1_SCENARIOS));
    let n1_count = n_minus_1.len();
    let n1_passes = bench.size(N1_PASSES);
    let k = 3;
    let batch = bench.size(RANDOM_SCENARIOS);
    let random = FaultScenario::random_k(k, batch, 0xFA17, sweep.vr_count(), sweep.grid_side());
    let mc_samples = bench.size(MC_SAMPLES);
    let mc_settings = McSettings {
        samples: mc_samples,
        threads: 1,
        ..McSettings::default()
    };

    let (mut serial, mut parallel, mut random_report) = (None, None, None);
    let m = bench.measure(
        &format!("A2 N-1 ({n1_count}), random-{k} ({batch}), monte-carlo ({mc_samples})"),
        &[
            Config::new("monte_carlo_serial_samples_per_sec", mc_samples),
            Config::new("n1_serial_scenarios_per_sec", n1_passes * n1_count)
                .ratio("sweep_vs_monte_carlo"),
            Config::new("n1_parallel_scenarios_per_sec", n1_passes * n1_count),
            Config::new("random_k_scenarios_per_sec", batch),
        ],
        |config| match config {
            0 => {
                run_tolerance(
                    Architecture::InterposerPeriphery,
                    VrTopologyKind::Dsch,
                    &spec,
                    &calib,
                    &mc_settings,
                )
                .unwrap();
            }
            1 => (0..n1_passes).for_each(|_| serial = Some(sweep.run(&n_minus_1, 1).unwrap())),
            2 => (0..n1_passes).for_each(|_| parallel = Some(sweep.run(&n_minus_1, 0).unwrap())),
            _ => random_report = Some(sweep.run(&random, 0).unwrap()),
        },
    );
    let serial = serial.expect("serial ran");
    let random_report = random_report.expect("random-k ran");
    assert_eq!(
        Some(&serial),
        parallel.as_ref(),
        "thread count must not change the report"
    );
    check_finite("n-1", &serial);
    check_finite("random-k", &random_report);

    let evaluated = n1_count + batch;
    let low_rank = serial.lowrank_scenarios + random_report.lowrank_scenarios;
    let guarded = serial.lowrank_fallbacks + random_report.lowrank_fallbacks;
    let fallbacks = serial.fallback_count + random_report.fallback_count;
    println!(
        "N-1 worst drop {:.4} V ({}); random-{k} worst drop {:.4} V, max spread {:.1}x; \
         solver path: {low_rank}/{evaluated} low-rank ({guarded} guarded), \
         {fallbacks} solver fallbacks",
        serial.worst_drop.value(),
        serial.worst_scenario,
        random_report.worst_drop.value(),
        random_report.max_spread,
    );

    let sizes = [
        ("n1_scenarios", n1_count),
        ("n1_passes", n1_passes),
        ("random_k_scenarios", batch),
        ("monte_carlo_samples", mc_samples),
    ];
    bench.finish(
        auto_threads(),
        vec![
            m.section("rates", &sizes),
            section(
                "solver",
                &[
                    ("scenarios_evaluated", evaluated),
                    ("low_rank", low_rank),
                    ("restamp_path", evaluated - low_rank),
                    ("low_rank_guard_fallbacks", guarded),
                    ("fallbacks", fallbacks),
                    (
                        "stagnations",
                        serial.stagnation_count + random_report.stagnation_count,
                    ),
                ],
                &[],
            ),
        ],
        &[Bound::AtLeast("rates.sweep_vs_monte_carlo", 0.5)],
    );
}
