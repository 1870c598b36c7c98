//! Measures the observability layer's overhead and emits
//! `BENCH_obs.json`.
//!
//! Two serial workloads are timed with metrics disabled and enabled:
//! the Monte-Carlo tolerance sweep (a nominal solve, the nominal
//! regulator response, then every sample from that response), and an
//! A2 fault sweep over a seeded
//! random-3 scenario set kept to the draws that carry a region or sheet
//! fault, so every scenario takes the instrumented restamp path (restamp,
//! warm-started CG, current recovery). Off and on runs alternate in
//! [`OBS_ROUNDS`] short rounds, each swapping which runs first, so host
//! drift hits both sides alike; the overhead is the per-round time
//! ratio on/off − 1. Three things are checked:
//!
//! * **Bitwise identity** — enabling metrics must not change a single
//!   bit of either result (instrumentation is observational only).
//! * **Overhead bound** — the median overhead stays within 3 % (the
//!   audit of the record).
//! * **Snapshot sanity** — the counters recorded while metrics were on
//!   match the work performed: every Monte-Carlo sample was answered
//!   from the response, and the fault half restamped (no scenario was
//!   answered by the low-rank path).
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin obs              # full, writes JSON
//! cargo run --release -p vpd-bench --bin obs -- --smoke   # CI smoke
//! ```

use vpd_bench::perf::{section, Bench, Bound, Config, Measured, Size, Stat};
use vpd_converters::VrTopologyKind;
use vpd_core::{run_tolerance, Architecture, Fault, FaultScenario, FaultSweep, McSettings};
use vpd_obs::MetricsSnapshot;

/// Largest tolerated median metrics overhead.
const MARGIN: f64 = 0.03;
/// Seed of the random-3 fault draws.
const FAULT_SEED: u64 = 4;
/// Off/on rounds of a full run: many short rounds keep drift between
/// the two runs of a round small, and the median of many ratios stable.
const OBS_ROUNDS: usize = 61;
/// Monte-Carlo samples per run.
const MC_SAMPLES: Size<usize> = Size(100, 8);
/// Restamp-path fault scenarios per run.
const FAULT_SCENARIOS: Size<usize> = Size(16, 8);

/// One workload timed with metrics off and on.
struct Paired<R> {
    /// The last result with metrics off and on.
    results: [R; 2],
    /// Metrics recorded by the on runs alone, and how many there were.
    snapshot: MetricsSnapshot,
    on_runs: usize,
    measured: Measured,
    /// Per-round overhead, on/off time − 1.
    overhead: Stat,
}

/// Times `f` with metrics off (the baseline) and on, `work` items per
/// run, its rates recorded under `rates`.
fn paired<R>(
    bench: &Bench,
    label: &str,
    work: usize,
    rates: [&'static str; 2],
    mut f: impl FnMut() -> R,
) -> Paired<R> {
    let mut results = [None, None];
    let mut on_runs = 0;
    vpd_obs::reset();
    let configs = rates.map(|rate| Config::new(rate, work));
    let measured = bench.measure(label, &configs, |config| {
        vpd_obs::set_enabled(config == 1);
        results[config] = Some(f());
        on_runs += config;
    });
    vpd_obs::set_enabled(false);
    let overhead: Vec<f64> = measured.ratios(1).iter().map(|r| 1.0 / r - 1.0).collect();
    let overhead = Stat::of(&overhead);
    println!("  {:<36} {overhead}", "overhead");
    Paired {
        results: results.map(|r| r.expect("every configuration ran")),
        snapshot: vpd_obs::snapshot(),
        on_runs,
        measured,
        overhead,
    }
}

fn main() {
    let bench =
        Bench::from_args("Observability-overhead", "BENCH_obs.json").with_rounds(OBS_ROUNDS);
    let (spec, calib, _) = vpd_bench::paper_env();
    let mc_samples = bench.size(MC_SAMPLES);
    let fault_count = bench.size(FAULT_SCENARIOS);
    let mc_settings = McSettings {
        samples: mc_samples,
        threads: 1,
        ..McSettings::default()
    };
    let sweep = FaultSweep::new(
        Architecture::InterposerEmbedded,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
    )
    .unwrap();
    // About a quarter of random-3 draws carry a region or sheet fault;
    // draw enough to keep `fault_count` of them.
    let scenarios: Vec<FaultScenario> = FaultScenario::random_k(
        3,
        8 * fault_count,
        FAULT_SEED,
        sweep.vr_count(),
        sweep.grid_side(),
    )
    .into_iter()
    .filter(|s| {
        s.faults
            .iter()
            .any(|f| matches!(f, Fault::RegionOpen { .. } | Fault::SheetDegradation { .. }))
    })
    .take(fault_count)
    .collect();
    assert_eq!(scenarios.len(), fault_count, "too few restamp-path draws");

    let mc = paired(
        &bench,
        &format!("monte-carlo ({mc_samples} samples, serial)"),
        mc_samples,
        ["off_samples_per_sec", "on_samples_per_sec"],
        || {
            run_tolerance(
                Architecture::InterposerPeriphery,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &mc_settings,
            )
            .unwrap()
        },
    );
    let faults = paired(
        &bench,
        &format!("restamp-path fault sweep ({fault_count} scenarios, serial)"),
        fault_count,
        ["off_scenarios_per_sec", "on_scenarios_per_sec"],
        || sweep.run(&scenarios, 1).unwrap(),
    );

    // Instrumentation must be purely observational.
    assert_eq!(
        mc.results[0], mc.results[1],
        "metrics changed the Monte-Carlo summary"
    );
    assert_eq!(
        faults.results[0], faults.results[1],
        "metrics changed the fault report"
    );

    // Counters recorded during the on runs must match the work: one MC
    // run of `mc_samples` and one fault sweep per on run, and every
    // fault scenario restamped rather than answered low-rank.
    let runs = mc.on_runs as u64;
    assert_eq!(mc.snapshot.counter("mc.runs"), Some(runs));
    assert_eq!(
        mc.snapshot.counter("mc.samples"),
        Some(runs * mc_samples as u64)
    );
    assert_eq!(
        mc.snapshot.counter("mc.lowrank_samples"),
        Some(runs * mc_samples as u64),
        "a Monte-Carlo sample took the restamp path"
    );
    assert_eq!(
        mc.snapshot.counter("cg.solves").unwrap_or(0),
        0,
        "a Monte-Carlo run solved its nominal point by CG"
    );
    let f = &faults.snapshot;
    let runs = faults.on_runs as u64;
    assert_eq!(f.counter("faults.runs"), Some(runs));
    assert_eq!(
        f.counter("faults.scenarios"),
        Some(runs * scenarios.len() as u64)
    );
    assert!(f.counter("plan.restamps").unwrap_or(0) > 0, "no restamps");
    assert_eq!(
        f.counter("faults.lowrank_scenarios").unwrap_or(0),
        0,
        "a fault scenario took the low-rank path"
    );
    println!(
        "recorded while on: {} cg solves, {} cg iterations, {} fault-sweep restamps; \
         metrics on == off, bitwise",
        mc.snapshot.counter("cg.solves").unwrap_or(0) + f.counter("cg.solves").unwrap_or(0),
        mc.snapshot.counter("cg.iterations").unwrap_or(0) + f.counter("cg.iterations").unwrap_or(0),
        f.counter("plan.restamps").unwrap_or(0),
    );

    let count = |s: &MetricsSnapshot, name| s.counter(name).unwrap_or(0) as usize;
    let recorded = [
        ("on_runs", mc.on_runs),
        ("mc_cg_solves", count(&mc.snapshot, "cg.solves")),
        ("mc_cg_iterations", count(&mc.snapshot, "cg.iterations")),
        ("fault_cg_solves", count(f, "cg.solves")),
        ("fault_cg_iterations", count(f, "cg.iterations")),
        ("fault_plan_restamps", count(f, "plan.restamps")),
        (
            "fault_lowrank_scenarios",
            count(f, "faults.lowrank_scenarios"),
        ),
    ];
    let overhead = [
        ("monte_carlo", mc.overhead),
        ("fault_sweep", faults.overhead),
    ];
    bench.finish(
        1,
        vec![
            mc.measured
                .section("monte_carlo", &[("samples", mc_samples)]),
            faults
                .measured
                .section("fault_sweep", &[("scenarios", fault_count)]),
            section("overhead", &[], &overhead),
            section("recorded", &recorded, &[]),
        ],
        &[
            Bound::AtMost("overhead.monte_carlo", MARGIN),
            Bound::AtMost("overhead.fault_sweep", MARGIN),
        ],
    );
}
