//! Measures the observability layer's overhead and emits
//! `BENCH_obs.json`.
//!
//! Two serial workloads are timed with metrics disabled and enabled:
//! the Monte-Carlo tolerance sweep (a nominal solve, the nominal
//! regulator response, then every sample from that response), and an
//! A2 fault sweep over a seeded
//! random-3 scenario set kept to the draws that carry a region or sheet
//! fault, so every scenario takes the instrumented restamp path (restamp,
//! warm-started CG, current recovery). Off and on trials alternate in
//! pairs, each pair swapping which runs first, so host drift hits both
//! sides alike; the overhead is the median of the per-pair time ratios.
//! Three things are asserted:
//!
//! * **Bitwise identity** — enabling metrics must not change a single
//!   bit of either result (instrumentation is observational only).
//! * **Overhead bound** — the median instrumented time stays within
//!   3 % of uninstrumented.
//! * **Snapshot sanity** — the counters recorded while metrics were on
//!   match the work performed: every Monte-Carlo sample was answered
//!   from the response, and the fault half restamped (no scenario was
//!   answered by the low-rank path).
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin obs              # full, writes JSON
//! cargo run --release -p vpd-bench --bin obs -- --samples 8   # CI smoke
//! ```

use std::time::Instant;
use vpd_converters::VrTopologyKind;
use vpd_core::{run_tolerance, Architecture, Fault, FaultScenario, FaultSweep, McSettings};
use vpd_obs::MetricsSnapshot;
use vpd_report::Json;

/// Largest tolerated median metrics overhead.
const MARGIN: f64 = 0.03;
/// Seed of the random-3 fault draws.
const FAULT_SEED: u64 = 4;

fn usage() -> ! {
    eprintln!("usage: obs [--samples N]");
    std::process::exit(2);
}

/// Paired off/on timings of one workload.
struct Paired<R> {
    /// Wall seconds with metrics off, one per pair.
    off: Vec<f64>,
    /// Wall seconds with metrics on, one per pair.
    on: Vec<f64>,
    /// The last result with metrics off and on.
    results: (R, R),
    /// Metrics recorded by the on trials alone.
    snapshot: MetricsSnapshot,
}

fn time<R>(f: &mut impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Runs `pairs` off/on trial pairs of `f`, swapping the order in every
/// other pair, after one untimed warm-up run.
fn paired<R>(pairs: usize, mut f: impl FnMut() -> R) -> Paired<R> {
    vpd_obs::set_enabled(false);
    f();
    vpd_obs::reset();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last = (None, None);
    for pair in 0..pairs {
        for metrics in [pair % 2 == 1, pair % 2 == 0] {
            vpd_obs::set_enabled(metrics);
            let (secs, r) = time(&mut f);
            if metrics {
                on.push(secs);
                last.1 = Some(r);
            } else {
                off.push(secs);
                last.0 = Some(r);
            }
        }
    }
    vpd_obs::set_enabled(false);
    Paired {
        off,
        on,
        results: (
            last.0.expect("at least one pair"),
            last.1.expect("at least one pair"),
        ),
        snapshot: vpd_obs::snapshot(),
    }
}

/// The `q`-quantile of `xs` (nearest rank).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

impl<R> Paired<R> {
    /// Per-pair overhead `on/off − 1`: (first quartile, median, third
    /// quartile).
    fn overhead(&self) -> (f64, f64, f64) {
        let ratios: Vec<f64> = self
            .on
            .iter()
            .zip(&self.off)
            .map(|(on, off)| on / off - 1.0)
            .collect();
        (
            quantile(&ratios, 0.25),
            quantile(&ratios, 0.5),
            quantile(&ratios, 0.75),
        )
    }

    /// Median throughput `(off, on)` for `work` items per trial.
    fn rates(&self, work: usize) -> (f64, f64) {
        (
            work as f64 / quantile(&self.off, 0.5),
            work as f64 / quantile(&self.on, 0.5),
        )
    }

    /// The record of this workload; `unit` names its work items.
    fn json(&self, unit: &str, work: usize) -> Json {
        let (q1, median, q3) = self.overhead();
        let (off, on) = self.rates(work);
        Json::obj([
            (unit.to_owned(), Json::from(work)),
            ("pairs".to_owned(), Json::from(self.on.len())),
            (format!("off_{unit}_per_sec"), Json::from(off)),
            (format!("on_{unit}_per_sec"), Json::from(on)),
            ("overhead".to_owned(), Json::from(median)),
            ("overhead_q1".to_owned(), Json::from(q1)),
            ("overhead_q3".to_owned(), Json::from(q3)),
        ])
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
        "Observability-overhead smoke"
    } else {
        "Observability-overhead benchmark (BENCH_obs.json)"
    });

    // Many short pairs: drift between the two trials of a pair stays
    // small, and the median of many ratios is stable.
    let mc_samples = samples.unwrap_or(100);
    let fault_count = samples.unwrap_or(16).max(1);
    let pairs = if smoke { 2 } else { 61 };
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

    let mc = paired(pairs, || {
        run_tolerance(
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &mc_settings,
        )
        .unwrap()
    });
    let faults = paired(pairs, || sweep.run(&scenarios, 1).unwrap());

    // Instrumentation must be purely observational.
    assert_eq!(
        mc.results.0, mc.results.1,
        "metrics changed the Monte-Carlo summary"
    );
    assert_eq!(
        faults.results.0, faults.results.1,
        "metrics changed the fault report"
    );

    // Counters recorded during the on trials must match the work:
    // `pairs` MC runs of `mc_samples` each, `pairs` fault sweeps, and
    // every fault scenario restamped rather than answered low-rank.
    let runs = pairs as u64;
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
    let scenario_runs = runs * scenarios.len() as u64;
    assert_eq!(f.counter("faults.runs"), Some(runs));
    assert_eq!(f.counter("faults.scenarios"), Some(scenario_runs));
    assert!(f.counter("plan.restamps").unwrap_or(0) > 0, "no restamps");
    assert_eq!(
        f.counter("faults.lowrank_scenarios").unwrap_or(0),
        0,
        "a fault scenario took the low-rank path"
    );

    let (_, mc_overhead, _) = mc.overhead();
    let (_, faults_overhead, _) = faults.overhead();
    let (mc_off, mc_on) = mc.rates(mc_samples);
    let (faults_off, faults_on) = faults.rates(scenarios.len());
    println!(
        "monte-carlo ({mc_samples} samples, serial, {pairs} pairs): {mc_off:.1}/s off, \
         {mc_on:.1}/s on ({:+.2}% median overhead)",
        100.0 * mc_overhead,
    );
    println!(
        "restamp-path fault sweep ({} scenarios, serial, {pairs} pairs): {faults_off:.1}/s off, \
         {faults_on:.1}/s on ({:+.2}% median overhead)",
        scenarios.len(),
        100.0 * faults_overhead,
    );
    println!(
        "recorded while on: {} cg solves, {} cg iterations, {} fault-sweep restamps",
        mc.snapshot.counter("cg.solves").unwrap_or(0) + f.counter("cg.solves").unwrap_or(0),
        mc.snapshot.counter("cg.iterations").unwrap_or(0) + f.counter("cg.iterations").unwrap_or(0),
        f.counter("plan.restamps").unwrap_or(0),
    );

    if smoke {
        println!("\nsmoke OK (metrics on == metrics off, bitwise)");
        return;
    }

    // A recording is a handful of relaxed atomics per solve, so the true
    // cost is far below the margin.
    assert!(
        mc_overhead <= MARGIN,
        "MC metrics overhead {:.2}% exceeds {:.0}%",
        100.0 * mc_overhead,
        100.0 * MARGIN
    );
    assert!(
        faults_overhead <= MARGIN,
        "fault-sweep metrics overhead {:.2}% exceeds {:.0}%",
        100.0 * faults_overhead,
        100.0 * MARGIN
    );

    let counter = |s: &MetricsSnapshot, name: &str| Json::from(s.counter(name).unwrap_or(0) as f64);
    let doc = Json::obj([
        ("monte_carlo", mc.json("samples", mc_samples)),
        ("fault_sweep", faults.json("scenarios", scenarios.len())),
        (
            "asserts",
            Json::obj([
                ("overhead_margin", Json::from(MARGIN)),
                ("results_bitwise_identical", Json::from(true)),
            ]),
        ),
        (
            "recorded",
            Json::obj([
                ("mc_cg_solves", counter(&mc.snapshot, "cg.solves")),
                ("mc_cg_iterations", counter(&mc.snapshot, "cg.iterations")),
                ("fault_cg_solves", counter(f, "cg.solves")),
                ("fault_cg_iterations", counter(f, "cg.iterations")),
                ("fault_plan_restamps", counter(f, "plan.restamps")),
                (
                    "fault_lowrank_scenarios",
                    counter(f, "faults.lowrank_scenarios"),
                ),
            ]),
        ),
    ]);
    std::fs::write("BENCH_obs.json", format!("{doc}\n")).unwrap();
    println!("\nwrote BENCH_obs.json");
}
