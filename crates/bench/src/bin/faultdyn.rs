//! Measures the dynamic fault power-integrity engines and emits
//! `BENCH_faultdyn.json`.
//!
//! The tentpole claim is **plan reuse**: every engine compiles its
//! solver state once and restamps per scenario, so a contingency set
//! costs restamp + warm solves rather than a rebuild per scenario.
//! Each engine is measured reuse (serial), reuse (parallel) and
//! rebuild-per-scenario, the baseline:
//!
//! * **Faulted impedance** — one compiled AC plan value-restamped per
//!   fault scenario, against rebuilding the faulted netlist and
//!   sweeping it from scratch.
//! * **VR-failure transients** — one compiled transient plan whose
//!   switch-config LU cache absorbs the mid-run topology flip, against
//!   compiling a fresh plan per failure time.
//! * **Faulted DC solves** — the fault sweep's reuse path against a
//!   cold grid build (ordering + symbolic + nominal solve) per
//!   scenario. This is the headline plan reuse (`dc.speedup`).
//! * **Electro-thermal cascade** — the full coupled ladder, where the
//!   fixed-point iterations dominate both paths, so the speedup is
//!   structurally smaller than the bare DC path's.
//!
//! Every engine's serial report is asserted bitwise-equal to its
//! parallel report.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin faultdyn              # full, writes JSON
//! cargo run --release -p vpd-bench --bin faultdyn -- --smoke   # CI smoke
//! ```

use vpd_bench::perf::{auto_threads, Bench, Bound, Config, Measured, Size};
use vpd_converters::VrTopologyKind;
use vpd_core::{
    CascadeLadder, CascadeSettings, FaultImpedanceSweep, FaultScenario, FaultSweep,
    FaultTransientSweep, ImpedanceSweepSettings, LoadStep, PdnModel, VrFailureScenario,
};
use vpd_units::{Hertz, Seconds};

const ARCH: vpd_core::Architecture = vpd_core::Architecture::InterposerEmbedded;
/// N-1 scenarios per engine: all of them, or the first three.
const SCENARIOS: Size<usize> = Size(usize::MAX, 3);
/// Frequency points per faulted impedance profile.
const POINTS: Size<usize> = Size(48, 16);
/// Failure times of the transient engine.
const FAIL_TIMES: Size<usize> = Size(12, 3);

/// The three configurations of one engine, rebuild first.
fn configs(scenarios: usize) -> [Config; 3] {
    [
        Config::new("rebuild_scenarios_per_sec", scenarios),
        Config::new("reuse_scenarios_per_sec", scenarios).ratio("speedup"),
        Config::new("parallel_scenarios_per_sec", scenarios).ratio("parallel_speedup"),
    ]
}

/// Measures one engine: `rebuild` answers one scenario from scratch,
/// `reuse(threads)` answers them all on the compiled engine. Asserts
/// serial == parallel bitwise and returns the serial report.
fn engine<S, R: PartialEq + std::fmt::Debug>(
    bench: &Bench,
    label: &str,
    scenarios: &[S],
    rebuild: impl Fn(&S),
    reuse: impl Fn(usize) -> R,
) -> (Measured, R) {
    let (mut serial, mut parallel) = (None, None);
    let label = format!("{label} ({} scenarios)", scenarios.len());
    let m = bench.measure(&label, &configs(scenarios.len()), |config| match config {
        0 => scenarios.iter().for_each(&rebuild),
        1 => serial = Some(reuse(1)),
        _ => parallel = Some(reuse(0)),
    });
    let serial = serial.expect("serial ran");
    assert_eq!(
        Some(&serial),
        parallel.as_ref(),
        "{label}: serial != parallel"
    );
    (m, serial)
}

fn main() {
    let bench = Bench::from_args("Dynamic-fault", "BENCH_faultdyn.json");
    let n_minus_1 = |vrs: usize| {
        let mut s = FaultScenario::n_minus_1(vrs);
        s.truncate(bench.size(SCENARIOS));
        s
    };
    let (spec, calib, _) = vpd_bench::paper_env();

    // --- Faulted impedance: restamp vs rebuild-per-scenario -------------
    let zsweep = FaultImpedanceSweep::new(ARCH, &spec, &calib).unwrap();
    let scenarios = n_minus_1(zsweep.vr_count());
    let points = bench.size(POINTS);
    let freqs: Vec<Hertz> = ImpedanceSweepSettings {
        points,
        threads: 1,
        ..ImpedanceSweepSettings::default()
    }
    .frequencies()
    .unwrap();
    let (z, z_report) = engine(
        &bench,
        "impedance",
        &scenarios,
        |s| {
            // Fresh engine, faulted netlist from scratch, no compiled
            // plan carried between scenarios.
            let fresh = FaultImpedanceSweep::new(ARCH, &spec, &calib).unwrap();
            let model = fresh.faulted_model(s).unwrap();
            model.impedance_profile(&freqs).unwrap();
        },
        |threads| zsweep.run(&scenarios, &freqs, threads).unwrap(),
    );
    assert!(z_report.worst_peak.value().is_finite());

    // --- VR-failure transients: shared plan vs compile-per-scenario -----
    let model = PdnModel::for_architecture(ARCH);
    let step = LoadStep::paper_default(&spec);
    let sim = Seconds::from_microseconds(20.0);
    let dt = Seconds::from_nanoseconds(40.0);
    let fails = VrFailureScenario::grid(bench.size(FAIL_TIMES), Seconds::from_microseconds(16.0));
    let tsweep = FaultTransientSweep::new(ARCH, &model, &step, sim, dt).unwrap();
    let (t, t_report) = engine(
        &bench,
        "transient (20 µs @ 40 ns)",
        &fails,
        |s| {
            let fresh = FaultTransientSweep::new(ARCH, &model, &step, sim, dt).unwrap();
            fresh.run(std::slice::from_ref(s), 1).unwrap();
        },
        |threads| tsweep.run(&fails, threads).unwrap(),
    );
    assert!(t_report.worst_droop.value().is_finite());

    // --- Faulted DC solves: reuse vs cold grid build --------------------
    let dc_sweep = FaultSweep::new(ARCH, VrTopologyKind::Dsch, &spec, &calib).unwrap();
    let dc_scenarios = n_minus_1(dc_sweep.vr_count());
    let (dc, dc_report) = engine(
        &bench,
        "dc",
        &dc_scenarios,
        |s| {
            let fresh = FaultSweep::new(ARCH, VrTopologyKind::Dsch, &spec, &calib).unwrap();
            fresh.run(std::slice::from_ref(s), 1).unwrap();
        },
        |threads| dc_sweep.run(&dc_scenarios, threads).unwrap(),
    );
    assert!(dc_report.worst_drop.value().is_finite());

    // --- Electro-thermal cascade: warm solver vs cold build -------------
    let settings = CascadeSettings::default();
    let ladder = CascadeLadder::new(ARCH, VrTopologyKind::Dsch, &spec, &calib, &settings).unwrap();
    let cascade_scenarios = n_minus_1(ladder.vr_count());
    let (cascade, c_report) = engine(
        &bench,
        "cascade",
        &cascade_scenarios,
        |s| {
            let fresh =
                CascadeLadder::new(ARCH, VrTopologyKind::Dsch, &spec, &calib, &settings).unwrap();
            fresh.run(std::slice::from_ref(s), 1).unwrap();
        },
        |threads| ladder.run(&cascade_scenarios, threads).unwrap(),
    );
    assert!(c_report.worst_drop.value().is_finite());
    assert!(c_report.converged > 0, "no cascade scenario converged");

    bench.finish(
        auto_threads(),
        vec![
            z.section(
                "impedance",
                &[("scenarios", scenarios.len()), ("points", points)],
            ),
            t.section("transient", &[("scenarios", fails.len())]),
            dc.section("dc", &[("scenarios", dc_scenarios.len())]),
            cascade.section("cascade", &[("scenarios", cascade_scenarios.len())]),
        ],
        &[
            Bound::AtLeast("impedance.speedup", 1.0),
            Bound::AtLeast("transient.speedup", 1.0),
            // Amortizing one compiled grid across a contingency set must
            // beat rebuilding it per scenario by 3x (so also 1.0).
            Bound::AtLeast("dc.speedup", 3.0),
            Bound::AtLeast("cascade.speedup", 1.0),
        ],
    );
}
