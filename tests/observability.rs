//! Workspace-level observability contracts: the metrics layer must be
//! deterministic where the solvers are deterministic, and must never
//! change a solver result.
//!
//! The metric registry is process-global, so every test that enables
//! recording serializes behind one mutex (this file is its own test
//! binary, and metrics stay disabled everywhere else, so no other test
//! can interleave).

use proptest::prelude::*;
use std::sync::Mutex;
use vertical_power_delivery::core::{
    run_tolerance, Architecture, DroopSweep, DroopSweepReport, DroopSweepSettings, FaultScenario,
    FaultSweep, McSettings, SharingSolver,
};
use vertical_power_delivery::obs;
use vertical_power_delivery::prelude::*;

/// Serializes tests that enable the process-global registry.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn paper() -> (SystemSpec, Calibration) {
    (SystemSpec::paper_default(), Calibration::paper_default())
}

/// Runs one MC sweep plus one fault sweep at `threads` and returns the
/// metric snapshot of just that work.
fn instrumented_run(threads: usize) -> obs::MetricsSnapshot {
    let (spec, calib) = paper();
    obs::reset();
    run_tolerance(
        Architecture::InterposerEmbedded,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
        &McSettings {
            samples: 24,
            threads,
            ..McSettings::default()
        },
    )
    .unwrap();
    let sweep = FaultSweep::new(
        Architecture::InterposerPeriphery,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
    )
    .unwrap();
    sweep
        .run(&FaultScenario::n_minus_1(sweep.vr_count()), threads)
        .unwrap();
    obs::snapshot()
}

/// The sweeps are bitwise thread-count-independent, so every counter
/// that tallies *work done* (solves, iterations, fallbacks) must be
/// identical serial vs parallel. Timing histograms and gauges are
/// wall-clock and legitimately differ.
#[test]
fn work_counters_are_thread_count_deterministic() {
    let _gate = lock();
    obs::set_enabled(true);
    let serial = instrumented_run(1);
    let parallel = instrumented_run(4);
    obs::set_enabled(false);

    for name in [
        "cg.solves",
        "cg.iterations",
        "cg.warm_hits",
        "solve.solves",
        "solve.warm_cg",
        "solve.cold_restart",
        "solve.dense_lu",
        "solve.stagnations",
        "plan.solves",
        "plan.restamps",
        "grid.solves",
        "mc.runs",
        "mc.samples",
        "mc.lowrank_samples",
        "mc.lowrank_fallbacks",
        "faults.runs",
        "faults.scenarios",
        "faults.fallbacks",
        "faults.stagnations",
        "faults.lowrank_scenarios",
        "faults.lowrank_fallbacks",
        "par.jobs",
        "par.tasks",
    ] {
        assert_eq!(
            serial.counter(name),
            parallel.counter(name),
            "counter {name} differs between serial and parallel runs"
        );
    }
    // And the sweeps actually ran through the instrumented paths.
    assert_eq!(serial.counter("mc.samples"), Some(24));
    // Every Monte-Carlo sample is answered from the nominal response.
    assert_eq!(serial.counter("mc.lowrank_samples"), Some(24));
    assert_eq!(serial.counter("mc.lowrank_fallbacks"), Some(0));
    assert_eq!(serial.counter("faults.runs"), Some(1));
    // Every N-1 scenario is VR-local: all of them take the low-rank path.
    assert_eq!(serial.counter("faults.lowrank_scenarios"), Some(48));
    assert_eq!(serial.counter("faults.lowrank_fallbacks"), Some(0));
    assert!(serial.counter("cg.iterations").unwrap_or(0) > 0);
    // The iteration histogram's totals agree with the counters.
    let hist = serial
        .histogram("cg.iterations_per_solve")
        .expect("histogram registered");
    assert_eq!(Some(hist.count), serial.counter("cg.solves"));
    assert_eq!(Some(hist.sum), serial.counter("cg.iterations"));
}

/// Only the Monte-Carlo engine builds a nominal regulator response for
/// a served session, once per session: `analyze`, `sharing` and
/// `scenario` never pay for one, and an `analyze` served after `mc` on
/// the same cached session equals a cold one.
#[test]
fn only_monte_carlo_builds_a_session_response() {
    use vertical_power_delivery::serve::{Dispatcher, Request};
    let _gate = lock();
    let run = |d: &Dispatcher, line: &str| {
        let req = Request::parse_line(line).expect("valid request");
        d.dispatch(&req.work).expect("served").0.to_string()
    };
    let analyze = r#"{"kind":"analyze","params":{"arch":"a2"}}"#;
    let mc = r#"{"kind":"mc","params":{"arch":"a2","samples":4}}"#;
    obs::set_enabled(true);
    obs::reset();
    let dispatcher = Dispatcher::new(16);
    let cold_analyze = run(&dispatcher, analyze);
    run(
        &dispatcher,
        r#"{"kind":"sharing","params":{"placement":"below"}}"#,
    );
    run(&dispatcher, r#"{"kind":"scenario","params":{"name":"a2"}}"#);
    let before_mc = obs::snapshot();
    let first = run(&dispatcher, mc);
    let second = run(&dispatcher, mc);
    let after_mc = run(&dispatcher, analyze);
    let end = obs::snapshot();
    obs::set_enabled(false);

    assert_eq!(
        before_mc.counter("grid.regulator_responses").unwrap_or(0),
        0
    );
    // Built by the first `mc`, reused by the second on the cached session.
    assert_eq!(end.counter("grid.regulator_responses"), Some(1));
    assert_eq!(end.counter("mc.lowrank_samples"), Some(8));
    assert_eq!(end.counter("mc.lowrank_fallbacks"), Some(0));
    assert_eq!(first, second);
    assert_eq!(after_mc, cold_analyze);
    assert_eq!(run(&Dispatcher::new(0), mc), first, "cached equals cold");
}

/// A served setpoint sweep is one nominal solve however many setpoints
/// it carries, cold or cached, and the cached result equals a cold one.
#[test]
fn a_served_setpoint_sweep_is_one_solve() {
    use vertical_power_delivery::serve::{Dispatcher, Request};
    let _gate = lock();
    let setpoints: Vec<String> = (0..96)
        .map(|i| (0.97 + 0.06 * f64::from(i) / 95.0).to_string())
        .collect();
    let line = format!(
        r#"{{"kind":"sharing_sweep","params":{{"placement":"below","modules":48,"setpoints":[{}]}}}}"#,
        setpoints.join(",")
    );
    let work = Request::parse_line(&line).expect("valid request").work;
    let dispatcher = Dispatcher::new(4);
    let mut served = Vec::new();
    obs::set_enabled(true);
    for warm in [false, true] {
        obs::reset();
        let (doc, cached) = dispatcher.dispatch(&work).expect("served");
        let snap = obs::snapshot();
        assert_eq!(cached, warm);
        assert_eq!(snap.counter("grid.solves"), Some(1), "warm {warm}");
        assert_eq!(
            snap.counter("solve.sparse_cholesky"),
            Some(1),
            "warm {warm}"
        );
        assert_eq!(
            snap.counter("share.setpoint_sweeps"),
            Some(1),
            "warm {warm}"
        );
        assert!(
            snap.counters
                .iter()
                .all(|(name, n)| !name.starts_with("plan.block") || *n == 0),
            "{:?}",
            snap.counters
        );
        served.push(doc.to_string());
    }
    obs::set_enabled(false);
    assert_eq!(served[0], served[1], "cached equals cold");
    let (cold, _) = Dispatcher::new(0).dispatch(&work).expect("served");
    assert_eq!(
        cold.to_string(),
        served[0],
        "a zero-capacity dispatcher agrees"
    );
}

/// A snapshot of the same seeded run twice must be identical in every
/// deterministic dimension (full counter list, not a hand-picked set).
#[test]
fn same_seed_reruns_reproduce_every_counter() {
    let _gate = lock();
    obs::set_enabled(true);
    let a = instrumented_run(1);
    let b = instrumented_run(1);
    obs::set_enabled(false);
    assert_eq!(a.counters, b.counters);
}

/// One droop sweep (3 amplitudes × 2 slews on the A2 ladder) at
/// `threads`, instrumented; returns the report and its metric snapshot.
fn instrumented_droop_sweep(threads: usize) -> (DroopSweepReport, obs::MetricsSnapshot) {
    let spec = SystemSpec::paper_default();
    let sweep = DroopSweep::for_architecture(
        Architecture::InterposerEmbedded,
        &spec,
        Seconds::from_microseconds(20.0),
        Seconds::from_nanoseconds(50.0),
    )
    .unwrap();
    let mut settings = DroopSweepSettings::paper_default(&spec, 3, 2).unwrap();
    settings.threads = threads;
    obs::reset();
    let report = sweep.run(&settings).unwrap();
    (report, obs::snapshot())
}

/// The droop-sweep engine's thread count is unobservable in both the
/// result (bitwise) and every work counter it emits: workers clone a
/// pre-factored plan, so `transient.*` tallies depend only on the grid.
#[test]
fn droop_sweep_is_bitwise_and_counter_deterministic_across_threads() {
    let _gate = lock();
    obs::set_enabled(true);
    let (serial_report, serial) = instrumented_droop_sweep(1);
    let (parallel_report, parallel) = instrumented_droop_sweep(4);
    obs::set_enabled(false);

    assert_eq!(serial_report, parallel_report, "sweep reports diverge");
    assert_eq!(serial_report.points.len(), 6);
    for name in [
        "transient.runs",
        "transient.steps",
        "transient.factorizations",
        "transient.plan_builds",
        "droop.sweeps",
        "droop.points",
        "par.jobs",
        "par.tasks",
    ] {
        assert_eq!(
            serial.counter(name),
            parallel.counter(name),
            "counter {name} differs between serial and parallel sweeps"
        );
    }
    // The sweep ran through the instrumented paths: one run per grid
    // point, and the pre-factored clones never factored again.
    assert_eq!(serial.counter("transient.runs"), Some(6));
    assert_eq!(serial.counter("droop.points"), Some(6));
    assert_eq!(serial.counter("transient.factorizations").unwrap_or(0), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Enabling metrics never changes a solver result, bitwise — the
    /// instrumentation is observational only.
    #[test]
    fn prop_metrics_never_change_results(
        n_vrs in 4_usize..56,
        power in 300.0_f64..1400.0,
        placement_pick in 0_usize..2,
    ) {
        let placement = [VrPlacement::Periphery, VrPlacement::BelowDie][placement_pick];
        let spec = SystemSpec::new(
            Volts::new(48.0),
            Volts::new(1.0),
            Watts::new(power),
            CurrentDensity::from_amps_per_square_millimeter(2.0),
        ).unwrap();
        let calib = Calibration::paper_default();

        let _gate = lock();
        obs::set_enabled(false);
        let off = SharingSolver::builder(&spec, &calib)
            .placement(placement)
            .modules(n_vrs)
            .solve()
            .unwrap();
        obs::set_enabled(true);
        let on = SharingSolver::builder(&spec, &calib)
            .placement(placement)
            .modules(n_vrs)
            .solve()
            .unwrap();
        obs::set_enabled(false);

        // Bitwise: PartialEq on SharingReport is exact f64 equality.
        prop_assert_eq!(off, on);
    }
}
