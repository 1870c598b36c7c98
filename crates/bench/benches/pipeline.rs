//! Criterion benchmarks for the paper-level pipelines: efficiency-curve
//! evaluation, current-sharing solves, full architecture analyses (one
//! Figure 7 bar and the whole figure), Monte-Carlo sampling, and a
//! switched-converter transient.

use criterion::{criterion_group, criterion_main, Criterion};
use vpd_circuit::{Netlist, PwmSchedule, SwitchState, TransientPlan, TransientSettings};
use vpd_converters::{Converter, VrTopologyKind};
use vpd_core::{
    analyze, explore_matrix, run_tolerance, solve_sharing, AnalysisOptions, Architecture,
    Calibration, McSettings, SystemSpec, VrPlacement,
};
use vpd_units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};

fn env() -> (SystemSpec, Calibration, AnalysisOptions) {
    (
        SystemSpec::paper_default(),
        Calibration::paper_default(),
        AnalysisOptions::default(),
    )
}

fn bench_efficiency_curve(c: &mut Criterion) {
    let conv = Converter::dpmih_48v_to_1v();
    c.bench_function("efficiency_curve_eval_100_points", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for k in 1..=100 {
                acc += conv.efficiency(Amps::new(k as f64)).unwrap().fraction();
            }
            acc
        });
    });
}

fn bench_sharing(c: &mut Criterion) {
    let (spec, calib, _) = env();
    c.bench_function("current_sharing_periphery_48", |b| {
        b.iter(|| solve_sharing(&spec, &calib, VrPlacement::Periphery, 48).unwrap());
    });
    c.bench_function("current_sharing_below_die_48", |b| {
        b.iter(|| solve_sharing(&spec, &calib, VrPlacement::BelowDie, 48).unwrap());
    });
}

fn bench_analysis(c: &mut Criterion) {
    let (spec, calib, opts) = env();
    c.bench_function("analyze_a1_dsch_one_bar", |b| {
        b.iter(|| {
            analyze(
                Architecture::InterposerPeriphery,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &opts,
            )
            .unwrap()
        });
    });
    c.bench_function("figure7_full_matrix", |b| {
        b.iter(|| {
            explore_matrix(
                &[VrTopologyKind::Dpmih, VrTopologyKind::Dsch],
                &spec,
                &calib,
                &opts,
            )
        });
    });
}

fn bench_monte_carlo(c: &mut Criterion) {
    let (spec, calib, _) = env();
    let settings = McSettings {
        samples: 10,
        ..McSettings::default()
    };
    c.bench_function("monte_carlo_10_samples_a1", |b| {
        b.iter(|| {
            run_tolerance(
                Architecture::InterposerPeriphery,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &settings,
            )
            .unwrap()
        });
    });
}

fn bench_transient_buck(c: &mut Criterion) {
    // A synchronous buck phase: 2000 backward-Euler steps with a cached
    // LU per switch configuration.
    let mut net = Netlist::new();
    let vin = net.node("vin");
    let sw = net.node("sw");
    let out = net.node("out");
    net.voltage_source(vin, net.ground(), Volts::new(12.0))
        .unwrap();
    let f = Hertz::from_megahertz(1.0);
    let pwm = PwmSchedule::new(f, 1.0 / 12.0, 0.0).unwrap();
    net.switch(
        vin,
        sw,
        Ohms::from_milliohms(5.0),
        Ohms::new(1e6),
        Some(pwm),
        SwitchState::Off,
    )
    .unwrap();
    net.switch(
        sw,
        net.ground(),
        Ohms::from_milliohms(5.0),
        Ohms::new(1e6),
        Some(pwm.complementary()),
        SwitchState::On,
    )
    .unwrap();
    net.inductor(sw, out, Henries::from_nanohenries(220.0), Amps::ZERO)
        .unwrap();
    net.capacitor(
        out,
        net.ground(),
        Farads::from_microfarads(10.0),
        Volts::ZERO,
    )
    .unwrap();
    net.resistor(out, net.ground(), Ohms::from_milliohms(100.0))
        .unwrap();
    let settings = TransientSettings::new(
        Seconds::from_microseconds(2.0),
        Seconds::from_nanoseconds(1.0),
    )
    .unwrap();
    c.bench_function("transient_buck_2000_steps", |b| {
        b.iter(|| {
            let mut plan = TransientPlan::compile(&net, &settings).unwrap();
            plan.run().unwrap().times().len()
        });
    });
}

criterion_group!(
    benches,
    bench_efficiency_curve,
    bench_sharing,
    bench_analysis,
    bench_monte_carlo,
    bench_transient_buck
);
criterion_main!(benches);
