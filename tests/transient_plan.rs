//! Transient correctness suite: golden waveform statistics per
//! architecture, plan-vs-reference bitwise identity, and the paper's
//! A0-vs-A2 droop ordering, pinned against the paper-scale stimulus
//! (25% → 100% of the 1 kA POL current at 5 µs, 60 µs @ 10 ns).
//!
//! The golden numbers were produced by this engine and freeze its
//! behaviour: any change to companion stamping, LU pivoting, or the
//! settled-statistics windows shows up here first. The reference is the
//! step-by-step interpreter in `support/reference.rs`.

// Goldens are pinned at full f64 precision on purpose.
#![allow(clippy::excessive_precision)]

#[path = "support/reference.rs"]
mod reference;

use vertical_power_delivery::circuit::{
    ElementId, Netlist, PwmSchedule, SwitchState, TransientPlan, TransientResult, TransientSettings,
};
use vertical_power_delivery::core::{simulate_droop, LoadStep, PdnModel};
use vertical_power_delivery::prelude::*;

/// Trailing fraction of the run the settled statistics average over.
const TAIL: f64 = 0.25;

/// The five PDN configurations of the paper's Figure 7, with the names
/// the goldens are keyed by.
fn architectures() -> [(&'static str, Architecture); 5] {
    [
        ("A0", Architecture::Reference),
        ("A1", Architecture::InterposerPeriphery),
        ("A2", Architecture::InterposerEmbedded),
        (
            "A3-12",
            Architecture::TwoStage {
                bus: Volts::new(12.0),
            },
        ),
        (
            "A3-6",
            Architecture::TwoStage {
                bus: Volts::new(6.0),
            },
        ),
    ]
}

/// The paper-scale droop window.
fn window() -> (Seconds, Seconds) {
    (
        Seconds::from_microseconds(60.0),
        Seconds::from_nanoseconds(10.0),
    )
}

/// The architecture's PDN ladder plus the paper's load step, and the
/// die node the waveform is measured at.
fn stepped_netlist(arch: Architecture) -> (Netlist, vertical_power_delivery::circuit::NodeId) {
    let spec = SystemSpec::paper_default();
    let step = LoadStep::paper_default(&spec);
    let (mut net, die) = PdnModel::for_architecture(arch).netlist().unwrap();
    net.ramp_current_source(
        die,
        net.ground(),
        step.base,
        step.after,
        step.at,
        Seconds::ZERO,
    )
    .unwrap();
    (net, die)
}

#[test]
fn golden_settled_statistics_per_architecture() {
    // (name, settled mean, settled RMS, settled peak-to-peak ripple).
    // A0's ladder rings hard against the ideal step — its tail never
    // settles — while every vertical architecture converges to a flat
    // steady state (ripple exactly 0.0 at double precision).
    let goldens = [
        (
            "A0",
            0.840022492865372,
            1.249674744360936,
            2.778804105343790,
        ),
        ("A1", 0.946999999999971, 0.947000000000003, 0.0),
        ("A2", 0.986000000000026, 0.986000000000000, 0.0),
        ("A3-12", 0.946999999999971, 0.947000000000003, 0.0),
        ("A3-6", 0.946999999999971, 0.947000000000003, 0.0),
    ];
    let (sim, dt) = window();
    for ((name, arch), (gname, mean, rms, ripple)) in architectures().into_iter().zip(goldens) {
        assert_eq!(name, gname);
        let (net, die) = stepped_netlist(arch);
        let settings = TransientSettings::new(sim, dt).unwrap();
        let mut plan = TransientPlan::compile(&net, &settings).unwrap();
        let v = plan.run().unwrap().voltage(die);
        assert!(
            (TransientResult::settled_mean(v, TAIL) - mean).abs() < 1e-9,
            "{name}: settled mean {} vs golden {mean}",
            TransientResult::settled_mean(v, TAIL)
        );
        assert!(
            (TransientResult::settled_rms(v, TAIL) - rms).abs() < 1e-9,
            "{name}: settled RMS {} vs golden {rms}",
            TransientResult::settled_rms(v, TAIL)
        );
        assert!(
            (TransientResult::settled_ripple(v, TAIL) - ripple).abs() < 1e-9,
            "{name}: settled ripple {} vs golden {ripple}",
            TransientResult::settled_ripple(v, TAIL)
        );
    }
}

#[test]
fn golden_droop_per_architecture() {
    // (name, worst droop in volts, ΔI·|Z|_peak bound in volts). A1 and
    // both A3 buses share the below-die ladder, so their time-domain
    // droops coincide — the architectures differ upstream of the PDN.
    let goldens = [
        ("A0", 3.789391477218087, 66.141558697702934),
        ("A1", 0.161509011369071, 0.459140800915328),
        ("A2", 0.048000968443278, 0.141589030937983),
        ("A3-12", 0.161509011369071, 0.459140800915328),
        ("A3-6", 0.161509011369071, 0.459140800915328),
    ];
    let spec = SystemSpec::paper_default();
    let step = LoadStep::paper_default(&spec);
    let (sim, dt) = window();
    for ((name, arch), (gname, droop, bound)) in architectures().into_iter().zip(goldens) {
        assert_eq!(name, gname);
        let model = PdnModel::for_architecture(arch);
        let r = simulate_droop(&model, &step, sim, dt).unwrap();
        assert!(
            (r.droop.value() - droop).abs() < 1e-9,
            "{name}: droop {} vs golden {droop}",
            r.droop
        );
        assert!(
            (r.impedance_bound.value() - bound).abs() < 1e-9,
            "{name}: bound {} vs golden {bound}",
            r.impedance_bound
        );
        assert!((r.droop.value() - (r.v_before - r.v_min).value()).abs() < 1e-15);
    }
}

#[test]
fn plan_is_bitwise_identical_to_legacy_transient() {
    // The compiled plan replays the same ops the interpreter walks, so
    // every node voltage, element current, and sample time must match
    // the reference bit for bit — not approximately.
    let (sim, dt) = (
        Seconds::from_microseconds(20.0),
        Seconds::from_nanoseconds(20.0),
    );
    for (name, arch) in architectures() {
        let (net, _) = stepped_netlist(arch);
        let settings = TransientSettings::new(sim, dt).unwrap();
        let want = reference::transient(&net, &settings).unwrap();
        let mut plan = TransientPlan::compile(&net, &settings).unwrap();
        reference::assert_waveforms_bitwise(name, &net, plan.run().unwrap(), &want);
        // A second run of the same plan reproduces the same bits.
        let rerun = format!("{name} rerun");
        reference::assert_waveforms_bitwise(&rerun, &net, plan.run().unwrap(), &want);
    }
}

#[test]
fn restamped_plan_matches_a_rebuilt_netlist_bitwise() {
    // Sweeping the stimulus through `set_load_ramp` must be
    // indistinguishable from building a fresh netlist with the new
    // step — across amplitude, timing, and a return to the original.
    let spec = SystemSpec::paper_default();
    let base = LoadStep::paper_default(&spec);
    let (sim, dt) = (
        Seconds::from_microseconds(20.0),
        Seconds::from_nanoseconds(20.0),
    );
    let settings = TransientSettings::new(sim, dt).unwrap();

    let build = |step: &LoadStep| -> (Netlist, ElementId) {
        let (mut net, die) = PdnModel::for_architecture(Architecture::InterposerEmbedded)
            .netlist()
            .unwrap();
        let el = net
            .ramp_current_source(
                die,
                net.ground(),
                step.base,
                step.after,
                step.at,
                Seconds::ZERO,
            )
            .unwrap();
        let _ = die;
        (net, el)
    };
    let (net, el) = build(&base);
    let mut plan = TransientPlan::compile(&net, &settings).unwrap();
    let sweep = [
        base,
        LoadStep {
            after: base.after * 0.6,
            ..base
        },
        LoadStep {
            at: Seconds::from_microseconds(11.0),
            ..base
        },
        base,
    ];
    for step in &sweep {
        plan.set_load_ramp(el, step.base, step.after, step.at, Seconds::ZERO)
            .unwrap();
        let (fresh_net, _) = build(step);
        let fresh = reference::transient(&fresh_net, &settings).unwrap();
        let what = format!("restamp at {step:?}");
        reference::assert_waveforms_bitwise(&what, &fresh_net, plan.run().unwrap(), &fresh);
    }
    // The whole sweep shares one system matrix: nothing re-factored.
    assert_eq!(plan.cached_factorizations(), 1);
}

#[test]
fn reference_droops_worse_than_interposer_embedded() {
    // The paper's core time-domain claim: moving conversion under the
    // die (A2) beats board-level conversion (A0) by well over the 5%
    // supply budget, not by a rounding margin.
    let spec = SystemSpec::paper_default();
    let step = LoadStep::paper_default(&spec);
    let (sim, dt) = window();
    let a0 = simulate_droop(
        &PdnModel::for_architecture(Architecture::Reference),
        &step,
        sim,
        dt,
    )
    .unwrap();
    let a2 = simulate_droop(
        &PdnModel::for_architecture(Architecture::InterposerEmbedded),
        &step,
        sim,
        dt,
    )
    .unwrap();
    let budget = 0.05 * spec.pol_voltage().value();
    assert!(
        a0.droop.value() > 5.0 * a2.droop.value(),
        "A0 {} vs A2 {}",
        a0.droop,
        a2.droop
    );
    assert!(
        a0.droop.value() > budget,
        "A0 holds the budget: {}",
        a0.droop
    );
    assert!(
        a2.droop.value() < budget,
        "A2 busts the budget: {}",
        a2.droop
    );
}

/// A netlist exercising every element kind the plan compiles: PWM
/// switches, R, L, C, a voltage source, a constant current source, and
/// ramp sources with a zero rise (a load step) and a finite one.
fn full_coverage_netlist() -> (Netlist, vertical_power_delivery::circuit::NodeId) {
    let f = Hertz::from_megahertz(2.0);
    let mut net = Netlist::new();
    let vin = net.node("vin");
    let sw = net.node("sw");
    let out = net.node("out");
    net.voltage_source(vin, net.ground(), Volts::new(1.0))
        .unwrap();
    net.switch(
        vin,
        sw,
        Ohms::from_milliohms(5.0),
        Ohms::new(1e6),
        Some(PwmSchedule::new(f, 0.4, 0.0).unwrap()),
        SwitchState::Off,
    )
    .unwrap();
    net.switch(
        sw,
        net.ground(),
        Ohms::from_milliohms(5.0),
        Ohms::new(1e6),
        Some(PwmSchedule::new(f, 0.4, 0.0).unwrap().complementary()),
        SwitchState::On,
    )
    .unwrap();
    net.inductor(sw, out, Henries::from_microhenries(0.5), Amps::ZERO)
        .unwrap();
    net.capacitor(
        out,
        net.ground(),
        Farads::from_microfarads(4.0),
        Volts::ZERO,
    )
    .unwrap();
    net.resistor(out, net.ground(), Ohms::new(2.0)).unwrap();
    net.current_source(out, net.ground(), Amps::new(0.05))
        .unwrap();
    net.ramp_current_source(
        out,
        net.ground(),
        Amps::new(0.01),
        Amps::new(0.2),
        Seconds::from_microseconds(3.0),
        Seconds::ZERO,
    )
    .unwrap();
    net.ramp_current_source(
        out,
        net.ground(),
        Amps::new(0.0),
        Amps::new(0.1),
        Seconds::from_microseconds(5.0),
        Seconds::from_microseconds(1.0),
    )
    .unwrap();
    (net, out)
}

#[test]
fn plan_matches_legacy_bitwise_with_all_element_kinds() {
    let (net, _) = full_coverage_netlist();
    let settings = TransientSettings::new(
        Seconds::from_microseconds(8.0),
        Seconds::from_nanoseconds(25.0),
    )
    .unwrap();
    let want = reference::transient(&net, &settings).unwrap();
    let mut plan = TransientPlan::compile(&net, &settings).unwrap();
    reference::assert_waveforms_bitwise("first run", &net, plan.run().unwrap(), &want);
    // Two switch phases → exactly two cached configurations.
    assert_eq!(plan.cached_factorizations(), 2);
    // A second run re-factors zero times and reproduces the bits.
    reference::assert_waveforms_bitwise("second run", &net, plan.run().unwrap(), &want);
    assert_eq!(plan.cached_factorizations(), 2);
}

#[test]
fn plan_advance_streams_the_same_bits() {
    let (net, out) = full_coverage_netlist();
    let settings = TransientSettings::new(
        Seconds::from_microseconds(4.0),
        Seconds::from_nanoseconds(50.0),
    )
    .unwrap();
    let want = reference::transient(&net, &settings).unwrap();
    let mut plan = TransientPlan::compile(&net, &settings).unwrap();
    plan.start();
    let mut chunks = 0;
    loop {
        let n = plan.advance(17).unwrap();
        if n == 0 {
            break;
        }
        chunks += 1;
        assert!(plan.samples_done() <= plan.steps() + 1);
    }
    assert!(plan.finished());
    assert!(chunks > 1, "expected multiple chunks");
    assert_eq!(plan.samples_done(), plan.steps() + 1);
    reference::assert_waveforms_bitwise("streamed", &net, plan.result(), &want);
    assert_eq!(
        plan.result().voltage(out).len(),
        want.node_v[out.index()].len()
    );
}
