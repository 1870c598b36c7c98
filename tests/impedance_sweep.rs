//! Cross-crate bitwise-determinism contracts for the frequency-domain
//! sweep engine: the compiled [`AcPlan`] path must reproduce the
//! reference AC analysis exactly, and the parallel engine must
//! reproduce the serial run exactly, on every architecture ladder.

#[path = "support/reference.rs"]
mod reference;

use vertical_power_delivery::circuit::{log_sweep, AcPlan, ElementId, Netlist, NodeId};
use vertical_power_delivery::core::{
    compare_architectures, ImpedanceSweep, ImpedanceSweepSettings, PdnModel,
};
use vertical_power_delivery::prelude::*;

/// The five PDN configurations of the paper's Figure 7.
const ARCHS: [Architecture; 5] = [
    Architecture::Reference,
    Architecture::InterposerPeriphery,
    Architecture::InterposerEmbedded,
    Architecture::TwoStage {
        bus: Volts::new(12.0),
    },
    Architecture::TwoStage {
        bus: Volts::new(6.0),
    },
];

fn settings() -> ImpedanceSweepSettings {
    ImpedanceSweepSettings {
        points: 72,
        ..ImpedanceSweepSettings::default()
    }
}

/// The compiled plan replays the reference analysis bitwise on every
/// ladder: same stamps, same factorization, same points.
#[test]
fn plan_is_bitwise_identical_to_analysis_on_every_ladder() {
    let freqs = settings().frequencies().unwrap();
    for arch in ARCHS {
        let model = PdnModel::for_architecture(arch);
        let (net, die) = model.netlist().unwrap();
        let reference = reference::impedance(&net, die, &freqs).unwrap();

        let mut plan = AcPlan::compile(&net);
        let fast = plan.impedance(die, &freqs).unwrap();
        assert_eq!(fast, reference, "{} plan vs analysis", arch.name());

        // A second pass through the same warm buffers must not drift.
        assert_eq!(
            plan.impedance(die, &freqs).unwrap(),
            reference,
            "{} warm pass",
            arch.name()
        );
    }
}

/// The sweep engine returns the same bitwise points at every thread
/// count, and matches the reference analysis.
#[test]
fn sweep_engine_is_thread_count_invariant() {
    let spec = SystemSpec::paper_default();
    let freqs = settings().frequencies().unwrap();
    for arch in ARCHS {
        let sweep = ImpedanceSweep::for_architecture(arch, &spec).unwrap();
        let serial = sweep.run_over(&freqs, 1).unwrap();
        for threads in [0, 2, 5] {
            let parallel = sweep.run_over(&freqs, threads).unwrap();
            assert_eq!(parallel, serial, "{} x{threads}", arch.name());
        }
        let (net, die) = PdnModel::for_architecture(arch).netlist().unwrap();
        let reference = reference::impedance(&net, die, &freqs).unwrap();
        assert_eq!(serial.points, reference, "{} vs analysis", arch.name());
    }
}

/// The comparison mode reproduces the per-architecture runs and the
/// paper's ordering: impedance falls as the regulator approaches the
/// die.
#[test]
fn comparison_mode_matches_individual_sweeps() {
    let spec = SystemSpec::paper_default();
    let settings = settings();
    let cmp = compare_architectures(&ARCHS, &spec, &settings).unwrap();
    assert_eq!(cmp.profiles.len(), ARCHS.len());
    let freqs = settings.frequencies().unwrap();
    for (arch, profile) in ARCHS.iter().zip(&cmp.profiles) {
        let solo = ImpedanceSweep::for_architecture(*arch, &spec)
            .unwrap()
            .run_over(&freqs, 1)
            .unwrap();
        assert_eq!(*profile, solo, "{}", arch.name());
    }
    assert!(cmp.profiles[0].peak.value() > cmp.profiles[1].peak.value());
    assert!(cmp.profiles[1].peak.value() > cmp.profiles[2].peak.value());
}

/// An A0-style RLC ladder: voltage source behind an RL, two decap
/// stages, a load node. Returns the netlist, the die node, the source,
/// and the series resistor.
fn ladder() -> (Netlist, NodeId, ElementId, ElementId) {
    let mut net = Netlist::new();
    let vr = net.node("vr");
    let board = net.node("board");
    let die = net.node("die");
    let g = net.ground();
    let src = net.voltage_source(vr, g, Volts::new(1.0)).unwrap();
    let series = net.resistor(vr, board, Ohms::from_milliohms(0.5)).unwrap();
    net.inductor(board, die, Henries::from_nanohenries(15.0), Amps::ZERO)
        .unwrap();
    let bulk = net.node("bulk");
    net.capacitor(board, bulk, Farads::from_microfarads(200.0), Volts::ZERO)
        .unwrap();
    net.resistor(bulk, g, Ohms::from_milliohms(0.2)).unwrap();
    net.capacitor(die, g, Farads::from_microfarads(2.0), Volts::ZERO)
        .unwrap();
    net.resistor(die, g, Ohms::new(1e4)).unwrap();
    (net, die, src, series)
}

#[test]
fn plan_impedance_is_bitwise_identical_to_analysis() {
    let (net, die, ..) = ladder();
    let freqs = log_sweep(Hertz::new(100.0), Hertz::new(1e9), 60);
    let reference = reference::impedance(&net, die, &freqs).unwrap();
    let mut plan = AcPlan::compile(&net);
    let fast = plan.impedance(die, &freqs).unwrap();
    assert_eq!(fast, reference);
    // A second pass through the same warm buffers must not drift.
    assert_eq!(plan.impedance(die, &freqs).unwrap(), reference);
}

#[test]
fn plan_transfer_is_bitwise_identical_to_analysis() {
    let (net, die, src, _) = ladder();
    let freqs = log_sweep(Hertz::new(100.0), Hertz::new(1e8), 30);
    let reference = reference::transfer(&net, src, die, &freqs).unwrap();
    let mut plan = AcPlan::compile(&net);
    assert_eq!(plan.transfer(src, die, &freqs).unwrap(), reference);
}

#[test]
fn plan_validation_matches_analysis() {
    let (net, die, _, series) = ladder();
    // An id from a larger copy of the netlist is foreign to it.
    let mut larger = net.clone();
    let foreign = larger
        .resistor(die, larger.ground(), Ohms::new(1.0))
        .unwrap();
    let mut plan = AcPlan::compile(&net);
    let at = |f: f64| [Hertz::new(f)];
    let cases = [
        (
            "ground node",
            plan.impedance_at(net.ground(), Hertz::new(1.0)),
            reference::impedance(&net, net.ground(), &at(1.0)),
        ),
        (
            "zero frequency",
            plan.impedance_at(die, Hertz::new(0.0)),
            reference::impedance(&net, die, &at(0.0)),
        ),
        (
            "NaN frequency",
            plan.impedance_at(die, Hertz::new(f64::NAN)),
            reference::impedance(&net, die, &at(f64::NAN)),
        ),
        (
            "resistor as source",
            plan.transfer_at(series, die, Hertz::new(1.0)),
            reference::transfer(&net, series, die, &at(1.0)),
        ),
        (
            "foreign element",
            plan.transfer_at(foreign, die, Hertz::new(1.0)),
            reference::transfer(&net, foreign, die, &at(1.0)),
        ),
    ];
    let expected = [
        "UnknownNode",
        "InvalidValue",
        "InvalidValue",
        "NotAVoltageSource",
        "UnknownElement",
    ];
    for ((what, got, want), variant) in cases.into_iter().zip(expected) {
        let got = format!("{:?}", got.expect_err(what));
        let want = format!("{:?}", want.expect_err(what));
        assert_eq!(got, want, "{what}: plan and analysis disagree");
        assert!(got.starts_with(variant), "{what}: {got}");
    }
}
