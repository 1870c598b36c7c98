//! Integration tests spanning crates: the circuit solver against the
//! packaging models, converter composition inside architecture
//! analysis, and consistency between the transient and DC engines.

use vertical_power_delivery::circuit::{
    DcSolver, Netlist, PwmSchedule, SwitchState, TransientPlan, TransientResult, TransientSettings,
};
use vertical_power_delivery::converters::MultiStageConverter;
use vertical_power_delivery::package::{LevelSpec, VerticalPath};
use vertical_power_delivery::prelude::*;

/// A vertical path built from Table I and solved as an actual circuit
/// must dissipate what the analytic allocation predicts.
#[test]
fn via_allocation_matches_circuit_solve() {
    let i = Amps::new(1000.0);
    let path =
        VerticalPath::resolve(&[LevelSpec::on_default_platform(InterconnectTech::CU_PAD, i)])
            .unwrap();
    let analytic = path.total_loss();

    // Same thing as a netlist: the effective level resistance carrying
    // 1 kA from a 1 V source.
    let r_eff = path.levels()[0].effective_resistance();
    let mut net = Netlist::new();
    let top = net.node("top");
    let die = net.node("die");
    net.voltage_source(top, net.ground(), Volts::new(1.0))
        .unwrap();
    let r_id = net.resistor(top, die, r_eff).unwrap();
    net.current_source(die, net.ground(), i).unwrap();
    let sol = DcSolver::new().solve(&net).unwrap();
    let circuit_loss = sol.dissipated_power(&net, r_id).unwrap();

    assert!(
        (circuit_loss.value() - analytic.value()).abs() < 1e-6 * analytic.value().max(1.0),
        "analytic {analytic} vs circuit {circuit_loss}"
    );
}

/// The A3 architecture's conversion loss is bracketed by stage-wise
/// bounds built from the same converter models: below by uniform
/// stage-2 sharing with a peak-efficiency stage 1, above by a generous
/// hotspot multiple of that bound.
#[test]
fn two_stage_architecture_consistent_with_multistage_converter() {
    let stage1 = Converter::dpmih_first_stage(Volts::new(12.0)).unwrap();
    let stage2 = Converter::dsch_second_stage(Volts::new(12.0)).unwrap();
    // MultiStageConverter composes the same curves (consistency check of
    // the converter layer itself). A single 20 A chain runs stage 1 at
    // only ~1.8 A — deep light load — so the composed efficiency is
    // merely sane here; the architecture recovers it by batching
    // stage-1 modules near their peak current.
    let chain = MultiStageConverter::new(vec![stage1.clone(), stage2.clone()]).unwrap();
    let chain_eta = chain.efficiency(Amps::new(20.0)).unwrap().fraction();
    assert!((0.5..0.95).contains(&chain_eta), "chain η {chain_eta:.2}");

    // Lower bound: 48 stage-2 modules sharing 1 kA uniformly, stage 1
    // batched at its peak-efficiency current.
    let per_module = Amps::new(1000.0 / 48.0);
    let loss2_uniform = stage2.loss(per_module).unwrap().value() * 48.0;
    let p1_out = 1000.0 + loss2_uniform;
    let eta1_best = stage1
        .efficiency(stage1.curve().peak_efficiency_current())
        .unwrap()
        .fraction();
    let loss1_min = p1_out * (1.0 / eta1_best - 1.0);
    let lower_bound = loss2_uniform + loss1_min;

    let (spec, calib, opts) = (
        SystemSpec::paper_default(),
        Calibration::paper_default(),
        AnalysisOptions::default(),
    );
    let report = analyze(
        Architecture::TwoStage {
            bus: Volts::new(12.0),
        },
        VrTopologyKind::Dsch,
        &spec,
        &calib,
        &opts,
    )
    .unwrap();
    let conv_loss = report.breakdown.conversion_loss().value();
    assert!(
        conv_loss >= lower_bound * 0.95,
        "hotspot sharing cannot beat the uniform bound: {conv_loss:.0} vs {lower_bound:.0}"
    );
    assert!(
        conv_loss <= lower_bound * 2.0,
        "hotspot penalty should stay bounded: {conv_loss:.0} vs {lower_bound:.0}"
    );
}

/// The switched transient engine and the efficiency-curve layer agree
/// on a buck stage: simulated conversion ratio equals the duty cycle.
#[test]
fn transient_buck_regulates_to_duty_ratio() {
    let duty = 1.0 / 12.0;
    let f = Hertz::from_megahertz(1.0);
    let mut net = Netlist::new();
    let vin = net.node("vin");
    let sw = net.node("sw");
    let out = net.node("out");
    net.voltage_source(vin, net.ground(), Volts::new(12.0))
        .unwrap();
    let pwm = PwmSchedule::new(f, duty, 0.0).unwrap();
    net.switch(
        vin,
        sw,
        Ohms::from_milliohms(1.0),
        Ohms::new(1e7),
        Some(pwm),
        SwitchState::Off,
    )
    .unwrap();
    net.switch(
        sw,
        net.ground(),
        Ohms::from_milliohms(1.0),
        Ohms::new(1e7),
        Some(pwm.complementary()),
        SwitchState::On,
    )
    .unwrap();
    net.inductor(sw, out, Henries::from_nanohenries(220.0), Amps::ZERO)
        .unwrap();
    net.capacitor(
        out,
        net.ground(),
        Farads::from_microfarads(47.0),
        Volts::ZERO,
    )
    .unwrap();
    net.resistor(out, net.ground(), Ohms::from_milliohms(100.0))
        .unwrap();
    let settings = TransientSettings::new(
        Seconds::from_microseconds(60.0),
        Seconds::from_nanoseconds(1.0),
    )
    .unwrap();
    let mut plan = TransientPlan::compile(&net, &settings).unwrap();
    let result = plan.run().unwrap();
    let v_out = TransientResult::settled_mean(result.voltage(out), 0.2);
    assert!(
        (v_out - 1.0).abs() < 0.08,
        "buck output {v_out:.3} V vs ideal 1.0 V"
    );
}

/// The sharing mesh conserves charge for every power map.
#[test]
fn sharing_conserves_current_across_power_maps() {
    let spec = SystemSpec::paper_default();
    for map in [
        PowerMap::Uniform,
        PowerMap::paper_hotspot(),
        PowerMap::SplitHalves { left_share: 0.8 },
    ] {
        let mut calib = Calibration::paper_default();
        calib.power_map = map;
        for placement in [VrPlacement::Periphery, VrPlacement::BelowDie] {
            let rep =
                vertical_power_delivery::core::solve_sharing(&spec, &calib, placement, 48).unwrap();
            let total: f64 = rep.per_vr().iter().map(|a| a.value()).sum();
            assert!((total - 1000.0).abs() < 0.5, "{placement}: {total:.2} A");
        }
    }
}

/// Spec scaling: halving POL power halves every absolute loss of the
/// proposed architectures except the horizontal I²R terms, which fall
/// 4x — verified through the public API.
#[test]
fn loss_scaling_with_power_is_physical() {
    let calib = Calibration::paper_default();
    let opts = AnalysisOptions::default();
    let mk = |p: f64| {
        SystemSpec::new(
            Volts::new(48.0),
            Volts::new(1.0),
            Watts::new(p),
            CurrentDensity::from_amps_per_square_millimeter(2.0),
        )
        .unwrap()
    };
    let full = analyze(
        Architecture::Reference,
        VrTopologyKind::Dsch,
        &mk(1000.0),
        &calib,
        &opts,
    )
    .unwrap();
    let half = analyze(
        Architecture::Reference,
        VrTopologyKind::Dsch,
        &mk(500.0),
        &calib,
        &opts,
    )
    .unwrap();
    let ratio_h =
        full.breakdown.horizontal_loss().value() / half.breakdown.horizontal_loss().value();
    assert!((ratio_h - 4.0).abs() < 0.2, "I²R scaling, got {ratio_h:.2}");
    let ratio_conv =
        full.breakdown.conversion_loss().value() / half.breakdown.conversion_loss().value();
    assert!(
        (1.8..2.6).contains(&ratio_conv),
        "conversion ≈ linear, got {ratio_conv:.2}"
    );
}
