//! Workspace-level property tests: invariants that must hold across
//! arbitrary specifications, calibrations, and module counts.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;
use vertical_power_delivery::circuit::{ElementId, Netlist, NodeId, PwmSchedule, SwitchState};
use vertical_power_delivery::prelude::*;

/// A randomized RLC supply ladder with a PWM switch and a stepping
/// load: `stages` series R‖L sections from the 1 V source to the load
/// node, a decap at every intermediate node, and a switched bleed
/// branch at the load. Returns the netlist, the load node, and the
/// step source's element id (for plan restamping).
#[allow(clippy::too_many_arguments)]
fn random_ladder_with_step(
    stages: usize,
    r: f64,
    l: f64,
    c: f64,
    freq_mhz: f64,
    duty: f64,
    base: f64,
    after: f64,
    at_ns: f64,
) -> (Netlist, NodeId, ElementId) {
    let mut net = Netlist::new();
    let vin = net.node("n_in");
    net.voltage_source(vin, net.ground(), Volts::new(1.0))
        .unwrap();
    let mut prev = vin;
    for k in 0..stages {
        let node = net.node(&format!("n{k}"));
        net.resistor(prev, node, Ohms::new(r * (1.0 + k as f64 * 0.3)))
            .unwrap();
        net.inductor(prev, node, Henries::new(l), Amps::new(0.0))
            .unwrap();
        net.capacitor(node, net.ground(), Farads::new(c), Volts::new(1.0))
            .unwrap();
        prev = node;
    }
    let load = net.node("n_load");
    net.resistor(prev, load, Ohms::new(r)).unwrap();
    let schedule = PwmSchedule::new(Hertz::from_megahertz(freq_mhz), duty, 0.25).unwrap();
    net.switch(
        load,
        net.ground(),
        Ohms::new(0.5),
        Ohms::new(1.0e6),
        Some(schedule),
        SwitchState::Off,
    )
    .unwrap();
    let el = net
        .ramp_current_source(
            load,
            net.ground(),
            Amps::new(base),
            Amps::new(after),
            Seconds::from_nanoseconds(at_ns),
            Seconds::ZERO,
        )
        .unwrap();
    (net, load, el)
}

/// [`random_ladder_with_step`] with the default 25%-of-`after` base
/// load stepping at 500 ns.
fn random_ladder(
    stages: usize,
    r: f64,
    l: f64,
    c: f64,
    freq_mhz: f64,
    duty: f64,
    after: f64,
) -> (Netlist, NodeId, ElementId) {
    random_ladder_with_step(stages, r, l, c, freq_mhz, duty, after * 0.25, after, 500.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every feasible analysis keeps efficiency in (0, 1], decomposes
    /// additively, and has non-negative segments.
    #[test]
    fn prop_analysis_invariants(
        power in 200.0_f64..1200.0,
        density in 0.5_f64..3.0,
        arch_pick in 0_usize..4,
    ) {
        let spec = SystemSpec::new(
            Volts::new(48.0),
            Volts::new(1.0),
            Watts::new(power),
            CurrentDensity::from_amps_per_square_millimeter(density),
        ).unwrap();
        let calib = Calibration::paper_default();
        let arch = [
            Architecture::Reference,
            Architecture::InterposerPeriphery,
            Architecture::InterposerEmbedded,
            Architecture::TwoStage { bus: Volts::new(12.0) },
        ][arch_pick];
        if let Ok(report) = analyze(
            arch,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &AnalysisOptions::default(),
        ) {
            let b = &report.breakdown;
            let eta = b.end_to_end_efficiency().fraction();
            prop_assert!(eta > 0.0 && eta <= 1.0);
            for s in b.segments() {
                prop_assert!(s.power.value() >= 0.0, "{}: negative loss", s.name);
            }
            let parts = b.conversion_loss() + b.horizontal_loss()
                + b.vertical_loss() + b.grid_loss();
            prop_assert!(b.total().approx_eq(parts, 1e-9));
        }
    }

    /// Regulator sharing always conserves the POL current and every
    /// module sources non-negative current for physical module counts.
    #[test]
    fn prop_sharing_conserves(
        n_vrs in 4_usize..64,
        power in 200.0_f64..1500.0,
        placement_pick in 0_usize..2,
    ) {
        let spec = SystemSpec::new(
            Volts::new(48.0),
            Volts::new(1.0),
            Watts::new(power),
            CurrentDensity::from_amps_per_square_millimeter(2.0),
        ).unwrap();
        let calib = Calibration::paper_default();
        let placement = [VrPlacement::Periphery, VrPlacement::BelowDie][placement_pick];
        let rep = vertical_power_delivery::core::solve_sharing(
            &spec, &calib, placement, n_vrs).unwrap();
        let total: f64 = rep.per_vr().iter().map(|a| a.value()).sum();
        prop_assert!((total - power).abs() < 1e-3 * power,
            "sum {total} vs load {power}");
        prop_assert!(rep.per_vr().iter().all(|a| a.value() > -1e-6));
        prop_assert!(rep.grid_loss().value() >= 0.0);
    }

    /// The Monte-Carlo engine's thread count is unobservable: any
    /// worker count produces the bitwise-identical summary the serial
    /// run does, for any seed and architecture.
    #[test]
    fn prop_monte_carlo_thread_count_is_unobservable(
        threads in 2_usize..9,
        samples in 5_usize..14,
        seed in 0_u64..1000,
        arch_pick in 0_usize..3,
    ) {
        use vertical_power_delivery::core::{run_tolerance, McSettings};
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let arch = [
            Architecture::Reference,
            Architecture::InterposerPeriphery,
            Architecture::InterposerEmbedded,
        ][arch_pick];
        let settings = McSettings {
            samples,
            seed,
            threads: 1,
            ..McSettings::default()
        };
        let serial = run_tolerance(
            arch, VrTopologyKind::Dsch, &spec, &calib, &settings).unwrap();
        let parallel = run_tolerance(
            arch, VrTopologyKind::Dsch, &spec, &calib,
            &McSettings { threads, ..settings }).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// Converter curves: efficiency bounded and loss monotone in load
    /// above the peak point.
    #[test]
    fn prop_converter_curves_bounded(load in 1.0_f64..100.0) {
        let conv = Converter::dpmih_48v_to_1v();
        let eta = conv.efficiency(Amps::new(load)).unwrap().fraction();
        prop_assert!(eta > 0.5 && eta <= 1.0);
        let a_bit_more = (load * 1.1).min(100.0);
        let l1 = conv.loss(Amps::new(load)).unwrap().value();
        let l2 = conv.loss(Amps::new(a_bit_more)).unwrap().value();
        prop_assert!(l2 >= l1 - 1e-12);
    }

    /// Via allocation never exceeds its EM limit or its platform cap for
    /// any feasible current.
    #[test]
    fn prop_via_allocation_limits(current in 1.0_f64..1500.0) {
        use vertical_power_delivery::package::ViaAllocation;
        for tech in [InterconnectTech::TSV, InterconnectTech::CU_PAD] {
            if let Ok(alloc) = ViaAllocation::for_current(
                tech, Amps::new(current), tech.default_platform_area) {
                prop_assert!(
                    alloc.current_per_via().value()
                        <= tech.max_current_per_via().value() * (1.0 + 1e-9));
                prop_assert!(alloc.utilization() <= tech.power_site_cap + 1e-9);
            }
        }
    }

    /// The compiled transient plan is bitwise-identical to the reference
    /// interpreter on arbitrary RLC ladders with a PWM switch — same
    /// sample times, node voltages, and element currents, bit for bit.
    #[test]
    fn prop_transient_plan_matches_legacy_on_random_netlists(
        stages in 1_usize..4,
        r in 1e-3_f64..1e-1,
        l in 1e-10_f64..1e-8,
        c in 1e-8_f64..1e-6,
        freq_mhz in 1.0_f64..10.0,
        duty in 0.2_f64..0.8,
        after in 10.0_f64..400.0,
    ) {
        use vertical_power_delivery::circuit::{TransientPlan, TransientSettings};
        let (net, _, _) = random_ladder(stages, r, l, c, freq_mhz, duty, after);
        let settings = TransientSettings::new(
            Seconds::from_microseconds(1.0),
            Seconds::from_nanoseconds(5.0),
        ).unwrap();
        let want = reference::transient(&net, &settings).unwrap();
        let mut plan = TransientPlan::compile(&net, &settings).unwrap();
        reference::assert_waveforms_bitwise("first run", &net, plan.run().unwrap(), &want);
        // Replaying the compiled plan reproduces the same bits.
        reference::assert_waveforms_bitwise("replay", &net, plan.run().unwrap(), &want);
    }

    /// Restamping a compiled plan's load step is indistinguishable from
    /// rebuilding the netlist with the new stimulus, and never costs a
    /// new factorization.
    #[test]
    fn prop_restamped_plan_matches_rebuilt_netlist(
        stages in 1_usize..4,
        r in 1e-3_f64..1e-1,
        l in 1e-10_f64..1e-8,
        c in 1e-8_f64..1e-6,
        freq_mhz in 1.0_f64..10.0,
        duty in 0.2_f64..0.8,
        first in 10.0_f64..400.0,
        second in 10.0_f64..400.0,
        at_ns in 0.0_f64..900.0,
    ) {
        use vertical_power_delivery::circuit::{TransientPlan, TransientSettings};
        let settings = TransientSettings::new(
            Seconds::from_microseconds(1.0),
            Seconds::from_nanoseconds(5.0),
        ).unwrap();
        let (net, _, el) = random_ladder(stages, r, l, c, freq_mhz, duty, first);
        let mut plan = TransientPlan::compile(&net, &settings).unwrap();
        plan.run().unwrap();
        let factorizations = plan.cached_factorizations();
        plan.set_load_ramp(
            el,
            Amps::new(first * 0.25),
            Amps::new(second),
            Seconds::from_nanoseconds(at_ns),
            Seconds::ZERO,
        ).unwrap();
        // The rebuilt netlist carries the second stimulus from scratch.
        let (fresh, _, _) = random_ladder_with_step(
            stages, r, l, c, freq_mhz, duty,
            first * 0.25, second, at_ns,
        );
        let rebuilt = reference::transient(&fresh, &settings).unwrap();
        reference::assert_waveforms_bitwise("restamped", &fresh, plan.run().unwrap(), &rebuilt);
        prop_assert_eq!(plan.cached_factorizations(), factorizations);
    }

    /// The settled-statistics windows: the mean lies inside the tail's
    /// envelope, RMS dominates the mean, ripple is the tail's exact
    /// peak-to-peak span, and a full-width window reproduces the plain
    /// whole-series statistics.
    #[test]
    fn prop_settled_tail_invariants(
        series in proptest::collection::vec(-2.0_f64..2.0, 1..64),
        fraction in 0.01_f64..1.0,
    ) {
        use vertical_power_delivery::circuit::TransientResult;
        let mean = TransientResult::settled_mean(&series, fraction);
        let rms = TransientResult::settled_rms(&series, fraction);
        let ripple = TransientResult::settled_ripple(&series, fraction);
        let n = series.len();
        let start = ((1.0 - fraction) * n as f64) as usize;
        let tail = &series[start.min(n)..];
        if tail.is_empty() {
            // Tiny fraction of a tiny series: the empty window defines
            // all three statistics as exactly zero.
            prop_assert_eq!((mean, rms, ripple), (0.0, 0.0, 0.0));
        } else {
            let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mean >= lo - 1e-12 && mean <= hi + 1e-12);
            prop_assert!(rms + 1e-12 >= mean.abs(), "rms {rms} < |mean| {mean}");
            prop_assert!((ripple - (hi - lo)).abs() < 1e-12);
        }
        let full_mean = series.iter().sum::<f64>() / n as f64;
        prop_assert!(
            (TransientResult::settled_mean(&series, 1.0) - full_mean).abs() < 1e-12
        );
    }

    /// A faulted impedance profile computed by value-restamping the
    /// compiled AC plan is bitwise-identical to rebuilding the faulted
    /// PDN model from scratch and sweeping it fresh, for arbitrary
    /// fault scenarios and frequency grids.
    #[test]
    fn prop_faulted_ac_restamp_matches_scratch(
        arch_pick in 0_usize..3,
        k in 1_usize..4,
        seed in 0_u64..1000,
        fmin_khz in 1.0_f64..100.0,
        decades in 1.0_f64..5.0,
        points in 2_usize..12,
    ) {
        use vertical_power_delivery::core::{FaultImpedanceSweep, FaultScenario};
        let arch = [
            Architecture::InterposerPeriphery,
            Architecture::InterposerEmbedded,
            Architecture::TwoStage { bus: Volts::new(12.0) },
        ][arch_pick];
        let sweep = FaultImpedanceSweep::new(
            arch,
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
        ).unwrap();
        let scenario = FaultScenario::random_k(
            k, 1, seed, sweep.vr_count(), sweep.grid_side(),
        ).remove(0);
        let fmin = fmin_khz * 1e3;
        let span = points - 1;
        let freqs: Vec<Hertz> = (0..points)
            .map(|i| Hertz::new(fmin * 10f64.powf(decades * i as f64 / span as f64)))
            .collect();
        let restamped = sweep.profile(&scenario, &freqs).unwrap();
        let scratch = sweep
            .faulted_model(&scenario).unwrap()
            .impedance_profile(&freqs).unwrap();
        prop_assert_eq!(restamped.points, scratch, "{}", scenario.name);
    }

    /// Higher conversion-at-PCB voltage always reduces horizontal loss
    /// for the vertical architectures (the paper's core argument).
    #[test]
    fn prop_higher_bus_means_less_lateral_loss(
        bus_lo in 3.0_f64..8.0,
        factor in 1.5_f64..3.0,
    ) {
        let bus_hi = (bus_lo * factor).min(20.0);
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let opts = AnalysisOptions::default();
        let lateral = |bus: f64| {
            analyze(
                Architecture::TwoStage { bus: Volts::new(bus) },
                VrTopologyKind::Dsch,
                &spec, &calib, &opts,
            ).ok().map(|r| r.breakdown.horizontal_loss().value())
        };
        if let (Some(lo), Some(hi)) = (lateral(bus_lo), lateral(bus_hi)) {
            prop_assert!(hi <= lo + 1e-9,
                "bus {bus_lo:.1} V: {lo:.1} W vs bus {bus_hi:.1} V: {hi:.1} W");
        }
    }
}
