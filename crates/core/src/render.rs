//! [`Render`] implementations for the crate's report types: one JSON
//! rendering per report, shared by every front end. Result documents
//! wrap these with invocation context; text output is the view of the
//! finished document ([`Json::to_text`]).

use crate::droop::DroopReport;
use crate::droopsweep::{DroopSweepComparison, DroopSweepPoint, DroopSweepReport};
use crate::faultdyn::{FaultImpedanceReport, FaultTransientReport, SurvivalEnvelope};
use crate::faults::FaultSweepReport;
use crate::gridshare::SharingReport;
use crate::loss::LossBreakdown;
use crate::mc::McSummary;
use crate::zsweep::{ImpedanceComparison, ImpedanceProfile};
use vpd_report::{Json, Render};

impl Render for SharingReport {
    fn render_json(&self) -> Json {
        Json::obj([
            ("modules", Json::from(self.per_vr().len())),
            ("min_a", Json::from(self.min().value())),
            ("max_a", Json::from(self.max().value())),
            ("mean_a", Json::from(self.mean().value())),
            ("grid_loss_w", Json::from(self.grid_loss().value())),
            ("droop_loss_w", Json::from(self.droop_loss().value())),
            ("worst_drop_v", Json::from(self.worst_drop().value())),
            (
                "per_vr_a",
                Json::array(self.per_vr().iter().map(|a| Json::from(a.value()))),
            ),
        ])
    }
}

impl Render for DroopReport {
    fn render_json(&self) -> Json {
        Json::obj([
            ("v_before_v", Json::from(self.v_before.value())),
            ("v_min_v", Json::from(self.v_min.value())),
            ("droop_v", Json::from(self.droop.value())),
            (
                "impedance_bound_v",
                Json::from(self.impedance_bound.value()),
            ),
        ])
    }
}

fn sweep_point_json(p: &DroopSweepPoint) -> Json {
    Json::obj([
        ("after_a", Json::from(p.after.value())),
        ("rise_s", Json::from(p.rise.value())),
        ("v_before_v", Json::from(p.v_before.value())),
        ("v_min_v", Json::from(p.v_min.value())),
        ("droop_v", Json::from(p.droop.value())),
        ("settle_s", Json::from(p.settle.value())),
        ("violates", Json::from(p.violates)),
    ])
}

impl Render for DroopSweepReport {
    fn render_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("points", Json::from(self.points.len())),
            ("base_a", Json::from(self.base.value())),
            ("at_s", Json::from(self.at.value())),
            ("budget_v", Json::from(self.budget.value())),
            (
                "impedance_peak_ohm",
                Json::from(self.impedance_peak.value()),
            ),
            ("meets_budget", Json::from(self.meets_budget())),
            (
                "worst_droop",
                self.worst_droop().map_or(Json::Null, sweep_point_json),
            ),
            (
                "worst_settle",
                self.worst_settle().map_or(Json::Null, sweep_point_json),
            ),
            (
                "first_violation",
                self.first_violation().map_or(Json::Null, sweep_point_json),
            ),
            (
                "grid",
                Json::array(self.points.iter().map(sweep_point_json)),
            ),
        ])
    }
}

impl Render for DroopSweepComparison {
    fn render_json(&self) -> Json {
        Json::obj([(
            "architectures",
            Json::array(self.reports.iter().map(Render::render_json)),
        )])
    }
}

impl Render for LossBreakdown {
    fn render_json(&self) -> Json {
        Json::obj([
            ("pol_power_w", Json::from(self.pol_power().value())),
            ("total_loss_w", Json::from(self.total().value())),
            (
                "total_loss_percent",
                Json::from(self.percent_of_pol_power(self.total())),
            ),
            (
                "efficiency",
                Json::from(self.end_to_end_efficiency().fraction()),
            ),
            (
                "segments",
                Json::array(self.segments().iter().map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("power_w", Json::from(s.power.value())),
                        ("percent", Json::from(self.percent_of_pol_power(s.power))),
                    ])
                })),
            ),
        ])
    }
}

impl Render for McSummary {
    fn render_json(&self) -> Json {
        Json::obj([
            ("mean_percent", Json::from(self.mean)),
            ("std_dev_percent", Json::from(self.std_dev)),
            ("min_percent", Json::from(self.min)),
            ("p5_percent", Json::from(self.p5)),
            ("p95_percent", Json::from(self.p95)),
            ("max_percent", Json::from(self.max)),
        ])
    }
}

impl Render for FaultSweepReport {
    fn render_json(&self) -> Json {
        Json::obj([
            ("architecture", Json::from(self.architecture.name())),
            ("scenarios", Json::from(self.outcomes.len())),
            ("worst_drop_v", Json::from(self.worst_drop.value())),
            ("worst_scenario", Json::from(self.worst_scenario.as_str())),
            ("max_spread", Json::from(self.max_spread)),
            (
                "worst_surviving_a",
                Json::from(self.worst_surviving_current.value()),
            ),
            (
                "rating_a",
                self.rating.map_or(Json::Null, |r| Json::from(r.value())),
            ),
            ("margin", self.margin().map_or(Json::Null, Json::from)),
            ("fallback_count", Json::from(self.fallback_count)),
            ("stagnation_count", Json::from(self.stagnation_count)),
            (
                "overloaded_scenarios",
                Json::from(self.overloaded_scenarios),
            ),
        ])
    }
}

impl Render for ImpedanceProfile {
    fn render_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("points", Json::from(self.points.len())),
            ("target_ohm", Json::from(self.target.value())),
            ("peak_ohm", Json::from(self.peak.value())),
            ("peak_frequency_hz", Json::from(self.peak_frequency.value())),
            ("margin", self.margin().map_or(Json::Null, Json::from)),
            ("meets_target", Json::from(self.meets_target())),
            (
                "first_violation_hz",
                self.first_violation
                    .map_or(Json::Null, |f| Json::from(f.value())),
            ),
            (
                "antiresonances",
                Json::array(self.antiresonances.iter().map(|p| {
                    Json::obj([
                        ("frequency_hz", Json::from(p.frequency.value())),
                        ("magnitude_ohm", Json::from(p.magnitude())),
                    ])
                })),
            ),
            (
                "profile",
                Json::array(self.points.iter().map(|p| {
                    Json::obj([
                        ("frequency_hz", Json::from(p.frequency.value())),
                        ("magnitude_ohm", Json::from(p.magnitude())),
                        ("phase_deg", Json::from(p.phase_degrees())),
                    ])
                })),
            ),
        ])
    }
}

impl Render for ImpedanceComparison {
    fn render_json(&self) -> Json {
        Json::obj([(
            "architectures",
            Json::array(self.profiles.iter().map(|p| {
                Json::obj([
                    ("label", Json::from(p.label.as_str())),
                    ("peak_ohm", Json::from(p.peak.value())),
                    ("peak_frequency_hz", Json::from(p.peak_frequency.value())),
                    ("target_ohm", Json::from(p.target.value())),
                    ("margin", p.margin().map_or(Json::Null, Json::from)),
                    ("meets_target", Json::from(p.meets_target())),
                    (
                        "first_violation_hz",
                        p.first_violation
                            .map_or(Json::Null, |f| Json::from(f.value())),
                    ),
                ])
            })),
        )])
    }
}

impl Render for FaultImpedanceReport {
    fn render_json(&self) -> Json {
        Json::obj([
            ("architecture", Json::from(self.architecture.name())),
            ("target_ohm", Json::from(self.target.value())),
            ("nominal_peak_ohm", Json::from(self.nominal_peak.value())),
            ("worst_peak_ohm", Json::from(self.worst_peak.value())),
            ("worst_scenario", Json::from(self.worst_scenario.as_str())),
            ("worst_excess", Json::from(self.worst_excess())),
            ("violating_scenarios", Json::from(self.violating_scenarios)),
            (
                "outcomes",
                Json::array(self.outcomes.iter().map(|o| {
                    Json::obj([
                        ("name", Json::from(o.name.as_str())),
                        ("peak_ohm", Json::from(o.peak.value())),
                        ("peak_frequency_hz", Json::from(o.peak_frequency.value())),
                        (
                            "first_violation_hz",
                            o.first_violation
                                .map_or(Json::Null, |f| Json::from(f.value())),
                        ),
                        ("over_target", Json::from(o.over_target)),
                        ("excess", Json::from(o.excess)),
                    ])
                })),
            ),
        ])
    }
}

impl Render for FaultTransientReport {
    fn render_json(&self) -> Json {
        Json::obj([
            ("architecture", Json::from(self.architecture.name())),
            ("worst_droop_v", Json::from(self.worst_droop.value())),
            ("worst_scenario", Json::from(self.worst_scenario.as_str())),
            ("collapsed_scenarios", Json::from(self.collapsed_scenarios)),
            (
                "outcomes",
                Json::array(self.outcomes.iter().map(|o| {
                    Json::obj([
                        ("name", Json::from(o.name.as_str())),
                        (
                            "fail_at_s",
                            o.fail_at.map_or(Json::Null, |f| Json::from(f.value())),
                        ),
                        ("v_before_v", Json::from(o.v_before.value())),
                        ("v_min_v", Json::from(o.v_min.value())),
                        ("droop_v", Json::from(o.droop.value())),
                        ("v_end_v", Json::from(o.v_end.value())),
                        ("collapsed", Json::from(o.collapsed)),
                    ])
                })),
            ),
        ])
    }
}

impl Render for SurvivalEnvelope {
    fn render_json(&self) -> Json {
        Json::obj([
            ("architecture", Json::from(self.architecture.name())),
            ("survives", Json::from(self.survives)),
            ("droop_budget_v", Json::from(self.droop_budget.value())),
            ("scenarios", Json::from(self.outcomes.len())),
            ("converged", Json::from(self.converged)),
            ("capped", Json::from(self.capped)),
            ("diverged", Json::from(self.diverged)),
            ("worst_drop_v", Json::from(self.worst_drop.value())),
            (
                "worst_drop_scenario",
                Json::from(self.worst_drop_scenario.as_str()),
            ),
            (
                "peak_temperature_c",
                Json::from(self.peak_temperature.value()),
            ),
            (
                "peak_temperature_scenario",
                Json::from(self.peak_temperature_scenario.as_str()),
            ),
            (
                "overloaded_scenarios",
                Json::from(self.overloaded_scenarios),
            ),
            (
                "outcomes",
                Json::array(self.outcomes.iter().map(|o| {
                    Json::obj([
                        ("name", Json::from(o.name.as_str())),
                        ("termination", Json::from(o.termination.to_string())),
                        ("converged", Json::from(o.termination.converged())),
                        ("residual_k", Json::from(o.termination.residual_k())),
                        ("iterations", Json::from(o.iterations)),
                        ("worst_drop_v", Json::from(o.worst_drop.value())),
                        ("peak_temperature_c", Json::from(o.peak_temperature.value())),
                        (
                            "worst_module_temperature_c",
                            Json::from(o.worst_module_temperature.value()),
                        ),
                        ("derated_modules", Json::from(o.derated_modules)),
                        ("overloaded_modules", Json::from(o.overloaded_modules)),
                        ("within_rating", Json::from(o.within_rating)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_sharing, Calibration, SystemSpec, VrPlacement};

    #[test]
    fn sharing_report_renders_json() {
        let rep = solve_sharing(
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            VrPlacement::Periphery,
            48,
        )
        .unwrap();
        let json = rep.render_json().to_string();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"per_vr_a\":["), "{json}");
        match rep.render_json() {
            Json::Object(pairs) => {
                assert_eq!(pairs[0].0, "modules");
                assert!(matches!(pairs[0].1, Json::Int(48)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mc_summary_json_lists_every_statistic() {
        let s = McSummary {
            mean: 20.0,
            std_dev: 1.0,
            min: 18.0,
            max: 22.0,
            p5: 18.5,
            p95: 21.5,
        };
        let json = s.render_json().to_string();
        for key in [
            "mean_percent",
            "std_dev_percent",
            "min_percent",
            "p5_percent",
            "p95_percent",
            "max_percent",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }

    #[test]
    fn droop_sweep_report_renders_worst_cases_and_grid() {
        use crate::{compare_droop_architectures, Architecture, DroopSweepSettings};
        use vpd_units::Seconds;
        let spec = SystemSpec::paper_default();
        let cmp = compare_droop_architectures(
            &[Architecture::Reference, Architecture::InterposerEmbedded],
            &spec,
            Seconds::from_microseconds(20.0),
            Seconds::from_nanoseconds(100.0),
            &DroopSweepSettings::paper_default(&spec, 2, 2).unwrap(),
        )
        .unwrap();
        let a0 = &cmp.reports[0];
        let json = a0.render_json();
        let Some(Json::Array(grid)) = json.get("grid") else {
            panic!("grid array: {json}");
        };
        assert_eq!(grid.len(), a0.points.len());
        let json = json.to_string();
        assert!(json.contains("\"meets_budget\":false"), "{json}");
        assert!(json.contains("\"worst_droop\":{"), "{json}");

        let a2 = &cmp.reports[1];
        assert!(a2
            .render_json()
            .to_string()
            .contains("\"first_violation\":null"));

        let cmp_json = cmp.render_json().to_string();
        assert!(cmp_json.contains("\"architectures\":["), "{cmp_json}");
        assert!(
            cmp_json.contains("\"A0\"") && cmp_json.contains("\"A2\""),
            "{cmp_json}"
        );
    }

    #[test]
    fn fault_dynamic_reports_render_json() {
        use crate::faultdyn::{
            CascadeOutcome, FaultImpedanceOutcome, FaultImpedanceReport, FaultTransientOutcome,
            FaultTransientReport, SurvivalEnvelope,
        };
        use crate::{Architecture, FixedPointTermination, LoadStep};
        use vpd_units::{Celsius, Hertz, Ohms, Seconds, Volts};

        let imp = FaultImpedanceReport {
            architecture: Architecture::InterposerEmbedded,
            target: Ohms::new(200e-6),
            nominal_peak: Ohms::new(150e-6),
            outcomes: vec![
                FaultImpedanceOutcome {
                    name: "nominal".into(),
                    peak: Ohms::new(150e-6),
                    peak_frequency: Hertz::from_megahertz(1.0),
                    first_violation: None,
                    over_target: false,
                    excess: -0.25,
                },
                FaultImpedanceOutcome {
                    name: "n-1/000".into(),
                    peak: Ohms::new(230e-6),
                    peak_frequency: Hertz::from_megahertz(0.8),
                    first_violation: Some(Hertz::from_kilohertz(600.0)),
                    over_target: true,
                    excess: 0.15,
                },
            ],
            worst_peak: Ohms::new(230e-6),
            worst_scenario: "n-1/000".into(),
            violating_scenarios: 1,
        };
        let json = imp.render_json().to_string();
        assert!(json.contains("\"violating_scenarios\":1"), "{json}");
        assert!(json.contains("\"first_violation_hz\":null"), "{json}");
        assert!(json.contains("\"worst_scenario\":\"n-1/000\""), "{json}");

        let tr = FaultTransientReport {
            architecture: Architecture::InterposerEmbedded,
            step: LoadStep::paper_default(&SystemSpec::paper_default()),
            outcomes: vec![
                FaultTransientOutcome {
                    name: "nominal".into(),
                    fail_at: None,
                    v_before: Volts::new(0.999),
                    v_min: Volts::new(0.96),
                    droop: Volts::new(0.039),
                    v_end: Volts::new(0.998),
                    collapsed: false,
                },
                FaultTransientOutcome {
                    name: "fail@4.00us".into(),
                    fail_at: Some(Seconds::from_microseconds(4.0)),
                    v_before: Volts::new(0.999),
                    v_min: Volts::new(0.1),
                    droop: Volts::new(0.899),
                    v_end: Volts::new(0.1),
                    collapsed: true,
                },
            ],
            worst_droop: Volts::new(0.899),
            worst_scenario: "fail@4.00us".into(),
            collapsed_scenarios: 1,
        };
        let json = tr.render_json().to_string();
        assert!(json.contains("\"fail_at_s\":null"), "{json}");
        assert!(json.contains("\"collapsed_scenarios\":1"), "{json}");

        let env = SurvivalEnvelope {
            architecture: Architecture::InterposerPeriphery,
            droop_budget: Volts::new(0.05),
            outcomes: vec![
                CascadeOutcome {
                    name: "n-1/000".into(),
                    termination: FixedPointTermination::Converged { residual_k: 0.01 },
                    iterations: 3,
                    worst_drop: Volts::new(0.02),
                    peak_temperature: Celsius::new(96.0),
                    worst_module_temperature: Celsius::new(88.0),
                    derated_modules: 5,
                    overloaded_modules: 0,
                    within_rating: true,
                },
                CascadeOutcome {
                    name: "n-1/001".into(),
                    termination: FixedPointTermination::IterationCap { residual_k: 2.0 },
                    iterations: 16,
                    worst_drop: Volts::new(0.06),
                    peak_temperature: Celsius::new(140.0),
                    worst_module_temperature: Celsius::new(131.0),
                    derated_modules: 12,
                    overloaded_modules: 2,
                    within_rating: false,
                },
            ],
            converged: 1,
            capped: 1,
            diverged: 0,
            worst_drop: Volts::new(0.06),
            worst_drop_scenario: "n-1/001".into(),
            peak_temperature: Celsius::new(140.0),
            peak_temperature_scenario: "n-1/001".into(),
            overloaded_scenarios: 1,
            survives: false,
        };
        let json = env.render_json().to_string();
        assert!(json.contains("\"survives\":false"), "{json}");
        assert!(json.contains("\"converged\":1"), "{json}");
        assert!(json.contains("\"overloaded_scenarios\":1"), "{json}");
        assert!(json.contains("\"termination\":\"iteration cap"), "{json}");
    }

    #[test]
    fn impedance_profile_renders_points_and_verdict() {
        use crate::{compare_architectures, Architecture, ImpedanceSweepSettings};
        let spec = SystemSpec::paper_default();
        let settings = ImpedanceSweepSettings {
            points: 24,
            ..ImpedanceSweepSettings::default()
        };
        let cmp = compare_architectures(
            &[Architecture::Reference, Architecture::InterposerEmbedded],
            &spec,
            &settings,
        )
        .unwrap();
        let a0 = &cmp.profiles[0];
        let json = a0.render_json();
        let Some(Json::Array(profile)) = json.get("profile") else {
            panic!("profile array: {json}");
        };
        assert_eq!(profile.len(), a0.points.len());
        assert!(
            json.to_string().contains("\"meets_target\":false"),
            "{json}"
        );

        let a2 = &cmp.profiles[1];
        let json = a2.render_json().to_string();
        assert!(json.contains("\"meets_target\":true"), "{json}");
        assert!(json.contains("\"first_violation_hz\":null"), "{json}");

        let cmp_json = cmp.render_json().to_string();
        assert!(cmp_json.contains("\"architectures\":["), "{cmp_json}");
        assert!(
            cmp_json.contains("\"A0\"") && cmp_json.contains("\"A2\""),
            "{cmp_json}"
        );
    }
}
