//! Scenario-document integration tests.
//!
//! Three contracts from the `.vpd` subsystem are pinned here:
//!
//! 1. **Golden bitwise identity** — each checked-in builtin document
//!    compiles to exactly the structs the hardcoded constructors
//!    build, so every engine result (loss breakdown, sharing,
//!    impedance, droop, fault sweeps) computed from a document equals
//!    the hardcoded-path result bit for bit.
//! 2. **Round-trip stability** — render → parse is the identity on
//!    documents and render is idempotent on text, over both the
//!    builtins and randomized valid documents.
//! 3. **Diagnostics** — every file in `scenarios/bad/` fails with the
//!    stable error code named by its filename, at the exact source
//!    line/column, with the dotted field path.

use std::fs;
use std::path::Path;

use proptest::prelude::*;
use vertical_power_delivery::converters::VrTopologyKind;
use vertical_power_delivery::core::{
    analyze, simulate_droop, solve_sharing, target_impedance, AnalysisOptions, Architecture,
    Calibration, FaultScenario, FaultSweep, LoadStep, PdnModel, SystemSpec, VrPlacement,
};
use vertical_power_delivery::scenario::{
    builtin_doc, builtin_docs, ScenarioDoc, BUILTIN_NAMES, MAX_FAULT_COUNT, MAX_FAULT_DRAWS,
    MAX_FAULT_K,
};
use vertical_power_delivery::units::{Seconds, Volts};

fn scenarios_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// The hardcoded architecture each builtin name stands for.
fn hardcoded(name: &str) -> Architecture {
    match name {
        "a0" => Architecture::Reference,
        "a1" => Architecture::InterposerPeriphery,
        "a2" => Architecture::InterposerEmbedded,
        "a3-12" => Architecture::TwoStage {
            bus: Volts::new(12.0),
        },
        "a3-6" => Architecture::TwoStage {
            bus: Volts::new(6.0),
        },
        other => panic!("unknown builtin {other}"),
    }
}

// ---------------------------------------------------------------------
// 1. Golden bitwise identity for the five builtins.
// ---------------------------------------------------------------------

#[test]
fn builtin_documents_compile_to_the_hardcoded_structs_bitwise() {
    for (name, text) in builtin_docs() {
        let doc = ScenarioDoc::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sc = doc.compile().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sc.name, name);
        assert_eq!(sc.architecture, hardcoded(name), "{name}");
        assert_eq!(sc.topology, VrTopologyKind::Dsch, "{name}");
        // Bitwise: the compiled spec/calibration/options are EXACTLY
        // the paper defaults, not approximately.
        assert_eq!(sc.spec, SystemSpec::paper_default(), "{name} spec");
        assert_eq!(
            sc.calibration,
            Calibration::paper_default(),
            "{name} calibration"
        );
        assert_eq!(sc.options, AnalysisOptions::default(), "{name} options");
        assert!(sc.converter.is_none(), "{name} has no [converter]");
        assert!(sc.techs.is_empty(), "{name} has no [tech.*]");
        assert!(sc.faults.is_none(), "{name} has no [faults]");
    }
}

#[test]
fn builtin_analysis_results_match_the_hardcoded_path_bitwise() {
    let spec = SystemSpec::paper_default();
    let calib = Calibration::paper_default();
    let opts = AnalysisOptions::default();
    for (name, text) in builtin_docs() {
        let sc = ScenarioDoc::parse(text).unwrap().compile().unwrap();
        let from_doc = analyze(
            sc.architecture,
            sc.topology,
            &sc.spec,
            &sc.calibration,
            &sc.options,
        )
        .unwrap();
        let from_code =
            analyze(hardcoded(name), VrTopologyKind::Dsch, &spec, &calib, &opts).unwrap();
        assert_eq!(from_doc.breakdown, from_code.breakdown, "{name} breakdown");
        assert_eq!(from_doc.sharing, from_code.sharing, "{name} sharing");
        assert_eq!(from_doc.overloaded, from_code.overloaded, "{name}");
        assert_eq!(from_doc.utilization, from_code.utilization, "{name}");
    }
}

#[test]
fn builtin_sharing_and_impedance_match_the_hardcoded_path_bitwise() {
    let spec = SystemSpec::paper_default();
    let calib = Calibration::paper_default();
    for (name, text) in builtin_docs() {
        let sc = ScenarioDoc::parse(text).unwrap().compile().unwrap();
        let arch = hardcoded(name);
        // Current sharing through the document's placement and the
        // paper module count.
        let n = 48;
        let from_doc = solve_sharing(&sc.spec, &sc.calibration, sc.placement, n).unwrap();
        let placement = match arch {
            Architecture::InterposerEmbedded => VrPlacement::BelowDie,
            _ => VrPlacement::Periphery,
        };
        let from_code = solve_sharing(&spec, &calib, placement, n).unwrap();
        assert_eq!(from_doc, from_code, "{name} sharing");
        // PDN impedance: same architecture value → same ladder → same
        // peak, and the target-impedance budget from the compiled spec
        // equals the hardcoded one.
        let z_doc = PdnModel::for_architecture(sc.architecture)
            .peak_impedance()
            .unwrap();
        let z_code = PdnModel::for_architecture(arch).peak_impedance().unwrap();
        assert_eq!(z_doc, z_code, "{name} peak impedance");
        assert_eq!(
            target_impedance(&sc.spec, 0.05, 0.5),
            target_impedance(&spec, 0.05, 0.5),
            "{name} target impedance"
        );
    }
}

#[test]
fn builtin_droop_transient_matches_the_hardcoded_path_bitwise() {
    let spec = SystemSpec::paper_default();
    let sc = ScenarioDoc::parse(builtin_doc("a2").unwrap())
        .unwrap()
        .compile()
        .unwrap();
    let sim = Seconds::from_microseconds(8.0);
    let dt = Seconds::from_nanoseconds(20.0);
    let from_doc = simulate_droop(
        &PdnModel::for_architecture(sc.architecture),
        &LoadStep::paper_default(&sc.spec),
        sim,
        dt,
    )
    .unwrap();
    let from_code = simulate_droop(
        &PdnModel::for_architecture(Architecture::InterposerEmbedded),
        &LoadStep::paper_default(&spec),
        sim,
        dt,
    )
    .unwrap();
    assert_eq!(from_doc, from_code);
}

#[test]
fn builtin_fault_sweep_matches_the_hardcoded_path_bitwise() {
    let spec = SystemSpec::paper_default();
    let calib = Calibration::paper_default();
    let sc = ScenarioDoc::parse(builtin_doc("a2").unwrap())
        .unwrap()
        .compile()
        .unwrap();
    let from_doc =
        FaultSweep::new(sc.architecture, sc.topology, &sc.spec, &sc.calibration).unwrap();
    let from_code = FaultSweep::new(
        Architecture::InterposerEmbedded,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
    )
    .unwrap();
    assert_eq!(from_doc.vr_count(), from_code.vr_count());
    // A truncated N−1 ladder keeps the debug-build runtime sane while
    // still exercising faulted grid solves end to end.
    let scenarios: Vec<FaultScenario> = FaultScenario::n_minus_1(from_doc.vr_count())
        .into_iter()
        .take(6)
        .collect();
    let rep_doc = from_doc.run(&scenarios, 0).unwrap();
    let rep_code = from_code.run(&scenarios, 0).unwrap();
    assert_eq!(rep_doc, rep_code);
}

// ---------------------------------------------------------------------
// 2. Round-trip stability.
// ---------------------------------------------------------------------

#[test]
fn builtins_roundtrip_bitwise_and_hash_distinctly() {
    let mut hashes = Vec::new();
    for (name, text) in builtin_docs() {
        let doc = ScenarioDoc::parse(text).unwrap();
        let rendered = doc.render();
        let reparsed = ScenarioDoc::parse(&rendered)
            .unwrap_or_else(|e| panic!("{name}: rendered text must reparse: {e}"));
        assert_eq!(reparsed, doc, "{name}: render → parse is the identity");
        assert_eq!(reparsed.render(), rendered, "{name}: render is idempotent");
        hashes.push(doc.content_hash());
    }
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), BUILTIN_NAMES.len(), "hashes are distinct");
}

#[test]
fn checked_in_files_match_the_embedded_builtins() {
    for name in BUILTIN_NAMES {
        let on_disk = fs::read_to_string(scenarios_dir().join(format!("{name}.vpd"))).unwrap();
        assert_eq!(on_disk, builtin_doc(name).unwrap(), "{name}.vpd");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized valid documents round-trip: parse → render → parse
    /// is the identity, the canonical render is idempotent, and the
    /// content hash is spelling-invariant under re-rendering.
    #[test]
    fn prop_random_documents_roundtrip_bitwise(
        arch_pick in 0_usize..5,
        topo_pick in 0_usize..3,
        power in 100.0_f64..3000.0,
        density in 0.2_f64..5.0,
        sheet_mohm in 0.05_f64..2.0,
        nodes in 5_usize..40,
        sigma in 0.02_f64..0.5,
        floor in 0.0_f64..1.0,
        extras in 0_usize..4,
    ) {
        let arch = ["a0", "a1", "a2", "a3-12", "a3-6"][arch_pick];
        let topo = ["dsch", "dpmih", "3lhd"][topo_pick];
        let mut text = format!(
            "[scenario]\narchitecture = \"{arch}\"\ntopology = \"{topo}\"\n\
             \n[spec]\npower_w = {power}\ndensity_a_mm2 = {density}\n\
             \n[calibration]\ngrid_sheet_mohm = {sheet_mohm}\n\
             grid_nodes_per_side = {nodes}\n\
             \n[load]\nmap = \"gaussian\"\nsigma = {sigma}\nfloor = {floor}\n"
        );
        if extras & 1 != 0 {
            // The converters crate's own feasible anchor fixture.
            text.push_str(
                "\n[converter]\nv_out = 1\ni_peak = 30\neta_peak = 0.9\n\
                 i_max = 100\neta_max = 0.86\n",
            );
        }
        if extras & 2 != 0 {
            text.push_str("\n[faults]\nmode = \"random-k\"\nk = 2\ncount = 7\nseed = 11\n");
        }
        let doc = ScenarioDoc::parse(&text).unwrap();
        let rendered = doc.render();
        let reparsed = ScenarioDoc::parse(&rendered).unwrap();
        prop_assert_eq!(&reparsed, &doc);
        prop_assert_eq!(reparsed.render(), rendered.clone());
        prop_assert_eq!(reparsed.content_hash(), doc.content_hash());
        // Compilation succeeds on every valid document.
        let sc = doc.compile().unwrap();
        prop_assert_eq!(sc.architecture, hardcoded(arch));
    }
}

// ---------------------------------------------------------------------
// 3. The negative corpus: stable codes, exact positions, field paths.
// ---------------------------------------------------------------------

/// Expected diagnostic per corpus file: (stem == code, line, column,
/// dotted field path).
const BAD_CORPUS: [(&str, usize, usize, &str); 9] = [
    ("bad-enum", 3, 12, "scenario.topology"),
    ("bad-value", 5, 11, "spec.power_w"),
    ("duplicate-key", 4, 1, "scenario.topology"),
    ("inconsistent", 3, 1, "scenario.bus_v"),
    ("missing-key", 1, 1, "scenario.architecture"),
    ("out-of-range", 5, 19, "calibration.grid_sheet_mohm"),
    ("syntax", 3, 1, "document"),
    ("unknown-key", 5, 1, "calibration.grid_sheet_mohms"),
    ("unknown-section", 4, 1, "thermals"),
];

#[test]
fn bad_corpus_fails_with_named_codes_at_exact_positions() {
    for (stem, line, column, field) in BAD_CORPUS {
        let path = scenarios_dir().join("bad").join(format!("{stem}.vpd"));
        let text = fs::read_to_string(&path).unwrap();
        let err = ScenarioDoc::parse(&text).expect_err(&format!("{stem}.vpd must be rejected"));
        assert_eq!(err.code.as_str(), stem, "{stem}.vpd code");
        assert_eq!(
            (err.line, err.column),
            (line, column),
            "{stem}.vpd position"
        );
        assert_eq!(err.field, field, "{stem}.vpd field path");
        // The Display form is the stable CLI/serve diagnostic shape.
        let shown = err.to_string();
        assert!(
            shown.starts_with(&format!("error[{stem}] at {line}:{column}: {field}: ")),
            "{stem}.vpd display: {shown}"
        );
    }
}

#[test]
fn fault_draws_are_capped_at_the_wires_ceiling() {
    let doc = |k: usize, count: usize| {
        format!(
            "[scenario]\narchitecture = \"a2\"\n\n[faults]\nmode = \"random-k\"\n\
             k = {k}\ncount = {count}\n"
        )
    };
    // Every k = 1 sweep stays legal, and k × count may reach the ceiling.
    ScenarioDoc::parse(&doc(1, MAX_FAULT_COUNT)).unwrap();
    ScenarioDoc::parse(&doc(MAX_FAULT_K, MAX_FAULT_DRAWS / MAX_FAULT_K)).unwrap();
    let err = ScenarioDoc::parse(&doc(MAX_FAULT_K, MAX_FAULT_DRAWS / MAX_FAULT_K + 1))
        .expect_err("k × count above the ceiling must be rejected");
    assert_eq!(err.code.as_str(), "out-of-range");
    assert_eq!(err.field, "faults.count");
    assert_eq!((err.line, err.column), (7, 9));
}

#[test]
fn bad_corpus_is_exhaustive_over_the_error_codes() {
    // One corpus file per ScenarioErrorCode variant, no strays.
    let mut stems: Vec<String> = fs::read_dir(scenarios_dir().join("bad"))
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            assert_eq!(p.extension().and_then(|s| s.to_str()), Some("vpd"), "{p:?}");
            p.file_stem().unwrap().to_str().unwrap().to_string()
        })
        .collect();
    stems.sort();
    let mut expected: Vec<String> = BAD_CORPUS.iter().map(|c| c.0.to_string()).collect();
    expected.sort();
    assert_eq!(stems, expected);
}
