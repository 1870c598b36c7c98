//! Monte-Carlo tolerance analysis: how robust are the Figure 7
//! conclusions to uncertainty in the calibrated resistances and the
//! converter curves?
//!
//! The sweep is built for throughput and reproducibility at once:
//!
//! * A sample moves only two things the die grid reads: the sheet
//!   resistance of every mesh edge and the droop of every module. The
//!   session's nominal regulator response answers exactly that question
//!   with one small dense solve
//!   ([`vpd_circuit::RegulatorResponse::solve_uniform`]), so a sample
//!   costs no restamp, no mesh solve and no session clone. The response
//!   is built on a session's first run and kept while the nominal grid
//!   inputs stay bit-identical.
//! * A sample the response cannot answer (a mesh above its size cap, an
//!   update its guard refuses) takes the restamp path: a per-worker clone
//!   of the session's solver restamps its values and warm-starts from
//!   the **anchored** nominal solution, so its result depends only on
//!   its own perturbed calibration, never on which sample ran before it.
//! * Every sample draws from its own RNG stream derived from
//!   `(seed, sample index)`, and the route a sample takes depends on its
//!   draws alone.
//!
//! Together those make the parallel run ([`McSettings::threads`])
//! bitwise-identical to the serial one for the same seed.

use crate::arch::{AnalysisOptions, AnalysisSession, Architecture, ArchitectureReport};
use crate::par::par_map_with;
use crate::{Calibration, CoreError, SystemSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpd_converters::VrTopologyKind;
use vpd_units::Ohms;

/// Monte-Carlo settings.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct McSettings {
    /// Number of samples.
    pub samples: usize,
    /// Relative tolerance on every calibrated resistance (uniform
    /// `±tol`).
    pub resistance_tolerance: f64,
    /// Relative tolerance on the conversion-loss magnitude.
    pub conversion_tolerance: f64,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Worker threads (0 = auto). Any value yields bitwise-identical
    /// summaries for the same seed.
    pub threads: usize,
}

impl Default for McSettings {
    fn default() -> Self {
        Self {
            samples: 200,
            resistance_tolerance: 0.20,
            conversion_tolerance: 0.10,
            seed: 0x5eed,
            threads: 0,
        }
    }
}

/// Distribution summary of total-loss percent over the samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct McSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// 5th percentile (linearly interpolated).
    pub p5: f64,
    /// 95th percentile (linearly interpolated).
    pub p95: f64,
}

impl McSummary {
    fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // Linear interpolation between closest ranks (the "C = 1"
        // definition, numpy's default), not nearest-rank: a percentile
        // of a small sample set should move continuously with q.
        let pick = |q: f64| {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        };
        Self {
            mean,
            std_dev: var.sqrt(),
            min: xs[0],
            max: xs[n - 1],
            p5: pick(0.05),
            p95: pick(0.95),
        }
    }
}

fn perturb(r: Ohms, rng: &mut StdRng, tol: f64) -> Ohms {
    r * (1.0 + rng.gen_range(-tol..=tol))
}

/// The RNG stream for one sample: a SplitMix64-style avalanche over
/// `(seed, index)`, so consecutive indices give decorrelated streams and
/// a sample's draws never depend on how work was divided among threads.
pub(crate) fn sample_rng(seed: u64, index: usize) -> StdRng {
    let mut z = seed.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// One sample's draws from its own RNG stream: the perturbed
/// calibration, then the conversion-loss factor.
struct Draw {
    calib: Calibration,
    conv_factor: f64,
}

impl Draw {
    fn new(base: &Calibration, settings: &McSettings, index: usize) -> Self {
        let mut rng = sample_rng(settings.seed, index);
        let rt = settings.resistance_tolerance;
        let calib = Calibration {
            horizontal_pol_resistance: perturb(base.horizontal_pol_resistance, &mut rng, rt),
            horizontal_hv_resistance: perturb(base.horizontal_hv_resistance, &mut rng, rt),
            interposer_bus_resistance: perturb(base.interposer_bus_resistance, &mut rng, rt),
            grid_sheet_resistance: perturb(base.grid_sheet_resistance, &mut rng, rt),
            vr_droop_periphery: perturb(base.vr_droop_periphery, &mut rng, rt),
            vr_droop_below_die: perturb(base.vr_droop_below_die, &mut rng, rt),
            ..*base
        };
        let ct = settings.conversion_tolerance;
        let conv_factor = 1.0 + rng.gen_range(-ct..=ct);
        Self { calib, conv_factor }
    }

    /// The sample's total loss as percent of the POL power, with the
    /// conversion-curve uncertainty applied as a multiplicative factor on
    /// the conversion share of the total.
    fn loss_percent(&self, report: &ArchitectureReport) -> f64 {
        let b = &report.breakdown;
        let loss = b.total().value() + b.conversion_loss().value() * (self.conv_factor - 1.0);
        100.0 * loss / b.pol_power().value()
    }
}

/// Runs the tolerance analysis for one configuration, returning the
/// loss-percent distribution summary.
///
/// The summary is a pure function of the configuration and
/// `settings.seed`: neither `settings.threads` nor the host's core count
/// changes a single bit of it.
///
/// # Errors
///
/// Propagates the first analysis failure (a nominal-feasible
/// configuration stays feasible under resistance perturbation, so
/// failures indicate a genuinely infeasible configuration).
pub fn run_tolerance(
    architecture: Architecture,
    topology: VrTopologyKind,
    spec: &SystemSpec,
    base: &Calibration,
    settings: &McSettings,
) -> Result<McSummary, CoreError> {
    let opts = AnalysisOptions::default();
    let mut session = AnalysisSession::new(architecture, spec, base, &opts)?;
    run_tolerance_with(&mut session, topology, base, settings)
}

/// [`run_tolerance`] over a caller-provided session, letting a compiled
/// grid plan and its nominal regulator response be amortized across runs
/// (the serve-layer scenario cache).
///
/// The summary is bitwise-identical to [`run_tolerance`] for the same
/// configuration whether the session is freshly built or reused: a
/// stored response is reused only when it was built from bit-identical
/// nominal grid inputs, and when some sample takes the restamp path the
/// nominal point is re-solved and re-anchored here, where a warm
/// re-solve of an identical system converges at iteration zero to the
/// anchored solution, so every sample starts from the same point either
/// way.
///
/// # Errors
///
/// As for [`run_tolerance`].
pub fn run_tolerance_with(
    session: &mut AnalysisSession,
    topology: VrTopologyKind,
    base: &Calibration,
    settings: &McSettings,
) -> Result<McSummary, CoreError> {
    let _span = vpd_obs::span("mc.run_ns");
    let timer = vpd_obs::is_enabled().then(std::time::Instant::now);
    let (samples, lowrank) = sample_losses(session, topology, base, settings)?;
    // Accounting only: recorded after all samples are computed, so the
    // summary bits cannot depend on whether metrics are enabled.
    vpd_obs::incr("mc.runs");
    vpd_obs::add("mc.samples", samples.len() as u64);
    vpd_obs::add("mc.lowrank_samples", lowrank as u64);
    vpd_obs::add("mc.lowrank_fallbacks", (samples.len() - lowrank) as u64);
    if let Some(start) = timer {
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            vpd_obs::gauge_set("mc.samples_per_sec", samples.len() as f64 / secs);
        }
    }
    Ok(McSummary::from_samples(samples))
}

/// Every sample's loss percent, in sample order, and how many samples
/// the nominal regulator response answered.
fn sample_losses(
    session: &mut AnalysisSession,
    topology: VrTopologyKind,
    base: &Calibration,
    settings: &McSettings,
) -> Result<(Vec<f64>, usize), CoreError> {
    // The nominal point's errors come first, in a nominal analysis's
    // order: capacity before any grid work, then feasibility and
    // overload, answered from the response when there is one.
    session.check_capacity(topology)?;
    session.prepare_response(base)?;
    let nominal = session.analyze_uniform(topology, base)?;
    let draws: Vec<Draw> = (0..settings.samples)
        .map(|i| Draw::new(base, settings, i))
        .collect();
    let uniform = {
        let session = &*session;
        par_map_with(settings.threads, &draws, &(), |(), draw| {
            session
                .analyze_uniform(topology, &draw.calib)
                .map(|report| report.map(|r| draw.loss_percent(&r)))
        })
    };
    let restamp: Vec<&Draw> = draws
        .iter()
        .zip(&uniform)
        .filter(|(_, answer)| matches!(answer, Ok(None)))
        .map(|(draw, _)| draw)
        .collect();
    // Only restamp-path samples read the solved nominal point: they
    // warm-start from its anchored solution, so per-sample results are
    // independent of sample order and worker assignment. Without them,
    // no CG solve and no solver clone.
    if nominal.is_none() || !restamp.is_empty() {
        session.analyze(topology, base)?;
        session.anchor();
    }
    let session = &*session;
    let mut restamped = if restamp.is_empty() {
        Vec::new()
    } else {
        par_map_with(
            settings.threads,
            &restamp,
            session.solver(),
            |solver, draw| {
                session
                    .analyze_on(solver, topology, &draw.calib)
                    .map(|r| draw.loss_percent(&r))
            },
        )
    }
    .into_iter();
    let mut losses = Vec::with_capacity(draws.len());
    for answer in uniform {
        losses.push(match answer? {
            Some(loss) => loss,
            None => restamped.next().expect("one result per restamped sample")?,
        });
    }
    Ok((losses, draws.len() - restamp.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_units::Watts;

    fn summary(arch: Architecture) -> McSummary {
        run_tolerance(
            arch,
            VrTopologyKind::Dsch,
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            &McSettings {
                samples: 60,
                ..McSettings::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn distributions_bracket_the_nominal() {
        let a0 = summary(Architecture::Reference);
        assert!(a0.min < 43.3 && 43.3 < a0.max, "{a0:?}");
        assert!(a0.p5 <= a0.mean && a0.mean <= a0.p95);
        assert!(a0.std_dev > 0.2, "resistance tolerance must show up");
    }

    #[test]
    fn conclusion_is_robust_a0_always_worst() {
        // Even at the 5th/95th percentiles, A0 loses to A1 — the paper's
        // headline conclusion survives the tolerances.
        let a0 = summary(Architecture::Reference);
        let a1 = summary(Architecture::InterposerPeriphery);
        assert!(a0.p5 > a1.p95, "A0 p5 {:.1} vs A1 p95 {:.1}", a0.p5, a1.p95);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let a = summary(Architecture::InterposerEmbedded);
        let b = summary(Architecture::InterposerEmbedded);
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_interpolate_linearly() {
        // 11 equally spaced values 0..=10: the interpolated p5 sits at
        // rank 0.5 and p95 at rank 9.5 — nearest-rank would snap both to
        // the adjacent integers.
        let s = McSummary::from_samples((0..11).map(f64::from).collect());
        assert!((s.p5 - 0.5).abs() < 1e-12, "p5 {}", s.p5);
        assert!((s.p95 - 9.5).abs() < 1e-12, "p95 {}", s.p95);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (0.0, 10.0));
    }

    #[test]
    fn direct_mode_sessions_match_warm_cg_and_stay_deterministic() {
        use vpd_circuit::DcPlanMode;
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let arch = Architecture::InterposerEmbedded;
        let topo = VrTopologyKind::Dsch;
        let settings = McSettings {
            samples: 24,
            threads: 1,
            ..McSettings::default()
        };
        let opts = AnalysisOptions {
            solve_mode: DcPlanMode::DirectCholesky,
            ..AnalysisOptions::default()
        };
        let mut session = AnalysisSession::new(arch, &spec, &calib, &opts).unwrap();
        assert_eq!(session.solve_mode(), DcPlanMode::DirectCholesky);
        let (losses, lowrank) = sample_losses(&mut session, topo, &calib, &settings).unwrap();
        assert_eq!(
            lowrank, settings.samples,
            "every sample takes the uniform path"
        );

        // Every sample agrees with the restamp path: an exact direct-mode
        // analysis of the same draws.
        let mut restamp = AnalysisSession::new(arch, &spec, &calib, &opts).unwrap();
        for (i, &loss) in losses.iter().enumerate() {
            let draw = Draw::new(&calib, &settings, i);
            let report = restamp.analyze(topo, &draw.calib).unwrap();
            let exact = draw.loss_percent(&report);
            assert!((loss - exact).abs() < 1e-9, "sample {i}: {loss} vs {exact}");
        }

        // The response does not depend on the plan mode, so a warm-CG
        // session's run is bitwise the same.
        let direct = McSummary::from_samples(losses);
        let cg = run_tolerance(arch, topo, &spec, &calib, &settings).unwrap();
        assert_eq!(direct, cg);

        // And the thread-count independence contract holds per mode.
        for threads in [3, 8] {
            let par = run_tolerance_with(
                &mut session,
                topo,
                &calib,
                &McSettings {
                    threads,
                    ..settings
                },
            )
            .unwrap();
            assert_eq!(direct, par, "threads = {threads}");
        }
    }

    #[test]
    fn reused_sessions_answer_bitwise_like_fresh_ones() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let arch = Architecture::InterposerPeriphery;
        let topo = VrTopologyKind::Dsch;
        let settings = McSettings {
            samples: 8,
            threads: 2,
            ..McSettings::default()
        };
        let opts = AnalysisOptions::default();
        let fresh = |spec: &SystemSpec, calib: &Calibration| {
            run_tolerance(arch, topo, spec, calib, &settings).unwrap()
        };
        let mut session = AnalysisSession::new(arch, &spec, &calib, &opts).unwrap();
        let first = run_tolerance_with(&mut session, topo, &calib, &settings).unwrap();
        assert_eq!(first, fresh(&spec, &calib));
        // The stored response is reused...
        assert_eq!(
            run_tolerance_with(&mut session, topo, &calib, &settings).unwrap(),
            first
        );
        // ...and rebuilt when the spec moves the loads and comes back.
        let lighter = SystemSpec::new(
            spec.pcb_voltage(),
            spec.pol_voltage(),
            Watts::new(800.0),
            spec.current_density(),
        )
        .unwrap();
        session.set_spec(&lighter);
        let moved = run_tolerance_with(&mut session, topo, &calib, &settings).unwrap();
        assert_eq!(moved, fresh(&lighter, &calib));
        assert_ne!(moved, first);
        session.set_spec(&spec);
        assert_eq!(
            run_tolerance_with(&mut session, topo, &calib, &settings).unwrap(),
            first
        );
        // A new base sheet resistance rebuilds it too.
        let mut thicker = calib;
        thicker.grid_sheet_resistance = calib.grid_sheet_resistance * 0.9;
        assert_eq!(
            run_tolerance_with(&mut session, topo, &thicker, &settings).unwrap(),
            fresh(&spec, &thicker)
        );
    }

    #[test]
    fn meshes_above_the_response_cap_take_the_restamp_path() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration {
            grid_nodes_per_side: 96,
            ..Calibration::paper_default()
        };
        let settings = McSettings {
            samples: 2,
            threads: 2,
            ..McSettings::default()
        };
        let mut session = AnalysisSession::new(
            Architecture::InterposerEmbedded,
            &spec,
            &calib,
            &AnalysisOptions::default(),
        )
        .unwrap();
        let (losses, lowrank) =
            sample_losses(&mut session, VrTopologyKind::Dsch, &calib, &settings).unwrap();
        assert_eq!(lowrank, 0, "no response above the cap");
        assert_eq!(losses.len(), 2);
        assert!(losses.iter().all(|l| l.is_finite() && *l > 0.0));
        // The restamp path keeps its thread-count independence.
        let serial = McSettings {
            threads: 1,
            ..settings
        };
        let (again, _) =
            sample_losses(&mut session, VrTopologyKind::Dsch, &calib, &serial).unwrap();
        assert_eq!(losses, again);
    }

    /// One session per Fig. 7 configuration with its response prepared,
    /// and one direct-mode session beside it for exact restamps.
    fn fig7_sessions() -> &'static [(AnalysisSession, AnalysisSession)] {
        use std::sync::OnceLock;
        use vpd_circuit::DcPlanMode;
        static SESSIONS: OnceLock<Vec<(AnalysisSession, AnalysisSession)>> = OnceLock::new();
        SESSIONS.get_or_init(|| {
            let spec = SystemSpec::paper_default();
            let calib = Calibration::paper_default();
            let direct = AnalysisOptions {
                solve_mode: DcPlanMode::DirectCholesky,
                ..AnalysisOptions::default()
            };
            Architecture::paper_set()
                .into_iter()
                .map(|arch| {
                    let mut uniform =
                        AnalysisSession::new(arch, &spec, &calib, &AnalysisOptions::default())
                            .unwrap();
                    uniform.prepare_response(&calib).unwrap();
                    let exact = AnalysisSession::new(arch, &spec, &calib, &direct).unwrap();
                    (uniform, exact)
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// The uniform path against per-sample exact restamps, on all five
        /// Fig. 7 configurations, within DESIGN §13.4's tolerances: 1e-6 A
        /// per module and 1e-8 V on the worst drop.
        #[test]
        fn prop_uniform_path_matches_direct_restamps(
            seed in 0_u64..1_000_000,
            tolerance in 0.0_f64..0.5,
        ) {
            let calib = Calibration::paper_default();
            let settings = McSettings {
                resistance_tolerance: tolerance,
                seed,
                ..McSettings::default()
            };
            for (uniform, exact) in fig7_sessions() {
                let draw = Draw::new(&calib, &settings, 0);
                let topo = VrTopologyKind::Dsch;
                let got = uniform.analyze_uniform(topo, &draw.calib).unwrap().unwrap();
                let mut solver = exact.solver().clone();
                let want = exact.analyze_on(&mut solver, topo, &draw.calib).unwrap();
                for (a, b) in got.sharing.per_vr().iter().zip(want.sharing.per_vr()) {
                    proptest::prop_assert!((a.value() - b.value()).abs() < 1e-6, "{a} vs {b}");
                }
                let dv = (got.sharing.worst_drop() - want.sharing.worst_drop()).value().abs();
                proptest::prop_assert!(dv < 1e-8, "worst drop off by {dv:e}");
            }
        }
    }

    #[test]
    fn parallel_runs_are_bitwise_identical_to_serial() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let base = McSettings {
            samples: 24,
            threads: 1,
            ..McSettings::default()
        };
        let serial = run_tolerance(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &base,
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let par = run_tolerance(
                Architecture::InterposerEmbedded,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &McSettings { threads, ..base },
            )
            .unwrap();
            // Bitwise: every field, exact f64 equality.
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}
