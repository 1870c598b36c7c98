//! Request dispatch: every cached kind runs one lifecycle.
//! `Dispatcher::checkout` takes the kind's compiled state out of the
//! [`ScenarioCache`] (keyed by [`ScenarioKey::from_work`], whose kind
//! fixes the entry's type) or builds it cold, the engine runs on it with
//! no lock held, and `Dispatcher::checkin` puts it back — whether the
//! run succeeded or failed; a failed cold build checks nothing in. Every
//! kind but `transient_stream` runs through `Dispatcher::run_cached`,
//! so no handler can return between its check-out and its check-in; a
//! [`TransientStreamRun`] checks its entry in when it drops.
//!
//! # Determinism contract
//!
//! A request's `result` document is **bitwise-identical** whether its
//! compiled state was found in the cache or built cold, and identical
//! to the one-shot `vpd --format json` invocation with the same
//! parameters. After a successful solve the solution is anchored, and a
//! re-solve of an identical system converges at CG iteration zero,
//! returning the anchored bits unchanged. The fault and impedance
//! engines are pure over their compiled plans; the droop entry is the
//! finished document; a `sharing_sweep` is one direct-Cholesky solve.

use std::any::Any;

use vpd_converters::VrTopologyKind;
use vpd_core::{
    run_tolerance_with, AnalysisOptions, AnalysisSession, Architecture, ArchitectureReport,
    Calibration, CascadeLadder, CascadeSettings, CoreError, DcPlanMode, DroopScenario,
    FaultImpedanceSweep, FaultScenario, FaultSweep, FaultTransientSweep, ImpedanceSweep,
    ImpedanceSweepSettings, LoadStep, McSettings, PdnModel, SharingSolver, SystemSpec,
    VrFailureScenario,
};
use vpd_report::{Json, Render};
use vpd_scenario::ScenarioDoc;
use vpd_units::{Amps, CurrentDensity, Hertz, Seconds, Volts, Watts};

use crate::cache::{CacheStats, ScenarioCache, ScenarioKey};
use crate::proto::{kind_catalog, ErrorCode, Work, PROTOCOL_VERSION};

/// A handler outcome: the result document plus whether compiled state
/// was found in the cache (meta only — the document bits never depend
/// on it).
pub type DispatchResult = Result<(Json, bool), (ErrorCode, String)>;

fn engine_err(e: impl std::fmt::Display) -> (ErrorCode, String) {
    (ErrorCode::Engine, e.to_string())
}

/// The scenarios of a fault plan and the `mode` label its result
/// reports: N-1 over every module, or `count` seeded random `k`-fault
/// draws. Shared by `faults`, `fault_impedance` and a scenario
/// document's `[faults]` section.
fn fault_plan(
    random_k: Option<usize>,
    count: usize,
    seed: u64,
    vrs: usize,
    side: usize,
) -> (Vec<FaultScenario>, String) {
    match random_k {
        None => (
            FaultScenario::n_minus_1(vrs),
            format!("N-1 over {vrs} modules"),
        ),
        Some(k) => (
            FaultScenario::random_k(k, count, seed, vrs, side),
            format!("{count} random {k}-fault scenarios (seed {seed})"),
        ),
    }
}

/// One analysis on a session, anchored on success so an identical
/// re-solve stops at CG iteration zero.
fn analyze_anchored(
    session: &mut AnalysisSession,
    topology: VrTopologyKind,
    calib: &Calibration,
) -> Result<ArchitectureReport, CoreError> {
    let report = session.analyze(topology, calib)?;
    session.anchor();
    Ok(report)
}

/// Routes [`Work`] to the engines over a shared [`ScenarioCache`].
pub struct Dispatcher {
    cache: ScenarioCache,
    /// The paper's 1 kW, 2 A/mm² system, which every kind but `analyze`
    /// and `scenario` runs at.
    spec: SystemSpec,
    calib: Calibration,
}

impl Dispatcher {
    /// A dispatcher whose cache holds at most `cache_capacity` compiled
    /// scenarios (0 disables caching — every request compiles cold) in
    /// a single shard.
    #[must_use]
    pub fn new(cache_capacity: usize) -> Self {
        Self::with_workers(cache_capacity, 1)
    }

    /// A dispatcher whose cache is sharded across `workers` home
    /// shards with stealing on miss; worker `i` should dispatch through
    /// [`Dispatcher::dispatch_on`] with its index.
    #[must_use]
    pub fn with_workers(cache_capacity: usize, workers: usize) -> Self {
        Self {
            cache: ScenarioCache::for_workers(cache_capacity, workers),
            spec: SystemSpec::paper_default(),
            calib: Calibration::paper_default(),
        }
    }

    /// Current cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs one unit of work to completion as worker 0.
    ///
    /// # Errors
    ///
    /// A typed `(code, message)` pair ready to become an error
    /// response; engine failures carry [`ErrorCode::Engine`].
    pub fn dispatch(&self, work: &Work) -> DispatchResult {
        self.dispatch_on(0, work)
    }

    /// Runs one unit of work to completion on behalf of pool worker
    /// `worker`, whose home cache shard serves the check-out/check-in.
    ///
    /// # Errors
    ///
    /// A typed `(code, message)` pair ready to become an error
    /// response; engine failures carry [`ErrorCode::Engine`].
    pub fn dispatch_on(&self, worker: usize, work: &Work) -> DispatchResult {
        let (paper, calib) = (&self.spec, &self.calib);
        let (doc, cached) = match *work {
            Work::Ping => (Json::obj([("command", Json::from("ping"))]), false),
            Work::Shutdown => (Json::obj([("command", Json::from("shutdown"))]), false),
            Work::Stats => (self.stats(), false),
            Work::Kinds => (
                Json::obj([
                    ("command", Json::from("kinds")),
                    ("version", Json::Int(PROTOCOL_VERSION)),
                    ("kinds", kind_catalog()),
                ]),
                false,
            ),
            Work::Analyze {
                arch,
                topology,
                power_w,
                density,
            } => {
                let spec = SystemSpec::new(
                    Volts::new(48.0),
                    Volts::new(1.0),
                    Watts::new(power_w),
                    CurrentDensity::from_amps_per_square_millimeter(density),
                )
                .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;
                let (report, cached) = self.run_cached(
                    worker,
                    work,
                    || self.session(arch, &spec),
                    |session| analyze_anchored(session, topology, calib),
                )?;
                let doc = Json::obj([
                    ("command", Json::from("analyze")),
                    ("architecture", Json::from(arch.name())),
                    ("topology", Json::from(topology.name())),
                    ("power_w", Json::from(power_w)),
                    ("density_a_per_mm2", Json::from(density)),
                    (
                        "die_area_mm2",
                        Json::from(spec.die_area().as_square_millimeters()),
                    ),
                    ("overloaded", Json::from(report.overloaded)),
                    ("breakdown", report.breakdown.render_json()),
                ]);
                (doc, cached)
            }
            Work::Sharing { placement, modules } => {
                let (rep, cached) = self.run_cached(
                    worker,
                    work,
                    || {
                        SharingSolver::builder(paper, calib)
                            .placement(placement)
                            .modules(modules)
                            .build()
                    },
                    |solver| {
                        let rep = solver.solve()?;
                        solver.anchor_last();
                        Ok(rep)
                    },
                )?;
                let doc = Json::obj([
                    ("command", Json::from("sharing")),
                    ("placement", Json::from(placement.to_string())),
                    ("report", rep.render_json()),
                ]);
                (doc, cached)
            }
            // Answered from one direct-Cholesky solve at the nominal
            // setpoint, under its own key: the plain `sharing` entry
            // stays in the warm-CG mode the one-shot CLI uses.
            Work::SharingSweep {
                placement,
                modules,
                ref setpoints,
            } => {
                let volts: Vec<Volts> = setpoints.iter().map(|&v| Volts::new(v)).collect();
                let (reports, cached) = self.run_cached(
                    worker,
                    work,
                    || {
                        let mut solver = SharingSolver::builder(paper, calib)
                            .placement(placement)
                            .modules(modules)
                            .build()?;
                        solver.set_solve_mode(DcPlanMode::DirectCholesky)?;
                        Ok(solver)
                    },
                    |solver| {
                        let reports = solver.solve_setpoints(&volts)?;
                        solver.anchor_last();
                        Ok(reports)
                    },
                )?;
                let points: Vec<Json> = setpoints
                    .iter()
                    .zip(&reports)
                    .map(|(&sp, rep)| {
                        Json::obj([
                            ("setpoint_v", Json::from(sp)),
                            ("report", rep.render_json()),
                        ])
                    })
                    .collect();
                let doc = Json::obj([
                    ("command", Json::from("sharing_sweep")),
                    ("placement", Json::from(placement.to_string())),
                    ("setpoints", Json::from(setpoints.len())),
                    ("points", Json::Array(points)),
                ]);
                (doc, cached)
            }
            // The finished document is the entry: droop compiles no plan
            // worth keeping.
            Work::Droop { arch } => self.run_cached(
                worker,
                work,
                || {
                    let report = self.droop_scenario(arch)?.run()?;
                    Ok(Json::obj([
                        ("command", Json::from("droop")),
                        ("architecture", Json::from(arch.name())),
                        ("report", report.render_json()),
                    ]))
                },
                |doc| Ok(doc.clone()),
            )?,
            Work::Mc {
                arch,
                topology,
                samples,
                seed,
                threads,
            } => {
                let settings = McSettings {
                    samples,
                    seed,
                    threads,
                    ..McSettings::default()
                };
                let (summary, cached) = self.run_cached(
                    worker,
                    work,
                    || self.session(arch, paper),
                    |session| run_tolerance_with(session, topology, calib, &settings),
                )?;
                let doc = Json::obj([
                    ("command", Json::from("mc")),
                    ("architecture", Json::from(arch.name())),
                    ("topology", Json::from(topology.name())),
                    ("samples", Json::from(samples)),
                    ("seed", Json::from(i64::try_from(seed).unwrap_or(i64::MAX))),
                    ("summary", summary.render_json()),
                ]);
                (doc, cached)
            }
            Work::Impedance {
                arch,
                fmin_hz,
                fmax_hz,
                points,
                profile,
            } => {
                let settings = ImpedanceSweepSettings {
                    fmin: Hertz::new(fmin_hz),
                    fmax: Hertz::new(fmax_hz),
                    points,
                    threads: 0,
                };
                let (rep, cached) = self.run_cached(
                    worker,
                    work,
                    || ImpedanceSweep::for_architecture(arch, paper),
                    |sweep| sweep.run(&settings),
                )?;
                let doc = if profile {
                    Json::obj([
                        ("command", Json::from("impedance")),
                        ("report", rep.render_json()),
                    ])
                } else {
                    Json::obj([
                        ("command", Json::from("impedance")),
                        ("architecture", Json::from(rep.label.as_str())),
                        ("points", Json::from(points)),
                        ("peak_impedance_ohm", Json::from(rep.peak.value())),
                        ("peak_frequency_hz", Json::from(rep.peak_frequency.value())),
                        ("target_ohm", Json::from(rep.target.value())),
                        ("margin", rep.margin().map_or(Json::Null, Json::from)),
                        ("meets_target", Json::from(rep.meets_target())),
                    ])
                };
                (doc, cached)
            }
            Work::Faults {
                arch,
                topology,
                random_k,
                count,
                seed,
            } => {
                let ((mode, nominal_worst_drop, report), cached) = self.run_cached(
                    worker,
                    work,
                    || FaultSweep::new(arch, topology, paper, calib),
                    |sweep| {
                        let (scenarios, mode) =
                            fault_plan(random_k, count, seed, sweep.vr_count(), sweep.grid_side());
                        let report = sweep.run(&scenarios, 0)?;
                        Ok((mode, sweep.nominal().worst_drop().value(), report))
                    },
                )?;
                let doc = Json::obj([
                    ("command", Json::from("faults")),
                    ("mode", Json::from(mode.as_str())),
                    ("topology", Json::from(topology.name())),
                    ("nominal_worst_drop_v", Json::from(nominal_worst_drop)),
                    ("report", report.render_json()),
                ]);
                (doc, cached)
            }
            Work::FaultImpedance {
                arch,
                random_k,
                count,
                seed,
                fmin_hz,
                fmax_hz,
                points,
            } => {
                let grid = ImpedanceSweepSettings {
                    fmin: Hertz::new(fmin_hz),
                    fmax: Hertz::new(fmax_hz),
                    points,
                    threads: 0,
                };
                let ((mode, report), cached) = self.run_cached(
                    worker,
                    work,
                    || FaultImpedanceSweep::new(arch, paper, calib),
                    |sweep| {
                        let freqs = grid.frequencies()?;
                        let (scenarios, mode) =
                            fault_plan(random_k, count, seed, sweep.vr_count(), sweep.grid_side());
                        Ok((mode, sweep.run(&scenarios, &freqs, 0)?))
                    },
                )?;
                let doc = Json::obj([
                    ("command", Json::from("fault_impedance")),
                    ("mode", Json::from(mode.as_str())),
                    ("points", Json::from(points)),
                    ("report", report.render_json()),
                ]);
                (doc, cached)
            }
            Work::FaultTransient { arch, count } => {
                let window = Seconds::from_microseconds(FAULT_TRANSIENT_WINDOW_US);
                let scenarios = VrFailureScenario::grid(count, window);
                let (report, cached) = self.run_cached(
                    worker,
                    work,
                    || {
                        FaultTransientSweep::new(
                            arch,
                            &PdnModel::for_architecture(arch),
                            &LoadStep::paper_default(paper),
                            Seconds::from_microseconds(FAULT_TRANSIENT_SIM_US),
                            Seconds::from_nanoseconds(FAULT_TRANSIENT_DT_NS),
                        )
                    },
                    |sweep| sweep.run(&scenarios, 0),
                )?;
                let doc = Json::obj([
                    ("command", Json::from("fault_transient")),
                    ("scenarios", Json::from(scenarios.len())),
                    ("report", report.render_json()),
                ]);
                (doc, cached)
            }
            Work::Survival { arch, topology } => {
                let settings = CascadeSettings::default();
                let (envelope, cached) = self.run_cached(
                    worker,
                    work,
                    || CascadeLadder::new(arch, topology, paper, calib, &settings),
                    |ladder| ladder.run(&FaultScenario::n_minus_1(ladder.vr_count()), 0),
                )?;
                let doc = Json::obj([
                    ("command", Json::from("survival")),
                    ("topology", Json::from(topology.name())),
                    ("report", envelope.render_json()),
                ]);
                (doc, cached)
            }
            Work::Scenario { ref doc } => self.scenario(worker, work, doc)?,
            // The server streams this kind chunk-by-chunk; dispatching
            // it directly drains the same run silently and returns the
            // summary document — bitwise what the stream's final record
            // carries.
            Work::TransientStream { arch, chunk } => {
                let mut run = self.begin_transient_stream_on(worker, arch, chunk)?;
                while run.next_chunk()?.is_some() {}
                (run.finish(), run.cached())
            }
        };
        Ok((doc, cached))
    }

    /// Checks `key`'s compiled state out of the cache for `worker`, or
    /// builds it cold. Returns the entry and whether it came from the
    /// cache. The key's kind fixes the entry type, so the downcast finds
    /// what the kind's last check-in left; an entry of another type
    /// would be rebuilt like a miss and reported uncached. A failed
    /// build checks nothing out.
    fn checkout<E: Any + Send>(
        &self,
        worker: usize,
        key: &ScenarioKey,
        build: impl FnOnce() -> Result<E, CoreError>,
    ) -> Result<(Box<E>, bool), (ErrorCode, String)> {
        if let Some(Ok(entry)) = self.cache.take_for(worker, key).map(|e| e.downcast::<E>()) {
            return Ok((entry, true));
        }
        Ok((Box::new(build().map_err(engine_err)?), false))
    }

    /// Checks a checked-out entry back in as `worker`'s most recently
    /// used one, after its run, successful or not.
    fn checkin<E: Any + Send>(&self, worker: usize, key: ScenarioKey, entry: Box<E>) {
        self.cache.put_for(worker, key, entry);
    }

    /// Checks `work`'s entry out (or builds it), runs on it, checks it
    /// back in whatever the run returned, and passes the run's outcome
    /// on with the cache flag.
    fn run_cached<E: Any + Send, T>(
        &self,
        worker: usize,
        work: &Work,
        build: impl FnOnce() -> Result<E, CoreError>,
        run: impl FnOnce(&mut E) -> Result<T, CoreError>,
    ) -> Result<(T, bool), (ErrorCode, String)> {
        let key = ScenarioKey::from_work(work).expect("every analysis kind has a cache key");
        let (mut entry, cached) = self.checkout(worker, &key, build)?;
        let outcome = run(&mut entry);
        self.checkin(worker, key, entry);
        outcome.map(|value| (value, cached)).map_err(engine_err)
    }

    fn stats(&self) -> Json {
        let s = self.cache.stats();
        let metrics = Json::parse(&vpd_obs::snapshot().to_json("serve")).unwrap_or(Json::Null);
        Json::obj([
            ("command", Json::from("stats")),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(s.hits as usize)),
                    ("misses", Json::from(s.misses as usize)),
                    ("steals", Json::from(s.steals as usize)),
                    ("evictions", Json::from(s.evictions as usize)),
                    ("entries", Json::from(s.entries)),
                ]),
            ),
            ("metrics", metrics),
        ])
    }

    /// A cold analysis session at `spec`. `analyze` and `mc` share these
    /// entries: the grid plan depends on (architecture, spec), never on
    /// the topology (see [`ScenarioKey::from_work`]).
    fn session(&self, arch: Architecture, spec: &SystemSpec) -> Result<AnalysisSession, CoreError> {
        AnalysisSession::new(arch, spec, &self.calib, &AnalysisOptions::default())
    }

    /// The paper load step on `arch`'s PDN over the 60 µs / 10 ns window
    /// that `droop` and `transient_stream` both simulate, so a stream's
    /// summary carries the one-shot `droop` report's bits.
    fn droop_scenario(&self, arch: Architecture) -> Result<DroopScenario, CoreError> {
        DroopScenario::new(
            &PdnModel::for_architecture(arch),
            &LoadStep::paper_default(&self.spec),
            Seconds::from_microseconds(60.0),
            Seconds::from_nanoseconds(10.0),
        )
    }

    /// [`Dispatcher::begin_transient_stream_on`] as worker 0.
    ///
    /// # Errors
    ///
    /// A typed `(code, message)` pair when the cold compile fails.
    pub fn begin_transient_stream(
        &self,
        arch: Architecture,
        chunk: usize,
    ) -> Result<TransientStreamRun<'_>, (ErrorCode, String)> {
        self.begin_transient_stream_on(0, arch, chunk)
    }

    /// Checks the architecture's compiled transient scenario out of the
    /// cache (or compiles it cold — the one-shot `droop` window) and
    /// begins a fresh streaming run over it on behalf of pool worker
    /// `worker`.
    ///
    /// # Errors
    ///
    /// A typed `(code, message)` pair when the cold compile fails.
    pub fn begin_transient_stream_on(
        &self,
        worker: usize,
        arch: Architecture,
        chunk: usize,
    ) -> Result<TransientStreamRun<'_>, (ErrorCode, String)> {
        let key = ScenarioKey::from_work(&Work::TransientStream { arch, chunk })
            .expect("transient_stream has a key");
        let (mut scenario, cached) = self.checkout(worker, &key, || self.droop_scenario(arch))?;
        scenario.start();
        Ok(TransientStreamRun {
            dispatcher: self,
            key,
            worker,
            scenario: Some(scenario),
            arch,
            chunk,
            cached,
            chunks: 0,
            cursor: 0,
        })
    }

    /// Compiles and analyzes a user scenario document. The expensive
    /// artifact — the compiled die-grid session — is cached under the
    /// document's content hash, so a repeated (or respelled) scenario
    /// skips grid compilation entirely; the document's own spec,
    /// calibration, and options drive the engines, not the dispatcher's
    /// paper defaults. A `[faults]` sweep, when the document asks for
    /// one, runs after the session returns to the cache.
    fn scenario(&self, worker: usize, work: &Work, doc: &ScenarioDoc) -> DispatchResult {
        let scenario = doc
            .compile()
            .map_err(|e| (ErrorCode::BadRequest, format!("scenario document: {e}")))?;
        let (report, cached) = self.run_cached(
            worker,
            work,
            || scenario.session(),
            |session| analyze_anchored(session, scenario.topology, &scenario.calibration),
        )?;

        let hash = format!("{:016x}", doc.content_hash());
        let mut pairs = vec![
            ("command", Json::from("scenario")),
            ("name", Json::from(scenario.name.as_str())),
            ("hash", Json::from(hash.as_str())),
            ("architecture", Json::from(scenario.architecture.name())),
            ("topology", Json::from(scenario.topology.name())),
            ("placement", Json::from(scenario.placement.to_string())),
            ("overloaded", Json::from(report.overloaded)),
            ("breakdown", report.breakdown.render_json()),
        ];
        if let (Some(c), Some(curve)) = (&doc.converter, &scenario.converter) {
            let loss_peak = curve.loss(Amps::new(c.i_peak)).map_err(engine_err)?;
            let loss_max = curve.loss(Amps::new(c.i_max)).map_err(engine_err)?;
            pairs.push((
                "converter",
                Json::obj([
                    ("v_out", Json::from(c.v_out)),
                    ("i_peak_a", Json::from(c.i_peak)),
                    ("eta_peak", Json::from(c.eta_peak)),
                    ("i_max_a", Json::from(c.i_max)),
                    ("eta_max", Json::from(c.eta_max)),
                    ("loss_at_peak_w", Json::from(loss_peak.value())),
                    ("loss_at_max_w", Json::from(loss_max.value())),
                ]),
            ));
        }
        if !scenario.techs.is_empty() {
            let techs: Vec<Json> = doc
                .techs
                .iter()
                .zip(&scenario.techs)
                .map(|(td, t)| {
                    Json::obj([
                        ("base", Json::from(td.base.as_str())),
                        ("name", Json::from(t.name)),
                        ("sites", Json::from(t.default_sites())),
                        (
                            "via_resistance_uohm",
                            Json::from(t.via_resistance().value() * 1e6),
                        ),
                        (
                            "max_current_per_via_a",
                            Json::from(t.max_current_per_via().value()),
                        ),
                    ])
                })
                .collect();
            pairs.push(("techs", Json::Array(techs)));
        }
        if let Some(plan) = &scenario.faults {
            let sweep = FaultSweep::new(
                scenario.architecture,
                scenario.topology,
                &scenario.spec,
                &scenario.calibration,
            )
            .map_err(engine_err)?;
            let (scenarios, mode) = fault_plan(
                plan.random_k,
                plan.count,
                plan.seed,
                sweep.vr_count(),
                sweep.grid_side(),
            );
            let fault_report = sweep.run(&scenarios, 0).map_err(engine_err)?;
            pairs.push((
                "faults",
                Json::obj([
                    ("mode", Json::from(mode.as_str())),
                    ("report", fault_report.render_json()),
                ]),
            ));
        }
        Ok((Json::obj(pairs), cached))
    }
}

/// Simulation window of the serve `fault_transient` kind — also what
/// `vpd faults --dynamic` simulates, so served and one-shot results
/// match bit for bit.
pub const FAULT_TRANSIENT_SIM_US: f64 = 20.0;
/// Time step of the `fault_transient` kind, nanoseconds.
pub const FAULT_TRANSIENT_DT_NS: f64 = 40.0;
/// Width of the failure-time grid, microseconds.
pub const FAULT_TRANSIENT_WINDOW_US: f64 = 16.0;

/// A checked-out streaming transient run: drives a compiled
/// [`DroopScenario`] chunk by chunk, yielding one waveform document per
/// chunk and a final summary whose `report` is bitwise the one-shot
/// `droop` report. Dropping the run — finished or aborted mid-stream —
/// checks the scenario back in (`Dispatcher::checkin`), so the
/// compiled plan (and its LU cache) stays warm even when a deadline
/// kills the stream; a run dropped by a panic checks nothing in.
pub struct TransientStreamRun<'a> {
    dispatcher: &'a Dispatcher,
    key: ScenarioKey,
    worker: usize,
    scenario: Option<Box<DroopScenario>>,
    arch: Architecture,
    chunk: usize,
    cached: bool,
    chunks: usize,
    cursor: usize,
}

impl TransientStreamRun<'_> {
    /// Whether the compiled scenario was found in the cache (meta only
    /// — the waveform bits never depend on it).
    #[must_use]
    pub fn cached(&self) -> bool {
        self.cached
    }

    /// Chunk records emitted so far.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Runs up to `chunk` more time steps and returns their samples as
    /// a waveform document, or `Ok(None)` once every sample has been
    /// emitted (time to send the summary).
    ///
    /// # Errors
    ///
    /// A typed `(code, message)` pair on solver failure; the scenario
    /// still returns to the cache on drop (a fresh run resets it).
    pub fn next_chunk(&mut self) -> Result<Option<Json>, (ErrorCode, String)> {
        let scenario = self.scenario.as_mut().expect("stream scenario checked out");
        if scenario.finished() {
            return Ok(None);
        }
        scenario.advance(self.chunk).map_err(engine_err)?;
        let result = scenario.result();
        let times = result.times();
        let v = result.voltage(scenario.die());
        let t0 = times[self.cursor];
        let chunk_times: Vec<Json> = times[self.cursor..]
            .iter()
            .map(|&t| Json::from(t))
            .collect();
        let chunk_v: Vec<Json> = v[self.cursor..].iter().map(|&x| Json::from(x)).collect();
        let samples = chunk_times.len();
        self.cursor = times.len();
        self.chunks += 1;
        Ok(Some(Json::obj([
            ("t0_s", Json::from(t0)),
            ("samples", Json::from(samples)),
            ("times_s", Json::Array(chunk_times)),
            ("v_die_v", Json::Array(chunk_v)),
        ])))
    }

    /// The final summary document. Meaningful once
    /// [`TransientStreamRun::next_chunk`] has returned `None`; its
    /// `report` field carries the exact bits of the one-shot `droop`
    /// result for the same architecture.
    #[must_use]
    pub fn finish(&self) -> Json {
        let scenario = self.scenario.as_ref().expect("stream scenario checked out");
        Json::obj([
            ("command", Json::from("transient_stream")),
            ("architecture", Json::from(self.arch.name())),
            ("samples", Json::from(scenario.samples_done())),
            ("chunks", Json::from(self.chunks)),
            ("report", scenario.report().render_json()),
        ])
    }
}

impl Drop for TransientStreamRun<'_> {
    fn drop(&mut self) {
        // A run dropped by a panic may hold a half-stepped scenario: it
        // is dropped, not checked back in.
        if std::thread::panicking() {
            return;
        }
        if let Some(s) = self.scenario.take() {
            self.dispatcher.checkin(self.worker, self.key.clone(), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpd_core::VrPlacement;

    fn work(line: &str) -> Work {
        crate::proto::Request::parse_line(line).unwrap().work
    }

    #[test]
    fn warm_result_is_bitwise_identical_to_cold() {
        for line in [
            r#"{"kind":"analyze","params":{"arch":"a1"}}"#,
            r#"{"kind":"sharing","params":{"modules":24}}"#,
            r#"{"kind":"sharing_sweep","params":{"modules":24,"setpoints":[1.0,1.005]}}"#,
            r#"{"kind":"droop","params":{"arch":"a0"}}"#,
            r#"{"kind":"mc","params":{"arch":"a1","samples":6}}"#,
            r#"{"kind":"impedance","params":{"arch":"a2","points":16}}"#,
            r#"{"kind":"faults","params":{"arch":"a1","random_k":2,"count":4}}"#,
            r#"{"kind":"transient_stream","params":{"arch":"a0","chunk":2048}}"#,
            r#"{"kind":"fault_impedance","params":{"arch":"a2","random_k":2,"count":3,"points":24}}"#,
            r#"{"kind":"fault_transient","params":{"arch":"a2","count":2}}"#,
            r#"{"kind":"survival","params":{"arch":"a1"}}"#,
            r#"{"kind":"scenario","params":{"name":"a1"}}"#,
        ] {
            // Fresh dispatcher per kind: analyze and mc intentionally
            // share session entries, which would warm each other here.
            let d = Dispatcher::new(16);
            let w = work(line);
            let (cold, was_cached) = d.dispatch(&w).unwrap();
            assert!(!was_cached, "{line}: first dispatch must compile cold");
            let (warm, was_cached) = d.dispatch(&w).unwrap();
            assert!(was_cached, "{line}: second dispatch must hit the cache");
            assert_eq!(
                cold.to_string(),
                warm.to_string(),
                "{line}: cache hit changed the result bits"
            );
        }
    }

    #[test]
    fn zero_capacity_dispatcher_always_compiles_cold() {
        let d = Dispatcher::new(0);
        let w = work(r#"{"kind":"sharing"}"#);
        let (first, c1) = d.dispatch(&w).unwrap();
        let (second, c2) = d.dispatch(&w).unwrap();
        assert!(!c1 && !c2);
        assert_eq!(first.to_string(), second.to_string());
    }

    #[test]
    fn analyze_and_mc_share_one_session_entry() {
        let d = Dispatcher::new(16);
        let analyze = work(r#"{"kind":"analyze","params":{"arch":"a2"}}"#);
        let mc = work(r#"{"kind":"mc","params":{"arch":"a2","samples":4}}"#);
        let (_, cached) = d.dispatch(&analyze).unwrap();
        assert!(!cached);
        let (_, cached) = d.dispatch(&mc).unwrap();
        assert!(cached, "mc at paper defaults reuses the analyze session");
        assert_eq!(d.cache_stats().entries, 1);
        // The other order: a session an mc run built, which solved no
        // nominal point by CG, answers analyze like a cold one.
        let d = Dispatcher::new(16);
        d.dispatch(&mc).unwrap();
        let (warm, cached) = d.dispatch(&analyze).unwrap();
        assert!(cached);
        let (cold, _) = Dispatcher::new(0).dispatch(&analyze).unwrap();
        assert_eq!(warm.to_string(), cold.to_string());
    }

    #[test]
    fn workers_steal_compiled_state_instead_of_recompiling() {
        let d = Dispatcher::with_workers(16, 4);
        let w = work(r#"{"kind":"sharing","params":{"modules":12}}"#);
        let (cold, cached) = d.dispatch_on(0, &w).unwrap();
        assert!(!cached);
        // A different worker's home shard misses, steals worker 0's
        // compiled solver, and produces the same bits.
        let (stolen, cached) = d.dispatch_on(3, &w).unwrap();
        assert!(cached, "steal counts as a hit");
        assert_eq!(cold.to_string(), stolen.to_string());
        let s = d.cache_stats();
        assert_eq!(s.steals, 1);
        // The entry re-homed to worker 3: its next take is a home hit.
        let (_, cached) = d.dispatch_on(3, &w).unwrap();
        assert!(cached);
        assert_eq!(d.cache_stats().steals, 1);
    }

    #[test]
    fn engine_failures_are_typed_and_preserve_the_entry() {
        let d = Dispatcher::new(16);
        // Warm a session, then drive a failing scenario through it: an
        // absurd power at paper density overloads every capacity check.
        let ok = work(r#"{"kind":"analyze","params":{"arch":"a1"}}"#);
        d.dispatch(&ok).unwrap();
        let bad = work(r#"{"kind":"impedance","params":{"arch":"a1","points":1}}"#);
        let err = d.dispatch(&bad).unwrap_err();
        assert_eq!(err.0, ErrorCode::Engine, "{err:?}");
        // The failing run kept the compiled impedance plan resident.
        let good = work(r#"{"kind":"impedance","params":{"arch":"a1","points":16}}"#);
        let (_, cached) = d.dispatch(&good).unwrap();
        assert!(cached, "entry survived the failed scenario");
    }

    #[test]
    fn kinds_returns_the_catalog() {
        let d = Dispatcher::new(0);
        let (doc, cached) = d.dispatch(&Work::Kinds).unwrap();
        assert!(!cached);
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("kinds"));
        assert_eq!(
            doc.get("version").and_then(Json::as_i64),
            Some(PROTOCOL_VERSION)
        );
        let Some(Json::Array(kinds)) = doc.get("kinds") else {
            panic!("kinds array: {doc}");
        };
        assert_eq!(kinds.len(), crate::proto::kind_specs().len());
    }

    #[test]
    fn sharing_sweep_matches_the_core_sweep_bitwise() {
        let sweep = [1.0, 1.01, 1.02];
        let d = Dispatcher::new(4);
        let w = work(
            r#"{"kind":"sharing_sweep","params":{"placement":"below","modules":12,"setpoints":[1.0,1.01,1.02]}}"#,
        );
        let (served, _) = d.dispatch(&w).unwrap();
        let Some(Json::Array(points)) = served.get("points") else {
            panic!("missing points array: {served}");
        };
        assert_eq!(points.len(), sweep.len());

        // Oracle: the same sweep through the core API in the same
        // (direct) mode.
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let mut solver = SharingSolver::builder(&spec, &calib)
            .placement(VrPlacement::BelowDie)
            .modules(12)
            .build()
            .unwrap();
        solver.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
        let volts: Vec<Volts> = sweep.iter().map(|&v| Volts::new(v)).collect();
        let reports = solver.solve_setpoints(&volts).unwrap();
        for ((point, rep), sp) in points.iter().zip(&reports).zip(sweep) {
            assert_eq!(
                point.get("report").unwrap().to_string(),
                rep.render_json().to_string(),
                "setpoint {sp}"
            );
        }
    }

    #[test]
    fn transient_stream_chunks_reassemble_and_warm_is_bitwise() {
        let d = Dispatcher::new(8);
        let mut run = d
            .begin_transient_stream(Architecture::InterposerEmbedded, 1000)
            .unwrap();
        assert!(!run.cached(), "first stream compiles cold");
        let mut cold_chunks = Vec::new();
        while let Some(c) = run.next_chunk().unwrap() {
            cold_chunks.push(c.to_string());
        }
        // 60 µs at 10 ns is 6001 samples: seven chunks of ≤1000.
        assert_eq!(cold_chunks.len(), 7);
        let cold = run.finish().to_string();
        drop(run);

        // Warm replay: the scenario came back from the cache and every
        // chunk — and the summary — carries the same bits.
        let mut run = d
            .begin_transient_stream(Architecture::InterposerEmbedded, 1000)
            .unwrap();
        assert!(run.cached(), "drop checked the scenario back in");
        let mut warm_chunks = Vec::new();
        while let Some(c) = run.next_chunk().unwrap() {
            warm_chunks.push(c.to_string());
        }
        assert_eq!(cold_chunks, warm_chunks);
        assert_eq!(run.finish().to_string(), cold);
        drop(run);

        // The dispatch fallback drains the same run silently.
        let w = work(r#"{"kind":"transient_stream","params":{"arch":"a2","chunk":1000}}"#);
        let (full, cached) = d.dispatch(&w).unwrap();
        assert!(cached);
        assert_eq!(full.to_string(), cold);

        // And the summary's report is bitwise the one-shot droop report.
        let (droop, _) = d
            .dispatch(&work(r#"{"kind":"droop","params":{"arch":"a2"}}"#))
            .unwrap();
        assert_eq!(
            full.get("report").unwrap().to_string(),
            droop.get("report").unwrap().to_string()
        );
    }

    #[test]
    fn aborted_stream_keeps_the_compiled_scenario_warm() {
        let d = Dispatcher::new(8);
        let mut run = d
            .begin_transient_stream(Architecture::Reference, 500)
            .unwrap();
        // Emit one chunk, then abandon the stream mid-run.
        assert!(run.next_chunk().unwrap().is_some());
        drop(run);
        assert_eq!(d.cache_stats().entries, 1);
        let run = d
            .begin_transient_stream(Architecture::Reference, 500)
            .unwrap();
        assert!(run.cached(), "mid-stream abort still checked it back in");
    }

    #[test]
    fn survival_rejects_the_reference_architecture_with_a_typed_error() {
        let d = Dispatcher::new(4);
        let err = d
            .dispatch(&work(r#"{"kind":"survival","params":{"arch":"a0"}}"#))
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::Engine, "{err:?}");
        assert!(err.1.contains("vertical architecture"), "{err:?}");
        assert_eq!(d.cache_stats().entries, 0, "no broken entry was cached");
    }

    #[test]
    fn scenario_builtin_matches_the_analyze_kind_bitwise() {
        // The checked-in a2 document compiles to the paper defaults, so
        // its served breakdown must carry the exact bits the hardcoded
        // analyze path produces.
        let d = Dispatcher::new(8);
        let (scen, cached) = d
            .dispatch(&work(r#"{"kind":"scenario","params":{"name":"a2"}}"#))
            .unwrap();
        assert!(!cached);
        let (analyze, _) = d
            .dispatch(&work(r#"{"kind":"analyze","params":{"arch":"a2"}}"#))
            .unwrap();
        assert_eq!(
            scen.get("breakdown").unwrap().to_string(),
            analyze.get("breakdown").unwrap().to_string(),
            "document-compiled a2 diverged from the hardcoded constructors"
        );
        assert_eq!(scen.get("overloaded"), analyze.get("overloaded"));
        assert_eq!(scen.get("name").and_then(Json::as_str), Some("a2"));
        assert_eq!(
            scen.get("hash").and_then(Json::as_str).map(str::len),
            Some(16)
        );
    }

    #[test]
    fn scenario_spellings_share_one_cached_session() {
        let d = Dispatcher::new(8);
        let (_, cached) = d
            .dispatch(&work(r#"{"kind":"scenario","params":{"name":"a3-12"}}"#))
            .unwrap();
        assert!(!cached);
        // A minimal inline spelling of the same scenario hits the entry
        // the builtin compiled, and carries the same bits.
        let inline = work(
            r#"{"kind":"scenario","params":{"doc":"[scenario]\narchitecture = \"a3\"\nbus_v = 12\n"}}"#,
        );
        let (inline_doc, cached) = d.dispatch(&inline).unwrap();
        assert!(cached, "respelled scenario must hit the shared entry");
        let (builtin_doc, _) = d
            .dispatch(&work(r#"{"kind":"scenario","params":{"name":"a3-12"}}"#))
            .unwrap();
        assert_eq!(inline_doc.to_string(), builtin_doc.to_string());
        assert_eq!(d.cache_stats().entries, 1);
    }

    #[test]
    fn scenario_honors_custom_sections() {
        // A customized document: non-default power, a converter, a tech
        // override, and an N-1 fault sweep, served in one response.
        let text = "[scenario]\narchitecture = \"a1\"\n\
                    [spec]\npower_w = 600\n\
                    [converter]\nv_out = 1\ni_peak = 30\neta_peak = 0.9\n\
                    i_max = 100\neta_max = 0.86\n\
                    [tech.tsv]\npitch_um = 50\n\
                    [faults]\nmode = \"n-1\"\n";
        let line = format!(
            r#"{{"kind":"scenario","params":{{"doc":{}}}}}"#,
            Json::from(text)
        );
        let d = Dispatcher::new(8);
        let (doc, _) = d.dispatch(&work(&line)).unwrap();
        let conv = doc.get("converter").expect("converter summary");
        assert_eq!(conv.get("i_max_a").and_then(Json::as_f64), Some(100.0));
        assert!(conv.get("loss_at_max_w").and_then(Json::as_f64).unwrap() > 0.0);
        let Some(Json::Array(techs)) = doc.get("techs") else {
            panic!("techs summary: {doc}");
        };
        assert_eq!(techs[0].get("base").and_then(Json::as_str), Some("tsv"));
        let faults = doc.get("faults").expect("faults report");
        assert!(faults
            .get("mode")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("N-1"));
    }

    #[test]
    fn mc_summary_matches_the_one_shot_engine_bitwise() {
        let d = Dispatcher::new(4);
        let w = work(r#"{"kind":"mc","params":{"arch":"a1","samples":5,"seed":11}}"#);
        let (served, _) = d.dispatch(&w).unwrap();
        let oneshot = vpd_core::run_tolerance(
            Architecture::InterposerPeriphery,
            VrTopologyKind::Dsch,
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            &McSettings {
                samples: 5,
                seed: 11,
                ..McSettings::default()
            },
        )
        .unwrap();
        assert_eq!(
            served.get("summary").unwrap().to_string(),
            oneshot.render_json().to_string()
        );
    }
}
