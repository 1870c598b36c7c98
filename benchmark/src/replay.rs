//! The traced in-process replay: a workload's own generated inputs
//! pushed through each layer's public functions, with the program's
//! `vpd_obs` counters switched on and benchmark-side spans around every
//! call.
//!
//! Per request there are two span trees under the same request id:
//!
//! * `request` — the serve path: `serve.proto.parse`
//!   (`Request::parse_line`), `serve.cache.key` (`ScenarioKey::from_work`),
//!   `serve.engine.dispatch` (`Dispatcher::dispatch_on`, or the
//!   transient-stream run) and `report.render` (`Response::to_json`
//!   serialized).
//! * `core.request` — the same analysis re-run through the core and
//!   scenario crates' public calls (`ScenarioDoc::parse`, `render`,
//!   `compile`, `Scenario::session`, `AnalysisSession::new`, the engine
//!   constructors, and their `run`, `run_tolerance_with` or
//!   `solve_setpoints` calls) over the benchmark's own engine cache,
//!   which mirrors the dispatcher's. Its `core.wrapped` child covers
//!   exactly what `dispatch_on` wraps, so the dispatcher's own cost is
//!   `serve.engine.dispatch - core.wrapped` of the same request.
//!
//! Program-side tracing is out of scope: the core call cannot be timed
//! inside `dispatch_on`, so it is re-run beside it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use vpd_core::{
    run_tolerance_with, AnalysisOptions, AnalysisSession, Architecture, Calibration, DcPlanMode,
    DroopScenario, FaultImpedanceSweep, FaultScenario, FaultSweep, FaultTransientSweep,
    ImpedanceSweep, ImpedanceSweepSettings, LoadStep, McSettings, PdnModel, SharingSolver,
    SystemSpec, VrFailureScenario,
};
use vpd_obs::MetricsSnapshot;
use vpd_scenario::ScenarioDoc;
use vpd_serve::{
    CacheStats, Dispatcher, Request, Response, ScenarioKey, Work, FAULT_TRANSIENT_DT_NS,
    FAULT_TRANSIENT_SIM_US, FAULT_TRANSIENT_WINDOW_US,
};
use vpd_units::{CurrentDensity, Hertz, Seconds, Volts, Watts};

use crate::gen::Input;
use crate::trace::Tracer;

/// The served defaults (`vpd serve`): a 32-entry cache over 2 workers.
const SERVED_CACHE: usize = 32;
const SERVED_WORKERS: usize = 2;

/// The dispatcher the replay drives, as worker 0 of a served pool.
fn served_dispatcher() -> Dispatcher {
    Dispatcher::with_workers(SERVED_CACHE, SERVED_WORKERS)
}

/// Per-request layer times of the serve path, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReqTimes {
    pub parse: u64,
    pub key: u64,
    pub dispatch: u64,
    pub render: u64,
    pub bytes: usize,
    /// `core.wrapped` of the same request.
    pub core_wrapped: u64,
}

impl ReqTimes {
    /// In-process cost of the request: parse + key + dispatch + render.
    pub fn in_process(&self) -> u64 {
        self.parse + self.key + self.dispatch + self.render
    }
}

pub struct Replay {
    pub tracer: Tracer,
    /// One entry per replayed input, in order.
    pub times: Vec<ReqTimes>,
    /// Wall time of the serve-path part (sum of `request` spans), ns.
    pub serve_path_ns: u64,
    /// obs counters over the measured requests (after `warmup`).
    pub obs: MetricsSnapshot,
    pub cache: CacheStats,
    pub errors: Vec<String>,
}

/// Runs the serve path over `inputs` without spans or obs: the
/// untraced baseline for `trace.overhead_frac`, and the in-process cost
/// the server's residual is measured against. Returns each request's
/// parse + key + dispatch + render time and the total, ns.
pub fn untraced(inputs: &[Input]) -> (Vec<u64>, u64) {
    vpd_obs::set_enabled(false);
    let dispatcher = served_dispatcher();
    let mut each = Vec::with_capacity(inputs.len());
    let t0 = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        let t = Instant::now();
        if let Ok(req) = Request::parse_line(&input.line(i as u64)) {
            black_box(ScenarioKey::from_work(&req.work));
            for resp in dispatch_docs(&dispatcher, &req) {
                black_box(resp.to_json().to_string());
            }
        }
        each.push(t.elapsed().as_nanos() as u64);
    }
    (each, t0.elapsed().as_nanos() as u64)
}

/// The traced replay. Requests before `warmup` build the working set;
/// obs counters are reported over the rest.
pub fn traced(inputs: &[Input], warmup: usize) -> Replay {
    let dispatcher = served_dispatcher();
    let mut engines = Engines::default();
    let mut t = Tracer::new();
    let mut times = Vec::with_capacity(inputs.len());
    let mut errors = Vec::new();
    let mut serve_path_ns = 0;
    vpd_obs::reset();
    let mut before = vpd_obs::snapshot();
    for (i, input) in inputs.iter().enumerate() {
        if i == warmup {
            before = vpd_obs::snapshot();
        }
        let req_id = i as u64;
        let line = input.line(req_id);
        let mut rt = ReqTimes::default();
        // Alternate which of the two trees runs first, so warm caches
        // favour neither side of `dispatch - core.wrapped`.
        let core_first = i % 2 == 1;
        if core_first {
            if let Ok(req) = Request::parse_line(&line) {
                rt.core_wrapped =
                    replay_core(&mut t, req_id, &req.work, input, &mut engines, &mut errors);
            }
        }

        // The serve path, with the program's obs counters on.
        vpd_obs::set_enabled(true);
        let root = t.begin("request", req_id);
        let p = t.begin("serve.proto.parse", req_id);
        let parsed = Request::parse_line(&line);
        t.end(p);
        let Ok(req) = parsed else {
            t.end(root);
            vpd_obs::set_enabled(false);
            errors.push(format!("request {i} does not parse"));
            times.push(rt);
            continue;
        };
        let k = t.begin("serve.cache.key", req_id);
        black_box(ScenarioKey::from_work(&req.work));
        t.end(k);
        let d = t.begin("serve.engine.dispatch", req_id);
        let responses = dispatch_docs(&dispatcher, &req);
        t.end(d);
        let r = t.begin("report.render", req_id);
        let lines: Vec<String> = responses
            .iter()
            .map(|resp| resp.to_json().to_string())
            .collect();
        t.end(r);
        t.end(root);
        vpd_obs::set_enabled(false);
        let failed = |l: &&String| crate::oracle::parse_record(l).is_none_or(|rec| !rec.ok);
        if let Some(bad) = lines.iter().find(failed) {
            errors.push(format!("request {i}: {bad:.160}"));
        }
        let spans = t.spans();
        rt.bytes = lines.iter().map(|l| l.len() + 1).sum();
        rt.parse = spans[p].dur_ns();
        rt.key = spans[k].dur_ns();
        rt.dispatch = spans[d].dur_ns();
        rt.render = spans[r].dur_ns();
        serve_path_ns += spans[root].dur_ns();

        if !core_first {
            rt.core_wrapped =
                replay_core(&mut t, req_id, &req.work, input, &mut engines, &mut errors);
        }
        times.push(rt);
    }
    let after = vpd_obs::snapshot();
    Replay {
        tracer: t,
        times,
        serve_path_ns,
        obs: diff(&before, &after),
        cache: dispatcher.cache_stats(),
        errors,
    }
}

/// The `core.request` tree of one request; returns its `core.wrapped`
/// time, ns.
fn replay_core(
    t: &mut Tracer,
    req_id: u64,
    work: &Work,
    input: &Input,
    engines: &mut Engines,
    errors: &mut Vec<String>,
) -> u64 {
    let c = t.begin("core.request", req_id);
    if let Err(e) = core_replay(t, req_id, work, input.doc.as_deref(), engines) {
        errors.push(format!("core replay of request {req_id}: {e}"));
    }
    t.end(c);
    t.spans()[c + 1..]
        .iter()
        .filter(|sp| sp.name == "core.wrapped" && sp.parent == Some(c))
        .map(|sp| sp.dur_ns())
        .sum()
}

/// Runs the dispatch half of the serve path, returning responses still
/// unserialized so rendering is timed on its own.
fn dispatch_docs(dispatcher: &Dispatcher, req: &Request) -> Vec<Response> {
    let kind = req.work.kind();
    match &req.work {
        Work::TransientStream { arch, chunk } => {
            let mut out = Vec::new();
            match dispatcher.begin_transient_stream_on(0, *arch, *chunk) {
                Ok(mut run) => {
                    let mut seq = 0;
                    loop {
                        match run.next_chunk() {
                            Ok(Some(doc)) => {
                                out.push(Response::stream(
                                    req.id,
                                    kind,
                                    run.cached(),
                                    seq,
                                    false,
                                    doc,
                                ));
                                seq += 1;
                            }
                            Ok(None) => {
                                out.push(Response::stream(
                                    req.id,
                                    kind,
                                    run.cached(),
                                    seq,
                                    true,
                                    run.finish(),
                                ));
                                break;
                            }
                            Err((code, msg)) => {
                                out.push(Response::error(req.id, code, msg));
                                break;
                            }
                        }
                    }
                }
                Err((code, msg)) => out.push(Response::error(req.id, code, msg)),
            }
            out
        }
        work => vec![match dispatcher.dispatch_on(0, work) {
            Ok((doc, cached)) => Response::ok(req.id, kind, cached, doc),
            Err((code, msg)) => Response::error(req.id, code, msg),
        }],
    }
}

fn diff(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = after.clone();
    for (name, v) in &mut out.counters {
        *v -= before.counter(name).unwrap_or(0);
    }
    for h in &mut out.histograms {
        if let Some(b) = before.histogram(&h.name) {
            h.count -= b.count;
            h.sum -= b.sum;
        }
    }
    out
}

enum Engine {
    Session(Box<AnalysisSession>),
    Sharing(Box<SharingSolver>),
    /// `droop` caches its finished document: a hit runs no engine.
    DroopDone,
    Transient(Box<DroopScenario>),
    Impedance(Box<ImpedanceSweep>),
    Faults(Box<FaultSweep>),
    FaultImpedance(Box<FaultImpedanceSweep>),
    FaultTransient(Box<FaultTransientSweep>),
}

/// The benchmark's mirror of the scenario cache: least recently used,
/// holding at most what the replayed dispatcher holds. That dispatcher
/// is worker 0 of the served pool, so it keeps its entries in its own
/// shard of `SERVED_CACHE / SERVED_WORKERS`. On serve-cold, where
/// every document is new, the mirror therefore evicts as the server
/// does, and the replay runs with the server's working set.
#[derive(Default)]
struct Engines {
    /// Each entry with the tick of its last check-in.
    map: HashMap<ScenarioKey, (u64, Engine)>,
    tick: u64,
}

impl Engines {
    const CAPACITY: usize = SERVED_CACHE / SERVED_WORKERS;

    fn take(&mut self, key: &ScenarioKey) -> Option<Engine> {
        self.map.remove(key).map(|(_, e)| e)
    }

    fn put(&mut self, key: ScenarioKey, engine: Engine) {
        self.tick += 1;
        self.map.insert(key, (self.tick, engine));
        if self.map.len() > Self::CAPACITY {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
                .expect("the map is over capacity, so not empty");
            self.map.remove(&oldest);
        }
    }
}

fn fail(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn faults_span(random_k: Option<usize>) -> &'static str {
    if random_k.is_some() {
        "core.faults_randomk"
    } else {
        "core.faults_n1"
    }
}

fn scenarios(
    random_k: Option<usize>,
    count: usize,
    seed: u64,
    vrs: usize,
    side: usize,
) -> Vec<FaultScenario> {
    match random_k {
        None => FaultScenario::n_minus_1(vrs),
        Some(k) => FaultScenario::random_k(k, count, seed, vrs, side),
    }
}

#[allow(clippy::too_many_lines)]
fn core_replay(
    t: &mut Tracer,
    req: u64,
    work: &Work,
    doc_text: Option<&str>,
    engines: &mut Engines,
) -> Result<(), String> {
    let spec = SystemSpec::paper_default();
    let calib = Calibration::paper_default();
    let key = ScenarioKey::from_work(work);
    let wrapped = |t: &mut Tracer, f: &mut dyn FnMut(&mut Tracer) -> Result<(), String>| {
        t.time("core.wrapped", req, |t| f(t))
    };
    let droop_window = (
        Seconds::from_microseconds(60.0),
        Seconds::from_nanoseconds(10.0),
    );
    match work {
        Work::Ping | Work::Stats | Work::Kinds | Work::Shutdown | Work::Survival { .. } => Ok(()),
        Work::Analyze {
            arch,
            topology,
            power_w,
            density,
        } => {
            let spec = SystemSpec::new(
                Volts::new(48.0),
                Volts::new(1.0),
                Watts::new(*power_w),
                CurrentDensity::from_amps_per_square_millimeter(*density),
            )
            .map_err(fail)?;
            let key = key.expect("analyze has a key");
            wrapped(t, &mut |t| {
                let mut s = session(t, req, engines, &key, *arch, &spec, &calib)?;
                let out = t.time("core.analyze", req, |_| s.analyze(*topology, &calib));
                if out.is_ok() {
                    s.anchor();
                }
                engines.put(key.clone(), Engine::Session(s));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::Mc {
            arch,
            topology,
            samples,
            seed,
            threads,
        } => {
            let key = key.expect("mc has a key");
            wrapped(t, &mut |t| {
                let mut s = session(t, req, engines, &key, *arch, &spec, &calib)?;
                let settings = McSettings {
                    samples: *samples,
                    seed: *seed,
                    threads: *threads,
                    ..McSettings::default()
                };
                let out = t.time("core.mc", req, |_| {
                    run_tolerance_with(&mut s, *topology, &calib, &settings)
                });
                engines.put(key.clone(), Engine::Session(s));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::Sharing { placement, modules } => {
            let key = key.expect("sharing has a key");
            wrapped(t, &mut |t| {
                let mut solver = match engines.take(&key) {
                    Some(Engine::Sharing(s)) => s,
                    _ => Box::new(t.time("core.session_build", req, |_| {
                        SharingSolver::builder(&spec, &calib)
                            .placement(*placement)
                            .modules(*modules)
                            .build()
                            .map_err(fail)
                    })?),
                };
                let out = t.time("core.sharing", req, |_| solver.solve());
                if out.is_ok() {
                    solver.anchor_last();
                }
                engines.put(key.clone(), Engine::Sharing(solver));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::SharingSweep {
            placement,
            modules,
            setpoints,
        } => {
            let key = key.expect("sharing_sweep has a key");
            let volts: Vec<Volts> = setpoints.iter().map(|&v| Volts::new(v)).collect();
            wrapped(t, &mut |t| {
                let mut solver = match engines.take(&key) {
                    Some(Engine::Sharing(s)) => s,
                    _ => Box::new(t.time("core.session_build", req, |_| {
                        let mut s = SharingSolver::builder(&spec, &calib)
                            .placement(*placement)
                            .modules(*modules)
                            .build()
                            .map_err(fail)?;
                        s.set_solve_mode(DcPlanMode::DirectCholesky).map_err(fail)?;
                        Ok::<_, String>(s)
                    })?),
                };
                let out = t.time("core.sharing_sweep", req, |_| {
                    solver.solve_setpoints(&volts)
                });
                if out.is_ok() {
                    solver.anchor_last();
                }
                engines.put(key.clone(), Engine::Sharing(solver));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::Droop { arch } => {
            let key = key.expect("droop has a key");
            wrapped(t, &mut |t| {
                if let Some(Engine::DroopDone) = engines.take(&key) {
                    engines.put(key.clone(), Engine::DroopDone);
                    return Ok(());
                }
                let mut sc = t.time("core.engine_build", req, |_| {
                    DroopScenario::new(
                        &PdnModel::for_architecture(*arch),
                        &LoadStep::paper_default(&spec),
                        droop_window.0,
                        droop_window.1,
                    )
                    .map_err(fail)
                })?;
                let out = t.time("core.droop", req, |_| sc.run());
                engines.put(key.clone(), Engine::DroopDone);
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::TransientStream { arch, chunk } => {
            let key = key.expect("transient_stream has a key");
            wrapped(t, &mut |t| {
                let mut sc = match engines.take(&key) {
                    Some(Engine::Transient(s)) => s,
                    _ => Box::new(t.time("core.engine_build", req, |_| {
                        DroopScenario::new(
                            &PdnModel::for_architecture(*arch),
                            &LoadStep::paper_default(&spec),
                            droop_window.0,
                            droop_window.1,
                        )
                        .map_err(fail)
                    })?),
                };
                let out = t.time("core.droop_stream", req, |_| {
                    sc.start();
                    while !sc.finished() {
                        sc.advance(*chunk)?;
                    }
                    Ok::<_, vpd_core::CoreError>(sc.report())
                });
                engines.put(key.clone(), Engine::Transient(sc));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::Impedance {
            arch,
            fmin_hz,
            fmax_hz,
            points,
            ..
        } => {
            let key = key.expect("impedance has a key");
            let settings = ImpedanceSweepSettings {
                fmin: Hertz::new(*fmin_hz),
                fmax: Hertz::new(*fmax_hz),
                points: *points,
                threads: 0,
            };
            wrapped(t, &mut |t| {
                let sweep = match engines.take(&key) {
                    Some(Engine::Impedance(s)) => s,
                    _ => Box::new(t.time("core.engine_build", req, |_| {
                        ImpedanceSweep::for_architecture(*arch, &spec).map_err(fail)
                    })?),
                };
                let out = t.time("core.impedance", req, |_| sweep.run(&settings));
                engines.put(key.clone(), Engine::Impedance(sweep));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::Faults {
            arch,
            topology,
            random_k,
            count,
            seed,
        } => {
            let key = key.expect("faults has a key");
            wrapped(t, &mut |t| {
                let sweep = match engines.take(&key) {
                    Some(Engine::Faults(s)) => s,
                    _ => Box::new(t.time("core.engine_build", req, |_| {
                        FaultSweep::new(*arch, *topology, &spec, &calib).map_err(fail)
                    })?),
                };
                let sc = scenarios(
                    *random_k,
                    *count,
                    *seed,
                    sweep.vr_count(),
                    sweep.grid_side(),
                );
                let out = t.time(faults_span(*random_k), req, |_| sweep.run(&sc, 0));
                engines.put(key.clone(), Engine::Faults(sweep));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
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
            let key = key.expect("fault_impedance has a key");
            let grid = ImpedanceSweepSettings {
                fmin: Hertz::new(*fmin_hz),
                fmax: Hertz::new(*fmax_hz),
                points: *points,
                threads: 0,
            };
            wrapped(t, &mut |t| {
                let sweep = match engines.take(&key) {
                    Some(Engine::FaultImpedance(s)) => s,
                    _ => Box::new(t.time("core.engine_build", req, |_| {
                        FaultImpedanceSweep::new(*arch, &spec, &calib).map_err(fail)
                    })?),
                };
                let freqs = grid.frequencies().map_err(fail)?;
                let sc = scenarios(
                    *random_k,
                    *count,
                    *seed,
                    sweep.vr_count(),
                    sweep.grid_side(),
                );
                let out = t.time("core.fault_impedance", req, |_| sweep.run(&sc, &freqs, 0));
                engines.put(key.clone(), Engine::FaultImpedance(sweep));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::FaultTransient { arch, count } => {
            let key = key.expect("fault_transient has a key");
            wrapped(t, &mut |t| {
                let sweep = match engines.take(&key) {
                    Some(Engine::FaultTransient(s)) => s,
                    _ => Box::new(t.time("core.engine_build", req, |_| {
                        FaultTransientSweep::new(
                            *arch,
                            &PdnModel::for_architecture(*arch),
                            &LoadStep::paper_default(&spec),
                            Seconds::from_microseconds(FAULT_TRANSIENT_SIM_US),
                            Seconds::from_nanoseconds(FAULT_TRANSIENT_DT_NS),
                        )
                        .map_err(fail)
                    })?),
                };
                let sc = VrFailureScenario::grid(
                    *count,
                    Seconds::from_microseconds(FAULT_TRANSIENT_WINDOW_US),
                );
                let out = t.time("core.fault_transient", req, |_| sweep.run(&sc, 0));
                engines.put(key.clone(), Engine::FaultTransient(sweep));
                out.map(black_box).map(|_| ()).map_err(fail)
            })
        }
        Work::Scenario { .. } => {
            let text = doc_text.ok_or("scenario input carries no document text")?;
            let doc = t
                .time("scenario.parse", req, |_| ScenarioDoc::parse(text))
                .map_err(fail)?;
            wrapped(t, &mut |t| {
                let scenario = t
                    .time("scenario.compile", req, |_| doc.compile())
                    .map_err(fail)?;
                let hash = t.time("scenario.render", req, |_| doc.content_hash());
                let key = ScenarioKey {
                    kind: "scenario",
                    arch: String::new(),
                    params: vec![hash],
                };
                let mut s = match engines.take(&key) {
                    Some(Engine::Session(s)) => s,
                    _ => Box::new(
                        t.time("core.session_build", req, |_| scenario.session())
                            .map_err(fail)?,
                    ),
                };
                let out = t.time("core.analyze", req, |_| {
                    s.analyze(scenario.topology, &scenario.calibration)
                });
                if out.is_ok() {
                    s.anchor();
                }
                engines.put(key, Engine::Session(s));
                black_box(out.map_err(fail)?);
                if let Some(plan) = &scenario.faults {
                    let sweep = t.time("core.engine_build", req, |_| {
                        FaultSweep::new(
                            scenario.architecture,
                            scenario.topology,
                            &scenario.spec,
                            &scenario.calibration,
                        )
                        .map_err(fail)
                    })?;
                    let sc = scenarios(
                        plan.random_k,
                        plan.count,
                        plan.seed,
                        sweep.vr_count(),
                        sweep.grid_side(),
                    );
                    black_box(
                        t.time(faults_span(plan.random_k), req, |_| sweep.run(&sc, 0))
                            .map_err(fail)?,
                    );
                }
                Ok(())
            })
        }
    }
}

fn session(
    t: &mut Tracer,
    req: u64,
    engines: &mut Engines,
    key: &ScenarioKey,
    arch: Architecture,
    spec: &SystemSpec,
    calib: &Calibration,
) -> Result<Box<AnalysisSession>, String> {
    match engines.take(key) {
        Some(Engine::Session(s)) => Ok(s),
        _ => t
            .time("core.session_build", req, |_| {
                AnalysisSession::new(arch, spec, calib, &AnalysisOptions::default())
            })
            .map(Box::new)
            .map_err(fail),
    }
}
