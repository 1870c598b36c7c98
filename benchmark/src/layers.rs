//! The per-layer table of a traced run.
//!
//! Every metric named in `benchmark/README.md` is written to the run
//! record. The printed `per_layer` set is the part every workload
//! measures: a layer that a workload bypasses (for example `scenario`
//! on `sweep-a2`) would print a constant 0, so per-kind and bypassable
//! timings stay in the record only.

use std::fs;

use vpd_obs::MetricsSnapshot;
use vpd_report::Json;

use crate::gen::Input;
use crate::replay::{self, ReqTimes};
use crate::stats::{median, percentile, sorted};
use crate::trace::totals_by_name;
use crate::{wire, Args, Metric, Outcome};

/// What the traced run's wire pass measured.
pub struct Wire {
    /// Send-time round trip of each measured request, ms, in replay
    /// order (`None` when it never completed).
    pub round_trip_ms: Vec<Option<f64>>,
    pub offered_rps: f64,
    pub lag_p99_ms: Option<f64>,
    /// Requests the server saw (warm-up included) and how many of them
    /// were `sharing_sweep`.
    pub requests: f64,
    pub sharing_sweeps: f64,
    /// `stats`: (hits, misses, evictions, coalesced).
    pub stats: (f64, f64, f64, f64),
}

/// Campaign passes, for attributing the median wire pass to `core`.
pub struct Passes {
    pub per_pass: usize,
    pub median_wire_pass_ms: f64,
}

/// Core calls that run an analysis (the builds are counted apart).
const CORE_RUNS: [(&str, &str); 11] = [
    ("core.analyze", "core.analyze_ms"),
    ("core.sharing", "core.sharing_ms"),
    ("core.sharing_sweep", "core.sharing_sweep_ms"),
    ("core.droop", "core.droop_ms"),
    ("core.droop_stream", "core.droop_stream_ms"),
    ("core.mc", "core.mc_ms"),
    ("core.impedance", "core.impedance_ms"),
    ("core.faults_n1", "core.faults_n1_ms"),
    ("core.faults_randomk", "core.faults_randomk_ms"),
    ("core.fault_impedance", "core.fault_impedance_ms"),
    ("core.fault_transient", "core.fault_transient_ms"),
];

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn hist_sum(s: &MetricsSnapshot, name: &str) -> f64 {
    s.histogram(name).map_or(0.0, |h| h.sum as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A table row: the metric and whether it is printed.
type Row = (Metric, bool);

/// Replays `inputs` (the first `warmup` build the working set) and
/// fills the printed per-layer metrics and the record's full table.
pub fn finish(
    o: &mut Outcome,
    args: &Args,
    workload: &str,
    inputs: &[Input],
    warmup: usize,
    wire: &Wire,
    passes: Option<Passes>,
) -> Result<(), String> {
    let (rows, rep) = table(o, args, workload, inputs, warmup, wire)?;
    o.metrics = rows.iter().filter(|r| r.1).map(|r| r.0).collect();
    o.record.push((
        "per_layer_table",
        Json::Array(
            rows.iter()
                .map(|((name, value, unit), printed)| {
                    Json::obj([
                        ("name", Json::from(*name)),
                        ("value", Json::from(*value)),
                        ("unit", Json::from(*unit)),
                        ("printed", Json::from(*printed)),
                    ])
                })
                .collect(),
        ),
    ));
    if let Some(p) = passes {
        // Attribution of the median pass: core self time per pass
        // against the served pass.
        let totals = totals_by_name(rep.tracer.spans(), |s| s.req as usize >= warmup);
        let passes_replayed = (inputs.len() - warmup) as f64 / p.per_pass as f64;
        let core_ms: f64 = totals
            .iter()
            .filter(|(name, _)| {
                name.starts_with("core.") && !matches!(**name, "core.request" | "core.wrapped")
            })
            .map(|(_, t)| t.2 as f64 / 1e6)
            .sum::<f64>()
            / passes_replayed;
        o.record.push((
            "sweep_pass_attribution",
            Json::obj([
                ("median_wire_pass_ms", Json::from(p.median_wire_pass_ms)),
                ("core_self_ms_per_pass", Json::from(core_ms)),
                ("residual_ms", Json::from(p.median_wire_pass_ms - core_ms)),
                (
                    "residual_share",
                    Json::from((p.median_wire_pass_ms - core_ms) / p.median_wire_pass_ms),
                ),
            ]),
        ));
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn table(
    o: &mut Outcome,
    args: &Args,
    workload: &str,
    inputs: &[Input],
    warmup: usize,
    wire: &Wire,
) -> Result<(Vec<Row>, replay::Replay), String> {
    let (untraced_each, untraced_ns) = replay::untraced(inputs);
    let rep = replay::traced(inputs, warmup);
    for e in &rep.errors {
        o.count(Err(format!("replay: {e}")));
    }
    let path = wire::out_dir().join(format!("{workload}-seed{}-spans.ndjson", args.seed));
    let mut file = std::io::BufWriter::new(
        fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    rep.tracer
        .write_ndjson(&mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    o.record
        .push(("spans_file", Json::from(path.to_string_lossy().as_ref())));

    let measured: &[ReqTimes] = &rep.times[warmup..];
    let n = measured.len().max(1) as f64;
    let replayed: Vec<&Input> = inputs[warmup..].iter().collect();
    crate::workloads::shape_record(
        o,
        &replayed,
        measured.iter().map(|t| t.bytes as f64).sum::<f64>() / n,
    );
    let per_req_us = |f: &dyn Fn(&ReqTimes) -> f64| measured.iter().map(f).sum::<f64>() / n / 1e3;
    let in_process_ms = sorted(
        &measured
            .iter()
            .map(|t| t.in_process() as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let p50 = |v: &[f64]| percentile(v, 50.0).or_else(|| median(v)).unwrap_or(0.0);
    // The server's residual, paired per request: round trip minus the
    // untraced in-process cost of the same request, so the request mix
    // and the tracing overhead cancel.
    let paired: Vec<f64> = wire
        .round_trip_ms
        .iter()
        .zip(&untraced_each[warmup..])
        .filter_map(|(rt, own)| rt.map(|rt| rt - *own as f64 / 1e6))
        .collect();
    let residual_us = p50(&sorted(&paired)) * 1e3;
    let round_trip_sorted = sorted(
        &wire
            .round_trip_ms
            .iter()
            .flatten()
            .copied()
            .collect::<Vec<_>>(),
    );

    let totals_measured = totals_by_name(rep.tracer.spans(), |s| s.req as usize >= warmup);
    let totals_all = totals_by_name(rep.tracer.spans(), |_| true);
    let per_call_ms = |totals: &std::collections::BTreeMap<&'static str, (u64, u64, u64)>,
                       name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.2 as f64, t.0 as f64) / 1e6)
    };
    let core_run_ms = CORE_RUNS
        .iter()
        .map(|(span, _)| totals_measured.get(span).map_or(0.0, |t| t.2 as f64))
        .sum::<f64>()
        / n
        / 1e6;
    let obs = &rep.obs;
    let (hits, misses, evictions, coalesced) = wire.stats;

    let mut rows: Vec<Row> = vec![
        (
            (
                "serve.proto.parse_us",
                per_req_us(&|t| t.parse as f64),
                "us",
            ),
            true,
        ),
        (
            ("serve.cache.key_us", per_req_us(&|t| t.key as f64), "us"),
            true,
        ),
        (
            (
                "serve.engine.self_us",
                per_req_us(&|t| t.dispatch as f64 - t.core_wrapped as f64),
                "us",
            ),
            true,
        ),
        (("serve.server.residual_us", residual_us, "us"), true),
        (
            ("serve.cache.hit_frac", ratio(hits, hits + misses), "ratio"),
            true,
        ),
        (
            (
                "serve.cache.evictions_per_req",
                ratio(evictions, wire.requests),
                "count",
            ),
            true,
        ),
        (
            (
                "serve.batch.coalesced_frac",
                ratio(coalesced, wire.sharing_sweeps),
                "ratio",
            ),
            true,
        ),
        (
            ("report.render_us", per_req_us(&|t| t.render as f64), "us"),
            true,
        ),
        (
            (
                "report.bytes_per_resp",
                per_req_us(&|t| t.bytes as f64) * 1e3,
                "bytes",
            ),
            true,
        ),
        (
            (
                "scenario.parse_us",
                per_call_ms(&totals_measured, "scenario.parse") * 1e3,
                "us",
            ),
            false,
        ),
        (
            (
                "scenario.render_us",
                per_call_ms(&totals_measured, "scenario.render") * 1e3,
                "us",
            ),
            false,
        ),
        (
            (
                "scenario.compile_us",
                per_call_ms(&totals_measured, "scenario.compile") * 1e3,
                "us",
            ),
            false,
        ),
        (
            (
                "core.session_build_ms",
                per_call_ms(&totals_all, "core.session_build"),
                "ms",
            ),
            true,
        ),
        (
            (
                "core.engine_build_ms",
                per_call_ms(&totals_all, "core.engine_build"),
                "ms",
            ),
            true,
        ),
        (("core.run_ms", core_run_ms, "ms"), true),
    ];
    for (span, metric) in CORE_RUNS {
        rows.push(((metric, per_call_ms(&totals_measured, span), "ms"), false));
    }
    rows.extend([
        (
            (
                "core.par.workers_per_job",
                ratio(counter(obs, "par.workers"), counter(obs, "par.jobs")),
                "ratio",
            ),
            true,
        ),
        (
            (
                "circuit.compiles_per_req",
                (counter(obs, "plan.compiles")
                    + counter(obs, "grid.plan_compiles")
                    + counter(obs, "ac.plan_builds")
                    + counter(obs, "transient.plan_builds"))
                    / n,
                "count",
            ),
            true,
        ),
        (
            (
                "circuit.restamps_per_req",
                counter(obs, "plan.restamps") / n,
                "count",
            ),
            true,
        ),
        (
            (
                "circuit.ac_points_per_req",
                counter(obs, "ac.points") / n,
                "count",
            ),
            true,
        ),
        (
            (
                "circuit.transient_steps_per_req",
                counter(obs, "transient.steps") / n,
                "count",
            ),
            true,
        ),
        (
            (
                "circuit.factor_us",
                (hist_sum(obs, "ac.factor_ns") + hist_sum(obs, "transient.factor_ns")) / n / 1e3,
                "us",
            ),
            false,
        ),
        (
            (
                "numeric.cg_iters_per_solve",
                ratio(counter(obs, "cg.iterations"), counter(obs, "cg.solves")),
                "ratio",
            ),
            true,
        ),
        (
            (
                "numeric.cg_warm_hit_frac",
                ratio(counter(obs, "cg.warm_hits"), counter(obs, "cg.solves")),
                "ratio",
            ),
            true,
        ),
        (
            (
                "numeric.direct_solves_per_req",
                (counter(obs, "solve.sparse_cholesky") + counter(obs, "plan.block_solves")) / n,
                "count",
            ),
            true,
        ),
        (
            (
                "numeric.fallbacks",
                counter(obs, "solve.fallbacks") + counter(obs, "faults.fallbacks"),
                "count",
            ),
            true,
        ),
        (("loadgen.offered_rps", wire.offered_rps, "1/s"), true),
        (
            ("loadgen.lag_p99_ms", wire.lag_p99_ms.unwrap_or(0.0), "ms"),
            false,
        ),
        (
            (
                "trace.overhead_frac",
                (rep.serve_path_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
                "ratio",
            ),
            true,
        ),
    ]);

    // The serve-path decomposition of the round-trip p50.
    let p50_of = |f: &dyn Fn(&ReqTimes) -> f64| {
        p50(&sorted(
            &measured.iter().map(|t| f(t) / 1e3).collect::<Vec<_>>(),
        ))
    };
    o.record.push((
        "p50_decomposition_us",
        Json::obj([
            ("round_trip", Json::from(p50(&round_trip_sorted) * 1e3)),
            ("parse", Json::from(p50_of(&|t| t.parse as f64))),
            ("key", Json::from(p50_of(&|t| t.key as f64))),
            ("dispatch", Json::from(p50_of(&|t| t.dispatch as f64))),
            ("render", Json::from(p50_of(&|t| t.render as f64))),
            ("in_process", Json::from(p50(&in_process_ms) * 1e3)),
            ("server_residual", Json::from(residual_us)),
        ]),
    ));
    o.record.push((
        "replay",
        Json::obj([
            ("requests", Json::from(inputs.len())),
            ("warmup", Json::from(warmup)),
            ("untraced_ms", Json::from(untraced_ns as f64 / 1e6)),
            (
                "traced_serve_path_ms",
                Json::from(rep.serve_path_ns as f64 / 1e6),
            ),
            ("dispatcher_cache_hits", Json::from(rep.cache.hits as usize)),
            (
                "dispatcher_cache_misses",
                Json::from(rep.cache.misses as usize),
            ),
        ]),
    ));
    Ok((rows, rep))
}
