//! The three workloads. Each untraced run measures end-to-end metrics
//! through `vpd serve`'s NDJSON/TCP protocol; each traced run replays
//! the same generated inputs in-process for the per-layer table.
//!
//! | workload     | loop                              | stresses                             |
//! |--------------|-----------------------------------|--------------------------------------|
//! | `serve-warm` | open loop, 600 req/s, 16 keys     | serve event loop, cache hits, render |
//! | `serve-cold` | open loop, 90 req/s, unique docs  | scenario parse/compile, cold solves  |
//! | `sweep-a2`   | closed loop, 1 connection         | numeric, circuit and core engines    |
//!
//! The serve workloads' closed-loop throughput phase on two connections
//! replaces a max-rate search: the rate search needs several probes per
//! run and moves with p99 noise.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vpd_report::Json;

use crate::gen::{self, Input};
use crate::oracle::{check_records, fig7_anchor, Expected, Oracle};
use crate::stats::{median, percentile, sorted, summarize_open_loop, window_rates};
use crate::wire::{self, servers_peak_rss_mib, ServerProc};
use crate::{layers, Args, Outcome};

/// Fresh set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Samples a p99 needs so that ten lie beyond it.
const MIN_SAMPLES: usize = 1000;
/// Open-loop offered rates, req/s: well below capacity on 2 vCPUs even
/// when the host takes a third of their time, so queueing does not
/// multiply host noise into the latencies.
const WARM_RATE: f64 = 600.0;
const COLD_RATE: f64 = 90.0;
/// Share of `--seconds` spent in the open-loop phase; the closed-loop
/// throughput phase gets the rest.
const OPEN_SHARE: f64 = 0.6;
/// Closed-loop throughput is the median over this many equal windows.
const WINDOWS: usize = 10;
/// Cold warm-up documents per serve-cold set-up.
const COLD_WARMUP_DOCS: u64 = 16;
/// Share of `--seconds` the traced sweep-a2 run spends on served
/// passes of the campaign, and the fewest passes it makes; the
/// in-process replays then repeat the same number of passes.
const SWEEP_TRACE_SHARE: f64 = 0.4;
const MIN_TRACE_PASSES: usize = 3;

pub fn run(args: &Args, workload: &str) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let anchor = fig7_anchor(&vpd_serve::Dispatcher::new(0));
    o.count(anchor.map_err(|e| format!("Fig. 7 anchor: {e}")));
    match (workload, args.trace) {
        ("serve-warm" | "serve-cold", false) => serve_open(args, workload, &mut o)?,
        ("serve-warm" | "serve-cold", true) => serve_open_traced(args, workload, &mut o)?,
        ("sweep-a2", false) => sweep(args, &mut o)?,
        ("sweep-a2", true) => sweep_traced(args, &mut o)?,
        _ => return Err(format!("unknown workload {workload}")),
    }
    Ok(o)
}

fn log_path(args: &Args, workload: &str, tag: &str) -> PathBuf {
    wire::out_dir().join(format!("{workload}-seed{}-{tag}.log", args.seed))
}

/// Checks one request's records against the oracle, memoized.
fn check(oracle: &mut Oracle, input: &Input, records: &[String]) -> Result<(), String> {
    match oracle.expected(input) {
        Ok(expected) => check_records(records, expected),
        Err(e) => Err(format!("generated input the oracle does not answer: {e}")),
    }
}

/// Cold-oracle results for many distinct inputs, on two threads while
/// nothing else runs.
fn oracle_parallel(inputs: &[Input]) -> Vec<Result<Expected, String>> {
    let half = inputs.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = inputs
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    let cold = vpd_serve::Dispatcher::new(0);
                    part.iter()
                        .map(|i| crate::oracle::expected_for(&cold, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

fn check_against(expected: &Result<Expected, String>, records: &[String]) -> Result<(), String> {
    match expected {
        Ok(e) => check_records(records, e),
        Err(e) => Err(format!("generated input the oracle does not answer: {e}")),
    }
}

/// The serve workloads' measured inputs: the open-loop sequence, and
/// the closed-loop sequence of each connection.
struct ServeInputs {
    rate: f64,
    open: Vec<Input>,
    closed: Box<dyn Fn(usize, u64) -> Input + Sync>,
}

fn serve_inputs(args: &Args, workload: &str) -> ServeInputs {
    let seed = args.seed;
    let open_s = args.seconds * OPEN_SHARE;
    if workload == "serve-warm" {
        let set = gen::warm_set(seed);
        let n = ((WARM_RATE * open_s) as usize).max(MIN_SAMPLES);
        let open = (0..n as u64)
            .map(|i| set.lines[set.request(seed, 0, i)].clone())
            .collect();
        ServeInputs {
            rate: WARM_RATE,
            open,
            closed: Box::new(move |c, k| set.lines[set.request(seed, 1 + c as u64, k)].clone()),
        }
    } else {
        let n = ((COLD_RATE * open_s) as usize).max(MIN_SAMPLES);
        ServeInputs {
            rate: COLD_RATE,
            open: (0..n as u64).map(|i| gen::cold_doc(seed, 0, i)).collect(),
            closed: Box::new(move |c, k| gen::cold_doc(seed, 1 + c as u64, k)),
        }
    }
}

/// The warm-up pass of set-up `setup`: every serve-warm line, or fresh
/// serve-cold documents for each set-up.
fn serve_warmup(args: &Args, workload: &str, setup: u64) -> Vec<Input> {
    if workload == "serve-warm" {
        gen::warm_set(args.seed).lines
    } else {
        (0..COLD_WARMUP_DOCS)
            .map(|i| gen::warmup_doc(args.seed, setup, i))
            .collect()
    }
}

/// Starts `setups` fresh servers one after another, each warmed by
/// sending `warmup(k)` one request at a time, and checks every warm-up
/// reply. Returns the last server, still running, and each set-up's
/// time: server start plus its warm-up pass.
fn warm_server(
    args: &Args,
    workload: &str,
    setups: usize,
    warmup: &dyn Fn(u64) -> Vec<Input>,
    oracle: &mut Oracle,
    o: &mut Outcome,
) -> Result<(ServerProc, Vec<f64>), String> {
    let log = log_path(args, workload, "serve");
    let mut times = Vec::with_capacity(setups);
    let mut last: Option<ServerProc> = None;
    for k in 0..setups {
        if let Some(previous) = last.take() {
            previous.shutdown()?;
        }
        let inputs = warmup(k as u64);
        let t0 = Instant::now();
        let server = ServerProc::spawn(&args.vpd, &[], &log)?;
        let mut conn = server.connect()?;
        let records: Vec<Vec<String>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| conn.call(&input.line(i as u64)).unwrap_or_default())
            .collect();
        times.push(t0.elapsed().as_secs_f64());
        for (input, recs) in inputs.iter().zip(&records) {
            o.count(check(oracle, input, recs));
        }
        last = Some(server);
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// `stats` counters: (hits, misses, evictions, coalesced).
fn server_stats(server: &ServerProc) -> Result<(f64, f64, f64, f64), String> {
    let recs = server
        .connect()?
        .call("{\"id\":0,\"kind\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let doc = Json::parse(recs.last().ok_or("no stats record")?).map_err(|e| e.to_string())?;
    let result = doc.get("result").ok_or("stats has no result")?;
    let num = |a: &str, b: &str| {
        result
            .get(a)
            .and_then(|x| x.get(b))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok((
        num("cache", "hits"),
        num("cache", "misses"),
        num("cache", "evictions"),
        num("batch", "coalesced"),
    ))
}

/// Records the input shape later claims must cite: distinct cache keys
/// against the served capacity, the shares of requests carrying `.vpd`
/// documents and of batchable `sharing_sweep`, the document mesh-size
/// histogram, and the mean response size.
pub fn shape_record(o: &mut Outcome, inputs: &[&Input], mean_bytes: f64) {
    let n = inputs.len().max(1) as f64;
    let share =
        |pred: &dyn Fn(&Input) -> bool| inputs.iter().filter(|i| pred(i)).count() as f64 / n;
    let keys: BTreeSet<String> = inputs
        .iter()
        .filter_map(|i| vpd_serve::Request::parse_line(&i.line(0)).ok())
        .filter_map(|r| vpd_serve::ScenarioKey::from_work(&r.work))
        .map(|k| format!("{k:?}"))
        .collect();
    let hist = gen::grid_histogram(inputs.iter().copied());
    o.record.push((
        "input_shape",
        Json::obj([
            ("requests", Json::from(inputs.len())),
            ("distinct_cache_keys", Json::from(keys.len())),
            ("cache_capacity", Json::from("32 (2 shards of 16)")),
            (
                "vpd_document_share",
                Json::from(share(&|i| i.doc.is_some())),
            ),
            (
                "inline_document_share",
                Json::from(share(&|i| i.body.contains("\"doc\":"))),
            ),
            (
                "sharing_sweep_share",
                Json::from(share(&|i| i.kind == "sharing_sweep")),
            ),
            (
                "grid_histogram",
                Json::obj(hist.iter().map(|(g, c)| (g.to_string(), Json::from(*c)))),
            ),
            ("mean_response_bytes", Json::from(mean_bytes)),
        ]),
    ));
}

fn mean_bytes<'a>(records: impl Iterator<Item = &'a Vec<String>>) -> f64 {
    let (mut bytes, mut n) = (0usize, 0usize);
    for r in records {
        bytes += r.iter().map(|l| l.len() + 1).sum::<usize>();
        n += 1;
    }
    bytes as f64 / n.max(1) as f64
}

/// Median time of each position in a repeated pass, by kind, from the
/// times of whole passes in send order.
fn slot_medians(pass: &[Input], times: &[f64]) -> Json {
    Json::Array(
        pass.iter()
            .enumerate()
            .map(|(slot, i)| {
                let own: Vec<f64> = times
                    .iter()
                    .skip(slot)
                    .step_by(pass.len())
                    .copied()
                    .collect();
                Json::obj([(i.kind, Json::from(median(&own).unwrap_or(0.0)))])
            })
            .collect(),
    )
}

fn need_percentile(sorted: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, p).ok_or_else(|| {
        format!(
            "{what}: {} samples are too few for p{p} (10 must lie beyond it)",
            sorted.len()
        )
    })
}

// ------------------------------------------------------------ serve (open)

/// p50, p90 and p99 of sorted latencies (nearest rank, each with at
/// least ten samples beyond it).
fn percentiles(sorted: &[f64], what: &str) -> Result<[f64; 3], String> {
    Ok([
        need_percentile(sorted, 50.0, what)?,
        need_percentile(sorted, 90.0, what)?,
        need_percentile(sorted, 99.0, what)?,
    ])
}

/// Open-loop percentiles: the schedule is cut into consecutive windows
/// of at least [`MIN_SAMPLES`] requests each (so each window's p99 has
/// ten samples beyond it), and each percentile is the median over the
/// windows, so one disturbed stretch of a run cannot set it.
fn windowed_percentiles(samples: &[crate::stats::OpenLoopSample]) -> Result<[f64; 3], String> {
    let windows = (samples.len() / MIN_SAMPLES).max(1);
    let per = samples.len() / windows;
    let mut each = Vec::with_capacity(windows);
    for w in 0..windows {
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * per
        };
        let s = summarize_open_loop(&samples[w * per..end]);
        each.push(percentiles(&s.latency_ms, "open loop")?);
    }
    let at = |k: usize| median(&each.iter().map(|p| p[k]).collect::<Vec<_>>()).expect("a window");
    Ok([at(0), at(1), at(2)])
}

/// The end-to-end metrics. The p99 goes to the run record only: on a
/// shared host it is set by how often the hypervisor preempts a vCPU
/// for milliseconds (serve-warm's read 1.2-4.8 ms across ten runs of one
/// commit), so it cannot carry a bound; p90 can.
fn end_to_end(o: &mut Outcome, setup: &[f64], pct: [f64; 3], throughput: f64) {
    o.metrics = vec![
        ("setup_s", median(setup).expect("set-ups ran"), "s"),
        ("peak_rss_mib", servers_peak_rss_mib(), "MiB"),
        ("latency_p50_ms", pct[0], "ms"),
        ("latency_p90_ms", pct[1], "ms"),
        ("throughput_rps", throughput, "1/s"),
    ];
    o.record.push(("latency_p99_ms", Json::from(pct[2])));
}

/// A serve workload's open-loop phase: the last of `setups` fresh warm
/// servers, still running, and the open-loop schedule run on it with
/// every reply checked (a request never answered fails its check).
struct OpenRun {
    inputs: ServeInputs,
    oracle: Oracle,
    server: ServerProc,
    setup: Vec<f64>,
    run: wire::OpenLoopRun,
}

fn open_run(
    args: &Args,
    workload: &str,
    setups: usize,
    o: &mut Outcome,
) -> Result<OpenRun, String> {
    let inputs = serve_inputs(args, workload);
    let mut oracle = Oracle::new();
    // Cold documents are all distinct, so their oracle results are
    // computed up front, in parallel, before any server exists; warm
    // lines repeat and are memoized on first use.
    let expected = (workload == "serve-cold").then(|| oracle_parallel(&inputs.open));
    let (server, setup) = warm_server(
        args,
        workload,
        setups,
        &|k| serve_warmup(args, workload, k),
        &mut oracle,
        o,
    )?;
    let lines: Vec<String> = inputs
        .open
        .iter()
        .enumerate()
        .map(|(i, x)| x.line(i as u64))
        .collect();
    let run = wire::open_loop(server.connect()?, &lines, inputs.rate)?;
    for (i, recs) in run.records.iter().enumerate() {
        o.count(match &expected {
            Some(expected) => check_against(&expected[i], recs),
            None => check(&mut oracle, &inputs.open[i], recs),
        });
    }
    Ok(OpenRun {
        inputs,
        oracle,
        server,
        setup,
        run,
    })
}

fn serve_open(args: &Args, workload: &str, o: &mut Outcome) -> Result<(), String> {
    let OpenRun {
        inputs,
        mut oracle,
        server,
        setup,
        run,
    } = open_run(args, workload, SETUPS, o)?;
    let summary = summarize_open_loop(&run.samples);

    // Closed loop on two connections for throughput.
    let closed_len = Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE));
    let closed_fn = &inputs.closed;
    let line = move |c: usize, k: u64| closed_fn(c, k).line(k);
    let (start, samples) = wire::closed_loop(
        vec![server.connect()?, server.connect()?],
        &line,
        closed_len,
    );
    let (hits, misses, evictions, coalesced) = server_stats(&server)?;
    server.shutdown()?;

    let closed_inputs: Vec<Input> = samples.iter().map(|s| closed_fn(s.conn, s.k)).collect();
    let closed_expected = if workload == "serve-cold" {
        oracle_parallel(&closed_inputs)
    } else {
        closed_inputs
            .iter()
            .map(|i| oracle.expected(i).cloned().map_err(Clone::clone))
            .collect()
    };
    let mut completions = Vec::new();
    for (s, expected) in samples.iter().zip(&closed_expected) {
        let verdict = check_against(expected, &s.records);
        if verdict.is_ok() {
            completions.push(s.end);
        }
        o.count(verdict);
    }
    let rates = window_rates(&completions, start, closed_len, WINDOWS);

    end_to_end(
        o,
        &setup,
        windowed_percentiles(&run.samples)?,
        median(&rates).unwrap_or(0.0),
    );
    // Which kinds the slowest 1 % of open-loop requests were.
    let mut by_latency: Vec<(f64, &str)> = run
        .samples
        .iter()
        .zip(&inputs.open)
        .filter_map(|(s, i)| {
            s.done
                .map(|d| (d.duration_since(s.due).as_secs_f64() * 1e3, i.kind))
        })
        .collect();
    by_latency.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut tail_kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, kind) in by_latency.iter().take(by_latency.len() / 100) {
        *tail_kinds.entry(kind).or_default() += 1;
    }
    let all: Vec<&Input> = inputs.open.iter().chain(&closed_inputs).collect();
    shape_record(o, &all, mean_bytes(run.records.iter()));
    o.record.push((
        "diagnostics",
        Json::obj([
            (
                "setup_s_samples",
                Json::Array(setup.iter().map(|&x| Json::from(x)).collect()),
            ),
            ("offered_rps", Json::from(inputs.rate)),
            ("open_requests", Json::from(run.samples.len())),
            (
                "generator_lateness_p99_ms",
                percentile(&summary.lateness_ms, 99.0).map_or(Json::Null, Json::from),
            ),
            (
                "round_trip_p50_ms",
                percentile(&summary.round_trip_ms, 50.0).map_or(Json::Null, Json::from),
            ),
            (
                "open_tail_kinds",
                Json::obj(tail_kinds.iter().map(|(k, n)| (*k, Json::from(*n)))),
            ),
            (
                "open_tail_ms",
                Json::Array(
                    by_latency
                        .iter()
                        .take(40)
                        .map(|x| Json::from(x.0))
                        .collect(),
                ),
            ),
            ("closed_requests", Json::from(samples.len())),
            (
                "closed_window_rps",
                Json::Array(rates.iter().map(|&r| Json::from(r)).collect()),
            ),
            ("cache_hits", Json::from(hits)),
            ("cache_misses", Json::from(misses)),
            ("cache_evictions", Json::from(evictions)),
            ("batch_coalesced", Json::from(coalesced)),
        ]),
    ));
    Ok(())
}

fn serve_open_traced(args: &Args, workload: &str, o: &mut Outcome) -> Result<(), String> {
    // The wire pass: one set-up and the untraced run's open-loop
    // schedule, timed from send for the server's residual.
    let OpenRun {
        inputs,
        server,
        run,
        ..
    } = open_run(args, workload, 1, o)?;
    let stats = server_stats(&server)?;
    server.shutdown()?;
    let summary = summarize_open_loop(&run.samples);
    let sent: Vec<_> = run.samples.iter().map(|s| s.sent).collect();
    let offered =
        (sent.len() - 1) as f64 / sent[sent.len() - 1].duration_since(sent[0]).as_secs_f64();
    let warmup = serve_warmup(args, workload, 0);
    let sweeps = inputs
        .open
        .iter()
        .chain(&warmup)
        .filter(|i| i.kind == "sharing_sweep")
        .count();
    let wire = layers::Wire {
        round_trip_ms: run
            .samples
            .iter()
            .map(|s| s.done.map(|d| d.duration_since(s.sent).as_secs_f64() * 1e3))
            .collect(),
        offered_rps: offered,
        lag_p99_ms: percentile(&summary.lateness_ms, 99.0),
        requests: (inputs.open.len() + warmup.len()) as f64,
        sharing_sweeps: sweeps as f64,
        stats,
    };
    let replay_inputs: Vec<Input> = warmup.iter().chain(&inputs.open).cloned().collect();
    layers::finish(o, args, workload, &replay_inputs, warmup.len(), &wire, None)
}

// ------------------------------------------------------------------ sweep-a2

/// Whole passes of the campaign sent one request at a time on one
/// connection.
struct Passes {
    /// Each request's round trip, ms, in send order.
    latencies: Vec<f64>,
    /// Each pass's summed round trips, ms.
    passes: Vec<f64>,
    secs: f64,
}

/// Runs passes until `budget` has passed and at least `min_requests`
/// were sent, for at most five budgets, and checks every reply.
fn run_passes(
    server: &ServerProc,
    campaign: &[Input],
    budget: Duration,
    min_requests: usize,
    oracle: &mut Oracle,
    o: &mut Outcome,
) -> Result<Passes, String> {
    let mut conn = server.connect()?;
    let (mut latencies, mut passes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut id = 0u64;
    while (start.elapsed() < budget || latencies.len() < min_requests)
        && start.elapsed() < budget * 5
    {
        let mut pass = 0.0;
        let mut replies = Vec::with_capacity(campaign.len());
        for input in campaign {
            let t0 = Instant::now();
            let records = conn.call(&input.line(id)).unwrap_or_default();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            id += 1;
            pass += ms;
            latencies.push(ms);
            replies.push(records);
        }
        passes.push(pass);
        for (input, records) in campaign.iter().zip(&replies) {
            o.count(check(oracle, input, records));
        }
    }
    Ok(Passes {
        latencies,
        passes,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// The campaign, after checking that the oracle answers all of it.
fn checked_campaign(args: &Args, oracle: &mut Oracle) -> Result<Vec<Input>, String> {
    let campaign = gen::campaign(args.seed);
    for input in &campaign {
        if let Err(e) = oracle.expected(input) {
            return Err(format!("campaign input the oracle does not answer: {e}"));
        }
    }
    Ok(campaign)
}

fn sweep(args: &Args, o: &mut Outcome) -> Result<(), String> {
    let mut oracle = Oracle::new();
    let campaign = checked_campaign(args, &mut oracle)?;
    let (server, setup) = warm_server(
        args,
        "sweep-a2",
        SETUPS,
        &|_| campaign.clone(),
        &mut oracle,
        o,
    )?;
    let budget = Duration::from_secs_f64(args.seconds);
    let run = run_passes(&server, &campaign, budget, MIN_SAMPLES, &mut oracle, o)?;
    server.shutdown()?;
    let median_pass = median(&run.passes).expect("at least one pass");
    end_to_end(
        o,
        &setup,
        percentiles(&sorted(&run.latencies), "sweep requests")?,
        campaign.len() as f64 / (median_pass / 1e3),
    );
    let refs: Vec<&Input> = campaign.iter().collect();
    let expected_bytes: Vec<Vec<String>> = campaign
        .iter()
        .map(|i| oracle.expected(i).cloned().unwrap_or_default())
        .collect();
    shape_record(o, &refs, mean_bytes(expected_bytes.iter()));
    o.record.push((
        "diagnostics",
        Json::obj([
            (
                "setup_s_samples",
                Json::Array(setup.iter().map(|&x| Json::from(x)).collect()),
            ),
            ("passes", Json::from(run.passes.len())),
            ("median_pass_ms", Json::from(median_pass)),
            ("requests", Json::from(run.latencies.len())),
            ("slot_median_ms", slot_medians(&campaign, &run.latencies)),
        ]),
    ));
    Ok(())
}

fn sweep_traced(args: &Args, o: &mut Outcome) -> Result<(), String> {
    let mut oracle = Oracle::new();
    let campaign = checked_campaign(args, &mut oracle)?;
    let (server, _) = warm_server(args, "sweep-a2", 1, &|_| campaign.clone(), &mut oracle, o)?;
    let budget = Duration::from_secs_f64(args.seconds * SWEEP_TRACE_SHARE);
    let min_requests = MIN_TRACE_PASSES * campaign.len();
    let run = run_passes(&server, &campaign, budget, min_requests, &mut oracle, o)?;
    let stats = server_stats(&server)?;
    server.shutdown()?;
    // The replay repeats the warm-up pass and every served pass.
    let replayed = run.passes.len() + 1;
    let wire = layers::Wire {
        round_trip_ms: run.latencies.iter().map(|&r| Some(r)).collect(),
        offered_rps: run.latencies.len() as f64 / run.secs,
        lag_p99_ms: None,
        requests: (campaign.len() * replayed) as f64,
        sharing_sweeps: (campaign
            .iter()
            .filter(|i| i.kind == "sharing_sweep")
            .count()
            * replayed) as f64,
        stats,
    };
    let replay_inputs: Vec<Input> = (0..replayed).flat_map(|_| campaign.clone()).collect();
    layers::finish(
        o,
        args,
        "sweep-a2",
        &replay_inputs,
        campaign.len(),
        &wire,
        Some(layers::Passes {
            per_pass: campaign.len(),
            median_wire_pass_ms: median(&run.passes).expect("passes ran"),
        }),
    )
}
