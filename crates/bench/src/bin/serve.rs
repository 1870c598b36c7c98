//! Measures the `vpd-serve` service and emits `BENCH_serve.json`.
//!
//! Phases, all over TCP servers on ephemeral loopback ports:
//!
//! * **cold vs warm** — a single closed-loop client runs the mixed
//!   scenario set once against an empty scenario cache (every request
//!   compiles its plan) and then repeatedly against the warmed cache.
//!   Scenario sizes are chosen so plan compilation dominates the solve,
//!   which is exactly the workload the cache exists for.
//! * **saturation curve** — N concurrent connections (for several N),
//!   each closed-loop with one request in flight, issue
//!   `sharing_sweep` requests against the warm server. Per-request
//!   latencies aggregate into p50/p95/p99 per connection count; the
//!   peak entry is compared against the thread-per-connection baseline
//!   recorded before this redesign.
//! * **determinism audits** — every response seen by every client is
//!   compared against a cold oracle (a zero-capacity [`Dispatcher`]
//!   dispatching one request at a time): cached bits must equal cold
//!   bits, request by request.
//! * **shed validation** — a tiny-queue server is flooded with
//!   one-millisecond deadlines; every response must stay well-formed
//!   NDJSON with a typed code (`ok`, `queue_full`, `shed`,
//!   `deadline_exceeded`) — overload must never hang or disconnect.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin serve             # full, writes JSON
//! cargo run --release -p vpd-bench --bin serve -- --smoke  # CI smoke
//! ```
//!
//! Exits non-zero if any rate is non-finite or an audit fails.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use vpd_report::Json;
use vpd_serve::proto::Request;
use vpd_serve::{Dispatcher, ServeConfig, Server};

/// Peak throughput of the previous thread-per-connection server (its
/// `BENCH_serve.json`), the yardstick for this redesign.
const BASELINE_THROUGHPUT: f64 = 658.879;

/// p99 latency of that baseline, milliseconds; the redesign must not
/// trade its throughput for tail latency.
const BASELINE_P99_MS: f64 = 26.0686;

fn usage() -> ! {
    eprintln!("usage: serve [--smoke]");
    std::process::exit(2);
}

/// The mixed scenario set: every cacheable analysis kind, sized so the
/// compiled plan (grid factorization, AC plan, fault nominal) costs far
/// more than one warm solve.
fn scenarios() -> Vec<String> {
    let mut lines = Vec::new();
    for arch in ["a0", "a1", "a2", "a3-12"] {
        lines.push(format!(
            r#"{{"kind":"analyze","params":{{"arch":"{arch}"}}}}"#
        ));
    }
    for placement in ["periphery", "below"] {
        lines.push(format!(
            r#"{{"kind":"sharing","params":{{"placement":"{placement}","modules":48}}}}"#
        ));
    }
    lines.push(r#"{"kind":"mc","params":{"arch":"a1","samples":6,"seed":9}}"#.to_owned());
    lines.push(r#"{"kind":"impedance","params":{"arch":"a1","points":16}}"#.to_owned());
    lines.push(r#"{"kind":"impedance","params":{"arch":"a2","points":16}}"#.to_owned());
    lines.push(
        r#"{"kind":"faults","params":{"arch":"a2","random_k":2,"count":4,"seed":7}}"#.to_owned(),
    );
    lines
}

/// The saturation workload: per-client `sharing_sweep` requests that
/// share one compiled plan (same placement and module count) but carry
/// **distinct** setpoints.
fn sweep_line(client: usize) -> String {
    let a = 1.0 + 0.0005 * client as f64;
    let b = 0.99 + 0.0002 * client as f64;
    format!(
        r#"{{"kind":"sharing_sweep","params":{{"placement":"below","modules":48,"setpoints":[{a},{b}]}}}}"#
    )
}

/// One closed-loop pass: send each line, wait for its response, record
/// the latency. Returns the response body per request line.
fn run_pass(addr: &str, lines: &[String], latencies: &mut Vec<f64>) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    let mut buf = String::new();
    for line in lines {
        let start = Instant::now();
        writeln!(writer, "{line}").expect("send request");
        writer.flush().expect("flush request");
        buf.clear();
        let n = reader.read_line(&mut buf).expect("read response");
        assert!(n > 0, "server closed mid-pass");
        latencies.push(start.elapsed().as_secs_f64());
        responses.push(buf.trim_end().to_owned());
    }
    responses
}

/// Extracts the serialized `result` document from a success response.
fn result_of(line: &str) -> String {
    let doc = Json::parse(line).expect("response parses");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {line}"
    );
    doc.get("result").expect("result present").to_string()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One saturation measurement: `conns` concurrent connections, each
/// closed-loop with one request in flight, all driven from one client
/// thread (the client multiplexes exactly like the server does — the
/// point of the measurement is many *connections*, and a
/// thread-per-connection client on a small host would measure its own
/// scheduler, not the server). Each cycle writes every connection's
/// request, then reads every response; per-request latency runs from
/// that request's write to its response read. Returns (throughput
/// req/s, p50 ms, p95 ms, p99 ms, last responses per connection).
fn saturate(addr: &str, conns: usize, passes: usize) -> (f64, f64, f64, f64, Vec<String>) {
    let mut writers = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    let mut lines = Vec::with_capacity(conns);
    for c in 0..conns {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        writers.push(stream.try_clone().expect("clone stream"));
        readers.push(BufReader::new(stream));
        let mut line = sweep_line(c);
        line.push('\n');
        lines.push(line);
    }
    let mut latencies = Vec::with_capacity(conns * passes);
    let mut responses = vec![String::new(); conns];
    let mut sent = vec![Instant::now(); conns];
    let mut buf = String::new();
    let start = Instant::now();
    for _ in 0..passes {
        for (c, writer) in writers.iter_mut().enumerate() {
            sent[c] = Instant::now();
            writer.write_all(lines[c].as_bytes()).expect("send request");
        }
        for (c, reader) in readers.iter_mut().enumerate() {
            buf.clear();
            let n = reader.read_line(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-pass");
            latencies.push(sent[c].elapsed().as_secs_f64());
            responses[c] = buf.trim_end().to_owned();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let throughput = (conns * passes) as f64 / elapsed;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50) * 1e3,
        percentile(&latencies, 0.95) * 1e3,
        percentile(&latencies, 0.99) * 1e3,
    );
    (throughput, p50, p95, p99, responses)
}

/// Floods a deliberately tiny server with doomed deadlines and checks
/// that every response is well-formed, typed NDJSON. Returns
/// (responses checked, rejects seen).
fn validate_shedding(smoke: bool) -> (usize, usize) {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        cache_capacity: 8,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind shed server");
    let addr = server.local_addr().expect("local addr").to_string();
    let thread = std::thread::spawn(move || server.run());
    // Warm the admission controller's service-time estimate.
    let warm = vec![r#"{"id":0,"kind":"sharing","params":{"modules":48}}"#.to_owned()];
    vpd_serve::call(&addr, &warm, false).expect("shed warmup");
    let flood: Vec<String> = (0..if smoke { 8 } else { 32 })
        .map(|i| {
            format!(r#"{{"id":{i},"kind":"sharing","params":{{"modules":48}},"deadline_ms":1}}"#)
        })
        .collect();
    let responses = vpd_serve::call(&addr, &flood, false).expect("shed flood");
    assert_eq!(responses.len(), flood.len(), "overload dropped responses");
    let mut rejects = 0usize;
    for line in &responses {
        let doc = Json::parse(line).expect("shed response must stay well-formed NDJSON");
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                let code = doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .map(|c| c.to_string())
                    .unwrap_or_default();
                assert!(
                    ["\"queue_full\"", "\"shed\"", "\"deadline_exceeded\""]
                        .contains(&code.as_str()),
                    "untyped overload response: {line}"
                );
                rejects += 1;
            }
            None => panic!("overload response without ok flag: {line}"),
        }
    }
    vpd_serve::call(&addr, &[], true).expect("drain shed server");
    thread.join().expect("shed server thread").expect("run");
    (responses.len(), rejects)
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    vpd_bench::banner(if smoke {
        "serve smoke"
    } else {
        "serve benchmark (BENCH_serve.json)"
    });

    let workers = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .min(8);
    let cfg = ServeConfig {
        workers,
        queue_depth: 256,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let lines = scenarios();
    let (clients, warm_passes) = if smoke { (2, 2) } else { (8, 20) };

    // --- phase 1: cold vs warm, one closed-loop client ------------------
    let mut cold_latencies = Vec::new();
    let start = Instant::now();
    let cold_responses = run_pass(&addr, &lines, &mut cold_latencies);
    let cold_s = start.elapsed().as_secs_f64();

    let mut warm_latencies = Vec::new();
    let start = Instant::now();
    let mut warm_responses = Vec::new();
    for _ in 0..warm_passes {
        warm_responses = run_pass(&addr, &lines, &mut warm_latencies);
    }
    let warm_s = start.elapsed().as_secs_f64() / warm_passes as f64;
    let warm_speedup = cold_s / warm_s;

    // --- phase 2: mixed-workload concurrency (continuity metric) --------
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            let lines = lines.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                let mut responses = Vec::new();
                for _ in 0..warm_passes {
                    responses = run_pass(&addr, &lines, &mut latencies);
                }
                (latencies, responses)
            })
        })
        .collect();
    let mut concurrent_responses = Vec::new();
    for h in handles {
        let (_lat, resp) = h.join().expect("client thread");
        concurrent_responses.push(resp);
    }
    let mixed_s = start.elapsed().as_secs_f64();
    let mixed_throughput = (clients * warm_passes * lines.len()) as f64 / mixed_s;

    // --- phase 3: saturation curve over the sweep workload --------------
    let curve_clients: &[usize] = if smoke { &[2, 4] } else { &[2, 8, 32] };
    let sweep_passes = if smoke { 10 } else { 150 };
    // Warm the sweep plan so the curve measures serving, not compiling.
    let mut warmup_lat = Vec::new();
    run_pass(&addr, &[sweep_line(0)], &mut warmup_lat);
    let mut curve = Vec::new();
    let mut sweep_responses: Vec<(usize, String)> = Vec::new();
    for &n in curve_clients {
        let (throughput, p50, p95, p99, responses) = saturate(&addr, n, sweep_passes);
        println!(
            "saturation {n:>3} clients: {throughput:>8.0} req/s, \
             p50 {p50:.2} ms p95 {p95:.2} ms p99 {p99:.2} ms"
        );
        for (c, r) in responses.into_iter().enumerate() {
            sweep_responses.push((c, r));
        }
        curve.push((n, throughput, p50, p95, p99));
    }
    let peak = curve
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite throughput"))
        .expect("curve has entries");
    let (peak_clients, peak_throughput, peak_p50, peak_p95, peak_p99) = peak;
    let speedup_vs_baseline = peak_throughput / BASELINE_THROUGHPUT;

    // --- cache stats, then drain the server ------------------------------
    let stats_lines = vec![r#"{"id":90,"kind":"stats"}"#.to_owned()];
    let stats = vpd_serve::call(&addr, &stats_lines, false).expect("stats call");
    let stats_doc = Json::parse(&stats[0]).expect("stats parses");
    let result = stats_doc.get("result").expect("stats result");
    let cache = result.get("cache").expect("cache stats");
    let hits = cache.get("hits").and_then(Json::as_i64).unwrap_or(0);
    let misses = cache.get("misses").and_then(Json::as_i64).unwrap_or(0);
    let steals = cache.get("steals").and_then(Json::as_i64).unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    vpd_serve::call(&addr, &[], true).expect("drain call");
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");

    // --- determinism audits ----------------------------------------------
    // Mixed workload: every cached response equals the cold oracle.
    let oracle = Dispatcher::new(0);
    let mut expected: HashMap<String, String> = HashMap::new();
    for line in &lines {
        let request = Request::parse_line(line).expect("scenario parses");
        let (doc, cached) = oracle.dispatch(&request.work).expect("oracle dispatch");
        assert!(!cached, "zero-capacity oracle must always be cold");
        expected.insert(line.clone(), doc.to_string());
    }
    let mut audited = 0usize;
    for responses in std::iter::once(&cold_responses)
        .chain(std::iter::once(&warm_responses))
        .chain(concurrent_responses.iter())
    {
        for (line, response) in lines.iter().zip(responses) {
            assert_eq!(
                result_of(response),
                expected[line.as_str()],
                "served bits diverged from the cold oracle for {line}"
            );
            audited += 1;
        }
    }
    // Sweep workload: every cached response equals the cold oracle.
    let mut sweep_expected: HashMap<usize, String> = HashMap::new();
    for (client, response) in &sweep_responses {
        let entry = sweep_expected.entry(*client).or_insert_with(|| {
            let request = Request::parse_line(&sweep_line(*client)).expect("sweep parses");
            let (doc, _) = oracle.dispatch(&request.work).expect("oracle sweep");
            doc.to_string()
        });
        assert_eq!(
            &result_of(response),
            entry,
            "served sweep bits diverged from the cold oracle (client {client})"
        );
        audited += 1;
    }

    // --- phase 4: overload sheds with typed, well-formed responses ------
    let (shed_checked, shed_rejects) = validate_shedding(smoke);

    println!(
        "serve ({} scenarios, {workers} workers): cold pass {:.1} ms, warm pass {:.1} ms \
         ({warm_speedup:.1}x), mixed {clients} clients: {mixed_throughput:.0} req/s; \
         sweep peak {peak_clients} clients: {peak_throughput:.0} req/s \
         ({speedup_vs_baseline:.1}x baseline {BASELINE_THROUGHPUT:.0}), \
         p50 {peak_p50:.2} ms p95 {peak_p95:.2} ms p99 {peak_p99:.2} ms, \
         cache hit rate {:.1}% ({steals} steals), \
         {audited} responses bitwise-audited, \
         {shed_rejects}/{shed_checked} overload responses typed-rejected",
        lines.len(),
        cold_s * 1e3,
        warm_s * 1e3,
        hit_rate * 100.0,
    );

    for (label, v) in [
        ("mixed_throughput", mixed_throughput),
        ("peak_throughput", peak_throughput),
        ("warm_speedup", warm_speedup),
        ("p50", peak_p50),
        ("p95", peak_p95),
        ("p99", peak_p99),
    ] {
        assert!(v.is_finite() && v > 0.0, "{label} not finite: {v}");
    }

    if smoke {
        println!("\nsmoke OK ({audited} responses audited)");
        return;
    }

    assert!(
        warm_speedup >= 2.0,
        "warm pass must be at least 2x faster than cold (got {warm_speedup:.2}x)"
    );
    assert!(
        speedup_vs_baseline >= 5.0,
        "saturation peak must beat the thread-per-connection baseline 5x \
         (got {speedup_vs_baseline:.2}x)"
    );
    assert!(
        peak_p99 <= BASELINE_P99_MS,
        "peak p99 {peak_p99:.3} ms regressed past the baseline {BASELINE_P99_MS} ms"
    );

    let curve_json: Vec<String> = curve
        .iter()
        .map(|(n, t, p50, p95, p99)| {
            format!(
                "      {{ \"clients\": {n}, \"throughput_req_per_sec\": {t:.3}, \
                 \"latency_p50_ms\": {p50:.4}, \"latency_p95_ms\": {p95:.4}, \
                 \"latency_p99_ms\": {p99:.4} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"serve\": {{\n    \"scenarios\": {},\n    \"workers\": {workers},\n    \"clients\": {clients},\n    \"warm_passes\": {warm_passes},\n    \"cold_pass_ms\": {:.3},\n    \"warm_pass_ms\": {:.3},\n    \"cold_vs_warm_speedup\": {warm_speedup:.3},\n    \"mixed_throughput_req_per_sec\": {mixed_throughput:.3},\n    \"throughput_req_per_sec\": {peak_throughput:.3},\n    \"latency_p50_ms\": {peak_p50:.4},\n    \"latency_p95_ms\": {peak_p95:.4},\n    \"latency_p99_ms\": {peak_p99:.4},\n    \"baseline_throughput_req_per_sec\": {BASELINE_THROUGHPUT},\n    \"baseline_p99_ms\": {BASELINE_P99_MS},\n    \"speedup_vs_baseline\": {speedup_vs_baseline:.3},\n    \"saturation\": [\n{}\n    ],\n    \"cache_hit_rate\": {hit_rate:.4},\n    \"cache_hits\": {hits},\n    \"cache_misses\": {misses},\n    \"cache_steals\": {steals},\n    \"responses_audited\": {audited},\n    \"cached_matches_cold_bitwise\": true,\n    \"sweeps_match_cold_oracle_bitwise\": true,\n    \"shed_responses_checked\": {shed_checked},\n    \"shed_responses_typed\": {shed_rejects},\n    \"shed_responses_well_formed\": true\n  }}\n}}\n",
        lines.len(),
        cold_s * 1e3,
        warm_s * 1e3,
        curve_json.join(",\n"),
    );
    std::fs::write("BENCH_serve.json", &json).unwrap();
    println!("\nwrote BENCH_serve.json");
}
