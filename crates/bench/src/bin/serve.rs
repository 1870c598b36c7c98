//! Measures the `vpd-serve` service and emits `BENCH_serve.json`.
//!
//! Phases, all over TCP servers on ephemeral loopback ports:
//!
//! * **cold vs warm** — a single closed-loop client runs the mixed
//!   scenario set against a server without a cache (every request
//!   compiles its plan) and against a server whose cache the warm-up
//!   filled. Scenario sizes are chosen so plan compilation dominates
//!   the solve, which is exactly the workload the cache exists for.
//! * **mixed concurrency** — several closed-loop clients, one thread
//!   each, run the mixed set against the warm server at once.
//! * **saturation curve** — N concurrent connections (for several N),
//!   each closed-loop with one request in flight, issue
//!   `sharing_sweep` requests against the warm server; each run opens
//!   its own N connections and closes them at its end. Per-request
//!   latencies give p50/p95/p99 per round and connection count; the
//!   peak entry is compared against the thread-per-connection baseline
//!   recorded before this redesign.
//! * **determinism audits** — every response of the last round is
//!   compared against a cold oracle (a zero-capacity [`Dispatcher`]
//!   dispatching one request at a time): cached bits must equal cold
//!   bits, request by request.
//! * **shed validation** — a tiny-queue server is flooded with
//!   one-millisecond deadlines; every response must stay well-formed
//!   NDJSON with a typed code (`ok`, `queue_full`, `shed`,
//!   `deadline_exceeded`) — overload must never hang or disconnect.
//! * **idle CPU** — a default-configured server gets no traffic past
//!   its event loop's 1 s back-off onset, then each window reads the
//!   CPU time of every thread of this process (only that server is
//!   running): the share of one core an idle server costs, the price
//!   of the loop's wake-up policy when nobody calls.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin serve             # full, writes JSON
//! cargo run --release -p vpd-bench --bin serve -- --smoke  # CI smoke
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use vpd_bench::perf::{auto_threads, quantile, section, Bench, Bound, Config, Size, Stat, ROUNDS};
use vpd_bench::Loopback;
use vpd_report::Json;
use vpd_serve::proto::Request;
use vpd_serve::{Dispatcher, ServeConfig};

/// Peak throughput of the previous thread-per-connection server (its
/// `BENCH_serve.json`), the yardstick for this redesign.
const BASELINE_THROUGHPUT: f64 = 658.879;

/// p99 latency of that baseline, milliseconds; the redesign must not
/// trade its throughput for tail latency.
const BASELINE_P99_MS: f64 = 26.0686;

/// Mixed-set passes per client per timed run.
const PASSES: Size<usize> = Size(20, 2);
/// Concurrent clients of the mixed phase.
const CLIENTS: Size<usize> = Size(8, 2);
/// Connection counts of the saturation curve.
const CURVE: Size<&[usize]> = Size(&[2, 8, 32], &[2, 4]);
/// Requests per connection per timed run of the curve.
const SWEEP_PASSES: Size<usize> = Size(150, 10);
/// Doomed requests of the shed flood.
const SHED_FLOOD: Size<usize> = Size(32, 8);
/// Idle windows of the idle-CPU phase, one per round.
const IDLE_WINDOWS: Size<usize> = Size(ROUNDS, 1);
/// Length of one idle window.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// How long the idle server goes without traffic before the first
/// window: past the 1 s after which its event loop backs off.
const IDLE_SETTLE: Duration = Duration::from_millis(1500);
/// Median idle CPU share of one core of the server whose event loop
/// slept a fixed 200 µs after every empty scan, measured by the idle
/// phase on the host of the checked-in record. An idle server may cost
/// no more.
const FIXED_SLEEP_IDLE_CPU_SHARE: f64 = 0.0339;

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

/// One closed-loop pass: send each line and wait for its response.
/// Returns the response body per request line.
fn run_pass(addr: &str, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(lines.len());
    let mut buf = String::new();
    for line in lines {
        writeln!(writer, "{line}").expect("send request");
        writer.flush().expect("flush request");
        buf.clear();
        let n = reader.read_line(&mut buf).expect("read response");
        assert!(n > 0, "server closed mid-pass");
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

/// One saturation run over `conns` connections to `addr`, connection
/// `c` carrying `sweep_line(c)`: every connection closed-loop with one
/// request in flight, all driven from one client thread (the client
/// multiplexes exactly like the server does — the point of the
/// measurement is many *connections*, and a thread-per-connection
/// client on a small host would measure its own scheduler, not the
/// server). Each cycle writes every connection's request, then reads
/// every response; per-request latency runs from that request's write
/// to its response read. The connections close when the run returns,
/// so no idle socket of another run sits in the server's event loop.
/// Returns the sorted latencies (ms) and the last response per
/// connection.
fn saturate(addr: &str, conns: usize, passes: usize) -> (Vec<f64>, Vec<String>) {
    let mut streams: Vec<_> = (0..conns)
        .map(|c| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let writer = stream.try_clone().expect("clone stream");
            (
                writer,
                BufReader::new(stream),
                format!("{}\n", sweep_line(c)),
            )
        })
        .collect();
    let mut latencies = Vec::with_capacity(conns * passes);
    let mut responses = vec![String::new(); conns];
    let mut sent = vec![Instant::now(); conns];
    let mut buf = String::new();
    for _ in 0..passes {
        for (c, (writer, _, line)) in streams.iter_mut().enumerate() {
            sent[c] = Instant::now();
            writer.write_all(line.as_bytes()).expect("send request");
        }
        for (c, (_, reader, _)) in streams.iter_mut().enumerate() {
            buf.clear();
            let n = reader.read_line(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-pass");
            latencies.push(sent[c].elapsed().as_secs_f64() * 1e3);
            responses[c] = buf.trim_end().to_owned();
        }
    }
    latencies.sort_by(f64::total_cmp);
    (latencies, responses)
}

/// Floods a deliberately tiny server with doomed deadlines and checks
/// that every response is well-formed, typed NDJSON. Returns
/// (responses checked, rejects seen).
fn validate_shedding(flood: usize) -> (usize, usize) {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        cache_capacity: 8,
        ..ServeConfig::default()
    };
    let server = Loopback::start(cfg);
    let addr = &server.addr;
    // Warm the admission controller's service-time estimate.
    let warm = vec![r#"{"id":0,"kind":"sharing","params":{"modules":48}}"#.to_owned()];
    vpd_serve::call(addr, &warm, false).expect("shed warmup");
    let flood: Vec<String> = (0..flood)
        .map(|i| {
            format!(r#"{{"id":{i},"kind":"sharing","params":{{"modules":48}},"deadline_ms":1}}"#)
        })
        .collect();
    let responses = vpd_serve::call(addr, &flood, false).expect("shed flood");
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
    server.shutdown();
    (responses.len(), rejects)
}

/// Nanoseconds every thread of this process has run on a CPU: the sum
/// of the first field of each `/proc/self/task/<tid>/schedstat`.
fn run_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("the idle phase reads /proc/self/task (Linux)")
        .map(|task| {
            let path = task.expect("task entry").path().join("schedstat");
            let stat = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            stat.split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{}: no run time in {stat:?}", path.display()))
        })
        .sum()
}

/// The share of one core an idle server uses, per window: a fresh
/// default server (the only one running) sits without traffic for
/// [`IDLE_SETTLE`], then each [`IDLE_WINDOW`] divides the CPU time
/// this process's threads ran by the wall time.
fn idle_cpu_shares(windows: usize) -> Vec<f64> {
    let server = Loopback::start(ServeConfig::default());
    std::thread::sleep(IDLE_SETTLE);
    let shares = (0..windows)
        .map(|_| {
            let (ran, started) = (run_ns(), Instant::now());
            std::thread::sleep(IDLE_WINDOW);
            let ran = run_ns()
                .checked_sub(ran)
                .expect("no thread exits during an idle window");
            ran as f64 / started.elapsed().as_nanos() as f64
        })
        .collect();
    server.shutdown();
    shares
}

fn main() {
    let bench = Bench::from_args("serve", "BENCH_serve.json");
    let workers = auto_threads().min(8);
    let [server, cold] = [64, 0].map(|cache_capacity| {
        Loopback::start(ServeConfig {
            workers,
            queue_depth: 256,
            cache_capacity,
            ..ServeConfig::default()
        })
    });
    let (addr, cold_addr) = (&server.addr, &cold.addr);
    let lines = scenarios();
    let clients = bench.size(CLIENTS);
    let passes = bench.size(PASSES);

    // --- cold vs warm, then mixed-workload concurrency ------------------
    let mut last: [Vec<String>; 2] = Default::default();
    let mut concurrent = Vec::new();
    let mixed = bench.measure(
        &format!(
            "mixed set ({} scenarios, {workers} workers, {clients} clients)",
            lines.len()
        ),
        &[
            Config::new("cold_req_per_sec", lines.len()),
            Config::new("warm_req_per_sec", passes * lines.len()).ratio("cold_vs_warm_speedup"),
            Config::new("mixed_req_per_sec", clients * passes * lines.len()),
        ],
        |config| match config {
            0 => last[0] = run_pass(cold_addr, &lines),
            1 => (0..passes).for_each(|_| last[1] = run_pass(addr, &lines)),
            _ => {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let (addr, lines) = (addr.to_owned(), lines.clone());
                        std::thread::spawn(move || {
                            let mut responses = Vec::new();
                            for _ in 0..passes {
                                responses = run_pass(&addr, &lines);
                            }
                            responses
                        })
                    })
                    .collect();
                concurrent = handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect();
            }
        },
    );

    // --- saturation curve over the sweep workload -----------------------
    let curve = bench.size(CURVE);
    let sweep_passes = bench.size(SWEEP_PASSES);
    // Warm the sweep plan so the curve measures serving, not compiling.
    run_pass(addr, &[sweep_line(0)]);
    let configs: Vec<Config> = curve
        .iter()
        .map(|&n| Config::new("throughput_req_per_sec", n * sweep_passes))
        .collect();
    // Per connection count: p50, p95 and p99 of each round, and the
    // last responses.
    let mut percentiles = vec![[Vec::new(), Vec::new(), Vec::new()]; curve.len()];
    let mut sweep_responses = vec![Vec::new(); curve.len()];
    let sat = bench.measure(
        &format!("saturation over {curve:?} connections"),
        &configs,
        |config| {
            let (latencies, responses) = saturate(addr, curve[config], sweep_passes);
            for (values, p) in percentiles[config].iter_mut().zip([0.50, 0.95, 0.99]) {
                values.push(quantile(&latencies, p));
            }
            sweep_responses[config] = responses;
        },
    );
    // The warm-up round's percentiles come first; keep the timed ones.
    let saturation: Vec<[Stat; 4]> = (0..curve.len())
        .map(|c| {
            let rates = sat.rates(c);
            let timed = |values: &[f64]| Stat::of(&values[values.len() - rates.len()..]);
            let [p50, p95, p99] = &percentiles[c];
            [Stat::of(rates), timed(p50), timed(p95), timed(p99)]
        })
        .collect();
    let peak = (0..curve.len())
        .max_by(|&a, &b| saturation[a][0].median.total_cmp(&saturation[b][0].median))
        .expect("curve has entries");
    let vs_baseline: Vec<f64> = sat
        .rates(peak)
        .iter()
        .map(|r| r / BASELINE_THROUGHPUT)
        .collect();
    let vs_baseline = Stat::of(&vs_baseline);
    for (n, [throughput, p50, p95, p99]) in curve.iter().zip(&saturation) {
        println!(
            "saturation {n:>3} clients: {throughput} req/s\n  p50 {p50} ms\n  \
             p95 {p95} ms\n  p99 {p99} ms"
        );
    }
    println!("peak {} clients: {vs_baseline} x baseline", curve[peak]);

    // --- cache stats, then drain the servers -----------------------------
    let stats_lines = vec![r#"{"id":90,"kind":"stats"}"#.to_owned()];
    let stats = vpd_serve::call(addr, &stats_lines, false).expect("stats call");
    let stats_doc = Json::parse(&stats[0]).expect("stats parses");
    let cache = stats_doc
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache stats");
    let count = |key| cache.get(key).and_then(Json::as_i64).unwrap_or(0) as usize;
    let (hits, misses, steals) = (count("hits"), count("misses"), count("steals"));
    server.shutdown();
    cold.shutdown();

    // --- determinism audits ----------------------------------------------
    // Mixed workload: every response equals the cold oracle.
    let oracle = Dispatcher::new(0);
    let expected = |line: &str| {
        let request = Request::parse_line(line).expect("scenario parses");
        let (doc, cached) = oracle.dispatch(&request.work).expect("oracle dispatch");
        assert!(!cached, "zero-capacity oracle must always be cold");
        doc.to_string()
    };
    let expected_mixed: Vec<String> = lines.iter().map(|l| expected(l)).collect();
    let mut audited = 0usize;
    for responses in last.iter().chain(&concurrent) {
        for ((line, response), expected) in lines.iter().zip(responses).zip(&expected_mixed) {
            assert_eq!(
                &result_of(response),
                expected,
                "served bits diverged from the cold oracle for {line}"
            );
            audited += 1;
        }
    }
    // Sweep workload: every cached response equals the cold oracle.
    for responses in &sweep_responses {
        for (client, response) in responses.iter().enumerate() {
            assert_eq!(
                result_of(response),
                expected(&sweep_line(client)),
                "served sweep bits diverged from the cold oracle (client {client})"
            );
            audited += 1;
        }
    }

    // --- overload sheds with typed, well-formed responses ---------------
    let (shed_checked, shed_rejects) = validate_shedding(bench.size(SHED_FLOOD));
    println!(
        "cache {hits} hits, {misses} misses ({steals} steals), {audited} responses equal \
         the cold oracle, {shed_rejects}/{shed_checked} overload responses typed-rejected"
    );

    // --- an idle server's CPU, every other server gone -------------------
    let idle_windows = bench.size(IDLE_WINDOWS);
    let idle = Stat::of(&idle_cpu_shares(idle_windows));
    println!("idle server: {idle} of one core");

    let entry = |c: usize| {
        let [throughput, p50, p95, p99] = saturation[c];
        vec![
            ("clients", Json::from(curve[c])),
            ("throughput_req_per_sec", throughput.json()),
            ("latency_p50_ms", p50.json()),
            ("latency_p95_ms", p95.json()),
            ("latency_p99_ms", p99.json()),
        ]
    };
    let mut peak_entry = entry(peak);
    peak_entry.push(("speedup_vs_baseline", vs_baseline.json()));
    let audits = [
        ("cache_hits", hits),
        ("cache_misses", misses),
        ("cache_steals", steals),
        ("responses_audited", audited),
        ("shed_responses_checked", shed_checked),
        ("shed_responses_typed", shed_rejects),
    ];
    let sizes = [
        ("scenarios", lines.len()),
        ("clients", clients),
        ("passes", passes),
    ];
    bench.finish(
        workers,
        vec![
            mixed.section("mixed", &sizes),
            (
                "saturation",
                Json::obj([
                    ("passes", Json::from(sweep_passes)),
                    (
                        "baseline_throughput_req_per_sec",
                        Json::from(BASELINE_THROUGHPUT),
                    ),
                    ("baseline_p99_ms", Json::from(BASELINE_P99_MS)),
                    (
                        "curve",
                        Json::array((0..curve.len()).map(|c| Json::obj(entry(c)))),
                    ),
                    ("peak", Json::obj(peak_entry)),
                ]),
            ),
            section(
                "idle",
                &[
                    ("windows", idle_windows),
                    ("window_ms", IDLE_WINDOW.as_millis() as usize),
                    ("settle_ms", IDLE_SETTLE.as_millis() as usize),
                ],
                &[("cpu_share", idle)],
            ),
            section("audits", &audits, &[]),
        ],
        &[
            Bound::AtLeast("mixed.cold_vs_warm_speedup", 2.0),
            Bound::AtLeast("saturation.peak.speedup_vs_baseline", 5.0),
            Bound::AtMost("saturation.peak.latency_p99_ms", BASELINE_P99_MS),
            Bound::AtMost("idle.cpu_share", FIXED_SLEEP_IDLE_CPU_SHARE),
        ],
    );
}
