//! End-to-end tests for the `vpd-serve` service: the stdio transport,
//! the multiplexed TCP transport with the `call` client, overload
//! behavior (typed rejects, never hangs or bare disconnects), and the
//! determinism contract — a served `result` document is
//! bitwise-identical to the one-shot `vpd --format json <command>`
//! invocation, cold or cached.

use std::io::Cursor;
use std::process::Command;

use vertical_power_delivery::report::Json;
use vertical_power_delivery::serve::{serve_lines, Ended, ServeConfig, Server};

/// Runs one stdio serve session over a scripted input with a single
/// worker (so request order is deterministic) and returns the response
/// lines plus how the session ended.
fn serve_script(lines: &[&str], cache_capacity: usize) -> (Vec<String>, Ended) {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 64,
        cache_capacity,
        ..ServeConfig::default()
    };
    let input = lines.join("\n");
    let (out, ended) =
        serve_lines(Cursor::new(input), Vec::<u8>::new(), &cfg).expect("serve session");
    let text = String::from_utf8(out).expect("utf8 output");
    (text.lines().map(str::to_owned).collect(), ended)
}

/// Extracts the `result` document of a success response, re-serialized.
fn result_of(response_line: &str) -> String {
    let doc = Json::parse(response_line).expect("response is valid JSON");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected a success response: {response_line}"
    );
    doc.get("result")
        .expect("success carries a result")
        .to_string()
}

/// Runs the real `vpd` binary and returns its single-line JSON stdout.
fn one_shot_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_vpd"))
        .arg("--format")
        .arg("json")
        .args(args)
        .output()
        .expect("vpd binary runs");
    assert!(
        out.status.success(),
        "vpd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf8 stdout")
        .trim_end()
        .to_owned()
}

#[test]
fn served_results_match_the_one_shot_cli_bitwise() {
    // Each pair: a request line and the equivalent one-shot invocation.
    // Small sample/point counts keep the debug-build runtime sane; the
    // comparison is still bit-exact.
    let cases: &[(&str, &[&str])] = &[
        (
            r#"{"id":1,"kind":"analyze","params":{"arch":"a1","topology":"dpmih"}}"#,
            &["analyze", "--arch", "a1", "--topology", "dpmih"],
        ),
        (
            r#"{"id":2,"kind":"sharing","params":{"placement":"below","modules":12}}"#,
            &["sharing", "--placement", "below", "--modules", "12"],
        ),
        (
            r#"{"id":3,"kind":"mc","params":{"arch":"a0","samples":8,"seed":9}}"#,
            &["mc", "--arch", "a0", "--samples", "8", "--seed", "9"],
        ),
        (
            r#"{"id":4,"kind":"impedance","params":{"arch":"a1","points":24}}"#,
            &["impedance", "--arch", "a1", "--points", "24"],
        ),
        (
            r#"{"id":5,"kind":"faults","params":{"arch":"a2","random_k":2,"count":6,"seed":7}}"#,
            &[
                "faults",
                "--arch",
                "a2",
                "--random-k",
                "2",
                "--count",
                "6",
                "--seed",
                "7",
            ],
        ),
        (
            r#"{"id":6,"kind":"droop","params":{"arch":"a2"}}"#,
            &["droop", "--arch", "a2"],
        ),
        (
            r#"{"id":7,"kind":"impedance","params":{"arch":"a1","points":24,"profile":true}}"#,
            &["impedance", "--arch", "a1", "--points", "24", "--profile"],
        ),
        (
            r#"{"id":8,"kind":"faults","params":{"arch":"a1"}}"#,
            &["faults", "--arch", "a1"],
        ),
    ];
    let request_lines: Vec<&str> = cases.iter().map(|(req, _)| *req).collect();
    let (out, ended) = serve_script(&request_lines, 16);
    assert_eq!(ended, Ended::Eof);
    assert_eq!(out.len(), cases.len(), "{out:?}");
    for (i, (_, cli_args)) in cases.iter().enumerate() {
        let id = format!("\"id\":{}", i + 1);
        let line = out
            .iter()
            .find(|l| l.contains(&id))
            .unwrap_or_else(|| panic!("no response for id {}: {out:?}", i + 1));
        assert_eq!(
            result_of(line),
            one_shot_cli(cli_args),
            "served result differs from one-shot CLI for {cli_args:?}"
        );
    }
}

#[test]
fn dynamic_fault_kinds_match_the_one_shot_cli_reports_bitwise() {
    // `vpd faults --dynamic` and the three wire kinds share one wire
    // default table and one set of transient-window constants, so the
    // report documents must agree byte for byte: the CLI's
    // `impedance`/`transient`/`survival` fields are the served kinds'
    // `report` fields.
    let (out, ended) = serve_script(
        &[
            r#"{"id":1,"kind":"fault_impedance","params":{"arch":"a2"}}"#,
            r#"{"id":2,"kind":"fault_transient","params":{"arch":"a2"}}"#,
            r#"{"id":3,"kind":"survival","params":{"arch":"a2"}}"#,
        ],
        16,
    );
    assert_eq!(ended, Ended::Eof);
    let cli = Json::parse(&one_shot_cli(&["faults", "--arch", "a2", "--dynamic"]))
        .expect("CLI emits valid JSON");
    for (id, field) in [(1, "impedance"), (2, "transient"), (3, "survival")] {
        let needle = format!("\"id\":{id}");
        let line = out
            .iter()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no response for id {id}: {out:?}"));
        let served = Json::parse(&result_of(line))
            .expect("result is valid JSON")
            .get("report")
            .expect("dynamic kinds carry a report")
            .to_string();
        let from_cli = cli
            .get(field)
            .unwrap_or_else(|| panic!("CLI document lacks {field}"))
            .to_string();
        assert_eq!(served, from_cli, "served {field} report differs from CLI");
    }
}

#[test]
fn warm_hit_is_bitwise_identical_and_marked_cached() {
    // One worker: the second identical request dequeues after the first
    // has checked its compiled session back in, so it must hit.
    let (out, _) = serve_script(
        &[
            r#"{"id":1,"kind":"analyze","params":{"arch":"a2"}}"#,
            r#"{"id":2,"kind":"analyze","params":{"arch":"a2"}}"#,
        ],
        16,
    );
    assert_eq!(out.len(), 2);
    let cold = out.iter().find(|l| l.contains("\"id\":1")).unwrap();
    let warm = out.iter().find(|l| l.contains("\"id\":2")).unwrap();
    assert!(cold.contains(r#""cached":false"#), "{cold}");
    assert!(warm.contains(r#""cached":true"#), "{warm}");
    assert_eq!(result_of(cold), result_of(warm), "cache hit changed bits");
}

#[test]
fn zero_capacity_cache_still_serves_identical_bits() {
    let (out, _) = serve_script(
        &[
            r#"{"id":1,"kind":"analyze","params":{"arch":"a1"}}"#,
            r#"{"id":2,"kind":"analyze","params":{"arch":"a1"}}"#,
        ],
        0,
    );
    let a = out.iter().find(|l| l.contains("\"id\":1")).unwrap();
    let b = out.iter().find(|l| l.contains("\"id\":2")).unwrap();
    assert!(a.contains(r#""cached":false"#) && b.contains(r#""cached":false"#));
    assert_eq!(result_of(a), result_of(b));
}

#[test]
fn tcp_round_trip_serves_and_drains_on_shutdown() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let lines = vec![
        r#"{"id":1,"kind":"ping"}"#.to_owned(),
        r#"{"id":2,"kind":"analyze","params":{"arch":"a1"}}"#.to_owned(),
        r#"{"id":3,"kind":"stats"}"#.to_owned(),
    ];
    // Payload first, shutdown as a second call: a shutdown pipelined on
    // the same connection would race ahead and drain still-queued jobs.
    let responses =
        vertical_power_delivery::serve::call(&addr, &lines, false).expect("call round trip");
    assert_eq!(responses.len(), 3, "{responses:?}");
    for id in 1..=3 {
        let needle = format!("\"id\":{id}");
        let line = responses
            .iter()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no response for id {id}: {responses:?}"));
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    let drain = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain call");
    assert_eq!(drain.len(), 1, "{drain:?}");
    assert!(
        drain[0].contains("\"id\":-1") && drain[0].contains(r#""kind":"shutdown""#),
        "{}",
        drain[0]
    );

    // The shutdown request must also stop the accept loop.
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn transient_stream_chunks_are_ordered_and_summary_matches_one_shot_droop() {
    let (out, ended) = serve_script(
        &[
            r#"{"id":1,"kind":"droop","params":{"arch":"a2"}}"#,
            r#"{"id":2,"kind":"transient_stream","params":{"arch":"a2","chunk":1500}}"#,
        ],
        16,
    );
    assert_eq!(ended, Ended::Eof);
    // One droop response, then 6001 samples in chunks of ≤1500: five
    // chunk records and the summary.
    assert_eq!(out.len(), 7, "{out:?}");
    let droop = out.iter().find(|l| l.contains("\"id\":1")).unwrap();
    let stream: Vec<&String> = out.iter().filter(|l| l.contains("\"id\":2")).collect();
    assert_eq!(stream.len(), 6);
    let mut sample_total = 0i64;
    for (seq, line) in stream[..5].iter().enumerate() {
        let doc = Json::parse(line).expect("chunk record is valid JSON");
        assert_eq!(
            doc.get("seq").and_then(Json::as_i64),
            Some(seq as i64),
            "{line}"
        );
        assert_eq!(doc.get("done").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        sample_total += doc
            .get("result")
            .and_then(|r| r.get("samples"))
            .and_then(Json::as_i64)
            .expect("chunk carries its sample count");
    }
    assert_eq!(sample_total, 6001, "chunks cover every sample exactly once");
    let summary = Json::parse(stream[5]).expect("summary record is valid JSON");
    assert_eq!(summary.get("done").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.get("seq").and_then(Json::as_i64), Some(5));
    let report = summary
        .get("result")
        .and_then(|r| r.get("report"))
        .expect("summary carries the droop report")
        .to_string();
    let droop_report = Json::parse(droop)
        .unwrap()
        .get("result")
        .and_then(|r| r.get("report"))
        .expect("droop carries a report")
        .to_string();
    assert_eq!(
        report, droop_report,
        "stream summary differs from the one-shot droop report"
    );
}

#[test]
fn expired_stream_deadline_ends_with_a_typed_error_record() {
    // The first stream warms the scenario cache; the second carries a
    // zero budget, which has always expired by the stream's first
    // deadline check — one typed error record, no chunks.
    let (out, _) = serve_script(
        &[
            r#"{"id":1,"kind":"transient_stream","params":{"arch":"a0","chunk":4000}}"#,
            r#"{"id":2,"kind":"transient_stream","params":{"arch":"a0","chunk":4000},"deadline_ms":0}"#,
        ],
        16,
    );
    let expired: Vec<&String> = out.iter().filter(|l| l.contains("\"id\":2")).collect();
    assert_eq!(expired.len(), 1, "{expired:?}");
    assert!(
        expired[0].contains(r#""code":"deadline_exceeded""#)
            && expired[0].contains("chunk records"),
        "{}",
        expired[0]
    );
    // The aborted stream checked its compiled scenario back in: a third
    // stream on the same dispatcher would hit the cache — covered at
    // the engine layer; here we pin that the error is terminal (no
    // further id:2 records followed it).
}

#[test]
fn shutdown_drains_an_in_flight_stream_to_its_summary() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Client A starts a finely-chunked stream and reads its first
    // record, guaranteeing the job is in flight (not merely queued).
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(
        writer,
        r#"{{"id":1,"kind":"transient_stream","params":{{"arch":"a2","chunk":100}}}}"#
    )
    .expect("send request");
    writer.flush().expect("flush");
    let mut first = String::new();
    reader.read_line(&mut first).expect("first chunk");
    assert!(first.contains(r#""seq":0"#), "{first}");

    // Client B requests shutdown while A's stream is in flight.
    let drain = vertical_power_delivery::serve::call(&addr, &[], true).expect("shutdown call");
    assert!(drain[0].contains(r#""kind":"shutdown""#), "{}", drain[0]);

    // The drain must let A's stream run to completion: every remaining
    // chunk arrives, then the done:true summary.
    let mut saw_summary = false;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read stream record");
        if n == 0 {
            break;
        }
        if line.contains(r#""done":true"#) {
            assert!(
                line.contains(r#""samples":6001"#) && line.contains(r#""chunks":61"#),
                "{line}"
            );
            saw_summary = true;
            break;
        }
    }
    assert!(saw_summary, "shutdown cut the in-flight stream short");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn call_client_collects_stream_records_behind_one_expected_response() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let lines = vec![
        r#"{"id":1,"kind":"transient_stream","params":{"arch":"a1","chunk":3000}}"#.to_owned(),
        r#"{"id":2,"kind":"ping"}"#.to_owned(),
    ];
    let responses = vertical_power_delivery::serve::call(&addr, &lines, false).expect("call");
    // 6001 samples in chunks of 3000 → three chunk records plus the
    // summary, and the ping: five lines, two of them terminal.
    assert_eq!(responses.len(), 5, "{responses:?}");
    let terminal = responses
        .iter()
        .filter(|l| !l.contains(r#""done":false"#))
        .count();
    assert_eq!(terminal, 2, "{responses:?}");

    let _ = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn overload_answers_every_request_with_a_typed_response() {
    // A tiny queue behind one worker, flooded well past capacity: the
    // contract is one well-formed NDJSON response per request — success
    // or a typed reject (`queue_full`, `shed`, `deadline_exceeded`) —
    // never a hang and never a bare disconnect. `call` itself enforces
    // the count (it blocks until every request is answered).
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        cache_capacity: 16,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Warm the admission controller's service-time estimate so
    // deadline-aware shedding can engage.
    let warm = vec![r#"{"id":100,"kind":"sharing","params":{"modules":12}}"#.to_owned()];
    let _ = vertical_power_delivery::serve::call(&addr, &warm, false).expect("warmup");

    let lines: Vec<String> = (0..24)
        .map(|i| {
            format!(r#"{{"id":{i},"kind":"sharing","params":{{"modules":12}},"deadline_ms":1}}"#)
        })
        .collect();
    let responses = vertical_power_delivery::serve::call(&addr, &lines, false).expect("flood");
    assert_eq!(responses.len(), lines.len(), "every request got an answer");
    let mut rejected = 0;
    for line in &responses {
        let doc = Json::parse(line).expect("well-formed NDJSON under overload");
        assert_eq!(doc.get("version").and_then(Json::as_i64), Some(2), "{line}");
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
                    "unexpected reject code {code} in {line}"
                );
                rejected += 1;
            }
            None => panic!("response without ok flag: {line}"),
        }
    }
    assert!(
        rejected > 0,
        "a depth-2 queue flooded with 24 one-millisecond deadlines must reject some"
    );

    let _ = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn shutdown_answers_pipelined_sweeps_instead_of_dropping_them() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    // Client A pipelines several sweeps; after A's first
    // response arrives (so at least one job went in flight), client B
    // requests shutdown. Every one of A's requests must still get
    // exactly one terminal response — completed work answers `ok`,
    // pulled-back queued work answers the typed `draining` reject.
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 64,
        cache_capacity: 16,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let total = 6;
    for i in 0..total {
        writeln!(
            writer,
            r#"{{"id":{i},"kind":"sharing_sweep","params":{{"placement":"below","modules":12,"setpoints":[1.0,1.005]}}}}"#
        )
        .expect("send request");
    }
    writer.flush().expect("flush");
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    assert!(first.contains(r#""id":0"#), "{first}");

    let drain = vertical_power_delivery::serve::call(&addr, &[], true).expect("shutdown call");
    assert!(drain[0].contains(r#""kind":"shutdown""#), "{}", drain[0]);

    let mut seen = vec![first];
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read response");
        if n == 0 {
            break;
        }
        seen.push(line.clone());
    }
    assert_eq!(
        seen.len(),
        total,
        "every pipelined request answered: {seen:?}"
    );
    for i in 0..total {
        let needle = format!("\"id\":{i}");
        let response = seen
            .iter()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no response for id {i}: {seen:?}"));
        assert!(
            response.contains(r#""ok":true"#) || response.contains(r#""code":"draining""#),
            "{response}"
        );
    }
    handle.join().expect("server thread").expect("server run");
}

/// Current thread count of this test process, from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn idle_connections_cost_buffers_not_threads() {
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Park 100 idle connections on the multiplexer.
    let idle: Vec<std::net::TcpStream> = (0..100)
        .map(|_| std::net::TcpStream::connect(&addr).expect("idle connect"))
        .collect();
    // The server stays responsive with all of them open.
    let ping = vec![r#"{"id":1,"kind":"ping"}"#.to_owned()];
    let responses = vertical_power_delivery::serve::call(&addr, &ping, false).expect("ping");
    assert!(responses[0].contains(r#""ok":true"#), "{}", responses[0]);
    // One event-loop thread plus two workers serve all 101 connections;
    // a thread-per-connection design would sit above 100 here.
    let threads = process_threads();
    assert!(
        threads < 20,
        "expected a multiplexed server, found {threads} threads with 100 idle connections"
    );
    drop(idle);

    let _ = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn post_idle_requests_are_not_shed_on_a_stale_estimate() {
    // Regression: the admission controller's service-time EMA used to
    // survive idle periods indefinitely, so the first short-deadline
    // request after a lull was shed against a stale estimate from a
    // workload that no longer exists. With a short trust window, a
    // post-idle probe must never see `shed` — the estimate is treated
    // as unknown until a fresh completion re-seeds it.
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 64,
        cache_capacity: 16,
        shed_staleness: std::time::Duration::from_millis(50),
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Seed the EMA with a genuinely slow request.
    let seed = vec![r#"{"id":100,"kind":"mc","params":{"arch":"a1","samples":200}}"#.to_owned()];
    let seeded = vertical_power_delivery::serve::call(&addr, &seed, false).expect("seed call");
    assert!(seeded[0].contains(r#""ok":true"#), "{}", seeded[0]);

    // Idle past the trust window, then pipeline two slow leads (so the
    // probe is admitted with work queued — the only state where
    // shedding can fire) and a one-millisecond-deadline probe.
    std::thread::sleep(std::time::Duration::from_millis(120));
    let lines = vec![
        r#"{"id":1,"kind":"mc","params":{"arch":"a1","samples":200}}"#.to_owned(),
        r#"{"id":2,"kind":"mc","params":{"arch":"a1","samples":200,"seed":5}}"#.to_owned(),
        r#"{"id":3,"kind":"sharing","params":{"modules":12},"deadline_ms":1}"#.to_owned(),
    ];
    let responses = vertical_power_delivery::serve::call(&addr, &lines, false).expect("probe");
    assert_eq!(responses.len(), lines.len(), "{responses:?}");
    let probe = responses
        .iter()
        .find(|l| l.contains(r#""id":3"#))
        .expect("probe answered");
    // Expiring in the queue (`deadline_exceeded`) or completing are both
    // legitimate; being shed against the pre-idle estimate is the bug.
    assert!(
        !probe.contains(r#""code":"shed""#),
        "post-idle probe was shed on a stale estimate: {probe}"
    );

    let _ = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn a_server_idle_past_its_back_off_still_answers() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    // More than a second without traffic: the event loop has backed
    // off to its 1 ms poll.
    std::thread::sleep(std::time::Duration::from_millis(1300));
    let ping = vec![r#"{"id":1,"kind":"ping"}"#.to_owned()];
    let responses = vertical_power_delivery::serve::call(&addr, &ping, false).expect("ping");
    assert!(responses[0].contains(r#""ok":true"#), "{}", responses[0]);

    let _ = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn a_ping_is_answered_while_a_long_job_runs() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());

    // Client A starts a long fault sweep; by the time client B's ping
    // arrives, the event loop is waiting with a job in flight.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(
        writer,
        r#"{{"id":1,"kind":"faults","params":{{"arch":"a2","random_k":3,"count":5000}}}}"#
    )
    .expect("send long job");
    writer.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));

    let sent = Instant::now();
    let ping = vec![r#"{"id":2,"kind":"ping"}"#.to_owned()];
    let pong = vertical_power_delivery::serve::call(&addr, &ping, false).expect("ping");
    let ping_rtt = sent.elapsed();
    assert!(pong[0].contains(r#""ok":true"#), "{}", pong[0]);

    let mut long = String::new();
    reader.read_line(&mut long).expect("long job response");
    let long_rest = sent.elapsed();
    assert!(
        long.contains(r#""id":1"#) && long.contains(r#""ok":true"#),
        "{long}"
    );
    assert!(
        long_rest >= ping_rtt * 10,
        "ping took {ping_rtt:?}, the long job's remaining {long_rest:?}"
    );

    let _ = vertical_power_delivery::serve::call(&addr, &[], true).expect("drain");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn typed_errors_flow_end_to_end() {
    let (out, _) = serve_script(
        &[
            r#"{"id":1,"kind":"impedance","params":{"arch":"all"}}"#,
            r#"{"id":2,"kind":"impedance","params":{"arch":"a1","points":1}}"#,
            r#"{"id":3,"kind":"mc","params":{"arch":"a1","samples":0}}"#,
        ],
        16,
    );
    assert_eq!(out.len(), 3, "{out:?}");
    let unsupported = out.iter().find(|l| l.contains("\"id\":1")).unwrap();
    assert!(
        unsupported.contains(r#""code":"unsupported""#),
        "{unsupported}"
    );
    let engine = out.iter().find(|l| l.contains("\"id\":2")).unwrap();
    assert!(engine.contains(r#""code":"engine""#), "{engine}");
    let bad = out.iter().find(|l| l.contains("\"id\":3")).unwrap();
    assert!(bad.contains(r#""code":"bad_request""#), "{bad}");
}
