//! Measures the `.vpd` scenario subsystem and emits
//! `BENCH_scenario.json`.
//!
//! Phases:
//!
//! * **parse / compile / render throughput** — the five builtin
//!   documents cycled through [`ScenarioDoc::parse`],
//!   [`ScenarioDoc::compile`](vpd_scenario::ScenarioDoc::compile), and
//!   [`ScenarioDoc::render`], reported as docs/s and MiB/s.
//! * **served inline scenarios, cold vs cached** — a loopback
//!   `vpd-serve` server answers `kind = "scenario"` requests carrying
//!   inline user documents (custom spec, converter anchors, and a
//!   `[tech.tsv]` override — no `[faults]`, which deliberately runs
//!   cold per request). The first pass compiles each document's
//!   analysis session into the sharded scenario cache; warmed passes
//!   must run at least 3x faster and return bit-identical results.
//! * **spelling-invariance audit** — a respelled copy of one document
//!   (comments, reordered keys) must hit the cache entry its canonical
//!   twin populated, proving the content-hash key is spelling-blind.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin scenario             # full, writes JSON
//! cargo run --release -p vpd-bench --bin scenario -- --smoke  # CI smoke
//! ```
//!
//! Exits non-zero if any rate is non-finite or an audit fails.

use std::time::Instant;

use vpd_report::Json;
use vpd_scenario::{builtin_docs, ScenarioDoc};
use vpd_serve::{call, ServeConfig, Server};

fn usage() -> ! {
    eprintln!("usage: scenario [--smoke]");
    std::process::exit(2);
}

/// Escapes a document for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A user scenario the paper does not ship: A2 with DPMIH modules, a
/// custom power budget, explicit converter anchors, and a tightened
/// TSV pitch. `grid_nodes_per_side = 31` makes the cached session (one
/// sparse factorization) clearly more expensive than a warm solve.
fn user_doc(power_w: f64) -> String {
    format!(
        "[scenario]\nname = \"user-{power_w}\"\narchitecture = \"a2\"\n\
         topology = \"dpmih\"\n\n[spec]\npower_w = {power_w}\n\n\
         [calibration]\ngrid_nodes_per_side = 31\n\n\
         [load]\nmap = \"gaussian\"\nsigma = 0.12\n\n\
         [converter]\nv_out = 1\ni_peak = 30\neta_peak = 0.9\n\
         i_max = 100\neta_max = 0.86\n\n[tech.tsv]\npitch_um = 50\n"
    )
}

/// The same scenario as `user_doc(power)`, spelled differently:
/// comments, blank lines, reordered keys. Same canonical form, same
/// content hash, same cache entry.
fn respelled_doc(power_w: f64) -> String {
    format!(
        "# the same user scenario, respelled\n\n[scenario]\n\
         topology = \"dpmih\"  # modules first\narchitecture = \"a2\"\n\
         name = \"user-{power_w}\"\n\n[spec]\npower_w = {power_w}\n\n\
         [calibration]\ngrid_nodes_per_side = 31\n\n\
         [load]\nsigma = 0.12\nmap = \"gaussian\"\n\n\
         [converter]\neta_max = 0.86\ni_max = 100\neta_peak = 0.9\n\
         i_peak = 30\nv_out = 1\n\n[tech.tsv]\npitch_um = 50\n"
    )
}

fn request_line(id: usize, doc: &str) -> String {
    format!(
        r#"{{"id":{id},"kind":"scenario","params":{{"doc":"{}"}}}}"#,
        json_escape(doc)
    )
}

/// Unpacks a response line into (id, cached flag, serialized result).
/// Workers complete out of order, so responses realign by echoed id.
fn unpack(line: &str) -> (i64, bool, String) {
    let doc = Json::parse(line).expect("response parses");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {line}"
    );
    let id = doc.get("id").and_then(Json::as_i64).expect("id echoed");
    let cached = doc
        .get("cached")
        .and_then(Json::as_bool)
        .expect("cached flag present");
    let result = doc.get("result").expect("result present").to_string();
    (id, cached, result)
}

/// Unpacks a whole pass and sorts it back into request order.
fn unpack_pass(responses: &[String]) -> Vec<(bool, String)> {
    let mut out: Vec<(i64, bool, String)> = responses.iter().map(|l| unpack(l)).collect();
    out.sort_by_key(|(id, _, _)| *id);
    out.into_iter().map(|(_, c, r)| (c, r)).collect()
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
        "scenario smoke"
    } else {
        "scenario benchmark (BENCH_scenario.json)"
    });

    // --- phase 1: parse / compile / render throughput -------------------
    let corpus: Vec<&str> = builtin_docs().iter().map(|(_, text)| *text).collect();
    let corpus_bytes: usize = corpus.iter().map(|t| t.len()).sum();
    let iters = if smoke { 20 } else { 2_000 };

    let start = Instant::now();
    let mut parsed = Vec::new();
    for _ in 0..iters {
        parsed = corpus
            .iter()
            .map(|t| ScenarioDoc::parse(t).expect("builtin parses"))
            .collect();
    }
    let parse_s = start.elapsed().as_secs_f64();
    let n_docs = (iters * corpus.len()) as f64;
    let parse_docs_per_sec = n_docs / parse_s;
    let parse_mib_per_sec = (iters * corpus_bytes) as f64 / parse_s / (1024.0 * 1024.0);

    let start = Instant::now();
    for _ in 0..iters {
        for doc in &parsed {
            std::hint::black_box(doc.compile().expect("builtin compiles"));
        }
    }
    let compile_docs_per_sec = n_docs / start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..iters {
        for doc in &parsed {
            std::hint::black_box(doc.render());
        }
    }
    let render_docs_per_sec = n_docs / start.elapsed().as_secs_f64();

    println!(
        "parse    {parse_docs_per_sec:>10.0} docs/s  ({parse_mib_per_sec:.1} MiB/s)\n\
         compile  {compile_docs_per_sec:>10.0} docs/s\n\
         render   {render_docs_per_sec:>10.0} docs/s"
    );

    // --- phase 2: served inline scenarios, cold vs cached ---------------
    let powers = [600.0, 800.0, 1000.0, 1200.0];
    let lines: Vec<String> = powers
        .iter()
        .enumerate()
        .map(|(i, &p)| request_line(i, &user_doc(p)))
        .collect();
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let start = Instant::now();
    let cold_responses = call(&addr, &lines, false).expect("cold pass");
    let cold_s = start.elapsed().as_secs_f64();
    let cold = unpack_pass(&cold_responses);
    for (cached, _) in &cold {
        assert!(!cached, "first touch of a user scenario must be a miss");
    }

    let warm_passes = if smoke { 3 } else { 30 };
    let start = Instant::now();
    let mut warm: Vec<(bool, String)> = Vec::new();
    for _ in 0..warm_passes {
        let responses = call(&addr, &lines, false).expect("warm pass");
        warm = unpack_pass(&responses);
    }
    let warm_s = start.elapsed().as_secs_f64() / f64::from(warm_passes);
    let warm_speedup = cold_s / warm_s;

    let mut cached_matches_cold = true;
    for ((c_cached, c_result), (w_cached, w_result)) in cold.iter().zip(&warm) {
        assert!(!c_cached && *w_cached, "warm pass must hit the cache");
        cached_matches_cold &= c_result == w_result;
    }
    assert!(
        cached_matches_cold,
        "cached scenario results must be bit-identical to cold"
    );

    // Spelling invariance: a never-sent respelling of the first
    // document must land on the cache entry its canonical twin filled.
    let respelled = vec![request_line(99, &respelled_doc(powers[0]))];
    let responses = call(&addr, &respelled, false).expect("respelled pass");
    let (_, respelled_cached, respelled_result) = unpack(&responses[0]);
    let respelled_shares_cache = respelled_cached && respelled_result == cold[0].1;
    assert!(
        respelled_shares_cache,
        "a respelled document must share its canonical twin's cache entry"
    );
    call(&addr, &[], true).expect("shutdown");
    let _ = server_thread.join().expect("server thread");

    println!(
        "\nserved {} inline scenarios: cold {:.1} ms, cached {:.1} ms \
         ({warm_speedup:.2}x), bitwise equal, respelling shares cache",
        lines.len(),
        cold_s * 1e3,
        warm_s * 1e3,
    );

    for (label, v) in [
        ("parse_docs_per_sec", parse_docs_per_sec),
        ("compile_docs_per_sec", compile_docs_per_sec),
        ("render_docs_per_sec", render_docs_per_sec),
        ("warm_speedup", warm_speedup),
    ] {
        assert!(v.is_finite() && v > 0.0, "{label} not finite: {v}");
    }

    if smoke {
        println!("\nsmoke OK");
        return;
    }

    assert!(
        warm_speedup >= 3.0,
        "cached scenario pass must be at least 3x faster than cold \
         (got {warm_speedup:.2}x)"
    );

    let json = format!(
        "{{\n  \"scenario\": {{\n    \"corpus_docs\": {},\n    \"corpus_bytes\": {corpus_bytes},\n    \"parse_docs_per_sec\": {parse_docs_per_sec:.0},\n    \"parse_mib_per_sec\": {parse_mib_per_sec:.2},\n    \"compile_docs_per_sec\": {compile_docs_per_sec:.0},\n    \"render_docs_per_sec\": {render_docs_per_sec:.0},\n    \"served_docs\": {},\n    \"warm_passes\": {warm_passes},\n    \"cold_pass_ms\": {:.3},\n    \"cached_pass_ms\": {:.3},\n    \"cold_vs_cached_speedup\": {warm_speedup:.3},\n    \"cached_matches_cold_bitwise\": {cached_matches_cold},\n    \"respelled_doc_shares_cache\": {respelled_shares_cache}\n  }}\n}}\n",
        corpus.len(),
        lines.len(),
        cold_s * 1e3,
        warm_s * 1e3,
    );
    std::fs::write("BENCH_scenario.json", &json).unwrap();
    println!("\nwrote BENCH_scenario.json");
}
