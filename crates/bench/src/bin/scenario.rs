//! Measures the `.vpd` scenario subsystem and emits
//! `BENCH_scenario.json`.
//!
//! Phases:
//!
//! * **parse / compile / render throughput** — the five builtin
//!   documents cycled through [`ScenarioDoc::parse`],
//!   [`ScenarioDoc::compile`](vpd_scenario::ScenarioDoc::compile), and
//!   [`ScenarioDoc::render`], reported as docs/s and MiB/s.
//! * **served inline scenarios, cold vs cached** — loopback
//!   `vpd-serve` servers answer `kind = "scenario"` requests carrying
//!   inline user documents (custom spec, converter anchors, and a
//!   `[tech.tsv]` override, no `[faults]`). A server without a cache
//!   answers every pass cold, compiling each document's analysis
//!   session; a caching server, warmed by one first-touch pass, answers
//!   from its sharded scenario cache. Cached passes must run at least
//!   3x faster and return bit-identical results.
//! * **spelling-invariance audit** — a respelled copy of one document
//!   (comments, reordered keys) must hit the cache entry its canonical
//!   twin populated, proving the content-hash key is spelling-blind.
//!
//! ```sh
//! cargo run --release -p vpd-bench --bin scenario             # full, writes JSON
//! cargo run --release -p vpd-bench --bin scenario -- --smoke  # CI smoke
//! ```

use vpd_bench::perf::{Bench, Bound, Config, Size};
use vpd_bench::Loopback;
use vpd_report::Json;
use vpd_scenario::{builtin_docs, ScenarioDoc};
use vpd_serve::{call, ServeConfig};

/// Passes over the builtin corpus per timed run.
const CORPUS_PASSES: Size<usize> = Size(2_000, 20);
/// Served passes over the user documents per timed run.
const SERVED_PASSES: Size<usize> = Size(10, 3);
/// Serving workers of each server.
const WORKERS: usize = 2;

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
        r#"{{"id":{id},"kind":"scenario","params":{{"doc":{}}}}}"#,
        Json::from(doc)
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
    let bench = Bench::from_args("scenario", "BENCH_scenario.json");

    // --- phase 1: parse / compile / render throughput -------------------
    let corpus: Vec<&str> = builtin_docs().iter().map(|(_, text)| *text).collect();
    let corpus_bytes: usize = corpus.iter().map(|t| t.len()).sum();
    let iters = bench.size(CORPUS_PASSES);
    let n_docs = iters * corpus.len();
    let parse = |t: &&str| ScenarioDoc::parse(t).expect("builtin parses");
    let mut parsed: Vec<ScenarioDoc> = corpus.iter().map(parse).collect();
    let docs = bench.measure(
        &format!(
            "builtin corpus ({} docs, {corpus_bytes} bytes)",
            corpus.len()
        ),
        &[
            Config::new("parse_docs_per_sec", n_docs),
            Config::new("compile_docs_per_sec", n_docs),
            Config::new("render_docs_per_sec", n_docs),
        ],
        |config| {
            for _ in 0..iters {
                match config {
                    0 => parsed = corpus.iter().map(parse).collect(),
                    1 => parsed.iter().for_each(|doc| {
                        std::hint::black_box(doc.compile().expect("builtin compiles"));
                    }),
                    _ => parsed.iter().for_each(|doc| {
                        std::hint::black_box(doc.render());
                    }),
                }
            }
        },
    );

    // --- phase 2: served inline scenarios, cold vs cached ---------------
    let powers = [600.0, 800.0, 1000.0, 1200.0];
    let lines: Vec<String> = powers
        .iter()
        .enumerate()
        .map(|(i, &p)| request_line(i, &user_doc(p)))
        .collect();
    let servers = [0, 64].map(|cache_capacity| {
        Loopback::start(ServeConfig {
            workers: WORKERS,
            queue_depth: 64,
            cache_capacity,
            ..ServeConfig::default()
        })
    });
    let addr = &servers[1].addr;
    let first = unpack_pass(&call(addr, &lines, false).expect("first-touch pass"));
    for (cached, _) in &first {
        assert!(!cached, "first touch of a user scenario must be a miss");
    }

    let passes = bench.size(SERVED_PASSES);
    let served = passes * lines.len();
    let mut last = [Vec::new(), Vec::new()];
    let m = bench.measure(
        &format!("served {} inline scenarios, {passes} passes", lines.len()),
        &[
            Config::new("cold_docs_per_sec", served),
            Config::new("cached_docs_per_sec", served).ratio("cold_vs_cached_speedup"),
        ],
        |config| {
            for _ in 0..passes {
                let responses = call(&servers[config].addr, &lines, false).expect("served pass");
                last[config] = unpack_pass(&responses);
            }
        },
    );
    for (((cold_cached, cold), (cached, result)), (_, first)) in
        last[0].iter().zip(&last[1]).zip(&first)
    {
        assert!(!cold_cached, "a server without a cache answered from one");
        assert!(cached, "a warmed pass must hit the cache");
        assert_eq!(cold, result, "cached scenario results must equal cold ones");
        assert_eq!(
            first, result,
            "cached scenario results must equal the first touch"
        );
    }

    // Spelling invariance: a never-sent respelling of the first
    // document must land on the cache entry its canonical twin filled.
    let respelled = vec![request_line(99, &respelled_doc(powers[0]))];
    let responses = call(addr, &respelled, false).expect("respelled pass");
    let (_, respelled_cached, respelled_result) = unpack(&responses[0]);
    assert!(
        respelled_cached && respelled_result == first[0].1,
        "a respelled document must share its canonical twin's cache entry"
    );
    servers.into_iter().for_each(Loopback::shutdown);
    println!("cached == cold bitwise; a respelled document shares the cache entry");

    bench.finish(
        WORKERS,
        vec![
            docs.section(
                "corpus",
                &[
                    ("docs", corpus.len()),
                    ("bytes", corpus_bytes),
                    ("passes", iters),
                ],
            ),
            m.section("served", &[("docs", lines.len()), ("passes", passes)]),
        ],
        &[Bound::AtLeast("served.cold_vs_cached_speedup", 3.0)],
    );
}
