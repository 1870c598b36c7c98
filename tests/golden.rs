//! The golden result corpus: served results pinned across commits.
//!
//! Every `tests/golden/<case>.ndjson` file holds one NDJSON request line
//! followed by the result documents that line produces, one per line:
//! a single document for a plain request, the waveform chunks and then
//! the summary for a `transient_stream`. [`golden_results_replay_bitwise`]
//! replays each request through a cold `Dispatcher::new(0)` and compares
//! the documents by value. Numbers are compared by their bits (the JSON
//! spelling is the shortest round trip), and the first differing field
//! is named by its path. The only exceptions are the fields listed in
//! [`TOLERANCES`], each with the reason its numbers may move.
//!
//! Re-bless every case after a deliberate result change:
//!
//! ```text
//! cargo test --test golden -- --ignored bless
//! ```
//!
//! A new case is a new file holding only its request line; blessing
//! fills in the documents.

use std::fs;
use std::path::{Path, PathBuf};

use vertical_power_delivery::report::Json;
use vertical_power_delivery::serve::proto::kind_specs;
use vertical_power_delivery::serve::{Dispatcher, Request, Work};

/// Kinds that report server state rather than an analysis result.
const UNPINNED_KINDS: [&str; 4] = ["ping", "stats", "kinds", "shutdown"];

/// A declared tolerance: under `path` (a field path or a prefix of one)
/// in `case`'s documents, a number may differ from its blessed value by
/// at most `abs`. Every number no entry covers stays bit-exact.
struct Tolerance {
    case: &'static str,
    path: &'static str,
    abs: f64,
    reason: &'static str,
}

const TOLERANCES: &[Tolerance] = &[
    Tolerance {
        case: "mc-a1-dsch.ndjson",
        path: "summary",
        abs: 1e-6,
        reason: "Monte-Carlo samples are answered from the exact nominal regulator response \
                 instead of warm-CG restamps; 1e-6 percentage points is the bound mc.rs \
                 holds between direct and warm-CG sessions",
    },
    Tolerance {
        case: "sharing_sweep-periphery-12.ndjson",
        path: "points[0].report",
        abs: 1e-9,
        reason: ONE_SOLVE_SWEEP,
    },
    Tolerance {
        case: "sharing_sweep-periphery-12.ndjson",
        path: "points[2].report",
        abs: 1e-9,
        reason: ONE_SOLVE_SWEEP,
    },
];

/// Why a setpoint sweep's off-nominal points may move: `points[1]`, the
/// nominal setpoint, is the solve itself and stays exact.
const ONE_SOLVE_SWEEP: &str = "every setpoint is answered from the one nominal solve; \
                               per-column solves differed from it only by rounding";

/// The tolerances declared for one case file.
fn tolerances_for(case: &str) -> Vec<&'static Tolerance> {
    TOLERANCES.iter().filter(|t| t.case == case).collect()
}

/// The tolerance covering field `path`, if one is declared.
fn declared<'a>(tolerances: &[&'a Tolerance], path: &str) -> Option<&'a Tolerance> {
    tolerances.iter().copied().find(|t| {
        path.strip_prefix(t.path)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(['.', '[']))
    })
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Every case file, in name order.
fn cases() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/golden exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ndjson"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the golden corpus is empty");
    files
}

fn case_name(path: &Path) -> String {
    path.file_name()
        .expect("case file name")
        .to_string_lossy()
        .into_owned()
}

/// A case file split into its request line and its blessed documents.
fn read_case(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).expect("readable case file");
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let request = lines.next().expect("case file starts with a request line");
    (request.to_owned(), lines.map(str::to_owned).collect())
}

/// The result documents one request line produces on `dispatcher`, in
/// emission order, each serialized to its wire spelling, and whether its
/// compiled state came from the cache.
fn replay(dispatcher: &Dispatcher, line: &str) -> Result<(Vec<String>, bool), String> {
    let req = Request::parse_line(line)
        .map_err(|e| format!("request rejected: {}: {}", e.code.as_str(), e.message))?;
    let engine = |(code, msg): (vertical_power_delivery::serve::ErrorCode, String)| {
        format!("engine error {}: {msg}", code.as_str())
    };
    match req.work {
        Work::TransientStream { arch, chunk } => {
            let mut run = dispatcher
                .begin_transient_stream(arch, chunk)
                .map_err(engine)?;
            let mut out = Vec::new();
            while let Some(doc) = run.next_chunk().map_err(engine)? {
                out.push(doc.to_string());
            }
            out.push(run.finish().to_string());
            Ok((out, run.cached()))
        }
        work => dispatcher
            .dispatch(&work)
            .map(|(doc, cached)| (vec![doc.to_string()], cached))
            .map_err(engine),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

/// The first difference between two documents, named by its field
/// path (`report.points[3].z_ohm`), or `None` when they are equal with
/// every number equal bit for bit, or within its declared tolerance.
fn first_difference(
    tolerances: &[&Tolerance],
    path: &str,
    want: &Json,
    got: &Json,
) -> Option<String> {
    let at = |what: String| {
        Some(if path.is_empty() {
            what
        } else {
            format!("{path}: {what}")
        })
    };
    match (want, got) {
        (Json::Num(a), Json::Num(b)) => {
            if a.to_bits() == b.to_bits() {
                return None;
            }
            match declared(tolerances, path) {
                Some(t) if (a - b).abs() <= t.abs => None,
                Some(t) => at(format!(
                    "want {a:?}, got {b:?}, beyond the declared tolerance {:e} ({})",
                    t.abs, t.reason
                )),
                None => at(format!("want {a:?}, got {b:?}")),
            }
        }
        (Json::Object(a), Json::Object(b)) => {
            for (i, (ka, va)) in a.iter().enumerate() {
                match b.get(i) {
                    Some((kb, vb)) if kb == ka => {
                        if let Some(d) = first_difference(tolerances, &join(path, ka), va, vb) {
                            return Some(d);
                        }
                    }
                    Some((kb, _)) => return at(format!("field {i} is `{kb}`, want `{ka}`")),
                    None => return at(format!("missing field `{ka}`")),
                }
            }
            b.get(a.len())
                .and_then(|(k, _)| at(format!("unexpected field `{k}`")))
        }
        (Json::Array(a), Json::Array(b)) => {
            if a.len() != b.len() {
                return at(format!("{} items, want {}", b.len(), a.len()));
            }
            a.iter()
                .zip(b)
                .enumerate()
                .find_map(|(i, (x, y))| first_difference(tolerances, &format!("{path}[{i}]"), x, y))
        }
        _ if want == got => None,
        _ => at(format!("want {want}, got {got}")),
    }
}

/// Compares one case's replayed documents with its blessed ones, under
/// the case's declared tolerances.
fn check_case(case: &str, want: &[String], got: &[String]) -> Result<(), String> {
    let tolerances = tolerances_for(case);
    if want.len() != got.len() {
        return Err(format!(
            "{} result documents, blessed {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        let w = Json::parse(w).map_err(|e| format!("blessed document {i} does not parse: {e}"))?;
        let g = Json::parse(g).map_err(|e| format!("document {i} does not parse: {e}"))?;
        if let Some(d) = first_difference(&tolerances, "", &w, &g) {
            return Err(format!("document {i}: {d}"));
        }
    }
    Ok(())
}

#[test]
fn golden_results_replay_bitwise() {
    let dispatcher = Dispatcher::new(0);
    let mut failures = Vec::new();
    for path in cases() {
        let (request, want) = read_case(&path);
        let case = case_name(&path);
        let outcome =
            replay(&dispatcher, &request).and_then(|(got, _)| check_case(&case, &want, &got));
        if let Err(e) = outcome {
            failures.push(format!("{case}: {e}"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden results moved (re-bless with `cargo test --test golden -- --ignored bless` \
         only for a deliberate change):\n{}",
        failures.join("\n")
    );
}

/// Every case served twice more through one caching dispatcher, after
/// the whole corpus has been served once: the second answer must come
/// from the cache and carry the cold answer's bits, every stream chunk
/// and summary included. Kinds that share entries (`analyze` and `mc`
/// at paper defaults) are served in between, so a cached entry must
/// answer exactly as a cold one whichever kind left it.
#[test]
fn cached_replays_match_the_cold_replay_bitwise() {
    let files = cases();
    let cold = Dispatcher::new(0);
    let warm = Dispatcher::new(files.len());
    let requests: Vec<(String, String)> = files
        .iter()
        .map(|path| (case_name(path), read_case(path).0))
        .collect();
    let mut failures = Vec::new();
    for (case, request) in &requests {
        if let Err(e) = replay(&warm, request) {
            failures.push(format!("{case}: first cached serve: {e}"));
        }
    }
    for (case, request) in &requests {
        let outcome = replay(&cold, request).and_then(|(want, _)| {
            let (got, cached) = replay(&warm, request)?;
            if !cached {
                return Err("the second serve missed the cache".to_owned());
            }
            if got.len() != want.len() {
                return Err(format!(
                    "{} cached documents, {} cold",
                    got.len(),
                    want.len()
                ));
            }
            match want.iter().zip(&got).position(|(w, g)| w != g) {
                Some(i) => Err(format!("cached document {i} differs from the cold one")),
                None => Ok(()),
            }
        });
        if let Err(e) = outcome {
            failures.push(format!("{case}: {e}"));
        }
    }
    assert!(
        failures.is_empty(),
        "cached answers differ from cold ones:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_covers_every_analysis_kind() {
    let kinds: Vec<String> = cases()
        .iter()
        .map(|p| {
            let (request, _) = read_case(p);
            let doc = Json::parse(&request).expect("request line parses");
            doc.get("kind")
                .and_then(Json::as_str)
                .expect("request has a kind")
                .to_owned()
        })
        .collect();
    for spec in kind_specs() {
        if !UNPINNED_KINDS.contains(&spec.kind) {
            assert!(
                kinds.iter().any(|k| k == spec.kind),
                "no golden case for kind `{}`",
                spec.kind
            );
        }
    }
}

/// Moves the first number of `doc` one ulp up and returns its path.
fn nudge_first_number(path: &str, doc: &mut Json) -> Option<String> {
    match doc {
        Json::Num(x) => {
            *x = f64::from_bits(x.to_bits() + 1);
            Some(path.to_owned())
        }
        Json::Object(pairs) => pairs
            .iter_mut()
            .find_map(|(k, v)| nudge_first_number(&join(path, k), v)),
        Json::Array(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(i, v)| nudge_first_number(&format!("{path}[{i}]"), v)),
        _ => None,
    }
}

#[test]
fn a_one_ulp_change_fails_and_names_its_field_path() {
    let case = "droop-a2.ndjson";
    let (_, want) = read_case(&corpus_dir().join(case));
    let mut doc = Json::parse(&want[0]).expect("blessed document parses");
    let field = nudge_first_number("", &mut doc).expect("the droop document has a number");
    assert_eq!(field, "report.v_before_v");
    let err = check_case(case, &want, &[doc.to_string()]).expect_err("a one-ulp change must fail");
    assert!(
        err.contains("report.v_before_v"),
        "failure does not name the field: {err}"
    );
    // The unperturbed document passes, so the failure is the ulp.
    assert_eq!(check_case(case, &want, &want), Ok(()));
}

#[test]
fn declared_tolerances_bound_their_fields_and_nothing_else() {
    let case = "mc-a1-dsch.ndjson";
    let (_, want) = read_case(&corpus_dir().join(case));
    let blessed = Json::parse(&want[0]).expect("blessed document parses");
    let moved = |by: f64| {
        let mut doc = blessed.clone();
        let Json::Object(fields) = &mut doc else {
            panic!("the mc document is an object");
        };
        let (_, summary) = fields
            .iter_mut()
            .find(|(k, _)| k == "summary")
            .expect("the mc document has a summary");
        let path = nudge_first_number("summary", summary).expect("the summary has a number");
        assert_eq!(path, "summary.mean_percent");
        let Json::Object(stats) = summary else {
            panic!("the summary is an object");
        };
        let Json::Num(x) = &mut stats[0].1 else {
            panic!("mean_percent is a number");
        };
        *x += by;
        doc.to_string()
    };
    // Within the declared 1e-6 percentage points: passes.
    assert_eq!(check_case(case, &want, &[moved(5e-7)]), Ok(()));
    // Beyond it: fails, naming the field.
    let err = check_case(case, &want, &[moved(5e-6)]).expect_err("beyond the tolerance");
    assert!(
        err.contains("summary.mean_percent") && err.contains("declared tolerance"),
        "failure does not name the field: {err}"
    );
    // An undeclared number of the same document stays exact: `samples`
    // one ulp above its blessed 6 fails.
    let mut doc = blessed.clone();
    let Json::Object(fields) = &mut doc else {
        panic!("the mc document is an object");
    };
    let (_, samples) = fields
        .iter_mut()
        .find(|(k, _)| k == "samples")
        .expect("the mc document has a sample count");
    assert_eq!(*samples, Json::Int(6));
    *samples = Json::Num(f64::from_bits(6.0_f64.to_bits() + 1));
    let err = check_case(case, &want, &[doc.to_string()]).expect_err("a one-ulp change must fail");
    assert!(
        err.starts_with("document 0: samples:"),
        "failure does not name the field: {err}"
    );
    // A prefix covers its own fields only, and no other case.
    let tolerances = tolerances_for(case);
    assert!(declared(&tolerances, "summary.p95_percent").is_some());
    assert!(declared(&tolerances, "summary_percent").is_none());
    assert!(declared(&tolerances, "samples").is_none());
    assert!(tolerances_for("droop-a2.ndjson").is_empty());

    // The sweep's nominal point stays exact between its two declared
    // neighbours: `points[1].report.min_a` one ulp up fails.
    let sweep = "sharing_sweep-periphery-12.ndjson";
    let (_, want) = read_case(&corpus_dir().join(sweep));
    let mut doc = Json::parse(&want[0]).expect("blessed document parses");
    let Json::Object(fields) = &mut doc else {
        panic!("the sweep document is an object");
    };
    let (_, Json::Array(points)) = fields
        .iter_mut()
        .find(|(k, _)| k == "points")
        .expect("the sweep document has points")
    else {
        panic!("points is an array");
    };
    let Json::Object(point) = &mut points[1] else {
        panic!("a sweep point is an object");
    };
    let (_, report) = point
        .iter_mut()
        .find(|(k, _)| k == "report")
        .expect("a sweep point has a report");
    let path = nudge_first_number("points[1].report", report).expect("the report has a number");
    assert_eq!(path, "points[1].report.min_a");
    let err = check_case(sweep, &want, &[doc.to_string()]).expect_err("the nominal point is exact");
    assert!(
        err.starts_with("document 0: points[1].report.min_a:"),
        "failure does not name the field: {err}"
    );
}

#[test]
#[ignore = "rewrites tests/golden; run `cargo test --test golden -- --ignored bless`"]
fn bless() {
    let dispatcher = Dispatcher::new(0);
    for path in cases() {
        let (request, _) = read_case(&path);
        let (docs, _) =
            replay(&dispatcher, &request).unwrap_or_else(|e| panic!("{}: {e}", case_name(&path)));
        let mut text = request;
        for doc in docs {
            text.push('\n');
            text.push_str(&doc);
        }
        text.push('\n');
        fs::write(&path, text).expect("writable case file");
    }
}
