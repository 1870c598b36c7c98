//! `vpdbench`: the repository benchmark. One invocation runs one
//! workload (or `all`) against `vpd serve`, checks every output
//! against the same commit's cold oracle, and prints one JSON result
//! line last on stdout. See `benchmark/README.md`.
//!
//! ```text
//! vpdbench --vpd <path> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod env;
mod gen;
mod layers;
mod oracle;
mod replay;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use vpd_report::Json;

pub const WORKLOADS: [&str; 3] = ["serve-warm", "serve-cold", "sweep-a2"];

pub struct Args {
    pub vpd: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected all or one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let number = |name: &str| -> Result<f64, String> {
        need(name)?
            .parse::<f64>()
            .map_err(|_| format!("{name} expects a number"))
    };
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        vpd: PathBuf::from(need("--vpd")?),
        workload,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed expects a non-negative integer".to_string())?,
        seconds,
        trace,
    })
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra fields for the run record (input shape, diagnostics).
    pub record: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one checked request; `check` is its verdict.
    pub fn count(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }
}

fn result_line(correct: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn run_one(args: &Args, workload: &str) -> Result<(bool, Outcome), String> {
    let probe = env::Probe::start();
    let mut o = workloads::run(args, workload)?;
    if let Some((name, value, _)) = o.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    let correct = o.failed == 0 && o.attempted > 0;
    let mut record = vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(args.seed as usize)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(o.attempted as usize)),
        ("failed", Json::from(o.failed as usize)),
        (
            "failed_frac",
            Json::from(o.failed as f64 / o.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Array(o.failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
        ("env", probe.finish()),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|(n, v, u)| {
                (
                    *n,
                    Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
                )
            })),
        ),
    ];
    record.append(&mut o.record);
    let path = wire::out_dir().join(format!(
        "{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, Json::obj(record).to_string() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for f in &o.failures {
        eprintln!("vpdbench: {workload}: check failed: {f}");
    }
    eprintln!("vpdbench: {workload}: run record in {}", path.display());
    Ok((correct, o))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vpdbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(wire::out_dir()) {
        eprintln!("vpdbench: {}: {e}", wire::out_dir().display());
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args, &args.workload) {
        Ok((correct, o)) => {
            for (metric, value, unit) in &o.metrics {
                eprintln!("vpdbench: {}: {metric} = {value} {unit}", args.workload);
            }
            println!("{}", result_line(correct, &o));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("vpdbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a fresh process of this binary, so each
/// one's peak-memory figure covers only the servers it started.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .arg("--vpd")
                .arg(&args.vpd)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .status()
        });
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
