//! `vpd` — command-line front end for the vertical-power-delivery
//! models.
//!
//! ```sh
//! vpd analyze --arch a1 --topology dsch --power 1000
//! vpd matrix
//! vpd recommend
//! vpd sharing --placement below --modules 48
//! vpd mc --arch a2 --samples 200
//! vpd impedance --arch a2
//! vpd droop --arch a0
//! vpd thermal --arch a2 --tech si
//! vpd faults --arch a2 --n-minus-1
//! vpd --format json --metrics metrics.ndjson mc --arch a1
//! ```
//!
//! Every subcommand with a served kind is a [`Dispatcher`] client: it
//! reads its flags by walking the kind's `KindSpec` rows, builds the
//! [`Work`] through [`Work::from_params`], and dispatches it on a
//! cache-less dispatcher, so its JSON document is the served `result`
//! by construction. Every analysis command prints that document, or
//! with `--format text` its [`Json::to_text`] view.

use std::path::PathBuf;
use std::process::ExitCode;
use vertical_power_delivery::core::{
    compare_architectures, compare_droop_architectures, electro_thermal, explore_matrix, recommend,
    DroopSweep, DroopSweepSettings, ElectroThermalSettings, ImpedanceSweepSettings,
};
use vertical_power_delivery::obs;
use vertical_power_delivery::prelude::*;
use vertical_power_delivery::report::Json;
use vertical_power_delivery::scenario::ScenarioDoc;
use vertical_power_delivery::serve::proto::{kind_spec, parse_architecture, FieldType};
use vertical_power_delivery::serve::{self, Dispatcher, ServeConfig, Work};
use vertical_power_delivery::thermal::DeviceTechnology;
use vpd_units::Seconds;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match Invocation::parse(&args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if invocation.metrics.is_some() {
        obs::set_enabled(true);
    }
    let label = invocation.command.label();
    let outcome = run(invocation.command, invocation.format);
    if let Some(path) = &invocation.metrics {
        let snapshot = obs::snapshot();
        if let Err(e) = obs::append_ndjson(path, label, &snapshot) {
            eprintln!(
                "warning: could not write metrics to {}: {e}",
                path.display()
            );
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: vpd [--format <text|json>] [--metrics <path>] <command> [options]

global options:
  --format <text|json>  output format (default: text, a view of the
                        JSON document every analysis command emits)
  --metrics <path>      record solver metrics and append one NDJSON
                        snapshot line per invocation to <path>

commands:
  analyze     --arch <a0|a1|a2|a3-12|a3-6> [--topology <dpmih|dsch|3lhd>]
              [--power <watts>] [--density <A/mm2>]
  matrix      full architecture x topology loss table
  recommend   designer ranking (no overload extrapolation)
  sharing     [--placement <periphery|below>] [--modules <n>]
  mc          --arch <a0|a1|a2|a3-12|a3-6> [--topology <dpmih|dsch|3lhd>]
              [--samples <n>] [--seed <s>] [--threads <n>]
  impedance   --arch <a0|a1|a2|a3-12|a3-6|all> [--fmin <hz>] [--fmax <hz>]
              [--points <n>] [--profile]
              (defaults: 200 points, 1 kHz – 1 GHz; --arch all compares
              A0/A1/A2 on one grid; --profile prints every swept point)
  droop       --arch <a0|a1|a2|a3-12|a3-6|all> [--sweep] [--amps <n>]
              [--slews <n>] [--threads <n>]
              (--sweep runs a load-step amplitude x slew-rate grid
              through one compiled transient plan; --arch all compares
              A0/A1/A2 sweeps and requires --sweep)
  thermal     --arch <a1|a2> [--tech <si|gan>]
  faults      --arch <a0|a1|a2|a3-12|a3-6> [--topology <dpmih|dsch|3lhd>]
              [--n-minus-1 | --random-k <k>] [--count <n>] [--seed <s>]
              [--dynamic]
              (--dynamic runs the fault power-integrity triad instead
              of the static drop sweep: faulted impedance profiles,
              mid-run VR-failure transients, and the electro-thermal
              cascade survival envelope; requires a vertical
              architecture for the cascade stage)
  serve       [--addr <host:port>] [--workers <n>] [--queue-depth <n>]
              [--cache-size <n>] [--stdio]
              NDJSON analysis service: multiplexed connections, a
              per-worker sharded compiled-plan cache, and deadline-aware
              load shedding (default addr 127.0.0.1:7171; --stdio serves
              one session on stdin/stdout instead of TCP)
  call        [--addr <host:port>] --request '<json>' [--request ...]
              [--shutdown]
              send request lines to a running server, print one
              response line each; fails fast on a protocol-version
              mismatch; --shutdown drains the server after
  scenario    <check|render|run> (--file <path> | --name <a0|a1|a2|a3-12|a3-6>)
              declarative .vpd scenario documents: `check` validates
              (stable error[code] at line:col diagnostics), `render`
              prints the canonical text (the content-hash input), `run`
              compiles and analyzes — `--format json` output is
              byte-identical to the served `scenario` request
  help        print this message

The analyze, sharing, mc, impedance, droop and faults commands run
through the serve dispatcher: their `--format json` output is the
served result for the same parameters.";

/// A full CLI invocation: global flags plus the subcommand.
#[derive(Clone, Debug, PartialEq)]
struct Invocation {
    command: Command,
    format: RenderFormat,
    metrics: Option<PathBuf>,
}

impl Invocation {
    /// Extracts the global `--format` / `--metrics` flags (accepted
    /// anywhere on the line) and parses the rest as a [`Command`].
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut format = RenderFormat::Text;
        let mut metrics = None;
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--format" => {
                    let v = it.next().ok_or("--format expects text|json")?;
                    format = v.parse()?;
                }
                "--metrics" => {
                    let v = it.next().ok_or("--metrics expects a file path")?;
                    metrics = Some(PathBuf::from(v));
                }
                _ => rest.push(arg.clone()),
            }
        }
        Ok(Self {
            command: Command::parse(&rest)?,
            format,
            metrics,
        })
    }
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
enum Command {
    /// A subcommand with a served kind, run as one dispatch.
    Dispatch(Work),
    /// `faults --dynamic`: the served `fault_impedance`,
    /// `fault_transient` and `survival` kinds, reported as one document.
    FaultsDynamic {
        impedance: Work,
        transient: Work,
        survival: Work,
    },
    Matrix,
    Recommend,
    /// `impedance --arch all`: A0/A1/A2 compared on one grid.
    ImpedanceAll {
        fmin_hz: f64,
        fmax_hz: f64,
        points: usize,
    },
    /// `droop --sweep`: a load-step amplitude × slew-rate grid.
    DroopSweep {
        /// None = compare A0/A1/A2 sweeps.
        arch: Option<Architecture>,
        amps: usize,
        slews: usize,
        threads: usize,
    },
    Thermal {
        arch: Architecture,
        tech: DeviceTechnology,
    },
    Serve {
        addr: String,
        workers: usize,
        queue_depth: usize,
        cache_size: usize,
        stdio: bool,
    },
    Call {
        addr: String,
        requests: Vec<String>,
        shutdown: bool,
    },
    Scenario {
        action: ScenarioAction,
        /// Path to a `.vpd` document on disk.
        file: Option<PathBuf>,
        /// Builtin scenario name (`a0`…`a3-6`).
        name: Option<String>,
    },
    Help,
}

/// What `vpd scenario` should do with the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScenarioAction {
    /// Parse and validate only; report the stable diagnostic on failure.
    Check,
    /// Print the canonical rendering (the content-hash input).
    Render,
    /// Compile and analyze through the serve dispatcher, so `--format
    /// json` output is byte-identical to the served `scenario` result.
    Run,
}

/// The architectures `impedance --arch all` and `droop --arch all`
/// compare.
const SINGLE_STAGE: [Architecture; 3] = [
    Architecture::Reference,
    Architecture::InterposerPeriphery,
    Architecture::InterposerEmbedded,
];

impl Command {
    /// The subcommand label: the metrics snapshot tag and the
    /// `"command"` field of every JSON document this subcommand emits.
    fn label(&self) -> &'static str {
        match self {
            Self::Dispatch(work) => work.kind(),
            Self::FaultsDynamic { .. } => "faults",
            Self::Matrix => "matrix",
            Self::Recommend => "recommend",
            Self::ImpedanceAll { .. } => "impedance",
            Self::DroopSweep { .. } => "droop",
            Self::Thermal { .. } => "thermal",
            Self::Serve { .. } => "serve",
            Self::Call { .. } => "call",
            Self::Scenario { .. } => "scenario",
            Self::Help => "help",
        }
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        use Arity::{Repeated, Switch, Value};
        let (cmd, rest) = args.split_first().ok_or("missing command")?;
        match cmd.as_str() {
            "analyze" | "sharing" | "mc" => {
                let (_, params) = read_served(cmd, rest, &[])?;
                Ok(Self::Dispatch(served_work(cmd, params)?))
            }
            "impedance" => {
                let (flags, params) = read_served("impedance", rest, &[])?;
                if flags.value("--arch") != Some("all") {
                    return Ok(Self::Dispatch(served_work("impedance", params)?));
                }
                // Bounds and point counts are validated by the checked
                // sweep builder, so every bad grid is a typed error.
                let z = ImpedanceSweepSettings::default();
                Ok(Self::ImpedanceAll {
                    fmin_hz: flags.f64("--fmin")?.unwrap_or(z.fmin.value()),
                    fmax_hz: flags.f64("--fmax")?.unwrap_or(z.fmax.value()),
                    points: flags.count("--points")?.unwrap_or(z.points),
                })
            }
            "droop" => {
                let extra = [
                    ("--sweep", Switch),
                    ("--amps", Value),
                    ("--slews", Value),
                    ("--threads", Value),
                ];
                let (flags, params) = read_served("droop", rest, &extra)?;
                let all = flags.value("--arch") == Some("all");
                if !flags.has("--sweep") {
                    if all {
                        return Err("droop --arch all requires --sweep".into());
                    }
                    return Ok(Self::Dispatch(served_work("droop", params)?));
                }
                Ok(Self::DroopSweep {
                    arch: if all { None } else { Some(flags.arch()?) },
                    amps: flags.count("--amps")?.unwrap_or(4),
                    slews: flags.count("--slews")?.unwrap_or(3),
                    threads: flags.count("--threads")?.unwrap_or(0),
                })
            }
            "faults" => {
                let extra = [("--n-minus-1", Switch), ("--dynamic", Switch)];
                let (flags, params) = read_served("faults", rest, &extra)?;
                if flags.has("--n-minus-1") && flags.has("--random-k") {
                    return Err("--n-minus-1 and --random-k are mutually exclusive".into());
                }
                if !flags.has("--dynamic") {
                    return Ok(Self::Dispatch(served_work("faults", params)?));
                }
                // Each kind of the triad takes the `faults` params it
                // names; the transient failure grid keeps its default.
                let pick = |kind: &str, keys: &[&str]| {
                    let picked = params.iter().filter(|(k, _)| keys.contains(&k.as_str()));
                    served_work(kind, picked.cloned().collect())
                };
                Ok(Self::FaultsDynamic {
                    impedance: pick("fault_impedance", &["arch", "random_k", "count", "seed"])?,
                    transient: pick("fault_transient", &["arch"])?,
                    survival: pick("survival", &["arch", "topology"])?,
                })
            }
            "matrix" | "recommend" | "help" | "--help" | "-h" => {
                Flags::read::<&str>(rest, &[])?;
                Ok(match cmd.as_str() {
                    "matrix" => Self::Matrix,
                    "recommend" => Self::Recommend,
                    _ => Self::Help,
                })
            }
            "thermal" => {
                let flags = Flags::read(rest, &[("--arch", Value), ("--tech", Value)])?;
                let tech = match flags.value("--tech") {
                    Some("si") => DeviceTechnology::Si,
                    Some("gan") | None => DeviceTechnology::GaN,
                    Some(other) => return Err(format!("unknown technology '{other}'")),
                };
                Ok(Self::Thermal {
                    arch: flags.arch()?,
                    tech,
                })
            }
            "serve" => {
                let flags = Flags::read(
                    rest,
                    &[
                        ("--addr", Value),
                        ("--workers", Value),
                        ("--queue-depth", Value),
                        ("--cache-size", Value),
                        ("--stdio", Switch),
                    ],
                )?;
                let defaults = ServeConfig::default();
                Ok(Self::Serve {
                    addr: flags.value("--addr").unwrap_or(DEFAULT_ADDR).to_owned(),
                    workers: flags.count("--workers")?.unwrap_or(defaults.workers),
                    queue_depth: flags
                        .count("--queue-depth")?
                        .unwrap_or(defaults.queue_depth),
                    cache_size: flags
                        .count("--cache-size")?
                        .unwrap_or(defaults.cache_capacity),
                    stdio: flags.has("--stdio"),
                })
            }
            "call" => {
                let flags = Flags::read(
                    rest,
                    &[
                        ("--addr", Value),
                        ("--request", Repeated),
                        ("--shutdown", Switch),
                    ],
                )?;
                let requests = flags.values("--request");
                let shutdown = flags.has("--shutdown");
                if requests.is_empty() && !shutdown {
                    return Err("call needs at least one --request (or --shutdown)".into());
                }
                Ok(Self::Call {
                    addr: flags.value("--addr").unwrap_or(DEFAULT_ADDR).to_owned(),
                    requests,
                    shutdown,
                })
            }
            "scenario" => {
                let (action, rest) = rest
                    .split_first()
                    .ok_or("scenario needs an action (check|render|run)")?;
                let action = match action.as_str() {
                    "check" => ScenarioAction::Check,
                    "render" => ScenarioAction::Render,
                    "run" => ScenarioAction::Run,
                    other => {
                        return Err(format!(
                            "unknown scenario action '{other}' (expected check|render|run)"
                        ))
                    }
                };
                let flags = Flags::read(rest, &[("--file", Value), ("--name", Value)])?;
                let file = flags.value("--file").map(PathBuf::from);
                let name = flags.value("--name").map(str::to_owned);
                match (&file, &name) {
                    (Some(_), Some(_)) => {
                        return Err("--file and --name are mutually exclusive".into())
                    }
                    (None, None) => {
                        return Err("scenario needs --file <path> or --name <builtin>".into())
                    }
                    _ => {}
                }
                Ok(Self::Scenario { action, file, name })
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arity {
    /// `--flag <value>`, at most once.
    Value,
    /// A bare `--flag`, at most once.
    Switch,
    /// `--flag <value>`, any number of times.
    Repeated,
}

/// One subcommand's arguments, read against the flags it accepts — the
/// flag reader every subcommand shares. An unknown flag, a flag missing
/// its value, a repeated single-use flag and a stray positional argument
/// are errors that name the argument; integer flags must parse as
/// integers, never truncated from a float or wrapped from a negative.
#[derive(Debug)]
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn read<S: AsRef<str>>(args: &[String], accepted: &[(S, Arity)]) -> Result<Self, String> {
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some((_, arity)) = accepted.iter().find(|(name, _)| name.as_ref() == arg) else {
                let names: Vec<&str> = accepted.iter().map(|(name, _)| name.as_ref()).collect();
                let expected = if names.is_empty() {
                    "this command takes no flags".to_owned()
                } else {
                    format!("expected one of: {}", names.join(", "))
                };
                let what = if arg.starts_with('-') {
                    "unknown flag"
                } else {
                    "unexpected argument"
                };
                return Err(format!("{what} '{arg}' ({expected})"));
            };
            if *arity != Arity::Repeated && given.iter().any(|(name, _)| name == arg) {
                return Err(format!("{arg} is given more than once"));
            }
            let value = match arity {
                Arity::Switch => None,
                Arity::Value | Arity::Repeated => Some(
                    it.next()
                        .ok_or_else(|| format!("{arg} expects a value"))?
                        .clone(),
                ),
            };
            given.push((arg.clone(), value));
        }
        Ok(Self(given))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(name, _)| name == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(name, _)| name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Every value of a [`Arity::Repeated`] flag, in order.
    fn values(&self, flag: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(name, _)| name == flag)
            .filter_map(|(_, value)| value.clone())
            .collect()
    }

    fn f64(&self, flag: &str) -> Result<Option<f64>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} expects a number, got '{v}'"))
            })
            .transpose()
    }

    /// A non-negative integer flag.
    fn int(&self, flag: &str) -> Result<Option<i64>, String> {
        self.value(flag)
            .map(|v| {
                v.parse::<i64>()
                    .ok()
                    .filter(|n| *n >= 0)
                    .ok_or_else(|| format!("{flag} expects a non-negative integer, got '{v}'"))
            })
            .transpose()
    }

    fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        Ok(self
            .int(flag)?
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX)))
    }

    /// The required `--arch`, in the wire's spelling.
    fn arch(&self) -> Result<Architecture, String> {
        let s = self.value("--arch").ok_or("--arch is required")?;
        parse_architecture(s).ok_or_else(|| format!("unknown architecture '{s}'"))
    }
}

/// The CLI spelling of a wire param: `--` and the name with `-` for
/// `_`, except three flags that predate the wire names.
fn flag_of(param: &str) -> String {
    match param {
        "power_w" => "--power".to_owned(),
        "fmin_hz" => "--fmin".to_owned(),
        "fmax_hz" => "--fmax".to_owned(),
        other => format!("--{}", other.replace('_', "-")),
    }
}

/// The `params` object of a request, as `(name, value)` pairs.
type Params = Vec<(String, Json)>;

/// Reads a served subcommand's flags — its kind's `KindSpec` rows under
/// their CLI spellings, plus the subcommand's CLI-only `extra` flags —
/// and builds the wire `params` from the rows given.
fn read_served(
    kind: &str,
    args: &[String],
    extra: &[(&str, Arity)],
) -> Result<(Flags, Params), String> {
    let spec = kind_spec(kind).expect("served subcommands are kinds in the table");
    let rows = spec.fields.iter().map(|f| {
        let arity = match f.ty {
            FieldType::Flag => Arity::Switch,
            _ => Arity::Value,
        };
        (flag_of(f.name), arity)
    });
    let accepted: Vec<(String, Arity)> = rows
        .chain(extra.iter().map(|&(name, arity)| (name.to_owned(), arity)))
        .collect();
    let flags = Flags::read(args, &accepted)?;
    let mut params = Vec::new();
    for f in &spec.fields {
        let flag = flag_of(f.name);
        let value = match f.ty {
            FieldType::Flag => flags.has(&flag).then_some(Json::from(true)),
            FieldType::F64 { .. } => flags.f64(&flag)?.map(Json::from),
            FieldType::Count { .. } | FieldType::OptionalCount { .. } | FieldType::Seed => {
                flags.int(&flag)?.map(Json::Int)
            }
            _ => flags.value(&flag).map(Json::from),
        };
        if let Some(value) = value {
            params.push((f.name.to_owned(), value));
        }
    }
    Ok((flags, params))
}

/// Builds a served kind's work through the wire's own parser; a
/// rejected param is reported under its CLI flag.
fn served_work(kind: &str, params: Params) -> Result<Work, String> {
    Work::from_params(kind, &Json::Object(params)).map_err(|(_, message)| {
        let spec = kind_spec(kind).expect("served subcommands are kinds in the table");
        match spec
            .fields
            .iter()
            .find(|f| message.contains(&format!("`{}`", f.name)))
        {
            Some(f) => format!("{}: {message}", flag_of(f.name)),
            None => message,
        }
    })
}

/// The default service endpoint shared by `serve` and `call`.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Prints one `scenario check|render` result: its own text, or the
/// context-wrapped JSON.
fn emit(format: RenderFormat, text: impl FnOnce() -> String, json: impl FnOnce() -> Json) {
    match format {
        RenderFormat::Text => print!("{}", text()),
        RenderFormat::Json => println!("{}", json()),
    }
}

/// Builds the context-wrapped JSON document of a CLI-only subcommand:
/// the subcommand label under `"command"`, then the given pairs, the
/// same shape as every served result document.
fn command_json(
    label: &'static str,
    pairs: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    Json::Object(
        std::iter::once(("command".to_owned(), Json::from(label)))
            .chain(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)))
            .collect(),
    )
}

/// Runs served work one-shot on a cache-less dispatcher: the document is
/// the served `result` for the same request.
fn dispatch(work: &Work) -> Result<Json, String> {
    Dispatcher::new(0)
        .dispatch(work)
        .map(|(doc, _)| doc)
        .map_err(|(_, message)| message)
}

fn run(cmd: Command, format: RenderFormat) -> Result<(), Box<dyn std::error::Error>> {
    let calib = Calibration::paper_default();
    let label = cmd.label();
    let doc = match cmd {
        Command::Help => {
            println!("{USAGE}");
            return Ok(());
        }
        Command::Dispatch(work) => dispatch(&work)?,
        Command::FaultsDynamic {
            impedance,
            transient,
            survival,
        } => {
            // The three served documents under one label: their reports,
            // plus the scenario set and topology they echo.
            let impedance = dispatch(&impedance)?;
            let transient = dispatch(&transient)?;
            let survival = dispatch(&survival)?;
            let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
            command_json(
                label,
                [
                    ("mode", Json::from("dynamic")),
                    ("scenarios", field(&impedance, "mode")),
                    ("topology", field(&survival, "topology")),
                    ("impedance", field(&impedance, "report")),
                    ("transient", field(&transient, "report")),
                    ("survival", field(&survival, "report")),
                ],
            )
        }
        Command::Matrix => {
            let entries = explore_matrix(
                &VrTopologyKind::ALL,
                &SystemSpec::paper_default(),
                &calib,
                &AnalysisOptions::default(),
            );
            let entries = entries.iter().map(|e| {
                let mut pairs = vec![
                    ("architecture".to_owned(), Json::from(e.architecture.name())),
                    ("topology".to_owned(), Json::from(e.topology.name())),
                ];
                match &e.outcome {
                    Ok(r) => {
                        pairs.push(("loss_percent".to_owned(), Json::from(r.loss_percent())));
                        pairs.push(("overloaded".to_owned(), Json::from(r.overloaded)));
                    }
                    Err(err) => pairs.push(("excluded".to_owned(), Json::from(err.to_string()))),
                }
                Json::Object(pairs)
            });
            command_json(label, [("entries", Json::array(entries))])
        }
        Command::Recommend => {
            let rec = recommend(&SystemSpec::paper_default(), &calib);
            let ranked = rec.ranked.iter().map(|c| {
                Json::obj([
                    ("architecture", Json::from(c.architecture.name())),
                    ("topology", Json::from(c.topology.name())),
                    ("loss_percent", Json::from(c.report.loss_percent())),
                    ("rationale", Json::from(c.rationale.as_str())),
                ])
            });
            let rejected = rec.rejected.iter().map(|(a, t, e)| {
                Json::obj([
                    ("architecture", Json::from(a.name())),
                    ("topology", Json::from(t.name())),
                    ("error", Json::from(e.to_string())),
                ])
            });
            command_json(
                label,
                [
                    ("ranked", Json::array(ranked)),
                    ("rejected", Json::array(rejected)),
                ],
            )
        }
        Command::ImpedanceAll {
            fmin_hz,
            fmax_hz,
            points,
        } => {
            let settings = ImpedanceSweepSettings {
                fmin: Hertz::new(fmin_hz),
                fmax: Hertz::new(fmax_hz),
                points,
                threads: 0,
            };
            let cmp =
                compare_architectures(&SINGLE_STAGE, &SystemSpec::paper_default(), &settings)?;
            command_json(
                label,
                [
                    ("points", Json::from(points)),
                    ("fmin_hz", Json::from(fmin_hz)),
                    ("fmax_hz", Json::from(fmax_hz)),
                    ("comparison", cmp.render_json()),
                ],
            )
        }
        Command::DroopSweep {
            arch,
            amps,
            slews,
            threads,
        } => {
            let spec = SystemSpec::paper_default();
            let sim = Seconds::from_microseconds(60.0);
            let dt = Seconds::from_nanoseconds(10.0);
            let mut settings = DroopSweepSettings::paper_default(&spec, amps, slews)?;
            settings.threads = threads;
            match arch {
                None => {
                    let cmp =
                        compare_droop_architectures(&SINGLE_STAGE, &spec, sim, dt, &settings)?;
                    command_json(
                        label,
                        [
                            ("amps", Json::from(amps)),
                            ("slews", Json::from(slews)),
                            ("comparison", cmp.render_json()),
                        ],
                    )
                }
                Some(arch) => {
                    let rep = DroopSweep::for_architecture(arch, &spec, sim, dt)?.run(&settings)?;
                    command_json(
                        label,
                        [
                            ("architecture", Json::from(arch.name())),
                            ("amps", Json::from(amps)),
                            ("slews", Json::from(slews)),
                            ("report", rep.render_json()),
                        ],
                    )
                }
            }
        }
        Command::Thermal { arch, tech } => {
            let settings = ElectroThermalSettings {
                technology: tech,
                ..ElectroThermalSettings::default()
            };
            let r = electro_thermal(
                arch,
                VrTopologyKind::Dsch,
                &SystemSpec::paper_default(),
                &calib,
                &AnalysisOptions::default(),
                &settings,
            )?;
            command_json(
                label,
                [
                    ("architecture", Json::from(arch.name())),
                    ("technology", Json::from(format!("{tech:?}"))),
                    (
                        "worst_module_temperature_c",
                        Json::from(r.worst_module_temperature.value()),
                    ),
                    (
                        "nominal_conversion_loss_w",
                        Json::from(r.nominal_conversion_loss.value()),
                    ),
                    (
                        "derated_conversion_loss_w",
                        Json::from(r.derated_conversion_loss.value()),
                    ),
                    ("thermal_penalty_w", Json::from(r.thermal_penalty().value())),
                    ("within_rating", Json::from(r.modules_within_rating)),
                ],
            )
        }
        Command::Serve {
            addr,
            workers,
            queue_depth,
            cache_size,
            stdio,
        } => {
            let cfg = ServeConfig {
                workers,
                queue_depth,
                cache_capacity: cache_size,
                ..ServeConfig::default()
            };
            if stdio {
                // One session over stdin/stdout: requests in, responses
                // out, ends on EOF or a shutdown request.
                serve::serve_lines(std::io::stdin().lock(), std::io::stdout(), &cfg)?;
            } else {
                let server = serve::Server::bind(&addr, cfg)?;
                eprintln!("vpd serve: listening on {}", server.local_addr()?);
                server.run()?;
            }
            return Ok(());
        }
        Command::Call {
            addr,
            requests,
            shutdown,
        } => {
            for line in serve::call(&addr, &requests, shutdown)? {
                println!("{line}");
            }
            return Ok(());
        }
        Command::Scenario { action, file, name } => {
            // Resolve the document text, then parse through the same
            // validator serve uses at admission — so `check` failures
            // print the exact stable diagnostic the wire carries.
            let (source, text): (String, String) = match (&file, &name) {
                (Some(path), None) => (
                    path.display().to_string(),
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
                ),
                (None, Some(n)) => (
                    format!("builtin {n}"),
                    vertical_power_delivery::scenario::builtin_doc(n)
                        .ok_or_else(|| {
                            format!(
                                "unknown builtin scenario '{n}' (builtins: {})",
                                vertical_power_delivery::scenario::BUILTIN_NAMES.join(", ")
                            )
                        })?
                        .to_owned(),
                ),
                _ => unreachable!("parse enforces exactly one of --file/--name"),
            };
            let doc = ScenarioDoc::parse(&text).map_err(|e| format!("{source}: {e}"))?;
            let hash = format!("{:016x}", doc.content_hash());
            match action {
                ScenarioAction::Run => dispatch(&Work::Scenario { doc: Box::new(doc) })?,
                ScenarioAction::Check => {
                    emit(
                        format,
                        || {
                            format!(
                                "ok: \"{}\" ({}, hash {hash})\n",
                                doc.name,
                                doc.architecture.name()
                            )
                        },
                        || {
                            command_json(
                                label,
                                [
                                    ("action", Json::from("check")),
                                    ("ok", Json::from(true)),
                                    ("name", Json::from(doc.name.as_str())),
                                    ("architecture", Json::from(doc.architecture.name())),
                                    ("hash", Json::from(hash.as_str())),
                                ],
                            )
                        },
                    );
                    return Ok(());
                }
                ScenarioAction::Render => {
                    emit(
                        format,
                        || doc.render(),
                        || {
                            command_json(
                                label,
                                [
                                    ("action", Json::from("render")),
                                    ("name", Json::from(doc.name.as_str())),
                                    ("hash", Json::from(hash.as_str())),
                                    ("doc", Json::from(doc.render().as_str())),
                                ],
                            )
                        },
                    );
                    return Ok(());
                }
            }
        }
    };
    match format {
        RenderFormat::Text => print!("{}", doc.to_text()),
        RenderFormat::Json => println!("{doc}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Command::parse(&owned)
    }

    fn parse_invocation(args: &[&str]) -> Result<Invocation, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Invocation::parse(&owned)
    }

    /// The served work a subcommand line dispatches.
    fn work(args: &[&str]) -> Work {
        match parse(args).unwrap() {
            Command::Dispatch(work) => work,
            other => panic!("{args:?} is not a single dispatch: {other:?}"),
        }
    }

    #[test]
    fn parses_analyze_with_defaults() {
        assert_eq!(
            work(&["analyze", "--arch", "a1"]),
            Work::Analyze {
                arch: Architecture::InterposerPeriphery,
                topology: VrTopologyKind::Dsch,
                power_w: 1000.0,
                density: 2.0,
            }
        );
        assert_eq!(
            work(&[
                "analyze",
                "--arch",
                "a1",
                "--power",
                "800",
                "--density",
                "1.5"
            ]),
            Work::Analyze {
                arch: Architecture::InterposerPeriphery,
                topology: VrTopologyKind::Dsch,
                power_w: 800.0,
                density: 1.5,
            }
        );
    }

    #[test]
    fn parses_two_stage_buses() {
        assert!(matches!(
            work(&["analyze", "--arch", "a3-12"]),
            Work::Analyze {
                arch: Architecture::TwoStage { .. },
                ..
            }
        ));
        assert_eq!(
            work(&["droop", "--arch", "a0"]),
            Work::Droop {
                arch: Architecture::Reference
            }
        );
    }

    #[test]
    fn parses_droop_sweeps() {
        assert_eq!(
            parse(&[
                "droop",
                "--arch",
                "a2",
                "--sweep",
                "--amps",
                "5",
                "--slews",
                "2",
                "--threads",
                "3"
            ])
            .unwrap(),
            Command::DroopSweep {
                arch: Some(Architecture::InterposerEmbedded),
                amps: 5,
                slews: 2,
                threads: 3,
            }
        );
        assert_eq!(
            parse(&["droop", "--arch", "all", "--sweep"]).unwrap(),
            Command::DroopSweep {
                arch: None,
                amps: 4,
                slews: 3,
                threads: 0,
            }
        );
        assert!(
            parse(&["droop", "--arch", "all"]).is_err(),
            "--arch all needs --sweep"
        );
    }

    #[test]
    fn rejects_unknown_inputs() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["analyze", "--arch", "a9"]).is_err());
        assert!(parse(&["analyze", "--arch", "a1", "--topology", "zeta"]).is_err());
        assert!(parse(&["analyze", "--arch", "a1", "--power", "lots"]).is_err());
        assert!(parse(&["analyze"]).is_err(), "--arch required");
        assert!(parse(&["sharing", "--placement", "sideways"]).is_err());
        assert!(parse(&["thermal", "--arch", "a2", "--tech", "sic"]).is_err());
    }

    #[test]
    fn parses_sharing_and_thermal() {
        assert_eq!(
            work(&["sharing", "--placement", "below", "--modules", "24"]),
            Work::Sharing {
                placement: VrPlacement::BelowDie,
                modules: 24
            }
        );
        assert!(matches!(
            parse(&["thermal", "--arch", "a2", "--tech", "si"]).unwrap(),
            Command::Thermal {
                tech: DeviceTechnology::Si,
                ..
            }
        ));
    }

    #[test]
    fn parses_mc() {
        assert_eq!(
            work(&["mc", "--arch", "a2", "--samples", "50", "--seed", "9"]),
            Work::Mc {
                arch: Architecture::InterposerEmbedded,
                topology: VrTopologyKind::Dsch,
                samples: 50,
                seed: 9,
                threads: 0,
            }
        );
        assert!(parse(&["mc"]).is_err(), "--arch required");
        assert!(parse(&["mc", "--arch", "a1", "--samples", "0"]).is_err());
    }

    #[test]
    fn parses_impedance_grid_flags() {
        let defaults = ImpedanceSweepSettings::default();
        assert_eq!(
            work(&["impedance", "--arch", "a2"]),
            Work::Impedance {
                arch: Architecture::InterposerEmbedded,
                fmin_hz: defaults.fmin.value(),
                fmax_hz: defaults.fmax.value(),
                points: defaults.points,
                profile: false,
            }
        );
        assert_eq!(
            work(&["impedance", "--arch", "a1", "--points", "24", "--profile"]),
            Work::Impedance {
                arch: Architecture::InterposerPeriphery,
                fmin_hz: defaults.fmin.value(),
                fmax_hz: defaults.fmax.value(),
                points: 24,
                profile: true,
            }
        );
        assert_eq!(
            parse(&[
                "impedance",
                "--arch",
                "all",
                "--fmin",
                "1e4",
                "--fmax",
                "1e8",
                "--points",
                "64",
                "--profile",
            ])
            .unwrap(),
            Command::ImpedanceAll {
                fmin_hz: 1e4,
                fmax_hz: 1e8,
                points: 64,
            }
        );
        assert!(parse(&["impedance"]).is_err(), "--arch required");
        assert!(parse(&["impedance", "--arch", "a9"]).is_err());
        assert!(parse(&["impedance", "--arch", "a1", "--points", "many"]).is_err());
        // A one-point grid passes the wire's range check and fails later
        // with a typed solver error; a negative bound fails the range
        // check itself, as it does for a served request.
        assert!(parse(&["impedance", "--arch", "a1", "--points", "1"]).is_ok());
        assert!(parse(&["impedance", "--arch", "a1", "--fmin", "-3"]).is_err());
    }

    #[test]
    fn bad_impedance_grids_error_instead_of_panicking() {
        // Each bad grid is a typed error — from the wire's range check
        // (naming the flag) or from the checked sweep builder — never a
        // panic.
        for (args, expect) in [
            (
                ["impedance", "--arch", "a1", "--points", "1"].as_slice(),
                "sweep",
            ),
            (
                ["impedance", "--arch", "a1", "--points", "0"].as_slice(),
                "--points",
            ),
            (
                ["impedance", "--arch", "a1", "--fmin", "-3"].as_slice(),
                "--fmin",
            ),
            (
                ["impedance", "--arch", "a1", "--fmin", "0"].as_slice(),
                "--fmin",
            ),
            (
                ["impedance", "--arch", "a1", "--fmax", "nan"].as_slice(),
                "--fmax",
            ),
            (
                [
                    "impedance",
                    "--arch",
                    "all",
                    "--fmin",
                    "1e9",
                    "--fmax",
                    "1e3",
                ]
                .as_slice(),
                "sweep",
            ),
            (
                ["impedance", "--arch", "a2", "--fmax", "inf"].as_slice(),
                "--fmax",
            ),
            (
                ["impedance", "--arch", "all", "--points", "0"].as_slice(),
                "sweep",
            ),
        ] {
            let err = match parse(args) {
                Ok(cmd) => run(cmd, RenderFormat::Text).unwrap_err().to_string(),
                Err(e) => e,
            };
            assert!(err.contains(expect), "{args:?}: {err}");
        }
    }

    #[test]
    fn parses_faults_modes() {
        assert!(matches!(
            work(&["faults", "--arch", "a2", "--n-minus-1"]),
            Work::Faults {
                arch: Architecture::InterposerEmbedded,
                random_k: None,
                ..
            }
        ));
        // N-1 is also the default mode.
        assert!(matches!(
            work(&["faults", "--arch", "a1"]),
            Work::Faults { random_k: None, .. }
        ));
        assert_eq!(
            work(&[
                "faults",
                "--arch",
                "a1",
                "--random-k",
                "3",
                "--count",
                "64",
                "--seed",
                "7",
            ]),
            Work::Faults {
                arch: Architecture::InterposerPeriphery,
                topology: VrTopologyKind::Dsch,
                random_k: Some(3),
                count: 64,
                seed: 7,
            }
        );
        assert!(parse(&["faults"]).is_err(), "--arch required");
        assert!(parse(&["faults", "--arch", "a1", "--random-k", "three"]).is_err());
        assert!(parse(&["faults", "--arch", "a1", "--random-k", "0"]).is_err());
        assert!(parse(&["faults", "--arch", "a1", "--n-minus-1", "--random-k", "2"]).is_err());
    }

    #[test]
    fn parses_faults_dynamic_flag() {
        // The static sweep stays the default; --dynamic composes with
        // the existing scenario-selection flags.
        assert!(matches!(
            parse(&["faults", "--arch", "a1"]).unwrap(),
            Command::Dispatch(Work::Faults { .. })
        ));
        assert_eq!(
            parse(&["faults", "--arch", "a2", "--dynamic"]).unwrap(),
            Command::FaultsDynamic {
                impedance: Work::FaultImpedance {
                    arch: Architecture::InterposerEmbedded,
                    random_k: None,
                    count: 32,
                    seed: 64023,
                    fmin_hz: ImpedanceSweepSettings::default().fmin.value(),
                    fmax_hz: ImpedanceSweepSettings::default().fmax.value(),
                    points: ImpedanceSweepSettings::default().points,
                },
                transient: Work::FaultTransient {
                    arch: Architecture::InterposerEmbedded,
                    count: 4,
                },
                survival: Work::Survival {
                    arch: Architecture::InterposerEmbedded,
                    topology: VrTopologyKind::Dsch,
                },
            }
        );
        match parse(&["faults", "--arch", "a1", "--dynamic", "--random-k", "2"]).unwrap() {
            Command::FaultsDynamic {
                impedance,
                transient,
                ..
            } => {
                assert!(matches!(
                    impedance,
                    Work::FaultImpedance {
                        random_k: Some(2),
                        ..
                    }
                ));
                // --count sizes the random-k draw, not the failure grid.
                assert!(matches!(transient, Work::FaultTransient { count: 4, .. }));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse(&["faults", "--arch", "a1", "--dynamic"])
                .unwrap()
                .label(),
            "faults"
        );
    }

    #[test]
    fn global_flags_parse_anywhere() {
        let inv = parse_invocation(&["--format", "json", "matrix"]).unwrap();
        assert_eq!(inv.format, RenderFormat::Json);
        assert_eq!(inv.command, Command::Matrix);
        assert_eq!(inv.metrics, None);

        // Globals are accepted after the subcommand too.
        let inv =
            parse_invocation(&["sharing", "--metrics", "m.ndjson", "--format", "text"]).unwrap();
        assert_eq!(inv.format, RenderFormat::Text);
        assert_eq!(inv.metrics, Some(PathBuf::from("m.ndjson")));
        assert!(matches!(
            inv.command,
            Command::Dispatch(Work::Sharing { .. })
        ));

        // Defaults: text, no metrics.
        let inv = parse_invocation(&["recommend"]).unwrap();
        assert_eq!(inv.format, RenderFormat::Text);
        assert_eq!(inv.metrics, None);
    }

    #[test]
    fn global_flags_reject_bad_values() {
        assert!(parse_invocation(&["--format", "yaml", "matrix"]).is_err());
        assert!(parse_invocation(&["matrix", "--format"]).is_err());
        assert!(parse_invocation(&["matrix", "--metrics"]).is_err());
    }

    #[test]
    fn command_labels_cover_every_variant() {
        assert_eq!(parse(&["matrix"]).unwrap().label(), "matrix");
        assert_eq!(parse(&["mc", "--arch", "a1"]).unwrap().label(), "mc");
        assert_eq!(
            parse(&["faults", "--arch", "a1"]).unwrap().label(),
            "faults"
        );
        assert_eq!(
            parse(&["impedance", "--arch", "all"]).unwrap().label(),
            "impedance"
        );
        assert_eq!(
            parse(&["droop", "--arch", "a1", "--sweep"])
                .unwrap()
                .label(),
            "droop"
        );
        assert_eq!(parse(&["serve"]).unwrap().label(), "serve");
        assert_eq!(parse(&["call", "--shutdown"]).unwrap().label(), "call");
        assert_eq!(parse(&["help"]).unwrap().label(), "help");
    }

    #[test]
    fn command_json_prepends_the_label() {
        let doc = command_json("analyze", [("x", Json::from(1.5))]);
        assert_eq!(doc.to_string(), r#"{"command":"analyze","x":1.5}"#);
        let empty = command_json("matrix", []);
        assert_eq!(empty.to_string(), r#"{"command":"matrix"}"#);
    }

    #[test]
    fn parses_serve_flags() {
        let defaults = ServeConfig::default();
        assert_eq!(
            parse(&["serve"]).unwrap(),
            Command::Serve {
                addr: DEFAULT_ADDR.to_owned(),
                workers: defaults.workers,
                queue_depth: defaults.queue_depth,
                cache_size: defaults.cache_capacity,
                stdio: false,
            }
        );
        match parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--queue-depth",
            "8",
            "--cache-size",
            "2",
            "--stdio",
        ])
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                queue_depth,
                cache_size,
                stdio,
            } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(workers, 4);
                assert_eq!(queue_depth, 8);
                assert_eq!(cache_size, 2);
                assert!(stdio);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "--workers", "lots"]).is_err());
    }

    #[test]
    fn parses_call_with_repeated_requests() {
        match parse(&[
            "call",
            "--request",
            r#"{"kind":"ping"}"#,
            "--request",
            r#"{"kind":"stats"}"#,
        ])
        .unwrap()
        {
            Command::Call {
                addr,
                requests,
                shutdown,
            } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(
                    requests,
                    vec![
                        r#"{"kind":"ping"}"#.to_owned(),
                        r#"{"kind":"stats"}"#.to_owned()
                    ]
                );
                assert!(!shutdown);
            }
            other => panic!("{other:?}"),
        }
        // --shutdown alone is a valid drain-only call.
        assert!(matches!(
            parse(&["call", "--shutdown"]).unwrap(),
            Command::Call { shutdown: true, .. }
        ));
        assert!(parse(&["call"]).is_err(), "needs a request or --shutdown");
        assert!(parse(&["call", "--request"]).is_err(), "dangling value");
    }

    #[test]
    fn parses_scenario_commands() {
        let cmd = parse(&["scenario", "check", "--name", "a2"]).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                action: ScenarioAction::Check,
                file: None,
                name: Some("a2".into()),
            }
        );
        assert_eq!(cmd.label(), "scenario");
        let cmd = parse(&["scenario", "run", "--file", "custom.vpd"]).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                action: ScenarioAction::Run,
                file: Some(PathBuf::from("custom.vpd")),
                name: None,
            }
        );
        assert!(matches!(
            parse(&["scenario", "render", "--name", "a0"]).unwrap(),
            Command::Scenario {
                action: ScenarioAction::Render,
                ..
            }
        ));
        assert!(parse(&["scenario"]).is_err(), "needs an action");
        assert!(parse(&["scenario", "frob", "--name", "a0"]).is_err());
        assert!(
            parse(&["scenario", "check"]).is_err(),
            "needs --file or --name"
        );
        assert!(
            parse(&["scenario", "check", "--file", "x.vpd", "--name", "a0"]).is_err(),
            "--file and --name are exclusive"
        );
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&[h]).unwrap(), Command::Help);
        }
    }
}
