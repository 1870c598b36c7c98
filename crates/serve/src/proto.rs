//! The wire protocol: one JSON document per line in both directions.
//!
//! A request names an analysis `kind` plus a `params` object, and may
//! carry a client-chosen `id` (echoed back verbatim so responses can be
//! matched over a pipelined connection) and a `deadline_ms` budget.
//! Responses are either `{"ok":true,...}` with the analysis result or
//! `{"ok":false,"error":{...}}` with a stable machine-readable code,
//! and every response carries the server's [`PROTOCOL_VERSION`] so
//! clients can fail fast across incompatible upgrades.
//!
//! The `result` field of a successful response is byte-identical to the
//! JSON document the one-shot `vpd --format json <command>` invocation
//! prints for the same parameters — the service is a resident,
//! plan-caching front end to the exact same engines.
//!
//! # The field-spec table
//!
//! Every request kind is described **declaratively** by a [`KindSpec`]:
//! one row per parameter with its wire name, type, default, and range.
//! The same table drives
//!
//! * parsing and validation (one generic walk instead of per-kind
//!   accessor chains),
//! * unknown-parameter rejection (a misspelled name fails loudly,
//!   listing the spec's accepted names),
//! * the machine-readable catalog served by the `kinds` request
//!   ([`kind_catalog`]), and
//! * the `vpd` CLI, which reads a served kind's flags by walking the
//!   same rows and builds its [`Work`] through [`Work::from_params`], so
//!   serve and the one-shot CLI share every default and range check.

use std::sync::OnceLock;

use vpd_converters::VrTopologyKind;
use vpd_core::{Architecture, VrPlacement};
use vpd_report::Json;
use vpd_scenario::{builtin_doc, ScenarioDoc, BUILTIN_NAMES, MAX_FAULT_DRAWS, MAX_FAULT_K};

/// Version tag carried by every response. Version 1 is the original
/// (unversioned) protocol; version 2 added the `version` field
/// itself, the `kinds` catalog request and the `shed` reject code.
pub const PROTOCOL_VERSION: i64 = 2;

/// Ceiling on one `sharing_sweep` request's setpoints, bounding the
/// size of its response.
pub const MAX_SWEEP_SETPOINTS: usize = 256;
/// Ceiling on one `transient_stream` chunk's samples, bounding a single
/// record's size.
pub const MAX_STREAM_CHUNK: usize = 4096;
/// Ceiling on an inline `.vpd` scenario document's length in bytes,
/// bounding what one request line can make the parser chew.
pub const MAX_SCENARIO_DOC: usize = 64 * 1024;

/// Machine-readable failure class carried by error responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    Parse,
    /// The request was well-formed JSON but not a valid request.
    BadRequest,
    /// The bounded queue was full; retry later (backpressure).
    QueueFull,
    /// Admission control shed the request: its deadline cannot be met
    /// at the current queue depth (retry with backoff or a larger
    /// budget).
    Shed,
    /// The server is draining for shutdown and refuses new work.
    Draining,
    /// The request waited in the queue past its `deadline_ms`.
    DeadlineExceeded,
    /// The analysis engine itself failed (infeasible configuration…).
    Engine,
    /// A recognized request the service deliberately does not serve, or
    /// a kind this protocol version does not know (the message lists
    /// the supported kinds).
    Unsupported,
}

impl ErrorCode {
    /// The stable wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::BadRequest => "bad_request",
            Self::QueueFull => "queue_full",
            Self::Shed => "shed",
            Self::Draining => "draining",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Engine => "engine",
            Self::Unsupported => "unsupported",
        }
    }
}

/// A rejected request line: the echoed id (when one could be read) plus
/// the typed reason.
#[derive(Clone, Debug)]
pub struct RequestError {
    /// Client id, echoed when the document yielded one.
    pub id: Option<i64>,
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// One unit of analysis work, fully parsed and defaulted.
///
/// Parameter names and defaults deliberately mirror the CLI flags, so a
/// request's `result` matches the one-shot invocation bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub enum Work {
    /// Liveness probe; returns immediately.
    Ping,
    /// Server statistics: cache counters plus an obs metrics snapshot.
    Stats,
    /// The machine-readable request catalog generated from the
    /// field-spec table (kinds, params, types, defaults, ranges).
    Kinds,
    /// Graceful shutdown: finish in-flight work, reject queued work.
    Shutdown,
    /// Loss breakdown for one architecture × topology point.
    Analyze {
        /// Delivery architecture.
        arch: Architecture,
        /// POL-stage topology.
        topology: VrTopologyKind,
        /// Die power draw in watts.
        power_w: f64,
        /// Current density in A/mm².
        density: f64,
    },
    /// Die-grid current sharing for a placement pattern.
    Sharing {
        /// Regulator placement pattern.
        placement: VrPlacement,
        /// Module count.
        modules: usize,
    },
    /// Rail-setpoint sweep over a sharing grid, answered from one
    /// direct-Cholesky solve at the nominal setpoint: every point has
    /// the nominal currents and losses, and a worst drop shifted by the
    /// setpoint offset.
    SharingSweep {
        /// Regulator placement pattern.
        placement: VrPlacement,
        /// Module count.
        modules: usize,
        /// Swept regulator setpoints, volts (all modules move together).
        setpoints: Vec<f64>,
    },
    /// Transient droop response to the paper's load step.
    Droop {
        /// Delivery architecture.
        arch: Architecture,
    },
    /// Streaming transient run: incremental waveform chunks
    /// (`done:false`) followed by one summary record (`done:true`)
    /// whose droop report is bitwise-identical to the one-shot `droop`
    /// result for the same architecture.
    TransientStream {
        /// Delivery architecture.
        arch: Architecture,
        /// Samples per emitted chunk.
        chunk: usize,
    },
    /// Monte-Carlo tolerance sweep.
    Mc {
        /// Delivery architecture.
        arch: Architecture,
        /// POL-stage topology.
        topology: VrTopologyKind,
        /// Sample count.
        samples: usize,
        /// RNG seed.
        seed: u64,
        /// Worker threads (0 = auto); never changes the result bits.
        threads: usize,
    },
    /// PDN impedance profile over a log frequency sweep.
    Impedance {
        /// Delivery architecture.
        arch: Architecture,
        /// Sweep start, Hz.
        fmin_hz: f64,
        /// Sweep end, Hz.
        fmax_hz: f64,
        /// Number of points.
        points: usize,
        /// Emit every swept point instead of the summary.
        profile: bool,
    },
    /// Fault-injection sweep (N-1 or random-k scenarios).
    Faults {
        /// Delivery architecture.
        arch: Architecture,
        /// POL-stage topology.
        topology: VrTopologyKind,
        /// `None` = N-1 contingency; `Some(k)` = random k-fault draws.
        random_k: Option<usize>,
        /// Scenario count for random-k mode.
        count: usize,
        /// RNG seed for random-k mode.
        seed: u64,
    },
    /// Faulted impedance profiles: every fault scenario restamped onto
    /// one compiled AC plan, one degraded |Z(f)| profile per scenario.
    FaultImpedance {
        /// Delivery architecture.
        arch: Architecture,
        /// `None` = N-1 contingency; `Some(k)` = random k-fault draws.
        random_k: Option<usize>,
        /// Scenario count for random-k mode.
        count: usize,
        /// RNG seed for random-k mode.
        seed: u64,
        /// Sweep start, Hz.
        fmin_hz: f64,
        /// Sweep end, Hz.
        fmax_hz: f64,
        /// Number of swept points.
        points: usize,
    },
    /// Mid-run VR-failure transients: the regulator bank dies at a grid
    /// of failure times while the paper's load step plays out.
    FaultTransient {
        /// Delivery architecture.
        arch: Architecture,
        /// Number of failure times in the grid (plus the healthy
        /// baseline).
        count: usize,
    },
    /// Electro-thermal cascade survival envelope over the architecture's
    /// full N-1 contingency set.
    Survival {
        /// Delivery architecture.
        arch: Architecture,
        /// POL-stage topology.
        topology: VrTopologyKind,
    },
    /// A declarative `.vpd` scenario document, compiled and analyzed.
    /// The document is fully parsed and validated at admission, so a
    /// malformed document is rejected with its line/column diagnostic
    /// before it can occupy a queue slot. Compiled sessions are cached
    /// under the document's spelling-invariant content hash.
    Scenario {
        /// The validated document (boxed: it dwarfs the other variants).
        doc: Box<ScenarioDoc>,
    },
}

impl Work {
    /// Builds the work for `kind` from a request's `params` object: the
    /// same [`KindSpec`] walk a request line goes through, so unknown
    /// names, type and range checks, and defaults are the wire's own.
    /// The `vpd` CLI builds every served subcommand through this.
    ///
    /// # Errors
    ///
    /// The typed `(code, message)` pair a request line would be rejected
    /// with: [`ErrorCode::Unsupported`] for an unknown kind,
    /// [`ErrorCode::BadRequest`] for invalid params.
    pub fn from_params(kind: &str, params: &Json) -> Result<Self, (ErrorCode, String)> {
        parse_work(kind, &Params { doc: Some(params) })
    }

    /// The wire `kind` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Ping => "ping",
            Self::Stats => "stats",
            Self::Kinds => "kinds",
            Self::Shutdown => "shutdown",
            Self::Analyze { .. } => "analyze",
            Self::Sharing { .. } => "sharing",
            Self::SharingSweep { .. } => "sharing_sweep",
            Self::Droop { .. } => "droop",
            Self::TransientStream { .. } => "transient_stream",
            Self::Mc { .. } => "mc",
            Self::Impedance { .. } => "impedance",
            Self::Faults { .. } => "faults",
            Self::FaultImpedance { .. } => "fault_impedance",
            Self::FaultTransient { .. } => "fault_transient",
            Self::Survival { .. } => "survival",
            Self::Scenario { .. } => "scenario",
        }
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: Option<i64>,
    /// Queue-wait budget in milliseconds (checked at admission and
    /// again at dequeue).
    pub deadline_ms: Option<u64>,
    /// The analysis to run.
    pub work: Work,
}

// The architecture/topology/placement wire spellings live in
// `vpd_core::wire` (shared with the CLI and the scenario compiler);
// re-exported here so existing `vpd_serve::proto::parse_architecture`
// callers keep working and the wire format cannot drift.
pub use vpd_core::wire::{
    architecture_wire_name, parse_architecture, parse_placement, parse_topology,
    placement_wire_name, topology_wire_name,
};

// ---------------------------------------------------------------------
// The declarative field-spec table
// ---------------------------------------------------------------------

/// Wire type (plus range validator) of one request parameter.
#[derive(Clone, Copy, Debug)]
pub enum FieldType {
    /// A finite JSON number; `positive` additionally requires `> 0`.
    F64 {
        /// Reject zero and negative values.
        positive: bool,
    },
    /// A non-negative integer within `[min, max]`.
    Count {
        /// Inclusive lower bound (violations say "must be at least").
        min: usize,
        /// Inclusive upper bound (violations say "is capped at").
        max: usize,
    },
    /// A non-negative 64-bit RNG seed.
    Seed,
    /// A JSON boolean.
    Flag,
    /// An architecture tag (`a0|a1|a2|a3-12|a3-6`).
    Arch,
    /// A topology tag (`dpmih|dsch|3lhd`).
    Topology,
    /// A placement tag (`periphery|below`).
    Placement,
    /// A non-empty array of finite numbers, at most `max_len` long.
    F64List {
        /// Inclusive length ceiling.
        max_len: usize,
    },
    /// An *optional* positive integer (absent ≠ zero; e.g. `random_k`).
    OptionalCount {
        /// Inclusive upper bound (violations say "is capped at").
        max: usize,
    },
    /// A non-empty string of at most `max_len` bytes (e.g. an inline
    /// scenario document). Always optional on the wire.
    Text {
        /// Inclusive byte-length ceiling.
        max_len: usize,
    },
}

impl FieldType {
    /// The catalog spelling of the type.
    #[must_use]
    pub fn type_name(self) -> &'static str {
        match self {
            Self::F64 { .. } => "number",
            Self::Count { .. } => "count",
            Self::Seed => "seed",
            Self::Flag => "flag",
            Self::Arch => "architecture",
            Self::Topology => "topology",
            Self::Placement => "placement",
            Self::F64List { .. } => "number[]",
            Self::OptionalCount { .. } => "count?",
            Self::Text { .. } => "text",
        }
    }
}

/// Default of one request parameter. [`FieldDefault::Required`] makes
/// the parameter mandatory; [`FieldDefault::Absent`] makes it optional
/// with no substituted value (only [`FieldType::OptionalCount`]).
#[derive(Clone, Copy, Debug)]
pub enum FieldDefault {
    /// The request must carry the parameter.
    Required,
    /// Optional with no default value.
    Absent,
    /// Defaulted number.
    F64(f64),
    /// Defaulted count.
    Count(usize),
    /// Defaulted seed.
    Seed(u64),
    /// Defaulted flag.
    Flag(bool),
    /// Defaulted topology.
    Topology(VrTopologyKind),
    /// Defaulted placement.
    Placement(VrPlacement),
}

/// One row of the table: a parameter's wire name, type, default, and
/// one-line doc.
#[derive(Clone, Debug)]
pub struct FieldSpec {
    /// Wire name inside `params`.
    pub name: &'static str,
    /// Type and range validator.
    pub ty: FieldType,
    /// Default (or required-ness).
    pub default: FieldDefault,
    /// One-line description for the catalog.
    pub doc: &'static str,
}

/// The declarative description of one request kind.
#[derive(Clone, Debug)]
pub struct KindSpec {
    /// The wire `kind` tag.
    pub kind: &'static str,
    /// One-line description for the catalog.
    pub doc: &'static str,
    /// Parameter rows; requests carrying names outside this list are
    /// rejected.
    pub fields: Vec<FieldSpec>,
}

fn field(name: &'static str, ty: FieldType, default: FieldDefault, doc: &'static str) -> FieldSpec {
    FieldSpec {
        name,
        ty,
        default,
        doc,
    }
}

/// The table itself. Built once; defaults that mirror engine settings
/// (the impedance sweep grid) are read from the engine defaults so the
/// three consumers — serve parsing, the CLI, and the catalog — cannot
/// drift from each other or from the engines.
#[must_use]
pub fn kind_specs() -> &'static [KindSpec] {
    static SPECS: OnceLock<Vec<KindSpec>> = OnceLock::new();
    SPECS.get_or_init(|| {
        let z = vpd_core::ImpedanceSweepSettings::default();
        let arch = || {
            field(
                "arch",
                FieldType::Arch,
                FieldDefault::Required,
                "delivery architecture (a0|a1|a2|a3-12|a3-6)",
            )
        };
        let topology = || {
            field(
                "topology",
                FieldType::Topology,
                FieldDefault::Topology(VrTopologyKind::Dsch),
                "POL-stage topology (dpmih|dsch|3lhd)",
            )
        };
        let placement = || {
            field(
                "placement",
                FieldType::Placement,
                FieldDefault::Placement(VrPlacement::Periphery),
                "regulator placement pattern (periphery|below)",
            )
        };
        // The `.vpd` grammar's `faults.k` ceiling: one request line must
        // not size a k-fault allocation beyond what a document may.
        let random_k = || {
            field(
                "random_k",
                FieldType::OptionalCount { max: MAX_FAULT_K },
                FieldDefault::Absent,
                "absent = N-1 contingency; k = random k-fault draws",
            )
        };
        let modules = || {
            field(
                "modules",
                FieldType::Count {
                    min: 1,
                    max: 10_000,
                },
                FieldDefault::Count(48),
                "regulator module count",
            )
        };
        vec![
            KindSpec {
                kind: "ping",
                doc: "liveness probe; returns immediately",
                fields: Vec::new(),
            },
            KindSpec {
                kind: "stats",
                doc: "server statistics: cache counters and the metrics snapshot \
                      (empty unless the server records metrics)",
                fields: Vec::new(),
            },
            KindSpec {
                kind: "kinds",
                doc: "this catalog: every kind with its params, types, defaults, and ranges",
                fields: Vec::new(),
            },
            KindSpec {
                kind: "shutdown",
                doc: "graceful shutdown: finish in-flight work, reject queued work",
                fields: Vec::new(),
            },
            KindSpec {
                kind: "analyze",
                doc: "loss breakdown for one architecture x topology point",
                fields: vec![
                    arch(),
                    topology(),
                    field(
                        "power_w",
                        FieldType::F64 { positive: true },
                        FieldDefault::F64(1000.0),
                        "die power draw in watts",
                    ),
                    field(
                        "density",
                        FieldType::F64 { positive: true },
                        FieldDefault::F64(2.0),
                        "current density in A/mm^2",
                    ),
                ],
            },
            KindSpec {
                kind: "sharing",
                doc: "die-grid current sharing for a placement pattern",
                fields: vec![placement(), modules()],
            },
            KindSpec {
                kind: "sharing_sweep",
                doc: "rail-setpoint sweep answered from one nominal solve",
                fields: vec![
                    placement(),
                    modules(),
                    field(
                        "setpoints",
                        FieldType::F64List {
                            max_len: MAX_SWEEP_SETPOINTS,
                        },
                        FieldDefault::Required,
                        "swept regulator setpoints in volts",
                    ),
                ],
            },
            KindSpec {
                kind: "droop",
                doc: "transient droop response to the paper's load step",
                fields: vec![arch()],
            },
            KindSpec {
                kind: "transient_stream",
                doc: "streaming transient run: waveform chunks, then a summary record",
                fields: vec![
                    arch(),
                    field(
                        "chunk",
                        FieldType::Count {
                            min: 1,
                            max: MAX_STREAM_CHUNK,
                        },
                        FieldDefault::Count(1024),
                        "samples per emitted chunk",
                    ),
                ],
            },
            KindSpec {
                kind: "mc",
                doc: "Monte-Carlo tolerance sweep",
                fields: vec![
                    arch(),
                    topology(),
                    field(
                        "samples",
                        FieldType::Count {
                            min: 1,
                            max: 1_000_000,
                        },
                        FieldDefault::Count(200),
                        "sample count",
                    ),
                    field(
                        "seed",
                        FieldType::Seed,
                        FieldDefault::Seed(0x5eed),
                        "RNG seed",
                    ),
                    field(
                        "threads",
                        FieldType::Count {
                            min: 0,
                            max: 10_000,
                        },
                        FieldDefault::Count(0),
                        "worker threads (0 = auto; at most 16 run); never changes result bits",
                    ),
                ],
            },
            KindSpec {
                kind: "impedance",
                doc: "PDN impedance profile over a log frequency sweep",
                fields: vec![
                    arch(),
                    field(
                        "fmin_hz",
                        FieldType::F64 { positive: true },
                        FieldDefault::F64(z.fmin.value()),
                        "sweep start in Hz",
                    ),
                    field(
                        "fmax_hz",
                        FieldType::F64 { positive: true },
                        FieldDefault::F64(z.fmax.value()),
                        "sweep end in Hz",
                    ),
                    field(
                        "points",
                        FieldType::Count {
                            min: 1,
                            max: 100_000,
                        },
                        FieldDefault::Count(z.points),
                        "number of swept points",
                    ),
                    field(
                        "profile",
                        FieldType::Flag,
                        FieldDefault::Flag(false),
                        "emit every swept point instead of the summary",
                    ),
                ],
            },
            KindSpec {
                kind: "faults",
                doc: "fault-injection sweep (N-1 or random-k scenarios)",
                fields: vec![
                    arch(),
                    topology(),
                    random_k(),
                    field(
                        "count",
                        FieldType::Count {
                            min: 1,
                            max: 1_000_000,
                        },
                        FieldDefault::Count(32),
                        "scenario count for random-k mode",
                    ),
                    field(
                        "seed",
                        FieldType::Seed,
                        FieldDefault::Seed(64023),
                        "RNG seed for random-k mode",
                    ),
                ],
            },
            KindSpec {
                kind: "fault_impedance",
                doc: "faulted impedance profiles: one degraded |Z(f)| per fault scenario, \
                      restamped onto one compiled AC plan",
                fields: vec![
                    arch(),
                    random_k(),
                    field(
                        "count",
                        FieldType::Count {
                            min: 1,
                            max: 1_000_000,
                        },
                        FieldDefault::Count(32),
                        "scenario count for random-k mode",
                    ),
                    field(
                        "seed",
                        FieldType::Seed,
                        FieldDefault::Seed(64023),
                        "RNG seed for random-k mode",
                    ),
                    field(
                        "fmin_hz",
                        FieldType::F64 { positive: true },
                        FieldDefault::F64(z.fmin.value()),
                        "sweep start in Hz",
                    ),
                    field(
                        "fmax_hz",
                        FieldType::F64 { positive: true },
                        FieldDefault::F64(z.fmax.value()),
                        "sweep end in Hz",
                    ),
                    field(
                        "points",
                        FieldType::Count {
                            min: 2,
                            max: 100_000,
                        },
                        FieldDefault::Count(z.points),
                        "number of swept points",
                    ),
                ],
            },
            KindSpec {
                kind: "fault_transient",
                doc: "mid-run VR-failure transients: the bank dies at a grid of failure \
                      times while the paper's load step plays out",
                fields: vec![
                    arch(),
                    field(
                        "count",
                        FieldType::Count { min: 1, max: 64 },
                        FieldDefault::Count(4),
                        "failure times in the grid (plus the healthy baseline)",
                    ),
                ],
            },
            KindSpec {
                kind: "survival",
                doc: "electro-thermal cascade survival envelope over the N-1 contingency set",
                fields: vec![arch(), topology()],
            },
            KindSpec {
                kind: "scenario",
                doc: "compile and analyze a declarative .vpd scenario document \
                      (exactly one of inline `doc` or builtin `name`)",
                fields: vec![
                    field(
                        "doc",
                        FieldType::Text {
                            max_len: MAX_SCENARIO_DOC,
                        },
                        FieldDefault::Absent,
                        "inline .vpd scenario document text",
                    ),
                    field(
                        "name",
                        FieldType::Text { max_len: 64 },
                        FieldDefault::Absent,
                        "builtin scenario name (a0|a1|a2|a3-12|a3-6)",
                    ),
                ],
            },
        ]
    })
}

/// Whether the kind runs a random-k fault sweep: one with both a
/// `random_k` and a `count` param, whose product is capped at the
/// `.vpd` grammar's `MAX_FAULT_DRAWS`.
fn caps_fault_draws(spec: &KindSpec) -> bool {
    ["random_k", "count"]
        .iter()
        .all(|name| spec.fields.iter().any(|f| f.name == *name))
}

/// Looks a kind's spec up in the table.
#[must_use]
pub fn kind_spec(kind: &str) -> Option<&'static KindSpec> {
    kind_specs().iter().find(|s| s.kind == kind)
}

/// Every supported kind tag, in table order.
#[must_use]
pub fn supported_kinds() -> Vec<&'static str> {
    kind_specs().iter().map(|s| s.kind).collect()
}

/// The machine-readable catalog generated from the table: one entry per
/// kind with its params, types, defaults, and ranges. Served by the
/// `kinds` request and printed by documentation tooling.
#[must_use]
pub fn kind_catalog() -> Json {
    let kinds: Vec<Json> = kind_specs()
        .iter()
        .map(|spec| {
            let params: Vec<Json> =
                spec.fields
                    .iter()
                    .map(|f| {
                        let mut pairs = vec![
                            ("name", Json::from(f.name)),
                            ("type", Json::from(f.ty.type_name())),
                            (
                                "required",
                                Json::from(matches!(f.default, FieldDefault::Required)),
                            ),
                        ];
                        match f.default {
                            FieldDefault::Required | FieldDefault::Absent => {}
                            FieldDefault::F64(v) => pairs.push(("default", Json::from(v))),
                            FieldDefault::Count(v) => pairs.push(("default", Json::from(v))),
                            FieldDefault::Seed(v) => pairs
                                .push(("default", Json::Int(i64::try_from(v).unwrap_or(i64::MAX)))),
                            FieldDefault::Flag(v) => pairs.push(("default", Json::from(v))),
                            FieldDefault::Topology(t) => {
                                pairs.push(("default", Json::from(topology_wire_name(t))));
                            }
                            FieldDefault::Placement(p) => {
                                pairs.push(("default", Json::from(placement_wire_name(p))));
                            }
                        }
                        match f.ty {
                            FieldType::Count { min, max } => {
                                pairs.push(("min", Json::from(min)));
                                pairs.push(("max", Json::from(max)));
                            }
                            FieldType::OptionalCount { max } => {
                                pairs.push(("min", Json::from(1_usize)));
                                pairs.push(("max", Json::from(max)));
                            }
                            FieldType::F64List { max_len } | FieldType::Text { max_len } => {
                                pairs.push(("max_len", Json::from(max_len)));
                            }
                            _ => {}
                        }
                        pairs.push(("doc", Json::from(f.doc)));
                        Json::obj(pairs)
                    })
                    .collect();
            let mut entry = vec![
                ("kind", Json::from(spec.kind)),
                ("doc", Json::from(spec.doc)),
                ("params", Json::Array(params)),
            ];
            if caps_fault_draws(spec) {
                entry.push((
                    "limits",
                    Json::array([Json::obj([
                        (
                            "product",
                            Json::array(["random_k", "count"].map(Json::from)),
                        ),
                        ("max", Json::from(MAX_FAULT_DRAWS)),
                    ])]),
                ));
            }
            Json::obj(entry)
        })
        .collect();
    Json::Array(kinds)
}

// ---------------------------------------------------------------------
// Table-driven parsing
// ---------------------------------------------------------------------

/// One parsed parameter value.
#[derive(Clone, Debug)]
enum FieldValue {
    F64(f64),
    Count(usize),
    Seed(u64),
    Flag(bool),
    Arch(Architecture),
    Topology(VrTopologyKind),
    Placement(VrPlacement),
    List(Vec<f64>),
    Text(String),
    /// An optional parameter the request did not carry.
    Absent,
}

/// The validated parameter set of one request, keyed by wire name.
struct ParsedFields(Vec<(&'static str, FieldValue)>);

impl ParsedFields {
    fn value(&self, name: &str) -> &FieldValue {
        &self
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("field `{name}` missing from parsed set"))
            .1
    }

    fn f64(&self, name: &str) -> f64 {
        match self.value(name) {
            FieldValue::F64(v) => *v,
            other => panic!("field `{name}` is not a number: {other:?}"),
        }
    }

    fn count(&self, name: &str) -> usize {
        match self.value(name) {
            FieldValue::Count(v) => *v,
            other => panic!("field `{name}` is not a count: {other:?}"),
        }
    }

    fn seed(&self, name: &str) -> u64 {
        match self.value(name) {
            FieldValue::Seed(v) => *v,
            other => panic!("field `{name}` is not a seed: {other:?}"),
        }
    }

    fn flag(&self, name: &str) -> bool {
        match self.value(name) {
            FieldValue::Flag(v) => *v,
            other => panic!("field `{name}` is not a flag: {other:?}"),
        }
    }

    fn arch(&self, name: &str) -> Architecture {
        match self.value(name) {
            FieldValue::Arch(v) => *v,
            other => panic!("field `{name}` is not an architecture: {other:?}"),
        }
    }

    fn topology(&self, name: &str) -> VrTopologyKind {
        match self.value(name) {
            FieldValue::Topology(v) => *v,
            other => panic!("field `{name}` is not a topology: {other:?}"),
        }
    }

    fn placement(&self, name: &str) -> VrPlacement {
        match self.value(name) {
            FieldValue::Placement(v) => *v,
            other => panic!("field `{name}` is not a placement: {other:?}"),
        }
    }

    fn list(&self, name: &str) -> Vec<f64> {
        match self.value(name) {
            FieldValue::List(v) => v.clone(),
            other => panic!("field `{name}` is not a list: {other:?}"),
        }
    }

    fn optional_count(&self, name: &str) -> Option<usize> {
        match self.value(name) {
            FieldValue::Count(v) => Some(*v),
            FieldValue::Absent => None,
            other => panic!("field `{name}` is not an optional count: {other:?}"),
        }
    }

    fn optional_text(&self, name: &str) -> Option<&str> {
        match self.value(name) {
            FieldValue::Text(v) => Some(v.as_str()),
            FieldValue::Absent => None,
            other => panic!("field `{name}` is not a text: {other:?}"),
        }
    }
}

/// Raw access to the request's `params` object.
struct Params<'a> {
    doc: Option<&'a Json>,
}

impl<'a> Params<'a> {
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.doc.and_then(|d| d.get(key))
    }

    /// Rejects params outside the spec's field list, so a misspelled
    /// name fails loudly instead of silently falling back to the
    /// default.
    fn reject_unknown(&self, spec: &KindSpec) -> Result<(), String> {
        let Some(doc) = self.doc else {
            return Ok(());
        };
        let Json::Object(pairs) = doc else {
            return Err("`params` must be an object".into());
        };
        for (key, _) in pairs {
            if !spec.fields.iter().any(|f| f.name == key.as_str()) {
                return Err(if spec.fields.is_empty() {
                    format!("unknown param `{key}` (this kind takes no params)")
                } else {
                    let names: Vec<&str> = spec.fields.iter().map(|f| f.name).collect();
                    format!(
                        "unknown param `{key}` (expected one of: {})",
                        names.join(", ")
                    )
                });
            }
        }
        Ok(())
    }
}

/// Validates one parameter against its spec row: type check, range
/// check, and default substitution.
fn parse_field(f: &FieldSpec, p: &Params<'_>) -> Result<FieldValue, (ErrorCode, String)> {
    let key = f.name;
    let plain = |m: String| (ErrorCode::BadRequest, m);
    let raw = p.get(key);
    if raw.is_none() {
        return match f.default {
            FieldDefault::Required => Err(plain(format!("param `{key}` is required"))),
            FieldDefault::Absent => Ok(FieldValue::Absent),
            FieldDefault::F64(v) => Ok(FieldValue::F64(v)),
            FieldDefault::Count(v) => Ok(FieldValue::Count(v)),
            FieldDefault::Seed(v) => Ok(FieldValue::Seed(v)),
            FieldDefault::Flag(v) => Ok(FieldValue::Flag(v)),
            FieldDefault::Topology(t) => Ok(FieldValue::Topology(t)),
            FieldDefault::Placement(pl) => Ok(FieldValue::Placement(pl)),
        };
    }
    let raw = raw.expect("raw value present");
    let want_str = || -> Result<&str, (ErrorCode, String)> {
        raw.as_str()
            .ok_or_else(|| plain(format!("param `{key}` expects a string")))
    };
    let want_count = |min: usize, max: usize| -> Result<usize, (ErrorCode, String)> {
        let n = raw
            .as_i64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| plain(format!("param `{key}` expects a non-negative integer")))?;
        if n < min {
            return Err(plain(format!("param `{key}` must be at least {min}")));
        }
        if n > max {
            return Err(plain(format!("param `{key}` is capped at {max}")));
        }
        Ok(n)
    };
    match f.ty {
        FieldType::F64 { positive } => {
            let v = raw
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| plain(format!("param `{key}` expects a number")))?;
            if positive && v <= 0.0 {
                return Err(plain(format!("param `{key}` must be positive")));
            }
            Ok(FieldValue::F64(v))
        }
        FieldType::Count { min, max } => Ok(FieldValue::Count(want_count(min, max)?)),
        FieldType::Seed => {
            let v = raw
                .as_i64()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| plain(format!("param `{key}` expects a non-negative integer")))?;
            Ok(FieldValue::Seed(v))
        }
        FieldType::Flag => {
            let v = raw
                .as_bool()
                .ok_or_else(|| plain(format!("param `{key}` expects a boolean")))?;
            Ok(FieldValue::Flag(v))
        }
        FieldType::Arch => {
            let s = want_str()?;
            parse_architecture(s)
                .map(FieldValue::Arch)
                .ok_or_else(|| plain(format!("unknown architecture '{s}'")))
        }
        FieldType::Topology => {
            let s = want_str()?;
            parse_topology(s)
                .map(FieldValue::Topology)
                .ok_or_else(|| plain(format!("unknown topology '{s}'")))
        }
        FieldType::Placement => {
            let s = want_str()?;
            parse_placement(s)
                .map(FieldValue::Placement)
                .ok_or_else(|| plain(format!("unknown placement '{s}'")))
        }
        FieldType::F64List { max_len } => {
            let Json::Array(items) = raw else {
                return Err(plain(format!("param `{key}` expects an array of numbers")));
            };
            if items.is_empty() {
                return Err(plain(format!("param `{key}` must not be empty")));
            }
            if items.len() > max_len {
                return Err(plain(format!(
                    "param `{key}` is capped at {max_len} values"
                )));
            }
            let values = items
                .iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|x| x.is_finite())
                        .ok_or_else(|| plain(format!("param `{key}` expects finite numbers")))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            Ok(FieldValue::List(values))
        }
        FieldType::OptionalCount { max } => {
            let v = raw
                .as_i64()
                .and_then(|n| usize::try_from(n).ok())
                .filter(|&k| k > 0)
                .ok_or_else(|| plain(format!("param `{key}` expects a positive integer")))?;
            if v > max {
                return Err(plain(format!("param `{key}` is capped at {max}")));
            }
            Ok(FieldValue::Count(v))
        }
        FieldType::Text { max_len } => {
            let s = want_str()?;
            if s.is_empty() {
                return Err(plain(format!("param `{key}` must not be empty")));
            }
            if s.len() > max_len {
                return Err(plain(format!("param `{key}` is capped at {max_len} bytes")));
            }
            Ok(FieldValue::Text(s.to_string()))
        }
    }
}

impl Request {
    /// Parses one NDJSON request line.
    ///
    /// # Errors
    ///
    /// [`RequestError`] with [`ErrorCode::Parse`] for malformed JSON,
    /// [`ErrorCode::BadRequest`] for a well-formed document that is not
    /// a valid request, and [`ErrorCode::Unsupported`] for a kind this
    /// protocol version does not serve (the message lists the supported
    /// kinds) or the `impedance` architecture comparison
    /// (`"arch":"all"`), which only the one-shot CLI serves.
    pub fn parse_line(line: &str) -> Result<Self, RequestError> {
        let doc = Json::parse(line).map_err(|e| RequestError {
            id: None,
            code: ErrorCode::Parse,
            message: e.to_string(),
        })?;
        let id = doc.get("id").and_then(Json::as_i64);
        let bad = |code: ErrorCode, message: String| RequestError { id, code, message };
        let kind = doc.get("kind").and_then(Json::as_str).ok_or_else(|| {
            bad(
                ErrorCode::BadRequest,
                "request needs a string `kind`".into(),
            )
        })?;
        let deadline_ms = doc
            .get("deadline_ms")
            .and_then(Json::as_i64)
            .map(|v| u64::try_from(v.max(0)).unwrap_or(0));
        let p = Params {
            doc: doc.get("params"),
        };
        let work = parse_work(kind, &p).map_err(|(code, message)| bad(code, message))?;
        Ok(Self {
            id,
            deadline_ms,
            work,
        })
    }
}

fn parse_work(kind: &str, p: &Params<'_>) -> Result<Work, (ErrorCode, String)> {
    let Some(spec) = kind_spec(kind) else {
        return Err((
            ErrorCode::Unsupported,
            format!(
                "unsupported kind '{kind}' (supported: {})",
                supported_kinds().join(", ")
            ),
        ));
    };
    p.reject_unknown(spec)
        .map_err(|m| (ErrorCode::BadRequest, m))?;
    // The one per-kind special case the table cannot express: the CLI's
    // multi-architecture impedance comparison is deliberately unserved.
    if kind == "impedance" && p.get("arch").and_then(Json::as_str) == Some("all") {
        return Err((
            ErrorCode::Unsupported,
            "the multi-architecture impedance comparison is only served by the one-shot \
             CLI (`vpd impedance --arch all`)"
                .into(),
        ));
    }
    let mut values = Vec::with_capacity(spec.fields.len());
    for f in &spec.fields {
        values.push((f.name, parse_field(f, p)?));
    }
    let v = ParsedFields(values);
    // Every drawn fault is materialized before a random-k sweep starts.
    if caps_fault_draws(spec) {
        if let Some(k) = v.optional_count("random_k") {
            let count = v.count("count");
            if k * count > MAX_FAULT_DRAWS {
                return Err((
                    ErrorCode::BadRequest,
                    format!(
                        "params `random_k` × `count` are capped at {MAX_FAULT_DRAWS} fault \
                         draws, got {k} × {count}"
                    ),
                ));
            }
        }
    }
    Ok(match kind {
        "ping" => Work::Ping,
        "stats" => Work::Stats,
        "kinds" => Work::Kinds,
        "shutdown" => Work::Shutdown,
        "analyze" => Work::Analyze {
            arch: v.arch("arch"),
            topology: v.topology("topology"),
            power_w: v.f64("power_w"),
            density: v.f64("density"),
        },
        "sharing" => Work::Sharing {
            placement: v.placement("placement"),
            modules: v.count("modules"),
        },
        "sharing_sweep" => Work::SharingSweep {
            placement: v.placement("placement"),
            modules: v.count("modules"),
            setpoints: v.list("setpoints"),
        },
        "droop" => Work::Droop {
            arch: v.arch("arch"),
        },
        "transient_stream" => Work::TransientStream {
            arch: v.arch("arch"),
            chunk: v.count("chunk"),
        },
        "mc" => Work::Mc {
            arch: v.arch("arch"),
            topology: v.topology("topology"),
            samples: v.count("samples"),
            seed: v.seed("seed"),
            threads: v.count("threads"),
        },
        "impedance" => Work::Impedance {
            arch: v.arch("arch"),
            fmin_hz: v.f64("fmin_hz"),
            fmax_hz: v.f64("fmax_hz"),
            points: v.count("points"),
            profile: v.flag("profile"),
        },
        "faults" => Work::Faults {
            arch: v.arch("arch"),
            topology: v.topology("topology"),
            random_k: v.optional_count("random_k"),
            count: v.count("count"),
            seed: v.seed("seed"),
        },
        "fault_impedance" => Work::FaultImpedance {
            arch: v.arch("arch"),
            random_k: v.optional_count("random_k"),
            count: v.count("count"),
            seed: v.seed("seed"),
            fmin_hz: v.f64("fmin_hz"),
            fmax_hz: v.f64("fmax_hz"),
            points: v.count("points"),
        },
        "fault_transient" => Work::FaultTransient {
            arch: v.arch("arch"),
            count: v.count("count"),
        },
        "survival" => Work::Survival {
            arch: v.arch("arch"),
            topology: v.topology("topology"),
        },
        "scenario" => {
            // Full parse + validation at admission: a malformed document
            // is rejected here, with its line/column diagnostic, before
            // it can occupy a queue slot or reach a worker.
            let text = match (v.optional_text("doc"), v.optional_text("name")) {
                (Some(_), Some(_)) => {
                    return Err((
                        ErrorCode::BadRequest,
                        "params `doc` and `name` are mutually exclusive".into(),
                    ));
                }
                (None, None) => {
                    return Err((
                        ErrorCode::BadRequest,
                        "param `doc` (inline document) or `name` (builtin) is required".into(),
                    ));
                }
                (Some(d), None) => d,
                (None, Some(n)) => builtin_doc(n).ok_or_else(|| {
                    (
                        ErrorCode::BadRequest,
                        format!(
                            "unknown builtin scenario '{n}' (builtins: {})",
                            BUILTIN_NAMES.join(", ")
                        ),
                    )
                })?,
            };
            let doc = ScenarioDoc::parse(text)
                .map_err(|e| (ErrorCode::BadRequest, format!("scenario document: {e}")))?;
            Work::Scenario { doc: Box::new(doc) }
        }
        other => unreachable!("kind `{other}` is in the table but not constructed"),
    })
}

/// A response line, ready to serialize.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Echoed request id (absent when the request carried none or the
    /// line was too malformed to read one).
    pub id: Option<i64>,
    /// Success or typed failure.
    pub body: ResponseBody,
}

/// The payload half of a [`Response`].
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// The analysis succeeded.
    Ok {
        /// Request kind, echoed for log readability.
        kind: &'static str,
        /// Whether compiled state was found in the scenario cache. Meta
        /// only — `result` is bitwise-identical either way.
        cached: bool,
        /// The analysis result document (matches the one-shot CLI).
        result: Json,
    },
    /// One record of a streaming response. Records with `done: false`
    /// are incremental chunks; the record with `done: true` is the
    /// final summary. Streams that fail mid-flight end with a plain
    /// [`ResponseBody::Err`] record instead of a summary.
    Stream {
        /// Request kind, echoed for log readability.
        kind: &'static str,
        /// Whether compiled state was found in the scenario cache.
        cached: bool,
        /// Zero-based record sequence number within the stream.
        seq: usize,
        /// `false` for chunks, `true` for the final summary record.
        done: bool,
        /// Chunk payload or summary document.
        result: Json,
    },
    /// The request was rejected or failed.
    Err {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// A success response.
    #[must_use]
    pub fn ok(id: Option<i64>, kind: &'static str, cached: bool, result: Json) -> Self {
        Self {
            id,
            body: ResponseBody::Ok {
                kind,
                cached,
                result,
            },
        }
    }

    /// One record of a streaming response (`done = false` for chunks,
    /// `true` for the final summary).
    #[must_use]
    pub fn stream(
        id: Option<i64>,
        kind: &'static str,
        cached: bool,
        seq: usize,
        done: bool,
        result: Json,
    ) -> Self {
        Self {
            id,
            body: ResponseBody::Stream {
                kind,
                cached,
                seq,
                done,
                result,
            },
        }
    }

    /// Whether more records of the same response follow this one on the
    /// wire. Only a stream chunk (`done: false`) is non-terminal; plain
    /// responses, summaries, and errors all end their response.
    #[must_use]
    pub fn has_more(&self) -> bool {
        matches!(self.body, ResponseBody::Stream { done: false, .. })
    }

    /// A typed failure response.
    #[must_use]
    pub fn error(id: Option<i64>, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            id,
            body: ResponseBody::Err {
                code,
                message: message.into(),
            },
        }
    }

    /// Serializes to the single-line wire form. Every variant leads
    /// with the echoed `id` and the server's [`PROTOCOL_VERSION`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let id = match self.id {
            Some(id) => Json::Int(id),
            None => Json::Null,
        };
        let version = Json::Int(PROTOCOL_VERSION);
        match &self.body {
            ResponseBody::Ok {
                kind,
                cached,
                result,
            } => Json::obj([
                ("id", id),
                ("version", version),
                ("ok", Json::from(true)),
                ("kind", Json::from(*kind)),
                ("cached", Json::from(*cached)),
                ("result", result.clone()),
            ]),
            ResponseBody::Stream {
                kind,
                cached,
                seq,
                done,
                result,
            } => Json::obj([
                ("id", id),
                ("version", version),
                ("ok", Json::from(true)),
                ("kind", Json::from(*kind)),
                ("cached", Json::from(*cached)),
                ("done", Json::from(*done)),
                ("seq", Json::from(*seq)),
                ("result", result.clone()),
            ]),
            ResponseBody::Err { code, message } => Json::obj([
                ("id", id),
                ("version", version),
                ("ok", Json::from(false)),
                (
                    "error",
                    Json::obj([
                        ("code", Json::from(code.as_str())),
                        ("message", Json::from(message.as_str())),
                    ]),
                ),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_params_instead_of_defaulting() {
        let err =
            Request::parse_line(r#"{"id":3,"kind":"analyze","params":{"power":800}}"#).unwrap_err();
        assert_eq!(err.id, Some(3));
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("unknown param `power`"), "{err:?}");
        assert!(err.message.contains("power_w"), "{err:?}");

        let err = Request::parse_line(r#"{"id":4,"kind":"ping","params":{"x":1}}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);

        let err = Request::parse_line(r#"{"id":5,"kind":"mc","params":[1,2]}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("must be an object"), "{err:?}");
    }

    #[test]
    fn parses_a_full_analyze_request() {
        let req = Request::parse_line(
            r#"{"id":7,"kind":"analyze","deadline_ms":250,
               "params":{"arch":"a2","topology":"dpmih","power_w":500,"density":1.5}}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(7));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(
            req.work,
            Work::Analyze {
                arch: Architecture::InterposerEmbedded,
                topology: VrTopologyKind::Dpmih,
                power_w: 500.0,
                density: 1.5,
            }
        );
    }

    /// A `params` object holding only `arch`, the one required param.
    fn arch_only(arch: &str) -> Json {
        Json::obj([("arch", Json::from(arch))])
    }

    #[test]
    fn defaults_mirror_the_cli() {
        assert_eq!(
            Work::from_params("analyze", &arch_only("a1")).unwrap(),
            Work::Analyze {
                arch: Architecture::InterposerPeriphery,
                topology: VrTopologyKind::Dsch,
                power_w: 1000.0,
                density: 2.0,
            }
        );
        assert_eq!(
            Work::from_params("sharing", &Json::obj::<&str>([])).unwrap(),
            Work::Sharing {
                placement: VrPlacement::Periphery,
                modules: 48,
            }
        );
        assert_eq!(
            Work::from_params("mc", &arch_only("a0")).unwrap(),
            Work::Mc {
                arch: Architecture::Reference,
                topology: VrTopologyKind::Dsch,
                samples: 200,
                seed: 0x5eed,
                threads: 0,
            }
        );
        assert_eq!(
            Work::from_params("faults", &arch_only("a2")).unwrap(),
            Work::Faults {
                arch: Architecture::InterposerEmbedded,
                topology: VrTopologyKind::Dsch,
                random_k: None,
                count: 32,
                seed: 64023,
            }
        );
        // A request line with the same params builds the same work.
        let req = Request::parse_line(r#"{"kind":"faults","params":{"arch":"a2"}}"#).unwrap();
        assert_eq!(
            req.work,
            Work::from_params("faults", &arch_only("a2")).unwrap()
        );
    }

    #[test]
    fn table_defaults_are_reachable_by_name() {
        let z = vpd_core::ImpedanceSweepSettings::default();
        assert_eq!(
            Work::from_params("impedance", &arch_only("a1")).unwrap(),
            Work::Impedance {
                arch: Architecture::InterposerPeriphery,
                fmin_hz: z.fmin.value(),
                fmax_hz: z.fmax.value(),
                points: z.points,
                profile: false,
            }
        );
        assert_eq!(
            Work::from_params("fault_transient", &arch_only("a2")).unwrap(),
            Work::FaultTransient {
                arch: Architecture::InterposerEmbedded,
                count: 4,
            }
        );
        assert_eq!(
            Work::from_params("droop", &arch_only("a0")).unwrap(),
            Work::Droop {
                arch: Architecture::Reference,
            }
        );
        let e = Work::from_params("mc", &Json::obj::<&str>([])).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        assert!(e.1.contains("`arch` is required"), "{e:?}");
        let e = Work::from_params("frobnicate", &Json::obj::<&str>([])).unwrap_err();
        assert_eq!(e.0, ErrorCode::Unsupported);
    }

    #[test]
    fn catalog_lists_every_kind_with_typed_params() {
        let catalog = kind_catalog();
        let Json::Array(kinds) = &catalog else {
            panic!("catalog must be an array: {catalog}");
        };
        assert_eq!(kinds.len(), kind_specs().len());
        let analyze = kinds
            .iter()
            .find(|k| k.get("kind").and_then(Json::as_str) == Some("analyze"))
            .expect("analyze in catalog");
        let Some(Json::Array(params)) = analyze.get("params") else {
            panic!("analyze params: {analyze}");
        };
        let arch = params
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some("arch"))
            .expect("arch param");
        assert_eq!(arch.get("required").and_then(Json::as_bool), Some(true));
        assert_eq!(
            arch.get("type").and_then(Json::as_str),
            Some("architecture")
        );
        let power = params
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some("power_w"))
            .expect("power_w param");
        assert_eq!(power.get("default").and_then(Json::as_f64), Some(1000.0));
        // Range validators surface in the catalog.
        let mc = kinds
            .iter()
            .find(|k| k.get("kind").and_then(Json::as_str) == Some("mc"))
            .unwrap();
        let Some(Json::Array(mc_params)) = mc.get("params") else {
            panic!("mc params");
        };
        let samples = mc_params
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some("samples"))
            .unwrap();
        assert_eq!(samples.get("min").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn parses_a_sharing_sweep_request() {
        let req = Request::parse_line(
            r#"{"kind":"sharing_sweep","params":{"placement":"below","modules":24,"setpoints":[1.0,1.01,1.02]}}"#,
        )
        .unwrap();
        assert_eq!(
            req.work,
            Work::SharingSweep {
                placement: VrPlacement::BelowDie,
                modules: 24,
                setpoints: vec![1.0, 1.01, 1.02],
            }
        );
        assert_eq!(req.work.kind(), "sharing_sweep");

        for bad in [
            r#"{"kind":"sharing_sweep"}"#,
            r#"{"kind":"sharing_sweep","params":{"setpoints":[]}}"#,
            r#"{"kind":"sharing_sweep","params":{"setpoints":"1.0"}}"#,
            r#"{"kind":"sharing_sweep","params":{"setpoints":[1.0,"x"]}}"#,
            r#"{"kind":"sharing_sweep","params":{"setpoints":[1.0],"modules":0}}"#,
        ] {
            let e = Request::parse_line(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn parses_the_dynamic_fault_kinds() {
        let z = vpd_core::ImpedanceSweepSettings::default();
        let req =
            Request::parse_line(r#"{"kind":"fault_impedance","params":{"arch":"a2"}}"#).unwrap();
        assert_eq!(
            req.work,
            Work::FaultImpedance {
                arch: Architecture::InterposerEmbedded,
                random_k: None,
                count: 32,
                seed: 64023,
                fmin_hz: z.fmin.value(),
                fmax_hz: z.fmax.value(),
                points: z.points,
            }
        );
        assert_eq!(req.work.kind(), "fault_impedance");
        let req = Request::parse_line(
            r#"{"kind":"fault_impedance","params":{"arch":"a1","random_k":2,"count":8,"seed":5,"points":16}}"#,
        )
        .unwrap();
        assert!(matches!(
            req.work,
            Work::FaultImpedance {
                random_k: Some(2),
                count: 8,
                seed: 5,
                points: 16,
                ..
            }
        ));

        let req =
            Request::parse_line(r#"{"kind":"fault_transient","params":{"arch":"a2"}}"#).unwrap();
        assert_eq!(
            req.work,
            Work::FaultTransient {
                arch: Architecture::InterposerEmbedded,
                count: 4,
            }
        );
        assert_eq!(req.work.kind(), "fault_transient");

        let req = Request::parse_line(r#"{"kind":"survival","params":{"arch":"a1"}}"#).unwrap();
        assert_eq!(
            req.work,
            Work::Survival {
                arch: Architecture::InterposerPeriphery,
                topology: VrTopologyKind::Dsch,
            }
        );
        assert_eq!(req.work.kind(), "survival");

        for bad in [
            r#"{"kind":"fault_impedance"}"#,
            r#"{"kind":"fault_impedance","params":{"arch":"a1","points":1}}"#,
            r#"{"kind":"fault_transient","params":{"arch":"a1","count":0}}"#,
            r#"{"kind":"survival","params":{"arch":"a1","topology":"nope"}}"#,
        ] {
            let e = Request::parse_line(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn random_k_has_the_vpd_grammars_ceiling() {
        for kind in ["faults", "fault_impedance"] {
            let line = |k: usize| {
                format!(r#"{{"kind":"{kind}","params":{{"arch":"a2","random_k":{k}}}}}"#)
            };
            let req = Request::parse_line(&line(MAX_FAULT_K)).unwrap();
            assert!(format!("{:?}", req.work).contains(&format!("random_k: Some({MAX_FAULT_K})")));
            let e = Request::parse_line(&line(MAX_FAULT_K + 1)).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{kind}");
            assert!(
                e.message
                    .contains(&format!("param `random_k` is capped at {MAX_FAULT_K}")),
                "{kind}: {e:?}"
            );
        }
        // The catalog states the ceiling.
        let catalog = kind_catalog().to_string();
        assert!(
            catalog.contains(&format!(
                r#""name":"random_k","type":"count?","required":false,"min":1,"max":{MAX_FAULT_K}"#
            )),
            "{catalog}"
        );
    }

    #[test]
    fn random_k_times_count_has_the_vpd_grammars_ceiling() {
        for kind in ["faults", "fault_impedance"] {
            let line = |k: usize, count: usize| {
                format!(
                    r#"{{"kind":"{kind}","params":{{"arch":"a2","random_k":{k},"count":{count}}}}}"#
                )
            };
            // Every k = 1 request stays legal, and the product may reach
            // the ceiling.
            Request::parse_line(&line(1, 1_000_000)).unwrap();
            Request::parse_line(&line(MAX_FAULT_K, MAX_FAULT_DRAWS / MAX_FAULT_K)).unwrap();
            let e = Request::parse_line(&line(MAX_FAULT_K, MAX_FAULT_DRAWS / MAX_FAULT_K + 1))
                .unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{kind}");
            assert!(
                e.message.contains("`random_k`") && e.message.contains("`count`"),
                "{kind}: {e:?}"
            );
            // N-1 mode draws nothing, so `count` alone is not capped by it.
            let n_minus_1 =
                format!(r#"{{"kind":"{kind}","params":{{"arch":"a2","count":1000000}}}}"#);
            Request::parse_line(&n_minus_1).unwrap();
        }
        // The catalog states the ceiling on exactly the random-k kinds.
        let catalog = kind_catalog();
        let Json::Array(kinds) = &catalog else {
            panic!("catalog is an array")
        };
        let limit = format!(r#"[{{"product":["random_k","count"],"max":{MAX_FAULT_DRAWS}}}]"#);
        for entry in kinds {
            let kind = entry.get("kind").and_then(Json::as_str).unwrap();
            let limits = entry.get("limits").map(Json::to_string);
            let random_k = matches!(kind, "faults" | "fault_impedance");
            assert_eq!(
                limits.as_deref() == Some(limit.as_str()),
                random_k,
                "{kind}"
            );
            assert_eq!(limits.is_some(), random_k, "{kind}");
        }
    }

    #[test]
    fn malformed_lines_give_typed_errors() {
        let e = Request::parse_line("{nope").unwrap_err();
        assert_eq!(e.code, ErrorCode::Parse);
        assert_eq!(e.id, None);

        let e = Request::parse_line(r#"{"id":4,"kind":"analyze"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("arch"));

        let e = Request::parse_line(r#"{"kind":"analyze","params":{"arch":"a9"}}"#).unwrap_err();
        assert!(e.message.contains("unknown architecture"));

        let e =
            Request::parse_line(r#"{"kind":"mc","params":{"arch":"a1","samples":0}}"#).unwrap_err();
        assert!(e.message.contains("samples"));
    }

    #[test]
    fn unknown_kind_is_unsupported_and_lists_supported_kinds() {
        let e = Request::parse_line(r#"{"id":3,"kind":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::Unsupported);
        assert_eq!(e.id, Some(3), "id echoed even on unsupported kinds");
        for kind in supported_kinds() {
            assert!(
                e.message.contains(kind),
                "unsupported-kind message must list `{kind}`: {}",
                e.message
            );
        }
    }

    #[test]
    fn parses_a_transient_stream_request() {
        let req = Request::parse_line(
            r#"{"kind":"transient_stream","params":{"arch":"a2","chunk":256}}"#,
        )
        .unwrap();
        assert_eq!(
            req.work,
            Work::TransientStream {
                arch: Architecture::InterposerEmbedded,
                chunk: 256,
            }
        );
        assert_eq!(req.work.kind(), "transient_stream");
        // Default chunk size.
        let req =
            Request::parse_line(r#"{"kind":"transient_stream","params":{"arch":"a0"}}"#).unwrap();
        assert!(matches!(
            req.work,
            Work::TransientStream { chunk: 1024, .. }
        ));

        for bad in [
            r#"{"kind":"transient_stream"}"#,
            r#"{"kind":"transient_stream","params":{"arch":"a0","chunk":0}}"#,
            r#"{"kind":"transient_stream","params":{"arch":"a0","chunk":65536}}"#,
            r#"{"kind":"transient_stream","params":{"arch":"a0","chunks":8}}"#,
        ] {
            let e = Request::parse_line(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn stream_records_serialize_and_classify_termination() {
        let chunk = Response::stream(
            Some(4),
            "transient_stream",
            true,
            0,
            false,
            Json::obj([("samples", Json::from(2usize))]),
        );
        assert_eq!(
            chunk.to_json().to_string(),
            r#"{"id":4,"version":2,"ok":true,"kind":"transient_stream","cached":true,"done":false,"seq":0,"result":{"samples":2}}"#
        );
        assert!(chunk.has_more());
        let summary = Response::stream(Some(4), "transient_stream", true, 3, true, Json::Null);
        assert!(!summary.has_more());
        assert!(summary.to_json().to_string().contains("\"done\":true"));
        // Plain responses and errors never have more records.
        assert!(!Response::ok(Some(1), "ping", false, Json::Null).has_more());
        assert!(!Response::error(None, ErrorCode::Engine, "x").has_more());
    }

    #[test]
    fn parses_scenario_requests() {
        // Builtin by name.
        let req = Request::parse_line(r#"{"kind":"scenario","params":{"name":"a3-6"}}"#).unwrap();
        let Work::Scenario { doc } = &req.work else {
            panic!("not a scenario: {req:?}");
        };
        assert_eq!(doc.name, "a3-6");
        assert_eq!(req.work.kind(), "scenario");

        // Inline document; equivalent spelling hits the same hash.
        let inline =
            r#"{"kind":"scenario","params":{"doc":"[scenario]\narchitecture = \"a2\"\n"}}"#;
        let req = Request::parse_line(inline).unwrap();
        let Work::Scenario { doc } = &req.work else {
            panic!("not a scenario: {req:?}");
        };
        assert_eq!(doc.name, "a2");
        let canonical = vpd_scenario::builtin_doc("a2").unwrap();
        assert_eq!(
            doc.content_hash(),
            ScenarioDoc::parse(canonical).unwrap().content_hash(),
            "inline defaulted a2 and the checked-in a2 document must share a cache key"
        );

        // Exactly one of doc|name; unknown builtins and malformed
        // documents are rejected at admission with their diagnostics.
        let e = Request::parse_line(r#"{"kind":"scenario"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::parse_line(
            r#"{"kind":"scenario","params":{"name":"a0","doc":"[scenario]\n"}}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("mutually exclusive"), "{e:?}");
        let e = Request::parse_line(r#"{"kind":"scenario","params":{"name":"a9"}}"#).unwrap_err();
        assert!(e.message.contains("unknown builtin"), "{e:?}");
        let e = Request::parse_line(
            r#"{"kind":"scenario","params":{"doc":"[scenario]\narchitecture = \"a9\"\n"}}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("error[bad-enum] at 2:16"), "{e:?}");
    }

    #[test]
    fn impedance_all_is_unsupported() {
        let e = Request::parse_line(r#"{"id":9,"kind":"impedance","params":{"arch":"all"}}"#)
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::Unsupported);
        assert_eq!(e.id, Some(9));
    }

    #[test]
    fn responses_serialize_to_one_line_with_the_protocol_version() {
        let ok = Response::ok(
            Some(1),
            "ping",
            false,
            Json::obj([("command", Json::from("ping"))]),
        );
        assert_eq!(
            ok.to_json().to_string(),
            r#"{"id":1,"version":2,"ok":true,"kind":"ping","cached":false,"result":{"command":"ping"}}"#
        );
        let err = Response::error(None, ErrorCode::QueueFull, "queue is full (depth 2)");
        assert_eq!(
            err.to_json().to_string(),
            r#"{"id":null,"version":2,"ok":false,"error":{"code":"queue_full","message":"queue is full (depth 2)"}}"#
        );
        assert!(!err.to_json().to_string().contains('\n'));
        let shed = Response::error(Some(7), ErrorCode::Shed, "x");
        assert!(shed.to_json().to_string().contains(r#""code":"shed""#));
    }
}
