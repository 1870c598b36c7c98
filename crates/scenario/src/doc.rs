//! The typed scenario document: schema-validated sections with every
//! default materialized, ready to render canonically or compile into
//! the `vpd-core` analysis structs.
//!
//! Parsing performs the *complete* validation pass — types, ranges,
//! enum spellings, cross-field consistency, and the feasibility checks
//! the typed constructors downstream would raise (converter curve fit,
//! interconnect geometry) — so every error class carries a real source
//! line/column and a dotted field path. [`crate::compile`] then only
//! re-runs infallible constructions.

use vpd_converters::{CurveAnchors, EfficiencyCurve, VrTopologyKind};
use vpd_core::wire::{architecture_wire_name, parse_architecture, parse_placement, parse_topology};
use vpd_core::{Architecture, DcPlanMode, PowerMap, VrPlacement};
use vpd_package::{InterconnectTech, ViaMaterial};
use vpd_units::{Amps, Efficiency, Volts};

use crate::error::{ScenarioError, ScenarioErrorCode};
use crate::raw::{RawDoc, RawEntry, RawSection, RawValue, Span};

/// Ceiling on `scenario.modules`.
pub const MAX_MODULES: usize = 10_000;
/// Ceiling on `calibration.grid_nodes_per_side` (bounds the mesh a
/// served document can demand).
pub const MAX_GRID_NODES: usize = 200;
/// Ceiling on `faults.count`.
pub const MAX_FAULT_COUNT: usize = 1_000_000;
/// Ceiling on `faults.k`.
pub const MAX_FAULT_K: usize = 1_000;
/// Ceiling on `faults.k × faults.count`: a random-k sweep materializes
/// every drawn fault before it starts, so this bounds its memory. Every
/// `k = 1` sweep stays legal.
pub const MAX_FAULT_DRAWS: usize = 1_000_000;

/// The `[spec]` section: raw document-unit values (volts, watts,
/// A/mm²), defaults = the paper's 48 V → 1 V, 1 kW, 2 A/mm² system.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpecDoc {
    /// PCB input voltage, volts.
    pub pcb_v: f64,
    /// Point-of-load voltage, volts.
    pub pol_v: f64,
    /// Die power, watts.
    pub power_w: f64,
    /// Die current density, A/mm².
    pub density_a_mm2: f64,
}

impl Default for SpecDoc {
    fn default() -> Self {
        Self {
            pcb_v: 48.0,
            pol_v: 1.0,
            power_w: 1000.0,
            density_a_mm2: 2.0,
        }
    }
}

/// The `[calibration]` section: raw document-unit values (µΩ/mΩ as the
/// key names say), defaults = `Calibration::paper_default()`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CalibDoc {
    /// Lateral PCB+package routing at POL voltage, µΩ.
    pub horizontal_pol_uohm: f64,
    /// Lateral 48 V PCB feed, mΩ.
    pub horizontal_hv_mohm: f64,
    /// Interposer intermediate-voltage bus, mΩ.
    pub interposer_bus_mohm: f64,
    /// Die-grid sheet resistance per square, mΩ.
    pub grid_sheet_mohm: f64,
    /// Periphery-module droop, mΩ.
    pub vr_droop_periphery_mohm: f64,
    /// Below-die-module droop, µΩ.
    pub vr_droop_below_die_uohm: f64,
    /// Mesh resolution per side.
    pub grid_nodes_per_side: usize,
}

impl Default for CalibDoc {
    fn default() -> Self {
        Self {
            horizontal_pol_uohm: 280.0,
            horizontal_hv_mohm: 10.0,
            interposer_bus_mohm: 1.15,
            grid_sheet_mohm: 0.3,
            vr_droop_periphery_mohm: 1.2,
            vr_droop_below_die_uohm: 60.0,
            grid_nodes_per_side: 25,
        }
    }
}

/// The `[converter]` section: published loss-curve anchor points for a
/// user-supplied POL converter, fitted through
/// `EfficiencyCurve::fit` at parse time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConverterDoc {
    /// Output voltage the anchors refer to, volts.
    pub v_out: f64,
    /// Current at peak efficiency, amps.
    pub i_peak: f64,
    /// Peak efficiency in `(0, 1)`.
    pub eta_peak: f64,
    /// Maximum load current, amps (must exceed `i_peak`).
    pub i_max: f64,
    /// Efficiency at maximum load, in `(0, 1)`.
    pub eta_max: f64,
}

impl ConverterDoc {
    /// The fitted anchors (infallible after parse-time validation).
    #[must_use]
    pub fn anchors(&self) -> CurveAnchors {
        CurveAnchors {
            v_out: Volts::new(self.v_out),
            i_peak: Amps::new(self.i_peak),
            eta_peak: Efficiency::new(self.eta_peak).expect("validated in (0, 1) at parse"),
            i_max: Amps::new(self.i_max),
            eta_max: Efficiency::new(self.eta_max).expect("validated in (0, 1) at parse"),
        }
    }
}

/// Which Table I technology a `[tech.<base>]` section starts from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TechBase {
    /// PCB→package BGA balls.
    Bga,
    /// Package→interposer C4 bumps.
    C4,
    /// Through-silicon vias.
    Tsv,
    /// Interposer→die µ-bumps.
    MicroBump,
    /// Direct Cu pads.
    CuPad,
}

impl TechBase {
    /// Document spelling of the base id.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Bga => "bga",
            Self::C4 => "c4",
            Self::Tsv => "tsv",
            Self::MicroBump => "micro-bump",
            Self::CuPad => "cu-pad",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "bga" => Some(Self::Bga),
            "c4" => Some(Self::C4),
            "tsv" => Some(Self::Tsv),
            "micro-bump" => Some(Self::MicroBump),
            "cu-pad" => Some(Self::CuPad),
            _ => None,
        }
    }

    /// The Table I constant the section overrides.
    #[must_use]
    pub fn table_i(self) -> InterconnectTech {
        match self {
            Self::Bga => InterconnectTech::BGA,
            Self::C4 => InterconnectTech::C4,
            Self::Tsv => InterconnectTech::TSV,
            Self::MicroBump => InterconnectTech::MICRO_BUMP,
            Self::CuPad => InterconnectTech::CU_PAD,
        }
    }
}

/// One `[tech.<base>]` section: a Table I technology with selective
/// numeric overrides. Only explicitly overridden fields are stored (and
/// rendered), so untouched fields keep the base constant's exact bits.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TechDoc {
    /// Which builtin the overrides apply to.
    pub base: TechBase,
    /// Via material override.
    pub material: Option<ViaMaterial>,
    /// Via/ball diameter override, µm.
    pub diameter_um: Option<f64>,
    /// Conduction cross-section override, µm².
    pub cross_section_um2: Option<f64>,
    /// Via height override, µm.
    pub height_um: Option<f64>,
    /// Array pitch override, µm.
    pub pitch_um: Option<f64>,
    /// Platform area override, mm².
    pub platform_area_mm2: Option<f64>,
    /// Power-site utilization cap override, in `(0, 1]`.
    pub power_site_cap: Option<f64>,
}

/// The `[faults]` section: which fault sweep `scenario run`/serve
/// executes for this document.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultsDoc {
    /// `None` = the N-1 contingency set; `Some(k)` = random k-fault
    /// draws.
    pub random_k: Option<usize>,
    /// Scenario count (random-k mode).
    pub count: usize,
    /// RNG seed (random-k mode).
    pub seed: u64,
}

/// A fully validated scenario document with every default
/// materialized. Equal documents render to byte-identical canonical
/// text (and therefore share a content hash).
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioDoc {
    /// Display name (defaults to the architecture spelling).
    pub name: String,
    /// Delivery architecture (a builtin tag, or `a3` with a custom
    /// bus voltage).
    pub architecture: Architecture,
    /// POL-stage topology.
    pub topology: VrTopologyKind,
    /// Regulator placement (defaults per architecture: below-die for
    /// `a2`, periphery otherwise).
    pub placement: VrPlacement,
    /// Module-count override (absent = the architecture's default).
    pub modules: Option<usize>,
    /// Permit modules beyond their published maximum load.
    pub allow_overload: bool,
    /// Sparse-solver mode for the die-grid mesh.
    pub solve_mode: DcPlanMode,
    /// `[spec]`.
    pub spec: SpecDoc,
    /// `[calibration]`.
    pub calibration: CalibDoc,
    /// `[load]`.
    pub load: PowerMap,
    /// `[converter]`, when present.
    pub converter: Option<ConverterDoc>,
    /// `[tech.*]` sections in source order.
    pub techs: Vec<TechDoc>,
    /// `[faults]`, when present.
    pub faults: Option<FaultsDoc>,
}

/// Spelling of a solve mode.
#[must_use]
pub fn solve_mode_name(m: DcPlanMode) -> &'static str {
    match m {
        DcPlanMode::WarmCg => "warm-cg",
        DcPlanMode::DirectCholesky => "direct-cholesky",
        // Non-exhaustive upstream: a new plan mode must gain a document
        // spelling before documents can carry it.
        _ => unreachable!("plan mode {m:?} has no document spelling"),
    }
}

fn parse_solve_mode(s: &str) -> Option<DcPlanMode> {
    match s {
        "warm-cg" => Some(DcPlanMode::WarmCg),
        "direct-cholesky" => Some(DcPlanMode::DirectCholesky),
        _ => None,
    }
}

/// The default placement a document inherits from its architecture:
/// under-die for the embedded architecture, periphery otherwise.
#[must_use]
pub fn default_placement(architecture: Architecture) -> VrPlacement {
    match architecture {
        Architecture::InterposerEmbedded => VrPlacement::BelowDie,
        _ => VrPlacement::Periphery,
    }
}

// ---------------------------------------------------------------------
// Schema-aware section reading
// ---------------------------------------------------------------------

/// Reads one raw section against its schema: typed accessors with
/// defaults, consumed-key tracking, and unknown-key rejection.
struct Reader<'a> {
    path: &'a str,
    section: Option<&'a RawSection>,
    consumed: Vec<&'a str>,
}

impl<'a> Reader<'a> {
    fn new(path: &'a str, section: Option<&'a RawSection>) -> Self {
        Self {
            path,
            section,
            consumed: Vec::new(),
        }
    }

    fn field(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    fn entry(&mut self, key: &'static str) -> Option<&'a RawEntry> {
        // Record the key whether or not the document carries it: the
        // consumed list doubles as the section's accepted-key list in
        // unknown-key diagnostics.
        if !self.consumed.contains(&key) {
            self.consumed.push(key);
        }
        self.section
            .and_then(|s| s.entries.iter().find(|e| e.key == key))
    }

    fn bare<'e>(&self, key: &str, e: &'e RawEntry) -> Result<&'e str, ScenarioError> {
        match &e.value {
            RawValue::Bare(t) => Ok(t),
            RawValue::Quoted(_) => Err(e.value_span.err(
                self.field(key),
                ScenarioErrorCode::BadValue,
                "expects an unquoted value",
            )),
        }
    }

    fn quoted<'e>(&self, key: &str, e: &'e RawEntry) -> Result<&'e str, ScenarioError> {
        match &e.value {
            RawValue::Quoted(t) => Ok(t),
            RawValue::Bare(_) => Err(e.value_span.err(
                self.field(key),
                ScenarioErrorCode::BadValue,
                "expects a quoted string",
            )),
        }
    }

    /// A finite number; `(f64, span)` for range checks at the caller.
    fn f64_entry(&self, key: &str, e: &RawEntry) -> Result<(f64, Span), ScenarioError> {
        let t = self.bare(key, e)?;
        let v: f64 = t.parse().map_err(|_| {
            e.value_span.err(
                self.field(key),
                ScenarioErrorCode::BadValue,
                format!("expects a number, got `{t}`"),
            )
        })?;
        if !v.is_finite() {
            return Err(e.value_span.err(
                self.field(key),
                ScenarioErrorCode::OutOfRange,
                format!("must be finite, got {v}"),
            ));
        }
        Ok((v, e.value_span))
    }

    /// A positive finite number, defaulted.
    fn f64_positive(&mut self, key: &'static str, default: f64) -> Result<f64, ScenarioError> {
        match self.entry(key) {
            None => Ok(default),
            Some(e) => {
                let (v, span) = self.f64_entry(key, e)?;
                if v <= 0.0 {
                    return Err(span.err(
                        self.field(key),
                        ScenarioErrorCode::OutOfRange,
                        format!("must be positive, got {v}"),
                    ));
                }
                Ok(v)
            }
        }
    }

    fn count(
        &mut self,
        key: &'static str,
        default: usize,
        min: usize,
        max: usize,
    ) -> Result<usize, ScenarioError> {
        match self.entry(key) {
            None => Ok(default),
            Some(e) => self.count_entry(key, e, min, max),
        }
    }

    fn count_entry(
        &self,
        key: &str,
        e: &RawEntry,
        min: usize,
        max: usize,
    ) -> Result<usize, ScenarioError> {
        let t = self.bare(key, e)?;
        let v: usize = t.parse().map_err(|_| {
            e.value_span.err(
                self.field(key),
                ScenarioErrorCode::BadValue,
                format!("expects a non-negative integer, got `{t}`"),
            )
        })?;
        if v < min {
            return Err(e.value_span.err(
                self.field(key),
                ScenarioErrorCode::OutOfRange,
                format!("must be at least {min}, got {v}"),
            ));
        }
        if v > max {
            return Err(e.value_span.err(
                self.field(key),
                ScenarioErrorCode::OutOfRange,
                format!("is capped at {max}, got {v}"),
            ));
        }
        Ok(v)
    }

    fn flag(&mut self, key: &'static str, default: bool) -> Result<bool, ScenarioError> {
        match self.entry(key) {
            None => Ok(default),
            Some(e) => match self.bare(key, e)? {
                "true" => Ok(true),
                "false" => Ok(false),
                other => Err(e.value_span.err(
                    self.field(key),
                    ScenarioErrorCode::BadValue,
                    format!("expects true or false, got `{other}`"),
                )),
            },
        }
    }

    /// A quoted enum value parsed through `parse`, with the accepted
    /// spellings echoed on failure.
    fn choice<T>(
        &mut self,
        key: &'static str,
        default: T,
        accepted: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, ScenarioError> {
        match self.entry(key) {
            None => Ok(default),
            Some(e) => {
                let s = self.quoted(key, e)?;
                parse(s).ok_or_else(|| {
                    e.value_span.err(
                        self.field(key),
                        ScenarioErrorCode::BadEnum,
                        format!("unknown value `{s}` (expected one of: {accepted})"),
                    )
                })
            }
        }
    }

    /// Rejects any entry the schema did not consume, and any key given
    /// twice.
    fn finish(self) -> Result<(), ScenarioError> {
        let Some(section) = self.section else {
            return Ok(());
        };
        for (i, e) in section.entries.iter().enumerate() {
            if section.entries[..i].iter().any(|p| p.key == e.key) {
                return Err(e.key_span.err(
                    self.field(&e.key),
                    ScenarioErrorCode::DuplicateKey,
                    format!("key `{}` given twice", e.key),
                ));
            }
            if !self.consumed.contains(&e.key.as_str()) {
                return Err(e.key_span.err(
                    self.field(&e.key),
                    ScenarioErrorCode::UnknownKey,
                    format!(
                        "unknown key `{}` (accepted here: {})",
                        e.key,
                        self.consumed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

impl ScenarioDoc {
    /// Parses and fully validates a scenario document.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] pinpointing the first violation: its source
    /// line/column, dotted field path, and stable
    /// [`ScenarioErrorCode`].
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let raw = RawDoc::parse(text)?;
        // Section-level checks: known names, no duplicates.
        const SECTIONS: [&str; 7] = [
            "scenario",
            "spec",
            "calibration",
            "load",
            "converter",
            "tech",
            "faults",
        ];
        for (i, s) in raw.sections.iter().enumerate() {
            if !SECTIONS.contains(&s.name.as_str()) {
                return Err(s.span.err(
                    s.name.clone(),
                    ScenarioErrorCode::UnknownSection,
                    format!(
                        "unknown section `[{}]` (accepted: {})",
                        s.name,
                        SECTIONS.join(", ")
                    ),
                ));
            }
            if s.sub.is_some() != (s.name == "tech") {
                return Err(s.span.err(
                    s.name.clone(),
                    ScenarioErrorCode::UnknownSection,
                    if s.name == "tech" {
                        "technology sections are written `[tech.<base>]`".to_string()
                    } else {
                        format!("section `[{}]` takes no `.sub` qualifier", s.name)
                    },
                ));
            }
            if raw.sections[..i]
                .iter()
                .any(|p| p.name == s.name && p.sub == s.sub)
            {
                return Err(s.span.err(
                    s.name.clone(),
                    ScenarioErrorCode::DuplicateKey,
                    format!("section `[{}]` given twice", heading(s)),
                ));
            }
        }
        let find = |name: &str| raw.sections.iter().find(|s| s.name == name);

        // --- [scenario] -------------------------------------------------
        let Some(scn) = find("scenario") else {
            return Err(ScenarioError::new(
                1,
                1,
                "scenario",
                ScenarioErrorCode::MissingKey,
                "a scenario document needs a `[scenario]` section",
            ));
        };
        let mut r = Reader::new("scenario", Some(scn));
        let arch_entry = r.entry("architecture");
        let Some(arch_entry) = arch_entry else {
            return Err(scn.span.err(
                "scenario.architecture",
                ScenarioErrorCode::MissingKey,
                "key `architecture` is required",
            ));
        };
        let arch_tag = r.quoted("architecture", arch_entry)?;
        let bus_entry = r.entry("bus_v");
        let architecture = match (arch_tag, bus_entry) {
            ("a3", Some(e)) => {
                let (v, span) = r.f64_entry("bus_v", e)?;
                if v <= 0.0 {
                    return Err(span.err(
                        "scenario.bus_v",
                        ScenarioErrorCode::OutOfRange,
                        format!("must be positive, got {v}"),
                    ));
                }
                Architecture::TwoStage { bus: Volts::new(v) }
            }
            ("a3", None) => {
                return Err(arch_entry.value_span.err(
                    "scenario.bus_v",
                    ScenarioErrorCode::MissingKey,
                    "architecture `a3` needs an explicit `bus_v`",
                ));
            }
            (tag, Some(e)) => {
                return Err(e.key_span.err(
                    "scenario.bus_v",
                    ScenarioErrorCode::Inconsistent,
                    format!("`bus_v` only applies to architecture `a3`, not `{tag}`"),
                ));
            }
            (tag, None) => parse_architecture(tag).ok_or_else(|| {
                arch_entry.value_span.err(
                    "scenario.architecture",
                    ScenarioErrorCode::BadEnum,
                    format!("unknown architecture `{tag}` (expected one of: a0, a1, a2, a3-12, a3-6, a3)"),
                )
            })?,
        };
        let default_name =
            architecture_wire_name(architecture).map_or_else(|| "a3".to_string(), str::to_string);
        let name = match r.entry("name") {
            None => default_name,
            Some(e) => r.quoted("name", e)?.to_string(),
        };
        let topology = r.choice(
            "topology",
            VrTopologyKind::Dsch,
            "dpmih, dsch, 3lhd",
            parse_topology,
        )?;
        let placement = r.choice(
            "placement",
            default_placement(architecture),
            "periphery, below",
            parse_placement,
        )?;
        let modules = match r.entry("modules") {
            None => None,
            Some(e) => Some(r.count_entry("modules", e, 1, MAX_MODULES)?),
        };
        let allow_overload = r.flag("allow_overload", true)?;
        let solve_mode = r.choice(
            "solve_mode",
            DcPlanMode::WarmCg,
            "warm-cg, direct-cholesky",
            parse_solve_mode,
        )?;
        r.finish()?;

        // --- [spec] -----------------------------------------------------
        let d = SpecDoc::default();
        let mut r = Reader::new("spec", find("spec"));
        let spec = SpecDoc {
            pcb_v: r.f64_positive("pcb_v", d.pcb_v)?,
            pol_v: r.f64_positive("pol_v", d.pol_v)?,
            power_w: r.f64_positive("power_w", d.power_w)?,
            density_a_mm2: r.f64_positive("density_a_mm2", d.density_a_mm2)?,
        };
        if spec.pol_v >= spec.pcb_v {
            let span = find("spec").map_or(scn.span, |s| s.span);
            let span = find("spec")
                .and_then(|s| s.entries.iter().find(|e| e.key == "pol_v"))
                .map_or(span, |e| e.value_span);
            return Err(span.err(
                "spec.pol_v",
                ScenarioErrorCode::OutOfRange,
                format!(
                    "pol_v ({}) must be below pcb_v ({})",
                    spec.pol_v, spec.pcb_v
                ),
            ));
        }
        r.finish()?;

        // --- [calibration] ----------------------------------------------
        let d = CalibDoc::default();
        let mut r = Reader::new("calibration", find("calibration"));
        let calibration = CalibDoc {
            horizontal_pol_uohm: r.f64_positive("horizontal_pol_uohm", d.horizontal_pol_uohm)?,
            horizontal_hv_mohm: r.f64_positive("horizontal_hv_mohm", d.horizontal_hv_mohm)?,
            interposer_bus_mohm: r.f64_positive("interposer_bus_mohm", d.interposer_bus_mohm)?,
            grid_sheet_mohm: r.f64_positive("grid_sheet_mohm", d.grid_sheet_mohm)?,
            vr_droop_periphery_mohm: r
                .f64_positive("vr_droop_periphery_mohm", d.vr_droop_periphery_mohm)?,
            vr_droop_below_die_uohm: r
                .f64_positive("vr_droop_below_die_uohm", d.vr_droop_below_die_uohm)?,
            grid_nodes_per_side: r.count(
                "grid_nodes_per_side",
                d.grid_nodes_per_side,
                2,
                MAX_GRID_NODES,
            )?,
        };
        r.finish()?;

        // --- [load] -----------------------------------------------------
        let load_section = find("load");
        let mut r = Reader::new("load", load_section);
        #[derive(PartialEq, Clone, Copy)]
        enum MapKind {
            Uniform,
            Gaussian,
            Split,
        }
        let map = r.choice(
            "map",
            MapKind::Gaussian,
            "uniform, gaussian, split",
            |s| match s {
                "uniform" => Some(MapKind::Uniform),
                "gaussian" => Some(MapKind::Gaussian),
                "split" => Some(MapKind::Split),
                _ => None,
            },
        )?;
        // Shape keys are read for every map kind (so `finish` knows
        // them), then cross-checked against the chosen kind.
        let cx = r.entry("cx").cloned();
        let cy = r.entry("cy").cloned();
        let sigma = r.entry("sigma").cloned();
        let floor = r.entry("floor").cloned();
        let left_share = r.entry("left_share").cloned();
        let misplaced = |kind: &'static str, e: &RawEntry| {
            e.key_span.err(
                format!("load.{}", e.key),
                ScenarioErrorCode::Inconsistent,
                format!("`{}` does not apply to map = \"{kind}\"", e.key),
            )
        };
        let load = match map {
            MapKind::Uniform => {
                if let Some(e) = [&cx, &cy, &sigma, &floor, &left_share]
                    .into_iter()
                    .flatten()
                    .next()
                {
                    return Err(misplaced("uniform", e));
                }
                PowerMap::Uniform
            }
            MapKind::Gaussian => {
                if let Some(e) = &left_share {
                    return Err(misplaced("gaussian", e));
                }
                let unit = |key: &'static str, e: &Option<RawEntry>, dflt: f64| match e {
                    None => Ok(dflt),
                    Some(e) => {
                        let (v, span) = r.f64_entry(key, e)?;
                        if !(0.0..=1.0).contains(&v) {
                            return Err(span.err(
                                format!("load.{key}"),
                                ScenarioErrorCode::OutOfRange,
                                format!("must lie in [0, 1], got {v}"),
                            ));
                        }
                        Ok(v)
                    }
                };
                let sigma = match &sigma {
                    None => 0.09,
                    Some(e) => {
                        let (v, span) = r.f64_entry("sigma", e)?;
                        if v <= 0.0 {
                            return Err(span.err(
                                "load.sigma",
                                ScenarioErrorCode::OutOfRange,
                                format!("must be positive, got {v}"),
                            ));
                        }
                        v
                    }
                };
                PowerMap::GaussianHotspot {
                    cx: unit("cx", &cx, 0.5)?,
                    cy: unit("cy", &cy, 0.5)?,
                    sigma,
                    floor: unit("floor", &floor, 0.32)?,
                }
            }
            MapKind::Split => {
                if let Some(e) = [&cx, &cy, &sigma, &floor].into_iter().flatten().next() {
                    return Err(misplaced("split", e));
                }
                let left_share = match &left_share {
                    None => 0.5,
                    Some(e) => {
                        let (v, span) = r.f64_entry("left_share", e)?;
                        if !(0.0..=1.0).contains(&v) {
                            return Err(span.err(
                                "load.left_share",
                                ScenarioErrorCode::OutOfRange,
                                format!("must lie in [0, 1], got {v}"),
                            ));
                        }
                        v
                    }
                };
                PowerMap::SplitHalves { left_share }
            }
        };
        r.finish()?;

        // --- [converter] ------------------------------------------------
        let converter = match find("converter") {
            None => None,
            Some(section) => {
                let mut r = Reader::new("converter", Some(section));
                let required =
                    |r: &mut Reader<'_>, key: &'static str| -> Result<(f64, Span), ScenarioError> {
                        match r.entry(key) {
                            None => Err(section.span.err(
                                format!("converter.{key}"),
                                ScenarioErrorCode::MissingKey,
                                format!("key `{key}` is required in [converter]"),
                            )),
                            Some(e) => r.f64_entry(key, e),
                        }
                    };
                let positive = |key: &'static str, (v, span): (f64, Span)| {
                    if v <= 0.0 {
                        Err(span.err(
                            format!("converter.{key}"),
                            ScenarioErrorCode::OutOfRange,
                            format!("must be positive, got {v}"),
                        ))
                    } else {
                        Ok((v, span))
                    }
                };
                let eta = |key: &'static str, (v, span): (f64, Span)| {
                    if v <= 0.0 || v >= 1.0 {
                        Err(span.err(
                            format!("converter.{key}"),
                            ScenarioErrorCode::OutOfRange,
                            format!("efficiency must lie in (0, 1), got {v}"),
                        ))
                    } else {
                        Ok((v, span))
                    }
                };
                let (v_out, _) = positive("v_out", required(&mut r, "v_out")?)?;
                let (i_peak, _) = positive("i_peak", required(&mut r, "i_peak")?)?;
                let (eta_peak, _) = eta("eta_peak", required(&mut r, "eta_peak")?)?;
                let (i_max, i_max_span) = positive("i_max", required(&mut r, "i_max")?)?;
                let (eta_max, _) = eta("eta_max", required(&mut r, "eta_max")?)?;
                if i_max <= i_peak {
                    return Err(i_max_span.err(
                        "converter.i_max",
                        ScenarioErrorCode::OutOfRange,
                        format!("i_max ({i_max}) must exceed i_peak ({i_peak})"),
                    ));
                }
                r.finish()?;
                let doc = ConverterDoc {
                    v_out,
                    i_peak,
                    eta_peak,
                    i_max,
                    eta_max,
                };
                // Feasibility backstop: the quadratic loss model must
                // actually fit through these anchors.
                if let Err(e) = EfficiencyCurve::fit(doc.anchors()) {
                    return Err(section.span.err(
                        "converter",
                        ScenarioErrorCode::Inconsistent,
                        format!("no loss curve fits these anchors: {e}"),
                    ));
                }
                Some(doc)
            }
        };

        // --- [tech.<base>] ----------------------------------------------
        let mut techs = Vec::new();
        for section in raw.sections.iter().filter(|s| s.name == "tech") {
            let sub = section.sub.as_deref().unwrap_or_default();
            let Some(base) = TechBase::parse(sub) else {
                return Err(section.span.err(
                    format!("tech.{sub}"),
                    ScenarioErrorCode::BadEnum,
                    format!(
                        "unknown technology `{sub}` (expected one of: bga, c4, tsv, \
                         micro-bump, cu-pad)"
                    ),
                ));
            };
            let path = format!("tech.{sub}");
            let mut r = Reader::new(&path, Some(section));
            let opt_pos = |r: &mut Reader<'_>, key: &'static str| match r.entry(key) {
                None => Ok(None),
                Some(e) => {
                    let (v, span) = r.f64_entry(key, e)?;
                    if v <= 0.0 {
                        return Err(span.err(
                            format!("tech.{sub}.{key}"),
                            ScenarioErrorCode::OutOfRange,
                            format!("must be positive, got {v}"),
                        ));
                    }
                    Ok(Some(v))
                }
            };
            let material = match r.entry("material") {
                None => None,
                Some(e) => {
                    let s = r.quoted("material", e)?;
                    match s {
                        "solder" => Some(ViaMaterial::Solder),
                        "copper" => Some(ViaMaterial::Copper),
                        other => {
                            return Err(e.value_span.err(
                                format!("tech.{sub}.material"),
                                ScenarioErrorCode::BadEnum,
                                format!("unknown material `{other}` (expected: solder, copper)"),
                            ));
                        }
                    }
                }
            };
            let tech = TechDoc {
                base,
                material,
                diameter_um: opt_pos(&mut r, "diameter_um")?,
                cross_section_um2: opt_pos(&mut r, "cross_section_um2")?,
                height_um: opt_pos(&mut r, "height_um")?,
                pitch_um: opt_pos(&mut r, "pitch_um")?,
                platform_area_mm2: opt_pos(&mut r, "platform_area_mm2")?,
                power_site_cap: match r.entry("power_site_cap") {
                    None => None,
                    Some(e) => {
                        let (v, span) = r.f64_entry("power_site_cap", e)?;
                        if v <= 0.0 || v > 1.0 {
                            return Err(span.err(
                                format!("tech.{sub}.power_site_cap"),
                                ScenarioErrorCode::OutOfRange,
                                format!("must lie in (0, 1], got {v}"),
                            ));
                        }
                        Some(v)
                    }
                },
            };
            // Geometry backstop through the typed vpd-package validator.
            if let Err(e) = crate::compile::compile_tech(&tech).validated() {
                return Err(section
                    .span
                    .err(path, ScenarioErrorCode::OutOfRange, e.to_string()));
            }
            r.finish()?;
            techs.push(tech);
        }

        // --- [faults] ---------------------------------------------------
        let faults = match find("faults") {
            None => None,
            Some(section) => {
                let mut r = Reader::new("faults", Some(section));
                #[derive(PartialEq, Clone, Copy)]
                enum Mode {
                    NMinusOne,
                    RandomK,
                }
                let mode = r.choice("mode", Mode::NMinusOne, "n-1, random-k", |s| match s {
                    "n-1" => Some(Mode::NMinusOne),
                    "random-k" => Some(Mode::RandomK),
                    _ => None,
                })?;
                let k = r.entry("k").cloned();
                let count = r.entry("count").cloned();
                let seed = r.entry("seed").cloned();
                let doc = match mode {
                    Mode::NMinusOne => {
                        if let Some(e) = [&k, &count, &seed].into_iter().flatten().next() {
                            return Err(e.key_span.err(
                                format!("faults.{}", e.key),
                                ScenarioErrorCode::Inconsistent,
                                format!("`{}` only applies to mode = \"random-k\"", e.key),
                            ));
                        }
                        FaultsDoc {
                            random_k: None,
                            count: 32,
                            seed: 64023,
                        }
                    }
                    Mode::RandomK => {
                        let Some(k_entry) = &k else {
                            return Err(section.span.err(
                                "faults.k",
                                ScenarioErrorCode::MissingKey,
                                "mode \"random-k\" needs a `k`",
                            ));
                        };
                        let k = r.count_entry("k", k_entry, 1, MAX_FAULT_K)?;
                        let count = match &count {
                            None => 32,
                            Some(e) => {
                                let n = r.count_entry("count", e, 1, MAX_FAULT_COUNT)?;
                                if k * n > MAX_FAULT_DRAWS {
                                    return Err(e.value_span.err(
                                        "faults.count",
                                        ScenarioErrorCode::OutOfRange,
                                        format!(
                                            "k × count is capped at {MAX_FAULT_DRAWS} fault \
                                             draws, got {k} × {n}"
                                        ),
                                    ));
                                }
                                n
                            }
                        };
                        let seed = match &seed {
                            None => 64023,
                            Some(e) => {
                                let t = r.bare("seed", e)?;
                                t.parse::<u64>().map_err(|_| {
                                    e.value_span.err(
                                        "faults.seed",
                                        ScenarioErrorCode::BadValue,
                                        format!("expects a non-negative integer, got `{t}`"),
                                    )
                                })?
                            }
                        };
                        FaultsDoc {
                            random_k: Some(k),
                            count,
                            seed,
                        }
                    }
                };
                r.finish()?;
                Some(doc)
            }
        };

        Ok(Self {
            name,
            architecture,
            topology,
            placement,
            modules,
            allow_overload,
            solve_mode,
            spec,
            calibration,
            load,
            converter,
            techs,
            faults,
        })
    }
}

fn heading(s: &RawSection) -> String {
    match &s.sub {
        Some(sub) => format!("{}.{sub}", s.name),
        None => s.name.clone(),
    }
}
