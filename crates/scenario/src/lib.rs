//! Declarative scenario documents: the `.vpd` format that turns the
//! paper's five hardcoded architectures into "any scenario a user can
//! describe".
//!
//! A document is TOML-like sectioned text — `[scenario]`, `[spec]`,
//! `[calibration]`, `[load]`, plus optional `[converter]`,
//! `[tech.<base>]`, and `[faults]` sections — parsed with per-field
//! defaults, units, and range validation into a typed [`ScenarioDoc`].
//! Every diagnostic is a [`ScenarioError`] carrying the 1-based source
//! line/column, a dotted field path, and a stable machine-readable
//! [`ScenarioErrorCode`].
//!
//! Documents **round-trip bitwise**: [`ScenarioDoc::render`] emits one
//! canonical spelling (shortest-roundtrip number formatting, fixed key
//! order, materialized defaults), parsing the rendered text yields an
//! equal document, and equal documents render byte-identically. The
//! FNV-1a hash of the canonical text ([`ScenarioDoc::content_hash`])
//! therefore keys compiled state in the `vpd-serve` scenario cache:
//! two spellings of the same scenario share one cache entry.
//!
//! [`ScenarioDoc::compile`] lowers a document into the typed structs
//! every engine already consumes ([`Scenario`]: `SystemSpec`,
//! `Calibration`, `AnalysisOptions`, fitted `EfficiencyCurve`s,
//! validated `InterconnectTech`s), and [`Scenario::session`] compiles
//! the reusable die-grid analysis session. The five builtin
//! architectures ship as checked-in documents ([`builtin_doc`]) whose
//! compiled structs are pinned bitwise against the hardcoded
//! constructors.
//!
//! ```
//! use vpd_scenario::ScenarioDoc;
//!
//! let doc = ScenarioDoc::parse(
//!     "[scenario]\narchitecture = \"a2\"\ntopology = \"3lhd\"\n",
//! )
//! .unwrap();
//! let scenario = doc.compile().unwrap();
//! assert_eq!(scenario.name, "a2");
//! // Canonical render → parse is bitwise stable.
//! assert_eq!(ScenarioDoc::parse(&doc.render()).unwrap(), doc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builtin;
mod compile;
mod doc;
mod error;
mod raw;
mod render;

pub use builtin::{builtin_doc, builtin_docs, BUILTIN_NAMES};
pub use compile::{FaultPlan, Scenario};
pub use doc::{
    default_placement, solve_mode_name, CalibDoc, ConverterDoc, FaultsDoc, ScenarioDoc, SpecDoc,
    TechBase, TechDoc, MAX_FAULT_COUNT, MAX_FAULT_DRAWS, MAX_FAULT_K, MAX_GRID_NODES, MAX_MODULES,
};
pub use error::{ScenarioError, ScenarioErrorCode};

/// 64-bit FNV-1a over a byte string — the deterministic, dependency-free
/// hash behind [`ScenarioDoc::content_hash`].
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ScenarioDoc {
    /// The document's content hash: FNV-1a 64 over the canonical
    /// rendering. Spelling-invariant (comments, key order, and number
    /// formatting differences vanish in the canonical form), so serve
    /// keys its compiled-scenario cache on this.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn equivalent_spellings_share_a_hash() {
        let terse = ScenarioDoc::parse("[scenario]\narchitecture = \"a3-12\"\n").unwrap();
        let verbose = ScenarioDoc::parse(
            "# same thing, spelled out\n[scenario]\nname = \"a3-12\"\n\
             architecture = \"a3\"\nbus_v = 12\n",
        )
        .unwrap();
        assert_eq!(terse, verbose);
        assert_eq!(terse.content_hash(), verbose.content_hash());
    }
}
