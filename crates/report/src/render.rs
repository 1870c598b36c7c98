//! The unified report-rendering contract behind the CLI's `--format`
//! flag: every report type renders itself as one [`Json`] document, and
//! text is the view of that document ([`Json::to_text`]), so the two
//! formats cannot disagree.

use crate::json::Json;
use std::str::FromStr;

/// Output format selector (the CLI's global `--format` flag).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RenderFormat {
    /// The text view of the document (the default).
    #[default]
    Text,
    /// One machine-readable JSON document.
    Json,
}

impl FromStr for RenderFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            other => Err(format!("unknown format '{other}' (expected text|json)")),
        }
    }
}

/// A report that renders itself as a JSON tree, so callers can embed it
/// in a larger document (every result document wraps its reports with
/// command and architecture context) before serializing or viewing it
/// as text.
pub trait Render {
    /// Machine-readable rendering as a JSON value.
    fn render_json(&self) -> Json;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parses_and_defaults() {
        assert_eq!("text".parse::<RenderFormat>().unwrap(), RenderFormat::Text);
        assert_eq!("json".parse::<RenderFormat>().unwrap(), RenderFormat::Json);
        assert!("yaml".parse::<RenderFormat>().is_err());
        assert_eq!(RenderFormat::default(), RenderFormat::Text);
    }
}
