//! Point-in-time metric snapshots and their NDJSON serialization.
//!
//! The workspace is std-only, so the JSON here is hand-emitted: one
//! object per snapshot, one line per object in the NDJSON sink. Schema:
//!
//! ```json
//! {"label":"mc","counters":{"cg.iterations":1234,...},
//!  "gauges":{"mc.samples_per_sec":2120.4,...},
//!  "histograms":{"mc.run_ns":{"count":1,"sum":94000000,
//!                "buckets":[[134217727,1]]}}}
//! ```
//!
//! Histogram `buckets` lists only non-empty buckets as
//! `[upper_bound, count]` pairs. Non-finite gauge values serialize as
//! `null` so every emitted line stays strict JSON.

use crate::registry::{bucket_upper_bound, registry, HISTOGRAM_BUCKETS};
use std::io::Write;

/// An immutable copy of every registered metric, in sorted name order.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricsSnapshot {
    /// Counter values as `(name, count)`.
    pub counters: Vec<(String, u64)>,
    /// Gauge values as `(name, value)`.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
}

/// One histogram's state inside a [`MetricsSnapshot`].
#[derive(Clone, PartialEq, Debug)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes the snapshot as one single-line JSON object with the
    /// given `label` (typically the command or phase that produced it).
    #[must_use]
    pub fn to_json(&self, label: &str) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"label\":");
        push_json_string(&mut out, label);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            push_json_number(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &h.name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (j, (bound, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bound},{count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Captures the current value of every registered metric. The capture
/// is per-metric atomic (each cell is read once), not cross-metric
/// atomic — concurrent recording may land between reads.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|(&name, c)| (name.to_owned(), c.get()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|(&name, g)| (name.to_owned(), g.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|(&name, h)| HistogramSnapshot {
            name: name.to_owned(),
            count: h.count(),
            sum: h.sum(),
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter_map(|i| {
                    let c = h.bucket(i).unwrap_or(0);
                    (c > 0).then(|| (bucket_upper_bound(i), c))
                })
                .collect(),
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Appends `snapshot` as one NDJSON line to the file at `path`,
/// creating it if needed.
///
/// # Errors
///
/// Any I/O error from opening or writing the file.
pub fn append_ndjson(
    path: &std::path::Path,
    label: &str,
    snapshot: &MetricsSnapshot,
) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(snapshot.to_json(label).as_bytes())?;
    file.write_all(b"\n")
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `f64::to_string` round-trips (shortest representation), but JSON has
/// no NaN/Infinity — those become `null`.
fn push_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::lock;
    use crate::{gauge_set, incr, observe, reset, set_enabled};

    #[test]
    fn snapshot_json_is_well_formed() {
        let _gate = lock();
        set_enabled(true);
        reset();
        incr("json.counter");
        gauge_set("json.gauge", 2.5);
        gauge_set("json.nan", f64::NAN);
        observe("json.hist", 3);
        let snap = snapshot();
        set_enabled(false);
        let line = snap.to_json("unit \"test\"");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"label\":\"unit \\\"test\\\"\""));
        assert!(line.contains("\"json.counter\":1"));
        assert!(line.contains("\"json.gauge\":2.5"));
        assert!(line.contains("\"json.nan\":null"));
        assert!(line.contains("\"json.hist\":{\"count\":1,\"sum\":3,\"buckets\":[[3,1]]}"));
    }

    #[test]
    fn snapshot_names_are_sorted() {
        let _gate = lock();
        set_enabled(true);
        reset();
        incr("sort.b");
        incr("sort.a");
        let snap = snapshot();
        set_enabled(false);
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn ndjson_sink_appends_lines() {
        let _gate = lock();
        set_enabled(true);
        reset();
        incr("ndjson.counter");
        let snap = snapshot();
        set_enabled(false);
        let path = std::env::temp_dir().join(format!("vpd_obs_test_{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_ndjson(&path, "first", &snap).unwrap();
        append_ndjson(&path, "second", &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"label\":\"first\""));
        assert!(lines[1].contains("\"label\":\"second\""));
    }
}
