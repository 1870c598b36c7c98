//! Output checks. Every served record is compared byte for byte with
//! the same commit's cold oracle: a zero-capacity `Dispatcher` fed the
//! identical generated line. Only `result` bytes are compared;
//! `cached`, ids, `stats` and timings never are.

use std::collections::HashMap;

use vpd_report::Json;
use vpd_serve::{Dispatcher, Request, Work};

use crate::gen::Input;

/// The `result` bytes of every record the program emits for one
/// request: one for a plain request, the chunks and then the summary
/// for a `transient_stream`.
pub type Expected = Vec<String>;

pub fn expected_for(dispatcher: &Dispatcher, input: &Input) -> Result<Expected, String> {
    let req = Request::parse_line(&input.line(0)).map_err(|e| {
        format!(
            "oracle rejects the line: {}: {}",
            e.code.as_str(),
            e.message
        )
    })?;
    let engine = |(code, msg): (vpd_serve::ErrorCode, String)| {
        format!("oracle error {}: {msg}", code.as_str())
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
            Ok(out)
        }
        work => dispatcher
            .dispatch(&work)
            .map(|(doc, _cached)| vec![doc.to_string()])
            .map_err(engine),
    }
}

/// A memoizing cold oracle keyed by request body.
pub struct Oracle {
    cold: Dispatcher,
    memo: HashMap<String, Result<Expected, String>>,
}

impl Oracle {
    pub fn new() -> Self {
        Self {
            cold: Dispatcher::new(0),
            memo: HashMap::new(),
        }
    }

    pub fn expected(&mut self, input: &Input) -> Result<&Expected, &String> {
        if !self.memo.contains_key(&input.body) {
            let e = expected_for(&self.cold, input);
            self.memo.insert(input.body.clone(), e);
        }
        self.memo[&input.body].as_ref()
    }
}

/// The fields of one response line the checks read. The wire form is
/// fixed by `Response::to_json`: `id`, `version`, `ok`, then `kind`,
/// `cached`, the stream fields `done` and `seq`, and `result` last.
#[derive(Debug, PartialEq)]
pub struct Record<'a> {
    pub id: Option<i64>,
    pub ok: bool,
    pub done: Option<bool>,
    pub seq: Option<usize>,
    pub result: Option<&'a str>,
}

fn take_bool(s: &str) -> Option<(bool, &str)> {
    s.strip_prefix("true")
        .map(|r| (true, r))
        .or_else(|| s.strip_prefix("false").map(|r| (false, r)))
}

fn take_until(s: &str, stop: char) -> Option<(&str, &str)> {
    let at = s.find(stop)?;
    Some((&s[..at], &s[at + stop.len_utf8()..]))
}

/// Reads a response line, or `None` when it does not have the
/// protocol-v2 shape.
pub fn parse_record(line: &str) -> Option<Record<'_>> {
    let rest = line.strip_prefix("{\"id\":")?;
    let (id, rest) = take_until(rest, ',')?;
    let id = if id == "null" {
        None
    } else {
        Some(id.parse().ok()?)
    };
    let rest = rest.strip_prefix("\"version\":2,\"ok\":")?;
    let (ok, rest) = take_bool(rest)?;
    if !ok {
        return Some(Record {
            id,
            ok,
            done: None,
            seq: None,
            result: None,
        });
    }
    let rest = rest.strip_prefix(",\"kind\":\"")?;
    let (_kind, rest) = take_until(rest, '"')?;
    let rest = rest.strip_prefix(",\"cached\":")?;
    let (_cached, mut rest) = take_bool(rest)?;
    let (mut done, mut seq) = (None, None);
    if let Some(r) = rest.strip_prefix(",\"done\":") {
        let (d, r) = take_bool(r)?;
        let r = r.strip_prefix(",\"seq\":")?;
        let (n, r) = take_until(r, ',')?;
        done = Some(d);
        seq = Some(n.parse().ok()?);
        rest = r;
        rest = rest.strip_prefix("\"result\":")?;
    } else {
        rest = rest.strip_prefix(",\"result\":")?;
    }
    let result = rest.strip_suffix('}')?;
    Some(Record {
        id,
        ok,
        done,
        seq,
        result: Some(result),
    })
}

/// Checks the records one request produced (in arrival order) against
/// the oracle's.
pub fn check_records(records: &[String], expected: &Expected) -> Result<(), String> {
    if records.len() != expected.len() {
        return Err(format!(
            "{} records, oracle has {}",
            records.len(),
            expected.len()
        ));
    }
    let streamed = expected.len() > 1;
    for (i, (line, want)) in records.iter().zip(expected).enumerate() {
        let rec = parse_record(line).ok_or_else(|| format!("malformed record: {line:.120}"))?;
        if !rec.ok {
            return Err(format!("error response: {line:.200}"));
        }
        if streamed && (rec.seq != Some(i) || rec.done != Some(i + 1 == expected.len())) {
            return Err(format!("stream record {i} out of order: {line:.120}"));
        }
        if !streamed && rec.done.is_some() {
            return Err(format!("unexpected stream record: {line:.120}"));
        }
        if rec.result != Some(want.as_str()) {
            return Err(format!("record {i} differs from the cold oracle"));
        }
    }
    Ok(())
}

/// Paper Fig. 7 anchor: the cold oracle's `analyze` DSCH loss at 1 kW
/// and 2 A/mm² must print the published percentages at one decimal.
pub fn fig7_anchor(dispatcher: &Dispatcher) -> Result<(), String> {
    for (arch, want) in [
        ("a0", "43.3"),
        ("a1", "18.5"),
        ("a2", "20.9"),
        ("a3-12", "22.8"),
        ("a3-6", "24.3"),
    ] {
        let line = format!(
            "{{\"kind\":\"analyze\",\"params\":{{\"arch\":\"{arch}\",\"topology\":\"dsch\"}}}}"
        );
        let work = Request::parse_line(&line).map_err(|e| e.message)?.work;
        let (doc, _) = dispatcher.dispatch(&work).map_err(|(_, m)| m)?;
        let got = doc
            .get("breakdown")
            .and_then(|b| b.get("total_loss_percent"))
            .and_then(Json::as_f64)
            .ok_or("analyze result has no total_loss_percent")?;
        if format!("{got:.1}") != want {
            return Err(format!(
                "Fig. 7 {arch}: loss {got:.3} % does not print {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_stream_and_error_records() {
        let plain = r#"{"id":4,"version":2,"ok":true,"kind":"analyze","cached":false,"result":{"a":[1,2]}}"#;
        let r = parse_record(plain).unwrap();
        assert_eq!(r.id, Some(4));
        assert_eq!(r.result, Some(r#"{"a":[1,2]}"#));
        assert_eq!(r.done, None);
        let chunk = r#"{"id":5,"version":2,"ok":true,"kind":"transient_stream","cached":true,"done":false,"seq":3,"result":{"x":1}}"#;
        let r = parse_record(chunk).unwrap();
        assert_eq!(
            (r.done, r.seq, r.result),
            (Some(false), Some(3), Some(r#"{"x":1}"#))
        );
        let err = r#"{"id":null,"version":2,"ok":false,"error":{"code":"parse","message":"x"}}"#;
        let r = parse_record(err).unwrap();
        assert!(!r.ok && r.id.is_none());
        assert!(parse_record(r#"{"id":1,"version":3,"ok":true}"#).is_none());
    }

    #[test]
    fn served_records_match_the_cold_oracle() {
        let input = crate::gen::campaign(3)
            .into_iter()
            .find(|i| i.kind == "transient_stream")
            .unwrap();
        let cold = Dispatcher::new(0);
        let expected = expected_for(&cold, &input).unwrap();
        assert!(expected.len() > 1);
        let (out, _) = vpd_serve::serve_lines(
            std::io::Cursor::new(input.line(9) + "\n"),
            Vec::new(),
            &vpd_serve::ServeConfig::default(),
        )
        .unwrap();
        let records: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        check_records(&records, &expected).unwrap();
        let mut tampered = records.clone();
        tampered.swap(0, 1);
        assert!(check_records(&tampered, &expected).is_err());
        assert!(check_records(&records[..1], &expected).is_err());
    }

    #[test]
    fn fig7_anchor_holds() {
        fig7_anchor(&Dispatcher::new(0)).unwrap();
    }
}
