//! Minimal JSON rendering for reports (`repro --json`).
//!
//! Hand-rolled on purpose: the offline dependency set includes `serde` but
//! not `serde_json`, and the output is a flat, fully-controlled shape —
//! `{"id": ..., "title": ..., "figures": {...}, "body": ...}`.

use smartsock_telemetry::json::escape;

use crate::report::Report;

/// Render a float as JSON (no NaN/Infinity in JSON: mapped to null).
fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest lossless-enough form.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// Serialize one report.
pub fn report_to_json(r: &Report) -> String {
    let figures: Vec<String> =
        r.figures.iter().map(|(k, v)| format!("\"{}\": {}", escape(k), number(*v))).collect();
    format!(
        "{{\"id\": \"{}\", \"title\": \"{}\", \"figures\": {{{}}}, \"body\": \"{}\"}}",
        escape(r.id),
        escape(&r.title),
        figures.join(", "),
        escape(&r.body)
    )
}

/// Serialize a batch as a JSON array.
pub fn reports_to_json(reports: &[Report]) -> String {
    let items: Vec<String> = reports.iter().map(report_to_json).collect();
    format!("[{}]", items.join(",\n "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_json_compatible() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn report_serializes_round() {
        let mut r = Report::new("t1", "a \"quoted\" title");
        r.row("line one");
        r.figure("x", 2.5);
        r.figure("y", 7.0);
        let json = report_to_json(&r);
        assert!(json.starts_with("{\"id\": \"t1\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"x\": 2.5"));
        assert!(json.contains("\"y\": 7.0"));
        assert!(json.contains("line one\\n"));
        let arr = reports_to_json(&[r.clone(), r]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }
}
