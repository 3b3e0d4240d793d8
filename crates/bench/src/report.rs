//! Report rendering: each experiment yields a titled text block with
//! aligned columns, plus machine-readable key figures for tests.

use std::collections::BTreeMap;
use std::fmt;

/// One regenerated table/figure.
#[derive(Clone, Debug)]
pub struct Report {
    pub id: &'static str,
    pub title: String,
    /// Pre-rendered table body (one row per line).
    pub body: String,
    /// Machine-readable headline figures, which the claims table
    /// (`shapes.rs`) checks the paper's shapes against without re-parsing
    /// text.
    pub figures: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(id: &'static str, title: impl Into<String>) -> Report {
        Report { id, title: title.into(), body: String::new(), figures: BTreeMap::new() }
    }

    /// Append one rendered row.
    pub fn row(&mut self, line: impl AsRef<str>) {
        self.body.push_str(line.as_ref());
        self.body.push('\n');
    }

    /// Record a headline figure.
    pub fn figure(&mut self, key: &str, value: f64) {
        self.figures.insert(key.to_owned(), value);
    }

    /// Fetch a previously recorded figure (panics on typos — these are
    /// internal keys).
    pub fn get(&self, key: &str) -> f64 {
        *self.figures.get(key).unwrap_or_else(|| panic!("report {} has no figure {key:?}", self.id))
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        f.write_str(&self.body)
    }
}

/// Right-align `value` to `width` columns.
pub fn col(value: impl fmt::Display, width: usize) -> String {
    format!("{value:>width$}")
}

/// Format a float with `prec` decimals, right-aligned to `width`.
pub fn colf(value: f64, prec: usize, width: usize) -> String {
    format!("{value:>width$.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_rows_and_figures() {
        let mut r = Report::new("t", "test");
        r.row("a | b");
        r.row("c | d");
        r.figure("x", 1.5);
        assert_eq!(r.body.lines().count(), 2);
        assert_eq!(r.get("x"), 1.5);
        let rendered = r.to_string();
        assert!(rendered.starts_with("== t — test =="));
    }

    #[test]
    #[should_panic(expected = "no figure")]
    fn missing_figures_panic() {
        Report::new("t", "test").get("nope");
    }

    #[test]
    fn column_helpers_align() {
        assert_eq!(col("ab", 5), "   ab");
        assert_eq!(colf(1.23456, 2, 8), "    1.23");
    }
}
