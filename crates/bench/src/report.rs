//! Plain-text table rendering and JSON output for the `repro` harness.

use std::fmt::Write as _;

use kishu_testkit::json::Json;

/// A rendered experiment: a title, column headers, and rows of cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Paper artifact this regenerates (e.g. `"Fig 13"`).
    pub artifact: String,
    /// What the table shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (stringified values; `FAIL` for failures).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (shape checks, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(artifact: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            artifact: artifact.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.artifact, self.title);
        let line = |out: &mut String, cells: &[String], widths: &[usize]| {
            let mut parts = Vec::with_capacity(cells.len());
            for (cell, w) in cells.iter().zip(widths) {
                parts.push(format!("{cell:<w$}"));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.columns, &widths);
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row, &widths);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// JSON form used by `repro --json` and the checked-in baseline.
    pub fn to_json(&self) -> Json {
        let strings = |xs: &[String]| Json::Array(xs.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj(vec![
            ("artifact", Json::Str(self.artifact.clone())),
            ("title", Json::Str(self.title.clone())),
            ("columns", strings(&self.columns)),
            (
                "rows",
                Json::Array(self.rows.iter().map(|r| strings(r)).collect()),
            ),
            ("notes", strings(&self.notes)),
        ])
    }
}

/// The verdict on an experiment's declared floor or ceiling: `Ok(line)`
/// when `holds`, else `Err(line)`; `repro` prints it and exits 1 on `Err`.
pub fn floor_verdict(holds: bool, line: String) -> Result<String, String> {
    if holds {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GiB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2} MiB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KiB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

/// Format a duration in engineering units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Fig X", "demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("| long-name | 22"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new("T", "demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn table_serializes_to_json() {
        let mut t = Table::new("Fig X", "demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.note("n");
        let json = t.to_json();
        assert_eq!(json.get("artifact").and_then(Json::as_str), Some("Fig X"));
        let rows = json.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), 1);
        // Round-trips through the parser.
        let back = Json::parse(&json.dump()).expect("parses");
        assert_eq!(back.dump(), json.dump());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 * 1024 * 1024).contains("MiB"));
        assert!(fmt_duration(std::time::Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(std::time::Duration::from_secs(2)).contains("s"));
    }
}
