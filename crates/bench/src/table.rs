//! Plain-text table rendering for the experiment binaries.
//!
//! Each harness binary prints one table whose rows correspond to the x-axis
//! points of the figure it regenerates, so the output can be compared line by
//! line with the paper (and pasted into BENCHMARKS.md). With `--json <path>`
//! every printed table is also appended to `path` as one JSON line, `{"title": …, "headers": […], "rows": [[…], …]}`.

use serde::Serialize;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Where [`Table::print`] appends JSON lines, if anywhere.
static JSON_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Makes every later [`Table::print`] of this process also append its table
/// to `path` as one JSON line. The first registered path wins.
pub(crate) fn set_json_path(path: &Path) {
    let _ = JSON_PATH.set(path.to_path_buf());
}

/// A simple left-aligned text table.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are converted to strings by the caller).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// The table as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a table of strings serializes")
    }

    /// Prints the table to stdout and, when a JSON path is registered
    /// (`--json`), appends [`Table::to_json`] to that file. A file
    /// that cannot be opened or written ends the process with a message and
    /// exit code 2, like a malformed flag.
    pub fn print(&self) {
        println!("{}", self.render());
        if let Some(path) = JSON_PATH.get() {
            let appended = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| writeln!(file, "{}", self.to_json()));
            if let Err(e) = appended {
                eprintln!("cannot append a table to {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Fig X", &["pattern", "time (ms)"]);
        assert!(t.is_empty());
        t.row(vec!["P(4,4,3)".into(), "12.5".into()]);
        t.row(vec!["P(10,10,3)".into(), "3".into()]);
        assert_eq!(t.len(), 2);
        let text = t.render();
        assert!(text.contains("== Fig X =="));
        assert!(text.contains("P(4,4,3)"));
        let lines: Vec<&str> = text.lines().collect();
        // Header, separator and two rows after the title line.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn json_line_holds_title_headers_and_rows() {
        let mut t = Table::new("Fig \"X\"", &["a", "b"]);
        t.row(vec!["1".into(), "x, y".into()]);
        assert_eq!(
            t.to_json(),
            r#"{"title":"Fig \"X\"","headers":["a","b"],"rows":[["1","x, y"]]}"#
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
