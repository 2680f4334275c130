//! Fixed-width report tables.
//!
//! Every table/figure harness renders its result through [`Table`] so
//! the output looks like the paper's tables, prints to stdout, and is
//! also persisted under `target/experiments/` for EXPERIMENTS.md.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "table {:?}: row with {} cells vs {} headers",
            self.title,
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Add a free-text footnote.
    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_string());
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows added so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The footnotes added so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for i in 0..cols {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = widths[i] - cell.chars().count();
                s.push(' ');
                s.push_str(cell);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            out.push_str(&s);
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let sep: String = {
            let mut s = String::from("|");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('|');
            }
            s
        };
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Print to stdout and persist to `target/experiments/<name>.txt`.
    ///
    /// IO failures are reported to stderr but do not abort the
    /// experiment (the stdout copy still exists).
    pub fn emit(&self, name: &str) {
        let rendered = self.render();
        println!("{rendered}");
        let dir = output_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// Directory where experiment outputs are persisted: the workspace's
/// `target/experiments/`, whatever the working directory — `cargo
/// bench` starts a target in its package directory, `cargo run` where
/// it was typed — because it is resolved from where this crate was
/// compiled, two levels below the workspace root.
pub fn output_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Method", "Acc"]);
        t.row(&["BLINK", "20.82"].map(String::from));
        t.row(&["MetaBLINK", "39.14"].map(String::from));
        t.note("higher is better");
        let r = t.render();
        assert!(r.contains("== Demo =="));
        assert!(r.contains("| Method    | Acc   |"));
        assert!(r.contains("| MetaBLINK | 39.14 |"));
        assert!(r.contains("note: higher is better"));
        // All body lines have the same width.
        let widths: std::collections::HashSet<usize> =
            r.lines().filter(|l| l.starts_with('|')).map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row with")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("X", &["A", "B"]);
        t.row(&["only one"].map(String::from));
    }

    #[test]
    fn emit_writes_file() {
        let mut t = Table::new("EmitTest", &["A"]);
        t.row(&["1"].map(String::from));
        t.emit("unit_test_emit");
        let path = output_dir().join("unit_test_emit.txt");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("EmitTest"));
        std::fs::remove_file(path).ok();
    }
}
