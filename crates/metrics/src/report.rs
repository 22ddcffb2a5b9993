//! Minimal table formatting for the experiment reports emitted by the
//! reproduction harness (`fg-bench`'s `repro` binary).

/// A simple rectangular table rendered to GitHub-flavoured Markdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Table title (rendered as a heading).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each row should have `headers.len()` cells (short rows are padded).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let cols = self.headers.len().max(1);
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push('|');
        for h in &self.headers {
            out.push_str(&format!(" {h} |"));
        }
        out.push_str("\n|");
        for _ in 0..cols {
            out.push_str(" --- |");
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for c in 0..cols {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                out.push_str(&format!(" {cell} |"));
            }
            out.push('\n');
        }
        out
    }

    /// Render as comma-separated values (header row included).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with three significant decimals, trimming trailing noise —
/// good enough for the report tables.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Demo", &["system", "time (s)"]);
        t.push_row(["Ligra", "10.0"]);
        t.push_row(["ForkGraph", "0.5"]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| system | time (s) |"));
        assert!(md.contains("| ForkGraph | 0.5 |"));
        assert_eq!(md.matches("| --- |").count(), 1);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.push_row(["1"]);
        let md = t.to_markdown();
        assert!(md.contains("| 1 |  |  |"));
    }

    #[test]
    fn csv_rendering() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.7), "1235");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(0.01234), "0.0123");
    }
}
