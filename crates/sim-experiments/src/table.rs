//! Tiny text-table printer for paper-style output.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are any Display).
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Format a float with 1 decimal.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format milliseconds.
pub(crate) fn ms(x: f64) -> String {
    format!("{x:.1}ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["workload", "MB/s"]);
        t.row(["seq", &f1(110.0)]);
        t.row(["random-4k", "0.45"]);
        let s = t.render();
        assert!(s.contains("workload"));
        assert!(s.contains("110.0"));
        assert!(s.contains("0.45"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
