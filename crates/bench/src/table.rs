//! Plain-text tables in the style of the paper's Figure 1, printed by the
//! `repro` binary.

use crate::engine::TrialStats;
use std::fmt;

/// Renders a mean for a "measured" column: the exact integer for a single
/// trial (preserving the historical single-measurement tables), one
/// decimal once trials are aggregated.
pub fn mean_cell(stats: &TrialStats) -> String {
    if stats.trials == 1 {
        format!("{:.0}", stats.mean)
    } else {
        format!("{:.1}", stats.mean)
    }
}

/// Renders a 95% confidence-interval column: `±h` half-width (empty-ish
/// `±0.0` for a single trial, which carries no spread information).
pub fn ci_cell(stats: &TrialStats) -> String {
    format!("±{:.1}", stats.ci95)
}

/// A titled, aligned text table with footnotes.
///
/// # Examples
///
/// ```
/// use amac_bench::table::Table;
///
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(["1", "2"]);
/// t.note("y = 2x");
/// let s = t.to_string();
/// assert!(s.contains("demo"));
/// assert!(s.contains("y = 2x"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Appends a footnote line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Table {
        self.notes.push(note.into());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The footnotes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as GitHub-flavoured markdown (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n*{note}*\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("title", &["a", "long-header"]);
        t.row(["1", "2"]);
        t.row(["100", "20000"]);
        let s = t.to_string();
        assert!(s.contains("== title =="));
        assert!(s.lines().count() >= 4);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cells_render_single_and_multi_trial() {
        let one = TrialStats::single(328.0);
        assert_eq!(mean_cell(&one), "328");
        assert_eq!(ci_cell(&one), "±0.0");
        let mut agg = amac_sim::stats::Aggregate::new();
        for x in [100.0, 120.0, 140.0] {
            agg.record(x);
        }
        let many = TrialStats::from_aggregate(&agg);
        assert_eq!(mean_cell(&many), "120.0");
        assert!(ci_cell(&many).starts_with('±'));
    }

    #[test]
    fn markdown_has_separator_row() {
        let mut t = Table::new("m", &["x", "y"]);
        t.row(["1", "2"]);
        t.note("hello");
        let md = t.to_markdown();
        assert!(md.contains("| x | y |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("*hello*"));
    }
}
