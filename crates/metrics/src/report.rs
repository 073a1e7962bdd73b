//! Plain-text and CSV rendering of experiment results.
//!
//! Every experiment in `grass-experiments` produces a [`Table`]: a titled grid of rows
//! and columns mirroring one figure or table of the paper. The `repro` binary prints
//! these as aligned text; benches and tests consume the numeric cells directly.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A cell value: either a number (rendered with one decimal), free text, or a
/// missing/not-applicable value (rendered as `n/a`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// Numeric cell.
    Number(f64),
    /// Text cell.
    Text(String),
    /// Missing value.
    Empty,
}

impl Cell {
    /// Numeric value, if this is a number cell.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Cell::Number(v) => Some(*v),
            _ => None,
        }
    }

    fn render(&self) -> String {
        match self {
            Cell::Number(v) => format!("{v:.1}"),
            Cell::Text(s) => s.clone(),
            Cell::Empty => "n/a".to_string(),
        }
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Number(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

/// A titled table of results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. "Figure 5a: Facebook workload, Hadoop, deadline-bound").
    pub title: String,
    /// Column headers; the first column is the row label.
    pub columns: Vec<String>,
    /// Rows: a label plus one cell per non-label column.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, columns: Vec<&str>) -> Self {
        Table {
            title: title.into(),
            columns: columns.into_iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<Cell>) {
        self.rows.push((label.into(), cells));
    }

    /// Look up a cell by row label and column name.
    pub fn cell(&self, row: &str, column: &str) -> Option<&Cell> {
        let col_idx = self.columns.iter().position(|c| c == column)?;
        if col_idx == 0 {
            return None;
        }
        let (_, cells) = self.rows.iter().find(|(label, _)| label == row)?;
        cells.get(col_idx - 1)
    }

    /// Numeric value of a cell, if present.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        self.cell(row, column)?.as_number()
    }

    /// Render as aligned plain text.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered_rows: Vec<(String, Vec<String>)> = self
            .rows
            .iter()
            .map(|(label, cells)| (label.clone(), cells.iter().map(Cell::render).collect()))
            .collect();
        for (label, cells) in &rendered_rows {
            if let Some(w) = widths.first_mut() {
                *w = (*w).max(label.len());
            }
            for (i, c) in cells.iter().enumerate() {
                if let Some(w) = widths.get_mut(i + 1) {
                    *w = (*w).max(c.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{:<width$}", c, width = w))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for (label, cells) in &rendered_rows {
            let label_width = widths.first().copied().unwrap_or(0);
            let mut fields = vec![format!("{:<width$}", label, width = label_width)];
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i + 1).copied().unwrap_or(8);
                fields.push(format!("{:>width$}", c, width = w));
            }
            out.push_str(&fields.join("  "));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for (label, cells) in &self.rows {
            let mut fields = vec![label.clone()];
            fields.extend(cells.iter().map(Cell::render));
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

/// A labelled series of (x, y) points — the other shape experiments produce (e.g. a
/// Hill plot or the Figure 4 sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series name.
    pub name: String,
    /// Points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// A complete experiment report: tables plus optional series, keyed by subfigure id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Identifier such as "fig5" or "table1".
    pub id: String,
    /// Tables, in presentation order.
    pub tables: Vec<Table>,
    /// Series, keyed by name.
    pub series: BTreeMap<String, Series>,
}

impl Report {
    /// New empty report.
    pub fn new(id: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            ..Default::default()
        }
    }

    /// Add a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Add a series.
    pub fn add_series(&mut self, series: Series) {
        self.series.insert(series.name.clone(), series);
    }

    /// Render everything as text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# Experiment {}\n\n", self.id));
        for t in &self.tables {
            out.push_str(&t.render_text());
            out.push('\n');
        }
        for s in self.series.values() {
            out.push_str(&format!(
                "## Series: {} ({} points)\n",
                s.name,
                s.points.len()
            ));
            for (x, y) in &s.points {
                out.push_str(&format!("  {x:>10.3}  {y:>10.3}\n"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Figure X", vec!["Job Bin", "LATE", "Mantri"]);
        t.push_row("<50", vec![Cell::Number(12.34), Cell::Number(8.0)]);
        t.push_row("51-500", vec![Cell::Number(20.0), Cell::Empty]);
        t
    }

    #[test]
    fn cell_conversions_and_rendering() {
        assert_eq!(Cell::from(3.0).as_number(), Some(3.0));
        assert_eq!(Cell::from("abc"), Cell::Text("abc".to_string()));
        assert_eq!(Cell::from("x".to_string()).as_number(), None);
        assert_eq!(Cell::Empty.render(), "n/a");
        assert_eq!(Cell::Number(1.25).render(), "1.2");
    }

    #[test]
    fn table_lookup() {
        let t = sample_table();
        assert!((t.value("<50", "LATE").unwrap() - 12.34).abs() < 1e-12);
        assert!((t.value("<50", "Mantri").unwrap() - 8.0).abs() < 1e-12);
        assert!(t.value("51-500", "Mantri").is_none());
        assert!(t.value("missing", "LATE").is_none());
        assert!(t.value("<50", "missing").is_none());
        assert!(t.cell("<50", "Job Bin").is_none());
    }

    #[test]
    fn text_and_csv_rendering() {
        let t = sample_table();
        let text = t.render_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("<50"));
        assert!(text.contains("12.3"));
        let csv = t.render_csv();
        assert!(csv.starts_with("Job Bin,LATE,Mantri"));
        assert!(csv.contains("51-500,20.0,n/a"));
    }

    #[test]
    fn report_roundup() {
        let mut r = Report::new("fig5");
        r.add_table(sample_table());
        r.add_series(Series::new("hill", vec![(10.0, 1.3)]));
        let text = r.render_text();
        assert!(text.contains("# Experiment fig5"));
        assert!(text.contains("Series: hill"));
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.series.len(), 1);
    }
}
