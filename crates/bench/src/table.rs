//! The one table type every `paper_tables` section returns, and the one
//! formatter that prints it.
//!
//! A row keeps its exact cells (counts, bytes, outcomes — the same on
//! every run) apart from its wall-clock cells, so a test can assert the
//! first and ignore the second.

use std::fmt;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An exact count.
    Int(u64),
    /// A number printed at a fixed number of decimals.
    Real(f64, usize),
    /// A label, a flag or a list.
    Text(String),
}

impl Cell {
    /// One count per slot: the count when every slot agrees, their mean
    /// to one decimal when they differ.
    pub fn per_slot(xs: &[u64]) -> Cell {
        match xs.split_first() {
            Some((&first, rest)) if rest.iter().all(|&x| x == first) => Cell::Int(first),
            _ => Cell::Real(crate::mean(xs), 1),
        }
    }

    /// Wall-clock seconds.
    pub fn secs(s: f64) -> Cell {
        Cell::Real(s, 4)
    }
}

impl From<u64> for Cell {
    fn from(x: u64) -> Cell {
        Cell::Int(x)
    }
}

impl From<usize> for Cell {
    fn from(x: usize) -> Cell {
        Cell::Int(x as u64)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Text(b.to_string())
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(x) => write!(f, "{x}"),
            Cell::Real(x, decimals) => write!(f, "{x:.decimals$}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

/// One row: exact cells, then wall-clock cells.
#[derive(Debug, Clone)]
struct Row {
    /// Cells that are the same on every run.
    exact: Vec<Cell>,
    /// Cells measured on the clock.
    wall: Vec<Cell>,
}

/// A titled table with the paper claim it reproduces.
#[derive(Debug, Clone)]
pub struct Table {
    /// What the table measures.
    pub title: String,
    /// The one-line paper claim the table reproduces.
    pub claim: &'static str,
    /// Names of the exact columns.
    columns: Vec<&'static str>,
    /// Names of the wall-clock columns, printed after the exact ones.
    wall_columns: Vec<&'static str>,
    /// The rows, top to bottom; each has one cell per column.
    rows: Vec<Row>,
}

impl Table {
    /// An empty table.
    pub fn new(
        title: impl Into<String>,
        claim: &'static str,
        columns: &[&'static str],
        wall_columns: &[&'static str],
    ) -> Table {
        Table {
            title: title.into(),
            claim,
            columns: columns.to_vec(),
            wall_columns: wall_columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if either part has the wrong number of cells.
    pub fn push(&mut self, exact: Vec<Cell>, wall: Vec<Cell>) {
        assert_eq!(
            exact.len(),
            self.columns.len(),
            "{}: exact cells",
            self.title
        );
        assert_eq!(
            wall.len(),
            self.wall_columns.len(),
            "{}: wall cells",
            self.title
        );
        self.rows.push(Row { exact, wall });
    }

    /// The exact cells of column `name`, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if the table has no exact column `name`.
    pub fn column(&self, name: &str) -> Vec<Cell> {
        let i = self
            .columns
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("{}: no exact column `{name}`", self.title));
        self.rows.iter().map(|r| r.exact[i].clone()).collect()
    }

    /// Column `name` as counts.
    ///
    /// # Panics
    ///
    /// Panics unless every cell of the column is a count (a per-slot
    /// column whose slots disagree holds their mean, not a count).
    pub fn ints(&self, name: &str) -> Vec<u64> {
        self.column(name)
            .into_iter()
            .map(|c| match c {
                Cell::Int(x) => x,
                other => panic!("{}: `{name}` holds {other:?}, not a count", self.title),
            })
            .collect()
    }

    /// The table as text: title, claim, header, rule, rows.
    pub fn render(&self) -> String {
        let header = self
            .columns
            .iter()
            .chain(&self.wall_columns)
            .map(|c| c.to_string());
        let mut lines: Vec<Vec<String>> = vec![header.collect()];
        for r in &self.rows {
            lines.push(r.exact.iter().chain(&r.wall).map(Cell::to_string).collect());
        }
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let rule = "-".repeat(
            widths
                .iter()
                .map(|w| w + 2)
                .sum::<usize>()
                .saturating_sub(2),
        );
        let mut out = format!("=== {} ===\npaper claim: {}\n\n", self.title, self.claim);
        for (k, line) in lines.iter().enumerate() {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            out += &(cells.join("  ") + "\n");
            if k == 0 {
                out += &(rule.clone() + "\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_slot_is_a_count_only_when_every_slot_agrees() {
        assert_eq!(Cell::per_slot(&[47, 47, 47]), Cell::Int(47));
        assert_eq!(Cell::per_slot(&[61, 69, 77]), Cell::Real(69.0, 1));
        assert_eq!(Cell::per_slot(&[61, 69, 77]).to_string(), "69.0");
    }

    #[test]
    fn render_aligns_every_column_to_its_widest_cell() {
        let mut t = Table::new("t", "c", &["m", "label"], &["wall s"]);
        t.push(vec![16usize.into(), "Δ".into()], vec![Cell::secs(0.5)]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..3], ["=== t ===", "paper claim: c", ""]);
        assert_eq!(lines[3], " m  label  wall s");
        assert_eq!(lines[4], "-".repeat(17));
        assert_eq!(lines[5], "16      Δ  0.5000");
        assert_eq!(t.ints("m"), [16]);
    }
}
