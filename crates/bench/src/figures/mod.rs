//! The paper's figures as data.
//!
//! Each module is one table or figure of the evaluation. Most are a
//! [`Body::Runs`]: a `spec` listing the [`RunSpec`]s the figure needs, and
//! a `reduce` turning their results (in the same order) into the CSV rows,
//! printing them as a table followed by the figure's comparison with the
//! paper. Table I has no runs at all: its `reduce` prints the resolved
//! machine. Fig 4 alone reads a controller's phase tracker, which no
//! [`RunResult`] carries, so it is a [`Body::Systems`] that builds its
//! systems directly.
//!
//! [`run`] is the one way to compute a figure; `baryon-cli figure --id
//! <id>|all` calls it, writes `<id>.csv` and re-renders `report.md` with
//! [`write_report`].

/// A [`Knobs`](baryon_core::Knobs) struct literal setting only the
/// named knobs, e.g. `knobs!(zero_opt: false)`; `knobs!()` is the empty
/// overlay.
macro_rules! knobs {
    ($($knob:ident: $value:expr),*) => {
        baryon_core::Knobs { $($knob: Some($value),)* ..baryon_core::Knobs::NONE }
    };
}

pub mod energy;
pub mod extra;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig9;
pub mod table1;

use crate::spec::{execute_all, RunSpec};
use crate::{csv_text, timed, Params};
use baryon_core::metrics::RunResult;
use std::fmt::Write as _;
use std::path::Path;

/// One table or figure: its id, its report blurb, its CSV header and how
/// its rows are computed.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The figure's id and CSV name (e.g. `"fig9"`).
    pub id: &'static str,
    /// The one-line description heading its `report.md` section.
    pub blurb: &'static str,
    /// The CSV header line.
    pub header: &'static str,
    /// How the rows are computed.
    pub body: Body,
}

/// How a figure computes its CSV rows.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// A list of runs and their reduction.
    Runs {
        /// The runs the figure needs.
        spec: fn(&Params) -> Vec<RunSpec>,
        /// Results (in `spec` order) to CSV rows; prints the figure.
        reduce: fn(&Params, &[RunResult]) -> Vec<String>,
    },
    /// Rows read from built systems; prints the figure.
    Systems(fn(&Params) -> Result<Vec<String>, String>),
}

/// Every table and figure, in the paper's order.
pub const ALL: [Figure; 10] = [
    table1::FIGURE,
    fig3::FIGURE,
    fig4::FIGURE,
    fig9::FIGURE,
    fig10::FIGURE,
    fig11::FIGURE,
    fig12::FIGURE,
    fig13::FIGURE,
    energy::FIGURE,
    extra::FIGURE,
];

/// Computes `figure` at `params`, printing it, and returns its CSV text.
/// A [`Body::Runs`] runs its specs through [`execute_all`].
///
/// # Errors
///
/// The first failing spec's error.
pub fn run(figure: &Figure, params: &Params) -> Result<String, String> {
    let rows = match figure.body {
        Body::Runs { spec, reduce } => {
            let specs = spec(params);
            let label = format!("{} ({} runs)", figure.id, specs.len());
            let results = timed(&label, || execute_all(&specs))?;
            reduce(params, &results)
        }
        Body::Systems(rows) => rows(params)?,
    };
    Ok(csv_text(figure.header, &rows))
}

/// Renders `dir/report.md` from the `<id>.csv` files in `dir`, one section
/// per figure of [`ALL`], and returns the ids whose CSV is missing (their
/// sections say so).
///
/// # Errors
///
/// The failure to write the report.
pub fn write_report(dir: &Path) -> std::io::Result<Vec<&'static str>> {
    let mut report = String::from(
        "# Baryon reproduction — collected results\n\n\
         Rendered by `baryon-cli figure` from the CSVs beside this file. \
         See EXPERIMENTS.md for the paper-vs-measured analysis.\n\n",
    );
    let mut missing = Vec::new();
    for figure in &ALL {
        let id = figure.id;
        let _ = writeln!(report, "## {id}\n\n{}\n", figure.blurb);
        match std::fs::read_to_string(dir.join(format!("{id}.csv"))) {
            Ok(csv) => {
                let _ = writeln!(report, "{}", csv_to_markdown(&csv));
            }
            Err(_) => {
                missing.push(id);
                let _ = writeln!(
                    report,
                    "*(not yet generated — run `baryon-cli figure --id {id}`)*\n"
                );
            }
        }
    }
    std::fs::write(dir.join("report.md"), report)?;
    Ok(missing)
}

/// A CSV document as a markdown table; short rows are padded.
fn csv_to_markdown(csv: &str) -> String {
    let mut out = String::new();
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let Some(header) = lines.next() else {
        return "(empty)\n".to_owned();
    };
    let cols = header.split(',').count();
    let fmt_row = |line: &str| {
        let mut cells: Vec<&str> = line.split(',').collect();
        cells.resize(cols, "");
        format!("| {} |", cells.join(" | "))
    };
    let _ = writeln!(out, "{}", fmt_row(header));
    let _ = writeln!(out, "|{}", "---|".repeat(cols));
    for line in lines {
        let _ = writeln!(out, "{}", fmt_row(line));
    }
    out
}

/// Prints CSV `rows` under `header` as right-aligned columns.
fn print_table(header: &str, rows: &[String]) {
    let cells: Vec<Vec<&str>> = std::iter::once(header)
        .chain(rows.iter().map(String::as_str))
        .map(|row| row.split(',').collect())
        .collect();
    let mut widths = Vec::new();
    for row in &cells {
        widths.resize(widths.len().max(row.len()), 0);
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!();
    for row in &cells {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Takes the next result of a figure's run list.
fn next<'a>(results: &mut std::slice::Iter<'a, RunResult>) -> &'a RunResult {
    results.next().expect("one result per spec")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_renders_as_table() {
        let md = csv_to_markdown("a,b\n1,2\n3,4\n");
        assert!(md.starts_with("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 3 | 4 |"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let md = csv_to_markdown("a,b,c\n1\n");
        assert!(md.contains("| 1 |  |  |"));
    }

    #[test]
    fn empty_csv_is_marked() {
        assert_eq!(csv_to_markdown(""), "(empty)\n");
    }
}
