//! The paper's figures as data.
//!
//! Each module is one figure. Its `spec` lists the [`RunSpec`]s the figure
//! needs, and its `reduce` turns their results (in the same order) into
//! the CSV rows, printing them as a table followed by the figure's
//! comparison with the paper. A [`Figure`] bundles the two, and
//! [`Figure::main`] is the whole of a `cargo bench` target. Fig 4 alone
//! reads a controller's phase tracker, which no [`RunResult`] carries, so
//! [`fig4`] builds its systems directly.

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

use crate::spec::{execute_all, RunSpec};
use crate::{banner, timed, write_csv, Params};
use baryon_core::metrics::RunResult;

/// One figure: its runs, its reduction and its CSV header.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The bench target and CSV name (e.g. `"fig9"`).
    pub id: &'static str,
    /// The banner title.
    pub title: &'static str,
    /// The CSV header line.
    pub header: &'static str,
    /// The runs the figure needs.
    pub spec: fn(&Params) -> Vec<RunSpec>,
    /// Results (in `spec` order) to CSV rows; prints the figure.
    pub reduce: fn(&Params, &[RunResult]) -> Vec<String>,
}

/// Every figure that is a pure list of runs, in the paper's order.
pub const ALL: [Figure; 8] = [
    fig3::FIGURE,
    fig9::FIGURE,
    fig10::FIGURE,
    fig11::FIGURE,
    fig12::FIGURE,
    fig13::FIGURE,
    energy::FIGURE,
    extra::FIGURE,
];

impl Figure {
    /// Runs the figure's specs through [`execute_all`] and reduces them.
    ///
    /// # Errors
    ///
    /// The first failing spec's error.
    pub fn rows(&self, params: &Params) -> Result<Vec<String>, String> {
        let specs = (self.spec)(params);
        let results = timed(&format!("{} ({} runs)", self.id, specs.len()), || {
            execute_all(&specs)
        })?;
        Ok((self.reduce)(params, &results))
    }

    /// The bench target: reads [`Params::from_env`], prints the figure and
    /// writes its CSV.
    ///
    /// # Panics
    ///
    /// Panics when a run fails.
    pub fn main(&self) {
        bench_main(self.id, self.title, self.header, |p| self.rows(p));
    }
}

/// A bench target's body: reads [`Params::from_env`], prints the banner,
/// computes the figure's CSV rows and writes them.
///
/// # Panics
///
/// Panics when `rows` fails.
fn bench_main(
    id: &str,
    title: &str,
    header: &str,
    rows: impl FnOnce(&Params) -> Result<Vec<String>, String>,
) {
    let params = Params::from_env();
    banner(id, title);
    let rows = rows(&params).unwrap_or_else(|e| panic!("{id}: {e}"));
    write_csv(id, header, &rows);
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
