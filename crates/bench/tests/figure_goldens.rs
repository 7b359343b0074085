//! Figure goldens: every paper figure, run through `spec → execute_all →
//! reduce` (Fig 4 through its phase-tracked systems) at small settings
//! over the full workload list, must reproduce the CSV bytes in
//! `tests/fixtures/figures/`. The fixtures were written by the figure
//! bench targets at the same settings, so a figure's data path cannot
//! drift from what its bench reports.
//!
//! Regenerate (only when a behaviour change is intended and explained in
//! the commit message):
//!
//! ```sh
//! BARYON_BLESS_GOLDENS=1 cargo test -p baryon-bench --test figure_goldens
//! ```

use baryon_bench::figures::{fig4, ALL};
use baryon_bench::{csv_text, Params};
use baryon_workloads::Scale;
use std::path::PathBuf;

const PARAMS: Params = Params {
    insts: 1_200,
    warmup: 300,
    scale: Scale { divisor: 2048 },
    quick: false,
    seed: 42,
};

fn fixture_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/figures")
        .join(format!("{id}.csv"))
}

#[test]
fn every_figure_matches_its_golden_csv() {
    let mut actual: Vec<(&str, String)> = ALL
        .iter()
        .map(|f| {
            let rows = f.rows(&PARAMS).unwrap_or_else(|e| panic!("{}: {e}", f.id));
            (f.id, csv_text(f.header, &rows))
        })
        .collect();
    let rows = fig4::rows(&PARAMS).expect("fig4 runs");
    actual.push(("fig4", csv_text(fig4::HEADER, &rows)));

    if std::env::var_os("BARYON_BLESS_GOLDENS").is_some() {
        for (id, body) in &actual {
            std::fs::write(fixture_path(id), body).expect("write golden");
        }
        eprintln!("blessed {} figure goldens", actual.len());
        return;
    }

    let mut diffs = Vec::new();
    for (id, body) in &actual {
        let path = fixture_path(id);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with BARYON_BLESS_GOLDENS=1 to create it",
                path.display()
            )
        });
        for (want, got) in expected.lines().zip(body.lines()) {
            if want != got {
                diffs.push(format!("  {id}: expected {want}\n  {id}: actual   {got}"));
            }
        }
        if expected.lines().count() != body.lines().count() {
            diffs.push(format!(
                "  {id}: {} rows -> {}",
                expected.lines().count(),
                body.lines().count()
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} figure row(s) diverged from the goldens:\n{}\n\
         (intended behaviour change? re-bless with BARYON_BLESS_GOLDENS=1 and justify in the commit)",
        diffs.len(),
        diffs.join("\n")
    );
}
