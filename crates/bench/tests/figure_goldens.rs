//! Figure goldens: every table and figure of `figures::ALL`, computed by
//! `figures::run` (the function behind `baryon-cli figure`) at small
//! settings over the full workload list, must reproduce the CSV bytes in
//! `tests/fixtures/figures/`, so a figure's data path cannot drift from
//! what the command reports.
//!
//! Regenerate (only when a behaviour change is intended and explained in
//! the commit message):
//!
//! ```sh
//! BARYON_BLESS_GOLDENS=1 cargo test -p baryon-bench --test figure_goldens
//! ```

use baryon_bench::figures::{self, ALL};
use baryon_bench::Params;
use baryon_workloads::Scale;
use std::collections::BTreeSet;
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
fn every_figure_has_a_unique_id_a_blurb_and_a_fixture() {
    let ids: BTreeSet<&str> = ALL.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), ALL.len(), "duplicate figure ids");
    for f in &ALL {
        assert!(!f.blurb.trim().is_empty(), "{} has no blurb", f.id);
        assert!(fixture_path(f.id).is_file(), "{} has no fixture", f.id);
    }
}

#[test]
fn every_figure_matches_its_golden_csv() {
    let actual: Vec<(&str, String)> = ALL
        .iter()
        .map(|f| {
            let csv = figures::run(f, &PARAMS).unwrap_or_else(|e| panic!("{}: {e}", f.id));
            (f.id, csv)
        })
        .collect();

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
