//! `perf compare BASE... -- CHANGE...`: the landing rule for a change that
//! claims a gain, applied to result documents written by `perf run --out`.
//!
//! For every (workload, end-to-end metric) both sides are summarized by
//! median and quartiles. A win needs the change to win at least 9 in 10
//! of the index-paired runs (ties count for neither) and the medians to
//! differ by more than the parent's interquartile range. A change whose
//! median is worse than the parent's by more than the metric's bound is a
//! regression. Where either side's spread is wider than the bound the
//! metric is unresolved, unless every change run beats every parent run.
//! Failure shares and simulated-result digests are compared per workload:
//! a pure-speed change must leave every digest identical.

use crate::jsonpath::{field, get, num_at, str_at, u64_at};
use crate::metrics::{declared, Better, BENCHMARK_JSON, END_TO_END};
use crate::stats::{median, quartiles, spread};
use baryon_sim::json::{self, Json};
use std::collections::BTreeMap;

/// Wins needed, as a share of the pairs.
const WIN_SHARE: f64 = 0.9;

/// The verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the landing rule.
    Win,
    /// The change is worse than the parent by more than the bound.
    Regression,
    /// The runs spread wider than the bound: no conclusion.
    Unresolved,
    /// Within the bound, and not a claimable win.
    Same,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Win => "win",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// Applies the landing rule to one metric's runs.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let gain = |from: f64, to: f64| match better {
        Better::Higher => to - from,
        Better::Lower => from - to,
    };
    let (mb, mc) = (median(base), median(change));
    if gain(mb, mc) < -bound * mb.abs() {
        return Verdict::Regression;
    }
    let all_better = change
        .iter()
        .all(|c| base.iter().all(|b| gain(*b, *c) > 0.0));
    if spread(base).max(spread(change)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| gain(**b, **c) > 0.0)
        .count();
    let (q1, q3) = quartiles(base);
    if pairs > 0 && wins as f64 >= WIN_SHARE * pairs as f64 && gain(mb, mc) > q3 - q1 {
        Verdict::Win
    } else {
        Verdict::Same
    }
}

/// One side's documents, by workload.
#[derive(Debug, Default)]
struct Side {
    /// metric → values, per workload.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (attempted, failed) totals per workload.
    ops: BTreeMap<String, (u64, u64)>,
    /// (seed, digest) per workload.
    digests: BTreeMap<String, Vec<(u64, String)>>,
}

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let seed = u64_at(&doc, "seed").ok_or_else(|| format!("{path}: no seed"))?;
        let Some(Json::Obj(workloads)) = get(&doc, "workloads") else {
            return Err(format!("{path}: no workloads"));
        };
        for (name, w) in workloads {
            let values = side.values.entry(name.clone()).or_default();
            for m in &END_TO_END {
                if let Some(v) = get(w, "metrics").and_then(|ms| field(ms, m.name)) {
                    if let Some(x) = num_at(v, "value") {
                        values.entry(m.name.to_owned()).or_default().push(x);
                    }
                }
            }
            let ops = side.ops.entry(name.clone()).or_default();
            ops.0 += u64_at(w, "attempted").unwrap_or(0);
            ops.1 += u64_at(w, "failed").unwrap_or(0);
            if let Some(digest) = str_at(w, "digest") {
                side.digests
                    .entry(name.clone())
                    .or_default()
                    .push((seed, digest.to_owned()));
            }
        }
    }
    Ok(side)
}

/// Compares two sets of result documents, printing one line per
/// (workload, metric) plus failure shares and digest changes. Returns
/// whether the change is acceptable: no regression and no added failures.
///
/// # Errors
///
/// Unreadable documents or a malformed `BENCHMARK.json`.
pub fn run(base: &[String], change: &[String]) -> Result<bool, String> {
    let (e2e, _) = declared(BENCHMARK_JSON)?;
    let (b, c) = (load(base)?, load(change)?);
    let mut acceptable = true;
    for (workload, metrics) in &b.values {
        let Some(changed) = c.values.get(workload) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(bv), Some(cv)) = (metrics.get(m.name), changed.get(m.name)) else {
                continue;
            };
            let bound = e2e
                .iter()
                .find(|d| d.name == m.name)
                .and_then(|d| d.bound)
                .unwrap_or(0.0);
            let v = verdict(bv, cv, m.better, bound);
            acceptable &= v != Verdict::Regression;
            let (bq1, bq3) = quartiles(bv);
            let (cq1, cq3) = quartiles(cv);
            println!(
                "{workload} {} base {:.6} [{bq1:.6}, {bq3:.6}] change {:.6} [{cq1:.6}, {cq3:.6}] {} bound {bound} -> {}",
                m.name,
                median(bv),
                median(cv),
                m.unit,
                v.as_str()
            );
        }
        let share = |(attempted, failed): (u64, u64)| failed as f64 / attempted.max(1) as f64;
        let (bs, cs) = (
            share(b.ops[workload]),
            share(c.ops.get(workload).copied().unwrap_or_default()),
        );
        let more_failures = cs > bs;
        acceptable &= !more_failures;
        println!(
            "{workload} failed share base {bs:.6} change {cs:.6}{}",
            if more_failures {
                " -> MORE FAILURES"
            } else {
                ""
            }
        );
        let seeds: BTreeMap<u64, &String> = c
            .digests
            .get(workload)
            .map(|d| d.iter().map(|(s, h)| (*s, h)).collect())
            .unwrap_or_default();
        let pairs: Vec<bool> = b
            .digests
            .get(workload)
            .into_iter()
            .flatten()
            .filter_map(|(seed, digest)| seeds.get(seed).map(|d| *d == digest))
            .collect();
        if !pairs.is_empty() {
            let same = pairs.iter().all(|s| *s);
            println!(
                "{workload} simulated results {}",
                if same { "identical" } else { "CHANGED" }
            );
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_gain_is_a_win() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let change: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&base, &change, Better::Higher, 0.1), Verdict::Win);
        assert_eq!(verdict(&change, &base, Better::Lower, 0.1), Verdict::Win);
    }

    #[test]
    fn identical_runs_are_the_same() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99];
        assert_eq!(verdict(&base, &base, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        let base = [10.0; 10];
        let change = [12.0; 10];
        assert_eq!(
            verdict(&base, &change, Better::Lower, 0.1),
            Verdict::Regression
        );
        assert_eq!(verdict(&base, &change, Better::Higher, 0.1), Verdict::Win);
    }

    #[test]
    fn noisy_runs_are_unresolved() {
        let base = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 2.0, 1.5];
        let change = [1.5, 1.4, 1.6, 1.5, 1.5, 1.4, 1.6, 1.5, 1.5, 1.45];
        assert_eq!(
            verdict(&base, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let change = [0.4; 10];
        assert_eq!(verdict(&base, &change, Better::Lower, 0.1), Verdict::Win);
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_claimable() {
        let base = [
            100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0,
        ];
        let change: Vec<f64> = base.iter().map(|x| x * 0.98).collect();
        assert_eq!(verdict(&base, &change, Better::Lower, 0.1), Verdict::Same);
    }
}
