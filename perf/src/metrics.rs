//! The metric catalogue — every name `BENCHMARK.json` declares, with its
//! unit and direction — and the per-workload report that fills it.

use crate::stats::Tail;
use baryon_sim::json::{self, Json};
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the simulator or the fleet sees. Every workload reports
/// every one (see the README for the per-workload definitions).
pub const END_TO_END: [Metric; 10] = [
    m("sim_minst_per_s", "Minst/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("ckpt_ms_p50", "ms", Lower),
    m("ckpt_ms_p95", "ms", Lower),
    m("lat_p50_ms", "ms", Lower),
    m("lat_p95_ms", "ms", Lower),
    m("jobs_per_s", "1/s", Higher),
    m("sweep_p50_s", "s", Lower),
    m("cells_per_s", "1/s", Higher),
];

/// One layer each, named after the crate (or module) it measures. Only the
/// traced run reports these; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 45] = [
    m("workloads.next_op.ns", "ns", Lower),
    m("workloads.next_op.share", "ratio", Lower),
    m("workloads.next_op.calls", "count", Lower),
    m("cache.private.ns", "ns", Lower),
    m("cache.private.share", "ratio", Lower),
    m("cache.llc.ns", "ns", Lower),
    m("cache.llc.share", "ratio", Lower),
    m("core.ctrl.read.ns", "ns", Lower),
    m("core.ctrl.read.share", "ratio", Lower),
    m("core.ctrl.read.calls", "count", Lower),
    m("core.ctrl.writeback.ns", "ns", Lower),
    m("core.ctrl.writeback.share", "ratio", Lower),
    m("core.ctrl.writeback.calls", "count", Lower),
    m("core.system.self.share", "ratio", Lower),
    m("cache.llc.miss_ratio", "ratio", Lower),
    m("core.remap.cache_hit_rate", "ratio", Higher),
    m("core.stage.hit_ratio", "ratio", Higher),
    m("compress.decompressions_per_read", "ratio", Lower),
    m("mem.slow.read_share", "ratio", Lower),
    m("core.checkpoint.encode_ms", "ms", Lower),
    m("core.checkpoint.write_ms", "ms", Lower),
    m("core.checkpoint.bytes", "B", Lower),
    m("core.checkpoint.per_job", "count", Lower),
    m("core.checkpoint.split.cache_us", "us", Lower),
    m("core.checkpoint.split.cache_bytes", "B", Lower),
    m("core.checkpoint.split.ctrl_us", "us", Lower),
    m("core.checkpoint.split.ctrl_bytes", "B", Lower),
    m("core.checkpoint.split.contents_us", "us", Lower),
    m("core.checkpoint.split.contents_bytes", "B", Lower),
    m("core.checkpoint.split.gens_us", "us", Lower),
    m("core.checkpoint.split.gens_bytes", "B", Lower),
    m("fleet.admit_ms", "ms", Lower),
    m("fleet.status_ms", "ms", Lower),
    m("serve.job_ms", "ms", Lower),
    m("serve.direct.lat_ms", "ms", Lower),
    m("bench.execute_ms", "ms", Lower),
    m("fleet.overhead_ms", "ms", Lower),
    m("serve.overhead_ms", "ms", Lower),
    m("fleet.sweep.parallel_eff", "ratio", Higher),
    m("fleet.requeued", "count", Lower),
    m("fleet.reply_errors", "count", Lower),
    m("fleet.shard_restarts", "count", Lower),
    m("trace.faithful", "bool", Higher),
    m("trace.timer_ns", "ns", Lower),
    m("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up in either catalogue.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// One reported value and how it was sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub samples: usize,
    /// For a tail timing, the percentile actually reported.
    pub percentile: Option<f64>,
}

/// The readings of one workload, keyed by catalogue name.
#[derive(Debug, Clone, Default)]
pub struct Report {
    readings: BTreeMap<&'static str, Reading>,
}

impl Report {
    /// Records `value` for the catalogued metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue — a bug in this crate.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.insert(name, value, samples, None);
    }

    /// Records a tail timing, scaled into the metric's unit by `scale`.
    pub fn set_tail(&mut self, name: &str, tail: Tail, scale: f64, samples: usize) {
        self.insert(name, tail.value * scale, samples, Some(tail.percentile));
    }

    fn insert(&mut self, name: &str, value: f64, samples: usize, percentile: Option<f64>) {
        let metric = find(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.readings.insert(
            metric.name,
            Reading {
                value,
                samples,
                percentile,
            },
        );
    }

    /// The reading of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<Reading> {
        self.readings.get(name).copied()
    }

    /// `name`'s value, 0 when not recorded.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |r| r.value)
    }

    /// The readings of `catalogue`, each with its unit; metrics not
    /// recorded are reported as 0 with no samples.
    pub fn to_json(&self, catalogue: &[Metric]) -> Json {
        Json::Obj(
            catalogue
                .iter()
                .map(|m| {
                    let r = self.get(m.name).unwrap_or(Reading {
                        value: 0.0,
                        samples: 0,
                        percentile: None,
                    });
                    let mut fields = vec![
                        ("value".to_owned(), Json::F64(r.value)),
                        ("unit".to_owned(), Json::from(m.unit)),
                        ("samples".to_owned(), Json::from(r.samples)),
                    ];
                    if let Some(p) = r.percentile {
                        fields.push(("percentile".to_owned(), Json::F64(p)));
                    }
                    (m.name.to_owned(), Json::Obj(fields))
                })
                .collect(),
        )
    }
}

/// The declared catalogue in `BENCHMARK.json`, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric: name, unit, direction and (end-to-end only) the
/// regression bound as a share of the parent's median.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Parses the `end_to_end` and `per_layer` lists of a benchmark manifest.
///
/// # Errors
///
/// Describes the first malformed entry.
pub fn declared(manifest: &str) -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let doc = json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let Some(Json::Arr(items)) = crate::jsonpath::get(&doc, key) else {
            return Err(format!("BENCHMARK.json has no `{key}` list"));
        };
        items
            .iter()
            .map(|item| {
                let text = |k: &str| {
                    crate::jsonpath::str_at(item, k)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("a `{key}` entry lacks `{k}`"))
                };
                Ok(Declared {
                    name: text("name")?,
                    unit: text("unit")?,
                    better: text("better")?,
                    bound: crate::jsonpath::num_at(item, "bound"),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(declared: &[Declared], catalogue: &[Metric]) {
        let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        let ours: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
        assert_eq!(names, ours, "BENCHMARK.json and the catalogue disagree");
        for (d, m) in declared.iter().zip(catalogue) {
            assert_eq!(d.unit, m.unit, "{}", m.name);
            assert_eq!(d.better, m.better.as_str(), "{}", m.name);
        }
    }

    #[test]
    fn manifest_declares_exactly_the_catalogue() {
        let (e2e, layers) = declared(BENCHMARK_JSON).expect("manifest parses");
        matches(&e2e, &END_TO_END);
        matches(&layers, &PER_LAYER);
        for d in &e2e {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        assert!(layers.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(m.unit.len() <= 16);
        }
    }

    #[test]
    fn report_fills_missing_layers_with_zero() {
        let mut r = Report::default();
        r.set("trace.faithful", 1.0, 1);
        let doc = r.to_json(&PER_LAYER).render();
        assert!(doc.contains(r#""trace.faithful":{"value":1,"unit":"bool","samples":1}"#));
        assert!(doc.contains(r#""fleet.admit_ms":{"value":0,"unit":"ms","samples":0}"#));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_metric_is_a_bug() {
        Report::default().set("made_up", 1.0, 1);
    }
}
