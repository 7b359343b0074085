//! The unified telemetry registry shared by every crate in the workspace.
//!
//! The paper's evaluation hinges on per-mechanism accounting — stage hit
//! rates, remap-cache traffic, migration bytes — so every component publishes
//! into one [`Registry`] of dotted `component.metric` names instead of
//! keeping private ad-hoc stats structs. Three metric kinds cover everything
//! the workspace measures:
//!
//! * **counters** — monotonically accumulated `u64` event counts
//!   (`"ctrl.fast.read_bytes"`),
//! * **gauges** — point-in-time `f64` readings (`"ctrl.avg_cf"`),
//! * **summaries** — log2-bucketed [`Histogram`]s of sample distributions
//!   (`"sim.read_latency"`, span timings).
//!
//! # Spans
//!
//! Scoped spans measure wall-clock time through the hot paths (stage probe →
//! remap walk → fill/commit). They are **disabled by default** and become
//! no-ops that never read the clock, so telemetry-off runs are bit-identical
//! to a build without any instrumentation. When enabled, spans are
//! **sampled 1-in-[`SPAN_SAMPLE_PERIOD`]** (the first call always samples):
//! per-access paths run in a few hundred nanoseconds, so timing every call
//! would cost more than the work being measured. A span summary's `count`
//! is therefore the number of *samples*, while its mean and percentiles
//! remain representative of the full population.
//!
//! ```
//! use baryon_sim::telemetry::Registry;
//!
//! let mut reg = Registry::new();
//! let t = reg.timer();                 // spans disabled: no clock read
//! reg.record_span("ctrl.span.fill", t);
//! assert!(reg.is_empty());
//!
//! reg.enable_spans();
//! let t = reg.timer();
//! reg.record_span("ctrl.span.fill", t);
//! assert_eq!(reg.summary("ctrl.span.fill").unwrap().count(), 1);
//! ```
//!
//! # Reading the registry
//!
//! Callers never poke component fields directly; they take a
//! [`Registry::snapshot`], which freezes every metric into a
//! `BTreeMap<String, Value>`, or serialize with [`Registry::to_json`].

use crate::histogram::Histogram;
use crate::json::Json;
use crate::wire::{Reader, WireError, Writer};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Span sampling period: with spans enabled, one in this many
/// [`Registry::timer`] calls reads the clock and records a sample (the
/// first call always does). Sampling keeps the telemetry-on overhead on
/// per-access paths within the ~5% profiling budget.
pub const SPAN_SAMPLE_PERIOD: u64 = 64;

/// A frozen reading of one metric, produced by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A monotonically accumulated event count.
    Counter(u64),
    /// A point-in-time floating-point reading.
    Gauge(f64),
    /// A distribution summary (count, mean and tail percentiles).
    Summary {
        /// Number of recorded samples.
        count: u64,
        /// Arithmetic mean of all samples.
        mean: f64,
        /// 50th percentile (bucket lower bound).
        p50: u64,
        /// 90th percentile (bucket lower bound).
        p90: u64,
        /// 99th percentile (bucket lower bound).
        p99: u64,
    },
}

impl Value {
    /// Serializes the value; counters and gauges become bare numbers,
    /// summaries become an object.
    pub fn to_json(&self) -> Json {
        match self {
            Value::Counter(n) => Json::U64(*n),
            Value::Gauge(x) => Json::F64(*x),
            Value::Summary {
                count,
                mean,
                p50,
                p90,
                p99,
            } => Json::obj([
                ("count", Json::U64(*count)),
                ("mean", Json::F64(*mean)),
                ("p50", Json::U64(*p50)),
                ("p90", Json::U64(*p90)),
                ("p99", Json::U64(*p99)),
            ]),
        }
    }
}

/// Reads any JSON number as `f64` (whole-valued gauges render without a
/// fraction and parse back as integers).
fn num_f64(j: &Json) -> Option<f64> {
    match j {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(x) => Some(*x),
        // Non-finite gauges render as `null`.
        Json::Null => Some(f64::NAN),
        _ => None,
    }
}

fn num_u64(j: &Json) -> Option<u64> {
    match j {
        Json::U64(n) => Some(*n),
        _ => None,
    }
}

/// A started (or suppressed) span measurement, returned by
/// [`Registry::timer`] and consumed by [`Registry::record_span`].
///
/// Holding the clock reading in a token instead of an RAII guard keeps the
/// registry borrowable while the timed work runs.
#[derive(Debug)]
#[must_use = "pass the timer back to Registry::record_span"]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// A timer that records nothing, for paths without a registry at hand.
    pub fn disabled() -> Self {
        SpanTimer(None)
    }
}

/// The unified metric registry: ordered maps of counters, gauges and
/// histogram summaries under dotted `component.metric` names.
///
/// # Examples
///
/// ```
/// use baryon_sim::telemetry::{Registry, Value};
///
/// let mut reg = Registry::new();
/// reg.add("mem.reads", 10);
/// reg.add("mem.reads", 5);
/// reg.set_gauge("mem.util", 0.75);
/// assert_eq!(reg.counter("mem.reads"), 15);
/// assert_eq!(reg.snapshot()["mem.reads"], Value::Counter(15));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    spans_enabled: bool,
    /// Monotone tick deciding which [`Registry::timer`] calls sample; a
    /// `Cell` so `timer(&self)` stays a shared borrow while the timed
    /// work holds `&mut` elsewhere.
    span_tick: Cell<u64>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    summaries: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry with spans disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with spans already enabled.
    pub fn with_spans() -> Self {
        let mut r = Self::new();
        r.enable_spans();
        r
    }

    /// Turns on wall-clock span recording. Off by default so golden runs
    /// never observe the host clock.
    pub fn enable_spans(&mut self) {
        self.spans_enabled = true;
    }

    /// Whether span timers are live.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled
    }

    /// Adds `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the counter `name` to an absolute value.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Sets a floating-point gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records one sample into the summary histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        // Allocation-free on the hot path: the name is only cloned the
        // first time a summary appears.
        match self.summaries.get_mut(name) {
            Some(h) => h.record(value),
            None => self
                .summaries
                .entry(name.to_owned())
                .or_default()
                .record(value),
        }
    }

    /// Merges a pre-built histogram into the summary `name`.
    pub fn observe_histogram(&mut self, name: &str, h: &Histogram) {
        self.summaries.entry(name.to_owned()).or_default().merge(h);
    }

    /// Reads a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge; missing gauges read as NaN.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Borrows the summary histogram `name`, if any samples were recorded.
    pub fn summary(&self, name: &str) -> Option<&Histogram> {
        self.summaries.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates summaries in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.summaries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Starts a span measurement. With spans disabled this never reads
    /// the clock (disabled runs stay bit-identical); with spans enabled,
    /// one in [`SPAN_SAMPLE_PERIOD`] calls samples, starting with the
    /// first.
    pub fn timer(&self) -> SpanTimer {
        if !self.spans_enabled {
            return SpanTimer(None);
        }
        let tick = self.span_tick.get();
        self.span_tick.set(tick.wrapping_add(1));
        SpanTimer(tick.is_multiple_of(SPAN_SAMPLE_PERIOD).then(Instant::now))
    }

    /// Starts an *unsampled* span measurement for coarse, rare events
    /// (run phases, whole jobs): every call samples when spans are
    /// enabled. Per-access paths should use [`Registry::timer`], which
    /// samples 1-in-[`SPAN_SAMPLE_PERIOD`] to bound overhead.
    pub fn phase_timer(&self) -> SpanTimer {
        SpanTimer(self.spans_enabled.then(Instant::now))
    }

    /// Finishes a span, recording its elapsed nanoseconds into the summary
    /// `name`. A timer from a spans-disabled registry records nothing.
    pub fn record_span(&mut self, name: &str, timer: SpanTimer) {
        if let Some(start) = timer.0 {
            self.observe(name, start.elapsed().as_nanos() as u64);
        }
    }

    /// Merges another registry into this one under a dotted prefix:
    /// counters sum, gauges overwrite, summaries merge.
    ///
    /// # Examples
    ///
    /// ```
    /// use baryon_sim::telemetry::Registry;
    ///
    /// let mut inner = Registry::new();
    /// inner.add("hits", 3);
    /// let mut outer = Registry::new();
    /// outer.absorb("llc", &inner);
    /// assert_eq!(outer.counter("llc.hits"), 3);
    /// ```
    pub fn absorb(&mut self, prefix: &str, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(format!("{prefix}.{k}")).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(format!("{prefix}.{k}"), *v);
        }
        for (k, h) in &other.summaries {
            self.summaries
                .entry(format!("{prefix}.{k}"))
                .or_default()
                .merge(h);
        }
    }

    /// Merges another registry into this one with names unchanged.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.summaries {
            self.summaries.entry(k.clone()).or_default().merge(h);
        }
    }

    /// True if no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.summaries.is_empty()
    }

    /// Clears every metric and rewinds the span sampling tick; the spans
    /// flag is preserved.
    pub fn reset(&mut self) {
        self.span_tick.set(0);
        self.counters.clear();
        self.gauges.clear();
        self.summaries.clear();
    }

    /// Freezes the registry into the single read API: one ordered map of
    /// metric name to [`Value`].
    pub fn snapshot(&self) -> BTreeMap<String, Value> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.counters {
            out.insert(k.clone(), Value::Counter(*v));
        }
        for (k, v) in &self.gauges {
            out.insert(k.clone(), Value::Gauge(*v));
        }
        for (k, h) in &self.summaries {
            out.insert(
                k.clone(),
                Value::Summary {
                    count: h.count(),
                    mean: h.mean(),
                    p50: h.percentile(50.0),
                    p90: h.percentile(90.0),
                    p99: h.percentile(99.0),
                },
            );
        }
        out
    }

    /// Serializes the registry as three sections, each an ordered object:
    /// `{"counters": {...}, "gauges": {...}, "summaries": {...}}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::U64(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::F64(*v)))
                .collect(),
        );
        let summaries = Json::Obj(
            self.summaries
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::Summary {
                            count: h.count(),
                            mean: h.mean(),
                            p50: h.percentile(50.0),
                            p90: h.percentile(90.0),
                            p99: h.percentile(99.0),
                        }
                        .to_json(),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("summaries", summaries),
        ])
    }

    /// Rebuilds a snapshot from the JSON produced by [`Registry::to_json`].
    /// Returns `None` on any shape mismatch. Together with `json::parse`
    /// this gives the round-trip `snapshot_from_json(parse(render(to_json())))
    /// == snapshot()`.
    pub fn snapshot_from_json(doc: &Json) -> Option<BTreeMap<String, Value>> {
        let section = |name: &str| -> Option<&Vec<(String, Json)>> {
            match doc.get(name)? {
                Json::Obj(pairs) => Some(pairs),
                _ => None,
            }
        };
        let mut out = BTreeMap::new();
        for (k, v) in section("counters")? {
            out.insert(k.clone(), Value::Counter(num_u64(v)?));
        }
        for (k, v) in section("gauges")? {
            out.insert(k.clone(), Value::Gauge(num_f64(v)?));
        }
        for (k, v) in section("summaries")? {
            // A non-object summary has no fields, so the lookups below fail.
            let field = |name: &str| v.get(name);
            out.insert(
                k.clone(),
                Value::Summary {
                    count: num_u64(field("count")?)?,
                    mean: num_f64(field("mean")?)?,
                    p50: num_u64(field("p50")?)?,
                    p90: num_u64(field("p90")?)?,
                    p99: num_u64(field("p99")?)?,
                },
            );
        }
        Some(out)
    }

    /// Serializes the complete registry state — including the spans flag
    /// and the span sampling tick, so a restored run samples the same
    /// timer calls the uninterrupted run would have.
    pub fn save_state(&self, w: &mut Writer) {
        w.bool(self.spans_enabled);
        w.u64(self.span_tick.get());
        w.seq(self.counters.len());
        for (k, v) in &self.counters {
            w.str(k);
            w.u64(*v);
        }
        w.seq(self.gauges.len());
        for (k, v) in &self.gauges {
            w.str(k);
            w.f64(*v);
        }
        w.seq(self.summaries.len());
        for (k, h) in &self.summaries {
            w.str(k);
            h.save_state(w);
        }
    }

    /// Rebuilds a registry from [`Registry::save_state`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a truncated or malformed payload.
    pub fn load_state(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let spans_enabled = r.bool()?;
        let span_tick = Cell::new(r.u64()?);
        let mut counters = BTreeMap::new();
        for _ in 0..r.seq()? {
            let k = r.str()?;
            counters.insert(k, r.u64()?);
        }
        let mut gauges = BTreeMap::new();
        for _ in 0..r.seq()? {
            let k = r.str()?;
            gauges.insert(k, r.f64()?);
        }
        let mut summaries = BTreeMap::new();
        for _ in 0..r.seq()? {
            let k = r.str()?;
            summaries.insert(k, Histogram::load_state(r)?);
        }
        Ok(Registry {
            spans_enabled,
            span_tick,
            counters,
            gauges,
            summaries,
        })
    }

    /// Renders as CSV lines `name,value` (summaries export their count).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("{k},{v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k},{v}\n"));
        }
        for (k, h) in &self.summaries {
            out.push_str(&format!("{k}.count,{}\n", h.count()));
            out.push_str(&format!("{k}.p50,{}\n", h.percentile(50.0)));
            out.push_str(&format!("{k}.p99,{}\n", h.percentile(99.0)));
        }
        out
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no telemetry)");
        }
        for (k, v) in &self.counters {
            writeln!(f, "{k:<48} {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k:<48} {v:.6}")?;
        }
        for (k, h) in &self.summaries {
            writeln!(
                f,
                "{k:<48} n={} mean={:.1} p50={} p99={}",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn add_accumulates() {
        let mut r = Registry::new();
        r.add("x", 1);
        r.add("x", 2);
        assert_eq!(r.counter("x"), 3);
    }

    #[test]
    fn missing_counter_is_zero() {
        assert_eq!(Registry::new().counter("nope"), 0);
    }

    #[test]
    fn missing_gauge_is_nan() {
        assert!(Registry::new().gauge("nope").is_nan());
    }

    #[test]
    fn set_counter_overwrites() {
        let mut r = Registry::new();
        r.add("x", 10);
        r.set_counter("x", 2);
        assert_eq!(r.counter("x"), 2);
    }

    #[test]
    fn absorb_prefixes_sums_and_merges() {
        let mut inner = Registry::new();
        inner.add("a", 1);
        inner.set_gauge("g", 0.5);
        inner.observe("h", 100);
        let mut outer = Registry::new();
        outer.absorb("p", &inner);
        outer.absorb("p", &inner);
        assert_eq!(outer.counter("p.a"), 2);
        assert_eq!(outer.gauge("p.g"), 0.5);
        assert_eq!(outer.summary("p.h").unwrap().count(), 2);
    }

    #[test]
    fn disabled_spans_record_nothing_and_never_read_the_clock() {
        let mut r = Registry::new();
        let t = r.timer();
        r.record_span("span.x", t);
        assert!(r.is_empty());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn enabled_spans_record_elapsed_ns() {
        let mut r = Registry::with_spans();
        let t = r.timer();
        std::hint::black_box(0u64);
        r.record_span("span.x", t);
        let h = r.summary("span.x").unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn spans_sample_one_in_period() {
        let mut r = Registry::with_spans();
        for _ in 0..(2 * SPAN_SAMPLE_PERIOD) {
            let t = r.timer();
            r.record_span("span.x", t);
        }
        assert_eq!(r.summary("span.x").unwrap().count(), 2);
        // Reset rewinds the tick, so the next timer samples again.
        r.reset();
        let t = r.timer();
        r.record_span("span.x", t);
        assert_eq!(r.summary("span.x").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_orders_and_types_metrics() {
        let mut r = Registry::new();
        r.add("b.count", 2);
        r.set_gauge("a.rate", 1.5);
        r.observe("c.lat", 7);
        let snap = r.snapshot();
        let keys: Vec<&str> = snap.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["a.rate", "b.count", "c.lat"]);
        assert_eq!(snap["b.count"], Value::Counter(2));
        assert_eq!(snap["a.rate"], Value::Gauge(1.5));
        let Value::Summary { count, p50, .. } = snap["c.lat"] else {
            panic!("c.lat should be a summary");
        };
        assert_eq!((count, p50), (1, 4));
    }

    #[test]
    fn json_round_trip_reconstructs_snapshot() {
        let mut r = Registry::new();
        r.add("ctrl.reads", 41);
        r.set_gauge("ctrl.cf", 2.0); // renders as "2", parses as U64
        r.set_gauge("ctrl.rate", 0.25);
        r.observe("sim.lat", 12);
        r.observe("sim.lat", 900);
        let doc = parse(&r.to_json().render()).expect("registry JSON parses");
        assert_eq!(Registry::snapshot_from_json(&doc), Some(r.snapshot()));
    }

    #[test]
    fn wire_state_round_trip_is_exact() {
        let mut r = Registry::with_spans();
        r.add("ctrl.reads", 41);
        r.set_gauge("ctrl.cf", 2.5);
        r.observe("sim.lat", 12);
        r.observe("sim.lat", 900);
        let t = r.timer();
        r.record_span("span.x", t);
        let mut w = crate::wire::Writer::new();
        r.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut rd = crate::wire::Reader::new(&bytes);
        let back = Registry::load_state(&mut rd).expect("round trip");
        rd.finish().expect("no trailing bytes");
        assert_eq!(back.spans_enabled(), r.spans_enabled());
        assert_eq!(back.span_tick.get(), r.span_tick.get());
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.summaries, r.summaries);
        assert_eq!(back.gauges.len(), r.gauges.len());
    }

    #[test]
    fn reset_clears_but_keeps_span_flag() {
        let mut r = Registry::with_spans();
        r.add("x", 1);
        r.reset();
        assert!(r.is_empty());
        assert!(r.spans_enabled());
    }

    #[test]
    fn csv_and_display_cover_all_sections() {
        let mut r = Registry::new();
        r.add("a", 7);
        r.set_gauge("g", 0.5);
        r.observe("s", 3);
        let csv = r.to_csv();
        assert!(csv.starts_with("name,value\n"));
        assert!(csv.contains("a,7\n"));
        assert!(csv.contains("s.count,1\n"));
        let text = format!("{r}");
        assert!(text.contains('a') && text.contains("n=1"));
        assert!(!format!("{}", Registry::new()).is_empty());
    }
}
