//! Controller knobs and the fleet-wide configuration policy.
//!
//! [`Knobs`] is a sparse overlay over [`BaryonConfig`]: every field is
//! optional, and an absent field means "keep the controller's default for
//! the run's scale". The overlay is applied on top of the design point a
//! run would have used anyway, so one set of knobs means the same change
//! at any scale, and the empty overlay is exactly the baseline. A run spec
//! carries knobs to name a figure's design point; a [`FleetPolicy`] carries
//! them to roll a change out across a fleet.
//!
//! Every knob is declared once, in the `knobs!` table below. The table
//! generates the struct, [`Knobs::apply`], the JSON pairs and
//! [`Knobs::diff_from`], so a knob cannot be readable in one place and
//! silently ignored in another. A policy's wire form is its JSON document,
//! so the JSON pairs are also the wire codec.
//!
//! Validation goes through [`BaryonConfig::validate`] (the check behind
//! [`BaryonConfig::builder`]), so a bad policy is rejected at *stage* time
//! with the same typed [`ConfigError`] a direct misconfiguration would
//! produce, and a bad run spec is rejected before its run starts.

use crate::config::{BaryonConfig, ConfigError, VictimPolicy};
use crate::family::FamilyId;
use crate::system::ControllerKind;
use baryon_sim::json::{parse, Json};
use baryon_sim::wire::{Reader, WireError, Writer};
use baryon_workloads::Scale;

/// One knob value type and its JSON form.
trait Knob: Copy {
    fn to_json(self) -> Json;
    fn from_json(key: &str, value: &Json) -> Result<Self, String>;
}

impl Knob for bool {
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
    fn from_json(key: &str, value: &Json) -> Result<Self, String> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{key} must be a boolean")),
        }
    }
}

impl Knob for u64 {
    fn to_json(self) -> Json {
        Json::U64(self)
    }
    fn from_json(key: &str, value: &Json) -> Result<Self, String> {
        expect_u64(key, value)
    }
}

impl Knob for usize {
    fn to_json(self) -> Json {
        Json::U64(self as u64)
    }
    fn from_json(key: &str, value: &Json) -> Result<Self, String> {
        Ok(expect_u64(key, value)? as usize)
    }
}

/// JSON has no infinity, so `f64::INFINITY` (fig13's stability-only
/// `k = inf`) is spelled as the string `"inf"`.
impl Knob for f64 {
    fn to_json(self) -> Json {
        if self == f64::INFINITY {
            Json::from("inf")
        } else {
            Json::F64(self)
        }
    }
    fn from_json(key: &str, value: &Json) -> Result<Self, String> {
        match value {
            Json::F64(x) => Ok(*x),
            Json::U64(n) => Ok(*n as f64),
            Json::I64(n) => Ok(*n as f64),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            _ => Err(format!("{key} must be a number or \"inf\"")),
        }
    }
}

/// Victim policies by external name.
const VICTIM_POLICIES: [(VictimPolicy, &str); 6] = [
    (VictimPolicy::Auto, "auto"),
    (VictimPolicy::Lru, "lru"),
    (VictimPolicy::Fifo, "fifo"),
    (VictimPolicy::Random, "random"),
    (VictimPolicy::Clock, "clock"),
    (VictimPolicy::Lfu, "lfu"),
];

impl Knob for VictimPolicy {
    fn to_json(self) -> Json {
        let (_, name) = VICTIM_POLICIES
            .iter()
            .find(|(p, _)| *p == self)
            .expect("named");
        Json::from(*name)
    }
    fn from_json(key: &str, value: &Json) -> Result<Self, String> {
        VICTIM_POLICIES
            .iter()
            .find(|(_, name)| value.as_str() == Some(*name))
            .map(|(p, _)| *p)
            .ok_or_else(|| format!("{key} must be one of auto, lru, fifo, random, clock, lfu"))
    }
}

/// Pushes `(name, from, to)` when the two sides differ. A value renders
/// as its JSON text without quotes, an absent one as `"default"`.
fn push_diff<T: Knob>(
    out: &mut Vec<(&'static str, String, String)>,
    name: &'static str,
    from: Option<T>,
    to: Option<T>,
) {
    let side = |v: Option<T>| match v.map(Knob::to_json) {
        None => "default".to_owned(),
        Some(Json::Str(s)) => s,
        Some(json) => json.render(),
    };
    let (from, to) = (side(from), side(to));
    if from != to {
        out.push((name, from, to));
    }
}

fn push_json<T: Knob>(pairs: &mut Vec<(String, Json)>, name: &str, v: Option<T>) {
    if let Some(v) = v {
        pairs.push((name.to_owned(), v.to_json()));
    }
}

macro_rules! knobs {
    ($($(#[$doc:meta])* $name:ident: $ty:ty => $($field:ident).+;)*) => {
        /// A sparse overlay of Baryon controller knobs. `None` keeps the
        /// family default at the run's scale.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct Knobs {
            $($(#[$doc])* pub $name: Option<$ty>,)*
        }

        impl Knobs {
            /// The empty overlay, as [`Knobs::default`] but usable in
            /// constants.
            pub const NONE: Knobs = Knobs {
                $($name: None,)*
            };

            /// True when the overlay changes nothing.
            pub fn is_empty(&self) -> bool {
                true $(&& self.$name.is_none())*
            }

            /// Applies the set knobs on top of `cfg`.
            pub fn apply(&self, mut cfg: BaryonConfig) -> BaryonConfig {
                $(if let Some(v) = self.$name {
                    cfg.$($field).+ = v;
                })*
                cfg
            }

            /// This overlay with `under`'s knobs filling the fields it
            /// leaves unset.
            pub fn or(&self, under: &Knobs) -> Knobs {
                Knobs {
                    $($name: self.$name.or(under.$name),)*
                }
            }

            /// Per-knob differences from `base` to `self`: `(knob, from,
            /// to)` triples in declaration order, an absent knob rendering
            /// as `"default"`. Identical knobs are omitted.
            pub fn diff_from(&self, base: &Knobs) -> Vec<(&'static str, String, String)> {
                let mut out = Vec::new();
                $(push_diff(&mut out, stringify!($name), base.$name, self.$name);)*
                out
            }

            /// Appends one `(name, value)` pair per set knob, in
            /// declaration order.
            pub fn push_json(&self, pairs: &mut Vec<(String, Json)>) {
                $(push_json(pairs, stringify!($name), self.$name);)*
            }

            /// Sets the knob `key` from `value`. Returns `Ok(false)` when
            /// `key` names no knob.
            ///
            /// # Errors
            ///
            /// A message naming the knob when `value` has the wrong type.
            pub fn parse_field(&mut self, key: &str, value: &Json) -> Result<bool, String> {
                match key {
                    $(stringify!($name) => self.$name = Some(Knob::from_json(key, value)?),)*
                    _ => return Ok(false),
                }
                Ok(true)
            }
        }
    };
}

knobs! {
    /// The selective-commit weight `k` (Eq. 1); `"inf"` in JSON.
    commit_k: f64 => commit_k;
    /// The commit-all ablation switch.
    commit_all: bool => commit_all;
    /// Cacheline-aligned compression.
    cacheline_aligned: bool => cacheline_aligned;
    /// The `Z`-bit all-zero range optimization.
    zero_opt: bool => zero_opt;
    /// The C-Pack compressor toggle.
    use_cpack: bool => use_cpack;
    /// Compressed fast-to-slow writeback.
    compressed_writeback: bool => compressed_writeback;
    /// Block-level stage replacement.
    two_level_replacement: bool => two_level_replacement;
    /// The metadata-scrub interval.
    scrub_interval: u64 => scrub_interval;
    /// The stage-area associativity.
    stage_ways: usize => stage_ways;
    /// The stage-area capacity in bytes (0 disables the stage area).
    stage_bytes: u64 => stage_bytes;
    /// Blocks per super-block.
    blocks_per_super: u64 => geometry.blocks_per_super;
    /// The sub-block size in bytes.
    sub_bytes: u64 => geometry.sub_bytes;
    /// The decompression latency in cycles.
    decompress_cycles: u64 => decompress_cycles;
    /// The data-area victim policy, by name.
    victim_policy: VictimPolicy => victim_policy;
    /// The data-area associativity (`usize::MAX` is fully associative).
    assoc: usize => assoc;
    /// The OS-visible fraction of the data area (mixed mode).
    flat_fraction: f64 => flat_fraction;
}

impl Knobs {
    /// Applies the overlay on top of `base` and validates the result.
    ///
    /// # Errors
    ///
    /// The typed [`ConfigError`] for the first violated invariant.
    pub fn resolve(&self, base: BaryonConfig) -> Result<BaryonConfig, ConfigError> {
        let cfg = self.apply(base);
        cfg.validate()?;
        Ok(cfg)
    }

    /// The overlay as a JSON object of its set knobs.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        self.push_json(&mut pairs);
        Json::Obj(pairs)
    }

    /// Parses a JSON object of knobs. Unknown keys are rejected.
    ///
    /// # Errors
    ///
    /// A message naming the offending key or value.
    pub fn from_json(doc: &Json) -> Result<Knobs, String> {
        let Json::Obj(pairs) = doc else {
            return Err(format!("knobs must be an object, got {}", doc.render()));
        };
        let mut knobs = Knobs::default();
        for (key, value) in pairs {
            if !knobs.parse_field(key, value)? {
                return Err(format!("unknown knob {key:?}"));
            }
        }
        Ok(knobs)
    }
}

/// A versioned overlay of controller knobs plus serving limits,
/// distributed to shards by the fleet's rollout engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetPolicy {
    /// The fleet config generation that produced this policy (0 = the
    /// built-in baseline; stamped by the coordinator's slot machine).
    pub generation: u64,
    /// Controller knobs, applied to every Baryon-family run for the
    /// fields its spec leaves unset.
    pub knobs: Knobs,
    /// Per-job wall-clock deadline on shards, in milliseconds.
    pub job_deadline_ms: Option<u64>,
    /// Checkpoint cadence (instructions) on shards.
    pub checkpoint_every: Option<u64>,
}

/// The largest capacity divisor a policy is validated at. Knobs overlay
/// whatever design point a run uses, and some values are legal at one
/// scale only (`stage_ways: 1024` fits at divisor 256 but not at 4096),
/// so a policy is checked at every power-of-two divisor from the paper's
/// machine (1) up to this one, the smallest machine any figure or test
/// runs. A run at a scale outside that range that its policy invalidates
/// fails with an error, never a panic.
pub const MAX_VALIDATION_DIVISOR: u64 = 4096;

/// A policy whose knobs are invalid on a Baryon design point.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyError {
    /// The smallest capacity divisor at which the knobs fail.
    pub divisor: u64,
    /// The violated invariant.
    pub error: ConfigError,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at scale divisor {}", self.error, self.divisor)
    }
}

impl std::error::Error for PolicyError {}

impl FleetPolicy {
    /// True when the policy overrides nothing — the built-in baseline.
    pub fn is_baseline(&self) -> bool {
        self.knobs.is_empty() && self.job_deadline_ms.is_none() && self.checkpoint_every.is_none()
    }

    /// Validates the knobs on every Baryon family's design point at every
    /// power-of-two divisor up to [`MAX_VALIDATION_DIVISOR`]: a policy
    /// applies to every Baryon run at any scale, and some knobs (`assoc`,
    /// `flat_fraction`) are legal in one mode only. Runs at stage and load
    /// time, never per job.
    ///
    /// # Errors
    ///
    /// The first violated invariant, at the smallest divisor that violates
    /// one.
    pub fn validate(&self) -> Result<(), PolicyError> {
        for shift in 0..=MAX_VALIDATION_DIVISOR.trailing_zeros() {
            let divisor = 1 << shift;
            for family in FamilyId::ALL {
                if let ControllerKind::Baryon(base) = family.kind(Scale { divisor }) {
                    let resolved = self.knobs.resolve(base);
                    resolved.map_err(|error| PolicyError { divisor, error })?;
                }
            }
        }
        Ok(())
    }

    /// Per-knob differences from `base` (the currently active policy) to
    /// `self` (the staged candidate): the [`Knobs::diff_from`] triples
    /// followed by the serving limits. An empty vec means the rollout
    /// would change nothing.
    pub fn diff_from(&self, base: &FleetPolicy) -> Vec<(&'static str, String, String)> {
        let mut out = self.knobs.diff_from(&base.knobs);
        push_diff(
            &mut out,
            "job_deadline_ms",
            base.job_deadline_ms,
            self.job_deadline_ms,
        );
        push_diff(
            &mut out,
            "checkpoint_every",
            base.checkpoint_every,
            self.checkpoint_every,
        );
        out
    }

    /// Renders the policy as one flat JSON document (absent overrides
    /// omitted).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("generation".to_owned(), Json::U64(self.generation))];
        self.knobs.push_json(&mut pairs);
        push_json(&mut pairs, "job_deadline_ms", self.job_deadline_ms);
        push_json(&mut pairs, "checkpoint_every", self.checkpoint_every);
        Json::Obj(pairs)
    }

    /// Parses a policy document. Unknown keys are rejected — an operator
    /// typo must fail at stage time, not silently no-op on the fleet.
    ///
    /// # Errors
    ///
    /// A message naming the offending key or value.
    pub fn from_json(doc: &Json) -> Result<FleetPolicy, String> {
        let Json::Obj(pairs) = doc else {
            return Err("policy must be a JSON object".to_owned());
        };
        let mut p = FleetPolicy::default();
        for (key, value) in pairs {
            match key.as_str() {
                "generation" => p.generation = expect_u64(key, value)?,
                "job_deadline_ms" => p.job_deadline_ms = Some(expect_nonzero(key, value)?),
                "checkpoint_every" => p.checkpoint_every = Some(expect_nonzero(key, value)?),
                other => {
                    if !p.knobs.parse_field(other, value)? {
                        return Err(format!("unknown policy field {other:?}"));
                    }
                }
            }
        }
        Ok(p)
    }

    /// Serializes the policy over the wire codec, as its JSON document.
    pub fn save_state(&self, w: &mut Writer) {
        w.str(&self.to_json().render());
    }

    /// Deserializes a policy written by [`FleetPolicy::save_state`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated buffer or a document that is not a
    /// policy.
    pub fn load_state(r: &mut Reader<'_>) -> Result<FleetPolicy, WireError> {
        let doc = parse(&r.str()?).map_err(|e| WireError::BadDocument(e.to_string()))?;
        FleetPolicy::from_json(&doc).map_err(WireError::BadDocument)
    }

    /// Reads, parses, and validates a policy file.
    ///
    /// # Errors
    ///
    /// A message describing the I/O, parse, or validation failure.
    pub fn load(path: &std::path::Path) -> Result<FleetPolicy, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let policy = FleetPolicy::from_json(&doc)?;
        policy.validate().map_err(|e| e.to_string())?;
        Ok(policy)
    }
}

fn expect_u64(key: &str, value: &Json) -> Result<u64, String> {
    match value {
        Json::U64(n) => Ok(*n),
        _ => Err(format!("{key} must be a non-negative integer")),
    }
}

fn expect_nonzero(key: &str, value: &Json) -> Result<u64, String> {
    match expect_u64(key, value)? {
        0 => Err(format!("{key} must be non-zero")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_sim::check::{props, Gen};
    use baryon_sim::json;

    const SCALE: Scale = Scale { divisor: 256 };

    #[test]
    fn default_is_baseline_and_applies_nothing() {
        let p = FleetPolicy::default();
        assert!(p.is_baseline());
        let base = BaryonConfig::default_cache_mode(SCALE);
        assert_eq!(p.knobs.apply(base.clone()), base);
        p.validate().expect("baseline valid");
    }

    #[test]
    fn overrides_apply_and_validate() {
        let p = FleetPolicy {
            knobs: Knobs {
                commit_k: Some(2.0),
                zero_opt: Some(false),
                scrub_interval: Some(1000),
                sub_bytes: Some(64),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        assert!(!p.is_baseline());
        p.validate().expect("valid");
        let cfg = p.knobs.apply(BaryonConfig::default_cache_mode(SCALE));
        assert_eq!(cfg.commit_k, 2.0);
        assert!(!cfg.zero_opt);
        assert_eq!(cfg.scrub_interval, 1000);
        assert_eq!(cfg.geometry, crate::Geometry::baryon_64b());
        let applied = p.knobs.apply(BaryonConfig::default_flat_fa(SCALE));
        assert_eq!(applied.commit_k, 2.0);
        assert_eq!(applied.mode, crate::config::HybridMode::Flat, "mode kept");
    }

    #[test]
    fn invalid_overrides_surface_config_errors() {
        let bad = |knobs: Knobs| {
            FleetPolicy {
                knobs,
                ..FleetPolicy::default()
            }
            .validate()
            .expect_err("invalid")
            .error
        };
        assert_eq!(
            bad(Knobs {
                commit_k: Some(-1.0),
                ..Knobs::default()
            }),
            ConfigError::NegativeCommitK
        );
        assert_eq!(
            bad(Knobs {
                stage_ways: Some(0),
                ..Knobs::default()
            }),
            ConfigError::ZeroStageWays
        );
        assert!(matches!(
            bad(Knobs {
                blocks_per_super: Some(3),
                ..Knobs::default()
            }),
            ConfigError::Geometry(_)
        ));
        // Legal in cache mode, but every flat and mixed run would refuse it.
        assert_eq!(
            bad(Knobs {
                assoc: Some(4),
                ..Knobs::default()
            }),
            ConfigError::LowAssocFlat
        );
        // Checked against the mixed design point although cache mode
        // ignores it.
        assert_eq!(
            bad(Knobs {
                flat_fraction: Some(1.0),
                ..Knobs::default()
            }),
            ConfigError::BadFlatFraction
        );
        // Bounded sizes: a runaway width never reaches an allocation.
        assert!(matches!(
            bad(Knobs {
                blocks_per_super: Some(1 << 40),
                ..Knobs::default()
            }),
            ConfigError::Geometry(_)
        ));
        assert_eq!(
            bad(Knobs {
                stage_bytes: Some(0),
                stage_ways: Some(1 << 40),
                ..Knobs::default()
            }),
            ConfigError::StageWaysExceedFast
        );
        assert_eq!(
            bad(Knobs {
                stage_bytes: Some(u64::MAX),
                ..Knobs::default()
            }),
            ConfigError::NoDataArea
        );
    }

    #[test]
    fn validation_walks_every_divisor() {
        // One 1024-way set fills the stage area at divisor 256, and is
        // larger than the stage area from divisor 512 on.
        let p = FleetPolicy {
            knobs: Knobs {
                stage_ways: Some(1024),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        let err = p.validate().expect_err("invalid on smaller machines");
        assert_eq!(
            err,
            PolicyError {
                divisor: 512,
                error: ConfigError::StageSmallerThanSet
            }
        );
        assert!(err.to_string().ends_with("at scale divisor 512"), "{err}");
        // A knob that is illegal everywhere names the paper's machine.
        let p = FleetPolicy {
            knobs: Knobs {
                commit_k: Some(-1.0),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        assert_eq!(p.validate().expect_err("invalid").divisor, 1);
    }

    #[test]
    fn json_round_trip_and_unknown_keys() {
        let p = FleetPolicy {
            generation: 3,
            knobs: Knobs {
                commit_k: Some(2.5),
                commit_all: Some(true),
                use_cpack: Some(false),
                stage_ways: Some(8),
                ..Knobs::default()
            },
            job_deadline_ms: Some(5000),
            checkpoint_every: Some(20_000),
        };
        let doc = json::parse(&p.to_json().render()).expect("rendered JSON parses");
        assert_eq!(FleetPolicy::from_json(&doc).expect("round trip"), p);
        let bad = json::parse(r#"{"comit_k": 2.0}"#).expect("parses");
        let err = FleetPolicy::from_json(&bad).expect_err("typo rejected");
        assert!(err.contains("comit_k"), "{err}");
        let zero = json::parse(r#"{"job_deadline_ms": 0}"#).expect("parses");
        assert!(FleetPolicy::from_json(&zero).is_err());
        let null_k = json::parse(r#"{"commit_k": null}"#).expect("parses");
        assert!(FleetPolicy::from_json(&null_k).is_err());
    }

    /// Policy documents in the format that predates [`Knobs`]: each must
    /// parse and re-render byte for byte.
    #[test]
    fn legacy_policy_documents_render_byte_identically() {
        for doc in [
            r#"{"generation":0}"#,
            r#"{"generation":7,"scrub_interval":100000}"#,
            r#"{"generation":3,"commit_k":2.5,"commit_all":true,"use_cpack":false,"stage_ways":8,"job_deadline_ms":5000,"checkpoint_every":20000}"#,
            r#"{"generation":9,"commit_k":0.5,"cacheline_aligned":false,"zero_opt":true,"compressed_writeback":true,"two_level_replacement":false,"scrub_interval":77,"job_deadline_ms":1}"#,
            r#"{"generation":2,"commit_k":4,"job_deadline_ms":1}"#,
        ] {
            let parsed = FleetPolicy::from_json(&json::parse(doc).expect("parses"))
                .expect("legacy policy accepted");
            assert_eq!(parsed.to_json().render(), doc);
        }
    }

    #[test]
    fn infinite_commit_k_is_spelled_inf() {
        let knobs = Knobs {
            commit_k: Some(f64::INFINITY),
            ..Knobs::default()
        };
        assert_eq!(knobs.to_json().render(), r#"{"commit_k":"inf"}"#);
        let back = Knobs::from_json(&json::parse(r#"{"commit_k":"inf"}"#).expect("parses"))
            .expect("inf accepted");
        assert_eq!(back, knobs);
        assert_eq!(
            knobs.diff_from(&Knobs::default()),
            vec![("commit_k", "default".to_owned(), "inf".to_owned())]
        );
        let err = Knobs::from_json(&json::parse(r#"{"commit_k":"lots"}"#).expect("parses"))
            .expect_err("only inf is a string");
        assert!(err.contains("commit_k"), "{err}");
    }

    #[test]
    fn diff_names_changed_knobs_with_default_for_absent() {
        let active = FleetPolicy {
            knobs: Knobs {
                commit_k: Some(2.0),
                zero_opt: Some(false),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        let staged = FleetPolicy {
            knobs: Knobs {
                commit_k: Some(2.5),
                scrub_interval: Some(1000),
                ..Knobs::default()
            },
            checkpoint_every: Some(500),
            ..FleetPolicy::default()
        };
        assert_eq!(
            staged.diff_from(&active),
            vec![
                ("commit_k", "2".to_owned(), "2.5".to_owned()),
                ("zero_opt", "false".to_owned(), "default".to_owned()),
                ("scrub_interval", "default".to_owned(), "1000".to_owned()),
                ("checkpoint_every", "default".to_owned(), "500".to_owned()),
            ]
        );
        assert!(
            staged.diff_from(&staged).is_empty(),
            "identical policies diff to nothing"
        );
    }

    /// Generates an overlay with each knob independently set or not,
    /// `commit_k = inf` included.
    fn gen_knobs(g: &mut Gen) -> Knobs {
        let mut k = Knobs::default();
        if g.bool() {
            k.commit_k = Some(match g.choice(3) {
                0 => f64::INFINITY,
                1 => g.range(0, 8) as f64,
                _ => g.f64(),
            });
        }
        if g.bool() {
            k.commit_all = Some(g.bool());
        }
        if g.bool() {
            k.cacheline_aligned = Some(g.bool());
        }
        if g.bool() {
            k.zero_opt = Some(g.bool());
        }
        if g.bool() {
            k.use_cpack = Some(g.bool());
        }
        if g.bool() {
            k.compressed_writeback = Some(g.bool());
        }
        if g.bool() {
            k.two_level_replacement = Some(g.bool());
        }
        if g.bool() {
            k.scrub_interval = Some(g.u64());
        }
        if g.bool() {
            k.stage_ways = Some(g.usize_range(0, 64));
        }
        if g.bool() {
            k.stage_bytes = Some(g.u64());
        }
        if g.bool() {
            k.blocks_per_super = Some(g.range(0, 64));
        }
        if g.bool() {
            k.sub_bytes = Some(g.range(0, 4096));
        }
        if g.bool() {
            k.decompress_cycles = Some(g.range(0, 100));
        }
        if g.bool() {
            k.victim_policy = Some(VICTIM_POLICIES[g.choice(VICTIM_POLICIES.len())].0);
        }
        if g.bool() {
            k.assoc = Some(if g.bool() {
                usize::MAX
            } else {
                g.usize_range(0, 64)
            });
        }
        if g.bool() {
            k.flat_fraction = Some(g.f64());
        }
        k
    }

    #[test]
    fn knobs_round_trip_through_json_and_wire() {
        props("knobs_round_trip_through_json_and_wire").run(|g| {
            let knobs = gen_knobs(g);
            let doc = json::parse(&knobs.to_json().render()).expect("rendered JSON parses");
            assert_eq!(Knobs::from_json(&doc).expect("JSON round trip"), knobs);
            let policy = FleetPolicy {
                generation: g.u64(),
                knobs,
                job_deadline_ms: g.bool().then(|| g.range(1, 1 << 40)),
                checkpoint_every: g.bool().then(|| g.range(1, 1 << 40)),
            };
            let doc = json::parse(&policy.to_json().render()).expect("parses");
            assert_eq!(FleetPolicy::from_json(&doc).expect("policy JSON"), policy);
            let mut w = Writer::new();
            policy.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(FleetPolicy::load_state(&mut r).expect("decodes"), policy);
            r.finish().expect("fully consumed");
            assert!(policy.diff_from(&policy).is_empty());
            assert_eq!(knobs.is_empty(), knobs == Knobs::default());
        });
    }

    #[test]
    fn or_prefers_the_upper_overlay() {
        let spec = Knobs {
            commit_k: Some(0.0),
            ..Knobs::default()
        };
        let policy = Knobs {
            commit_k: Some(2.0),
            zero_opt: Some(false),
            ..Knobs::default()
        };
        let merged = spec.or(&policy);
        assert_eq!(merged.commit_k, Some(0.0));
        assert_eq!(merged.zero_opt, Some(false));
    }

    #[test]
    fn load_rejects_invalid_files() {
        let dir = std::env::temp_dir().join(format!("baryon-policy-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let good = dir.join("good.json");
        std::fs::write(&good, r#"{"commit_k": 2.0}"#).expect("write");
        assert_eq!(
            FleetPolicy::load(&good).expect("loads").knobs.commit_k,
            Some(2.0)
        );
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"commit_k": -3.0}"#).expect("write");
        let err = FleetPolicy::load(&bad).expect_err("invalid config rejected");
        assert!(err.contains("commit_k"), "{err}");
        let missing = dir.join("nope.json");
        assert!(FleetPolicy::load(&missing).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
