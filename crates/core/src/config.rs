//! Baryon controller configuration.

use crate::addr::Geometry;
use baryon_mem::FaultConfig;
use baryon_sim::Cycle;
use baryon_workloads::Scale;
use std::error::Error;
use std::fmt;

/// How the fast memory is exposed (§II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridMode {
    /// Fast memory is an OS-invisible cache; the OS-physical space equals
    /// the slow memory.
    Cache,
    /// Fast memory is part of the OS-physical space (fully-associative in
    /// this implementation, matching the paper's evaluated Baryon-FA/Hybrid2
    /// flat configurations).
    Flat,
    /// A static combination: part of the fast data area is OS-visible flat
    /// space, the rest is an OS-invisible cache (§III-A: the fast memory
    /// "can be flexibly (but statically) partitioned into cache and flat
    /// areas"). Fully-associative, like the flat scheme.
    Mixed,
}

/// Victim selection for the cache/flat data area (§III-E notes the choice
/// is orthogonal to Baryon; the paper uses LRU for low-associative
/// configurations and FIFO for high-associative ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// The paper's default: LRU when low-associative, FIFO when
    /// fully-associative.
    Auto,
    /// Least-recently-used.
    Lru,
    /// Insertion-order FIFO.
    Fifo,
    /// Deterministic pseudo-random.
    Random,
    /// CLOCK (second-chance) approximation of LRU.
    Clock,
    /// Least-frequently-used (decayed access counts).
    Lfu,
}

/// A violated configuration invariant, typed so callers can branch on the
/// exact constraint instead of grepping message text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The block/sub-block/super-block geometry is inconsistent.
    Geometry(String),
    /// `fast_bytes` or `slow_bytes` is zero.
    ZeroCapacity,
    /// A capacity is not a multiple of the block size.
    MisalignedCapacity,
    /// A non-zero stage area holds fewer blocks than one set.
    StageSmallerThanSet,
    /// `stage_ways` is zero.
    ZeroStageWays,
    /// `stage_ways` exceeds the fast memory's blocks. A disabled stage
    /// (`stage_bytes` 0) still allocates one set of that many ways.
    StageWaysExceedFast,
    /// `assoc` is zero.
    ZeroAssoc,
    /// Stage area plus metadata consume the whole fast memory.
    NoDataArea,
    /// `commit_k` is negative.
    NegativeCommitK,
    /// A flat or mixed mode with set-associative (non-FA) organization.
    LowAssocFlat,
    /// A mixed mode whose `flat_fraction` is not strictly inside (0, 1).
    BadFlatFraction,
    /// A fault-injection config is invalid; `device` is `"fault_fast"` or
    /// `"fault_slow"`.
    Fault {
        /// Which device's fault config failed.
        device: &'static str,
        /// The underlying fault-config error.
        reason: String,
    },
    /// A multi-level remap `region_blocks` that is zero, not a power of
    /// two, or not a multiple of `blocks_per_super`.
    BadRemapRegion,
    /// A multi-level remap with a zero-byte hot-level cache.
    ZeroHotCache,
    /// A controller-family name with no entry in the
    /// [`FamilyId`](crate::family::FamilyId) registry.
    UnknownFamily(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: ")?;
        match self {
            ConfigError::Geometry(reason) => f.write_str(reason),
            ConfigError::ZeroCapacity => f.write_str("memory capacities must be non-zero"),
            ConfigError::MisalignedCapacity => f.write_str("capacities must be block-aligned"),
            ConfigError::StageSmallerThanSet => f.write_str("stage area smaller than one set"),
            ConfigError::ZeroStageWays => f.write_str("stage_ways must be non-zero"),
            ConfigError::StageWaysExceedFast => {
                f.write_str("stage_ways exceeds the fast memory's blocks")
            }
            ConfigError::ZeroAssoc => f.write_str("assoc must be non-zero"),
            ConfigError::NoDataArea => {
                f.write_str("metadata and stage area leave no fast memory for data")
            }
            ConfigError::NegativeCommitK => f.write_str("commit_k must be non-negative"),
            ConfigError::LowAssocFlat => f.write_str(
                "flat/mixed modes are only supported fully-associative \
                 (the paper's evaluated configuration)",
            ),
            ConfigError::BadFlatFraction => {
                f.write_str("mixed mode needs flat_fraction strictly between 0 and 1")
            }
            ConfigError::Fault { device, reason } => write!(f, "{device}: {reason}"),
            ConfigError::BadRemapRegion => f.write_str(
                "multi-level remap region_blocks must be a power of two \
                 and a multiple of blocks_per_super",
            ),
            ConfigError::ZeroHotCache => {
                f.write_str("multi-level remap needs a non-zero hot-level cache")
            }
            ConfigError::UnknownFamily(name) => {
                write!(f, "unknown controller family `{name}`")
            }
        }
    }
}

/// Which remap metadata structure the controller embeds (the
/// [`RemapStore`](crate::remap::RemapStore) family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapKind {
    /// Baryon's flat table: one 2 B entry per OS block, fully
    /// provisioned in fast memory (§III-C).
    Flat,
    /// The Trimma-style non-uniform multi-level structure: a coarse
    /// root level covers unmigrated regions with one entry; fine leaf
    /// tables exist only where blocks have actually moved.
    MultiLevel {
        /// OS blocks per leaf region (power of two, multiple of
        /// `blocks_per_super`).
        region_blocks: u64,
        /// Hot-level cache capacity in bytes (split between root and
        /// leaf lines).
        hot_bytes: u64,
        /// Hot-level cache hit latency in cycles.
        hot_latency: Cycle,
    },
}

impl RemapKind {
    /// The default Trimma-style parameters: 512-block regions (1 MB of
    /// OS space in the default geometry), an 8 kB hot-level cache, and
    /// a 2-cycle hot hit.
    pub fn default_multi_level() -> Self {
        RemapKind::MultiLevel {
            region_blocks: 512,
            hot_bytes: 8 << 10,
            hot_latency: 2,
        }
    }
}

impl Error for ConfigError {}

/// Full configuration of the Baryon controller.
///
/// Every Fig 12/Fig 13 ablation is a field here; the `default_*`
/// constructors give the paper's default design points.
#[derive(Debug, Clone, PartialEq)]
pub struct BaryonConfig {
    /// Block / sub-block / super-block sizes.
    pub geometry: Geometry,
    /// Cache or flat scheme.
    pub mode: HybridMode,
    /// Total fast-memory capacity (stage area + metadata + data area).
    pub fast_bytes: u64,
    /// Total slow-memory capacity.
    pub slow_bytes: u64,
    /// Stage-area capacity (paper default 64 MB at 4 GB fast; scaled here).
    /// Zero disables the stage area (the Fig 13(c) "no stage" ablation).
    pub stage_bytes: u64,
    /// Stage-area associativity (paper: 4).
    pub stage_ways: usize,
    /// Cache/flat-area associativity: fast blocks per set (paper: 4).
    /// `usize::MAX` selects the fully-associative Baryon-FA organization.
    pub assoc: usize,
    /// Selective-commit weight `k` (Eq. 1; paper default 4).
    /// `f64::INFINITY` selects the stability-only policy.
    pub commit_k: f64,
    /// Commit every stage victim regardless of the cost model (Fig 13(d)).
    pub commit_all: bool,
    /// Enforce cacheline-aligned compression (§III-E; default true).
    pub cacheline_aligned: bool,
    /// Enable the `Z`-bit all-zero range optimization (default true).
    pub zero_opt: bool,
    /// Also try the C-Pack compressor next to FPC/BDI (default false; an
    /// extension beyond the paper's hardware, §III-B "alternative schemes").
    pub use_cpack: bool,
    /// Keep data compressed on fast-to-slow writeback (§III-F; default true).
    pub compressed_writeback: bool,
    /// Allow block-level stage replacements (default true; false restricts
    /// the stage area to sub-block-only replacement, the Fig 13(a) ablation).
    pub two_level_replacement: bool,
    /// Decompression latency on the critical path (paper: 5 cycles).
    pub decompress_cycles: Cycle,
    /// Stage tag array lookup latency (Table I: 5 cycles).
    pub stage_tag_latency: Cycle,
    /// Remap cache hit latency (Table I: 3 cycles).
    pub remap_cache_latency: Cycle,
    /// Remap cache capacity in bytes (paper: 32 kB; fixed SRAM, not scaled).
    pub remap_cache_bytes: u64,
    /// Counter-aging period for the selective-commit counters (per-set
    /// accesses between right-shifts; paper: 10000).
    pub aging_period: u64,
    /// Cache/flat-area victim selection policy.
    pub victim_policy: VictimPolicy,
    /// Fraction of the data area that is OS-visible flat space in
    /// [`HybridMode::Mixed`] (ignored otherwise).
    pub flat_fraction: f64,
    /// Fault injection on the fast (DDR4) device. Disabled by default;
    /// enabling it activates the controller's detection/recovery paths.
    pub fault_fast: FaultConfig,
    /// Fault injection on the slow (NVM) device.
    pub fault_slow: FaultConfig,
    /// Demand reads between metadata-scrub passes (0 disables scrubbing).
    pub scrub_interval: u64,
    /// Remap metadata structure: the classic flat table, or the
    /// Trimma-style multi-level store (the `trimma` family).
    pub remap: RemapKind,
}

impl BaryonConfig {
    /// The default stage-area size at a scale. The paper uses 64 MB of the
    /// 4 GB fast memory; when capacities scale down the core count does
    /// not, so stage *residency time* (what Fig 4 shows stabilizing
    /// layouts) must be protected with a floor of `min(2 MB, fast/8)`
    /// (see DESIGN.md, "Scaling").
    pub fn default_stage_bytes(scale: Scale) -> u64 {
        let proportional = (64 << 20) / scale.divisor;
        let floor = (2 << 20).min(scale.fast_bytes() / 8);
        proportional.max(floor) & !2047
    }

    /// The paper's default cache-mode design point at a given scale:
    /// 4-way cache area, 256 B sub-blocks, 64 MB-equivalent stage area,
    /// k = 4, all optimizations on.
    pub fn default_cache_mode(scale: Scale) -> Self {
        BaryonConfig {
            geometry: Geometry::baryon_default(),
            mode: HybridMode::Cache,
            fast_bytes: scale.fast_bytes(),
            slow_bytes: scale.slow_bytes(),
            stage_bytes: Self::default_stage_bytes(scale),
            // Table I uses 4-way staging over 8192 sets. Scaled-down stage
            // areas have far fewer sets for the same 16 cores, so active
            // streams collide and commit mid-fill; 8 ways at the same
            // capacity removes that artifact (see DESIGN.md).
            stage_ways: if scale.divisor > 4 { 8 } else { 4 },
            assoc: 4,
            commit_k: 4.0,
            commit_all: false,
            cacheline_aligned: true,
            zero_opt: true,
            use_cpack: false,
            compressed_writeback: true,
            two_level_replacement: true,
            decompress_cycles: 5,
            stage_tag_latency: 5,
            remap_cache_latency: 3,
            remap_cache_bytes: 32 << 10,
            aging_period: 10_000,
            victim_policy: VictimPolicy::Auto,
            flat_fraction: 0.0,
            fault_fast: FaultConfig::default(),
            fault_slow: FaultConfig::default(),
            scrub_interval: 0,
            remap: RemapKind::Flat,
        }
    }

    /// The `trimma` design point: the cache-mode controller with the
    /// flat remap table swapped for the Trimma-style multi-level store.
    /// Regions of 512 blocks (1 MB of OS space in the default geometry)
    /// keep the root level tiny; an 8 kB hot-level cache resolves both
    /// levels on-chip in 2 cycles — smaller and faster than the 32 kB /
    /// 3-cycle flat remap cache because it only needs reach over live
    /// leaves plus root lines.
    pub fn default_trimma(scale: Scale) -> Self {
        BaryonConfig {
            remap: RemapKind::default_multi_level(),
            ..Self::default_cache_mode(scale)
        }
    }

    /// The fully-associative flat-mode design point (Baryon-FA, Fig 10).
    pub fn default_flat_fa(scale: Scale) -> Self {
        BaryonConfig {
            mode: HybridMode::Flat,
            assoc: usize::MAX,
            flat_fraction: 1.0,
            ..Self::default_cache_mode(scale)
        }
    }

    /// A static cache + flat combination (§III-A): `flat_fraction` of the
    /// data area is OS-visible, the rest serves as a cache.
    ///
    /// # Panics
    ///
    /// Panics unless `flat_fraction` is within (0, 1). Use
    /// [`BaryonConfig::builder`] with [`BaryonConfigBuilder::mixed`] for
    /// the fallible version.
    pub fn default_mixed(scale: Scale, flat_fraction: f64) -> Self {
        Self::builder(scale)
            .mixed(flat_fraction)
            .build()
            .expect("mixed mode needs a flat fraction strictly between 0 and 1")
    }

    /// True if the cache/flat area is fully associative.
    pub fn is_fully_associative(&self) -> bool {
        self.assoc == usize::MAX || self.assoc >= self.data_blocks()
    }

    /// Stage-area capacity in 2 kB physical blocks.
    pub fn stage_blocks(&self) -> usize {
        (self.stage_bytes / self.geometry.block_bytes) as usize
    }

    /// Stage-area sets.
    pub fn stage_sets(&self) -> usize {
        (self.stage_blocks() / self.stage_ways).max(1)
    }

    /// Bytes of fast memory consumed by the off-chip remap table
    /// (2 B per data block over the whole OS-physical space).
    pub fn remap_table_bytes(&self) -> u64 {
        let total_blocks = (self.fast_bytes + self.slow_bytes) / self.geometry.block_bytes;
        total_blocks * 2
    }

    /// Bytes of fast memory *reserved* for the remap structure. The flat
    /// table reserves exactly [`BaryonConfig::remap_table_bytes`]; the
    /// multi-level store additionally reserves its root level (and sizes
    /// the leaf pool for the worst case where every region has a leaf,
    /// padded to whole super-block lines). The runtime footprint of the
    /// multi-level store is usually far below this reservation — that
    /// delta is what `BENCH_metadata.json` measures.
    pub fn remap_reserved_bytes(&self) -> u64 {
        match self.remap {
            RemapKind::Flat => self.remap_table_bytes(),
            RemapKind::MultiLevel { region_blocks, .. } => {
                let bps = self.geometry.blocks_per_super.max(1);
                let line = (bps * 2).next_power_of_two().max(16);
                let total_blocks = (self.fast_bytes + self.slow_bytes) / self.geometry.block_bytes;
                let regions = total_blocks.div_ceil(region_blocks.max(1));
                let leaf_bytes = region_blocks.max(1) / bps * line;
                (regions * 2).next_multiple_of(64) + regions * leaf_bytes
            }
        }
    }

    /// Fast-memory bytes left for the cache/flat data area.
    pub fn data_area_bytes(&self) -> u64 {
        let meta = self.stage_bytes.saturating_add(self.remap_reserved_bytes());
        self.fast_bytes.saturating_sub(meta) / self.geometry.block_bytes * self.geometry.block_bytes
    }

    /// Fast data-area capacity in blocks.
    pub fn data_blocks(&self) -> usize {
        (self.data_area_bytes() / self.geometry.block_bytes) as usize
    }

    /// Number of cache/flat-area sets.
    pub fn num_sets(&self) -> usize {
        if self.is_fully_associative() {
            1
        } else {
            (self.data_blocks() / self.assoc).max(1)
        }
    }

    /// Effective associativity (ways per set).
    pub fn effective_assoc(&self) -> usize {
        if self.is_fully_associative() {
            self.data_blocks()
        } else {
            self.assoc
        }
    }

    /// Fast data-area blocks that are OS-visible flat space.
    pub fn flat_blocks(&self) -> u64 {
        match self.mode {
            HybridMode::Cache => 0,
            HybridMode::Flat => self.data_blocks() as u64,
            HybridMode::Mixed => (self.data_blocks() as f64 * self.flat_fraction).floor() as u64,
        }
    }

    /// OS-physical space in bytes: slow memory only (cache mode) or the
    /// flat fast area plus slow memory (flat/mixed modes).
    pub fn os_space_bytes(&self) -> u64 {
        self.flat_blocks() * self.geometry.block_bytes + self.slow_bytes
    }

    /// Total OS-visible blocks.
    pub fn os_blocks(&self) -> u64 {
        self.os_space_bytes() / self.geometry.block_bytes
    }

    /// On-chip SRAM budget: (stage tag array bytes, remap cache bytes).
    ///
    /// Stage tag entries are 14 B each in the default geometry (§III-B);
    /// with other geometries the entry grows/shrinks with the number of
    /// sub-block slots (1 B per slot field plus the 6 B of tag/valid/LRU/
    /// FIFO/MissCnt bookkeeping).
    pub fn sram_budget(&self) -> (u64, u64) {
        let slot_fields = self.geometry.subs_per_block() as u64;
        let entry_bytes = 6 + slot_fields;
        (
            self.stage_blocks() as u64 * entry_bytes,
            self.remap_cache_bytes,
        )
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.geometry.validate().map_err(ConfigError::Geometry)?;
        if self.fast_bytes == 0 || self.slow_bytes == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if !self.fast_bytes.is_multiple_of(self.geometry.block_bytes)
            || !self.slow_bytes.is_multiple_of(self.geometry.block_bytes)
        {
            return Err(ConfigError::MisalignedCapacity);
        }
        if self.stage_bytes > 0 && self.stage_blocks() < self.stage_ways {
            return Err(ConfigError::StageSmallerThanSet);
        }
        if self.stage_ways == 0 {
            return Err(ConfigError::ZeroStageWays);
        }
        if self.stage_ways as u64 > self.fast_bytes / self.geometry.block_bytes {
            return Err(ConfigError::StageWaysExceedFast);
        }
        if self.assoc == 0 {
            return Err(ConfigError::ZeroAssoc);
        }
        if self.data_blocks() == 0 {
            return Err(ConfigError::NoDataArea);
        }
        if self.commit_k < 0.0 {
            return Err(ConfigError::NegativeCommitK);
        }
        if matches!(self.mode, HybridMode::Flat | HybridMode::Mixed) && !self.is_fully_associative()
        {
            return Err(ConfigError::LowAssocFlat);
        }
        if matches!(self.mode, HybridMode::Mixed)
            && !(self.flat_fraction > 0.0 && self.flat_fraction < 1.0)
        {
            return Err(ConfigError::BadFlatFraction);
        }
        if let RemapKind::MultiLevel {
            region_blocks,
            hot_bytes,
            ..
        } = self.remap
        {
            if !region_blocks.is_power_of_two()
                || !region_blocks.is_multiple_of(self.geometry.blocks_per_super)
            {
                return Err(ConfigError::BadRemapRegion);
            }
            if hot_bytes == 0 {
                return Err(ConfigError::ZeroHotCache);
            }
        }
        self.fault_fast.validate().map_err(|e| ConfigError::Fault {
            device: "fault_fast",
            reason: e,
        })?;
        self.fault_slow.validate().map_err(|e| ConfigError::Fault {
            device: "fault_slow",
            reason: e,
        })?;
        Ok(())
    }

    /// Starts a builder pre-filled with [`BaryonConfig::default_cache_mode`]
    /// at the given scale. Finish with [`BaryonConfigBuilder::build`], which
    /// validates and returns the typed [`ConfigError`] for any violated
    /// invariant — the fallible mirror of the panicking `default_*`
    /// constructors.
    pub fn builder(scale: Scale) -> BaryonConfigBuilder {
        BaryonConfigBuilder {
            cfg: Self::default_cache_mode(scale),
        }
    }
}

/// Fluent, validating construction of a [`BaryonConfig`].
///
/// ```
/// use baryon_core::config::{BaryonConfig, ConfigError};
/// use baryon_workloads::Scale;
///
/// let cfg = BaryonConfig::builder(Scale { divisor: 1024 })
///     .commit_k(2.0)
///     .zero_opt(false)
///     .build()
///     .expect("valid");
/// assert_eq!(cfg.commit_k, 2.0);
///
/// let err = BaryonConfig::builder(Scale { divisor: 1024 })
///     .stage_ways(0)
///     .build()
///     .expect_err("invalid");
/// assert_eq!(err, ConfigError::ZeroStageWays);
/// ```
#[derive(Debug, Clone)]
pub struct BaryonConfigBuilder {
    cfg: BaryonConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}

impl BaryonConfigBuilder {
    builder_setters! {
        /// Sets the hybrid mode (cache / flat / mixed).
        mode: HybridMode,
        /// Sets the total fast-memory capacity.
        fast_bytes: u64,
        /// Sets the total slow-memory capacity.
        slow_bytes: u64,
        /// Sets the stage-area capacity (0 disables the stage area).
        stage_bytes: u64,
        /// Sets the stage-area associativity.
        stage_ways: usize,
        /// Sets the data-area associativity (`usize::MAX` for FA).
        assoc: usize,
        /// Sets the selective-commit weight `k`.
        commit_k: f64,
        /// Commits every stage victim regardless of the cost model.
        commit_all: bool,
        /// Enforces cacheline-aligned compression.
        cacheline_aligned: bool,
        /// Enables the `Z`-bit all-zero range optimization.
        zero_opt: bool,
        /// Also tries the C-Pack compressor.
        use_cpack: bool,
        /// Keeps data compressed on fast-to-slow writeback.
        compressed_writeback: bool,
        /// Allows block-level stage replacements.
        two_level_replacement: bool,
        /// Sets the data-area victim-selection policy.
        victim_policy: VictimPolicy,
        /// Sets the OS-visible fraction of the data area (mixed mode).
        flat_fraction: f64,
        /// Sets fault injection on the fast device.
        fault_fast: FaultConfig,
        /// Sets fault injection on the slow device.
        fault_slow: FaultConfig,
        /// Sets the metadata-scrub interval (0 disables scrubbing).
        scrub_interval: u64,
        /// Sets the remap metadata structure (flat or multi-level).
        remap: RemapKind,
    }

    /// Switches the remap structure to the Trimma-style multi-level
    /// store with the [`BaryonConfig::default_trimma`] parameters.
    #[must_use]
    pub fn trimma(mut self) -> Self {
        self.cfg.remap = RemapKind::default_multi_level();
        self
    }

    /// Switches to the fully-associative flat organization
    /// (the [`BaryonConfig::default_flat_fa`] design point).
    #[must_use]
    pub fn flat_fa(mut self) -> Self {
        self.cfg.mode = HybridMode::Flat;
        self.cfg.assoc = usize::MAX;
        self.cfg.flat_fraction = 1.0;
        self
    }

    /// Switches to the mixed cache + flat organization with the given
    /// OS-visible fraction ([`BaryonConfig::default_mixed`], but fallible:
    /// an out-of-range fraction surfaces as
    /// [`ConfigError::BadFlatFraction`] from [`BaryonConfigBuilder::build`]
    /// instead of a panic).
    #[must_use]
    pub fn mixed(mut self, flat_fraction: f64) -> Self {
        self.cfg.mode = HybridMode::Mixed;
        self.cfg.assoc = usize::MAX;
        self.cfg.flat_fraction = flat_fraction;
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// The typed [`ConfigError`] for the first violated invariant.
    pub fn build(self) -> Result<BaryonConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> Scale {
        Scale::default()
    }

    #[test]
    fn default_cache_mode_valid() {
        let c = BaryonConfig::default_cache_mode(scale());
        c.validate().expect("valid");
        assert_eq!(c.mode, HybridMode::Cache);
        assert!(!c.is_fully_associative());
        // 64 MB / 256 = 256 kB proportional, floored at min(2 MB, fast/8).
        assert_eq!(c.stage_bytes, 2 << 20);
    }

    #[test]
    fn stage_scaling_rule() {
        // Paper scale: exactly 64 MB.
        assert_eq!(
            BaryonConfig::default_stage_bytes(Scale { divisor: 1 }),
            64 << 20
        );
        // Moderate scale: proportional wins.
        assert_eq!(
            BaryonConfig::default_stage_bytes(Scale { divisor: 16 }),
            4 << 20
        );
        // Deep scale: the residency floor wins, capped at fast/8.
        assert_eq!(
            BaryonConfig::default_stage_bytes(Scale { divisor: 1024 }),
            512 << 10
        );
    }

    #[test]
    fn default_flat_fa_valid() {
        let c = BaryonConfig::default_flat_fa(scale());
        c.validate().expect("valid");
        assert!(c.is_fully_associative());
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.effective_assoc(), c.data_blocks());
    }

    #[test]
    fn data_area_excludes_metadata() {
        let c = BaryonConfig::default_cache_mode(scale());
        assert!(c.data_area_bytes() < c.fast_bytes);
        assert!(c.fast_bytes - c.data_area_bytes() >= c.stage_bytes + c.remap_table_bytes() - 2047);
    }

    #[test]
    fn remap_table_is_tiny_fraction() {
        // Paper: "the full remap table occupies only 0.1% of the total
        // system memory capacity".
        let c = BaryonConfig::default_cache_mode(scale());
        let frac = c.remap_table_bytes() as f64 / (c.fast_bytes + c.slow_bytes) as f64;
        assert!(frac < 0.0011, "remap table fraction {frac}");
    }

    #[test]
    fn stage_tag_entry_is_14_bytes_default() {
        let c = BaryonConfig::default_cache_mode(scale());
        let (stage_tag, remap_cache) = c.sram_budget();
        assert_eq!(stage_tag / c.stage_blocks() as u64, 14);
        assert_eq!(remap_cache, 32 << 10);
    }

    #[test]
    fn paper_scale_sram_budget() {
        // At the paper's scale the stage tag array must be 448 kB.
        let c = BaryonConfig::default_cache_mode(Scale { divisor: 1 });
        let (stage_tag, _) = c.sram_budget();
        assert_eq!(stage_tag, 448 << 10);
        assert_eq!(c.stage_sets(), 8192);
    }

    #[test]
    fn os_space_depends_on_mode() {
        let cache = BaryonConfig::default_cache_mode(scale());
        let flat = BaryonConfig::default_flat_fa(scale());
        assert_eq!(cache.os_space_bytes(), cache.slow_bytes);
        assert!(flat.os_space_bytes() > flat.slow_bytes);
    }

    #[test]
    fn low_assoc_flat_rejected() {
        let mut c = BaryonConfig::default_flat_fa(scale());
        c.assoc = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_stage_is_valid_ablation() {
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.stage_bytes = 0;
        c.validate().expect("no-stage ablation is valid");
        assert_eq!(c.stage_blocks(), 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.assoc = 0;
        assert!(c.validate().is_err());
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.fast_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.commit_k = -1.0;
        assert!(c.validate().is_err());
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.fast_bytes = 12345; // not block aligned
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_rates_are_validated() {
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.validate().expect("disabled faults are valid");
        c.fault_fast.bit_flip_rate = 1.5;
        let err = c.validate().expect_err("invalid rate");
        assert!(err.to_string().contains("fault_fast"));
        c.fault_fast.bit_flip_rate = 1e-4;
        c.fault_slow.stuck_at_rate = -0.1;
        let err = c.validate().expect_err("invalid rate");
        assert!(err.to_string().contains("fault_slow"));
        c.fault_slow.stuck_at_rate = 1e-6;
        c.validate().expect("valid rates accepted");
    }

    #[test]
    fn error_display_is_meaningful() {
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.stage_ways = 0;
        let err = c.validate().expect_err("invalid");
        assert_eq!(err, ConfigError::ZeroStageWays);
        assert!(err.to_string().contains("stage_ways"));
    }

    #[test]
    fn stage_knobs_cannot_outgrow_fast_memory() {
        // A disabled stage keeps its default ways; it still allocates one
        // set of them, so an absurd width is refused.
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.stage_bytes = 0;
        c.validate().expect("no-stage design point is valid");
        c.stage_ways = 1 << 40;
        assert_eq!(c.validate(), Err(ConfigError::StageWaysExceedFast));
        // A stage near u64::MAX must not wrap the metadata sum.
        let mut c = BaryonConfig::default_cache_mode(scale());
        c.stage_bytes = u64::MAX - 4095;
        assert_eq!(c.validate(), Err(ConfigError::NoDataArea));
        c.stage_bytes = c.fast_bytes;
        assert_eq!(c.validate(), Err(ConfigError::NoDataArea));
    }

    #[test]
    fn builder_defaults_match_default_cache_mode() {
        let built = BaryonConfig::builder(scale()).build().expect("valid");
        assert_eq!(built, BaryonConfig::default_cache_mode(scale()));
        let fa = BaryonConfig::builder(scale())
            .flat_fa()
            .build()
            .expect("valid");
        assert_eq!(fa, BaryonConfig::default_flat_fa(scale()));
        let mixed = BaryonConfig::builder(scale())
            .mixed(0.5)
            .build()
            .expect("valid");
        assert_eq!(mixed, BaryonConfig::default_mixed(scale(), 0.5));
    }

    #[test]
    fn builder_returns_typed_errors_instead_of_asserting() {
        let err = BaryonConfig::builder(scale())
            .mixed(1.5)
            .build()
            .expect_err("fraction out of range");
        assert_eq!(err, ConfigError::BadFlatFraction);
        let err = BaryonConfig::builder(scale())
            .assoc(0)
            .build()
            .expect_err("zero assoc");
        assert_eq!(err, ConfigError::ZeroAssoc);
        let err = BaryonConfig::builder(scale())
            .fast_bytes(0)
            .build()
            .expect_err("zero capacity");
        assert_eq!(err, ConfigError::ZeroCapacity);
        let err = BaryonConfig::builder(scale())
            .commit_k(-1.0)
            .build()
            .expect_err("negative k");
        assert_eq!(err, ConfigError::NegativeCommitK);
        let bad = baryon_mem::FaultConfig {
            bit_flip_rate: 2.0,
            ..Default::default()
        };
        let err = BaryonConfig::builder(scale())
            .fault_fast(bad)
            .build()
            .expect_err("bad rate");
        assert!(matches!(
            err,
            ConfigError::Fault {
                device: "fault_fast",
                ..
            }
        ));
    }

    #[test]
    fn builder_applies_every_setter() {
        let cfg = BaryonConfig::builder(scale())
            .stage_bytes(0)
            .stage_ways(2)
            .commit_all(true)
            .cacheline_aligned(false)
            .zero_opt(false)
            .use_cpack(true)
            .compressed_writeback(false)
            .two_level_replacement(false)
            .victim_policy(VictimPolicy::Clock)
            .scrub_interval(500)
            .build()
            .expect("valid");
        assert_eq!(cfg.stage_bytes, 0);
        assert_eq!(cfg.stage_ways, 2);
        assert!(cfg.commit_all);
        assert!(!cfg.cacheline_aligned);
        assert!(!cfg.zero_opt);
        assert!(cfg.use_cpack);
        assert!(!cfg.compressed_writeback);
        assert!(!cfg.two_level_replacement);
        assert_eq!(cfg.victim_policy, VictimPolicy::Clock);
        assert_eq!(cfg.scrub_interval, 500);
    }
}
