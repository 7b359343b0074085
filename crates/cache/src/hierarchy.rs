//! The three-level cache hierarchy of the simulated 16-core machine.

use crate::setassoc::{CacheConfig, SetAssocCache};
use baryon_sim::telemetry::Registry;
use baryon_sim::wire::{Reader, WireError, Writer};
use baryon_sim::Cycle;

/// Hierarchy geometry; defaults follow Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (= number of private L1D/L2 pairs).
    pub cores: usize,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's 16-core configuration (Table I): 64 kB 8-way L1D,
    /// 1 MB 8-way L2 (9 cycles), 16 MB 16-way shared LLC (38 cycles).
    pub fn table1() -> Self {
        HierarchyConfig {
            cores: 16,
            l1d: CacheConfig::with_capacity(64 << 10, 8, 64, 4),
            l2: CacheConfig::with_capacity(1 << 20, 8, 64, 9),
            llc: CacheConfig::with_capacity(16 << 20, 16, 64, 38),
        }
    }

    /// A proportionally scaled-down configuration for fast experiments:
    /// capacities divided by `factor`, with set counts rounded to the nearest
    /// power of two and floored at 4 sets per cache (latencies and line size
    /// are architectural and kept unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is 0.
    pub fn table1_scaled(factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        let scaled = |bytes: u64, ways: usize, latency| {
            let sets = (bytes / factor / 64 / ways as u64).max(4);
            let sets = if sets.is_power_of_two() {
                sets
            } else {
                sets.next_power_of_two() / 2
            };
            CacheConfig::new(sets as usize, ways, 64, latency)
        };
        HierarchyConfig {
            cores: 16,
            l1d: scaled(64 << 10, 8, 4),
            l2: scaled(1 << 20, 8, 9),
            llc: scaled(16 << 20, 16, 38),
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared LLC.
    Llc,
    /// Missed the entire hierarchy; memory must be accessed.
    Memory,
}

/// Result of sending one reference through the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierAccess {
    /// Deepest level that had to be consulted.
    pub level: HitLevel,
    /// On-chip latency accumulated before memory is reached (or total
    /// latency for on-chip hits).
    pub latency: Cycle,
    /// Dirty 64 B lines evicted from the LLC that must be written to memory.
    pub writebacks: Vec<u64>,
}

/// The core-private outcome of one reference: everything
/// [`Hierarchy::access`] decides by touching only `core`'s L1D and L2.
///
/// The hand-off record between the two halves of an access, which exist
/// so that a profiler can time the private levels and the LLC layer by
/// layer: [`Hierarchy::access_private`] produces it and
/// [`Hierarchy::access_shared`] consumes it. Composing the two is exactly
/// [`Hierarchy::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivateAccess {
    /// The reference hit in L1D.
    pub l1_hit: bool,
    /// The reference hit in L2 (only meaningful when `!l1_hit`).
    pub l2_hit: bool,
    /// Dirty line pushed from L2 toward the LLC while installing the L1
    /// victim (before the L2 demand lookup).
    pub to_llc_victim: Option<u64>,
    /// Dirty line pushed from L2 toward the LLC by the demand fill
    /// (only possible when the reference missed L2).
    pub to_llc_demand: Option<u64>,
}

/// Per-core L1D and L2 plus a shared LLC.
///
/// Inclusion is not enforced (mostly-exclusive like modern parts); dirty
/// evictions trickle down one level and only LLC evictions reach memory.
///
/// # Examples
///
/// ```
/// use baryon_cache::{Hierarchy, HierarchyConfig};
///
/// let mut h = Hierarchy::new(HierarchyConfig::table1_scaled(256));
/// let first = h.access(0, 0x4000, false);
/// assert_eq!(first.level, baryon_cache::HitLevel::Memory);
/// let second = h.access(0, 0x4000, false);
/// assert_eq!(second.level, baryon_cache::HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1d: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        Hierarchy {
            l1d: (0..cfg.cores)
                .map(|_| SetAssocCache::new(cfg.l1d))
                .collect(),
            l2: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Sends one data reference from `core` through the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores`.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool) -> HierAccess {
        let private = self.access_private(core, addr, is_write);
        self.access_shared(addr, is_write, &private)
    }

    /// The core-private half of [`Hierarchy::access`]: runs the reference
    /// through `core`'s L1D and L2 (contents and LRU mutate; statistics do
    /// not) and records what the shared half needs.
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores`.
    pub fn access_private(&mut self, core: usize, addr: u64, is_write: bool) -> PrivateAccess {
        assert!(core < self.cfg.cores, "core {core} out of range");
        let (l1, l2) = (&mut self.l1d[core], &mut self.l2[core]);
        let mut private = PrivateAccess {
            l1_hit: false,
            l2_hit: false,
            to_llc_victim: None,
            to_llc_demand: None,
        };
        let first = l1.access_quiet(addr, is_write);
        if first.hit {
            private.l1_hit = true;
            return private;
        }
        // L1 dirty victim goes to L2.
        if let Some(ev) = first.eviction.filter(|e| e.dirty) {
            if let Some(l2ev) = l2.install_dirty(ev.addr) {
                if l2ev.dirty {
                    private.to_llc_victim = Some(l2ev.addr);
                }
            }
        }
        let second = l2.access_quiet(addr, false);
        if second.hit {
            private.l2_hit = true;
            return private;
        }
        if let Some(ev) = second.eviction.filter(|e| e.dirty) {
            private.to_llc_demand = Some(ev.addr);
        }
        private
    }

    /// The shared half of [`Hierarchy::access`]: counts the private
    /// hit/miss outcomes into `core`-independent statistics totals, applies
    /// the recorded dirty spills to the LLC in their original order, and
    /// performs the LLC demand lookup. The private levels' statistics are
    /// counted here too, so the private half stays free of bookkeeping.
    pub fn access_shared(
        &mut self,
        addr: u64,
        is_write: bool,
        private: &PrivateAccess,
    ) -> HierAccess {
        // `access_private` pairs each quiet L1 access with this count; the
        // core does not matter because private statistics are summed.
        self.l1d[0].count_access(private.l1_hit, is_write);
        let mut latency = self.cfg.l1d.latency;
        let mut writebacks = Vec::new();
        if private.l1_hit {
            return HierAccess {
                level: HitLevel::L1,
                latency,
                writebacks,
            };
        }
        if let Some(victim) = private.to_llc_victim {
            if let Some(llcev) = self.llc.install_dirty(victim) {
                if llcev.dirty {
                    writebacks.push(llcev.addr);
                }
            }
        }

        latency += self.cfg.l2.latency;
        self.l2[0].count_access(private.l2_hit, false);
        if private.l2_hit {
            return HierAccess {
                level: HitLevel::L2,
                latency,
                writebacks,
            };
        }
        if let Some(demand) = private.to_llc_demand {
            if let Some(llcev) = self.llc.install_dirty(demand) {
                if llcev.dirty {
                    writebacks.push(llcev.addr);
                }
            }
        }

        latency += self.cfg.llc.latency;
        let llc = self.llc.access(addr, false);
        if let Some(ev) = llc.eviction.filter(|e| e.dirty) {
            writebacks.push(ev.addr);
        }
        if llc.hit {
            return HierAccess {
                level: HitLevel::Llc,
                latency,
                writebacks,
            };
        }

        HierAccess {
            level: HitLevel::Memory,
            latency,
            writebacks,
        }
    }

    /// Installs extra decompressed 64 B lines into the LLC (Baryon's
    /// bandwidth-free memory-to-LLC prefetch, §III-E). Returns dirty lines
    /// displaced to memory.
    pub fn install_llc_lines(&mut self, addrs: &[u64]) -> Vec<u64> {
        let mut writebacks = Vec::new();
        for addr in addrs {
            if let Some(ev) = self.llc.install(*addr) {
                if ev.dirty {
                    writebacks.push(ev.addr);
                }
            }
        }
        writebacks
    }

    /// True if the LLC currently holds the line of `addr`.
    pub fn llc_has(&self, addr: u64) -> bool {
        self.llc.probe(addr)
    }

    /// Resets all hit/miss statistics (post-warm-up) but keeps contents.
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1d {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.llc.reset_stats();
    }

    /// Serializes every cache's mutable state (the geometry is rebuilt from
    /// the restored configuration).
    pub fn save_state(&self, w: &mut Writer) {
        w.seq(self.l1d.len());
        for c in &self.l1d {
            c.save_state(w);
        }
        w.seq(self.l2.len());
        for c in &self.l2 {
            c.save_state(w);
        }
        self.llc.save_state(w);
    }

    /// Overlays checkpointed state onto this (freshly constructed)
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a truncated payload or a geometry mismatch.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let n = r.seq()?;
        if n != self.l1d.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for c in &mut self.l1d {
            c.load_state(r)?;
        }
        let n = r.seq()?;
        if n != self.l2.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for c in &mut self.l2 {
            c.load_state(r)?;
        }
        self.llc.load_state(r)
    }

    /// Publishes per-level statistics under `cache.<level>.<metric>`;
    /// private levels are summed across cores.
    pub fn export(&self, reg: &mut Registry) {
        let mut agg = |name: &str, caches: &[SetAssocCache]| {
            let mut level = Registry::new();
            for c in caches {
                let mut s = Registry::new();
                c.stats().export(&mut s);
                level.merge(&s);
            }
            reg.absorb(name, &level);
        };
        agg("cache.l1d", &self.l1d);
        agg("cache.l2", &self.l2);
        let mut llc = Registry::new();
        self.llc.stats().export(&mut llc);
        reg.absorb("cache.llc", &llc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            cores: 2,
            l1d: CacheConfig::new(4, 2, 64, 4),
            l2: CacheConfig::new(8, 2, 64, 9),
            llc: CacheConfig::new(16, 4, 64, 38),
        })
    }

    #[test]
    fn miss_then_l1_hit() {
        let mut h = small();
        assert_eq!(h.access(0, 0, false).level, HitLevel::Memory);
        assert_eq!(h.access(0, 0, false).level, HitLevel::L1);
    }

    #[test]
    fn latencies_accumulate() {
        let mut h = small();
        let miss = h.access(0, 0, false);
        assert_eq!(miss.latency, 4 + 9 + 38);
        let hit = h.access(0, 0, false);
        assert_eq!(hit.latency, 4);
    }

    #[test]
    fn private_caches_are_private() {
        let mut h = small();
        h.access(0, 0, false);
        // Core 1 misses its private levels but hits the shared LLC.
        assert_eq!(h.access(1, 0, false).level, HitLevel::Llc);
    }

    #[test]
    fn llc_prefetch_install_visible() {
        let mut h = small();
        h.install_llc_lines(&[0, 64, 128]);
        assert!(h.llc_has(0) && h.llc_has(64) && h.llc_has(128));
        assert_eq!(h.access(0, 64, false).level, HitLevel::Llc);
    }

    #[test]
    fn dirty_data_eventually_written_back() {
        let mut h = small();
        // Write a line, then stream enough lines through to push it out of
        // all three levels; some access must report it as a writeback.
        h.access(0, 0, true);
        let mut seen = false;
        for i in 1..2000u64 {
            let r = h.access(0, i * 64, false);
            if r.writebacks.contains(&0) {
                seen = true;
                break;
            }
        }
        assert!(seen, "dirty line never surfaced as an LLC writeback");
    }

    #[test]
    fn clean_evictions_produce_no_writebacks() {
        let mut h = small();
        for i in 0..2000u64 {
            let r = h.access(0, i * 64, false);
            assert!(r.writebacks.is_empty(), "clean data wrote back at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        small().access(7, 0, false);
    }

    #[test]
    fn export_has_all_levels() {
        let mut h = small();
        h.access(0, 0, false);
        let mut s = Registry::new();
        h.export(&mut s);
        assert_eq!(s.counter("cache.l1d.read_misses"), 1);
        assert_eq!(s.counter("cache.l2.read_misses"), 1);
        assert_eq!(s.counter("cache.llc.read_misses"), 1);
    }

    #[test]
    fn table1_capacities() {
        let t = HierarchyConfig::table1();
        assert_eq!(t.l1d.capacity(), 64 << 10);
        assert_eq!(t.l2.capacity(), 1 << 20);
        assert_eq!(t.llc.capacity(), 16 << 20);
        assert_eq!(t.cores, 16);
    }
}
