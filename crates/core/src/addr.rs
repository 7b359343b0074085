//! Address geometry: blocks, sub-blocks, super-blocks, sets.
//!
//! Baryon's default geometry (§III):
//!
//! * 64 B cachelines,
//! * 256 B sub-blocks (8 per block),
//! * 2 kB data blocks (aligned with DRAM pages),
//! * 16 kB super-blocks (8 blocks).
//!
//! Addresses flowing through the controller are *OS-physical* byte addresses;
//! [`Geometry`] provides all index arithmetic plus validation.

/// Index arithmetic for the block/sub-block/super-block hierarchy.
///
/// # Examples
///
/// ```
/// use baryon_core::Geometry;
///
/// let g = Geometry::baryon_default();
/// assert_eq!(g.subs_per_block(), 8);
/// assert_eq!(g.block_of(0x1234), 2);           // 0x1234 / 2048
/// assert_eq!(g.sub_of(0x1234), 2);             // byte 0x234 / 256
/// assert_eq!(g.super_of_block(11), 1);         // block 11 / 8
/// assert_eq!(g.blk_off(11), 3);                // block 11 % 8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Data block size in bytes (2048 by default).
    pub block_bytes: u64,
    /// Sub-block size in bytes (256 by default; 64 for Baryon-64B).
    pub sub_bytes: u64,
    /// Blocks per super-block (8 by default; swept in Fig 13(b)).
    pub blocks_per_super: u64,
}

impl Geometry {
    /// The paper's default geometry: 2 kB blocks, 256 B sub-blocks,
    /// 8-block super-blocks.
    pub fn baryon_default() -> Self {
        Geometry {
            block_bytes: 2048,
            sub_bytes: 256,
            blocks_per_super: 8,
        }
    }

    /// The Baryon-64B variant (Fig 9): 64 B sub-blocks.
    pub fn baryon_64b() -> Self {
        Geometry {
            sub_bytes: 64,
            ..Self::baryon_default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid relationship.
    pub fn validate(&self) -> Result<(), String> {
        if !self.block_bytes.is_power_of_two() || self.block_bytes < 256 {
            return Err(format!(
                "block_bytes {} must be a power of two >= 256",
                self.block_bytes
            ));
        }
        if !self.sub_bytes.is_power_of_two() || self.sub_bytes < 64 {
            return Err(format!(
                "sub_bytes {} must be a power of two >= 64",
                self.sub_bytes
            ));
        }
        if self.sub_bytes > self.block_bytes {
            return Err("sub-blocks cannot exceed the block size".to_owned());
        }
        if !self.blocks_per_super.is_power_of_two() || self.blocks_per_super > 256 {
            return Err(format!(
                "blocks_per_super {} must be a power of two <= 256 \
                 (a range's block offset is 8 bits)",
                self.blocks_per_super
            ));
        }
        Ok(())
    }

    /// Sub-blocks per block (8 in the default geometry).
    pub fn subs_per_block(&self) -> usize {
        (self.block_bytes / self.sub_bytes) as usize
    }

    /// Cachelines per sub-block (4 in the default geometry).
    pub fn lines_per_sub(&self) -> usize {
        (self.sub_bytes / 64) as usize
    }

    /// Super-block size in bytes (16 kB in the default geometry).
    pub fn super_bytes(&self) -> u64 {
        self.block_bytes * self.blocks_per_super
    }

    /// Block index of a byte address.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr / self.block_bytes
    }

    /// Sub-block index (within its block) of a byte address.
    pub fn sub_of(&self, addr: u64) -> usize {
        ((addr % self.block_bytes) / self.sub_bytes) as usize
    }

    /// Super-block index of a block index.
    pub fn super_of_block(&self, block: u64) -> u64 {
        block / self.blocks_per_super
    }

    /// Offset of a block within its super-block.
    pub fn blk_off(&self, block: u64) -> usize {
        (block % self.blocks_per_super) as usize
    }

    /// Byte address of sub-block `sub` of block `block`.
    pub fn sub_addr(&self, block: u64, sub: usize) -> u64 {
        block * self.block_bytes + sub as u64 * self.sub_bytes
    }

    /// Byte address of block `block`.
    pub fn block_addr(&self, block: u64) -> u64 {
        block * self.block_bytes
    }

    /// The 64 B-aligned cacheline addresses of sub-block `sub` of `block`.
    pub fn sub_lines(&self, block: u64, sub: usize) -> impl Iterator<Item = u64> {
        let base = self.sub_addr(block, sub);
        (0..self.lines_per_sub() as u64).map(move |i| base + i * 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let g = Geometry::baryon_default();
        g.validate().expect("valid");
        assert_eq!(g.subs_per_block(), 8);
        assert_eq!(g.lines_per_sub(), 4);
        assert_eq!(g.super_bytes(), 16 << 10);
    }

    #[test]
    fn baryon_64b_geometry() {
        let g = Geometry::baryon_64b();
        g.validate().expect("valid");
        assert_eq!(g.subs_per_block(), 32);
        assert_eq!(g.lines_per_sub(), 1);
    }

    #[test]
    fn address_math_roundtrip() {
        let g = Geometry::baryon_default();
        for addr in [0u64, 64, 2047, 2048, 16383, 16384, 1 << 30] {
            let b = g.block_of(addr);
            let s = g.sub_of(addr);
            let sub_base = g.sub_addr(b, s);
            assert!(sub_base <= addr && addr < sub_base + g.sub_bytes);
            assert_eq!(
                g.super_of_block(b) * g.blocks_per_super + g.blk_off(b) as u64,
                b
            );
        }
    }

    #[test]
    fn sub_lines_cover_sub_block() {
        let g = Geometry::baryon_default();
        let lines: Vec<u64> = g.sub_lines(3, 5).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], 3 * 2048 + 5 * 256);
        assert_eq!(lines[3], 3 * 2048 + 5 * 256 + 192);
    }

    #[test]
    fn invalid_geometries_rejected() {
        let mut g = Geometry::baryon_default();
        g.sub_bytes = 100;
        assert!(g.validate().is_err());
        let mut g = Geometry::baryon_default();
        g.sub_bytes = 4096;
        assert!(g.validate().is_err());
        let mut g = Geometry::baryon_default();
        g.blocks_per_super = 3;
        assert!(g.validate().is_err());
        g.blocks_per_super = 512;
        assert!(g.validate().is_err());
    }

    #[test]
    fn super_block_sweep_sizes() {
        for bps in [2u64, 4, 8, 16, 32] {
            let g = Geometry {
                blocks_per_super: bps,
                ..Geometry::baryon_default()
            };
            g.validate().expect("valid");
            assert_eq!(g.super_bytes(), 2048 * bps);
        }
    }
}
