//! On-chip SRAM block allocation.
//!
//! PolarFire fabric offers two embedded memory types with very different
//! shapes: uSRAM blocks of 64 words × 12 bits (768 b, distributed, ideal
//! for small register files) and LSRAM blocks of 20 kb (ideal for tables).
//! Table 1's footnote explains the NAT's 160-LSRAM-block footprint by its
//! 32 768-entry flow table; [`MemoryPlanner`] reproduces that placement
//! arithmetic so any application's table set can be mapped to blocks.

use crate::resources::{ResourceManifest, LSRAM_BLOCK_BITS, USRAM_BLOCK_BITS};

/// The two embedded memory types of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// 64×12 b distributed blocks.
    Usram,
    /// 20 kb block RAM.
    Lsram,
}

/// A memory requirement: some number of words of some width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableShape {
    /// Number of addressable entries.
    pub entries: u64,
    /// Width of each entry in bits.
    pub entry_bits: u64,
}

impl TableShape {
    /// Construct a shape.
    pub const fn new(entries: u64, entry_bits: u64) -> TableShape {
        TableShape {
            entries,
            entry_bits,
        }
    }

    /// Total bits stored.
    ///
    /// Test-only: `crates/fabric/tests/prop.rs`: the reference count of the
    /// bits a placement must cover.
    pub fn total_bits(&self) -> u64 {
        self.entries * self.entry_bits
    }
}

/// Placement decision for one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Chosen memory kind.
    pub kind: MemoryKind,
    /// Blocks consumed.
    pub blocks: u64,
}

/// Plans table placements onto uSRAM/LSRAM blocks.
///
/// Policy (matching vendor synthesis behaviour closely enough for the
/// paper's numbers): tables of ≤ 64 entries and ≤ 12 b width go to uSRAM;
/// everything else goes to LSRAM. LSRAM blocks are 1k × 20 b natively; a
/// wider entry consumes `ceil(entry_bits / 20)` block columns and
/// `ceil(entries / 1024)` block rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryPlanner;

/// Native LSRAM organisation: 1024 words × 20 bits.
pub(crate) const LSRAM_WORDS: u64 = 1024;
/// Native LSRAM word width in bits.
pub(crate) const LSRAM_WIDTH: u64 = 20;
/// Native uSRAM organisation: 64 words × 12 bits.
pub(crate) const USRAM_WORDS: u64 = 64;
/// Native uSRAM word width in bits.
pub(crate) const USRAM_WIDTH: u64 = 12;

impl MemoryPlanner {
    /// Decide a placement for `shape`.
    pub fn place(shape: TableShape) -> Placement {
        if shape.entries <= USRAM_WORDS && shape.entry_bits <= USRAM_WIDTH {
            return Placement {
                kind: MemoryKind::Usram,
                blocks: 1,
            };
        }
        // Small-but-wide or shallow register files still prefer uSRAM if
        // they fit in a handful of blocks more economically than a 20 kb
        // LSRAM would.
        // Saturating, like the manifest algebra it feeds.
        let usram_blocks = (shape.entries.div_ceil(USRAM_WORDS))
            .saturating_mul(shape.entry_bits.div_ceil(USRAM_WIDTH));
        let lsram_blocks = (shape.entries.div_ceil(LSRAM_WORDS))
            .saturating_mul(shape.entry_bits.div_ceil(LSRAM_WIDTH));
        if usram_blocks.saturating_mul(USRAM_BLOCK_BITS)
            <= lsram_blocks.saturating_mul(LSRAM_BLOCK_BITS) / 4
        {
            Placement {
                kind: MemoryKind::Usram,
                blocks: usram_blocks,
            }
        } else {
            Placement {
                kind: MemoryKind::Lsram,
                blocks: lsram_blocks,
            }
        }
    }

    /// Plan a set of tables, returning the summed memory manifest.
    pub fn plan(shapes: &[TableShape]) -> ResourceManifest {
        let mut m = ResourceManifest::ZERO;
        for s in shapes {
            let p = Self::place(*s);
            match p.kind {
                MemoryKind::Usram => m.usram += p.blocks,
                MemoryKind::Lsram => m.lsram += p.blocks,
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table_goes_to_usram() {
        let p = MemoryPlanner::place(TableShape::new(64, 12));
        assert_eq!(p.kind, MemoryKind::Usram);
        assert_eq!(p.blocks, 1);
    }

    #[test]
    fn nat_flow_table_needs_lsram() {
        // 32 768 entries × ~96 b (IPv4 key + translated address + valid
        // bit + padding) — the Table 1 footnote's reason for LSRAM usage.
        let p = MemoryPlanner::place(TableShape::new(32_768, 96));
        assert_eq!(p.kind, MemoryKind::Lsram);
        // 32 rows of 1k × 5 columns of 20b = 160 blocks — exactly the
        // Table 1 NAT LSRAM count.
        assert_eq!(p.blocks, 160);
    }

    #[test]
    fn plan_sums_mixed_tables() {
        let m = MemoryPlanner::plan(&[TableShape::new(64, 12), TableShape::new(32_768, 96)]);
        assert_eq!(m.usram, 1);
        assert_eq!(m.lsram, 160);
        assert_eq!(m.lut4, 0);
    }

    #[test]
    fn shallow_table_prefers_usram_mosaic() {
        // 100 entries of 40 bits: 2 rows × 4 columns of uSRAM = 8 blocks
        // (6 kb) beats burning a 20 kb LSRAM column pair.
        let p = MemoryPlanner::place(TableShape::new(100, 40));
        assert_eq!(p.kind, MemoryKind::Usram);
        assert_eq!(p.blocks, 8);
    }

    #[test]
    fn deep_table_block_math() {
        // 2048 entries of 40 bits: 2 rows × 2 columns = 4 LSRAM blocks.
        let p = MemoryPlanner::place(TableShape::new(2048, 40));
        assert_eq!(p.kind, MemoryKind::Lsram);
        assert_eq!(p.blocks, 4);
    }

    #[test]
    fn shape_total_bits() {
        assert_eq!(TableShape::new(1024, 20).total_bits(), 20 * 1024);
    }
}
