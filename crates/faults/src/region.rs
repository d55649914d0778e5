//! Structured fault footprints in device coordinates.
//!
//! A fault's footprint is one axis-aligned rectangle over
//! `(bank, row, column-block)` within one device of one rank (multi-rank
//! faults carry one region — and therefore one rectangle — per rank).
//! Keeping the structure explicit lets the ECC model test codeword
//! overlap between faults on different devices analytically, and lets the
//! repair planner count/enumerate repair lines without walking millions
//! of cells. [`Extent::footprint`] returns the [`Rect`] by value — no
//! heap allocation — because it sits on the hot path of both the ECC
//! arrival classifier and the planners' `lines_needed` pre-checks.

use relaxfault_dram::{DramConfig, RankId};

/// A set of indices along one axis (rows or column-blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdxSet {
    /// Every index in `0..domain`.
    All {
        /// Size of the axis domain.
        domain: u32,
    },
    /// A contiguous range `start..start+count`.
    Range {
        /// First index.
        start: u32,
        /// Number of indices.
        count: u32,
    },
    /// A single index.
    One(u32),
}

impl IdxSet {
    /// Number of indices in the set.
    pub fn len(&self) -> u64 {
        match *self {
            IdxSet::All { domain } => domain as u64,
            IdxSet::Range { count, .. } => count as u64,
            IdxSet::One(_) => 1,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: u32) -> bool {
        match *self {
            IdxSet::All { domain } => i < domain,
            IdxSet::Range { start, count } => i >= start && i - start < count,
            IdxSet::One(v) => i == v,
        }
    }

    /// Intersection with another set (`None` if disjoint).
    pub fn intersect(&self, other: &IdxSet) -> Option<IdxSet> {
        let (s1, e1) = self.bounds();
        let (s2, e2) = other.bounds();
        let s = s1.max(s2);
        let e = e1.min(e2);
        if s >= e {
            return None;
        }
        Some(if e - s == 1 {
            IdxSet::One(s)
        } else {
            IdxSet::Range {
                start: s,
                count: e - s,
            }
        })
    }

    /// `(start, end)` half-open bounds of the set.
    pub fn bounds(&self) -> (u32, u32) {
        match *self {
            IdxSet::All { domain } => (0, domain),
            IdxSet::Range { start, count } => (start, start.saturating_add(count)),
            IdxSet::One(v) => (v, v + 1),
        }
    }

    /// Iterates the indices.
    pub fn iter(&self) -> impl Iterator<Item = u32> {
        let (s, e) = self.bounds();
        s..e
    }

    /// Maps the set through integer division by `q` (e.g. column-block →
    /// column-group for the RelaxFault coalescer). The result covers every
    /// quotient any member maps to.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn divided(&self, q: u32) -> IdxSet {
        assert!(q > 0);
        match *self {
            IdxSet::All { domain } => IdxSet::All {
                domain: domain.div_ceil(q),
            },
            IdxSet::Range { start, count } => {
                let first = start / q;
                let last = (start + count - 1) / q;
                if first == last {
                    IdxSet::One(first)
                } else {
                    IdxSet::Range {
                        start: first,
                        count: last - first + 1,
                    }
                }
            }
            IdxSet::One(v) => IdxSet::One(v / q),
        }
    }
}

/// A set of banks, as a bitmask (devices have ≤ 32 banks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankSet(pub u32);

impl BankSet {
    /// A single bank.
    pub fn one(bank: u32) -> Self {
        assert!(bank < 32);
        BankSet(1 << bank)
    }

    /// All `n` banks.
    pub fn all(n: u32) -> Self {
        assert!(n <= 32 && n > 0);
        BankSet(if n == 32 { u32::MAX } else { (1 << n) - 1 })
    }

    /// Number of banks in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Intersection.
    pub fn intersect(&self, other: &BankSet) -> BankSet {
        BankSet(self.0 & other.0)
    }

    /// Iterates bank indices.
    pub fn iter(&self) -> impl Iterator<Item = u32> {
        let bits = self.0;
        (0..32).filter(move |b| bits & (1 << b) != 0)
    }
}

/// One axis-aligned rectangle of faulty blocks within a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Banks the rectangle covers.
    pub banks: BankSet,
    /// Rows covered within each bank.
    pub rows: IdxSet,
    /// Column-blocks covered within each row.
    pub colblocks: IdxSet,
}

impl Rect {
    /// Number of (bank, row, colblock) blocks covered.
    pub fn block_count(&self) -> u64 {
        self.banks.len() as u64 * self.rows.len() * self.colblocks.len()
    }

    /// Whether two rectangles share a block.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.banks.intersect(&other.banks).is_empty()
            && self.rows.intersect(&other.rows).is_some()
            && self.colblocks.intersect(&other.colblocks).is_some()
    }

    /// Intersection rectangle (`None` if disjoint).
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let banks = self.banks.intersect(&other.banks);
        if banks.is_empty() {
            return None;
        }
        Some(Rect {
            banks,
            rows: self.rows.intersect(&other.rows)?,
            colblocks: self.colblocks.intersect(&other.colblocks)?,
        })
    }
}

/// The physical extent of one fault within one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extent {
    /// One bit.
    Bit {
        /// Bank index.
        bank: u32,
        /// Row index.
        row: u32,
        /// Column address (not block).
        col: u32,
    },
    /// Several bits within one transfer word (one device sub-block).
    Word {
        /// Bank index.
        bank: u32,
        /// Row index.
        row: u32,
        /// Column address of the word's first column.
        col: u32,
    },
    /// One full device row.
    Row {
        /// Bank index.
        bank: u32,
        /// Row index.
        row: u32,
    },
    /// One column address through a span of rows (one or more subarrays).
    Column {
        /// Bank index.
        bank: u32,
        /// Column address.
        col: u32,
        /// First affected row.
        row_start: u32,
        /// Number of affected rows.
        row_count: u32,
    },
    /// A cluster of consecutive rows within one bank.
    RowCluster {
        /// Bank index.
        bank: u32,
        /// First affected row.
        row_start: u32,
        /// Number of affected rows.
        row_count: u32,
    },
    /// Every cell of a set of banks (whole-bank / multi-bank / whole-device
    /// faults).
    Banks {
        /// Affected banks.
        banks: BankSet,
    },
}

impl Extent {
    /// The footprint in (bank, row, colblock) space. Every extent shape
    /// covers exactly one rectangle, so this returns it by value.
    pub fn footprint(&self, cfg: &DramConfig) -> Rect {
        let all_rows = IdxSet::All { domain: cfg.rows };
        let all_cols = IdxSet::All {
            domain: cfg.blocks_per_row(),
        };
        match *self {
            Extent::Bit { bank, row, col } | Extent::Word { bank, row, col } => Rect {
                banks: BankSet::one(bank),
                rows: IdxSet::One(row),
                colblocks: IdxSet::One(col / cfg.burst_length),
            },
            Extent::Row { bank, row } => Rect {
                banks: BankSet::one(bank),
                rows: IdxSet::One(row),
                colblocks: all_cols,
            },
            Extent::Column {
                bank,
                col,
                row_start,
                row_count,
            } => Rect {
                banks: BankSet::one(bank),
                rows: IdxSet::Range {
                    start: row_start,
                    count: row_count,
                },
                colblocks: IdxSet::One(col / cfg.burst_length),
            },
            Extent::RowCluster {
                bank,
                row_start,
                row_count,
            } => Rect {
                banks: BankSet::one(bank),
                rows: IdxSet::Range {
                    start: row_start,
                    count: row_count,
                },
                colblocks: all_cols,
            },
            Extent::Banks { banks } => Rect {
                banks,
                rows: all_rows,
                colblocks: all_cols,
            },
        }
    }

    /// Number of distinct rows the extent touches per bank
    /// (`None` = all rows). Used by the PPR planner.
    pub fn rows_per_bank(&self, cfg: &DramConfig) -> Option<u64> {
        match *self {
            Extent::Bit { .. } | Extent::Word { .. } | Extent::Row { .. } => Some(1),
            Extent::Column { row_count, .. } | Extent::RowCluster { row_count, .. } => {
                Some(row_count as u64)
            }
            Extent::Banks { .. } => {
                let _ = cfg;
                None
            }
        }
    }

    /// Number of faulty cells (bits) in the device, for reporting.
    pub fn cell_count(&self, cfg: &DramConfig) -> u64 {
        let row_bits = cfg.cols as u64 * cfg.device_width as u64;
        match *self {
            Extent::Bit { .. } => 1,
            Extent::Word { .. } => (cfg.device_width * cfg.burst_length) as u64,
            Extent::Row { .. } => row_bits,
            Extent::Column { row_count, .. } => row_count as u64 * cfg.device_width as u64,
            Extent::RowCluster { row_count, .. } => row_count as u64 * row_bits,
            Extent::Banks { banks } => banks.len() as u64 * cfg.rows as u64 * row_bits,
        }
    }
}

/// One fault region: an extent within one device of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultRegion {
    /// The rank the device belongs to.
    pub rank: RankId,
    /// Device position within the rank (`0..devices_per_rank`; indices
    /// `>= data_devices_per_rank` are ECC devices).
    pub device: u32,
    /// The physical extent.
    pub extent: Extent,
}

/// Regions kept inline before [`RegionList`] spills to the heap. Almost
/// every fault has exactly one region; multi-rank faults have one per rank
/// of the DIMM, and deployed DIMMs have at most four ranks.
const REGIONS_INLINE: usize = 4;

const REGION_FILLER: FaultRegion = FaultRegion {
    rank: RankId {
        channel: 0,
        dimm: 0,
        rank: 0,
    },
    device: 0,
    extent: Extent::Row { bank: 0, row: 0 },
};

/// The regions of one fault, with small-vector inline storage.
///
/// The Monte Carlo sampler constructs one of these per fault event in the
/// hottest loop of the simulator; keeping the common 1–4 region case
/// inline means a fault event allocates nothing. Dereferences to
/// `[FaultRegion]`, so slice-taking consumers (`ecc::classify_arrival`,
/// the repair planners) are oblivious to the representation.
///
/// # Examples
///
/// ```
/// use relaxfault_faults::{Extent, FaultRegion, RegionList};
/// use relaxfault_dram::RankId;
///
/// let r = FaultRegion {
///     rank: RankId { channel: 0, dimm: 0, rank: 0 },
///     device: 3,
///     extent: Extent::Row { bank: 0, row: 5 },
/// };
/// let list = RegionList::one(r);
/// assert_eq!(list.len(), 1);
/// assert_eq!(list[0], r);
/// ```
#[derive(Debug, Clone)]
pub struct RegionList {
    len: u32,
    inline: [FaultRegion; REGIONS_INLINE],
    /// Holds *all* regions once `len > REGIONS_INLINE`.
    spill: Vec<FaultRegion>,
}

impl RegionList {
    /// An empty list.
    pub fn new() -> Self {
        Self {
            len: 0,
            inline: [REGION_FILLER; REGIONS_INLINE],
            spill: Vec::new(),
        }
    }

    /// A single-region list (the overwhelmingly common case).
    pub fn one(region: FaultRegion) -> Self {
        let mut list = Self::new();
        list.push(region);
        list
    }

    /// Appends a region, spilling to the heap past the inline capacity.
    pub fn push(&mut self, region: FaultRegion) {
        let n = self.len as usize;
        if n < REGIONS_INLINE {
            self.inline[n] = region;
        } else {
            if n == REGIONS_INLINE {
                self.spill.clear();
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(region);
        }
        self.len += 1;
    }

    /// Empties the list, keeping any spill capacity.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The regions as a slice.
    pub fn as_slice(&self) -> &[FaultRegion] {
        let n = self.len as usize;
        if n <= REGIONS_INLINE {
            &self.inline[..n]
        } else {
            &self.spill
        }
    }
}

impl Default for RegionList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for RegionList {
    type Target = [FaultRegion];

    fn deref(&self) -> &[FaultRegion] {
        self.as_slice()
    }
}

impl PartialEq for RegionList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RegionList {}

impl From<Vec<FaultRegion>> for RegionList {
    fn from(regions: Vec<FaultRegion>) -> Self {
        regions.into_iter().collect()
    }
}

impl FromIterator<FaultRegion> for RegionList {
    fn from_iter<I: IntoIterator<Item = FaultRegion>>(iter: I) -> Self {
        let mut list = Self::new();
        for r in iter {
            list.push(r);
        }
        list
    }
}

impl<'a> IntoIterator for &'a RegionList {
    type Item = &'a FaultRegion;
    type IntoIter = std::slice::Iter<'a, FaultRegion>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FaultRegion {
    /// Footprint of the region in block coordinates: a single [`Rect`].
    pub fn footprint(&self, cfg: &DramConfig) -> Rect {
        self.extent.footprint(cfg)
    }

    /// Verifies the region sits inside the device geometry: a real rank
    /// slot, a real device position, and an extent whose banks, rows, and
    /// columns all exist. Meant for tests and the `RF_CHECK=1` engine hook.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range coordinate.
    pub fn check_geometry(&self, cfg: &DramConfig) -> Result<(), String> {
        if self.rank.channel >= cfg.channels
            || self.rank.dimm >= cfg.dimms_per_channel
            || self.rank.rank >= cfg.ranks_per_dimm
        {
            return Err(format!("rank {:?} outside the node", self.rank));
        }
        if self.device >= cfg.devices_per_rank() {
            return Err(format!(
                "device {} out of range ({})",
                self.device,
                cfg.devices_per_rank()
            ));
        }
        let bank_ok = |bank: u32| {
            if bank < cfg.banks {
                Ok(())
            } else {
                Err(format!("bank {bank} out of range ({})", cfg.banks))
            }
        };
        let row_ok = |row: u32| {
            if row < cfg.rows {
                Ok(())
            } else {
                Err(format!("row {row} out of range ({})", cfg.rows))
            }
        };
        let col_ok = |col: u32| {
            if col < cfg.cols {
                Ok(())
            } else {
                Err(format!("col {col} out of range ({})", cfg.cols))
            }
        };
        match self.extent {
            Extent::Bit { bank, row, col } | Extent::Word { bank, row, col } => {
                bank_ok(bank)?;
                row_ok(row)?;
                col_ok(col)
            }
            Extent::Row { bank, row } => {
                bank_ok(bank)?;
                row_ok(row)
            }
            Extent::Column {
                bank,
                col,
                row_start,
                row_count,
            } => {
                bank_ok(bank)?;
                col_ok(col)?;
                if row_count == 0 {
                    return Err("empty column row span".into());
                }
                row_ok(row_start)?;
                row_ok(row_start + row_count - 1)
            }
            Extent::RowCluster {
                bank,
                row_start,
                row_count,
            } => {
                bank_ok(bank)?;
                if row_count == 0 {
                    return Err("empty row cluster".into());
                }
                row_ok(row_start)?;
                row_ok(row_start + row_count - 1)
            }
            Extent::Banks { banks } => {
                if banks.is_empty() {
                    return Err("empty bank set".into());
                }
                banks.iter().try_for_each(bank_ok)
            }
        }
    }

    /// Whether this region and `other` put errors in the same 64-byte
    /// codeword: same rank, *different* device, overlapping block
    /// footprints.
    pub fn shares_codeword_with(&self, other: &FaultRegion, cfg: &DramConfig) -> bool {
        self.rank == other.rank
            && self.device != other.device
            && self.footprint(cfg).intersects(&other.footprint(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxfault_dram::DramConfig;

    fn cfg() -> DramConfig {
        DramConfig::isca16_reliability()
    }

    fn rank0() -> RankId {
        RankId {
            channel: 0,
            dimm: 0,
            rank: 0,
        }
    }

    #[test]
    fn idxset_intersections() {
        let all = IdxSet::All { domain: 100 };
        let r = IdxSet::Range {
            start: 10,
            count: 20,
        };
        let one = IdxSet::One(15);
        assert_eq!(all.intersect(&r), Some(r));
        assert_eq!(r.intersect(&one), Some(IdxSet::One(15)));
        assert_eq!(IdxSet::One(9).intersect(&r), None);
        assert_eq!(
            r.intersect(&IdxSet::Range {
                start: 25,
                count: 50
            }),
            Some(IdxSet::Range {
                start: 25,
                count: 5
            })
        );
    }

    #[test]
    fn idxset_contains_and_len() {
        let r = IdxSet::Range { start: 5, count: 3 };
        assert!(r.contains(5) && r.contains(7) && !r.contains(8) && !r.contains(4));
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![5, 6, 7]);
        assert!(!r.is_empty());
    }

    #[test]
    fn idxset_divided() {
        assert_eq!(
            IdxSet::Range {
                start: 30,
                count: 4
            }
            .divided(16),
            IdxSet::Range { start: 1, count: 2 }
        );
        assert_eq!(
            IdxSet::Range {
                start: 32,
                count: 4
            }
            .divided(16),
            IdxSet::One(2)
        );
        assert_eq!(
            IdxSet::Range {
                start: 15,
                count: 2
            }
            .divided(16),
            IdxSet::Range { start: 0, count: 2 }
        );
        assert_eq!(
            IdxSet::All { domain: 256 }.divided(16),
            IdxSet::All { domain: 16 }
        );
        assert_eq!(IdxSet::One(17).divided(16), IdxSet::One(1));
    }

    #[test]
    fn bankset_ops() {
        let a = BankSet::one(3);
        let b = BankSet::all(8);
        assert_eq!(a.intersect(&b), a);
        assert_eq!(b.len(), 8);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3]);
        assert!(BankSet(0).is_empty());
    }

    #[test]
    fn row_fault_footprint() {
        let f = Extent::Row { bank: 2, row: 77 }.footprint(&cfg());
        assert_eq!(f.block_count(), 256);
        assert!(f.colblocks.contains(255));
    }

    #[test]
    fn column_fault_footprint() {
        let f = Extent::Column {
            bank: 1,
            col: 33,
            row_start: 512,
            row_count: 512,
        }
        .footprint(&cfg());
        assert_eq!(f.block_count(), 512);
        assert_eq!(f.colblocks, IdxSet::One(4)); // col 33 → block 4
    }

    #[test]
    fn overlap_requires_shared_block() {
        let c = cfg();
        let row = Extent::Row { bank: 2, row: 77 }.footprint(&c);
        let col_hit = Extent::Column {
            bank: 2,
            col: 0,
            row_start: 0,
            row_count: 512,
        }
        .footprint(&c);
        let col_miss = Extent::Column {
            bank: 2,
            col: 0,
            row_start: 1024,
            row_count: 512,
        }
        .footprint(&c);
        let other_bank = Extent::Row { bank: 3, row: 77 }.footprint(&c);
        assert!(row.intersects(&col_hit));
        assert!(!row.intersects(&col_miss));
        assert!(!row.intersects(&other_bank));
    }

    #[test]
    fn whole_bank_overlaps_everything_in_bank() {
        let c = cfg();
        let bank = Extent::Banks {
            banks: BankSet::one(5),
        }
        .footprint(&c);
        let bit = Extent::Bit {
            bank: 5,
            row: 123,
            col: 456,
        }
        .footprint(&c);
        let bit_elsewhere = Extent::Bit {
            bank: 6,
            row: 123,
            col: 456,
        }
        .footprint(&c);
        assert!(bank.intersects(&bit));
        assert!(!bank.intersects(&bit_elsewhere));
        assert_eq!(bank.block_count(), 65536 * 256);
    }

    #[test]
    fn triple_intersection_via_footprints() {
        let c = cfg();
        let a = Extent::Banks {
            banks: BankSet::one(0),
        }
        .footprint(&c);
        let b = Extent::RowCluster {
            bank: 0,
            row_start: 100,
            row_count: 50,
        }
        .footprint(&c);
        let d = Extent::Row { bank: 0, row: 120 }.footprint(&c);
        let ab = a.intersect(&b).expect("a and b overlap");
        assert!(ab.intersects(&d));
        let d_out = Extent::Row { bank: 0, row: 400 }.footprint(&c);
        assert!(!ab.intersects(&d_out));
    }

    #[test]
    fn shares_codeword_semantics() {
        let c = cfg();
        let a = FaultRegion {
            rank: rank0(),
            device: 0,
            extent: Extent::Row { bank: 1, row: 10 },
        };
        let same_dev = FaultRegion { device: 0, ..a };
        let other_dev_hit = FaultRegion {
            rank: rank0(),
            device: 5,
            extent: Extent::Bit {
                bank: 1,
                row: 10,
                col: 99,
            },
        };
        let other_rank = FaultRegion {
            rank: RankId {
                channel: 1,
                dimm: 0,
                rank: 0,
            },
            device: 5,
            extent: Extent::Bit {
                bank: 1,
                row: 10,
                col: 99,
            },
        };
        assert!(
            !a.shares_codeword_with(&same_dev, &c),
            "same device = one symbol"
        );
        assert!(a.shares_codeword_with(&other_dev_hit, &c));
        assert!(!a.shares_codeword_with(&other_rank, &c));
    }

    #[test]
    fn cell_counts() {
        let c = cfg();
        assert_eq!(
            Extent::Bit {
                bank: 0,
                row: 0,
                col: 0
            }
            .cell_count(&c),
            1
        );
        assert_eq!(
            Extent::Word {
                bank: 0,
                row: 0,
                col: 0
            }
            .cell_count(&c),
            32
        );
        assert_eq!(Extent::Row { bank: 0, row: 0 }.cell_count(&c), 8192);
        assert_eq!(
            Extent::Column {
                bank: 0,
                col: 0,
                row_start: 0,
                row_count: 512
            }
            .cell_count(&c),
            2048
        );
        assert_eq!(
            Extent::Banks {
                banks: BankSet::all(8)
            }
            .cell_count(&c),
            4u64 << 30
        );
    }

    #[test]
    fn region_list_inline_and_spill() {
        let mk = |d: u32| FaultRegion {
            rank: rank0(),
            device: d,
            extent: Extent::Row { bank: 0, row: d },
        };
        let mut list = RegionList::new();
        assert!(list.is_empty());
        for d in 0..7 {
            list.push(mk(d));
            assert_eq!(list.len(), d as usize + 1);
            // Contents survive the inline→spill transition.
            for (i, r) in list.iter().enumerate() {
                assert_eq!(*r, mk(i as u32));
            }
        }
        // Slice coercion and equality.
        let collected: RegionList = (0..7).map(mk).collect();
        assert_eq!(list, collected);
        let slice: &[FaultRegion] = &list;
        assert_eq!(slice.len(), 7);
        // Clearing resets but the list remains usable.
        list.clear();
        assert!(list.is_empty());
        list.push(mk(9));
        assert_eq!(list[0], mk(9));
        assert_eq!(RegionList::one(mk(1)).as_slice(), &[mk(1)]);
        assert_eq!(RegionList::from(vec![mk(2), mk(3)]).len(), 2);
    }

    #[test]
    fn rows_per_bank_for_ppr() {
        let c = cfg();
        assert_eq!(
            Extent::Bit {
                bank: 0,
                row: 0,
                col: 0
            }
            .rows_per_bank(&c),
            Some(1)
        );
        assert_eq!(Extent::Row { bank: 0, row: 9 }.rows_per_bank(&c), Some(1));
        assert_eq!(
            Extent::RowCluster {
                bank: 0,
                row_start: 0,
                row_count: 64
            }
            .rows_per_bank(&c),
            Some(64)
        );
        assert_eq!(
            Extent::Banks {
                banks: BankSet::one(0)
            }
            .rows_per_bank(&c),
            None
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use relaxfault_util::prop::{self, Source};
    use relaxfault_util::{prop_assert, prop_assert_eq};

    fn arb_idx(src: &mut Source, domain: u32) -> IdxSet {
        match src.choice_index(3) {
            0 => IdxSet::All { domain },
            1 => IdxSet::One(src.u32(0, domain - 1)),
            _ => {
                let s = src.u32(0, domain - 1);
                let c = src.u32(1, 63);
                IdxSet::Range {
                    start: s,
                    count: c.min(domain - s),
                }
            }
        }
    }

    fn arb_rect(src: &mut Source) -> Rect {
        Rect {
            banks: BankSet::one(src.u32(0, 7)),
            rows: arb_idx(src, 65536),
            colblocks: arb_idx(src, 256),
        }
    }

    #[test]
    fn intersection_is_symmetric_and_contained() {
        prop::check(128, |src| {
            let a = arb_rect(src);
            let b = arb_rect(src);
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
            if let Some(i) = a.intersect(&b) {
                prop_assert!(a.intersects(&b));
                prop_assert!(i.block_count() <= a.block_count());
                prop_assert!(i.block_count() <= b.block_count());
                // Every element of the intersection is in both.
                let r = i.rows.iter().next().expect("nonempty");
                let c = i.colblocks.iter().next().expect("nonempty");
                prop_assert!(a.rows.contains(r) && b.rows.contains(r));
                prop_assert!(a.colblocks.contains(c) && b.colblocks.contains(c));
            } else {
                prop_assert!(!a.intersects(&b));
            }
            Ok(())
        });
    }

    #[test]
    fn idxset_divided_covers_members() {
        prop::check(128, |src| {
            let set = arb_idx(src, 256);
            let q = src.u32(1, 31);
            let d = set.divided(q);
            for v in set.iter() {
                prop_assert!(d.contains(v / q), "{v}/{q} missing from {d:?}");
            }
            Ok(())
        });
    }

    #[test]
    fn idxset_intersect_agrees_with_membership() {
        prop::check(128, |src| {
            let a = arb_idx(src, 512);
            let b = arb_idx(src, 512);
            let probe = src.u32(0, 511);
            let i = a.intersect(&b);
            let both = a.contains(probe) && b.contains(probe);
            match i {
                Some(s) => prop_assert_eq!(s.contains(probe), both),
                None => prop_assert!(!both),
            }
            Ok(())
        });
    }
}
