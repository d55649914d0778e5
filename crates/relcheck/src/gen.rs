//! Corner-biased generators for scenarios, fault mixes and cache
//! operation sequences.
//!
//! Uniform random extents almost never produce the fault shapes that
//! stress the repair planners: field studies of DDR4 DRAM report that a
//! large share of multi-cell faults are single-device multi-row clusters,
//! pin/column faults, and whole-bank failures. These generators use
//! [`Source::weighted`] to spend most of their probability mass on exactly
//! those corners while still covering the simple shapes, so a thousand
//! generated cases reach states a million uniform ones would miss.

use relaxfault_cache::{CacheConfig, Indexing};
use relaxfault_dram::{DramConfig, RankId};
use relaxfault_faults::{BankSet, Extent, FaultRegion};
use relaxfault_util::prop::Source;

/// A fault extent biased toward planner corner regions: multi-row
/// clusters, subarray column (pin) faults, and whole-bank faults dominate;
/// single-cell shapes keep a small share for contrast.
pub fn arb_corner_extent(src: &mut Source, cfg: &DramConfig) -> Extent {
    let bank = src.u32(0, cfg.banks - 1);
    match src.weighted(&[2, 1, 2, 4, 5, 2]) {
        0 => Extent::Bit {
            bank,
            row: src.u32(0, cfg.rows - 1),
            col: src.u32(0, cfg.cols - 1),
        },
        1 => Extent::Word {
            bank,
            row: src.u32(0, cfg.rows - 1),
            col: src.u32(0, cfg.cols - 1),
        },
        2 => Extent::Row {
            bank,
            row: src.u32(0, cfg.rows - 1),
        },
        3 => {
            // Pin/column fault: one column address through 1..=4 whole
            // subarrays, aligned the way the sense-amp stripes fail.
            let spans = cfg.rows / cfg.subarray_rows;
            let count = src.weighted(&[6, 2, 1]) as u32 + 1; // 1, 2, or 3
            let count = count.min(spans);
            let start = src.u32(0, spans - count);
            Extent::Column {
                bank,
                col: src.u32(0, cfg.cols - 1),
                row_start: start * cfg.subarray_rows,
                row_count: count * cfg.subarray_rows,
            }
        }
        4 => {
            // Single-device multi-row cluster: mostly tight (2..=32 rows),
            // occasionally subarray-scale.
            let rows = match src.weighted(&[5, 3, 1]) {
                0 => src.u32(2, 32),
                1 => src.u32(33, 256),
                _ => src.u32(257, 2048),
            };
            Extent::RowCluster {
                bank,
                row_start: src.u32(0, cfg.rows - rows),
                row_count: rows,
            }
        }
        _ => {
            // Whole-bank up to whole-device.
            let banks = match src.weighted(&[4, 2, 1]) {
                0 => BankSet::one(bank),
                1 => {
                    let other = src.u32(0, cfg.banks - 1);
                    BankSet(BankSet::one(bank).0 | BankSet::one(other).0)
                }
                _ => BankSet::all(cfg.banks),
            };
            Extent::Banks { banks }
        }
    }
}

/// A region on a random existing (rank, device), with a corner-biased
/// extent.
pub fn arb_corner_region(src: &mut Source, cfg: &DramConfig) -> FaultRegion {
    FaultRegion {
        rank: RankId {
            channel: src.u32(0, cfg.channels - 1),
            dimm: src.u32(0, cfg.dimms_per_channel - 1),
            rank: src.u32(0, cfg.ranks_per_dimm - 1),
        },
        device: src.u32(0, cfg.devices_per_rank() - 1),
        extent: arb_corner_extent(src, cfg),
    }
}

/// A region that shares repair lines with `base`: same rank and bank,
/// rows overlapping `base`'s, and a column inside `base`'s columns. On
/// another device it shares physical blocks (FreeFault lines); on the same
/// device it shares column groups (RelaxFault lines).
pub fn arb_overlapping_region(
    src: &mut Source,
    cfg: &DramConfig,
    base: &FaultRegion,
) -> FaultRegion {
    let rect = base.footprint(cfg);
    let banks: Vec<u32> = rect.banks.iter().collect();
    let bank = banks[src.choice_index(banks.len())];
    let (r0, r1) = rect.rows.bounds();
    let row = src.u32(r0, r1 - 1);
    let (c0, c1) = rect.colblocks.bounds();
    let col = src.u32(c0, c1 - 1) * cfg.burst_length + src.u32(0, cfg.burst_length - 1);
    let devices = cfg.devices_per_rank();
    let device = if src.bool() {
        base.device
    } else {
        (base.device + src.u32(1, devices - 1)) % devices
    };
    let extent = match src.weighted(&[2, 2, 2, 1]) {
        0 => Extent::Bit { bank, row, col },
        1 => Extent::Row { bank, row },
        2 => {
            let rows = src.u32(2, 64).min(cfg.rows);
            Extent::RowCluster {
                bank,
                row_start: row
                    .saturating_sub(src.u32(0, rows - 1))
                    .min(cfg.rows - rows),
                row_count: rows,
            }
        }
        _ => {
            let start = row / cfg.subarray_rows * cfg.subarray_rows;
            Extent::Column {
                bank,
                col,
                row_start: start,
                row_count: cfg.subarray_rows.min(cfg.rows - start),
            }
        }
    };
    FaultRegion {
        rank: base.rank,
        device,
        extent,
    }
}

/// A sequence of fault offers (each one fault = one or two regions, as
/// multi-rank faults produce) to drive a planner through, shrinking toward
/// fewer and simpler offers. A weighted share are overlapping follow-ups
/// ([`arb_overlapping_region`]) of an earlier region — of an earlier offer,
/// or of the offer's own first region — so planners meet lines that are
/// already locked or shared within one fault.
pub fn arb_offer_sequence(src: &mut Source, cfg: &DramConfig) -> Vec<Vec<FaultRegion>> {
    let mut earlier: Vec<FaultRegion> = Vec::new();
    src.vec(1, 6, |s| {
        let first = arb_corner_region(s, cfg);
        let offer = match s.weighted(&[5, 1, 3]) {
            0 => vec![first],
            1 => {
                // A sibling region on another rank of the same coordinates,
                // like a multi-rank DIMM fault.
                let mut sibling = first;
                sibling.rank.rank = (sibling.rank.rank + 1) % cfg.ranks_per_dimm.max(1);
                if sibling.rank != first.rank {
                    vec![first, sibling]
                } else {
                    vec![first]
                }
            }
            _ => {
                let i = s.choice_index(earlier.len() + 1);
                match earlier.get(i) {
                    Some(base) => vec![arb_overlapping_region(s, cfg, base)],
                    None => vec![first, arb_overlapping_region(s, cfg, &first)],
                }
            }
        };
        earlier.extend_from_slice(&offer);
        offer
    })
}

/// A per-set way limit, biased low (tight budgets exercise rejection and
/// rollback far more often than the full 16-way budget).
pub fn arb_max_ways(src: &mut Source) -> u32 {
    [1, 2, 4, 16][src.weighted(&[5, 3, 2, 1])]
}

/// One step of a cache-model differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOp {
    /// `Cache::access(addr, write)`.
    Access(u64, bool),
    /// `Cache::lock_repair_line(addr)`.
    LockRepair(u64),
    /// `Cache::lock_ways_per_set(n)`.
    LockWays(u32),
    /// `Cache::lock_lines_in_sets(sets)`.
    LockLines(Vec<u64>),
    /// `Cache::unlock_all()`.
    UnlockAll,
    /// `Cache::reset_stats()`.
    ResetStats,
}

/// A cache geometry biased toward the corners of the runtime model: tiny
/// sets that conflict constantly, direct-mapped and fully associative
/// shapes, the smallest supported line (whose block addresses reach the
/// top tag bits), and the paper's L1 and LLC, hashed and canonical.
pub fn arb_cache_config(src: &mut Source) -> CacheConfig {
    let xor = |src: &mut Source| Indexing::XorFold {
        rotation: src.u32(0, 16),
    };
    let small = |sets: u64, ways: u32, line_bytes: u32, indexing| CacheConfig {
        size_bytes: sets * ways as u64 * line_bytes as u64,
        ways,
        line_bytes,
        indexing,
    };
    match src.weighted(&[3, 3, 1, 1, 1, 1, 1, 1]) {
        0 => small(16, 4, 64, Indexing::Canonical),
        1 => small(16, 4, 64, xor(src)),
        2 => {
            let indexing = if src.bool() {
                xor(src)
            } else {
                Indexing::Canonical
            };
            small(8, 1, 64, indexing)
        }
        3 => small(1, 8, 64, Indexing::Canonical),
        4 => small(32, 2, 4, xor(src)),
        5 => CacheConfig::isca16_l1(),
        6 => CacheConfig::isca16_llc(),
        _ => CacheConfig::isca16_llc_no_hash(),
    }
}

/// A byte address that `cfg` maps to `set`, with a corner-biased tag:
/// small, mid-range, or at the very top of the address space.
pub fn arb_address_in_set(src: &mut Source, cfg: &CacheConfig, set: u64) -> u64 {
    let (off, sb) = (cfg.offset_bits(), cfg.set_bits());
    let max_tag = u64::MAX >> (off + sb);
    let tag = match src.weighted(&[4, 2, 1]) {
        0 => src.u64(0, 15.min(max_tag)),
        1 => src.u64(0, (1 << 20).min(max_tag)),
        _ => max_tag - src.u64(0, 15.min(max_tag)),
    };
    // With a zero index field the set is the tag's fold alone, so XORing
    // it back into the index lands the block in `set` under any indexing.
    let index = set ^ cfg.set_of(tag << (off + sb));
    (((tag << sb) | index) << off) | src.u64(0, cfg.line_bytes as u64 - 1)
}

/// A differential run for one cache: a pool of addresses crowded into a
/// few target sets (so lookups hit, ways fill and victims are chosen),
/// and an operation sequence drawing mostly on that pool.
pub fn arb_cache_ops(src: &mut Source, cfg: &CacheConfig) -> (Vec<u64>, Vec<CacheOp>) {
    let sets = cfg.sets();
    let targets = src.vec(1, 3, |s| s.u64(0, sets - 1));
    let pool = src.vec(1, 2 * cfg.ways as usize + 2, |s| {
        let set = targets[s.choice_index(targets.len())];
        arb_address_in_set(s, cfg, set)
    });
    let pick = |s: &mut Source| match s.weighted(&[8, 1]) {
        0 => pool[s.choice_index(pool.len())],
        _ => s.u64(0, u64::MAX),
    };
    let ops = src.vec(1, 120, |s| match s.weighted(&[24, 5, 1, 2, 1, 1]) {
        0 => CacheOp::Access(pick(s), s.bool()),
        1 => CacheOp::LockRepair(pick(s)),
        2 => CacheOp::LockWays(s.u32(0, cfg.ways)),
        3 => CacheOp::LockLines(
            s.vec(0, 2 * cfg.ways as usize, |s2| match s2.weighted(&[3, 1]) {
                0 => targets[s2.choice_index(targets.len())],
                _ => s2.u64(0, 2 * sets),
            }),
        ),
        4 => CacheOp::UnlockAll,
        _ => CacheOp::ResetStats,
    });
    (pool, ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_regions_stay_in_geometry() {
        let cfg = DramConfig::isca16_reliability();
        relaxfault_util::prop::check(300, |src| {
            for offer in arb_offer_sequence(src, &cfg) {
                for r in &offer {
                    if let Err(e) = r.check_geometry(&cfg) {
                        relaxfault_util::prop_assert!(false, "out of geometry: {e}");
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn offer_sequences_reach_shared_lines() {
        // Both follow-up kinds occur: a region over an earlier region's
        // blocks on another device, and one on the same device.
        let cfg = DramConfig::isca16_reliability();
        let (mut same_device, mut other_device) = (0, 0);
        relaxfault_util::prop::check(300, |src| {
            let mut seen: Vec<FaultRegion> = Vec::new();
            for offer in arb_offer_sequence(src, &cfg) {
                for r in &offer {
                    for q in &seen {
                        if q.rank == r.rank && q.footprint(&cfg).intersects(&r.footprint(&cfg)) {
                            if q.device == r.device {
                                same_device += 1;
                            } else {
                                other_device += 1;
                            }
                        }
                    }
                    seen.push(*r);
                }
            }
            Ok(())
        });
        assert!(
            same_device >= 30 && other_device >= 30,
            "overlaps: {same_device} same-device, {other_device} other-device"
        );
    }

    #[test]
    fn generator_reaches_every_corner_shape() {
        let cfg = DramConfig::isca16_reliability();
        let mut seen = [false; 6];
        relaxfault_util::prop::check(400, |src| {
            match arb_corner_extent(src, &cfg) {
                Extent::Bit { .. } => seen[0] = true,
                Extent::Word { .. } => seen[1] = true,
                Extent::Row { .. } => seen[2] = true,
                Extent::Column { .. } => seen[3] = true,
                Extent::RowCluster { .. } => seen[4] = true,
                Extent::Banks { .. } => seen[5] = true,
            }
            Ok(())
        });
        assert!(seen.iter().all(|&s| s), "missing shapes: {seen:?}");
    }
}
