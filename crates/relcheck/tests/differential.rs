//! Differential oracle suite: production planners, trial evaluation, and
//! the engine against their naive references, plus a seeded-mutation check
//! that the harness actually catches the class of bug it exists for.

use relaxfault_cache::{CacheConfig, Indexing};
use relaxfault_core::plan::{FreeFault, RelaxFault};
use relaxfault_dram::DramConfig;
use relaxfault_relcheck::gen;
use relaxfault_relcheck::oracle::{
    self, cache_oracle_property, check_with_repro, engine_oracle_property, eval_oracle_property,
    free_oracle_property, ppr_oracle_property, relax_oracle_property, NaiveFree, NaiveOccupancy,
    NaiveRelax,
};
use relaxfault_util::prop::{self, Source};
use relaxfault_util::{prop_assert, prop_assert_eq};

/// RelaxFault planner vs direct-encode, two-pass reference: 1000 generated
/// corner-biased offer sequences, verdicts and full occupancy state
/// bit-identical after every offer.
#[test]
fn relax_planner_matches_naive_reference() {
    check_with_repro("relax_oracle", 1000, relax_oracle_property);
}

/// FreeFault planner vs physical-address reference, same regime.
#[test]
fn free_planner_matches_naive_reference() {
    check_with_repro("free_oracle", 1000, free_oracle_property);
}

/// PPR planner vs ordered-map reference, default and custom groupings.
#[test]
fn ppr_planner_matches_naive_reference() {
    check_with_repro("ppr_oracle", 1000, ppr_oracle_property);
}

/// Scratch-reusing trial evaluation vs the allocate-everything reference,
/// including back-to-back trials through one scratch (planner reset).
#[test]
fn trial_evaluation_matches_allocating_reference() {
    check_with_repro("eval_oracle", 200, eval_oracle_property);
}

/// The parallel fast-pathed engine vs the single-threaded reference, at
/// generated thread counts and chunk sizes.
#[test]
fn engine_matches_single_threaded_reference() {
    check_with_repro("engine_oracle", 20, engine_oracle_property);
}

/// Packed runtime cache vs the array-of-structs reference: 1000 generated
/// operation sequences over corner geometries, canonical and XOR-folded,
/// every observable bit-identical after every step.
#[test]
fn cache_model_matches_naive_reference() {
    check_with_repro("cache_oracle", 1000, cache_oracle_property);
}

/// A deliberately broken occupancy tracker: the production one-pass
/// insert, with the rollback on rejection *dropped* — exactly the bug the
/// `try_add` atomicity contract guards against. The differential harness
/// must catch it.
struct BuggyOccupancy {
    max_ways: u32,
    lines: std::collections::HashSet<u64>,
    per_set: Vec<u32>,
}

impl BuggyOccupancy {
    fn new(sets: usize, max_ways: u32) -> Self {
        Self {
            max_ways,
            lines: std::collections::HashSet::new(),
            per_set: vec![0; sets],
        }
    }

    fn try_add(&mut self, cand: &[(u64, u64)]) -> bool {
        for &(set, key) in cand {
            if !self.lines.insert(key) {
                continue;
            }
            let c = &mut self.per_set[set as usize];
            *c += 1;
            if *c > self.max_ways {
                // BUG under test: abort without rolling back anything this
                // call already inserted.
                return false;
            }
        }
        true
    }
}

#[test]
fn seeded_rollback_mutation_is_caught() {
    // A tiny 8-set, 2-way cache so generated offers collide constantly.
    let llc = CacheConfig {
        size_bytes: 8 * 2 * 64,
        ways: 2,
        line_bytes: 64,
        indexing: Indexing::Canonical,
    };
    let ce = prop::find_counterexample(500, |src: &mut Source| {
        let max_ways = src.u32(1, 2);
        let mut buggy = BuggyOccupancy::new(8, max_ways);
        let mut naive = NaiveOccupancy::new(&llc, max_ways);
        let offers = src.vec(1, 8, |s| s.vec(1, 6, |s2| (s2.u64(0, 7), s2.u64(0, 31))));
        for offer in &offers {
            let a = buggy.try_add(offer);
            let b = naive.try_add(offer);
            prop_assert_eq!(a, b, "verdict diverged");
            let mut keys: Vec<u64> = buggy.lines.iter().copied().collect();
            keys.sort_unstable();
            prop_assert_eq!(keys, naive.line_keys(), "locked lines diverged");
        }
        Ok(())
    });
    assert!(
        ce.is_some(),
        "the dropped rollback must be caught by the differential harness"
    );
}

/// A deliberately broken region-level admission: it ignores the list of
/// intersecting regions and counts every line of every region as fresh,
/// so a line an accepted region — or an earlier region of the same fault —
/// already locked is counted twice.
struct DoubleCounting {
    max_ways: u32,
    per_set: Vec<u32>,
    lines: u64,
}

impl DoubleCounting {
    fn new(llc: &CacheConfig, max_ways: u32) -> Self {
        Self {
            max_ways,
            per_set: vec![0; llc.sets() as usize],
            lines: 0,
        }
    }

    /// Admits one fault's `(set, key)` lines atomically.
    fn try_add(&mut self, cand: &[(u64, u64)]) -> bool {
        let mut add = vec![0u32; self.per_set.len()];
        for &(set, _) in cand {
            add[set as usize] += 1; // BUG under test: no overlap check
        }
        if add
            .iter()
            .zip(&self.per_set)
            .any(|(a, c)| a + c > self.max_ways)
        {
            return false;
        }
        for (c, a) in self.per_set.iter_mut().zip(add) {
            *c += a;
        }
        self.lines += cand.len() as u64;
        true
    }
}

/// The generator's overlapping follow-ups reach the intersecting-region
/// path of both planners: the double-counting mutant diverges from the
/// naive references on shared RelaxFault colgroups and FreeFault blocks.
#[test]
fn seeded_double_count_mutation_is_caught() {
    let dram = DramConfig::isca16_reliability();
    let llc = CacheConfig::isca16_llc();
    let relax = prop::find_counterexample(500, |src: &mut Source| {
        let max_ways = gen::arb_max_ways(src);
        let prod = RelaxFault::new(&dram, &llc, max_ways);
        let mut naive = NaiveRelax::new(&dram, &llc, max_ways);
        let mut buggy = DoubleCounting::new(&llc, max_ways);
        for offer in gen::arb_offer_sequence(src, &dram) {
            let fits = prod.lines_needed(&offer) <= naive.occupancy().budget_ceiling();
            let a = fits && buggy.try_add(&naive.enumerate(&offer));
            prop_assert_eq!(a, naive.try_repair(&offer));
            prop_assert_eq!(buggy.lines, naive.occupancy().lines_used());
        }
        Ok(())
    });
    let free = prop::find_counterexample(500, |src: &mut Source| {
        let max_ways = gen::arb_max_ways(src);
        let prod = FreeFault::new(&dram, &llc, max_ways);
        let mut naive = NaiveFree::new(&dram, &llc, max_ways);
        let mut buggy = DoubleCounting::new(&llc, max_ways);
        for offer in gen::arb_offer_sequence(src, &dram) {
            let fits = prod.lines_needed(&offer) <= naive.occupancy().budget_ceiling();
            let a = fits && buggy.try_add(&naive.enumerate(&offer));
            prop_assert_eq!(a, naive.try_repair(&offer));
            prop_assert_eq!(buggy.lines, naive.occupancy().lines_used());
        }
        Ok(())
    });
    assert!(
        relax.is_some(),
        "double-counted RelaxFault colgroups must be caught"
    );
    assert!(
        free.is_some(),
        "double-counted FreeFault blocks must be caught"
    );
}

/// `run_smoke` (the CI entry point) passes at its reduced default count.
#[test]
fn smoke_entry_point_passes() {
    assert_eq!(oracle::run_smoke(10), Ok(()));
}

/// The naive occupancy itself honours the atomicity contract it is used
/// to enforce: a rejected offer leaves it untouched.
#[test]
fn naive_occupancy_rejection_is_atomic() {
    let llc = CacheConfig::isca16_llc_no_hash();
    prop::check(200, |src| {
        let mut occ = NaiveOccupancy::new(&llc, 1);
        let accepted = src.vec(0, 4, |s| (s.u64(0, 7), s.u64(0, 15)));
        occ.try_add(&accepted);
        let before_keys = occ.line_keys();
        let before_sets = occ.occupied_sets();
        // An offer that reuses an occupied set with a fresh key must be
        // rejected and leave no trace.
        if let Some(&(set, _)) = occ.occupied_sets().first() {
            let offer = [(set as u64, 1000), (set as u64, 1001)];
            prop_assert!(!occ.try_add(&offer), "two fresh lines cannot fit one way");
            prop_assert_eq!(occ.line_keys(), before_keys);
            prop_assert_eq!(occ.occupied_sets(), before_sets);
        }
        Ok(())
    });
}
