//! LLC model throughput: demand accesses and repair-line locking.

use relaxfault_cache::{Cache, CacheConfig};
use relaxfault_util::rng::{Rng, Rng64};
use relaxfault_util::timing::{black_box, Harness};

fn main() {
    let mut h = Harness::new();
    let mut llc = Cache::new(CacheConfig::isca16_llc());
    llc.access(0x4000, false);
    h.bench("llc_access_hit", || black_box(llc.access(0x4000, false)));
    let mut llc = Cache::new(CacheConfig::isca16_llc());
    let mut a = 0u64;
    h.bench("llc_access_stream", || {
        a = a.wrapping_add(64);
        black_box(llc.access(a, false))
    });
    // perfsim's miss-dominated pattern: uniform random lines over a
    // footprint 64x the modelled LLC, a quarter of them stores.
    let cfg = CacheConfig::isca16_llc();
    let mut llc = Cache::new(cfg);
    let mut rng = Rng64::seed_from_u64(2016);
    let lines = 64 * cfg.total_lines();
    h.bench("llc_access_random", || {
        let addr = rng.gen_range(0..lines) * cfg.line_bytes as u64;
        black_box(llc.access(addr, rng.gen_bool(0.25)))
    });
    let mut llc = Cache::new(CacheConfig::isca16_llc());
    let mut a = 0u64;
    h.bench("llc_lock_repair_line", || {
        a = a.wrapping_add(64);
        black_box(llc.lock_repair_line(a).is_ok())
    });
}
