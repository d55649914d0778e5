//! DRAM system organization, address mapping, timing, and power.
//!
//! This crate models the main-memory substrate that RelaxFault (Kim & Erez,
//! ISCA 2016) operates on:
//!
//! * [`config`] — the geometry of a node's memory system: channels, DIMMs,
//!   ranks, ×4/×8 devices, banks, rows, columns, subarrays (paper Figure 1).
//! * [`addr`] — the physical-address ⇄ DRAM-location mapping (paper
//!   Figure 7a), including the XOR-permutation *bank hash* of Zhang et al.
//!   that memory controllers use to spread row-buffer conflicts. The mapping
//!   is bit-exact and invertible; the repair mechanisms in
//!   `relaxfault-core` depend on its bit-level structure.
//! * [`devmap`] — how each DRAM device's bits interleave into a 64-byte
//!   cache line (one `device_width`-bit nibble per device per burst beat).
//!   This is what makes a single-device fault *spread* across a line, and
//!   what the RelaxFault coalescer reverses.
//! * [`timing`] — DDR3 bank-level command timing (tRCD/tRP/tCL/tRAS/tFAW/...)
//!   used by the performance simulator's FCFS open-page controller.
//! * [`power`] — per-operation DRAM energy accounting in the style of
//!   Micron TN-41-01, used for the paper's Figure 16.
//!
//! # Examples
//!
//! ```
//! use relaxfault_dram::{DramConfig, AddressMap, PhysAddr};
//!
//! let cfg = DramConfig::isca16_reliability();
//! let map = AddressMap::nehalem_like(&cfg, true);
//! let (loc, off) = map.decode(PhysAddr(0x2_1234_5678));
//! assert_eq!(map.encode(loc, off), PhysAddr(0x2_1234_5678));
//! ```

pub mod addr;
pub mod config;
pub mod devmap;
pub mod power;
pub mod timing;

pub use addr::{AddressMap, DramLoc, Field, PhysAddr};
pub use config::{DramConfig, RankId};
pub use power::{DramEnergy, OpCounts};
pub use timing::{DdrTiming, DramCmd, RankTiming};
