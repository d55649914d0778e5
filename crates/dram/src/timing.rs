//! DDR3 bank-level command timing for the performance simulator.
//!
//! Models the constraints any DDR3 memory controller must respect (the
//! performance simulator's is FCFS with an open-page policy):
//! per-bank tRCD/tRP/tCL/tRAS/tWR/tRTP, per-rank tRRD and the four-activate
//! window tFAW, and the data-bus occupancy of each burst. Time is counted in
//! memory-controller clock cycles (one cycle = one DRAM command slot).

use std::collections::VecDeque;

/// DDR3 timing parameters in controller cycles.
///
/// Defaults follow a Micron DDR3-1600 (MT41J-class, 11-11-11) ×4 part, the
/// device family named in the paper's Table 3.
///
/// # Examples
///
/// ```
/// let t = relaxfault_dram::DdrTiming::ddr3_1600();
/// assert_eq!(t.t_cl, 11);
/// assert!(t.t_ras >= t.t_rcd);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrTiming {
    /// Data-rate clock in MHz (DDR3-1600 → 800 MHz command clock).
    pub clock_mhz: u32,
    /// CAS latency: READ to first data.
    pub t_cl: u32,
    /// ACTIVATE to READ/WRITE.
    pub t_rcd: u32,
    /// PRECHARGE to ACTIVATE.
    pub t_rp: u32,
    /// ACTIVATE to PRECHARGE (minimum row-open time).
    pub t_ras: u32,
    /// ACTIVATE to ACTIVATE, same bank (tRAS + tRP).
    pub t_rc: u32,
    /// ACTIVATE to ACTIVATE, different banks of one rank.
    pub t_rrd: u32,
    /// Rolling window in which at most four ACTIVATEs may issue per rank.
    pub t_faw: u32,
    /// End of write data to PRECHARGE.
    pub t_wr: u32,
    /// READ to PRECHARGE.
    pub t_rtp: u32,
    /// Write data latency (WRITE to first data).
    pub t_cwl: u32,
    /// Write-to-read turnaround, same rank.
    pub t_wtr: u32,
    /// Cycles of data bus per burst (BL8 → 4 controller cycles).
    pub t_burst: u32,
    /// Column-to-column command spacing.
    pub t_ccd: u32,
    /// Average refresh interval (7.8 µs → 6240 cycles at 800 MHz).
    pub t_refi: u32,
    /// Refresh cycle time (260 ns for 4 Gb parts → 208 cycles).
    pub t_rfc: u32,
}

impl DdrTiming {
    /// DDR3-1600, CL-tRCD-tRP = 11-11-11 (Micron MT41J datasheet values).
    pub fn ddr3_1600() -> Self {
        Self {
            clock_mhz: 800,
            t_cl: 11,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_rrd: 5,
            t_faw: 24,
            t_wr: 12,
            t_rtp: 6,
            t_cwl: 8,
            t_wtr: 6,
            t_burst: 4,
            t_ccd: 4,
            t_refi: 6240,
            t_rfc: 208,
        }
    }

    /// Checks internal consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err("tRC must be at least tRAS + tRP".into());
        }
        if self.t_faw < self.t_rrd {
            return Err("tFAW must be at least tRRD".into());
        }
        if self.t_burst == 0 || self.clock_mhz == 0 {
            return Err("burst and clock must be nonzero".into());
        }
        if self.t_refi > 0 && self.t_refi <= self.t_rfc {
            return Err("tREFI must exceed tRFC".into());
        }
        Ok(())
    }

    /// Nanoseconds per controller cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1000.0 / self.clock_mhz as f64
    }
}

/// DRAM commands the controller can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCmd {
    /// Open a row in a bank.
    Activate,
    /// Close a bank's open row.
    Precharge,
    /// Column read burst from the open row.
    Read,
    /// Column write burst to the open row.
    Write,
}

/// Per-bank timing state.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u32>,
    act_at: u64,
    ready_at: u64,    // earliest next column command (post-ACT tRCD etc.)
    pre_allowed: u64, // earliest PRECHARGE (tRAS / tWR / tRTP)
    act_allowed: u64, // earliest next ACTIVATE (tRP after PRE, tRC after ACT)
}

/// Timing state of one rank: all of its banks plus the rank-level ACT
/// constraints (tRRD, tFAW) and data-bus occupancy.
///
/// The controller asks [`RankTiming::earliest`] when a command *could*
/// issue, and commits it with [`RankTiming::issue`]. Both are monotone in
/// time; issuing at a cycle earlier than `earliest` reports is a logic error
/// and panics in debug builds.
///
/// # Examples
///
/// ```
/// use relaxfault_dram::{DdrTiming, DramCmd, RankTiming};
/// let t = DdrTiming::ddr3_1600();
/// let mut rank = RankTiming::new(8, t);
/// let at = rank.earliest(DramCmd::Activate, 0, 5, 0);
/// rank.issue(DramCmd::Activate, 0, 5, at);
/// let rd = rank.earliest(DramCmd::Read, 0, 5, at);
/// assert_eq!(rd, at + t.t_rcd as u64);
/// ```
#[derive(Debug, Clone)]
pub struct RankTiming {
    timing: DdrTiming,
    banks: Vec<BankState>,
    last_act: Option<u64>,
    act_window: VecDeque<u64>,
    bus_free_at: u64,
    last_wr_data_end: Option<u64>,
    last_col_cmd: Option<u64>,
}

impl RankTiming {
    /// Creates timing state for a rank with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `timing` fails validation.
    pub fn new(banks: u32, timing: DdrTiming) -> Self {
        assert!(banks > 0);
        timing.validate().expect("invalid DdrTiming");
        Self {
            timing,
            banks: vec![BankState::default(); banks as usize],
            last_act: None,
            act_window: VecDeque::new(),
            bus_free_at: 0,
            last_wr_data_end: None,
            last_col_cmd: None,
        }
    }

    /// The row currently open in `bank`, if any.
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        self.banks[bank as usize].open_row
    }

    /// Earliest cycle (≥ `now`) at which `cmd` targeting `bank`/`row` can
    /// legally issue.
    ///
    /// # Panics
    ///
    /// Panics if the command is inconsistent with bank state (e.g. `Read`
    /// with a different row open — the controller must precharge first).
    pub fn earliest(&self, cmd: DramCmd, bank: u32, row: u32, now: u64) -> u64 {
        let b = &self.banks[bank as usize];
        let t = &self.timing;
        match cmd {
            DramCmd::Activate => {
                assert!(b.open_row.is_none(), "activate with a row already open");
                let mut at = now.max(b.act_allowed);
                if let Some(last) = self.last_act {
                    at = at.max(last + t.t_rrd as u64);
                }
                if self.act_window.len() >= 4 {
                    at = at.max(self.act_window[self.act_window.len() - 4] + t.t_faw as u64);
                }
                at
            }
            DramCmd::Precharge => at_least(now, b.pre_allowed),
            DramCmd::Read | DramCmd::Write => {
                assert_eq!(
                    b.open_row,
                    Some(row),
                    "column command to a row that is not open"
                );
                let mut at = now.max(b.ready_at);
                if let Some(last) = self.last_col_cmd {
                    at = at.max(last + t.t_ccd as u64);
                }
                if cmd == DramCmd::Read {
                    // Write-to-read turnaround.
                    if let Some(end) = self.last_wr_data_end {
                        at = at.max(end + t.t_wtr as u64);
                    }
                }
                // Data bus must be free when this burst's data flies.
                let data_lat = if cmd == DramCmd::Read {
                    t.t_cl
                } else {
                    t.t_cwl
                } as u64;
                if at + data_lat < self.bus_free_at {
                    at = self.bus_free_at - data_lat;
                }
                at
            }
        }
    }

    /// Commits `cmd` at cycle `at`, updating all window state. Returns the
    /// cycle at which the command's effect completes (data end for column
    /// commands, bank-ready for ACT/PRE).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `at` precedes what [`RankTiming::earliest`] allows,
    /// or (always) if the command is inconsistent with bank state.
    pub fn issue(&mut self, cmd: DramCmd, bank: u32, row: u32, at: u64) -> u64 {
        debug_assert!(
            at >= self.earliest(cmd, bank, row, 0),
            "command issued before its constraints allow"
        );
        let t = self.timing;
        let b = &mut self.banks[bank as usize];
        match cmd {
            DramCmd::Activate => {
                assert!(b.open_row.is_none(), "activate with a row already open");
                b.open_row = Some(row);
                b.act_at = at;
                b.ready_at = at + t.t_rcd as u64;
                b.pre_allowed = at + t.t_ras as u64;
                b.act_allowed = at + t.t_rc as u64;
                self.last_act = Some(at);
                self.act_window.push_back(at);
                while self.act_window.len() > 4 {
                    self.act_window.pop_front();
                }
                b.ready_at
            }
            DramCmd::Precharge => {
                assert!(b.open_row.is_some(), "precharge with no row open");
                b.open_row = None;
                b.act_allowed = b.act_allowed.max(at + t.t_rp as u64);
                at + t.t_rp as u64
            }
            DramCmd::Read => {
                assert_eq!(b.open_row, Some(row));
                let data_end = at + (t.t_cl + t.t_burst) as u64;
                self.bus_free_at = self.bus_free_at.max(data_end);
                self.last_col_cmd = Some(at);
                b.pre_allowed = b.pre_allowed.max(at + t.t_rtp as u64);
                data_end
            }
            DramCmd::Write => {
                assert_eq!(b.open_row, Some(row));
                let data_end = at + (t.t_cwl + t.t_burst) as u64;
                self.bus_free_at = self.bus_free_at.max(data_end);
                self.last_wr_data_end = Some(data_end);
                self.last_col_cmd = Some(at);
                b.pre_allowed = b.pre_allowed.max(data_end + t.t_wr as u64);
                data_end
            }
        }
    }
}

fn at_least(now: u64, bound: u64) -> u64 {
    now.max(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank() -> RankTiming {
        RankTiming::new(8, DdrTiming::ddr3_1600())
    }

    #[test]
    fn ddr3_1600_is_valid() {
        DdrTiming::ddr3_1600().validate().unwrap();
        assert!((DdrTiming::ddr3_1600().ns_per_cycle() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn act_then_read_honours_trcd() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        r.issue(DramCmd::Activate, 0, 100, 0);
        assert_eq!(r.open_row(0), Some(100));
        let rd = r.earliest(DramCmd::Read, 0, 100, 0);
        assert_eq!(rd, t.t_rcd as u64);
    }

    #[test]
    fn row_cycle_honours_trc() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        r.issue(DramCmd::Activate, 0, 1, 0);
        let pre_at = r.earliest(DramCmd::Precharge, 0, 1, 0);
        assert_eq!(pre_at, t.t_ras as u64);
        r.issue(DramCmd::Precharge, 0, 1, pre_at);
        let act2 = r.earliest(DramCmd::Activate, 0, 2, 0);
        assert_eq!(act2, (t.t_ras + t.t_rp).max(t.t_rc) as u64);
    }

    #[test]
    fn tfaw_limits_activate_bursts() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        let mut at = 0;
        for bank in 0..4 {
            at = r.earliest(DramCmd::Activate, bank, 0, at);
            r.issue(DramCmd::Activate, bank, 0, at);
        }
        // Fifth ACT must wait for the tFAW window anchored at the first.
        let fifth = r.earliest(DramCmd::Activate, 4, 0, at);
        assert!(
            fifth >= t.t_faw as u64,
            "fifth act at {fifth}, tFAW {}",
            t.t_faw
        );
        // And consecutive ACTs respected tRRD.
        assert!(at >= 3 * t.t_rrd as u64);
    }

    #[test]
    fn back_to_back_reads_pack_the_bus() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        r.issue(DramCmd::Activate, 0, 0, 0);
        let rd1 = r.earliest(DramCmd::Read, 0, 0, 0);
        let end1 = r.issue(DramCmd::Read, 0, 0, rd1);
        let rd2 = r.earliest(DramCmd::Read, 0, 0, rd1);
        let end2 = r.issue(DramCmd::Read, 0, 0, rd2);
        // Streamed bursts: data back-to-back, tCCD apart.
        assert_eq!(rd2 - rd1, t.t_ccd as u64);
        assert_eq!(end2 - end1, t.t_burst as u64);
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        r.issue(DramCmd::Activate, 0, 0, 0);
        let wr = r.earliest(DramCmd::Write, 0, 0, 0);
        let wr_data_end = r.issue(DramCmd::Write, 0, 0, wr);
        let rd = r.earliest(DramCmd::Read, 0, 0, wr);
        assert!(rd >= wr_data_end + t.t_wtr as u64);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        r.issue(DramCmd::Activate, 0, 0, 0);
        let wr = r.earliest(DramCmd::Write, 0, 0, 0);
        let data_end = r.issue(DramCmd::Write, 0, 0, wr);
        let pre = r.earliest(DramCmd::Precharge, 0, 0, 0);
        assert_eq!(pre, data_end + t.t_wr as u64);
    }

    #[test]
    #[should_panic(expected = "row that is not open")]
    fn read_to_wrong_row_panics() {
        let mut r = rank();
        r.issue(DramCmd::Activate, 0, 7, 0);
        r.earliest(DramCmd::Read, 0, 8, 100);
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn double_activate_panics() {
        let mut r = rank();
        r.issue(DramCmd::Activate, 0, 7, 0);
        r.issue(DramCmd::Activate, 0, 9, 100);
    }

    #[test]
    fn banks_are_independent_for_rcd() {
        let mut r = rank();
        let t = DdrTiming::ddr3_1600();
        r.issue(DramCmd::Activate, 0, 0, 0);
        let a1 = r.earliest(DramCmd::Activate, 1, 0, 0);
        assert_eq!(a1, t.t_rrd as u64, "other bank waits only tRRD");
    }
}
