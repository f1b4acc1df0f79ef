//! DRAM timing parameters (Tab. III).

/// Raw DDR4 timing parameters, in DRAM clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency.
    pub t_cl: u64,
    /// RAS-to-CAS delay.
    pub t_rcd: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Burst length in beats (BL8).
    pub burst_length: u64,
}

impl DramTiming {
    /// DDR4-2666 timings used throughout the paper:
    /// `BL=8, tCL=18, tRCD=18, tRP=18`.
    pub fn ddr4_2666() -> Self {
        Self {
            t_cl: 18,
            t_rcd: 18,
            t_rp: 18,
            burst_length: 8,
        }
    }

    /// Data transfer time for one 64 B burst in DRAM cycles
    /// (BL8 on a double-data-rate bus: 4 cycles).
    pub fn burst_cycles(&self) -> u64 {
        self.burst_length / 2
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Raw DRAM timings.
    pub timing: DramTiming,
    /// Number of banks in the channel.
    pub banks: usize,
    /// Row-buffer (DRAM page) size in bytes.
    pub row_bytes: u64,
    /// Core cycles per DRAM cycle, as a (numerator, denominator) ratio.
    /// 3 GHz core over a 1333 MHz DRAM clock is 9/4.
    pub core_per_dram: (u64, u64),
    /// Write-queue drain threshold: writes are buffered and only consume
    /// visible latency when the queue backs up.
    pub write_queue_depth: usize,
}

impl MemConfig {
    /// The paper's DDR4-2666 single-channel configuration (Tab. III).
    pub fn ddr4_2666() -> Self {
        Self {
            timing: DramTiming::ddr4_2666(),
            banks: 16,
            row_bytes: 8192,
            core_per_dram: (9, 4),
            write_queue_depth: 32,
        }
    }

    /// Converts DRAM cycles to core cycles (rounding up).
    pub fn to_core_cycles(&self, dram_cycles: u64) -> u64 {
        let (num, den) = self.core_per_dram;
        (dram_cycles * num).div_ceil(den)
    }

    /// Row-hit read latency in core cycles: `tCL + burst`.
    pub fn row_hit_cycles(&self) -> u64 {
        self.to_core_cycles(self.timing.t_cl + self.timing.burst_cycles())
    }

    /// Closed-row read latency in core cycles: `tRCD + tCL + burst`.
    pub fn row_closed_cycles(&self) -> u64 {
        self.to_core_cycles(self.timing.t_rcd + self.timing.t_cl + self.timing.burst_cycles())
    }

    /// Row-conflict read latency in core cycles:
    /// `tRP + tRCD + tCL + burst`.
    pub fn row_conflict_cycles(&self) -> u64 {
        self.to_core_cycles(
            self.timing.t_rp + self.timing.t_rcd + self.timing.t_cl + self.timing.burst_cycles(),
        )
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::ddr4_2666()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2666_parameters_match_paper() {
        let t = DramTiming::ddr4_2666();
        assert_eq!(t.t_cl, 18);
        assert_eq!(t.t_rcd, 18);
        assert_eq!(t.t_rp, 18);
        assert_eq!(t.burst_length, 8);
        assert_eq!(t.burst_cycles(), 4);
    }

    #[test]
    fn latency_ordering() {
        let cfg = MemConfig::ddr4_2666();
        assert!(cfg.row_hit_cycles() < cfg.row_closed_cycles());
        assert!(cfg.row_closed_cycles() < cfg.row_conflict_cycles());
    }

    #[test]
    fn core_cycle_conversion_rounds_up() {
        let cfg = MemConfig::ddr4_2666();
        // 4 DRAM cycles * 9/4 = 9 core cycles exactly.
        assert_eq!(cfg.to_core_cycles(4), 9);
        // 1 DRAM cycle * 9/4 = 2.25 -> 3.
        assert_eq!(cfg.to_core_cycles(1), 3);
    }

    #[test]
    fn row_hit_is_about_50_core_cycles() {
        // tCL(18) + burst(4) = 22 DRAM cycles = 49.5 -> 50 core cycles.
        assert_eq!(MemConfig::ddr4_2666().row_hit_cycles(), 50);
    }
}
