//! Memory controller: address mapping, bank arbitration, queues, stats.

use crate::bank::{Bank, RowBufferOutcome};
use crate::timing::MemConfig;
use compresso_telemetry::{counters, LatencyHistogram, Registry};

/// Outcome of a single 64 B access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Core cycle at which the access was issued to the controller.
    pub issued_at: u64,
    /// Core cycle at which data is available (reads) or the write is
    /// accepted into the write queue.
    pub complete_at: u64,
    /// Row-buffer behaviour of the access.
    pub row_outcome: RowBufferOutcome,
}

impl AccessResult {
    /// End-to-end latency in core cycles.
    pub fn latency(&self) -> u64 {
        self.complete_at - self.issued_at
    }
}

counters! {
    /// Aggregate statistics, including the energy-relevant event counts
    /// consumed by `compresso-energy`.
    pub struct MemStats;
    /// Live counter handles behind [`MemStats`]; clones share storage so
    /// the registry observes every update the controller makes.
    struct MemEvents {
        /// Completed read bursts.
        reads => "read.total",
        /// Completed write bursts.
        writes => "write.total",
        /// Row-buffer hits.
        row_hits => "row_hit.total",
        /// Accesses to a precharged bank.
        row_closed => "row_closed.total",
        /// Row-buffer conflicts (precharge + activate).
        row_conflicts => "row_conflict.total",
        /// Row activations (closed + conflict accesses).
        activations => "activation.total",
        /// Cycles any bank was occupied (approximate busy time).
        busy_cycles => "busy_cycles.total",
    }
}

impl MemStats {
    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate in [0, 1]; 0 if no accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// A single-channel DDR4 main memory with a simple FR-FCFS-like policy:
/// accesses are serviced in arrival order but row-buffer state is tracked
/// per bank, and writes are buffered through a write queue whose drain only
/// delays the requester once the queue is full.
#[derive(Debug, Clone)]
pub struct MainMemory {
    config: MemConfig,
    /// Service cycles of a row hit, a closed row and a row conflict, and
    /// the data burst's share of each, all in core cycles.
    hit_cycles: u64,
    closed_cycles: u64,
    conflict_cycles: u64,
    burst_cycles: u64,
    /// `log2(row_bytes)` and `log2(banks)`: above an address's row
    /// offset come its bank bits, then its row.
    row_shift: u32,
    bank_bits: u32,
    banks: Vec<Bank>,
    /// Cycle the shared data bus frees.
    bus_free_at: u64,
    /// Pending buffered writes: completion times on the bus.
    write_queue: Vec<u64>,
    stats: MemEvents,
    /// Per-bank end-to-end access-latency distributions (queue wait +
    /// service), in core cycles.
    bank_latency: Vec<LatencyHistogram>,
}

impl MainMemory {
    /// Creates a memory from `config`.
    ///
    /// # Panics
    ///
    /// Panics unless `config.banks` and `config.row_bytes` are powers of
    /// two.
    pub fn new(config: MemConfig) -> Self {
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(
            config.row_bytes.is_power_of_two(),
            "row size must be a power of two"
        );
        let banks: Vec<Bank> = (0..config.banks).map(|_| Bank::new()).collect();
        let bank_latency = (0..config.banks)
            .map(|_| LatencyHistogram::cycles())
            .collect();
        Self {
            hit_cycles: config.row_hit_cycles(),
            closed_cycles: config.row_closed_cycles(),
            conflict_cycles: config.row_conflict_cycles(),
            burst_cycles: config.to_core_cycles(config.timing.burst_cycles()),
            row_shift: config.row_bytes.trailing_zeros(),
            bank_bits: config.banks.trailing_zeros(),
            config,
            banks,
            bus_free_at: 0,
            write_queue: Vec::new(),
            stats: MemEvents::default(),
            bank_latency,
        }
    }

    /// The configuration this memory was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> MemStats {
        self.stats.snapshot()
    }

    /// Registers this controller's counters and per-bank latency
    /// histograms under `prefix` (e.g. `dram` →
    /// `dram.read.total`, `dram.bank03.latency`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.stats.register_metrics(registry, prefix);
        for (i, hist) in self.bank_latency.iter().enumerate() {
            registry.register_histogram(&format!("{prefix}.bank{i:02}.latency"), hist);
        }
    }

    /// The bank and row of `addr`: consecutive rows interleave across
    /// the banks.
    fn map(&self, addr: u64) -> (usize, u64) {
        let row_index = addr >> self.row_shift;
        let bank = (row_index & ((1 << self.bank_bits) - 1)) as usize;
        let row = row_index >> self.bank_bits;
        (bank, row)
    }

    fn service(&mut self, now: u64, addr: u64) -> AccessResult {
        let (bank_idx, row) = self.map(addr);
        let outcome = self.banks[bank_idx].classify(row);
        let service = match outcome {
            RowBufferOutcome::Hit => {
                self.stats.row_hits += 1;
                self.hit_cycles
            }
            RowBufferOutcome::Closed => {
                self.stats.row_closed += 1;
                self.stats.activations += 1;
                self.closed_cycles
            }
            RowBufferOutcome::Conflict => {
                self.stats.row_conflicts += 1;
                self.stats.activations += 1;
                self.conflict_cycles
            }
        };
        // Data bus occupancy: one burst per access.
        let earliest = now.max(self.bus_free_at.saturating_sub(service - self.burst_cycles));
        let start = self.banks[bank_idx].access(earliest, row, service);
        let complete = start + service;
        self.bus_free_at = self.bus_free_at.max(complete);
        self.stats.busy_cycles += service;
        self.bank_latency[bank_idx].record(complete - now);
        AccessResult {
            issued_at: now,
            complete_at: complete,
            row_outcome: outcome,
        }
    }

    /// Issues a 64 B read burst at core cycle `now`.
    pub fn read(&mut self, now: u64, addr: u64) -> AccessResult {
        self.drain_writes(now);
        self.stats.reads += 1;
        self.service(now, addr)
    }

    /// Issues a 64 B write burst at `now`.
    ///
    /// Writes are posted: the returned `complete_at` is when the write is
    /// accepted. If the write queue is full, acceptance stalls until the
    /// oldest buffered write has drained.
    pub fn write(&mut self, now: u64, addr: u64) -> AccessResult {
        self.drain_writes(now);
        self.stats.writes += 1;
        let result = self.service(now, addr);
        let accept_at = if self.write_queue.len() >= self.config.write_queue_depth {
            // Queue full: the requester waits for the oldest entry.
            let oldest = self.write_queue.remove(0);
            now.max(oldest)
        } else {
            now
        };
        self.write_queue.push(result.complete_at);
        AccessResult {
            issued_at: now,
            complete_at: accept_at.max(now),
            row_outcome: result.row_outcome,
        }
    }

    fn drain_writes(&mut self, now: u64) {
        self.write_queue.retain(|&done| done > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MainMemory {
        MainMemory::new(MemConfig::ddr4_2666())
    }

    #[test]
    fn first_read_is_closed_row() {
        let mut m = mem();
        let r = m.read(0, 0);
        assert_eq!(r.row_outcome, RowBufferOutcome::Closed);
        assert_eq!(r.latency(), m.config().row_closed_cycles());
    }

    #[test]
    fn same_row_read_hits() {
        let mut m = mem();
        let r1 = m.read(0, 0);
        let r2 = m.read(r1.complete_at, 64);
        assert_eq!(r2.row_outcome, RowBufferOutcome::Hit);
        assert!(r2.latency() < r1.latency());
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut m = mem();
        let row_span = m.config().row_bytes * m.config().banks as u64;
        let r1 = m.read(0, 0);
        let r2 = m.read(r1.complete_at, row_span); // same bank, next row
        assert_eq!(r2.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!(r2.latency(), m.config().row_conflict_cycles());
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = mem();
        let r1 = m.read(0, 0);
        // Different bank: starts immediately even though bank 0 is busy.
        let r2 = m.read(0, m.config().row_bytes);
        assert_eq!(r2.row_outcome, RowBufferOutcome::Closed);
        assert!(r2.complete_at <= r1.complete_at + m.config().to_core_cycles(4));
    }

    #[test]
    fn posted_writes_do_not_stall_until_queue_full() {
        let mut m = mem();
        let w = m.write(0, 0);
        assert_eq!(w.complete_at, 0, "posted write should not stall");
        // Saturate the queue with back-to-back same-cycle writes.
        let mut stalled = false;
        for i in 0..200u64 {
            let w = m.write(0, i * 64);
            if w.complete_at > 0 {
                stalled = true;
                break;
            }
        }
        assert!(stalled, "a full write queue must eventually stall");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mem();
        let r = m.read(0, 0);
        m.write(r.complete_at, 64);
        assert_eq!(m.stats().reads, 1);
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().accesses(), 2);
        assert!(m.stats().row_hit_rate() > 0.0);
    }

    #[test]
    fn registered_metrics_track_the_controller() {
        let mut m = mem();
        let reg = Registry::new();
        m.register_metrics(&reg, "dram");
        let r = m.read(0, 0);
        m.write(r.complete_at, 64);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dram.read.total"), Some(1));
        assert_eq!(snap.counter("dram.write.total"), Some(1));
        let bank0 = snap
            .histogram("dram.bank00.latency")
            .expect("bank 0 histogram");
        assert_eq!(bank0.count, 2, "both accesses map to bank 0");
        assert!(bank0.p50() > 0);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two")]
    fn non_power_of_two_bank_count_is_rejected() {
        MainMemory::new(MemConfig {
            banks: 12,
            ..MemConfig::ddr4_2666()
        });
    }

    #[test]
    fn busy_bank_serializes_requests() {
        let mut m = mem();
        let r1 = m.read(0, 0);
        // Same bank, same row, issued immediately: must wait for the bank.
        let r2 = m.read(0, 64);
        assert!(r2.complete_at > r1.complete_at);
        assert_eq!(r2.row_outcome, RowBufferOutcome::Hit);
    }
}
