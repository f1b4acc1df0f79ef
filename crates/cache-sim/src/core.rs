//! A trace-driven timing model of an out-of-order core.
//!
//! The paper simulates a 3 GHz, 4-wide OOO core with a 192-entry ROB
//! (Tab. III). We approximate out-of-order execution the way many
//! memory-system studies do: non-memory instructions retire at the issue
//! width; cache hits below L1 expose a small fixed penalty (most of their
//! latency is hidden by the ROB); main-memory misses, loads and stores
//! alike, overlap with each other up to a memory-level-parallelism (MLP)
//! window, modelling the ROB's ability to keep several misses in flight.
//! The core waits for a miss only when the window is full, and then only
//! until the oldest one completes.

use crate::hierarchy::{Backend, Hierarchy, HitLevel};
use std::collections::VecDeque;

/// One element of an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// `n` non-memory instructions.
    Compute(u32),
    /// A load from a 64 B-aligned OSPA address.
    Read(u64),
    /// A store to a 64 B-aligned OSPA address.
    Write(u64),
}

/// Core timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Instructions retired per cycle when nothing stalls.
    pub issue_width: u32,
    /// Maximum overlapped main-memory misses (MSHR/ROB limit).
    pub mlp: usize,
    /// Exposed penalty of an L2 hit, in cycles.
    pub l2_penalty: u64,
    /// Exposed penalty of an L3 hit, in cycles.
    pub l3_penalty: u64,
}

impl CoreParams {
    /// Tab. III configuration.
    pub fn paper_default() -> Self {
        Self {
            issue_width: 4,
            mlp: 10,
            l2_penalty: 2,
            l3_penalty: 8,
        }
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Accesses that reached main memory.
    pub memory_accesses: u64,
    /// Cycles spent stalled on exposed memory latency.
    pub stall_cycles: u64,
}

/// The core model: owns its clock and MLP window.
#[derive(Debug)]
pub struct Core {
    params: CoreParams,
    cycle: u64,
    /// Sub-cycle accumulator for issue-width fractions.
    compute_accum: u64,
    /// Completion cycles of in-flight memory misses.
    outstanding: VecDeque<u64>,
    stats: CoreStats,
}

impl Core {
    /// Creates a core at cycle 0.
    pub fn new(params: CoreParams) -> Self {
        Self {
            params,
            cycle: 0,
            compute_accum: 0,
            outstanding: VecDeque::new(),
            stats: CoreStats::default(),
        }
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Executes one trace element against `hierarchy` and `backend`.
    pub fn step<B: Backend>(&mut self, op: TraceOp, hierarchy: &mut Hierarchy, backend: &mut B) {
        match op {
            TraceOp::Compute(n) => {
                self.stats.instructions += n as u64;
                self.compute_accum += n as u64;
                let whole = self.compute_accum / self.params.issue_width as u64;
                self.compute_accum %= self.params.issue_width as u64;
                self.cycle += whole;
            }
            TraceOp::Read(addr) => {
                self.stats.instructions += 1;
                self.stats.loads += 1;
                self.mem_access(addr, false, hierarchy, backend);
            }
            TraceOp::Write(addr) => {
                self.stats.instructions += 1;
                self.stats.stores += 1;
                // Like a load's, a store's fill (RFO) takes an MLP slot
                // and the core waits for it only once the window is full.
                self.mem_access(addr, true, hierarchy, backend);
            }
        }
    }

    fn mem_access<B: Backend>(
        &mut self,
        addr: u64,
        is_write: bool,
        hierarchy: &mut Hierarchy,
        backend: &mut B,
    ) {
        let access = hierarchy.access(self.cycle, addr, is_write, backend);
        match access.level {
            HitLevel::L1 => {}
            HitLevel::L2 => {
                self.cycle += self.params.l2_penalty;
                self.stats.stall_cycles += self.params.l2_penalty;
            }
            HitLevel::L3 => {
                self.cycle += self.params.l3_penalty;
                self.stats.stall_cycles += self.params.l3_penalty;
            }
            HitLevel::Memory => {
                self.stats.memory_accesses += 1;
                self.outstanding.push_back(access.data_ready);
                if self.outstanding.len() > self.params.mlp {
                    let oldest = self.outstanding.pop_front().expect("nonempty");
                    if oldest > self.cycle {
                        self.stats.stall_cycles += oldest - self.cycle;
                        self.cycle = oldest;
                    }
                }
            }
        }
        // Retire any misses that have already completed.
        while let Some(&front) = self.outstanding.front() {
            if front <= self.cycle {
                self.outstanding.pop_front();
            } else {
                break;
            }
        }
    }

    /// Drains all in-flight misses; call at end of trace. Returns the
    /// final cycle count.
    pub fn finish(&mut self) -> u64 {
        if let Some(&last) = self.outstanding.iter().max() {
            if last > self.cycle {
                self.stats.stall_cycles += last - self.cycle;
                self.cycle = last;
            }
        }
        self.outstanding.clear();
        self.cycle
    }

    /// Runs a whole trace to completion, returning total cycles.
    pub fn run<B: Backend, I: IntoIterator<Item = TraceOp>>(
        &mut self,
        trace: I,
        hierarchy: &mut Hierarchy,
        backend: &mut B,
    ) -> u64 {
        for op in trace {
            self.step(op, hierarchy, backend);
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::test_support::CountingBackend;

    #[test]
    fn compute_only_ipc_is_issue_width() {
        let mut core = Core::new(CoreParams::paper_default());
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend::default();
        let cycles = core.run([TraceOp::Compute(4000)], &mut h, &mut b);
        assert_eq!(cycles, 1000);
        assert_eq!(core.stats().instructions, 4000);
    }

    #[test]
    fn l1_hits_are_free() {
        let mut core = Core::new(CoreParams::paper_default());
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend {
            latency: 100,
            ..Default::default()
        };
        // One miss then many hits to the same line.
        let mut trace = vec![TraceOp::Read(0)];
        trace.extend(std::iter::repeat_n(TraceOp::Read(0), 100));
        let cycles = core.run(trace, &mut h, &mut b);
        // One exposed 100-cycle miss dominates.
        assert!(cycles >= 100);
        assert!(
            cycles <= 130,
            "hits must not accumulate stall, got {cycles}"
        );
    }

    #[test]
    fn independent_misses_overlap_up_to_mlp() {
        let params = CoreParams {
            mlp: 4,
            ..CoreParams::paper_default()
        };
        let mut core = Core::new(params);
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend {
            latency: 100,
            ..Default::default()
        };
        // 8 misses to distinct lines with no compute between them: with
        // MLP=4 the total should be ~2 serialized batches, far below 800.
        let trace: Vec<_> = (0..8).map(|i| TraceOp::Read(i * 64)).collect();
        let cycles = core.run(trace, &mut h, &mut b);
        assert!(cycles < 8 * 100, "misses must overlap, got {cycles}");
        assert!(cycles >= 100, "at least one full miss visible");
        assert_eq!(core.stats().memory_accesses, 8);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let mut core = Core::new(CoreParams::paper_default());
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend {
            latency: 500,
            ..Default::default()
        };
        let trace: Vec<_> = (0..5).map(|i| TraceOp::Write(i * 64)).collect();
        for op in trace {
            core.step(op, &mut h, &mut b);
        }
        // Before finish(), stores have not stalled the clock.
        assert!(core.cycle() < 500);
        core.finish();
        assert!(core.cycle() >= 500, "finish drains outstanding fills");
    }

    #[test]
    fn finish_is_idempotent() {
        let mut core = Core::new(CoreParams::paper_default());
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend {
            latency: 50,
            ..Default::default()
        };
        core.step(TraceOp::Read(0), &mut h, &mut b);
        let c1 = core.finish();
        let c2 = core.finish();
        assert_eq!(c1, c2);
    }
}
