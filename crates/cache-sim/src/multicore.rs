//! Four-core simulation with a shared L3 and shared memory backend.
//!
//! Mirrors the paper's multi-core methodology (§VI-E): all cores are kept
//! under contention by always advancing the core with the smallest local
//! clock, so the shared L3 and DRAM see interleaved traffic.

use crate::cache::Cache;
use crate::core::{Core, CoreParams, CoreStats, TraceOp};
use crate::hierarchy::{Backend, Hierarchy, PrivateCaches};
use compresso_telemetry::Registry;

/// Result of a multi-core run.
#[derive(Debug, Clone)]
pub struct MulticoreResult {
    /// Final cycle count of each core.
    pub cycles: Vec<u64>,
    /// Per-core execution statistics.
    pub core_stats: Vec<CoreStats>,
}

impl MulticoreResult {
    /// The slowest core's cycle count (workload completion time).
    pub fn max_cycles(&self) -> u64 {
        self.cycles.iter().copied().max().unwrap_or(0)
    }
}

/// Runs `traces` (one per core) against private L1/L2s, the paper's
/// shared 8 MB 16-way L3 (Tab. III), and a single shared backend,
/// registering per-core private-cache and shared-L3 counters
/// (`cache.core0.l1.hit.total`, `cache.l3.miss.total`, ...) into
/// `registry`.
///
/// # Panics
///
/// Panics if `traces` is empty.
pub fn run_multicore<B: Backend>(
    traces: Vec<Vec<TraceOp>>,
    params: CoreParams,
    backend: &mut B,
    registry: &Registry,
) -> MulticoreResult {
    assert!(!traces.is_empty(), "need at least one core");
    let n = traces.len();
    // Each core gets its private caches; the shared L3 is a single cache
    // that all per-core Hierarchy values borrow in turn. Because we
    // advance one core at a time, we move the L3 in and out of a slot.
    let mut privates: Vec<Option<PrivateCaches>> = (0..n)
        .map(|i| {
            let private = PrivateCaches::paper_default();
            private.register_metrics(registry, &format!("cache.core{i}"));
            Some(private)
        })
        .collect();
    let shared_l3 = Cache::new(8 << 20, 16);
    shared_l3.register_metrics(registry, "cache.l3");
    let mut l3 = Some(shared_l3);
    let mut cores: Vec<Core> = (0..n).map(|_| Core::new(params)).collect();
    let mut cursors = vec![0usize; n];

    loop {
        // Pick the unfinished core with the smallest clock.
        let next = (0..n)
            .filter(|&i| cursors[i] < traces[i].len())
            .min_by_key(|&i| cores[i].cycle());
        let Some(i) = next else { break };

        let private = privates[i].take().expect("private caches present");
        let shared = l3.take().expect("shared L3 present");
        let mut hierarchy = Hierarchy::from_parts(private, shared);
        // Advance this core by a small quantum to amortize the swap.
        let quantum = 64;
        for _ in 0..quantum {
            if cursors[i] >= traces[i].len() {
                break;
            }
            cores[i].step(traces[i][cursors[i]], &mut hierarchy, backend);
            cursors[i] += 1;
        }
        let (private, shared) = hierarchy.into_parts();
        privates[i] = Some(private);
        l3 = Some(shared);
    }

    let cycles = cores.iter_mut().map(|c| c.finish()).collect();
    let core_stats = cores.iter().map(|c| *c.stats()).collect();
    MulticoreResult { cycles, core_stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::test_support::CountingBackend;

    fn streaming_trace(base: u64, lines: u64) -> Vec<TraceOp> {
        (0..lines).map(|i| TraceOp::Read(base + i * 64)).collect()
    }

    #[test]
    fn four_cores_complete() {
        let traces: Vec<_> = (0..4)
            .map(|c| streaming_trace(c as u64 * (1 << 30), 256))
            .collect();
        let mut b = CountingBackend {
            latency: 100,
            ..Default::default()
        };
        let result = run_multicore(
            traces,
            CoreParams::paper_default(),
            &mut b,
            &Registry::new(),
        );
        assert_eq!(result.cycles.len(), 4);
        assert_eq!(b.fills.len(), 4 * 256);
        for stats in &result.core_stats {
            assert_eq!(stats.memory_accesses, 256);
        }
    }

    #[test]
    fn shared_l3_lets_cores_share_data() {
        // All cores stream the same region: later cores should hit in the
        // shared L3 and produce no extra fills.
        let traces: Vec<_> = (0..4).map(|_| streaming_trace(0, 128)).collect();
        let mut b = CountingBackend {
            latency: 100,
            ..Default::default()
        };
        let result = run_multicore(
            traces,
            CoreParams::paper_default(),
            &mut b,
            &Registry::new(),
        );
        assert!(
            b.fills.len() < 4 * 128,
            "shared L3 must absorb some cross-core reuse, got {} fills",
            b.fills.len()
        );
        assert_eq!(result.cycles.len(), 4);
    }

    #[test]
    fn single_core_trace_matches_core_run() {
        let trace = streaming_trace(0, 64);
        let mut b = CountingBackend {
            latency: 100,
            ..Default::default()
        };
        let result = run_multicore(
            vec![trace],
            CoreParams::paper_default(),
            &mut b,
            &Registry::new(),
        );
        assert_eq!(result.cycles.len(), 1);
        assert!(result.max_cycles() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_traces_panic() {
        let mut b = CountingBackend::default();
        let _ = run_multicore(
            Vec::new(),
            CoreParams::paper_default(),
            &mut b,
            &Registry::new(),
        );
    }
}
