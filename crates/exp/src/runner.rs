//! Cycle-based simulation runner: one core or a 4-core mix, against any
//! evaluated system, through one path ([`run_single`] and [`run_mix`]
//! are its public callers).

use compresso_cache_sim::{run_multicore, Backend, Core, CoreParams, Hierarchy};
use compresso_core::DeviceStats;
use compresso_core::{
    CompressoConfig, CompressoDevice, LcpDevice, MemoryDevice, UncompressedDevice,
};
use compresso_mem_sim::MemStats;
use compresso_telemetry::{EpochRecorder, LatencyHistogram, MetricsReport, Registry};
use compresso_workloads::{
    offset_trace, require_benchmark, BenchmarkProfile, CombinedWorld, DataWorld, TraceGenerator,
    UnknownBenchmark,
};
use std::slice;

/// Which memory system to simulate.
#[derive(Debug, Clone)]
pub enum SystemKind {
    /// The uncompressed baseline.
    Uncompressed,
    /// The competitive OS-aware LCP baseline.
    Lcp,
    /// LCP with alignment-friendly line sizes.
    LcpAlign,
    /// Full Compresso.
    Compresso,
    /// Compresso with a custom configuration (for ablations). The owned
    /// label lets sweeps generate ablation names dynamically.
    Custom(String, CompressoConfig),
}

impl SystemKind {
    /// Builds an ablation system with a dynamically generated label.
    pub fn custom(label: impl Into<String>, cfg: CompressoConfig) -> Self {
        SystemKind::Custom(label.into(), cfg)
    }

    /// Display label.
    pub fn label(&self) -> &str {
        match self {
            SystemKind::Uncompressed => "uncompressed",
            SystemKind::Lcp => "LCP",
            SystemKind::LcpAlign => "LCP+Align",
            SystemKind::Compresso => "Compresso",
            SystemKind::Custom(name, _) => name.as_str(),
        }
    }

    /// The four systems of Fig. 10/11, in presentation order.
    pub fn evaluated() -> Vec<SystemKind> {
        vec![
            SystemKind::Uncompressed,
            SystemKind::Lcp,
            SystemKind::LcpAlign,
            SystemKind::Compresso,
        ]
    }

    fn build(&self, world: CombinedWorld) -> Box<dyn MemoryDevice> {
        match self {
            SystemKind::Uncompressed => Box::new(UncompressedDevice::new()),
            SystemKind::Lcp => Box::new(LcpDevice::lcp(world)),
            SystemKind::LcpAlign => Box::new(LcpDevice::lcp_align(world)),
            SystemKind::Compresso => {
                Box::new(CompressoDevice::new(CompressoConfig::compresso(), world))
            }
            SystemKind::Custom(_, cfg) => Box::new(CompressoDevice::new(cfg.clone(), world)),
        }
    }
}

/// One cycle-based simulation result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System label.
    pub system: String,
    /// Benchmark or mix name.
    pub workload: String,
    /// Cycles to complete the trace (max across cores for mixes).
    pub cycles: u64,
    /// Instructions retired (summed across cores).
    pub instructions: u64,
    /// Device event counters.
    pub device: DeviceStats,
    /// DRAM counters.
    pub dram: MemStats,
    /// Compression ratio at end of run.
    pub ratio: f64,
    /// Full metric bundle: final registry snapshot plus the epoch
    /// series (empty unless an epoch length was requested).
    pub metrics: MetricsReport,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }
}

/// Wraps a device with end-to-end fill/writeback latency histograms and
/// an [`EpochRecorder`] driven by simulated core cycles — wall-clock
/// never enters, so the recorded series is bit-identical across
/// `--jobs` settings.
struct InstrumentedBackend<B> {
    inner: B,
    fill_latency: LatencyHistogram,
    writeback_latency: LatencyHistogram,
    recorder: EpochRecorder,
}

impl<B: Backend> InstrumentedBackend<B> {
    fn new(inner: B, registry: &Registry, epoch: u64) -> Self {
        let fill_latency = LatencyHistogram::cycles();
        let writeback_latency = LatencyHistogram::cycles();
        registry.register_histogram("backend.fill.latency", &fill_latency);
        registry.register_histogram("backend.writeback.latency", &writeback_latency);
        Self {
            inner,
            fill_latency,
            writeback_latency,
            recorder: EpochRecorder::new(registry.clone(), epoch),
        }
    }
}

impl<B: Backend> Backend for InstrumentedBackend<B> {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        self.recorder.observe(now);
        let done = self.inner.fill(now, line_addr);
        self.fill_latency.record(done.saturating_sub(now));
        done
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        self.recorder.observe(now);
        let done = self.inner.writeback(now, line_addr);
        self.writeback_latency.record(done.saturating_sub(now));
        done
    }
}

/// Runs one benchmark on one core (Tab. III single-core platform).
pub fn run_single(profile: &BenchmarkProfile, system: &SystemKind, mem_ops: usize) -> RunResult {
    run_profiles(profile.name, slice::from_ref(profile), system, mem_ops, 0)
}

/// Runs a 4-benchmark mix on the 4-core shared-L3 platform.
///
/// # Errors
///
/// Returns [`UnknownBenchmark`] (listing the valid names) if any
/// benchmark name is unknown, so experiment binaries can exit cleanly.
pub fn run_mix(
    name: &str,
    benchmarks: [&str; 4],
    system: &SystemKind,
    mem_ops: usize,
) -> Result<RunResult, UnknownBenchmark> {
    let profiles = benchmarks
        .iter()
        .map(|b| require_benchmark(b))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(run_profiles(name, &profiles, system, mem_ops, 0))
}

/// Runs `profiles`, one per core, against `system`, recording an epoch
/// snapshot every `epoch` core cycles into the result's
/// [`MetricsReport`] (`0` disables the series; the final snapshot is
/// always captured). One profile runs on the single-core platform
/// (private 2 MB L3, `cache.*` metrics); more run on the shared-L3
/// multi-core platform. Core *i*'s trace is offset into its own address
/// range, which for core 0 is the identity.
pub(crate) fn run_profiles(
    name: &str,
    profiles: &[BenchmarkProfile],
    system: &SystemKind,
    mem_ops: usize,
    epoch: u64,
) -> RunResult {
    let mut worlds = Vec::with_capacity(profiles.len());
    let mut traces = Vec::with_capacity(profiles.len());
    for (core, profile) in profiles.iter().enumerate() {
        let world = DataWorld::new(profile);
        let mut trace = TraceGenerator::new(profile).generate(&world, mem_ops);
        offset_trace(&mut trace, core);
        worlds.push(world);
        traces.push(trace);
    }
    let mut device = system.build(CombinedWorld::new(worlds));
    let registry = device.metrics().clone();
    let params = CoreParams::paper_default();

    let (cycles, instructions, recorder) = match <[_; 1]>::try_from(traces) {
        Ok([trace]) => {
            let mut core = Core::new(params);
            let mut hierarchy = Hierarchy::single_core();
            hierarchy.register_metrics(&registry, "cache");
            let mut backend = InstrumentedBackend::new(&mut device, &registry, epoch);
            let cycles = core.run(trace, &mut hierarchy, &mut backend);
            (cycles, core.stats().instructions, backend.recorder)
        }
        Err(traces) => {
            let mut backend = InstrumentedBackend::new(&mut device, &registry, epoch);
            let result = run_multicore(traces, params, &mut backend, &registry);
            let instructions = result.core_stats.iter().map(|s| s.instructions).sum();
            (result.max_cycles(), instructions, backend.recorder)
        }
    };
    let metrics = MetricsReport::from_parts(registry.snapshot(), recorder);
    RunResult {
        system: system.label().to_string(),
        workload: name.to_string(),
        cycles,
        instructions,
        device: device.device_stats(),
        dram: device.dram_stats(),
        ratio: device.compression_ratio(),
        metrics,
    }
}

/// Geometric mean of positive values (1.0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_workloads::benchmark;

    #[test]
    fn single_core_runs_all_systems() {
        let p = benchmark("povray").unwrap();
        for system in SystemKind::evaluated() {
            let r = run_single(&p, &system, 2_000);
            assert!(r.cycles > 0, "{} produced no cycles", r.system);
            assert!(r.ipc() > 0.0);
            if matches!(system, SystemKind::Uncompressed) {
                assert_eq!(r.ratio, 1.0);
            } else {
                assert!(r.ratio >= 0.9, "{}: ratio {:.2}", r.system, r.ratio);
            }
        }
    }

    #[test]
    fn mix_runs_on_four_cores() {
        let r = run_mix(
            "mix6",
            ["perlbench", "bzip2", "gromacs", "gobmk"],
            &SystemKind::Compresso,
            1_000,
        )
        .expect("known benchmarks");
        assert!(r.cycles > 0);
        assert!(r.ratio > 1.0);
    }

    #[test]
    fn unknown_mix_benchmark_is_a_listed_error() {
        let err = run_mix(
            "mixX",
            ["perlbench", "not-a-benchmark", "gromacs", "gobmk"],
            &SystemKind::Compresso,
            1_000,
        )
        .expect_err("unknown name must not run");
        assert_eq!(err.name, "not-a-benchmark");
        let msg = err.to_string();
        assert!(msg.contains("not-a-benchmark"));
        assert!(
            msg.contains("perlbench"),
            "message lists valid names: {msg}"
        );
        assert!(msg.contains("Graph500"), "message lists valid names: {msg}");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let p = benchmark("gcc").unwrap();
        let a = run_single(&p, &SystemKind::Compresso, 3_000);
        let b = run_single(&p, &SystemKind::Compresso, 3_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.device, b.device);
    }
}
