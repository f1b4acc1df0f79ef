//! The benchmark's per-op driver. It builds worlds, traces, devices and
//! cache hierarchies exactly as `compresso_exp::run_single` (one core,
//! 2 MB L3) and `run_mix` (four cores, shared 8 MB L3) do, but advances
//! the simulation through `Core::step` in op-count chunks, so that
//! windows of a run can be timed. [`check_equivalence`] shows that the
//! driver reproduces those entry points bit for bit.

use crate::layers::dram_replay;
use crate::probe::{BackendTimer, LineSample, SharedProbe, SourceCounts, TimedSource};
use compresso_cache_sim::{Backend, Cache, Core, CoreParams, Hierarchy, PrivateCaches, TraceOp};
use compresso_core::{
    CompressoConfig, CompressoDevice, DeviceStats, LcpDevice, MemoryDevice, UncompressedDevice,
};
use compresso_exp::{run_mix, run_single, RunResult, SystemKind};
use compresso_mem_sim::MemStats;
use compresso_telemetry::{EpochRecorder, LatencyHistogram, MetricValue, Registry, Snapshot};
use compresso_workloads::{
    benchmark, offset_trace, BenchmarkProfile, CombinedWorld, DataWorld, LineSource, TraceGenerator,
};
use std::time::Instant;

/// Trace elements a core runs per scheduling turn on the 4-core
/// platform (the quantum of `run_multicore_with_l3`).
const QUANTUM: usize = 64;

/// Host nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The four evaluated systems of Fig. 10/11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sys {
    Uncompressed,
    Lcp,
    LcpAlign,
    Compresso,
}

impl Sys {
    pub const ALL: [Sys; 4] = [Sys::Uncompressed, Sys::Lcp, Sys::LcpAlign, Sys::Compresso];

    /// Position in [`Sys::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The token naming this system in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Sys::Uncompressed => "uncompressed",
            Sys::Lcp => "lcp",
            Sys::LcpAlign => "lcp_align",
            Sys::Compresso => "compresso",
        }
    }

    /// The display label `compresso_exp` uses.
    pub fn label(self) -> &'static str {
        match self {
            Sys::Uncompressed => "uncompressed",
            Sys::Lcp => "LCP",
            Sys::LcpAlign => "LCP+Align",
            Sys::Compresso => "Compresso",
        }
    }

    /// The matching `compresso_exp` system.
    pub fn kind(self) -> SystemKind {
        match self {
            Sys::Uncompressed => SystemKind::Uncompressed,
            Sys::Lcp => SystemKind::Lcp,
            Sys::LcpAlign => SystemKind::LcpAlign,
            Sys::Compresso => SystemKind::Compresso,
        }
    }

    /// Whether the system sizes lines (and so calls the world).
    pub fn compressed(self) -> bool {
        self != Sys::Uncompressed
    }

    /// Builds the device as `SystemKind::build` does.
    fn build(self, world: impl LineSource + 'static) -> Box<dyn MemoryDevice> {
        match self {
            Sys::Uncompressed => Box::new(UncompressedDevice::new()),
            Sys::Lcp => Box::new(LcpDevice::lcp(world)),
            Sys::LcpAlign => Box::new(LcpDevice::lcp_align(world)),
            Sys::Compresso => Box::new(CompressoDevice::new(CompressoConfig::compresso(), world)),
        }
    }
}

/// What to simulate: one benchmark on the single-core platform, or four
/// on the 4-core shared-L3 platform.
///
/// The data worlds always take the paper seeds; `trace_seed` moves only
/// the seed of the access traces (0 keeps the paper traces). Reseeding a
/// world changes its page compositions and with them the simulated work
/// itself (by about a quarter on mix10), which would swamp a host-time
/// comparison; reseeding the traces varies the inputs without that.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub profiles: Vec<BenchmarkProfile>,
    pub multicore: bool,
    pub trace_seed: u64,
}

impl Spec {
    pub fn single(name: &str, trace_seed: u64) -> Self {
        Self {
            name: name.to_string(),
            profiles: vec![benchmark(name).expect("a paper benchmark")],
            multicore: false,
            trace_seed,
        }
    }

    pub fn mix(name: &str, members: [&str; 4], trace_seed: u64) -> Self {
        Self {
            name: name.to_string(),
            profiles: members
                .iter()
                .map(|m| benchmark(m).expect("a paper benchmark"))
                .collect(),
            multicore: true,
            trace_seed,
        }
    }
}

/// Host time of one system's set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub world_ns: u64,
    pub trace_ns: u64,
    pub build_ns: u64,
    /// Demand memory ops generated.
    pub trace_ops: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.world_ns + self.trace_ns + self.build_ns
    }
}

/// The simulated outputs of one run, compared bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub cycles: u64,
    pub instructions: u64,
    pub device: DeviceStats,
    pub dram: MemStats,
    pub ratio_bits: u64,
    pub snapshot: Snapshot,
}

impl Digest {
    pub fn of(result: &RunResult) -> Self {
        Self {
            cycles: result.cycles,
            instructions: result.instructions,
            device: result.device,
            dram: result.dram,
            ratio_bits: result.ratio.to_bits(),
            snapshot: result.metrics.last.clone(),
        }
    }

    /// The parts in which `other` differs from this digest.
    pub fn diff(&self, other: &Digest) -> Vec<&'static str> {
        let mut parts = Vec::new();
        if self.cycles != other.cycles {
            parts.push("cycles");
        }
        if self.instructions != other.instructions {
            parts.push("instructions");
        }
        if self.device != other.device {
            parts.push("DeviceStats");
        }
        if self.dram != other.dram {
            parts.push("MemStats");
        }
        if self.ratio_bits != other.ratio_bits {
            parts.push("compression ratio");
        }
        if self.snapshot != other.snapshot {
            parts.push("metrics snapshot");
        }
        parts
    }

    pub fn summary(&self) -> String {
        format!(
            "cycles={} instructions={} fills={} writebacks={} bursts={} dram_reads={} dram_writes={} ratio={:.4}",
            self.cycles,
            self.instructions,
            self.device.demand_fills,
            self.device.demand_writebacks,
            self.device.total_accesses(),
            self.dram.reads,
            self.dram.writes,
            f64::from_bits(self.ratio_bits),
        )
    }
}

macro_rules! counts {
    ($($field:ident),+ $(,)?) => {
        /// Deterministic work counters of one device: cumulative when
        /// read, per window after [`Counts::minus`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(pub $field: u64,)+
        }

        impl Counts {
            pub fn minus(self, earlier: Counts) -> Counts {
                Counts { $($field: self.$field - earlier.$field,)+ }
            }

            pub fn plus(self, other: Counts) -> Counts {
                Counts { $($field: self.$field + other.$field,)+ }
            }
        }
    };
}

counts!(
    fills,
    writebacks,
    bursts,
    dram_requests,
    row_hits,
    row_lookups,
    size_calls,
    memo_hits,
    kernel_runs,
    mcache_hits,
    mcache_lookups,
    line_overflows,
    ir_placements,
    ir_expansions,
    overflow_extra,
    page_overflows,
    repacks,
    histogram_records,
);

impl Counts {
    pub fn read(device: &dyn MemoryDevice) -> Counts {
        let d = device.device_stats();
        let m = device.dram_stats();
        let histogram_records = device
            .metrics()
            .snapshot()
            .metrics
            .iter()
            .map(|(_, value)| match value {
                MetricValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum();
        Counts {
            fills: d.demand_fills,
            writebacks: d.demand_writebacks,
            bursts: d.total_accesses(),
            dram_requests: m.accesses(),
            row_hits: m.row_hits,
            row_lookups: m.row_hits + m.row_closed + m.row_conflicts,
            size_calls: d.size_calls,
            memo_hits: d.size_memo_hits,
            kernel_runs: d.size_memo_misses,
            mcache_hits: d.mcache_hits,
            mcache_lookups: d.mcache_hits + d.mcache_misses,
            line_overflows: d.line_overflows,
            ir_placements: d.ir_placements,
            ir_expansions: d.ir_expansions,
            overflow_extra: d.overflow_extra,
            page_overflows: d.page_overflows,
            repacks: d.repacks,
            histogram_records,
        }
    }
}

/// What the timing wrappers saw during one window.
#[derive(Debug, Clone, Default)]
pub struct TracedWindow {
    /// Host time inside the device.
    pub backend_ns: u64,
    pub fill_ns: Vec<u32>,
    pub writeback_ns: Vec<u32>,
    pub source: SourceCounts,
}

/// One system's measured window.
#[derive(Debug, Clone, Default)]
pub struct SysWindow {
    /// Demand memory ops executed.
    pub ops: u64,
    /// `(ops, host ns)` of each `Core::step` chunk.
    pub chunks: Vec<(u64, u64)>,
    pub counts: Counts,
    pub traced: Option<TracedWindow>,
}

impl SysWindow {
    /// Host time inside `Core::step` chunks.
    pub fn span_ns(&self) -> u64 {
        self.chunks.iter().map(|&(_, ns)| ns).sum()
    }

    /// Adds another window of the same system (the cells of a grid).
    pub fn absorb(&mut self, other: SysWindow) {
        self.ops += other.ops;
        self.chunks.extend(other.chunks);
        self.counts = self.counts.plus(other.counts);
        if let Some(theirs) = other.traced {
            let mine = self.traced.get_or_insert_with(TracedWindow::default);
            mine.backend_ns += theirs.backend_ns;
            mine.fill_ns.extend(theirs.fill_ns);
            mine.writeback_ns.extend(theirs.writeback_ns);
            mine.source.add(&theirs.source);
        }
    }
}

/// A run's counters at the start of a window.
pub struct Mark {
    ops: u64,
    counts: Counts,
    backend_ns: u64,
    source: SourceCounts,
}

/// The fill/writeback latency histograms and the epoch recorder that
/// `run_single` / `run_mix` wrap around every device (epoch 0: final
/// snapshot only).
struct Observers {
    fill_latency: LatencyHistogram,
    writeback_latency: LatencyHistogram,
    recorder: EpochRecorder,
}

impl Observers {
    fn new(registry: &Registry) -> Self {
        let fill_latency = LatencyHistogram::cycles();
        let writeback_latency = LatencyHistogram::cycles();
        registry.register_histogram("backend.fill.latency", &fill_latency);
        registry.register_histogram("backend.writeback.latency", &writeback_latency);
        Self {
            fill_latency,
            writeback_latency,
            recorder: EpochRecorder::new(registry.clone(), 0),
        }
    }
}

/// The traced-run instruments of one system.
struct Tracing {
    timer: BackendTimer,
    source: SharedProbe,
}

/// The backend the cores see: the observers, then (traced runs only) the
/// timer, then the device.
struct Stack<'a> {
    observers: &'a mut Observers,
    device: &'a mut dyn MemoryDevice,
    timer: Option<&'a mut BackendTimer>,
}

impl Backend for Stack<'_> {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        self.observers.recorder.observe(now);
        let done = match self.timer.as_deref_mut() {
            Some(timer) => timer.fill(&mut *self.device, now, line_addr),
            None => self.device.fill(now, line_addr),
        };
        self.observers.fill_latency.record(done.saturating_sub(now));
        done
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        self.observers.recorder.observe(now);
        let done = match self.timer.as_deref_mut() {
            Some(timer) => timer.writeback(&mut *self.device, now, line_addr),
            None => self.device.writeback(now, line_addr),
        };
        self.observers
            .writeback_latency
            .record(done.saturating_sub(now));
        done
    }
}

enum Platform {
    Single {
        core: Core,
        hierarchy: Hierarchy,
        trace: Vec<TraceOp>,
        cursor: usize,
    },
    Multi {
        cores: Vec<Core>,
        privates: Vec<Option<PrivateCaches>>,
        l3: Option<Cache>,
        traces: Vec<Vec<TraceOp>>,
        cursors: Vec<usize>,
    },
}

fn is_mem(op: TraceOp) -> u64 {
    u64::from(!matches!(op, TraceOp::Compute(_)))
}

impl Platform {
    fn new(mut traces: Vec<Vec<TraceOp>>, multicore: bool, registry: &Registry) -> Self {
        let params = CoreParams::paper_default();
        if !multicore {
            let hierarchy = Hierarchy::single_core();
            hierarchy.register_metrics(registry, "cache");
            return Platform::Single {
                core: Core::new(params),
                hierarchy,
                trace: traces.pop().expect("one trace"),
                cursor: 0,
            };
        }
        let privates: Vec<PrivateCaches> = traces
            .iter()
            .map(|_| PrivateCaches::paper_default())
            .collect();
        for (i, private) in privates.iter().enumerate() {
            private.register_metrics(registry, &format!("cache.core{i}"));
        }
        let l3 = Cache::new(8 << 20, 16);
        l3.register_metrics(registry, "cache.l3");
        Platform::Multi {
            cores: traces.iter().map(|_| Core::new(params)).collect(),
            privates: privates.into_iter().map(Some).collect(),
            l3: Some(l3),
            cursors: vec![0; traces.len()],
            traces,
        }
    }

    /// Steps until `*ops` demand memory ops have run in total. The 4-core
    /// platform stops only at a scheduling-quantum boundary, so a chunked
    /// run keeps `run_multicore_with_l3`'s interleaving exactly. Returns
    /// `false` once every trace is exhausted.
    fn advance<B: Backend>(&mut self, backend: &mut B, target: u64, ops: &mut u64) -> bool {
        match self {
            Platform::Single {
                core,
                hierarchy,
                trace,
                cursor,
            } => {
                while *ops < target {
                    let Some(&op) = trace.get(*cursor) else {
                        return false;
                    };
                    *cursor += 1;
                    core.step(op, hierarchy, backend);
                    *ops += is_mem(op);
                }
                true
            }
            Platform::Multi {
                cores,
                privates,
                l3,
                traces,
                cursors,
            } => {
                while *ops < target {
                    let next = (0..cores.len())
                        .filter(|&i| cursors[i] < traces[i].len())
                        .min_by_key(|&i| cores[i].cycle());
                    let Some(i) = next else {
                        return false;
                    };
                    let private = privates[i].take().expect("private caches present");
                    let shared = l3.take().expect("shared L3 present");
                    let mut hierarchy = Hierarchy::from_parts(private, shared);
                    for _ in 0..QUANTUM {
                        let Some(&op) = traces[i].get(cursors[i]) else {
                            break;
                        };
                        cores[i].step(op, &mut hierarchy, backend);
                        cursors[i] += 1;
                        *ops += is_mem(op);
                    }
                    let (private, shared) = hierarchy.into_parts();
                    privates[i] = Some(private);
                    *l3 = Some(shared);
                }
                true
            }
        }
    }

    /// Drains the cores: `(cycles, instructions)`.
    fn finish(&mut self) -> (u64, u64) {
        match self {
            Platform::Single { core, .. } => (core.finish(), core.stats().instructions),
            Platform::Multi { cores, .. } => {
                let cycles = cores.iter_mut().map(Core::finish).max().unwrap_or(0);
                (cycles, cores.iter().map(|c| c.stats().instructions).sum())
            }
        }
    }
}

/// One system's simulation, driven op chunk by op chunk.
pub struct SimRun {
    pub sys: Sys,
    device: Box<dyn MemoryDevice>,
    platform: Platform,
    observers: Observers,
    tracing: Option<Tracing>,
    ops: u64,
}

impl SimRun {
    /// Builds worlds, traces (`ops_per_core` demand ops each), device and
    /// hierarchy as `run_single` / `run_mix` do. With `sample_seed`, the
    /// device sees the world through a [`TimedSource`] and is timed.
    pub fn setup(
        spec: &Spec,
        sys: Sys,
        ops_per_core: usize,
        sample_seed: Option<u64>,
    ) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut worlds = Vec::with_capacity(spec.profiles.len());
        let mut traces = Vec::with_capacity(spec.profiles.len());
        for (core, profile) in spec.profiles.iter().enumerate() {
            let start = Instant::now();
            let world = DataWorld::new(profile);
            let built = Instant::now();
            let mut trace_profile = profile.clone();
            trace_profile.seed = profile
                .seed
                .wrapping_add(spec.trace_seed.wrapping_mul(1000));
            let mut generator = TraceGenerator::new(&trace_profile);
            let mut trace = generator.generate(&world, ops_per_core);
            if spec.multicore {
                offset_trace(&mut trace, core);
            }
            times.world_ns += (built - start).as_nanos() as u64;
            times.trace_ns += elapsed_ns(built);
            times.trace_ops += ops_per_core as u64;
            worlds.push(world);
            traces.push(trace);
        }
        let start = Instant::now();
        let (device, tracing) = match sample_seed {
            None => (sys.build(CombinedWorld::new(worlds)), None),
            Some(seed) => {
                let (source, probe) = TimedSource::new(worlds, seed);
                let tracing = Tracing {
                    timer: BackendTimer::new(sys == Sys::Uncompressed),
                    source: probe,
                };
                (sys.build(source), Some(tracing))
            }
        };
        let registry = device.metrics().clone();
        let platform = Platform::new(traces, spec.multicore, &registry);
        let observers = Observers::new(&registry);
        times.build_ns = elapsed_ns(start);
        let run = Self {
            sys,
            device,
            platform,
            observers,
            tracing,
            ops: 0,
        };
        (run, times)
    }

    /// Runs until `target` demand ops have executed; `false` once the
    /// traces are exhausted.
    pub fn advance(&mut self, target: u64) -> bool {
        let mut stack = Stack {
            observers: &mut self.observers,
            device: self.device.as_mut(),
            timer: self.tracing.as_mut().map(|t| &mut t.timer),
        };
        self.platform.advance(&mut stack, target, &mut self.ops)
    }

    /// As [`SimRun::advance`], recording the chunk's ops and host time in
    /// `window`.
    pub fn timed_advance(&mut self, target: u64, window: &mut SysWindow) -> bool {
        let before = self.ops;
        let start = Instant::now();
        let more = self.advance(target);
        window.chunks.push((self.ops - before, elapsed_ns(start)));
        more
    }

    /// Opens a measured window (and forgets the per-call latencies
    /// recorded before it).
    pub fn mark(&mut self) -> Mark {
        let (backend_ns, source) = match &mut self.tracing {
            Some(t) => {
                t.timer.clear_calls();
                (t.timer.total_ns, t.source.borrow().counts)
            }
            None => (0, SourceCounts::default()),
        };
        Mark {
            ops: self.ops,
            counts: Counts::read(self.device.as_ref()),
            backend_ns,
            source,
        }
    }

    /// Closes the window opened by `mark` into `window`.
    pub fn close(&mut self, mark: &Mark, window: &mut SysWindow) {
        window.ops += self.ops - mark.ops;
        window.counts = window
            .counts
            .plus(Counts::read(self.device.as_ref()).minus(mark.counts));
        if let Some(t) = &mut self.tracing {
            window.absorb(SysWindow {
                traced: Some(TracedWindow {
                    backend_ns: t.timer.total_ns - mark.backend_ns,
                    fill_ns: std::mem::take(&mut t.timer.fill_ns),
                    writeback_ns: std::mem::take(&mut t.timer.writeback_ns),
                    source: t.source.borrow().counts.since(&mark.source),
                }),
                ..SysWindow::default()
            });
        }
    }

    /// The lines this run's device sized, sampled per data class.
    pub fn sample(&self) -> Option<LineSample> {
        let t = self.tracing.as_ref()?;
        let sample = t.source.borrow().sample.clone();
        Some(sample)
    }

    /// Replays the recorded DRAM stream (uncompressed device, traced runs
    /// only) into a fresh `MainMemory`: `Ok(host ns per request)` when the
    /// replay's `MemStats` equal the device's.
    pub fn dram_check(&self) -> Option<Result<f64, String>> {
        let stream = self.tracing.as_ref()?.timer.stream.as_ref()?;
        let (replayed, ns_per_request) = dram_replay(stream);
        let device = self.device.dram_stats();
        Some(if replayed == device {
            Ok(ns_per_request)
        } else {
            Err(format!("replayed {replayed:?} != device {device:?}"))
        })
    }

    /// Host ns of one snapshot of the device's metrics registry (median
    /// of five).
    pub fn snapshot_ns(&self) -> f64 {
        let registry = self.device.metrics();
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(registry.snapshot());
                elapsed_ns(start) as f64
            })
            .collect();
        crate::report::median(&times)
    }

    /// Drains the cores and reads the simulated outputs.
    pub fn finish(&mut self) -> Digest {
        let (cycles, instructions) = self.platform.finish();
        Digest {
            cycles,
            instructions,
            device: self.device.device_stats(),
            dram: self.device.dram_stats(),
            ratio_bits: self.device.compression_ratio().to_bits(),
            snapshot: self.device.metrics().snapshot(),
        }
    }
}

/// Runs `spec` at the paper seeds on `sys` for `ops` demand ops per core
/// through the reference entry point (`run_single` / `run_mix`) and
/// through this driver, traced with `sample_seed` if given, and compares
/// their digests.
pub fn check_equivalence(
    spec: &Spec,
    sys: Sys,
    ops: usize,
    sample_seed: Option<u64>,
) -> Result<(), String> {
    let reference = if spec.multicore {
        let names: Vec<&str> = spec.profiles.iter().map(|p| p.name).collect();
        let names: [&str; 4] = names
            .try_into()
            .map_err(|_| "a mix has four members".to_string())?;
        run_mix(&spec.name, names, &sys.kind(), ops).map_err(|e| e.to_string())?
    } else {
        run_single(&spec.profiles[0], &sys.kind(), ops)
    };
    let spec = Spec {
        trace_seed: 0,
        ..spec.clone()
    };
    let (mut run, _) = SimRun::setup(&spec, sys, ops, sample_seed);
    run.advance(u64::MAX);
    let differs = Digest::of(&reference).diff(&run.finish());
    if differs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "driver differs from the reference in {}",
            differs.join(", ")
        ))
    }
}
