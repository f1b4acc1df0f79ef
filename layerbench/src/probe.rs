//! Timing wrappers that observe the simulator's layers from outside,
//! through their public traits: a [`LineSource`] around the data world
//! (handed to the device in place of the plain world) and a timer around
//! every fill and writeback the device serves.

use compresso_compression::{is_zero_line, Line};
use compresso_core::MemoryDevice;
use compresso_workloads::{CombinedWorld, DataClass, DataWorld, LineSource, CORE_STRIDE};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Lines kept per data class in the kernel-table sample.
pub const SAMPLE_LINES: usize = 256;

/// Position of `class` in [`DataClass::ALL`].
pub fn class_index(class: DataClass) -> usize {
    DataClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("DataClass::ALL lists every class")
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-seed reservoir sample of the lines a device sized: one
/// reservoir of [`SAMPLE_LINES`] lines per data class.
#[derive(Debug, Clone)]
pub struct LineSample {
    rng: u64,
    seen: [u64; 8],
    lines: [Vec<Line>; 8],
}

impl LineSample {
    /// An empty sample whose replacement choices follow `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: seed,
            seen: [0; 8],
            lines: Default::default(),
        }
    }

    fn offer(&mut self, class: usize, line: &Line) {
        let seen = self.seen[class];
        self.seen[class] += 1;
        let lines = &mut self.lines[class];
        if lines.len() < SAMPLE_LINES {
            lines.push(*line);
        } else if let Some(kept) = lines.get_mut((splitmix(&mut self.rng) % (seen + 1)) as usize) {
            *kept = *line;
        }
    }

    /// The sampled lines of the class at `class` in [`DataClass::ALL`].
    pub fn lines(&self, class: usize) -> &[Line] {
        &self.lines[class]
    }

    /// Tops this sample up with `other`'s lines, class by class, up to
    /// the reservoir size.
    pub fn absorb(&mut self, other: &LineSample) {
        for (mine, theirs) in self.lines.iter_mut().zip(&other.lines) {
            let room = SAMPLE_LINES.saturating_sub(mine.len());
            mine.extend(theirs.iter().take(room));
        }
    }
}

/// Work the data world did for one device, as seen by [`TimedSource`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceCounts {
    /// `line_data` calls: one per size-kernel run or zero-line check.
    pub calls: u64,
    /// Host time inside the world's `line_data`.
    pub line_data_ns: u64,
    /// Host time inside the world's `on_writeback`.
    pub writeback_ns: u64,
    /// Host time the probe spent classifying, sampling and keeping its
    /// shadow world in step (tracing overhead, not a simulator layer).
    pub probe_ns: u64,
    /// Non-zero lines handed to the size kernel, per data class.
    pub sized: [u64; 8],
}

impl SourceCounts {
    /// The work done since `start`.
    pub fn since(&self, start: &SourceCounts) -> SourceCounts {
        let mut sized = self.sized;
        for (now, then) in sized.iter_mut().zip(start.sized) {
            *now -= then;
        }
        SourceCounts {
            calls: self.calls - start.calls,
            line_data_ns: self.line_data_ns - start.line_data_ns,
            writeback_ns: self.writeback_ns - start.writeback_ns,
            probe_ns: self.probe_ns - start.probe_ns,
            sized,
        }
    }

    /// Adds `other`'s work to this one.
    pub fn add(&mut self, other: &SourceCounts) {
        self.calls += other.calls;
        self.line_data_ns += other.line_data_ns;
        self.writeback_ns += other.writeback_ns;
        self.probe_ns += other.probe_ns;
        for (mine, theirs) in self.sized.iter_mut().zip(other.sized) {
            *mine += theirs;
        }
    }
}

/// What a [`TimedSource`] records, shared with the benchmark.
#[derive(Debug)]
pub struct SourceProbe {
    pub counts: SourceCounts,
    pub sample: LineSample,
    /// A private copy of the per-core worlds, kept in step through
    /// `on_writeback`, so that each sized line can be classified with
    /// `DataWorld::class_of` (the combined world does not expose it).
    shadow: Vec<DataWorld>,
}

impl SourceProbe {
    /// Which world `addr` belongs to, and its address inside it (the
    /// routing `CombinedWorld` applies).
    fn locate(&self, addr: u64) -> (usize, u64) {
        let world = ((addr / CORE_STRIDE) as usize).min(self.shadow.len() - 1);
        (world, addr % CORE_STRIDE)
    }
}

/// Shared handle to a [`SourceProbe`].
pub type SharedProbe = Rc<RefCell<SourceProbe>>;

/// A [`LineSource`] that times the wrapped world and records, per data
/// class, the lines it hands to the device's size kernel.
pub struct TimedSource {
    inner: CombinedWorld,
    probe: SharedProbe,
}

impl TimedSource {
    /// Wraps the combination of `worlds`; the sample follows `seed`.
    pub fn new(worlds: Vec<DataWorld>, seed: u64) -> (Self, SharedProbe) {
        let probe = Rc::new(RefCell::new(SourceProbe {
            counts: SourceCounts::default(),
            sample: LineSample::new(seed),
            shadow: worlds.clone(),
        }));
        let source = Self {
            inner: CombinedWorld::new(worlds),
            probe: Rc::clone(&probe),
        };
        (source, probe)
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
}

impl LineSource for TimedSource {
    fn line_data(&self, line_addr: u64) -> Line {
        let start = Instant::now();
        let data = self.inner.line_data(line_addr);
        let fetched = Instant::now();
        let probe = &mut *self.probe.borrow_mut();
        if !is_zero_line(&data) {
            let (world, addr) = probe.locate(line_addr);
            let class = class_index(probe.shadow[world].class_of(addr));
            probe.counts.sized[class] += 1;
            probe.sample.offer(class, &data);
        }
        probe.counts.calls += 1;
        probe.counts.line_data_ns += nanos(start, fetched);
        probe.counts.probe_ns += nanos(fetched, Instant::now());
        data
    }

    fn on_writeback(&mut self, line_addr: u64) {
        let start = Instant::now();
        self.inner.on_writeback(line_addr);
        let written = Instant::now();
        let probe = &mut *self.probe.borrow_mut();
        let (world, addr) = probe.locate(line_addr);
        probe.shadow[world].on_writeback(addr);
        probe.counts.writeback_ns += nanos(start, written);
        probe.counts.probe_ns += nanos(written, Instant::now());
    }

    fn generation(&self, line_addr: u64) -> u64 {
        self.inner.generation(line_addr)
    }
}

/// One DRAM request of the uncompressed device: `(cycle, address,
/// is_write)`.
pub type DramRequest = (u64, u64, bool);

/// Host-time observer of every fill and writeback a device serves.
#[derive(Debug, Default)]
pub struct BackendTimer {
    /// Host time inside the device.
    pub total_ns: u64,
    /// Host ns of each fill since the last [`BackendTimer::clear_calls`].
    pub fill_ns: Vec<u32>,
    /// Host ns of each writeback since the last clear.
    pub writeback_ns: Vec<u32>,
    /// The request stream, recorded for the uncompressed device, whose
    /// every fill and writeback is exactly one DRAM read or write.
    pub stream: Option<Vec<DramRequest>>,
}

impl BackendTimer {
    pub fn new(record_stream: bool) -> Self {
        Self {
            stream: record_stream.then(Vec::new),
            ..Self::default()
        }
    }

    /// Forgets the per-call latencies recorded so far.
    pub fn clear_calls(&mut self) {
        self.fill_ns.clear();
        self.writeback_ns.clear();
    }

    pub fn fill(&mut self, device: &mut dyn MemoryDevice, now: u64, line_addr: u64) -> u64 {
        if let Some(stream) = &mut self.stream {
            stream.push((now, line_addr, false));
        }
        let start = Instant::now();
        let done = device.fill(now, line_addr);
        let ns = nanos(start, Instant::now());
        self.total_ns += ns;
        self.fill_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        done
    }

    pub fn writeback(&mut self, device: &mut dyn MemoryDevice, now: u64, line_addr: u64) -> u64 {
        if let Some(stream) = &mut self.stream {
            stream.push((now, line_addr, true));
        }
        let start = Instant::now();
        let done = device.writeback(now, line_addr);
        let ns = nanos(start, Instant::now());
        self.total_ns += ns;
        self.writeback_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        done
    }
}
