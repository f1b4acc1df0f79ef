//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a quarter or
//! more over minutes while the process keeps its CPU (user time tracks
//! wall time): neighbours on the same cores take issue slots, instruction
//! and data caches and branch predictors. A fixed reference kernel,
//! frozen in this file and independent of the simulator, is timed in
//! short slices interleaved with the workload, and the end-to-end host
//! times are reported at the reference host speed: a measured time is
//! divided by the slowdown of its phase, the median slice run during
//! that phase over [`REFERENCE_SLICE_NS`]. A change to the simulator moves the scaled
//! figures exactly as much as the raw ones; a slow spell of the host
//! slows the workload and the slices alike, and cancels.
//!
//! The kernel applies data-chosen, branchy transforms, from more distinct
//! functions than the L1 instruction cache holds, to random lines of a
//! 512 KiB region that a core's L2 cache holds only when its neighbours
//! leave it room. Its slowdown tracks the simulator's closely (on a
//! 2-core Xeon virtual machine, over runs whose raw times spread by 10% to
//! 30%: correlation 0.94 to 0.96, about one to one): the simulator's host
//! time is likewise branchy dispatch over metadata that lives in L1 and
//! L2. Kernels whose data stays in L1, or misses to L3 and memory, slowed
//! measurably less than the simulator did.

use crate::report::{median, Report};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Words of the kernel's working set (512 KiB).
const WORDS: usize = 1 << 16;
/// Lines one slice transforms.
const SLICE_LINES: usize = 4_096;
/// Host ns of one slice on the reference host (about what it takes on a
/// quiet 2-core Xeon virtual machine), the unit of the scaled times.
pub const REFERENCE_SLICE_NS: f64 = 5.0e5;

/// Idle kernels, one per thread that has run slices at once: the sweep's
/// workers come and go each pass, their working sets stay.
static KERNELS: Mutex<Vec<Kernel>> = Mutex::new(Vec::new());

/// Slice times of the whole process, from every thread.
static SLICES: Mutex<Vec<u64>> = Mutex::new(Vec::new());

struct Kernel {
    words: Vec<u64>,
    state: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let words = (0..WORDS)
            .map(|i| {
                state = xorshift(state);
                // A mix of small, clustered and random words, as in
                // compressible and incompressible pages.
                match i % 3 {
                    0 => state & 0xFF,
                    1 => 0x7F00_0000_0000 + (state & 0xFFFF),
                    _ => state,
                }
            })
            .collect();
        Self { words, state }
    }

    /// Data-chosen transforms of random lines.
    fn run(&mut self) -> u64 {
        let mut acc = self.state;
        for _ in 0..SLICE_LINES {
            acc = xorshift(acc);
            let base = (acc as usize % (WORDS / 8)) * 8;
            let line = &self.words[base..base + 8];
            acc = TRANSFORMS[(line[0] ^ acc) as usize % TRANSFORMS.len()](acc, line);
        }
        self.state = xorshift(self.state);
        acc
    }
}

/// One of many distinct, branchy line transforms: together their code
/// outgrows the L1 instruction cache, as the simulator's does.
#[inline(never)]
fn transform<const K: u64>(acc: u64, line: &[u64]) -> u64 {
    let mut a = acc;
    for (i, &w) in line.iter().enumerate() {
        let v = w.rotate_left(((K * 7 + i as u64) % 63) as u32);
        a = if (v >> (K % 61)) & 1 == 1 {
            a.rotate_left((K % 31) as u32 + 1) ^ v.wrapping_mul(K | 1)
        } else if v & (K + 3) == 0 {
            a.wrapping_add(v >> ((K % 13) + 1))
        } else {
            (a ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ K)
        };
        a ^= a >> (K % 29 + 3);
    }
    a
}

macro_rules! transforms {
    ($($k:literal)*) => { [$(transform::<$k> as fn(u64, &[u64]) -> u64,)*] };
}

#[rustfmt::skip]
static TRANSFORMS: [fn(u64, &[u64]) -> u64; 128] = transforms!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79 80 81 82 83 84 85 86 87 88 89 90 91 92 93 94 95
    96 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127
);

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Times one slice of the reference kernel on this thread and records it
/// in the process's log; returns its host ns.
fn slice() -> u64 {
    let idle = KERNELS.lock().expect("kernel pool").pop();
    let mut kernel = idle.unwrap_or_else(Kernel::new);
    let start = Instant::now();
    black_box(kernel.run());
    let ns = start.elapsed().as_nanos() as u64;
    KERNELS.lock().expect("kernel pool").push(kernel);
    SLICES.lock().expect("slice log").push(ns);
    ns
}

/// The slices run during one phase of a measurement.
#[derive(Debug, Clone, Default)]
pub struct Slices(Vec<u64>);

impl Slices {
    /// Runs one slice and records it; returns its host ns.
    pub fn take(&mut self) -> u64 {
        let ns = slice();
        self.0.push(ns);
        ns
    }

    pub fn absorb(&mut self, other: &Slices) {
        self.0.extend_from_slice(&other.0);
    }

    /// Host time spent in the slices.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// How much slower than the reference host the host was during the
    /// phase (below 1 when faster; 1 without slices): the phase's times
    /// divide by it, its rates multiply by it.
    pub fn slowdown(&self) -> f64 {
        slowdown_of(&self.0)
    }
}

fn slowdown_of(slices: &[u64]) -> f64 {
    let ns: Vec<f64> = slices.iter().map(|&n| n as f64).collect();
    let median_ns = median(&ns);
    if median_ns > 0.0 {
        median_ns / REFERENCE_SLICE_NS
    } else {
        1.0
    }
}

/// Records the process's calibration in the human-readable report.
pub fn note(report: &mut Report) {
    let slices = SLICES.lock().expect("slice log");
    report.note(format!(
        "host calibration: {} slices, median slowdown {:.4} against the reference host (end-to-end times are divided by their phase's slowdown, rates multiplied)",
        slices.len(),
        slowdown_of(&slices)
    ));
}
