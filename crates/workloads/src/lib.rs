//! Synthetic workload models reproducing the Compresso evaluation suite.
//!
//! The paper evaluates SPEC CPU2006 plus Graph500/Forestfire/Pagerank.
//! This crate replaces those binaries with behavioural models (see
//! DESIGN.md for the substitution argument):
//!
//! * [`profile`] — per-benchmark parameters (footprint, data mix,
//!   locality, write mix, streaming/phase behaviour) for all 30 paper
//!   benchmarks;
//! * [`data`] — deterministic synthesis of 64 B line contents by data
//!   class;
//! * [`world`] — the live data world: per-line versions, class evolution
//!   on writes (degradation drives overflows, improvement drives
//!   repacking);
//! * [`trace`] — deterministic access traces (hot/cold sets, sequential
//!   walks, streaming-overwrite bursts);
//! * [`points`] — the phase model with SimPoint vs CompressPoint
//!   selection (Fig. 9);
//! * [`mixes`] — the ten 4-core mixes of Tab. IV;
//! * [`addr_map`] — the fixed-hasher maps every layer keys by page or
//!   line number.
//!
//! # Example
//!
//! ```
//! use compresso_workloads::{benchmark, trace_for};
//!
//! let profile = benchmark("zeusmp").expect("paper benchmark");
//! let (world, trace) = trace_for(&profile, 1000);
//! assert!(trace.len() >= 1000);
//! // zeusmp is zero-rich: its first page is likely all zeros.
//! let _ = world.line_data(0);
//! ```

pub mod addr_map;
pub mod data;
pub mod mixes;
pub mod points;
pub mod profile;
pub mod source;
pub mod trace;
pub mod world;

pub use addr_map::{AddrHasher, AddrMap, AddrSet};
pub use data::{mix64, DataClass};
pub use mixes::{mix, MIXES};
pub use points::{compresspoint, full_run, run_average_ratio, simpoint, Interval};
pub use profile::{
    all_benchmarks, benchmark, benchmark_names, require_benchmark, BenchmarkProfile, CapacityClass,
    Evolution, PageSpec, PhaseShape, UnknownBenchmark,
};
pub use source::{offset_trace, CombinedWorld, LineSource, CORE_STRIDE};
pub use trace::{trace_for, TraceGenerator};
pub use world::{DataWorld, LINES_PER_PAGE, PAGE_BYTES};
