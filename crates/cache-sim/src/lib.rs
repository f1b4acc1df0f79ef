//! Cache hierarchy and core timing model for the Compresso reproduction.
//!
//! Implements the Tab. III platform: a 3 GHz 4-wide OOO core (approximated
//! by an MLP-window retirement model), 64 KB L1D + 512 KB L2 private
//! caches, and a 2 MB (single-core) or shared 8 MB (4-core) L3, all with
//! 64 B lines. The memory side is abstracted behind the [`Backend`] trait
//! so the same hierarchy runs against an uncompressed DRAM path or any of
//! the compressed-memory devices.
//!
//! # Example
//!
//! ```
//! use compresso_cache_sim::{Backend, Core, CoreParams, Hierarchy, TraceOp};
//!
//! struct Flat;
//! impl Backend for Flat {
//!     fn fill(&mut self, now: u64, _line: u64) -> u64 { now + 100 }
//!     fn writeback(&mut self, now: u64, _line: u64) -> u64 { now }
//! }
//!
//! let mut core = Core::new(CoreParams::paper_default());
//! let mut hierarchy = Hierarchy::single_core();
//! let trace = vec![TraceOp::Read(0), TraceOp::Compute(400), TraceOp::Read(64)];
//! let cycles = core.run(trace, &mut hierarchy, &mut Flat);
//! assert!(cycles > 100);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod core;
pub mod hierarchy;
pub mod multicore;

pub use crate::core::{Core, CoreParams, CoreStats, TraceOp};
pub use cache::{Cache, CacheAccess, CacheStats, LINE_BYTES};
pub use hierarchy::{Backend, Hierarchy, HierarchyAccess, HitLevel, PrivateCaches};
pub use multicore::{run_multicore, MulticoreResult};
