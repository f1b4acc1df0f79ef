//! Compresso: pragmatic main-memory compression (MICRO 2018), plus the
//! competitive LCP baselines it is evaluated against.
//!
//! Compresso keeps main memory compressed with **no OS changes**: all the
//! machinery lives in the memory controller. The crate implements:
//!
//! * 64 B per-page [`metadata`] entries (Fig. 3) and the [`mcache`]
//!   metadata cache with the half-entry optimization (§IV-B5);
//! * incremental 512 B-chunk and variable-chunk MPA [`alloc`]ators
//!   (§II-D), behind one crate-private page allocator per device;
//! * LinePack layout with alignment-friendly line bins, the inflation
//!   room, and dynamic inflation-room expansion (§IV-B1/B3);
//! * the page-overflow [`predictor`] (§IV-B2);
//! * dynamic page repacking on metadata-cache eviction (§IV-B4);
//! * the [`lcp`] packing scheme and the OS-aware [`LcpDevice`] baselines;
//! * a [`stats`] taxonomy matching the paper's data-movement breakdown
//!   (Fig. 4/6);
//! * a deterministic fault-injection layer ([`faultkit`]) and a unified
//!   typed [`error`] path, so corrupted metadata, refused allocations and
//!   eviction storms degrade gracefully instead of panicking.
//!
//! All devices implement [`MemoryDevice`] (and the cache hierarchy's
//! `Backend`), so the same core/cache simulation runs against the
//! uncompressed baseline, LCP, LCP+Align, or Compresso.
//!
//! As in the paper's §VI-F baseline, [`CompressoDevice`] and
//! [`LcpDevice`] run on one controller core (the crate-private
//! `controller` module): page storage (Compresso's configured
//! [`PageAllocation`], Variable4 for LCP), the metadata-cache lookup,
//! DRAM burst issue and accounting, the free-prefetch buffer, page-move
//! traffic and the fixed Tab. III latencies. Each device keeps only its
//! layout and the policies that set it apart (DESIGN.md §3). Fault
//! injection ([`faultkit`], DESIGN.md §8) and the opt-in
//! crash-consistency layer ([`journal`], DESIGN.md §10) each have one
//! crate-private owner, off both devices' data paths: every draw from a
//! fault plan, and its count, happens in `faultkit`. Neither is part of
//! [`CompressoConfig`], which holds only the paper's choices; both
//! attach through a method on either device: `inject_faults(plan)`, and
//! `enable_journaling` (with a scrub interval on Compresso, whose
//! durable metadata image it scrubs). Both families recover the same
//! way, with `recover(self, journal_bytes)` on a freshly built device.
//!
//! # Example
//!
//! ```
//! use compresso_core::{CompressoConfig, CompressoDevice, MemoryDevice};
//! use compresso_cache_sim::Backend;
//! use compresso_workloads::{benchmark, DataWorld};
//!
//! let profile = benchmark("zeusmp").expect("paper benchmark");
//! let world = DataWorld::new(&profile);
//! let mut device = CompressoDevice::new(CompressoConfig::compresso(), world);
//! let done = device.fill(0, 0);
//! assert!(done >= 0u64);
//! assert!(device.compression_ratio() >= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
pub mod compresso;
pub mod config;
mod controller;
pub mod device;
mod durability;
pub mod error;
pub mod faultkit;
pub mod journal;
pub mod lcp;
pub mod lcp_device;
pub mod mcache;
pub mod metadata;
pub mod metadata_codec;
pub mod offset_circuit;
pub mod predictor;
pub mod stats;

pub use crate::compresso::CompressoDevice;
pub use alloc::{BuddyAllocator, ChunkAllocator, OutOfMpaSpace};
pub use config::{CompressoConfig, PageAllocation};
pub use device::{MemoryDevice, UncompressedDevice};
pub use error::CompressoError;
pub use faultkit::{FaultConfig, FaultPlan, FaultStats, MetadataFault};
pub use journal::{
    parse as parse_journal, DurabilityEvents, Journal, JournalRecord, PageImage, ParseReport,
    RecoveryReport, ShadowModel,
};
pub use lcp::{plan as lcp_plan, LcpImage, LcpPlan};
pub use lcp_device::{LcpDevice, OS_PAGE_FAULT_CYCLES};
pub use mcache::{McAccess, McStats, MetadataCache};
pub use metadata::{
    linepack_bytes, LineLocation, PageMeta, CHUNK_BYTES, LINES_PER_PAGE, PAGE_BYTES,
};
pub use metadata_codec::{
    decode as decode_metadata, encode as encode_metadata, DecodeMetadataError,
};
pub use offset_circuit::{linepack_offset_unit, CircuitEstimate};
pub use predictor::OverflowPredictor;
pub use stats::{DeviceEvents, DeviceStats};
