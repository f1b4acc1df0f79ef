//! OS-side models for the Compresso reproduction: paging under memory
//! budgets, the memory-capacity impact methodology (§VI-A), and memory
//! ballooning for OS-transparent out-of-memory handling (§V-B).
//!
//! # Example
//!
//! ```
//! use compresso_oskit::{capacity_run, Budget};
//! use compresso_workloads::benchmark;
//!
//! let profile = benchmark("gamess").expect("paper benchmark");
//! let result = capacity_run(
//!     &profile,
//!     &Budget::constrained(0.7, profile.footprint_pages),
//!     1_000_000,
//! );
//! // gamess's hot set fits in 70% of its footprint: barely any paging.
//! assert!(result.paging_fraction() < 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod balloon;
pub mod budget;
pub mod capacity;
pub mod paging;
pub mod vm;

pub use balloon::{BalloonDriver, BalloonStats, MpaController, MAX_BACKOFF_TICKS};
pub use budget::Budget;
pub use capacity::{capacity_run, relative_performance, CapacityResult};
pub use paging::{PagingSim, PagingStats, SWAP_IN_CYCLES};
pub use vm::{OsMemory, OutOfOsMemory};

use compresso_core::CompressoDevice;

impl MpaController for CompressoDevice {
    fn mpa_pressure(&self) -> f64 {
        CompressoDevice::mpa_pressure(self)
    }

    fn invalidate_page(&mut self, page: u64) {
        CompressoDevice::invalidate_page(self, page);
    }

    fn on_balloon_retry(&mut self) {
        CompressoDevice::note_balloon_retry(self);
    }
}
