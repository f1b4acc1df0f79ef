//! Umbrella crate for the Compresso reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests (and
//! downstream users who want one dependency) can reach everything:
//!
//! ```
//! use compresso_suite::core::{CompressoConfig, CompressoDevice};
//! use compresso_suite::workloads::benchmark;
//!
//! let profile = benchmark("zeusmp").expect("paper benchmark");
//! let world = compresso_suite::workloads::DataWorld::new(&profile);
//! let device = CompressoDevice::new(CompressoConfig::compresso(), world);
//! assert!(device.config().repacking);
//! ```

pub use compresso_cache_sim as cache_sim;
pub use compresso_compression as compression;
pub use compresso_core as core;
pub use compresso_energy as energy;
pub use compresso_exp as exp;
pub use compresso_mem_sim as mem_sim;
pub use compresso_oskit as oskit;
pub use compresso_workloads as workloads;
