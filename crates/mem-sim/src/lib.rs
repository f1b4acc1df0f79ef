//! Cycle-level DDR4 main-memory model for the Compresso reproduction.
//!
//! Models the Tab. III configuration: a DDR4-2666 channel (BL8,
//! tCL = tRCD = tRP = 18 DRAM cycles) behind a memory controller with
//! read/write queues. Compression-related accesses are added to the same
//! queues as demand traffic, exactly as the paper specifies.
//!
//! All externally visible times are in **core cycles** (3 GHz); the DRAM
//! clock (1333 MHz for DDR4-2666) is converted with a fixed 9/4 ratio.
//!
//! # Example
//!
//! ```
//! use compresso_mem_sim::{MainMemory, MemConfig};
//!
//! let mut mem = MainMemory::new(MemConfig::ddr4_2666());
//! let first = mem.read(0, 0x4000);
//! // A second read to the same row is a row-buffer hit: strictly faster.
//! let second = mem.read(first.complete_at, 0x4040);
//! assert!(second.latency() < first.latency());
//! ```

#![forbid(unsafe_code)]

pub mod bank;
pub mod controller;
pub mod timing;

pub use bank::{Bank, RowBufferOutcome};
pub use controller::{AccessResult, MainMemory, MemStats};
pub use timing::{DramTiming, MemConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        let mut mem = MainMemory::new(MemConfig::ddr4_2666());
        let r = mem.read(0, 0);
        assert!(r.complete_at > 0);
        assert_eq!(mem.stats().reads, 1);
    }
}
