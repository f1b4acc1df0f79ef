//! Experiment harness regenerating every table and figure of the
//! Compresso paper's evaluation.
//!
//! Each artifact has one library entry point that returns its rows with
//! one exportable metric bundle per sweep cell, and one report renderer
//! next to it; a binary of the same name
//! (`cargo run --release -p compresso-exp --bin <name>`) parses its
//! [`Cli`], runs the entry point, writes the metrics and prints the
//! report:
//!
//! | binary | paper artifact | entry point | own flags (default) |
//! |--------|----------------|-------------|---------------------|
//! | `fig2` | compression ratio, {BPC,BDI} × {LinePack,LCP} | [`fig2::fig2`] | `--pages` (1500) |
//! | `fig4` | extra data movement, unoptimized compressed system | [`movement::fig4`] | `--ops` (60000) |
//! | `fig6` | data-movement optimization ablation | [`movement::fig6`] | `--ops` (60000) |
//! | `fig7` | compression lost without repacking | [`fig7::fig7`] | `--pages` (400) |
//! | `fig9` | SimPoint vs CompressPoint representativeness | [`fig9::fig9`] | none |
//! | `fig10` | single-core performance (cycle, capacity, overall) | [`perf::fig10`] | `--ops` (50000), `--cap-ops` (4000000) |
//! | `fig11` | 4-core mixes | [`perf::fig11`] | `--ops` (25000), `--cap-ops` (3000000) |
//! | `fig12` | DRAM/core energy | [`energy_fig::fig12`] | `--ops` (40000) |
//! | `tab2` | capacity-constraint sweep (80/70/60%) | [`perf::tab2`] | `--ops` (10000), `--cap-ops` (3000000) |
//! | `tradeoffs` | §IV-A1 bin-count trade-offs | [`tradeoffs::tradeoffs`] | `--pages` (300), `--ops` (20000) |
//! | `balloon` | §V-B ballooning under MPA pressure | [`balloon::balloon`] | none |
//! | `all` | the summaries of Fig. 2, 6, 7, 10 and 12 at reduced scale | — | none |
//!
//! `--ops` counts memory operations per cycle run (per core for mixes),
//! `--cap-ops` operations per capacity run, `--pages` pages sampled or
//! aged per benchmark. Every figure binary also takes `--jobs N` (sweep
//! workers, default the machine's parallelism; the
//! balloon demo runs no sweep), `--metrics-out <path>` and `--epoch
//! <ticks>` (`compresso.metrics.v1` export, DESIGN.md §9); anything else
//! exits with code 2 and the usage line. Each prints the Tab. III
//! parameters first. `soak` and `metrics_check` parse their own arguments.
//!
//! Parallel sweeps are bit-identical to serial ones: each cell owns its
//! world and seeded RNG, and `tests/sweep_determinism.rs` enforces it.
//! Every entry point takes the [`SweepOptions`] that carry the worker
//! count and the epoch length (`SweepOptions::epoch`, 0 = final
//! snapshots only); callers that only want the rows take `.0`.

#![forbid(unsafe_code)]

pub mod balloon;
mod cli;
pub mod energy_fig;
pub mod fig2;
pub mod fig7;
pub mod fig9;
pub mod metrics;
pub mod movement;
pub mod perf;
mod report;
pub mod runner;
pub mod sweep;
pub mod tradeoffs;

pub use cli::Cli;
pub use runner::{geomean, run_mix, run_single, RunResult, SystemKind};
pub use sweep::{
    run_cells, run_grid, successes, CellError, CellOutcome, SweepCell, SweepOptions, Workload,
};

/// Returns the Tab. III configuration summary printed by every binary.
pub fn params_banner() -> String {
    [
        "Tab. III parameters:",
        "  core: 3 GHz OOO x4-wide, ROB 192; L1D 64KB, L2 512KB,",
        "        L3 2MB (1-core) / 8MB shared (4-core); 64B lines",
        "  DRAM: DDR4-2666, BL8, tCL=tRCD=tRP=18; 8GB",
        "  codec: modified BPC, 12-cycle (de)compression",
        "  metadata cache: 96KB, 2-cycle hit; LinePack offset calc: +1 cycle",
        "  Compresso lines: 0/8/32/64B; pages: 0..4KB in 512B chunks",
        "  LCP baseline: lines 0/22/44/64B; pages 512B/1K/2K/4K + page-fault overflows",
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_mentions_the_key_parameters() {
        let b = params_banner();
        assert!(b.contains("DDR4-2666"));
        assert!(b.contains("96KB"));
        assert!(b.contains("0/8/32/64"));
    }
}
