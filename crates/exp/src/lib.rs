//! Experiment harness regenerating every table and figure of the
//! Compresso paper's evaluation.
//!
//! Each figure/table has a module and a matching binary
//! (`cargo run --release -p compresso-exp --bin figN`):
//!
//! | target | paper artifact |
//! |--------|----------------|
//! | `fig2` | compression ratio, {BPC,BDI} × {LinePack,LCP} |
//! | `fig4` | extra data movement, unoptimized compressed system |
//! | `fig6` | data-movement optimization ablation |
//! | `fig7` | compression lost without repacking |
//! | `fig9` | SimPoint vs CompressPoint representativeness |
//! | `fig10` | single-core performance (cycle, capacity, overall) |
//! | `fig11` | 4-core mixes |
//! | `fig12` | DRAM/core energy |
//! | `tab2` | capacity-constraint sweep (80/70/60%) |
//! | `tradeoffs` | §IV-A1 bin-count trade-offs |
//! | `balloon` | §V-B ballooning under MPA pressure |
//! | `all` | everything above at reduced scale |
//!
//! Every binary accepts `--ops N` (memory operations per cycle run),
//! `--jobs N` (sweep worker threads, default `COMPRESSO_JOBS` or the
//! machine's parallelism), and `--metrics-out <path>` / `--epoch <ticks>`
//! (machine-readable `compresso.metrics.v1` export, see DESIGN.md §9),
//! and prints Tab. III parameters alongside
//! results so runs are self-describing. Parallel sweeps are bit-identical
//! to serial ones: each cell owns its world and seeded RNG, and
//! `tests/sweep_determinism.rs` enforces it.
//!
//! Each artifact has one entry point (`fig2::fig2`, `perf::fig10`,
//! `perf::tab2`, `tradeoffs::line_bin_tradeoff`, ...). It takes the
//! [`SweepOptions`] that carry the worker count and the epoch length
//! (`SweepOptions::epoch`, 0 = final snapshots only), and returns its
//! rows together with one exportable metric bundle per sweep cell;
//! callers that only want the rows take `.0`.

#![forbid(unsafe_code)]

pub mod energy_fig;
pub mod fig2;
pub mod fig7;
pub mod metrics;
pub mod movement;
pub mod perf;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod tradeoffs;

pub use metrics::MetricsArgs;
pub use report::{f2, pct, render_table};
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

/// Parses `--ops N` style overrides from command-line arguments.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["prog", "--ops", "5000"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_usize(&args, "--ops", 100), 5000);
        assert_eq!(arg_usize(&args, "--pages", 7), 7);
    }
}
