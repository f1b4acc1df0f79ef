//! Memory-capacity impact demo (§VI-A): the same benchmark under an
//! unconstrained system, a 70%-constrained uncompressed system, and a
//! 70%-constrained system whose effective capacity follows Compresso's
//! compression ratio.
//!
//! ```text
//! cargo run --release --example capacity_constrained
//! ```

use compresso_exp::{run_single, SystemKind};
use compresso_oskit::{capacity_run, relative_performance, Budget};
use compresso_workloads::{benchmark, full_run};

fn main() {
    let names = ["xalancbmk", "gamess", "mcf"];
    println!("memory-capacity impact at 70% of footprint (paper §VI-A methodology)\n");
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>10}",
        "benchmark", "constrained", "+Compresso", "unconstrained", "verdict"
    );

    for name in names {
        let profile = benchmark(name).expect("paper benchmark");
        let footprint = profile.footprint_pages;
        let ops = 2_000_000;

        // Measure Compresso's compression ratio in a short cycle run,
        // then let the budget follow the benchmark's compressibility
        // phases anchored at that ratio — the paper's dynamic cgroup.
        let ratio = run_single(&profile, &SystemKind::Compresso, 10_000).ratio;
        let ratios: Vec<f64> = full_run(&profile, ratio, 16)
            .iter()
            .map(|i| i.compression_ratio)
            .collect();

        let constrained = capacity_run(&profile, &Budget::constrained(0.7, footprint), ops);
        let compressed = capacity_run(&profile, &Budget::compressed(0.7, footprint, ratios), ops);
        let unconstrained = capacity_run(&profile, &Budget::Unconstrained, ops);

        let rel = |r| relative_performance(&constrained, r);
        let verdict = if constrained.stalled() {
            "stalls"
        } else if rel(&unconstrained) < 1.1 {
            "insensitive"
        } else {
            "sensitive"
        };
        println!(
            "{:<12} {:>12} {:>13.2}x {:>13.2}x {:>10}",
            name,
            "1.00x",
            rel(&compressed),
            rel(&unconstrained),
            verdict
        );
    }
    println!("\n(mcf thrashes when constrained and its data is incompressible — the paper");
    println!(" excludes it from single-core overall numbers; gamess's hot set fits.)");
}
