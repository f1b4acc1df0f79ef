//! Runs every experiment at reduced scale (a smoke-test of the full
//! reproduction; use the individual binaries for full-scale runs).
//!
//! `--jobs N` (or `COMPRESSO_JOBS`) parallelizes every sweep; results
//! are bit-identical to a serial run.

use compresso_exp::{
    energy_fig, f2, fig2, fig7, movement, params_banner, pct, perf, MetricsArgs, SweepOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    let mut all_cells = Vec::new();
    println!("{}\n", params_banner());
    println!("== Fig. 2 (reduced) ==");
    let (rows, cells) = fig2::fig2(200, &opts);
    all_cells.extend(cells);
    let avg = fig2::average(&rows);
    println!(
        "avg ratios: BPC+LinePack {} BPC+LCP {} BDI+LinePack {} BDI+LCP {}\n",
        f2(avg.bpc_linepack),
        f2(avg.bpc_lcp),
        f2(avg.bdi_linepack),
        f2(avg.bdi_lcp)
    );

    println!("== Fig. 4/6 (reduced) ==");
    let (rows, cells) = movement::fig6(8_000, &opts);
    all_cells.extend(cells);
    for (config, avg) in movement::averages(&rows) {
        println!("  {config:<22} {}", pct(avg));
    }

    println!("\n== Fig. 7 (reduced) ==");
    let (rows, cells) = fig7::fig7(120, &opts);
    all_cells.extend(cells);
    let avg_rel = rows.iter().map(|r| r.relative).sum::<f64>() / rows.len() as f64;
    println!("  avg relative ratio without repacking: {}", f2(avg_rel));

    println!("\n== Fig. 10 (reduced) ==");
    let (rows, cells) = perf::fig10(8_000, 1_000_000, &opts);
    all_cells.extend(cells);
    let s = perf::summarize(&rows);
    println!(
        "  cycle (LCP, Align, Compresso): {} {} {}",
        f2(s.cycle.0),
        f2(s.cycle.1),
        f2(s.cycle.2)
    );
    println!(
        "  memcap (LCP, Compresso, Unc.): {} {} {}",
        f2(s.memcap.0),
        f2(s.memcap.1),
        f2(s.memcap.2)
    );
    println!(
        "  overall (LCP, Align, Compresso): {} {} {}",
        f2(s.overall.0),
        f2(s.overall.1),
        f2(s.overall.2)
    );

    println!("\n== Fig. 12 (reduced) ==");
    let (rows, cells) = energy_fig::fig12(6_000, &opts);
    all_cells.extend(cells);
    let avg = energy_fig::average(&rows);
    println!(
        "  DRAM energy rel (LCP, Align, Compresso): {} {} {}",
        f2(avg.dram_lcp),
        f2(avg.dram_align),
        f2(avg.dram_compresso)
    );

    margs.write("all", "cycles", all_cells);
}
