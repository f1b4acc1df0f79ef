//! Regenerates Fig. 12: energy relative to the uncompressed system.

use compresso_exp::{
    arg_usize, energy_fig, f2, params_banner, render_table, MetricsArgs, SweepOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = arg_usize(&args, "--ops", 40_000);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!("Fig. 12: energy relative to uncompressed ({ops} ops)\n");

    let (mut rows, cells) = energy_fig::fig12(ops, &opts);
    margs.write("fig12", "cycles", cells);
    rows.push(energy_fig::average(&rows));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                f2(r.dram_lcp),
                f2(r.dram_align),
                f2(r.dram_compresso),
                f2(r.core_compresso),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "DRAM:LCP",
                "DRAM:Align",
                "DRAM:Compresso",
                "core:Compresso"
            ],
            &table
        )
    );
    println!("(paper: Compresso -11% DRAM energy vs uncompressed; 60% more savings than LCP)");
}
