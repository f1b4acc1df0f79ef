//! Regenerates Fig. 6: reduction in extra traffic as the data-movement
//! optimizations are applied cumulatively.

use compresso_exp::{
    arg_usize, movement, params_banner, pct, render_table, MetricsArgs, SweepOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = arg_usize(&args, "--ops", 60_000);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!("Fig. 6: optimization ablation ({} ops)\n", ops);

    let (rows, cells) = movement::fig6(ops, &opts);
    margs.write("fig6", "cycles", cells);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.config.clone(),
                pct(r.split),
                pct(r.overflow),
                pct(r.metadata),
                pct(r.total),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "config",
                "split",
                "overflow",
                "metadata",
                "total-extra"
            ],
            &table
        )
    );
    println!("cumulative averages (paper: 63% -> 36% -> 26% -> 19% -> 15%):");
    for (config, avg) in movement::averages(&rows) {
        println!("  {config:<22} {}", pct(avg));
    }
}
