//! Regenerates Fig. 4: extra compression-related memory traffic of the
//! unoptimized compressed system.

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
    println!(
        "Fig. 4: relative extra memory accesses, unoptimized system ({} ops)\n",
        ops
    );

    let (rows, cells) = movement::fig4(ops, &opts);
    margs.write("fig4", "cycles", cells);
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
                "alloc",
                "split",
                "overflow",
                "metadata",
                "total-extra"
            ],
            &table
        )
    );
    for (config, avg) in movement::averages(&rows) {
        println!(
            "average extra accesses [{config}]: {} (paper avg: 63%)",
            pct(avg)
        );
    }
}
