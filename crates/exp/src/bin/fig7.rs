//! Regenerates Fig. 7: compression ratio lost without dynamic repacking.

use compresso_exp::{
    arg_usize, f2, fig7, params_banner, pct, render_table, MetricsArgs, SweepOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pages = arg_usize(&args, "--pages", 400);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!(
        "Fig. 7: repacking impact after long-run aging ({} pages/benchmark)\n",
        pages
    );

    let (rows, cells) = fig7::fig7(pages, &opts);
    margs.write("fig7", "device_time", cells);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                f2(r.with_repacking),
                f2(r.without_repacking),
                f2(r.relative),
                pct(r.repack_overhead),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "with-repack",
                "no-repack",
                "relative",
                "repack-traffic"
            ],
            &table
        )
    );
    let avg_rel = rows.iter().map(|r| r.relative).sum::<f64>() / rows.len().max(1) as f64;
    let avg_cost = rows.iter().map(|r| r.repack_overhead).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "average relative ratio without repacking: {} (paper: 24% squandered);\nrepack traffic: {} of accesses (paper: 1.8%)",
        f2(avg_rel),
        pct(avg_cost)
    );
}
