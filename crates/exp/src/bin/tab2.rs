//! Regenerates Tab. II: speedups under 80/70/60% constrained memory.

use compresso_exp::{arg_usize, f2, params_banner, perf, render_table, MetricsArgs, SweepOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = arg_usize(&args, "--ops", 10_000);
    let cap_ops = arg_usize(&args, "--cap-ops", 3_000_000);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!("Tab. II: memory-capacity impact, single-core geomeans\n");

    let (rows, cells) = perf::tab2(ops, cap_ops, &opts);
    margs.write("tab2", "cycles", cells);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.fraction * 100.0),
                f2(r.single_core.0),
                f2(r.single_core.1),
                f2(r.single_core.2),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["memory", "LCP", "Compresso", "Unconstrained"], &table)
    );
    println!("(paper 1-core: 80%: 1.04/1.15/1.24; 70%: 1.11/1.29/1.39; 60%: 1.28/1.56/1.72)");
}
