//! Regenerates Fig. 11: 4-core mix performance.

use compresso_exp::{arg_usize, f2, params_banner, perf, render_table, MetricsArgs, SweepOptions};
use compresso_workloads::MIXES;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = arg_usize(&args, "--ops", 25_000);
    let cap_ops = arg_usize(&args, "--cap-ops", 3_000_000);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!("Tab. IV mixes:");
    for (name, benchmarks) in MIXES {
        println!("  {name}: {}", benchmarks.join(", "));
    }
    println!("\nFig. 11: 4-core, 70% constrained memory ({ops} ops/core)\n");

    let (rows, cells) = perf::fig11(ops, cap_ops, &opts);
    margs.write("fig11", "cycles", cells);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                f2(r.cycle_lcp),
                f2(r.cycle_align),
                f2(r.cycle_compresso),
                f2(r.memcap_lcp),
                f2(r.memcap_compresso),
                f2(r.memcap_unconstrained),
                f2(r.overall_compresso()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "mix",
                "cyc:LCP",
                "cyc:Align",
                "cyc:Compresso",
                "cap:LCP",
                "cap:Compresso",
                "cap:Unconstr",
                "overall:Compresso"
            ],
            &table
        )
    );
    let s = perf::summarize(&rows);
    println!(
        "geomean cycle-based    (LCP, Align, Compresso): {} {} {}   (paper: 0.90 0.95 0.975)",
        f2(s.cycle.0),
        f2(s.cycle.1),
        f2(s.cycle.2)
    );
    println!(
        "geomean memory-capacity (LCP, Compresso, Unconstr): {} {} {} (paper: 1.97 2.33 2.51)",
        f2(s.memcap.0),
        f2(s.memcap.1),
        f2(s.memcap.2)
    );
    println!(
        "geomean overall        (LCP, Align, Compresso): {} {} {}   (paper: 1.78 1.90 2.27)",
        f2(s.overall.0),
        f2(s.overall.1),
        f2(s.overall.2)
    );
}
