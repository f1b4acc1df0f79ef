//! Regenerates Fig. 11: 4-core mix performance.

use compresso_exp::{perf, Cli};
use compresso_workloads::MIXES;

fn main() {
    let (cli, [ops, cap_ops]) = Cli::parse("fig11", [("--ops", 25_000), ("--cap-ops", 3_000_000)]);
    println!("Tab. IV mixes:");
    for (name, benchmarks) in MIXES {
        println!("  {name}: {}", benchmarks.join(", "));
    }
    println!("\nFig. 11: 4-core, 70% constrained memory ({ops} ops/core)\n");
    let (rows, cells) = perf::fig11(ops, cap_ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", perf::report(&rows, &perf::FIG11));
}
