//! Regenerates Tab. II: speedups under 80/70/60% constrained memory.

use compresso_exp::{perf, Cli};

fn main() {
    let (cli, [ops, cap_ops]) = Cli::parse("tab2", [("--ops", 10_000), ("--cap-ops", 3_000_000)]);
    println!("Tab. II: memory-capacity impact, single-core geomeans\n");
    let (rows, cells) = perf::tab2(ops, cap_ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", perf::tab2_report(&rows));
}
