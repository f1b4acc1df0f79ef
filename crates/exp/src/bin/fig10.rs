//! Regenerates Fig. 10: single-core performance (cycle-based,
//! memory-capacity impact at 70%, and overall).

use compresso_exp::{perf, Cli};

fn main() {
    let (cli, [ops, cap_ops]) = Cli::parse("fig10", [("--ops", 50_000), ("--cap-ops", 4_000_000)]);
    println!(
        "Fig. 10: single-core, 70% constrained memory ({ops} cycle ops, {cap_ops} capacity ops)\n"
    );
    let (rows, cells) = perf::fig10(ops, cap_ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", perf::report(&rows, &perf::FIG10));
}
