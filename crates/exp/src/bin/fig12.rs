//! Regenerates Fig. 12: energy relative to the uncompressed system.

use compresso_exp::{energy_fig, Cli};

fn main() {
    let (cli, [ops]) = Cli::parse("fig12", [("--ops", 40_000)]);
    println!("Fig. 12: energy relative to uncompressed ({ops} ops)\n");
    let (rows, cells) = energy_fig::fig12(ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", energy_fig::report(&rows));
}
