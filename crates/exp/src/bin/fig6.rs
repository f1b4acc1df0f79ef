//! Regenerates Fig. 6: reduction in extra traffic as the data-movement
//! optimizations are applied cumulatively.

use compresso_exp::{movement, Cli};

fn main() {
    let (cli, [ops]) = Cli::parse("fig6", [("--ops", 60_000)]);
    println!("Fig. 6: optimization ablation ({ops} ops)\n");
    let (rows, cells) = movement::fig6(ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", movement::fig6_report(&rows));
}
