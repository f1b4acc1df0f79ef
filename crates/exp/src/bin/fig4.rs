//! Regenerates Fig. 4: extra compression-related memory traffic of the
//! unoptimized compressed system.

use compresso_exp::{movement, Cli};

fn main() {
    let (cli, [ops]) = Cli::parse("fig4", [("--ops", 60_000)]);
    println!("Fig. 4: relative extra memory accesses, unoptimized system ({ops} ops)\n");
    let (rows, cells) = movement::fig4(ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", movement::fig4_report(&rows));
}
