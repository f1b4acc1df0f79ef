//! Regenerates Fig. 9: SimPoint vs CompressPoint compressibility
//! representativeness for GemsFDTD and astar.

use compresso_exp::{fig9, Cli};

fn main() {
    let (cli, []) = Cli::parse("fig9", []);
    println!("Fig. 9: compression ratio over a full run\n");
    let (rows, cells) = fig9::fig9(64, &cli.opts);
    cli.write_metrics("intervals", cells);
    print!("{}", fig9::report(&rows));
}
