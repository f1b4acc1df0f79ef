//! Regenerates Fig. 7: compression ratio lost without dynamic repacking.

use compresso_exp::{fig7, Cli};

fn main() {
    let (cli, [pages]) = Cli::parse("fig7", [("--pages", 400)]);
    println!("Fig. 7: repacking impact after long-run aging ({pages} pages/benchmark)\n");
    let (rows, cells) = fig7::fig7(pages, &cli.opts);
    cli.write_metrics("device_time", cells);
    print!("{}", fig7::report(&rows));
}
