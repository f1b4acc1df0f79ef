//! Regenerates the §IV-A1 trade-off studies.

use compresso_exp::{tradeoffs, Cli};

fn main() {
    let (cli, [pages, ops]) = Cli::parse("tradeoffs", [("--pages", 300), ("--ops", 20_000)]);
    println!("S IV-A1 trade-offs ({pages} pages, {ops} ops)\n");
    let (studies, cells) = tradeoffs::tradeoffs(pages, ops, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", tradeoffs::report(&studies));
}
