//! Demonstrates §V-B: ballooning keeps an OS-transparent compressed
//! system alive when incompressible data exhausts the MPA space.

use compresso_exp::{balloon, Cli};

fn main() {
    let (cli, []) = Cli::parse("balloon", []);
    let (run, cells) = balloon::balloon(12_000, &cli.opts);
    cli.write_metrics("cycles", cells);
    print!("{}", balloon::report(&run));
}
