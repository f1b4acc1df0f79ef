//! Regenerates Fig. 2: compression ratio of {BPC, BDI} x {LinePack, LCP}.

use compresso_exp::{fig2, Cli};

fn main() {
    let (cli, [pages]) = Cli::parse("fig2", [("--pages", 1500)]);
    println!("Fig. 2: compression ratio per benchmark ({pages} pages sampled)\n");
    let (rows, cells) = fig2::fig2(pages, &cli.opts);
    cli.write_metrics("ospa_bytes", cells);
    let modification = fig2::bpc_modification_gain(pages.min(400));
    print!("{}", fig2::report(&rows, modification));
}
