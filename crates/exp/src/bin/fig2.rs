//! Regenerates Fig. 2: compression ratio of {BPC, BDI} x {LinePack, LCP}.

use compresso_exp::{arg_usize, f2, fig2, params_banner, render_table, MetricsArgs, SweepOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pages = arg_usize(&args, "--pages", 1500);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!(
        "Fig. 2: compression ratio per benchmark ({} pages sampled)\n",
        pages
    );

    let (mut rows, cells) = fig2::fig2(pages, &opts);
    margs.write("fig2", "ospa_bytes", cells);
    rows.push(fig2::average(&rows));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                f2(r.bpc_linepack),
                f2(r.bpc_lcp),
                f2(r.bdi_linepack),
                f2(r.bdi_lcp),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "BPC+LinePack",
                "BPC+LCP",
                "BDI+LinePack",
                "BDI+LCP"
            ],
            &table
        )
    );
    let avg = rows.last().expect("average row");
    println!(
        "LCP packing loss: {:.1}% with BPC, {:.1}% with BDI (paper: 13% / 2.3%)",
        (1.0 - avg.bpc_lcp / avg.bpc_linepack) * 100.0,
        (1.0 - avg.bdi_lcp / avg.bdi_linepack) * 100.0
    );

    let (modified, baseline) = fig2::bpc_modification_gain(
        &compresso_workloads::benchmark("perlbench").unwrap(),
        pages.min(400),
    );
    println!(
        "Modified BPC vs transform-only (perlbench): {:.2}x vs {:.2}x (paper: +13% memory saved on average)",
        modified, baseline
    );
}
