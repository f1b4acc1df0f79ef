//! Regenerates the §IV-A1 trade-off studies.

use compresso_exp::{
    arg_usize, f2, params_banner, render_table, tradeoffs, MetricsArgs, SweepOptions,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pages = arg_usize(&args, "--pages", 300);
    let ops = arg_usize(&args, "--ops", 20_000);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!("S IV-A1 trade-offs ({pages} pages, {ops} ops)\n");

    let (line_rows, mut cells) = tradeoffs::line_bin_tradeoff(pages, ops, &opts);
    let (page_rows, page_cells) = tradeoffs::page_size_tradeoff(pages, ops, &opts);
    cells.extend(page_cells);
    margs.write("tradeoffs", "cycles", cells);

    for (title, rows) in [
        (
            "Line-size bins (paper: 8 bins 1.82x vs 4 bins 1.59x; +17.5% line overflows)",
            line_rows,
        ),
        (
            "Page sizes (paper: 8 sizes 1.85x vs 4 sizes 1.59x; up to +53% resizing)",
            page_rows,
        ),
    ] {
        println!("{title}");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    f2(r.avg_ratio),
                    r.line_overflows.to_string(),
                    r.page_overflows.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["config", "avg-ratio", "line-overflows", "page-overflows"],
                &table
            )
        );
    }
}
