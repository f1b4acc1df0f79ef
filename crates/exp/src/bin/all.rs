//! Prints the summaries of Fig. 2, 6, 7, 10 and 12 at reduced scale, a
//! smoke test of the reproduction and of their summary renderers; the
//! individual binaries run each artifact at full scale.
//!
//! `--jobs N` (default: the machine's parallelism) parallelizes every
//! sweep; results are bit-identical to a serial run.

use compresso_exp::{energy_fig, fig2, fig7, movement, perf, Cli};
use compresso_telemetry::CellMetrics;

fn main() {
    let (cli, []) = Cli::parse("all", []);
    let opts = &cli.opts;
    let mut cells = Vec::new();
    let mut section = |title: &str, summary: String, fig_cells: Vec<CellMetrics>| {
        println!("== {title} (reduced) ==\n{summary}");
        cells.extend(fig_cells);
    };
    let (rows, fig_cells) = fig2::fig2(200, opts);
    section("Fig. 2", fig2::summary(&rows), fig_cells);
    let (rows, fig_cells) = movement::fig6(8_000, opts);
    section("Fig. 6", movement::fig6_summary(&rows), fig_cells);
    let (rows, fig_cells) = fig7::fig7(120, opts);
    section("Fig. 7", fig7::summary(&rows), fig_cells);
    let (rows, fig_cells) = perf::fig10(8_000, 1_000_000, opts);
    section("Fig. 10", perf::summary(&rows, &perf::FIG10), fig_cells);
    let (rows, fig_cells) = energy_fig::fig12(6_000, opts);
    section("Fig. 12", energy_fig::summary(&rows), fig_cells);
    cli.write_metrics("cycles", cells);
}
