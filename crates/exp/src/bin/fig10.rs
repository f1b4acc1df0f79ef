//! Regenerates Fig. 10: single-core performance (cycle-based,
//! memory-capacity impact at 70%, and overall).

use compresso_exp::{arg_usize, f2, params_banner, perf, render_table, MetricsArgs, SweepOptions};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = arg_usize(&args, "--ops", 50_000);
    let cap_ops = arg_usize(&args, "--cap-ops", 4_000_000);
    let margs = MetricsArgs::from_args(&args);
    let mut opts = SweepOptions::from_args(&args);
    opts.epoch = margs.epoch_len();
    println!("{}\n", params_banner());
    println!(
        "Fig. 10: single-core, 70% constrained memory ({ops} cycle ops, {cap_ops} capacity ops)\n"
    );

    let (rows, cells) = perf::fig10(ops, cap_ops, &opts);
    margs.write("fig10", "cycles", cells);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                f2(r.cycle_lcp),
                f2(r.cycle_align),
                f2(r.cycle_compresso),
                f2(r.memcap_lcp),
                f2(r.memcap_compresso),
                f2(r.memcap_unconstrained),
                f2(r.overall_compresso()),
                if r.stalled { "stall".into() } else { "".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "cyc:LCP",
                "cyc:Align",
                "cyc:Compresso",
                "cap:LCP",
                "cap:Compresso",
                "cap:Unconstr",
                "overall:Compresso",
                ""
            ],
            &table
        )
    );
    let s = perf::summarize(&rows);
    println!(
        "geomean cycle-based    (LCP, Align, Compresso): {} {} {}   (paper: 0.938 0.961 0.998)",
        f2(s.cycle.0),
        f2(s.cycle.1),
        f2(s.cycle.2)
    );
    println!(
        "geomean memory-capacity (LCP, Compresso, Unconstr): {} {} {} (paper: 1.11 1.29 1.39)",
        f2(s.memcap.0),
        f2(s.memcap.1),
        f2(s.memcap.2)
    );
    println!(
        "geomean overall        (LCP, Align, Compresso): {} {} {}   (paper: 1.03 1.06 1.28)",
        f2(s.overall.0),
        f2(s.overall.1),
        f2(s.overall.2)
    );
    println!(
        "Compresso over LCP overall: {:.1}% (paper: 24.2%)",
        (s.overall.2 / s.overall.0 - 1.0) * 100.0
    );
}
