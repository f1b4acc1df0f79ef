//! Fig. 10 / Fig. 11 / Tab. II: the dual-simulation performance
//! evaluation (§VI).
//!
//! Overall performance = cycle-based relative performance × memory-
//! capacity relative performance, exactly as the paper combines them
//! (§VI-F). Memory-capacity runs use a dynamic budget that follows each
//! benchmark's compressibility vector (its profiling-stage phase trace
//! anchored at the ratio measured in the cycle simulation).

use crate::runner::{geomean, run_profiles, RunResult, SystemKind};
use crate::sweep::{run_cells, successes, SweepOptions};
use compresso_oskit::{capacity_run, relative_performance, Budget};
use compresso_telemetry::{CellMetrics, MetricsReport};
use compresso_workloads::{all_benchmarks, benchmark, full_run, BenchmarkProfile, MIXES};
use std::slice;

/// Performance numbers for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Benchmark or mix name.
    pub workload: String,
    /// Cycle-based performance relative to uncompressed: LCP.
    pub cycle_lcp: f64,
    /// Cycle-based: LCP+Align.
    pub cycle_align: f64,
    /// Cycle-based: Compresso.
    pub cycle_compresso: f64,
    /// Memory-capacity relative performance: LCP.
    pub memcap_lcp: f64,
    /// Memory-capacity: Compresso.
    pub memcap_compresso: f64,
    /// Memory-capacity: unconstrained upper bound.
    pub memcap_unconstrained: f64,
    /// Whether the constrained baseline stalls (mcf/GemsFDTD/lbm at 70%).
    pub stalled: bool,
    /// Measured compression ratios (LCP, Compresso).
    pub ratio_lcp: f64,
    /// Compresso's measured compression ratio.
    pub ratio_compresso: f64,
    /// Merged metric bundle of the four cycle runs, each under its
    /// system prefix (`uncompressed.*`, `lcp.*`, `lcp_align.*`,
    /// `compresso.*`).
    pub metrics: MetricsReport,
}

impl PerfRow {
    /// Overall relative performance (cycle × capacity) for LCP.
    pub fn overall_lcp(&self) -> f64 {
        self.cycle_lcp * self.memcap_lcp
    }

    /// Overall for LCP+Align (memory-capacity side uses the LCP ratio, as
    /// alignment does not change compression materially).
    pub fn overall_align(&self) -> f64 {
        self.cycle_align * self.memcap_lcp
    }

    /// Overall for Compresso.
    pub fn overall_compresso(&self) -> f64 {
        self.cycle_compresso * self.memcap_compresso
    }
}

/// Memory-capacity relative performance of LCP, Compresso and the
/// unconstrained bound against the constrained baseline at `fraction`,
/// and whether that baseline stalls. The compressed budgets follow the
/// benchmark's compressibility phases anchored at each measured ratio.
fn memcap_rels(
    profile: &BenchmarkProfile,
    fraction: f64,
    ratio_lcp: f64,
    ratio_compresso: f64,
    cap_ops: usize,
) -> ([f64; 3], bool) {
    let footprint = profile.footprint_pages;
    let baseline = capacity_run(profile, &Budget::constrained(fraction, footprint), cap_ops);
    let rel =
        |budget: Budget| relative_performance(&baseline, &capacity_run(profile, &budget, cap_ops));
    let compressed = |ratio: f64| {
        let phases = full_run(profile, ratio, 16)
            .iter()
            .map(|i| i.compression_ratio)
            .collect();
        Budget::compressed(fraction, footprint, phases)
    };
    let rels = [
        rel(compressed(ratio_lcp)),
        rel(compressed(ratio_compresso)),
        rel(Budget::Unconstrained),
    ];
    (rels, baseline.stalled())
}

/// Evaluates one benchmark at a capacity `fraction` (0.7 for Fig. 10),
/// recording an epoch metrics series every `epoch` cycles in each of the
/// four cycle runs (0 = final snapshots only).
pub fn perf_row(
    profile: &BenchmarkProfile,
    fraction: f64,
    cycle_ops: usize,
    cap_ops: usize,
    epoch: u64,
) -> PerfRow {
    perf_rows(
        profile.name,
        slice::from_ref(profile),
        &[fraction],
        cycle_ops,
        cap_ops,
        epoch,
    )
    .pop()
    .expect("one row per fraction")
}

/// Evaluates a workload of one benchmark per core (one for Fig. 10 and
/// Tab. II, a 4-benchmark mix for Fig. 11) at each of `fractions`,
/// sharing one set of cycle runs: the capacity fraction enters only the
/// memory-capacity side. That side averages the members' relative
/// performance (the paper's "average progress" metric for mixes, the
/// benchmark's own for one member); each member's budget follows the
/// ratio the workload's device measured.
fn perf_rows(
    name: &str,
    profiles: &[BenchmarkProfile],
    fractions: &[f64],
    cycle_ops: usize,
    cap_ops: usize,
    epoch: u64,
) -> Vec<PerfRow> {
    let run = |system: SystemKind| run_profiles(name, profiles, &system, cycle_ops, epoch);
    let base = run(SystemKind::Uncompressed);
    let lcp = run(SystemKind::Lcp);
    let align = run(SystemKind::LcpAlign);
    let comp = run(SystemKind::Compresso);

    let rel = |r: &RunResult| base.cycles as f64 / r.cycles.max(1) as f64;
    let metrics = MetricsReport::merged_prefixed(&[
        ("uncompressed", &base.metrics),
        ("lcp", &lcp.metrics),
        ("lcp_align", &align.metrics),
        ("compresso", &comp.metrics),
    ]);
    fractions
        .iter()
        .map(|&fraction| {
            let mut memcap = [0.0f64; 3]; // lcp, compresso, unconstrained
            let mut stalled = false;
            for profile in profiles {
                let (rels, member_stalled) =
                    memcap_rels(profile, fraction, lcp.ratio, comp.ratio, cap_ops);
                for (sum, rel) in memcap.iter_mut().zip(rels) {
                    *sum += rel;
                }
                stalled |= member_stalled;
            }
            let members = profiles.len() as f64;
            PerfRow {
                workload: name.to_string(),
                cycle_lcp: rel(&lcp),
                cycle_align: rel(&align),
                cycle_compresso: rel(&comp),
                memcap_lcp: memcap[0] / members,
                memcap_compresso: memcap[1] / members,
                memcap_unconstrained: memcap[2] / members,
                // Mixes never fully stall: compressible co-runners free space.
                stalled: stalled && profiles.len() == 1,
                ratio_lcp: lcp.ratio,
                ratio_compresso: comp.ratio,
                metrics: metrics.clone(),
            }
        })
        .collect()
}

/// Fig. 10: all 30 single-core benchmarks at 70% constrained memory,
/// one sweep cell per benchmark, with per-cell metric export.
pub fn fig10(
    cycle_ops: usize,
    cap_ops: usize,
    opts: &SweepOptions,
) -> (Vec<PerfRow>, Vec<CellMetrics>) {
    let cells: Vec<(String, BenchmarkProfile)> = all_benchmarks()
        .into_iter()
        .map(|p| (format!("fig10/{}", p.name), p))
        .collect();
    let outcomes = run_cells(
        cells,
        |p| perf_row(&p, 0.7, cycle_ops, cap_ops, opts.epoch),
        opts,
    );
    let metrics = crate::metrics::collect(&outcomes, |r| &r.metrics);
    (successes(outcomes), metrics)
}

/// Geomean summary (cycle, memcap, overall) excluding stalled workloads
/// from the overall combination, as the paper does for Fig. 10b.
#[derive(Debug, Clone)]
pub struct PerfSummary {
    /// Geomean cycle-based relative performance (LCP, Align, Compresso).
    pub cycle: (f64, f64, f64),
    /// Geomean memory-capacity relative performance (LCP, Compresso,
    /// unconstrained).
    pub memcap: (f64, f64, f64),
    /// Geomean overall (LCP, Align, Compresso), stalled excluded.
    pub overall: (f64, f64, f64),
}

/// Summarizes a set of rows.
pub fn summarize(rows: &[PerfRow]) -> PerfSummary {
    let all = |f: fn(&PerfRow) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
    let live: Vec<&PerfRow> = rows.iter().filter(|r| !r.stalled).collect();
    let live_vals = |f: fn(&PerfRow) -> f64| -> Vec<f64> { live.iter().map(|r| f(r)).collect() };
    PerfSummary {
        cycle: (
            geomean(&all(|r| r.cycle_lcp)),
            geomean(&all(|r| r.cycle_align)),
            geomean(&all(|r| r.cycle_compresso)),
        ),
        memcap: (
            geomean(&live_vals(|r| r.memcap_lcp)),
            geomean(&live_vals(|r| r.memcap_compresso)),
            geomean(&live_vals(|r| r.memcap_unconstrained)),
        ),
        overall: (
            geomean(&live_vals(|r| r.overall_lcp())),
            geomean(&live_vals(|r| r.overall_align())),
            geomean(&live_vals(|r| r.overall_compresso())),
        ),
    }
}

/// Fig. 11: the ten 4-core mixes, with per-cell metric export.
pub fn fig11(
    cycle_ops: usize,
    cap_ops: usize,
    opts: &SweepOptions,
) -> (Vec<PerfRow>, Vec<CellMetrics>) {
    let cells: Vec<(String, (&str, Vec<BenchmarkProfile>))> = MIXES
        .iter()
        .map(|(name, members)| {
            let profiles = members
                .iter()
                .map(|m| benchmark(m).expect("paper mix names are valid"))
                .collect();
            (format!("fig11/{name}"), (*name, profiles))
        })
        .collect();
    let outcomes = run_cells(
        cells,
        |(name, profiles)| {
            perf_rows(name, &profiles, &[0.7], cycle_ops, cap_ops, opts.epoch)
                .pop()
                .expect("one row per fraction")
        },
        opts,
    );
    let metrics = crate::metrics::collect(&outcomes, |r| &r.metrics);
    (successes(outcomes), metrics)
}

/// Tab. II: geomean speedups at 80/70/60% constrained memory.
#[derive(Debug, Clone)]
pub struct Tab2Row {
    /// Memory constraint as a fraction of footprint.
    pub fraction: f64,
    /// (LCP, Compresso, unconstrained) single-core geomeans.
    pub single_core: (f64, f64, f64),
}

/// The memory constraints of Tab. II, as fractions of the footprint.
const TAB2_FRACTIONS: [f64; 3] = [0.8, 0.7, 0.6];

/// Runs the Tab. II sweep on the single-core benchmark set, with
/// per-cell metric export. Each benchmark is one sweep cell that runs its
/// cycle simulations once and its capacity runs at every fraction; the
/// exported cells are one per (fraction, benchmark), fraction-major, each
/// carrying its benchmark cell's wall-clock.
pub fn tab2(
    cycle_ops: usize,
    cap_ops: usize,
    opts: &SweepOptions,
) -> (Vec<Tab2Row>, Vec<CellMetrics>) {
    let cells: Vec<(String, BenchmarkProfile)> = all_benchmarks()
        .into_iter()
        .map(|p| (format!("tab2/{}", p.name), p))
        .collect();
    let outcomes = run_cells(
        cells,
        |p| {
            perf_rows(
                p.name,
                &[p],
                &TAB2_FRACTIONS,
                cycle_ops,
                cap_ops,
                opts.epoch,
            )
        },
        opts,
    );
    let metrics = TAB2_FRACTIONS
        .iter()
        .enumerate()
        .flat_map(|(i, fraction)| {
            outcomes.iter().filter_map(move |o| {
                let label = format!("{}@{:.0}%", o.label, fraction * 100.0);
                let rows = o.result.as_ref().ok()?;
                Some(crate::metrics::cell(&label, o.millis, &rows[i].metrics))
            })
        })
        .collect();
    let mut by_fraction = vec![Vec::new(); TAB2_FRACTIONS.len()];
    for rows in successes(outcomes) {
        for (column, row) in by_fraction.iter_mut().zip(rows) {
            column.push(row);
        }
    }
    let tab = TAB2_FRACTIONS
        .iter()
        .zip(&by_fraction)
        .map(|(&fraction, rows)| Tab2Row {
            fraction,
            single_core: summarize(rows).memcap,
        })
        .collect();
    (tab, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_row_shapes_hold_for_a_compressible_benchmark() {
        let p = benchmark("soplex").unwrap();
        let row = perf_row(&p, 0.7, 4_000, 1_000_000, 0);
        // Capacity ordering: unconstrained >= Compresso >= 1-ish.
        assert!(row.memcap_unconstrained >= row.memcap_compresso * 0.95);
        assert!(row.memcap_compresso >= 0.95);
        // Compresso's ratio should beat LCP's.
        assert!(row.ratio_compresso >= row.ratio_lcp * 0.95);
    }

    #[test]
    fn shared_cycle_runs_match_one_perf_row_per_fraction() {
        let p = benchmark("mcf").unwrap();
        let rows = perf_rows(
            p.name,
            slice::from_ref(&p),
            &TAB2_FRACTIONS,
            2_000,
            200_000,
            0,
        );
        assert_eq!(rows.len(), TAB2_FRACTIONS.len());
        for (row, &fraction) in rows.iter().zip(&TAB2_FRACTIONS) {
            let alone = perf_row(&p, fraction, 2_000, 200_000, 0);
            assert_eq!(row, &alone, "at {fraction}");
        }
    }

    #[test]
    fn summary_excludes_stalled_from_overall() {
        let rows = vec![
            PerfRow {
                workload: "live".into(),
                cycle_lcp: 1.0,
                cycle_align: 1.0,
                cycle_compresso: 1.0,
                memcap_lcp: 2.0,
                memcap_compresso: 2.0,
                memcap_unconstrained: 2.0,
                stalled: false,
                ratio_lcp: 1.5,
                ratio_compresso: 1.8,
                metrics: MetricsReport::default(),
            },
            PerfRow {
                workload: "stalled".into(),
                cycle_lcp: 1.0,
                cycle_align: 1.0,
                cycle_compresso: 1.0,
                memcap_lcp: 100.0,
                memcap_compresso: 100.0,
                memcap_unconstrained: 100.0,
                stalled: true,
                ratio_lcp: 1.0,
                ratio_compresso: 1.0,
                metrics: MetricsReport::default(),
            },
        ];
        let s = summarize(&rows);
        assert!(
            (s.overall.2 - 2.0).abs() < 1e-9,
            "stalled row must be excluded"
        );
    }
}
