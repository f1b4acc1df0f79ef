//! Determinism suite for the parallel sweep engine: the same sweep at
//! `jobs = 1`, `jobs = 4`, and `jobs = 8` must produce bit-identical
//! results per cell — cycles, instructions, `DeviceStats`, `MemStats`,
//! and the compression ratio down to the f64 bit pattern. Each cell owns
//! its `CombinedWorld` and seeded RNG, so this is an enforced invariant
//! of the engine, not a statistical property.

use compresso_exp::sweep::{run_cells, run_grid, SweepCell, SweepOptions};
use compresso_exp::{fig2, perf, CellOutcome, RunResult, SystemKind};
use compresso_workloads::benchmark;

/// A bit-exact textual fingerprint of one cell's result. `Debug` on
/// `DeviceStats`/`MemStats` prints every integer counter; the f64 ratio
/// goes through `to_bits` so even sub-ulp drift would be caught.
fn fingerprint(outcome: &CellOutcome<RunResult>) -> String {
    let r = outcome.result.as_ref().expect("sweep cell must succeed");
    format!(
        "{label}|cycles={cycles}|instr={instr}|ratio_bits={ratio:#x}|device={device:?}|dram={dram:?}",
        label = outcome.label,
        cycles = r.cycles,
        instr = r.instructions,
        ratio = r.ratio.to_bits(),
        device = r.device,
        dram = r.dram,
    )
}

fn grid() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for bench in ["gcc", "mcf", "zeusmp"] {
        for system in SystemKind::evaluated() {
            cells.push(SweepCell::single(bench, system, 2_000));
        }
    }
    cells.push(SweepCell::mix(
        "mix6",
        ["perlbench", "bzip2", "gromacs", "gobmk"],
        SystemKind::Compresso,
        1_000,
    ));
    cells
}

#[test]
fn grid_results_are_bit_identical_across_jobs_1_4_8() {
    let serial: Vec<String> = run_grid(grid(), &SweepOptions::with_jobs(1))
        .iter()
        .map(fingerprint)
        .collect();
    let four: Vec<String> = run_grid(grid(), &SweepOptions::with_jobs(4))
        .iter()
        .map(fingerprint)
        .collect();
    let eight: Vec<String> = run_grid(grid(), &SweepOptions::with_jobs(8))
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(serial, four, "jobs=4 must be bit-identical to serial");
    assert_eq!(serial, eight, "jobs=8 must be bit-identical to serial");
}

#[test]
fn grid_results_also_match_direct_serial_runs() {
    // The engine at jobs=4 must reproduce what plain run_single produces
    // with no engine at all.
    let outcomes = run_grid(grid(), &SweepOptions::with_jobs(4));
    let mut i = 0;
    for bench in ["gcc", "mcf", "zeusmp"] {
        let profile = benchmark(bench).expect("known benchmark");
        for system in SystemKind::evaluated() {
            let direct = compresso_exp::run_single(&profile, &system, 2_000);
            let cell = outcomes[i].result.as_ref().expect("cell ok");
            assert_eq!(direct.cycles, cell.cycles, "{bench}/{}", system.label());
            assert_eq!(direct.instructions, cell.instructions);
            assert_eq!(direct.device, cell.device);
            assert_eq!(direct.dram, cell.dram);
            assert_eq!(direct.ratio.to_bits(), cell.ratio.to_bits());
            i += 1;
        }
    }
}

#[test]
fn fig2_sweep_is_jobs_invariant() {
    let serial = fig2::fig2(80, &SweepOptions::with_jobs(1)).0;
    let four = fig2::fig2(80, &SweepOptions::with_jobs(4)).0;
    let eight = fig2::fig2(80, &SweepOptions::with_jobs(8)).0;
    assert_eq!(serial.len(), four.len());
    assert_eq!(serial.len(), eight.len());
    for ((s, p4), p8) in serial.iter().zip(&four).zip(&eight) {
        for (a, b) in [(s, p4), (s, p8)] {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(
                a.bpc_linepack.to_bits(),
                b.bpc_linepack.to_bits(),
                "{}",
                a.benchmark
            );
            assert_eq!(a.bpc_lcp.to_bits(), b.bpc_lcp.to_bits(), "{}", a.benchmark);
            assert_eq!(
                a.bdi_linepack.to_bits(),
                b.bdi_linepack.to_bits(),
                "{}",
                a.benchmark
            );
            assert_eq!(a.bdi_lcp.to_bits(), b.bdi_lcp.to_bits(), "{}", a.benchmark);
        }
    }
}

#[test]
fn perf_rows_are_jobs_invariant() {
    // The dual-simulation path (cycle + capacity runs) through run_cells,
    // serial vs 4-way.
    let row_bits = |opts: &SweepOptions| -> Vec<(String, Vec<u64>)> {
        let cells: Vec<(String, &str)> = ["soplex", "povray", "lbm"]
            .iter()
            .map(|b| (format!("perf/{b}"), *b))
            .collect();
        compresso_exp::successes(run_cells(
            cells,
            |b| perf::perf_row(&benchmark(b).expect("known"), 0.7, 1_500, 300_000, 0),
            opts,
        ))
        .into_iter()
        .map(|r| {
            (
                r.workload.clone(),
                vec![
                    r.cycle_lcp.to_bits(),
                    r.cycle_align.to_bits(),
                    r.cycle_compresso.to_bits(),
                    r.memcap_lcp.to_bits(),
                    r.memcap_compresso.to_bits(),
                    r.memcap_unconstrained.to_bits(),
                    r.ratio_lcp.to_bits(),
                    r.ratio_compresso.to_bits(),
                ],
            )
        })
        .collect()
    };
    assert_eq!(
        row_bits(&SweepOptions::with_jobs(1)),
        row_bits(&SweepOptions::with_jobs(4))
    );
}

#[test]
fn fig11_mix_rows_are_jobs_invariant() {
    // The mix branch of the perf-row builder through both branches of the
    // sweep's worker loop: the caller's thread (jobs = 1) and a pool.
    let row_bits = |jobs: usize| -> Vec<String> {
        perf::fig11(1_500, 100_000, &SweepOptions::with_jobs(jobs))
            .0
            .iter()
            .map(|r| {
                format!(
                    "{}|{:#x}|{:#x}|{:#x}|{:#x}|{:#x}|{:#x}|{}|{:#x}|{:#x}",
                    r.workload,
                    r.cycle_lcp.to_bits(),
                    r.cycle_align.to_bits(),
                    r.cycle_compresso.to_bits(),
                    r.memcap_lcp.to_bits(),
                    r.memcap_compresso.to_bits(),
                    r.memcap_unconstrained.to_bits(),
                    r.stalled,
                    r.ratio_lcp.to_bits(),
                    r.ratio_compresso.to_bits(),
                )
            })
            .collect()
    };
    let serial = row_bits(1);
    assert_eq!(serial.len(), 10, "one row per Tab. IV mix");
    assert_eq!(
        serial,
        row_bits(4),
        "jobs=4 must be bit-identical to serial"
    );
}
