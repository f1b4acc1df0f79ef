//! Cross-crate integration tests: the full stack from workload synthesis
//! through caches, compressed devices, OS models and energy.

use compresso_cache_sim::{Backend, Core, CoreParams, Hierarchy};
use compresso_core::{CompressoConfig, CompressoDevice, MemoryDevice, UncompressedDevice};
use compresso_energy::{evaluate, EnergyParams};
use compresso_exp::{run_single, SystemKind};
use compresso_oskit::{capacity_run, BalloonDriver, Budget, OsMemory};
use compresso_workloads::{benchmark, DataWorld, TraceGenerator, PAGE_BYTES};

const OPS: usize = 8_000;

fn cycle_run(bench: &str, system: &SystemKind) -> compresso_exp::RunResult {
    let profile = benchmark(bench).expect("paper benchmark");
    run_single(&profile, system, OPS)
}

#[test]
fn compression_ratio_ordering_matches_benchmark_classes() {
    let zeusmp = cycle_run("zeusmp", &SystemKind::Compresso).ratio;
    let gcc = cycle_run("gcc", &SystemKind::Compresso).ratio;
    let mcf = cycle_run("mcf", &SystemKind::Compresso).ratio;
    assert!(
        zeusmp > gcc && gcc > mcf,
        "ratio ordering must hold: zeusmp {zeusmp:.2} > gcc {gcc:.2} > mcf {mcf:.2}"
    );
    assert!(mcf >= 0.9, "even mcf must not inflate memory: {mcf:.2}");
}

#[test]
fn compresso_cycle_performance_close_to_uncompressed() {
    // Fig. 10a headline: Compresso's cycle-based geomean is ~0.998 of
    // uncompressed. Over a small sample, require it within 15%.
    let mut rels = Vec::new();
    for bench in ["soplex", "gcc", "hmmer", "povray"] {
        let base = cycle_run(bench, &SystemKind::Uncompressed).cycles;
        let comp = cycle_run(bench, &SystemKind::Compresso).cycles;
        rels.push(base as f64 / comp as f64);
    }
    let geomean = compresso_exp::geomean(&rels);
    assert!(
        geomean > 0.85,
        "Compresso must be near the uncompressed baseline, geomean {geomean:.3}"
    );
}

#[test]
fn compresso_beats_lcp_on_data_movement() {
    for bench in ["gcc", "libquantum"] {
        let lcp = cycle_run(bench, &SystemKind::Lcp);
        let comp = cycle_run(bench, &SystemKind::Compresso);
        let lcp_extra = {
            let (s, o, m) = lcp.device.extra_breakdown();
            s + o + m
        };
        let comp_extra = {
            let (s, o, m) = comp.device.extra_breakdown();
            s + o + m
        };
        assert!(
            comp_extra < lcp_extra,
            "{bench}: Compresso extras {comp_extra:.3} must beat LCP {lcp_extra:.3}"
        );
    }
}

#[test]
fn dual_simulation_combines_multiplicatively() {
    // The paper multiplies cycle-based and capacity relative performance.
    let profile = benchmark("xalancbmk").unwrap();
    let row = compresso_exp::perf::perf_row(&profile, 0.7, 5_000, 1_000_000, 0);
    let overall = row.overall_compresso();
    assert!(
        (overall - row.cycle_compresso * row.memcap_compresso).abs() < 1e-12,
        "overall must be the product"
    );
    assert!(row.memcap_unconstrained >= row.memcap_compresso * 0.9);
}

#[test]
fn ballooning_relieves_real_mpa_pressure() {
    // An incompressible workload against a tiny MPA: the balloon driver
    // must engage and free storage through page invalidation.
    let profile = benchmark("mcf").unwrap();
    let mut cfg = CompressoConfig::compresso();
    cfg.mpa_capacity = 4 << 20; // 4 MB
    let mut device = CompressoDevice::new(cfg, DataWorld::new(&profile));
    let mut os = OsMemory::new(2048);
    let held = os.allocate(1024).expect("cold pages");
    os.mark_cold(&held);
    let mut balloon = BalloonDriver::new(0.5, 0.8, 64);

    let mut t = 0;
    let mut engaged = false;
    for page in 0..900u64 {
        t = device.fill(t, page * PAGE_BYTES).max(t);
        if page % 32 == 0 && balloon.tick(&mut os, &mut device) > 0 {
            engaged = true;
        }
    }
    assert!(engaged, "balloon must inflate under pressure");
    assert!(
        device.mpa_pressure() < 1.0,
        "pressure must stay under 100%: {:.2}",
        device.mpa_pressure()
    );
}

#[test]
fn energy_model_consumes_real_run_stats() {
    let r = cycle_run("cactusADM", &SystemKind::Compresso);
    let e = evaluate(&r.device, &r.dram, r.cycles, &EnergyParams::paper_default());
    assert!(e.dram_nj > 0.0);
    assert!(e.core_nj > 0.0);
    assert!(
        e.mc_overhead_nj < e.dram_nj * 0.1,
        "compression overhead energy must be small: {:.1} vs {:.1}",
        e.mc_overhead_nj,
        e.dram_nj
    );
}

#[test]
fn capacity_and_cycle_stacks_share_the_same_traces() {
    // Both methodologies must see the same deterministic workload.
    let profile = benchmark("astar").unwrap();
    let w1 = DataWorld::new(&profile);
    let w2 = DataWorld::new(&profile);
    let t1 = TraceGenerator::new(&profile).generate(&w1, 2_000);
    let t2 = TraceGenerator::new(&profile).generate(&w2, 2_000);
    assert_eq!(t1, t2);
    let r = capacity_run(&profile, &Budget::Unconstrained, 2_000);
    assert!(r.runtime_cycles > 0);
}

#[test]
fn full_stack_is_deterministic_across_invocations() {
    let a = cycle_run("Forestfire", &SystemKind::Compresso);
    let b = cycle_run("Forestfire", &SystemKind::Compresso);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.device, b.device);
    assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
}

#[test]
fn hierarchy_filters_repeated_traffic_before_the_device() {
    // Two passes over a 64 KB region: the second pass must be absorbed
    // entirely by the caches — zero additional device fills.
    use compresso_cache_sim::TraceOp;
    let lines = 1000u64;
    let pass: Vec<TraceOp> = (0..lines).map(|l| TraceOp::Read(l * 64)).collect();
    let mut device = UncompressedDevice::new();
    let mut core = Core::new(CoreParams::paper_default());
    let mut hierarchy = Hierarchy::single_core();
    for op in pass.iter().chain(pass.iter()) {
        core.step(*op, &mut hierarchy, &mut device);
    }
    core.finish();
    assert_eq!(
        device.device_stats().demand_fills,
        lines,
        "second pass must hit in the hierarchy"
    );
}
