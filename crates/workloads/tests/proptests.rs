//! Property tests on workload synthesis invariants.

use compresso_cache_sim::TraceOp;
use compresso_compression::{Line, LINE_SIZE};
use compresso_workloads::{
    all_benchmarks, data::materialize, trace_for, CombinedWorld, DataClass, DataWorld, Evolution,
    LineSource, CORE_STRIDE, LINES_PER_PAGE, PAGE_BYTES,
};
use proptest::prelude::*;

/// A world that keeps the trait's provided `page_lines`.
struct LineByLine(DataWorld);

impl LineSource for LineByLine {
    fn line_data(&self, line_addr: u64) -> Line {
        self.0.line_data(line_addr)
    }

    fn on_writeback(&mut self, line_addr: u64) {
        self.0.on_writeback(line_addr);
    }

    fn generation(&self, line_addr: u64) -> u64 {
        self.0.generation(line_addr)
    }
}

/// The page at `page_addr` through `page_lines`.
fn paged(source: &dyn LineSource, page_addr: u64) -> Vec<Line> {
    let mut lines = [[0; LINE_SIZE]; LINES_PER_PAGE as usize];
    source.page_lines(page_addr, &mut lines);
    lines.to_vec()
}

/// The page at `page_addr` through 64 `line_data` calls.
fn line_by_line(source: &dyn LineSource, page_addr: u64) -> Vec<Line> {
    (0..LINES_PER_PAGE)
        .map(|i| source.line_data(page_addr + 64 * i))
        .collect()
}

/// The first page of `world` that evolves as `evolution`, if any.
fn first_page(world: &DataWorld, evolution: Evolution) -> Option<u64> {
    (0..world.page_count() as u64).find(|&p| world.evolution_of(p * PAGE_BYTES) == evolution)
}

/// Checks `page_lines` against `line_data` on `pages` of `world`, also
/// through the provided implementation and at the aliases one and two
/// footprints further on.
fn assert_pages_agree(world: &DataWorld, pages: &[u64]) {
    let provided = LineByLine(world.clone());
    let footprint = world.page_count() as u64 * PAGE_BYTES;
    for &page in pages {
        for addr in [0, 1, 2].map(|wrap| page * PAGE_BYTES + wrap * footprint) {
            let want = line_by_line(world, addr);
            assert_eq!(paged(world, addr), want, "page {page} at {addr:#x}");
            assert_eq!(paged(&provided, addr), want, "provided, page {page}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn materialization_is_pure(seed in any::<u64>(), key in any::<u64>(), version in any::<u32>()) {
        for class in DataClass::ALL {
            prop_assert_eq!(
                materialize(class, seed, key, version),
                materialize(class, seed, key, version)
            );
        }
    }

    #[test]
    fn zero_class_is_always_zero(seed in any::<u64>(), key in any::<u64>(), version in any::<u32>()) {
        let line = materialize(DataClass::Zero, seed, key, version);
        prop_assert!(line.iter().all(|&b| b == 0));
    }

    #[test]
    fn world_generation_tracks_writebacks(
        bench_idx in 0usize..30,
        lines in prop::collection::vec(0u64..1000, 1..40)
    ) {
        let profile = &all_benchmarks()[bench_idx];
        let mut world = DataWorld::new(profile);
        for &line in &lines {
            let addr = line * 64;
            let before = world.generation(addr);
            world.on_writeback(addr);
            prop_assert_eq!(world.generation(addr), before + 1);
        }
        prop_assert_eq!(world.writebacks(), lines.len() as u64);
    }

    #[test]
    fn traces_are_well_formed(bench_idx in 0usize..30, ops in 1usize..400) {
        let profile = &all_benchmarks()[bench_idx];
        let (_, trace) = trace_for(profile, ops);
        let mem_ops = trace
            .iter()
            .filter(|op| !matches!(op, TraceOp::Compute(_)))
            .count();
        prop_assert_eq!(mem_ops, ops);
        let limit = profile.footprint_pages as u64 * PAGE_BYTES;
        for op in trace {
            match op {
                TraceOp::Read(a) | TraceOp::Write(a) => {
                    prop_assert!(a < limit);
                    prop_assert_eq!(a % 64, 0);
                }
                TraceOp::Compute(n) => prop_assert!(n > 0),
            }
        }
    }
}

proptest! {
    // Each case checks every benchmark's world.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn page_lines_match_line_data(
        writes in prop::collection::vec((any::<u64>(), 1u32..6), 1..12),
        probe in any::<u64>(),
    ) {
        let mut worlds = Vec::new();
        for profile in all_benchmarks() {
            let mut world = DataWorld::new(&profile);
            let pages = world.page_count() as u64;
            let mut checked = vec![probe % pages, pages - 1];
            assert_pages_agree(&world, &checked);
            // Written pages: random ones, a degrading page past version 0
            // and an improving page past version 3 where the benchmark
            // has them.
            let mut targets: Vec<(u64, u64, u32)> = writes
                .iter()
                .map(|&(r, times)| (r % pages, (r >> 32) % LINES_PER_PAGE, times))
                .collect();
            let line = probe % LINES_PER_PAGE;
            targets.extend(first_page(&world, Evolution::Degrading).map(|p| (p, line, 1)));
            targets.extend(first_page(&world, Evolution::Improving).map(|p| (p, line, 4)));
            for &(page, line, times) in &targets {
                for _ in 0..times {
                    world.on_writeback(page * PAGE_BYTES + line * 64);
                }
                checked.push(page);
            }
            assert_pages_agree(&world, &checked);
            worlds.push((world, checked));
        }
        // Four written worlds as the cores of one mix.
        for group in worlds.chunks(4) {
            let combined = CombinedWorld::new(group.iter().map(|(w, _)| w.clone()).collect());
            for (core, (world, checked)) in group.iter().enumerate() {
                for &page in checked {
                    let addr = core as u64 * CORE_STRIDE + page * PAGE_BYTES;
                    prop_assert_eq!(paged(&combined, addr), line_by_line(world, page * PAGE_BYTES));
                }
            }
        }
    }
}

proptest! {
    // Each case checks every benchmark's world.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn page_lines_follow_each_pages_written_mark(
        writes in prop::collection::vec(any::<u64>(), 1..8),
        probe in any::<u64>(),
    ) {
        for group in all_benchmarks().chunks(4) {
            let mut worlds: Vec<DataWorld> = group.iter().map(DataWorld::new).collect();
            let mut combined = CombinedWorld::new(worlds.clone());
            for (core, world) in worlds.iter_mut().enumerate() {
                let pages = world.page_count() as u64;
                let base = core as u64 * CORE_STRIDE;
                let agree = |world: &DataWorld, combined: &CombinedWorld, page: u64| {
                    let want = line_by_line(world, page * PAGE_BYTES);
                    assert_eq!(paged(world, page * PAGE_BYTES), want, "page {page}");
                    assert_eq!(paged(combined, base + page * PAGE_BYTES), want, "page {page}");
                };
                // A page right after its first writeback.
                let mut written = Vec::new();
                for &r in &writes {
                    let page = r % pages;
                    let addr = page * PAGE_BYTES + (r >> 32) % LINES_PER_PAGE * 64;
                    world.on_writeback(addr);
                    combined.on_writeback(base + addr);
                    if !written.contains(&page) {
                        agree(world, &combined, page);
                        written.push(page);
                    }
                }
                // Never-written pages of a world with written pages.
                for page in [probe % pages, (probe >> 32) % pages, pages - 1] {
                    if !written.contains(&page) {
                        agree(world, &combined, page);
                    }
                }
            }
        }
    }
}
