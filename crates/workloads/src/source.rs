//! The [`LineSource`] abstraction: what a memory device needs to know
//! about data contents, decoupled from how the world is composed.
//!
//! Single-core runs use one [`DataWorld`]; 4-core mixes combine four
//! worlds into a [`CombinedWorld`], one per core, separated in the OSPA
//! space by [`CORE_STRIDE`].

use crate::world::{DataWorld, LINES_PER_PAGE};
use compresso_cache_sim::TraceOp;
use compresso_compression::Line;

/// OSPA address stride between cores in a multi-programmed mix.
pub const CORE_STRIDE: u64 = 1 << 34;

/// Data-content interface consumed by compressed-memory devices.
pub trait LineSource {
    /// Current bytes of the 64 B line at `line_addr`.
    fn line_data(&self, line_addr: u64) -> Line;

    /// Current bytes of the 64 lines of the page at the page-aligned
    /// `page_addr`, line `i` from `page_addr + 64 i`. The provided
    /// implementation calls [`LineSource::line_data`] once per line;
    /// worlds override it to do their per-page work once.
    fn page_lines(&self, page_addr: u64, out: &mut [Line; LINES_PER_PAGE as usize]) {
        for (addr, data) in (page_addr..).step_by(64).zip(out.iter_mut()) {
            *data = self.line_data(addr);
        }
    }

    /// A dirty copy of `line_addr` reached memory: contents change.
    fn on_writeback(&mut self, line_addr: u64);

    /// Content generation tag: changes iff the line's bytes change.
    fn generation(&self, line_addr: u64) -> u64;
}

impl LineSource for DataWorld {
    fn line_data(&self, line_addr: u64) -> Line {
        DataWorld::line_data(self, line_addr)
    }

    fn page_lines(&self, page_addr: u64, out: &mut [Line; LINES_PER_PAGE as usize]) {
        DataWorld::page_lines(self, page_addr, out);
    }

    fn on_writeback(&mut self, line_addr: u64) {
        DataWorld::on_writeback(self, line_addr);
    }

    fn generation(&self, line_addr: u64) -> u64 {
        DataWorld::generation(self, line_addr)
    }
}

/// Several per-core worlds glued into one OSPA space.
#[derive(Debug, Clone)]
pub struct CombinedWorld {
    worlds: Vec<DataWorld>,
}

impl CombinedWorld {
    /// Combines per-core worlds; core `i` occupies
    /// `[i·CORE_STRIDE, (i+1)·CORE_STRIDE)`.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty.
    pub fn new(worlds: Vec<DataWorld>) -> Self {
        assert!(!worlds.is_empty(), "need at least one world");
        Self { worlds }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let idx = ((addr / CORE_STRIDE) as usize).min(self.worlds.len() - 1);
        (idx, addr % CORE_STRIDE)
    }
}

impl LineSource for CombinedWorld {
    fn line_data(&self, line_addr: u64) -> Line {
        let (idx, inner) = self.split(line_addr);
        self.worlds[idx].line_data(inner)
    }

    fn page_lines(&self, page_addr: u64, out: &mut [Line; LINES_PER_PAGE as usize]) {
        // CORE_STRIDE is a whole number of pages: a page has one world.
        let (idx, inner) = self.split(page_addr);
        self.worlds[idx].page_lines(inner, out);
    }

    fn on_writeback(&mut self, line_addr: u64) {
        let (idx, inner) = self.split(line_addr);
        self.worlds[idx].on_writeback(inner);
    }

    fn generation(&self, line_addr: u64) -> u64 {
        let (idx, inner) = self.split(line_addr);
        self.worlds[idx].generation(inner)
    }
}

/// Rebases a trace's addresses into core `core`'s OSPA window.
pub fn offset_trace(trace: &mut [TraceOp], core: usize) {
    let offset = core as u64 * CORE_STRIDE;
    for op in trace.iter_mut() {
        match op {
            TraceOp::Read(a) | TraceOp::Write(a) => *a += offset,
            TraceOp::Compute(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::benchmark;

    #[test]
    fn combined_world_routes_by_stride() {
        let a = DataWorld::new(&benchmark("zeusmp").unwrap());
        let b = DataWorld::new(&benchmark("mcf").unwrap());
        let expected_a = a.line_data(64);
        let expected_b = b.line_data(64);
        let combined = CombinedWorld::new(vec![a, b]);
        assert_eq!(combined.line_data(64), expected_a);
        assert_eq!(combined.line_data(CORE_STRIDE + 64), expected_b);
    }

    #[test]
    fn writebacks_stay_core_local() {
        let a = DataWorld::new(&benchmark("gcc").unwrap());
        let b = DataWorld::new(&benchmark("gcc").unwrap());
        let mut combined = CombinedWorld::new(vec![a, b]);
        let before_b = combined.line_data(CORE_STRIDE);
        combined.on_writeback(0);
        assert_eq!(combined.generation(0), 1);
        assert_eq!(combined.generation(CORE_STRIDE), 0);
        assert_eq!(combined.line_data(CORE_STRIDE), before_b);
    }

    #[test]
    fn offset_trace_rebases_memory_ops_only() {
        let mut trace = vec![TraceOp::Compute(5), TraceOp::Read(64), TraceOp::Write(128)];
        offset_trace(&mut trace, 2);
        assert_eq!(trace[0], TraceOp::Compute(5));
        assert_eq!(trace[1], TraceOp::Read(2 * CORE_STRIDE + 64));
        assert_eq!(trace[2], TraceOp::Write(2 * CORE_STRIDE + 128));
    }

    #[test]
    #[should_panic(expected = "at least one world")]
    fn empty_combination_panics() {
        let _ = CombinedWorld::new(Vec::new());
    }
}
