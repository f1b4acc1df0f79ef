//! Proves the hot-path allocation contract with a counting global
//! allocator: `compressed_size` never touches the heap.
//!
//! Deterministic corpus only — proptest itself allocates, which would
//! drown the signal. Counting is per thread: the harness runs tests on
//! parallel threads, and only the measuring thread's allocations count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use compresso_compression::{Bdi, Bpc, CPack, Compressor, Fpc, Line, LINE_SIZE};

struct CountingAlloc;

thread_local! {
    /// This thread's allocations while armed; `None` when disarmed.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_allocation() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    f();
    ALLOCATIONS
        .with(|count| count.replace(None))
        .expect("armed above")
}

/// A mixed corpus hitting every encoder mode: zero, repeat, arithmetic,
/// pointer-like, sparse, and incompressible lines.
fn corpus() -> Vec<Line> {
    let mut lines = Vec::new();
    lines.push([0u8; LINE_SIZE]);
    let mut repeat8 = [0u8; LINE_SIZE];
    for chunk in repeat8.chunks_exact_mut(8) {
        chunk.copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
    }
    lines.push(repeat8);
    let mut arith = [0u8; LINE_SIZE];
    for (i, chunk) in arith.chunks_exact_mut(2).enumerate() {
        chunk.copy_from_slice(&(1000 + 7 * i as u16).to_le_bytes());
    }
    lines.push(arith);
    let mut pointers = [0u8; LINE_SIZE];
    for (i, chunk) in pointers.chunks_exact_mut(8).enumerate() {
        let v: u64 = 0x7F80_1234_5600 + (i as u64 * 16);
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    lines.push(pointers);
    let mut sparse = [0u8; LINE_SIZE];
    sparse[60..64].copy_from_slice(&12345u32.to_le_bytes());
    lines.push(sparse);
    let mut noise = [0u8; LINE_SIZE];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for byte in noise.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *byte = (state >> 33) as u8;
    }
    lines.push(noise);
    lines
}

fn assert_size_path_alloc_free<C: Compressor>(c: &C, lines: &[Line]) {
    let mut sink = 0usize;
    let allocs = allocations_during(|| {
        for line in lines {
            sink = sink.wrapping_add(c.compressed_size(line));
        }
    });
    assert_eq!(
        allocs,
        0,
        "{} compressed_size allocated on the size-only path (sink={sink})",
        c.name()
    );
}

#[test]
fn compressed_size_is_allocation_free() {
    let lines = corpus();
    assert_size_path_alloc_free(&Bdi::new(), &lines);
    assert_size_path_alloc_free(&Fpc::new(), &lines);
    assert_size_path_alloc_free(&Bpc::new(), &lines);
    assert_size_path_alloc_free(&CPack::new(), &lines);
}
