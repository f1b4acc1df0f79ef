//! MPA space allocators (§II-D).
//!
//! Compresso allocates compressed pages incrementally in 512 B chunks
//! ([`ChunkAllocator`]); the comparison scheme allocates variable-sized
//! chunks of 4 sizes ([`BuddyAllocator`], a binary buddy over 4 KB
//! blocks, which is how a real controller would avoid unbounded
//! fragmentation). The crate-private `PageAllocator`, in the controller
//! both compressed devices share, owns a device's page storage under
//! either scheme (Compresso's configured one, Variable4 for LCP).
//!
//! Both allocators are lazy: they keep only the blocks freed so far plus
//! a watermark below which every block has been handed out at least
//! once, so their size follows the allocated space, not the MPA
//! capacity. Hand-out order is that of a full free list kept
//! lowest-first: freed blocks are reused last-in first-out, and only
//! then is the lowest never-used block taken.

use crate::config::PageAllocation;
use crate::durability::Blocks;
use crate::error::CompressoError;
use crate::faultkit::Faults;
use crate::metadata::CHUNK_BYTES;
use crate::stats::DeviceEvents;
use compresso_telemetry::{Gauge, Registry};

/// Error returned when the machine physical space is exhausted — the
/// trigger for ballooning (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMpaSpace;

impl std::fmt::Display for OutOfMpaSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("machine physical address space exhausted")
    }
}

impl std::error::Error for OutOfMpaSpace {}

/// Fixed 512 B chunk allocator (Compresso's scheme: trivial to manage,
/// 8 page sizes via 1–8 chunks).
#[derive(Debug, Clone)]
pub struct ChunkAllocator {
    /// Freed chunks below `fresh`, reused last-in first-out.
    free: Vec<u32>,
    /// Chunks `fresh..total` have never been handed out.
    fresh: u32,
    total: u32,
}

impl ChunkAllocator {
    /// Creates an allocator over `capacity_bytes` of MPA space.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::rebuild(capacity_bytes, &[])
    }

    /// Rebuilds an allocator whose `owned` chunks are already in use —
    /// the cold-boot recovery path, where ownership is reconstructed
    /// from the journal rather than replayed through `alloc()` calls.
    /// Free chunks are handed out lowest-first, as in [`Self::new`];
    /// only the chunks below the highest owned one are listed.
    pub fn rebuild(capacity_bytes: u64, owned: &[u32]) -> Self {
        let total = (capacity_bytes / CHUNK_BYTES as u64) as u32;
        let fresh = owned.iter().map(|&c| c + 1).max().unwrap_or(0).min(total);
        let owned_set: std::collections::HashSet<u32> = owned.iter().copied().collect();
        let free: Vec<u32> = (0..fresh)
            .rev()
            .filter(|c| !owned_set.contains(c))
            .collect();
        Self { free, fresh, total }
    }

    /// Allocates one chunk, returning its frame number.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMpaSpace`] when no chunks remain.
    pub fn alloc(&mut self) -> Result<u32, OutOfMpaSpace> {
        let chunk = match self.free.pop() {
            Some(chunk) => chunk,
            None if self.fresh < self.total => {
                self.fresh += 1;
                self.fresh - 1
            }
            None => return Err(OutOfMpaSpace),
        };
        Ok(chunk)
    }

    /// Frees a chunk.
    pub fn free(&mut self, chunk: u32) {
        debug_assert!(chunk < self.total);
        self.free.push(chunk);
    }

    /// Chunks currently allocated.
    pub fn used_chunks(&self) -> u32 {
        self.fresh - self.free.len() as u32
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_chunks() as u64 * CHUNK_BYTES as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total as u64 * CHUNK_BYTES as u64
    }
}

/// Binary buddy allocator over 4 KB blocks offering the 4 variable sizes
/// {512 B, 1 KB, 2 KB, 4 KB}.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free lists by order: order 0 = 512 B … order 3 = 4 KB. Order 3
    /// lists only freed blocks below `fresh`.
    free: [Vec<u64>; 4],
    /// 4 KB blocks `fresh..blocks` have never been handed out.
    fresh: u64,
    blocks: u64,
    used: u64,
}

impl BuddyAllocator {
    /// Creates a buddy allocator over `capacity_bytes` (rounded down to
    /// 4 KB).
    pub fn new(capacity_bytes: u64) -> Self {
        Self::rebuild(capacity_bytes, &[])
    }

    /// Rebuilds an allocator around blocks already owned (`(addr,
    /// bytes)` pairs) — the cold-boot recovery path. The complement is
    /// carved into maximal aligned free blocks, handed out lowest-first
    /// per order, as the equivalent alloc/free history would leave them.
    /// Only the 4 KB blocks up to the highest owned one are carved.
    pub fn rebuild(capacity_bytes: u64, owned: &[(u64, u32)]) -> Self {
        let blocks = capacity_bytes / 4096;
        let fresh = owned
            .iter()
            .map(|&(addr, _)| addr / 4096 + 1)
            .max()
            .unwrap_or(0)
            .min(blocks);
        // 512 B granule occupancy bitmap.
        let granules = (fresh * 8) as usize;
        let mut busy = vec![false; granules];
        let mut used = 0u64;
        for &(addr, bytes) in owned {
            let size = Self::round_up(bytes.max(1));
            used += size as u64;
            let first = (addr / 512) as usize;
            let last = (first + (size / 512) as usize).min(granules);
            busy[first..last].fill(true);
        }
        let mut free: [Vec<u64>; 4] = Default::default();
        // Carve each 4 KB block top-down into maximal aligned free runs.
        fn carve(busy: &[bool], first: usize, order: usize, free: &mut [Vec<u64>; 4]) {
            let span = 1usize << order;
            if busy[first..first + span].iter().all(|&b| !b) {
                free[order].push(first as u64 * 512);
            } else if order > 0 {
                carve(busy, first, order - 1, free);
                carve(busy, first + span / 2, order - 1, free);
            }
        }
        for b in 0..fresh as usize {
            carve(&busy, b * 8, 3, &mut free);
        }
        // `alloc` pops from the back: reverse so low addresses go first.
        for list in free.iter_mut() {
            list.reverse();
        }
        Self {
            free,
            fresh,
            blocks,
            used,
        }
    }

    fn order_of(bytes: u32) -> Result<usize, CompressoError> {
        match bytes {
            512 => Ok(0),
            1024 => Ok(1),
            2048 => Ok(2),
            4096 => Ok(3),
            _ => Err(CompressoError::UnsupportedAllocSize(bytes)),
        }
    }

    /// Rounds `bytes` up to the nearest supported block size.
    fn round_up(bytes: u32) -> u32 {
        match bytes {
            0..=512 => 512,
            513..=1024 => 1024,
            1025..=2048 => 2048,
            _ => 4096,
        }
    }

    fn order_bytes(order: usize) -> u64 {
        512u64 << order
    }

    /// Takes the next free block of `order`: the last freed one, or for
    /// 4 KB blocks the lowest never-used one.
    fn take(&mut self, order: usize) -> Option<u64> {
        if let Some(addr) = self.free[order].pop() {
            return Some(addr);
        }
        if order == 3 && self.fresh < self.blocks {
            self.fresh += 1;
            return Some((self.fresh - 1) * 4096);
        }
        None
    }

    /// Allocates a block of `bytes` (one of the 4 sizes), returning its
    /// MPA address.
    ///
    /// # Errors
    ///
    /// Returns [`CompressoError::OutOfMpaSpace`] if no block (or
    /// splittable parent) is available, and
    /// [`CompressoError::UnsupportedAllocSize`] if `bytes` is not one of
    /// the four supported sizes.
    pub fn alloc(&mut self, bytes: u32) -> Result<u64, CompressoError> {
        let want = Self::order_of(bytes)?;
        let (mut order, addr) = (want..4)
            .find_map(|order| Some((order, self.take(order)?)))
            .ok_or(CompressoError::OutOfMpaSpace)?;
        // Split down to the wanted order, pushing buddies.
        while order > want {
            order -= 1;
            let buddy = addr + Self::order_bytes(order);
            self.free[order].push(buddy);
        }
        self.used += Self::order_bytes(want);
        Ok(addr)
    }

    /// Frees a block previously allocated with `bytes` size, coalescing
    /// buddies where possible.
    ///
    /// An unsupported size is debug-asserted and rounded up to the size
    /// class the matching `alloc` would have used, so release builds keep
    /// consistent accounting rather than aborting.
    pub fn free(&mut self, addr: u64, bytes: u32) {
        let mut order = Self::order_of(bytes).unwrap_or_else(|_| {
            debug_assert!(false, "freed with unsupported size {bytes}");
            Self::order_of(Self::round_up(bytes)).expect("round_up yields a supported size")
        });
        self.used -= Self::order_bytes(order);
        let mut addr = addr;
        while order < 3 {
            let buddy = addr ^ Self::order_bytes(order);
            if let Some(pos) = self.free[order].iter().position(|&a| a == buddy) {
                self.free[order].swap_remove(pos);
                addr = addr.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free[order].push(addr);
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.blocks * 4096
    }
}

/// The MPA byte address of chunk frame `chunk`.
pub(crate) fn chunk_addr(chunk: u32) -> u64 {
    chunk as u64 * CHUNK_BYTES as u64
}

/// The chunk frames of the contiguous block at MPA `base` holding
/// `bytes` (none for 0 bytes).
pub(crate) fn block_chunks(base: u64, bytes: u32) -> Vec<u32> {
    let first = (base / CHUNK_BYTES as u64) as u32;
    (first..first + bytes.div_ceil(CHUNK_BYTES)).collect()
}

/// The allocator a [`PageAllocation`] draws from: Chunks512 pages hold
/// 1–8 chunks anywhere, Variable4 pages one block.
enum Pool {
    Chunks(ChunkAllocator),
    Blocks(BuddyAllocator),
}

/// A device's page storage (§II-D): grants, resizes, releases and
/// rebuilds each page's *holding* (the chunk frames covering its logical
/// bytes in order, and its allocation size) and mirrors the bytes in use
/// in a gauge.
pub(crate) struct PageAllocator {
    allocation: PageAllocation,
    pool: Pool,
    /// The MPA bytes the device was built with: recovery refuses a
    /// block past it.
    pub capacity: u64,
    used_gauge: Gauge,
}

impl PageAllocator {
    /// An empty allocator for `allocation` over `capacity` bytes of MPA.
    pub fn new(allocation: PageAllocation, capacity: u64) -> Self {
        let pool = match allocation {
            PageAllocation::Chunks512 => Pool::Chunks(ChunkAllocator::new(capacity)),
            PageAllocation::Variable4 => Pool::Blocks(BuddyAllocator::new(capacity)),
        };
        Self {
            allocation,
            pool,
            capacity,
            used_gauge: Gauge::new(),
        }
    }

    /// Registers the in-use level under `prefix` (`{prefix}.used_bytes`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        registry.register_gauge(&format!("{prefix}.used_bytes"), &self.used_gauge);
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        match &self.pool {
            Pool::Chunks(a) => a.used_bytes(),
            Pool::Blocks(a) => a.used_bytes(),
        }
    }

    /// Grants (from an empty holding) or resizes the holding `held` of
    /// `held_bytes` to `new_bytes`, drawing each chunk or block through
    /// `faults`' bounded retry, and returns the new holding's frames.
    /// Chunks512 keeps the chunk prefix; Variable4 allocates the new
    /// block before freeing the old one. On failure the old holding is
    /// intact and any chunks granted so far are free again.
    pub fn realloc(
        &mut self,
        faults: &mut Faults,
        events: &mut DeviceEvents,
        held: &[u32],
        held_bytes: u32,
        new_bytes: u32,
    ) -> Result<Vec<u32>, CompressoError> {
        let resized = match &mut self.pool {
            Pool::Chunks(a) => {
                let mut chunks = held.to_vec();
                let want = new_bytes.div_ceil(CHUNK_BYTES) as usize;
                while chunks.len() < want {
                    match faults.alloc_with_retry(events, || Ok(a.alloc()?)) {
                        Ok(c) => chunks.push(c),
                        Err(e) => {
                            // A grant from nothing is freed in grant
                            // order, a resize's last-granted first. The
                            // two orders leave the LIFO free list apart,
                            // and the device fingerprint pins both.
                            let mut granted = chunks.split_off(held.len());
                            if !held.is_empty() {
                                granted.reverse();
                            }
                            granted.into_iter().for_each(|c| a.free(c));
                            return Err(e);
                        }
                    }
                }
                chunks.drain(want..).rev().for_each(|c| a.free(c));
                chunks
            }
            Pool::Blocks(a) => {
                let block = match new_bytes {
                    0 => Vec::new(),
                    _ => block_chunks(
                        faults.alloc_with_retry(events, || a.alloc(new_bytes))?,
                        new_bytes,
                    ),
                };
                self.release(held, held_bytes);
                return Ok(block);
            }
        };
        self.used_gauge.set(self.used_bytes() as i64);
        Ok(resized)
    }

    /// Frees the holding `held` of `held_bytes`.
    pub fn release(&mut self, held: &[u32], held_bytes: u32) {
        match &mut self.pool {
            Pool::Chunks(a) => held.iter().for_each(|&c| a.free(c)),
            Pool::Blocks(a) => {
                if let Some(&first) = held.first() {
                    a.free(chunk_addr(first), held_bytes);
                }
            }
        }
        self.used_gauge.set(self.used_bytes() as i64);
    }

    /// The MPA blocks the holding `held` implies: one per 512 B chunk
    /// (Chunks512) or per run of adjacent chunks (Variable4, whose live
    /// holdings are one run).
    pub fn blocks(&self, held: &[u32]) -> Blocks {
        let runs = matches!(self.pool, Pool::Blocks(_));
        let mut blocks: Blocks = Vec::new();
        for addr in held.iter().map(|&c| chunk_addr(c)) {
            match blocks.last_mut() {
                Some((at, len)) if runs && *at + *len as u64 == addr => *len += CHUNK_BYTES,
                _ => blocks.push((addr, CHUNK_BYTES)),
            }
        }
        blocks
    }

    /// Recovery's size rule: a page holds no storage or one of the
    /// allocation's page sizes, which is all the allocator can free.
    /// Returns the violation, naming the page, if not.
    pub fn check_page_size(&self, page: u64, bytes: u32) -> Option<String> {
        let sizes = self.allocation;
        (bytes != 0 && !sizes.page_sizes().contains(&bytes))
            .then(|| format!("page {page}: {bytes} B is not a {sizes:?} page size"))
    }

    /// Rebuilds the allocator in place around `granted`, the blocks of
    /// each adopted page (the cold-boot recovery path; a Variable4 page
    /// holds its first block). The gauge keeps its registered handle.
    pub fn rebuild(&mut self, granted: &[Blocks]) {
        self.pool = match self.pool {
            Pool::Chunks(_) => {
                let owned = granted.iter().flatten();
                let chunks: Vec<u32> = owned.map(|&(addr, _)| (addr / 512) as u32).collect();
                Pool::Chunks(ChunkAllocator::rebuild(self.capacity, &chunks))
            }
            Pool::Blocks(_) => {
                let blocks: Blocks = granted.iter().filter_map(|b| b.first().copied()).collect();
                Pool::Blocks(BuddyAllocator::rebuild(self.capacity, &blocks))
            }
        };
        self.used_gauge.set(self.used_bytes() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_alloc_free_roundtrip() {
        let mut a = ChunkAllocator::new(8 * 512);
        let c1 = a.alloc().unwrap();
        let c2 = a.alloc().unwrap();
        assert_ne!(c1, c2);
        assert_eq!(a.used_chunks(), 2);
        a.free(c1);
        assert_eq!(a.used_chunks(), 1);
        assert_eq!(a.used_bytes(), 512);
    }

    #[test]
    fn chunk_exhaustion() {
        let mut a = ChunkAllocator::new(2 * 512);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(OutOfMpaSpace));
        a.free(0);
        assert!(a.alloc().is_ok());
    }

    #[test]
    fn chunk_addresses() {
        assert_eq!(chunk_addr(0), 0);
        assert_eq!(chunk_addr(3), 1536);
    }

    #[test]
    fn buddy_splits_and_coalesces() {
        let mut b = BuddyAllocator::new(4096);
        let a1 = b.alloc(512).unwrap();
        let a2 = b.alloc(512).unwrap();
        assert_eq!(b.used_bytes(), 1024);
        assert_ne!(a1, a2);
        b.free(a1, 512);
        b.free(a2, 512);
        assert_eq!(b.used_bytes(), 0);
        // After coalescing a full 4 KB block must be available again.
        assert!(b.alloc(4096).is_ok());
    }

    #[test]
    fn buddy_exhaustion_and_fragmentation() {
        let mut b = BuddyAllocator::new(4096);
        let a = b.alloc(512).unwrap();
        // A 4 KB block is no longer available (fragmented).
        assert_eq!(b.alloc(4096), Err(CompressoError::OutOfMpaSpace));
        // But a 2 KB one is.
        assert!(b.alloc(2048).is_ok());
        b.free(a, 512);
    }

    #[test]
    fn buddy_rejects_odd_sizes_with_typed_error() {
        let mut b = BuddyAllocator::new(4096);
        assert_eq!(
            b.alloc(1536),
            Err(CompressoError::UnsupportedAllocSize(1536))
        );
        assert_eq!(b.alloc(0), Err(CompressoError::UnsupportedAllocSize(0)));
        assert_eq!(
            b.alloc(8192),
            Err(CompressoError::UnsupportedAllocSize(8192))
        );
        // A rejected request must not leak or consume capacity.
        assert_eq!(b.used_bytes(), 0);
        assert!(b.alloc(4096).is_ok());
    }

    #[test]
    fn deterministic_chunk_order() {
        let mut a = ChunkAllocator::new(4 * 512);
        assert_eq!(a.alloc().unwrap(), 0);
        assert_eq!(a.alloc().unwrap(), 1);
    }

    #[test]
    fn chunk_rebuild_matches_equivalent_history() {
        // Rebuild around owned chunks {1, 3}: a fresh allocator hands
        // out 0, then 2, then 4 — exactly what alloc/free history
        // reaching the same ownership would do next.
        let mut a = ChunkAllocator::rebuild(6 * 512, &[1, 3]);
        assert_eq!(a.used_chunks(), 2);
        assert_eq!(a.used_bytes(), 1024);
        assert_eq!(a.alloc().unwrap(), 0);
        assert_eq!(a.alloc().unwrap(), 2);
        assert_eq!(a.alloc().unwrap(), 4);
        assert_eq!(a.alloc().unwrap(), 5);
        assert_eq!(a.alloc(), Err(OutOfMpaSpace));
    }

    #[test]
    fn chunk_rebuild_empty_equals_new() {
        let mut rebuilt = ChunkAllocator::rebuild(4 * 512, &[]);
        let mut fresh = ChunkAllocator::new(4 * 512);
        for _ in 0..4 {
            assert_eq!(rebuilt.alloc().unwrap(), fresh.alloc().unwrap());
        }
    }

    #[test]
    fn buddy_rebuild_reconstructs_free_structure() {
        // Own one 512 B block at 0 and one 1 KB block at 0x1000 of an
        // 8 KB arena.
        let mut b = BuddyAllocator::rebuild(8192, &[(0, 512), (0x1000, 1024)]);
        assert_eq!(b.used_bytes(), 512 + 1024);
        // The complement must coalesce into maximal blocks: [512, 1024)
        // as 512, [1024, 2048) as 1024, [2048, 4096) as 2048,
        // [0x1400, 0x1800) as 1024, [0x1800, 0x2000) as 2048.
        assert_eq!(b.alloc(2048).unwrap(), 2048);
        assert_eq!(b.alloc(2048).unwrap(), 0x1800);
        assert_eq!(b.alloc(1024).unwrap(), 1024);
        assert_eq!(b.alloc(1024).unwrap(), 0x1400);
        assert_eq!(b.alloc(512).unwrap(), 512);
        assert_eq!(b.alloc(512), Err(CompressoError::OutOfMpaSpace));
        // Freeing the rebuilt-owned blocks coalesces back to full blocks.
        b.free(0, 512);
        b.free(0x1000, 1024);
        assert_eq!(b.used_bytes(), 8192 - 512 - 1024);
    }

    /// The eager chunk allocator the lazy one replaces: every free chunk
    /// listed up front, lowest on top.
    struct EagerChunks(Vec<u32>);

    impl EagerChunks {
        fn rebuild(total: u32, owned: &[u32]) -> Self {
            Self((0..total).rev().filter(|c| !owned.contains(c)).collect())
        }
    }

    /// The eager buddy allocator the lazy one replaces: every 4 KB block
    /// carved up front (the reference carve is the recursive one of
    /// [`BuddyAllocator::rebuild`], run over the whole arena).
    struct EagerBuddy([Vec<u64>; 4]);

    impl EagerBuddy {
        fn rebuild(blocks: u64, owned: &[(u64, u32)]) -> Self {
            let mut busy = vec![false; blocks as usize * 8];
            for &(addr, bytes) in owned {
                let first = (addr / 512) as usize;
                busy[first..first + (bytes / 512) as usize].fill(true);
            }
            let mut free: [Vec<u64>; 4] = Default::default();
            fn carve(busy: &[bool], first: usize, order: usize, free: &mut [Vec<u64>; 4]) {
                let span = 1usize << order;
                if busy[first..first + span].iter().all(|&b| !b) {
                    free[order].push(first as u64 * 512);
                } else if order > 0 {
                    carve(busy, first, order - 1, free);
                    carve(busy, first + span / 2, order - 1, free);
                }
            }
            for b in 0..blocks as usize {
                carve(&busy, b * 8, 3, &mut free);
            }
            for list in free.iter_mut() {
                list.reverse();
            }
            Self(free)
        }

        fn alloc(&mut self, bytes: u32) -> Option<u64> {
            let want = bytes.trailing_zeros() as usize - 9;
            let mut order = (want..4).find(|&o| !self.0[o].is_empty())?;
            let addr = self.0[order].pop()?;
            while order > want {
                order -= 1;
                self.0[order].push(addr + (512 << order));
            }
            Some(addr)
        }

        fn free(&mut self, mut addr: u64, bytes: u32) {
            let mut order = bytes.trailing_zeros() as usize - 9;
            while order < 3 {
                let buddy = addr ^ (512 << order);
                let Some(pos) = self.0[order].iter().position(|&a| a == buddy) else {
                    break;
                };
                self.0[order].swap_remove(pos);
                addr = addr.min(buddy);
                order += 1;
            }
            self.0[order].push(addr);
        }
    }

    /// A seeded xorshift stream for the schedules below.
    fn rng(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    #[test]
    fn lazy_chunks_hand_out_the_eager_sequence() {
        const TOTAL: u32 = 96;
        for seed in 1..=16u64 {
            let mut next = rng(seed);
            let mut lazy = ChunkAllocator::new(TOTAL as u64 * 512);
            let mut eager = EagerChunks::rebuild(TOTAL, &[]);
            let mut held: Vec<u32> = Vec::new();
            for step in 0..2_000 {
                match next(8) {
                    // Rebuild around the current ownership, as recovery does.
                    0 if step % 50 == 0 => {
                        lazy = ChunkAllocator::rebuild(TOTAL as u64 * 512, &held);
                        eager = EagerChunks::rebuild(TOTAL, &held);
                    }
                    0..=2 if !held.is_empty() => {
                        let c = held.swap_remove(next(held.len() as u64) as usize);
                        lazy.free(c);
                        eager.0.push(c);
                    }
                    _ => {
                        let got = lazy.alloc().ok();
                        assert_eq!(got, eager.0.pop(), "seed {seed} step {step}");
                        held.extend(got);
                    }
                }
                assert_eq!(lazy.used_chunks(), TOTAL - eager.0.len() as u32);
            }
        }
    }

    #[test]
    fn lazy_buddy_hands_out_the_eager_sequence() {
        const BLOCKS: u64 = 24;
        for seed in 1..=16u64 {
            let mut next = rng(seed);
            let mut lazy = BuddyAllocator::new(BLOCKS * 4096);
            let mut eager = EagerBuddy::rebuild(BLOCKS, &[]);
            let mut held: Vec<(u64, u32)> = Vec::new();
            for step in 0..2_000 {
                match next(8) {
                    0 if step % 50 == 0 => {
                        lazy = BuddyAllocator::rebuild(BLOCKS * 4096, &held);
                        eager = EagerBuddy::rebuild(BLOCKS, &held);
                    }
                    0..=2 if !held.is_empty() => {
                        let (addr, bytes) = held.swap_remove(next(held.len() as u64) as usize);
                        lazy.free(addr, bytes);
                        eager.free(addr, bytes);
                    }
                    _ => {
                        let bytes = 512 << next(4);
                        let got = lazy.alloc(bytes).ok();
                        assert_eq!(got, eager.alloc(bytes), "seed {seed} step {step}");
                        held.extend(got.map(|addr| (addr, bytes)));
                    }
                }
                // The eager order-3 list is the never-used blocks,
                // highest at the bottom, under the lazy one's freed blocks.
                let mut listed: Vec<u64> = (lazy.fresh..BLOCKS).rev().map(|b| b * 4096).collect();
                listed.extend(&lazy.free[3]);
                assert_eq!(lazy.free[..3], eager.0[..3], "seed {seed} step {step}");
                assert_eq!(listed, eager.0[3], "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn buddy_rebuild_empty_equals_new() {
        let mut rebuilt = BuddyAllocator::rebuild(8192, &[]);
        let mut fresh = BuddyAllocator::new(8192);
        assert_eq!(rebuilt.capacity_bytes(), fresh.capacity_bytes());
        assert_eq!(rebuilt.alloc(4096).unwrap(), fresh.alloc(4096).unwrap());
        assert_eq!(rebuilt.alloc(4096).unwrap(), fresh.alloc(4096).unwrap());
    }

    /// A page allocator over `chunks` 512 B chunks, with no fault plan.
    fn page_allocator(allocation: PageAllocation, chunks: u64) -> PageAllocator {
        PageAllocator::new(allocation, chunks * CHUNK_BYTES as u64)
    }

    #[test]
    fn page_allocator_rolls_a_partial_chunk_grant_back() {
        let (mut faults, mut events) = (Faults::default(), DeviceEvents::default());
        // Page A holds chunks 0 and 1 of a 4-chunk MPA; chunks 2 and 3
        // are next.
        let with_page_a = || {
            let mut a = page_allocator(PageAllocation::Chunks512, 4);
            let (mut faults, mut events) = (Faults::default(), DeviceEvents::default());
            assert_eq!(
                a.realloc(&mut faults, &mut events, &[], 0, 1024).unwrap(),
                [0, 1]
            );
            a
        };

        // Growing A to 4 KB gets chunks 2 and 3, then runs out: they go
        // back last-granted first, so the next grant sees 2 then 3.
        let mut a = with_page_a();
        let out = a.realloc(&mut faults, &mut events, &[0, 1], 1024, 4096);
        assert_eq!(out, Err(CompressoError::OutOfMpaSpace));
        assert_eq!(a.used_bytes(), 1024);
        assert_eq!(
            a.realloc(&mut faults, &mut events, &[], 0, 1024).unwrap(),
            [2, 3]
        );

        // A 4 KB grant from nothing runs out the same way, but its chunks
        // go back in grant order, so the next grant sees 3 then 2.
        let mut b = with_page_a();
        let out = b.realloc(&mut faults, &mut events, &[], 0, 4096);
        assert_eq!(out, Err(CompressoError::OutOfMpaSpace));
        assert_eq!(b.used_bytes(), 1024);
        assert_eq!(
            b.realloc(&mut faults, &mut events, &[], 0, 1024).unwrap(),
            [3, 2]
        );
        assert_eq!(events.alloc_failures.get(), 2);
        assert_eq!(events.alloc_retries.get(), 0);

        // Shrinking frees the tail; releasing frees the rest.
        assert_eq!(
            a.realloc(&mut faults, &mut events, &[0, 1], 1024, 512)
                .unwrap(),
            [0]
        );
        a.release(&[0], 512);
        assert_eq!(a.used_bytes(), 1024);
    }

    #[test]
    fn page_allocator_keeps_a_block_whose_resize_is_refused() {
        let (mut faults, mut events) = (Faults::default(), DeviceEvents::default());
        // One 4 KB block: a 512 B page splits it.
        let mut a = page_allocator(PageAllocation::Variable4, 8);
        let held = a.realloc(&mut faults, &mut events, &[], 0, 512).unwrap();
        assert_eq!(held, [0]);
        assert_eq!(a.blocks(&held), [(0, 512)]);

        // No 4 KB block is left: the page keeps its 512 B block.
        let out = a.realloc(&mut faults, &mut events, &held, 512, 4096);
        assert_eq!(out, Err(CompressoError::OutOfMpaSpace));
        assert_eq!(a.used_bytes(), 512);
        assert_eq!(events.alloc_failures.get(), 1);

        // The split buddies are granted as before; a 1 KB page is one
        // block of two adjacent chunks.
        let grown = a
            .realloc(&mut faults, &mut events, &held, 512, 1024)
            .unwrap();
        assert_eq!(grown, [2, 3]);
        assert_eq!(a.blocks(&grown), [(1024, 1024)]);
        assert_eq!(
            a.realloc(&mut faults, &mut events, &[], 0, 2048).unwrap(),
            [4, 5, 6, 7]
        );
        assert_eq!(a.used_bytes(), 3072);
    }

    #[test]
    fn page_allocator_rebuilds_in_place() {
        let registry = Registry::new();
        let mut a = page_allocator(PageAllocation::Chunks512, 8);
        a.register_metrics(&registry, "alloc");
        a.rebuild(&[vec![(512, 512)], vec![(1536, 512), (2048, 512)]]);
        assert_eq!(a.used_bytes(), 1536);
        assert_eq!(registry.snapshot().gauge("alloc.used_bytes"), Some(1536));
        let (mut faults, mut events) = (Faults::default(), DeviceEvents::default());
        let next = a.realloc(&mut faults, &mut events, &[], 0, 1536).unwrap();
        assert_eq!(next, [0, 2, 5]);
        assert_eq!(registry.snapshot().gauge("alloc.used_bytes"), Some(3072));

        let mut b = page_allocator(PageAllocation::Variable4, 16);
        b.register_metrics(&registry, "alloc");
        b.rebuild(&[vec![(0, 1024)]]);
        assert_eq!(registry.snapshot().gauge("alloc.used_bytes"), Some(1024));
        assert_eq!(
            b.check_page_size(7, 1536).as_deref(),
            Some("page 7: 1536 B is not a Variable4 page size")
        );
        assert_eq!(a.check_page_size(7, 1536), None);
    }
}
