//! A Lea-style (GNU libc) freelist allocator over the simulated address
//! space: the baseline Exterminator is compared against in Fig. 7.
//!
//! The paper measures Exterminator's overhead "versus the GNU libc
//! allocator... based on the Lea allocator". This crate reproduces the
//! *behavioural* properties of that family that matter for the comparison
//! and for the motivation examples:
//!
//! * **Inline chunk headers.** Every object is preceded by a 16-byte header
//!   in the heap itself. Buffer overflows therefore corrupt allocator
//!   metadata, and (like glibc's `malloc_printerr`) the allocator *detects
//!   corruption and aborts* rather than continuing — observable through
//!   [`BaselineHeap::poisoned`].
//! * **LIFO freelist reuse.** A freed chunk is the first candidate for the
//!   next same-size allocation, so dangling pointers alias fresh objects
//!   almost immediately — the failure mode DieHard randomizes away.
//! * **Contiguous carving.** Fresh chunks are carved sequentially from
//!   segments, so consecutive allocations are physically adjacent and a
//!   small overflow reliably lands on a neighbour.
//! * **No per-object randomization, no canaries, no over-provisioning** —
//!   and correspondingly less work per operation, which is exactly why it
//!   is the fast end of Fig. 7.
//!
//! # First-segment cost on small inputs
//!
//! On a short squid request batch (6 requests, 12 mallocs) this heap is
//! *slower* than the DieFast stack, and the cause is the first segment.
//! Construction maps nothing, so it costs under 1 µs. The first `malloc`
//! then maps a whole 256 KiB segment. The arena backs it with a
//! zero-filled host buffer, which costs about 31 µs per MiB, linear in
//! size, so about 8 µs here. That is about half of the run. Median over
//! 5×1024 squid inputs on a 2-vCPU x86-64 host:
//!
//! | Measurement | µs |
//! |---|---|
//! | baseline run, 256 KiB first segment | 15.2 |
//! | first `malloc` alone (maps the segment) | 8.1 |
//! | the rest of the run, segment already mapped | 7.0 |
//! | same heap built with a 4 KiB first segment (experiment only) | 7.6 |
//! | DieFast + correcting stack: build, run, drop | 11.5 |
//!
//! The 64 page-table entries for the segment cost under 1 µs of the 8.
//! Fig. 7's workloads fill many segments, so there the cost is amortised.
//! The segment size stays as it is: this heap is the denominator of every
//! overhead ratio, and changing it would move them all.
//!
//! # Example
//!
//! ```
//! use xt_alloc::{Heap, SiteHash};
//! use xt_baseline::BaselineHeap;
//!
//! # fn main() -> Result<(), xt_alloc::HeapError> {
//! let mut heap = BaselineHeap::with_seed(1);
//! let site = SiteHash::from_raw(9);
//! let a = heap.malloc(24, site)?;
//! heap.free(a, site);
//! let b = heap.malloc(24, site)?;
//! assert_eq!(a, b, "LIFO freelist reuses the chunk immediately");
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, SiteHash};
use xt_arena::{Addr, Arena, Rng};

/// Bytes of inline metadata before each payload.
pub const HEADER_SIZE: usize = 16;

/// Allocation granularity (payloads are rounded up to this).
const GRANULE: usize = 16;

/// Fresh-segment size when the current one is exhausted.
const SEGMENT_SIZE: usize = 256 * 1024;

/// Header magic for a live chunk.
const MAGIC_LIVE: u32 = 0x21AE_117E;

/// Header magic for a free chunk.
const MAGIC_FREE: u32 = 0xF4EE_C804;

/// Largest request honoured (matches the DieHard configuration's default).
const MAX_REQUEST: usize = 1 << 16;

/// The baseline freelist allocator. See the [crate docs](self) for the
/// properties it reproduces.
#[derive(Debug)]
pub struct BaselineHeap {
    arena: Arena,
    rng: Rng,
    /// Bump pointer within the current segment.
    cursor: Addr,
    /// End of the current segment.
    segment_end: Addr,
    /// Size-segregated LIFO freelists, keyed by chunk payload size.
    bins: HashMap<usize, Vec<Addr>>,
    clock: AllocTime,
    live: usize,
    poisoned: bool,
    footprint: usize,
}

impl BaselineHeap {
    /// Creates an empty heap; segments are mapped on demand.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        BaselineHeap {
            arena: Arena::new(),
            rng: Rng::new(seed),
            cursor: Addr::NULL,
            segment_end: Addr::NULL,
            bins: HashMap::new(),
            clock: AllocTime::ZERO,
            live: 0,
            poisoned: false,
            footprint: 0,
        }
    }

    /// `true` once the allocator has detected metadata corruption (the
    /// analogue of glibc aborting with "malloc(): corrupted ...").
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of live objects.
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.live
    }

    /// Total bytes of mapped segments.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.footprint
    }

    fn round_payload(size: usize) -> usize {
        size.div_ceil(GRANULE) * GRANULE
    }

    fn carve(&mut self, chunk: usize) -> Result<Addr, HeapError> {
        if self.cursor.is_null() || self.cursor + chunk as u64 > self.segment_end {
            let seg_len = SEGMENT_SIZE.max(chunk);
            let base = self
                .arena
                .try_map(seg_len, &mut self.rng)
                .map_err(|_| HeapError::OutOfMemory { requested: chunk })?;
            self.cursor = base;
            self.segment_end = base + seg_len as u64;
            self.footprint += seg_len;
        }
        let at = self.cursor;
        self.cursor += chunk as u64;
        Ok(at)
    }

    fn write_header(&mut self, header: Addr, payload: usize, magic: u32) {
        self.arena
            .write_u64(header, payload as u64)
            .expect("header memory is mapped");
        self.arena
            .write_u32(header + 8, magic)
            .expect("header memory is mapped");
        self.arena
            .write_u32(header + 12, 0)
            .expect("header memory is mapped");
    }

    fn read_header(&self, header: Addr) -> Option<(usize, u32)> {
        let payload = self.arena.read_u64(header).ok()?;
        let magic = self.arena.read_u32(header + 8).ok()?;
        Some((payload as usize, magic))
    }
}

impl Heap for BaselineHeap {
    fn malloc(&mut self, size: usize, _site: SiteHash) -> Result<Addr, HeapError> {
        if size == 0 {
            return Err(HeapError::ZeroSize);
        }
        if size > MAX_REQUEST {
            return Err(HeapError::RequestTooLarge {
                requested: size,
                max: MAX_REQUEST,
            });
        }
        let payload = Self::round_payload(size);
        self.clock = self.clock.next();
        // LIFO bin reuse first, then carve fresh space.
        let ptr = if let Some(ptr) = self.bins.get_mut(&payload).and_then(Vec::pop) {
            ptr
        } else {
            let header = self.carve(HEADER_SIZE + payload)?;
            header + HEADER_SIZE as u64
        };
        self.write_header(ptr - HEADER_SIZE as u64, payload, MAGIC_LIVE);
        self.live += 1;
        Ok(ptr)
    }

    fn free(&mut self, ptr: Addr, _site: SiteHash) -> FreeOutcome {
        if ptr.get() < HEADER_SIZE as u64 {
            return FreeOutcome::InvalidFreeIgnored;
        }
        let header = ptr - HEADER_SIZE as u64;
        let Some((payload, magic)) = self.read_header(header) else {
            return FreeOutcome::InvalidFreeIgnored;
        };
        match magic {
            MAGIC_LIVE => {
                // Sanity-check the recorded size the way glibc validates
                // chunk fields; nonsense means an overflow trampled us.
                if payload == 0 || payload > MAX_REQUEST || payload % GRANULE != 0 {
                    self.poisoned = true;
                    return FreeOutcome::InvalidFreeIgnored;
                }
                self.write_header(header, payload, MAGIC_FREE);
                self.bins.entry(payload).or_default().push(ptr);
                self.live -= 1;
                FreeOutcome::Freed
            }
            MAGIC_FREE => {
                // "double free or corruption" — glibc aborts.
                self.poisoned = true;
                FreeOutcome::DoubleFreeIgnored
            }
            _ => {
                // Header overwritten by an overflow: corruption detected.
                self.poisoned = true;
                FreeOutcome::InvalidFreeIgnored
            }
        }
    }

    fn arena(&self) -> &Arena {
        &self.arena
    }

    fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    fn clock(&self) -> AllocTime {
        self.clock
    }

    fn usable_size(&self, ptr: Addr) -> Option<usize> {
        if ptr.get() < HEADER_SIZE as u64 {
            return None;
        }
        let (payload, magic) = self.read_header(ptr - HEADER_SIZE as u64)?;
        (magic == MAGIC_LIVE).then_some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE: SiteHash = SiteHash::from_raw(1);

    #[test]
    fn allocations_are_contiguous_chunks() {
        let mut h = BaselineHeap::with_seed(1);
        let a = h.malloc(16, SITE).unwrap();
        let b = h.malloc(16, SITE).unwrap();
        assert_eq!(b - a, (16 + HEADER_SIZE) as u64, "sequential carving");
    }

    #[test]
    fn freelist_is_lifo_per_size() {
        let mut h = BaselineHeap::with_seed(2);
        let a = h.malloc(32, SITE).unwrap();
        let b = h.malloc(32, SITE).unwrap();
        h.free(a, SITE);
        h.free(b, SITE);
        assert_eq!(h.malloc(32, SITE).unwrap(), b, "LIFO order");
        assert_eq!(h.malloc(32, SITE).unwrap(), a);
    }

    #[test]
    fn different_sizes_use_different_bins() {
        let mut h = BaselineHeap::with_seed(3);
        let a = h.malloc(16, SITE).unwrap();
        h.free(a, SITE);
        let b = h.malloc(48, SITE).unwrap();
        assert_ne!(a, b, "48-byte request must not reuse 16-byte chunk");
    }

    #[test]
    fn data_round_trips() {
        let mut h = BaselineHeap::with_seed(4);
        let mut ptrs = Vec::new();
        for i in 0..500u64 {
            let p = h.malloc(16 + (i % 7) as usize * 16, SITE).unwrap();
            h.arena_mut().write_u64(p, i).unwrap();
            ptrs.push(p);
        }
        for (i, p) in ptrs.iter().enumerate() {
            assert_eq!(h.arena().read_u64(*p).unwrap(), i as u64);
        }
        assert_eq!(h.live_objects(), 500);
    }

    #[test]
    fn double_free_poisons() {
        let mut h = BaselineHeap::with_seed(5);
        let p = h.malloc(16, SITE).unwrap();
        assert_eq!(h.free(p, SITE), FreeOutcome::Freed);
        assert!(!h.poisoned());
        assert_eq!(h.free(p, SITE), FreeOutcome::DoubleFreeIgnored);
        assert!(h.poisoned(), "double free must be detected");
    }

    #[test]
    fn overflow_corrupting_next_header_poisons_on_free() {
        let mut h = BaselineHeap::with_seed(6);
        let a = h.malloc(16, SITE).unwrap();
        let b = h.malloc(16, SITE).unwrap();
        // Overflow 20 bytes out of `a`: tramples b's header.
        h.arena_mut().write_bytes(a, &[0xEE; 36]).unwrap();
        assert_eq!(h.free(b, SITE), FreeOutcome::InvalidFreeIgnored);
        assert!(h.poisoned(), "corrupted header must be detected");
    }

    #[test]
    fn dangling_pointer_aliases_next_allocation() {
        // The motivating failure: baseline recycles memory immediately, so a
        // write through a dangling pointer corrupts the new owner's data.
        let mut h = BaselineHeap::with_seed(7);
        let stale = h.malloc(64, SITE).unwrap();
        h.free(stale, SITE);
        let fresh = h.malloc(64, SITE).unwrap();
        assert_eq!(stale, fresh);
        h.arena_mut().write_u64(fresh, 1111).unwrap();
        h.arena_mut().write_u64(stale, 2222).unwrap(); // dangling write
        assert_eq!(
            h.arena().read_u64(fresh).unwrap(),
            2222,
            "silent corruption"
        );
    }

    #[test]
    fn invalid_frees_ignored_without_poison() {
        let mut h = BaselineHeap::with_seed(8);
        let _ = h.malloc(16, SITE).unwrap();
        assert_eq!(
            h.free(Addr::new(0x4444_0000), SITE),
            FreeOutcome::InvalidFreeIgnored
        );
        assert_eq!(h.free(Addr::new(4), SITE), FreeOutcome::InvalidFreeIgnored);
    }

    #[test]
    fn usable_size_reports_rounded_payload() {
        let mut h = BaselineHeap::with_seed(9);
        let p = h.malloc(20, SITE).unwrap();
        assert_eq!(h.usable_size(p), Some(32));
        h.free(p, SITE);
        assert_eq!(h.usable_size(p), None);
    }

    #[test]
    fn zero_and_oversized_rejected() {
        let mut h = BaselineHeap::with_seed(10);
        assert_eq!(h.malloc(0, SITE), Err(HeapError::ZeroSize));
        assert!(matches!(
            h.malloc(1 << 20, SITE),
            Err(HeapError::RequestTooLarge { .. })
        ));
    }

    #[test]
    fn large_churn_reuses_memory() {
        let mut h = BaselineHeap::with_seed(11);
        for _ in 0..10 {
            let ptrs: Vec<Addr> = (0..1000).map(|_| h.malloc(64, SITE).unwrap()).collect();
            for p in ptrs {
                h.free(p, SITE);
            }
        }
        // 10 rounds of 1000 × 80-byte chunks fit comfortably in one segment
        // if the freelist recycles.
        assert!(
            h.footprint() <= SEGMENT_SIZE,
            "footprint {} exceeds one segment",
            h.footprint()
        );
        assert_eq!(h.clock(), AllocTime::from_raw(10_000));
    }
}
