//! The DieHard substrate: a bitmap-based, fully randomized, over-provisioned
//! memory allocator (Berger & Zorn, PLDI 2006), in the adaptive variant that
//! Exterminator builds on (paper §3.1, Fig. 2).
//!
//! Key properties reproduced here:
//!
//! * **Size-class miniheaps.** Objects of one size class live in dedicated
//!   *miniheaps* mapped at random addresses; each new miniheap is twice as
//!   large as the previous largest in its class.
//! * **Over-provisioning.** A size class grows whenever an allocation would
//!   push it past `1/M` occupancy, so at least an `(M-1)/M` fraction of every
//!   class is free space — the fence-post reservoir DieFast's canaries use.
//! * **Random probing.** Allocation probes the class's slots uniformly at
//!   random (expected `O(1)` probes at `1/M` occupancy).
//! * **Benign double/invalid frees.** A bitmap bit can only be reset once,
//!   and range/alignment checks reject pointers the allocator never issued
//!   (Table 1).
//! * **Out-of-band metadata.** Object id, allocation/deallocation sites,
//!   deallocation time and the canary bit are kept per slot, "below the
//!   line" (Fig. 1), never inline where overflows could destroy them.
//!
//! # Pointer resolution
//!
//! Every miniheap is one arena region, so the heap keeps no address-ordered
//! index of its own. A pointer resolves through the arena's TLB-backed
//! page table: [`Arena::region_id`](xt_arena::Arena::region_id) names the
//! region, a table indexed by region id (filled as miniheaps are mapped)
//! names the miniheap, and slot arithmetic names the slot. That is O(1)
//! whatever the number of miniheaps, and it is the only lookup structure:
//! `location_of`, `location_containing`, `usable_size` and
//! `alloc_site_of` all go through it. Regions mapped on the arena by
//! anyone else resolve to no miniheap. [`DieHardHeap::free_at`] returns
//! the slot a free resolved, so DieFast's free-time canary work does not
//! resolve the pointer again.
//!
//! # Example
//!
//! ```
//! use xt_alloc::{Heap, FreeOutcome, SiteHash};
//! use xt_diehard::{DieHardConfig, DieHardHeap};
//!
//! # fn main() -> Result<(), xt_alloc::HeapError> {
//! let mut heap = DieHardHeap::new(DieHardConfig::with_seed(1));
//! let site = SiteHash::from_raw(0x100);
//! let p = heap.malloc(48, site)?;
//! heap.arena_mut().write_u64(p, 7).unwrap();
//! assert_eq!(heap.free(p, site), FreeOutcome::Freed);
//! // Double frees are tolerated, not fatal.
//! assert_eq!(heap.free(p, site), FreeOutcome::DoubleFreeIgnored);
//! # Ok(())
//! # }
//! ```

mod bitmap;
mod config;
mod heap;
mod history;
mod meta;
mod miniheap;

pub use bitmap::BitMap;
pub use config::DieHardConfig;
pub use heap::{DieHardHeap, SlotRef};
pub use history::{FreeRecord, ObjectLog, ObjectRecord};
pub use meta::{SlotMeta, SlotState};
pub use miniheap::{MiniHeap, MiniHeapId};

/// Log2 of the smallest object size (16 bytes).
pub const MIN_SIZE_LOG2: u32 = 4;

/// Returns the size-class index for a request of `size` bytes.
///
/// Classes are powers of two: class 0 holds 16-byte objects, class 1
/// 32-byte objects, and so on.
///
/// # Panics
///
/// Panics if `size` is zero (callers validate requests first).
#[must_use]
pub fn size_class_of(size: usize) -> usize {
    assert!(size > 0, "zero-size request has no size class");
    let bits = usize::BITS - (size - 1).leading_zeros();
    (bits.max(MIN_SIZE_LOG2) - MIN_SIZE_LOG2) as usize
}

/// Returns the object size (bytes) of size class `class`.
#[must_use]
pub fn class_object_size(class: usize) -> usize {
    1usize << (MIN_SIZE_LOG2 as usize + class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_powers_of_two() {
        assert_eq!(size_class_of(1), 0);
        assert_eq!(size_class_of(16), 0);
        assert_eq!(size_class_of(17), 1);
        assert_eq!(size_class_of(32), 1);
        assert_eq!(size_class_of(33), 2);
        assert_eq!(size_class_of(4096), 8);
    }

    #[test]
    fn class_sizes_round_trip() {
        for class in 0..12 {
            let size = class_object_size(class);
            assert_eq!(size_class_of(size), class);
            assert_eq!(size_class_of(size - 1), if size == 16 { 0 } else { class });
        }
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_panics() {
        let _ = size_class_of(0);
    }
}
