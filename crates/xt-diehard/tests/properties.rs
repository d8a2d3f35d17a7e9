//! Property tests for the DieHard allocator's invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use xt_alloc::{FreeOutcome, Heap, Rng, SiteHash, PAGE_SIZE};
use xt_arena::Addr;
use xt_diehard::{class_object_size, size_class_of, DieHardConfig, DieHardHeap, MiniHeap};

/// Reference model for pointer resolution: every miniheap keyed by base
/// address, resolved by an address-ordered range query — the obvious
/// semantics the heap's page-table lookup must reproduce.
struct LookupModel<'h> {
    by_base: BTreeMap<u64, &'h MiniHeap>,
}

impl<'h> LookupModel<'h> {
    fn new(heap: &'h DieHardHeap) -> Self {
        LookupModel {
            by_base: heap.miniheaps().map(|mh| (mh.base().get(), mh)).collect(),
        }
    }

    fn miniheap(&self, addr: Addr) -> Option<&'h MiniHeap> {
        let (_, &mh) = self.by_base.range(..=addr.get()).next_back()?;
        (addr < mh.end()).then_some(mh)
    }

    /// `(class, miniheap ordinal, slot)` of the slot based exactly at `addr`.
    fn location_of(&self, addr: Addr) -> Option<(usize, usize, usize)> {
        let mh = self.miniheap(addr)?;
        let slot = mh.slot_of(addr)?;
        Some((mh.id().class as usize, mh.id().index as usize, slot))
    }

    /// `(class, miniheap ordinal, slot)` of the slot containing `addr`.
    fn location_containing(&self, addr: Addr) -> Option<(usize, usize, usize)> {
        let mh = self.miniheap(addr)?;
        let slot = mh.slot_containing(addr)?;
        Some((mh.id().class as usize, mh.id().index as usize, slot))
    }

    fn live_meta(&self, addr: Addr) -> Option<(usize, SiteHash)> {
        let mh = self.miniheap(addr)?;
        let meta = mh.meta(mh.slot_of(addr)?);
        meta.is_live().then(|| (mh.object_size(), meta.alloc_site))
    }
}

/// Every address class the lookup must answer for, around every miniheap
/// and foreign region: slot bases, interiors, the page-rounding tail past
/// `end()`, guard pages on both sides, below the lowest base, and a few
/// arbitrary (mostly unmapped) addresses.
fn probe_addresses(heap: &DieHardHeap, foreign: &[Addr], rng: &mut Rng) -> Vec<Addr> {
    let mut probes = vec![Addr::new(0), Addr::new(0x10), Addr::new(0x0fff_ffff)];
    let page = PAGE_SIZE as u64;
    for mh in heap.miniheaps() {
        let size = mh.object_size() as u64;
        for slot in 0..mh.n_slots().min(64) {
            let base = mh.slot_addr(slot);
            probes.extend([base, base + 1, base + size / 2, base + size - 1]);
        }
        let last = mh.slot_addr(mh.n_slots() - 1);
        let (region, len) = heap.arena().region_of(mh.base()).expect("miniheap mapped");
        let region_end = region + len as u64;
        probes.extend([last, last + size - 1, mh.end(), mh.end() + 1]);
        probes.extend([region_end - 1, region_end, region_end + page - 1]);
        probes.extend([mh.base() - 1, mh.base() - page]);
    }
    for &base in foreign {
        probes.extend([base, base + 8, base + page - 1, base - 1, base + page]);
    }
    if let Some(lowest) = heap.miniheaps().map(MiniHeap::base).min() {
        probes.extend([lowest - 1, lowest - 2 * page]);
    }
    for _ in 0..32 {
        probes.push(Addr::new(rng.below(0x8000_0000_0000)));
    }
    probes
}

/// A randomized malloc/free script.
#[derive(Clone, Debug)]
enum Op {
    Malloc(usize),
    FreeNth(usize),
    DoubleFreeNth(usize),
    WildFree(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..512).prop_map(Op::Malloc),
        (0usize..64).prop_map(Op::FreeNth),
        (0usize..64).prop_map(Op::DoubleFreeNth),
        (0u64..u64::MAX / 2).prop_map(Op::WildFree),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary scripts: live objects never alias, data written to
    /// one object is never visible in another, occupancy respects the 1/M
    /// bound, and invalid/double frees are always benign.
    #[test]
    fn allocator_invariants_hold(seed in 0u64..10_000, ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let site = SiteHash::from_raw(1);
        let mut live: Vec<(Addr, usize, u64)> = Vec::new();
        let mut freed: Vec<Addr> = Vec::new();
        let mut stamp = 0u64;

        for op in ops {
            match op {
                Op::Malloc(size) => {
                    let ptr = heap.malloc(size, site).unwrap();
                    // No overlap with any live object.
                    for &(other, other_size, _) in &live {
                        let sep = ptr >= other + class_object_size(size_class_of(other_size)) as u64
                            || other >= ptr + class_object_size(size_class_of(size)) as u64;
                        prop_assert!(sep, "objects alias: {ptr} vs {other}");
                    }
                    stamp += 1;
                    heap.arena_mut().write_u64(ptr, stamp).unwrap();
                    if size >= 16 {
                        heap.arena_mut().write_u64(ptr + (size - 8) as u64, stamp).unwrap();
                    }
                    live.push((ptr, size, stamp));
                }
                Op::FreeNth(n) => {
                    if live.is_empty() { continue; }
                    let (ptr, _, _) = live.swap_remove(n % live.len());
                    prop_assert_eq!(heap.free(ptr, site), FreeOutcome::Freed);
                    freed.push(ptr);
                }
                Op::DoubleFreeNth(n) => {
                    if freed.is_empty() { continue; }
                    let ptr = freed[n % freed.len()];
                    // Slot may have been reused; either way the heap
                    // survives and live data stays intact (checked below).
                    let _ = heap.free(ptr, site);
                    live.retain(|&(p, _, _)| p != ptr);
                }
                Op::WildFree(raw) => {
                    // Wild frees never free a live object out from under us
                    // unless they happen to hit an exact live base (the
                    // allocator cannot distinguish that from a real free).
                    let addr = Addr::new(raw);
                    if live.iter().all(|&(p, _, _)| p != addr) {
                        let out = heap.free(addr, site);
                        prop_assert!(
                            out == FreeOutcome::InvalidFreeIgnored
                                || out == FreeOutcome::DoubleFreeIgnored,
                            "wild free was honoured: {out:?}"
                        );
                    }
                }
            }
            // Occupancy bound: every class stays within 1/M (+1 slot).
            prop_assert!(
                heap.total_occupied() as f64 * 2.0 <= heap.total_capacity() as f64 + 2.0,
                "over-occupied: {}/{}", heap.total_occupied(), heap.total_capacity()
            );
        }
        // All live data still intact at the end.
        for &(ptr, size, stamp) in &live {
            prop_assert_eq!(heap.arena().read_u64(ptr).unwrap(), stamp);
            if size >= 16 {
                prop_assert_eq!(heap.arena().read_u64(ptr + (size - 8) as u64).unwrap(), stamp);
            }
        }
        prop_assert_eq!(heap.live_objects(), live.len());
    }

    /// The same seed and script always produce the same addresses
    /// (replay determinism — the foundation of iterative mode).
    #[test]
    fn identical_seeds_replay_identically(seed in 0u64..10_000, sizes in proptest::collection::vec(1usize..256, 1..60)) {
        let mut a = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let mut b = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let site = SiteHash::from_raw(2);
        for &size in &sizes {
            prop_assert_eq!(a.malloc(size, site).unwrap(), b.malloc(size, site).unwrap());
        }
    }

    /// Two different seeds rarely agree on placement (full randomization).
    #[test]
    fn different_seeds_place_differently(seed in 0u64..10_000) {
        let mut a = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let mut b = DieHardHeap::new(DieHardConfig::with_seed(seed ^ 0xFFFF_FFFF));
        let site = SiteHash::from_raw(3);
        let same = (0..32)
            .filter(|_| a.malloc(16, site).unwrap() == b.malloc(16, site).unwrap())
            .count();
        prop_assert!(same < 4, "{same}/32 identical placements across seeds");
    }

    /// Object ids equal the allocation ordinal regardless of script.
    #[test]
    fn object_ids_are_ordinals(seed in 0u64..10_000, n in 1usize..80) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let site = SiteHash::from_raw(4);
        let mut rng = Rng::new(seed);
        let mut ptrs = Vec::new();
        for i in 1..=n as u64 {
            let ptr = heap.malloc(16 + rng.below_usize(64), site).unwrap();
            let loc = heap.location_of(ptr).unwrap();
            prop_assert_eq!(heap.meta(loc).object_id.raw(), i);
            ptrs.push(ptr);
            if rng.chance(0.3) {
                let victim = ptrs.swap_remove(rng.below_usize(ptrs.len()));
                heap.free(victim, site);
            }
        }
    }

    /// The page-table lookup behind `location_of`, `location_containing`,
    /// `usable_size` and `alloc_site_of` agrees with an address-ordered
    /// range lookup over heaps grown across several size classes, with
    /// foreign regions mapped directly on the arena in between.
    #[test]
    fn page_table_lookup_matches_range_lookup(
        seed in 0u64..10_000,
        sizes in proptest::collection::vec(1usize..2048, 1..160),
        foreign_every in 3usize..40,
    ) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let mut rng = Rng::new(seed ^ 0x5EED);
        let mut live = Vec::new();
        let mut foreign = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            if i % foreign_every == 0 {
                let len = (1 + rng.below_usize(3)) * PAGE_SIZE;
                foreign.push(heap.arena_mut().map(len, &mut rng));
            }
            let site = SiteHash::from_raw(i as u32 + 1);
            live.push(heap.malloc(size, site).unwrap());
            if rng.chance(0.3) {
                let victim = live.swap_remove(rng.below_usize(live.len()));
                prop_assert_eq!(heap.free(victim, site), FreeOutcome::Freed);
            }
        }
        let model = LookupModel::new(&heap);
        for addr in probe_addresses(&heap, &foreign, &mut rng) {
            let triple = |loc: xt_diehard::SlotRef| (loc.class(), loc.miniheap_index(), loc.slot());
            prop_assert_eq!(heap.location_of(addr).map(triple), model.location_of(addr), "location_of({})", addr);
            prop_assert_eq!(
                heap.location_containing(addr).map(triple),
                model.location_containing(addr),
                "location_containing({})", addr
            );
            let want = model.live_meta(addr);
            prop_assert_eq!(heap.usable_size(addr), want.map(|m| m.0), "usable_size({})", addr);
            prop_assert_eq!(heap.alloc_site_of(addr), want.map(|m| m.1), "alloc_site_of({})", addr);
        }
    }
}
