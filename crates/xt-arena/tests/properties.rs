//! Property tests for the simulated address space.
//!
//! Besides direct invariants, these tests pin the page-table/TLB arena to
//! the *observable semantics* of the original `BTreeMap` implementation:
//! a naive reference model (linear scan over `(base, bytes)` pairs) is
//! driven in lockstep through random map/unmap/access interleavings, and
//! every result — data read, fault classification (`Unmapped` vs
//! `OutOfBounds`), all-or-nothing writes, guard-page faults — must agree.
//! `Arena::dirty_pages` must list exactly the model's mapped pages.

use std::collections::BTreeSet;

use proptest::prelude::*;

use xt_arena::{Addr, Arena, MemFault, Rng, PAGE_SIZE};

/// The reference semantics: a flat list of regions, searched linearly.
#[derive(Default)]
struct ModelArena {
    regions: Vec<(u64, Vec<u8>)>,
}

/// What the model says an access should observe.
#[derive(Debug, PartialEq, Eq)]
enum ModelAccess {
    Ok,
    Unmapped,
    OutOfBounds,
}

impl ModelArena {
    fn map(&mut self, base: Addr, len: usize) {
        self.regions.push((base.get(), vec![0u8; len]));
    }

    fn unmap(&mut self, base: Addr) -> bool {
        let Some(pos) = self.regions.iter().position(|&(b, _)| b == base.get()) else {
            return false;
        };
        self.regions.swap_remove(pos);
        true
    }

    /// Every mapped page's base address, in address order.
    fn mapped_pages(&self) -> Vec<Addr> {
        let mut pages: Vec<Addr> = self
            .regions
            .iter()
            .flat_map(|&(base, ref data)| {
                (0..data.len() / PAGE_SIZE).map(move |p| Addr::new(base + (p * PAGE_SIZE) as u64))
            })
            .collect();
        pages.sort_unstable();
        pages
    }

    fn classify(&self, addr: Addr, len: usize) -> ModelAccess {
        let raw = addr.get();
        for &(base, ref data) in &self.regions {
            if raw >= base && raw < base + data.len() as u64 {
                return if raw + len as u64 <= base + data.len() as u64 {
                    ModelAccess::Ok
                } else {
                    ModelAccess::OutOfBounds
                };
            }
        }
        ModelAccess::Unmapped
    }

    fn write(&mut self, addr: Addr, bytes: &[u8]) -> ModelAccess {
        let verdict = self.classify(addr, bytes.len());
        if verdict == ModelAccess::Ok {
            let raw = addr.get();
            for &mut (base, ref mut data) in &mut self.regions {
                if raw >= base && raw < base + data.len() as u64 {
                    let off = (raw - base) as usize;
                    data[off..off + bytes.len()].copy_from_slice(bytes);
                }
            }
        }
        verdict
    }

    fn read(&self, addr: Addr, len: usize) -> Result<&[u8], ModelAccess> {
        match self.classify(addr, len) {
            ModelAccess::Ok => {
                let raw = addr.get();
                let (base, data) = self
                    .regions
                    .iter()
                    .find(|&&(base, ref data)| raw >= base && raw < base + data.len() as u64)
                    .expect("classified Ok");
                let off = (raw - base) as usize;
                Ok(&data[off..off + len])
            }
            verdict => Err(verdict),
        }
    }
}

fn classify_fault(result: Result<(), MemFault>) -> ModelAccess {
    match result {
        Ok(()) => ModelAccess::Ok,
        Err(MemFault::Unmapped { .. }) => ModelAccess::Unmapped,
        Err(MemFault::OutOfBounds { .. }) => ModelAccess::OutOfBounds,
        Err(MemFault::ExhaustedAddressSpace { .. }) => {
            panic!("access returned a mapping fault")
        }
    }
}

/// One step of a randomized arena script.
#[derive(Clone, Debug)]
enum ArenaOp {
    /// Map a fresh region of 1–3 pages.
    Map(usize),
    /// Unmap the nth live region (modulo count).
    UnmapNth(usize),
    /// Write a byte pattern at an offset relative to the nth region's
    /// base; offsets may run past the region end or into guard pages.
    Write(usize, usize, u8, usize),
    /// Read relative to the nth region's base.
    Read(usize, usize, usize),
    /// Read at an absolute (mostly unmapped) address.
    ReadAbs(u64, usize),
    /// Bulk-fill relative to the nth region's base.
    Fill(usize, usize, u8, usize),
}

fn arena_op() -> impl Strategy<Value = ArenaOp> {
    prop_oneof![
        (1usize..3 * PAGE_SIZE).prop_map(ArenaOp::Map),
        (0usize..16).prop_map(ArenaOp::UnmapNth),
        (0usize..16, 0usize..PAGE_SIZE + 64, any::<u8>(), 1usize..96)
            .prop_map(|(n, off, fill, len)| ArenaOp::Write(n, off, fill, len)),
        (0usize..16, 0usize..PAGE_SIZE + 64, 1usize..96)
            .prop_map(|(n, off, len)| ArenaOp::Read(n, off, len)),
        (0u64..0x8000_0000_0000, 1usize..64).prop_map(|(a, l)| ArenaOp::ReadAbs(a, l)),
        (
            0usize..16,
            0usize..PAGE_SIZE + 64,
            any::<u8>(),
            1usize..2 * PAGE_SIZE
        )
            .prop_map(|(n, off, fill, len)| ArenaOp::Fill(n, off, fill, len)),
    ]
}

proptest! {
    /// Whatever bytes go in come back out, at any in-bounds offset.
    #[test]
    fn write_read_round_trip(
        seed in 0u64..1000,
        offset in 0usize..4000,
        data in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        prop_assume!(offset + data.len() <= PAGE_SIZE);
        arena.write_bytes(base + offset as u64, &data).unwrap();
        prop_assert_eq!(arena.read_bytes(base + offset as u64, data.len()).unwrap(), &data[..]);
    }

    /// Any access crossing the end of a mapping faults and leaves memory
    /// untouched.
    #[test]
    fn out_of_bounds_faults_cleanly(
        seed in 0u64..1000,
        overshoot in 1usize..64,
        len in 1usize..64,
    ) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        let start = base + (PAGE_SIZE + overshoot - len.min(overshoot)) as u64;
        let result = arena.write_bytes(start, &vec![0xAB; len]);
        prop_assert!(result.is_err());
        // The mapped prefix (if any) must be unmodified (all-or-nothing).
        let mapped_prefix = PAGE_SIZE.saturating_sub((start - base) as usize);
        if mapped_prefix > 0 && mapped_prefix < len {
            let tail = arena.read_bytes(start, mapped_prefix).unwrap();
            prop_assert!(tail.iter().all(|&b| b == 0), "partial write leaked");
        }
    }

    /// Randomly placed regions never overlap, pairwise, including guard
    /// pages.
    #[test]
    fn mappings_never_overlap(seed in 0u64..500, sizes in proptest::collection::vec(1usize..40_000, 2..12)) {
        let mut arena = Arena::new();
        let mut rng = Rng::new(seed);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for len in sizes {
            let base = arena.map(len, &mut rng);
            let (actual_base, actual_len) = arena.region_of(base).unwrap();
            prop_assert_eq!(actual_base, base);
            spans.push((base.get(), base.get() + actual_len as u64));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 + PAGE_SIZE as u64 <= w[1].0, "overlap or missing guard");
        }
    }

    /// `fill_pattern_u32` writes exactly the repeating pattern.
    #[test]
    fn fill_pattern_is_exact(seed in 0u64..500, pattern in any::<u32>(), len in 1usize..256) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        arena.fill_pattern_u32(base, len, pattern).unwrap();
        let bytes = arena.read_bytes(base, len).unwrap();
        let expect = pattern.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(b, expect[i % 4]);
        }
    }

    /// Unmapped addresses always fault with `Unmapped`.
    #[test]
    fn unmapped_reads_fault(addr in 0u64..0x0000_1000_0000) {
        let arena = Arena::new();
        let faulted = matches!(
            arena.read_u8(xt_arena::Addr::new(addr)),
            Err(MemFault::Unmapped { .. })
        );
        prop_assert!(faulted);
    }

    /// The page-table arena is observably equivalent to the reference
    /// semantics under arbitrary map/unmap/access interleavings: identical
    /// data, identical `Unmapped` vs `OutOfBounds` classification, and
    /// all-or-nothing writes.
    #[test]
    fn equivalent_to_reference_model(
        seed in 0u64..10_000,
        ops in proptest::collection::vec(arena_op(), 1..120),
    ) {
        let mut arena = Arena::new();
        let mut model = ModelArena::default();
        let mut rng = Rng::new(seed);
        let mut bases: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                ArenaOp::Map(len) => {
                    let base = arena.map(len, &mut rng);
                    let (b, actual_len) = arena.region_of(base).expect("fresh mapping resolves");
                    prop_assert_eq!(b, base);
                    model.map(base, actual_len);
                    bases.push(base);
                }
                ArenaOp::UnmapNth(n) => {
                    if bases.is_empty() { continue; }
                    let base = bases.swap_remove(n % bases.len());
                    prop_assert!(arena.unmap(base).is_ok());
                    prop_assert!(model.unmap(base));
                    // Unmapped base faults identically in both.
                    prop_assert_eq!(
                        classify_fault(arena.read_bytes(base, 1).map(|_| ())),
                        ModelAccess::Unmapped
                    );
                }
                ArenaOp::Write(n, off, fill, len) => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    let bytes = vec![fill; len];
                    let got = classify_fault(arena.write_bytes(addr, &bytes));
                    let want = model.write(addr, &bytes);
                    prop_assert_eq!(&got, &want, "write at +{} len {}: {:?} vs {:?}", off, len, got, want);
                    if got != ModelAccess::Ok {
                        // All-or-nothing: the mapped prefix, if any, must be
                        // untouched, which the full-region compare below
                        // (after the loop) also enforces continuously.
                        prop_assert!(got == ModelAccess::Unmapped || got == ModelAccess::OutOfBounds);
                    }
                }
                ArenaOp::Read(n, off, len) => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    match (arena.read_bytes(addr, len), model.read(addr, len)) {
                        (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                        (Err(fault), Err(want)) => {
                            prop_assert_eq!(classify_fault(Err(fault)), want);
                        }
                        (got, want) => {
                            return Err(TestCaseError::Fail(format!(
                                "read at +{off} len {len} diverged: {got:?} vs {want:?}"
                            )));
                        }
                    }
                }
                ArenaOp::ReadAbs(raw, len) => {
                    let addr = Addr::new(raw);
                    let got = classify_fault(arena.read_bytes(addr, len).map(|_| ()));
                    let want = model.classify(addr, len);
                    prop_assert_eq!(got, want);
                }
                ArenaOp::Fill(n, off, fill, len) => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    let got = classify_fault(arena.fill(addr, len, fill));
                    let want = model.write(addr, &vec![fill; len]);
                    prop_assert_eq!(got, want);
                }
            }
            // Continuous full-state equivalence: every region's bytes match
            // the model byte-for-byte (this is what makes faulting writes
            // provably all-or-nothing across the whole interleaving).
            for &base in &bases {
                let (b, len) = arena.region_of(base).expect("live region resolves");
                prop_assert_eq!(b, base);
                prop_assert_eq!(
                    arena.read_bytes(base, len).unwrap(),
                    model.read(base, len).unwrap()
                );
            }
            prop_assert_eq!(arena.regions().count(), bases.len());
            // `dirty_pages` is every mapped page: mapping adds a region's
            // pages, unmapping removes them, and accesses change nothing.
            prop_assert_eq!(arena.dirty_pages(), model.mapped_pages());
        }
    }

    /// Bulk and per-byte stores alike leave `dirty_pages` listing every
    /// mapped page, and `reset` leaves a reused arena with no stale pages.
    #[test]
    fn bulk_stores_dirty_like_scalar_stores(
        off in 0usize..3 * PAGE_SIZE,
        len in 0usize..2 * PAGE_SIZE,
        pattern in any::<u32>(),
        which in 0usize..3,
    ) {
        let total = 4 * PAGE_SIZE;
        prop_assume!(off + len.max(1) <= total);
        let base = Addr::new(0x1000_0000);
        let mut bulk = Arena::new();
        let mut scalar = Arena::new();
        bulk.map_at(base, total).unwrap();
        scalar.map_at(base, total).unwrap();
        let addr = base + off as u64;
        match which {
            0 => bulk.fill(addr, len, 0xAA).unwrap(),
            1 => bulk.fill_pattern_u32(addr, len, pattern).unwrap(),
            _ => bulk.write_bytes(addr, &vec![0x5A; len]).unwrap(),
        }
        for i in 0..len {
            scalar.write_u8(addr + i as u64, 1).unwrap();
        }
        let mapped: Vec<Addr> = (0..4).map(|p| base + (p * PAGE_SIZE) as u64).collect();
        prop_assert_eq!(bulk.dirty_pages(), mapped.clone());
        prop_assert_eq!(scalar.dirty_pages(), mapped);
        bulk.reset();
        prop_assert!(bulk.dirty_pages().is_empty(), "stale pages on a reused arena");
        bulk.map_at(base, PAGE_SIZE).unwrap();
        prop_assert_eq!(bulk.dirty_pages(), vec![base]);
    }

    /// Guard pages: the page on either side of any mapping is unmapped, so
    /// one-past-the-end and one-before accesses fault as `Unmapped` (after
    /// an `OutOfBounds` for ranges straddling the boundary).
    #[test]
    fn guard_pages_fault(seed in 0u64..2000, lens in proptest::collection::vec(1usize..3 * PAGE_SIZE, 1..8)) {
        let mut arena = Arena::new();
        let mut rng = Rng::new(seed);
        for len in lens {
            let base = arena.map(len, &mut rng);
            let (_, actual_len) = arena.region_of(base).unwrap();
            let end = base + actual_len as u64;
            prop_assert!(matches!(
                arena.read_u8(end),
                Err(MemFault::Unmapped { .. })
            ));
            prop_assert!(matches!(
                arena.read_u8(base - 1),
                Err(MemFault::Unmapped { .. })
            ));
            // Straddling the end is OutOfBounds (start is mapped).
            prop_assert!(matches!(
                arena.read_bytes(end - 1, 2),
                Err(MemFault::OutOfBounds { .. })
            ));
        }
    }

    /// Bulk APIs agree with their scalar equivalents.
    #[test]
    fn bulk_apis_match_scalar_semantics(
        seed in 0u64..2000,
        pattern in any::<u32>(),
        len in 1usize..512,
        corrupt_at in 0usize..512,
    ) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        arena.fill_pattern_u32(base, len, pattern).unwrap();
        prop_assert_eq!(arena.compare_pattern(base, len, pattern).unwrap(), None);
        // copy_out sees exactly what read_bytes sees.
        let mut buf = vec![0u8; len];
        arena.copy_out(base, &mut buf).unwrap();
        prop_assert_eq!(&buf[..], arena.read_bytes(base, len).unwrap());
        // region_snapshot exposes the same bytes.
        let (snap_base, snap) = arena.region_snapshot(base).unwrap();
        prop_assert_eq!(snap_base, base);
        prop_assert_eq!(&snap[..len], &buf[..]);
        // A single corrupted byte is located exactly.
        if corrupt_at < len {
            let original = arena.read_u8(base + corrupt_at as u64).unwrap();
            arena.write_u8(base + corrupt_at as u64, original ^ 0xFF).unwrap();
            prop_assert_eq!(
                arena.compare_pattern(base, len, pattern).unwrap(),
                Some(corrupt_at)
            );
        }
    }

    /// `region_id` contract: every address of a live region (and only
    /// those) resolves to that region's id; ids are dense, stable while
    /// the region stays mapped, handed back out after unmap before any
    /// new id is minted, and restart at 0 after `reset`.
    #[test]
    fn region_ids_are_dense_stable_and_reused(
        seed in 0u64..10_000,
        ops in proptest::collection::vec((0u8..10, 0usize..16, 1usize..3 * PAGE_SIZE), 1..120),
    ) {
        let mut arena = Arena::new();
        let mut rng = Rng::new(seed);
        // Live regions as (base, len, id), the freed ids, and the next
        // never-used id.
        let mut live: Vec<(Addr, usize, usize)> = Vec::new();
        let mut freed: BTreeSet<usize> = BTreeSet::new();
        let mut minted = 0usize;
        for (kind, n, len) in ops {
            match kind {
                0..=5 => {
                    let base = arena.map(len, &mut rng);
                    let (_, len) = arena.region_of(base).expect("fresh mapping resolves");
                    let id = arena.region_id(base).expect("fresh mapping has an id");
                    if freed.is_empty() {
                        prop_assert_eq!(id, minted, "a new id must be the next dense one");
                        minted += 1;
                    } else {
                        prop_assert!(freed.remove(&id), "id {} minted while {:?} were free", id, freed);
                    }
                    live.push((base, len, id));
                }
                6..=8 => {
                    if live.is_empty() { continue; }
                    let (base, _, id) = live.swap_remove(n % live.len());
                    arena.unmap(base).unwrap();
                    prop_assert_eq!(arena.region_id(base), None);
                    freed.insert(id);
                }
                _ => {
                    arena.reset();
                    live.clear();
                    freed.clear();
                    minted = 0;
                }
            }
            let mut ids: Vec<usize> = live.iter().map(|&(_, _, id)| id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), live.len(), "two live regions share an id");
            prop_assert!(ids.iter().all(|&id| id < minted), "ids are not dense");
            for &(base, len, id) in &live {
                let end = base + len as u64;
                for addr in [base, base + len as u64 / 2, end - 1] {
                    prop_assert_eq!(arena.region_id(addr), Some(id));
                }
                prop_assert_eq!(arena.region_id(end), None, "guard page after {}", base);
                prop_assert_eq!(arena.region_id(base - 1), None, "guard page before {}", base);
            }
        }
    }
}
