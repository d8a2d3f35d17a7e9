//! Property tests for heap images: capture fidelity and serialization.

use proptest::prelude::*;

use xt_alloc::{Heap, ObjectId, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_image::{HeapImage, ImageDecodeError};

/// Applies `steps` random malloc/free/store steps to `heap`.
fn churn(heap: &mut DieFastHeap, rng: &mut Rng, live: &mut Vec<xt_arena::Addr>, steps: usize) {
    for i in 0..steps {
        if !live.is_empty() && rng.chance(0.4) {
            let victim: xt_arena::Addr = live.swap_remove(rng.below_usize(live.len()));
            heap.free(victim, SiteHash::from_raw(0xF));
        } else {
            let size = 16 + rng.below_usize(200);
            let p = heap
                .malloc(size, SiteHash::from_raw(i as u32 % 13))
                .unwrap();
            heap.arena_mut().write_u64(p, i as u64).unwrap();
            live.push(p);
        }
    }
}

/// Builds a heap with a random (seed-driven) churn history.
fn churned_heap(seed: u64, steps: usize, fill_probability: f64) -> DieFastHeap {
    let mut heap =
        DieFastHeap::new(DieFastConfig::with_seed(seed).fill_probability(fill_probability));
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut live = Vec::new();
    churn(&mut heap, &mut rng, &mut live, steps);
    heap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary encoding round-trips arbitrary heap states exactly,
    /// including the rebuilt object index, and the decoder survives the
    /// workspace's corruption harness: truncated and byte-mutated images
    /// never panic (nor abort on a hostile count) and every rejection
    /// names an offset inside the file.
    #[test]
    fn binary_round_trip(seed in 0u64..5000, steps in 10usize..150, p in 0.0f64..=1.0) {
        let heap = churned_heap(seed, steps, p);
        let image = HeapImage::capture(&heap);
        let bytes = image.to_bytes();
        proptest::corrupt::check_decoder(
            &bytes,
            &image,
            HeapImage::from_bytes,
            |e: &ImageDecodeError| Some(e.offset()),
            seed,
        )?;
        let decoded = HeapImage::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &image);
        for id in 1..=steps as u64 {
            prop_assert_eq!(decoded.find_object(ObjectId::from_raw(id)), image.find_object(ObjectId::from_raw(id)));
        }
    }

    /// Every *live* object is findable by id (freed ids may vanish when
    /// their slot is recycled), and the index is consistent for every slot
    /// that ever held an object.
    #[test]
    fn capture_indexes_every_live_object(seed in 0u64..5000, steps in 10usize..120) {
        let heap = churned_heap(seed, steps, 1.0);
        let image = HeapImage::capture(&heap);
        for (r, slot) in image.live_objects() {
            prop_assert_eq!(image.find_object(slot.object_id), Some(r));
        }
        for (_, slot) in image.slots() {
            if slot.ever_used {
                let found = image.find_object(slot.object_id).unwrap();
                prop_assert_eq!(image.slot(found).object_id, slot.object_id);
            }
        }
        prop_assert!(image.clock.raw() >= 1);
        let _ = ObjectId::from_raw(1);
    }

    /// Address resolution agrees with slot geometry for every slot.
    #[test]
    fn resolution_matches_geometry(seed in 0u64..5000, steps in 10usize..100) {
        let heap = churned_heap(seed, steps, 1.0);
        let image = HeapImage::capture(&heap);
        for (r, slot) in image.slots() {
            let base = image.slot_addr(r);
            let hit = image.resolve_addr(base).unwrap();
            prop_assert_eq!(hit.slot, r);
            prop_assert_eq!(hit.offset, 0);
            prop_assert_eq!(hit.object_id, slot.object_id);
        }
    }

    /// A clean heap never shows canary corruption, at any fill rate.
    #[test]
    fn clean_heaps_scan_clean(seed in 0u64..5000, steps in 10usize..150, p in 0.0f64..=1.0) {
        let heap = churned_heap(seed, steps, p);
        let image = HeapImage::capture(&heap);
        prop_assert!(image.scan_canary_corruptions().is_empty());
    }

    /// An incremental capture against any earlier image of the same heap is
    /// byte-identical to a full capture, no matter how much churn happened
    /// in between — the equality that makes dirty-page splicing safe to use
    /// anywhere a full capture was used.
    #[test]
    fn incremental_capture_is_byte_identical_to_full(
        seed in 0u64..5000,
        steps in 5usize..80,
        extra in 0usize..80,
        p in 0.0f64..=1.0,
    ) {
        let mut heap = DieFastHeap::new(DieFastConfig::with_seed(seed).fill_probability(p));
        let mut rng = Rng::new(seed ^ 0x5EED);
        let mut live = Vec::new();
        churn(&mut heap, &mut rng, &mut live, steps);
        let base = HeapImage::capture(&heap); // clears dirty bits → baseline
        churn(&mut heap, &mut rng, &mut live, extra);
        // Incremental before full: every capture clears the dirty bits it
        // consumed, so the full capture here must come second.
        let inc = HeapImage::capture_incremental(&base, &heap);
        let full = HeapImage::capture(&heap);
        prop_assert_eq!(&inc, &full);
        // Captures leave no dirty pages behind (they are the new baseline).
        prop_assert!(heap.arena().dirty_pages().is_empty());
        // Spliced (shared) slot buffers serialize by content like any other.
        prop_assert_eq!(&HeapImage::from_bytes(&inc.to_bytes()).unwrap(), &inc);
    }

    /// Any single corrupted byte in a canaried slot is found by the scan
    /// with its exact location.
    #[test]
    fn scan_finds_planted_corruption(seed in 0u64..5000, offset in 0usize..16, flip in 1u8..=255) {
        let mut heap = DieFastHeap::new(DieFastConfig::with_seed(seed));
        let p = heap.malloc(16, SiteHash::from_raw(1)).unwrap();
        heap.free(p, SiteHash::from_raw(2));
        let original = heap.arena().read_u8(p + offset as u64).unwrap();
        heap.arena_mut().write_u8(p + offset as u64, original ^ flip).unwrap();
        let image = HeapImage::capture(&heap);
        let corruptions = image.scan_canary_corruptions();
        prop_assert_eq!(corruptions.len(), 1);
        prop_assert_eq!(corruptions[0].first_bad, offset);
        prop_assert_eq!(corruptions[0].n_bad, 1);
    }
}
