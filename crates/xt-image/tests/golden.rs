//! Golden vector for the §3.4 heap-image format: one fixed image pinned
//! as hex. Images are files written by one process and read by another
//! (possibly another revision), so a codec refactor must leave every
//! byte where it is. The case checks both directions: the image encodes
//! to exactly the golden bytes, and the golden bytes decode back to it.

use proptest::golden::{assert_golden, unhex};
use std::sync::Arc;

use xt_alloc::{AllocTime, ObjectId, SiteHash};
use xt_arena::Addr;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::{MiniHeapId, SlotState};
use xt_image::{HeapImage, MiniHeapImage, SlotImage};

const IMAGE: &str = "
    474d49580100000063000000000000000df0feca000000000000e03f00000000
    0000004002000000000000000000000000100000000000000800000001000000
    00000000020000000100010100000000000000dec000000f0000000a00000000
    0000000f00000000000000060000006c69766500000000000101020000000000
    0000dec000000f00000014000000000000001900000000000000060000000df0
    feca0df0feca0100000000000000002000000000000008000000070000000000
    0000010000000200010300000000000000dec000000f0000001e000000000000
    00230000000000000006000000736d617368656421
";

fn slot(state: SlotState, id: u64, data: [u8; 8]) -> SlotImage {
    SlotImage {
        state,
        object_id: ObjectId::from_raw(id),
        alloc_site: SiteHash::from_raw(0xC0DE),
        free_site: SiteHash::from_raw(0xF),
        alloc_time: AllocTime::from_raw(id * 10),
        free_time: AllocTime::from_raw(id * 10 + 5),
        canaried: state == SlotState::Free,
        ever_used: true,
        requested: 6,
        data: Arc::from(&data[..]),
    }
}

/// A fixed image, independent of allocator placement: an empty heap's
/// capture with every public field overwritten. Two miniheaps, all three
/// slot states.
fn image() -> HeapImage {
    let mut image = HeapImage::capture(&DieFastHeap::new(DieFastConfig::with_seed(1)));
    image.clock = AllocTime::from_raw(99);
    image.canary = 0xCAFE_F00D;
    image.fill_probability = 0.5;
    image.multiplier = 2.0;
    image.miniheaps = vec![
        MiniHeapImage {
            id: MiniHeapId::new(0, 0),
            base: Addr::new(0x1000),
            object_size: 8,
            created_at: AllocTime::from_raw(1),
            slots: vec![
                slot(SlotState::Live, 1, *b"live\0\0\0\0"),
                slot(
                    SlotState::Free,
                    2,
                    [0x0D, 0xF0, 0xFE, 0xCA, 0x0D, 0xF0, 0xFE, 0xCA],
                ),
            ],
        },
        MiniHeapImage {
            id: MiniHeapId::new(1, 0),
            base: Addr::new(0x2000),
            object_size: 8,
            created_at: AllocTime::from_raw(7),
            slots: vec![slot(SlotState::Bad, 3, *b"smashed!")],
        },
    ];
    image
}

#[test]
fn heap_image_bytes_are_pinned() {
    let image = image();
    assert_golden("heap image", &image.to_bytes(), IMAGE);
    let decoded = HeapImage::from_bytes(&unhex(IMAGE)).unwrap();
    assert_eq!(decoded, image);
    assert!(decoded.find_object(ObjectId::from_raw(3)).is_some());
}
