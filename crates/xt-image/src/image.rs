//! The heap image structure, capture, and (de)serialization.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use xt_alloc::{AllocTime, Heap, ObjectId, SiteHash};
use xt_arena::{Addr, PAGE_SIZE};
use xt_diefast::DieFastHeap;
use xt_diehard::{MiniHeapId, SlotState};

use crate::{ByteReader, ByteWriter, ImageDecodeError};

const MAGIC: u32 = 0x5849_4D47; // "XIMG"
const VERSION: u32 = 1;

/// Encoded bytes of a miniheap before its slots: class, index, base,
/// object size, creation time, slot count.
const MINIHEAP_HEADER: usize = 4 + 4 + 8 + 4 + 8 + 4;

/// Encoded bytes of a slot before its `object_size` data bytes: state,
/// canary and used flags, object id, two sites, two times, request size.
const SLOT_HEADER: usize = 3 + 8 + 4 + 4 + 8 + 8 + 4;

/// Everything recorded about one object slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotImage {
    /// Life-cycle state at capture time.
    pub state: SlotState,
    /// Identity of the current or most recent occupant.
    pub object_id: ObjectId,
    /// Allocation site of that occupant.
    pub alloc_site: SiteHash,
    /// Deallocation site (meaningful if freed).
    pub free_site: SiteHash,
    /// Allocation time of the occupant.
    pub alloc_time: AllocTime,
    /// Deallocation time (meaningful if freed).
    pub free_time: AllocTime,
    /// Whether the slot was canary-filled on free (Fig. 1's canary bitset).
    pub canaried: bool,
    /// Whether the slot ever held an object.
    pub ever_used: bool,
    /// Bytes the occupant requested.
    pub requested: u32,
    /// The slot's full contents (object-size bytes). Shared (`Arc`) so
    /// incremental capture can splice an unchanged slot from the base
    /// image by reference count instead of copying it — equality still
    /// compares contents.
    pub data: Arc<[u8]>,
}

/// One miniheap's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiniHeapImage {
    /// The miniheap's identity (size class + ordinal).
    pub id: MiniHeapId,
    /// Base address of slot 0 in the source heap.
    pub base: Addr,
    /// Object size in bytes.
    pub object_size: u32,
    /// Allocation time at which the miniheap was created (`τ(M_j)`).
    pub created_at: AllocTime,
    /// All slots, in address order.
    pub slots: Vec<SlotImage>,
}

impl MiniHeapImage {
    /// Address of slot `idx` in the source heap.
    #[must_use]
    pub fn slot_addr(&self, idx: usize) -> Addr {
        self.base + (idx as u64) * u64::from(self.object_size)
    }

    /// End address (exclusive) of the slot area.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.slot_addr(self.slots.len())
    }
}

/// Position of a slot within a heap image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    /// Index into [`HeapImage::miniheaps`].
    pub miniheap: usize,
    /// Slot index within that miniheap.
    pub slot: usize,
}

/// The result of resolving a raw address against an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedAddr {
    /// The slot containing the address.
    pub slot: ObjectRef,
    /// The occupant's object id.
    pub object_id: ObjectId,
    /// Byte offset of the address within the slot.
    pub offset: u64,
    /// The slot's state.
    pub state: SlotState,
}

/// A corrupted canary found by scanning an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CanaryCorruption {
    /// The corrupted slot.
    pub slot: ObjectRef,
    /// Its base address in the source heap.
    pub addr: Addr,
    /// Identity of the slot's most recent occupant.
    pub object_id: ObjectId,
    /// Offset of the first corrupted byte within the slot.
    pub first_bad: usize,
    /// Offset one past the last corrupted byte.
    pub end_bad: usize,
    /// Number of mismatching bytes in `[first_bad, end_bad)`.
    pub n_bad: usize,
}

/// Why a heap could not be captured: the allocator's metadata named memory
/// the arena does not back. Either is the signature of corrupted heap
/// metadata (or a caller unmapping behind the allocator's back), so capture
/// reports it as a diagnosable error instead of panicking in the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureError {
    /// A miniheap's base address had no mapped region behind it.
    UnmappedMiniHeap {
        /// Identity of the miniheap.
        id: MiniHeapId,
        /// Its recorded base address.
        base: Addr,
    },
    /// A slot extended past the end of the region backing its miniheap.
    TruncatedRegion {
        /// Identity of the miniheap.
        id: MiniHeapId,
        /// Its recorded base address.
        base: Addr,
        /// Index of the slot that did not fit.
        slot: usize,
        /// Bytes of backing the slot needed, measured from the region base.
        needed: usize,
        /// Bytes the region actually has.
        region_len: usize,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::UnmappedMiniHeap { id, base } => {
                write!(f, "miniheap {id:?} at {base:?} has no mapped region")
            }
            CaptureError::TruncatedRegion {
                id,
                base,
                slot,
                needed,
                region_len,
            } => write!(
                f,
                "miniheap {id:?} at {base:?}: slot {slot} needs {needed} bytes \
                 but the backing region has {region_len}"
            ),
        }
    }
}

impl Error for CaptureError {}

/// A complete snapshot of a DieFast heap.
///
/// # Example
///
/// ```
/// use xt_alloc::{Heap, SiteHash};
/// use xt_diefast::{DieFastConfig, DieFastHeap};
/// use xt_image::HeapImage;
///
/// # fn main() -> Result<(), xt_alloc::HeapError> {
/// let mut heap = DieFastHeap::new(DieFastConfig::with_seed(3));
/// let p = heap.malloc(32, SiteHash::from_raw(0xC0DE))?;
/// heap.arena_mut().write_u64(p, 99).unwrap();
/// let image = HeapImage::capture(&heap);
/// let obj = image.find_object(xt_alloc::ObjectId::from_raw(1)).unwrap();
/// assert_eq!(&image.slot(obj).data[..8], &99u64.to_le_bytes());
/// // Images round-trip through their binary format.
/// let bytes = image.to_bytes();
/// assert_eq!(HeapImage::from_bytes(&bytes).unwrap(), image);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct HeapImage {
    /// Allocation clock at capture ("the current allocation time").
    pub clock: AllocTime,
    /// The execution's random canary value.
    pub canary: u32,
    /// DieFast's canary fill probability `p`.
    pub fill_probability: f64,
    /// The heap multiplier `M`.
    pub multiplier: f64,
    /// Every miniheap, in (class, ordinal) order.
    pub miniheaps: Vec<MiniHeapImage>,
    index: HashMap<ObjectId, ObjectRef>,
    by_base: Vec<(u64, usize)>,
}

impl PartialEq for HeapImage {
    fn eq(&self, other: &Self) -> bool {
        self.clock == other.clock
            && self.canary == other.canary
            && self.fill_probability == other.fill_probability
            && self.multiplier == other.multiplier
            && self.miniheaps == other.miniheaps
    }
}

impl HeapImage {
    /// Captures the complete state of a DieFast heap.
    ///
    /// Clears the arena's dirty-page bits: the returned image is the
    /// baseline future [`HeapImage::capture_incremental`] calls diff
    /// against.
    ///
    /// # Panics
    ///
    /// Panics on malformed heap state (see [`HeapImage::try_capture`] for
    /// the fallible form).
    #[must_use]
    pub fn capture(heap: &DieFastHeap) -> Self {
        Self::try_capture(heap).unwrap_or_else(|e| panic!("heap capture failed: {e}"))
    }

    /// Fallible form of [`HeapImage::capture`].
    ///
    /// # Errors
    ///
    /// Returns a [`CaptureError`] if a miniheap's recorded geometry names
    /// memory the arena does not back — corrupted allocator metadata
    /// surfaces here as a diagnosable error, not a panic.
    pub fn try_capture(heap: &DieFastHeap) -> Result<Self, CaptureError> {
        Self::capture_impl(heap, None)
    }

    /// Captures the heap by re-reading only slots on pages stored to since
    /// `base` was captured, splicing every other slot's bytes from `base`
    /// by reference (no copy). Byte-identical to a full
    /// [`HeapImage::capture`] of the same heap — the property tests pin
    /// this — but on a sparse-touch heap it costs a fraction of one.
    ///
    /// Slot *metadata* is always re-read (allocator state changes without
    /// touching slot memory); only the data bytes are spliced, and only
    /// when the base describes the same miniheap (same id, base, geometry,
    /// creation time). A miniheap the base does not know is captured in
    /// full, so any base — even an empty one — is correct, just slower.
    ///
    /// Clears the arena's dirty-page bits: the returned image becomes the
    /// next baseline.
    ///
    /// # Panics
    ///
    /// Panics on malformed heap state (see
    /// [`HeapImage::try_capture_incremental`] for the fallible form).
    #[must_use]
    pub fn capture_incremental(base: &HeapImage, heap: &DieFastHeap) -> Self {
        Self::try_capture_incremental(base, heap)
            .unwrap_or_else(|e| panic!("incremental heap capture failed: {e}"))
    }

    /// Fallible form of [`HeapImage::capture_incremental`].
    ///
    /// # Errors
    ///
    /// Returns a [`CaptureError`] if a miniheap's recorded geometry names
    /// memory the arena does not back.
    pub fn try_capture_incremental(
        base: &HeapImage,
        heap: &DieFastHeap,
    ) -> Result<Self, CaptureError> {
        Self::capture_impl(heap, Some(base))
    }

    fn capture_impl(heap: &DieFastHeap, base: Option<&HeapImage>) -> Result<Self, CaptureError> {
        let inner = heap.inner();
        let arena = heap.arena();
        let base_by_id: HashMap<MiniHeapId, &MiniHeapImage> = base
            .map(|b| b.miniheaps.iter().map(|m| (m.id, m)).collect())
            .unwrap_or_default();
        let mut miniheaps = Vec::new();
        for mh in inner.miniheaps() {
            // One translation for the whole miniheap: snapshot its backing
            // region and slice per-slot data out of it, instead of paying a
            // bounds-checked simulated load per slot.
            let (region_base, region) =
                arena
                    .region_snapshot(mh.base())
                    .ok_or(CaptureError::UnmappedMiniHeap {
                        id: mh.id(),
                        base: mh.base(),
                    })?;
            // Splice from the base image only if it describes this exact
            // miniheap; geometry drift (different base, size, or creation
            // time) falls back to a full re-read of every slot.
            let base_mh = base_by_id.get(&mh.id()).copied().filter(|b| {
                b.base == mh.base()
                    && b.object_size as usize == mh.object_size()
                    && b.created_at == mh.created_at()
                    && b.slots.len() == mh.n_slots()
            });
            let dirty = base_mh.map(|_| {
                let (dirty_base, flags) = arena
                    .region_dirty_pages(mh.base())
                    .expect("snapshotted region is mapped");
                debug_assert_eq!(dirty_base, region_base);
                flags
            });
            let first = (mh.base() - region_base) as usize;
            let mut slots = Vec::with_capacity(mh.n_slots());
            for idx in 0..mh.n_slots() {
                let meta = mh.meta(idx);
                let off = first + idx * mh.object_size();
                let end = off + mh.object_size();
                // A slot whose pages are all clean since the base capture
                // has byte-identical contents: share the base's buffer.
                // Out-of-range pages count as dirty so a truncated region
                // falls through to the checked slice (and its error) below.
                let clean = match (&dirty, base_mh) {
                    (Some(flags), Some(_)) => (off / PAGE_SIZE..=(end - 1) / PAGE_SIZE)
                        .all(|p| flags.get(p).is_some_and(|&d| !d)),
                    _ => false,
                };
                let data = match (clean, base_mh) {
                    (true, Some(b)) => Arc::clone(&b.slots[idx].data),
                    _ => region
                        .get(off..end)
                        .ok_or(CaptureError::TruncatedRegion {
                            id: mh.id(),
                            base: mh.base(),
                            slot: idx,
                            needed: end,
                            region_len: region.len(),
                        })?
                        .into(),
                };
                slots.push(SlotImage {
                    state: meta.state,
                    object_id: meta.object_id,
                    alloc_site: meta.alloc_site,
                    free_site: meta.free_site,
                    alloc_time: meta.alloc_time,
                    free_time: meta.free_time,
                    canaried: meta.canaried,
                    ever_used: meta.ever_used,
                    requested: meta.requested,
                    data,
                });
            }
            miniheaps.push(MiniHeapImage {
                id: mh.id(),
                base: mh.base(),
                object_size: mh.object_size() as u32,
                created_at: mh.created_at(),
                slots,
            });
        }
        // Every capture — full or incremental — is the next diff baseline.
        arena.clear_dirty();
        Ok(Self::assemble(
            heap.clock(),
            heap.canary(),
            heap.fill_probability(),
            inner.config().multiplier,
            miniheaps,
        ))
    }

    fn assemble(
        clock: AllocTime,
        canary: u32,
        fill_probability: f64,
        multiplier: f64,
        miniheaps: Vec<MiniHeapImage>,
    ) -> Self {
        let mut index = HashMap::new();
        let mut by_base: Vec<(u64, usize)> = Vec::with_capacity(miniheaps.len());
        for (mh_idx, mh) in miniheaps.iter().enumerate() {
            by_base.push((mh.base.get(), mh_idx));
            for (slot_idx, slot) in mh.slots.iter().enumerate() {
                if !slot.ever_used {
                    continue;
                }
                let r = ObjectRef {
                    miniheap: mh_idx,
                    slot: slot_idx,
                };
                // An object id can label two slots after bad-object
                // isolation (the retired slot and the live replacement);
                // prefer the live one.
                match index.entry(slot.object_id) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(r);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let existing: ObjectRef = *e.get();
                        let existing_state =
                            miniheaps[existing.miniheap].slots[existing.slot].state;
                        if slot.state == SlotState::Live && existing_state != SlotState::Live {
                            e.insert(r);
                        }
                    }
                }
            }
        }
        by_base.sort_unstable();
        HeapImage {
            clock,
            canary,
            fill_probability,
            multiplier,
            miniheaps,
            index,
            by_base,
        }
    }

    /// Finds the slot currently associated with `id` (the live slot, if the
    /// object was ever re-placed by bad-object isolation).
    #[must_use]
    pub fn find_object(&self, id: ObjectId) -> Option<ObjectRef> {
        self.index.get(&id).copied()
    }

    /// The slot at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a slot of this image.
    #[must_use]
    pub fn slot(&self, r: ObjectRef) -> &SlotImage {
        &self.miniheaps[r.miniheap].slots[r.slot]
    }

    /// The miniheap containing `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a slot of this image.
    #[must_use]
    pub fn miniheap_of(&self, r: ObjectRef) -> &MiniHeapImage {
        &self.miniheaps[r.miniheap]
    }

    /// Base address of the slot at `r` in the source heap.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a slot of this image.
    #[must_use]
    pub fn slot_addr(&self, r: ObjectRef) -> Addr {
        self.miniheaps[r.miniheap].slot_addr(r.slot)
    }

    /// Resolves a raw address (e.g. a value found inside another object) to
    /// the slot containing it. This is the basis of the isolator's
    /// pointer-equivalence test: two values are "the same logical pointer"
    /// if they resolve to the same object id and offset in their respective
    /// images (§4.1).
    #[must_use]
    pub fn resolve_addr(&self, addr: Addr) -> Option<ResolvedAddr> {
        let raw = addr.get();
        let pos = self.by_base.partition_point(|&(base, _)| base <= raw);
        let (base, mh_idx) = *self.by_base.get(pos.checked_sub(1)?)?;
        let mh = &self.miniheaps[mh_idx];
        if addr >= mh.end() {
            return None;
        }
        let off = raw - base;
        let slot_idx = (off / u64::from(mh.object_size)) as usize;
        let slot = &mh.slots[slot_idx];
        Some(ResolvedAddr {
            slot: ObjectRef {
                miniheap: mh_idx,
                slot: slot_idx,
            },
            object_id: slot.object_id,
            offset: off % u64::from(mh.object_size),
            state: slot.state,
        })
    }

    /// Iterates over all live objects as `(ref, slot)` pairs.
    pub fn live_objects(&self) -> impl Iterator<Item = (ObjectRef, &SlotImage)> {
        self.slots().filter(|(_, s)| s.state == SlotState::Live)
    }

    /// Iterates over every slot of every miniheap.
    pub fn slots(&self) -> impl Iterator<Item = (ObjectRef, &SlotImage)> {
        self.miniheaps.iter().enumerate().flat_map(|(mi, mh)| {
            mh.slots.iter().enumerate().map(move |(si, s)| {
                (
                    ObjectRef {
                        miniheap: mi,
                        slot: si,
                    },
                    s,
                )
            })
        })
    }

    /// Total number of object slots on the heap (`H` in the theorems).
    #[must_use]
    pub fn total_slots(&self) -> usize {
        self.miniheaps.iter().map(|m| m.slots.len()).sum()
    }

    /// Scans every canaried slot for bytes that differ from the canary
    /// pattern — the corruption evidence both isolation families start
    /// from. Bad slots are included: they were retired *because* their
    /// canary was corrupt.
    #[must_use]
    pub fn scan_canary_corruptions(&self) -> Vec<CanaryCorruption> {
        let pattern = self.canary.to_le_bytes();
        let mut out = Vec::new();
        for (r, slot) in self.slots() {
            if !slot.canaried || slot.state == SlotState::Live {
                continue;
            }
            let mut first_bad = None;
            let mut end_bad = 0;
            let mut n_bad = 0;
            // Word-at-a-time: whole intact words (the common case) are
            // skipped with one comparison; only corrupt words get a
            // per-byte look.
            let whole = slot.data.len() - slot.data.len() % 4;
            for (w, chunk) in slot.data[..whole].chunks_exact(4).enumerate() {
                if chunk != &pattern[..] {
                    for (j, (&b, &p)) in chunk.iter().zip(&pattern).enumerate() {
                        if b != p {
                            let i = w * 4 + j;
                            first_bad.get_or_insert(i);
                            end_bad = i + 1;
                            n_bad += 1;
                        }
                    }
                }
            }
            for (j, &b) in slot.data[whole..].iter().enumerate() {
                if b != pattern[j] {
                    let i = whole + j;
                    first_bad.get_or_insert(i);
                    end_bad = i + 1;
                    n_bad += 1;
                }
            }
            if let Some(first_bad) = first_bad {
                out.push(CanaryCorruption {
                    slot: r,
                    addr: self.slot_addr(r),
                    object_id: slot.object_id,
                    first_bad,
                    end_bad,
                    n_bad,
                });
            }
        }
        out
    }

    /// Encodes the image into its binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.clock.raw());
        w.u32(self.canary);
        w.f64(self.fill_probability);
        w.f64(self.multiplier);
        w.u32(self.miniheaps.len() as u32);
        for mh in &self.miniheaps {
            w.u32(mh.id.class);
            w.u32(mh.id.index);
            w.u64(mh.base.get());
            w.u32(mh.object_size);
            w.u64(mh.created_at.raw());
            w.u32(mh.slots.len() as u32);
            for s in &mh.slots {
                w.u8(match s.state {
                    SlotState::Free => 0,
                    SlotState::Live => 1,
                    SlotState::Bad => 2,
                });
                w.u8(u8::from(s.canaried));
                w.u8(u8::from(s.ever_used));
                w.u64(s.object_id.raw());
                w.u32(s.alloc_site.raw());
                w.u32(s.free_site.raw());
                w.u64(s.alloc_time.raw());
                w.u64(s.free_time.raw());
                w.u32(s.requested);
                w.bytes(&s.data);
            }
        }
        w.into_bytes()
    }

    /// Decodes an image from its binary format. Element counts are
    /// checked against the bytes left before anything is allocated, so
    /// a hostile count is an error, not a huge allocation.
    ///
    /// # Errors
    ///
    /// Returns an [`ImageDecodeError`] for truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ImageDecodeError> {
        let mut r = ByteReader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(ImageDecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ImageDecodeError::BadVersion { found: version });
        }
        let clock = AllocTime::from_raw(r.u64()?);
        let canary = r.u32()?;
        let fill_probability = r.f64()?;
        let multiplier = r.f64()?;
        let n_miniheaps = r.count(MINIHEAP_HEADER)?;
        let mut miniheaps = Vec::with_capacity(n_miniheaps);
        for _ in 0..n_miniheaps {
            let class = r.u32()?;
            let index = r.u32()?;
            let base = Addr::new(r.u64()?);
            let size_at = r.pos();
            let object_size = r.u32()?;
            if object_size == 0 {
                return Err(ImageDecodeError::BadField {
                    field: "object_size",
                    at: size_at,
                });
            }
            let created_at = AllocTime::from_raw(r.u64()?);
            let n_slots = r.count(SLOT_HEADER + object_size as usize)?;
            let mut slots = Vec::with_capacity(n_slots);
            for _ in 0..n_slots {
                let state_at = r.pos();
                let state = match r.u8()? {
                    0 => SlotState::Free,
                    1 => SlotState::Live,
                    2 => SlotState::Bad,
                    _ => {
                        return Err(ImageDecodeError::BadField {
                            field: "state",
                            at: state_at,
                        })
                    }
                };
                let canaried = r.u8()? != 0;
                let ever_used = r.u8()? != 0;
                let object_id = ObjectId::from_raw(r.u64()?);
                let alloc_site = SiteHash::from_raw(r.u32()?);
                let free_site = SiteHash::from_raw(r.u32()?);
                let alloc_time = AllocTime::from_raw(r.u64()?);
                let free_time = AllocTime::from_raw(r.u64()?);
                let requested = r.u32()?;
                let data: Arc<[u8]> = r.take(object_size as usize)?.into();
                slots.push(SlotImage {
                    state,
                    object_id,
                    alloc_site,
                    free_site,
                    alloc_time,
                    free_time,
                    canaried,
                    ever_used,
                    requested,
                    data,
                });
            }
            miniheaps.push(MiniHeapImage {
                id: MiniHeapId::new(class, index),
                base,
                object_size,
                created_at,
                slots,
            });
        }
        Ok(Self::assemble(
            clock,
            canary,
            fill_probability,
            multiplier,
            miniheaps,
        ))
    }

    /// Writes the image to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Reads an image previously written by [`HeapImage::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; decode failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_diefast::DieFastConfig;

    const SITE: SiteHash = SiteHash::from_raw(0x717E);

    fn heap_with_activity(seed: u64) -> DieFastHeap {
        let mut h = DieFastHeap::new(DieFastConfig::with_seed(seed));
        let mut live = Vec::new();
        for i in 0..40u64 {
            let p = h.malloc(16 + (i % 4) as usize * 24, SITE).unwrap();
            h.arena_mut().write_u64(p, i).unwrap();
            live.push(p);
        }
        for p in live.iter().step_by(3) {
            h.free(*p, SiteHash::from_raw(0xF2EE));
        }
        h
    }

    #[test]
    fn capture_indexes_all_objects() {
        let h = heap_with_activity(1);
        let img = HeapImage::capture(&h);
        for id in 1..=40u64 {
            let r = img.find_object(ObjectId::from_raw(id)).unwrap();
            assert_eq!(img.slot(r).object_id, ObjectId::from_raw(id));
        }
        assert_eq!(img.clock, AllocTime::from_raw(40));
        assert_eq!(img.canary, h.canary());
    }

    #[test]
    fn live_object_data_is_captured() {
        let h = heap_with_activity(2);
        let img = HeapImage::capture(&h);
        // Object #2 (index 1) was never freed: its first word is 1.
        let r = img.find_object(ObjectId::from_raw(2)).unwrap();
        assert_eq!(img.slot(r).state, SlotState::Live);
        assert_eq!(&img.slot(r).data[..8], &1u64.to_le_bytes());
    }

    #[test]
    fn freed_slots_record_canary_state() {
        let h = heap_with_activity(3);
        let img = HeapImage::capture(&h);
        // Object #1 was freed (step_by(3) starts at index 0) and p=1.0, so
        // its slot must be canaried and intact.
        let r = img.find_object(ObjectId::from_raw(1)).unwrap();
        let slot = img.slot(r);
        assert_eq!(slot.state, SlotState::Free);
        assert!(slot.canaried);
        assert!(img.scan_canary_corruptions().is_empty());
    }

    #[test]
    fn resolve_addr_finds_interior_pointers() {
        let h = heap_with_activity(4);
        let img = HeapImage::capture(&h);
        let r = img.find_object(ObjectId::from_raw(5)).unwrap();
        let base = img.slot_addr(r);
        let hit = img.resolve_addr(base + 7).unwrap();
        assert_eq!(hit.slot, r);
        assert_eq!(hit.offset, 7);
        assert_eq!(hit.object_id, ObjectId::from_raw(5));
        // An address in no miniheap resolves to none.
        assert_eq!(img.resolve_addr(Addr::new(0x10)), None);
    }

    #[test]
    fn resolve_addr_rejects_gap_past_miniheap() {
        let h = heap_with_activity(5);
        let img = HeapImage::capture(&h);
        for mh in &img.miniheaps {
            assert_eq!(img.resolve_addr(mh.end()), None);
            assert!(img.resolve_addr(mh.base).is_some());
        }
    }

    #[test]
    fn corruption_scan_reports_extent() {
        let mut h = heap_with_activity(6);
        // Corrupt 5 bytes of a canaried freed slot.
        let img0 = HeapImage::capture(&h);
        let r = img0.find_object(ObjectId::from_raw(1)).unwrap();
        let addr = img0.slot_addr(r);
        h.arena_mut().write_bytes(addr + 2, b"OOPS!").unwrap();
        let img = HeapImage::capture(&h);
        let corruptions = img.scan_canary_corruptions();
        assert_eq!(corruptions.len(), 1);
        let c = corruptions[0];
        assert_eq!(c.addr, addr);
        assert_eq!(c.first_bad, 2);
        assert_eq!(c.end_bad, 7);
        assert!(c.n_bad >= 4, "at least 4 of 5 bytes differ from canary");
        assert_eq!(c.object_id, ObjectId::from_raw(1));
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let h = heap_with_activity(7);
        let img = HeapImage::capture(&h);
        let decoded = HeapImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(decoded, img);
        assert_eq!(
            decoded.find_object(ObjectId::from_raw(9)),
            img.find_object(ObjectId::from_raw(9)),
            "index rebuilt identically"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            HeapImage::from_bytes(&[0; 8]).unwrap_err(),
            ImageDecodeError::BadMagic
        );
        let mut good = HeapImage::capture(&heap_with_activity(8)).to_bytes();
        good.truncate(good.len() / 2);
        assert!(matches!(
            HeapImage::from_bytes(&good).unwrap_err(),
            ImageDecodeError::UnexpectedEof { .. }
        ));
        // Corrupt the version field.
        let mut bad_version = HeapImage::capture(&heap_with_activity(9)).to_bytes();
        bad_version[4] = 0xFF;
        assert!(matches!(
            HeapImage::from_bytes(&bad_version).unwrap_err(),
            ImageDecodeError::BadVersion { .. }
        ));
    }

    /// A 40-byte header (valid magic and version, then a miniheap count
    /// of `u32::MAX`) must be an ordinary decode error, not a ~240 GB
    /// allocation that aborts the process.
    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(0);
        w.u32(0);
        w.f64(0.5);
        w.f64(2.0);
        w.u32(u32::MAX);
        let header = w.into_bytes();
        assert_eq!(header.len(), 40);
        assert_eq!(
            HeapImage::from_bytes(&header).unwrap_err(),
            ImageDecodeError::UnexpectedEof { at: 36 }
        );
        // The same for a slot count inside an otherwise valid miniheap.
        let mut bytes = HeapImage::capture(&heap_with_activity(11)).to_bytes();
        let n_slots_at = 40 + MINIHEAP_HEADER - 4;
        bytes[n_slots_at..n_slots_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            HeapImage::from_bytes(&bytes).unwrap_err(),
            ImageDecodeError::UnexpectedEof { at: n_slots_at }
        );
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("xt_image_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.ximg");
        let img = HeapImage::capture(&heap_with_activity(10));
        img.save(&path).unwrap();
        assert_eq!(HeapImage::load(&path).unwrap(), img);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incremental_capture_equals_full_and_shares_clean_slots() {
        let mut h = heap_with_activity(20);
        let base = HeapImage::capture(&h); // clears dirty bits
                                           // Touch exactly one live object's memory.
        let r = base.find_object(ObjectId::from_raw(2)).unwrap();
        let addr = base.slot_addr(r);
        h.arena_mut().write_u64(addr, 0xFEED).unwrap();
        let inc = HeapImage::capture_incremental(&base, &h);
        let full = HeapImage::capture(&h);
        assert_eq!(inc, full);
        // The touched slot was re-read...
        assert_eq!(&inc.slot(r).data[..8], &0xFEEDu64.to_le_bytes());
        // ...while a slot on an untouched page shares the base's buffer
        // (same allocation, not a copy).
        let shared = inc
            .slots()
            .zip(base.slots())
            .filter(|((ri, si), (rb, sb))| ri == rb && Arc::ptr_eq(&si.data, &sb.data))
            .count();
        assert!(
            shared > inc.total_slots() / 2,
            "sparse touch must splice most slots by reference ({shared} of {})",
            inc.total_slots()
        );
    }

    #[test]
    fn incremental_capture_resets_its_baseline() {
        let mut h = heap_with_activity(21);
        let base = HeapImage::capture(&h);
        let r = base.find_object(ObjectId::from_raw(3)).unwrap();
        let addr = base.slot_addr(r);
        h.arena_mut().write_u64(addr, 1).unwrap();
        let second = HeapImage::capture_incremental(&base, &h);
        // The second image is the new baseline: with no stores since, a
        // third incremental capture matches a full one and splices all.
        let third = HeapImage::capture_incremental(&second, &h);
        assert_eq!(third, HeapImage::capture(&h));
        assert_eq!(&third.slot(r).data[..8], &1u64.to_le_bytes());
    }

    #[test]
    fn incremental_capture_against_foreign_base_is_a_full_capture() {
        let mut h = heap_with_activity(22);
        // A base from a *different* heap shares no miniheap geometry.
        let foreign = HeapImage::capture(&heap_with_activity(23));
        let p = h.malloc(64, SITE).unwrap();
        h.arena_mut().write_u64(p, 42).unwrap();
        let inc = HeapImage::capture_incremental(&foreign, &h);
        assert_eq!(inc, HeapImage::capture(&h));
    }

    #[test]
    fn try_capture_reports_unmapped_miniheap() {
        let mut h = heap_with_activity(24);
        let victim = h.inner().miniheaps().next().unwrap();
        let (id, base) = (victim.id(), victim.base());
        h.arena_mut().unmap(base).unwrap();
        assert_eq!(
            HeapImage::try_capture(&h).unwrap_err(),
            CaptureError::UnmappedMiniHeap { id, base }
        );
        // The incremental path reports the same malformation.
        let empty_base = HeapImage::capture(&heap_with_activity(25));
        assert_eq!(
            HeapImage::try_capture_incremental(&empty_base, &h).unwrap_err(),
            CaptureError::UnmappedMiniHeap { id, base }
        );
    }

    #[test]
    fn try_capture_reports_truncated_region() {
        let mut h = DieFastHeap::new(DieFastConfig::with_seed(26));
        // A 1 KiB class miniheap spans multiple pages.
        let p = h.malloc(1000, SITE).unwrap();
        let _ = p;
        let mh = h
            .inner()
            .miniheaps()
            .find(|m| m.object_size() == 1024)
            .unwrap();
        let (id, base) = (mh.id(), mh.base());
        // Remap the miniheap's memory one page short of its slot area.
        h.arena_mut().unmap(base).unwrap();
        h.arena_mut().map_at(base, xt_arena::PAGE_SIZE).unwrap();
        let err = HeapImage::try_capture(&h).unwrap_err();
        match err {
            CaptureError::TruncatedRegion {
                id: got_id,
                base: got_base,
                region_len,
                ..
            } => {
                assert_eq!(got_id, id);
                assert_eq!(got_base, base);
                assert_eq!(region_len, xt_arena::PAGE_SIZE);
            }
            other => panic!("expected TruncatedRegion, got {other:?}"),
        }
        assert!(err.to_string().contains("bytes"));
    }

    #[test]
    fn total_slots_counts_capacity() {
        let h = heap_with_activity(11);
        let img = HeapImage::capture(&h);
        assert_eq!(img.total_slots(), h.inner().total_capacity());
        assert!(img.total_slots() >= 80, "M=2 over-provisioning");
    }
}
