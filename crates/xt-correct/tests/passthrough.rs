//! Differential pins for the empty-table pass-through in
//! `CorrectingHeap::free`.
//!
//! The same workload and seed run twice over a DieFast heap: once with an
//! empty patch table (every free takes the pass-through) and once with a
//! table holding a single pad for a site the workload never allocates from
//! (every free takes the full Fig. 6 path, and every lookup answers 0).
//! Outputs, every `FreeOutcome`, the correction statistics, the DieFast
//! signals and the final heap image must all be identical.

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, SiteHash, SitePair};
use xt_arena::{Addr, Arena};
use xt_correct::{CorrectingHeap, CorrectionStats};
use xt_diefast::{DieFastConfig, DieFastHeap, ErrorSignal};
use xt_image::HeapImage;
use xt_patch::PatchTable;
use xt_workloads::{
    overflow_requests, CfracLike, EspressoLike, ProfileWorkload, RunResult, SquidLike, Workload,
    WorkloadInput,
};

/// A site no workload allocates from (checked against every recorded
/// allocation site below).
const UNUSED_SITE: SiteHash = SiteHash::from_raw(0x0DD5_17E5);

/// Records every malloc result and free outcome the workload sees.
struct Recording<H> {
    inner: H,
    mallocs: Vec<Result<Addr, HeapError>>,
    frees: Vec<(Addr, FreeOutcome)>,
    sites: Vec<SiteHash>,
}

impl<H: Heap> Heap for Recording<H> {
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        let result = self.inner.malloc(size, site);
        self.mallocs.push(result);
        self.sites.push(site);
        result
    }

    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        let outcome = self.inner.free(ptr, site);
        self.frees.push((ptr, outcome));
        outcome
    }

    fn arena(&self) -> &Arena {
        self.inner.arena()
    }

    fn arena_mut(&mut self) -> &mut Arena {
        self.inner.arena_mut()
    }

    fn clock(&self) -> AllocTime {
        self.inner.clock()
    }

    fn usable_size(&self, ptr: Addr) -> Option<usize> {
        self.inner.usable_size(ptr)
    }

    fn alloc_site_of(&self, ptr: Addr) -> Option<SiteHash> {
        self.inner.alloc_site_of(ptr)
    }
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    result: RunResult,
    mallocs: Vec<Result<Addr, HeapError>>,
    frees: Vec<(Addr, FreeOutcome)>,
    stats: CorrectionStats,
    signals: Vec<ErrorSignal>,
    image: Vec<u8>,
}

fn run(workload: &dyn Workload, input: &WorkloadInput, patches: PatchTable) -> Observed {
    let inner = DieFastHeap::new(DieFastConfig::with_seed(input.seed ^ 0xC0FF_EE00));
    let mut heap = Recording {
        inner: CorrectingHeap::new(inner, patches),
        mallocs: Vec::new(),
        frees: Vec::new(),
        sites: Vec::new(),
    };
    let result = workload.run(&mut heap, input);
    assert!(
        !heap.sites.contains(&UNUSED_SITE),
        "{} allocated from the supposedly unused site",
        workload.name()
    );
    let stats = heap.inner.stats();
    let mut diefast = heap.inner.into_inner();
    let signals = diefast.take_signals();
    let image = HeapImage::capture(&diefast).to_bytes();
    Observed {
        result,
        mallocs: heap.mallocs,
        frees: heap.frees,
        stats,
        signals,
        image,
    }
}

#[test]
fn empty_table_pass_through_matches_the_full_fig6_path() {
    let mut inert = PatchTable::new();
    inert.add_pad(UNUSED_SITE, 24);
    let workloads: Vec<(Box<dyn Workload>, WorkloadInput)> = vec![
        (
            Box::new(SquidLike::new()),
            WorkloadInput::with_seed(3).payload(overflow_requests(40)),
        ),
        (Box::new(EspressoLike::new()), WorkloadInput::with_seed(4)),
        (Box::new(CfracLike::new()), WorkloadInput::with_seed(5)),
        (
            Box::new(ProfileWorkload::roboop_like()),
            WorkloadInput::with_seed(6),
        ),
    ];
    let mut signals = 0;
    for (workload, input) in &workloads {
        let pass_through = run(workload.as_ref(), input, PatchTable::new());
        let full_path = run(workload.as_ref(), input, inert.clone());
        assert!(
            !pass_through.frees.is_empty(),
            "{} freed nothing",
            workload.name()
        );
        assert_eq!(
            pass_through,
            full_path,
            "{}: pass-through diverged from Fig. 6",
            workload.name()
        );
        signals += pass_through.signals.len();
    }
    // The squid attack overflows into canaried slots, so the comparison
    // covers DieFast's detection path, not only clean frees.
    assert!(signals > 0, "no workload raised a DieFast signal");
}

#[test]
fn pass_through_disengages_while_a_pointer_is_parked() {
    let (alloc_site, free_site) = (SiteHash::from_raw(0xA1), SiteHash::from_raw(0xF1));
    let mut patches = PatchTable::new();
    patches.add_deferral(SitePair::new(alloc_site, free_site), 5);
    let inner = DieFastHeap::new(DieFastConfig::with_seed(9));
    let mut heap = CorrectingHeap::new(inner, patches);
    let p = heap.malloc(16, alloc_site).unwrap();
    assert!(matches!(
        heap.free(p, free_site),
        FreeOutcome::Deferred { .. }
    ));
    // An empty table alone must not re-engage the pass-through: the parked
    // pointer's second free is still the benign double free of Fig. 6,
    // not a real release by the inner heap.
    heap.reload_patches(PatchTable::new());
    assert_eq!(heap.free(p, free_site), FreeOutcome::DoubleFreeIgnored);
    assert_eq!(heap.deferred_len(), 1);
    assert_eq!(heap.inner().inner().live_objects(), 1);
    // Once the queue drains, the pass-through answers like the inner heap.
    heap.flush_deferred();
    assert_eq!(heap.inner().inner().live_objects(), 0);
    assert_eq!(heap.free(p, free_site), FreeOutcome::DoubleFreeIgnored);
}
