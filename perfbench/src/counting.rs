//! A counting [`Heap`] wrapper: counts and times every `malloc` and
//! `free` the wrapped allocator serves. Used only in the traced run, so
//! the clock reads it adds never touch an end-to-end figure.

use std::time::Instant;

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, SiteHash};
use xt_arena::{Addr, Arena};

#[derive(Debug)]
pub struct CountingHeap<H> {
    inner: H,
    pub mallocs: u64,
    pub frees: u64,
    pub malloc_ns: u64,
    pub free_ns: u64,
}

impl<H: Heap> CountingHeap<H> {
    pub fn new(inner: H) -> Self {
        CountingHeap {
            inner,
            mallocs: 0,
            frees: 0,
            malloc_ns: 0,
            free_ns: 0,
        }
    }
}

impl<H: Heap> Heap for CountingHeap<H> {
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        let t = Instant::now();
        let out = self.inner.malloc(size, site);
        self.malloc_ns += t.elapsed().as_nanos() as u64;
        self.mallocs += 1;
        out
    }

    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        let t = Instant::now();
        let out = self.inner.free(ptr, site);
        self.free_ns += t.elapsed().as_nanos() as u64;
        self.frees += 1;
        out
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
