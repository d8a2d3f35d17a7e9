//! Allocator microbenchmarks: malloc/free throughput per allocator layer,
//! quantifying where Fig. 7's overhead comes from (randomized probing,
//! canary filling/checking, correction table lookups).
//!
//! Every case builds a fresh heap and runs the same churn: [`CHURN`]
//! mallocs of 16–88 bytes over a 64-object live window, each past the
//! window's size freeing a victim, then freeing what is left. The layers,
//! bottom to top:
//!
//! | case | heap |
//! |---|---|
//! | `baseline` | the Lea-style Fig. 7 baseline |
//! | `diehard` | bare DieHard (random placement, bitmaps) |
//! | `diefast` | DieFast at `p = 1` (canary every free, check neighbours) |
//! | `diefast_p_half` | DieFast at `p = 1/2` |
//! | `full_stack_unpatched` | correcting heap, empty table, over DieFast |
//! | `full_stack_patched` | correcting heap with 64 pads, over DieFast |
//!
//! Each case's minimum time per churn (the least-noise statistic under a
//! loaded machine), divided by its `2 * CHURN` heap calls, is written as
//! ns/op to `BENCH_alloc.json` at the workspace root (quick mode writes
//! the git-ignored `BENCH_alloc.quick.json` instead).
//!
//! ```text
//! cargo bench -p bench --bench alloc_micro
//! ```

use bench::{bench_artifact_path, write_bench_json, BenchRecord};
use criterion::{criterion_group, criterion_main, Criterion};

use xt_alloc::{Heap, SiteHash};
use xt_baseline::BaselineHeap;
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::{DieHardConfig, DieHardHeap};
use xt_patch::PatchTable;

const SITE: SiteHash = SiteHash::from_raw(0xBE);

/// Mallocs per churn; every one is freed again, so a churn makes
/// `2 * CHURN` heap calls.
const CHURN: usize = 2000;

fn churn(heap: &mut dyn Heap, n: usize) {
    let mut live = Vec::with_capacity(64);
    for i in 0..n {
        if live.len() >= 64 {
            let victim = live.swap_remove(i % live.len());
            heap.free(victim, SITE);
        }
        live.push(heap.malloc(16 + (i % 4) * 24, SITE).unwrap());
    }
    for p in live {
        heap.free(p, SITE);
    }
}

fn layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_micro");
    // Many short samples: the minimum then finds a quiet window even on a
    // host whose speed swings between runs.
    group.sample_size(60);
    group.bench_function("baseline", |b| {
        b.iter(|| {
            let mut heap = BaselineHeap::with_seed(1);
            churn(&mut heap, CHURN);
        });
    });
    group.bench_function("diehard", |b| {
        b.iter(|| {
            let mut heap = DieHardHeap::new(DieHardConfig::with_seed(1));
            churn(&mut heap, CHURN);
        });
    });
    group.bench_function("diefast", |b| {
        b.iter(|| {
            let mut heap = DieFastHeap::new(DieFastConfig::with_seed(1));
            churn(&mut heap, CHURN);
        });
    });
    group.bench_function("diefast_p_half", |b| {
        b.iter(|| {
            let mut heap = DieFastHeap::new(DieFastConfig::with_seed(1).fill_probability(0.5));
            churn(&mut heap, CHURN);
        });
    });
    group.bench_function("full_stack_unpatched", |b| {
        b.iter(|| {
            let inner = DieFastHeap::new(DieFastConfig::with_seed(1));
            let mut heap = CorrectingHeap::new(inner, PatchTable::new());
            churn(&mut heap, CHURN);
        });
    });
    group.bench_function("full_stack_patched", |b| {
        let mut patches = PatchTable::new();
        for s in 0..64u32 {
            patches.add_pad(SiteHash::from_raw(s), 8);
        }
        b.iter(|| {
            let inner = DieFastHeap::new(DieFastConfig::with_seed(1));
            let mut heap = CorrectingHeap::new(inner, patches.clone());
            churn(&mut heap, CHURN);
        });
    });
    group.finish();
}

/// Writes each case's ns per heap call to `BENCH_alloc.json`.
fn emit_json(c: &mut Criterion) {
    let records: Vec<BenchRecord> = c
        .results()
        .iter()
        .filter_map(|r| {
            let case = r.id.strip_prefix("alloc_micro/")?;
            let ns = r.min_ns / (2 * CHURN) as f64;
            println!("{case}: {ns:.1} ns/op");
            Some(BenchRecord::from_ns(case, ns))
        })
        .collect();
    let path = bench_artifact_path("BENCH_alloc.json");
    write_bench_json(&path, "alloc_micro", &records).expect("write BENCH_alloc.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, layers, emit_json);
criterion_main!(benches);
