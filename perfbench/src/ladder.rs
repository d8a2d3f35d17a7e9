//! The in-process layer ladder, run on the exact `serve` corpus:
//! baseline heap → DieFast + correcting stack → `ReplicaPool` at 1 and 3
//! replicas → `PoolFrontend` at the serve shape. Each rung times calls
//! into that layer's public functions, so a layer's marginal cost is a
//! subtraction between rungs. The fleet rungs time `FleetService` and
//! `DurableFleet` on the reports a heal cycle shipped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use exterminator::frontend::PoolFrontend;
use exterminator::pool::{PoolConfig, ReplicaPool};
use xt_alloc::Heap;
use xt_baseline::BaselineHeap;
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_fleet::{DirStorage, DurabilityConfig, DurableFleet, FleetConfig, FleetService};
use xt_patch::PatchTable;
use xt_workloads::{SquidLike, Workload, WorkloadInput};

use crate::common::{spread_note, work_dir, Pass};
use crate::counting::CountingHeap;
use crate::serve;
use crate::stats::{Metric, Samples};
use crate::trace::{traced, Tracer};

/// Corpus inputs per rung pass, and passes per rung.
const INPUTS: usize = 256;
const PASSES: usize = 4;
/// Inputs per `run_batch` call on the pool rungs.
const BATCH: usize = 32;
/// Fresh fleets the fleet rungs ingest the report set into.
const FLEET_REPS: usize = 10;

/// Heap-call counts and arena readings over a set of runs.
#[derive(Default)]
pub struct CountSummary {
    runs: usize,
    mallocs: u64,
    frees: u64,
    malloc_ns: u64,
    free_ns: u64,
    mapped_kb: Samples,
    dirty_pages: Samples,
}

/// Runs each `(workload, input)` once on a counting DieFast + correcting
/// stack and reads the arena after the run.
pub fn count_runs<'a>(
    runs: impl Iterator<Item = (&'a dyn Workload, &'a WorkloadInput)>,
    seed: u64,
) -> CountSummary {
    let mut s = CountSummary::default();
    for (k, (w, input)) in runs.enumerate() {
        let diefast = DieFastHeap::new(DieFastConfig::with_seed(seed ^ (k as u64) << 16));
        let mut heap = CountingHeap::new(CorrectingHeap::new(diefast, PatchTable::new()));
        let _ = w.run(&mut heap, input);
        s.runs += 1;
        s.mallocs += heap.mallocs;
        s.frees += heap.frees;
        s.malloc_ns += heap.malloc_ns;
        s.free_ns += heap.free_ns;
        s.mapped_kb
            .push(heap.arena().mapped_bytes() as f64 / 1024.0);
        s.dirty_pages.push(heap.arena().dirty_pages().len() as f64);
    }
    s
}

impl CountSummary {
    /// `heap.{prefix}mallocs_per_{per}` and friends.
    pub fn metrics(&self, prefix: &str, per: &str) -> Vec<Metric> {
        let runs = self.runs.max(1) as f64;
        vec![
            Metric::new(
                &format!("heap.{prefix}mallocs_per_{per}"),
                self.mallocs as f64 / runs,
                "calls",
                self.runs,
            ),
            Metric::new(
                &format!("heap.{prefix}frees_per_{per}"),
                self.frees as f64 / runs,
                "calls",
                self.runs,
            ),
            Metric::new(
                &format!("heap.{prefix}malloc_ns"),
                self.malloc_ns as f64 / self.mallocs.max(1) as f64,
                "ns",
                self.mallocs as usize,
            )
            .note("mean per call, clock reads included"),
            Metric::new(
                &format!("heap.{prefix}free_ns"),
                self.free_ns as f64 / self.frees.max(1) as f64,
                "ns",
                self.frees as usize,
            )
            .note("mean per call, clock reads included"),
            Metric::new(
                &format!("arena.{prefix}mapped_kb_per_{per}"),
                self.mapped_kb.mean(),
                "KB",
                self.mapped_kb.len(),
            ),
            Metric::new(
                &format!("arena.{prefix}dirty_pages_per_{per}"),
                self.dirty_pages.mean(),
                "pages",
                self.dirty_pages.len(),
            ),
        ]
    }
}

fn us(s: &Samples, name: &str) -> Metric {
    Metric::new(name, s.median(), "us", s.len()).note(spread_note(s, 0.95, "us"))
}

/// The serve-shaped pool configuration of the ladder's pool rungs.
fn pool_config(replicas: usize) -> PoolConfig {
    PoolConfig {
        replicas,
        ..serve::net_config().frontend.pool
    }
}

/// One pool rung: `run_batch` over the corpus in batches; per-input time
/// is a batch's time over its size. Counts outputs that differ from the
/// stack rung's.
fn pool_rung(
    name: &'static str,
    replicas: usize,
    corpus: &[WorkloadInput],
    expected: &[Vec<u8>],
    tracer: &Tracer,
    pass: &mut Pass,
    timings: &mut Vec<exterminator::pool::VoteTiming>,
) -> Samples {
    let workload = SquidLike::new();
    let mut per_input = Samples::new();
    std::thread::scope(|scope| {
        let mut pool =
            ReplicaPool::scoped(scope, &workload, pool_config(replicas), PatchTable::new());
        for round in 0..PASSES {
            for (b, chunk) in corpus.chunks(BATCH).enumerate() {
                let t = Instant::now();
                let outcomes = traced(Some(tracer), name, (round * 1000 + b) as u64, 0, || {
                    pool.run_batch(chunk, None)
                });
                per_input.push(t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
                for (k, o) in outcomes.iter().enumerate() {
                    pass.attempted += 1;
                    if o.outcome.vote.winner != expected[b * BATCH + k] {
                        pass.failed += 1;
                    }
                    timings.push(o.timing);
                }
            }
        }
        pool.shutdown();
    });
    per_input
}

/// The serve-shaped front-end rung: two submitter threads, each keeping
/// `serve::DEPTH` jobs in flight over its half of the corpus.
fn frontend_rung(
    halves: &[Vec<WorkloadInput>],
    expected: &[Vec<Vec<u8>>],
    tracer: &Tracer,
    pass: &mut Pass,
) -> u64 {
    let workload = SquidLike::new();
    std::thread::scope(|scope| {
        let frontend = PoolFrontend::scoped(
            scope,
            &workload,
            serve::net_config().frontend,
            PatchTable::new(),
        );
        let results: Vec<(u64, u64)> = std::thread::scope(|inner| {
            let handles: Vec<_> = halves
                .iter()
                .zip(expected)
                .map(|(inputs, want)| {
                    let frontend = &frontend;
                    inner.spawn(move || {
                        let (mut attempted, mut failed) = (0u64, 0u64);
                        let mut inflight = VecDeque::new();
                        let total = inputs.len() * PASSES;
                        let mut next = 0;
                        while next < total || !inflight.is_empty() {
                            while inflight.len() < serve::DEPTH && next < total {
                                let k = next % inputs.len();
                                next += 1;
                                let root = tracer.open("frontend.job", 0, 0);
                                let sub = tracer.open("frontend.submit", 0, root.id);
                                let ticket = frontend.submit(&inputs[k], None);
                                let mut sub = sub;
                                sub.trace = ticket.job();
                                tracer.close(sub);
                                let mut root = root;
                                root.trace = ticket.job();
                                inflight.push_back((ticket, k, root));
                            }
                            let Some((ticket, k, root)) = inflight.pop_front() else {
                                break;
                            };
                            let outcome =
                                traced(Some(tracer), "frontend.wait", root.trace, root.id, || {
                                    catch_unwind(AssertUnwindSafe(|| ticket.wait()))
                                });
                            tracer.close(root);
                            attempted += 1;
                            match outcome {
                                Ok(o) if o.outcome.vote.winner == want[k] => {}
                                _ => failed += 1,
                            }
                        }
                        (attempted, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("front-end submitter panicked"))
                .collect()
        });
        for (a, f) in results {
            pass.attempted += a;
            pass.failed += f;
        }
        let waits = frontend.stats().backpressure_waits;
        frontend.shutdown();
        waits
    })
}

/// The ladder over the serve corpus for `seed`.
pub fn run(seed: u64, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let streams = serve::corpus(seed);
    let halves: Vec<Vec<WorkloadInput>> = streams
        .iter()
        .map(|s| s[..INPUTS / serve::CLIENTS].to_vec())
        .collect();
    // Interleaved the way the two connections' jobs arrive.
    let corpus: Vec<WorkloadInput> = (0..INPUTS)
        .map(|k| halves[k % serve::CLIENTS][k / serve::CLIENTS].clone())
        .collect();
    let workload = SquidLike::new();

    // Rung 0: the Lea-style baseline, heap construction split from the run.
    let (mut new_us, mut run_us) = (Samples::new(), Samples::new());
    let mut expected: Vec<Vec<u8>> = Vec::with_capacity(INPUTS);
    for round in 0..PASSES {
        for (k, input) in corpus.iter().enumerate() {
            let trace = (round * INPUTS + k) as u64;
            let root = tracer.open("baseline.input", trace, 0);
            let t = Instant::now();
            let mut heap = traced(Some(tracer), "baseline.new", trace, root.id, || {
                BaselineHeap::with_seed(1 + trace)
            });
            new_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let result = traced(Some(tracer), "baseline.run", trace, root.id, || {
                workload.run(&mut heap, input)
            });
            run_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(heap);
            tracer.close(root);
            if round == 0 {
                expected.push(result.output.clone());
            }
            pass.attempted += 1;
            if !result.completed() || result.output != expected[k] {
                pass.failed += 1;
            }
        }
    }

    // Rung 1: the DieFast + correcting stack, fresh per run (Fig. 7's
    // configuration).
    let mut stack_us = Samples::new();
    for round in 0..PASSES {
        for (k, input) in corpus.iter().enumerate() {
            let trace = (round * INPUTS + k) as u64;
            let t = Instant::now();
            let result = traced(Some(tracer), "stack.input", trace, 0, || {
                catch_unwind(AssertUnwindSafe(|| {
                    bench::run_on_exterminator(&workload, input, 2 + trace)
                }))
            });
            stack_us.push(t.elapsed().as_secs_f64() * 1e6);
            pass.attempted += 1;
            if result.map_or(true, |r| r.output != expected[k]) {
                pass.failed += 1;
            }
        }
    }
    let counts = count_runs(corpus.iter().map(|i| (&workload as &dyn Workload, i)), seed);

    // Rungs 2 and 3: the replica pool at 1 and 3 replicas.
    let mut timings = Vec::new();
    let pool1 = pool_rung(
        "pool1.batch",
        1,
        &corpus,
        &expected,
        tracer,
        &mut pass,
        &mut Vec::new(),
    );
    let pool3 = pool_rung(
        "pool.batch",
        3,
        &corpus,
        &expected,
        tracer,
        &mut pass,
        &mut timings,
    );
    let (mut verdict_us, mut full_us, mut outstanding) =
        (Samples::new(), Samples::new(), Samples::new());
    for t in &timings {
        verdict_us.push(t.verdict_latency.as_secs_f64() * 1e6);
        full_us.push(t.full_latency.as_secs_f64() * 1e6);
        outstanding.push(t.outstanding_at_verdict as f64);
    }

    // Rung 4: the front-end at the serve shape.
    let expected_halves: Vec<Vec<Vec<u8>>> = (0..serve::CLIENTS)
        .map(|c| {
            (0..INPUTS / serve::CLIENTS)
                .map(|k| expected[k * serve::CLIENTS + c].clone())
                .collect()
        })
        .collect();
    let waits = frontend_rung(&halves, &expected_halves, tracer, &mut pass);
    let fe_us = tracer.durations_us("frontend.job");
    let submit_us = tracer.durations_us("frontend.submit");

    pass.layers = vec![
        us(&new_us, "baseline.new_us"),
        us(&run_us, "baseline.run_us"),
        us(&stack_us, "stack.input_us"),
        us(&pool1, "pool1.input_us").note(format!(
            "{} | pool1 - stack = {:.2}us",
            spread_note(&pool1, 0.95, "us"),
            pool1.median() - stack_us.median()
        )),
        us(&pool3, "pool.input_us").note(format!(
            "{} | pool3 - pool1 = {:.2}us",
            spread_note(&pool3, 0.95, "us"),
            pool3.median() - pool1.median()
        )),
        us(&verdict_us, "pool.verdict_us"),
        us(&full_us, "pool.full_us"),
        Metric::new(
            "pool.outstanding_at_verdict",
            outstanding.mean(),
            "replicas",
            outstanding.len(),
        )
        .note("mean"),
        us(&fe_us, "frontend.input_us"),
        us(&submit_us, "frontend.submit_block_us"),
        Metric::new("frontend.backpressure_waits", waits as f64, "count", 1),
    ];
    pass.layers.extend(counts.metrics("", "input"));
    pass
}

/// The fleet rungs: the report set of one heal cycle ingested into fresh
/// in-memory and WAL-backed fleets, with a publish every 8 reports (the
/// heal server's `publish_every`).
pub fn run_fleet(reports: &[Vec<u8>], tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let config = FleetConfig {
        publish_every: 0,
        ..crate::heal::fleet_config()
    };
    let every = crate::heal::fleet_config().publish_every as usize;
    pass.attempted += 1;
    if reports.is_empty() {
        eprintln!("fleet: no reports to ingest");
        pass.failed += 1;
    }
    for rep in 0..FLEET_REPS as u64 {
        let service = FleetService::new(config);
        let mut padded = false;
        for (i, bytes) in reports.iter().enumerate() {
            pass.attempted += 1;
            let receipt = traced(Some(tracer), "fleet.ingest", rep, 0, || {
                service.ingest(bytes)
            });
            if !matches!(receipt, Ok(r) if !r.duplicate) {
                pass.failed += 1;
            }
            if (i + 1) % every == 0 {
                let epoch = traced(Some(tracer), "fleet.publish", rep, 0, || service.publish());
                padded |= epoch.patches.pads().any(|(_, pad)| pad >= 20);
            }
        }
        pass.attempted += 1;
        if !padded {
            pass.failed += 1;
        }

        let dir = work_dir().join(format!("fleet-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = DirStorage::open(&dir)
            .map_err(xt_fleet::DurabilityError::Storage)
            .and_then(|s| DurableFleet::open(s, config, DurabilityConfig::default()));
        match durable {
            Ok(fleet) => {
                for bytes in reports {
                    pass.attempted += 1;
                    let r = traced(Some(tracer), "fleet.durable_ingest", rep, 0, || {
                        fleet.ingest(bytes)
                    });
                    if !matches!(r, Ok(r) if !r.duplicate) {
                        pass.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("fleet: durable open failed: {e:?}");
                pass.failed += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    pass.layers = vec![
        us(&tracer.durations_us("fleet.ingest"), "fleet.ingest_us"),
        us(
            &tracer.durations_us("fleet.durable_ingest"),
            "fleet.durable_ingest_us",
        ),
        us(&tracer.durations_us("fleet.publish"), "fleet.publish_us"),
    ];
    pass
}
