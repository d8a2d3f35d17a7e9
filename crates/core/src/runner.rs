//! Shared run machinery: builds the allocator stack, executes one
//! workload run, and captures everything the modes need afterwards.

use xt_alloc::{AllocTime, Heap as _};
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap, ErrorSignal};
use xt_diehard::ObjectLog;
use xt_faults::{FaultSpec, FaultyHeap, InjectedEvent};
use xt_image::HeapImage;
use xt_patch::PatchTable;
use xt_workloads::{CrashKind, RunOutcome, RunResult, Workload, WorkloadInput};

/// Configuration for one execution.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Heap randomization seed for this run/replica.
    pub heap_seed: u64,
    /// DieFast configuration (fill probability, zero-fill, history).
    pub diefast: DieFastConfig,
    /// Runtime patches to apply.
    pub patches: PatchTable,
    /// Fault to inject, if any.
    pub fault: Option<FaultSpec>,
    /// Malloc breakpoint: stop when the allocation clock reaches this
    /// value (iterative replays, §3.4).
    pub breakpoint: Option<AllocTime>,
    /// Stop at the first DieFast signal (iterative discovery runs).
    pub halt_on_signal: bool,
}

impl RunConfig {
    /// A plain run: given seed, no patches, no faults, no stops.
    #[must_use]
    pub fn with_seed(heap_seed: u64) -> Self {
        RunConfig {
            heap_seed,
            diefast: DieFastConfig::with_seed(heap_seed),
            patches: PatchTable::new(),
            fault: None,
            breakpoint: None,
            halt_on_signal: false,
        }
    }
}

/// Everything captured from one execution. Two records compare equal when
/// the executions were observationally identical — result, signals, heap
/// image, history, injection log, and clock (the reused-stack determinism
/// tests rely on this).
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The workload's outcome and output.
    pub result: RunResult,
    /// DieFast error signals raised during the run.
    pub signals: Vec<ErrorSignal>,
    /// Heap image captured at the end (completion, crash, or breakpoint) —
    /// the dump a real Exterminator writes from its signal handler.
    pub image: HeapImage,
    /// Full allocation history, when the configuration tracked it.
    pub history: Option<ObjectLog>,
    /// What the fault injector did.
    pub injected: Vec<InjectedEvent>,
    /// Final allocation clock.
    pub clock: AllocTime,
}

impl RunRecord {
    /// Whether this run counts as a *failure* for the runtime: a DieFast
    /// signal, or any crash other than the malloc breakpoint (which is the
    /// runtime's own stop mechanism).
    #[must_use]
    pub fn failed(&self) -> bool {
        run_failed(&self.signals, &self.result)
    }

    /// Whether the run was cut short by the malloc breakpoint.
    #[must_use]
    pub fn hit_breakpoint(&self) -> bool {
        matches!(
            self.result.outcome,
            RunOutcome::Crashed(CrashKind::Breakpoint)
        )
    }
}

/// What a run leaves behind once its stack is torn down: a [`RunRecord`]
/// minus the heap image.
#[derive(Debug)]
pub(crate) struct RunEnd {
    /// The workload's outcome and output.
    pub result: RunResult,
    /// DieFast error signals raised during the run.
    pub signals: Vec<ErrorSignal>,
    /// Full allocation history, when the configuration tracked it.
    pub history: Option<ObjectLog>,
    /// What the fault injector did.
    pub injected: Vec<InjectedEvent>,
    /// Final allocation clock.
    pub clock: AllocTime,
}

impl RunEnd {
    /// [`RunRecord::failed`] for a run that was not captured.
    pub(crate) fn failed(&self) -> bool {
        run_failed(&self.signals, &self.result)
    }
}

fn run_failed(signals: &[ErrorSignal], result: &RunResult) -> bool {
    if !signals.is_empty() {
        return true;
    }
    match &result.outcome {
        RunOutcome::Completed => false,
        RunOutcome::Crashed(CrashKind::Breakpoint) => false,
        RunOutcome::Crashed(_) => true,
    }
}

/// A reusable execution engine: holds a recycled [`Arena`](xt_arena::Arena)
/// across runs, so a long-lived worker (a [`pool`](crate::pool) replica, a
/// fleet-simulator client) builds translation structures once and *resets*
/// them between inputs instead of rebuilding them — the paper's replicas
/// are persistent processes, and persistent processes do not pay process
/// startup per request. Nothing else survives a run: every run starts from
/// a reset arena, so a reused stack is observationally a fresh one (the
/// reused-vs-fresh determinism tests pin this).
///
/// One-shot callers use [`execute`]; repeated callers keep one
/// `ReusableStack` and call [`execute_reusable`], or drive
/// [`ReusableStack::start`] directly. [`ActiveRun::finish`] captures the
/// heap image before recycling the arena; the pool's replicas end most runs
/// without one — the paper's replicas dump their heaps only at a failure
/// point (§3.4), so a run whose image nobody reads should not pay for it.
#[derive(Debug, Default)]
pub struct ReusableStack {
    arena: Option<xt_arena::Arena>,
}

impl ReusableStack {
    /// Creates an engine with no recycled arena yet (the first run builds
    /// one).
    #[must_use]
    pub fn new() -> Self {
        ReusableStack::default()
    }

    /// Builds the allocator stack for one run — fault injector → correcting
    /// allocator → DieFast → DieHard → arena — over the recycled address
    /// space, and returns the run ready to execute.
    pub fn start(&mut self, config: RunConfig) -> ActiveRun<'_> {
        let mut diefast_config = config.diefast;
        diefast_config.heap.seed = config.heap_seed;
        let arena = self.arena.take().unwrap_or_default();
        let mut diefast = DieFastHeap::with_arena(diefast_config, arena);
        diefast.set_breakpoint(config.breakpoint);
        diefast.set_halt_on_signal(config.halt_on_signal);
        let correcting = CorrectingHeap::new(diefast, config.patches);
        ActiveRun {
            home: self,
            stack: FaultyHeap::new(correcting, config.fault),
            result: None,
        }
    }
}

/// One run in flight over a [`ReusableStack`]. After [`ActiveRun::run`]
/// the heap is still standing until the run is torn down.
#[derive(Debug)]
pub struct ActiveRun<'a> {
    home: &'a mut ReusableStack,
    stack: FaultyHeap<CorrectingHeap<DieFastHeap>>,
    result: Option<RunResult>,
}

impl ActiveRun<'_> {
    /// Executes the workload to completion (or crash) and returns its
    /// result. The heap stays standing until the run is torn down.
    pub fn run(&mut self, workload: &dyn Workload, input: &WorkloadInput) -> &RunResult {
        let result = workload.run(&mut self.stack, input);
        self.result.insert(result)
    }

    /// Tears the stack down after one [`HeapImage::capture`] of the heap as
    /// the run left it, and recycles the arena back into the owning
    /// [`ReusableStack`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`ActiveRun::run`].
    #[must_use]
    pub fn finish(self) -> RunRecord {
        let (end, image) = self.teardown(HeapImage::capture);
        RunRecord {
            result: end.result,
            signals: end.signals,
            image,
            history: end.history,
            injected: end.injected,
            clock: end.clock,
        }
    }

    /// The one stack teardown: hands the still-standing heap to `capture`,
    /// which may read nothing (`|_| ()`), then recycles the arena.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ActiveRun::run`].
    pub(crate) fn teardown<T>(self, capture: impl FnOnce(&DieFastHeap) -> T) -> (RunEnd, T) {
        let result = self.result.expect("teardown requires a completed run()");
        let injected = self.stack.events().to_vec();
        let mut diefast = self.stack.into_inner().into_inner();
        let captured = capture(&diefast);
        let clock = diefast.inner().clock();
        let history = diefast.inner().history().cloned();
        let signals = diefast.take_signals();
        self.home.arena = Some(diefast.into_inner().into_arena());
        let end = RunEnd {
            result,
            signals,
            history,
            injected,
            clock,
        };
        (end, captured)
    }
}

/// Executes one run of `workload` over a freshly built allocator stack:
/// fault injector → correcting allocator → DieFast → DieHard → arena.
#[must_use]
pub fn execute(workload: &dyn Workload, input: &WorkloadInput, config: RunConfig) -> RunRecord {
    execute_reusable(workload, input, config, &mut ReusableStack::new())
}

/// Executes one run over `stack`'s recycled address space. Behaviour is
/// byte-for-byte identical to [`execute`] with the same `config` (the
/// determinism tests pin this); only the allocation cost differs.
#[must_use]
pub fn execute_reusable(
    workload: &dyn Workload,
    input: &WorkloadInput,
    config: RunConfig,
    stack: &mut ReusableStack,
) -> RunRecord {
    let mut active = stack.start(config);
    active.run(workload, input);
    active.finish()
}

/// Reproduces the paper's fault-selection methodology (§7.2): "we run the
/// injector using a random seed until it triggers an error or divergent
/// output. We next use this seed to deterministically trigger a single
/// error in Exterminator."
///
/// Candidate triggers are sampled from `[trigger_lo, trigger_hi)`; each is
/// probed over `probe_runs` differently-randomized heaps. The first fault
/// that manifests (signal or crash) in some probe run is returned.
/// Injected faults that stay benign — e.g. an overflow absorbed by size-class
/// rounding — are discarded, exactly as the paper discards injector seeds
/// that trigger no error.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn find_manifesting_fault(
    workload: &dyn Workload,
    input: &WorkloadInput,
    kind: xt_faults::FaultKind,
    trigger_lo: u64,
    trigger_hi: u64,
    attempts: usize,
    probe_runs: usize,
    selection_seed: u64,
) -> Option<FaultSpec> {
    let mut rng = xt_arena::Rng::new(selection_seed ^ 0xF1AD_5EED);
    for attempt in 0..attempts {
        let spec = FaultSpec {
            kind,
            trigger: AllocTime::from_raw(trigger_lo + rng.below(trigger_hi - trigger_lo)),
        };
        for probe in 0..probe_runs {
            let mut config =
                RunConfig::with_seed(selection_seed ^ (attempt as u64 * 131 + probe as u64 + 1));
            config.fault = Some(spec);
            config.halt_on_signal = true;
            let rec = execute(workload, input, config);
            if rec.failed() {
                return Some(spec);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::AllocTime;
    use xt_faults::FaultKind;
    use xt_workloads::EspressoLike;

    #[test]
    fn clean_run_is_not_a_failure() {
        let rec = execute(
            &EspressoLike::new(),
            &WorkloadInput::with_seed(1),
            RunConfig::with_seed(7),
        );
        assert!(rec.result.completed());
        assert!(!rec.failed());
        assert!(rec.signals.is_empty());
        assert!(rec.clock.raw() > 100);
        assert_eq!(rec.image.clock, rec.clock);
    }

    #[test]
    fn breakpoint_stops_run_without_failing_it() {
        let mut config = RunConfig::with_seed(8);
        config.breakpoint = Some(AllocTime::from_raw(50));
        let rec = execute(&EspressoLike::new(), &WorkloadInput::with_seed(1), config);
        assert!(rec.hit_breakpoint());
        assert!(!rec.failed());
        assert_eq!(rec.clock, AllocTime::from_raw(50));
    }

    #[test]
    fn injected_overflow_eventually_signals() {
        // Select a manifesting fault (overflows absorbed by size-class
        // rounding are benign, §7.2 methodology), then check that a good
        // share of randomized runs observe it.
        let input = WorkloadInput::with_seed(3).intensity(3);
        let fault = find_manifesting_fault(
            &EspressoLike::new(),
            &input,
            FaultKind::BufferOverflow {
                delta: 20,
                fill: 0xEE,
            },
            100,
            300,
            20,
            4,
            99,
        )
        .expect("no manifesting fault");
        let mut failures = 0;
        for seed in 0..8 {
            let mut config = RunConfig::with_seed(1000 + seed);
            config.fault = Some(fault);
            config.halt_on_signal = true;
            let rec = execute(&EspressoLike::new(), &input, config);
            if rec.failed() {
                failures += 1;
                assert!(
                    !rec.signals.is_empty() || !rec.result.completed(),
                    "failure without evidence"
                );
            }
        }
        assert!(failures >= 3, "only {failures}/8 runs observed the fault");
    }

    /// The no-leak pin for pooled reuse: a run over a recycled arena (with
    /// arbitrary prior state) is observationally identical to the same run
    /// over a fresh stack — result, signals, image, history, clock.
    #[test]
    fn reused_stack_runs_are_identical_to_fresh_runs() {
        let input = WorkloadInput::with_seed(11).intensity(2);
        let config = || {
            let mut c = RunConfig::with_seed(31337);
            c.diefast = DieFastConfig::cumulative_with_seed(31337);
            c.fault = Some(FaultSpec {
                kind: FaultKind::BufferOverflow {
                    delta: 20,
                    fill: 0xEE,
                },
                trigger: AllocTime::from_raw(140),
            });
            c
        };
        let fresh = execute(&EspressoLike::new(), &input, config());
        let mut stack = ReusableStack::new();
        // Pollute the stack with two unrelated prior runs (different seed,
        // different workload input, no fault) that end without a capture,
        // as a pool replica's service runs do, before the captured run
        // under test.
        for prior in 0..2 {
            let mut active = stack.start(RunConfig::with_seed(777 + prior));
            active.run(&EspressoLike::new(), &WorkloadInput::with_seed(90 + prior));
            let (end, ()) = active.teardown(|_| ());
            assert!(end.result.completed() && !end.failed());
        }
        let reused = execute_reusable(&EspressoLike::new(), &input, config(), &mut stack);
        assert_eq!(fresh, reused, "recycled arena leaked state into the run");
    }

    #[test]
    fn history_is_captured_when_tracked() {
        let mut config = RunConfig::with_seed(9);
        config.diefast = DieFastConfig::cumulative_with_seed(9);
        let rec = execute(&EspressoLike::new(), &WorkloadInput::with_seed(2), config);
        let history = rec.history.expect("history enabled");
        assert_eq!(history.len() as u64, rec.clock.raw());
    }
}
