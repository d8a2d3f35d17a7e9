//! Pieces every workload shares: the result of one workload pass, the
//! paired baseline/Exterminator comparison, and process-level readings.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use xt_workloads::{Workload, WorkloadInput};

use crate::stats::{Metric, Samples};
use crate::trace::{traced, Tracer};

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Operations attempted and failed (a failure is a transport or
    /// remote error, a wrong output, or a heal cycle that never heals).
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists as end-to-end, in its order.
    pub end_to_end: Vec<Metric>,
    /// The same figures under the names a reader of the paper knows
    /// (jobs/s, heal time, Fig. 7 overhead), with sample counts.
    pub named: Vec<Metric>,
    /// Per-layer figures this pass observed (traced passes only).
    pub layers: Vec<Metric>,
    /// Operations per second, the figure tracing overhead is judged on.
    pub ops_per_s: f64,
}

/// One paired sample: the baseline heap and the Exterminator stack run
/// the same input back to back (as `fig7_table` does), so machine-wide
/// noise hits both sides alike. `None` when either side crashed or the
/// two outputs differ.
pub fn paired_run(w: &dyn Workload, input: &WorkloadInput, round: u64) -> Option<(f64, f64)> {
    paired_run_traced(w, input, round, None, 0, 0)
}

/// [`paired_run`] with a span around each side when tracing.
pub fn paired_run_traced(
    w: &dyn Workload,
    input: &WorkloadInput,
    round: u64,
    tracer: Option<&Tracer>,
    trace: u64,
    parent: u64,
) -> Option<(f64, f64)> {
    let t = Instant::now();
    let base = traced(tracer, "baseline.run_on", trace, parent, || {
        catch_unwind(AssertUnwindSafe(|| {
            bench::run_on_baseline(w, input, 1 + round)
        }))
    })
    .ok()?;
    let base_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ext = traced(tracer, "stack.run_on", trace, parent, || {
        catch_unwind(AssertUnwindSafe(|| {
            bench::run_on_exterminator(w, input, 2 + round)
        }))
    })
    .ok()?;
    let ext_s = t.elapsed().as_secs_f64();
    (base.output == ext.output).then_some((base_s, ext_s))
}

/// Peak resident set of this process in MB (`VmHWM`), NaN if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch space inside the working directory (the checkout the
/// benchmark runs from): the fleet rung's WAL directories and the span
/// files.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A sample set's median and `q`-quantile, as a metric's note.
pub fn spread_note(s: &Samples, q: f64, unit: &str) -> String {
    format!(
        "p50 {:.3}{unit}, p{:.0} {:.3}{unit}",
        s.median(),
        q * 100.0,
        s.quantile(q)
    )
}
