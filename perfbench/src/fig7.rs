//! `fig7`: the paper's Fig. 7 in process — every program of
//! `alloc_intensive_suite()` and `spec_suite()` run on the Lea-style
//! baseline and on the DieFast + correcting stack, back to back, as
//! `fig7_table` does. No service layer runs.

use std::time::{Duration, Instant};

use xt_workloads::{alloc_intensive_suite, spec_suite, Workload, WorkloadInput};

use crate::common::{paired_run_traced, peak_rss_mb, Pass};
use crate::ladder::{count_runs, CountSummary};
use crate::stats::{geomean, Metric, Samples};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn input(seed: u64) -> WorkloadInput {
    WorkloadInput::with_seed(seed).intensity(8)
}

fn suite() -> Vec<Box<dyn Workload>> {
    let mut all = alloc_intensive_suite();
    all.extend(spec_suite());
    all
}

/// One paired pass over every program; returns the Exterminator side's
/// total seconds, and adds each program's ratio to `ratios`.
fn one_pass(
    programs: &[Box<dyn Workload>],
    input: &WorkloadInput,
    round: u64,
    ratios: &mut [Samples],
    pass: &mut Pass,
    tracer: Option<&Tracer>,
) -> f64 {
    let root = tracer.map(|t| t.open("fig7.pass", round, 0));
    let mut ext_total = 0.0;
    for (i, w) in programs.iter().enumerate() {
        pass.attempted += 1;
        let parent = root.map_or(0, |r| r.id);
        match paired_run_traced(w.as_ref(), input, round, tracer, round, parent) {
            Some((base, ext)) => {
                ratios[i].push(ext / base);
                ext_total += ext;
            }
            None => {
                eprintln!("fig7: {} differs from the baseline or crashed", w.name());
                pass.failed += 1;
            }
        }
    }
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    ext_total
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Pass {
    let mut pass = Pass::default();
    let input = input(seed);
    let mut setup_s = Samples::new();
    let mut programs = Vec::new();
    for k in 0..SETUPS {
        let t = Instant::now();
        programs = suite();
        let mut scratch: Vec<Samples> = vec![Samples::new(); programs.len()];
        one_pass(
            &programs,
            &input,
            1000 + k as u64,
            &mut scratch,
            &mut pass,
            None,
        );
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut ratios: Vec<Samples> = vec![Samples::new(); programs.len()];
    let mut pass_ms = Samples::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        let ext = one_pass(&programs, &input, round, &mut ratios, &mut pass, tracer);
        pass_ms.push(ext * 1e3);
        round += 1;
    }
    let medians: Vec<f64> = ratios.iter().map(Samples::median).collect();
    let overhead = geomean(&medians);
    let n_alloc = alloc_intensive_suite().len();
    let split = (geomean(&medians[..n_alloc]), geomean(&medians[n_alloc..]));
    let passes_per_s = pass_ms.len() as f64 / (pass_ms.sum() / 1e3);
    let runs_per_s = passes_per_s * programs.len() as f64;
    pass.ops_per_s = passes_per_s;
    let rss = peak_rss_mb();
    pass.end_to_end = vec![
        Metric::new("setup_s", setup_s.median(), "s", setup_s.len())
            .note("suite construction + one paired warm-up pass"),
        Metric::new("ops_per_s", passes_per_s, "1/s", pass_ms.len()).note(format!(
            "passes of all {} programs on the stack /s",
            programs.len()
        )),
        Metric::new("op_ms_p50", pass_ms.median(), "ms", pass_ms.len()).note("stack time per pass"),
        Metric::new("op_ms_tail", pass_ms.quantile(0.9), "ms", pass_ms.len()).note("pass p90"),
        Metric::new("overhead_x", overhead, "x", pass_ms.len())
            .note("geomean over programs of the median paired ratio"),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    pass.named = vec![
        Metric::new(
            "runs_per_s",
            runs_per_s,
            "runs/s",
            pass_ms.len() * programs.len(),
        ),
        Metric::new("overhead_x", overhead, "x", programs.len()).note(format!(
            "alloc-intensive {:.3}x, SPEC-like {:.3}x (paper 1.81x / 1.07x / 1.25x)",
            split.0, split.1
        )),
        Metric::new("setup_s", setup_s.median(), "s", setup_s.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    if let Some(t) = tracer {
        let counts: CountSummary = count_runs(programs.iter().map(|w| (w.as_ref(), &input)), seed);
        let run_us = t.durations_us("stack.run_on");
        let base_us = t.durations_us("baseline.run_on");
        pass.layers = vec![
            Metric::new("stack.fig7_run_us", run_us.median(), "us", run_us.len()),
            Metric::new(
                "baseline.fig7_run_us",
                base_us.median(),
                "us",
                base_us.len(),
            ),
        ];
        pass.layers.extend(counts.metrics("fig7_", "run"));
    }
    pass
}
