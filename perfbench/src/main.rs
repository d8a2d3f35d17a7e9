//! The repository benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload serve|heal|fig7 --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines before it are a readable
//! report: environment, the metrics under their paper names with sample
//! counts, and (traced) each span name's median self time. See
//! `perfbench/NOTES.md` for what each workload and metric means.

mod common;
mod counting;
mod fig7;
mod heal;
mod ladder;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use common::{work_dir, Pass};
use stats::{print_table, result_line, Metric};
use trace::Tracer;

/// Extra serve servers an untraced run sets up (and tears down) before
/// the measured one, so `setup_s` is a median of several.
const SERVE_SETUPS: usize = 5;

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_tail",
    "overhead_x",
    "peak_rss_mb",
];

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 46] = [
    "baseline.new_us",
    "baseline.run_us",
    "baseline.fig7_run_us",
    "stack.input_us",
    "stack.fig7_run_us",
    "heap.mallocs_per_input",
    "heap.frees_per_input",
    "heap.malloc_ns",
    "heap.free_ns",
    "heap.fig7_mallocs_per_run",
    "heap.fig7_frees_per_run",
    "heap.fig7_malloc_ns",
    "heap.fig7_free_ns",
    "arena.mapped_kb_per_input",
    "arena.dirty_pages_per_input",
    "arena.fig7_mapped_kb_per_run",
    "arena.fig7_dirty_pages_per_run",
    "pool1.input_us",
    "pool.input_us",
    "pool.verdict_us",
    "pool.full_us",
    "pool.outstanding_at_verdict",
    "frontend.input_us",
    "frontend.submit_block_us",
    "frontend.backpressure_waits",
    "net.accept_us",
    "net.outcome_us",
    "net.report_rtt_us",
    "net.epoch_pull_us",
    "net.frames_per_job",
    "net.pushes_dropped",
    "net.shutdown_ms",
    "cumulative.probe_us",
    "fleet.ingest_us",
    "fleet.durable_ingest_us",
    "fleet.publish_us",
    "fleet.reports_per_wal_batch",
    "correct.pads_applied",
    "correct.bytes_padded",
    "heal.jobs_to_fix",
    "heal.reports_to_fix",
    "server.queue_wait_p50_us",
    "server.exec_p50_us",
    "server.capture_p50_us",
    "server.fleet_ingest_p50_us",
    "trace.overhead_pct",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Serve,
    Heal,
    Fig7,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Heal => "heal",
            Workload::Fig7 => "fig7",
        }
    }

    /// Why the workload is in the benchmark (as `BENCHMARK.json` says).
    fn why(self) -> &'static str {
        match self {
            Workload::Serve => "closed-loop squid traffic over TCP, 2 connections x 4 in flight: heaps, pool, front-end and net do the work; the bypass case for fleet and correction changes",
            Workload::Heal => "repeated §6.4 correction cycles over TCP: the only workload where detection, probes, fleet ingest with a WAL, epoch delivery and patched runs happen",
            Workload::Fig7 => "the paper's Fig. 7 in process: heaps far bigger than squid's on baseline vs DieFast+correcting stack; the bypass case for pool and net changes",
        }
    }

    /// One pass of `seconds`; `setups` extra serve set-ups before it.
    fn run(self, seed: u64, seconds: f64, setups: usize, tracer: Option<&Tracer>) -> Pass {
        match self {
            Workload::Serve => serve::run(seed, seconds, setups, tracer),
            Workload::Heal => heal::run(seed, seconds, tracer).pass,
            Workload::Fig7 => fig7::run(seed, seconds, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve" => Workload::Serve,
                    "heal" => Workload::Heal,
                    "fig7" => Workload::Fig7,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn print_env(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# env: nproc={cores} profile={} workload={} seed={} seconds={} trace={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# why {}: {}", args.workload.name(), args.workload.why());
}

fn pick(metrics: &[Metric], names: &[&str]) -> Vec<Metric> {
    names
        .iter()
        .map(|name| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| {
                    eprintln!("metric {name} was not measured");
                    Metric::new(name, f64::NAN, "?", 0)
                })
        })
        .collect()
}

fn untraced(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let pass = args
        .workload
        .run(args.seed, args.seconds, SERVE_SETUPS, None);
    let failed_frac = pass.failed as f64 / pass.attempted.max(1) as f64;
    let mut named = pass.named.clone();
    named.push(
        Metric::new("failed_frac", failed_frac, "ratio", pass.attempted as usize)
            .note(format!("{} of {} failed", pass.failed, pass.attempted)),
    );
    print_table(&format!("{} (paper names)", args.workload.name()), &named);
    let e2e = pick(&pass.end_to_end, &END_TO_END);
    print_table("end-to-end", &e2e);
    let ok = pass.failed == 0 && e2e.iter().all(|m| m.value.is_finite());
    (ok, pass.attempted, pass.failed, e2e)
}

fn traced_run(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    // A quarter of the run each: traced passes of all three workloads
    // (so every layer is measured whatever the workload), the workload
    // untraced, then the in-process ladder and fleet rungs.
    let share = args.seconds / 4.0;
    let seed = args.seed;
    let mut total = Pass::default();
    let mut layers: Vec<Metric> = Vec::new();
    let absorb = |p: &Pass, total: &mut Pass, layers: &mut Vec<Metric>| {
        total.attempted += p.attempted;
        total.failed += p.failed;
        layers.extend(p.layers.iter().cloned());
    };
    let dir = work_dir();
    let mut traced_ops = 0.0;
    let mut reports = Vec::new();
    for w in [Workload::Serve, Workload::Heal, Workload::Fig7] {
        let tracer = Tracer::new();
        let pass = match w {
            Workload::Heal => {
                let h = heal::run(seed, share, Some(&tracer));
                reports = h.report_bytes;
                h.pass
            }
            _ => w.run(seed, share, 0, Some(&tracer)),
        };
        if w == args.workload {
            traced_ops = pass.ops_per_s;
        }
        absorb(&pass, &mut total, &mut layers);
        finish_tracer(&tracer, &dir, w.name(), args.workload.name());
    }
    // Untraced after the traced passes, so neither side runs cold.
    let plain = args.workload.run(seed, share, 0, None);
    absorb(&plain, &mut total, &mut layers);
    let tracer = Tracer::new();
    let ladder = ladder::run(seed, &tracer);
    absorb(&ladder, &mut total, &mut layers);
    finish_tracer(&tracer, &dir, "ladder", args.workload.name());
    let tracer = Tracer::new();
    let fleet = ladder::run_fleet(&reports, &tracer);
    absorb(&fleet, &mut total, &mut layers);
    finish_tracer(&tracer, &dir, "fleet", args.workload.name());

    let overhead = (plain.ops_per_s / traced_ops - 1.0) * 100.0;
    layers.push(
        Metric::new("trace.overhead_pct", overhead, "%", 2).note(format!(
            "{}: untraced {:.2} ops/s vs traced {:.2} ops/s",
            args.workload.name(),
            plain.ops_per_s,
            traced_ops
        )),
    );
    print_table("per-layer (all measured)", &layers);
    let picked = pick(&layers, &PER_LAYER);
    let ok = total.failed == 0 && picked.iter().all(|m| m.value.is_finite());
    (ok, total.attempted, total.failed, picked)
}

/// Writes a pass's spans out and prints each span name's self time.
fn finish_tracer(tracer: &Tracer, dir: &std::path::Path, pass: &str, workload: &str) {
    let path = dir.join(format!("spans-{workload}-{pass}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!(
        "## spans of the {pass} pass (written to {})",
        path.display()
    );
    for (name, n, dur, own) in tracer.self_time_table() {
        println!("  {name:<24} n={n:<7} median {dur:>10.2}us  self {own:>10.2}us");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    print_env(&args);
    let (correct, attempted, failed, metrics) = if args.trace {
        traced_run(&args)
    } else {
        untraced(&args)
    };
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
