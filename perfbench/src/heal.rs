//! `heal`: repeated cycles of the §6.4 correction loop over the wire,
//! as `examples/net_service.rs` runs it once.
//!
//! Each cycle binds a fresh server whose fleet logs every report to a
//! WAL, connects one client, and submits the espresso attack (the
//! screened 20-byte overflow at allocation 239). On every detected
//! failure the client runs 8 `summarized_run` probes and ships their
//! `XTR1` reports; then it pulls the epoch and resubmits, until the
//! attack is served clean. Teardown runs on a background thread: a
//! server's shutdown waits out the epoch watcher's poll interval, which
//! would otherwise dominate the cycle's wall time (see `NOTES.md`).
//!
//! The WAL lives in `MemStorage`: on a shared disk, `fsync` latency
//! moved the median cycle by a fifth from one minute to the next, more
//! than any bound a later change could be held to. The disk-backed
//! append is timed on its own by the ladder's `fleet.durable_ingest_us`
//! rung (`DurableFleet` on `DirStorage`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use exterminator::frontend::FrontendConfig;
use exterminator::pool::PoolConfig;
use exterminator::summarized_run;
use xt_alloc::AllocTime;
use xt_correct::{CorrectingHeap, CorrectionStats};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_faults::{FaultKind, FaultSpec, FaultyHeap};
use xt_fleet::{DurabilityConfig, FleetConfig, MemStorage, RunReport};
use xt_net::{NetClient, NetConfig, NetDurability, NetFrontend};
use xt_obs::RegistrySnapshot;
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, Workload, WorkloadInput};

use crate::common::{paired_run, peak_rss_mb, spread_note, Pass};
use crate::stats::{Metric, Samples};
use crate::trace::Tracer;

/// Rounds (attack submissions) a cycle may take before it counts as
/// never healing.
const ROUND_CAP: usize = 40;
/// Probes (and reports) per detected failure.
const PROBES: u32 = 8;
/// Teardowns allowed to run at once before the loop waits for one.
const MAX_TEARDOWNS: usize = 8;

pub fn attack_input() -> WorkloadInput {
    WorkloadInput::with_seed(21).intensity(3)
}

pub fn attack_fault() -> FaultSpec {
    FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 20,
            fill: 0xEE,
        },
        trigger: AllocTime::from_raw(239),
    }
}

/// The fleet configuration of `examples/net_service.rs`.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 4,
        publish_every: 8,
        ..FleetConfig::default()
    }
}

fn net_config(seed: u64) -> NetConfig {
    NetConfig {
        frontend: FrontendConfig {
            pools: 2,
            pool: PoolConfig {
                replicas: 3,
                auto_patch: false,
                base_seed: PoolConfig::default().base_seed ^ seed,
                ..PoolConfig::default()
            },
            share_isolated: false,
            ..FrontendConfig::default()
        },
        fleet: fleet_config(),
        durability: Some(NetDurability {
            storage: Arc::new(MemStorage::new()),
            config: DurabilityConfig::default(),
        }),
        ..NetConfig::default()
    }
}

/// Heap seed of the client's `n`-th probe, as in `examples/net_service.rs`.
/// The probes' evidence decides how many reports correction needs, so
/// they do not follow the benchmark seed: every run does the same work.
fn probe_seed(n: u32) -> u64 {
    0xF1EE7 ^ (u64::from(n) << 8)
}

/// What one cycle observed.
#[derive(Default)]
struct Cycle {
    ok: bool,
    setup_s: f64,
    heal_ms: f64,
    jobs: u64,
    reports: u64,
    accept_us: Vec<f64>,
    report_us: Vec<f64>,
    pull_us: Vec<f64>,
    probe_us: Vec<f64>,
    patches: PatchTable,
    report_bytes: Vec<Vec<u8>>,
    snapshot: Option<RegistrySnapshot>,
}

/// Runs one cycle; hands the server to `teardown` when done.
fn cycle<'s>(
    index: u64,
    seed: u64,
    reference: &[u8],
    tracer: Option<&'s Tracer>,
    teardown: &mut Teardown<'s, '_>,
) -> Cycle {
    let mut out = Cycle::default();
    let workload = EspressoLike::new();
    let input = attack_input();
    let fault = attack_fault();
    let fill = fleet_config().isolator.fill_probability;

    let t = Instant::now();
    let server = match NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(seed)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("heal: bind failed: {e}");
            return out;
        }
    };
    let client = match NetClient::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("heal: connect failed: {e}");
            teardown.push(server, tracer, index);
            return out;
        }
    };
    out.setup_s = t.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let root = tracer.map(|t| t.open("heal.cycle", index, 0));
    let parent = root.map_or(0, |r| r.id);
    let span = |name: &'static str| tracer.map(|t| t.open(name, index, parent));
    let close = |open: Option<crate::trace::Open>| -> f64 {
        match (tracer, open) {
            (Some(t), Some(o)) => t.close(o).dur_ns() as f64 / 1e3,
            _ => 0.0,
        }
    };
    let mut epoch = 0u64;
    let mut next_seq = 0u32;
    let result: Result<bool, String> = (|| {
        for _ in 0..ROUND_CAP {
            let s = span("net.epoch_pull");
            let pulled = client.pull_epoch(epoch).map_err(|e| e.to_string())?;
            out.pull_us.push(close(s));
            if let Some(newer) = pulled {
                epoch = newer.number;
                out.patches.merge(&newer.patches);
            }
            let s = span("net.accept");
            let ticket = client
                .submit(&input, Some(fault))
                .map_err(|e| e.to_string())?;
            out.accept_us.push(close(s));
            let s = span("net.verdict");
            ticket.wait_verdict().map_err(|e| e.to_string())?;
            close(s);
            let s = span("net.outcome");
            let outcome = ticket.wait().map_err(|e| e.to_string())?;
            close(s);
            if outcome.error_observed {
                out.jobs += 1;
                for _ in 0..PROBES {
                    let s = span("cumulative.probe");
                    let run = summarized_run(
                        &workload,
                        &input,
                        Some(fault),
                        out.patches.clone(),
                        probe_seed(next_seq),
                        fill,
                        2.0,
                    );
                    out.probe_us.push(close(s));
                    let report = RunReport::from_summary(1, next_seq, &run.summary);
                    next_seq += 1;
                    if tracer.is_some() {
                        out.report_bytes.push(report.encode());
                    }
                    let s = span("net.report");
                    client.ingest_report(&report).map_err(|e| e.to_string())?;
                    out.report_us.push(close(s));
                    out.reports += 1;
                }
            } else if !out.patches.is_empty() {
                if outcome.winner != reference {
                    return Err("healed outcome differs from a fault-free run".into());
                }
                return Ok(true);
            }
        }
        Ok(false)
    })();
    out.heal_ms = t0.elapsed().as_secs_f64() * 1e3;
    close(root);
    out.ok = match result {
        Ok(true) => {
            let padded = out.patches.pads().any(|(_, pad)| pad >= 20);
            if !padded {
                eprintln!("heal: cycle {index} healed without a pad of >= 20 bytes");
            }
            padded
        }
        Ok(false) => {
            eprintln!("heal: cycle {index} did not heal within {ROUND_CAP} rounds");
            false
        }
        Err(e) => {
            eprintln!("heal: cycle {index} failed: {e}");
            false
        }
    };
    if tracer.is_some() {
        out.snapshot = client.pull_metrics().ok();
    }
    drop(client);
    teardown.push(server, tracer, index);
    out
}

/// Background server teardown, a bounded number at a time.
struct Teardown<'s, 'e> {
    scope: &'s std::thread::Scope<'s, 'e>,
    pending: VecDeque<ScopedJoinHandle<'s, f64>>,
    shutdown_ms: Samples,
}

impl<'s> Teardown<'s, '_> {
    fn push(&mut self, server: NetFrontend, tracer: Option<&'s Tracer>, index: u64) {
        while self.pending.len() >= MAX_TEARDOWNS {
            self.join_oldest();
        }
        self.pending.push_back(self.scope.spawn(move || {
            let open = tracer.map(|t| t.open("net.shutdown", index, 0));
            let t = Instant::now();
            server.shutdown();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let (Some(t), Some(o)) = (tracer, open) {
                t.close(o);
            }
            ms
        }));
    }

    fn join_oldest(&mut self) {
        if let Some(h) = self.pending.pop_front() {
            match h.join() {
                Ok(ms) => self.shutdown_ms.push(ms),
                Err(_) => eprintln!("heal: a server shutdown panicked"),
            }
        }
    }
}

/// The correcting allocator's accounting for the attack run under the
/// healed patch table (§7.3's space overhead).
fn patched_run_stats(patches: &PatchTable, seed: u64) -> CorrectionStats {
    let diefast = DieFastHeap::new(DieFastConfig::with_seed(seed));
    let mut heap = FaultyHeap::new(
        CorrectingHeap::new(diefast, patches.clone()),
        Some(attack_fault()),
    );
    let _ = EspressoLike::new().run(&mut heap, &attack_input());
    heap.inner().stats()
}

/// Reports of one cycle, kept for the fleet-layer rungs of the ladder.
pub struct HealPass {
    pub pass: Pass,
    pub report_bytes: Vec<Vec<u8>>,
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> HealPass {
    // The fault-free output a healed attack must reproduce; if even that
    // run fails, every cycle fails its check.
    let reference = std::panic::catch_unwind(|| {
        bench::run_on_exterminator(&EspressoLike::new(), &attack_input(), seed).output
    })
    .unwrap_or_default();
    let mut pass = Pass::default();
    let (mut setup_s, mut heal_ms) = (Samples::new(), Samples::new());
    let (mut accept_us, mut report_us, mut pull_us, mut probe_us) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let mut ratios = Samples::new();
    let mut counts: Vec<(u64, u64)> = Vec::new();
    let mut busy_s = 0.0;
    let mut first: Option<Cycle> = None;
    let mut wal = (0u64, 0u64, 0u64);
    let mut histograms: Vec<(String, xt_obs::HistogramSnapshot)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let shutdown_ms = std::thread::scope(|scope| {
        let mut teardown = Teardown {
            scope,
            pending: VecDeque::new(),
            shutdown_ms: Samples::new(),
        };
        let mut index = 0u64;
        while index == 0 || Instant::now() < deadline {
            let c = cycle(index, seed, &reference, tracer, &mut teardown);
            pass.attempted += 1;
            if c.ok {
                setup_s.push(c.setup_s);
                heal_ms.push(c.heal_ms);
                busy_s += c.setup_s + c.heal_ms / 1e3;
                counts.push((c.jobs, c.reports));
            } else {
                pass.failed += 1;
            }
            if tracer.is_some() {
                for (v, s) in [
                    (&c.accept_us, &mut accept_us),
                    (&c.report_us, &mut report_us),
                    (&c.pull_us, &mut pull_us),
                    (&c.probe_us, &mut probe_us),
                ] {
                    for &x in v {
                        s.push(x);
                    }
                }
                if let Some(snap) = &c.snapshot {
                    wal.0 += snap.counter("fleet/wal_appends").unwrap_or(0);
                    wal.1 += snap.counter("fleet/wal_batches").unwrap_or(0);
                    wal.2 += snap.counter("fleet/reports").unwrap_or(0);
                    if let Some(h) = snap.histogram("fleet/ingest") {
                        match histograms.iter_mut().find(|(n, _)| n == "fleet/ingest") {
                            Some((_, acc)) => acc.merge(h),
                            None => histograms.push(("fleet/ingest".into(), h.clone())),
                        }
                    }
                }
            }
            // Fig. 7-style pairing on the attack input without the fault,
            // outside the cycle's timing.
            pass.attempted += 1;
            match paired_run(&EspressoLike::new(), &attack_input(), index) {
                Some((b, e)) => ratios.push(e / b),
                None => pass.failed += 1,
            }
            if first.is_none() && c.ok {
                first = Some(c);
            }
            index += 1;
        }
        while !teardown.pending.is_empty() {
            teardown.join_oldest();
        }
        teardown.shutdown_ms
    });

    // Runs to correction must repeat exactly across cycles of one run.
    let (jobs, reports) = counts.first().copied().unwrap_or((0, 0));
    let inconsistent = counts.iter().filter(|&&c| c != (jobs, reports)).count() as u64;
    if inconsistent > 0 {
        eprintln!("heal: {inconsistent} cycle(s) needed a different number of jobs or reports");
    }
    pass.failed += inconsistent;

    let healed = heal_ms.len();
    let ops_per_s = healed as f64 / busy_s;
    pass.ops_per_s = ops_per_s;
    let rss = peak_rss_mb();
    pass.end_to_end = vec![
        Metric::new("setup_s", setup_s.median(), "s", setup_s.len())
            .note("per cycle: bind (incl. WAL open) + connect"),
        Metric::new("ops_per_s", ops_per_s, "1/s", healed).note("corrections/s"),
        Metric::new("op_ms_p50", heal_ms.median(), "ms", healed)
            .note("first attack submission -> attack served clean"),
        Metric::new("op_ms_tail", heal_ms.quantile(0.9), "ms", healed).note("heal p90"),
        Metric::new("overhead_x", ratios.median(), "x", ratios.len())
            .note("stack/baseline time on the attack input, fault-free"),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    pass.named = vec![
        Metric::new("heal_ms_p50", heal_ms.median(), "ms", healed),
        Metric::new("heal_ms_p90", heal_ms.quantile(0.9), "ms", healed).note(format!(
            "p10 {:.2}, p25 {:.2}, p75 {:.2}, p99 {:.2}",
            heal_ms.quantile(0.1),
            heal_ms.quantile(0.25),
            heal_ms.quantile(0.75),
            heal_ms.quantile(0.99)
        )),
        Metric::new("heal_jobs", jobs as f64, "count", counts.len())
            .note("failed attack jobs before correction"),
        Metric::new("heal_reports", reports as f64, "count", counts.len())
            .note("XTR1 reports before correction"),
        Metric::new("setup_s", setup_s.median(), "s", setup_s.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    let mut report_bytes = Vec::new();
    if tracer.is_some() {
        let stats = first
            .as_ref()
            .map(|c| patched_run_stats(&c.patches, seed))
            .unwrap_or_default();
        if let Some(c) = first {
            report_bytes = c.report_bytes;
        }
        pass.layers = vec![
            Metric::new(
                "net.report_rtt_us",
                report_us.median(),
                "us",
                report_us.len(),
            )
            .note(spread_note(&report_us, 0.95, "us")),
            Metric::new("net.epoch_pull_us", pull_us.median(), "us", pull_us.len())
                .note(spread_note(&pull_us, 0.95, "us")),
            Metric::new(
                "net.attack_accept_us",
                accept_us.median(),
                "us",
                accept_us.len(),
            ),
            Metric::new(
                "net.shutdown_ms",
                shutdown_ms.median(),
                "ms",
                shutdown_ms.len(),
            )
            .note(spread_note(&shutdown_ms, 0.95, "ms")),
            Metric::new(
                "cumulative.probe_us",
                probe_us.median(),
                "us",
                probe_us.len(),
            )
            .note(spread_note(&probe_us, 0.95, "us")),
            Metric::new(
                "fleet.reports_per_wal_batch",
                wal.0 as f64 / wal.1.max(1) as f64,
                "reports",
                wal.1 as usize,
            )
            .note(format!(
                "wal_appends {} / wal_batches {}; fleet/reports {}",
                wal.0, wal.1, wal.2
            )),
            Metric::new(
                "correct.pads_applied",
                stats.pads_applied as f64,
                "count",
                1,
            ),
            Metric::new(
                "correct.bytes_padded",
                stats.bytes_padded as f64,
                "bytes",
                1,
            ),
            Metric::new("heal.jobs_to_fix", jobs as f64, "count", counts.len()),
            Metric::new("heal.reports_to_fix", reports as f64, "count", counts.len()),
        ];
        for (name, h) in &histograms {
            pass.layers.push(
                Metric::new(
                    "server.fleet_ingest_p50_us",
                    h.p50() as f64 / 1e3,
                    "us-pow2",
                    h.count() as usize,
                )
                .note(format!("{name}: power-of-two bucket bound, up to 2x high")),
            );
        }
    }
    HealPass { pass, report_bytes }
}
