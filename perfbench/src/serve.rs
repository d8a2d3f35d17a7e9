//! `serve`: clean squid-cache traffic over localhost TCP.
//!
//! Two connections in a closed loop, each keeping [`DEPTH`] jobs in
//! flight, against a [`NetFrontend`] with the default configuration
//! except self-patching and patch sharing (off, as the determinism pin
//! requires). Several servers are set up and torn down before the
//! measured one, so set-up is measured several times. Every outcome
//! digest is checked against an in-process serial [`ReplicaPool`] replay
//! of the same input under the same global sequence number.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use exterminator::pool::ReplicaPool;
use xt_net::{NetClient, NetConfig, NetFrontend};
use xt_obs::RegistrySnapshot;
use xt_patch::PatchTable;
use xt_workloads::{multi_client_sessions, SquidLike, WorkloadInput};

use crate::common::{paired_run, peak_rss_mb, spread_note, Pass};
use crate::stats::{Metric, Samples};
use crate::trace::Tracer;

pub const CLIENTS: usize = 2;
pub const DEPTH: usize = 4;
pub const REQUESTS_PER_JOB: usize = 6;
/// Inputs per client stream; the closed loop cycles through them.
const STREAM: usize = 2048;
/// Warm-up jobs per connection, part of set-up.
const WARMUP: usize = 32;
/// Jobs per connection per second that bookkeeping reserves room for up
/// front (above the ~5k seen), so it does not reallocate while measuring
/// and its memory in `peak_rss_mb` grows only with the jobs run.
const JOBS_PER_S_HINT: f64 = 8_000.0;
/// Outcomes in flight in the serial replay pool.
const REPLAY_WINDOW: usize = 64;

/// The serve corpus for `seed`: `multi_client_sessions(2, N, 6, None)`
/// with every stream started a seed-derived 0..256 batches in (a small
/// range, so generating the skipped prefix costs little memory).
pub fn corpus(seed: u64) -> Vec<Vec<WorkloadInput>> {
    let off = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize;
    multi_client_sessions(CLIENTS, off + STREAM, REQUESTS_PER_JOB, None)
        .into_iter()
        .map(|stream| stream[off..].to_vec())
        .collect()
}

pub fn net_config() -> NetConfig {
    let mut config = NetConfig::default();
    config.frontend.pool.auto_patch = false;
    config.frontend.share_isolated = false;
    config
}

/// One completed job, kept compact: the run holds one per job until the
/// replay checks it, and that memory shows in `peak_rss_mb`.
struct Done {
    digest: u128,
    seq: u64,
    client: u32,
    idx: u32,
    job_ms: f32,
    verdict_ms: f32,
    accept_us: f32,
    outcome_us: f32,
    timed: bool,
}

struct Inflight {
    ticket: xt_net::NetTicket,
    idx: usize,
    t0: Instant,
    accepted: Instant,
    root: Option<crate::trace::Open>,
}

/// Runs one connection's closed loop from stream index `start`: until
/// `deadline` if given, else for `count` jobs. Returns completed jobs and
/// the number of failed operations.
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &NetClient,
    c: usize,
    stream: &[WorkloadInput],
    start: usize,
    deadline: Option<Instant>,
    count: usize,
    tracer: Option<&Tracer>,
    session: u64,
) -> (Vec<Done>, u64) {
    let mut done = Vec::with_capacity(deadline.map_or(count, |d| {
        let left = d.saturating_duration_since(Instant::now());
        (left.as_secs_f64() * JOBS_PER_S_HINT) as usize
    }));
    let mut failed = 0;
    let mut inflight: VecDeque<Inflight> = VecDeque::new();
    let mut issued = 0usize;
    let timed = deadline.is_some();
    loop {
        while inflight.len() < DEPTH
            && deadline.map_or(issued < count, |d| Instant::now() < d)
            && failed == 0
        {
            let idx = (start + issued) % stream.len();
            issued += 1;
            let t0 = Instant::now();
            let root = tracer.map(|t| t.open("serve.job", 0, 0));
            let accept = tracer.map(|t| t.open("net.accept", 0, root.map_or(0, |r| r.id)));
            match client.submit(&stream[idx], None) {
                Ok(ticket) => {
                    let accepted = Instant::now();
                    let trace = (session << 32) | ticket.job();
                    let root = root.map(|mut r| {
                        r.trace = trace;
                        r
                    });
                    if let (Some(t), Some(mut a)) = (tracer, accept) {
                        a.trace = trace;
                        t.close(a);
                    }
                    inflight.push_back(Inflight {
                        ticket,
                        idx,
                        t0,
                        accepted,
                        root,
                    });
                }
                Err(e) => {
                    eprintln!("serve: submit failed: {e}");
                    failed += 1;
                }
            }
        }
        let Some(job) = inflight.pop_front() else {
            break;
        };
        let parent = job.root.map_or(0, |r| r.id);
        let trace = job.root.map_or(0, |r| r.trace);
        let v = tracer.map(|t| t.open("net.verdict", trace, parent));
        let verdict = job.ticket.wait_verdict();
        let verdict_at = Instant::now();
        if let (Some(t), Some(v)) = (tracer, v) {
            t.close(v);
        }
        let w = tracer.map(|t| t.open("net.outcome", trace, parent));
        let seq = job.ticket.job();
        let outcome = job.ticket.wait();
        let end = Instant::now();
        if let (Some(t), Some(w)) = (tracer, w) {
            t.close(w);
        }
        if let (Some(t), Some(r)) = (tracer, job.root) {
            t.close(r);
        }
        match (verdict, outcome) {
            (Ok(_), Ok(outcome)) => done.push(Done {
                digest: outcome.digest,
                seq,
                client: c as u32,
                idx: job.idx as u32,
                job_ms: (end - job.t0).as_secs_f32() * 1e3,
                verdict_ms: (verdict_at - job.t0).as_secs_f32() * 1e3,
                accept_us: (job.accepted - job.t0).as_secs_f32() * 1e6,
                outcome_us: (end - job.accepted).as_secs_f32() * 1e6,
                timed,
            }),
            (v, o) => {
                eprintln!(
                    "serve: job {seq} failed: {:?} / {:?}",
                    v.err(),
                    o.err().map(|e| e.to_string())
                );
                failed += 1;
            }
        }
    }
    (done, failed)
}

/// Replays `done` serially through one in-process pool, each job under
/// its own global sequence number, and counts digests that differ.
fn replay_mismatches(corpus: &[Vec<WorkloadInput>], done: &mut [Done]) -> u64 {
    done.sort_by_key(|d| d.seq);
    let workload = SquidLike::new();
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(
            scope,
            &workload,
            net_config().frontend.pool,
            PatchTable::new(),
        );
        let mut pending: VecDeque<&Done> = VecDeque::new();
        let mut mismatches = 0;
        let mut check = |pool: &mut ReplicaPool<'_>, pending: &mut VecDeque<&Done>| {
            let d = pending.pop_front().expect("a job is pending");
            let mut outcome = pool.next_outcome().expect("a job is in flight");
            outcome.job = d.seq;
            if outcome.deterministic_digest() != d.digest {
                mismatches += 1;
            }
        };
        for d in done.iter() {
            pool.submit_seeded(&corpus[d.client as usize][d.idx as usize], None, d.seq);
            pending.push_back(d);
            if pending.len() >= REPLAY_WINDOW {
                check(&mut pool, &mut pending);
            }
        }
        while !pending.is_empty() {
            check(&mut pool, &mut pending);
        }
        pool.shutdown();
        mismatches
    })
}

/// One server's lifetime.
struct Session {
    /// Bind, connects and warm-up.
    setup_s: f64,
    /// Warm-up and measured jobs, not yet checked.
    done: Vec<Done>,
    failed: u64,
    measured_s: f64,
    shutdown_ms: f64,
    /// The server's own instruments, pulled when tracing.
    snapshot: Option<RegistrySnapshot>,
}

/// Binds a fresh server, connects and warms up (the set-up), then runs
/// the closed loop for `measure` if given, and shuts the server down.
fn session(
    corpus: &[Vec<WorkloadInput>],
    measure: Option<Duration>,
    tracer: Option<&Tracer>,
    index: u64,
) -> Result<Session, String> {
    let t = Instant::now();
    let server = NetFrontend::bind(SquidLike::new(), "127.0.0.1:0", net_config())
        .map_err(|e| format!("bind failed: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| NetClient::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect failed: {e}"))?;
    let run_all = |deadline: Option<Instant>, start: usize, count: usize| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(c, client)| {
                    let stream = &corpus[c];
                    scope.spawn(move || {
                        drive(client, c, stream, start, deadline, count, tracer, index)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client thread panicked"))
                .collect::<Vec<_>>()
        })
    };
    let mut s = Session {
        setup_s: 0.0,
        done: Vec::with_capacity(
            CLIENTS
                * (WARMUP + (measure.map_or(0.0, |m| m.as_secs_f64()) * JOBS_PER_S_HINT) as usize),
        ),
        failed: 0,
        measured_s: 0.0,
        shutdown_ms: 0.0,
        snapshot: None,
    };
    for (d, f) in run_all(None, 0, WARMUP) {
        s.failed += f;
        s.done.extend(d);
    }
    s.setup_s = t.elapsed().as_secs_f64();
    if let Some(window) = measure {
        let start = Instant::now();
        for (d, f) in run_all(Some(start + window), WARMUP, 0) {
            s.failed += f;
            s.done.extend(d);
        }
        s.measured_s = start.elapsed().as_secs_f64();
    }
    if tracer.is_some() {
        s.snapshot = clients[0]
            .pull_metrics()
            .map_err(|e| eprintln!("serve: metrics pull failed: {e}"))
            .ok();
    }
    drop(clients);
    let t = Instant::now();
    server.shutdown();
    s.shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(s)
}

/// `setups` servers that only set up and warm up, then one that also
/// measures for `seconds`; `setup_s` is the median over all of them.
pub fn run(seed: u64, seconds: f64, setups: usize, tracer: Option<&Tracer>) -> Pass {
    let corpus = corpus(seed);
    let mut pass = Pass::default();
    // The heap stack against the baseline on the same corpus, paired,
    // before any server has run in this process.
    let workload = SquidLike::new();
    let mut ratios = Samples::new();
    let pairs_until = Instant::now() + Duration::from_secs_f64((seconds * 0.1).clamp(0.2, 2.0));
    let mut k = 0u64;
    while Instant::now() < pairs_until {
        let input = &corpus[(k % 2) as usize][(k / 2) as usize % STREAM];
        pass.attempted += 1;
        match paired_run(&workload, input, k) {
            Some((base, ext)) => ratios.push(ext / base),
            None => pass.failed += 1,
        }
        k += 1;
    }

    let (mut setup_s, mut shutdown_ms) = (Samples::new(), Samples::new());
    let mut measured: Option<Session> = None;
    for k in 0..=setups {
        let measure = (k == setups).then(|| Duration::from_secs_f64(seconds));
        match session(&corpus, measure, tracer, k as u64) {
            Ok(mut s) => {
                let mismatches = replay_mismatches(&corpus, &mut s.done);
                if mismatches > 0 {
                    eprintln!("serve: {mismatches} outcome(s) differ from the serial replay");
                }
                pass.attempted += s.done.len() as u64 + s.failed;
                pass.failed += s.failed + mismatches;
                setup_s.push(s.setup_s);
                shutdown_ms.push(s.shutdown_ms);
                if measure.is_some() {
                    measured = Some(s);
                }
            }
            Err(e) => {
                eprintln!("serve: {e}");
                pass.attempted += 1;
                pass.failed += 1;
            }
        }
    }
    let (mut job_ms, mut verdict_ms, mut accept_us, mut outcome_us) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut measured_jobs, mut measured_s, mut snapshot) = (0, f64::NAN, None);
    if let Some(s) = measured {
        for d in s.done.iter().filter(|d| d.timed) {
            job_ms.push(f64::from(d.job_ms));
            verdict_ms.push(f64::from(d.verdict_ms));
            accept_us.push(f64::from(d.accept_us));
            outcome_us.push(f64::from(d.outcome_us));
        }
        measured_jobs = job_ms.len();
        measured_s = s.measured_s;
        snapshot = s.snapshot.map(|snap| (snap, s.done.len() as u64));
    }

    let jobs_per_s = measured_jobs as f64 / measured_s;
    pass.ops_per_s = jobs_per_s;
    let rss = peak_rss_mb();
    pass.end_to_end = vec![
        Metric::new("setup_s", setup_s.median(), "s", setup_s.len())
            .note("bind + 2 connects + 32 warm-up jobs per connection, per server"),
        Metric::new("ops_per_s", jobs_per_s, "1/s", measured_jobs).note("jobs/s"),
        Metric::new("op_ms_p50", job_ms.median(), "ms", job_ms.len()).note("job submit -> outcome"),
        Metric::new("op_ms_tail", job_ms.quantile(0.95), "ms", job_ms.len()).note("job p95"),
        Metric::new("overhead_x", ratios.median(), "x", ratios.len())
            .note("stack/baseline time per squid input, median of pairs"),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    pass.named = vec![
        Metric::new("jobs_per_s", jobs_per_s, "jobs/s", measured_jobs),
        Metric::new("job_ms_p50", job_ms.median(), "ms", job_ms.len()),
        Metric::new("job_ms_p95", job_ms.quantile(0.95), "ms", job_ms.len()).note(format!(
            "p75 {:.3}, p90 {:.3}, p99 {:.3}",
            job_ms.quantile(0.75),
            job_ms.quantile(0.9),
            job_ms.quantile(0.99)
        )),
        Metric::new(
            "verdict_ms_p50",
            verdict_ms.median(),
            "ms",
            verdict_ms.len(),
        )
        .note(spread_note(&verdict_ms, 0.95, "ms")),
        Metric::new("setup_s", setup_s.median(), "s", setup_s.len()),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    if tracer.is_some() {
        pass.layers = vec![
            Metric::new("net.accept_us", accept_us.median(), "us", accept_us.len())
                .note(spread_note(&accept_us, 0.95, "us")),
            Metric::new(
                "net.outcome_us",
                outcome_us.median(),
                "us",
                outcome_us.len(),
            )
            .note(spread_note(&outcome_us, 0.95, "us")),
            Metric::new(
                "net.serve_shutdown_ms",
                shutdown_ms.median(),
                "ms",
                shutdown_ms.len(),
            ),
        ];
        if let Some((snap, jobs)) = &snapshot {
            pass.layers.extend(server_layers(snap, *jobs));
        }
    }
    pass
}

/// Exact counters and 2x-coarse server histograms from a metrics pull.
fn server_layers(snapshot: &RegistrySnapshot, jobs: u64) -> Vec<Metric> {
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let frames = counter("net/frames_in") + counter("net/frames_out");
    let mut out = vec![
        Metric::new(
            "net.frames_per_job",
            frames as f64 / jobs.max(1) as f64,
            "frames",
            jobs as usize,
        )
        .note(format!(
            "frames_in {} + frames_out {}",
            counter("net/frames_in"),
            counter("net/frames_out")
        )),
        Metric::new(
            "net.pushes_dropped",
            counter("net/pushes_dropped") as f64,
            "count",
            1,
        ),
    ];
    for (name, metric) in [
        ("frontend/queue_wait", "server.queue_wait_p50_us"),
        ("frontend/exec", "server.exec_p50_us"),
        ("pool/capture", "server.capture_p50_us"),
    ] {
        if let Some(h) = snapshot.histogram(name) {
            out.push(
                Metric::new(metric, h.p50() as f64 / 1e3, "us-pow2", h.count() as usize)
                    .note(format!("{name}: power-of-two bucket bound, up to 2x high")),
            );
        }
    }
    out
}
