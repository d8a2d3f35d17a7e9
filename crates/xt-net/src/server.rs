//! The network front door: a readiness-driven TCP server wrapping a
//! [`PoolFrontend`].
//!
//! One [`NetFrontend`] owns one [`PoolFrontend`] (K replica pools behind
//! bounded queues) plus one [`FleetService`], and serves both over
//! framed TCP connections. Since the event-loop rewrite the server is
//! **not** thread-per-connection: one poller thread owns every socket
//! and multiplexes them through [`xt_poll::Poller`] (epoll on Linux, a
//! portable level-triggered fallback elsewhere), so tens of thousands
//! of mostly-idle connections cost file descriptors and per-connection
//! state — not threads.
//!
//! * **Per-connection state machines.** Every socket is non-blocking.
//!   Incoming bytes accumulate in a per-connection read buffer and are
//!   cut into frames by [`Frame::parse_prefix`] (the incremental
//!   sibling of the blocking codec); outgoing frames queue in a
//!   per-connection write queue that drains on writability. Partial
//!   reads and partial writes are ordinary states, not errors.
//! * **Bounded everything (backpressure discipline preserved).** The
//!   accept path stops pulling from the kernel backlog at
//!   `max_connections` (the listener is deregistered until a slot
//!   frees — the event-loop analogue of the old blocking accept
//!   budget). Per connection, at most [`MAX_CONN_INFLIGHT`] worker
//!   jobs run concurrently and at most [`WRITE_QUEUE_SOFT`] reply
//!   bytes may be queued before the server simply *stops reading* that
//!   connection — TCP backpressure does the rest, exactly the
//!   burst-degrades-to-waiting discipline of the front-end's bounded
//!   queues. Epoch pushes to a client more than [`WRITE_QUEUE_HARD`]
//!   behind are dropped (counted in `net/pushes_dropped`); such a
//!   client still converges via [`Msg::EpochPull`].
//! * **A worker pool, so the poller never blocks.** Frame parsing and
//!   cheap pulls (epoch/health/metrics) are answered on the poller
//!   thread; [`Msg::Submit`] and [`Msg::Report`] — which block on
//!   bounded pool queues, replica execution, and WAL appends — are
//!   dispatched to a fixed pool of `workers` threads. A worker carries
//!   a submission end-to-end (accept → streamed verdict → finalized
//!   outcome), so each job's frames stay in order; completions return
//!   to the poller through a notify queue.
//! * **Determinism survives the wire.** Every submission goes through
//!   [`PoolFrontend::submit`], which assigns the global sequence number
//!   that seeds the replicas — so *which connection* carried an input,
//!   and how readiness events interleaved, decides only arrival order
//!   (nondeterminism a local concurrent submitter has too), never an
//!   outcome byte. `xt-net/tests/net.rs` pins remote outcomes
//!   byte-identical to in-process serial runs.
//! * **Server-pushed epochs.** An epoch watcher thread parks in
//!   [`FleetService::wait_epoch_newer`]; the moment a `PatchEpoch`
//!   publishes it loads the epoch into the server's own pools and fans
//!   a [`Msg::EpochPush`] frame down every live connection (per-push
//!   propagation latency lands in the `net/epoch_push` histogram).
//!   Remote reports still flow through the fleet service
//!   ([`Msg::Report`] → ingest → receipt), but the old
//!   per-report `latest()` poll in the bridge path is retired: the
//!   worker re-syncs the front-end only when a receipt proves the
//!   epoch number advanced, and clients get the new epoch pushed
//!   instead of polling for it.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exterminator::frontend::{FrontendConfig, PoolFrontend};
use xt_fleet::frame::Frame;
use xt_fleet::{
    bridge, DurabilityConfig, DurabilityError, DurableFleet, FleetConfig, FleetMetrics,
    FleetService, IngestReceipt, Storage,
};
use xt_obs::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use xt_patch::PatchTable;
use xt_poll::{Interest, Poller};
use xt_workloads::Workload;

use crate::proto::{Msg, SubmitJob, WireHealth, WireOutcome, WireReceipt, WireVerdict};

/// Upper bound on the poller's sleep, and the epoch watcher's backstop
/// park; shutdown wakes both directly rather than waiting this out.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// The poll token reserved for the listener; connections get tokens
/// from a monotone counter starting at 1 (never reused, so a late
/// worker completion can never reach a *different* connection).
const LISTENER_TOKEN: usize = 0;

/// Worker jobs in flight per connection before the poller stops
/// reading it (the event-loop analogue of the old one-reader-thread
/// natural limit; a pipelining client beyond this waits in TCP).
const MAX_CONN_INFLIGHT: usize = 64;

/// Queued write bytes per connection above which the poller stops
/// reading that connection (replies outstanding ≈ requests admitted).
const WRITE_QUEUE_SOFT: usize = 1 << 20;

/// Queued write bytes per connection above which unsolicited pushes
/// (epoch broadcasts) are dropped rather than queued. Replies are
/// never dropped — the soft cap stops producing them first.
const WRITE_QUEUE_HARD: usize = 4 << 20;

/// Bytes per non-blocking read pass.
const READ_CHUNK: usize = 16 * 1024;

/// Durable-mode configuration for a [`NetFrontend`]: where the fleet's
/// evidence WAL and snapshots live, and how often they compact.
#[derive(Clone)]
pub struct NetDurability {
    /// The storage the WAL and snapshots are written to (e.g.
    /// [`DirStorage`](xt_fleet::DirStorage) over a data directory).
    /// Binding *recovers* from whatever this storage holds before the
    /// first connection is accepted.
    pub storage: Arc<dyn Storage>,
    /// Snapshot cadence and WAL policy.
    pub config: DurabilityConfig,
}

impl std::fmt::Debug for NetDurability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetDurability")
            .field("storage", &"<dyn Storage>")
            .field("config", &self.config)
            .finish()
    }
}

/// Configuration for a [`NetFrontend`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The wrapped pool front-end (pools, replicas, queues, routing).
    pub frontend: FrontendConfig,
    /// The co-located fleet service reports are ingested into.
    pub fleet: FleetConfig,
    /// Connection budget: sockets served concurrently. Beyond it the
    /// listener is parked (backpressure into the kernel backlog), it
    /// does not spawn or grow anything.
    pub max_connections: usize,
    /// Blocking-work threads: submissions and report ingests run here
    /// so the poller thread never blocks on pool queues, replica
    /// execution, or WAL appends. Fixed size — the thread count does
    /// not scale with connections.
    pub workers: usize,
    /// Initial patch table the pools start from.
    pub patches: PatchTable,
    /// When set, the fleet service is wrapped in a
    /// [`DurableFleet`]: binding recovers the evidence state from
    /// storage, every remote report is WAL-logged before it folds, and a
    /// graceful shutdown writes a final compacted snapshot.
    pub durability: Option<NetDurability>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            frontend: FrontendConfig::default(),
            fleet: FleetConfig::default(),
            max_connections: 32,
            workers: 4,
            patches: PatchTable::new(),
            durability: None,
        }
    }
}

/// The server's fleet: either a bare in-memory service or the durable
/// wrapper. Reads go to the same [`FleetService`] either way; the split
/// exists so the ingest path can route through the WAL.
enum FleetBackend {
    Plain(Arc<FleetService>),
    Durable(DurableFleet<Arc<dyn Storage>>),
}

impl FleetBackend {
    fn service(&self) -> &FleetService {
        match self {
            FleetBackend::Plain(service) => service,
            FleetBackend::Durable(fleet) => fleet.service(),
        }
    }

    fn service_handle(&self) -> Arc<FleetService> {
        match self {
            FleetBackend::Plain(service) => Arc::clone(service),
            FleetBackend::Durable(fleet) => fleet.service_handle(),
        }
    }

    fn ingest(&self, bytes: &[u8]) -> Result<IngestReceipt, DurabilityError> {
        match self {
            FleetBackend::Plain(service) => Ok(service.ingest(bytes)?),
            FleetBackend::Durable(fleet) => fleet.ingest(bytes),
        }
    }

    fn metrics(&self) -> FleetMetrics {
        match self {
            FleetBackend::Plain(service) => service.metrics(),
            FleetBackend::Durable(fleet) => fleet.metrics(),
        }
    }
}

/// Aggregate server counters (monotone; read via [`NetFrontend::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Jobs submitted over the wire.
    pub jobs: u64,
    /// Run reports accepted into the fleet service.
    pub reports: u64,
    /// Frames or nested reports rejected as malformed or out of
    /// protocol.
    pub rejected: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    jobs: AtomicU64,
    reports: AtomicU64,
    rejected: AtomicU64,
}

/// The wire layer's own observability: frame traffic, server-side
/// request round-trip latency, live connections, write-queue depth,
/// epoch-push propagation, and the server's start instant (for
/// health-probe uptime). Purely operational — like every other
/// instrument, none of it feeds deterministic digests.
struct NetObs {
    registry: Arc<Registry>,
    /// Server-side request→reply latency (`net/wire_rtt`), recorded
    /// per dispatched request frame (at reply hand-off).
    wire_rtt: Arc<Histogram>,
    /// Epoch publication → push frame handed to a connection's socket
    /// layer (`net/epoch_push`), recorded once per live connection per
    /// published epoch.
    epoch_push: Arc<Histogram>,
    /// Frames decoded off connections (`net/frames_in`).
    frames_in: Arc<Counter>,
    /// Frames queued toward connections (`net/frames_out`), replies
    /// and pushes alike.
    frames_out: Arc<Counter>,
    /// Epoch pushes dropped at a connection over its hard write cap
    /// (`net/pushes_dropped`).
    pushes_dropped: Arc<Counter>,
    /// Live connections (`net/connections`).
    connections: Arc<Gauge>,
    /// Bytes sitting in per-connection write queues, summed
    /// (`net/write_queue_bytes`).
    write_queue: Arc<Gauge>,
    /// Worker jobs dispatched and not yet completed
    /// (`net/inflight_jobs`).
    inflight: Arc<Gauge>,
    started: Instant,
}

impl NetObs {
    fn new() -> Self {
        let registry = Registry::new();
        NetObs {
            wire_rtt: registry.histogram("net/wire_rtt"),
            epoch_push: registry.histogram("net/epoch_push"),
            frames_in: registry.counter("net/frames_in"),
            frames_out: registry.counter("net/frames_out"),
            pushes_dropped: registry.counter("net/pushes_dropped"),
            connections: registry.gauge("net/connections"),
            write_queue: registry.gauge("net/write_queue_bytes"),
            inflight: registry.gauge("net/inflight_jobs"),
            started: Instant::now(),
            registry,
        }
    }
}

/// Blocking work dispatched off the poller thread.
enum Work {
    Submit {
        conn: usize,
        job: Box<SubmitJob>,
        at: Instant,
    },
    Report {
        conn: usize,
        bytes: Vec<u8>,
        at: Instant,
    },
}

/// What flows back from workers (and the epoch watcher) to the poller.
enum Notice {
    /// Encoded frames for one connection. `done` marks the completion
    /// of one dispatched [`Work`] item (releases its inflight slot).
    Frames {
        conn: usize,
        frames: Vec<Vec<u8>>,
        done: bool,
    },
    /// One encoded frame for *every* live connection (epoch push).
    Broadcast { bytes: Vec<u8>, published: Instant },
}

/// The worker↔poller mailbox plus the poller handle that wakes it.
struct Mailbox {
    notices: Mutex<Vec<Notice>>,
    poller: Arc<Poller>,
}

impl Mailbox {
    fn locked(&self) -> MutexGuard<'_, Vec<Notice>> {
        // Poison recovery: a panicking worker mid-push leaves at worst
        // a missing notice (its work item is lost with it); the vec
        // itself is push-only and structurally sound.
        self.notices.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn post(&self, notice: Notice) {
        self.locked().push(notice);
        let _ = self.poller.notify();
    }

    fn post_frames(&self, conn: usize, frames: Vec<Vec<u8>>, done: bool) {
        self.post(Notice::Frames { conn, frames, done });
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Accumulated unparsed inbound bytes (at most one partial frame
    /// plus one read chunk, since complete frames are cut out eagerly).
    read_buf: Vec<u8>,
    /// Encoded frames awaiting the socket; the front frame may be
    /// partially written (`write_pos` bytes already gone).
    queue: VecDeque<Vec<u8>>,
    write_pos: usize,
    queued_bytes: usize,
    /// Worker jobs dispatched for this connection, not yet completed.
    inflight: usize,
    /// The interest set currently registered with the poller.
    interest: Interest,
    /// Flush the queue, then close (protocol-error goodbyes).
    closing: bool,
    /// Close now; reaped at the end of the poll iteration.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            queue: VecDeque::new(),
            write_pos: 0,
            queued_bytes: 0,
            inflight: 0,
            interest: Interest::READABLE,
            closing: false,
            dead: false,
        }
    }

    /// The interest this connection's state wants: readable unless it
    /// is saying goodbye or over an inflight/write cap (read-gating is
    /// the backpressure), writable only while the queue is non-empty.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing
                && self.inflight < MAX_CONN_INFLIGHT
                && self.queued_bytes < WRITE_QUEUE_SOFT,
            writable: !self.queue.is_empty(),
        }
    }
}

/// The running server. Binding spawns a poller thread that owns the
/// listener, every connection, and the worker pool; dropping the handle
/// (or calling [`NetFrontend::shutdown`]) stops the loop, closes every
/// socket, and joins everything.
pub struct NetFrontend {
    addr: SocketAddr,
    service: Arc<FleetService>,
    backend: Arc<FleetBackend>,
    counters: Arc<Counters>,
    obs: Arc<NetObs>,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    handle: Option<JoinHandle<()>>,
}

impl NetFrontend {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `workload` behind a fresh [`PoolFrontend`].
    ///
    /// # Errors
    ///
    /// Propagates listener binding or poller creation failures; in
    /// durable mode, also storage or recovery failures (a corrupt
    /// snapshot, an incompatible grid) — a durable server refuses to
    /// start blind rather than silently forgetting the fleet's
    /// evidence.
    pub fn bind<W>(workload: W, addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<Self>
    where
        W: Workload + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        let backend = Arc::new(match config.durability.clone() {
            Some(d) => FleetBackend::Durable(
                DurableFleet::open(d.storage, config.fleet, d.config).map_err(io::Error::other)?,
            ),
            None => FleetBackend::Plain(Arc::new(FleetService::new(config.fleet))),
        });
        let service = backend.service_handle();
        let counters = Arc::new(Counters::default());
        let obs = Arc::new(NetObs::new());
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let backend = Arc::clone(&backend);
            let counters = Arc::clone(&counters);
            let obs = Arc::clone(&obs);
            let stop = Arc::clone(&stop);
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                serve(
                    &workload, &listener, &config, &backend, &counters, &obs, &stop, poller,
                );
            })
        };
        Ok(NetFrontend {
            addr,
            service,
            backend,
            counters,
            obs,
            stop,
            poller,
            handle: Some(handle),
        })
    }

    /// The bound address remote clients connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The co-located fleet service (epoch inspection, direct ingest).
    #[must_use]
    pub fn service(&self) -> &Arc<FleetService> {
        &self.service
    }

    /// Fleet-layer metrics. In durable mode the durability counters
    /// (`wal_appends`, `snapshots_written`, `recoveries`,
    /// `torn_tail_truncated`) are live; in plain mode they read 0.
    #[must_use]
    pub fn fleet_metrics(&self) -> FleetMetrics {
        self.backend.metrics()
    }

    /// The wire layer's metrics registry (`net/wire_rtt`,
    /// `net/epoch_push`, `net/frames_in`, `net/frames_out`,
    /// `net/connections`, `net/write_queue_bytes`, `net/inflight_jobs`,
    /// `net/pushes_dropped`). The *merged* cross-layer snapshot — this
    /// plus the front-end's per-job histograms and the fleet's — is
    /// what [`Msg::MetricsPull`] returns over the wire; see
    /// [`NetFrontend::metrics_snapshot`] for the server-side subset.
    #[must_use]
    pub fn observability(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Fleet + wire layers' merged snapshot, available without a
    /// connection. The front-end's per-job histograms
    /// (`frontend/...`) live inside the server thread's scope and are
    /// only reachable through a wire [`Msg::MetricsPull`].
    #[must_use]
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.service.observability().snapshot();
        snap.merge(self.backend.metrics().counters_snapshot());
        snap.merge(self.obs.registry.snapshot());
        snap
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            reports: self.counters.reports.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loop, closes every connection, waits for
    /// in-flight jobs and the pools to shut down, and joins the server
    /// thread. Equivalent to dropping the handle; this form marks the
    /// teardown explicitly.
    ///
    /// # Panics
    ///
    /// Re-raises a server-side panic (e.g. a replica worker crash
    /// propagated through the worker pool).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Wake the poller directly; the throwaway connect is a second
        // belt-and-braces wake that also covers a poller wedged before
        // its first wait.
        let _ = self.poller.notify();
        let _ = TcpStream::connect(self.addr);
        if let Err(payload) = handle.join() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for NetFrontend {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The server thread body: owns the front-end for its whole life, runs
/// the poll loop with a worker pool and epoch watcher beside it, and
/// tears the pools down once the loop exits.
#[allow(clippy::too_many_arguments)]
fn serve<W: Workload + Sync>(
    workload: &W,
    listener: &TcpListener,
    config: &NetConfig,
    backend: &FleetBackend,
    counters: &Counters,
    obs: &NetObs,
    stop: &AtomicBool,
    poller: Arc<Poller>,
) {
    let mailbox = Mailbox {
        notices: Mutex::new(Vec::new()),
        poller,
    };
    // The highest epoch number already loaded into the front-end's
    // pools; lets the report path skip the old per-report epoch poll.
    let synced_epoch = AtomicU64::new(0);
    std::thread::scope(|outer| {
        let frontend = PoolFrontend::scoped(
            outer,
            workload,
            config.frontend.clone(),
            config.patches.clone(),
        );
        let (work_tx, work_rx) = mpsc::channel::<Work>();
        let work_rx = Mutex::new(work_rx);
        std::thread::scope(|inner| {
            for _ in 0..config.workers.max(1) {
                inner.spawn(|| {
                    worker_loop(
                        &work_rx,
                        &frontend,
                        backend,
                        counters,
                        obs,
                        &mailbox,
                        &synced_epoch,
                    );
                });
            }
            inner.spawn(|| {
                epoch_watcher(backend.service(), &frontend, &mailbox, stop, &synced_epoch);
            });
            // Runs on this thread; consumes `work_tx`, so the workers'
            // channel closes (and they drain and exit) when it returns.
            poll_loop(
                listener, config, backend, counters, obs, stop, &mailbox, &frontend, work_tx,
            );
            // The epoch watcher exits with the loop, not a poll later.
            stop.store(true, Ordering::Release);
            backend.service().wake_epoch_waiters();
        });
        frontend.shutdown();
    });
    // Graceful exit: compact what the WAL holds so the next start
    // replays nothing. Best-effort — a failure here only costs the next
    // open a longer replay, never correctness.
    if let FleetBackend::Durable(fleet) = backend {
        let _ = fleet.snapshot();
    }
}

/// A worker: pulls blocking work items and runs each end-to-end,
/// posting reply frames back to the poller as they become available.
fn worker_loop(
    work_rx: &Mutex<mpsc::Receiver<Work>>,
    frontend: &PoolFrontend<'_>,
    backend: &FleetBackend,
    counters: &Counters,
    obs: &NetObs,
    mailbox: &Mailbox,
    synced_epoch: &AtomicU64,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the work.
        let work = {
            let rx = work_rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(work) = work else {
            return; // channel closed: the poll loop exited
        };
        match work {
            Work::Submit { conn, job, at } => {
                let ticket = frontend.submit(&job.input, job.fault);
                counters.jobs.fetch_add(1, Ordering::Relaxed);
                let seq = ticket.job();
                // Record before posting: once the reply is visible to
                // the poller the client may already be pulling metrics,
                // and the sample must be in the histogram it reads.
                obs.wire_rtt.record_duration(at.elapsed());
                mailbox.post_frames(
                    conn,
                    vec![Msg::Accepted { job: seq }.to_frame().encode()],
                    false,
                );
                // Streamed verdict: pushed the moment the voter
                // declares, while stragglers still run.
                let verdict = ticket.wait_verdict();
                mailbox.post_frames(
                    conn,
                    vec![Msg::Verdict {
                        job: seq,
                        verdict: verdict.as_ref().map(WireVerdict::from_early),
                    }
                    .to_frame()
                    .encode()],
                    false,
                );
                let result = ticket.wait();
                mailbox.post_frames(
                    conn,
                    vec![Msg::Outcome(WireOutcome::from_pool(&result))
                        .to_frame()
                        .encode()],
                    true,
                );
            }
            Work::Report { conn, bytes, at } => {
                // The durable backend WAL-logs before folding.
                let reply = match backend.ingest(&bytes) {
                    Ok(receipt) => {
                        counters.reports.fetch_add(1, Ordering::Relaxed);
                        // Heal the server's own pools — but only when
                        // the receipt proves the epoch advanced past
                        // what the front-end already runs. The old
                        // unconditional per-report `latest()` poll is
                        // retired; the epoch watcher covers pushes.
                        if receipt.epoch > synced_epoch.load(Ordering::Acquire) {
                            bridge::sync_frontend(backend.service(), frontend);
                            synced_epoch.fetch_max(receipt.epoch, Ordering::AcqRel);
                        }
                        Msg::ReportAck(WireReceipt {
                            duplicate: receipt.duplicate,
                            shards_touched: receipt.shards_touched as u32,
                            observations: receipt.observations as u32,
                            epoch: receipt.epoch,
                        })
                    }
                    Err(e) => {
                        // Rate-limited reports land here too: the
                        // admission refusal crosses back as an `Error`
                        // frame without dropping the connection, so a
                        // throttled client can back off and retry.
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        Msg::Error {
                            message: e.to_string(),
                        }
                    }
                };
                // Same record-before-post discipline as the submit arm.
                obs.wire_rtt.record_duration(at.elapsed());
                mailbox.post_frames(conn, vec![reply.to_frame().encode()], true);
            }
        }
    }
}

/// The epoch watcher: parks on the service's epoch signal and, per
/// fresh epoch, syncs the server's own pools and broadcasts the push
/// frame. The server wakes the park when its poll loop exits; the
/// [`POLL_INTERVAL`] bound is only a backstop.
fn epoch_watcher(
    service: &FleetService,
    frontend: &PoolFrontend<'_>,
    mailbox: &Mailbox,
    stop: &AtomicBool,
    synced_epoch: &AtomicU64,
) {
    // A durable server may recover mid-history: treat the recovered
    // epoch as already-known (it is loaded into the pools at bind via
    // the config's patch table only if the caller did so; sync here to
    // be safe) and only broadcast genuinely new publications.
    let mut have = service.latest().number;
    if have > 0 {
        bridge::sync_frontend(service, frontend);
        synced_epoch.fetch_max(have, Ordering::AcqRel);
    }
    while !stop.load(Ordering::Acquire) {
        let Some(epoch) = service.wait_epoch_newer(have, POLL_INTERVAL, stop) else {
            continue;
        };
        have = epoch.number;
        frontend.load_epoch(&epoch);
        synced_epoch.fetch_max(have, Ordering::AcqRel);
        let bytes = Msg::EpochPush {
            epoch: epoch.to_text(),
        }
        .to_frame()
        .encode();
        mailbox.post(Notice::Broadcast {
            bytes,
            published: Instant::now(),
        });
    }
}

/// Everything a poll-loop helper needs a view of.
struct Ctx<'a, 'scope> {
    backend: &'a FleetBackend,
    counters: &'a Counters,
    obs: &'a NetObs,
    frontend: &'a PoolFrontend<'scope>,
    work_tx: &'a mpsc::Sender<Work>,
}

/// The poller thread's main loop: readiness in, frames parsed and
/// dispatched, completions and broadcasts out.
#[allow(clippy::too_many_arguments)]
fn poll_loop(
    listener: &TcpListener,
    config: &NetConfig,
    backend: &FleetBackend,
    counters: &Counters,
    obs: &NetObs,
    stop: &AtomicBool,
    mailbox: &Mailbox,
    frontend: &PoolFrontend<'_>,
    work_tx: mpsc::Sender<Work>,
) {
    let poller = &*mailbox.poller;
    if poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let max_connections = config.max_connections.max(1);
    let ctx = Ctx {
        backend,
        counters,
        obs,
        frontend,
        work_tx: &work_tx,
    };
    let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
    let mut next_token = LISTENER_TOKEN + 1;
    let mut listener_armed = true;
    let mut events = Vec::new();
    // Tokens an event or notice reached this cycle: the only
    // connections whose death or interest can have changed, so the
    // end-of-cycle bookkeeping walks this list, not the population —
    // with 10k mostly-idle connections the difference decides how fast
    // the busy few (and the accept ramp) are served.
    let mut touched: Vec<usize> = Vec::new();
    loop {
        let _ = poller.wait(&mut events, Some(POLL_INTERVAL));
        if stop.load(Ordering::Acquire) {
            break;
        }

        // Worker completions and epoch broadcasts first: they free
        // inflight slots, which can re-open read gates below.
        let notices = std::mem::take(&mut *mailbox.locked());
        for notice in notices {
            match notice {
                Notice::Frames { conn, frames, done } => {
                    if done {
                        obs.inflight.add(-1);
                    }
                    if let Some(c) = conns.get_mut(&conn) {
                        if done {
                            c.inflight = c.inflight.saturating_sub(1);
                        }
                        for bytes in frames {
                            enqueue(c, bytes, obs);
                        }
                        drain_writes(c, obs);
                        touched.push(conn);
                    }
                }
                Notice::Broadcast { bytes, published } => {
                    for (&token, c) in conns.iter_mut() {
                        if c.closing || c.dead {
                            continue;
                        }
                        if c.queued_bytes + bytes.len() > WRITE_QUEUE_HARD {
                            obs.pushes_dropped.incr();
                            continue;
                        }
                        enqueue(c, bytes.clone(), obs);
                        drain_writes(c, obs);
                        obs.epoch_push.record_duration(published.elapsed());
                        touched.push(token);
                    }
                }
            }
        }

        // Readiness events.
        for &ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready(
                    listener,
                    poller,
                    &mut conns,
                    &mut next_token,
                    max_connections,
                    &mut listener_armed,
                    counters,
                    obs,
                    stop,
                );
            } else if let Some(c) = conns.get_mut(&ev.token) {
                if ev.writable {
                    drain_writes(c, obs);
                }
                if ev.readable && !c.dead {
                    read_ready(c, ev.token, &ctx);
                }
                if ev.error && c.queue.is_empty() {
                    c.dead = true;
                }
                touched.push(ev.token);
            }
        }

        // Reap the dead, update interests, re-arm the listener — over
        // the touched set only. Every path that marks a connection dead
        // or shifts its interest (reads, writes, worker completions,
        // broadcasts) runs above and records the token, so nothing
        // outside `touched` can need attention.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            if conns.get(&token).is_some_and(|c| c.dead) {
                let c = conns.remove(&token).expect("present above");
                let _ = poller.deregister(c.stream.as_raw_fd());
                obs.connections.add(-1);
                obs.write_queue.add(-(c.queued_bytes as i64));
                // The socket closes on drop; inflight work for this
                // token finishes server-side and its notices fall on
                // the floor.
                continue;
            }
            if let Some(c) = conns.get_mut(&token) {
                let desired = c.desired_interest();
                if desired != c.interest
                    && poller
                        .reregister(c.stream.as_raw_fd(), token, desired)
                        .is_ok()
                {
                    c.interest = desired;
                }
            }
        }
        if !listener_armed && conns.len() < max_connections {
            listener_armed = poller
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
                .is_ok();
        }
    }
    // Teardown: every socket closes (clients observe a disconnect);
    // in-flight jobs complete against the still-running pools.
    for (_, c) in conns {
        let _ = poller.deregister(c.stream.as_raw_fd());
        obs.connections.add(-1);
        obs.write_queue.add(-(c.queued_bytes as i64));
    }
    let _ = poller.deregister(listener.as_raw_fd());
}

/// Accepts until the kernel backlog is drained or the connection budget
/// is reached (then the listener is parked — backpressure, not drops).
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut BTreeMap<usize, Conn>,
    next_token: &mut usize,
    max_connections: usize,
    listener_armed: &mut bool,
    counters: &Counters,
    obs: &NetObs,
    stop: &AtomicBool,
) {
    loop {
        if conns.len() >= max_connections {
            if *listener_armed && poller.deregister(listener.as_raw_fd()).is_ok() {
                *listener_armed = false;
            }
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        // The shutdown path's wake connect must not count or register.
        if stop.load(Ordering::Acquire) {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Frames are small request/reply and push units; leaving Nagle
        // on serializes every round trip behind delayed ACKs (~100x on
        // localhost). Writes are whole frames, so there is nothing for
        // the kernel to usefully batch.
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            continue;
        }
        counters.connections.fetch_add(1, Ordering::Relaxed);
        obs.connections.add(1);
        conns.insert(token, Conn::new(stream));
    }
}

/// Drains the socket into the read buffer and cuts/dispatches complete
/// frames. EOF after a frame boundary (or mid-partial-frame) is a quiet
/// close; bytes that fail frame framing close quietly too (matching
/// the blocking server: framing garbage is not a counted rejection).
fn read_ready(c: &mut Conn, token: usize, ctx: &Ctx<'_, '_>) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => {
                c.read_buf.extend_from_slice(&chunk[..n]);
                parse_ready(c, token, ctx);
                if c.dead || c.closing {
                    return;
                }
                // Gate: over an inflight or write cap, leave the rest
                // in the kernel buffer (interest update parks reads).
                if c.inflight >= MAX_CONN_INFLIGHT || c.queued_bytes >= WRITE_QUEUE_SOFT {
                    return;
                }
                if n < chunk.len() {
                    return; // drained (level-triggered: more re-fires)
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
}

/// Cuts every complete frame out of the read buffer and dispatches it.
fn parse_ready(c: &mut Conn, token: usize, ctx: &Ctx<'_, '_>) {
    while !c.dead && !c.closing {
        match Frame::parse_prefix(&c.read_buf) {
            Ok(Some((frame, used))) => {
                c.read_buf.drain(..used);
                dispatch_frame(c, token, &frame, ctx);
            }
            Ok(None) => return,
            Err(_) => {
                // Framing garbage (bad magic, oversized claim): the
                // stream is unsynchronizable — close quietly, exactly
                // like the blocking reader's torn-frame path.
                c.dead = true;
                return;
            }
        }
    }
}

/// One decoded frame: cheap pulls answered inline, blocking work handed
/// to the worker pool, protocol violations answered and flushed before
/// the connection closes.
fn dispatch_frame(c: &mut Conn, token: usize, frame: &Frame, ctx: &Ctx<'_, '_>) {
    ctx.obs.frames_in.incr();
    // Server-side round trip: frame decoded → reply handed off.
    let at = Instant::now();
    match Msg::from_frame(frame) {
        Ok(Msg::Submit(job)) => {
            c.inflight += 1;
            ctx.obs.inflight.add(1);
            let _ = ctx.work_tx.send(Work::Submit {
                conn: token,
                job: Box::new(job),
                at,
            });
        }
        Ok(Msg::Report(bytes)) => {
            c.inflight += 1;
            ctx.obs.inflight.add(1);
            let _ = ctx.work_tx.send(Work::Report {
                conn: token,
                bytes,
                at,
            });
        }
        Ok(Msg::EpochPull { have }) => {
            let latest = ctx.backend.service().latest();
            let epoch = (latest.number > have).then(|| latest.to_text());
            reply(c, &Msg::Epoch { epoch }, ctx.obs);
            ctx.obs.wire_rtt.record_duration(at.elapsed());
        }
        Ok(Msg::HealthPull) => {
            let m = ctx.backend.metrics();
            reply(
                c,
                &Msg::Health(WireHealth {
                    healthy: true,
                    epoch: m.epoch,
                    uptime_ms: ctx.obs.started.elapsed().as_millis() as u64,
                    recoveries: m.recoveries,
                    durable: matches!(ctx.backend, FleetBackend::Durable(_)),
                    connections: ctx.obs.connections.get().max(0) as u64,
                }),
                ctx.obs,
            );
            ctx.obs.wire_rtt.record_duration(at.elapsed());
        }
        Ok(Msg::MetricsPull) => {
            // Every layer's registry, merged. Names are pre-namespaced
            // (`frontend/`, `fleet/`, `net/`), so a plain merge never
            // collides.
            let mut snap = ctx.frontend.observability().snapshot();
            snap.merge(ctx.backend.service().observability().snapshot());
            snap.merge(ctx.backend.metrics().counters_snapshot());
            snap.merge(ctx.obs.registry.snapshot());
            reply(c, &Msg::Metrics(snap), ctx.obs);
            ctx.obs.wire_rtt.record_duration(at.elapsed());
        }
        Ok(other) => {
            // A server-to-client message arriving at the server is a
            // protocol violation; name it, flush, and close.
            ctx.counters.rejected.fetch_add(1, Ordering::Relaxed);
            reply(
                c,
                &Msg::Error {
                    message: format!("unexpected client message: {other:?}"),
                },
                ctx.obs,
            );
            c.closing = true;
        }
        Err(e) => {
            ctx.counters.rejected.fetch_add(1, Ordering::Relaxed);
            reply(
                c,
                &Msg::Error {
                    message: e.to_string(),
                },
                ctx.obs,
            );
            c.closing = true;
        }
    }
}

/// Queues an inline reply and drains what the socket will take now.
fn reply(c: &mut Conn, msg: &Msg, obs: &NetObs) {
    enqueue(c, msg.to_frame().encode(), obs);
    drain_writes(c, obs);
}

/// Appends one encoded frame to the connection's write queue.
fn enqueue(c: &mut Conn, bytes: Vec<u8>, obs: &NetObs) {
    obs.frames_out.incr();
    obs.write_queue.add(bytes.len() as i64);
    c.queued_bytes += bytes.len();
    c.queue.push_back(bytes);
}

/// Writes queued frames until the socket would block or the queue is
/// empty; a closing connection whose queue drains dies here.
fn drain_writes(c: &mut Conn, obs: &NetObs) {
    while let Some(front) = c.queue.front() {
        match c.stream.write(&front[c.write_pos..]) {
            Ok(n) => {
                c.write_pos += n;
                if c.write_pos == front.len() {
                    let len = front.len();
                    c.queue.pop_front();
                    c.write_pos = 0;
                    c.queued_bytes -= len;
                    obs.write_queue.add(-(len as i64));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    if c.closing && c.queue.is_empty() {
        c.dead = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A poisoned mailbox lock (a worker panicking mid-post) must not
    /// wedge the poller or the surviving workers: every lock site
    /// recovers via `PoisonError::into_inner`.
    #[test]
    fn mailbox_recovers_from_poisoned_lock() {
        let mailbox = Arc::new(Mailbox {
            notices: Mutex::new(Vec::new()),
            poller: Arc::new(Poller::new_fallback()),
        });
        let poisoner = Arc::clone(&mailbox);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.notices.lock().unwrap();
            panic!("poison the mailbox lock");
        })
        .join();
        assert!(mailbox.notices.lock().is_err(), "lock should be poisoned");
        mailbox.post_frames(3, vec![vec![1, 2, 3]], true);
        let drained = std::mem::take(&mut *mailbox.locked());
        assert_eq!(drained.len(), 1);
        assert!(matches!(
            drained[0],
            Notice::Frames {
                conn: 3,
                done: true,
                ..
            }
        ));
    }

    /// The read gate closes (stops reading) under inflight or write
    /// pressure and re-opens when both drain — the backpressure pin.
    #[test]
    fn interest_gates_reads_under_pressure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut c = Conn::new(stream);
        assert!(c.desired_interest().readable);
        assert!(!c.desired_interest().writable);
        c.inflight = MAX_CONN_INFLIGHT;
        assert!(!c.desired_interest().readable, "inflight cap gates reads");
        c.inflight = 0;
        c.queued_bytes = WRITE_QUEUE_SOFT;
        c.queue.push_back(vec![0]);
        let want = c.desired_interest();
        assert!(!want.readable, "write backlog gates reads");
        assert!(want.writable, "queued frames want writability");
        c.queued_bytes = 0;
        c.queue.clear();
        assert!(c.desired_interest().readable, "gates re-open when drained");
    }
}
