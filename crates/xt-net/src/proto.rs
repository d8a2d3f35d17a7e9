//! The message families multiplexed over one framed connection.
//!
//! Every message is one [`Frame`]: the frame's `kind` byte names the
//! message, the payload is a fixed little-endian layout decoded through
//! the shared offset-tracking [`Reader`] — malformed bytes anywhere name
//! the exact offending offset, same argument as `xt_fleet::wire` (these
//! bytes cross a trust boundary; "bad message" is undebuggable).
//!
//! Three families share the stream:
//!
//! * **Job submission** — [`Msg::Submit`] carries a
//!   [`WorkloadInput`] plus an optional [`FaultSpec`]; the server answers
//!   [`Msg::Accepted`] with the front-end's global sequence number.
//! * **Streaming results** — the server *pushes* [`Msg::Verdict`] the
//!   moment the streaming voter declares for a job (stragglers still
//!   running), then [`Msg::Outcome`] once the job finalizes. Both carry
//!   the job's sequence number so clients with several jobs in flight can
//!   demultiplex.
//! * **Fleet path** — [`Msg::Report`] nests an `XTR1`-encoded
//!   [`RunReport`](xt_fleet::RunReport) (acknowledged by
//!   [`Msg::ReportAck`]), and [`Msg::EpochPull`]/[`Msg::Epoch`] poll the
//!   server's published patch epochs — the same ingest/pull loop
//!   `xt-fleet` runs in-process, now over the socket.
//! * **Observability** — [`Msg::HealthPull`]/[`Msg::Health`] answer a
//!   liveness probe with the server's epoch, uptime, and recovery
//!   status; [`Msg::MetricsPull`]/[`Msg::Metrics`] ship the merged
//!   [`RegistrySnapshot`] of every service layer (front-end, fleet,
//!   wire) to remote operators.
//!
//! Replies are request-response in connection order; pushed messages
//! (`Verdict`, `Outcome`) may interleave anywhere, which is why the
//! client buffers them by job id.

use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::frame::{ByteWriter, Frame, Reader, WireError};
use xt_obs::{HistogramSnapshot, RegistrySnapshot, HISTOGRAM_BUCKETS};
use xt_workloads::WorkloadInput;

use exterminator::pool::{EarlyVerdict, PoolOutcome};

/// Cap for every variable-length field (input payloads, output streams,
/// patch text, error strings) — far above anything the protocols carry,
/// far below an allocation a hostile length prefix could hurt with.
pub const MAX_BLOB: u32 = 1 << 20;

/// Cap for per-replica and agreeing/dissenting index lists.
const MAX_INDICES: u32 = 1 << 10;

/// Cap for instrument counts in a metrics snapshot (counters, gauges,
/// and histograms each) — a service carries dozens of instruments, not
/// thousands, and a hostile count prefix must not size an allocation.
const MAX_INSTRUMENTS: u32 = 1 << 12;

/// Frame kind bytes, one per message family member.
pub mod kind {
    /// Client → server: submit one job.
    pub const SUBMIT: u8 = 1;
    /// Server → client: submission accepted at this global sequence.
    pub const ACCEPTED: u8 = 2;
    /// Server → client (pushed): the streaming quorum verdict.
    pub const VERDICT: u8 = 3;
    /// Server → client (pushed): the finalized outcome.
    pub const OUTCOME: u8 = 4;
    /// Client → server: ingest a nested `XTR1` run report.
    pub const REPORT: u8 = 5;
    /// Server → client: report ingested.
    pub const REPORT_ACK: u8 = 6;
    /// Client → server: send the newest epoch if newer than `have`.
    pub const EPOCH_PULL: u8 = 7;
    /// Server → client: the epoch (or "nothing newer").
    pub const EPOCH: u8 = 8;
    /// Server → client: the request failed (message names why).
    pub const ERROR: u8 = 9;
    /// Client → server: liveness probe.
    pub const HEALTH_PULL: u8 = 10;
    /// Server → client: liveness + epoch + uptime + recovery status.
    pub const HEALTH: u8 = 11;
    /// Client → server: pull the full metrics registry snapshot.
    pub const METRICS_PULL: u8 = 12;
    /// Server → client: the merged registry snapshot.
    pub const METRICS: u8 = 13;
    /// Server → client (pushed, unsolicited): a newly published epoch,
    /// fanned down every live connection the moment it publishes.
    pub const EPOCH_PUSH: u8 = 14;
}

/// One job submission: the input plus an optional injected fault (the
/// latter is how tests and demos carry attack traffic; production
/// clients send `None`).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitJob {
    /// The workload input to execute on every replica.
    pub input: WorkloadInput,
    /// Optional fault injection.
    pub fault: Option<FaultSpec>,
}

/// The streaming quorum verdict, as pushed to the submitting client —
/// the wire form of [`EarlyVerdict`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireVerdict {
    /// The agreed output digest.
    pub digest: u128,
    /// Replicas in the quorum.
    pub agreeing: Vec<u32>,
    /// Replicas still running when the quorum formed — nonzero means the
    /// verdict genuinely beat the stragglers.
    pub outstanding: u32,
    /// The agreed output bytes.
    pub output: Vec<u8>,
}

impl WireVerdict {
    /// Reduces an [`EarlyVerdict`] to its wire form.
    #[must_use]
    pub fn from_early(v: &EarlyVerdict) -> Self {
        WireVerdict {
            digest: v.digest,
            agreeing: v.agreeing.iter().map(|&i| i as u32).collect(),
            outstanding: v.outstanding as u32,
            output: v.output.clone(),
        }
    }
}

/// One replica's summary inside a [`WireOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireReplica {
    /// The replica's heap seed.
    pub seed: u64,
    /// Whether its run completed.
    pub completed: bool,
    /// Whether it failed.
    pub failed: bool,
    /// DieFast signals raised.
    pub signals: u32,
    /// Output stream length.
    pub output_len: u32,
    /// 128-bit output digest.
    pub output_digest: u128,
}

/// The finalized outcome, as pushed to the submitting client. Not the
/// whole [`PoolOutcome`] — heap-image-sized state stays server-side — but
/// the full deterministic *identity* is carried by `digest`
/// ([`PoolOutcome::deterministic_digest`]), so clients can pin remote
/// outcomes byte-identical to in-process runs without shipping outcomes
/// whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireOutcome {
    /// The front-end's global sequence number for this job.
    pub job: u64,
    /// [`PoolOutcome::deterministic_digest`] of the server-side outcome.
    pub digest: u128,
    /// Any replica failed or diverged.
    pub error_observed: bool,
    /// Every replica agreed.
    pub unanimous: bool,
    /// The vote's plurality output.
    pub winner: Vec<u8>,
    /// Replicas that produced the winner.
    pub agreeing: Vec<u32>,
    /// Replicas that diverged.
    pub dissenting: Vec<u32>,
    /// Per-replica summaries, in replica order.
    pub replicas: Vec<WireReplica>,
    /// The job's patch table in `xt-patch` text form (parse with
    /// [`xt_patch::PatchTable::from_text`]).
    pub patches: String,
    /// Whether isolation ran (an isolation report exists server-side).
    pub isolated: bool,
}

impl WireOutcome {
    /// Reduces a finalized [`PoolOutcome`] to its wire form.
    #[must_use]
    pub fn from_pool(out: &PoolOutcome) -> Self {
        WireOutcome {
            job: out.job,
            digest: out.deterministic_digest(),
            error_observed: out.outcome.error_observed(),
            unanimous: out.outcome.vote.unanimous(),
            winner: out.outcome.vote.winner.clone(),
            agreeing: out
                .outcome
                .vote
                .agreeing
                .iter()
                .map(|&i| i as u32)
                .collect(),
            dissenting: out
                .outcome
                .vote
                .dissenting
                .iter()
                .map(|&i| i as u32)
                .collect(),
            replicas: out
                .outcome
                .replicas
                .iter()
                .map(|r| WireReplica {
                    seed: r.seed,
                    completed: r.completed,
                    failed: r.failed,
                    signals: r.signals as u32,
                    output_len: r.output_len as u32,
                    output_digest: r.output_digest,
                })
                .collect(),
            patches: out.outcome.patches.to_text(),
            isolated: out.outcome.report.is_some(),
        }
    }
}

/// The wire form of an [`IngestReceipt`](xt_fleet::IngestReceipt).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireReceipt {
    /// The report was a redelivery and was dropped.
    pub duplicate: bool,
    /// Shards the report touched.
    pub shards_touched: u32,
    /// Observations folded in.
    pub observations: u32,
    /// Latest published epoch number at the server.
    pub epoch: u64,
}

/// The server's answer to a liveness probe. Everything here is
/// operational status — none of it feeds deterministic digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireHealth {
    /// The server accepted the probe and its backends are reachable.
    /// Always `true` in a reply — the signal of an unhealthy server is
    /// no reply at all — but carried explicitly so a degraded mode can
    /// be expressed without a protocol change.
    pub healthy: bool,
    /// Newest published patch epoch at the fleet backend.
    pub epoch: u64,
    /// Milliseconds since the server started listening.
    pub uptime_ms: u64,
    /// Durability recoveries the backend has performed (0 for an
    /// in-memory backend or a durable one that started fresh).
    pub recoveries: u64,
    /// Whether the fleet backend persists through a WAL.
    pub durable: bool,
    /// Connections currently open at the server (including the one
    /// carrying this reply).
    pub connections: u64,
}

/// One protocol message (a decoded frame).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Submit a job.
    Submit(SubmitJob),
    /// Submission accepted at this global sequence number.
    Accepted {
        /// The front-end's global sequence number.
        job: u64,
    },
    /// The job's streaming vote resolved: `Some` quorum, or `None` when
    /// the job completed with every replica disagreeing.
    Verdict {
        /// The job this verdict belongs to.
        job: u64,
        /// The quorum, if one formed.
        verdict: Option<WireVerdict>,
    },
    /// The job finalized.
    Outcome(WireOutcome),
    /// Ingest a nested `XTR1`-encoded run report.
    Report(Vec<u8>),
    /// Report ingested.
    ReportAck(WireReceipt),
    /// Send the newest epoch if newer than `have`.
    EpochPull {
        /// The highest epoch number the client already holds.
        have: u64,
    },
    /// The epoch in `xt-patch` text form, or `None` when nothing newer
    /// than the client's `have` exists.
    Epoch {
        /// `PatchEpoch::to_text` output, if newer.
        epoch: Option<String>,
    },
    /// The request failed.
    Error {
        /// Human-readable reason (e.g. a `WireError` rendering).
        message: String,
    },
    /// Liveness probe.
    HealthPull,
    /// The probe's answer.
    Health(WireHealth),
    /// Pull the merged metrics registry snapshot.
    MetricsPull,
    /// The snapshot: every layer's counters, gauges, and per-stage
    /// latency histograms, merged server-side and name-sorted.
    Metrics(RegistrySnapshot),
    /// Server → client, unsolicited: a `PatchEpoch` just published.
    /// Unlike [`Msg::Epoch`] the text is always present — the server
    /// only pushes when there is something new to push.
    EpochPush {
        /// `PatchEpoch::to_text` output.
        epoch: String,
    },
}

fn put_indices(w: &mut ByteWriter, indices: &[u32]) {
    w.count(indices.len(), MAX_INDICES);
    for &i in indices {
        w.u32(i);
    }
}

/// Layout: three sections (counters, gauges, histograms), each a
/// `u32` count followed by `name-blob ∥ value` entries. Histogram
/// values are the exact `max` then all [`HISTOGRAM_BUCKETS`] bucket
/// counts — the bucket array is fixed-size by protocol (the bucket
/// scheme is a compile-time constant, so a length prefix could only
/// disagree with it).
// xt-analyze: allow(obs-in-det) -- this IS the metrics wire encoder: it serializes a snapshot for transport and feeds no outcome digest
fn encode_registry(w: &mut ByteWriter, snap: &RegistrySnapshot) {
    w.count(snap.counters.len(), MAX_INSTRUMENTS);
    for (name, value) in &snap.counters {
        w.blob(name.as_bytes(), MAX_BLOB);
        w.u64(*value);
    }
    w.count(snap.gauges.len(), MAX_INSTRUMENTS);
    for (name, value) in &snap.gauges {
        w.blob(name.as_bytes(), MAX_BLOB);
        w.u64(*value as u64);
    }
    w.count(snap.histograms.len(), MAX_INSTRUMENTS);
    for (name, hist) in &snap.histograms {
        w.blob(name.as_bytes(), MAX_BLOB);
        w.u64(hist.max);
        for &bucket in &hist.buckets {
            w.u64(bucket);
        }
    }
}

fn decode_registry(r: &mut Reader<'_>) -> Result<RegistrySnapshot, WireError> {
    Ok(RegistrySnapshot {
        counters: r.list(MAX_INSTRUMENTS, |r| Ok((r.string(MAX_BLOB)?, r.u64()?)))?,
        // Gauges are signed; the wire carries their two's-complement bits.
        gauges: r.list(MAX_INSTRUMENTS, |r| {
            Ok((r.string(MAX_BLOB)?, r.u64()? as i64))
        })?,
        histograms: r.list(MAX_INSTRUMENTS, |r| {
            let name = r.string(MAX_BLOB)?;
            let max = r.u64()?;
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for bucket in &mut buckets {
                *bucket = r.u64()?;
            }
            Ok((name, HistogramSnapshot { buckets, max }))
        })?,
    })
}

impl Msg {
    /// Serializes the message into its frame.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut w = ByteWriter::new();
        let kind = match self {
            Msg::Submit(job) => {
                w.u64(job.input.seed);
                w.u32(job.input.intensity);
                w.blob(&job.input.payload, MAX_BLOB);
                match job.fault {
                    None => w.u8(0),
                    Some(FaultSpec { kind, trigger }) => {
                        match kind {
                            FaultKind::BufferOverflow { delta, fill } => {
                                w.u8(1);
                                w.u32(delta);
                                w.u8(fill);
                            }
                            FaultKind::DanglingFree { lag } => {
                                w.u8(2);
                                w.u64(lag);
                            }
                        }
                        w.u64(trigger.raw());
                    }
                }
                kind::SUBMIT
            }
            Msg::Accepted { job } => {
                w.u64(*job);
                kind::ACCEPTED
            }
            Msg::Verdict { job, verdict } => {
                w.u64(*job);
                w.bool(verdict.is_some());
                if let Some(v) = verdict {
                    w.u128(v.digest);
                    put_indices(&mut w, &v.agreeing);
                    w.u32(v.outstanding);
                    w.blob(&v.output, MAX_BLOB);
                }
                kind::VERDICT
            }
            Msg::Outcome(o) => {
                w.u64(o.job);
                w.u128(o.digest);
                w.bool(o.error_observed);
                w.bool(o.unanimous);
                w.blob(&o.winner, MAX_BLOB);
                put_indices(&mut w, &o.agreeing);
                put_indices(&mut w, &o.dissenting);
                w.count(o.replicas.len(), MAX_INDICES);
                for r in &o.replicas {
                    w.u64(r.seed);
                    w.bool(r.completed);
                    w.bool(r.failed);
                    w.u32(r.signals);
                    w.u32(r.output_len);
                    w.u128(r.output_digest);
                }
                w.blob(o.patches.as_bytes(), MAX_BLOB);
                w.bool(o.isolated);
                kind::OUTCOME
            }
            Msg::Report(bytes) => {
                w.blob(bytes, MAX_BLOB);
                kind::REPORT
            }
            Msg::ReportAck(a) => {
                w.bool(a.duplicate);
                w.u32(a.shards_touched);
                w.u32(a.observations);
                w.u64(a.epoch);
                kind::REPORT_ACK
            }
            Msg::EpochPull { have } => {
                w.u64(*have);
                kind::EPOCH_PULL
            }
            Msg::Epoch { epoch } => {
                w.bool(epoch.is_some());
                if let Some(text) = epoch {
                    w.blob(text.as_bytes(), MAX_BLOB);
                }
                kind::EPOCH
            }
            Msg::Error { message } => {
                w.blob(message.as_bytes(), MAX_BLOB);
                kind::ERROR
            }
            Msg::HealthPull => kind::HEALTH_PULL,
            Msg::Health(h) => {
                w.bool(h.healthy);
                w.u64(h.epoch);
                w.u64(h.uptime_ms);
                w.u64(h.recoveries);
                w.bool(h.durable);
                w.u64(h.connections);
                kind::HEALTH
            }
            Msg::MetricsPull => kind::METRICS_PULL,
            Msg::Metrics(snap) => {
                encode_registry(&mut w, snap);
                kind::METRICS
            }
            Msg::EpochPush { epoch } => {
                w.blob(epoch.as_bytes(), MAX_BLOB);
                kind::EPOCH_PUSH
            }
        };
        Frame::new(kind, w.into_bytes())
    }

    /// Parses a frame's payload by its kind byte.
    ///
    /// # Errors
    ///
    /// [`WireError::BadKind`] for an unknown kind (offset 4, the kind
    /// byte's position in the encoded frame); otherwise the payload
    /// decoder's error, offsets relative to the payload start.
    pub fn from_frame(frame: &Frame) -> Result<Msg, WireError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            kind::SUBMIT => {
                let seed = r.u64()?;
                let intensity = r.u32()?;
                let payload = r.blob(MAX_BLOB)?.to_vec();
                let fault_at = r.pos();
                let fault_kind = match r.u8()? {
                    0 => None,
                    1 => Some(FaultKind::BufferOverflow {
                        delta: r.u32()?,
                        fill: r.u8()?,
                    }),
                    2 => Some(FaultKind::DanglingFree { lag: r.u64()? }),
                    kind => return Err(WireError::BadKind { at: fault_at, kind }),
                };
                let fault = match fault_kind {
                    Some(kind) => Some(FaultSpec {
                        kind,
                        trigger: xt_alloc::AllocTime::from_raw(r.u64()?),
                    }),
                    None => None,
                };
                Msg::Submit(SubmitJob {
                    input: WorkloadInput {
                        seed,
                        payload,
                        intensity,
                    },
                    fault,
                })
            }
            kind::ACCEPTED => Msg::Accepted { job: r.u64()? },
            kind::VERDICT => Msg::Verdict {
                job: r.u64()?,
                verdict: if r.bool()? {
                    Some(WireVerdict {
                        digest: r.u128()?,
                        agreeing: r.list(MAX_INDICES, Reader::u32)?,
                        outstanding: r.u32()?,
                        output: r.blob(MAX_BLOB)?.to_vec(),
                    })
                } else {
                    None
                },
            },
            kind::OUTCOME => Msg::Outcome(WireOutcome {
                job: r.u64()?,
                digest: r.u128()?,
                error_observed: r.bool()?,
                unanimous: r.bool()?,
                winner: r.blob(MAX_BLOB)?.to_vec(),
                agreeing: r.list(MAX_INDICES, Reader::u32)?,
                dissenting: r.list(MAX_INDICES, Reader::u32)?,
                replicas: r.list(MAX_INDICES, |r| {
                    Ok(WireReplica {
                        seed: r.u64()?,
                        completed: r.bool()?,
                        failed: r.bool()?,
                        signals: r.u32()?,
                        output_len: r.u32()?,
                        output_digest: r.u128()?,
                    })
                })?,
                patches: r.string(MAX_BLOB)?,
                isolated: r.bool()?,
            }),
            kind::REPORT => Msg::Report(r.blob(MAX_BLOB)?.to_vec()),
            kind::REPORT_ACK => Msg::ReportAck(WireReceipt {
                duplicate: r.bool()?,
                shards_touched: r.u32()?,
                observations: r.u32()?,
                epoch: r.u64()?,
            }),
            kind::EPOCH_PULL => Msg::EpochPull { have: r.u64()? },
            kind::EPOCH => Msg::Epoch {
                epoch: if r.bool()? {
                    Some(r.string(MAX_BLOB)?)
                } else {
                    None
                },
            },
            kind::ERROR => Msg::Error {
                message: r.string(MAX_BLOB)?,
            },
            kind::HEALTH_PULL => Msg::HealthPull,
            kind::HEALTH => Msg::Health(WireHealth {
                healthy: r.bool()?,
                epoch: r.u64()?,
                uptime_ms: r.u64()?,
                recoveries: r.u64()?,
                durable: r.bool()?,
                connections: r.u64()?,
            }),
            kind::METRICS_PULL => Msg::MetricsPull,
            kind::METRICS => Msg::Metrics(decode_registry(&mut r)?),
            kind::EPOCH_PUSH => Msg::EpochPush {
                epoch: r.string(MAX_BLOB)?,
            },
            kind => return Err(WireError::BadKind { at: 4, kind }),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::AllocTime;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(7)
                    .payload(b"GET /cache".to_vec())
                    .intensity(3),
                fault: None,
            }),
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(9),
                fault: Some(FaultSpec {
                    kind: FaultKind::BufferOverflow {
                        delta: 20,
                        fill: 0xEE,
                    },
                    trigger: AllocTime::from_raw(239),
                }),
            }),
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(0),
                fault: Some(FaultSpec {
                    kind: FaultKind::DanglingFree { lag: 17 },
                    trigger: AllocTime::from_raw(90),
                }),
            }),
            Msg::Accepted { job: 42 },
            Msg::Verdict {
                job: 42,
                verdict: None,
            },
            Msg::Verdict {
                job: 43,
                verdict: Some(WireVerdict {
                    digest: 0xDEAD_BEEF_DEAD_BEEF_u128,
                    agreeing: vec![0, 2],
                    outstanding: 1,
                    output: b"agreed output".to_vec(),
                }),
            },
            Msg::Outcome(WireOutcome {
                job: 43,
                digest: 0x00D1_6E57,
                error_observed: true,
                unanimous: false,
                winner: b"winning".to_vec(),
                agreeing: vec![0, 1],
                dissenting: vec![2],
                replicas: vec![WireReplica {
                    seed: 5,
                    completed: true,
                    failed: false,
                    signals: 2,
                    output_len: 7,
                    output_digest: 0xAB,
                }],
                patches: "# exterminator runtime patches v1\npad 0000f00d 8\n".into(),
                isolated: true,
            }),
            Msg::Report(vec![1, 2, 3]),
            Msg::ReportAck(WireReceipt {
                duplicate: false,
                shards_touched: 2,
                observations: 5,
                epoch: 3,
            }),
            Msg::EpochPull { have: 2 },
            Msg::Epoch { epoch: None },
            Msg::Epoch {
                epoch: Some("# exterminator patch epoch v1\n".into()),
            },
            Msg::Error {
                message: "bad report".into(),
            },
            Msg::HealthPull,
            Msg::Health(WireHealth {
                healthy: true,
                epoch: 4,
                uptime_ms: 125_000,
                recoveries: 1,
                durable: true,
                connections: 3,
            }),
            Msg::EpochPush {
                epoch: "# exterminator patch epoch v1\n".into(),
            },
            Msg::MetricsPull,
            Msg::Metrics(RegistrySnapshot::default()),
            Msg::Metrics(RegistrySnapshot {
                counters: vec![("fleet/reports".into(), 12), ("net/frames_in".into(), 99)],
                gauges: vec![("net/connections".into(), -1)],
                histograms: vec![("frontend/exec".into(), {
                    let mut hist = HistogramSnapshot::default();
                    hist.buckets[9] = 4;
                    hist.buckets[12] = 1;
                    hist.max = 3_600;
                    hist
                })],
            }),
        ]
    }

    /// Every message, at both layers a connection decodes: the payload
    /// under its kind byte, and the whole frame.
    #[test]
    fn every_message_survives_the_corruption_harness() {
        use proptest::corrupt::check_decoder;
        let offset = WireError::offset;
        let decode_frame = |bytes: &[u8]| Msg::from_frame(&Frame::decode(bytes)?);
        for (seed, msg) in (0u64..).zip(samples()) {
            let frame = msg.to_frame();
            let decode_payload =
                |payload: &[u8]| Msg::from_frame(&Frame::new(frame.kind, payload.to_vec()));
            let on_payload = check_decoder(&frame.payload, &msg, decode_payload, offset, seed);
            let on_frame = check_decoder(&frame.encode(), &msg, decode_frame, offset, seed);
            on_payload
                .and(on_frame)
                .unwrap_or_else(|e| panic!("{msg:?}: {e:?}"));
        }
    }

    #[test]
    fn rejects_unknown_kinds() {
        let frame = Frame::new(0xEE, Vec::new());
        assert!(matches!(
            Msg::from_frame(&frame),
            Err(WireError::BadKind { kind: 0xEE, .. })
        ));
        // Unknown fault tag inside a submit payload.
        let mut frame = Msg::Submit(SubmitJob {
            input: WorkloadInput::with_seed(1),
            fault: None,
        })
        .to_frame();
        let last = frame.payload.len() - 1;
        frame.payload[last] = 9;
        assert!(matches!(
            Msg::from_frame(&frame),
            Err(WireError::BadKind { kind: 9, .. })
        ));
    }

    #[test]
    fn rejects_trailing_payload_garbage() {
        for msg in samples() {
            let mut frame = msg.to_frame();
            frame.payload.push(0);
            assert!(
                matches!(Msg::from_frame(&frame), Err(WireError::Trailing { .. })),
                "{msg:?} accepted a trailing byte"
            );
        }
    }
}
