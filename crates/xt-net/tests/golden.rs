//! Golden vectors for the `xt-net` protocol: one fixed message of every
//! kind, pinned as hex of its whole `XTF1` frame. The wire is shared
//! with remote peers built from other revisions, so a codec refactor
//! must leave every byte where it is. Each case checks both directions:
//! the message encodes to exactly the golden bytes, and the golden
//! bytes decode back to the message.

use proptest::golden::{assert_golden, unhex};
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::Frame;
use xt_net::proto::{
    kind, Msg, SubmitJob, WireHealth, WireOutcome, WireReceipt, WireReplica, WireVerdict,
};
use xt_obs::{HistogramSnapshot, RegistrySnapshot};
use xt_workloads::WorkloadInput;

const SUBMIT: &str = "
    5854463101280000000900000000000000030000000a000000474554202f6361
    6368650114000000eeef00000000000000
";
const SUBMIT_DANGLING: &str = "
    5854463101210000000000000000000000010000000000000002110000000000
    00005a00000000000000
";
const ACCEPTED: &str = "
    5854463102080000002a00000000000000
";
const VERDICT: &str = "
    5854463103330000002b00000000000000011032547698badcfeefcdab896745
    23010200000000000000020000000100000006000000616772656564
";
const OUTCOME: &str = "
    5854463104730000002b00000000000000576ed1000000000000000000000000
    0001000700000077696e6e696e67020000000000000001000000010000000200
    000001000000050000000000000001000200000007000000ab00000000000000
    00000000000000000f00000070616420303030306630306420380a01
";
const REPORT: &str = "
    58544631050700000003000000010203
";
const REPORT_ACK: &str = "
    5854463106110000000102000000050000000300000000000000
";
const EPOCH_PULL: &str = "
    5854463107080000000200000000000000
";
const EPOCH: &str = "
    58544631080f000000010a000000232065706f636820330a
";
const EPOCH_NONE: &str = "
    58544631080100000000
";
const ERROR: &str = "
    58544631090e0000000a000000626164207265706f7274
";
const HEALTH_PULL: &str = "
    585446310a00000000
";
const HEALTH: &str = "
    585446310b2200000001040000000000000048e8010000000000010000000000
    0000010300000000000000
";
const METRICS_PULL: &str = "
    585446310c00000000
";
const METRICS: &str = "
    585446310d99010000010000000d000000666c6565742f7265706f7274730c00
    000000000000010000000f0000006e65742f636f6e6e656374696f6e73ffffff
    ffffffffff010000000d00000066726f6e74656e642f65786563100e00000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000004000000000000000000000000000000000000000000
    0000010000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000000000000000000000000000000000000000000000000000000000000000
    0000
";
const EPOCH_PUSH: &str = "
    585446310e0e0000000a000000232065706f636820340a
";

/// One message per kind byte, every optional field present and every
/// list non-empty; plus both fault kinds and the empty epoch reply.
fn messages() -> Vec<(u8, Msg, &'static str)> {
    let mut hist = HistogramSnapshot::default();
    hist.buckets[9] = 4;
    hist.buckets[12] = 1;
    hist.max = 3_600;
    vec![
        (
            kind::SUBMIT,
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(9)
                    .payload(b"GET /cache".to_vec())
                    .intensity(3),
                fault: Some(FaultSpec {
                    kind: FaultKind::BufferOverflow {
                        delta: 20,
                        fill: 0xEE,
                    },
                    trigger: AllocTime::from_raw(239),
                }),
            }),
            SUBMIT,
        ),
        (
            kind::SUBMIT,
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(0),
                fault: Some(FaultSpec {
                    kind: FaultKind::DanglingFree { lag: 17 },
                    trigger: AllocTime::from_raw(90),
                }),
            }),
            SUBMIT_DANGLING,
        ),
        (kind::ACCEPTED, Msg::Accepted { job: 42 }, ACCEPTED),
        (
            kind::VERDICT,
            Msg::Verdict {
                job: 43,
                verdict: Some(WireVerdict {
                    digest: 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210,
                    agreeing: vec![0, 2],
                    outstanding: 1,
                    output: b"agreed".to_vec(),
                }),
            },
            VERDICT,
        ),
        (
            kind::OUTCOME,
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
                patches: "pad 0000f00d 8\n".into(),
                isolated: true,
            }),
            OUTCOME,
        ),
        (kind::REPORT, Msg::Report(vec![1, 2, 3]), REPORT),
        (
            kind::REPORT_ACK,
            Msg::ReportAck(WireReceipt {
                duplicate: true,
                shards_touched: 2,
                observations: 5,
                epoch: 3,
            }),
            REPORT_ACK,
        ),
        (kind::EPOCH_PULL, Msg::EpochPull { have: 2 }, EPOCH_PULL),
        (
            kind::EPOCH,
            Msg::Epoch {
                epoch: Some("# epoch 3\n".into()),
            },
            EPOCH,
        ),
        (kind::EPOCH, Msg::Epoch { epoch: None }, EPOCH_NONE),
        (
            kind::ERROR,
            Msg::Error {
                message: "bad report".into(),
            },
            ERROR,
        ),
        (kind::HEALTH_PULL, Msg::HealthPull, HEALTH_PULL),
        (
            kind::HEALTH,
            Msg::Health(WireHealth {
                healthy: true,
                epoch: 4,
                uptime_ms: 125_000,
                recoveries: 1,
                durable: true,
                connections: 3,
            }),
            HEALTH,
        ),
        (kind::METRICS_PULL, Msg::MetricsPull, METRICS_PULL),
        (
            kind::METRICS,
            Msg::Metrics(RegistrySnapshot {
                counters: vec![("fleet/reports".into(), 12)],
                gauges: vec![("net/connections".into(), -1)],
                histograms: vec![("frontend/exec".into(), hist)],
            }),
            METRICS,
        ),
        (
            kind::EPOCH_PUSH,
            Msg::EpochPush {
                epoch: "# epoch 4\n".into(),
            },
            EPOCH_PUSH,
        ),
    ]
}

#[test]
fn every_message_kind_is_pinned() {
    let messages = messages();
    let mut kinds: Vec<u8> = messages.iter().map(|(k, _, _)| *k).collect();
    kinds.dedup();
    assert_eq!(kinds, (1..=14).collect::<Vec<u8>>(), "one case per kind");
    for (kind, msg, golden) in messages {
        let frame = msg.to_frame();
        assert_eq!(frame.kind, kind);
        assert_golden(&format!("kind {kind}"), &frame.encode(), golden);
        let decoded = Frame::decode(&unhex(golden)).unwrap();
        assert_eq!(Msg::from_frame(&decoded).unwrap(), msg);
    }
}
