//! Corruption fuzzing for every decoder on the trust boundary: `XTF1`
//! frames (the network), `XTR1` reports (clients and the WAL), and
//! `XTS1` snapshots (recovery). Valid encodings are generated and run
//! through the workspace's corruption harness ([`proptest::corrupt`]):
//! round trip, truncation at every (or, for large buffers, many seeded)
//! lengths, and byte mutation at seeded positions. The decoders must
//! **never panic** — these bytes arrive from remote clients and crashed
//! disks — and every rejection must carry a usable diagnostic: either
//! `BadMagic` (the four leading bytes, by value) or a byte offset within
//! the buffer. Frames also hold the incremental parser to the
//! whole-buffer decoder.

use proptest::corrupt::{check_decoder, check_prefix_parser};
use proptest::prelude::*;

use xt_fleet::{FleetConfig, FleetService, FleetSnapshot, Frame, RunReport, WireError};

const XS: [f64; 4] = [0.0, 0.25, 0.75, 1.0];

fn obs_strategy() -> impl Strategy<Value = (u32, f64, bool)> {
    (0u32..50, 0usize..XS.len(), any::<bool>()).prop_map(|(site, xi, y)| (site, XS[xi], y))
}

fn report_strategy() -> impl Strategy<Value = RunReport> {
    (
        (any::<u64>(), any::<u32>(), any::<bool>(), any::<u64>()),
        1u32..200,
        proptest::collection::vec(obs_strategy(), 0..6),
        proptest::collection::vec(obs_strategy(), 0..6),
        (
            proptest::collection::vec((0u32..50, 1u32..128), 0..4),
            proptest::collection::vec((0u32..50, 0u32..50, 1u64..100), 0..4),
        ),
    )
        .prop_map(
            |(
                (client, seq, failed, clock),
                n_sites,
                overflow_obs,
                dangling_obs,
                (pads, defers),
            )| {
                RunReport {
                    client,
                    seq,
                    failed,
                    clock,
                    n_sites,
                    overflow_obs,
                    dangling_obs,
                    pad_hints: pads,
                    defer_hints: defers,
                }
            },
        )
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

/// A real snapshot: reports folded through a real service, published,
/// exported — so the fuzzed bytes carry genuine running-product floats,
/// epoch text, and replay windows, not synthetic approximations.
fn snapshot_strategy() -> impl Strategy<Value = FleetSnapshot> {
    (
        proptest::collection::vec(report_strategy(), 1..10),
        1usize..5,
    )
        .prop_map(|(mut reports, shards)| {
            let service = FleetService::new(FleetConfig {
                shards,
                publish_every: 0,
                ..FleetConfig::default()
            });
            for (i, r) in reports.iter_mut().enumerate() {
                r.seq = i as u32;
                service.ingest_report(r);
            }
            service.publish();
            service.export_snapshot()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reports_survive_corruption(report in report_strategy(), seed in any::<u64>()) {
        check_decoder(&report.encode(), &report, RunReport::decode, WireError::offset, seed)?;
    }

    #[test]
    fn frames_survive_corruption(frame in frame_strategy(), seed in any::<u64>()) {
        let bytes = frame.encode();
        check_decoder(&bytes, &frame, Frame::decode, WireError::offset, seed)?;
        check_prefix_parser(&bytes, Frame::parse_prefix, Frame::decode, WireError::offset, seed)?;
    }

    #[test]
    fn snapshots_survive_corruption(snapshot in snapshot_strategy(), seed in any::<u64>()) {
        let bytes = snapshot.encode().unwrap();
        check_decoder(&bytes, &snapshot, FleetSnapshot::decode, WireError::offset, seed)?;
    }
}
