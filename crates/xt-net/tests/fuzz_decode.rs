//! Corruption fuzzing for the message decoders with generated contents —
//! [`Msg::Health`], [`Msg::Metrics`] and [`Msg::EpochPush`] — through
//! the workspace's corruption harness ([`proptest::corrupt`]), the same
//! regime `xt-fleet/tests/fuzz_decode.rs` applies to reports, frames,
//! and snapshots. (Every message kind also runs the harness over fixed
//! samples in `proto.rs`'s unit tests.) Valid encodings are generated,
//! round-tripped, truncated at every length, and byte-mutated at seeded
//! positions. Decoders must **never panic**, and every rejection must
//! carry a usable diagnostic: `BadMagic` by value, or a byte offset
//! within the buffer.

use proptest::corrupt::{check_decoder, check_prefix_parser};
use proptest::prelude::*;

use xt_fleet::{Frame, WireError};
use xt_net::proto::{Msg, WireHealth};
use xt_obs::{HistogramSnapshot, RegistrySnapshot, HISTOGRAM_BUCKETS};

/// The full decode path a connection runs: frame layer, then message.
fn decode_msg(bytes: &[u8]) -> Result<Msg, WireError> {
    Msg::from_frame(&Frame::decode(bytes)?)
}

fn health_strategy() -> impl Strategy<Value = Msg> {
    (
        (any::<bool>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |((healthy, epoch, uptime_ms), (recoveries, durable, connections))| {
                Msg::Health(WireHealth {
                    healthy,
                    epoch,
                    uptime_ms,
                    recoveries,
                    durable,
                    connections,
                })
            },
        )
}

/// Instrument names in the registry's style: `layer/stage`, lowercase.
fn name_strategy() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0u8..27, 1..12),
        proptest::collection::vec(0u8..27, 0..8),
    )
        .prop_map(|(a, b)| {
            let part = |v: &[u8]| {
                v.iter()
                    .map(|&c| if c == 26 { '_' } else { (b'a' + c) as char })
                    .collect::<String>()
            };
            format!("{}/{}", part(&a), part(&b))
        })
}

fn histogram_strategy() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(any::<u64>(), HISTOGRAM_BUCKETS),
        any::<u64>(),
    )
        .prop_map(|(buckets, max)| HistogramSnapshot {
            buckets: buckets.try_into().expect("exact bucket count"),
            max,
        })
}

fn metrics_strategy() -> impl Strategy<Value = Msg> {
    (
        proptest::collection::vec((name_strategy(), any::<u64>()), 0..6),
        proptest::collection::vec((name_strategy(), any::<i64>()), 0..4),
        proptest::collection::vec((name_strategy(), histogram_strategy()), 0..4),
    )
        .prop_map(|(counters, gauges, histograms)| {
            Msg::Metrics(RegistrySnapshot {
                counters,
                gauges,
                histograms,
            })
        })
}

fn observability_msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![health_strategy(), metrics_strategy()]
}

/// The server-pushed epoch frame: both the real shape (a valid epoch
/// rendering, which is what `EpochPush` always carries in practice) and
/// arbitrary text (the codec carries the payload opaquely; parsing it
/// is the client's separate, advisory concern).
fn epoch_push_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), 0u32..4096).prop_map(|(number, pad)| Msg::EpochPush {
            epoch: format!(
                "# epoch {number}\n# exterminator runtime patches v1\npad 512ddc49 {pad}\n"
            ),
        }),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(|raw| Msg::EpochPush {
            epoch: String::from_utf8_lossy(&raw).into_owned(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn observability_messages_survive_corruption(
        msg in observability_msg_strategy(),
        seed in any::<u64>(),
    ) {
        check_decoder(&msg.to_frame().encode(), &msg, decode_msg, WireError::offset, seed)?;
    }

    /// `EpochPush` is the frame an event-loop connection most often
    /// holds *partially buffered* between readiness events, so the
    /// incremental parser must classify its prefixes and corruptions
    /// exactly like the whole-buffer decoder.
    #[test]
    fn epoch_push_survives_corruption(msg in epoch_push_strategy(), seed in any::<u64>()) {
        let bytes = msg.to_frame().encode();
        check_decoder(&bytes, &msg, decode_msg, WireError::offset, seed)?;
        check_prefix_parser(&bytes, Frame::parse_prefix, Frame::decode, WireError::offset, seed)?;
    }
}
