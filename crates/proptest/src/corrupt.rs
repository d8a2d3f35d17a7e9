//! The corruption harness every byte decoder in the workspace runs
//! under. Reports, snapshots, WAL records, frames, network messages and
//! heap images all cross a trust boundary (remote clients, crashed
//! disks), so their decoders share one contract, checked against one
//! valid encoding at a time:
//!
//! * **round trip** — the encoding decodes back to the value;
//! * **truncation** — every strict prefix (seeded sampling past 256
//!   bytes) is rejected, with a byte offset inside the prefix;
//! * **mutation** — seeded single-byte corruptions may decode (a flipped
//!   float bit can yield another valid value), but any rejection names an
//!   offset inside the buffer, or none at all (bad magic is by value);
//! * **no panic** — on any of those inputs;
//! * **incremental agreement** — a frame layer's prefix parser cuts the
//!   same frame the whole-buffer decoder reads.
//!
//! The checks are plain functions of a decoder and its error's offset
//! function, so a format needs no trait; they return [`TestCaseError`]s
//! for use inside `proptest!` bodies or plain tests.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::prop_assert;
use crate::test_runner::TestCaseError;

/// Seeded byte mutations tried per encoding.
const MUTATIONS: usize = 64;

/// SplitMix64: the seeded source of truncation and mutation positions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Prefix lengths to try: every one for buffers up to 256 bytes; for
/// larger ones (a snapshot or heap image runs to kilobytes, and
/// O(len²) over every prefix of every case is fuzz time better spent on
/// more cases) the structurally dense first 128, 96 seeded points past
/// them, and the one-byte-short prefix.
fn truncation_points(len: usize, seed: u64) -> Vec<usize> {
    if len <= 256 {
        return (0..len).collect();
    }
    let mut points: Vec<usize> = (0..128).collect();
    let mut state = seed;
    points.extend((0..96).map(|_| 128 + (splitmix(&mut state) as usize) % (len - 128)));
    points.push(len - 1);
    points
}

/// [`MUTATIONS`] copies of `bytes`, each with one seeded byte XORed by a
/// nonzero delta. Empty for an empty buffer.
fn mutations(bytes: &[u8], seed: u64) -> Vec<Vec<u8>> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let mut state = seed;
    (0..MUTATIONS)
        .map(|_| {
            let mut corrupt = bytes.to_vec();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            let delta = (splitmix(&mut state) % 255) as u8 + 1;
            corrupt[pos] ^= delta;
            corrupt
        })
        .collect()
}

/// Runs `f`, turning a panic into a case failure.
fn no_panic<R>(what: &str, input: &[u8], f: impl FnOnce() -> R) -> Result<R, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| TestCaseError::Fail(format!("{what} panicked on {input:02x?}")))
}

/// A rejection must be diagnosable: an offset, if the error carries
/// one, inside the `len`-byte input (`Trailing` points at the end of
/// the valid data, so the offset may equal `len`). `required` demands
/// the offset exist.
fn check_offset<E: Debug>(
    err: &E,
    offset: &impl Fn(&E) -> Option<usize>,
    len: usize,
    required: bool,
) -> Result<(), TestCaseError> {
    let at = offset(err);
    prop_assert!(
        at.map_or(!required, |at| at <= len),
        "rejection of {len} bytes has offset {at:?}: {err:?}"
    );
    Ok(())
}

/// Round trip, every truncation, and seeded mutations of `bytes` (a
/// valid encoding of `value`) through `decode`, never panicking.
///
/// # Errors
///
/// A [`TestCaseError::Fail`] naming the first broken check.
pub fn check_decoder<T, E>(
    bytes: &[u8],
    value: &T,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    offset: impl Fn(&E) -> Option<usize>,
    seed: u64,
) -> Result<(), TestCaseError>
where
    T: PartialEq + Debug,
    E: Debug,
{
    let decoded = no_panic("decoder", bytes, || decode(bytes))?;
    prop_assert!(
        decoded.as_ref().ok() == Some(value),
        "round trip of {value:?} gave {decoded:?}"
    );
    for len in truncation_points(bytes.len(), seed) {
        let prefix = &bytes[..len];
        match no_panic("decoder", prefix, || decode(prefix))? {
            Ok(v) => prop_assert!(false, "a {len}-byte strict prefix decoded as {v:?}"),
            Err(err) => check_offset(&err, &offset, len, true)?,
        }
    }
    for corrupt in mutations(bytes, seed) {
        if let Err(err) = no_panic("decoder", &corrupt, || decode(&corrupt))? {
            check_offset(&err, &offset, corrupt.len(), false)?;
        }
    }
    Ok(())
}

/// An incremental parser (`Ok(Some((value, consumed)))` for a complete
/// value at the front of the buffer, `Ok(None)` for "need more bytes")
/// must agree with the whole-buffer `decode` on `bytes`, every strict
/// prefix of it, and seeded mutations of it, never panicking. A
/// connection holds frames partially buffered between reads, so a
/// prefix must be "need more", never an error or a shorter value.
///
/// # Errors
///
/// A [`TestCaseError::Fail`] naming the first disagreement.
pub fn check_prefix_parser<T, E>(
    bytes: &[u8],
    parse_prefix: impl Fn(&[u8]) -> Result<Option<(T, usize)>, E>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    offset: impl Fn(&E) -> Option<usize>,
    seed: u64,
) -> Result<(), TestCaseError>
where
    T: PartialEq + Debug,
    E: Debug,
{
    for len in truncation_points(bytes.len(), seed) {
        let prefix = &bytes[..len];
        let parsed = no_panic("prefix parser", prefix, || parse_prefix(prefix))?;
        prop_assert!(
            matches!(parsed, Ok(None)),
            "a {len}-byte strict prefix parsed as {parsed:?}, not \"need more\""
        );
    }
    for (i, input) in std::iter::once(bytes.to_vec())
        .chain(mutations(bytes, seed))
        .enumerate()
    {
        let decoded = no_panic("decoder", &input, || decode(&input))?.ok();
        match no_panic("prefix parser", &input, || parse_prefix(&input))? {
            Ok(Some((value, used))) => {
                let cut = match input.get(..used) {
                    Some(cut) => no_panic("decoder", cut, || decode(cut))?.ok(),
                    None => None,
                };
                // A corrupted length can cut a shorter frame; then the
                // whole-buffer decoder must reject the rest as trailing.
                prop_assert!(
                    cut == Some(value) && (used == input.len() || decoded.is_none()),
                    "prefix parser cut {used} bytes, disagreeing with decode: {input:02x?}"
                );
            }
            // A corrupted length can claim more bytes than present; the
            // whole-buffer decoder must then call the buffer truncated.
            Ok(None) => prop_assert!(
                decoded.is_none(),
                "prefix parser wants more than decode accepted: {input:02x?}"
            ),
            Err(err) => {
                prop_assert!(i > 0, "the valid encoding failed to parse: {err:?}");
                check_offset(&err, &offset, input.len(), false)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy length-prefixed format, `len ∥ bytes`; errors are offsets.
    fn decode(bytes: &[u8]) -> Result<Vec<u8>, usize> {
        match bytes.split_first() {
            Some((&len, rest)) if rest.len() == usize::from(len) => Ok(rest.to_vec()),
            _ => Err(0),
        }
    }

    fn parse_prefix(bytes: &[u8]) -> Result<Option<(Vec<u8>, usize)>, usize> {
        Ok(bytes.split_first().and_then(|(&len, rest)| {
            let len = usize::from(len);
            (rest.len() >= len).then(|| (rest[..len].to_vec(), len + 1))
        }))
    }

    fn check(decode: impl Fn(&[u8]) -> Result<Vec<u8>, usize>) -> Result<(), TestCaseError> {
        check_decoder(b"\x03abc", &b"abc".to_vec(), decode, |&at| Some(at), 7)
    }

    #[test]
    fn sound_codecs_pass_and_broken_decoders_fail() {
        check(decode).unwrap();
        check_prefix_parser(b"\x03abc", parse_prefix, decode, |&at| Some(at), 7).unwrap();
        let panics = |b: &[u8]| {
            if b.len() == 2 {
                panic!("boom")
            } else {
                decode(b)
            }
        };
        let wild_offset = |b: &[u8]| decode(b).map_err(|_| 99);
        let lenient = |b: &[u8]| Ok(b.iter().skip(1).copied().collect());
        for (result, symptom) in [
            (check(panics), "panicked"),
            (check(wild_offset), "offset Some(99)"),
            (check(lenient), "strict prefix decoded"),
        ] {
            match result {
                Err(TestCaseError::Fail(msg)) => assert!(msg.contains(symptom), "{msg}"),
                other => panic!("{symptom}: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_points_sample_large_buffers() {
        assert_eq!(truncation_points(3, 0), vec![0, 1, 2]);
        let points = truncation_points(4096, 9);
        assert_eq!(points.len(), 128 + 96 + 1);
        assert!(points.iter().all(|&p| p < 4096));
        assert_eq!(mutations(b"xyz", 1).len(), MUTATIONS);
        assert!(mutations(b"", 1).is_empty());
    }
}
