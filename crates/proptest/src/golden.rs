//! Golden vectors: fixed encodings pinned as hex constants, so a codec
//! change that moves any byte of a format fails loudly. The constants
//! are whitespace-tolerant hex (lay them out 32 bytes to a line); on
//! drift, [`assert_golden`] prints the new encoding in that layout.

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes of a golden hex constant, ignoring whitespace.
///
/// # Panics
///
/// Panics if `golden` holds a non-hex digit or an odd digit count.
#[must_use]
pub fn unhex(golden: &str) -> Vec<u8> {
    let digits: Vec<u8> = golden
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    assert!(digits.len().is_multiple_of(2), "odd hex digit count");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// Asserts `bytes` are exactly the golden bytes.
///
/// # Panics
///
/// Panics on any difference, printing `what` and the new encoding.
pub fn assert_golden(what: &str, bytes: &[u8], golden: &str) {
    let actual = hex(bytes);
    if actual != hex(&unhex(golden)) {
        let lines: Vec<&str> = actual
            .as_bytes()
            .chunks(64)
            .map(|c| std::str::from_utf8(c).unwrap())
            .collect();
        panic!(
            "{what}: encoding drifted from its golden bytes\nnow:\n{}",
            lines.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_across_whitespace() {
        assert_eq!(unhex(" 00ff\n  7a "), vec![0x00, 0xFF, 0x7A]);
        assert_golden("bytes", &[0x00, 0xFF, 0x7A], "00ff 7a");
        let drift = std::panic::catch_unwind(|| assert_golden("bytes", &[1], "02"));
        assert!(drift.is_err());
    }
}
