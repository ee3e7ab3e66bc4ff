//! Hexadecimal encoding and constant-time byte comparison.

use std::fmt;

/// Error returned when decoding malformed hexadecimal input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeHexError {
    /// The input length was odd.
    OddLength,
    /// A character was not a hexadecimal digit.
    InvalidDigit {
        /// Byte offset of the offending character.
        index: usize,
    },
}

impl fmt::Display for DecodeHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeHexError::OddLength => write!(f, "hex string has odd length"),
            DecodeHexError::InvalidDigit { index } => {
                write!(f, "invalid hex digit at index {index}")
            }
        }
    }
}

impl std::error::Error for DecodeHexError {}

/// Encodes bytes as lowercase hexadecimal.
///
/// # Examples
///
/// ```
/// assert_eq!(hc_common::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    encode_into(bytes, &mut out);
    out
}

/// Appends the lowercase hexadecimal encoding of `bytes` to `out`.
pub fn encode_into(bytes: &[u8], out: &mut String) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        for nibble in [b >> 4, b & 0xf] {
            let digit = DIGITS.get(usize::from(nibble)).copied().unwrap_or(b'0');
            out.push(char::from(digit));
        }
    }
}

/// Decodes a hexadecimal string (either case) into bytes.
///
/// # Errors
///
/// Returns [`DecodeHexError`] if the input has odd length or contains a
/// non-hex character.
///
/// # Examples
///
/// ```
/// assert_eq!(hc_common::hex::decode("DEad").unwrap(), vec![0xde, 0xad]);
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, DecodeHexError> {
    if !s.len().is_multiple_of(2) {
        return Err(DecodeHexError::OddLength);
    }
    let digit = |b: u8, index: usize| {
        (b as char)
            .to_digit(16)
            .ok_or(DecodeHexError::InvalidDigit { index })
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    for (pair, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
        let &[hi, lo] = chunk else {
            return Err(DecodeHexError::OddLength);
        };
        let hi = digit(hi, 2 * pair)?;
        let lo = digit(lo, 2 * pair + 1)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately only on length mismatch (length is public).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_known_values() {
        assert_eq!(encode(&[]), "");
        assert_eq!(encode(&[0x00, 0xff, 0x10]), "00ff10");
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert_eq!(decode("abc"), Err(DecodeHexError::OddLength));
    }

    #[test]
    fn decode_rejects_bad_digit() {
        assert_eq!(decode("zz"), Err(DecodeHexError::InvalidDigit { index: 0 }));
        assert_eq!(decode("az"), Err(DecodeHexError::InvalidDigit { index: 1 }));
        assert_eq!(
            decode("00zz"),
            Err(DecodeHexError::InvalidDigit { index: 2 })
        );
        assert_eq!(
            decode("000g"),
            Err(DecodeHexError::InvalidDigit { index: 3 })
        );
        assert_eq!(
            decode("é00"),
            Err(DecodeHexError::InvalidDigit { index: 0 })
        );
    }

    #[test]
    fn constant_time_eq_behaviour() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }

    proptest! {
        #[test]
        fn round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = encode(&bytes);
            prop_assert_eq!(decode(&enc).unwrap(), bytes);
        }

        #[test]
        fn encode_matches_format_reference(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let reference: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(encode(&bytes), reference);
        }

        #[test]
        fn uppercase_decodes_too(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let enc = encode(&bytes).to_uppercase();
            prop_assert_eq!(decode(&enc).unwrap(), bytes);
        }
    }
}
