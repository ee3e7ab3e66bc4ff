//! Authenticated encryption: ChaCha20 encrypt-then-MAC with HMAC-SHA-256.
//!
//! This is the concrete realization of the paper's §IV-B1 design: data is
//! "encrypted with a well-established shared key" and integrity-protected
//! with HMACs. The MAC covers the nonce, the associated data (e.g. the
//! record's routing metadata) and the ciphertext, so any tampering —
//! including replaying a ciphertext under different metadata — is detected.

use rand::Rng;
use serde::__private::{decode_field, finish_field};
use serde::{DeError, Deserialize, Emitter, Parser, Serialize};

use crate::chacha20::{self, Nonce};
use crate::hmac;
use crate::sha256::Digest;

/// A 256-bit shared secret key.
///
/// The debug representation never prints key material.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Wraps raw key bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey(bytes)
    }

    /// Generates a fresh random key from `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        SecretKey(bytes)
    }

    /// Returns the raw key bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Derives a labelled subkey (e.g. separate encryption and MAC keys).
    pub fn derive(&self, label: &[u8]) -> SecretKey {
        SecretKey(hmac::derive_key(&self.0, label))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// An encrypted, integrity-protected payload.
///
/// Serialized as `{"ciphertext":"<lowercase hex>","nonce":[..],"tag":[..]}`:
/// the ciphertext travels as one hex string rather than one JSON number
/// per byte, while `nonce` and `tag` keep their derived array form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sealed {
    /// Cipher nonce (public).
    pub nonce: Nonce,
    /// ChaCha20 ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 over nonce ‖ aad ‖ ciphertext.
    pub tag: Digest,
}

impl Sealed {
    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        12 + self.ciphertext.len() + 32
    }
}

impl Serialize for Sealed {
    fn serialize(&self, e: &mut Emitter) {
        e.begin_object();
        e.key("ciphertext");
        e.str_unescaped(|out| hc_common::hex::encode_into(&self.ciphertext, out));
        e.key("nonce");
        self.nonce.serialize(e);
        e.key("tag");
        self.tag.serialize(e);
        e.end_object();
    }
}

impl Deserialize for Sealed {
    /// Total over untrusted input: every shape other than the one
    /// [`Serialize`] writes — a missing or non-string `ciphertext`, odd
    /// length, a non-hex digit, the per-byte number-array form — is a
    /// [`DeError`].
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let (mut ciphertext, mut nonce, mut tag) = (None, None, None);
        p.begin_object("Sealed object")?;
        while let Some(key) = p.next_key()? {
            match &*key {
                "ciphertext" => {
                    let hex = p.str().map_err(|_| DeError::msg("field `ciphertext`: expected a hex string"))?;
                    let bytes = hc_common::hex::decode(&hex);
                    ciphertext = Some(bytes.map_err(|e| DeError::msg(format!("field `ciphertext`: {e}")))?);
                }
                "nonce" => nonce = Some(decode_field(p, "nonce")?),
                "tag" => tag = Some(decode_field(p, "tag")?),
                _ => p.skip()?,
            }
        }
        Ok(Sealed {
            ciphertext: finish_field(ciphertext, "ciphertext")?,
            nonce: finish_field(nonce, "nonce")?,
            tag: finish_field(tag, "tag")?,
        })
    }
}

/// Error returned when opening a sealed payload fails authentication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpenError;

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authentication tag mismatch")
    }
}

impl std::error::Error for OpenError {}

/// HMAC-SHA-256 over `nonce ‖ len(aad) as u64 LE ‖ aad ‖ ciphertext`,
/// fed to the MAC part by part so the ciphertext is never copied.
fn mac(mac_key: &SecretKey, nonce: &Nonce, aad: &[u8], ciphertext: &[u8]) -> Digest {
    let aad_len = (aad.len() as u64).to_le_bytes();
    hmac::hmac_parts(mac_key.as_bytes(), &[&nonce.0, &aad_len, aad, ciphertext])
}

/// Seals `plaintext` under `key` with a deterministic per-key nonce counter
/// supplied by the caller via [`seal_with_nonce`], or a nonce derived from
/// the plaintext+aad hash here.
///
/// Deriving the nonce from a hash keeps the API misuse-resistant in this
/// deterministic simulation context (the same (key, plaintext, aad) triple
/// yields the same ciphertext; distinct messages get distinct nonces).
pub fn seal(key: &SecretKey, plaintext: &[u8], aad: &[u8]) -> Sealed {
    let h = crate::sha256::hash_parts(&[key.as_bytes(), plaintext, aad]);
    let mut nonce = Nonce::default();
    for (n, b) in nonce.0.iter_mut().zip(h.as_bytes()) {
        *n = *b;
    }
    seal_with_nonce(key, nonce, plaintext, aad)
}

/// Seals `plaintext` with an explicit nonce.
///
/// The caller is responsible for never reusing a nonce under the same key.
pub fn seal_with_nonce(key: &SecretKey, nonce: Nonce, plaintext: &[u8], aad: &[u8]) -> Sealed {
    let enc_key = key.derive(b"enc");
    let mac_key = key.derive(b"mac");
    let ciphertext = chacha20::encrypt(enc_key.as_bytes(), &nonce, plaintext);
    let tag = mac(&mac_key, &nonce, aad, &ciphertext);
    Sealed {
        nonce,
        ciphertext,
        tag,
    }
}

/// Opens a sealed payload, verifying integrity before decrypting.
///
/// # Errors
///
/// Returns [`OpenError`] if the tag does not verify (wrong key, tampered
/// ciphertext, or mismatched associated data).
pub fn open(key: &SecretKey, sealed: &Sealed, aad: &[u8]) -> Result<Vec<u8>, OpenError> {
    let enc_key = key.derive(b"enc");
    let mac_key = key.derive(b"mac");
    let expected = mac(&mac_key, &sealed.nonce, aad, &sealed.ciphertext);
    if !hc_common::hex::constant_time_eq(expected.as_bytes(), sealed.tag.as_bytes()) {
        return Err(OpenError);
    }
    Ok(chacha20::decrypt(
        enc_key.as_bytes(),
        &sealed.nonce,
        &sealed.ciphertext,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key() -> SecretKey {
        SecretKey::from_bytes([9u8; 32])
    }

    #[test]
    fn round_trip() {
        let sealed = seal(&key(), b"hba1c=6.5", b"patient-42");
        assert_eq!(open(&key(), &sealed, b"patient-42").unwrap(), b"hba1c=6.5");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut sealed = seal(&key(), b"data", b"");
        sealed.ciphertext[0] ^= 1;
        assert_eq!(open(&key(), &sealed, b""), Err(OpenError));
    }

    #[test]
    fn wrong_aad_rejected() {
        let sealed = seal(&key(), b"data", b"ctx-a");
        assert_eq!(open(&key(), &sealed, b"ctx-b"), Err(OpenError));
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(), b"data", b"");
        let other = SecretKey::from_bytes([8u8; 32]);
        assert_eq!(open(&other, &sealed, b""), Err(OpenError));
    }

    #[test]
    fn debug_hides_key_material() {
        assert_eq!(format!("{:?}", key()), "SecretKey(..)");
    }

    #[test]
    fn wire_len_accounts_overhead() {
        let sealed = seal(&key(), &[0u8; 100], b"");
        assert_eq!(sealed.wire_len(), 100 + 44);
    }

    #[test]
    fn derive_produces_distinct_subkeys() {
        assert_ne!(key().derive(b"a"), key().derive(b"b"));
    }

    #[test]
    fn tag_matches_hmac_of_concatenated_mac_input() {
        let nonce = Nonce([7u8; 12]);
        let aad = b"patient-42";
        let sealed = seal_with_nonce(&key(), nonce, b"hba1c=6.5", aad);
        let mut input = Vec::new();
        input.extend_from_slice(&nonce.0);
        input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        input.extend_from_slice(aad);
        input.extend_from_slice(&sealed.ciphertext);
        let mac_key = key().derive(b"mac");
        assert_eq!(sealed.tag, hmac::hmac(mac_key.as_bytes(), &input));
        // `seal` takes its nonce from the first 12 bytes of the hash.
        let h = crate::sha256::hash_parts(&[key().as_bytes(), b"data", b""]);
        assert_eq!(seal(&key(), b"data", b"").nonce.0, h.as_bytes()[..12]);
    }

    /// A valid envelope whose `"ciphertext":…,` member is replaced by
    /// `member` (empty to drop it).
    fn envelope_with(member: &str) -> String {
        let sealed = seal(&key(), &[0xab, 0x0f], b"");
        let hex = hc_common::hex::encode(&sealed.ciphertext);
        serde_json::to_string(&sealed).unwrap().replacen(
            &format!("\"ciphertext\":\"{hex}\","),
            member,
            1,
        )
    }

    fn decode_error(json: &str) -> String {
        serde_json::from_str::<Sealed>(json)
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn envelope_writes_ciphertext_as_lowercase_hex() {
        let sealed = seal(&key(), b"hba1c=6.5", b"aad");
        let json = serde_json::to_string(&sealed).unwrap();
        let hex = hc_common::hex::encode(&sealed.ciphertext);
        assert!(json.starts_with(&format!("{{\"ciphertext\":\"{hex}\",\"nonce\":[")));
        assert_eq!(serde_json::from_str::<Sealed>(&json).unwrap(), sealed);
        let empty = seal(&key(), b"", b"");
        let json = serde_json::to_string(&empty).unwrap();
        assert!(json.starts_with("{\"ciphertext\":\"\","));
        assert_eq!(serde_json::from_str::<Sealed>(&json).unwrap(), empty);
        assert!(serde_json::from_str::<Sealed>(&envelope_with("\"ciphertext\":\"ABcd\",")).is_ok());
    }

    #[test]
    fn envelope_rejects_missing_ciphertext() {
        assert!(decode_error(&envelope_with("")).contains("missing field `ciphertext`"));
    }

    #[test]
    fn envelope_rejects_non_string_ciphertext() {
        for bad in ["null", "7", "true", "{}", "[\"ab\"]"] {
            let err = decode_error(&envelope_with(&format!("\"ciphertext\":{bad},")));
            assert!(err.contains("expected a hex string"), "{bad}: {err}");
        }
    }

    #[test]
    fn envelope_rejects_odd_length_hex() {
        let err = decode_error(&envelope_with("\"ciphertext\":\"abc\","));
        assert!(err.contains("odd length"), "{err}");
    }

    #[test]
    fn envelope_rejects_non_hex_digit() {
        let err = decode_error(&envelope_with("\"ciphertext\":\"ab0g\","));
        assert!(err.contains("invalid hex digit at index 3"), "{err}");
    }

    #[test]
    fn envelope_rejects_number_array_ciphertext() {
        // The per-byte form every envelope used before the hex encoding.
        let err = decode_error(&envelope_with("\"ciphertext\":[171,15],"));
        assert!(err.contains("expected a hex string"), "{err}");
    }

    #[test]
    fn envelope_rejects_non_object() {
        assert!(serde_json::from_str::<Sealed>("[]").is_err());
        assert!(serde_json::from_str::<Sealed>("\"00\"").is_err());
    }

    proptest! {
        #[test]
        fn any_payload_round_trips(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let sealed = seal(&key(), &data, &aad);
            prop_assert_eq!(open(&key(), &sealed, &aad).unwrap(), data);
        }

        #[test]
        fn envelope_decoder_never_panics_on_random_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let _ = serde_json::from_slice::<Sealed>(&bytes);
        }

        #[test]
        fn envelope_decoder_never_panics_on_corrupted_envelopes(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            at in any::<usize>(),
            noise in proptest::collection::vec(any::<u8>(), 1..8),
        ) {
            let mut bytes = serde_json::to_vec(&seal(&key(), &data, b"")).unwrap();
            let at = at % bytes.len();
            let end = (at + noise.len()).min(bytes.len());
            bytes.splice(at..end, noise);
            if let Ok(sealed) = serde_json::from_slice::<Sealed>(&bytes) {
                // Whatever still parses must re-encode to a valid envelope.
                let again = serde_json::to_vec(&sealed).unwrap();
                prop_assert_eq!(serde_json::from_slice::<Sealed>(&again).unwrap(), sealed);
            }
        }

        #[test]
        fn bit_flips_always_detected(
            data in proptest::collection::vec(any::<u8>(), 1..256),
            flip_byte in 0usize..256,
            flip_bit in 0u8..8,
        ) {
            let mut sealed = seal(&key(), &data, b"aad");
            let idx = flip_byte % sealed.ciphertext.len();
            sealed.ciphertext[idx] ^= 1 << flip_bit;
            prop_assert_eq!(open(&key(), &sealed, b"aad"), Err(OpenError));
        }
    }
}
