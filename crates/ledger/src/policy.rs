//! Channel policies — the "smart contracts" of the permissioned network.
//!
//! §IV-B1: "Smart contracts can carry out analytics on top of such
//! information and use such information for dynamic ledger management."
//! Each channel installs policies that every transaction must satisfy
//! before a block is appended.

use crate::block::Transaction;

/// A validation hook run against every transaction on its channel.
pub trait ChainPolicy: Send + Sync {
    /// The policy's name (for diagnostics).
    fn name(&self) -> &str;

    /// The channel this policy guards.
    fn channel(&self) -> &str;

    /// Validates a transaction.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the transaction violates the
    /// policy; the containing block is then rejected.
    fn validate(&self, tx: &Transaction) -> Result<(), String>;
}

/// Provenance-channel policy: events must carry a submitter and a
/// non-empty payload, and use a known event kind.
#[derive(Debug, Default)]
pub struct ProvenancePolicy;

/// The event kinds the provenance channel accepts.
pub const PROVENANCE_KINDS: &[&str] = &[
    "ingested",
    "accessed",
    "anonymized",
    "exported",
    "deleted",
    "consent-granted",
    "consent-revoked",
    "model-deployed",
];

impl ChainPolicy for ProvenancePolicy {
    fn name(&self) -> &str {
        "provenance-policy"
    }

    fn channel(&self) -> &str {
        "provenance"
    }

    fn validate(&self, tx: &Transaction) -> Result<(), String> {
        if tx.submitter.is_empty() {
            return Err("provenance event has no submitter".to_owned());
        }
        if tx.payload.is_empty() {
            return Err("provenance event has empty payload".to_owned());
        }
        if !PROVENANCE_KINDS.contains(&&*tx.kind) {
            return Err(format!("unknown provenance kind `{}`", tx.kind));
        }
        Ok(())
    }
}

/// Malware-channel policy: alerts must identify the scanner and the
/// affected record handle.
#[derive(Debug, Default)]
pub struct MalwarePolicy;

impl ChainPolicy for MalwarePolicy {
    fn name(&self) -> &str {
        "malware-policy"
    }

    fn channel(&self) -> &str {
        "malware"
    }

    fn validate(&self, tx: &Transaction) -> Result<(), String> {
        if &*tx.kind != "malware-detected" && &*tx.kind != "record-cleaned" {
            return Err(format!("unknown malware kind `{}`", tx.kind));
        }
        let text = String::from_utf8_lossy(&tx.payload);
        if !text.contains("scanner=") {
            return Err("malware event must name its scanner".to_owned());
        }
        if !text.contains("record=") {
            return Err("malware event must reference a record".to_owned());
        }
        Ok(())
    }
}

/// Privacy-channel policy: privacy scores must declare k ≥ the channel's
/// configured minimum.
#[derive(Debug)]
pub struct PrivacyPolicy {
    /// The minimum acceptable k for recorded datasets.
    pub min_k: usize,
}

impl ChainPolicy for PrivacyPolicy {
    fn name(&self) -> &str {
        "privacy-policy"
    }

    fn channel(&self) -> &str {
        "privacy"
    }

    fn validate(&self, tx: &Transaction) -> Result<(), String> {
        if &*tx.kind != "privacy-scored" {
            return Err(format!("unknown privacy kind `{}`", tx.kind));
        }
        let text = String::from_utf8_lossy(&tx.payload);
        let k: usize = text
            .split(';')
            .find_map(|part| part.strip_prefix("k="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "privacy event missing k=".to_owned())?;
        if k < self.min_k {
            return Err(format!("k={k} below channel minimum {}", self.min_k));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_common::clock::SimInstant;
    use hc_common::id::TxId;

    fn tx(channel: &str, kind: &str, payload: &str, submitter: &str) -> Transaction {
        Transaction {
            id: TxId::from_raw(1),
            channel: channel.into(),
            kind: kind.into(),
            payload: payload.as_bytes().to_vec(),
            submitter: submitter.into(),
            timestamp: SimInstant::ZERO,
        }
    }

    #[test]
    fn provenance_accepts_known_kinds() {
        let p = ProvenancePolicy;
        assert!(p.validate(&tx("provenance", "ingested", "record=1", "ingest")).is_ok());
        assert!(p.validate(&tx("provenance", "minted", "x", "ingest")).is_err());
        assert!(p.validate(&tx("provenance", "ingested", "", "ingest")).is_err());
        assert!(p.validate(&tx("provenance", "ingested", "x", "")).is_err());
    }

    #[test]
    fn malware_requires_scanner_and_record() {
        let p = MalwarePolicy;
        assert!(p
            .validate(&tx("malware", "malware-detected", "scanner=clam;record=42", "scan"))
            .is_ok());
        assert!(p
            .validate(&tx("malware", "malware-detected", "record=42", "scan"))
            .is_err());
        assert!(p
            .validate(&tx("malware", "malware-detected", "scanner=clam", "scan"))
            .is_err());
        assert!(p.validate(&tx("malware", "other", "scanner=c;record=1", "s")).is_err());
    }

    #[test]
    fn privacy_enforces_min_k() {
        let p = PrivacyPolicy { min_k: 5 };
        assert!(p.validate(&tx("privacy", "privacy-scored", "record=1;k=10", "anon")).is_ok());
        assert!(p.validate(&tx("privacy", "privacy-scored", "record=1;k=2", "anon")).is_err());
        assert!(p.validate(&tx("privacy", "privacy-scored", "record=1", "anon")).is_err());
        assert!(p.validate(&tx("privacy", "other", "k=10", "anon")).is_err());
    }
}
