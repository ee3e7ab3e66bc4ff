//! Transactions and blocks.

use std::sync::Arc;

use hc_common::clock::SimInstant;
use hc_common::id::TxId;
use hc_crypto::merkle::MerkleTree;
use hc_crypto::sha256::{self, Digest};
use serde::{Deserialize, Serialize};

/// A ledger transaction: an event record, never PHI itself.
///
/// The string fields are shared: a [`crate::chain::Ledger`] interns them
/// on append, so every committed transaction on a channel points at one
/// copy of its channel, kind and submitter names.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Transaction {
    /// Transaction id.
    pub id: TxId,
    /// The channel (sub-network) this transaction belongs to: the paper's
    /// provenance / malware / privacy blockchain networks.
    pub channel: Arc<str>,
    /// Event kind tag (interpreted by channel policies).
    pub kind: Arc<str>,
    /// Serialized event payload (a handle + hash + metadata — no PHI).
    pub payload: Vec<u8>,
    /// The submitting party (peer or service name).
    pub submitter: Arc<str>,
    /// Submission time.
    pub timestamp: SimInstant,
}

impl Transaction {
    /// The transaction's content hash (leaf of the block Merkle tree).
    pub fn hash(&self) -> Digest {
        sha256::hash_parts(&[
            &self.id.as_u128().to_le_bytes(),
            self.channel.as_bytes(),
            &[0],
            self.kind.as_bytes(),
            &[0],
            &self.payload,
            self.submitter.as_bytes(),
            &self.timestamp.as_nanos().to_le_bytes(),
        ])
    }
}

/// The fixed per-transaction charge of [`Block::body_bytes`]: the
/// footprint of a transaction whose strings are owned, not shared. It is
/// a constant of the accounting, not `size_of::<Transaction>()`, so
/// retained and pruned byte counts do not move with the struct layout.
const TX_FIXED_BYTES: usize = 128;

/// The consensus-covered header fields of a [`Block`]: everything needed
/// to verify hash-chain linkage and serve Merkle proofs after the block's
/// transaction body has been pruned behind a checkpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the previous block ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Merkle root over the (possibly pruned) transactions.
    pub merkle_root: Digest,
    /// Block timestamp.
    pub timestamp: SimInstant,
    /// How many transactions the body carried.
    pub tx_count: u64,
    /// The block hash, recomputable from the fields above.
    pub hash: Digest,
}

impl BlockHeader {
    /// Whether the header hash matches its own fields — the only
    /// consistency a pruned block can still prove locally. Body-level
    /// claims are delegated to Merkle proofs against `merkle_root`.
    pub fn is_consistent(&self) -> bool {
        Block::compute_hash(self.height, &self.prev_hash, &self.merkle_root, self.timestamp)
            == self.hash
    }
}

/// A block of the hash chain.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Block {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the previous block ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Merkle root over the transactions.
    pub merkle_root: Digest,
    /// Block timestamp.
    pub timestamp: SimInstant,
    /// The committed transactions.
    pub transactions: Vec<Transaction>,
    /// This block's hash.
    pub hash: Digest,
}

impl Block {
    /// Builds a block over `transactions`, computing roots and hashes.
    ///
    /// # Panics
    ///
    /// Panics if `transactions` is empty — empty blocks are not committed.
    pub fn build(
        height: u64,
        prev_hash: Digest,
        timestamp: SimInstant,
        transactions: Vec<Transaction>,
    ) -> Self {
        assert!(!transactions.is_empty(), "blocks must carry transactions");
        let merkle_root = Self::transactions_root(&transactions);
        Self::from_parts(height, prev_hash, merkle_root, timestamp, transactions)
    }

    /// Assembles a block from a Merkle root computed elsewhere (the
    /// parallel validation path computes roots on worker threads and
    /// commits in order). The root is trusted; [`Block::build`] is the
    /// safe constructor when no precomputed root exists.
    ///
    /// # Panics
    ///
    /// Panics if `transactions` is empty — empty blocks are not committed.
    pub fn from_parts(
        height: u64,
        prev_hash: Digest,
        merkle_root: Digest,
        timestamp: SimInstant,
        transactions: Vec<Transaction>,
    ) -> Self {
        assert!(!transactions.is_empty(), "blocks must carry transactions");
        let hash = Self::compute_hash(height, &prev_hash, &merkle_root, timestamp);
        Block {
            height,
            prev_hash,
            merkle_root,
            timestamp,
            transactions,
            hash,
        }
    }

    /// The Merkle root over a transaction batch.
    pub fn transactions_root(transactions: &[Transaction]) -> Digest {
        let leaf_hashes: Vec<Digest> = transactions
            .iter()
            .map(|t| hc_crypto::merkle::leaf_hash(t.hash().as_bytes()))
            .collect();
        MerkleTree::from_leaf_hashes(leaf_hashes).root()
    }

    /// The deterministic block timestamp for a batch: the latest
    /// transaction timestamp. Derived from content rather than the
    /// committing replica's clock so sequential and pipelined commits of
    /// the same batches produce byte-identical chains.
    pub fn stamp(transactions: &[Transaction]) -> SimInstant {
        transactions
            .iter()
            .map(|t| t.timestamp)
            .max()
            .unwrap_or(SimInstant::ZERO)
    }

    /// This block's consensus-covered header.
    pub fn header(&self) -> BlockHeader {
        BlockHeader {
            height: self.height,
            prev_hash: self.prev_hash,
            merkle_root: self.merkle_root,
            timestamp: self.timestamp,
            tx_count: self.transactions.len() as u64,
            hash: self.hash,
        }
    }

    /// Accounted bytes of the transaction body — the storage that
    /// checkpoint pruning reclaims: a fixed 128 bytes per transaction
    /// plus its string and payload lengths.
    pub fn body_bytes(&self) -> u64 {
        self.transactions
            .iter()
            .map(|t| {
                (TX_FIXED_BYTES
                    + t.channel.len()
                    + t.kind.len()
                    + t.payload.len()
                    + t.submitter.len()) as u64
            })
            .sum()
    }

    /// The header hash function.
    pub fn compute_hash(
        height: u64,
        prev_hash: &Digest,
        merkle_root: &Digest,
        timestamp: SimInstant,
    ) -> Digest {
        sha256::hash_parts(&[
            &height.to_le_bytes(),
            prev_hash.as_bytes(),
            merkle_root.as_bytes(),
            &timestamp.as_nanos().to_le_bytes(),
        ])
    }

    /// Recomputes and checks this block's internal consistency: header
    /// hash and Merkle root both match the contents.
    pub fn is_internally_consistent(&self) -> bool {
        if self.transactions.is_empty() {
            return false;
        }
        let leaf_hashes: Vec<Digest> = self
            .transactions
            .iter()
            .map(|t| hc_crypto::merkle::leaf_hash(t.hash().as_bytes()))
            .collect();
        let root = MerkleTree::from_leaf_hashes(leaf_hashes).root();
        root == self.merkle_root
            && Self::compute_hash(self.height, &self.prev_hash, &self.merkle_root, self.timestamp)
                == self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(raw: u128, kind: &str) -> Transaction {
        Transaction {
            id: TxId::from_raw(raw),
            channel: "provenance".into(),
            kind: kind.into(),
            payload: vec![1, 2, 3],
            submitter: "ingest".into(),
            timestamp: SimInstant::from_nanos(raw as u64),
        }
    }

    #[test]
    fn block_is_consistent() {
        let b = Block::build(0, Digest::ZERO, SimInstant::ZERO, vec![tx(1, "ingested")]);
        assert!(b.is_internally_consistent());
    }

    #[test]
    fn tampered_tx_breaks_consistency() {
        let mut b = Block::build(
            0,
            Digest::ZERO,
            SimInstant::ZERO,
            vec![tx(1, "ingested"), tx(2, "accessed")],
        );
        b.transactions[1].payload = vec![9, 9, 9];
        assert!(!b.is_internally_consistent());
    }

    #[test]
    fn tampered_header_breaks_consistency() {
        let mut b = Block::build(0, Digest::ZERO, SimInstant::ZERO, vec![tx(1, "x")]);
        b.height = 7;
        assert!(!b.is_internally_consistent());
    }

    #[test]
    fn tx_hash_covers_all_fields() {
        let base = tx(1, "a");
        let mut other = base.clone();
        other.channel = "malware".into();
        assert_ne!(base.hash(), other.hash());
        let mut other = base.clone();
        other.submitter = "evil".into();
        assert_ne!(base.hash(), other.hash());
    }

    #[test]
    #[should_panic(expected = "must carry transactions")]
    fn empty_block_panics() {
        let _ = Block::build(0, Digest::ZERO, SimInstant::ZERO, vec![]);
    }

    #[test]
    fn from_parts_matches_build() {
        let txs = vec![tx(1, "ingested"), tx(2, "accessed")];
        let built = Block::build(3, Digest::ZERO, SimInstant::from_nanos(9), txs.clone());
        let root = Block::transactions_root(&txs);
        let parts = Block::from_parts(3, Digest::ZERO, root, SimInstant::from_nanos(9), txs);
        assert_eq!(built, parts);
    }

    #[test]
    fn stamp_is_latest_transaction_time() {
        let txs = vec![tx(5, "ingested"), tx(2, "accessed"), tx(4, "exported")];
        assert_eq!(Block::stamp(&txs), SimInstant::from_nanos(5));
        assert_eq!(Block::stamp(&[]), SimInstant::ZERO);
    }

    #[test]
    fn header_round_trips_consistency() {
        let b = Block::build(0, Digest::ZERO, SimInstant::ZERO, vec![tx(1, "ingested")]);
        let mut h = b.header();
        assert!(h.is_consistent());
        assert_eq!(h.tx_count, 1);
        h.merkle_root = Digest::ZERO;
        assert!(!h.is_consistent(), "tampered header must fail");
    }

    #[test]
    fn body_bytes_counts_payloads() {
        let small = Block::build(0, Digest::ZERO, SimInstant::ZERO, vec![tx(1, "a")]);
        let mut big_tx = tx(2, "a");
        big_tx.payload = vec![0u8; 4096];
        let big = Block::build(0, Digest::ZERO, SimInstant::ZERO, vec![big_tx]);
        assert!(big.body_bytes() > small.body_bytes() + 4000);
    }
}
