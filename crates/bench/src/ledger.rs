//! E4/E23: provenance transactions and the PBFT-backed ledger they
//! commit to.

use hc_common::clock::{SimClock, SimDuration, SimInstant};
use hc_common::id::TxId;
use hc_ledger::block::Transaction;
use hc_ledger::chain::Ledger;
use hc_ledger::consensus::{ConsensusError, PbftCluster};
use hc_ledger::policy::ProvenancePolicy;

/// Provenance transaction number `i` on the `provenance` channel.
pub fn tx(i: u128) -> Transaction {
    Transaction {
        id: TxId::from_raw(i),
        channel: "provenance".into(),
        kind: "ingested".into(),
        payload: format!("record={i}").into_bytes(),
        submitter: "e4".into(),
        timestamp: SimInstant::from_nanos(i as u64),
    }
}

/// `blocks` batches of `per_block` consecutive transactions, numbered
/// from `first`.
pub fn batches(first: u128, blocks: u128, per_block: u128) -> Vec<Vec<Transaction>> {
    (0..blocks)
        .map(|b| {
            (0..per_block)
                .map(|j| tx(first + b * per_block + j))
                .collect()
        })
        .collect()
}

/// A ledger with the provenance policy installed, committing through
/// `peers` PBFT peers on 1 ms links with up to `window` blocks in
/// flight (`1` is the sequential engine).
///
/// # Errors
///
/// Returns [`ConsensusError::TooFewPeers`] for `peers < 4`.
pub fn provenance_ledger(
    peers: usize,
    window: usize,
    clock: SimClock,
) -> Result<Ledger, ConsensusError> {
    let cluster =
        PbftCluster::pipelined(peers, window, SimDuration::from_millis(1), clock.clone())?;
    let mut ledger = Ledger::new(cluster, clock);
    ledger.install_policy(Box::new(ProvenancePolicy));
    Ok(ledger)
}
