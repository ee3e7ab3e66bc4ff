//! Shared experiment scenarios for E1–E23.
//!
//! Every workload that more than one place runs is defined once here,
//! and the experiment harness (`cargo run --release --example
//! experiments`), the criterion targets under `benches/` and the
//! root package's SLO tests all build from it:
//!
//! * [`cache`] — the E1/E16 two-level cache hierarchy;
//! * [`ledger`] — the E4/E23 provenance transactions and ledger;
//! * [`scaling`] — the E18 sharded cache, mixed op and contention model;
//! * [`serving`] — the E19/E20 serving stacks, fleet tiers and workloads.
//!
//! Scenarios with two sizes take a [`Scale`]: the harness picks
//! [`Scale::Full`] in release builds and [`Scale::Small`] in debug
//! builds; benches and tests always run [`Scale::Small`]. The harness
//! prints the recorded tables; the bench targets time the same
//! scenarios on the wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod ledger;
pub mod scaling;
pub mod serving;

/// Which of a scenario's two sizes to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The reduced size: debug harness runs, bench smoke runs and tests.
    Small,
    /// The recorded size: release harness runs.
    Full,
}

impl Scale {
    /// Returns `small` at [`Scale::Small`] and `full` at [`Scale::Full`].
    pub fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// A deterministic payload of `size` bytes.
pub fn payload(size: usize) -> Vec<u8> {
    (0..size).map(|i| (i * 31 % 251) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_deterministic() {
        assert_eq!(payload(16), payload(16));
        assert_eq!(payload(4).len(), 4);
    }
}
