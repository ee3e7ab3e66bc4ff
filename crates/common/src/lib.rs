//! Shared primitives for the trusted healthcare cloud platform reproduction.
//!
//! This crate hosts the small vocabulary types every subsystem speaks:
//!
//! * [`id`] — strongly typed 128-bit identifiers ([`id::TenantId`],
//!   [`id::PatientId`], …) so that a patient id can never be passed where a
//!   tenant id is expected.
//! * [`clock`] — a [`clock::SimClock`] simulated clock that drives all
//!   latency accounting, so experiments are reproducible bit-for-bit.
//! * [`rng`] — deterministic seed-splitting helpers on top of `rand`.
//! * [`hex`] — hexadecimal encoding/decoding and constant-time comparison.
//! * [`fault`] — a seeded, [`clock::SimClock`]-driven [`fault::FaultInjector`]
//!   that subsystems consult at named fault points, so resilience
//!   experiments can script crashes, partitions, and latency spikes
//!   reproducibly.
//! * [`conc`] — concurrent-workload drivers: a seeded closed-loop
//!   multi-thread load generator (per-thread Zipf streams) and a
//!   deterministic virtual-time lock-contention model, shared by the
//!   E18 scaling experiment and the concurrency soak tests.
//! * [`intern`] — an [`intern::Interner`] that stores each distinct value
//!   once, so audit logs and ledger transactions share repeated names.
//!
//! # Examples
//!
//! ```
//! use hc_common::clock::SimClock;
//! use hc_common::id::PatientId;
//!
//! let clock = SimClock::new();
//! clock.advance_micros(250);
//! assert_eq!(clock.now().as_micros(), 250);
//!
//! let id = PatientId::from_raw(42);
//! assert_eq!(id.as_u128(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod conc;
pub mod fault;
pub mod hex;
pub mod id;
pub mod intern;
pub mod rng;

pub use clock::{SimClock, SimDuration, SimInstant};
