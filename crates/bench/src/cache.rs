//! E1/E16: the two-level cache hierarchy in front of a remote origin.

use hc_cache::multilevel::CacheHierarchy;
use hc_cache::policy::LruCache;
use hc_common::clock::{SimClock, SimDuration};
use hc_telemetry::Registry;

/// Builds the E1 hierarchy — a 256-entry client LRU at 2 µs and a
/// 2,048-entry server LRU at 500 µs in front of a 50 ms origin — and
/// writes keys `0..keys` (value 0) through it.
///
/// With a `registry`, the hierarchy is instrumented before the writes,
/// as E16's "telemetry on" side.
pub fn hierarchy(registry: Option<&Registry>, keys: usize) -> CacheHierarchy<usize, u64> {
    let mut h = CacheHierarchy::new(SimClock::new(), SimDuration::from_millis(50));
    h.add_level(
        "client",
        Box::new(LruCache::new(256)),
        SimDuration::from_micros(2),
    );
    h.add_level(
        "server",
        Box::new(LruCache::new(2048)),
        SimDuration::from_micros(500),
    );
    if let Some(registry) = registry {
        h.instrument(registry);
    }
    for k in 0..keys {
        h.write(k, 0);
    }
    h
}
