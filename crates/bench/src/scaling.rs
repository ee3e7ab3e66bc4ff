//! E18: the sharded-cache hot path and its virtual-time contention
//! model.
//!
//! The model's per-op costs are canonical constants in the order of
//! magnitude of an in-memory hash-map access. They are kept fixed rather
//! than re-derived from a wall-clock calibration (which includes driver
//! overhead such as the Zipf sampler) so the recorded table reproduces
//! on any host.

use hc_cache::policy::LruCache;
use hc_cache::shard::{ShardRouter, ShardedCache};
use hc_common::conc::{self, ConcReport, SimOp};
use rand::Rng;

/// Zipf keyspace of every E18 workload.
pub const KEYS: usize = 4096;
/// Seed for shard routing and the per-thread RNG streams.
pub const SEED: u64 = 18;
/// Share of operations that are writes.
const WRITE_SHARE: f64 = 0.10;
/// Model: lock-free routing and hash work before the critical section.
pub const WORK_NS: u64 = 40;
/// Model: critical section of a read (get + LRU touch).
pub const READ_HOLD_NS: u64 = 140;
/// Model: critical section of a write (put + eviction).
pub const WRITE_HOLD_NS: u64 = 220;
/// Model: operations per simulated thread.
const MODEL_OPS: u64 = 10_000;

/// The sharded LRU E18 loads: [`KEYS`]/4 entries over `shards`
/// stripes.
pub type Cache = ShardedCache<usize, u64, LruCache<usize, u64>>;

/// A [`Cache`] over `shards` stripes with every key written once.
pub fn cache(shards: usize) -> Cache {
    let cache = ShardedCache::lru(KEYS / 4, shards, SEED);
    for k in 0..KEYS {
        cache.put(k, k as u64);
    }
    cache
}

/// One wall-clock operation: a Zipf key, written with probability
/// 10% and read otherwise.
pub fn mixed_op<R: Rng + ?Sized>(cache: &Cache, rng: &mut R) {
    let k = conc::zipf_key(rng, KEYS);
    if rng.gen_bool(WRITE_SHARE) {
        cache.put(k, 1);
    } else {
        std::hint::black_box(cache.get(&k));
    }
}

/// The contention model's plan for one operation: the same key and
/// write draws as [`mixed_op`], costed with the fixed model constants.
fn model_op<R: Rng + ?Sized>(router: &ShardRouter, rng: &mut R) -> SimOp {
    let k = conc::zipf_key(rng, KEYS);
    SimOp {
        lock: router.route(&k),
        work_ns: WORK_NS,
        hold_ns: if rng.gen_bool(WRITE_SHARE) {
            WRITE_HOLD_NS
        } else {
            READ_HOLD_NS
        },
    }
}

/// Runs the deterministic contention model: `threads` simulated cores
/// of 10,000 operations each over `shards` locks.
pub fn model(shards: usize, threads: usize) -> ConcReport {
    let router = ShardRouter::new(shards, SEED);
    conc::simulate_locked_workload(shards, threads, MODEL_OPS, SEED, |_, _, rng| {
        model_op(&router, rng)
    })
}
