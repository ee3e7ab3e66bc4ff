//! E18 — multi-core scaling of the sharded serving hot path.
//!
//! Benchmarks the real [`ShardedCache`] single-thread op cost (global
//! lock vs 32 stripes), the closed-loop driver at 8 threads, and the
//! deterministic virtual-time contention model that produces the
//! recorded EXPERIMENTS.md table. The wall-clock rows are
//! host-dependent; the model rows are bit-reproducible.
//!
//! [`ShardedCache`]: hc_cache::shard::ShardedCache

use criterion::{criterion_group, criterion_main, Criterion};
use hc_bench::scaling::{self, SEED};
use hc_common::conc;
use std::hint::black_box;

fn bench_single_thread_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_single_thread");
    for shards in [1usize, 32] {
        let cache = scaling::cache(shards);
        let mut rng = hc_common::rng::seeded(SEED);
        group.bench_function(format!("mixed_ops_{shards}_shards"), |b| {
            b.iter(|| scaling::mixed_op(&cache, &mut rng))
        });
    }
    group.finish();
}

fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_closed_loop");
    group.sample_size(10);
    for shards in [1usize, 32] {
        let cache = scaling::cache(shards);
        group.bench_function(format!("threads8_{shards}_shards"), |b| {
            b.iter(|| {
                let report = conc::run_closed_loop(8, 2_000, SEED, |_, _, rng| {
                    scaling::mixed_op(&cache, rng)
                });
                black_box(report.elapsed_ns)
            })
        });
    }
    group.finish();
}

fn bench_contention_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_model");
    for (shards, threads) in [(1usize, 8usize), (32, 8)] {
        group.bench_function(format!("{shards}_shards_{threads}_threads"), |b| {
            b.iter(|| black_box(scaling::model(shards, threads).mops()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_thread_ops,
    bench_closed_loop,
    bench_contention_model
);
criterion_main!(benches);
