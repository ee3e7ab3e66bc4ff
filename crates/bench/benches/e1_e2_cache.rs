//! E1/E2 — cache read paths and eviction policies (wall clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_cache::policy::{CachePolicy, LfuCache, LruCache};
use hc_common::conc::zipf_key;
use std::hint::black_box;

fn bench_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_hierarchy_read");
    let mut h = hc_bench::cache::hierarchy(None, 4096);
    let _ = h.read(&1); // warm key 1 into the client level
    group.bench_function("client_hit", |b| {
        b.iter(|| black_box(h.read(&1).latency))
    });
    let mut rng = hc_common::rng::seeded(1);
    group.bench_function("zipf_mixed", |b| {
        b.iter(|| {
            let k = zipf_key(&mut rng, 4096);
            black_box(h.read(&k).latency)
        })
    });
    group.finish();
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_policy_ops");
    for capacity in [64usize, 512] {
        group.bench_with_input(BenchmarkId::new("lru_get_put", capacity), &capacity, |b, &cap| {
            let mut cache = LruCache::new(cap);
            let mut rng = hc_common::rng::seeded(2);
            b.iter(|| {
                let k = zipf_key(&mut rng, 2048);
                if cache.get(&k).is_none() {
                    cache.put(k, k);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("lfu_get_put", capacity), &capacity, |b, &cap| {
            let mut cache = LfuCache::new(cap);
            let mut rng = hc_common::rng::seeded(2);
            b.iter(|| {
                let k = zipf_key(&mut rng, 2048);
                if cache.get(&k).is_none() {
                    cache.put(k, k);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hierarchy, bench_policies);
criterion_main!(benches);
