//! E16 — telemetry instrument and export cost.
//!
//! Measures (a) the raw cost of a counter increment and a histogram
//! record (the hot-path primitives every instrumented subsystem pays),
//! (b) an instrumented vs uninstrumented cache read, and (c) snapshot +
//! Prometheus export of a populated registry (the scrape path).

use criterion::{criterion_group, criterion_main, Criterion};
use hc_bench::cache::hierarchy;
use hc_telemetry::{export, Registry};
use std::hint::black_box;

fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_telemetry");

    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));

    let histogram = registry.histogram("bench.histogram_ns");
    let mut v = 1u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(black_box(v >> 40));
        })
    });

    let mut plain = hierarchy(None, 4_096);
    let mut k = 0usize;
    group.bench_function("cache_read_uninstrumented", |b| {
        b.iter(|| {
            k = (k + 1) % 4_096;
            black_box(plain.read(&k))
        })
    });

    let instrumented_registry = Registry::new();
    let mut wired = hierarchy(Some(&instrumented_registry), 4_096);
    let mut k2 = 0usize;
    group.bench_function("cache_read_instrumented", |b| {
        b.iter(|| {
            k2 = (k2 + 1) % 4_096;
            black_box(wired.read(&k2))
        })
    });

    // Scrape path: a registry populated like a platform run.
    let scrape = Registry::new();
    for s in ["ingest", "ledger", "cache", "cloudsim", "analytics", "resilience"] {
        for i in 0..4 {
            scrape.counter(&format!("{s}.bench.c{i}")).add(i * 17 + 1);
        }
        let h = scrape.histogram(&format!("{s}.bench.latency_ns"));
        for i in 0..512u64 {
            h.record(i * i * 37 + 5);
        }
    }
    group.bench_function("snapshot_registry", |b| b.iter(|| black_box(scrape.snapshot())));
    let snap = scrape.snapshot();
    group.bench_function("prometheus_export", |b| {
        b.iter(|| black_box(export::prometheus(&snap)))
    });

    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
