//! E19 — overload-safe serving: closed-loop SLO runs and the per-request
//! decision cost.
//!
//! Benchmarks the full closed loop (admission → shedding → deadline →
//! sharded cache → origin, with sampled ledger provenance) of the
//! [`Scale::Small`] E19 scenario for each protection level, and the
//! hot-path cost of one request decision. The experiment's recorded
//! table comes from `cargo run --release --example experiments -- e19`;
//! this bench tracks that the driver itself stays cheap enough to
//! simulate millions of users.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_bench::serving::{e19_config, e19_workload};
use hc_bench::Scale;
use hc_common::clock::{SimClock, SimDuration};
use hc_core::serving::{run_overload, Protection, ServingStack};
use hc_resilience::admission::Tier;
use std::hint::black_box;

fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_closed_loop");
    group.sample_size(10);
    let workload = e19_workload(Scale::Small, 19);
    for protection in [Protection::None, Protection::AdmissionOnly, Protection::Full] {
        group.bench_function(protection.label(), |b| {
            b.iter(|| {
                let stack = ServingStack::new(SimClock::new(), e19_config(Scale::Small, protection));
                let report = run_overload(stack, &workload);
                black_box(report.overall.within_slo())
            })
        });
    }
    group.finish();
}

fn bench_request_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_request_decision");
    let clock = SimClock::new();
    let mut stack = ServingStack::new(clock.clone(), e19_config(Scale::Small, Protection::Full));
    // Warm the cache so the steady-state path (admit → observe → probe →
    // deadline → serve) dominates, not origin fills.
    for key in 0..16_384u64 {
        let _ = stack.request(Tier::Batch, key);
        clock.advance(SimDuration::from_micros(500));
        stack.drain(SimDuration::from_micros(500));
    }
    let mut key = 0u64;
    group.bench_function("full_protection_hit", |b| {
        b.iter(|| {
            key = (key + 1) % 16_384;
            let outcome = stack.request(Tier::Interactive, key);
            clock.advance(SimDuration::from_micros(500));
            stack.drain(SimDuration::from_micros(500));
            black_box(outcome.is_served())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_closed_loop, bench_request_decision);
criterion_main!(benches);
