//! E20 — distributed cache fleet: ring election, replica reads, and the
//! fleet-backed closed loop.
//!
//! The experiment's recorded table comes from
//! `cargo run --release --example experiments -- e20`; this bench tracks
//! that the ring rebuild stays cheap enough to run on every membership
//! change, that a replica read (ring lookup → fan-out → repair check) is
//! microseconds of driver cost, and that the fleet-backed serving loop
//! of the [`Scale::Small`] E20 crash scenario stays in the same budget
//! as E19's.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_bench::serving::{e20_config, e20_scenarios, e20_workload};
use hc_bench::Scale;
use hc_cache::fleet::{CacheFleet, FleetConfig, HashRing};
use hc_cloudsim::net::Location;
use hc_common::clock::{SimClock, SimDuration};
use hc_core::serving::{run_overload, ServingStack};
use hc_resilience::timeout::TimeoutBudget;
use std::hint::black_box;

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_ring");
    // Rebuild (rendezvous election over every arc) happens once per
    // membership change, never on the read path.
    group.bench_function("rebuild_12_nodes_256_vnodes", |b| {
        b.iter(|| {
            let mut ring = HashRing::new(0xE20, 256);
            for n in 0..12 {
                ring.add_node(n);
            }
            black_box(ring.len())
        })
    });
    let mut ring = HashRing::new(0xE20, 256);
    for n in 0..12 {
        ring.add_node(n);
    }
    let mut key = 0u64;
    group.bench_function("replicas_r3", |b| {
        b.iter(|| {
            key = key.wrapping_add(1);
            black_box(ring.replicas(&key, 3))
        })
    });
    group.finish();
}

fn bench_fleet_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_fleet_read");
    let clock = SimClock::new();
    let cfg = FleetConfig {
        node_capacity: 65_536,
        ..FleetConfig::default()
    };
    let mut fleet: CacheFleet<u64, u64> = CacheFleet::with_topology(cfg, clock.clone(), 3, 2);
    let client = Location::new(0, 99);
    for k in 0..16_384u64 {
        fleet.fill(&k, &k, 1, client);
    }
    let mut key = 0u64;
    group.bench_function("replicated_hit", |b| {
        b.iter(|| {
            key = (key + 1) % 16_384;
            let budget = TimeoutBudget::starting_now(&clock, SimDuration::from_secs(1));
            black_box(fleet.read(&key, client, &budget).is_hit())
        })
    });
    group.bench_function("invalidate_and_tick", |b| {
        b.iter(|| {
            key = (key + 1) % 16_384;
            fleet.write_invalidate(&key, client);
            clock.advance(SimDuration::from_millis(100));
            fleet.tick(clock.now());
            black_box(fleet.pending_deliveries())
        })
    });
    group.finish();
}

/// The E20 closed loop with node 0 crashing through the fault window.
fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_closed_loop");
    group.sample_size(10);
    let [_, (_, crash), _] = e20_scenarios(Scale::Small);
    let config = e20_config(Scale::Small, crash);
    let workload = e20_workload(Scale::Small);
    group.bench_function("fleet_with_node_crash", |b| {
        b.iter(|| {
            let stack = ServingStack::new(SimClock::new(), config.clone());
            let report = run_overload(stack, &workload);
            black_box(report.fleet.map(|f| f.hit_ratio))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ring, bench_fleet_read, bench_closed_loop);
criterion_main!(benches);
