//! E4 — blockchain commit cost vs peer count and batch size, plus the
//! pipelined window and the parallel validation stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_bench::ledger::{batches, provenance_ledger, tx};
use hc_common::clock::{SimClock, SimDuration};
use hc_ledger::consensus::PbftCluster;
use std::hint::black_box;

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_consensus_propose");
    for peers in [4usize, 7, 13] {
        group.bench_with_input(BenchmarkId::from_parameter(peers), &peers, |b, &peers| {
            let mut cluster =
                PbftCluster::new(peers, SimDuration::from_millis(1), SimClock::new()).unwrap();
            b.iter(|| black_box(cluster.propose().unwrap().messages))
        });
    }
    group.finish();
}

fn bench_ledger_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_ledger_submit");
    for batch in [1u128, 16, 64] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            let mut ledger = provenance_ledger(4, 1, SimClock::new()).unwrap();
            let mut next = 1u128;
            b.iter(|| {
                let txs = (next..next + batch).map(tx).collect();
                next += batch;
                black_box(ledger.submit(txs).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_verify_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_verify_chain");
    group.sample_size(10);
    for height in [64u128, 512] {
        let mut ledger = provenance_ledger(4, 1, SimClock::new()).unwrap();
        for i in 0..height {
            ledger.submit(vec![tx(i)]).unwrap();
        }
        group.bench_with_input(BenchmarkId::from_parameter(height), &ledger, |b, l| {
            b.iter(|| black_box(l.verify_chain()))
        });
    }
    group.finish();
}

fn bench_pipelined_propose(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_pipelined_propose");
    for peers in [4usize, 7, 13] {
        group.bench_with_input(BenchmarkId::from_parameter(peers), &peers, |b, &peers| {
            let mut cluster =
                PbftCluster::pipelined(peers, 16, SimDuration::from_millis(1), SimClock::new())
                    .unwrap();
            b.iter(|| black_box(cluster.propose().unwrap().messages))
        });
    }
    group.finish();
}

fn bench_submit_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_submit_stream");
    group.sample_size(20);
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let mut next = 1u128;
                b.iter(|| {
                    let mut ledger = provenance_ledger(4, 16, SimClock::new()).unwrap();
                    let stream = batches(next, 32, 16);
                    next += 32 * 16;
                    black_box(ledger.submit_stream(stream, workers).unwrap())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_consensus,
    bench_ledger_submit,
    bench_verify_chain,
    bench_pipelined_propose,
    bench_submit_stream
);
criterion_main!(benches);
