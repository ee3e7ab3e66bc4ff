//! E23 — chain growth under checkpointing: seal + prune cost as the
//! ledger grows, and the cost of serving compact audit proofs from a
//! pruned chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_bench::ledger::{batches, provenance_ledger};
use hc_common::clock::SimClock;
use hc_common::id::TxId;
use hc_ledger::chain::{CheckpointConfig, Ledger};
use std::hint::black_box;

fn grown_ledger(blocks: u128, interval: u64) -> Ledger {
    let mut ledger = provenance_ledger(4, 1, SimClock::new()).unwrap();
    ledger.enable_checkpoints(CheckpointConfig::every(interval));
    for block in batches(1, blocks, 4) {
        ledger.submit(block).unwrap();
    }
    ledger
}

/// Streaming commits with checkpoint sealing and pruning folded in —
/// the steady-state cost of a bounded-storage ledger.
fn bench_grow_and_prune(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_grow_and_prune");
    group.sample_size(10);
    for blocks in [128u128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &blocks, |b, &blocks| {
            b.iter(|| {
                let mut ledger = provenance_ledger(4, 16, SimClock::new()).unwrap();
                ledger.enable_checkpoints(CheckpointConfig::every(16));
                ledger.submit_stream(batches(1, blocks, 4), 4).unwrap();
                black_box(ledger.prune())
            })
        });
    }
    group.finish();
}

/// Serving a block-header proof from a pruned chain: Merkle path plus
/// the checkpoint fold, no chain replay.
fn bench_prove_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_prove_block");
    for blocks in [128u128, 1024] {
        let mut ledger = grown_ledger(blocks, 16);
        ledger.prune();
        group.bench_with_input(BenchmarkId::from_parameter(blocks), &ledger, |b, l| {
            let mut h = 0u64;
            let covered = l.latest_checkpoint().unwrap().end_height;
            b.iter(|| {
                h = (h + 17) % covered;
                black_box(l.prove_block(h).unwrap())
            })
        });
    }
    group.finish();
}

/// Verifying proofs auditor-side: stateless, against the checkpoint.
fn bench_verify_proofs(c: &mut Criterion) {
    let mut group = c.benchmark_group("e23_verify_proof");
    let mut ledger = grown_ledger(512, 16);
    ledger.prune();
    let ckpt = *ledger.latest_checkpoint().unwrap();
    let block_proof = ledger.prove_block(3).unwrap();
    let event_proof = ledger
        .prove_event(ledger.pruned_below(), TxId::from_raw(ledger.pruned_below() as u128 * 4 + 1))
        .unwrap();
    group.bench_function("block", |b| b.iter(|| black_box(block_proof.verify(&ckpt))));
    group.bench_function("event", |b| b.iter(|| black_box(event_proof.verify(&ckpt))));
    group.bench_function("prefix", |b| {
        let ckpts = ledger.checkpoints();
        let proof = ledger.prove_prefix(0, ckpts.len() as u64 - 1).unwrap();
        b.iter(|| black_box(proof.verify(&ckpts[0], ckpts.last().unwrap())))
    });
    group.finish();
}

criterion_group!(benches, bench_grow_and_prune, bench_prove_block, bench_verify_proofs);
criterion_main!(benches);
