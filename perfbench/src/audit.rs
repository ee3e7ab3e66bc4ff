//! `audit`: `audit_record(reference)` over a preloaded, static chain,
//! references drawn uniformly.

use std::time::Instant;

use hc_common::id::ReferenceId;
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent};

use crate::ingest;
use crate::inputs::Inputs;
use crate::replay::timed;
use crate::report::Report;
use crate::stats::{self, Measured};
use crate::trace::{Attribution, Layer, Tracer};
use crate::Budget;

/// A platform whose chain holds the preloaded study.
pub struct Rig {
    pub ingest: ingest::Rig,
    /// Patient index → its stored reference.
    pub refs: Vec<ReferenceId>,
}

/// Boots and preloads every bundle; `None` when the preload fails. The
/// preload drains inline: no worker threads, so no per-thread allocator
/// arenas make the process's peak memory vary from run to run.
pub fn setup(telemetry: bool, inputs: &Inputs) -> Option<Rig> {
    let ingest = ingest::setup(telemetry, inputs.bundles.len());
    let refs = ingest::preload(&ingest, &inputs.bundles, 0)?;
    Some(Rig { ingest, refs })
}

/// Whether a history holds the record's ingestion and anonymization.
fn complete(history: &[ProvenanceEvent]) -> bool {
    let has = |a: ProvenanceAction| history.iter().any(|e| e.action == a);
    has(ProvenanceAction::Ingested) && has(ProvenanceAction::Anonymized)
}

/// The untraced loop.
pub fn measure(rig: &Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> Measured {
    let platform = &rig.ingest.platform;
    let mut rec = budget.recorder();
    while rec.more() {
        let reference = rig.refs[inputs.draws[rec.ops() as usize % inputs.draws.len()] as usize];
        let t0 = Instant::now();
        let history = platform.audit_record(reference);
        rec.record(t0.elapsed());
        report.op(complete(&history));
    }
    rec.finish()
}

/// The traced loop: one `audit_record` span with the channel scan and
/// the transaction decode replayed inside it on the same chain.
pub fn traced(rig: &Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> Attribution {
    let platform = &rig.ingest.platform;
    let mut tracer = Tracer::new(8);
    let (mut history_us, mut scanned, mut returned, mut ops) = (Vec::new(), 0usize, 0usize, 0usize);
    let start = Instant::now();
    while budget.more(start, ops) {
        let reference = rig.refs[inputs.draws[ops % inputs.draws.len()] as usize];
        let t0 = tracer.now();
        let history = platform.audit_record(reference);
        let t1 = tracer.now();

        let (scan_ns, decode_ns, txs) = {
            let net = platform.provenance.lock();
            let (txs, scan_ns) = timed(|| net.ledger().channel_transactions("provenance"));
            let (decoded, decode_ns) = timed(|| {
                txs.iter()
                    .filter_map(|tx| ProvenanceEvent::from_transaction(tx).ok())
                    .count()
            });
            (scan_ns, decode_ns, decoded)
        };

        let root = tracer.span(None, "audit", None, t0, t1);
        let call = tracer.span(Some(root), "audit_record", Some(Layer::Core), t0, t1);
        tracer.replays(
            call,
            t0,
            &[
                ("ledger.channel_transactions", Layer::Ledger, scan_ns),
                ("event.decode", Layer::Ledger, decode_ns),
            ],
        );
        tracer.end_op();
        history_us.push((t1 - t0) as f64 / 1e3);
        scanned += txs;
        returned += history.len();
        report.op(complete(&history));
        ops += 1;
    }
    report.set("ledger.history_us", stats::median(&mut history_us));
    report.set(
        "ledger.txs_scanned_per_query",
        scanned as f64 / ops.max(1) as f64,
    );
    report.set(
        "ledger.history_hit_ratio",
        returned as f64 / scanned.max(1) as f64,
    );
    if let Err(e) = tracer.write_spans(&crate::spans_path("audit")) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Attribution::of(tracer.folded())
}
