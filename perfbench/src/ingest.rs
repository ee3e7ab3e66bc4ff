//! `ingest`: seal → submit in bursts of 16 → `process_all_parallel(2)`.
//! Also the preload that the read and audit workloads ingest in set-up.

use std::time::Instant;

use hc_common::id::{PatientId, ReferenceId};
use hc_core::platform::{HealthCloudPlatform, PlatformConfig};
use hc_fhir::bundle::Bundle;
use hc_ingest::pipeline::DeviceCredential;
use hc_ingest::status::{IngestionStatus, StatusUrl};
use hc_ledger::chain::ChainStatus;
use hc_ledger::provenance::ProvenanceAction;

use crate::inputs::{Inputs, BURST};
use crate::replay::{self, Mirror};
use crate::report::Report;
use crate::stats::{self, Measured};
use crate::trace::{Attribution, Layer, Tracer};
use crate::Budget;

/// Prepare workers, one per core of the reference host.
pub const WORKERS: usize = 2;
/// Bursts over which `stored_bytes_per_input_byte` is measured: a fixed
/// prefix, so the ratio repeats exactly for a seed.
const RATIO_BURSTS: usize = 16;

/// A bootstrapped platform with one registered device per patient.
pub struct Rig {
    pub platform: HealthCloudPlatform,
    pub devices: Vec<DeviceCredential>,
    pub telemetry: bool,
}

/// Boots the default platform and registers `patients` devices.
pub fn setup(telemetry: bool, patients: usize) -> Rig {
    let platform =
        HealthCloudPlatform::bootstrap_instrumented(PlatformConfig::default(), telemetry);
    let devices = (0..patients)
        .map(|i| platform.register_patient_device(PatientId::from_raw(i as u128 + 1)))
        .collect();
    Rig {
        platform,
        devices,
        telemetry,
    }
}

/// Seals and submits one upload; `None` when sealing fails. A `tamper`ed
/// upload has one ciphertext byte flipped after sealing.
fn upload(rig: &Rig, patient: usize, bundle: &Bundle, tamper: bool) -> Option<StatusUrl> {
    let device = rig.devices[patient];
    let mut sealed = rig.platform.pipeline.seal_upload(&device, bundle).ok()?;
    if tamper {
        if let Some(b) = sealed.ciphertext.first_mut() {
            *b ^= 0x01;
        }
    }
    Some(rig.platform.pipeline.submit(device, sealed))
}

fn stored_refs(rig: &Rig, url: StatusUrl) -> Option<Vec<ReferenceId>> {
    match rig.platform.ingestion_status(url) {
        Some(IngestionStatus::Stored { references }) => Some(references),
        _ => None,
    }
}

/// Drains the upload queue on `workers` prepare threads, or inline on the
/// calling thread when `workers` is 0.
fn drain(rig: &Rig, workers: usize) {
    if workers == 0 {
        rig.platform.pipeline.process_all();
    } else {
        rig.platform.pipeline.process_all_parallel(workers);
    }
}

/// Ingests every bundle (patient `i` ← bundle `i`) in bursts, drained on
/// `workers` prepare threads (0: inline, no threads), and flushes the
/// ledger; returns each patient's stored reference, or `None` if any
/// upload was not stored. The stored state is identical for any worker
/// count.
pub fn preload(rig: &Rig, bundles: &[Bundle], workers: usize) -> Option<Vec<ReferenceId>> {
    let mut urls = Vec::with_capacity(bundles.len());
    for (start, chunk) in (0..bundles.len()).step_by(BURST).zip(bundles.chunks(BURST)) {
        for (j, bundle) in chunk.iter().enumerate() {
            urls.push(upload(rig, start + j, bundle, false)?);
        }
        drain(rig, workers);
    }
    if rig.platform.verify_ledger() != ChainStatus::Valid {
        return None;
    }
    urls.into_iter()
        .map(|u| stored_refs(rig, u).and_then(|r| r.first().copied()))
        .collect()
}

fn wal_bytes(rig: &Rig) -> usize {
    rig.platform.lake.lock().wal().byte_len()
}

/// Counts each upload's outcome and the whole-run checks.
fn check_run(rig: &Rig, urls: &[Option<StatusUrl>], stored_before: u64, report: &mut Report) {
    let mut stored = 0u64;
    for url in urls {
        let ok = url.is_some_and(|u| stored_refs(rig, u).is_some());
        stored += u64::from(ok);
        report.op(ok);
    }
    let counted = rig.platform.pipeline.stats().stored - stored_before;
    report.check(
        "pipeline stored count equals stored statuses",
        counted == stored,
    );
    report.check(
        "ledger verifies",
        rig.platform.verify_ledger() == ChainStatus::Valid,
    );
    report.check(
        "lake matches its WAL",
        rig.platform.lake.lock().verify_against_wal().is_empty(),
    );
}

/// Bursts per measured round: 1,024 uploads, enough for a p99 with ten
/// samples beyond it in every round.
pub const ROUND_BURSTS: usize = 64;

/// The untraced loop: rounds of `round_bursts` bursts, each on a fresh
/// platform (the first on `rig`), until the budget is spent. Every round
/// uploads the same bundles — the head of the seeded order — so rounds
/// are equal work, and neither the numbers nor the memory held depend on
/// how many rounds fit in the time. Re-bootstrapping between rounds is
/// set-up and is not timed. Upload `tamper` (if any) of each round is
/// corrupted after sealing.
pub fn measure(
    rig: Rig,
    inputs: &Inputs,
    budget: &Budget,
    round_bursts: usize,
    tamper: Option<usize>,
    report: &mut Report,
) -> Measured {
    let telemetry = rig.telemetry;
    let mut next = Some(rig);
    let mut rec = stats::Recorder::start_manual(budget.seconds, budget.min_ops);
    while rec.more() {
        let rig = next
            .take()
            .unwrap_or_else(|| setup(telemetry, inputs.bundles.len()));
        let first_round = rec.ops() == 0;
        let wal_start = wal_bytes(&rig);
        let mut urls = Vec::with_capacity(round_bursts * BURST);
        let mut fhir_in = 0usize;
        rec.begin_round();
        for burst in 0..round_bursts {
            let mut sealed_at = [Instant::now(); BURST];
            for slot in &mut sealed_at {
                let n = urls.len();
                let patient = inputs.order[n % inputs.order.len()] as usize;
                *slot = Instant::now();
                urls.push(upload(
                    &rig,
                    patient,
                    &inputs.bundles[patient],
                    tamper == Some(n),
                ));
                fhir_in += inputs.fhir_bytes[patient];
            }
            drain(&rig, WORKERS);
            let done = Instant::now();
            for t in &sealed_at {
                rec.record(done - *t);
            }
            if first_round && burst + 1 == RATIO_BURSTS.min(round_bursts) {
                report.set(
                    "storage.stored_bytes_per_input_byte",
                    (wal_bytes(&rig) - wal_start) as f64 / fhir_in as f64,
                );
            }
        }
        rec.end_round();
        check_run(&rig, &urls, 0, report);
    }
    rec.finish()
}

/// The pipeline's stages: histogram name, metric, and the layer whose
/// code the stage runs. The first [`PREPARE`] run on the worker threads
/// of a parallel drain; the rest (the commit) on the calling thread.
const STAGES: [(&str, &str, Layer); 7] = [
    ("decrypt", "ingest.stage.decrypt_us", Layer::Crypto),
    ("validate", "ingest.stage.validate_us", Layer::Fhir),
    ("malware_scan", "ingest.stage.scan_us", Layer::Ingest),
    ("deid", "ingest.stage.deid_us", Layer::Privacy),
    ("consent", "ingest.stage.consent_us", Layer::Access),
    ("store", "ingest.stage.store_us", Layer::Storage),
    ("anchor", "ingest.stage.anchor_us", Layer::Ledger),
];
const PREPARE: usize = 4;

/// `(sum ns, count)` of one `ingest.stage.<name>.wall_ns` histogram.
fn stage(rig: &Rig, name: &str) -> (u64, u64) {
    let h = rig
        .platform
        .telemetry
        .histogram(&format!("ingest.stage.{name}.wall_ns"))
        .snapshot(name);
    (h.sum, h.count)
}

/// Provenance events recorded, chain height and consensus messages.
pub fn ledger_counts(rig: &Rig) -> (u64, u64, u64) {
    let events = rig
        .platform
        .telemetry_snapshot()
        .counter("ledger.provenance.events")
        .unwrap_or(0);
    let net = rig.platform.provenance.lock();
    (
        events,
        net.ledger().height(),
        net.ledger().engine().total_messages(),
    )
}

/// Ledger growth per operation since `before`.
pub fn report_ledger_growth(rig: &Rig, before: (u64, u64, u64), ops: f64, report: &mut Report) {
    let after = ledger_counts(rig);
    report.set("ledger.events_per_op", (after.0 - before.0) as f64 / ops);
    report.set("ledger.blocks_per_op", (after.1 - before.1) as f64 / ops);
    report.set(
        "ledger.consensus_msgs_per_op",
        (after.2 - before.2) as f64 / ops,
    );
}

/// The traced loop: one operation is one burst of `bundles[order[i]]`
/// uploads, cycling `order`, drained on `workers` threads (0: inline).
/// The program's own stage histograms give the children of the drain
/// span for every stage that runs on the calling thread — the commit
/// stages, and with an inline drain all of them — with the at-rest seal,
/// envelope encode and consent anchor replayed inside theirs. Stages run
/// on worker threads are reported beside the tree.
pub fn traced(
    rig: &Rig,
    bundles: &[Bundle],
    order: &[u32],
    bursts: usize,
    workers: usize,
    report: &mut Report,
) -> Attribution {
    let mut tracer = Tracer::new(8);
    let mut mirror = Mirror::new(rig.platform.study, 0);
    let stored_before = rig.platform.pipeline.stats().stored;
    let stage_before: Vec<(u64, u64)> = STAGES.iter().map(|(s, ..)| stage(rig, s)).collect();
    let on_thread = if workers == 0 {
        &STAGES[..]
    } else {
        &STAGES[PREPARE..]
    };
    let ledger_before = ledger_counts(rig);
    let wal_start = wal_bytes(rig);
    let (mut seal_us, mut wait_us, mut drain_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut urls = Vec::new();
    let mut fhir_in = 0usize;
    let mut n = 0usize;
    for burst in 0..bursts {
        let root_start = tracer.now();
        let mut calls = [(0u64, 0u64, 0u64); BURST];
        let mut patients = [0usize; BURST];
        for (call, patient) in calls.iter_mut().zip(&mut patients) {
            *patient = order[n % order.len()] as usize;
            n += 1;
            let device = rig.devices[*patient];
            let s0 = tracer.now();
            let sealed = rig
                .platform
                .pipeline
                .seal_upload(&device, &bundles[*patient]);
            let s1 = tracer.now();
            urls.push(sealed.ok().map(|s| rig.platform.pipeline.submit(device, s)));
            *call = (s0, s1, tracer.now());
        }
        let before: Vec<u64> = on_thread.iter().map(|(s, ..)| stage(rig, s).0).collect();
        let d0 = tracer.now();
        drain(rig, workers);
        let d1 = tracer.now();
        let stage_ns: Vec<u64> = on_thread
            .iter()
            .zip(&before)
            .map(|((s, ..), b)| stage(rig, s).0 - b)
            .collect();
        let root_end = tracer.now();
        if burst < RATIO_BURSTS {
            fhir_in += patients
                .iter()
                .map(|&p| bundles[p].to_bytes().len())
                .sum::<usize>();
        }
        if burst + 1 == RATIO_BURSTS {
            report.set(
                "storage.stored_bytes_per_input_byte",
                (wal_bytes(rig) - wal_start) as f64 / fhir_in as f64,
            );
        }

        // Replays of the burst's own records (untimed by the root span).
        let (mut record_ns, mut seal_ns, mut encode_ns) = (0, 0, 0);
        for &p in &patients {
            let (deid, _) = mirror.deidentify(&bundles[p]);
            let (at_rest, s) = mirror.seal_at_rest(&deid);
            seal_ns += s;
            encode_ns += Mirror::encode_envelope(&at_rest).1;
            record_ns += mirror.record(ProvenanceAction::ConsentGranted);
            mirror.record(ProvenanceAction::Ingested);
            mirror.record(ProvenanceAction::Anonymized);
        }

        let root = tracer.span(None, "ingest.burst", None, root_start, root_end);
        for &(s0, s1, s2) in &calls {
            tracer.span(Some(root), "seal_upload", Some(Layer::Client), s0, s1);
            tracer.span(Some(root), "submit", Some(Layer::Ingest), s1, s2);
            seal_us.push((s1 - s0) as f64 / 1e3);
            wait_us.push((d0 - s2) as f64 / 1e3);
        }
        let drained = tracer.span(Some(root), "drain", Some(Layer::Ingest), d0, d1);
        let mut at = d0;
        for (&(name, _, layer), &ns) in on_thread.iter().zip(&stage_ns) {
            let span = tracer.span(Some(drained), name, Some(layer), at, at + ns);
            match name {
                "consent" => {
                    tracer.replays(span, at, &[("ledger.record", Layer::Ledger, record_ns)])
                }
                "store" => tracer.replays(
                    span,
                    at,
                    &[
                        ("kms.seal", Layer::Crypto, seal_ns),
                        ("envelope.encode", Layer::Crypto, encode_ns),
                    ],
                ),
                _ => {}
            }
            at += ns;
        }
        tracer.span(
            Some(root),
            "telemetry.read",
            Some(Layer::Telemetry),
            d1,
            root_end,
        );
        tracer.end_op();
        drain_us.push((d1 - d0) as f64 / 1e3 / BURST as f64);
    }
    let uploads = urls.len().max(1) as f64;
    report.set("client.seal_upload_us", stats::median(&mut seal_us));
    report.set("ingest.queue_wait_us", stats::median(&mut wait_us));
    report.set("ingest.drain_us_per_upload", stats::median(&mut drain_us));
    let (mut commit_ns, mut all_ns) = (0u64, 0u64);
    for (i, ((name, metric, _), b)) in STAGES.iter().zip(&stage_before).enumerate() {
        let (sum, count) = stage(rig, name);
        let (sum, count) = (sum - b.0, count - b.1);
        report.set(metric, sum as f64 / 1e3 / count.max(1) as f64);
        all_ns += sum;
        if i >= PREPARE {
            commit_ns += sum;
        }
    }
    report.set(
        "ingest.commit_share",
        commit_ns as f64 / all_ns.max(1) as f64,
    );
    report.set(
        "storage.wal_bytes_per_upload",
        (wal_bytes(rig) - wal_start) as f64 / uploads,
    );
    report_ledger_growth(rig, ledger_before, uploads, report);
    check_run(rig, &urls, stored_before, report);

    let sample: Vec<Bundle> = order
        .iter()
        .take(256)
        .map(|&p| bundles[p as usize].clone())
        .collect();
    for (name, v) in replay::per_call(&mut mirror, &sample) {
        report.set(name, v);
    }
    if let Err(e) = tracer.write_spans(&crate::spans_path("ingest")) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Attribution::of(tracer.folded())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Workload};

    fn small_inputs() -> Inputs {
        let mut inputs = generate(Workload::Audit, 5);
        inputs.order = (0..inputs.bundles.len() as u32).collect();
        inputs
    }

    #[test]
    fn a_tampered_upload_raises_failed_ratio() {
        let inputs = small_inputs();
        let budget = Budget {
            seconds: 0.0,
            min_ops: 2 * BURST,
        };
        for tamper in [None, Some(5)] {
            let rig = setup(true, inputs.bundles.len());
            let mut report = Report::default();
            let m = measure(rig, &inputs, &budget, 2, tamper, &mut report);
            assert_eq!(m.ops, 2 * BURST as u64);
            assert_eq!(report.attempted, m.ops);
            assert_eq!(report.failed, u64::from(tamper.is_some()), "{tamper:?}");
            assert_eq!(report.correct(), tamper.is_none());
        }
    }
}
