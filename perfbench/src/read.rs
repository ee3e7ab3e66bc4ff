//! `read`: `authorize(PatientData/Read)` → `export_full(patient)` over a
//! preloaded 2,000-patient study, patients drawn Zipf(1).

use std::time::Instant;

use hc_access::model::{Action, Permission, ResourceKind};
use hc_common::clock::SimDuration;
use hc_common::id::{PatientId, ReferenceId};
use hc_core::platform::HealthCloudPlatform;
use hc_ledger::provenance::ProvenanceAction;

use crate::ingest;
use crate::inputs::{Inputs, BURST, READ_TOKENS};
use crate::replay::{self, Mirror};
use crate::report::Report;
use crate::stats::{self, Measured};
use crate::trace::{Attribution, Layer, Tracer};
use crate::Budget;

/// Simulated time between reads: each of the 8 tokens then reads every
/// 16 ms, well inside the gateway's 100/s per-user bucket, and a run
/// spans minutes of the tokens' one-hour lifetime.
const READ_GAP: SimDuration = SimDuration::from_millis(2);

/// A platform holding the preloaded study and the clinicians' tokens.
pub struct Rig {
    pub ingest: ingest::Rig,
    pub tokens: Vec<hc_access::identity::AuthToken>,
}

/// Boots, preloads every bundle and logs the clinicians in; `None` when
/// the preload does not store every upload. The preload drains inline,
/// on one thread like the measured loop: a drain that needs both vCPUs of
/// the reference host stalls whenever the hypervisor takes either, which
/// made set-up time swing by 30% from run to run.
pub fn setup(telemetry: bool, inputs: &Inputs) -> Option<Rig> {
    let ingest = ingest::setup(telemetry, inputs.bundles.len());
    ingest::preload(&ingest, &inputs.bundles, 0)?;
    Some(Rig {
        tokens: login(&ingest),
        ingest,
    })
}

/// [`setup`] with the preload traced as ingest bursts: the read
/// workload's set-up runs the whole ingest path, so its traced run
/// reports the ingest layers too.
pub fn setup_traced(inputs: &Inputs, report: &mut Report) -> (Option<Rig>, Attribution) {
    let ingest = ingest::setup(true, inputs.bundles.len());
    let order: Vec<u32> = (0..inputs.bundles.len() as u32).collect();
    let failed_before = report.failed;
    let preload = ingest::traced(
        &ingest,
        &inputs.bundles,
        &order,
        inputs.bundles.len().div_ceil(BURST),
        0,
        report,
    );
    let rig = (report.failed == failed_before).then(|| Rig {
        tokens: login(&ingest),
        ingest,
    });
    (rig, preload)
}

fn login(ingest: &ingest::Rig) -> Vec<hc_access::identity::AuthToken> {
    (0..READ_TOKENS)
        .map(|k| {
            ingest
                .platform
                .register_user(&format!("clinician-{k}"), b"bench-secret", "clinician")
                .1
        })
        .collect()
}

fn platform(rig: &Rig) -> &HealthCloudPlatform {
    &rig.ingest.platform
}

const READ_PHI: Permission = Permission::new(ResourceKind::PatientData, Action::Read);

/// One read: whether it was authorized, and whether the export held the
/// patient's full de-identified bundle.
fn read(rig: &Rig, i: usize, patient: usize, expected: usize) -> (bool, bool) {
    let p = platform(rig);
    let authorized = p
        .authorize(&rig.tokens[i % READ_TOKENS], READ_PHI, "read-phi")
        .is_ok();
    let exported = p
        .export_service()
        .export_full(PatientId::from_raw(patient as u128 + 1))
        .is_ok_and(|e| e.bundle.len() == expected);
    (authorized, exported)
}

/// The untraced loop.
pub fn measure(rig: &Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> Measured {
    let mut denials = 0u64;
    let mut rec = budget.recorder();
    while rec.more() {
        let i = rec.ops() as usize;
        let patient = inputs.draws[i % inputs.draws.len()] as usize;
        let expected = inputs.bundles[patient].len();
        platform(rig).clock.advance(READ_GAP);
        let t0 = Instant::now();
        let (authorized, exported) = read(rig, i, patient, expected);
        rec.record(t0.elapsed());
        denials += u64::from(!authorized);
        report.op(authorized && exported);
    }
    report.set("access.denials", denials as f64);
    rec.finish()
}

/// The traced loop: `authorize` and `export_full` spans, the export's
/// lake read, envelope decode, AEAD open, bundle decode and provenance
/// anchor replayed inside it on a mirror of the same record.
pub fn traced(rig: &Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> Attribution {
    let (events, pending) = {
        let net = platform(rig).provenance.lock();
        (net.ledger().height() as usize * 4, net.pending_count())
    };
    let mut mirror = Mirror::new(platform(rig).study, events);
    for _ in 0..pending {
        mirror.record(ProvenanceAction::Ingested);
    }
    // The mirror stores each patient's record as the pipeline would.
    let mirrored: Vec<(ReferenceId, Vec<u8>)> = inputs
        .bundles
        .iter()
        .map(|b| {
            let (deid, _) = mirror.deidentify(b);
            let (sealed, _) = mirror.seal_at_rest(&deid);
            let (bytes, _) = Mirror::encode_envelope(&sealed);
            (mirror.put(bytes.clone()).0, bytes)
        })
        .collect();
    let ledger_before = ingest::ledger_counts(&rig.ingest);

    let mut tracer = Tracer::new(8);
    let (mut auth_us, mut denials, mut ops) = (Vec::new(), 0u64, 0usize);
    let start = Instant::now();
    while budget.more(start, ops) {
        let patient = inputs.draws[ops % inputs.draws.len()] as usize;
        let expected = inputs.bundles[patient].len();
        platform(rig).clock.advance(READ_GAP);
        let p = platform(rig);
        let t0 = tracer.now();
        let authorized = p
            .authorize(&rig.tokens[ops % READ_TOKENS], READ_PHI, "read-phi")
            .is_ok();
        let t1 = tracer.now();
        let exported = p
            .export_service()
            .export_full(PatientId::from_raw(patient as u128 + 1))
            .is_ok_and(|e| e.bundle.len() == expected);
        let t2 = tracer.now();

        let (reference, envelope) = &mirrored[patient];
        let get = mirror.get(*reference);
        let (decoded, decode) = Mirror::decode_envelope(envelope);
        let (plain, open) = mirror.open_at_rest(&decoded);
        let (_, fhir) = Mirror::fhir_decode(&plain);
        let record = mirror.record(ProvenanceAction::Exported);

        let root = tracer.span(None, "read", None, t0, t2);
        tracer.span(Some(root), "authorize", Some(Layer::Access), t0, t1);
        let export = tracer.span(Some(root), "export_full", Some(Layer::Ingest), t1, t2);
        tracer.replays(
            export,
            t1,
            &[
                ("lake.get_latest", Layer::Storage, get),
                ("envelope.decode", Layer::Crypto, decode),
                ("kms.open", Layer::Crypto, open),
                ("bundle.from_bytes", Layer::Fhir, fhir),
                ("provenance.record", Layer::Ledger, record),
            ],
        );
        tracer.end_op();
        auth_us.push((t1 - t0) as f64 / 1e3);
        denials += u64::from(!authorized);
        report.op(authorized && exported);
        ops += 1;
    }
    let n = ops.max(1) as f64;
    report.set("access.authorize_us", stats::median(&mut auth_us));
    report.set("access.denials", denials as f64);
    ingest::report_ledger_growth(&rig.ingest, ledger_before, n, report);

    let sample: Vec<_> = inputs
        .draws
        .iter()
        .take(256)
        .map(|&p| inputs.bundles[p as usize].clone())
        .collect();
    for (name, v) in replay::per_call(&mut mirror, &sample) {
        report.set(name, v);
    }
    if let Err(e) = tracer.write_spans(&crate::spans_path("read")) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Attribution::of(tracer.folded())
}
