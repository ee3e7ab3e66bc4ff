//! Integration: leakage-free partial record sharing, consent provenance
//! anchoring, and privacy-score anchoring on the privacy channel.

use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_ingest::status::IngestionStatus;
use hc_ledger::provenance::ProvenanceAction;

fn stored_reference(platform: &HealthCloudPlatform, patient: u128, pid: &str) -> hc_common::id::ReferenceId {
    let device = platform.register_patient_device(PatientId::from_raw(patient));
    let url = platform.upload(&device, &demo_bundle(pid, true)).unwrap();
    platform.process_ingestion();
    let IngestionStatus::Stored { references } = platform.ingestion_status(url).unwrap() else {
        panic!("expected stored");
    };
    references[0]
}

#[test]
fn partial_share_verifies_and_hides_redacted_resources() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 1,
        ..PlatformConfig::default()
    });
    let reference = stored_reference(&platform, 1, "p1");
    let export = platform.export_service();

    // Share only the observations with a research partner; demographics
    // and consent resources are redacted.
    let document = export
        .share_partial_record(reference, &["Observation"])
        .unwrap();
    let key = export.share_verification_key();
    assert!(document.verify(&key), "partner verifies the platform signature");

    let disclosed = document.disclosed();
    assert_eq!(disclosed.len(), 1);
    assert!(disclosed[0].0.starts_with("Observation/"));
    // The redacted fields carry only hiding commitments — no serialized
    // patient data anywhere in the document.
    let as_json = serde_json::to_string(&document).unwrap();
    assert!(!as_json.contains("birth_year"));

    // Tampering with the disclosed observation breaks verification.
    let mut tampered = document.clone();
    let idx = disclosed_index(&tampered);
    if let hc_crypto::redactable::Field::Disclosed { value, .. } = &mut tampered.fields[idx] {
        value[0] ^= 1;
    }
    assert!(!tampered.verify(&key));

    // The share was anchored on the provenance chain.
    assert_eq!(platform.verify_ledger(), hc_ledger::chain::ChainStatus::Valid);
    let history = platform.audit_record(reference);
    assert!(history
        .iter()
        .any(|e| e.action == ProvenanceAction::Exported && e.detail == "redacted-share"));
}

fn disclosed_index(doc: &hc_crypto::redactable::RedactableDocument) -> usize {
    doc.fields
        .iter()
        .position(|f| f.is_disclosed())
        .expect("one disclosed field")
}

#[test]
fn consent_events_are_anchored_before_data() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 1,
        ..PlatformConfig::default()
    });
    let _ = stored_reference(&platform, 2, "p2");
    platform.verify_ledger();
    let provenance = platform.provenance.lock();
    let kinds: Vec<String> = provenance
        .ledger()
        .channel_transactions("provenance")
        .iter()
        .map(|t| t.kind.to_string())
        .collect();
    let consent_pos = kinds.iter().position(|k| k == "consent-granted").unwrap();
    let ingest_pos = kinds.iter().position(|k| k == "ingested").unwrap();
    assert!(
        consent_pos < ingest_pos,
        "consent anchored before the data: {kinds:?}"
    );
}

#[test]
fn privacy_scores_land_on_the_privacy_channel() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 1,
        ..PlatformConfig::default()
    });
    for i in 0..12u128 {
        let _ = stored_reference(&platform, 100 + i, &format!("p{i}"));
    }
    let degree = platform.score_study_privacy(3).expect("12 patients >= k");
    assert!(degree.k >= 3);
    let provenance = platform.provenance.lock();
    let privacy_txs = provenance.ledger().channel_transactions("privacy");
    assert_eq!(privacy_txs.len(), 1);
    let payload = String::from_utf8_lossy(&privacy_txs[0].payload);
    assert!(payload.contains("k="), "{payload}");
    assert_eq!(
        provenance.ledger().verify_chain(),
        hc_ledger::chain::ChainStatus::Valid
    );
}

#[test]
fn privacy_scoring_refuses_tiny_studies() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let _ = stored_reference(&platform, 1, "p1");
    assert!(platform.score_study_privacy(5).is_none());
}
