//! What one read leaves behind. A read — `authorize` plus `export_full`
//! of a one-record patient — appends exactly one gateway decision, one
//! KMS key use and one provenance transaction; a new per-read log shows
//! up here as a count mismatch. Committed transactions share the
//! ledger's interned names rather than carrying their own copies.

use std::sync::Arc;

use hc_access::model::{Action, Permission, ResourceKind};
use hc_common::clock::SimDuration;
use hc_common::id::PatientId;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_crypto::kms::KmsAuditEvent;

const READS: usize = 12;
const READ_PHI: Permission = Permission::new(ResourceKind::PatientData, Action::Read);

fn key_uses(platform: &HealthCloudPlatform) -> usize {
    platform
        .kms
        .audit_log()
        .iter()
        .filter(|e| matches!(e, KmsAuditEvent::Used(..)))
        .count()
}

/// Provenance transactions committed or waiting for their block.
fn provenance_txs(platform: &HealthCloudPlatform) -> usize {
    let net = platform.provenance.lock();
    net.ledger().channel_transactions("provenance").len() + net.pending_count()
}

#[test]
fn each_read_appends_one_entry_to_each_audit_log_and_shares_names() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let (_, token) = platform.register_user("dr-lee", b"pw", "clinician");
    let patient = PatientId::from_raw(7);
    let device = platform.register_patient_device(patient);
    platform.upload(&device, &demo_bundle("p7", true)).unwrap();
    assert_eq!(platform.process_ingestion(), 1);

    let gateway_before = platform.gateway.lock().audit_len();
    let uses_before = key_uses(&platform);
    let kms_before = platform.kms.audit_len();
    let txs_before = provenance_txs(&platform);
    for _ in 0..READS {
        platform.clock.advance(SimDuration::from_millis(20));
        platform.authorize(&token, READ_PHI, "read-phi").unwrap();
        platform.export_service().export_full(patient).unwrap();
    }

    let gateway = platform.gateway.lock().audit_log();
    assert_eq!(gateway.len(), gateway_before + READS);
    assert!(gateway[gateway_before..]
        .iter()
        .all(|r| r.allowed && r.operation == "read-phi" && r.permission == READ_PHI));
    assert_eq!(key_uses(&platform), uses_before + READS);
    assert_eq!(platform.kms.audit_len(), kms_before + READS);
    assert_eq!(provenance_txs(&platform), txs_before + READS);

    let net = platform.provenance.lock();
    let exports: Vec<_> = net
        .ledger()
        .channel_transactions("provenance")
        .into_iter()
        .filter(|t| &*t.kind == "exported")
        .collect();
    assert!(exports.len() >= 2, "reads must commit provenance blocks");
    let (first, last) = (exports[0], exports[exports.len() - 1]);
    assert_ne!(first.id, last.id);
    assert!(Arc::ptr_eq(&first.channel, &last.channel));
    assert!(Arc::ptr_eq(&first.kind, &last.kind));
    assert!(Arc::ptr_eq(&first.submitter, &last.submitter));
}
