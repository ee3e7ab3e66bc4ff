//! Replay of layers that are reachable only inside a pipeline or export
//! call. A [`Mirror`] holds private instances of those layers — KMS, data
//! lake, provenance network — configured as the platform configures its
//! own, and times one public call at a time on the run's own records.

use std::hint::black_box;
use std::time::Instant;

use hc_common::clock::{SimClock, SimDuration};
use hc_common::id::{GroupId, KeyId, Principal, ReferenceId};
use hc_crypto::aead::Sealed;
use hc_crypto::kms::KeyManagementSystem;
use hc_fhir::bundle::Bundle;
use hc_fhir::validation::Validator;
use hc_ledger::chain::Ledger;
use hc_ledger::consensus::PbftCluster;
use hc_ledger::policy::{MalwarePolicy, PrivacyPolicy, ProvenancePolicy};
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent, ProvenanceNetwork};
use hc_privacy::phi::{deidentify_bundle, DeidConfig};
use hc_storage::datalake::DataLake;
use rand::rngs::StdRng;

use crate::stats;

/// Times one call, returning its result and wall nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_nanos() as u64)
}

/// Private copies of the layers the pipeline and export service call.
pub struct Mirror {
    kms: KeyManagementSystem,
    device_key: KeyId,
    record_key: KeyId,
    lake: DataLake,
    net: ProvenanceNetwork,
    // Kept alive so the mirror network pays the instrumented platform's
    // per-block telemetry cost.
    _registry: hc_telemetry::Registry,
    rng: StdRng,
    salt: Vec<u8>,
    deid: DeidConfig,
    validator: Validator,
    next_event: u128,
}

impl Mirror {
    /// A mirror for `study`, its provenance chain pre-filled with
    /// `events` committed events so ledger costs that grow with height
    /// match the platform's.
    pub fn new(study: GroupId, events: usize) -> Self {
        let mut rng = hc_common::rng::seeded_stream(0x3141, 7);
        let kms = KeyManagementSystem::new(&mut rng);
        let device_key = kms.create_key(
            &mut rng,
            &[
                Principal::Device(hc_common::id::PatientId::from_raw(1)),
                Principal::Service("ingest".into()),
            ],
        );
        let record_key = kms.create_key(
            &mut rng,
            &[
                Principal::Service("ingest".into()),
                Principal::Service("export".into()),
            ],
        );
        let clock = SimClock::new();
        let cluster = PbftCluster::new(4, SimDuration::from_millis(1), clock.clone())
            .expect("four peers form a PBFT quorum");
        let mut ledger = Ledger::new(cluster, clock.clone());
        ledger.install_policy(Box::new(ProvenancePolicy));
        ledger.install_policy(Box::new(MalwarePolicy));
        ledger.install_policy(Box::new(PrivacyPolicy { min_k: 2 }));
        let mut net = ProvenanceNetwork::new(ledger, clock.clone(), 4);
        let registry = hc_telemetry::Registry::new();
        net.instrument(&registry);
        let mut mirror = Mirror {
            kms,
            device_key,
            record_key,
            lake: DataLake::new(clock),
            net,
            _registry: registry,
            rng,
            salt: study.as_u128().to_le_bytes().to_vec(),
            deid: DeidConfig::default(),
            validator: Validator::strict(),
            next_event: 0,
        };
        let prefill: Vec<ProvenanceEvent> = (0..events)
            .map(|_| mirror.event(ProvenanceAction::Ingested))
            .collect();
        if !prefill.is_empty() {
            mirror
                .net
                .record_stream(&prefill, 2)
                .expect("well-formed provenance events commit");
        }
        mirror
    }

    fn event(&mut self, action: ProvenanceAction) -> ProvenanceEvent {
        self.next_event += 1;
        ProvenanceEvent {
            record: ReferenceId::from_raw(self.next_event),
            data_hash: hc_crypto::sha256::hash(&self.next_event.to_le_bytes()),
            action,
            actor: "ingest-service".into(),
            detail: format!("study={}", crate::inputs::STUDY),
        }
    }

    /// De-identifies a bundle as the pipeline does and serializes it.
    pub fn deidentify(&self, bundle: &Bundle) -> (Vec<u8>, u64) {
        let (out, ns) = timed(|| deidentify_bundle(bundle, &self.deid, &self.salt));
        (out.bundle.to_bytes(), ns)
    }

    /// Seals under the device key, as the enhanced client does.
    pub fn seal_device(&self, plaintext: &[u8]) -> (Sealed, u64) {
        let principal = Principal::Device(hc_common::id::PatientId::from_raw(1));
        let (s, ns) = timed(|| {
            self.kms
                .seal(&principal, self.device_key, plaintext, b"aad")
        });
        (s.expect("mirror device key seals"), ns)
    }

    /// Opens a device upload, as the pipeline's decrypt stage does.
    pub fn open_device(&self, sealed: &Sealed) -> u64 {
        let principal = Principal::Service("ingest".into());
        let (out, ns) = timed(|| self.kms.open(&principal, self.device_key, sealed, b"aad"));
        out.expect("mirror seal opens");
        ns
    }

    /// Seals at rest under the record key.
    pub fn seal_at_rest(&self, plaintext: &[u8]) -> (Sealed, u64) {
        let principal = Principal::Service("ingest".into());
        let (s, ns) = timed(|| {
            self.kms
                .seal(&principal, self.record_key, plaintext, b"at-rest")
        });
        (s.expect("mirror record key seals"), ns)
    }

    /// Opens an at-rest envelope, as the export service does.
    pub fn open_at_rest(&self, sealed: &Sealed) -> (Vec<u8>, u64) {
        let principal = Principal::Service("export".into());
        let (out, ns) = timed(|| {
            self.kms
                .open(&principal, self.record_key, sealed, b"at-rest")
        });
        (out.expect("mirror envelope opens"), ns)
    }

    /// Encodes the at-rest envelope (JSON, as stored in the lake).
    pub fn encode_envelope(sealed: &Sealed) -> (Vec<u8>, u64) {
        let (out, ns) = timed(|| serde_json::to_vec(sealed));
        (out.expect("envelope encodes"), ns)
    }

    /// Decodes an at-rest envelope.
    pub fn decode_envelope(bytes: &[u8]) -> (Sealed, u64) {
        let (out, ns) = timed(|| serde_json::from_slice::<Sealed>(bytes));
        (out.expect("envelope decodes"), ns)
    }

    /// Encodes a bundle to FHIR JSON.
    pub fn fhir_encode(bundle: &Bundle) -> (Vec<u8>, u64) {
        timed(|| bundle.to_bytes())
    }

    /// Decodes FHIR JSON.
    pub fn fhir_decode(bytes: &[u8]) -> (Bundle, u64) {
        let (out, ns) = timed(|| Bundle::from_bytes(bytes));
        (out.expect("bundle decodes"), ns)
    }

    /// Validates a bundle with the pipeline's strict validator.
    pub fn fhir_validate(&self, bundle: &Bundle) -> u64 {
        let (report, ns) = timed(|| self.validator.validate_bundle(bundle));
        assert!(report.is_valid(), "generated bundles validate");
        ns
    }

    /// Stores at-rest bytes with the pipeline's tags.
    pub fn put(&mut self, at_rest: Vec<u8>) -> (ReferenceId, u64) {
        let Mirror { lake, rng, .. } = self;
        timed(|| {
            lake.put(
                rng,
                at_rest,
                &[
                    ("study", crate::inputs::STUDY),
                    ("kind", "bundle"),
                    ("enc", "envelope-v1"),
                    ("dek", "0"),
                ],
            )
        })
    }

    /// Reads a stored record's latest version.
    pub fn get(&mut self, reference: ReferenceId) -> u64 {
        let lake = &mut self.lake;
        let (out, ns) = timed(|| lake.get_latest(reference).map(|v| v.data.len()));
        out.expect("mirror record exists");
        ns
    }

    /// Records one provenance event (a block commits every fourth).
    pub fn record(&mut self, action: ProvenanceAction) -> u64 {
        let event = self.event(action);
        let net = &mut self.net;
        let (out, ns) = timed(|| net.record(&event));
        out.expect("mirror provenance records");
        ns
    }
}

/// Per-call medians (µs) of every replayed layer function over `bundles`,
/// plus the amortised provenance record cost.
pub fn per_call(mirror: &mut Mirror, bundles: &[Bundle]) -> Vec<(&'static str, f64)> {
    let mut cols: Vec<(&'static str, Vec<f64>)> = [
        "fhir.encode_us",
        "fhir.decode_us",
        "fhir.validate_us",
        "privacy.deidentify_us",
        "crypto.kms_seal_us",
        "crypto.kms_open_us",
        "crypto.envelope_encode_us",
        "crypto.envelope_decode_us",
        "storage.put_us",
        "storage.get_us",
    ]
    .into_iter()
    .map(|n| (n, Vec::with_capacity(bundles.len())))
    .collect();
    let mut record_ns = 0u64;
    for bundle in bundles {
        let (bytes, encode) = Mirror::fhir_encode(bundle);
        let (decoded, decode) = Mirror::fhir_decode(&bytes);
        let validate = mirror.fhir_validate(&decoded);
        let (deid_bytes, deid) = mirror.deidentify(&decoded);
        let (device_sealed, seal) = mirror.seal_device(&bytes);
        let open = mirror.open_device(&device_sealed);
        let (at_rest, _) = mirror.seal_at_rest(&deid_bytes);
        let (envelope, env_encode) = Mirror::encode_envelope(&at_rest);
        let (_, env_decode) = Mirror::decode_envelope(&envelope);
        let (reference, put) = mirror.put(envelope);
        let get = mirror.get(reference);
        record_ns += mirror.record(ProvenanceAction::Ingested);
        for (col, ns) in cols.iter_mut().zip([
            encode, decode, validate, deid, seal, open, env_encode, env_decode, put, get,
        ]) {
            col.1.push(ns as f64 / 1e3);
        }
    }
    let mut out: Vec<(&'static str, f64)> = cols
        .into_iter()
        .map(|(n, mut v)| (n, stats::median(&mut v)))
        .collect();
    out.push((
        "ledger.record_us",
        record_ns as f64 / 1e3 / bundles.len().max(1) as f64,
    ));
    out
}
