//! Every input a workload consumes, generated from the seed before any
//! timing starts, plus a digest that proves two runs saw the same traffic.

use hc_fhir::bundle::Bundle;
use hc_fhir::resource::{Consent, Resource};
use hc_kb::emr::{EmrCohort, EmrConfig};
use rand::Rng;

use crate::zipf::Zipf;

/// Uploads per ingest burst.
pub const BURST: usize = 16;
/// Patients in the ingest cohort and the read preload.
pub const COHORT: usize = 2_000;
/// Patients preloaded for the audit workload: 3 chain transactions each,
/// so a query scans 96. Sized so a query takes about half a millisecond
/// on the reference host: a stall of the host then hits well under 1% of
/// queries, so the p99 measures the scan rather than the host, and every
/// round of a run holds far more than the 1,000 samples a p99 with ten
/// samples beyond it needs.
pub const AUDIT_PATIENTS: usize = 32;
/// Clinician tokens the read workload uses round-robin.
pub const READ_TOKENS: usize = 8;
/// Serve key space and pre-generated request stream.
pub const SERVE_KEYS: usize = 32_768;
pub const SERVE_STREAM: usize = 1 << 20;
/// Requests of the serve stream replayed during set-up to warm the
/// local cache and the fleet.
pub const SERVE_WARMUP: usize = 1 << 17;
/// Length of the read and audit draw streams (cycled if a run is longer).
pub const DRAWS: usize = 1 << 16;
/// The study every bundle consents to.
pub const STUDY: &str = "diabetes-rwe";
/// Serve tier mix: clinical / interactive / batch.
pub const TIER_MIX: [f64; 3] = [0.10, 0.60, 0.30];

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Read,
    Audit,
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "read" => Some(Workload::Read),
            "audit" => Some(Workload::Audit),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Read => "read",
            Workload::Audit => "audit",
            Workload::Serve => "serve",
        }
    }
}

/// Pre-generated inputs of one run.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    /// Patient bundles (ingest, read, audit), each with a study consent.
    pub bundles: Vec<Bundle>,
    /// Serialized FHIR size of each bundle.
    pub fhir_bytes: Vec<usize>,
    /// Ingest: patient upload order (a permutation, cycled).
    pub order: Vec<u32>,
    /// Read: patient per read (Zipf(1) over a seeded popularity order);
    /// audit: index of the preloaded reference per query (uniform).
    pub draws: Vec<u32>,
    /// Serve: tier index per request (0 clinical, 1 interactive, 2 batch).
    pub tiers: Vec<u8>,
    /// Serve: key per request, Zipf(1) over [`SERVE_KEYS`].
    pub keys: Vec<u64>,
    /// Hex SHA-256 over every stream above.
    pub digest: String,
}

/// Patient bundles `0..n` of the EMR cohort under `seed`, each with a
/// granted consent for [`STUDY`] appended.
pub fn cohort_bundles(n: usize, seed: u64) -> Vec<Bundle> {
    let cohort = EmrCohort::generate(
        EmrConfig {
            n_patients: n,
            ..EmrConfig::default()
        },
        seed,
    );
    (0..n)
        .map(|i| {
            let mut bundle = cohort.patient_bundle(i);
            bundle.entries.push(Resource::Consent(Consent {
                id: format!("emr-p{i}-consent"),
                subject: format!("emr-p{i}"),
                study: STUDY.to_owned(),
                granted: true,
            }));
            bundle
        })
        .collect()
}

fn permutation<R: Rng>(rng: &mut R, n: usize) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// Generates `workload`'s inputs under `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = hc_common::rng::seeded_stream(seed, 0xBE7C);
    let mut inputs = Inputs::default();
    match workload {
        Workload::Ingest | Workload::Read => {
            inputs.bundles = cohort_bundles(COHORT, seed);
            if workload == Workload::Ingest {
                inputs.order = permutation(&mut rng, COHORT);
            } else {
                let popularity = permutation(&mut rng, COHORT);
                let zipf = Zipf::new(COHORT);
                inputs.draws = (0..DRAWS)
                    .map(|_| popularity[zipf.sample(&mut rng)])
                    .collect();
            }
        }
        Workload::Audit => {
            inputs.bundles = cohort_bundles(AUDIT_PATIENTS, seed);
            inputs.draws = (0..DRAWS)
                .map(|_| rng.gen_range(0..AUDIT_PATIENTS as u32))
                .collect();
        }
        Workload::Serve => {
            let zipf = Zipf::new(SERVE_KEYS);
            inputs.tiers = (0..SERVE_STREAM)
                .map(|_| {
                    let u: f64 = rng.gen();
                    if u < TIER_MIX[0] {
                        0
                    } else if u < TIER_MIX[0] + TIER_MIX[1] {
                        1
                    } else {
                        2
                    }
                })
                .collect();
            inputs.keys = (0..SERVE_STREAM)
                .map(|_| zipf.sample(&mut rng) as u64)
                .collect();
        }
    }
    inputs.fhir_bytes = inputs.bundles.iter().map(|b| b.to_bytes().len()).collect();
    inputs.digest = digest(&inputs);
    inputs
}

fn digest(inputs: &Inputs) -> String {
    let mut h = hc_crypto::sha256::Sha256::new();
    for b in &inputs.bundles {
        h.update(&b.to_bytes());
    }
    for v in inputs.order.iter().chain(&inputs.draws) {
        h.update(&v.to_le_bytes());
    }
    h.update(&inputs.tiers);
    for k in &inputs.keys {
        h.update(&k.to_le_bytes());
    }
    h.finalize().to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_only_on_the_seed() {
        for w in [Workload::Audit, Workload::Serve] {
            let a = generate(w, 11);
            let b = generate(w, 11);
            let c = generate(w, 12);
            assert_eq!(a.digest, b.digest, "{w:?}: same seed, same traffic");
            assert_ne!(a.digest, c.digest, "{w:?}: another seed, other traffic");
        }
    }

    #[test]
    fn streams_have_their_documented_shape() {
        let serve = generate(Workload::Serve, 3);
        assert_eq!(serve.keys.len(), SERVE_STREAM);
        assert!(serve.keys.iter().all(|&k| (k as usize) < SERVE_KEYS));
        let clinical = serve.tiers.iter().filter(|&&t| t == 0).count() as f64;
        assert!((clinical / SERVE_STREAM as f64 - TIER_MIX[0]).abs() < 0.01);

        let audit = generate(Workload::Audit, 3);
        assert_eq!(audit.bundles.len(), AUDIT_PATIENTS);
        assert!(audit.draws.iter().all(|&d| (d as usize) < AUDIT_PATIENTS));
        assert!(audit
            .bundles
            .iter()
            .all(|b| matches!(b.entries.last(), Some(Resource::Consent(c)) if c.granted)));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = hc_common::rng::seeded(1);
        let mut p = permutation(&mut rng, 500);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| v as usize == i));
    }
}
