//! End-to-end research studies (§V) run *through the platform*:
//! data enters via the compliant ingestion pipeline, analytics run on the
//! de-identified export, and models pass the lifecycle gate before
//! deployment is anchored on the ledger.

use hc_analytics::delt::{self, DeltConfig};
use hc_analytics::eval::auc_roc;
use hc_analytics::jmf::{self, holdout_scores, JmfConfig};
use hc_analytics::kmeans::purity;
use hc_analytics::lifecycle::Stage;
use hc_analytics::mf::{self, MfConfig};
use hc_common::id::PatientId;
use hc_crypto::sha256;
use hc_fhir::resource::Resource;
use hc_kb::biobank::{
    disease_similarity_sources, drug_similarity_sources, Biobank,
};
use hc_kb::emr::{EmrCohort, EmrConfig, EmrPatient, Exposure, LabMeasurement};
use hc_ledger::provenance::{ProvenanceAction, ProvenanceEvent};

use crate::platform::HealthCloudPlatform;

/// The outcome of the DDI (drug–drug interaction) study (§V-A, Tiresias).
#[derive(Clone, Copy, Debug)]
pub struct DdiReport {
    /// AUC of the multi-source pairwise model.
    pub model_auc: f64,
    /// AUC of the chemical-similarity-only baseline.
    pub baseline_auc: f64,
}

/// Runs Tiresias-style drug–drug interaction prediction over the biobank.
pub fn run_ddi_study(bank: &Biobank, interaction_rate: f64, seed: u64) -> DdiReport {
    let (model_auc, baseline_auc) = hc_analytics::ddi::evaluate(bank, interaction_rate, seed);
    DdiReport {
        model_auc,
        baseline_auc,
    }
}

/// The outcome of the JMF drug-repositioning study (E8).
#[derive(Clone, Debug)]
pub struct RepositioningReport {
    /// Hold-out AUC of JMF (all sources, learned weights).
    pub jmf_auc: f64,
    /// Hold-out AUC of plain matrix factorization.
    pub mf_auc: f64,
    /// Hold-out AUC of JMF with uniform (unlearned) weights — ablation.
    pub jmf_uniform_auc: f64,
    /// Learned drug-source weights (chemical, target, side-effect).
    pub drug_weights: Vec<f64>,
    /// Learned disease-source weights (phenotype, ontology, gene).
    pub disease_weights: Vec<f64>,
    /// Purity of discovered drug groups against generator classes.
    pub group_purity: f64,
    /// Whether the model passed the deployment gate.
    pub deployed: bool,
}

/// Runs the repositioning study end to end: fit, evaluate, gate, deploy,
/// anchor.
pub fn run_repositioning_study(
    platform: &HealthCloudPlatform,
    bank: &Biobank,
    config: &JmfConfig,
    holdout_fraction: f64,
    seed: u64,
) -> RepositioningReport {
    let (train, held_out) = bank.split_associations(holdout_fraction, seed);
    let drug_sims = drug_similarity_sources(bank);
    let disease_sims = disease_similarity_sources(bank);

    let jmf_model = jmf::fit(&train, &drug_sims, &disease_sims, config, seed, platform.metrics());
    let jmf_auc = auc_roc(&holdout_scores(&jmf_model.score_matrix(), &train, &held_out));

    let uniform_model = jmf::fit(
        &train,
        &drug_sims,
        &disease_sims,
        &JmfConfig {
            learn_weights: false,
            ..*config
        },
        seed,
        platform.metrics(),
    );
    let jmf_uniform_auc = auc_roc(&holdout_scores(
        &uniform_model.score_matrix(),
        &train,
        &held_out,
    ));

    let mf_model = mf::factorize(
        &train,
        &MfConfig {
            k: config.k,
            iters: config.iters,
            ..MfConfig::default()
        },
        seed,
    );
    let mf_auc = auc_roc(&holdout_scores(&mf_model.score_matrix(), &train, &held_out));

    let n_groups = bank.drugs.iter().map(|d| d.class).max().unwrap_or(0) + 1;
    let groups = jmf_model.drug_groups(n_groups, seed);
    let truth: Vec<usize> = bank.drugs.iter().map(|d| d.class).collect();
    let group_purity = purity(&groups, &truth);

    // Lifecycle: register → test → (gate) deploy; anchor on success.
    let deployed = {
        let mut lifecycle = platform.lifecycle.lock();
        let model_id = lifecycle.register("jmf-repositioning", b"jmf-artifact");
        lifecycle.advance(model_id, 1, Stage::Generated).expect("fresh model");
        lifecycle.advance(model_id, 1, Stage::Testing).expect("generated");
        lifecycle
            .record_metric(model_id, 1, "holdout_auc", jmf_auc)
            .expect("testing");
        let ok = lifecycle.deploy(model_id, 1, "holdout_auc", 0.6).is_ok();
        if ok {
            let mut provenance = platform.provenance.lock();
            let _ = provenance.record(&ProvenanceEvent {
                record: hc_common::id::ReferenceId::from_raw(model_id.as_u128()),
                data_hash: sha256::hash(b"jmf-artifact"),
                action: ProvenanceAction::ModelDeployed,
                actor: "analytics-platform".into(),
                detail: format!("holdout_auc={jmf_auc:.3}"),
            });
        }
        ok
    };

    RepositioningReport {
        jmf_auc,
        mf_auc,
        jmf_uniform_auc,
        drug_weights: jmf_model.drug_weights,
        disease_weights: jmf_model.disease_weights,
        group_purity,
        deployed,
    }
}

/// Uploads an EMR cohort through the compliant ingestion pipeline, one
/// patient bundle at a time (each with in-bundle consent). Returns how
/// many bundles stored.
pub fn ingest_emr_cohort(platform: &HealthCloudPlatform, cohort: &EmrCohort) -> usize {
    for (i, _) in cohort.patients.iter().enumerate() {
        let patient = PatientId::from_raw(10_000 + i as u128);
        let device = platform.register_patient_device(patient);
        let mut bundle = cohort.patient_bundle(i);
        bundle
            .entries
            .push(Resource::Consent(hc_fhir::resource::Consent {
                id: format!("emr-p{i}-consent"),
                subject: format!("emr-p{i}"),
                study: "diabetes-rwe".to_owned(),
                granted: true,
            }));
        // `upload` is ingress into the compliant pipeline (encrypted,
        // consent-checked), not an egress sink — PHI is supposed to
        // enter here.
        platform
            // hc-lint: allow(taint-phi-to-sink)
            .upload(&device, &bundle)
            .expect("registered device");
    }
    platform.pipeline.process_all_parallel(4);
    platform.pipeline.stats().stored as usize
}

/// Reconstructs an analyzable cohort from the platform's *anonymized
/// export* — the form a researcher actually receives.
///
/// # Panics
///
/// Panics if the export contains a drug code outside `n_drugs`.
pub fn cohort_from_export(
    platform: &HealthCloudPlatform,
    n_drugs: usize,
) -> EmrCohort {
    let export = platform
        .export_service()
        .export_anonymized()
        .expect("export never fails on readable records");

    use std::collections::HashMap;
    let mut patients: HashMap<String, EmrPatient> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for resource in &export {
        match resource {
            Resource::Patient(p) => {
                let entry = patients.entry(p.id.clone()).or_insert_with(|| {
                    order.push(p.id.clone());
                    EmrPatient {
                        index: 0,
                        baseline: 0.0,
                        drift_per_year: 0.0,
                        gender: p.gender,
                        birth_year: p.birth_year.unwrap_or(1970),
                        exposures: Vec::new(),
                        measurements: Vec::new(),
                    }
                });
                entry.gender = p.gender;
            }
            Resource::Observation(o) if o.code.code == "4548-4" => {
                let entry = patients.entry(o.subject.clone()).or_insert_with(|| {
                    order.push(o.subject.clone());
                    EmrPatient {
                        index: 0,
                        baseline: 0.0,
                        drift_per_year: 0.0,
                        gender: hc_fhir::resource::Gender::Unknown,
                        birth_year: 1970,
                        exposures: Vec::new(),
                        measurements: Vec::new(),
                    }
                });
                entry.measurements.push(LabMeasurement {
                    day: o.effective,
                    value: o.value.value,
                });
            }
            Resource::MedicationRequest(m) => {
                let drug: usize = m
                    .medication
                    .code
                    .strip_prefix('D')
                    .and_then(|s| s.parse().ok())
                    .expect("synthetic drug code D<idx>");
                assert!(drug < n_drugs, "drug code {drug} out of range");
                let entry = patients.entry(m.subject.clone()).or_insert_with(|| {
                    order.push(m.subject.clone());
                    EmrPatient {
                        index: 0,
                        baseline: 0.0,
                        drift_per_year: 0.0,
                        gender: hc_fhir::resource::Gender::Unknown,
                        birth_year: 1970,
                        exposures: Vec::new(),
                        measurements: Vec::new(),
                    }
                });
                entry.exposures.push(Exposure {
                    drug,
                    period: m.period,
                });
            }
            _ => {}
        }
    }

    let mut list: Vec<EmrPatient> = order
        .into_iter()
        .filter_map(|k| patients.remove(&k))
        .collect();
    for (i, p) in list.iter_mut().enumerate() {
        p.index = i;
        p.measurements.sort_by_key(|m| m.day);
    }
    EmrCohort {
        patients: list,
        config: EmrConfig {
            n_patients: 0,
            n_drugs,
            planted_effects: Vec::new(),
            ..EmrConfig::default()
        },
    }
}

/// The outcome of the DELT drug-safety study (E9).
#[derive(Clone, Debug)]
pub struct DeltReport {
    /// RMSE of DELT's β against the planted effects.
    pub delt_rmse: f64,
    /// RMSE of the marginal-correlation baseline.
    pub marginal_rmse: f64,
    /// Precision@k of DELT's lowering-drug ranking.
    pub delt_precision: f64,
    /// Precision@k of the marginal baseline's ranking.
    pub marginal_precision: f64,
    /// k used for the precision metric (number of planted lowering drugs).
    pub k: usize,
}

/// Runs DELT on the platform's anonymized export and scores both DELT and
/// the marginal baseline against the generator's planted truth.
pub fn run_delt_study(
    platform: &HealthCloudPlatform,
    original: &EmrCohort,
    config: &DeltConfig,
) -> DeltReport {
    let exported = cohort_from_export(platform, original.config.n_drugs);
    let truth = original.true_effects();
    let lowering = original.lowering_drugs();
    let k = lowering.len().max(1);

    let model = delt::fit(&exported, config, platform.metrics());
    let delt_rmse = model.beta_rmse(&truth);
    let delt_precision = delt::lowering_precision_at_k(&model.lowering_candidates(), &lowering, k);

    let marginal = delt::marginal_effects(&exported);
    let marginal_rmse = {
        let sq: f64 = marginal
            .iter()
            .zip(&truth)
            .map(|(e, t)| (e - t) * (e - t))
            .sum();
        (sq / truth.len() as f64).sqrt()
    };
    let mut marginal_ranking: Vec<usize> = (0..marginal.len()).collect();
    marginal_ranking.sort_by(|&a, &b| marginal[a].partial_cmp(&marginal[b]).expect("finite"));
    let marginal_precision = delt::lowering_precision_at_k(&marginal_ranking, &lowering, k);

    DeltReport {
        delt_rmse,
        marginal_rmse,
        delt_precision,
        marginal_precision,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformConfig;
    use hc_kb::biobank::BiobankConfig;

    #[test]
    fn repositioning_study_runs_and_deploys() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let bank = Biobank::generate(
            &BiobankConfig {
                n_drugs: 40,
                n_diseases: 30,
                n_clusters: 4,
                association_rate: 0.08,
                ..BiobankConfig::default()
            },
            5,
        );
        let report = run_repositioning_study(
            &platform,
            &bank,
            &JmfConfig {
                k: 8,
                iters: 100,
                ..JmfConfig::default()
            },
            0.25,
            5,
        );
        assert!(report.jmf_auc > 0.65, "jmf auc {}", report.jmf_auc);
        assert!(report.deployed);
        assert!((report.drug_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Deployment was anchored.
        let provenance = platform.provenance.lock();
        let deployed = provenance
            .ledger()
            .channel_transactions("provenance")
            .iter()
            .filter(|t| &*t.kind == "model-deployed")
            .count();
        drop(provenance);
        // Batch may still be pending; flush through verify.
        assert!(deployed > 0 || platform.verify_ledger() == hc_ledger::chain::ChainStatus::Valid);
    }

    #[test]
    fn delt_study_over_the_real_pipeline() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let cohort = EmrCohort::generate(
            EmrConfig {
                n_patients: 60,
                n_drugs: 12,
                planted_effects: vec![(0, -0.9), (1, -0.6), (2, 0.5)],
                measurements_per_patient: 8,
                ..EmrConfig::default()
            },
            11,
        );
        let stored = ingest_emr_cohort(&platform, &cohort);
        assert_eq!(stored, 60);
        let report = run_delt_study(&platform, &cohort, &DeltConfig::default());
        assert!(
            report.delt_rmse <= report.marginal_rmse,
            "delt {} vs marginal {}",
            report.delt_rmse,
            report.marginal_rmse
        );
        assert!(report.delt_precision >= 0.5, "p@k {}", report.delt_precision);
    }

    #[test]
    fn export_reconstruction_preserves_measurements() {
        let platform = HealthCloudPlatform::bootstrap(PlatformConfig::default());
        let cohort = EmrCohort::generate(
            EmrConfig {
                n_patients: 10,
                n_drugs: 5,
                planted_effects: vec![(0, -0.5)],
                measurements_per_patient: 6,
                ..EmrConfig::default()
            },
            3,
        );
        ingest_emr_cohort(&platform, &cohort);
        let rebuilt = cohort_from_export(&platform, 5);
        assert_eq!(rebuilt.patients.len(), 10);
        let original_count: usize = cohort.patients.iter().map(|p| p.measurements.len()).sum();
        let rebuilt_count: usize = rebuilt.patients.iter().map(|p| p.measurements.len()).sum();
        assert_eq!(original_count, rebuilt_count);
    }
}
