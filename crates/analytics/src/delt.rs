//! DELT: Drug Effects on Laboratory Tests (paper §V-B, Figs. 10–11).
//!
//! The model: `y_ij = α_i + γ_i · t_ij + Σ_d β_d · x_ijd + ε`, where
//! `α_i` is the patient-specific baseline ("since there is a range of
//! standard values for the laboratory test values, we cannot use the same
//! value for all patients"), `γ_i · t_ij` absorbs time-varying confounders
//! (aging, chronic comorbidity), and `β_d` is drug `d`'s effect while the
//! patient is exposed.
//!
//! Fitting alternates between (a) closed-form per-patient regression of
//! `(α_i, γ_i)` on the drug-adjusted residuals and (b) a global ridge
//! solve for `β` on the baseline-adjusted residuals. The baselines the
//! paper improves on are also here: marginal per-drug correlation and an
//! SCCS-style fit without the per-patient terms.

use hc_kb::emr::EmrCohort;
use hc_telemetry::Registry;

use crate::matrix::{solve, Mat};

/// One regression sample: a lab measurement with its exposures.
#[derive(Clone, Debug)]
struct Sample {
    patient: usize,
    time_years: f64,
    value: f64,
    drugs: Vec<usize>,
}

fn samples_of(cohort: &EmrCohort) -> Vec<Sample> {
    let mut samples = Vec::new();
    for p in &cohort.patients {
        for m in &p.measurements {
            samples.push(Sample {
                patient: p.index,
                time_years: m.day.day() as f64 / 365.0,
                value: m.value,
                drugs: p.drugs_on(m.day),
            });
        }
    }
    samples
}

/// DELT hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeltConfig {
    /// Ridge regularization for the β solve.
    pub ridge: f64,
    /// Alternating outer iterations.
    pub outer_iters: usize,
    /// Model the per-patient baseline α_i (ablation switch).
    pub patient_baseline: bool,
    /// Model the time-confounder term γ_i · t_ij (ablation switch).
    pub time_term: bool,
}

impl Default for DeltConfig {
    fn default() -> Self {
        DeltConfig {
            ridge: 1.0,
            outer_iters: 8,
            patient_baseline: true,
            time_term: true,
        }
    }
}

/// A fitted DELT model.
#[derive(Clone, Debug)]
pub struct DeltModel {
    /// Estimated drug effects β (length = number of drugs).
    pub beta: Vec<f64>,
    /// Estimated per-patient baselines α_i.
    pub alpha: Vec<f64>,
    /// Estimated per-patient drifts γ_i.
    pub gamma: Vec<f64>,
    /// Final mean squared residual.
    pub mse: f64,
}

impl DeltModel {
    /// Drugs ranked by blood-sugar-lowering effect (most negative β
    /// first) — the repositioning candidate list of the paper.
    pub fn lowering_candidates(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.beta.len()).collect();
        idx.sort_by(|&a, &b| self.beta[a].partial_cmp(&self.beta[b]).expect("finite"));
        idx
    }

    /// RMSE between estimated and true effects.
    pub fn beta_rmse(&self, truth: &[f64]) -> f64 {
        assert_eq!(truth.len(), self.beta.len());
        let sq: f64 = self
            .beta
            .iter()
            .zip(truth)
            .map(|(e, t)| (e - t) * (e - t))
            .sum();
        (sq / truth.len() as f64).sqrt()
    }
}

/// Fits DELT on a cohort. With `metrics` set, counts the fit in
/// `analytics.delt.fits` and records each outer iteration's wall time
/// in `analytics.delt.iter_wall_ns`.
///
/// # Panics
///
/// Panics if the cohort has no patients or no measurements.
pub fn fit(cohort: &EmrCohort, config: &DeltConfig, metrics: Option<&Registry>) -> DeltModel {
    let n_drugs = cohort.config.n_drugs;
    let n_patients = cohort.patients.len();
    assert!(n_patients > 0, "cohort has no patients");
    let samples = samples_of(cohort);
    assert!(!samples.is_empty(), "cohort has no measurements");

    let global_mean = samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64;
    let mut beta = vec![0.0f64; n_drugs];
    let mut alpha = vec![global_mean; n_patients];
    let mut gamma = vec![0.0f64; n_patients];

    // Pre-index samples per patient.
    let mut by_patient: Vec<Vec<usize>> = vec![Vec::new(); n_patients];
    for (idx, s) in samples.iter().enumerate() {
        by_patient[s.patient].push(idx);
    }

    let iter_hist = metrics.map(|registry| {
        registry.counter("analytics.delt.fits").inc();
        registry.histogram("analytics.delt.iter_wall_ns")
    });
    for _ in 0..config.outer_iters {
        // Feeds `analytics.delt.iter_wall_ns`: wall time per outer
        // iteration for solver profiling; no simulated-latency result
        // depends on it. hc-lint: allow(det-wallclock)
        let iter_start = std::time::Instant::now();
        // (a) Per-patient (α_i, γ_i) on drug-adjusted residuals.
        if config.patient_baseline {
            for (pi, sample_ids) in by_patient.iter().enumerate() {
                if sample_ids.is_empty() {
                    continue;
                }
                let rs: Vec<(f64, f64)> = sample_ids
                    .iter()
                    .map(|&si| {
                        let s = &samples[si];
                        let drug_term: f64 = s.drugs.iter().map(|&d| beta[d]).sum();
                        (s.time_years, s.value - drug_term)
                    })
                    .collect();
                if config.time_term && rs.len() >= 2 {
                    // Simple 2-parameter least squares: r = α + γ t.
                    let n = rs.len() as f64;
                    let st: f64 = rs.iter().map(|(t, _)| t).sum();
                    let sr: f64 = rs.iter().map(|(_, r)| r).sum();
                    let stt: f64 = rs.iter().map(|(t, _)| t * t).sum();
                    let str_: f64 = rs.iter().map(|(t, r)| t * r).sum();
                    let denom = n * stt - st * st;
                    if denom.abs() > 1e-9 {
                        gamma[pi] = (n * str_ - st * sr) / denom;
                        alpha[pi] = (sr - gamma[pi] * st) / n;
                    } else {
                        gamma[pi] = 0.0;
                        alpha[pi] = sr / n;
                    }
                } else {
                    gamma[pi] = 0.0;
                    alpha[pi] = rs.iter().map(|(_, r)| r).sum::<f64>() / rs.len() as f64;
                }
            }
        } else {
            for a in alpha.iter_mut() {
                *a = global_mean;
            }
        }

        // (b) Global ridge for β on baseline-adjusted residuals.
        let mut xtx = Mat::zeros(n_drugs, n_drugs);
        let mut xtz = vec![0.0f64; n_drugs];
        for s in &samples {
            if s.drugs.is_empty() {
                continue;
            }
            let z = s.value - alpha[s.patient] - gamma[s.patient] * s.time_years;
            for &d1 in &s.drugs {
                xtz[d1] += z;
                for &d2 in &s.drugs {
                    xtx.set(d1, d2, xtx.get(d1, d2) + 1.0);
                }
            }
        }
        for d in 0..n_drugs {
            xtx.set(d, d, xtx.get(d, d) + config.ridge);
        }
        if let Some(solved) = solve(&xtx, &xtz) {
            beta = solved;
        }
        if let Some(h) = &iter_hist {
            h.record(iter_start.elapsed().as_nanos() as u64);
        }
    }

    // Final residual MSE.
    let mse = samples
        .iter()
        .map(|s| {
            let drug_term: f64 = s.drugs.iter().map(|&d| beta[d]).sum();
            let pred = alpha[s.patient] + gamma[s.patient] * s.time_years + drug_term;
            (s.value - pred).powi(2)
        })
        .sum::<f64>()
        / samples.len() as f64;

    DeltModel {
        beta,
        alpha,
        gamma,
        mse,
    }
}

/// The marginal-correlation baseline: per drug, the difference between
/// the mean lab value while exposed and while unexposed. Confounded by
/// co-medication and patient baselines — the effect the paper's DELT
/// design corrects.
#[allow(clippy::needless_range_loop)] // drug index is the identity being tested
pub fn marginal_effects(cohort: &EmrCohort) -> Vec<f64> {
    let n_drugs = cohort.config.n_drugs;
    let samples = samples_of(cohort);
    let mut effects = vec![0.0f64; n_drugs];
    for d in 0..n_drugs {
        let mut exposed = (0.0, 0usize);
        let mut unexposed = (0.0, 0usize);
        for s in &samples {
            if s.drugs.contains(&d) {
                exposed = (exposed.0 + s.value, exposed.1 + 1);
            } else {
                unexposed = (unexposed.0 + s.value, unexposed.1 + 1);
            }
        }
        if exposed.1 > 0 && unexposed.1 > 0 {
            effects[d] = exposed.0 / exposed.1 as f64 - unexposed.0 / unexposed.1 as f64;
        }
    }
    effects
}

/// Precision@k of a lowering-candidate ranking against the planted set.
pub fn lowering_precision_at_k(ranking: &[usize], truth: &[usize], k: usize) -> f64 {
    if k == 0 || ranking.is_empty() {
        return 0.0;
    }
    let k = k.min(ranking.len());
    let hits = ranking[..k].iter().filter(|d| truth.contains(d)).count();
    hits as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_kb::emr::EmrConfig;

    fn cohort() -> EmrCohort {
        EmrCohort::generate(
            EmrConfig {
                n_patients: 400,
                n_drugs: 20,
                planted_effects: vec![(0, -0.9), (1, -0.6), (2, 0.5), (3, -0.4)],
                ..EmrConfig::default()
            },
            42,
        )
    }

    #[test]
    fn delt_recovers_planted_effects() {
        let c = cohort();
        let model = fit(&c, &DeltConfig::default(), None);
        let truth = c.true_effects();
        let rmse = model.beta_rmse(&truth);
        assert!(rmse < 0.15, "rmse={rmse}");
        // Strongest lowering drug ranked first.
        assert_eq!(model.lowering_candidates()[0], 0);
    }

    #[test]
    fn delt_beats_marginal_baseline() {
        let c = cohort();
        let truth = c.true_effects();
        let model = fit(&c, &DeltConfig::default(), None);
        let marginal = marginal_effects(&c);
        let delt_rmse = model.beta_rmse(&truth);
        let marg_rmse = {
            let sq: f64 = marginal
                .iter()
                .zip(&truth)
                .map(|(e, t)| (e - t) * (e - t))
                .sum();
            (sq / truth.len() as f64).sqrt()
        };
        assert!(
            delt_rmse < marg_rmse,
            "delt={delt_rmse} vs marginal={marg_rmse}"
        );
    }

    #[test]
    fn baseline_ablation_hurts() {
        let c = cohort();
        let truth = c.true_effects();
        let full = fit(&c, &DeltConfig::default(), None);
        let no_baseline = fit(
            &c,
            &DeltConfig {
                patient_baseline: false,
                time_term: false,
                ..DeltConfig::default()
            },
            None,
        );
        assert!(full.beta_rmse(&truth) <= no_baseline.beta_rmse(&truth) + 1e-9);
    }

    #[test]
    fn precision_at_k_for_lowering() {
        let c = cohort();
        let model = fit(&c, &DeltConfig::default(), None);
        let truth = c.lowering_drugs();
        let p = lowering_precision_at_k(&model.lowering_candidates(), &truth, 3);
        assert!(p >= 2.0 / 3.0, "p@3={p}");
    }

    #[test]
    fn mse_reported_and_reasonable() {
        let c = cohort();
        let model = fit(&c, &DeltConfig::default(), None);
        assert!(model.mse < 0.2, "mse={}", model.mse);
        assert_eq!(model.alpha.len(), 400);
    }

    #[test]
    fn drift_estimated_when_present() {
        let c = EmrCohort::generate(
            EmrConfig {
                n_patients: 300,
                n_drugs: 5,
                planted_effects: vec![],
                drift_sd: 0.4,
                noise_sd: 0.1,
                ..EmrConfig::default()
            },
            9,
        );
        let model = fit(&c, &DeltConfig::default(), None);
        // Estimated gammas should correlate with true drifts.
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for p in &c.patients {
            let a = model.gamma[p.index];
            let b = p.drift_per_year;
            num += a * b;
            da += a * a;
            db += b * b;
        }
        let corr = num / (da.sqrt() * db.sqrt()).max(1e-12);
        assert!(corr > 0.7, "gamma correlation {corr}");
    }

    #[test]
    fn marginal_is_confounded_by_comedication() {
        // Drug 1 is inert but always co-prescribed with lowering drug 0.
        let mut c = EmrCohort::generate(
            EmrConfig {
                n_patients: 400,
                n_drugs: 4,
                planted_effects: vec![(0, -1.0)],
                drift_sd: 0.0,
                noise_sd: 0.1,
                ..EmrConfig::default()
            },
            13,
        );
        // Force co-prescription: every exposure to 0 adds an identical
        // exposure to 1.
        for p in &mut c.patients {
            let extra: Vec<_> = p
                .exposures
                .iter()
                .filter(|e| e.drug == 0)
                .map(|e| hc_kb::emr::Exposure {
                    drug: 1,
                    period: e.period,
                })
                .collect();
            p.exposures.extend(extra);
        }
        let marginal = marginal_effects(&c);
        // Marginal analysis blames the inert co-medication too.
        assert!(
            marginal[1] < -0.3,
            "marginal wrongly implicates drug 1: {}",
            marginal[1]
        );
    }
}
