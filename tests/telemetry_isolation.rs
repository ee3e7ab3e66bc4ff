//! Telemetry isolation: a platform's metrics land in that platform's
//! registry and nowhere else, however many platforms share the process.

use hc_analytics::jmf::JmfConfig;
use hc_core::platform::{HealthCloudPlatform, PlatformConfig};
use hc_core::studies::run_repositioning_study;
use hc_kb::biobank::{Biobank, BiobankConfig};

fn run_small_study(platform: &HealthCloudPlatform) {
    let bank = Biobank::generate(
        &BiobankConfig {
            n_drugs: 20,
            n_diseases: 15,
            n_clusters: 3,
            association_rate: 0.1,
            ..BiobankConfig::default()
        },
        5,
    );
    let config = JmfConfig {
        k: 4,
        iters: 10,
        ..JmfConfig::default()
    };
    run_repositioning_study(platform, &bank, &config, 0.25, 5);
}

#[test]
fn study_metrics_land_in_the_platform_that_ran_it() {
    let first = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    let second = HealthCloudPlatform::bootstrap(PlatformConfig::default());
    run_small_study(&first);

    // The study fits JMF twice: learned and uniform source weights.
    assert_eq!(first.telemetry_snapshot().counter("analytics.jmf.fits"), Some(2));
    assert_eq!(second.telemetry_snapshot().counter("analytics.jmf.fits"), None);
}

#[test]
fn uninstrumented_platform_registry_stays_empty() {
    let platform =
        HealthCloudPlatform::bootstrap_instrumented(PlatformConfig::default(), false);
    run_small_study(&platform);
    let snapshot = platform.telemetry_snapshot();
    assert!(snapshot.is_empty(), "unexpected metrics: {:?}", snapshot.subsystems());
}
