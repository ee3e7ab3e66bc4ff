//! Dumps the full telemetry registry after an end-to-end platform run.
//!
//! Run: `cargo run --release --example telemetry_dump`
//!
//! Exercises every instrumented subsystem — ingest and ledger (wired at
//! bootstrap), plus a cache hierarchy, the intercloud gateway, a circuit
//! breaker and a JMF fit, each handed the platform's registry — then
//! prints the Prometheus text exposition, the span-tree flame dump, and
//! the telemetry-fed alarm evaluation. See OBSERVABILITY.md for the
//! metric catalogue.

use hc_cache::multilevel::CacheHierarchy;
use hc_cache::policy::LruCache;
use hc_cloudsim::gateway::IntercloudGateway;
use hc_cloudsim::net::Location;
use hc_common::clock::SimDuration;
use hc_common::id::PatientId;
use hc_core::monitoring;
use hc_core::platform::{demo_bundle, HealthCloudPlatform, PlatformConfig};
use hc_kb::biobank::{
    disease_similarity_sources, drug_similarity_sources, Biobank, BiobankConfig,
};
use hc_resilience::CircuitBreaker;
use hc_telemetry::{export, Tracer};

fn main() {
    let platform = HealthCloudPlatform::bootstrap(PlatformConfig {
        ledger_batch: 8,
        ..PlatformConfig::default()
    });
    let tracer = Tracer::new(platform.clock.clone());

    // Ingest + ledger: a mixed upload burst (valid / unconsented /
    // malware) through the full pipeline.
    {
        let _run = tracer.span("ingest.burst");
        for i in 0..40u128 {
            let device = platform.register_patient_device(PatientId::from_raw(i + 1));
            let bundle = match i % 10 {
                8 => demo_bundle(&format!("p{i}"), false),
                9 => {
                    let mut b = demo_bundle(&format!("p{i}"), true);
                    if let hc_fhir::resource::Resource::Patient(p) = &mut b.entries[0] {
                        p.name = Some(hc_fhir::types::HumanName::new(
                            String::from_utf8_lossy(hc_ingest::scanner::TEST_SIGNATURE)
                                .to_string(),
                            "X",
                        ));
                    }
                    b
                }
                _ => demo_bundle(&format!("p{i}"), true),
            };
            platform.upload(&device, &bundle).unwrap();
        }
        {
            let _process = tracer.span("ingest.process");
            platform.process_ingestion();
        }
    }

    // Cache: a zipf-free warm/read pass over an instrumented hierarchy.
    {
        let _span = tracer.span("cache.workload");
        let mut cache: CacheHierarchy<u32, u64> =
            CacheHierarchy::new(platform.clock.clone(), SimDuration::from_millis(50));
        cache.add_level(
            "client",
            Box::new(LruCache::new(64)),
            SimDuration::from_micros(2),
        );
        cache.add_level(
            "server",
            Box::new(LruCache::new(512)),
            SimDuration::from_micros(500),
        );
        cache.instrument(&platform.telemetry);
        for k in 0..1_000u32 {
            cache.write(k, u64::from(k));
        }
        for pass in 0..3u32 {
            for k in 0..200u32 {
                cache.read(&(k * (pass + 1)));
            }
        }
    }

    // Cloudsim: ship-data and ship-compute across an instrumented
    // intercloud gateway.
    {
        let _span = tracer.span("cloudsim.transfers");
        let mut gateway = IntercloudGateway::new(
            platform.clock.clone(),
            Location::new(0, 0),
            Location::new(1, 0),
        );
        gateway.instrument(&platform.telemetry);
        for mb in [10u64, 100, 500] {
            gateway.ship_data(mb * 1_000_000, SimDuration::from_secs(5));
        }
        let _ = gateway.ship_compute(200_000_000, SimDuration::from_secs(5), Ok(()));
    }

    // Resilience: a breaker lifecycle (trip, cool down, recover).
    {
        let _span = tracer.span("resilience.breaker");
        let mut breaker = CircuitBreaker::new(platform.clock.clone())
            .with_trip_threshold(3)
            .with_cooldown(SimDuration::from_millis(100));
        breaker.instrument("demo", &platform.telemetry);
        for _ in 0..3 {
            breaker.record_failure();
        }
        platform.clock.advance(SimDuration::from_millis(100));
        breaker.record_success();
        breaker.record_success();
    }

    // Analytics: a small JMF fit recording its iteration timings into
    // the platform's registry.
    {
        let _span = tracer.span("analytics.jmf");
        let bank = Biobank::generate(
            &BiobankConfig {
                n_drugs: 40,
                n_diseases: 30,
                n_clusters: 4,
                association_rate: 0.05,
                ..BiobankConfig::default()
            },
            2024,
        );
        let (train, _held) = bank.split_associations(0.25, 7);
        let drug_sims = drug_similarity_sources(&bank);
        let disease_sims = disease_similarity_sources(&bank);
        let config = hc_analytics::jmf::JmfConfig {
            k: 6,
            iters: 25,
            ..hc_analytics::jmf::JmfConfig::default()
        };
        let _model = hc_analytics::jmf::fit(
            &train,
            &drug_sims,
            &disease_sims,
            &config,
            7,
            Some(&platform.telemetry),
        );
    }

    let snapshot = platform.telemetry_snapshot();
    println!("=== registry: {} instruments across subsystems {:?} ===\n", snapshot.len(), snapshot.subsystems());
    println!("{}", export::prometheus(&snapshot));

    println!("=== span tree (sim / wall) ===");
    println!("{}", export::flame(&tracer.spans()));

    let report = monitoring::collect(&platform);
    let alarms = monitoring::alarms_with_telemetry(&report, &snapshot);
    println!("=== alarms ===");
    if alarms.is_empty() {
        println!("(none)");
    } else {
        for alarm in &alarms {
            println!("{alarm:?}");
        }
    }

    assert_eq!(
        snapshot.subsystems(),
        ["analytics", "cache", "cloudsim", "ingest", "ledger", "resilience"],
        "every instrumented subsystem reports into the platform registry"
    );
}
