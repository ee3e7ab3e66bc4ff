//! Reduced-scale E19 SLO assertions: the overload-protected serving
//! stack must keep clinical latency inside its SLO through a 10x flash
//! crowd while an unprotected stack demonstrably violates it.
//!
//! This is the tier-1 mirror of the full E19 experiment
//! (`cargo run --release --example experiments -- e19`): the same
//! closed loop, built by `hc_bench::serving` at [`Scale::Small`], a
//! population small enough for debug builds. The workload is seeded
//! (override with `HC_SOAK_SEED`); CI's `overload-tests` job runs it
//! `--release` with two seeds.

use hc_bench::serving::{e19_config, e19_workload, CLINICAL_SLO};
use hc_bench::Scale;
use hc_common::clock::{SimClock, SimDuration};
use hc_core::serving::{run_overload, OverloadReport, Protection, ServingStack};
use hc_resilience::admission::Tier;
use hc_resilience::HealthState;

fn seed() -> u64 {
    std::env::var("HC_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE19)
}

fn run(protection: Protection) -> OverloadReport {
    run_overload(
        ServingStack::new(SimClock::new(), e19_config(Scale::Small, protection)),
        &e19_workload(Scale::Small, seed()),
    )
}

#[test]
fn protected_flash_crowd_meets_clinical_slo() {
    let report = run(Protection::Full);
    let flash = report.window("flash").unwrap();
    let clinical = &flash.tiers[Tier::Clinical.index()];
    assert!(
        u128::from(clinical.p999_us) * 1_000 <= CLINICAL_SLO.as_nanos() as u128,
        "protected flash clinical p999 {}us exceeds the SLO",
        clinical.p999_us
    );
    let admission_rate = e19_config(Scale::Small, Protection::Full).admission_rate;
    assert!(
        flash.goodput_rps() >= 0.9 * admission_rate,
        "protected flash goodput {:.0}/s below 90% of the {admission_rate}/s admitted capacity",
        flash.goodput_rps()
    );
    // Priorities: batch starves before clinical.
    assert!(
        report.overall.tiers[Tier::Batch.index()].shed_rate()
            > report.overall.tiers[Tier::Clinical.index()].shed_rate()
    );
}

#[test]
fn unprotected_flash_crowd_violates_slo() {
    let report = run(Protection::None);
    let flash = report.window("flash").unwrap();
    let clinical = &flash.tiers[Tier::Clinical.index()];
    assert!(
        u128::from(clinical.p999_us) * 1_000 > CLINICAL_SLO.as_nanos() as u128,
        "without protection the flash crowd should blow the clinical SLO \
         (p999 {}us)",
        clinical.p999_us
    );
    assert_eq!(report.overall.shed_rate(), 0.0, "baseline sheds nothing");
}

#[test]
fn shedder_rescues_the_cold_start_miss_storm_admission_cannot() {
    let admission_only = run(Protection::AdmissionOnly);
    let full = run(Protection::Full);
    let ao = &admission_only.window("warmup").unwrap().tiers[Tier::Clinical.index()];
    let fp = &full.window("warmup").unwrap().tiers[Tier::Clinical.index()];
    let slo_us = CLINICAL_SLO.as_nanos() / 1_000;
    assert!(
        ao.p999_us > slo_us,
        "admission alone should not contain the cold-cache miss storm \
         (warmup p999 {}us)",
        ao.p999_us
    );
    assert!(
        fp.p999_us <= slo_us,
        "the load shedder must contain the miss storm (warmup p999 {}us)",
        fp.p999_us
    );
}

#[test]
fn degraded_mode_enters_and_exits_cleanly() {
    let report = run(Protection::Full);
    assert!(
        report.degraded_transitions >= 2,
        "sustained shedding must enter degraded mode at least once"
    );
    assert_eq!(
        report.degraded_transitions % 2,
        0,
        "every degraded entry must be matched by an exit"
    );
    assert!(
        report.degraded_transitions <= 6,
        "hysteresis must prevent flapping (saw {} transitions)",
        report.degraded_transitions
    );
    assert!(!report.degraded_at_end, "the run must end healthy");
}

#[test]
fn health_tracker_reflects_degraded_serving() {
    // Drive the stack directly through an overload burst and watch the
    // platform health fold the serving subsystem in and out.
    let clock = SimClock::new();
    let mut stack = ServingStack::new(clock.clone(), e19_config(Scale::Small, Protection::Full));
    assert_eq!(stack.health(), HealthState::Healthy);
    // Saturate: far more offered than the 1-core stack can admit.
    for step in 0..200_000u64 {
        let _ = stack.request(Tier::Interactive, step % 16_384);
        if step % 20 == 0 {
            clock.advance(SimDuration::from_millis(1));
            stack.drain(SimDuration::from_millis(1));
        }
    }
    assert!(stack.is_degraded());
    assert_eq!(
        stack.health(),
        HealthState::Degraded(vec!["serving".to_owned()])
    );
    // Silence: windows roll over with no shed traffic and health recovers.
    for _ in 0..20 {
        clock.advance(SimDuration::from_secs(1));
        stack.drain(SimDuration::from_secs(1));
    }
    assert!(!stack.is_degraded());
    assert_eq!(stack.health(), HealthState::Healthy);
}

#[test]
fn report_is_deterministic_for_a_seed() {
    let a = run(Protection::Full);
    let b = run(Protection::Full);
    assert_eq!(format!("{:?}", a.overall), format!("{:?}", b.overall));
    assert_eq!(a.degraded_transitions, b.degraded_transitions);
    assert_eq!(a.ledger_height, b.ledger_height);
}
