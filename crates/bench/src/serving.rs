//! E19/E20: the overload-protected serving stack, the cache-fleet tier
//! behind it, and the closed-loop workloads that drive them.

use hc_common::clock::{SimDuration, SimInstant};
use hc_common::conc::LoadCurve;
use hc_core::serving::{FleetTierConfig, Protection, ServingConfig, WorkloadConfig};

use crate::Scale;

/// The clinical tier's latency SLO; the interactive and batch tiers get
/// 1 s and 10 s.
pub const CLINICAL_SLO: SimDuration = SimDuration::from_millis(250);

const TIER_SLOS: [SimDuration; 3] = [
    CLINICAL_SLO,
    SimDuration::from_millis(1_000),
    SimDuration::from_millis(10_000),
];

/// Share of clinical, interactive and batch requests.
const TIER_MIX: [f64; 3] = [0.10, 0.60, 0.30];

/// E20's window boundaries in simulated seconds: cold start, steady,
/// fault injected, recovered.
const E20_BOUNDS: [u64; 5] = [0, 10, 20, 35, 45];

fn at(secs: u64) -> SimInstant {
    SimInstant::from_nanos(SimDuration::from_secs(secs).as_nanos())
}

/// Labelled report windows: window `i` spans `bounds[i]..bounds[i + 1]`
/// simulated seconds.
fn windows(labels: [&str; 4], bounds: [u64; 5]) -> Vec<(String, SimInstant, SimInstant)> {
    labels
        .iter()
        .zip(bounds.iter().zip(bounds.iter().skip(1)))
        .map(|(label, (&start, &end))| ((*label).to_owned(), at(start), at(end)))
        .collect()
}

/// E19's serving stack under `protection`.
///
/// [`Scale::Small`] runs the shape of the recorded [`Scale::Full`] run
/// at 1/16 of its population and capacity.
pub fn e19_config(scale: Scale, protection: Protection) -> ServingConfig {
    let admission_rate = scale.pick(2_000.0, 28_000.0);
    ServingConfig {
        cores: scale.pick(1, 16),
        hit_cost: SimDuration::from_micros(50),
        // The full run's slightly costlier origin round trip deepens the
        // cold-start miss storm the warmup assertions measure.
        miss_cost: scale.pick(SimDuration::from_millis(2), SimDuration::from_micros(2_200)),
        // The origin drains fetches slower than the front can miss when
        // the cache is cold: 12k fetch/s (full) against ~15.7k cold
        // misses/s, so the cold-start herd backs the origin up and miss
        // cost inflates until the fills land.
        origin_fetch_cost: scale.pick(SimDuration::from_micros(1_333), SimDuration::from_millis(1)),
        origin_cores: scale.pick(1, 12),
        cache_capacity: scale.pick(16_384, 131_072),
        cache_shards: scale.pick(16, 64),
        admission_rate,
        admission_burst: admission_rate / 20.0,
        tier_slos: TIER_SLOS,
        provenance_sample: 4_096,
        degraded_provenance_sample: 65_536,
        provenance_batch: 64,
        protection,
        ..ServingConfig::default()
    }
}

/// E19's closed-loop day: a diurnal user population with a 10x flash
/// crowd, reported over the windows `warmup`, `steady`, `flash` and
/// `recovery`.
///
/// [`Scale::Small`] also halves the simulated day.
pub fn e19_workload(scale: Scale, seed: u64) -> WorkloadConfig {
    let bounds = scale.pick([0, 10, 40, 55, 75], [0, 10, 60, 90, 150]);
    let [_, _, flash_start, flash_end, day] = bounds;
    WorkloadConfig {
        // The full run's flatter diurnal (higher overnight floor) deepens
        // the cold-start miss storm without pushing the admitted flash
        // load past serving capacity.
        curve: LoadCurve::new(scale.pick(62_500.0, 1_000_000.0))
            .with_diurnal(scale.pick(0.25, 0.10), SimDuration::from_secs(day))
            .with_flash_crowd(at(flash_start), at(flash_end), 10.0),
        req_per_user_per_sec: 0.02,
        tier_mix: TIER_MIX,
        // The keyspace sets how long a cold cache stays cold: the miss
        // storm lasts until the hot octaves are fetched, which takes time
        // proportional to keyspace / offered rate, so the keyspace
        // shrinks with the population or the cache would never warm.
        keyspace: scale.pick(65_536, 1_048_576),
        duration: SimDuration::from_secs(day),
        tick: SimDuration::from_millis(1),
        seed,
        windows: windows(["warmup", "steady", "flash", "recovery"], bounds),
    }
}

/// E20's fleet tiers, labelled: `healthy`, `crash` (node 0 down through
/// the `fault` window) and `partition` (region 2 cut off through it).
/// Each is 3 regions x 2 nodes with R=3 on 256 vnodes.
pub fn e20_scenarios(scale: Scale) -> [(&'static str, FleetTierConfig); 3] {
    let [_, _, fault_start, fault_end, _] = E20_BOUNDS;
    let fault = (at(fault_start), at(fault_end));
    let fleet = |crash_windows, partition_windows| FleetTierConfig {
        regions: 3,
        nodes_per_region: 2,
        replication: 3,
        vnodes: 256,
        node_capacity: scale.pick(8_192, 32_768),
        node_shards: 8,
        crash_windows,
        partition_windows,
        ..FleetTierConfig::default()
    };
    [
        ("healthy", fleet(vec![], vec![])),
        ("crash", fleet(vec![(0, fault.0, fault.1)], vec![])),
        ("partition", fleet(vec![], vec![(2, fault.0, fault.1)])),
    ]
}

/// E20's fully protected serving stack in front of `fleet`.
///
/// `cores` models concurrent request slots: a slot blocked on a replica
/// round trip holds no CPU, so slots outnumber physical cores the way
/// async executors oversubscribe. [`Scale::Small`] shrinks the
/// population and capacity 8x.
pub fn e20_config(scale: Scale, fleet: FleetTierConfig) -> ServingConfig {
    let admission_rate = scale.pick(1_500.0, 12_000.0);
    ServingConfig {
        cores: scale.pick(32, 256),
        hit_cost: SimDuration::from_micros(50),
        miss_cost: SimDuration::from_micros(800),
        origin_fetch_cost: SimDuration::from_millis(1),
        origin_cores: scale.pick(4, 32),
        cache_capacity: scale.pick(2_048, 8_192),
        cache_shards: scale.pick(8, 32),
        admission_rate,
        admission_burst: admission_rate / 20.0,
        tier_slos: TIER_SLOS,
        protection: Protection::Full,
        fleet: Some(fleet),
        ..ServingConfig::default()
    }
}

/// E20's closed loop: a constant user population reported over the
/// windows `warmup`, `steady`, `fault` and `recovered`.
pub fn e20_workload(scale: Scale) -> WorkloadConfig {
    let [.., day] = E20_BOUNDS;
    WorkloadConfig {
        curve: LoadCurve::new(scale.pick(62_500.0, 500_000.0)),
        req_per_user_per_sec: 0.02,
        tier_mix: TIER_MIX,
        keyspace: scale.pick(8_192, 32_768),
        duration: SimDuration::from_secs(day),
        tick: SimDuration::from_millis(1),
        seed: 20,
        windows: windows(["warmup", "steady", "fault", "recovered"], E20_BOUNDS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each window starts where the previous one ended, the first at 0
    /// and the last ending at the run's duration.
    fn assert_windows_tile(workload: &WorkloadConfig) {
        let mut next = SimInstant::ZERO;
        for (label, start, end) in &workload.windows {
            assert_eq!(
                *start, next,
                "window {label} must start where the last one ended"
            );
            assert!(end > start, "window {label} must not be empty");
            next = *end;
        }
        assert_eq!(
            next.as_nanos(),
            workload.duration.as_nanos(),
            "windows must cover the run"
        );
    }

    #[test]
    fn shared_workload_windows_tile_the_run() {
        for scale in [Scale::Small, Scale::Full] {
            assert_windows_tile(&e19_workload(scale, 19));
            assert_windows_tile(&e20_workload(scale));
        }
    }
}
