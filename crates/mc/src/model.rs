//! Registered concurrency models: small, closed model-checkable slices
//! of the platform's concurrency core, plus the planted-defect fixtures
//! the self-check calibrates against.
//!
//! A [`Model`] is a factory: every execution instantiates fresh state,
//! so schedules replay deterministically. Setup inside the factory runs
//! *before* the probe is installed (uninstrumented, no scheduling
//! points) — models must not hold instrumented locks across the factory
//! boundary.

use std::sync::{Arc, Mutex as StdMutex};

use hc_cache::fleet::{CacheFleet, FleetConfig};
use hc_cache::shard::{ShardedCache, ShardedClient, ShardedOrigin};
use hc_cloudsim::net::Location;
use hc_common::clock::{SimClock, SimDuration};
use hc_common::conc::mc;
use hc_ledger::consensus::SlotWindow;
use hc_resilience::shed::{DegradedConfig, DegradedMode};
use hc_resilience::{CircuitBreaker, TimeoutBudget};

/// One fresh instantiation of a model: thread bodies for the controlled
/// scheduler, an optional invariant finale, and the lock identities the
/// cross-check needs to match schedules to static findings.
pub struct ModelRun {
    /// One closure per model thread.
    pub bodies: Vec<Box<dyn FnOnce() + Send>>,
    /// Runs on the coordinator after all threads join (skipped when the
    /// execution deadlocked); `mc::check` violations are captured.
    pub finale: Option<Box<dyn FnOnce()>>,
    /// `(static lock identity, runtime object id)` pairs binding this
    /// instantiation's locks to hc-lint's lock naming.
    pub lock_names: Vec<(String, u64)>,
}

/// A named, repeatable concurrency model.
pub struct Model {
    /// Stable name (`subsystem.scenario`), used by the CLI and reports.
    pub name: &'static str,
    /// One-line description for artifacts.
    pub description: &'static str,
    /// Builds a fresh instantiation.
    pub factory: Box<dyn Fn() -> ModelRun + Send + Sync>,
}

impl Model {
    /// A fresh instantiation with untouched state.
    pub fn instantiate(&self) -> ModelRun {
        (self.factory)()
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model").field("name", &self.name).finish()
    }
}

fn sharded_publish() -> Model {
    Model {
        name: "cache.sharded-publish",
        description: "insert-before-publish and subscriber pruning on the sharded origin bus",
        factory: Box::new(|| {
            let origin: Arc<ShardedOrigin<&'static str, u64>> = ShardedOrigin::new(1, 7);
            origin.write("k", 1);
            let mut client =
                ShardedClient::subscribe(Arc::clone(&origin), ShardedCache::lru(8, 1, 7));
            client.read_versioned(&"k"); // warm the local cache at v1
            let observed: Arc<StdMutex<Vec<u64>>> = Arc::default();
            let (w_origin, r_observed) = (Arc::clone(&origin), Arc::clone(&observed));
            let (f_origin, f_observed) = (Arc::clone(&origin), Arc::clone(&observed));
            ModelRun {
                bodies: vec![
                    Box::new(move || {
                        w_origin.write("k", 9);
                    }),
                    Box::new(move || {
                        let mut seen = Vec::new();
                        if let Some((_, v)) = client.read_versioned(&"k") {
                            seen.push(v);
                        }
                        if let Some((_, v)) = client.read_versioned(&"k") {
                            seen.push(v);
                        }
                        r_observed.lock().unwrap_or_else(|e| e.into_inner()).extend(seen);
                        // client drops here: its bus slots must be pruned.
                    }),
                ],
                finale: Some(Box::new(move || {
                    mc::check(f_origin.version(&"k") == 2, "origin lost the write");
                    let seen = f_observed.lock().unwrap_or_else(|e| e.into_inner());
                    mc::check(
                        seen.iter().zip(seen.iter().skip(1)).all(|(a, b)| a <= b),
                        "reader observed versions going backwards",
                    );
                    mc::check(
                        seen.iter().all(|&v| v >= 1),
                        "reader observed a missing value",
                    );
                    let live: usize = f_origin.subscriber_counts().iter().sum();
                    mc::check(live == 0, "dropped client left a subscriber slot behind");
                })),
                lock_names: Vec::new(),
            }
        }),
    }
}

fn breaker_half_open() -> Model {
    Model {
        name: "breaker.half-open-handoff",
        description: "exactly one probe admitted when two callers race the half-open breaker",
        factory: Box::new(|| {
            let clock = SimClock::new();
            let mut breaker = CircuitBreaker::new(clock.clone())
                .with_trip_threshold(1)
                .with_cooldown(SimDuration::from_millis(1));
            breaker.record_failure(); // trips open
            clock.advance(SimDuration::from_millis(2)); // cooldown elapses
            let shared = Arc::new(parking_lot::Mutex::new(breaker));
            let admitted: Arc<StdMutex<Vec<bool>>> = Arc::default();
            let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..2)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    let admitted = Arc::clone(&admitted);
                    Box::new(move || {
                        let ok = shared.lock().allow();
                        admitted.lock().unwrap_or_else(|e| e.into_inner()).push(ok);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let f_admitted = Arc::clone(&admitted);
            ModelRun {
                bodies,
                finale: Some(Box::new(move || {
                    let seen = f_admitted.lock().unwrap_or_else(|e| e.into_inner());
                    let through = seen.iter().filter(|&&ok| ok).count();
                    mc::check(
                        through == 1,
                        "half-open breaker must admit exactly one probe",
                    );
                })),
                lock_names: Vec::new(),
            }
        }),
    }
}

fn degraded_hysteresis() -> Model {
    Model {
        name: "shed.degraded-hysteresis",
        description: "degraded-mode flag flips only on completed hysteresis streaks",
        factory: Box::new(|| {
            let clock = SimClock::new();
            let cfg = DegradedConfig {
                window: SimDuration::from_millis(1),
                enter_above: 0.5,
                exit_below: 0.1,
                enter_windows: 1,
                exit_windows: 1,
            };
            let dm = Arc::new(parking_lot::Mutex::new(DegradedMode::new(clock.clone(), cfg)));
            let (dm_hot, clock_hot) = (Arc::clone(&dm), clock.clone());
            let (dm_obs, f_dm) = (Arc::clone(&dm), Arc::clone(&dm));
            ModelRun {
                bodies: vec![
                    Box::new(move || {
                        dm_hot.lock().on_request(true); // 100% shed window
                        clock_hot.advance(SimDuration::from_millis(1));
                        dm_hot.lock().roll_window(); // may enter degraded
                    }),
                    Box::new(move || {
                        // Concurrent reader: racing the flip must never
                        // observe torn hysteresis state.
                        let _ = dm_obs.lock().is_degraded();
                        let _ = dm_obs.lock().is_degraded();
                    }),
                ],
                finale: Some(Box::new(move || {
                    let guard = f_dm.lock();
                    mc::check(
                        guard.transitions() <= 1,
                        "one hot window cannot flip the flag twice",
                    );
                })),
                lock_names: Vec::new(),
            }
        }),
    }
}

fn fleet_read_repair() -> Model {
    Model {
        name: "fleet.read-repair-vs-invalidate",
        description: "replica convergence when a read races a write-invalidation fanout",
        factory: Box::new(|| {
            let clock = SimClock::new();
            let cfg = FleetConfig::default();
            let mut fleet: CacheFleet<&'static str, u64> =
                CacheFleet::with_topology(cfg, clock.clone(), 1, 4);
            let writer = Location::new(0, 0);
            let client = Location::new(0, 3);
            fleet.fill(&"k", &1, 1, writer);
            let fleet = Arc::new(parking_lot::Mutex::new(fleet));
            let (fleet_w, clock_w) = (Arc::clone(&fleet), clock.clone());
            let (fleet_r, clock_r) = (Arc::clone(&fleet), clock.clone());
            let (fleet_f, clock_f) = (Arc::clone(&fleet), clock);
            ModelRun {
                bodies: vec![
                    Box::new(move || {
                        {
                            let mut f = fleet_w.lock();
                            f.write_invalidate(&"k", writer);
                            f.fill(&"k", &2, 2, writer);
                        }
                        clock_w.advance(SimDuration::from_secs(1));
                        let now = clock_w.now();
                        fleet_w.lock().tick(now);
                    }),
                    Box::new(move || {
                        let budget =
                            TimeoutBudget::starting_now(&clock_r, SimDuration::from_secs(5));
                        let mut f = fleet_r.lock();
                        let _ = f.read(&"k", client, &budget);
                    }),
                ],
                finale: Some(Box::new(move || {
                    let mut f = fleet_f.lock();
                    clock_f.advance(SimDuration::from_secs(1));
                    let now = clock_f.now();
                    f.tick(now);
                    let budget = TimeoutBudget::starting_now(&clock_f, SimDuration::from_secs(5));
                    let _ = f.read(&"k", client, &budget); // read-repair pass
                    let versions = f.replica_versions(&"k");
                    let newest = versions.iter().map(|&(_, v)| v).max().unwrap_or(0);
                    mc::check(
                        versions.iter().all(|&(_, v)| v == 0 || v == newest),
                        "stale replica survived invalidation + read repair",
                    );
                })),
                lock_names: Vec::new(),
            }
        }),
    }
}

fn slot_window() -> Model {
    Model {
        name: "ledger.slot-window",
        description: "pipelined PBFT slot window commits in order whatever order quorums complete",
        factory: Box::new(|| {
            // A 4-peer cluster always clears the n >= 4 floor; the
            // factory has no error channel, so an impossible rejection
            // may abort the checker run. This is the same SlotWindow
            // PbftCluster uses in production, opened over a
            // 3-deep in-flight window with a 2-slot ring so seq 2
            // contends for seq 0's recycled slot.
            let w = Arc::new(SlotWindow::new(4, 2).unwrap_or_else(|e| {
                unreachable!("4 peers is a valid cluster: {e}") // hc-lint: allow(panic-macro)
            }));
            w.open(0);
            w.open(1);
            // Two commit votes per open slot land during setup; the model
            // threads deliver the quorum-completing third votes — and the
            // seq-2 recycle attempt — in every order the explorer can
            // produce.
            for seq in 0..2u64 {
                w.prepare(seq);
                w.commit_vote(seq);
                w.commit_vote(seq);
            }
            let (w0, w1, wf) = (Arc::clone(&w), Arc::clone(&w), Arc::clone(&w));
            ModelRun {
                bodies: vec![
                    Box::new(move || w0.commit_vote(0)),
                    Box::new(move || {
                        w1.commit_vote(1);
                        // Recycling seq 0's ring slot for seq 2 must
                        // only succeed once seq 0 has committed.
                        let recycled = w1.open(2);
                        mc::check(
                            !recycled || w1.committed().first() == Some(&0),
                            "ring slot recycled before its occupant committed",
                        );
                    }),
                ],
                finale: Some(Box::new(move || {
                    let log = wf.committed();
                    mc::check(
                        log.first() == Some(&0) && log.get(1) == Some(&1),
                        "slot window failed to commit both sequences in order",
                    );
                    mc::check(wf.in_order(), "commit log is not an in-order prefix");
                })),
                lock_names: Vec::new(),
            }
        }),
    }
}

fn planted_lost_update() -> Model {
    Model {
        name: "fixtures.racy-counter",
        description: "planted lost-update: split read/write critical sections drop an increment",
        factory: Box::new(|| {
            let c = Arc::new(mc_fixtures::RacyCounter::new());
            let (c1, c2, cf) = (Arc::clone(&c), Arc::clone(&c), Arc::clone(&c));
            ModelRun {
                bodies: vec![
                    Box::new(move || c1.bump_lost_update()),
                    Box::new(move || c2.bump_lost_update()),
                ],
                finale: Some(Box::new(move || {
                    mc::check(cf.get() == 2, "an increment was lost");
                })),
                lock_names: Vec::new(),
            }
        }),
    }
}

fn planted_abba() -> Model {
    Model {
        name: "fixtures.abba-deadlock",
        description: "planted ABBA inversion: opposite lock orders deadlock under one schedule",
        factory: Box::new(|| {
            let pair = Arc::new(mc_fixtures::AbbaPair::new());
            let (debit_id, credit_id) = pair.lock_ids();
            let (p1, p2, pf) = (Arc::clone(&pair), Arc::clone(&pair), Arc::clone(&pair));
            ModelRun {
                bodies: vec![
                    Box::new(move || p1.transfer_forward(10)),
                    Box::new(move || p2.transfer_reverse(5)),
                ],
                finale: Some(Box::new(move || {
                    mc::check(pf.net() == 0, "transfers must conserve the total");
                })),
                lock_names: vec![
                    ("AbbaPair.debit".to_string(), debit_id),
                    ("AbbaPair.credit".to_string(), credit_id),
                ],
            }
        }),
    }
}

/// The clean models: production concurrency slices expected to sweep
/// exhaustively with zero violations (E22, CI `model-check`).
pub fn registry() -> Vec<Model> {
    vec![
        sharded_publish(),
        breaker_half_open(),
        degraded_hysteresis(),
        fleet_read_repair(),
        slot_window(),
    ]
}

/// The planted-defect models: the self-check fails unless the checker
/// still catches every one of these.
pub fn planted() -> Vec<Model> {
    vec![planted_lost_update(), planted_abba()]
}

/// Looks a model up by name across both sets.
pub fn find(name: &str) -> Option<Model> {
    registry()
        .into_iter()
        .chain(planted())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = registry().iter().map(|m| m.name).collect();
        names.extend(planted().iter().map(|m| m.name));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate model name");
        for name in names {
            assert!(find(name).is_some(), "{name} must resolve");
        }
        assert!(find("no.such.model").is_none());
    }

    #[test]
    fn every_model_instantiates_with_at_least_two_threads() {
        for model in registry().into_iter().chain(planted()) {
            let run = model.instantiate();
            assert!(
                run.bodies.len() >= 2,
                "{} needs concurrency to be worth checking",
                model.name
            );
        }
    }
}
