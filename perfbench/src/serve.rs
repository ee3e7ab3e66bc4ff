//! `serve`: `ServingStack::request(tier, key)` with `drain(1 ms)` after
//! every 10 requests — 10k offered requests per simulated second — on
//! the E20 healthy release fleet.

use std::time::Instant;

use hc_cache::shard::ShardedCache;
use hc_common::clock::{SimClock, SimDuration};
use hc_core::serving::{FleetTierConfig, Protection, RequestOutcome, ServingConfig, ServingStack};
use hc_resilience::admission::{AdmissionController, Tier};
use hc_resilience::shed::ShedReason;

use crate::inputs::{Inputs, SERVE_STREAM, SERVE_WARMUP};
use crate::replay::timed;
use crate::report::Report;
use crate::stats::{self, Measured};
use crate::trace::{Attribution, Layer, Tracer};
use crate::Budget;

/// Requests between drains.
const PER_TICK: usize = 10;
const TICK: SimDuration = SimDuration::from_millis(1);
/// Measured requests over which the model metrics are computed: the rest
/// of the stream's first pass after the warm-up. Every run measures at
/// least this many, so the metrics repeat exactly for a seed.
pub const WINDOW: usize = 900_000;
const ADMISSION_RATE: f64 = 12_000.0;

/// E20's healthy release configuration.
pub fn config() -> ServingConfig {
    ServingConfig {
        cores: 256,
        hit_cost: SimDuration::from_micros(50),
        miss_cost: SimDuration::from_micros(800),
        origin_fetch_cost: SimDuration::from_millis(1),
        origin_cores: 32,
        cache_capacity: 8_192,
        cache_shards: 32,
        admission_rate: ADMISSION_RATE,
        admission_burst: ADMISSION_RATE / 20.0,
        tier_slos: [
            SimDuration::from_millis(250),
            SimDuration::from_millis(1_000),
            SimDuration::from_millis(10_000),
        ],
        protection: Protection::Full,
        fleet: Some(FleetTierConfig {
            regions: 3,
            nodes_per_region: 2,
            replication: 3,
            vnodes: 256,
            node_capacity: 32_768,
            node_shards: 8,
            ..FleetTierConfig::default()
        }),
        ..ServingConfig::default()
    }
}

/// A warmed serving stack.
pub struct Rig {
    pub clock: SimClock,
    pub stack: ServingStack,
    pub registry: Option<hc_telemetry::Registry>,
}

fn tier(t: u8) -> Tier {
    match t {
        0 => Tier::Clinical,
        1 => Tier::Interactive,
        _ => Tier::Batch,
    }
}

/// Builds the stack (instrumented when `telemetry`) and replays the
/// stream's warm-up prefix through it.
pub fn setup(telemetry: bool, inputs: &Inputs) -> Rig {
    let clock = SimClock::new();
    let mut stack = ServingStack::new(clock.clone(), config());
    let registry = telemetry.then(|| {
        let r = hc_telemetry::Registry::new();
        stack.instrument(&r);
        r
    });
    for i in 0..SERVE_WARMUP {
        stack.request(tier(inputs.tiers[i]), inputs.keys[i]);
        if (i + 1) % PER_TICK == 0 {
            clock.advance(TICK);
            stack.drain(TICK);
        }
    }
    Rig {
        clock,
        stack,
        registry,
    }
}

/// Outcome tallies over the model window.
#[derive(Default)]
struct Tally {
    offered: u64,
    served: u64,
    within: u64,
    shed: [u64; 3],
}

impl Tally {
    fn add(&mut self, outcome: RequestOutcome) {
        self.offered += 1;
        match outcome {
            RequestOutcome::Served { within_slo, .. } => {
                self.served += 1;
                self.within += u64::from(within_slo);
            }
            RequestOutcome::Shed(reason) => {
                self.shed[match reason {
                    ShedReason::Admission => 0,
                    ShedReason::Overload => 1,
                    ShedReason::Deadline => 2,
                }] += 1;
            }
        }
    }
}

/// Model metrics and checks once the window closes.
struct Window {
    tally: Tally,
    local: (u64, u64),
    fleet: (u64, u64),
    counters: Option<[u64; 5]>,
}

fn local_stats(rig: &Rig) -> (u64, u64) {
    let s = rig.stack.cache_stats();
    (s.hits, s.misses)
}

fn fleet_stats(rig: &Rig) -> (u64, u64) {
    rig.stack
        .fleet_report()
        .map_or((0, 0), |f| (f.hits, f.misses))
}

fn slo_counters(rig: &Rig) -> Option<[u64; 5]> {
    let snap = rig.registry.as_ref()?.snapshot();
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    Some([
        c("slo.offered"),
        c("slo.served"),
        c("slo.shed.admission"),
        c("slo.shed.overload"),
        c("slo.shed.deadline"),
    ])
}

impl Window {
    fn open(rig: &Rig) -> Self {
        Window {
            tally: Tally::default(),
            local: local_stats(rig),
            fleet: fleet_stats(rig),
            counters: slo_counters(rig),
        }
    }

    /// Reports the window's model metrics and checks every request of
    /// it was either served or shed, as the stack's own counters agree.
    fn close(self, rig: &Rig, report: &mut Report) {
        let t = &self.tally;
        let offered = t.offered.max(1) as f64;
        let shed: u64 = t.shed.iter().sum();
        report.set("serving.slo_goodput_ratio", t.within as f64 / offered);
        report.set(
            "resilience.admitted_ratio",
            (t.offered - t.shed[0]) as f64 / offered,
        );
        report.set("resilience.shed_overload", t.shed[1] as f64);
        report.set("resilience.shed_deadline", t.shed[2] as f64);
        let ratio = |(h0, m0): (u64, u64), (h1, m1): (u64, u64)| {
            let (h, m) = (h1 - h0, m1 - m0);
            h as f64 / (h + m).max(1) as f64
        };
        report.set("cache.local_hit_ratio", ratio(self.local, local_stats(rig)));
        report.set("cache.fleet_hit_ratio", ratio(self.fleet, fleet_stats(rig)));
        report.check("served + shed = offered", t.served + shed == t.offered);
        if let (Some(before), Some(after)) = (self.counters, slo_counters(rig)) {
            let d: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            report.check(
                "slo counters agree with outcomes",
                d[0] == t.offered && d[1] == t.served && d[2..] == t.shed[..],
            );
        }
    }
}

/// The untraced loop. Every request's outcome counts as an operation; a
/// shed request is a refusal and counts as failed.
pub fn measure(rig: &mut Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> Measured {
    let budget = Budget {
        min_ops: budget.min_ops.max(WINDOW),
        ..*budget
    };
    let mut window = Some(Window::open(rig));
    let mut i = SERVE_WARMUP;
    let mut rec = budget.recorder();
    while rec.more() {
        for _ in 0..PER_TICK {
            let k = i % SERVE_STREAM;
            let t0 = Instant::now();
            let outcome = rig.stack.request(tier(inputs.tiers[k]), inputs.keys[k]);
            rec.record(t0.elapsed());
            report.op(outcome.is_served());
            if let Some(w) = window.as_mut() {
                w.tally.add(outcome);
            }
            i += 1;
        }
        rig.clock.advance(TICK);
        rig.stack.drain(TICK);
        if rec.ops() == WINDOW as u64 {
            if let Some(w) = window.take() {
                w.close(rig, report);
            }
        }
    }
    rec.finish()
}

/// The traced loop: one operation is one tick of 10 requests and a
/// drain. Each request span holds a replay of its admission decision on
/// a mirror controller sharing the stack's clock, and of its local-cache
/// lookup on a mirror `ShardedCache` of the same shape.
pub fn traced(rig: &mut Rig, inputs: &Inputs, budget: &Budget, report: &mut Report) -> Attribution {
    let cfg = config();
    let mut admission =
        AdmissionController::new(rig.clock.clone(), cfg.admission_rate, cfg.admission_burst);
    let cache: ShardedCache<u64, u64, _> =
        ShardedCache::lru(cfg.cache_capacity, cfg.cache_shards, cfg.seed);
    for &k in &inputs.keys[..SERVE_WARMUP] {
        if cache.get(&k).is_none() {
            cache.put(k, 1);
        }
    }
    let budget = Budget {
        min_ops: budget.min_ops.max(WINDOW / PER_TICK),
        ..*budget
    };
    let mut window = Some(Window::open(rig));
    let mut tracer = Tracer::new(8);
    let (mut request_ns, mut drain_us, mut get_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = SERVE_WARMUP;
    let mut ticks = 0usize;
    let start = Instant::now();
    while budget.more(start, ticks) {
        let mut calls = [(0u64, 0u64, Tier::Batch, 0u64); PER_TICK];
        let root_start = tracer.now();
        for call in &mut calls {
            let k = i % SERVE_STREAM;
            let (tr, key) = (tier(inputs.tiers[k]), inputs.keys[k]);
            let t0 = tracer.now();
            let outcome = rig.stack.request(tr, key);
            *call = (t0, tracer.now(), tr, key);
            report.op(outcome.is_served());
            if let Some(w) = window.as_mut() {
                w.tally.add(outcome);
            }
            i += 1;
        }
        rig.clock.advance(TICK);
        let d0 = tracer.now();
        rig.stack.drain(TICK);
        let d1 = tracer.now();
        // Replays run after the tick, outside the root span. Admission
        // still admits on the same bucket state: 10 requests per tick
        // never drain a bucket refilled at 12 per tick.
        let root = tracer.span(None, "serve.tick", None, root_start, d1);
        for &(t0, t1, tr, key) in &calls {
            let (_, admit) = timed(|| admission.try_admit(tr));
            let (hit, get) = timed(|| cache.get(&key));
            if hit.is_none() {
                cache.put(key, 1);
            }
            let req = tracer.span(Some(root), "request", Some(Layer::Core), t0, t1);
            tracer.replays(
                req,
                t0,
                &[
                    ("admission.try_admit", Layer::Resilience, admit),
                    ("shard.get", Layer::Cache, get),
                ],
            );
            request_ns.push((t1 - t0) as f64);
            get_ns.push(get as f64);
        }
        tracer.span(Some(root), "drain", Some(Layer::Core), d0, d1);
        tracer.end_op();
        drain_us.push((d1 - d0) as f64 / 1e3);
        ticks += 1;
        if ticks * PER_TICK == WINDOW {
            if let Some(w) = window.take() {
                w.close(rig, report);
            }
        }
    }
    report.set("serving.request_ns", stats::median(&mut request_ns));
    report.set("serving.drain_us", stats::median(&mut drain_us));
    report.set("cache.sharded_get_ns", stats::median(&mut get_ns));
    if let Err(e) = tracer.write_spans(&crate::spans_path("serve")) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    Attribution::of(tracer.folded())
}
