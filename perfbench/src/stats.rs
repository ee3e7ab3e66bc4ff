//! Order statistics and process measurements.

/// Sorts in place and returns the nearest-rank `q`-quantile (0 when
/// empty).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median (nearest rank).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples needed so that at least ten lie beyond the 99th percentile.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share of
/// time the hypervisor gave this machine's CPUs to someone else.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Sub-buckets per power of two: values below 1,024 ns are kept exactly,
/// larger ones to within 1/1,024 (< 0.1%).
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;

/// A log-linear latency histogram over nanoseconds: constant memory
/// however many operations a run completes.
#[derive(Clone, Debug)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; SUB * 34],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        SUB * (shift as usize + 1) + ((ns >> shift) as usize - SUB)
    }

    /// Midpoint of a bucket, in nanoseconds.
    fn value(index: usize) -> f64 {
        if index < SUB {
            return index as f64;
        }
        let shift = index / SUB - 1;
        let lower = ((SUB + index % SUB) as u64) << shift;
        lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank `q`-quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        Self::value(self.counts.len() - 1) / 1e3
    }
}

/// Length of one time-share round: throughput and latency are reported
/// as medians over rounds, so a burst of interference from outside the
/// process moves one round, not the result.
pub const ROUND_SECONDS: f64 = 1.0;

/// One round of a measured loop.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub ops: u64,
    pub seconds: f64,
    pub hist: LatencyHist,
}

/// Times a measured loop: at least `seconds` of wall time and at least
/// `min_ops` operations. Rounds are either equal shares of the time, of
/// about [`ROUND_SECONDS`] each and closed automatically, or fixed
/// amounts of work the caller delimits with [`Recorder::begin_round`]
/// and [`Recorder::end_round`].
#[derive(Debug)]
pub struct Recorder {
    start: std::time::Instant,
    seconds: f64,
    min_ops: u64,
    manual: bool,
    rounds_due: usize,
    ops: u64,
    round_start: f64,
    current: Round,
    rounds: Vec<Round>,
}

impl Recorder {
    /// Starts the clock with time-share rounds.
    pub fn start(seconds: f64, min_ops: usize) -> Self {
        Recorder {
            start: std::time::Instant::now(),
            seconds,
            min_ops: min_ops as u64,
            manual: false,
            rounds_due: ((seconds / ROUND_SECONDS).round() as usize).clamp(1, 600),
            ops: 0,
            round_start: 0.0,
            current: Round::default(),
            rounds: Vec::new(),
        }
    }

    /// Starts the clock with caller-delimited rounds.
    pub fn start_manual(seconds: f64, min_ops: usize) -> Self {
        Recorder {
            manual: true,
            ..Self::start(seconds, min_ops)
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records one completed operation's latency.
    pub fn record(&mut self, latency: std::time::Duration) {
        self.current.hist.record(latency.as_nanos() as u64);
        self.current.ops += 1;
        self.ops += 1;
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether to run another operation (or round); closes time-share
    /// rounds as their share elapses.
    pub fn more(&mut self) -> bool {
        let now = self.now();
        let done = now >= self.seconds && self.ops >= self.min_ops;
        if !self.manual {
            let round_due = self.seconds > 0.0
                && self.rounds.len() + 1 < self.rounds_due
                && now >= self.seconds * (self.rounds.len() + 1) as f64 / self.rounds_due as f64;
            if done || round_due {
                self.end_round();
            }
        }
        !done
    }

    /// Starts a caller-delimited round: work before it (set-up) is not
    /// part of the round's time.
    pub fn begin_round(&mut self) {
        self.round_start = self.now();
    }

    /// Closes the current round (a no-op when it recorded nothing).
    pub fn end_round(&mut self) {
        let now = self.now();
        if self.current.ops > 0 {
            self.current.seconds = now - self.round_start;
            self.rounds.push(std::mem::take(&mut self.current));
        }
        self.round_start = now;
    }

    /// The finished loop.
    pub fn finish(mut self) -> Measured {
        self.end_round();
        Measured {
            ops: self.ops,
            wall_s: self.now(),
            rounds: self.rounds,
        }
    }
}

/// A finished measured loop.
#[derive(Debug)]
pub struct Measured {
    pub ops: u64,
    pub wall_s: f64,
    pub rounds: Vec<Round>,
}

impl Measured {
    /// Median over rounds of operations per second.
    pub fn ops_per_s(&self) -> f64 {
        let mut v: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.ops as f64 / r.seconds)
            .collect();
        median(&mut v)
    }

    /// Median over rounds of the round's median latency (µs).
    pub fn p50_us(&self) -> f64 {
        let mut v: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.hist.quantile_us(0.5))
            .collect();
        median(&mut v)
    }

    /// 99th-percentile latency (µs): the median over rounds of each
    /// round's p99 when every round holds enough samples for one, so a
    /// stall from outside the process moves one round, not the result;
    /// otherwise the p99 of all samples pooled.
    pub fn p99_us(&self) -> f64 {
        if self
            .rounds
            .iter()
            .all(|r| r.hist.count() >= P99_MIN_SAMPLES as u64)
        {
            let mut v: Vec<f64> = self
                .rounds
                .iter()
                .map(|r| r.hist.quantile_us(0.99))
                .collect();
            median(&mut v)
        } else {
            self.pooled().quantile_us(0.99)
        }
    }

    fn pooled(&self) -> LatencyHist {
        let mut all = LatencyHist::default();
        for r in &self.rounds {
            all.merge(&r.hist);
        }
        all
    }

    /// Latency samples recorded.
    pub fn samples(&self) -> u64 {
        self.pooled().count()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 990.0);
        assert_eq!(median(&mut v), 500.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn histogram_is_exact_below_1024ns_and_within_a_tenth_of_a_percent_above() {
        for ns in [
            0u64,
            1,
            7,
            1_023,
            1_024,
            1_025,
            4_097,
            123_456,
            9_876_543_210,
        ] {
            let mut h = LatencyHist::default();
            h.record(ns);
            let got = h.quantile_us(0.5) * 1e3;
            if ns < 1_024 {
                assert!((got - ns as f64).abs() < 1e-6, "{ns}: {got}");
            } else {
                assert!(
                    (got - ns as f64).abs() / ns as f64 <= 1.0 / 1_024.0,
                    "{ns}: {got}"
                );
            }
        }
        let mut h = LatencyHist::default();
        for ns in 1..=1_000u64 {
            h.record(ns);
        }
        assert_eq!(h.quantile_us(0.99), 0.99);
        assert_eq!(h.count(), 1_000);
    }

    #[test]
    fn recorder_meets_both_the_time_and_the_sample_floor() {
        let mut rec = Recorder::start(0.0, 25);
        while rec.more() {
            rec.record(std::time::Duration::from_nanos(100 + rec.ops()));
        }
        let m = rec.finish();
        assert_eq!(m.ops, 25);
        assert_eq!(m.samples(), 25);
        assert_eq!(m.rounds.len(), 1);
        assert!(m.ops_per_s() > 0.0);
        assert_eq!(m.p50_us(), 0.112);

        let mut rec = Recorder::start_manual(0.0, 6);
        while rec.more() {
            rec.begin_round();
            for ns in [10, 20, 30] {
                rec.record(std::time::Duration::from_nanos(ns));
            }
            rec.end_round();
        }
        let m = rec.finish();
        assert_eq!((m.ops, m.rounds.len()), (6, 2));
        assert_eq!((m.p50_us(), m.p99_us()), (0.02, 0.03));

        // Rounds of 1,000+ samples each report the median round's p99.
        let mut rec = Recorder::start_manual(0.0, 3_000);
        for slow in [5_000u64, 9_000, 7_000] {
            rec.begin_round();
            for i in 0..1_000u64 {
                rec.record(std::time::Duration::from_nanos(if i < 20 {
                    slow
                } else {
                    100
                }));
            }
            rec.end_round();
        }
        let p99 = rec.finish().p99_us();
        assert!((p99 - 7.0).abs() <= 7.0 / 1_024.0, "{p99}");
    }
}
