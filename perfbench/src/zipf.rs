//! Exact Zipf(1) sampling by inverse CDF over a precomputed table.
//!
//! Rank `k` (0-based) has probability `1 / ((k + 1) · H_n)`, where `H_n`
//! is the n-th harmonic number. A uniform draw `u ∈ [0, 1)` maps to the
//! first rank whose cumulative probability exceeds `u`, so each rank
//! receives exactly the measure of its CDF step: one binary search per
//! draw, no rejection loop and no approximation of the law.

use rand::Rng;

/// An inverse-CDF table for Zipf(1) over `n` ranks.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for ranks `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64 * harmonic);
                acc
            })
            .collect();
        // Rounding may leave the last step a hair under 1; pin it so every
        // uniform draw lands on some rank.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `k` under the table (its CDF step).
    #[cfg(test)]
    pub fn step(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }

    /// The rank a uniform `u ∈ [0, 1)` maps to.
    pub fn rank_of(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf(n: usize, k: usize) -> f64 {
        let harmonic: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        1.0 / ((k + 1) as f64 * harmonic)
    }

    #[test]
    fn table_steps_equal_the_exact_pmf() {
        for n in [1, 2, 7, 2_000, 32_768] {
            let z = Zipf::new(n);
            assert_eq!(z.len(), n);
            for k in 0..n {
                assert!(
                    (z.step(k) - pmf(n, k)).abs() < 1e-12,
                    "n={n} k={k}: step {} vs pmf {}",
                    z.step(k),
                    pmf(n, k)
                );
            }
        }
    }

    #[test]
    fn inverse_cdf_maps_each_step_to_its_rank() {
        let z = Zipf::new(100);
        let mut lo = 0.0;
        for k in 0..100 {
            let hi = z.cdf[k];
            assert_eq!(z.rank_of(lo), k, "left edge of step {k}");
            assert_eq!(z.rank_of((lo + hi) / 2.0), k, "middle of step {k}");
            lo = hi;
        }
        assert_eq!(z.rank_of(0.999_999_999_999), 99);
    }

    #[test]
    fn empirical_frequencies_match_the_pmf() {
        let n = 1_000;
        let z = Zipf::new(n);
        let mut rng = hc_common::rng::seeded(7);
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // Chi-square over the 20 most popular ranks plus the tail bucket:
        // 20 degrees of freedom, 0.1% critical value ≈ 45.3.
        let mut chi2 = 0.0;
        let mut tail_obs = draws as f64;
        let mut tail_exp = draws as f64;
        for (k, &c) in counts.iter().enumerate().take(20) {
            let expected = pmf(n, k) * draws as f64;
            chi2 += (c as f64 - expected).powi(2) / expected;
            tail_obs -= c as f64;
            tail_exp -= expected;
        }
        chi2 += (tail_obs - tail_exp).powi(2) / tail_exp;
        assert!(chi2 < 45.3, "chi-square {chi2:.1} rejects Zipf(1)");
    }
}
