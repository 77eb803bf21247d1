//! Statistical comparison utilities: paired bootstrap significance tests
//! for "method A beats method B" claims (the honest companion of a
//! mean-of-5-runs table).

use rand::{Rng, SeedableRng};

/// Result of a paired bootstrap test on per-item metric differences.
#[derive(Clone, Copy, Debug)]
pub struct BootstrapResult {
    /// Mean of `a - b` over the paired items.
    pub mean_diff: f64,
    /// Fraction of bootstrap resamples where the mean difference was `<= 0`
    /// — a one-sided p-value for "A > B".
    pub p_value: f64,
}

impl BootstrapResult {
    /// `true` when A beats B at the given significance level.
    pub fn significant(&self, alpha: f64) -> bool {
        self.mean_diff > 0.0 && self.p_value < alpha
    }
}

/// Paired bootstrap over per-item scores of two systems (`a[i]` and `b[i]`
/// must measure the same item, e.g. the reciprocal rank of the same test
/// triple under two models).
pub fn paired_bootstrap(a: &[f64], b: &[f64], resamples: usize, seed: u64) -> BootstrapResult {
    assert_eq!(a.len(), b.len(), "paired test requires matched items");
    assert!(!a.is_empty(), "no items to compare");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let mean_diff = diffs.iter().sum::<f64>() / diffs.len() as f64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut worse = 0usize;
    for _ in 0..resamples {
        let mut s = 0.0;
        for _ in 0..diffs.len() {
            s += diffs[rng.gen_range(0..diffs.len())];
        }
        if s / diffs.len() as f64 <= 0.0 {
            worse += 1;
        }
    }
    BootstrapResult { mean_diff, p_value: worse as f64 / resamples as f64 }
}

/// A permutation test on the same pairing (sign-flip test): the p-value is
/// the fraction of random sign assignments with a mean at least as large as
/// the observed one.
pub fn sign_flip_test(a: &[f64], b: &[f64], resamples: usize, seed: u64) -> f64 {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let observed = diffs.iter().sum::<f64>() / diffs.len() as f64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut at_least = 0usize;
    let mut signs: Vec<f64> = vec![1.0; diffs.len()];
    for _ in 0..resamples {
        for s in &mut signs {
            *s = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        }
        let m = diffs.iter().zip(&signs).map(|(d, s)| d * s).sum::<f64>() / diffs.len() as f64;
        if m >= observed {
            at_least += 1;
        }
    }
    at_least as f64 / resamples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_difference_is_significant() {
        let a: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
        let b: Vec<f64> = (0..100).map(|i| 0.2 + (i % 5) as f64 * 0.01).collect();
        let r = paired_bootstrap(&a, &b, 500, 1);
        assert!(r.mean_diff > 0.7);
        assert!(r.significant(0.05), "p = {}", r.p_value);
        assert!(sign_flip_test(&a, &b, 500, 1) < 0.05);
    }

    #[test]
    fn identical_systems_are_not_significant() {
        let a: Vec<f64> = (0..60).map(|i| (i % 10) as f64).collect();
        let r = paired_bootstrap(&a, &a, 300, 2);
        assert_eq!(r.mean_diff, 0.0);
        assert!(!r.significant(0.05));
    }

    #[test]
    fn noisy_tie_is_not_significant() {
        // alternating winner: mean difference ~0
        let a: Vec<f64> = (0..80).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let b: Vec<f64> = (0..80).map(|i| if i % 2 == 1 { 1.0 } else { 0.0 }).collect();
        let r = paired_bootstrap(&a, &b, 500, 3);
        assert!(!r.significant(0.05), "p = {} diff = {}", r.p_value, r.mean_diff);
    }

    #[test]
    #[should_panic(expected = "matched items")]
    fn mismatched_lengths_rejected() {
        paired_bootstrap(&[1.0], &[1.0, 2.0], 10, 0);
    }
}
