//! Seeded random generation helpers.
//!
//! Every stochastic component of the reproduction (weight init, corpora,
//! workload traces) goes through [`SeededRng`] so experiments are exactly
//! reproducible from a `u64` seed.

use crate::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, LogNormal, Normal};

/// Deterministic random generator wrapping [`StdRng`].
///
/// # Example
///
/// ```
/// use atom_tensor::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.normal_f32(0.0, 1.0), b.normal_f32(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; `stream` distinguishes
    /// multiple children of one parent.
    pub fn fork(&mut self, stream: u64) -> SeededRng {
        let s = self.inner.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeededRng::new(s)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform_f32(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or non-finite.
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        let dist = Normal::new(mean, std).expect("invalid normal parameters");
        dist.sample(&mut self.inner)
    }

    /// Log-normal sample with the given parameters of the underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn lognormal_f64(&mut self, mu: f64, sigma: f64) -> f64 {
        let dist = LogNormal::new(mu, sigma).expect("invalid lognormal parameters");
        dist.sample(&mut self.inner)
    }

    /// Exponential inter-arrival sample with the given rate (events per unit
    /// time).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential_f64(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -u.ln() / rate
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index of empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut t = self.inner.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if t < w {
                return i;
            }
            t -= w;
        }
        weights.len() - 1
    }

    /// Matrix with i.i.d. normal entries.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        let dist = Normal::new(mean, std).expect("invalid normal parameters");
        let data = (0..rows * cols).map(|_| dist.sample(&mut self.inner)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Matrix with i.i.d. uniform entries in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        assert!(lo < hi, "uniform range must be non-empty");
        let data = (0..rows * cols).map(|_| self.inner.gen_range(lo..hi)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Kaiming-style initialization for a linear layer weight of shape
    /// `out x in`: normal with `std = gain / sqrt(in)`.
    pub fn kaiming_matrix(&mut self, out_features: usize, in_features: usize, gain: f32) -> Matrix {
        let std = gain / crate::cast::usize_to_f32(in_features.max(1)).sqrt();
        self.normal_matrix(out_features, in_features, 0.0, std)
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (in random order).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_f32(), b.uniform_f32());
        }
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut parent1 = SeededRng::new(9);
        let mut parent2 = SeededRng::new(9);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.uniform_f32(), c2.uniform_f32());
        let mut d = parent1.fork(2);
        // Extremely unlikely to collide.
        assert_ne!(c1.uniform_f32(), d.uniform_f32());
    }

    #[test]
    fn normal_matrix_statistics() {
        let mut rng = SeededRng::new(3);
        let m = rng.normal_matrix(100, 100, 2.0, 0.5);
        let mean: f64 = m.as_slice().iter().map(|&v| v as f64).sum::<f64>() / 10_000.0;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SeededRng::new(11);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[rng.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0]);
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SeededRng::new(5);
        let mut idx = rng.sample_indices(10, 10);
        idx.sort_unstable();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn exponential_positive() {
        let mut rng = SeededRng::new(1);
        for _ in 0..100 {
            assert!(rng.exponential_f64(2.0) > 0.0);
        }
    }
}
