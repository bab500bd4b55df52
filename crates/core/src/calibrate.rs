//! Offline calibration: activation statistics, outlier-channel
//! identification, and channel-reorder plans (paper §4.1, §5.1).
//!
//! Atom identifies outlier channels *offline*: calibration data (128 random
//! sentences, §5.1) flows through the FP model while an observer collects
//! per-channel square sums at every linear-layer input. The channels with
//! the largest square sums become the outlier set; the reorder plan moves
//! them to the end of the matrix so the mixed-precision kernel sees two
//! contiguous regions.
//!
//! The same pass optionally accumulates the Gram matrix `H = Σ xᵀx` of each
//! linear's inputs, which is the Hessian proxy GPTQ needs (§4.3).

use atom_nn::kv::Fp32KvCache;
use atom_nn::model::{ForwardObserver, LinearId};
use atom_nn::{LinearLayer, LlamaModel};
use atom_tensor::stats::ChannelStats;
use atom_tensor::Matrix;
use std::collections::BTreeMap;

/// Per-linear calibration data.
#[derive(Debug, Clone)]
pub struct LinearCalibration {
    /// Streaming channel statistics of the layer's input activations.
    pub stats: ChannelStats,
    /// Gram matrix `Σ xᵀx` over (subsampled) calibration rows, in f64.
    /// Present only when Hessian collection was requested.
    pub gram: Option<Vec<f64>>,
    /// Number of rows accumulated into `gram`.
    pub gram_rows: usize,
    /// A capped sample of raw input rows, used by the SmoothQuant/AWQ alpha
    /// grid searches and the clipping search.
    pub sample: Matrix,
}

/// Maximum activation rows retained per linear for grid searches.
const MAX_SAMPLE_ROWS: usize = 192;

/// Calibration results for a whole model.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    per_linear: BTreeMap<LinearId, LinearCalibration>,
}

impl Calibration {
    /// Runs `sequences` through the model and collects statistics at every
    /// linear input.
    ///
    /// `collect_gram = true` additionally accumulates the GPTQ Hessian
    /// proxy; rows are subsampled by `gram_stride` (1 = every token) to
    /// bound the O(tokens · k²) cost.
    ///
    /// # Panics
    ///
    /// Panics if `sequences` is empty or `gram_stride == 0`.
    pub fn collect<L: LinearLayer>(
        model: &LlamaModel<L>,
        sequences: &[Vec<u16>],
        collect_gram: bool,
        gram_stride: usize,
    ) -> Self {
        assert!(!sequences.is_empty(), "calibration needs sequences");
        assert!(gram_stride > 0, "gram_stride must be positive");
        let config = model.config();
        let mut obs = CalibObserver {
            calib: Calibration::default(),
            collect_gram,
            gram_stride,
        };
        for seq in sequences {
            if seq.is_empty() {
                continue;
            }
            let mut cache = Fp32KvCache::new(config.layers, config.kv_dim());
            let take = seq.len().min(config.max_seq_len);
            model.forward_observed(&seq[..take], &mut cache, &mut obs);
        }
        obs.calib
    }

    /// Calibration data of one linear.
    pub fn linear(&self, id: LinearId) -> Option<&LinearCalibration> {
        self.per_linear.get(&id)
    }

    /// All linear ids seen during calibration, by layer, then projection
    /// name, then expert.
    pub fn linear_ids(&self) -> Vec<LinearId> {
        let mut ids: Vec<LinearId> = self.per_linear.keys().copied().collect();
        // The map's own order is `LinearId`'s derived `Ord` (projections in
        // forward order Q, K, V, O, …), which is not this listing's.
        ids.sort_by_key(|id| (id.layer, format!("{:?}", id.proj), id.expert));
        ids
    }

    /// Builds the channel-reorder plan for one linear: the `n_outliers`
    /// channels with the largest square sums move to the end (paper §5.1).
    ///
    /// # Panics
    ///
    /// Panics if the linear was not calibrated or `n_outliers` exceeds its
    /// channel count.
    pub fn reorder_plan(&self, id: LinearId, n_outliers: usize) -> ReorderPlan {
        let calib = self
            .per_linear
            .get(&id)
            .unwrap_or_else(|| panic!("linear {id} was not calibrated"));
        ReorderPlan::from_stats(&calib.stats, n_outliers)
    }
}

/// A channel permutation separating normal channels (front, original
/// relative order) from outlier channels (back, by descending square sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderPlan {
    perm: Vec<usize>,
    n_outliers: usize,
}

impl ReorderPlan {
    /// Builds a plan from channel statistics.
    ///
    /// # Panics
    ///
    /// Panics if `n_outliers > stats.channels()`.
    pub fn from_stats(stats: &ChannelStats, n_outliers: usize) -> Self {
        let channels = stats.channels();
        assert!(
            n_outliers <= channels,
            "n_outliers {n_outliers} exceeds {channels} channels"
        );
        let outliers = stats.top_square_sum_channels(n_outliers);
        Self::from_outlier_set(channels, &outliers)
    }

    /// Builds a plan from an explicit outlier channel list (descending
    /// priority).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate indices.
    pub fn from_outlier_set(channels: usize, outliers: &[usize]) -> Self {
        let mut is_outlier = vec![false; channels];
        for &c in outliers {
            assert!(c < channels, "outlier channel {c} out of range");
            assert!(!is_outlier[c], "duplicate outlier channel {c}");
            is_outlier[c] = true;
        }
        let mut perm = Vec::with_capacity(channels);
        for (c, &flag) in is_outlier.iter().enumerate() {
            if !flag {
                perm.push(c);
            }
        }
        perm.extend_from_slice(outliers);
        ReorderPlan {
            perm,
            n_outliers: outliers.len(),
        }
    }

    /// The identity plan (no outliers, no reordering).
    pub fn identity(channels: usize) -> Self {
        ReorderPlan {
            perm: (0..channels).collect(),
            n_outliers: 0,
        }
    }

    /// The permutation: output channel `i` reads input channel `perm[i]`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Number of outlier channels (at the end of the permuted order).
    pub fn n_outliers(&self) -> usize {
        self.n_outliers
    }

    /// Total channels.
    pub fn channels(&self) -> usize {
        self.perm.len()
    }

    /// Number of normal (low-bit) channels.
    pub fn n_normal(&self) -> usize {
        self.perm.len() - self.n_outliers
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.perm.len()];
        for (i, &p) in self.perm.iter().enumerate() {
            inv[p] = i;
        }
        inv
    }

    /// Applies the plan to activation columns.
    pub fn reorder_activation(&self, x: &Matrix) -> Matrix {
        x.permute_cols(&self.perm)
    }

    /// Applies the plan to a weight stored `out_features x in_features`
    /// (reorders the input-feature columns so the product is unchanged).
    pub fn reorder_weight(&self, w: &Matrix) -> Matrix {
        w.permute_cols(&self.perm)
    }

    /// Applies the plan to a `k x k` Gram/Hessian matrix (both dimensions).
    pub fn reorder_gram(&self, gram: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(gram.len(), k * k, "gram size mismatch");
        assert_eq!(k, self.perm.len(), "gram dimension mismatch");
        let mut out = vec![0.0f64; k * k];
        for i in 0..k {
            for j in 0..k {
                out[i * k + j] = gram[self.perm[i] * k + self.perm[j]];
            }
        }
        out
    }
}

struct CalibObserver {
    calib: Calibration,
    collect_gram: bool,
    gram_stride: usize,
}

impl ForwardObserver for CalibObserver {
    fn observe(&mut self, id: LinearId, input: &Matrix) {
        let k = input.cols();
        let entry = self
            .calib
            .per_linear
            .entry(id)
            .or_insert_with(|| LinearCalibration {
                stats: ChannelStats::new(k),
                gram: if self.collect_gram {
                    Some(vec![0.0f64; k * k])
                } else {
                    None
                },
                gram_rows: 0,
                sample: Matrix::zeros(0, k),
            });
        entry.stats.update(input);
        if entry.sample.rows() < MAX_SAMPLE_ROWS {
            let take = (MAX_SAMPLE_ROWS - entry.sample.rows()).min(input.rows());
            entry.sample = entry.sample.vstack(&input.slice_rows(0, take));
        }
        if let Some(gram) = &mut entry.gram {
            let mut r = 0;
            while r < input.rows() {
                let row = input.row(r);
                for i in 0..k {
                    let xi = row[i] as f64;
                    if xi == 0.0 {
                        continue;
                    }
                    let dst = &mut gram[i * k..(i + 1) * k];
                    for (d, &xj) in dst.iter_mut().zip(row.iter()) {
                        *d += xi * xj as f64;
                    }
                }
                entry.gram_rows += 1;
                r += self.gram_stride;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_nn::config::ModelConfig;
    use atom_nn::model::Proj;

    fn tiny_model() -> LlamaModel<atom_nn::DenseLinear> {
        LlamaModel::random_init(
            ModelConfig {
                dim: 32,
                layers: 2,
                heads: 4,
                kv_heads: 4,
                ffn_dim: 48,
                ..ModelConfig::default()
            },
            7,
        )
    }

    fn seqs() -> Vec<Vec<u16>> {
        (0..4)
            .map(|s| (0..20).map(|i| ((s * 31 + i * 7) % 96) as u16).collect())
            .collect()
    }

    #[test]
    fn collects_stats_for_every_linear() {
        let m = tiny_model();
        let calib = Calibration::collect(&m, &seqs(), false, 1);
        assert_eq!(calib.linear_ids().len(), m.num_linears());
        let q0 = calib.linear(LinearId::new(0, Proj::Q)).unwrap();
        assert_eq!(q0.stats.channels(), 32);
        assert_eq!(q0.stats.count(), 80); // 4 sequences x 20 tokens
        assert!(q0.gram.is_none());
        assert_eq!(q0.sample.rows(), 80);
        assert_eq!(q0.sample.cols(), 32);
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let m = tiny_model();
        let calib = Calibration::collect(&m, &seqs(), true, 1);
        let g = calib
            .linear(LinearId::new(1, Proj::Gate))
            .unwrap()
            .gram
            .as_ref()
            .unwrap()
            .clone();
        let k = 32;
        for i in 0..k {
            assert!(g[i * k + i] >= 0.0, "diagonal must be nonnegative");
            for j in 0..k {
                assert!((g[i * k + j] - g[j * k + i]).abs() < 1e-6, "symmetry");
            }
        }
    }

    #[test]
    fn gram_stride_subsamples() {
        let m = tiny_model();
        let full = Calibration::collect(&m, &seqs(), true, 1);
        let sub = Calibration::collect(&m, &seqs(), true, 4);
        let id = LinearId::new(0, Proj::Q);
        assert!(sub.linear(id).unwrap().gram_rows < full.linear(id).unwrap().gram_rows);
        assert!(sub.linear(id).unwrap().gram_rows >= 80 / 4);
    }

    #[test]
    fn reorder_plan_moves_outliers_to_end() {
        let mut stats = ChannelStats::new(6);
        let mut m = Matrix::zeros(2, 6);
        m[(0, 1)] = 100.0;
        m[(1, 4)] = 50.0;
        m[(0, 0)] = 1.0;
        stats.update(&m);
        let plan = ReorderPlan::from_stats(&stats, 2);
        assert_eq!(plan.n_outliers(), 2);
        assert_eq!(plan.n_normal(), 4);
        // Outliers 1 (biggest) then 4 go last; normals keep order.
        assert_eq!(plan.perm(), &[0, 2, 3, 5, 1, 4]);
    }

    #[test]
    fn reorder_preserves_linear_output() {
        let mut rng = atom_tensor::SeededRng::new(3);
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        let w = rng.normal_matrix(5, 8, 0.0, 1.0);
        let plan = ReorderPlan::from_outlier_set(8, &[6, 2]);
        let xr = plan.reorder_activation(&x);
        let wr = plan.reorder_weight(&w);
        let before = x.matmul_nt(&w);
        let after = xr.matmul_nt(&wr);
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn inverse_permutation_roundtrips() {
        let plan = ReorderPlan::from_outlier_set(5, &[0, 3]);
        let mut rng = atom_tensor::SeededRng::new(4);
        let x = rng.normal_matrix(2, 5, 0.0, 1.0);
        let round = plan.reorder_activation(&x).permute_cols(&plan.inverse());
        assert_eq!(round, x);
    }

    #[test]
    fn reorder_gram_consistent_with_activation_reorder() {
        let mut rng = atom_tensor::SeededRng::new(5);
        let x = rng.normal_matrix(10, 6, 0.0, 1.0);
        let plan = ReorderPlan::from_outlier_set(6, &[1, 5]);
        // Gram of reordered activations == reordered gram of activations.
        let gram = |m: &Matrix| {
            let k = m.cols();
            let mut g = vec![0.0f64; k * k];
            for r in 0..m.rows() {
                let row = m.row(r);
                for i in 0..k {
                    for j in 0..k {
                        g[i * k + j] += row[i] as f64 * row[j] as f64;
                    }
                }
            }
            g
        };
        let direct = gram(&plan.reorder_activation(&x));
        let via_plan = plan.reorder_gram(&gram(&x), 6);
        for (a, b) in direct.iter().zip(via_plan.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate outlier")]
    fn duplicate_outliers_rejected() {
        ReorderPlan::from_outlier_set(4, &[1, 1]);
    }
}
