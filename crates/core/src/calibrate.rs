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
//!
//! Linears that read one activation share one record, kept under their
//! [`LinearId::input`]: Q/K/V share one, and so do a layer's router and
//! every expert's gate/up. Their statistics, Grams and reorder plans are
//! therefore equal by construction, and each input is accumulated once.

use atom_nn::kv::Fp32KvCache;
use atom_nn::model::{ForwardObserver, LinearId};
use atom_nn::{LinearLayer, LlamaModel};
use atom_tensor::stats::ChannelStats;
use atom_tensor::Matrix;
use std::collections::BTreeMap;

/// Calibration data of one linear input (shared by the linears reading it).
#[derive(Debug, Clone)]
pub struct LinearCalibration {
    /// Streaming channel statistics of the layer's input activations.
    pub stats: ChannelStats,
    /// Gram matrix `Σ xᵀx` over (subsampled) calibration rows, in f64.
    /// Present only when Hessian collection was requested.
    pub gram: Option<Vec<f64>>,
    /// A capped sample of raw input rows, used by the SmoothQuant/AWQ alpha
    /// grid searches and the clipping search.
    pub sample: Matrix,
}

/// Maximum activation rows retained per linear for grid searches.
const MAX_SAMPLE_ROWS: usize = 192;

/// Calibration results for a whole model.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    /// Keyed by [`LinearId::input`].
    per_input: BTreeMap<LinearId, LinearCalibration>,
}

impl Calibration {
    /// Runs `sequences` through the model and collects statistics at every
    /// distinct linear input.
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
        for lc in obs.calib.per_input.values_mut() {
            if let Some(gram) = &mut lc.gram {
                mirror_upper(gram, lc.stats.channels());
            }
        }
        obs.calib
    }

    /// Calibration data of one linear: that of the input it reads.
    pub fn linear(&self, id: LinearId) -> Option<&LinearCalibration> {
        self.per_input.get(&id.input())
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
            .linear(id)
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
            .per_input
            .entry(id)
            .or_insert_with(|| LinearCalibration {
                stats: ChannelStats::new(k),
                gram: if self.collect_gram {
                    Some(vec![0.0f64; k * k])
                } else {
                    None
                },
                sample: Matrix::zeros(0, k),
            });
        entry.stats.update(input);
        if entry.sample.rows() < MAX_SAMPLE_ROWS {
            let take = (MAX_SAMPLE_ROWS - entry.sample.rows()).min(input.rows());
            entry.sample = entry.sample.vstack(&input.slice_rows(0, take));
        }
        if let Some(gram) = &mut entry.gram {
            accumulate_upper(gram, input, self.gram_stride);
        }
    }
}

/// Rows of calibration input one pass over the Gram's upper triangle adds.
const GRAM_ROWS_PER_PASS: usize = 4;

/// Adds `xᵀx` for rows `0, stride, 2·stride, …` of `input` into the upper
/// triangle (`j ≥ i`) of the row-major `k x k` `gram`; [`mirror_upper`]
/// completes the matrix once every row is in.
///
/// Each entry adds its rows' products in row order, so every sum is bit
/// for bit the one a full `k x k` pass per row computes (`xᵢ·xⱼ == xⱼ·xᵢ`
/// makes the lower triangle a copy). Rows go four to a pass, each widened
/// to `f64` once, and a short last pass is padded with zero rows. There is
/// no skip for zero entries: a zero row or entry adds a `±0` product to a
/// sum that starts at `+0.0`, and round-to-nearest never turns such a sum
/// into `−0.0`, so adding `±0` leaves it unchanged. For finite inputs the
/// padding and the products of zeros therefore change no bit.
fn accumulate_upper(gram: &mut [f64], input: &Matrix, stride: usize) {
    let k = input.cols();
    let rows: Vec<&[f32]> = (0..input.rows()).step_by(stride).map(|r| input.row(r)).collect();
    let mut x: [Vec<f64>; GRAM_ROWS_PER_PASS] = std::array::from_fn(|_| vec![0.0; k]);
    for pass in rows.chunks(GRAM_ROWS_PER_PASS) {
        for (t, xt) in x.iter_mut().enumerate() {
            match pass.get(t) {
                Some(row) => xt.iter_mut().zip(*row).for_each(|(d, &v)| *d = f64::from(v)),
                None => xt.fill(0.0),
            }
        }
        let [x0, x1, x2, x3] = &x;
        for i in 0..k {
            let (a0, a1, a2, a3) = (x0[i], x1[i], x2[i], x3[i]);
            let cols = x0[i..].iter().zip(&x1[i..]).zip(&x2[i..]).zip(&x3[i..]);
            for (d, (((&b0, &b1), &b2), &b3)) in gram[i * k + i..(i + 1) * k].iter_mut().zip(cols) {
                *d = *d + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3;
            }
        }
    }
}

/// Copies the upper triangle of the row-major `k x k` `gram` onto its lower
/// triangle.
fn mirror_upper(gram: &mut [f64], k: usize) {
    for i in 0..k {
        for j in (i + 1)..k {
            gram[j * k + i] = gram[i * k + j];
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
        m.visit_linears(|id, _| assert!(calib.linear(id).is_some(), "{id}"));
        // Q/K/V share one record, gate/up another: 4 inputs per layer.
        assert_eq!(calib.per_input.len(), 2 * 4);
        let qkv = [Proj::Q, Proj::K, Proj::V].map(|p| calib.linear(LinearId::new(0, p)).unwrap());
        assert!(qkv.iter().all(|c| std::ptr::eq(*c, qkv[0])));
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

    /// The loop `accumulate_upper` + `mirror_upper` replaced: the full
    /// `k x k`, one row at a time, skipping zero entries.
    fn gram_oracle(gram: &mut [f64], input: &Matrix, stride: usize) {
        let k = input.cols();
        for r in (0..input.rows()).step_by(stride) {
            let row = input.row(r);
            for i in 0..k {
                let xi = row[i] as f64;
                if xi == 0.0 {
                    continue;
                }
                for (d, &xj) in gram[i * k..(i + 1) * k].iter_mut().zip(row.iter()) {
                    *d += xi * xj as f64;
                }
            }
        }
    }

    #[test]
    fn half_gram_is_the_full_loop_bit_for_bit() {
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = atom_tensor::SeededRng::new(11);
        for stride in 1..=4 {
            for (k, rows) in [(0, 3), (1, 1), (3, 2), (5, 9), (16, 7), (33, 13), (48, 0)] {
                let (mut half, mut full) = (vec![0.0f64; k * k], vec![0.0f64; k * k]);
                // Two inputs in a row: the second adds onto a nonzero Gram.
                for _ in 0..2 {
                    let mut x = rng.normal_matrix(rows, k, 0.0, 2.0);
                    // Exact zeros of both signs, and one all-zero row.
                    x.map_in_place(|v| if v.abs() < 0.8 { 0.0 * v.signum() } else { v });
                    if rows > 1 {
                        x.row_mut(1).fill(0.0);
                    }
                    accumulate_upper(&mut half, &x, stride);
                    gram_oracle(&mut full, &x, stride);
                }
                mirror_upper(&mut half, k);
                assert_eq!(bits(&half), bits(&full), "k {k}, rows {rows}, stride {stride}");
            }
        }
    }

    /// Layer 0's attention input is each token's normed embedding alone,
    /// so its Gram at stride 4 is, bit for bit, its Gram at stride 1 over
    /// every fourth token; the channel statistics still see every row.
    #[test]
    fn gram_stride_subsamples() {
        let m = tiny_model();
        let sub = Calibration::collect(&m, &seqs(), true, 4);
        let every_fourth: Vec<Vec<u16>> = seqs()
            .iter()
            .map(|s| s.iter().step_by(4).copied().collect())
            .collect();
        let thinned = Calibration::collect(&m, &every_fourth, true, 1);
        let id = LinearId::new(0, Proj::Q);
        let gram_bits = |c: &Calibration| {
            let gram = c.linear(id).unwrap().gram.as_ref().unwrap();
            gram.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(gram_bits(&sub), gram_bits(&thinned));
        assert_eq!(sub.linear(id).unwrap().stats.count(), 80);
        assert_eq!(thinned.linear(id).unwrap().stats.count(), 20);
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
