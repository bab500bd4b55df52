//! Clipping-factor grid search (paper §5.1).
//!
//! "For clipping, we use a grid search to find optimal clipping factors 0.9
//! and 0.85 for activation and weight quantization" — this module is that
//! search as a first-class API. Given a linear layer and its calibration
//! sample, it evaluates a grid of `(clip_a, clip_w)` pairs by the output
//! MSE of the fake-quantized product and returns the argmin. The whole-
//! model defaults in [`crate::pipeline::AtomScheme`] were chosen with the
//! model-level variant of this search (see `clip_search` in the core
//! examples); this per-layer version is cheap enough to run inside a
//! quantization pipeline.

use crate::calibrate::LinearCalibration;
use atom_kernels::{group, QuantSpec};
use atom_nn::{DenseLinear, LinearLayer};

/// Result of one clipping grid search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipChoice {
    /// Best activation clipping factor.
    pub clip_a: f32,
    /// Best weight clipping factor.
    pub clip_w: f32,
    /// Output MSE achieved at the optimum.
    pub mse: f64,
}

/// The default search grid (the paper searched a similar neighborhood).
pub const DEFAULT_GRID: [f32; 5] = [1.0, 0.97, 0.95, 0.9, 0.85];

/// Grid-searches clipping factors for one linear layer at the given bits
/// and group size, scoring each pair by `|| q(x) q(w)^T - x w^T ||^2` on
/// the calibration sample.
///
/// # Panics
///
/// Panics if the calibration sample is empty or its width disagrees with
/// the layer.
pub fn search_clips(
    dense: &DenseLinear,
    calib: &LinearCalibration,
    bits: u8,
    group_size: usize,
    grid: &[f32],
) -> ClipChoice {
    assert!(calib.sample.rows() > 0, "empty calibration sample");
    assert_eq!(
        calib.sample.cols(),
        dense.in_features(),
        "sample width mismatch"
    );
    assert!(!grid.is_empty(), "empty search grid");
    let exact = dense.forward(&calib.sample);
    let mut best = ClipChoice {
        clip_a: 1.0,
        clip_w: 1.0,
        mse: f64::INFINITY,
    };
    for &clip_w in grid {
        let wq = group::fake_quantize(
            dense.weight(),
            QuantSpec::new(bits, group_size).with_clip(clip_w),
        );
        for &clip_a in grid {
            let xq = group::fake_quantize(
                &calib.sample,
                QuantSpec::new(bits, group_size).with_clip(clip_a),
            );
            let mse = xq.matmul_nt(&wq).mse(&exact);
            if mse < best.mse {
                best = ClipChoice { clip_a, clip_w, mse };
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_tensor::stats::ChannelStats;
    use atom_tensor::{Matrix, SeededRng};

    fn calib_for(x: &Matrix) -> LinearCalibration {
        let mut stats = ChannelStats::new(x.cols());
        stats.update(x);
        LinearCalibration {
            stats,
            gram: None,
            sample: x.clone(),
        }
    }

    #[test]
    fn search_returns_grid_member_with_finite_mse() {
        let mut rng = SeededRng::new(1);
        let dense = DenseLinear::new(rng.normal_matrix(8, 32, 0.0, 1.0));
        let x = rng.normal_matrix(16, 32, 0.0, 1.0);
        let choice = search_clips(&dense, &calib_for(&x), 4, 16, &DEFAULT_GRID);
        assert!(DEFAULT_GRID.contains(&choice.clip_a));
        assert!(DEFAULT_GRID.contains(&choice.clip_w));
        assert!(choice.mse.is_finite());
    }

    #[test]
    fn search_beats_or_matches_no_clipping() {
        let mut rng = SeededRng::new(2);
        let dense = DenseLinear::new(rng.normal_matrix(12, 64, 0.0, 1.0));
        let x = rng.normal_matrix(32, 64, 0.0, 1.0);
        let calib = calib_for(&x);
        let exact = dense.forward(&x);
        let choice = search_clips(&dense, &calib, 3, usize::MAX, &DEFAULT_GRID);
        // Unclipped per-channel 3-bit as the reference point.
        let wq = group::fake_quantize(dense.weight(), QuantSpec::new(3, usize::MAX));
        let xq = group::fake_quantize(&x, QuantSpec::new(3, usize::MAX));
        let unclipped_mse = xq.matmul_nt(&wq).mse(&exact);
        assert!(choice.mse <= unclipped_mse + 1e-12);
        // At 3 bits per-channel on Gaussian data, some clipping must win.
        assert!(
            choice.clip_a < 1.0 || choice.clip_w < 1.0,
            "expected clipping to pay at 3 bits: {choice:?}"
        );
    }

    #[test]
    fn fine_groups_prefer_weaker_clipping_than_per_channel() {
        // The observation behind our recipe change vs the paper: group 16
        // already tracks local ranges, so its optimal clip sits closer to
        // 1.0 than per-channel's.
        let mut rng = SeededRng::new(3);
        let dense = DenseLinear::new(rng.normal_matrix(16, 128, 0.0, 1.0));
        let x = rng.normal_matrix(64, 128, 0.0, 1.0);
        let calib = calib_for(&x);
        let fine = search_clips(&dense, &calib, 4, 16, &DEFAULT_GRID);
        let coarse = search_clips(&dense, &calib, 4, usize::MAX, &DEFAULT_GRID);
        let product = |c: &ClipChoice| c.clip_a * c.clip_w;
        assert!(
            product(&fine) >= product(&coarse),
            "fine {fine:?} should clip no harder than coarse {coarse:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty search grid")]
    fn empty_grid_panics() {
        let mut rng = SeededRng::new(4);
        let dense = DenseLinear::new(rng.normal_matrix(2, 8, 0.0, 1.0));
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        search_clips(&dense, &calib_for(&x), 4, 8, &[]);
    }
}
