//! Kernel probes: direct calls to the leaf kernels at the model's shapes.
//!
//! `mixed_gemm`, `GroupQuantized::quantize` and the fused KV4 attention
//! kernel are called from inside `QuantizedLinear::forward` (or, for the
//! attention kernel, not yet called by the serving path at all), so no
//! decorator can reach them. Instead the traced pass times them here, in
//! isolation, on operands shaped exactly like the model's, and estimates
//! the GEMM time inside the traced linears as Σ calls(shape, m) ×
//! probe(shape, m). Each figure is the minimum over iterations; MACs and
//! bytes are computed from shapes, not measured.

use std::hint::black_box;
use std::time::Instant;

use atom::pipeline::AtomScheme;
use atom_kernels::{
    attention_quant_kv, mixed_gemm, mixed_gemm_with, GroupQuantized, QuantSpec, QuantizedKvHead,
};
use atom_parallel::Pool;
use atom_tensor::Matrix;

use crate::rng::SplitMix64;
use crate::system;
use crate::trace::LinearShape;

/// Row counts the GEMM is probed at; other `m` are interpolated linearly
/// between neighbours (cost is affine in m to within a few per cent) and
/// extrapolated from the last two beyond 256.
pub const PROBE_ROWS: [usize; 4] = [1, 8, 64, 256];
/// Iterations per probe: at least this many…
const MIN_ITERS: usize = 200;
/// …unless one iteration is slow (large m), where the probe stops after
/// this much time but never before [`MIN_SLOW_ITERS`].
const SLOW_PROBE_BUDGET_NS: u64 = 120_000_000;
const MIN_SLOW_ITERS: usize = 12;

fn min_ns(mut f: impl FnMut()) -> f64 {
    let mut best = u64::MAX;
    let mut spent = 0u64;
    let mut iters = 0usize;
    while iters < MIN_ITERS && (iters < MIN_SLOW_ITERS || spent < SLOW_PROBE_BUDGET_NS) {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        best = best.min(ns);
        spent += ns;
        iters += 1;
    }
    best as f64
}

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.below(2001) as f32 - 1000.0) / 500.0)
}

/// `(n, k)` of a linear shape in the benchmark's model.
pub fn shape_nk(shape: LinearShape) -> (usize, usize) {
    let c = system::model_config();
    match shape {
        LinearShape::Square => (c.dim, c.dim),
        LinearShape::Widen => (c.ffn_dim, c.dim),
        LinearShape::Narrow => (c.dim, c.ffn_dim),
    }
}

/// W4A4 operands with INT8 outliers for an `n x k` linear at `m` rows,
/// split exactly as `QuantizedLinear::forward` splits them.
struct GemmOperands {
    a_normal: GroupQuantized,
    a_outlier: GroupQuantized,
    w_normal: GroupQuantized,
    w_outlier: GroupQuantized,
}

fn gemm_operands(rng: &mut SplitMix64, m: usize, n: usize, k: usize) -> GemmOperands {
    let scheme = AtomScheme::w4a4();
    let outliers = scheme.outliers_for(k);
    let normal = QuantSpec::new(scheme.bits, scheme.group);
    let outlier = QuantSpec::new(8, scheme.group);
    GemmOperands {
        a_normal: GroupQuantized::quantize(&random_matrix(rng, m, k - outliers), normal),
        a_outlier: GroupQuantized::quantize(&random_matrix(rng, m, outliers), outlier),
        w_normal: GroupQuantized::quantize(&random_matrix(rng, n, k - outliers), normal),
        w_outlier: GroupQuantized::quantize(&random_matrix(rng, n, outliers), outlier),
    }
}

#[derive(Debug, Clone)]
pub struct Probes {
    /// `gemm_ns[shape as usize][i]`: `mixed_gemm` at `PROBE_ROWS[i]` rows.
    gemm_ns: [[f64; PROBE_ROWS.len()]; 3],
    pub group_quantize_m1_ns: f64,
    pub attn_kv4_l64_ns: f64,
    pub attn_kv4_l512_ns: f64,
    pub par_map_overhead_ns: f64,
    pub gemm_m64_w2_speedup: f64,
    pub gemm_macs_m1: u64,
    pub gemm_weight_bytes: u64,
}

impl Probes {
    pub fn run() -> Probes {
        let mut rng = SplitMix64::new(0x9206E);
        let mut gemm_ns = [[0.0; PROBE_ROWS.len()]; 3];
        for shape in LinearShape::ALL {
            let (n, k) = shape_nk(shape);
            for (mi, m) in PROBE_ROWS.into_iter().enumerate() {
                let op = gemm_operands(&mut rng, m, n, k);
                gemm_ns[shape as usize][mi] = min_ns(|| {
                    black_box(
                        mixed_gemm(
                            &op.a_normal,
                            &op.w_normal,
                            Some((&op.a_outlier, &op.w_outlier)),
                        )
                        .expect("probe shapes agree"),
                    );
                });
            }
        }

        let c = system::model_config();
        let scheme = AtomScheme::w4a4();
        let outliers = scheme.outliers_for(c.dim);
        let x_normal = random_matrix(&mut rng, 1, c.dim - outliers);
        let x_outlier = random_matrix(&mut rng, 1, outliers);
        let group_quantize_m1_ns = min_ns(|| {
            black_box(GroupQuantized::quantize(
                &x_normal,
                QuantSpec::new(scheme.bits, scheme.group),
            ));
            black_box(GroupQuantized::quantize(
                &x_outlier,
                QuantSpec::new(8, scheme.group),
            ));
        });

        let hd = c.head_dim();
        let mut attn = |len: usize| {
            let mut head = QuantizedKvHead::new(hd, system::KV_BITS);
            head.append(
                &random_matrix(&mut rng, len, hd),
                &random_matrix(&mut rng, len, hd),
            );
            let q = random_matrix(&mut rng, 1, hd);
            min_ns(|| {
                black_box(attention_quant_kv(&q, &head, 0.25));
            })
        };
        let attn_kv4_l64_ns = attn(64);
        let attn_kv4_l512_ns = attn(512);

        let items: Vec<usize> = (0..c.heads).collect();
        let par_map_overhead_ns = min_ns(|| {
            black_box(
                Pool::global()
                    .par_map(&items, |_, &h| h)
                    .expect("no panics"),
            );
        });

        // The probe named in the metric list: the widening (384 x 128) GEMM.
        let (n, k) = shape_nk(LinearShape::Widen);
        let op = gemm_operands(&mut rng, 64, n, k);
        let at_width = |threads: usize| {
            let pool = Pool::new(threads);
            min_ns(|| {
                black_box(
                    mixed_gemm_with(
                        &pool,
                        &op.a_normal,
                        &op.w_normal,
                        Some((&op.a_outlier, &op.w_outlier)),
                    )
                    .expect("probe shapes agree"),
                );
            })
        };
        let gemm_m64_w2_speedup = at_width(1) / at_width(2);

        Probes {
            gemm_ns,
            group_quantize_m1_ns,
            attn_kv4_l64_ns,
            attn_kv4_l512_ns,
            par_map_overhead_ns,
            gemm_m64_w2_speedup,
            gemm_macs_m1: (n * k) as u64,
            gemm_weight_bytes: (op.w_normal.packed_bytes() + op.w_outlier.packed_bytes()) as u64,
        }
    }

    /// The widening GEMM at `PROBE_ROWS[i]` rows, ns.
    pub fn widen_gemm_ns(&self, i: usize) -> f64 {
        self.gemm_ns[LinearShape::Widen as usize][i]
    }

    /// Estimated `mixed_gemm` time for one linear of `shape` at `m` rows.
    pub fn gemm_estimate_ns(&self, shape: LinearShape, m: usize) -> f64 {
        interpolate(&PROBE_ROWS, &self.gemm_ns[shape as usize], m)
    }
}

/// Piecewise-linear through `(xs[i], ys[i])`, the last segment extended
/// beyond the last point (and the first below the first).
fn interpolate(xs: &[usize], ys: &[f64], x: usize) -> f64 {
    let hi = xs
        .iter()
        .position(|&p| p >= x)
        .unwrap_or(xs.len() - 1)
        .max(1);
    let (x0, x1) = (xs[hi - 1] as f64, xs[hi] as f64);
    let (y0, y1) = (ys[hi - 1], ys[hi]);
    (y0 + (y1 - y0) * (x as f64 - x0) / (x1 - x0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_hits_the_probes_and_extends_the_last_segment() {
        let xs = [1usize, 8, 64, 256];
        let ys = [10.0, 24.0, 136.0, 520.0];
        for (x, y) in xs.iter().zip(ys) {
            assert_eq!(interpolate(&xs, &ys, *x), y);
        }
        assert_eq!(interpolate(&xs, &ys, 36), 80.0);
        assert_eq!(interpolate(&xs, &ys, 352), 712.0);
    }
}
