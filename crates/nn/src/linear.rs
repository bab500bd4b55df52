//! The linear-layer abstraction that makes the model quantizable.
//!
//! [`LlamaModel`](crate::model::LlamaModel) is generic over
//! [`LinearLayer`], so the FP32 reference model and Atom's quantized model
//! share every line of attention/MLP plumbing: quantization swaps only the
//! linear operator (exactly as the paper swaps GEMM kernels, Fig. 6).

use atom_telemetry::{names, Telemetry};
use atom_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A bias-free linear operator `y = x @ W^T` (Llama layers carry no biases).
///
/// Implementations may compute the product in full precision, through a
/// fake-quantization path, or through bit-exact packed integer kernels.
///
/// `Send + Sync` are supertraits so a model built from these layers can move
/// between threads with the engine serving it and be shared by reference
/// with the thread pool's scoped workers. A batched forward calls each
/// layer once with every sequence's rows stacked; the layer's own kernels
/// parallelize over them.
pub trait LinearLayer: std::fmt::Debug + Send + Sync {
    /// Applies the layer to a `tokens x in_features` activation matrix.
    fn forward(&self, x: &Matrix) -> Matrix;

    /// Applies each of `layers` to one shared input `x` — to the rows of
    /// `x` its row list names, in that order, or to every row without one
    /// — and returns their outputs in order. The attention's Q/K/V and the
    /// MLP's gate/up read one input each: a layer whose forward prepares
    /// its input (Atom quantizes it) may prepare it once for all of them.
    /// Each output is bit-identical to that layer's own
    /// [`forward`](Self::forward) of its rows, which is what this default
    /// body ([`forward_each`]) calls.
    fn forward_shared(layers: &[(&Self, Option<&[usize]>)], x: &Matrix) -> Vec<Matrix>
    where
        Self: Sized,
    {
        forward_each(layers, x)
    }

    /// Number of input features.
    fn in_features(&self) -> usize;

    /// Number of output features.
    fn out_features(&self) -> usize;
}

/// [`LinearLayer::forward_shared`] with nothing shared: each layer's own
/// forward of its rows of `x`.
pub fn forward_each<L: LinearLayer>(layers: &[(&L, Option<&[usize]>)], x: &Matrix) -> Vec<Matrix> {
    layers
        .iter()
        .map(|&(layer, rows)| match rows {
            Some(rows) => layer.forward(&x.gather_rows(rows)),
            None => layer.forward(x),
        })
        .collect()
}

/// Dense FP32 linear layer storing its weight `out_features x in_features`.
///
/// # Example
///
/// ```
/// use atom_nn::linear::{DenseLinear, LinearLayer};
/// use atom_tensor::Matrix;
///
/// let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
/// let layer = DenseLinear::new(w);
/// let y = layer.forward(&Matrix::from_row(&[3.0, 4.0]));
/// assert_eq!(y.as_slice(), &[3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLinear {
    weight: Matrix,
}

impl DenseLinear {
    /// Wraps a weight matrix stored `out_features x in_features`.
    pub fn new(weight: Matrix) -> Self {
        DenseLinear { weight }
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Mutable access to the weight matrix (used by the outlier-injection
    /// transform and by GPTQ's in-place quantization).
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }
}

impl LinearLayer for DenseLinear {
    fn forward(&self, x: &Matrix) -> Matrix {
        let t = Telemetry::global();
        let _timer = t.timer(names::OP_GEMM_WALL_NS);
        // FP32 operands: 4 bytes per element of x and W.
        t.counter_add(
            names::OP_GEMM_BYTES,
            4 * (x.rows() * x.cols() + self.weight.rows() * self.weight.cols()) as u64,
        );
        t.counter_add(names::OP_GEMM_ROWS, x.rows() as u64);
        t.counter_add(names::OP_GEMM_CALLS, 1);
        x.matmul_nt(&self.weight)
    }

    fn in_features(&self) -> usize {
        self.weight.cols()
    }

    fn out_features(&self) -> usize {
        self.weight.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_matmul() {
        let w = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 0.0]]);
        let l = DenseLinear::new(w.clone());
        assert_eq!(l.in_features(), 3);
        assert_eq!(l.out_features(), 2);
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 0.0, -2.0]]);
        assert_eq!(l.forward(&x), x.matmul_nt(&w));
    }
}
